"""Place census, Euler products, the convolution oracle, growth ratios."""

from fractions import Fraction

import pytest

from ramcount import asw, counts, euler
from ramcount.errors import (
    BudgetExceededError,
    InternalInconsistencyError,
)

Z2 = counts.GroupShape(2, (1,))


def test_census_small_degrees_at_q2():
    census = dict(euler.place_census(2, 4))
    assert census[1] == 3
    assert census[2] == 1
    assert census[3] == 2
    assert census[4] == 3


def test_census_includes_infinite_place():
    assert dict(euler.place_census(5, 1))[1] == 6


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_census_zeta_identity(q):
    table = dict(euler.place_census(q, 8))
    for m in range(1, 9):
        assert sum(d * pi for d, pi in table.items() if m % d == 0) == q ** m + 1


CENSUS_2237 = "^5004169 bits compared by the census to degree 2237 exceed 5000000$"


def test_census_degree_cap():
    # the census obeys the one budget, at max_degree^2 ceil(log2 q) bits
    assert len(euler.place_census(2, 33)) == 33
    with pytest.raises(BudgetExceededError, match=CENSUS_2237):
        euler.place_census(2, 2237)


def test_census_refuses_before_any_work(monkeypatch):
    def planted(n):
        raise AssertionError("mobius reached")

    monkeypatch.setattr(euler, "mobius", planted)
    with pytest.raises(BudgetExceededError, match=CENSUS_2237):
        euler.place_census(2, 2237)
    with pytest.raises(AssertionError, match="mobius reached"):
        euler.place_census(2, 2236)


@pytest.mark.parametrize("q, edge", [(1024, 707), (2 ** 61 - 1, 286),
                                     (2 ** 1000, 70)])
def test_census_budget_grows_with_the_size_of_q(monkeypatch, q, edge):
    # the counts at degree d have about d log2(q) bits, so a larger q has a
    # lower edge, and a large q at degree 2236 is refused before any work
    def planted(n):
        raise AssertionError("mobius reached")

    monkeypatch.setattr(euler, "mobius", planted)
    for degree in (edge + 1, 2236):
        with pytest.raises(BudgetExceededError,
                           match=f" bits compared by the census to degree {degree} "):
            euler.place_census(q, degree)
    with pytest.raises(AssertionError, match="mobius reached"):
        euler.place_census(q, edge)


def test_mobius_values():
    values = [euler.mobius(n) for n in range(1, 11)]
    assert values == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


def test_global_series_first_coefficients():
    series = euler.d4_global_series(2, 2)
    assert series[0] == 1
    assert series[1] == 15
    # 3 places at jump 2, pairs of distinct degree-1 places, one degree-2 place
    assert series[2] == 3 * 2 + 3 * 25 + 27


def test_oracle_base_cases():
    assert euler.convolution_oracle(2, 0, counts.count_d4_exact) == 1
    assert euler.convolution_oracle(2, 1, counts.count_d4_exact) == 15
    assert euler.convolution_oracle(2, 2, counts.count_d4_exact) == 108


def test_oracle_truncation_cap():
    # the oracle has no truncation cap of its own, only the one budget
    assert euler.convolution_oracle(2, 9, counts._d4_exact) == \
        euler.d4_global_series(2, 9)[9]

    def unread(residue_order, v):
        raise AssertionError("a local coefficient was read before the budget")

    with pytest.raises(BudgetExceededError,
                       match="^73274200 candidates exceed 5000000$"):
        euler.convolution_oracle(2, 24, unread)


def _z3_inertial_types(residue_order, v):
    return counts.count_by_last_jump(counts.GroupShape(3, (1,)), residue_order,
                                     v, "inertial_types")


@pytest.mark.parametrize("q, x, local", [
    (4, 8, counts._d4_exact), (8, 5, counts._d4_exact),
    (3, 8, _z3_inertial_types)])
def test_oracle_multiplies_out_a_thousand_places(q, x, local):
    # over a thousand places each: too deep for one recursion level a place
    assert sum(pi for _, pi in euler.place_census(q, x)) > 1000
    assert euler.convolution_oracle(q, x, local) == \
        euler.global_series(q, x, local)[x]


@pytest.mark.parametrize("q,x_max", [(2, 6), (4, 4)])
def test_global_series_matches_oracle(q, x_max):
    series = euler.d4_global_series(q, x_max)
    for x in range(x_max + 1):
        assert series[x] == euler.convolution_oracle(
            q, x, counts.count_d4_exact)


def _times(a, b, x):
    out = [0] * (x + 1)
    for i, a_i in enumerate(a):
        if a_i:
            for j in range(x + 1 - i):
                out[i + j] += a_i * b[j]
    return out


def repeated_squaring_product(q, x, coefficient):
    """The Euler product truncated at x, as a second oracle: each degree-d
    local factor raised to its number of places by repeated squaring."""
    result = [1] + [0] * x
    for d, pi in euler.place_census(q, max(x, 1)):
        if d > x:
            break
        factor = [0] * (x + 1)
        for v in range(x // d + 1):
            factor[d * v] = coefficient(q ** d, v)
        while pi:
            if pi & 1:
                result = _times(result, factor, x)
            pi >>= 1
            if pi:
                factor = _times(factor, factor, x)
    return result


@pytest.mark.parametrize("q", [2, 4, 256])
def test_d4_series_matches_repeated_squaring(q):
    series = euler.d4_global_series(q, 24)
    assert list(series) == repeated_squaring_product(
        q, 24, counts._d4_exact)


@pytest.mark.parametrize("p, exponents, q", [
    (2, (1,), 2), (2, (1, 1), 2), (2, (2,), 4), (3, (1,), 3)])
def test_abelian_series_matches_repeated_squaring(p, exponents, q):
    shape = counts.GroupShape(p, exponents)

    def coefficient(residue_order, v):
        return counts.count_by_last_jump(shape, residue_order, v,
                                         "inertial_types")

    series = euler.abelian_global_series(shape, q, 24)
    assert list(series) == repeated_squaring_product(
        q, 24, coefficient)


@pytest.mark.parametrize("planted, message", [
    ({1: Fraction(1, 2)}, "Euler product coefficient 1 is not an integer"),
    ({0: 2}, "local count at jump 0 is 2, not 1, at degree 1"),
    ({1: -1}, "Euler product needs nonnegative coefficients"),
])
def test_a_bad_local_count_fails_a_certificate(planted, message):
    def coefficient(residue_order, v):
        return planted.get(v, counts._d4_exact(residue_order, v))

    with pytest.raises(InternalInconsistencyError, match=message):
        euler.global_series(2, 4, coefficient)


def test_global_series_monotone_in_q():
    s2 = euler.d4_global_series(2, 6)
    s4 = euler.d4_global_series(4, 6)
    assert all(a <= b for a, b in zip(s2, s4))


def test_truncation_cap(monkeypatch):
    # no truncation is refused for its size: X = 64, where a former cap on
    # every jump stopped the series, answers, and the one budget refuses a
    # series in the word products it would make, before the census
    assert len(euler.d4_global_series(2, 64)) == 65

    def unreachable(q, max_degree):
        raise AssertionError("census taken")

    monkeypatch.setattr(euler, "place_census", unreachable)
    with pytest.raises(BudgetExceededError,
                       match="^6504712 word products to take the series to "
                             "t\\^768 exceed 5000000$"):
        euler.d4_global_series(2, 768)
    with pytest.raises(BudgetExceededError,
                       match="^5000403 word products to take the series to "
                             "t\\^1107 exceed 5000000$"):
        euler.abelian_global_series(Z2, 2, 1107)
    for series in (lambda: euler.d4_global_series(2, 767),
                   lambda: euler.abelian_global_series(Z2, 2, 1106)):
        with pytest.raises(AssertionError, match="census taken"):
            series()
    with pytest.raises(ValueError, match="^jump must be nonnegative$"):
        euler.abelian_global_series(Z2, 2, -1)


def test_series_bounds_hold_past_the_former_cap():
    # the bits that size each series bound its coefficients: below
    # 2^(2x + 1) q^(3x) for D4 and 2 q^((r + 1) x) for an abelian group
    for q in (2, 4, 16):
        for x, coefficient in enumerate(euler.d4_global_series(q, 80)):
            assert coefficient < 2 ** (2 * x + 1) * q ** (3 * x)
    shape = counts.GroupShape(3, (2, 1))
    for x, coefficient in enumerate(euler.abelian_global_series(shape, 9, 80)):
        assert coefficient < 2 * 9 ** (3 * x)


def test_census_fails_a_count_that_is_not_a_positive_integer(monkeypatch):
    # mu = 1 everywhere: 2 + 2^3 places of degree 3 is not divisible by 3
    monkeypatch.setattr(euler, "mobius", lambda n: 1)
    with pytest.raises(InternalInconsistencyError,
                       match="^place census has no positive integral count "
                             "at degree 3$"):
        euler.place_census(2, 3)


def test_census_fails_its_zeta_identity(monkeypatch):
    # mu(1) = 1 and 0 elsewhere: 3 and 2 places of degrees 1 and 2 are
    # integral, but 3 + 2 * 2 is not 2^2 + 1
    monkeypatch.setattr(euler, "mobius", lambda n: int(n == 1))
    with pytest.raises(InternalInconsistencyError,
                       match="^place census failed its zeta identity$"):
        euler.place_census(2, 2)


def test_growth_fails_a_count_that_is_not_positive(monkeypatch):
    monkeypatch.setattr(euler, "d4_global_series",
                        lambda q, x: (1,) + (0,) * x)
    with pytest.raises(InternalInconsistencyError,
                       match="^growth count at X = 1 is not positive$"):
        euler.growth_table(2, 3)


# ---------------------------------------------------------------------------
# abelian series
# ---------------------------------------------------------------------------

def test_abelian_series_first_coefficients():
    series = euler.abelian_global_series(Z2, 2, 3)
    assert series[0] == 1
    assert series[1] == 3
    # pairs of distinct degree-1 places plus the degree-2 place
    assert series[2] == 3 + 3


def test_abelian_series_matches_oracle():
    cache = {}

    def coefficient(residue_order, v):
        key = (residue_order, v)
        if key not in cache:
            cache[key] = asw.count_by_last_jump_enumerated(
                Z2, residue_order, v, "inertial_types")
        return cache[key]

    series = euler.abelian_global_series(Z2, 2, 8)
    for x in range(9):
        assert series[x] == euler.convolution_oracle(2, x, coefficient)


# ---------------------------------------------------------------------------
# growth diagnostics
# ---------------------------------------------------------------------------

def test_growth_first_row():
    table = euler.growth_table(2, 3)
    first = table[0]
    assert first.count == 120
    assert first.ratio == 15
    assert first.relative_change is None
    assert all(row.ratio > 0 for row in table)


def test_growth_counts_divisible_by_eight():
    table = euler.growth_table(2, 8)
    assert all(row.count % 8 == 0 for row in table)


@pytest.mark.parametrize("last, stabilises", [
    (Fraction(1, 11), True), (Fraction(1, 10), False), (Fraction(1, 9), False)])
def test_growth_stabilises_needs_the_last_change_under_a_tenth(last, stabilises):
    changes = [None, Fraction(1, 5), Fraction(1, 8), last]
    rows = tuple(euler.GrowthRow(x, 8, Fraction(1), change)
                 for x, change in enumerate(changes, 1))
    assert euler.growth_stabilises(rows) is stabilises


def test_growth_stabilises_at_q2():
    table = euler.growth_table(2, 16)
    assert euler.growth_stabilises(table)
    assert table[-1].relative_change < Fraction(1, 10)
    # three rows have two relative changes, one short of the three it reads
    assert not euler.growth_stabilises(euler.growth_table(2, 3))
