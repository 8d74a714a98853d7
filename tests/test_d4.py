"""Dihedral lift heights, distributions, twist invariance, local counts."""

import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import product as iproduct
from pathlib import Path

import pytest

import d4_conductor_oracle
from ramcount import asw, checks, counts, d4, gf
from ramcount.d4 import SparseTPoly
from ramcount.errors import (
    BudgetExceededError,
    MixedFieldsError,
    NonPrimeError,
    NotTotallyRamifiedError,
)

F2 = gf.make_field(2, 1)
F4 = gf.make_field(2, 2)
SRC = Path(d4.__file__).resolve().parents[1]


def poly(field, *exponents):
    """Polynomial with coefficient 1 at each listed exponent."""
    return SparseTPoly.from_terms(field, {e: field.one for e in exponents})


def ramified_pool(field, exponents):
    """Every polynomial supported on the exponents, in product order."""
    exponents = tuple(exponents)
    return [SparseTPoly(field, {e: x for e, x in zip(exponents, chosen) if x})
            for chosen in iproduct(field.iter_elements(), repeat=len(exponents))]


# ---------------------------------------------------------------------------
# pole order and derivative
# ---------------------------------------------------------------------------

def test_a_constant_twist_is_adding_a_constant_polynomial():
    # a twist by c keeps the ramified part and moves the constant to old + c,
    # storing no zero constant
    for base in ramified_pool(F4, (0, 1, 3)):
        ramified = {e: x for e, x in base.terms.items() if e}
        for c in F4.iter_elements():
            shifted = base + SparseTPoly.from_terms(F4, {0: c})
            constant = base.terms.get(0, F4.zero) + c
            assert {e: x for e, x in shifted.terms.items() if e} == ramified
            assert shifted.terms.get(0, F4.zero) == constant
            assert (0 in shifted.terms) == bool(constant)
    with pytest.raises(MixedFieldsError, match="coefficient from a different field"):
        SparseTPoly.from_terms(F4, {0: F2.one})


def test_sums_and_products_store_no_zero_coefficient():
    g = F4.gen
    x = SparseTPoly.from_terms(F4, {1: g, 0: F4.one})
    # over F_4 the cross terms g + g at T^-1 cancel
    assert x * x == SparseTPoly.from_terms(F4, {2: g * g, 1: g + g, 0: F4.one})
    assert (x * x).terms == {2: g * g, 0: F4.one}
    assert x + x == SparseTPoly.from_terms(F4, {1: g + g, 0: F4.zero})
    assert (x + x).terms == {}


def test_pole_order():
    assert poly(F2, 3, 1).pole_order() == 3
    assert SparseTPoly(F2, {}).pole_order() == 0
    assert poly(F2, 0).pole_order() == 0


def test_t_derivative():
    assert poly(F2, 3).t_derivative() == poly(F2, 3)
    assert not poly(F2, 0).t_derivative()
    assert poly(F2, 1, 0).t_derivative() == poly(F2, 1)
    # even exponents die in characteristic 2 (they only arise in products)
    prod = poly(F2, 1) * poly(F2, 1)
    assert prod.pole_order() == 2 and not prod.t_derivative()


def test_t_derivative_odd_characteristic():
    f3 = gf.make_field(3, 1)
    x = SparseTPoly.from_terms(f3, {1: f3.one, 2: f3.one, 3: f3.one})
    d = x.t_derivative()
    assert d.terms[1] == f3.from_prime(2)
    assert d.terms[2] == f3.from_prime(1)
    assert 3 not in d.terms


# ---------------------------------------------------------------------------
# jump formula
# ---------------------------------------------------------------------------

def test_jump_formula_examples():
    a = c = poly(F2, 1)
    assert d4.d4_last_jump(a, c, SparseTPoly(F2, {})) == 2
    a, c = poly(F2, 1), poly(F2, 3)
    assert d4.d4_last_jump(a, c, SparseTPoly(F2, {})) == 4
    z = SparseTPoly(F2, {})
    assert d4.d4_last_jump(z, z, poly(F2, 1)) == 1


def test_jump_formula_uses_exact_rationals():
    # on reduced data the jump is an integer, and d4 returns it as an int
    a, c = poly(F2, 3), poly(F2, 1)
    jump = d4.d4_last_jump(a, c, SparseTPoly(F2, {}))
    assert type(jump) is int
    assert jump == 4  # w(b'-ac') = 3+1 dominates the side terms 7/2 and 5/2
    # on odd-support data the half-integer side terms are always dominated:
    # the even-exponent top of a*c' cannot be cancelled by b'
    for exps_a in ((), (1,), (3,), (1, 3)):
        for exps_c in ((), (1,), (5,)):
            for exps_b in ((), (0,), (1,), (3, 1)):
                value = d4.d4_last_jump(poly(F2, *exps_a), poly(F2, *exps_c),
                                        poly(F2, *exps_b))
                assert value.denominator == 1


def test_jump_formula_validates_every_argument():
    # b = T^-18 + T^-14 is Artin-Schreier equivalent to T^-9 + T^-7, for
    # which the formula gives 9; on the unreduced b it would give 6
    a, c = poly(F2, 1), poly(F2, 5)
    assert d4.d4_last_jump(a, c, poly(F2, 9, 7)) == 9
    with pytest.raises(ValueError, match="^support exponent 18 must be 0 or odd$"):
        d4.d4_last_jump(a, c, poly(F2, 18, 14))
    with pytest.raises(ValueError, match="^support exponent 2 must be 0 or odd$"):
        d4.d4_last_jump(poly(F2, 2), c, poly(F2, 1))
    with pytest.raises(ValueError, match="^support exponent 4 must be 0 or odd$"):
        d4.d4_last_jump(a, poly(F2, 4), poly(F2, 1))


def conductor_jump(a, c, b):
    """The last jump that the conductor oracle derives for (a, c, b)."""
    return d4_conductor_oracle.last_jump(a.terms, c.terms, b.terms)


def test_conductor_oracle_reduces_an_unreduced_lift():
    # the triple above: the oracle reduces b itself, so both forms give 9
    a, c = poly(F2, 1), poly(F2, 5)
    assert conductor_jump(a, c, poly(F2, 18, 14)) == 9
    assert conductor_jump(a, c, poly(F2, 9, 7)) == 9
    with pytest.raises(ValueError, match=r"^w\(a\) = 4 must be odd$"):
        conductor_jump(poly(F2, 4), c, poly(F2, 1))


def test_jump_formula_matches_the_conductor_oracle_over_f2():
    # every reduced, totally ramified triple with w(a), w(c) <= 5, w(b) <= 9
    klein = ramified_pool(F2, (0, 1, 3, 5))
    lifts = ramified_pool(F2, (0, 1, 3, 5, 7, 9))
    checked = 0
    for a in klein:
        for c in klein:
            if not d4.is_totally_ramified(a, c):
                continue
            for b in lifts:
                assert (d4.d4_last_jump(a, c, b)
                        == conductor_jump(a, c, b)), (a, c, b)
                checked += 1
    assert checked == 42 * 4 * 64


def _random_reduced(rng, field, top):
    """A reduced polynomial of pole order `top` (0 or odd), with random
    lower coefficients."""
    elements = list(field.iter_elements())
    terms = {e: rng.choice(elements) for e in range(1, top, 2)}
    terms[0] = rng.choice(elements)
    if top:
        terms[top] = rng.choice(elements[1:])
    return SparseTPoly.from_terms(field, terms)


@pytest.mark.parametrize("n, samples", [(2, 300), (3, 200)])
def test_jump_formula_matches_the_conductor_oracle_on_a_sample(n, samples):
    # w(a) <= 9, w(c) <= 11 and w(b) <= 23, seeded
    field = gf.make_field(2, n)
    rng = random.Random(n)
    checked = 0
    while checked < samples:
        a = _random_reduced(rng, field, rng.randrange(1, 10, 2))
        c = _random_reduced(rng, field, rng.randrange(1, 12, 2))
        if not d4.is_totally_ramified(a, c):
            continue
        b = _random_reduced(rng, field, rng.choice((0, *range(1, 24, 2))))
        assert d4.d4_last_jump(a, c, b) == conductor_jump(a, c, b), (a, c, b)
        checked += 1


def papers_jump_formula(a, c, b):
    """The paper's formula, max(w(b' - a*c'), w(a)/2 + w(c), w(c)/2 + w(a)),
    in exact rationals."""
    wa, wc = a.pole_order(), c.pole_order()
    main = (b.t_derivative() + a * c.t_derivative()).pole_order()
    return max(Fraction(main), Fraction(wa, 2) + wc, Fraction(wc, 2) + wa)


def test_jump_formula_is_the_papers_formula_over_f2():
    # every reduced triple with a, c on {0, 1, 3, 5} and b on {0, 1, ..., 9},
    # totally ramified or not: the side terms never exceed w(a) + w(c)
    klein = ramified_pool(F2, (0, 1, 3, 5))
    lifts = ramified_pool(F2, (0, 1, 3, 5, 7, 9))
    checked = 0
    for a in klein:
        for c in klein:
            for b in lifts:
                assert (d4.d4_last_jump(a, c, b)
                        == papers_jump_formula(a, c, b)), (a, c, b)
                checked += 1
    assert checked == 16 * 16 * 64


def test_jump_formula_is_the_papers_formula_on_a_sample():
    # w(a) <= 9, w(c) <= 11 and w(b) <= 23 over F_4, each possibly 0, seeded
    rng = random.Random(4)
    for _ in range(500):
        a, c, b = (_random_reduced(rng, F4, rng.choice((0, *range(1, top, 2))))
                   for top in (10, 12, 24))
        assert (d4.d4_last_jump(a, c, b)
                == papers_jump_formula(a, c, b)), (a, c, b)


# the jumps of d4 are ints, made with no `fractions` in a fresh interpreter
D4_JUMP_PROBE = """
import sys
from ramcount import d4, gf
f = gf.make_field(2, 1)
a, c = d4.SparseTPoly.monomial(f, 1), d4.SparseTPoly.monomial(f, 3)
jumps = (d4.d4_last_jump(a, c, d4.SparseTPoly(f, {})),
         *d4.enumerated_lift_distribution(a, c, 6))
print(sorted({type(j).__name__ for j in jumps}), "fractions" in sys.modules)
"""


def test_jumps_are_ints_and_load_no_fractions():
    done = subprocess.run(
        [sys.executable, "-S", "-c", D4_JUMP_PROBE],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "['int'] False\n"


def test_min_lift_jump_validates_datum_support():
    with pytest.raises(ValueError, match="must be 0 or odd"):
        d4.min_lift_jump(poly(F2, 2), poly(F2, 1))
    f3 = gf.make_field(3, 1)
    with pytest.raises(ValueError, match="characteristic 2"):
        d4.min_lift_jump(poly(f3, 1), poly(f3, 1))


def test_min_lift_jump_examples():
    assert d4.min_lift_jump(poly(F2, 1), poly(F2, 1)) == 2
    assert d4.min_lift_jump(SparseTPoly(F2, {}), poly(F2, 3)) == 3
    assert d4.min_lift_jump(SparseTPoly(F2, {}), SparseTPoly(F2, {})) == 0


def test_total_ramification_detection():
    assert d4.is_totally_ramified(poly(F2, 1), poly(F2, 3))
    assert not d4.is_totally_ramified(poly(F2, 1), poly(F2, 1))
    assert not d4.is_totally_ramified(poly(F2, 1), SparseTPoly(F2, {}))
    # constants do not affect the inertia image
    assert d4.is_totally_ramified(poly(F2, 1, 0), poly(F2, 3))
    # over F_4 distinct scalar multiples are independent
    two_gen = SparseTPoly.from_terms(F4, {1: F4.gen})
    assert d4.is_totally_ramified(poly(F4, 1), two_gen)


def test_pair_functions_refuse_a_pair_over_two_fields():
    # a = T^-1 over F_2 and c = T^-3 over F_4, either way round
    for a, c in [(poly(F2, 1), poly(F4, 3)), (poly(F4, 1), poly(F2, 3))]:
        for fn, rest in [(d4.min_lift_jump, ()), (d4.is_totally_ramified, ()),
                         (d4.lift_jump_distribution, (6,)),
                         (d4.enumerated_lift_distribution, (6,)),
                         (d4.unramified_twist_report, (6,)),
                         (d4.d4_last_jump, (SparseTPoly(a.field, {}),)),
                         (d4.pair_to_cocycle, ())]:
            with pytest.raises(MixedFieldsError,
                               match="^polynomials over different fields$"):
                fn(a, c, *rest)


def test_bruteforce_matches_closed_minimum():
    # the brute-force minimum is the least jump of the enumerated distribution
    got = min(d4.enumerated_lift_distribution(poly(F2, 1), poly(F2, 3), 6))
    assert got == 4
    got = min(d4.enumerated_lift_distribution(poly(F2, 1), poly(F2, 1, 3), 6))
    assert got == 4
    with pytest.raises(NotTotallyRamifiedError):
        d4.enumerated_lift_distribution(poly(F2, 1), poly(F2, 1), 6)


def test_bruteforce_refuses_over_budget_before_enumerating(monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("enumerated before the budget check")

    monkeypatch.setattr(d4, "_jump_tally", no_enumeration)
    f16 = gf.make_field(2, 4)
    # 2 * 16^6 canonical b with w(b) <= 11
    with pytest.raises(BudgetExceededError,
                       match="33554432 candidates exceed 5000000"):
        d4.enumerated_lift_distribution(poly(f16, 1), poly(f16, 3), 11)


@pytest.mark.parametrize("q,wmax", [(2, 6), (4, 4)])
def test_bruteforce_equals_formula_on_all_totally_ramified_pairs(q, wmax):
    pool = ramified_pool(gf.field_for_order(q), (1, 3, 5))
    seen = 0
    for a in pool:
        for c in pool:
            if a.pole_order() + c.pole_order() > wmax:
                continue
            if not d4.is_totally_ramified(a, c):
                continue
            seen += 1
            expected = d4.min_lift_jump(a, c)
            assert min(d4.enumerated_lift_distribution(a, c, wmax)) == expected
    assert seen > 0


# ---------------------------------------------------------------------------
# lift distributions
# ---------------------------------------------------------------------------

def test_lift_distribution_examples():
    dist = dict(d4.lift_jump_distribution(poly(F2, 1), poly(F2, 1), 2))
    assert dist == {0: 0, 1: 0, 2: 4}
    zero = SparseTPoly(F2, {})
    assert d4.lift_jump_distribution(zero, zero, 0) == ((0, 2),)


def test_enumerated_distribution_matches_closed_form():
    for field, pairs in [(F2, [(poly(F2, 1), poly(F2, 3)),
                               (poly(F2, 1), poly(F2, 1, 3)),
                               (poly(F2, 1, 0), poly(F2, 5))]),
                         (F4, [(poly(F4, 1), SparseTPoly.from_terms(F4, {1: F4.gen})),
                               (poly(F4, 1), poly(F4, 3))])]:
        for a, c in pairs:
            v_max = d4.min_lift_jump(a, c) + 3
            closed = {v: n for v, n in
                      d4.lift_jump_distribution(a, c, v_max) if n}
            enum = d4.enumerated_lift_distribution(a, c, v_max)
            assert enum == closed


def test_enumerated_distribution_confirms_four_minimal_lifts():
    # at the diagonal's minimum every bounded b attains the jump
    tally = d4.enumerated_lift_distribution(poly(F2, 1), poly(F2, 3), 4)
    assert tally[4] == 8  # 2 * q^(ceil(4/2)) at q = 2


def canonical_lifts(field, bound):
    """Every canonical third coordinate b with w(b) <= bound."""
    return [b + SparseTPoly.from_terms(field, {0: c0})
            for c0 in gf.wp_transversal(field)
            for b in ramified_pool(field, range(1, bound + 1, 2))]


# totally ramified reductions; twisting adds constants, so a*c' gets odd terms
ORACLE_CORPUS = {
    2: [(poly(F2, 1), poly(F2, 3)), (poly(F2, 1), poly(F2, 1, 3)),
        (poly(F2, 3), poly(F2, 1, 3)), (poly(F2, 1), poly(F2, 5)),
        (poly(F2, 1, 3), poly(F2, 3))],
    4: [(poly(F4, 1), SparseTPoly.from_terms(F4, {1: F4.gen})),
        (SparseTPoly.from_terms(F4, {1: F4.gen}),
         SparseTPoly.from_terms(F4, {3: F4.gen + F4.one})),
        (SparseTPoly.from_terms(F4, {1: F4.gen + F4.one, 3: F4.one}),
         SparseTPoly.from_terms(F4, {1: F4.gen})),
        (SparseTPoly.from_terms(F4, {1: F4.one, 3: F4.gen}), poly(F4, 3)),
        (SparseTPoly.from_terms(F4, {1: F4.gen}), poly(F4, 5))],
}


@pytest.mark.parametrize("q", [2, 4])
def test_packed_enumeration_matches_explicit_lifts(q):
    # the jump formula on every explicit canonical b is the oracle for the
    # packed-integer enumeration, on each pair and each of its q^2 twists
    field = gf.field_for_order(q)
    lifts = canonical_lifts(field, 6)
    for a, c in ORACLE_CORPUS[q]:
        for alpha in field.iter_elements():
            for gamma in field.iter_elements():
                ta = a + SparseTPoly.from_terms(field, {0: alpha})
                tc = c + SparseTPoly.from_terms(field, {0: gamma})
                jumps = [(b.pole_order(), d4.d4_last_jump(ta, tc, b))
                         for b in lifts]
                for v_max in range(7):
                    tally = {}
                    for w, jump in jumps:
                        if w <= v_max and jump <= v_max:
                            tally[jump] = tally.get(jump, 0) + 1
                    assert d4.enumerated_lift_distribution(ta, tc, v_max) == tally


def test_enumeration_rejects_data_outside_characteristic_two():
    f3 = gf.make_field(3, 1)
    with pytest.raises(ValueError, match="characteristic 2"):
        d4.enumerated_lift_distribution(poly(f3, 1), poly(f3, 3), 4)
    with pytest.raises(ValueError, match="exponent 2"):
        d4.enumerated_lift_distribution(poly(F2, 1), poly(F2, 2), 4)


def test_negative_v_max_is_rejected():
    a, c = poly(F2, 1), poly(F2, 3)
    with pytest.raises(ValueError, match="nonnegative"):
        d4.lift_jump_distribution(a, c, -1)
    with pytest.raises(ValueError, match="nonnegative"):
        d4.enumerated_lift_distribution(a, c, -1)
    with pytest.raises(ValueError, match="nonnegative"):
        d4.unramified_twist_report(a, c, -1)


# ---------------------------------------------------------------------------
# twist invariance
# ---------------------------------------------------------------------------

def test_twist_invariance_on_a_ramified_pair():
    report = d4.unramified_twist_report(poly(F2, 1), poly(F2, 3), 6)
    assert report.all_equal
    assert len(report.comparisons) == 4
    assert all(cmp.enumerated_equal for cmp in report.comparisons)


def test_twist_invariance_trivial_pair():
    zero = SparseTPoly(F2, {})
    report = d4.unramified_twist_report(zero, zero, 3)
    assert report.all_equal
    assert all(cmp.enumerated_equal is None for cmp in report.comparisons)


@pytest.mark.parametrize("q", [2, 4])
def test_lift_distributions_match_the_conductor_oracle(q):
    # every canonical lift of each pair up to two past its minimum, its jump
    # derived by the oracle, tallied against the closed form and the tally
    checked = 0
    for a, c in ORACLE_CORPUS[q]:
        v_max = d4.min_lift_jump(a, c) + 2
        tally = {}
        for b in canonical_lifts(a.field, v_max):
            jump = conductor_jump(a, c, b)
            if jump <= v_max:
                tally[jump] = tally.get(jump, 0) + 1
            checked += 1
        closed = d4.lift_jump_distribution(a, c, v_max)
        assert tally == {v: n for v, n in closed if n}, (a, c)
        assert tally == d4.enumerated_lift_distribution(a, c, v_max), (a, c)
    assert checked == {2: 128, 4: 1312}[q]


@pytest.mark.parametrize("q", [2, 4])
def test_twist_invariance_from_the_conductor_oracle(q):
    # the jumps the oracle derives for the canonical lifts with
    # w(b) <= w(a) + w(c) + 1, tallied for each constant twist (alpha, gamma)
    # of the pair, built on the term dicts; every tally is the untwisted one
    field = gf.field_for_order(q)
    elements = list(field.iter_elements())
    for a, c in ORACLE_CORPUS[q]:
        bound = a.pole_order() + c.pole_order() + 1
        lifts = [b.terms for b in canonical_lifts(field, bound)]
        tallies = {}
        for alpha in elements:
            ta = dict(a.terms)
            d4_conductor_oracle._add(ta, 0, alpha)
            for gamma in elements:
                tc = dict(c.terms)
                d4_conductor_oracle._add(tc, 0, gamma)
                tallies[alpha, gamma] = Counter(
                    d4_conductor_oracle.last_jump(ta, tc, b) for b in lifts)
        untwisted = tallies[field.zero, field.zero]
        for twist, tally in tallies.items():
            assert tally == untwisted, (a, c, twist)


def test_twist_invariance_over_f4():
    a = poly(F4, 1)
    c = SparseTPoly.from_terms(F4, {1: F4.gen})
    report = d4.unramified_twist_report(a, c, 4)
    assert report.all_equal
    assert len(report.comparisons) == 16


def test_twist_report_refuses_over_budget_before_enumerating(monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("enumerated before the budget check")

    f16 = gf.make_field(2, 4)
    a = SparseTPoly.from_terms(f16, {1: f16.one})
    c = SparseTPoly.from_terms(f16, {3: f16.one})
    # one enumeration of 2 * 16^5 canonical b stands for all 256 twists
    report = d4.unramified_twist_report(a, c, 9)
    assert report.all_equal and len(report.comparisons) == 256
    monkeypatch.setattr(d4, "_jump_tally", no_enumeration)
    # 2 * 16^6 canonical b
    with pytest.raises(BudgetExceededError,
                       match="33554432 candidates exceed 5000000"):
        d4.unramified_twist_report(a, c, 11)


def test_twist_report_sizes_the_pool_without_the_transversal():
    big = gf.make_field(2, 16)
    a = SparseTPoly.from_terms(big, {1: big.one})
    c = SparseTPoly.from_terms(big, {3: big.one})
    with pytest.raises(BudgetExceededError):
        d4.unramified_twist_report(a, c, 64)


def test_twist_report_enumerates_once(monkeypatch):
    calls = []
    tally = d4._jump_tally

    def counted(*args):
        calls.append(args)
        return tally(*args)

    monkeypatch.setattr(d4, "_jump_tally", counted)
    a = poly(F4, 1)
    c = SparseTPoly.from_terms(F4, {3: F4.gen})
    assert d4.unramified_twist_report(a, c, 6).all_equal
    assert len(calls) == 1
    assert d4.unramified_twist_report(a, a, 6).all_equal
    assert len(calls) == 1


def test_twist_report_catches_a_wrong_closed_form(monkeypatch):
    # one lift too many of jump <= v, so one more at the minimum; the closed
    # form of every twist uses the same count, so only the comparison with
    # the enumerated tally can see the extra lift
    pool = d4._lift_pool_size
    monkeypatch.setattr(d4, "_lift_pool_size",
                        lambda field, v: pool(field, v) + 1)
    report = d4.unramified_twist_report(poly(F2, 1), poly(F2, 3), 6)
    assert not report.all_equal
    assert all(cmp.closed_form_equal for cmp in report.comparisons)
    assert not any(cmp.enumerated_equal for cmp in report.comparisons)
    checks.row.cache_clear()
    try:
        row = checks.row("acceptance.3.unramified_twist_invariance", 0)
    finally:
        checks.row.cache_clear()  # no row computed under the fault stays
    assert row == ("acceptance.3.unramified_twist_invariance", False,
                   "exhaustive pairs with w<=3, q in {2,4}, reports=272")


def test_unramified_twist_report_refuses_too_many_rows(monkeypatch):
    def no_twists(*args):
        raise AssertionError("twisted before the budget check")

    monkeypatch.setattr(SparseTPoly, "__add__", no_twists)
    f4096 = gf.make_field(2, 12)
    a = c = SparseTPoly.from_terms(f4096, {1: f4096.one})
    assert not d4.is_totally_ramified(a, c)
    # one closed-form row per twist (alpha, gamma) in F_4096^2
    with pytest.raises(BudgetExceededError,
                       match="16777216 candidates exceed 5000000"):
        d4.unramified_twist_report(a, c, 64)


# ---------------------------------------------------------------------------
# relations with minimal lifts
# ---------------------------------------------------------------------------

def test_minimal_lift_bound_by_reduction_jump():
    for q in (2, 4):
        pool = ramified_pool(gf.field_for_order(q), (1, 3, 5))
        for a in pool:
            for c in pool:
                reduction_jump = asw.last_jump(d4.pair_to_cocycle(a, c))
                assert d4.min_lift_jump(a, c) >= reduction_jump


def test_nonintegral_or_even_jumps_are_minimal():
    # across totally ramified fibers, a lift whose jump is even must attain
    # the fiber minimum; jumps are integers, so none is fractional
    pool = ramified_pool(F2, (1, 3, 5))
    for a in pool:
        for c in pool:
            if not d4.is_totally_ramified(a, c):
                continue
            if a.pole_order() + c.pole_order() > 6:
                continue
            tally = d4.enumerated_lift_distribution(a, c, 6)
            fiber_min = min(tally)
            for jump in tally:
                if jump % 2 == 0 and jump > 0:
                    assert jump == fiber_min


def test_central_twist_jump_identity():
    # for a fiber-minimal b, twisting by e moves the jump to max(jump, w(e))
    pairs = [(poly(F2, 1), poly(F2, 3)), (poly(F2, 1), poly(F2, 1, 3)),
             (poly(F2, 1, 0), poly(F2, 3)), (poly(F2, 3), poly(F2, 5))]
    twists = []
    for c0 in (None, 0):
        for chosen in iproduct((None, 1), repeat=3):
            exps = [e for e, keep in zip((1, 3, 5), chosen) if keep is not None]
            if c0 is not None:
                exps.append(0)
            twists.append(poly(F2, *exps) if exps else SparseTPoly(F2, {}))
    for a, c in pairs:
        m = d4.min_lift_jump(a, c)
        minimal_b = next(b for b in ramified_pool(F2, range(1, m + 1, 2))
                         if d4.d4_last_jump(a, c, b) == m)
        for e in twists:
            twisted = minimal_b + e
            expected = max(Fraction(m), Fraction(e.pole_order()))
            assert d4.d4_last_jump(a, c, twisted) == expected


# ---------------------------------------------------------------------------
# counts
# ---------------------------------------------------------------------------

def test_count_min_lift_closed_form_values():
    assert counts.count_min_lift(2, 0) == 1
    assert counts.count_min_lift(2, 3) == 4
    assert counts.count_min_lift(2, 4) == 4


@pytest.mark.parametrize("q", [2, 4])
def test_count_min_lift_enumeration_matches_closed_form(q):
    for v in range(6):
        closed = counts.count_min_lift(q, v)
        enum = d4.count_min_lift_enumerated(q, v)
        assert closed == enum


@pytest.mark.parametrize("q, v", [(2, 0), (4, 1), (2, 11), (2, 12), (4, 6),
                                  (8, 5), (8, 6), (16, 3), (2, 21), (2, 22),
                                  (4, 10)])
def test_count_min_lift_enumeration_matches_closed_form_at_bench_sizes(q, v):
    assert d4.count_min_lift_enumerated(q, v) == counts.count_min_lift(q, v)


def test_count_min_lift_enumeration_streams_its_supports():
    # itertools.product would hold tuple(range(q)), about 5 MB at q = 2^17
    tracemalloc.start()
    try:
        assert (d4.count_min_lift_enumerated(2 ** 17, 1)
                == counts.count_min_lift(2 ** 17, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_enumeration_lists_no_field_at_jump_zero(monkeypatch):
    # the oracle reads each coefficient only as zero or not, so it builds
    # no field at any jump, and the budget is its one limit
    def no_field(*args):
        raise AssertionError("built a field")

    monkeypatch.setattr(gf, "make_field", no_field)
    assert d4.count_min_lift_enumerated(2 ** 17, 0) == 1
    assert (d4.count_min_lift_enumerated(2 ** 17, 1)
            == counts.count_min_lift(2 ** 17, 1))
    monkeypatch.setattr(counts, "DEFAULT_BUDGET", 2 ** 17 - 1)
    with pytest.raises(BudgetExceededError,
                       match="^131072 candidates exceed 131071$"):
        d4.count_min_lift_enumerated(2 ** 17, 1)


@pytest.mark.parametrize("q, error, message", [
    (6, NonPrimeError, "6 is not a prime power"),
    (9, MixedFieldsError, "9 is not a power of 2"),
])
def test_min_lift_and_d4_le_need_a_power_of_two(q, error, message):
    # q is checked before the jump, in the closed form and its oracle and in
    # both dihedral counts
    for v in (3, -1):
        for count in (counts.count_min_lift, d4.count_min_lift_enumerated,
                      counts.count_d4_le, counts.count_d4_exact):
            with pytest.raises(error, match=message):
                count(q, v)


def test_count_min_lift_budget_caps_the_pool(monkeypatch):
    # q = 4, v = 5: a pool of 4^3 = 64 supports, i.e. 4096 pairs
    monkeypatch.setattr(counts, "DEFAULT_BUDGET", 64)
    assert d4.count_min_lift_enumerated(4, 5) == counts.count_min_lift(4, 5)
    monkeypatch.setattr(counts, "DEFAULT_BUDGET", 63)
    with pytest.raises(BudgetExceededError):
        d4.count_min_lift_enumerated(4, 5)


def test_count_d4_le_values():
    assert counts.count_d4_le(2, 0) == 1
    assert counts.count_d4_le(2, 1) == 6
    assert counts.count_d4_le(2, 2) == 8


def test_count_d4_exact_values():
    # the polynomial behind count_d4_exact takes any q
    assert counts._d4_exact(12345, 0) == 1
    assert counts.count_d4_exact(2, 1) == 5
    assert counts.count_d4_exact(4, 1) == 27


def test_count_d4_exact_polynomial_identity_at_jump_one():
    for q in (2, 4, 8, 9, 16, 2 ** 10):
        assert counts._d4_exact(q, 1) == q * (2 * q - 1) - 1
