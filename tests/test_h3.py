"""Heisenberg local/global counts and the discriminant gate."""

from fractions import Fraction

import pytest

from ramcount import asw, h3
from ramcount.errors import (
    BudgetExceededError,
    InternalInconsistencyError,
    NonPrimeError,
    OddPrimeRequiredError,
)


def test_line_inertia_closed_form_values():
    assert h3.count_line_inertia(3, 3, 1) == 78
    assert h3.count_line_inertia(3, 3, 2) == 234
    assert h3.count_line_inertia(5, 5, 1) == 5 * (5 ** 5 - 1)


def test_line_inertia_bruteforce_matches_closed_form():
    assert h3.count_line_inertia_bruteforce(3, 3, 1) == 78
    assert h3.count_line_inertia_bruteforce(3, 3, 2) == 234
    # a rank-2 quotient by the axis, and the trivial one
    assert h3.count_line_inertia_bruteforce(3, 3, 3) == 702
    assert h3.count_line_inertia_bruteforce(5, 5, 1) == 15620


def test_even_characteristic_is_rejected():
    with pytest.raises(OddPrimeRequiredError):
        h3.count_line_inertia(2, 2, 1)
    with pytest.raises(OddPrimeRequiredError):
        h3.local_heisenberg_count(2, 2)


def test_bruteforce_budget():
    # 27^6 index-1 coefficients over the residue field F_(27^3)
    with pytest.raises(BudgetExceededError,
                       match="^387420489 candidates exceed 5000000$"):
        h3.count_line_inertia_bruteforce(3, 27, 2)


def test_local_count_at_three():
    count = h3.local_heisenberg_count(3, 3)
    assert count.total == 3510
    assert dict(count.breakdown)["center_inertia"] == 27 * 26
    assert len(count.breakdown) == 1 + 4


def test_local_count_other_values():
    assert h3.local_heisenberg_count(3, 9).total == 27 * 5 * (9 ** 3 - 1)
    assert h3.local_heisenberg_count(5, 5).total == 2733500


def test_global_count_values():
    assert h3.global_heisenberg_count(3, 3).total == 9126
    assert h3.global_heisenberg_count(3, 9).total == 27 * 13 * 728


def test_breakdowns_sum_to_totals():
    for p in (3, 5, 7):
        local = h3.local_heisenberg_count(p, p)
        glob = h3.global_heisenberg_count(p, p)
        assert sum(v for _, v in local.breakdown) == local.total
        assert sum(v for _, v in glob.breakdown) == glob.total
        assert local.total == p ** 3 * (p + 2) * (p ** p - 1)
        assert glob.total == p ** 3 * (p ** 2 + p + 1) * (p ** p - 1)


def test_counterexample_report():
    report = h3.counterexample_report(3, 3)
    assert report.local_count == 3510
    assert report.global_count == 9126
    assert report.discrepancy_ratio == Fraction(13, 5)
    assert report.discrepancy_ratio != 1


def test_discrepancy_ratio_exceeds_one():
    for p in (3, 5, 7, 11, 13):
        assert h3.counterexample_report(p, p).discrepancy_ratio > 1


def test_smallest_wild_discriminant_values():
    assert h3.smallest_wild_discriminant(3) == 36
    assert h3.smallest_wild_discriminant(5) == 200
    # p = 2 lies outside the odd-prime setting but evaluates, cross-checked
    assert h3.smallest_wild_discriminant(2) == 8


def test_smallest_wild_discriminant_is_minimal(monkeypatch):
    # minimality is a certificate: a profile below 2 p^2 (p - 1) raises; the
    # plant keys on the gate's order p^3, since every discriminant sums
    # through the same integral
    ramification_integral = asw.ramification_integral
    for p in (2, 3, 5):
        def three_intervals_give_zero(order, profile, gate=p ** 3):
            if (order, len(profile)) == (gate, 3):
                return 0
            return ramification_integral(order, profile)

        monkeypatch.setattr(asw, "ramification_integral",
                            three_intervals_give_zero)
        with pytest.raises(InternalInconsistencyError,
                           match=rf"image sizes \({p ** 3}, {p ** 3}, {p ** 3}\) "
                                 rf"give 0, below {2 * p ** 2 * (p - 1)}$"):
            h3.smallest_wild_discriminant(p)


@pytest.mark.parametrize("p", [2, 3])
def test_smallest_wild_discriminant_cross_checks_every_p(monkeypatch, p):
    # the abelian (Z/p)^3 datum cross-checks the value at p = 2 as well
    monkeypatch.setattr(asw, "discriminant_exponent", lambda datum: 9)
    expected = 2 * p ** 2 * (p - 1)
    with pytest.raises(InternalInconsistencyError,
                       match=f"abelian cross-check gives 9, expected {expected}$"):
        h3.smallest_wild_discriminant(p)


def test_smallest_wild_discriminant_past_thirteen(monkeypatch):
    # the gate's abelian cross-check builds only GF(p), so no p is refused;
    # at p = 17 it cross-checks against a datum of (Z/17)^3, of order 4913
    assert h3.smallest_wild_discriminant(7) == 588
    assert h3.smallest_wild_discriminant(11) == 2420
    assert h3.smallest_wild_discriminant(13) == 4056
    discriminant_exponent, shapes = asw.discriminant_exponent, []

    def recorded(datum):
        shapes.append(datum.shape)
        return discriminant_exponent(datum)

    monkeypatch.setattr(asw, "discriminant_exponent", recorded)
    assert h3.smallest_wild_discriminant(17) == 9248 == 2 * 17 ** 2 * 16
    assert [(shape.p, shape.exponents, shape.order) for shape in shapes] == [
        (17, (1, 1, 1), 4913)]


def test_heisenberg_counts_are_sized_by_what_they_print(monkeypatch):
    # p = 17 answers with the closed forms; p = 3001 prints 3004 integers
    # of 36,000 bits in each count, refused before any count is taken
    p = q = 17
    assert h3.local_heisenberg_count(p, q).total == (
        p ** 3 * (p + 2) * (q ** p - 1))
    assert h3.global_heisenberg_count(p, q).total == (
        p ** 3 * (p ** 2 + p + 1) * (q ** p - 1))
    assert h3.counterexample_report(13, 13).discrepancy_ratio == Fraction(183, 15)
    # the brute force states its (17^2)^34 candidates by their bit length
    with pytest.raises(BudgetExceededError,
                       match=r"^at least 2\^272 candidates exceed 5000000$"):
        h3.count_line_inertia_bruteforce(17, 17 ** 2, 2)

    def no_count(*args):
        raise AssertionError("counted before the budget check")

    monkeypatch.setattr(h3, "count_line_inertia", no_count)
    with pytest.raises(BudgetExceededError,
                       match="^59722524 word products to print the local "
                             "count exceed 5000000$"):
        h3.counterexample_report(3001, 3001)
    # q is validated first, with the message it always had
    with pytest.raises(NonPrimeError, match="^9 is not prime$"):
        h3.counterexample_report(9, 9)
