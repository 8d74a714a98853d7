"""Heisenberg local/global counts and the discriminant gate."""

from fractions import Fraction

import pytest

from ramcount import asw, h3
from ramcount.errors import (
    BudgetExceededError,
    GroupTooLargeError,
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
    # minimality is a certificate: a profile below 2 p^2 (p - 1) raises
    ramification_integral = asw.ramification_integral

    def three_intervals_give_zero(order, sizes):
        return 0 if len(sizes) == 3 else ramification_integral(order, sizes)

    monkeypatch.setattr(asw, "ramification_integral", three_intervals_give_zero)
    for p in (2, 3, 5):
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


def test_smallest_wild_discriminant_needs_p_at_most_thirteen():
    # the abelian cross-check sums over the characters of (Z/p)^3, which
    # obeys the one cap on every shape, p^3 <= 4096, so p <= 13
    assert h3.smallest_wild_discriminant(7) == 588
    assert h3.smallest_wild_discriminant(11) == 2420
    assert h3.smallest_wild_discriminant(13) == 4056
    with pytest.raises(GroupTooLargeError, match="group order 4913 exceeds 4096"):
        h3.smallest_wild_discriminant(17)


def test_heisenberg_counts_obey_the_one_group_cap():
    # the Heisenberg group has order p^3, so p = 17 is refused before any
    # count, even though every count it would print has a closed form
    assert h3.counterexample_report(13, 13).discrepancy_ratio == Fraction(183, 15)
    for count in (lambda: h3.counterexample_report(17, 17),
                  lambda: h3.count_line_inertia(17, 17, 1),
                  lambda: h3.count_line_inertia_bruteforce(17, 17 ** 2, 2)):
        with pytest.raises(GroupTooLargeError,
                           match="^group order 4913 exceeds 4096$"):
            count()
    # q is validated first, with the message it always had
    with pytest.raises(NonPrimeError, match="^9 is not prime$"):
        h3.counterexample_report(9, 9)

