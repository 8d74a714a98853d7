"""Heisenberg local/global counts and the discriminant gate."""

from fractions import Fraction

import pytest

from ramcount import h3
from ramcount.errors import (
    BudgetExceededError,
    GroupTooLargeError,
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
    assert h3.smallest_wild_discriminant(3).value == 36
    assert h3.smallest_wild_discriminant(5).value == 200
    report = h3.smallest_wild_discriminant(2)
    assert report.value == 8
    assert report.out_of_setting


def test_smallest_wild_discriminant_is_minimal():
    for p in (2, 3, 5):
        assert h3.smallest_wild_discriminant(p).is_smallest_positive


def test_smallest_wild_discriminant_needs_p_at_most_thirteen():
    # the abelian cross-check sums over the characters of (Z/p)^3, which
    # obeys the one cap on every shape, p^3 <= 4096, so p <= 13
    assert h3.smallest_wild_discriminant(7).value == 588
    assert h3.smallest_wild_discriminant(11).value == 2420
    assert h3.smallest_wild_discriminant(13).value == 4056
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

