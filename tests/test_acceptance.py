"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion is exact (integer or rational equality); the growth
criterion uses the fixed 10% stabilisation threshold and reports the
observed sequence on failure instead of failing silently.  Each test reads
the criterion's row of `checks.SUITES["acceptance"]` at seed 0.
"""

import pytest

from ramcount import checks

CRITERIA = [name for name, _ in checks.SUITES["acceptance"]]
IDS = ["criterion_1_local_distribution", "criterion_2_min_lift_oracle",
       "criterion_3_twist_invariance", "criterion_4_heisenberg_numbers",
       "criterion_5_pipeline_consistency", "criterion_6_growth_stabilisation",
       "criterion_7_invariant_suites", "criterion_8_discriminant_gate"]


def test_every_criterion_has_a_test_id():
    assert [name.split(".")[1] for name in CRITERIA] == [
        key.split("_")[1] for key in IDS]


@pytest.mark.parametrize("name", CRITERIA, ids=IDS)
def test_acceptance(name):
    result = checks.row(name, 0)
    status = "PASS" if result.passed else "FAIL"
    print(f"ACCEPTANCE {name}: {status} [{result.detail}]")
    assert result.passed, f"{name} failed: {result.detail}"
