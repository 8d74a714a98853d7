"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion is exact (integer or rational equality); the growth
criterion uses the fixed 10% stabilisation threshold and reports the
observed sequence on failure instead of failing silently.  Each test reads
the criterion's row of `checks.SUITES["acceptance"]` at seed 0.  Two more
keep what stands beside the rows in step with the code: the planted-fault
table of `tests/mutants.py`, and the README's library example.
"""

import re
import sys
from pathlib import Path

import pytest

import mutants
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


def test_mutant_table_names_every_row_and_finds_every_target(monkeypatch):
    # the planted faults themselves run in `python tests/mutants.py`
    monkeypatch.setattr(sys, "path", list(sys.path))
    mutants.check_table()


def test_readme_library_example_gives_the_values_it_states():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("## Library example\n\n```python\n", 1)[1]
    namespace, stated = {}, []
    for line in example.split("```", 1)[0].splitlines():
        code, _, comment = line.partition("#")
        value = re.match(r" (\d+)\b", comment)
        if value:
            stated.append((eval(code, namespace), int(value[1])))
        else:
            exec(code, namespace)
    assert [want for _, want in stated] == [2, 4, 4, 576]
    assert all(got == want for got, want in stated), stated
