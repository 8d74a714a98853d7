"""Command-line interface: parsing, output formats, exit codes, determinism."""

import argparse
import ast
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from ramcount import asw, checks, cli, counts, d4, euler, gf, h3, witt
from ramcount.cli import SUITE_NAMES, _fraction_str, build_parser, main
from ramcount.errors import InternalInconsistencyError, RamcountError

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(checks.__file__).resolve().parents[1]


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def run_json(capsys, *argv):
    status, out, err = run(capsys, *argv)
    assert status == 0, err
    return json.loads(out)


def test_count_minlift(capsys):
    doc = run_json(capsys, "count-minlift", "--q", "2", "--v", "3")
    assert doc["schema_version"] == 1
    assert doc["result"]["count"] == 4


def test_count_minlift_enumeration_at_jump_zero_lists_no_field(capsys):
    # v = 0 has one empty support, whatever q
    doc = run_json(capsys, "count-minlift", "--q", "131072", "--v", "0",
                   "--mode", "enumeration")
    assert doc["result"] == {"count": 1, "mode": "enumeration"}


def test_count_minlift_enumeration_is_bounded_by_the_budget_alone(capsys):
    # 131072 candidates are within the default budget, so the oracle
    # answers, with no cap of GF(q)'s own
    doc = run_json(capsys, "count-minlift", "--q", "131072", "--v", "1",
                   "--mode", "enumeration")
    assert doc["result"] == {"count": 262142, "mode": "enumeration"}


def test_last_jump_of_term_list(capsys):
    doc = run_json(capsys, "lj", "--p", "2", "--q", "2",
                   "--group", "1", "--terms", "3:1")
    assert doc["result"]["last_jump"] == 3


def test_last_jump_multi_factor_group(capsys):
    doc = run_json(capsys, "lj", "--p", "2", "--q", "4",
                   "--group", "2,1", "--terms", "1:10;00|01,3:00;00|11")
    assert doc["result"]["last_jump"] == 3


def test_discriminant_exponent(capsys):
    doc = run_json(capsys, "disc", "--p", "3", "--q", "3",
                   "--group", "1", "--terms", "1:1")
    assert doc["result"]["discriminant_exponent"] == 4


def test_count_abelian(capsys):
    doc = run_json(capsys, "count-abelian", "--p", "2", "--q", "2",
                   "--group", "1", "--v", "1", "--mode", "inertial_types")
    assert doc["result"]["count"] == 1


def test_minlift_and_distribution(capsys):
    doc = run_json(capsys, "minlift", "--q", "2", "--a", "1:1", "--c", "3:1")
    assert doc["result"]["min_lift_jump"] == 4
    doc = run_json(capsys, "lift-dist", "--q", "2", "--a", "1:1", "--c", "1:1",
                   "--v-max", "2")
    rows = {row["jump"]: row["count"] for row in doc["result"]["rows"]}
    assert rows[2] == 4 and rows[1] == 0


def test_urtwist_check_reports_equality(capsys):
    doc = run_json(capsys, "urtwist-check", "--q", "2", "--a", "1:1",
                   "--c", "3:1", "--v-max", "6")
    assert doc["result"]["all_equal"] is True
    assert len(doc["result"]["rows"]) == 4


def test_heaviest_urtwist_check_output_is_pinned(capsys):
    # the full stdout of the largest totally ramified twist report in the
    # benchmark batches, pinned byte for byte
    status, out, _ = run(capsys, "urtwist-check", "--q", "4",
                         "--a", "0:11,1:11,3:10", "--c", "0:11,1:11,3:11",
                         "--v-max", "11")
    assert status == 0
    assert out == (GOLDEN / "urtwist_q4_vmax11.json").read_text()


def test_urtwist_check_with_an_unramified_sum_is_pinned(capsys):
    # a + c is unramified, so the pair is not totally ramified and no twist
    # has an enumerated distribution: every row reads "n/a"
    status, out, _ = run(capsys, "urtwist-check", "--q", "4",
                         "--a", "0:10,3:11", "--c", "0:01,3:11", "--v-max", "8")
    assert status == 0
    assert out == (GOLDEN / "urtwist_q4_vmax8_unramified_sum.json").read_text()


def test_large_lift_distribution_output_is_pinned(capsys):
    # a totally ramified pair over F_16 whose counts reach 5 * 10^14
    status, out, _ = run(capsys, "lift-dist", "--q", "16",
                         "--a", "1:1000,5:0110", "--c", "3:0101,7:1001",
                         "--v-max", "24")
    assert status == 0
    assert out == (GOLDEN / "lift_dist_q16_vmax24.json").read_text()


def test_counterexample_numbers(capsys):
    doc = run_json(capsys, "counterexample", "--p", "3", "--q", "3")
    assert doc["result"]["local_count"] == 3510
    assert doc["result"]["global_count"] == 9126
    assert doc["result"]["discrepancy_ratio"] == "13/5"


def test_counterexample_tsv_flattens_the_breakdowns(capsys):
    status, out, _ = run(capsys, "counterexample", "--p", "3", "--q", "3",
                         "--format", "tsv")
    assert status == 0
    expected = ["p\t3", "q\t3", "local_count\t3510", "global_count\t9126",
                "discrepancy_ratio\t13/5"]
    for scope, per_line in (("local", 702), ("global", 2106)):
        expected.append(f"{scope}_breakdown.center_inertia\t702")
        expected += [f"{scope}_breakdown.line({line})\t{per_line}"
                     for line in ("1:0", "0:1", "1:1", "2:1")]
    assert out == "\n".join(expected) + "\n"


def test_census_and_series(capsys):
    doc = run_json(capsys, "census", "--q", "2", "--max-degree", "3")
    rows = {row["degree"]: row["places"] for row in doc["result"]["rows"]}
    assert rows == {1: 3, 2: 1, 3: 2}
    doc = run_json(capsys, "global-series", "--q", "2", "--x-max", "2")
    coeffs = [row["coefficient"] for row in doc["result"]["rows"]]
    assert coeffs == [1, 15, 108]


def test_abelian_series_via_group_flag(capsys):
    doc = run_json(capsys, "global-series", "--q", "2", "--x-max", "2",
                   "--group", "1", "--p", "2")
    coeffs = [row["coefficient"] for row in doc["result"]["rows"]]
    assert coeffs == [1, 3, 6]


def test_growth_table(capsys):
    doc = run_json(capsys, "growth", "--q", "2", "--x-max", "3")
    rows = doc["result"]["rows"]
    assert rows[0]["count"] == 120
    assert rows[0]["ratio"] == "15"
    assert rows[0]["relative_change"] == "n/a"


def test_local_a(capsys):
    doc = run_json(capsys, "local-a", "--q", "4", "--v", "1")
    assert doc["result"]["coefficient"] == 27


def test_tsv_format(capsys):
    status, out, _ = run(capsys, "census", "--q", "2", "--max-degree", "2",
                         "--format", "tsv")
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[0] == "q\t2"
    assert lines[1] == "degree\tplaces"
    assert lines[2] == "1\t3"


def test_verify_single_suite(capsys):
    doc = run_json(capsys, "verify", "--suite", "gf")
    assert doc["result"]["all_passed"] is True
    assert all(row["status"] == "pass" for row in doc["result"]["rows"])


def test_verify_output_is_deterministic(capsys):
    _, out1, _ = run(capsys, "verify", "--suite", "gf", "--seed", "7")
    _, out2, _ = run(capsys, "verify", "--suite", "gf", "--seed", "7")
    assert out1 == out2


# the memoised helpers: the Z/4 data two asw rows share, and the slices of
# a row's work that an acceptance criterion needs and no row prints; one
# `verify` computes each once per argument
HELPER_MISSES = {checks._z4_data: 1, checks._line_inertia_bruteforce: 1,
                 checks._bruteforce_minimum_matches: 2,
                 checks._d4_series_matches_oracle: 2}


@pytest.fixture
def cold_check_memos():
    """Clear the row memo and the helpers before the test, and again after
    it, so no row computed under a patch outlives the test."""
    def clear():
        for memo in (checks.row, *HELPER_MISSES):
            memo.cache_clear()
    clear()
    yield
    clear()


def test_verify_output_is_pinned_and_runs_shared_checks_once(
        capsys, monkeypatch, cold_check_memos):
    # a criterion that restates a suite row reads the row, and one that
    # needs a slice of a row's work shares a memoised helper with it
    bruteforce = []
    count_line_inertia_bruteforce = h3.count_line_inertia_bruteforce

    def counted_line_inertia(*args):
        bruteforce.append(args)
        return count_line_inertia_bruteforce(*args)

    monkeypatch.setattr(h3, "count_line_inertia_bruteforce", counted_line_inertia)
    status, out, _ = run(capsys, "verify", "--seed", "0")
    assert status == 0
    assert out == (GOLDEN / "verify_seed0.json").read_text()
    assert sorted(bruteforce) == [(3, 3, 1), (3, 3, 2)]
    assert checks.row.cache_info().misses == 33


def test_verify_seed_one_is_pinned_and_runs_seedless_checks_once(
        capsys, cold_check_memos):
    # the bench's seed: every row, and every helper, is computed once
    status, out, _ = run(capsys, "verify", "--seed", "1")
    assert status == 0
    assert out == (GOLDEN / "verify_seed1.json").read_text()
    assert checks.row.cache_info().misses == 33
    for helper, misses in HELPER_MISSES.items():
        assert helper.cache_info().misses == misses, helper.__name__


@pytest.mark.parametrize("criterion, rows_read", [
    ("acceptance.1.local_distribution_closed_forms", 1),
    ("acceptance.7.invariant_suites", 5 + 6),  # witt, asw
    ("acceptance.8.discriminant_gate", 1),
])
def test_a_criterion_reads_the_rows_it_restates(cold_check_memos, criterion,
                                                rows_read):
    checks.row(criterion, 0)
    assert checks.row.cache_info().misses == 1 + rows_read


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_each_suite_alone_prints_its_golden_rows(capsys, cold_check_memos,
                                                 suite, seed):
    status, out, _ = run(capsys, "verify", "--suite", suite, "--seed", str(seed))
    golden = json.loads((GOLDEN / f"verify_seed{seed}.json").read_text())
    expected = [row for row in golden["result"]["rows"]
                if row["check"].startswith(f"{suite}.")]
    assert status == 0
    assert json.loads(out)["result"] == {"all_passed": True, "rows": expected}


def test_a_repeated_suite_prints_its_rows_once(capsys, cold_check_memos):
    # suites print in the order first named, each once
    status, out, _ = run(capsys, "verify", "--suite", "d4", "--suite", "gf",
                         "--suite", "d4")
    golden = json.loads((GOLDEN / "verify_seed0.json").read_text())
    expected = [row for suite in ("d4", "gf") for row in golden["result"]["rows"]
                if row["check"].startswith(f"{suite}.")]
    assert status == 0
    assert json.loads(out)["result"] == {"all_passed": True, "rows": expected}


def test_even_jumps_read_fail_on_a_planted_non_minimal_lift(monkeypatch,
                                                            cold_check_memos):
    # one extra lift at the even jump two above the minimum of each of the 14
    # fibers, which the row counts on top of its 224 lifts
    true_distribution = d4.enumerated_lift_distribution

    def planted(a, c, v_max):
        tally = true_distribution(a, c, v_max)
        extra = min(tally) + 2
        tally[extra] = tally.get(extra, 0) + 1
        return tally

    monkeypatch.setattr(d4, "enumerated_lift_distribution", planted)
    assert checks.row("d4.even_jumps_are_minimal", 0) == (
        "d4.even_jumps_are_minimal", False, "lifts=238")


def test_minimum_rows_read_fail_on_an_empty_lift_distribution(
        capsys, monkeypatch, cold_check_memos):
    # three rows take the least jump of the enumerated distribution; an
    # empty one has none, and fails the rows instead of raising
    monkeypatch.setattr(d4, "enumerated_lift_distribution",
                        lambda a, c, v_max: {})
    assert checks.row("d4.bruteforce_minimum_matches_formula", 0) == (
        "d4.bruteforce_minimum_matches_formula", False, "fibers=368")
    assert checks.row("acceptance.2.min_lift_bruteforce_oracle", 0) == (
        "acceptance.2.min_lift_bruteforce_oracle", False,
        "q=2, totally ramified fibers=56, exact")
    assert checks.row("d4.even_jumps_are_minimal", 0) == (
        "d4.even_jumps_are_minimal", False, "lifts=0")
    status, out, err = run(capsys, "verify", "--suite", "d4")
    assert (status, err) == (1, "")
    rows = json.loads(out)["result"]["rows"]
    assert {"check": "d4.even_jumps_are_minimal", "status": "fail",
            "detail": "lifts=0"} in rows


@pytest.mark.parametrize("fault", ["constant_plus_one", "unreduced"])
def test_ring_axioms_read_fail_on_a_faulty_product(monkeypatch, cold_check_memos,
                                                   fault):
    # W_2(F_4) is built with the true product first, so the fault reaches
    # only the ring-axiom tables
    list(witt.iter_witt_vectors(gf.make_field(2, 2), 2))
    true_mul = witt._GaloisRing.mul

    def faulty_mul(ring, a, b):
        out = true_mul(ring, a, b)
        if ring.field.q != 4 or not any(out):
            return out
        if fault == "constant_plus_one":
            return ((out[0] + 1) % ring.mod,) + out[1:]
        return (out[0] + ring.mod,) + out[1:]  # a coefficient outside Z/p^L

    monkeypatch.setattr(witt._GaloisRing, "mul", faulty_mul)
    assert checks.row("witt.ring_axioms", 0) == ("witt.ring_axioms", False,
                                                 "triples=5609")


def test_a_raising_certificate_fails_the_monotone_row(monkeypatch,
                                                      cold_check_memos):
    def raising(m):
        raise InternalInconsistencyError("planted certificate failure")

    monkeypatch.setattr(asw, "ramification_steps", raising)
    assert checks.row("asw.quotient_jumps_are_monotone", 0) == (
        "asw.quotient_jumps_are_monotone", False,
        "planted certificate failure")
    # criterion 7 reads the failing rows and names them
    assert checks.row("acceptance.7.invariant_suites", 0) == (
        "acceptance.7.invariant_suites", False,
        "witt+asw suites; failing: "
        "['asw.quotient_jumps_are_monotone', "
        "'asw.cyclic_discriminants_match_break_formula']")


def test_monotone_row_reads_fail_on_a_series_that_ignores_q(monkeypatch,
                                                            cold_check_memos):
    # the q = 2 series for every q is nonnegative and monotone, not strictly
    monkeypatch.setattr(euler, "d4_global_series",
                        lambda q, x: euler.global_series(2, x, counts._d4_exact))
    assert checks.row("euler.coefficients_nonnegative_and_monotone_in_q", 0) == (
        "euler.coefficients_nonnegative_and_monotone_in_q", False, "X <= 8")


def test_growth_reads_fail_on_a_halved_count(monkeypatch, cold_check_memos):
    # halving every N(X) halves every ratio, so the relative changes, and
    # the detail, stay as they were
    table = euler.growth_table

    def halved(q, x_max):
        return tuple(r._replace(count=r.count // 2, ratio=r.ratio / 2)
                     for r in table(q, x_max))

    golden = json.loads((GOLDEN / "verify_seed0.json").read_text())
    detail = next(r["detail"] for r in golden["result"]["rows"]
                  if r["check"] == "acceptance.6.growth_ratio_stabilises")
    monkeypatch.setattr(euler, "growth_table", halved)
    assert checks.row("acceptance.6.growth_ratio_stabilises", 0) == (
        "acceptance.6.growth_ratio_stabilises", False, detail)


# no lift of the planted minimal jump max(w(a), w(c)) exists
PLANTED_MIN_LIFT_FAULT = """
import sys
from ramcount import cli, d4
d4.min_lift_jump = lambda a, c: max(a.pole_order(), c.pole_order())
sys.exit(cli.main(sys.argv[1:]))
"""


def test_central_twists_read_fail_when_no_lift_has_the_minimal_jump():
    done = subprocess.run(
        [sys.executable, "-c", PLANTED_MIN_LIFT_FAULT, "verify", "--suite", "d4"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    rows = json.loads(done.stdout)["result"]["rows"]
    assert next(r["status"] for r in rows
                if r["check"] == "d4.central_twists_move_jump_to_max") == "fail"


def test_local_distribution_reads_fail_on_a_planted_d4_count(monkeypatch,
                                                            cold_check_memos):
    # one more eighth-count of dihedral data of jump <= v for v > 6, where
    # the min-lift row, whose counts stop at v = 5, does not look
    true_le = counts._d4_le
    monkeypatch.setattr(counts, "_d4_le",
                        lambda q, v: true_le(q, v) + (v > 6))
    assert checks.row("acceptance.1.local_distribution_closed_forms", 0) == (
        "acceptance.1.local_distribution_closed_forms", False,
        "q in {2,4}, v <= 8, exact")


def test_cyclic_discriminants_read_fail_on_a_planted_filtration(
        monkeypatch, cold_check_memos):
    # a ramification group of order k > p read as order k // p; over Z/p,
    # where no group is larger than p, the filtration keeps its orders
    true_steps = asw.ramification_steps

    def planted(m):
        p = m.shape.p
        return [(u, size // p if size > p else size)
                for u, size in true_steps(m)]

    monkeypatch.setattr(asw, "ramification_steps", planted)
    assert checks.row("asw.cyclic_discriminants_match_break_formula", 0) == (
        "asw.cyclic_discriminants_match_break_formula", False,
        "evaluations=30")


def test_acceptance_suite_alone_prints_the_golden_rows():
    # a fresh process, so no suite has warmed the memos the criteria use
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-m", "ramcount.cli", "verify", "--suite", "acceptance"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    golden = json.loads((GOLDEN / "verify_seed0.json").read_text())
    expected = [row for row in golden["result"]["rows"]
                if row["check"].startswith("acceptance.")]
    assert json.loads(done.stdout)["result"]["rows"] == expected


# last_jump off by one at jump 3, which the filtration certifies
PLANTED_JUMP_FAULT = """
import sys
from ramcount import asw, cli
last_jump = asw.last_jump
asw.last_jump = lambda m: last_jump(m) + (last_jump(m) == 3)
sys.exit(cli.main(sys.argv[1:]))
"""
PLANTED_FAULT_MESSAGE = "every character has jump at most 3, below the last jump 4"


def run_with_planted_jump_fault(*argv):
    return subprocess.run(
        [sys.executable, "-c", PLANTED_JUMP_FAULT, *argv],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120)


# the asw rows that read the filtration of a datum of jump 3, whose
# certificate then fires
RAISING_ASW_ROWS = ("asw.quotient_jumps_are_monotone",
                    "asw.cyclic_discriminants_match_break_formula")


def test_a_fired_certificate_in_verify_is_one_failing_row():
    # each row runs under its own guard: a row the fault does not reach
    # keeps its golden bytes, a row whose certificate fires fails under its
    # own name with the message, and the sampled row reads the planted jump
    # 4, a multiple of p, so it fails with its golden detail
    done = run_with_planted_jump_fault("verify", "--suite", "gf", "--suite", "asw")
    assert (done.returncode, done.stderr) == (1, "")
    golden = json.loads((GOLDEN / "verify_seed0.json").read_text())
    expected = []
    for row in golden["result"]["rows"]:
        if row["check"] in RAISING_ASW_ROWS:
            row = {**row, "status": "fail", "detail": PLANTED_FAULT_MESSAGE}
        elif row["check"] == "asw.elementary_jumps_avoid_multiples_of_p":
            row = {**row, "status": "fail"}
        if row["check"].startswith(("gf.", "asw.")):
            expected.append(row)
    assert json.loads(done.stdout)["result"] == {"all_passed": False,
                                                 "rows": expected}


def test_the_discriminant_gate_row_fails_with_its_minimality_certificate(
        capsys, monkeypatch, cold_check_memos):
    # a profile on three intervals below 2 p^2 (p - 1) fires the gate's
    # certificate at p = 2, and only the gate's row fails, with its message;
    # the plant keys on the gate's order 8, since every discriminant sums
    # through the same integral
    ramification_integral = asw.ramification_integral

    def three_intervals_give_zero(order, profile):
        if (order, len(profile)) == (8, 3):
            return 0
        return ramification_integral(order, profile)

    monkeypatch.setattr(asw, "ramification_integral", three_intervals_give_zero)
    status, out, err = run(capsys, "verify", "--suite", "acceptance")
    assert (status, err) == (1, "")
    golden = json.loads((GOLDEN / "verify_seed0.json").read_text())
    expected = []
    for row in golden["result"]["rows"]:
        if row["check"] == "acceptance.8.discriminant_gate":
            row = {**row, "status": "fail",
                   "detail": "image sizes (8, 8, 8) give 0, below 8"}
        if row["check"].startswith("acceptance."):
            expected.append(row)
    assert json.loads(out)["result"] == {"all_passed": False, "rows": expected}


def test_a_fired_certificate_in_a_query_exits_three():
    done = run_with_planted_jump_fault("disc", "--p", "2", "--q", "2",
                                       "--group", "1", "--terms", "3:1")
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == f"internal error: {PLANTED_FAULT_MESSAGE}\n"


@pytest.mark.parametrize("argv, status, stdout, stderr", [
    (("count-d4", "--q", str(2 ** 61 - 1), "--v", "1"), 2, "",
     f"error: {2 ** 61 - 1} is not a power of 2\n"),
    (("census", "--q", str(2 ** 61 - 1), "--max-degree", "2", "--format", "tsv"),
     0, f"q\t{2 ** 61 - 1}\ndegree\tplaces\n1\t{2 ** 61}\n"
        f"2\t{((2 ** 61 - 1) ** 2 - (2 ** 61 - 1)) // 2}\n", ""),
])
def test_a_large_prime_q_is_placed_in_bounded_time(argv, status, stdout, stderr):
    # 2^61 - 1 is prime and has no small factor; trial division to its
    # square root took minutes
    done = subprocess.run([sys.executable, "-m", "ramcount.cli", *argv],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=2)
    assert (done.returncode, done.stdout, done.stderr) == (status, stdout, stderr)


M61 = 2 ** 61 - 1


@pytest.mark.parametrize("argv, status, stdout_head, stderr", [
    (("lj", "--p", "4093", "--q", str(4093 ** 4), "--group", "1",
      "--terms", "1:0001"), 0, "last_jump\t1\n", ""),
    (("counterexample", "--p", "13", "--q", str(13 ** 24)), 0,
     f"p\t13\nq\t{13 ** 24}\n", ""),
    # counterexample builds no field, so q = 3^25 needs no Ben-Or search
    (("counterexample", "--p", "3", "--q", str(3 ** 25)), 0,
     f"p\t3\nq\t{3 ** 25}\n", ""),
    # the order-p^3 group is no longer refused: 506 counts of 8000 bits
    (("counterexample", "--p", "251", "--q", str(251 ** 4)), 0,
     f"p\t251\nq\t{251 ** 4}\nlocal_count\t", ""),
    (("counterexample", "--p", "17", "--q", "17"), 0,
     "p\t17\nq\t17\nlocal_count\t", ""),
    (("lj", "--p", str(M61), "--q", str(M61 ** 2), "--group", "1",
      "--terms", ""), 0, "last_jump\t0\n", ""),
    # lj builds no field: it reads the jump off the digits
    (("lj", "--p", "2", "--q", str(2 ** 30), "--group", "1",
      "--terms", "3:1" + "0" * 29), 0, "last_jump\t3\n", ""),
    # disc builds GF(2^30): its Ben-Or test is 54000 products, in budget
    (("disc", "--p", "2", "--q", str(2 ** 30), "--group", "1,1",
      "--terms", "3:1" + "0" * 29 + "|01" + "0" * 28), 0,
     "discriminant_exponent\t12\n", ""),
], ids=["lj-4093^4", "counterexample-13^24", "counterexample-3^25",
        "counterexample-251^4",
        "counterexample-17", "lj-M61^2", "lj-2^30", "disc-2^30"])
def test_a_large_field_is_built_in_bounded_time(argv, status, stdout_head,
                                                 stderr):
    # the trial-division modulus search took 15 s on GF(251^4), ran past
    # 30 s on GF(4093^4) and GF(13^24), and materialised range(p) for M61
    done = subprocess.run(
        [sys.executable, "-m", "ramcount.cli", *argv, "--format", "tsv"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=10)
    assert (done.returncode, done.stderr) == (status, stderr)
    if status:
        assert done.stdout == ""
    else:
        assert done.stdout.startswith(stdout_head)


def test_lj_reads_a_large_group_without_building_the_field(capsys,
                                                          monkeypatch):
    def unreachable(q, p=None):
        raise AssertionError("GF(q) built")

    monkeypatch.setattr(gf, "field_for_order", unreachable)
    status, out, err = run(capsys, "lj", "--p", str(M61), "--q", str(M61 ** 24),
                           "--group", "1", "--terms", "", "--format", "tsv")
    assert (status, out, err) == (0, "last_jump\t0\n", "")


def test_a_refused_size_is_stated_by_its_bit_length():
    # (2^60000)^32 candidates: the oracle compares 1,920,000 bits with the
    # budget before it builds the power, and never writes its 578,000 digits;
    # Decimal writes q past the int-to-str digit limit of this process
    done = subprocess.run(
        [sys.executable, "-m", "ramcount.cli", "count-minlift",
         "--q", str(Decimal(2 ** 60000)), "--v", "64", "--mode", "enumeration"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=5)
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", "error: at least 2^1920000 candidates exceed 5000000\n")


@pytest.mark.parametrize("argv, message", [
    # a jump of up to 1.2 million bits, refused before its terms are read
    (("lj", "--p", str(M61), "--q", str(M61), "--group", "20000",
      "--terms", "1:1" + ";0" * 19999),
     "22714756 word products to print the last jump"),
    # 2^(10^12) is never built: the printed size is refused first
    (("count-abelian", "--p", "2", "--q", "2", "--group", str(10 ** 12),
      "--v", "63"), "at least 2^65 word products to print the count"),
    (("count-abelian", "--p", "2", "--q", "2", "--group", "3000000",
      "--v", "63"), "549339844 word products to print the count"),
    (("global-series", "--q", "2", "--x-max", "24", "--p", "2",
      "--group", ",".join("1" * 30000)),
     "213348013 word products to take the series to t^24"),
])
def test_answers_that_grow_with_the_shape_are_refused_before_any_work(
        capsys, monkeypatch, argv, message):
    def no_work(*args):
        raise AssertionError("worked before the budget check")

    monkeypatch.setattr(euler, "global_series", no_work)
    monkeypatch.setattr(cli, "_abelian_terms", no_work)
    assert run(capsys, *argv) == (2, "", f"error: {message} exceed 5000000\n")


def field_path_lj(p, q, group, terms):
    """What `lj` printed when it built GF(q): `asw.last_jump` of the datum
    that `parse_cocycle` reads, or the one-line error of that path."""
    try:
        shape = cli.parse_group(group, p)
        datum = cli.parse_cocycle(terms, shape, gf.field_for_order(q, p=p))
    except (RamcountError, ValueError) as exc:
        return 2, "", f"error: {exc}\n"
    return 0, f"last_jump\t{asw.last_jump(datum)}\n", ""


def assert_lj_matches_the_field_path(capsys, p, q, group, terms):
    # "--terms=" keeps a leading minus sign from reading as an option
    got = run(capsys, "lj", "--p", str(p), "--q", str(q), "--group", group,
              f"--terms={terms}", "--format", "tsv")
    assert got == field_path_lj(p, q, group, terms), (p, q, group, terms)


def random_lj_input(rng):
    """A shape with p in {2, 3, 5, 7} and order <= 4096, q up to p^4 and
    0-3 terms on indices 0 or coprime to p, each Witt component zero or
    random with even odds; one input in three then has one fault planted."""
    p = rng.choice((2, 3, 5, 7))
    while True:
        exponents = sorted((rng.randint(1, 4) for _ in range(rng.randint(1, 3))),
                           reverse=True)
        if p ** sum(exponents) <= 4096:
            break
    n = rng.randint(1, 4)

    def component():
        if rng.random() < 0.5:
            return "0" * n
        return "".join(str(rng.randrange(p)) for _ in range(n))

    indices = [0, *(k for k in range(1, 16) if k % p)]
    terms = [f"{index}:" + "|".join(";".join(component() for _ in range(e))
                                    for e in exponents)
             for index in rng.sample(indices, rng.randint(0, 3))]
    if terms and rng.random() < 1 / 3:
        k = rng.randrange(len(terms))
        index, _, coeff = terms[k].partition(":")
        terms[k] = rng.choice((
            f"{index}:{coeff}|{coeff}",                # a part too many
            f"{index}:{coeff};{'0' * n}",              # a component too many
            f"{index}:{coeff}0",                       # a digit too many
            f"{index}:{coeff[:-1]}{min(p, 9)}",        # a digit >= p
            f"{terms[0].partition(':')[0]}:{coeff}",   # a repeated index
            f"{p * rng.randint(1, 5)}:{coeff}",        # an index divisible by p
            f"-{rng.randint(1, 5)}:{coeff}",           # a negative index
        ))
    return p, p ** n, ",".join(map(str, exponents)), ",".join(terms)


@pytest.mark.parametrize("seed", range(4))
def test_lj_read_off_the_digits_matches_the_field_path(capsys, seed):
    rng = random.Random(f"lj/{seed}")
    for _ in range(50):
        assert_lj_matches_the_field_path(capsys, *random_lj_input(rng))


@pytest.mark.parametrize("p, q, group, terms", [
    (3, 9, "1,1", "1:10"),            # a part too few
    (3, 9, "2", "1:10"),              # a component too few
    (3, 9, "1", "1:1"),               # a digit too few
    (3, 3, "1", "1:3"),               # a digit >= p
    (3, 3, "1", "1:1,1:2"),           # a repeated index
    (3, 3, "1", "3:1"),               # an index divisible by p
    (3, 3, "1", "-1:1"),              # a negative index
    (3, 3, "1", "3:1,1:3"),           # digits are read before the index rule
    (2, 2, "1", "0:1,2:0"),           # a zero coefficient still needs its index
    (2, 4, "3,1", "1:00;00;01|00,5:00;10;00|11"),  # answers 10
    (5, 5, "", "1:1"),                # a bad group
    (4, 16, "1", "1:11"),             # a characteristic that is not prime
    (2, 9, "1", "1:1"),               # q not a power of p
])
def test_lj_refuses_what_the_field_path_refuses(capsys, p, q, group, terms):
    assert_lj_matches_the_field_path(capsys, p, q, group, terms)


def test_a_raising_criterion_is_one_failing_row_under_its_key(monkeypatch,
                                                              cold_check_memos):
    def raising(q, x_max):
        raise InternalInconsistencyError("planted criterion fault")

    monkeypatch.setattr(euler, "growth_table", raising)
    rows = [tuple(row) for row in checks.run_suites(["acceptance"])]
    golden = json.loads((GOLDEN / "verify_seed0.json").read_text())
    expected = [(row["check"], row["status"] == "pass", row["detail"])
                for row in golden["result"]["rows"]
                if row["check"].startswith("acceptance.")]
    expected[5] = ("acceptance.6.growth_ratio_stabilises", False,
                   "planted criterion fault")
    assert rows == expected


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count-minlift", "--q", "2"])  # missing --v
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, message", [
    (["count-d4", "--q", "2", "--v", "3", "extra"],
     "unrecognized arguments: extra"),
    ([], "the following arguments are required: command"),
    (["bogus"], "argument command: invalid choice: 'bogus'"),
])
def test_top_level_usage_errors_read_as_the_full_parser(capsys, argv, message):
    # `main` builds one subparser when argv names a command; its usage
    # still lists every command, as the full parser's does
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)
    assert err == capsys.readouterr().err
    assert err.startswith("usage: ramcount [-h]")
    assert "{" + ",".join(subcommand_names()) + "}" in err
    assert f"ramcount: error: {message}" in err


def test_main_builds_only_the_command_it_runs(capsys, monkeypatch):
    built = []

    def recording_build_parser(command=None):
        parser = build_parser(command)
        built.append(subcommand_names(parser))
        return parser

    monkeypatch.setattr(cli, "build_parser", recording_build_parser)
    assert run_json(capsys, "count-d4", "--q", "2", "--v", "1")["result"] \
        == {"count_le": 6}
    with pytest.raises(SystemExit):
        main(["bogus"])
    assert built == [["count-d4"], subcommand_names()]


def test_domain_error_exit_code(capsys):
    status, out, err = run(capsys, "counterexample", "--p", "2", "--q", "2")
    assert status == 2
    assert "odd prime" in err


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    status, out, _ = run(capsys, "count-d4", "--q", "2", "--v", "1",
                         "--out", str(target))
    assert status == 0
    assert json.loads(target.read_text())["result"]["count_le"] == 6


def assert_one_line_error(capsys, *argv):
    status, out, err = run(capsys, *argv)
    assert status == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_negative_jump_is_rejected(capsys):
    assert_one_line_error(capsys, "count-abelian", "--p", "2", "--q", "2",
                          "--group", "1", "--v", "-1")


def test_negative_truncation_is_rejected(capsys):
    assert_one_line_error(capsys, "global-series", "--q", "2", "--x-max", "-1")
    assert_one_line_error(capsys, "global-series", "--q", "2", "--x-max", "-1",
                          "--group", "1", "--p", "2")


def test_count_abelian_rejects_bad_field_orders(capsys):
    assert_one_line_error(capsys, "count-abelian", "--p", "2", "--q", "6",
                          "--group", "1", "--v", "1")
    assert_one_line_error(capsys, "count-abelian", "--p", "6", "--q", "36",
                          "--group", "1", "--v", "1")


def test_removed_enumeration_flags_are_usage_errors(capsys):
    for flag in ("--threads", "--budget"):
        with pytest.raises(SystemExit) as exc:
            main(["count-abelian", "--p", "2", "--q", "2", "--group", "1",
                  "--v", "1", flag, "2"])
        assert exc.value.code == 2
    # the one enumeration budget is a constant: no flag moves it, in either mode
    for mode in ("closed_form", "enumeration"):
        with pytest.raises(SystemExit) as exc:
            main(["count-minlift", "--q", "4", "--v", "5", "--mode", mode,
                  "--budget", "63"])
        assert exc.value.code == 2


def test_abelian_series_reaches_max_truncation(capsys):
    # X = 64, where a former cap on every jump stopped the series
    doc = run_json(capsys, "global-series", "--q", "2", "--x-max", "64",
                   "--group", "1,1", "--p", "2")
    coeffs = [row["coefficient"] for row in doc["result"]["rows"]]
    assert len(coeffs) == 65
    shape = counts.GroupShape(2, (1, 1))

    def local(residue_order, v):
        return counts.count_by_last_jump(shape, residue_order, v, "inertial_types")

    for x in range(9):
        assert coeffs[x] == euler.convolution_oracle(2, x, local)


# stdout of each series and growth query, captured before the Euler product
# became an exp-log: the d4 and growth queries of the dihedral benchmark,
# d4 at q = 256, and abelian series at X = 24
SERIES_GOLDENS = {
    **{f"global_series_d4_q{q}_x{x}": ("global-series", "--q", str(q),
                                       "--x-max", str(x))
       for q, x in [(2, 24), (4, 24), (8, 24), (2, 16), (4, 20), (8, 16),
                    (256, 24)]},
    **{f"growth_q{q}_x{x}": ("growth", "--q", str(q), "--x-max", str(x))
       for q, x in [(2, 24), (4, 24), (8, 20), (2, 16)]},
    "global_series_group1-1_q2_x24": ("global-series", "--q", "2", "--x-max",
                                      "24", "--group", "1,1"),
    "global_series_group2_q4_x24": ("global-series", "--q", "4", "--x-max",
                                    "24", "--group", "2"),
    "global_series_group4_p7_q49_x24": ("global-series", "--q", "49",
                                        "--x-max", "24", "--group", "4",
                                        "--p", "7"),
}


@pytest.mark.parametrize("name", SERIES_GOLDENS)
def test_series_and_growth_print_their_goldens(capsys, name):
    status, out, err = run(capsys, *SERIES_GOLDENS[name])
    assert (status, err) == (0, "")
    assert out == (GOLDEN / f"{name}.json").read_text()


@pytest.mark.parametrize("name", [name for name in SERIES_GOLDENS
                                  if name.startswith("global_series_")
                                  and name.endswith("_x24")])
def test_a_series_to_the_jump_range_extends_its_golden(capsys, name):
    # X = 64, where a former cap on every jump stopped the series
    argv = list(SERIES_GOLDENS[name])
    argv[argv.index("--x-max") + 1] = "64"
    doc = run_json(capsys, *argv)
    rows = doc["result"]["rows"]
    assert len(rows) == 65
    golden = json.loads((GOLDEN / f"{name}.json").read_text())
    assert rows[:25] == golden["result"]["rows"]


def test_census_rejects_bad_field_orders(capsys):
    for q in ("6", "1"):
        assert_one_line_error(capsys, "census", "--q", q, "--max-degree", "3")
    assert_one_line_error(capsys, "global-series", "--q", "6", "--x-max", "2")
    assert_one_line_error(capsys, "growth", "--q", "6", "--x-max", "2")


def test_digits_past_the_characteristic_are_rejected(capsys):
    for command in ("lj", "disc"):
        assert_one_line_error(capsys, command, "--p", "2", "--q", "2",
                              "--group", "1", "--terms", "3:2")


def test_negative_v_max_is_rejected(capsys):
    pair = ("--q", "2", "--a", "1:1", "--c", "3:1", "--v-max", "-1")
    assert_one_line_error(capsys, "lift-dist", *pair)
    assert_one_line_error(capsys, "urtwist-check", *pair)


def test_dihedral_input_outside_characteristic_two_is_rejected(capsys):
    assert_one_line_error(capsys, "urtwist-check", "--q", "3", "--a", "1:1",
                          "--c", "3:1", "--v-max", "4")
    assert_one_line_error(capsys, "urtwist-check", "--q", "2", "--a", "1:1",
                          "--c", "2:1", "--v-max", "4")


def test_over_budget_twist_report_is_refused_up_front(capsys, monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("enumerated before the budget check")

    pair = ("--q", "16", "--a", "1:1000", "--c", "3:1000")
    doc = run_json(capsys, "urtwist-check", *pair, "--v-max", "9")
    assert doc["result"]["all_equal"] is True
    monkeypatch.setattr(d4, "_jump_tally", no_enumeration)
    status, out, err = run(capsys, "urtwist-check", *pair, "--v-max", "11")
    assert (status, out) == (2, "")
    assert err == "error: 33554432 candidates exceed 5000000\n"


def test_urtwist_check_exits_one_on_a_wrong_closed_form(capsys, monkeypatch):
    # twice the lifts of jump <= v: the closed form doubles every count,
    # where the enumerated tally does not
    pool = d4._lift_pool_exponent
    monkeypatch.setattr(d4, "_lift_pool_exponent",
                        lambda field, v: pool(field, v) + 1)
    status, out, _ = run(capsys, "urtwist-check", "--q", "2", "--a", "1:1",
                         "--c", "3:1", "--v-max", "6")
    assert status == 1
    assert json.loads(out)["result"]["all_equal"] is False


def test_over_budget_unramified_twist_rows_are_refused_up_front(capsys):
    digits = "1" + "0" * 11
    status, out, err = run(capsys, "urtwist-check", "--q", "4096",
                           "--a", f"1:{digits}", "--c", f"1:{digits}",
                           "--v-max", "64")
    assert (status, out) == (2, "")
    assert err == "error: 16777216 candidates exceed 5000000\n"


def test_suite_names_are_the_checks_suites_then_acceptance():
    assert SUITE_NAMES == tuple(checks.SUITES)
    assert SUITE_NAMES[-1] == "acceptance"


@pytest.mark.parametrize("argv", [
    ("lj", "--p", "2", "--q", "2", "--terms", ""),
    ("disc", "--p", "2", "--q", "2", "--terms", ""),
    ("count-abelian", "--p", "2", "--q", "2", "--v", "3"),
    ("global-series", "--p", "2", "--q", "2", "--x-max", "3"),
])
def test_malformed_group_is_a_one_line_error(capsys, argv):
    for group in ("a", "", ",", "1,a", "1_0", " 1", "\u0661"):
        status, out, err = run(capsys, *argv, "--group", group)
        assert (status, out) == (2, "")
        assert err == f"error: bad group {group!r}\n"


def test_unwritable_out_is_a_one_line_error(tmp_path, capsys):
    argv = ("count-abelian", "--p", "2", "--q", "2", "--group", "1", "--v", "3")
    _, report, _ = run(capsys, *argv)
    target = tmp_path / "missing" / "report.json"
    status, out, err = run(capsys, *argv, "--out", str(target))
    assert (status, out) == (2, report)
    assert err == f"error: cannot write {target}: No such file or directory\n"


CHEAP_QUERY = ("count-d4", "--q", "2", "--v", "3")


def test_a_closed_pipe_is_a_one_line_error():
    # the reader leaves before the child starts, so its write always fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "ramcount.cli", *CHEAP_QUERY],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env={**os.environ, "PYTHONPATH": str(SRC)},
                              text=True, timeout=60)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (
        2, "error: cannot write stdout: Broken pipe\n")


def test_a_stdout_closed_at_start_is_a_one_line_error():
    done = subprocess.run(
        ["sh", "-c", 'exec "$@" >&-', "sh",
         sys.executable, "-m", "ramcount.cli", *CHEAP_QUERY],
        stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": str(SRC)},
        text=True, timeout=60)
    assert (done.returncode, done.stderr) == (
        2, "error: cannot write stdout: Bad file descriptor\n")


@pytest.mark.parametrize("argv", [
    ("count-d4", "--q", "6", "--v", "3"),
    ("count-d4", "--q", "-2", "--v", "1"),
    ("local-a", "--q", "6", "--v", "2"),
    ("count-minlift", "--q", "0", "--v", "0"),
    ("count-minlift", "--q", "9", "--v", "1"),
    ("global-series", "--q", "9", "--x-max", "3"),
    ("growth", "--q", "3", "--x-max", "3"),
    ("local-a", "--q", "9", "--v", "1"),
])
def test_dihedral_counts_need_a_power_of_two(capsys, argv):
    q = int(argv[2])
    message = (f"{q} is not a power of 2" if q in (3, 9)
               else f"{q} is not a prime power")
    status, out, err = run(capsys, *argv)
    assert (status, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv, index", [
    (("lj", "--p", "2", "--q", "2", "--group", "1", "--terms", "1:1,1:1"), 1),
    (("disc", "--p", "3", "--q", "3", "--group", "1", "--terms", "1:1,1:2"), 1),
    (("minlift", "--q", "2", "--a", "1:1,1:1", "--c", "1:1"), 1),
    (("minlift", "--q", "2", "--a", "1:1", "--c", "3:1,0:1,3:0"), 3),
])
def test_repeated_index_is_rejected(capsys, argv, index):
    status, out, err = run(capsys, *argv)
    assert (status, out) == (2, "")
    assert err == f"error: index {index} appears twice\n"


@pytest.mark.parametrize("command", ["count-d4", "local-a"])
def test_negative_dihedral_jump_is_rejected(capsys, command):
    status, out, err = run(capsys, command, "--q", "2", "--v", "-3")
    assert (status, out) == (2, "")
    assert err == "error: jump must be nonnegative\n"


@pytest.mark.parametrize("argv, message", [
    (("lj", "--p", "2", "--q", "2", "--group", "1,1", "--terms", "1:1"),
     "term '1:1' needs 2 factor part(s)"),
    (("lj", "--p", "2", "--q", "2", "--group", "2", "--terms", "1:1"),
     "part '1' needs 2 Witt component(s)"),
    # no jump is refused for its size, only for the work it makes: the lift
    # counts, the closed forms and the series are sized by the one budget
    (("lift-dist", "--q", "2", "--a", "1:1", "--c", "3:1", "--v-max", "10749"),
     "5203000 word products to print the distribution exceed 5000000"),
    (("count-d4", "--q", "2", "--v", "286197"),
     "5004169 word products to print the count exceed 5000000"),
    (("count-minlift", "--q", "2", "--v", "-1"), "jump must be nonnegative"),
    (("count-minlift", "--q", "2", "--v", "572396"),
     "5004169 word products to print the count exceed 5000000"),
    (("count-minlift", "--q", "4", "--v", "23", "--mode", "enumeration"),
     "16777216 candidates exceed 5000000"),
    (("growth", "--q", "2", "--x-max", "768"),
     "6504712 word products to take the series to t^768 exceed 5000000"),
    # two faults: the first one reached is reported
    (("lj", "--p", "2", "--q", "2", "--group", "1,1", "--terms", "1:1|1|1,1:1|0"),
     "term '1:1|1|1' needs 2 factor part(s)"),
    (("lj", "--p", "2", "--q", "2", "--group", "1,1", "--terms", "1:1|1,1:1|1|1"),
     "index 1 appears twice"),
    (("minlift", "--q", "4", "--a", "1:1,1:01", "--c", "3:01"),
     "expected 2 base-2 digits, got '1'"),
    (("minlift", "--q", "4", "--a", "1:01,1:1", "--c", "3:01"),
     "index 1 appears twice"),
    (("count-minlift", "--q", "6", "--v", "-1"), "6 is not a prime power"),
    # q is checked before the series, which at X = 0 takes no local count
    (("global-series", "--q", "2", "--x-max", "0", "--group", "1", "--p", "3"),
     "2 is not a power of 3"),
    (("global-series", "--q", "9", "--x-max", "0", "--group", "1", "--p", "2"),
     "9 is not a power of 2"),
    # a characteristic that is not prime is named as such
    (("disc", "--p", "4", "--q", "16", "--group", "1", "--terms", "1:11"),
     "4 is not prime"),
    (("counterexample", "--p", "9", "--q", "9"), "9 is not prime"),
    (("count-abelian", "--p", "1", "--q", "2", "--group", "1", "--v", "1"),
     "1 is not prime"),
    # a term index must be an integer
    (("lj", "--p", "2", "--q", "2", "--group", "1", "--terms", "1:1,"),
     "bad term ''"),
    (("lj", "--p", "2", "--q", "2", "--group", "1", "--terms", "x:1"),
     "bad term 'x:1'"),
    # the abelian counts state the jump range through the same rule, and
    # size a jump by the same budget
    (("count-abelian", "--p", "2", "--q", "2", "--group", "1", "--v", "572415"),
     "5004169 word products to print the count exceed 5000000"),
    (("count-abelian", "--p", "2", "--q", "2", "--group", "1", "--v", "-1"),
     "jump must be nonnegative"),
    # a digit is ASCII 0-9: a superscript or an Arabic-Indic two is refused
    (("lj", "--p", "3", "--q", "3", "--group", "1", "--terms", "1:\u00b2"),
     "expected 1 base-3 digits, got '\u00b2'"),
    (("lj", "--p", "3", "--q", "3", "--group", "1", "--terms", "1:\u0662"),
     "expected 1 base-3 digits, got '\u0662'"),
    # a term value that starts with "-" reaches the term grammar
    (("lj", "--p", "3", "--q", "3", "--group", "1", "--terms", "-1:1"),
     "support index -1 must be 0 or coprime to 3"),
    (("minlift", "--q", "2", "--a", "-1:1", "--c", "3:1"),
     "exponent -1 must be nonnegative"),
    # the census and the field build name what their budget counted
    (("census", "--q", str(2 ** 1000), "--max-degree", "2236"),
     "4999696000 bits compared by the census to degree 2236 exceed 5000000"),
    (("minlift", "--q", str(2 ** 136), "--a", "1:1", "--c", "3:1"),
     "5030912 coefficient products to build GF(2^136) exceed 5000000"),
    # the dihedral series checks the characteristic too, as --group does
    (("global-series", "--q", "4", "--x-max", "3", "--p", "3"),
     "4 is not a power of 3"),
    (("global-series", "--q", "4", "--x-max", "3", "--p", "4"),
     "4 is not prime"),
    # an index or a group exponent is an optional "-" and ASCII digits:
    # int() would read "1_1" as 11, "\u0661" as 1 and " 3" or "+3" as 3
    (("lj", "--p", "2", "--q", "2", "--group", "1", "--terms", "1_1:1"),
     "bad term '1_1:1'"),
    (("lj", "--p", "2", "--q", "2", "--group", "1", "--terms", "\u0661:1"),
     "bad term '\u0661:1'"),
    (("lj", "--p", "2", "--q", "2", "--group", "1", "--terms", " 3:1"),
     "bad term ' 3:1'"),
    (("lj", "--p", "2", "--q", "2", "--group", "1", "--terms", "+3:1"),
     "bad term '+3:1'"),
    (("minlift", "--q", "2", "--a", "1_1:1", "--c", "3:1"),
     "bad term '1_1:1'"),
    (("disc", "--p", "3", "--q", "3", "--group", "1_0", "--terms", ""),
     "bad group '1_0'"),
])
def test_out_of_range_input_is_a_one_line_error(capsys, argv, message):
    status, out, err = run(capsys, *argv)
    assert (status, out) == (2, "")
    assert err == f"error: {message}\n"


JUMP = str(10 ** 9)
SERIES_WORK = ((euler, "place_census"), (euler, "global_series"))
LIFT_PAIR = ("--q", "2", "--a", "1:1", "--c", "3:1")


@pytest.mark.parametrize("argv, message, workers", [
    (("count-abelian", "--p", "2", "--q", "2", "--group", "1", "--v", JUMP),
     "15258796875001 word products to print the count", ()),
    (("count-d4", "--q", "2", "--v", JUMP),
     "61035171875001 word products to print the count", ()),
    (("local-a", "--q", "2", "--v", JUMP),
     "61035171875001 word products to print the count", ()),
    (("count-minlift", "--q", "2", "--v", JUMP),
     "15258796875001 word products to print the count", ()),
    (("count-minlift", "--q", "2", "--v", JUMP, "--mode", "enumeration"),
     "at least 2^500000000 candidates", ()),
    (("lift-dist", *LIFT_PAIR, "--v-max", JUMP),
     "at least 2^71 word products to print the distribution", ()),
    (("urtwist-check", *LIFT_PAIR, "--v-max", JUMP),
     "at least 2^500000001 candidates",
     ((d4, "_jump_tally"), (d4, "lift_jump_distribution"))),
    (("global-series", "--q", "2", "--x-max", JUMP),
     f"at least 2^93 word products to take the series to t^{JUMP}",
     SERIES_WORK),
    (("global-series", "--q", "2", "--x-max", JUMP, "--group", "1"),
     f"at least 2^91 word products to take the series to t^{JUMP}",
     SERIES_WORK),
    (("growth", "--q", "2", "--x-max", JUMP),
     f"at least 2^93 word products to take the series to t^{JUMP}",
     SERIES_WORK),
], ids=("count-abelian", "count-d4", "local-a", "count-minlift",
        "count-minlift-enumeration", "lift-dist", "urtwist-check",
        "global-series", "global-series-group", "growth"))
def test_every_path_that_reads_a_jump_refuses_it_before_any_work(
        capsys, monkeypatch, argv, message, workers):
    # at a jump of 10^9 an answer has about 10^9 bits: each path refuses in
    # the unit it counts, before its worker runs and before it holds a
    # megabyte
    def no_work(*args):
        raise AssertionError("worked before the budget check")

    for module, name in workers:
        monkeypatch.setattr(module, name, no_work)
    tracemalloc.start()
    try:
        got = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == (2, "", f"error: {message} exceed 5000000\n")
    assert peak < 1 << 20


@pytest.mark.parametrize("option, argv", [
    ("--p", ("lj", "--p", "2_0", "--q", "2", "--group", "1", "--terms", "")),
    ("--q", ("count-d4", "--q", "1_6", "--v", "3")),
    ("--v", ("count-d4", "--q", "2", "--v", "\u0663")),
    ("--v-max", ("lift-dist", "--q", "2", "--a", "1:1", "--c", "3:1",
                 "--v-max", " 6")),
    ("--x-max", ("growth", "--q", "2", "--x-max", "+4")),
    ("--max-degree", ("census", "--q", "2", "--max-degree", "3_0")),
    ("--p", ("global-series", "--q", "2", "--x-max", "3", "--p", "\uff12")),
    ("--seed", ("verify", "--suite", "gf", "--seed", "1_0")),
])
def test_integer_options_take_ascii_digits_only(capsys, option, argv):
    # every integer option reads an optional "-" and ASCII digits, as the
    # term grammar does, where int() would read each of these values
    value = argv[argv.index(option) + 1]
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(
        f"error: argument {option}: invalid integer value: {value!r}\n")


@pytest.fixture
def default_int_digit_limit():
    """Start from the interpreter's int-to-str digit limit, which `main`
    lifts for the whole process, and restore the limit set before."""
    if not hasattr(sys, "set_int_max_str_digits"):  # before Python 3.10.7
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    yield
    sys.set_int_max_str_digits(saved)


BIG_Q = 2 ** 1000


@pytest.mark.parametrize("argv, key, expected", [
    (("count-d4", "--v", "64"), "count_le", lambda: counts.count_d4_le(BIG_Q, 64)),
    (("local-a", "--v", "64"), "coefficient", lambda: counts.count_d4_exact(BIG_Q, 64)),
    (("count-abelian", "--p", "2", "--group", "12", "--v", "64"), "count",
     lambda: counts.count_by_last_jump(counts.GroupShape(2, (12,)), BIG_Q, 64,
                                    "homomorphisms")),
], ids=("count-d4", "local-a", "count-abelian"))
def test_counts_past_the_digit_limit_print_exactly(
        capsys, default_int_digit_limit, argv, key, expected):
    value = expected()
    assert value.bit_length() > 4300 * 4  # over 4300 decimal digits
    doc = run_json(capsys, *argv, "--q", str(BIG_Q))
    assert doc["result"][key] == value


def test_negative_census_degree_is_rejected(capsys):
    status, out, err = run(capsys, "census", "--q", "2", "--max-degree", "-1")
    assert (status, out) == (2, "")
    assert err == "error: census degree -1 must be nonnegative\n"
    assert run_json(capsys, "census", "--q", "2", "--max-degree", "0")["result"] \
        == {"q": 2, "rows": []}


def subcommand_names(parser=None) -> list[str]:
    parser = build_parser() if parser is None else parser
    subcommands = next(action for action in parser._actions
                       if isinstance(action, argparse._SubParsersAction))
    return list(subcommands.choices)


def help_pages() -> str:
    """Top-level `--help`, then each subcommand's, as `main` prints them."""
    pages = []
    for argv in [[]] + [[name] for name in subcommand_names()]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
            main([*argv, "--help"])
        pages.append(f"$ ramcount {' '.join([*argv, '--help'])}\n{out.getvalue()}")
    return "\n".join(pages)


def test_help_pages_are_pinned(monkeypatch):
    # argparse wraps usage lines differently across Python versions, so the
    # pages are compared word by word; option names, choices and defaults
    # stay pinned
    monkeypatch.setenv("COLUMNS", "80")
    assert help_pages().split() == (GOLDEN / "help.txt").read_text().split()


def test_library_has_no_assert_statements():
    # certificates raise InternalInconsistencyError; an assert would vanish
    # under python -O
    for path in sorted((SRC / "ramcount").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Assert)]
        assert not found, f"{path.name}: assert at line(s) {found}"


def test_library_has_no_floats():
    # counts, jumps and ratios are exact; a float would round them
    for path in sorted((SRC / "ramcount").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found = [node.lineno for node in ast.walk(tree)
                 if (isinstance(node, ast.Constant)
                     and isinstance(node.value, (float, complex)))
                 or (isinstance(node, ast.Call)
                     and isinstance(node.func, ast.Name)
                     and node.func.id == "float")]
        assert not found, f"{path.name}: float at line(s) {found}"


def test_records_are_slotted_namedtuples():
    # a record compares, hashes and prints by its fields and has no
    # per-instance dict, so assigning to it raises AttributeError
    records = [cls for module in (asw, checks, counts, d4, euler, h3)
               for cls in vars(module).values()
               if isinstance(cls, type) and issubclass(cls, tuple)
               and cls.__module__ == module.__name__]
    assert {"GroupShape", "GrowthRow", "CheckResult"} <= {
        cls.__name__ for cls in records}
    for cls in records:
        assert vars(cls).get("__slots__") == (), cls.__name__
        assert hasattr(cls, "_fields"), cls.__name__


@pytest.mark.parametrize("value, text", [
    (7, "7"),
    (Fraction(3, 2), "3/2"),
    (Fraction(-5, 2), "-5/2"),
    (Fraction(6, 4), "3/2"),
    (Fraction(8, 4), "2"),
])
def test_fraction_str(value, text):
    assert _fraction_str(value) == text


# run each argv through `main`, one after another, in a fresh interpreter
# started without `site`, so that only the probe and the library import
# anything; print the exit statuses and every module that was loaded
IMPORT_PROBE = """
import contextlib, io, json, sys
import ramcount.cli
statuses = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        statuses.append(ramcount.cli.main(argv))
print(json.dumps([statuses, sorted(sys.modules)]))
"""
# one cheap query per subcommand, the abelian series, which a flag sends
# down a path that loads less than the dihedral one, and the count-minlift
# oracle, which a flag sends down one that loads more
QUERIES = {
    "lj": ("lj", "--p", "2", "--q", "2", "--group", "1", "--terms", "1:1"),
    "disc": ("disc", "--p", "2", "--q", "4", "--group", "1,1",
             "--terms", "3:01|10"),
    "count-abelian": ("count-abelian", "--p", "2", "--q", "2", "--group", "1",
                      "--v", "3"),
    "minlift": ("minlift", "--q", "2", "--a", "1:1", "--c", "3:1"),
    "lift-dist": ("lift-dist", "--q", "2", "--a", "1:1", "--c", "3:1",
                  "--v-max", "6"),
    "urtwist-check": ("urtwist-check", "--q", "2", "--a", "1:1", "--c", "3:1",
                      "--v-max", "6"),
    "count-minlift": ("count-minlift", "--q", "2", "--v", "3"),
    "count-minlift-enumeration": ("count-minlift", "--q", "2", "--v", "3",
                                  "--mode", "enumeration"),
    "count-d4": ("count-d4", "--q", "2", "--v", "3"),
    "local-a": ("local-a", "--q", "2", "--v", "3"),
    "census": ("census", "--q", "2", "--max-degree", "3"),
    "global-series": ("global-series", "--q", "2", "--x-max", "3"),
    "global-series-group": ("global-series", "--q", "2", "--x-max", "3",
                            "--group", "1", "--p", "2"),
    "growth": ("growth", "--q", "2", "--x-max", "4"),
    "counterexample": ("counterexample", "--p", "3", "--q", "3"),
    "verify": ("verify", "--suite", "gf"),
}


def modules_loaded_by_all(*argvs):
    done = subprocess.run(
        [sys.executable, "-S", "-c", IMPORT_PROBE, json.dumps(argvs)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    statuses, modules = json.loads(done.stdout)
    assert statuses == [0] * len(argvs)
    return set(modules)


def modules_loaded_by(*argv):
    return modules_loaded_by_all(*([argv] if argv else []))


def library_modules_loaded_by(*argv):
    return {m.removeprefix("ramcount.") for m in modules_loaded_by(*argv)
            if m.startswith("ramcount.")}


CLOSED_FORMS = {"cli", "counts", "errors"}
# the library modules each query of QUERIES loads
QUERY_MODULES = {
    "lj": CLOSED_FORMS,
    "disc": CLOSED_FORMS | {"asw", "gf", "witt"},
    "count-abelian": CLOSED_FORMS,
    "minlift": CLOSED_FORMS | {"d4", "gf"},
    "lift-dist": CLOSED_FORMS | {"d4", "gf"},
    "urtwist-check": CLOSED_FORMS | {"d4", "gf"},
    "count-minlift": CLOSED_FORMS,
    "count-minlift-enumeration": CLOSED_FORMS | {"d4"},
    "count-d4": CLOSED_FORMS,
    "local-a": CLOSED_FORMS,
    "census": CLOSED_FORMS | {"euler"},
    "global-series": CLOSED_FORMS | {"euler"},
    "global-series-group": CLOSED_FORMS | {"euler"},
    "growth": CLOSED_FORMS | {"euler"},
    "counterexample": CLOSED_FORMS | {"h3"},
    "verify": CLOSED_FORMS | {"asw", "checks", "d4", "euler", "gf", "h3",
                              "witt"},
}


def test_importing_the_cli_loads_only_the_closed_forms():
    assert library_modules_loaded_by() == CLOSED_FORMS


@pytest.mark.parametrize("name", QUERIES)
def test_each_query_loads_only_the_modules_it_computes_with(name):
    assert library_modules_loaded_by(*QUERIES[name]) == QUERY_MODULES[name]


def test_the_import_probe_runs_every_subcommand():
    assert sorted({argv[0] for argv in QUERIES.values()}) \
        == sorted(subcommand_names())


def test_no_subcommand_loads_dataclasses():
    # records are namedtuples; `dataclasses` would pull in `inspect`
    loaded = modules_loaded_by_all(*QUERIES.values())
    assert "ramcount.checks" in loaded
    assert "dataclasses" not in loaded


# the urtwist-check query is on the totally ramified pair (T^-1, T^-3), whose
# report enumerates the lift space, tallying integer jumps
@pytest.mark.parametrize("argv", [
    QUERIES[name] for name in ("lj", "disc", "count-abelian",
                               "global-series-group", "urtwist-check")])
def test_integer_queries_load_neither_fractions_nor_typing(argv):
    # `fractions` is imported where a Fraction is made, and `typing` only
    # under TYPE_CHECKING
    assert not modules_loaded_by(*argv) & {"fractions", "typing"}


# count the runs of gc.freeze, and register a probe before the CLI, so that
# at exit it runs after any hook `main` registers; call `main` the given
# number of times, with argv or with None after setting sys.argv
EXIT_HOOK_PROBE = """
import atexit, contextlib, gc, io, sys
freeze, freezes = gc.freeze, []
gc.freeze = lambda: (freezes.append(None), freeze())
atexit.register(lambda: print(len(freezes), gc.get_freeze_count() > 0))
import ramcount.cli
how, calls, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
sys.argv[1:] = argv
with contextlib.redirect_stdout(io.StringIO()):
    for _ in range(calls):
        status = ramcount.cli.main(argv if how == "list" else None)
sys.exit(status)
"""


@pytest.mark.parametrize("how, calls, argv, status, report", [
    ("argv", 1, QUERIES["lj"], 0, "1 True"),
    ("argv", 2, QUERIES["lj"], 0, "1 True"),  # one hook for two calls
    ("argv", 1, ("lj", "--p", "2"), 2, "1 True"),  # a usage error
    ("argv", 1, ("count-d4", "--q", "6", "--v", "3"), 2, "1 True"),
    ("list", 1, QUERIES["lj"], 0, "0 False"),
    ("list", 2, QUERIES["count-d4"], 0, "0 False"),
])
def test_main_freezes_the_heap_at_exit_only_as_the_process(
        how, calls, argv, status, report):
    done = subprocess.run(
        [sys.executable, "-c", EXIT_HOOK_PROBE, how, str(calls), *argv],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (status, report + "\n"), \
        done.stderr
