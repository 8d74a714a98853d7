"""Planted faults: one per `verify` row, each of which must make its row
read "fail", and faults keyed by module that no row sees, each of which
must fail the Tier-1 tests it names.

    python tests/mutants.py

Each entry of MUTANTS is (row, file, old, new, reason), and each entry of
MODULE_MUTANTS is (module, file, old, new, reason, tests): the text `old`,
which must occur exactly once in `src/ramcount/<file>`, is replaced by
`new` in a copy of `src` in a temporary directory.  For a row, `ramcount
verify --seed 0` runs on the copy; for a module, pytest runs the named
tests on it.  The run exits 1 when a named row does not read "fail" or a
named test passes, and before any mutant runs it checks that the table
names every row of `checks.SUITES` exactly once.  pytest does not collect
this file, but `tests/test_acceptance.py` runs `check_table`; the mutants
take about 0.6 s each.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MUTANTS = (
    # gf
    ("gf.frobenius_is_ring_hom", "gf.py",
     "return self ** self.field.p", "return self * self",
     "Frobenius squares, which is additive only in characteristic 2"),
    ("gf.artin_schreier_kernel_and_image", "gf.py",
     "return self.frobenius() - self", "return self.frobenius() + self",
     "x^p + x, whose kernel is not F_p in odd characteristic"),
    ("gf.transversal_is_complete_and_contains_zero", "gf.py",
     "j = max(i for i, s in enumerate(_power_sums(field.modulus, p)) if s)",
     "j = 0",
     "the constants, which have trace 0 in GF(p^n) when p divides n"),
    # witt
    ("witt.ring_axioms", "witt.py",
     "return _mul_mod(a, b, self._xpow, self.mod)",
     "return _mul_mod(a, b, self._xpow, self.field.p)",
     "a product reduced mod p, not mod p^L"),
    ("witt.artin_schreier_kernel_is_prime_subring", "witt.py",
     "c.frobenius() for c in self.components(x)",
     "c for c in self.components(x)",
     "Frobenius keeps the components, not their p-th powers"),
    ("witt.mul_by_p_matches_repeated_addition", "witt.py",
     "tuple(a * k % mod for a in self.coeffs)",
     "tuple(a * min(k, 2) % mod for a in self.coeffs)",
     "an integer multiple ignores k >= 3"),
    ("witt.teichmueller_multiplicative", "witt.py",
     "return _vector(ring, ring.lift(x))", "return _vector(ring, x.coeffs)",
     "the plain integer lift of x's coefficients for tau(x)"),
    ("witt.frobenius_commutes_with_addition", "witt.py",
     "tuple(c.frobenius() for c in self.components(x))",
     "tuple(c.frobenius() if i == 0 else c"
     " for i, c in enumerate(self.components(x)))",
     "Frobenius raises the first component alone to the p-th power"),
    # asw
    ("asw.elementary_jumps_avoid_multiples_of_p", "asw.py",
     "jump = n * (_additive_order(value) // p)",
     "jump = n * _additive_order(value)",
     "the jump at index n is n times the order, not n p^(e-1)"),
    ("asw.ultrametric_inequality", "asw.py",
     "support[n] = value if s is None else tuple(\n"
     "            a + b for a, b in zip(s, value))",
     "support[n] = value if s is None else s",
     "a sum keeps m1's coefficient at a shared index"),
    ("asw.quotient_jumps_are_monotone", "asw.py",
     "p ** mu(u + 1, n, p)", "p ** mu(u, n, p)",
     "K_u read as K_(u - 1): p^t counts n p^k < u, not <= u"),
    ("asw.homomorphism_count_is_order_times_types", "counts.py",
     'unram = sum(shape.exponents) if mode == "homomorphisms" else 0',
     'unram = sum(shape.exponents) + 1 if mode == "homomorphisms" else 0',
     "p times the unramified twists of the index-0 coefficient"),
    ("asw.rank_one_counts_match_closed_form", "counts.py",
     "t // p ** e if e < bits", "(t - 1) // p ** e if e < bits",
     "the torsion exponent drops the multiples of p^(n_i) below t, not up to t"),
    ("asw.cyclic_discriminants_match_break_formula", "asw.py",
     "(size, hi - lo)", "(size, hi - lo + 1)",
     "each interval of the filtration one unit too long"),
    # d4
    ("d4.min_lift_dominates_reduction_jump", "d4.py",
     "entries[n] = (", "entries[3 * n] = (",
     "the abelian datum of (a, c) puts index n at 3n"),
    ("d4.bruteforce_minimum_matches_formula", "d4.py",
     "jump = main if main > floor else floor", "jump = main",
     "the lift tally drops the floor w(a) + w(c)"),
    ("d4.even_jumps_are_minimal", "d4.py",
     "main = 2 * (((deriv ^ packed).bit_length() - 1) // n) + 1",
     "main = 2 * (((deriv ^ packed).bit_length() - 1) // n) + 2",
     "the lift tally's top exponent is even"),
    ("d4.central_twists_move_jump_to_max", "d4.py",
     "return max(main, a.pole_order() + c.pole_order())",
     "return min(main, a.pole_order() + c.pole_order())",
     "the jump formula takes the min"),
    ("d4.min_lift_count_closed_form_equals_enumeration", "d4.py",
     "return sum(hist[w] * hist[v - w] for w in range(v + 1))",
     "return sum(hist[w] * hist[v - w] for w in range(v))",
     "the min-lift oracle drops the split w = v"),
    ("d4.twist_invariance_on_regression_corpus", "d4.py",
     "_lift_pool_exponent(a.field, v) if v >= m else 0",
     "_lift_pool_exponent(a.field, v) if v > m else 0",
     "the closed lift distribution has no mass at the minimal lift jump"),
    # h3
    ("h3.line_inertia_bruteforce_matches_closed_form", "h3.py",
     "return p ** r * (q ** p - 1)", "return p ** r * (q ** p - 2)",
     "the line-inertia closed form q^p - 2"),
    ("h3.discrepancy_ratio_exceeds_one", "h3.py",
     'return _heisenberg_count(p, q, p, p ** 2 + p + 1, "global")',
     'return _heisenberg_count(p, q, 1, p ** 2 + p + 1, "global")',
     "one global central twist per reduction, not p"),
    # euler
    ("euler.census_zeta_identity", "euler.py",
     "pi += 1  # the infinite place has degree 1", "pass",
     "the census forgets the place at infinity"),
    ("euler.series_matches_convolution_oracle", "euler.py",
     "c[d * k] += d * pi * lam[k]", "c[d * k] += pi * lam[k]",
     "the log of a degree-d place's factor without its factor d"),
    ("euler.coefficients_nonnegative_and_monotone_in_q", "euler.py",
     "return global_series(q, truncation, _d4_exact)",
     "return global_series(2, truncation, _d4_exact)",
     "the dihedral series over F_2 for every q"),
    # acceptance
    ("acceptance.1.local_distribution_closed_forms", "counts.py",
     "q ** m * (m * (q - 1) - 1)", "q ** m * (m * (q - 1) + 1)",
     "the dihedral count's bracket adds the empty reduction, not drops it"),
    ("acceptance.2.min_lift_bruteforce_oracle", "d4.py",
     "    return a.pole_order() + c.pole_order()",
     "    return max(a.pole_order(), c.pole_order())",
     "the closed-form minimal lift jump max(w(a), w(c)), not w(a) + w(c)"),
    ("acceptance.3.unramified_twist_invariance", "d4.py",
     "per_derivative = field.p", "per_derivative = field.q",
     "each derivative stands for q lifts, not p"),
    ("acceptance.4.heisenberg_counterexample_numbers", "h3.py",
     "return shape.order * count", "return count",
     "the brute force forgets the classes of the index-0 coefficient"),
    ("acceptance.5.euler_product_matches_oracle", "euler.py",
     "c[d * k] += d * pi * lam[k]", "c[d * k] += pi * lam[k]",
     "the log of a degree-d place's factor without its factor d"),
    ("acceptance.6.growth_ratio_stabilises", "counts.py",
     "return q ** k * (2 * q ** k", "return q ** m * (2 * q ** k",
     "the dihedral count's lift factor q^floor(v/2), not q^ceil(v/2)"),
    ("acceptance.7.invariant_suites", "asw.py",
     "o = mod // gcd(mod, *part.coeffs)", "o = mod // gcd(mod, part.coeffs[0])",
     "a coefficient's order read off its constant coefficient alone"),
    ("acceptance.8.discriminant_gate", "asw.py",
     "total += width * (group_order - index)",
     "total += width * (group_order - index + 1)",
     "the ramification integral one too large per unit interval"),
)


# faults that `verify` cannot see: a constant twist changes no jump, so a
# twist that does nothing leaves every row and golden as it was; and at the
# ranks `verify` runs, the Heisenberg brute force's quotient by the axis is
# unchanged when it reads only x_1
MODULE_MUTANTS = (
    ("d4", "d4.py",
     "for e, c in other.terms.items():\n            _accumulate(terms, e, c)",
     "for e, c in other.terms.items():\n            if e:\n"
     "                _accumulate(terms, e, c)",
     "a sum drops the right operand's constant, so a constant twist does nothing",
     ("tests/test_d4.py::test_a_constant_twist_is_adding_a_constant_polynomial",
      "tests/test_d4.py::test_sums_and_products_store_no_zero_coefficient")),
    ("h3", "h3.py",
     "{1: m1[1:]}", "{1: m1[1:2] * (r - 1)}",
     "the quotient by the axis reads x_1 in every coordinate",
     ("tests/test_h3.py::test_line_inertia_bruteforce_matches_closed_form",)),
    ("counts", "counts.py",
     "    _refuse_to_print(1, (v + 1) * q.bit_length() + v.bit_length() + 2,\n"
     "                     \"the count\")\n", "",
     "the dihedral counts print an answer of any size, which verify never asks",
     ("tests/test_d4.py::"
      "test_dihedral_closed_forms_are_sized_before_they_are_computed",)),
)


def check_table() -> None:
    """Every row named once, and every `old` found exactly once."""
    sys.path.insert(0, str(SRC))
    from ramcount import checks
    rows = [name for suite in checks.SUITES.values() for name, _ in suite]
    named = [row for row, *_ in MUTANTS]
    if sorted(named) != sorted(rows):
        raise SystemExit(f"the table's rows {sorted(set(named) ^ set(rows))} "
                         "do not match checks.SUITES once each")
    for key, file, old, *_ in MUTANTS + MODULE_MUTANTS:
        found = (SRC / "ramcount" / file).read_text().count(old)
        if found != 1:
            raise SystemExit(f"{key}: {old!r} occurs {found} times in {file}")


@contextlib.contextmanager
def mutated_env(file: str, old: str, new: str):
    """The environment that imports a copy of `src` with the fault planted."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        target = src / "ramcount" / file
        target.write_text(target.read_text().replace(old, new))
        yield {**os.environ, "PYTHONPATH": str(src),
               "PYTHONDONTWRITEBYTECODE": "1"}


def row_status(file: str, old: str, new: str, row: str) -> str:
    """The status `row` prints under the mutant, or what went wrong."""
    with mutated_env(file, old, new) as env:
        done = subprocess.run(
            [sys.executable, "-m", "ramcount.cli", "verify", "--seed", "0"],
            env=env, capture_output=True, text=True, timeout=300)
    try:
        rows = json.loads(done.stdout)["result"]["rows"]
    except (ValueError, KeyError):
        return f"no report (exit {done.returncode}): {done.stderr.strip()[-200:]}"
    return next((r["status"] for r in rows if r["check"] == row), "missing")


def passing_tests(file: str, old: str, new: str, tests: tuple[str, ...]) -> list[str]:
    """The named tests that do not fail under the mutant."""
    with mutated_env(file, old, new) as env:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
             *tests], cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=300)
    failed = {line.split()[1] for line in done.stdout.splitlines()
              if line.startswith("FAILED ")}
    return [test for test in tests if test not in failed]


def main() -> int:
    check_table()
    survivors = 0
    for row, file, old, new, reason in MUTANTS:
        status = row_status(file, old, new, row)
        if status != "fail":
            survivors += 1
        print(f"{'ok' if status == 'fail' else 'SURVIVED':8} {row}: {reason}"
              + ("" if status == "fail" else f" [{status}]"), flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} rows fail their mutant")
    for module, file, old, new, reason, tests in MODULE_MUTANTS:
        passing = passing_tests(file, old, new, tests)
        survivors += bool(passing)
        print(f"{'SURVIVED' if passing else 'ok':8} module {module}: {reason}"
              + (f" [not failing: {passing}]" if passing else ""), flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
