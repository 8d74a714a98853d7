"""Runtime verification suites: per-module invariants and acceptance criteria.

`SUITES` is the one table of rows, acceptance last: per suite, (row name,
check) pairs, where a check takes the run's seed and returns (passed,
detail).  `row(name, seed)` runs a check once per process and seed, and a
certificate that fires inside it (`InternalInconsistencyError`) fails that
row alone, with the message as its detail.  Only the sampled rows use the
seed, through a generator seeded by it, so a configuration reproduces its
output.  A criterion that restates a suite row reads the row; the memoised
helpers hold what a criterion shares with a row but no row prints.  The
Witt rings checked in full are checked from their addition and
multiplication tables.
"""

from __future__ import annotations

import functools
import random
from collections import namedtuple
from fractions import Fraction
from itertools import product
from typing import Callable, Iterable

from . import asw, counts, d4, euler, gf, h3
from .counts import GroupShape
from .d4 import SparseTPoly
from .errors import InternalInconsistencyError
from .witt import WittVector, iter_witt_vectors, teichmueller


class CheckResult(namedtuple("CheckResult", "name passed detail")):
    __slots__ = ()


def _ramified_pool(field, exponents) -> list[SparseTPoly]:
    pool = []
    for chosen in product(field.iter_elements(), repeat=len(exponents)):
        terms = {e: c for e, c in zip(exponents, chosen) if c}
        pool.append(SparseTPoly(field, terms))
    return pool


def _pool_with_constants(field, exponents) -> list[SparseTPoly]:
    constants = [SparseTPoly.from_terms(field, {0: c0})
                 for c0 in gf.wp_transversal(field)]
    return [base + k for base in _ramified_pool(field, exponents)
            for k in constants]


# ---------------------------------------------------------------------------
# gf
# ---------------------------------------------------------------------------

_SMALL_FIELDS = [(2, 1), (2, 2), (3, 1), (2, 3), (5, 1), (3, 2), (2, 4), (7, 1),
                 (11, 1), (13, 1)]


def _frobenius_is_ring_hom(seed: int) -> tuple[bool, str]:
    rng = random.Random(seed)
    ok, pairs = True, 0
    for p, n in _SMALL_FIELDS:
        field = gf.make_field(p, n)
        for a in field.iter_elements():
            for b in field.iter_elements():
                pairs += 1
                if ((a * b).frobenius() != a.frobenius() * b.frobenius()
                        or (a + b).frobenius() != a.frobenius() + b.frobenius()):
                    ok = False
    big = gf.make_field(2, 6)
    elems = tuple(big.iter_elements())
    for _ in range(500):
        a, b = rng.choice(elems), rng.choice(elems)
        pairs += 1
        if ((a * b).frobenius() != a.frobenius() * b.frobenius()
                or (a + b).frobenius() != a.frobenius() + b.frobenius()):
            ok = False
    return ok, f"pairs={pairs}"


def _gf_artin_schreier_kernel_and_image(_seed: int) -> tuple[bool, str]:
    ok = True
    for p, n in _SMALL_FIELDS:
        field = gf.make_field(p, n)
        kernel = sum(1 for a in field.iter_elements() if not a.artin_schreier())
        image = len({a.artin_schreier() for a in field.iter_elements()})
        ok = ok and kernel == p and image == field.q // p
    return ok, f"fields={len(_SMALL_FIELDS)}"


def _transversal_is_complete(_seed: int) -> tuple[bool, str]:
    ok = True
    for p, n in _SMALL_FIELDS:
        field = gf.make_field(p, n)
        trans = gf.wp_transversal(field)
        image = {a.artin_schreier() for a in field.iter_elements()}
        cosets = {frozenset(r + b for b in image) for r in trans}
        ok = ok and len(trans) == p and trans[0] == field.zero and len(cosets) == p
    return ok, f"fields={len(_SMALL_FIELDS)}"


# ---------------------------------------------------------------------------
# witt
# ---------------------------------------------------------------------------

def _ring_axioms_hold(triples) -> bool:
    for a, b, c in triples:
        ab, a_b, bc = a * b, a + b, b + c
        if a_b != b + a or ab != b * a:
            return False
        if a_b + c != a + bc or ab * c != a * (b * c):
            return False
        if a * bc != ab + a * c:
            return False
    return True


def _table_axioms_hold(elements) -> bool:
    """The ring axioms on every triple of a ring listed in full, read from its
    addition and multiplication tables; a sum or product outside the list
    fails the check."""
    index = {x: i for i, x in enumerate(elements)}
    add = [[index.get(a + b) for b in elements] for a in elements]
    mul = [[index.get(a * b) for b in elements] for a in elements]
    if any(None in line for line in add + mul):
        return False
    span = range(len(elements))
    return all(add[i][j] == add[j][i] and mul[i][j] == mul[j][i]
               and add[add[i][j]][k] == add[i][add[j][k]]
               and mul[mul[i][j]][k] == mul[i][mul[j][k]]
               and mul[i][add[j][k]] == add[mul[i][j]][mul[i][k]]
               for i in span for j in span for k in span)


def _ring_axioms(seed: int) -> tuple[bool, str]:
    """Every triple of W_2(F_2), W_2(F_4) and W_2(F_3), then sampled triples."""
    rng = random.Random(seed)
    ok, triples = True, 0
    for n, field in [(2, gf.make_field(2, 1)), (2, gf.make_field(2, 2)),
                     (2, gf.make_field(3, 1))]:
        vectors = list(iter_witt_vectors(field, n))
        ok = ok and _table_axioms_hold(vectors)
        triples += len(vectors) ** 3
    sampled = [(2, gf.make_field(2, 3)), (2, gf.make_field(5, 1)),
               (2, gf.make_field(2, 4)), (2, gf.make_field(13, 1)),
               (3, gf.make_field(2, 1)), (3, gf.make_field(3, 1))]
    for n, field in sampled:
        vectors = list(iter_witt_vectors(field, n))
        batch = [(rng.choice(vectors), rng.choice(vectors), rng.choice(vectors))
                 for _ in range(120)]
        ok = ok and _ring_axioms_hold(batch)
        triples += len(batch)
    return ok, f"triples={triples}"


def _witt_artin_schreier_kernel(_seed: int) -> tuple[bool, str]:
    ok, rings = True, 0
    for p, deg in _SMALL_FIELDS:
        field = gf.make_field(p, deg)
        for n in (1, 2):
            rings += 1
            kernel = sum(1 for v in iter_witt_vectors(field, n)
                         if not v.artin_schreier())
            ok = ok and kernel == p ** n
            prime_ring_killed = all(
                not WittVector.from_int(field, n, k).artin_schreier()
                for k in range(p ** n))
            ok = ok and prime_ring_killed
    return ok, f"rings={rings}"


def _mul_by_p_is_repeated_addition(_seed: int) -> tuple[bool, str]:
    ok = all(v.mul_by_p() == v + v
             for v in iter_witt_vectors(gf.make_field(2, 2), 2))
    ok = ok and all(v.mul_by_p() == v + v + v
                    for v in iter_witt_vectors(gf.make_field(3, 1), 2))
    return ok, "rings=2 exhaustive"


def _teichmueller_multiplicative(_seed: int) -> tuple[bool, str]:
    ok = True
    for key in ((2, 1), (2, 2), (2, 4), (3, 1)):
        field = gf.make_field(*key)
        for x in field.iter_elements():
            for y in field.iter_elements():
                if teichmueller(x, 2) * teichmueller(y, 2) != teichmueller(x * y, 2):
                    ok = False
    return ok, "fields=4"


def _frobenius_commutes_with_addition(_seed: int) -> tuple[bool, str]:
    # read from the table of Frobenius images; a sum outside the ring fails
    images = {v: v.frobenius() for v in iter_witt_vectors(gf.make_field(2, 2), 2)}
    ok = all(images.get(a + b) == images[a] + images[b]
             for a in images for b in images)
    return ok, "W_2(GF(4)) exhaustive"


# ---------------------------------------------------------------------------
# asw
# ---------------------------------------------------------------------------

def _elementary_jumps(seed: int) -> tuple[bool, str]:
    rng = random.Random(seed)
    ok, count = True, 0
    for p, deg in [(2, 1), (2, 2), (3, 1)]:
        field = gf.make_field(p, deg)
        shape = GroupShape(p, (1, 1))
        indices = [n for n in range(1, 6) if n % p]
        coeffs = list(asw.iter_module_elements(shape, field))
        for _ in range(150):
            support = rng.sample(indices, k=rng.randint(0, min(3, len(indices))))
            m = asw.ReducedCocycle(shape, field,
                                   {n: rng.choice(coeffs) for n in support})
            jump = asw.last_jump(m)
            count += 1
            ok = ok and (jump == 0 or jump % p != 0)
    return ok, f"samples={count}"


@functools.cache
def _z4_data() -> tuple[asw.ReducedCocycle, ...]:
    """The Z/4 data over F_2 with support in {0, 1, 3}, shared by two rows."""
    field = gf.make_field(2, 1)
    shape = GroupShape(2, (2,))
    coeffs = list(asw.iter_module_elements(shape, field))
    return tuple(asw.ReducedCocycle(shape, field, {0: c0, 1: c1, 3: c3})
                 for c0, c1, c3 in product(coeffs, repeat=3))


def _ultrametric_inequality(_seed: int) -> tuple[bool, str]:
    data = _z4_data()
    jumps = [asw.last_jump(m) for m in data]
    ok = True
    for m1, j1 in zip(data, jumps):
        for m2, j2 in zip(data, jumps):
            s = asw.last_jump(asw.cocycle_add(m1, m2))
            if s > max(j1, j2) or (j1 != j2 and s != max(j1, j2)):
                ok = False
    return ok, f"pairs={len(data) ** 2}"


def _quotient_jumps_are_monotone(_seed: int) -> tuple[bool, str]:
    # the quotients of Z/4 by 0, 2Z/4 and Z/4 have 4, 2 and 1 characters: the
    # jump of each is the least u with |G| / |K_u| <= 1, 2, 4 (None if none)
    ok, count = True, 0
    for m in _z4_data():
        steps = asw.ramification_steps(m)
        jumps = [next((u for u, size in steps if size <= b), None) for b in (1, 2, 4)]
        count += len(jumps)
        ok = ok and (None not in jumps and jumps[0] == asw.last_jump(m)
                     and jumps == sorted(jumps, reverse=True) and jumps[-1] == 0)
    return ok, f"quotients={count}"


def _homs_are_order_times_types(_seed: int) -> tuple[bool, str]:
    ok = True
    cases = [(GroupShape(2, (1,)), 2, 3), (GroupShape(2, (2,)), 2, 2),
             (GroupShape(2, (1, 1)), 4, 1), (GroupShape(3, (1,)), 3, 2)]
    for shape, q, v in cases:
        hom = counts.count_by_last_jump(shape, q, v, "homomorphisms")
        iner = asw.count_by_last_jump_enumerated(shape, q, v, "inertial_types")
        ok = ok and hom == shape.order * iner
    return ok, f"cases={len(cases)}"


def _rank_one_counts(_seed: int) -> tuple[bool, str]:
    ok = True
    shape = GroupShape(2, (1,))
    for q in (2, 4):
        for v in range(8):
            got = {counts.count_by_last_jump(shape, q, v, "inertial_types"),
                   asw.count_by_last_jump_enumerated(shape, q, v, "inertial_types")}
            if v == 0:
                expected = 1
            elif v % 2:
                expected = q ** ((v - 1) // 2) * (q - 1)
            else:
                expected = 0
            ok = ok and got == {expected}
    return ok, "q in {2,4}, v <= 7"


def _cyclic_discriminants(_seed: int) -> tuple[bool, str]:
    # a unit at index n over Z/p^e: its p^k - p^(k-1) characters of order p^k
    # have jump n p^(k-1)
    ok, evals = True, 0
    for p in (2, 3, 5):
        field = gf.make_field(p, 1)
        for n in [n for n in range(1, 8) if n % p]:
            for e in (1, 2):
                unit = WittVector(field, (field.one,) + (field.zero,) * (e - 1))
                m = asw.ReducedCocycle(GroupShape(p, (e,)), field, {n: (unit,)})
                expected = sum((p ** k - p ** (k - 1)) * (n * p ** (k - 1) + 1)
                               for k in range(1, e + 1))
                evals += 1
                ok = ok and asw.discriminant_exponent(m) == expected
    return ok, f"evaluations={evals}"


# ---------------------------------------------------------------------------
# d4
# ---------------------------------------------------------------------------

def _twist_corpus(field, size) -> list[tuple[SparseTPoly, SparseTPoly]]:
    pool = _ramified_pool(field, (1, 3, 5))
    corpus = []
    for a in pool:
        for c in pool:
            if d4.is_totally_ramified(a, c):
                corpus.append((a, c))
                if len(corpus) == size:
                    return corpus
    return corpus


def _min_lift_dominates_reduction_jump(_seed: int) -> tuple[bool, str]:
    ok, pairs = True, 0
    for q in (2, 4):
        pool = _ramified_pool(gf.field_for_order(q), (1, 3, 5))
        for a in pool:
            for c in pool:
                pairs += 1
                if d4.min_lift_jump(a, c) < asw.last_jump(d4.pair_to_cocycle(a, c)):
                    ok = False
    return ok, f"pairs={pairs}"


def _fibers(pool, bound):
    """(a, c, enumerated lift distribution up to bound) for each totally
    ramified pair of the pool with w(a) + w(c) <= bound."""
    pool = [(a, a.pole_order()) for a in pool]
    for a, wa in pool:
        for c, wc in pool:
            if wa + wc <= bound and d4.is_totally_ramified(a, c):
                yield a, c, d4.enumerated_lift_distribution(a, c, bound)


@functools.cache
def _bruteforce_minimum_matches(q: int, bound: int) -> tuple[bool, int]:
    """(all agree, fibers) over the totally ramified pairs, w(a) + w(c) <= bound,
    where an empty enumerated lift distribution disagrees."""
    pool = _pool_with_constants(gf.field_for_order(q), (1, 3, 5))
    ok, fibers = True, 0
    for a, c, tally in _fibers(pool, bound):
        fibers += 1
        if min(tally, default=None) != d4.min_lift_jump(a, c):
            ok = False
    return ok, fibers


def _bruteforce_minimum(_seed: int) -> tuple[bool, str]:
    (ok2, fibers2), (ok4, fibers4) = (_bruteforce_minimum_matches(2, 6),
                                      _bruteforce_minimum_matches(4, 4))
    return ok2 and ok4, f"fibers={fibers2 + fibers4}"


def _even_jumps_are_minimal(_seed: int) -> tuple[bool, str]:
    pool = _ramified_pool(gf.make_field(2, 1), (1, 3, 5))
    ok, lifts = True, 0
    for _a, _c, tally in _fibers(pool, 6):
        fiber_min = min(tally, default=None)
        ok = ok and fiber_min is not None
        for jump, n in tally.items():
            lifts += n
            if jump > 0 and jump % 2 == 0 and jump != fiber_min:
                ok = False
    return ok, f"lifts={lifts}"


def _central_twists_move_jump_to_max(_seed: int) -> tuple[bool, str]:
    field2 = gf.make_field(2, 1)
    ok, checked = True, 0
    twists = _pool_with_constants(field2, (1, 3, 5))
    for a, c in [(SparseTPoly.monomial(field2, 1), SparseTPoly.monomial(field2, 3)),
                 (SparseTPoly.monomial(field2, 1),
                  SparseTPoly.from_terms(field2, {1: field2.one, 3: field2.one})),
                 (SparseTPoly.monomial(field2, 3), SparseTPoly.monomial(field2, 5))]:
        m = d4.min_lift_jump(a, c)
        minimal_b = next((b for b in _ramified_pool(field2, range(1, m + 1, 2))
                          if d4.d4_last_jump(a, c, b) == m), None)
        if minimal_b is None:  # no lift reaches the minimal lift jump
            ok = False
            continue
        for e in twists:
            if e.pole_order() > 5:
                continue
            checked += 1
            expected = max(m, e.pole_order())
            if d4.d4_last_jump(a, c, minimal_b + e) != expected:
                ok = False
    return ok, f"twists={checked}"


def _min_lift_closed_form(_seed: int) -> tuple[bool, str]:
    ok = all(counts.count_min_lift(q, v) == d4.count_min_lift_enumerated(q, v)
             for q in (2, 4) for v in range(6))
    return ok, "q in {2,4}, v <= 5"


def _twist_invariance_on_corpus(_seed: int) -> tuple[bool, str]:
    ok, reports = True, 0
    for q, v_max in ((2, 6), (4, 4)):
        for a, c in _twist_corpus(gf.field_for_order(q), 24):
            reports += 1
            if not d4.unramified_twist_report(a, c, v_max).all_equal:
                ok = False
    return ok, f"reports={reports}"


# ---------------------------------------------------------------------------
# h3
# ---------------------------------------------------------------------------

@functools.cache
def _line_inertia_bruteforce() -> tuple[int, int]:
    return (h3.count_line_inertia_bruteforce(3, 3, 1),
            h3.count_line_inertia_bruteforce(3, 3, 2))


def _line_inertia_matches(_seed: int) -> tuple[bool, str]:
    ok = _line_inertia_bruteforce() == (h3.count_line_inertia(3, 3, 1),
                                        h3.count_line_inertia(3, 3, 2))
    return ok, "(p,q,r) in {(3,3,1),(3,3,2)}"


def _discrepancy_ratio_exceeds_one(_seed: int) -> tuple[bool, str]:
    # each report certifies both counts against their closed forms
    ok = all(h3.counterexample_report(p, p).discrepancy_ratio > 1
             for p in (3, 5, 7, 11, 13))
    return ok, "p up to 13"


# ---------------------------------------------------------------------------
# euler
# ---------------------------------------------------------------------------

def _census_zeta_identity(_seed: int) -> tuple[bool, str]:
    # `place_census` certifies sum_{d | m} d pi(d) = q^m + 1 for every m
    for q in (2, 3, 4, 5, 9):
        euler.place_census(q, 10)
    return True, "q in {2,3,4,5,9}"


@functools.cache
def _d4_series_matches_oracle(q: int, x_max: int) -> bool:
    series = euler.d4_global_series(q, x_max)
    return all(series[x] == euler.convolution_oracle(q, x, counts._d4_exact)
               for x in range(x_max + 1))


def _series_matches_oracle(_seed: int) -> tuple[bool, str]:
    ok = _d4_series_matches_oracle(2, 6) and _d4_series_matches_oracle(4, 4)
    z2 = GroupShape(2, (1,))
    series = euler.abelian_global_series(z2, 2, 8)

    @functools.cache
    def z2_coefficient(residue_order, v):
        return asw.count_by_last_jump_enumerated(
            z2, residue_order, v, "inertial_types")

    for x in range(9):
        if series[x] != euler.convolution_oracle(2, x, z2_coefficient):
            ok = False
    return ok, "dihedral X<=6 (q in {2,4}), rank-1 X<=8"


def _coefficients_monotone(_seed: int) -> tuple[bool, str]:
    s2 = euler.d4_global_series(2, 8)
    s4 = euler.d4_global_series(4, 8)
    # `global_series` certifies that no coefficient is negative; both series
    # start at 1, and every later coefficient grows strictly with q
    ok = all(a < b for a, b in zip(s2[1:], s4[1:]))
    return ok, "X <= 8"


# ---------------------------------------------------------------------------
# acceptance criteria
# ---------------------------------------------------------------------------

def _acc_local_distribution(seed: int) -> tuple[bool, str]:
    # a reduction whose minimal lift has jump w <= v has 2 q^ceil(v/2) lifts
    # of jump <= v, so the eighth-counts are q^ceil(v/2) times the enumerated
    # quarter-counts of reductions, summed over w <= v
    ok = row("d4.min_lift_count_closed_form_equals_enumeration", seed).passed
    for q in (2, 4):
        reductions = below = 0
        for v in range(9):
            reductions += d4.count_min_lift_enumerated(q, v)
            at_most = q ** ((v + 1) // 2) * reductions
            ok = (ok and counts.count_d4_le(q, v) == at_most
                  and counts.count_d4_exact(q, v) == at_most - below)
            below = at_most
    return ok, "q in {2,4}, v <= 8, exact"


def _acc_min_lift_oracle(_seed: int) -> tuple[bool, str]:
    ok, fibers = _bruteforce_minimum_matches(2, 6)
    return ok, f"q=2, totally ramified fibers={fibers}, exact"


def _acc_twist_invariance(_seed: int) -> tuple[bool, str]:
    ok, reports = True, 0
    for q in (2, 4):
        pool = _ramified_pool(gf.field_for_order(q), (1, 3))
        for a in pool:
            for c in pool:
                reports += 1
                if not d4.unramified_twist_report(a, c, 6).all_equal:
                    ok = False
    return ok, f"exhaustive pairs with w<=3, q in {{2,4}}, reports={reports}"


def _acc_heisenberg_numbers(_seed: int) -> tuple[bool, str]:
    report = h3.counterexample_report(3, 3)
    ok = (report.local_count == 3510 and report.global_count == 9126
          and _line_inertia_bruteforce() == (78, 234))
    return ok, (f"local={report.local_count} global={report.global_count} "
                f"bruteforce=78,234")


def _acc_pipeline_consistency(_seed: int) -> tuple[bool, str]:
    return _d4_series_matches_oracle(2, 6), "q=2, X <= 6, exact"


def _four_places(x: Fraction) -> str:
    """x >= 0 rounded exactly to four decimal places, ties to even."""
    whole, part = divmod(round(x * 10_000), 10_000)
    return f"{whole}.{part:04d}"


def _acc_growth(_seed: int) -> tuple[bool, str]:
    q = 2
    table = euler.growth_table(q, 16)
    observed = ", ".join(f"X={r.x}: {_four_places(r.relative_change)}"
                         for r in table if r.x >= 8)
    # N(1) is 8 times one local count of jump 1 at each of the q + 1 places
    # of degree 1; the ratios alone do not see a constant factor
    ok = (euler.growth_stabilises(table)
          and table[0].count == 8 * (q + 1) * counts.count_d4_exact(q, 1))
    return ok, f"observed relative changes [{observed}]"


def _acc_invariant_suites(seed: int) -> tuple[bool, str]:
    inner = [row(name, seed) for suite in ("witt", "asw")
             for name, _ in SUITES[suite]]
    failing = [r.name for r in inner if not r.passed]
    detail = "witt+asw suites"
    if failing:
        detail += f"; failing: {failing}"
    return not failing, detail


def _acc_discriminant_gate(seed: int) -> tuple[bool, str]:
    # `smallest_wild_discriminant` certifies its value, 2 p^2 (p - 1), its
    # minimality and the abelian cross-check, and raises if one fails
    ok = row("asw.cyclic_discriminants_match_break_formula", seed).passed
    for p in (2, 3, 5):
        h3.smallest_wild_discriminant(p)
    return ok, "p in {2,3,5}, L <= 7, and the degree-p configuration"


SUITES: dict[str, tuple[tuple[str, Callable[[int], tuple[bool, str]]], ...]] = {
    "gf": (
        ("gf.frobenius_is_ring_hom", _frobenius_is_ring_hom),
        ("gf.artin_schreier_kernel_and_image", _gf_artin_schreier_kernel_and_image),
        ("gf.transversal_is_complete_and_contains_zero", _transversal_is_complete),
    ),
    "witt": (
        ("witt.ring_axioms", _ring_axioms),
        ("witt.artin_schreier_kernel_is_prime_subring", _witt_artin_schreier_kernel),
        ("witt.mul_by_p_matches_repeated_addition", _mul_by_p_is_repeated_addition),
        ("witt.teichmueller_multiplicative", _teichmueller_multiplicative),
        ("witt.frobenius_commutes_with_addition", _frobenius_commutes_with_addition),
    ),
    "asw": (
        ("asw.elementary_jumps_avoid_multiples_of_p", _elementary_jumps),
        ("asw.ultrametric_inequality", _ultrametric_inequality),
        ("asw.quotient_jumps_are_monotone", _quotient_jumps_are_monotone),
        ("asw.homomorphism_count_is_order_times_types", _homs_are_order_times_types),
        ("asw.rank_one_counts_match_closed_form", _rank_one_counts),
        ("asw.cyclic_discriminants_match_break_formula", _cyclic_discriminants),
    ),
    "d4": (
        ("d4.min_lift_dominates_reduction_jump", _min_lift_dominates_reduction_jump),
        ("d4.bruteforce_minimum_matches_formula", _bruteforce_minimum),
        ("d4.even_jumps_are_minimal", _even_jumps_are_minimal),
        ("d4.central_twists_move_jump_to_max", _central_twists_move_jump_to_max),
        ("d4.min_lift_count_closed_form_equals_enumeration", _min_lift_closed_form),
        ("d4.twist_invariance_on_regression_corpus", _twist_invariance_on_corpus),
    ),
    "h3": (
        ("h3.line_inertia_bruteforce_matches_closed_form", _line_inertia_matches),
        ("h3.discrepancy_ratio_exceeds_one", _discrepancy_ratio_exceeds_one),
    ),
    "euler": (
        ("euler.census_zeta_identity", _census_zeta_identity),
        ("euler.series_matches_convolution_oracle", _series_matches_oracle),
        ("euler.coefficients_nonnegative_and_monotone_in_q", _coefficients_monotone),
    ),
    "acceptance": (
        ("acceptance.1.local_distribution_closed_forms", _acc_local_distribution),
        ("acceptance.2.min_lift_bruteforce_oracle", _acc_min_lift_oracle),
        ("acceptance.3.unramified_twist_invariance", _acc_twist_invariance),
        ("acceptance.4.heisenberg_counterexample_numbers", _acc_heisenberg_numbers),
        ("acceptance.5.euler_product_matches_oracle", _acc_pipeline_consistency),
        ("acceptance.6.growth_ratio_stabilises", _acc_growth),
        ("acceptance.7.invariant_suites", _acc_invariant_suites),
        ("acceptance.8.discriminant_gate", _acc_discriminant_gate),
    ),
}


@functools.cache
def row(name: str, seed: int) -> CheckResult:
    """The row of the check called `name` at `seed`.  A certificate that
    fires inside the check fails this row, with its message as the detail."""
    check = next(c for rows in SUITES.values() for n, c in rows if n == name)
    try:
        passed, detail = check(seed)
    except InternalInconsistencyError as exc:
        passed, detail = False, str(exc)
    return CheckResult(name, bool(passed), detail)


def run_suites(names: Iterable[str], seed: int = 0) -> list[CheckResult]:
    """The rows of each named suite, in table order."""
    return [row(name, seed) for suite in names for name, _ in SUITES[suite]]
