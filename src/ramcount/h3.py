"""Rank-3 Heisenberg extensions ramified at a single degree-p place, p odd.

For the order-p^3 group of unipotent upper-triangular 3x3 matrices over
F_p, the number of homomorphisms whose local behaviour at a fixed degree-p
place realises the smallest possible wild discriminant exponent differs
between the local field and the global field.  Both counts are assembled
here case by case: inertia inside the centre first, then inertia over each
of the p+1 lines of the Klein-type quotient.  Every case factor reduces to
counts of elementary abelian data with last jump 1 and prescribed inertia,
which has both a closed form and a brute-force evaluation through the
abelian machinery, reading inertia as the smallest subgroup with
unramified quotient.  Only that brute force and the discriminant gate build
a field or a datum, so only they import `asw`, `gf` and `witt`.

The per-case assembly must reproduce the closed-form totals exactly; a
mismatch raises instead of being patched over.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations_with_replacement

from .counts import GroupShape, _refuse_over_budget, _refuse_to_print, prime_power
from .errors import InternalInconsistencyError, OddPrimeRequiredError


def _check_setting(p: int, q: int, r: int) -> None:
    if p == 2:
        raise OddPrimeRequiredError("the construction needs an odd prime")
    prime_power(q, p)  # q is a power of p
    if r < 1:
        raise ValueError("rank must be positive")


def count_line_inertia(p: int, q: int, r: int) -> int:
    """Homomorphisms to F_p^r over the degree-p place with inertia exactly a
    fixed order-p subgroup and last jump 1: p^r (q^p - 1), the residue field
    of the place having q^p elements.  Its oracle is
    `count_line_inertia_bruteforce`."""
    _check_setting(p, q, r)
    return p ** r * (q ** p - 1)


def count_line_inertia_bruteforce(p: int, q: int, r: int) -> int:
    """`count_line_inertia` by enumerating the index-1 coefficients over the
    residue field, filtering on jump and inertia, and multiplying by the p^r
    classes of the index-0 coefficient, which enters neither.  Inertia is
    the smallest subgroup with unramified quotient, and the fixed one, the
    first coordinate axis, has prime order: a datum of jump 1 has inertia
    the axis exactly when its image in G / axis, the datum of the other
    r - 1 coordinates, is unramified."""
    from . import asw
    from .gf import field_for_order
    _check_setting(p, q, r)
    _refuse_over_budget(q, exponent=p * r)  # (q^p)^r coefficients
    residue_order = q ** p
    shape = GroupShape(p, (1,) * r)
    quotient = GroupShape(p, (1,) * (r - 1))
    residue = field_for_order(residue_order, p=p)
    count = 0
    for m1 in asw.iter_module_elements(shape, residue):
        if (asw.last_jump(asw.ReducedCocycle(shape, residue, {1: m1})) == 1
                and asw.last_jump(asw.ReducedCocycle(
                    quotient, residue, {1: m1[1:]})) == 0):
            count += 1
    return shape.order * count


class CaseCount(namedtuple("CaseCount", "total breakdown")):
    """breakdown: ((case name, count), ...)."""

    __slots__ = ()


def _heisenberg_count(p: int, q: int, twists: int, factor: int,
                      scope: str) -> CaseCount:
    """Centre-valued inertia: p^2 unramified reductions, each with
    p (q^p - 1) central characters of jump 1.  Inertia over a line: p
    order-p subgroups above each of the p+1 lines, each with the rank-2
    count with that inertia, times `twists` central twists per reduction.
    The total must equal the caller's closed form p^3 * factor * (q^p - 1);
    its p + 3 integers, each below p^5 q^p, are sized before any is taken.
    """
    _check_setting(p, q, 1)
    _refuse_to_print(p + 3, p * q.bit_length() + 5 * p.bit_length(),
                     f"the {scope} count")
    rank1 = count_line_inertia(p, q, 1)
    rank2 = count_line_inertia(p, q, 2)
    # the p+1 lines of F_p^2 in a fixed order: [1:0], then [s:1]
    lines = ["line(1:0)"] + [f"line({s}:1)" for s in range(p)]
    cases = [("center_inertia", p ** 2 * rank1)]
    cases.extend((line, p * rank2 * twists) for line in lines)
    total = sum(v for _, v in cases)
    closed = p ** 3 * factor * (q ** p - 1)
    if total != closed:
        raise InternalInconsistencyError(
            f"{scope} cases sum to {total}, closed form gives {closed}")
    return CaseCount(total, tuple(cases))


def local_heisenberg_count(p: int, q: int) -> CaseCount:
    """Local homomorphism count at the smallest wild discriminant exponent:
    one twist per reduction, p^3 (p+2) (q^p - 1) in all."""
    return _heisenberg_count(p, q, 1, p + 2, "local")


def global_heisenberg_count(p: int, q: int) -> CaseCount:
    """Global count, unramified outside the place, same local behaviour.

    The centre case matches the local one.  Over a line, the p^2 (q^p - 1)
    rank-2 reductions with that inertia each admit exactly p admissible
    central twists, because the Frobenius at a degree-p place acts trivially
    on exponent-p groups, leaving a free choice; with p subgroups per line
    the total becomes p^3 (p^2 + p + 1) (q^p - 1).
    """
    return _heisenberg_count(p, q, p, p ** 2 + p + 1, "global")


class CounterexampleReport(namedtuple(
        "CounterexampleReport",
        "p q local_count global_count local_breakdown global_breakdown "
        "discrepancy_ratio")):
    __slots__ = ()


def counterexample_report(p: int, q: int) -> CounterexampleReport:
    """Local and global counts side by side; their ratio exceeds 1."""
    from fractions import Fraction
    local = local_heisenberg_count(p, q)
    glob = global_heisenberg_count(p, q)
    return CounterexampleReport(p, q, local.total, glob.total,
                                local.breakdown, glob.breakdown,
                                Fraction(glob.total, local.total))


# ---------------------------------------------------------------------------
# the discriminant gate
# ---------------------------------------------------------------------------

def smallest_wild_discriminant(p: int) -> int:
    """The smallest positive discriminant exponent for an order-p^3 image.

    Inertia of size p with last jump 1 gives 2 p^2 (p - 1) through the
    ramification integral (two unit intervals, image size p on both).  Any
    other ramified profile is strictly larger: image sizes are powers of p,
    at least p on [(-1, 0]] and on every interval up to the last jump, and
    a smaller profile raises.  p = 2 evaluates fine but lies outside the
    odd-prime setting.  For every p an abelian datum with group (Z/p)^3,
    built over GF(p), cross-checks the value.
    """
    from . import asw
    order = p ** 3
    value = asw.ramification_integral(order, [(p, 2)])
    if value != 2 * p ** 2 * (p - 1):
        raise InternalInconsistencyError(
            f"ramification integral gives {value}, expected 2 p^2 (p - 1)")
    for jump in range(1, 4):
        # each nonincreasing profile of sizes in {p^3, p^2, p}, once
        for profile in combinations_with_replacement((p ** 3, p ** 2, p),
                                                     jump + 1):
            candidate = asw.ramification_integral(
                order, [(s, 1) for s in profile])
            if candidate < value:
                raise InternalInconsistencyError(
                    f"image sizes {profile} give {candidate}, below {value}")
    _cross_check_via_abelian_datum(p, value)
    return value


def _cross_check_via_abelian_datum(p: int, expected: int) -> None:
    """An elementary abelian rank-3 datum with one ramified line and jump 1
    realises the same filtration sizes, so its discriminant must agree."""
    from . import asw
    from .gf import make_field
    from .witt import WittVector
    field = make_field(p, 1)
    shape = GroupShape(p, (1, 1, 1))
    datum = asw.ReducedCocycle(shape, field, {1: (
        WittVector(field, (field.one,)),
        WittVector(field, (field.zero,)),
        WittVector(field, (field.zero,)))})
    got = asw.discriminant_exponent(datum)
    if got != expected:
        raise InternalInconsistencyError(
            f"abelian cross-check gives {got}, expected {expected}")
