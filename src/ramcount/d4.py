"""Order-8 dihedral extensions of F_q((T)) in characteristic 2.

A reduction to the Klein quotient is a pair (a, c) of sparse polynomials in
T^(-1) with support in {0} union the odd integers; its lifts through the
central extension are parametrised by a third polynomial b of the same
shape, and carry an explicit last-jump formula

    max( w(b' - a c'),  w(a)/2 + w(c),  w(c)/2 + w(a) )

with w the pole order and x' = T dx/dT.  On reduced data it is the integer
max(w(b' + a c'), w(a) + w(c)), which `d4_last_jump` evaluates: in
characteristic 2, b' has only odd terms, so if w(a), w(c) >= 1 (both odd)
the top term of a c', at the even exponent w(a) + w(c), is never cancelled
and outweighs both side terms; if w(a) = 0 the larger side term is
w(c) = w(a) + w(c), and w(c) = 0 is the same.  The formula is trusted as
the last jump only when (a, c) is totally ramified, which is where the
brute-force oracle compares it against the closed-form answer w(a) + w(c)
for the smallest lift jump.

The oracle, `enumerated_lift_distribution`, enumerates the lift space with
each derivative b' packed into one integer, so that adding a*c' is an XOR;
the minimum of its tally is the brute-force smallest lift jump.
`_lift_pool_exponent` counts that space, and the lift distribution is its first
difference.

Only `pair_to_cocycle` builds abelian data, so only it imports `asw` and
`witt`.  The counts of dihedral data by last jump are closed forms in q, in
`ramcount.counts`.
"""

from __future__ import annotations

from collections import namedtuple

from .counts import (
    GroupShape,
    _check_jump,
    _refuse_over_budget,
    _refuse_to_print,
    prime_power,
)
from .errors import MixedFieldsError, NotTotallyRamifiedError

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .asw import ReducedCocycle
    from .gf import FieldDescriptor, FieldElement

# the Klein four-group (Z/2)^2 of a reduction
_KLEIN = GroupShape(2, (1, 1))


def _accumulate(terms: dict[int, FieldElement], e: int, c: FieldElement) -> None:
    """terms[e] += c, dropping the term when the sum is zero."""
    s = terms.get(e)
    total = c if s is None else s + c
    if total:
        terms[e] = total
    else:
        terms.pop(e, None)


class SparseTPoly:
    """sum c_e T^(-e) with finitely many nonzero c_e, exponents e >= 0."""

    __slots__ = ("field", "terms")

    def __init__(self, field: FieldDescriptor, terms: dict[int, FieldElement]):
        self.field = field
        self.terms = terms

    @classmethod
    def from_terms(cls, field: FieldDescriptor,
                   entries: dict[int, FieldElement]) -> "SparseTPoly":
        terms = {}
        for e, c in entries.items():
            if e < 0:
                raise ValueError(f"exponent {e} must be nonnegative")
            if c.field is not field:
                raise MixedFieldsError("coefficient from a different field")
            if c:
                terms[int(e)] = c
        return cls(field, terms)

    @classmethod
    def monomial(cls, field: FieldDescriptor, e: int,
                 c: FieldElement | None = None) -> "SparseTPoly":
        return cls.from_terms(field, {e: field.one if c is None else c})

    def _check(self, other: "SparseTPoly") -> None:
        if self.field is not other.field:
            raise MixedFieldsError("polynomials over different fields")

    def __add__(self, other: "SparseTPoly") -> "SparseTPoly":
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            _accumulate(terms, e, c)
        return SparseTPoly(self.field, terms)

    def __mul__(self, other: "SparseTPoly") -> "SparseTPoly":
        self._check(other)
        terms: dict[int, FieldElement] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                _accumulate(terms, e1 + e2, c1 * c2)
        return SparseTPoly(self.field, terms)

    def pole_order(self) -> int:
        """w(x) = max(0, -v_T(x)): the largest exponent in the support."""
        return max(self.terms, default=0)

    def t_derivative(self) -> "SparseTPoly":
        """x' = T dx/dT; kills exponents divisible by the characteristic."""
        p = self.field.p
        terms = {}
        for e, c in self.terms.items():
            k = (-e) % p
            if k:
                scaled = self.field.from_prime(k) * c
                if scaled:
                    terms[e] = scaled
        return SparseTPoly(self.field, terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, SparseTPoly)
                and self.field is other.field and self.terms == other.terms)


def _validate_datum_poly(x: SparseTPoly) -> None:
    if x.field.p != 2:
        raise ValueError("dihedral data live in characteristic 2")
    for e in x.terms:
        if e > 0 and e % 2 == 0:
            raise ValueError(f"support exponent {e} must be 0 or odd")


def _check_pair(a: SparseTPoly, c: SparseTPoly) -> None:
    """A reduction (a, c): both supported on {0} and odd exponents, over
    one field."""
    _validate_datum_poly(a)
    _validate_datum_poly(c)
    a._check(c)


def d4_last_jump(a: SparseTPoly, c: SparseTPoly, b: SparseTPoly) -> int:
    """The dihedral jump formula, max(w(b' + a*c'), w(a) + w(c)), which
    holds on reduced data: a, c, b supported on {0} and odd exponents."""
    _check_pair(a, c)
    _validate_datum_poly(b)
    main = (b.t_derivative() + a * c.t_derivative()).pole_order()
    return max(main, a.pole_order() + c.pole_order())


def min_lift_jump(a: SparseTPoly, c: SparseTPoly) -> int:
    """Smallest last jump among all lifts of the reduction (a, c)."""
    _check_pair(a, c)
    return a.pole_order() + c.pole_order()


def is_totally_ramified(a: SparseTPoly, c: SparseTPoly) -> bool:
    """Full inertia image: a, c and a + c all have nonzero ramified part,
    the terms of positive exponent."""
    _check_pair(a, c)
    ra = {e: x for e, x in a.terms.items() if e}
    rc = {e: x for e, x in c.terms.items() if e}
    return bool(ra) and bool(rc) and ra != rc


def _lift_pool_exponent(field: FieldDescriptor, bound: int) -> int:
    """log_p of the number of canonical b with w(b) <= bound: one of the p
    constants of the Artin-Schreier transversal and any coefficient at each
    odd exponent up to the bound."""
    return 1 + field.n * ((bound + 1) // 2)


def _jump_tally(a: SparseTPoly, c: SparseTPoly, bound: int) -> dict[int, int]:
    """Tally of d4_last_jump(a, c, b) over the canonical b, w(b) <= bound.

    In characteristic 2, b' keeps the odd coefficients of b and drops its
    constant, so the derivatives of these b are exactly the integers in
    range(q^k), k the number of odd exponents <= bound: exponent 2j+1 owns
    bits [j*n, (j+1)*n), and bit i of a block is coefficient i of the field
    element.  Each derivative stands for one b per transversal constant,
    and the transversal has p elements.
    The odd exponents <= bound of a*c' pack the same way into one integer,
    so adding b' is an XOR; the other exponents of a*c', which no b' can
    reach, raise the formula's fixed floor w(a) + w(c).
    """
    field = a.field
    n = field.n
    packed, floor = 0, a.pole_order() + c.pole_order()
    for e, coeff in (a * c.t_derivative()).terms.items():
        if e % 2 and e <= bound:
            block = sum(bit << i for i, bit in enumerate(coeff.coeffs))
            packed |= block << (n * (e // 2))
        else:
            floor = max(floor, e)
    per_derivative = field.p
    tally: dict[int, int] = {}
    for deriv in range(field.q ** ((bound + 1) // 2)):
        # the top odd exponent of b' + a*c'; -1 when that part vanishes
        main = 2 * (((deriv ^ packed).bit_length() - 1) // n) + 1
        jump = main if main > floor else floor
        tally[jump] = tally.get(jump, 0) + per_derivative
    return tally


# ---------------------------------------------------------------------------
# lift distributions and unramified-twist invariance
# ---------------------------------------------------------------------------

def lift_jump_distribution(a: SparseTPoly, c: SparseTPoly,
                           v_max: int) -> tuple[tuple[int, int], ...]:
    """Counts of lifts of (a, c) by last jump, for jumps up to v_max:
    ((jump, count), ...) in ascending jump.

    Every lift is the minimal lift, of jump m, twisted by a central
    character, and the twist by a character of jump w has jump max(m, w):
    for v >= m there are p^e lifts of jump <= v, e = `_lift_pool_exponent`,
    one per canonical b, and below m there are none.  The v_max + 1 counts,
    each at most the pool at v_max, of e + 1 bits, are sized before any is
    formed.
    """
    _check_jump(v_max)
    m = min_lift_jump(a, c)
    _refuse_to_print(v_max + 1, _lift_pool_exponent(a.field, v_max) + 1,
                     "the distribution")
    counts, below = [], 0
    for v in range(v_max + 1):
        at_most = a.field.p ** _lift_pool_exponent(a.field, v) if v >= m else 0
        counts.append((v, at_most - below))
        below = at_most
    return tuple(counts)


def enumerated_lift_distribution(a: SparseTPoly, c: SparseTPoly,
                                 v_max: int) -> dict[int, int]:
    """Counts of lifts of (a, c) by last jump, for jumps up to v_max, from
    the jump formula on every canonical b with w(b) <= v_max.

    The oracle for `lift_jump_distribution` and, through its minimum, for
    `min_lift_jump`.  Only a totally ramified pair has its lifts
    parametrised by b, and a b with w(b) > w(a) + w(c) gives jump w(b), so
    these b carry every lift of jump <= v_max.
    """
    if not is_totally_ramified(a, c):
        raise NotTotallyRamifiedError(
            "the lift parametrisation needs a full inertia image")
    _check_jump(v_max)
    _refuse_over_budget(a.field.p, exponent=_lift_pool_exponent(a.field, v_max))
    return {jump: count for jump, count in _jump_tally(a, c, v_max).items()
            if jump <= v_max}


class TwistComparison(namedtuple(
        "TwistComparison",
        "alpha gamma closed_form_equal enumerated_equal")):
    """enumerated_equal is None when the b-parametrisation is unusable."""

    __slots__ = ()


class TwistInvarianceReport(namedtuple(
        "TwistInvarianceReport", "comparisons all_equal")):
    __slots__ = ()


def unramified_twist_report(a: SparseTPoly, c: SparseTPoly,
                            v_max: int) -> TwistInvarianceReport:
    """Compare lift distributions of (a, c) against all constant twists.

    Every (alpha, gamma) in F_q^2 shifts the reduction by an unramified
    character pair; the closed-form distribution of each twist is compared
    with that of (a, c).  The closed form depends only on q, v_max and the
    minimal lift jump, so it is built once, and a twist's distribution
    equals it exactly when the twist has the same minimal lift jump.
    Where (a, c) is totally ramified, its lift space is
    enumerated once and the enumerated distribution compared with the
    nonzero rows of the closed form; that one comparison is every twist's
    `enumerated_equal`.
    It stands for every twist because a constant twist changes neither pole
    order, so neither the floor of `_jump_tally`, and adds to a*c'
    only alpha*c', whose exponents are odd and at most w(c).  When
    w(c) <= v_max that XORs one fixed X < q^k into the packed a*c', and
    b' -> b' ^ X permutes range(q^k), so the tally does not change; when
    w(c) > v_max every jump exceeds v_max and both tallies are empty.
    The q^2 closed-form rows, and then the pool, are refused over the budget
    before any is formed.
    """
    field = a.field
    _check_jump(v_max)
    m = min_lift_jump(a, c)
    _refuse_over_budget(field.q ** 2)
    enum_eq = None
    if is_totally_ramified(a, c):
        enum_eq = (enumerated_lift_distribution(a, c, v_max)
                   == {v: n for v, n in lift_jump_distribution(a, c, v_max)
                       if n})
    constants = [(x, SparseTPoly.from_terms(field, {0: x}))
                 for x in field.iter_elements()]
    comparisons = []
    all_equal = enum_eq is not False
    for alpha, k_alpha in constants:
        for gamma, k_gamma in constants:
            closed_eq = min_lift_jump(a + k_alpha, c + k_gamma) == m
            all_equal = all_equal and closed_eq
            comparisons.append(TwistComparison(alpha, gamma, closed_eq, enum_eq))
    return TwistInvarianceReport(tuple(comparisons), all_equal)


# ---------------------------------------------------------------------------
# local counts
# ---------------------------------------------------------------------------

def count_min_lift_enumerated(q: int, v: int) -> int:
    """The oracle for `counts.count_min_lift`: the pole orders of all
    ramified supports over F_q, and the pairs whose pole orders sum to v;
    q must be a power of 2.  At v = 0 the one support is empty.

    A pole order reads only whether each coefficient is zero, so the
    coefficients run over range(q), with 0 for the zero of F_q, and no
    field is built."""
    prime_power(q, p=2)
    _check_jump(v)
    odd = range(1, v + 1, 2)
    _refuse_over_budget(q, exponent=len(odd))
    supports = iter([()])  # streamed, where product() would copy range(q)
    for _ in odd:
        supports = (s + (x,) for s in supports for x in range(q))
    hist = [0] * (v + 1)
    for chosen in supports:
        hist[max((e for e, c in zip(odd, chosen) if c), default=0)] += 1
    return sum(hist[w] * hist[v - w] for w in range(v + 1))


# ---------------------------------------------------------------------------
# bridges to the abelian machinery
# ---------------------------------------------------------------------------

def pair_to_cocycle(a: SparseTPoly, c: SparseTPoly) -> ReducedCocycle:
    """The rank-2 elementary abelian datum carried by the pair (a, c)."""
    from . import asw, witt
    _check_pair(a, c)
    field = a.field
    entries = {}
    for n in sorted(set(a.terms) | set(c.terms)):
        entries[n] = (witt.WittVector(field, (a.terms.get(n, field.zero),)),
                      witt.WittVector(field, (c.terms.get(n, field.zero),)))
    return asw.ReducedCocycle(_KLEIN, field, entries)
