"""Homomorphisms from the Galois group of F_q((T)) to finite abelian p-groups.

A homomorphism to G = prod Z/p^(n_i) is recorded by its reduced datum: a
finitely supported map from indices n (n = 0 or n coprime to p) to nonzero
elements of G tensor W(F_q).  The ramified coefficients (n >= 1) determine
the inertial type; the index-0 coefficient is free modulo the Artin-Schreier
image, and W_n(F_p) is the fixed transversal for it (the operator vanishes
there and its kernel has exactly p^n elements, so cosets get unique normal
forms).

The module computes the last ramification jump of a datum, reconstructs the
discriminant exponent from last jumps of all subgroup quotients, and counts
data by last jump in closed form, with an exhaustive count as its oracle.
Quotient groups are re-expressed through a Smith normal form of the integer
relation matrix, which keeps shapes canonical (exponents nonincreasing).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .errors import (
    BudgetExceededError,
    GroupTooLargeError,
    InternalInconsistencyError,
    MixedRingsError,
    NotASubgroupError,
)
from .gf import FieldDescriptor, field_for_order, prime_power
from .witt import WittVector

MAX_GROUP_ORDER = 1 << 12
MAX_SUBGROUP_SCAN_ORDER = 1 << 10
MAX_JUMP = 64
DEFAULT_BUDGET = 5_000_000


@dataclass(frozen=True)
class GroupShape:
    """G = prod Z/p^(n_i) with nonincreasing positive exponents.

    The empty shape is allowed and denotes the trivial group, which shows up
    as the quotient of a group by itself.
    """

    p: int
    exponents: tuple[int, ...]

    def __post_init__(self):
        if any(e <= 0 for e in self.exponents):
            raise ValueError("exponents must be positive")
        if any(a < b for a, b in zip(self.exponents, self.exponents[1:])):
            raise ValueError("exponents must be nonincreasing")
        if self.order > MAX_GROUP_ORDER:
            raise GroupTooLargeError(
                f"group order {self.order} exceeds {MAX_GROUP_ORDER}")

    @property
    def rank(self) -> int:
        return len(self.exponents)

    @property
    def order(self) -> int:
        return self.p ** sum(self.exponents)

    def moduli(self) -> tuple[int, ...]:
        return tuple(self.p ** e for e in self.exponents)


class GroupWittElement:
    """An element of G tensor W(F_q): one Witt vector of length n_i per factor."""

    __slots__ = ("shape", "field", "parts")

    def __init__(self, shape: GroupShape, field: FieldDescriptor,
                 parts: tuple[WittVector, ...]):
        self.shape = shape
        self.field = field
        self.parts = parts

    @classmethod
    def zero(cls, shape: GroupShape, field: FieldDescriptor) -> "GroupWittElement":
        return cls(shape, field, tuple(
            WittVector.zeros(field, e) for e in shape.exponents))

    def _check(self, other: "GroupWittElement") -> None:
        if self.shape != other.shape or self.field != other.field:
            raise MixedRingsError("group module mismatch")

    def __add__(self, other: "GroupWittElement") -> "GroupWittElement":
        self._check(other)
        return GroupWittElement(self.shape, self.field, tuple(
            a + b for a, b in zip(self.parts, other.parts)))

    def __neg__(self) -> "GroupWittElement":
        return GroupWittElement(self.shape, self.field,
                                tuple(-a for a in self.parts))

    def __sub__(self, other: "GroupWittElement") -> "GroupWittElement":
        return self + (-other)

    def mul_by_p(self) -> "GroupWittElement":
        return GroupWittElement(self.shape, self.field,
                                tuple(a.mul_by_p() for a in self.parts))

    def __bool__(self) -> bool:
        return any(self.parts)

    def __eq__(self, other):
        return (isinstance(other, GroupWittElement)
                and self.shape == other.shape and self.field == other.field
                and self.parts == other.parts)

    def __hash__(self):
        return hash((self.shape, self.parts))

    def __repr__(self):
        return f"GW{self.parts!r}"


def iter_module_elements(shape: GroupShape, field: FieldDescriptor):
    """All of G tensor W(F_q), in lexicographic component order."""
    spaces = []
    for e in shape.exponents:
        spaces.append([comps for comps in product(field.elements(), repeat=e)])
    for choice in product(*spaces):
        yield GroupWittElement(shape, field, tuple(
            WittVector(field, comps) for comps in choice))


def transversal_elements(shape: GroupShape, field: FieldDescriptor):
    """The fixed transversal of the Artin-Schreier image: prod W_(n_i)(F_p)."""
    spaces = [[WittVector.from_int(field, e, k) for k in range(shape.p ** e)]
              for e in shape.exponents]
    return [GroupWittElement(shape, field, tuple(choice))
            for choice in product(*spaces)]


class ReducedCocycle:
    """A finitely supported datum n -> nonzero coefficient, n = 0 or coprime to p."""

    __slots__ = ("shape", "field", "support")

    def __init__(self, shape: GroupShape, field: FieldDescriptor,
                 support: dict[int, GroupWittElement]):
        self.shape = shape
        self.field = field
        self.support = support

    def coefficient(self, n: int) -> GroupWittElement:
        got = self.support.get(n)
        return got if got is not None else GroupWittElement.zero(self.shape, self.field)

    def ramified_indices(self) -> list[int]:
        return sorted(n for n in self.support if n >= 1)

    def is_unramified(self) -> bool:
        return not any(n >= 1 for n in self.support)

    def _key(self):
        return (self.shape, self.field, tuple(sorted(
            (n, v) for n, v in self.support.items())))

    def __eq__(self, other):
        return isinstance(other, ReducedCocycle) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        items = ", ".join(f"{n}: {v!r}" for n, v in sorted(self.support.items()))
        return f"Cocycle({{{items}}})"


def make_cocycle(shape: GroupShape, field: FieldDescriptor,
                 entries: dict[int, GroupWittElement]) -> ReducedCocycle:
    support = {}
    for n, value in entries.items():
        if n < 0 or (n > 0 and n % shape.p == 0):
            raise ValueError(f"support index {n} must be 0 or coprime to {shape.p}")
        if value.shape != shape or value.field != field:
            raise MixedRingsError("coefficient does not match the datum module")
        if value:
            support[n] = value
    return ReducedCocycle(shape, field, support)


def cocycle_add(m1: ReducedCocycle, m2: ReducedCocycle) -> ReducedCocycle:
    if m1.shape != m2.shape or m1.field != m2.field:
        raise MixedRingsError("cocycle module mismatch")
    support = dict(m1.support)
    for n, value in m2.support.items():
        s = support.get(n)
        total = value if s is None else s + value
        if total:
            support[n] = total
        else:
            support.pop(n, None)
    return ReducedCocycle(m1.shape, m1.field, support)


# ---------------------------------------------------------------------------
# last jump
# ---------------------------------------------------------------------------

def mu(v: int, n: int, p: int) -> int:
    """#{k >= 0 : n * p^k < v}."""
    count = 0
    bound = n
    while bound < v:
        count += 1
        bound *= p
    return count


def coefficient_order(x: GroupWittElement) -> int:
    """Smallest e >= 0 with p^e * x = 0."""
    e = 0
    cur = x
    while cur:
        cur = cur.mul_by_p()
        e += 1
    return e


def last_jump(m: ReducedCocycle) -> int:
    """The largest upper ramification break of the datum; 0 iff unramified.

    The defining condition "p^(mu_{v+1}(n)) m_n = 0 for all n" holds exactly
    when v >= n * p^(e_n - 1) for every ramified index, where e_n is the
    additive order exponent of the coefficient, so the minimum is that max.
    """
    p = m.shape.p
    best = 0
    for n, value in m.support.items():
        if n >= 1:
            e = coefficient_order(value)
            jump = n * p ** (e - 1)
            if jump > best:
                best = jump
    return best


# ---------------------------------------------------------------------------
# subgroups
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubgroupWitness:
    shape: GroupShape
    generators: tuple[tuple[int, ...], ...]
    elements: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.elements)


def _group_add(moduli, x, y):
    return tuple((a + b) % m for a, b, m in zip(x, y, moduli))


def _closure(moduli, gens) -> frozenset:
    zero = tuple(0 for _ in moduli)
    elems = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = _group_add(moduli, x, g)
                if y not in elems:
                    elems.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(elems)


@lru_cache(maxsize=None)
def enumerate_subgroups(shape: GroupShape) -> tuple[SubgroupWitness, ...]:
    """Every subgroup exactly once, sorted by (order, element list).

    Found by closing generator sets one element at a time: starting from the
    trivial subgroup, each known subgroup is extended by every outside
    element, with deduplication on the full element set.
    """
    if shape.order > MAX_SUBGROUP_SCAN_ORDER:
        raise GroupTooLargeError(
            f"subgroup scan needs order <= {MAX_SUBGROUP_SCAN_ORDER}")
    moduli = shape.moduli()
    zero = tuple(0 for _ in moduli)
    all_elements = sorted(product(*(range(m) for m in moduli)))
    trivial = frozenset([zero])
    found: dict[frozenset, tuple] = {trivial: ()}
    frontier = [(trivial, ())]
    while frontier:
        nxt = []
        for elems, gens in frontier:
            for g in all_elements:
                if g in elems:
                    continue
                bigger = _closure(moduli, gens + (g,))
                if bigger not in found:
                    new_gens = gens + (g,)
                    found[bigger] = new_gens
                    nxt.append((bigger, new_gens))
        frontier = nxt
    witnesses = [
        SubgroupWitness(shape, gens, tuple(sorted(elems)))
        for elems, gens in found.items()
    ]
    witnesses.sort(key=lambda w: (w.order, w.elements))
    return tuple(witnesses)


# ---------------------------------------------------------------------------
# quotients via Smith normal form
# ---------------------------------------------------------------------------

def _smith_normal_form(rows: list[list[int]], r: int):
    """Diagonalise the row lattice: returns (diag, V) with U*A*V diagonal,
    d_1 | d_2 | ... | d_r, V unimodular (only V is needed downstream)."""
    a = [list(row) for row in rows]
    k = len(a)
    v = [[1 if i == j else 0 for j in range(r)] for i in range(r)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        for j in range(r):
            a[dst][j] += c * a[src][j]

    def add_col(src, dst, c):
        for row in a:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    t = 0
    while t < min(k, r):
        # locate a pivot of minimal absolute value in the remaining block
        pivot = None
        for i in range(t, k):
            for j in range(t, r):
                if a[i][j] and (pivot is None
                                or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            done = True
            for i in range(t + 1, k):
                if a[i][t]:
                    add_row(t, i, -(a[i][t] // a[t][t]))
                    if a[i][t]:
                        swap_rows(t, i)
                        done = False
            for j in range(t + 1, r):
                if a[t][j]:
                    add_col(t, j, -(a[t][j] // a[t][t]))
                    if a[t][j]:
                        swap_cols(t, j)
                        done = False
            if done:
                break
        # enforce the divisibility chain
        offender = None
        for i in range(t + 1, k):
            for j in range(t + 1, r):
                if a[i][j] % a[t][t]:
                    offender = (i, j)
                    break
            if offender:
                break
        if offender:
            add_row(offender[0], t, 1)
            continue
        if a[t][t] < 0:
            # negating a column is unimodular; mirror it in v
            for row in a:
                row[t] = -row[t]
            for row in v:
                row[t] = -row[t]
        t += 1
    diag = [a[i][i] if i < min(k, r) else 0 for i in range(r)]
    return diag, v


class QuotientMap:
    """The induced map on data for G -> G/H, in a canonical shape for G/H."""

    __slots__ = ("source", "target", "columns")

    def __init__(self, source: GroupShape, target: GroupShape,
                 columns: tuple[tuple[int, tuple[int, ...]], ...]):
        self.source = source
        self.target = target
        self.columns = columns  # per target factor: (exponent, V column)

    def apply(self, x: GroupWittElement) -> GroupWittElement:
        field = x.field
        parts = []
        for exp, col in self.columns:
            acc = WittVector.zeros(field, exp)
            for i, coeff in enumerate(col):
                if coeff % self.target.p ** exp == 0:
                    continue
                part = x.parts[i]
                if part.length >= exp:
                    part = part.truncate(exp)
                else:
                    # padding is only unambiguous once multiplied by a
                    # coefficient divisible by p^(exp - length)
                    gap = exp - part.length
                    assert coeff % self.target.p ** gap == 0
                    part = part.zero_extend(exp)
                acc = acc + part.scale(coeff)
            parts.append(acc)
        return GroupWittElement(self.target, field, tuple(parts))


@lru_cache(maxsize=None)
def _quotient_map(shape: GroupShape,
                  subgroup_elements: tuple[tuple[int, ...], ...]) -> QuotientMap:
    moduli = shape.moduli()
    elems = frozenset(subgroup_elements)
    zero = tuple(0 for _ in moduli)
    if zero not in elems or _closure(moduli, tuple(elems)) != elems:
        raise NotASubgroupError("element set is not closed")
    r = shape.rank
    if r == 0:
        return QuotientMap(shape, shape, ())
    rows = [[moduli[i] if j == i else 0 for j in range(r)] for i in range(r)]
    for g in sorted(elems):
        rows.append(list(g))
    diag, v = _smith_normal_form(rows, r)
    factors = []  # (exponent, column), for diag entries > 1
    p = shape.p
    for j, d in enumerate(diag):
        if d == 1:
            continue
        exp = 0
        dd = d
        while dd % p == 0:
            dd //= p
            exp += 1
        assert dd == 1 and exp > 0, "quotient of a p-group must be a p-group"
        factors.append((exp, tuple(v[i][j] for i in range(r))))
    factors.sort(key=lambda f: -f[0])
    target = GroupShape(p, tuple(exp for exp, _ in factors))
    return QuotientMap(shape, target, tuple(factors))


def quotient_datum(m: ReducedCocycle, h: SubgroupWitness) -> ReducedCocycle:
    """The datum of the composite map through G -> G/H."""
    if h.shape != m.shape:
        raise NotASubgroupError("subgroup belongs to a different group")
    qmap = _quotient_map(m.shape, h.elements)
    entries = {}
    for n, value in m.support.items():
        image = qmap.apply(value)
        if image:
            entries[n] = image
    return ReducedCocycle(qmap.target, m.field, entries)


# ---------------------------------------------------------------------------
# discriminant exponent
# ---------------------------------------------------------------------------

def ramification_integral(group_order: int, image_sizes: list[int]) -> int:
    """group_order * sum(1 - 1/s) over unit intervals with image size s."""
    total = Fraction(0)
    for s in image_sizes:
        total += 1 - Fraction(1, s)
    value = group_order * total
    if value.denominator != 1:
        raise InternalInconsistencyError("image sizes must divide the group order")
    return int(value)


def _quotient_jumps(m: ReducedCocycle):
    jumps = []
    for h in enumerate_subgroups(m.shape):
        t = last_jump(quotient_datum(m, h))
        # upper breaks of abelian data are integers; assert, never round
        assert isinstance(t, int) and t >= 0
        jumps.append((h, t))
    return jumps


def discriminant_exponent(m: ReducedCocycle) -> int:
    """Valuation of the discriminant of the etale algebra attached to m.

    The image of inertia just above level v is the intersection of all
    subgroups H whose quotient datum has last jump <= v; on the tame
    interval (-1, 0] the image agrees with the one just above 0 because a
    p-group has no nontrivial tame quotient.
    """
    jumps = _quotient_jumps(m)
    top = last_jump(m)

    def image_size(v: int) -> int:
        inter = None
        for h, t in jumps:
            if t <= v:
                s = set(h.elements)
                inter = s if inter is None else inter & s
        assert inter is not None  # the full group always qualifies
        return len(inter)

    sizes = [image_size(0)]
    sizes.extend(image_size(v) for v in range(top))
    return ramification_integral(m.shape.order, sizes)


def inertia_image(m: ReducedCocycle) -> frozenset[tuple[int, ...]]:
    """Elements of the inertia image: the smallest H with unramified quotient."""
    inter = None
    for h in enumerate_subgroups(m.shape):
        qmap = _quotient_map(m.shape, h.elements)
        if all(not qmap.apply(value)
               for n, value in m.support.items() if n >= 1):
            s = set(h.elements)
            inter = s if inter is None else inter & s
    assert inter is not None
    return frozenset(inter)


# ---------------------------------------------------------------------------
# counting by last jump
# ---------------------------------------------------------------------------

def _ramified_indices(p: int, v: int) -> list[int]:
    return [n for n in range(1, v + 1) if n % p]


def _check_count_args(shape: GroupShape, q: int, v: int, mode: str) -> None:
    if mode not in ("homomorphisms", "inertial_types"):
        raise ValueError(f"unknown mode {mode!r}")
    if v < 0:
        raise ValueError(f"last jump {v} must be nonnegative")
    if v > MAX_JUMP:
        raise ValueError(f"last jump {v} exceeds {MAX_JUMP}")
    prime_power(q, p=shape.p)


def _count_jump_at_most(shape: GroupShape, q: int, t: int) -> int:
    """Ramified coefficient tuples on indices <= t with last jump <= t.

    At index n the jump is n * p^(e - 1) for a coefficient of order p^e, so
    jump <= t means order <= p^(e_n(t)) with e_n(t) = #{k >= 0 : n p^k <= t};
    those coefficients form the p^(e_n(t))-torsion of G tensor W(F_q), which
    has q^(sum_i min(n_i, e_n(t))) elements.
    """
    exponent = 0
    for n in _ramified_indices(shape.p, t):
        e = mu(t + 1, n, shape.p)
        exponent += sum(min(n_i, e) for n_i in shape.exponents)
    return q ** exponent


def count_by_last_jump(shape: GroupShape, q: int, v: int, mode: str) -> int:
    """Exact number of data with support indices <= v and last jump v.

    mode "homomorphisms" lets the index-0 coefficient range over the fixed
    transversal (one representative per unramified twist class); mode
    "inertial_types" omits index 0 entirely.  The jump never depends on the
    index-0 coefficient, so it enters as a plain multiplier.  The last jump
    is a max over indices, so the count is a difference of two products of
    torsion sizes; no field is built.
    """
    _check_count_args(shape, q, v, mode)
    unram = shape.order if mode == "homomorphisms" else 1
    if v == 0:
        return unram  # exactly the unramified data
    return unram * (_count_jump_at_most(shape, q, v)
                    - _count_jump_at_most(shape, q, v - 1))


def count_by_last_jump_enumerated(shape: GroupShape, q: int, v: int, mode: str,
                                  budget: int = DEFAULT_BUDGET) -> int:
    """The same count by exhausting all data: the oracle for the closed form."""
    _check_count_args(shape, q, v, mode)
    field = field_for_order(q, p=shape.p)
    indices = _ramified_indices(shape.p, v)
    coeffs = list(iter_module_elements(shape, field))
    unram = shape.order if mode == "homomorphisms" else 1
    total = unram * len(coeffs) ** len(indices)
    if total > budget:
        raise BudgetExceededError(f"enumeration size {total} exceeds {budget}")
    orders = [coefficient_order(x) for x in coeffs]
    # per index, the jump each coefficient contributes (0 for the zero one)
    jumps = [[n * shape.p ** (e - 1) if e else 0 for e in orders]
             for n in indices]
    count = sum(1 for choice in product(*jumps) if max(choice, default=0) == v)
    return unram * count
