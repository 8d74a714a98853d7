"""Homomorphisms from the Galois group of F_q((T)) to finite abelian p-groups.

A homomorphism to G = prod Z/p^(n_i) is recorded by its reduced datum: a
finitely supported map from indices n (n = 0 or n coprime to p) to nonzero
elements of G tensor W(F_q).  Such a coefficient is a plain tuple with one
Witt vector in W_(n_i)(F_q) per cyclic factor.  The ramified coefficients
(n >= 1) determine the last jump, the discriminant and the inertia group.
The index-0 coefficient matters only modulo the Artin-Schreier image, whose
cokernel has |G| elements (the unramified homomorphisms); it enters none of
those invariants, so the counts take it as a factor |G|.

The module computes the last ramification jump of a datum; the orders
|G| / |K_u|, K_u the characters of jump <= u, each by one elimination over
Z/p^N, and from them the discriminant exponent (conductor-discriminant
formula) as one ramification integral; and counts data by last jump by
exhausting them: the oracle for `count_by_last_jump`, which lives in
`ramcount.counts`.
"""

from __future__ import annotations

from itertools import product
from math import gcd

from .counts import (
    GroupShape,
    _check_count_args,
    _refuse_over_budget,
    _refuse_to_print,
    check_support_index,
    count_by_last_jump,  # the closed form that the enumeration checks
    mu,
)
from .errors import InternalInconsistencyError, MixedRingsError
from .gf import FieldDescriptor, field_for_order
from .witt import WittVector, iter_witt_vectors


def iter_module_elements(shape: GroupShape, field: FieldDescriptor):
    """All of G tensor W(F_q) as coefficient tuples, in lexicographic order."""
    yield from product(*(iter_witt_vectors(field, e) for e in shape.exponents))


class ReducedCocycle:
    """A finitely supported datum n -> nonzero coefficient, n = 0 or coprime to p.

    The constructor is the only way to build a datum: it rejects a bad
    index (ValueError) and a coefficient outside G tensor W(F_q)
    (MixedRingsError), and drops zero coefficients.
    """

    __slots__ = ("shape", "field", "support")

    def __init__(self, shape: GroupShape, field: FieldDescriptor,
                 entries: dict[int, tuple[WittVector, ...]]):
        p, exponents = shape.p, shape.exponents
        support = {}
        for n, value in entries.items():
            check_support_index(n, p)
            if len(value) != len(exponents):
                raise MixedRingsError("coefficient does not match the datum module")
            nonzero = False
            for part, e in zip(value, exponents):
                ring = part.ring
                if ring.field is not field or ring.length != e:
                    raise MixedRingsError("coefficient does not match the datum module")
                nonzero = nonzero or any(part.coeffs)
            if nonzero:
                support[n] = value
        self.shape = shape
        self.field = field
        self.support = support

    def ramified_indices(self) -> list[int]:
        return sorted(n for n in self.support if n >= 1)


def cocycle_add(m1: ReducedCocycle, m2: ReducedCocycle) -> ReducedCocycle:
    if m1.shape != m2.shape or m1.field is not m2.field:
        raise MixedRingsError("cocycle module mismatch")
    support = dict(m1.support)
    for n, value in m2.support.items():
        s = support.get(n)
        support[n] = value if s is None else tuple(
            a + b for a, b in zip(s, value))
    return ReducedCocycle(m1.shape, m1.field, support)


# ---------------------------------------------------------------------------
# last jump
# ---------------------------------------------------------------------------

def _additive_order(x: tuple[WittVector, ...]) -> int:
    """The additive order p^e of a coefficient: the largest
    mod / gcd(mod, Galois-ring coefficients) over its parts; 1 iff x = 0.

    At index n the coefficient's jump is n * p^(e - 1) = n * (order // p),
    which reads 0 for the zero coefficient.
    """
    order = 1
    for part in x:
        mod = part.ring.mod
        o = mod // gcd(mod, *part.coeffs)
        if o > order:
            order = o
    return order


def last_jump(m: ReducedCocycle) -> int:
    """The largest upper ramification break of the datum; 0 iff unramified.

    The defining condition "p^(mu_{v+1}(n)) m_n = 0 for all n" holds exactly
    when v >= n * p^(e_n - 1) for every ramified index, where p^(e_n) is the
    additive order of the coefficient, so the minimum is the largest
    n * (order // p): one gcd per part, no exponent.
    """
    p = m.shape.p
    best = 0
    for n, value in m.support.items():
        if n:
            jump = n * (_additive_order(value) // p)
            if jump > best:
                best = jump
    return best


# ---------------------------------------------------------------------------
# the ramification filtration and the discriminant exponent
# ---------------------------------------------------------------------------

def ramification_integral(group_order: int,
                          profile: list[tuple[int, int]]) -> int:
    """group_order * sum w (1 - 1/s) over (s, w) pairs, an interval of width
    w with image size s, summed as sum w (group_order - group_order / s)."""
    total = 0
    for s, width in profile:
        index, rest = divmod(group_order, s)
        if rest:
            raise InternalInconsistencyError("image sizes must divide the group order")
        total += width * (group_order - index)
    return total


def _columns(m: ReducedCocycle, u: int) -> list[list[int]]:
    """One column per cyclic factor i: the Galois-ring coefficients of each
    ramified x_(n,i) times p^(N - n_i) p^t, t = mu(u + 1, n, p), p^N the
    largest modulus.  Character a sends the datum to sum_i a_i column_i
    mod p^N at u = 0 (p^(N - n_i) kills the ambiguity of lifting x_(n,i)
    to W_N), and p^t kills exactly the coefficients of jump <= u at index n,
    as in `counts`.  So K_u, the characters a with chi_a o m of jump <= u,
    is the kernel of a -> sum_i a_i column_i, and |G| / |K_u| is the order
    of the columns' span."""
    p, moduli = m.shape.p, m.shape.moduli()
    top = moduli[0] if moduli else 1
    scaled = [(p ** mu(u + 1, n, p), m.support[n]) for n in m.ramified_indices()]
    return [[top // mod * scale * c for scale, parts in scaled
             for c in parts[i].coeffs] for i, mod in enumerate(moduli)]


def _span_order(columns: list[list[int]], mod: int) -> int:
    """The order of the span of the columns in (Z/mod)^M, mod a power of p:
    an entry of least valuation p^v makes its column a cyclic summand of
    order mod / p^v, and clearing its row from the others leaves the rest."""
    columns = [[x % mod for x in col] for col in columns]
    order = 1
    while entries := [(gcd(x, mod), j, k) for j, col in enumerate(columns)
                      for k, x in enumerate(col) if x]:
        g, j, k = min(entries)
        pivot = columns.pop(j)
        order *= mod // g
        unit = pow(pivot[k] // g, -1, mod)
        for col in columns:
            f = col[k] // g * unit
            col[:] = [(x - f * y) % mod for x, y in zip(col, pivot)]
    return order


def ramification_steps(m: ReducedCocycle) -> list[tuple[int, int]]:
    """(u, |G| / |K_u|) at u = 0, at the last jump J and at each u < J where
    K_u may move, that is where mu(u + 1, n, p) < N does: u = n p^k, k < N.
    Certificate: K_(J - 1) is not every character."""
    p, depth = m.shape.p, max(m.shape.exponents, default=0)
    top = last_jump(m)
    cuts = {n * p ** k for n in m.ramified_indices() for k in range(depth)}
    steps = [(u, _span_order(_columns(m, u), p ** depth))
             for u in sorted({0, top} | {u for u in cuts if u < top})]
    if top and steps[-2][1] == 1:
        raise InternalInconsistencyError(
            f"every character has jump at most {top - 1}, below the last "
            f"jump {top}")
    return steps


def refuse_discriminant(shape: GroupShape, field: FieldDescriptor,
                        terms: int) -> None:
    """Refuse over the budget, before any coefficient is lifted, the
    discriminant of a datum of `terms` terms, in coefficient products (about
    a second at the budget here): each of its terms * sum(n_i) components
    costs 64 to read and (n + N) log2(p) n^2 to lift, N the largest exponent
    and n the field degree, and each of the terms * N + 2 steps of
    `ramification_steps` makes min(r, M) + 1 passes over r columns of M =
    terms * n entries.  Then its answer, below |G| p^N times an index."""
    p, n, depth = field.p, field.n, max(shape.exponents, default=0)
    steps, entries, rank = terms * depth + 2, terms * n, shape.rank
    _refuse_over_budget(
        terms * sum(shape.exponents) * (n * n * (n + depth) * p.bit_length() + 64)
        + steps * (terms * depth + rank * entries * (min(rank, entries) + 1)),
        what="coefficient products to read the filtration")
    _refuse_to_print(1, (sum(shape.exponents) + depth) * p.bit_length() + 64,
                     "the discriminant")


def discriminant_exponent(m: ReducedCocycle) -> int:
    """Valuation of the discriminant of the etale algebra attached to m.

    Conductor-discriminant formula (Serre, Local Fields, VI.3): the sum over
    the characters chi of the conductor of chi o m, its last jump + 1 when
    ramified and 0 otherwise.  A character of jump j lies outside K_u for
    u < j, so the sum is (|G| - |K_0|) + sum_(0 <= u < J) (|G| - |K_u|):
    the ramification integral over (-1, 0] and the intervals of
    `ramification_steps`.
    """
    steps = ramification_steps(m)
    return ramification_integral(m.shape.order, [(steps[0][1], 1)] + [
        (size, hi - lo) for (lo, size), (hi, _) in zip(steps, steps[1:])])


# ---------------------------------------------------------------------------
# counting by last jump
# ---------------------------------------------------------------------------

def count_by_last_jump_enumerated(shape: GroupShape, q: int, v: int,
                                  mode: str) -> int:
    """`count_by_last_jump` by exhausting all data: its oracle."""
    _check_count_args(shape, q, v, mode)
    # the coefficient tuples on the v - v // p ramified indices are the
    # candidates, counted before they are listed: |G| multiplies afterwards
    _refuse_over_budget(q, exponent=sum(shape.exponents) * (v - v // shape.p))
    indices = [n for n in range(1, v + 1) if n % shape.p]
    # GF(q) is built only when there is an index to fill (v >= 1), and then
    # the module has no more elements than the candidates counted above
    coeffs = (list(iter_module_elements(shape, field_for_order(q, p=shape.p)))
              if indices else [])
    orders = [_additive_order(x) // shape.p for x in coeffs]
    # per index, the jump each coefficient contributes (0 for the zero one)
    jumps = [[n * order for order in orders] for n in indices]
    count = sum(1 for choice in product(*jumps) if max(choice, default=0) == v)
    return (shape.order if mode == "homomorphisms" else 1) * count
