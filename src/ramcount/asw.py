"""Homomorphisms from the Galois group of F_q((T)) to finite abelian p-groups.

A homomorphism to G = prod Z/p^(n_i) is recorded by its reduced datum: a
finitely supported map from indices n (n = 0 or n coprime to p) to nonzero
elements of G tensor W(F_q).  Such a coefficient is a plain tuple with one
Witt vector in W_(n_i)(F_q) per cyclic factor.  The ramified coefficients
(n >= 1) determine the last jump, the discriminant and the inertia image.
The index-0 coefficient matters only modulo the Artin-Schreier image, whose
cokernel has |G| elements (the unramified homomorphisms); it enters none of
those invariants, so the counts take it as a factor |G|.

The module computes the last ramification jump of a datum, the discriminant
exponent by the conductor-discriminant formula over the characters of G,
the inertia image as the common kernel of the characters that stay
unramified, and counts data by last jump by exhausting them: the oracle for
the closed form `count_by_last_jump`, which lives in `ramcount.counts`.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import gcd

from .counts import (
    GroupShape,
    _check_count_args,
    _ramified_indices,
    _refuse_over_budget,
    check_support_index,
    count_by_last_jump,  # the closed form that the enumeration checks
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

    def __repr__(self):
        items = ", ".join(f"{n}: {v!r}" for n, v in sorted(self.support.items()))
        return f"Cocycle({{{items}}})"


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
# characters: discriminant exponent and inertia image
# ---------------------------------------------------------------------------

def ramification_integral(group_order: int, image_sizes: list[int]) -> int:
    """group_order * sum(1 - 1/s) over unit intervals with image size s,
    summed as sum(group_order - group_order / s)."""
    total = 0
    for s in image_sizes:
        index, rest = divmod(group_order, s)
        if rest:
            raise InternalInconsistencyError("image sizes must divide the group order")
        total += group_order - index
    return total


@lru_cache(maxsize=None)
def character_classes(shape: GroupShape) -> tuple[tuple[tuple[int, ...], int], ...]:
    """One character a per cyclic subgroup of the dual of G, with the number
    phi(k) = k - k // p of characters generating that subgroup, k the order
    of a: the largest mod_i // gcd(mod_i, a_i), as in `last_jump`.

    chi_a(x) = sum_i a_i p^(N - n_i) x_i in Z/p^N, N the largest exponent.
    chi_a and chi_(ua), u a unit mod k, share kernel and image, so they
    share the jump of any datum.  Scaling by u moves the unit part of the
    first coordinate of order k freely, and the representative is the a
    whose such coordinate is mod_i // k.

    The scan visits the |G| tuples a once, so the only bound is the one
    every shape obeys: `GroupShape` refuses an order above MAX_GROUP_ORDER.
    """
    p = shape.p
    moduli = shape.moduli()
    classes = []
    for a in product(*(range(mod) for mod in moduli)):
        orders = [mod // gcd(mod, a_i) for a_i, mod in zip(a, moduli)]
        k = max(orders, default=1)
        if k == 1:
            classes.append((a, 1))
            continue
        i = orders.index(k)
        if a[i] == moduli[i] // k:
            classes.append((a, k - k // p))
    return tuple(classes)


def character_jumps(m: ReducedCocycle) -> dict[tuple[int, ...], int]:
    """The last jump of chi_a o m for each character a of `character_classes`.

    chi_a sends the part x_i in W_(n_i) of a coefficient to a_i p^(N - n_i)
    times a lift of x_i to W_N, which is well defined because p^(N - n_i)
    kills the lifting ambiguity: on Galois-ring coefficients it is the
    coefficients of x_i times a_i p^(N - n_i), mod p^N.  As in `last_jump`,
    an image of order p^N // gcd(p^N, coefficients) at index n has jump
    n * (order // p), and the jump of chi_a o m is the largest of these.
    Certificate: the characters detect the order of every coefficient, so
    the largest character jump is the last jump of m.
    """
    p = m.shape.p
    moduli = m.shape.moduli()
    mod = moduli[0] if moduli else 1
    weights = [mod // mod_i for mod_i in moduli]  # p^(N - n_i)
    ramified = [(n, m.support[n]) for n in m.ramified_indices()]
    jumps = {}
    for a, _ in character_classes(m.shape):
        best = 0
        for n, parts in ramified:
            coeffs = [0] * m.field.n
            for a_i, w, part in zip(a, weights, parts):
                if a_i:
                    coeffs = [s + a_i * w * c for s, c in zip(coeffs, part.coeffs)]
            best = max(best, n * (mod // gcd(mod, *coeffs) // p))
        jumps[a] = best
    top = last_jump(m)
    if max(jumps.values()) != top:
        raise InternalInconsistencyError(
            f"largest character jump {max(jumps.values())} differs from "
            f"the last jump {top}")
    return jumps


def discriminant_exponent(m: ReducedCocycle) -> int:
    """Valuation of the discriminant of the etale algebra attached to m.

    Conductor-discriminant formula (Serre, Local Fields, VI.3): the sum over
    the |G| characters chi of the conductor of chi o m, which is its last
    jump + 1 when chi o m is ramified and 0 otherwise.
    """
    jumps = character_jumps(m)
    return sum(count * (jumps[a] + 1)
               for a, count in character_classes(m.shape) if jumps[a])


def inertia_image(m: ReducedCocycle) -> frozenset[tuple[int, ...]]:
    """Elements of the inertia image: the smallest H with unramified quotient.

    By duality it is the common kernel of the characters chi_a for which
    chi_a o m is unramified.
    """
    unramified = [a for a, t in character_jumps(m).items() if not t]
    moduli = m.shape.moduli()
    top = moduli[0] if moduli else 1
    weights = [top // mod for mod in moduli]  # p^(N - n_i)
    return frozenset(
        x for x in product(*(range(mod) for mod in moduli))
        if all(sum(a_i * w * x_i for a_i, w, x_i in zip(a, weights, x)) % top == 0
               for a in unramified))


# ---------------------------------------------------------------------------
# counting by last jump
# ---------------------------------------------------------------------------

def count_by_last_jump_enumerated(shape: GroupShape, q: int, v: int,
                                  mode: str) -> int:
    """`count_by_last_jump` by exhausting all data: its oracle."""
    _check_count_args(shape, q, v, mode)
    indices = _ramified_indices(shape.p, v)
    unram = shape.order if mode == "homomorphisms" else 1
    _refuse_over_budget(unram * (q ** sum(shape.exponents)) ** len(indices))
    # GF(q) is built only when there is an index to fill (v >= 1), and then
    # the module has no more elements than the candidates counted above
    coeffs = (list(iter_module_elements(shape, field_for_order(q, p=shape.p)))
              if indices else [])
    orders = [_additive_order(x) // shape.p for x in coeffs]
    # per index, the jump each coefficient contributes (0 for the zero one)
    jumps = [[n * order for order in orders] for n in indices]
    count = sum(1 for choice in product(*jumps) if max(choice, default=0) == v)
    return unram * count
