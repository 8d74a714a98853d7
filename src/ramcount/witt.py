"""Truncated p-typical Witt vectors W_L(F_q), held as Galois-ring elements.

With F_q = F_p[x]/(f), f the field's canonical modulus, W_L(F_q) is the
Galois ring GR(p^L, n) = (Z/p^L)[x]/(F), where F is f read with integer
coefficients (Serre, *Local Fields*, II 4-6; Wan, *Lectures on Finite Fields
and Galois Rings*).  A vector is stored as its n coefficients mod p^L:
addition is coefficientwise, a product is one polynomial product mod F
(`gf._mul_mod`, the product GF(q) uses at length 1), and an integer
multiple scales every coefficient.

Components meet the ring only at the edges: the constructor, `components`,
`frobenius`, `repr`, `teichmueller` and `iter_witt_vectors`.  The
Teichmueller lift is tau(b) = C^(p^(L-1)) for any lift C of
b^(p^-(L-1)), and the vector (a_0, .., a_(L-1)) is sum_i p^i
tau(a_i^(p^-i)).  Going back, c = x mod p gives a_i = c^(p^i), then
x <- (x - tau(c)) / p.  That division must be exact; a remainder raises
InternalInconsistencyError, which makes it the integrality certificate of
this module.  The Witt Frobenius is componentwise x -> x^p, and
`frobenius` computes it so: to the components, their p-th powers, and back.

Each ring is built once per (field, L) and cached for the process lifetime,
with its Teichmueller lifts memoised per element.  Every cached value is a
function of its key, so the module is safe to use concurrently.
"""

from __future__ import annotations

from functools import cache
from itertools import product

from .errors import InternalInconsistencyError, MixedFieldsError, MixedRingsError
from .gf import FieldDescriptor, FieldElement, _fold_rows, _mul_mod, _pow_mod


class _GaloisRing:
    """GR(p^L, n): coefficient tuples mod p^L, multiplied modulo F."""

    __slots__ = ("field", "length", "mod", "one", "_xpow", "_lifts")

    def __init__(self, field: FieldDescriptor, length: int):
        n = field.n
        self.field = field
        self.length = length
        self.mod = mod = field.p ** length
        self.one = (1,) + (0,) * (n - 1)
        self._xpow = _fold_rows(field.modulus, mod)
        self._lifts: dict[tuple[int, ...], tuple[int, ...]] = {}

    def mul(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        return _mul_mod(a, b, self._xpow, self.mod)

    def lift(self, b: FieldElement) -> tuple[int, ...]:
        """The Teichmueller lift tau(b), memoised.

        tau(b) = C^(p^(L-1)) for any lift C of c = b^(p^-(L-1)): C is
        congruent to tau(c) mod p, so their p^(L-1)-th powers agree mod p^L,
        and tau(c)^(p^(L-1)) = tau(b).  That is L - 1 p-th powers in the
        ring, where B^(q^(L-1)) for a lift B of b would take n (L - 1).
        """
        t = self._lifts.get(b.coeffs)
        if t is None:
            p, k = self.field.p, self.length - 1
            c = b ** p ** (-k % self.field.n)
            t = _pow_mod(c.coeffs, p ** k, self._xpow, self.mod)
            self._lifts[b.coeffs] = t
        return t

    def from_components(self, comps: tuple[FieldElement, ...]) -> tuple[int, ...]:
        """sum_i p^i tau(a_i^(p^-i)), starting from tau(a_0) and skipping
        the identity powers: a length-1 vector is one memoised lift."""
        field, mod = self.field, self.mod
        p, n = field.p, field.n
        acc = self.lift(comps[0])
        scale = 1
        for i in range(1, len(comps)):
            scale *= p
            a = comps[i]
            if a:
                k = -i % n
                t = self.lift(a ** p ** k if k else a)
                acc = tuple((x + scale * y) % mod for x, y in zip(acc, t))
        return acc

    def components(self, x: tuple[int, ...]) -> tuple[FieldElement, ...]:
        """a_i = c^(p^i) for c = x mod p, then x <- (x - tau(c)) / p."""
        field = self.field
        p, n = field.p, field.n
        out = []
        for i in range(self.length):
            c = FieldElement(field, tuple(v % p for v in x))
            k = i % n
            out.append(c ** p ** k if k else c)
            if i + 1 < self.length:
                shifted = []
                for v, t in zip(x, self.lift(c)):
                    quotient, rest = divmod(v - t, p)
                    if rest:
                        raise InternalInconsistencyError(
                            f"Teichmueller digit {c} of W_{self.length}({field}) "
                            "leaves a remainder mod p")
                    shifted.append(quotient)
                x = tuple(shifted)
        return tuple(out)

    def frobenius(self, x: tuple[int, ...]) -> tuple[int, ...]:
        """a_i -> a_i^p on the components (Serre, *Local Fields*, II 6)."""
        return self.from_components(
            tuple(c.frobenius() for c in self.components(x)))


@cache
def _galois_ring(field: FieldDescriptor, length: int) -> _GaloisRing:
    if length < 1:
        raise ValueError("Witt length must be positive")
    return _GaloisRing(field, length)


def _vector(ring: _GaloisRing, coeffs: tuple[int, ...]) -> "WittVector":
    v = object.__new__(WittVector)
    v.ring = ring
    v.coeffs = coeffs
    return v


class WittVector:
    """An element of W_L(F_q); immutable, with ring operations."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, field: FieldDescriptor, components: tuple[FieldElement, ...]):
        self.ring = ring = _galois_ring(field, len(components))
        for a in components:
            if a.field is not field:
                raise MixedFieldsError(f"component over {a.field}, not {field}")
        self.coeffs = ring.from_components(components)

    @classmethod
    def one(cls, field: FieldDescriptor, length: int) -> "WittVector":
        ring = _galois_ring(field, length)
        return _vector(ring, ring.one)

    @classmethod
    def from_int(cls, field: FieldDescriptor, length: int, k: int) -> "WittVector":
        """The image of the integer k, i.e. k times the multiplicative identity."""
        return cls.one(field, length).scale(k)

    @property
    def field(self) -> FieldDescriptor:
        return self.ring.field

    @property
    def length(self) -> int:
        return self.ring.length

    @property
    def components(self) -> tuple[FieldElement, ...]:
        return self.ring.components(self.coeffs)

    def _check(self, other: "WittVector") -> None:
        if other.ring is not self.ring:
            raise MixedRingsError(
                f"W_{self.length}({self.field}) vs W_{other.length}({other.field})")

    def __add__(self, other: "WittVector") -> "WittVector":
        self._check(other)
        mod = self.ring.mod
        return _vector(self.ring, tuple(
            (a + b) % mod for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "WittVector":
        mod = self.ring.mod
        return _vector(self.ring, tuple(-a % mod for a in self.coeffs))

    def __sub__(self, other: "WittVector") -> "WittVector":
        self._check(other)
        mod = self.ring.mod
        return _vector(self.ring, tuple(
            (a - b) % mod for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: "WittVector") -> "WittVector":
        self._check(other)
        return _vector(self.ring, self.ring.mul(self.coeffs, other.coeffs))

    def frobenius(self) -> "WittVector":
        """Componentwise x -> x^p; a ring automorphism since F_q is perfect."""
        return _vector(self.ring, self.ring.frobenius(self.coeffs))

    def artin_schreier(self) -> "WittVector":
        """frobenius(self) - self; additive, with kernel W_L(F_p)."""
        return self.frobenius() - self

    def mul_by_p(self) -> "WittVector":
        return self.scale(self.field.p)

    def scale(self, k: int) -> "WittVector":
        """k * self for an integer k."""
        mod = self.ring.mod
        return _vector(self.ring, tuple(a * k % mod for a in self.coeffs))

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, WittVector)
                and self.ring is other.ring and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.coeffs, self.field.p, self.field.n, self.length))

    def __repr__(self):
        inner = ", ".join(repr(c.coeffs) for c in self.components)
        return f"W({inner})"


def teichmueller(x: FieldElement, length: int) -> WittVector:
    """The multiplicative lift x -> (x, 0, ..., 0)."""
    ring = _galois_ring(x.field, length)
    return _vector(ring, ring.lift(x))


def iter_witt_vectors(field: FieldDescriptor, length: int):
    """All of W_length(field), components in lexicographic order."""
    for comps in product(field.iter_elements(), repeat=length):
        yield WittVector(field, comps)
