"""Truncated p-typical Witt vectors W_n(F_q).

The ring laws come from the universal sum and product polynomials, solved
once per (p, n) from the ghost-component equations over the integers.  With

    w_k(X) = X_0^(p^k) + p X_1^(p^(k-1)) + ... + p^k X_k,

the sum polynomials satisfy w_k(S_0..S_k) = w_k(X) + w_k(Y), which pins
down S_k after an exact division by p^k; a nonzero remainder would mean a
bookkeeping bug, so the division doubles as the integrality certificate,
and the ghost identity is re-checked symbolically from the stored
polynomials before anything is reduced mod p.  Product polynomials are
produced the same way from w_k(P) = w_k(X) * w_k(Y), but only on the first
multiplication at that (p, n): at n = 6 they cost about twice as much to
solve as the sums, which addition alone never needs.  The reduced tables
are cached for the process lifetime; everything downstream of the cache is
pure and safe to use concurrently.  A law is evaluated monomial by
monomial.  In a field with log tables (q <= 64) each power of a component
is one lookup; in a larger field a power is a square-and-multiply, so the
powers are shared between the monomials of one law.

Over a perfect coefficient field, multiplication by p coincides with
(x_0, .., x_{n-1}) -> (0, x_0^p, .., x_{n-2}^p), which is how `mul_by_p`
is evaluated; tests compare it against repeated addition.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    InternalInconsistencyError,
    LengthTooLargeError,
    MixedRingsError,
)
from .gf import FieldDescriptor, FieldElement

MAX_LENGTH = 6

# ---------------------------------------------------------------------------
# sparse integer polynomials: dict mapping exponent tuples to coefficients
# ---------------------------------------------------------------------------


def _pd_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _pd_scale(a: dict, k: int) -> dict:
    if k == 0:
        return {}
    return {e: c * k for e, c in a.items()}


def _pd_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = out.get(e, 0) + ca * cb
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def _pd_pow(a: dict, e: int, width: int) -> dict:
    result = {(0,) * width: 1}
    base = a
    while e:
        if e & 1:
            result = _pd_mul(result, base)
        base = _pd_mul(base, base) if e > 1 else base
        e >>= 1
    return result


def _monomial(width: int, var: int, exp: int, coeff: int) -> dict:
    key = tuple(exp if i == var else 0 for i in range(width))
    return {key: coeff}


def _ghost(p: int, k: int, offset: int, width: int) -> dict:
    out: dict = {}
    for i in range(k + 1):
        out = _pd_add(out, _monomial(width, offset + i, p ** (k - i), p ** i))
    return out


def _exact_div(a: dict, d: int) -> dict:
    out = {}
    for e, c in a.items():
        q, r = divmod(c, d)
        if r:
            raise InternalInconsistencyError(
                "ghost recursion produced a non-integral coefficient")
        out[e] = q
    return out


def _solve_laws(p: int, n: int, targets: list[dict], width: int) -> list[dict]:
    polys: list[dict] = []
    for k in range(n):
        acc: dict = {}
        for i in range(k):
            acc = _pd_add(acc, _pd_scale(_pd_pow(polys[i], p ** (k - i), width), p ** i))
        diff = _pd_add(targets[k], _pd_scale(acc, -1))
        polys.append(_exact_div(diff, p ** k))
    # independent symbolic re-check of the defining ghost identities
    for k in range(n):
        ghost_of_result: dict = {}
        for i in range(k + 1):
            ghost_of_result = _pd_add(
                ghost_of_result,
                _pd_scale(_pd_pow(polys[i], p ** (k - i), width), p ** i))
        if ghost_of_result != targets[k]:
            raise InternalInconsistencyError("ghost identity failed on re-check")
    return polys


_Term = tuple[int, tuple[int, ...]]


def _reduce_mod_p(poly: dict, p: int) -> tuple[_Term, ...]:
    terms = []
    for e, c in sorted(poly.items()):
        c %= p
        if c:
            terms.append((c, e))
    return tuple(terms)


def _reduced_laws(p: int, n: int, combine) -> tuple[tuple[_Term, ...], ...]:
    """Laws with ghost components combine(w_k(X), w_k(Y)), reduced mod p."""
    width = 2 * n
    targets = [combine(_ghost(p, k, 0, width), _ghost(p, k, n, width))
               for k in range(n)]
    return tuple(_reduce_mod_p(s, p) for s in _solve_laws(p, n, targets, width))


@lru_cache(maxsize=None)
def _product_laws(p: int, n: int) -> tuple[tuple[_Term, ...], ...]:
    return _reduced_laws(p, n, _pd_mul)


@dataclass(frozen=True)
class WittLawTable:
    """Universal addition/multiplication polynomials mod p for W_n.

    The sums are solved with the table; `prod_polys` is solved and
    certified on first access and then shared by every table of that
    (p, n).
    """
    p: int
    length: int
    sum_polys: tuple[tuple[_Term, ...], ...]

    @property
    def prod_polys(self) -> tuple[tuple[_Term, ...], ...]:
        return _product_laws(self.p, self.length)


@lru_cache(maxsize=None)
def witt_laws(p: int, n: int) -> WittLawTable:
    """Memoised law table for W_n(characteristic-p rings)."""
    if n > MAX_LENGTH:
        raise LengthTooLargeError(f"Witt length {n} exceeds {MAX_LENGTH}")
    if n < 1:
        raise ValueError("Witt length must be positive")
    return WittLawTable(p, n, _reduced_laws(p, n, _pd_add))


def _eval_terms(terms: tuple[_Term, ...], field: FieldDescriptor,
                vals: tuple[FieldElement, ...]) -> FieldElement:
    # the laws have no constant term, so every monomial has a variable
    total = field.zero
    # without log tables a power costs several products: reuse each one
    powers = None if field._log_tables() else {}
    for coeff, exps in terms:
        acc = None
        for idx, e in enumerate(exps):
            if not e:
                continue
            if powers is None:
                v = vals[idx] ** e
            else:
                v = powers.get((idx, e))
                if v is None:
                    v = powers[idx, e] = vals[idx] ** e
            acc = v if acc is None else acc * v
        if coeff != 1:
            acc = acc * field.from_prime(coeff)
        total = total + acc
    return total


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------

class WittVector:
    """An element of W_n(F_q); immutable, with ring operations."""

    __slots__ = ("field", "components")

    def __init__(self, field: FieldDescriptor, components: tuple[FieldElement, ...]):
        self.field = field
        self.components = components

    @classmethod
    def zeros(cls, field: FieldDescriptor, length: int) -> "WittVector":
        return cls(field, (field.zero,) * length)

    @classmethod
    def one(cls, field: FieldDescriptor, length: int) -> "WittVector":
        return cls(field, (field.one,) + (field.zero,) * (length - 1))

    @classmethod
    def from_int(cls, field: FieldDescriptor, length: int, k: int) -> "WittVector":
        """The image of the integer k, i.e. k times the multiplicative identity."""
        return cls.one(field, length).scale(k)

    @property
    def length(self) -> int:
        return len(self.components)

    def _check(self, other: "WittVector") -> None:
        if self.field != other.field or self.length != other.length:
            raise MixedRingsError(
                f"W_{self.length}({self.field}) vs W_{other.length}({other.field})")

    def __add__(self, other: "WittVector") -> "WittVector":
        self._check(other)
        if self.length == 1:
            return WittVector(self.field, (self.components[0] + other.components[0],))
        table = witt_laws(self.field.p, self.length)
        vals = self.components + other.components
        return WittVector(self.field, tuple(
            _eval_terms(terms, self.field, vals) for terms in table.sum_polys))

    def __neg__(self) -> "WittVector":
        if self.length == 1:
            return WittVector(self.field, (-self.components[0],))
        # S_k = X_k + Y_k + h(X_<k, Y_<k): solve S(x, y) = 0 triangularly
        table = witt_laws(self.field.p, self.length)
        ys: list[FieldElement] = []
        pad = [self.field.zero] * self.length
        for k in range(self.length):
            vals = self.components + tuple(ys) + tuple(pad[k:])
            ys.append(-_eval_terms(table.sum_polys[k], self.field, vals))
        return WittVector(self.field, tuple(ys))

    def __sub__(self, other: "WittVector") -> "WittVector":
        return self + (-other)

    def __mul__(self, other: "WittVector") -> "WittVector":
        self._check(other)
        if self.length == 1:
            return WittVector(self.field, (self.components[0] * other.components[0],))
        table = witt_laws(self.field.p, self.length)
        vals = self.components + other.components
        return WittVector(self.field, tuple(
            _eval_terms(terms, self.field, vals) for terms in table.prod_polys))

    def frobenius(self) -> "WittVector":
        """Componentwise x -> x^p; a ring endomorphism since F_q is perfect."""
        return WittVector(self.field, tuple(c.frobenius() for c in self.components))

    def artin_schreier(self) -> "WittVector":
        """frobenius(self) - self; additive, with kernel W_n(F_p)."""
        return self.frobenius() - self

    def mul_by_p(self) -> "WittVector":
        """p * self, via the shift-and-Frobenius form valid over perfect fields."""
        comps = (self.field.zero,) + tuple(
            c.frobenius() for c in self.components[:-1])
        return WittVector(self.field, comps)

    def scale(self, k: int) -> "WittVector":
        """k * self for an integer k (reduced mod p^length automatically)."""
        k %= self.field.p ** self.length
        result = WittVector.zeros(self.field, self.length)
        base = self
        while k:
            if k & 1:
                result = result + base
            base = base + base if k > 1 else base
            k >>= 1
        return result

    def truncate(self, length: int) -> "WittVector":
        if length > self.length:
            raise ValueError("truncation cannot lengthen a Witt vector")
        return WittVector(self.field, self.components[:length])

    def zero_extend(self, length: int) -> "WittVector":
        """Pad with zero components; only meaningful up to p^length ambiguity."""
        if length < self.length:
            raise ValueError("extension cannot shorten a Witt vector")
        pad = (self.field.zero,) * (length - self.length)
        return WittVector(self.field, self.components + pad)

    def __bool__(self) -> bool:
        return any(self.components)

    def __eq__(self, other):
        return (isinstance(other, WittVector)
                and self.components == other.components
                and self.field == other.field)

    def __hash__(self):
        return hash((self.components, self.field.p, self.field.n))

    def __repr__(self):
        inner = ", ".join(repr(c.coeffs) for c in self.components)
        return f"W({inner})"


def teichmueller(x: FieldElement, length: int) -> WittVector:
    """The multiplicative lift x -> (x, 0, ..., 0)."""
    pad = (x.field.zero,) * (length - 1)
    return WittVector(x.field, (x,) + pad)


def iter_witt_vectors(field: FieldDescriptor, length: int):
    """All of W_length(field), components in lexicographic order."""
    from itertools import product as _product
    for comps in _product(field.elements(), repeat=length):
        yield WittVector(field, comps)
