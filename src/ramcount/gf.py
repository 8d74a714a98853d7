"""Exact arithmetic in small finite fields GF(p^n).

A field is pinned down by its canonical modulus: the lexicographically
smallest monic irreducible polynomial of degree n over F_p, comparing
coefficient vectors constant term first.  The search keeps the first
candidate in that order that passes Ben-Or's test: f of degree n is
irreducible exactly when gcd(x^(p^k) - x, f) = 1 for k = 1 .. n/2, each
x^(p^k) a p-th power by `_pow_mod` (Ben-Or, "Probabilistic algorithms in
finite fields", 1981).  Before the search, `make_field` refuses over the
one budget at n^3 log2(p), the coefficient products of one test.

Elements are dense coefficient vectors over F_p and add componentwise.  In
a field of order at most `_LOG_TABLE_CAP`, multiplication, powers and
inverses are lookups in index tables (Lidl-Niederreiter, *Finite Fields*):
a discrete-log table from coefficient vector to exponent of a primitive
element, and an antilog table from exponent back to element.  The tables
are built on the first multiplication, power or inverse in the field and
published in one attribute assignment.  Larger fields multiply polynomials
modulo the modulus (`_mul_mod`, also the Galois-ring product of
`ramcount.witt`), which serves the tests as the oracle for the tables.
`make_field` builds the only descriptor of each GF(p^n), so fields are
equal when identical.  Every value is immutable, and a field's tables only
ever hold the one value the field determines, so fields and elements can be
shared freely across threads.

Besides the four field operations the module provides the Frobenius map
x -> x^p, the Artin-Schreier operator x -> x^p - x, and a transversal of its
image read off the absolute trace, which lists no element.
"""

from __future__ import annotations

from itertools import product

from .counts import _is_prime, _refuse_over_budget, base_p_digits, prime_power
from .errors import (
    InternalInconsistencyError,
    MixedFieldsError,
    NonPrimeError,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterable, Iterator

# field-order cap for the log/antilog tables: GF(64) is the largest field
# that verify or a benchmark query multiplies in.  Building them took 0.3 ms
# at q = 64 on a 2-vCPU Xeon VM, 1.3 ms at 128 and 4-5 ms at 256, and a
# short cold query above 64 (lj on W_3, disc on Z/4 x Z/2) ran 0.5-4 ms
# slower with the tables than without
_LOG_TABLE_CAP = 64


# ---------------------------------------------------------------------------
# dense polynomials over F_p, constant term first
# ---------------------------------------------------------------------------

def _fold_rows(modulus, mod) -> tuple[tuple[int, ...], ...]:
    """x^k modulo the monic degree-n modulus for k in [n, 2n-2], coefficients
    mod `mod`: the rows that fold a product of two residues back below x^n."""
    n = len(modulus) - 1
    top = tuple(-c % mod for c in modulus[:n])
    rows, cur = [], top
    for _ in range(n, 2 * n - 1):
        rows.append(cur)
        lead = cur[-1]
        cur = tuple((low + lead * t) % mod
                    for low, t in zip((0,) + cur[:-1], top))
    return tuple(rows)


def _mul_mod(a, b, rows, mod) -> tuple[int, ...]:
    """a * b modulo the modulus with these `_fold_rows`, coefficients mod
    `mod`: p in GF(p^n), p^L in the Galois ring GR(p^L, n), of which GF(p^n)
    is the length-1 case (Wan, *Lectures on Finite Fields and Galois Rings*)."""
    n = len(a)
    conv = [0] * (2 * n - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                conv[i + j] += ai * bj
    for k, row in enumerate(rows, n):
        c = conv[k]
        if c:
            for i, r in enumerate(row):
                conv[i] += c * r
    return tuple(c % mod for c in conv[:n])


def _pow_mod(a, e, rows, mod) -> tuple[int, ...]:
    """a^e for e >= 0 by square-and-multiply with `_mul_mod`: powers in
    GF(p^n) and in the Galois ring GR(p^L, n), and Ben-Or's x^(p^k)."""
    result = (1,) + (0,) * (len(a) - 1)
    while e:
        if e & 1:
            result = _mul_mod(result, a, rows, mod)
        e >>= 1
        if e:
            a = _mul_mod(a, a, rows, mod)
    return result


def _coprime(a, b, p) -> bool:
    """Whether a and b over F_p share no factor of positive degree, by
    Euclid's algorithm; a must have a nonzero top coefficient."""
    a, b = list(a), list(b)
    while b:
        if not b[-1]:
            b.pop()
            continue
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):  # a <- a mod b, one top term at a time
            c = a.pop() * inv % p
            for i, bi in enumerate(b[:-1], len(a) - len(b) + 1):
                a[i] = (a[i] - c * bi) % p
        a, b = b, a
    return len(a) == 1


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Ben-Or's test for a monic poly of degree n >= 2 over F_p: x^(p^k) - x
    is the product of the monic irreducibles of degree dividing k."""
    n = len(poly) - 1
    rows = _fold_rows(poly, p)
    xpk = x = (0, 1) + (0,) * (n - 2)
    for _ in range(n // 2):
        xpk = _pow_mod(xpk, p, rows, p)
        if not _coprime(poly, [(c - t) % p for c, t in zip(xpk, x)], p):
            return False
    return True


def _canonical_modulus(p: int, n: int) -> tuple[int, ...]:
    """The lexicographically smallest monic irreducible of degree n over F_p.

    The candidates with nonzero constant term, in that order, are the m in
    [p^(n-1), p^n) read as n base-p digits, constant term most significant.
    One exists for every n >= 1, so running out raises
    InternalInconsistencyError.
    """
    if n == 1:
        return (0, 1)
    weights = [p ** k for k in range(n - 1, -1, -1)]
    for m in range(p ** (n - 1), p ** n):
        cand = tuple(m // w % p for w in weights) + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise InternalInconsistencyError(f"no irreducible of degree {n} over F_{p}")


# ---------------------------------------------------------------------------
# descriptors and elements
# ---------------------------------------------------------------------------

_FIELDS: dict[tuple[int, int], "FieldDescriptor"] = {}


def make_field(p: int, n: int) -> "FieldDescriptor":
    """Return the canonical descriptor for GF(p^n); deterministic and cached."""
    key = (p, n)
    field = _FIELDS.get(key)
    if field is not None:
        return field
    if not _is_prime(p):
        raise NonPrimeError(f"{p} is not prime")
    if n < 1:
        raise ValueError(f"extension degree {n} must be positive")
    # one Ben-Or test: n/2 powerings of about 2 log2(p) products of n^2
    _refuse_over_budget(n ** 3 * p.bit_length(),
                        what=f"coefficient products to build GF({p}^{n})")
    field = FieldDescriptor(p, n, _canonical_modulus(p, n))
    _FIELDS[key] = field
    return field


def field_for_order(q: int, p: int | None = None) -> "FieldDescriptor":
    """Return GF(q) for a prime power q, optionally checking the characteristic."""
    return make_field(*prime_power(q, p))


class FieldDescriptor:
    """GF(p^n) presented as F_p[x] modulo the canonical irreducible modulus."""

    __slots__ = ("p", "n", "modulus", "q", "zero", "one", "gen",
                 "_xpow", "_logs")

    def __init__(self, p: int, n: int, modulus: tuple[int, ...]):
        self.p = p
        self.n = n
        self.modulus = modulus
        self.q = p ** n
        self.zero = FieldElement(self, (0,) * n)
        one = (1,) + (0,) * (n - 1)
        self.one = FieldElement(self, one)
        gen = tuple(1 if i == 1 else 0 for i in range(n)) if n > 1 else one
        self.gen = FieldElement(self, gen)
        self._xpow = _fold_rows(modulus, p)
        self._logs: tuple[dict, tuple] | None = None

    def __repr__(self):
        if self.n == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.n})"

    def _log_tables(self) -> tuple[dict, tuple] | None:
        """(log, antilog) for q <= _LOG_TABLE_CAP, built on first use; else None."""
        if self._logs is None and self.q <= _LOG_TABLE_CAP:
            self._logs = _index_tables(self)
        return self._logs

    def element(self, coeffs: Iterable[int]) -> "FieldElement":
        cs = tuple(int(c) % self.p for c in coeffs)
        if len(cs) != self.n:
            raise ValueError(f"expected {self.n} coefficients, got {len(cs)}")
        return FieldElement(self, cs)

    def from_prime(self, k: int) -> "FieldElement":
        """Image of the integer k under F_p -> GF(p^n)."""
        return FieldElement(self, (k % self.p,) + (0,) * (self.n - 1))

    def iter_elements(self) -> Iterator["FieldElement"]:
        """All field elements in lexicographic coefficient order."""
        for cs in product(range(self.p), repeat=self.n):
            yield FieldElement(self, cs)

    def from_digits(self, text: str) -> "FieldElement":
        """Parse an element from its base-p digit string, constant digit first."""
        return FieldElement(self, base_p_digits(text, self.p, self.n))

    def digits(self, a: "FieldElement") -> str:
        return "".join(str(c) for c in a.coeffs)


class FieldElement:
    """An element of GF(p^n) as a reduced coefficient vector."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldDescriptor, coeffs: tuple[int, ...]):
        self.field = field
        self.coeffs = coeffs

    def _check(self, other: "FieldElement") -> None:
        if self.field is not other.field:
            raise MixedFieldsError(f"{self.field} vs {other.field}")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        p = self.field.p
        return FieldElement(self.field, tuple(
            (a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        p = self.field.p
        return FieldElement(self.field, tuple(
            (a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "FieldElement":
        p = self.field.p
        return FieldElement(self.field, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        f = self.field
        if other.field is not f:
            self._check(other)
        tables = f._logs or f._log_tables()
        if tables is None:
            return self._poly_mul(other)
        log, antilog = tables
        return antilog[log[self.coeffs] + log[other.coeffs]]

    def _poly_mul(self, other: "FieldElement") -> "FieldElement":
        """The product as polynomials modulo the field's modulus."""
        f = self.field
        return FieldElement(f, _mul_mod(self.coeffs, other.coeffs, f._xpow, f.p))

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        return self * other.inverse()

    def __pow__(self, e: int) -> "FieldElement":
        f = self.field
        tables = f._logs or f._log_tables()
        if tables is None:
            if e < 0:
                return self.inverse() ** (-e)
            return FieldElement(f, _pow_mod(self.coeffs, e, f._xpow, f.p))
        log, antilog = tables
        order = f.q - 1
        k = log[self.coeffs]
        if k == 2 * order:  # the log of zero
            if e < 0:
                raise ZeroDivisionError("inverse of zero field element")
            return f.one if e == 0 else f.zero
        return antilog[k * e % order]

    def inverse(self) -> "FieldElement":
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        return self ** (self.field.q - 2)

    def frobenius(self) -> "FieldElement":
        """The absolute Frobenius x -> x^p."""
        return self ** self.field.p

    def artin_schreier(self) -> "FieldElement":
        """x -> x^p - x; the kernel on GF(p^n) is exactly F_p."""
        return self.frobenius() - self

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, FieldElement)
                and self.coeffs == other.coeffs and self.field is other.field)

    def __hash__(self):
        return hash((self.coeffs, self.field.p, self.field.n))

    def __repr__(self):
        return f"{self.field}:{''.join(str(c) for c in self.coeffs)}"


def _index_tables(field: FieldDescriptor) -> tuple[dict, tuple]:
    """Discrete-log and antilog tables of the first primitive element.

    With g the lexicographically first element of order q - 1 (found by
    walking the powers of each candidate with the polynomial product),
    log maps the coefficients of g^k to k for 0 <= k < q - 1, and the
    antilog table lists g^0 .. g^(q-2) twice, so a sum of two logs indexes
    it without a reduction.  Zero gets the log 2(q - 1), and the antilog
    table ends in 2(q - 1) + 1 zeros, so a product with a zero factor reads
    zero without a branch.
    """
    order = field.q - 1
    one = field.one
    for g in field.iter_elements():
        if not g:
            continue
        powers = [one]
        cur = g
        while cur.coeffs != one.coeffs:
            powers.append(cur)
            cur = cur._poly_mul(g)
        if len(powers) == order:
            break
    else:
        raise InternalInconsistencyError(f"{field} has no primitive element")
    log = {x.coeffs: k for k, x in enumerate(powers)}
    log[field.zero.coeffs] = 2 * order
    antilog = tuple(powers) * 2 + (field.zero,) * (2 * order + 1)
    return log, antilog


# ---------------------------------------------------------------------------
# Artin-Schreier cosets
# ---------------------------------------------------------------------------

def _power_sums(modulus: tuple[int, ...], p: int) -> list[int]:
    """Tr(x^i) in F_p[x]/(f) for 0 <= i < n: the power sums s_i of the roots
    of f, by Newton's identities s_0 = n, s_k = -(k f_(n-k) + sum_(0<i<k)
    f_(n-i) s_(k-i)) mod p."""
    n = len(modulus) - 1
    sums = [n % p]
    for k in range(1, n):
        sums.append(-(k * modulus[n - k] + sum(
            modulus[n - i] * sums[k - i] for i in range(1, k))) % p)
    return sums


def wp_transversal(field: FieldDescriptor) -> tuple[FieldElement, ...]:
    """c x^j for c in range(p), j the last i < n with Tr(x^i) != 0: the
    lexicographically first element of each coset of the Artin-Schreier
    image, which is the kernel of the trace (additive Hilbert 90).  The
    coefficients after x^j add trace 0, and the first representative, 0,
    stands for the image itself."""
    p, n = field.p, field.n
    j = max(i for i, s in enumerate(_power_sums(field.modulus, p)) if s)
    return tuple(FieldElement(field, (0,) * j + (c,) + (0,) * (n - 1 - j))
                 for c in range(p))

