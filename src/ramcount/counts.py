"""Closed-form local counts: integer arithmetic in q, no field and no datum.

The abelian count by last jump and the dihedral counts by last jump are
polynomials in the residue cardinality q, so evaluating one needs only the
prime-power check on q and the group shape; this module holds those and
the bounds every module shares.  It imports nothing of the library but
`errors`, so a query that prints a closed form compiles no finite field,
Witt vector or datum code.
"""

from __future__ import annotations

from collections import namedtuple
from math import isqrt

from .errors import GroupTooLargeError, MixedFieldsError, NonPrimeError

MAX_GROUP_ORDER = 1 << 12
MAX_JUMP = 64
DEFAULT_BUDGET = 5_000_000


def _least_divisor(n: int) -> int:
    """The least divisor of n >= 2 above 1, which is prime, by trial division."""
    return next((d for d in range(2, isqrt(n) + 1) if n % d == 0), n)


def prime_power(q: int, p: int | None = None) -> tuple[int, int]:
    """(p, n) with q = p^n, optionally checking the characteristic."""
    if q < 2:
        raise NonPrimeError(f"{q} is not a prime power")
    base = _least_divisor(q)  # the only prime q can be a power of
    n, m = 0, q
    while m % base == 0:
        m //= base
        n += 1
    if m != 1:
        raise NonPrimeError(f"{q} is not a prime power")
    if p is not None and base != p:
        if p < 2 or p % base == 0:  # then p is not prime
            raise NonPrimeError(f"{p} is not prime")
        raise MixedFieldsError(f"{q} is not a power of {p}")
    return base, n


class GroupShape(namedtuple("GroupShape", "p exponents")):
    """G = prod Z/p^(n_i) with nonincreasing positive exponents.

    The empty shape is allowed and denotes the trivial group.
    """

    __slots__ = ()

    def __new__(cls, p: int, exponents: tuple[int, ...]):
        if any(e <= 0 for e in exponents):
            raise ValueError("exponents must be positive")
        if any(a < b for a, b in zip(exponents, exponents[1:])):
            raise ValueError("exponents must be nonincreasing")
        self = super().__new__(cls, p, exponents)
        if self.order > MAX_GROUP_ORDER:
            raise GroupTooLargeError(
                f"group order {self.order} exceeds {MAX_GROUP_ORDER}")
        return self

    @property
    def rank(self) -> int:
        return len(self.exponents)

    @property
    def order(self) -> int:
        return self.p ** sum(self.exponents)

    def moduli(self) -> tuple[int, ...]:
        return tuple(self.p ** e for e in self.exponents)


def mu(v: int, n: int, p: int) -> int:
    """#{k >= 0 : n * p^k < v}."""
    count = 0
    bound = n
    while bound < v:
        count += 1
        bound *= p
    return count


# ---------------------------------------------------------------------------
# abelian data by last jump
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

    mode "homomorphisms" counts the |G| classes of the index-0 coefficient
    (the unramified twists); mode "inertial_types" omits index 0 entirely.
    The jump never depends on the index-0 coefficient, so it enters as a
    plain multiplier.  The last jump is a max over indices, so the count is
    a difference of two products of torsion sizes; no field is built.
    """
    _check_count_args(shape, q, v, mode)
    unram = shape.order if mode == "homomorphisms" else 1
    if v == 0:
        return unram  # exactly the unramified data
    return unram * (_count_jump_at_most(shape, q, v)
                    - _count_jump_at_most(shape, q, v - 1))


# ---------------------------------------------------------------------------
# dihedral data by last jump
# ---------------------------------------------------------------------------

def _check_jump(v: int) -> None:
    if v < 0:
        raise ValueError("jump must be nonnegative")
    if v > MAX_JUMP:
        raise ValueError(f"jump {v} exceeds {MAX_JUMP}")


def _min_lift_closed_form(q: int, v: int) -> int:
    if v == 0:
        return 1
    if v % 2:
        return 2 * q ** ((v - 1) // 2) * (q - 1)
    return (v // 2) * q ** (v // 2 - 1) * (q - 1) ** 2


def _d4_le(q: int, v: int) -> int:
    """q^k (2q^k + q^m (m(q - 1) - 1)), k = ceil(v/2), m = floor(v/2); the
    bracket sums the min-lift counts over w <= v: 1 at w = 0, 2q^k - 2 at odd w,
    and (q - 1)^2 sum_{0<j<=m} j q^(j-1) = m q^(m+1) - (m+1) q^m + 1 at w = 2j."""
    k, m = (v + 1) // 2, v // 2
    return q ** k * (2 * q ** k + q ** m * (m * (q - 1) - 1))


def _d4_exact(q: int, v: int) -> int:
    """`count_d4_exact` as a polynomial in q, which is not validated."""
    _check_jump(v)
    if v == 0:
        return 1
    return _d4_le(q, v) - _d4_le(q, v - 1)


def count_d4_le(q: int, v: int) -> int:
    """One-eighth of the number of dihedral data with last jump <= v; q must
    be a power of 2."""
    prime_power(q, p=2)
    _check_jump(v)
    return _d4_le(q, v)


def count_d4_exact(q: int, v: int) -> int:
    """One-eighth of the number of dihedral data with last jump exactly v;
    q must be a power of 2."""
    prime_power(q, p=2)
    return _d4_exact(q, v)
