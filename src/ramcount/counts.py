"""Closed-form local counts: integer arithmetic in q, no field and no datum.

The abelian count by last jump and the dihedral counts by last jump are
polynomials in the residue cardinality q, so evaluating one needs only the
prime-power check on q and the group shape, of any order, at any jump.  This
module holds those, the jump range v >= 0, the one budget by which every path
sizes its work and its printed answer before it starts, and the two rules of
the datum grammar, base-p digits and support indices.  It imports nothing of
the library but `errors`, so a query that prints a closed form, or `lj`,
compiles no finite field, Witt vector or datum code.
"""

from __future__ import annotations

from collections import namedtuple
from math import isqrt

from .errors import (
    BudgetExceededError,
    MixedFieldsError,
    NonPrimeError,
    PrimalityRangeError,
)

DEFAULT_BUDGET = 5_000_000
_TRIAL_BITS = 10  # trial division tries every divisor up to 2^10


def _refuse_over_budget(size: int, what: str = "candidates",
                        exponent: int = 1) -> None:
    """The one refusal over DEFAULT_BUDGET, made before any work: size **
    exponent counts the candidates an oracle would build, or else the work
    named by `what`.  A count that its bit length puts at 2^64 or more is
    stated by that bound, not built and printed in full."""
    bits = (size.bit_length() - 1) * exponent  # size ** exponent >= 2 ** bits
    if bits >= 64 or size ** exponent > DEFAULT_BUDGET:
        stated = f"at least 2^{bits}" if bits >= 64 else size ** exponent
        raise BudgetExceededError(f"{stated} {what} exceed {DEFAULT_BUDGET}")


def _refuse_to_print(count: int, bits: int, what: str) -> None:
    """Refuse over the budget an answer of `count` integers of at most `bits`
    bits.  Python 3.10 and 3.11 print an integer in time quadratic in its
    length, so each counts ceil(bits / 256)^2 products of 256-bit words: at
    the budget, one of 572,000 bits prints in about half a second here."""
    _refuse_over_budget(count * ((bits + 255) // 256) ** 2,
                        what=f"word products to print {what}")


def _check_jump(v: int) -> None:
    """The one statement of the jump range v >= 0."""
    if v < 0:
        raise ValueError("jump must be nonnegative")


def base_p_digits(text: str, p: int, n: int) -> tuple[int, ...]:
    """The one digit rule: an element of GF(p^n) is written as n base-p
    ASCII digits, constant digit first."""
    if len(text) != n or not all("0" <= ch <= "9" and int(ch) < p
                                 for ch in text):
        raise ValueError(f"expected {n} base-{p} digits, got {text!r}")
    return tuple(map(int, text))


def check_support_index(n: int, p: int) -> None:
    """The one support-index rule of a reduced datum: n = 0 or n coprime to p."""
    if n < 0 or (n > 0 and n % p == 0):
        raise ValueError(f"support index {n} must be 0 or coprime to {p}")


def _least_divisor(n: int) -> int:
    """The least divisor of n >= 2 above 1, which is prime, by trial division
    up to 2^_TRIAL_BITS, so exact for n below 2^(2 _TRIAL_BITS).  Past that,
    n itself means that every prime factor of n exceeds 2^_TRIAL_BITS."""
    bound = min(isqrt(n), 1 << _TRIAL_BITS)
    return next((d for d in range(2, bound + 1) if n % d == 0), n)


# Miller-Rabin to the prime bases up to 41 has no strong pseudoprime below
# this bound (Sorenson and Webster, "Strong pseudoprimes to twelve prime
# bases", Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Whether n is prime, by Miller-Rabin: a witness proves n composite at
    any size, and no witness proves it prime only below _MR_EXACT_BELOW,
    so a larger n that no base witnesses is refused."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    d = (n - 1) >> s
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_EXACT_BELOW:
        raise PrimalityRangeError(
            f"cannot decide whether {n} is prime: the test is exact below "
            f"{_MR_EXACT_BELOW}")
    return True


def _valuation(q: int, p: int) -> tuple[int, int]:
    """(n, m) with q = p^n * m and m prime to p, for p >= 2: q = (p^2)^k * r
    with p^2 not dividing r, by recursion on p^2, so a large n costs log2(n)
    divisions, not n."""
    if q % p:
        return 0, q
    k, r = _valuation(q, p * p)
    return (2 * k + 1, r // p) if r % p == 0 else (2 * k, r)


def _iroot(n: int, k: int) -> int:
    """The integer part of the k-th root of n >= 1, by Newton's method."""
    x = 1 << -(-n.bit_length() // k)  # not below the root
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _prime_base(q: int) -> int | None:
    """The prime that q >= 2 is a power of, or None.

    Trial division finds a base below 2^_TRIAL_BITS.  Otherwise every prime
    factor of q exceeds 2^_TRIAL_BITS, so q = r^k only for k below
    log2(q) / _TRIAL_BITS, and q is a prime power exactly when its least
    root r (the largest such k) is prime.
    """
    d = _least_divisor(q)
    if d < q:
        return d if _valuation(q, d)[1] == 1 else None
    for k in range((q.bit_length() - 1) // _TRIAL_BITS, 1, -1):
        r = _iroot(q, k)
        if r ** k == q:
            return r if _is_prime(r) else None
    return q if _is_prime(q) else None


def prime_power(q: int, p: int | None = None) -> tuple[int, int]:
    """(p, n) with q = p^n, optionally checking the characteristic.

    A q that is a power of the given prime p is answered by dividing out p;
    any other q is placed by `_prime_base`, which chooses the message.
    """
    if q < 2:
        raise NonPrimeError(f"{q} is not a prime power")
    if p is not None and p >= 2:
        n, rest = _valuation(q, p)
        if rest == 1 and _is_prime(p):
            return p, n
    base = _prime_base(q)
    if base is None:
        raise NonPrimeError(f"{q} is not a prime power")
    if p is not None:  # q is a power of base, and base is not p
        if p < 2 or p % base == 0:  # then p is not prime
            raise NonPrimeError(f"{p} is not prime")
        raise MixedFieldsError(f"{q} is not a power of {p}")
    return base, _valuation(q, base)[0]


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
        return super().__new__(cls, p, exponents)

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

def _check_count_args(shape: GroupShape, q: int, v: int, mode: str) -> None:
    if mode not in ("homomorphisms", "inertial_types"):
        raise ValueError(f"unknown mode {mode!r}")
    _check_jump(v)
    prime_power(q, p=shape.p)


def _jump_exponent(shape: GroupShape, t: int) -> int:
    """log_q of the number of ramified coefficient tuples on indices <= t
    with last jump <= t.

    At index n the jump is n * p^(e - 1) for a coefficient of order p^e, so
    jump <= t means order <= p^(e_n(t)) with e_n(t) = #{k >= 0 : n p^k <= t};
    those coefficients form the p^(e_n(t))-torsion of G tensor W(F_q), which
    has q^(sum_i min(n_i, e_n(t))) elements.  Over the ramified n <= t the
    sum counts the (n, k) with k < n_i and n p^k <= t, one per m <= t not
    divisible by p^(n_i): t - floor(t / p^(n_i)), building no p^(n_i) > 2^t.
    """
    p, bits = shape.p, t.bit_length()
    return sum(t - (t // p ** e if e < bits else 0) for e in shape.exponents)


def count_by_last_jump(shape: GroupShape, q: int, v: int, mode: str) -> int:
    """Exact number of data with support indices <= v and last jump v.

    mode "homomorphisms" counts the |G| classes of the index-0 coefficient
    (the unramified twists); mode "inertial_types" omits index 0 entirely.
    The jump never depends on the index-0 coefficient, so it enters as a
    plain multiplier.  The last jump is a max over indices, so the count is
    a difference of two products of torsion sizes; no field is built.
    """
    _check_count_args(shape, q, v, mode)
    # log_p of the unramified factor, |G| or 1
    unram = sum(shape.exponents) if mode == "homomorphisms" else 0
    top = _jump_exponent(shape, v)
    _refuse_to_print(1, unram * shape.p.bit_length() + top * q.bit_length(),
                     "the count")
    if v == 0:
        return shape.p ** unram  # exactly the unramified data
    return shape.p ** unram * (q ** top - q ** _jump_exponent(shape, v - 1))


# ---------------------------------------------------------------------------
# dihedral data by last jump
# ---------------------------------------------------------------------------

def count_min_lift(q: int, v: int) -> int:
    """Quarter-count of Klein reductions with minimal lift jump exactly v;
    q must be a power of 2.  Its oracle is `d4.count_min_lift_enumerated`."""
    prime_power(q, p=2)
    _check_jump(v)
    # below 2 q^(k + 1) at v = 2k + 1 and k q^(k + 1) at v = 2k
    _refuse_to_print(1, (v // 2 + 1) * q.bit_length() + v.bit_length(),
                     "the count")
    if v == 0:
        return 1
    if v % 2:
        return 2 * q ** ((v - 1) // 2) * (q - 1)
    return (v // 2) * q ** (v // 2 - 1) * (q - 1) ** 2


def _d4_le(q: int, v: int) -> int:
    """q^k (2q^k + q^m (m(q - 1) - 1)), k = ceil(v/2), m = floor(v/2); the
    bracket sums the min-lift counts over w <= v: 1 at w = 0, 2q^k - 2 at odd w,
    and (q - 1)^2 sum_{0<j<=m} j q^(j-1) = m q^(m+1) - (m+1) q^m + 1 at w = 2j.
    As k <= m + 1 it is below (m + 2) q^(v + 1), which sizes it first."""
    _check_jump(v)
    _refuse_to_print(1, (v + 1) * q.bit_length() + v.bit_length() + 2,
                     "the count")
    k, m = (v + 1) // 2, v // 2
    return q ** k * (2 * q ** k + q ** m * (m * (q - 1) - 1))


def _d4_exact(q: int, v: int) -> int:
    """`count_d4_exact` as a polynomial in q, which is not validated."""
    if v == 0:
        return 1
    return _d4_le(q, v) - _d4_le(q, v - 1)


def count_d4_le(q: int, v: int) -> int:
    """One-eighth of the number of dihedral data with last jump <= v; q must
    be a power of 2."""
    prime_power(q, p=2)
    return _d4_le(q, v)


def count_d4_exact(q: int, v: int) -> int:
    """One-eighth of the number of dihedral data with last jump exactly v;
    q must be a power of 2."""
    prime_power(q, p=2)
    return _d4_exact(q, v)
