"""Global counting over F_q(T): place census, Euler products, growth table.

A global count by total jump (summed over places with degree weights) is
the Euler product G(t) = prod_d E(q^d, t^d)^(pi_d) of the local series
E(Q, t) = sum_v e_v(Q) t^v over the pi_d places of degree d.  Since
e_0 = 1, t E'/E has integer coefficients lambda_k = k e_k - sum_{0<i<k}
e_i lambda_(k-i), so t G'/G = sum_m c_m t^m, with c_(dk) summing
d pi_d lambda_k, and m h_m = sum_{0<j<=m} c_j h_(m-j) gives the
coefficients of G.  They are integers, so each division by m is exact: a
remainder, or a local e_0 other than 1, raises InternalInconsistencyError,
an integrality certificate.  Its oracle, `convolution_oracle`, multiplies
the local series out one place at a time, with no logarithm and no division,
and refuses over the one enumeration budget.  No truncation is capped: each
series states a bound on the bits of [t^X], sizes its work by it before the
census, and the census refuses at the bits its zeta self-check compares.
Everything is exact (integers, and Fractions for growth ratios), and every
local coefficient is a closed form of `ramcount.counts`, so the module
imports no field or datum code.
"""

from __future__ import annotations

from collections import namedtuple
from math import isqrt

from .counts import (
    _check_jump,
    _d4_exact,
    _least_divisor,
    _refuse_over_budget,
    count_by_last_jump,
    prime_power,
)
from .errors import InternalInconsistencyError

TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction
    from typing import Callable

    from .counts import GroupShape

    LocalCoefficient = Callable[[int, int], int]


def mobius(n: int) -> int:
    result = 1
    while n > 1:
        d = _least_divisor(n)
        n //= d
        if n % d == 0:
            return 0
        result = -result
    return result


def place_census(q: int, max_degree: int) -> tuple[tuple[int, int], ...]:
    """Number of places of F_q(T) by degree (monic irreducibles plus
    infinity): ((degree, places), ...) in ascending degree."""
    prime_power(q)
    if max_degree < 0:
        raise ValueError(f"census degree {max_degree} must be nonnegative")
    # the zeta self-check: two sides of about m log2(q) bits for each m
    _refuse_over_budget(max_degree ** 2 * (q - 1).bit_length(),
                        what=f"bits compared by the census to degree {max_degree}")
    counts = {}
    for d in range(1, max_degree + 1):
        total = sum(mobius(d // e) * q ** e for e in range(1, d + 1) if d % e == 0)
        pi, rest = divmod(total, d)
        if d == 1:
            pi += 1  # the infinite place has degree 1
        if rest or pi <= 0:
            raise InternalInconsistencyError(
                f"place census has no positive integral count at degree {d}")
        counts[d] = pi
    # zeta self-check: sum over divisors of d * pi(d) recovers q^m + 1
    for m in range(1, max_degree + 1):
        acc = sum(d * counts[d] for d in counts if m % d == 0)
        if acc != q ** m + 1:
            raise InternalInconsistencyError(
                "place census failed its zeta identity")
    return tuple(sorted(counts.items()))


def _refuse_series(truncation: int, bits: int) -> None:
    """Refuse over the budget, before the census, a series to t^X whose
    coefficients have at most `bits` bits, W words of 256 bits, in word
    products.  Printing its X + 1 coefficients counts (X + 1) W^2, as
    `counts._refuse_to_print` does.  Its exp-log makes about 4 (X + 1)^2 / 3
    products of operands with at most W words between them, mostly far
    fewer, and CPython multiplies large ones by Karatsuba, so each counts
    W^1.5 / 8 (fitted on a 2-vCPU Xeon VM) and at least 1."""
    _check_jump(truncation)  # [t^X] reads the degree-1 local count at jump X
    words = (bits + 255) // 256
    products = 4 * (truncation + 1) ** 2 // 3
    _refuse_over_budget(
        products * max(1, words * isqrt(words) // 8)
        + (truncation + 1) * words ** 2,
        what=f"word products to take the series to t^{truncation}")


def global_series(q: int, truncation: int,
                  coefficient: LocalCoefficient) -> tuple[int, ...]:
    """The Euler product's coefficients of t^0 .. t^truncation, exactly, by
    the module's exp-log."""
    c = [0] * (truncation + 1)
    for d, pi in place_census(q, truncation):
        top = truncation // d
        e = [coefficient(q ** d, v) for v in range(top + 1)]
        if e[0] != 1:
            raise InternalInconsistencyError(
                f"local count at jump 0 is {e[0]}, not 1, at degree {d}")
        lam = [0] * (top + 1)
        for k in range(1, top + 1):
            lam[k] = k * e[k] - sum(e[i] * lam[k - i] for i in range(1, k))
            c[d * k] += d * pi * lam[k]
    h = [1] + [0] * truncation
    for m in range(1, truncation + 1):
        h[m], rest = divmod(sum(c[j] * h[m - j] for j in range(1, m + 1)), m)
        if rest:
            raise InternalInconsistencyError(
                f"Euler product coefficient {m} is not an integer")
    if any(x < 0 for x in h):
        raise InternalInconsistencyError(
            "Euler product needs nonnegative coefficients")
    return tuple(h)


def d4_global_series(q: int, truncation: int) -> tuple[int, ...]:
    """Euler product with the dihedral local counts; q must be a power of 2,
    and so then is every residue cardinality q^d.  A local count at jump
    v >= 1 is at most (v/2 + 2) Q^(v + 1) <= (4 Q^2)^v, so [t^x] is at most
    that of the zeta function of F_q(T) at 4 q^2 t, below 2^(2x + 1) q^(3x)."""
    prime_power(q, p=2)
    _refuse_series(truncation, (3 * (q - 1).bit_length() + 2) * truncation + 2)
    return global_series(q, truncation, _d4_exact)


def abelian_global_series(shape: GroupShape, q: int,
                          truncation: int) -> tuple[int, ...]:
    """Euler product with the closed-form abelian local counts; q must be a
    power of the group's prime, checked first as in `d4_global_series`.
    A local count at jump v is at most Q^(r v), r the rank, so [t^x] is at
    most that of the zeta function of F_q(T) at q^r t, below 2 q^((r + 1) x)."""
    prime_power(q, p=shape.p)
    _refuse_series(truncation,
                   (shape.rank + 1) * truncation * (q - 1).bit_length() + 1)

    def coefficient(residue_order: int, v: int) -> int:
        return count_by_last_jump(shape, residue_order, v, "inertial_types")

    return global_series(q, truncation, coefficient)


def convolution_oracle(q: int, total: int, coefficient: LocalCoefficient) -> int:
    """Independent evaluation of one global coefficient, [t^total] of the
    Euler product multiplied out one place at a time.

    Each of the pi_d places of degree d <= total multiplies a running product
    of total + 1 coefficients by its local series sum_v e_v(q^d) t^(dv), with
    no logarithm, division or squaring.  That is at most sum_d pi_d
    (floor(total/d) + 1)(total + 1) coefficient products, refused over the
    one budget before any local coefficient is read.
    """
    census = place_census(q, total)
    _refuse_over_budget(sum(pi * (total // d + 1) * (total + 1)
                            for d, pi in census))
    product = [1] + [0] * total
    for d, pi in census:
        local = [coefficient(q ** d, v) for v in range(total // d + 1)]
        for _ in range(pi):
            for m in range(total, -1, -1):  # product[m - dv] not yet updated
                product[m] = sum(local[v] * product[m - d * v]
                                 for v in range(m // d + 1))
    return product[total]


# ---------------------------------------------------------------------------
# growth diagnostics
# ---------------------------------------------------------------------------

class GrowthRow(namedtuple("GrowthRow", "x count ratio relative_change")):
    """count: N(X), divisible by 8; ratio: the Fraction N(X) / (q^(3X) X);
    relative_change: |ratio - previous ratio| / ratio, None at the first row."""

    __slots__ = ()


def growth_table(q: int, x_max: int) -> tuple[GrowthRow, ...]:
    """Exact ratios N(X)/(q^(3X) X) and their successive relative changes,
    one row for each X in 1 .. x_max."""
    from fractions import Fraction
    series = d4_global_series(q, x_max)
    rows = []
    prev: Fraction | None = None
    for x in range(1, x_max + 1):
        count = 8 * series[x]
        if count <= 0:
            raise InternalInconsistencyError(
                f"growth count at X = {x} is not positive")
        ratio = Fraction(count, q ** (3 * x) * x)
        change = None if prev is None else abs(ratio - prev) / ratio
        rows.append(GrowthRow(x, count, ratio, change))
        prev = ratio
    return tuple(rows)


def growth_stabilises(rows: tuple[GrowthRow, ...]) -> bool:
    """The last three relative changes (the first row has none) do not
    increase and the last is under 1/10."""
    tail = [row.relative_change for row in rows[1:][-3:]]
    return (len(tail) == 3 and tail[0] >= tail[1] >= tail[2]
            and tail[2] * 10 < 1)
