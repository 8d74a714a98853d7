"""Independent reference answers for the benchmark's queries.

Everything here is written from the closed forms of the theory, not from
the library, so a wrong answer from `ramcount` cannot also be the
reference.  The one exception is `euler.convolution_oracle`, the library's
own independent evaluation of series coefficients, which
`oracle_coefficients` imports when the `src` tree is on the path.

Data are plain integers: an element of F_q (q = p^k) is a tuple of k
base-p digits, constant digit first, exactly as the CLI grammar writes it.
"""

from __future__ import annotations

import math
from fractions import Fraction

# The oracle recurses once per place of F_q(T); this keeps it below the
# default recursion limit and still covers every q = 2 coefficient up to 8.
ORACLE_MAX_PLACES = 300
ORACLE_MAX_TOTAL = 8


# ---------------------------------------------------------------------------
# abelian data: {index: [part per cyclic factor]}, part = [component digits]
# ---------------------------------------------------------------------------

def _order_exponent(parts) -> int:
    """Additive order exponent of a coefficient in G tensor W(F_q).

    p * (x_0, ..., x_(n-1)) = (0, x_0^p, ..., x_(n-2)^p) over a perfect
    field, so a Witt vector whose first nonzero component sits at position
    k has order p^(n - k); a product of factors takes the largest.
    """
    best = 0
    for comps in parts:
        for k, comp in enumerate(comps):
            if any(comp):
                best = max(best, len(comps) - k)
                break
    return best


def last_jump(p: int, terms: dict) -> int:
    """max over ramified indices n of n * p^(e_n - 1)."""
    best = 0
    for n, parts in terms.items():
        e = _order_exponent(parts)
        if n >= 1 and e:
            best = max(best, n * p ** (e - 1))
    return best


def _truncated(terms: dict, length: int) -> dict:
    """The datum composed with Z/p^e -> Z/p^length (first components)."""
    return {n: [comps[:length] for comps in parts] for n, parts in terms.items()}


def discriminant(p: int, exponents: tuple, terms: dict) -> int | None:
    """Conductor-discriminant sum d = sum over characters chi of f(chi o rho).

    Elementary abelian groups: chi_a o rho has coefficient sum_i a_i c_(n,i)
    at index n, its conductor is (last jump + 1) when ramified.  Cyclic
    groups: the p^k - p^(k-1) characters of exact order p^k share the
    quotient Z/p^k, whose datum keeps the first k Witt components.  Other
    shapes return None.
    """
    if len(exponents) == 1:
        total = 0
        for k in range(1, exponents[0] + 1):
            jump = last_jump(p, _truncated(terms, k))
            if jump:
                total += (p ** k - p ** (k - 1)) * (jump + 1)
        return total
    if any(e != 1 for e in exponents):
        return None
    rank = len(exponents)
    total = 0
    for a in _vectors(p, rank):
        if not any(a):
            continue
        jump = 0
        for n, parts in terms.items():
            if n < 1:
                continue
            width = len(parts[0][0])
            combined = [sum(a[i] * parts[i][0][j] for i in range(rank)) % p
                        for j in range(width)]
            if any(combined):
                jump = max(jump, n)
        if jump:
            total += jump + 1
    return total


def _vectors(p: int, rank: int):
    if rank == 0:
        yield ()
        return
    for head in range(p):
        for tail in _vectors(p, rank - 1):
            yield (head,) + tail


def _indices(p: int, v: int) -> list[int]:
    return [n for n in range(1, v + 1) if n % p]


def _at_most(p: int, exponents: tuple, q: int, v: int, t: int) -> int:
    """Data with indices <= v whose last jump is <= t.

    At index n the coefficient may have order exponent up to
    e_n(t) = #{k >= 0 : n p^k <= t}; G tensor W(F_q) has
    q^(sum_i min(n_i, e)) elements of order dividing p^e.
    """
    count = 1
    for n in _indices(p, v):
        e = 0
        while n * p ** e <= t:
            e += 1
        count *= q ** sum(min(ni, e) for ni in exponents)
    return count


def count_abelian(p: int, exponents: tuple, q: int, v: int, mode: str) -> int:
    exact = _at_most(p, exponents, q, v, v) - _at_most(p, exponents, q, v, v - 1)
    if v == 0:
        exact = 1
    return exact * p ** sum(exponents) if mode == "homomorphisms" else exact


def abelian_local(p: int, exponents: tuple):
    """Local coefficient (residue order, jump) -> inertial-type count."""
    return lambda residue_order, v: count_abelian(
        p, exponents, residue_order, v, "inertial_types")


# ---------------------------------------------------------------------------
# dihedral (characteristic 2) closed forms
# ---------------------------------------------------------------------------

def pole_order(poly: dict) -> int:
    return max((e for e, c in poly.items() if any(c)), default=0)


def count_min_lift(q: int, v: int) -> int:
    """The three-case formula for the quarter-count by minimal lift jump."""
    if v == 0:
        return 1
    if v % 2:
        return 2 * q ** ((v - 1) // 2) * (q - 1)
    return (v // 2) * q ** (v // 2 - 1) * (q - 1) ** 2


def count_d4_le(q: int, v: int) -> int:
    if v < 0:
        return 0
    return q ** ((v + 1) // 2) * sum(count_min_lift(q, w) for w in range(v + 1))


def count_d4_exact(q: int, v: int) -> int:
    return 1 if v == 0 else count_d4_le(q, v) - count_d4_le(q, v - 1)


def lift_distribution(q: int, minlift: int, v_max: int) -> list[tuple[int, int]]:
    """Lifts by jump: none below the minimum, every central twist of jump
    <= v at it (2 q^ceil(v/2)), twists of exact jump v above it."""
    rows = []
    for v in range(v_max + 1):
        if v < minlift:
            n = 0
        elif v == minlift:
            n = 2 * q ** ((v + 1) // 2)
        elif v % 2 == 0:
            n = 0
        else:
            n = 2 * (q - 1) * q ** ((v - 1) // 2)
        rows.append((v, n))
    return rows


# ---------------------------------------------------------------------------
# Euler products over the places of F_q(T)
# ---------------------------------------------------------------------------

def _mobius(n: int) -> int:
    result, m, d = 1, n, 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            result = -result
        d += 1
    return -result if m > 1 else result


def places(q: int, d: int) -> int:
    """Places of degree d: monic irreducibles, plus infinity when d = 1."""
    total = sum(_mobius(d // e) * q ** e for e in range(1, d + 1) if d % e == 0)
    return total // d + (1 if d == 1 else 0)


def euler_series(q: int, x_max: int, local) -> list[int]:
    """prod_d (1 + g_d)^pi_d, each power expanded binomially:
    (1 + g)^pi = sum_j C(pi, j) g^j with g = O(t^d), so j <= x_max / d."""
    series = [1] + [0] * x_max
    for d in range(1, x_max + 1):
        g = [0] * (x_max + 1)
        for v in range(1, x_max // d + 1):
            g[d * v] = local(q ** d, v)
        pi = places(q, d)
        power = [1] + [0] * x_max
        expansion = [1] + [0] * x_max
        for j in range(1, x_max // d + 1):
            power = _mul(power, g)
            c = math.comb(pi, j)
            for i, a in enumerate(power):
                expansion[i] += c * a
        series = _mul(series, expansion)
    return series


def _mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * len(a)
    for i, x in enumerate(a):
        if x:
            for j in range(len(a) - i):
                out[i + j] += x * b[j]
    return out


def oracle_coefficients(q: int, x_max: int, local) -> dict[int, int]:
    """`euler.convolution_oracle` on every coefficient it can afford."""
    from ramcount import euler
    found = {}
    total_places = 0
    for x in range(min(x_max, ORACLE_MAX_TOTAL) + 1):
        if x:
            total_places += places(q, x)
        if total_places > ORACLE_MAX_PLACES:
            break
        found[x] = euler.convolution_oracle(q, x, local)
    return found


def fraction_text(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def growth(q: int, x_max: int, series: list[int]) -> dict:
    """The `growth` document: N(X) = 8 a_X, N(X) / (q^(3X) X), changes."""
    rows, changes, prev = [], [], None
    for x in range(1, x_max + 1):
        count = 8 * series[x]
        ratio = Fraction(count, q ** (3 * x) * x)
        change = None if prev is None else abs(ratio - prev) / ratio
        if change is not None:
            changes.append(change)
        rows.append({"x": x, "count": count, "ratio": fraction_text(ratio),
                     "relative_change": ("n/a" if change is None
                                         else fraction_text(change))})
        prev = ratio
    tail = changes[-3:]
    stabilises = (len(tail) == 3 and tail[0] >= tail[1] >= tail[2]
                  and tail[2] < Fraction(1, 10))
    return {"stabilises": stabilises, "rows": rows}

