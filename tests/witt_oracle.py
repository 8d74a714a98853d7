"""Witt vector ring laws solved from the ghost components: the tests' oracle.

The library computes in the Galois ring; this module knows nothing of it.
The universal sum and product polynomials over the integers satisfy

    w_k(S_0..S_k) = w_k(X) + w_k(Y),    w_k(P_0..P_k) = w_k(X) * w_k(Y),

with the ghost components w_k(X) = X_0^(p^k) + p X_1^(p^(k-1)) + ... + p^k X_k.
That pins down S_k and P_k after an exact division by p^k; a remainder
raises InternalInconsistencyError, and the ghost identities are re-checked
from the solved polynomials before they are reduced mod p.  A polynomial is
a dict from exponent tuples (X_0 .. X_(L-1), Y_0 .. Y_(L-1)) to integer
coefficients.  Solving grows fast with the length, so it is capped at 4.
"""

from __future__ import annotations

from functools import lru_cache

from ramcount.errors import InternalInconsistencyError

MAX_LENGTH = 4


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


def _ghost(p: int, k: int, offset: int, width: int) -> dict:
    out: dict = {}
    for i in range(k + 1):
        key = tuple(p ** (k - i) if j == offset + i else 0 for j in range(width))
        out = _pd_add(out, {key: p ** i})
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


def _ghost_of(polys: list[dict], p: int, k: int, width: int) -> dict:
    """sum_i p^i polys[i]^(p^(k-i)) over the polynomials given, i <= k."""
    out: dict = {}
    for i, poly in enumerate(polys[:k + 1]):
        out = _pd_add(out, _pd_scale(_pd_pow(poly, p ** (k - i), width), p ** i))
    return out


def _solve(p: int, length: int, combine) -> tuple[tuple, ...]:
    """Laws with ghost components combine(w_k(X), w_k(Y)), reduced mod p."""
    if not 1 <= length <= MAX_LENGTH:
        raise ValueError(f"oracle length {length} outside [1, {MAX_LENGTH}]")
    width = 2 * length
    targets = [combine(_ghost(p, k, 0, width), _ghost(p, k, length, width))
               for k in range(length)]
    polys: list[dict] = []
    for k in range(length):
        known = _ghost_of(polys, p, k, width)  # S_0 .. S_(k-1) so far
        polys.append(_exact_div(_pd_add(targets[k], _pd_scale(known, -1)), p ** k))
    for k in range(length):
        if _ghost_of(polys, p, k, width) != targets[k]:
            raise InternalInconsistencyError("ghost identity failed on re-check")
    return tuple(tuple((c % p, e) for e, c in sorted(poly.items()) if c % p)
                 for poly in polys)


@lru_cache(maxsize=None)
def sum_laws(p: int, length: int) -> tuple[tuple, ...]:
    """S_0 .. S_(L-1) mod p, each a tuple of (coefficient, exponents) terms."""
    return _solve(p, length, _pd_add)


@lru_cache(maxsize=None)
def product_laws(p: int, length: int) -> tuple[tuple, ...]:
    """P_0 .. P_(L-1) mod p, each a tuple of (coefficient, exponents) terms."""
    return _solve(p, length, _pd_mul)


def _evaluate(terms, field, vals):
    total = field.zero
    for coeff, exps in terms:
        acc = field.from_prime(coeff)
        for v, e in zip(vals, exps):
            if e:
                acc = acc * v ** e
        total = total + acc
    return total


def add(a: tuple, b: tuple) -> tuple:
    """The components of a + b, from the components of a and b."""
    field = a[0].field
    return tuple(_evaluate(law, field, a + b) for law in sum_laws(field.p, len(a)))


def mul(a: tuple, b: tuple) -> tuple:
    field = a[0].field
    return tuple(_evaluate(law, field, a + b)
                 for law in product_laws(field.p, len(a)))


def neg(a: tuple) -> tuple:
    """Solve S(a, y) = 0 for y one component at a time.

    S_k = X_k + Y_k + (terms in X_<k, Y_<k), so with y_k and later set to 0
    the law evaluates to what -y_k must cancel.
    """
    field = a[0].field
    laws = sum_laws(field.p, len(a))
    ys: list = []
    for k, law in enumerate(laws):
        pad = (field.zero,) * (len(a) - k)
        ys.append(-_evaluate(law, field, a + tuple(ys) + pad))
    return tuple(ys)


def frobenius(a: tuple) -> tuple:
    return tuple(c.frobenius() for c in a)
