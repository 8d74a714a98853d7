"""The last jump of a D4 datum from the conductor of its induced character.

The library evaluates one formula for the last jump of the dihedral
extension cut out by (a, c, b); this module derives the jump from first
principles and knows nothing of that formula.  Over K = F_q((T)), q = 2^n,
let alpha^2 + alpha = a, gamma^2 + gamma = c and beta^2 + beta = a*gamma + b.
Over F = K(alpha), delta = beta + alpha*gamma satisfies

    delta^2 + delta = y,    y = (b + a*c) + c*alpha,

so the two-dimensional representation of the D4 group is induced from the
character of F that y cuts out.  By the conductor of an induced
representation (Serre, Local Fields VI §2) its conductor is
(w(a) + 1) + (m + 1), with m the reduced pole order of y in F; the centre
acts as -1 on it, so the conductor is also 2(1 + u) with u the last upper
jump.  Hence u = (w(a) + m) / 2.

m is found by Artin-Schreier reduction in F.  Writing y = x0 + x1*alpha
with x0, x1 Laurent polynomials in T^-1, the pole order of y in F is the
larger of 2 w(x0) and 2 w(x1) + w(a), and the two have different parities.
While the larger is even and positive it comes from a term s T^-e of x0,
which one step removes by adding the Artin-Schreier image z^2 + z of

    z = sqrt(s) T^(-e/2)                            for e even,
    z = sqrt(s / lead(a)) T^(-(e - w(a))/2) alpha   for e odd,

using alpha^2 = alpha + a.  Each step lowers the pole order, and terms with
no pole are dropped.  A polynomial here is a dict from the exponent e of
T^-e (negative for positive powers of T) to a nonzero field element, as in
`SparseTPoly.terms`.
"""

from __future__ import annotations

from fractions import Fraction


def _add(x: dict, e: int, coeff) -> None:
    """x[e] += coeff, dropping the term when the sum is zero."""
    total = x[e] + coeff if e in x else coeff
    if total:
        x[e] = total
    else:
        x.pop(e, None)


def _sqrt(s):
    """The square root in F_q, q = 2^n: s^(q/2)."""
    return s ** (s.field.q // 2)


def last_jump(a: dict, c: dict, b: dict) -> Fraction:
    """The last upper jump of the D4 extension of (a, c, b).  a must have an
    odd pole order, and (a, c) must be totally ramified; c and b need not
    be reduced."""
    wa = max(a, default=0)
    if wa % 2 == 0:
        raise ValueError(f"w(a) = {wa} must be odd")
    x0, x1 = dict(b), dict(c)
    for ea, ca in a.items():
        for ec, cc in c.items():
            _add(x0, ea + ec, ca * cc)
    while True:
        x0 = {e: s for e, s in x0.items() if e > 0}
        x1 = {e: s for e, s in x1.items() if 2 * e + wa > 0}
        pole0 = 2 * max(x0, default=0)
        pole1 = 2 * max(x1) + wa if x1 else 0
        if pole0 <= pole1:
            return Fraction(wa + pole1, 2)
        e = pole0 // 2
        s = x0[e]
        if e % 2 == 0:
            r = _sqrt(s)
            _add(x0, e, s)
            _add(x0, e // 2, r)
        else:
            r = _sqrt(s / a[wa])
            k = (e - wa) // 2
            for ea, ca in a.items():  # r^2 T^-2k (alpha + a), top term s T^-e
                _add(x0, 2 * k + ea, r * r * ca)
            _add(x1, 2 * k, r * r)
            _add(x1, k, r)
