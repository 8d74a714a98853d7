"""Finite field arithmetic, Frobenius, Artin-Schreier cosets."""

import functools
import random
from itertools import product

import pytest
from hypothesis import given, strategies as st

from ramcount import counts, gf
from ramcount.errors import (
    BudgetExceededError,
    MixedFieldsError,
    NonPrimeError,
    PrimalityRangeError,
)


def test_prime_fields_have_linear_modulus():
    assert gf.make_field(2, 1).modulus == (0, 1)
    assert gf.make_field(3, 1).modulus == (0, 1)


def test_gf4_modulus_is_unique_irreducible_quadratic():
    assert gf.make_field(2, 2).modulus == (1, 1, 1)


def test_gf9_canonical_modulus():
    # x^2 + 1 is the lexicographically first irreducible quadratic over F_3
    assert gf.make_field(3, 2).modulus == (1, 0, 1)


def test_make_field_is_interned():
    assert gf.make_field(2, 3) is gf.make_field(2, 3)


def test_make_field_rejects_composite_characteristic():
    with pytest.raises(NonPrimeError):
        gf.make_field(4, 1)


def test_make_field_rejects_large_degree():
    # the degree obeys the one enumeration budget, at n^3 log2(p) products
    with pytest.raises(BudgetExceededError, match=r"^5030912 coefficient "
                       r"products to build GF\(2\^136\) exceed 5000000$"):
        gf.make_field(2, 136)
    with pytest.raises(ValueError, match="extension degree 0 must be positive"):
        gf.make_field(2, 0)


# the largest prime `_is_prime` decides, 82 bits
LARGEST_PRIME = 3317044064679887385961813


def test_make_field_refuses_before_the_modulus_search(monkeypatch):
    def unreachable(p, n):
        raise AssertionError("searched for a modulus")

    monkeypatch.setattr(gf, "_FIELDS", {})
    monkeypatch.setattr(gf, "_canonical_modulus", unreachable)
    with pytest.raises(BudgetExceededError):
        gf.make_field(2, 136)
    with pytest.raises(BudgetExceededError,
                       match=f"^5248000 coefficient products to build "
                             rf"GF\({LARGEST_PRIME}\^40\) exceed 5000000$"):
        gf.make_field(LARGEST_PRIME, 40)


@pytest.mark.parametrize("p, n", [(2, 135), (LARGEST_PRIME, 24),
                                  (LARGEST_PRIME, 39)])
def test_make_field_admits_every_degree_within_the_budget(monkeypatch, p, n):
    # a stub modulus stands in for the search, which takes seconds at 82 bits
    monkeypatch.setattr(gf, "_FIELDS", {})
    monkeypatch.setattr(gf, "_canonical_modulus",
                        lambda p, n: (1,) + (0,) * (n - 1) + (1,))
    assert gf.make_field(p, n).q == p ** n


def test_field_for_order():
    assert gf.field_for_order(8) is gf.make_field(2, 3)
    assert gf.field_for_order(9, p=3) is gf.make_field(3, 2)
    with pytest.raises(NonPrimeError):
        gf.field_for_order(6)
    with pytest.raises(MixedFieldsError):
        gf.field_for_order(9, p=2)


def _trial_division_prime_power(q, p=None):
    """The rules of `prime_power`, with q's base found by trial division."""
    if q < 2:
        return f"{q} is not a prime power"
    base = next((d for d in range(2, q + 1) if q % d == 0))
    n, m = 0, q
    while m % base == 0:
        m, n = m // base, n + 1
    if m != 1:
        return f"{q} is not a prime power"
    if p is not None and base != p:
        if p < 2 or p % base == 0:
            return f"{p} is not prime"
        return f"{q} is not a power of {p}"
    return base, n


def _prime_power_or_message(q, p=None):
    try:
        return counts.prime_power(q, p)
    except (NonPrimeError, MixedFieldsError) as exc:
        return str(exc)


# past the trial division: roots of a large prime, and products of two
PAST_TRIAL_DIVISION = [1031, 1031 ** 2, 1031 ** 3, 65537 ** 3, 1031 * 1033,
                       1031 ** 2 * 1033, 1031 ** 2 * 1033 ** 2]


@pytest.mark.parametrize("p", [None, 0, 1, 2, 3, 4, 9, 15, 1031])
def test_prime_power_agrees_with_trial_division(p):
    for q in [*range(-1, 2100), *PAST_TRIAL_DIVISION]:
        assert (_prime_power_or_message(q, p)
                == _trial_division_prime_power(q, p)), q


@pytest.mark.parametrize("p", [2, 3, 10, 1031])
def test_valuation_divides_out_every_power(p):
    # the recursion on p^2 meets odd and even exponents at every depth
    for n in [*range(70), 1023, 1024, 1025]:
        for m in (1, p + 1, 7 * p + 1):
            assert counts._valuation(p ** n * m, p) == (n, m)
    assert counts.prime_power(3 ** 5000) == (3, 5000)
    assert counts.prime_power(2 ** 200000, p=2) == (2, 200000)


def test_is_prime_rejects_strong_pseudoprimes():
    # the least strong pseudoprimes to the prime bases up to 7, 23 and 37
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not counts._is_prime(n)
    assert counts._is_prime(2 ** 61 - 1)
    assert counts._is_prime(1_000_003) and not counts._is_prime(1031 * 1033)


def test_a_large_prime_is_placed_without_trial_division():
    m61 = 2 ** 61 - 1
    assert counts.prime_power(m61) == (m61, 1)
    assert counts.prime_power(m61 ** 3) == (m61, 3)
    assert counts.prime_power(m61 ** 2, p=m61) == (m61, 2)
    with pytest.raises(MixedFieldsError, match=f"^{m61} is not a power of 2$"):
        counts.prime_power(m61, p=2)
    # a witness proves a number composite past the exact range too
    with pytest.raises(NonPrimeError, match="is not a prime power"):
        counts.prime_power(m61 * (2 ** 31 - 1))
    assert gf.make_field(m61, 1).q == m61


def test_primality_past_the_exact_range_is_refused():
    m127 = 2 ** 127 - 1
    with pytest.raises(PrimalityRangeError,
                       match=f"^cannot decide whether {m127} is prime"):
        counts.prime_power(m127)
    with pytest.raises(PrimalityRangeError):
        gf.make_field(m127, 1)


def test_gf4_generator_squares_to_gen_plus_one():
    f4 = gf.make_field(2, 2)
    x = f4.gen
    assert x * x == x + f4.one


def test_prime_field_arithmetic():
    f2 = gf.make_field(2, 1)
    assert f2.one + f2.one == f2.zero
    f3 = gf.make_field(3, 1)
    two = f3.from_prime(2)
    assert two * two == f3.one


def test_division_round_trips():
    f8 = gf.make_field(2, 3)
    for a in f8.iter_elements():
        if not a:
            continue
        for b in f8.iter_elements():
            assert (b / a) * a == b


def test_division_by_zero():
    f4 = gf.make_field(2, 2)
    with pytest.raises(ZeroDivisionError):
        f4.one / f4.zero


def test_mixed_fields_rejected():
    with pytest.raises(MixedFieldsError):
        gf.make_field(2, 1).one + gf.make_field(3, 1).one


def test_frobenius_examples():
    f4 = gf.make_field(2, 2)
    assert f4.gen.frobenius() == f4.gen + f4.one
    f2 = gf.make_field(2, 1)
    assert f2.one.frobenius() == f2.one
    f9 = gf.make_field(3, 2)
    assert f9.gen.frobenius() == -f9.gen


def test_artin_schreier_examples():
    f2 = gf.make_field(2, 1)
    assert not f2.one.artin_schreier()
    f4 = gf.make_field(2, 2)
    assert f4.gen.artin_schreier() == f4.one
    f3 = gf.make_field(3, 1)
    assert not f3.from_prime(2).artin_schreier()


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (3, 1), (2, 3), (2, 4), (3, 2)])
def test_frobenius_is_a_field_automorphism(p, n):
    field = gf.make_field(p, n)
    elems = tuple(field.iter_elements())
    for a in elems:
        for b in elems:
            assert (a * b).frobenius() == a.frobenius() * b.frobenius()
            assert (a + b).frobenius() == a.frobenius() + b.frobenius()


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (2, 4), (3, 2)])
def test_frobenius_order_divides_extension_degree(p, n):
    field = gf.make_field(p, n)
    for a in field.iter_elements():
        cur = a
        for _ in range(n):
            cur = cur.frobenius()
        assert cur == a


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (3, 1), (5, 1), (2, 4), (3, 2)])
def test_artin_schreier_kernel_and_image_sizes(p, n):
    field = gf.make_field(p, n)
    kernel = [a for a in field.iter_elements() if not a.artin_schreier()]
    assert len(kernel) == p
    assert len({a.artin_schreier() for a in field.iter_elements()}) == field.q // p


def test_transversal_of_f2():
    f2 = gf.make_field(2, 1)
    assert set(gf.wp_transversal(f2)) == {f2.zero, f2.one}


def test_transversal_of_f4_contains_zero_and_a_nonsubfield_element():
    f4 = gf.make_field(2, 2)
    trans = gf.wp_transversal(f4)
    assert len(trans) == 2
    assert trans[0] == f4.zero
    assert trans[1] not in (f4.zero, f4.one)
    assert {a.artin_schreier() for a in f4.iter_elements()} == {f4.zero, f4.one}


def test_transversal_of_f3_is_whole_field():
    f3 = gf.make_field(3, 1)
    assert set(gf.wp_transversal(f3)) == set(f3.iter_elements())


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2), (2, 4)])
def test_transversal_is_a_complete_set_of_coset_representatives(p, n):
    field = gf.make_field(p, n)
    image = {a.artin_schreier() for a in field.iter_elements()}
    reps = gf.wp_transversal(field)
    cosets = {frozenset(r + b for b in image) for r in reps}
    assert len(cosets) == p


# every field of order at most 4096: 564 prime fields and 40 extensions
FIELDS_TO_4096 = [(p, n) for p in range(2, 4097) if counts._is_prime(p)
                  for n in range(1, 13) if p ** n <= 4096]


def _coset_scan(field):
    """The transversal's oracle: scan GF(p^n) in lexicographic coefficient
    order and keep the first element of each coset of the Artin-Schreier
    image, as coefficient tuples.  x -> x^p - x is F_p-linear, so its image
    is spanned by the images of the basis x^i; an element is in a kept
    coset when the union of those cosets holds it."""
    p, n = field.p, field.n
    image = {(0,) * n}
    for i in range(n):
        g = field.element(k == i for k in range(n)).artin_schreier().coeffs
        image = {tuple((b + c * t) % p for b, t in zip(v, g))
                 for v in image for c in range(p)}
    reps, covered = [], set()
    for a in product(range(p), repeat=n):
        if a not in covered:
            reps.append(a)
            if len(reps) == p:
                return reps
            covered.update(tuple((x + y) % p for x, y in zip(a, b))
                           for b in image)
    raise AssertionError(f"{field} has fewer than {p} cosets")


def test_trace_transversal_is_the_coset_scan():
    # every field of order <= 4096 but the prime fields past 61: there the
    # image is 0, both routes list F_p in order, and the scan's p elements
    # would take about 4 s in all; the power sums that choose x^j are
    # checked on every field by the next test
    assert len(FIELDS_TO_4096) == 604
    for p, n in FIELDS_TO_4096:
        if n == 1 and p > 64:
            continue
        field = gf.make_field(p, n)
        got = [a.coeffs for a in gf.wp_transversal(field)]
        assert got == _coset_scan(field), field


def test_newton_power_sums_are_the_traces_of_the_basis():
    # Tr(a) = a + a^p + ... + a^(p^(n-1)) lies in F_p
    for p, n in FIELDS_TO_4096:
        field = gf.make_field(p, n)
        traces = []
        for i in range(n):
            power = field.element(k == i for k in range(n))
            trace = field.zero
            for _ in range(n):
                trace, power = trace + power, power.frobenius()
            assert trace.coeffs[1:] == (0,) * (n - 1), field
            traces.append(trace.coeffs[0])
        assert gf._power_sums(field.modulus, p) == traces, field


@given(st.integers(0, 63), st.integers(0, 63), st.integers(0, 63))
def test_field_laws_hold_on_random_triples_in_gf64(i, j, k):
    field = gf.make_field(2, 6)
    elems = tuple(field.iter_elements())
    a, b, c = elems[i], elems[j], elems[k]
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a and a * b == b * a


def test_digit_round_trip():
    f9 = gf.make_field(3, 2)
    for a in f9.iter_elements():
        assert f9.from_digits(f9.digits(a)) == a
    for text in ("3", "13", "1a", "0"):
        with pytest.raises(ValueError):
            f9.from_digits(text)


# ---------------------------------------------------------------------------
# log/antilog tables against the polynomial product
# ---------------------------------------------------------------------------

def _prime_powers(upto):
    found = []
    for q in range(2, upto + 1):
        try:
            counts.prime_power(q)
        except NonPrimeError:
            continue
        found.append(q)
    return found


def _poly_pow(x, e):
    """x^e by square-and-multiply with the polynomial product only."""
    if e < 0:
        x, e = _poly_pow(x, x.field.q - 2), -e
    result, base = x.field.one, x
    while e:
        if e & 1:
            result = result._poly_mul(base)
        base = base._poly_mul(base)
        e >>= 1
    return result


@pytest.mark.parametrize("q", _prime_powers(gf._LOG_TABLE_CAP))
def test_table_product_matches_polynomial_product(q):
    field = gf.field_for_order(q)
    elems = tuple(field.iter_elements())
    for a in elems:
        for b in elems:
            assert a * b == a._poly_mul(b)
    assert field._logs is not None


@pytest.mark.parametrize("q", _prime_powers(gf._LOG_TABLE_CAP))
def test_table_power_inverse_and_division_match_polynomial_path(q):
    field = gf.field_for_order(q)
    elems = tuple(field.iter_elements())
    inverses = {b: _poly_pow(b, q - 2) for b in elems if b}
    for b, inv in inverses.items():
        assert b.inverse() == inv and b._poly_mul(inv) == field.one
    sample = {field.zero, field.one, field.gen, elems[-1],
              *random.Random(q).sample(elems, min(q, 4))}
    for x in sample:
        cur = field.one
        for e in range(2 * q + 2):
            assert x ** e == cur
            cur = cur._poly_mul(x)
        if not x:
            for e in (-1, -(q + 1)):
                with pytest.raises(ZeroDivisionError):
                    x ** e
            continue
        cur = field.one
        for e in range(1, q + 2):
            cur = cur._poly_mul(inverses[x])
            assert x ** -e == cur
        for b, inv in inverses.items():
            assert x / b == x._poly_mul(inv)
    assert field._logs is not None


@pytest.mark.parametrize("q", [67, 81, 128])
def test_fields_above_the_table_cap_multiply_polynomials(q):
    field = gf.field_for_order(q)
    assert field.q > gf._LOG_TABLE_CAP
    rng = random.Random(q)
    nonzero = tuple(field.iter_elements())[1:]
    for _ in range(20):
        a, b, c = (rng.choice(nonzero) for _ in range(3))
        assert (a * b) * c == a * (b * c) and a * (b + c) == a * b + a * c
        assert a.inverse() * a == field.one
        assert a ** 300 == _poly_pow(a, 300) and a ** 0 == field.one
        assert a / b == a._poly_mul(_poly_pow(b, -1))
    assert field._logs is None


# ---------------------------------------------------------------------------
# the canonical modulus: Ben-Or's test against two independent oracles
# ---------------------------------------------------------------------------

def _divides(b, a, p):
    """Whether the monic polynomial b divides a, coefficients mod p."""
    r = list(a)
    db = len(b) - 1
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i]
        if c:
            for j in range(db):
                r[i - db + j] = (r[i - db + j] - c * b[j]) % p
    return not any(r[:db])


@functools.lru_cache(maxsize=None)
def _irreducibles(p, degree):
    """All monic irreducibles of exactly this degree, in lexicographic order."""
    return tuple(tail + (1,) for tail in product(range(p), repeat=degree)
                 if _trial_division_irreducible(tail + (1,), p))


def _trial_division_irreducible(poly, p):
    """Exhaustive trial division by the irreducibles of degree <= deg/2."""
    return not any(_divides(d, poly, p)
                   for k in range(1, (len(poly) - 1) // 2 + 1)
                   for d in _irreducibles(p, k))


def _trial_division_modulus(p, n):
    """The first monic irreducible of degree n, constant term first in
    lexicographic order, found by trial division."""
    return next(cand for c0 in range(1, p)
                for tail in product(range(p), repeat=n - 1)
                for cand in [(c0,) + tail + (1,)]
                if _trial_division_irreducible(cand, p))


# (p, largest degree): every monic candidate of degree 2 .. that degree
BEN_OR_ORACLE_RANGE = [(2, 10), (3, 7), (5, 4), (7, 4), (11, 3), (13, 3)]


@pytest.mark.parametrize("p, top", BEN_OR_ORACLE_RANGE)
def test_ben_or_agrees_with_trial_division_on_every_candidate(p, top):
    for n in range(2, top + 1):
        for tail in product(range(p), repeat=n):
            cand = tail + (1,)
            assert gf._is_irreducible(cand, p) == _trial_division_irreducible(
                cand, p), cand


@pytest.mark.parametrize("p, top", [(2, 20), (3, 12), (5, 8), (7, 6), (11, 4),
                                    (13, 4), (31, 3)])
def test_canonical_modulus_matches_the_trial_division_search(p, top):
    for n in range(1, top + 1):
        want = (0, 1) if n == 1 else _trial_division_modulus(p, n)
        assert gf.make_field(p, n).modulus == want, n


def test_pinned_moduli_of_the_trial_division_search():
    # past the oracle's range: the moduli the trial-division search found
    assert gf.make_field(251, 4).modulus == (1, 0, 0, 15, 1)
    assert gf.make_field(3, 20).modulus == (1,) + (0,) * 16 + (1, 0, 2, 1)


def _rem(a, f, p):
    """a modulo f over F_p as len(f) - 1 coefficients; f's top coefficient
    must be nonzero."""
    a, inv = list(a), pow(f[-1], -1, p)
    low = [(i, c) for i, c in enumerate(f[:-1]) if c]
    while len(a) >= len(f):
        c = a.pop() * inv % p
        shift = len(a) - len(f) + 1
        for i, fi in low:
            a[shift + i] -= c * fi
    return [c % p for c in a] + [0] * (len(f) - 1 - len(a))


def _mul_rem(a, b, f, p):
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    return _rem(prod, f, p)


def _trim(a):
    a = list(a)
    while a and not a[-1]:
        a.pop()
    return a


def _coprime(a, f, p):
    """Whether gcd(a, f) = 1 over F_p, by Euclid's algorithm."""
    a, b = _trim(f), _trim(a)
    while b:
        a, b = b, _trim(_rem(a, b, p))
    return len(a) == 1


def _rabin_irreducible(f, p):
    """Rabin's criterion: the monic f of degree n is irreducible exactly when
    x^(p^n) = x mod f and gcd(x^(p^(n/r)) - x, f) = 1 for each prime r | n.

    h -> h^p is F_p-linear modulo f, so each power x^(p^k) is the previous
    one read through the images x^(ip) mod f of the basis, i < n.
    """
    n = len(f) - 1
    cuts = {n // r for r in range(2, n + 1)
            if n % r == 0 and all(r % d for d in range(2, r))}
    x = _rem([0, 1], f, p)
    xp, base, e = _rem([1], f, p), x, p
    while e:
        if e & 1:
            xp = _mul_rem(xp, base, f, p)
        base, e = _mul_rem(base, base, f, p), e >> 1
    images = [_rem([1], f, p)]
    for _ in range(1, n):
        images.append(_mul_rem(xp, images[-1], f, p))
    h = x
    for k in range(1, n + 1):
        h = [sum(c * img[j] for c, img in zip(h, images)) % p for j in range(n)]
        diff = [a - b for a, b in zip(h, x)]
        if k in cuts and not _coprime(diff, f, p):
            return False
    return not any(diff)


@pytest.mark.parametrize("p, n", [(13, 24), (4093, 24), (2 ** 61 - 1, 2)])
def test_canonical_modulus_is_the_first_candidate_passing_rabin(p, n):
    modulus = gf.make_field(p, n).modulus
    assert modulus[-1] == 1 and len(modulus) == n + 1
    assert _rabin_irreducible(list(modulus), p)
    m = sum(c * p ** (n - 1 - i) for i, c in enumerate(modulus[:-1]))
    for smaller in range(p ** (n - 1), m):
        digits = [smaller // p ** (n - 1 - i) % p for i in range(n)]
        assert not _rabin_irreducible(digits + [1], p), digits

