"""Witt vectors in the Galois ring, checked against ghost-component oracles."""

import itertools
import math
import random
from collections import namedtuple

import pytest

import witt_oracle
from ramcount import checks, gf, witt
from ramcount.errors import MixedFieldsError, MixedRingsError
from ramcount.witt import WittVector, iter_witt_vectors, teichmueller

F2 = gf.make_field(2, 1)
F3 = gf.make_field(3, 1)
F4 = gf.make_field(2, 2)


def w2(field, *comps):
    return WittVector(field, tuple(field.element([c] + [0] * (field.n - 1))
                                   if isinstance(c, int) else c for c in comps))


# ---------------------------------------------------------------------------
# law polynomials of the oracle
# ---------------------------------------------------------------------------

def test_sum_poly_length_one_is_plain_addition():
    for p in (2, 3, 5):
        assert set(witt_oracle.sum_laws(p, 1)[0]) == {(1, (1, 0)), (1, (0, 1))}


def test_sum_poly_second_component_mod_2():
    # X1 + Y1 + X0*Y0
    assert set(witt_oracle.sum_laws(2, 2)[1]) == {
        (1, (0, 1, 0, 0)), (1, (0, 0, 0, 1)), (1, (1, 0, 1, 0))}


def test_sum_poly_second_component_mod_3():
    # X1 + Y1 - (X0^2*Y0 + X0*Y0^2)
    assert set(witt_oracle.sum_laws(3, 2)[1]) == {
        (1, (0, 1, 0, 0)), (1, (0, 0, 0, 1)),
        (2, (2, 0, 1, 0)), (2, (1, 0, 2, 0))}


def test_product_polys_mod_2():
    laws = witt_oracle.product_laws(2, 2)
    # X0*Y0, then X1*Y0^2 + X0^2*Y1 + 2*X1*Y1, whose last term vanishes mod 2
    assert set(laws[0]) == {(1, (1, 0, 1, 0))}
    assert set(laws[1]) == {(1, (0, 1, 2, 0)), (1, (2, 0, 0, 1))}


def test_law_length_cap():
    with pytest.raises(ValueError):
        witt_oracle.sum_laws(2, witt_oracle.MAX_LENGTH + 1)
    # W_12(F_2) = Z/4096 holds the longest cyclic factor of a group within
    # counts.MAX_GROUP_ORDER
    for k in (1, 2, 3, 1000, 2048, 4095):
        v = WittVector.from_int(F2, 12, k)
        assert WittVector(F2, v.components) == v
        order = 4096 // math.gcd(k, 4096)
        assert not v.scale(order) and v.scale(order // 2)


def test_length_is_bounded_only_through_the_group_cap():
    # W_13(F_2) = Z/8192 is past every group within the cap, but the ring
    # itself has no length cap of its own
    bits = (1, 0, 1, 1, 0, 0, 1, 1, 1, 0, 0, 0, 1)
    components = tuple(F2.element((b,)) for b in bits)
    v = WittVector(F2, components)
    assert v.length == 13 and v.components == components
    assert WittVector(F2, (F2.zero,) * 13) + v == v
    half = WittVector.from_int(F2, 13, 4096)
    assert half and not half.scale(2)
    with pytest.raises(ValueError, match="Witt length must be positive"):
        WittVector(F2, (F2.zero,) * 0)


def _random_vector(rng, field, length):
    return tuple(field.element(rng.randrange(field.p) for _ in range(field.n))
                 for _ in range(length))


# (p, n, L): every pair of W_2(F_4) and W_3(F_2), then 200 random pairs each;
# (2, 7, 2) is over GF(128), above the table cap of gf
@pytest.mark.parametrize("p,n,length", [
    (2, 2, 2), (2, 1, 3), (2, 2, 3), (3, 1, 3), (3, 2, 2), (2, 3, 2), (5, 1, 2),
    (2, 2, 4), (7, 1, 2), (2, 7, 2)])
def test_galois_ring_matches_ghost_laws(p, n, length):
    field = gf.make_field(p, n)
    if (p, n, length) in ((2, 2, 2), (2, 1, 3)):
        every = list(itertools.product(field.iter_elements(), repeat=length))
        pairs = list(itertools.product(every, repeat=2))
    else:
        rng = random.Random(f"{p}/{n}/{length}")
        pairs = [(_random_vector(rng, field, length),
                  _random_vector(rng, field, length)) for _ in range(200)]
    for a, b in pairs:
        va, vb = WittVector(field, a), WittVector(field, b)
        assert va.components == a
        assert (va + vb).components == witt_oracle.add(a, b)
        assert (-vb).components == witt_oracle.neg(b)
        assert (va - vb).components == witt_oracle.add(a, witt_oracle.neg(b))
        assert (va * vb).components == witt_oracle.mul(a, b)
        assert va.frobenius().components == witt_oracle.frobenius(a)
        assert (va * vb).frobenius() == va.frobenius() * vb.frobenius()


# ---------------------------------------------------------------------------
# ghost-map oracle: W_2(F_p) is Z/p^2 via k = x0^p + p*x1 mod p^2
# ---------------------------------------------------------------------------

def _ghost_int(v, p):
    x0, x1 = (c.coeffs[0] for c in v.components)
    return (x0 ** p + p * x1) % p ** 2


@pytest.mark.parametrize("p", [2, 3, 5])
def test_w2_of_prime_field_matches_integer_ring(p):
    field = gf.make_field(p, 1)
    vectors = list(iter_witt_vectors(field, 2))
    assert len({_ghost_int(v, p) for v in vectors}) == p ** 2
    for a in vectors:
        for b in vectors:
            assert _ghost_int(a + b, p) == (_ghost_int(a, p) + _ghost_int(b, p)) % p ** 2
            assert _ghost_int(a * b, p) == (_ghost_int(a, p) * _ghost_int(b, p)) % p ** 2
            assert _ghost_int(a - b, p) == (_ghost_int(a, p) - _ghost_int(b, p)) % p ** 2


def test_one_plus_one_in_w2_f2():
    one = WittVector.one(F2, 2)
    assert one + one == w2(F2, 0, 1)
    assert one * one == one


def test_one_plus_teichmueller_two_in_w2_f3():
    # [2] = -1 in Z/9, so (1,0) + (2,0) must vanish
    a = teichmueller(F3.one, 2)
    b = teichmueller(F3.from_prime(2), 2)
    assert not (a + b)
    assert _ghost_int(a, 3) == 1 and _ghost_int(b, 3) == 8


# ---------------------------------------------------------------------------
# ring axioms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,n,field", [(2, 2, F2), (2, 2, F4), (3, 2, F3)])
def test_ring_axioms_exhaustively(p, n, field):
    vectors = list(iter_witt_vectors(field, n))
    zero = WittVector(field, (field.zero,) * n)
    one = WittVector.one(field, n)
    for a in vectors:
        assert a + zero == a and a * one == a
        assert a + (-a) == zero
        for b in vectors:
            assert a + b == b + a
            assert a * b == b * a
            for c in vectors:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


class _TwistedPlane(namedtuple("_TwistedPlane", "a b")):
    """a e1 + b e2 in F_2^2 with e1 e1 = e2, e1 e2 = e2 e1 = e1, e2 e2 = 0:
    bilinear, commutative and distributive, but (e1 e1) e2 = 0 while
    e1 (e1 e2) = e2, so the product is not associative."""

    __slots__ = ()

    def __add__(self, other):
        return _TwistedPlane(self.a ^ other.a, self.b ^ other.b)

    def __mul__(self, other):
        # (a e1 + b e2)(c e1 + d e2) = (ad + bc) e1 + ac e2
        return _TwistedPlane((self.a & other.b) ^ (self.b & other.a),
                             self.a & other.a)


def test_table_axioms_catch_a_product_that_only_fails_associativity():
    plane = [_TwistedPlane(a, b) for a in (0, 1) for b in (0, 1)]
    triples = list(itertools.product(plane, repeat=3))
    assert all(x + y == y + x and x * y == y * x
               and (x + y) + z == x + (y + z) and x * (y + z) == x * y + x * z
               for x, y, z in triples)
    assert not all((x * y) * z == x * (y * z) for x, y, z in triples)
    assert not checks._table_axioms_hold(plane)
    assert checks._table_axioms_hold(list(iter_witt_vectors(F2, 2)))


def test_additive_exponent():
    for field, n in [(F2, 2), (F4, 2), (F3, 2)]:
        p = field.p
        for a in iter_witt_vectors(field, n):
            acc = WittVector(field, (field.zero,) * n)
            for _ in range(p ** n):
                acc = acc + a
            assert not acc


# ---------------------------------------------------------------------------
# Teichmueller, Frobenius, Artin-Schreier, p-multiplication
# ---------------------------------------------------------------------------

def test_teichmueller_basics():
    assert teichmueller(F2.one, 3) == WittVector.one(F2, 3)
    assert teichmueller(F2.zero, 2) == WittVector(F2, (F2.zero,) * 2)
    t = teichmueller(F4.gen, 2)
    assert t * t == teichmueller(F4.gen * F4.gen, 2)


@pytest.mark.parametrize("field", [F2, F4, gf.make_field(2, 3),
                                   gf.make_field(2, 4), F3, gf.make_field(3, 2),
                                   gf.make_field(5, 1), gf.make_field(7, 1),
                                   gf.make_field(11, 1), gf.make_field(13, 1)])
def test_teichmueller_is_multiplicative(field):
    for x in field.iter_elements():
        for y in field.iter_elements():
            assert (teichmueller(x, 2) * teichmueller(y, 2)
                    == teichmueller(x * y, 2))


def _ring_power(ring, x, e):
    result = ring.one
    for bit in bin(e)[2:]:
        result = ring.mul(result, result)
        if bit == "1":
            result = ring.mul(result, x)
    return result


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 128])
def test_teichmueller_lift_is_the_power_of_any_lift(q):
    # the oracle is the definition tau(b) = B^(q^(L-1)), B the coefficients
    # of b read in the Galois ring; the library powers a lift of
    # b^(p^-(L-1)) instead, zero and length 1 included, with log tables up
    # to q = 64 and by polynomials at q = 128
    field = gf.field_for_order(q)
    for length in range(1, 5):
        ring = witt._galois_ring(field, length)
        for b in field.iter_elements():
            assert teichmueller(b, length).coeffs == _ring_power(
                ring, b.coeffs, q ** (length - 1)), (b, length)


@pytest.mark.parametrize("q", [2, 3, 4, 9, 128])
def test_vectors_with_zero_leading_component_round_trip(q):
    # from_components starts from the lift of a_0 and skips identity
    # powers; the oracle sums p^i tau(a_i^(p^-i)) from the lifts alone.
    # Length 1 and the zero element take the general components loop and
    # the Teichmueller power, as every other length and element do.
    # GF(2^7) lies above gf._LOG_TABLE_CAP and multiplies polynomials; up
    # to length 2 it takes 129 vectors, where length 3 would take 16512
    field = gf.field_for_order(q)
    p, n = field.p, field.n
    for length in range(1, 3 if q > gf._LOG_TABLE_CAP else 4):
        for tail in itertools.product(field.iter_elements(), repeat=length - 1):
            comps = (field.zero,) + tail
            v = WittVector(field, comps)
            expected = WittVector(field, (field.zero,) * length)
            for i, a in enumerate(comps):
                root = a ** p ** (-i % n)
                expected = expected + teichmueller(root, length).scale(p ** i)
            assert v == expected, comps
            assert v.components == comps, comps
    for a in field.iter_elements():
        assert WittVector(field, (a,)).components == (a,)


def test_components_from_another_field_are_rejected():
    for comps in [(F4.zero,), (F2.one, F4.one), (F3.zero, F2.zero)]:
        with pytest.raises(MixedFieldsError, match="not GF\\(2\\)"):
            WittVector(F2, comps)


def test_frobenius_fixes_prime_subring_and_is_additive():
    assert w2(F2, 0, 1).frobenius() == w2(F2, 0, 1)
    assert WittVector.one(F4, 2).frobenius() == WittVector.one(F4, 2)
    assert teichmueller(F4.gen, 2).frobenius() == teichmueller(F4.gen.frobenius(), 2)
    for a in iter_witt_vectors(F4, 2):
        for b in iter_witt_vectors(F4, 2):
            assert (a + b).frobenius() == a.frobenius() + b.frobenius()


def test_artin_schreier_examples_and_kernel():
    assert not w2(F2, 0, 1).artin_schreier()
    assert WittVector(F4, (F4.gen,)).artin_schreier() == WittVector(F4, (F4.one,))
    kernel = [v for v in iter_witt_vectors(F4, 2) if not v.artin_schreier()]
    assert len(kernel) == 4
    # the kernel is exactly the prime subring W_2(F_2)
    prime = {WittVector.from_int(F4, 2, k) for k in range(4)}
    assert set(kernel) == prime


@pytest.mark.parametrize("field,n", [(F2, 1), (F2, 2), (F4, 1), (F4, 2),
                                     (F3, 2), (gf.make_field(2, 4), 2)])
def test_artin_schreier_kernel_size_is_p_to_the_n(field, n):
    kernel = sum(1 for v in iter_witt_vectors(field, n) if not v.artin_schreier())
    assert kernel == field.p ** n


def test_artin_schreier_vanishes_on_integer_multiples_of_one():
    for field, n in [(F4, 2), (F3, 2)]:
        for k in range(field.p ** n):
            assert not WittVector.from_int(field, n, k).artin_schreier()


def test_mul_by_p_examples():
    assert w2(F2, 1, 0).mul_by_p() == w2(F2, 0, 1)
    assert not w2(F2, 0, 1).mul_by_p()
    assert not WittVector(F2, (F2.zero,) * 2).mul_by_p()


def test_mul_by_p_agrees_with_repeated_addition():
    for v in iter_witt_vectors(F4, 2):
        assert v.mul_by_p() == v + v
    for v in iter_witt_vectors(F3, 2):
        assert v.mul_by_p() == v + v + v


def test_scale_matches_repeated_addition():
    for v in iter_witt_vectors(F3, 2):
        acc = WittVector(F3, (F3.zero,) * 2)
        for k in range(9):
            assert v.scale(k) == acc
            acc = acc + v


def test_mixed_rings_rejected():
    with pytest.raises(MixedRingsError):
        WittVector.one(F2, 2) + WittVector.one(F2, 3)
    with pytest.raises(MixedRingsError):
        WittVector.one(F2, 2) + WittVector.one(F4, 2)


def test_longer_lengths_spot_checked_against_integers():
    # W_3(F_2) is Z/8 via the ghost map x0^4 + 2 x1^2 + 4 x2
    def ghost3(v):
        x0, x1, x2 = (c.coeffs[0] for c in v.components)
        return (x0 ** 4 + 2 * x1 ** 2 + 4 * x2) % 8

    vectors = list(iter_witt_vectors(F2, 3))
    assert len({ghost3(v) for v in vectors}) == 8
    for a in vectors:
        for b in vectors:
            assert ghost3(a + b) == (ghost3(a) + ghost3(b)) % 8
            assert ghost3(a * b) == (ghost3(a) * ghost3(b)) % 8


def test_length_four_ring_is_z16():
    def ghost4(v):
        x0, x1, x2, x3 = (c.coeffs[0] for c in v.components)
        return (x0 ** 8 + 2 * x1 ** 4 + 4 * x2 ** 2 + 8 * x3) % 16

    vectors = list(iter_witt_vectors(F2, 4))
    assert len({ghost4(v) for v in vectors}) == 16
    for a in vectors:
        for b in vectors:
            assert ghost4(a + b) == (ghost4(a) + ghost4(b)) % 16
    one = WittVector.one(F2, 4)
    assert WittVector.from_int(F2, 4, 5) + WittVector.from_int(F2, 4, 11) \
        == WittVector(F2, (F2.zero,) * 4)
    assert one.mul_by_p().mul_by_p().mul_by_p() == WittVector.from_int(F2, 4, 8)
