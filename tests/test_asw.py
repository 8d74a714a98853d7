"""Reduced data, last jumps, the ramification filtration, discriminant
exponents, counts."""

import itertools
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ramcount import asw, counts, gf
from ramcount.cli import main, parse_cocycle
from ramcount.errors import (
    BudgetExceededError,
    InternalInconsistencyError,
    MixedFieldsError,
    MixedRingsError,
    NonPrimeError,
)
from ramcount.witt import WittVector, teichmueller

F2 = gf.make_field(2, 1)
F4 = gf.make_field(2, 2)

Z2 = counts.GroupShape(2, (1,))
Z4 = counts.GroupShape(2, (2,))
Z2xZ2 = counts.GroupShape(2, (1, 1))
Z3 = counts.GroupShape(3, (1,))


def elem(field, *part_components):
    return tuple(WittVector(field, tuple(field.element([c] + [0] * (field.n - 1))
                                         if isinstance(c, int) else c
                                         for c in comps))
                 for comps in part_components)


def cocycle(shape, field, entries):
    return asw.ReducedCocycle(shape, field, {
        n: elem(field, *parts) for n, parts in entries.items()})


# ---------------------------------------------------------------------------
# shapes and data
# ---------------------------------------------------------------------------

def test_shape_validation():
    with pytest.raises(ValueError, match="exponents must be nonincreasing"):
        counts.GroupShape(2, (1, 2))
    with pytest.raises(ValueError, match="exponents must be positive"):
        counts.GroupShape(2, (0,))
    # no order is refused: the work each path does is sized instead
    assert counts.GroupShape(2, (13,)).order == 8192
    assert counts.GroupShape(2, (1,) * 100000).rank == 100000
    assert counts.GroupShape(2, ()).order == 1


def test_shape_is_an_immutable_value():
    shape = counts.GroupShape(2, (2, 1))
    assert repr(shape) == "GroupShape(p=2, exponents=(2, 1))"
    assert shape == counts.GroupShape(p=2, exponents=(2, 1))
    assert hash(shape) == hash(counts.GroupShape(2, (2, 1)))
    assert shape != counts.GroupShape(2, (2,))
    with pytest.raises(AttributeError):
        shape.p = 3


def test_cocycle_rejects_bad_support_index():
    with pytest.raises(ValueError):
        cocycle(Z2, F2, {2: [(1,)]})
    with pytest.raises(ValueError):
        cocycle(Z3, gf.make_field(3, 1), {3: [(1,)]})


def test_cocycle_drops_zero_coefficients():
    m = cocycle(Z2, F2, {1: [(0,)], 0: [(1,)]})
    assert m.ramified_indices() == []


def test_cocycle_rejects_coefficients_outside_the_module():
    for field, parts in [(F4, [(1,)]),         # a part over another field
                         (F2, [(1, 0)]),       # a part of the wrong length
                         (F2, [(1,), (1,)])]:  # one part too many
        with pytest.raises(MixedRingsError):
            asw.ReducedCocycle(Z2, F2, {1: elem(field, *parts)})


def test_cocycle_checks_every_part_before_dropping_zeros():
    nonzero = WittVector(F2, (F2.one,))
    zero = WittVector(F2, (F2.zero,))
    zero2 = WittVector(F2, (F2.zero,) * 2)
    message = "coefficient does not match the datum module"
    for entry in [(nonzero, WittVector(F4, (F4.one,))),  # second part over F_4
                  (nonzero, zero2),                      # second part too long
                  (zero, WittVector(F4, (F4.zero,)))]:   # zero, wrong ring
        with pytest.raises(MixedRingsError, match=message):
            asw.ReducedCocycle(Z2xZ2, F2, {1: entry})
    for entry in [(zero2,),                    # zero part of the wrong length
                  (zero, zero)]:               # zero with one part too many
        with pytest.raises(MixedRingsError, match=message):
            asw.ReducedCocycle(Z2, F2, {1: entry})
    with pytest.raises(ValueError, match="support index 4 must be 0 or coprime to 2"):
        asw.ReducedCocycle(Z2, F2, {4: (zero,)})


def test_module_element_count():
    assert len(list(asw.iter_module_elements(Z4, F2))) == 4
    assert len(list(asw.iter_module_elements(Z2xZ2, F4))) == 16
    assert all(isinstance(x, tuple) and len(x) == 2
               for x in asw.iter_module_elements(Z2xZ2, F4))


# ---------------------------------------------------------------------------
# mu and last jump
# ---------------------------------------------------------------------------

def test_mu_examples():
    assert counts.mu(4, 3, 2) == 1
    assert counts.mu(1, 1, 2) == 0
    assert counts.mu(5, 1, 2) == 3


def test_last_jump_of_simple_pole_order():
    m = cocycle(Z2, F2, {3: [(1,)]})
    assert asw.last_jump(m) == 3


def test_last_jump_of_unramified_datum_is_zero():
    assert asw.last_jump(cocycle(Z2, F2, {})) == 0
    assert asw.last_jump(cocycle(Z2, F2, {0: [(1,)]})) == 0


def test_last_jump_sees_coefficient_order():
    # order-4 coefficient at index 1 needs two p-multiplications to die
    m = cocycle(Z4, F2, {1: [(1, 0)]})
    assert asw.last_jump(m) == 2
    m2 = cocycle(Z4, F2, {1: [(0, 1)]})
    assert asw.last_jump(m2) == 1


def _last_jump_by_definition(m):
    """The least v with p^(mu(v + 1, n, p)) m_n = 0 for every ramified n."""
    p = m.shape.p
    ramified = [(n, m.support[n]) for n in m.ramified_indices()]
    v = 0
    while any(part.scale(p ** counts.mu(v + 1, n, p))
              for n, parts in ramified for part in parts):
        v += 1
    return v


def _random_coefficient(rng, shape, field):
    """Parts that are zero, of full order or divisible by a power of p."""
    parts = []
    for e in shape.exponents:
        comps = [rng.choice(tuple(field.iter_elements())) for _ in range(e)]
        for i in range(rng.choice([0, 0, 1, e])):  # zero leading components
            comps[i] = field.zero
        parts.append(WittVector(field, tuple(comps)))
    return tuple(parts)


@pytest.mark.parametrize("p,exponents,q", [(2, (3, 1), 4), (3, (2, 1), 3),
                                           (2, (2,), 2), (5, (1, 1), 5)])
def test_last_jump_matches_its_defining_condition(p, exponents, q):
    shape, field = counts.GroupShape(p, exponents), gf.field_for_order(q)
    rng = random.Random(f"{p}{exponents}{q}")
    indices = [n for n in range(12) if n % p or n == 0]
    for _ in range(150):
        support = rng.sample(indices, k=rng.randint(0, 3))
        m = asw.ReducedCocycle(shape, field, {
            n: _random_coefficient(rng, shape, field) for n in support})
        assert asw.last_jump(m) == _last_jump_by_definition(m)
        for x in m.support.values():  # the order the enumerated count reads
            order = asw._additive_order(x)
            assert not any(part.scale(order) for part in x)
            assert any(part.scale(order // p) for part in x)


def test_elementary_abelian_jumps_avoid_multiples_of_p():
    field = gf.make_field(3, 1)
    for m1 in field.iter_elements():
        for m2 in field.iter_elements():
            m = cocycle(Z3, field, {1: [(m1,)], 2: [(m2,)]})
            jump = asw.last_jump(m)
            assert jump == 0 or jump % 3 != 0


def test_ultrametric_inequality_exhaustive_z4():
    coeffs = list(asw.iter_module_elements(Z4, F2))
    data = []
    for c0 in coeffs:
        for c1 in coeffs:
            for c3 in coeffs:
                data.append(asw.ReducedCocycle(Z4, F2, {0: c0, 1: c1, 3: c3}))
    assert len(data) == 64
    for m1 in data:
        for m2 in data:
            lhs = asw.last_jump(asw.cocycle_add(m1, m2))
            j1, j2 = asw.last_jump(m1), asw.last_jump(m2)
            assert lhs <= max(j1, j2)
            if j1 != j2:
                assert lhs == max(j1, j2)


# ---------------------------------------------------------------------------
# oracle: the subgroup lattice and its quotient jumps
# ---------------------------------------------------------------------------

def _subgroups(shape):
    """Every subgroup of G as (elements, generators), sorted by (order, elements).

    Closure from the trivial subgroup: each subgroup found is extended by one
    representative of every other coset, deduplicated on the element set.
    """
    moduli = shape.moduli()
    group = list(itertools.product(*(range(m) for m in moduli)))

    def add(x, y):
        return tuple((a + b) % m for a, b, m in zip(x, y, moduli))

    trivial = frozenset([(0,) * shape.rank])
    found = {trivial: ()}
    frontier = [trivial]
    while frontier:
        nxt = []
        for elems in frontier:
            seen = set(elems)
            for g in group:
                if g in seen:
                    continue
                seen.update(add(g, h) for h in elems)
                bigger, step = set(elems), g
                while step not in elems:
                    bigger.update(add(step, h) for h in elems)
                    step = add(step, g)
                bigger = frozenset(bigger)
                if bigger not in found:
                    found[bigger] = found[elems] + (g,)
                    nxt.append(bigger)
        frontier = nxt
    return sorted(found.items(), key=lambda item: (len(item[0]), sorted(item[0])))


def _lattice(shape, field, subgroups):
    """(H, H tensor W(F_q) inside G tensor W(F_q)) for every subgroup H.

    W(F_q) is free over Z_p on the Teichmueller lifts [beta_k] of an
    F_p-basis of F_q, so H tensor W(F_q) = {sum_k h_k tensor [beta_k]}.
    """
    group = list(itertools.product(*(range(m) for m in shape.moduli())))
    tensors = []
    for k in range(field.n):
        beta = field.element(1 if j == k else 0 for j in range(field.n))
        multiples = []  # per factor, j * [beta] for j < p^(n_i)
        for e in shape.exponents:
            row = [WittVector(field, (field.zero,) * e)]
            while len(row) < shape.p ** e:
                row.append(row[-1] + teichmueller(beta, e))
            multiples.append(row)
        tensors.append({h: tuple(row[h_i] for row, h_i in zip(multiples, h))
                        for h in group})
    lattice = []
    for elems, _ in subgroups:
        span = {tensors[0][h] for h in elems}
        for tensor in tensors[1:]:
            # part by part: + on the tuples would concatenate them
            span = {tuple(a + b for a, b in zip(s, tensor[h]))
                    for s in span for h in elems}
        lattice.append((elems, span))
    return lattice


def _oracle(m, lattice):
    """Discriminant exponent and inertia image by the paper's definition.

    The quotient datum by H has a coefficient of order p^e at index n when e
    is least with p^e m_n in H tensor W(F_q); the inertia image just above
    level v is the intersection of the H whose quotient has last jump <= v.
    """
    p = m.shape.p
    by_jump = {}
    for elems, span in lattice:
        jump = 0
        for n in m.ramified_indices():
            x, e = m.support[n], 0
            while x not in span:
                x = tuple(part.mul_by_p() for part in x)
                e += 1
            if e:
                jump = max(jump, n * p ** (e - 1))
        by_jump.setdefault(jump, []).append(elems)
    top = max(by_jump)  # the quotient by 0 is m itself
    image = frozenset.intersection(*by_jump[0])
    inertia, sizes = image, [len(image)]
    for v in range(top):
        sizes.append(len(image))
        image = image.intersection(*by_jump.get(v + 1, ()))
    return m.shape.order * sum(1 - Fraction(1, s) for s in sizes), inertia


def test_subgroup_counts():
    assert len(_subgroups(Z2)) == 2
    assert len(_subgroups(Z2xZ2)) == 5
    assert len(_subgroups(Z4)) == 3


def test_subgroups_are_sorted_and_closed():
    shape = counts.GroupShape(2, (2, 1))
    subs = _subgroups(shape)
    orders = [len(elems) for elems, _ in subs]
    assert orders == sorted(orders)
    assert orders[0] == 1 and orders[-1] == 8
    for elems, _ in subs:
        for x in elems:
            for y in elems:
                assert tuple((a + b) % m for a, b, m
                             in zip(x, y, shape.moduli())) in elems


def test_subgroup_count_of_z3_squared():
    assert len(_subgroups(counts.GroupShape(3, (1, 1)))) == 6


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_discriminant_and_inertia_match_subgroup_oracle(p):
    # every shape of order <= 64 over F_p, and over F_(p^2) while the module
    # G tensor W(F_q) has at most 64 elements; the zero datum and five
    # random data with one to three coefficients on each
    cases = 0
    for q in (p, p * p):
        field = gf.field_for_order(q)
        for shape in _shapes_up_to(p, 64):
            coeffs = list(asw.iter_module_elements(shape, field))
            if len(coeffs) > 64:
                continue
            lattice = _lattice(shape, field, _subgroups(shape))
            rng = random.Random(f"{shape}/{q}")
            indices = [n for n in range(8) if n % p or n == 0]
            for size in (0, 1, 1, 2, 3, 3):
                m = asw.ReducedCocycle(shape, field, {
                    n: rng.choice(coeffs) for n in rng.sample(indices, size)})
                disc, inertia = _oracle(m, lattice)
                assert asw.discriminant_exponent(m) == disc, m
                # |G| / |K_0| is the order of inertia
                assert asw.ramification_steps(m)[0][1] == len(inertia), m
                cases += 1
    assert cases >= 36


def _character_sum(m):
    """The conductor-discriminant sum over every character a of G, each
    counted once: at index n, chi_a o m has the coefficient
    sum_i a_i p^(N - n_i) x_(n,i) of W_N, read off the Galois-ring
    coefficients, and a coefficient of order k has jump n * (k // p)."""
    p, moduli = m.shape.p, m.shape.moduli()
    top = moduli[0] if moduli else 1
    ramified = [(n, [[top // mod * c for c in part.coeffs]
                     for mod, part in zip(moduli, m.support[n])])
                for n in m.ramified_indices()]
    total = 0
    for a in itertools.product(*(range(mod) for mod in moduli)):
        jump = max((n * (top // math.gcd(top, *(
            sum(a_i * col[k] for a_i, col in zip(a, cols))
            for k in range(m.field.n))) // p) for n, cols in ramified), default=0)
        if jump:
            total += jump + 1
    return total


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_discriminant_matches_the_character_sum_up_to_the_cap(p):
    # every shape up to order 1024 and, up to order 4096,
    # those of rank <= 3 and the elementary ones, over F_p, and over F_(p^2)
    # up to order 64; one datum with one to three random coefficients each
    indices = [n for n in range(1, 12) if n % p]
    for shape in _shapes_up_to(p, 4096):
        if shape.order > 1024 and shape.rank > 3 and shape.exponents[0] > 1:
            continue
        for q in (p, p * p) if shape.order <= 64 else (p,):
            field = gf.field_for_order(q)
            rng = random.Random(f"{shape}/{q}")
            m = asw.ReducedCocycle(shape, field, {
                n: tuple(WittVector(field, tuple(
                    field.element([rng.randrange(p) for _ in range(field.n)])
                    for _ in range(e))) for e in shape.exponents)
                for n in rng.sample(indices, rng.randint(1, 3))})
            assert asw.discriminant_exponent(m) == _character_sum(m), m


def test_cli_disc_in_w7_matches_subgroup_oracle(capsys):
    # the characters of Z/128 x Z/2 add in W_7
    terms = "1:1;0;0;0;0;0;0|1"
    status = main(["disc", "--p", "2", "--q", "2", "--group", "7,1",
                   "--terms", terms])
    captured = capsys.readouterr()
    assert status == 0, captured.err
    shape = counts.GroupShape(2, (7, 1))
    m = parse_cocycle(terms, shape, F2)
    disc, _ = _oracle(m, _lattice(shape, F2, _subgroups(shape)))
    assert json.loads(captured.out)["result"]["discriminant_exponent"] == disc


# ---------------------------------------------------------------------------
# the ramification filtration
# ---------------------------------------------------------------------------

# |G| / |K_u| is the order of the ramification group above u, and the
# quotient of G by a subgroup H has jump the least u where it is <= |H|

def _orders(m, u_max):
    """|G| / |K_u| for u = 0 .. u_max, read from `asw.ramification_steps`."""
    steps = asw.ramification_steps(m)
    return [next(size for lo, size in reversed(steps) if lo <= u)
            for u in range(u_max + 1)]


def test_quotient_by_trivial_subgroup_is_identity():
    # the quotient by 0 is G, whose jump is the last jump 3
    m = cocycle(Z4, F2, {1: [(1, 0)], 3: [(0, 1)]})
    assert asw.last_jump(m) == 3
    assert _orders(m, 4) == [4, 2, 2, 1, 1]


def test_quotient_by_full_group_is_zero():
    m = cocycle(Z4, F2, {1: [(1, 0)]})
    assert _orders(m, 0) == [4]


def test_quotient_by_diagonal_kills_diagonal_coefficient():
    # K_0 is {(0, 0), (1, 1)}: the characters that kill the diagonal
    m = cocycle(Z2xZ2, F2, {1: [(1,), (1,)]})
    assert _orders(m, 2) == [2, 1, 1]


def test_quotient_of_z4_by_two_torsion():
    m = cocycle(Z4, F2, {1: [(1, 0)]})
    assert asw.ramification_steps(m) == [(0, 4), (1, 2), (2, 1)]
    assert _orders(m, 2) == [4, 2, 1]


def test_quotient_monotonicity():
    for entries in ({1: [(1, 0)]}, {1: [(0, 1)], 3: [(1, 1)]}, {3: [(1, 0)]}):
        m = cocycle(Z4, F2, entries)
        top = asw.last_jump(m)
        orders = _orders(m, top + 1)
        assert orders == sorted(orders, reverse=True)
        assert orders[top - 1] > 1 and orders[top] == 1


def test_a_last_jump_no_character_reaches_fires_the_certificate(monkeypatch):
    m = cocycle(Z4, F2, {3: [(1, 0)]})
    true_jump = asw.last_jump
    monkeypatch.setattr(asw, "last_jump", lambda datum: true_jump(datum) + 1)
    for compute in (asw.ramification_steps, asw.discriminant_exponent):
        with pytest.raises(InternalInconsistencyError,
                           match="every character has jump at most 6, "
                                 "below the last jump 7"):
            compute(m)


@pytest.mark.parametrize("shape", [
    counts.GroupShape(2, (1, 1)), counts.GroupShape(2, (2, 1)),
    counts.GroupShape(2, (2, 2)), counts.GroupShape(3, (1, 1)),
    counts.GroupShape(2, (3, 1))])
def test_quotient_map_kernel_is_exactly_the_subgroup(shape):
    # a datum whose ramified coefficients lift generators of H has inertia
    # H, so the characters killing them, K_0, have index |H|
    field = gf.make_field(shape.p, 1)

    def lift(x):
        return tuple(WittVector.from_int(field, e, k)
                     for e, k in zip(shape.exponents, x))

    indices = [n for n in range(1, 64) if n % shape.p]
    for elems, gens in _subgroups(shape):
        m = asw.ReducedCocycle(shape, field, {
            n: lift(g) for n, g in zip(indices, gens)})
        assert asw.ramification_steps(m)[0][1] == len(elems)


# ---------------------------------------------------------------------------
# discriminant exponent
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,q_deg", [(2, 1), (3, 1), (5, 1)])
def test_discriminant_of_cyclic_data_matches_break_formula(p, q_deg):
    field = gf.make_field(p, q_deg)
    shape = counts.GroupShape(p, (1,))
    for jump in [n for n in range(1, 8) if n % p]:
        m = asw.ReducedCocycle(shape, field,
                               {jump: (WittVector(field, (field.one,)),)})
        assert asw.discriminant_exponent(m) == (jump + 1) * (p - 1)


def test_discriminant_of_unramified_datum_is_zero():
    assert asw.discriminant_exponent(cocycle(Z2, F2, {0: [(1,)]})) == 0
    assert asw.discriminant_exponent(cocycle(Z4, F2, {})) == 0


def test_discriminant_of_z4_datum():
    # order-4 coefficient at index 1: breaks at 1 and 2, images Z/4 then Z/2
    m = cocycle(Z4, F2, {1: [(1, 0)]})
    # 4*[(1 - 1/4) + (1 - 1/4) + (1 - 1/2)] = 3 + 3 + 2
    assert asw.discriminant_exponent(m) == 8


def test_ramification_integral_rejects_bad_sizes():
    with pytest.raises(InternalInconsistencyError):
        asw.ramification_integral(4, [(3, 1)])


def test_ramification_integral_rejects_bad_sizes_under_optimisation():
    src = Path(asw.__file__).resolve().parents[1]
    # also the integrality certificate of the Witt vectors: a Teichmueller
    # lift that is not congruent to its digit mod p leaves a remainder
    code = ("from ramcount import asw, gf, witt\n"
            "from ramcount.errors import InternalInconsistencyError\n"
            "f2 = gf.make_field(2, 1)\n"
            "witt._galois_ring(f2, 2)._lifts[f2.one.coeffs] = (2,)\n"
            "for check in (lambda: asw.ramification_integral(4, [(3, 1)]),\n"
            "              lambda: witt.WittVector.one(f2, 2).components):\n"
            "    try:\n"
            "        check()\n"
            "    except InternalInconsistencyError:\n"
            "        print('raised')\n")
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.stdout.split() == ["raised", "raised"], done.stderr


def test_discriminant_is_sized_by_its_work_not_its_group_order(capsys,
                                                              monkeypatch):
    # order 2^13 answers, as the sum over its 8192 characters says, and so
    # does (Z/2)^40, whose 2^39 characters of odd weight have conductor 2;
    # Z/2^2000 with five terms is refused on its filtration's coefficient
    # products, and (Z/M61)^20000 on its printed answer, each before any
    # coefficient is lifted
    terms = "1:" + ";".join("1" + "0" * 12)
    assert main(["disc", "--p", "2", "--q", "2", "--group", "13",
                 "--terms", terms]) == 0
    shape = counts.GroupShape(2, (13,))
    assert json.loads(capsys.readouterr().out)["result"] == {
        "discriminant_exponent": _character_sum(parse_cocycle(terms, shape, F2))}
    assert main(["disc", "--p", "2", "--q", "2", "--group", ",".join("1" * 40),
                 "--terms", "1:" + "|".join("1" * 40), "--format", "tsv"]) == 0
    assert capsys.readouterr().out == f"discriminant_exponent\t{2 ** 40}\n"

    def no_lift(*args):
        raise AssertionError("lifted a coefficient")

    monkeypatch.setattr("ramcount.witt.WittVector.__init__", no_lift)
    terms = ",".join(f"{n}:1" + ";0" * 1999 for n in (1, 3, 5, 7, 9))
    m61 = 2 ** 61 - 1
    for argv, message in [
            (("--p", "2", "--q", "2", "--group", "2000", "--terms", terms),
             "140780020 coefficient products to read the filtration"),
            (("--p", str(m61), "--q", str(m61), "--group", ",".join("1" * 20000),
              "--terms", ""),
             "22724289 word products to print the discriminant")]:
        assert main(["disc", *argv]) == 2
        assert capsys.readouterr().err == f"error: {message} exceed 5000000\n"


def _cut_jump(p, terms, k):
    """The last jump of a cyclic datum cut to its first k Witt components:
    at index n, a first nonzero component at position i < k leaves order
    p^(k - i), so jump n p^(k - i - 1)."""
    best = 0
    for n, (comps,) in terms.items():
        i = next((i for i, comp in enumerate(comps[:k]) if any(comp)), k)
        if i < k:
            best = max(best, n * p ** (k - i - 1))
    return best


def _digit_conductor_sum(p, exponents, terms):
    """The conductor-discriminant sum read from the coefficient digits,
    with neither the library's filtration nor the Galois ring.  `terms` maps
    a ramified index to one part per factor, a part to its Witt components,
    a component to its base-p digits.  On (Z/p)^r the character a sees the
    F_p-combination sum_i a_i c_i of the digit vectors, ramified up to the
    largest index where it is nonzero; on Z/p^e the p^k - p^(k-1)
    characters of order p^k see the datum cut to its first k components."""
    if len(exponents) == 1:
        jumps = [_cut_jump(p, terms, k) for k in range(1, exponents[0] + 1)]
        return sum((p ** k - p ** (k - 1)) * (jump + 1)
                   for k, jump in enumerate(jumps, 1) if jump)
    total = 0
    for a in itertools.product(range(p), repeat=len(exponents)):
        jump = max((n for n, parts in terms.items()
                    if any(sum(a_i * part[0][j] for a_i, part in zip(a, parts)) % p
                           for j in range(len(parts[0][0])))), default=0)
        if jump:
            total += jump + 1
    return total


@pytest.mark.parametrize("p, exponents, q", [
    (2, (1,) * 12, 2), (3, (1,) * 7, 9), (2, (11,), 4), (2, (12,), 2)],
    ids=["Z2^12-F2", "Z3^7-F9", "Z2048-F4", "Z4096-F2"])
def test_disc_at_orders_2048_and_4096_matches_the_digit_conductor_sum(
        capsys, p, exponents, q):
    # the subgroup oracle takes over 10 s per shape at these orders; three
    # ramified indices, each Witt component zero or random with even odds
    width = gf.field_for_order(q).n
    rng = random.Random(f"{p}/{exponents}/{q}")
    indices = rng.sample([n for n in range(1, 12) if n % p], 3)
    terms = {n: [[[rng.randrange(p) for _ in range(width)] if rng.randrange(2)
                  else [0] * width for _ in range(e)] for e in exponents]
             for n in indices}
    text = ",".join(
        f"{n}:" + "|".join(";".join("".join(map(str, comp)) for comp in part)
                           for part in parts)
        for n, parts in terms.items())
    status = main(["disc", "--p", str(p), "--q", str(q), "--group",
                   ",".join(map(str, exponents)), "--terms", text])
    captured = capsys.readouterr()
    assert status == 0, captured.err
    disc = json.loads(captured.out)["result"]["discriminant_exponent"]
    assert disc == _digit_conductor_sum(p, exponents, terms) > 0


def test_discriminant_of_rank_three_datum_over_f7():
    # the conductor-discriminant sum over F_7^3: 294 characters see index 11
    # and 42 more see only index 10, so 294 * 12 + 42 * 11
    shape = counts.GroupShape(7, (1, 1, 1))
    m = cocycle(shape, gf.make_field(7, 1),
                {10: [(4,), (5,), (6,)], 11: [(2,), (1,), (6,)]})
    assert asw.discriminant_exponent(m) == 3990


def test_inertia_image():
    # the order of inertia is |G| / |K_0|
    m = cocycle(Z2xZ2, F2, {1: [(1,), (0,)]})
    assert asw.ramification_steps(m)[0][1] == 2
    full = cocycle(Z2xZ2, F2, {1: [(1,), (0,)], 3: [(0,), (1,)]})
    assert asw.ramification_steps(full)[0][1] == 4
    unram = cocycle(Z2xZ2, F2, {0: [(1,), (1,)]})
    assert asw.ramification_steps(unram)[0][1] == 1


# ---------------------------------------------------------------------------
# counting by last jump
# ---------------------------------------------------------------------------

def test_count_unramified_homomorphisms_is_group_order():
    for shape, q in [(Z2, 2), (Z4, 2), (Z2xZ2, 4), (Z3, 3)]:
        assert counts.count_by_last_jump(shape, q, 0, "homomorphisms") == shape.order
        assert counts.count_by_last_jump(shape, q, 0, "inertial_types") == 1


def test_count_z2_inertial_types():
    assert counts.count_by_last_jump(Z2, 2, 1, "inertial_types") == 1
    assert counts.count_by_last_jump(Z2, 2, 2, "inertial_types") == 0


@pytest.mark.parametrize("q", [2, 4])
def test_count_z2_matches_closed_form(q):
    for v in range(1, 8):
        got = counts.count_by_last_jump(Z2, q, v, "inertial_types")
        if v % 2:
            assert got == q ** ((v - 1) // 2) * (q - 1)
        else:
            assert got == 0


def test_count_modes_are_proportional():
    for shape, q, v in [(Z2, 2, 3), (Z4, 2, 2), (Z2xZ2, 2, 3), (Z2xZ2, 4, 1),
                        (Z3, 3, 2), (Z4, 4, 4)]:
        hom = counts.count_by_last_jump(shape, q, v, "homomorphisms")
        iner = counts.count_by_last_jump(shape, q, v, "inertial_types")
        assert hom == shape.order * iner


def test_count_z4_small_jumps():
    # jump 1 needs an order-2 coefficient at index 1; jump 2 an order-4 one
    assert counts.count_by_last_jump(Z4, 2, 1, "inertial_types") == 1
    assert counts.count_by_last_jump(Z4, 2, 2, "inertial_types") == 2


def test_count_budget(monkeypatch):
    def no_listing(*args):
        raise AssertionError("listed the module before the budget check")

    # (1024^2)^2 coefficient pairs at the indices 1 and 3
    monkeypatch.setattr(asw, "iter_module_elements", no_listing)
    with pytest.raises(BudgetExceededError,
                       match="^1099511627776 candidates exceed 5000000$"):
        asw.count_by_last_jump_enumerated(Z2xZ2, 1024, 3, "inertial_types")
    # 2^(100 * 32) tuples for (Z/2)^100 at v = 63: stated by the exponent,
    # never built
    with pytest.raises(BudgetExceededError,
                       match=r"^at least 2\^3200 candidates exceed 5000000$"):
        asw.count_by_last_jump_enumerated(counts.GroupShape(2, (1,) * 100), 2,
                                          63, "inertial_types")


def test_count_budget_comes_before_the_index_list():
    # v = 10^6 has 500000 ramified indices over Z/2; they are counted as
    # v - floor(v / p), and the list of them is never made
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError,
                           match=r"^at least 2\^500000 candidates exceed 5000000$"):
            asw.count_by_last_jump_enumerated(Z2, 2, 10 ** 6, "inertial_types")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def _jump_exponent_by_definition(shape, t):
    """sum over the ramified n <= t and each factor of min(n_i, e_n(t)),
    e_n(t) = #{k >= 0 : n p^k <= t}, as the torsion sizes define it."""
    return sum(min(e, counts.mu(t + 1, n, shape.p))
               for n in range(1, t + 1) if n % shape.p
               for e in shape.exponents)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_jump_exponent_counts_the_torsion_by_definition(p):
    for exponents in [(), (1,), (2,), (3,), (1, 1), (2, 1), (3, 3, 1),
                      (4, 2, 2, 1), (9,)]:
        shape = counts.GroupShape(p, exponents)
        for t in range(60):
            assert (counts._jump_exponent(shape, t)
                    == _jump_exponent_by_definition(shape, t)), (shape, t)


def test_jump_exponent_builds_no_power_past_the_jump():
    # Z/2^(10^12): p^(n_i) would have 10^12 bits, and exceeds every t here
    shape = counts.GroupShape(2, (10 ** 12, 1))
    assert counts._jump_exponent(shape, 10 ** 9) == 10 ** 9 + 10 ** 9 // 2


def test_count_budget_sizes_the_listed_tuples_alone(monkeypatch):
    # Z/2 over F_2 at v = 5 lists 2^3 coefficient tuples at the indices 1,
    # 3 and 5; the factor |G| of the homomorphisms is multiplied in after
    # the listing, so it does not count against the budget
    monkeypatch.setattr(counts, "DEFAULT_BUDGET", 8)
    types = asw.count_by_last_jump_enumerated(Z2, 2, 5, "inertial_types")
    homs = asw.count_by_last_jump_enumerated(Z2, 2, 5, "homomorphisms")
    assert homs == Z2.order * types == 2 * 4
    monkeypatch.setattr(counts, "DEFAULT_BUDGET", 7)
    for mode in ("inertial_types", "homomorphisms"):
        with pytest.raises(BudgetExceededError,
                           match="^8 candidates exceed 7$"):
            asw.count_by_last_jump_enumerated(Z2, 2, 5, mode)


@pytest.mark.parametrize("shape", [Z2, Z4, Z2xZ2, Z3])
def test_count_enumeration_builds_no_field_at_jump_zero(monkeypatch, shape):
    # at v = 0 there is no ramified index to fill, so GF(2^20) or GF(3^20)
    # is not built; only the unramified factor is counted
    def no_field(*args, **kwargs):
        raise AssertionError("built a field")

    monkeypatch.setattr(asw, "field_for_order", no_field)
    q = shape.p ** 20
    assert (asw.count_by_last_jump_enumerated(shape, q, 0, "homomorphisms")
            == shape.order)
    assert asw.count_by_last_jump_enumerated(shape, q, 0, "inertial_types") == 1


def test_count_rejects_bad_input():
    for q, v, mode, error in [(2, -1, "inertial_types", ValueError),
                              (2, 10 ** 9, "inertial_types", BudgetExceededError),
                              (2, 1, "types", ValueError),
                              (6, 1, "inertial_types", NonPrimeError),
                              (9, 1, "inertial_types", MixedFieldsError)]:
        with pytest.raises(error):
            counts.count_by_last_jump(Z2, q, v, mode)


def test_count_needs_no_residue_field():
    # GF(2^30) is past the field degree cap, and GF(3^12) has 531441
    # elements; the closed form builds neither
    assert counts.count_by_last_jump(Z2, 2 ** 30, 1, "inertial_types") == 2 ** 30 - 1
    assert counts.count_by_last_jump(Z3, 3 ** 12, 1, "inertial_types") == 3 ** 12 - 1


def _shapes_up_to(p, max_order):
    def partitions(total, top):
        if total == 0:
            yield ()
        for e in range(min(total, top), 0, -1):
            for tail in partitions(total - e, e):
                yield (e,) + tail

    k = 0
    while p ** k <= max_order:
        yield from (counts.GroupShape(p, exps) for exps in partitions(k, k))
        k += 1


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_count_closed_form_matches_enumeration_oracle(p):
    # every shape of order <= 64 over F_p, and over F_(p^2) while the
    # module G tensor W(F_q) has at most 64 elements; all v whose
    # enumeration stays within 1024 data
    cases = 0
    for q in (p, p * p):
        for shape in _shapes_up_to(p, 64):
            module = q ** sum(shape.exponents)
            if module > 64:
                continue
            for v in range(14):
                indices = len([n for n in range(1, v + 1) if n % p])
                if module ** indices > 1024:
                    continue
                for mode in ("homomorphisms", "inertial_types"):
                    cases += 1
                    assert (counts.count_by_last_jump(shape, q, v, mode)
                            == asw.count_by_last_jump_enumerated(shape, q, v, mode)
                            ), (shape, q, v, mode)
    assert cases >= 40


# ---------------------------------------------------------------------------
# property-based checks
# ---------------------------------------------------------------------------

@settings(max_examples=60)
@given(st.lists(st.tuples(st.sampled_from([0, 1, 3, 5]), st.integers(0, 3)),
                max_size=4),
       st.lists(st.tuples(st.sampled_from([0, 1, 3, 5]), st.integers(0, 3)),
                max_size=4))
def test_ultrametric_inequality_on_random_z4_data(items1, items2):
    coeffs = list(asw.iter_module_elements(Z4, F2))

    def build(items):
        entries = {}
        for n, k in items:
            entries[n] = coeffs[k]
        return asw.ReducedCocycle(Z4, F2, entries)

    m1, m2 = build(items1), build(items2)
    j1, j2 = asw.last_jump(m1), asw.last_jump(m2)
    lhs = asw.last_jump(asw.cocycle_add(m1, m2))
    assert lhs <= max(j1, j2)
    if j1 != j2:
        assert lhs == max(j1, j2)
