"""The curve carrier is the toric carrier of its lifted cone.

``CurveCarrier`` used to test a weight (m, r) with floors of the vertex
minima h_0(m) = min <v, m> over the vertices at 0 and h_inf(m) over the
vertices at infinity, and to compute the horizontal multiplier as
d (<v0, m> + r).  Those formulas are kept below as test oracles and
compared with the lifted cone's ``admits``, ``first_exit`` and
``multiplier`` on seeded carriers over A^1 and P^1.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import product

import pytest
from test_flows import _horizontal_data

from demazure.algebra import (
    CurveCarrier,
    HomogeneousLND,
    SemigroupElement,
    ToricCarrier,
    exp_action,
    lifted_cone,
    monomial,
)
from demazure.divisors import (
    INF,
    ColoredDivisor,
    PolyhedralDivisor,
    coherent_check,
    horizontal_lnd,
    toric_realization,
)
from demazure.errors import RankMismatch
from demazure.lattice import Cone, dot

# -- the former floor formulas (oracles only) --------------------------------


def floor_admits(carrier, key):
    m, r = key
    if any(dot(g, m) < 0 for g in carrier.tail.gens):
        return False
    if r < -math.floor(min(dot(v, m) for v in carrier.vertices0)):
        return False
    if carrier.curve == "P1" and r > math.floor(
            min(dot(w, m) for w in carrier.vertices_inf)):
        return False
    return True


def floor_first_exit(carrier, key, step, ceiling):
    """The first k in 1..ceiling with key + k*step not admissible."""
    (m, r), (e, s) = key, step
    for k in range(1, ceiling + 1):
        if not floor_admits(carrier, (
                tuple(x + k * y for x, y in zip(m, e)), r + k * s)):
            return k
    return None


def floor_multiplier(v0, d, key):
    m, r = key
    return d * (dot(v0, m) + r)


# -- seeded carriers ----------------------------------------------------------


def _case(rng):
    """A carrier over A^1 or P^1, a derivation datum (v0, d, e, s) with
    d (<v0, e> + s) = -1, and every key of a box around the origin."""
    while True:
        carrier, datum = _horizontal_data(rng)
        if datum is not None:
            keys = [(m, r) for m in product(range(-3, 4), repeat=carrier.rank)
                    for r in range(-4, 5)]
            return carrier, datum, keys


def test_lifted_carrier_matches_the_floor_formulas():
    rng = random.Random(4041)
    counts = {"A1": 0, "P1": 0, "empty tail": 0, "fractional": 0,
              "admitted": 0, "refused": 0, "exits": 0, "stays": 0}
    for _ in range(80):
        carrier, (v0, d, e, s), keys = _case(rng)
        lnd = HomogeneousLND.horizontal(carrier, v0, d, e, s)
        counts[carrier.curve] += 1
        counts["empty tail"] += not carrier.tail.gens
        counts["fractional"] += any(
            x.denominator > 1 for v in carrier.vertices0 for x in v)
        steps = [(e, s)] + [
            (tuple(rng.randint(-2, 2) for _ in e), rng.randint(-2, 2))
            for _ in range(2)]
        for key in keys:
            ok = carrier.admits(key)
            assert ok == floor_admits(carrier, key), (carrier, key)
            counts["admitted" if ok else "refused"] += 1
            assert lnd.multiplier(key) == floor_multiplier(v0, d, key)
            for step in steps:
                k = carrier.first_exit(key, step)
                # every exit of these small boxes comes within 40 steps
                assert k == floor_first_exit(carrier, key, step, 40), (
                    carrier, key, step)
                counts["stays" if k is None else "exits"] += 1
    assert min(counts[c] for c in ("A1", "P1", "empty tail", "fractional")) \
        >= 20
    assert counts["admitted"] > 1000 and counts["refused"] > 5000
    assert counts["exits"] > 20000 and counts["stays"] > 1000


def test_horizontal_derivation_reads_back_its_data():
    rng = random.Random(4042)
    for _ in range(50):
        carrier, (v0, d, e, s), _ = _case(rng)
        lnd = HomogeneousLND.horizontal(carrier, v0, d, e, s)
        n = lnd.ray_normal
        assert n[-1] == d
        assert tuple(Fraction(x, d) for x in n[:-1]) == v0
        assert lnd.e == (e, s)
        assert dot(n, carrier.flat(lnd.e)) == -1


def test_flat_keys_and_shifts():
    carrier = CurveCarrier("P1", Cone(1, [(1,)]), [(0,)], [(1,)])
    assert carrier.rank == 1 and carrier.cone.rank == 2
    assert carrier.flat(((3,), -1)) == (3, -1)
    assert carrier.add_keys(((3,), -1), ((1,), 2)) == ((4,), 1)
    assert carrier.add_keys(((3,), -1), ((1,), 2), 3) == ((6,), 5)
    toric = ToricCarrier(Cone(2, [(1, 0), (0, 1)]))
    assert toric.flat((3, -1)) == (3, -1)
    assert toric.add_keys((3, -1), (1, 2), 0) == (3, -1)
    assert toric.add_keys((3, -1), (1, 2), -2) == (1, -5)


# -- equality ----------------------------------------------------------------


def test_curve_carrier_equality_is_the_lifted_cone():
    tail = Cone(1, [(1,)])
    a = CurveCarrier("P1", tail, [(Fraction(1, 2),), (2,)], [(1,)])
    b = CurveCarrier("P1", Cone(1, [(2,)]), [(2,), (Fraction(1, 2),)],
                     [(1,)])
    assert a == b
    assert a.cone.gens == lifted_cone(
        1, [(1,)], [(Fraction(1, 2),), (2,)], [(1,)]).gens
    assert a != CurveCarrier("P1", tail, [(Fraction(1, 2),)], [(1,)])
    assert a != CurveCarrier("P1", tail, [(Fraction(1, 2),), (2,)], [(2,)])
    assert CurveCarrier("A1", tail, [(0,)]) != CurveCarrier(
        "P1", tail, [(0,)], [(0,)])


def test_curve_carrier_never_equals_a_toric_carrier():
    rng = random.Random(4043)
    for _ in range(40):
        carrier, _, keys = _case(rng)
        toric = ToricCarrier(carrier.cone)
        assert carrier != toric and toric != carrier
        assert toric == ToricCarrier(carrier.cone)
        # so arithmetic across the two never trusts mixed key shapes:
        # it fails with the error two carriers of different rank give
        x = monomial(toric, (0,) * toric.rank)
        y = monomial(carrier, ((0,) * carrier.rank, 0))
        with pytest.raises(RankMismatch):
            y + x
        with pytest.raises(RankMismatch):
            x - y
        with pytest.raises(RankMismatch):
            x * y
        with pytest.raises(RankMismatch):
            y * x


def test_flow_of_an_element_of_an_equal_carrier():
    # an equal carrier built again is trusted, as before
    a = CurveCarrier("A1", Cone(1, [(1,)]), [(Fraction(1, 2),)])
    b = CurveCarrier("A1", Cone(1, [(1,)]), [(Fraction(1, 2),)])
    lnd = HomogeneousLND.horizontal(a, (Fraction(1, 2),), 2, (1,), -1)
    x = SemigroupElement(b, [(((1,), 0), 1)])
    y = exp_action(lnd, x, 1)
    assert y.carrier is a
    # the multiplier of ((1,), 0) is 2 (1/2 + 0) = 1
    assert y == SemigroupElement(a, [(((1,), 0), 1), (((2,), -1), 1)])


# -- one lift ----------------------------------------------------------------


def test_toric_realization_is_the_carrier_lift_at_the_trivial_vertex():
    ray, quad = Cone(1, [(1,)]), Cone(2, [(1, 0), (0, 1)])
    cases = [
        (PolyhedralDivisor("A1", quad, {}), None),
        (PolyhedralDivisor("P1", ray, {INF: [(1,)]}), [(1,)]),
        (PolyhedralDivisor("P1", quad, {INF: [(1, 1)]}), [(1, 1)]),
    ]
    for div, at_inf in cases:
        cone, e = toric_realization(div)
        zero = (0,) * div.rank
        carrier = CurveCarrier(div.curve, div.tail, [zero], at_inf)
        assert cone.gens == carrier.cone.gens
        assert e == zero + (-1,)


def test_coherence_lift_is_the_carrier_lift():
    # one vertex at 0 and two at infinity: the lifted cone of the
    # coherence check is the cone of the derivation's carrier
    quad = Cone(2, [(1, 0), (0, 1)])
    v0 = (Fraction(1, 2), 0)
    div = PolyhedralDivisor("P1", quad, {0: [v0], INF: [(1, 0), (0, 1)]})
    colored = ColoredDivisor(div, 0, {0: v0}, zinf=INF)
    res = coherent_check(colored, (1, 0))
    _, lnd = horizontal_lnd(colored, (1, 0))
    expected = Cone(3, [(1, 0, 0), (0, 1, 0), (1, 0, 2),
                        (1, 0, -1), (0, 1, -1)])
    assert res.sigma_tilde.gens == lnd.carrier.cone.gens == expected.gens
    assert lnd.ray_normal == (1, 0, 2) and lnd.e == ((1, 0), -1)
