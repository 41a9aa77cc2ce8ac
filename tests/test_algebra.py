"""Carriers, graded elements, homogeneous LNDs and their flows."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from demazure.algebra import (
    CurveCarrier,
    Flow,
    HomogeneousLND,
    SemigroupElement,
    SymbolicElement,
    ToricCarrier,
    derive,
    exp_action,
    exp_symbolic,
    monomial,
    nilpotency_index,
    toric_lnd,
)
from demazure.errors import (
    CurveMismatch,
    DemazureError,
    InvalidInteger,
    NotARoot,
    NotNilpotent,
    RankMismatch,
    SchemaError,
    WeightEscape,
)
from demazure.fan import build_fan
from demazure.lattice import Cone
from demazure.roots import roots_of_cone


def is_zero(x):
    """Is the element x zero?  Its zero terms are dropped when it is made."""
    return not x.terms


def quadrant_carrier():
    return ToricCarrier(Cone(2, [(1, 0), (0, 1)]))


def singular_carrier():
    return ToricCarrier(Cone(2, [(1, 0), (1, 2)]))


def a1_carrier():
    # tail Q>=0, coefficient at 0 is [1/2, oo)
    return CurveCarrier("A1", Cone(1, [(1,)]), [(Fraction(1, 2),)])


def p1_carrier():
    # tail Q>=0, trivial coefficient at 0, [1, oo) at infinity
    return CurveCarrier("P1", Cone(1, [(1,)]), [(0,)], [(1,)])


def test_toric_carrier_admits():
    c = quadrant_carrier()
    assert c.admits((0, 0)) and c.admits((3, 1))
    assert not c.admits((-1, 0))
    s = singular_carrier()
    # dual of cone((1,0),(1,2)) in coordinates: m1 >= 0 and m1 + 2 m2 >= 0
    assert s.admits((2, -1)) and s.admits((0, 1))
    assert not s.admits((1, -1))


def test_curve_carrier_admits():
    c = a1_carrier()
    assert c.admits(((2,), -1))
    assert not c.admits(((1,), -1))  # floor(1/2) = 0 forces r >= 0
    assert c.admits(((0,), 5))
    assert not c.admits(((-1,), 0))  # weight outside the dual of the tail
    p = p1_carrier()
    assert p.admits(((3,), 0)) and p.admits(((3,), 3))
    assert not p.admits(((3,), 4))  # a pole at infinity
    assert not p.admits(((3,), -1))


def test_curve_carrier_validation():
    with pytest.raises(CurveMismatch):
        CurveCarrier("P2", Cone(1, [(1,)]), [(0,)])
    with pytest.raises(CurveMismatch):
        CurveCarrier("P1", Cone(1, [(1,)]), [(0,)])
    with pytest.raises(CurveMismatch):
        CurveCarrier("A1", Cone(1, [(1,)]), [(0,)], [(1,)])


def test_element_construction():
    c = quadrant_carrier()
    x = SemigroupElement(c, {(1, 0): 2, (0, 1): Fraction(1, 3)})
    assert x.terms == {(1, 0): Fraction(2), (0, 1): Fraction(1, 3)}
    assert is_zero(SemigroupElement(c, {(1, 0): 0}))
    with pytest.raises(WeightEscape):
        SemigroupElement(c, {(-1, 0): 1})
    with pytest.raises(InvalidInteger):
        SemigroupElement(c, {(Fraction(1, 2), 0): 1})
    with pytest.raises(RankMismatch):
        SemigroupElement(c, {(1, 0, 0): 1})


def test_element_arithmetic():
    c = quadrant_carrier()
    x = monomial(c, (1, 0))
    y = monomial(c, (0, 1), Fraction(1, 2))
    assert (x + y) - y == x
    assert is_zero(x - x)
    assert 3 * x == SemigroupElement(c, {(1, 0): 3})
    assert x * y == SemigroupElement(c, {(1, 1): Fraction(1, 2)})
    assert x ** 3 == monomial(c, (3, 0))
    assert (x + y) * (x - y) == x * x - y * y


def test_toric_lnd_basic():
    c = quadrant_carrier()
    for k in range(4):
        lnd = HomogeneousLND.toric(c, (1, 0), (-1, k))
        x1 = monomial(c, (1, 0))
        x2 = monomial(c, (0, 1))
        assert derive(lnd, x1) == monomial(c, (0, k))
        assert is_zero(derive(lnd, x2))
        assert nilpotency_index(lnd, x1) == 2
        assert nilpotency_index(lnd, x2) == 1
        sym = exp_symbolic(lnd, x1)
        assert sym.terms == {(1, 0): {0: Fraction(1)}, (0, k): {1: Fraction(1)}}
        assert exp_symbolic(lnd, x2).terms == {(0, 1): {0: Fraction(1)}}


def test_toric_lnd_rejects_bad_degree():
    c = quadrant_carrier()
    with pytest.raises(NotARoot):
        HomogeneousLND.toric(c, (1, 0), (-2, 0))
    with pytest.raises(NotARoot):
        HomogeneousLND.toric(c, (1, 0), (1, 1))


def test_toric_lnd_from_cone():
    cone = Cone(2, [(1, 0), (0, 1)])
    lnd = toric_lnd(cone, (-1, 2))
    assert lnd.ray_normal == (1, 0) and lnd.e == (-1, 2)
    with pytest.raises(NotARoot):
        toric_lnd(cone, (-1, -1))  # two negative pairings
    with pytest.raises(NotARoot):
        toric_lnd(cone, (1, 1))  # no negative pairing
    with pytest.raises(NotARoot):
        toric_lnd(cone, (-2, 1))


def test_singular_cone_orbit_of_derivatives():
    c = singular_carrier()
    lnd = toric_lnd(c.cone, (-1, 1))
    x = monomial(c, (2, 1))
    d1 = derive(lnd, x)
    d2 = derive(lnd, d1)
    d3 = derive(lnd, d2)
    assert d1 == SemigroupElement(c, {(1, 2): 2})
    assert d2 == SemigroupElement(c, {(0, 3): 2})
    assert is_zero(d3)
    assert nilpotency_index(lnd, x) == 3
    assert exp_action(lnd, x, Fraction(1, 2)) == SemigroupElement(
        c, {(2, 1): 1, (1, 2): 1, (0, 3): Fraction(1, 4)}
    )


def test_weight_escape_toric():
    c = quadrant_carrier()
    lnd = HomogeneousLND.toric(c, (1, 0), (-1, -1))  # pairs -1 with (0,1) too
    ok = monomial(c, (1, 1))
    assert derive(lnd, ok) == monomial(c, (0, 0))
    with pytest.raises(WeightEscape):
        derive(lnd, monomial(c, (1, 0)))


def test_weight_escape_horizontal():
    # coefficient conv(0, 1) at t=0, distinguished vertex 0: the flow tries
    # to leave through the second vertex
    carrier = CurveCarrier("A1", Cone(1, []), [(0,), (1,)])
    lnd = HomogeneousLND.horizontal(carrier, (0,), 1, (0,), -1)
    assert carrier.admits(((-1,), 1))
    with pytest.raises(WeightEscape):
        derive(lnd, monomial(carrier, ((-1,), 1)))


def test_not_nilpotent():
    c = quadrant_carrier()
    lnd = HomogeneousLND.toric(c, (-1, 0), (1, 0))  # multiplier grows forever
    x = monomial(c, (1, 1))
    with pytest.raises(NotNilpotent):
        nilpotency_index(lnd, x)


def test_horizontal_d2():
    carrier = a1_carrier()
    lnd = HomogeneousLND.horizontal(
        carrier, (Fraction(1, 2),), 2, (1,), -1
    )
    x = monomial(carrier, ((1,), 0))
    dx = derive(lnd, x)
    assert dx == monomial(carrier, ((2,), -1))  # multiplier 1*(1/2*1+0)*2 = 1
    assert is_zero(derive(lnd, dx))
    assert nilpotency_index(lnd, x) == 2
    sym = exp_symbolic(lnd, x)
    assert sym.terms == {((1,), 0): {0: Fraction(1)},
                         ((2,), -1): {1: Fraction(1)}}
    # the multiplier of (m, r) is m + 2 r
    assert lnd.multiplier(((3,), 1)) == 5
    assert nilpotency_index(lnd, monomial(carrier, ((3,), 1))) == 6


def test_horizontal_constructor_validation():
    carrier = a1_carrier()
    with pytest.raises(NotARoot):
        HomogeneousLND.horizontal(carrier, (Fraction(1, 2),), 2, (1,), 0)
    with pytest.raises(InvalidInteger):
        HomogeneousLND.horizontal(carrier, (Fraction(1, 2),), 1, (1,), -1)
    with pytest.raises(InvalidInteger):
        HomogeneousLND.horizontal(carrier, (Fraction(1, 2),), 0, (1,), -1)
    with pytest.raises(InvalidInteger):
        HomogeneousLND.horizontal(
            carrier, (Fraction(1, 2),), 2, (1,), Fraction(-1, 2)
        )


def test_horizontal_p1():
    carrier = p1_carrier()
    lnd = HomogeneousLND.horizontal(carrier, (0,), 1, (1,), -1)
    # multiplier of (m, r) is r: index r + 1
    for m in range(4):
        for r in range(m + 1):
            x = monomial(carrier, ((m,), r))
            assert nilpotency_index(lnd, x) == r + 1
    x = monomial(carrier, ((2,), 2))
    assert derive(lnd, x) == SemigroupElement(carrier, {((3,), 1): 2})


# -- randomized property checks ---------------------------------------------


def _random_fixtures():
    quad = quadrant_carrier()
    sing = singular_carrier()
    a1 = a1_carrier()
    p1 = p1_carrier()

    def sample_quad(rng):
        return (rng.randint(0, 5), rng.randint(0, 5))

    def sample_sing(rng):
        while True:
            k = (rng.randint(0, 5), rng.randint(-5, 5))
            if sing.admits(k):
                return k

    def sample_a1(rng):
        m = rng.randint(0, 6)
        return ((m,), rng.randint(-(m // 2), 3))

    def sample_p1(rng):
        m = rng.randint(0, 6)
        return ((m,), rng.randint(0, m))

    return [
        (quad, HomogeneousLND.toric(quad, (1, 0), (-1, 2)), sample_quad),
        (sing, toric_lnd(sing.cone, (-1, 1)), sample_sing),
        (a1,
         HomogeneousLND.horizontal(a1, (Fraction(1, 2),), 2, (1,), -1),
         sample_a1),
        (p1, HomogeneousLND.horizontal(p1, (0,), 1, (1,), -1), sample_p1),
    ]


def _random_element(carrier, sample, rng):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        coeff = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
        key = sample(rng)
        terms[key] = terms.get(key, 0) + coeff
    return SemigroupElement(carrier, terms)


def test_leibniz_rule():
    rng = random.Random(20260816)
    for carrier, lnd, sample in _random_fixtures():
        for _ in range(120):
            x = _random_element(carrier, sample, rng)
            y = _random_element(carrier, sample, rng)
            assert derive(lnd, x * y) == derive(lnd, x) * y + x * derive(lnd, y)


def test_flow_group_law():
    rng = random.Random(7)
    for carrier, lnd, sample in _random_fixtures():
        for _ in range(60):
            x = _random_element(carrier, sample, rng)
            s = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            t = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            once = exp_action(lnd, exp_action(lnd, x, s), t)
            assert once == exp_action(lnd, x, s + t)


def test_flow_is_ring_map():
    rng = random.Random(99)
    for carrier, lnd, sample in _random_fixtures():
        for _ in range(60):
            x = _random_element(carrier, sample, rng)
            y = _random_element(carrier, sample, rng)
            s = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
            assert (exp_action(lnd, x * y, s)
                    == exp_action(lnd, x, s) * exp_action(lnd, y, s))
            assert (exp_action(lnd, x + y, s)
                    == exp_action(lnd, x, s) + exp_action(lnd, y, s))


def test_symbolic_flow_matches_numeric():
    rng = random.Random(4242)
    for carrier, lnd, sample in _random_fixtures():
        for _ in range(60):
            x = _random_element(carrier, sample, rng)
            sym = exp_symbolic(lnd, x)
            for _ in range(3):
                s = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                assert sym.evaluate(s) == exp_action(lnd, x, s)


def test_symbolic_element_reads_powers_as_integers():
    c = quadrant_carrier()
    # int() used to truncate 0.5 to 0, and the coefficient at 0 then
    # overwrote the one at 0.5
    with pytest.raises(InvalidInteger):
        SymbolicElement(c, {(1, 0): {0.5: 3, 0: 2}})
    with pytest.raises(InvalidInteger):
        SymbolicElement(c, {(1, 0): {Fraction(3, 2): 1}})
    # powers that name one integer add up; zero coefficients are dropped
    x = SymbolicElement(c, {(1, 0): {2: 1, "2": Fraction(1, 2), 1.0: 3,
                                     0: 0},
                            (0, 1): {1: 1, "1": -1}})
    assert x.terms == {(1, 0): {2: Fraction(3, 2), 1: 3}}
    assert all(type(d) is int for d in x.terms[(1, 0)])
    assert all(type(c) is Fraction for c in x.terms[(1, 0)].values())
    assert x.evaluate(2) == monomial(c, (1, 0), 12)


def test_symbolic_element_rejects_negative_powers():
    c = quadrant_carrier()
    # a power of -1 used to pass, and evaluate(0) then raised a bare
    # ZeroDivisionError
    with pytest.raises(InvalidInteger):
        SymbolicElement(c, {(1, 0): {-1: 1}})
    with pytest.raises(InvalidInteger):
        SymbolicElement(c, {(1, 0): {0: 1, "-2": 0}})


def test_index_matches_multiplier():
    rng = random.Random(31337)
    for carrier, lnd, sample in _random_fixtures():
        for _ in range(120):
            key = sample(rng)
            x = monomial(carrier, key)
            assert nilpotency_index(lnd, x) == lnd.multiplier(key) + 1
        # for sums, the index is the maximum over the terms
        x = _random_element(carrier, sample, rng)
        if not is_zero(x):
            expected = max(lnd.multiplier(k) for k in x.terms) + 1
            assert nilpotency_index(lnd, x) == expected


def test_flow_derivative_matches_derive():
    # the lnd command reads the derivative off its one orbit walk; derive
    # steps once on its own, and the two agree term for term, in order
    rng = random.Random(2610)
    for carrier, lnd, sample in _random_fixtures():
        for _ in range(60):
            x = _random_element(carrier, sample, rng)
            assert list(Flow(lnd, x).derivative().terms.items()) == list(
                derive(lnd, x).terms.items())


def test_index_of_zero():
    c = quadrant_carrier()
    lnd = HomogeneousLND.toric(c, (1, 0), (-1, 1))
    zero = SemigroupElement(c, {})
    assert nilpotency_index(lnd, zero) == 0
    assert is_zero(exp_action(lnd, zero, 5))


# -- flow fixed points against the orbit decomposition ------------------------


def _eval_at(sym, point):
    """Collapse a symbolic flow image to {s-power: value} at a point."""
    poly = {}
    for key, powers in sym.terms.items():
        val = Fraction(1)
        for coord, expnt in zip(point, key):
            if expnt:
                val *= Fraction(coord) ** expnt
        for p, c in powers.items():
            poly[p] = poly.get(p, Fraction(0)) + c * val
    return {p: c for p, c in poly.items() if c}


def test_fixed_points_match_orbit_flags():
    from demazure.fan import build_fan
    from demazure.orbits import g_orbit_partition

    fan = build_fan(2, [(1, 0), (0, 1)], [[0, 1]])
    carrier = quadrant_carrier()
    # representative points: cone {1} <-> punctured x1-axis, cone {0,1} <->
    # origin (the ray index matches the coordinate that vanishes)
    reps = {(1,): (1, 0), (0, 1): (0, 0)}
    for k in [0, 1, 2]:
        lnd = HomogeneousLND.toric(carrier, (1, 0), (-1, k))
        images = [exp_symbolic(lnd, monomial(carrier, (1, 0))),
                  exp_symbolic(lnd, monomial(carrier, (0, 1)))]
        part = g_orbit_partition(fan, (-1, k))
        for orbit in part.orbits:
            if len(orbit.cones) != 1 or orbit.cones[0] == ():
                continue
            point = reps[orbit.cones[0]]
            moved = any(set(_eval_at(img, point)) - {0} for img in images)
            assert orbit.ga_fixed == (not moved)
        if k == 0:
            assert all(not o.ga_fixed for o in part.orbits)
            assert part.orbit_count == 2


# -- products against the former Fraction double loop ------------------------


def fraction_product(x, y):
    """The former product, as (key, coefficient) pairs in insertion order:
    one Fraction product and one Fraction sum per pair of terms."""
    data = {}
    for k1, c1 in x.terms.items():
        for k2, c2 in y.terms.items():
            k = x.carrier.add_keys(k1, k2)
            data[k] = data.get(k, Fraction(0)) + c1 * c2
    return [(k, c) for k, c in data.items() if c]


def _assert_product(x, y):
    product = x * y
    # the order of the terms decides which escape a flow reports first
    assert list(product.terms.items()) == fraction_product(x, y)
    assert all(type(c) is Fraction for c in product.terms.values())


def _random_coefficient(rng):
    if rng.random() < 0.4:
        return Fraction(rng.randint(-9, 9) or 1)
    den = rng.choice([2, 3, 7, 9, 10, 12, 35, 10 ** 12 + 39])
    return Fraction(rng.randint(-50, 50) or 1, den)


def test_product_matches_fraction_loop():
    rng = random.Random(1018)
    for carrier, _, sample in _random_fixtures():
        for _ in range(80):
            x, y = (
                SemigroupElement(carrier, [
                    (sample(rng), _random_coefficient(rng))
                    for _ in range(rng.randint(0, 6))])
                for _ in range(2))
            _assert_product(x, y)
            # (x + y)(x - y): the cross terms cancel to zero
            _assert_product(x + y, x - y)
            assert (x + y) * (x - y) == x * x - y * y


def test_product_of_long_flow_images():
    rng = random.Random(61)
    quad = quadrant_carrier()
    lnd = HomogeneousLND.toric(quad, (1, 0), (-1, 2))
    a1 = a1_carrier()
    hor = HomogeneousLND.horizontal(a1, (Fraction(1, 2),), 2, (1,), -1)
    for carrier, d, keys in [(quad, lnd, [(60, 0), (45, 3), (1, 7)]),
                             (a1, hor, [((40,), 10), ((2,), 3)])]:
        for _ in range(4):
            s = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            x = exp_action(d, SemigroupElement(
                carrier, [(k, _random_coefficient(rng)) for k in keys]), s)
            y = exp_action(d, monomial(carrier, keys[0]), -s)
            assert len(y.terms) in (1, 61)
            _assert_product(x, y)
            _assert_product(y, y)


def test_product_edge_cases():
    c = quadrant_carrier()
    zero = SemigroupElement(c, {})
    x = SemigroupElement(c, {(1, 0): Fraction(2, 3), (0, 1): 5})
    _assert_product(zero, x)
    _assert_product(x, zero)
    # (a + b)(b - a): the two terms at a + b cancel
    y = SemigroupElement(c, {(1, 0): 1, (0, 1): 1})
    z = SemigroupElement(c, {(0, 1): 1, (1, 0): -1})
    _assert_product(y, z)
    assert list((y * z).terms.items()) == [((2, 0), -1), ((0, 2), 1)]
    assert (x * 3).terms == {k: 3 * v for k, v in x.terms.items()}


# -- keys of symbolic elements, integral exponents, no zero coefficients -----


def test_symbolic_element_checks_its_keys():
    c = quadrant_carrier()
    # each key used to be kept as given; only evaluate raised
    with pytest.raises(WeightEscape, match=r"weight \(-1, 0\) is not"):
        SymbolicElement(c, {(-1, 0): {0: 1}})
    with pytest.raises(RankMismatch):
        SymbolicElement(c, {(1, 0, 0): {1: 2}})
    with pytest.raises(InvalidInteger):
        SymbolicElement(c, {(0.5, 1): {0: 3}})
    # keys are frozen to ints, keys naming one weight add up, and a key
    # with only zero coefficients is neither checked nor kept
    x = SymbolicElement(c, {("1", 0): {1: 2}, (Fraction(2), 0.0): {0: 1},
                            (1, 0): {1: 1}, (-1, 0): {0: 0}})
    assert x.terms == {(1, 0): {1: 3}, (2, 0): {0: 1}}
    assert all(type(v) is int for key in x.terms for v in key)


def test_symbolic_flow_of_another_carrier_is_checked():
    lnd = toric_lnd(Cone(2, [(1, 0), (0, 1)]), (-1, 2))
    x = monomial(ToricCarrier(Cone(2, [(1, 0)])), (1, -1))
    # the image used to keep the weight (1, -1), which exp_action refuses
    for flow in (exp_symbolic, lambda lnd, x: exp_action(lnd, x, 0),
                 lambda lnd, x: exp_action(lnd, x, Fraction(1, 3))):
        with pytest.raises(WeightEscape,
                           match=r"weight \(1, -1\) is not admissible"):
            flow(lnd, x)
    # an element of an equal carrier is trusted and gives the same image
    y = monomial(ToricCarrier(Cone(2, [(1, 0), (0, 1)])), (1, 3))
    assert exp_symbolic(lnd, y).terms == {(1, 3): {0: 1}, (0, 5): {1: 1}}


def test_powers_read_their_exponent_as_an_integer():
    c = quadrant_carrier()
    x = monomial(c, (1, 0)) + monomial(c, (0, 1), 2)
    for n in (2.0, Fraction(2), "2"):
        assert x ** n == x * x
    for n in (2.5, Fraction(3, 2)):
        with pytest.raises(InvalidInteger, match="non-integral"):
            x ** n
    with pytest.raises(InvalidInteger, match="need n >= 1"):
        x ** 0.0


def _no_zero(x):
    """Whether every coefficient (every polynomial coefficient) is nonzero."""
    if isinstance(x, SymbolicElement):
        return all(p and all(p.values()) for p in x.terms.values())
    return all(x.terms.values())


def test_no_result_holds_a_zero_coefficient():
    c = quadrant_carrier()
    a, b = monomial(c, (1, 0)), monomial(c, (0, 1))
    lnd = toric_lnd(c.cone, (-1, 1))  # (m1, m2) -> m1 (m1 - 1, m2 + 1)
    half = Fraction(1, 2)
    # the orbit of (1, 0) meets the term at (0, 1) with the opposite sum
    meet = a - half * b
    results = {
        "x - x": meet - meet,
        "x + (-x)": meet + (-meet),
        "0 x": 0 * meet,
        "x 0": meet * Fraction(0),
        "cross terms": (a + b) * (a - b),
        "product": meet * (a + b),
        "derive": derive(lnd, b + a),
        "at": exp_action(lnd, meet, half),
        "at 0": exp_action(lnd, meet, 0),
        "flow": Flow(lnd, meet + b * b).at(Fraction(-1, 3)),
        "symbolic": exp_symbolic(lnd, meet),
        "sum": meet + half * b,
    }
    for name, x in results.items():
        assert _no_zero(x), (name, x)
    assert results["x - x"].terms == results["0 x"].terms == {}
    assert results["cross terms"].terms == {(2, 0): 1, (0, 2): -1}
    assert results["derive"].terms == {(0, 1): 1}
    assert results["at"].terms == {(1, 0): 1}
    assert results["sum"].terms == {(1, 0): 1}
    # through a carrier that is only equal, not the same object
    other = ToricCarrier(Cone(2, [(1, 0), (0, 1)]))
    far = SemigroupElement(other, {(1, 0): 1, (0, 1): -half})
    assert exp_action(lnd, far, half).terms == {(1, 0): 1}
    assert (far - meet).terms == {}


# ---------------------------------------------------------------------------
# arguments of the wrong kind raise typed errors that name them


def test_toric_lnd_names_a_degree_that_is_no_sequence():
    # iterating over None raised a bare TypeError
    with pytest.raises(SchemaError) as info:
        toric_lnd(Cone(2, [(1, 0), (0, 1)]), None)
    assert str(info.value) == "degree: expected a sequence, got None"


@pytest.mark.parametrize("normal, e, what", [
    (None, (-1, 0), "ray normal"),
    ((1, 0), None, "degree"),
])
def test_toric_derivation_names_a_vector_that_is_no_sequence(normal, e,
                                                              what):
    with pytest.raises(SchemaError) as info:
        HomogeneousLND.toric(quadrant_carrier(), normal, e)
    assert str(info.value) == f"{what}: expected a sequence, got None"


def test_horizontal_derivation_reads_its_vertex_as_numbers():
    # Fraction("a") raised a bare ValueError, iterating over None a bare
    # TypeError
    carrier = a1_carrier()
    with pytest.raises(InvalidInteger, match="non-numeric entry"):
        HomogeneousLND.horizontal(carrier, ("a",), 1, (1,), -1)
    with pytest.raises(SchemaError, match="vertex: expected a sequence"):
        HomogeneousLND.horizontal(carrier, None, 2, (1,), -1)
    with pytest.raises(SchemaError, match="degree: expected a sequence"):
        HomogeneousLND.horizontal(carrier, ("1/2",), 2, None, -1)
    lnd = HomogeneousLND.horizontal(carrier, ("1/2",), 2, (1,), -1)
    assert lnd.ray_normal == (1, 2)


def test_weights_and_vertex_lists_that_are_no_sequences_are_named():
    # iterating over None or an int raised a bare TypeError, and
    # unpacking a curve weight of the wrong length a bare ValueError
    tail = Cone(1, [(1,)])
    cases = [
        (lambda: SemigroupElement(quadrant_carrier(), [(None, 1)]),
         "weight: expected a sequence, got None"),
        (lambda: CurveCarrier("A1", tail, None),
         "vertices: expected a sequence, got None"),
        (lambda: CurveCarrier("A1", tail, [None]),
         "vertex: expected a sequence, got None"),
        (lambda: CurveCarrier("P1", tail, [(0,)], 5),
         "vertices: expected a sequence, got 5"),
        (lambda: CurveCarrier("P1", tail, [(0,)], [5]),
         "vertex: expected a sequence, got 5"),
        (lambda: SemigroupElement(a1_carrier(), [(None, 1)]),
         "weight: expected a sequence, got None"),
        (lambda: SemigroupElement(a1_carrier(), [((1,), 1)]),
         "weight: expected an (m, r) pair, got (1,)"),
        (lambda: SemigroupElement(a1_carrier(), [(((1,), None), 1)]),
         None),
    ]
    for make, message in cases:
        if message is None:
            with pytest.raises(InvalidInteger, match="non-numeric entry"):
                make()
            continue
        with pytest.raises(SchemaError) as info:
            make()
        assert str(info.value) == message
    # sequences of any kind are read as before
    assert CurveCarrier("P1", tail, ([0],), ([1],)) == p1_carrier()
    assert SemigroupElement(a1_carrier(), [(([1], 0), 1)]).terms == {
        ((1,), 0): 1}


def test_a_flow_names_an_element_that_is_no_element():
    # None.terms raised AttributeError
    lnd = toric_lnd(Cone(2, [(1, 0), (0, 1)]), (-1, 0))
    for flow in (lambda x: exp_action(lnd, x, 1), lambda x: derive(lnd, x),
                 lambda x: exp_symbolic(lnd, x),
                 lambda x: nilpotency_index(lnd, x)):
        with pytest.raises(SchemaError) as info:
            flow(None)
        assert str(info.value) == \
            "element: expected a SemigroupElement, got None"


def test_a_flow_reads_its_time_as_a_number():
    # Fraction("a") raised a bare ValueError, Fraction(None) a TypeError
    c = quadrant_carrier()
    lnd = toric_lnd(c.cone, (-1, 0))
    x = monomial(c, (1, 0))
    for s in ("a", None):
        with pytest.raises(InvalidInteger, match="non-numeric entry"):
            exp_action(lnd, x, s)
    assert exp_action(lnd, x, "1/2") == exp_action(lnd, x, Fraction(1, 2))


NOT_NUMBERS = [None, "zz", "q", float("inf"), float("nan"), object()]


@pytest.mark.parametrize("value", NOT_NUMBERS)
def test_element_coefficients_are_read_as_numbers(value):
    # Fraction(None) raised a bare TypeError, Fraction("zz") and
    # Fraction(nan) a bare ValueError, Fraction(inf) an OverflowError
    c = quadrant_carrier()
    with pytest.raises(InvalidInteger, match="non-numeric entry"):
        SemigroupElement(c, [((3, 1), value)])
    with pytest.raises(InvalidInteger, match="non-numeric entry"):
        SymbolicElement(c, {(3, 1): {0: value}})
    tail = Cone(1, [(1,)])
    with pytest.raises(InvalidInteger, match="non-numeric entry"):
        CurveCarrier("A1", tail, [(value,)])
    with pytest.raises(InvalidInteger, match="non-numeric entry"):
        CurveCarrier("P1", tail, [(0,)], [(value,)])


@pytest.mark.parametrize("value", NOT_NUMBERS)
def test_scalars_and_times_are_read_as_numbers(value):
    c = quadrant_carrier()
    x = monomial(c, (3, 1), Fraction(1, 2))
    # both orders go through __rmul__
    for product in (lambda: value * x, lambda: x * value):
        with pytest.raises(InvalidInteger, match="non-numeric entry"):
            product()
    sym = SymbolicElement(c, {(3, 1): {0: 1, 2: Fraction(1, 3)}})
    with pytest.raises(InvalidInteger, match="non-numeric entry"):
        sym.evaluate(value)


def test_fractions_and_ints_skip_the_number_reader(monkeypatch):
    # the inputs element_from_json builds are taken as they are: as_fraction
    # reads a Fraction or an int without its general reader, _integral
    from demazure import lattice

    def refuse(x):
        raise AssertionError(f"_integral({x!r})")

    c = quadrant_carrier()
    x = SemigroupElement(c, [((3, 1), Fraction(2, 4)), ((0, 1), -3)])
    monkeypatch.setattr(lattice, "_integral", refuse)
    assert SemigroupElement(c, [((3, 1), Fraction(1, 2)), ((0, 1), -3)]) == x
    assert (2 * x).terms == {(3, 1): 1, (0, 1): -6}
    assert (x * Fraction(1, 3)).terms == {(3, 1): Fraction(1, 6),
                                          (0, 1): -1}
    sym = SymbolicElement(c, {(3, 1): {0: 1, 2: Fraction(1, 3)}})
    assert sym.evaluate(3) == monomial(c, (3, 1), 4)
    # other numbers still read as before
    monkeypatch.undo()
    assert SemigroupElement(c, [((3, 1), "1/2"), ((0, 1), -3.0)]) == x
    assert (0.5 * x).terms == {(3, 1): Fraction(1, 4), (0, 1): Fraction(-3, 2)}
    assert sym.evaluate("3") == monomial(c, (3, 1), 4)


def test_products_across_ranks_raise():
    # map(add) used to cut the longer key short
    small = monomial(quadrant_carrier(), (1, 0))
    big = monomial(ToricCarrier(Cone(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])),
                   (1, 0, 2))
    for product in (lambda: small * big, lambda: big * small,
                    lambda: big + small, lambda: small - big):
        with pytest.raises(RankMismatch, match="ranks"):
            product()


FOREIGN = [None, 1.5, [], object()]


def _object_argument_calls():
    """(name, function, valid arguments, index of the object argument, the
    name the SchemaError gives it) for each entry point that takes a cone,
    carrier or derivation."""
    cone = Cone(2, [(1, 0), (0, 1)])
    c, h = quadrant_carrier(), a1_carrier()
    lnd = HomogeneousLND.toric(c, (1, 0), (-1, 2))
    x = monomial(c, (2, 1), Fraction(1, 3)) + monomial(c, (0, 3))
    return [
        ("ToricCarrier", ToricCarrier, (cone,), 0, "cone"),
        ("CurveCarrier", CurveCarrier,
         ("A1", Cone(1, [(1,)]), [(Fraction(1, 2),)]), 1, "tail"),
        ("SemigroupElement", SemigroupElement, (c, [((1, 0), 2)]), 0,
         "carrier"),
        ("monomial", monomial, (c, (1, 0)), 0, "carrier"),
        ("SymbolicElement", SymbolicElement, (c, [((1, 0), {0: 1})]), 0,
         "carrier"),
        ("toric", HomogeneousLND.toric, (c, (1, 0), (-1, 2)), 0, "carrier"),
        ("horizontal", HomogeneousLND.horizontal,
         (h, (Fraction(1, 2),), 2, (1,), -1), 0, "carrier"),
        ("Flow", Flow, (lnd, x), 0, "lnd"),
        ("derive", derive, (lnd, x), 0, "lnd"),
        ("exp_action", exp_action, (lnd, x, Fraction(1, 2)), 0, "lnd"),
        ("exp_symbolic", exp_symbolic, (lnd, x), 0, "lnd"),
        ("nilpotency_index", nilpotency_index, (lnd, x), 0, "lnd"),
        ("roots_of_cone", roots_of_cone, (cone, 2), 0, "cone"),
    ]


def test_a_foreign_cone_carrier_or_derivation_raises_a_schema_error():
    # a seeded run over the entry points: the object argument, or now and
    # then another one, is replaced by a foreign value; only DemazureErrors
    # come out, and a foreign object argument is a SchemaError naming it
    rng = random.Random(33)
    calls = _object_argument_calls()
    for name, func, args, _, _ in calls:
        func(*args)
    seen = set()
    for _ in range(600):
        name, func, args, i, what = rng.choice(calls)
        args = list(args)
        j = i if rng.random() < 0.75 else rng.randrange(len(args))
        args[j] = rng.choice(FOREIGN)
        try:
            func(*args)
        except SchemaError as exc:
            if j == i:
                assert str(exc).startswith(f"{what}: expected a "), exc
                seen.add(name)
            continue
        except DemazureError:
            assert j != i, name
            continue
        except Exception as exc:  # noqa: BLE001 -- the finding itself
            pytest.fail(f"{name}{tuple(args)!r} raised {exc!r}")
        assert j != i, f"{name} accepted {args[i]!r}"
    assert seen == {name for name, _, _, _, _ in calls}


def test_ray_index_of_a_vector_that_is_no_ray_is_none():
    fan = build_fan(2, [(1, 0), (0, 1), (-1, -1)], [[0, 1], [1, 2], [0, 2]])
    assert fan.ray_index((0, 1)) == 1 and fan.ray_index([-1, -1]) == 2
    assert fan.ray_index((1.5, 0)) is None
    assert fan.ray_index([[1, 0]]) is None
    assert fan.ray_index([(1, 0), {}]) is None
    with pytest.raises(SchemaError):
        fan.ray_index(None)
