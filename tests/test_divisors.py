"""Tailed polyhedra, polyhedral divisors, colorings and coherence."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest

from demazure.algebra import (
    derive,
    lifted_cone,
    monomial,
    nilpotency_index,
    toric_lnd,
)
from demazure.divisors import (
    INF,
    ColoredDivisor,
    CoherencePair,
    CoherenceViolation,
    FreeRankOne,
    PolyhedralDivisor,
    TailedPolyhedron,
    coherent_check,
    degree_zero_normalize,
    horizontal_lnd,
    toric_realization,
    trivial_polyhedron,
)
from demazure.errors import (
    CurveMismatch,
    DemazureError,
    InvalidColoring,
    InvalidInteger,
    NoDegreeZeroLND,
    NotCoherent,
    NotNormalized,
    NotProper,
    NotStronglyConvex,
    RankMismatch,
    SchemaError,
    WeightOutsideDual,
)
from demazure.lattice import Cone, dot, lattice_points


def ray1():
    return Cone(1, [(1,)])


def quadrant():
    return Cone(2, [(1, 0), (0, 1)])


# -- tailed polyhedra ---------------------------------------------------------


def test_polyhedron_pruning():
    p = TailedPolyhedron(quadrant(), [(0, 1), (1, 0), (1, 1), (2, 3)])
    assert p.vertices == ((0, 1), (1, 0))
    q = TailedPolyhedron(Cone(1, []), [(0,), (2,), (1,)])
    assert q.vertices == ((0,), (2,))  # midpoint is a convex combination


def test_polyhedron_trivial_and_translate():
    t = trivial_polyhedron(quadrant())
    assert t.is_trivial()
    moved = t.translate((1, 2))
    assert moved.vertices == ((1, 2),)
    assert not moved.is_trivial()
    # vadd zips, so a translation of another length was cut or padded
    # silently: (1, 2) moved the rank-1 vertex 0 to (1,)
    line = TailedPolyhedron(ray1(), [(0,)])
    for piece, w in ((t, (1, 2, 3)), (t, (1,)), (line, (1, 2)), (line, ())):
        with pytest.raises(RankMismatch) as info:
            piece.translate(w)
        assert str(info.value) == (f"translation of length {len(w)} in "
                                   f"ambient rank {piece.rank}")


def test_polyhedron_minkowski():
    seg = TailedPolyhedron(Cone(1, []), [(0,), (1,)])
    assert seg.minkowski(seg).vertices == ((0,), (2,))
    half = TailedPolyhedron(ray1(), [(Fraction(1, 2),)])
    assert half.minkowski(half).vertices == ((1,),)


def test_polyhedron_support_min_and_membership():
    p = TailedPolyhedron(quadrant(), [(Fraction(1, 2), 0), (0, 2)])
    assert p.support_min((2, 2)) == 1
    assert p.support_min((1, 0)) == 0
    assert p.contains_point((5, 5))
    assert not p.contains_point((0, 0))
    line = TailedPolyhedron(ray1(), [(1,)])
    assert line.contains_point((3,)) and not line.contains_point((0,))


def test_polyhedron_tail_must_be_strongly_convex():
    # with a line in the tail no vertex is extremal; the pruning loop
    # this replaced kept whichever point was listed last
    line = Cone(1, [(1,), (-1,)])
    for points in ([(0,), (1,)], [(1,), (0,)], [(0,)]):
        with pytest.raises(NotStronglyConvex):
            TailedPolyhedron(line, points)
    up = TailedPolyhedron(ray1(), [(0,)])
    down = TailedPolyhedron(Cone(1, [(-1,)]), [(0,)])
    with pytest.raises(NotStronglyConvex):
        up.minkowski(down)


def sequential_prune(tail, points):
    """The pruning loop TailedPolyhedron used to run: drop a point while
    (v, 1) lies in the lifted cone of the points still kept, one dual per
    point tested."""
    keep = [tuple(Fraction(x) for x in v) for v in points]
    keep = list(dict.fromkeys(keep))
    i = 0
    while i < len(keep):
        others = keep[:i] + keep[i + 1:]
        if others and lifted_cone(tail.rank, tail.gens, others).contains(
                keep[i] + (1,)):
            del keep[i]
        else:
            i += 1
    return tuple(sorted(keep))


def random_pointed_tail(rng, rank):
    """The origin, or generators on the positive side of a functional w,
    spanning at most the whole space."""
    if rng.random() < 0.15:
        return Cone(rank, [])
    w = [rng.randint(-2, 2) for _ in range(rank)]
    if not any(w):
        w[0] = 1
    gens = []
    for _ in range(rng.randint(1, rank + 2)):
        g = [rng.randint(-3, 3) for _ in range(rank)]
        if dot(w, g) < 0:
            g = [-x for x in g]
        if dot(w, g) > 0:
            gens.append(tuple(g))
    return Cone(rank, gens)


def random_points(rng, tail, count):
    """Rational points, with repeats, midpoints and tail translates mixed
    in so that some of them are not vertices."""
    pts = []
    for _ in range(count):
        den = rng.randint(1, 3)
        pts.append(tuple(Fraction(rng.randint(-4, 4), den)
                         for _ in range(tail.rank)))
    if len(pts) > 1 and rng.random() < 0.4:
        a, b = rng.sample(pts, 2)
        pts.append(tuple((x + y) / 2 for x, y in zip(a, b)))
    if tail.gens and rng.random() < 0.4:
        g = rng.choice(tail.gens)
        pts.append(tuple(x + rng.randint(1, 2) * y
                         for x, y in zip(rng.choice(pts), g)))
    if rng.random() < 0.2:
        pts.append(rng.choice(pts))
    rng.shuffle(pts)
    return pts


def test_polyhedron_vertices_match_sequential_prune_random():
    rng = random.Random(1729)
    pruned = lone = inside = outside = 0
    for _ in range(1500):
        rank = rng.randint(1, 3)
        tail = random_pointed_tail(rng, rank)
        points = random_points(rng, tail, rng.randint(1, 5))
        p = TailedPolyhedron(tail, points)
        expected = sequential_prune(tail, points)
        assert p.vertices == expected, (tail, points)
        pruned += len(expected) < len(set(points))
        lone += len(expected) == 1
        oracle = lifted_cone(rank, tail.gens, expected)
        probes = random_points(rng, tail, 4) + list(points)
        for q in probes:
            want = oracle.contains(tuple(q) + (1,))
            assert p.contains_point(q) == want, (tail, points, q)
            inside += want
            outside += not want
    assert pruned > 300 and lone > 300
    assert inside > 1000 and outside > 1000


def test_a_lone_vertex_is_lifted_when_read(monkeypatch):
    # the lifted cone of one vertex was built in __init__ and never read
    # on the way through divisor_from_json; correctness of the lazy lift
    # is pinned by the random test above, whose polyhedra include more
    # than 300 with one vertex
    import json
    from pathlib import Path

    from demazure import divisors, serialize

    built = []

    def counted(*args):
        built.append(args)
        return lifted_cone(*args)

    monkeypatch.setattr(divisors, "lifted_cone", counted)
    path = Path(__file__).resolve().parent.parent / "fixtures"
    obj = json.loads((path / "div_relabel.json").read_text())
    div = serialize.divisor_from_json(obj)
    assert [len(p.vertices) for p in div.parts.values()] == [1, 1, 1]
    assert built == []
    piece = div.coefficient(0)
    assert piece.contains_point((1,)) and not piece.contains_point((0,))
    assert built == [(1, ((1,),), ((Fraction(1, 2),),))]
    segment = TailedPolyhedron(ray1(), [(0,), (1,), (2,)])
    assert segment.vertices == ((0,),) and len(built) == 2
    assert segment.contains_point((5,)) and len(built) == 2


# -- polyhedral divisors ------------------------------------------------------


def test_divisor_drops_trivial_parts():
    div = PolyhedralDivisor("A1", ray1(), {0: [(0,)], 2: [(1,)]})
    assert div.support() == (Fraction(2),)
    assert div.coefficient(0).is_trivial()


def test_divisor_point_validation():
    with pytest.raises(CurveMismatch):
        PolyhedralDivisor("A1", ray1(), {INF: [(1,)]})
    with pytest.raises(CurveMismatch):
        PolyhedralDivisor("X", ray1(), {})
    with pytest.raises(NotStronglyConvex):
        PolyhedralDivisor("A1", Cone(1, [(1,), (-1,)]), {})


def test_divisor_evaluate():
    div = PolyhedralDivisor(
        "P1", ray1(),
        {0: [(Fraction(1, 2),)], INF: [(1,)]},
    )
    assert div.evaluate((2,)) == {Fraction(0): 1, INF: 2}
    assert div.evaluate((0,)) == {Fraction(0): 0, INF: 0}
    with pytest.raises(WeightOutsideDual):
        div.evaluate((-1,))


def test_weight_dim_p1():
    # trivial coefficient at 0, [1, oo) at infinity: dim = m + 1
    div = PolyhedralDivisor("P1", ray1(), {INF: [(1,)]})
    for m in range(6):
        assert div.weight_dim((m,)) == m + 1
    wide = PolyhedralDivisor("P1", quadrant(), {INF: [(1, 1)]})
    for m1 in range(4):
        for m2 in range(4):
            assert wide.weight_dim((m1, m2)) == m1 + m2 + 1


def test_weight_dim_p1_truncates_at_zero():
    div = PolyhedralDivisor(
        "P1", ray1(),
        {0: [(Fraction(-3, 2),)], INF: [(1,)]},
    )
    # floor(-3m/2) + m + 1 goes negative already at m = 2
    assert div.weight_dim((2,)) == 0
    assert div.weight_dim((0,)) == 1


def test_weight_module_a1():
    div = PolyhedralDivisor("A1", ray1(), {0: [(Fraction(1, 2),)]})
    assert div.weight_dim((1,)) == FreeRankOne([])
    assert div.weight_dim((3,)) == FreeRankOne([(Fraction(0), -1)])
    two = PolyhedralDivisor(
        "A1", ray1(),
        {0: [(Fraction(1, 2),)], 1: [(-2,)]},
    )
    assert two.weight_dim((1,)) == FreeRankOne([(Fraction(1), 2)])


def test_degree_and_properness():
    div = PolyhedralDivisor("P1", ray1(), {INF: [(1,)]})
    assert div.degree().vertices == ((1,),)
    assert div.is_proper()
    # the degree polyhedron leaves the tail cone
    bad = PolyhedralDivisor(
        "P1", quadrant(),
        {0: [(Fraction(1, 2), 0)], INF: [(-1, 1), (-2, 3)]},
    )
    assert bad.degree().vertices == (
        (Fraction(-3, 2), 3), (Fraction(-1, 2), 1)
    )
    assert not bad.is_proper()
    # trivial divisor over P^1: the degree contains the origin
    assert not PolyhedralDivisor("P1", ray1(), {}).is_proper()
    assert PolyhedralDivisor("A1", ray1(), {}).is_proper()


# -- colorings ----------------------------------------------------------------


def test_coloring_validation():
    seg = Cone(1, [])
    div = PolyhedralDivisor("A1", seg, {0: [(0,), (1,)], 1: [(0,), (1,)]})
    ColoredDivisor(div, 0, {0: (0,), 1: (0,)})
    ColoredDivisor(div, 0, {0: (1,), 1: (1,)})
    with pytest.raises(InvalidColoring):
        ColoredDivisor(div, 0, {0: (1,), 1: (0,)})  # sum is interior
    with pytest.raises(InvalidColoring):
        ColoredDivisor(div, 0, {0: (2,), 1: (0,)})  # not a vertex
    with pytest.raises(InvalidColoring):
        ColoredDivisor(div, 0, {0: (0,)})  # missing a support point
    with pytest.raises(InvalidColoring):
        ColoredDivisor(div, 0, {0: (0,), 1: (0,), 2: (0,)})


def test_coloring_integrality_away_from_z0():
    half = PolyhedralDivisor("A1", ray1(), {1: [(Fraction(1, 2),)]})
    with pytest.raises(InvalidColoring):
        ColoredDivisor(half, 0, {0: (0,), 1: (Fraction(1, 2),)})
    # the same vertex is fine at z0
    at0 = PolyhedralDivisor("A1", ray1(), {0: [(Fraction(1, 2),)]})
    c = ColoredDivisor(at0, 0, {0: (Fraction(1, 2),)})
    assert c.v0 == (Fraction(1, 2),)
    assert c.v_deg == (Fraction(1, 2),)


def test_coloring_zinf_rules():
    div = PolyhedralDivisor("P1", ray1(), {INF: [(1,)]})
    c = ColoredDivisor(div, 0, {0: (0,)}, zinf=INF)
    assert c.c_prime() == (Fraction(0),)
    with pytest.raises(InvalidColoring):
        ColoredDivisor(div, 0, {0: (0,)})  # zinf required over P^1
    with pytest.raises(InvalidColoring):
        ColoredDivisor(div, INF, {INF: (1,)}, zinf=INF)
    a1 = PolyhedralDivisor("A1", ray1(), {})
    with pytest.raises(InvalidColoring):
        ColoredDivisor(a1, 0, {0: (0,)}, zinf=2)


# -- coherence ----------------------------------------------------------------


def fixture_violation_i():
    div = PolyhedralDivisor("A1", ray1(), {0: [(Fraction(1, 2),)]})
    return ColoredDivisor(div, 0, {0: (Fraction(1, 2),)}), (0,)


def fixture_violation_ii():
    div = PolyhedralDivisor("A1", Cone(1, []),
                            {0: [(0,)], 1: [(0,), (1,)]})
    return ColoredDivisor(div, 0, {0: (0,), 1: (0,)}), (0,)


def fixture_violation_iii():
    div = PolyhedralDivisor("A1", Cone(1, []), {0: [(0,), (1,)]})
    return ColoredDivisor(div, 0, {0: (0,)}), (0,)


def fixture_violation_iv():
    div = PolyhedralDivisor(
        "P1", quadrant(),
        {0: [(Fraction(1, 2), 0)], INF: [(-1, 1), (-2, 3)]},
    )
    return (ColoredDivisor(div, 0, {0: (Fraction(1, 2), 0)}, zinf=INF),
            (1, 0))


def test_coherence_violations_name_the_condition():
    for fixture, expected in [
        (fixture_violation_i, "i"),
        (fixture_violation_ii, "ii"),
        (fixture_violation_iii, "iii"),
        (fixture_violation_iv, "iv"),
    ]:
        colored, e = fixture()
        res = coherent_check(colored, e)
        assert isinstance(res, CoherenceViolation)
        assert res.condition == expected


def test_coherence_positive_d2():
    div = PolyhedralDivisor("A1", ray1(), {0: [(Fraction(1, 2),)]})
    colored = ColoredDivisor(div, 0, {0: (Fraction(1, 2),)})
    res = coherent_check(colored, (1,))
    assert isinstance(res, CoherencePair)
    assert res.d == 2 and res.s == -1
    assert res.rho_tilde == (1, 2)
    assert res.e_tilde == (1, -1)
    assert sorted(res.sigma_tilde.rays()) == [(1, 0), (1, 2)]


@pytest.mark.parametrize("entry", [coherent_check, horizontal_lnd])
def test_coherence_rejects_a_non_integral_degree(entry):
    # int() would truncate 3/2 to the coherent degree (1,)
    div = PolyhedralDivisor("A1", ray1(), {0: [(Fraction(1, 2),)]})
    colored = ColoredDivisor(div, 0, {0: (Fraction(1, 2),)})
    for x in (Fraction(3, 2), 1.5):
        with pytest.raises(InvalidInteger, match="non-integral component"):
            entry(colored, (x,))
    assert coherent_check(colored, (1.0,)).e == (1,)


@pytest.mark.parametrize("entry", [coherent_check, horizontal_lnd])
def test_coherence_names_a_degree_that_is_no_sequence(entry):
    # iterating over 5 raised a bare TypeError
    div = PolyhedralDivisor("A1", ray1(), {0: [(Fraction(1, 2),)]})
    colored = ColoredDivisor(div, 0, {0: (Fraction(1, 2),)})
    with pytest.raises(SchemaError) as info:
        entry(colored, 5)
    assert str(info.value) == "degree: expected a sequence, got 5"


def test_coherence_rejects_degree_outside_weight_cone():
    div = PolyhedralDivisor("A1", ray1(), {0: [(0,)]})
    colored = ColoredDivisor(div, 0, {0: (0,)})
    res = coherent_check(colored, (-1,))
    assert isinstance(res, CoherenceViolation)
    assert res.condition == "i"


# -- normalization and the toric model ----------------------------------------


def test_normalize_a1_lattice_translate():
    div = PolyhedralDivisor("A1", quadrant(), {0: [(1, 2)]})
    colored = ColoredDivisor(div, 0, {0: (1, 2)})
    out = degree_zero_normalize(colored)
    assert out.curve == "A1" and not out.parts


def test_normalize_shift_fixture():
    div = PolyhedralDivisor("P1", ray1(), {0: [(1,)], INF: [(1,)]})
    colored = ColoredDivisor(div, 0, {0: (1,)}, zinf=INF)
    out = degree_zero_normalize(colored)
    assert out.support() == (INF,)
    assert out.coefficient(INF).vertices == ((2,),)
    assert out.degree().equals(div.degree())


def test_normalize_already_normalized():
    div = PolyhedralDivisor("P1", ray1(), {INF: [(1,)]})
    colored = ColoredDivisor(div, 0, {0: (0,)}, zinf=INF)
    out = degree_zero_normalize(colored)
    assert out.equals(div)


def test_normalize_refuses():
    colored, _ = fixture_violation_iii()
    with pytest.raises(NoDegreeZeroLND) as info:
        degree_zero_normalize(colored)
    assert "(iii)" in str(info.value)
    bad, _ = fixture_violation_iv()
    with pytest.raises(NotProper):
        degree_zero_normalize(bad)


def test_toric_realization_fixtures():
    # (a) trivial over A^1, rank 2
    cone, e = toric_realization(PolyhedralDivisor("A1", quadrant(), {}))
    assert sorted(cone.rays()) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert e == (0, 0, -1)
    # (b) [1, oo) at infinity over P^1
    cone, e = toric_realization(PolyhedralDivisor("P1", ray1(), {INF: [(1,)]}))
    assert sorted(cone.rays()) == [(0, 1), (1, -1)]
    assert e == (0, -1)
    # (c) (1,1) + quadrant at infinity
    cone, e = toric_realization(
        PolyhedralDivisor("P1", quadrant(), {INF: [(1, 1)]})
    )
    assert sorted(cone.rays()) == [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, -1)]
    assert e == (0, 0, -1)
    # the advertised degree really is a root of the lifted cone
    lnd = toric_lnd(cone, e)
    assert lnd.e == e


def test_toric_realization_refuses():
    with pytest.raises(NotNormalized):
        toric_realization(PolyhedralDivisor("A1", ray1(), {0: [(1,)]}))
    with pytest.raises(NotNormalized):
        toric_realization(
            PolyhedralDivisor("P1", ray1(), {0: [(1,)], INF: [(1,)]})
        )
    with pytest.raises(NotProper):
        toric_realization(PolyhedralDivisor("P1", ray1(), {}))


def _lifted_cone(div):
    # Homogenize a divisor supported inside {0, infinity}: tail generators
    # at height zero, vertices of the part at 0 lifted to height +1 and
    # vertices of the part at infinity to height -1, denominators cleared.
    n = div.rank
    gens = [g + (0,) for g in div.tail.gens]

    def lift(poly, sign):
        for v in poly.vertices:
            den = 1
            for c in v:
                den = math.lcm(den, Fraction(c).denominator)
            gens.append(tuple(int(c * den) for c in v) + (sign * den,))

    lift(div.coefficient(0), 1)
    lift(div.coefficient(INF), -1)
    return Cone(n + 1, gens)


def test_slice_identity():
    """weight_dim(m) counts the lattice points of the lifted dual slice."""
    rng = random.Random(2024)
    fixtures = [
        PolyhedralDivisor("P1", ray1(), {INF: [(1,)]}),
        PolyhedralDivisor("P1", quadrant(), {INF: [(1, 1)]}),
        PolyhedralDivisor(
            "P1", ray1(),
            {0: [(Fraction(1, 2),)], INF: [(Fraction(3, 2),)]},
        ),
    ]
    for div in fixtures:
        cone = _lifted_cone(div)
        if not div.coefficient(0).is_trivial():
            with pytest.raises(NotNormalized):
                toric_realization(div)
        else:
            realized, _ = toric_realization(div)
            assert realized.equals(cone)
        n = div.rank
        for _ in range(20):
            m = tuple(rng.randint(0, 5) for _ in range(n))
            ineqs = [(g, 0) for g in cone.gens]
            eqs = [(tuple(1 if j == i else 0 for j in range(n + 1)), m[i])
                   for i in range(n)]
            pts = lattice_points(n + 1, ineqs, eqs)
            assert div.weight_dim(m) == len(pts)


def test_horizontal_lnd_d2():
    div = PolyhedralDivisor("A1", ray1(), {0: [(Fraction(1, 2),)]})
    colored = ColoredDivisor(div, 0, {0: (Fraction(1, 2),)})
    normalized, lnd = horizontal_lnd(colored, (1,))
    assert normalized.equals(div)
    assert lnd.ray_normal == (1, 2) and lnd.e == ((1,), -1)
    assert lnd.multiplier(((3,), 1)) == 5
    x = monomial(lnd.carrier, ((1,), 0))
    assert derive(lnd, x) == monomial(lnd.carrier, ((2,), -1))
    assert nilpotency_index(lnd, x) == 2


def test_horizontal_lnd_with_relabeled_point():
    div = PolyhedralDivisor(
        "P1", ray1(),
        {0: [(Fraction(1, 2),)], 3: [(2,)], INF: [(1,)]},
    )
    colored = ColoredDivisor(
        div, 0, {0: (Fraction(1, 2),), 3: (2,)}, zinf=INF
    )
    normalized, lnd = horizontal_lnd(colored, (1,))
    assert normalized.support() == (Fraction(0), INF)
    assert normalized.coefficient(INF).vertices == ((3,),)
    assert normalized.degree().equals(div.degree())
    assert lnd.ray_normal == (1, 2) and lnd.e == ((1,), -1)
    # the z0 sharpness: chi^3 flows along r = -floor(m/2) without escaping
    x = monomial(lnd.carrier, ((3,), 0))
    assert nilpotency_index(lnd, x) == 4


def test_horizontal_lnd_refuses():
    colored, e = fixture_violation_ii()
    with pytest.raises(NotCoherent) as info:
        horizontal_lnd(colored, e)
    assert "(ii)" in str(info.value)
    # a support point whose coefficient has two vertices cannot be relabeled
    # (the tail must be the origin: over a ray, a segment is absorbed)
    div = PolyhedralDivisor(
        "P1", Cone(1, []),
        {3: [(0,), (1,)], INF: [(1,)]},
    )
    colored = ColoredDivisor(div, 0, {0: (0,), 3: (0,)}, zinf=INF)
    assert isinstance(coherent_check(colored, (1,)), CoherencePair)
    with pytest.raises(NotNormalized):
        horizontal_lnd(colored, (1,))


# -- invariants that hold by construction --------------------------------------
#
# coherent_check, degree_zero_normalize and horizontal_lnd rely on three
# facts instead of checking them at run time: the lifted vertex ray pairs
# to -1 with the lifted degree, and both rewrites keep the degree
# polyhedron over P^1.  They are checked here over the shipped divisor
# fixtures and seeded random colorings.


def _fixture_colorings():
    import json
    from pathlib import Path

    from demazure import serialize
    from demazure.cli import _default_coloring

    root = Path(__file__).resolve().parent.parent / "fixtures"
    for path in sorted(root.glob("div_*.json")):
        obj = json.loads(path.read_text())
        div = serialize.divisor_from_json(obj)
        colored = serialize.colored_from_json(obj, div)
        yield colored if colored is not None else _default_coloring(div)


def _random_vertex(rng, rank, integral):
    den = 1 if integral else rng.choice([1, 2, 3])
    return tuple(Fraction(rng.randint(-3, 3), den) for _ in range(rank))


def _random_coloring(rng):
    rank = rng.choice([1, 1, 2])
    if rank == 1:
        tail = rng.choice([ray1(), Cone(1, [])])
    else:
        tail = rng.choice([quadrant(), Cone(2, [(1, 0), (1, 2)]), Cone(2, [])])
    curve = rng.choice(["A1", "P1"])
    parts = {0: [_random_vertex(rng, rank, False)
                 for _ in range(rng.randint(1, 2))]}
    for z in rng.sample([1, 2, Fraction(1, 2), -1], rng.randint(0, 2)):
        parts[z] = [_random_vertex(rng, rank, True)
                    for _ in range(rng.randint(1, 2))]
    if curve == "P1":
        parts[INF] = [_random_vertex(rng, rank, False)
                      for _ in range(rng.randint(1, 2))]
    div = PolyhedralDivisor(curve, tail, parts)
    zinf = INF if curve == "P1" else None
    chosen = {z: rng.choice(div.coefficient(z).vertices)
              for z in set(div.parts) | {Fraction(0)} if z is not INF}
    try:
        return ColoredDivisor(div, 0, chosen, zinf=zinf)
    except InvalidColoring:
        return None


def test_invariants_behind_the_removed_runtime_checks():
    rng = random.Random(5381)
    colorings = list(_fixture_colorings())
    while len(colorings) < 240:
        colored = _random_coloring(rng)
        if colored is not None:
            colorings.append(colored)
    checked = {"pairing": 0, "normalize": 0, "horizontal": 0}
    for colored in colorings:
        div = colored.divisor
        try:
            out = degree_zero_normalize(colored)
        except (NotProper, NoDegreeZeroLND):
            out = None
        if out is not None and div.curve == "P1":
            assert out.degree().equals(div.degree())
            checked["normalize"] += 1
        for e in itertools.product(range(-2, 3), repeat=div.rank):
            res = coherent_check(colored, e)
            if isinstance(res, CoherenceViolation):
                continue
            assert res.rho_tilde in res.sigma_tilde.rays()
            assert dot(res.rho_tilde, res.e_tilde) == -1
            checked["pairing"] += 1
            try:
                normalized, _ = horizontal_lnd(colored, e)
            except NotNormalized:
                continue
            if div.curve == "P1":
                assert normalized.degree().equals(div.degree())
                checked["horizontal"] += 1
    assert checked["pairing"] > 300
    assert checked["normalize"] > 10
    assert checked["horizontal"] > 100


# -- the tangent cone of a coloring -------------------------------------------


def minkowski_fold_verdict(div, chosen):
    """The test ColoredDivisor ran before it read one tangent cone: fold
    the Minkowski sum of the chosen points' coefficients, one at a time,
    and ask whether the chosen vertices sum to one of its vertices."""
    total = None
    vdeg = (0,) * div.rank
    for z, v in chosen.items():
        piece = div.coefficient(z)
        total = piece if total is None else total.minkowski(piece)
        vdeg = tuple(a + b for a, b in zip(vdeg, v))
    return vdeg in total.vertices


def delta_gens(div, chosen):
    """The generators coherent_check built before it lifted the tangent
    cone: the tail's and every v - v_z at the chosen points."""
    gens = list(div.tail.gens)
    for z, vz in chosen.items():
        gens += [tuple(a - b for a, b in zip(v, vz))
                 for v in div.coefficient(z).vertices if v != vz]
    return gens


def _integral_points(rng, rank, count):
    return [tuple(rng.randint(-3, 3) for _ in range(rank))
            for _ in range(count)]


def test_the_tangent_cone_decides_a_coloring_as_the_minkowski_fold():
    rng = random.Random(4099)
    seen = set()
    verdicts = {True: 0, False: 0}
    lifted = 0
    for _ in range(700):
        rank = rng.randint(1, 3)
        # in rank 1 only the zero tail leaves two vertices to choose from
        tail = (Cone(rank, []) if rng.random() < 0.3
                else random_pointed_tail(rng, rank))
        curve = rng.choice(["A1", "P1"])
        z0 = rng.choice([Fraction(0), Fraction(1, 2)])
        parts = {z0: random_points(rng, tail, rng.randint(1, 3))}
        # a sum of one chosen vertex is always a vertex, so most draws
        # take two or three more coefficients
        for z in rng.sample([1, 2, -1], rng.choice([0, 1, 2, 2, 3])):
            parts[z] = _integral_points(rng, rank, rng.randint(2, 3))
        if curve == "P1":
            parts[INF] = random_points(rng, tail, rng.randint(1, 2))
        div = PolyhedralDivisor(curve, tail, parts)
        zinf = INF if curve == "P1" else None
        chosen = {z: rng.choice(div.coefficient(z).vertices)
                  for z in {z0} | set(div.parts) if z is not INF}
        want = minkowski_fold_verdict(div, chosen)
        seen.add((rank, curve, want))
        verdicts[want] += 1
        try:
            colored = ColoredDivisor(div, z0, chosen, zinf=zinf)
        except InvalidColoring as exc:
            assert not want, (div, chosen)
            assert str(exc) == \
                "the chosen vertices do not sum to a vertex of the total"
            continue
        assert want, (div, chosen)
        gens = delta_gens(div, colored.vertices)
        assert colored.tangent.gens == Cone(rank, gens).gens
        at_inf = []
        if curve == "P1":
            shift = tuple(a - b for a, b in zip(colored.v_deg, colored.v0))
            at_inf = [tuple(a + b for a, b in zip(w, shift))
                      for w in div.coefficient(INF).vertices]
        reference = lifted_cone(rank, gens, [colored.v0], at_inf)
        for e in itertools.product(range(-1, 2), repeat=rank):
            res = coherent_check(colored, e)
            if isinstance(res, CoherencePair):
                assert res.sigma_tilde.gens == reference.gens
                assert res.sigma_tilde.rays() == reference.rays()
                lifted += 1
    assert seen == {(rank, curve, want) for rank in (1, 2, 3)
                    for curve in ("A1", "P1") for want in (True, False)}
    assert min(verdicts.values()) > 100, verdicts
    assert lifted > 100


# -- arguments of the wrong kind ----------------------------------------------


def _probe_divisor():
    return PolyhedralDivisor("A1", ray1(), {0: [(0,), (1,)]})


def _probe_polyhedron():
    return TailedPolyhedron(ray1(), [(0,), (1,)])


DIVISOR_PROBES = [
    (lambda: TailedPolyhedron(ray1(), [["a"]]), InvalidInteger,
     "non-numeric entry in ('a',)"),
    (lambda: TailedPolyhedron(ray1(), [None]), SchemaError,
     "vertex: expected a sequence, got None"),
    (lambda: TailedPolyhedron(ray1(), None), SchemaError,
     "vertices: expected a sequence, got None"),
    (lambda: _probe_divisor().evaluate(["x"]), InvalidInteger,
     "non-numeric entry in ('x',)"),
    (lambda: _probe_divisor().evaluate(None), SchemaError,
     "weight: expected a sequence, got None"),
    (lambda: _probe_divisor().weight_dim(["x"]), InvalidInteger,
     "non-numeric entry in ('x',)"),
    (lambda: PolyhedralDivisor("A1", ray1(), {"x": [[1]]}), InvalidInteger,
     "non-numeric entry in ('x',)"),
    (lambda: PolyhedralDivisor("A1", ray1(), None), SchemaError,
     "parts: expected a sequence, got None"),
    (lambda: _probe_polyhedron().contains_point(["q"]), InvalidInteger,
     "non-numeric entry in ('q', 1)"),
    (lambda: ColoredDivisor(_probe_divisor(), 0, {0: ["z"]}),
     InvalidInteger, "non-numeric entry in ('z',)"),
    (lambda: ColoredDivisor(_probe_divisor(), 0, [[1]]), SchemaError,
     "vertices: expected pairs, got [[1]]"),
    (lambda: coherent_check(None, (1,)), SchemaError,
     "colored: expected a ColoredDivisor, got None"),
    (lambda: TailedPolyhedron(None, [(0,)]), SchemaError,
     "tail: expected a Cone, got None"),
    (lambda: PolyhedralDivisor("A1", None, {}), SchemaError,
     "tail: expected a Cone, got None"),
    (lambda: horizontal_lnd(None, (1,)), SchemaError,
     "colored: expected a ColoredDivisor, got None"),
    (lambda: degree_zero_normalize(None), SchemaError,
     "colored: expected a ColoredDivisor, got None"),
    (lambda: toric_realization(None), SchemaError,
     "div: expected a PolyhedralDivisor, got None"),
    (lambda: ColoredDivisor(None, 0, {}), SchemaError,
     "divisor: expected a PolyhedralDivisor, got None"),
    (lambda: _probe_polyhedron().translate(None), SchemaError,
     "translation: expected a sequence, got None"),
    (lambda: _probe_polyhedron().minkowski(None), SchemaError,
     "other: expected a TailedPolyhedron, got None"),
    (lambda: _probe_polyhedron().equals(None), SchemaError,
     "other: expected a TailedPolyhedron, got None"),
    (lambda: _probe_polyhedron().support_min(None), SchemaError,
     "weight: expected a sequence, got None"),
    (lambda: _probe_polyhedron().support_min(["x"]), InvalidInteger,
     "non-numeric entry in ('x',)"),
    (lambda: _probe_divisor().equals(None), SchemaError,
     "other: expected a PolyhedralDivisor, got None"),
    (lambda: FreeRankOne([(0, "a")]), InvalidInteger,
     "non-numeric entry in ('a',)"),
    (lambda: FreeRankOne([("z", 1)]), InvalidInteger,
     "non-numeric entry in ('z',)"),
]


@pytest.mark.parametrize("call, kind, message", DIVISOR_PROBES)
def test_divisor_arguments_of_the_wrong_kind_are_named(call, kind, message):
    # each of these raised a bare ValueError, TypeError or AttributeError
    # (Fraction("a"), iterating None, None.is_strongly_convex, ...)
    with pytest.raises(kind) as info:
        call()
    assert type(info.value) is kind
    assert str(info.value) == message


HASHABLE_JUNK = [None, "a", "1/2", 1.5, True, -1, Fraction(1, 3),
                 float("nan"), float("inf"), (1, 2, 3, 4), 10 ** 30]
JUNK = HASHABLE_JUNK + [[], [None], [["a"]], [[1]], {"x": 1}, "",
                        Cone(1, [(1,)]), object()]


def _mutate(rng, value):
    """value with one entry at some depth, or all of it, replaced by junk;
    a mapping may also get a junk key."""
    if isinstance(value, (list, tuple)) and value and rng.random() < 0.6:
        out = list(value)
        i = rng.randrange(len(out))
        out[i] = _mutate(rng, out[i])
        return tuple(out) if isinstance(value, tuple) else out
    if isinstance(value, dict) and value and rng.random() < 0.6:
        out = dict(value)
        key = rng.choice(list(out))
        if rng.random() < 0.3:
            out[rng.choice(HASHABLE_JUNK)] = out.pop(key)
        else:
            out[key] = _mutate(rng, out[key])
        return out
    return rng.choice(JUNK)


def _divisor_calls(colored):
    """(name, callable, valid arguments) for each divisor-layer entry point
    that reads outside input, around one valid coloring."""
    div = colored.divisor
    n = div.rank
    tail = div.tail
    piece = div.coefficient(colored.z0)
    parts = {z: [list(v) for v in p.vertices] for z, p in div.parts.items()}
    marks = {z: list(v) for z, v in colored.vertices.items()}
    weight = [sum(g[k] for g in tail.gens) for k in range(n)]
    return [
        ("TailedPolyhedron", TailedPolyhedron,
         [tail, [list(v) for v in piece.vertices]]),
        ("trivial_polyhedron", trivial_polyhedron, [tail]),
        ("contains_point", piece.contains_point, [list(piece.vertices[0])]),
        ("support_min", piece.support_min, [weight]),
        ("translate", piece.translate, [[1] * n]),
        ("minkowski", piece.minkowski, [piece]),
        ("TailedPolyhedron.equals", piece.equals, [piece]),
        ("PolyhedralDivisor.equals", div.equals, [div]),
        ("PolyhedralDivisor", PolyhedralDivisor, [div.curve, tail, parts]),
        ("coefficient", div.coefficient, [colored.z0]),
        ("evaluate", div.evaluate, [weight]),
        ("weight_dim", div.weight_dim, [weight]),
        ("ColoredDivisor", ColoredDivisor,
         [div, colored.z0, marks, colored.zinf]),
        ("coherent_check", coherent_check, [colored, [1] * n]),
        ("horizontal_lnd", horizontal_lnd, [colored, [0] * n]),
        ("degree_zero_normalize", degree_zero_normalize, [colored]),
        ("toric_realization", toric_realization, [div]),
        ("FreeRankOne", FreeRankOne, [[(0, 1), (1, -2)]]),
    ]


def test_divisor_layer_arguments_raise_only_typed_errors():
    # the divisor half of a seeded argument fuzzer: one argument of a valid
    # call is mutated, and every call returns or raises a DemazureError
    rng = random.Random(8191)
    calls = [c for colored in _fixture_colorings()
             for c in _divisor_calls(colored)]
    outcomes = {}
    for _ in range(4000):
        name, func, args = rng.choice(calls)
        args = list(args)
        if rng.random() < 0.9:
            i = rng.randrange(len(args))
            args[i] = _mutate(rng, args[i])
        try:
            func(*args)
            kind = "returned"
        except DemazureError as exc:
            kind = type(exc).__name__
        except Exception as exc:  # noqa: BLE001 -- the finding itself
            pytest.fail(f"{name}{tuple(args)!r} raised {exc!r}")
        outcomes.setdefault(name, set()).add(kind)
    assert set(outcomes) == {name for name, _, _ in calls}
    kinds = set().union(*outcomes.values())
    assert {"returned", "SchemaError", "InvalidInteger", "RankMismatch",
            "InvalidColoring"} <= kinds, kinds
