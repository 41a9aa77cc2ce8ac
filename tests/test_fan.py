"""Fan construction, validation and cone properties."""

from __future__ import annotations

import collections
import itertools
import json
import random
from fractions import Fraction
from math import comb, cos, gcd, pi, sin
from pathlib import Path

import pytest
from test_reports_golden import INLINE

from demazure.errors import (
    BadIntersection,
    ConeNotInFan,
    DemazureError,
    DuplicateRay,
    InvalidInteger,
    NotStronglyConvex,
    RankMismatch,
    SchemaError,
)
from demazure import fan as fan_module
from demazure import lattice, serialize
from demazure.cli import main
from demazure.fan import (
    Fan,
    build_fan,
    cone_properties,
    cone_stage,
    is_complete,
    ray_stage,
)
from demazure.lattice import Cone, dot, dual_description, mat_rank, primitive
from demazure.serialize import fan_diagnostics, fan_fields_from_json

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def p2():
    return build_fan(2, [(1, 0), (0, 1), (-1, -1)], [[0, 1], [1, 2], [0, 2]])


def f1():
    # Hirzebruch surface F1
    return build_fan(
        2,
        [(1, 0), (0, 1), (0, -1), (-1, 1)],
        [[0, 1], [0, 2], [2, 3], [1, 3]],
    )


def a2():
    return build_fan(2, [(1, 0), (0, 1)], [[0, 1]])


def p1p1():
    return build_fan(
        2,
        [(1, 0), (-1, 0), (0, 1), (0, -1)],
        [[0, 2], [0, 3], [1, 2], [1, 3]],
    )


def p1():
    return build_fan(1, [(1,), (-1,)], [[0], [1]])


def p1_power_input(n):
    rays = [tuple(s * int(i == j) for j in range(n))
            for i in range(n) for s in (1, -1)]
    return n, rays, [[2 * i + s for i, s in enumerate(signs)]
                     for signs in itertools.product((0, 1), repeat=n)]


def p1_power(n):
    return build_fan(*p1_power_input(n))


def p_n_input(n):
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    rays.append((-1,) * n)
    return n, rays, [list(c) for c in itertools.combinations(range(n + 1), n)]


def cube_input():
    """The face fan of the cube [-1, 1]^3: six cones of four rays."""
    rays = [(a, b, c) for a in (1, -1) for b in (1, -1) for c in (1, -1)]
    return 3, rays, [[k for k, r in enumerate(rays) if r[i] == s]
                     for i in range(3) for s in (1, -1)]


def product_input(first, second):
    """The product of two fans, each given as (rank, rays, max cones)."""
    (n, rays1, cones1), (m, rays2, cones2) = first, second
    rays = [r + (0,) * m for r in rays1] + [(0,) * n + r for r in rays2]
    return n + m, rays, [a + [len(rays1) + j for j in b]
                         for a in cones1 for b in cones2]


HEXAGON = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]


def test_p2_cone_census():
    fan = p2()
    assert len(fan.cones) == 7
    dims = sorted(ref.dim for ref in fan.cones.values())
    assert dims == [0, 1, 1, 1, 2, 2, 2]
    assert fan.cone_id(frozenset()) == "0:"
    assert fan.cone_id([0, 1]) == "2:0,1"
    assert is_complete(fan)


def test_f1_cone_census():
    fan = f1()
    assert len(fan.cones) == 9
    assert is_complete(fan)


def test_a2_not_complete():
    fan = a2()
    assert len(fan.cones) == 4
    assert not is_complete(fan)


def test_p1p1_census_and_complete():
    fan = p1p1()
    assert len(fan.cones) == 9
    assert is_complete(fan)


def test_p1_complete():
    fan = p1()
    assert len(fan.cones) == 3
    assert is_complete(fan)


def test_duplicate_ray():
    with pytest.raises(DuplicateRay):
        build_fan(2, [(1, 0), (2, 0)], [[0], [1]])


def test_rank_mismatch():
    with pytest.raises(RankMismatch):
        build_fan(2, [(1, 0, 0)], [[0]])


def test_non_pointed_max_cone():
    with pytest.raises(NotStronglyConvex):
        build_fan(2, [(1, 0), (-1, 0)], [[0, 1]])


def test_bad_intersection_overlapping_cones():
    # ray (1,1) passes through the interior of cone((1,0),(0,1))
    with pytest.raises(BadIntersection):
        build_fan(2, [(1, 0), (0, 1), (1, 1)], [[0, 1], [2]])


def test_bad_intersection_crossing_cones():
    # cone((1,0),(0,1)) and cone((1,1),(1,-1)) overlap without a shared face
    with pytest.raises(BadIntersection):
        build_fan(
            2, [(1, 0), (0, 1), (1, 1), (1, -1)], [[0, 1], [2, 3]]
        )


def test_bad_intersection_subcone_not_face():
    # square-based 3-cone plus the diagonal 2-cone through its interior
    with pytest.raises(BadIntersection):
        build_fan(
            3,
            [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)],
            [[0, 1, 2, 3], [0, 2]],
        )


def test_listed_interior_ray_is_rejected():
    # a "maximal cone" listing a redundant generator: the redundant ray is a
    # fan member but sits inside the cone, which is not a face relation
    with pytest.raises(BadIntersection):
        build_fan(2, [(1, 0), (0, 1), (1, 1)], [[0, 1, 2]])


def test_lone_rays_fan_is_valid():
    # no 2-cone at all: just two rays and the origin
    fan = build_fan(2, [(1, 0), (0, 1)], [[0], [1]])
    assert len(fan.cones) == 3
    assert not is_complete(fan)


def test_rays_get_their_faces_without_a_cone(monkeypatch):
    # a ray's faces are {0} and itself: building P^3 makes one Cone per
    # maximal cone and none for a ray, until a ray's geometry is asked for;
    # the fan's Cones are made by the public constructor or the one that
    # takes its primitive rays as they are, and both are counted
    made = []
    original = Cone.__init__
    of_primitive = Cone._of_primitive

    def counted(self, rank, generators=()):
        generators = list(generators)
        made.append(len(generators))
        original(self, rank, generators)

    def counted_primitive(rank, gens):
        made.append(len(gens))
        return of_primitive(rank, gens)

    monkeypatch.setattr(Cone, "__init__", counted)
    monkeypatch.setattr(Cone, "_of_primitive", counted_primitive)
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
    fan = build_fan(3, rays, list(itertools.combinations(range(4), 3)))
    assert made == [3] * 4
    assert len(fan.cones) == 15 and is_complete(fan)
    assert fan.face_sets([3]) == {frozenset(): 0, frozenset({3}): 1}
    assert made == [3] * 4
    assert fan.cone_geometry([3]).gens == ((-1, -1, -1),)
    assert made == [3] * 4 + [1]


def test_cone_properties_p2():
    fan = p2()
    assert cone_properties(fan, [0, 1]) == {
        "dim": 2,
        "orbit_dim": 0,
        "smooth": True,
        "simplicial": True,
    }
    assert cone_properties(fan, [0]) == {
        "dim": 1,
        "orbit_dim": 1,
        "smooth": True,
        "simplicial": True,
    }
    assert cone_properties(fan, []) == {
        "dim": 0,
        "orbit_dim": 2,
        "smooth": True,
        "simplicial": True,
    }


def test_cone_properties_singular():
    fan = build_fan(2, [(1, 0), (1, 2)], [[0, 1]])
    props = cone_properties(fan, [0, 1])
    assert props["simplicial"] and not props["smooth"]


def test_cone_not_in_fan():
    fan = p2()
    with pytest.raises(ConeNotInFan):
        cone_properties(fan, [0, 1, 2])


def test_weighted_projective_fan():
    # complete but singular
    fan = build_fan(2, [(1, 0), (0, 1), (-2, -3)], [[0, 1], [1, 2], [0, 2]])
    assert is_complete(fan)
    assert not cone_properties(fan, [1, 2])["smooth"]


def test_face_closure_is_closed_random():
    # faces of every cone are cones of the fan; intersections of cones are
    # again cones
    for fan in [p2(), f1(), p1p1()]:
        keys = list(fan.cones)
        for k in keys:
            for fs in fan.face_sets(k):
                assert fs in fan.cones
        for a in keys:
            for b in keys:
                assert (a & b) in fan.cones


def test_maximal_flags():
    fan = f1()
    supplied = [k for k, ref in fan.cones.items() if ref.is_maximal]
    assert len(supplied) == 4
    assert all(fan.cones[k].dim == 2 for k in supplied)
    assert sorted(map(sorted, fan.maximal_keys())) == sorted(
        map(sorted, supplied)
    )
    # supplied 1-cones are flagged; a listed ray outside every supplied
    # cone is a cone of the fan, maximal by inclusion, but not flagged
    fan = build_fan(2, [(1, 0), (0, 1), (-1, -1)], [[0, 1], [2], [1]])
    flagged = {k for k, ref in fan.cones.items() if ref.is_maximal}
    assert flagged == {frozenset({0, 1}), frozenset({2}), frozenset({1})}
    fan = build_fan(2, [(1, 0), (0, 1), (-1, -1)], [[0, 1]])
    assert not fan.cones[frozenset({2})].is_maximal
    assert frozenset({2}) in fan.maximal_keys()


def test_incomplete_missing_wall_neighbor():
    # two quadrants sharing one ray leave the plane uncovered
    fan = build_fan(
        2, [(1, 0), (0, 1), (-1, 0)], [[0, 1], [1, 2]]
    )
    assert not is_complete(fan)


def test_nonsimplicial_cone_in_fan():
    fan = build_fan(
        3,
        [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)],
        [[0, 1, 2, 3]],
    )
    key = frozenset({0, 1, 2, 3})
    assert key in fan.cones
    props = cone_properties(fan, key)
    assert props["dim"] == 3 and not props["simplicial"] and not props["smooth"]
    # 4 facets, 4 edges
    dims = sorted(fan.cones[k].dim for k in fan.cones)
    assert dims == [0, 1, 1, 1, 1, 2, 2, 2, 2, 3]
    # the cone over a unit square: its rays span Z^3, so every invariant
    # factor is 1, and only the ray count keeps it from being smooth
    square = build_fan(
        3, [(0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)], [[0, 1, 2, 3]]
    )
    props = cone_properties(square, [0, 1, 2, 3])
    assert not props["simplicial"] and not props["smooth"]


# ---------------------------------------------------------------------------
# differential tests: the one-dual pair check against the three-dual check
# it replaced, on seeded random fans of rank 2..4


def random_unimodular(rng, n):
    """A random GL_n(Z) matrix: a product of elementary moves."""
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        q = rng.choice([-1, 1])
        M[i] = [a + q * b for a, b in zip(M[i], M[j])]
        if rng.random() < 0.3:
            M[i], M[j] = M[j], M[i]
    return M


def stellar(rays, cones, cone):
    """Stellar subdivision of a simplicial fan at one of its cones."""
    v = tuple(sum(c) for c in zip(*(rays[i] for i in cone)))
    g = 0
    for x in v:
        g = gcd(g, x)
    rays = rays + [tuple(x // g for x in v)]
    new = len(rays) - 1
    out = []
    for c in cones:
        if set(cone) <= set(c):
            out += [[j for j in c if j != i] + [new] for i in cone]
        else:
            out.append(c)
    return rays, out


def random_complete_fan_input(rng, rank, shape):
    """(rays, max_cones) of a complete fan: a simplex, cross-polytope or
    cube fan, the simplicial ones stellarly subdivided at random cones."""
    if shape == "simplex":
        rays = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
        rays.append(tuple([-1] * rank))
        cones = [[j for j in range(rank + 1) if j != i]
                 for i in range(rank + 1)]
    elif shape == "cross":
        rays = []
        for i in range(rank):
            for s in (1, -1):
                rays.append(tuple(s * int(i == j) for j in range(rank)))
        cones = [[2 * i + b[i] for i in range(rank)]
                 for b in itertools.product((0, 1), repeat=rank)]
    else:
        rays = list(itertools.product((1, -1), repeat=3))
        cones = [[k for k, r in enumerate(rays) if r[axis] == s]
                 for axis in range(3) for s in (1, -1)]
    if shape != "cube":
        for _ in range(rng.randint(0, 3 if rank < 4 else 0)):
            c = rng.choice(cones)
            rays, cones = stellar(rays, cones,
                                  rng.sample(c, rng.randint(2, len(c))))
    return rays, cones


def change_basis(rng, rank, rays, cones):
    """Apply a random GL_n(Z) change and a random relabelling of the rays."""
    M = random_unimodular(rng, rank)
    rays = [tuple(sum(a * b for a, b in zip(row, r)) for row in M)
            for r in rays]
    order = list(range(len(rays)))
    rng.shuffle(order)
    where = {old: new for new, old in enumerate(order)}
    rays = [rays[i] for i in order]
    cones = [sorted(where[i] for i in c) for c in cones]
    return rays, cones


def random_complete_fans(rng, count):
    """Seeded complete fans of rank 2 and 3 with a few rays each."""
    fans = []
    while len(fans) < count:
        rank = rng.choice([2, 2, 3])
        shape = rng.choice(["simplex", "cross"])
        rays, cones = random_complete_fan_input(rng, rank, shape)
        if len(rays) <= 7:
            fans.append(build_fan(rank, *change_basis(rng, rank, rays, cones)))
    return fans


def random_fan_input(rng):
    """(rank, rays, max_cones): a valid fan or one of several ways to break
    one (bad intersections of both kinds, lines, duplicate rays)."""
    rank = rng.choice([2, 2, 2, 3, 3, 3, 3, 4])
    shape = rng.choice(["simplex", "cross", "cube", "cube"] if rank == 3
                       else ["simplex", "cross"])
    rays, cones = random_complete_fan_input(rng, rank, shape)
    cones = rng.sample(cones, rng.randint(1, min(len(cones), 12 - 2 * rank)))
    breaks = rng.choice(["none", "none", "subset", "subset", "new_ray",
                         "new_cone", "line", "duplicate"])
    if shape == "cube" and rng.random() < 0.5:
        # a diagonal of a square cone: spanned by common rays, not a face
        square = rng.choice(cones)
        a = square[0]
        b = next(k for k in square if sum(
            x != y for x, y in zip(rays[a], rays[k])) == 2)
        cones.append([a, b])
    elif breaks == "subset":
        k = rng.randint(2, min(rank, len(rays)))
        cones.append(rng.sample(range(len(rays)), k))
    elif breaks == "new_ray":
        rays.append(tuple(rng.randint(-2, 2) for _ in range(rank)))
        if not any(rays[-1]) or rays[-1] in rays[:-1]:
            rays.pop()
        else:
            cones.append([len(rays) - 1])
    elif breaks == "new_cone":
        extra = [tuple(rng.randint(-3, 3) for _ in range(rank))
                 for _ in range(rng.randint(1, rank))]
        extra = [v for v in extra if any(v) and v not in rays]
        cones.append([len(rays) + i for i in range(len(extra))]
                     + rng.sample(range(len(rays)), 1))
        rays += extra
    elif breaks == "line":
        rays.append(tuple(-x for x in rays[0]))
        cones.append([0, len(rays) - 1])
    elif breaks == "duplicate":
        rays.append(tuple(2 * x for x in rng.choice(rays)))
    return (rank, *change_basis(rng, rank, rays, cones))


def three_dual_defect(rank, rays, geom_a, geom_b, faces_a, faces_b, common):
    """The former pair check: intersection compared as a double dual."""
    inter = Cone(rank, list(geom_a.dual_generators())
                 + list(geom_b.dual_generators())).dual()
    if not inter.equals(Cone(rank, [rays[i] for i in common])):
        return "their intersection is not spanned by common rays"
    if common not in faces_a or common not in faces_b:
        return "the common rays do not span a face of both"
    return None


def oracle_check(rank, ray_list, maximal_cones):
    """The former fan_diagnostics with its three-dual pair stage.

    Returns (violations, dims, first): the violation list, the dimension
    of every cone of a valid fan, and the BadIntersection text build_fan
    gives for the first bad pair in (size, indices) order.
    """
    rays, violations, seen = [], [], {}
    for idx, r in enumerate(ray_list):
        if not any(r):
            violations.append(("ZeroVector",))
            continue
        p = primitive(r)
        if p in seen:
            violations.append(("DuplicateRay",))
            continue
        seen[p] = idx
        rays.append(p)
    if violations:
        return violations, None, None
    ray_of = {r: i for i, r in enumerate(rays)}
    supplied = []
    for raw in maximal_cones:
        geom = Cone(rank, [rays[i] for i in raw])
        if not geom.is_strongly_convex():
            violations.append(("NotStronglyConvex",))
            continue
        ext = frozenset(ray_of[r] for r in geom.rays())
        if ext not in supplied:
            supplied.append(ext)
    if violations:
        return violations, None, None
    supplied += [frozenset({i}) for i in range(len(rays))
                 if frozenset({i}) not in supplied]
    geom, faces, dims = {}, {}, {frozenset(): 0}
    for fs in supplied:
        geom[fs] = Cone(rank, [rays[i] for i in fs])
        local = geom[fs].rays()
        faces[fs] = {frozenset(ray_of[local[j]] for j in f)
                     for f in geom[fs].face_ray_sets()}
        for f in faces[fs]:
            dims[f] = mat_rank([rays[i] for i in f])

    def cid(fs):
        return f"{dims[fs]}:" + ",".join(map(str, sorted(fs)))

    defect = {}
    for a, b in itertools.combinations(supplied, 2):
        why = three_dual_defect(rank, rays, geom[a], geom[b], faces[a],
                                faces[b], a & b)
        defect[a, b] = defect[b, a] = why
        if why:
            violations.append(("BadIntersection", sorted([cid(a), cid(b)]),
                               why))
    if not violations:
        return violations, dims, None
    ordered = sorted(supplied, key=lambda fs: (len(fs), sorted(fs)))
    a, b = next((a, b) for a, b in itertools.combinations(ordered, 2)
                if defect[a, b])
    first = str(BadIntersection(cid(a), cid(b), defect[a, b]))
    return violations, None, first


BAD_PAIRS = [
    (2, [(1, 0), (0, 1), (1, 1)], [[0, 1], [2]]),  # a ray inside a cone
    (2, [(1, 0), (0, 1), (1, 1), (1, -1)], [[0, 1], [2, 3]]),  # crossing
    (3, [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)],
     [[0, 1, 2, 3], [0, 2]]),  # a diagonal of a square cone
    (2, [(1, 0), (0, 1), (1, 1)], [[0, 1, 2]]),  # a listed interior ray
]


def test_fan_checks_match_three_duals_random():
    rng = random.Random(5150)
    kinds = collections.Counter()
    inputs = [random_fan_input(rng) for _ in range(100)] + BAD_PAIRS
    for rank, rays, cones in inputs:
        expected, dims, first = oracle_check(rank, rays, cones)
        fan, got = fan_diagnostics(rank, rays, cones)
        if expected and expected[0][0] == "BadIntersection":
            assert [(v["kind"], v["cones"], v["message"]) for v in got] \
                == expected
            kinds.update(v[2] for v in expected)
            with pytest.raises(BadIntersection) as info:
                build_fan(rank, rays, cones)
            assert str(info.value) == first
        else:
            assert [v["kind"] for v in got] == [v[0] for v in expected]
        if expected:
            assert fan is None
            continue
        kinds["valid"] += 1
        assert {k: ref.dim for k, ref in fan.cones.items()} == dims
        built = build_fan(rank, rays, cones)
        assert built.rays == fan.rays
        assert list(built.cones.items()) == list(fan.cones.items())
    assert kinds["valid"] >= 40
    assert kinds["their intersection is not spanned by common rays"] >= 20
    assert kinds["the common rays do not span a face of both"] >= 5


# ---------------------------------------------------------------------------
# build_fan and fan_diagnostics run the same checker


HAND_MADE = [
    (2, [(1, 0), (0, 0), (0, 1)], [[0, 2]]),  # zero ray
    (2, [(0, 0), (1, 0), (2, 0)], [[1]]),  # zero ray before a duplicate
    (2, [(1, 0), (0, 1), (3, 0)], [[0, 1]]),  # duplicate ray
    (2, [(1, 0), (0, 1, 0), (2, 0)], [[0]]),  # wrong length, then duplicate
    (2, [(1, 0), (0, 1)], [[0, 1], [2]]),  # unknown index
    (2, [(1, 0), (0, 1)], [[-1], [0, 1]]),  # negative index
    (2, [(1, 0), (-1, 0), (0, 1)], [[1, 2], [0, 1]]),  # a line
    (2, [(1, 0), (-1, 0), (0, 1)], [[0, 1], [0, 3]]),  # line, then unknown
    (3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0)], [[0, 1, 2]]),  # a half-plane
]


def _agreement_inputs(rng):
    inputs = []
    for path in sorted(FIXTURES.glob("*.json")):
        obj = json.loads(path.read_text())
        if "max_cones" in obj:
            inputs.append(fan_fields_from_json(obj))
    for text in INLINE.values():
        inputs.append(fan_fields_from_json(json.loads(text)))
    inputs += [random_fan_input(rng) for _ in range(120)]
    return inputs + HAND_MADE


def test_build_fan_agrees_with_fan_diagnostics():
    rng = random.Random(2718)
    kinds = collections.Counter()
    for rank, rays, cones in _agreement_inputs(rng):
        fan, violations = fan_diagnostics(rank, rays, cones)
        try:
            built = build_fan(rank, rays, cones)
        except DemazureError as exc:
            kind = type(exc).__name__
            kinds[kind] += 1
            assert fan is None and violations
            if isinstance(exc, BadIntersection):
                # build_fan stops at the first bad pair in (size, indices)
                # order, fan_diagnostics lists every bad pair
                assert {v["kind"] for v in violations} == {kind}
                named = {"kind": kind, "cones": sorted([exc.id1, exc.id2]),
                         "message": exc.reason}
                assert named in violations
                kinds["other first pair"] += named != violations[0]
            else:
                assert violations[0] == {"kind": kind, "message": str(exc)}
            continue
        kinds["valid"] += 1
        assert violations == []
        assert built.rays == fan.rays
        assert list(built.cones.items()) == list(fan.cones.items())
    assert set(kinds) == {"valid", "RankMismatch", "ZeroVector",
                          "DuplicateRay", "UnknownRay", "NotStronglyConvex",
                          "BadIntersection", "other first pair"}
    assert kinds["valid"] >= 40 and kinds["BadIntersection"] >= 30
    assert kinds["other first pair"] >= 5


def test_an_incomplete_fan_takes_one_dual_per_pair(monkeypatch):
    # less one maximal cone, the walls of its neighbours lie in one cone
    # each, so the certificate does not hold; no two of the other cones are
    # nested and no ray is left alone, so each pair takes one dual
    calls = []
    original = fan_module.dual_description

    def counted(gens, rank):
        calls.append(rank)
        return original(gens, rank)

    monkeypatch.setattr(fan_module, "dual_description", counted)
    for (rank, rays, cones), duals in [(p1_power_input(3), 21),
                                       (p1_power_input(4), 105),
                                       (p_n_input(4), 6)]:
        calls.clear()
        fan = build_fan(rank, rays, cones[1:])
        assert not is_complete(fan)
        assert len(calls) == comb(len(cones) - 1, 2) == duals


def test_non_numeric_and_non_integral_input_is_rejected():
    # a ray entry that is no number, and a cone index that int() would
    # truncate to a valid one: [0, 1.5] used to build the cone [0, 1]
    with pytest.raises(InvalidInteger, match="non-numeric entry"):
        build_fan(2, [(1, "a"), (0, 1)], [[0, 1]])
    with pytest.raises(InvalidInteger, match="non-integral component 1.5"):
        build_fan(2, [(1, 0), (0, 1)], [[0, 1.5]])
    fan = p2()
    with pytest.raises(InvalidInteger, match="non-integral component 0.5"):
        fan.ref([0.5])
    # integral values of any type are the integer index
    assert fan.ref([1.0, Fraction(2)]) == fan.ref([1, 2])
    assert build_fan(2, [(1, 0), (0, 1)], [[0, 1.0]]).cones == \
        build_fan(2, [(1, 0), (0, 1)], [[0, 1]]).cones


def test_rank_is_read_as_a_nonnegative_integer():
    # a negative rank gave Fan(rank=-1, ...), and the rank "2" was compared
    # with integer lengths: "ray 0 has length 2, expected 2"
    for check in (build_fan, fan_diagnostics):
        with pytest.raises(RankMismatch, match="negative rank -1"):
            check(-1, [], [])
        with pytest.raises(InvalidInteger, match="non-integral"):
            check(Fraction(3, 2), [(1, 0)], [[0]])
    fan = build_fan("2", [(1, 0)], [[0]])
    assert fan.rank == 2 and type(fan.rank) is int
    assert list(fan.cones.items()) == list(
        build_fan(2, [(1, 0)], [[0]]).cones.items())
    fan, violations = fan_diagnostics("2", [(1, 0)], [[0]])
    assert violations == [] and fan.rank == 2


def test_rays_and_cones_that_are_not_sequences_are_named():
    # len(5) and iter(None) raised bare TypeErrors
    for args, message in [
            ((2, [5], [[0]]), "ray 0: expected a sequence, got 5"),
            ((2, [(1, 0), (0, 1)], [[0, 1], 5]),
             "max cone 1: expected a sequence, got 5"),
            ((2, None, []), "rays: expected a sequence, got None"),
            ((2, [(1, 0)], None), "max cones: expected a sequence, got None")]:
        with pytest.raises(SchemaError) as info:
            build_fan(*args)
        assert str(info.value) == message
        assert fan_diagnostics(*args) == (
            None, [{"kind": "SchemaError", "message": message}])
    # the stage goes on past such a ray, as past any other violation
    _, violations = fan_diagnostics(2, [5, (1, 0, 0), (1, 0)], [[0]])
    assert [v["kind"] for v in violations] == ["SchemaError", "RankMismatch"]


def test_a_string_is_no_ray():
    # the rays "10" and "01" were read as (1, 0) and (0, 1): A^2 was built
    args = (2, ["10", "01"], [[0, 1]])
    messages = [f"ray {k}: expected a sequence, got {r!r}"
                for k, r in enumerate(args[1])]
    with pytest.raises(SchemaError) as info:
        build_fan(*args)
    assert str(info.value) == messages[0]
    assert fan_diagnostics(*args) == (
        None, [{"kind": "SchemaError", "message": m} for m in messages])


def test_cone_violations_are_listed_in_input_order():
    # every cone is parsed before its dual is taken, by the wall walk,
    # and each is tested for a line after that; the violations still come
    # in input order, so a cone with a line, eliminated or reached by a
    # pivot that finds it flat, is named before a later unknown index or
    # cone that is no sequence, and after an earlier one
    rays = [(1, 0), (0, 1), (-1, 0)]
    line = "maximal cone [0, 2] contains a line"
    unknown = "cone [0, 5] references a ray that is not listed"
    for cones, expected in [
            ([[0, 2], [0, 5], 7, [0, 1]],
             [("NotStronglyConvex", line), ("UnknownRay", unknown),
              ("SchemaError", "max cone 2: expected a sequence, got 7")]),
            ([[0, 1], [2, 0], [5, 0], "x"],
             [("NotStronglyConvex", line), ("UnknownRay", unknown),
              ("SchemaError", "max cone 3: expected a sequence, got 'x'")]),
            ([[5, 0], None, [0, 1], [0, 2], [1, 2]],
             [("UnknownRay", unknown),
              ("SchemaError", "max cone 1: expected a sequence, got None"),
              ("NotStronglyConvex", line)])]:
        kind, message = expected[0]
        with pytest.raises(DemazureError) as info:
            build_fan(2, rays, cones)
        assert (type(info.value).__name__, str(info.value)) == (kind, message)
        assert fan_diagnostics(2, rays, cones) == (
            None, [{"kind": k, "message": m} for k, m in expected])


def test_a_fan_cone_that_is_no_sequence_is_named():
    # iterating over 5 or None raised a bare TypeError
    fan = p2()
    for ask in (fan.ref, fan.cone_id, fan.saturated_basis, fan.face_sets):
        for cone in (5, None):
            with pytest.raises(SchemaError) as info:
                ask(cone)
            assert str(info.value) == f"cone: expected a sequence, got {cone}"


def test_each_supplied_cone_is_normalized_once(monkeypatch):
    # the ray stage makes the rays primitive; each supplied cone and its
    # dual read them as they are (54 calls on (P^1)^3 before: the cones'
    # generators were made primitive again, and again in their duals)
    calls = []
    original = lattice.primitive

    def counted(v):
        calls.append(v)
        return original(v)

    for module in (lattice, fan_module):
        monkeypatch.setattr(module, "primitive", counted)
    fan = build_fan(*p1_power_input(3))
    assert [tuple(v) for v in calls] == p1_power_input(3)[1]
    assert len(calls) == len(fan.rays) == 6


def test_ray_index_reads_its_vector_as_a_sequence():
    # ray_index(None) raised a bare TypeError, and the string "10" was
    # read as the vector of its characters
    fan = p2()
    assert fan.ray_index([-1, -1]) == 2
    assert fan.ray_index((2, 0)) is None and fan.ray_index((1, 0, 0)) is None
    for vector in (None, 5, "10"):
        with pytest.raises(SchemaError) as info:
            fan.ray_index(vector)
        assert str(info.value) == f"vector: expected a sequence, got {vector!r}"


def test_saturated_basis_only_of_a_fan_cone():
    # an index outside the rays raised a bare IndexError, and a ray set
    # that is no cone of the fan got a basis
    with pytest.raises(ConeNotInFan):
        p2().saturated_basis([7])
    fan = build_fan(2, [(1, 0), (0, 1), (-1, -1)], [[0, 1]])
    with pytest.raises(ConeNotInFan):
        fan.saturated_basis([1, 2])
    assert fan.saturated_basis([0, 1]) == p2().saturated_basis([0, 1])


# ---------------------------------------------------------------------------
# the wall certificate against the pair loop it lets a complete simplicial
# fan skip


def former_build_fan(rank, ray_list, maximal_cones):
    """build_fan before the wall certificate: every pair of generating
    cones is checked."""
    rays, violations = ray_stage(rank, ray_list)
    if not violations:
        fan, violations = cone_stage(rank, rays, maximal_cones)
    if violations:
        raise violations[0]
    generating = sorted(fan.generating,
                        key=lambda fs: (len(fs), tuple(sorted(fs))))
    for a, b in itertools.combinations(generating, 2):
        defect = fan.intersection_defect(a, b)
        if defect is not None:
            raise defect
    return fan


def former_fan_diagnostics(rank, ray_list, maximal_cones):
    """fan_diagnostics before the wall certificate."""
    rays, violations = ray_stage(rank, ray_list)
    if not violations:
        fan, violations = cone_stage(rank, rays, maximal_cones)
    if not violations:
        defects = (fan.intersection_defect(a, b)
                   for a, b in itertools.combinations(fan.generating, 2))
        violations = [d for d in defects if d is not None]
    if violations:
        return None, [serialize._violation_json(v) for v in violations]
    return fan, []


def former_is_complete(fan):
    """is_complete before the wall table: the maximal cones by inclusion,
    and each wall against every n-cone."""
    n = fan.rank
    keys = list(fan.cones)
    maximal = fan.maximal_keys()
    if not maximal or not all(fan.cones[k].dim == n for k in maximal):
        return False
    top = [k for k in keys if fan.cones[k].dim == n]
    walls = [k for k in keys if fan.cones[k].dim == n - 1]
    return all(sum(w < c for c in top) == 2 for w in walls)


def hull_fan_input(rng, rank):
    """(rays, max_cones) of the face fan of a random lattice polytope with
    the origin inside: one cone over each facet, simplicial or not."""
    while True:
        points = {tuple(rng.randint(-3, 3) for _ in range(rank))
                  for _ in range(rank + rng.randint(2, 4))}
        points.discard((0,) * rank)
        normals, lineality = dual_description([p + (1,) for p in points],
                                              rank + 1)
        if lineality or any(u[-1] <= 0 for u in normals):
            continue  # the points span too little or miss the origin
        rays, cones = [], []
        for u in normals:
            facet = Cone(rank, [p for p in points
                                if dot(u[:-1], p) + u[-1] == 0])
            for r in facet.rays():
                if r not in rays:
                    rays.append(r)
            cones.append(sorted(rays.index(r) for r in facet.rays()))
        return rays, cones


def corruptions(rng, rank, rays, cones):
    """Broken copies of a complete fan: a changed ray, an added cone over
    random rays, a dropped cone, and a ray inside a cone left unused."""
    changed = list(rays)
    i = rng.randrange(len(rays))
    changed[i] = tuple(x + rng.randint(-1, 1) for x in rays[i])
    yield rank, changed, cones
    extra = sorted(rng.sample(range(len(rays)), rank))
    yield rank, rays, cones + [extra]
    dropped = list(cones)
    dropped.pop(rng.randrange(len(cones)))
    yield rank, rays, dropped
    inside = [sum(c) for c in zip(*(rays[i] for i in rng.choice(cones)))]
    yield rank, rays + [tuple(inside)], cones


def double_wound(k):
    """A k-gon's rays, each cone spanning two steps: every ray lies in two
    cones, on opposite sides, and the cones wind twice round the origin."""
    rays = [(round(20 * cos(2 * pi * j / k)), round(20 * sin(2 * pi * j / k)))
            for j in range(k)]
    return 2, rays, [sorted([j, (j + 2) % k]) for j in range(k)]


def folded():
    """A rank-3 fan of ten cones, each wall in two of them, but the walls
    through B = (-1, 3, 0) and C = (1, 1, 0) with both their cones on one
    side: the cycle A, B, C, D, E turns back twice.  The sum of the rays
    of the first cone lies in no other."""
    cycle = [(1, 0), (-1, 3), (1, 1), (-1, 1), (0, -1)]
    rays = [r + (0,) for r in cycle] + [(0, 0, 1), (0, 0, -1)]
    cones = [sorted([j, (j + 1) % 5, apex])
             for apex in (5, 6) for j in (3, 4, 0, 1, 2)]
    return 3, rays, cones


def certificate_inputs(rng):
    """Seeded hull fans of rank 2-4 and their corruptions, double-wound
    polygons, the folded fan, and every fan input of the fixtures and the
    agreement test."""
    inputs = []
    for _ in range(50):
        rank = rng.choice([2, 3, 3, 4])
        rays, cones = hull_fan_input(rng, rank)
        inputs.append((rank, rays, cones))
        inputs += corruptions(rng, rank, rays, cones)
    inputs += [double_wound(k) for k in (5, 7, 9, 11)]
    inputs.append(folded())
    return inputs + _agreement_inputs(rng)


def outcome(build, diagnose, completeness, rank, rays, cones):
    """The fan or error of `build`, with its completeness, and the
    violations and fan of `diagnose`, for one input."""
    try:
        fan = build(rank, rays, cones)
        built = list(fan.cones.items()), completeness(fan)
    except DemazureError as exc:
        built = type(exc).__name__, str(exc)
    fan, violations = diagnose(rank, rays, cones)
    return built, violations, fan and list(fan.cones.items())


def test_wall_certificate_matches_the_pair_loop():
    rng = random.Random(1501)
    seen = collections.Counter()
    for rank, rays, cones in certificate_inputs(rng):
        former = outcome(former_build_fan, former_fan_diagnostics,
                         former_is_complete, rank, rays, cones)
        assert outcome(build_fan, fan_diagnostics, is_complete,
                       rank, rays, cones) == former, (rank, rays, cones)
        primitive_rays, violations = ray_stage(rank, rays)
        staged = not violations and cone_stage(rank, primitive_rays, cones)[0]
        if staged:
            seen["walk table" if staged._walls is not None else
                 "zero sets"] += 1
        if former[1]:
            seen["invalid"] += 1
            continue
        fan = build_fan(rank, rays, cones)
        simplicial = all(fan.cones[k].dim == len(k) == rank
                         for k in fan.supplied)
        # a valid fan is certified exactly when complete and simplicial,
        # and then from the walk's wall table unless a cone is listed
        # twice (or in rank 1)
        assert fan.certified_complete() == (simplicial and former[0][1])
        if fan.certified_complete():
            assert (staged._walls is not None) == (rank > 1 and len(
                {frozenset(c) for c in cones}) == len(cones)), cones
        seen["certified" if fan.certified_complete() else
             "complete, not simplicial" if former[0][1] else
             "incomplete"] += 1
    assert seen == {"invalid": 179, "certified": 124,
                    "complete, not simplicial": 7, "incomplete": 94,
                    "walk table": 228, "zero sets": 121}


def facet_walls(fan):
    """The wall table from the facets of a Cone on each n-dimensional
    generating cone's rays, taken to fan indices."""
    walls = {}
    for key in fan.generating:
        if fan.cones[key].dim == fan.rank:
            geom = Cone(fan.rank, [fan.rays[i] for i in key])
            local = [fan.ray_index(r) for r in geom.rays()]
            for u, facet in geom.facets():
                walls.setdefault(frozenset(local[j] for j in facet),
                                 []).append((key, u))
    return walls


SQUARE = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]


# (rank, rays, cones, whether the wall walk hands over its table)
WALK_TABLE_ROUTES = {
    "P^3": (*p_n_input(3), True),
    "(P^1)^3": (*p1_power_input(3), True),
    "F_3": (2, [(1, 0), (0, 1), (-1, 3), (0, -1)],
            [[k, (k + 1) % 4] for k in range(4)], True),
    "P^4": (*p_n_input(4), True),
    "hexagon": (2, HEXAGON, [[k, (k + 1) % 6] for k in range(6)], True),
    # the pivot finds the cone [0, 1, 3] flat: (1, 1, 0) is on its wall
    "flat cone": (3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)],
                  [[0, 1, 2], [0, 1, 3], [1, 2, 3]], False),
    "cone listed twice": (2, [(1, 0), (0, 1), (-1, -1)],
                          [[0, 1], [1, 2], [0, 2], [1, 0]], False),
    # an unused ray is a generating 1-cone, with no wall in rank 2
    "unused ray": (2, [(1, 0), (0, 1), (-1, -1), (1, 1)],
                   [[0, 1], [1, 2], [0, 2]], True),
    "square beside simplices": (
        3, SQUARE + [(0, 0, -1)],
        [[0, 1, 2, 3]] + [[k, (k + 1) % 4, 4] for k in range(4)], False),
    "rank 1": (1, [(1,), (-1,)], [[0], [1]], False),
    "lone cone": (2, [(1, 0), (0, 1)], [[0, 1]], False),
    "no shared wall": (2, [(1, 0), (0, 1), (-1, 0), (0, -1)],
                       [[0, 1], [2, 3]], False),
}


@pytest.mark.parametrize("name", WALK_TABLE_ROUTES)
def test_the_walk_hands_over_its_wall_table_only_when_it_covers_the_fan(
        name, monkeypatch):
    # the walk's table is the fan's one wall table when the rank is at
    # least 2 and the walk left every listed cone (each has n independent
    # generators, and none is listed twice); any other fan reads its
    # walls off its cones' facets.  Both routes give the facets' table
    rank, rays, cones, walked = WALK_TABLE_ROUTES[name]
    fan, violations = cone_stage(rank, ray_stage(rank, rays)[0], cones)
    assert violations == []
    assert (fan._walls is not None) == walked
    passes = []
    zero_sets = Fan._zero_set_walls

    def counted(self):
        passes.append(self)
        return zero_sets(self)

    monkeypatch.setattr(Fan, "_zero_set_walls", counted)
    assert fan.walls() == facet_walls(fan)
    assert len(passes) == (not walked)
    # the certificate and the pair loop still agree on every case
    assert outcome(build_fan, fan_diagnostics, is_complete,
                   rank, rays, cones) == outcome(
        former_build_fan, former_fan_diagnostics, former_is_complete,
        rank, rays, cones)


@pytest.mark.parametrize("case", [double_wound(k) for k in (5, 7, 9, 11)]
                         + [folded()],
                         ids=["5-gon", "7-gon", "9-gon", "11-gon", "folded"])
def test_walls_in_pairs_alone_certify_nothing(case):
    # every wall lies in two cones: the polygons are caught by the covering
    # point, the folded fan by the side of its walls
    rank, rays, cones = case
    fan, _ = cone_stage(rank, ray_stage(rank, rays)[0], cones)
    assert all(len(c) == 2 for c in fan.walls().values())
    assert not fan.certified_complete()
    with pytest.raises(BadIntersection):
        build_fan(rank, rays, cones)


def test_simplicial_fans_take_no_walk(monkeypatch):
    # the cones of a simplicial fan are read off their one elimination and
    # insert no generator; dependent generators are inserted, as in the
    # cube fan's cones and its pair loop
    inserts = []
    original = lattice._insert

    def counted(rays, v, j, r):
        inserts.append(r)
        return original(rays, v, j, r)

    monkeypatch.setattr(lattice, "_insert", counted)
    inputs = [p_n_input(n) for n in (2, 3, 4, 5)]
    inputs += [p1_power_input(n) for n in (2, 3, 4)]
    inputs += [(2, [(1, 0), (0, 1), (-1, a), (0, -1)],
                [[k, (k + 1) % 4] for k in range(4)]) for a in range(4)]
    inputs.append((3, [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1),
                       (0, 0, -1)],
                   [[a, b, c] for a, b in ((0, 1), (1, 2), (0, 2))
                    for c in (3, 4)]))
    inputs.append((3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [[0, 1, 2]]))
    for name in ("a2", "f1", "p1", "p1p1", "p2"):
        obj = json.loads((FIXTURES / f"{name}.json").read_text())
        inputs.append(fan_fields_from_json(obj))
    for rank, rays, cones in inputs:
        fan = build_fan(rank, rays, cones)
        for key in fan.cones:
            fan.face_sets(key)
    assert inserts == []
    build_fan(*cube_input())
    assert inserts


def test_products_with_the_cube_fan_are_complete_fans():
    # cube x P^1 and cube x cube: maximal cones of 5 and 8 rays in ranks
    # 4 and 6, whose duals insert their dependent generators, and every
    # cone a product of faces, 27 of the cube fan's and 3 of P^1's
    for second, size, count in ((p1_power_input(1), 5, 27 * 3),
                                (cube_input(), 8, 27 * 27)):
        rank, rays, cones = product_input(cube_input(), second)
        fan = build_fan(rank, rays, cones)
        assert len(fan.cones) == count and is_complete(fan)
        assert {len(k) for k in fan.maximal_keys()} == {size}
        assert all(fan.cones[k].dim == rank for k in fan.maximal_keys())
        same, violations = fan_diagnostics(rank, rays, cones)
        assert violations == [] and list(same.cones) == list(fan.cones)


def test_a_complete_simplicial_fan_checks_no_pair(monkeypatch, capsys):
    calls = []
    original = Fan.intersection_defect

    def counted(self, a, b):
        calls.append((a, b))
        return original(self, a, b)

    monkeypatch.setattr(Fan, "intersection_defect", counted)
    rng = random.Random(404)
    hexagon = [[j, (j + 1) % 6] for j in range(6)]
    inputs = [p_n_input(3), p1_power_input(3), (2, HEXAGON, hexagon)]
    inputs += [(rank, *random_complete_fan_input(rng, rank, "simplex"))
               for rank in (2, 3, 4)]
    for rank, rays, cones in inputs:
        build_fan(rank, rays, cones)
        assert fan_diagnostics(rank, rays, cones)[1] == []
    assert main(["fan-validate", str(FIXTURES / "p2.json")]) == 0
    assert calls == []
    # an affine fan and a bad intersection take the pair loop: A^3's cone
    # and its three rays make six pairs
    build_fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [[0, 1, 2]])
    assert len(calls) == 6
    assert main(["fan-validate",
                 str(FIXTURES / "bad_intersection.json")]) == 3
    assert len(calls) == 6 + 10
    capsys.readouterr()
