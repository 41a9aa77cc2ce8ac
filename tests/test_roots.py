"""Root enumeration for cones and fans.

Frozen expected sets below were derived with an independent brute-force
scan (see brute_fan_roots) and cross-checked by hand against the sign
conditions.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from demazure.errors import (
    DemazureError,
    InvalidInteger,
    NegativeBound,
    NoRays,
    UnboundedRoots,
)
from demazure.fan import build_fan
from demazure.lattice import Cone, dot, lattice_points
from demazure.roots import (
    DemazureRoot,
    check_condition2,
    extension_in_fan,
    roots_of_cone,
    roots_of_fan,
)

from test_fan import (
    a2,
    cube_input,
    f1,
    p1,
    p1p1,
    p1_power_input,
    p2,
    product_input,
    random_complete_fans,
    random_fan_input,
)


def brute_fan_roots(fan, radius):
    """Oracle: scan the box and apply conditions (1) and (2) literally."""
    found = []
    n = fan.rank
    for e in itertools.product(range(-radius, radius + 1), repeat=n):
        vals = [dot(r, e) for r in fan.rays]
        neg = [i for i, v in enumerate(vals) if v < 0]
        if len(neg) != 1 or vals[neg[0]] != -1:
            continue
        ok, _ = check_condition2(fan, e, neg[0])
        if ok:
            found.append(DemazureRoot(neg[0], e))
    return sorted(found)


def polytope_roots(fan):
    """Oracle for a complete fan: the lattice points m of the polytope
    {m : <n_j, m> >= -1 for all rays n_j} that lie on exactly one facet
    <n_i, m> = -1, as the roots (i, m)."""
    found = []
    for m in lattice_points(fan.rank, [(r, -1) for r in fan.rays]):
        tight = [i for i, r in enumerate(fan.rays) if dot(r, m) == -1]
        if len(tight) == 1:
            found.append(DemazureRoot(tight[0], m))
    return sorted(found)


def test_roots_of_cube_fans_match_the_polytope():
    # the cube fan has none: the octahedron's points off 0 lie on four
    # facets; cube x P^1 has the two roots of its P^1 factor
    for rank, rays, cones in (cube_input(), product_input(
            cube_input(), p1_power_input(1))):
        fan = build_fan(rank, rays, cones)
        rs = roots_of_fan(fan)
        assert rs.complete_enumeration
        assert sorted(rs.roots) == polytope_roots(fan)
        assert len(rs.roots) == 2 * (rank - 3)


def test_p2_roots_complete():
    rs = roots_of_fan(p2())
    assert rs.complete_enumeration
    assert {r.e for r in rs} == {
        (1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1), (0, 1),
    }
    assert len(rs) == 6
    # distinguished rays: e pairs to -1 with exactly its own ray
    for r in rs:
        vals = [dot(v, r.e) for v in p2().rays]
        assert vals[r.ray_index] == -1
        assert all(v >= 0 for j, v in enumerate(vals) if j != r.ray_index)
    assert sorted(rs) == brute_fan_roots(p2(), 3)


def test_f1_roots():
    rs = roots_of_fan(f1())
    assert rs.complete_enumeration
    assert {r.e for r in rs} == {(1, 0), (-1, 0), (0, 1), (1, 1)}
    assert sorted(rs) == brute_fan_roots(f1(), 3)


def test_p1p1_roots():
    rs = roots_of_fan(p1p1())
    assert rs.complete_enumeration
    assert {r.e for r in rs} == {(1, 0), (-1, 0), (0, 1), (0, -1)}


def test_p1_roots():
    rs = roots_of_fan(p1())
    assert rs.complete_enumeration
    assert {(r.ray_index, r.e) for r in rs} == {(0, (-1,)), (1, (1,))}


def test_a2_unbounded_requires_bound():
    with pytest.raises(UnboundedRoots):
        roots_of_fan(a2())


def test_a2_roots_bound5():
    rs = roots_of_fan(a2(), bound=5)
    assert not rs.complete_enumeration
    expected = {(0, (-1, k)) for k in range(6)} | {(1, (k, -1)) for k in range(6)}
    assert {(r.ray_index, r.e) for r in rs} == expected
    assert len(rs) == 12


def test_a2_roots_bound2_example():
    rs = roots_of_fan(a2(), bound=2)
    assert {(r.ray_index, r.e) for r in rs} == {
        (0, (-1, 0)), (0, (-1, 1)), (0, (-1, 2)),
        (1, (0, -1)), (1, (1, -1)), (1, (2, -1)),
    }


def test_roots_monotone_in_bound():
    small = {(r.ray_index, r.e) for r in roots_of_fan(a2(), bound=2)}
    large = {(r.ray_index, r.e) for r in roots_of_fan(a2(), bound=4)}
    assert small <= large


def test_roots_ordering():
    rs = roots_of_fan(a2(), bound=2)
    keys = [(r.ray_index, r.e) for r in rs]
    assert keys == sorted(keys)


def test_exactly_one_negative_pairing():
    for fan in [p2(), f1(), p1p1()]:
        for r in roots_of_fan(fan):
            vals = [dot(v, r.e) for v in fan.rays]
            assert sorted(v for v in vals if v < 0) == [-1]


def test_roots_of_cone_quadrant():
    c = Cone(2, [(1, 0), (0, 1)])
    roots = roots_of_cone(c, 2)
    # rays() sorts: rays[0] = (0,1), rays[1] = (1,0)
    assert c.rays() == ((0, 1), (1, 0))
    by_ray = {}
    for r in roots:
        by_ray.setdefault(r.ray_index, []).append(r.e)
    assert by_ray[0] == [(0, -1), (1, -1), (2, -1)]
    assert by_ray[1] == [(-1, 0), (-1, 1), (-1, 2)]


def test_roots_of_cone_ray_rank1():
    c = Cone(1, [(1,)])
    roots = roots_of_cone(c, 3)
    assert [(r.ray_index, r.e) for r in roots] == [(0, (-1,))]


def test_roots_of_cone_singular_frozen():
    # cone((1,0),(1,2)): rays sorted ((1,0),(1,2));
    # oracle scan with |e_i| <= 3 (frozen):
    c = Cone(2, [(1, 0), (1, 2)])
    assert c.rays() == ((1, 0), (1, 2))
    roots = roots_of_cone(c, 3)
    got = {(r.ray_index, r.e) for r in roots}
    brute = set()
    for e in itertools.product(range(-3, 4), repeat=2):
        v0, v1 = dot((1, 0), e), dot((1, 2), e)
        if v0 == -1 and v1 >= 0:
            brute.add((0, e))
        if v1 == -1 and v0 >= 0:
            brute.add((1, e))
    assert got == brute
    assert (0, (-1, 1)) in got and (1, (1, -1)) in got


def test_roots_of_origin_cone_raises():
    with pytest.raises(NoRays):
        roots_of_cone(Cone(2, []), 3)


def test_condition2_witness_fan():
    # two lone rays, no 2-cone: e = (-1, 0) satisfies the sign conditions
    # but extending ray (0,1) by rho_e would need the missing quadrant
    fan = build_fan(2, [(1, 0), (0, 1)], [[0], [1]])
    ok, witness = check_condition2(fan, (-1, 0), 0)
    assert not ok
    assert witness == frozenset({1})
    # e = (-1, k) with k >= 1 does not vanish on ray (0,1): fine
    ok, witness = check_condition2(fan, (-1, 1), 0)
    assert ok and witness is None
    rs = roots_of_fan(fan, bound=3)
    assert {(r.ray_index, r.e) for r in rs} == {
        (0, (-1, 1)), (0, (-1, 2)), (0, (-1, 3)),
        (1, (1, -1)), (1, (2, -1)), (1, (3, -1)),
    }


def test_weighted_projective_roots():
    # P(1,1,2)-like fan: rays (1,0),(0,1),(-1,-2)
    fan = build_fan(2, [(1, 0), (0, 1), (-1, -2)], [[0, 1], [1, 2], [0, 2]])
    rs = roots_of_fan(fan)
    assert rs.complete_enumeration
    assert sorted(rs) == brute_fan_roots(fan, 4)


def test_no_roots_fan():
    # diagonal quadrants: every candidate region needs a half-integer point
    fan = build_fan(
        2,
        [(1, 1), (1, -1), (-1, 1), (-1, -1)],
        [[0, 1], [0, 2], [1, 3], [2, 3]],
    )
    rs = roots_of_fan(fan)
    assert rs.complete_enumeration
    assert len(rs) == 0


def test_negative_bound_is_rejected():
    with pytest.raises(NegativeBound):
        roots_of_cone(Cone(2, [(1, 0), (0, 1)]), -1)
    with pytest.raises(NegativeBound):
        roots_of_fan(a2(), bound=-1)
    # also where the bound would be ignored
    with pytest.raises(NegativeBound):
        roots_of_fan(p2(), bound=-3)
    assert len(roots_of_fan(a2(), bound=0)) == 0


def test_non_integral_bound_is_rejected():
    # int() used to truncate: -0.5 gave no roots, 2.5 acted as 2
    a3 = build_fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [[0, 1, 2]])
    for bound in (-0.5, 2.5, Fraction(5, 2), "1/2"):
        with pytest.raises(InvalidInteger):
            roots_of_fan(a3, bound=bound)
        with pytest.raises(InvalidInteger):
            roots_of_cone(Cone(2, [(1, 0), (0, 1)]), bound)
    # also where the bound would be ignored
    with pytest.raises(InvalidInteger):
        roots_of_fan(p2(), bound=0.5)
    # and a bound that is no number
    for bound in ("x", None, [2]):
        with pytest.raises(InvalidInteger, match="non-numeric entry"):
            roots_of_cone(Cone(2, [(1, 0), (0, 1)]), bound)
    with pytest.raises(InvalidInteger, match="non-numeric entry"):
        roots_of_fan(p2(), bound="x")
    # an integral value of another type is that integer
    assert len(roots_of_fan(a3, bound=2)) == 27
    for bound in (2.0, Fraction(2), "2"):
        assert roots_of_fan(a3, bound=bound) == roots_of_fan(a3, bound=2)
        assert roots_of_cone(Cone(2, [(1, 0), (0, 1)]), bound) \
            == roots_of_cone(Cone(2, [(1, 0), (0, 1)]), 2)


def cone_extension_in_fan(fan, key, ray_index):
    """The former extension_in_fan: build cone(sigma, rho), read its rays."""
    target = Cone(
        fan.rank, [fan.rays[j] for j in key] + [fan.rays[ray_index]]
    )
    if not target.is_strongly_convex():
        return False
    idxs = set()
    for r in target.rays():
        j = fan.ray_index(r)
        if j is None:
            return False
        idxs.add(j)
    return frozenset(idxs) in fan.cones


def test_extension_in_fan_matches_cone_construction_random():
    rng = random.Random(7)
    fans = [p2(), f1(), p1p1(), p1(), a2()] + random_complete_fans(rng, 25)
    while len(fans) < 60:  # incomplete fans from random subsets of cones
        try:
            fans.append(build_fan(*random_fan_input(rng)))
        except DemazureError:
            pass
    hits = 0
    for fan in fans:
        for key in fan.cones:
            for i in range(len(fan.rays)):
                got = extension_in_fan(fan, key, i)
                assert got == cone_extension_in_fan(fan, key, i)
                hits += got
    assert hits > 500
