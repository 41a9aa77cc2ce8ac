"""Orbit gluing, stabilizers, existence and classification of roots.

The symmetry search and the existence test are checked against the
brute-force searches they replaced, kept here as oracles: every ray
permutation for the automorphisms, every zero pattern for the roots.
The stabilizers and the root classes are checked against the code they
replaced: a Smith form per call, and a Fraction inverse per automorphism.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import random
from fractions import Fraction
from math import gcd

import pytest

from demazure import fan as fan_module
from demazure import lattice, orbits
from demazure.algebra import toric_lnd
from demazure.errors import (
    ConeNotInFan,
    DemazureError,
    InvalidInteger,
    NotARoot,
    SchemaError,
    UnsupportedFan,
)
from demazure.fan import (
    build_fan,
    cone_properties,
    cone_stage,
    is_complete,
    ray_stage,
)
from demazure.lattice import (
    Cone,
    det,
    dot,
    invariant_factors,
    mat_inverse,
    mat_mul,
    mat_rank,
    mat_vec,
    smith_normal_form,
    transpose,
)
from demazure.orbits import (
    FanAutomorphism,
    StabilizerData,
    admits_g_structure,
    classify_roots,
    fan_automorphisms,
    g_invariant_divisors,
    g_orbit_partition,
    he_connected_pairs,
    root_image,
    stabilizer_data,
    symmetry_chain,
    verify_root,
)
from demazure.roots import (
    DemazureRoot,
    _root_system,
    cones_inside,
    extension_in_fan,
    roots_of_fan,
)

from demazure.serialize import fan_fields_from_json

from test_fan import (
    HEXAGON,
    a2,
    cube_input,
    f1,
    facet_walls,
    p1,
    p1_power,
    p1_power_input,
    p1p1,
    p2,
    p_n_input,
    product_input,
    random_complete_fans,
    random_fan_input,
)
from test_reports_golden import INLINE


def oracle_automorphisms(fan):
    """The former search: every permutation of the rays, with the matrix
    solved from the first independent n-subset by a Fraction inverse and
    checked on every ray and every cone.  The solve is memoized on the
    base images, which changes nothing but the time."""
    rays = fan.rays
    l = len(rays)
    n = fan.rank
    if mat_rank(rays) < n:
        raise UnsupportedFan("rays do not span")
    base = next(
        idxs
        for idxs in itertools.combinations(range(l), n)
        if det([[rays[i][r] for i in idxs] for r in range(n)]) != 0
    )
    Ainv = mat_inverse([[rays[i][r] for i in base] for r in range(n)])
    cone_keys = set(fan.cones)

    @functools.lru_cache(maxsize=None)
    def solve(images):
        B = [[rays[j][r] for j in images] for r in range(n)]
        phi = [
            [sum(B[r][k] * Ainv[k][c] for k in range(n)) for c in range(n)]
            for r in range(n)
        ]
        if any(x.denominator != 1 for row in phi for x in row):
            return None
        M = [tuple(int(x) for x in row) for row in phi]
        return M if abs(det(M)) == 1 else None

    autos = []
    for perm in itertools.permutations(range(l)):
        M = solve(tuple(perm[i] for i in base))
        if M is None:
            continue
        if any(mat_vec(M, rays[j]) != rays[perm[j]] for j in range(l)):
            continue
        if any(frozenset(perm[i] for i in key) not in cone_keys
               for key in cone_keys):
            continue
        autos.append(FanAutomorphism(tuple(M), tuple(perm)))
    autos.sort(key=lambda a: a.ray_permutation)
    return autos


def oracle_admits(fan):
    """The former decision: for each distinguished ray i, every zero
    pattern Z of the other rays in bitmask order; condition (2) on (i, Z),
    then the integer program of condition (1)."""
    l = len(fan.rays)
    for i in range(l):
        others = [j for j in range(l) if j != i]
        for bits in range(2 ** len(others)):
            Z = frozenset(others[k] for k in range(len(others))
                          if bits >> k & 1)
            if not all(extension_in_fan(fan, key, i)
                       for key in cones_inside(fan, Z)):
                continue
            eqs = [(fan.rays[i], -1)] + [(fan.rays[j], 0) for j in sorted(Z)]
            ineqs = [(fan.rays[j], 1) for j in others if j not in Z]
            if lattice.integer_feasible(fan.rank, ineqs, eqs):
                return True
    return False


def blow_up(cyclic_rays, positions):
    """Insert v_p + v_{p+1} after each listed position p, in order: the
    toric blow-up of a fixed point of a smooth complete surface."""
    rays = list(cyclic_rays)
    for p in positions:
        a, b = rays[p], rays[(p + 1) % len(rays)]
        rays.insert(p + 1, (a[0] + b[0], a[1] + b[1]))
    return rays


def polygon(cyclic_rays):
    l = len(cyclic_rays)
    return build_fan(2, cyclic_rays, [[k, (k + 1) % l] for k in range(l)])


def p2_times_p1():
    rays = [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1)]
    return build_fan(3, rays, [[a, b, c] for a, b in ((0, 1), (1, 2), (0, 2))
                               for c in (3, 4)])


def named_fans():
    return [p2(), f1(), p1_power(3), p2_times_p1(), polygon(HEXAGON),
            polygon(blow_up([(1, 0), (0, 1), (-1, 1), (0, -1)], [0, 2]))]


def oracle_fans(count, seed):
    """Seeded fans from random_fan_input with at most 7 rays (the l! oracle
    stays fast), valid or not spanning; the invalid inputs are skipped."""
    rng = random.Random(seed)
    fans = []
    while len(fans) < count:
        rank, rays, cones = random_fan_input(rng)
        if len(rays) > 7:
            continue
        try:
            fans.append(build_fan(rank, rays, cones))
        except DemazureError:
            pass
    return fans


def test_verify_root():
    fan = p2()
    assert verify_root(fan, (1, 0)) == 2
    assert verify_root(fan, (-1, 0)) == 0
    with pytest.raises(NotARoot):
        verify_root(fan, (1, 1))
    with pytest.raises(NotARoot):
        verify_root(fan, (0, 0))


def test_verify_root_condition2_failure():
    fan = build_fan(2, [(1, 0), (0, 1)], [[0], [1]])
    with pytest.raises(NotARoot):
        verify_root(fan, (-1, 0))


def test_p2_pairs_frozen():
    fan = p2()
    pairs = he_connected_pairs(fan, (1, 0))
    assert [(p.cone1, p.cone2) for p in pairs] == [
        ((), (2,)),
        ((1,), (1, 2)),
    ]


def test_f1_pairs():
    fan = f1()
    pairs = he_connected_pairs(fan, (0, 1))
    assert [(p.cone1, p.cone2) for p in pairs] == [
        ((), (2,)),
        ((0,), (0, 2)),
    ]
    pairs = he_connected_pairs(fan, (1, 0))
    assert [(p.cone1, p.cone2) for p in pairs] == [
        ((), (3,)),
        ((1,), (1, 3)),
        ((2,), (2, 3)),
    ]


def test_orbit_counts_fixture_table():
    # (fan, expected orbit count per root)
    table = [
        (p2(), 5),
        (f1(), None),  # depends on the root; checked separately
        (p1p1(), 6),
        (p1(), 2),
    ]
    for fan, expected in table:
        for r in roots_of_fan(fan):
            part = g_orbit_partition(fan, r.e)
            if expected is not None:
                assert part.orbit_count == expected


def test_f1_orbit_counts_by_class():
    fan = f1()
    assert g_orbit_partition(fan, (1, 0)).orbit_count == 6
    assert g_orbit_partition(fan, (-1, 0)).orbit_count == 6
    assert g_orbit_partition(fan, (0, 1)).orbit_count == 7
    assert g_orbit_partition(fan, (1, 1)).orbit_count == 7


def test_a2_orbit_counts():
    fan = a2()
    assert g_orbit_partition(fan, (-1, 0)).orbit_count == 2
    for k in [1, 2, 5]:
        assert g_orbit_partition(fan, (-1, k)).orbit_count == 3


def test_counting_identity_all_fixtures():
    # #G-orbits == #cones - #{sigma : e vanishes on sigma}
    for fan in [p2(), f1(), p1p1(), p1()]:
        for r in roots_of_fan(fan):
            part = g_orbit_partition(fan, r.e)
            vanishing = sum(
                1
                for key in fan.cones
                if all(dot(fan.rays[j], r.e) == 0 for j in key)
            )
            assert part.orbit_count == len(fan.cones) - vanishing


def test_orbit_dims_and_open_orbit():
    fan = p2()
    part = g_orbit_partition(fan, (1, 0))
    by_cones = {o.cones: o for o in part.orbits}
    # the open torus orbit merges with the divisor orbit of rho_e
    o = by_cones[((), (2,))]
    assert o.dim == 2 and not o.ga_fixed
    assert o.stabilizer == (0, 1, False) or (
        o.stabilizer.torus_dim == 0
        and o.stabilizer.component_order == 1
        and not o.stabilizer.contains_ga
    )
    # every singleton orbit is Ga-fixed
    for o in part.orbits:
        assert o.ga_fixed == (len(o.cones) == 1)


def test_pair_structure_matches_lemma_predicate():
    # sigma_1 facet of sigma_2 cut out by e = 0
    for fan in [p2(), f1(), p1p1()]:
        for r in roots_of_fan(fan):
            for p in he_connected_pairs(fan, r.e):
                k1, k2 = frozenset(p.cone1), frozenset(p.cone2)
                assert k1 < k2
                assert fan.cones[k2].dim == fan.cones[k1].dim + 1
                assert k1 in fan.face_sets(k2)
                assert all(dot(fan.rays[j], r.e) <= 0 for j in k2)
                assert {j for j in k2 if dot(fan.rays[j], r.e) == 0} == set(
                    p.cone1
                )


def test_stabilizer_a2_cyclic():
    fan = a2()
    for k in [1, 2, 3, 5]:
        st = stabilizer_data(fan, (-1, k), [1])
        assert st.torus_dim == 0
        assert st.component_order == k
        assert st.contains_ga


def test_stabilizer_a2_k0():
    fan = a2()
    st = stabilizer_data(fan, (-1, 0), [1])
    assert st.torus_dim == 1
    assert st.component_order == 1
    assert not st.contains_ga  # ray (0,1) pairs with the full quadrant


def test_stabilizer_origin_cone():
    fan = p2()
    st = stabilizer_data(fan, (1, 0), [])
    assert (st.torus_dim, st.component_order, st.contains_ga) == (0, 1, False)


def test_stabilizer_fixed_point_p2():
    fan = p2()
    st = stabilizer_data(fan, (1, 0), [0, 1])  # cone(r0, r1): a fixed point
    assert st.torus_dim == 1
    assert st.component_order == 1
    assert st.contains_ga


def test_stabilizer_saturation_nonunimodular_ray():
    fan = build_fan(2, [(1, 0), (1, 2)], [[0, 1]])
    st = stabilizer_data(fan, (-1, 2), [1])
    # <(1,2), (-1,2)> = 3 on the saturated generator of the span
    assert st.component_order == 3
    assert st.torus_dim == 0


def test_stabilizer_cone_not_in_fan():
    fan = p2()
    with pytest.raises(ConeNotInFan):
        stabilizer_data(fan, (1, 0), [0, 1, 2])


def test_invariant_divisors():
    for fan in [p2(), f1(), p1p1(), p1()]:
        l = len(fan.rays)
        for r in roots_of_fan(fan):
            divs = g_invariant_divisors(fan, r.e)
            assert len(divs) == l - 1
            assert r.ray_index not in divs


def test_admits_g_structure_positive():
    for fan in [p2(), f1(), p1p1(), p1(), a2()]:
        assert admits_g_structure(fan)


def test_admits_g_structure_negative():
    fan = build_fan(
        2,
        [(1, 1), (1, -1), (-1, 1), (-1, -1)],
        [[0, 1], [0, 2], [1, 3], [2, 3]],
    )
    assert not admits_g_structure(fan)


def test_admits_matches_enumeration_when_complete():
    for fan in [p2(), f1(), p1p1(), p1()]:
        assert admits_g_structure(fan) == (len(roots_of_fan(fan)) > 0)


def test_fan_automorphisms_p2():
    fan = p2()
    autos = fan_automorphisms(fan)
    assert len(autos) == 6  # permutes the three rays: S3
    perms = {a.ray_permutation for a in autos}
    assert perms == set(itertools.permutations(range(3)))
    # identity present; closed under composition
    mats = {a.matrix for a in autos}
    assert tuple(map(tuple, [[1, 0], [0, 1]])) in mats
    for a in autos:
        for b in autos:
            prod = tuple(
                tuple(int(x) for x in row)
                for row in mat_mul([list(r) for r in a.matrix],
                                   [list(r) for r in b.matrix])
            )
            assert prod in mats


def test_fan_automorphisms_a2_and_f1():
    assert len(fan_automorphisms(a2())) == 2  # swap the two axes
    autos = fan_automorphisms(f1())
    assert len(autos) == 2
    nontrivial = [a for a in autos if a.ray_permutation != (0, 1, 2, 3)][0]
    assert nontrivial.ray_permutation == (3, 1, 2, 0)


def test_fan_automorphisms_p1p1():
    # swap factors x sign flips: dihedral of order 8
    assert len(fan_automorphisms(p1p1())) == 8


def test_fan_automorphisms_unsupported():
    fan = build_fan(2, [(1, 0)], [[0]])
    with pytest.raises(UnsupportedFan):
        fan_automorphisms(fan)


def test_root_image_preserves_pairings():
    for fan in [p2(), f1()]:
        roots = list(roots_of_fan(fan))
        for phi in fan_automorphisms(fan):
            for r in roots:
                img = root_image(phi, r)
                assert img in roots  # complete fan: full root set is closed
                for j in range(len(fan.rays)):
                    lhs = dot(mat_vec(phi.matrix, fan.rays[j]), img.e)
                    assert lhs == dot(fan.rays[j], r.e)


def test_classify_p2_single_class():
    fan = p2()
    classes = classify_roots(fan, list(roots_of_fan(fan)))
    assert len(classes) == 1
    assert len(classes[0]) == 6


def test_classify_f1_two_classes():
    fan = f1()
    classes = classify_roots(fan, list(roots_of_fan(fan)))
    es = [sorted(r.e for r in c) for c in classes]
    assert sorted(map(tuple, es)) == sorted(
        [tuple(sorted([(1, 0), (-1, 0)])), tuple(sorted([(0, 1), (1, 1)]))]
    )
    # orbit count is a class invariant
    for c in classes:
        counts = {g_orbit_partition(fan, r.e).orbit_count for r in c}
        assert len(counts) == 1


def test_classify_a2_swaps():
    fan = a2()
    roots = list(roots_of_fan(fan, bound=5))
    classes = classify_roots(fan, roots)
    assert len(classes) == 6
    for c in classes:
        es = {r.e for r in c}
        k = max(max(e) for e in es)
        if k <= 0:
            assert es == {(-1, 0), (0, -1)}
        else:
            assert es == {(-1, k), (k, -1)}


def test_classify_p1p1_single_class():
    fan = p1p1()
    classes = classify_roots(fan, list(roots_of_fan(fan)))
    assert len(classes) == 1


def test_orbit_pairs_two_routes_and_counting_random():
    # the pairs (sigma, sigma + rho_e) over cones with e|sigma = 0 agree with
    # the pairs (tau cut by e = 0, tau) over cones containing rho_e with
    # e <= 0 on tau, and #G-orbits = #cones - #pairs
    rng = random.Random(2718)
    fans = [p2(), f1(), p1p1(), p1(), a2()] + random_complete_fans(rng, 20)
    checked = 0
    for fan in fans:
        for r in list(roots_of_fan(fan, bound=2))[:8]:
            e, i = r.e, r.ray_index
            part = g_orbit_partition(fan, e)
            pairs = [(frozenset(p.cone1), frozenset(p.cone2))
                     for p in part.pairs]
            assert part.pairs == tuple(he_connected_pairs(fan, e))
            other = [
                (frozenset(j for j in key if dot(fan.rays[j], e) == 0), key)
                for key in fan.cones
                if i in key and all(dot(fan.rays[j], e) <= 0 for j in key)
            ]
            assert sorted(pairs, key=repr) == sorted(other, key=repr)
            for k1, k2 in pairs:
                assert extension_in_fan(fan, k1, i)
                assert fan.cones[k2].dim == fan.cones[k1].dim + 1
            assert part.orbit_count == len(fan.cones) - len(pairs)
            assert list(part.invariant_divisors) == g_invariant_divisors(
                fan, e)
            checked += 1
    assert checked > 60


def test_automorphism_images_are_roots_random():
    rng = random.Random(1414)
    for fan in [p2(), f1(), p1p1()] + random_complete_fans(rng, 8):
        roots = roots_of_fan(fan)
        autos = fan_automorphisms(fan)
        assert fan_automorphisms(fan) == autos  # memoized, fresh list
        assert fan_automorphisms(fan) is not autos
        for phi in autos:
            for r in roots:
                img = root_image(phi, r)
                vals = [dot(v, img.e) for v in fan.rays]
                assert vals[img.ray_index] == -1
                assert all(v >= 0 for j, v in enumerate(vals)
                           if j != img.ray_index)
                assert img in roots.roots


def test_symmetry_search_matches_the_permutation_oracle():
    fans = named_fans() + oracle_fans(44, 5417)
    unsupported = 0
    for fan in fans:
        try:
            expected = oracle_automorphisms(fan)
        except UnsupportedFan:
            with pytest.raises(UnsupportedFan):
                fan_automorphisms(fan)
            unsupported += 1
            continue
        # the same list in the same order
        assert fan_automorphisms(fan) == expected, fan.rays
    assert len(fans) - unsupported >= 40


def lone_ray_fans():
    """Fans of lone rays: in rank 2 the roots of ray 0 are (-1, k) for
    k >= 1, as (-1, 0) vanishes on ray 1; in rank 3 every root region is
    unbounded or a single point, and no point passes condition (2)."""
    return [build_fan(2, [(1, 0), (0, 1)], [[0], [1]]),
            build_fan(3, [(1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1),
                          (0, 0, -1)], [[j] for j in range(5)])]


def test_admits_matches_the_pattern_oracle():
    # test_root_regions imports this module, so its fans are read here
    from test_root_regions import affine, mixed_region_fans
    lone = lone_ray_fans()
    assert [admits_g_structure(fan) for fan in lone] == [True, False]
    assert lattice.Region(3, *_root_system(lone[1].rays, 1)).points() is None
    verdicts = set()
    for fan in (named_fans() + oracle_fans(44, 5417) + mixed_region_fans()
                + [affine(n) for n in (2, 3, 4)] + lone):
        verdict = admits_g_structure(fan)
        assert verdict == oracle_admits(fan), fan.rays
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_admits_decides_no_integer_program(monkeypatch):
    # each root region is asked once for a point that passes condition
    # (2); the flats search decided one integer program per flat
    calls = []
    original = lattice.integer_feasible

    def recorded(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(lattice, "integer_feasible", recorded)
    verdicts = [admits_g_structure(fan)
                for fan in named_fans() + oracle_fans(20, 8080)]
    assert calls == [] and set(verdicts) == {True, False}


def dihedral_automorphisms(fan):
    """Ray permutations of the lattice automorphisms of a polygon fan whose
    rays are listed in cyclic order: a fan automorphism maps adjacent rays
    to adjacent rays, so it is one of the 2l dihedral maps of the cycle,
    fixed by the images of rays 0 and 1."""
    rays = fan.rays
    l = len(rays)
    inv = mat_inverse([[rays[0][r], rays[1][r]] for r in range(2)])
    perms = []
    for shift in range(l):
        for step in (1, -1):
            perm = tuple((shift + step * k) % l for k in range(l))
            B = [[rays[perm[0]][r], rays[perm[1]][r]] for r in range(2)]
            M = mat_mul(B, inv)
            if all(mat_vec(M, rays[k]) == rays[perm[k]] for k in range(l)):
                perms.append(perm)
    return sorted(perms)


R12 = blow_up(HEXAGON, [0, 2, 4, 6, 8, 10])


@pytest.mark.parametrize("rays, order", [
    (blow_up(HEXAGON, [0, 2, 4, 6]), 2),
    (R12, 12),
    (blow_up(R12, [0, 3, 6, 9, 12, 15]), 6),
    (blow_up(R12, [0, 2, 4, 6, 8, 10]), 2),
], ids=["10-gon", "12-gon", "18-gon", "18-gon-b"])
def test_hexagon_blow_ups(rays, order):
    fan = polygon(rays)
    autos = fan_automorphisms(fan)
    assert len(autos) == order
    assert [a.ray_permutation for a in autos] == dihedral_automorphisms(fan)
    # complete fans: the root enumeration is exact
    assert not admits_g_structure(fan)
    assert len(roots_of_fan(fan)) == 0


def test_p1_power_four_automorphisms():
    # coordinate permutations times sign changes: 4! * 2^4
    autos = fan_automorphisms(p1_power(4))
    assert len(autos) == 384
    assert len({a.matrix for a in autos}) == 384


def test_p1_power_five_admits():
    assert admits_g_structure(p1_power(5))


# ---------------------------------------------------------------------------
# stabilizers from the fan's saturated bases, classes through transposes


def oracle_stabilizer(fan, e, key, contains_ga):
    """The former stabilizer: one Smith form of the cone's rays per call."""
    idxs = sorted(key)
    if not idxs:
        return StabilizerData(0, 1, contains_ga)
    _, D, T = smith_normal_form([fan.rays[j] for j in idxs])
    r = sum(1 for t in range(min(len(D), len(D[0]))) if D[t][t])
    c = gcd(*(dot(T[t], e) for t in range(r)))
    if c == 0:
        return StabilizerData(r, 1, contains_ga)
    return StabilizerData(r - 1, c, contains_ga)


def oracle_classify(fan, roots):
    """The former classification: each root is merged with its image under
    the Fraction contragredient (M^-1)^T of every automorphism."""
    roots = sorted(roots)
    cls = {r: {r} for r in roots}
    for phi in fan_automorphisms(fan):
        inv_t = transpose(mat_inverse([list(r) for r in phi.matrix]))
        for r in roots:
            img = DemazureRoot(phi.ray_permutation[r.ray_index],
                               mat_vec(inv_t, r.e))
            if img in cls and cls[img] is not cls[r]:
                merged = cls[r] | cls[img]
                for x in merged:
                    cls[x] = merged
    return sorted({id(c): sorted(c) for c in cls.values()}.values())


def non_smooth_fans():
    square = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]
    return [
        build_fan(2, [(1, 0), (0, 1), (-2, -3)], [[0, 1], [1, 2], [0, 2]]),
        build_fan(2, [(1, 0), (1, 3)], [[0, 1]]),
        build_fan(3, square, [[0, 1, 2, 3]]),
        build_fan(3, square + [(0, 0, -1)],
                  [[0, 1, 2, 3]] + [[k, (k + 1) % 4, 4] for k in range(4)]),
        # four rays spanning three dimensions: a zero invariant factor
        build_fan(4, [r + (0,) for r in square], [[0, 1, 2, 3]]),
    ]


def stabilizer_fans():
    rng = random.Random(3131)
    fans = []
    while len(fans) < 40:
        try:
            fans.append(build_fan(*random_fan_input(rng)))
        except DemazureError:
            pass
    return fans + non_smooth_fans() + named_fans()


def test_stabilizers_match_the_per_call_smith_form():
    checked = set()
    for fan in stabilizer_fans():
        for root in list(roots_of_fan(fan, bound=2))[:6]:
            e = root.e
            for orbit in g_orbit_partition(fan, e).orbits:
                key = frozenset(orbit.cones[0])
                assert orbit.stabilizer == oracle_stabilizer(
                    fan, e, key, orbit.ga_fixed), (fan.rays, e, key)
            paired = {frozenset(c) for p in he_connected_pairs(fan, e)
                      for c in (p.cone1, p.cone2)}
            for key, ref in fan.cones.items():
                assert stabilizer_data(fan, e, ref) == oracle_stabilizer(
                    fan, e, key, key not in paired), (fan.rays, e, key)
                checked.add(len(key) > ref.dim)
    assert checked == {False, True}  # non-simplicial cones among them


@pytest.fixture
def smith_calls(monkeypatch):
    """Records the matrices that get a Smith form."""
    calls = []
    original = lattice.smith_normal_form

    def recorded(A):
        calls.append(A)
        return original(A)

    monkeypatch.setattr(lattice, "smith_normal_form", recorded)
    monkeypatch.setattr(fan_module, "smith_normal_form", recorded)
    return calls


def test_one_smith_form_per_fan_cone(smith_calls):
    # every cone of P^3 is a face of a unimodular supplied cone, whose
    # rays are a saturated basis: no Smith form at all
    fan = build_fan(*p_n_input(3))
    roots = list(roots_of_fan(fan))
    smith_calls.clear()
    for root in roots:
        g_orbit_partition(fan, root.e)
        for key in fan.cones:
            stabilizer_data(fan, root.e, key)
    assert len(roots) == 12 and len(fan.cones) == 15
    assert smith_calls == []
    # P(3, 2, 1): the cones through the ray (-2, -3) are no face of the
    # unimodular cone {0, 1}, and each takes one Smith form, memoized
    fan = non_smooth_fans()[0]
    roots = list(roots_of_fan(fan))
    assert is_complete(fan) and fan.unimodular_cones() == [frozenset({0, 1})]
    for _ in range(2):
        for root in roots:
            g_orbit_partition(fan, root.e)
            for key in fan.cones:
                stabilizer_data(fan, root.e, key)
    assert roots and len(smith_calls) == 3
    assert {frozenset(map(tuple, A)) for A in smith_calls} == {
        frozenset(fan.rays[i] for i in key)
        for key in ({2}, {0, 2}, {1, 2})}


def readout_fans():
    """(fan, validated) pairs for the fan's readouts: smooth and not,
    simplicial and not, complete and not, and seeded fans whose pairs
    were never checked, some of them meeting badly."""
    fans = [(fan, True) for fan in named_fans() + non_smooth_fans()
            + lone_ray_fans()]
    fans += [(build_fan(*args), True) for args in (
        cube_input(), product_input(cube_input(), p1_power_input(1)),
        (3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [[0, 1, 2]]))]
    # the listed ray (1, 1, 0) lies on a facet of the cone, but is none of
    # its extremal rays
    rays = ((0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 0))
    fans.append((cone_stage(3, rays, [[0, 1, 2, 3]])[0], False))
    rng = random.Random(2525)
    while len(fans) < 70:
        rank, rays, cones = random_fan_input(rng)
        rays, violations = ray_stage(rank, rays)
        fan = None if violations else cone_stage(rank, rays, cones)[0]
        if fan is not None:
            fans.append((fan, False))
    return fans


def walk_fans():
    """The fans that cone_stage makes of walk_inputs(), their pairs never
    checked, each with whether the walk handed over its wall table."""
    fans = []
    for rank, rays, listed in walk_inputs():
        fan = cone_stage(rank, rays, listed)[0]
        if fan is not None:
            fans.append((fan, fan._walls is not None))
    return fans


def test_fan_readouts_match_the_general_routes():
    # faces, walls, smoothness and stabilizers read off each supplied
    # cone's key and dual against the routes they replaced: the face
    # table and facets of a Cone on the cone's rays, taken to fan indices,
    # the invariant factors and a Smith basis; the wall walk's tables
    # against those facets too
    rng = random.Random(2526)
    walked = walk_fans()
    seen = {("walk table", table) for _, table in walked}
    for fan, validated in readout_fans() + [(f, False) for f, _ in walked]:
        assert fan.walls() == facet_walls(fan), fan.rays
        seen.update(("wall past a ray", len(fan._geom[key].gens) > len(key))
                    for key in fan.generating
                    if fan.cones[key].dim == fan.rank)
        characters = [tuple(rng.randint(-3, 3) for _ in range(fan.rank))
                      for _ in range(4)]
        for key, ref in fan.cones.items():
            rays = [fan.rays[i] for i in key]
            geom = Cone(fan.rank, rays)
            local = [fan.ray_index(r) for r in geom.rays()]
            assert fan.face_sets(key) == {
                frozenset(local[j] for j in fs): d
                for fs, d in geom.face_table().items()}, (fan.rays, key)
            simplicial = len(key) == ref.dim
            smooth = simplicial and all(x == 1
                                        for x in invariant_factors(rays))
            assert cone_properties(fan, key)["smooth"] == smooth, (
                fan.rays, key)
            for e in characters:
                assert orbits._stabilizer_core(
                    fan, e, key, True) == oracle_stabilizer(
                        fan, e, key, True), (fan.rays, e, key)
            # a face of a unimodular supplied cone: a subset of its key
            seen.add((simplicial, smooth,
                      any(key <= u for u in fan.unimodular_cones())))
        if validated:
            for root in list(roots_of_fan(fan, bound=1))[:4]:
                paired = {frozenset(c)
                          for p in he_connected_pairs(fan, root.e)
                          for c in (p.cone1, p.cone2)}
                for key in fan.cones:
                    assert stabilizer_data(
                        fan, root.e, key) == oracle_stabilizer(
                            fan, root.e, key, key not in paired)
    # every route is taken: faces of unimodular cones, smooth cones that
    # are none, non-smooth simplicial cones and non-simplicial ones, and a
    # supplied cone listing a ray that is not extremal
    assert seen == {(True, True, True), (True, True, False),
                    (True, False, False), (False, False, False),
                    ("wall past a ray", True), ("wall past a ray", False),
                    ("walk table", True), ("walk table", False)}


def walk_inputs():
    """(rank, rays, cone index lists) for the wall walk: the named and
    non-smooth fans, the bad-intersection inputs, cones whose pivot finds
    them flat (a = 0) or on the same side of the wall (a > 0), and seeded
    random_fan_input fans, some of them meeting badly."""
    inputs = [(fan.rank, fan.rays, [sorted(key) for key in fan.supplied])
              for fan in named_fans() + non_smooth_fans()]
    for name in ("overlapping", "crossing", "subcone_not_face",
                 "interior_ray", "many_violations", "not_pointed"):
        rank, rays, cones = fan_fields_from_json(json.loads(INLINE[name]))
        inputs.append((rank, ray_stage(rank, rays)[0], cones))
    inputs += [
        # (1, 1, 0) replaces (0, 0, 1) on the span of the wall {0, 1}
        (3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)),
         [[0, 1, 2], [0, 1, 3], [1, 2, 3]]),
        # (-1, 0) replaces (0, 1) on the span of the wall {0}: a line
        (2, ((1, 0), (0, 1), (-1, 0)), [[0, 1], [0, 2], [1, 2]]),
        # (1, 1) replaces (0, 1) on the same side of the wall {0}
        (2, ((1, 0), (0, 1), (1, 1)), [[0, 1], [0, 2], [1, 2]]),
    ]
    rng = random.Random(2626)
    while len(inputs) < 100:
        rank, rays, cones = random_fan_input(rng)
        rays, violations = ray_stage(rank, rays)
        listed = [sorted(set(c)) for c in cones]
        if not violations and all(i < len(rays) for c in listed for i in c):
            inputs.append((rank, rays, listed))
    return inputs


def test_the_wall_walk_takes_the_duals_an_elimination_would(monkeypatch):
    # each Cone that _cone_duals returns holds exactly the (E, L, Z) that
    # its own elimination gives, whether the walk eliminated it or
    # reached it by a pivot; a complete simplicial fan takes one
    # elimination in all, and its wall table is handed over with the
    # duals.  A table, when there is one, lists each cone's walls off
    # its own dual: the (n - 1)-subsets of its key, each with the facet
    # normal vanishing on it, in input order
    signs = collections.Counter()
    across = fan_module._across

    def recorded(opposite, out, r):
        a = dot(opposite[out], r)
        signs[(a > 0) - (a < 0)] += 1
        return across(opposite, out, r)

    eliminations = []
    echelon = lattice._echelon

    def counted(rows):
        eliminations.append(len(rows))
        return echelon(rows)

    monkeypatch.setattr(fan_module, "_across", recorded)
    monkeypatch.setattr(lattice, "_echelon", counted)
    complete = len(named_fans())
    cones = taken = tables = 0
    for k, (rank, rays, listed) in enumerate(walk_inputs()):
        eliminations.clear()
        duals, walls = fan_module._cone_duals(rank, rays, listed)
        if k < complete:
            assert len(eliminations) == 1 and walls is not None, rays
        cones += len(duals)
        taken += len(eliminations)
        assert set(duals) == {frozenset(c) for c in listed}
        for key, geom in duals.items():
            assert geom.gens == tuple(sorted(rays[i] for i in key))
            E, L = geom.dual_pair()
            assert (E, L, geom._inc) == lattice._dual_of_primitive(
                geom.gens, rank), (rays, sorted(key))
        if walls is None:
            continue
        tables += 1
        table = {}
        for c in listed:
            key = frozenset(c)
            E, _ = duals[key].dual_pair()
            for i in c:
                (u,) = [u for u in E if dot(u, rays[i])]
                table.setdefault(key - {i}, []).append((key, u))
        assert list(walls.items()) == list(table.items()), (rays, listed)
    # most cones are reached by a pivot, with a of each sign
    assert taken < cones / 3 and tables >= complete
    assert signs[-1] > 150 and signs[0] >= 2 and signs[1] >= 2


def handover_inputs():
    """walk_inputs() and, per seeded random_fan_input fan, the variants
    (name, rank, rays, listed) with a ray no cone uses, with a cone
    listed twice, and with no cone listed; then the rank-1 inputs."""
    inputs = [("walk", *case) for case in walk_inputs()]
    rng = random.Random(2929)
    while len(inputs) < 340:
        rank, rays, cones = random_fan_input(rng)
        rays, violations = ray_stage(rank, rays)
        listed = [sorted(set(c)) for c in cones]
        if violations or any(i >= len(rays) for c in listed for i in c):
            continue
        unused = rays[0]
        while unused in rays:
            v = tuple(rng.randint(-3, 3) for _ in range(rank))
            unused = lattice.primitive(v) if any(v) else rays[0]
        inputs += [("unused ray", rank, rays + (unused,), listed),
                   ("listed twice", rank, rays,
                    listed + [rng.choice(listed)]),
                   ("no cone", rank, rays, [])]
    inputs += [("rank 1", 1, ((1,), (-1,)), listed)
               for listed in ([[0], [1]], [[0]], [], [[0], [1], [0]])]
    return inputs


def test_a_handed_over_wall_table_is_the_facets_table():
    # the walk hands over its table iff the rank is at least 2 and it
    # left every listed cone; the table is then the one the facets of
    # the n-dimensional generating cones give, wall for wall and cone
    # for cone, an unused ray (a generating 1-cone) adding no wall
    seen = collections.Counter()
    for name, rank, rays, listed in handover_inputs():
        fan = cone_stage(rank, rays, listed)[0]
        if fan is None:
            continue
        if fan._walls is not None:
            assert fan._walls == fan._zero_set_walls(), (rank, rays, listed)
        seen[name, fan._walls is not None] += 1
    assert not seen["rank 1", True] and not seen["listed twice", True]
    assert seen["no cone", True] >= 60 and not seen["no cone", False]
    assert seen["unused ray", True] >= 10 and seen["walk", True] >= 20
    # in rank 1 with no listed cone, both rays are generating cones on
    # the wall {0}, which the walk, having left no cone, never saw
    fan = cone_stage(1, ((1,), (-1,)), [])[0]
    assert fan._walls is None
    assert fan.walls() == {frozenset(): [(frozenset({0}), (1,)),
                                         (frozenset({1}), (-1,))]}


def test_classify_matches_the_contragredient_oracle():
    rng = random.Random(9191)
    fans = (named_fans() + non_smooth_fans() + oracle_fans(20, 6262)
            + [build_fan(*p_n_input(3)), p1_power(3), a2()])
    truncated = 0
    for fan in fans:
        try:
            fan_automorphisms(fan)
        except UnsupportedFan:
            continue
        roots = list(roots_of_fan(fan, bound=2))
        subset = rng.sample(roots, len(roots) // 2)
        for rs in (roots, subset, list(roots_of_fan(fan, bound=1))):
            assert classify_roots(fan, rs) == oracle_classify(fan, rs), (
                fan.rays, rs)
        truncated += oracle_classify(fan, subset) != [
            [r for r in c if r in subset]
            for c in oracle_classify(fan, roots)
            if any(r in subset for r in c)]
    # some truncated lists split a class: images outside merge nothing
    assert truncated > 0
    # two roots are merged iff an automorphism maps one to the other, an
    # element of order 3 included
    for fan in [p2(), f1(), build_fan(*p_n_input(3))]:
        for pair in itertools.combinations(roots_of_fan(fan), 2):
            assert classify_roots(fan, pair) == oracle_classify(fan, pair)


def test_classify_inverts_no_matrix(monkeypatch):
    fans = [build_fan(*p_n_input(3)), p1_power(3), f1(), a2()]
    for fan in fans:
        fan_automorphisms(fan)  # the symmetry search solves with inverses

    def refused(rows):
        raise AssertionError("classify_roots inverted a matrix")

    monkeypatch.setattr(lattice, "mat_inverse", refused)
    monkeypatch.setattr(orbits, "mat_inverse", refused)
    for fan in fans:
        assert classify_roots(fan, list(roots_of_fan(fan, bound=2)))


ENTRY_POINTS = {
    "verify_root": verify_root,
    "he_connected_pairs": he_connected_pairs,
    "g_orbit_partition": g_orbit_partition,
    "g_invariant_divisors": g_invariant_divisors,
    "stabilizer_data": lambda fan, e: stabilizer_data(fan, e, [0]),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
def test_non_integral_characters_are_rejected(entry):
    fan = p2()
    # int() would truncate 1/2 to the root (0, -1)
    for x in (Fraction(1, 2), 0.5):
        with pytest.raises(InvalidInteger, match="non-integral component"):
            entry(fan, (x, -1))
    # integral values of any type are the integer character
    assert entry(fan, (Fraction(0), -1.0)) == entry(fan, (0, -1))


def test_stabilizer_data_takes_any_cone_form():
    fan = p2()
    e = (0, -1)
    for key, ref in fan.cones.items():
        expected = stabilizer_data(fan, e, ref)
        assert stabilizer_data(fan, e, key) == expected
        assert stabilizer_data(fan, e, list(ref.indices)) == expected
    with pytest.raises(ConeNotInFan, match=r"no cone with rays \[0, 1, 2\]"):
        stabilizer_data(fan, e, frozenset({0, 1, 2}))


@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
def test_non_numeric_characters_are_rejected(entry):
    for x in ("a", None, float("nan")):
        with pytest.raises(InvalidInteger, match="non-numeric entry"):
            entry(p2(), (x, 1))


def test_non_integral_cone_indices_are_rejected():
    # int() would truncate the index 0.5 to ray 0
    with pytest.raises(InvalidInteger, match="non-integral component 0.5"):
        stabilizer_data(p2(), (0, -1), [0.5])


def test_foreign_ray_indices_are_not_roots():
    fan = p2()
    phi = fan_automorphisms(fan)[1]
    for i in (3, 5, -1, 0.5):
        with pytest.raises(NotARoot, match=f"ray_index={i}, .* 3 rays"):
            classify_roots(fan, [DemazureRoot(i, (-1, 0))])
        with pytest.raises(NotARoot, match=f"ray_index={i}, .* 3 rays"):
            root_image(phi, DemazureRoot(i, (0, -1)))


def test_a_character_that_is_no_sequence_is_named():
    # iterating over None or 5 raised a bare TypeError
    fan = p2()
    for check in (verify_root, g_orbit_partition, he_connected_pairs,
                  g_invariant_divisors):
        for e in (None, 5):
            with pytest.raises(SchemaError) as info:
                check(fan, e)
            assert str(info.value) == \
                f"character: expected a sequence, got {e}"


def test_only_a_demazure_root_is_classified():
    # a (ray index, character) tuple raised AttributeError: 'tuple' object
    # has no attribute 'ray_index'
    fan = p2()
    phi = fan_automorphisms(fan)[1]
    with pytest.raises(NotARoot,
                       match=r"\(0, \(1, 0\)\) is not a DemazureRoot"):
        classify_roots(fan, [(0, (1, 0))])
    with pytest.raises(NotARoot, match="is not a DemazureRoot"):
        root_image(phi, (0, (0, -1)))
    with pytest.raises(SchemaError, match="character: expected a sequence"):
        classify_roots(fan, [DemazureRoot(0, None)])


def test_roots_that_are_no_sequence_are_named():
    # iterating over None raised a bare TypeError
    with pytest.raises(SchemaError) as info:
        classify_roots(p2(), None)
    assert str(info.value) == "roots: expected a sequence, got None"


def test_root_image_reads_its_character_with_as_int():
    # int() truncated the image of (1/2, 0) to (0, 0), and the entry "a"
    # raised a bare TypeError
    phi = fan_automorphisms(p2())[1]
    with pytest.raises(InvalidInteger, match="non-integral component"):
        root_image(phi, DemazureRoot(0, (Fraction(1, 2), 0)))
    for x in ("a", None, float("nan")):
        with pytest.raises(InvalidInteger, match="non-numeric entry"):
            root_image(phi, DemazureRoot(0, (x, 0)))
    # integral values of any type have the image of the integer character
    image = root_image(phi, DemazureRoot(0, (Fraction(-1), 0.0)))
    assert image == root_image(phi, DemazureRoot(0, (-1, 0)))
    assert all(type(x) is int for x in image.e)


def test_classify_roots_reads_characters_with_as_int():
    # the entry "a" raised a bare TypeError, and the character (-1/2, 1/3)
    # was classified
    fan = p2()
    for e in [("a", 0), (Fraction(-1, 2), Fraction(1, 3)), (None, 0)]:
        with pytest.raises(InvalidInteger):
            classify_roots(fan, [DemazureRoot(0, e)])
        with pytest.raises(InvalidInteger):
            classify_roots(fan, [DemazureRoot(0, (-1, 0)), DemazureRoot(0, e)])
    # integral values of any type are the integer character
    root = DemazureRoot(0, (Fraction(-1), 0.0))
    assert classify_roots(fan, [root]) == [[root]]
    assert classify_roots(fan, [root, DemazureRoot(1, (0, -1))]) == \
        classify_roots(fan, [DemazureRoot(0, (-1, 0)),
                             DemazureRoot(1, (0, -1))])


MISSING_FAN_PROBES = [
    (lambda: classify_roots(None, []), "fan: expected a Fan, got None"),
    (lambda: admits_g_structure(None), "fan: expected a Fan, got None"),
    (lambda: is_complete(None), "fan: expected a Fan, got None"),
    (lambda: symmetry_chain(None), "fan: expected a Fan, got None"),
    (lambda: root_image(None, (1, 0)),
     "automorphism: expected a FanAutomorphism, got None"),
    (lambda: toric_lnd(None, (1, 0)), "cone: expected a Cone, got None"),
    (lambda: fan_automorphisms(None), "fan: expected a Fan, got None"),
    (lambda: roots_of_fan(None), "fan: expected a Fan, got None"),
    (lambda: verify_root(None, (1, 0)), "fan: expected a Fan, got None"),
    (lambda: cone_properties(None, [0]), "fan: expected a Fan, got None"),
]


@pytest.mark.parametrize("call, message", MISSING_FAN_PROBES)
def test_a_missing_fan_or_cone_is_named(call, message):
    # each raised a bare AttributeError on None ('_symmetry', 'rank',
    # 'has_convex_support', 'ray_permutation', 'rays')
    with pytest.raises(SchemaError) as info:
        call()
    assert str(info.value) == message
