"""Orbit gluing, stabilizers, existence and classification of roots."""

from __future__ import annotations

import itertools
import random

import pytest

from demazure.errors import ConeNotInFan, NotARoot, UnsupportedFan
from demazure.fan import build_fan
from demazure.lattice import dot, mat_mul, mat_vec
from demazure.orbits import (
    admits_g_structure,
    classify_roots,
    fan_automorphisms,
    g_invariant_divisors,
    g_orbit_partition,
    he_connected_pairs,
    root_image,
    stabilizer_data,
    verify_root,
)
from demazure.roots import extension_in_fan, roots_of_fan

from test_fan import a2, f1, p1, p1p1, p2, random_complete_fans


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
