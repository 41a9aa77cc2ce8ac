"""Root regions of incomplete fans, against oracles built from the definition.

The root region of ray i is {e : <n_i, e> = -1, <n_j, e> >= 0 for j != i}.
It depends on the rays only, so removing a maximal cone keeps every region
bounded, while removing a ray (and the cones through it) can make some
regions unbounded and leave others bounded.  The oracles here decide
boundedness and find the region's vertices by Fraction elimination over
every choice of tight rows, and apply condition (2) as a literal loop over
the cones and their rays.
"""

from __future__ import annotations

import itertools
import math
import random
import sys
from fractions import Fraction

import pytest

from demazure import lattice
from demazure.errors import DemazureError, UnboundedRoots
from demazure.fan import build_fan
from demazure.lattice import dot
from demazure.orbits import admits_g_structure
from demazure.roots import DemazureRoot, check_condition2, roots_of_fan

from test_fan import (
    HEXAGON,
    change_basis,
    p1_power,
    random_complete_fan_input,
)
from test_lattice import fraction_nullspace
from test_orbits import oracle_admits


def condition2_loop(fan, e, ray_index):
    """Condition (2) read literally: every fan cone without rho_e on whose
    rays e vanishes extends by rho_e to a fan cone; (ok, first witness)."""
    for key in fan.cones:
        if ray_index in key:
            continue
        if any(dot(fan.rays[j], e) != 0 for j in key):
            continue
        if frozenset(key) | {ray_index} not in fan.cones:
            return False, key
    return True, None


def oracle_bounded(rays, i, n):
    """Is ray i's root region bounded?  Its recession cone
    {e : <n_i, e> = 0, <n_j, e> >= 0} is {0} iff it holds no line and no
    extreme ray, and an extreme ray is cut out by n_i and n - 2 more tight
    rows that are independent with it."""
    others = [r for j, r in enumerate(rays) if j != i]
    if fraction_nullspace([rays[i]] + others, n):
        return False
    for sub in itertools.combinations(others, max(n - 2, 0)):
        ns = fraction_nullspace([rays[i], *sub], n)
        if len(ns) == 1 and any(
                all(s * dot(r, ns[0]) >= 0 for r in others) for s in (1, -1)):
            return False
    return True


def oracle_box(rays, i, n):
    """Per-coordinate integer bounds of a bounded region: the extremes of its
    vertices, each the solution of <n_i, e> = -1 and n - 1 tight rows."""
    others = [r for j, r in enumerate(rays) if j != i]
    vertices = []
    for sub in itertools.combinations(others, n - 1):
        # <n_i, e> + t = 0 and <n_j, e> = 0, read at t = 1
        ns = fraction_nullspace([tuple(rays[i]) + (1,)]
                                + [tuple(r) + (0,) for r in sub], n + 1)
        if len(ns) == 1 and ns[0][-1]:
            v = tuple(Fraction(x, ns[0][-1]) for x in ns[0][:-1])
            if all(dot(r, v) >= 0 for r in others):
                vertices.append(v)
    if not vertices:
        return None
    return [(math.floor(min(c)), math.ceil(max(c))) for c in zip(*vertices)]


def oracle_roots(fan, boxes):
    """Roots of ray i scanned in boxes[i] (None: none), ordered like
    roots_of_fan: by ray, then lexicographically."""
    out = []
    for i, box in enumerate(boxes):
        if box is None:
            continue
        for e in itertools.product(*[range(lo, hi + 1) for lo, hi in box]):
            if dot(fan.rays[i], e) == -1 and all(
                    dot(r, e) >= 0
                    for j, r in enumerate(fan.rays) if j != i) \
                    and condition2_loop(fan, e, i)[0]:
                out.append(DemazureRoot(i, e))
    return out


P2 = (2, [(1, 0), (0, 1), (-1, -1)], [[0, 1], [1, 2], [0, 2]])
P1P1 = (2, [(1, 0), (-1, 0), (0, 1), (0, -1)],
        [[0, 2], [0, 3], [1, 2], [1, 3]])
P3 = (3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
      [list(c) for c in itertools.combinations(range(4), 3)])


def hirzebruch(a):
    rays = [(1, 0), (0, 1), (-1, a), (0, -1)]
    return 2, rays, [[k, (k + 1) % 4] for k in range(4)]


def restricted(rank, rays, cones):
    """The fan of these cones on the rays they use, reindexed."""
    used = sorted({j for c in cones for j in c})
    where = {j: k for k, j in enumerate(used)}
    return build_fan(rank, [rays[j] for j in used],
                     [[where[j] for j in c] for c in cones])


def without_cone(data, k):
    rank, rays, cones = data
    return build_fan(rank, rays, cones[:k] + cones[k + 1:])


def without_ray(data, j):
    rank, rays, cones = data
    return restricted(rank, rays, [c for c in cones if j not in c])


def named_fans():
    fans = [without_cone(P2, 0), without_cone(hirzebruch(1), 2),
            without_cone(hirzebruch(2), 0), without_cone(P3, 1),
            without_ray(P1P1, 3), without_ray(P2, 2), without_ray(P3, 0)]
    fans += [without_ray(hirzebruch(a), j) for a in (0, 1, 3) for j in (1, 2)]
    return fans


def random_subfans(seed, count):
    """Seeded subfans of complete fans of rank 2 and 3: a random set of
    maximal cones on the rays that they use, in a random basis."""
    rng = random.Random(seed)
    fans = []
    while len(fans) < count:
        rank = rng.choice([2, 2, 3])
        rays, cones = random_complete_fan_input(
            rng, rank, rng.choice(["simplex", "cross"]))
        rays, cones = change_basis(rng, rank, rays, cones)
        cones = rng.sample(cones, rng.randint(1, len(cones)))
        try:
            fans.append(restricted(rank, rays, cones))
        except DemazureError:
            pass
    return fans


def mixed_region_fans():
    return named_fans() + random_subfans(606, 40)


def test_roots_of_fan_matches_the_definition_on_incomplete_fans():
    shapes = {"bounded": 0, "mixed": 0, "unbounded": 0}
    truncated = 0
    for fan in mixed_region_fans():
        n, l = fan.rank, len(fan.rays)
        bounded = [oracle_bounded(fan.rays, i, n) for i in range(l)]
        boxes = [oracle_box(fan.rays, i, n) if bounded[i] else None
                 for i in range(l)]
        if all(bounded):
            shapes["bounded"] += 1
            expected = oracle_roots(fan, boxes)
            for bound in (None, 0):  # a bound is ignored for bounded regions
                got = roots_of_fan(fan, bound=bound)
                assert got.complete_enumeration
                assert list(got.roots) == expected, fan
            continue
        shapes["mixed" if any(bounded) else "unbounded"] += 1
        with pytest.raises(UnboundedRoots) as info:
            roots_of_fan(fan)
        assert info.value.ray_index == bounded.index(False)
        for bound in (0, 1, 2):
            got = roots_of_fan(fan, bound=bound)
            assert not got.complete_enumeration
            assert list(got.roots) == oracle_roots(
                fan, [[(-bound, bound)] * n] * l), (fan, bound)
            # the bounded regions are truncated to the box as well
            for i, box in enumerate(boxes):
                if box is not None:
                    full = oracle_roots(fan, [box if k == i else None
                                              for k in range(l)])
                    kept = [r for r in got.roots if r.ray_index == i]
                    truncated += len(full) > len(kept)
    assert shapes == {"bounded": 30, "mixed": 11, "unbounded": 12}
    assert truncated == 7


def test_check_condition2_matches_the_cone_loop():
    compared = failed = 0
    for fan in mixed_region_fans():
        for i, ni in enumerate(fan.rays):
            for e in itertools.product(range(-2, 3), repeat=fan.rank):
                if dot(ni, e) in (-1, 0, 1):
                    got = check_condition2(fan, e, i)
                    assert got == condition2_loop(fan, e, i), (fan, e, i)
                    compared += 1
                    failed += not got[0]
    assert compared > 5000 and failed > 500


# ---------------------------------------------------------------------------
# each root region is dualized once, its homogenization, which decides both
# boundedness and the box


@pytest.fixture
def duals(monkeypatch):
    """Counts dual_description calls from every demazure module."""
    calls = []
    original = lattice.dual_description

    def counted(gens, rank):
        calls.append(rank)
        return original(gens, rank)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "demazure" and \
                getattr(module, "dual_description", None) is original:
            monkeypatch.setattr(module, "dual_description", counted)
    return calls


def p_n(n):
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    rays.append((-1,) * n)
    return build_fan(n, rays, [list(c) for c in
                               itertools.combinations(range(n + 1), n)])


def affine(n):
    return build_fan(n, [tuple(int(i == j) for j in range(n))
                         for i in range(n)], [list(range(n))])


# the last parameter is the count of the former analysis, one recession dual
# per region and one homogenization dual per bounded region
@pytest.mark.parametrize("name, fan, bound, before", [
    ("P^2", lambda: p_n(2), None, 6),
    ("P^3", lambda: p_n(3), None, 8),
    ("P^4", lambda: p_n(4), None, 10),
    ("(P^1)^3", lambda: p1_power(3), None, 12),
    ("F_3", lambda: build_fan(*hirzebruch(3)), None, 8),
    ("A^3", lambda: affine(3), 4, 3),
])
def test_roots_of_fan_dual_counts(duals, name, fan, bound, before):
    fan = fan()
    duals.clear()
    roots_of_fan(fan, bound=bound)
    assert len(duals) == len(fan.rays) <= before, name


# dual counts of admits_g_structure, and of the former 2^(l-1) pattern
# search, which the oracle repeats; the flats it tries are a subsequence of
# those patterns
ADMITS_DUALS = {"P^3": 4, "(P^1)^3": 4, "hexagon": 6}
PATTERN_SEARCH_DUALS = {"P^3": 4, "(P^1)^3": 16, "hexagon": 24}


# the last parameter is the count while integer_feasible took a recession
# dual and a homogenization dual per nonempty region
@pytest.mark.parametrize("name, fan, before", [
    ("P^3", lambda: p_n(3), 5),
    ("(P^1)^3", lambda: p1_power(3), 5),
    ("hexagon", lambda: build_fan(2, HEXAGON,
                                  [[k, (k + 1) % 6] for k in range(6)]), 6),
])
def test_admits_g_structure_dual_counts(duals, name, fan, before):
    fan = fan()
    duals.clear()
    admits_g_structure(fan)
    assert len(duals) == ADMITS_DUALS[name] <= before, name
    duals.clear()
    oracle_admits(fan)
    assert len(duals) == PATTERN_SEARCH_DUALS[name] >= ADMITS_DUALS[name], name


def test_mixed_region_fans_dualize_each_region_at_most_twice(duals):
    admits = pattern_search = 0
    for fan in mixed_region_fans():
        duals.clear()
        try:
            roots_of_fan(fan)
        except UnboundedRoots:
            pass
        # one homogenization dual per ray, bounded or not; the former
        # analysis took twice as many when every region was bounded
        assert len(duals) == len(fan.rays)
        duals.clear()
        admits_g_structure(fan)
        admits += len(duals)
        duals.clear()
        oracle_admits(fan)
        pattern_search += len(duals)
    # 327 and 779 while integer_feasible dualized each nonempty region twice
    assert admits == 257
    assert pattern_search == 709
