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

from demazure import lattice, orbits, roots
from demazure.errors import DemazureError, NotARoot, UnboundedRoots
from demazure.fan import Fan, build_fan, is_complete, ray_stage
from demazure.lattice import Region, dot
from demazure.orbits import (
    admits_g_structure,
    g_orbit_partition,
    he_connected_pairs,
    verify_root,
)
from demazure.roots import (
    DemazureRoot,
    _root_system,
    check_condition2,
    roots_of_fan,
)

from test_fan import (
    HEXAGON,
    change_basis,
    cube_input,
    p1_power,
    p1_power_input,
    p_n_input,
    product_input,
    random_complete_fan_input,
    random_fan_input,
)
from test_lattice import fraction_nullspace
from test_orbits import named_fans as complete_named_fans
from test_orbits import non_smooth_fans, oracle_admits
from test_roots import polytope_roots


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


def oracle_region(rays, i, n):
    """The lattice points of a bounded region, scanned in its oracle_box."""
    box = oracle_box(rays, i, n)
    if box is None:
        return []
    return [e for e in itertools.product(*[range(lo, hi + 1)
                                           for lo, hi in box])
            if dot(rays[i], e) == -1
            and all(dot(r, e) >= 0 for j, r in enumerate(rays) if j != i)]


def oracle_has_point(rays, i, n, radius=8):
    """Does ray i's root region hold a lattice point of max norm <= radius?"""
    return any(dot(rays[i], e) == -1 and all(
        dot(r, e) >= 0 for j, r in enumerate(rays) if j != i)
        for e in itertools.product(range(-radius, radius + 1), repeat=n))


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
        # the first ray whose region is unbounded and holds a lattice point
        assert info.value.ray_index == next(
            i for i in range(l)
            if not bounded[i] and oracle_has_point(fan.rays, i, n))
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


def test_an_empty_region_is_not_named_unbounded():
    # <n, e> = -1 with n = (1, 1, 0) and e_1, e_2 >= 0 has no point, not
    # even over Q, so that ray has no roots; the regions of (1, 0, 0) and
    # (0, 1, 0) hold infinitely many
    rays = [(1, 1, 0), (1, 0, 0), (0, 1, 0)]
    for order in itertools.permutations(range(3)):
        where = [order.index(k) for k in range(3)]
        fan = build_fan(3, [rays[k] for k in order],
                        [[where[0], where[1]], [where[0], where[2]]])
        with pytest.raises(UnboundedRoots) as info:
            roots_of_fan(fan)
        assert info.value.ray_index == min(where[1], where[2]), order
        assert str(info.value).startswith(
            f"root region of ray {min(where[1], where[2])} is unbounded")
        got = roots_of_fan(fan, bound=2)
        assert not got.complete_enumeration
        assert list(got.roots) == oracle_roots(fan, [[(-2, 2)] * 3] * 3)
        assert all(r.ray_index != where[0] for r in got.roots)


def test_an_unbounded_region_without_lattice_points_holds_no_roots():
    # three regions are unbounded along e_2 and free of lattice points; in
    # ray 2's, e_1 = 1 - 2 e_3, 1/3 <= e_3 <= 2/3 and e_2 >= 2 - 5 e_3
    fan = build_fan(3, [(2, 0, 1), (-1, 0, 1), (-1, 0, -2), (-2, 1, 1)],
                    [[0], [1], [2], [3]])
    bounded = [oracle_bounded(fan.rays, i, 3) for i in range(4)]
    assert bounded == [False, False, False, True]
    got = roots_of_fan(fan)
    assert got.complete_enumeration
    assert list(got.roots) == oracle_roots(fan, [
        oracle_box(fan.rays, i, 3) if bounded[i] else None
        for i in range(4)])


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


def convex_support_fans(seed, count):
    """Seeded fans whose support is convex: complete simplex, cross and (in
    rank 3, not simplicial) cube fans, or the affine chart of one of their
    maximal cones, in a random basis."""
    rng = random.Random(seed)
    fans = []
    while len(fans) < count:
        rank = rng.choice([2, 3, 3, 4])
        rays, cones = change_basis(rng, rank, *random_complete_fan_input(
            rng, rank, rng.choice(["simplex", "cross", "cube"] if rank == 3
                                  else ["simplex", "cross"])))
        if rng.random() < 0.3:
            fans.append(restricted(rank, rays, [rng.choice(cones)]))
        else:
            fans.append(build_fan(rank, rays, cones))
    return fans


def test_condition2_holds_on_fans_with_convex_support():
    # let e lie in ray i's root region and vanish on a fan cone sigma, p in
    # relint sigma.  As |Sigma| is convex, p + eps n_i lies in a cone tau
    # for small eps > 0, so sigma is a face of tau and rho_i a ray of tau
    # (the one ray of tau on which e is negative).  With u cutting sigma
    # out of tau, w = e + u / <u, n_i> is >= 0 on tau and vanishes exactly
    # on sigma and rho_i: cone(sigma, rho_i) is a face of tau.  So every
    # lattice point of a root region passes condition (2); the unbounded
    # regions of the affine charts are read within a box
    points = charts = 0
    for fan in convex_support_fans(2121, 120):
        n = fan.rank
        charts += not is_complete(fan)
        for i in range(len(fan.rays)):
            region = Region(n, *_root_system(fan.rays, i))
            found = region.points()
            for e in found if found is not None else region.points(
                    [(-2, 2)] * n):
                assert check_condition2(fan, e, i) == (True, None), (
                    fan.rays, e, i)
                points += 1
    assert charts > 20 and points > 1000
    # the support of two lone rays is not convex: (-1, 0) vanishes on ray
    # 1, but the two rays span no cone
    lone = build_fan(2, [(1, 0), (0, 1)], [[0], [1]])
    assert check_condition2(lone, (-1, 0), 0) == (False, frozenset({1}))


def roots_checking_condition2(fan, bound):
    """roots_of_fan with condition (2) checked at every region point, as it
    was before fans with convex support skipped it: the regions are read
    within the box of `bound` when one is unbounded."""
    n = fan.rank
    regions = [Region(n, *_root_system(fan.rays, i))
               for i in range(len(fan.rays))]
    points = [region.points() for region in regions]
    if None in points:
        points = [region.points([(-bound, bound)] * n) for region in regions]
    return [DemazureRoot(i, e) for i, found in enumerate(points)
            for e in found if check_condition2(fan, e, i)[0]]


def admits_checking_condition2(fan):
    """admits_g_structure as it was: each root region is asked for a point
    that passes condition (2)."""
    return any(
        Region(fan.rank, *_root_system(fan.rays, i)).feasible(
            lambda e: check_condition2(fan, e, i)[0])
        for i in range(len(fan.rays)))


def test_roots_skip_condition2_exactly_where_it_is_a_theorem():
    complete = charts = 0
    for fan in convex_support_fans(2121, 120):
        assert fan.has_convex_support(), fan.rays
        got = roots_of_fan(fan, bound=2)
        assert list(got.roots) == roots_checking_condition2(fan, 2), fan.rays
        if is_complete(fan):
            assert got.complete_enumeration
            assert sorted(got.roots) == polytope_roots(fan), fan.rays
            complete += 1
        else:
            charts += 1
        assert admits_g_structure(fan) == admits_checking_condition2(fan)
    assert complete > 60 and charts > 20
    # supports that are not convex: two lone rays, and P^2 less one cone
    for fan in (build_fan(2, [(1, 0), (0, 1)], [[0], [1]]),
                without_cone(P2, 0)):
        assert not fan.has_convex_support(), fan.rays
        assert admits_g_structure(fan) == admits_checking_condition2(fan)


@pytest.fixture
def condition2_calls(monkeypatch):
    """Counts check_condition2 calls from roots and orbits."""
    calls = []

    def counted(*args):
        calls.append(args[1:3])
        return check_condition2(*args)

    monkeypatch.setattr(roots, "check_condition2", counted)
    monkeypatch.setattr(orbits, "check_condition2", counted)
    return calls


def exercise_condition2(fan, bound):
    """roots_of_fan, then g_orbit_partition and he_connected_pairs of each
    root, then admits_g_structure: the number of roots found."""
    found = roots_of_fan(fan, bound=bound)
    for root in found:
        g_orbit_partition(fan, root.e)
        he_connected_pairs(fan, root.e)
    admits_g_structure(fan)
    return len(found)


# the number of roots, and the check_condition2 calls that the same
# functions make when the support is not known to be convex (the cube fan
# has no roots, and no region of it holds a point)
@pytest.mark.parametrize("name, fan, bound, count, unskipped", [
    ("P^2", lambda: p_n(2), None, 6, 19),
    ("(P^1)^3", lambda: p1_power(3), None, 6, 19),
    ("cube", lambda: build_fan(*cube_input()), None, 0, 0),
    ("cube x P^1", lambda: build_fan(*product_input(
        cube_input(), p1_power_input(1))), None, 2, 7),
    ("A^3", lambda: affine(3), 4, 75, 226),
])
def test_fans_with_convex_support_make_no_condition2_call(
        monkeypatch, condition2_calls, name, fan, bound, count, unskipped):
    fan = fan()
    assert fan.has_convex_support()
    assert exercise_condition2(fan, bound) == count
    assert condition2_calls == [], name
    monkeypatch.setattr(Fan, "has_convex_support", lambda self: False)
    assert exercise_condition2(fan, bound) == count
    assert len(condition2_calls) == unskipped, name


def test_a_support_that_is_not_convex_is_checked(condition2_calls):
    lone = build_fan(2, [(1, 0), (0, 1)], [[0], [1]])
    assert not lone.has_convex_support()
    assert exercise_condition2(lone, 3) == 6
    assert len(condition2_calls) == 21
    with pytest.raises(NotARoot) as info:
        verify_root(lone, (-1, 0))
    assert str(info.value) == (
        "(-1, 0) vanishes on cone [1] but its extension by ray 0 is not "
        "in the fan")


# ---------------------------------------------------------------------------
# a root region is eliminated, and dualized only when the elimination leaves
# it open: when it is unbounded, or the elimination stopped at its ceiling


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
    return build_fan(*p_n_input(n))


def affine(n):
    return build_fan(n, [tuple(int(i == j) for j in range(n))
                         for i in range(n)], [list(range(n))])


# dual counts of roots_of_fan: none, as each region's elimination runs
# down to x_0 and so tells bounded (a complete fan) from unbounded (A^3)
ROOTS_DUALS = {"P^2": 0, "P^3": 0, "P^4": 0, "(P^1)^3": 0, "F_3": 0,
               "A^3": 0}


# the last parameter is the count of the analysis before last, one recession
# dual per region and one homogenization dual per bounded region; the
# former analysis took one homogenization dual per region
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
    assert len(duals) == ROOTS_DUALS[name] <= min(len(fan.rays), before)


# the largest number of rows on one level of the eliminations that
# roots_of_fan runs, which see each region's own rows: a bound's box
# bounds only the lift, of the one elimination per ray (two per ray while
# the boxed points came from a second elimination)
@pytest.mark.parametrize("name, fan, bound, rows", [
    ("P^6", lambda: p_n(6), None, 3),
    ("(P^1)^5", lambda: p1_power(5), None, 2),
    ("A^4", lambda: affine(4), 8, 2),
])
def test_largest_elimination_levels(monkeypatch, name, fan, bound, rows):
    fan = fan()
    eliminated = []
    original = lattice._eliminate

    def recorded(rank, rows):
        eliminated.append(original(rank, rows))
        return eliminated[-1]

    monkeypatch.setattr(lattice, "_eliminate", recorded)
    roots_of_fan(fan, bound=bound)
    assert len(eliminated) == len(fan.rays)
    assert not any(cut for _, cut in eliminated)
    largest = max(len(lo) + len(up)
                  for levels, _ in eliminated for lo, up in levels)
    assert largest == rows <= lattice.ROW_CEILING, name


# with the ceiling at 0 every elimination stops after its last coordinate;
# the regions whose lower levels keep rows of one sign are dualized, and
# only they: (cut, dualized) per fan
CUT_AT_ZERO = {"P^3": (4, 4), "(P^1)^3": (6, 0), "F_3": (4, 3),
               "hexagon": (6, 0)}


@pytest.mark.parametrize("name, fan", [
    ("P^3", lambda: p_n(3)),
    ("(P^1)^3", lambda: p1_power(3)),
    ("F_3", lambda: build_fan(*hirzebruch(3))),
    ("hexagon", lambda: build_fan(2, HEXAGON,
                                  [[k, (k + 1) % 6] for k in range(6)])),
])
def test_regions_cut_at_the_ceiling_take_one_dual(duals, monkeypatch, name,
                                                  fan):
    fan = fan()
    n, l = fan.rank, len(fan.rays)
    expected = roots_of_fan(fan)
    monkeypatch.setattr(lattice, "ROW_CEILING", 0)
    cut = dualized = 0
    for i in range(l):
        ineqs, eqs = _root_system(fan.rays, i)
        region = lattice.Region(n, ineqs, eqs)
        levels, capped = region.levels, region.cut
        cut += capped
        duals.clear()
        points = region.points()
        dualized += len(duals)
        assert len(duals) == (
            not all(lower and upper for lower, upper in levels)), (name, i)
        assert list(points) == oracle_region(fan.rays, i, n), (name, i)
    assert (cut, dualized) == CUT_AT_ZERO[name]
    assert roots_of_fan(fan) == expected


@pytest.fixture
def programs(monkeypatch):
    """Counts the integer programs decided: outermost integer_feasible
    calls from the library and from the oracles, which all reach it
    through lattice."""
    calls = []
    original = lattice.integer_feasible
    depth = []

    def counted(*args):
        if not depth:
            calls.append(args[0])
        depth.append(1)
        try:
            return original(*args)
        finally:
            depth.pop()

    monkeypatch.setattr(lattice, "integer_feasible", counted)
    return calls


# dual counts of admits_g_structure: none, as every root region of these
# complete fans is bounded; and the programs it decides, none, as it asks
# each root region for a point that passes condition (2), against the
# former 2^(l-1) pattern search, which the oracle repeats (the flats search
# between them decided 4, 4 and 6)
ADMITS_DUALS = {"P^3": 0, "(P^1)^3": 0, "hexagon": 0}
ADMITS_PROGRAMS = {"P^3": 0, "(P^1)^3": 0, "hexagon": 0}
PATTERN_SEARCH_PROGRAMS = {"P^3": 4, "(P^1)^3": 16, "hexagon": 24}


# the last parameter is the count while integer_feasible took a recession
# dual and a homogenization dual per nonempty region; after that it took
# one dual per program
@pytest.mark.parametrize("name, fan, before", [
    ("P^3", lambda: p_n(3), 5),
    ("(P^1)^3", lambda: p1_power(3), 5),
    ("hexagon", lambda: build_fan(2, HEXAGON,
                                  [[k, (k + 1) % 6] for k in range(6)]), 6),
])
def test_admits_g_structure_dual_counts(duals, programs, name, fan, before):
    fan = fan()
    duals.clear()
    admits_g_structure(fan)
    assert len(duals) == ADMITS_DUALS[name] < before, name
    assert len(programs) == ADMITS_PROGRAMS[name], name
    programs.clear()
    oracle_admits(fan)
    assert len(programs) == PATTERN_SEARCH_PROGRAMS[name] \
        >= ADMITS_PROGRAMS[name], name


def test_mixed_region_fans_dualize_each_region_at_most_twice(
        duals, programs):
    regions = dualized = admits = tried = pattern_search = 0
    for fan in mixed_region_fans():
        duals.clear()
        try:
            roots_of_fan(fan)
        except UnboundedRoots:
            pass
        regions += len(fan.rays)
        dualized += len(duals)
        duals.clear()
        programs.clear()
        admits_g_structure(fan)
        admits += len(duals)
        tried += len(programs)
        programs.clear()
        oracle_admits(fan)
        pattern_search += len(programs)
    # the former analysis dualized every region once, and then each
    # unbounded one to confirm it (78); now only the integer programs that
    # decide whether an unbounded region holds a point dualize it
    assert dualized == 26 < regions == 226
    # one dual per unbounded region that admits reaches, fan by fan as many
    # as the flats search took; 257 while integer_feasible dualized every
    # program, 327 while it dualized each nonempty region twice
    assert admits == 23
    # the flats search decided 234 programs
    assert tried == 0 and pattern_search == 686


# ---------------------------------------------------------------------------
# a fan's root regions are built on its integer rays, read as they are


def region_fans():
    """The complete named and non-smooth fans, the incomplete named fans,
    and fans on the rays of seeded random_fan_input inputs, which only the
    rays matter to; each with a box for the lift, None but on A^3."""
    fans = [(fan, None) for fan in complete_named_fans() + non_smooth_fans()
            + named_fans()]
    fans.append((affine(3), [(-4, 4)] * 3))
    rng = random.Random(2828)
    while len(fans) < 60:
        rank, rays, _ = random_fan_input(rng)
        rays, violations = ray_stage(rank, rays)
        if not violations:
            fans.append((Fan(rank, rays, {}), None))
    return fans


def test_root_regions_on_integer_rows_match_the_public_constructor():
    # the same rows in the same order, so the same elimination, points
    # and verdicts, as the Region of the root system's constraints
    unbounded = 0
    for fan, box in region_fans():
        for i in range(len(fan.rays)):
            public = Region(fan.rank, *_root_system(fan.rays, i))
            region = roots._root_region(fan, i)
            assert (region.rows, region.levels, region.cut) == (
                public.rows, public.levels, public.cut), (fan.rays, i)
            points = public.points(box)
            unbounded += points is None
            assert (region.points(box) is None) == (points is None)
            if points is not None:
                assert list(region.points(box)) == list(points)
            assert region.feasible() == public.feasible(), (fan.rays, i)
    assert unbounded > 20


def test_roots_and_admits_read_no_row_again(monkeypatch):
    # roots_of_fan and admits_g_structure build every region on the fan's
    # integer rays, and Region.feasible recurses on integer rows, so no
    # constraint is read through lattice._row
    rows = []
    original = lattice._row

    def counted(constraint):
        rows.append(constraint)
        return original(constraint)

    monkeypatch.setattr(lattice, "_row", counted)
    for fan in (mixed_region_fans() + complete_named_fans()
                + non_smooth_fans() + [affine(3), p_n(4), p1_power(3)]):
        roots_of_fan(fan, bound=2)
        admits_g_structure(fan)
    assert rows == []
    Region(2, [((1, 0), 0)])  # the public constructor reads its rows
    assert rows == [((1, 0), 0)]
