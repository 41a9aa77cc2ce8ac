"""Root classes, the symmetry search and fan properties read off the fan.

The symmetry search builds a stabilizer chain, one transversal per base
ray, and keeps a solved matrix when it permutes the rays one to one and
maps the supplied cones to fan cones; root classes are orbits of (ray
index, pairings) under the chain's generators, a class's G-orbit count is
the number of cones less the number of gluing pairs, and smoothness is
read off the generating cones.  The code they replaced is kept here as
oracles: the backtrack that built the whole group, with the determinant
check in the solve and every cone checked at each leaf, the orbits under
every automorphism and the union-find over integer transposes, the full
G-orbit partition per class and the properties of every cone.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from demazure import algebra, cli, divisors, lattice, orbits, serialize
from demazure import fan as fan_module
from demazure import roots as roots_module
from demazure.cli import main
from demazure.errors import DemazureError, RankMismatch, UnsupportedFan
from demazure.fan import build_fan, cone_properties, is_complete
from demazure.lattice import (
    as_int,
    det,
    dot,
    mat_inverse,
    mat_vec,
    pivot_columns,
    transpose,
)
from demazure.orbits import (
    FanAutomorphism,
    automorphism_order,
    classify_roots,
    fan_automorphisms,
    g_orbit_partition,
)
from demazure.roots import DemazureRoot, roots_of_fan

from test_fan import (
    FIXTURES,
    f1,
    p1_power,
    p1_power_input,
    p_n_input,
    random_fan_input,
)
from test_orbits import named_fans, non_smooth_fans
from test_reports_golden import INLINE

# -- the former code (oracles only) ------------------------------------------


def det_checked_solve(adj, d, columns):
    """The former solve: the integer matrix, kept only if unimodular."""
    n = len(adj)
    M = []
    for r in range(n):
        row = []
        for c in range(n):
            q, rem = divmod(sum(columns[k][r] * adj[k][c]
                                for k in range(n)), d)
            if rem:
                return None
            row.append(q)
        M.append(tuple(row))
    return tuple(M) if abs(det(M)) == 1 else None


def loop_ray_permutation(fan, M, cone_keys):
    """The former permutation check: every ray to some ray, no injectivity
    test (the determinant had settled it)."""
    perm = []
    for r in fan.rays:
        j = fan.ray_index(mat_vec(M, r))
        if j is None:
            return None
        perm.append(j)
    if any(frozenset(perm[i] for i in key) not in cone_keys
           for key in cone_keys):
        return None
    return tuple(perm)


def oracle_automorphisms(fan):
    """The former search: a backtrack over every injective image of the
    base under the colour and 2-cone filters, building the whole group,
    with the determinant check in the solve and every cone checked at
    each leaf."""
    rays = fan.rays
    l = len(rays)
    n = fan.rank
    base = pivot_columns(transpose(rays))
    if len(base) < n:
        raise UnsupportedFan(
            "rays do not span the ambient space; the automorphism group "
            "is not finite"
        )
    A = [[rays[i][r] for i in base] for r in range(n)]
    d = det(A)
    adj = [[as_int(x * d) for x in row] for row in mat_inverse(A)]
    cone_keys = set(fan.cones)
    colour = [[0] * (n + 1) for _ in range(l)]
    for key, ref in fan.cones.items():
        for j in key:
            colour[j][ref.dim] += 1
    choices = [[j for j in range(l) if colour[j] == colour[b]] for b in base]

    def joined(a, b):
        return frozenset((a, b)) in cone_keys

    autos = []
    images = []

    def extend():
        k = len(images)
        if k == n:
            M = det_checked_solve(adj, d, [rays[j] for j in images])
            if M is not None:
                perm = loop_ray_permutation(fan, M, cone_keys)
                if perm is not None:
                    autos.append(FanAutomorphism(M, perm))
            return
        for j in choices[k]:
            if j not in images and all(
                    joined(j, images[t]) == joined(base[k], base[t])
                    for t in range(k)):
                images.append(j)
                extend()
                images.pop()

    extend()
    autos.sort(key=lambda a: a.ray_permutation)
    return autos


def group_classify(fan, roots, autos):
    """The former classify_roots: the class of the first root not yet
    placed is the set of images of its (ray index, pairings) key under
    every automorphism in the list, within the list."""
    keyed = {(r.ray_index, tuple(dot(n, r.e) for n in fan.rays)): r
             for r in sorted(roots)}
    placed = set()
    classes = []
    for i, p in keyed:
        if (i, p) in placed:
            continue
        orbit = keyed.keys() & {
            (phi.ray_permutation.index(i),
             tuple(p[j] for j in phi.ray_permutation))
            for phi in autos
        }
        placed |= orbit
        classes.append(sorted(keyed[k] for k in orbit))
    return classes


def union_find_classify(fan, roots, autos):
    """The classification before that: a union-find over the images of
    every root under the integer transpose of every automorphism."""
    roots = sorted(roots)
    index = {r: k for k, r in enumerate(roots)}
    parent = list(range(len(roots)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    for phi in autos:
        m_t = transpose(phi.matrix)
        inv = {j: i for i, j in enumerate(phi.ray_permutation)}
        for r in roots:
            img = DemazureRoot(inv[r.ray_index], mat_vec(m_t, r.e))
            if img in index:
                union(index[r], index[img])

    groups = {}
    for r, k in index.items():
        groups.setdefault(find(k), []).append(r)
    classes = [sorted(g) for g in groups.values()]
    classes.sort(key=lambda g: g[0])
    return classes


def per_cone_properties(fan):
    """The former fan-validate properties: every cone's properties."""
    by_dim = {}
    smooth = True
    simplicial = True
    for key, ref in fan.cones.items():
        props = cone_properties(fan, key)
        by_dim[str(ref.dim)] = by_dim.get(str(ref.dim), 0) + 1
        smooth = smooth and props["smooth"]
        simplicial = simplicial and props["simplicial"]
    return {
        "rank": fan.rank,
        "rays": len(fan.rays),
        "complete": is_complete(fan),
        "smooth": smooth,
        "simplicial": simplicial,
        "total_cones": len(fan.cones),
        "cones_by_dim": by_dim,
    }


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except DemazureError as exc:
        return (type(exc).__name__, str(exc))


# -- the fans ----------------------------------------------------------------


def fixture_fans():
    fans = []
    for path in sorted(FIXTURES.glob("*.json")):
        obj = json.loads(path.read_text())
        if "max_cones" in obj:
            try:
                fans.append(serialize.fan_from_json(obj))
            except DemazureError:
                pass
    return fans


def inline_fan(name):
    return serialize.fan_from_json(json.loads(INLINE[name]))


def random_fans(count, seed):
    """Seeded valid fans from random_fan_input, spanning or not."""
    rng = random.Random(seed)
    fans = []
    while len(fans) < count:
        try:
            fans.append(build_fan(*random_fan_input(rng)))
        except DemazureError:
            pass
    return fans


def all_fans():
    return (fixture_fans()
            + [build_fan(*p_n_input(n)) for n in range(2, 6)]
            + [p1_power(n) for n in range(2, 5)]
            + [inline_fan(name) for name in ("weighted", "square_cone",
                                             "hexagon", "singular_cone",
                                             "lone_rays")]
            + named_fans() + non_smooth_fans() + random_fans(30, 4242)
            # rays that do not span
            + [build_fan(2, [(1, 0)], [[0]]),
               build_fan(3, [(1, 0, 0), (0, 1, 0)], [[0, 1]])])


def root_lists(fan, rng):
    """Full, truncated, shuffled and duplicated lists, and lists with
    DemazureRoots that are not roots."""
    full = list(roots_of_fan(fan, bound=2))
    lists = [full, list(roots_of_fan(fan, bound=1)), [],
             rng.sample(full, len(full) // 2)]
    shuffled = full + full[: len(full) // 3]
    rng.shuffle(shuffled)
    lists.append(shuffled)
    l = len(fan.rays)
    fakes = [DemazureRoot((r.ray_index + 1) % l, r.e) for r in full[:4]]
    fakes += [DemazureRoot(rng.randrange(l),
                           tuple(rng.randint(-2, 2) for _ in range(fan.rank)))
              for _ in range(6)]
    lists.append(full[::2] + fakes + fakes[:2])
    return lists


# -- the symmetry search and the classes -------------------------------------


def test_search_and_classes_match_the_former_code():
    rng = random.Random(7070)
    spanning = unsupported = 0
    for fan in all_fans():
        expected = _outcome(oracle_automorphisms, fan)
        assert _outcome(fan_automorphisms, fan) == expected, fan.rays
        if expected[0] != "ok":
            assert expected[0] == "UnsupportedFan"
            assert _outcome(automorphism_order, fan) == expected
            unsupported += 1
            # the fan's error comes before any error of the roots
            bad = [DemazureRoot(0, (1,) * (fan.rank + 1))]
            assert _outcome(classify_roots, fan, bad) == expected
            continue
        spanning += 1
        autos = expected[1]
        assert automorphism_order(fan) == len(autos)
        for rs in root_lists(fan, rng):
            assert classify_roots(fan, rs) == union_find_classify(
                fan, rs, autos), (fan.rays, rs)
        bad = [DemazureRoot(0, (1,) * (fan.rank + 1))]
        with pytest.raises(RankMismatch):
            union_find_classify(fan, bad, autos)
        with pytest.raises(RankMismatch):
            classify_roots(fan, bad)
    assert spanning >= 40 and unsupported >= 3


def test_large_groups_match_the_former_search():
    rng = random.Random(8080)
    for fan, order in [(build_fan(*p_n_input(6)), 5040),
                       (p1_power(5), 3840)]:
        autos = oracle_automorphisms(fan)
        assert len(autos) == order
        assert automorphism_order(fan) == order
        # the order is read off the chain, with no group built
        assert fan._automorphisms is None
        assert fan_automorphisms(fan) == autos
        for rs in root_lists(fan, rng):
            assert classify_roots(fan, rs) == group_classify(fan, rs, autos)


# fans on which a matrix maps the rays one to one onto rays, and all
# supplied cones but one to fan cones (from random_fan_input)
ONE_CONE_REFUSES = [
    (2, [(2, 3), (1, 1), (1, 2), (-1, -2), (-1, -1), (-2, -3)],
     [[4, 5], [2, 4], [1, 3], [0, 1], [0, 2]]),
    (3, [(1, -1, -1), (0, 1, 0), (2, -1, -1), (-1, 1, 0), (1, -1, 0),
         (3, -1, -2), (0, -1, 0), (-2, 1, 1), (-1, 1, 1)],
     [[2, 4, 8], [6, 7, 8]]),
    # the base rays are lone rays, and the one cone has no base ray
    (3, [(1, -1, 0), (-1, 1, 0), (0, -1, -1), (0, 1, 1), (-1, 1, 1),
         (0, 1, 0), (1, -1, -1)], [[1, 5, 6]]),
]


def test_the_leaf_checks_every_supplied_cone():
    orders = []
    for rank, rays, cones in ONE_CONE_REFUSES:
        for shift in range(len(cones)):
            fan = build_fan(rank, rays, cones[shift:] + cones[:shift])
            expected = oracle_automorphisms(fan)
            assert fan_automorphisms(fan) == expected
            assert automorphism_order(fan) == len(expected)
        orders.append(len(expected))
    assert orders == [2, 1, 2]


# -- the work one search does ------------------------------------------------


def counted_search(monkeypatch, fan):
    """The stabilizer chain of a fresh fan, with the leaves it solved and
    the products it formed."""
    leaves = []
    products = []
    solve, compose = orbits._solve, orbits._compose

    def counted_solve(*args):
        leaves.append(solve(*args))
        return leaves[-1]

    def counted_compose(*args):
        products.append(args)
        return compose(*args)

    with monkeypatch.context() as m:
        m.setattr(orbits, "_solve", counted_solve)
        m.setattr(orbits, "_compose", counted_compose)
        chain = orbits.symmetry_chain(fan)
    return chain, leaves, products


def test_the_search_builds_one_transversal_per_level(monkeypatch):
    # P^3: S_4 on the rays, orbits 4, 3 and 2 of the base rays 0, 1, 2;
    # (P^1)^3: the signed permutations of the axes, orbits 6, 4 and 2
    for fan, orbit_sizes, leaves_solved in [
            (build_fan(*p_n_input(3)), [4, 3, 2], 3),
            (p1_power(3), [6, 4, 2], 5)]:
        chain, leaves, products = counted_search(monkeypatch, fan)
        assert [len(t) for t in chain.transversals] == orbit_sizes
        assert chain.order == len(oracle_automorphisms(fan))
        # every leaf found a generator, and each orbit point but the base
        # ray took one product: sum |Delta_k| - n automorphisms, against
        # the 24 and 48 that the former search built
        assert len(leaves) == leaves_solved == len(chain.generators)
        assert None not in leaves
        assert len(products) == sum(orbit_sizes) - fan.rank
        for k, transversal in enumerate(chain.transversals):
            for j, phi in transversal.items():
                assert phi.ray_permutation[chain.base[k]] == j
                assert all(phi.ray_permutation[b] == b
                           for b in chain.base[:k])
        # memoized: a second call searches nothing
        again, leaves, products = counted_search(monkeypatch, fan)
        assert again is chain and leaves == products == []


def test_a_candidate_outside_the_orbit_is_searched_exhaustively(
        monkeypatch):
    # all four rays of F_1 have the same colour, so the filters pass each
    # of them as the image of ray 0, but its orbit is {0, 3}: the search
    # for rays 1 and 2 fails at every leaf below them
    fan = f1()
    chain, leaves, _ = counted_search(monkeypatch, fan)
    assert sorted(chain.transversals[0]) == [0, 3]
    assert [len(t) for t in chain.transversals] == [2, 1]
    # one leaf found the generator, and the five others failed
    assert len(chain.generators) == 1 and len(leaves) == 6
    assert fan_automorphisms(fan) == oracle_automorphisms(fan)


def test_singular_matrices_are_refused_by_the_permutation():
    # each M below is integral and singular and sends two rays to one, and
    # the image of every cone is a cone: only the determinant refused it
    for fan, M in [
            (inline_fan("singular_cone"), ((1, 0), (0, 0))),
            (inline_fan("lone_rays"), ((1, 1), (0, 0)))]:
        keys = set(fan.cones)
        # solved from itself over the identity base
        one, columns = ((1, 0), (0, 1)), transpose(M)
        assert orbits._solve(one, 1, columns) == M
        assert det_checked_solve(one, 1, columns) is None
        assert loop_ray_permutation(fan, M, keys) == (0, 0)
        assert orbits._ray_permutation(fan, M, keys) is None


def test_the_search_stops_at_the_first_ray_that_fails(monkeypatch):
    fan = build_fan(*p_n_input(3))
    looked = []
    original = fan.ray_index

    def recorded(vector):
        looked.append(tuple(vector))
        return original(vector)

    monkeypatch.setattr(fan, "ray_index", recorded)
    # the first ray goes to no ray
    assert orbits._ray_permutation(
        fan, ((2, 0, 0), (0, 1, 0), (0, 0, 1)), set(fan.cones)) is None
    assert looked == [(2, 0, 0)]
    # the second ray goes where the first went
    looked.clear()
    assert orbits._ray_permutation(
        fan, ((1, 1, 0), (0, 0, 0), (0, 0, 1)), set(fan.cones)) is None
    assert looked == [(1, 0, 0), (1, 0, 0)]


def former_base_inverse(fan, base):
    """The former readout of the base inverse: (adj, det A) from a
    Fraction inverse and a determinant of A, the base rays as columns."""
    A = [[fan.rays[i][r] for i in base] for r in range(fan.rank)]
    d = det(A)
    return [[as_int(x * d) for x in row] for row in mat_inverse(A)], d


def test_the_base_inverse_matches_the_fraction_inverse(monkeypatch):
    # adj / D read off the base cone's facet normals is A^-1, and the
    # search on it finds the chain that the determinant and Fraction
    # inverse found: the same base, transversals and generators
    routes = set()
    spanning = 0
    for fan in all_fans():
        try:
            chain = orbits._search_chain(fan)
        except UnsupportedFan:
            continue
        spanning += 1
        base = list(chain.base)
        adj, D = orbits._base_inverse(fan, base)
        former, d = former_base_inverse(fan, base)
        assert [[Fraction(x, D) for x in row] for row in adj] == [
            [Fraction(x, d) for x in row] for row in former], fan.rays
        with monkeypatch.context() as patch:
            patch.setattr(orbits, "_base_inverse", former_base_inverse)
            expected = orbits._search_chain(fan)
        assert chain.base == expected.base
        assert [list(t) for t in chain.transversals] == [
            list(t) for t in expected.transversals]
        assert chain == expected
        assert automorphism_order(fan) == expected.order
        routes.add(frozenset(base) in fan.supplied)
    # the base is a supplied cone, whose dual is read, or is not, and its
    # cone takes one dual
    assert routes == {True, False} and spanning >= 40


# -- orbit counts and fan properties through the CLI -------------------------


def fan_json(fan):
    return json.dumps({"rank": fan.rank, "rays": [list(r) for r in fan.rays],
                       "max_cones": [sorted(g) for g in fan.supplied]})


def _report(capsys, tmp_path, *argv):
    path = tmp_path / "fan.json"
    code = main([argv[0], str(path), *argv[1:]])
    report = json.loads(capsys.readouterr().out)
    return code, report["error"] if code else report["result"]


def test_class_orbit_counts_match_every_partition(capsys, tmp_path):
    checked = 0
    fans = (fixture_fans() + [build_fan(*p_n_input(3)), p1_power(3)]
            + [inline_fan(n) for n in ("weighted", "square_cone", "hexagon")]
            + non_smooth_fans() + random_fans(12, 5151))
    for fan in fans:
        (tmp_path / "fan.json").write_text(fan_json(fan))
        code, report = _report(capsys, tmp_path, "classify", "--bound", "2")
        if code:
            assert report["kind"] == "UnsupportedFan"
            continue
        for cls in report["classes"]:
            for r in cls["roots"]:
                partition = g_orbit_partition(fan, r["e"])
                assert cls["orbit_count"] == partition.orbit_count
                checked += 1
    assert checked > 100


def test_fan_properties_match_every_cone(capsys, tmp_path):
    fans = all_fans()
    seen = set()
    for fan in fans:
        props = cli._fan_properties(fan)
        assert props == per_cone_properties(fan), fan.rays
        seen.add((props["smooth"], props["simplicial"]))
    assert seen == {(True, True), (False, True), (False, False)}
    (tmp_path / "fan.json").write_text(INLINE["square_cone"])
    code, report = _report(capsys, tmp_path, "fan-validate")
    assert code == 0
    assert report["properties"] == per_cone_properties(
        inline_fan("square_cone"))


# -- the work one job does ---------------------------------------------------


def count_calls(monkeypatch, name):
    """Count the calls of a lattice function, wherever it is bound."""
    calls = []
    original = getattr(lattice, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (lattice, fan_module, orbits, roots_module, serialize,
                   cli, algebra, divisors):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def test_one_classify_job_on_p3_solves_once(capsys, tmp_path, monkeypatch):
    (tmp_path / "fan.json").write_text(INLINE["p3"])
    eliminations = count_calls(monkeypatch, "_echelon")
    smiths = count_calls(monkeypatch, "smith_normal_form")
    code, report = _report(capsys, tmp_path, "classify")
    assert code == 0 and report["class_count"] == 1
    # the first supplied cone's dual, which the wall walk takes to the
    # other cones, and the base's pivot columns: the base inverse is read
    # off the base cone's dual; and no Smith form
    assert len(eliminations) == 2
    assert smiths == []


# eliminations per CLI job on a complete simplicial fan: one dual for the
# wall walk, and the symmetry search's pivot columns (4, 8, 4 and 5 per
# fan-validate or roots job while each supplied cone took its own
# elimination, and 3 more per classify job for the base's determinant
# and inverse)
ELIMINATIONS = {"fan-validate": 1, "roots": 1, "classify": 2}


@pytest.mark.parametrize("name, data", [
    ("P^3", p_n_input(3)),
    ("(P^1)^3", p1_power_input(3)),
    ("F_3", (2, [(1, 0), (0, 1), (-1, 3), (0, -1)],
             [[k, (k + 1) % 4] for k in range(4)])),
    ("P^4", p_n_input(4)),
])
def test_one_elimination_per_complete_simplicial_fan(
        capsys, tmp_path, monkeypatch, name, data):
    rank, rays, cones = data
    (tmp_path / "fan.json").write_text(json.dumps(
        {"rank": rank, "rays": rays, "max_cones": cones}))
    eliminations = count_calls(monkeypatch, "_echelon")
    # and no wall pass over the duals' zero sets: the walls are the ones
    # the wall walk handed over
    zero_set_passes = []
    zero_set_walls = fan_module.Fan._zero_set_walls

    def counted(self):
        zero_set_passes.append(self)
        return zero_set_walls(self)

    monkeypatch.setattr(fan_module.Fan, "_zero_set_walls", counted)
    for command, count in ELIMINATIONS.items():
        eliminations.clear()
        code, _ = _report(capsys, tmp_path, command)
        assert code == 0
        assert len(eliminations) == count, (name, command)
    assert zero_set_passes == []


def test_one_fan_validate_job_reads_the_generating_cones(
        capsys, tmp_path, monkeypatch):
    smiths = count_calls(monkeypatch, "smith_normal_form")
    (tmp_path / "fan.json").write_text(INLINE["p3"])
    code, report = _report(capsys, tmp_path, "fan-validate")
    assert code == 0 and report["properties"]["smooth"]
    # every cone of P^3 is a face of a unimodular supplied cone
    assert smiths == []
    # P(3, 2, 1): each generating cone that is no face of the one
    # unimodular cone {0, 1} takes one Smith form
    rank, rays = 2, [(1, 0), (0, 1), (-2, -3)]
    cones = [[0, 1], [1, 2], [0, 2]]
    (tmp_path / "fan.json").write_text(json.dumps(
        {"rank": rank, "rays": rays, "max_cones": cones}))
    code, report = _report(capsys, tmp_path, "fan-validate")
    assert code == 0 and not report["properties"]["smooth"]
    fan = build_fan(rank, rays, cones)
    assert fan.unimodular_cones() == [frozenset({0, 1})]
    others = [key for key in fan.generating if not key <= {0, 1}]
    assert len(others) == 3
    assert sorted(sorted(A) for (A,) in smiths) == sorted(
        sorted(rays[i] for i in key) for key in others)
    # on one fan, smoothness and the stabilizers read one memo: once the
    # generating cones' properties are read, the orbits take no Smith form
    smiths.clear()
    for key in fan.generating:
        cone_properties(fan, key)
    assert len(smiths) == 3
    smiths.clear()
    roots = list(roots_of_fan(fan))
    for root in roots:
        g_orbit_partition(fan, root.e)
    assert roots and smiths == []
