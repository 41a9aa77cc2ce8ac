"""End-to-end acceptance checks.

Nine numbered criteria, each with a hard wall-clock budget.  Every check
asserts exact integer/Fraction values -- no tolerances.  Run with ``-s``
to see one pass/fail line per criterion.
"""

import itertools
import random
import time
from fractions import Fraction

from test_algebra import _random_element, _random_fixtures
from test_divisors import (
    fixture_violation_i,
    fixture_violation_ii,
    fixture_violation_iii,
    fixture_violation_iv,
)
from test_fan import a2, f1, p1, p1p1, p2

from demazure.algebra import (
    HomogeneousLND,
    ToricCarrier,
    derive,
    exp_action,
    exp_symbolic,
    monomial,
    nilpotency_index,
    toric_lnd,
)
from demazure.divisors import (
    INF,
    CoherenceViolation,
    ColoredDivisor,
    PolyhedralDivisor,
    coherent_check,
    degree_zero_normalize,
    horizontal_lnd,
    toric_realization,
)
from demazure.lattice import Cone, dot, lattice_points, mat_mul, mat_rank
from demazure.orbits import (
    StabilizerData,
    classify_roots,
    fan_automorphisms,
    g_invariant_divisors,
    g_orbit_partition,
    he_connected_pairs,
    root_image,
    stabilizer_data,
)
from demazure.roots import roots_of_fan


def _criterion(number, label, budget, body):
    """Run one acceptance check, print its verdict, enforce its budget."""
    start = time.monotonic()
    try:
        body()
    except BaseException:
        print(f"criterion {number} [{label}]: FAIL")
        raise
    elapsed = time.monotonic() - start
    print(f"criterion {number} [{label}]: pass ({elapsed:.2f}s < {budget:g}s)")
    assert elapsed < budget, (
        f"criterion {number} blew its {budget:g}s budget: {elapsed:.2f}s"
    )


def _root_sets(fan, bound=None):
    found = roots_of_fan(fan, bound=bound)
    return found, {r.e for r in found}


# -- criterion 1: the projective plane ---------------------------------------


def test_criterion_1():
    def body():
        fan = p2()
        found, es = _root_sets(fan)
        assert found.complete_enumeration
        assert es == {(1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1), (0, 1)}
        assert len(found) == 6
        classes = classify_roots(fan, list(found))
        assert len(classes) == 1 and len(classes[0]) == 6
        for root in found:
            assert g_orbit_partition(fan, root.e).orbit_count == 5

    _criterion(1, "projective plane", 1.0, body)


# -- criterion 2: the first Hirzebruch surface --------------------------------


def test_criterion_2():
    def body():
        fan = f1()
        found, es = _root_sets(fan)
        assert found.complete_enumeration
        assert es == {(1, 0), (-1, 0), (0, 1), (1, 1)}
        assert len(found) == 4
        classes = classify_roots(fan, list(found))
        assert len(classes) == 2
        by_es = {frozenset(r.e for r in cls): cls for cls in classes}
        assert set(by_es) == {
            frozenset({(1, 0), (-1, 0)}),
            frozenset({(0, 1), (1, 1)}),
        }
        expected = {
            frozenset({(1, 0), (-1, 0)}): 6,
            frozenset({(0, 1), (1, 1)}): 7,
        }
        for key, cls in by_es.items():
            counts = {g_orbit_partition(fan, r.e).orbit_count for r in cls}
            assert counts == {expected[key]}

    _criterion(2, "Hirzebruch surface", 1.0, body)


# -- criterion 3: the affine plane up to bound 5 ------------------------------


def test_criterion_3():
    def body():
        fan = a2()
        found, es = _root_sets(fan, bound=5)
        assert not found.complete_enumeration
        assert es == (
            {(-1, k) for k in range(6)} | {(k, -1) for k in range(6)}
        )
        assert len(found) == 12

        for root in found:
            part = g_orbit_partition(fan, root.e)
            k = max(root.e)
            assert part.orbit_count == (2 if k == 0 else 3)

        classes = classify_roots(fan, list(found))
        assert len(classes) == 6
        for cls in classes:
            es_cls = {r.e for r in cls}
            k = max(max(e) for e in es_cls)
            assert es_cls == {(-1, k), (k, -1)}

        for k in range(1, 6):
            st = stabilizer_data(fan, (-1, k), [1])
            assert st == StabilizerData(
                torus_dim=0, component_order=k, contains_ga=True
            )

        carrier = ToricCarrier(Cone(2, [(1, 0), (0, 1)]))
        x1 = monomial(carrier, (1, 0))
        for k in range(6):
            lnd = toric_lnd(carrier.cone, (-1, k))
            sym = exp_symbolic(lnd, x1)
            assert sym.terms == {
                (1, 0): {0: Fraction(1)},
                (0, k): {1: Fraction(1)},
            }

    _criterion(3, "affine plane, bound 5", 5.0, body)


# -- criterion 4: orbit counting identity --------------------------------------


def _fixture_suite():
    return [
        ("projective plane", p2(), None, 6),
        ("Hirzebruch surface", f1(), None, 4),
        ("affine plane", a2(), 5, 12),
        ("quadric surface", p1p1(), None, 4),
        ("projective line", p1(), None, 2),
    ]


def _brute_pairs(fan, e):
    """Enumerate connected pairs straight from the definition.

    Scan all ordered pairs of cones: the small one must be killed by e,
    the big one must add exactly the distinguished ray.
    """
    (rho,) = [i for i, r in enumerate(fan.rays) if dot(r, e) == -1]
    pairs = set()
    for k1 in fan.cones:
        if any(dot(fan.rays[j], e) != 0 for j in k1):
            continue
        for k2 in fan.cones:
            if rho in k2 and k2 == k1 | {rho}:
                pairs.add((tuple(sorted(k1)), tuple(sorted(k2))))
    return pairs


def test_criterion_4():
    def body():
        for _, fan, bound, n_roots in _fixture_suite():
            found = roots_of_fan(fan, bound=bound)
            assert len(found) == n_roots
            for root in found:
                e = root.e
                zero_cones = [
                    key for key in fan.cones
                    if all(dot(fan.rays[j], e) == 0 for j in key)
                ]
                part = g_orbit_partition(fan, e)
                assert part.orbit_count == len(fan.cones) - len(zero_cones)

                pairs = he_connected_pairs(fan, e)
                assert len(pairs) == len(zero_cones)
                assert {(p.cone1, p.cone2) for p in pairs} == _brute_pairs(
                    fan, e
                )

        # spot-check the two fixtures whose counts were not pinned above
        quadric = p1p1()
        for root in roots_of_fan(quadric):
            assert g_orbit_partition(quadric, root.e).orbit_count == 6
        line = p1()
        for root in roots_of_fan(line):
            assert g_orbit_partition(line, root.e).orbit_count == 2

    _criterion(4, "orbit count identity", 5.0, body)


# -- criterion 5: invariant divisors -------------------------------------------


def test_criterion_5():
    def body():
        for _, fan, bound, _n in _fixture_suite():
            for root in roots_of_fan(fan, bound=bound):
                divisors = g_invariant_divisors(fan, root.e)
                assert len(divisors) == len(fan.rays) - 1
                assert root.ray_index not in divisors

    _criterion(5, "invariant divisor count", 5.0, body)


# -- criterion 6: derivation laws, randomized ----------------------------------


def test_criterion_6():
    def body():
        rng = random.Random(987654321)
        for carrier, lnd, sample in _random_fixtures():
            for _ in range(500):
                x = _random_element(carrier, sample, rng)
                y = _random_element(carrier, sample, rng)

                # Leibniz rule
                assert derive(lnd, x * y) == (
                    derive(lnd, x) * y + x * derive(lnd, y)
                )

                # homogeneity: every surviving term moved by the degree
                dx = derive(lnd, x)
                allowed = {
                    lnd.shift(k) for k in x.terms if lnd.multiplier(k)
                }
                assert set(dx.terms) <= allowed

                # one-parameter group law and multiplicativity
                s = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                t = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                assert exp_action(lnd, exp_action(lnd, x, s), t) == (
                    exp_action(lnd, x, s + t)
                )
                assert exp_action(lnd, x * y, s) == (
                    exp_action(lnd, x, s) * exp_action(lnd, y, s)
                )

                # nilpotency index of a monomial is its multiplier plus one
                key = sample(rng)
                q = lnd.multiplier(key)
                assert q >= 0
                if type(carrier) is ToricCarrier:
                    assert q == dot(lnd.ray_normal, key)
                assert nilpotency_index(lnd, monomial(carrier, key)) == q + 1

    _criterion(6, "derivation laws x500", 30.0, body)


# -- criterion 7: cone duality and point counting, randomized -------------------


def test_criterion_7():
    def body():
        rng = random.Random(24601)
        for _ in range(1000):
            n = rng.choice([2, 3, 4])
            gens = []
            while len(gens) < rng.randint(1, n + 1):
                v = tuple(rng.randint(-4, 4) for _ in range(n))
                if any(v):
                    gens.append(v)
            cone = cone2 = Cone(n, gens)
            assert cone.dual().dual().equals(cone)
            if mat_rank([list(g) for g in gens]) == len(gens):
                # simplicial: the face lattice is the boolean lattice
                assert len(cone2.face_ray_sets()) == 2 ** cone2.dim()

        for _ in range(150):
            n = rng.choice([2, 3])
            ineqs = [
                (tuple(rng.randint(-3, 3) for _ in range(n)),
                 rng.randint(-2, 2))
                for _ in range(rng.randint(1, 3))
            ]
            eqs = []
            if rng.random() < 0.4:
                eqs = [(tuple(rng.randint(-2, 2) for _ in range(n)),
                        rng.randint(-1, 1))]
            box = [(-3, 3)] * n
            pts = set(lattice_points(n, ineqs, eqs, box=box))
            brute = {
                x
                for x in itertools.product(range(-3, 4), repeat=n)
                if all(dot(u, x) >= b for u, b in ineqs)
                and all(dot(u, x) == b for u, b in eqs)
            }
            assert pts == brute

    _criterion(7, "cone duality x1000", 60.0, body)


# -- criterion 8: divisor pipeline ----------------------------------------------


def _ray1():
    return Cone(1, [(1,)])


def _quadrant():
    return Cone(2, [(1, 0), (0, 1)])


def test_criterion_8():
    def body():
        # normalization: a lattice translate collapses to the trivial divisor
        div = PolyhedralDivisor("A1", _quadrant(), {0: [(1, 2)]})
        out = degree_zero_normalize(ColoredDivisor(div, 0, {0: (1, 2)}))
        assert out.support() == ()

        # normalization: mass shifts off the marked zero point
        div = PolyhedralDivisor("P1", _ray1(), {0: [(1,)], INF: [(1,)]})
        out = degree_zero_normalize(
            ColoredDivisor(div, 0, {0: (1,)}, zinf=INF)
        )
        assert out.support() == (INF,)
        assert out.coefficient(INF).vertices == ((2,),)

        # normalization: already-normalized input is a fixed point
        div = PolyhedralDivisor("P1", _ray1(), {INF: [(1,)]})
        out = degree_zero_normalize(
            ColoredDivisor(div, 0, {0: (0,)}, zinf=INF)
        )
        assert out.equals(div)

        # slice identity: graded piece dimensions match the realized cone
        rng = random.Random(1618)
        slices = [
            (PolyhedralDivisor("P1", _ray1(), {INF: [(1,)]}), 8),
            (PolyhedralDivisor("P1", _quadrant(), {INF: [(1, 1)]}), 5),
            (PolyhedralDivisor(
                "P1", _ray1(), {INF: [(Fraction(3, 2),)]}), 8),
        ]
        for div, top in slices:
            cone, _e = toric_realization(div)
            n = div.rank
            ineqs = [(g, 0) for g in cone.gens]
            for _ in range(20):
                m = tuple(rng.randint(0, top) for _ in range(n))
                eqs = [
                    (tuple(1 if j == i else 0 for j in range(n + 1)), m[i])
                    for i in range(n)
                ]
                pts = lattice_points(n + 1, ineqs, eqs)
                assert div.weight_dim(m) == len(pts)

        # a horizontal derivation obeys the same laws as a toric one
        div = PolyhedralDivisor("A1", _ray1(), {0: [(Fraction(1, 2),)]})
        colored = ColoredDivisor(div, 0, {0: (Fraction(1, 2),)})
        normalized, lnd = horizontal_lnd(colored, (1,))
        assert normalized.equals(div)
        assert lnd.ray_normal == (1, 2) and lnd.e == ((1,), -1)
        carrier = lnd.carrier

        def sample_key(r):
            while True:
                m = r.randint(0, 6)
                key = ((m,), r.randint(-3, 4))
                if carrier.admits(key):
                    return key

        for _ in range(60):
            x = _random_element(carrier, sample_key, rng)
            y = _random_element(carrier, sample_key, rng)
            assert derive(lnd, x * y) == (
                derive(lnd, x) * y + x * derive(lnd, y)
            )
            key = sample_key(rng)
            q = lnd.multiplier(key)
            assert nilpotency_index(lnd, monomial(carrier, key)) == q + 1

        # the compatibility check reports the exact failing condition
        for fixture, want in [
            (fixture_violation_i, "i"),
            (fixture_violation_ii, "ii"),
            (fixture_violation_iii, "iii"),
            (fixture_violation_iv, "iv"),
        ]:
            colored, e = fixture()
            res = coherent_check(colored, e)
            assert isinstance(res, CoherenceViolation)
            assert res.condition == want

    _criterion(8, "divisor pipeline", 10.0, body)


# -- criterion 9: symmetry group -------------------------------------------------


def test_criterion_9():
    def body():
        fan = p2()
        autos = fan_automorphisms(fan)
        assert len(autos) == 6

        mats = {a.matrix for a in autos}
        for a in autos:
            for b in autos:
                prod = tuple(
                    tuple(int(x) for x in row)
                    for row in mat_mul(
                        [list(r) for r in a.matrix],
                        [list(r) for r in b.matrix],
                    )
                )
                assert prod in mats

        found = roots_of_fan(fan)
        roots = sorted(found)
        orbit = {root_image(a, roots[0]) for a in autos}
        assert orbit == set(roots)

        assert len(fan_automorphisms(a2())) == 2

    _criterion(9, "symmetry group", 5.0, body)
