"""Tests for the exact cone/lattice layer.

The duality oracle used below is deliberately dumb: a cone membership test
by brute box scan.  Frozen expected generator sets were produced by that
oracle and then checked by hand.
"""

from __future__ import annotations

import collections
import itertools
import math
import random
from fractions import Fraction
from math import gcd
from operator import mul

import pytest

from demazure import lattice
from demazure.errors import (
    InvalidInteger,
    NotStronglyConvex,
    RankMismatch,
    SchemaError,
    UnboundedRegion,
    ZeroVector,
)
from demazure.lattice import (
    Cone,
    Region,
    as_int,
    det,
    dot,
    dual_description,
    integer_feasible,
    invariant_factors,
    lattice_points,
    mat_inverse,
    mat_mul,
    mat_rank,
    nullspace,
    pivot_columns,
    primitive,
    smith_normal_form,
    transpose,
    vneg,
)

from test_fan import random_unimodular


# ---------------------------------------------------------------------------
# oracle helpers


def facet_ray_sets(cone):
    """The faces of codimension one, as index sets into cone.rays()."""
    d = cone.dim()
    return [fs for fs, fd in cone.face_table().items() if fd == d - 1]


def unimodular_with_last_column(c):
    """A unimodular integer matrix whose last column is the primitive c
    (formerly in the library, where integer_feasible changed coordinates
    with it)."""
    n = len(c)
    S, D, T = smith_normal_form([list(c)])
    if D[0][0] != 1:
        raise ValueError("unimodular_with_last_column needs a primitive vector")
    rows = [list(r) for r in T]
    if S[0][0] == -1:
        rows[0] = [-x for x in rows[0]]
    # now row 0 of `rows` equals c and the matrix is unimodular
    M = transpose(rows)  # first column == c
    for row in M:
        row[0], row[n - 1] = row[n - 1], row[0]
    return [tuple(r) for r in M]


def brute_dual_points(gens, rank, radius=5):
    """All integer u with max|u_i| <= radius and <g,u> >= 0 for all g."""
    out = []
    for u in itertools.product(range(-radius, radius + 1), repeat=rank):
        if all(dot(g, u) >= 0 for g in gens):
            out.append(u)
    return set(out)


def cone_points(cone, radius=5):
    return {
        p
        for p in itertools.product(range(-radius, radius + 1), repeat=cone.rank)
        if cone.contains(p)
    }


# ---------------------------------------------------------------------------
# primitive / small linear algebra


def test_primitive_examples():
    assert primitive((2, 4)) == (1, 2)
    assert primitive((0, -6, 9)) == (0, -2, 3)
    assert primitive((Fraction(-3, 2), Fraction(9, 4))) == (-2, 3)
    assert primitive((Fraction(1, 3),)) == (1,)


def test_primitive_zero_raises():
    with pytest.raises(ZeroVector):
        primitive((0, 0, 0))


def test_values_that_are_not_numbers_raise_invalid_integer():
    # Fraction() raised a bare TypeError or ValueError for these
    for x in (None, "a", [1], float("nan"), float("inf")):
        with pytest.raises(InvalidInteger, match="non-numeric entry"):
            as_int(x)
        with pytest.raises(InvalidInteger, match="non-numeric entry"):
            primitive((1, x))
    assert as_int("-3") == as_int(Fraction(-3)) == as_int(-3.0) == -3
    with pytest.raises(InvalidInteger, match="non-integral component"):
        as_int("1/2")


def test_box_bounds_and_generators_that_are_not_numbers_raise():
    # Fraction() raised a bare ValueError or TypeError for these
    for x in ("a", None):
        with pytest.raises(InvalidInteger, match="non-numeric entry"):
            lattice_points(1, [((1,), 0)], box=[(x, 1)])
        with pytest.raises(InvalidInteger, match="non-numeric entry"):
            lattice_points(1, [((1,), 0)], box=[(0, x)])
        with pytest.raises(InvalidInteger, match="non-numeric entry"):
            Cone(2, [(x, 1)])
        with pytest.raises(InvalidInteger, match="non-numeric entry"):
            Cone(2, [(1, 0)]).contains((x, 1))


def test_a_constraint_that_is_no_pair_is_named():
    # unpacking the row ((1, 0),) into (u, b) raised a bare ValueError
    message = r"constraint: expected a \(normal, bound\) pair, got "
    for rows in ([((1, 0),)], [5], [(5, 0)], [((1, 0), 0, 1)]):
        with pytest.raises(SchemaError, match=message):
            lattice_points(2, rows)
        with pytest.raises(SchemaError, match=message):
            integer_feasible(2, rows)
        with pytest.raises(SchemaError, match=message):
            integer_feasible(2, equalities=rows)
    with pytest.raises(SchemaError, match="inequalities: expected a sequence"):
        lattice_points(2, None)


def test_cone_generators_that_are_not_sequences_are_named():
    # tuple(5) and iter(None) raised bare TypeErrors
    with pytest.raises(SchemaError) as info:
        Cone(2, [5])
    assert str(info.value) == "generator: expected a sequence, got 5"
    with pytest.raises(SchemaError) as info:
        Cone(2, None)
    assert str(info.value) == "generators: expected a sequence, got None"
    with pytest.raises(SchemaError, match="point: expected a sequence"):
        Cone(2, [(1, 0)]).contains(5)


def test_a_string_is_no_generator():
    # "12" was read as the sequence of its characters, the generator (1, 2)
    with pytest.raises(SchemaError) as info:
        Cone(2, ["12"])
    assert str(info.value) == "generator: expected a sequence, got '12'"
    with pytest.raises(SchemaError, match="got b'12'"):
        Cone(2, [b"12"])
    # a string entry is still read as a number
    assert Cone(2, [("1", "2")]).gens == ((1, 2),)


def test_smith_normal_form_reads_its_entries_with_as_int():
    # int() truncated 3/2 to 1, giving D = [[1, 0]]
    with pytest.raises(InvalidInteger, match="non-integral component"):
        smith_normal_form([[Fraction(3, 2), 2]])
    with pytest.raises(InvalidInteger, match="non-numeric entry"):
        smith_normal_form([["a", 2]])
    assert smith_normal_form([[Fraction(4, 2), 2.0]])[1] == [[2, 0]]


@pytest.mark.parametrize("read, shown", [
    (lambda: dual_description(None, 2),
     "generators: expected a sequence, got None"),
    (lambda: dual_description([None], 2),
     "vector: expected a sequence, got None"),
    (lambda: smith_normal_form(None), "matrix: expected a sequence, got None"),
    (lambda: smith_normal_form([None]),
     "matrix row: expected a sequence, got None"),
    (lambda: smith_normal_form({"a": 1}),
     "matrix: expected a sequence, got {'a': 1}"),
    (lambda: invariant_factors(None), "matrix: expected a sequence, got None"),
    (lambda: primitive(None), "vector: expected a sequence, got None"),
    (lambda: det(None), "matrix: expected a sequence, got None"),
    (lambda: nullspace(None, 2), "matrix: expected a sequence, got None"),
    (lambda: mat_rank(None), "matrix: expected a sequence, got None"),
], ids=["dual_description", "dual_description-row", "smith_normal_form",
        "smith_normal_form-row", "smith_normal_form-dict",
        "invariant_factors", "primitive", "det", "nullspace", "mat_rank"])
def test_matrix_readers_name_what_is_not_a_sequence(read, shown):
    # each raised a bare TypeError, and the dict a bare KeyError: 0
    with pytest.raises(SchemaError) as info:
        read()
    assert str(info.value) == shown


def test_rank_and_nullspace():
    assert mat_rank([(1, 0), (0, 1)]) == 2
    assert mat_rank([(1, 2), (2, 4)]) == 1
    ns = nullspace([(1, 2, 3)], 3)
    assert len(ns) == 2
    for v in ns:
        assert dot((1, 2, 3), v) == 0
    assert nullspace([], 2) == [(1, 0), (0, 1)]


def test_pivot_columns_are_the_first_independent_columns():
    # the greedy basis of the column matroid is its lexicographically first
    # basis: the first n-subset of columns with a nonzero determinant
    rng = random.Random(4711)
    spanning = 0
    for _ in range(300):
        n, l = rng.randint(1, 4), rng.randint(1, 7)
        rows = transpose(random_matrix(rng, l, n, rational=False))
        greedy = []
        for c in range(l):
            if mat_rank([[r[i] for i in greedy + [c]] for r in rows]) > len(
                    greedy):
                greedy.append(c)
        assert pivot_columns(rows) == greedy
        assert mat_rank(rows) == len(greedy)
        if len(greedy) == n:
            spanning += 1
            assert tuple(greedy) == next(
                idxs for idxs in itertools.combinations(range(l), n)
                if det([[r[i] for i in idxs] for r in rows]))
    assert spanning > 100


def test_det_and_inverse():
    assert det([(1, 2), (3, 4)]) == -2
    assert det([(1, 2), (2, 4)]) == 0
    inv = mat_inverse([(1, 2), (3, 4)])
    assert mat_mul([(1, 2), (3, 4)], inv) == [[1, 0], [0, 1]]


def minor_gcd(A, k):
    """gcd of all k x k minors -- the classical invariant-factor oracle."""
    n = len(A)
    g = 0
    for rows in itertools.combinations(range(n), k):
        for cols in itertools.combinations(range(len(A[0])), k):
            m = det([[A[i][j] for j in cols] for i in rows])
            g = gcd(g, m)
    return g


def test_smith_normal_form_known():
    A = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    S, D, T = smith_normal_form(A)
    diag = [D[i][i] for i in range(3)]
    # invariant factors from the minor-gcd formula: d1...dk = gcd(k-minors)
    assert diag[0] == minor_gcd(A, 1) == 2
    assert diag[0] * diag[1] == minor_gcd(A, 2) == 4
    assert diag[0] * diag[1] * diag[2] == abs(det(A)) == 624
    assert diag == [2, 2, 156]
    assert mat_mul(mat_mul(S, D), T) == A
    assert abs(det(S)) == 1 and abs(det(T)) == 1


def test_smith_normal_form_random():
    rng = random.Random(20240811)
    for _ in range(120):
        k = rng.randint(1, 4)
        n = rng.randint(1, 5)
        A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(k)]
        S, D, T = smith_normal_form(A)
        assert mat_mul(mat_mul(S, D), T) == A
        assert abs(det(S)) == 1
        assert abs(det(T)) == 1
        diag = [D[i][i] for i in range(min(k, n))]
        # off-diagonal zero
        for i in range(k):
            for j in range(n):
                if i != j:
                    assert D[i][j] == 0
        # nonnegative divisibility chain
        for a, b in zip(diag, diag[1:]):
            assert a >= 0 and b >= 0
            if a:
                assert b % a == 0
            else:
                assert b == 0


def test_unimodular_with_last_column():
    rng = random.Random(7)
    for _ in range(80):
        n = rng.randint(1, 5)
        while True:
            v = tuple(rng.randint(-6, 6) for _ in range(n))
            if any(v):
                break
        c = primitive(v)
        M = unimodular_with_last_column(c)
        assert abs(det(M)) == 1
        assert tuple(row[-1] for row in M) == c


# ---------------------------------------------------------------------------
# duality


def test_dual_of_quadrant_is_quadrant():
    c = Cone(2, [(1, 0), (0, 1)])
    assert c.dual().gens == ((0, 1), (1, 0))


def test_dual_frozen_example():
    # dual of cone((1,0),(1,2)) is cone((0,1),(2,-1)); verified by box scan
    c = Cone(2, [(1, 0), (1, 2)])
    E, L = c.dual_pair()
    assert L == []
    assert set(E) == {(0, 1), (2, -1)}
    oracle = brute_dual_points(c.gens, 2)
    assert cone_points(c.dual()) == oracle


def test_dual_of_origin_is_everything():
    c = Cone(2, [])
    d = c.dual()
    for p in [(3, -5), (0, 0), (-2, -2)]:
        assert d.contains(p)
    assert not c.is_strongly_convex() or c.gens == ()
    assert c.rays() == ()  # {0} is strongly convex with no rays


def test_halfspace_dual_has_lineality():
    # dual of a single ray is a halfspace
    c = Cone(2, [(1, 1)])
    E, L = c.dual_pair()
    assert len(L) == 1
    assert dot(L[0], (1, 1)) == 0
    assert cone_points(c.dual()) == brute_dual_points(c.gens, 2)


def test_non_pointed_cone_detected():
    c = Cone(2, [(1, 0), (-1, 0), (0, 1)])
    assert not c.is_strongly_convex()
    with pytest.raises(NotStronglyConvex):
        c.rays()


def test_rays_drop_redundant_generators():
    c = Cone(2, [(1, 0), (1, 1), (0, 1)])
    assert c.rays() == ((0, 1), (1, 0))
    c3 = Cone(3, [(1, 0, 0), (0, 1, 0), (1, 1, 1), (0, 0, 1)])
    assert c3.rays() == ((0, 0, 1), (0, 1, 0), (1, 0, 0))


def test_containment_and_equality():
    a = Cone(2, [(1, 0), (0, 1)])
    b = Cone(2, [(1, 0), (1, 1), (0, 1)])
    assert a.equals(b)
    assert a.contains((Fraction(1, 2), Fraction(3, 2)))
    assert not a.contains((-1, 0))


def random_cone(rng, rank, ngens=None, lo=-5, hi=5):
    ngens = ngens or rng.randint(1, rank + 2)
    gens = []
    while len(gens) < ngens:
        v = tuple(rng.randint(lo, hi) for _ in range(rank))
        if any(v):
            gens.append(v)
    return Cone(rank, gens)


def test_duality_involution_random():
    # dual(dual(C)) == C on a seeded random sample, all ranks 2..4
    rng = random.Random(99173)
    for _ in range(400):
        rank = rng.randint(2, 4)
        c = random_cone(rng, rank)
        dd = c.dual().dual()
        assert dd.equals(c)


def test_duality_pointwise_random():
    # membership in dual() agrees with the brute-force oracle
    rng = random.Random(55)
    for _ in range(60):
        rank = rng.randint(2, 3)
        c = random_cone(rng, rank)
        assert cone_points(c.dual(), radius=4) == brute_dual_points(
            c.gens, rank, radius=4
        )


def test_dual_bilinearity_random():
    # every dual generator pairs >= 0 with every primal generator
    rng = random.Random(4242)
    for _ in range(200):
        rank = rng.randint(2, 4)
        c = random_cone(rng, rank)
        E, L = c.dual_pair()
        for u in E:
            assert all(dot(u, g) >= 0 for g in c.gens)
        for u in L:
            assert all(dot(u, g) == 0 for g in c.gens)


# ---------------------------------------------------------------------------
# faces


def test_faces_of_quadrant():
    c = Cone(2, [(1, 0), (0, 1)])
    sets = c.face_ray_sets()
    assert sets == {
        frozenset(),
        frozenset({0}),
        frozenset({1}),
        frozenset({0, 1}),
    }
    table = c.face_table()
    assert table[frozenset()] == 0
    assert table[frozenset({0, 1})] == 2


def test_faces_of_singular_cone():
    c = Cone(2, [(1, 0), (1, 2)])
    assert len(c.face_ray_sets()) == 4
    assert sorted(len(fs) for fs in c.face_ray_sets()) == [0, 1, 1, 2]
    assert invariant_factors(c.rays()) == [1, 2]


def test_simplicial_face_count_random():
    # a simplicial d-cone has exactly 2^d faces
    rng = random.Random(1312)
    found = 0
    while found < 50:
        rank = rng.randint(2, 4)
        c = random_cone(rng, rank, ngens=rank)
        if c.dim() != rank or not c.is_strongly_convex():
            continue
        if len(c.rays()) != rank:
            continue
        found += 1
        assert len(c.face_ray_sets()) == 2 ** rank
        assert len(facet_ray_sets(c)) == rank


def test_faces_of_origin():
    c = Cone(3, [])
    assert c.face_ray_sets() == {frozenset()}


def test_face_rays_are_subsets_of_cone_rays():
    c = Cone(3, [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)])
    # square-based cone: 4 rays, 4 facets, 4 edges, apex, total 10 faces
    assert len(c.rays()) == 4
    table = c.face_table()
    by_dim = {}
    for fs, d in table.items():
        by_dim[d] = by_dim.get(d, 0) + 1
    assert by_dim == {0: 1, 1: 4, 2: 4, 3: 1}


# ---------------------------------------------------------------------------
# lattice points


def test_lattice_points_triangle():
    pts = lattice_points(
        2,
        inequalities=[((1, 0), 0), ((0, 1), 0), ((-1, -1), -1)],
    )
    assert pts == [(0, 0), (0, 1), (1, 0)]


def test_lattice_points_empty_system_with_box():
    assert lattice_points(1, box=[(0, 1)]) == [(0,), (1,)]


def test_lattice_points_unbounded_raises():
    with pytest.raises(UnboundedRegion):
        lattice_points(2, inequalities=[((1, 0), 0), ((0, 1), 0)])


def test_lattice_points_empty_region():
    pts = lattice_points(
        2,
        inequalities=[((1, 0), 1), ((-1, 0), 0)],
        equalities=[((0, 1), 0)],
    )
    assert pts == []


def test_lattice_points_equalities():
    pts = lattice_points(
        2,
        inequalities=[((1, 0), 0), ((-1, 0), -3)],
        equalities=[((1, 1), 2)],
    )
    assert pts == [(0, 2), (1, 1), (2, 0), (3, -1)]


def test_region_box_is_the_integer_range_of_the_vertices():
    # 1/2 <= x <= 5/2
    assert Region(1, [((2,), 1), ((-2,), -5)]).shape() == (None, [(1, 2)])
    # the vertex x = 1/2 alone: an empty range, so nothing to scan
    assert Region(1, [((2,), 1), ((-2,), -1)]).shape() == (None, [(1, 0)])
    assert lattice_points(1, [((2,), 1), ((-2,), -1)]) == []
    assert not integer_feasible(1, [((2,), 1), ((-2,), -1)])
    # the triangle x, y >= 0, 2x + 2y <= 3
    triangle = [((1, 0), 0), ((0, 1), 0), ((-2, -2), -3)]
    assert Region(2, triangle).shape() == (None, [(0, 1), (0, 1)])
    assert Region(1, [((1,), 1), ((-1,), 0)]).shape() == (None, None)  # empty


def test_region_shape_reads_the_recession_cone_off_the_homogenization():
    # a lineality direction: the strip 0 <= x <= 1 in the plane
    direction, box = Region(2, [((1, 0), 0), ((-1, 0), -1)]).shape()
    assert direction in {(0, 1), (0, -1)} and box is not None
    # an extremal ray: the quadrant shifted to (1, 2)
    direction, box = Region(2, [((1, 0), 1), ((0, 1), 2)]).shape()
    assert direction in {(1, 0), (0, 1)} and box == [(1, 1), (2, 2)]
    # empty but unbounded: x >= 1 and x <= 0 along a free y
    assert Region(2, [((1, 0), 1), ((-1, 0), 0)]).shape() == ((0, 1), None)
    # empty and bounded, and a contradiction 0 >= 1
    assert Region(1, [((1,), 1), ((-1,), 0)]).shape() == (None, None)
    assert Region(1, [((0,), 1), ((1,), 0)]).shape() == ((1,), None)
    assert Region(1, [((0,), 1), ((1,), 0), ((-1,), 0)]).shape() == (
        None, None)
    # no rows: all of Q^n, and the point of Q^0
    direction, box = Region(2, []).shape()
    assert direction == (1, 0) and box is not None
    assert Region(0, []).shape() == (None, [])


def test_lattice_points_box_agrees_with_brute_force():
    rng = random.Random(2718)
    for _ in range(40):
        n = rng.randint(1, 3)
        ineqs = [
            (tuple(rng.randint(-3, 3) for _ in range(n)), rng.randint(-4, 2))
            for _ in range(rng.randint(1, 4))
        ]
        box = [(-4, 4)] * n
        got = lattice_points(n, ineqs, box=box)
        brute = [
            p
            for p in itertools.product(range(-4, 5), repeat=n)
            if all(dot(u, p) >= b for u, b in ineqs)
        ]
        assert got == sorted(brute)


def test_lattice_points_auto_box_agrees_with_brute_force():
    # bounded random systems: derived box must not miss any point
    rng = random.Random(31415)
    produced = 0
    while produced < 30:
        n = rng.randint(1, 3)
        ineqs = [
            (tuple(rng.randint(-3, 3) for _ in range(n)), rng.randint(-6, 1))
            for _ in range(rng.randint(n + 1, 5))
        ]
        try:
            got = lattice_points(n, ineqs)
        except UnboundedRegion:
            continue
        produced += 1
        brute = [
            p
            for p in itertools.product(range(-30, 31), repeat=n)
            if all(dot(u, p) >= b for u, b in ineqs)
        ]
        assert got == sorted(brute)


# ---------------------------------------------------------------------------
# integer feasibility


def test_integer_feasible_simple():
    assert integer_feasible(2, [((1, 0), 1), ((0, 1), 1)])
    assert not integer_feasible(1, [((1,), 1), ((-1,), 0)])


def test_integer_feasible_unbounded_direction():
    # {x >= 0, y == 5}: unbounded but clearly has lattice points
    assert integer_feasible(
        2, inequalities=[((1, 0), 0)], equalities=[((0, 1), 5)]
    )


def test_integer_feasible_rational_but_not_integral():
    # 2x == 1 has a rational solution, no integer one
    assert not integer_feasible(1, equalities=[((2,), 1)])
    # same phenomenon in an unbounded strip: 2x == 1, y >= 0
    assert not integer_feasible(
        2, inequalities=[((0, 1), 0)], equalities=[((2, 0), 1)]
    )


def test_integer_feasible_lattice_free_strip():
    # 1/3 <= x <= 2/3 i.e. 3x >= 1 and -3x >= -2, y free: rational points
    # exist for every y but no integer x ever does.
    assert not integer_feasible(2, [((3, 0), 1), ((-3, 0), -2)])


def test_integer_feasible_agrees_with_scan_on_bounded():
    rng = random.Random(8675309)
    for _ in range(60):
        n = rng.randint(1, 3)
        ineqs = [
            (tuple(rng.randint(-3, 3) for _ in range(n)), rng.randint(-4, 3))
            for _ in range(rng.randint(1, 4))
        ]
        box = [(-5, 5)] * n
        # restrict to the box so the brute scan is exhaustive
        bounded_ineqs = list(ineqs)
        for i in range(n):
            lo = tuple(1 if j == i else 0 for j in range(n))
            bounded_ineqs.append((lo, -5))
            bounded_ineqs.append((vneg(lo), -5))
        brute = any(
            all(dot(u, p) >= b for u, b in ineqs)
            for p in itertools.product(range(-5, 6), repeat=n)
        )
        assert integer_feasible(n, bounded_ineqs) == brute


def test_rational_constraints_are_exact():
    # each row is scaled by the lcm of its denominators, never truncated
    half = Fraction(1, 2)
    assert lattice_points(1, [((half,), 0), ((-1,), -3)]) == [
        (0,), (1,), (2,), (3,)]
    assert lattice_points(1, [((Fraction(3, 2),), half), ((-1,), -3)]) == [
        (1,), (2,), (3,)]
    assert not integer_feasible(1, equalities=[((2,), half)])


def test_zero_rows_handled():
    assert lattice_points(1, [((0,), 0)], box=[(0, 2)]) == [(0,), (1,), (2,)]
    assert lattice_points(1, [((0,), 1)], box=[(0, 2)]) == []
    assert not integer_feasible(2, [((0, 0), 3)])


# ---------------------------------------------------------------------------
# project-and-lift against the box scan and the feasibility test it replaced


def scan(box, rows):
    """The points of the box satisfying every row, in lexicographic order."""
    for p in itertools.product(*[range(lo, hi + 1) for lo, hi in box]):
        if all(dot(u, p) >= b for u, b in rows):
            yield p


def scan_points(rank, inequalities=(), equalities=(), box=None):
    """The former lattice_points: the rows scanned over the explicit box,
    or over the box of a bounded region read off its homogenization.  A
    region empty over Q gives no points, bounded or not."""
    region = Region(rank, inequalities, equalities)
    rows = region.rows
    if box is None:
        direction, box = region.shape()
        if box is None:
            return []
        if direction is not None:
            raise UnboundedRegion("unbounded")
    else:
        box = [(math.ceil(Fraction(lo)), math.floor(Fraction(hi)))
               for lo, hi in box]
    return list(scan(box, rows))


def scan_feasible(rank, inequalities=(), equalities=()):
    """The former integer_feasible: a bounded region scans its box, an
    unbounded one drops a recession direction and recurses."""
    region = Region(rank, inequalities, equalities)
    rows = region.rows
    if not rows:
        return True
    c, box = region.shape()
    if box is None:
        return False
    if c is None:
        return next(scan(box, rows), None) is not None
    cols = list(zip(*unimodular_with_last_column(c)))
    new_rows = []
    for u, b in rows:
        um = tuple(dot(u, col) for col in cols)
        if not um[-1]:
            new_rows.append((um[:-1], b))
    return scan_feasible(rank - 1, new_rows)


def box_rows(box):
    n = len(box)
    rows = []
    for k, (lo, hi) in enumerate(box):
        e = tuple(int(j == k) for j in range(n))
        rows += [(e, lo), (vneg(e), -hi)]
    return rows


def random_system(rng, rank):
    """Rows, equalities and a kind: plain, empty over Q, or lattice-free (a
    strip 1 <= k <u, x> <= k - 1 holding rational points only)."""
    ineqs = [(tuple(rng.randint(-3, 3) for _ in range(rank)),
              rng.randint(-4, 2)) for _ in range(rng.randint(0, rank + 2))]
    eqs = []
    if rank and rng.random() < 0.3:
        eqs.append((tuple(rng.randint(-2, 2) for _ in range(rank)),
                    rng.randint(-2, 2)))
    if ineqs and rng.random() < 0.3:
        u, b = ineqs[0]
        d = rng.randint(2, 3)
        ineqs[0] = (tuple(Fraction(x, d) for x in u), Fraction(b, d))
    kind = rng.choice(["plain", "plain", "empty", "lattice-free"])
    u = tuple(rng.randint(-2, 2) for _ in range(rank))
    if not any(u):
        kind = "plain"
    elif kind == "empty":
        ineqs += [(u, 1), (vneg(u), 0)]
    elif kind == "lattice-free":
        k = rng.randint(2, 3)
        u = primitive(u)
        ineqs += [(tuple(k * x for x in u), 1),
                  (tuple(-k * x for x in u), 1 - k)]
    return ineqs, eqs, kind


def test_lattice_points_match_the_box_scan_random():
    rng = random.Random(1212)
    kinds = collections.Counter()
    for _ in range(400):
        rank = rng.randint(0, 6)
        ineqs, eqs, kind = random_system(rng, rank)
        # an explicit box, with rational bounds
        width = 1 if rank > 4 else 3
        box = [(Fraction(rng.randint(-2 * width, 0), rng.randint(1, 2)),
                Fraction(rng.randint(0, 2 * width), rng.randint(1, 2)))
               for _ in range(rank)]
        got = lattice_points(rank, ineqs, eqs, box=box)
        assert got == scan_points(rank, ineqs, eqs, box=box), (ineqs, eqs)
        bounded = ineqs + box_rows(box)
        assert integer_feasible(rank, bounded, eqs) == bool(got)
        kinds[kind, bool(got)] += 1
        if rank > 3:
            continue
        # the region's own box, bounded or not
        assert integer_feasible(rank, ineqs, eqs) == scan_feasible(
            rank, ineqs, eqs)
        assert lattice_points(rank, bounded, eqs) == got
        try:
            expected = scan_points(rank, ineqs, eqs)
        except UnboundedRegion:
            # infinitely many points, or none, which the scan cannot tell
            if scan_feasible(rank, ineqs, eqs):
                kinds["unbounded"] += 1
                with pytest.raises(UnboundedRegion):
                    lattice_points(rank, ineqs, eqs)
                continue
            kinds["unbounded and lattice-free"] += 1
            expected = []
        assert lattice_points(rank, ineqs, eqs) == expected
    assert kinds[("empty", False)] > 50
    assert kinds[("lattice-free", False)] > 50
    assert kinds[("plain", True)] > 100 and kinds["unbounded"] > 30
    assert kinds["unbounded and lattice-free"] > 5


def former_integer_feasible(rank, inequalities=(), equalities=()):
    """The former integer_feasible: an unbounded region changes
    coordinates by unimodular_with_last_column(c) and recurses."""
    region = Region(rank, inequalities, equalities)
    rows = region.rows
    if not rows:
        return True
    points = region.points()
    if points is not None:
        return next(points, None) is not None
    c, box = region.shape()
    if box is None:
        return False
    cols = list(zip(*unimodular_with_last_column(c)))
    new_rows = []
    for u, b in rows:
        um = tuple(dot(u, col) for col in cols)
        if um[-1] == 0:
            new_rows.append((um[:-1], b))
    return former_integer_feasible(rank - 1, new_rows)


def hidden_lattice_free_triangle(rng):
    """Rows of a triangle in Q^2 with no lattice point that the elimination
    alone does not rule out: its lift finds none."""
    while True:
        u, v = (tuple(rng.randint(-4, 4) for _ in range(2)) for _ in "uv")
        a, b = rng.randint(1, 2), rng.randint(1, 2)
        # -(a u + b v) closes the triangle when u and v are independent
        w = tuple(-a * x - b * y for x, y in zip(u, v))
        rows = [(n, rng.randint(-6, 6)) for n in (u, v, w)]
        levels = Region(2, rows).levels
        if (levels and all(lower and upper for lower, upper in levels)
                and next(lattice._lift(levels), None) is None):
            return rows


def test_integer_feasible_matches_the_former_recursion_on_unbounded_systems():
    # ranks 1-6: a random system or a hidden lattice-free triangle in at
    # most as many coordinates, padded with zeros and moved by a GL_n(Z)
    # change, so that most have a lineality space; only the systems the
    # elimination leaves unbounded reach the recursion, and only they are
    # kept (the random lattice-free strips never do: rounding rules them
    # out first)
    rng = random.Random(4747)
    kinds = collections.Counter()
    while sum(kinds.values()) < 300:
        rank = rng.randint(1, 6)
        if rank > 2 and rng.random() < 0.3:
            kind, ineqs, eqs = "triangle", hidden_lattice_free_triangle(rng), []
        else:
            ineqs, eqs, kind = random_system(rng, rng.randint(1, rank))
        U = random_unimodular(rng, rank) if rank > 1 else [[1]]
        ineqs, eqs = ([(mat_mul([list(u) + [0] * (rank - len(u))], U)[0], b)
                       for u, b in rows] for rows in (ineqs, eqs))
        if lattice.Region(rank, ineqs, eqs).points() is not None:
            continue  # trivially empty, or decided by the elimination
        verdict = integer_feasible(rank, ineqs, eqs)
        assert verdict == former_integer_feasible(rank, ineqs, eqs), (
            rank, ineqs, eqs)
        kinds[kind, verdict] += 1
    assert kinds["triangle", False] > 20
    assert kinds["plain", True] > 100


def tight_pattern_oracle(rank, rows, avoid):
    """Does the region of the integer `rows` hold a lattice point at which
    no row of `avoid` is tight?  One integer program per set P of the other
    rows: the rows of P held tight, every other row strict."""
    free = [k for k in range(len(rows)) if k not in avoid]
    for bits in range(2 ** len(free)):
        tight = {k for j, k in enumerate(free) if bits >> j & 1}
        if integer_feasible(
                rank, [(u, b + 1) for k, (u, b) in enumerate(rows)
                       if k not in tight],
                [rows[k] for k in tight]):
            return True
    return False


def test_feasible_with_a_test_matches_the_tight_pattern_programs():
    # "no tight row in S" passes every point whose tight rows lie among
    # those of a point it passes, as Region.feasible requires; systems as
    # in the test above, in at most as many coordinates and moved by a
    # GL_n(Z) change, so that most are unbounded, and half of those in
    # rank 1 and 2 cut down to a box
    rng = random.Random(2121)
    kinds = collections.Counter()
    while sum(kinds.values()) < 240:
        rank = rng.randint(1, 4)
        ineqs, eqs, _ = random_system(rng, rng.randint(1, rank))
        U = random_unimodular(rng, rank) if rank > 1 else [[1]]
        ineqs, eqs = ([(mat_mul([list(u) + [0] * (rank - len(u))], U)[0], b)
                       for u, b in rows] for rows in (ineqs, eqs))
        if rank < 3 and rng.random() < 0.5:
            ineqs += box_rows([(-rng.randint(0, 2), rng.randint(0, 2))
                               for _ in range(rank)])
        region = Region(rank, ineqs, eqs)
        rows = region.rows
        if not rows or len(rows) > 8 or not region.feasible():
            continue
        avoid = set(rng.sample(range(len(rows)), rng.randint(1, 2)
                               if len(rows) > 1 else 1))

        def test(x):
            return all(dot(rows[k][0], x) != rows[k][1] for k in avoid)

        verdict = region.feasible(test)
        assert verdict == tight_pattern_oracle(rank, rows, avoid), (
            rank, rows, avoid)
        kinds[region.points() is None, verdict] += 1
    assert min(kinds[k] for k in itertools.product((True, False),
                                                   repeat=2)) > 20, kinds


def test_feasible_tests_one_point_of_a_region_without_rows():
    # Z^n, or the region left when every row goes slack along the
    # recession cone: no row is tight, so one point decides, and a test
    # that passes no point finds none
    for rank, rows in ((0, []), (2, []), (2, [((1, 0), 3)]),
                       (3, [((1, 1, 0), 1), ((0, 1, 0), -2)])):
        region = Region(rank, rows)
        tested = []
        assert region.feasible()
        assert not region.feasible(lambda x: tested.append(x))
        assert len(tested) == 1
        assert all(dot(u, tested[0]) > b for u, b in rows), tested
        assert region.feasible(lambda x: all(dot(u, x) > b for u, b in rows))


def test_regions_past_the_row_ceiling_match_the_box_scan(monkeypatch):
    # the root regions of seeded rank-6 cones with 12 generators: past the
    # ceiling the lower levels lift over the box and check the input rows;
    # without a box, only a region cut at the ceiling is dualized, to tell
    # that it is unbounded, and one eliminated down to x_0 is not
    rng = random.Random(12)
    box = [(-1, 1)] * 6
    duals = []
    original = lattice.dual_description
    monkeypatch.setattr(lattice, "dual_description",
                        lambda gens, rank: duals.append(rank)
                        or original(gens, rank))
    regions = cut = 0
    while regions < 30:
        gens = [(rng.randint(1, 3),) + tuple(rng.randint(-3, 3)
                                             for _ in range(5))
                for _ in range(12)]
        rays = Cone(6, gens).rays()
        for i, ray in enumerate(rays):
            ineqs = [(r, 0) for j, r in enumerate(rays) if j != i]
            rows = Region(6, ineqs, [(ray, -1)]).rows
            levels, capped = lattice._eliminate(6, rows)
            with monkeypatch.context() as m:
                m.setattr(lattice, "ROW_CEILING", 10 ** 9)
                full, never = lattice._eliminate(6, rows)
            assert not never and (full != levels) == capped
            cut += capped
            duals.clear()
            assert lattice_points(6, ineqs, [(ray, -1)], box=box) == list(
                scan(box, rows))
            assert not duals
            assert lattice.Region(6, ineqs, [(ray, -1)]).points() is None
            assert len(duals) == capped
            regions += 1
    assert (regions, cut) == (36, 34)


def test_a_region_cut_at_the_ceiling_is_eliminated_once(monkeypatch):
    # lattice_points without a box on the root regions of the first cone
    # above: each is cut at the ceiling, unbounded and holds lattice points.
    # Its one elimination and one dual decide that it is unbounded and
    # give the recession direction; then each region of the feasibility
    # recursion, of ranks 5 down to 1, is eliminated once and, while
    # unbounded, dualized once.  The former code took (7, 7) on ray 0,
    # (84, 80) over the 12 rays, eliminating and dualizing the rank-6
    # region again inside integer_feasible.
    rng = random.Random(12)
    gens = [(rng.randint(1, 3),) + tuple(rng.randint(-3, 3)
                                         for _ in range(5))
            for _ in range(12)]
    rays = Cone(6, gens).rays()
    counts = collections.Counter()
    for name in ("_eliminate", "dual_description"):
        original = getattr(lattice, name)
        monkeypatch.setattr(lattice, name, lambda *args, name=name,
                            original=original: counts.update([name])
                            or original(*args))
    per_ray = []
    for i, ray in enumerate(rays):
        ineqs = [(r, 0) for j, r in enumerate(rays) if j != i]
        before = counts.copy()
        with pytest.raises(UnboundedRegion):
            lattice_points(6, ineqs, [(ray, -1)])
        per_ray.append((counts["_eliminate"] - before["_eliminate"],
                        counts["dual_description"]
                        - before["dual_description"]))
    assert len(rays) == 12 and per_ray[0] == (6, 5)
    assert (counts["_eliminate"], counts["dual_description"]) == (72, 60)


def test_an_explicit_box_bounds_the_lift_only(monkeypatch):
    # lattice_points hands its box, rounded inward, to the lift: the
    # elimination sees the system's own rows and no box rows
    seen = []
    original = lattice._eliminate
    monkeypatch.setattr(lattice, "_eliminate",
                        lambda rank, rows: seen.append(rows)
                        or original(rank, rows))
    rng = random.Random(77)
    for _ in range(60):
        rank = rng.randint(1, 4)
        ineqs, eqs, _ = random_system(rng, rank)
        box = [(Fraction(rng.randint(-4, 0), 2), Fraction(rng.randint(0, 4), 2))
               for _ in range(rank)]
        rows = Region(rank, ineqs, eqs).rows
        seen.clear()
        got = lattice_points(rank, ineqs, eqs, box=box)
        assert seen == [rows]
        assert got == scan_points(rank, ineqs, eqs, box=box)


# ---------------------------------------------------------------------------
# differential tests: the integer kernel against the Fraction routines it
# replaced


def fraction_rref(rows):
    """Gauss-Jordan over Fraction: (reduced rows, pivot columns)."""
    m = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def fraction_nullspace(rows, n):
    m, pivots = fraction_rref(rows)
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            v[pc] = -m[ri][fc]
        p = primitive(v)
        basis.append(vneg(p) if next(x for x in p if x) < 0 else p)
    return basis


def fraction_det(rows):
    """Determinant as the product of the unreduced Fraction pivots."""
    m = [[Fraction(x) for x in r] for r in rows]
    d = Fraction(1)
    for c in range(len(m)):
        pr = next((i for i in range(c, len(m)) if m[i][c] != 0), None)
        if pr is None:
            return 0
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            d = -d
        d *= m[c][c]
        for i in range(c + 1, len(m)):
            f = m[i][c] / m[c][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return d


def double_dual_rays(cone):
    """Extremal rays as the dual of the dual (an earlier Cone.rays)."""
    if not rank_pointed(cone):
        raise NotStronglyConvex("not pointed")
    E, L = dual_description(cone.dual_generators(), cone.rank)
    assert not L
    return tuple(E)


def random_matrix(rng, nrows, ncols, rational):
    """Random rows, some of them combinations of earlier ones."""
    rows = []
    for _ in range(nrows):
        if rows and rng.random() < 0.3:
            a, b = rng.choice(rows), rng.choice(rows)
            s, t = rng.randint(-2, 2), rng.randint(-2, 2)
            rows.append([s * x + t * y for x, y in zip(a, b)])
        elif rational:
            rows.append([Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                         for _ in range(ncols)])
        else:
            rows.append([rng.randint(-4, 4) for _ in range(ncols)])
    return rows


def test_integer_elimination_matches_fraction_rref_random():
    rng = random.Random(20260117)
    for trial in range(600):
        nrows, ncols = rng.randint(0, 5), rng.randint(1, 5)
        rows = random_matrix(rng, nrows, ncols, rational=trial % 3 == 0)
        _, pivots = fraction_rref(rows)
        assert mat_rank(rows) == len(pivots)
        assert nullspace(rows, ncols) == fraction_nullspace(rows, ncols)


def test_det_and_inverse_match_fraction_elimination_random():
    rng = random.Random(8081)
    for trial in range(400):
        n = rng.randint(1, 5)
        rows = random_matrix(rng, n, n, rational=trial % 3 == 0)
        d = det(rows)
        assert d == fraction_det(rows)
        if trial % 3:
            assert type(d) is int
        if d == 0:
            with pytest.raises(ValueError):
                mat_inverse(rows)
        else:
            inv = mat_inverse(rows)
            assert all(isinstance(x, Fraction) for r in inv for x in r)
            assert mat_mul(rows, inv) == [
                [int(i == j) for j in range(n)] for i in range(n)]


def test_rays_match_double_dual_random():
    # pointed and non-pointed cones of rank 2..4, redundant generators,
    # lower-dimensional cones and the origin
    rng = random.Random(31337)
    pointed = 0
    for _ in range(500):
        rank = rng.randint(2, 4)
        c = random_cone(rng, rank, ngens=rng.randint(0, rank + 3),
                        lo=-3, hi=3)
        oracle = Cone(rank, c.gens)  # fresh caches for the oracle
        try:
            expected = double_dual_rays(oracle)
        except NotStronglyConvex:
            with pytest.raises(NotStronglyConvex):
                c.rays()
            continue
        pointed += 1
        assert c.rays() == expected
    assert pointed > 150


# ---------------------------------------------------------------------------
# differential tests: the combinatorics read off the generator-facet
# incidences against the rank computations they replaced


def rank_pointed(cone):
    """Pointedness by rank: the dual generators span Q^rank."""
    return mat_rank(cone.dual_generators()) == cone.rank


def rank_rays(cone):
    """Extremal rays by rank: g is extremal iff the dual generators
    vanishing on g span a hyperplane."""
    E, L = cone.dual_pair()
    return tuple(g for g in cone.gens
                 if mat_rank(L + [u for u in E if not dot(u, g)])
                 == cone.rank - 1)


def closure_face_table(cone, rays):
    """The facet ray sets closed under pairwise intersection, each face
    with the rank of its rays."""
    E, _ = cone.dual_pair()
    sets = {frozenset(i for i, r in enumerate(rays) if not dot(r, u))
            for u in E}
    sets.add(frozenset(range(len(rays))))
    changed = True
    while changed:
        changed = False
        for a, b in itertools.combinations(list(sets), 2):
            if a & b not in sets:
                sets.add(a & b)
                changed = True
    return {fs: mat_rank([rays[i] for i in fs]) for fs in sets}


def combination(rng, basis, rank):
    """A random integer combination of the basis rows: one coefficient per
    row, so that it lies in their span."""
    coefficients = [rng.randint(-2, 2) for _ in basis]
    return [sum(c * b[j] for c, b in zip(coefficients, basis))
            for j in range(rank)]


def differential_cones(rng):
    """The origin in ranks 0-5, then cones of rank 1-5: pointed (the
    generators flipped to one side of a random functional) or random, some
    in a random subspace, some with a redundant positive combination or a
    negated generator added."""
    for rank in range(6):
        yield Cone(rank, [])
    for _ in range(1500):
        rank = rng.randint(1, 5)
        dim = rank if rng.random() < 0.7 else rng.randint(1, rank)
        basis = [[rng.randint(-2, 2) for _ in range(rank)] for _ in range(dim)]
        gens = [combination(rng, basis, rank)
                for _ in range(rng.randint(1, rank + 3))]
        if rng.random() < 0.6:
            w = [rng.randint(-3, 3) for _ in range(rank)]
            gens = [vneg(g) if dot(w, g) < 0 else g for g in gens]
        gens = [tuple(g) for g in gens if any(g)]
        if len(gens) > 1 and rng.random() < 0.3:
            a, b = rng.sample(gens, 2)
            gens.append(tuple(rng.randint(1, 3) * x + rng.randint(1, 3) * y
                              for x, y in zip(a, b)))
        if gens and rng.random() < 0.1:
            gens.append(vneg(rng.choice(gens)))
        yield Cone(rank, gens)


def test_subspace_generators_lie_in_their_subspace():
    # a fresh coefficient for every coordinate made the generators of a
    # "subspace" span Q^n once there were enough of them: at the same
    # seeds 575 cones and 461 dual inputs did not span
    cones = list(differential_cones(random.Random(5)))
    assert len(cones) == 1506
    assert sum(mat_rank(c.gens) < c.rank for c in cones) == 678
    rng = random.Random(5)
    inputs = [random_dual_input(rng) for _ in range(1000)]
    assert sum(mat_rank(gens) < rank for gens, rank in inputs) == 518


def test_incidence_combinatorics_match_rank_oracles_random():
    rng = random.Random(60061)
    seen = {"pointed": 0, "line": 0, "low": 0, "redundant": 0, "origin": 0}
    for c in differential_cones(rng):
        oracle = Cone(c.rank, c.gens)  # fresh caches for the oracle
        dim = mat_rank(c.gens)
        assert c.dim() == dim
        seen["low"] += dim < c.rank
        seen["origin"] += not c.gens
        if not rank_pointed(oracle):
            seen["line"] += 1
            assert not c.is_strongly_convex()
            for method in (c.rays, c.face_ray_sets, c.face_table):
                with pytest.raises(NotStronglyConvex):
                    method()
            continue
        seen["pointed"] += 1
        assert c.is_strongly_convex()
        rays = rank_rays(oracle)
        assert c.rays() == rays
        seen["redundant"] += len(rays) < len(c.gens)
        table = closure_face_table(oracle, rays)
        assert c.face_table() == table
        assert c.face_ray_sets() == set(table)
        assert sorted(facet_ray_sets(c), key=sorted) == sorted(
            (fs for fs, d in table.items() if d == dim - 1), key=sorted)
    assert seen["pointed"] > 1000 and seen["line"] > 200
    assert seen["low"] > 400 and seen["redundant"] > 250
    assert seen["origin"] >= 6


def contains_both_ways(a, b):
    """The former Cone.equals: each cone contains the other's generators."""
    return (a.rank == b.rank
            and all(a.contains(g) for g in b.gens)
            and all(b.contains(g) for g in a.gens))


def regenerated(rng, cone):
    """The same cone from other generators: scaled and shuffled, with
    positive combinations added and then every generator that lies in
    the cone of the others dropped, in a random order."""
    ks = rng.choices((1, 2, 3), k=len(cone.gens))
    gens = [tuple(k * x for x in g) for k, g in zip(ks, cone.gens)]
    for _ in range(rng.randint(0, 3)):
        if gens:
            picks = rng.sample(gens, min(len(gens), rng.randint(1, 3)))
            ks = rng.choices((1, 2), k=len(picks))
            gens.append(tuple(sum(k * g[j] for k, g in zip(ks, picks))
                              for j in range(cone.rank)))
    rng.shuffle(gens)
    i = 0
    while i < len(gens):
        others = gens[:i] + gens[i + 1:]
        if rng.random() < 0.5 and Cone(cone.rank, others).contains(gens[i]):
            del gens[i]
        else:
            i += 1
    return Cone(cone.rank, gens)


def near_miss(rng, cone):
    """A cone that may or may not equal the given one: a generator
    dropped, a random vector added, or a generator negated."""
    gens = list(cone.gens)
    pick = rng.randrange(3)
    if pick == 0 and gens:
        gens.remove(rng.choice(gens))
    elif pick == 1 or not gens:
        gens.append(tuple(rng.randint(-2, 2) for _ in range(cone.rank)))
    else:
        gens.append(vneg(rng.choice(gens)))
    return Cone(cone.rank, gens)


def test_equals_by_dual_pair_matches_containment_random():
    rng = random.Random(30103)
    seen = {"equal": 0, "unequal": 0, "new gens": 0, "line": 0}
    for c in differential_cones(rng):
        others = [regenerated(rng, c), near_miss(rng, c), near_miss(rng, c),
                  random_cone(rng, c.rank) if c.rank else Cone(0, [])]
        for d in others:
            want = contains_both_ways(c, d)
            assert c.equals(d) == want and d.equals(c) == want, (c, d)
            seen["equal" if want else "unequal"] += 1
            seen["new gens"] += want and c.gens != d.gens
            seen["line"] += want and not c.is_strongly_convex()
        assert not c.equals(Cone(c.rank + 1, [g + (0,) for g in c.gens]))
    assert seen["equal"] > 2000 and seen["unequal"] > 3000
    assert seen["new gens"] > 700 and seen["line"] > 500


def test_box_bounds_are_rounded_inward():
    # a rational box is the integer range inside it, never truncated
    half = Fraction(1, 2)
    assert lattice_points(1, box=[(half, 1)]) == [(1,)]
    assert lattice_points(1, box=[(-1, -half)]) == [(-1,)]
    assert lattice_points(1, box=[("1/2", "3/2")]) == [(1,)]
    assert lattice_points(2, box=[(-half, half), (Fraction(-3, 2), 0)]) == [
        (0, -1), (0, 0)]


# ---------------------------------------------------------------------------
# differential tests: the exterior-product walk against the subset
# enumeration it replaced


def subset_dual_description(gens, rank):
    """The former dual_description: one elimination per (r-1)-subset of
    the generators, r their rank.  A subset of rank r - 1 has the extreme
    rays of the dual (mod lineality) that it annihilates in its nullspace;
    the first basis vector pairing nonzero with the generators is kept
    when its pairings have one sign."""
    prim = []
    seen = set()
    for g in gens:
        p = primitive(g)
        if p not in seen:
            seen.add(p)
            prim.append(p)
    L = nullspace(prim, rank)
    r = rank - len(L)
    E = set()
    if r >= 1:
        for sub in itertools.combinations(prim, r - 1):
            ns = nullspace(sub, rank)
            if len(ns) != rank - r + 1:
                continue  # rank deficient: its normals show up elsewhere
            picked = None
            for b in ns:
                vals = [dot(g, b) for g in prim]
                if any(vals):
                    picked = (b, vals)
                    break
            if picked is None:
                continue
            b, vals = picked
            if all(v >= 0 for v in vals):
                E.add(b)
            elif all(v <= 0 for v in vals):
                E.add(primitive(vneg(b)))
    return sorted(E), L


# the cone over the cube [-1, 1]^3: six facets of four generators each
CUBE_CONE = [(a, b, c, 1) for a in (-1, 1) for b in (-1, 1) for c in (-1, 1)]


def p6_pair_checks(rng):
    """The input of the fan pair check on P^6: the dual generators of two
    maximal cones (12 generators spanning Q^6), in a random basis."""
    rays = [tuple(int(i == j) for j in range(6)) for i in range(6)]
    rays.append((-1,) * 6)
    M = random_unimodular(rng, 6)
    rays = [tuple(dot(row, r) for row in M) for r in rays]
    for a, b in itertools.combinations(range(7), 2):
        gens = []
        for missing in (a, b):
            cone = Cone(6, [r for k, r in enumerate(rays) if k != missing])
            gens += cone.dual_generators()
        yield gens, 6


def named_dual_inputs(rng):
    for rank in range(4):
        yield [], rank
    yield [(1, 2), (-1, -2)], 2
    yield [(0, 0, 1), (0, 0, -1), (1, 1, 0)], 3
    yield CUBE_CONE, 4
    yield [(Fraction(a, 2), b, c, d) for a, b, c, d in CUBE_CONE], 4
    # the cube cone times a line, and the octahedron cone dual to it
    yield [g + (0,) for g in CUBE_CONE] + [(0,) * 4 + (1,),
                                           (0,) * 4 + (-1,)], 5
    yield [tuple(s * int(i == j) for j in range(3)) + (1,)
           for i in range(3) for s in (1, -1)], 4
    yield from itertools.islice(p6_pair_checks(rng), 4)


def random_dual_input(rng):
    """Generators of rank 1-6: random, or in a random subspace, with
    duplicates, negatives, rational multiples and zero vectors mixed in."""
    rank = rng.randint(1, 6)
    count = rng.randint(0, min(rank + 3, 9))
    if rng.random() < 0.3:
        dim = rng.randint(1, rank)
        basis = [[rng.randint(-2, 2) for _ in range(rank)]
                 for _ in range(dim)]
        gens = [tuple(combination(rng, basis, rank)) for _ in range(count)]
    else:
        gens = [tuple(rng.randint(-3, 3) for _ in range(rank))
                for _ in range(count)]
    gens = [g for g in gens if any(g)]
    if gens and rng.random() < 0.3:
        gens.append(vneg(rng.choice(gens)))
    if gens and rng.random() < 0.3:
        gens.append(tuple(rng.randint(1, 3) * x for x in rng.choice(gens)))
    if gens and rng.random() < 0.2:
        d = rng.randint(2, 5)
        gens = [tuple(Fraction(x, d) for x in g) for g in gens]
    if rng.random() < 0.05:
        gens.insert(rng.randint(0, len(gens)), (0,) * rank)
    rng.shuffle(gens)
    return gens, rank


def test_dual_description_matches_subset_enumeration():
    rng = random.Random(88211)
    cases = list(named_dual_inputs(rng))
    cases += [random_dual_input(rng) for _ in range(1000)]
    zero = lineal = 0
    for gens, rank in cases:
        try:
            expected = subset_dual_description(gens, rank)
        except ZeroVector:
            with pytest.raises(ZeroVector):
                dual_description(gens, rank)
            zero += 1
            continue
        assert dual_description(gens, rank) == expected, (gens, rank)
        lineal += bool(expected[1])
    assert zero > 20 and lineal > 250


def test_dual_description_eliminates_once(monkeypatch):
    """One integer elimination, the lineality check, on a cone full-
    dimensional or not: no subset of generators is eliminated on its own,
    and no facet is lifted by a nullspace."""
    calls = []
    original = lattice._echelon

    def counted(rows):
        calls.append(len(rows))
        return original(rows)

    monkeypatch.setattr(lattice, "_echelon", counted)
    cube_times_line = [g + (0,) for g in CUBE_CONE]
    for gens, rank in [(CUBE_CONE, 4),
                       next(p6_pair_checks(random.Random(5))),
                       (cube_times_line, 5)]:
        calls.clear()
        E, L = dual_description(gens, rank)
        assert len(L) == (rank == 5) and len(calls) == 1
        calls.clear()
        assert subset_dual_description(gens, rank) == (E, L)
        assert len(calls) > 1  # the count sees per-subset eliminations
        calls.clear()
        assert nullspace_lift_dual_description(gens, rank) == (E, L)
        assert len(calls) == 1 + (len(E) if L else 0)
    # independent generators, spanning Q^n or not, are read off the one
    # elimination of [G | I], and dependent ones (k = n) are inserted
    # after it
    for gens, rank in [([(1, 0, 0), (1, 2, 0), (1, 1, 3)], 3),
                       ([(1, 2, 0, 1), (0, 1, 1, 3)], 4),
                       ([(1, 0, 0), (0, 1, 0), (1, 1, 0)], 3)]:
        calls.clear()
        E, L = dual_description(gens, rank)
        assert len(calls) == 1
        assert walk_dual(gens, rank) == (E, L)


# ---------------------------------------------------------------------------
# differential tests: the basis readout and the insertions against the
# exterior-product walk they replaced


def facet_normals_walk(vecs, d):
    """The former `_facet_normals` of the library: primitive facet normals
    u of cone(vecs), for vecs spanning Q^d, each oriented so that
    <u, g> >= 0 on every vector.

    The (d-1)-subsets of vecs are walked depth first, carrying the k x k
    minors of the prefix (its exterior product), keyed by their column
    sets as bitmasks.  Extending a prefix by v expands every new minor
    along the row v; a prefix whose minors all vanish is dependent, and so
    is every extension of it.  At depth d - 1 the signed maximal minors
    are the normal u with <u, g> = det(prefix; g): u_c is (-1)^(d-1+c)
    times the minor without column c.  Each hyperplane is tested once, by
    the signs of its pairings, up to the first conflict.
    """
    full = (1 << d) - 1
    support = [[(j, x) for j, x in enumerate(v) if x] for v in vecs]
    # the (k+1)-th vector of a (d-1)-subset is vecs[i] with i < last + k
    last = len(vecs) - d + 2
    tried = set()
    found = []

    def test(u):
        g = gcd(*u)
        for x in u:
            if x:
                break
        if x < 0:
            g = -g
        u = tuple(u) if g == 1 else tuple(x // g for x in u)
        if u in tried:
            return  # this hyperplane was spanned by an earlier subset
        tried.add(u)
        pos = neg = False
        for v in vecs:
            x = sum(map(mul, u, v))
            if x > 0:
                pos = True
            elif x < 0:
                neg = True
            else:
                continue
            if pos and neg:
                return
        found.append(u if pos else vneg(u))

    def walk(start, k, minors):
        # v adds (-1)^(k + position of j in S + j) v_j minor(S) to the minor
        # on S + j, for each column j outside S; at the last step that
        # minor is read as the entry of u at the one column left out
        leaf = k == d - 2
        terms = [[] for _ in range(d)]
        for S, x in minors.items():
            if not x:
                continue
            for j in range(d):
                bit = 1 << j
                if S & bit:
                    continue
                T = S | bit
                odd = (S & (bit - 1)).bit_count() + k
                if leaf:
                    T = (full ^ T).bit_length() - 1
                    odd += d - 1 + T
                terms[j].append((T, -x if odd & 1 else x))
        for i in range(start, last + k):
            new = {}
            for j, y in support[i]:
                for T, x in terms[j]:
                    new[T] = new.get(T, 0) + x * y
            if not any(new.values()):
                continue  # a dependent prefix, and so is each extension
            if leaf:
                test([new.get(c, 0) for c in range(d)])
            else:
                walk(i + 1, k + 1, new)

    if d == 1:
        test([1])
    else:
        walk(0, 0, {0: 1})
    return found


def walk_dual(prim, rank):
    """The former `_dual_of_primitive`: the exterior-product walk for every
    cone, in the pivot coordinates of its span when it does not span."""
    m, pivots, _ = lattice._echelon(prim)
    L = lattice._kernel(m, pivots, rank)
    if not pivots:
        return [], L
    if not L:
        return sorted(facet_normals_walk(prim, rank)), L
    proj = [tuple(g[c] for c in pivots) for g in prim]
    at = {c: k for k, c in enumerate(pivots)}
    return sorted(tuple(u[at[c]] if c in at else 0 for c in range(rank))
                  for u in facet_normals_walk(proj, len(pivots))), L


def zero_sets(prim, E):
    """For each u in E, the bitmask of the indices of the vectors of prim
    that u vanishes on, read by dot products."""
    return [sum(1 << i for i, g in enumerate(prim) if not dot(u, g))
            for u in E]


def dot_combinatorics(gens, E):
    """(incidence, rays, facets, face table) of cone(gens) read by dot
    products with its facet normals E; the faces are the intersections of
    facets, graded by inclusion.  rays is None for a cone with a line."""
    inc = {g: frozenset(k for k, u in enumerate(E) if not dot(u, g))
           for g in gens}
    if frozenset(range(len(E))) in inc.values():
        return inc, None, None, None
    rays = tuple(g for g, s in inc.items()
                 if sum(s <= t for t in inc.values()) == 1)
    facets = [(u, frozenset(i for i, r in enumerate(rays) if not dot(u, r)))
              for u in E]
    faces = {frozenset(range(len(rays)))}
    for _, facet in facets:
        faces |= {facet & f for f in faces}
    table = {}
    for fs in sorted(faces, key=len):
        table[fs] = max((d + 1 for f, d in table.items() if f < fs),
                        default=0)
    return inc, rays, facets, table


def assert_cone_matches_dot_products(cone, E):
    inc, rays, facets, table = dot_combinatorics(cone.gens, E)
    assert cone.dual_pair()[0] == E
    assert cone._inc == zero_sets(cone.gens, E)
    if rays is None:
        assert not cone.is_strongly_convex()
        return
    assert cone.is_strongly_convex()
    assert cone.rays() == rays
    assert cone.facets() == facets
    assert cone.face_table() == table


def independent_generators(rng):
    """k <= n independent primitive vectors in rank n = 1-6, entries at
    most 5 in absolute value.  About half span Q^n; the others span a
    subspace of dimension k < n, and half of those are combinations M B
    of a basis B with entries in {-1, 0, 1}, so that their index in the
    lattice of their span is often |det M| > 1."""
    rank = rng.randint(1, 6)
    k = rank if rank == 1 or rng.random() < 0.5 else rng.randint(1, rank - 1)
    combined = k < rank and rng.random() < 0.5
    while True:
        if combined:
            basis = [[rng.randint(-1, 1) for _ in range(rank)]
                     for _ in range(k)]
            gens = [tuple(combination(rng, basis, rank)) for _ in range(k)]
        else:
            gens = [tuple(rng.randint(-5, 5) for _ in range(rank))
                    for _ in range(k)]
        if mat_rank(gens) == k and max(map(abs, sum(gens, ()))) <= 5:
            return [primitive(g) for g in gens], rank


def test_independent_generators_match_the_walk_random():
    rng = random.Random(2202)
    kinds = collections.Counter()
    for _ in range(1200):
        gens, rank = independent_generators(rng)
        E, L, Z = lattice._dual_of_primitive(gens, rank)
        assert (E, L) == walk_dual(gens, rank), (gens, rank)
        assert Z == zero_sets(gens, E)
        # each normal vanishes on every generator but the one opposite it
        every = (1 << len(gens)) - 1
        opposite = [(every ^ z).bit_length() - 1 for z in Z]
        assert sorted(opposite) == list(range(len(gens)))
        for u, z, j in zip(E, Z, opposite):
            assert z == every ^ 1 << j
            # the normal opposite g_j pairs positively with it alone
            pairs = [dot(u, g) for g in gens]
            assert pairs[j] > 0
            assert not any(x for i, x in enumerate(pairs) if i != j)
        assert_cone_matches_dot_products(Cone(rank, gens), E)
        kind = "full" if len(gens) == rank else "lower"
        kinds[kind] += 1
        # the index of the generators in the lattice of their span
        kinds[kind, "index > 1"] += math.prod(invariant_factors(gens)) > 1
    assert kinds["full"] > 600 and kinds["lower"] > 400, kinds
    assert kinds["full", "index > 1"] > 400, kinds
    assert kinds["lower", "index > 1"] > 100, kinds


@pytest.mark.parametrize("gens, rank", [
    ([(1, 2), (-1, -2)], 2),
    ([(1, 0, 0), (0, 1, 0), (1, 1, 0)], 3),
    ([(2, -1, 3), (1, 1, 0), (-1, 2, -3)], 3),
    ([(2, 1, 0, 1), (-2, -1, 0, -1), (1, 0, 1, 1)], 4),
    ([(1, 0, 0, 3), (0, 1, 0, 1), (2, 3, 0, 9)], 4),
])
def test_dependent_generators_are_inserted(monkeypatch, gens, rank):
    # the elimination of [G | I] puts pivots in the identity block; they
    # are no pivots of the span, and each of their generators is inserted
    # into the dual of the basis the others form
    inserts = []
    original = lattice._insert

    def counted(rays, v, j, r):
        inserts.append(r)
        return original(rays, v, j, r)

    monkeypatch.setattr(lattice, "_insert", counted)
    r = mat_rank(gens)
    assert len(gens) <= rank and r < len(gens)
    E, L, Z = lattice._dual_of_primitive(gens, rank)
    assert inserts == [r] * (len(gens) - r)
    assert Z == zero_sets(gens, E)
    assert (E, L) == walk_dual(gens, rank)
    assert len(L) == rank - mat_rank(gens)
    assert_cone_matches_dot_products(Cone(rank, gens), E)


def dependent_generators(rng):
    """Distinct primitive generators of rank 1-5, at most 10, most of them
    more than their rank: in Q^n or in a random subspace, half of them
    flipped to one side of a random functional, some with a line (g and
    -g)."""
    rank = rng.randint(1, 5)
    dim = rank if rng.random() < 0.5 else rng.randint(1, rank)
    basis = [[rng.randint(-2, 2) for _ in range(rank)] for _ in range(dim)]
    gens = [tuple(combination(rng, basis, rank))
            for _ in range(rng.randint(1, 10))]
    if rng.random() < 0.5:
        w = [rng.randint(-3, 3) for _ in range(rank)]
        gens = [vneg(g) if dot(w, g) < 0 else g for g in gens]
    gens = [g for g in gens if any(g)]
    if gens and rng.random() < 0.3:
        gens.append(vneg(rng.choice(gens)))
    prim = []
    for g in map(primitive, gens):
        if g not in prim:
            prim.append(g)
    return prim, rank


def test_insertions_match_the_subsets_and_the_walk_random():
    rng = random.Random(2323)
    seen = collections.Counter()
    for _ in range(1000):
        prim, rank = dependent_generators(rng)
        E, L, Z = lattice._dual_of_primitive(prim, rank)
        assert (E, L) == subset_dual_description(prim, rank), (prim, rank)
        assert (E, L) == walk_dual(prim, rank), (prim, rank)
        assert Z == zero_sets(prim, E)
        assert_cone_matches_dot_products(Cone(rank, prim), E)
        r = mat_rank(prim)
        seen["inserted"] += len(prim) > r
        seen["low"] += r < rank
        pointed = rank_pointed(Cone(rank, prim))
        seen["line"] += not pointed
        seen["pointed, inserted"] += pointed and len(prim) > r
        seen["facets"] += len(E)
    assert seen["inserted"] > 600 and seen["pointed, inserted"] > 150, seen
    assert seen["low"] > 400 and seen["line"] > 400, seen
    assert seen["facets"] > 1500, seen


# ---------------------------------------------------------------------------
# differential test: the zero-extension of each facet normal against the
# nullspace lift it replaced


def nullspace_lift_dual_description(gens, rank):
    """The former dual_description: each facet normal found in the pivot
    coordinates of the span is lifted to the first vector of
    `nullspace(its incident generators)` that pairs nonzero with the
    generators, oriented by them."""
    prim = []
    for g in gens:
        p = primitive(g)
        if p not in prim:
            prim.append(p)
    m, pivots, _ = lattice._echelon(prim)
    L = lattice._kernel(m, pivots, rank)
    if not pivots:
        return [], L
    if not L:
        return sorted(facet_normals_walk(prim, rank)), L
    E = []
    proj = [tuple(g[c] for c in pivots) for g in prim]
    for u in facet_normals_walk(proj, len(pivots)):
        vals = [dot(u, p) for p in proj]
        incident = [g for g, x in zip(prim, vals) if not x]
        outside = prim[next(i for i, x in enumerate(vals) if x)]
        for b in nullspace(incident, rank):
            x = dot(outside, b)
            if x:
                E.append(b if x > 0 else vneg(b))
                break
    return sorted(E), L


def lower_dimensional_cone(rng):
    """Generators of rank 2-6 spanning a random proper subspace, some with a
    line of their own, in a random basis: a cone whose dual has lineality."""
    rank = rng.randint(2, 6)
    dim = rng.randint(1, rank - 1)
    basis = [[rng.randint(-2, 2) for _ in range(rank)] for _ in range(dim)]
    gens = []
    for _ in range(rng.randint(dim, dim + 4)):
        coefficients = [rng.randint(-2, 2) for _ in basis]
        gens.append(tuple(sum(map(mul, coefficients, column))
                          for column in zip(*basis)))
    gens = [g for g in gens if any(g)]
    if gens and rng.random() < 0.2:
        gens.append(vneg(rng.choice(gens)))
    U = random_unimodular(rng, rank)
    return [tuple(dot(row, g) for row in U) for g in gens], rank


def test_zero_extension_matches_the_nullspace_lift_random():
    rng = random.Random(1717)
    facets = collections.Counter()
    for _ in range(1200):
        gens, rank = lower_dimensional_cone(rng)
        expected = nullspace_lift_dual_description(gens, rank)
        assert dual_description(gens, rank) == expected, (gens, rank)
        assert expected[1]
        facets[rank] += bool(expected[0])
    # every cone has lineality in its dual, and most have facets to lift
    assert all(facets[rank] > 50 for rank in range(2, 7)), facets
    assert sum(facets.values()) > 600


def test_cone_combinatorics_eliminate_once(monkeypatch):
    """The rays, pointedness, dimension, faces and facets of the cube cone
    all come from its one dual: a single integer elimination."""
    calls = []
    original = lattice._echelon

    def counted(rows):
        calls.append(len(rows))
        return original(rows)

    monkeypatch.setattr(lattice, "_echelon", counted)
    c = Cone(4, CUBE_CONE)
    assert c.rays() == tuple(sorted(CUBE_CONE))
    assert c.is_strongly_convex() and c.dim() == 4
    by_dim = {}
    for d in c.face_table().values():
        by_dim[d] = by_dim.get(d, 0) + 1
    assert by_dim == {0: 1, 1: 8, 2: 12, 3: 6, 4: 1}
    assert sorted(map(len, facet_ray_sets(c))) == [4] * 6
    assert len(calls) == 1


def test_cone_reads_its_rank_as_a_nonnegative_integer():
    # Cone("2", ...) compared a string with 0, a bare TypeError, and the
    # rank 2.5 was reported as "generator of length 2 in ambient rank 2.5"
    assert Cone("2", [(1, 0)]).rank == 2
    assert Cone("2", [(1, 0)]).gens == Cone(2, [(1, 0)]).gens
    with pytest.raises(InvalidInteger, match="non-integral component 2.5"):
        Cone(2.5, [(1, 0)])
    with pytest.raises(RankMismatch, match="negative rank -1"):
        Cone(-1)


def test_lattice_points_and_integer_feasible_read_their_rank():
    # the rank was never read: lattice_points(-3) returned [()],
    # integer_feasible(-1) returned True, and the rank None or 2.5 raised
    # a bare TypeError
    for ask in (lattice_points, integer_feasible):
        for rank in (-3, -1):
            with pytest.raises(RankMismatch, match=f"negative rank {rank}"):
                ask(rank)
        with pytest.raises(InvalidInteger, match="non-integral component"):
            ask(2.5)
        with pytest.raises(InvalidInteger, match="non-numeric entry"):
            ask(None)
    rows = [((1,), 0), ((-1,), -2)]
    assert lattice_points("1", rows) == lattice_points(1.0, rows) == [
        (0,), (1,), (2,)]
    assert integer_feasible("1", rows) and integer_feasible(0)


def test_dual_description_reads_its_rank():
    # the rank was never read: the rank -1 gave ([], []), the rank "2" a
    # RankMismatch "row of length 2 in ambient rank 2", and the rank None
    # a bare TypeError
    with pytest.raises(RankMismatch, match="negative rank -1"):
        dual_description([], -1)
    with pytest.raises(InvalidInteger, match="non-numeric entry"):
        dual_description([], None)
    with pytest.raises(InvalidInteger, match="non-integral component"):
        dual_description([(1, 0)], 2.5)
    assert dual_description([(1, 0)], "2") == dual_description(
        [(1, 0)], 2) == ([(1, 0)], [(0, 1)])


def test_a_box_that_is_no_list_of_pairs_is_named():
    # box=5 and the pairs 5 and None raised a bare TypeError, and the
    # triple (0, 1, 2) a bare ValueError
    rows = [((1, 0), 0)]
    for box, message in (
            (5, "box: expected a sequence, got 5"),
            ([(0, 1), 5], "box pair: expected a sequence, got 5"),
            ([None, None], "box pair: expected a sequence, got None"),
            ([(0, 1), (0, 1, 2)], "box: expected (lo, hi) pairs, got ")):
        with pytest.raises(SchemaError) as info:
            lattice_points(2, rows, box=box)
        assert str(info.value).startswith(message)
    assert lattice_points(2, rows, box=([0, 1], (Fraction(1, 2), 1))) == [
        (0, 1), (1, 1)]


def test_cone_generators_are_read_once_to_their_primitive_vectors():
    gens = [(2, 4), (Fraction(1, 2), 1), (0, 0), (-3, 0), ("-1", 0.0),
            (Fraction(0), 7)]
    cone = Cone(2, gens)
    assert cone.gens == ((-1, 0), (0, 1), (1, 2))
    assert all(type(x) is int for g in cone.gens for x in g)
    # the cone's own dual is the public one of its nonzero generators
    assert cone.dual_pair() == dual_description(
        [g for g in gens if any(g)], 2)
