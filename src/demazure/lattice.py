"""Exact lattice and polyhedral-cone primitives.

All arithmetic is arbitrary precision (int / fractions.Fraction); no floats
appear anywhere.  Linear algebra (rank, nullspace, determinant, inverse)
runs on one fraction-free integer elimination, `_echelon`; Fractions only
appear at the boundary, for rational input and the entries of an inverse.
Cones are finitely generated convex cones in Q^n stored by primitive
integer generators.  A dual takes one elimination, of [G | I], unless a
fan pivots it from a neighbour's (`fan._across`).  The elimination
reads off a basis B of the span of the generators and the dual of
cone(B), whose facet normals are the columns of G_B^-1 on the pivot
coordinates, each opposite one generator (Cox-Little-Schenck, Toric
Varieties, 1.2).  The other generators are then inserted one at a time by
the double description method (Motzkin-Raiffa-Thompson-Thrall 1953;
Fukuda-Prodon 1996), each extreme dual ray carrying the set of generators
it vanishes on.  A simplicial cone (k <= n independent generators, as in
every cone of a simplicial fan) inserts none.  This is exact, in
integers, and suits the small ranks (<= 6 or so) this package targets.  A
cone computes one dual and reads its dimension, pointedness, extremal
rays and faces off those zero sets, the incidences of its generators with
its facets, the extremal dual rays (Ziegler, Lectures on Polytopes, 2.2).

The lattice points of a region {x : <u, x> >= b} are found by
Fourier-Motzkin project-and-lift (Schrijver, Theory of Linear and Integer
Programming, 12.2): the coordinates are eliminated from the last one down
and lifted, in lexicographic order, over the integer ranges their levels
leave them, within a box if one is given.  A `Region` is eliminated once;
its points, its shape and its integer feasibility read that elimination.
Run down to x_0, it shows the region free of lattice points, bounded or
unbounded.  Only if it stops at ROW_CEILING rows does one dual of the
homogenization {(x, t) : <u, x> >= b t, t >= 0} decide (`Region.shape`):
its face t = 0 is the recession cone, and its rays with t > 0 give the
region's box.

Conventions:
  * vectors are tuples; matrices are sequences of row tuples/lists;
  * a "dual vector" u represents the halfspace {x : <u, x> >= 0};
  * `primitive` rescales a rational vector to the unique primitive integer
    vector on the same ray.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from functools import reduce
from math import gcd, lcm
from operator import and_, mul

from .errors import (
    InvalidInteger,
    NotStronglyConvex,
    RankMismatch,
    SchemaError,
    UnboundedRegion,
    ZeroVector,
)

# ---------------------------------------------------------------------------
# vectors


def dot(a, b):
    """Exact pairing <a, b> for int/Fraction entries."""
    if len(a) != len(b):
        raise RankMismatch(
            f"pairing of a length-{len(a)} with a length-{len(b)} vector"
        )
    return sum(map(mul, a, b))


def vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vneg(a):
    return tuple(-x for x in a)


def as_int(x):
    """x as an int; InvalidInteger when it is not integral (int() would
    truncate 1/2 or 0.5 to 0) or not a number."""
    if type(x) is int:
        return x
    (w,), d = _integral((x,))
    if d != 1:
        raise InvalidInteger(f"non-integral component {x!r}")
    return w


def as_fraction(x):
    """x as a Fraction: a Fraction as it is, an int directly, anything
    else through `_integral` (InvalidInteger when it is not a number)."""
    if type(x) is Fraction:
        return x
    if type(x) is int:
        return Fraction(x)
    (w,), d = _integral((x,))
    return Fraction(w, d)


def as_tuple(obj, what):
    """obj as a tuple; SchemaError naming `what` and obj when it is not a
    sequence.  A dict is refused, as iterating it reads its keys alone, and
    so are str and bytes, which would read as their characters or bytes."""
    if not isinstance(obj, (dict, str, bytes)):
        try:
            return tuple(obj)
        except TypeError:
            pass
    raise SchemaError(f"{what}: expected a sequence, got {obj!r}")


def as_instance(obj, kind, what):
    """obj; SchemaError naming `what` and obj when it is not a `kind`."""
    if not isinstance(obj, kind):
        raise SchemaError(
            f"{what}: expected a {kind.__name__}, got {obj!r}")
    return obj


def as_pairs(obj, what):
    """The (key, value) pairs of a mapping or of a sequence of pairs, as
    tuples; SchemaError naming `what` and obj otherwise."""
    items = obj.items() if hasattr(obj, "items") else obj
    pairs = [as_tuple(p, what) for p in as_tuple(items, what)]
    if any(len(p) != 2 for p in pairs):
        raise SchemaError(f"{what}: expected pairs, got {obj!r}")
    return pairs


def _matrix(rows):
    """rows as a list of tuples, through `as_tuple`."""
    return [as_tuple(r, "matrix row") for r in as_tuple(rows, "matrix")]


def read_rank(rank):
    """The ambient rank as an int: InvalidInteger when it is not an
    integer, RankMismatch when it is negative."""
    n = as_int(rank)
    if n < 0:
        raise RankMismatch(f"negative rank {n}")
    return n


def primitive(v):
    """The unique primitive integer vector on the ray Q>=0 * v.

    Accepts int/Fraction (or string) entries.  Raises ZeroVector on v = 0.

    >>> primitive((Fraction(-3, 2), Fraction(9, 4)))
    (-2, 3)
    """
    return _primitive(_integral(as_tuple(v, "vector"))[0])


def _primitive(ints):
    """`primitive` of a sequence of ints, unchecked."""
    g = gcd(*ints)
    if g == 1:
        return tuple(ints)
    if not g:
        raise ZeroVector("the zero vector spans no ray")
    return tuple(x // g for x in ints)


def _integral(v):
    """(w, d): the rational vector v times d, the lcm of its denominators,
    so that w is an integer vector on the same ray.  InvalidInteger when
    an entry is not a number."""
    if all(type(x) is int for x in v):
        return v, 1
    try:
        fr = [Fraction(x) for x in v]
    except (TypeError, ValueError, OverflowError):
        raise InvalidInteger(f"non-numeric entry in {v!r}") from None
    d = lcm(*(x.denominator for x in fr))
    return [int(x * d) for x in fr], d


# ---------------------------------------------------------------------------
# exact linear algebra over Q, by fraction-free integer elimination


def _echelon(rows):
    """Fraction-free reduced row echelon form of a rational matrix.

    Returns (m, pivots, (num, den)).  Row i of the integer matrix m has
    its leading entry at column pivots[i] and is zero in every other pivot
    column; dividing each row by its leading entry gives the reduced row
    echelon form over Q.  Rows are made integral by clearing their
    denominators, eliminated by cross-multiplication and divided by the
    gcd of their entries, which keeps the entries small (Bareiss 1968
    divides by the previous pivot instead).  For a square matrix,
    den * det(m) = num * det(rows).
    """
    m = []
    num = den = 1
    for row in rows:
        ints, d = _integral(row)
        m.append(list(ints))
        num *= d
    pivots = []
    if not m:
        return m, pivots, (1, 1)
    r = 0
    for c in range(len(m[0])):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
            num = -num
        row = m[r]
        g = gcd(*row)
        if g > 1:
            m[r] = row = [x // g for x in row]
            den *= g
        p = row[c]
        for i, other in enumerate(m):
            f = other[c]
            if f and i != r:
                new = [p * x - f * y for x, y in zip(other, row)]
                g = gcd(*new)
                if g > 1:
                    new = [x // g for x in new]
                    den *= g
                m[i] = new
                num *= p
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots, (num, den)


def pivot_columns(rows):
    """The first independent columns of rows, chosen greedily."""
    return _echelon(_matrix(rows))[1]


def mat_rank(rows):
    return len(pivot_columns(rows))


def nullspace(rows, n):
    """Primitive integer basis of {x in Q^n : rows @ x = 0}, deterministic.

    Each basis vector is primitive with its first nonzero entry positive;
    the basis is the one read off the reduced row echelon form, one vector
    per free column.
    """
    rows = _matrix(rows)
    for r in rows:
        if len(r) != n:
            raise RankMismatch(f"row of length {len(r)} in ambient rank {n}")
    return _kernel(*_echelon(rows)[:2], n)


def _kernel(m, pivots, n):
    """The `nullspace` basis read off an echelon form (m, pivots)."""
    pivot_set = set(pivots)
    basis = []
    for fc in range(n):
        if fc in pivot_set:
            continue
        # x[fc] = 1 and x[pc] = -m[ri][fc] / m[ri][pc], scaled by the lcm
        # of the pivots involved so that the vector stays integral
        used = [(ri, pc) for ri, pc in enumerate(pivots) if m[ri][fc]]
        scale = lcm(*(m[ri][pc] for ri, pc in used))
        v = [0] * n
        v[fc] = scale
        for ri, pc in used:
            v[pc] = -m[ri][fc] * scale // m[ri][pc]
        p = _primitive(v)
        if next(x for x in p if x) < 0:
            p = vneg(p)
        basis.append(p)
    return basis


def det(rows):
    """Exact determinant; returns an int for integer input."""
    rows = _matrix(rows)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise RankMismatch("determinant of a non-square matrix")
    m, pivots, (num, den) = _echelon(rows)
    if len(pivots) < n:
        return 0
    d = Fraction(den, num)
    for i in range(n):
        d *= m[i][i]
    return int(d) if d.denominator == 1 else d


def transpose(rows):
    return [list(col) for col in zip(*rows)]


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    Bt = list(zip(*B))
    return [[dot(row, col) for col in Bt] for row in A]


def mat_vec(A, v):
    """Matrix times column vector, returned as a tuple."""
    return tuple(dot(row, v) for row in A)


def _beside_identity(rows):
    """[A | I]: each row of A followed by its unit vector."""
    n = len(rows)
    return [[*r, *[0] * i, 1, *[0] * (n - 1 - i)] for i, r in enumerate(rows)]


def mat_inverse(rows):
    """Exact inverse over Q (list of Fraction rows); ValueError if singular."""
    n = len(rows)
    m, pivots, _ = _echelon(_beside_identity(rows))
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [[Fraction(x, m[i][i]) for x in m[i][n:]] for i in range(n)]


# ---------------------------------------------------------------------------
# Smith normal form


def smith_normal_form(A):
    """Smith normal form with transforms.

    Returns (S, D, T) with A = S * D * T, where S (k x k) and T (n x n) are
    unimodular integer matrices and D is diagonal with nonnegative invariant
    factors d1 | d2 | ... .  All matrices are lists of int lists.
    """
    D = [[as_int(x) for x in as_tuple(row, "matrix row")]
         for row in as_tuple(A, "matrix")]
    k = len(D)
    n = len(D[0]) if k else 0
    if any(len(r) != n for r in D):
        raise RankMismatch("ragged matrix")
    S = identity_matrix(k)
    T = identity_matrix(n)

    # Row ops on D are compensated on S so that S*D*T stays constant; column
    # ops are compensated on T.
    def row_swap(i, j):
        D[i], D[j] = D[j], D[i]
        for r in S:
            r[i], r[j] = r[j], r[i]

    def row_add(i, j, q):  # row_i += q*row_j
        D[i] = [x + q * y for x, y in zip(D[i], D[j])]
        for r in S:
            r[j] -= q * r[i]

    def row_neg(i):
        D[i] = [-x for x in D[i]]
        for r in S:
            r[i] = -r[i]

    def col_swap(i, j):
        for r in D:
            r[i], r[j] = r[j], r[i]
        T[i], T[j] = T[j], T[i]

    def col_add(i, j, q):  # col_i += q*col_j
        for r in D:
            r[i] += q * r[j]
        T[j] = [x - q * y for x, y in zip(T[j], T[i])]

    def min_entry(t):
        best = None
        for i in range(t, k):
            for j in range(t, n):
                if D[i][j] and (best is None
                                or abs(D[i][j]) < abs(D[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while t < min(k, n):
        if min_entry(t) is None:
            break
        while True:
            bi, bj = min_entry(t)
            if bi != t:
                row_swap(t, bi)
            if bj != t:
                col_swap(t, bj)
            p = D[t][t]
            clean = True
            for i in range(t + 1, k):
                q = D[i][t] // p
                if q:
                    row_add(i, t, -q)
                if D[i][t]:
                    clean = False
            for j in range(t + 1, n):
                q = D[t][j] // p
                if q:
                    col_add(j, t, -q)
                if D[t][j]:
                    clean = False
            if not clean:
                continue
            if D[t][t] < 0:
                row_neg(t)
            fix = None
            for i in range(t + 1, k):
                if any(D[i][j] % D[t][t] for j in range(t + 1, n)):
                    fix = i
                    break
            if fix is None:
                break
            row_add(t, fix, 1)  # pull a non-divisible entry into row t
        t += 1
    return S, D, T


def invariant_factors(A):
    _, D, T = smith_normal_form(A)
    return [d[k] for k, d in enumerate(D[:len(T)]) if d[k]]


# ---------------------------------------------------------------------------
# cone duality (a basis read off one elimination, then double description)


def dual_description(gens, rank):
    """Generator description of the dual cone {u : <g, u> >= 0 for all g}.

    Returns (extremal, lineality):
      * lineality: primitive basis of {u : <g, u> = 0 for all g};
      * extremal: primitive representatives of the extreme rays of the dual
        modulo its lineality space, sorted.

    The dual cone is generated by extremal + lineality + (-lineality).

    Method: one integer elimination of the m generators beside the
    identity, as the rows [G | I].  It is row operations, so it ends at
    [E G | E] for an invertible m x m matrix E.  Its pivots in the left
    block are the pivot columns P of the span V of the generators, of
    dimension r, and the rows holding them give the lineality (the
    `nullspace` basis).  Projecting the generators to P is faithful on V,
    and there the extreme rays of the dual are the facet normals of a
    full-dimensional cone.  Each normal is read back by zero-extension:
    its entries on P, 0 elsewhere.

    It equals the first vector of `nullspace(the facet's generators)` that
    pairs nonzero with the generators, so oriented.  The facet spans a
    hyperplane H of V whose pivots are P less one p*, as the rank of the
    first c columns drops from V to H once, at p*, and stays dropped.  The
    vector of a free column before p* lives there, where H and V project
    alike, so it vanishes on V.  The vector of p* is supported on P and
    vanishes on H, as the zero-extension does; on P these form a line, as
    H projects faithfully, and both vectors are primitive.

    Basis.  [G | I] has rank m, so m - r pivots lie in the identity block.
    A row with its pivot at the identity column of g_q is zero in the
    left block and at the other pivots: it is a relation between g_q and
    the generators without an identity pivot.  These span V, so they are
    a basis B, |B| = r.  A row with its pivot in P is zero at every
    identity pivot too, so its identity entries lie on B: those r rows
    give E_B with E_B G_B = E G, and on P, E_B G_{B,P} = D, the diagonal
    of their leading entries d_i.  So G_{B,P}^-1 = D^-1 E_B.  Its column j
    pairs to 1 with b_j and to 0 with the other b_i, so its
    zero-extension u_j vanishes on the facet of cone(B) opposite b_j and
    is oriented inward.  On P, cone(B) is simplicial and full-dimensional,
    so these are its r facet normals, and its dual D_B = cone(u_j) is
    simplicial and pointed.  The readout scales row i of E_B by s / d_i,
    s the lcm of the |d_i|, an exact integer: the rows are then
    s G_{B,P}^-1, whose columns are the u_j times s > 0, so the
    orientation is kept, and each is divided by its gcd, in integers.

    Insertion (the double description method: Motzkin, Raiffa, Thompson
    and Thrall 1953; Fukuda and Prodon 1996).  Each extreme ray u carries
    its zero set, the generators inserted so far that it vanishes on;
    u_j carries B - {b_j}.  The other generators v are inserted one by
    one (`_insert`), and cut the dual D so far by {<v, .> >= 0}.  D lies
    in D_B, so it is pointed, and the extreme rays of D and {<v, .> >= 0}
    are the rays of D with <u, v> >= 0 and, for each adjacent pair p, n
    of them with <v, p> > 0 > <v, n>, the ray <v, p> n - <v, n> p, where
    their edge meets <v, .> = 0.  In a pointed cone p and n are adjacent
    exactly when no other extreme ray vanishes on every generator that
    both vanish on; their edge is a 2-face of the r-dimensional D, cut
    out by generators of rank r - 2, so at least r - 2 of them, which is
    tested first.  Both coefficients of the new ray are positive and p, n
    pair nonnegatively with every inserted generator, so the new ray
    vanishes on one exactly when p and n both do: its zero set is theirs
    shared, plus v, and is exact, as the next test needs.  When every
    generator is inserted, the zero sets are the incidences of the
    generators with the facets.  Independent generators (B is all of
    them, as in every cone of a simplicial fan) insert none.

    This is the only elimination a Cone's dual takes: the incidences give
    its dimension, pointedness, extremal rays and faces with no further
    elimination and no dot product.  A Cone's generators are already
    primitive and distinct, so it calls `_dual_of_primitive` directly.
    The other route to a dual is a pivot: a fan's n-dimensional simplicial
    cone gets it from a neighbour across a shared wall (`fan._across`),
    exactly as this elimination would give it.  The rank is read by
    `read_rank`.
    """
    rank = read_rank(rank)
    prim = []
    seen = set()
    for g in as_tuple(gens, "generators"):
        p = primitive(g)
        if p not in seen:
            if len(p) != rank:
                raise RankMismatch(
                    f"row of length {len(p)} in ambient rank {rank}")
            seen.add(p)
            prim.append(p)
    return _dual_of_primitive(prim, rank)[:2]


def _dual_of_primitive(prim, rank):
    """(E, L, Z): the `dual_description` (E, L) of distinct primitive
    integer vectors of length rank, and Z[k], the bitmask of the indices
    of the vectors that E[k] vanishes on."""
    m, pivots, _ = _echelon(_beside_identity(prim))
    span = [c for c in pivots if c < rank]
    L = _kernel(m, span, rank)
    dependent = [c - rank for c in pivots[len(span):]]
    s = lcm(*(row[c] for row, c in zip(m, span)))
    # row i of D^-1 E times s, an integer: s // d_i is exact
    columns = list(zip(*([x * (s // row[c]) for x in row[rank:]]
                         for row, c in zip(m, span))))
    # the vectors whose identity column holds no pivot: a basis B
    basis = ((1 << len(prim)) - 1) ^ sum(1 << j for j in dependent)
    rays = []
    for j, column in enumerate(columns):
        if basis >> j & 1:
            g = gcd(*column)
            u = [0] * rank
            for c, x in zip(span, column):
                u[c] = x // g
            rays.append((tuple(u), basis ^ 1 << j))
    for j in dependent:
        rays = _insert(rays, prim[j], j, len(span))
    rays.sort()
    return [u for u, _ in rays], L, [z for _, z in rays]


def _insert(rays, v, j, r):
    """The extreme rays of D and {u : <u, v> >= 0}, D a pointed cone in
    an r-dimensional space given by its extreme rays (u, Z), Z the bitmask
    of the generators u vanishes on, and v the generator of index j; each
    with its zero set (see `dual_description`)."""
    kept, pos, neg = [], [], []
    for u, z in rays:
        x = sum(map(mul, u, v))
        if x > 0:
            pos.append((x, u, z))
            kept.append((u, z))
        elif x < 0:
            neg.append((x, u, z))
        else:
            kept.append((u, z | 1 << j))
    zeros = [z for _, z in rays]
    for a, p, zp in pos:
        for b, n, zn in neg:
            z = zp & zn
            # adjacent: no third ray vanishes where p and n both do
            if z.bit_count() < r - 2 or sum(z & w == z for w in zeros) > 2:
                continue
            kept.append((_primitive([a * y - b * x for x, y in zip(p, n)]),
                         z | 1 << j))
    return kept


class Cone:
    """A finitely generated rational convex cone in Q^rank.

    Generators are normalized to primitive integer vectors, deduplicated and
    sorted; zero generators are dropped, so Cone(n, []) is the origin {0}.
    The dual description is computed lazily, once; all else is read off
    the incidences of the generators with its facets, the zero sets of
    the dual (`_inc[k]`, the bitmask of the generators on facet k), and
    cached.  `_of_primitive` builds a Cone on generators that are already
    primitive and distinct, a fan's rays, without reading them again.
    """

    __slots__ = ("rank", "gens", "_dual_pair", "_dual", "_inc",
                 "_rays", "_faces")

    def __init__(self, rank, generators=()):
        rank = read_rank(rank)
        out = set()
        for g in as_tuple(generators, "generators"):
            # one read and one gcd: the primitive vector on g's ray
            vec = _integral(as_tuple(g, "generator"))[0]
            if len(vec) != rank:
                raise RankMismatch(
                    f"generator of length {len(vec)} in ambient rank {rank}"
                )
            d = gcd(*vec)
            if d:
                out.add(tuple(vec) if d == 1 else tuple(x // d for x in vec))
        self._start(rank, out)

    @classmethod
    def _of_primitive(cls, rank, gens):
        """The Cone on gens, distinct primitive integer tuples of length
        rank (a validated fan's rays), read as they are: no check, no gcd."""
        cone = cls.__new__(cls)
        cone._start(rank, gens)
        return cone

    def _start(self, rank, gens):
        self.rank = rank
        self.gens = tuple(sorted(gens))
        self._dual_pair = None
        self._dual = None
        self._inc = None
        self._rays = None
        self._faces = None

    def __repr__(self):
        return f"Cone(rank={self.rank}, gens={list(self.gens)})"

    # -- duality ------------------------------------------------------------

    def dual_pair(self):
        if self._dual_pair is None:
            self._seed(*_dual_of_primitive(self.gens, self.rank))
        return self._dual_pair

    def _seed(self, E, L, Z):
        """Take (E, L, Z), exactly as `_dual_of_primitive` returns it on
        self.gens, as the dual, with no elimination (`fan._across` reads
        one off a neighbour's)."""
        self._dual_pair = E, L
        self._inc = Z
        if len(self.gens) + len(L) == self.rank:
            # independent generators: each is a ray
            self._rays = self.gens

    def opposite_normals(self):
        """dict: each generator -> the facet normal opposite it, for n
        independent generators in rank n.  The zero set of each normal
        holds every generator but that one."""
        E, _ = self.dual_pair()
        every = (1 << len(self.gens)) - 1
        return {self.gens[(every ^ z).bit_length() - 1]: u
                for u, z in zip(E, self._inc)}

    def dual_generators(self):
        E, L = self.dual_pair()
        return tuple(E) + tuple(L) + tuple(vneg(v) for v in L)

    def dual(self):
        if self._dual is None:
            self._dual = Cone(self.rank, self.dual_generators())
        return self._dual

    # -- basic predicates -----------------------------------------------------

    def dim(self):
        return self.rank - len(self.dual_pair()[1])

    def is_strongly_convex(self):
        # the generators on every facet span the lineality space, the
        # smallest face (with no facets, the cone is a subspace)
        self.dual_pair()
        return not reduce(and_, self._inc, (1 << len(self.gens)) - 1)

    def contains(self, v):
        # a positive multiple of v, which pairs with the same signs
        vec = _integral(as_tuple(v, "point"))[0]
        if len(vec) != self.rank:
            raise RankMismatch(
                f"point of length {len(vec)} in ambient rank {self.rank}"
            )
        return all(dot(u, vec) >= 0 for u in self.dual_generators())

    def equals(self, other):
        # the dual pair depends only on the cone, not on its generators
        return (self.rank == other.rank
                and self.dual_pair() == other.dual_pair())

    # -- extremal rays and faces ----------------------------------------------

    def rays(self):
        """Sorted primitive extremal rays; requires strong convexity."""
        self.dual_pair()  # independent generators are the rays
        if self._rays is None:
            if not self.is_strongly_convex():
                raise NotStronglyConvex(
                    "extremal rays are only defined for strongly convex cones"
                )
            # the smallest face containing g_i lies on the facets g_i lies
            # on; g_i is extremal iff that face is its ray, i.e. no other
            # (primitive, deduplicated) generator lies on all those facets
            every = (1 << len(self.gens)) - 1
            self._rays = tuple(
                g for i, g in enumerate(self.gens)
                if reduce(and_, (z for z in self._inc if z >> i & 1),
                          every) == 1 << i
            )
        return self._rays

    def face_ray_sets(self):
        """All faces as frozensets of indices into self.rays().

        The empty set is the face {0}; the full index set is the cone itself.
        """
        return self.face_table().keys()

    def facets(self):
        """[(u, F)] for each facet normal u, the extremal rays of the dual:
        F is the set of indices into self.rays() of the rays on u."""
        at = [self.gens.index(r) for r in self.rays()]
        return [(u, frozenset(p for p, i in enumerate(at) if z >> i & 1))
                for u, z in zip(self.dual_pair()[0], self._inc)]

    @staticmethod
    def simplex_faces(rays):
        """The face table of a simplicial cone, with as many rays as its
        dimension: every set of its rays is a face, of dimension its
        size."""
        return {frozenset(fs): k for k in range(len(rays) + 1)
                for fs in combinations(rays, k)}

    def face_table(self):
        """dict: face index set -> dimension of that face, read by
        `simplex_faces` for a simplicial cone.  Otherwise the faces are
        the intersections of facets, graded by dimension: a face has one
        more than the largest face strictly inside it, and {0} has 0."""
        if self._faces is None:
            rays = range(len(self.rays()))
            if len(rays) == self.dim():
                table = self.simplex_faces(rays)
            else:
                faces = {frozenset(rays)}
                for _, facet in self.facets():
                    faces |= {facet & f for f in faces}
                table = {}
                for fs in sorted(faces, key=len):
                    table[fs] = max(
                        (d + 1 for f, d in table.items() if f < fs),
                        default=0)
            self._faces = table
        return self._faces


# ---------------------------------------------------------------------------
# lattice points of rational polyhedra


# The most rows the elimination passes to the next level; past it, the
# levels below keep their input rows and lift over the region's box.
ROW_CEILING = 32


def _keep(rows, u, b, history):
    """Add <u, x> >= b to rows (u -> (b, history)), divided by the gcd of u
    with b rounded up, which keeps its lattice points.  Of two rows on one
    u the stronger stays, then the one from fewer input rows.  False when
    the row reads 0 >= b > 0."""
    g = gcd(*u)
    if not g:
        return b <= 0
    if g > 1:
        u, b = tuple(x // g for x in u), -(-b // g)
    old = rows.get(u)
    if old is None or old[0] < b or (
            old[0] == b and old[1].bit_count() > history.bit_count()):
        rows[u] = (b, history)
    return True


def _eliminate(rank, rows):
    """Fourier-Motzkin elimination of x_{rank-1}, ..., x_0 from integer rows:
    (levels, cut), levels None when a row reads 0 >= b > 0 (no lattice point).

    levels[k] is a pair (lower, upper) of lists of rows (u, a, b) meaning
    <u, (x_0..x_{k-1})> + a x_k >= b with a > 0 or a < 0: the input rows
    whose last nonzero coordinate is k, and the rows derived by cancelling
    the coordinates above k between rows of opposite signs, which `_keep`
    rounds so that every lattice point of the region satisfies them.  By
    Chernikov's rule a row combined from more than j + 1 input rows after j
    eliminations is implied by the others and dropped.  Past ROW_CEILING
    rows the elimination stops with cut True, and each level below keeps
    its input rows.  Otherwise every point of the levels below k lifts to
    x_k, so a level with rows of one sign or none is unbounded.
    """
    current = {}
    for i, (u, b) in enumerate(rows):
        if not _keep(current, u, b, 1 << i):
            return None, False
    inputs = list(current.items())
    levels = [([], []) for _ in range(rank)]
    for k in reversed(range(rank)):
        nxt = {u: bh for u, bh in current.items() if not u[k]}
        lower, upper = ([(u, b, h) for u, (b, h) in current.items()
                         if s * u[k] > 0] for s in (1, -1))
        levels[k] = tuple([(u[:k], u[k], b) for u, b, _ in side]
                          for side in (lower, upper))
        for u, b, h in lower:
            for v, c, g in upper:
                if (h | g).bit_count() <= rank - k + 1:
                    w = tuple(-v[k] * x + u[k] * y for x, y in zip(u, v))
                    if not _keep(nxt, w, -v[k] * b + u[k] * c, h | g):
                        return None, False
        if len(nxt) > ROW_CEILING:
            for u, (b, _) in inputs:
                j = max(i for i, x in enumerate(u) if x)
                if j < k:
                    levels[j][u[j] < 0].append((u[:j], u[j], b))
            return levels, True
        current = nxt
    return levels, False


def _lift(levels, box=None):
    """The lattice points of an eliminated system, in lexicographic order.

    x_k runs over the integers that its level's rows leave it given
    x_0..x_{k-1}, within box[k] when a box is given, which must bound each
    level whose rows have one sign.  Every input row is a row of the level
    of its last nonzero coordinate, so every point lifted is exact.
    """
    point = [0] * len(levels)

    def walk(k):
        (lower, upper), (lo, hi) = levels[k], box[k] if box else (None, None)
        for u, a, b in lower:
            x = -((sum(map(mul, u, point)) - b) // a)
            lo = x if lo is None else max(lo, x)
        for u, a, b in upper:
            x = (b - sum(map(mul, u, point))) // a
            hi = x if hi is None else min(hi, x)
        for x in range(lo, hi + 1):
            point[k] = x
            if k + 1 == len(levels):
                yield tuple(point)
            else:
                yield from walk(k + 1)

    return walk(0) if levels else iter([()])


def _row(constraint):
    """[*u, b] times the lcm of its denominators, of a constraint (u, b)."""
    try:
        u, b = constraint
        return _integral([*u, b])[0]
    except (TypeError, ValueError):
        raise SchemaError(f"constraint: expected a (normal, bound) pair, "
                          f"got {constraint!r}") from None


class Region:
    """The region {x : <u,x> >= b, <v,x> == c} in Q^rank, eliminated once.
    Its rows are one >= list, each given row times the lcm of its
    denominators, an equality as the row and its negative; a zero row
    that always holds is dropped, and one that never holds, 0 >= b > 0,
    is kept for the elimination to refute.  `_of_integer_rows` builds a
    Region on rows that are already integral, a fan's root regions and
    the reduced regions of `feasible`, without reading them again."""

    def __init__(self, rank, inequalities=(), equalities=()):
        rows = [_row(c) for c in as_tuple(inequalities, "inequalities")]
        for c in as_tuple(equalities, "equalities"):
            w = _row(c)
            rows += [w, vneg(w)]
        for w in rows:
            if len(w) != rank + 1:
                raise RankMismatch(f"constraint of length {len(w) - 1} "
                                   f"in ambient rank {rank}")
        self._start(rank, [(tuple(w[:-1]), w[-1]) for w in rows])

    @classmethod
    def _of_integer_rows(cls, rank, rows):
        """The Region {x : <u, x> >= b} of rows (u, b), u a tuple of rank
        ints and b an int, read as they are: no check, no lcm."""
        region = cls.__new__(cls)
        region._start(rank, rows)
        return region

    def _start(self, rank, rows):
        self.rank = rank
        self.rows = [(u, b) for u, b in rows if any(u) or b > 0]
        self.levels, self.cut = _eliminate(rank, self.rows)
        self._shape = None

    def points(self, box=None):
        """The lattice points, lazily and in lexicographic order and within
        `box` (integer (lo, hi) pairs) if one is given; else None when the
        region is unbounded and not empty over Q.  The elimination decides,
        unless it stopped at ROW_CEILING with a level left open: then
        `shape` does, and its box bounds the lift.
        """
        if self.levels is None:
            return iter(())
        if box is None and not all(lower and upper
                                   for lower, upper in self.levels):
            if not self.cut:
                return None
            direction, box = self.shape()
            if box is None:
                return iter(())
            if direction is not None:
                return None
        return _lift(self.levels, box)

    def shape(self):
        """(direction, box), read off one dual, of the homogenization
        {(x, t) : <u, x> >= b t, t >= 0}; taken once, when first asked.

          * direction: a lineality vector or extremal ray of the recession
            cone {x : <u,x> >= 0, <v,x> == 0}, or None when that cone is
            {0}: the region is bounded.  The recession cone is the face
            t = 0 of the homogenization, spanned by its lineality and its
            extremal rays with t = 0.
          * box: None when the region is empty, which is when no extremal
            ray has t > 0.  Otherwise the integer coordinate ranges of
            those rays read at t = 1; when direction is None they are the
            region's vertices and this is its bounding box.
        """
        if self._shape is None:
            hrows = [u + (-b,) for u, b in self.rows]
            HE, HL = dual_description(hrows + [(0,) * self.rank + (1,)],
                                      self.rank + 1)
            direction = next((g[:-1] for g in HL + HE if not g[-1]), None)
            vertices = [[Fraction(x, g[-1]) for x in g[:-1]]
                        for g in HE if g[-1]]
            box = [(math.ceil(min(c)), math.floor(max(c)))
                   for c in zip(*vertices)] if vertices else None
            self._shape = direction, box
        return self._shape

    def feasible(self, test=lambda point: True):
        """Exact test: does the region hold a lattice point that passes
        `test`?  By default every point passes.  The test must pass every
        point whose tight rows (<u, x> = b) lie among those of a point that
        it passes.

        A bounded region tests its lifted points until one passes; one
        without rows is Z^n, where no row is tight, so it tests 0.  An
        unbounded region can be lattice-free, so it is reduced: pick an
        integer direction c in its recession cone, drop the rows with
        <u, c> > 0 and recurse on Z^n / Zc, whose coordinates are the
        pairings with rows 1.. of T in the Smith form c = S D T (T is
        unimodular and T[0] is parallel to c).  A point z of the reduced
        region lifts to x = sum z_k T[k] + m c, m the least integer that
        makes every dropped row strict.  A kept row (<u, c> = 0) reads the
        same on z and on all of x + Zc, so x lies in the region and its
        tight rows are the kept rows tight at z, the fewest in its fibre.
        Each lattice point p of the region lies in the fibre of a point z
        of the reduced region, so if p passes, the lift of z passes; and
        z -> test(lift(z)) meets the precondition in the reduced region.
        """
        if not self.rows:
            return test((0,) * self.rank)
        points = self.points()
        if points is not None:
            return any(map(test, points))
        # points() is None only on a region unbounded and not empty over Q
        c = self.shape()[0]
        T = smith_normal_form([list(c)])[2]
        # <u, c> >= 0 since c generates the recession cone
        rows = [(u, dot(u, c), b) for u, b in self.rows]
        dropped = [row for row in rows if row[1]]

        def lift(z):
            x = [dot(col, (0, *z)) for col in zip(*T)]
            m = max(((b - dot(u, x)) // a + 1 for u, a, b in dropped),
                    default=0)
            return tuple(y + m * s for y, s in zip(x, c))

        return Region._of_integer_rows(self.rank - 1, [
            (tuple(dot(u, t) for t in T[1:]), b) for u, a, b in rows if not a
        ]).feasible(lambda z: test(lift(z)))


def lattice_points(rank, inequalities=(), equalities=(), box=None):
    """All integer points satisfying <u,x> >= b / <u,x> == b, lex sorted.

    Without an explicit `box`, an unbounded region that holds a lattice
    point holds infinitely many and raises UnboundedRegion.  A `box` (a
    list of rational (lo, hi) pairs per coordinate) is rounded inward and
    bounds the lift: the elimination sees the system's own rows only.
    The rank is read by `read_rank`; a box, or a pair of it, that is not
    a sequence, or a pair of another length, raises SchemaError.
    """
    rank = read_rank(rank)
    if box is not None:
        box = [as_tuple(pair, "box pair") for pair in as_tuple(box, "box")]
        if len(box) != rank:
            raise RankMismatch("box length disagrees with rank")
        if any(len(pair) != 2 for pair in box):
            raise SchemaError(f"box: expected (lo, hi) pairs, got {box!r}")
        # each pair times the lcm d of its denominators, rounded inward
        box = [(-(-lo // d), hi // d) for (lo, hi), d in map(_integral, box)]
    region = Region(rank, inequalities, equalities)
    points = region.points(box)
    if points is None:
        if region.feasible():
            raise UnboundedRegion(
                "the region is unbounded; pass an explicit box")
        return []
    return list(points)


def integer_feasible(rank, inequalities=(), equalities=()):
    """Does {x : <u,x> >= b, <v,x> == c} hold a lattice point?  (Region)
    The rank is read by `read_rank`."""
    return Region(read_rank(rank), inequalities, equalities).feasible()
