"""Polyhedral divisors on A^1 and P^1 and their additive symmetries.

A polyhedral divisor assigns to finitely many points z of the base curve a
polyhedron Delta_z with a common pointed tail cone sigma; evaluating at a
weight m in the dual of sigma gives an ordinary Q-divisor sum_z h_z(m) [z],
whose sections are the weight-m part of a coordinate ring.  A coloring
distinguishes a point z0 and one vertex of every coefficient away from
infinity; the coherence conditions below decide whether that choice yields a
one-parameter additive symmetry, and if so the divisor can be rewritten with
support in {0, infinity} and realized torically one rank higher.

A coloring is checked by one cone, the sum of the coefficients' tangent
cones at the chosen vertices: the tail and every difference v - v_z of a
vertex and the chosen vertex of its coefficient.  The chosen vertices sum to
a vertex of the Minkowski sum iff that cone is pointed (the proof is at
`ColoredDivisor`), and `coherent_check` lifts the same cone to sigma-tilde.
Input is read by the lattice readers: numbers by `as_fraction` / `as_int`
(InvalidInteger), lists and pairs by `as_tuple` / `as_pairs` and divisors,
colorings and tails by `as_instance` (SchemaError naming the argument).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import CurveCarrier, HomogeneousLND, lifted_cone
from .errors import (
    CurveMismatch,
    InvalidColoring,
    InvalidDivisor,
    NoDegreeZeroLND,
    NotCoherent,
    NotNormalized,
    NotProper,
    NotStronglyConvex,
    RankMismatch,
    WeightOutsideDual,
)
from .lattice import (Cone, as_fraction, as_instance, as_int, as_pairs,
                      as_tuple, dot, primitive, vadd, vsub)


class _Infinity:
    """The point at infinity on P^1 (a singleton sentinel)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INF"


INF = _Infinity()


def _point(z):
    """A curve point: INF, or z read by `as_fraction`."""
    return z if z is INF else as_fraction(z)


def point_order(z):
    """Sort key of a curve point: the finite points in order, then INF."""
    return (1, Fraction(0)) if z is INF else (0, as_fraction(z))


class TailedPolyhedron:
    """conv(vertices) + tail cone, with the vertex list pruned to minimal.

    The tail must be strongly convex.  The polyhedron is read off one
    cone, its lift spanned by (g, 0) for the tail generators g and (v, 1)
    for the given points v: that cone is pointed, and v is a vertex iff
    (v, 1) spans one of its extremal rays.  The lift is built when it is
    read: by the pruning, for two or more distinct points, and otherwise
    by the first ``contains_point``.  A lone point is a vertex as it is.
    """

    __slots__ = ("tail", "vertices", "_cone")

    def __init__(self, tail, vertices):
        if not as_instance(tail, Cone, "tail").is_strongly_convex():
            raise NotStronglyConvex("the tail cone must be strongly convex")
        vs = list(dict.fromkeys(  # distinct, in the order given
            tuple(map(as_fraction, as_tuple(v, "vertex")))
            for v in as_tuple(vertices, "vertices")))
        for vec in vs:
            if len(vec) != tail.rank:
                raise RankMismatch(
                    f"vertex of length {len(vec)} in ambient rank {tail.rank}"
                )
        if not vs:
            raise InvalidDivisor("a polyhedron needs at least one vertex")
        self.tail = tail
        self._cone = None
        if len(vs) > 1:  # a lone point is a vertex, with no dual to compute
            self._cone = lifted_cone(tail.rank, tail.gens, vs)
            rays = set(self._cone.rays())
            vs = [v for v in vs if primitive(v + (1,)) in rays]
        self.vertices = tuple(sorted(vs))

    @property
    def rank(self):
        return self.tail.rank

    def contains_point(self, p):
        point = as_tuple(p, "point") + (1,)
        if self._cone is None:  # a lone vertex, lifted when first read
            self._cone = lifted_cone(self.rank, self.tail.gens, self.vertices)
        return self._cone.contains(point)

    def is_trivial(self):
        """True when the polyhedron is the tail cone itself."""
        return self.vertices == (tuple(Fraction(0) for _ in range(self.rank)),)

    def support_min(self, m):
        """min <v, m> over the polyhedron, for m in the dual of the tail."""
        m = tuple(map(as_fraction, as_tuple(m, "weight")))
        return min(dot(v, m) for v in self.vertices)

    def translate(self, w):
        w = tuple(map(as_fraction, as_tuple(w, "translation")))
        if len(w) != self.rank:
            raise RankMismatch(
                f"translation of length {len(w)} in ambient rank {self.rank}"
            )
        return TailedPolyhedron(self.tail, [vadd(v, w) for v in self.vertices])

    def minkowski(self, other):
        as_instance(other, TailedPolyhedron, "other")
        tail = Cone(self.rank, self.tail.gens + other.tail.gens)
        return TailedPolyhedron(
            tail, [vadd(v, w) for v in self.vertices for w in other.vertices]
        )

    def equals(self, other):
        as_instance(other, TailedPolyhedron, "other")
        return (self.rank == other.rank
                and self.tail.equals(other.tail)
                and self.vertices == other.vertices)

    def __repr__(self):
        return (f"TailedPolyhedron(vertices={list(self.vertices)}, "
                f"tail={list(self.tail.gens)})")


def trivial_polyhedron(tail):
    rank = as_instance(tail, Cone, "tail").rank
    return TailedPolyhedron(tail, [(0,) * rank])


class FreeRankOne:
    """Weight space of a divisor over A^1: free of rank one over k[t].

    ``shifts`` lists (z, k) pairs; the generator is prod_z (t - z)^k.
    """

    __slots__ = ("shifts",)

    def __init__(self, shifts):
        read = ((_point(z), as_int(k)) for z, k in as_pairs(shifts, "shifts"))
        self.shifts = tuple(sorted(((z, k) for z, k in read if k),
                                   key=lambda p: point_order(p[0])))

    def __eq__(self, other):
        return isinstance(other, FreeRankOne) and self.shifts == other.shifts

    __hash__ = None

    def __repr__(self):
        return f"FreeRankOne({list(self.shifts)})"


class PolyhedralDivisor:
    """Finitely many coefficient polyhedra over points of A^1 or P^1.

    ``parts`` maps a point (a rational number, or INF over P^1) to its
    coefficient; coefficients equal to the tail cone are dropped.  The
    common tail cone must be strongly convex.
    """

    __slots__ = ("curve", "tail", "parts")

    def __init__(self, curve, tail, parts=()):
        if curve not in ("A1", "P1"):
            raise CurveMismatch("curve must be 'A1' or 'P1'")
        if not as_instance(tail, Cone, "tail").is_strongly_convex():
            raise NotStronglyConvex("the tail cone must be strongly convex")
        clean = {}
        for z, piece in as_pairs(parts, "parts"):
            z = _point(z)
            if z is INF and curve == "A1":
                raise CurveMismatch("A^1 has no point at infinity")
            if not isinstance(piece, TailedPolyhedron):
                piece = TailedPolyhedron(tail, piece)
            if not piece.tail.equals(tail):
                raise InvalidDivisor(
                    "all coefficients must share the tail cone")
            if z in clean:
                raise InvalidDivisor(f"duplicate point {z!r}")
            if not piece.is_trivial():
                clean[z] = piece
        self.curve = curve
        self.tail = tail
        self.parts = clean

    @property
    def rank(self):
        return self.tail.rank

    def support(self):
        return tuple(sorted(self.parts, key=point_order))

    def coefficient(self, z):
        return self.parts.get(_point(z)) or trivial_polyhedron(self.tail)

    def evaluate(self, m):
        """The Q-divisor sum h_z(m) [z] as a {z: value} dict.

        Only weights in the dual of the tail cone evaluate to something
        finite; anything else raises WeightOutsideDual.
        """
        m = tuple(map(as_fraction, as_tuple(m, "weight")))
        if len(m) != self.rank:
            raise RankMismatch(
                f"weight of length {len(m)} in ambient rank {self.rank}"
            )
        if any(dot(g, m) < 0 for g in self.tail.gens):
            raise WeightOutsideDual(f"{m} pairs negatively with the tail")
        return {z: piece.support_min(m) for z, piece in self.parts.items()}

    def degree(self):
        """Minkowski sum of all coefficients (P^1 only)."""
        if self.curve != "P1":
            raise CurveMismatch("the degree polyhedron only exists over P^1")
        total = trivial_polyhedron(self.tail)
        for piece in self.parts.values():
            total = total.minkowski(piece)
        return total

    def is_proper(self):
        """Whether the evaluations are semiample, and big inside the cone.

        Over A^1 this always holds.  Over P^1 it amounts to the degree
        polyhedron sitting inside the tail cone without meeting the origin.
        """
        if self.curve == "A1":
            return True
        deg = self.degree()
        if not all(self.tail.contains(v) for v in deg.vertices):
            return False
        return not deg.contains_point(tuple(0 for _ in range(self.rank)))

    def weight_dim(self, m):
        """Size of a weight space: a dimension over P^1, a module over A^1."""
        values = self.evaluate(m)
        if self.curve == "P1":
            total = sum(math.floor(v) for v in values.values())
            return max(0, 1 + total)
        return FreeRankOne(
            (z, -math.floor(v)) for z, v in values.items()
        )

    def equals(self, other):
        as_instance(other, PolyhedralDivisor, "other")
        if (self.curve != other.curve or self.rank != other.rank
                or not self.tail.equals(other.tail)):
            return False
        if set(self.parts) != set(other.parts):
            return False
        return all(self.parts[z].equals(other.parts[z]) for z in self.parts)

    def __repr__(self):
        inside = ", ".join(
            f"{z!r}: {piece!r}" for z, piece in
            sorted(self.parts.items(), key=lambda kv: point_order(kv[0]))
        )
        return f"PolyhedralDivisor({self.curve!r}, {{{inside}}})"


class ColoredDivisor:
    """A polyhedral divisor with a distinguished point and chosen vertices.

    ``z0`` is the distinguished point and ``vertices`` picks one vertex v_z
    of the coefficient at z0 and at every support point z other than
    ``zinf`` (the complementary point, required over P^1).  The chosen
    vertices must be lattice points away from z0, and their sum v_deg must
    be a vertex of the Minkowski sum of the coefficients involved.

    That is one test of one cone, ``tangent``, spanned by the tail's
    generators and every difference v - v_z of a vertex v and the chosen
    vertex v_z of the same coefficient: it must be pointed.  Proof
    (Ziegler, Lectures on Polytopes, 2.1-2.2): at a point p of a
    polyhedron P = conv(V) + tail, the tangent cone is T_p(P) =
    cone(P - p) = cone(V - p) + tail, which is {t(x - p) : x in P,
    t >= 0} as P is convex.  So T_p(P) holds a line, t(x - p) = -s(y - p)
    with s, t > 0, iff p lies strictly between two points x != y of P,
    that is, iff p is not a vertex.  Tangent cones add under Minkowski
    sums, T_(sum p_i)(sum P_i) = sum T_(p_i)(P_i), as cone(sum (P_i - p_i))
    contains each P_i - p_i (each holds 0) and lies in the sum of their
    cones.  So v_deg is a vertex of the Minkowski sum iff ``tangent``, the
    sum of the coefficients' tangent cones at the v_z, is pointed.
    `coherent_check` lifts it to sigma-tilde.
    """

    __slots__ = ("divisor", "z0", "zinf", "vertices", "v_deg", "tangent")

    def __init__(self, divisor, z0, vertices, zinf=None):
        z0 = _point(z0)
        if as_instance(divisor, PolyhedralDivisor, "divisor").curve == "P1":
            if zinf is None:
                raise InvalidColoring("a coloring over P^1 must name zinf")
            zinf = _point(zinf)
            if z0 == zinf:
                raise InvalidColoring("z0 and zinf must differ")
        else:
            if zinf is not None:
                raise InvalidColoring("A^1 has no complementary point")
            if z0 is INF:
                raise InvalidColoring("z0 must be a point of A^1")
        cprime = {z0} | {z for z in divisor.parts if z != zinf}
        normalized = {_point(z): v for z, v in as_pairs(vertices, "vertices")}
        if set(normalized) != cprime:
            raise InvalidColoring(
                "need exactly one chosen vertex for each of "
                f"{sorted(cprime, key=point_order)!r}"
            )
        chosen = {}
        gens = list(divisor.tail.gens)
        for z, v in normalized.items():
            vec = tuple(map(as_fraction, as_tuple(v, "vertex")))
            piece = divisor.coefficient(z)
            if vec not in piece.vertices:
                raise InvalidColoring(
                    f"{vec} is not a vertex of the coefficient at {z!r}"
                )
            if z != z0 and any(x.denominator != 1 for x in vec):
                raise InvalidColoring(
                    f"the chosen vertex at {z!r} must be a lattice point"
                )
            chosen[z] = vec
            gens += [vsub(w, vec) for w in piece.vertices if w != vec]
        tangent = Cone(divisor.rank, gens)
        if not tangent.is_strongly_convex():
            raise InvalidColoring(
                "the chosen vertices do not sum to a vertex of the total"
            )
        self.divisor = divisor
        self.z0 = z0
        self.zinf = zinf
        self.vertices = chosen
        self.v_deg = tuple(map(sum, zip(*chosen.values())))  # their sum
        self.tangent = tangent

    @property
    def v0(self):
        return self.vertices[self.z0]

    def c_prime(self):
        return tuple(sorted(self.vertices, key=point_order))

    def __repr__(self):
        return (f"ColoredDivisor(z0={self.z0!r}, zinf={self.zinf!r}, "
                f"vertices={self.vertices!r})")


@dataclass(frozen=True)
class CoherencePair:
    """A coloring together with a degree that passed all coherence checks."""

    colored: ColoredDivisor
    e: tuple
    d: int
    s: int
    sigma_tilde: Cone
    rho_tilde: tuple
    e_tilde: tuple


@dataclass(frozen=True)
class CoherenceViolation:
    condition: str  # "i" | "ii" | "iii" | "iv"
    message: str


def coherent_check(colored, e):
    """Decide whether (coloring, degree) yields an additive symmetry.

    Returns a CoherencePair on success and a CoherenceViolation naming the
    first failed condition otherwise:

      (i)   the twist s is integral, the lifted cone is strongly convex,
            the lift of the chosen vertex at z0 spans an extremal ray, and
            the lifted degree pairs nonnegatively with the other rays;
      (ii)  away from z0, every other vertex exceeds the chosen one by at
            least 1 against the degree;
      (iii) at z0 the same holds after clearing the denominator d;
      (iv)  over P^1 the vertices at zinf are bounded below by the degree
            pairing of the total chosen vertex.
    """
    div = as_instance(colored, ColoredDivisor, "colored").divisor
    e = tuple(as_int(x) for x in as_tuple(e, "degree"))
    if len(e) != div.rank:
        raise RankMismatch(
            f"degree of length {len(e)} in ambient rank {div.rank}"
        )
    v0 = colored.v0
    d = math.lcm(*(x.denominator for x in v0)) if v0 else 1
    num = -1 - d * dot(v0, e)
    if num % d != 0:
        return CoherenceViolation(
            "i", f"the twist (-1 - d<v0, e>)/d = {Fraction(num, d)} is not an integer"
        )
    s = num // d

    at_inf = []
    if div.curve == "P1":
        shift = vsub(colored.v_deg, v0)
        at_inf = [vadd(w, shift)
                  for w in div.coefficient(colored.zinf).vertices]
    sigma_tilde = lifted_cone(div.rank, colored.tangent.gens, [v0], at_inf)
    if not sigma_tilde.is_strongly_convex():
        return CoherenceViolation(
            "i", "the lifted cone is not strongly convex"
        )
    rho_tilde = primitive(v0 + (Fraction(1),))
    rays = sigma_tilde.rays()
    if rho_tilde not in rays:
        return CoherenceViolation(
            "i", f"the lifted vertex ray {rho_tilde} is not extremal"
        )

    for z in colored.c_prime():
        if z == colored.z0:
            continue
        vz = colored.vertices[z]
        for v in div.coefficient(z).vertices:
            if v != vz and dot(v, e) < 1 + dot(vz, e):
                return CoherenceViolation(
                    "ii",
                    f"vertex {v} at {z!r} pairs below the chosen one + 1",
                )
    for v in div.coefficient(colored.z0).vertices:
        if v != v0 and d * dot(v, e) < 1 + d * dot(v0, e):
            return CoherenceViolation(
                "iii",
                f"vertex {v} at z0 = {colored.z0!r} pairs below the chosen"
                " one + 1/d",
            )
    if div.curve == "P1":
        bound = -1 - d * dot(colored.v_deg, e)
        for v in div.coefficient(colored.zinf).vertices:
            if d * dot(v, e) < bound:
                return CoherenceViolation(
                    "iv",
                    f"vertex {v} at zinf = {colored.zinf!r} pairs below"
                    f" {Fraction(bound, d)}",
                )

    # rho_tilde = (d v0, d), since d is the least common denominator of
    # v0, and d s = -1 - d<v0, e>: so <rho_tilde, e_tilde> = -1 always
    e_tilde = e + (s,)
    for ray in rays:
        if ray == rho_tilde:
            continue
        pairing = dot(ray, e_tilde)
        if pairing < 0:
            return CoherenceViolation(
                "i", f"the lifted degree pairs to {pairing} with ray {ray}"
            )
    return CoherencePair(colored, e, d, s, sigma_tilde, rho_tilde, e_tilde)


def degree_zero_normalize(colored):
    """Rewrite a coloring of degree zero with support in {0, infinity}.

    All coefficients away from the complementary point collapse to lattice
    translates of the tail cone and are moved into the coefficient at
    infinity; the distinguished point is relabeled to 0.  The degree
    polyhedron is unchanged.  Raises NotProper or NoDegreeZeroLND.
    """
    div = as_instance(colored, ColoredDivisor, "colored").divisor
    if not div.is_proper():
        raise NotProper("the divisor is not proper")
    zero = tuple(0 for _ in range(div.rank))
    res = coherent_check(colored, zero)
    if isinstance(res, CoherenceViolation):
        raise NoDegreeZeroLND(
            f"coherence condition ({res.condition}) fails at degree zero:"
            f" {res.message}"
        )
    if div.curve == "A1":
        return PolyhedralDivisor("A1", div.tail, {})
    # at degree zero, conditions (ii) and (iii) leave one vertex in every
    # coefficient but the one at zinf, so the degree is
    # Delta_zinf + v_deg + tail, which is the degree of the result
    inf_part = div.coefficient(colored.zinf).translate(colored.v_deg)
    return PolyhedralDivisor("P1", div.tail, {INF: inf_part})


def toric_realization(div):
    """The affine toric model of a normalized divisor, one rank higher.

    Over A^1 the divisor must be trivial and the result is sigma x Q>=0;
    over P^1 the support must lie in {infinity}.  Returns the lifted cone
    together with the degree of the fiberwise translation symmetry.
    """
    if not as_instance(div, PolyhedralDivisor, "div").is_proper():
        raise NotProper("the divisor is not proper")
    n = div.rank
    if div.curve == "A1" and div.parts:
        raise NotNormalized("the divisor still has finite support")
    if any(z is not INF for z in div.parts):
        raise NotNormalized("support does not lie in {infinity}")
    at_inf = div.coefficient(INF).vertices if div.curve == "P1" else ()
    zero = tuple(0 for _ in range(n))
    # the carrier's lift, with the trivial vertex 0 at 0
    return lifted_cone(n, div.tail.gens, [zero], at_inf), zero + (-1,)


def horizontal_lnd(colored, e):
    """The derivation of a coherent coloring on its {0, infinity} model.

    Checks coherence, rewrites the divisor so that the distinguished point
    sits at 0 (moving the collapsed coefficients into infinity over P^1),
    and returns the rewritten divisor together with the derivation acting
    on pairs (m, r) by chi^m t^r -> d (<v0, m> + r) chi^(m+e) t^(r+s).
    """
    res = coherent_check(colored, e)
    if isinstance(res, CoherenceViolation):
        raise NotCoherent(
            f"coherence condition ({res.condition}) fails: {res.message}"
        )
    div = colored.divisor
    for z in colored.c_prime():
        if z == colored.z0:
            continue
        piece = div.coefficient(z)
        if len(piece.vertices) != 1:
            raise NotNormalized(
                f"the coefficient at {z!r} is not a translate of the tail"
            )
    part0 = div.coefficient(colored.z0)
    parts = {Fraction(0): part0}
    at_inf = None
    if div.curve == "P1":
        shift = vsub(colored.v_deg, colored.v0)
        parts[INF] = div.coefficient(colored.zinf).translate(shift)
        at_inf = parts[INF].vertices
    # every coefficient away from z0 and zinf is v_z + tail (checked just
    # above), so over P^1 the rewritten divisor keeps the degree
    # Delta_z0 + Delta_zinf + (v_deg - v0)
    normalized = PolyhedralDivisor(div.curve, div.tail, parts)
    carrier = CurveCarrier(div.curve, div.tail, part0.vertices, at_inf)
    lnd = HomogeneousLND.horizontal(
        carrier, colored.v0, res.d, res.e, res.s
    )
    return normalized, lnd
