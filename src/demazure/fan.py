"""Fans of strongly convex rational cones.

A fan is built from a list of primitive rays and a list of maximal cones
given by ray indices.  Construction closes the maximal cones under faces,
registers every listed ray as a 1-cone and the origin as the 0-cone, and
validates that any two cones intersect in a common face.

Validation runs in stages: the rays (`ray_stage`), the supplied cones
(`cone_stage`), the wall certificate (`Fan.certified_complete`), and the
pairs of generating cones (`Fan.intersection_defect`) only when the
certificate does not hold.  A complete simplicial fan is certified by
the walls of its cones and one covering point; the certificate only ever
says "valid", so every error comes from the other stages.  Any other fan
is checked pair by pair: by containment, by a lone ray, or by one dual.
Each stage reports typed DemazureErrors; `build_fan` raises the first
one, `serialize.fan_diagnostics` lists all of the first failing stage.

Each supplied cone has one dual, on the rays as the ray stage made them.
The first cone of each component of the supplied cones' wall graph takes
it by one elimination, and every other n-dimensional simplicial cone by
one integer pivot across a wall from a neighbour (`_cone_duals`, with
the proof at `_across`), so a complete simplicial fan takes one
elimination.  The fan reads the rest off each dual: the cone's extremal
rays, and so its key; its faces, every subset of the key when it is
simplicial; and, for n independent rays in rank n, whether it is
unimodular, from the pairings of its normals with its rays
(`Fan.unimodular_cones`).  A cone whose key is a subset of a unimodular
cone's key is smooth and its rays are a saturated basis; any other cone
takes one Smith form, which gives both (`Fan._lattice`).

The fan has one wall table (`Fan.walls`).  In rank >= 2, when the walk
leaves every listed cone by its walls (each has n independent
generators, and none is listed twice), the walk hands over the table it
already holds: the (n - 1)-subsets of the keys, each with the normal
opposite the generator off it.  Any other fan reads its walls off the
facets of its n-dimensional generating cones.

Cones are keyed by their extremal-ray index sets; that is sound because a
strongly convex cone is determined by its extremal rays.  The canonical id
of a cone is "dim:i1,i2,..." (the origin is "0:").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd
from operator import mul

from .errors import (
    BadIntersection,
    ConeNotInFan,
    DuplicateRay,
    NotStronglyConvex,
    RankMismatch,
    SchemaError,
    UnknownRay,
    ZeroVector,
)
from .lattice import (
    Cone,
    as_instance,
    as_int,
    as_tuple,
    dot,
    dual_description,
    primitive,
    read_rank,
    smith_normal_form,
    vneg,
)


@dataclass(frozen=True)
class ConeRef:
    """A cone of the fan: sorted ray indices, dimension, provenance flag."""

    indices: tuple
    dim: int
    is_maximal: bool  # whether this cone was supplied as a maximal cone


def _as_key(cone):
    if isinstance(cone, ConeRef):
        return frozenset(cone.indices)
    if isinstance(cone, frozenset):
        return cone
    return frozenset(as_int(i) for i in as_tuple(cone, "cone"))


class Fan:
    """The cones of a fan, generated by its supplied maximal cones.

    `supplied` maps the extremal-ray index set of each supplied maximal
    cone to its geometry; `self.supplied` lists those sets.  The
    generating cones are the supplied ones followed by every ray that is
    not supplied as a 1-cone; they and their faces are the cones of the
    fan.  A supplied cone's faces are read off its dual; a ray that is
    not supplied has the faces {0} and itself, and gets a geometry only
    when `cone_geometry` asks for one.
    The fan is valid iff every two generating cones meet in a common face
    (the same then holds for all their faces).  `certified_complete`
    proves that at once for a complete simplicial fan, from the table of
    walls (`walls`); any other fan is checked pair by pair by
    `intersection_defect`: by containment, by a lone ray, or by one dual.
    A supplied cone's faces and unimodularity are read off its key and
    its one dual (eliminated, or pivoted from a neighbour's by
    `cone_stage`); a cone is unimodular iff each facet normal pairs to
    1 with the ray off its facet (the proof is at `unimodular_cones`),
    and a cone is a face of one iff its key is a subset of that key.
    The wall table is the one `cone_stage` passes as `walls` when, in
    rank >= 2, its walk left every listed cone, else read off the
    cones' facets when first asked.  The cones and their dimensions are
    read as sorted index tuples, every subset of a simplicial cone's
    key, and through `face_sets` for a supplied cone that is not.  The
    other `face_sets` tables and the lattice readings (`_lattice`) are
    built when asked and memoized per cone, the walls, `unimodular_cones`
    and `has_convex_support` per fan.
    """

    def __init__(self, rank, rays, supplied, walls=None):
        self.rank = rank
        self.rays = rays  # tuple of primitive integer tuples
        self._ray_index = {r: i for i, r in enumerate(rays)}
        self._geom = dict(supplied)
        self._face_sets = {}
        self._lattices = {}  # memo of _lattice, per cone
        self._walls = walls  # the walk's wall table, or None: facets
        self._unimodular = None  # memo of unimodular_cones
        self._convex = None  # memo of has_convex_support
        self._symmetry = None  # memo of orbits.symmetry_chain
        self._automorphisms = None  # memo of orbits.fan_automorphisms
        self.supplied = list(supplied)
        self.generating = list(supplied)
        # every face of a generating cone, as sorted indices: its dim; a
        # ray that is not supplied has the faces {0} and itself
        dims = {(): 0}
        for i in range(len(rays)):
            if frozenset({i}) not in supplied:
                self.generating.append(frozenset({i}))
                dims[(i,)] = 1
        for key, geom in supplied.items():
            if len(key) == geom.dim():
                idxs = sorted(key)
                for k in range(1, len(idxs) + 1):
                    dims.update(dict.fromkeys(
                        itertools.combinations(idxs, k), k))
            else:
                dims.update((tuple(sorted(fs)), d)
                            for fs, d in self.face_sets(key).items())
        # dict: frozenset(indices) -> ConeRef, canonical order
        self.cones = {
            frozenset(idxs): ConeRef(idxs, dim, frozenset(idxs) in supplied)
            for idxs, dim in sorted(dims.items(),
                                    key=lambda kv: (kv[1], kv[0]))
        }

    def __repr__(self):
        return f"Fan(rank={self.rank}, rays={len(self.rays)}, cones={len(self.cones)})"

    def __contains__(self, cone):
        return _as_key(cone) in self.cones

    def ray_index(self, vector):
        """Index of a primitive ray vector, or None (also for a vector with
        an unhashable entry); SchemaError when it is not a sequence."""
        vector = as_tuple(vector, "vector")
        try:
            return self._ray_index.get(vector)
        except TypeError:
            return None

    def ref(self, cone):
        key = _as_key(cone)
        try:
            return self.cones[key]
        except KeyError:
            raise ConeNotInFan(f"no cone with rays {sorted(key)}") from None

    def cone_id(self, cone):
        ref = self.ref(cone)
        return f"{ref.dim}:{','.join(map(str, ref.indices))}"

    def cone_geometry(self, cone):
        key = _as_key(cone)
        if key not in self._geom:
            self.ref(key)  # raises ConeNotInFan when absent
            self._geom[key] = Cone._of_primitive(
                self.rank, [self.rays[i] for i in key])
        return self._geom[key]

    def face_sets(self, cone):
        """Faces of a fan cone as frozensets of fan ray indices, mapped to
        their dimensions, memoized per cone: `Cone.face_table` of the
        cone's geometry, taken to fan indices.  A simplicial cone whose
        geometry is not built yet (a face or a ray) builds none: its
        table is `Cone.simplex_faces` of its key."""
        key = _as_key(cone)
        if key not in self._face_sets:
            if key not in self._geom and len(key) == self.ref(key).dim:
                table = Cone.simplex_faces(key)
            else:
                geom = self.cone_geometry(key)
                local = [self._ray_index[r] for r in geom.rays()]
                table = {frozenset(local[j] for j in fs): d
                         for fs, d in geom.face_table().items()}
            self._face_sets[key] = table
        return self._face_sets[key]

    def unimodular_cones(self):
        """The keys of the unimodular supplied cones, computed once per fan.

        A supplied cone of n independent generators in rank n is
        unimodular (its generators are a basis of N) iff each facet normal
        u_j pairs to 1 with g_j, the generator off its facet; u_j pairs to
        0 with the others, so that is <u_j, sum of the g_i> = 1.  Proof:
        the columns c_j of G^-1 satisfy <g_i, c_j> = delta_ij, so c_j lies
        on the ray of u_j.  If |det G| = 1, c_j is integral, and primitive
        as it pairs to 1 with g_j, so c_j = u_j.  Conversely, if every
        <u_j, g_j> = 1, then c_j = u_j and G^-1 is integral, so det G and
        det G^-1 are integers with product 1.
        """
        if self._unimodular is None:
            self._unimodular = []
            for key in self.supplied:
                geom = self._geom[key]
                E, L = geom.dual_pair()
                if len(geom.gens) != self.rank or L:
                    continue
                p = [sum(x) for x in zip(*geom.gens)]
                if all(dot(u, p) == 1 for u in E):
                    self._unimodular.append(key)
        return self._unimodular

    def _lattice(self, key):
        """(a basis of N ∩ span(cone), whether the cone's rays are one),
        memoized per cone key.

        The rays of a face of a unimodular cone are part of a basis of N,
        so they are a basis of N ∩ span(face) (Cox-Little-Schenck, Toric
        Varieties, 1.3.12); in the fan, the faces of a unimodular supplied
        cone are the subsets of its key (`unimodular_cones`).  Any other
        cone takes one Smith form S D T of its rays: the rows of T at the
        nonzero invariant factors are a basis of N ∩ span, and the rays
        are one iff those factors are exactly len(rays) ones, so a cone
        with dependent rays reads False.
        """
        if key not in self._lattices:
            rays = [self.rays[i] for i in sorted(key)]
            if any(key <= u for u in self.unimodular_cones()):
                self._lattices[key] = rays, True
            else:
                _, D, T = smith_normal_form(rays)
                # a non-simplicial cone has more rays than the rank
                at = [k for k, d in enumerate(D[:len(T)]) if d[k]]
                self._lattices[key] = ([T[k] for k in at], [
                    D[k][k] for k in at] == [1] * len(rays))
        return self._lattices[key]

    def saturated_basis(self, cone):
        """A basis of N ∩ span(cone), memoized per cone (`_lattice`).
        Only its length and the gcd of its pairings with a character are
        read, and neither depends on the basis chosen."""
        key = _as_key(cone)
        self.ref(key)  # raises ConeNotInFan when absent
        return self._lattice(key)[0]

    def maximal_keys(self):
        """Cones not properly contained in another fan cone."""
        keys = list(self.cones)
        return [k for k in keys
                if not any(k < other for other in keys)]

    def walls(self):
        """dict: each facet of an n-dimensional generating cone, as a ray
        index set -> [(cone, facet normal)] over the cones it bounds.
        This is the fan's one wall table.

        In rank >= 2, when the wall walk of `cone_stage` left every
        listed cone (each has n independent generators, and none is
        listed twice), the table is the walk's (`_cone_duals`): each
        cone's walls are its (n - 1)-subsets, with the normal opposite the
        generator off each.  Otherwise (`_zero_set_walls`) the walls are
        the facets of the n-dimensional generating cones (`Cone.facets`),
        once, when first asked.  Both list the cones in supplied order.
        An unused ray is a generating 1-cone, with no wall in rank >= 2.
        In a valid fan the n-dimensional cones are the n-dimensional
        generating ones.
        """
        if self._walls is None:
            self._walls = self._zero_set_walls()
        return self._walls

    def _zero_set_walls(self):
        """The wall table read off the facets of the n-dimensional
        generating cones, in generating order, in fan indices."""
        table = {}
        for key in self.generating:
            if self.cones[key].dim != self.rank:
                continue
            geom = self.cone_geometry(key)
            local = [self._ray_index[r] for r in geom.rays()]
            for u, facet in geom.facets():
                table.setdefault(frozenset(local[j] for j in facet),
                                 []).append((key, u))
        return table

    def certified_complete(self):
        """Whether the generating cones are certified to form a complete
        simplicial fan, so that every two meet in a common face.

        The certificate: every supplied cone is simplicial and
        n-dimensional; every listed ray is a ray of one of them; every
        wall (`walls`) lies in exactly two cones; the ray of the second
        off the wall pairs negatively with the first one's normal, so the
        two lie on opposite sides; and p, the sum of the rays of the first
        cone, lies in no other cone.  That is n lookups and dot products
        per cone, with no new dual.  The walls are the fan's one table
        (`walls`), the wall walk's own when, in rank >= 2, the walk left
        every listed cone: it does on every fan that the certificate
        holds for and that lists no cone twice.  False says
        only that the certificate does not apply, and the pair loop then
        decides: at most n supplied cones (too few to be complete, and an
        affine fan pays one len), a cone that is not simplicial or not
        n-dimensional (a ray supplied as a 1-cone in rank >= 2), an
        unused ray, an unmatched or same-side wall, or a covered p.

        Why it suffices: the pseudo-manifold and covering
        characterization of triangulations (De Loera-Rambau-Santos,
        Triangulations, 2010, 4.5), on the sphere.  Call x generic if it
        lies on no cone's boundary, and let deg(x) count the cones that
        contain it.  R^n minus the faces of dimension at most n - 2 and
        the meets of two distinct wall hyperplanes is connected, so a path
        joins any two generic points there, crossing boundaries only at
        relative interior points x of walls, all in one hyperplane H.  A
        cone with x on its boundary has one facet through x, and that
        wall's other cone lies across H: as many cones are left as
        entered, and deg is constant.  p is interior to the first cone
        and in no other, so deg = 1: the interiors are disjoint, and the
        closed cones cover R^n.  They also meet in common faces, in every
        codimension.  Let y lie in cones C and D, G being the face of C
        with y in its relative interior.  Modulo span(G), the cones
        through G are simplicial, and each of their walls through G lies
        in two of them on opposite sides, so the same argument gives
        them a degree >= 1 there: they cover a neighbourhood of y.  D
        has generic points arbitrarily near y, each in a cone through G,
        and deg = 1 makes that cone D.  So G is a face of D, y lies in
        the cone of the common rays, and C ∩ D is that cone, a face of
        both.
        """
        n = self.rank
        if len(self.supplied) <= n:
            return False
        if any(len(key) != n or self.cones[key].dim != n
               for key in self.supplied):
            return False
        if len(frozenset().union(*self.supplied)) != len(self.rays):
            return False
        for wall, cones in self.walls().items():
            if len(cones) != 2:
                return False
            (_, u), (other, _) = cones
            (far,) = other - wall
            if dot(u, self.rays[far]) >= 0:
                return False
        first, *others = self.supplied
        p = [sum(x) for x in zip(*(self.rays[i] for i in first))]
        if any(all(dot(u, p) >= 0 for u in self._geom[key].dual_pair()[0])
               for key in others):
            return False
        self._convex = True  # a complete fan: has_convex_support holds
        return True

    def has_convex_support(self):
        """Whether the support |Sigma| is certified convex: the fan is
        complete or affine.  Computed once per fan.

        A complete fan is one that `certified_complete` proved (the call
        records it), or else one that `is_complete` finds, for the fans the
        certificate does not apply to.  An affine fan has one supplied cone
        holding every listed ray; every cone of a valid fan is then a face
        of it.  Any other fan reads False, even when its support happens to
        be convex, so callers treat False as "unknown".
        """
        if self._convex is None:
            self._convex = (any(len(key) == len(self.rays)
                                for key in self.supplied)
                            or is_complete(self))
        return self._convex

    def intersection_defect(self, a, b):
        """None if generating cones a and b meet in a common face, else the
        BadIntersection naming them.

        Nested cones meet in the smaller one.  A lone ray meets a cone it
        is not a ray of in 0 or in itself; distinct primitive rays never
        contain each other.  Any other pair takes one dual, of the two
        cones' dual generators: the intersection is pointed, so it is
        spanned by the common rays iff each of its extremal rays is one.
        Then the common rays must span a face of both.
        """
        common = a & b
        if common == a or common == b:
            spanned = True
        elif len(a) == 1 or len(b) == 1:
            (i,), other = (a, b) if len(a) == 1 else (b, a)
            spanned = (len(other) == 1
                       or not self._geom[other].contains(self.rays[i]))
        else:
            E, _ = dual_description(self._geom[a].dual_generators()
                                    + self._geom[b].dual_generators(),
                                    self.rank)
            spanned = all(self._ray_index.get(e) in common for e in E)
        if not spanned:
            why = "their intersection is not spanned by common rays"
        elif not (self._has_face(a, common) and self._has_face(b, common)):
            why = "the common rays do not span a face of both"
        else:
            return None
        return BadIntersection(self.cone_id(a), self.cone_id(b), why)

    def _has_face(self, key, sub):
        """Whether `sub`, a subset of the fan cone `key`, spans a face of
        it: every subset does when the cone is simplicial, and no face
        table is built for that."""
        return len(key) == self.cones[key].dim or sub in self.face_sets(key)


def _sequence(obj, what, violations):
    """obj as a tuple, or None after recording the SchemaError of
    `as_tuple` when it is not a sequence."""
    try:
        return as_tuple(obj, what)
    except SchemaError as exc:
        violations.append(exc)
        return None


def ray_stage(rank, ray_list):
    """The rays as primitive vectors, and the violations among them.

    Every ray is checked: SchemaError for a ray that is not a sequence
    (or rays that are not a sequence), RankMismatch for a wrong length,
    ZeroVector, and DuplicateRay when two rays are equal after
    normalization.
    """
    rays = []
    violations = []
    seen = {}
    for idx, r in enumerate(_sequence(ray_list, "rays", violations) or ()):
        r = _sequence(r, f"ray {idx}", violations)
        if r is None:
            continue
        if len(r) != rank:
            violations.append(RankMismatch(
                f"ray {idx} has length {len(r)}, expected {rank}"
            ))
            continue
        if not any(r):
            violations.append(ZeroVector(f"ray {idx} is the zero vector"))
            continue
        p = primitive(r)
        if p in seen:
            violations.append(DuplicateRay(
                f"rays {seen[p]} and {idx} span the same ray {list(p)}"
            ))
            continue
        seen[p] = idx
        rays.append(p)
    return tuple(rays), violations


def _across(opposite, out, r):
    """The Cone of n independent generators with `out` replaced by r, its
    dual read off theirs by one pivot across the wall they share, or None
    when r lies on the span of that wall.  `opposite` maps each generator
    to the facet normal opposite it (`Cone.opposite_normals`).

    The pivot is the basis exchange of the simplex method.  Let u_k be
    the inward primitive normal opposite g_k: it vanishes on every g_l
    with l != k and pairs to d_k > 0 with g_k.  Replace g_j by r and put
    a = <u_j, r>.  If a = 0, r lies on the span of the wall and the new
    cone is not n-dimensional.  Otherwise, with s = sign(a), the new
    normal opposite r is s u_j, and the one opposite g_k, k != j, is
    w_k = s (a u_k - <u_k, r> u_j) divided by its gcd.  w_k vanishes on
    g_l for l != j, k, as u_k and u_j do, and on r, as
    a <u_k, r> - <u_k, r> a = 0; it pairs to |a| d_k > 0 with g_k.  s u_j
    vanishes on the wall and pairs to |a| > 0 with r.  So these are the
    n inward primitive facet normals of the new cone, whose generators
    are independent, and so the ones `_dual_of_primitive` reads off, for
    any two cones, in a valid fan or not.  The dual is seeded as that
    routine returns it: E sorted, L = [], and Z[k] the bitmask of every
    generator but the one opposite E[k].
    """
    uj = opposite[out]
    a = sum(map(mul, uj, r))
    if not a:
        return None
    s = 1 if a > 0 else -1
    normals = {r: uj if a > 0 else vneg(uj)}
    for g, u in opposite.items():
        if g != out:
            b = sum(map(mul, u, r))
            w = [s * (a * x - b * y) for x, y in zip(u, uj)]
            c = gcd(*w)
            normals[g] = tuple(x // c for x in w)
    gens = sorted(normals)
    every = (1 << len(gens)) - 1
    dual = sorted((normals[g], every ^ 1 << k) for k, g in enumerate(gens))
    cone = Cone._of_primitive(len(r), gens)
    cone._seed([u for u, _ in dual], [], [z for _, z in dual])
    return cone


def _cone_duals(rank, rays, listed):
    """(duals, walls): dict of each listed cone's index set -> its Cone,
    and the wall table of the listed cones when the walk covers them.

    The cones of rank indices are joined by their walls, the
    (rank - 1)-subsets of their index lists, which needs no dual.  The
    first cone of each component of that wall graph, in input order,
    takes one elimination; every other cone that the walk reaches from
    one with n independent generators takes one pivot across the wall
    they share (`_across`), and is returned with its dual.  A cone of
    another size, one with no neighbour, and one that its pivot finds
    not n-dimensional take their own elimination when first asked.  So
    a complete simplicial fan takes one elimination per component.

    The walk leaves each cone of n independent generators by its walls,
    with the normal opposite each generator (`Cone.opposite_normals`),
    which is the cone's normal on the wall off that generator.  When, in
    rank >= 2, it leaves every listed cone so (a cone listed twice is
    left once), `walls` maps each (rank - 1)-subset to [(cone, its normal
    there)] over the cones on it, in input order: `Fan.walls` of these
    cones, read off no facet.  Otherwise `walls` is None.  Rank 1 is
    excluded: there a ray that no listed cone names is an n-dimensional
    generating cone, so with no listed cone both rays share the wall
    {0}, where the empty walk would hand over no wall.
    """
    full = [idxs for idxs in listed if len(idxs) == rank]
    walls = {}
    if len(full) > 1:  # a lone cone shares no wall
        for idxs in full:
            key = frozenset(idxs)
            for i in idxs:
                walls.setdefault(key - {i}, []).append((key, i))
    # cone -> (its index off a shared wall, the neighbour, the neighbour's)
    steps = {}
    for sides in walls.values():
        for key, i in sides:
            for other, far in sides:
                if other != key:
                    steps.setdefault(key, []).append((i, other, far))
    duals = {}
    left = {}  # each cone the walk left: generator -> normal opposite it
    for idxs in listed:
        key = frozenset(idxs)
        if key in duals:
            continue
        duals[key] = Cone._of_primitive(rank, [rays[i] for i in idxs])
        todo = [key]
        while todo:
            key = todo.pop()
            if key not in steps or duals[key].dual_pair()[1]:
                continue  # no neighbour, or no n independent generators
            opposite = left[key] = duals[key].opposite_normals()
            for i, other, far in steps[key]:
                if other not in duals:
                    duals[other] = (
                        _across(opposite, rays[i], rays[far])
                        or Cone._of_primitive(rank, [rays[j] for j in other]))
                    todo.append(other)
    if rank < 2 or len(left) != len(listed):
        return duals, None
    return duals, {wall: [(key, left[key][rays[i]]) for key, i in sides]
                   for wall, sides in walls.items()}


def cone_stage(rank, rays, maximal_cones):
    """The fan of the supplied maximal cones, its pairs not yet checked,
    and the violations among the cones.

    Every cone is checked, and its violations are listed in input order:
    SchemaError for a cone that is not a sequence (or cones that are not
    a sequence), UnknownRay for an index outside the ray list,
    NotStronglyConvex for a cone that contains a line.  Each cone's dual
    is taken by `_cone_duals`, after every cone is parsed.  The fan is
    None when there is a violation.
    """
    ray_of = {r: i for i, r in enumerate(rays)}
    violations = []
    listed = []  # per cone: its sorted ray indices, or its violation
    cones = _sequence(maximal_cones, "max cones", violations) or ()
    for k, raw in enumerate(cones):
        raw = _sequence(raw, f"max cone {k}", listed)
        if raw is None:
            continue
        idxs = sorted({as_int(i) for i in raw})
        if any(i < 0 or i >= len(rays) for i in idxs):
            listed.append(UnknownRay(
                f"cone {idxs} references a ray that is not listed"
            ))
        else:
            listed.append(idxs)
    duals, walls = _cone_duals(
        rank, rays, [idxs for idxs in listed if isinstance(idxs, list)])
    supplied = {}
    for idxs in listed:
        if not isinstance(idxs, list):
            violations.append(idxs)
            continue
        geom = duals[frozenset(idxs)]
        if not geom.is_strongly_convex():
            violations.append(NotStronglyConvex(
                f"maximal cone {idxs} contains a line"
            ))
            continue
        # a listed ray that is not extremal is a 1-cone inside the cone,
        # so in a valid fan geom is spanned by exactly its extremal rays
        supplied.setdefault(frozenset(ray_of[r] for r in geom.rays()), geom)
    if violations:
        return None, violations
    return Fan(rank, rays, supplied, walls), []


def build_fan(rank, ray_list, maximal_cones):
    """Validated fan from rays and maximal cones (lists of ray indices).

    Rays are normalized to primitive vectors.  The first violation of the
    ray stage, else of the cone stage, is raised.  Unless the wall
    certificate holds, the first pair of generating cones in (size,
    indices) order that does not meet in a common face raises its
    BadIntersection.
    """
    rank = read_rank(rank)
    rays, violations = ray_stage(rank, ray_list)
    if not violations:
        fan, violations = cone_stage(rank, rays, maximal_cones)
    if violations:
        raise violations[0]
    if fan.certified_complete():
        return fan
    generating = sorted(fan.generating,
                        key=lambda fs: (len(fs), tuple(sorted(fs))))
    for a, b in itertools.combinations(generating, 2):
        defect = fan.intersection_defect(a, b)
        if defect is not None:
            raise defect
    return fan


def is_complete(fan):
    """Whether the fan's support is the whole space.

    Criterion (for valid fans): some cone has dimension n, and every
    (n-1)-dimensional cone is a facet of exactly two n-dimensional cones,
    counted in one pass over the wall table.  Those n-cones then cover
    R^n, by the degree argument of `Fan.certified_complete` (two cones
    of a valid fan on one wall lie on opposite sides), so every other
    cone lies in one of them and the maximal cones all have dimension n.
    """
    n = as_instance(fan, Fan, "fan").rank
    dims = [ref.dim for ref in fan.cones.values()]
    walls = fan.walls()
    return (n in dims and dims.count(n - 1) == len(walls)
            and all(len(cones) == 2 for cones in walls.values()))


def cone_properties(fan, cone):
    """dim / orbit_dim / smooth / simplicial of one fan cone.

    A cone is smooth when its rays are part of a basis of N (`Fan._lattice`).
    """
    ref = as_instance(fan, Fan, "fan").ref(cone)
    d = ref.dim
    return {
        "dim": d,
        "orbit_dim": fan.rank - d,
        "smooth": fan._lattice(frozenset(ref.indices))[1],
        "simplicial": len(ref.indices) == d,
    }
