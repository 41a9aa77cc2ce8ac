"""Fans of strongly convex rational cones.

A fan is built from a list of primitive rays and a list of maximal cones
given by ray indices.  Construction closes the maximal cones under faces,
registers every listed ray as a 1-cone and the origin as the 0-cone, and
validates that any two cones intersect in a common face.

Validation runs in three stages: the rays (`ray_stage`), the supplied
cones (`cone_stage`), then the pairs of generating cones
(`Fan.intersection_defect`).  Each stage reports typed DemazureErrors;
`build_fan` raises the first one, `serialize.fan_diagnostics` lists all
of the first failing stage.

Cones are keyed by their extremal-ray index sets; that is sound because a
strongly convex cone is determined by its extremal rays.  The canonical id
of a cone is "dim:i1,i2,..." (the origin is "0:").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    BadIntersection,
    ConeNotInFan,
    DuplicateRay,
    NotStronglyConvex,
    RankMismatch,
    UnknownRay,
    ZeroVector,
)
from .lattice import (
    Cone,
    as_int,
    dot,
    dual_description,
    invariant_factors,
    primitive,
    smith_normal_form,
    vneg,
    vsub,
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
    return frozenset(as_int(i) for i in cone)


class Fan:
    """The cones of a fan, generated by its supplied maximal cones.

    `supplied` maps the extremal-ray index set of each supplied maximal
    cone to its geometry.  The generating cones are the supplied ones
    followed by every ray that is not supplied as a 1-cone; they and
    their faces are the cones of the fan.  A supplied cone's faces are
    read off its dual; a ray that is not supplied has the faces {0} and
    itself, and gets a geometry only when `cone_geometry` asks for one.
    The fan is valid iff every two generating cones meet in a common face
    (the same then holds for all their faces), which `intersection_defect`
    checks pair by pair.  Faces and saturated bases are memoized per cone.
    """

    def __init__(self, rank, rays, supplied):
        self.rank = rank
        self.rays = rays  # tuple of primitive integer tuples
        self._ray_index = {r: i for i, r in enumerate(rays)}
        self._geom = dict(supplied)
        self._face_sets = {}
        self._bases = {}
        self._automorphisms = None  # memo of orbits.fan_automorphisms
        self.generating = list(supplied)
        for i in range(len(rays)):
            key = frozenset({i})
            if key not in supplied:
                # a ray's faces are {0} and itself: no cone, no dual
                self.generating.append(key)
                self._face_sets[key] = {frozenset(): 0, key: 1}
        dims = {frozenset(): 0}  # every face of a generating cone: its dim
        for g in self.generating:
            dims.update(self.face_sets(g))
        order = sorted(dims.items(),
                       key=lambda kv: (kv[1], tuple(sorted(kv[0]))))
        # dict: frozenset(indices) -> ConeRef, canonical order
        self.cones = {
            fs: ConeRef(tuple(sorted(fs)), dim, fs in supplied)
            for fs, dim in order
        }

    def __repr__(self):
        return f"Fan(rank={self.rank}, rays={len(self.rays)}, cones={len(self.cones)})"

    def __contains__(self, cone):
        return _as_key(cone) in self.cones

    def ray_index(self, vector):
        """Index of a primitive ray vector, or None."""
        return self._ray_index.get(tuple(vector))

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
            self._geom[key] = Cone(self.rank, [self.rays[i] for i in key])
        return self._geom[key]

    def face_sets(self, cone):
        """Faces of a fan cone as frozensets of fan ray indices, mapped to
        their dimensions."""
        key = _as_key(cone)
        if key not in self._face_sets:
            geom = self.cone_geometry(key)
            local = [self._ray_index[r] for r in geom.rays()]
            self._face_sets[key] = {
                frozenset(local[j] for j in fs): d
                for fs, d in geom.face_table().items()
            }
        return self._face_sets[key]

    def saturated_basis(self, cone):
        """A basis of N ∩ span(cone): the rows of T at the nonzero invariant
        factors of the Smith form S D T of the cone's rays."""
        key = _as_key(cone)
        if key not in self._bases:
            _, D, T = smith_normal_form([self.rays[i] for i in key])
            # a non-simplicial cone has more rays than the rank
            self._bases[key] = [T[k] for k, d in enumerate(D[:len(T)])
                                if d[k]]
        return self._bases[key]

    def maximal_keys(self):
        """Cones not properly contained in another fan cone."""
        keys = list(self.cones)
        return [k for k in keys
                if not any(k < other for other in keys)]

    def _spanned_by_common_rays(self, a, b):
        """Is the intersection of generating cones a and b spanned by the
        rays they share?

        First by separation (Cox-Little-Schenck, Toric Varieties, Lemma
        1.2.13): with u_a the sum of a's facet normals through the common
        rays and u_b the same for b, try u = u_a - u_b, u_a and -u_b.  If
        u >= 0 on a, u <= 0 on b, and u vanishes on a or on b at the common
        rays only, the cones meet in the cone of the common rays.  Else one
        dual decides: the intersection is pointed, so it is spanned by the
        common rays iff each of its extremal rays is one.
        """
        common = a & b
        if common == a or common == b:
            return True  # one cone lies in the other
        if len(a) == 1 or len(b) == 1:
            # a ray outside the other cone's ray set meets it in 0 or
            # itself; distinct primitive rays never contain each other
            (i,), other = (a, b) if len(a) == 1 else (b, a)
            return (len(other) == 1
                    or not self._geom[other].contains(self.rays[i]))
        face = [self.rays[i] for i in common]
        ua = self._geom[a].face_normal(face)
        ub = self._geom[b].face_normal(face)
        for u in (vsub(ua, ub), ua, vneg(ub)):
            on_a = [dot(u, self.rays[i]) for i in a - common]
            on_b = [dot(u, self.rays[i]) for i in b - common]
            if min(on_a) >= 0 >= max(on_b) and (min(on_a) or max(on_b)):
                return True
        E, _ = dual_description(
            self._geom[a].dual_generators() + self._geom[b].dual_generators(),
            self.rank,
        )
        return all(self._ray_index.get(e) in common for e in E)

    def intersection_defect(self, a, b):
        """None if generating cones a and b meet in a common face, else the
        BadIntersection naming them."""
        common = a & b
        if not self._spanned_by_common_rays(a, b):
            why = "their intersection is not spanned by common rays"
        elif (common not in self._face_sets[a]
              or common not in self._face_sets[b]):
            why = "the common rays do not span a face of both"
        else:
            return None
        return BadIntersection(self.cone_id(a), self.cone_id(b), why)


def ray_stage(rank, ray_list):
    """The rays as primitive vectors, and the violations among them.

    Every ray is checked: RankMismatch for a wrong length, ZeroVector,
    and DuplicateRay when two rays are equal after normalization.
    """
    rays = []
    violations = []
    seen = {}
    for idx, r in enumerate(ray_list):
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


def cone_stage(rank, rays, maximal_cones):
    """The fan of the supplied maximal cones, its pairs not yet checked,
    and the violations among the cones.

    Every cone is checked: UnknownRay for an index outside the ray list,
    NotStronglyConvex for a cone that contains a line.  The fan is None
    when there is a violation.
    """
    ray_of = {r: i for i, r in enumerate(rays)}
    supplied = {}
    violations = []
    for raw in maximal_cones:
        idxs = sorted({as_int(i) for i in raw})
        if any(i < 0 or i >= len(rays) for i in idxs):
            violations.append(UnknownRay(
                f"cone {idxs} references a ray that is not listed"
            ))
            continue
        geom = Cone(rank, [rays[i] for i in idxs])
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
    return Fan(rank, rays, supplied), []


def build_fan(rank, ray_list, maximal_cones):
    """Validated fan from rays and maximal cones (lists of ray indices).

    Rays are normalized to primitive vectors.  The first violation of the
    ray stage, else of the cone stage, is raised; then the first pair of
    generating cones in (size, indices) order that does not meet in a
    common face raises its BadIntersection.
    """
    rays, violations = ray_stage(rank, ray_list)
    if not violations:
        fan, violations = cone_stage(rank, rays, maximal_cones)
    if violations:
        raise violations[0]
    generating = sorted(fan.generating,
                        key=lambda fs: (len(fs), tuple(sorted(fs))))
    for a, b in itertools.combinations(generating, 2):
        defect = fan.intersection_defect(a, b)
        if defect is not None:
            raise defect
    return fan


def is_complete(fan):
    """Whether the fan's support is the whole space.

    Criterion (valid for fans as built here): every containment-maximal cone
    has full dimension and every (n-1)-dimensional cone is a facet of exactly
    two n-dimensional cones.
    """
    n = fan.rank
    keys = list(fan.cones)
    maximal = fan.maximal_keys()
    if not maximal or not all(fan.cones[k].dim == n for k in maximal):
        return False
    top = [k for k in keys if fan.cones[k].dim == n]
    walls = [k for k in keys if fan.cones[k].dim == n - 1]
    for w in walls:
        # in a valid fan a cone whose rays all lie in c's is
        # cone(w) ∩ cone(c), so it is a face of c
        if sum(w < c for c in top) != 2:
            return False
    return True


def cone_properties(fan, cone):
    """dim / orbit_dim / smooth / simplicial of one fan cone."""
    ref = fan.ref(cone)
    d = ref.dim
    simplicial = len(ref.indices) == d
    smooth = simplicial and all(
        x == 1 for x in invariant_factors([fan.rays[i] for i in ref.indices])
    )
    return {
        "dim": d,
        "orbit_dim": fan.rank - d,
        "smooth": smooth,
        "simplicial": simplicial,
    }
