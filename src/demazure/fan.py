"""Fans of strongly convex rational cones.

A fan is built from a list of primitive rays and a list of maximal cones
given by ray indices.  Construction closes the maximal cones under faces,
registers every listed ray as a 1-cone and the origin as the 0-cone, and
validates that any two cones intersect in a common face.

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
)
from .lattice import (
    Cone,
    dual_description,
    mat_rank,
    primitive,
    smith_normal_form,
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
    return frozenset(int(i) for i in cone)


class Fan:
    def __init__(self, rank, rays, cones):
        self.rank = rank
        self.rays = rays  # tuple of primitive integer tuples
        self.cones = cones  # dict: frozenset(indices) -> ConeRef, canonical order
        self._ray_index = {r: i for i, r in enumerate(rays)}
        self._geom = {}
        self._face_sets = {}
        self._automorphisms = None  # memo of orbits.fan_automorphisms

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
        """Faces of a fan cone as frozensets of fan ray indices."""
        key = _as_key(cone)
        if key not in self._face_sets:
            geom = self.cone_geometry(key)
            local = geom.rays()
            out = set()
            for fs in geom.face_ray_sets():
                out.add(frozenset(self._ray_index[local[j]] for j in fs))
            self._face_sets[key] = out
        return self._face_sets[key]

    def maximal_keys(self):
        """Cones not properly contained in another fan cone."""
        keys = list(self.cones)
        return [k for k in keys
                if not any(k < other for other in keys)]


class FanDraft:
    """A fan under construction: its rays and supplied maximal cones are
    valid, the intersections of its cones are not yet checked.

    `supplied` lists the maximal cones as extremal-ray index sets.  The
    generating cones are the supplied ones followed by every ray that is
    not supplied as a 1-cone; they and their faces are the cones of the
    fan, which is valid iff every two generating cones meet in a common
    face (the same then holds for all their faces).
    """

    def __init__(self, rank, rays, supplied):
        self.rank = rank
        self.rays = rays
        self._supplied = set(supplied)
        self.generating = list(supplied) + [
            frozenset({i}) for i in range(len(rays))
            if frozenset({i}) not in self._supplied
        ]
        self._ray_of = {r: i for i, r in enumerate(rays)}
        self._geom = {}
        self._faces = {}
        self._dims = {frozenset(): 0}  # every face of a generating cone
        for g in self.generating:
            geom = Cone(rank, [rays[i] for i in g])
            local = geom.rays()
            fsets = {
                frozenset(self._ray_of[local[j]] for j in fs)
                for fs in geom.face_ray_sets()
            }
            for fs in fsets:
                if fs not in self._dims:
                    self._dims[fs] = mat_rank([rays[i] for i in fs])
            self._geom[g] = geom
            self._faces[g] = fsets

    def cone_id(self, key):
        return f"{self._dims[key]}:" + ",".join(map(str, sorted(key)))

    def _spanned_by_common_rays(self, a, b):
        """Is the intersection of generating cones a and b spanned by the
        rays they share?  One dual computation at most.

        The intersection is pointed, so it is spanned by the common rays
        iff each of its extremal rays is a common ray.
        """
        common = a & b
        if common == a or common == b:
            return True  # one cone lies in the other
        if len(a) == 1 or len(b) == 1:
            # a ray outside the other cone's ray set meets it in 0 or itself
            (i,), other = (a, b) if len(a) == 1 else (b, a)
            return not self._geom[other].contains(self.rays[i])
        E, _ = dual_description(
            self._geom[a].dual_generators() + self._geom[b].dual_generators(),
            self.rank,
        )
        return all(self._ray_of.get(e) in common for e in E)

    def intersection_defect(self, a, b):
        """None if generating cones a and b meet in a common face, else the
        reason they do not."""
        if not self._spanned_by_common_rays(a, b):
            return "their intersection is not spanned by common rays"
        common = a & b
        if common not in self._faces[a] or common not in self._faces[b]:
            return "the common rays do not span a face of both"
        return None

    def fan(self):
        order = sorted(self._dims.items(),
                       key=lambda kv: (kv[1], tuple(sorted(kv[0]))))
        cones = {
            fs: ConeRef(tuple(sorted(fs)), dim, fs in self._supplied)
            for fs, dim in order
        }
        fan = Fan(self.rank, self.rays, cones)
        fan._geom.update(self._geom)
        fan._face_sets.update(self._faces)
        return fan


def build_fan(rank, ray_list, maximal_cones):
    """Validated fan from rays and maximal cones (lists of ray indices).

    Rays are normalized to primitive vectors; DuplicateRay if two coincide
    afterwards.  Each maximal cone must be strongly convex.  Every pair of
    cones must meet in a common face, else BadIntersection.
    """
    rays = []
    seen = {}
    for idx, r in enumerate(ray_list):
        if len(r) != rank:
            raise RankMismatch(
                f"ray {idx} has length {len(r)}, expected {rank}"
            )
        p = primitive(r)
        if p in seen:
            raise DuplicateRay(
                f"rays {seen[p]} and {idx} span the same ray {p}"
            )
        seen[p] = idx
        rays.append(p)
    rays = tuple(rays)
    ray_of = {r: i for i, r in enumerate(rays)}

    supplied = []
    for raw in maximal_cones:
        idxs = sorted({int(i) for i in raw})
        if any(i < 0 or i >= len(rays) for i in idxs):
            raise ValueError(f"cone {idxs} references a ray that is not listed")
        geom = Cone(rank, [rays[i] for i in idxs])
        if not geom.is_strongly_convex():
            raise NotStronglyConvex(f"maximal cone {idxs} contains a line")
        ext = frozenset(ray_of[r] for r in geom.rays())
        if ext not in supplied:
            supplied.append(ext)

    draft = FanDraft(rank, rays, supplied)
    generating = sorted(draft.generating,
                        key=lambda fs: (len(fs), tuple(sorted(fs))))
    for a, b in itertools.combinations(generating, 2):
        why = draft.intersection_defect(a, b)
        if why:
            raise BadIntersection(draft.cone_id(a), draft.cone_id(b), why)
    return draft.fan()


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
        count = 0
        for c in top:
            if w < c and w in fan.face_sets(c):
                count += 1
        if count != 2:
            return False
    return True


def cone_properties(fan, cone):
    """dim / orbit_dim / smooth / simplicial of one fan cone."""
    ref = fan.ref(cone)
    d = ref.dim
    simplicial = len(ref.indices) == d
    if d == 0:
        smooth = True
    else:
        _, D, _ = smith_normal_form([list(fan.rays[i]) for i in ref.indices])
        k = min(len(D), len(D[0]))
        inv = [D[i][i] for i in range(k) if D[i][i] != 0]
        smooth = simplicial and all(x == 1 for x in inv)
    return {
        "dim": d,
        "orbit_dim": fan.rank - d,
        "smooth": smooth,
        "simplicial": simplicial,
    }
