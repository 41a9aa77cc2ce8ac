"""Demazure roots of strongly convex cones and of fans.

A root of a fan Sigma with rays rho_1, ..., rho_l (primitive generators
n_1, ..., n_l) is a character e in M with

  (1)  <n_i, e> = -1 for exactly one i (the distinguished ray rho_e) and
       <n_j, e> >= 0 for all j != i;
  (2)  for every cone sigma in Sigma on which e vanishes identically,
       cone(sigma, rho_e) is again a cone of Sigma.

Condition (1) makes e a lattice point of the root region of ray i
(`_root_system`); condition (2) constrains the fan cones inside the zero
pattern Z = {j != i : <n_j, e> = 0} of e (`cones_inside`).

When the support |Sigma| is convex, condition (2) follows from (1).  Let
e meet (1) with distinguished ray rho_i, let sigma be a fan cone with
e|sigma = 0, and take p in the relative interior of sigma.  As |Sigma| is
a convex cone holding p and n_i, some fan cone tau holds p + eps n_i for
all small eps > 0, and p by closure; sigma ∩ tau is a face of sigma
holding p, so sigma is a face of tau.  <e, p + eps n_i> = -eps < 0, so
tau has a ray on which e is negative, and that ray is rho_i.  Let u cut
sigma out of tau and set w = e + u / <u, n_i>: w >= 0 on tau and vanishes
exactly on sigma and rho_i, so cone(sigma, rho_i) is a face of tau.  This
is why Demazure (1970) and Cox (1995, §4) define the roots of a complete
fan by (1) alone.  So `check_condition2` runs only on the fans whose
support is not certified convex (`Fan.has_convex_support`: complete or
affine).  Two lone rays {(1, 0), (0, 1)} show the limit: (-1, 0) vanishes
on ray 1, but the two rays span no cone.

For a single strongly convex cone only the sign conditions (1) over the
cone's own rays apply.  Roots are in bijection with the homogeneous locally
nilpotent derivations of the homogeneous coordinate/affine algebra, i.e.
with one-parameter additive group actions normalized by the torus.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NegativeBound, NoRays, UnboundedRoots
from .fan import Fan
from .lattice import (Cone, Region, as_instance, as_int, dot, lattice_points,
                      vneg)


@dataclass(frozen=True, order=True)
class DemazureRoot:
    """A root: distinguished ray index plus the character e."""

    ray_index: int
    e: tuple


@dataclass(frozen=True)
class RootSet:
    """Result of fan root enumeration.

    complete_enumeration is True when every per-ray search region was
    bounded, so `roots` is the full (finite) root set; otherwise `roots`
    lists exactly the roots with max |coordinate| <= the supplied bound.
    """

    roots: tuple
    complete_enumeration: bool

    def __iter__(self):
        return iter(self.roots)

    def __len__(self):
        return len(self.roots)


def _root_system(rays, i):
    """Ray i's root region as (inequalities, equalities): <n_j, e> >= 0 for
    j != i and <n_i, e> = -1."""
    ineqs = [(r, 0) for j, r in enumerate(rays) if j != i]
    return ineqs, [(rays[i], -1)]


def _root_region(fan, i):
    """Ray i's root region as a `Region` on the fan's primitive integer
    rays, read as they are: the rows of `Region(fan.rank,
    *_root_system(fan.rays, i))`, in the same order, the equality as the
    row and its negative."""
    ineqs, [(u, b)] = _root_system(fan.rays, i)
    return Region._of_integer_rows(fan.rank,
                                   ineqs + [(u, b), (vneg(u), -b)])


def roots_of_cone(cone, bound):
    """Roots of a strongly convex cone with |e_i| <= bound, grouped by ray.

    The root region of a ray is almost always infinite for a single cone,
    so the box bound is mandatory here: an integer (InvalidInteger
    otherwise) that is not negative.  Output is ordered by distinguished
    ray index (into cone.rays()), then lexicographically in e.
    """
    rays = as_instance(cone, Cone, "cone").rays()
    if not rays:
        raise NoRays("the cone {0} has no rays and hence no roots")
    bound = as_int(bound)
    if bound < 0:
        raise NegativeBound(bound)
    n = cone.rank
    box = [(-bound, bound)] * n
    return [DemazureRoot(i, e) for i in range(len(rays))
            for e in lattice_points(n, *_root_system(rays, i), box=box)]


def extension_in_fan(fan, key, ray_index):
    """Is cone(sigma, rho) a cone of the fan?  sigma: a fan cone's ray indices.

    This is a set lookup: if cone(sigma, rho) is a fan cone tau, then sigma
    (a fan cone inside tau) and the fan ray rho are faces of tau, so the
    extremal rays of tau are exactly sigma's rays and rho.
    """
    return frozenset(key) | {ray_index} in fan.cones


def root_pairings(rays, e):
    """Condition (1) read off: the pairings <n_j, e> and the indices j
    where they are negative.  (1) holds iff the negative indices are one
    i, the distinguished ray, with pairing -1."""
    vals = [dot(r, e) for r in rays]
    return vals, [j for j, v in enumerate(vals) if v < 0]


def zero_pattern(vals, ray_index):
    """Z = {j != ray_index : <n_j, e> = 0}, from the pairings `vals`."""
    return frozenset(j for j, v in enumerate(vals)
                     if j != ray_index and not v)


def cones_inside(fan, zeros):
    """The fan cones whose rays all lie in `zeros`, in fan.cones order."""
    return (key for key in fan.cones if key <= zeros)


def check_condition2(fan, e, ray_index, vals=None):
    """Condition (2) for a candidate root: returns (ok, witness).

    witness is the ray index set of the first cone sigma with e|_sigma = 0
    for which cone(sigma, rho_e) is not in the fan, or None.  `vals` are
    the pairings of e with the rays, when the caller already has them.
    """
    if vals is None:
        vals = root_pairings(fan.rays, e)[0]
    for key in cones_inside(fan, zero_pattern(vals, ray_index)):
        if not extension_in_fan(fan, key, ray_index):
            return False, key
    return True, None


def roots_of_fan(fan, bound=None):
    """All Demazure roots of a fan.

    Each root region is eliminated once (`_root_region`), with no dual
    unless it passes ROW_CEILING rows.  If no region holds infinitely many
    lattice points, the enumeration is exact and any bound is ignored.
    Otherwise a bound B is required (UnboundedRoots names the first such
    ray if it is missing) and each region's elimination is lifted within
    max |e_i| <= B.  A bound that is not an integer raises InvalidInteger
    and a negative one NegativeBound, also where it would be ignored.

    Condition (2) is checked only when the support is not certified
    convex.  On a complete or affine fan it holds at every region point
    e: for a fan cone sigma on which e vanishes and p in its relative
    interior, convexity puts p + eps n_i in one fan cone tau for all
    small eps > 0, so sigma and rho_i are faces of tau, and
    e + u / <u, n_i>, u cutting sigma out of tau, cuts cone(sigma, rho_i)
    out of tau (the module docstring gives the details).
    """
    l = len(as_instance(fan, Fan, "fan").rays)
    if l == 0:
        raise NoRays("the fan has no rays")
    if bound is not None:
        bound = as_int(bound)
        if bound < 0:
            raise NegativeBound(bound)
    n = fan.rank
    regions = [_root_region(fan, i) for i in range(l)]
    points = [region.points() for region in regions]
    unbounded = [i for i, p in enumerate(points) if p is None]
    boxed = None
    if unbounded and bound is not None:
        box = [(-bound, bound)] * n
        boxed = [list(region.points(box)) for region in regions]
    # an unbounded region with a lattice point holds infinitely many
    infinite = next((i for i in unbounded if (boxed and boxed[i])
                     or regions[i].feasible()), None)
    if infinite is not None:
        if bound is None:
            raise UnboundedRoots(infinite)
        points = boxed
    convex = fan.has_convex_support()
    roots = [DemazureRoot(i, e) for i, found in enumerate(points)
             if found is not None
             for e in found if convex or check_condition2(fan, e, i)[0]]
    return RootSet(tuple(roots), infinite is None)
