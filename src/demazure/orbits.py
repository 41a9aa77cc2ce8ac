"""Orbit structure of a corank-one additive extension acting through a root.

Given a fan Sigma and a verified root e with distinguished ray rho_e, the
torus orbits of the toric variety (one per cone) glue under the extended
group G in a completely combinatorial way: orbits merge in pairs

    (sigma_1, sigma_2)   with   sigma_2 = cone(sigma_1, rho_e),

one pair for every cone sigma_1 on which e vanishes identically; every
other torus orbit stays a single G-orbit and its points are fixed by the
additive part.  This module computes the pairs, the resulting partition,
stabilizer data of generic points, invariant divisors, fan automorphisms
(by a stabilizer chain) and the classification of roots up to
automorphism.  Whether such a structure exists at all is read off the root
regions: one asks each for a lattice point that passes condition (2).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm, prod

from .errors import NotARoot, UnsupportedFan
from .fan import Fan
from .lattice import (
    Cone,
    as_instance,
    as_int,
    as_tuple,
    dot,
    identity_matrix,
    mat_inverse,
    mat_mul,
    mat_vec,
    pivot_columns,
    transpose,
)
from .roots import (
    DemazureRoot,
    _root_region,
    check_condition2,
    cones_inside,
    root_pairings,
    zero_pattern,
)


def verify_root(fan, e):
    """Return the distinguished ray index of e; raise NotARoot otherwise."""
    return _verified(fan, e)[0]


def _verified(fan, e):
    """(distinguished ray index, pairings with the rays, e as ints) of a
    root e; raise SchemaError when e is not a sequence, InvalidInteger for
    a non-integral e and NotARoot when e is not a root."""
    e = tuple(as_int(x) for x in as_tuple(e, "character"))
    if len(e) != as_instance(fan, Fan, "fan").rank:
        raise NotARoot(f"character of length {len(e)} in rank {fan.rank}")
    vals, neg = root_pairings(fan.rays, e)
    if len(neg) != 1 or vals[neg[0]] != -1:
        raise NotARoot(
            f"{e} pairs to {vals} with the rays; need exactly one -1 and "
            "no other negative values"
        )
    i = neg[0]
    # condition (2) follows from (1) when the support is convex (roots.py)
    if fan.has_convex_support():
        return i, vals, e
    ok, witness = check_condition2(fan, e, i, vals)
    if not ok:
        raise NotARoot(
            f"{e} vanishes on cone {sorted(witness)} but its extension by "
            f"ray {i} is not in the fan"
        )
    return i, vals, e


@dataclass(frozen=True)
class HeConnectedPair:
    """Orbit-gluing pair: cone2 = cone(cone1, rho_e), cone1 = cone2 ∩ e^⊥."""

    cone1: tuple
    cone2: tuple


def _pairs_of_root(fan, i, vals):
    """Orbit-gluing pairs of a verified root with distinguished ray i and
    pairings `vals` with the rays."""
    # condition (2) makes key | {i} a fan cone
    out = [HeConnectedPair(tuple(sorted(key)), tuple(sorted(key | {i})))
           for key in cones_inside(fan, zero_pattern(vals, i))]
    out.sort(key=lambda p: (len(p.cone1), p.cone1))
    return out


def he_connected_pairs(fan, e):
    """All orbit-gluing pairs (sigma, cone(sigma, rho_e)) for a root.

    One pair per fan cone sigma on which e vanishes identically; raises
    NotARoot when e is not a root of the fan.
    """
    i, vals, _ = _verified(fan, e)
    return _pairs_of_root(fan, i, vals)


@dataclass(frozen=True)
class StabilizerData:
    torus_dim: int
    component_order: int
    contains_ga: bool


@dataclass(frozen=True)
class Orbit:
    """A G-orbit: one or two torus-orbit cones; dim of the orbit; whether the
    additive subgroup fixes its points; generic stabilizer data."""

    cones: tuple  # tuple of sorted index tuples; cones[0] is the open one
    dim: int
    ga_fixed: bool
    stabilizer: StabilizerData


@dataclass(frozen=True)
class GOrbitPartition:
    """The G-orbits of one root, with the data they are built from: the
    orbit-gluing pairs and the invariant divisors (ray indices)."""

    root: DemazureRoot
    orbits: tuple
    pairs: tuple
    invariant_divisors: tuple

    @property
    def orbit_count(self):
        return len(self.orbits)


def _stabilizer_core(fan, e, key, contains_ga):
    """Generic stabilizer inside G of the torus orbit of `key`.

    The stabilizer torus of the ambient torus orbit has cocharacter lattice
    N ∩ span(sigma); intersecting with the corank-one torus ker(e) drops the
    dimension by one unless e vanishes on the span, and contributes a cyclic
    component group of order gcd(<b_i, e>) over a saturated basis b_i.  The
    basis is the fan's, computed once per cone; the origin has none, and
    gcd() of nothing is 0.
    """
    basis = fan.saturated_basis(key)
    c = gcd(*(dot(b, e) for b in basis))
    if c == 0:
        return StabilizerData(len(basis), 1, contains_ga)
    return StabilizerData(len(basis) - 1, c, contains_ga)


def g_orbit_partition(fan, e):
    """The full G-orbit partition of the torus orbits for a verified root."""
    i, vals, e = _verified(fan, e)
    pairs = _pairs_of_root(fan, i, vals)
    paired = {frozenset(c) for p in pairs for c in (p.cone1, p.cone2)}

    orbits = []
    for p in pairs:
        open_key = frozenset(p.cone1)
        dim = fan.rank - fan.cones[open_key].dim
        stab = _stabilizer_core(fan, e, open_key, contains_ga=False)
        orbits.append(Orbit((p.cone1, p.cone2), dim, False, stab))
    for key, ref in fan.cones.items():
        if key in paired:
            continue
        stab = _stabilizer_core(fan, e, key, contains_ga=True)
        orbits.append(
            Orbit((ref.indices,), fan.rank - ref.dim, True, stab)
        )
    orbits.sort(key=lambda o: (len(o.cones[0]), o.cones[0]))
    return GOrbitPartition(DemazureRoot(i, e),
                           tuple(orbits), tuple(pairs),
                           tuple(_invariant_divisors(fan, i)))


def stabilizer_data(fan, e, cone):
    """Stabilizer data of the generic point of one torus-orbit cone, given
    as a ConeRef or as ray indices."""
    key = frozenset(fan.ref(cone).indices)
    i, vals, e = _verified(fan, e)
    pairs = _pairs_of_root(fan, i, vals)
    in_pair = any(
        key == frozenset(p.cone1) or key == frozenset(p.cone2) for p in pairs
    )
    return _stabilizer_core(fan, e, key, contains_ga=not in_pair)


def _invariant_divisors(fan, i):
    return [j for j in range(len(fan.rays)) if j != i]


def g_invariant_divisors(fan, e):
    """Ray indices whose divisors are invariant: all but the distinguished."""
    return _invariant_divisors(fan, verify_root(fan, e))


def admits_g_structure(fan):
    """Does the fan admit any Demazure root at all?  Exact decision.

    A root with distinguished ray i is a lattice point e of ray i's root
    region (condition (1)) that passes condition (2), so each region is
    asked for such a point (`Region.feasible`).  The test meets that
    method's precondition: the tight rows of e are the equality
    <n_i, e> = -1 and the zero pattern Z(e) = {j != i : <n_j, e> = 0}, and
    condition (2) asks that cone(sigma, rho_i) be a fan cone for each fan
    cone sigma inside Z(e).  If Z(e') lies in Z(e), the cones inside Z(e')
    are among those inside Z(e), so e' passes whenever e does.  When the
    support is convex every point passes (roots.py), and no test is asked.
    """
    convex = as_instance(fan, Fan, "fan").has_convex_support()
    for i in range(len(fan.rays)):
        region = _root_region(fan, i)
        if region.feasible() if convex else region.feasible(
                lambda e: check_condition2(fan, e, i)[0]):
            return True
    return False


@dataclass(frozen=True)
class FanAutomorphism:
    """A lattice automorphism preserving the fan; matrix acts on columns."""

    matrix: tuple  # tuple of row tuples, det = +/-1
    ray_permutation: tuple


@dataclass(frozen=True)
class SymmetryChain:
    """The fan's automorphism group G by a stabilizer chain on a base.

    `transversals[k]` maps each ray j of the orbit Delta_k of b_k under
    G_k, the automorphisms fixing b_0 ... b_{k-1}, to one of them sending
    b_k to j.  The `generators` are the automorphisms the search found;
    they generate G, and |G| = prod |Delta_k| (`order`).
    """

    base: tuple
    transversals: tuple
    generators: tuple

    @property
    def order(self):
        return prod(len(t) for t in self.transversals)


def symmetry_chain(fan):
    """The stabilizer chain of the fan's lattice automorphisms.

    Requires the rays to span the ambient space (otherwise the group is not
    finite and we refuse: UnsupportedFan).  An automorphism is fixed by the
    images of a base, the first independent n-subset b_0 ... b_{n-1} of the
    rays.  A ray can only go to a ray of its colour (the number of fan
    cones of each dimension containing it), and two base rays that span a
    2-cone (or do not) only to two rays that do the same.  The matrix is
    solved from the base images in integers, as B A^-1 with A^-1 = adj / D
    read off the facet normals of the base cone's dual: row k of adj is
    the normal opposite b_k, scaled by D over its pairing with b_k
    (`_base_inverse` has the proof), so the search takes no determinant,
    inverse or Fraction.  It is kept if it permutes the rays and maps the
    supplied cones to fan cones: every fan cone is a face of a generating
    cone, a linear map sends faces to faces, and a ray always goes to a
    1-cone, so then it maps the fan onto itself.  As the rays span, some
    power of it is 1, so it is unimodular.

    The levels run from b_{n-1} up to b_0 (Sims 1970).  At level k the
    orbit of b_k is closed under the generators found so far, which all
    fix b_0 ... b_{k-1}; for each candidate image j that the closure does
    not reach, the search looks for the first automorphism fixing b_0 ...
    b_{k-1} and sending b_k to j, stops at the first success, and adds it
    to the generators.  Every candidate outside the closure is searched
    exhaustively, so the final closure is the whole orbit Delta_k of b_k
    under G_k.  By induction from G_n = 1 (the base images fix an
    automorphism) the generators at levels >= k generate G_k, as any g in
    G_k agrees on b_k with some h in their group and h^-1 g lies in
    G_{k+1}; so they generate G and |G_k| = |Delta_k| |G_{k+1}|.  Each
    orbit point off the base ray costs at most one generator and one
    product, so the search builds under 2 sum |Delta_k| automorphisms and
    the failed leaves, not prod |Delta_k|.  Computed once per fan.
    """
    if as_instance(fan, Fan, "fan")._symmetry is None:
        fan._symmetry = _search_chain(fan)
    return fan._symmetry


def automorphism_order(fan):
    """The number of lattice automorphisms of N mapping the fan onto
    itself, read off the stabilizer chain."""
    return symmetry_chain(fan).order


def fan_automorphisms(fan):
    """All lattice automorphisms of N mapping the fan onto itself.

    Each element of G_k is u h for one u of the transversal at level k and
    one h of G_{k+1}, so the group is expanded from the stabilizer chain
    (`symmetry_chain`) with one product per element of each G_k.  It is
    sorted by ray permutation and computed once per fan; each call returns
    a fresh list.  Raises UnsupportedFan when the rays do not span.
    """
    if as_instance(fan, Fan, "fan")._automorphisms is None:
        group = [_identity(fan)]
        for transversal in reversed(symmetry_chain(fan).transversals):
            group = [_compose(u, h) for u in transversal.values()
                     for h in group]
        group.sort(key=lambda a: a.ray_permutation)
        fan._automorphisms = tuple(group)
    return list(fan._automorphisms)


def _identity(fan):
    return FanAutomorphism(tuple(map(tuple, identity_matrix(fan.rank))),
                           tuple(range(len(fan.rays))))


def _compose(a, b):
    """The automorphism a after b."""
    return FanAutomorphism(
        tuple(map(tuple, mat_mul(a.matrix, b.matrix))),
        tuple(a.ray_permutation[j] for j in b.ray_permutation))


def _close(orbit, generators):
    """Close an orbit, a dict ray -> automorphism sending the level's base
    ray there, under the generators: a new ray s(i) gets s after orbit[i].
    """
    todo = list(orbit)
    while todo:
        i = todo.pop()
        for s in generators:
            j = s.ray_permutation[i]
            if j not in orbit:
                orbit[j] = _compose(s, orbit[i])
                todo.append(j)


def _search_chain(fan):
    rays = fan.rays
    l = len(rays)
    n = fan.rank
    # the pivots of the rays as columns: the first independent n-subset
    base = pivot_columns(transpose(rays))
    if len(base) < n:
        raise UnsupportedFan(
            "rays do not span the ambient space; the automorphism group "
            "is not finite"
        )
    adj, d = _base_inverse(fan, base)
    cone_keys = set(fan.cones)
    colour = [[0] * (n + 1) for _ in range(l)]
    for key, ref in fan.cones.items():
        for j in key:
            colour[j][ref.dim] += 1
    choices = [[j for j in range(l) if colour[j] == colour[b]] for b in base]

    def joined(a, b):
        return frozenset((a, b)) in cone_keys

    def candidates(images):
        """The rays that pass the filters as the image of the next base
        ray, given the images of the ones before it."""
        k = len(images)
        return [j for j in choices[k] if j not in images and all(
            joined(j, images[t]) == joined(base[k], base[t])
            for t in range(k))]

    def first(images):
        """The first automorphism sending each base ray b_t to images[t]
        for t < len(images), or None."""
        if len(images) == n:
            M = _solve(adj, d, [rays[j] for j in images])
            perm = None if M is None else _ray_permutation(fan, M, cone_keys)
            return None if perm is None else FanAutomorphism(M, perm)
        for j in candidates(images):
            found = first(images + [j])
            if found is not None:
                return found
        return None

    identity = _identity(fan)
    generators = []
    transversals = []
    for k in reversed(range(n)):
        orbit = {base[k]: identity}
        _close(orbit, generators)
        for j in candidates(base[:k]):
            if j in orbit:
                continue
            found = first(base[:k] + [j])
            if found is not None:
                generators.append(found)
                _close(orbit, generators)
        transversals.append(orbit)
    transversals.reverse()
    return SymmetryChain(tuple(base), tuple(transversals),
                         tuple(generators))


def _base_inverse(fan, base):
    """(adj, D) with A^-1 = adj / D, A the matrix whose columns are the
    base rays b_0 ... b_{n-1}, read off the dual of their cone: the
    supplied Cone when the base is a supplied cone of exactly n
    generators, else one fresh dual.

    The cone of n independent rays is simplicial and n-dimensional, and
    its inward primitive facet normal u_k opposite b_k vanishes on every
    other base ray, so <u_k, b_l> = delta_kl d_k with d_k = <u_k, b_k>
    > 0.  Row k of A^-1 is the one vector that pairs to delta_kl with
    each column b_l of A, so it is u_k / d_k; with D = lcm(d_k), row k of
    adj is (D / d_k) u_k, in integers.  No determinant, inverse or
    Fraction is taken.
    """
    rays = [fan.rays[i] for i in base]
    ref = fan.cones.get(frozenset(base))
    geom = fan.cone_geometry(ref) if ref and ref.is_maximal else None
    if geom is None or len(geom.gens) != fan.rank:
        geom = Cone._of_primitive(fan.rank, rays)
    opposite = geom.opposite_normals()
    normals = [opposite[b] for b in rays]
    pairings = [dot(u, b) for u, b in zip(normals, rays)]
    D = lcm(*pairings)
    return [[D // d * x for x in u] for u, d in zip(normals, pairings)], D


def _solve(adj, d, columns):
    """The integer matrix M = B A^-1, where A^-1 = adj / d and B has the
    given columns, or None if M is not integral.  adj and d are read off
    the base cone's facet normals (`_base_inverse`): row k of adj is the
    normal u_k opposite b_k times d / <u_k, b_k>, and d is the lcm of
    those pairings, so adj / d pairs to delta_kl with b_l.  Each entry of
    M is an integer sum over d, integral iff d divides it."""
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
    return tuple(M)


def _ray_permutation(fan, M, cone_keys):
    """The permutation of the rays that M induces if it maps the rays one
    to one onto rays (a singular M merges two, as the rays span) and each
    supplied cone onto one of the cone_keys, else None; it stops at the
    first ray that fails.
    """
    perm = []
    for r in fan.rays:
        j = fan.ray_index(mat_vec(M, r))
        if j is None or j in perm:
            return None
        perm.append(j)
    if any(frozenset(perm[i] for i in key) not in cone_keys
           for key in fan.supplied):
        return None
    return tuple(perm)


def _ray_of(root, rays):
    """The ray index of a DemazureRoot of these rays, else NotARoot."""
    if not isinstance(root, DemazureRoot):
        raise NotARoot(f"{root!r} is not a DemazureRoot")
    if root.ray_index not in range(len(rays)):
        raise NotARoot(f"{root} names none of the {len(rays)} rays")
    return root.ray_index


def root_image(automorphism, root):
    """Image of a root under the contragredient action e -> (M^-1)^T e,
    which preserves the pairing: <M n, (M^-1)^T e> = <n, e>."""
    automorphism = as_instance(automorphism, FanAutomorphism, "automorphism")
    i = _ray_of(root, automorphism.ray_permutation)
    inv = mat_inverse([list(r) for r in automorphism.matrix])
    # integral for an integral e, because det M = +/-1
    e = tuple(as_int(x) for x in as_tuple(root.e, "character"))
    e = tuple(as_int(x) for x in mat_vec(transpose(inv), e))
    return DemazureRoot(automorphism.ray_permutation[i], e)


def classify_roots(fan, roots):
    """Partition roots into classes under the fan automorphism group.

    Returns a list of classes (sorted lists of roots); classes are ordered
    by their first member.  Images that leave the supplied root list (which
    can happen for a truncated enumeration) do not merge anything.  A root
    (i, e) is keyed by i and its pairings p = (<n_j, e>)_j, which fix e as
    the rays span; phi^-1 for phi = (M, pi) sends (i, p) to
    (pi^-1(i), p o pi), since <n_j, M^T e> = <M n_j, e>.  So the class of
    the first root not yet placed is its G-orbit within the list, read off
    without a matrix.  The generators of the stabilizer chain generate the
    finite group G, so the orbit is the closure of the key under them; it
    runs over all keys, listed or not, so that a truncated list splits no
    class that G keeps whole within it.  The characters are read with
    `as_int`.
    """
    generators = symmetry_chain(fan).generators
    pairs = []
    for r in as_tuple(roots, "roots"):
        i = _ray_of(r, fan.rays)
        e = tuple(as_int(x) for x in as_tuple(r.e, "character"))
        pairs.append(((i, tuple(dot(n, e) for n in fan.rays)), r))
    pairs.sort(key=lambda kr: kr[1])
    keyed = dict(pairs)
    placed = set()
    classes = []
    for key in keyed:
        if key in placed:
            continue
        orbit = {key}
        todo = [key]
        while todo:
            i, p = todo.pop()
            for phi in generators:
                pi = phi.ray_permutation
                image = (pi.index(i), tuple(p[j] for j in pi))
                if image not in orbit:
                    orbit.add(image)
                    todo.append(image)
        orbit &= keyed.keys()
        placed |= orbit
        classes.append(sorted(keyed[k] for k in orbit))
    return classes
