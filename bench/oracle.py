"""Independent reference answers for the benchmark's jobs.

Closed forms for the families, a brute-force rank-2 root and symmetry
oracle for polygon fans, the generic G-orbit count of a simplicial fan,
and the closed-form monomial flow.  Nothing is imported from ``demazure``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, factorial


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# closed forms (invariant under a change of basis)


def projective_space_counts(n):
    return {"roots": n * (n + 1), "autos": factorial(n + 1), "classes": 1,
            "orbits": 2 ** (n + 1) - 1 - 2 ** (n - 1)}


def p1_power_counts(n):
    return {"roots": 2 * n, "autos": 2 ** n * factorial(n), "classes": 1,
            "orbits": 3 ** n - 3 ** (n - 1)}


def hirzebruch_counts(a):
    if a == 0:
        return p1_power_counts(2)
    return {"roots": a + 3, "autos": 2, "classes": 1 + -(-(a + 1) // 2)}


P2_TIMES_P1_COUNTS = {"roots": 8, "autos": 12, "classes": 2}


def affine_space_counts(n, bound):
    return {"roots": n * (bound + 1) ** (n - 1), "autos": factorial(n),
            "classes": comb(bound + n - 1, n - 1)}


def projective_space_roots(n):
    """The n(n+1) roots of P^n in standard coordinates, with ray index."""
    u = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    out = []
    for i in range(n):
        out.append((i, tuple(-x for x in u[i])))
        for j in range(n):
            if j != i:
                out.append((i, tuple(b - a for a, b in zip(u[i], u[j]))))
    out += [(n, u[j]) for j in range(n)]
    return out


def p1_power_roots(n):
    out = []
    for i in range(n):
        e = tuple(-int(k == i) for k in range(n))
        out.append((2 * i, e))
        out.append((2 * i + 1, tuple(-x for x in e)))
    return out


def p2_times_p1_roots():
    out = [(i, e + (0,)) for i, e in projective_space_roots(2)]
    return out + [(3, (0, 0, -1)), (4, (0, 0, 1))]


# ---------------------------------------------------------------------------
# simplicial fans: cones and G-orbit counts


def simplicial_cones(spec):
    """Every cone of a simplicial fan: all subsets of its maximal cones."""
    out = set()
    for c in spec["max_cones"]:
        for k in range(len(c) + 1):
            out.update(frozenset(s) for s in itertools.combinations(c, k))
    return out


def cones_by_dim(spec):
    counts = {}
    for c in simplicial_cones(spec):
        counts[str(len(c))] = counts.get(str(len(c)), 0) + 1
    return counts


def g_orbit_count(spec, ray_index, e):
    """#cones - #{sigma : rho_e not in sigma, e vanishes on sigma}.

    Each such sigma fuses with cone(sigma, rho_e) into one G-orbit.
    """
    rays = spec["rays"]
    cones = simplicial_cones(spec)
    fused = sum(1 for c in cones if ray_index not in c
                and all(dot(rays[j], e) == 0 for j in c))
    return len(cones) - fused


# ---------------------------------------------------------------------------
# rank 2: brute force over the line <n_i, e> = -1


def _ext_gcd(a, b):
    if b == 0:
        return (a, 1, 0) if a >= 0 else (-a, -1, 0)
    g, x, y = _ext_gcd(b, a % b)
    return g, y, x - (a // b) * y


def _floor_div(a, b):
    return a // b


def _ceil_div(a, b):
    return -((-a) // b)


def rank2_roots(spec):
    """All roots of a complete rank-2 fan, as (ray index, e) pairs.

    The line <n_i, e> = -1 is e0 + t w with w orthogonal to n_i; every other
    ray bounds t from one side, and completeness bounds it from both.
    Condition (2) in rank 2: a ray on which e vanishes must span a 2-cone
    together with rho_i.
    """
    rays = spec["rays"]
    cones = [frozenset(c) for c in spec["max_cones"]]
    out = []
    for i, (a, b) in enumerate(rays):
        _, x, y = _ext_gcd(a, b)
        e0 = (-x, -y)
        w = (-b, a)
        lo, hi = None, None
        feasible = True
        for j, n in enumerate(rays):
            if j == i:
                continue
            c, d = dot(n, e0), dot(n, w)
            if d > 0:
                t = _ceil_div(-c, d)
                lo = t if lo is None else max(lo, t)
            elif d < 0:
                t = _floor_div(c, -d)
                hi = t if hi is None else min(hi, t)
            elif c < 0:
                feasible = False
        if not feasible or lo is None or hi is None:
            continue
        for t in range(lo, hi + 1):
            e = (e0[0] + t * w[0], e0[1] + t * w[1])
            zeros = [j for j, n in enumerate(rays) if j != i and dot(n, e) == 0]
            if all(frozenset((i, j)) in cones for j in zeros):
                out.append((i, e))
    return out


def rank2_automorphisms(spec):
    """Matrices of the lattice automorphisms of a smooth complete polygon fan.

    An automorphism permutes the rays as a dihedral symmetry of their
    cyclic order, and a 2-cone of a smooth fan is a lattice basis, so each
    of the 2l candidate maps has one candidate matrix.
    """
    rays = spec["rays"]
    l = len(rays)
    nxt = {}
    for c in spec["max_cones"]:
        a, b = c
        # orient each 2-cone counter-clockwise
        if rays[a][0] * rays[b][1] - rays[a][1] * rays[b][0] < 0:
            a, b = b, a
        nxt[a] = b
    cyc = [0]
    while len(cyc) < l:
        cyc.append(nxt[cyc[-1]])
    r0, r1 = rays[cyc[0]], rays[cyc[1]]
    det = r0[0] * r1[1] - r0[1] * r1[0]
    inv = [[r1[1] * det, -r1[0] * det], [-r0[1] * det, r0[0] * det]]
    ray_set = {tuple(r) for r in rays}
    out = []
    for shift in range(l):
        for step in (1, -1):
            t0 = rays[cyc[shift % l]]
            t1 = rays[cyc[(shift + step) % l]]
            M = [[t0[r] * inv[0][c] + t1[r] * inv[1][c] for c in range(2)]
                 for r in range(2)]
            image = {(M[0][0] * v[0] + M[0][1] * v[1],
                      M[1][0] * v[0] + M[1][1] * v[1]) for v in rays}
            if image == ray_set:
                out.append(M)
    return out


def rank2_class_count(spec):
    """Root classes under the automorphisms, acting by inverse transpose."""
    roots = {e for _, e in rank2_roots(spec)}
    seen = set()
    classes = 0
    for e in sorted(roots):
        if e in seen:
            continue
        classes += 1
        for M in rank2_automorphisms(spec):
            det = M[0][0] * M[1][1] - M[0][1] * M[1][0]
            # inverse transpose of an integral det +-1 matrix
            img = ((M[1][1] * e[0] - M[1][0] * e[1]) * det,
                   (-M[0][1] * e[0] + M[0][0] * e[1]) * det)
            seen.add(img)
    return classes


# ---------------------------------------------------------------------------
# flows of monomial derivations


class MonomialDerivation:
    """chi^key -> q(key) chi^(key + degree), with q dropping by one per step.

    ``multiplier`` and ``shift`` are plain functions of a key, so the same
    reference covers the toric case (keys are weights m) and the horizontal
    case (keys are pairs (m, r)).
    """

    def __init__(self, multiplier, shift):
        self.multiplier = multiplier
        self.shift = shift

    def derivative(self, terms):
        out = {}
        for key, c in terms.items():
            q = self.multiplier(key)
            if q:
                k2 = self.shift(key)
                out[k2] = out.get(k2, 0) + q * c
        return {k: c for k, c in out.items() if c}

    def nilpotency_index(self, terms):
        return max((self.multiplier(k) + 1 for k in terms), default=0)

    def flow(self, terms):
        """exp(sD) chi^m = sum_k C(q, k) s^k chi^(m + k e): {key: {k: coeff}}."""
        out = {}
        for key, c in terms.items():
            q = self.multiplier(key)
            cur = key
            for k in range(q + 1):
                poly = out.setdefault(cur, {})
                poly[k] = poly.get(k, 0) + comb(q, k) * c
                cur = self.shift(cur)
        return {k: {d: c for d, c in p.items() if c} for k, p in out.items()}

    def flow_at(self, terms, s):
        out = {}
        for key, poly in self.flow(terms).items():
            v = sum(c * s ** d for d, c in poly.items())
            if v:
                out[key] = Fraction(v)
        return out


def toric_derivation(ray_normal, e):
    return MonomialDerivation(
        lambda m: dot(ray_normal, m),
        lambda m: tuple(a + b for a, b in zip(m, e)))


def horizontal_derivation(v0, d, e, s):
    def multiplier(key):
        m, r = key
        q = d * (dot(v0, m) + r)
        if q.denominator != 1:
            raise ValueError("non-integral multiplier")
        return int(q)

    return MonomialDerivation(
        multiplier,
        lambda key: (tuple(a + b for a, b in zip(key[0], e)), key[1] + s))


def product(terms_f, terms_g, add_keys):
    out = {}
    for k1, c1 in terms_f.items():
        for k2, c2 in terms_g.items():
            k = add_keys(k1, k2)
            out[k] = out.get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}
