"""Fan and cone families used as benchmark inputs, and seeded lattice changes.

Everything here is plain integer arithmetic; nothing is imported from
``demazure``, so the inputs and the references built on them stay
independent of the program under test.

A fan spec is a dict ``{"rank": n, "rays": [tuple, ...], "max_cones":
[[i, ...], ...]}``, the same shape as the fan JSON format.
"""

from __future__ import annotations

import itertools


def _unit(n, i, sign=1):
    return tuple(sign if k == i else 0 for k in range(n))


def projective_space(n):
    """P^n: rays e_1..e_n and -(e_1+...+e_n); every n of them span a cone."""
    rays = [_unit(n, i) for i in range(n)] + [tuple(-1 for _ in range(n))]
    cones = [list(c) for c in itertools.combinations(range(n + 1), n)]
    return {"rank": n, "rays": rays, "max_cones": cones}


def p1_power(n):
    """(P^1)^n: rays +-e_i; a maximal cone picks one sign per coordinate."""
    rays = []
    for i in range(n):
        rays += [_unit(n, i), _unit(n, i, -1)]
    cones = [[2 * i + s for i, s in enumerate(signs)]
             for signs in itertools.product((0, 1), repeat=n)]
    return {"rank": n, "rays": rays, "max_cones": cones}


def hirzebruch(a):
    """F_a: rays (1,0), (0,1), (-1,a), (0,-1) in cyclic order."""
    return polygon([(1, 0), (0, 1), (-1, a), (0, -1)])


def p2_times_p1():
    rays = [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1)]
    cones = [[a, b, c] for a, b in itertools.combinations(range(3), 2)
             for c in (3, 4)]
    return {"rank": 3, "rays": rays, "max_cones": cones}


def affine_space(n):
    """A^n: the positive orthant as a one-cone fan."""
    return {"rank": n, "rays": [_unit(n, i) for i in range(n)],
            "max_cones": [list(range(n))]}


def affine_cone(rays):
    return {"rank": len(rays[0]), "rays": [tuple(r) for r in rays],
            "max_cones": [list(range(len(rays)))]}


def polygon(cyclic_rays):
    """Complete rank-2 fan whose 2-cones join cyclically adjacent rays."""
    l = len(cyclic_rays)
    return {"rank": 2, "rays": [tuple(r) for r in cyclic_rays],
            "max_cones": [[i, (i + 1) % l] for i in range(l)]}


def blow_up(cyclic_rays, positions):
    """Insert v_i + v_{i+1} after each listed position, in order.

    Each insertion is the toric blow-up of a fixed point, so a smooth
    complete surface fan stays smooth and complete.
    """
    rays = [tuple(r) for r in cyclic_rays]
    for p in positions:
        p %= len(rays)
        a, b = rays[p], rays[(p + 1) % len(rays)]
        rays.insert(p + 1, (a[0] + b[0], a[1] + b[1]))
    return rays


HEXAGON = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]

# Smooth complete surface fans with 6 rays.  The hexagon (the degree-6 del
# Pezzo surface, P^2 blown up in three points) carries no root, so it
# forces the exhaustive admits_g_structure search; F_1 blown up twice keeps
# two roots.
POLYGONS = {
    "hexagon": HEXAGON,
    "f1_b2": blow_up([(1, 0), (0, 1), (-1, 1), (0, -1)], [0, 2]),
}


# ---------------------------------------------------------------------------
# changes of basis


def mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def mat_vec(a, v):
    return tuple(sum(a[i][k] * v[k] for k in range(len(v)))
                 for i in range(len(a)))


def transpose(a):
    return [list(r) for r in zip(*a)]


def signed_permutation(rng, n):
    """A random signed permutation matrix and its inverse (the transpose).

    These are the changes of basis that keep the box max|e_i| <= B fixed.
    """
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    P = [[signs[i] if perm[i] == j else 0 for j in range(n)] for i in range(n)]
    return P, transpose(P)


def unimodular(rng, n, steps):
    """A random element of GL_n(Z) with its exact inverse.

    A signed permutation followed by ``steps`` elementary row operations
    row_i += c * row_j with c in {-2, -1, 1, 2}; the inverse applies the
    opposite operations in reverse order, so no rational arithmetic occurs.
    """
    A, Ainv = signed_permutation(rng, n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        E = [[int(r == s) for s in range(n)] for r in range(n)]
        Einv = [row[:] for row in E]
        E[i][j] = c
        Einv[i][j] = -c
        A = mat_mul(E, A)
        Ainv = mat_mul(Ainv, Einv)
    return A, Ainv


class BasisChange:
    """Rays move by A; characters move by the inverse transpose of A.

    Pairings are preserved: <A v, A^-T e> = <v, e>.  ``perm`` renumbers the
    rays, and the maximal cones are listed in a shuffled order.
    """

    def __init__(self, A, Ainv, perm, cone_order):
        self.A = A
        self.Ainv_T = transpose(Ainv)
        self.perm = perm
        self.cone_order = cone_order

    @classmethod
    def draw(cls, rng, spec, steps=None):
        """``steps=None`` draws a signed permutation only."""
        n = spec["rank"]
        if steps is None:
            A, Ainv = signed_permutation(rng, n)
        else:
            A, Ainv = unimodular(rng, n, steps)
        perm = list(range(len(spec["rays"])))
        rng.shuffle(perm)
        order = list(range(len(spec["max_cones"])))
        rng.shuffle(order)
        return cls(A, Ainv, perm, order)

    def fan(self, spec):
        rays = [None] * len(spec["rays"])
        for i, r in enumerate(spec["rays"]):
            rays[self.perm[i]] = mat_vec(self.A, r)
        cones = [sorted(self.perm[i] for i in spec["max_cones"][k])
                 for k in self.cone_order]
        return {"rank": spec["rank"], "rays": rays, "max_cones": cones}

    def character(self, e):
        return mat_vec(self.Ainv_T, e)

    def ray_index(self, i):
        return self.perm[i]


def fan_json(spec):
    return {"rank": spec["rank"], "rays": [list(r) for r in spec["rays"]],
            "max_cones": [list(c) for c in spec["max_cones"]]}
