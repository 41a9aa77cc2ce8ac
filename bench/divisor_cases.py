"""Marked polyhedral divisors for the ``flows`` workload, with expected fields.

Every expected value here was worked out by hand from the definitions
(coefficient evaluation, the Minkowski degree, the coherence twist
s = (-1 - d<v0, e>) / d, and the {0, infinity} normal form); none is
computed by ``demazure``.  The seeded variants move a support point or
change an integral vertex, which keeps the hand derivation valid:

* ``relabel(z, c)`` over P^1: 1/2 at 0, c at z > 0, 1 at infinity,
  c >= 1.  Odd roots e >= 1 are coherent with d = 2, s = -(e + 1)/2; the
  normal form keeps 1/2 at 0 and moves c to infinity (1 + c there).
* ``halfpoint()`` over A^1: 1/2 at 0.  Odd e is coherent as above; even
  e fails condition (i) because the twist is not integral.
* ``shift(a, b)`` over P^1: a at 0, b at infinity, a, b >= 1.  Every
  e >= 0 is coherent with d = 1, s = -1 - a e; at degree zero the normal
  form is a + b at infinity.
* ``toric_b(k)`` over P^1: k at infinity only, k >= 1; its toric model is
  the cone on (0, 1) and (k, -1) with root (0, -1).
"""

from __future__ import annotations

from fractions import Fraction
from math import floor

from jobs import enc


def _point(z):
    return "inf" if z == "inf" else enc(z)


def _divisor(curve, rank, tail, points, marks=None):
    obj = {"curve": curve, "rank": rank, "tail": tail,
           "points": [{"z": _point(z), "vertices": [[enc(x) for x in v]
                                                     for v in verts]}
                      for z, verts in points]}
    if marks is not None:
        z0, zinf, chosen = marks
        obj["marks"] = {"z0": _point(z0), "vertices": {
            str(Fraction(z)): [enc(x) for x in v] for z, v in chosen}}
        if zinf is not None:
            obj["marks"]["zinf"] = _point(zinf)
    return obj


HALF = Fraction(1, 2)


def relabel(z, c):
    return _divisor("P1", 1, [[1]],
                    [(0, [(HALF,)]), (z, [(c,)]), ("inf", [(1,)])],
                    (0, "inf", [(0, (HALF,)), (z, (c,))]))


def halfpoint():
    return _divisor("A1", 1, [[1]], [(0, [(HALF,)])],
                    (0, None, [(0, (HALF,))]))


def shift(a, b):
    return _divisor("P1", 1, [[1]], [(0, [(a,)]), ("inf", [(b,)])],
                    (0, "inf", [(0, (a,))]))


def toric_a():
    return _divisor("A1", 2, [[1, 0], [0, 1]], [])


def toric_b(k):
    return _divisor("P1", 1, [[1]], [("inf", [(k,)])])


# the violation fixtures of the package's own examples, verbatim
VIOLATION_II = _divisor(
    "A1", 1, [], [(0, [(0,)]), (1, [(0,), (1,)])],
    (0, None, [(0, (0,)), (1, (0,))]))
VIOLATION_III = _divisor(
    "A1", 1, [], [(0, [(0,), (1,)])], (0, None, [(0, (0,))]))
VIOLATION_IV = _divisor(
    "P1", 2, [[1, 0], [0, 1]],
    [(0, [(HALF, 0)]), ("inf", [(-1, 1), (-2, 3)])],
    (0, "inf", [(0, (HALF, 0))]))


# ---------------------------------------------------------------------------
# expected fields


def relabel_eval(z, c, w):
    values = [{"z": enc(0), "value": enc(HALF * w)},
              {"z": enc(z), "value": enc(c * w)},
              {"z": "inf", "value": enc(w)}]
    dim = max(0, 1 + floor(HALF * w) + c * w + w)
    return {"values": values, "weight_dim": dim, "weight_module": None}


def halfpoint_eval(w):
    k = -floor(HALF * w)
    shifts = [[enc(0), k]] if k else []
    return {"values": [{"z": enc(0), "value": enc(HALF * w)}],
            "weight_dim": None, "weight_module": {"shifts": shifts}}


def relabel_degree(c):
    return {"tail": [[1]], "vertices": [[enc(c + Fraction(3, 2))]]}


VIOLATION_IV_DEGREE = {"tail": [[0, 1], [1, 0]],
                       "vertices": [[[-3, 2], [3, 1]], [[-1, 2], [1, 1]]]}


def shift_normal_form(a, b):
    return {"curve": "P1", "rank": 1, "tail": [[1]],
            "points": [{"z": "inf", "vertices": [[enc(a + b)]]}]}


def odd_twist(e):
    """d and s of a coherent odd root e over the half-point vertex."""
    return 2, -(e + 1) // 2


def relabel_normal_form(c):
    return {"curve": "P1", "rank": 1, "tail": [[1]],
            "points": [{"z": enc(0), "vertices": [[enc(HALF)]]},
                       {"z": "inf", "vertices": [[enc(1 + c)]]}]}


# Horizontal carriers for the lnd flows: (v0, d, s) of the derivation
# chi^m t^r -> d(<v0, m> + r) chi^(m+e) t^(r+s), and the admissible
# range of r for a weight m >= 0.


def relabel_carrier(c, e):
    d, s = odd_twist(e)
    return {"v0": (HALF,), "d": d, "e": (e,), "s": s,
            "r_range": lambda m: (-floor(HALF * m), (1 + c) * m)}


def halfpoint_carrier(e):
    d, s = odd_twist(e)
    return {"v0": (HALF,), "d": d, "e": (e,), "s": s,
            "r_range": lambda m: (-floor(HALF * m), None)}


def shift_carrier(a, b, e):
    return {"v0": (Fraction(a),), "d": 1, "e": (e,), "s": -1 - a * e,
            "r_range": lambda m: (-a * m, b * m)}
