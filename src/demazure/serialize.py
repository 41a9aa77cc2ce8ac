"""JSON and DOT encodings for fans, divisors, elements, and reports.

The on-disk formats are small and diff-friendly.  A fan is

    {"rank": 2, "rays": [[1,0],[0,1],[-1,-1]], "max_cones": [[0,1],[1,2],[0,2]]}

and a polyhedral divisor is

    {"curve": "P1", "rank": 1, "tail": [[1]],
     "points": [{"z": [0,1], "vertices": [[[1,2]]]}, {"z": "inf", ...}],
     "marks": {"z0": [0,1], "zinf": "inf", "vertices": {"0": [[1,2]]}}}

Rational numbers travel as [numerator, denominator] pairs with positive
denominator; lattice vectors stay plain integer lists.  Points of the
base curve are such pairs or the string "inf".  Every command result is
wrapped in a versioned report carrying a content digest of the input, so
identical input yields byte-identical output.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii as _quote
from math import gcd

from .algebra import CurveCarrier, integer_numerators
from .divisors import INF, ColoredDivisor, PolyhedralDivisor, point_order
from .errors import BadIntersection, SchemaError
from .fan import build_fan, cone_stage, ray_stage
from .lattice import Cone, read_rank

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# scalars and points


def encode_rational(x):
    """A number as a [numerator, denominator] pair, denominator > 0."""
    kind = type(x)
    if kind is not Fraction and kind is not int:
        x = Fraction(x)
    return [x.numerator, x.denominator]


def decode_rational(value, where="number"):
    if isinstance(value, bool):
        raise SchemaError(f"{where}: expected a number, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if (isinstance(value, list) and len(value) == 2
            and all(isinstance(v, int) and not isinstance(v, bool)
                    for v in value)):
        num, den = value
        if den <= 0:
            raise SchemaError(f"{where}: denominator must be positive")
        return Fraction(num, den)
    raise SchemaError(f"{where}: expected an integer or a [num, den] pair")


def encode_point(z):
    return "inf" if z is INF else encode_rational(z)


def decode_point(value, where="point"):
    if value == "inf":
        return INF
    return decode_rational(value, where)


def point_label(z):
    """Canonical string form of a curve point, used as a JSON object key."""
    return "inf" if z is INF else str(Fraction(z))


def decode_point_label(label, where="point"):
    if label == "inf":
        return INF
    try:
        return Fraction(label)
    except (ValueError, ZeroDivisionError):
        raise SchemaError(f"{where}: bad point label {label!r}") from None


def _int_vector(value, rank, where):
    if (not isinstance(value, list) or len(value) != rank
            or any(isinstance(v, bool) or not isinstance(v, int)
                   for v in value)):
        raise SchemaError(f"{where}: expected a list of {rank} integers")
    return tuple(value)


def _rational_vector(value, rank, where):
    if not isinstance(value, list) or len(value) != rank:
        raise SchemaError(f"{where}: expected a list of {rank} entries")
    return tuple(decode_rational(v, where) for v in value)


# ---------------------------------------------------------------------------
# fans


def cone_to_fan_json(cone):
    """A single cone as a one-cone fan (the affine chart format)."""
    rays = cone.rays()
    return {
        "rank": cone.rank,
        "rays": [list(r) for r in rays],
        "max_cones": [list(range(len(rays)))],
    }


def unwrap_fan_json(obj):
    """Accept a raw fan object or a report whose result carries one.

    This makes the output of the divisor `toric` command directly usable
    as input for the root and orbit commands.
    """
    if not isinstance(obj, dict):
        raise SchemaError("fan file: expected a JSON object")
    if "rays" not in obj and "result" in obj:
        obj = obj["result"]
    if isinstance(obj, dict) and "rays" not in obj and "fan" in obj:
        obj = obj["fan"]
    return obj


def fan_fields_from_json(obj):
    """Validated (rank, rays, max_cones) from a fan JSON object."""
    obj = unwrap_fan_json(obj)
    if not isinstance(obj, dict):
        raise SchemaError("fan file: expected a JSON object")
    for key in ("rank", "rays", "max_cones"):
        if key not in obj:
            raise SchemaError(f"fan file: missing '{key}'")
    rank = obj["rank"]
    if isinstance(rank, bool) or not isinstance(rank, int) or rank < 1:
        raise SchemaError("fan file: 'rank' must be a positive integer")
    rays_raw = obj["rays"]
    if not isinstance(rays_raw, list):
        raise SchemaError("fan file: 'rays' must be a list")
    rays = [_int_vector(r, rank, f"ray {i}") for i, r in enumerate(rays_raw)]
    cones_raw = obj["max_cones"]
    if not isinstance(cones_raw, list):
        raise SchemaError("fan file: 'max_cones' must be a list")
    cones = []
    for i, c in enumerate(cones_raw):
        if (not isinstance(c, list)
                or any(isinstance(v, bool) or not isinstance(v, int)
                       for v in c)):
            raise SchemaError(f"max cone {i}: expected a list of ray indices")
        cones.append(list(c))
    return rank, rays, cones


def fan_from_json(obj):
    return build_fan(*fan_fields_from_json(obj))


def fan_diagnostics(rank, ray_list, maximal_cones):
    """Check fan input, collecting violations instead of stopping early.

    Returns (fan, violations).  The stages are the ones `build_fan` runs —
    rays, then supplied cones, then the wall certificate, and pairwise
    intersections in supplied order only when it does not hold — and
    every violation of the first failing stage is listed, so an empty
    list is equivalent to `build_fan` accepting the input, and the fan
    returned is the same.
    """
    rank = read_rank(rank)
    rays, violations = ray_stage(rank, ray_list)
    if not violations:
        fan, violations = cone_stage(rank, rays, maximal_cones)
    if not violations and not fan.certified_complete():
        defects = (fan.intersection_defect(a, b)
                   for a, b in itertools.combinations(fan.generating, 2))
        violations = [d for d in defects if d is not None]
    if violations:
        return None, [_violation_json(v) for v in violations]
    return fan, []


def _violation_json(exc):
    if isinstance(exc, BadIntersection):
        return {"kind": "BadIntersection",
                "cones": sorted([exc.id1, exc.id2]),
                "message": exc.reason}
    return {"kind": type(exc).__name__, "message": str(exc)}


# ---------------------------------------------------------------------------
# divisors


def divisor_to_json(div):
    points = []
    for z in sorted(div.parts, key=point_order):
        piece = div.parts[z]
        points.append({
            "z": encode_point(z),
            "vertices": [[encode_rational(c) for c in v]
                         for v in piece.vertices],
        })
    return {
        "curve": div.curve,
        "rank": div.rank,
        "tail": [list(g) for g in div.tail.gens],
        "points": points,
    }


def divisor_from_json(obj):
    if not isinstance(obj, dict):
        raise SchemaError("divisor file: expected a JSON object")
    for key in ("curve", "rank", "tail", "points"):
        if key not in obj:
            raise SchemaError(f"divisor file: missing '{key}'")
    curve = obj["curve"]
    if curve not in ("A1", "P1"):
        raise SchemaError("divisor file: 'curve' must be 'A1' or 'P1'")
    rank = obj["rank"]
    if isinstance(rank, bool) or not isinstance(rank, int) or rank < 1:
        raise SchemaError("divisor file: 'rank' must be a positive integer")
    tail_raw = obj["tail"]
    if not isinstance(tail_raw, list):
        raise SchemaError("divisor file: 'tail' must be a list of vectors")
    tail = Cone(rank, [
        _int_vector(g, rank, f"tail generator {i}")
        for i, g in enumerate(tail_raw)
    ])
    points_raw = obj["points"]
    if not isinstance(points_raw, list):
        raise SchemaError("divisor file: 'points' must be a list")
    parts = {}
    for i, entry in enumerate(points_raw):
        if not isinstance(entry, dict) or "z" not in entry \
                or "vertices" not in entry:
            raise SchemaError(
                f"point {i}: expected an object with 'z' and 'vertices'"
            )
        z = decode_point(entry["z"], f"point {i}")
        verts_raw = entry["vertices"]
        if not isinstance(verts_raw, list) or not verts_raw:
            raise SchemaError(f"point {i}: 'vertices' must be nonempty")
        verts = [
            _rational_vector(v, rank, f"point {i}, vertex {j}")
            for j, v in enumerate(verts_raw)
        ]
        parts[z] = verts
    return PolyhedralDivisor(curve, tail, parts)


def colored_from_json(obj, div=None):
    """The coloring named by the 'marks' block, or None when absent."""
    if div is None:
        div = divisor_from_json(obj)
    marks = obj.get("marks")
    if marks is None:
        return None
    if not isinstance(marks, dict) or "z0" not in marks \
            or "vertices" not in marks:
        raise SchemaError("marks: expected an object with 'z0' and 'vertices'")
    z0 = decode_point(marks["z0"], "marks.z0")
    zinf = None
    if "zinf" in marks and marks["zinf"] is not None:
        zinf = decode_point(marks["zinf"], "marks.zinf")
    verts_raw = marks["vertices"]
    if not isinstance(verts_raw, dict):
        raise SchemaError("marks.vertices: expected an object keyed by point")
    vertices = {}
    for label, v in verts_raw.items():
        z = decode_point_label(label, "marks.vertices")
        vertices[z] = _rational_vector(
            v, div.rank, f"marks.vertices[{label!r}]"
        )
    return ColoredDivisor(div, z0, vertices, zinf=zinf)


# ---------------------------------------------------------------------------
# algebra elements


def encode_key(key):
    if key and isinstance(key[0], tuple):
        m, r = key
        return [list(m), r]
    return list(key)


def _decode_key(carrier, value, where):
    if isinstance(carrier, CurveCarrier):
        if not isinstance(value, list) or len(value) != 2:
            raise SchemaError(f"{where}: expected [weight, power] for a key")
        m = _int_vector(value[0], carrier.rank, where)
        r = value[1]
        if isinstance(r, bool) or not isinstance(r, int):
            raise SchemaError(f"{where}: the power must be an integer")
        return (m, r)
    return _int_vector(value, carrier.rank, where)


def image_to_json(image):
    """An integer image (d, {key: n}), the element sum n/d chi^key with
    d > 0, as its terms in key order, each coefficient written as the
    reduced pair [n // g, d // g] with g = gcd(n, d)."""
    d, nums = image
    terms = []
    for key in sorted(nums):
        n = nums[key]
        g = gcd(n, d)
        terms.append({"key": encode_key(key), "coeff": [n // g, d // g]})
    return {"terms": terms}


def element_to_json(element):
    return image_to_json(integer_numerators(element.terms))


def element_from_json(carrier, obj):
    from .algebra import SemigroupElement

    if not isinstance(obj, dict) or "terms" not in obj \
            or not isinstance(obj["terms"], list):
        raise SchemaError("element: expected an object with a 'terms' list")
    pairs = []
    for i, term in enumerate(obj["terms"]):
        if not isinstance(term, dict) or "key" not in term:
            raise SchemaError(f"element term {i}: expected a 'key'")
        key = _decode_key(carrier, term["key"], f"element term {i}")
        coeff = decode_rational(term.get("coeff", 1), f"element term {i}")
        pairs.append((key, coeff))
    return SemigroupElement(carrier, pairs)


def symbolic_to_json(element):
    terms = []
    for key in sorted(element.terms):
        poly = element.terms[key]
        terms.append({
            "key": encode_key(key),
            "polynomial": [[k, encode_rational(poly[k])]
                           for k in sorted(poly)],
        })
    return {"terms": terms}


# ---------------------------------------------------------------------------
# reports and graphs


def input_digest(data):
    return "sha256:" + hashlib.sha256(data).hexdigest()


def report(command, digest, result):
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "input_digest": digest,
        "result": result,
    }


def error_report(command, digest, kind, message):
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "input_digest": digest,
        "error": {"kind": kind, "message": message},
    }


def render(obj):
    """``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``, written directly.

    With ``indent`` set, CPython's json runs its pure-Python encoder; this
    writer gives the same bytes (two-space indent, sorted keys, ASCII
    escapes, a trailing newline) in one recursive pass of ``_dumps``, which
    writes each term of an element from one format string (``_term``).
    """
    return _dumps(obj, "\n") + "\n"


def _dumps(obj, nl):
    """``obj`` as json.dumps writes it at the depth whose newline and
    indentation are ``nl``.

    Exact str, int, None and bool are written here, as is every dict, list
    and tuple (subclasses too, which json also sorts and indents); an int
    inside a container is written in place, without a call, and so is a
    term dict inside a list, by one ``%`` format (``_term``).  Any other
    leaf (floats, subclasses of str and int, and anything json rejects)
    and any key that is not a str go through ``json.dumps``, so the output
    and the TypeErrors are json's.  Plain loops, not generators, keep the
    many short int lists of term keys and coefficients cheap.
    """
    kind = type(obj)
    if kind is str:
        return _quote(obj)
    if kind is int:
        return int.__repr__(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = nl + "  "
        items = []
        for key, value in sorted(obj.items()):
            # json's own conversion of a key that is not a string, TypeError
            # included: '{"1": 0}' -> '"1"'
            items.append(
                (_quote(key) if isinstance(key, str)
                 else json.dumps({key: 0})[1:-4])
                + ": "
                + (int.__repr__(value) if type(value) is int
                   else _dumps(value, inner)))
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = nl + "  "
        items = []
        for x in obj:
            kind = type(x)
            if kind is int:
                items.append(int.__repr__(x))
            elif kind is dict and len(x) == 2 \
                    and (text := _term(x, inner)) is not None:
                items.append(text)
            else:
                items.append(_dumps(x, inner))
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    # floats, subclasses of str and int, and anything json rejects
    return json.dumps(obj)


def _term(obj, nl):
    """The two-key dict ``obj`` as ``_dumps(obj, nl)`` writes it, when it is
    a term as the element writers make it, else None.

    A term is {"key": K, "coeff": [n, d]} or {"key": K, "polynomial":
    [[k, [n, d]], ...]}, K a toric key [m...] or a curve key [[m...], r],
    every list nonempty and of exact type list, every leaf of exact type
    int.  It is written by one ``%`` format per indentation, key shape and
    second key, a polynomial by one entry format per indentation, joined
    (so the cached formats grow with the depths and key lengths met, not
    with the number of powers); ``%d`` writes an exact int as ``int.__repr__`` does, ValueError past
    the digit limit included.  Anything else is left to the generic path.
    """
    key = obj.get("key")
    if type(key) is not list or not key:
        return None
    head = key[0]
    if type(head) is list:
        if len(key) != 2 or not head:
            return None
        args = [*head, key[1]]
        shape = -len(head)
    else:
        args = key
        shape = len(key)
    for x in args:
        if type(x) is not int:
            return None
    coeff = obj.get("coeff")
    if coeff is not None:
        if type(coeff) is not list or len(coeff) != 2:
            return None
        n, d = coeff
        if type(n) is not int or type(d) is not int:
            return None
        args = (n, d, *args)
        second = "coeff"
    else:
        poly = obj.get("polynomial")
        if type(poly) is not list or not poly:
            return None
        b = nl + "    "
        entry = _entry_format(b)
        entries = []
        for p in poly:
            if type(p) is not list or len(p) != 2:
                return None
            k, c = p
            if type(k) is not int or type(c) is not list or len(c) != 2:
                return None
            n, d = c
            if type(n) is not int or type(d) is not int:
                return None
            entries.append(entry % (k, n, d))
        args = (*args, ("," + b).join(entries))
        second = "polynomial"
    return _term_format(nl, shape, second) % args


@cache
def _entry_format(nl):
    """The ``%`` format of a polynomial entry [k, [n, d]] at ``nl``."""
    i, j = nl + "  ", nl + "    "
    return "[" + i + "%d," + i + "[" + j + "%d," + j + "%d" + i + "]" + nl + "]"


@cache
def _term_format(nl, shape, second):
    """The ``%`` format of a term at ``nl`` whose key is toric with
    ``shape`` entries or, for ``-shape``, a curve key with that many, and
    whose second key is "coeff" or "polynomial"."""
    a = nl + "  "
    b, c = a + "  ", a + "    "
    if shape > 0:
        key = '"key": [' + b + ("," + b).join(["%d"] * shape) + a + "]"
    else:
        key = ('"key": [' + b + "[" + c + ("," + c).join(["%d"] * -shape)
               + b + "]," + b + "%d" + a + "]")
    if second == "coeff":
        items = ['"coeff": [' + b + "%d," + b + "%d" + a + "]", key]
    else:
        items = [key, '"polynomial": [' + b + "%s" + a + "]"]
    return "{" + a + ("," + a).join(items) + nl + "}"


def dot_graph(fan, pairs):
    """The torus-orbit digraph: one node per cone, one edge per pair."""
    def node(key):
        ref = fan.ref(key)
        return f"\"{fan.cone_id(key)} (dim {ref.dim})\""

    keys = sorted(fan.cones, key=lambda k: (len(k), tuple(sorted(k))))
    lines = ["digraph orbits {"]
    for key in keys:
        lines.append(f"  {node(key)};")
    edges = sorted(
        (node(p.cone1), node(p.cone2)) for p in pairs
    )
    for a, b in edges:
        lines.append(f"  {a} -> {b} [label=\"He\"];")
    lines.append("}")
    return "\n".join(lines) + "\n"
