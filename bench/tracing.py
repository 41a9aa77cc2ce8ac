"""Boundary tracing for the benchmark's traced runs.

``install`` wraps the named functions of each ``demazure`` layer (one
layer per module) and replaces every binding of each function across the
``demazure.*`` modules; methods are wrapped on their class.  A call that
enters a different layer than the one running records a span (layer,
function, start, end, parent span, job id); a call inside the same layer
only adds to that function's count and, for its outermost call, its
inclusive time.  Spans are kept in memory in typed arrays and written
once, at the end of the run.

Counters marked *computed* are derived here from call arguments and
results; nothing in this module calls into ``demazure``.
"""

from __future__ import annotations

import array
import collections
import json
import sys
import time
from fractions import Fraction
from math import comb, factorial, gcd

LAYERS = ("cli", "serialize", "fan", "lattice", "roots", "orbits",
          "algebra", "divisors")


def _primitive(v):
    fr = [Fraction(x) for x in v]
    den = 1
    for x in fr:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in fr]
    g = 0
    for x in ints:
        g = gcd(g, x)
    return tuple(x // g for x in ints)


# computed counters, fed by (args, kwargs, result) of a finished call


def _dual_description(c, args, kwargs, result):
    gens, rank = args
    m = len({_primitive(g) for g in gens})
    r = rank - len(result[1])  # rank of the generators = rank - dim lineality
    if r >= 1:
        c["lattice.dual_subsets"] += comb(m, r - 1)
    c["lattice.dual_rays"] += len(result[0])


def _lattice_points(c, args, kwargs, result):
    c["lattice.points_kept"] += len(result)
    box = kwargs.get("box", args[3] if len(args) > 3 else None)
    if box is None:
        return
    ineqs = kwargs.get("inequalities", args[1] if len(args) > 1 else ())
    eqs = kwargs.get("equalities", args[2] if len(args) > 2 else ())
    # a zero row that cannot hold empties the system before any scan
    if any(not any(u) and b > 0 for u, b in ineqs) or \
            any(not any(u) and b != 0 for u, b in eqs):
        return
    points = 1
    for lo, hi in box:
        points *= max(0, int(hi) - int(lo) + 1)
    c["lattice.box_points"] += points
    c["lattice.box_kept"] += len(result)


def _check_condition2(c, args, kwargs, result):
    c["roots.condition2_ok"] += bool(result[0])


def _roots_of_fan(c, args, kwargs, result):
    c["roots.roots_kept"] += len(result.roots)


def _fan_automorphisms(c, args, kwargs, result):
    c["orbits.perms_tried"] += factorial(len(args[0].rays))
    c["orbits.autos_found"] += len(result)


def _derive(c, args, kwargs, result):
    c["algebra.terms_out"] += len(result.terms)


# (module, function or Class.method, metric stem or None, counter hook).
# A stem names the *_s / *_calls metrics; the entries without one are
# wrapped only so that their time is charged to the right layer.
TARGETS = [
    ("lattice", "dual_description", "dual_description", _dual_description),
    ("lattice", "lattice_points", "lattice_points", _lattice_points),
    ("lattice", "integer_feasible", "integer_feasible", None),
    ("lattice", "smith_normal_form", "smith_normal_form", None),
    ("lattice", "mat_rank", None, None),
    ("lattice", "nullspace", None, None),
    ("lattice", "det", None, None),
    ("lattice", "mat_inverse", None, None),
    ("lattice", "Cone.__init__", None, None),
    ("lattice", "Cone.rays", None, None),
    ("lattice", "Cone.dual_pair", None, None),
    ("lattice", "Cone.is_strongly_convex", None, None),
    ("lattice", "Cone.face_ray_sets", None, None),
    ("lattice", "Cone.contains", None, None),
    ("fan", "build_fan", "build_fan", None),
    ("fan", "is_complete", None, None),
    ("fan", "cone_properties", None, None),
    ("fan", "Fan.cone_geometry", None, None),
    ("fan", "Fan.face_sets", None, None),
    ("fan", "Fan.maximal_keys", None, None),
    ("serialize", "fan_diagnostics", "fan_diagnostics", None),
    ("serialize", "render", "render", None),
    ("serialize", "fan_from_json", None, None),
    ("serialize", "fan_fields_from_json", None, None),
    ("serialize", "divisor_from_json", None, None),
    ("serialize", "colored_from_json", None, None),
    ("serialize", "divisor_to_json", None, None),
    ("serialize", "element_from_json", None, None),
    ("serialize", "element_to_json", None, None),
    ("serialize", "symbolic_to_json", None, None),
    ("serialize", "cone_to_fan_json", None, None),
    ("serialize", "input_digest", None, None),
    ("roots", "roots_of_fan", "roots_of_fan", _roots_of_fan),
    ("roots", "check_condition2", "check_condition2", _check_condition2),
    ("roots", "extension_in_fan", "extension_in_fan", None),
    ("orbits", "fan_automorphisms", "fan_automorphisms", _fan_automorphisms),
    ("orbits", "classify_roots", "classify_roots", None),
    ("orbits", "root_image", "root_image", None),
    ("orbits", "admits_g_structure", "admits_g_structure", None),
    ("orbits", "g_orbit_partition", "g_orbit_partition", None),
    ("orbits", "verify_root", "verify_root", None),
    ("orbits", "he_connected_pairs", None, None),
    ("orbits", "g_invariant_divisors", None, None),
    ("algebra", "derive", "derive", _derive),
    ("algebra", "SemigroupElement.__init__", "element_new", None),
    ("algebra", "SemigroupElement.__mul__", None, None),
    ("algebra", "SemigroupElement.__eq__", None, None),
    ("algebra", "exp_action", "exp_action", None),
    ("algebra", "exp_symbolic", "exp_symbolic", None),
    ("algebra", "nilpotency_index", "nilpotency_index", None),
    ("algebra", "toric_lnd", None, None),
    ("divisors", "coherent_check", "coherent_check", None),
    ("divisors", "horizontal_lnd", "horizontal_lnd", None),
    ("divisors", "degree_zero_normalize", None, None),
    ("divisors", "toric_realization", None, None),
    ("divisors", "PolyhedralDivisor.__init__", None, None),
    ("divisors", "PolyhedralDivisor.degree", None, None),
    ("divisors", "PolyhedralDivisor.is_proper", None, None),
    ("divisors", "ColoredDivisor.__init__", None, None),
]


class FuncStat:
    __slots__ = ("calls", "depth", "time")

    def __init__(self):
        self.calls = 0
        self.depth = 0
        self.time = 0.0


class Tracer:
    def __init__(self):
        self.layer = -1        # layer index of the running span
        self.span = -1         # index of the running span
        self.job = -1
        self.func_names = ["job"]
        self.s_layer = array.array("b")
        self.s_func = array.array("h")
        self.s_start = array.array("d")
        self.s_end = array.array("d")
        self.s_parent = array.array("q")
        self.s_job = array.array("q")
        self.stats = {}        # metric stem -> FuncStat
        self.counters = collections.Counter()
        self.job_time = 0.0

    def _open(self, layer, func, start):
        idx = len(self.s_start)
        self.s_layer.append(layer)
        self.s_func.append(func)
        self.s_start.append(start)
        self.s_end.append(start)
        self.s_parent.append(self.span)
        self.s_job.append(self.job)
        self.layer = layer
        self.span = idx
        return idx

    def run_job(self, job_id, fn):
        """Run ``fn()`` as job ``job_id`` under a root span of layer cli."""
        self.job = job_id
        t0 = time.perf_counter()
        idx = self._open(0, 0, t0)
        try:
            return fn()
        finally:
            t1 = time.perf_counter()
            self.s_end[idx] = t1
            self.job_time += t1 - t0
            self.layer = -1
            self.span = -1

    def wrap(self, fn, layer, name, stat, hook):
        tracer = self
        func = len(self.func_names)
        self.func_names.append(name)
        perf = time.perf_counter
        counters = self.counters

        def traced(*args, **kwargs):
            stat.calls += 1
            outer = stat.depth == 0
            stat.depth += 1
            cross = tracer.layer != layer
            t0 = perf()
            if cross:
                prev_layer, prev_span = tracer.layer, tracer.span
                idx = tracer._open(layer, func, t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stat.depth -= 1
                if outer:
                    stat.time += t1 - t0
                if cross:
                    tracer.s_end[idx] = t1
                    tracer.layer, tracer.span = prev_layer, prev_span
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- results -------------------------------------------------------------

    def self_times(self):
        """Per layer: span time minus the time of child spans of other layers."""
        n = len(self.s_start)
        child = [0.0] * n
        for i in range(n):
            p = self.s_parent[i]
            if p >= 0:
                child[p] += self.s_end[i] - self.s_start[i]
        out = [0.0] * len(LAYERS)
        for i in range(n):
            out[self.s_layer[i]] += self.s_end[i] - self.s_start[i] - child[i]
        return dict(zip(LAYERS, out))

    def write(self, directory):
        """Write the spans once: a JSON header and the raw typed columns."""
        directory.mkdir(parents=True, exist_ok=True)
        columns = [("layer", self.s_layer), ("func", self.s_func),
                   ("start", self.s_start), ("end", self.s_end),
                   ("parent", self.s_parent), ("job", self.s_job)]
        with open(directory / "spans.bin", "wb") as fh:
            for _, col in columns:
                col.tofile(fh)
        header = {"spans": len(self.s_start), "layers": list(LAYERS),
                  "functions": self.func_names,
                  "byteorder": sys.byteorder,
                  "columns": [[name, col.typecode] for name, col in columns]}
        (directory / "spans.json").write_text(json.dumps(header, indent=1))


def install(tracer, package="demazure"):
    """Wrap every target and rebind it wherever the package refers to it."""
    modules = [m for name, m in sys.modules.items()
               if (name == package or name.startswith(package + "."))
               and m is not None]
    for module_name, qualname, stem, hook in TARGETS:
        layer = LAYERS.index(module_name)
        module = sys.modules[f"{package}.{module_name}"]
        stat = tracer.stats.setdefault(stem or qualname, FuncStat())
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(module, cls_name)
            orig = cls.__dict__[attr]
            setattr(cls, attr, tracer.wrap(orig, layer, qualname, stat, hook))
            continue
        orig = getattr(module, qualname)
        wrapped = tracer.wrap(orig, layer, qualname, stat, hook)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, wrapped)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, per):
    """The per-layer metrics, each divided by ``per`` (blocks traced)."""
    st, c = tracer.stats, tracer.counters
    selfs = tracer.self_times()
    out = {}

    def put(name, value, unit):
        out[name] = (value / per if unit in ("s", "count") else value, unit)

    for stem, layer, timed, counted in (
            ("dual_description", "lattice", True, True),
            ("lattice_points", "lattice", True, False),
            ("integer_feasible", "lattice", True, True),
            ("smith_normal_form", "lattice", False, True),
            ("build_fan", "fan", True, True),
            ("fan_diagnostics", "serialize", True, False),
            ("render", "serialize", True, False),
            ("roots_of_fan", "roots", True, False),
            ("check_condition2", "roots", False, True),
            ("extension_in_fan", "roots", True, True),
            ("fan_automorphisms", "orbits", True, True),
            ("classify_roots", "orbits", True, False),
            ("root_image", "orbits", False, True),
            ("admits_g_structure", "orbits", True, False),
            ("g_orbit_partition", "orbits", True, False),
            ("verify_root", "orbits", False, True),
            ("derive", "algebra", True, True),
            ("element_new", "algebra", True, True),
            ("exp_action", "algebra", True, False),
            ("exp_symbolic", "algebra", True, False),
            ("nilpotency_index", "algebra", True, False),
            ("coherent_check", "divisors", True, False),
            ("horizontal_lnd", "divisors", True, False)):
        if timed:
            put(f"{layer}.{stem}_s", st[stem].time, "s")
        if counted:
            put(f"{layer}.{stem}_calls", st[stem].calls, "count")
    put("lattice.dual_subsets", c["lattice.dual_subsets"], "count")
    put("lattice.dual_yield", _ratio(c["lattice.dual_rays"],
                                     c["lattice.dual_subsets"]), "ratio")
    put("lattice.box_points", c["lattice.box_points"], "count")
    put("lattice.points_kept", c["lattice.points_kept"], "count")
    put("lattice.box_yield", _ratio(c["lattice.box_kept"],
                                    c["lattice.box_points"]), "ratio")
    put("roots.roots_kept", c["roots.roots_kept"], "count")
    put("roots.condition2_yield", _ratio(c["roots.condition2_ok"],
                                         st["check_condition2"].calls),
        "ratio")
    put("orbits.perms_tried", c["orbits.perms_tried"], "count")
    put("orbits.auto_yield", _ratio(c["orbits.autos_found"],
                                    c["orbits.perms_tried"]), "ratio")
    put("algebra.terms_out", c["algebra.terms_out"], "count")
    for layer in LAYERS:
        put(f"{layer}.self_s", selfs[layer], "s")
    return out
