"""The three workloads, each a seeded sequence of blocks of jobs.

Every block of a workload has the same composition (the same commands
on the same input families, in the same numbers); the seed draws the
changes of basis, ray orders, roots, elements, times and divisor
variants, and the order of the jobs inside the block.  A run executes
whole blocks, so the mix, and with it the cost distribution, is the
same for every seed and every run length.

Input files are written by ``InputWriter`` while the blocks are built;
the program only ever sees those files and the argv of each job.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction

import divisor_cases as D
import families as F
import oracle as O
from jobs import (
    Job,
    class_sizes_sum,
    enc,
    expect_error,
    expect_library,
    expect_result,
    polys_equal,
    root_set,
    terms_equal,
    vector_arg,
)

FAN_COMMANDS = ("fan-validate", "roots", "orbits", "classify", "admits")


class Family:
    """A fan family with its closed-form counts and standard-basis roots."""

    def __init__(self, name, spec, counts, roots):
        self.name = name
        self.spec = spec
        self.counts = counts
        self.roots = roots


def _rank2_family(name, spec):
    roots = O.rank2_roots(spec)
    counts = {"roots": len(roots),
              "autos": len(O.rank2_automorphisms(spec)),
              "classes": O.rank2_class_count(spec)}
    return Family(name, spec, counts, roots)


def _complete_families():
    out = [Family("P2", F.projective_space(2), O.projective_space_counts(2),
                  O.projective_space_roots(2)),
           Family("P1^2", F.p1_power(2), O.p1_power_counts(2),
                  O.p1_power_roots(2))]
    for a in range(9):
        spec = F.hirzebruch(a)
        out.append(Family(f"F{a}", spec, O.hirzebruch_counts(a),
                          O.rank2_roots(spec)))
    rank3 = [Family("P3", F.projective_space(3), O.projective_space_counts(3),
                    O.projective_space_roots(3)),
             Family("P1^3", F.p1_power(3), O.p1_power_counts(3),
                    O.p1_power_roots(3)),
             Family("P2xP1", F.p2_times_p1(), O.P2_TIMES_P1_COUNTS,
                    O.p2_times_p1_roots())]
    giant = Family("P4", F.projective_space(4), O.projective_space_counts(4),
                   O.projective_space_roots(4))
    return out, rank3, giant


RANK2, RANK3, P4 = _complete_families()
POLYGONS = {name: _rank2_family(name, F.polygon(rays))
            for name, rays in F.POLYGONS.items()}
BAD_INTERSECTION = {"rank": 2, "rays": [(1, 0), (0, 1), (1, 1)],
                    "max_cones": [[0, 1], [0, 2]]}


class Instance:
    """One transformed copy of a family, written to its own file."""

    def __init__(self, family, bc, writer):
        self.family = family
        self.bc = bc
        self.spec = bc.fan(family.spec)
        self.path = writer.add(F.fan_json(self.spec))

    def roots(self):
        return [(self.bc.ray_index(i), self.bc.character(e))
                for i, e in self.family.roots]


def _fan_job(command, inst, rng, bound=None):
    fam = inst.family
    kind = f"{command}:{fam.name}"
    path = inst.path
    counts = fam.counts
    if command == "admits":
        return Job(kind, None, path, expect_library(counts["roots"] > 0))
    if command == "fan-validate":
        spec = inst.spec
        props = {"rank": spec["rank"], "rays": len(spec["rays"]),
                 "complete": True, "smooth": True, "simplicial": True,
                 "total_cones": len(O.simplicial_cones(spec)),
                 "cones_by_dim": O.cones_by_dim(spec)}
        fields = {"valid": True}
        fields.update({f"properties.{k}": v for k, v in props.items()})
        return Job(kind, ["fan-validate", path], path,
                   expect_result(0, command, fields))
    bound_args = [] if bound is None else ["--bound", str(bound)]
    if command == "roots":
        return Job(kind, ["roots", path] + bound_args, path, expect_result(
            0, command, {"count": counts["roots"], "bound": bound,
                         "complete_enumeration": bound is None,
                         "roots": root_set(inst.roots())}))
    if command == "classify":
        return Job(kind, ["classify", path] + bound_args, path, expect_result(
            0, command, {"automorphism_order": counts["autos"],
                         "class_count": counts["classes"], "bound": bound,
                         "complete_enumeration": bound is None,
                         "classes": class_sizes_sum(counts["roots"])}))
    # the remaining command: orbits, for a root drawn from the family
    i, e = rng.choice(fam.roots)
    i2, e2 = inst.bc.ray_index(i), inst.bc.character(e)
    want = counts.get("orbits") or O.g_orbit_count(inst.spec, i2, e2)
    return Job(kind, ["orbits", path, vector_arg("--root", e2)], path,
               expect_result(0, command, {"orbit_count": want,
                                          "root.ray_index": i2,
                                          "root.e": list(e2)}))


# ---------------------------------------------------------------------------
# fans


def _affine_family(n, bound):
    spec = F.affine_space(n)
    roots = []
    for i in range(n):
        for rest in itertools.product(range(bound + 1), repeat=n - 1):
            e = list(rest)
            e.insert(i, -1)
            roots.append((i, tuple(e)))
    return Family(f"A{n}", spec, O.affine_space_counts(n, bound), roots)


A3 = {b: _affine_family(3, b) for b in (2, 4, 6, 8)}


def fans_block(rng, writer):
    """The fan-side commands: complete fans, box scans on A^3, polygons.

    Five commands on each complete fan of rank 2-4 with at most 6 rays.
    Per family, one fresh fan serves three commands and two fans serve one
    command each, so 2 of every 5 jobs repeat a file and 3 see a new one.
    """
    jobs = []
    for fam in RANK2 + RANK3:
        # rank 3 takes fewer row operations: its jobs carry most of the time
        steps = 4 if fam.spec["rank"] == 2 else 2
        shared = Instance(fam, F.BasisChange.draw(
            rng, fam.spec, rng.randint(0, steps)), writer)
        on_shared = set(rng.sample(FAN_COMMANDS, 3))
        for command in FAN_COMMANDS:
            inst = shared if command in on_shared else Instance(
                fam, F.BasisChange.draw(rng, fam.spec, rng.randint(0, steps)),
                writer)
            jobs.append(_fan_job(command, inst, rng))
    # P^4 is the capped share: one roots job per block, under a signed
    # permutation only, because row operations change its cost by up to 2x
    inst = Instance(P4, F.BasisChange.draw(rng, P4.spec), writer)
    jobs.append(_fan_job("roots", inst, rng))

    # Explicit boxes: the box max|e_i| <= B is invariant only under signed
    # permutations, so these inputs get no row operations.
    for b, fam in A3.items():
        inst = Instance(fam, F.BasisChange.draw(rng, fam.spec), writer)
        jobs.append(_fan_job("roots", inst, rng, bound=b))
    inst = Instance(A3[4], F.BasisChange.draw(rng, A3[4].spec), writer)
    jobs.append(_fan_job("classify", inst, rng, bound=4))
    # the root-free hexagon forces the exhaustive admits_g_structure search
    for command, name in (("admits", "hexagon"), ("classify", "f1_b2")):
        fam = POLYGONS[name]
        inst = Instance(fam, F.BasisChange.draw(rng, fam.spec), writer)
        jobs.append(_fan_job(command, inst, rng))

    bad = F.BasisChange.draw(rng, BAD_INTERSECTION, rng.randint(0, 4))
    path = writer.add(F.fan_json(bad.fan(BAD_INTERSECTION)))
    jobs.append(Job("fan-validate:bad", ["fan-validate", path], path,
                    expect_result(3, "fan-validate", {
                        "valid": False,
                        "violations.0.kind": "BadIntersection"})))
    p2 = Instance(RANK2[0], F.BasisChange.draw(rng, RANK2[0].spec,
                                               rng.randint(0, 4)), writer)
    e = p2.bc.character((-2, 0))  # pairs to -2 with a ray: not a root
    jobs.append(Job("orbits:nonroot", ["orbits", p2.path,
                                       vector_arg("--root", e)], p2.path,
                    expect_error(5, "orbits", "NotARoot")))
    inst = Instance(A3[2], F.BasisChange.draw(rng, A3[2].spec), writer)
    jobs.append(Job("roots:unbounded", ["roots", inst.path], inst.path,
                    expect_error(4, "roots", "UnboundedRoots")))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# flows


def _toric_roots(rng, name):
    """A root (ray normal, e) of the affine chart, drawn by family."""
    if name == "A2":
        i, k = rng.randrange(2), rng.randint(0, 3)
        e = [k, k]
        e[i] = -1
        return F.affine_space(2)["rays"][i], tuple(e)
    if name == "A3":
        i = rng.randrange(3)
        e = [rng.randint(0, 2) for _ in range(3)]
        e[i] = -1
        return F.affine_space(3)["rays"][i], tuple(e)
    # the singular cone on (1, 0) and (1, 2)
    if rng.random() < 0.5:
        return (1, 0), (-1, rng.randint(1, 3))
    j = rng.randint(0, 2)
    return (1, 2), (2 * j + 1, -(j + 1))


SINGULAR = F.affine_cone([(1, 0), (1, 2)])
TORIC_CHARTS = {"A2": F.affine_space(2), "A3": F.affine_space(3),
                "sing": SINGULAR}


def _toric_key(rng, name, normal, q):
    """A weight m of the dual cone with <normal, m> = q."""
    if name == "sing":
        if normal == (1, 0):
            return (q, rng.randint(-(q // 2), 3))
        m2 = rng.randint(-2, q // 2)
        return (q - 2 * m2, m2)
    m = [rng.randint(0, 3) for _ in normal]
    m[normal.index(1)] = q
    return tuple(m)


def _horizontal_key(rng, carrier, q):
    """A pair (m, r) admissible for the carrier with multiplier q."""
    v0, d = carrier["v0"][0], carrier["d"]
    found = []
    for m in range(q + 8):
        r = Fraction(q, d) - v0 * m
        lo, hi = carrier["r_range"](m)
        if r.denominator == 1 and r >= lo and (hi is None or r <= hi):
            found.append(((m,), int(r)))
            if len(found) == 4:
                break
    return rng.choice(found)


def _coeff(rng):
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3, 5)), rng.randint(1, 4))


def _element(rng, draw_key, q, size):
    """Up to ``size`` terms; the first has multiplier q, the rest at most q."""
    terms = {draw_key(q): _coeff(rng)}
    for _ in range(size - 1):
        terms.setdefault(draw_key(rng.randint(0, q)), _coeff(rng))
    return terms


def _element_json(terms):
    return {"terms": [{"key": [list(k[0]), k[1]] if isinstance(k[0], tuple)
                       else list(k), "coeff": enc(c)}
                      for k, c in terms.items()]}


def _lnd_job(kind, path, root_arg, deriv, mode, rng, draw_key, q, algebra,
             root):
    """One lnd job in ``mode`` numeric / symbolic / product."""
    if mode == "product":
        qf = rng.randint(0, q)
        f = _element(rng, draw_key, qf, rng.randint(1, 2))
        g = _element(rng, draw_key, q - qf, rng.randint(1, 2))
        spec = {"product": [_element_json(f), _element_json(g)]}
        terms = O.product(f, g, lambda a, b: _add_keys(a, b))
    else:
        terms = _element(rng, draw_key, q, rng.randint(1, 3))
        spec = _element_json(terms)
    argv = ["lnd", path, root_arg, "--element",
            json.dumps(spec, separators=(",", ":"))]
    if mode == "symbolic":
        argv.append("--symbolic")
        s = None
    else:
        s = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))
        argv.append(f"--time={s}")

    def check(code, output):
        # the reference flow is built here, after the job, not in set-up
        fields = {"algebra": algebra, "root": list(root),
                  "element": terms_equal(terms),
                  "derivative": terms_equal(deriv.derivative(terms)),
                  "nilpotency_index": deriv.nilpotency_index(terms)}
        if s is None:
            fields.update({"mode": "symbolic", "time": None,
                           "exp": polys_equal(deriv.flow(terms))})
        else:
            fields.update({"mode": "numeric", "time": enc(s),
                           "exp": terms_equal(deriv.flow_at(terms, s)),
                           "homomorphism": {"equal": True}
                           if mode == "product" else None})
        return expect_result(0, "lnd", fields)(code, output)

    return Job(f"lnd-{mode}:{kind}", argv, path, check)


def _add_keys(a, b):
    if isinstance(a[0], tuple):
        return (tuple(x + y for x, y in zip(a[0], b[0])), a[1] + b[1])
    return tuple(x + y for x, y in zip(a, b))


LND_MODES = ("numeric", "symbolic", "product")


def flows_block(rng, writer, charts):
    """lnd flows on toric and horizontal carriers, and the ah commands.

    ``charts`` maps the toric chart names to their files, written once per
    run: every lnd request rebuilds its small affine fan from one of them.
    """
    jobs = []
    for mode in LND_MODES:
        # twelve toric jobs per mode, multipliers stratified over 0..59
        for k in range(12):
            name = ("A2", "A3", "sing")[k % 3]
            normal, e = _toric_roots(rng, name)
            q = 5 * k + rng.randint(0, 4)
            jobs.append(_lnd_job(
                name, charts[name], vector_arg("--root", e),
                O.toric_derivation(normal, e), mode, rng,
                lambda t, name=name, normal=normal:
                    _toric_key(rng, name, normal, t),
                q, "toric", e))
        # four horizontal jobs per mode, multipliers over 0..59
        for k in range(4):
            q = 15 * k + rng.randint(0, 14)
            path, carrier = _horizontal_carrier(rng, writer, k % 3)
            deriv = O.horizontal_derivation(carrier["v0"], carrier["d"],
                                            carrier["e"], carrier["s"])
            jobs.append(_lnd_job(
                carrier["name"], path, vector_arg("--root", carrier["e"]),
                deriv, mode, rng,
                lambda t, carrier=carrier: _horizontal_key(rng, carrier, t),
                q, "horizontal", carrier["e"]))
    jobs += _ah_jobs(rng, writer)
    rng.shuffle(jobs)
    return jobs


def _horizontal_carrier(rng, writer, which):
    if which == 0:
        e = rng.choice((1, 3))
        carrier = D.halfpoint_carrier(e)
        carrier["name"] = "halfpoint"
        return writer.add(D.halfpoint()), carrier
    if which == 1:
        z, c, e = _relabel_params(rng), rng.randint(1, 3), rng.choice((1, 3))
        carrier = D.relabel_carrier(c, e)
        carrier["name"] = "relabel"
        return writer.add(D.relabel(z, c)), carrier
    a, b, e = rng.randint(1, 3), rng.randint(1, 3), rng.randint(0, 1)
    carrier = D.shift_carrier(a, b, e)
    carrier["name"] = "shift"
    return writer.add(D.shift(a, b)), carrier


def _relabel_params(rng):
    return Fraction(rng.randint(1, 9), rng.choice((1, 1, 2, 3)))


def _ah(writer, action, obj, extra, check):
    path = writer.add(obj)
    return Job(f"ah-{action}", ["ah", action, path] + extra, path, check)


def _ah_jobs(rng, writer):
    """Eighteen ah jobs, seven of which must be refused with exit 7."""
    jobs = []

    def ok(action, fields):
        return expect_result(0, f"ah {action}", fields)

    for _ in range(2):
        z, c, w = _relabel_params(rng), rng.randint(1, 3), rng.randint(0, 9)
        jobs.append(_ah(writer, "eval", D.relabel(z, c),
                        [vector_arg("--weight", (w,))],
                        ok("eval", D.relabel_eval(z, c, w))))
    w = rng.randint(0, 9)
    jobs.append(_ah(writer, "eval", D.halfpoint(),
                    [vector_arg("--weight", (w,))],
                    ok("eval", D.halfpoint_eval(w))))
    c = rng.randint(1, 3)
    jobs.append(_ah(writer, "proper", D.relabel(_relabel_params(rng), c), [],
                    ok("proper", {"proper": True,
                                  "degree": D.relabel_degree(c)})))
    jobs.append(_ah(writer, "proper", D.VIOLATION_IV, [],
                    ok("proper", {"proper": False,
                                  "degree": D.VIOLATION_IV_DEGREE})))
    for _ in range(2):
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        jobs.append(_ah(writer, "normalize", D.shift(a, b), [],
                        ok("normalize",
                           {"divisor": D.shift_normal_form(a, b)})))
    jobs.append(_ah(writer, "normalize", D.VIOLATION_III, [],
                    expect_error(7, "ah normalize", "NoDegreeZeroLND")))
    k = rng.randint(1, 5)
    jobs.append(_ah(writer, "toric", D.toric_b(k), [],
                    ok("toric", {"fan.rays": [[0, 1], [k, -1]],
                                 "fan.max_cones": [[0, 1]],
                                 "root": [0, -1]})))
    jobs.append(_ah(writer, "toric", D.toric_a(), [],
                    ok("toric", {"fan.rays": [[0, 0, 1], [0, 1, 0],
                                              [1, 0, 0]],
                                 "root": [0, 0, -1]})))
    jobs.append(_ah(writer, "toric",
                    D.relabel(_relabel_params(rng), rng.randint(1, 3)), [],
                    expect_error(7, "ah toric", "NotNormalized")))
    e = 2 * rng.randint(0, 3) + 1
    d, s = D.odd_twist(e)
    jobs.append(_ah(writer, "coherent", D.halfpoint(),
                    [vector_arg("--root", (e,))],
                    ok("coherent", {"coherent": True, "d": d, "s": s,
                                    "v0": [[1, 2]], "rho_tilde": [1, 2],
                                    "sigma_tilde.rays": [[1, 0], [1, 2]],
                                    "e_tilde": [e, s]})))
    refused = [(D.halfpoint(), (2 * rng.randint(0, 3),), "i"),
               (D.VIOLATION_II, (0,), "ii"),
               (D.VIOLATION_III, (0,), "iii"),
               (D.VIOLATION_IV, (1, 0), "iv")]
    for obj, root, condition in refused:
        jobs.append(_ah(writer, "coherent", obj, [vector_arg("--root", root)],
                        expect_result(7, "ah coherent", {
                            "coherent": False, "condition": condition})))
    z, c, e = _relabel_params(rng), rng.randint(1, 3), rng.choice((1, 3))
    d, s = D.odd_twist(e)
    jobs.append(_ah(writer, "lnd", D.relabel(z, c),
                    [vector_arg("--root", (e,))],
                    ok("lnd", {"lnd.kind": "horizontal", "lnd.d": d,
                               "lnd.s": s, "lnd.v0": [[1, 2]],
                               "lnd.e": [e],
                               "normalized": D.relabel_normal_form(c)})))
    jobs.append(_ah(writer, "lnd", D.VIOLATION_II,
                    [vector_arg("--root", (0,))],
                    expect_error(7, "ah lnd", "NotCoherent")))
    return jobs


# ---------------------------------------------------------------------------


def flows_setup(writer):
    return {name: writer.add(F.fan_json(spec))
            for name, spec in TORIC_CHARTS.items()}


WORKLOADS = {
    "fans": lambda rng, writer, ctx: fans_block(rng, writer),
    "flows": lambda rng, writer, ctx: flows_block(rng, writer, ctx),
}
SETUP = {"flows": flows_setup}
