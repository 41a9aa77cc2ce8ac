"""Command line front end.

Every command reads a JSON file, computes with exact arithmetic, and
prints a versioned JSON report to stdout.  Identical input produces
byte-identical output.  Exit codes are a stable contract: the table in
README.md lists them, and an error class with a fixed code names it as
``exit_code`` in errors.py.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import namedtuple
from fractions import Fraction
from pathlib import Path

from . import serialize
from .algebra import CurveCarrier, Flow, is_product, toric_lnd
from .divisors import (
    INF,
    ColoredDivisor,
    CoherenceViolation,
    coherent_check,
    degree_zero_normalize,
    horizontal_lnd,
    toric_realization,
)
from .errors import DemazureError, NotAffine, SchemaError
from .fan import cone_properties, is_complete
from .orbits import (
    automorphism_order,
    classify_roots,
    g_orbit_partition,
    he_connected_pairs,
)
from .roots import roots_of_fan


def _load_json(args):
    try:
        with open(args.path, "rb") as f:
            data = f.read()
    except OSError as exc:
        raise SchemaError(f"cannot read {args.path}: {exc}") from None
    args.digest = serialize.input_digest(data)
    try:
        return json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError(f"{args.path}: {exc}") from None


def _parse_int_vector(text, rank, what):
    try:
        vec = tuple(int(t) for t in text.split(","))
    except ValueError:
        raise SchemaError(
            f"{what} must be comma-separated integers, got {text!r}"
        ) from None
    if len(vec) != rank:
        raise SchemaError(f"{what} has {len(vec)} entries, expected {rank}")
    return vec


def _root_json(fan, root):
    return {
        "e": list(root.e),
        "ray_index": root.ray_index,
        "ray": list(fan.rays[root.ray_index]),
    }


# ---------------------------------------------------------------------------
# fan commands


def _fan_properties(fan):
    """Smoothness and simpliciality are read off the generating cones: the
    other cones are their faces, and so smooth (simplicial) when they are."""
    by_dim = {}
    for ref in fan.cones.values():
        by_dim[str(ref.dim)] = by_dim.get(str(ref.dim), 0) + 1
    props = [cone_properties(fan, key) for key in fan.generating]
    return {
        "rank": fan.rank,
        "rays": len(fan.rays),
        "complete": is_complete(fan),
        "smooth": all(p["smooth"] for p in props),
        "simplicial": all(p["simplicial"] for p in props),
        "total_cones": len(fan.cones),
        "cones_by_dim": by_dim,
    }


def _cmd_fan_validate(args):
    obj = _load_json(args)
    fields = serialize.fan_fields_from_json(obj)
    fan, violations = serialize.fan_diagnostics(*fields)
    if violations:
        return {"valid": False, "violations": violations,
                "properties": None}, 3
    return {"valid": True, "violations": [],
            "properties": _fan_properties(fan)}, 0


def _cmd_roots(args):
    fan = serialize.fan_from_json(_load_json(args))
    found = roots_of_fan(fan, bound=args.bound)
    roots = sorted(found.roots)
    return {
        "bound": args.bound,
        "complete_enumeration": found.complete_enumeration,
        "count": len(roots),
        "roots": [_root_json(fan, r) for r in roots],
    }, 0


def _cmd_orbits(args):
    fan = serialize.fan_from_json(_load_json(args))
    e = _parse_int_vector(args.root, fan.rank, "--root")
    partition = g_orbit_partition(fan, e)
    pairs = partition.pairs
    orbits = []
    for orbit in partition.orbits:
        stab = orbit.stabilizer
        orbits.append({
            "cones": [fan.cone_id(c) for c in orbit.cones],
            "dim": orbit.dim,
            "ga_fixed": orbit.ga_fixed,
            "stabilizer": {
                "torus_dim": stab.torus_dim,
                "component_order": stab.component_order,
                "contains_ga": stab.contains_ga,
            },
        })
    invariant = list(partition.invariant_divisors)
    if args.dot:
        try:
            Path(args.dot).write_text(serialize.dot_graph(fan, pairs))
        except OSError as exc:
            raise SchemaError(f"cannot write {args.dot}: {exc}") from None
    return {
        "root": _root_json(fan, partition.root),
        "orbit_count": partition.orbit_count,
        "orbits": orbits,
        "he_pairs": sorted(
            [fan.cone_id(p.cone1), fan.cone_id(p.cone2)] for p in pairs
        ),
        "invariant_divisors": {
            "count": len(invariant),
            "ray_indices": invariant,
            "rays": [list(fan.rays[j]) for j in invariant],
        },
        "dot": args.dot,
    }, 0


def _cmd_classify(args):
    fan = serialize.fan_from_json(_load_json(args))
    # the symmetry search comes first, so UnsupportedFan does too
    order = automorphism_order(fan)
    found = roots_of_fan(fan, bound=args.bound)
    classes = classify_roots(fan, found.roots)
    classes_json = []
    for cls in classes:
        # each gluing pair fuses two torus orbits into one G-orbit
        pairs = he_connected_pairs(fan, cls[0].e)
        classes_json.append({
            "representative": _root_json(fan, cls[0]),
            "size": len(cls),
            "roots": [_root_json(fan, r) for r in cls],
            "orbit_count": len(fan.cones) - len(pairs),
        })
    return {
        "automorphism_order": order,
        "bound": args.bound,
        "complete_enumeration": found.complete_enumeration,
        "class_count": len(classes),
        "classes": classes_json,
    }, 0


# ---------------------------------------------------------------------------
# divisor commands


def _default_coloring(div):
    """The coloring forced by the divisor when every choice is unique."""
    zinf = INF if div.curve == "P1" else None
    vertices = {}
    for z, piece in div.parts.items():
        if zinf is not None and z is zinf:
            continue
        if len(piece.vertices) != 1:
            raise SchemaError(
                "marks are required: the coefficient at "
                f"{serialize.point_label(z)} has several vertices"
            )
        vertices[z] = piece.vertices[0]
    zero = Fraction(0)
    if zero not in vertices:
        vertices[zero] = div.coefficient(zero).vertices[0]
    return ColoredDivisor(div, zero, vertices, zinf=zinf)


def _coloring(obj, div):
    colored = serialize.colored_from_json(obj, div)
    if colored is None:
        colored = _default_coloring(div)
    return colored


def _lnd_json(lnd):
    carrier = lnd.carrier
    if not isinstance(carrier, CurveCarrier):
        return {
            "kind": "toric",
            "ray_normal": list(lnd.ray_normal),
            "e": list(lnd.e),
        }
    # the ray normal of a horizontal derivation is (d*v0, d)
    d = lnd.ray_normal[-1]
    e, s = lnd.e
    return {
        "kind": "horizontal",
        "d": d,
        "s": s,
        "v0": [serialize.encode_rational(Fraction(x, d))
               for x in lnd.ray_normal[:-1]],
        "e": list(e),
        "carrier": {
            "curve": carrier.curve,
            "tail": [list(g) for g in carrier.tail.gens],
            "vertices0": [[serialize.encode_rational(x) for x in v]
                          for v in carrier.vertices0],
            "vertices_inf": None if carrier.vertices_inf is None else
            [[serialize.encode_rational(x) for x in v]
             for v in carrier.vertices_inf],
        },
    }


def _cmd_ah(args):
    args.command_name = f"ah {args.action}"
    obj = _load_json(args)
    div = serialize.divisor_from_json(obj)

    if args.action == "eval":
        if args.weight is None:
            raise SchemaError("'ah eval' needs --weight")
        m = _parse_int_vector(args.weight, div.rank, "--weight")
        values = div.evaluate(m)
        dim = div.weight_dim(m)
        if div.curve == "P1":
            weight_dim, module = dim, None
        else:
            weight_dim = None
            module = {"shifts": [[serialize.encode_point(z), k]
                                 for z, k in dim.shifts]}
        return {
            "weight": list(m),
            "values": [
                {"z": serialize.encode_point(z),
                 "value": serialize.encode_rational(values[z])}
                for z in sorted(values, key=serialize.point_order)
            ],
            "weight_dim": weight_dim,
            "weight_module": module,
        }, 0

    if args.action == "proper":
        degree = None
        if div.curve == "P1":
            total = div.degree()
            degree = {
                "tail": [list(g) for g in total.tail.gens],
                "vertices": [[serialize.encode_rational(x) for x in v]
                             for v in total.vertices],
            }
        return {"proper": div.is_proper(), "degree": degree}, 0

    if args.action == "normalize":
        out = degree_zero_normalize(_coloring(obj, div))
        return {"divisor": serialize.divisor_to_json(out)}, 0

    if args.action == "toric":
        cone, root = toric_realization(div)
        return {
            "fan": serialize.cone_to_fan_json(cone),
            "root": list(root),
        }, 0

    if args.root is None:
        raise SchemaError(f"'ah {args.action}' needs --root")
    e = _parse_int_vector(args.root, div.rank, "--root")
    colored = _coloring(obj, div)

    if args.action == "coherent":
        res = coherent_check(colored, e)
        if isinstance(res, CoherenceViolation):
            return {
                "coherent": False,
                "condition": res.condition,
                "message": res.message,
            }, 7
        return {
            "coherent": True,
            "d": res.d,
            "s": res.s,
            "v0": [serialize.encode_rational(x) for x in colored.v0],
            "sigma_tilde": {
                "rank": res.sigma_tilde.rank,
                "rays": [list(r) for r in res.sigma_tilde.rays()],
            },
            "rho_tilde": list(res.rho_tilde),
            "e_tilde": list(res.e_tilde),
        }, 0

    normalized, lnd = horizontal_lnd(colored, e)
    return {
        "normalized": serialize.divisor_to_json(normalized),
        "lnd": _lnd_json(lnd),
    }, 0


# ---------------------------------------------------------------------------
# derivations


def _cmd_lnd(args):
    obj = _load_json(args)
    if isinstance(obj, dict) and "curve" in obj:
        args.family = "ah"
        div = serialize.divisor_from_json(obj)
        e = _parse_int_vector(args.root, div.rank, "--root")
        _, lnd = horizontal_lnd(_coloring(obj, div), e)
        algebra = "horizontal"
    else:
        fan = serialize.fan_from_json(obj)
        keys = fan.maximal_keys()
        if len(keys) != 1:
            raise NotAffine(
                "the lnd command needs an affine fan "
                f"(exactly one maximal cone, found {len(keys)})"
            )
        cone = fan.cone_geometry(keys[0])
        e = _parse_int_vector(args.root, fan.rank, "--root")
        lnd = toric_lnd(cone, e)
        algebra = "toric"

    try:
        spec = json.loads(args.element)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"--element: {exc}") from None
    factors = None
    if isinstance(spec, dict) and "product" in spec:
        if not isinstance(spec["product"], list) or not spec["product"]:
            raise SchemaError("--element: 'product' must be a nonempty list")
        factors = [serialize.element_from_json(lnd.carrier, f)
                   for f in spec["product"]]
        element = factors[0]
        for f in factors[1:]:
            element = element * f
    else:
        element = serialize.element_from_json(lnd.carrier, spec)

    # one walk of the orbits: an escape or a negative multiplier is
    # reported before the time is read
    flow = Flow(lnd, element)
    result = {
        "algebra": algebra,
        "root": list(e),
        "element": serialize.element_to_json(element),
        "derivative": serialize.element_to_json(flow.derivative()),
        "nilpotency_index": flow.nilpotency_index(),
        "homomorphism": None,
    }
    if args.symbolic:
        result["mode"] = "symbolic"
        result["time"] = None
        result["exp"] = serialize.symbolic_to_json(flow.symbolic())
    else:
        try:
            s = Fraction(args.time)
        except (ValueError, ZeroDivisionError):
            raise SchemaError(
                f"--time must be a rational number, got {args.time!r}"
            ) from None
        result["mode"] = "numeric"
        result["time"] = serialize.encode_rational(s)
        image = flow.integer_image(s)
        result["exp"] = serialize.image_to_json(image)
        if factors is not None:
            # exp(sD)(f g ...) against the product of the factors' images,
            # in integers; each factor's walk raises in factor order first
            images = [Flow(lnd, f).integer_image(s) for f in factors]
            result["homomorphism"] = {
                "equal": is_product(lnd.carrier, image, images)}
    return result, 0


# ---------------------------------------------------------------------------
# wiring


# A command: its handler, help line, arguments as (name, add_argument
# keywords), defaults, and the flags of its required one-of group.  A name
# without a leading "-" is a positional; a flag's dest is its name undashed.
# `_read` knows the keywords type, choices, required, default and
# action="store_true".
_Command = namedtuple("_Command", "handler help args defaults one_of",
                      defaults=({}, ()))

# The grammar, written once: the reader `_read` and the argparse fallback
# `_parser` are both built from this table.
COMMANDS = {
    "fan-validate": _Command(
        _cmd_fan_validate,
        "check a fan file, report violations and geometric properties",
        [("path", {})]),
    "roots": _Command(_cmd_roots, "enumerate the roots of a fan", [
        ("path", {}),
        ("--bound", {"type": int, "help": "max |coordinate| when the root "
                                          "set is infinite"}),
    ]),
    "orbits": _Command(_cmd_orbits, "orbit partition for one root", [
        ("path", {}),
        ("--root", {"required": True, "help": "the root as comma-separated "
                                              "integers, e.g. '1,0'"}),
        ("--dot", {"help": "also write the orbit digraph to this DOT file"}),
    ]),
    "classify": _Command(_cmd_classify, "root classes under fan symmetry",
                         [("path", {}), ("--bound", {"type": int})]),
    "ah": _Command(_cmd_ah, "polyhedral-divisor tools", [
        ("action", {"choices": ["eval", "proper", "normalize", "toric",
                                "coherent", "lnd"]}),
        ("path", {}),
        ("--weight", {"help": "lattice weight for 'eval', e.g. '2,0'"}),
        ("--root", {"help": "character for 'coherent' and 'lnd'"}),
    ], defaults={"family": "ah"}),
    "lnd": _Command(_cmd_lnd, "apply and exponentiate a derivation", [
        ("path", {"help": "affine fan file or marked divisor file"}),
        ("--root", {"required": True}),
        ("--element", {"required": True,
                       "help": "element JSON: {\"terms\": [{\"key\": ..., "
                               "\"coeff\": [num, den]}]} or "
                               "{\"product\": [...]}"}),
        ("--time", {"help": "evaluate the flow at this rational time"}),
        ("--symbolic", {"action": "store_true", "default": False,
                        "help": "keep the flow parameter symbolic"}),
    ], one_of=("--time", "--symbolic")),
}


def _read(argv):
    """The Namespace that argparse builds for a plain, well-formed argv,
    read off COMMANDS; None for any other argv, which argparse reads.
    Plain: each flag as in the table and at most once, as --flag=value or
    as --flag value with a value not starting with "-", and no positional
    starting with "-"."""
    command = COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    flags = {name: kw for name, kw in command.args if name[0] == "-"}
    texts, positionals = {}, []
    rest = iter(argv[1:])
    for arg in rest:
        if not arg.startswith("-"):
            positionals.append(arg)
            continue
        name, eq, text = arg.partition("=")
        kw = flags.get(name)
        if kw is None or name in texts or eq and "action" in kw:
            return None
        if "action" in kw:  # store_true: the flag takes no value
            text = None
        elif not eq:
            text = next(rest, "-")  # a missing value declines as "-" does
            if text.startswith("-"):
                return None
        texts[name] = text
    names = [name for name, _ in command.args if name[0] != "-"]
    if len(positionals) != len(names) or command.one_of and sum(
            name in texts for name in command.one_of) != 1:
        return None
    texts.update(zip(names, positionals))
    args = argparse.Namespace(command_name=argv[0], handler=command.handler,
                              **command.defaults)
    for name, kw in command.args:
        if name not in texts:
            if kw.get("required"):
                return None
            value = kw.get("default")
        elif texts[name] is None:
            value = True
        else:
            try:
                value = kw.get("type", str)(texts[name])
            except ValueError:
                return None
            if "choices" in kw and value not in kw["choices"]:
                return None
        setattr(args, name.lstrip("-"), value)
    return args


_PARSER = None


def _parser():
    """argparse built from COMMANDS on first use and kept for the process:
    it reads what `_read` declines, --help and usage errors (exit 2)."""
    global _PARSER
    if _PARSER is None:
        parser = argparse.ArgumentParser(
            prog="demazure",
            description="Roots, orbit structure, and derivations of toric "
                        "and complexity-one torus data, with JSON reports.",
        )
        sub = parser.add_subparsers(dest="command_name")
        for command_name, command in COMMANDS.items():
            p = sub.add_parser(command_name, help=command.help)
            group = p.add_mutually_exclusive_group(required=True) \
                if command.one_of else None
            for name, kw in command.args:
                (group if name in command.one_of else p).add_argument(
                    name, **kw)
            p.set_defaults(handler=command.handler, **command.defaults)
        _PARSER = parser
    return _PARSER


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = _read(argv) or _parser().parse_args(argv)
    if getattr(args, "handler", None) is None:
        _parser().print_usage(sys.stderr)
        return 2
    args.digest = None
    try:
        result, code = args.handler(args)
    except DemazureError as exc:
        code = exc.exit_code or (
            7 if getattr(args, "family", "fan") == "ah" else 3)
        rep = serialize.error_report(args.command_name, args.digest,
                                     type(exc).__name__, str(exc))
    else:
        rep = serialize.report(args.command_name, args.digest, result)
    sys.stdout.write(serialize.render(rep))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
