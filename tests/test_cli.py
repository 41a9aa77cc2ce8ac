"""End-to-end checks of the command line: exit codes, report shapes,
schema conformance of the shipped fixtures, and byte determinism."""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from pathlib import Path

import jsonschema
import pytest

from demazure.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
SCHEMAS = ROOT / "schemas"


def schema(name):
    return json.loads((SCHEMAS / f"{name}.schema.json").read_text())


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    obj = json.loads(out) if out else None
    if obj is not None:
        jsonschema.validate(obj, schema("report"))
    return code, obj, out


def fixture(name):
    return FIXTURES / f"{name}.json"


# -- schemas over the shipped files -------------------------------------------


def test_fixture_files_match_schemas():
    fan_schema = schema("fan")
    div_schema = schema("divisor")
    names = sorted(p.stem for p in FIXTURES.glob("*.json"))
    assert len(names) == 15
    for name in names:
        obj = json.loads(fixture(name).read_text())
        if name.startswith("div_"):
            jsonschema.validate(obj, div_schema)
        else:
            jsonschema.validate(obj, fan_schema)


def test_element_schema_accepts_both_key_forms():
    el = schema("element")
    jsonschema.validate({"terms": [{"key": [1, 0], "coeff": [1, 2]}]}, el)
    jsonschema.validate({"terms": [{"key": [[3], 0], "coeff": 2}]}, el)
    jsonschema.validate(
        {"product": [{"terms": [{"key": [1, 0]}]},
                     {"terms": [{"key": [0, 1]}]}]}, el)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate({"terms": [{"key": "x"}]}, el)


# -- fan-validate --------------------------------------------------------------


def test_fan_validate_complete(capsys):
    code, rep, _ = run(capsys, "fan-validate", fixture("p2"))
    assert code == 0
    props = rep["result"]["properties"]
    assert rep["result"]["valid"] is True
    assert props["complete"] and props["smooth"] and props["simplicial"]
    assert props["total_cones"] == 7
    assert props["cones_by_dim"] == {"0": 1, "1": 3, "2": 3}
    assert rep["input_digest"].startswith("sha256:")


def test_fan_validate_affine(capsys):
    code, rep, _ = run(capsys, "fan-validate", fixture("a2"))
    assert code == 0
    props = rep["result"]["properties"]
    assert props["complete"] is False
    assert props["total_cones"] == 4


def test_fan_validate_names_the_cone_pair(capsys):
    code, rep, _ = run(capsys, "fan-validate", fixture("bad_intersection"))
    assert code == 3
    result = rep["result"]
    assert result["valid"] is False and result["properties"] is None
    kinds = {v["kind"] for v in result["violations"]}
    assert kinds == {"BadIntersection"}
    assert ["2:0,1", "2:0,2"] in [v["cones"] for v in result["violations"]]


def test_parse_and_schema_errors(capsys, tmp_path):
    code, rep, _ = run(capsys, "fan-validate", tmp_path / "missing.json")
    assert code == 2 and rep["error"]["kind"] == "SchemaError"
    # the input is read by one open(), with the OSError text that
    # Path.read_bytes gave
    for path in (tmp_path / "missing.json", tmp_path):
        code, rep, _ = run(capsys, "roots", path)
        with pytest.raises(OSError) as info:
            path.read_bytes()
        assert code == 2
        assert rep["error"]["message"] == f"cannot read {path}: {info.value}"

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    code, rep, _ = run(capsys, "roots", garbled)
    assert code == 2

    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps({"rank": 2, "rays": [[1, 0]]}))
    code, rep, _ = run(capsys, "roots", partial)
    assert code == 2 and "max_cones" in rep["error"]["message"]


# -- roots ---------------------------------------------------------------------


def test_roots_complete_fan(capsys):
    code, rep, _ = run(capsys, "roots", fixture("p2"))
    assert code == 0
    result = rep["result"]
    assert result["complete_enumeration"] is True
    assert result["count"] == 6
    es = [tuple(r["e"]) for r in result["roots"]]
    assert set(es) == {(1, 0), (0, 1), (-1, 0), (0, -1), (1, -1), (-1, 1)}
    for r in result["roots"]:
        # the echoed distinguished ray really pairs to -1
        assert sum(a * b for a, b in zip(r["ray"], r["e"])) == -1


def test_roots_needs_bound_on_affine_fan(capsys):
    code, rep, _ = run(capsys, "roots", fixture("a2"))
    assert code == 4
    assert rep["error"]["kind"] == "UnboundedRoots"

    code, rep, _ = run(capsys, "roots", fixture("a2"), "--bound", "5")
    assert code == 0
    assert rep["result"]["count"] == 12
    assert rep["result"]["complete_enumeration"] is False


# -- orbits --------------------------------------------------------------------


def test_negative_bound_is_a_usage_error(capsys):
    for argv in (["roots", fixture("a2"), "--bound", "-1"],
                 ["roots", fixture("p2"), "--bound=-2"],
                 ["classify", fixture("a2"), "--bound", "-1"]):
        code, rep, _ = run(capsys, *argv)
        assert code == 2
        assert rep["error"]["kind"] == "NegativeBound"
        assert "nonnegative" in rep["error"]["message"]


def test_orbits_report(capsys, tmp_path):
    dot = tmp_path / "orbits.dot"
    code, rep, _ = run(capsys, "orbits", fixture("p2"),
                       "--root", "1,0", "--dot", dot)
    assert code == 0
    result = rep["result"]
    assert result["orbit_count"] == 5
    assert result["he_pairs"] == [["0:", "1:2"], ["1:1", "2:1,2"]]
    assert result["invariant_divisors"]["count"] == 2
    assert result["invariant_divisors"]["ray_indices"] == [0, 1]
    assert sum(len(o["cones"]) for o in result["orbits"]) == 7

    text = dot.read_text()
    assert text.startswith("digraph orbits {")
    assert '"2:0,1 (dim 2)";' in text
    assert '"0: (dim 0)" -> "1:2 (dim 1)" [label="He"];' in text
    assert text.count("He") == 2


def test_orbits_dot_to_an_unwritable_path(capsys, tmp_path):
    dot = tmp_path / "missing" / "orbits.dot"
    code, rep, _ = run(capsys, "orbits", fixture("p2"),
                       "--root=0,-1", "--dot", dot)
    assert code == 2 and "result" not in rep
    assert rep["error"]["kind"] == "SchemaError"
    assert rep["error"]["message"].startswith(f"cannot write {dot}: ")
    assert not dot.parent.exists()


def test_orbits_stabilizer_payload(capsys):
    code, rep, _ = run(capsys, "orbits", fixture("a2"), "--root=-1,2")
    assert code == 0
    stabs = {tuple(o["cones"]): o["stabilizer"] for o in rep["result"]["orbits"]}
    assert stabs[("1:1",)] == {
        "torus_dim": 0, "component_order": 2, "contains_ga": True,
    }


def test_orbits_rejects_non_root(capsys):
    code, rep, _ = run(capsys, "orbits", fixture("p2"), "--root", "2,2")
    assert code == 5
    assert rep["error"]["kind"] == "NotARoot"


# -- classify ------------------------------------------------------------------


def test_classify_single_class(capsys):
    code, rep, _ = run(capsys, "classify", fixture("p2"))
    assert code == 0
    result = rep["result"]
    assert result["automorphism_order"] == 6
    assert result["class_count"] == 1
    assert result["classes"][0]["size"] == 6
    assert result["classes"][0]["orbit_count"] == 5


def test_classify_two_classes_with_orbit_counts(capsys):
    code, rep, _ = run(capsys, "classify", fixture("f1"))
    assert code == 0
    result = rep["result"]
    assert result["automorphism_order"] == 2
    per_class = {
        frozenset(tuple(r["e"]) for r in c["roots"]): c["orbit_count"]
        for c in result["classes"]
    }
    assert per_class == {
        frozenset({(1, 0), (-1, 0)}): 6,
        frozenset({(0, 1), (1, 1)}): 7,
    }


def test_classify_truncated(capsys):
    code, rep, _ = run(capsys, "classify", fixture("a2"), "--bound", "2")
    assert code == 0
    result = rep["result"]
    assert result["class_count"] == 3
    for c in result["classes"]:
        es = {tuple(r["e"]) for r in c["roots"]}
        k = max(max(e) for e in es)
        assert es == {(-1, k), (k, -1)} or es == {(-1, 0), (0, -1)}


def test_classify_refuses_nonspanning_rays(capsys, tmp_path):
    path = tmp_path / "halfline.json"
    path.write_text(json.dumps(
        {"rank": 2, "rays": [[1, 0]], "max_cones": [[0]]}
    ))
    code, rep, _ = run(capsys, "classify", path, "--bound", "1")
    assert code == 6
    assert rep["error"]["kind"] == "UnsupportedFan"


# -- ah ------------------------------------------------------------------------


def test_ah_eval(capsys):
    code, rep, _ = run(capsys, "ah", "eval", fixture("div_relabel"),
                       "--weight", "2")
    assert code == 0
    result = rep["result"]
    assert result["weight_dim"] == 8
    assert result["weight_module"] is None
    assert result["values"] == [
        {"z": [0, 1], "value": [1, 1]},
        {"z": [3, 1], "value": [4, 1]},
        {"z": "inf", "value": [2, 1]},
    ]

    code, rep, _ = run(capsys, "ah", "eval", fixture("div_halfpoint"),
                       "--weight", "3")
    assert code == 0
    assert rep["result"]["weight_dim"] is None
    assert rep["result"]["weight_module"] == {"shifts": [[[0, 1], -1]]}

    code, rep, _ = run(capsys, "ah", "eval", fixture("div_halfpoint"))
    assert code == 2  # --weight is mandatory here


def test_ah_proper(capsys):
    code, rep, _ = run(capsys, "ah", "proper", fixture("div_toric_b"))
    assert code == 0 and rep["result"]["proper"] is True

    code, rep, _ = run(capsys, "ah", "proper", fixture("div_violation_iv"))
    assert code == 0
    assert rep["result"]["proper"] is False
    assert rep["result"]["degree"]["vertices"] == [
        [[-3, 2], [3, 1]], [[-1, 2], [1, 1]],
    ]


def test_ah_divisor_rejections_are_typed(capsys, tmp_path):
    at_inf = tmp_path / "a1_at_infinity.json"
    at_inf.write_text(json.dumps(
        {"curve": "A1", "rank": 1, "tail": [[1]],
         "points": [{"z": "inf", "vertices": [[[1, 2]]]}]}
    ))
    code, rep, _ = run(capsys, "ah", "proper", at_inf)
    assert code == 7
    assert rep["error"]["kind"] == "CurveMismatch"
    assert rep["error"]["message"] == "A^1 has no point at infinity"


def test_ah_normalize(capsys):
    code, rep, _ = run(capsys, "ah", "normalize", fixture("div_shift"))
    assert code == 0
    assert rep["result"]["divisor"] == {
        "curve": "P1", "rank": 1, "tail": [[1]],
        "points": [{"z": "inf", "vertices": [[[2, 1]]]}],
    }

    code, rep, _ = run(capsys, "ah", "normalize", fixture("div_violation_iii"))
    assert code == 7
    assert rep["error"]["kind"] == "NoDegreeZeroLND"
    assert "(iii)" in rep["error"]["message"]


def test_ah_toric_and_roundtrip(capsys, tmp_path):
    code, rep, _ = run(capsys, "ah", "toric", fixture("div_toric_a"))
    assert code == 0
    assert rep["result"]["fan"]["rays"] == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
    assert rep["result"]["root"] == [0, 0, -1]

    code, rep, out = run(capsys, "ah", "toric", fixture("div_toric_b"))
    assert code == 0
    jsonschema.validate(rep["result"]["fan"], schema("fan"))
    assert rep["result"]["fan"]["rays"] == [[0, 1], [1, -1]]
    assert rep["result"]["root"] == [0, -1]

    # the whole report is accepted as fan input downstream
    chart = tmp_path / "chart.json"
    chart.write_text(out)
    code, rep, _ = run(capsys, "roots", chart, "--bound", "1")
    assert code == 0
    assert [0, -1] in [r["e"] for r in rep["result"]["roots"]]


def test_ah_toric_refusals(capsys, tmp_path):
    code, rep, _ = run(capsys, "ah", "toric", fixture("div_relabel"))
    assert code == 7 and rep["error"]["kind"] == "NotNormalized"

    trivial = tmp_path / "trivial_p1.json"
    trivial.write_text(json.dumps(
        {"curve": "P1", "rank": 1, "tail": [[1]], "points": []}
    ))
    code, rep, _ = run(capsys, "ah", "toric", trivial)
    assert code == 7 and rep["error"]["kind"] == "NotProper"


def test_ah_coherent_violations(capsys):
    cases = [
        ("div_halfpoint", "0", "i"),
        ("div_violation_ii", "0", "ii"),
        ("div_violation_iii", "0", "iii"),
        ("div_violation_iv", "1,0", "iv"),
    ]
    for name, root, expected in cases:
        code, rep, _ = run(capsys, "ah", "coherent", fixture(name),
                           "--root", root)
        assert code == 7, name
        assert rep["result"]["coherent"] is False
        assert rep["result"]["condition"] == expected


def test_ah_coherent_positive(capsys):
    code, rep, _ = run(capsys, "ah", "coherent", fixture("div_halfpoint"),
                       "--root", "1")
    assert code == 0
    result = rep["result"]
    assert result["coherent"] is True
    assert result["d"] == 2 and result["s"] == -1
    assert result["sigma_tilde"]["rays"] == [[1, 0], [1, 2]]
    assert result["rho_tilde"] == [1, 2]
    assert result["e_tilde"] == [1, -1]


def test_ah_lnd(capsys):
    code, rep, _ = run(capsys, "ah", "lnd", fixture("div_relabel"),
                       "--root", "1")
    assert code == 0
    lnd = rep["result"]["lnd"]
    assert lnd["kind"] == "horizontal"
    assert lnd["d"] == 2 and lnd["s"] == -1
    assert lnd["v0"] == [[1, 2]]
    points = rep["result"]["normalized"]["points"]
    assert [p["z"] for p in points] == [[0, 1], "inf"]
    assert points[1]["vertices"] == [[[3, 1]]]

    code, rep, _ = run(capsys, "ah", "lnd", fixture("div_violation_ii"),
                       "--root", "0")
    assert code == 7 and rep["error"]["kind"] == "NotCoherent"


# -- lnd -----------------------------------------------------------------------


def test_lnd_symbolic_flow(capsys):
    # exp(s d) x1 = x1 + s x2^k for the root (-1, k)
    code, rep, _ = run(capsys, "lnd", fixture("a2"), "--root=-1,2",
                       "--element", '{"terms":[{"key":[1,0],"coeff":1}]}',
                       "--symbolic")
    assert code == 0
    result = rep["result"]
    assert result["algebra"] == "toric"
    assert result["nilpotency_index"] == 2
    assert result["derivative"]["terms"] == [
        {"key": [0, 2], "coeff": [1, 1]},
    ]
    assert result["exp"]["terms"] == [
        {"key": [0, 2], "polynomial": [[1, [1, 1]]]},
        {"key": [1, 0], "polynomial": [[0, [1, 1]]]},
    ]


def test_lnd_numeric_product_homomorphism(capsys):
    element = json.dumps({"product": [
        {"terms": [{"key": [1, 0], "coeff": 1}]},
        {"terms": [{"key": [0, 1], "coeff": 1}]},
    ]})
    code, rep, _ = run(capsys, "lnd", fixture("a2"), "--root=-1,2",
                       "--element", element, "--time", "1/2")
    assert code == 0
    result = rep["result"]
    assert result["homomorphism"] == {"equal": True}
    assert result["exp"]["terms"] == [
        {"key": [0, 3], "coeff": [1, 2]},
        {"key": [1, 1], "coeff": [1, 1]},
    ]


def test_lnd_product_check_builds_no_right_hand_side(capsys, monkeypatch):
    # the check compares integer images: one walk of the product and one
    # per factor, and no exp_action or element comparison
    from demazure import algebra

    calls = {"walk": 0, "exp_action": 0, "__eq__": 0}
    walk, exp_action, eq = (algebra._orbits, algebra.exp_action,
                            algebra.SemigroupElement.__eq__)

    def counted(name, fn):
        def inner(*args):
            calls[name] += 1
            return fn(*args)
        return inner

    monkeypatch.setattr(algebra, "_orbits", counted("walk", walk))
    monkeypatch.setattr(algebra, "exp_action",
                        counted("exp_action", exp_action))
    monkeypatch.setattr(algebra.SemigroupElement, "__eq__",
                        counted("__eq__", eq))
    factors = [{"terms": [{"key": [1, 0], "coeff": [2, 3]},
                          {"key": [0, 1], "coeff": 1}]},
               {"terms": [{"key": [3, 0], "coeff": -1}]},
               {"terms": [{"key": [2, 1], "coeff": [1, 5]}]}]
    for k in (1, 2, 3):
        element = json.dumps({"product": factors[:k]})
        for key in calls:
            calls[key] = 0
        code, rep, _ = run(capsys, "lnd", fixture("a2"), "--root=-1,2",
                           "--element", element, "--time=-3/2")
        assert code == 0
        assert rep["result"]["homomorphism"] == {"equal": True}
        assert calls == {"walk": 1 + k, "exp_action": 0, "__eq__": 0}


def test_lnd_constant_is_fixed(capsys):
    code, rep, _ = run(capsys, "lnd", fixture("a2"), "--root=-1,2",
                       "--element", '{"terms":[{"key":[0,0],"coeff":3}]}',
                       "--time", "7")
    assert code == 0
    assert rep["result"]["exp"]["terms"] == [{"key": [0, 0], "coeff": [3, 1]}]
    assert rep["result"]["nilpotency_index"] == 1


def test_lnd_on_divisor_algebra(capsys):
    code, rep, _ = run(capsys, "lnd", fixture("div_relabel"), "--root", "1",
                       "--element", '{"terms":[{"key":[[3],0],"coeff":1}]}',
                       "--symbolic")
    assert code == 0
    assert rep["result"]["algebra"] == "horizontal"
    assert rep["result"]["nilpotency_index"] == 4


def test_lnd_failure_modes(capsys):
    code, rep, _ = run(capsys, "lnd", fixture("a2"), "--root=-1,0",
                       "--element", '{"terms":[{"key":[-1,0],"coeff":1}]}',
                       "--symbolic")
    assert code == 8 and rep["error"]["kind"] == "WeightEscape"

    code, rep, _ = run(capsys, "lnd", fixture("a2"), "--root", "1,1",
                       "--element", '{"terms":[{"key":[0,0]}]}', "--symbolic")
    assert code == 5 and rep["error"]["kind"] == "NotARoot"

    code, rep, _ = run(capsys, "lnd", fixture("p2"), "--root", "1,0",
                       "--element", '{"terms":[{"key":[0,0]}]}', "--symbolic")
    assert code == 3 and rep["error"]["kind"] == "NotAffine"

    code, rep, _ = run(capsys, "lnd", fixture("a2"), "--root=-1,2",
                       "--element", '{"terms":[{"key":[1,0]}]}',
                       "--time", "fast")
    assert code == 2


# -- determinism ---------------------------------------------------------------


def test_reports_are_byte_identical(capsys):
    seen = []
    for _ in range(2):
        _, _, out = run(capsys, "roots", fixture("p2"))
        seen.append(out)
        _, _, out = run(capsys, "ah", "lnd", fixture("div_relabel"),
                        "--root", "1")
        seen.append(out)
        _, _, out = run(capsys, "classify", fixture("f1"))
        seen.append(out)
    assert seen[0] == seen[3]
    assert seen[1] == seen[4]
    assert seen[2] == seen[5]


# -- one parser per process ----------------------------------------------------


def outcome(call):
    """(("ok", result) or ("exit", code), stdout, stderr) of call(); argparse
    exits on --help and on a usage error."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = ("ok", call())
    except SystemExit as exc:
        status = ("exit", exc.code)
    return status, out.getvalue(), err.getvalue()


def test_parser_is_built_once_and_keeps_no_state(capsys, monkeypatch):
    import demazure.cli as cli

    monkeypatch.setenv("COLUMNS", "80")
    e1 = '{"terms":[{"key":[1,0],"coeff":1}]}'
    # a plain argv never builds the parser
    monkeypatch.setattr(cli, "_PARSER", None)
    code, rep, _ = run(capsys, "lnd", fixture("a2"), "--root=-1,2",
                       "--element", e1, "--time=1/2")
    assert code == 0 and rep["result"]["time"] == [1, 2]
    assert cli._PARSER is None

    # argv that only argparse reads: abbreviations, "--", a repeated flag,
    # and space-form values that start with "-"
    h3 = '{"terms":[{"key":[[3],0],"coeff":1}]}'
    commands = [
        ["roots", fixture("a2"), "--bou", "3"],
        ["roots", fixture("a2"), "--bound", "7", "--bound", "-3"],
        ["orbits", fixture("p2"), "--root", "-1,2"],
        ["lnd", fixture("a2"), "--root=-1,2", "--element", e1,
         "--time", "1/2", "--symbolic"],
        ["ah", "eval", fixture("div_relabel"), "--weig", "2"],
        ["lnd", fixture("div_relabel"), "--root", "1", "--element", h3,
         "--symb"],
        ["fan-validate", "--", fixture("bad_intersection")],
        # fan errors reported through the command family
        ["roots", fixture("bad_intersection"), "--bou=1"],
        ["lnd", fixture("p2"), "--ro", "1,0", "--element", e1,
         "--symbolic"],
    ]
    assert not [argv for argv in commands
                if cli._read([str(a) for a in argv]) is not None]
    shared = [outcome(lambda: main([str(a) for a in argv]))
              for argv in commands]
    parser = cli._parser()
    assert cli._parser() is parser
    for argv, seen in zip(commands, shared):
        monkeypatch.setattr(cli, "_PARSER", None)
        assert outcome(lambda: main([str(a) for a in argv])) == seen
        assert cli._PARSER is not None and cli._PARSER is not parser
    assert [s[0] for s in shared] == [
        ("ok", 0), ("ok", 2), ("exit", 2), ("exit", 2),
        ("ok", 0), ("ok", 0), ("ok", 3), ("ok", 3), ("ok", 3)]
    assert json.loads(shared[7][1])["error"]["kind"] == "BadIntersection"
    assert json.loads(shared[8][1])["error"]["kind"] == "NotAffine"
    assert json.loads(shared[0][1])["result"]["bound"] == 3
    assert json.loads(shared[1][1])["error"]["kind"] == "NegativeBound"
    assert shared[2][2] == (
        "usage: demazure orbits [-h] --root ROOT [--dot DOT] path\n"
        "demazure orbits: error: argument --root: expected one argument\n")
    assert shared[3][2].endswith(
        "demazure lnd: error: argument --symbolic: not allowed with "
        "argument --time\n")


def reference_parser():
    """The command line's argparse grammar as written before the command
    table, kept as the reference the table and the reader are checked
    against."""
    import argparse

    import demazure.cli as cli

    parser = argparse.ArgumentParser(
        prog="demazure",
        description="Roots, orbit structure, and derivations of toric "
                    "and complexity-one torus data, with JSON reports.",
    )
    sub = parser.add_subparsers(dest="command_name")
    p = sub.add_parser("fan-validate", help="check a fan file, report "
                       "violations and geometric properties")
    p.add_argument("path")
    p.set_defaults(handler=cli._cmd_fan_validate)
    p = sub.add_parser("roots", help="enumerate the roots of a fan")
    p.add_argument("path")
    p.add_argument("--bound", type=int, default=None,
                   help="max |coordinate| when the root set is infinite")
    p.set_defaults(handler=cli._cmd_roots)
    p = sub.add_parser("orbits", help="orbit partition for one root")
    p.add_argument("path")
    p.add_argument("--root", required=True,
                   help="the root as comma-separated integers, e.g. '1,0'")
    p.add_argument("--dot", default=None,
                   help="also write the orbit digraph to this DOT file")
    p.set_defaults(handler=cli._cmd_orbits)
    p = sub.add_parser("classify", help="root classes under fan symmetry")
    p.add_argument("path")
    p.add_argument("--bound", type=int, default=None)
    p.set_defaults(handler=cli._cmd_classify)
    p = sub.add_parser("ah", help="polyhedral-divisor tools")
    p.add_argument("action", choices=[
        "eval", "proper", "normalize", "toric", "coherent", "lnd",
    ])
    p.add_argument("path")
    p.add_argument("--weight", default=None,
                   help="lattice weight for 'eval', e.g. '2,0'")
    p.add_argument("--root", default=None,
                   help="character for 'coherent' and 'lnd'")
    p.set_defaults(handler=cli._cmd_ah, family="ah")
    p = sub.add_parser("lnd", help="apply and exponentiate a derivation")
    p.add_argument("path", help="affine fan file or marked divisor file")
    p.add_argument("--root", required=True)
    p.add_argument("--element", required=True,
                   help="element JSON: {\"terms\": [{\"key\": ..., "
                        "\"coeff\": [num, den]}]} or {\"product\": [...]}")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--time", default=None,
                      help="evaluate the flow at this rational time")
    mode.add_argument("--symbolic", action="store_true",
                      help="keep the flow parameter symbolic")
    p.set_defaults(handler=cli._cmd_lnd)
    return parser


# values a flag may take in a plain argv: (both forms, the "=" form only);
# a space-form value never starts with "-", an "="-form value may
INT_TEXTS = (["0", "3", "12", "+4", " 5", "1_0", "٣"], ["-3", "-0"])
STR_TEXTS = (["1,0", "2", "", "1/2", "a=b", '{"terms":[]}', "x y"],
             ["-1,2", "-1/2", "--root", "-"])


def flag_forms(rng, name, kw):
    """The argv pieces that give flag `name` one value: both forms."""
    if kw.get("action") == "store_true":
        return [[name]]
    pool, eq_only = INT_TEXTS if kw.get("type") is int else STR_TEXTS
    text = rng.choice(pool)
    eq_text = rng.choice(pool + eq_only)
    return [[name, text], [f"{name}={eq_text}"]]


def valid_argv(rng):
    """Every plain, well-formed argv of each command in COMMANDS: each
    allowed set of flags, in every order, each flag in both forms, the
    positionals at every place between the flags."""
    from demazure.cli import COMMANDS

    for command_name, command in COMMANDS.items():
        flags = [(n, kw) for n, kw in command.args if n[0] == "-"]
        names = [n for n, _ in command.args if n[0] != "-"]
        for mask in itertools.product((0, 1), repeat=len(flags)):
            chosen = [f for f, m in zip(flags, mask) if m]
            given = {n for n, _ in chosen}
            if any(kw.get("required") and n not in given for n, kw in flags):
                continue
            if command.one_of and len(given & set(command.one_of)) != 1:
                continue
            for order in itertools.permutations(chosen):
                for pieces in itertools.product(
                        *(flag_forms(rng, n, kw) for n, kw in order)):
                    for slots in itertools.combinations_with_replacement(
                            range(len(pieces) + 1), len(names)):
                        values = [rng.choice(kw.get("choices") or
                                             ["p.json", "", "a=b"])
                                  for n, kw in command.args if n[0] != "-"]
                        argv = [command_name]
                        for i, piece in enumerate(pieces + ((),)):
                            argv += [values[k] for k, s in enumerate(slots)
                                     if s == i]
                            argv += piece
                        yield argv


def declined_argv(valid):
    """Argv the reader leaves to argparse, one or more per case, each a
    near miss of a valid argv."""
    roots = ["roots", "p.json", "--bound", "3"]
    lnd = ["lnd", "p.json", "--root=-1,2", "--element", "{}",
           "--time=1/2"]
    ah = ["ah", "lnd", "d.json", "--root", "1"]
    cases = {
        "not in the table": [
            [], ["-h"], ["--help"], ["roots", "-h"], ["lnd", "--help"],
            ["rootz", "p.json"], ["roots", "p.json", "--bou", "3"],
            ["roots", "p.json", "--bou=3"], ["lnd", "p.json", "--ro=1",
                                              "--element", "{}", "--symb"],
            ["roots", "p.json", "--root=1"], ["orbits", "p.json", "-r", "1"],
            ["ah", "eval", "d.json", "--weight", "1", "--time=1"],
        ],
        "repeated": [
            roots + ["--bound", "4"], roots + ["--bound=3"],
            lnd + ["--root", "1,2"], ah + ["--root=2"],
            ["lnd", "p.json", "--root=1", "--element", "{}", "--symbolic",
             "--symbolic"],
        ],
        "--": [roots + ["--"], ["roots", "--", "p.json"],
               ["orbits", "--", "p.json", "--root=1"]],
        "space value with -": [
            ["roots", "p.json", "--bound", "-3"],
            ["orbits", "p.json", "--root", "-1,2"],
            ["lnd", "p.json", "--root", "1", "--element", "{}", "--time",
             "-1/2"],
            ["lnd", "p.json", "--root", "--element", "{}", "--symbolic"],
            ["roots", "p.json", "--bound"],
        ],
        "positional with -": [
            ["roots", "-", "--bound=3"], ["roots", "-1"],
            ["fan-validate", "-x"], ["ah", "-lnd", "d.json"],
        ],
        "int rejects": [
            ["roots", "p.json", "--bound", "x"], ["classify", "p.json",
                                                  "--bound=1.5"],
            ["roots", "p.json", "--bound="], ["roots", "p.json",
                                              "--bound", "1/2"],
        ],
        "not a choice": [["ah", "evaluate", "d.json"], ["ah", "", "d.json"],
                         ["ah", "d.json", "eval"]],
        "required missing": [
            ["orbits", "p.json"], ["orbits", "p.json", "--dot", "o.dot"],
            ["lnd", "p.json", "--element", "{}", "--symbolic"],
            ["lnd", "p.json", "--root", "1", "--time", "1"],
        ],
        "one of": [
            lnd + ["--symbolic"], ["lnd", "p.json", "--root=1",
                                   "--element", "{}"],
        ],
        "--symbolic=": [
            ["lnd", "p.json", "--root=1", "--element", "{}", "--symbolic=x"],
            ["lnd", "p.json", "--root=1", "--element", "{}", "--symbolic="],
        ],
        "positional count": [
            ["roots"], ["roots", "--bound", "3"], ["roots", "a", "b"],
            ["ah", "eval"], ["ah", "eval", "d.json", "e.json"],
            ["fan-validate", "a", "b"],
            lnd + ["q.json"],
        ],
    }
    for argv in valid[::97]:
        # an extra positional, and the first flag repeated
        cases["positional count"].append(argv + ["extra.json"])
        flags = [a for a in argv[1:] if a.startswith("--")]
        if flags:
            cases["repeated"].append(argv + [flags[0]] + (
                [] if "=" in flags[0] or flags[0] == "--symbolic"
                else ["1"]))
    return cases


def test_the_reader_agrees_with_argparse():
    import demazure.cli as cli

    rng = random.Random(31)
    # 388 forms, each with four seeded draws of its values
    valid = [argv for _ in range(4) for argv in valid_argv(rng)]
    declined = declined_argv(valid)
    reference = reference_parser()
    fallback = cli._parser()
    assert len(valid) == 4 * 388
    for argv in valid:
        expected = outcome(lambda: vars(reference.parse_args(argv)))
        assert expected[0][0] == "ok", (argv, expected)
        ns = cli._read(argv)
        assert ns is not None, argv
        assert vars(ns) == expected[0][1], argv
        assert outcome(lambda: vars(fallback.parse_args(argv))) == expected
    for case, argvs in declined.items():
        for argv in argvs:
            assert cli._read(argv) is None, (case, argv)
            expected = outcome(lambda: vars(reference.parse_args(argv)))
            assert outcome(lambda: vars(fallback.parse_args(argv))) \
                == expected, (case, argv)
            if expected[0][0] == "exit":
                # main exits as the parent's argparse did, before any handler
                assert outcome(lambda: main(argv)) == expected, (case, argv)
    # --help and the usage of every command read the same
    for name in [None, *cli.COMMANDS]:
        argv = ["--help"] if name is None else [name, "--help"]
        assert outcome(lambda: main(argv)) == outcome(
            lambda: reference.parse_args(argv))


def test_lnd_multiplier_beyond_former_ceiling(capsys):
    # q = 10001 used to exceed the flow's 10^4-step ceiling (exit 8)
    code, rep, _ = run(capsys, "lnd", fixture("a2"), "--root=-1,0",
                       "--element", '{"terms":[{"key":[10001,0]}]}',
                       "--time", "0")
    assert code == 0
    assert rep["result"]["nilpotency_index"] == 10002
    assert rep["result"]["derivative"]["terms"] == [
        {"key": [10000, 0], "coeff": [10001, 1]},
    ]
    assert rep["result"]["exp"]["terms"] == [
        {"key": [10001, 0], "coeff": [1, 1]},
    ]
