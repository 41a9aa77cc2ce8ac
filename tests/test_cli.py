"""End-to-end checks of the command line: exit codes, report shapes,
schema conformance of the shipped fixtures, and byte determinism."""

from __future__ import annotations

import json
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


def test_parser_is_built_once_and_keeps_no_state(capsys, monkeypatch):
    import demazure.cli as cli

    h3 = '{"terms":[{"key":[[3],0],"coeff":1}]}'
    e1 = '{"terms":[{"key":[1,0],"coeff":1}]}'
    commands = [
        ["ah", "eval", fixture("div_relabel"), "--weight", "2"],
        ["lnd", fixture("div_relabel"), "--root", "1", "--element", h3,
         "--symbolic"],
        ["lnd", fixture("a2"), "--root=-1,2", "--element", e1,
         "--time", "1/2"],
        ["fan-validate", fixture("bad_intersection")],
        # fan errors reported through the command family
        ["roots", fixture("bad_intersection")],
        ["lnd", fixture("p2"), "--root", "1,0", "--element", e1,
         "--symbolic"],
    ]
    shared = [run(capsys, *argv) for argv in commands]
    parser = cli._parser()
    assert cli._parser() is parser
    for argv, (code, _, out) in zip(commands, shared):
        monkeypatch.setattr(cli, "_PARSER", None)
        fresh_code, _, fresh_out = run(capsys, *argv)
        assert cli._PARSER is not parser
        assert (fresh_code, fresh_out) == (code, out)
    codes = [code for code, _, _ in shared]
    assert codes == [0, 0, 0, 3, 3, 3]
    assert shared[4][1]["error"]["kind"] == "BadIntersection"


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
