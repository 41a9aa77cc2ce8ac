"""Byte-for-byte regression of every CLI command on fixed inputs.

Each case runs one command line and compares its exit code and stdout
with the report recorded in `golden/cli_reports.json`.  The inputs are
the shipped fixtures plus the small fans inlined in INLINE, written to a
temporary directory byte for byte so that their input digests are
stable.  To re-record after an intended output change:

    PYTHONPATH=src python tests/test_reports_golden.py
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from demazure.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_reports.json"


def _fan(rank, rays, cones):
    return json.dumps({"rank": rank, "rays": rays, "max_cones": cones})


INLINE = {
    "p3": _fan(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
               [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]),
    "hexagon": _fan(2, [[1, 0], [1, 1], [0, 1], [-1, 0], [-1, -1], [0, -1]],
                    [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [0, 5]]),
    "square_cone": _fan(3, [[1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, 1]],
                        [[0, 1, 2, 3]]),
    "weighted": _fan(2, [[1, 0], [0, 1], [-2, -3]], [[0, 1], [1, 2], [0, 2]]),
    "lone_rays": _fan(2, [[1, 0], [0, 1]], [[0], [1]]),
    "overlapping": _fan(2, [[1, 0], [0, 1], [1, 1]], [[0, 1], [2]]),
    "crossing": _fan(2, [[1, 0], [0, 1], [1, 1], [1, -1]], [[0, 1], [2, 3]]),
    "subcone_not_face": _fan(
        3, [[1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, 1]],
        [[0, 1, 2, 3], [0, 2]]),
    "interior_ray": _fan(2, [[1, 0], [0, 1], [1, 1]], [[0, 1, 2]]),
    "many_violations": _fan(
        2, [[1, 0], [0, 1], [1, 1], [1, -1], [-1, 0], [-1, 1]],
        [[0, 1], [2, 3], [1, 4], [2], [4, 5], [1, 5], [0, 2]]),
    "not_pointed": _fan(2, [[1, 0], [-1, 0], [0, 1]], [[0, 1], [2]]),
    "duplicate": _fan(2, [[1, 0], [2, 0], [0, 1], [0, 0]], [[0, 2]]),
    "unknown_ray": _fan(2, [[1, 0], [0, 1]], [[0, 5], [1]]),
    "singular_cone": _fan(2, [[1, 0], [1, 2]], [[0, 1]]),
}

E1 = '{"terms":[{"key":[1,0],"coeff":1}]}'
E0 = '{"terms":[{"key":[0,0],"coeff":3}]}'
PRODUCT = ('{"product":[{"terms":[{"key":[1,0],"coeff":1}]},'
           '{"terms":[{"key":[0,1],"coeff":[2,3]}]}]}')
H3 = '{"terms":[{"key":[[3],0],"coeff":1}]}'

CASES = []
for _name in ["p1", "p2", "f1", "a2", "p1p1", "bad_intersection"]:
    CASES.append(["fan-validate", f"@{_name}"])
for _name in INLINE:
    CASES.append(["fan-validate", f"%{_name}"])
for _name in ["p1", "p2", "f1", "p1p1", "a2", "bad_intersection"]:
    CASES.append(["roots", f"@{_name}"])
    CASES.append(["classify", f"@{_name}", "--bound", "2"])
for _name in ["p3", "hexagon", "weighted", "overlapping", "crossing",
              "subcone_not_face", "interior_ray", "many_violations",
              "not_pointed", "duplicate", "unknown_ray"]:
    CASES.append(["roots", f"%{_name}"])
for _name in ["p3", "hexagon", "weighted"]:
    CASES.append(["classify", f"%{_name}"])
CASES += [
    ["roots", "@a2", "--bound", "3"],
    ["roots", "%square_cone", "--bound", "2"],
    ["roots", "%lone_rays", "--bound", "1"],
    ["classify", "@a2", "--bound", "3"],
    ["classify", "%lone_rays", "--bound", "1"],
]
for _name, _roots in [
    ("p1", ["-1", "1"]),
    ("p2", ["-1,0", "-1,1", "1,0", "2,2"]),
    ("f1", ["-1,0", "0,1", "1,1", "1,0"]),
    ("p1p1", ["1,0", "0,-1"]),
    ("a2", ["-1,0", "-1,2", "2,-1", "1,1"]),
    ("bad_intersection", ["1,0"]),
]:
    for _root in _roots:
        CASES.append(["orbits", f"@{_name}", f"--root={_root}"])
CASES += [
    ["orbits", "%p3", "--root=-1,0,0"],
    ["orbits", "%p3", "--root=1,0,0"],
    ["orbits", "%weighted", "--root=0,-1"],
    ["orbits", "%square_cone", "--root=-1,0,0"],
    ["orbits", "%square_cone", "--root=2,1,1"],
    ["orbits", "%square_cone", "--root=1,0,-1"],
    ["lnd", "@a2", "--root=-1,2", "--element", E1, "--symbolic"],
    ["lnd", "@a2", "--root=-1,2", "--element", PRODUCT, "--time", "1/2"],
    ["lnd", "@a2", "--root=-1,2", "--element", E0, "--time", "7"],
    ["lnd", "@a2", "--root=2,-1", "--element", E1, "--time", "-3"],
    ["lnd", "@a2", "--root=-1,0", "--element",
     '{"terms":[{"key":[-1,0],"coeff":1}]}', "--symbolic"],
    ["lnd", "@a2", "--root=1,1", "--element", E0, "--symbolic"],
    ["lnd", "@p2", "--root=1,0", "--element", E0, "--symbolic"],
    ["lnd", "%square_cone", "--root=1,0,-1", "--element",
     '{"terms":[{"key":[1,0,1],"coeff":1}]}', "--symbolic"],
    ["lnd", "%square_cone", "--root=2,1,1", "--element",
     '{"terms":[{"key":[1,0,1],"coeff":1}]}', "--time", "3/2"],
    ["lnd", "@div_relabel", "--root", "1", "--element", H3, "--symbolic"],
    ["lnd", "@div_relabel", "--root", "1", "--element", H3, "--time", "2"],
]
for _name in ["div_halfpoint", "div_relabel", "div_shift", "div_toric_a",
              "div_toric_b", "div_toric_c", "div_violation_ii",
              "div_violation_iii", "div_violation_iv"]:
    for _action in ["proper", "normalize", "toric"]:
        CASES.append(["ah", _action, f"@{_name}"])
CASES += [
    ["ah", "eval", "@div_relabel", "--weight", "2"],
    ["ah", "eval", "@div_halfpoint", "--weight", "3"],
    ["ah", "eval", "@div_toric_a", "--weight", "1,1"],
    ["ah", "coherent", "@div_halfpoint", "--root", "0"],
    ["ah", "coherent", "@div_halfpoint", "--root", "1"],
    ["ah", "coherent", "@div_violation_ii", "--root", "0"],
    ["ah", "coherent", "@div_violation_iii", "--root", "0"],
    ["ah", "coherent", "@div_violation_iv", "--root", "1,0"],
    ["ah", "coherent", "@div_relabel", "--root", "1"],
    ["ah", "lnd", "@div_relabel", "--root", "1"],
    ["ah", "lnd", "@div_halfpoint", "--root", "1"],
    ["ah", "lnd", "@div_violation_ii", "--root", "0"],
]
# long flows with rational coefficients, a horizontal product, and an error
# message that needs ASCII escapes
CASES += [
    ["lnd", "@a2", "--root=-1,2", "--element",
     '{"product":[{"terms":[{"key":[31,0],"coeff":[3,7]},'
     '{"key":[29,2],"coeff":[-5,4]},{"key":[2,5],"coeff":6}]},'
     '{"terms":[{"key":[28,1],"coeff":[2,9]},{"key":[30,0],"coeff":[-1,6]},'
     '{"key":[0,3],"coeff":-1}]}]}',
     "--time=-7/3"],
    ["lnd", "@div_relabel", "--root", "1", "--element",
     '{"product":[{"terms":[{"key":[[3],0],"coeff":[1,2]},'
     '{"key":[[2],1],"coeff":-3}]},'
     '{"terms":[{"key":[[4],-1],"coeff":[5,3]},{"key":[[1],0],"coeff":2}]}]}',
     "--time", "3/4"],
    ["lnd", "@a2", "--root=-1,2", "--element",
     '{"terms":[{"key":[40,0],"coeff":[5,3]},{"key":[38,1],"coeff":-2}]}',
     "--symbolic"],
    ["lnd", "@a2", "--root=-1,2", "--element", E1, "--time", 'é"'],
]
# orbits that meet (m and m + e both present) at a negative time, a long
# horizontal symbolic flow, a long product on a singular cone, and a flow
# whose terms cancel to zero at the weight (1, 2)
CASES += [
    ["lnd", "@a2", "--root=-1,2", "--element",
     '{"terms":[{"key":[5,0],"coeff":[2,3]},{"key":[4,2],"coeff":-1},'
     '{"key":[3,4],"coeff":[1,5]},{"key":[9,1],"coeff":4}]}',
     "--time=-5/2"],
    ["lnd", "@div_relabel", "--root", "1", "--element",
     '{"terms":[{"key":[[50],0],"coeff":[3,7]},'
     '{"key":[[46],2],"coeff":-2}]}',
     "--symbolic"],
    ["lnd", "%singular_cone", "--root=-1,1", "--element",
     '{"product":[{"terms":[{"key":[31,-15],"coeff":[3,7]},'
     '{"key":[29,4],"coeff":[-5,4]},{"key":[2,5],"coeff":6}]},'
     '{"terms":[{"key":[29,-14],"coeff":[2,9]},{"key":[30,1],"coeff":[-1,6]},'
     '{"key":[0,3],"coeff":-1}]}]}',
     "--time=-7/3"],
    ["lnd", "@a2", "--root=-1,2", "--element",
     '{"terms":[{"key":[2,0],"coeff":1},{"key":[1,2],"coeff":-1}]}',
     "--time", "1/2"],
]


def _case_id(argv):
    return " ".join(argv)


def _run(argv, tmp):
    """Exit code and stdout of one command line; @name / %name are inputs."""
    args = []
    for a in argv:
        if a.startswith("@"):
            a = str(FIXTURES / f"{a[1:]}.json")
        elif a.startswith("%"):
            path = Path(tmp) / f"{a[1:]}.json"
            path.write_text(INLINE[a[1:]])
            a = str(path)
        args.append(a)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(args)
    return code, out.getvalue()


@functools.cache
def _golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("argv", CASES, ids=_case_id)
def test_report_matches_recording(argv, tmp_path):
    expected = _golden()[_case_id(argv)]
    code, out = _run(argv, tmp_path)
    assert code == expected["code"]
    assert out == expected["stdout"]


def test_recording_covers_every_case():
    assert sorted(_golden()) == sorted(_case_id(a) for a in CASES)


if __name__ == "__main__":
    record = {}
    with tempfile.TemporaryDirectory() as tmp:
        for argv in CASES:
            code, out = _run(argv, tmp)
            record[_case_id(argv)] = {"code": code, "stdout": out}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"recorded {len(record)} cases in {GOLDEN}\n")
