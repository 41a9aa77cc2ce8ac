"""Smoke check of the benchmark itself; exits 0 when every check holds.

    python3 bench/smoke_check.py

1. The independent references agree where two routes exist: the closed
   forms against the rank-2 oracle and the generic G-orbit count.
2. A deliberately wrong reference (P^2 given one root too many) makes the
   jobs that use it fail, so the checker is not vacuous.
3. Each workload runs one block untraced and one traced; the result line
   names exactly the metrics that BENCHMARK.json lists, and no job fails.
"""

from __future__ import annotations

import importlib
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import families as F
import oracle as O
import run
import workloads
from jobs import InputWriter


def check_references():
    for a in range(1, 9):
        spec = F.hirzebruch(a)
        got = {"roots": len(O.rank2_roots(spec)),
               "autos": len(O.rank2_automorphisms(spec)),
               "classes": O.rank2_class_count(spec)}
        assert got == O.hirzebruch_counts(a), (a, got)
    for spec, counts, roots in (
            (F.projective_space(2), O.projective_space_counts(2),
             O.projective_space_roots(2)),
            (F.projective_space(3), O.projective_space_counts(3),
             O.projective_space_roots(3)),
            (F.p1_power(2), O.p1_power_counts(2), O.p1_power_roots(2)),
            (F.p1_power(3), O.p1_power_counts(3), O.p1_power_roots(3))):
        assert len(roots) == counts["roots"]
        for i, e in roots:
            assert O.g_orbit_count(spec, i, e) == counts["orbits"], (spec, e)
    print("references: closed forms agree with the oracles")


def check_wrong_reference_fails():
    sys.path.insert(0, str(run.SRC))
    importlib.import_module("demazure.cli")
    directory = run.WORK / "smoke"
    shutil.rmtree(directory, ignore_errors=True)
    p2 = workloads.RANK2[0]
    p2.counts["roots"] += 1
    try:
        writer = InputWriter(directory)
        block = workloads.fans_block(random.Random(0), writer)
        writer.flush()
        client = run.Client()
        for job in block:
            if job.kind.endswith(":P2"):
                client.run(job)
    finally:
        p2.counts["roots"] -= 1
        shutil.rmtree(directory, ignore_errors=True)
    failed = {kind for kind, _ in client.failures}
    frac = len(client.failures) / len(client.latencies)
    assert failed == {"roots:P2", "classify:P2"}, failed
    print(f"wrong reference: failed_frac {frac:.2f} on the P^2 jobs")


def check_runs():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"] for m in spec["end_to_end"]},
              1: {m["name"] for m in spec["per_layer"]}}
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    script = Path(run.__file__).resolve()
    for w in spec["workloads"]:
        for traced in (0, 1):
            out = subprocess.run(
                [sys.executable, str(script), "--workload", w["name"],
                 "--seed", "1", "--seconds", "0.01", "--trace", str(traced)],
                cwd=run.ROOT, capture_output=True, text=True, check=True,
                timeout=180)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0, out.stdout
            assert set(result["metrics"]) == wanted[traced], \
                set(result["metrics"]) ^ wanted[traced]
            for name, m in result["metrics"].items():
                assert m["unit"] == units[name], (name, m)
            print(f"{w['name']} trace={traced}: {result['attempted']} jobs, "
                  f"{len(result['metrics'])} metrics")


if __name__ == "__main__":
    check_references()
    check_wrong_reference_fails()
    check_runs()
    print("smoke check passed")
