"""Benchmark of the demazure CLI and library: one closed-loop client.

    python3 bench/run.py --workload fans --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout.  The package is imported from
``src/`` of that checkout; the run fails (exit 2, no result) when it is
missing.  One single-threaded process runs whole blocks of jobs (see
``workloads.py``) back to back until ``--seconds`` have passed, checks
every job against an independent reference right after it finishes, and
prints the metrics; the last line of stdout is one JSON object.

``--trace 0`` reports the end-to-end metrics of an untraced run.
``--trace 1`` runs k blocks untraced for half the time, then k further
blocks of the same composition with boundary tracing (``tracing.py``), and
reports the per-layer metrics per block, plus the tracing overhead.

Inputs are written under ``.bench_work/`` and spans under
``.bench_trace/<workload>/`` in the checkout; the input files are removed
at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACE_OUT = ROOT / ".bench_trace"

import families  # noqa: E402  (the benchmark's own modules sit beside it)
import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from jobs import InputWriter  # noqa: E402

SETUP_REPEATS = 5
# latency_p90_ms needs ten samples beyond it
MIN_JOBS = 100
# Seconds the speed probe takes on the reference machine (2-core x86_64,
# Python 3.11.7, in its faster state); timings are reported at that speed.
PROBE_NOMINAL_S = 0.001
# Seconds one block takes at the time the benchmark was written; only used
# to decide how many distinct blocks to generate.  A faster program runs
# more blocks than were generated and then meets the first ones again.
NOMINAL_BLOCK_S = {"fans": 7.0, "flows": 0.8}


def speed_probe():
    """Seconds for a fixed piece of exact arithmetic in the benchmark's own
    code (median of nine), independent of the program under test.

    The shared host runs everything up to 1.5x slower for minutes at a
    time; timings are scaled by nominal / probe, measured next to them.
    """
    deriv = oracle.toric_derivation((1, 0), (-1, 2))
    terms = {(40, 1): Fraction(2, 3), (17, 0): Fraction(-1, 5)}
    fans = (families.polygon(families.POLYGONS["f1_b2"]),
            families.hirzebruch(5))
    times = []
    for _ in range(9):
        t0 = time.perf_counter()
        deriv.flow_at(terms, Fraction(3, 7))
        for spec in fans:
            oracle.rank2_class_count(spec)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _purge_package():
    for name in [n for n in sys.modules
                 if n == "demazure" or n.startswith("demazure.")]:
        del sys.modules[name]


def setup(workload, seed, n_blocks, directory):
    """Import the package and generate the blocks and their input texts."""
    _purge_package()
    importlib.import_module("demazure.cli")
    writer = InputWriter(directory)
    rng = random.Random(f"{workload}:{seed}")
    ctx = workloads.SETUP[workload](writer) if workload in workloads.SETUP \
        else None
    make = workloads.WORKLOADS[workload]
    return [make(rng, writer, ctx) for _ in range(n_blocks)], writer


class Client:
    """Runs jobs one after another and checks each result right away."""

    def __init__(self):
        self.cli = sys.modules["demazure.cli"]
        self.serialize = sys.modules["demazure.serialize"]
        self.orbits = sys.modules["demazure.orbits"]
        self.latencies = []
        self.blocks = []       # (job latencies, speed probe) per block
        self.failures = []
        self.tracer = None
        self.job_id = 0

    def _call(self, job):
        if job.argv is None:
            fan = self.serialize.fan_from_json(
                json.loads(Path(job.path).read_text()))
            return 0, self.orbits.admits_g_structure(fan)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = self.cli.main(job.argv)
        return code, out.getvalue()

    def run(self, job):
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                code, output = self._call(job)
            else:
                code, output = self.tracer.run_job(
                    self.job_id, lambda: self._call(job))
        except SystemExit as exc:
            code, output = exc.code, ""
        except Exception as exc:  # a crash is a failed job, not a crash here
            code, output = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        self.job_id += 1
        self.latencies.append(dt)
        try:
            reason = job.check(code, output)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            reason = f"unreadable output ({type(exc).__name__}: {exc})"
        if reason is not None:
            self.failures.append((job.kind, reason))
        return dt

    def run_blocks(self, blocks, first, count=None, seconds=None,
                   min_jobs=0):
        """Whole blocks from index ``first``: ``count`` of them, or as many
        as fill ``seconds`` best.  Returns (blocks run, job seconds).

        Another block starts while it would end less than half a block
        past ``seconds``, so a run holds round(seconds / block time)
        blocks, and always until ``min_jobs`` jobs have run.
        """
        start = time.perf_counter()
        busy = 0.0
        k = jobs = 0
        before = speed_probe()
        while (k < count if count is not None else k == 0 or
               jobs < min_jobs or
               (time.perf_counter() - start) * (1 + 0.5 / k) < seconds):
            latencies = [self.run(job)
                         for job in blocks[(first + k) % len(blocks)]]
            after = speed_probe()
            self.blocks.append((latencies, (before + after) / 2))
            before = after
            busy += sum(latencies)
            jobs += len(latencies)
            k += 1
        return k, busy

    def scaled_latencies(self):
        """Job times at the nominal probe speed, block by block."""
        return [dt * PROBE_NOMINAL_S / probe
                for latencies, probe in self.blocks for dt in latencies]


def _env_stamp():
    digest = hashlib.sha256()
    for path in sorted((SRC / "demazure").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "machine": platform.machine(),
            "source_sha256": digest.hexdigest()[:16]}


def timings(lat):
    return (len(lat) / sum(lat), statistics.median(lat) * 1e3,
            statistics.quantiles(lat, n=10)[8] * 1e3)


def end_to_end(client, setup_s):
    jobs_per_s, p50, p90 = timings(client.scaled_latencies())
    return {
        "jobs_per_s": (jobs_per_s, "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p90_ms": (p90, "ms"),
        "correct_frac": (1 - len(client.failures) / len(client.latencies),
                         "fraction"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "demazure" / "cli.py").is_file():
        print(f"no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    nominal = NOMINAL_BLOCK_S[args.workload]
    span = args.seconds / 2 if args.trace else args.seconds
    per_pass = int(span / nominal) + 2
    n_blocks = per_pass * (2 if args.trace else 1)

    run_dir = WORK / f"{os.getpid()}"
    try:
        setups, probes = [], []
        for rep in range(SETUP_REPEATS):
            blocks = writer = None
            gc.collect()
            probes.append(speed_probe())
            t0 = time.perf_counter()
            blocks, writer = setup(args.workload, args.seed, n_blocks,
                                   run_dir)
            setups.append(time.perf_counter() - t0)
        setup_s = statistics.median(setups)
        # the files are written once, outside setup_s: on a shared disk
        # their latency varied threefold between runs of the same inputs
        t0 = time.perf_counter()
        writer.flush()
        detail = {"write_s": time.perf_counter() - t0,
                  "files": len(writer.paths)}
        package = Path(sys.modules["demazure"].__file__).resolve()
        if SRC.resolve() not in package.parents:
            print(f"demazure was imported from {package}", file=sys.stderr)
            return 2

        client = Client()
        k, busy = client.run_blocks(blocks, 0, seconds=span,
                                    min_jobs=0 if args.trace else MIN_JOBS)
        if args.trace:
            tracer = tracing.Tracer()
            tracing.install(tracer)
            client.tracer = tracer
            _, traced = client.run_blocks(blocks, k, count=k)
            metrics = tracing.layer_metrics(tracer, k)
            metrics["trace.overhead_frac"] = (traced / busy - 1, "ratio")
            selfs = sum(tracer.self_times().values())
            detail["traced_job_s"] = tracer.job_time
            detail["self_s_sum"] = selfs
            if abs(selfs - tracer.job_time) > 1e-6 * tracer.job_time:
                client.failures.append(
                    ("trace", f"self times add to {selfs}, "
                              f"job time is {tracer.job_time}"))
            tracer.write(TRACE_OUT / args.workload)
        else:
            metrics = end_to_end(
                client, setup_s * PROBE_NOMINAL_S / statistics.median(probes))
            detail["unscaled"] = dict(zip(
                ("jobs_per_s", "latency_p50_ms", "latency_p90_ms"),
                timings(client.latencies)))
            detail["unscaled"]["setup_s"] = setup_s
        detail["probe_s"] = probes + [probe for _, probe in client.blocks]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    attempted = len(client.latencies)
    failed = len(client.failures)
    print(json.dumps({"env": _env_stamp(), "blocks": k,
                      "jobs_per_block": attempted // (2 * k if args.trace
                                                      else k),
                      "latency_samples": attempted,
                      "failed_frac": failed / attempted,
                      "setup_samples": setups, **detail}))
    for kind, reason in client.failures[:10]:
        print(f"FAILED {kind}: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
