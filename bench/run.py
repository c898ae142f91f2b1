#!/usr/bin/env python3
"""Benchmark of `realis` queries, end to end and per layer.

    python3 bench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

One client issues `realis` queries in process through
``realisability.cli.main(argv)`` in a closed loop: each query starts when
the previous one has returned.  Every query's exit code and stdout are
checked against ``bench/expected/<workload>.json`` and against paper
invariants.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record of
the run goes to ``bench/results/``.

With ``--trace 0`` the run repeats whole passes over the seeded plan while
the next pass is expected to end within ``--seconds`` (at least three
passes) and reports the end-to-end metrics.  With ``--trace 1`` it makes
one untraced pass, then traced passes (at least two, more on the same
rule) and reports the per-layer metrics; the counts of every traced pass
must be equal.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple, Optional

import workloads
from calibrate import REFERENCE_S, calibrate
from workloads import ROOT, digest

SRC = ROOT / "src"
RESULTS_DIR = workloads.BENCH_DIR / "results"

SETUP_STARTS = 3  # fresh interpreters timed after each pass
MIN_QUERIES = 100
MIN_PASSES = 3
CALIBRATE_EVERY = 10  # queries between calibrations
MAX_MEASURE_S = 120.0  # stop issuing queries after this, even mid-pass

EXIT_OF = {"in": 0, "out": 1, "unknown": 2}

# run by a fresh interpreter: time the import of the CLI and a kernel build
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import realisability.cli\n"
    "from realisability.ordinals import ordinal_kernel\n"
    "ordinal_kernel()\n"
    "print(repr(time.perf_counter() - t))\n"
)

E2E_UNITS = {"setup_s": "s", "queries_per_s": "1/s", "query_p50_ms": "ms",
             "query_p90_ms": "ms", "peak_rss_mb": "MB",
             "definite_share": "ratio"}


class BenchError(Exception):
    """The benchmark cannot run here."""


def import_cli():
    """realisability.cli from this checkout's src/, and nowhere else."""
    if not (SRC / "realisability" / "cli.py").is_file():
        raise BenchError("no src/realisability in %s" % ROOT)
    sys.path.insert(0, str(SRC))
    import realisability.cli as cli

    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        raise BenchError("realisability imported from %s" % cli.__file__)
    return cli


def time_setup() -> float:
    """Seconds a fresh interpreter took to import the CLI and build a
    kernel."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    if proc.returncode != 0:
        raise BenchError("setup start failed: %s" % proc.stderr.strip())
    return float(proc.stdout)


# ---------------------------------------------------------------------------
# Queries

class Outcome(NamedTuple):
    code: Optional[int]
    stdout: str
    seconds: float
    error: Optional[str]  # the exception a crashing query raised


def issue(cli, argv: list) -> Outcome:
    """One query, timed from the cli.main call to its return."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except Exception as exc:  # a crash is a failed query, not a stop
            error = "%s: %s" % (type(exc).__name__, exc)
        seconds = time.perf_counter() - start
    return Outcome(code, out.getvalue(), seconds, error)


def verdict_counts(argv: list, report: dict) -> tuple:
    """(definite, total) verdicts of a query's report."""
    if argv[0] == "ram":
        kinds = [r["verdict"] for r in report["equivalence"]
                 + report["properties"]]
        return sum(k != "unknown" for k in kinds), len(kinds)
    kind = (report["realises"]["kind"] if argv[0] == "validate"
            else report["verdict"])
    return int(kind != "unknown"), 1


def invariant_problems(argv: list, code, report: dict) -> list:
    """Paper invariants that hold whatever the expected file says."""
    problems = []
    if argv[0] == "ram":
        kinds = {r["verdict"] for r in report["equivalence"]
                 + report["properties"]}
        want = 1 if "disagree" in kinds else 2 if "unknown" in kinds else 0
        if code != want:
            problems.append("exit %s, records ask for %d" % (code, want))
        return problems
    if argv[0] == "validate":
        kind = report["realises"]["kind"]
        if kind == "out":
            problems.append("extracted realiser of a checked proof is out")
    else:
        kind = report["verdict"]
        if kind == "out":
            problems.append("well-ordering realiser is out")
    if code != EXIT_OF[kind]:
        problems.append("exit %s for verdict %s" % (code, kind))
    return problems


def check(argv: list, outcome: Outcome, entry=None) -> tuple:
    """(problems, definite, total) for one query; entry is its expected
    exit code and stdout digest, if known."""
    if outcome.error is not None:
        return ["raised %s" % outcome.error], 0, 0
    problems = []
    if outcome.code == 3:
        problems.append("exit 3")
    if entry is not None and (
            outcome.code != entry["exit"]
            or digest(outcome.stdout) != entry["stdout_sha256"]):
        problems.append("exit %s or stdout differs from expected"
                        % outcome.code)
    try:
        report = json.loads(outcome.stdout)
        definite, total = verdict_counts(argv, report)
        problems.extend(invariant_problems(argv, outcome.code, report))
    except (ValueError, KeyError, TypeError) as exc:
        problems.append("unreadable report: %r" % exc)
        definite, total = 0, 0
    return problems, definite, total


class Pass:
    """The outcomes of one pass over the plan."""

    def __init__(self):
        self.latencies = []
        self.calibrations = []
        self.digests = []
        self.failures = []
        self.definite = 0
        self.verdicts = 0
        self.wall = 0.0


def run_pass(cli, plan: list, expected: dict, deadline=None) -> Pass:
    p = Pass()
    start = time.perf_counter()
    for i, argv in enumerate(plan):
        if deadline is not None and time.perf_counter() > deadline:
            break
        if i % CALIBRATE_EVERY == 0:
            p.calibrations.append(calibrate())
        outcome = issue(cli, argv)
        p.latencies.append(outcome.seconds)
        p.digests.append((outcome.code, digest(outcome.stdout)))
        problems, definite, total = check(
            argv, outcome, expected[workloads.query_key(argv)])
        if problems:
            p.failures.append({"argv": argv, "problems": problems})
        p.definite += definite
        p.verdicts += total
    p.calibrations.append(calibrate())
    p.wall = time.perf_counter() - start
    return p


def run_probes(cli) -> list:
    """Outcomes of the PROBES queries, recorded but not judged."""
    out = []
    for argv in workloads.PROBES:
        o = issue(cli, list(argv))
        rec = {"argv": list(argv), "exit": o.code, "error": o.error}
        if o.error is None and argv[0] == "ram":
            report = json.loads(o.stdout)
            rec["disagree_records"] = [
                r for r in report["equivalence"] + report["properties"]
                if r["verdict"] == "disagree"]
        out.append(rec)
    return out


# ---------------------------------------------------------------------------
# Runs

def quantile(values: list, q: int) -> float:
    """The q-th percentile, q a multiple of 10."""
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


def timing_metrics(setup: list, passes: list, speed: float) -> dict:
    """The timed metrics, with every time multiplied by speed.  Each
    query's median latency across the passes stands for it: a burst of
    load from elsewhere slows some queries of one pass, not the same
    queries in every pass."""
    per_query = [speed * statistics.median(x)
                 for x in zip(*(p.latencies for p in passes))]
    return {
        "setup_s": speed * statistics.median(setup),
        "queries_per_s": len(per_query) / sum(per_query),
        "query_p50_ms": 1000 * quantile(per_query, 50),
        "query_p90_ms": 1000 * quantile(per_query, 90),
    }


def measure(cli, plan, expected, seconds: float, setup_starts: int,
            min_queries: int) -> dict:
    """End-to-end metrics from whole passes over the plan.

    Set-up is timed by fresh interpreters started after each pass, so
    that it samples the machine over the whole run as the queries do.
    Timings are reported at the reference machine speed: they are scaled
    by REFERENCE_S over the median of every calibration the run took (see
    calibrate.py).  The raw wall-clock figures go to the run record.
    """
    time_setup()  # untimed, so that compiling the bytecode is not counted
    gc.collect()
    setup, passes, cycles = [], [], []
    start = time.perf_counter()
    deadline = start + MAX_MEASURE_S
    while True:
        began = time.perf_counter()
        passes.append(run_pass(cli, plan, expected, deadline))
        setup.extend(time_setup() for _ in range(setup_starts))
        cycles.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        issued = sum(len(p.latencies) for p in passes)
        if time.perf_counter() > deadline or (
                issued >= min_queries and len(passes) >= MIN_PASSES
                and elapsed + max(cycles) > seconds):
            break
    whole = [p for p in passes if len(p.latencies) == len(plan)] or passes
    speed = REFERENCE_S / statistics.median(
        c for p in passes for c in p.calibrations)
    failed = sum(len(p.failures) for p in passes)
    metrics = timing_metrics(setup, whole, speed)
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                              .ru_maxrss / 1024)
    metrics["definite_share"] = whole[0].definite / whole[0].verdicts
    return {
        "metrics": metrics,
        "attempted": issued,
        "failed": failed,
        "correct": failed == 0,
        "extra": {
            "failed_share": failed / issued,
            "raw_metrics": timing_metrics(setup, whole, 1.0),
            "speed_factor": speed,
            "latency_samples": len(plan),
            "passes": len(passes),
            "whole_passes": len(whole),
            "pass_wall_s": [p.wall for p in passes],
            "latencies_ms": [[round(1000 * x, 3) for x in p.latencies]
                             for p in passes],
            "calibrations_ms": [[round(1000 * x, 3) for x in p.calibrations]
                                for p in passes],
            "measured_s": elapsed,
            "setup_starts_s": setup,
            "failures": [f for p in passes for f in p.failures][:20],
        },
    }


def unit_of(name: str, trace: bool) -> str:
    if not trace:
        return E2E_UNITS[name]
    if name.endswith("steps_per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("ratio") or name.endswith("share"):
        return "ratio"
    return "count"


def measure_traced(cli, plan, expected, seconds: float) -> dict:
    import tracer

    gc.collect()
    base = run_pass(cli, plan, expected)
    tr = tracer.Tracer()
    traced = []
    start = time.perf_counter()
    with tr:
        while len(traced) < 2 or (
                time.perf_counter() - start
                + max(t[0].wall for t in traced) <= min(seconds,
                                                         MAX_MEASURE_S)):
            tr.reset()
            gc.collect()
            p = run_pass(cli, plan, expected)
            traced.append((p, tr.metrics(), tr.deterministic_counts(),
                           tr.incl["cli.main"]))
    passes = [base] + [t[0] for t in traced]
    failed = sum(len(p.failures) for p in passes)
    counts = [t[2] for t in traced]
    repeat = all(c == counts[0] for c in counts)
    identical = all(t[0].digests == base.digests for t in traced)
    metrics = {}
    for name in traced[0][1]:
        values = [t[1][name] for t in traced]
        metrics[name] = (values[0] if name in counts[0]
                         else statistics.median(values))
    walls = [t[0].wall for t in traced]
    layers = [sum(t[1]["%s.self_s" % layer] for layer in tracer.LAYERS)
              for t in traced]
    metrics["trace.overhead_ratio"] = statistics.median(walls) / base.wall
    metrics["trace.wall_s"] = statistics.median(walls)
    metrics["trace.harness_s"] = statistics.median(
        w - t[3] for w, t in zip(walls, traced))
    metrics["trace.layer_share"] = statistics.median(
        x / w for x, w in zip(layers, walls))
    return {
        "metrics": metrics,
        "attempted": sum(len(p.latencies) for p in passes),
        "failed": failed,
        "correct": failed == 0 and repeat and identical,
        "extra": {
            "failed_share": failed / sum(len(p.latencies) for p in passes),
            "traced_passes": len(traced),
            "counts_repeat": repeat,
            "outputs_identical_to_untraced": identical,
            "counts_per_pass": counts,
            "untraced_wall_s": base.wall,
            "failures": [f for p in passes for f in p.failures][:20],
        },
    }


def machine_record() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True,
                                  timeout=30)
            if proc.returncode == 0:
                commit = proc.stdout.strip()
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return {
        "git_commit": commit,
        "source_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


def run(name: str, seed: int, seconds: float, trace: bool, limit=None,
        setup_starts: int = SETUP_STARTS,
        min_queries: int = MIN_QUERIES) -> dict:
    """One benchmark run; limit cuts the plan to its first queries."""
    cli = import_cli()
    expected = workloads.load_expected(name)["queries"]
    plan = workloads.plan(name, seed, {"queries": expected})
    if limit is not None:
        plan = plan[:limit]
    workloads.materialise(plan)
    if trace:
        result = measure_traced(cli, plan, expected, seconds)
    else:
        result = measure(cli, plan, expected, seconds, setup_starts,
                         min_queries)
    probes = run_probes(cli)  # after measuring, so peak_rss_mb omits them
    result["record"] = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "plan_queries": len(plan),
        "queries_issued": result["attempted"],
        "machine": machine_record(), "probes": probes,
    }
    return result


def result_line(result: dict, trace: bool) -> str:
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": unit_of(k, trace)}
                    for k, v in result["metrics"].items()},
    })


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    os.chdir(ROOT)
    try:
        result = run(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    except (BenchError, ImportError, OSError) as exc:
        print("bench: cannot run: %s" % exc, file=sys.stderr)
        return 2
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / ("%s-seed%d-trace%d.json"
                         % (args.workload, args.seed, args.trace))
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    rec, extra = result["record"], result["extra"]
    print("workload %s seed %d: %d queries (%d per pass), %d failed"
          % (args.workload, args.seed, result["attempted"],
             rec["plan_queries"], result["failed"]))
    for probe in rec["probes"]:
        print("probe %s -> exit %s%s" % (
            " ".join(probe["argv"]), probe["exit"],
            ", raised " + probe["error"] if probe["error"] else ""))
    for f in extra["failures"][:5]:
        print("FAILED %s: %s" % (" ".join(f["argv"]), "; ".join(f["problems"])))
    for k, v in result["metrics"].items():
        unit = unit_of(k, bool(args.trace))
        note = ""
        if k in ("query_p50_ms", "query_p90_ms"):
            note = "  (n=%d queries, median of %d passes each)" % (
                extra["latency_samples"], extra["whole_passes"])
        print("  %-34s %14.6g %s%s" % (k, v, unit, note))
    if not args.trace:
        print("  %-34s %14.6g ratio" % ("failed_share", extra["failed_share"]))
        for k, v in extra["raw_metrics"].items():
            print("  %-34s %14.6g %s  (wall clock, not scaled)"
                  % ("raw " + k, v, unit_of(k, False)))
    print("record: %s" % out.relative_to(ROOT))
    print(result_line(result, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
