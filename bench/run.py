"""Benchmark of descentlab's CLI and library, one workload per run.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/run.py --compare BASE.jsonl NEW.jsonl
    python3 bench/run.py --write-expected

A run repeats full passes of the workload's steps (see ``workloads.py``),
one child process at a time, until the next pass would end after
``--seconds`` (``run_seconds`` of ``BENCHMARK.json`` by default); it makes
at least two passes.  Before each pass it times set-up twice: a fresh
interpreter imports ``descentlab.cli`` and builds its parser (``setup_s``
is the median).  Each step's outputs are checked as soon as it ends.  The
last line of stdout is the result:
``{"correct", "attempted", "failed", "metrics"}``, where an operation is a
step or a check, and a step whose check fails counts as failed too.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``,
built from each step's median over the passes.  With ``--trace 1`` passes alternate between traced
and untraced, and the metrics are the per-layer ones, medians over traced
passes, with ``trace.overhead_frac`` comparing the two kinds of pass.

Every run also appends its full record (the manifest, with each step's
argv, and every pass's figures) to ``bench/out/runs.jsonl``, or to
``--save``.  ``--compare`` reads two such files.  ``--write-expected``
records the output digests of every step at the default seed into
``bench/expected_digests.json``; later runs check those digests.

The package is run from the checkout's ``src`` directory; without it the
run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import harness
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
EXPECTED = BENCH / "expected_digests.json"

SETUP_PROBES = 2  # before each pass
MIN_PASSES = 2
RUN_LIMIT_S = 170.0  # the whole run, set-up included


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def _cpu_max() -> str | None:
    try:
        return Path("/sys/fs/cgroup/cpu.max").read_text().strip()
    except OSError:
        return None


def _threads() -> int:
    """Width of the two-thread steps: never above the processors we have."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def measure(args) -> tuple[dict, dict]:
    """One run: returns (the printed result, the saved record)."""
    spec = _spec()
    steps = workloads.steps(args.workload, args.seed, _threads())
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    work = OUT / f"tmp-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = harness.Runner(ROOT, work, time.monotonic() + RUN_LIMIT_S, expected)
        _, numpy_version = runner.setup_probe()  # warm-up: bytecode, page cache
        setups, passes, longest, start = [], [], 0.0, time.monotonic()
        while True:
            # spread over the run, so one quiet or busy moment does not decide
            setups += [runner.setup_probe()[0] for _ in range(SETUP_PROBES)]
            began = time.monotonic()
            traced = bool(args.trace) and len(passes) % 2 == 0
            passes.append(runner.run_pass(steps, traced))
            now = time.monotonic()
            longest = max(longest, now - began)
            if now + longest > runner.deadline:
                break
            if len(passes) >= MIN_PASSES and now - start + longest > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [p for p in passes if not p.traced]
    if args.trace:
        layers = [harness.layer_metrics(p) for p in passes if p.traced]
        values = {name: statistics.median(m[name] for m in layers)
                  for name in layers[0]}
        plain_wall = harness.run_metrics(plain)["wall_s"] if plain else 0.0
        values["trace.overhead_frac"] = (values["wall_s"] / plain_wall - 1
                                         if plain_wall else 0.0)
    else:
        values = harness.run_metrics(plain)
        values["setup_s"] = statistics.median(setups)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    manifest = {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_max": _cpu_max(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "steps": [{"name": s.name, "argv": list(s.argv), "lib": s.lib} for s in steps],
    }
    record = {
        "manifest": manifest,
        "workload": args.workload,
        "trace": args.trace,
        "metrics": {k: v["value"] for k, v in metrics.items()},
        "failed_frac": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "setup_samples": setups,
        "bench_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "passes": [{
            "traced": p.traced,
            "steps": [{"name": r.step.name, "wall_s": r.wall_s, "rss_kb": r.rss_kb,
                       "returncode": r.returncode, "digest": r.digest,
                       "trace": r.trace} for r in p.steps],
            "failed_checks": [label for label, ok in p.checks if not ok],
        } for p in passes],
    }
    return result, record


def write_expected() -> int:
    """Record every step's digest at the default seed, at --threads 1."""
    digests = {}
    work = OUT / f"tmp-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = harness.Runner(ROOT, work, time.monotonic() + 3600, {})
        runner.setup_probe()
        for name in workloads.WORKLOADS:
            p = runner.run_pass(workloads.steps(name, workloads.DEFAULT_SEED, 1),
                                False)
            bad = [label for label, ok in p.checks if not ok]
            if bad:
                print(f"{name}: failed checks {bad}", file=sys.stderr)
                return 1
            digests.update({r.step.digest_key(): r.digest for r in p.steps})
    finally:
        shutil.rmtree(work, ignore_errors=True)
    EXPECTED.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {EXPECTED}")
    return 0


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def _samples(path: str) -> tuple[dict[tuple[str, str], list[float]], Counter]:
    """Metric values by (workload, metric), and operations attempted and
    failed by workload."""
    values: dict[tuple[str, str], list[float]] = {}
    ops: Counter = Counter()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                for name, value in rec["metrics"].items():
                    values.setdefault((rec["workload"], name), []).append(value)
                ops[rec["workload"], "attempted"] += rec["attempted"]
                ops[rec["workload"], "failed"] += rec["failed"]
    return values, ops


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric: dict, base: list[float], new: list[float]) -> str:
    """How ``new`` stands against ``base`` under the metric's bound."""
    if "bound" not in metric:
        return ""
    lower = metric["better"] == "lower"
    b1, b2, b3 = quartiles(base)
    n2 = quartiles(new)[1]
    if b2 and (b3 - b1) / abs(b2) > metric["bound"]:
        every = max(new) < min(base) if lower else min(new) > max(base)
        return "better in every run" if every else "unresolved"
    worse = (n2 / b2 - 1 if lower else 1 - n2 / b2) if b2 else math.inf
    return "regressed" if worse > metric["bound"] else "within bound"


def compare(base_path: str, new_path: str) -> int:
    spec = _spec()
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    (base, base_ops), (new, new_ops) = _samples(base_path), _samples(new_path)
    print(f"{'workload':<15} {'metric':<31} {'base q1/median/q3':<32} "
          f"{'new q1/median/q3':<32} {'new/base':>9}  verdict")
    for key in sorted(base.keys() & new.keys()):
        workload, name = key
        if name not in metrics:
            continue
        bq, nq = quartiles(base[key]), quartiles(new[key])
        ratio = f"{nq[1] / bq[1]:.3f}" if bq[1] else "-"
        print(f"{workload:<15} {name:<31} "
              f"{'/'.join(f'{v:.4g}' for v in bq):<32} "
              f"{'/'.join(f'{v:.4g}' for v in nq):<32} {ratio:>9}  "
              f"{verdict(metrics[name], base[key], new[key])}"
              f"  (n={len(base[key])}/{len(new[key])}, {metrics[name]['unit']})")
    for workload in sorted({w for w, _ in base_ops} | {w for w, _ in new_ops}):
        print(f"{workload}: failed/attempted operations "
              f"base {base_ops[workload, 'failed']}/{base_ops[workload, 'attempted']}, "
              f"new {new_ops[workload, 'failed']}/{new_ops[workload, 'attempted']}")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", default=str(OUT / "runs.jsonl"),
                    help="JSON-lines file the run's full record is appended to")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    ap.add_argument("--write-expected", action="store_true")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    try:
        if args.write_expected:
            return write_expected()
        if args.workload is None:
            ap.error("--workload is required")
        if args.seconds is None:
            args.seconds = _spec()["run_seconds"]
        result, record = measure(args)
    except harness.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    Path(args.save).parent.mkdir(parents=True, exist_ok=True)
    with open(args.save, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps(record["manifest"]), file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
