"""Running steps as child processes, checking their outputs, and the
figures built from them: end to end per run, per layer per traced pass."""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import tracing
from workloads import AUDIT, Step

BENCH = Path(__file__).resolve().parent


class SetupError(RuntimeError):
    """The package cannot be run from this checkout."""


@dataclass(frozen=True)
class Output:
    """A step's stdout, and what the checks need of its audit file."""

    stdout: bytes
    digest: str  # of stdout and the audit file together
    audit_rows: int = 0
    audit_nonzero: int = 0  # rows whose residual is not 0
    audit_bytes: int = 0


def read_output(stdout_path: Path, audit_path: Path | None) -> Output:
    """Reads the audit file a line at a time: it can be tens of megabytes."""
    stdout = stdout_path.read_bytes()
    sha = hashlib.sha256(stdout + b"\0audit\0")
    rows = nonzero = size = 0
    if audit_path is not None and audit_path.exists():
        with open(audit_path, "rb") as fh:
            for i, line in enumerate(fh):
                sha.update(line)
                size += len(line)
                if i:  # after the header; the residual is the last column
                    rows += 1
                    nonzero += not line.rstrip(b"\n").endswith(b",0")
    return Output(stdout, sha.hexdigest(), rows, nonzero, size)


@dataclass
class StepResult:
    """What is kept of a step once its outputs are checked: the benchmark
    process stays small, because a child's peak RSS as ``wait4`` reports it
    is at least the parent's at the time of the fork."""

    step: Step
    wall_s: float
    rss_kb: int
    returncode: int
    digest: str
    out_bytes: int
    checks: list[tuple[str, bool]]
    trace: Counter | None = None


@dataclass
class PassResult:
    traced: bool
    steps: list[StepResult]
    checks: list[tuple[str, bool]]

    @property
    def attempted(self) -> int:
        return len(self.steps) + len(self.checks)

    @property
    def failed(self) -> int:
        bad_steps = {label.split(":")[0] for label, ok in self.checks if not ok}
        return len(bad_steps) + sum(not ok for _, ok in self.checks)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:  # it ended on its own meanwhile
        pass


class Runner:
    """Runs steps from a checkout's ``src`` in fresh interpreters, keeping
    every scratch file under ``work``."""

    def __init__(self, root: Path, work: Path, deadline: float,
                 expected: dict[str, str]):
        self.root = root
        self.work = work
        self.deadline = deadline
        self.expected = expected
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self._files = 0

    def _scratch(self, suffix: str) -> Path:
        self._files += 1
        return self.work / f"{self._files}{suffix}"

    def setup_probe(self) -> tuple[float, str]:
        """Seconds from spawning a fresh interpreter until it has imported
        descentlab.cli and built the parser; also returns numpy's version."""
        code = ("import descentlab.cli as c; c.build_parser(); import numpy; "
                "print(numpy.__version__, c.__file__, flush=True)")
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], cwd=self.root,
                                env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, start_new_session=True)
        with self._watchdog(proc.pid):
            first = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            _, err = proc.communicate()
        version, _, path = first.decode().strip().partition(" ")
        if proc.returncode != 0 or not path.startswith(str(self.root / "src") + os.sep):
            raise SetupError("descentlab.cli does not import from "
                             f"{self.root / 'src'}: {err.decode()[-500:] or path}")
        return elapsed, version

    @contextlib.contextmanager
    def _watchdog(self, pid: int):
        """Kills the child's process group if it outlives the run."""
        timer = threading.Timer(max(0.0, self.deadline - time.monotonic()),
                                _kill_group, (pid,))
        timer.start()
        try:
            yield
        finally:
            timer.cancel()

    def _spawn(self, cmd, stdout, stderr):
        """(wall seconds, exit code, rusage) of a child run to completion.

        ``os.wait4`` blocks until the child ends and returns its peak RSS;
        ``Popen.wait`` with a timeout would poll and quantize the time.
        """
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=stdout,
                                stderr=stderr, start_new_session=True)
        with self._watchdog(proc.pid):
            _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage

    def run(self, step: Step, traced: bool) -> StepResult:
        audit = self._scratch(".audit") if step.records else None
        args = [str(audit) if tok == AUDIT else tok for tok in step.argv]
        trace_dir = None
        if traced:
            trace_dir = self._scratch(".trace")
            trace_dir.mkdir()
            cmd = [sys.executable, str(BENCH / "step.py"), "--trace", str(trace_dir),
                   "lib" if step.lib else "cli", *args]
        elif step.lib:
            cmd = [sys.executable, str(BENCH / "step.py"), "lib", *args]
        else:
            cmd = [sys.executable, "-m", "descentlab.cli", *args]
        out_path, err_path = self._scratch(".out"), self._scratch(".err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            wall, code, usage = self._spawn(cmd, out, err)
        if code != 0:
            tail = err_path.read_text(errors="replace")[-2000:]
            print(f"step {step.name} exited {code}: {tail}", file=sys.stderr)
        out = read_output(out_path, audit)
        result = StepResult(step, wall, usage.ru_maxrss, code, out.digest,
                            len(out.stdout) + out.audit_bytes,
                            check_step(step, code, out, self.expected))
        if trace_dir is not None:
            result.trace = tracing.summarize(*tracing.load(trace_dir))
        for path in (out_path, err_path, audit):
            if path is not None and path.exists():
                path.unlink()
        return result

    def run_pass(self, steps: list[Step], traced: bool) -> PassResult:
        results = [self.run(step, traced) for step in steps]
        return PassResult(traced, results, check_pass(results))


# ---------------------------------------------------------------------------
# correctness checks
# ---------------------------------------------------------------------------

def _rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines()[1:] if line]


def _structure(step: Step, out: Output) -> list[tuple[str, bool]]:
    """Checks that need no reference output."""
    text = out.stdout.decode(errors="replace")
    opts = dict(zip(step.argv[1::2], step.argv[2::2]))
    if step.command == "simulate":
        counts = sum(int(row[1]) for row in _rows(text))
        checks = [("counts_sum_to_replicates", counts == step.replicates)]
        if step.records:
            checks += [("audit_rows", out.audit_rows == step.replicates),
                       ("audit_residuals_zero", out.audit_nonzero == 0)]
        return checks
    if step.command == "decompose":
        run = json.loads(text.splitlines()[-1])["run"]
        return [("residual_zero", run["residual"] == "0")]
    if step.command == "identities":
        rows = _rows(text)
        return [("identity_rows", len(rows) == int(opts["--n-max"])),
                ("identities_hold", all(r[4] == "true" for r in rows))]
    if step.command == "condition_scan":
        rows = _rows(text)
        return [("scan_rows", len(rows) == int(step.argv[3]) - int(step.argv[2])),
                ("scan_finite", all(math.isfinite(float(v)) for r in rows for v in r))]
    return []


def check_step(step: Step, returncode: int, out: Output,
               expected: dict[str, str]) -> list[tuple[str, bool]]:
    checks = [("exit_code_0", returncode == 0)]
    try:
        checks += _structure(step, out)
    except (ValueError, IndexError, KeyError):
        checks.append(("parse_output", False))
    key = step.digest_key()
    if key in expected:
        checks.append(("expected_digest", out.digest == expected[key]))
    return [(f"{step.name}:{label}", ok) for label, ok in checks]


def check_pass(results: list[StepResult]) -> list[tuple[str, bool]]:
    """Every step's checks, plus equal digests across ``--threads`` twins."""
    by_name = {r.step.name: r for r in results}
    checks = []
    for res in results:
        checks += res.checks
        if res.step.twin is not None:
            twin = by_name[res.step.twin]
            checks.append((f"{res.step.name}:digest_equals_{twin.step.name}",
                           res.digest == twin.digest))
    return checks


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------

def run_metrics(passes: list[PassResult]) -> dict[str, float]:
    """End-to-end figures of a run's untraced passes, from each step's
    median over the passes: wall_s (a pass, summed over its steps),
    replicates_per_s (over the steps that simulate), peak_rss_mb (the
    largest step)."""
    walls = [statistics.median(col) for col in
             zip(*([r.wall_s for r in p.steps] for p in passes))]
    rss = [statistics.median(col) for col in
           zip(*([r.rss_kb for r in p.steps] for p in passes))]
    steps = [r.step for r in passes[0].steps]
    sim = [(s.replicates, w) for s, w in zip(steps, walls) if s.replicates]
    return {
        "wall_s": sum(walls),
        "replicates_per_s": sum(n for n, _ in sim) / sum(w for _, w in sim),
        "peak_rss_mb": max(rss) / 1024,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(p: PassResult) -> dict[str, float]:
    """Per-layer figures of one traced pass; a layer with no work reads 0."""
    t = Counter()
    for r in p.steps:
        t.update(r.trace)
    wall = sum(r.wall_s for r in p.steps)
    out = {f"{layer}.self_s": t[f"{layer}.self_s"]
           for layer in (*tracing.LAYERS, tracing.IMPORT)}

    def per_call_ms(fn):
        return 1000 * _ratio(t[f"time.{fn}"], t[f"calls.{fn}"])

    out.update({
        "families.rows_built": t["families.rows_built"],
        "families.row_reuse": _ratio(t["families.rows_used"], t["families.rows_built"]),
        "moments.central_moments_ms": per_call_ms("moments.central_moments"),
        "diagnostics.kolmogorov_ms": per_call_ms("diagnostics.kolmogorov_distance"),
        "diagnostics.condition_scan_s": t["time.diagnostics.condition_scan"],
        "diagnostics.identity_check_s": t["time.diagnostics.identity_check"],
        "compositions.enumerated": t["compositions.enumerated"],
        "compositions.discard_maps": t["compositions.discard_maps"],
        "processes.simulate_recorded_ms": 1000 * _ratio(
            t["processes.simulate_recorded_s"], t["processes.simulate_recorded"]),
        "processes.reconstruct_ms": per_call_ms("processes.reconstruct"),
        "processes.exact_means_s": t["time.processes.exact_means"],
        "batch.setup_s": t["probe.batch_setup_s"],
        "batch.replicate_stages_per_s": _ratio(t["batch.replicate_stages"],
                                               t["batch.replicate_stages_s"]),
        "rng.draws": t["rng.draws"],
        "cli.out_bytes": sum(r.out_bytes for r in p.steps),
        "trace.unaccounted_frac": 1 - _ratio(t["root_s"], wall),
        # comparable with an untraced pass's wall_s: the probes are extra work
        "wall_s": wall - t["probe.batch_setup_s"],
    })
    return out
