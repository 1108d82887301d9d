"""Spans and counts for the traced run, recorded from outside the package.

Inside a step process, ``install`` wraps the public functions of each
descentlab module (and rebinds every name that refers to them, such as the
ones ``cli`` imports), so each call leaves a span: id, parent id, layer,
function name, start and end on the system-wide monotonic clock.  Counts
are derived from call arguments and return values.  Spans stay in memory
and are written once per process; a forked worker of the CLI's process
pool writes its own when its outermost traced call returns.

In the benchmark process, ``summarize`` turns the span files of one step
into additive per-layer totals.  A span's self time is its duration minus
the part of its interval that its children cover; children may run in
worker processes and overlap each other.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("families", "compositions", "processes", "moments", "diagnostics",
          "batch", "cli")

# Called per draw, per decomposition part or per support point: a wrapper
# would cost a large share of what they do.  Their time stays with the caller.
HOT = frozenset({
    "processes.conditional_moment", "processes.gamma_factor",
    "processes.alpha_term", "diagnostics.normal_cdf",
})

# Private, but it is what a worker of ``simulate --threads N`` runs.
EXTRA = frozenset({"cli._sim_chunk"})

# Root spans that bench/step.py adds itself, not a wrapper.
IMPORT, PROBE = "import", "probe"


def _stages(kind, n: int) -> int:
    from descentlab.processes import parse_kind

    return max(0, n - parse_kind(kind).n_min)


def _simulate_counts(a, traj, seconds):
    out = {"rng.draws": 2 * len(traj.steps)}
    if traj.decomposition is not None:
        out["processes.simulate_recorded"] = 1
        out["processes.simulate_recorded_s"] = seconds
    return out


def _batch_counts(a, result, seconds):
    work = max(0, a["replicates"]) * _stages(a["kind"], a["n"])
    return {"batch.replicate_stages": work, "batch.replicate_stages_s": seconds,
            "rng.draws": 2 * work}


# name -> hook(bound arguments, return value, seconds) -> additive counts
HOOKS = {
    "families.descent_triangle":
        lambda a, tri, s: {"families.rows_built": tri.n_max - tri.n_min + 1},
    "families.triangle_row_pmf": lambda a, pmf, s: {"families.rows_used": 1},
    "compositions.enumerate_compositions":
        lambda a, comps, s: {"compositions.enumerated": len(comps)},
    "compositions.discard_map": lambda a, comp, s: {"compositions.discard_maps": 1},
    "processes.simulate": _simulate_counts,
    "batch.batch_finals": _batch_counts,
}


class Tracer:
    """Span recorder for one step process and the workers it forks."""

    def __init__(self, out_dir: str):
        self.out_dir = Path(out_dir)
        self.root_pid = os.getpid()
        self._reset()
        self.stack: list[str] = []
        self._base = 0
        os.register_at_fork(after_in_child=self._forked)

    def _reset(self):
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._ids = 0
        self._files = 0

    def _forked(self):
        self._reset()
        self._base = len(self.stack)  # the parent's open spans parent ours

    def add(self, layer: str, name: str, t0: int, t1: int) -> None:
        """A finished span opened outside any wrapper."""
        self._ids += 1
        parent = self.stack[-1] if self.stack else None
        self.spans.append((f"{self.pid}.{self._ids}", parent, layer, name, t0, t1))

    def wrap(self, layer: str, name: str, fn):
        hook = HOOKS.get(f"{layer}.{name}")
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._ids += 1
            sid = f"{self.pid}.{self._ids}"
            parent = self.stack[-1] if self.stack else None
            self.stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                self.stack.pop()
                self.spans.append((sid, parent, layer, name, t0, t1))
            if hook:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counts.update(hook(bound.arguments, result, (t1 - t0) / 1e9))
            if self.pid != self.root_pid and len(self.stack) == self._base:
                self.flush()
            return result

        return traced

    def flush(self) -> None:
        self._files += 1
        path = self.out_dir / f"spans-{self.pid}-{self._files}.json"
        path.write_text(json.dumps({"spans": self.spans, "counts": self.counts}))
        self.spans, self.counts = [], Counter()


def install(tracer: Tracer) -> None:
    """Wrap every traced function and rebind each name that refers to one."""
    wrapped = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"descentlab.{layer}")
        for name, obj in vars(mod).items():
            key = f"{layer}.{name}"
            if (name.startswith("_") and key not in EXTRA) or key in HOT:
                continue
            if isinstance(obj, type) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) == mod.__name__:
                wrapped[id(obj)] = tracer.wrap(layer, name, obj)
    for modname, mod in list(sys.modules.items()):
        if modname == "descentlab" or modname.startswith("descentlab."):
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, name, wrapped[id(obj)])


# ---------------------------------------------------------------------------
# benchmark side
# ---------------------------------------------------------------------------

def covered(intervals, lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, end = 0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans) -> dict[str, int]:
    """Span id -> duration minus the time its children cover."""
    children = defaultdict(list)
    for sid, parent, _, _, t0, t1 in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    return {sid: (t1 - t0) - covered(children[sid], t0, t1)
            for sid, _, _, _, t0, t1 in spans}


def load(trace_dir: Path) -> tuple[list, Counter]:
    spans, counts = [], Counter()
    for path in sorted(trace_dir.glob("spans-*.json")):
        doc = json.loads(path.read_text())
        spans += [tuple(s) for s in doc["spans"]]
        counts.update(doc["counts"])
    return spans, counts


def summarize(spans, counts) -> Counter:
    """Additive totals for one step: ``<layer>.self_s``, per-function
    ``calls.<layer>.<name>`` and ``time.<layer>.<name>``, the hooks' counts,
    the probe seconds, and ``root_s``, the time the step process's own root
    spans cover (the rest of its wall time is interpreter start and exit)."""
    out = Counter(counts)
    selfs = self_times(spans)
    ids = {s[0] for s in spans}
    for sid, parent, layer, name, t0, t1 in spans:
        seconds = (t1 - t0) / 1e9
        if layer == PROBE:
            out[f"probe.{name}_s"] += seconds
        else:
            out[f"{layer}.self_s"] += selfs[sid] / 1e9
            out[f"calls.{layer}.{name}"] += 1
            out[f"time.{layer}.{name}"] += seconds
        if parent is None or parent not in ids:
            out["root_s"] += seconds
    return out
