"""The benchmark's workloads: each is a list of steps, a pure function of the
workload seed.

A step is one fresh process, because a CLI user pays for the interpreter,
the imports and cold caches on every call.  CLI steps run
``python -m descentlab.cli <argv>``; library steps run ``bench/step.py``,
which calls a public library function.  The seed only chooses the master
seeds passed to ``--seed``: the sizes, and so the work per pass, do not
depend on it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 0

# ``--record`` takes this placeholder; the harness substitutes a fresh path.
AUDIT = "{audit}"

# Why each was chosen is recorded in BENCHMARK.json.
WORKLOADS = ("exact_tables", "mc_batch", "recorded_audit")


@dataclass(frozen=True)
class Step:
    """One process of a pass.

    ``argv`` follows ``descentlab`` for CLI steps; for library steps it is
    the argument list of ``bench/step.py lib``.  ``twin`` names an earlier
    step of the same pass whose digest this step must reproduce (the same
    command at another ``--threads``).
    """

    name: str
    argv: tuple[str, ...]
    lib: bool = False
    replicates: int = 0
    twin: str | None = None

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def records(self) -> bool:
        return AUDIT in self.argv

    def digest_key(self) -> str:
        """The step's identity for expected digests: argv without
        ``--threads``, which must not change any output byte."""
        out, skip = [], False
        for tok in self.argv:
            if skip:
                skip = False
            elif tok == "--threads":
                skip = True
            else:
                out.append(tok)
        return ("lib " if self.lib else "") + " ".join(out)


def _seed(rng: random.Random) -> int:
    return rng.randrange(1 << 32)


def _simulate(name, seed, process, n, replicates, threads, record=False,
              twin=None):
    argv = ["simulate", "--process", process, "--n", str(n),
            "--replicates", str(replicates), "--seed", str(seed),
            "--threads", str(threads)]
    if record:
        argv += ["--record", AUDIT]
    return Step(name, tuple(argv), replicates=replicates, twin=twin)


def _twins(prefix, seed, process, n, replicates, threads, record=False):
    """The same run at --threads 1 and at ``threads``."""
    one = _simulate(f"{prefix}.t1", seed, process, n, replicates, 1, record)
    return [one, _simulate(f"{prefix}.t2", seed, process, n, replicates,
                           threads, record, twin=one.name)]


def _decompose(name, seed, process, n):
    argv = ("decompose", "--process", process, "--n", str(n), "--seed", str(seed))
    return Step(name, argv, replicates=1)


def steps(workload: str, seed: int, threads: int = 2) -> list[Step]:
    """The steps of one pass of ``workload``.

    ``threads`` is the parallel width of the two-thread steps; the caller
    caps it at the machine's processor count.
    """
    rng = random.Random(seed)
    if workload == "exact_tables":
        return [
            Step("moments.derangement",
                 ("moments", "--family", "derangement", "--n", "200")),
            Step("clt.involution",
                 ("clt", "--family", "involution", "--n-set", "16,32,64,128,256,400")),
            Step("identities.stan2",
                 ("identities", "--check", "stan2", "--n-max", "20")),
            Step("identities.derangement_sum",
                 ("identities", "--check", "derangement-sum", "--n-max", "20")),
            _decompose("decompose.derangement", _seed(rng), "derangement", 300),
            Step("condition_scan.involution",
                 ("condition_scan", "involution", "10", "121"), lib=True),
        ]
    if workload == "mc_batch":
        return [
            *_twins("kernel", _seed(rng), "involution", 32, 1_000_000, threads),
            _simulate("readme.derangement", _seed(rng), "derangement", 4,
                      900_000, threads),
            _simulate("setup.derangement", _seed(rng), "derangement", 600, 10_000, 1),
            _simulate("setup.involution", _seed(rng), "involution", 600, 10_000, 1),
        ]
    if workload == "recorded_audit":
        return [
            *(_simulate(f"recorded.{p}", _seed(rng), p, 100, 400, 1, record=True)
              for p in ("involution", "derangement", "fibonacci", "excedance")),
            _decompose("decompose.derangement", _seed(rng), "derangement", 30),
            # 2000 replicates is the CLI's threshold for a recorded worker pool.
            *_twins("pool", _seed(rng), "derangement", 12, 2_000, threads,
                    record=True),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
