"""Command-line interface with deterministic, machine-readable output.

Every invocation with the same flags and master seed produces byte-identical
output regardless of --threads: replicate-level work is keyed by absolute
replicate index, aggregation is order-independent, floats render at 17
significant digits, and rationals render exactly as p/q, however long.
Counts serialize as decimal strings in JSON since they outgrow 64-bit
integers quickly.

Exit codes: 0 success, 2 bad flags, 3 nonzero reconstruction residual,
4 failed exact identity, 141 stdout closed by its reader before the output
ended (``| head``, say), with nothing on stderr.

Each command's preconditions and output have one owner, ``main``.  The
parser bounds every flag: ``--n`` at most ``N_MAX``, each ``--n-set`` entry
at most ``N_SET_MAX``, ``--n-set`` not empty, ``--replicates`` in
1..``REPLICATES_MAX``, ``--threads`` in 1..``THREADS_MAX``, ``--n-max`` in
1..``IDENTITY_BUDGET``, ``--seed`` in 0..``SEED_MAX`` (the streams take a
seed mod 2**64, so one outside would draw the runs of another).  ``main``
then refuses an ``--n`` below the family's first row (``triangle``,
``moments``) or the process's first stage (``simulate``, ``decompose``) and
opens ``--out``, before the command works (``cmd_*(args, out)``).  Each
refusal, and an ``--out`` or ``--record`` path that cannot be written, exits
2 with one ``error:`` line and no file left behind.  For either, ``-``
means stdout, and so does a path naming the file stdout writes to
(``/dev/stdout``, or the file stdout is redirected to), which is written
through stdout, never replaced.

Every table goes through one writer, ``_write``, a row at a time as the
rows arrive: CSV and TSV a line per row, JSON the bytes of
``json.dumps(doc, indent=2)``.  ``triangle`` writes each row as it is
rolled, so it holds two rows, not the table.  A recorded run's texts, its
audit row and its ``decompose`` table, come whole from
``processes._run_text``; this module only streams them.  ``simulate`` opens
its own ``--record`` file before any work (exit 2 if it and ``--out`` name
one file other than stdout), runs the replicates in fixed-size chunks and
streams the audit rows, CSV unless ``--format tsv``, in replicate order as
each chunk finishes; the table is written last, so an audit on stdout
comes whole before it.  The chunks go to a pool of ``--threads`` workers
only when the run's work in replicate-stages reaches a measured floor,
below which a pool costs more to start than it saves.

Start-up pays only for what the command runs.  Importing this module and
building the parser loads ``tags`` (the choices) and no library module;
each command imports its own modules when it runs (``triangle`` loads
``families``; ``moments`` adds ``moments``; ``clt`` and ``identities`` add
``diagnostics`` and no process layer; ``decompose`` and a recorded
``simulate`` load ``processes`` with ``compositions``, ``families`` and
``rng``; a plain ``simulate`` adds ``batch`` and numpy).  No command loads
``dataclasses`` or ``inspect``.  Importing this module also sets
``OPENBLAS_NUM_THREADS=1``, so numpy starts no idle BLAS thread pool here
or in the pool workers, unless ``OPENBLAS_NUM_THREADS``,
``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS`` is already set.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from .tags import IDENTITY_BUDGET, IDENTITY_CHECKS, Family, ProcessKind

# numpy's OpenBLAS starts a thread pool as it loads, which nothing here uses
# (the batch engine calls no BLAS routine).  One thread, set before anything
# can load numpy and inherited by pool workers, unless the caller chose.
if not any(v in os.environ for v in
           ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

RESIDUAL_EXIT = 3
IDENTITY_EXIT = 4
BROKEN_PIPE_EXIT = 141  # 128 + SIGPIPE, as a shell reports a process the signal ended

# ``triangle`` writes each row as it is rolled and holds two, so its bound is
# time and output size: derangements to n = 1000 write 704 MB in about 25 s
# on 2 vCPUs.  10^6 replicates is a second's work for the batch engine at
# n=32.  ``clt`` rolls rows too: reaching row n costs about n^3, and row 1200
# took 2.0-2.4 s on 2 vCPUs, so row 4000 takes about 1.5 minutes per family.
N_MAX = 1000
N_SET_MAX = 4000
REPLICATES_MAX = 1_000_000
THREADS_MAX = 256
SEED_MAX = 2**64 - 1  # the streams take a seed mod 2**64

# Replicates per simulate chunk, whatever --threads is: a recorded chunk
# holds its audit rows (about 27 KB each for derangements at n=100), a plain
# one about ten batch-engine arrays of its size.
RECORD_CHUNK = 64
PLAIN_CHUNK = 1 << 16

# Replicate-stages from which two workers pay for starting (0.17 s recorded,
# about 0.12 s plain on 2 vCPUs, against 7.5 us and 24 ns per replicate-stage).
# Plain involution runs at n = 32 broke even between 6 and 9 million.
RECORD_POOL_FLOOR = 50_000
PLAIN_POOL_FLOOR = 6_000_000


def _bounded_int(lo: int | None, hi: int):
    """An argparse type: an int in [lo, hi] (no lower bound when lo is None)."""
    def parse(text: str) -> int:
        value = int(text)
        if value > hi or (lo is not None and value < lo):
            bounds = f"at most {hi}" if lo is None else f"in {lo}..{hi}"
            raise argparse.ArgumentTypeError(f"must be {bounds}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _default_threads() -> int:
    """The processors this process may run on, at most ``THREADS_MAX``.

    A cpuset or ``taskset`` can leave fewer than ``os.cpu_count`` reports;
    that count serves only where the platform cannot tell.
    """
    if hasattr(os, "sched_getaffinity"):
        return min(len(os.sched_getaffinity(0)), THREADS_MAX)
    return min(os.cpu_count() or 1, THREADS_MAX)


def _fmt_float(x: float) -> str:
    return format(x, ".17g")


def _fmt_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return _fmt_float(v)
    return str(v)


def _write(out, fmt: str, columns: list[str] | None, rows, trailer: dict | None = None,
           head: dict | None = None) -> None:
    """Write a table to ``out`` in ``fmt``, each row as it arrives.

    CSV and TSV: the header, one line per row, then ``trailer`` as one JSON
    line.  JSON: the bytes of ``json.dumps({**head, "rows": [...],
    **trailer}, indent=2)`` and a newline, every cell a string; ``head`` is
    ``{"columns": columns}`` unless given.  A row of the wrong width raises
    ``ValueError``; with ``columns`` None (JSON only) rows may be of any width.
    """
    def cells(row):
        if columns is not None and len(row) != len(columns):
            raise ValueError(f"row of {len(row)} cells for {len(columns)} columns")
        return row

    if fmt == "json":
        doc = json.dumps({**(head or {"columns": columns}), "rows": [], **(trailer or {})},
                         indent=2)
        start, end = doc.split('"rows": []', 1)
        out.write(start + '"rows": [')
        lead = "\n"
        for row in rows:
            # a non-str cell's text (a number, a ratio, true or false) needs no escaping
            out.write(lead + "    [\n" + ",\n".join(
                "      " + (json.dumps(c) if type(c) is str else f'"{_fmt_cell(c)}"')
                for c in cells(row)) + "\n    ]")
            lead = ",\n"
        out.write(("]" if lead == "\n" else "\n  ]") + end + "\n")
        return
    sep = "\t" if fmt == "tsv" else ","
    out.write(sep.join(columns) + "\n")
    for row in rows:
        # an int, most cells by far, is its own ``str`` (a call per cell costs
        # the triangle's CSV about 8%)
        out.write(sep.join([str(c) if type(c) is int else _fmt_cell(c)
                            for c in cells(row)]) + "\n")
    if trailer is not None:
        out.write(json.dumps(trailer) + "\n")


@contextlib.contextmanager
def _atomic_file(path: str):
    """A text file at ``path`` that is either complete or absent.

    It is written beside the target under a temporary name and renamed over
    the target when the block ends; if the block raises, the temporary file
    is removed and the target is left as it was.  A symlink is followed, so
    the file it names is replaced and the link is kept.  A device or a pipe
    (``/dev/null``, say) cannot be replaced and is written in place.  A
    path that cannot be opened for writing raises ``ValueError`` naming it.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with _open_for_writing(path, "w", path) as fh:
            yield fh
        return
    target = os.path.realpath(path)
    directory, name = os.path.split(target)
    tmp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
    fh = _open_for_writing(tmp, "x", path)
    try:
        with fh:
            yield fh
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _open_for_writing(file: str, mode: str, path: str):
    """``open(file, mode)`` as text, reporting a failure as a bad ``path``."""
    try:
        return open(file, mode, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from None


def _is_stdout(path: str) -> bool:
    """Whether ``path`` is ``-`` or names the file stdout writes to
    (``/dev/stdout``, or the file a shell redirected stdout to), which a
    second handle would write over and a rename would replace."""
    if path == "-":
        return True
    try:
        return os.path.samestat(os.stat(path), os.fstat(sys.stdout.fileno()))
    except (OSError, ValueError):  # no such file, or a stdout with no descriptor
        return False


def _open_out(path: str | None):
    if path is None or _is_stdout(path):
        return contextlib.nullcontext(sys.stdout)
    return _atomic_file(path)


def _n_set(text: str) -> list[int]:
    """An argparse type: the comma-separated row sizes of ``--n-set``, each
    at most ``N_SET_MAX``, at least one."""
    ns = [_bounded_int(None, N_SET_MAX)(tok) for tok in text.split(",") if tok]
    if not ns:
        raise argparse.ArgumentTypeError("must name at least one row size")
    return ns


_n_set.__name__ = "int list"  # argparse names the type in "invalid int list value"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_triangle(args, out) -> int:
    from .families import parse_family, rolled_rows

    fam = parse_family(args.family)
    rows = rolled_rows(fam, range(fam.n_min, args.n + 1))
    if args.format == "json":  # one list of counts per row
        _write(out, args.format, None, (row for _, row in rows),
               head={"family": fam.value, "n_min": fam.n_min, "k_min": fam.k_min})
    else:
        _write(out, args.format, ["n", "k", "count"],
               ((n, k, c) for n, row in rows for k, c in enumerate(row, fam.k_min)))
    return 0


def _sim_chunk(payload) -> tuple[dict[int, int], list[list[str]]]:
    kind_tag, n, seed, start, count, record = payload
    if not record:
        from .batch import batch_finals  # numpy only for plain runs

        return batch_finals(kind_tag, n, count, seed, start_index=start), []
    from .processes import _run_text, parse_kind, simulate

    kind = parse_kind(kind_tag)
    counts, audit = {}, []
    for r in range(start, start + count):
        # one recorded run per row, as ``processes`` prints it; its
        # ``PartRecord``s are never read, so never built
        traj = simulate(kind, n, seed, record=True, stream_index=r)
        composition, (*_, xs, alphas, gammas), residual = _run_text(traj)
        counts[traj.final] = counts.get(traj.final, 0) + 1
        audit.append([str(r), str(traj.final), composition,
                      ";".join(xs), ";".join(alphas), ";".join(gammas), residual])
    return counts, audit


def _pooled(record: bool, replicates: int, stages: int, threads: int) -> bool:
    """Whether ``simulate`` runs its chunks in a worker pool: with more than
    one thread and at least the floor's work (``stages``: updates per run)."""
    return threads > 1 and replicates * stages >= (
        RECORD_POOL_FLOOR if record else PLAIN_POOL_FLOOR)


def cmd_simulate(args, out) -> int:
    from .processes import parse_kind  # loaded before the pool forks: about 4% less peak RSS

    kind = parse_kind(args.process)
    record = args.record is not None
    chunk = RECORD_CHUNK if record else PLAIN_CHUNK
    parts = max(args.threads, -(-args.replicates // chunk))
    bounds = [args.replicates * i // parts for i in range(parts + 1)]
    payloads = [(kind.value, args.n, args.seed, lo, hi - lo, record)
                for lo, hi in zip(bounds, bounds[1:]) if hi > lo]
    files = [f for f in (args.record, args.out) if f is not None and not _is_stdout(f)]
    if len(files) == 2 and os.path.realpath(files[0]) == os.path.realpath(files[1]):
        raise ValueError(f"--record and --out name the same file {args.out}")
    sep = "\t" if args.format == "tsv" else ","
    counts: dict[int, int] = {}
    bad = 0
    with contextlib.ExitStack() as stack:
        if record:
            audit = stack.enter_context(_open_out(args.record))
            audit.write(sep.join(["replicate", "final", "composition",
                                  "differences", "alphas", "gammas",
                                  "residual"]) + "\n")
        if _pooled(record, args.replicates, args.n + 1 - kind.start[0],
                   args.threads):
            from concurrent.futures import ProcessPoolExecutor

            pool = stack.enter_context(ProcessPoolExecutor(
                args.threads, initializer=sys.set_int_max_str_digits,
                initargs=(0,)))
            # leaving early (a closed stdout, say) drops the queued chunks
            stack.callback(pool.shutdown, cancel_futures=True)
            results = pool.map(_sim_chunk, payloads)
        else:
            results = map(_sim_chunk, payloads)
        for c, rows in results:
            for v, k in c.items():
                counts[v] = counts.get(v, 0) + k
            for row in rows:
                audit.write(sep.join(row) + "\n")
                bad += row[-1] != "0"
    # last, and after the audit is closed: the two may share one device
    _write(out, args.format, ["value", "count"], ((v, counts[v]) for v in sorted(counts)))
    if bad:
        print(f"error: {bad} replicates with nonzero residual", file=sys.stderr)
        return RESIDUAL_EXIT
    return 0


def cmd_moments(args, out) -> int:
    from .families import parse_family
    from .moments import moment_table

    fam = parse_family(args.family)
    rows = moment_table(fam, range(fam.n_min, args.n + 1))
    asym_cols = sorted(rows[0].asymptotics)
    _write(out, args.format, ["n", "mean", "mean_float", "variance", "variance_float",
                              "third_central", "fourth_central"] + asym_cols,
           ((rep.n, rep.mean, float(rep.mean), rep.variance, float(rep.variance),
             rep.third_central, rep.fourth_central, *[asym[c] for c in asym_cols])
            for rep, asym in rows))
    return 0


def cmd_clt(args, out) -> int:
    from .diagnostics import clt_table

    res = clt_table(args.family, args.n_set, min_n=args.min_n, fit_min_n=args.fit_min)
    fit = {
        "slope": _fmt_float(res.slope),
        "intercept": _fmt_float(res.intercept),
        "max_scaled": _fmt_float(res.max_scaled),
        "skipped": list(res.skipped),
    }
    _write(out, args.format, ["n", "mean", "sd", "K", "scaled"], res.records, {"fit": fit})
    return 0


def cmd_identities(args, out) -> int:
    from .diagnostics import identity_check

    which = args.check.replace("-", "_")
    reports = [identity_check(which, n) for n in range(1, args.n_max + 1)]
    _write(out, args.format, ["check", "n", "lhs", "rhs", "holds", "offset_used"], reports)
    failures = sum(not rep.holds for rep in reports)
    if failures:
        print(f"error: {failures} identity failures", file=sys.stderr)
        return IDENTITY_EXIT
    return 0


def cmd_decompose(args, out) -> int:
    from .processes import _run_text, simulate

    traj = simulate(args.process, args.n, seed=args.seed, record=True)
    composition, columns, residual = _run_text(traj)
    run = {"process": traj.kind.value, "n": traj.n, "seed": traj.seed, "final": traj.final,
           "composition": composition, "residual": residual}
    _write(out, args.format, ["part", "position", "size", "stage", "x", "alpha", "gamma"],
           ((i, *part) for i, part in enumerate(zip(*columns), start=1)), {"run": run})
    return 0 if residual == "0" else RESIDUAL_EXIT


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="descentlab",
        description="exact descent-statistic triangles, jump processes, "
        "and normal-approximation diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("csv", "json", "tsv"), default="csv")
        p.add_argument("--seed", type=_bounded_int(0, SEED_MAX), default=0,
                       help="64-bit master seed")
        p.add_argument("--threads", type=_bounded_int(1, THREADS_MAX),
                       default=_default_threads())
        p.add_argument("--out", default=None, help="output path (default stdout)")

    families = tuple(f.value for f in Family)
    processes = tuple(k.value for k in ProcessKind)

    p = sub.add_parser("triangle", help="emit triangle rows")
    p.add_argument("--family", choices=families, required=True)
    p.add_argument("--n", type=_bounded_int(None, N_MAX), required=True)
    common(p)
    p.set_defaults(func=cmd_triangle, first="row")

    p = sub.add_parser("simulate", help="Monte Carlo runs of a jump process")
    p.add_argument("--process", choices=processes, required=True)
    p.add_argument("--n", type=_bounded_int(None, N_MAX), required=True)
    p.add_argument("--replicates", type=_bounded_int(1, REPLICATES_MAX),
                   default=10_000)
    p.add_argument("--record", default=None,
                   help="write a per-replicate decomposition audit file")
    common(p)
    p.set_defaults(func=cmd_simulate, first="stage")

    p = sub.add_parser("moments", help="exact moment table with asymptotics")
    p.add_argument("--family", choices=families, required=True)
    p.add_argument("--n", type=_bounded_int(None, N_MAX), required=True)
    common(p)
    p.set_defaults(func=cmd_moments, first="row")

    p = sub.add_parser("clt", help="Kolmogorov distances and rate fit")
    p.add_argument("--family", choices=families, required=True)
    p.add_argument("--n-set", type=_n_set, required=True, help="comma-separated row sizes")
    p.add_argument("--min-n", type=int, default=10)
    p.add_argument("--fit-min", type=int, default=20)
    common(p)
    p.set_defaults(func=cmd_clt)

    p = sub.add_parser("identities", help="exact identity checks")
    p.add_argument(
        "--check",
        choices=tuple(c.replace("_", "-") for c in IDENTITY_CHECKS),
        required=True,
    )
    p.add_argument("--n-max", type=_bounded_int(1, IDENTITY_BUDGET), required=True)
    common(p)
    p.set_defaults(func=cmd_identities)

    p = sub.add_parser("decompose", help="dump one recorded trajectory")
    p.add_argument("--process", choices=processes, required=True)
    p.add_argument("--n", type=_bounded_int(None, N_MAX), required=True)
    common(p)
    p.set_defaults(func=cmd_decompose, first="stage")

    return parser


def main(argv: list[str] | None = None) -> int:
    # exact values print whole, past CPython's default limit of 4300 digits
    # on an int-to-text conversion; pool workers lift it too
    sys.set_int_max_str_digits(0)
    args = build_parser().parse_args(argv)
    try:
        # --n must reach a family's first row or a process's first stage
        first = getattr(args, "first", None)
        if first is not None:
            from .families import _reaching

            _reaching(args.family if first == "row" else args.process, args.n, first)
        with _open_out(args.out) as out:
            return args.func(args, out)
    except ValueError as exc:  # domain errors from bad flag values
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader closed stdout early (``| head``)
        # what is still buffered goes to the null device, so the
        # interpreter's final flush stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BROKEN_PIPE_EXIT


if __name__ == "__main__":
    sys.exit(main())
