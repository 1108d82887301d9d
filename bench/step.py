"""One step process of the benchmark.

    python bench/step.py [--trace DIR] cli ARGV...
    python bench/step.py [--trace DIR] lib condition_scan KIND LO HI

``cli`` runs ``descentlab.cli.main(ARGV)``; untraced CLI steps run
``python -m descentlab.cli`` directly instead.  ``lib`` calls the public
library function and prints its rows as CSV with floats at 17 significant
digits.  With ``--trace`` the package's functions are wrapped before the
call and the spans are written to DIR; after a plain ``simulate``, a
one-replicate ``batch_finals`` at the step's process and n is timed as the
batch engine's set-up probe.
"""

from __future__ import annotations

import sys
import time


def _lib(args: list[str]) -> int:
    import descentlab.diagnostics as diagnostics

    name, kind, lo, hi = args
    if name != "condition_scan":
        raise SystemExit(f"unknown library step {name!r}")
    rows = diagnostics.condition_scan(kind, range(int(lo), int(hi)))
    out = ["i,second_norm,third_norm,fourth_sup"]
    out += [f"{r.i},{r.second_norm:.17g},{r.third_norm:.17g},{r.fourth_sup:.17g}"
            for r in rows]
    sys.stdout.write("\n".join(out) + "\n")
    return 0


def _batch_probe(tracer, args: list[str]) -> None:
    import descentlab.batch as batch
    import tracing

    if args[0] != "simulate" or "--record" in args:
        return
    opts = dict(zip(args[1::2], args[2::2]))
    t0 = time.perf_counter_ns()
    batch.batch_finals.__wrapped__(opts["--process"], int(opts["--n"]), 1,
                                   int(opts.get("--seed", 0)))
    tracer.add(tracing.PROBE, "batch_setup", t0, time.perf_counter_ns())


def main(argv: list[str]) -> int:
    tracer = None
    if argv[:1] == ["--trace"]:
        import tracing

        tracer, argv = tracing.Tracer(argv[1]), argv[2:]
    mode, args = argv[0], argv[1:]
    t0 = time.perf_counter_ns()
    import descentlab.cli

    if tracer:
        tracer.add(tracing.IMPORT, "import", t0, time.perf_counter_ns())
        tracing.install(tracer)
    if mode == "cli":
        rc = descentlab.cli.main(args)
        sys.stdout.flush()
        if tracer and rc == 0:
            _batch_probe(tracer, args)
    elif mode == "lib":
        rc = _lib(args)
    else:
        raise SystemExit(f"unknown step mode {mode!r}")
    if tracer:
        tracer.flush()
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
