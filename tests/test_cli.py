"""CLI surface: flags, formats, exit codes, and the determinism contract."""

import json
import subprocess
import sys
import time

import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from descentlab.processes import ProcessKind

CLI = [sys.executable, "-m", "descentlab.cli"]


def run_cli(*argv, check=True):
    proc = subprocess.run(
        CLI + list(argv), capture_output=True, text=True
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr}")
    return proc


def test_triangle_involution_golden_row():
    out = run_cli("triangle", "--family", "involution", "--n", "6").stdout
    lines = out.strip().split("\n")
    assert lines[0] == "n,k,count"
    last_row = [l for l in lines if l.startswith("6,")]
    assert [l.split(",")[2] for l in last_row] == ["1", "9", "28", "28", "9", "1"]


def test_triangle_derangement_golden_row():
    out = run_cli("triangle", "--family", "derangement", "--n", "7").stdout
    rows = [l for l in out.strip().split("\n") if l.startswith("7,")]
    assert [r.split(",")[2] for r in rows] == ["32", "392", "896", "480", "54", "0"]


def test_triangle_fibonacci_trivial():
    out = run_cli("triangle", "--family", "fibonacci", "--n", "1").stdout
    assert out == "n,k,count\n1,0,1\n"


def test_triangle_json_decimal_strings():
    out = run_cli("triangle", "--family", "derangement", "--n", "25",
                  "--format", "json").stdout
    doc = json.loads(out)
    assert doc["family"] == "derangement"
    assert all(isinstance(c, str) for row in doc["rows"] for c in row)
    # entries beyond 2**64 survive exactly
    big = max(int(c) for c in doc["rows"][-1])
    assert big > 2**64


# sha256 of the output of ``triangle --family F`` at ``--n 500`` (CSV), and at
# ``--n 60`` with ``--format json`` and with ``--format tsv``, taken when the
# command still built the whole table before writing it.
TRIANGLE_SHA256 = {
    "eulerian": ("22d1d9f2f8f37dd21311f398167be71b21d79683c137bf5718e7595a1c471cf0",
                 "4b625cbb6d469496eeecf161dd806374ba9445a534316951e5d7dc1e1ab9442a",
                 "1e0051880e65ff323d37b6f96aa2f366e3d47126391e24b1d65192f9c1b2e5b5"),
    "involution": ("3ba7928240a90b09c6d22d54740b95395a62161bcd4e185040b289738072633e",
                   "a5ae59e417d2b98c144a3fca4a72d32b9b212574c5ae240f54d7f844caa95204",
                   "f0dc4e03dd26e6a8f62a1caa37262bdc76d847b7c12a2f27c317930c2bfe7990"),
    "derangement": ("0d0ad7dcb456228df5387a2bd1dd8643e424c19371025c09cf2921a9ab20b17b",
                    "b8f9c6c9b37fc34ac8e9ef7b6acc50d74fd15d84222bf3734c6b5ca361105796",
                    "af64eeea44984bedf986fc72ad2d4205f3e9681b3187caf7316db4b6321c0955"),
    "excedance": ("cf5b6735adbe910c36663f7d5307fcc3f7315df46a4c63123f4d37eabce1f9db",
                  "8d1f2b37f0d84fe7a58bf63fd1725ef8bd3ef4d66aedfffc4f8f54d2213b2599",
                  "178f27aa2653a0dc336bc37d84783ef08d4f73cc53ffe7d7b3920fa33556438c"),
    "fibonacci": ("104a1b66366ad0a786059b5bde8700617105722867963726359c5db2a173264d",
                  "2ccd24fb30098788b51d20b109c253471483fe0bea86023d612137edda744237",
                  "839e6b83f4d3bb5155e8ca4bfb3c0de6d2acd1e6b2a0d3b175db045a21fd734d"),
}


@pytest.mark.parametrize("family", list(TRIANGLE_SHA256))
def test_triangle_output_is_pinned(family, tmp_path):
    import hashlib

    from descentlab import cli

    path = tmp_path / "tri"
    for pin, argv in zip(TRIANGLE_SHA256[family], (["--n", "500"],
                                                   ["--n", "60", "--format", "json"],
                                                   ["--n", "60", "--format", "tsv"])):
        assert cli.main(["triangle", "--family", family, *argv, "--out", str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == pin, argv


# sha256 of the output of each command with ``--format json`` and with
# ``--format tsv``, taken when each command built its whole table before
# writing it.  ``clt ... --n-set 1`` and ``decompose ... --n 2`` have no rows.
OUTPUT_SHA256 = {
    "moments --family derangement --n 60":
        ("42c6a9491ea1b6a28b527e96de30a6fbc80dd8809c4fb04f70125681f4658698",
         "e5427a94b0fc212d0dfa6118219f50d6c54c5aa92cd4ddbeec46af05823802a5"),
    "clt --family involution --n-set 16,32,64,128":
        ("ad31077e164647a8d54fc31300eb33640f510827b6b76cd00f2ee76f8b930305",
         "84515f7cad07db77c2ac2951ae5f8f734254173505cb5c6cd6dd1284438c160a"),
    "clt --family derangement --n-set 1":
        ("d25912e49b671a12ea6e35c3960c34ba0f7585f7ff79067b7695f7961f096d5b",
         "2d49f6d22f26f122c7875d7bae27fe8358df0eb55ab4cbdae78af1ff5c89a579"),
    "identities --check stan1 --n-max 12":
        ("42c25b03ea40a3f8b61825cbf2e8a823c0ce90ef8b651d079732020e1b35a6b7",
         "96edd66a5f3b3869750115111111c04392b7c15b026226f8dc621d224ba64d0c"),
    "decompose --process derangement --n 30 --seed 7":
        ("a8e938864701e74230df6cd5d9b0fee7a09f1545540d1e7728dee657169a6e21",
         "3686fb44419a446154cf99a75bd6e30ef633326a49fdf74c254d9ee6ee455055"),
    "decompose --process excedance --n 2":
        ("bd5e8a4619d1025fd458a16f18618738116091d425f55744a8434b09b14bb103",
         "4022f1a9f0cb34585f44b64d9a08048131d14668f6822bcf33d2fa409286aac3"),
    "simulate --process derangement --n 4 --replicates 5000 --seed 1":
        ("5e6b9b79ed4ed2b82bc9013e6f83428c3960c143164aa4fa6b162334024ab26d",
         "c89546ae6e0fbee2bc0ed4eca4ffd6b2eaa3478ca667bd5b44cb889bb23f496b"),
}


@pytest.mark.parametrize("command", list(OUTPUT_SHA256))
def test_table_output_is_pinned(command, tmp_path):
    import hashlib

    from descentlab import cli

    path = tmp_path / "out"
    for fmt, pin in zip(("json", "tsv"), OUTPUT_SHA256[command]):
        assert cli.main([*command.split(), "--format", fmt, "--out", str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == pin, fmt


def test_a_triangle_that_fails_midway_leaves_its_out_file_as_it_was(tmp_path, monkeypatch):
    from descentlab import cli, families

    def failing(family, n, before, last):
        if n == 50:
            raise ArithmeticError("row 50")
        return next_row(family, n, before, last)

    next_row = families._next_row
    monkeypatch.setattr(families, "_next_row", failing)
    path = tmp_path / "tri.csv"
    path.write_text("earlier run\n")
    for fmt in ("csv", "json"):
        with pytest.raises(ArithmeticError, match="row 50"):
            cli.main(["triangle", "--family", "derangement", "--n", "80",
                      "--format", fmt, "--out", str(path)])
        assert path.read_text() == "earlier run\n"
        assert [p.name for p in tmp_path.iterdir()] == ["tri.csv"]


def test_bad_flags_exit_2():
    proc = run_cli("triangle", "--family", "nope", "--n", "4", check=False)
    assert proc.returncode == 2
    proc = run_cli("triangle", "--family", "derangement", "--n", "1", check=False)
    assert proc.returncode == 2 and "derangement" in proc.stderr
    assert proc.stdout == ""


def test_family_and_process_choices_are_the_enum_values():
    import argparse

    from descentlab.cli import build_parser
    from descentlab.families import Family
    from descentlab.processes import ProcessKind

    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    expected = {"family": [f.value for f in Family],
                "process": [k.value for k in ProcessKind]}
    seen = set()
    for command, sub in subparsers.choices.items():
        for action in sub._actions:
            if action.dest in expected:
                assert list(action.choices) == expected[action.dest], command
                seen.add(action.dest)
    assert seen == set(expected)


# sha256 of each --help text at an 80-column width (CPython 3.11's
# argparse): the choice lists come from ``tags``, so a choice, flag or help
# line that drifts shows here
HELP_SHA256 = {
    "": "158d18abe427e85468d601144133794b46a307505b3b71f4d32932aa9b33dc5d",
    "triangle": "9f4596c72994c3b112f35a6b7748cd5b280371d0046639a049536fd756b77599",
    "simulate": "54fd285a4ba2e293ced369234a9bd9d4aaf90960d68beb35f163fe9c93a3ec97",
    "moments": "3f5d7754c79721bbc46535d9852db4d8f086aaca3befa42f81b50ba5f145b446",
    "clt": "26fe7cfcbe25be50d5abf313731a3de60fd5d67dc39a424caaea16c1125cecbe",
    "identities": "689ed16e264ef330517c16921cd8acad5f131072c9b174d49fc438159fdec777",
    "decompose": "92783f4fb53e76bf4f6fd174d20bcf28b0706f6e111a33a30dac114938f99d25",
}


@pytest.mark.parametrize("command", sorted(HELP_SHA256))
def test_help_text_is_pinned(command, monkeypatch, capsys):
    import hashlib

    from descentlab.cli import main

    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"] if command else ["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == HELP_SHA256[command], text


def test_threads_default_to_the_processors_this_process_may_run_on(monkeypatch):
    import os

    from descentlab.cli import THREADS_MAX, build_parser

    def threads():
        return build_parser().parse_args(["triangle", "--family", "eulerian",
                                          "--n", "3"]).threads

    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 9}, raising=False)
    assert threads() == 3  # pinned to three of the 64
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(300)))
    assert threads() == THREADS_MAX
    monkeypatch.delattr(os, "sched_getaffinity")
    assert threads() == 64  # where the platform cannot tell


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.mark.parametrize("module, preset, expected", [
    ("descentlab.cli", {}, {"OPENBLAS_NUM_THREADS": "1"}),
    ("descentlab.cli", {"OPENBLAS_NUM_THREADS": "3"}, {"OPENBLAS_NUM_THREADS": "3"}),
    ("descentlab.cli", {"OMP_NUM_THREADS": "3"}, {"OMP_NUM_THREADS": "3"}),
    ("descentlab", {}, {}),
])
def test_the_cli_caps_blas_threads_unless_the_caller_chose(module, preset, expected):
    import os

    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS} | preset
    code = (f"import json, os, {module}; "
            f"print(json.dumps({{v: os.environ[v] for v in {BLAS_VARS!r} if v in os.environ}}))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert json.loads(proc.stdout) == expected


def test_simulate_matches_exact_pmf():
    proc = run_cli(
        "simulate", "--process", "derangement", "--n", "4",
        "--replicates", "900000", "--seed", "1", "--threads", "2",
    )
    lines = proc.stdout.strip().split("\n")[1:]
    counts = {int(l.split(",")[0]): int(l.split(",")[1]) for l in lines}
    total = sum(counts.values())
    assert total == 900000
    import math

    for value, prob in ((1, 4 / 9), (2, 4 / 9), (3, 1 / 9)):
        sigma = math.sqrt(prob * (1 - prob) * total)
        assert abs(counts[value] - prob * total) < 4 * sigma


def test_simulate_fibonacci_two_values():
    proc = run_cli("simulate", "--process", "fibonacci", "--n", "2",
                   "--replicates", "10000")
    lines = proc.stdout.strip().split("\n")[1:]
    assert sorted(int(l.split(",")[0]) for l in lines) == [0, 1]


def test_simulate_record_audit(tmp_path):
    audit = tmp_path / "audit.csv"
    proc = run_cli(
        "simulate", "--process", "derangement", "--n", "24",
        "--replicates", "300", "--seed", "9", "--record", str(audit),
    )
    assert proc.returncode == 0
    lines = audit.read_text().strip().split("\n")
    header = lines[0].split(",")
    assert header == ["replicate", "final", "composition", "differences",
                      "alphas", "gammas", "residual"]
    assert len(lines) == 301
    assert all(l.rsplit(",", 1)[1] == "0" for l in lines[1:])
    comp = lines[1].split(",")[2]
    assert set(comp) <= {"1", "2"} and sum(int(c) for c in comp) == 22


def test_an_audit_sharing_stdout_comes_whole_before_the_table():
    proc = run_cli("simulate", "--process", "involution", "--n", "16",
                   "--replicates", "500", "--threads", "1", "--record", "/dev/stdout")
    lines = proc.stdout.split("\n")
    assert lines[0].startswith("replicate,") and lines[501] == "value,count"


# sha256 of the audit bytes followed by the stdout bytes of
# ``simulate --process KIND --n 40 --replicates 50 --seed 2021 --threads 1
# --record AUDIT``, recorded with the term-by-term reconstruction, so that
# they pin the audit bytes through any change to how the residual is found.
AUDIT_DIGESTS = {
    "involution": "b7971fc2ef36ed7ff2d53791d924050ade8cfe6fca0db06e64ce1e3732011bf2",
    "derangement": "21c74dbe6d83c563fcb1b6e5dd27f601f2e44cda7776b9076b776b04c4c13daa",
    "fibonacci": "e5fcd53caeebeb5db0d1b1d8858398b7cef6ff88663a437e8223addfb9c99c81",
    "excedance": "f08817af77e6bfe814c55a816251e22458552b7e3ebaae954f95880981c195d0",
}


@pytest.mark.parametrize("kind", sorted(AUDIT_DIGESTS))
def test_recorded_audit_bytes_are_pinned(kind, tmp_path):
    import hashlib

    audit = tmp_path / "audit.csv"
    proc = run_cli("simulate", "--process", kind, "--n", "40", "--replicates", "50",
                   "--seed", "2021", "--threads", "1", "--record", str(audit))
    digest = hashlib.sha256(audit.read_bytes() + proc.stdout.encode()).hexdigest()
    assert digest == AUDIT_DIGESTS[kind]


def test_record_dash_writes_the_audit_to_stdout_before_the_table(tmp_path):
    import os
    from pathlib import Path

    import descentlab

    argv = ["simulate", "--process", "fibonacci", "--n", "20", "--replicates", "100",
            "--seed", "3", "--threads", "1", "--record"]
    audit = tmp_path / "audit.csv"
    table = run_cli(*argv, str(audit)).stdout
    # run where a file named "-" would land, with the package still found
    env = dict(os.environ, PYTHONPATH=str(Path(descentlab.__file__).parents[1]))
    proc = subprocess.run(CLI + argv + ["-"], capture_output=True, text=True,
                          cwd=tmp_path, env=env, check=True)
    assert proc.stdout == audit.read_text() + table
    assert [p.name for p in tmp_path.iterdir()] == ["audit.csv"]


STAN1 = ["identities", "--check", "stan1", "--n-max", "2"]
RECORDED = ["simulate", "--process", "involution", "--n", "30", "--replicates", "300",
            "--seed", "4", "--threads", "1"]


@pytest.mark.parametrize("argv, flags", [
    (STAN1, ["--out", "/dev/stdout"]),
    (STAN1, ["--out", "{file}"]),
    (RECORDED, ["--record", "-", "--out", "/dev/stdout"]),
    (RECORDED, ["--record", "/dev/stdout"]),
    (RECORDED, ["--record", "{file}", "--out", "-"]),
])
def test_a_path_naming_stdout_is_written_as_stdout(argv, flags, tmp_path):
    # stdout appends to a file: a path that names that file, as /dev/stdout
    # or by its own name, is written through stdout, not renamed over it
    expected = run_cli(*argv, *[f if f.startswith("--") else "-" for f in flags]).stdout
    path = tmp_path / "f"
    path.write_text("earlier run\n")
    with open(path, "a") as fh:
        subprocess.run(CLI + argv + [f.replace("{file}", str(path)) for f in flags],
                       stdout=fh, check=True)
    assert path.read_text() == "earlier run\n" + expected
    assert [p.name for p in tmp_path.iterdir()] == ["f"]


def test_a_closed_stdout_ends_the_command_quietly():
    from descentlab.cli import BROKEN_PIPE_EXIT

    # the table is megabytes long, far more than a pipe buffers
    proc = subprocess.Popen(CLI + ["triangle", "--family", "derangement", "--n", "300"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"n,k,count\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (BROKEN_PIPE_EXIT, b"")


def test_a_closed_stdout_stops_a_pooled_simulate():
    from descentlab.cli import BROKEN_PIPE_EXIT

    # about 20 s of work in all, queued as hundreds of chunks
    proc = subprocess.Popen(CLI + ["simulate", "--process", "derangement", "--n", "60",
                                   "--replicates", "50000", "--threads", "2",
                                   "--record", "-"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"replicate,final,")
    proc.stdout.close()
    closed = time.monotonic()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (BROKEN_PIPE_EXIT, b"")
    assert time.monotonic() - closed < 5


@pytest.mark.parametrize("threads", ["1", "2", "3"])
def test_determinism_across_threads(tmp_path, threads):
    audit = tmp_path / f"audit_{threads}.csv"
    proc = run_cli(
        "simulate", "--process", "involution", "--n", "16",
        "--replicates", "60000", "--seed", "7", "--threads", threads,
        "--record", str(audit),
    )
    if not hasattr(test_determinism_across_threads, "ref"):
        test_determinism_across_threads.ref = (proc.stdout, audit.read_bytes())
    ref_out, ref_audit = test_determinism_across_threads.ref
    assert proc.stdout == ref_out
    assert audit.read_bytes() == ref_audit


def test_pool_floors_count_replicate_stages():
    from descentlab.cli import _pooled
    from descentlab.processes import ProcessKind

    def pooled(record, process, n, replicates, threads=2):
        stages = n + 1 - ProcessKind(process).start[0]
        return _pooled(record, replicates, stages, threads)

    # the benchmark's recorded pool twin and its README-sized plain run
    assert not pooled(True, "derangement", 12, 2_000)
    assert not pooled(False, "derangement", 4, 900_000)
    # the benchmark's kernel twin, and the pooled runs of the tests above
    assert pooled(False, "involution", 32, 1_000_000)
    assert pooled(True, "involution", 16, 60_000)
    assert pooled(True, "derangement", 60, 50_000)
    assert not pooled(True, "involution", 16, 60_000, threads=1)


kinds = st.sampled_from(list(ProcessKind))


@settings(max_examples=50, deadline=None)
@given(kind=kinds, data=st.data(), seed=st.integers(0, 2**64 - 1),
       start=st.integers(0, 2**64 - 71), count=st.integers(1, 70))
@example(kind=ProcessKind.DERANGEMENT, data=None, seed=0, start=0, count=3)
@example(kind=ProcessKind.EXCEDANCE, data=None, seed=0, start=0, count=3)
def test_recorded_chunk_equals_the_rows_of_recorded_trajectories(kind, data, seed,
                                                                 start, count):
    from descentlab.cli import _sim_chunk

    # runs at n = n_min have no parts for derangements and excedances
    n = data.draw(st.integers(kind.n_min, 120), label="n") if data else kind.n_min
    assert (_sim_chunk((kind.value, n, seed, start, count, True))
            == oracles.audit_rows(kind.value, n, seed, start, count))


def test_a_recorded_simulate_builds_no_part_objects(tmp_path, monkeypatch):
    from descentlab import cli, processes

    def built(*args, **kwargs):
        raise AssertionError("a recorded simulate built a run's part objects")

    # each run is one ``Trajectory`` whose decomposition keeps the walk
    for name in ("PartRecord", "_records", "reconstruct"):
        monkeypatch.setattr(processes, name, built)
    for kind in ProcessKind:
        assert cli.main(["simulate", "--process", kind.value, "--n", "30",
                         "--replicates", "20", "--seed", "4", "--threads", "1",
                         "--record", str(tmp_path / "a.csv"),
                         "--out", str(tmp_path / "t.csv")]) == 0
        assert cli.main(["decompose", "--process", kind.value, "--n", "30",
                         "--seed", "4", "--out", str(tmp_path / "d.csv")]) == 0


def test_a_wrong_part_constant_shows_in_the_recorded_residual(tmp_path, capsys):
    from itertools import accumulate

    from descentlab import cli
    from descentlab.processes import _part_table

    # a 1-part that ends at stage 20 (position 18) gets a c one too large;
    # its x is d less its shift whatever c is, but the core sums d + c, so
    # the run's residual is minus that part's gamma
    parts, stage = _part_table(ProcessKind.DERANGEMENT, 40), 20
    entries = parts[stage]
    parts[stage] = (entries[0]._replace(c=entries[0].c + 1),) + entries[1:]
    audit = tmp_path / "a.csv"
    try:
        code = cli.main(["simulate", "--process", "derangement", "--n", "40",
                         "--replicates", "60", "--seed", "8", "--threads", "1",
                         "--record", str(audit), "--out", str(tmp_path / "t.csv")])
    finally:
        parts[stage] = entries
    assert code == cli.RESIDUAL_EXIT
    hits = 0
    for row in (line.split(",") for line in audit.read_text().splitlines()[1:]):
        sizes = [int(c) for c in row[2]]
        ends = list(zip(accumulate(sizes), sizes))
        j = ends.index((stage - 2, 1)) if (stage - 2, 1) in ends else None
        hits += j is not None
        assert row[6] == ("0" if j is None else "-" + row[5].split(";")[j])
    assert hits > 0
    assert capsys.readouterr().err == f"error: {hits} replicates with nonzero residual\n"


def test_moments_involution_mean_column():
    out = run_cli("moments", "--family", "involution", "--n", "50").stdout
    lines = out.strip().split("\n")
    cols = lines[0].split(",")
    i_n, i_mean = cols.index("n"), cols.index("mean")
    from fractions import Fraction

    for line in lines[1:]:
        cells = line.split(",")
        n = int(cells[i_n])
        assert Fraction(cells[i_mean]) == Fraction(n - 1, 2)


def test_clt_command_fit_trailer():
    out = run_cli("clt", "--family", "involution",
                  "--n-set", "16,32,64,128,256").stdout
    lines = out.strip().split("\n")
    fit = json.loads(lines[-1])["fit"]
    assert float(fit["slope"]) <= -0.45
    assert len(lines) == 7  # header + 5 rows + trailer


def test_clt_command_skips_rows_below_the_family_first_row():
    out = run_cli("clt", "--family", "derangement", "--n-set", "1").stdout
    assert out == run_cli("clt", "--family", "involution", "--n-set", "1").stdout
    lines = out.strip().split("\n")
    assert lines[0] == "n,mean,sd,K,scaled" and len(lines) == 2
    assert json.loads(lines[1])["fit"]["skipped"] == [1]


def test_identities_command():
    out = run_cli("identities", "--check", "derangement-sum", "--n-max", "12").stdout
    lines = out.strip().split("\n")
    assert len(lines) == 13
    assert all(l.split(",")[4] == "true" for l in lines[1:])

    proc = run_cli("identities", "--check", "stan1", "--n-max", "10")
    assert all(l.split(",")[5] == "0" for l in proc.stdout.strip().split("\n")[1:])


def test_decompose_command():
    out = run_cli("decompose", "--process", "derangement", "--n", "20",
                  "--seed", "3").stdout
    lines = out.strip().split("\n")
    run = json.loads(lines[-1])["run"]
    assert run["residual"] == "0"
    assert sum(int(c) for c in run["composition"]) == 18


@settings(max_examples=60, deadline=None)
@given(kind=kinds, data=st.data(), seed=st.integers(0, 2**64 - 1),
       fmt=st.sampled_from(["csv", "json"]))
def test_decompose_rows_are_the_parts_of_the_recorded_run(kind, data, seed, fmt):
    import contextlib
    import io

    from descentlab import cli
    from descentlab.processes import reconstruct, simulate

    n = data.draw(st.integers(kind.n_min, 120), label="n")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["decompose", "--process", kind.value, "--n", str(n),
                         "--seed", str(seed), "--format", fmt]) == 0
    if fmt == "json":
        doc = json.loads(out.getvalue())
        rows, run = doc["rows"], doc["run"]
    else:
        header, *lines, trailer = out.getvalue().splitlines()
        assert header == "part,position,size,stage,x,alpha,gamma"
        rows, run = [line.split(",") for line in lines], json.loads(trailer)["run"]
    traj = simulate(kind, n, seed, record=True)
    parts = traj.decomposition.parts
    assert rows == [[str(i), str(p.position), str(p.size), str(p.stage),
                     str(p.x), str(p.alpha), str(p.gamma)]
                    for i, p in enumerate(parts, start=1)]
    assert run == {"process": kind.value, "n": n, "seed": seed, "final": traj.final,
                   "composition": "".join(str(p.size) for p in parts),
                   "residual": str(reconstruct(traj))}


# sha256 of the stdout of ``moments --family derangement --n 478``, the
# largest row whose exact moments all print under CPython's default limit of
# 4300 digits on an int-to-text conversion.
MOMENTS_478_DIGEST = "af97974a9fcaca70ea308210bb38133f36217c8381f30013ddae79dc6f72c5bf"


def test_exact_output_past_the_digit_limit():
    import hashlib

    # the fourth central moment of row 479 and the alphas of a derangement
    # run from stage 861 on pass that limit, which the CLI lifts
    moments = run_cli("moments", "--family", "derangement", "--n", "479").stdout
    assert max(map(len, moments.splitlines()[-1].split(","))) > 4300
    run = json.loads(run_cli("decompose", "--process", "derangement",
                             "--n", "861").stdout.splitlines()[-1])["run"]
    assert run["residual"] == "0"
    out = run_cli("moments", "--family", "derangement", "--n", "478").stdout
    assert hashlib.sha256(out.encode()).hexdigest() == MOMENTS_478_DIGEST


def test_tsv_format():
    out = run_cli("triangle", "--family", "involution", "--n", "3",
                  "--format", "tsv").stdout
    assert out.startswith("n\tk\tcount\n")


def test_out_file(tmp_path):
    path = tmp_path / "tri.csv"
    run_cli("triangle", "--family", "involution", "--n", "4", "--out", str(path))
    assert path.read_text().startswith("n,k,count\n")


def test_out_file_is_complete_or_absent(tmp_path, monkeypatch):
    from descentlab import cli

    def failing_write(out, fmt, columns, rows, trailer=None, head=None):
        out.write(",".join(columns) + "\n")
        raise OSError("disk full")

    monkeypatch.setattr(cli, "_write", failing_write)
    path = tmp_path / "moments.csv"
    argv = ["moments", "--family", "involution", "--n", "5", "--out", str(path)]
    with pytest.raises(OSError, match="disk full"):
        cli.main(argv)
    assert not path.exists()
    path.write_text("earlier run\n")
    with pytest.raises(OSError, match="disk full"):
        cli.main(argv)
    assert path.read_text() == "earlier run\n"
    assert [p.name for p in tmp_path.iterdir()] == ["moments.csv"]


def test_unwritable_out_exits_2(tmp_path):
    path = tmp_path / "missing" / "x.csv"
    proc = run_cli("triangle", "--family", "involution", "--n", "3",
                   "--out", str(path), check=False)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"error: cannot write {path}: No such file or directory\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", ["--record", "--out"])
def test_unwritable_simulate_path_exits_2_before_any_work(flag, tmp_path, monkeypatch,
                                                          capsys):
    from descentlab import cli

    def no_work(payload):
        raise AssertionError("simulated before checking the output paths")

    monkeypatch.setattr(cli, "_sim_chunk", no_work)
    path = tmp_path / "missing" / "a.csv"
    assert cli.main(["simulate", "--process", "involution", "--n", "12",
                     "--replicates", "5", "--threads", "1", flag, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {path}: No such file or directory\n"
    assert list(tmp_path.iterdir()) == []


def _refuse_work(monkeypatch):
    """Make every command's work raise, from the module that owns it."""
    from descentlab import cli, diagnostics, families, moments, processes

    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "_sim_chunk", no_work)
    for module, name in ((families, "rolled_rows"), (moments, "moment_table"),
                         (diagnostics, "clt_table"), (diagnostics, "identity_check"),
                         (processes, "simulate")):
        monkeypatch.setattr(module, name, no_work)


@pytest.mark.parametrize("argv", [
    ["triangle", "--family", "derangement", "--n", "600"],
    ["moments", "--family", "derangement", "--n", "600"],
    ["clt", "--family", "derangement", "--n-set", "800"],
    ["identities", "--check", "stan1", "--n-max", "12"],
    ["decompose", "--process", "derangement", "--n", "1000"],
], ids=lambda argv: argv[0])
def test_unwritable_out_exits_2_before_any_work(argv, tmp_path, monkeypatch, capsys):
    from descentlab import cli

    _refuse_work(monkeypatch)
    path = tmp_path / "missing" / "x.csv"
    assert cli.main(argv + ["--out", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {path}: No such file or directory\n"
    assert list(tmp_path.iterdir()) == []


def test_first_stage_refusals_read_alike(capsys):
    from descentlab import cli
    from descentlab.batch import batch_finals
    from descentlab.errors import FamilyError
    from descentlab.processes import exact_marginal, simulate

    messages = []
    for call in (lambda: simulate("derangement", 1, 0), lambda: exact_marginal("derangement", 1),
                 lambda: batch_finals("derangement", 1, 4, 0)):
        with pytest.raises(FamilyError) as info:
            call()
        messages.append(str(info.value))
    assert cli.main(["simulate", "--process", "derangement", "--n", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: derangement: n=1 is below the first stage 2\n"
    assert messages == ["derangement: n=1 is below the first stage 2"] * 3


@pytest.mark.parametrize("out_name", ["a.csv", "link.csv"])
def test_record_and_out_naming_one_file_exit_2_before_any_work(out_name, tmp_path,
                                                               monkeypatch, capsys):
    from descentlab import cli

    def no_work(payload):
        raise AssertionError("simulated before checking the output paths")

    monkeypatch.setattr(cli, "_sim_chunk", no_work)
    (tmp_path / "link.csv").symlink_to(tmp_path / "a.csv")
    out = tmp_path / out_name
    assert cli.main(["simulate", "--process", "involution", "--n", "12",
                     "--replicates", "5", "--threads", "1",
                     "--record", str(tmp_path / "a.csv"), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --record and --out name the same file {out}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["link.csv"]


def test_simulate_outputs_are_complete_or_absent_when_a_chunk_fails(tmp_path,
                                                                     monkeypatch):
    from descentlab import cli

    real, calls = cli._sim_chunk, []

    def second_call_fails(payload):
        calls.append(payload)
        if len(calls) == 2:
            raise RuntimeError("chunk failed")
        return real(payload)

    monkeypatch.setattr(cli, "_sim_chunk", second_call_fails)
    audit, table = tmp_path / "a.csv", tmp_path / "t.csv"
    argv = ["simulate", "--process", "derangement", "--n", "12",
            "--replicates", str(3 * cli.RECORD_CHUNK), "--threads", "1",
            "--record", str(audit), "--out", str(table)]
    with pytest.raises(RuntimeError, match="chunk failed"):
        cli.main(argv)
    assert list(tmp_path.iterdir()) == []
    audit.write_text("earlier run\n")
    calls.clear()
    with pytest.raises(RuntimeError, match="chunk failed"):
        cli.main(argv)
    assert audit.read_text() == "earlier run\n"
    assert [p.name for p in tmp_path.iterdir()] == ["a.csv"]


# A child's peak RSS as ``wait4`` reports it is at least its parent's at the
# fork, so the CLI is started from a fresh, small interpreter, not from pytest.
_PEAK_RSS = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def peak_rss_mb(*command) -> float:
    """Peak resident set of one run of ``command``, as ``os.wait4`` reports
    it, in MB; the run must exit 0."""
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS, *command],
                          capture_output=True, text=True, check=True)
    code, rss_kb = map(int, proc.stdout.split())
    assert code == 0, proc.stderr
    return rss_kb / 1024


def test_recorded_simulate_memory_does_not_grow_with_replicates(tmp_path):
    peaks = [
        peak_rss_mb(*CLI, "simulate", "--process", "derangement", "--n", "100",
                    "--replicates", str(replicates), "--threads", "1",
                    "--record", str(tmp_path / "a.csv"))
        for replicates in (200, 1600)
    ]
    assert abs(peaks[1] - peaks[0]) <= 8, peaks


def test_plain_simulate_memory_is_bounded_at_a_million_replicates():
    peak = peak_rss_mb(*CLI, "simulate", "--process", "involution", "--n", "32",
                       "--replicates", "1000000", "--threads", "1")
    assert peak < 50, peak


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_triangle_holds_rows_not_the_table(fmt):
    # the whole derangement table to 500 peaked at 66.6 MB as CSV and at
    # 348 MB as JSON, built before a byte was written
    peak = peak_rss_mb(*CLI, "triangle", "--family", "derangement", "--n", "500",
                       "--format", fmt)
    assert peak < 30, peak


def test_clt_past_the_triangle_limit_holds_two_rows():
    # the derangement triangle to 1000 alone holds about 0.3 GB
    peak = peak_rss_mb(*CLI, "clt", "--family", "derangement", "--n-set", "1200")
    assert peak < 60, peak


def test_out_through_a_symlink_keeps_the_link(tmp_path):
    target = tmp_path / "tri.csv"
    target.write_text("stale\n")
    link = tmp_path / "latest.csv"
    link.symlink_to(target)
    run_cli("triangle", "--family", "involution", "--n", "3", "--out", str(link))
    assert link.is_symlink()
    assert target.read_text().startswith("n,k,count\n")


def test_table_rejects_a_row_of_the_wrong_width():
    import io

    from descentlab.cli import _write

    for fmt in ("csv", "json", "tsv"):
        with pytest.raises(ValueError, match="2 cells for 3 columns"):
            _write(io.StringIO(), fmt, ["n", "k", "count"], [(1, 0, 1), (2, 0)])


LIBRARY = ("families", "compositions", "processes", "moments", "diagnostics", "batch")


def _loaded_after(*steps):
    """For each step (Python source), the library modules and numpy that a
    fresh interpreter holds once the steps up to it have run."""
    watched = [f"descentlab.{m}" for m in LIBRARY] + ["numpy", "concurrent.futures.process"]
    code = "import json, sys\nseen = []\n" + "".join(
        f"{step}\nseen.append([m for m in {watched!r} if m in sys.modules])\n"
        for step in steps) + "print(json.dumps(seen))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    return [{m.removeprefix("descentlab.") for m in loaded}
            for loaded in json.loads(proc.stdout)]


def test_building_the_parser_loads_no_library_module():
    assert _loaded_after("import descentlab.cli as cli; cli.build_parser()") == [set()]


def test_exact_commands_do_not_load_numpy(tmp_path):
    seen = _loaded_after(
        "import descentlab.cli as cli",
        f"""assert cli.main(["decompose", "--process", "derangement", "--n", "30",
                 "--out", {str(tmp_path / "d.csv")!r}]) == 0""",
        f"""assert cli.main(["simulate", "--process", "involution", "--n", "12",
                 "--replicates", "5", "--threads", "1",
                 "--record", {str(tmp_path / "a.csv")!r},
                 "--out", {str(tmp_path / "s.csv")!r}]) == 0""",
        "import descentlab, descentlab.batch\n"
        "assert descentlab.batch_finals is descentlab.batch.batch_finals")
    # a recorded run needs the process and its discard maps, not the
    # diagnostics or the moment tables; neither numpy nor the process pool
    # is loaded before a command needs it
    run = {"processes", "compositions", "families"}
    assert seen[:3] == [set(), run, run]
    assert "numpy" in seen[3]


def test_moments_loads_no_process_module(tmp_path):
    seen = _loaded_after(f"""import descentlab.cli as cli
assert cli.main(["moments", "--family", "derangement", "--n", "12",
                 "--out", {str(tmp_path / "m.csv")!r}]) == 0""")
    assert seen == [{"families", "moments"}]


def _simulate_argv(**flags):
    argv = ["simulate", "--process", "involution", "--n", "12", "--replicates", "5",
            "--threads", "1"]
    for flag, value in flags.items():
        argv[argv.index(f"--{flag}") + 1] = value
    return argv


@pytest.mark.parametrize("argv", [
    _simulate_argv(n="1001"),
    _simulate_argv(replicates="1000001"),
    _simulate_argv(replicates="0"),
    _simulate_argv(replicates="-4"),
    _simulate_argv(threads="0"),
    _simulate_argv(threads="-1"),
    _simulate_argv(threads="257"),
    ["triangle", "--family", "derangement", "--n", "1001"],
    ["moments", "--family", "involution", "--n", "5000"],
    ["moments", "--family", "excedance", "--n", "1"],
    ["moments", "--family", "excedance", "--n", "-3"],
    ["moments", "--family", "involution", "--n", "0"],
    ["decompose", "--process", "fibonacci", "--n", "1001"],
    ["clt", "--family", "involution", "--n-set", "16,4001"],
    ["clt", "--family", "involution", "--n-set", ","],
    ["identities", "--check", "stan1", "--n-max", "-3"],
    ["identities", "--check", "stan1", "--n-max", "0"],
    ["identities", "--check", "stan1", "--n-max", "23"],
    _simulate_argv(process="derangement", n="1"),
    _simulate_argv(process="derangement", n="-3") + ["--record", "-"],
    ["decompose", "--process", "involution", "--n", "0"],
    ["clt", "--family", "involution", "--n-set", "5,abc"],
    ["clt", "--family", "involution", "--n-set", "16,,x"],
])
def test_sizes_outside_the_limits_exit_2_before_any_work(argv, monkeypatch, capsys):
    import descentlab.cli as cli

    _refuse_work(monkeypatch)
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse's refusal
        code = exc.code
    assert code == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and captured.out == ""
    if "--n-set" in argv:  # every --n-set refusal is the parser's, and names the flag
        assert "error: argument --n-set: " in captured.err


def test_limits_admit_the_benchmark_sizes():
    from descentlab.cli import N_MAX, REPLICATES_MAX, THREADS_MAX, build_parser

    args = build_parser().parse_args(
        _simulate_argv(n="600", replicates="1000000", threads="2"))
    assert (args.n, args.replicates, args.threads) == (600, 1_000_000, 2)
    assert N_MAX >= 600 and REPLICATES_MAX >= 1_000_000 and THREADS_MAX >= 2


@pytest.mark.parametrize("seed", [2**64, -1])
@pytest.mark.parametrize("command", ["simulate", "decompose"])
def test_a_seed_outside_64_bits_exits_2(command, seed, tmp_path, capsys):
    # the streams take a seed mod 2**64: 2**64 would draw the runs of seed 0
    # and -1 those of 2**64 - 1, under a seed of its own in the output
    import descentlab.cli as cli

    argv = _simulate_argv() if command == "simulate" else [
        "decompose", "--process", "derangement", "--n", "12"]
    path = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--seed", str(seed), "--out", str(path)])
    assert exc.value.code == 2 and not path.exists()
    err = capsys.readouterr().err
    assert f"--seed: must be in 0..{2**64 - 1}, got {seed}" in err


def test_the_largest_64_bit_seed_runs(tmp_path):
    import descentlab.cli as cli

    path = tmp_path / "d.csv"
    seed = str(2**64 - 1)
    assert cli.main(["decompose", "--process", "derangement", "--n", "12",
                     "--seed", seed, "--out", str(path)]) == 0
    assert f'"seed": {seed}' in path.read_text().splitlines()[-1]
    assert cli.main(_simulate_argv() + ["--seed", seed, "--out", str(path)]) == 0


def test_nonpositive_threads_exit_2_from_the_command_line():
    proc = run_cli(*_simulate_argv(threads="0"), check=False)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "--threads: must be in 1..256, got 0" in proc.stderr
