"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Regression constants marked FROZEN were computed once from the exact
implementation and pinned; scaled-rate and norm-scan assertions compare
against them at 1e-9, bound-style assertions use the stated closed forms.
"""

import functools
import math
import subprocess
import sys
from fractions import Fraction

from descentlab.batch import batch_finals
from descentlab.diagnostics import clt_table, condition_scan, identity_check
from descentlab.families import descent_triangle, triangle_row_pmf
from descentlab.processes import (
    ProcessKind,
    conditional_moment,
    exact_marginal,
    martingale_difference_distribution,
    reconstruct,
    simulate,
)

import oracles
from mc import chi_square_pvalue
from test_families import DERANGEMENT_ROWS, INVOLUTION_ROWS
from test_processes import centered, feasible_sources

F = Fraction


def _criterion(num: int, desc: str):
    """Decorator printing one pass/fail line per criterion."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {num}: {desc}")
                raise
            print(f"PASS criterion {num}: {desc}")

        return run

    return wrap


@_criterion(1, "golden involution and derangement triangle rows")
def test_criterion_01_golden_triangles():
    inv = descent_triangle("involution", 6)
    for n, row in INVOLUTION_ROWS.items():
        assert inv.row(n) == row
    der = descent_triangle("derangement", 7)
    for n, row in DERANGEMENT_ROWS.items():
        assert der.row(n) == row


@_criterion(2, "all five triangles match brute-force enumeration")
def test_criterion_02_oracle_equivalence():
    for n in range(1, 10):
        assert descent_triangle("eulerian", n).row(n) == oracles.eulerian_row(n)
        assert descent_triangle("involution", n).row(n) == oracles.involution_row(n)
    for n in range(2, 10):
        des, exc = oracles.derangement_rows(n)
        assert descent_triangle("derangement", n).row(n) == des
        assert descent_triangle("excedance", n).row(n) == exc
    for n in range(1, 15):
        assert descent_triangle("fibonacci", n).row(n) == oracles.fibonacci_row(n)


@_criterion(3, "involution mean law and variance bound")
def test_criterion_03_exact_mean_laws():
    tri = descent_triangle("involution", 500)
    for n in range(1, 201):
        assert triangle_row_pmf(tri, n).mean() == F(n - 1, 2)
    for n in range(2, 501):
        assert triangle_row_pmf(tri, n).variance() <= F(17 * n - 4, 12)


@_criterion(4, "derangement mean within e^(-n/2) of its asymptotic form")
def test_criterion_04_derangement_mean_asymptotic():
    tri = descent_triangle("derangement", 100)
    for n in range(10, 101):
        gap = abs(triangle_row_pmf(tri, n).mean() - F(n - 1, 2) - F(1, 2 * n))
        assert gap <= F(math.exp(-n / 2))


@_criterion(5, "zero-mean differences and closed-form conditional moments, i <= 60")
def test_criterion_05_martingale_structure():
    for kind in ProcessKind:
        for order in (1, 2):
            lo = 2 if kind.composition_offset == 0 else order + 2
            for i in range(lo, 61):
                for value in feasible_sources(kind, i - order):
                    w = centered(kind, i, order, value)
                    dist = martingale_difference_distribution(kind, i, order, w)
                    assert dist.mean() == 0
                    for r in (2, 3, 4):
                        closed = oracles.closed_form_moment(kind, i, order, w, r)
                        assert dist.moment(r) == closed
                        assert conditional_moment(kind, i, order, w, r) == closed


@_criterion(6, "reconstruction residual exactly 0 on 10^4 runs per process, n=100")
def test_criterion_06_reconstruction():
    for kind in ProcessKind:
        for rep in range(10_000):
            traj = simulate(kind, 100, seed=6, record=True, stream_index=rep)
            assert reconstruct(traj) == 0


@_criterion(7, "exact marginals at n <= 8 and 10^6-replicate chi-square at n=32")
def test_criterion_07_simulation_marginals():
    for kind in ProcessKind:
        tri = descent_triangle(kind.family, 8)
        for n in range(kind.n_min, 9):
            assert exact_marginal(kind, n) == triangle_row_pmf(tri, n)
    for kind in ProcessKind:
        counts = batch_finals(kind, 32, 1_000_000, master_seed=7)
        expected = {k: w for k, w in exact_marginal(kind, 32).items() if w > 0}
        assert chi_square_pvalue(counts, expected, 1_000_000) >= 0.001


@_criterion(8, "exact identities: alternating sum, weighted products, fibonacci pmf")
def test_criterion_08_identities():
    for n in range(1, 21):
        assert identity_check("derangement_sum", n).holds
    offsets = set()
    for n in range(2, 19):
        r1 = identity_check("stan1", n)
        r2 = identity_check("stan2", n)
        assert r1.holds and r2.holds
        offsets.add(r1.offset_used)
        offsets.add(r2.offset_used)
    assert len(offsets) == 1
    for n in range(1, 15):
        assert identity_check("fibonacci_pmf", n).holds


# FROZEN: computed at first exact run over n in {16,32,64,128,256,400}
INV_MAX_SQRT_N_K = 0.684359462849381
DER_MAX_CBRT_N_K = 0.41318617012440806


@_criterion(9, "scaled Kolmogorov distances at frozen constants; involution slope")
def test_criterion_09_clt_rates():
    n_set = [16, 32, 64, 128, 256, 400]
    inv = clt_table("involution", n_set)
    der = clt_table("derangement", n_set)
    assert abs(inv.max_scaled - INV_MAX_SQRT_N_K) <= 1e-9
    assert abs(der.max_scaled - DER_MAX_CBRT_N_K) <= 1e-9
    assert inv.slope <= -0.45


# FROZEN: maxima of the three norm columns over 10 <= i <= 200
SCAN_LIMITS = {
    "involution": (0.21866747870330824, 0.8606438678970623, 1.466000245370537),
    "derangement": (0.25075990811676785, 0.9586564347900014, 1.4940217402208564),
}


@_criterion(10, "limit-theorem condition scans bounded at frozen constants")
def test_criterion_10_condition_scans():
    for tag, (c2, c3, c4) in SCAN_LIMITS.items():
        rows = condition_scan(tag, range(10, 201), p=F(2), p_prime=F(4, 3))
        assert abs(max(r.second_norm for r in rows) - c2) <= 1e-9
        assert abs(max(r.third_norm for r in rows) - c3) <= 1e-9
        assert abs(max(r.fourth_sup for r in rows) - c4) <= 1e-9


@_criterion(11, "byte-identical CLI output across --threads values")
def test_criterion_11_determinism(tmp_path):
    outputs = []
    for threads in ("1", "2", "4"):
        audit = tmp_path / f"audit_{threads}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "descentlab.cli", "simulate",
             "--process", "derangement", "--n", "40",
             "--replicates", "3000", "--seed", "11",
             "--threads", threads, "--record", str(audit)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((proc.stdout, audit.read_bytes()))
    assert outputs[0] == outputs[1] == outputs[2]

    plain = [
        subprocess.run(
            [sys.executable, "-m", "descentlab.cli", "clt",
             "--family", "involution", "--n-set", "16,32,64",
             "--threads", threads],
            capture_output=True, text=True, check=True,
        ).stdout
        for threads in ("1", "3")
    ]
    assert plain[0] == plain[1]
