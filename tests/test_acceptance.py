"""Acceptance criteria, one test per criterion, full-strength parameters.

Run with `pytest -s tests/test_acceptance.py` to see one line per criterion.
"""

import math
import subprocess
import sys
import time

from parset import Verdict
from parset.suite import (
    FULL,
    check_b_puzzle,
    check_c_puzzle,
    check_convergence,
    check_coupling_sandwich,
    check_dr_oracle,
    check_exact_vs_raster,
    check_fisher_de_bruijn,
    check_gaussian_calibration,
    check_gaussian_surface_bound,
    check_inscribed_angle,
    check_kneser,
    check_reverse_bm,
    check_reverse_epi,
    check_volume_constrained,
    check_w1_domination_sweep,
)

SEED = 20260810


def report(criterion: int, reports, detail: str = "", extra_ok: bool = True):
    ok = extra_ok and all(r.verdict is not Verdict.FAIL for r in reports)
    worst = "; ".join(
        f"{r.bound_name}: measured={r.measured:.6g} bound={r.bound_value:.6g}"
        for r in reports
    )
    line = f"[criterion {criterion:>2}] {'PASS' if ok else 'FAIL'} {detail} ({worst})"
    print(line)
    assert ok, line


def test_criterion_01_b_puzzle():
    start = time.monotonic()
    reports = check_b_puzzle(SEED, FULL)
    elapsed = time.monotonic() - start
    by_name = {r.bound_name: r for r in reports}
    assert by_name["b-puzzle-equality-gap"].measured <= 1e-9
    assert by_name["b-puzzle-center-arc"].measured <= 1e-9
    assert by_name["b-puzzle-bound"].measured <= 4.0 * math.pi + 1e-9
    report(1, reports, f"4-point equality + 1000 random configs in {elapsed:.1f}s",
           extra_ok=elapsed < 10.0)


def test_criterion_02_c_puzzle():
    start = time.monotonic()
    reports = check_c_puzzle(SEED, FULL)
    elapsed = time.monotonic() - start
    assert reports[0].measured <= 16.0 + 1e-9
    report(2, reports, f"1000 random square configs in {elapsed:.1f}s",
           extra_ok=elapsed < 10.0)


def test_criterion_03_exact_vs_raster():
    start = time.monotonic()
    reports = check_exact_vs_raster(SEED, FULL)
    elapsed = time.monotonic() - start
    by_name = {r.bound_name: r for r in reports}
    assert by_name["oracle-perimeter-rel-err"].measured <= 1e-12
    assert by_name["oracle-area-rel-err"].measured <= 1e-12
    report(3, reports, f"50 instances vs the exact oracle in {elapsed:.1f}s",
           extra_ok=elapsed < 60.0)


def test_criterion_04_volume_constrained():
    reports = check_volume_constrained(SEED, FULL)
    report(4, reports, "100 planar + 20 spatial parallel sets")


def test_criterion_05_gaussian_calibration_and_bound():
    reports = check_gaussian_calibration(SEED, FULL)
    reports += check_gaussian_surface_bound(SEED, FULL)
    report(5, reports, "halfspace 1e7 samples + surface bound d=2,3")


def test_criterion_06_kneser():
    reports = check_kneser(SEED, FULL)
    report(6, reports, "20 configs x t in {1.2, 1.5, 2} at 1e6 samples")


def test_criterion_07_inscribed_angle():
    reports = check_inscribed_angle(SEED, FULL)
    by_name = {r.bound_name: r for r in reports}
    assert by_name["inscribed-angle-2d-ratio"].measured <= 0.01
    report(7, reports, "planar ratio 1/2 + 100 spatial cap/apex pairs")


def test_criterion_08_reverse_bm():
    reports = check_reverse_bm(SEED, FULL)
    report(8, reports, "50 random pairs, MC sum volume")


def test_criterion_09_dr_oracle():
    reports = check_dr_oracle(SEED, FULL)
    by_name = {r.bound_name: r for r in reports}
    assert by_name["dr-brute-force-agreement"].measured == 0.0
    assert by_name["dr-weighted-uniform-agreement"].measured == 0.0
    report(9, reports, "500 brute-force draws + 50 weighted-uniform draws")


def test_criterion_10_w1_domination():
    reports = check_w1_domination_sweep(SEED, FULL)
    report(10, reports, "100 random empirical pairs, n <= 50")


def test_criterion_11_coupling_sandwich():
    reports = check_coupling_sandwich(SEED, FULL)
    assert reports[0].measured <= 0.0  # exact rational arithmetic: no violation
    report(11, reports, "100 random quadruples, exact flows")


def test_criterion_12_convergence():
    start = time.monotonic()
    reports = check_convergence(SEED, FULL)
    elapsed = time.monotonic() - start
    by_name = {r.bound_name: r for r in reports}
    assert by_name["convergence-median-inversions"].measured <= 1.0
    assert by_name["convergence-final-median"].measured < 0.05
    report(12, reports, f"grid (25..400) x 20 trials, n_ref 3200, {elapsed:.0f}s",
           extra_ok=elapsed < 300.0)


def test_criterion_13_reverse_epi():
    reports = check_reverse_epi(SEED, FULL)
    by_name = {r.bound_name: r for r in reports}
    assert by_name["reverse-epi-random"].measured <= 1e-6
    assert by_name["reverse-epi-far-gap"].measured <= 0.02
    report(13, reports, "analytic + 20 quadrature mixtures + far-separated gap")


def test_criterion_14_fisher_de_bruijn():
    reports = check_fisher_de_bruijn(SEED, FULL)
    report(14, reports, "20 mixtures Fisher bound + 10 heat-flow slopes at dt=1e-3")


def test_criterion_15_suite_determinism(tmp_path):
    # determinism is sample-count independent (counter streams, fixed
    # reduction order); a moderate budget keeps the double run short
    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "parset",
                "suite",
                "all",
                "--seed",
                "42",
                "--samples",
                "5000",
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outs.append((out / "results.csv").read_bytes())
    identical = outs[0] == outs[1]
    print(f"[criterion 15] {'PASS' if identical else 'FAIL'} "
          f"suite all --seed 42 twice -> byte-identical results")
    assert identical
