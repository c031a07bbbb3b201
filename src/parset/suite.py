"""Verification suites: every bound and identity check, runnable end to end.

Each check returns BoundReports.  Aggregate reports over many random
instances follow one convention: measured is the worst per-instance
BoundReport.excess, the measured value less 4 standard errors less its bound
(anything <= 0 passes), with bound_value 0 and std_error 0, unless the check
says otherwise.  The 4 lives in bounds alone: a check widens an estimate
through MeasureEstimate.lower and .upper, or reads a report's excess.

All randomness comes from streams derived from the suite seed, so a rerun
with the same seed reproduces every number bit for bit.  Result files are
byte-identical across reruns; the manifest carries wall time and is the one
artifact excluded from that guarantee.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from . import entropy as ent
from . import exact2d as ex2
from . import mc as mcmod
from . import transport as tp
from ._rng import chunk_generator, derive_seed, threads, uniform_in_ball, uniform_in_cube
from .bounds import (
    BoundReport,
    all_pass,
    bound_volume_constrained,
    gaussian_surface_bound,
    reverse_bm_bound,
    reverse_epi_constant,
)
from .errors import InvalidArgumentError
from .geometry import NormKind, ParallelSetSpec, PointSet
from .mc import McConfig


@dataclass(frozen=True)
class Profile:
    """Sample budgets; the defaults match the stated tolerances.  The threads
    that share each Monte Carlo estimate's chunks are not a budget: run_suite
    enters an _rng.threads scope, and the results do not depend on it."""

    mc_samples: int = 1_000_000
    halfspace_samples: int = 10_000_000
    shell3d_samples: int = 400_000
    kneser_samples: int = 1_000_000
    # no suite check reads angle_directions, and profile_from_samples keeps
    # it: the cap fractions the suite takes are exact;
    # benchmarks/perf/workloads.py still sets it
    angle_directions: int = 200_000
    angle_pairs: int = 100
    entropy_samples: int = 200_000
    oracle_instances: int = 50
    random_configs: int = 1000
    dr_draws: int = 500
    w1_pairs: int = 100
    sandwich_count: int = 100
    convergence_grid: tuple = (25, 50, 100, 200, 400)
    convergence_trials: int = 20


FULL = Profile()


def profile_from_samples(samples: int | None) -> Profile:
    """Smoke-scale the budgets; None keeps the full profile."""
    if samples is None:
        return FULL
    s = max(int(samples), 16)
    frac = min(1.0, s / FULL.mc_samples)
    if frac >= 1.0:
        return FULL

    def shrink(v, floor=1000):
        return max(floor, int(v * frac))

    return Profile(
        mc_samples=s,
        # the delta = 1e-3 shell of check_gaussian_calibration holds ~4e-4 of
        # the mass; keep >= 100 expected hits there, since an empty shell
        # reads as std_error 0 and fails the check
        halfspace_samples=shrink(FULL.halfspace_samples, floor=251_000),
        shell3d_samples=shrink(FULL.shell3d_samples),
        kneser_samples=shrink(FULL.kneser_samples),
        angle_pairs=8,
        entropy_samples=shrink(FULL.entropy_samples),
        oracle_instances=2,
        random_configs=200,
        dr_draws=50,
        w1_pairs=20,
        sandwich_count=20,
        convergence_grid=(25, 50),
        convergence_trials=3,
    )


def _ball_config(g, max_points: int) -> np.ndarray:
    return uniform_in_ball(g, int(g.integers(1, max_points + 1)), 2)


def _cube_config(g, max_points: int) -> np.ndarray:
    return uniform_in_cube(g, int(g.integers(1, max_points + 1)), 2)


# ---------------------------------------------------------------------------
# exact 2-d checks
# ---------------------------------------------------------------------------


def check_b_puzzle(seed: int, prof: Profile) -> list[BoundReport]:
    """Perimeter of confined unit-disk unions never beats the doubled disk."""
    four_pi = 4.0 * math.pi
    angles = [0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0]
    pts = PointSet([[0.0, 0.0]] + [[math.cos(a), math.sin(a)] for a in angles])
    decomp = ex2.disk_union_boundary(pts, 1.0)
    g = chunk_generator(derive_seed(seed, "b-puzzle"), 0)
    configs = (np.vstack([[0.0, 0.0], _ball_config(g, 50)]) for _ in range(prof.random_configs))
    perimeters = (ex2.disk_union_boundary(PointSet(c), 1.0).perimeter() for c in configs)
    return [
        BoundReport.compare(
            "b-puzzle-equality-gap", 1e-9, abs(decomp.perimeter() - four_pi)
        ),
        BoundReport.compare("b-puzzle-center-arc", 1e-9, decomp.arc_length_of(0)),
        BoundReport.sweep("b-puzzle-bound", four_pi + 1e-9, perimeters),
    ]


def check_c_puzzle(seed: int, prof: Profile) -> list[BoundReport]:
    """Perimeter of confined unit-square unions never beats the doubled square."""
    g = chunk_generator(derive_seed(seed, "c-puzzle"), 0)
    configs = (np.vstack([[0.0, 0.0], _cube_config(g, 50)]) for _ in range(prof.random_configs))
    perimeters = (ex2.square_union_perimeter(PointSet(c), 1.0) for c in configs)
    return [BoundReport.sweep("c-puzzle-bound", 16.0 + 1e-9, perimeters)]


# the planar r-parallel sets the exact checks alternate between
_PLANAR_SHAPES = ((NormKind.L2, _ball_config), (NormKind.LINF, _cube_config))
# relative tolerance of exact vs oracle, 20 times the worst errors over seeds
# 0-99 at the full profile: 7.9e-16 (perimeter) and 4.6e-14 (disk area)
_ORACLE_TOL = 1e-12


def check_exact_vs_raster(seed: int, prof: Profile) -> list[BoundReport]:
    """Exact perimeter/area vs the independent oracle ``exact2d.oracle_measures``."""
    g = chunk_generator(derive_seed(seed, "raster"), 0)

    def rel_errors(k):
        norm, config = _PLANAR_SHAPES[k % 2]
        r = float(g.uniform(0.6, 1.4))
        centers = PointSet(config(g, 20))
        decomp = ex2.union_boundary(centers, r, norm)
        exact_p, exact_a = decomp.perimeter(), decomp.area()
        area, perim = ex2.oracle_measures(centers, r, norm)
        return abs(perim - exact_p) / exact_p, abs(area - exact_a) / exact_a

    errs = [rel_errors(k) for k in range(prof.oracle_instances)]
    return [
        BoundReport.sweep("oracle-perimeter-rel-err", _ORACLE_TOL, (p for p, _ in errs)),
        BoundReport.sweep("oracle-area-rel-err", _ORACLE_TOL, (a for _, a in errs)),
    ]


def check_volume_constrained(seed: int, prof: Profile) -> list[BoundReport]:
    """Surface at its 4-sigma lower end vs the volume-budget cap
    (V/r) * 2^(2d-1) * d at the volume's upper end, both from
    mc.union_measures (see the table in mc); the 3-d balls are sampled."""
    g = chunk_generator(derive_seed(seed, "volume-constrained"), 0)

    def excesses(dim, count):
        for k in range(count):
            if dim == 2:
                norm, config = _PLANAR_SHAPES[k % 2]
                r = float(g.uniform(0.4, 1.2))
                centers = config(g, 30) * 1.5
            else:
                norm, r = NormKind.L2, float(g.uniform(0.4, 1.0))
                centers = uniform_in_ball(g, int(g.integers(1, 12)), 3) * 1.2
            spec = ParallelSetSpec(base=PointSet(centers), norm=norm, radius=r)
            sub = derive_seed(seed, "volume-constrained-3d", k) + 1
            cfg = McConfig(prof.shell3d_samples, sub)
            volume, surface = mcmod.union_measures(spec, ("volume", "surface"), cfg)
            yield surface.lower - bound_volume_constrained(dim, r, volume.upper)

    return [
        BoundReport.sweep("volume-constrained-2d", 0.0, excesses(2, 100)),
        BoundReport.sweep("volume-constrained-3d", 0.0, excesses(3, 20)),
    ]


def check_kneser(seed: int, prof: Profile) -> list[BoundReport]:
    """Shell scaling inequality over random configurations and scale factors,
    exact where mc.union_measures' volume is (see the table in mc), band
    counts of kneser_samples draws for the 3-d L2 ones.  A configuration's
    three scale factors share its exact volumes, seven radii in all."""
    g = chunk_generator(derive_seed(seed, "kneser"), 0)

    def excesses():
        for k in range(20):
            dim = 2 if k % 2 == 0 else 3
            centers = PointSet(uniform_in_ball(g, int(g.integers(1, 9)), dim))
            norm = NormKind.L2 if k % 3 else NormKind.LINF
            volumes = {}  # the exact volumes of this configuration, by radius
            for t in (1.2, 1.5, 2.0):
                cfg = McConfig(samples=prof.kneser_samples, seed=derive_seed(seed, "kneser", k, t))
                rep = mcmod.kneser_shell_check(
                    centers, norm, a_k=0.5, b_k=1.0, t=t, cfg=cfg, volumes=volumes
                )
                yield rep.excess

    return [BoundReport.sweep("kneser-shell-sweep", 0.0, excesses())]


def check_inscribed_angle(seed: int, prof: Profile) -> list[BoundReport]:
    """Cap solid angle from an interior apex vs the central one.

    Both fractions are exact in 2-d and 3-d, so no direction is drawn
    (directions=1 only satisfies the argument check).  At the antipode the
    inscribed-angle theorem makes the 2-d ratio exactly 1/2, compared within
    the apex fraction's rounding allowance.
    """
    fa, fc = mcmod.cap_solid_angle_fractions(
        2, cap_half_angle=0.9, apex=np.array([-1.0, 0.0]), directions=1, seed=seed
    )
    g = chunk_generator(derive_seed(seed, "angle-3d"), 0)

    def excess(k):
        return mcmod.inscribed_angle_check(
            3,
            cap_half_angle=float(g.uniform(0.2, 2.5)),
            trials=1,
            seed=derive_seed(seed, "angle-3d", k),
            directions=1,
        ).excess

    return [
        BoundReport.compare(
            "inscribed-angle-2d-ratio", 0.0, abs(fa.value / fc - 0.5), fa.std_error / fc
        ),
        BoundReport.sweep("inscribed-angle-3d-sweep", 0.0, map(excess, range(prof.angle_pairs))),
    ]


# ---------------------------------------------------------------------------
# gaussian checks
# ---------------------------------------------------------------------------


def check_gaussian_calibration(seed: int, prof: Profile) -> list[BoundReport]:
    """Halfspace shell estimate, at the default delta 1/1000, against the
    exact constant 1/sqrt(2 pi)."""
    cfg = McConfig(prof.halfspace_samples, derive_seed(seed, "halfspace"))
    est = mcmod.mc_halfspace_gaussian_shell(3, cfg)
    target = 1.0 / math.sqrt(2.0 * math.pi)
    return [
        BoundReport.compare(
            "gaussian-halfspace", 3.0 * est.std_error, abs(est.value - target)
        )
    ]


def check_gaussian_surface_bound(seed: int, prof: Profile) -> list[BoundReport]:
    """Gaussian shell estimates stay under max(C, C/r) (loose by design): each
    is mc.union_measures' Gaussian surface at delta = r / 1000 (see the table
    in mc), exact under L-inf and from mc_samples draws under L2."""
    g = chunk_generator(derive_seed(seed, "gaussian-surface"), 0)
    shapes = [(dim, norm) for dim in (2, 3) for norm in (NormKind.L2, NormKind.LINF)]

    def excess(k):
        dim, norm = shapes[k]
        r = float(g.uniform(0.3, 1.5))
        centers = PointSet(uniform_in_ball(g, int(g.integers(1, 9)), dim) * 1.5)
        spec = ParallelSetSpec(base=centers, norm=norm, radius=r)
        cfg = McConfig(prof.mc_samples, derive_seed(seed, "gsurf", k))
        (shell,) = mcmod.union_measures(spec, ("gaussian-surface",), cfg)
        return shell.lower - gaussian_surface_bound(dim, r, 1.0, norm)

    return [BoundReport.sweep("gaussian-surface-bound", 0.0, map(excess, range(len(shapes))))]


# ---------------------------------------------------------------------------
# reverse Brunn-Minkowski
# ---------------------------------------------------------------------------


def check_reverse_bm(seed: int, prof: Profile) -> list[BoundReport]:
    """Minkowski-sum volume vs volume product times 2^(4d)/(omega_d r^d).

    The sum of two radius-r disk unions is the disk union of all pairwise
    centre sums with radius 2r.  The sum volume is measured by Monte Carlo on
    that membership; the two factor volumes come from the exact planar area.
    The sum volume is also cross-checked against the exact area, which is
    available in 2-d.
    """
    g = chunk_generator(derive_seed(seed, "reverse-bm"), 0)
    samples = max(1000, prof.mc_samples // 5)

    def excesses(k):
        r = float(g.uniform(0.5, 1.2))
        k_pts = _ball_config(g, 8)
        l_pts = _ball_config(g, 8)
        vol_k = ex2.disk_union_area(PointSet(k_pts), r)
        vol_l = ex2.disk_union_area(PointSet(l_pts), r)
        sum_set = PointSet((k_pts[:, None, :] + l_pts[None, :, :]).reshape(-1, 2))
        est = mcmod.mc_volume(
            ParallelSetSpec(base=sum_set, norm=NormKind.L2, radius=2.0 * r),
            McConfig(samples=samples, seed=derive_seed(seed, "bm-mc", k)),
        )
        bound = vol_k * vol_l * reverse_bm_bound(2, r)
        exact_sum = ex2.disk_union_area(sum_set, 2.0 * r)
        gap = abs(est.value - exact_sum)
        return est.lower - bound, BoundReport.compare("mc-vs-exact", 0.0, gap, est.std_error).excess

    rows = [excesses(k) for k in range(50)]
    return [
        BoundReport.sweep("reverse-bm", 0.0, (bm for bm, _ in rows)),
        BoundReport.sweep("reverse-bm-mc-vs-exact", 0.0, (gap for _, gap in rows)),
    ]


# ---------------------------------------------------------------------------
# robust risk checks
# ---------------------------------------------------------------------------


def check_dr_oracle(seed: int, prof: Profile) -> list[BoundReport]:
    """Matching cost equals brute force; weighted solver agrees on uniform
    inputs (both comparisons exact)."""
    g = chunk_generator(derive_seed(seed, "dr-oracle"), 0)

    def draw(max_n, max_dim):
        n = int(g.integers(1, max_n))
        dim = int(g.integers(1, max_dim))
        x = PointSet(g.standard_normal((n, dim)))
        y = PointSet(g.standard_normal((n, dim)))
        return x, y, float(g.uniform(0.05, 1.5))

    # every instance is drawn first, in the order of the two sweeps, and each
    # sweep's matchings are one solve
    brute = [draw(8, 4) for _ in range(prof.dr_draws)]
    weighted = [draw(12, 3) for _ in range(50)]
    mismatches = sum(
        res.value != tp.d_r_brute_force(x, y, r)
        for res, (x, y, r) in zip(tp.d_r_uniform_many(brute), brute)
    )
    uniform = tp.EmpiricalMeasure.uniform
    disagreements = sum(
        res.value_exact != tp.d_r_weighted(uniform(x), uniform(y), r).value_exact
        for res, (x, y, r) in zip(tp.d_r_uniform_many(weighted), weighted)
    )
    return [
        BoundReport.compare("dr-brute-force-agreement", 0.0, float(mismatches)),
        BoundReport.compare("dr-weighted-uniform-agreement", 0.0, float(disagreements)),
    ]


def check_w1_domination_sweep(seed: int, prof: Profile) -> list[BoundReport]:
    g = chunk_generator(derive_seed(seed, "w1-dom"), 0)

    def excess(_):
        n = int(g.integers(2, 51))
        dim = int(g.integers(1, 4))
        x = PointSet(g.standard_normal((n, dim)) * float(g.uniform(0.5, 2.0)))
        y = PointSet(g.standard_normal((n, dim)) + g.uniform(-1, 1, dim))
        r = float(g.uniform(0.05, 1.0))
        return tp.check_w1_domination(
            tp.EmpiricalMeasure.uniform(x), tp.EmpiricalMeasure.uniform(y), r
        ).measured

    return [
        BoundReport.sweep(
            "w1-domination-sweep", tp._W1_MARGIN, map(excess, range(prof.w1_pairs))
        )
    ]


def check_coupling_sandwich(seed: int, prof: Profile) -> list[BoundReport]:
    g = chunk_generator(derive_seed(seed, "sandwich"), 0)

    def measure(dim, scale, shift):
        n = int(g.integers(2, 31))
        pts = PointSet(g.standard_normal((n, dim)) * scale + shift)
        return tp.EmpiricalMeasure.uniform(pts)

    def excess(_):
        dim = int(g.integers(1, 4))
        r = float(g.uniform(0.3, 1.2))
        eta = min(float(g.uniform(0.02, 0.33)) * r, r / 3.0 * 0.95)
        mu0 = measure(dim, 1.0, 0.0)
        mu1 = measure(dim, float(g.uniform(0.5, 1.5)), float(g.uniform(-1, 1)))
        mu0n = measure(dim, 1.0, float(g.uniform(-0.2, 0.2)))
        mu1n = measure(dim, 1.0, float(g.uniform(-0.2, 0.2)))
        return tp.coupling_sandwich_check(mu0, mu1, mu0n, mu1n, r, eta).measured

    excesses = map(excess, range(prof.sandwich_count))
    return [BoundReport.sweep("coupling-sandwich-sweep", 0.0, excesses)]


def check_convergence(seed: int, prof: Profile) -> list[BoundReport]:
    """Plug-in cost deviation shrinks along the sample grid (separated case)."""
    r = 0.5
    gen0 = tp.DistributionSpec(kind="gaussian-mixture", dim=2, atoms=((0.0, 0.0),))
    gen1 = tp.DistributionSpec(kind="gaussian-mixture", dim=2, atoms=((10.0 * r, 0.0),))
    result = tp.convergence_experiment(
        gen0,
        gen1,
        r=r,
        sigma=0.2,
        n_grid=prof.convergence_grid,
        trials=prof.convergence_trials,
        seed=derive_seed(seed, "convergence"),
    )
    meds = [result.medians[n] for n in sorted(result.medians)]
    inversions = sum(1 for a, b in zip(meds, meds[1:]) if b > a + 1e-12)
    return [
        BoundReport.compare("convergence-median-inversions", 1.0, float(inversions)),
        BoundReport.compare("convergence-final-median", 0.05, meds[-1]),
    ]


# ---------------------------------------------------------------------------
# entropy checks
# ---------------------------------------------------------------------------


def check_reverse_epi(seed: int, prof: Profile) -> list[BoundReport]:
    # single atoms: all three entropies analytic
    r = 0.7
    d = 2
    lhs = 0.5 * d * math.log(2.0 * math.pi * math.e * 2.0 * r)
    rhs = d * math.log(2.0 * math.pi * math.e * r) + reverse_epi_constant(d, r)
    reports = [BoundReport.compare("reverse-epi-analytic", rhs, lhs)]
    g = chunk_generator(derive_seed(seed, "epi"), 0)

    def excess(_):
        r = float(g.uniform(0.2, 1.5))
        kx = int(g.integers(1, 5))
        ky = int(g.integers(1, 5))
        wx = g.random(kx) + 0.1
        wy = g.random(ky) + 0.1
        gm_x = ent.GaussianMixture(g.uniform(-3, 3, (kx, 1)), wx / wx.sum(), r)
        gm_y = ent.GaussianMixture(g.uniform(-3, 3, (ky, 1)), wy / wy.sum(), r)
        rep = ent.reverse_epi_check(gm_x, gm_y)[0]
        return rep.measured - rep.bound_value

    reports.append(BoundReport.sweep("reverse-epi-random", 1e-6, map(excess, range(20))))
    # widely separated atoms: the gap approaches -(d/2) ln(pi e r)
    r = 0.3
    sep = 40.0 * math.sqrt(r)
    gm_x = ent.GaussianMixture(atoms=[[0.0], [sep]], weights=[0.5, 0.5], variance=r)
    gm_y = ent.GaussianMixture(atoms=[[0.0], [3.0 * sep]], weights=[0.5, 0.5], variance=r)
    rep, h_x, h_y = ent.reverse_epi_check(gm_x, gm_y)
    gap = rep.measured - h_x.value - h_y.value
    target = -0.5 * math.log(math.pi * math.e * r)
    reports.append(BoundReport.compare("reverse-epi-far-gap", 0.02, abs(gap - target)))
    return reports


def check_fisher_de_bruijn(seed: int, prof: Profile) -> list[BoundReport]:
    g = chunk_generator(derive_seed(seed, "fisher"), 0)

    def fisher_excess(k):
        dim = int(g.integers(1, 4))
        n_atoms = int(g.integers(1, 5))
        w = g.random(n_atoms) + 0.1
        gm = ent.GaussianMixture(
            atoms=g.uniform(-2, 2, (n_atoms, dim)),
            weights=w / w.sum(),
            variance=float(g.uniform(0.3, 1.5)),
        )
        est = ent._fisher_auto(gm, n=prof.entropy_samples, seed=derive_seed(seed, "fisher", k))
        return est.lower - gm.dim / gm.variance

    def de_bruijn_excess(_):
        n_atoms = int(g.integers(1, 4))
        w = g.random(n_atoms) + 0.1
        rep = ent.de_bruijn_check(
            atoms=g.uniform(-2, 2, (n_atoms, 1)),
            weights=w / w.sum(),
            t0=float(g.uniform(0.5, 1.5)),
        )
        return rep.measured - rep.bound_value

    return [
        BoundReport.sweep("fisher-bound-sweep", 0.0, map(fisher_excess, range(20))),
        BoundReport.sweep("de-bruijn-sweep", 0.0, map(de_bruijn_excess, range(10))),
    ]


# ---------------------------------------------------------------------------
# suite runner
# ---------------------------------------------------------------------------

# suite -> {check name -> check(seed, prof)}; "all" runs every suite in this order
_SUITE_CHECKS = {
    "euclidean": {
        "b-puzzle": check_b_puzzle,
        "c-puzzle": check_c_puzzle,
        # the name outlives the raster: benchmarks/perf/workloads.py leaves it out by name
        "exact-vs-raster": check_exact_vs_raster,
        "volume-constrained": check_volume_constrained,
        "kneser": check_kneser,
        "inscribed-angle": check_inscribed_angle,
    },
    "gaussian": {
        "gaussian-calibration": check_gaussian_calibration,
        "gaussian-surface-bound": check_gaussian_surface_bound,
    },
    "brunn-minkowski": {"reverse-bm": check_reverse_bm},
    "robust-risk": {
        "dr-oracle": check_dr_oracle,
        "w1-domination": check_w1_domination_sweep,
        "coupling-sandwich": check_coupling_sandwich,
        "convergence": check_convergence,
    },
    "epi": {"reverse-epi": check_reverse_epi, "fisher-de-bruijn": check_fisher_de_bruijn},
}
CHECKS = {name: fn for checks in _SUITE_CHECKS.values() for name, fn in checks.items()}
SUITES = {suite: tuple(checks) for suite, checks in _SUITE_CHECKS.items()}
SUITES["all"] = tuple(CHECKS)


def _fmt_float(x: float | None) -> str:
    return "" if x is None else f"{x:.17g}"


_REPORT_FIELDS = (
    "suite", "check", "bound_name", "bound_value", "measured", "std_error", "slack", "verdict"
)


def _report_row(suite: str, check: str, rep: BoundReport) -> dict:
    floats = map(_fmt_float, (rep.bound_value, rep.measured, rep.std_error, rep.slack))
    return dict(zip(_REPORT_FIELDS, (suite, check, rep.bound_name, *floats, rep.verdict.value)))


def write_reports(path, suite: str, reports, fmt: str = "csv") -> None:
    """Write (check, BoundReport) pairs as CSV, or as a JSON list when fmt is "json"."""
    rows = [_report_row(suite, check, rep) for check, rep in reports]
    with open(path, "w", newline="") as fh:
        if fmt == "json":
            json.dump(rows, fh, indent=2, sort_keys=True)
            fh.write("\n")
        else:
            writer = csv.DictWriter(fh, fieldnames=_REPORT_FIELDS)
            writer.writeheader()
            writer.writerows(rows)


def report_line(check: str | None, rep: BoundReport) -> str:
    """The console line for one report: [VERDICT] check/bound: measured=... bound=..."""
    name = rep.bound_name if check is None else f"{check}/{rep.bound_name}"
    return (f"[{rep.verdict.value.upper()}] {name}: "
            f"measured={_fmt_float(rep.measured)} bound={_fmt_float(rep.bound_value)}")


def run_suite(
    suite_name: str,
    seed: int,
    samples: int | None = None,
    workers: int = 1,
    out_dir=None,
    fmt: str = "csv",
    log=None,
) -> list[BoundReport]:
    """Run one suite and return its reports; with out_dir set, write its
    results (CSV, or JSON when fmt is "json") and a timing manifest there.
    The checks run inside _rng.threads(workers), which no result depends on."""
    if suite_name not in SUITES:
        raise InvalidArgumentError(
            f"unknown suite {suite_name!r}; choose from {', '.join(SUITES)}"
        )
    if samples is not None and samples < 1:
        raise InvalidArgumentError("samples must be >= 1")
    if out_dir is not None:  # a path that cannot be a directory fails before any check
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    prof = profile_from_samples(samples)
    started = time.monotonic()
    collected: list[tuple[str, BoundReport]] = []
    with threads(workers):
        for check_name in SUITES[suite_name]:
            for rep in CHECKS[check_name](seed, prof):
                collected.append((check_name, rep))
                if log is not None:
                    log(report_line(check_name, rep))
    wall = time.monotonic() - started
    reports = [rep for _, rep in collected]
    if out_dir is not None:
        results = "results.json" if fmt == "json" else "results.csv"
        write_reports(Path(out_dir) / results, suite_name, collected, fmt)
        manifest = dict(
            suite=suite_name, seed=seed, samples=samples, workers=workers, version=__version__,
            wall_time_s=wall, n_reports=len(reports), all_pass=all_pass(reports),
        )
        (Path(out_dir) / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return reports
