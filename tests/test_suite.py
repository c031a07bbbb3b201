import dataclasses
import hashlib
import json
import math
import types

import numpy as np
import pytest

import parset
from parset import BoundReport, InvalidArgumentError, Verdict
from parset.cli import main
from parset.experiment import ExperimentConfig, load_experiment_config, run_verify_experiment
from parset import _rng
from parset import entropy as ent
from parset import mc as mcmod
from parset import suite as suite_mod
from parset.suite import (
    FULL,
    SUITES,
    profile_from_samples,
    run_suite,
)


# sha256 of results.csv for `parset suite all --samples S --seed K --workers 1`,
# taken with these numpy and scipy versions; others may round differently
_RESULTS_SHA256 = {
    (100, 0): "6721e445344eaa0b8e734062d9e18b5ed5e41b6f96b080b1e55e37a325c028ab",
    (20000, 3): "da55793b016d78b03a7824fe59fec58dd80d14636deb329d93d5b5dde929402c",
}
_RESULTS_VERSIONS = {"numpy": "2.4.6", "scipy": "1.17.1"}


@pytest.mark.parametrize(
    "samples, seed", list(_RESULTS_SHA256), ids=[f"samples{s}-seed{k}" for s, k in _RESULTS_SHA256]
)
def test_results_csv_digest_is_pinned(tmp_path, samples, seed):
    import numpy
    import scipy

    have = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    if have != _RESULTS_VERSIONS:
        pytest.skip(f"digest taken with {_RESULTS_VERSIONS}, running with {have}")
    argv = ["suite", "all", "--samples", str(samples), "--seed", str(seed), "--workers", "1",
            "--out", str(tmp_path)]
    assert main(argv) == 0
    digest = hashlib.sha256((tmp_path / "results.csv").read_bytes()).hexdigest()
    assert digest == _RESULTS_SHA256[samples, seed]


def test_profile_full_and_smoke():
    assert profile_from_samples(None) is FULL
    smoke = profile_from_samples(100)
    assert smoke.mc_samples == 100
    assert smoke.oracle_instances == 2
    # expected hits in the delta = 1e-3 shell of check_gaussian_calibration
    assert smoke.halfspace_samples * 0.5 * math.erf(1e-3 / math.sqrt(2.0)) >= 100.0
    assert profile_from_samples(10**6) is FULL


def test_smoke_gaussian_calibration_passes():
    reports = suite_mod.check_gaussian_calibration(0, profile_from_samples(100))
    assert reports[0].bound_value > 0.0  # 3 std_error: the shell is not empty
    assert reports[0].verdict is not Verdict.FAIL


def test_de_bruijn_sweep_passes_at_seed_4_smoke():
    # Monte Carlo put |slope - J/2| at 0.00775 here, past its 4-sigma allowance
    reports = suite_mod.check_fisher_de_bruijn(4, profile_from_samples(100))
    assert [r.verdict for r in reports] == [Verdict.PASS, Verdict.PASS]


def test_suites_cover_all_checks():
    named = set()
    for name, checks in SUITES.items():
        if name != "all":
            named.update(checks)
    assert set(SUITES["all"]) == named
    assert SUITES["all"] == tuple(suite_mod.CHECKS)


# every public name of the package, so that adding or removing an export is a
# deliberate change to this list
_PUBLIC_NAMES = [
    "ArcDecomposition", "BoundReport", "BoundarySegment", "DistributionSpec",
    "EmpiricalMeasure", "GaussianConstantBreakdown", "GaussianMixture",
    "InvalidArgumentError", "McConfig", "MeasureEstimate",
    "NormKind", "ParallelSetSpec", "PointSet", "Profile", "RangeOverflowError",
    "SUITES", "SegmentDecomposition",
    "TransportResult", "Verdict", "bound_bounded_support", "bound_shell_volume",
    "bound_union_in_ball", "bound_union_in_cube", "bound_volume_constrained",
    "check_w1_domination", "convergence_experiment",
    "convolve_mixtures", "coupling_sandwich_check", "cube_union_measures",
    "d_r_brute_force", "d_r_uniform", "d_r_uniform_many", "d_r_weighted",
    "de_bruijn_check", "disk_union_area", "disk_union_boundary",
    "disk_union_perimeter", "entropy_mc", "entropy_quadrature",
    "fisher_information_mc", "fisher_information_quadrature", "gaussian_constant",
    "gaussian_surface_bound", "inscribed_angle_check",
    "kneser_shell_check", "load_points", "load_points_csv", "load_points_json",
    "mc_gaussian_shell", "mc_halfspace_gaussian_shell", "mc_shell_lebesgue", "mc_volume",
    "mixture_density", "reverse_bm_bound",
    "reverse_epi_check", "reverse_epi_constant", "robust_risk", "run_suite",
    "sample_complexity_n0", "sample_distribution", "square_union_area",
    "square_union_boundary", "square_union_perimeter", "threads", "union_boundary", "union_measures",
    "w1_empirical",
]


def test_public_names_are_pinned():
    names = sorted(
        name
        for name, value in vars(parset).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == _PUBLIC_NAMES


# the fields of every public dataclass, so that adding or removing a field is
# a deliberate change to this table
_PUBLIC_FIELDS = {
    "ArcDecomposition": ["arcs", "radius", "centers"],
    "BoundReport": ["bound_name", "bound_value", "measured", "std_error"],
    "BoundarySegment": ["orientation", "fixed_coord", "span_start", "span_end", "outward_sign"],
    "DistributionSpec": ["kind", "dim", "atoms", "weights", "sigma", "center", "radius"],
    "EmpiricalMeasure": ["points", "weights"],
    "GaussianConstantBreakdown": ["constant_C", "lower_sandwich", "upper_sandwich"],
    "GaussianMixture": ["atoms", "weights", "variance"],
    "McConfig": ["samples", "seed", "shell_delta"],
    "MeasureEstimate": ["value", "std_error", "samples_used"],
    "ParallelSetSpec": ["base", "norm", "radius"],
    "PointSet": ["points"],
    "Profile": [
        "mc_samples", "halfspace_samples", "shell3d_samples", "kneser_samples",
        "angle_directions", "angle_pairs", "entropy_samples", "oracle_instances",
        "random_configs", "dr_draws", "w1_pairs", "sandwich_count", "convergence_grid",
        "convergence_trials",
    ],
    "SegmentDecomposition": ["segments"],
    "TransportResult": ["value", "certificate", "value_exact"],
}


def test_public_fields_are_pinned():
    fields = {
        name: [f.name for f in dataclasses.fields(value)]
        for name in _PUBLIC_NAMES
        if dataclasses.is_dataclass(value := getattr(parset, name)) and isinstance(value, type)
    }
    assert fields == _PUBLIC_FIELDS


def test_run_suite_unknown_name():
    with pytest.raises(InvalidArgumentError):
        run_suite("bogus", 1)


def test_run_suite_writes_outputs(tmp_path):
    reports = run_suite("brunn-minkowski", 7, samples=1500, out_dir=str(tmp_path), fmt="json")
    assert [rep.verdict for rep in reports] == [Verdict.PASS] * 2
    rows = json.loads((tmp_path / "results.json").read_text())
    assert rows and rows[0]["suite"] == "brunn-minkowski"
    meta = json.loads((tmp_path / "manifest.json").read_text())
    assert sorted(meta) == [
        "all_pass", "n_reports", "samples", "seed", "suite", "version", "wall_time_s", "workers"
    ]
    assert meta["all_pass"] is True
    assert meta["version"] == parset.__version__
    assert meta["wall_time_s"] > 0.0
    assert (meta["suite"], meta["seed"], meta["samples"], meta["workers"]) == (
        "brunn-minkowski", 7, 1500, 1
    )
    assert meta["n_reports"] == len(reports)


def test_run_suite_deterministic_results(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        run_suite("epi", 3, samples=1500, out_dir=str(out))
    assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()


def test_experiment_config_validation(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"name": "x", "module": "bounds", "seed": 1, "oops": 2}))
    with pytest.raises(InvalidArgumentError, match="oops"):
        load_experiment_config(path)
    path.write_text(json.dumps({"name": "x", "module": "nope", "seed": 1}))
    with pytest.raises(InvalidArgumentError, match="module"):
        load_experiment_config(path)
    path.write_text(json.dumps({"name": "x", "module": "bounds"}))
    with pytest.raises(InvalidArgumentError, match="seed"):
        load_experiment_config(path)
    # a seed is a JSON integer: 1.5 used to run at seed 1, true at seed 1
    for seed in (1.5, True, "1"):
        path.write_text(json.dumps({"name": "x", "module": "bounds", "seed": seed}))
        with pytest.raises(InvalidArgumentError, match="seed: need an integer"):
            load_experiment_config(path)


def test_experiment_output_path_is_a_path(tmp_path):
    # a number used to reach open() as a file descriptor
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"name": "x", "module": "bounds", "seed": 1, "output_path": 5}))
    assert load_experiment_config(path).output_path == "5"


def test_verify_experiment_not_compared():
    # premise violated: points spread wider than the dilation radius
    cfg = ExperimentConfig(
        name="wide",
        module="bounds",
        parameters={
            "points": [[0.0, 0.0], [9.0, 0.0]],
            "norm": "l2",
            "radius": 1.0,
            "samples": 5000,
            "checks": ["union-in-ball", "volume-constrained"],
        },
        seed=2,
    )
    reports = run_verify_experiment(cfg)
    by_name = {r.bound_name: r for r in reports}
    assert by_name["union-in-ball"].verdict is Verdict.NOT_COMPARED
    assert by_name["volume-constrained"].verdict is Verdict.PASS


def test_verify_volume_constrained_takes_one_draw():
    # off the plane the volume and the shell come from the shell's draw, which
    # the containment check shares
    from parset._rng import derive_seed
    from parset.bounds import bound_volume_constrained
    from parset.geometry import NormKind, ParallelSetSpec, PointSet

    points = [[0.0, 0.0, 0.0], [0.4, -0.3, 0.2]]
    params = {"points": points, "norm": "l2", "radius": 1.0, "samples": 6000, "delta": 0.01,
              "checks": ["union-in-ball", "volume-constrained"]}
    reports = run_verify_experiment(ExperimentConfig("one-draw", "bounds", params, seed=4))
    by_name = {r.bound_name: r for r in reports}
    spec = ParallelSetSpec(PointSet(points), NormKind.L2, 1.0)
    vol, shell = mcmod.union_measures(
        spec, ("volume", "surface"), mcmod.McConfig(samples=6000, seed=derive_seed(4, "shell"), shell_delta=0.01))
    assert by_name["volume-constrained"] == BoundReport.compare(
        "volume-constrained", bound_volume_constrained(3, 1.0, vol.value + 4.0 * vol.std_error),
        shell.value, shell.std_error)
    assert (by_name["union-in-ball"].measured, by_name["union-in-ball"].std_error) == (
        shell.value, shell.std_error)


def _union_in_ball(points, radius):
    params = {"points": points, "norm": "l2", "radius": radius, "checks": ["union-in-ball"]}
    (report,) = run_verify_experiment(ExperimentConfig("ball", "bounds", params, seed=0))
    return report


# an equilateral triangle of circumradius 1: its bounding box's centre
# (0, 0.25) is 1.146 from two vertices, the smallest ball's centre 1 + 7e-16
# from each
_TRIANGLE = [[0.0, 1.0], [-math.sqrt(3.0) / 2.0, -0.5], [math.sqrt(3.0) / 2.0, -0.5]]


def test_verify_union_in_ball_measures_the_smallest_enclosing_ball():
    from parset.bounds import bound_union_in_ball
    from parset.exact2d import union_boundary
    from parset.geometry import NormKind, PointSet

    perimeter = union_boundary(PointSet(_TRIANGLE), 1.001, NormKind.L2).perimeter()
    assert _union_in_ball(_TRIANGLE, 1.001) == BoundReport.compare(
        "union-in-ball", bound_union_in_ball(2, 1.001), perimeter, 0.0)
    assert _union_in_ball(_TRIANGLE, 0.99).verdict is Verdict.NOT_COMPARED


def test_verify_union_in_ball_compares_from_the_measured_radius():
    # the radius is the largest distance from the rounded centre, so at the
    # circumradius itself rounding may leave the set a few ulps outside, and it
    # is compared from that measured radius on, not an ulp below it
    from parset.experiment import _enclosing_radius
    from parset.geometry import NormKind

    reach = _enclosing_radius(np.array(_TRIANGLE), NormKind.L2)
    assert abs(reach - 1.0) < 1e-15
    assert _union_in_ball(_TRIANGLE, reach).verdict is not Verdict.NOT_COMPARED
    assert _union_in_ball(_TRIANGLE, math.nextafter(reach, 0.0)).verdict is Verdict.NOT_COMPARED


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_enclosing_radius_is_the_smallest_ball(dim):
    # the smallest ball's centre lies in the convex hull of the points on its
    # sphere; sorted, circular, repeated and random sets of 1-300 points
    from scipy.optimize import linprog

    from parset.experiment import _ball_center, _enclosing_radius
    from parset.geometry import NormKind

    rng = np.random.default_rng(dim)
    line = np.zeros((300, dim))
    line[:, 0] = np.linspace(0.0, 1.0, 300)
    sphere = rng.standard_normal((300, dim))
    sphere /= np.linalg.norm(sphere, axis=1)[:, None]
    sets = [line, sphere, np.repeat(rng.standard_normal((4, dim)), 20, axis=0), np.zeros((1, dim))]
    sets += [np.round(rng.standard_normal((int(rng.integers(1, 40)), dim)) * 2.0) for _ in range(40)]
    sets += [rng.standard_normal((int(rng.integers(1, 300)), dim)) for _ in range(40)]
    for points in sets:
        reach = _enclosing_radius(points, NormKind.L2)
        box = 0.5 * (points.min(axis=0) + points.max(axis=0))
        assert reach <= np.linalg.norm(points - box, axis=1).max() + 1e-12
        center = _ball_center(points)
        dist = np.linalg.norm(points - center, axis=1)
        assert abs(dist.max() - reach) <= 1e-12 * (1.0 + reach)
        rim = points[dist >= reach * (1.0 - 1e-9)]
        hull = linprog(np.zeros(len(rim)), A_eq=np.vstack([rim.T, np.ones(len(rim))]),
                       b_eq=np.append(center, 1.0), bounds=(0.0, None))
        assert hull.status == 0, (dim, len(points))


@pytest.mark.parametrize("norm", ["l2", "linf"])
def test_verify_plane_measures_one_exact_boundary(monkeypatch, norm):
    # in the plane the area (with its rounding allowance) and the perimeter
    # (std_error 0) are exact, from one boundary that the containment and
    # volume checks share
    from parset.bounds import bound_union_in_ball, bound_union_in_cube, bound_volume_constrained
    from parset.geometry import NormKind, ParallelSetSpec, PointSet

    points = [[0.0, 0.0], [0.5, -0.3], [0.1, 0.4]]
    spec = ParallelSetSpec(PointSet(points), NormKind.parse(norm), 1.0)
    (volume,) = mcmod.union_measures(spec, ("volume",), mcmod.McConfig(samples=10, seed=0))
    union_boundary, boundaries = mcmod.exact2d.union_boundary, []

    def counted(*args):
        boundaries.append(union_boundary(*args))
        return boundaries[-1]

    monkeypatch.setattr(mcmod.exact2d, "union_boundary", counted)
    params = {"points": points, "norm": norm, "radius": 1.0, "samples": 10,
              "checks": ["union-in-ball", "union-in-cube", "volume-constrained"]}
    reports = run_verify_experiment(ExperimentConfig("plane", "bounds", params, seed=4))
    assert len(boundaries) == 1
    perimeter = boundaries[0].perimeter()
    assert volume.value == boundaries[0].area() and volume.std_error > 0.0
    cap = bound_union_in_ball(2, 1.0) if norm == "l2" else bound_union_in_cube(2, 1.0)
    name = "union-in-ball" if norm == "l2" else "union-in-cube"
    by_name = {r.bound_name: r for r in reports}
    assert by_name[name] == BoundReport.compare(name, cap, perimeter, 0.0)
    assert by_name["volume-constrained"] == BoundReport.compare(
        "volume-constrained", bound_volume_constrained(2, 1.0, volume.upper), perimeter, 0.0)


@pytest.mark.parametrize(
    "check, module, primitive, wrap, count, values",
    [
        ("c-puzzle", suite_mod.ex2, "square_union_perimeter", float, "random_configs",
         [1.0, math.nan, 2.0, 3.0]),
        ("w1-domination", suite_mod.tp, "check_w1_domination",
         lambda v: BoundReport.compare("w1-domination", 0.0, v), "w1_pairs",
         [0.0, math.nan, 1.0, 2.0]),
        ("c-puzzle", suite_mod.ex2, "square_union_perimeter", float, "random_configs", []),
    ],
    ids=["c-puzzle", "w1-domination", "c-puzzle-no-instances"],
)
def test_nan_instance_fails_its_check(monkeypatch, check, module, primitive, wrap, count, values):
    # a NaN instance is kept as the worst, and a sweep of no instances reads -inf
    left = iter(values)
    monkeypatch.setattr(module, primitive, lambda *a: wrap(next(left)))
    (rep,) = suite_mod.CHECKS[check](0, dataclasses.replace(FULL, **{count: len(values)}))
    assert math.isnan(rep.measured) if values else rep.measured == -math.inf
    assert rep.verdict is Verdict.FAIL


def test_suite_workers_reach_every_chunked_estimate(tmp_path, monkeypatch):
    # the thread count of the scope each chunked reduction runs in
    seen = []
    for module in (mcmod, ent):

        def recording(seed, total, chunk_fn, real=module.map_reduce_chunks):
            seen.append(_rng._THREADS.get())
            return real(seed, total, chunk_fn)

        monkeypatch.setattr(module, "map_reduce_chunks", recording)
    written = []
    for workers in (1, 2):
        seen.clear()
        out = tmp_path / str(workers)
        run_suite("all", 0, samples=100, workers=workers, out_dir=str(out))
        assert seen and set(seen) == {workers}
        written.append((out / "results.csv").read_bytes())
    assert written[0] == written[1]
    with pytest.raises(InvalidArgumentError, match="workers"):
        run_suite("epi", 0, workers=0)


def test_each_transport_sweep_is_one_matching_solve(monkeypatch):
    # each max_matching call pays about 0.7 ms of scipy set-up, so a sweep's
    # instances share one solve
    from parset import _kernels

    calls = []

    def counting(graphs, real=_kernels.max_matching):
        calls.append(sum(len(indptr) - 1 for indptr, _, _ in graphs))  # left nodes
        return real(graphs)

    monkeypatch.setattr(_kernels, "max_matching", counting)
    reports = suite_mod.CHECKS["dr-oracle"](0, profile_from_samples(100))
    assert [rep.verdict for rep in reports] == [Verdict.PASS] * 2
    assert len(calls) <= 2
    calls.clear()
    gen = suite_mod.tp.DistributionSpec(kind="uniform-ball", dim=2)
    result = suite_mod.tp.convergence_experiment(
        gen, gen, r=0.2, sigma=0.0, n_grid=(5, 10, 20), trials=4, seed=0
    )
    assert len(result.rows) == 12
    # the reference is solved alone: in a sweep its graph would set the number
    # of Dinic phases for all the trials
    assert calls == [8 * 20, 4 * (5 + 10 + 20)]
