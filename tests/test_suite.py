import dataclasses
import hashlib
import json
import math

import pytest

import parset
from parset import BoundReport, InvalidArgumentError, Verdict
from parset.cli import main
from parset.experiment import ExperimentConfig, load_experiment_config, run_verify_experiment
from parset import entropy as ent
from parset import mc as mcmod
from parset import suite as suite_mod
from parset.suite import (
    FULL,
    SUITES,
    SuiteConfig,
    profile_from_samples,
    run_suite,
)


# sha256 of results.csv for `parset suite all --samples 100 --seed 0 --workers 1`,
# taken with these numpy and scipy versions; others may round differently
_RESULTS_SHA256 = "049570a2a6453c5ea9394f48ecf43211916268ea347cb77055c839ac193a8130"
_RESULTS_VERSIONS = {"numpy": "2.4.6", "scipy": "1.17.1"}


def test_results_csv_digest_is_pinned(tmp_path):
    import numpy
    import scipy

    have = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    if have != _RESULTS_VERSIONS:
        pytest.skip(f"digest taken with {_RESULTS_VERSIONS}, running with {have}")
    argv = ["suite", "all", "--samples", "100", "--seed", "0", "--workers", "1", "--out", str(tmp_path)]
    assert main(argv) == 0
    digest = hashlib.sha256((tmp_path / "results.csv").read_bytes()).hexdigest()
    assert digest == _RESULTS_SHA256


def test_profile_full_and_smoke():
    assert profile_from_samples(None) is FULL
    smoke = profile_from_samples(100)
    assert smoke.mc_samples == 100
    assert smoke.raster_instances == 2
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


def test_run_suite_unknown_name():
    with pytest.raises(InvalidArgumentError):
        run_suite("bogus", SuiteConfig(seed=1))


def test_run_suite_writes_outputs(tmp_path):
    cfg = SuiteConfig(seed=7, samples=1500, out_dir=str(tmp_path), fmt="json")
    manifest = run_suite("brunn-minkowski", cfg)
    assert manifest.all_pass()
    rows = json.loads((tmp_path / "results.json").read_text())
    assert rows and rows[0]["suite"] == "brunn-minkowski"
    meta = json.loads((tmp_path / "manifest.json").read_text())
    assert meta["all_pass"] is True
    assert meta["version"] == parset.__version__
    assert meta["wall_time_s"] > 0.0


def test_run_suite_deterministic_results(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        run_suite("epi", SuiteConfig(seed=3, samples=1500, out_dir=str(out)))
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
    seen = []
    for module in (mcmod, ent):

        def recording(seed, total, workers, chunk_fn, real=module.map_reduce_chunks):
            seen.append(workers)
            return real(seed, total, workers, chunk_fn)

        monkeypatch.setattr(module, "map_reduce_chunks", recording)
    written = []
    for workers in (1, 2):
        seen.clear()
        out = tmp_path / str(workers)
        run_suite("all", SuiteConfig(seed=0, samples=100, workers=workers, out_dir=str(out)))
        assert seen and set(seen) == {workers}
        written.append((out / "results.csv").read_bytes())
    assert written[0] == written[1]
    with pytest.raises(InvalidArgumentError, match="workers"):
        run_suite("epi", SuiteConfig(seed=0, workers=0))
