import argparse
import csv
import inspect
import json
import math
import subprocess
import sys

import pytest

from parset import PointSet, transport
from parset.cli import build_parser, main
from parset.transport import EmpiricalMeasure, d_r_weighted


def _no_constant(name):
    raise ValueError(f"CLI output holds {name}, which strict JSON lacks")


def strict_loads(text):
    """json.loads that fails on NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_no_constant)


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "parset", *args], capture_output=True, text=True
    )
    return proc


@pytest.fixture
def centers_csv(tmp_path):
    path = tmp_path / "centers.csv"
    path.write_text("x0,x1\n0,0\n1,0\n")
    return path


def test_exact2d_disk(tmp_path, centers_csv):
    out = tmp_path / "res.json"
    boundary = tmp_path / "arcs.csv"
    rc = main(
        [
            "exact2d",
            "--shape",
            "disk",
            "--centers",
            str(centers_csv),
            "--radius",
            "1.0",
            "--area",
            "--boundary-out",
            str(boundary),
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    payload = strict_loads(out.read_text())
    lens = 2.0 * math.acos(0.5) - 0.5 * math.sqrt(3.0)
    assert payload["area"] == pytest.approx(2.0 * math.pi - lens)
    rows = list(csv.DictReader(boundary.open()))
    assert rows and set(rows[0]) == {"center_index", "theta_start", "theta_end"}


def test_exact2d_square(tmp_path, centers_csv):
    out = tmp_path / "res.json"
    rc = main(
        ["exact2d", "--shape", "square", "--centers", str(centers_csv), "--radius", "1.0", "--out", str(out)]
    )
    assert rc == 0
    assert strict_loads(out.read_text())["perimeter"] == pytest.approx(10.0)


def test_mc_volume(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"points": [[0.0, 0.0]], "norm": "l2", "radius": 1.0}))
    out = tmp_path / "v.json"
    rc = main(
        ["mc", "--op", "volume", "--spec", str(spec), "--samples", "50000", "--seed", "7", "--out", str(out)]
    )
    assert rc == 0
    payload = strict_loads(out.read_text())
    assert abs(payload["value"] - math.pi) <= 4.0 * payload["std_error"]
    assert payload["samples"] == 50000


def test_mc_determinism(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"points": [[0.0, 0.0, 0.0]], "norm": "l2", "radius": 1.0}))
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        assert main(["mc", "--op", "volume", "--spec", str(spec), "--samples", "40000", "--seed", "3", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_bounds_list_and_eval(tmp_path):
    out = tmp_path / "l.json"
    assert main(["bounds", "--list", "--out", str(out)]) == 0
    # each bound's parameters in its signature's order
    assert {name: entry["parameters"] for name, entry in strict_loads(out.read_text()).items()} == {
        "bounded-support": ["d", "big_r", "r"],
        "gaussian-surface": ["d", "r", "sigma", "norm"],
        "reverse-bm": ["d", "r"],
        "reverse-epi-constant": ["d", "r"],
        "sample-complexity-n0": ["d", "sigma", "r", "eps", "delta", "c0", "c1"],
        "shell-volume": ["d", "r", "delta", "volume"],
        "union-in-ball": ["d", "r"],
        "union-in-cube": ["d", "r"],
        "volume-constrained": ["d", "r", "volume"],
    }
    out2 = tmp_path / "e.json"
    assert main(["bounds", "--eval", "reverse-bm", "--params", "d=1,r=1", "--out", str(out2)]) == 0
    assert strict_loads(out2.read_text())["value"] == pytest.approx(8.0)


def test_bounds_unknown_name():
    assert main(["bounds", "--eval", "nope"]) == 2


def test_bound_overflow_exit_2(capsys):
    # 2^800 / omega_200 is past double range: a usage error, not a traceback
    assert main(["bounds", "--eval", "reverse-bm", "--params", "d=200,r=1"]) == 2
    assert capsys.readouterr().err.startswith("error: reverse_bm_bound exceeds double range")


def test_verify_experiment(tmp_path, centers_csv):
    cfg = tmp_path / "exp.json"
    cfg.write_text(
        json.dumps(
            {
                "name": "demo",
                "module": "bounds",
                "seed": 5,
                "parameters": {
                    "points_file": str(centers_csv),
                    "norm": "l2",
                    "radius": 1.0,
                    "samples": 20000,
                    "checks": ["volume-constrained", "union-in-ball", "kneser"],
                },
            }
        )
    )
    out = tmp_path / "table.csv"
    rc = main(["verify", "--experiment", str(cfg), "--out", str(out)])
    assert rc == 0
    rows = list(csv.DictReader(out.open()))
    names = {row["bound_name"] for row in rows}
    assert {"volume-constrained", "union-in-ball", "kneser-shell"} <= names
    assert all(row["verdict"] in ("pass", "not-compared") for row in rows)


def test_verify_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(
        json.dumps(
            {
                "name": "demo",
                "module": "bounds",
                "seed": 5,
                "parameters": {"radious": 1.0},
            }
        )
    )
    proc = run_cli("verify", "--experiment", str(cfg))
    assert proc.returncode == 2
    assert "radious" in proc.stderr


def test_dr_command(tmp_path):
    mu0 = tmp_path / "mu0.csv"
    mu1 = tmp_path / "mu1.csv"
    mu0.write_text("x0\n0\n1\n2\n")
    mu1.write_text("x0\n0.5\n2.1\n9\n")
    out = tmp_path / "dr.json"
    rc = main(["dr", "--mu0", str(mu0), "--mu1", str(mu1), "--radius", "0.3", "--out", str(out)])
    assert rc == 0
    payload = strict_loads(out.read_text())
    assert payload["value"] == pytest.approx(1.0 / 3.0)
    assert payload["robust_risk"] == pytest.approx(1.0 / 3.0)


def test_dr_weighted_command(tmp_path):
    # unequal counts take the exact flow, with or without --weighted
    mu0 = tmp_path / "mu0.json"
    mu1 = tmp_path / "mu1.json"
    mu0.write_text(json.dumps({"points": [[0.0]], "weights": [1.0]}))
    mu1.write_text(json.dumps({"points": [[1.0], [1.5]], "weights": [0.5, 0.5]}))
    want = d_r_weighted(
        EmpiricalMeasure.uniform(PointSet([[0.0]])),
        EmpiricalMeasure.uniform(PointSet([[1.0], [1.5]])),
        0.5,
    ).value
    assert want == 0.5
    out = tmp_path / "dr.json"
    for flag in ([], ["--weighted"]):
        rc = main(["dr", "--mu0", str(mu0), "--mu1", str(mu1), "--radius", "0.5", *flag,
                   "--out", str(out)])
        assert rc == 0
        assert strict_loads(out.read_text())["value"] == want


def test_dr_reads_weights_without_the_flag(tmp_path):
    # equal counts with unequal weights: without --weighted the weights used to
    # be dropped, and the matching gave 0.0 where the weighted cost is 0.8
    mu0 = tmp_path / "mu0.json"
    mu1 = tmp_path / "mu1.json"
    mu0.write_text(json.dumps({"points": [[0.0], [1.0]], "weights": [0.9, 0.1]}))
    mu1.write_text(json.dumps({"points": [[0.0], [1.0]], "weights": [0.1, 0.9]}))
    texts = []
    for flag in ([], ["--weighted"]):
        out = tmp_path / f"dr{len(texts)}.json"
        assert main(["dr", "--mu0", str(mu0), "--mu1", str(mu1), "--radius", "0.1", *flag,
                     "--out", str(out)]) == 0
        texts.append(out.read_text())
    assert texts[0] == texts[1]
    assert strict_loads(texts[0])["value"] == pytest.approx(0.8)


def test_dr_uniform_json_takes_the_matching(tmp_path, monkeypatch):
    # equal counts and all-equal weights, given or not, never reach the flow
    def no_flow(*args):
        raise AssertionError("max flow called")

    monkeypatch.setattr(transport, "_max_flow", no_flow)
    files = {
        "mu0.json": {"points": [[0.0], [1.0], [5.0]]},
        "mu1.json": {"points": [[0.1], [3.0], [5.1]], "weights": [1.0 / 3.0] * 3},
        "mu2.json": {"points": [[0.1], [3.0], [5.1]]},
    }
    for name, content in files.items():
        (tmp_path / name).write_text(json.dumps(content))
    values = []
    for other in ("mu1.json", "mu2.json"):
        out = tmp_path / "dr.json"
        assert main(["dr", "--mu0", str(tmp_path / "mu0.json"), "--mu1", str(tmp_path / other),
                     "--radius", "0.1", "--weighted", "--out", str(out)]) == 0
        values.append(strict_loads(out.read_text())["value"])
    assert values == [1.0 / 3.0] * 2


def test_nan_weights_exit_2(tmp_path):
    # json reads NaN; a NaN weight is an invalid argument, not a crash or a NaN result
    (tmp_path / "mu0.json").write_text('{"points": [[0.0], [1.0]], "weights": [NaN, 1.0]}')
    (tmp_path / "mu1.json").write_text(json.dumps({"points": [[0.5]], "weights": [1.0]}))
    (tmp_path / "x.json").write_text('{"atoms": [[0.0], [2.0]], "weights": [NaN, 1.0]}')
    (tmp_path / "y.json").write_text(json.dumps({"atoms": [[0.0]]}))
    assert main(["dr", "--mu0", str(tmp_path / "mu0.json"), "--mu1", str(tmp_path / "mu1.json"),
                 "--radius", "0.5", "--weighted"]) == 2
    assert main(["epi", "--x", str(tmp_path / "x.json"), "--y", str(tmp_path / "y.json"),
                 "--smoothing", "0.5", "--samples", "1000", "--seed", "1"]) == 2


def test_truncated_json_exit_2(tmp_path, capsys):
    # a malformed input file is a usage error (2), not a traceback (1)
    bad = tmp_path / "bad.json"
    bad.write_text('{"points": [[0.0], [1.0')
    good = tmp_path / "good.json"
    good.write_text(json.dumps([[0.5]]))
    commands = (
        ["dr", "--mu0", str(bad), "--mu1", str(good), "--radius", "0.5"],
        ["dr", "--mu0", str(good), "--mu1", str(bad), "--radius", "0.5", "--weighted"],
        ["exact2d", "--shape", "disk", "--centers", str(bad), "--radius", "1.0"],
    )
    for argv in commands:
        assert main(argv) == 2
        assert f"error: {bad}: not valid JSON (" in capsys.readouterr().err


# name: (files to write, argv, the path the error names); each ended in a
# FileExistsError, IsADirectoryError or UnicodeDecodeError traceback and exit 1
BAD_PATHS = {
    "suite-out-is-a-file": ({"taken": ""}, ["suite", "gaussian", "--samples", "100", "--out", "taken"],
                            "taken"),
    "exact2d-out-is-a-directory": ({"c.csv": "x0,x1\n0,0\n", "out": None},
                                   ["exact2d", "--shape", "disk", "--centers", "c.csv",
                                    "--radius", "1", "--out", "out"], "out"),
    "dr-mu0-is-a-directory": ({"mu0": None, "mu1.json": {"points": [[0.5]]}},
                              ["dr", "--mu0", "mu0", "--mu1", "mu1.json", "--radius", "0.5"], "mu0"),
    "dr-mu0-not-utf8": ({"mu0.json": "[[0.0]]".encode("utf-16"), "mu1.json": {"points": [[0.5]]}},
                        ["dr", "--mu0", "mu0.json", "--mu1", "mu1.json", "--radius", "0.5"], "mu0.json"),
    "exact2d-centers-not-utf8": ({"c.csv": "x0,x1\n0,0\n".encode("utf-16")},
                                 ["exact2d", "--shape", "disk", "--centers", "c.csv", "--radius", "1"],
                                 "c.csv"),
}


@pytest.mark.parametrize("case", sorted(BAD_PATHS))
def test_bad_paths_exit_2(tmp_path, capsys, case):
    files, argv, where = BAD_PATHS[case]
    _write_files(tmp_path, files)
    assert main([str(tmp_path / a) if a in files else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
    assert str(tmp_path / where) in captured.err and "Traceback" not in captured.err
    assert captured.out == ""  # the suite fails before its first check


def test_json_integers_are_numbers(tmp_path):
    # a JSON integer reads as the float it spells, to the bit
    ints = _mc_payload(tmp_path, {"points": [[0, 0], [1, 0]], "radius": 1}, "--op", "volume",
                       "--samples", "5000")
    floats = _mc_payload(tmp_path, {"points": [[0.0, 0.0], [1.0, 0.0]], "radius": 1.0}, "--op",
                         "volume", "--samples", "5000")
    assert ints == floats and ints[0] == 0


def test_dr_converge_command(tmp_path):
    cfg = tmp_path / "conv.json"
    cfg.write_text(
        json.dumps(
            {
                "gen0": {"kind": "gaussian-mixture", "dim": 2, "atoms": [[0.0, 0.0]]},
                "gen1": {"kind": "gaussian-mixture", "dim": 2, "atoms": [[5.0, 0.0]]},
                "r": 0.5,
                "sigma": 0.2,
                "n_grid": [10, 20],
                "trials": 2,
                "seed": 9,
            }
        )
    )
    out = tmp_path / "conv.csv"
    rc = main(["dr-converge", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    rows = list(csv.DictReader(out.open()))
    assert [set(r) for r in rows[:1]] == [{"n", "trial", "d_r", "abs_dev"}]
    assert len(rows) == 4


def test_dr_converge_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "conv.json"
    cfg.write_text(json.dumps({"gen0": {}, "gen1": {}, "r": 0.5, "n_grid": [4], "bogus": 1}))
    assert main(["dr-converge", "--config", str(cfg)]) == 2


def test_dr_converge_atom_width_exit_2(tmp_path, capsys):
    cfg = tmp_path / "conv.json"
    cfg.write_text(json.dumps({**_CONV, "gen0": {"atoms": [[0.0]]}}))
    assert main(["dr-converge", "--config", str(cfg)]) == 2
    assert "atoms and center need 2 coordinates each" in capsys.readouterr().err


@pytest.mark.parametrize(
    "gen0",
    [
        {"atoms": [[0.0, 0.0], [1.0, 1.0]], "weights": [-1.0, 2.0]},
        {"atoms": [[0.0, 0.0], [1.0, 1.0]], "weights": [0.0, 1.0]},
        {"atoms": [[0.0, 0.0]], "sigma": -1.0},
        {"kind": "uniform-ball", "radius": -1.0},
        {"kind": "uniform-ball", "radius": 0.0},
    ],
)
def test_dr_converge_rejects_bad_generator(tmp_path, capsys, gen0):
    # weights (-1, 2) used to draw only atom 1; the others drew without complaint
    cfg = tmp_path / "conv.json"
    cfg.write_text(json.dumps({**_CONV, "gen0": gen0}))
    assert main(["dr-converge", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: gen0: "), err


def test_dr_converge_rejects_negative_noise(tmp_path, capsys):
    cfg = tmp_path / "conv.json"
    cfg.write_text(json.dumps({**_CONV, "sigma": -0.5}))
    assert main(["dr-converge", "--config", str(cfg)]) == 2
    assert "sigma must be a nonnegative finite real" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"r": -0.5}, "r: radius must be a nonnegative finite real"),
        ({"sigma": -0.5}, "sigma: noise sigma must be a nonnegative finite real"),
        ({"gen0": {"kind": "uniform-ball", "center": [math.nan, 0.0]}}, "gen0: center must be finite"),
        ({"gen1": {"dim": 3, "atoms": [[1.0, 0.0, 0.0]]}}, "gen1: dim 3 differs from gen0's dim 2"),
        ({"n_grid": [0]}, "n_grid: need a nonempty list of sizes >= 1"),
        ({"n_grid": []}, "n_grid: need a nonempty list of sizes >= 1"),
        ({"trials": 0}, "trials: need an integer >= 1"),
        ({"n_grid": 5}, "n_grid: need a nonempty list of sizes >= 1"),
        ({"n_grid": "25"}, "n_grid: need a nonempty list of sizes >= 1"),
        ({"n_grid": [2.7]}, "n_grid: need a nonempty list of sizes >= 1"),
        ({"n_grid": [True]}, "n_grid: need a nonempty list of sizes >= 1"),
        ({"trials": "3"}, "trials: need an integer >= 1"),
        ({"trials": 2.0}, "trials: need an integer >= 1"),
        ({"seed": 2.7}, "seed: need an integer"),
        ({"seed": True}, "seed: need an integer"),
        ({"gen0": {"dim": True, "atoms": [[0.0]]}}, "gen0: dim: need an integer >= 1"),
        ({"gen0": {"dim": 2.0, "atoms": [[0.0, 0.0]]}}, "gen0: dim: need an integer >= 1"),
        ({"gen0": {"kind": "cube"}}, "gen0: unknown distribution kind 'cube'"),
        # each generator kind takes only the keys it reads
        ({"gen0": {"kind": "uniform-ball", "sigma": 5.0}}, "gen0: unknown generator key 'sigma'"),
        ({"gen0": {"kind": "uniform-ball", "atoms": [[0.0, 0.0]]}},
         "gen0: unknown generator key 'atoms'"),
        ({"gen0": {"kind": "uniform-ball", "weights": [1.0]}},
         "gen0: unknown generator key 'weights'"),
        ({"gen1": {"atoms": [[1.0, 0.0]], "center": [0.0, 0.0]}},
         "gen1: unknown generator key 'center'"),
        ({"gen1": {"kind": "gaussian-mixture", "atoms": [[1.0, 0.0]], "radius": 2.0}},
         "gen1: unknown generator key 'radius'"),
    ],
    ids=["r", "sigma", "center", "dim", "n-grid-zero", "n-grid-empty", "trials-zero",
         "n-grid-scalar", "n-grid-string", "n-grid-fraction", "n-grid-bool",
         "trials-string", "trials-float", "seed-fraction", "seed-bool", "gen-dim-bool",
         "gen-dim-float", "gen-kind", "ball-sigma", "ball-atoms", "ball-weights",
         "mixture-center", "mixture-radius"],
)
def test_dr_converge_errors_name_file_and_key(tmp_path, capsys, entry, message):
    # each of these used to print the library's message without its place
    cfg = tmp_path / "conv.json"
    cfg.write_text(json.dumps({**_CONV, **entry}))
    assert main(["dr-converge", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}: {message}\n"


def test_dr_converge_refuses_a_repeated_size(tmp_path, capsys):
    # it printed the rows 10,0 and 10,1 twice
    cfg = tmp_path / "conv.json"
    out = tmp_path / "rows.csv"
    cfg.write_text(json.dumps({**_CONV, "n_grid": [10, 10], "trials": 2}))
    assert main(["dr-converge", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: n_grid holds the size 10 twice\n"
    assert not out.exists()


def test_epi_command(tmp_path):
    x = tmp_path / "x.json"
    y = tmp_path / "y.json"
    x.write_text(json.dumps({"atoms": [[0.0], [2.0]], "weights": [0.5, 0.5]}))
    y.write_text(json.dumps({"atoms": [[0.0]]}))
    out = tmp_path / "epi.json"
    rc = main(["epi", "--x", str(x), "--y", str(y), "--smoothing", "0.5", "--samples", "10000", "--seed", "1", "--out", str(out)])
    assert rc == 0
    payload = strict_loads(out.read_text())
    assert set(payload) == {"h_x", "h_y", "h_sum", "bound", "slack", "verdict"}
    assert payload["verdict"] == "pass"
    assert payload["h_sum"] <= payload["bound"]


def test_epi_entropies_are_the_direct_estimates(tmp_path):
    # 2-d mixtures fit the quadrature grid, 4-d ones take Monte Carlo
    from parset.entropy import GaussianMixture, entropy_mc, entropy_quadrature

    for dim in (2, 4):
        pad = [0.0] * (dim - 2)
        mixtures = {
            "x": {"atoms": [[0.0, 0.0, *pad], [2.0, 1.0, *pad]], "weights": [0.3, 0.7]},
            "y": {"atoms": [[1.0, -1.0, *pad]], "weights": [1.0]},
        }
        for side, mix in mixtures.items():
            (tmp_path / f"{side}.json").write_text(json.dumps(mix))
        out = tmp_path / "epi.json"
        rc = main(["epi", "--x", str(tmp_path / "x.json"), "--y", str(tmp_path / "y.json"),
                   "--smoothing", "0.5", "--samples", "5000", "--seed", "3", "--out", str(out)])
        assert rc == 0
        payload = strict_loads(out.read_text())
        for key, side, seed in (("h_x", "x", 3), ("h_y", "y", 4)):
            gm = GaussianMixture(variance=0.5, **mixtures[side])
            want = entropy_quadrature(gm) if dim == 2 else entropy_mc(gm, n=5000, seed=seed)
            assert payload[key] == want.value


def test_epi_workers_reach_the_estimator(tmp_path, monkeypatch, capsys):
    from parset import _rng, entropy

    # the thread count of the scope each entropy's reduction runs in
    seen = []
    map_reduce_chunks = entropy.map_reduce_chunks

    def recording(seed, total, chunk_fn):
        seen.append(_rng._THREADS.get())
        return map_reduce_chunks(seed, total, chunk_fn)

    monkeypatch.setattr(entropy, "map_reduce_chunks", recording)
    # 4-d mixtures, which no quadrature grid takes
    (tmp_path / "x.json").write_text(json.dumps(
        {"atoms": [[0.0, 0.0, 0.0, 0.0], [2.0, 1.0, 0.0, 0.0]], "weights": [0.3, 0.7]}))
    (tmp_path / "y.json").write_text(json.dumps({"atoms": [[1.0, -1.0, 0.0, 0.0], [0.0, 0.5, 0.0, 0.0]]}))
    written = []
    for workers in (1, 2):
        out = tmp_path / f"epi-{workers}.json"
        # three 65 536-sample chunks per entropy, so two threads share them
        rc = main(["epi", "--x", str(tmp_path / "x.json"), "--y", str(tmp_path / "y.json"),
                   "--smoothing", "0.5", "--samples", "140000", "--seed", "3",
                   "--workers", str(workers), "--out", str(out)])
        assert rc == 0
        written.append(out.read_bytes())
    assert seen == [1, 1, 1, 2, 2, 2]
    assert written[0] == written[1]
    assert main(["epi", "--x", str(tmp_path / "x.json"), "--y", str(tmp_path / "y.json"),
                 "--smoothing", "0.5", "--samples", "1000", "--workers", "0"]) == 2
    assert capsys.readouterr().err == "error: workers must be >= 1\n"


def test_suite_smoke_exit_code(tmp_path):
    proc = run_cli(
        "suite", "gaussian", "--seed", "11", "--samples", "2000", "--out", str(tmp_path / "g")
    )
    assert proc.returncode == 0
    assert (tmp_path / "g" / "results.csv").exists()
    assert (tmp_path / "g" / "manifest.json").exists()


def test_suite_unknown_name():
    proc = run_cli("suite", "bogus")
    assert proc.returncode == 2


def test_suite_failure_exit_code(monkeypatch, tmp_path):
    # wire in a check that always fails to exercise the exit-1 contract
    from parset.bounds import BoundReport
    from parset import suite as suite_mod

    def failing_check(seed, prof):
        return [BoundReport.compare("doomed", 0.0, measured=1.0)]

    monkeypatch.setitem(suite_mod.CHECKS, "reverse-bm", failing_check)
    rc = main(["suite", "brunn-minkowski", "--seed", "1", "--samples", "1000"])
    assert rc == 1


# --- CLI outputs pinned against the library calls they wrap -----------------


def _mc_payload(tmp_path, spec: dict, *flags):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "mc.json"
    rc = main(["mc", "--spec", str(path), "--seed", "3", "--out", str(out), *flags])
    return rc, strict_loads(out.read_text())


@pytest.mark.parametrize("op", ["shell", "gshell"])
def test_mc_shell_ops_match_library(tmp_path, op):
    from parset.geometry import NormKind, ParallelSetSpec
    from parset.mc import McConfig, mc_gaussian_shell, mc_shell_lebesgue

    # a shell reads delta, a Gaussian shell delta and sigma
    spec = {"points": [[0.0, 0.0], [0.7, 0.2]], "norm": "linf", "radius": 0.5, "delta": 0.05,
            **({"sigma": 0.7} if op == "gshell" else {})}
    rc, payload = _mc_payload(tmp_path, spec, "--op", op, "--samples", "20000")
    target = ParallelSetSpec(PointSet(spec["points"]), NormKind.LINF, 0.5)
    cfg = McConfig(samples=20000, seed=3, shell_delta=0.05)
    est = (mc_shell_lebesgue(target, cfg) if op == "shell"
           else mc_gaussian_shell(target, cfg, sigma=0.7))
    assert rc == 0
    assert payload == {"value": est.value, "std_error": est.std_error, "samples": 20000}


def test_mc_halfspace_predicate_matches_library(tmp_path):
    from parset.mc import McConfig, mc_halfspace_gaussian_shell

    rc, payload = _mc_payload(tmp_path, {"predicate": "halfspace", "dim": 3, "delta": 0.1},
                              "--op", "gshell", "--samples", "30000")
    est = mc_halfspace_gaussian_shell(3, McConfig(samples=30000, seed=3, shell_delta=0.1))
    assert rc == 0
    assert payload == {"value": est.value, "std_error": est.std_error, "samples": 30000}


def test_mc_kneser_matches_library(tmp_path):
    from parset.geometry import NormKind
    from parset.mc import McConfig, kneser_shell_check

    spec = {"points": [[0.0, 0.0], [1.0, 0.5]], "norm": "l2", "radius": 1.0,
            "a_k": 0.3, "b_k": 0.8, "t": 1.25}
    rc, payload = _mc_payload(tmp_path, spec, "--op", "kneser", "--samples", "20000")
    rep = kneser_shell_check(PointSet(spec["points"]), NormKind.L2, 0.3, 0.8, 1.25,
                             McConfig(samples=20000, seed=3))
    assert rc == (1 if rep.verdict.value == "fail" else 0)
    # planar shells are exact: nothing is drawn
    assert payload == {"value": rep.measured, "bound": rep.bound_value,
                       "std_error": rep.std_error, "samples": 0,
                       "verdict": rep.verdict.value}


_KNESER_3D = {"points": [[0.0, 0.0, 0.0], [0.9, -0.4, 0.3], [-0.5, 0.6, 0.2]], "radius": 1.0,
              "a_k": 0.4, "b_k": 0.9, "t": 1.7}


def _mc_kneser_3d(tmp_path, norm):
    path, out = tmp_path / "spec.json", tmp_path / "mc.json"
    path.write_text(json.dumps(dict(_KNESER_3D, norm=norm)))
    argv = ["mc", "--op", "kneser", "--spec", str(path), "--samples", "70000", "--seed", "11"]
    assert main([*argv, "--out", str(out)]) == 0
    return strict_loads(out.read_text())


def test_mc_kneser_3d_is_the_band_count_it_was(tmp_path):
    # L2 shells off the plane are the band count they were before the planar
    # and L-inf shells became exact
    assert _mc_kneser_3d(tmp_path, "l2") == {
        "bound": 32.00946914135041, "samples": 70000, "std_error": 0.36712222016550167,
        "value": 24.55564392960001, "verdict": "pass"}


def test_mc_kneser_3d_linf_is_exact_within_the_old_band_count(tmp_path):
    # the band count on these points read value 45.08010151680001 with
    # std_error 0.4556400074091533 and bound 57.17806720953601 (0.4556 is the
    # two sides' combined sigma; each side's alone is smaller)
    payload = _mc_kneser_3d(tmp_path, "linf")
    assert abs(payload["value"] - 45.08010151680001) <= 4.0 * 0.4556400074091533
    assert abs(payload["bound"] - 57.17806720953601) <= 4.0 * 0.4556400074091533
    assert payload["samples"] == 0 and payload["verdict"] == "pass"
    assert 0.0 < payload["std_error"] < 1e-12 * payload["bound"]


@pytest.mark.parametrize(("points", "norm", "samples"), [
    ([[0.0, 0.0], [1.0, 0.5]], "l2", 0),
    ([[0.0, 0.0], [1.0, 0.5]], "linf", 0),
    ([[0.0, 0.0, 0.0], [1.0, 0.5, 0.2]], "linf", 0),
    ([[0.0], [1.0]], "linf", 0),
    ([[0.0, 0.0, 0.0], [1.0, 0.5, 0.2]], "l2", 3000),
    ([[0.0], [1.0]], "l2", 3000),
])
def test_mc_kneser_reports_the_draws_it_made(tmp_path, points, norm, samples):
    spec = {"points": points, "norm": norm, "radius": 1.0}
    rc, payload = _mc_payload(tmp_path, spec, "--op", "kneser", "--samples", "3000")
    assert rc == 0 and payload["samples"] == samples


def test_mc_kneser_linf_past_the_cover_budget_exits_2(tmp_path, capsys):
    # 8 cubes in 8-d make a grid of up to 16^8 cells; the cover refuses it
    # rather than sample
    import numpy as np

    points = np.random.default_rng(5).uniform(-1, 1, (8, 8)).tolist()
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"points": points, "norm": "linf", "radius": 1.0}))
    assert main(["mc", "--op", "kneser", "--spec", str(path), "--samples", "1000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the L-inf cover of 8 cubes in 8-d needs ") and err.count("\n") == 1


def _verify_cubes(tmp_path, points, **params):
    cfg = tmp_path / "exp.json"
    params = {"points": points, "norm": "linf", "radius": 1.0, "checks": ["volume-constrained"], **params}
    cfg.write_text(json.dumps({"name": "cubes", "module": "bounds", "seed": 4, "parameters": params}))
    return cfg


def test_verify_linf_past_the_cover_budget_exits_2(tmp_path, capsys):
    # off the plane an L-inf volume is the cover's, which refuses the grid
    # rather than sample
    import numpy as np

    cfg = _verify_cubes(tmp_path, np.random.default_rng(5).uniform(-1, 1, (8, 8)).tolist(), samples=1000)
    assert main(["verify", "--experiment", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the L-inf cover of 8 cubes in 8-d needs ") and err.count("\n") == 1


def test_verify_linf_off_the_plane_takes_the_cover_volume(tmp_path):
    # the volume is cube_union_measures', and the surface the shell's draw
    from parset import BoundReport, McConfig, NormKind, ParallelSetSpec, cube_union_measures, mc_shell_lebesgue
    from parset._rng import derive_seed
    from parset.bounds import bound_volume_constrained
    from parset.experiment import load_experiment_config, run_verify_experiment

    points = [[0.0, 0.0, 0.0], [0.5, 0.25, -0.5]]
    cfg = _verify_cubes(tmp_path, points, samples=5000, delta=0.05)
    (report,) = run_verify_experiment(load_experiment_config(cfg))
    volume, _ = cube_union_measures(PointSet(points), 1.0)
    spec = ParallelSetSpec(PointSet(points), NormKind.LINF, 1.0)
    shell = mc_shell_lebesgue(spec, McConfig(samples=5000, seed=derive_seed(4, "shell"), shell_delta=0.05))
    assert volume.samples_used == 0 and shell.samples_used == 5000
    assert report == BoundReport.compare(
        "volume-constrained", bound_volume_constrained(3, 1.0, volume.upper), shell.value, shell.std_error)


def test_exact2d_square_past_the_cover_budget_exits_2(tmp_path, capsys):
    # 4097 squares in general position make a grid of 8194^2 cells, past the
    # cover's 2^26; the square boundary has no other path
    import numpy as np

    path = tmp_path / "centers.json"
    path.write_text(json.dumps(np.random.default_rng(6).uniform(-50, 50, (4097, 2)).tolist()))
    assert main(["exact2d", "--shape", "square", "--centers", str(path), "--radius", "0.5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the L-inf cover of 4097 cubes in 2-d needs 67141636 ") and err.count("\n") == 1


def test_mc_angle_workers_do_not_change_output(tmp_path):
    spec = tmp_path / "spec.json"
    # 2-d and 3-d are exact; from 4-d up the directions are drawn in chunks
    spec.write_text(json.dumps({"dim": 4, "cap_half_angle": 1.1, "trials": 2}))
    outputs = []
    for workers in ("1", "2"):
        out = tmp_path / f"angle-{workers}.json"
        rc = main(["mc", "--op", "angle", "--spec", str(spec), "--samples", "200000",
                   "--seed", "8", "--workers", workers, "--out", str(out)])
        outputs.append((rc, out.read_bytes()))
    assert outputs[0] == outputs[1]


def test_mc_angle_matches_library(tmp_path):
    from parset.mc import inscribed_angle_check

    rc, payload = _mc_payload(tmp_path, {"dim": 3, "cap_half_angle": 0.8, "trials": 3},
                              "--op", "angle", "--samples", "4000")
    rep = inscribed_angle_check(3, 0.8, 3, 3, directions=4000)
    assert rc == (1 if rep.verdict.value == "fail" else 0)
    # the 3-d fractions are exact: no direction is drawn
    assert payload == {"worst_deficit": rep.measured, "std_error": rep.std_error,
                       "samples": 0, "verdict": rep.verdict.value}


def test_mc_angle_reports_every_direction_drawn(tmp_path):
    # from 4-d up each of the trials draws --samples directions
    rc, payload = _mc_payload(tmp_path, {"dim": 4, "cap_half_angle": 0.8, "trials": 3},
                              "--op", "angle", "--samples", "4000")
    assert payload["samples"] == 12000


def test_bounds_gaussian_surface_payload(tmp_path):
    from parset.bounds import gaussian_constant, gaussian_surface_bound
    from parset.geometry import NormKind

    out = tmp_path / "g.json"
    assert main(["bounds", "--eval", "gaussian-surface",
                 "--params", "d=3,r=0.5,sigma=2,norm=linf", "--out", str(out)]) == 0
    c = gaussian_constant(3, NormKind.LINF)
    assert strict_loads(out.read_text()) == {
        "name": "gaussian-surface",
        "parameters": {"d": 3, "r": 0.5, "sigma": 2.0, "norm": "linf"},
        "value": gaussian_surface_bound(3, 0.5, 2.0, NormKind.LINF),
        "constant_C": c.constant_C,
        "sandwich": [c.lower_sandwich, c.upper_sandwich],
    }


def test_bounds_bounded_support_payload(tmp_path):
    from parset.bounds import bound_bounded_support

    out = tmp_path / "b.json"
    assert main(["bounds", "--eval", "bounded-support",
                 "--params", "d=4,big_r=1.5,r=0.25", "--out", str(out)]) == 0
    ball, cube = bound_bounded_support(4, 1.5, 0.25)
    assert strict_loads(out.read_text()) == {
        "name": "bounded-support",
        "parameters": {"d": 4, "big_r": 1.5, "r": 0.25},
        "ball": ball,
        "cube": cube,
    }


def test_verify_json_and_printout_match_reports(tmp_path, capsys):
    from parset.experiment import load_experiment_config, run_verify_experiment

    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "name": "cube",
        "module": "bounds",
        "seed": 4,
        "parameters": {
            "points": [[0.0, 0.0], [0.5, 0.25], [0.25, -0.5]],
            "norm": "linf",
            "radius": 1.0,
            "samples": 20000,
            "delta": 0.05,
            "sigma": 1.5,
            "checks": ["union-in-cube", "gaussian-surface", "union-in-ball", "kneser"],
        },
    }))
    reports = run_verify_experiment(load_experiment_config(cfg))
    capsys.readouterr()
    out_json = tmp_path / "table.json"
    out_csv = tmp_path / "table.csv"
    rc = main(["verify", "--experiment", str(cfg), "--format", "json", "--out", str(out_json)])
    printed = capsys.readouterr().out
    assert main(["verify", "--experiment", str(cfg), "--out", str(out_csv)]) == rc
    assert rc == (1 if any(r.verdict.value == "fail" for r in reports) else 0)

    def fmt(x):
        return "" if x is None else f"{x:.17g}"

    expected = [
        {"suite": "cube", "check": "verify", "bound_name": r.bound_name,
         "bound_value": fmt(r.bound_value), "measured": fmt(r.measured),
         "std_error": fmt(r.std_error), "slack": fmt(r.slack), "verdict": r.verdict.value}
        for r in reports
    ]
    assert [r["bound_name"] for r in expected] == [
        "union-in-cube", "gaussian-surface", "union-in-ball", "kneser-shell"]
    assert expected[0]["verdict"] == "pass" and expected[2]["verdict"] == "not-compared"
    assert strict_loads(out_json.read_text()) == expected
    assert list(csv.DictReader(out_csv.open())) == expected
    assert out_csv.read_text().splitlines()[0] == (
        "suite,check,bound_name,bound_value,measured,std_error,slack,verdict")
    assert printed.splitlines() == [
        f"[{r['verdict'].upper()}] {r['bound_name']}: measured={r['measured']} "
        f"bound={r['bound_value']}" for r in expected
    ]



@pytest.mark.parametrize("sep", [1e3, 1e4])
def test_epi_far_atoms_in_one_dimension(tmp_path, sep):
    # the quadrature grid cannot resolve bumps 1e5 sd apart, so these
    # entropies are Monte Carlo; the quadrature returned -4.247 at sep = 1e4
    from parset.entropy import GaussianMixture, entropy_mc

    mix = {"atoms": [[0.0], [sep]], "weights": [0.5, 0.5]}
    for side in ("x", "y"):
        (tmp_path / f"{side}.json").write_text(json.dumps(mix))
    out = tmp_path / "epi.json"
    rc = main(["epi", "--x", str(tmp_path / "x.json"), "--y", str(tmp_path / "y.json"),
               "--smoothing", "0.01", "--samples", "20000", "--seed", "6", "--out", str(out)])
    assert rc == 0
    h_x = strict_loads(out.read_text())["h_x"]
    est = entropy_mc(GaussianMixture(variance=0.01, **mix), n=20000, seed=6)
    assert h_x == est.value
    want = math.log(2.0) + 0.5 * math.log(2.0 * math.pi * math.e * 0.01)
    assert abs(h_x - want) <= 4.0 * est.std_error


# --- malformed input files and --params: exit 2 with the place, no traceback ---

_CONV = {"gen0": {"atoms": [[0.0, 0.0]]}, "gen1": {"atoms": [[1.0, 0.0]]}, "r": 0.5, "n_grid": [4]}
_EPI = ["epi", "--x", "x.json", "--y", "y.json", "--smoothing", "0.5", "--samples", "1000"]
_DR = ["dr", "--mu0", "mu0.json", "--mu1", "mu1.json", "--radius", "0.5"]
_MU1 = {"points": [[0.5]], "weights": [1.0]}
_MC = ["mc", "--op", "volume", "--spec", "spec.json", "--samples", "1000"]
_ANGLE = ["mc", "--op", "angle", "--spec", "spec.json", "--samples", "100"]
_GSHELL = ["mc", "--op", "gshell", "--spec", "spec.json", "--samples", "1000"]
_VERIFY = ["verify", "--experiment", "exp.json"]
_CONVERGE = ["dr-converge", "--config", "conv.json"]
_KNESER = ["mc", "--op", "kneser", "--spec", "spec.json", "--samples", "1000"]
_CSV = ["exact2d", "--shape", "disk", "--centers", "c.csv", "--radius", "1.0"]
_EXACT2D_JSON = ["exact2d", "--shape", "disk", "--centers", "centers.json", "--radius", "1.0"]


def _spec(**params):
    return {"spec.json": {"points": [[0.0, 0.0]], "radius": 1.0, **params}}


def _verify(**params):
    return {"exp.json": {"name": "demo", "module": "bounds", "seed": 1,
                         "parameters": {"points": [[0.0, 0.0]], "checks": ["gaussian-surface"],
                                        **params}}}


def _gen(**gen0):
    return {"conv.json": {**_CONV, "gen0": gen0}}


def _not_numbers(name, as_string, as_bool, argv, where):
    """The MALFORMED cases of one site: a numeric string, and a boolean, where a number belongs."""
    return {f"{name}-numeric-string": (as_string, argv, where), f"{name}-bool": (as_bool, argv, where)}


# name: (files to write, argv, where the error is reported)
MALFORMED = {
    "epi-missing-atoms": ({"x.json": {"weights": [1.0]}, "y.json": {"atoms": [[0.0]]}}, _EPI, "x.json"),
    "epi-atoms-string": ({"x.json": {"atoms": "zz"}, "y.json": {"atoms": [[0.0]]}}, _EPI, "x.json"),
    "dr-ragged-points": ({"mu0.json": {"points": [[0.0], [1.0, 2.0]], "weights": [0.5, 0.5]},
                          "mu1.json": _MU1}, [*_DR, "--weighted"], "mu0.json"),
    "dr-weights-string": ({"mu0.json": {"points": [[0.0], [1.0]], "weights": "ab"},
                           "mu1.json": _MU1}, [*_DR, "--weighted"], "mu0.json"),
    # the weights are read without --weighted too
    "dr-weights-string-no-flag": ({"mu0.json": {"points": [[0.0], [1.0]], "weights": "ab"},
                                   "mu1.json": _MU1}, _DR, "mu0.json"),
    # every JSON object is checked against the keys its reader takes
    "dr-unknown-key": ({"mu0.json": {"points": [[0.0]], "weight": [1.0]}, "mu1.json": _MU1},
                       _DR, "mu0.json"),
    "dr-missing-points": ({"mu0.json": {"weights": [1.0]}, "mu1.json": _MU1}, _DR, "mu0.json"),
    # "weights": null is not "weights" left out, for either reader
    "dr-weights-null": ({"mu0.json": {"points": [[0.0], [1.0]], "weights": None},
                         "mu1.json": _MU1}, _DR, "mu0.json"),
    "epi-weights-null": ({"x.json": {"atoms": [[0.0], [1.0]], "weights": None},
                          "y.json": {"atoms": [[0.0]]}}, _EPI, "x.json"),
    "epi-unknown-key": ({"x.json": {"atoms": [[0.0], [1.0]], "weight": [0.9, 0.1]},
                         "y.json": {"atoms": [[0.0]]}}, _EPI, "x.json"),
    "mc-unknown-key": ({"spec.json": {"points": [[0.0, 0.0]], "radious": 0.5}}, _MC, "spec.json"),
    "mc-key-of-another-op": ({"spec.json": {"points": [[0.0, 0.0]], "t": 1.5}}, _MC, "spec.json"),
    "mc-angle-unknown-key": ({"spec.json": {"dims": 3}}, _ANGLE, "spec.json"),
    # JSON counts and seeds are JSON integers
    "mc-angle-trials-fraction": ({"spec.json": {"dim": 3, "trials": 1.9}}, _ANGLE, "spec.json"),
    "mc-angle-dim-fraction": ({"spec.json": {"dim": 2.5}}, _ANGLE, "spec.json"),
    "mc-halfspace-dim-bool": ({"spec.json": {"predicate": "halfspace", "dim": True}},
                              _GSHELL, "spec.json"),
    # a gshell spec is a halfspace {predicate, dim} or a parallel set without either
    "mc-gshell-unknown-predicate": ({"spec.json": {"predicate": "halfpsace",
                                                   "points": [[0, 0]], "dim": 7}},
                                    _GSHELL, "spec.json"),
    "mc-gshell-predicate-null": ({"spec.json": {"predicate": None, "points": [[0, 0]]}},
                                 _GSHELL, "spec.json"),
    "mc-halfspace-with-points": ({"spec.json": {"predicate": "halfspace", "points": [[0, 0]]}},
                                 _GSHELL, "spec.json"),
    "mc-halfspace-with-radius": ({"spec.json": {"predicate": "halfspace", "radius": 0.5}},
                                 _GSHELL, "spec.json"),
    "mc-union-with-dim": ({"spec.json": {"points": [[0, 0]], "dim": 7}}, _GSHELL, "spec.json"),
    "converge-seed-fraction": ({"conv.json": {**_CONV, "seed": 2.7}}, _CONVERGE, "conv.json"),
    "converge-seed-bool": ({"conv.json": {**_CONV, "seed": True}}, _CONVERGE, "conv.json"),
    "verify-samples-fraction": ({"exp.json": {"name": "demo", "module": "bounds", "seed": 1,
                                              "parameters": {"points": [[0.0, 0.0]],
                                                             "samples": 2.5}}},
                                _VERIFY, "demo"),
    "mc-ragged-points": ({"spec.json": {"points": [[0.0, 0.0], [1.0]]}}, _MC, "spec.json"),
    "mc-radius-string": ({"spec.json": {"points": [[0.0, 0.0]], "radius": "abc"}}, _MC, "spec.json"),
    "mc-points-file-number": ({"spec.json": {"points_file": 5}}, _MC, "spec.json"),
    "exact2d-string-centers": ({"centers.json": [["a", "b"]]},
                               ["exact2d", "--shape", "disk", "--centers", "centers.json",
                                "--radius", "1.0"], "centers.json"),
    "bounds-params-int": ({}, ["bounds", "--eval", "reverse-bm", "--params", "d=x,r=1"], "--params"),
    "bounds-params-missing": ({}, ["bounds", "--eval", "reverse-bm", "--params", "d=2"], "--params"),
    "verify-ragged-points": ({"exp.json": {"name": "demo", "module": "bounds", "seed": 1,
                                           "parameters": {"points": [[0.0, 0.0], [1.0]]}}},
                             _VERIFY, "demo"),
    "verify-seed-string": ({"exp.json": {"name": "demo", "module": "bounds", "seed": "abc",
                                         "parameters": {"points": [[0.0, 0.0]]}}},
                           _VERIFY, "exp.json"),
    "converge-n-grid-string": ({"conv.json": {**_CONV, "n_grid": ["a"]}}, _CONVERGE, "conv.json"),
    "converge-trials-string": ({"conv.json": {**_CONV, "trials": "x"}}, _CONVERGE, "conv.json"),
    # values that cast but that a constructor rejects
    "epi-weights-unnormalised": ({"x.json": {"atoms": [[0.0]], "weights": [0.5]},
                                  "y.json": {"atoms": [[0.0]]}}, _EPI, "x.json"),
    "mc-radius-negative": ({"spec.json": {"points": [[0.0, 0.0]], "radius": -1}}, _MC, "spec.json"),
    # CSV point files, given as text; a row's error names its line
    "csv-empty": ({"c.csv": ""}, _CSV, "c.csv"),
    "csv-wrong-header": ({"c.csv": "x,y\n0,0\n"}, _CSV, "c.csv"),
    "csv-no-points": ({"c.csv": "x0,x1\n"}, _CSV, "c.csv"),
    "csv-ragged-row": ({"c.csv": "x0,x1\n0,0\n1\n"}, _CSV, "c.csv:3"),
    "csv-non-numeric": ({"c.csv": "x0,x1\n0,0\n1,abc\n"}, _CSV, "c.csv:3"),
    "csv-nan": ({"c.csv": "x0,x1\n0,nan\n"}, _CSV, "c.csv"),
    "csv-inf": ({"c.csv": "x0,x1\n-inf,0\n"}, _CSV, "c.csv"),
    # a number in an input file is a JSON number: each of these read a
    # numeric string or a boolean as a number and exited 0
    **_not_numbers("mc-radius", _spec(radius="0.5"), _spec(radius=True), _MC, "spec.json: radius"),
    **_not_numbers("mc-kneser-a", _spec(a_k="0.5"), _spec(a_k=True), _KNESER, "spec.json: a_k"),
    **_not_numbers("mc-kneser-b", _spec(b_k="1"), _spec(b_k=True), _KNESER, "spec.json: b_k"),
    **_not_numbers("mc-kneser-t", _spec(t="2"), _spec(t=True), _KNESER, "spec.json: t"),
    **_not_numbers("mc-points", {"spec.json": {"points": [[0.0, "0"]]}},
                   {"spec.json": {"points": [[0.0, 0.0], [True, False]]}}, _MC, "spec.json: points"),
    **_not_numbers("mc-cap", {"spec.json": {"dim": 3, "cap_half_angle": "0.9"}},
                   {"spec.json": {"dim": 3, "cap_half_angle": True}}, _ANGLE,
                   "spec.json: cap_half_angle"),
    **_not_numbers("dr-points", {"mu0.json": {"points": [[0.0], ["1"]]}, "mu1.json": _MU1},
                   {"mu0.json": [[0.0], [True]], "mu1.json": _MU1}, _DR, "mu0.json"),
    **_not_numbers("dr-weights", {"mu0.json": {"points": [[0.0], [1.0]], "weights": ["0.25", "0.75"]},
                                  "mu1.json": _MU1},
                   {"mu0.json": {"points": [[0.0]], "weights": [True]}, "mu1.json": _MU1},
                   _DR, "mu0.json: weights"),
    **_not_numbers("epi-atoms", {"x.json": {"atoms": [["0"]]}, "y.json": {"atoms": [[0.0]]}},
                   {"x.json": {"atoms": [[0.0], [True]]}, "y.json": {"atoms": [[0.0]]}},
                   _EPI, "x.json: atoms"),
    **_not_numbers("epi-weights", {"x.json": {"atoms": [[0.0], [1.0]], "weights": [0.5, "0.5"]},
                                   "y.json": {"atoms": [[0.0]]}},
                   {"x.json": {"atoms": [[0.0]], "weights": [True]}, "y.json": {"atoms": [[0.0]]}},
                   _EPI, "x.json: weights"),
    **_not_numbers("exact2d-centers", {"centers.json": [[0.0, "1"]]},
                   {"centers.json": [[0.0, False]]}, _EXACT2D_JSON, "centers.json"),
    **_not_numbers("converge-atoms", _gen(atoms=[[0.0, "0"]]), _gen(atoms=[[True, 0.0]]),
                   _CONVERGE, "conv.json: gen0: atoms"),
    **_not_numbers("converge-weights", _gen(atoms=[[0.0, 0.0], [1.0, 0.0]], weights=[1, "3"]),
                   _gen(atoms=[[0.0, 0.0], [1.0, 0.0]], weights=[1, True]),
                   _CONVERGE, "conv.json: gen0: weights"),
    **_not_numbers("converge-sigma", _gen(atoms=[[0.0, 0.0]], sigma="0.1"),
                   _gen(atoms=[[0.0, 0.0]], sigma=True), _CONVERGE, "conv.json: gen0: sigma"),
    **_not_numbers("converge-center", _gen(kind="uniform-ball", center=["0", 0.0]),
                   _gen(kind="uniform-ball", center=[0.0, True]), _CONVERGE, "conv.json: gen0: center"),
    **_not_numbers("converge-radius", _gen(kind="uniform-ball", radius="2"),
                   _gen(kind="uniform-ball", radius=True), _CONVERGE, "conv.json: gen0: radius"),
    **_not_numbers("converge-r", {"conv.json": {**_CONV, "r": "0.5"}},
                   {"conv.json": {**_CONV, "r": True}}, _CONVERGE, "conv.json: r"),
    **_not_numbers("converge-sigma-noise", {"conv.json": {**_CONV, "sigma": "0.1"}},
                   {"conv.json": {**_CONV, "sigma": True}}, _CONVERGE, "conv.json: sigma"),
    **_not_numbers("verify-delta", _verify(delta="0.05"), _verify(delta=True), _VERIFY, "demo: delta"),
    **_not_numbers("verify-sigma", _verify(sigma="1.5"), _verify(sigma=True), _VERIFY, "demo: sigma"),
    # an integer literal is a JSON number, but not one past double range
    "mc-radius-past-double-range": (_spec(radius=10**400), _MC, "spec.json: radius"),
    "mc-points-past-double-range": ({"spec.json": {"points": [[10**400, 0]]}}, _MC, "spec.json: points"),
}


def _write_files(tmp_path, files):
    """Write each file: a string or bytes as they are, None as a directory, anything else as JSON."""
    for name, content in files.items():
        path = tmp_path / name
        if content is None:
            path.mkdir()
        elif isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content if isinstance(content, str) else json.dumps(content))


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exit_2(tmp_path, capsys, case):
    files, argv, where = MALFORMED[case]
    _write_files(tmp_path, files)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    where = str(tmp_path / where) if where.split(":")[0] in files else where
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}: "), err
    assert "Traceback" not in err


@pytest.mark.parametrize("checks", ["kneser", 5, {"kneser": 1}, ["kneser", 5]],
                         ids=["string", "number", "object", "non-string-name"])
def test_verify_checks_need_an_array_of_names(tmp_path, capsys, checks):
    # a string was read letter by letter, and an object by its keys
    exp = {"name": "demo", "module": "bounds", "seed": 1,
           "parameters": {"points": [[0.0, 0.0]], "checks": checks}}
    _write_files(tmp_path, {"exp.json": exp})
    assert main(["verify", "--experiment", str(tmp_path / "exp.json")]) == 2
    assert capsys.readouterr().err == "error: demo: checks: need an array of check names\n"


_N0 = "d=2,sigma=1,r=1,eps=0.01,delta=0.1"


def _bounds(name, params):
    return ["bounds", "--eval", name, "--params", params]


# name: (files to write, argv); each value is NaN, +-inf or a result past double range
NON_FINITE = {
    "verify-delta-inf": (_verify(delta=math.inf), _VERIFY),
    "verify-sigma-nan": (_verify(sigma=math.nan), _VERIFY),
    "mc-gshell-delta-inf": (_spec(delta=math.inf), _GSHELL),
    "mc-gshell-sigma-inf": (_spec(sigma=math.inf), _GSHELL),
    "mc-gshell-sigma-nan": (_spec(sigma=math.nan), _GSHELL),
    # a sigma key in a volume or kneser spec is an unknown key
    "mc-volume-sigma-nan": (_spec(sigma=math.nan), _MC),
    "mc-kneser-sigma-negative": (_spec(sigma=-1), _KNESER),
    # sigma times a normal draw past double range: a ValueError traceback
    # from min_dist, and 0 +- 0 beside the halfspace
    "mc-gshell-sigma-huge": (_spec(sigma=1e308), _GSHELL),
    "mc-halfspace-sigma-huge": ({"spec.json": {"predicate": "halfspace", "dim": 3, "sigma": 1e308}},
                                _GSHELL),
    "mc-shell-box-overflow": (_spec(delta=1e308), ["mc", "--op", "shell", "--spec", "spec.json",
                                                   "--samples", "1000"]),
    # 2^(dim - 1) past double range ended in an OverflowError traceback
    "mc-angle-dim-huge": ({"spec.json": {"dim": 1100, "cap_half_angle": 0.9, "trials": 1}},
                          [*_ANGLE[:-1], "10"]),
    # the planar shells are exact areas, and A(t b) is past double range
    "mc-kneser-t-huge": (_spec(t=1e300), _KNESER),
    # a finite 3-d box whose t^3 overflowed ended in an OverflowError traceback
    "mc-kneser-3d-t-cubed": ({"spec.json": {"points": [[0.0, 0.0, 0.0]], "radius": 1.0,
                                            "a_k": 1e-200, "b_k": 1e-200, "t": 1e200}}, _KNESER),
    "mc-kneser-t-inf": (_spec(t=math.inf), _KNESER),
    "mc-kneser-b-inf": (_spec(b_k=math.inf), _KNESER),
    "mc-kneser-a-nan": (_spec(a_k=math.nan), _KNESER),
    "bounds-volume-nan": ({}, _bounds("volume-constrained", "d=2,r=1,volume=nan")),
    "bounds-shell-delta-inf": ({}, _bounds("shell-volume", "d=2,r=1,delta=inf,volume=1")),
    "bounds-big-r-inf": ({}, _bounds("bounded-support", "d=2,big_r=inf,r=1")),
    "bounds-sigma-inf": ({}, _bounds("gaussian-surface", "d=2,r=1,sigma=inf")),
    "bounds-radius-nan": ({}, _bounds("reverse-bm", "d=2,r=nan")),
    "bounds-n0-c0-nan": ({}, _bounds("sample-complexity-n0", f"{_N0},c0=nan")),
    "bounds-n0-c0-inf": ({}, _bounds("sample-complexity-n0", f"{_N0},c0=inf")),
    "bounds-n0-c1-nan": ({}, _bounds("sample-complexity-n0", f"{_N0},c1=nan")),
    "bounds-n0-eps-inf": ({}, _bounds("sample-complexity-n0", "d=2,sigma=1,r=1,eps=inf,delta=0.1")),
    # eta * eps / 2 underflowed to 0 and log(0) ended in a math domain error
    "bounds-n0-eps-tiny": ({}, _bounds("sample-complexity-n0", "d=2,sigma=1,r=1,eps=1e-300,delta=0.1")),
    # a finite input whose bound is past double range: strict JSON out refuses it
    "bounds-result-inf": ({}, _bounds("gaussian-surface", "d=2,r=1,sigma=1e-320")),
    "converge-r-inf": ({"conv.json": {**_CONV, "r": math.inf}}, _CONVERGE),
    "converge-sigma-nan": ({"conv.json": {**_CONV, "sigma": math.nan}}, _CONVERGE),
    "epi-smoothing-inf": ({"x.json": {"atoms": [[0.0]]}, "y.json": {"atoms": [[0.0]]}},
                          [*_EPI[:5], "--smoothing", "inf"]),
    "dr-radius-nan": ({"mu0.json": _MU1, "mu1.json": _MU1}, [*_DR[:-1], "nan"]),
    # (2r)^2 past double range ended in an OverflowError traceback
    "dr-radius-huge": ({"mu0.json": {"points": [[0.0], [1.0]]}, "mu1.json": {"points": [[5.0], [7.0]]}},
                       [*_DR[:-1], "1e200"]),
    "dr-weighted-radius-huge": ({"mu0.json": {"points": [[0.0], [1.0]], "weights": [0.25, 0.75]},
                                 "mu1.json": {"points": [[5.0], [7.0]]}}, [*_DR[:-1], "1e200"]),
    # r / 2 underflowed to 0 and log(0) ended in a math domain error
    "bounds-bounded-support-subnormal-r": ({}, _bounds("bounded-support", "d=2,big_r=1,r=5e-324")),
    "exact2d-radius-inf": ({"c.csv": "x0,x1\n0,0\n"}, [*_CSV[:-1], "inf"]),
    "csv-nan": ({"c.csv": "x0,x1\n0,nan\n"}, _CSV),
    "suite-samples-negative": ({}, ["suite", "gaussian", "--samples", "-5"]),
    "suite-samples-zero": ({}, ["suite", "gaussian", "--samples", "0"]),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_non_finite_scalars_exit_2(tmp_path, capsys, case):
    # each of these printed a verdict, a NaN or a zero, or ended in a traceback
    files, argv = NON_FINITE[case]
    _write_files(tmp_path, files)
    assert main([str(tmp_path / a) if a in files else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
    assert "Traceback" not in captured.err
    assert "[PASS]" not in captured.out


@pytest.mark.parametrize("argv", [_GSHELL, ["suite", "gaussian", "--samples", "100"]])
def test_workers_below_one_exit_2_before_any_draw(tmp_path, capsys, argv):
    # the thread count is checked where the command enters its scope
    _write_files(tmp_path, _spec())
    assert main([str(tmp_path / a) if a in _spec() else a for a in argv] + ["--workers", "0"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: workers must be >= 1\n")


@pytest.mark.parametrize("case", ["dr-weights-null", "epi-weights-null"])
def test_weights_null_names_the_key(tmp_path, capsys, case):
    files, argv, where = MALFORMED[case]
    _write_files(tmp_path, files)
    assert main([str(tmp_path / a) if a in files else a for a in argv]) == 2
    assert capsys.readouterr().err.startswith(f"error: {tmp_path / where}: weights: ")


def test_mc_unknown_predicate_names_the_key(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"predicate": "halfpsace", "points": [[0, 0]], "dim": 7}))
    assert main(["mc", "--op", "gshell", "--spec", str(spec), "--samples", "1000"]) == 2
    assert capsys.readouterr().err == (
        f"error: {spec}: predicate: unknown predicate 'halfpsace'; "
        "the one predicate is 'halfspace' (leave it out for the spec's points)\n"
    )


def test_constructor_errors_name_their_place_once(tmp_path, capsys):
    mix, spec = tmp_path / "x.json", tmp_path / "spec.json"
    mix.write_text(json.dumps({"atoms": [[0.0]], "weights": [0.5]}))
    spec.write_text(json.dumps({"points": [[0.0, 0.0]], "radius": -1}))
    assert main(["epi", "--x", str(mix), "--y", str(mix), "--smoothing", "0.5"]) == 2
    assert capsys.readouterr().err == f"error: {mix}: weights: weights must sum to 1 within 1e-12\n"
    for op in ("volume", "kneser"):
        assert main(["mc", "--op", op, "--spec", str(spec), "--samples", "1000"]) == 2
        assert capsys.readouterr().err == f"error: {spec}: radius must be a positive finite real\n"


def test_flat_point_arrays_exit_2(tmp_path, capsys):
    # a flat list is not an array of points (it used to be read as one point or as 1-d atoms)
    spec, mix = tmp_path / "spec.json", tmp_path / "x.json"
    spec.write_text(json.dumps({"points": [0.0, 0.0]}))
    mix.write_text(json.dumps({"atoms": [0.0, 2.0]}))
    assert main(["mc", "--op", "volume", "--spec", str(spec), "--samples", "1000"]) == 2
    assert capsys.readouterr().err == f"error: {spec}: points: ragged or non-array rows\n"
    assert main(["epi", "--x", str(mix), "--y", str(mix), "--smoothing", "0.5"]) == 2
    assert capsys.readouterr().err == f"error: {mix}: atoms: ragged or non-array rows\n"


def _subparsers() -> dict:
    parser = build_parser()
    (action,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


# dr and dr-converge run on one thread, so their handlers never read --workers,
# and dr's measures pick its flow, so it never reads --weighted; the flags stay
# only so that existing command lines that pass them still parse
_INERT_FLAGS = {("dr", "workers"), ("dr-converge", "workers"), ("dr", "weighted")}


def test_every_flag_is_read_by_its_handler():
    flags = set()
    for name, p in _subparsers().items():
        source = inspect.getsource(p.get_default("fn"))
        for action in p._actions:
            if action.dest == "help":
                continue
            flags.add((name, action.dest))
            read = f"args.{action.dest}" in source
            assert read != ((name, action.dest) in _INERT_FLAGS), (name, action.dest)
    assert _INERT_FLAGS <= flags


_REMOVED_FLAGS = [
    ("exact2d", "--seed"), ("exact2d", "--workers"), ("exact2d", "--format"),
    ("bounds", "--seed"), ("bounds", "--workers"), ("bounds", "--format"),
    ("dr", "--seed"), ("dr", "--format"),
    ("verify", "--seed"), ("verify", "--workers"),
    ("dr-converge", "--format"),
    ("mc", "--format"),
    ("epi", "--format"),
    # a shell's delta and sigma are keys of its spec
    ("mc", "--delta"), ("mc", "--sigma"),
]
_WELL_FORMED = {
    "exact2d": ["--shape", "disk", "--centers", "c.csv", "--radius", "1"],
    "bounds": ["--list"],
    "dr": ["--mu0", "a.csv", "--mu1", "b.csv", "--radius", "1"],
    "verify": ["--experiment", "e.json"],
    "dr-converge": ["--config", "c.json"],
    "mc": ["--op", "volume", "--spec", "s.json"],
    "epi": ["--x", "x.json", "--y", "y.json", "--smoothing", "0.5"],
}


@pytest.mark.parametrize("command, flag", _REMOVED_FLAGS)
def test_removed_flags_exit_2(command, flag, capsys):
    value = "json" if flag == "--format" else "1"
    with pytest.raises(SystemExit) as exc:
        main([command, *_WELL_FORMED[command], flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def test_fresh_import_loads_no_scipy():
    # scipy is imported where a primitive calls it, so neither the package,
    # the CLI, the suite nor a command that needs no scipy primitive loads it
    code = (
        "import sys\n"
        "import parset, parset.cli, parset.suite\n"
        "def scipy_modules():\n"
        "    return sorted(k for k in sys.modules if k == 'scipy' or k.startswith('scipy.'))\n"
        "assert scipy_modules() == [], scipy_modules()\n"
        "assert parset.cli.main(['bounds', '--list']) == 0\n"
        "assert parset.cli.main(['bounds', '--eval', 'union-in-ball', '--params', 'd=3,r=0.5']) == 0\n"
        "assert scipy_modules() == [], scipy_modules()\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("dim", [0, -1, 1])
def test_mc_angle_small_dim_exit_2(tmp_path, capsys, dim):
    # the apex used to be drawn before the dimension was checked: a traceback
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"dim": dim}))
    assert main(["mc", "--op", "angle", "--spec", str(spec), "--samples", "100"]) == 2
    assert capsys.readouterr().err == "error: dim must be >= 2\n"


def test_epi_zero_samples_exit_2(tmp_path, capsys):
    # the 2-d and 1-d mixtures take the quadrature, which reads no samples;
    # they fail as the 4-d ones do
    for atoms in ([[0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]], [[0.0], [1.0]]):
        mix = tmp_path / "x.json"
        mix.write_text(json.dumps({"atoms": atoms}))
        assert main(["epi", "--x", str(mix), "--y", str(mix), "--smoothing", "0.5",
                     "--samples", "0"]) == 2
        assert capsys.readouterr().err == "error: samples must be >= 1\n"


@pytest.mark.parametrize("smoothing", ["-1", "0", "nan", "inf"])
def test_epi_bad_smoothing_names_the_flag(tmp_path, capsys, smoothing):
    # checked before the files load, so the weights are not blamed
    mix = tmp_path / "x.json"
    mix.write_text(json.dumps({"atoms": [[0.0]]}))
    assert main(["epi", "--x", str(mix), "--y", str(mix), "--smoothing", smoothing]) == 2
    assert capsys.readouterr().err == "error: --smoothing must be a positive finite real\n"
