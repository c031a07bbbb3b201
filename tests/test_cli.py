import csv
import json
import math
import subprocess
import sys

import pytest

from parset import PointSet, save_points_csv
from parset.cli import main


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "parset", *args], capture_output=True, text=True
    )
    return proc


@pytest.fixture
def centers_csv(tmp_path):
    path = tmp_path / "centers.csv"
    save_points_csv(PointSet([[0.0, 0.0], [1.0, 0.0]]), path)
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
    payload = json.loads(out.read_text())
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
    assert json.loads(out.read_text())["perimeter"] == pytest.approx(10.0)


def test_mc_volume(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"points": [[0.0, 0.0]], "norm": "l2", "radius": 1.0}))
    out = tmp_path / "v.json"
    rc = main(
        ["mc", "--op", "volume", "--spec", str(spec), "--samples", "50000", "--seed", "7", "--out", str(out)]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
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
    listing = json.loads(out.read_text())
    assert "reverse-bm" in listing
    out2 = tmp_path / "e.json"
    assert main(["bounds", "--eval", "reverse-bm", "--params", "d=1,r=1", "--out", str(out2)]) == 0
    assert json.loads(out2.read_text())["value"] == pytest.approx(8.0)


def test_bounds_unknown_name():
    assert main(["bounds", "--eval", "nope"]) == 2


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
    save_points_csv(PointSet([[0.0], [1.0], [2.0]]), mu0)
    save_points_csv(PointSet([[0.5], [2.1], [9.0]]), mu1)
    out = tmp_path / "dr.json"
    rc = main(["dr", "--mu0", str(mu0), "--mu1", str(mu1), "--radius", "0.3", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["value"] == pytest.approx(1.0 / 3.0)
    assert payload["robust_risk"] == pytest.approx(1.0 / 3.0)


def test_dr_weighted_command(tmp_path):
    mu0 = tmp_path / "mu0.json"
    mu1 = tmp_path / "mu1.json"
    mu0.write_text(json.dumps({"points": [[0.0]], "weights": [1.0]}))
    mu1.write_text(json.dumps({"points": [[1.0], [1.5]], "weights": [0.5, 0.5]}))
    out = tmp_path / "dr.json"
    rc = main(["dr", "--mu0", str(mu0), "--mu1", str(mu1), "--radius", "0.5", "--weighted", "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["value"] == pytest.approx(0.5)


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


def test_epi_command(tmp_path):
    x = tmp_path / "x.json"
    y = tmp_path / "y.json"
    x.write_text(json.dumps({"atoms": [[0.0], [2.0]], "weights": [0.5, 0.5]}))
    y.write_text(json.dumps({"atoms": [[0.0]]}))
    out = tmp_path / "epi.json"
    rc = main(["epi", "--x", str(x), "--y", str(y), "--smoothing", "0.5", "--samples", "10000", "--seed", "1", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"h_x", "h_y", "h_sum", "bound", "slack", "verdict"}
    assert payload["verdict"] == "pass"
    assert payload["h_sum"] <= payload["bound"]


def test_epi_entropies_are_the_direct_estimates(tmp_path):
    from parset.entropy import GaussianMixture, entropy_mc

    mixtures = {
        "x": {"atoms": [[0.0, 0.0], [2.0, 1.0]], "weights": [0.3, 0.7]},
        "y": {"atoms": [[1.0, -1.0]], "weights": [1.0]},
    }
    for side, mix in mixtures.items():
        (tmp_path / f"{side}.json").write_text(json.dumps(mix))
    out = tmp_path / "epi.json"
    rc = main(["epi", "--x", str(tmp_path / "x.json"), "--y", str(tmp_path / "y.json"),
               "--smoothing", "0.5", "--samples", "5000", "--seed", "3", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    for key, side, seed in (("h_x", "x", 3), ("h_y", "y", 4)):
        gm = GaussianMixture(variance=0.5, **mixtures[side])
        assert payload[key] == entropy_mc(gm, n=5000, seed=seed).value


def test_epi_workers_reach_the_estimator(tmp_path, monkeypatch):
    from parset import entropy

    seen = []
    map_reduce_chunks = entropy.map_reduce_chunks

    def recording(seed, total, workers, chunk_fn):
        seen.append(workers)
        return map_reduce_chunks(seed, total, workers, chunk_fn)

    monkeypatch.setattr(entropy, "map_reduce_chunks", recording)
    (tmp_path / "x.json").write_text(json.dumps({"atoms": [[0.0, 0.0], [2.0, 1.0]], "weights": [0.3, 0.7]}))
    (tmp_path / "y.json").write_text(json.dumps({"atoms": [[1.0, -1.0], [0.0, 0.5]]}))
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
