"""The benchmark's workloads: their inputs, one round of operations, and the
checks of the outputs against the oracles.

Every operation goes through parset's public entry points (``cli.main`` and
``suite.CHECKS``) in this process, one after the other.  A round is the same
list of operations on every run; ``run.py`` repeats whole rounds, at least
``min_rounds`` of them.  ``step(label)`` is the runner's timer around each
timed step.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import re
import traceback
from pathlib import Path

import numpy as np
from parset import cli, suite
from parset import exact2d as ex2
from parset import transport as tp
from parset.bounds import Verdict
from parset.geometry import PointSet

# The suite checks run at the CLI's default seed whatever --seed says: smoke
# so that the gaussian-calibration fault it shows is the same on every run,
# full-checks so that every run does the same work (the checks' time varies
# with the random instances a seed draws).
SUITE_SEED = 0

# The full profile's sample budgets cut to about a tenth, so that three
# rounds fit the run budget; the fixed instance loops (20 kneser configs,
# 100 + 20 volume-constrained, 50 reverse-bm, 20 + 10 fisher/de Bruijn)
# stay as they are.
FULL_CHECKS_PROFILE = dataclasses.replace(
    suite.FULL,
    mc_samples=100_000,
    halfspace_samples=1_000_000,
    shell3d_samples=50_000,
    kneser_samples=60_000,
    angle_directions=40_000,
    angle_pairs=30,
    entropy_samples=40_000,
    random_configs=150,
    dr_draws=150,
    w1_pairs=30,
    sandwich_count=30,
    convergence_trials=6,
)


@dataclasses.dataclass
class Op:
    name: str
    ok: bool
    error: str | None = None


@dataclasses.dataclass
class Round:
    ops: list[Op]
    outputs: dict
    raw_s: dict[str, float] = dataclasses.field(default_factory=dict)  # step -> wall s
    ref_s: dict[str, float] = dataclasses.field(default_factory=dict)  # at reference speed


def call_cli(argv: list[str]) -> tuple[int, str]:
    """cli.main with its console output captured; returns (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue()


def results_digest(out_dir: Path) -> str:
    name = "results.json" if (out_dir / "results.json").exists() else "results.csv"
    return hashlib.sha256((out_dir / name).read_bytes()).hexdigest()


def _verdict_problem(label, bound, measured, std_error, verdict) -> str | None:
    """The verdict must follow from the numbers, and the numbers be finite."""
    values = (bound, measured, std_error)
    if not all(math.isfinite(v) for v in values):
        return f"{label}: non-finite value in {values}"
    fails = measured - 4.0 * std_error > bound
    if fails != (verdict == "fail"):
        return f"{label}: verdict {verdict} does not follow from {values}"
    return None


def _relative_gap(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


class Smoke:
    """`parset suite all --samples 100` writing results.csv."""

    min_rounds = 1
    # one ~38 s step: the calibrations on its two sides do not follow the
    # speed drift inside it (scaling widened the spread from 0.06 to 0.17
    # over five runs), so its time is reported as measured
    scaled = False
    groups: dict[str, str] = {}

    def write_inputs(self, work: Path, seed: int) -> None:
        pass

    def run_round(self, work: Path, seed: int, index: int, span, step, first: Round | None) -> Round:
        out = work / f"smoke-{index}"
        argv = ["suite", "all", "--samples", "100", "--seed", str(SUITE_SEED),
                "--workers", "1", "--out", str(out)]
        with step("suite-all"), span("op.suite-all"):
            rc, _ = call_cli(argv)
        with open(out / "results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        digest = results_digest(out)
        ops = [
            Op(check, any(r["check"] == check for r in rows)
               and all(r["verdict"] == "pass" for r in rows if r["check"] == check))
            for check in suite.SUITES["all"]
        ]
        same = first is None or digest == first.outputs["sha256"]
        ops.append(Op("results-identical", same, None if same else f"sha256 {digest}"))
        return Round(ops, {"rc": rc, "rows": rows, "sha256": digest})

    def check(self, work: Path, seed: int, rounds: list[Round]) -> list[str]:
        problems = []
        for k, rnd in enumerate(rounds):
            rows = rnd.outputs["rows"]
            missing = set(suite.SUITES["all"]) - {r["check"] for r in rows}
            if missing:
                problems.append(f"round {k}: no rows for {sorted(missing)}")
            for r in rows:
                nums = [float(r[key] or 0.0) for key in ("bound_value", "measured", "std_error")]
                problem = _verdict_problem(f"round {k} {r['check']}/{r['bound_name']}",
                                           *nums, r["verdict"])
                if problem:
                    problems.append(problem)
            want_rc = 1 if any(r["verdict"] == "fail" for r in rows) else 0
            if rnd.outputs["rc"] != want_rc:
                problems.append(f"round {k}: exit code {rnd.outputs['rc']}, want {want_rc}")
        return problems


class FullChecks:
    """The suite checks but exact-vs-raster and gaussian-calibration, through
    suite.CHECKS.  gaussian-calibration is left out because its 3-sigma
    tolerance fails on some seeds at any budget (5 of seeds 0-999 at 1e6
    samples), which would make the failed share depend on the seed."""

    min_rounds = 3
    scaled = True
    names = tuple(n for n in suite.SUITES["all"]
                  if n not in ("exact-vs-raster", "gaussian-calibration"))
    groups = {
        name: f"suite_{group.replace('-', '_')}_s"
        for group, members in suite.SUITES.items()
        if group != "all"
        for name in members
    }

    def write_inputs(self, work: Path, seed: int) -> None:
        pass

    def run_round(self, work: Path, seed: int, index: int, span, step, first: Round | None) -> Round:
        ops, reports = [], {}
        for name in self.names:
            with step(name):
                try:
                    reports[name] = suite.CHECKS[name](SUITE_SEED, FULL_CHECKS_PROFILE)
                    ops.append(Op(name, all(r.verdict is not Verdict.FAIL for r in reports[name])))
                except Exception:
                    ops.append(Op(name, False, traceback.format_exc()))
        return Round(ops, {"reports": reports})

    def check(self, work: Path, seed: int, rounds: list[Round]) -> list[str]:
        import oracles  # scipy-heavy; kept out of the set-up import

        problems = []
        for k, rnd in enumerate(rounds):
            for name, reps in rnd.outputs["reports"].items():
                for rep in reps:
                    problem = _verdict_problem(
                        f"round {k} {name}/{rep.bound_name}", rep.bound_value,
                        rep.measured, rep.std_error, rep.verdict.value)
                    if problem:
                        problems.append(problem)
        g = np.random.default_rng([seed, 2])
        for k in range(10):
            centers = g.uniform(-1.5, 1.5, (int(g.integers(1, 51)), 2))
            r = float(g.uniform(0.3, 1.2))
            pts = PointSet(centers)
            area, perimeter = oracles.square_union_measures(centers, r)
            gaps = {
                "square area": (_relative_gap(ex2.square_union_area(pts, r), area), 1e-9),
                "square perimeter":
                    (_relative_gap(ex2.square_union_perimeter(pts, r), perimeter), 1e-9),
                "disk area": (_relative_gap(ex2.disk_union_area(pts, r),
                                            oracles.disk_union_area(centers, r)), 1e-8),
            }
            problems += [f"instance {k}: {label} off by {gap:.3g} relative"
                         for label, (gap, tol) in gaps.items() if not gap <= tol]
        return problems


# The transport inputs are the same on every run: Hopcroft-Karp's time on a
# threshold graph varies by 20-35% from one random draw to the next, which
# would swamp the timings.  The epi mixtures, whose cost does not depend on
# the draw, come from --seed.
TRANSPORT_SEED = 0
# (label, n, r): two standard normal clouds in the plane per instance
_UNIFORM = (("sparse-2000", 2000, 0.1), ("sparse-3200", 3200, 0.1), ("dense-2400", 2400, 0.3))
# (label, n, r, random weights?); the unweighted one must match the uniform cost
_WEIGHTED = (("weighted-200", 200, 0.3, True), ("uniform-500", 500, 0.3, False))
_CONVERGE = {"r": 0.25, "n_grid": [25, 50, 100, 200], "trials": 5}
_EPI_SMOOTHING = 0.5
_EPI_SAMPLES = 300_000
_REFERENCE = re.compile(r"reference d_r = (\S+) at n_ref = (\d+)")


def _write_points_csv(path: Path, x: np.ndarray) -> None:
    np.savetxt(path, x, fmt="%.17g", delimiter=",", header="x0,x1", comments="")


def _read_points_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


class Estimators:
    """`parset dr`, `dr --weighted`, `dr-converge` and `epi` on files."""

    min_rounds = 3
    scaled = True
    groups = {
        "sparse-2000": "dr_sparse_s", "sparse-3200": "dr_sparse_s", "dense-2400": "dr_dense_s",
        "weighted-200": "dr_weighted_s", "uniform-500": "dr_weighted_s",
        "converge": "dr_converge_s", "epi": "epi_s",
    }

    def write_inputs(self, work: Path, seed: int) -> None:
        for k, (label, n, _) in enumerate(_UNIFORM):
            g = np.random.default_rng([TRANSPORT_SEED, k])
            _write_points_csv(work / f"{label}-x.csv", g.standard_normal((n, 2)))
            _write_points_csv(work / f"{label}-y.csv", g.standard_normal((n, 2)))
        for k, (label, n, _, weighted) in enumerate(_WEIGHTED, start=len(_UNIFORM)):
            g = np.random.default_rng([TRANSPORT_SEED, k])
            for side in "xy":
                payload = {"points": g.standard_normal((n, 2)).tolist()}
                if weighted:
                    w = g.random(n) + 0.1
                    payload["weights"] = (w / w.sum()).tolist()
                (work / f"{label}-{side}.json").write_text(json.dumps(payload))
        gen = {"kind": "gaussian-mixture", "dim": 2, "sigma": 1.0}
        config = dict(_CONVERGE, seed=TRANSPORT_SEED, gen0=dict(gen, atoms=[[0.0, 0.0]]),
                      gen1=dict(gen, atoms=[[1.0, 0.0]]))
        (work / "converge.json").write_text(json.dumps(config))
        g = np.random.default_rng([seed, 9])
        for side in "xy":
            w = g.random(4) + 0.1
            mixture = {"atoms": g.uniform(-3, 3, (4, 2)).tolist(), "weights": (w / w.sum()).tolist()}
            (work / f"epi-{side}.json").write_text(json.dumps(mixture))

    def _operations(self, work: Path, seed: int):
        for label, _, r in _UNIFORM:
            yield label, ["dr", "--mu0", str(work / f"{label}-x.csv"),
                          "--mu1", str(work / f"{label}-y.csv"), "--radius", str(r)]
        for label, _, r, _ in _WEIGHTED:
            yield label, ["dr", "--weighted", "--radius", str(r),
                          "--mu0", str(work / f"{label}-x.json"),
                          "--mu1", str(work / f"{label}-y.json")]
        yield "converge", ["dr-converge", "--config", str(work / "converge.json")]
        yield "epi", ["epi", "--x", str(work / "epi-x.json"), "--y", str(work / "epi-y.json"),
                      "--smoothing", str(_EPI_SMOOTHING),
                      "--samples", str(_EPI_SAMPLES), "--seed", str(seed)]

    def run_round(self, work: Path, seed: int, index: int, span, step, first: Round | None) -> Round:
        ops, outputs = [], {}
        for label, argv in self._operations(work, seed):
            out = work / f"{label}-{index}.out"
            with step(label):
                try:
                    with span(f"op.{label}"):
                        rc, err = call_cli(argv + ["--workers", "1", "--out", str(out)])
                    ops.append(Op(label, rc == 0, None if rc == 0 else f"exit {rc}: {err[-500:]}"))
                    outputs[label] = (out.read_text(), err) if rc == 0 else None
                except Exception:
                    ops.append(Op(label, False, traceback.format_exc()))
                    outputs[label] = None
        return Round(ops, outputs)

    def check(self, work: Path, seed: int, rounds: list[Round]) -> list[str]:
        import oracles  # scipy-heavy; kept out of the set-up import

        problems = []
        expected = {}  # label -> checker of one output
        for label, n, r in _UNIFORM:
            x = _read_points_csv(work / f"{label}-x.csv")
            y = _read_points_csv(work / f"{label}-y.csv")
            expected[label] = self._uniform_checker(x, y, r, oracles.matching_size(x, y, r),
                                                    certify=label == "sparse-2000")
        for label, n, r, _ in _WEIGHTED:
            mu = [json.loads((work / f"{label}-{side}.json").read_text()) for side in "xy"]
            x, y = (np.asarray(m["points"]) for m in mu)
            wx, wy = (np.asarray(m.get("weights", np.full(n, 1.0 / n))) for m in mu)
            lp = oracles.weighted_cost_lp(x, wx, y, wy, r)
            uniform = None if "weights" in mu[0] else tp.d_r_uniform(PointSet(x), PointSet(y), r).value
            expected[label] = self._weighted_checker(lp, uniform)
        expected["converge"] = self._converge_checker()
        expected["epi"] = self._epi_checker(work, seed, oracles)
        for k, rnd in enumerate(rounds):
            for label, output in rnd.outputs.items():
                if output is not None:
                    problems += [f"round {k} {label}: {p}" for p in expected[label](*output)]
        return problems

    @staticmethod
    def _uniform_checker(x, y, r, matched, certify):
        n = len(x)
        problems = []
        if certify:
            res = tp.d_r_uniform(PointSet(x), PointSet(y), r)
            pairs = np.asarray(res.certificate, dtype=np.int64).reshape(-1, 2)
            if len(set(pairs[:, 0])) != len(pairs) or len(set(pairs[:, 1])) != len(pairs):
                problems.append("certificate pairs are not distinct")
            if len(pairs) != matched:
                problems.append(f"certificate has {len(pairs)} pairs, scipy matches {matched}")
            far = np.hypot(*(x[pairs[:, 0]] - y[pairs[:, 1]]).T) > 2.0 * r * (1 + 1e-12)
            if far.any():
                problems.append(f"{int(far.sum())} certificate pairs farther than 2r")

        def check(text, err):
            value = json.loads(text)["value"]
            if value != (n - matched) / n:
                return problems + [f"cost {value!r} != 1 - {matched}/{n} from scipy matching"]
            return problems

        return check

    @staticmethod
    def _weighted_checker(lp, uniform):
        def check(text, err):
            value = json.loads(text)["value"]
            found = []
            if not abs(value - lp) <= 1e-9:
                found.append(f"weighted cost {value!r} vs LP optimum {lp!r}")
            if uniform is not None and value != uniform:
                found.append(f"weighted cost {value!r} != uniform cost {uniform!r}")
            return found

        return check

    @staticmethod
    def _converge_checker():
        grid, trials = _CONVERGE["n_grid"], _CONVERGE["trials"]

        def check(text, err):
            found = []
            match = _REFERENCE.search(err)
            if not match:
                return ["no reference line on stderr"]
            ref, n_ref = float(match.group(1)), int(match.group(2))
            if n_ref != 8 * max(grid) or abs(ref * n_ref - round(ref * n_ref)) > 1e-6:
                found.append(f"reference {ref!r} is not a multiple of 1/{n_ref}")
            rows = list(csv.DictReader(io.StringIO(text)))
            if sorted((int(r["n"]), int(r["trial"])) for r in rows) != \
                    sorted((n, t) for n in grid for t in range(trials)):
                found.append("rows do not cover the grid and trials once each")
            for r in rows:
                n, d_r, dev = int(r["n"]), float(r["d_r"]), float(r["abs_dev"])
                if not (0.0 <= d_r <= 1.0 and abs(d_r * n - round(d_r * n)) < 1e-9):
                    found.append(f"n={n}: cost {d_r!r} is not k/n in [0, 1]")
                if dev != abs(d_r - ref):
                    found.append(f"n={n}: abs_dev {dev!r} != |{d_r!r} - reference|")
            return found

        return check

    @staticmethod
    def _epi_checker(work: Path, seed: int, oracles):
        var = _EPI_SMOOTHING
        mixtures = [json.loads((work / f"epi-{side}.json").read_text()) for side in "xy"]
        (ax, wx), (ay, wy) = ((np.asarray(m["atoms"]), np.asarray(m["weights"])) for m in mixtures)
        a_sum = (ax[:, None, :] + ay[None, :, :]).reshape(-1, 2)
        w_sum = np.outer(wx, wy).ravel()
        cases = {  # key -> (atoms, weights, variance)
            "h_x": (ax, wx, var), "h_y": (ay, wy, var), "h_sum": (a_sum, w_sum, 2.0 * var),
        }
        limits = {}
        for key, (atoms, weights, v) in cases.items():
            low, high = oracles.mixture_entropy_bounds(weights, v, 2)
            sd = oracles.neg_log_density_sd(atoms, weights, v, 20_000, seed)
            limits[key] = (low, high, 4.0 * sd / math.sqrt(_EPI_SAMPLES))

        def check(text, err):
            out = json.loads(text)
            found = []
            if out["verdict"] != "pass":
                found.append(f"verdict {out['verdict']}")
            for key, (low, high, slack) in limits.items():
                if not low - slack <= out[key] <= high + slack:
                    found.append(f"{key} = {out[key]!r} outside [{low!r}, {high!r}] +- {slack:.3g}")
            gap = out["bound"] - out["h_x"] - out["h_y"]
            if not abs(gap + math.log(math.pi * var)) <= 1e-9:
                found.append(f"bound - h_x - h_y = {gap!r}, want -ln(pi r)")
            return found

        return check


WORKLOADS = {"smoke": Smoke, "full-checks": FullChecks, "estimators": Estimators}
