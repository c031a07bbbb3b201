"""Command-line entry point.

Subcommands: exact2d, mc, bounds, verify, dr, dr-converge, epi, suite.
Exit codes: 0 all pass, 1 any check failed, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import sys
from pathlib import Path

import numpy as np

from . import entropy as ent
from . import exact2d as ex2
from . import mc as mcmod
from . import transport as tp
from ._rng import threads
from .bounds import BOUND_CATALOG, Verdict, all_pass, gaussian_constant
from .errors import InvalidArgumentError, RangeOverflowError
from .experiment import load_experiment_config, run_verify_experiment
from .geometry import (
    SPEC_KEYS,
    NormKind,
    is_count,
    is_json_int,
    json_count,
    json_object,
    json_real,
    json_reals,
    kneser_params,
    load_json_object,
    load_points,
    nonnegative_real,
    points_from_json,
    positive_real,
    read_json,
    reading,
    shell_params,
    spec_from_dict,
)
from .mc import McConfig
from .suite import SUITES, report_line, run_suite, write_reports


def _fmt(x) -> str:
    return f"{x:.17g}"


def _emit(payload: dict, out: str | None) -> None:
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:  # strict JSON has no NaN or infinity
        raise RangeOverflowError("the result holds a NaN or infinite value") from None
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _weighted_points(data, path, key: str, build):
    """build(points, weights) of a JSON object {key, "weights"}; no "weights" is uniform."""
    json_object(data, path, {key, "weights"}, required=(key,))
    points = points_from_json(data[key], f"{path}: {key}")
    where = f"{path}: weights"
    weights = json_reals(data["weights"], where) if "weights" in data else np.full(len(points), 1.0 / len(points))
    with reading(where):
        return build(points, weights)


def _load_measure(path) -> tp.EmpiricalMeasure:
    if Path(path).suffix.lower() != ".json":
        return tp.EmpiricalMeasure.uniform(load_points(path))
    data = read_json(path)
    if not isinstance(data, dict):
        return tp.EmpiricalMeasure.uniform(points_from_json(data, path))
    return _weighted_points(data, path, "points", tp.EmpiricalMeasure)


_SHAPE_NORMS = {"disk": NormKind.L2, "square": NormKind.LINF}


def _cmd_exact2d(args) -> int:
    centers = load_points(args.centers)
    decomp = ex2.union_boundary(centers, args.radius, _SHAPE_NORMS[args.shape])
    payload = {"shape": args.shape, "perimeter": decomp.perimeter()}
    if args.area:
        payload["area"] = decomp.area()
    if args.boundary_out:
        with open(args.boundary_out, "w", newline="") as fh:
            writer = csv.writer(fh)
            if args.shape == "disk":
                writer.writerow(["center_index", "theta_start", "theta_end"])
                for i, t0, t1 in decomp.arcs:
                    writer.writerow([i, _fmt(t0), _fmt(t1)])
            else:
                writer.writerow(
                    ["orientation", "fixed_coord", "span_start", "span_end", "outward_sign"]
                )
                for s in decomp.segments:
                    writer.writerow(
                        [s.orientation, _fmt(s.fixed_coord), _fmt(s.span_start), _fmt(s.span_end), s.outward_sign]
                    )
    _emit(payload, args.out)
    return 0


# the keys each mc op reads from its spec file; a gshell spec that names a
# predicate reads the "halfspace" keys instead
_MC_KEYS = {
    "volume": SPEC_KEYS,
    "shell": SPEC_KEYS | {"delta"},
    "gshell": SPEC_KEYS | {"delta", "sigma"},
    "halfspace": {"predicate", "dim", "delta", "sigma"},
    "kneser": SPEC_KEYS | {"a_k", "b_k", "t"},
    "angle": {"dim", "cap_half_angle", "trials"},
}


def _cmd_mc(args) -> int:
    data = read_json(args.spec)
    kind = args.op
    if args.op == "gshell" and isinstance(data, dict) and "predicate" in data:
        if data["predicate"] != "halfspace":
            raise InvalidArgumentError(
                f"{args.spec}: predicate: unknown predicate {data['predicate']!r}; "
                "the one predicate is 'halfspace' (leave it out for the spec's points)"
            )
        kind = "halfspace"
    data = json_object(data, args.spec, _MC_KEYS[kind])
    delta, sigma = shell_params(data, args.spec)
    cfg = McConfig(samples=args.samples, seed=args.seed, shell_delta=delta)
    if kind == "halfspace":
        dim = json_count(data, "dim", 2, args.spec)
    elif args.op != "angle":
        target = spec_from_dict(data, args.spec)
    else:
        # inscribed_angle_check names a dimension below 2 itself
        dim = data.get("dim", 2)
        if not is_json_int(dim):
            raise InvalidArgumentError(f"{args.spec}: dim: need an integer")
        trials = json_count(data, "trials", 10, args.spec)
        cap = json_real(data.get("cap_half_angle", 0.9), f"{args.spec}: cap_half_angle")
    with threads(args.workers):
        # "samples" counts the draws made, none for an exact value
        if args.op == "kneser":
            a_k, b_k, t = kneser_params(data, target.radius, args.spec)
            rep = mcmod.kneser_shell_check(target.base, target.norm, a_k, b_k, t, cfg)
            payload = {"value": rep.measured, "bound": rep.bound_value}
            samples = 0 if mcmod.kneser_is_exact(target.base.dim, target.norm) else args.samples
        elif args.op == "angle":
            rep = mcmod.inscribed_angle_check(dim, cap, trials, args.seed, directions=args.samples)
            payload = {"worst_deficit": rep.measured}
            samples = 0 if mcmod.cap_is_exact(dim) else trials * args.samples
        else:
            if args.op == "volume":
                est = mcmod.mc_volume(target, cfg)
            elif args.op == "shell":
                est = mcmod.mc_shell_lebesgue(target, cfg)
            elif kind == "halfspace":
                est = mcmod.mc_halfspace_gaussian_shell(dim, cfg, sigma=sigma)
            else:
                est = mcmod.mc_gaussian_shell(target, cfg, sigma=sigma)
            _emit(
                {"value": est.value, "std_error": est.std_error, "samples": est.samples_used},
                args.out,
            )
            return 0
    payload.update(std_error=rep.std_error, samples=samples, verdict=rep.verdict.value)
    _emit(payload, args.out)
    return 0 if rep.verdict is not Verdict.FAIL else 1


def _parse_kv_params(text: str) -> dict:
    params: dict = {}
    if not text:
        return params
    for item in text.split(","):
        if "=" not in item:
            raise InvalidArgumentError(f"malformed parameter {item!r}, expected k=v")
        key, value = (part.strip() for part in item.split("=", 1))
        with reading("--params"):
            if key == "norm":
                params[key] = NormKind.parse(value)
            elif key == "d":
                params[key] = int(value)
            else:
                params[key] = float(value)
    return params


def _cmd_bounds(args) -> int:
    if args.list:  # _emit sorts the names
        _emit({name: {"parameters": list(inspect.signature(fn).parameters)}
               for name, fn in BOUND_CATALOG.items()}, args.out)
        return 0
    if not args.eval:
        raise InvalidArgumentError("bounds: need --list or --eval NAME")
    if args.eval not in BOUND_CATALOG:
        raise InvalidArgumentError(
            f"unknown bound {args.eval!r}; see 'parset bounds --list'"
        )
    fn = BOUND_CATALOG[args.eval]
    params = _parse_kv_params(args.params or "")
    with reading("--params"):
        inspect.signature(fn).bind(**params)
    value = fn(**params)
    payload: dict = {"name": args.eval, "parameters": {k: getattr(v, "value", v) for k, v in params.items()}}
    if args.eval == "bounded-support":
        payload["ball"], payload["cube"] = value
    else:
        payload["value"] = value
    if args.eval == "gaussian-surface":
        breakdown = gaussian_constant(int(params["d"]), params.get("norm", NormKind.L2))
        payload["constant_C"] = breakdown.constant_C
        payload["sandwich"] = [breakdown.lower_sandwich, breakdown.upper_sandwich]
    _emit(payload, args.out)
    return 0


def _cmd_verify(args) -> int:
    cfg = load_experiment_config(args.experiment)
    reports = run_verify_experiment(cfg)
    out_path = args.out or cfg.output_path
    if out_path:
        write_reports(out_path, cfg.name, [("verify", rep) for rep in reports], args.format)
    for rep in reports:
        print(report_line(None, rep))
    return 0 if all_pass(reports) else 1


def _cmd_dr(args) -> int:
    mu0, mu1 = _load_measure(args.mu0), _load_measure(args.mu1)
    # uniform measures of equal counts take the matching, all others the exact flow
    equal_counts = len(mu0.points) == len(mu1.points)
    if equal_counts and mu0.is_uniform and mu1.is_uniform:
        result = tp.d_r_uniform(mu0.points, mu1.points, args.radius)
    else:
        result = tp.d_r_weighted(mu0, mu1, args.radius)
    _emit(
        {
            "value": result.value,
            "threshold_r": args.radius,
            "matched_mass": 1.0 - result.value,
            "robust_risk": tp.robust_risk(result.value),
            "n0": len(mu0.points),
            "n1": len(mu1.points),
        },
        args.out,
    )
    return 0


_CONVERGE_KEYS = {"gen0", "gen1", "r", "sigma", "n_grid", "trials", "seed"}
# the keys each generator kind reads
_GEN_KEYS = {
    "gaussian-mixture": {"kind", "dim", "atoms", "weights", "sigma"},
    "uniform-ball": {"kind", "dim", "center", "radius"},
}


def _gen_from_dict(data, where) -> tp.DistributionSpec:
    kind = data.get("kind", "gaussian-mixture") if isinstance(data, dict) else None
    # an unknown kind is checked against every key here and named by DistributionSpec
    keys = _GEN_KEYS[kind] if kind in tuple(_GEN_KEYS) else set().union(*_GEN_KEYS.values())
    json_object(data, where, keys, kind="generator key")
    atoms = points_from_json(data["atoms"], f"{where}: atoms").points if "atoms" in data else ()
    dim = json_count(data, "dim", 2, where)
    with reading(where):
        return tp.DistributionSpec(
            kind=kind,
            dim=dim,
            atoms=tuple(map(tuple, atoms)),
            weights=tuple(json_reals(data.get("weights", []), f"{where}: weights").tolist()),
            sigma=json_real(data.get("sigma", 0.0), f"{where}: sigma"),
            center=tuple(json_reals(data.get("center", []), f"{where}: center").tolist()),
            radius=json_real(data.get("radius", 1.0), f"{where}: radius"),
        )


def _cmd_dr_converge(args) -> int:
    data = load_json_object(args.config, _CONVERGE_KEYS, required=("gen0", "gen1", "r", "n_grid"))
    gen0 = _gen_from_dict(data["gen0"], f"{args.config}: gen0")
    gen1 = _gen_from_dict(data["gen1"], f"{args.config}: gen1")
    if gen1.dim != gen0.dim:
        raise InvalidArgumentError(f"{args.config}: gen1: dim {gen1.dim} differs from gen0's dim {gen0.dim}")
    with reading(args.config):  # each check names its key first
        r = nonnegative_real(json_real(data["r"], f"{args.config}: r"), "r: radius")
        sigma = nonnegative_real(json_real(data.get("sigma", 0.0), f"{args.config}: sigma"), "sigma: noise sigma")
    n_grid = data["n_grid"]
    if not (isinstance(n_grid, list) and n_grid and all(map(is_count, n_grid))):
        raise InvalidArgumentError(f"{args.config}: n_grid: need a nonempty list of sizes >= 1")
    trials = json_count(data, "trials", 10, args.config)
    seed = data.get("seed", args.seed)
    if not is_json_int(seed):
        raise InvalidArgumentError(f"{args.config}: seed: need an integer")
    result = tp.convergence_experiment(
        gen0, gen1, r=r, sigma=sigma, n_grid=n_grid, trials=trials, seed=seed
    )
    target = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(target)
        writer.writerow(["n", "trial", "d_r", "abs_dev"])
        for n, trial, d_r, dev in result.rows:
            writer.writerow([n, trial, _fmt(d_r), _fmt(dev)])
    finally:
        if args.out:
            target.close()
    print(f"reference d_r = {_fmt(result.reference)} at n_ref = {result.n_ref}",
          file=sys.stderr)
    return 0


def _load_mixture_file(path, variance: float) -> ent.GaussianMixture:
    return _weighted_points(
        read_json(path), path, "atoms", lambda a, w: ent.GaussianMixture(a.points, w, variance)
    )


def _cmd_epi(args) -> int:
    positive_real(args.smoothing, "--smoothing")
    gm_x = _load_mixture_file(args.x, args.smoothing)
    gm_y = _load_mixture_file(args.y, args.smoothing)
    with threads(args.workers):
        rep, h_x, h_y = ent.reverse_epi_check(gm_x, gm_y, n=args.samples, seed=args.seed)
    _emit(
        {
            "h_x": h_x.value,
            "h_y": h_y.value,
            "h_sum": rep.measured,
            "bound": rep.bound_value,
            "slack": rep.slack,
            "verdict": rep.verdict.value,
        },
        args.out,
    )
    return 0 if rep.verdict is not Verdict.FAIL else 1


def _cmd_suite(args) -> int:
    reports = run_suite(
        args.name, args.seed, args.samples, args.workers, args.out, args.format, log=print
    )
    passed = all_pass(reports)
    print(f"suite {args.name}: {'all pass' if passed else 'FAILURES'} ({len(reports)} checks)")
    return 0 if passed else 1


# the flags several subcommands share; each subcommand takes those its handler reads
_SHARED_FLAGS = {
    "seed": dict(type=int, default=0, help="base RNG seed"),
    "workers": dict(type=int, default=1, help="worker threads"),
    "out": dict(type=str, default=None, help="output path"),
    "format": dict(choices=("csv", "json"), default="csv"),
}
# dr and dr-converge run on one thread, and dr's measures pick its flow; their
# --workers and dr's --weighted only keep old scripts parsing
_INERT_WORKERS = dict(_SHARED_FLAGS["workers"], help="has no effect")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="parset", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, fn, help: str, *shared: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        for flag in shared:
            p.add_argument(f"--{flag}", **_SHARED_FLAGS[flag])
        p.set_defaults(fn=fn)
        return p

    p = command("exact2d", _cmd_exact2d, "exact planar union measures", "out")
    p.add_argument("--shape", choices=tuple(_SHAPE_NORMS), required=True)
    p.add_argument("--centers", required=True)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--area", action="store_true")
    p.add_argument("--boundary-out", type=str, default=None)

    p = command("mc", _cmd_mc, "Monte Carlo measures", "seed", "workers", "out")
    p.add_argument("--op", choices=("volume", "shell", "gshell", "kneser", "angle"), required=True)
    p.add_argument("--spec", required=True, help="JSON instance description")
    p.add_argument("--samples", type=int, default=100_000)

    p = command("bounds", _cmd_bounds, "closed-form constants", "out")
    p.add_argument("--list", action="store_true")
    p.add_argument("--eval", type=str, default=None)
    p.add_argument("--params", type=str, default=None, help="k=v,k=v parameter list")

    p = command("verify", _cmd_verify, "measured-vs-bound experiment", "out", "format")
    p.add_argument("--experiment", required=True, help="ExperimentConfig JSON file")

    p = command("dr", _cmd_dr, "thresholded transport cost", "out")
    p.add_argument("--workers", **_INERT_WORKERS)
    p.add_argument("--mu0", required=True)
    p.add_argument("--mu1", required=True)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--weighted", action="store_true", help="has no effect")

    p = command("dr-converge", _cmd_dr_converge, "plug-in convergence experiment", "seed", "out")
    p.add_argument("--workers", **_INERT_WORKERS)
    p.add_argument("--config", required=True)

    p = command("epi", _cmd_epi, "smoothed-sum entropy inequality", "seed", "workers", "out")
    p.add_argument("--x", required=True, help="mixture JSON for the first variable")
    p.add_argument("--y", required=True, help="mixture JSON for the second variable")
    p.add_argument("--smoothing", type=float, required=True)
    p.add_argument("--samples", type=int, default=200_000,
                   help="Monte Carlo draws per entropy, for a mixture whose quadrature "
                        f"grid would exceed {ent._MAX_POINTS} points; the others read none")

    p = command("suite", _cmd_suite, "run a verification suite", "seed", "workers", "out", "format")
    p.add_argument("name", choices=tuple(SUITES))
    p.add_argument("--samples", type=int, default=None, help="smoke-mode sample budget")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (InvalidArgumentError, RangeOverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
