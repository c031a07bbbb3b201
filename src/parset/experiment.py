"""Experiment configuration files and the measured-vs-bound verify runner.

Configs are JSON with a strict schema: unknown keys are rejected by name,
and a seed is mandatory because every experiment may sample.  The file
format itself (JSON objects, point arrays, spec objects) is read through
geometry's IO section; run_verify_experiment casts every parameter before it
measures anything, so a malformed value fails before any sampling starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from . import _kernels
from . import mc as mcmod
from ._rng import derive_seed
from .bounds import (
    BoundReport,
    MeasureEstimate,
    bound_union_in_ball,
    bound_union_in_cube,
    bound_volume_constrained,
    gaussian_surface_bound,
)
from .errors import InvalidArgumentError
from .geometry import (
    SPEC_KEYS,
    NormKind,
    is_json_int,
    json_count,
    json_object,
    kneser_params,
    load_json_object,
    reading,
    shell_params,
    spec_from_dict,
)
from .mc import McConfig

_MODULES = ("core-geometry", "exact2d", "mc-measure", "bounds", "robust-risk", "entropy")
_TOP_KEYS = {"name", "module", "parameters", "seed", "output_path"}
_PARAM_KEYS = SPEC_KEYS | {"samples", "delta", "sigma", "checks", "a_k", "b_k", "t"}
_CHECK_NAMES = ("union-in-ball", "union-in-cube", "volume-constrained", "gaussian-surface", "kneser")
# containment checks: the norm whose unions the cap is for, and the cap
_CONTAINMENT = {
    "union-in-ball": (NormKind.L2, bound_union_in_ball),
    "union-in-cube": (NormKind.LINF, bound_union_in_cube),
}


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    module: str
    parameters: dict
    seed: int
    output_path: str | None = None

    def __post_init__(self):
        if self.module not in _MODULES:
            raise InvalidArgumentError(
                f"unknown module {self.module!r}; expected one of {', '.join(_MODULES)}"
            )


def load_experiment_config(path) -> ExperimentConfig:
    data = load_json_object(path, _TOP_KEYS, required=("name", "module", "seed"))
    params = json_object(
        data.get("parameters", {}), f"{path}: parameters", _PARAM_KEYS, kind="parameter key"
    )
    if not is_json_int(data["seed"]):
        raise InvalidArgumentError(f"{path}: seed: need an integer")
    with reading(path):
        return ExperimentConfig(
            name=str(data["name"]),
            module=str(data["module"]),
            parameters=params,
            seed=data["seed"],
            output_path=None if data.get("output_path") is None else str(data["output_path"]),
        )


def _enclosing_radius(points: np.ndarray, norm: NormKind) -> float:
    """Radius of the smallest ball of the norm that holds every point.

    Under L-inf it is measured from the centre of the bounding box, which is
    exact.  Under L2 the centre is that of the smallest enclosing ball
    (_ball_center).  Either way the radius is the largest distance measured
    from the rounded centre, so a ball of that radius about it holds the set;
    where the rounding leaves it a few ulps above the true radius, a set whose
    true radius is exactly the dilation radius is not compared.
    """
    if norm is NormKind.LINF:
        center = 0.5 * (points.min(axis=0) + points.max(axis=0))
    else:
        center = _ball_center(points)
    return float(_kernels.min_dist(points, center[None, :], norm is NormKind.LINF).max())


def _ball_center(points: np.ndarray) -> np.ndarray:
    """Centre of the smallest L2 ball holding every point.  The points go to
    _welzl in a fixed shuffle: in their own order, sorted or circular inputs
    would take one recursive call per point."""
    shuffled = points[np.random.default_rng(0).permutation(len(points))]
    return _welzl(shuffled, len(points), [])


def _welzl(points: np.ndarray, end: int, support: list) -> np.ndarray:
    """Centre of the smallest L2 ball holding points[:end] with every support
    point on its sphere: Welzl's move-to-front recursion (Welzl 1991; Gaertner
    1999), which is at most d + 1 calls deep.  Each point found outside the
    ball is put on the support of a recursive call and moved to the front of
    points, which is reordered in place.  A point counts as outside only past
    1e-12 of the radius, so rounding cannot put a support point twice."""
    center = _circumcenter(np.asarray(support)) if support else points[0]
    if len(support) == points.shape[1] + 1:
        return center
    radius_sq = ((np.asarray(support) - center) ** 2).sum(axis=1).max() if support else 0.0
    i = 0
    while i < end:
        outside = ((points[i:end] - center) ** 2).sum(axis=1) > radius_sq * (1.0 + 1e-12)
        if not outside.any():
            break
        j = i + int(outside.argmax())
        p = points[j].copy()
        center = _welzl(points, j, support + [p])
        radius_sq = ((np.asarray(support + [p]) - center) ** 2).sum(axis=1).max()
        points[1 : j + 1] = points[:j]
        points[0] = p
        i = j + 1
    return center


def _circumcenter(support: np.ndarray) -> np.ndarray:
    """Centre of the smallest sphere through every support point: the point
    of their affine hull equidistant from them (least squares where rounding
    leaves the support degenerate)."""
    edges = support[1:] - support[0]
    if not len(edges):
        return support[0]
    coef = np.linalg.lstsq(edges @ edges.T, 0.5 * (edges * edges).sum(axis=1), rcond=None)[0]
    return support[0] + coef @ edges


def run_verify_experiment(cfg: ExperimentConfig) -> list[BoundReport]:
    """Measure the configured instance and compare against the named bounds.
    The volume and surface come from mc.union_measures (see the table in mc).
    gaussian-surface samples mc_gaussian_shell at every norm, since it takes a
    sigma and union_measures measures the standard Gaussian only."""
    params = cfg.parameters
    spec = spec_from_dict(params, cfg.name)
    points, norm, radius = spec.base, spec.norm, spec.radius
    samples = json_count(params, "samples", 200_000, cfg.name)
    delta, sigma = shell_params(params, cfg.name)
    checks = params.get("checks", list(_CHECK_NAMES[:3]))
    if not (isinstance(checks, list) and all(isinstance(name, str) for name in checks)):
        raise InvalidArgumentError(f"{cfg.name}: checks: need an array of check names")
    a_k, b_k, t = kneser_params(params, radius, cfg.name)
    for name in checks:
        if name not in _CHECK_NAMES:
            raise InvalidArgumentError(f"{cfg.name}: unknown check {name!r}")
    d = points.dim

    @cache
    def measures() -> tuple[MeasureEstimate, MeasureEstimate]:
        """(volume, surface) from mc.union_measures; the sampled ones are
        counted on one draw, the shell's."""
        mc_cfg = McConfig(samples=samples, seed=derive_seed(cfg.seed, "shell"), shell_delta=delta)
        return mcmod.union_measures(spec, ("volume", "surface"), mc_cfg)

    reports: list[BoundReport] = []
    for name in checks:
        if name in _CONTAINMENT:
            cap_norm, cap = _CONTAINMENT[name]
            bound = cap(d, radius)
            if norm is not cap_norm or _enclosing_radius(points.points, norm) > radius:
                reports.append(BoundReport(name, bound))
            else:
                surface = measures()[1]
                reports.append(BoundReport.compare(name, bound, surface.value, surface.std_error))
        elif name == "volume-constrained":
            vol, surface = measures()
            bound = bound_volume_constrained(d, radius, vol.upper)
            reports.append(BoundReport.compare(name, bound, surface.value, surface.std_error))
        elif name == "gaussian-surface":
            est = mcmod.mc_gaussian_shell(
                spec,
                McConfig(samples=samples, seed=derive_seed(cfg.seed, "gshell"), shell_delta=delta),
                sigma=sigma,
            )
            bound = gaussian_surface_bound(d, radius, sigma, norm)
            reports.append(BoundReport.compare(name, bound, est.value, est.std_error))
        elif name == "kneser":
            reports.append(
                mcmod.kneser_shell_check(
                    points,
                    norm,
                    a_k,
                    b_k,
                    t,
                    McConfig(samples=samples, seed=derive_seed(cfg.seed, "kneser")),
                )
            )
    return reports
