"""Monte Carlo estimators for volume, Lebesgue and Gaussian shell measures,
solid angles, and the shell-scaling check, in arbitrary dimension.

Every estimator is one band count, _band_estimates: the share p of draws
(uniform in a padded bounding box, or Gaussian) whose distance to the set
lies in (lo, hi], reported as scale * p / delta.  A solid angle is the
Gaussian measure of a cone, so it is a band count too; the central cap's
solid angle has a closed form and is not sampled.
Sampling is chunked over counter-based streams (see _rng), so a fixed seed
reproduces estimates bit-for-bit no matter the worker count.  A box draw is
scaled one coordinate column at a time into a (d, m) buffer and handed on as
its transpose, which min_dist scans without a copy.  Shell estimators carry
an O(delta) bias that callers fold into tolerances; the default shell width
is r / 1000.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _kernels
from ._rng import derive_seed, map_reduce_chunks, single_generator, uniform_in_ball
from .bounds import BoundReport, worst_excess
from .errors import InvalidArgumentError
from .geometry import NormKind, ParallelSetSpec, positive_real


@dataclass(frozen=True)
class McConfig:
    samples: int
    seed: int
    shell_delta: float | None = None  # None resolves to r / 1000 at use
    workers: int = 1

    def __post_init__(self):
        if self.samples < 1:
            raise InvalidArgumentError("samples must be >= 1")
        if self.shell_delta is not None:
            positive_real(self.shell_delta, "shell_delta")
        if self.workers < 1:
            raise InvalidArgumentError("workers must be >= 1")


@dataclass(frozen=True)
class MeasureEstimate:
    value: float
    std_error: float
    samples_used: int


@dataclass(frozen=True)
class MembershipPredicate:
    """Closed set given through its L2 distance function.

    distance_fn maps an (n, d) batch to the distance from each point to the
    set; membership is distance <= 0.  Predicates are measured under a
    Gaussian weight only.
    """

    dim: int
    distance_fn: Callable[[np.ndarray], np.ndarray]


def halfspace_predicate(dim: int) -> MembershipPredicate:
    """The halfspace x_0 <= 0."""
    return MembershipPredicate(dim=dim, distance_fn=lambda x: np.maximum(x[:, 0], 0.0))


def ball_predicate(dim: int, rho: float) -> MembershipPredicate:
    positive_real(rho, "ball radius")
    origin = np.zeros((1, dim))
    return MembershipPredicate(
        dim=dim, distance_fn=lambda x: np.maximum(_kernels.min_dist(x, origin, False) - rho, 0.0)
    )


def full_space_predicate(dim: int) -> MembershipPredicate:
    return MembershipPredicate(dim=dim, distance_fn=lambda x: np.zeros(len(x)))


def _target(target):
    """(dim, inner radius, distance fn) of a ParallelSetSpec or MembershipPredicate."""
    if isinstance(target, ParallelSetSpec):
        points, linf = target.base.points, target.norm is NormKind.LINF
        return target.base.dim, target.radius, lambda x: _kernels.min_dist(x, points, linf)
    if isinstance(target, MembershipPredicate):
        return target.dim, 0.0, target.distance_fn
    raise InvalidArgumentError("target must be a ParallelSetSpec or MembershipPredicate")


def _band_estimates(
    cfg: McConfig, dim: int, dist_fn, bands, box=None, sigma: float = 1.0
) -> list[MeasureEstimate]:
    """scale * P(lo < dist_fn(X) <= hi) / delta for each band (lo, hi, delta).

    All bands are counted on one sample stream.  With box = (points, reach)
    X is uniform in the bounding box of points padded by reach and scale is
    the box volume, which must be finite; with box None X ~ N(0, sigma^2 I)
    and scale is 1.
    """
    if box is None:
        positive_real(sigma, "sigma")
        scale = 1.0
        draw = lambda g, m: g.standard_normal((m, dim)) * sigma
    else:
        points, reach = box
        with np.errstate(over="ignore"):  # an infinite box is rejected below
            lo = points.min(axis=0) - reach
            span = (points.max(axis=0) + reach) - lo
            scale = float(np.prod(span))
        if not math.isfinite(scale):
            raise InvalidArgumentError("the sampling box's volume exceeds double range")

        def draw(g, m):
            # lo + u * span one column at a time, not broadcast over rows only
            # dim long; min_dist scans the rows of cols without a copy
            u = g.random((m, dim))
            cols = np.empty((dim, m))
            for k, row in enumerate(cols):
                np.add(np.multiply(u[:, k], span[k], out=row), lo[k], out=row)
            return cols.T

    def chunk(g, m):
        d = dist_fn(draw(g, m))
        return tuple(int(np.count_nonzero((d > a) & (d <= b))) for a, b, _ in bands)

    n = cfg.samples
    estimates = []
    for hits, (_, _, delta) in zip(map_reduce_chunks(cfg.seed, n, cfg.workers, chunk), bands):
        p = hits / n
        se = scale * math.sqrt(p * (1.0 - p) / n)
        estimates.append(MeasureEstimate(scale * p / delta, se / delta, n))
    return estimates


def _resolve_delta(cfg: McConfig, r: float) -> float:
    return cfg.shell_delta if cfg.shell_delta is not None else r / 1000.0


def mc_volume(spec: ParallelSetSpec, cfg: McConfig) -> MeasureEstimate:
    """Hit-or-miss volume over the tight per-axis bounding box."""
    dim, r, dist_fn = _target(spec)
    return _band_estimates(cfg, dim, dist_fn, [(-math.inf, r, 1.0)], box=(spec.base.points, r))[0]


def mc_shell_lebesgue(spec: ParallelSetSpec, cfg: McConfig) -> MeasureEstimate:
    """(volume between radii r and r+delta) / delta."""
    dim, r, dist_fn = _target(spec)
    delta = _resolve_delta(cfg, r)
    box = (spec.base.points, r + delta)
    return _band_estimates(cfg, dim, dist_fn, [(r, r + delta, delta)], box=box)[0]


def mc_gaussian_shell(target, cfg: McConfig, sigma: float = 1.0) -> MeasureEstimate:
    """Gaussian measure of the delta-shell around the dilated set, over delta."""
    dim, inner, dist_fn = _target(target)
    delta = _resolve_delta(cfg, inner if inner > 0.0 else 1.0)
    return _band_estimates(cfg, dim, dist_fn, [(inner, inner + delta, delta)], sigma=sigma)[0]


def mc_gaussian_measure(target, cfg: McConfig, sigma: float = 1.0) -> MeasureEstimate:
    """Gaussian mass of the (dilated) set itself."""
    dim, inner, dist_fn = _target(target)
    return _band_estimates(cfg, dim, dist_fn, [(-math.inf, inner, 1.0)], sigma=sigma)[0]


def kneser_shell_check(
    base, norm: NormKind, a_k: float, b_k: float, t: float, cfg: McConfig
) -> BoundReport:
    """Shell-scaling check: vol(shell a..b scaled by t) <= t^d vol(shell a..b).

    Both shells are estimated from one common sample stream over the box of
    the largest dilation, so the two estimates are positively correlated and
    the comparison is sharp even at modest sample counts.
    """
    if not (0.0 < a_k <= b_k < math.inf):
        raise InvalidArgumentError("need 0 < a_k <= b_k < inf")
    if not (1.0 <= t < math.inf):
        raise InvalidArgumentError("need 1 <= t < inf")
    dim, reach, dist_fn = _target(ParallelSetSpec(base=base, norm=norm, radius=t * b_k))
    bands = [(t * a_k, t * b_k, 1.0), (a_k, b_k, 1.0)]
    lhs, rhs = _band_estimates(cfg, dim, dist_fn, bands, box=(base.points, reach))
    scale = t**dim
    combined = math.sqrt(lhs.std_error**2 + (scale * rhs.std_error) ** 2)
    return BoundReport.compare(
        "kneser-shell", bound_value=scale * rhs.value, measured=lhs.value, std_error=combined
    )


def central_cap_fraction(dim: int, cap_half_angle: float) -> float:
    """Share of the unit sphere S^(dim-1) within angle theta = cap_half_angle
    of e_0: (1/2) I_{sin^2 theta}((d-1)/2, 1/2) up to pi/2, one minus the
    share at pi - theta past it."""
    from scipy.special import betainc

    half = 0.5 * float(betainc(0.5 * (dim - 1), 0.5, math.sin(cap_half_angle) ** 2))
    return half if cap_half_angle <= 0.5 * math.pi else 1.0 - half


def cap_solid_angle_fractions(
    dim: int,
    cap_half_angle: float,
    apex: np.ndarray,
    directions: int,
    seed: int,
    workers: int = 1,
) -> tuple[MeasureEstimate, float]:
    """(fraction at apex, exact fraction at centre) of the full sphere.

    The cap sits on the unit sphere around axis e_0 with the given half
    angle.  The apex fraction is the Gaussian measure of the cone of
    directions whose ray from the apex meets the cap, one band count over
    `directions` draws; the central one is central_cap_fraction.
    """
    if dim < 2:
        raise InvalidArgumentError("dim must be >= 2")
    if not (0.0 < cap_half_angle < math.pi):
        raise InvalidArgumentError("cap_half_angle must lie in (0, pi)")
    apex = np.asarray(apex, dtype=np.float64)
    if apex.shape != (dim,) or np.linalg.norm(apex) > 1.0 + 1e-9:
        raise InvalidArgumentError("apex must be a d-vector inside the closed unit ball")
    cfg = McConfig(samples=directions, seed=seed, workers=workers)
    cos_cap = math.cos(cap_half_angle)

    def misses(x):
        u = x / np.linalg.norm(x, axis=1, keepdims=True)
        # ray from apex: |apex + t u| = 1, positive root
        b = u @ apex
        t = -b + np.sqrt(np.maximum(b * b + 1.0 - apex @ apex, 0.0))
        height = apex[0] + t * u[:, 0]
        return np.where((height >= cos_cap) & (t > 1e-12), 0.0, 1.0)

    (apex_fraction,) = _band_estimates(cfg, dim, misses, [(-math.inf, 0.0, 1.0)])
    return apex_fraction, central_cap_fraction(dim, cap_half_angle)


def inscribed_angle_check(
    dim: int,
    cap_half_angle: float,
    trials: int,
    seed: int,
    directions: int = 200_000,
    workers: int = 1,
) -> BoundReport:
    """Solid angle of a spherical cap from an interior apex vs from the centre.

    For every sampled apex the cap's solid angle must be at least the central
    one over 2^(d-1), within 4 standard errors of the apex estimate.  The
    report carries the apex with the largest deficit - 4 * standard error,
    so a failing apex cannot hide behind a larger but noisier deficit.
    """
    if dim < 2:
        raise InvalidArgumentError("dim must be >= 2")
    if trials < 1:
        raise InvalidArgumentError("trials must be >= 1")
    shrink = 2.0 ** (dim - 1)

    def deficit(k):
        sub = derive_seed(seed, "inscribed-angle", k)
        apex = uniform_in_ball(single_generator(derive_seed(sub, "apex")), 1, dim)[0]
        fa, fc = cap_solid_angle_fractions(dim, cap_half_angle, apex, directions, sub, workers)
        return fc / shrink - fa.value, fa.std_error

    deficits = [deficit(k) for k in range(trials)]
    measured, se = deficits[worst_excess(d - 4.0 * se for d, se in deficits)[1]]
    return BoundReport.compare("inscribed-angle", bound_value=0.0, measured=measured, std_error=se)
