"""Monte Carlo estimators for volume, Lebesgue and Gaussian shell measures,
solid angles, and the shell-scaling check, in arbitrary dimension.

Sampling is chunked over counter-based streams (see _rng), so a fixed seed
reproduces estimates bit-for-bit no matter the worker count.  Shell
estimators carry an O(delta) bias that callers fold into tolerances; the
default shell width is r / 1000.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _kernels
from ._rng import chunk_generator, derive_seed, map_reduce_chunks, uniform_in_ball
from .bounds import BoundReport
from .errors import InvalidArgumentError
from .geometry import NormKind, ParallelSetSpec


@dataclass(frozen=True)
class McConfig:
    samples: int
    seed: int
    shell_delta: float | None = None  # None resolves to r / 1000 at use
    workers: int = 1

    def __post_init__(self):
        if self.samples < 1:
            raise InvalidArgumentError("samples must be >= 1")
        if self.shell_delta is not None and not (self.shell_delta > 0.0):
            raise InvalidArgumentError("shell_delta must be positive")
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
    set; membership is distance <= 0.  bounding_radius None marks a set that
    is only usable under a Gaussian weight.
    """

    dim: int
    distance_fn: Callable[[np.ndarray], np.ndarray]
    bounding_radius: float | None = None


def halfspace_predicate(dim: int) -> MembershipPredicate:
    """The halfspace x_0 <= 0."""
    return MembershipPredicate(
        dim=dim,
        distance_fn=lambda x: np.maximum(x[:, 0], 0.0),
        bounding_radius=None,
    )


def ball_predicate(dim: int, rho: float) -> MembershipPredicate:
    if not (rho > 0.0):
        raise InvalidArgumentError("ball radius must be positive")
    return MembershipPredicate(
        dim=dim,
        distance_fn=lambda x: np.maximum(np.linalg.norm(x, axis=1) - rho, 0.0),
        bounding_radius=rho,
    )


def full_space_predicate(dim: int) -> MembershipPredicate:
    return MembershipPredicate(
        dim=dim, distance_fn=lambda x: np.zeros(len(x)), bounding_radius=None
    )


def _spec_distances(spec: ParallelSetSpec, x: np.ndarray) -> np.ndarray:
    return _kernels.min_dist(x, spec.base.points, spec.norm is NormKind.LINF)


def _bounding_box(spec: ParallelSetSpec, extra: float = 0.0):
    reach = spec.radius + extra
    lo = spec.base.points.min(axis=0) - reach
    hi = spec.base.points.max(axis=0) + reach
    return lo, hi, float(np.prod(hi - lo))


def _proportion_estimate(hits: int, n: int, scale: float) -> MeasureEstimate:
    p = hits / n
    return MeasureEstimate(
        value=scale * p,
        std_error=scale * math.sqrt(p * (1.0 - p) / n),
        samples_used=n,
    )


def mc_volume(spec: ParallelSetSpec, cfg: McConfig) -> MeasureEstimate:
    """Hit-or-miss volume over the tight per-axis bounding box."""
    lo, hi, box_vol = _bounding_box(spec)
    span = hi - lo

    def chunk(g, n):
        x = lo + g.random((n, spec.base.dim)) * span
        return (int((_spec_distances(spec, x) <= spec.radius).sum()),)

    (hits,) = map_reduce_chunks(cfg.seed, cfg.samples, cfg.workers, chunk)
    return _proportion_estimate(hits, cfg.samples, box_vol)


def _resolve_delta(cfg: McConfig, r: float) -> float:
    return cfg.shell_delta if cfg.shell_delta is not None else r / 1000.0


def mc_shell_lebesgue(spec: ParallelSetSpec, cfg: McConfig) -> MeasureEstimate:
    """(volume between radii r and r+delta) / delta."""
    delta = _resolve_delta(cfg, spec.radius)
    lo, hi, box_vol = _bounding_box(spec, extra=delta)
    span = hi - lo
    r = spec.radius

    def chunk(g, n):
        x = lo + g.random((n, spec.base.dim)) * span
        d = _spec_distances(spec, x)
        return (int(((d > r) & (d <= r + delta)).sum()),)

    (hits,) = map_reduce_chunks(cfg.seed, cfg.samples, cfg.workers, chunk)
    est = _proportion_estimate(hits, cfg.samples, box_vol)
    return MeasureEstimate(est.value / delta, est.std_error / delta, est.samples_used)


def _gaussian_shell_counter(target, sigma: float):
    if isinstance(target, ParallelSetSpec):
        dim = target.base.dim
        inner = target.radius
        dist_fn = lambda x: _spec_distances(target, x)
    elif isinstance(target, MembershipPredicate):
        dim = target.dim
        inner = 0.0
        dist_fn = target.distance_fn
    else:
        raise InvalidArgumentError("target must be a ParallelSetSpec or MembershipPredicate")
    if not (sigma > 0.0):
        raise InvalidArgumentError("sigma must be positive")
    return dim, inner, dist_fn


def mc_gaussian_shell(target, cfg: McConfig, sigma: float = 1.0) -> MeasureEstimate:
    """Gaussian measure of the delta-shell around the dilated set, over delta."""
    dim, inner, dist_fn = _gaussian_shell_counter(target, sigma)
    delta = _resolve_delta(cfg, inner if inner > 0.0 else 1.0)

    def chunk(g, n):
        x = g.standard_normal((n, dim)) * sigma
        d = dist_fn(x)
        return (int(((d > inner) & (d <= inner + delta)).sum()),)

    (hits,) = map_reduce_chunks(cfg.seed, cfg.samples, cfg.workers, chunk)
    est = _proportion_estimate(hits, cfg.samples, 1.0)
    return MeasureEstimate(est.value / delta, est.std_error / delta, est.samples_used)


def mc_gaussian_measure(target, cfg: McConfig, sigma: float = 1.0) -> MeasureEstimate:
    """Gaussian mass of the (dilated) set itself."""
    dim, inner, dist_fn = _gaussian_shell_counter(target, sigma)

    def chunk(g, n):
        x = g.standard_normal((n, dim)) * sigma
        return (int((dist_fn(x) <= inner).sum()),)

    (hits,) = map_reduce_chunks(cfg.seed, cfg.samples, cfg.workers, chunk)
    return _proportion_estimate(hits, cfg.samples, 1.0)


def kneser_shell_check(
    base, norm: NormKind, a_k: float, b_k: float, t: float, cfg: McConfig
) -> BoundReport:
    """Shell-scaling check: vol(shell a..b scaled by t) <= t^d vol(shell a..b).

    Both shells are estimated from one common sample stream over the box of
    the largest dilation, so the two estimates are positively correlated and
    the comparison is sharp even at modest sample counts.
    """
    if not (0.0 < a_k <= b_k):
        raise InvalidArgumentError("need 0 < a_k <= b_k")
    if not (t >= 1.0):
        raise InvalidArgumentError("need t >= 1")
    outer = ParallelSetSpec(base=base, norm=norm, radius=t * b_k)
    lo, hi, box_vol = _bounding_box(outer)
    span = hi - lo
    dim = base.dim

    def chunk(g, n):
        x = lo + g.random((n, dim)) * span
        d = _kernels.min_dist(x, base.points, norm is NormKind.LINF)
        lhs = int(((d > t * a_k) & (d <= t * b_k)).sum())
        rhs = int(((d > a_k) & (d <= b_k)).sum())
        return lhs, rhs

    lhs_hits, rhs_hits = map_reduce_chunks(cfg.seed, cfg.samples, cfg.workers, chunk)
    lhs = _proportion_estimate(lhs_hits, cfg.samples, box_vol)
    rhs = _proportion_estimate(rhs_hits, cfg.samples, box_vol)
    scale = t**dim
    combined = math.sqrt(lhs.std_error**2 + (scale * rhs.std_error) ** 2)
    return BoundReport.compare(
        "kneser-shell", bound_value=scale * rhs.value, measured=lhs.value, std_error=combined
    )


def cap_solid_angle_fractions(
    dim: int,
    cap_half_angle: float,
    apex: np.ndarray,
    directions: int,
    seed: int,
) -> tuple[float, float, float, float]:
    """(fraction at apex, fraction at centre, se at apex, se at centre).

    The cap sits on the unit sphere around axis e_0 with the given half
    angle; both solid angles (as fractions of the full sphere) are estimated
    with the same direction sample so their ratio is tightly coupled.
    """
    if dim < 2:
        raise InvalidArgumentError("dim must be >= 2")
    if not (0.0 < cap_half_angle < math.pi):
        raise InvalidArgumentError("cap_half_angle must lie in (0, pi)")
    apex = np.asarray(apex, dtype=np.float64)
    if apex.shape != (dim,) or np.linalg.norm(apex) > 1.0 + 1e-9:
        raise InvalidArgumentError("apex must be a d-vector inside the closed unit ball")
    cos_cap = math.cos(cap_half_angle)
    g = chunk_generator(seed, 0)
    u = g.standard_normal((directions, dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    # ray from apex: |apex + t u| = 1, positive root
    b = u @ apex
    t = -b + np.sqrt(np.maximum(b * b + 1.0 - apex @ apex, 0.0))
    q = apex[None, :] + t[:, None] * u
    hit_apex = (q[:, 0] >= cos_cap) & (t > 1e-12)
    hit_center = u[:, 0] >= cos_cap
    fa = hit_apex.mean()
    fc = hit_center.mean()
    se = lambda p: math.sqrt(p * (1.0 - p) / directions)
    return float(fa), float(fc), se(fa), se(fc)


def inscribed_angle_check(
    dim: int,
    cap_half_angle: float,
    trials: int,
    seed: int,
    directions: int = 200_000,
) -> BoundReport:
    """Solid angle of a spherical cap from an interior apex vs from the centre.

    For every sampled apex the cap's solid angle must be at least the central
    one over 2^(d-1), within 4 combined standard errors.  The report carries
    the worst deficit.
    """
    if trials < 1:
        raise InvalidArgumentError("trials must be >= 1")
    shrink = 2.0 ** (dim - 1)
    worst = -math.inf
    worst_se = 0.0
    for k in range(trials):
        sub = derive_seed(seed, "inscribed-angle", k)
        apex = uniform_in_ball(chunk_generator(sub, 1), 1, dim)[0]
        fa, fc, se_a, se_c = cap_solid_angle_fractions(
            dim, cap_half_angle, apex, directions, sub
        )
        deficit = fc / shrink - fa
        se = math.sqrt(se_a**2 + (se_c / shrink) ** 2)
        if deficit > worst or math.isnan(deficit):
            worst = deficit
            worst_se = se
    return BoundReport.compare(
        "inscribed-angle", bound_value=0.0, measured=worst, std_error=worst_se
    )
