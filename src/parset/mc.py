"""Monte Carlo estimators for volume, Lebesgue and Gaussian shell measures,
solid angles, and the shell-scaling check, in arbitrary dimension.

Every estimator is one band count, _band_estimates: the share p of draws
(uniform in a padded bounding box, or Gaussian) whose distance to the set
lies in (lo, hi], reported as scale * p / delta.  A solid angle is the
Gaussian measure of a cone, so from 4-d up a cap's solid angle seen from an
apex is a band count too.  In 2-d and 3-d it is exact, as the central cap's
is in every dimension: an arc's angle from two atan2 calls, a disk's solid
angle from complete elliptic integrals.  The split is by dimension only.
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


# rounding allowance of an exact cap fraction, in units of ulp(1): the
# fraction is within ulp(1) * (_CAP_ROUNDING + 1 / dist) of its true value,
# dist the apex's distance to the cap's rim (the rounded cos and sin of the
# half angle move the rim by about ulp(1) / 2); against 40-digit quadrature
# at 600 apexes, 1e-9 to 2 from the rim, the error stayed below
# 0.5 ulp(1) * (1 + 1 / dist)
_CAP_ROUNDING = 4.0


def _disk_solid_angle(h: float, rho: float, s: float) -> float:
    """Solid angle of the disk of radius s from height h >= 0 above its plane
    and distance rho from its axis (Paxton, Rev. Sci. Instrum. 30, 1959):
    2 pi [rho < s] - (2h / R_max) (K(k) + (s - rho) / (s + rho) Pi(n, k)),
    with k^2 = 4 s rho / R_max^2 and n = 4 s rho / (s + rho)^2, K and Pi in
    Carlson's symmetric forms."""
    from scipy.special import elliprf, elliprj

    if h == 0.0:
        return 2.0 * math.pi if rho < s else 0.0
    r_max = math.hypot(h, s + rho)
    y = (math.hypot(h, s - rho) / r_max) ** 2  # 1 - k^2
    k = float(elliprf(0.0, y, 1.0))
    if rho == s:
        return math.pi - 2.0 * h / r_max * k
    p = ((s - rho) / (s + rho)) ** 2  # 1 - n
    pi_n = k + (1.0 - p) / 3.0 * float(elliprj(0.0, y, 1.0, p))
    return 2.0 * math.pi * (rho < s) - 2.0 * h / r_max * (k + (s - rho) / (s + rho) * pi_n)


def _exact_cap_fraction(dim: int, cap_half_angle: float, apex: np.ndarray) -> MeasureEstimate:
    """The apex fraction in 2-d and 3-d, with its rounding allowance as std_error.

    2-d: the angle the arc subtends at the apex, over 2 pi.  3-d: the rim
    bounds a disk in the plane x_0 = cos theta; a ray from below the plane
    reaches the cap through the disk, a ray from above it everywhere but
    through the disk.  An apex on the sphere inside the cap loses its outward
    half, whose rays leave the ball at once; as in the Monte Carlo count,
    where a ray must travel 1e-12 to count, "on the sphere" means within about
    1e-12 of it.  At the rim itself two half-spaces at angle pi - theta leave
    theta / (2 pi).
    """
    c, s = math.cos(cap_half_angle), math.sin(cap_half_angle)
    a = apex.tolist()
    if dim == 2:
        # from the apex to the arc's ends (c, s) and (c, -s)
        dx, dy, dy_low = c - a[0], s - a[1], -s - a[1]
        dist = min(math.hypot(dx, dy), math.hypot(dx, dy_low))
        turn = math.atan2(dy, dx) - math.atan2(dy_low, dx)
        fraction = (turn % (2.0 * math.pi)) / (2.0 * math.pi)
    else:
        h, rho = a[0] - c, math.hypot(a[1], a[2])
        dist = math.hypot(h, rho - s)
        disk = _disk_solid_angle(abs(h), rho, s) / (4.0 * math.pi)
        fraction = disk if h <= 0.0 else 1.0 - disk
    ulp = math.ulp(1.0)
    if dist == 0.0:
        return MeasureEstimate(cap_half_angle / (2.0 * math.pi), _CAP_ROUNDING * ulp, 0)
    if a[0] > c and apex @ apex >= 1.0 - 2e-12:
        fraction -= 0.5
    return MeasureEstimate(fraction, ulp * (_CAP_ROUNDING + 1.0 / dist), 0)


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
    angle; the apex fraction is the share of directions whose ray from the
    apex leaves the ball through the cap.  In 2-d and 3-d it is exact
    (_exact_cap_fraction; std_error is its rounding allowance, and directions,
    seed and workers are only checked).  From 4-d up it is the Gaussian
    measure of that cone of directions, one band count over `directions`
    draws.  The central fraction is central_cap_fraction.
    """
    if dim < 2:
        raise InvalidArgumentError("dim must be >= 2")
    if not (0.0 < cap_half_angle < math.pi):
        raise InvalidArgumentError("cap_half_angle must lie in (0, pi)")
    apex = np.asarray(apex, dtype=np.float64)
    if apex.shape != (dim,) or np.linalg.norm(apex) > 1.0 + 1e-9:
        raise InvalidArgumentError("apex must be a d-vector inside the closed unit ball")
    cfg = McConfig(samples=directions, seed=seed, workers=workers)
    central = central_cap_fraction(dim, cap_half_angle)
    if dim <= 3:
        return _exact_cap_fraction(dim, cap_half_angle, apex), central
    cos_cap = math.cos(cap_half_angle)

    def misses(x):
        u = x / np.linalg.norm(x, axis=1, keepdims=True)
        # ray from apex: |apex + t u| = 1, positive root
        b = u @ apex
        t = -b + np.sqrt(np.maximum(b * b + 1.0 - apex @ apex, 0.0))
        height = apex[0] + t * u[:, 0]
        return np.where((height >= cos_cap) & (t > 1e-12), 0.0, 1.0)

    (apex_fraction,) = _band_estimates(cfg, dim, misses, [(-math.inf, 0.0, 1.0)])
    return apex_fraction, central


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
    one over 2^(d-1), within 4 standard errors of the apex fraction (its
    rounding allowance in 2-d and 3-d, where `directions` is not read).  The
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
