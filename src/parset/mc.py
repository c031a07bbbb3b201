"""Monte Carlo estimators for volume, Lebesgue and Gaussian shell measures,
solid angles, and the shell-scaling check, in arbitrary dimension.

Every set measured is a ParallelSetSpec, except the one calibration target,
the halfspace x_0 <= 0 of mc_halfspace_gaussian_shell, whose standard
Gaussian shell density tends to 1 / sqrt(2 pi) as the shell narrows.

Every estimate is a bounds.MeasureEstimate.  A sampled one is a band count,
_band_estimates: the share p of samples_used draws (uniform in a padded
bounding box, or Gaussian) whose distance to the set lies in (lo, hi],
reported as scale * p / delta.  An exact one has samples_used 0 and its
rounding allowance as std_error.

union_measures is the one place that decides which measures of a union are
exact, by kind, dimension and norm, with no fallback:

    kind              in the plane       L-inf off the plane    L2 off the plane
    volume            exact2d area       cube_union_measures    band count
    surface           exact2d perimeter  band count             band count
    gaussian-surface  under L-inf the cover's delta-shell, under L2 mc_gaussian_shell

One exact2d.union_boundary gives a planar area, with its rounding allowance,
and perimeter.  cube_union_measures contracts the prefix-sum cover
_kernels.cube_cover, which raises past its budget.  The sampled volume and
surface share one draw over the box of the (r + delta)-dilation.  A cap's
solid angle seen from an apex, the Gaussian measure of a cone, is a band
count from 4-d up and exact in 2-d and 3-d (two atan2 calls; complete
elliptic integrals), as the central cap's is in every dimension.
Sampling is chunked over counter-based streams (see _rng), so a fixed seed
reproduces estimates bit-for-bit no matter how many threads the enclosing
_rng.threads scope gives the chunks.  A box draw is scaled one coordinate
column at a time into a (d, m) buffer and handed on as its transpose, which
min_dist scans without a copy.  Shell estimators carry an O(delta) bias that
callers fold into tolerances; the default shell width is r / 1000, and
1 / 1000 beside the halfspace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels, exact2d
from ._rng import chunk_generator, derive_seed, map_reduce_chunks, uniform_in_ball
from .bounds import BoundReport, MeasureEstimate, worst_excess
from .errors import InvalidArgumentError, RangeOverflowError
from .geometry import NormKind, ParallelSetSpec, PointSet, kneser_triple, positive_count, positive_radius, positive_real


@dataclass(frozen=True)
class McConfig:
    samples: int
    seed: int
    shell_delta: float | None = None  # None resolves to r / 1000 at use

    def __post_init__(self):
        object.__setattr__(self, "samples", positive_count(self.samples, "samples"))
        if self.shell_delta is not None:
            positive_real(self.shell_delta, "shell_delta")


def _target(spec: ParallelSetSpec):
    """(dim, radius, distance fn) of a ParallelSetSpec."""
    points, linf = spec.base.points, spec.norm is NormKind.LINF
    return spec.base.dim, spec.radius, lambda x: _kernels.min_dist(x, points, linf)


def _band_estimates(
    cfg: McConfig, dim: int, dist_fn, bands, box=None, sigma: float = 1.0
) -> list[MeasureEstimate]:
    """scale * P(lo < dist_fn(X) <= hi) / delta for each band (lo, hi, delta).

    All bands are counted on one sample stream.  With box = (points, reach)
    X is uniform in the bounding box of points padded by reach and scale is
    the box volume, which must be finite; with box None X ~ N(0, sigma^2 I)
    and scale is 1, and a draw past double range raises RangeOverflowError.
    """
    if box is None:
        positive_real(sigma, "sigma")
        scale = 1.0

        def draw(g, m):
            with np.errstate(over="ignore"):
                x = g.standard_normal((m, dim)) * sigma
            # a finite draw times sigma <= 1 stays finite, so only sigma > 1 pays the scan
            if sigma > 1.0 and not np.isfinite(x).all():
                raise RangeOverflowError(f"a Gaussian draw at sigma {sigma:g} exceeds double range")
            return x
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
    for hits, (_, _, delta) in zip(map_reduce_chunks(cfg.seed, n, chunk), bands):
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
    """(volume between radii r and r+delta) / delta, counted over the bounding
    box padded by r + delta."""
    dim, r, dist_fn = _target(spec)
    delta = _resolve_delta(cfg, r)
    return _band_estimates(cfg, dim, dist_fn, [(r, r + delta, delta)], box=(spec.base.points, r + delta))[0]


def mc_gaussian_shell(spec: ParallelSetSpec, cfg: McConfig, sigma: float = 1.0) -> MeasureEstimate:
    """Gaussian measure of the delta-shell around the dilated set, over delta."""
    dim, r, dist_fn = _target(spec)
    delta = _resolve_delta(cfg, r)
    return _band_estimates(cfg, dim, dist_fn, [(r, r + delta, delta)], sigma=sigma)[0]


def mc_halfspace_gaussian_shell(dim: int, cfg: McConfig, sigma: float = 1.0) -> MeasureEstimate:
    """Gaussian measure of the delta-shell 0 < x_0 <= delta beside the
    halfspace x_0 <= 0, over delta."""
    delta = _resolve_delta(cfg, 1.0)
    dist_fn = lambda x: np.maximum(x[:, 0], 0.0)
    return _band_estimates(cfg, dim, dist_fn, [(0.0, delta, delta)], sigma=sigma)[0]


# rounding allowance of an exact planar area, in units of ulp(1) * n * L *
# reach: n exposed arcs or segments of total length L, reach = rho + R (R:
# the farthest centre from the first, about which a disk union's area is
# summed).  An arc end's angle is within 17 ulp(1) (atan2, acos, the wrap at
# 2 pi and two sums); moving an arc end by delta moves the area by at most
# reach * delta / 2, and L >= 2 pi rho, so the ends cost at most 3 units.
# The n terms add up to at most reach * L with at most 1 unit of error, and
# the sin and cos differences and the products within a term take at most 1
# more.  The cover rounds square faces c +- rho at their absolute place, so
# a square union's reach adds the first centre's largest coordinate, as
# _cover_allowances does.  Gaps within exact2d._EPS of angle are the
# decomposition's own tolerance, not rounding, and are not covered.
_AREA_ROUNDING = 8.0


def _planar_measures(base, rho: float, norm: NormKind) -> tuple[MeasureEstimate, MeasureEstimate]:
    """(area with its rounding allowance, perimeter with std_error 0) of the
    rho-parallel set of a planar base, from one exact2d.union_boundary."""
    boundary, pts = exact2d.union_boundary(base, rho, norm), base.points
    reach = rho + float(np.hypot(*(pts - pts[0]).T).max())
    if norm is NormKind.LINF:
        reach += float(np.abs(pts[0]).max())
    pieces = boundary.arcs if norm is NormKind.L2 else boundary.segments
    area, perimeter = boundary.area(), boundary.perimeter()
    allowance = _AREA_ROUNDING * len(pieces) * math.ulp(1.0) * perimeter * reach
    if not (math.isfinite(area) and math.isfinite(allowance)):
        raise RangeOverflowError(f"the area of the {rho:g}-parallel set exceeds double range")
    return MeasureEstimate(area, allowance, 0), MeasureEstimate(perimeter, 0.0, 0)


def cube_union_measures(base: PointSet, r: float) -> tuple[MeasureEstimate, MeasureEstimate]:
    """(Lebesgue volume, standard Gaussian measure) of the union of the cubes
    [c - r, c + r]^d over the points c of base: its r-parallel set under L-inf.

    Both contract the covered cells of _kernels.cube_cover, its faces taken
    about the first point so that an exact translation gives the same volume
    to the bit: the volume with the widths between grid lines, the Gaussian
    measure with the differences of Phi (_phi) at them.  Each std_error is a
    rounding allowance (see _cover_allowances) and samples_used is 0.  A
    grid past the cover's budget raises InvalidArgumentError before it is
    allocated, and a result past double range RangeOverflowError.
    """
    r, pts = positive_radius(r), base.points
    with np.errstate(over="ignore", invalid="ignore"):
        lines, slabs = _kernels.cube_cover(pts - pts[0], r)
        volume, gaussian = _contract(slabs, [lines, [_phi(e + c) for e, c in zip(lines, pts[0].tolist())]])
    e_volume, e_gaussian = _cover_allowances(pts, r, lines, volume)
    if not all(map(math.isfinite, (volume, e_volume, e_gaussian))):
        raise RangeOverflowError(f"the volume of the {r:g}-parallel set exceeds double range")
    return MeasureEstimate(volume, e_volume, 0), MeasureEstimate(gaussian, e_gaussian, 0)


def _contract(slabs, weights: list[list[np.ndarray]]) -> list[float]:
    """For each list of per-axis line weights w, the sum over covered cells of
    the product of their w[k + 1] - w[k].  Each first-axis row is contracted on
    its own, one dot product per axis from the last, so the slab size does not
    show in the bits; the rows' sums then make one dot product."""
    steps = [[np.diff(w, append=w[-1]) for w in axes] for axes in weights]
    rows = [np.empty(len(step[0])) for step in steps]
    for start, covered in slabs:
        for step, out in zip(steps, rows):
            v = covered
            for w in reversed(step[1:]):
                v = (v[..., None, :] @ w)[..., 0]
            out[start : start + len(v)] = v
    return [float(out @ step[0]) for step, out in zip(steps, rows)]


def _phi(x: np.ndarray) -> np.ndarray:
    """The standard normal CDF at each x, as 0.5 erfc(-x / sqrt 2).  Through
    math.erfc, within 1.1 u of the 40-digit value on 60 000 points in
    [-40, 40]; scipy.special.ndtr would page in another 128 KB of code on its
    first call."""
    return np.array([0.5 * math.erfc(-v * math.sqrt(0.5)) for v in x.tolist()])


def _cover_allowances(pts, r, lines, volume) -> tuple[float, float]:
    """Rounding allowances of cube_union_measures' volume and Gaussian measure
    of the r-cubes about the n points pts in dim-d, over the grid lines
    lines, m of them in all.  With u = ulp(1) / 2:

    - Faces.  A face c - c_0 +- r is within eps = 2 u reach of its place
      about the first point c_0 (reach: r plus the farthest coordinate
      offset), and within eps' = eps + 2 u (reach + |c_0|) once c_0 is added
      back for Phi.  The cover is exact on the rounded faces.  Moving each
      face of a cube of side s = 2r by eps moves it by at most (s + 2 eps)^d
      - (s - 2 eps)^d <= 4 d eps (s + 2 eps)^(d-1) in volume, and by at most
      4 d eps' / sqrt(2 pi) in Gaussian measure (2d slabs 2 eps' wide under
      a density of at most 1 / sqrt(2 pi) across them); the union moves by
      at most n times that.
    - Weights.  A width is within u of itself, and each Phi within 4 u, so a
      Phi difference within 9 u, and one axis's differences, whose true sum
      is at most 1, within 9 u m_k in all (m_k lines on axis k).
    - Sums.  One dot product of m_k nonnegative terms per axis adds at most
      m_k u of relative error, m u in all.

    So the volume is within placement + (m + d) u V and the Gaussian
    measure within placement' + (10 m + d) u; both are doubled for the
    rounding of these expressions.
    """
    n, dim = pts.shape
    ulp = math.ulp(1.0)
    reach = float(np.abs(pts - pts[0]).max()) + r
    eps = ulp * reach
    eps_g = eps + ulp * (reach + float(np.abs(pts[0]).max()))
    with np.errstate(over="ignore"):
        side = float(np.float64(2.0 * r + 2.0 * eps) ** (dim - 1))
    m = sum(map(len, lines))
    e_volume = 2.0 * (n * 4.0 * dim * eps * side + ulp * (m + dim) * volume)
    placement = n * 4.0 * dim * eps_g / math.sqrt(2.0 * math.pi)
    e_gaussian = 2.0 * (placement + 5.0 * ulp * (m + dim))
    return e_volume, e_gaussian


def union_measures(spec: ParallelSetSpec, kinds, cfg: McConfig) -> tuple[MeasureEstimate, ...]:
    """One MeasureEstimate for each kind in kinds, in order, of the r-parallel
    set spec: "volume", "surface", or "gaussian-surface" (the standard
    Gaussian measure of the delta-shell, over delta), each from the engine
    the module docstring's table names; cfg is read by the sampled ones only.
    The cover raises InvalidArgumentError past its budget, and a value past
    double range raises RangeOverflowError."""
    wanted = set(kinds)
    if not wanted <= {"volume", "surface", "gaussian-surface"}:
        raise InvalidArgumentError(f"unknown measure kinds in {kinds}")
    base, norm, r = spec.base, spec.norm, spec.radius
    delta = _resolve_delta(cfg, r)
    found = {}
    if base.dim == 2 and {"volume", "surface"} & wanted:
        found["volume"], found["surface"] = _planar_measures(base, r, norm)
    elif norm is NormKind.LINF and "volume" in wanted:
        found["volume"] = cube_union_measures(base, r)[0]
    if "gaussian-surface" in wanted and norm is NormKind.LINF:
        inner, outer = (cube_union_measures(base, rho)[1] for rho in (r, r + delta))
        shell, std_error = (outer.value - inner.value) / delta, (outer.std_error + inner.std_error) / delta
        found["gaussian-surface"] = MeasureEstimate(shell, std_error, 0)
    elif "gaussian-surface" in wanted:
        found["gaussian-surface"] = mc_gaussian_shell(spec, cfg)
    # the sampled Lebesgue kinds share one draw over the box of the (r + delta)-dilation
    bands = {"volume": (-math.inf, r, 1.0), "surface": (r, r + delta, delta)}
    sampled = [kind for kind in bands if kind in wanted and kind not in found]
    if sampled:
        dim, _, dist_fn = _target(spec)
        box = (base.points, r + delta)
        found.update(zip(sampled, _band_estimates(cfg, dim, dist_fn, [bands[k] for k in sampled], box=box)))
    return tuple(found[kind] for kind in kinds)


def kneser_is_exact(dim: int, norm: NormKind) -> bool:
    """Whether kneser_shell_check's shells are exact, and so draw nothing:
    where union_measures' volume is, in the plane and under L-inf in every
    dimension."""
    return dim == 2 or norm is NormKind.LINF


def cap_is_exact(dim: int) -> bool:
    """Whether cap_solid_angle_fractions' apex fraction is exact: in 2-d and 3-d."""
    return dim <= 3


def kneser_shell_check(
    base, norm: NormKind, a_k: float, b_k: float, t: float, cfg: McConfig,
    volumes: dict | None = None,
) -> BoundReport:
    """Shell-scaling check: vol(shell a..b scaled by t) <= t^d vol(shell a..b).

    Where union_measures' volume is exact (kneser_is_exact), both shells are
    differences of its volumes at a, b, ta and tb, std_error their summed
    rounding allowance, and cfg is not read; volumes, if given, maps radius
    to volume for this base and norm, so calls that share it compute each
    radius once.  L2 shells off the plane are band counts on one sample
    stream over the box of the largest dilation, so the two estimates are
    positively correlated and the comparison is sharp at modest counts.
    """
    kneser_triple(a_k, b_k, t)
    if kneser_is_exact(base.dim, norm):

        def volume(rho):
            if volumes is not None and rho in volumes:
                return volumes[rho]
            (found,) = union_measures(ParallelSetSpec(base=base, norm=norm, radius=rho), ("volume",), cfg)
            return found if volumes is None else volumes.setdefault(rho, found)

        outer, inner, big, small = (volume(rho) for rho in (t * b_k, t * a_k, b_k, a_k))
        scale = _checked_power(t, base.dim)
        measured, bound = outer.value - inner.value, scale * (big.value - small.value)
        std_error = outer.std_error + inner.std_error + scale * (big.std_error + small.std_error)
        if not (math.isfinite(bound) and math.isfinite(std_error)):
            raise RangeOverflowError(f"t^{base.dim} times the shell's volume exceeds double range")
        return BoundReport.compare(
            "kneser-shell", bound_value=bound, measured=measured, std_error=std_error
        )
    dim, reach, dist_fn = _target(ParallelSetSpec(base=base, norm=norm, radius=t * b_k))
    bands = [(t * a_k, t * b_k, 1.0), (a_k, b_k, 1.0)]
    lhs, rhs = _band_estimates(cfg, dim, dist_fn, bands, box=(base.points, reach))
    scale = _checked_power(t, dim)
    combined = math.sqrt(lhs.std_error**2 + (scale * rhs.std_error) ** 2)
    return BoundReport.compare(
        "kneser-shell", bound_value=scale * rhs.value, measured=lhs.value, std_error=combined
    )


def _checked_power(t: float, dim: int) -> float:
    try:
        return t**dim
    except OverflowError:
        raise RangeOverflowError(f"{t:g}^{dim} exceeds double range") from None


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


def half_angle(x: float) -> float:
    """x, checked to be a cap's half angle: a real in (0, pi)."""
    if not 0.0 < x < math.pi:
        raise InvalidArgumentError("cap_half_angle must lie in (0, pi)")
    return x


def cap_solid_angle_fractions(
    dim: int, cap_half_angle: float, apex: np.ndarray, directions: int, seed: int
) -> tuple[MeasureEstimate, float]:
    """(fraction at apex, exact fraction at centre) of the full sphere.

    The cap sits on the unit sphere around axis e_0 with the given half
    angle; the apex fraction is the share of directions whose ray from the
    apex leaves the ball through the cap.  In 2-d and 3-d it is exact
    (_exact_cap_fraction; std_error is its rounding allowance, and directions
    and seed are only checked).  From 4-d up it is the Gaussian measure of
    that cone of directions, one band count over `directions` draws, on the
    threads of the enclosing _rng.threads scope.  The central fraction is
    central_cap_fraction.
    """
    dim, directions = positive_count(dim, "dim", least=2), positive_count(directions, "directions")
    cap_half_angle = half_angle(cap_half_angle)
    apex = np.asarray(apex, dtype=np.float64)
    if apex.shape != (dim,) or np.linalg.norm(apex) > 1.0 + 1e-9:
        raise InvalidArgumentError("apex must be a d-vector inside the closed unit ball")
    cfg = McConfig(samples=directions, seed=seed)
    central = central_cap_fraction(dim, cap_half_angle)
    if cap_is_exact(dim):
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
    dim: int, cap_half_angle: float, trials: int, seed: int, directions: int = 200_000
) -> BoundReport:
    """Solid angle of a spherical cap from an interior apex vs from the centre.

    For every sampled apex the cap's solid angle must be at least the central
    one over 2^(d-1), within 4 standard errors of the apex fraction (its
    rounding allowance in 2-d and 3-d, where `directions` is not read).  The
    report is the apex's with the largest excess (deficit - 4 * standard
    error), so a failing apex cannot hide behind a larger but noisier deficit.
    """
    dim, trials = positive_count(dim, "dim", least=2), positive_count(trials, "trials")
    directions, cap_half_angle = positive_count(directions, "directions"), half_angle(cap_half_angle)
    shrink = _checked_power(2.0, dim - 1)

    def report(k):
        sub = derive_seed(seed, "inscribed-angle", k)
        apex = uniform_in_ball(chunk_generator(derive_seed(sub, "apex"), 0), 1, dim)[0]
        fa, fc = cap_solid_angle_fractions(dim, cap_half_angle, apex, directions, sub)
        return BoundReport.compare("inscribed-angle", 0.0, fc / shrink - fa.value, fa.std_error)

    reports = [report(k) for k in range(trials)]
    return reports[worst_excess(rep.excess for rep in reports)[1]]
