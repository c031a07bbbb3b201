"""Gaussian-mixture differential entropy, Fisher information, and the
smoothed-sum entropy inequality checks.

A discrete variable smoothed with N(0, var * I) noise has a Gaussian-mixture
density; everything here works with that class (isotropic, one shared
variance per mixture).  Entropies are in nats.
Every Monte Carlo estimate here is a mean of per-sample values with its
standard error, taken by one chunked reduction, _moment_means.
The log-density and the score share one kernel, _mixture_blocks: the (n, k)
log terms log w_k - |x - a_k|^2 / (2 var), with squared distances summed one
coordinate column at a time, and their row log-sum-exp, _row_logsumexp,
which follows scipy.special.logsumexp step for step (a test pins the two
equal).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import xlogy

from ._rng import atom_indices, map_reduce_chunks
from .bounds import BoundReport, reverse_epi_constant
from .errors import InvalidArgumentError
from .geometry import group_rows


class EntropyMethod(Enum):
    MC = "mc"
    QUADRATURE = "quadrature"


@dataclass(frozen=True)
class GaussianMixture:
    atoms: np.ndarray       # (k, d)
    weights: np.ndarray     # (k,), positive, sums to 1
    variance: float         # shared isotropic variance

    def __post_init__(self):
        atoms = np.array(self.atoms, dtype=np.float64, copy=True)
        if atoms.ndim == 1:
            atoms = atoms[:, None]
        if atoms.ndim != 2 or atoms.size == 0:
            raise InvalidArgumentError("atoms must form a nonempty (k, d) array")
        w = np.array(self.weights, dtype=np.float64, copy=True)
        if w.shape != (atoms.shape[0],) or not (np.isfinite(w).all() and (w > 0.0).all()):
            raise InvalidArgumentError("need one finite positive weight per atom")
        if abs(w.sum() - 1.0) > 1e-12:
            raise InvalidArgumentError("weights must sum to 1 within 1e-12")
        if not (self.variance > 0.0):
            raise InvalidArgumentError("variance must be positive")
        atoms.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]


@dataclass(frozen=True)
class EntropyEstimate:
    value: float
    std_error: float
    method: EntropyMethod


# log terms the mixture kernel holds at once, so its (rows, k) temporaries
# stay in cache
_KERNEL_TERMS = 1 << 16


def _row_logsumexp(t: np.ndarray) -> np.ndarray:
    """log(sum(exp(t), axis=1)), computed as scipy 1.17's _logsumexp does.

    The m entries tied at the row max leave the sum, the rest give s, and the
    result is log1p(s / m) + log(m) + max.  Where s == 0, s / m is s again,
    so scipy's guard on that division is left out.  scipy sets the tied
    terms to -inf before the shift, so an all -inf row turns to NaN there and
    takes its fallback, log(sum(exp(t))).  Zeroing their exp after the shift
    gives that row's -inf directly, and rows holding +inf or NaN come out as
    inf or NaN either way, so the fallback is left out too.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        top = t.max(axis=1)
        tied = t == top[:, None]
        m = np.count_nonzero(tied, axis=1)
        e = np.exp(t - top[:, None])
        e[tied] = 0.0
        return np.log1p(e.sum(axis=1) / m) + np.log(m) + top


def _mixture_blocks(gm: GaussianMixture, x: np.ndarray):
    """Yield (rows, terms, lse) over row blocks of the (n, d) batch x: the
    (rows, k) log terms log w_k - |x - a_k|^2 / (2 var) and their row
    log-sum-exp."""
    logw = np.log(gm.weights)
    step = max(1, _KERNEL_TERMS // len(logw))
    for s in range(0, len(x), step):
        xb = x[s : s + step]
        d2 = (xb[:, :1] - gm.atoms[:, 0]) ** 2
        for j in range(1, gm.dim):
            d2 += (xb[:, j : j + 1] - gm.atoms[:, j]) ** 2
        terms = logw - d2 / (2.0 * gm.variance)
        yield slice(s, s + step), terms, _row_logsumexp(terms)


def _log_density(gm: GaussianMixture, x: np.ndarray) -> np.ndarray:
    out = np.empty(len(x))
    for rows, _, lse in _mixture_blocks(gm, x):
        out[rows] = lse
    return out - 0.5 * gm.dim * math.log(2.0 * math.pi * gm.variance)


def mixture_density(gm: GaussianMixture, x) -> float | np.ndarray:
    """Density via log-sum-exp; accepts one d-vector or an (n, d) batch."""
    pts = np.asarray(x, dtype=np.float64)
    single = pts.ndim == 1
    if single:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != gm.dim:
        raise InvalidArgumentError(f"x must be a {gm.dim}-vector or an (n, {gm.dim}) batch")
    vals = np.exp(_log_density(gm, pts))
    return float(vals[0]) if single else vals


def convolve_mixtures(gm_x: GaussianMixture, gm_y: GaussianMixture) -> GaussianMixture:
    """Mixture of the independent sum: atom sums, weight products, variances add.

    Coinciding atom sums (within 1e-12) are merged by adding their weights.
    """
    if gm_x.dim != gm_y.dim:
        raise InvalidArgumentError("mixtures must share a dimension")
    sums = (gm_x.atoms[:, None, :] + gm_y.atoms[None, :, :]).reshape(-1, gm_x.dim)
    w = (gm_x.weights[:, None] * gm_y.weights[None, :]).ravel()
    uniq, groups = group_rows(sums)
    merged = np.zeros(len(uniq))
    np.add.at(merged, groups, w)
    return GaussianMixture(
        atoms=uniq, weights=merged, variance=gm_x.variance + gm_y.variance
    )


def _sample_mixture(gm: GaussianMixture, g: np.random.Generator, n: int) -> np.ndarray:
    idx = atom_indices(g, gm.weights, n)
    return gm.atoms[idx] + g.standard_normal((n, gm.dim)) * math.sqrt(gm.variance)


def _moment_means(seed: int, n: int, workers: int, chunk_fn) -> list[tuple[float, float]]:
    """(mean, std error) of each per-sample array that chunk_fn(g, m) returns;
    sums of v and v * v add in chunk order, so workers do not change them."""

    def chunk(g, m):
        return tuple(s for v in chunk_fn(g, m) for s in (float(v.sum()), float((v * v).sum())))

    sums = map_reduce_chunks(seed, n, workers, chunk)
    out = []
    for s1, s2 in zip(sums[::2], sums[1::2]):
        mean = s1 / n
        out.append((mean, math.sqrt(max(s2 / n - mean * mean, 0.0) / n)))
    return out


def entropy_mc(gm: GaussianMixture, n: int = 1_000_000, seed: int = 0, workers: int = 1) -> EntropyEstimate:
    """Unbiased estimator: mean of -log p over samples of the mixture."""
    ((mean, se),) = _moment_means(
        seed, n, workers, lambda g, m: (-_log_density(gm, _sample_mixture(gm, g, m)),)
    )
    return EntropyEstimate(mean, se, EntropyMethod.MC)


# standard deviations the quadrature window reaches past the extreme atoms
_GRID_SPAN = 12.0


def entropy_quadrature(gm: GaussianMixture, points: int = 8193) -> EntropyEstimate:
    """Composite-Simpson integral of -p log p on a window around the atoms.

    Dimension 1 only.  The window extends _GRID_SPAN standard deviations past
    the extreme atoms; the reported std_error is a crude bound on the
    truncated tail contribution (mass 2*Phi(-span) times a log-density bound).
    """
    if gm.dim != 1:
        raise InvalidArgumentError("quadrature entropy requires dim == 1")
    if points < 3:
        raise InvalidArgumentError("need at least 3 quadrature points")
    if points % 2 == 0:
        points += 1
    sd = math.sqrt(gm.variance)
    lo = gm.atoms.min() - _GRID_SPAN * sd
    hi = gm.atoms.max() + _GRID_SPAN * sd
    xs = np.linspace(lo, hi, points)
    p = mixture_density(gm, xs[:, None])
    integrand = -xlogy(p, p)
    h = (hi - lo) / (points - 1)
    weights = np.ones(points)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    value = float(h / 3.0 * (weights * integrand).sum())
    tail_mass = math.erfc(_GRID_SPAN / math.sqrt(2.0))
    log_p_at_edge = 0.5 * _GRID_SPAN**2 + 0.5 * math.log(2.0 * math.pi * gm.variance) + abs(
        math.log(gm.weights.min())
    )
    tail_bound = tail_mass * (log_p_at_edge + 1.0)
    return EntropyEstimate(value, tail_bound, EntropyMethod.QUADRATURE)


def _entropy_auto(gm: GaussianMixture, n: int, seed: int, workers: int = 1) -> EntropyEstimate:
    if gm.dim == 1:
        return entropy_quadrature(gm)
    return entropy_mc(gm, n=n, seed=seed, workers=workers)


def reverse_epi_check(
    x_atoms,
    x_weights,
    y_atoms,
    y_weights,
    r: float,
    n: int = 1_000_000,
    seed: int = 0,
) -> BoundReport:
    """h(sum of two var-r smoothed variables) <= h's sum - (d/2) ln(pi r).

    Entropies come from quadrature in dimension 1, Monte Carlo otherwise; the
    verdict allows 4 combined standard errors.
    """
    gm_x = GaussianMixture(atoms=x_atoms, weights=x_weights, variance=r)
    gm_y = GaussianMixture(atoms=y_atoms, weights=y_weights, variance=r)
    return _reverse_epi(gm_x, gm_y, n, seed)[0]


def _reverse_epi(
    gm_x: GaussianMixture, gm_y: GaussianMixture, n: int, seed: int, workers: int = 1
) -> tuple[BoundReport, EntropyEstimate, EntropyEstimate]:
    """The reverse-EPI report for two mixtures of one variance r, plus the
    estimates of h(X) and h(Y) that it used.  ``workers`` threads share the
    Monte Carlo chunks; the estimates do not depend on it."""
    if workers < 1:
        raise InvalidArgumentError("workers must be >= 1")
    h_x = _entropy_auto(gm_x, n, seed, workers)
    h_y = _entropy_auto(gm_y, n, seed + 1, workers)
    h_sum = _entropy_auto(convolve_mixtures(gm_x, gm_y), n, seed + 2, workers)
    bound = h_x.value + h_y.value + reverse_epi_constant(gm_x.dim, gm_x.variance)
    combined = math.sqrt(h_x.std_error**2 + h_y.std_error**2 + h_sum.std_error**2)
    report = BoundReport.compare(
        "reverse-epi", bound_value=bound, measured=h_sum.value, std_error=combined
    )
    return report, h_x, h_y


def pointwise_lemma_log_ratio(a, b, r: float) -> tuple[float, float]:
    """(log density ratio, log threshold) for the smoothed-sum product bound.

    Evaluates log g_{2r}(a+b) - log g_r(a) - log g_r(b) numerically and the
    threshold (d/2) log(pi r); the ratio is the threshold plus
    |a - b|^2 / (4r), so it can never fall below it.
    """
    a = np.atleast_1d(np.asarray(a, dtype=np.float64))
    b = np.atleast_1d(np.asarray(b, dtype=np.float64))
    if a.shape != b.shape:
        raise InvalidArgumentError("a and b must share a shape")
    if not (r > 0.0):
        raise InvalidArgumentError("r must be positive")
    d = a.size

    def log_gauss(v, var):
        return -0.5 * d * math.log(2.0 * math.pi * var) - float(v @ v) / (2.0 * var)

    log_ratio = log_gauss(a + b, 2.0 * r) - log_gauss(a, r) - log_gauss(b, r)
    log_threshold = 0.5 * d * math.log(math.pi * r)
    return log_ratio, log_threshold


def pointwise_lemma_check(a, b, r: float) -> bool:
    log_ratio, log_threshold = pointwise_lemma_log_ratio(a, b, r)
    return log_ratio >= log_threshold - 1e-9


def _score_batch(gm: GaussianMixture, x: np.ndarray) -> np.ndarray:
    """Gradient of log density: responsibility-weighted (atom - x) / variance,
    summed over the atoms in order."""
    out = np.empty_like(x)
    for rows, terms, lse in _mixture_blocks(gm, x):
        resp = np.exp(terms - lse[:, None])
        xb = x[rows]
        acc = resp[:, :1] * (gm.atoms[0] - xb)
        for i in range(1, len(gm.weights)):
            acc += resp[:, i : i + 1] * (gm.atoms[i] - xb)
        out[rows] = acc
    return out / gm.variance


def fisher_information_mc(
    gm: GaussianMixture, n: int = 200_000, seed: int = 0, workers: int = 1
) -> EntropyEstimate:
    """Mean squared score norm; for smoothed variables this never exceeds d/var."""

    def chunk(g, m):
        return ((_score_batch(gm, _sample_mixture(gm, g, m)) ** 2).sum(axis=1),)

    ((mean, se),) = _moment_means(seed, n, workers, chunk)
    return EntropyEstimate(mean, se, EntropyMethod.MC)


# weight of the dt^2 * (1 + 1/t0^3) finite-difference curvature allowance
_CURVATURE_BUDGET = 100.0


def de_bruijn_check(
    atoms,
    weights,
    t0: float,
    dt: float = 1e-3,
    n: int = 200_000,
    seed: int = 0,
    workers: int = 1,
) -> BoundReport:
    """Heat-flow entropy slope vs half the Fisher information at variance t0.

    The slope is a central difference of the smoothed entropy at t0 +- dt,
    estimated with common random numbers (shared atom picks and base noise),
    so its standard error reflects the difference, not two independent
    entropies.  Allowance: 4 combined sigma plus _CURVATURE_BUDGET * dt^2 *
    (1 + 1/t0^3) for the finite-difference curvature term.
    """
    if not (t0 > 0.0 and dt > 0.0 and dt < t0):
        raise InvalidArgumentError("need 0 < dt < t0")
    gm_plus = GaussianMixture(atoms=atoms, weights=weights, variance=t0 + dt)
    gm_minus = GaussianMixture(atoms=atoms, weights=weights, variance=t0 - dt)
    gm_mid = GaussianMixture(atoms=atoms, weights=weights, variance=t0)

    def chunk(g, m):
        base = gm_mid.atoms[atom_indices(g, gm_mid.weights, m)]
        eps = g.standard_normal((m, gm_mid.dim))
        v_plus = -_log_density(gm_plus, base + eps * math.sqrt(t0 + dt))
        v_minus = -_log_density(gm_minus, base + eps * math.sqrt(t0 - dt))
        fd = (v_plus - v_minus) / (2.0 * dt)
        s2 = (_score_batch(gm_mid, base + eps * math.sqrt(t0)) ** 2).sum(axis=1)
        return fd, s2

    (fd_mean, fd_se), (j_mean, j_se) = _moment_means(seed, n, workers, chunk)
    combined = math.sqrt(fd_se**2 + (j_se / 2.0) ** 2)
    allowance = 4.0 * combined + _CURVATURE_BUDGET * dt * dt * (1.0 + t0**-3)
    return BoundReport.compare(
        "de-bruijn",
        bound_value=allowance,
        measured=abs(fd_mean - j_mean / 2.0),
        std_error=0.0,
    )
