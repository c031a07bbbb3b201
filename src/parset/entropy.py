"""Gaussian-mixture differential entropy, Fisher information, and the
smoothed-sum entropy inequality checks.

A discrete variable smoothed with N(0, var * I) noise has a Gaussian-mixture
density; everything here works with that class (isotropic, one shared
variance per mixture).  Entropies are in nats.
In 1-d, entropy, Fisher information and the de Bruijn slope are integrals
on one composite-Simpson grid (_simpson) with a step of at most 1/16 sd,
sized to the mixture.  Entropy and Fisher information of a mixture whose
window would need more than _MAX_POINTS points, or of dim >= 2, go to Monte
Carlo; the de Bruijn check takes only mixtures the grid resolves.
Every estimate is a bounds.MeasureEstimate: a quadrature value is exact
(samples_used 0, std_error its rounding and tail allowance), a Monte Carlo
one the mean of n per-sample values with its standard error, all taken by
one chunked reduction, _moment_mean.
The log-density and the score share one kernel, _mixture_blocks.  It takes
a batch in blocks of _BLOCK_TERMS // k rows and holds a block's log terms
log w_j - |x - a_j|^2 / (2 var) column-major, one contiguous column per
atom j, with squared distances summed one coordinate at a time.  Their
log-sum-exp over the atoms, _row_logsumexp, follows
scipy.special.logsumexp step for step (a test pins the two equal): the max
and the tie count go column by column, the tied terms leave the exp sum by
subtraction, and the sum reproduces numpy's pairwise order for a row of k
numbers (_kernels.pairwise_sum).  Samples come from _rng.atom_rows, which
counts or binary-searches the atoms by their number, to the same rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._rng import atom_rows, map_reduce_chunks
from .bounds import BoundReport, MeasureEstimate, reverse_epi_constant
from .errors import InvalidArgumentError
from .geometry import group_rows, positive_real


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
        if not np.isfinite(atoms).all():
            raise InvalidArgumentError("atom coordinates must be finite")
        w = np.array(self.weights, dtype=np.float64, copy=True)
        if w.shape != (atoms.shape[0],) or not (np.isfinite(w).all() and (w > 0.0).all()):
            raise InvalidArgumentError("need one finite positive weight per atom")
        if abs(w.sum() - 1.0) > 1e-12:
            raise InvalidArgumentError("weights must sum to 1 within 1e-12")
        positive_real(self.variance, "variance")
        atoms.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]


# log terms the mixture kernel takes at once: a block is _BLOCK_TERMS // k
# rows of the batch, long enough that its numpy calls are cheap against their
# work, while each of its (k, rows) arrays stays at 1 MB whatever k (up to
# 2**17 atoms)
_BLOCK_TERMS = 1 << 17


def _row_logsumexp(t: np.ndarray) -> np.ndarray:
    """log(sum(exp(t), axis=0)) of the (k, n) terms t, computed as scipy
    1.17's _logsumexp computes log(sum(exp(t.T), axis=1)).

    The m entries tied at the max leave the sum, the rest give s, and the
    result is log1p(s / m) + log(m) + max, with s summed in numpy's pairwise
    order (_kernels.pairwise_sum).  Where s == 0, s / m is s again, so
    scipy's guard on that division is left out.  A tied term's exp(t - max)
    is exp(0) = 1 exactly, so subtracting the tie mask removes it.  Where no
    column has a second tie, every m is 1, and dividing by 1 and adding
    log(1) = +0 to log1p(s) >= +0 change no bit, so both are skipped.

    scipy sets the tied terms to -inf before the shift, so an all -inf
    column turns to NaN there and takes its fallback, log(sum(exp(t))),
    which is -inf.  A column whose max is +inf comes out as +inf there.  The
    shift makes NaN of both here, so the columns with an infinite max are
    set to that max; a column holding NaN gives NaN either way, so the
    fallback is left out.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        top = t.max(axis=0)
        tied = t == top
        # below 256 atoms the counts fit a uint8 sum, several times cheaper
        m = tied.sum(axis=0, dtype=np.uint8 if len(t) < 256 else np.intp)
        e = t - top
        np.exp(e, out=e)
        e -= tied
        s = _kernels.pairwise_sum(e)
        if (m == 1).all():
            lse = np.log1p(s, out=s)
        else:
            s /= m
            lse = np.log1p(s, out=s) + np.log(m, dtype=np.float64)
        lse += top
        inf = np.isinf(top)
        if inf.any():
            lse[inf] = top[inf]
        return lse


def _mixture_blocks(gm: GaussianMixture, x: np.ndarray):
    """Yield (rows, xt, terms, lse) over blocks of _BLOCK_TERMS // k rows of
    the (n, d) batch x: the block's (d, rows) coordinates xt, its (k, rows)
    log terms log w_j - |x - a_j|^2 / (2 var), one contiguous row per atom j,
    and their log-sum-exp over the atoms.  terms is the caller's to reuse."""
    logw = np.log(gm.weights)[:, None]
    atoms = gm.atoms.T[:, :, None]  # (d, k, 1)
    step = max(1, _BLOCK_TERMS // len(gm.weights))
    for s in range(0, len(x), step):
        xt = np.ascontiguousarray(x[s : s + step].T)
        terms = np.subtract(xt[0], atoms[0])
        np.square(terms, out=terms)
        for c in range(1, gm.dim):
            d2 = np.subtract(xt[c], atoms[c])
            np.square(d2, out=d2)
            terms += d2
        terms /= 2.0 * gm.variance
        np.subtract(logw, terms, out=terms)
        yield slice(s, s + step), xt, terms, _row_logsumexp(terms)


def _log_density(gm: GaussianMixture, x: np.ndarray) -> np.ndarray:
    out = np.empty(len(x))
    for rows, _, _, lse in _mixture_blocks(gm, x):
        out[rows] = lse
    out -= 0.5 * gm.dim * math.log(2.0 * math.pi * gm.variance)
    return out


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

    Coinciding atom sums (within 1e-12, Chebyshev) are merged by adding their
    weights; the merged atoms come in lexicographic order.
    """
    if gm_x.dim != gm_y.dim:
        raise InvalidArgumentError("mixtures must share a dimension")
    sums = (gm_x.atoms[:, None, :] + gm_y.atoms[None, :, :]).reshape(-1, gm_x.dim)
    w = (gm_x.weights[:, None] * gm_y.weights[None, :]).ravel()
    order = np.lexsort(sums.T[::-1])
    kept, groups = group_rows(sums[order])
    groups = groups[np.argsort(order)]  # back to input order
    merged = np.zeros(len(kept))
    np.add.at(merged, groups, w)  # in input order, as the weights come
    return GaussianMixture(
        atoms=sums[order[kept]], weights=merged, variance=gm_x.variance + gm_y.variance
    )


def _sample_mixture(gm: GaussianMixture, g: np.random.Generator, n: int) -> np.ndarray:
    rows = atom_rows(g, gm.atoms, gm.weights, n)  # the uniforms first, then the noise
    noise = g.standard_normal((n, gm.dim))
    noise *= math.sqrt(gm.variance)
    rows += noise
    return rows


def _moment_mean(seed: int, n: int, workers: int, chunk_fn) -> MeasureEstimate:
    """The mean of the per-sample array that chunk_fn(g, m) returns, over n
    samples, with its standard error; sums of v and v * v add in chunk
    order, so workers do not change them."""

    def chunk(g, m):
        v = chunk_fn(g, m)
        return float(v.sum()), float((v * v).sum())

    s1, s2 = map_reduce_chunks(seed, n, workers, chunk)
    m1, m2 = s1 / n, s2 / n
    return MeasureEstimate(m1, math.sqrt(max(m2 - m1 * m1, 0.0) / n), n)


def entropy_mc(gm: GaussianMixture, n: int = 1_000_000, seed: int = 0, workers: int = 1) -> MeasureEstimate:
    """Unbiased estimator: mean of -log p over samples of the mixture."""
    chunk = lambda g, m: -_log_density(gm, _sample_mixture(gm, g, m))
    return _moment_mean(seed, n, workers, chunk)


# standard deviations the quadrature window reaches past the extreme atoms
_GRID_SPAN = 12.0
# largest grid step, in standard deviations: at 1/16 sd the suite's
# reverse-epi entropies equal a 65537-point reference within 8.9e-16, at
# 1/4 sd one was off by 4.9e-7
_STEP_SD = 1.0 / 16.0
# most grid points; a 1-d mixture whose window needs more goes to Monte Carlo
_MAX_POINTS = 32769


def _window_sd(gm: GaussianMixture) -> float:
    """The quadrature window's width in standard deviations."""
    spread = float(gm.atoms.max() - gm.atoms.min())
    return spread / math.sqrt(gm.variance) + 2.0 * _GRID_SPAN


def _uses_quadrature(gm: GaussianMixture) -> bool:
    """Whether gm is integrated on the 1-d grid rather than by Monte Carlo:
    it is 1-d and its window takes at most _MAX_POINTS points."""
    return gm.dim == 1 and _window_sd(gm) <= (_MAX_POINTS - 1) * _STEP_SD


def _simpson(gm: GaussianMixture, integrand, tail_bound: float) -> MeasureEstimate:
    """Composite-Simpson integral of integrand(x, p) on the 1-d grid, exact
    (samples_used 0), its std_error a bound on the floating-point error of
    the sum (n eps sum |w_i f_i|) plus tail_bound, the caller's bound on the
    integral past the window.

    x is the (n, 1) grid and p the mixture density on it.  The window extends
    _GRID_SPAN standard deviations past the extreme atoms.  It is cut into
    the fewest power-of-two intervals of at most _STEP_SD standard
    deviations, so a window's grids are nested: each is every other point of
    the next finer one.
    """
    if gm.dim != 1:
        raise InvalidArgumentError("quadrature requires dim == 1")
    if not _uses_quadrature(gm):
        raise InvalidArgumentError(
            f"quadrature window {_window_sd(gm):.4g} sd exceeds "
            f"{(_MAX_POINTS - 1) * _STEP_SD:g} sd; the atoms spread too far for "
            "the grid, use Monte Carlo"
        )
    intervals = 1 << (math.ceil(_window_sd(gm) / _STEP_SD) - 1).bit_length()
    sd = math.sqrt(gm.variance)
    lo = float(gm.atoms.min()) - _GRID_SPAN * sd
    hi = float(gm.atoms.max()) + _GRID_SPAN * sd
    x = np.linspace(lo, hi, intervals + 1)[:, None]
    terms = np.full(intervals + 1, 2.0)
    terms[1::2] = 4.0
    terms[[0, -1]] = 1.0
    terms *= integrand(x, mixture_density(gm, x))
    scale = (hi - lo) / intervals / 3.0
    rounding = len(terms) * math.ulp(1.0) * scale * float(np.abs(terms).sum())
    return MeasureEstimate(scale * float(terms.sum()), rounding + tail_bound, 0)


def entropy_quadrature(gm: GaussianMixture) -> MeasureEstimate:
    """Composite-Simpson integral of -p log p on the 1-d grid (_simpson).

    Its truncated tails are bounded, crudely, by their mass 2*Phi(-span)
    times a log-density bound.
    """
    from scipy.special import xlogy

    tail_mass = math.erfc(_GRID_SPAN / math.sqrt(2.0))
    log_p_at_edge = 0.5 * _GRID_SPAN**2 + 0.5 * math.log(2.0 * math.pi * gm.variance) + abs(
        math.log(gm.weights.min())
    )
    return _simpson(gm, lambda x, p: -xlogy(p, p), tail_mass * (log_p_at_edge + 1.0))


def _entropy_auto(gm: GaussianMixture, n: int, seed: int, workers: int = 1) -> MeasureEstimate:
    """Quadrature for 1-d mixtures its grid resolves, Monte Carlo otherwise."""
    if _uses_quadrature(gm):
        return entropy_quadrature(gm)
    return entropy_mc(gm, n=n, seed=seed, workers=workers)


def reverse_epi_check(
    gm_x: GaussianMixture,
    gm_y: GaussianMixture,
    n: int = 1_000_000,
    seed: int = 0,
    workers: int = 1,
) -> tuple[BoundReport, MeasureEstimate, MeasureEstimate]:
    """h(X + Y) <= h(X) + h(Y) - (d/2) ln(pi r) for two mixtures of one
    variance r, with the estimates of h(X) and h(Y) it used.

    Entropies come from quadrature for 1-d mixtures whose grid resolves them,
    Monte Carlo otherwise; the verdict allows 4 combined standard errors.
    ``workers`` threads share the Monte Carlo chunks; the estimates do not
    depend on it.
    """
    if n < 1:  # checked here: quadrature would not read n for 1-d mixtures
        raise InvalidArgumentError("samples must be >= 1")
    if workers < 1:
        raise InvalidArgumentError("workers must be >= 1")
    if gm_x.variance != gm_y.variance:
        raise InvalidArgumentError("the two mixtures must share one variance r")
    h_x = _entropy_auto(gm_x, n, seed, workers)
    h_y = _entropy_auto(gm_y, n, seed + 1, workers)
    h_sum = _entropy_auto(convolve_mixtures(gm_x, gm_y), n, seed + 2, workers)
    bound = h_x.value + h_y.value + reverse_epi_constant(gm_x.dim, gm_x.variance)
    combined = math.sqrt(h_x.std_error**2 + h_y.std_error**2 + h_sum.std_error**2)
    report = BoundReport.compare(
        "reverse-epi", bound_value=bound, measured=h_sum.value, std_error=combined
    )
    return report, h_x, h_y


def _score_batch(gm: GaussianMixture, x: np.ndarray) -> np.ndarray:
    """Gradient of log density: responsibility-weighted (atom - x) / variance,
    summed over the atoms in order, one coordinate at a time, in two scratch
    rows a block."""
    out = np.empty(x.shape)
    for rows, xt, resp, lse in _mixture_blocks(gm, x):
        resp -= lse
        np.exp(resp, out=resp)
        acc, term = np.empty((2, len(lse)))
        for c in range(gm.dim):
            np.subtract(gm.atoms[0, c], xt[c], out=acc)
            acc *= resp[0]
            for j in range(1, len(resp)):
                np.subtract(gm.atoms[j, c], xt[c], out=term)
                term *= resp[j]
                acc += term
            out[rows, c] = acc
    out /= gm.variance
    return out


def _squared_norms(v: np.ndarray) -> np.ndarray:
    """(v ** 2).sum(axis=1) of the (n, d) batch v, to the bit: numpy sums
    each short row in its pairwise order, which _kernels.pairwise_sum takes
    over the d coordinate rows at once."""
    return _kernels.pairwise_sum(np.square(v).T)


def fisher_information_mc(
    gm: GaussianMixture, n: int = 200_000, seed: int = 0, workers: int = 1
) -> MeasureEstimate:
    """Mean squared score norm; for smoothed variables this never exceeds d/var."""

    def chunk(g, m):
        return _squared_norms(_score_batch(gm, _sample_mixture(gm, g, m)))

    return _moment_mean(seed, n, workers, chunk)


def fisher_information_quadrature(gm: GaussianMixture) -> MeasureEstimate:
    """J = integral of p s^2, with s the score, on the 1-d grid (_simpson).

    Past the window p s^2 <= phi(z) (z + spread/sd)^2 / var, with z the
    distance from the nearer extreme atom in standard deviations, which
    bounds the truncated tails.
    """
    c, s = _GRID_SPAN, float(gm.atoms.max() - gm.atoms.min()) / math.sqrt(gm.variance)
    phi = math.exp(-0.5 * c * c) / math.sqrt(2.0 * math.pi)
    q = 0.5 * math.erfc(c / math.sqrt(2.0))
    tail_bound = 2.0 / gm.variance * ((c + 2.0 * s) * phi + (1.0 + s * s) * q)
    return _simpson(gm, lambda x, p: p * _score_batch(gm, x)[:, 0] ** 2, tail_bound)


def _fisher_auto(gm: GaussianMixture, n: int, seed: int, workers: int = 1) -> MeasureEstimate:
    """Quadrature for 1-d mixtures its grid resolves, Monte Carlo otherwise."""
    if _uses_quadrature(gm):
        return fisher_information_quadrature(gm)
    return fisher_information_mc(gm, n=n, seed=seed, workers=workers)


# weight of the dt^2 * (1 + 1/t0^3) finite-difference curvature allowance
_CURVATURE_BUDGET = 100.0


def de_bruijn_check(atoms, weights, t0: float, dt: float = 1e-3) -> BoundReport:
    """Heat-flow entropy slope vs half the Fisher information at variance t0.

    The slope is a central difference of the smoothed entropy at t0 +- dt.
    Both entropies and J come from quadrature on the 1-d grid, and the
    allowance is the finite-difference curvature term alone,
    _CURVATURE_BUDGET * dt^2 * (1 + 1/t0^3).  A mixture the grid does not
    resolve at t0 - dt, or of dim >= 2, is refused.
    """
    if not (0.0 < dt < t0 < math.inf):
        raise InvalidArgumentError("need 0 < dt < t0 < inf")
    gm_plus = GaussianMixture(atoms=atoms, weights=weights, variance=t0 + dt)
    gm_minus = GaussianMixture(atoms=atoms, weights=weights, variance=t0 - dt)
    gm_mid = GaussianMixture(atoms=atoms, weights=weights, variance=t0)
    # the smallest variance needs the widest window in sd
    if not _uses_quadrature(gm_minus):
        raise InvalidArgumentError(
            "de_bruijn_check needs a 1-d mixture whose window fits the "
            f"{_MAX_POINTS}-point quadrature grid"
        )
    h_plus = entropy_quadrature(gm_plus).value
    h_minus = entropy_quadrature(gm_minus).value
    j = fisher_information_quadrature(gm_mid).value
    return BoundReport.compare(
        "de-bruijn",
        bound_value=_CURVATURE_BUDGET * dt * dt * (1.0 + t0**-3),
        measured=abs((h_plus - h_minus) / (2.0 * dt) - j / 2.0),
        std_error=0.0,
    )
