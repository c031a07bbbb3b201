"""Gaussian-mixture differential entropy, Fisher information, and the
smoothed-sum entropy inequality checks.

A discrete variable smoothed with N(0, var * I) noise has a Gaussian-mixture
density; everything here works with that class (isotropic, one shared
variance per mixture).  Entropies are in nats.
Entropy, Fisher information and the de Bruijn slope are integrals by one
trapezoid rule (_trapezoid) on a product grid of step sd/4 that reaches 9 sd
past the extreme atoms, in any dimension.  A Gaussian-smoothed integrand is
analytic in a strip, so the rule converges geometrically.  A mixture whose
grid would need more than _MAX_POINTS points (any 3-d one, a 1-d or 2-d one
whose atoms spread far) goes to Monte Carlo; the de Bruijn check refuses it.
Every estimate is a bounds.MeasureEstimate: a quadrature value is exact
(samples_used 0, std_error its rounding, tail and |T_h - T_2h| allowance), a
Monte Carlo one the mean of n per-sample values with its standard error, all
taken by one chunked reduction, _moment_mean.
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
from .geometry import group_rows, positive_count, positive_real, probability_weights


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
        w = probability_weights(self.weights, atoms.shape[0], "atom")
        positive_real(self.variance, "variance")
        atoms.flags.writeable = False
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
    return _normalize(gm, out)


def _normalize(gm: GaussianMixture, lse: np.ndarray) -> np.ndarray:
    """The log-density from the kernel's log-sum-exp, in place."""
    lse -= 0.5 * gm.dim * math.log(2.0 * math.pi * gm.variance)
    return lse


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


def _moment_mean(seed: int, n: int, chunk_fn) -> MeasureEstimate:
    """The mean of the per-sample array that chunk_fn(g, m) returns, over n
    samples, with its standard error; sums of v and v * v add in chunk
    order, so the thread count does not change them."""

    def chunk(g, m):
        v = chunk_fn(g, m)
        return float(v.sum()), float((v * v).sum())

    n = positive_count(n, "n")
    s1, s2 = map_reduce_chunks(seed, n, chunk)
    m1, m2 = s1 / n, s2 / n
    return MeasureEstimate(m1, math.sqrt(max(m2 - m1 * m1, 0.0) / n), n)


def entropy_mc(gm: GaussianMixture, n: int = 1_000_000, seed: int = 0) -> MeasureEstimate:
    """Unbiased estimator: mean of -log p over samples of the mixture."""
    chunk = lambda g, m: -_log_density(gm, _sample_mixture(gm, g, m))
    return _moment_mean(seed, n, chunk)


# standard deviations the quadrature grid reaches past the extreme atoms: at
# 9 sd every measured entropy and Fisher information matched a 10 sd grid,
# at 7 sd some were off by 5e-11
_GRID_REACH = 9.0
# grid step, in standard deviations: at sd/4 the suite's and `parset epi`'s
# mixtures were within 5e-11 (entropy) and 6e-8 (Fisher information) of a
# three times finer grid, pairs of atoms about 7 sd apart (the slowest)
# within 9e-10 and 5e-7; at sd/2 they were off by up to 2e-6 and 3e-4
_GRID_STEP = 0.25
# most grid points; a mixture whose grid needs more goes to Monte Carlo.
# 2-d grids of 5-15e3 points cost 1-5 ms, less than their 40 000 draws; any
# 3-d grid has at least 73^3 points, and 5e5 of them cost ten times the draws
_MAX_POINTS = 32769


def _grid_shape(gm: GaussianMixture) -> tuple[np.ndarray, np.ndarray, float, float]:
    """(lo, hi, h, points): the grid step h = _GRID_STEP sd, per coordinate
    the first and last index k of the points k h that reach _GRID_REACH sd
    past the extreme atoms, and the number of grid points."""
    h = _GRID_STEP * math.sqrt(gm.variance)
    reach = _GRID_REACH / _GRID_STEP
    lo = np.floor(gm.atoms.min(axis=0) / h - reach)
    hi = np.ceil(gm.atoms.max(axis=0) / h + reach)
    return lo, hi, h, float(np.prod(hi - lo + 1.0))


def _uses_grid(gm: GaussianMixture) -> bool:
    """Whether gm is integrated on the grid rather than by Monte Carlo: its
    grid takes at most _MAX_POINTS points."""
    return _grid_shape(gm)[3] <= _MAX_POINTS


def _trapezoid(gm: GaussianMixture, integrand, tail_bound: float) -> MeasureEstimate:
    """Trapezoid rule for the integral of integrand(x) over R^d on the grid,
    exact (samples_used 0).

    The grid is the points k h of the lattice of step h with integer index
    vectors k (_grid_shape), so the points of even k form the grid of step
    2h, and T_2h costs no more evaluations than T_h.  std_error is the sum of
    the floating-point error of the sum (n eps sum |f_i| h^d), tail_bound
    (the caller's bound on the integral past the window) and |T_h - T_2h|,
    which bounds T_h's error where the step is in the geometric range.
    """
    lo, hi, h, points = _grid_shape(gm)
    if points > _MAX_POINTS:
        raise InvalidArgumentError(
            f"quadrature grid of {points:.4g} points exceeds {_MAX_POINTS}; "
            "the atoms spread too far for the grid, use Monte Carlo"
        )
    axes = [h * np.arange(a, b + 1.0) for a, b in zip(lo, hi)]
    f = integrand(np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, gm.dim))
    even = f.reshape([len(a) for a in axes])[tuple(slice(int(a % 2), None, 2) for a in lo)]
    cell = h**gm.dim
    fine = cell * float(f.sum())
    coarse = 2**gm.dim * cell * float(even.sum())
    rounding = len(f) * math.ulp(1.0) * cell * float(np.abs(f).sum())
    return MeasureEstimate(fine, rounding + tail_bound + abs(fine - coarse), 0)


def _tail_moments(d: int) -> tuple[float, float]:
    """(m0, m2): bounds on the mass and on E[|z|^2 / 2] that a standard
    d-variate normal puts past _GRID_REACH in some coordinate, summed over
    the coordinates."""
    c = _GRID_REACH
    q = 0.5 * math.erfc(c / math.sqrt(2.0))
    phi = math.exp(-0.5 * c * c) / math.sqrt(2.0 * math.pi)
    return 2.0 * d * q, d * (c * phi + d * q)


def entropy_quadrature(gm: GaussianMixture) -> MeasureEstimate:
    """Trapezoid integral of -p log p on the grid (_trapezoid).

    Past the window, every atom j gives |log p| <= |log w_min| +
    (d/2) |log(2 pi var)| + |x - a_j|^2 / (2 var), and p is the weighted sum
    of the atoms' normals, so _tail_moments bounds the truncated tails.
    """
    m0, m2 = _tail_moments(gm.dim)
    k = abs(math.log(gm.weights.min()))
    k += 0.5 * gm.dim * abs(math.log(2.0 * math.pi * gm.variance))

    def integrand(x):
        log_p = _log_density(gm, x)
        return -np.exp(log_p) * log_p

    return _trapezoid(gm, integrand, m0 * k + m2)


def _entropy_auto(gm: GaussianMixture, n: int, seed: int) -> MeasureEstimate:
    """Quadrature for a mixture whose grid fits _MAX_POINTS, Monte Carlo otherwise."""
    if _uses_grid(gm):
        return entropy_quadrature(gm)
    return entropy_mc(gm, n=n, seed=seed)


def reverse_epi_check(
    gm_x: GaussianMixture, gm_y: GaussianMixture, n: int = 1_000_000, seed: int = 0
) -> tuple[BoundReport, MeasureEstimate, MeasureEstimate]:
    """h(X + Y) <= h(X) + h(Y) - (d/2) ln(pi r) for two mixtures of one
    variance r, with the estimates of h(X) and h(Y) it used.

    Entropies come from quadrature for mixtures whose grid fits _MAX_POINTS,
    Monte Carlo otherwise; the verdict allows 4 combined standard errors.
    The Monte Carlo chunks run on the threads of the enclosing _rng.threads
    scope; the estimates do not depend on their count.
    """
    n = positive_count(n, "samples")  # checked here: a mixture the grid takes reads no n
    if gm_x.variance != gm_y.variance:
        raise InvalidArgumentError("the two mixtures must share one variance r")
    h_x = _entropy_auto(gm_x, n, seed)
    h_y = _entropy_auto(gm_y, n, seed + 1)
    h_sum = _entropy_auto(convolve_mixtures(gm_x, gm_y), n, seed + 2)
    bound = h_x.value + h_y.value + reverse_epi_constant(gm_x.dim, gm_x.variance)
    combined = math.sqrt(h_x.std_error**2 + h_y.std_error**2 + h_sum.std_error**2)
    report = BoundReport.compare(
        "reverse-epi", bound_value=bound, measured=h_sum.value, std_error=combined
    )
    return report, h_x, h_y


def _score_batch(
    gm: GaussianMixture, x: np.ndarray, lse_out: np.ndarray | None = None
) -> np.ndarray:
    """Gradient of log density: responsibility-weighted (atom - x) / variance,
    summed over the atoms in order, one coordinate at a time, in two scratch
    rows a block.  lse_out, if given, receives the kernel's log-sum-exp."""
    out = np.empty(x.shape)
    for rows, xt, resp, lse in _mixture_blocks(gm, x):
        if lse_out is not None:
            lse_out[rows] = lse
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


def fisher_information_mc(gm: GaussianMixture, n: int = 200_000, seed: int = 0) -> MeasureEstimate:
    """Mean squared score norm; for smoothed variables this never exceeds d/var."""

    def chunk(g, m):
        return _squared_norms(_score_batch(gm, _sample_mixture(gm, g, m)))

    return _moment_mean(seed, n, chunk)


def fisher_information_quadrature(gm: GaussianMixture) -> MeasureEstimate:
    """J = integral of p |s|^2, with s the score, on the grid (_trapezoid).

    The score is a responsibility-weighted mean of (a_j - x) / var, so
    p |s|^2 <= sum_j w_j phi_j(x) |x - a_j|^2 / var^2, and _tail_moments
    bounds the truncated tails by 2 m2 / var.
    """

    def integrand(x):
        lse = np.empty(len(x))
        score = _score_batch(gm, x, lse)
        return np.exp(_normalize(gm, lse)) * _squared_norms(score)

    return _trapezoid(gm, integrand, 2.0 * _tail_moments(gm.dim)[1] / gm.variance)


def _fisher_auto(gm: GaussianMixture, n: int, seed: int) -> MeasureEstimate:
    """Quadrature for a mixture whose grid fits _MAX_POINTS, Monte Carlo otherwise."""
    if _uses_grid(gm):
        return fisher_information_quadrature(gm)
    return fisher_information_mc(gm, n=n, seed=seed)


# half the step of de_bruijn_check's central difference
_DT = 1e-3
# weight of the dt^2 * (1 + 1/t0^3) finite-difference curvature allowance
_CURVATURE_BUDGET = 100.0


def de_bruijn_check(atoms, weights, t0: float) -> BoundReport:
    """Heat-flow entropy slope vs half the Fisher information at variance t0.

    The slope is a central difference of the smoothed entropy at t0 +- dt,
    dt = _DT.  Both entropies and J come from quadrature on the grid, and
    the allowance is the finite-difference curvature term alone,
    _CURVATURE_BUDGET * dt^2 * (1 + 1/t0^3).  A mixture whose grid at
    t0 - dt needs more than _MAX_POINTS points is refused.
    """
    dt = _DT
    if not (dt < t0 < math.inf):
        raise InvalidArgumentError(f"need {dt:g} < t0 < inf")
    gm_plus = GaussianMixture(atoms=atoms, weights=weights, variance=t0 + dt)
    gm_minus = GaussianMixture(atoms=atoms, weights=weights, variance=t0 - dt)
    gm_mid = GaussianMixture(atoms=atoms, weights=weights, variance=t0)
    # the smallest variance needs the widest window in sd
    if not _uses_grid(gm_minus):
        raise InvalidArgumentError(
            f"de_bruijn_check needs a mixture whose grid fits {_MAX_POINTS} points"
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
