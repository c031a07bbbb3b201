"""Empirical adversarial transport cost, Wasserstein comparison, robust risk,
and the plug-in convergence experiment.

The thresholded cost 1{dist > 2r} turns optimal transport into maximum
matching (uniform case) or maximum flow (weighted case): the optimal cost is
one minus the largest mass matchable within distance 2r.  Both cases share
one threshold graph, built from one pair query between two KD-trees, an
exact squared-distance test and one sort, with no Python object per pair.
Matching runs on it as a unit-capacity max flow in scipy; the weighted flow
runs Dinic in Python integers, the weights scaled to one common denominator,
so that inequalities between transport values can be checked exactly rather
than modulo solver tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import permutations

import numpy as np

from . import _kernels
from ._rng import atom_indices, chunk_generator, derive_seed, single_generator, uniform_in_ball
from .bounds import BoundReport
from .errors import InvalidArgumentError
from .geometry import PointSet, nonnegative_real, positive_radius


@dataclass(frozen=True)
class EmpiricalMeasure:
    points: PointSet
    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=np.float64, copy=True)
        if w.ndim != 1 or len(w) != len(self.points):
            raise InvalidArgumentError("need one weight per point")
        if not (np.isfinite(w).all() and (w > 0.0).all()):
            raise InvalidArgumentError("weights must be finite and strictly positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise InvalidArgumentError("weights must sum to 1 within 1e-12")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform(cls, points: PointSet) -> "EmpiricalMeasure":
        n = len(points)
        return cls(points=points, weights=np.full(n, 1.0 / n))


@dataclass(frozen=True)
class TransportResult:
    value: float
    certificate: tuple
    threshold_r: float | None = None
    value_exact: Fraction | None = field(default=None, repr=False)


def _pair_dist_sq(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2)


def _threshold_csr(x: np.ndarray, y: np.ndarray, threshold_sq: float):
    """CSR adjacency of pairs with squared distance <= threshold_sq.

    One pair query between two KD-trees proposes the candidates, as arrays
    (24 bytes a pair), within a radius widened by 1e-9 relative, so rounding
    in the trees cannot drop a pair; the exact test below decides.  One sort
    on the key i * len(y) + j puts the kept pairs in row-major order with
    ascending columns: row i's edges are the keys in [i * len(y), (i + 1) *
    len(y)), and key % len(y) is the column.
    """
    from scipy.spatial import cKDTree

    radius = math.sqrt(threshold_sq) * (1.0 + 1e-9)
    near = cKDTree(x).sparse_distance_matrix(cKDTree(y), radius, output_type="ndarray")
    i, j = near["i"], near["j"]
    keep = ((np.take(x, i, axis=0) - np.take(y, j, axis=0)) ** 2).sum(axis=1) <= threshold_sq
    m = len(y)
    key = np.sort(i[keep] * m + j[keep])
    return np.searchsorted(key, np.arange(0, (len(x) + 1) * m, m)), key % m


def _check_pair(x: PointSet, y: PointSet, r: float) -> float:
    """(2r)^2, the squared distance up to which a pair is matchable."""
    if x.dim != y.dim:
        raise InvalidArgumentError("point sets must share a dimension")
    nonnegative_real(r, "radius")
    try:
        threshold_sq = (2.0 * r) ** 2
    except OverflowError:  # float ** raises where float * returns inf
        threshold_sq = math.inf
    if threshold_sq == math.inf:
        raise InvalidArgumentError("radius must be below 6.7e153, so that (2 * radius)^2 is finite")
    return threshold_sq


def d_r_uniform(x: PointSet, y: PointSet, r: float) -> TransportResult:
    """Thresholded transport cost between equal-size uniform empirical measures.

    Pairs within distance 2r are matchable at zero cost; the optimal cost is
    1 - |maximum matching| / n.  Ties at exactly 2r count as matchable.
    """
    threshold_sq = _check_pair(x, y, r)
    n = len(x)
    if n != len(y):
        raise InvalidArgumentError("uniform transport needs equal sample counts")
    indptr, indices = _threshold_csr(x.points, y.points, threshold_sq)
    matched, match_l = _kernels.max_matching(indptr, indices, n, n)
    left = np.flatnonzero(match_l >= 0)
    pairs = tuple(zip(left.tolist(), match_l[left].tolist()))
    exact = Fraction(n - int(matched), n)
    return TransportResult(
        value=float(exact), certificate=pairs, threshold_r=r, value_exact=exact
    )


def d_r_brute_force(x: PointSet, y: PointSet, r: float) -> float:
    """Exhaustive minimum over assignments; oracle for small n only."""
    threshold_sq = _check_pair(x, y, r)
    n = len(x)
    if n != len(y) or n > 8:
        raise InvalidArgumentError("brute force limited to equal counts with n <= 8")
    d2 = _pair_dist_sq(x.points, y.points)
    ok = d2 <= threshold_sq
    # every assignment at once: row k of ok[i, perms[k, i]] is one permutation
    best = int(ok[np.arange(n), _permutations(n)].sum(axis=1).max())
    return float(Fraction(n - best, n))


@cache
def _permutations(n: int) -> np.ndarray:
    """All permutations of range(n), one per row; read-only, shared by every call.

    uint8 entries keep the tables that stay cached small: 35 KB at n = 7
    against 282 KB as int64."""
    perms = np.array(list(permutations(range(n))), dtype=np.uint8)
    perms.flags.writeable = False
    return perms


# ---------------------------------------------------------------------------
# weighted case: Dinic max-flow on exact integer capacities
# ---------------------------------------------------------------------------


def _max_flow(rows: list, cols: np.ndarray, supply: list, demand: list):
    """Dinic max flow on source -> left -> right -> sink, in Python integers.

    Left node i takes up to supply[i] from the source, right node j passes up
    to demand[j] to the sink, and the edges (left rows[e] to right cols[e])
    carry twice the total supply, more than any flow.  Returns the flow value
    and the flow on each edge, in edge order.
    """
    n, m = len(supply), len(demand)
    src, snk = n + m, n + m + 1
    tails = [src] * n + list(range(n, n + m)) + rows
    heads = list(range(n)) + [snk] * m + (n + cols).tolist()
    caps = [*supply, *demand] + [2 * sum(supply)] * len(cols)
    # edge 2e is the e-th edge above and 2e + 1 its residual twin
    adj: list[list[int]] = [[] for _ in range(n + m + 2)]
    to: list[int] = []
    cap: list[int] = []
    for u, v, c in zip(tails, heads, caps):
        adj[u].append(len(to))
        adj[v].append(len(to) + 1)
        to += (v, u)
        cap += (c, 0)
    total = 0
    while True:
        level = [-1] * len(adj)
        level[src] = 0
        queue = [src]
        for u in queue:
            for e in adj[u]:
                if cap[e] > 0 and level[to[e]] < 0:
                    level[to[e]] = level[u] + 1
                    queue.append(to[e])
        if level[snk] < 0:
            return total, cap[2 * (n + m) + 1 :: 2]
        # blocking flow: advance along the level graph, retreat from dead ends
        cursor = [0] * len(adj)
        path: list[int] = []
        u = src
        while True:
            if u == snk:
                pushed = min(cap[e] for e in path)
                for e in path:
                    cap[e] -= pushed
                    cap[e ^ 1] += pushed
                total += pushed
                path.clear()
                u = src
                continue
            edges = adj[u]
            while cursor[u] < len(edges):
                e = edges[cursor[u]]
                if cap[e] > 0 and level[to[e]] == level[u] + 1:
                    path.append(e)
                    u = to[e]
                    break
                cursor[u] += 1
            else:
                if not path:
                    break
                u = to[path.pop() ^ 1]
                cursor[u] += 1


def _integer_weights(weights: np.ndarray) -> list[int]:
    """Weights as integers over one common power-of-two denominator."""
    ratios = [float(w).as_integer_ratio() for w in weights]
    den = max(d for _, d in ratios)
    return [num * (den // d) for num, d in ratios]


def d_r_weighted(mu: EmpiricalMeasure, nu: EmpiricalMeasure, r: float) -> TransportResult:
    """Thresholded transport between weighted empirical measures via max flow.

    Weights are renormalized exactly: with integer weights a, b of totals
    ta, tb, the source and sink capacities a_i * tb and b_j * ta put both
    measures over the common denominator ta * tb.  So the returned value_exact
    is the true optimum for the given atoms; reduces to d_r_uniform on
    uniform equal-size inputs.
    """
    threshold_sq = _check_pair(mu.points, nu.points, r)
    a = _integer_weights(mu.weights)
    b = _integer_weights(nu.weights)
    ta, tb = sum(a), sum(b)
    indptr, indices = _threshold_csr(mu.points.points, nu.points.points, threshold_sq)
    rows = np.repeat(np.arange(len(a)), np.diff(indptr)).tolist()
    flow, edge_flow = _max_flow(rows, indices, [w * tb for w in a], [w * ta for w in b])
    scale = ta * tb
    exact = 1 - Fraction(flow, scale)
    cert = tuple((i, j, f / scale) for i, j, f in zip(rows, indices.tolist(), edge_flow) if f > 0)
    return TransportResult(
        value=float(exact), certificate=cert, threshold_r=r, value_exact=exact
    )


# ---------------------------------------------------------------------------
# 1-Wasserstein comparison
# ---------------------------------------------------------------------------

_W1_MAX_POINTS = 500


def _w1_sorted_1d(mu: EmpiricalMeasure, nu: EmpiricalMeasure):
    """Exact 1-d Wasserstein-1 as the area between the two CDFs."""
    xs = mu.points.points[:, 0]
    ys = nu.points.points[:, 0]
    pos = np.concatenate([xs, ys])
    delta = np.concatenate([mu.weights, -nu.weights])
    order = np.argsort(pos, kind="stable")
    pos = pos[order]
    delta = delta[order]
    cdf_gap = np.cumsum(delta)[:-1]
    value = float(np.abs(cdf_gap * np.diff(pos)).sum())
    # monotone coupling certificate by merging the two sorted weight lists
    ox = np.argsort(xs, kind="stable")
    oy = np.argsort(ys, kind="stable")
    flows = []
    i = j = 0
    need_x = mu.weights[ox[0]]
    need_y = nu.weights[oy[0]]
    while True:
        move = min(need_x, need_y)
        flows.append((int(ox[i]), int(oy[j]), float(move)))
        need_x -= move
        need_y -= move
        if need_x <= 1e-15:
            i += 1
            if i == len(ox):
                break
            need_x = mu.weights[ox[i]]
        if need_y <= 1e-15:
            j += 1
            if j == len(oy):
                break
            need_y = nu.weights[oy[j]]
    return value, tuple(flows)


def w1_empirical(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> TransportResult:
    """Exact earth-mover distance with Euclidean ground cost.

    Dispatch: sorted/CDF computation in dimension 1, an assignment solve for
    uniform equal-size inputs, otherwise the transportation LP.  Inputs are
    capped at 500 points per side; subsample or bin larger clouds first.
    """
    from scipy import sparse
    from scipy.optimize import linear_sum_assignment, linprog

    if mu.points.dim != nu.points.dim:
        raise InvalidArgumentError("measures must share a dimension")
    n, m = len(mu.points), len(nu.points)
    if max(n, m) > _W1_MAX_POINTS:
        raise InvalidArgumentError(
            f"w1_empirical handles at most {_W1_MAX_POINTS} points per side; "
            "subsample or bin larger inputs"
        )
    if mu.points.dim == 1:
        value, flows = _w1_sorted_1d(mu, nu)
        return TransportResult(value=value, certificate=flows)
    dist = np.sqrt(_pair_dist_sq(mu.points.points, nu.points.points))
    uniform = (
        n == m
        and np.allclose(mu.weights, 1.0 / n, atol=1e-12)
        and np.allclose(nu.weights, 1.0 / n, atol=1e-12)
    )
    if uniform:
        rows, cols = linear_sum_assignment(dist)
        value = float(dist[rows, cols].mean())
        flows = tuple((int(i), int(j), 1.0 / n) for i, j in zip(rows, cols))
        return TransportResult(value=value, certificate=flows)
    # plan[i, j] is variable i * m + j: row i sums plan[i, :], row n + j plan[:, j]
    a_eq = sparse.vstack(
        [sparse.kron(sparse.eye(n), np.ones((1, m))), sparse.kron(np.ones((1, n)), sparse.eye(m))],
        format="csr",
    )
    res = linprog(
        dist.ravel(),
        A_eq=a_eq,
        b_eq=np.concatenate([mu.weights, nu.weights]),
        bounds=(0, None),
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    plan = res.x.reshape(n, m)
    flows = tuple(
        (int(i), int(j), float(plan[i, j]))
        for i, j in zip(*np.nonzero(plan > 1e-12))
    )
    return TransportResult(value=float(res.fun), certificate=flows)


def check_w1_domination(mu: EmpiricalMeasure, nu: EmpiricalMeasure, r: float) -> BoundReport:
    """Transport cost at threshold 2r never exceeds W1 / (2r)."""
    positive_radius(r)
    d_val = d_r_weighted(mu, nu, r).value
    w1 = w1_empirical(mu, nu).value
    # std_error 2.5e-13 encodes the spec'd 1e-12 comparison margin as 4 sigma
    return BoundReport.compare(
        "w1-domination", bound_value=w1 / (2.0 * r), measured=d_val, std_error=2.5e-13
    )


def robust_risk(d_r_value: float) -> float:
    """Optimal error probability (1 - transport cost) / 2."""
    if not (0.0 <= d_r_value <= 1.0):
        raise InvalidArgumentError("transport cost must lie in [0, 1]")
    return (1.0 - d_r_value) / 2.0


# ---------------------------------------------------------------------------
# plug-in risk of explicit decision regions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HalfspaceRegion:
    """Decide class 1 on {x . normal <= offset}; normal is normalized.  An
    offset of +inf or -inf decides class 1 everywhere or nowhere."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        nvec = np.array(self.normal, dtype=np.float64, copy=True)
        norm = np.linalg.norm(nvec)
        if nvec.ndim != 1 or norm == 0.0 or not np.isfinite(norm):
            raise InvalidArgumentError("halfspace normal must be a nonzero finite vector")
        if math.isnan(self.offset):
            raise InvalidArgumentError("halfspace offset must not be NaN")
        nvec /= norm
        nvec.flags.writeable = False
        object.__setattr__(self, "normal", nvec)

    @property
    def dim(self) -> int:
        return len(self.normal)


@dataclass(frozen=True)
class BallUnionRegion:
    """Decide class 1 on a union of balls B(c_i, rho); centers may be empty."""

    centers: np.ndarray
    rho: float

    def __post_init__(self):
        c = np.array(self.centers, dtype=np.float64, copy=True)
        if c.size == 0:
            c = np.zeros((0, 0))
        elif c.ndim != 2:
            raise InvalidArgumentError("centers must form a (k, d) array")
        if not np.isfinite(c).all():
            raise InvalidArgumentError("centers must be finite")
        nonnegative_real(self.rho, "rho")
        c.flags.writeable = False
        object.__setattr__(self, "centers", c)

    @property
    def dim(self) -> int:
        return self.centers.shape[1]  # 0 for an empty union, which fits any samples


def decision_region_risk(
    region, mu0_samples: PointSet, mu1_samples: PointSet, r: float
) -> float:
    """Empirical risk (mu0(A dilated by r) + mu1(complement dilated by r)) / 2.

    Halfspace dilations shift the boundary by +-r exactly.  For ball unions
    the complement dilation uses the deflated-ball union, which is exact for
    one ball and otherwise overestimates the risk, keeping the reported value
    a valid upper bound on the optimal robust risk.
    """
    nonnegative_real(r, "radius")
    if not isinstance(region, (HalfspaceRegion, BallUnionRegion)):
        raise InvalidArgumentError("unsupported decision region type")
    x0 = mu0_samples.points
    x1 = mu1_samples.points
    if len({x0.shape[1], x1.shape[1], region.dim} - {0}) != 1:
        raise InvalidArgumentError("the region and both sample sets need one dimension")
    if isinstance(region, HalfspaceRegion):
        in_dilated = (x0 @ region.normal) <= region.offset + r
        in_comp_dilated = (x1 @ region.normal) >= region.offset - r
    elif region.centers.size == 0:
        in_dilated = np.zeros(len(x0), dtype=bool)
        in_comp_dilated = np.ones(len(x1), dtype=bool)
    else:
        d0 = _kernels.min_dist(x0, region.centers, False)
        d1 = _kernels.min_dist(x1, region.centers, False)
        in_dilated = d0 <= region.rho + r
        if region.rho - r <= 0.0:
            in_comp_dilated = np.ones(len(x1), dtype=bool)
        else:
            in_comp_dilated = ~(d1 <= region.rho - r)
    return float((in_dilated.mean() + in_comp_dilated.mean()) / 2.0)


# ---------------------------------------------------------------------------
# smoothing, generators, convergence experiment
# ---------------------------------------------------------------------------


def gaussian_smooth(samples: PointSet, sigma: float, seed: int) -> PointSet:
    """Add independent N(0, sigma^2 I) noise to every point."""
    if nonnegative_real(sigma, "sigma") == 0.0:
        return samples
    g = single_generator(seed)
    noise = g.standard_normal(samples.points.shape) * sigma
    return PointSet(samples.points + noise)


@dataclass(frozen=True)
class DistributionSpec:
    """Named sampling primitive: 'gaussian-mixture' or 'uniform-ball'."""

    kind: str
    dim: int
    atoms: tuple = ()
    weights: tuple = ()
    sigma: float = 0.0
    center: tuple = ()
    radius: float = 1.0

    def __post_init__(self):
        if self.kind not in ("gaussian-mixture", "uniform-ball"):
            raise InvalidArgumentError(f"unknown distribution kind {self.kind!r}")
        if any(len(a) != self.dim for a in self.atoms) or len(self.center) not in (0, self.dim):
            raise InvalidArgumentError(f"atoms and center need {self.dim} coordinates each")
        if not all(map(math.isfinite, self.center)):
            raise InvalidArgumentError("center must be finite")
        if self.kind == "gaussian-mixture":
            if not self.atoms:
                raise InvalidArgumentError("gaussian-mixture needs atoms")
            if self.weights and len(self.weights) != len(self.atoms):
                raise InvalidArgumentError("need one weight per atom")
        if not all(0.0 < w < math.inf for w in self.weights):
            raise InvalidArgumentError("weights must be positive finite reals")
        nonnegative_real(self.sigma, "sigma")
        positive_radius(self.radius)


def sample_distribution(spec: DistributionSpec, n: int, g: np.random.Generator) -> np.ndarray:
    if spec.kind == "uniform-ball":
        center = np.asarray(spec.center or (0.0,) * spec.dim, dtype=np.float64)
        return center + spec.radius * uniform_in_ball(g, n, spec.dim)
    atoms = np.asarray(spec.atoms, dtype=np.float64).reshape(len(spec.atoms), spec.dim)
    if spec.weights:
        w = np.asarray(spec.weights, dtype=np.float64)
        w = w / w.sum()
    else:
        w = np.full(len(atoms), 1.0 / len(atoms))
    out = atoms[atom_indices(g, w, n)]
    if spec.sigma > 0.0:
        out = out + g.standard_normal(out.shape) * spec.sigma
    return out


@dataclass(frozen=True)
class ConvergenceResult:
    rows: tuple  # (n, trial, d_r, abs_dev)
    reference: float
    n_ref: int
    medians: dict


def convergence_experiment(
    gen0: DistributionSpec,
    gen1: DistributionSpec,
    r: float,
    sigma: float,
    n_grid,
    trials: int,
    seed: int,
) -> ConvergenceResult:
    """Deviation of the plug-in transport cost from a large-sample reference.

    n_grid holds integer sample sizes.  The reference is computed once at
    n_ref = 8 * max(n_grid); it stands in for the population value with an
    extra O(n_ref^(-1/d)) error of its own.
    """
    n_grid = sorted(n_grid)
    if not n_grid or n_grid[0] < 1 or trials < 1:
        raise InvalidArgumentError("need a nonempty n_grid of sizes >= 1 and trials >= 1")
    nonnegative_real(sigma, "noise sigma")

    def draw(spec, n, tag):
        g = chunk_generator(derive_seed(seed, "draw", tag), 0)
        raw = sample_distribution(spec, n, g)
        if sigma > 0.0:
            raw = raw + g.standard_normal(raw.shape) * sigma
        return PointSet(raw)

    n_ref = 8 * max(n_grid)
    ref = d_r_uniform(draw(gen0, n_ref, "ref0"), draw(gen1, n_ref, "ref1"), r).value
    rows = []
    for n in n_grid:
        for trial in range(trials):
            x0 = draw(gen0, n, (n, trial, 0))
            x1 = draw(gen1, n, (n, trial, 1))
            val = d_r_uniform(x0, x1, r).value
            rows.append((n, trial, val, abs(val - ref)))
    medians = {
        n: float(np.median([row[3] for row in rows if row[0] == n])) for n in n_grid
    }
    return ConvergenceResult(rows=tuple(rows), reference=ref, n_ref=n_ref, medians=medians)


def coupling_sandwich_check(
    mu0: EmpiricalMeasure,
    mu1: EmpiricalMeasure,
    mu0n: EmpiricalMeasure,
    mu1n: EmpiricalMeasure,
    r: float,
    eta: float,
) -> BoundReport:
    """Both chain inequalities linking the cost at r +- 2*eta to plug-ins.

    All five transport values are computed exactly (integer max flow), so a
    violation can only mean a solver bug.  The report's measured field is the
    worse of the two exact violations (at most 0 when everything is correct).
    """
    if not (0.0 < eta < r / 3.0):
        raise InvalidArgumentError("eta must lie in (0, r/3)")
    d_mid = d_r_weighted(mu0n, mu1n, r).value_exact
    d_up = d_r_weighted(mu0, mu1, r + 2.0 * eta).value_exact
    d_dn = d_r_weighted(mu0, mu1, r - 2.0 * eta).value_exact
    d_e0 = d_r_weighted(mu0, mu0n, eta).value_exact
    d_e1 = d_r_weighted(mu1, mu1n, eta).value_exact
    upper_violation = d_up - (d_mid + d_e0 + d_e1)
    lower_violation = (d_mid - d_e0 - d_e1) - d_dn
    worst = max(upper_violation, lower_violation)
    return BoundReport.compare(
        "coupling-sandwich", bound_value=0.0, measured=float(worst), std_error=0.0
    )
