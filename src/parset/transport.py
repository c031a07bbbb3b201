"""Empirical adversarial transport cost, Wasserstein comparison, robust risk,
and the plug-in convergence experiment.

The thresholded cost 1{dist > 2r} turns optimal transport into maximum
matching (uniform case) or maximum flow (weighted case): the optimal cost is
one minus the largest mass matchable within distance 2r.  Both cases share
one threshold graph and one exact squared-distance test, with no Python
object per pair: small inputs test every pair at once, larger ones test the
candidates of one pair query between two KD-trees, one coordinate column at
a time, and sort the kept keys.  The graph stays int32 wherever it fits
(_kernels.index_dtype), from the keys to the max-flow network.
Matching runs on it as a unit-capacity max flow in scipy, one solve per sweep:
a sweep's graphs are offset into one disjoint union, whose maximum matching
is the union of the parts' maximum matchings.  The graphs are written into
the network and dropped before the solve, so the network holds the only
copy of the edges.  Each matching's graph is built
on both point sets sorted by first coordinate.  Dinic's first blocking flow
visits the left nodes, and each node's edges, in index order, so it is then
the sweep greedy (each point takes the leftmost free partner within 2r),
which is optimal in 1-d and close to it in 2-d, and the later phases have
little left to find; the certificates are mapped back to input indices.  The
weighted flow keeps the input order, and runs Dinic
in Python integers, the weights scaled to one common denominator,
so that inequalities between transport values can be checked exactly rather
than modulo solver tolerance; each phase walks only the edges into the next
level, which gives the same pushes as walking every edge.
Wasserstein-1 is exact too: the area between the CDFs in 1-d, and from 2-d
an assignment solve, which takes two uniform measures of equal size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cache
from itertools import accumulate, permutations

import numpy as np

from . import _kernels
from ._rng import atom_rows, chunk_generator, derive_seed, uniform_in_ball
from .bounds import BoundReport
from .errors import InvalidArgumentError
from .geometry import PointSet, nonnegative_real, positive_count, positive_radius, probability_weights


@dataclass(frozen=True)
class EmpiricalMeasure:
    points: PointSet
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", probability_weights(self.weights, len(self.points), "point"))

    @classmethod
    def uniform(cls, points: PointSet) -> "EmpiricalMeasure":
        n = len(points)
        return cls(points=points, weights=np.full(n, 1.0 / n))

    @property
    def is_uniform(self) -> bool:
        """Whether every weight is the same, as in uniform(points)."""
        return bool(self.weights.min() == self.weights.max())


@dataclass(frozen=True)
class TransportResult:
    value: float
    certificate: tuple
    value_exact: Fraction | None = field(default=None, repr=False)


def _pair_dist_sq(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2)


# Most pair-distance terms, len(x) * len(y) * d, that _threshold_csr tests
# directly, every pair at once, with no KD-tree.  On a 2-core box the two trees
# and their pair query took 60-100 us however small the graph, and the direct
# test beat them up to about 4000-5000 terms in 2-d and 3-d, whatever share of
# the pairs was kept (and past 8000 in 1-d).
_DIRECT_MAX_TERMS = 4096


def _threshold_csr(x: np.ndarray, y: np.ndarray, threshold_sq: float):
    """CSR adjacency of pairs with squared distance <= threshold_sq.

    The exact test is (x_i - y_j)^2 summed over the coordinates in numpy's
    pairwise order, which is .sum(axis=1) of the differences to the bit.  Up
    to _DIRECT_MAX_TERMS terms, every pair is tested at once (_pair_dist_sq),
    and the flat indices of the kept pairs are the keys i * len(y) + j,
    already sorted.  Past it, one pair query between two KD-trees proposes
    the candidates, as arrays (24 bytes a pair), within a radius widened by
    1e-9 relative, so rounding in the trees cannot drop a pair; the exact
    test then runs one coordinate column at a time (pairwise_sum), and one
    sort puts the kept keys in row-major order with ascending columns.  Row
    i's edges are the keys in [i * len(y), (i + 1) * len(y)), and key %
    len(y), taken in place, is the column.  Keys, indptr and indices are
    _kernels.index_dtype((len(x) + 1) * len(y)) on both sides of the split:
    int32 wherever that fits, which halves the sort's traffic and the
    graph's memory.
    """
    n, m = len(x), len(y)
    dtype = _kernels.index_dtype((n + 1) * m)
    if n * m * x.shape[1] <= _DIRECT_MAX_TERMS:
        key = np.flatnonzero(_pair_dist_sq(x, y) <= threshold_sq).astype(dtype)
    else:
        from scipy.spatial import cKDTree

        radius = math.sqrt(threshold_sq) * (1.0 + 1e-9)
        near = cKDTree(x).sparse_distance_matrix(cKDTree(y), radius, output_type="ndarray")
        i, j = near["i"].astype(dtype), near["j"].astype(dtype)
        del near  # 24 bytes a candidate, freed before its 8 * d bytes of terms
        terms = np.empty((x.shape[1], len(i)))
        for term, xk, yk in zip(terms, x.T, y.T):
            np.take(xk, i, out=term)
            np.square(np.subtract(term, np.take(yk, j), out=term), out=term)
        keep = _kernels.pairwise_sum(terms) <= threshold_sq
        key = np.sort(i[keep] * m + j[keep])
    indptr = np.searchsorted(key, np.arange(0, (n + 1) * m, m, dtype=dtype)).astype(dtype)
    key %= m
    return indptr, key


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


# Most threshold-graph edges that one max_matching call takes: the pending
# graphs of a batch are solved before the next instance would push their total
# past it, so a batch of any length holds about this many edges plus one graph.
_BATCH_MAX_EDGES = 1 << 20


def d_r_uniform(x: PointSet, y: PointSet, r: float) -> TransportResult:
    """Thresholded transport cost between equal-size uniform empirical measures.

    Pairs within distance 2r are matchable at zero cost; the optimal cost is
    1 - |maximum matching| / n.  Ties at exactly 2r count as matchable.  This
    is d_r_uniform_many on one instance: a batch of one is the instance's own
    network, built on the points sorted by first coordinate, so the
    certificate depends on nothing else.  A sweep of many instances should
    pass them to d_r_uniform_many together.
    """
    return d_r_uniform_many([(x, y, r)])[0]


def d_r_uniform_many(instances) -> list[TransportResult]:
    """d_r_uniform on each (x, y, r) triple, with one matching solve per batch.

    A maximum matching of a disjoint union of bipartite graphs is the union
    of maximum matchings of its parts.  So the instances' threshold graphs
    are offset into one block-diagonal graph, solved by one max_matching
    call, and the matching is split back into per-instance certificates in
    local indices.  A sweep of small graphs then pays scipy's per-call set-up
    once, not once per instance.  The pending graphs go to the solver early
    when the next one would take their edges past _BATCH_MAX_EDGES.  Only
    the pending list refers to a graph, and no sorted copy of the points
    outlives its graph's build, so during a solve the network is the only
    copy of its edges, beside the next graph when a batch went early.

    Each graph is built on x and y sorted by first coordinate (a stable
    argsort of each), so that Dinic's first phase is the sweep greedy; each
    certificate is mapped back to input indices and listed by ascending left
    index.

    Every triple is checked, with d_r_uniform's messages, before any graph is
    built.  Values never depend on the batch or on the order of the points.
    Which maximum matching a certificate is follows the sorted order, and in
    a batch of more than one instance it may differ from the one a lone call
    returns, because Dinic's phases share the sink across the parts; each is
    still a maximum matching within 2r.
    """
    instances = list(instances)
    thresholds = []
    for x, y, r in instances:
        thresholds.append(_check_pair(x, y, r))
        if len(x) != len(y):
            raise InvalidArgumentError("uniform transport needs equal sample counts")
    results: list[TransportResult] = []
    graphs: list = []  # (indptr, indices, n) per pending instance
    orders: list = []  # (x order, y order) per pending instance
    edges = 0
    for (x, y, _), threshold_sq in zip(instances, thresholds):
        # ndarray methods: the numpy functions cost twice as much a call,
        # which a sweep of small graphs pays once an instance
        ox = x.points[:, 0].argsort(kind="stable")
        oy = y.points[:, 0].argsort(kind="stable")
        graph = _threshold_csr(x.points.take(ox, axis=0), y.points.take(oy, axis=0), threshold_sq)
        if graphs and edges + len(graph[1]) > _BATCH_MAX_EDGES:
            results += _match_disjoint_union(graphs, orders)
            edges = 0
        graphs.append((*graph, len(x)))
        orders.append((ox, oy))
        edges += len(graph[1])
    if graphs:
        del graph  # graphs holds the only reference to each graph through the solve
        results += _match_disjoint_union(graphs, orders)
    return results


def _match_disjoint_union(graphs: list, orders: list) -> list[TransportResult]:
    """One max_matching on the block-diagonal union of (indptr, indices, n_k)
    graphs of n_k points a side, each built on its points reordered by its
    (x order, y order) in orders; instance k's left and right nodes both
    start at node offset n_0 + ... + n_(k-1).  The matching is mapped back
    through the orders once for the whole union, so each certificate is in
    input indices, listed by ascending left index.  Empties both lists:
    max_matching frees each graph once it is written into the network."""
    sizes = [n for *_, n in graphs]
    starts = list(accumulate(sizes, initial=0))
    shift = np.repeat(starts[:-1], sizes)
    order_x = np.concatenate([ox for ox, _ in orders]) + shift
    order_y = np.concatenate([oy for _, oy in orders]) + shift
    orders.clear()
    _, match_l = _kernels.max_matching(graphs)
    partner = np.full(starts[-1], -1)  # input right partner of each input left node
    matched = match_l >= 0
    partner[order_x[matched]] = order_y[match_l[matched]]
    results = []
    for lo, n in zip(starts, sizes):
        part = partner[lo : lo + n]
        left = np.flatnonzero(part >= 0)
        pairs = tuple(zip(left.tolist(), (part[left] - lo).tolist()))
        exact = Fraction(n - len(left), n)
        results.append(TransportResult(value=float(exact), certificate=pairs, value_exact=exact))
    return results


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

    Each phase levels the residual graph by BFS, which also keeps, for each
    node in adjacency order, its edges that have capacity and enter the next
    level.  The depth-first walk then moves each node's cursor along that
    list alone.  An edge left out of it could never be taken within the
    phase: pushing along a level edge only gives capacity to its twin, which
    goes a level down.  So every push is the push that walking the whole
    adjacency list with the level test would make.
    """
    n, m = len(supply), len(demand)
    src, snk = n + m, n + m + 1
    tails = [src] * n + list(range(n, n + m)) + rows
    heads = list(range(n)) + [snk] * m + (n + cols).tolist()
    # edge 2e is the e-th edge above and 2e + 1 its residual twin
    to = [0] * (2 * len(tails))
    to[0::2], to[1::2] = heads, tails
    cap = [0] * len(to)
    cap[0::2] = [*supply, *demand] + [2 * sum(supply)] * len(cols)
    adj: list[list[int]] = [[] for _ in range(n + m + 2)]
    for e, v in enumerate(to):
        adj[v].append(e ^ 1)  # the twin of the edge into v leaves v
    total = 0
    while True:
        level = [-1] * len(adj)
        level[src] = 0
        queue = [src]
        ahead: list = [()] * len(adj)
        for u in queue:
            nxt = level[u] + 1
            ahead[u] = out = []
            for e in adj[u]:
                if cap[e]:
                    v = to[e]
                    if level[v] < 0:
                        level[v] = nxt
                        queue.append(v)
                    if level[v] == nxt:
                        out.append(e)
        if level[snk] < 0:
            return total, cap[2 * (n + m) + 1 :: 2]
        # blocking flow: advance along the level graph, retreat from dead ends
        cursor = [0] * len(adj)
        path: list[int] = []
        u = src
        while True:
            if u == snk:
                pushed = min([cap[e] for e in path])
                for e in path:
                    cap[e] -= pushed
                    cap[e ^ 1] += pushed
                total += pushed
                path.clear()
                u = src
                continue
            edges, c = ahead[u], cursor[u]
            end = len(edges)
            while c < end and not cap[edges[c]]:
                c += 1
            cursor[u] = c
            if c < end:
                path.append(edges[c])
                u = to[edges[c]]
            elif path:
                u = to[path.pop() ^ 1]
                cursor[u] += 1
            else:
                break


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
    return TransportResult(value=float(exact), certificate=cert, value_exact=exact)


# ---------------------------------------------------------------------------
# 1-Wasserstein comparison
# ---------------------------------------------------------------------------

_W1_MAX_POINTS = 500


def _w1_sorted_1d(mu: EmpiricalMeasure, nu: EmpiricalMeasure):
    """Exact 1-d Wasserstein-1 as the area between the two CDFs, with the
    monotone coupling as its certificate: the sorted union of the two
    cumulative weight arrays cuts the mass into pieces, and each piece moves
    from the atom of mu to the atom of nu whose CDF step holds it."""
    xs = mu.points.points[:, 0]
    ys = nu.points.points[:, 0]
    pos = np.concatenate([xs, ys])
    delta = np.concatenate([mu.weights, -nu.weights])
    order = np.argsort(pos, kind="stable")
    pos = pos[order]
    delta = delta[order]
    cdf_gap = np.cumsum(delta)[:-1]
    value = float(np.abs(cdf_gap * np.diff(pos)).sum())
    ox = np.argsort(xs, kind="stable")
    oy = np.argsort(ys, kind="stable")
    cx, cy = np.cumsum(mu.weights[ox]), np.cumsum(nu.weights[oy])
    cuts = np.union1d(cx, cy)
    # the piece ending at a cut past the last cumulative weight, which sums to 1
    # only within rounding, belongs to the last atom
    i = ox[np.searchsorted(cx, cuts).clip(max=len(cx) - 1)]
    j = oy[np.searchsorted(cy, cuts).clip(max=len(cy) - 1)]
    flows = zip(i.tolist(), j.tolist(), np.diff(cuts, prepend=0.0).tolist())
    return value, tuple(flows)


def w1_empirical(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> TransportResult:
    """Exact earth-mover distance with Euclidean ground cost.

    In dimension 1 it is the sorted/CDF computation, for any weights.  From
    dimension 2 it is an assignment solve, so it takes two equal-size
    measures whose weights are all equal (is_uniform) and refuses any other
    pair.  Inputs are capped at 500 points per side; subsample or bin larger
    clouds first.
    """
    from scipy.optimize import linear_sum_assignment

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
    if not (n == m and mu.is_uniform and nu.is_uniform):
        raise InvalidArgumentError(
            "w1_empirical takes 1-d measures, or two uniform measures of equal size"
        )
    dist = np.sqrt(_pair_dist_sq(mu.points.points, nu.points.points))
    rows, cols = linear_sum_assignment(dist)
    value = float(dist[rows, cols].mean())
    flows = tuple((int(i), int(j), 1.0 / n) for i, j in zip(rows, cols))
    return TransportResult(value=value, certificate=flows)


# how far the transport cost may exceed W1 / (2r) and still pass: the two
# solvers' rounding
_W1_MARGIN = 1e-12


def check_w1_domination(mu: EmpiricalMeasure, nu: EmpiricalMeasure, r: float) -> BoundReport:
    """Transport cost at threshold 2r never exceeds W1 / (2r): the report
    compares the cost's excess over W1 / (2r) with _W1_MARGIN."""
    positive_radius(r)
    d_val = d_r_weighted(mu, nu, r).value
    w1 = w1_empirical(mu, nu).value
    return BoundReport.compare(
        "w1-domination", bound_value=_W1_MARGIN, measured=d_val - w1 / (2.0 * r)
    )


def robust_risk(d_r_value: float) -> float:
    """Optimal error probability (1 - transport cost) / 2."""
    if not (0.0 <= d_r_value <= 1.0):
        raise InvalidArgumentError("transport cost must lie in [0, 1]")
    return (1.0 - d_r_value) / 2.0


# ---------------------------------------------------------------------------
# generators, convergence experiment
# ---------------------------------------------------------------------------


# the fields of a DistributionSpec that each kind reads; the others keep their defaults
GENERATOR_KEYS = {
    "gaussian-mixture": {"kind", "dim", "atoms", "weights", "sigma"},
    "uniform-ball": {"kind", "dim", "center", "radius", "sigma"},
}


@dataclass(frozen=True)
class DistributionSpec:
    """Named sampling primitive: 'gaussian-mixture' or 'uniform-ball', either
    one plus N(0, sigma^2 I) noise."""

    kind: str
    dim: int
    atoms: tuple = ()
    weights: tuple = ()
    sigma: float = 0.0
    center: tuple = ()
    radius: float = 1.0

    def __post_init__(self):
        if self.kind not in tuple(GENERATOR_KEYS):  # a JSON kind may be unhashable
            raise InvalidArgumentError(f"unknown distribution kind {self.kind!r}")
        for f in fields(self):  # a field its kind does not read must keep its default
            value = getattr(self, f.name)
            unread = f.name not in GENERATOR_KEYS[self.kind]
            if unread and (len(value) if f.default == () else value != f.default):
                raise InvalidArgumentError(f"{self.kind} does not read {f.name}")
        object.__setattr__(self, "dim", positive_count(self.dim, "dim"))
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
    n = positive_count(n, "n")
    if spec.kind == "uniform-ball":
        center = np.asarray(spec.center or (0.0,) * spec.dim, dtype=np.float64)
        out = center + spec.radius * uniform_in_ball(g, n, spec.dim)
    else:
        atoms = np.asarray(spec.atoms, dtype=np.float64).reshape(len(spec.atoms), spec.dim)
        if spec.weights:
            w = np.asarray(spec.weights, dtype=np.float64)
            w = w / w.sum()
        else:
            w = np.full(len(atoms), 1.0 / len(atoms))
        out = atom_rows(g, atoms, w, n)
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
    n_grid,
    trials: int,
    seed: int,
) -> ConvergenceResult:
    """Deviation of the plug-in transport cost from a large-sample reference.

    n_grid holds distinct integer sample sizes.  The reference is computed once at
    n_ref = 8 * max(n_grid); it stands in for the population value with an
    extra O(n_ref^(-1/d)) error of its own.
    """
    n_grid = sorted(positive_count(n, "n_grid size") for n in n_grid)
    trials = positive_count(trials, "trials")
    if not n_grid:
        raise InvalidArgumentError("need a nonempty n_grid")
    for n, m in zip(n_grid, n_grid[1:]):
        if n == m:
            raise InvalidArgumentError(f"n_grid holds the size {n} twice")

    def draw(spec, n, tag):
        g = chunk_generator(derive_seed(seed, "draw", tag), 0)
        return PointSet(sample_distribution(spec, n, g))

    n_ref = 8 * max(n_grid)
    cells = [(n, trial) for n in n_grid for trial in range(trials)]
    # the reference and every trial are drawn from their own streams; the
    # reference is matched alone, as in one sweep its graph sets the number of
    # Dinic phases for the trials', and the trials in one sweep
    ref = d_r_uniform(draw(gen0, n_ref, "ref0"), draw(gen1, n_ref, "ref1"), r).value
    pairs = [(draw(gen0, n, (n, t, 0)), draw(gen1, n, (n, t, 1)), r) for n, t in cells]
    values = [res.value for res in d_r_uniform_many(pairs)]
    rows = [(n, t, val, abs(val - ref)) for (n, t), val in zip(cells, values)]
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
