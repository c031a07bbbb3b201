"""Independent oracles that the benchmark checks parset's outputs against.

Nothing here imports parset.  Each oracle uses a different method from the
program's own:

* square unions: exact area and perimeter from a coordinate-compressed cell
  grid (the program walks square faces and subtracts intervals);
* disk unions: area as the 1-d integral of the union length of the chord
  intervals, by Gauss-Legendre on each piece between events (the program
  integrates over exposed arcs with the divergence theorem);
* uniform thresholded transport: a maximum matching found as a unit-capacity
  max flow by scipy's Dinic, on a threshold graph built here with a KD-tree
  (the program runs Hopcroft-Karp on its own CSR build).  scipy's
  maximum_bipartite_matching gives the same sizes but took 6.5 s and 9.7 s
  on the two n = 3200 instances, against 0.05 s and 0.13 s for the flow;
* weighted thresholded transport: the max-flow LP solved by scipy linprog
  (the program runs Dinic on exact rationals);
* Gaussian-mixture entropy: the sandwich h(N(0, var I)) <= h(mixture) <=
  h(N(0, var I)) + H(weights).

``python3 benchmarks/perf/oracles.py`` runs every self-check on cases that
can be solved by hand and exits 1 if one fails.
"""

from __future__ import annotations

import math
import sys

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow
from scipy.spatial import cKDTree
from scipy.special import logsumexp

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(48)


def square_union_measures(centers, r: float) -> tuple[float, float]:
    """(area, perimeter) of the union of squares [c - r, c + r]^2."""
    c = np.asarray(centers, dtype=np.float64)
    xs = np.unique(np.concatenate([c[:, 0] - r, c[:, 0] + r]))
    ys = np.unique(np.concatenate([c[:, 1] - r, c[:, 1] + r]))
    mx = 0.5 * (xs[:-1] + xs[1:])
    my = 0.5 * (ys[:-1] + ys[1:])
    covered = np.zeros((len(mx), len(my)), dtype=bool)
    for cx, cy in c:
        covered |= (np.abs(mx - cx) < r)[:, None] & (np.abs(my - cy) < r)[None, :]
    dx = np.diff(xs)
    dy = np.diff(ys)
    area = float((covered * dx[:, None] * dy[None, :]).sum())
    padded = np.pad(covered, 1)
    # an edge between a covered and an uncovered cell is boundary
    across_x = padded[1:, 1:-1] != padded[:-1, 1:-1]
    across_y = padded[1:-1, 1:] != padded[1:-1, :-1]
    perimeter = float((across_x * dy[None, :]).sum() + (across_y * dx[:, None]).sum())
    return area, perimeter


def _union_lengths(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Row-wise length of the union of intervals [lo, hi] (empty when lo == hi)."""
    order = np.argsort(lo, axis=1)
    lo = np.take_along_axis(lo, order, axis=1)
    hi = np.take_along_axis(hi, order, axis=1)
    reach = np.maximum.accumulate(hi, axis=1)
    start = lo.copy()
    start[:, 1:] = np.maximum(lo[:, 1:], reach[:, :-1])
    return np.maximum(hi - start, 0.0).sum(axis=1)


def disk_union_area(centers, r: float) -> float:
    """Area of the union of radius-r disks: integral over y of the chord union.

    Between consecutive events (disk tops and bottoms, circle intersection
    heights) the union length is smooth apart from square-root ends, which
    the substitution y = a + (b - a) sin^2(pi s / 2) makes analytic.
    """
    c = np.unique(np.asarray(centers, dtype=np.float64), axis=0)
    events = [c[:, 1] - r, c[:, 1] + r]
    i, j = np.triu_indices(len(c), 1)
    delta = c[j] - c[i]
    dist = np.hypot(delta[:, 0], delta[:, 1])
    near = (dist > 0.0) & (dist < 2.0 * r)
    if near.any():
        mid = 0.5 * (c[i[near]] + c[j[near]])
        h = np.sqrt(r * r - (0.5 * dist[near]) ** 2)
        offset = h * delta[near, 0] / dist[near]  # y-part of the perpendicular
        events += [mid[:, 1] + offset, mid[:, 1] - offset]
    cuts = np.unique(np.concatenate(events))
    s = 0.5 * (_GL_NODES + 1.0)
    u = np.sin(0.5 * math.pi * s) ** 2
    du = 0.25 * math.pi * np.sin(math.pi * s) * _GL_WEIGHTS  # includes ds = 1/2
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        y = a + (b - a) * u
        half = np.sqrt(np.maximum(r * r - (y[:, None] - c[None, :, 1]) ** 2, 0.0))
        lengths = _union_lengths(c[None, :, 0] - half, c[None, :, 0] + half)
        total += (b - a) * float((lengths * du).sum())
    return total


def _threshold_graph(x, y, r: float) -> csr_matrix:
    neighbours = cKDTree(x).query_ball_tree(cKDTree(y), 2.0 * r)
    rows = np.repeat(np.arange(len(x)), [len(nb) for nb in neighbours])
    cols = np.fromiter((k for nb in neighbours for k in nb), dtype=np.int64, count=len(rows))
    return csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(len(x), len(y)))


def matching_size(x, y, r: float) -> int:
    """Maximum number of disjoint pairs (x_i, y_j) with |x_i - y_j| <= 2r."""
    graph = _threshold_graph(np.asarray(x, float), np.asarray(y, float), r).tocoo()
    n, m = graph.shape
    source, sink = n + m, n + m + 1
    rows = np.concatenate([np.full(n, source), graph.row, n + np.arange(m)])
    cols = np.concatenate([np.arange(n), n + graph.col, np.full(m, sink)])
    network = csr_matrix((np.ones(len(rows), dtype=np.int32), (rows, cols)),
                         shape=(n + m + 2, n + m + 2))
    return int(maximum_flow(network, source, sink, method="dinic").flow_value)


def weighted_cost_lp(x, wx, y, wy, r: float) -> float:
    """1 - (max mass movable along pairs within 2r), as a linear program."""
    graph = _threshold_graph(np.asarray(x, float), np.asarray(y, float), r).tocoo()
    n, m, e = len(wx), len(wy), graph.nnz
    if e == 0:
        return 1.0
    cols = np.arange(e)
    a_ub = csr_matrix(
        (np.ones(2 * e), (np.concatenate([graph.row, n + graph.col]), np.tile(cols, 2))),
        shape=(n + m, e),
    )
    res = linprog(
        -np.ones(e),
        A_ub=a_ub,
        b_ub=np.concatenate([wx, wy]),
        bounds=(0, None),
        method="highs-ds",
    )
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return 1.0 + float(res.fun)


def gaussian_entropy(var: float, d: int) -> float:
    return 0.5 * d * math.log(2.0 * math.pi * math.e * var)


def mixture_entropy_bounds(weights, var: float, d: int) -> tuple[float, float]:
    """h(N(0, var I)) <= h(mixture) <= h(N(0, var I)) + H(weights)."""
    w = np.asarray(weights, dtype=np.float64)
    low = gaussian_entropy(var, d)
    return low, low - float((w * np.log(w)).sum())


def neg_log_density_sd(atoms, weights, var: float, samples: int, seed: int) -> float:
    """Standard deviation of -log p(X), X from the mixture, by plain sampling."""
    atoms = np.asarray(atoms, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    g = np.random.default_rng(seed)
    x = atoms[g.choice(len(w), size=samples, p=w)]
    x = x + g.standard_normal(x.shape) * math.sqrt(var)
    d2 = ((x[:, None, :] - atoms[None, :, :]) ** 2).sum(axis=2)
    logp = logsumexp(np.log(w)[None, :] - d2 / (2.0 * var), axis=1)
    logp -= 0.5 * atoms.shape[1] * math.log(2.0 * math.pi * var)
    return float(np.std(-logp))


def self_check() -> list[str]:
    """Hand-solvable cases for every oracle; returns the failures."""
    bad = []

    def expect(label, got, want, tol):
        if not abs(got - want) <= tol * max(1.0, abs(want)):
            bad.append(f"{label}: got {got!r}, want {want!r}")

    area, perim = square_union_measures([[0.0, 0.0]], 0.5)
    expect("one square area", area, 1.0, 1e-15)
    expect("one square perimeter", perim, 4.0, 1e-15)
    area, perim = square_union_measures([[1.0, 1.0], [2.0, 2.0]], 1.0)
    expect("staircase area", area, 7.0, 1e-15)
    expect("staircase perimeter", perim, 12.0, 1e-15)
    area, perim = square_union_measures([[0.0, 0.0], [5.0, 0.0], [0.0, 0.0]], 1.0)
    expect("disjoint squares area", area, 8.0, 1e-15)
    expect("disjoint squares perimeter", perim, 16.0, 1e-15)

    expect("one disk", disk_union_area([[0.3, -0.2]], 1.5), math.pi * 2.25, 1e-12)
    d, r = 1.2, 1.0
    lens = 2 * r * r * math.acos(d / (2 * r)) - 0.5 * d * math.sqrt(4 * r * r - d * d)
    expect("two disks", disk_union_area([[0.0, 0.0], [d, 0.0]], r), 2 * math.pi - lens, 1e-12)
    expect("tilted pair", disk_union_area([[0.0, 0.0], [0.72, 0.96]], r), 2 * math.pi - lens, 1e-12)
    expect("apart", disk_union_area([[0.0, 0.0], [3.0, 0.0]], r), 2 * math.pi, 1e-12)

    x = [[0.0, 0.0], [10.0, 0.0]]
    y = [[0.5, 0.0], [10.5, 0.0]]
    expect("matching within", matching_size(x, y, 0.3), 2, 0)
    expect("matching beyond", matching_size(x, y, 0.2), 0, 0)
    # greedy pairing x0-y0 would strand x1; the maximum is 2
    expect("augmenting", matching_size([[0.0, 0.0], [-1.0, 0.0]], [[-0.5, 0.0], [0.5, 0.0]], 0.25), 2, 0)

    wx = np.array([0.5, 0.5])
    expect("lp all", weighted_cost_lp([[0.0], [1.0]], wx, [[0.1]], np.array([1.0]), 1.0), 0.0, 1e-12)
    expect("lp half", weighted_cost_lp([[0.0], [1.0]], wx, [[0.1]], np.array([1.0]), 0.1), 0.5, 1e-12)
    expect("lp none", weighted_cost_lp([[0.0]], np.array([1.0]), [[5.0]], np.array([1.0]), 0.1), 1.0, 0)

    low, high = mixture_entropy_bounds([1.0], 0.5, 2)
    expect("single atom sandwich", high, low, 0)
    expect("gaussian entropy", low, math.log(2 * math.pi * math.e * 0.5), 1e-15)
    low, high = mixture_entropy_bounds([0.25] * 4, 1.0, 1)
    expect("uniform weights", high - low, math.log(4.0), 1e-15)
    sd = neg_log_density_sd([[0.0, 0.0, 0.0]], [1.0], 2.0, 200_000, 1)
    expect("-log p spread of a gaussian", sd, math.sqrt(1.5), 0.02)
    return bad


if __name__ == "__main__":
    failures = self_check()
    for line in failures:
        print(line)
    print("oracles self-check:", "FAIL" if failures else "ok")
    sys.exit(1 if failures else 0)
