"""The two primitives every check reduces to, both on scipy.

``min_dist``: distance from a batch of points to a finite base set, which
decides membership in an r-parallel set (Monte Carlo and rasterization).
``max_matching``: maximum bipartite matching on a threshold graph, which
gives the thresholded transport cost (robust risk).
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow
from scipy.spatial import cKDTree


def min_dist(points: np.ndarray, base: np.ndarray, linf: bool) -> np.ndarray:
    """Distance from each row of ``points`` to the nearest row of ``base``."""
    return cKDTree(base).query(points, p=np.inf if linf else 2)[0]


def max_matching(indptr: np.ndarray, indices: np.ndarray, n_left: int, n_right: int):
    """Maximum matching size and the right partner of each left node (-1 = unmatched).

    The bipartite graph is given in CSR form, left node i adjacent to right
    nodes indices[indptr[i]:indptr[i + 1]].  It is solved as a unit-capacity
    max flow (Dinic) on source -> left -> right -> sink.
    """
    n_edges = len(indices)
    source, sink = n_left + n_right, n_left + n_right + 1
    # rows: left nodes, right nodes (one edge to the sink), source, sink
    net_indptr = np.concatenate([
        indptr,
        n_edges + np.arange(1, n_right + 1),
        [n_edges + n_right + n_left] * 2,
    ])
    net_indices = np.concatenate([
        np.asarray(indices, np.int64) + n_left,
        np.full(n_right, sink),
        np.arange(n_left),
    ])
    n_nodes = sink + 1
    network = csr_matrix(
        (np.ones(len(net_indices), np.int32), net_indices, net_indptr), shape=(n_nodes, n_nodes)
    )
    flow = maximum_flow(network, source, sink, method="dinic").flow.tocoo()
    used = (flow.row < n_left) & (flow.col >= n_left) & (flow.col < source) & (flow.data > 0)
    match_l = np.full(n_left, -1, np.int64)
    match_l[flow.row[used]] = flow.col[used] - n_left
    return int(used.sum()), match_l
