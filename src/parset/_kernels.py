"""The primitives every check reduces to, on numpy and scipy.

``min_dist``: distance from a batch of points to a finite base set, which
decides membership in an r-parallel set (Monte Carlo).
A base of at most ``_SCAN_MAX_BASE`` points is scanned in numpy, one base
point and one coordinate column at a time, in the floating-point order of
``cKDTree``, accumulating in two or three scratch rows allocated once per
call.  A larger base is queried through a ``cKDTree``.  Both give the same
bits.
``max_matching``: maximum bipartite matching on a threshold graph, which
gives the thresholded transport cost (robust risk).  Its cost on small graphs
is scipy's per-call set-up, so ``transport.d_r_uniform_many`` hands it a
whole sweep's graphs at once as one disjoint union; the matching is read
from the flow's left rows alone.  It writes each graph's edges, offset, into
one network index array and drops the graph, so the network holds the only
copy of the edges while scipy solves; ``index_dtype`` makes every graph and
network array int32 wherever its counts fit.
``pairwise_sum``: the rows of an array summed in numpy's pairwise order,
which the threshold graph's distance test and the mixture kernel share, so
that both give the bits of ``.sum(axis=1)``.
``cube_cover``: which cells of the compressed grid a union of axis-aligned
cubes covers (Klee's measure problem at small n), which decides the measures
of an L-inf parallel set.  It streams the grid in slabs, so its memory is one
slab whatever the number of boxes.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import InvalidArgumentError, RangeOverflowError


# Largest base that is scanned instead of put in a KD-tree.  Per 65 536-point
# chunk on a 2-core box, in d = 2 and 3 (the suite's dimensions), the scan beat
# cKDTree 3.5-8x at m <= 20 and 1.2-2.5x at m = 64, and lost to it at m = 256.
_SCAN_MAX_BASE = 64


def min_dist(points: np.ndarray, base: np.ndarray, linf: bool) -> np.ndarray:
    """Distance from each row of ``points`` to the nearest row of ``base``.

    Non-finite coordinates raise ValueError, as they do in ``cKDTree``.
    """
    if len(base) > _SCAN_MAX_BASE:
        from scipy.spatial import cKDTree

        return cKDTree(base).query(points, p=np.inf if linf else 2)[0]
    points = np.asarray(points, dtype=np.float64)
    base = np.asarray(base, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != base.shape[1]:
        raise ValueError(f"points must be rows of length {base.shape[1]}, got shape {points.shape}")
    if not (np.isfinite(points).all() and np.isfinite(base).all()):
        raise ValueError("points and base must be finite, check for nan or inf values")
    cols = np.ascontiguousarray(points.T)
    best = np.full(len(points), np.inf)
    # scratch rows shared by every base point: the distance and one term, plus
    # a lane's partial sum for L2 in d >= 4
    rows = np.empty((3 if not linf and base.shape[1] >= 4 else 2, len(points)))
    dist = _chebyshev if linf else _sq_euclidean
    for p in base:
        np.minimum(best, dist(cols, p, rows), out=best)
    return best if linf else np.sqrt(best, out=best)


def _chebyshev(cols: np.ndarray, p: np.ndarray, rows: np.ndarray) -> np.ndarray:
    dist, term = rows[0], rows[1]
    np.abs(np.subtract(cols[0], p[0], out=dist), out=dist)
    for col, c in zip(cols[1:], p[1:]):
        np.maximum(dist, np.abs(np.subtract(col, c, out=term), out=term), out=dist)
    return dist


def _sq_euclidean(cols: np.ndarray, p: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Squared L2 distances, summed as cKDTree sums them: four strided partial
    sums over the first 4*floor(d/4) coordinates, added as ((s0+s1)+s2)+s3,
    then the remaining coordinates in sequence (plain left to right for d < 8)."""
    total, term = rows[0], rows[1]
    head = len(p) - len(p) % 4
    if not head:
        return _sum_squares(cols, p, range(len(p)), total, term)
    _sum_squares(cols, p, range(0, head, 4), total, term)
    for j in (1, 2, 3):
        total += _sum_squares(cols, p, range(j, head, 4), rows[2], term)
    for k in range(head, len(p)):
        total += np.square(np.subtract(cols[k], p[k], out=term), out=term)
    return total


def _sum_squares(
    cols: np.ndarray, p: np.ndarray, ks: range, out: np.ndarray, term: np.ndarray
) -> np.ndarray:
    """out = the sum of (cols[k] - p[k])**2 over ks, left to right; term is scratch."""
    first, *rest = ks
    np.square(np.subtract(cols[first], p[first], out=out), out=out)
    for k in rest:
        out += np.square(np.subtract(cols[k], p[k], out=term), out=term)
    return out


def pairwise_sum(e: np.ndarray) -> np.ndarray:
    """Sum of the k rows of e, added in the order numpy's pairwise sum adds
    a contiguous run of k numbers, so that it is ``.sum(axis=1)`` of e.T to
    the bit: in order below 8; from 8 to 128, in eight running sums combined
    as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)) and then the k % 8
    rows left over in order; above 128, as the sums of the two parts split at
    the multiple of 8 at or below k / 2.  numpy starts from 0.0, which changes
    no sum of non-negative terms, so that is left out.  The sums run in place
    in e's rows, so e is overwritten, and the result is one of its rows.
    """
    k = len(e)
    if k > 128:
        half = k // 2 - k // 2 % 8
        total = pairwise_sum(e[:half])
        total += pairwise_sum(e[half:])
        return total
    if k < 8:
        total, rest = e[0], e[1:]
    else:
        r = e[:8]
        for i in range(8, k - k % 8, 8):
            r += e[i : i + 8]
        while len(r) > 1:
            r[0::2] += r[1::2]
            r = r[0::2]
        total, rest = r[0], e[k - k % 8 :]
    for row in rest:
        total += row
    return total


def index_dtype(*counts: int):
    """int32 where every count is below 2**31, int64 otherwise: the dtype of
    the indices, offsets and keys that those counts bound.  numpy's int32
    arithmetic wraps silently, so a count bounds every value computed in
    the dtype as well as every value stored."""
    return np.int32 if max(counts) < 2**31 else np.int64


def max_matching(graphs: list):
    """Maximum matching size and the right partner of each left node (-1 =
    unmatched), on the block-diagonal union of the bipartite graphs in graphs.

    Each graph is (indptr, indices, n_right) in CSR form, left node i
    adjacent to right nodes indices[indptr[i]:indptr[i + 1]]; a graph's left
    nodes follow the graph before's, and so do its right nodes.  A maximum
    matching of the union is the union of the parts' maximum matchings.  It
    is solved as a unit-capacity max flow (Dinic) on source -> left -> right
    -> sink.  Each graph is popped from graphs and its edges written, offset,
    into the one network index array, so the network holds the only copy of
    the edges during the solve unless the caller keeps another.  Its arrays
    are index_dtype of the network's node and entry counts, whatever the
    graphs' dtypes, so int32 wherever they fit.  The matching is read from
    the left nodes' rows of the flow's CSR alone, its first entries, where
    each matched left node's one unit leaves to its partner; the rest of the
    network is never converted.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_flow

    n_left = sum(len(indptr) - 1 for indptr, _, _ in graphs)
    n_right = sum(m for _, _, m in graphs)
    n_edges = sum(len(indices) for _, indices, _ in graphs)
    source, sink = n_left + n_right, n_left + n_right + 1
    n_nodes, n_entries = sink + 1, n_edges + n_right + n_left
    dtype = index_dtype(n_nodes, n_entries)
    # rows: left nodes, right nodes (one edge to the sink), source, sink
    net_indptr = np.empty(n_nodes + 1, dtype)
    net_indices = np.empty(n_entries, dtype)
    net_indptr[0] = 0
    row, edge, col = n_left, n_edges, n_right  # where the graphs still in graphs end
    while graphs:  # last graph first, freed once written
        indptr, indices, m = graphs.pop()
        row, edge, col = row - len(indptr) + 1, edge - len(indices), col - m
        # dtype= puts the sums in the network's dtype, not the graph's
        np.add(indptr[1:], edge, out=net_indptr[row + 1 : row + len(indptr)], dtype=dtype)
        np.add(indices, n_left + col, out=net_indices[edge : edge + len(indices)], dtype=dtype)
    indptr = indices = None  # the last graph popped goes too
    net_indptr[n_left + 1 : source + 1] = np.arange(n_edges + 1, n_edges + n_right + 1, dtype=dtype)
    net_indptr[source + 1 :] = n_entries
    net_indices[n_edges : n_edges + n_right] = sink
    net_indices[n_edges + n_right :] = np.arange(n_left, dtype=dtype)
    # csr_matrix takes the arrays as they are, in their dtype, uncopied
    network = csr_matrix(
        (np.ones(n_entries, np.int32), net_indices, net_indptr), shape=(n_nodes, n_nodes)
    )
    flow = maximum_flow(network, source, sink, method="dinic").flow
    # a left row holds the flow on its edges to the right (0 or 1) and on the
    # twin of its edge from the source (0 or -1): its one positive entry, if
    # any, is the unit sent to its partner
    left = flow.indptr[: n_left + 1]
    used = np.flatnonzero(flow.data[: left[-1]] > 0)
    match_l = np.full(n_left, -1, np.int64)
    match_l[np.searchsorted(left, used, side="right") - 1] = flow.indices[used] - n_left
    return len(used), match_l


# Work one cover may do, in cells of its whole grid, (2n)^d at most.  About
# 2^26 cells took 0.7 s in 2-d (n = 4096), 1.2 s in 3-d (n = 203) and 1.5 s in
# 4-d (n = 45) for cube_union_measures on a 2-core box.
_COVER_MAX_CELLS = 1 << 26
# Cells a slab holds, in whole first-axis rows and one row at least: 2 MB of counts.
_COVER_SLAB_CELLS = 1 << 18


def cube_cover(centers: np.ndarray, r: float):
    """(lines, slabs) of the union of the cubes [c - r, c + r]^d about the rows c
    of centers.  lines[k] holds the sorted unique faces on axis k, and a cell
    spans two neighbouring lines on each axis.  +-1 at each cube's 2^d corners,
    placed by its faces' indices, and one cumulative sum per axis count every
    cell's cubes on integers, with no tolerance.  slabs yields (first row,
    covered) over whole first-axis rows, each carrying the first axis's sum on
    from the slab before; covered is 1.0 on covered cells and 0.0 elsewhere
    (the last line of an axis bounds no cell), until the next slab is drawn.
    A face past double range raises RangeOverflowError, and a grid past
    _COVER_MAX_CELLS cells InvalidArgumentError, before the grid is allocated.
    """
    n, dim = centers.shape
    with np.errstate(over="ignore", invalid="ignore"):
        faces = np.concatenate([centers - r, centers + r]).T
    if not np.isfinite(faces).all():
        raise RangeOverflowError(f"the {r:g}-cubes reach past double range")
    lines = list(map(np.unique, faces))
    shape = tuple(map(len, lines))
    if math.prod(shape) > _COVER_MAX_CELLS:
        raise InvalidArgumentError(
            f"the L-inf cover of {n} cubes in {dim}-d needs {math.prod(shape)} grid cells "
            f"(at most (2n)^d), past its budget of {_COVER_MAX_CELLS}"
        )
    index = np.stack(list(map(np.searchsorted, lines, faces)), axis=1)
    strides = np.array([math.prod(shape[k + 1 :]) for k in range(dim)])
    corners = np.array(list(itertools.product((0, 1), repeat=dim)))
    flat = ((index[:n] @ strides)[:, None] + ((index[n:] - index[:n]) * strides) @ corners.T).ravel()
    signs = np.broadcast_to(1.0 - 2.0 * (corners.sum(axis=1) % 2), (n, len(corners))).ravel()
    row, rows = strides[0], max(1, _COVER_SLAB_CELLS // strides[0])
    if rows < shape[0]:  # each slab's corners are then one run of the sorted flat indices
        order = np.argsort(flat)
        flat, signs = flat[order], signs[order]

    def slabs():
        carry = np.zeros(shape[1:])
        for start in range(0, shape[0], rows):
            size = min(rows, shape[0] - start)
            a, b = np.searchsorted(flat, [start * row, (start + size) * row]) if rows < shape[0] else (0, len(flat))
            count = np.bincount(flat[a:b] - start * row, signs[a:b], minlength=size * row)
            count = count.reshape((size,) + shape[1:])
            for axis in range(1, dim):
                np.cumsum(count, axis=axis, out=count)
            count[0] += carry
            np.cumsum(count, axis=0, out=count)
            carry = count[-1].copy()
            yield start, np.minimum(count, 1.0, out=count)

    return lines, slabs()
