"""Exact perimeter and area of unions of congruent disks and axis-aligned
squares in the plane, and a grid oracle.

Disk unions: on each circle, every other disk covers an angular interval
(empty when the centres are 2r or more apart); what survives after removing
all covered intervals is the exposed part of the boundary.  Because all radii
are equal, a circle can only be swallowed whole by a coincident twin, so
deduplicating centres first removes the lone degenerate case.  Tangencies
cover a single angle, which has measure zero and is dropped.

The complements come from one grouped sweep over all circles at once,
``_exposed_pieces``, a circle's span one turn from its first covered angle.
It only takes max, min and differences, and every float before it is the
same elementwise operation on the same inputs as a loop over one circle at a
time would do, so the arcs are the same bits in the same order.  The
angles phi = atan2 and alpha = acos stay scalar ``math`` calls over the near
pairs: numpy's ``arctan2`` and ``arccos`` differ from them in the last bit on
a share of inputs.  The pairwise temporaries (coverage tests, distances) are
built in the row blocks of ``geometry.row_blocks``, as is the deduplication
``geometry.group_rows``, so memory grows with the number of centres, not with
its square.

Square unions come from the L-inf cover ``_kernels.cube_cover``, decided on
integer indices, so faces however close stay apart.  Each segment is one
maximal run of one step in cover between neighbouring cells along a grid
line, its outward sign the negated step; a run along x may cross the cover's
slabs of x rows, so each line's run starts and ends are paired in order.
Every radius, like every other real parameter of the package, goes through
``geometry.positive_real`` (here as ``positive_radius``).

Both areas come from the divergence theorem over the same decomposition that
gives the perimeter, so ``union_boundary`` builds one decomposition per
instance for both measures.  Each exposed arc, parameterised counterclockwise
about its own centre, keeps the union locally on its left, so summing
(1/2) * integral(x dy - y dx) over the exposed arcs yields the enclosed area
with holes subtracted automatically.  x and y are taken from the first
centre, as the square sum takes x from its first vertical face, the leftmost:
a closed boundary's integrals of dx and dy vanish, so the reference point
drops out, and a union far from the origin keeps its digits.  For squares,
integral(x dy) reduces to the vertical segments, each at a fixed x with its
outward sign.  Both sums run over Python floats in segment order, not through
numpy's pairwise sum, so their bits do not depend on how the pieces were
computed.  ``mc.kneser_shell_check`` takes its planar disk shells from these
areas.

The grid oracle runs marching squares on the field d(x, centres) - r, which
needs exact values only at the corners of cells the boundary crosses.  It
evaluates the field exactly only in a narrow band around the boundary: the
field is 1-Lipschitz, so one value at a block's centre fixes the sign of
every lattice node in the block when the block is far enough from the zero
level set.  Inside the band it uses the same lattice coordinates and sums the
same cells in the same order as a dense sampling, so the result is bit-for-bit
the dense one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import InvalidArgumentError
from .geometry import NormKind, PointSet, group_rows, positive_radius, row_blocks

_TWO_PI = 2.0 * math.pi
_EPS = 1e-12


@dataclass(frozen=True)
class ArcDecomposition:
    """Exposed arcs (center_index, theta_start, theta_end) of a disk union.

    Angles satisfy theta_end > theta_start and live in [0, 4*pi) so that arcs
    crossing angle zero stay contiguous.  Indices refer to ``centers`` (input
    centres after coincident-point deduplication, original order kept).
    """

    arcs: tuple[tuple[int, float, float], ...]
    radius: float
    centers: np.ndarray

    def perimeter(self) -> float:
        return self.radius * sum(t1 - t0 for _, t0, t1 in self.arcs)

    def arc_length_of(self, center_index: int) -> float:
        return self.radius * sum(
            t1 - t0 for i, t0, t1 in self.arcs if i == center_index
        )

    def area(self) -> float:
        """Divergence theorem about the first centre (see the module docstring)."""
        r = self.radius
        centers = (self.centers - self.centers[:1]).tolist()
        total = 0.0
        for i, t0, t1 in self.arcs:
            cx, cy = centers[i]
            total += (
                r * r * (t1 - t0)
                + cx * r * (math.sin(t1) - math.sin(t0))
                + cy * r * (math.cos(t0) - math.cos(t1))
            )
        return 0.5 * total


@dataclass(frozen=True)
class BoundarySegment:
    orientation: str  # "horizontal" | "vertical"
    fixed_coord: float
    span_start: float
    span_end: float
    outward_sign: int

    def length(self) -> float:
        return self.span_end - self.span_start


@dataclass(frozen=True)
class SegmentDecomposition:
    segments: tuple[BoundarySegment, ...]

    def perimeter(self) -> float:
        return sum(s.length() for s in self.segments)

    def area(self) -> float:
        """Divergence theorem: sum of outward_sign * (x - x0) * length over the
        vertical segments.  The boundary is closed, so x0 drops out; taking it
        from the first vertical segment keeps the digits of far-off centres."""
        vertical = [s for s in self.segments if s.orientation == "vertical"]
        x0 = vertical[0].fixed_coord if vertical else 0.0
        return sum(s.outward_sign * (s.fixed_coord - x0) * s.length() for s in vertical)


def _require_planar(centers: PointSet) -> np.ndarray:
    if centers.dim != 2:
        raise InvalidArgumentError("exact decompositions require dim == 2")
    return centers.points


def _exposed_pieces(lo, hi, group, a, b):
    """Closed pieces of each circle's span [lo[g], hi[g]], a turn from its
    first covered angle, left after removing the open holes (a[m], b[m]) of
    group[m], in any group order.  Returns the pieces as (group, start, end)
    arrays, group first and then ascending along the span.

    Every hole lies within its span but (2 pi, 2 pi), where np.remainder
    rounds a start just below 0 up to 2 pi; it is dropped before padding.
    Each padded row is closed by hi, which no kept start reaches, and sorted
    by start.  The sort need not be stable: a hole ends at or after its
    start, so of two equal starts the second never emits (the cursor has
    reached the first one's end), and the cursor after both is the same
    maximum in either order.
    """
    rows = len(lo)
    inside = (b > lo[group]) & (a < hi[group])
    group, a, b = group[inside], a[inside], b[inside]
    # slot of each hole in its row: its rank among the row's holes in a stable group order
    by_group = np.argsort(group, kind="stable")
    counts = np.bincount(group, minlength=rows)
    slot = np.empty_like(group)
    slot[by_group] = np.arange(len(group)) - (np.cumsum(counts) - counts)[group[by_group]]
    width = int(counts.max(initial=0)) + 1
    starts = np.full((rows, width), np.inf)
    ends = np.full((rows, width), -np.inf)
    starts[group, slot] = a
    ends[group, slot] = b
    starts[np.arange(rows), counts] = hi
    flat = (np.argsort(starts, axis=1) + (width * np.arange(rows))[:, None]).ravel()
    starts = starts.ravel()[flat].reshape(rows, width)
    ends = ends.ravel()[flat].reshape(rows, width)
    # the cursor before each hole and before hi: lo or the farthest end so far
    cursor = np.maximum.accumulate(np.concatenate([lo[:, None], ends[:, :-1]], axis=1), axis=1)
    emit = np.isfinite(starts) & (starts - cursor > _EPS)
    g, k = np.nonzero(emit)
    return g, cursor[g, k], starts[g, k]


def disk_union_boundary(centers: PointSet, r: float) -> ArcDecomposition:
    pts = _require_planar(centers)
    pts = pts[group_rows(pts)[0]]
    r = positive_radius(r)
    n = len(pts)
    x, y = pts[:, 0], pts[:, 1]
    arcs: list[tuple[int, float, float]] = []
    for blk in row_blocks(n):
        rows = np.arange(blk.start, blk.stop)
        dx = x - x[blk, None]
        dy = y - y[blk, None]
        dists = np.hypot(dx, dy)
        near = dists < 2.0 * r
        near[np.arange(len(rows)), rows] = False
        i, j = np.nonzero(near)
        # points of circle i strictly inside disk j: |theta - phi| < alpha
        phi = np.array(list(map(math.atan2, dy[i, j].tolist(), dx[i, j].tolist())))
        alpha = np.array(list(map(math.acos, (dists[i, j] / (2.0 * r)).tolist())))
        cut = alpha > 0.0
        i, lo, hi = i[cut], phi[cut] - alpha[cut], phi[cut] + alpha[cut]
        start = np.remainder(lo, _TWO_PI)
        end = start + (hi - lo)
        # in [0, 2*pi]: (start, end), or (start, 2*pi) and (0, end - 2*pi) where it wraps
        wraps = end > _TWO_PI
        group = np.concatenate([i, i[wraps]])
        a = np.concatenate([start, np.zeros(np.count_nonzero(wraps))])
        b = np.concatenate([np.minimum(end, _TWO_PI), end[wraps] - _TWO_PI])
        # one turn from the first covered angle, so a wrapping gap stays whole
        a0 = np.full(len(rows), np.inf)
        np.minimum.at(a0, group, a)
        a0[a0 == np.inf] = 0.0
        g, t0, t1 = _exposed_pieces(a0, a0 + _TWO_PI, group, a, b)
        arcs += zip(rows[g].tolist(), t0.tolist(), t1.tolist())
    return ArcDecomposition(arcs=tuple(arcs), radius=r, centers=pts)


def disk_union_perimeter(centers: PointSet, r: float) -> float:
    return disk_union_boundary(centers, r).perimeter()


def disk_union_area(centers: PointSet, r: float) -> float:
    return disk_union_boundary(centers, r).area()


def square_union_boundary(centers: PointSet, r: float) -> SegmentDecomposition:
    """Exposed boundary of a union of squares [c - r, c + r]^2 (see the module
    docstring): the vertical faces, then the horizontal ones, each by line and
    start.  The cover raises past its budget."""
    pts = _require_planar(centers)
    r = positive_radius(r)
    (xs, ys), slabs = _kernels.cube_cover(pts, r)
    vertical, horizontal = [], []
    before = np.zeros(len(ys) + 1, np.int8)
    for start, covered in slabs:
        # the slab's cover after the x row before it, and after an uncovered y column
        cover = np.zeros((len(covered) + 1, len(ys) + 1), np.int8)
        cover[0], cover[1:, 1:] = before, covered
        before = cover[-1]
        here, back, left, corner = cover[1:, 1:], cover[:-1, 1:], cover[1:, :-1], cover[:-1, :-1]
        # the steps in cover, and one cell back along the runs of vertical
        # faces (along y) and of horizontal ones (along x)
        for runs, step, prev, along_x in (
            (vertical, here - back, left - corner, False),
            (horizontal, here - left, back - corner, True),
        ):
            k = np.flatnonzero(step != prev)
            now, was = step.ravel()[k], prev.ravel()[k]
            x, y = np.divmod(k, step.shape[1])
            line, at = (y, x + start) if along_x else (x + start, y)
            # where runs open, their outward signs, and where runs close
            opens, closes = now != 0, was != 0
            runs.append((line[opens], at[opens], -now[opens], line[closes], at[closes]))
    segments = []
    for orientation, runs, lines, spans in (("vertical", vertical, xs, ys), ("horizontal", horizontal, ys, xs)):
        # a line's k-th run start pairs with its k-th run end
        line, at, sign, end_line, end = map(np.concatenate, zip(*runs))
        first, last = np.lexsort((at, line)), np.lexsort((end, end_line))
        segments += map(BoundarySegment, [orientation] * len(first), lines[line[first]].tolist(),
                        spans[at[first]].tolist(), spans[end[last]].tolist(), sign[first].tolist())
    return SegmentDecomposition(segments=tuple(segments))


def square_union_perimeter(centers: PointSet, r: float) -> float:
    return square_union_boundary(centers, r).perimeter()


def square_union_area(centers: PointSet, r: float) -> float:
    return square_union_boundary(centers, r).area()


def union_boundary(
    centers: PointSet, r: float, norm: NormKind
) -> ArcDecomposition | SegmentDecomposition:
    """Exact boundary of the r-parallel set of ``centers`` in the plane: the
    exposed arcs for L2 (disks), the exposed segments for L-inf (squares).
    Both decompositions give ``perimeter()`` and ``area()``."""
    if norm is NormKind.L2:
        return disk_union_boundary(centers, r)
    return square_union_boundary(centers, r)


# ---------------------------------------------------------------------------
# grid oracle (validation only): marching squares on the distance field
# ---------------------------------------------------------------------------

_MS_POLYS = {
    1: ((("A", "ab", "da"),), (("ab", "da"),)),
    2: ((("ab", "B", "bc"),), (("ab", "bc"),)),
    3: ((("A", "B", "bc", "da"),), (("bc", "da"),)),
    4: ((("bc", "C", "cd"),), (("bc", "cd"),)),
    6: ((("ab", "B", "C", "cd"),), (("ab", "cd"),)),
    7: ((("A", "B", "C", "cd", "da"),), (("cd", "da"),)),
    8: ((("D", "da", "cd"),), (("da", "cd"),)),
    9: ((("A", "ab", "cd", "D"),), (("ab", "cd"),)),
    11: ((("A", "B", "bc", "cd", "D"),), (("bc", "cd"),)),
    12: ((("da", "bc", "C", "D"),), (("da", "bc"),)),
    13: ((("A", "ab", "bc", "C", "D"),), (("ab", "bc"),)),
    14: ((("ab", "B", "C", "D", "da"),), (("ab", "da"),)),
}
_MS_AMBIGUOUS = {
    5: (
        ((("A", "ab", "bc", "C", "cd", "da"),), (("ab", "bc"), ("cd", "da"))),
        ((("A", "ab", "da"), ("bc", "C", "cd")), (("ab", "da"), ("bc", "cd"))),
    ),
    10: (
        ((("ab", "B", "bc", "cd", "D", "da"),), (("bc", "cd"), ("da", "ab"))),
        ((("ab", "B", "bc"), ("D", "da", "cd")), (("ab", "bc"), ("da", "cd"))),
    ),
}


_BAND_BLOCK = 16  # cells per side of a narrow-band block


def _safe_ratio(num, den):
    out = np.where(np.abs(den) > 0.0, num / np.where(den == 0.0, 1.0, den), 0.5)
    return np.clip(out, 0.0, 1.0)


def _marching_cells(a, b, c, d, case, hx, hy):
    """Area (unit-cell units) and contour length (scaled) of mixed cells."""
    zeros = np.zeros_like(a)
    ones = np.ones_like(a)
    coords = {
        "A": (zeros, zeros),
        "B": (ones, zeros),
        "C": (ones, ones),
        "D": (zeros, ones),
        "ab": (_safe_ratio(a, a - b), zeros),
        "bc": (ones, _safe_ratio(b, b - c)),
        "cd": (1.0 - _safe_ratio(c, c - d), ones),
        "da": (zeros, 1.0 - _safe_ratio(d, d - a)),
    }

    def poly_area(names, mask):
        acc = np.zeros(mask.sum())
        xs = [coords[nm][0][mask] for nm in names]
        ys = [coords[nm][1][mask] for nm in names]
        for k in range(len(names)):
            k2 = (k + 1) % len(names)
            acc += xs[k] * ys[k2] - xs[k2] * ys[k]
        return np.abs(acc) * 0.5

    def seg_length(pair, mask):
        (x1, y1), (x2, y2) = coords[pair[0]], coords[pair[1]]
        dx = (x2[mask] - x1[mask]) * hx
        dy = (y2[mask] - y1[mask]) * hy
        return np.sqrt(dx * dx + dy * dy)

    area = 0.0
    length = 0.0
    center_inside = (a + b + c + d) <= 0.0
    for case_id in range(1, 15):
        base_mask = case == case_id
        if not base_mask.any():
            continue
        if case_id in _MS_AMBIGUOUS:
            variants = (
                (base_mask & center_inside, _MS_AMBIGUOUS[case_id][0]),
                (base_mask & ~center_inside, _MS_AMBIGUOUS[case_id][1]),
            )
        else:
            variants = ((base_mask, _MS_POLYS[case_id]),)
        for mask, (polys, segs) in variants:
            if not mask.any():
                continue
            for names in polys:
                area += poly_area(names, mask).sum()
            for pair in segs:
                length += seg_length(pair, mask).sum()
    return area, length


def rasterized_measures(
    centers: PointSet, r: float, norm: NormKind = NormKind.L2, grid: int = 4096
) -> tuple[float, float]:
    """(area, perimeter) of the union read off a grid of the distance field.

    Validation oracle only.  The field d(x, centres) - r is sampled on a
    grid x grid lattice over the tight bounding box plus a 2.5-pixel guard
    ring (so extreme boundary points never sit exactly on a grid line), then
    area and contour length come from linear-interpolation marching squares.

    Only a narrow band of the lattice is sampled exactly.  The cells are cut
    into blocks of _BAND_BLOCK x _BAND_BLOCK, and the field is evaluated once
    at each block's centre.  It is 1-Lipschitz in L2 for both norms (the L-inf
    distance is 1-Lipschitz in L-inf, and |.|inf <= |.|2), so when |f(centre)|
    exceeds the distance to the block's farthest node, with a relative guard
    for rounding, every node of the block has the sign of f(centre) and every
    cell of the block is full or empty.  The nodes of the remaining blocks are
    evaluated exactly, at the same linspace coordinates as a dense sampling,
    and the mixed cells are passed on in row-major lattice order, so the
    result is bit-for-bit the one the whole lattice would give.
    """
    pts = _require_planar(centers)
    r = positive_radius(r)
    lo = pts.min(axis=0) - r
    hi = pts.max(axis=0) + r
    pad = 2.5 * (hi - lo + 1e-9) / grid
    lo = lo - pad
    hi = hi + pad
    xs = np.linspace(lo[0], hi[0], grid)
    ys = np.linspace(lo[1], hi[1], grid)
    hx = xs[1] - xs[0]
    hy = ys[1] - ys[0]
    linf = norm is NormKind.LINF
    cells = grid - 1
    # block k holds cells first[k] .. last[k] - 1 and nodes first[k] .. last[k]
    first = np.arange(0, cells, _BAND_BLOCK)
    last = np.minimum(first + _BAND_BLOCK, cells)
    span = last - first

    # coarse pass: skip the blocks the zero level set cannot reach
    cx = 0.5 * (xs[first] + xs[last])
    cy = 0.5 * (ys[first] + ys[last])
    reach = np.hypot(
        np.maximum(cx - xs[first], xs[last] - cx)[None, :],
        np.maximum(cy - ys[first], ys[last] - cy)[:, None],
    )
    gx, gy = np.meshgrid(cx, cy, indexing="xy")
    f_ref = _kernels.min_dist(np.column_stack([gx.ravel(), gy.ravel()]), pts, linf)
    f_ref = f_ref.reshape(gx.shape) - r
    band = np.abs(f_ref) <= reach * (1.0 + 1e-9) + 1e-12
    full_cells = int(np.outer(span, span)[~band & (f_ref <= 0.0)].sum())

    # exact pass: every node of every band block, one square tile per block
    by, bx = np.nonzero(band)
    local = np.arange(_BAND_BLOCK + 1)
    node_y = ys[np.minimum(first[by][:, None] + local, grid - 1)]
    node_x = xs[np.minimum(first[bx][:, None] + local, grid - 1)]
    tile = (len(by), _BAND_BLOCK + 1, _BAND_BLOCK + 1)
    samples = np.column_stack([
        np.broadcast_to(node_x[:, None, :], tile).ravel(),
        np.broadcast_to(node_y[:, :, None], tile).ravel(),
    ])
    field = (_kernels.min_dist(samples, pts, linf) - r).reshape(tile)

    a = field[:, :-1, :-1]
    b = field[:, :-1, 1:]
    c = field[:, 1:, 1:]
    d = field[:, 1:, :-1]
    case = (
        (a <= 0.0).astype(np.int8)
        + 2 * (b <= 0.0).astype(np.int8)
        + 4 * (c <= 0.0).astype(np.int8)
        + 8 * (d <= 0.0).astype(np.int8)
    )
    # cells of a partial last block row or column repeat the lattice's edge
    # nodes, which lie in the guard ring outside the union: they stay empty
    full_cells += int((case == 15).sum())
    t, cj, ci = np.nonzero((case > 0) & (case < 15))
    # row-major lattice order, so the sums below run in the dense order
    order = np.argsort((first[by[t]] + cj) * cells + first[bx[t]] + ci)
    idx = (t[order], cj[order], ci[order])
    unit_area, length = _marching_cells(
        a[idx], b[idx], c[idx], d[idx], case[idx], hx, hy
    )
    area = (full_cells + unit_area) * hx * hy
    return float(area), float(length)
