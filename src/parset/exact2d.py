"""Exact perimeter and area of unions of congruent disks and axis-aligned
squares in the plane, and an exact oracle that checks them.

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
drops out, and a disk union far from the origin keeps its digits.  A square
union does not: the cover rounds its faces c +- r at their absolute
position, which mc.union_measures' area allowance covers.  For squares,
integral(x dy) reduces to the vertical segments, each at a fixed x with its
outward sign.  Both sums run over Python floats in segment order, not
through numpy's pairwise sum, so their bits do not depend on how the pieces
were computed.  ``mc.union_measures`` takes every planar area from them.

The oracle ``oracle_measures`` reaches both measures by other routes and
shares no code or formula with the decompositions, so that it can validate
them; it takes coordinates relative to the first centre too.  Disk
perimeter: each circle is cut at the points where it meets the other circles
(the two centres' midpoint plus or minus h times the unit perpendicular),
ordered by numpy ``arctan2``, and a sub-arc counts when its midpoint lies in
no other disk.  Disk area: the integral over y of the length of the union of
the chords, by Gauss-Legendre on each panel between events (disk tops and
bottoms, crossing heights).  Chord ends cross only at circle crossings, so
inside a panel no two of them swap: the chords that span the panel, sorted
by left end at its midpoint and split where a left end passes the reach of
those before it, fall into the same components at every node.  So a
component's length is (x_R + h_R(y)) - (x_L - h_L(y)), with L its opening
chord and R its farthest-reaching one, a sum of square roots, and the
substitution y = a + (b - a) sin^2(pi s / 2) makes their ends analytic.
Only those two chords of each component are evaluated at the nodes.
Squares: the face lines cut the plane into cells, and a cell is covered when
its midpoint is; the perimeter counts the cell edges between a covered and
an uncovered cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

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
        phi = np.fromiter(map(math.atan2, dy[i, j].tolist(), dx[i, j].tolist()), float, len(i))
        alpha = np.fromiter(map(math.acos, (dists[i, j] / (2.0 * r)).tolist()), float, len(i))
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
# exact oracle (validation only): shares no code with the decompositions
# ---------------------------------------------------------------------------

_GL_NODES = 96  # 48 erred by up to 2.9e-11 on the check's unions (seeds 0-99), 96 by 4.6e-14
_PANEL_CELLS = 1 << 14  # cells per block: panel midpoints x disks, then nodes x components


def oracle_measures(centers: PointSet, r: float, norm: NormKind) -> tuple[float, float]:
    """(area, perimeter) of the union by the oracle routes of the module
    docstring.  Its temporaries grow with the cube of the number of centres:
    it is meant for the small unions that validate the decompositions."""
    pts = _require_planar(centers)
    r = positive_radius(r)
    c = np.unique(pts - pts[0], axis=0)
    if norm is NormKind.LINF:
        return _oracle_squares(c, r)
    return _oracle_disk_area(c, r), _oracle_disk_perimeter(c, r)


def _circle_crossings(c, r):
    """(i, p): the points p, relative to c[i], where circle i meets another."""
    d = c[None, :, :] - c[:, None, :]
    dist = np.hypot(d[..., 0], d[..., 1])
    i, j = np.nonzero((dist > 0.0) & (dist <= 2.0 * r))
    d, dist = d[i, j], dist[i, j]
    h = np.sqrt(np.maximum(r * r - 0.25 * dist * dist, 0.0))
    # midpoint +- h times the unit perpendicular
    off = h[:, None] * np.column_stack([-d[:, 1], d[:, 0]]) / dist[:, None]
    return np.concatenate([i, i]), np.concatenate([0.5 * d + off, 0.5 * d - off])


def _oracle_disk_perimeter(c, r):
    """Sub-arcs between crossings, each kept when its midpoint lies in no other disk."""
    owner, p = _circle_crossings(c, r)
    theta = np.arctan2(p[:, 1], p[:, 0])
    order = np.lexsort((theta, owner))
    owner, theta = owner[order], theta[order]
    change = np.flatnonzero(np.diff(owner, prepend=-1, append=-1))
    first, last = change[:-1], change[1:] - 1
    nxt = np.roll(theta, -1)
    nxt[last] = theta[first] + _TWO_PI
    mid = 0.5 * (theta + nxt)
    probe = c[owner] + r * np.column_stack([np.cos(mid), np.sin(mid)])
    gap = np.hypot(probe[:, None, 0] - c[None, :, 0], probe[:, None, 1] - c[None, :, 1])
    gap[np.arange(len(owner)), owner] = np.inf
    exposed = (gap >= r).all(axis=1)
    whole = len(c) - len(first)  # circles no other one meets
    return float(r * ((nxt - theta)[exposed].sum() + whole * _TWO_PI))


@cache
def _panel_rule():
    """(u, du): the Gauss-Legendre nodes of a panel under the sin^2
    substitution, as fractions of its height, and their weights."""
    from numpy.polynomial.legendre import leggauss

    s, w = leggauss(_GL_NODES)
    s = 0.5 * (s + 1.0)
    u = np.sin(0.5 * math.pi * s) ** 2
    du = 0.25 * math.pi * np.sin(math.pi * s) * w  # dy / (b - a), with ds = 1/2
    return u, du


def _chord_components(c, r, mid, first_panel):
    """(panel, left, right) for each component of the union of the chords at
    the heights mid, panels numbered from first_panel, each panel's from left
    to right: the disk whose chord opens the component and the one whose
    chord reaches farthest."""
    dy = mid[:, None] - c[:, 1]
    half = np.sqrt(np.maximum(r * r - dy * dy, 0.0))
    across = np.abs(dy) < r
    lo = np.where(across, c[:, 0] - half, np.inf)
    order = lo.argsort(axis=1)
    lo = np.take_along_axis(lo, order, axis=1)
    hi = np.take_along_axis(np.where(across, c[:, 0] + half, -np.inf), order, axis=1)
    across = lo < np.inf
    reach = np.maximum.accumulate(hi, axis=1)
    # a chord opens a component when it starts past the reach of those before it
    opens = across.copy()
    opens[:, 1:] &= lo[:, 1:] > reach[:, :-1]
    closes = across & np.concatenate([opens[:, 1:] | ~across[:, 1:], np.ones((len(mid), 1), bool)], axis=1)
    # the last chord so far to raise the reach is the farthest reaching one
    farthest = np.maximum.accumulate(np.where(hi == reach, np.arange(len(c)), 0), axis=1)
    panel, first = np.nonzero(opens)
    last_panel, last = np.nonzero(closes)
    return panel + first_panel, order[panel, first], order[last_panel, farthest[last_panel, last]]


def _oracle_disk_area(c, r):
    """The chord-union integral of the module docstring: each panel's chord
    structure is read once, at its midpoint, in blocks of panels; then the
    components' opening and farthest chords are integrated, in blocks of
    components."""
    owner, p = _circle_crossings(c, r)
    cuts = np.unique(np.concatenate([c[:, 1] - r, c[:, 1] + r, c[owner, 1] + p[:, 1]]))
    mid, height = 0.5 * (cuts[:-1] + cuts[1:]), np.diff(cuts)
    step = max(1, _PANEL_CELLS // len(c))
    blocks = (_chord_components(c, r, mid[k : k + step], k) for k in range(0, len(mid), step))
    panel, left, right = map(np.concatenate, zip(*blocks))
    u, du = _panel_rule()
    total = 0.0
    step = max(1, _PANEL_CELLS // _GL_NODES)
    for k in range(0, len(panel), step):
        q, i, j = panel[k : k + step], left[k : k + step], right[k : k + step]
        y = cuts[q, None] + height[q, None] * u
        h = np.sqrt(np.maximum(r * r - (y - c[i, 1, None]) ** 2, 0.0))
        h += np.sqrt(np.maximum(r * r - (y - c[j, 1, None]) ** 2, 0.0))
        # a component's chord union is (x_j + h_j) - (x_i - h_i) long
        total += float(height[q] @ (c[j, 0] - c[i, 0] + h @ du))
    return total


def _oracle_squares(c, r):
    """Cells of the grid of face lines, each covered when its midpoint is."""
    xs = np.unique(np.concatenate([c[:, 0] - r, c[:, 0] + r]))
    ys = np.unique(np.concatenate([c[:, 1] - r, c[:, 1] + r]))
    in_x = np.abs(0.5 * (xs[:-1] + xs[1:])[:, None] - c[:, 0]) < r
    in_y = np.abs(0.5 * (ys[:-1] + ys[1:])[:, None] - c[:, 1]) < r
    covered = np.pad(in_x @ in_y.T, 1)
    dx, dy = np.diff(xs), np.diff(ys)
    # a cell edge between a covered and an uncovered cell is boundary
    across_x = covered[1:, 1:-1] != covered[:-1, 1:-1]
    across_y = covered[1:-1, 1:] != covered[1:-1, :-1]
    perimeter = (across_x @ dy).sum() + (dx @ across_y).sum()
    return float(dx @ covered[1:-1, 1:-1] @ dy), float(perimeter)
