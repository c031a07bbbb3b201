import csv
import dataclasses
import json
import math
import tracemalloc
from bisect import bisect_left
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import mpmath as mp

from parset import (
    NormKind,
    PointSet,
    disk_union_area,
    disk_union_boundary,
    disk_union_perimeter,
    square_union_area,
    square_union_boundary,
    square_union_perimeter,
)
from parset import Verdict, _kernels, exact2d, geometry, suite
from parset._rng import uniform_in_ball, uniform_in_cube
from parset.cli import main
from parset.exact2d import oracle_measures
from parset.geometry import positive_radius
from test_cli import strict_loads


def equality_config():
    angles = [0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0]
    return PointSet([[0.0, 0.0]] + [[math.cos(a), math.sin(a)] for a in angles])


def test_single_disk():
    pts = PointSet([[0.0, 0.0]])
    decomp = disk_union_boundary(pts, 1.0)
    assert len(decomp.arcs) == 1
    idx, t0, t1 = decomp.arcs[0]
    assert (t0, t1) == (0.0, 2.0 * math.pi)
    assert decomp.perimeter() == pytest.approx(2.0 * math.pi)
    assert decomp.area() == pytest.approx(math.pi)
    assert disk_union_perimeter(PointSet([[0.0, 0.0]]), 2.0) == pytest.approx(4 * math.pi)


def test_tangent_pair():
    pts = PointSet([[0.0, 0.0], [2.0, 0.0]])
    assert disk_union_perimeter(pts, 1.0) == pytest.approx(4.0 * math.pi)


def test_disjoint_pair_additive():
    pts = PointSet([[0.0, 0.0], [10.0, 0.0]])
    assert disk_union_perimeter(pts, 1.0) == pytest.approx(4.0 * math.pi)
    far3 = PointSet([[0.0, 0.0], [10.0, 0.0], [20.0, 5.0]])
    assert disk_union_area(far3, 1.0) == pytest.approx(3.0 * math.pi)


def test_equality_configuration():
    decomp = disk_union_boundary(equality_config(), 1.0)
    assert decomp.perimeter() == pytest.approx(4.0 * math.pi, abs=1e-9)
    assert decomp.arc_length_of(0) == 0.0


def test_coincident_centers_dedup():
    pts = PointSet([[0.0, 0.0], [0.0, 0.0], [1e-13, 0.0]])
    assert disk_union_perimeter(pts, 1.0) == pytest.approx(2.0 * math.pi)


def test_two_disk_lens_area():
    # closed-form union area: 2*pi*r^2 - lens, centres one radius apart
    lens = 2.0 * math.acos(0.5) - 0.5 * math.sqrt(3.0)
    want = 2.0 * math.pi - lens
    got = disk_union_area(PointSet([[0.0, 0.0], [1.0, 0.0]]), 1.0)
    assert got == pytest.approx(want, abs=1e-12)


def test_disk_area_monte_carlo_oracle():
    rng = np.random.default_rng(7)
    pts = PointSet(rng.uniform(-1, 1, (6, 2)))
    r = 0.9
    exact = disk_union_area(pts, r)
    lo = pts.points.min(axis=0) - r
    hi = pts.points.max(axis=0) + r
    n = 400_000
    samples = lo + rng.random((n, 2)) * (hi - lo)
    d = np.sqrt(((samples[:, None, :] - pts.points[None, :, :]) ** 2).sum(axis=2)).min(axis=1)
    p = (d <= r).mean()
    box = np.prod(hi - lo)
    se = box * math.sqrt(p * (1 - p) / n)
    assert abs(exact - box * p) <= 4.0 * se


def test_disk_union_with_hole():
    # ring of disks enclosing a hole: the signed-arc sums must meet the oracle
    angles = np.linspace(0, 2 * math.pi, 8, endpoint=False)
    pts = PointSet(np.stack([1.5 * np.cos(angles), 1.5 * np.sin(angles)], axis=1))
    area, perimeter = oracle_measures(pts, 1.0, NormKind.L2)
    assert disk_union_area(pts, 1.0) == pytest.approx(area, rel=1e-11)
    assert disk_union_perimeter(pts, 1.0) == pytest.approx(perimeter, rel=1e-12)
    # the origin really is a hole: it sits further than r from every centre
    assert np.sqrt((pts.points**2).sum(axis=1)).min() - 1.0 > 0.0


def test_perimeter_bound_random_sweep():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = rng.integers(1, 51)
        raw = rng.standard_normal((n, 2))
        raw /= np.maximum(np.linalg.norm(raw, axis=1, keepdims=True), 1e-12)
        raw *= rng.random((n, 1)) ** 0.5
        pts = PointSet(np.vstack([[0.0, 0.0], raw]))
        assert disk_union_perimeter(pts, 1.0) <= 4.0 * math.pi + 1e-9


@pytest.mark.parametrize("r", [0.5, 2.0])
def test_perimeter_bound_scales_with_radius(r):
    # centres confined to B(x0; r) keep the perimeter within 4*pi*r
    rng = np.random.default_rng(37)
    for _ in range(10):
        raw = rng.standard_normal((15, 2))
        raw /= np.maximum(np.linalg.norm(raw, axis=1, keepdims=True), 1e-12)
        raw *= (rng.random((15, 1)) ** 0.5) * r
        pts = PointSet(np.vstack([[0.0, 0.0], raw]))
        assert disk_union_perimeter(pts, r) <= 4.0 * math.pi * r + 1e-9


def test_subadditivity_and_monotonicity():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1, 1, (8, 2))
    r = 0.7
    union_p = disk_union_perimeter(PointSet(pts), r)
    union_a = disk_union_area(PointSet(pts), r)
    assert union_p <= 8 * 2 * math.pi * r + 1e-12
    assert union_a <= 8 * math.pi * r * r + 1e-12
    grown = disk_union_area(PointSet(np.vstack([pts, [[5.0, 5.0]]])), r)
    assert grown >= union_a - 1e-12


# -- squares ----------------------------------------------------------------


@st.composite
def _dyadic_union(draw):
    """Centres and radius on a 1/8 grid, a translation by a grid vector, a
    permutation and duplicates: every transformed coordinate is exact, so
    tangencies and triple points survive the transformation unchanged."""
    eighths = st.integers(-16, 16).map(lambda k: k / 8)
    centers = np.array(draw(st.lists(st.tuples(eighths, eighths), min_size=1, max_size=8)))
    r = draw(st.integers(1, 12)) / 8
    shift = np.array(draw(st.tuples(st.integers(-64, 64), st.integers(-64, 64)))) / 8
    order = draw(st.permutations(range(len(centers))))
    dups = draw(st.lists(st.integers(0, len(centers) - 1), max_size=4))
    return centers, r, shift, np.asarray(order), np.asarray(dups, dtype=np.int64)


@given(_dyadic_union())
@settings(max_examples=150, deadline=None)
def test_exact_measures_invariant(case):
    centers, r, shift, order, dups = case
    variants = {
        "translated": centers + shift,
        "permuted": centers[order],
        "duplicated": np.concatenate([centers, centers[dups]]),
    }
    for measure in (disk_union_perimeter, disk_union_area, square_union_perimeter, square_union_area):
        want = measure(PointSet(centers), r)
        for name, moved in variants.items():
            assert measure(PointSet(moved), r) == pytest.approx(want, rel=1e-12), (
                measure.__name__,
                name,
            )


def test_single_square():
    pts = PointSet([[0.0, 0.0]])
    decomp = square_union_boundary(pts, 1.0)
    assert len(decomp.segments) == 4
    assert decomp.perimeter() == pytest.approx(8.0)
    assert square_union_perimeter(pts, 0.5) == pytest.approx(4.0)
    assert square_union_area(pts, 1.0) == pytest.approx(4.0)


def test_two_squares_shared_edge():
    pts = PointSet([[0.0, 0.0], [2.0, 0.0]])
    assert square_union_perimeter(pts, 1.0) == pytest.approx(12.0)


def test_two_squares_overlapping():
    pts = PointSet([[0.0, 0.0], [1.0, 0.0]])
    # union is the rectangle [-1,2] x [-1,1]
    assert square_union_perimeter(pts, 1.0) == pytest.approx(10.0)
    assert square_union_area(pts, 1.0) == pytest.approx(6.0)


def test_collinear_squares_give_four_maximal_runs(tmp_path):
    # the rectangle [-1, 2] x [-1, 1]: one segment per side, in the order
    # vertical then horizontal, each by line and start; the CLI writes the same rows
    pts = PointSet([[0.0, 0.0], [1.0, 0.0]])
    want = [
        ("vertical", -1.0, -1.0, 1.0, -1),
        ("vertical", 2.0, -1.0, 1.0, 1),
        ("horizontal", -1.0, -1.0, 2.0, -1),
        ("horizontal", 1.0, -1.0, 2.0, 1),
    ]
    assert [dataclasses.astuple(s) for s in square_union_boundary(pts, 1.0).segments] == want
    path, boundary = tmp_path / "centers.json", tmp_path / "segments.csv"
    path.write_text(json.dumps(pts.points.tolist()))
    argv = ["exact2d", "--shape", "square", "--centers", str(path), "--radius", "1", "--boundary-out", str(boundary)]
    assert main(argv + ["--out", str(tmp_path / "res.json")]) == 0
    rows = list(csv.DictReader(boundary.open()))
    assert [(w["orientation"], float(w["fixed_coord"]), float(w["span_start"]), float(w["span_end"]),
             int(w["outward_sign"])) for w in rows] == want


def test_coincident_squares():
    pts = PointSet([[0.5, 0.5], [0.5, 0.5]])
    assert square_union_perimeter(pts, 0.75) == pytest.approx(8 * 0.75)


def test_square_union_area_inclusion_exclusion():
    # overlap rectangle of two squares, done by hand
    pts = PointSet([[0.0, 0.0], [0.8, 0.6]])
    r = 1.0
    overlap = (2 * r - 0.8) * (2 * r - 0.6)
    want = 2 * (2 * r) ** 2 - overlap
    assert square_union_area(pts, r) == pytest.approx(want, abs=1e-12)


def test_square_perimeter_bound_random_sweep():
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = rng.integers(1, 31)
        pts = PointSet(np.vstack([[0.0, 0.0], rng.uniform(-1, 1, (n, 2))]))
        assert square_union_perimeter(pts, 1.0) <= 16.0 + 1e-9


def test_axis_line_crossings():
    # any horizontal line meets the boundary of a confined union at most twice
    rng = np.random.default_rng(17)
    pts = PointSet(np.vstack([[0.0, 0.0], rng.uniform(-1, 1, (12, 2))]))
    decomp = square_union_boundary(pts, 1.0)
    vertical = [s for s in decomp.segments if s.orientation == "vertical"]
    for y0 in rng.uniform(-1.9, 1.9, 200):
        crossings = sum(1 for s in vertical if s.span_start < y0 < s.span_end)
        assert crossings <= 2


def test_segment_interiors_disjoint():
    rng = np.random.default_rng(23)
    pts = PointSet(rng.uniform(-1, 1, (10, 2)))
    decomp = square_union_boundary(pts, 0.8)
    horiz = [s for s in decomp.segments if s.orientation == "horizontal"]
    by_line = {}
    for s in horiz:
        by_line.setdefault(round(s.fixed_coord, 9), []).append((s.span_start, s.span_end))
    for spans in by_line.values():
        spans.sort()
        for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
            assert b0 >= a1 - 1e-9


# -- the exact oracle ------------------------------------------------------------


# The grid oracle these two once checked is gone; the names now hold the
# closed forms of one disk and one square under the exact oracle.
def test_raster_oracle_disk():
    r = 1.5
    area, perimeter = oracle_measures(PointSet([[0.3, -0.2]]), r, NormKind.L2)
    assert area == pytest.approx(math.pi * r * r, rel=1e-14)
    assert perimeter == pytest.approx(2.0 * math.pi * r, rel=1e-15)


def test_raster_oracle_square():
    assert oracle_measures(PointSet([[0.3, -0.2]]), 0.9, NormKind.LINF) == pytest.approx((3.24, 7.2), rel=1e-15)


def test_oracle_closed_forms():
    # two unit disks 1.2 apart: each loses the arc of half-angle acos(0.6) to the other
    d = 1.2
    lens = 2.0 * math.acos(d / 2.0) - 0.5 * d * math.sqrt(4.0 - d * d)
    area, perimeter = oracle_measures(PointSet([[0.0, 0.0], [0.72, 0.96]]), 1.0, NormKind.L2)
    assert area == pytest.approx(2.0 * math.pi - lens, rel=1e-14)
    assert perimeter == pytest.approx(4.0 * (math.pi - math.acos(d / 2.0)), rel=1e-15)


@pytest.mark.parametrize(
    "name, centers, norm, want",
    [
        ("tangent disks", [[0.0, 0.0], [2.0, 0.0]], NormKind.L2, (2.0 * math.pi, 4.0 * math.pi)),
        ("coincident disks", [[0.5, 0.5], [0.5, 0.5], [3.5, 0.5]], NormKind.L2, (2.0 * math.pi, 4.0 * math.pi)),
        ("squares sharing a face", [[0.0, 0.0], [2.0, 0.0]], NormKind.LINF, (8.0, 12.0)),
        ("squares sharing a corner", [[0.0, 0.0], [2.0, 2.0]], NormKind.LINF, (8.0, 16.0)),
        ("coincident squares", [[0.5, 0.5], [0.5, 0.5]], NormKind.LINF, (4.0, 8.0)),
    ],
)
def test_oracle_edge_cases(name, centers, norm, want):
    assert oracle_measures(PointSet(centers), 1.0, norm) == pytest.approx(want, rel=1e-14), name


def test_oracle_three_circles_through_one_point():
    # unit circles about three points at distance 1 from the origin all pass through it
    angles = [0.3, 2.0, 4.1]
    pts = PointSet([[math.cos(a), math.sin(a)] for a in angles])
    area, perimeter = oracle_measures(pts, 1.0, NormKind.L2)
    assert area == pytest.approx(disk_union_area(pts, 1.0), rel=1e-12)
    assert perimeter == pytest.approx(disk_union_perimeter(pts, 1.0), rel=1e-12)


@pytest.mark.parametrize("offset", [1e6, 1e8])
def test_oracle_far_from_the_origin(offset):
    # centres on a 1/64 grid and r = 0.75, so the moved union is the same set
    rng = np.random.default_rng(41)
    centers = np.round(rng.uniform(-1, 1, (12, 2)) * 64) / 64
    for norm in (NormKind.L2, NormKind.LINF):
        decomp = exact2d.union_boundary(PointSet(centers), 0.75, norm)
        area, perimeter = oracle_measures(PointSet(centers + offset), 0.75, norm)
        assert area == pytest.approx(decomp.area(), rel=1e-12), norm
        assert perimeter == pytest.approx(decomp.perimeter(), rel=1e-12), norm


def test_oracle_area_against_mpmath():
    # tanh-sinh at 30 digits over the same chord union, split at the same events
    centers = [[0.0, 0.0], [1.1, 0.3], [0.4, -0.9]]
    with mp.workdps(30):
        r = mp.mpf(1)
        c = [(mp.mpf(x), mp.mpf(y)) for x, y in centers]

        def chord_union(y):
            half = [(x, mp.sqrt(r * r - (y - cy) ** 2)) for x, cy in c if abs(y - cy) < r]
            total, reach = mp.mpf(0), -mp.inf
            for lo, hi in sorted((x - h, x + h) for x, h in half):
                total += max(hi - max(lo, reach), 0)
                reach = max(reach, hi)
            return total

        # disk tops and bottoms, and the heights where two circles cross
        cuts = [cy + s * r for _, cy in c for s in (-1, 1)]
        for (x0, y0), (x1, y1) in [(c[0], c[1]), (c[0], c[2]), (c[1], c[2])]:
            d = mp.sqrt((x1 - x0) ** 2 + (y1 - y0) ** 2)
            h = mp.sqrt(r * r - d * d / 4)
            cuts += [(y0 + y1) / 2 + s * h * (x1 - x0) / d for s in (-1, 1)]
        want = float(mp.quad(chord_union, sorted(cuts)))
    area, _ = oracle_measures(PointSet(centers), 1.0, NormKind.L2)
    assert area == pytest.approx(want, rel=1e-14)


def per_node_chord_union_area(centers, r):
    """The oracle's disk area with the chords sorted again at every node: the
    same cuts, 96 nodes and sin^2 substitution, with nothing assumed about
    which chords bound the union between two cuts."""
    c = np.unique(centers - centers[0], axis=0)
    d = c[None, :, :] - c[:, None, :]
    dist = np.hypot(d[..., 0], d[..., 1])
    i, j = np.nonzero((dist > 0.0) & (dist <= 2.0 * r))
    h = np.sqrt(np.maximum(r * r - 0.25 * dist[i, j] ** 2, 0.0))
    mid, rise = c[i, 1] + 0.5 * d[i, j, 1], h * d[i, j, 0] / dist[i, j]
    cuts = np.unique(np.concatenate([c[:, 1] - r, c[:, 1] + r, mid - rise, mid + rise]))
    s, w = np.polynomial.legendre.leggauss(96)
    s = 0.5 * (s + 1.0)
    u = np.sin(0.5 * math.pi * s) ** 2
    du = 0.25 * math.pi * np.sin(math.pi * s) * w
    a, b = cuts[:-1], cuts[1:]
    y = (a[:, None] + (b - a)[:, None] * u).reshape(-1, 1)
    half = np.sqrt(np.maximum(r * r - (y - c[:, 1]) ** 2, 0.0))
    lo, hi = c[:, 0] - half, c[:, 0] + half
    order = np.argsort(lo, axis=1)
    lo, hi = np.take_along_axis(lo, order, axis=1), np.take_along_axis(hi, order, axis=1)
    reach = np.maximum.accumulate(hi, axis=1)
    lo[:, 1:] = np.maximum(lo[:, 1:], reach[:, :-1])
    length = np.maximum(hi - lo, 0.0).sum(axis=1).reshape(len(a), 96)
    return float((b - a) @ (length @ du))


def _random_disk_unions():
    # 2-20 disks, packed or spread, so that panels hold one or several components
    rng = np.random.default_rng(39)
    for k in range(40):
        n, spread = int(rng.integers(2, 21)), (1.0, 2.5, 6.0)[k % 3]
        yield pytest.param(rng.uniform(-spread, spread, (n, 2)), float(rng.uniform(0.5, 1.5)), id=f"random-{k}")


def _tangent_disk_unions():
    # chains of disks 2r apart along a slope, pairs just short of tangent (the
    # steep ones put a thin panel next to a wide one, where 48 nodes err by up to
    # 3.5e-10), a row with a second row tangent to it from above, and a
    # hexagonal patch where every neighbour is tangent
    for slope in (0.0, 0.3, 1.0, math.pi / 2):
        step = 2.0 * np.array([math.cos(slope), math.sin(slope)])
        yield pytest.param(np.arange(5)[:, None] * step, 1.0, id=f"chain-{slope:.2f}")
        for gap in (1e-4, 1e-6):
            yield pytest.param(np.array([[0.0, 0.0], (1.0 - gap) * step]), 1.0, id=f"pair-{slope:.2f}-{gap:g}")
    row = np.column_stack([np.arange(6) * 2.5, np.zeros(6)])
    yield pytest.param(np.concatenate([row, row + [1.25, 2.0]]), 1.0, id="two-rows")
    hexagon = [[2 * a + b, b * math.sqrt(3.0)] for a in range(3) for b in range(3)]
    yield pytest.param(np.array(hexagon, float), 1.0, id="hexagon")


def _three_circles_through_one_point():
    # three circles of radius r about points at distance r from p all pass through p
    rng = np.random.default_rng(40)
    for k in range(8):
        r, p = float(rng.uniform(0.5, 1.5)), rng.uniform(-1, 1, 2)
        angles = np.sort(rng.uniform(0, 2 * math.pi, 3))
        yield pytest.param(p + r * np.column_stack([np.cos(angles), np.sin(angles)]), r, id=f"through-one-point-{k}")


@pytest.mark.parametrize(
    "centers, r", [*_random_disk_unions(), *_tangent_disk_unions(), *_three_circles_through_one_point()]
)
def test_oracle_area_matches_per_node_chord_union(centers, r):
    # the chord structure read once at each panel's midpoint holds at every node
    area, _ = oracle_measures(PointSet(centers), r, NormKind.L2)
    assert area == pytest.approx(per_node_chord_union_area(centers, r), rel=1e-13)


@pytest.mark.parametrize("panel_cells", [1, 500, 1 << 14])
def test_oracle_area_blocks_do_not_matter(monkeypatch, panel_cells):
    # blocks of one panel and one component, of a few, and the default; a row of
    # disjoint disks puts twelve components in one panel
    monkeypatch.setattr(exact2d, "_PANEL_CELLS", panel_cells)
    row = np.column_stack([np.arange(12) * 2.5, np.zeros(12)])
    area, _ = oracle_measures(PointSet(row), 1.0, NormKind.L2)
    assert area == pytest.approx(12 * math.pi, rel=1e-14)
    centers = np.random.default_rng(42).uniform(-3, 3, (15, 2))
    area, _ = oracle_measures(PointSet(centers), 0.8, NormKind.L2)
    assert area == pytest.approx(per_node_chord_union_area(centers, 0.8), rel=1e-13)


# -- the check's power: perturbations within 1% and 0.1% must fail ----------------


def _rows_with(monkeypatch, mutate):
    """exact-vs-raster's rows at suite seed 25, smoke profile (a disk union,
    then a square union), with each exact decomposition passed through mutate.
    Seed 25's disk union has a shortest arc of 5.7e-4 of its perimeter."""
    exact = exact2d.union_boundary
    monkeypatch.setattr(exact2d, "union_boundary", lambda c, r, norm: mutate(exact(c, r, norm)))
    reports = suite.check_exact_vs_raster(25, suite.profile_from_samples(100))
    rows = {rep.bound_name: rep for rep in reports}
    # within the 1% and 0.1% that a grid oracle needs
    assert rows["oracle-perimeter-rel-err"].measured <= 0.01
    assert rows["oracle-area-rel-err"].measured <= 0.001
    return {name: rep.verdict for name, rep in rows.items()}


def _arcs(mutate_arcs):
    def mutate(decomp):
        if isinstance(decomp, exact2d.ArcDecomposition):
            return dataclasses.replace(decomp, arcs=mutate_arcs(list(decomp.arcs)))
        return decomp
    return mutate


def test_unperturbed_rows_pass(monkeypatch):
    rows = _rows_with(monkeypatch, lambda decomp: decomp)
    assert set(rows.values()) == {Verdict.PASS}


def test_power_arc_end_moved(monkeypatch):
    rows = _rows_with(monkeypatch, _arcs(lambda arcs: ((arcs[0][0], arcs[0][1], arcs[0][2] + 1e-9), *arcs[1:])))
    assert set(rows.values()) == {Verdict.FAIL}


def test_power_shortest_arc_dropped(monkeypatch):
    def drop(arcs):
        arcs.remove(min(arcs, key=lambda arc: arc[2] - arc[1]))
        return tuple(arcs)

    rows = _rows_with(monkeypatch, _arcs(drop))
    assert set(rows.values()) == {Verdict.FAIL}


def test_power_square_face_moved(monkeypatch):
    def move(decomp):
        if isinstance(decomp, exact2d.ArcDecomposition):
            return decomp
        faces = list(decomp.segments)
        k = max(range(len(faces)), key=lambda k: (faces[k].orientation == "vertical", faces[k].length()))
        faces[k] = dataclasses.replace(faces[k], fixed_coord=faces[k].fixed_coord + faces[k].outward_sign * 1e-9)
        return dataclasses.replace(decomp, segments=tuple(faces))

    rows = _rows_with(monkeypatch, move)
    assert rows["oracle-area-rel-err"] is Verdict.FAIL


# -- one decomposition, both areas from the boundary --------------------------

_TWO_PI = 2.0 * math.pi
_EPS = 1e-12


def reference_exposed_angular_intervals(covered: list[tuple[float, float]]):
    """Complement of a union of angular intervals on the circle.

    Output intervals start in [0, 2*pi) and may extend past 2*pi when they
    wrap through angle zero.
    """
    if not covered:
        return [(0.0, _TWO_PI)]
    parts: list[tuple[float, float]] = []
    for lo, hi in covered:
        width = hi - lo
        lo = lo % _TWO_PI
        hi = lo + width
        if hi <= _TWO_PI:
            parts.append((lo, hi))
        else:
            parts.append((lo, _TWO_PI))
            parts.append((0.0, hi - _TWO_PI))
    parts.sort()
    merged = [list(parts[0])]
    for lo, hi in parts[1:]:
        if lo <= merged[-1][1] + _EPS:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    exposed = []
    for k in range(1, len(merged)):
        if merged[k][0] - merged[k - 1][1] > _EPS:
            exposed.append((merged[k - 1][1], merged[k][0]))
    wrap = merged[0][0] + _TWO_PI - merged[-1][1]
    if wrap > _EPS:
        exposed.append((merged[-1][1], merged[0][0] + _TWO_PI))
    return exposed


def reference_disk_arcs(centers, r):
    """Exposed arcs with the circle's own merge loop above, as the exact disk
    decomposition computed them before it shared the segment routine."""
    pts = reference_dedup_preserve_order(exact2d._require_planar(centers))
    n = len(pts)
    arcs = []
    for i in range(n):
        diffs = pts - pts[i]
        dists = np.hypot(diffs[:, 0], diffs[:, 1])
        covered = []
        for j in range(n):
            if j == i:
                continue
            dij = dists[j]
            if dij >= 2.0 * r:
                continue
            phi = math.atan2(diffs[j, 1], diffs[j, 0])
            alpha = math.acos(dij / (2.0 * r))
            if alpha > 0.0:
                covered.append((phi - alpha, phi + alpha))
        for t0, t1 in reference_exposed_angular_intervals(covered):
            arcs.append((i, t0, t1))
    return tuple(arcs)


def reference_square_union_area(centers, r: float) -> float:
    """Exact area of a union of congruent axis-aligned squares (slab sweep)."""
    pts = reference_dedup_preserve_order(exact2d._require_planar(centers))
    r = positive_radius(r)
    xs = np.unique(np.concatenate([pts[:, 0] - r, pts[:, 0] + r]))
    total = 0.0
    for x0, x1 in zip(xs[:-1], xs[1:]):
        mid = 0.5 * (x0 + x1)
        active = np.abs(pts[:, 0] - mid) < r
        if not active.any():
            continue
        ys = np.stack([pts[active, 1] - r, pts[active, 1] + r], axis=1)
        ys = ys[np.argsort(ys[:, 0])]
        covered = 0.0
        cur_lo, cur_hi = ys[0]
        for lo, hi in ys[1:]:
            if lo <= cur_hi:
                cur_hi = max(cur_hi, hi)
            else:
                covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
        covered += cur_hi - cur_lo
        total += covered * (x1 - x0)
    return total


def _reference_instances():
    rng = np.random.default_rng(43)
    for k in range(40):
        n = int(rng.integers(1, 31))
        yield f"random-{k}", rng.uniform(-1, 1, (n, 2)), float(rng.uniform(0.2, 1.4))
    for k in range(20):
        n = int(rng.integers(2, 26))
        yield f"quarter-lattice-{k}", np.round(rng.uniform(-1, 1, (n, 2)) * 4) / 4, 0.25 * int(rng.integers(1, 6))
    for k in range(10):
        pts = rng.uniform(-1, 1, (int(rng.integers(1, 12)), 2))
        yield f"coincident-{k}", np.concatenate([pts, pts[rng.integers(0, len(pts), len(pts))]]), 0.7
    for k in range(20):
        # integer centres at r = 0.5: neighbouring disks and squares touch
        yield f"touching-{k}", rng.integers(-3, 4, (int(rng.integers(2, 16)), 2)).astype(float), 0.5


def test_disk_arcs_match_merge_loop_reference():
    for name, centers, r in _reference_instances():
        assert disk_union_boundary(PointSet(centers), r).arcs == reference_disk_arcs(PointSet(centers), r), name


def test_square_area_matches_slab_sweep():
    for name, centers, r in _reference_instances():
        want = reference_square_union_area(PointSet(centers), r)
        assert square_union_area(PointSet(centers), r) == pytest.approx(want, rel=1e-12, abs=0.0), name


def test_square_area_far_from_origin():
    # both methods lose digits to the shifted coordinates themselves; taking x
    # from the first vertical face must not lose more than the sweep does
    rng = np.random.default_rng(47)
    centers = rng.uniform(-1, 1, (20, 2))
    r = 0.6
    want = reference_square_union_area(PointSet(centers), r)
    far = PointSet(centers + 1e6)
    sweep_err = abs(reference_square_union_area(far, r) - want)
    assert abs(square_union_area(far, r) - want) <= sweep_err
    assert sweep_err < 1e-9 * want


def test_union_boundary_is_the_shape_decomposition():
    for name, centers, r in _reference_instances():
        pts = PointSet(centers)
        disk = exact2d.union_boundary(pts, r, NormKind.L2)
        want = disk_union_boundary(pts, r)
        assert (disk.arcs, disk.radius) == (want.arcs, want.radius), name
        np.testing.assert_array_equal(disk.centers, want.centers)
        assert exact2d.union_boundary(pts, r, NormKind.LINF) == square_union_boundary(pts, r), name


def test_cli_square_area_matches_slab_sweep(tmp_path):
    rng = np.random.default_rng(53)
    centers = rng.uniform(-1, 1, (15, 2))
    path = tmp_path / "centers.json"
    path.write_text(json.dumps(centers.tolist()))
    out = tmp_path / "res.json"
    argv = ["exact2d", "--shape", "square", "--centers", str(path), "--radius", "0.7", "--area", "--out", str(out)]
    assert main(argv) == 0
    payload = strict_loads(out.read_text())
    want = reference_square_union_area(PointSet(centers), 0.7)
    assert payload["area"] == pytest.approx(want, rel=1e-12, abs=0.0)
    assert payload["perimeter"] == square_union_perimeter(PointSet(centers), 0.7)


# -- grouped array sweep against the per-centre loops ---------------------------


def reference_dedup_preserve_order(points: np.ndarray, tol: float = _EPS) -> np.ndarray:
    """Rows in input order, dropping each row within tol of an already kept one."""
    kept = np.empty_like(points)
    k = 0
    for p in points:
        if not (np.abs(kept[:k] - p).max(axis=1) <= tol).any():
            kept[k] = p
            k += 1
    return kept[:k]


def reference_subtract_open_intervals(lo: float, hi: float, holes: list[tuple[float, float]]):
    """Closed remainder pieces of [lo, hi] after removing open intervals."""
    if not holes:
        return [(lo, hi)]
    holes = sorted((max(a, lo), min(b, hi)) for a, b in holes if b > lo and a < hi)
    pieces = []
    cursor = lo
    for a, b in holes:
        if a - cursor > _EPS:
            pieces.append((cursor, a))
        cursor = max(cursor, b)
    if hi - cursor > _EPS:
        pieces.append((cursor, hi))
    return pieces


def reference_disk_union_boundary(centers, r: float) -> exact2d.ArcDecomposition:
    pts = reference_dedup_preserve_order(exact2d._require_planar(centers))
    r = positive_radius(r)
    n = len(pts)
    arcs: list[tuple[int, float, float]] = []
    for i in range(n):
        diffs = pts - pts[i]
        dists = np.hypot(diffs[:, 0], diffs[:, 1])
        covered = []  # in [0, 2*pi], split at 2*pi where they wrap
        for j in range(n):
            if j == i:
                continue
            dij = dists[j]
            if dij >= 2.0 * r:
                continue
            # points of circle i strictly inside disk j: |theta - phi| < alpha
            phi = math.atan2(diffs[j, 1], diffs[j, 0])
            alpha = math.acos(dij / (2.0 * r))
            if alpha > 0.0:
                lo, hi = phi - alpha, phi + alpha
                start = lo % _TWO_PI
                end = start + (hi - lo)
                if end <= _TWO_PI:
                    covered.append((start, end))
                else:
                    covered += [(start, _TWO_PI), (0.0, end - _TWO_PI)]
        # one turn from the first covered angle, so a wrapping gap stays whole
        a0 = min((a for a, _ in covered), default=0.0)
        for t0, t1 in reference_subtract_open_intervals(a0, a0 + _TWO_PI, covered):
            arcs.append((i, t0, t1))
    return exact2d.ArcDecomposition(arcs=tuple(arcs), radius=r, centers=pts)


def reference_square_union_boundary(centers, r: float) -> exact2d.SegmentDecomposition:
    """Exposed boundary of a union of squares [c - r, c + r]^2.

    A point of square i's face with outward normal s is exposed iff points
    just outside it are outside every other square.  Pieces where two faces
    with the same outward normal coincide are assigned to the lower index so
    segment interiors stay pairwise disjoint.
    """
    pts = reference_dedup_preserve_order(exact2d._require_planar(centers))
    r = positive_radius(r)
    n = len(pts)
    # (normal axis, sign): top/bottom are horizontal faces, left/right vertical
    faces = ((1, +1, "horizontal"), (1, -1, "horizontal"), (0, +1, "vertical"), (0, -1, "vertical"))
    index = np.arange(n)
    segments: list[exact2d.BoundarySegment] = []
    for i in range(n):
        for axis, sign, orientation in faces:
            tang = 1 - axis
            fixed = pts[i, axis] + sign * r
            span = (pts[i, tang] - r, pts[i, tang] + r)
            cn = pts[:, axis]
            coplanar = np.abs(fixed - (cn + sign * r)) <= _EPS
            covers = (cn - r - _EPS < fixed) & (fixed < cn + r + _EPS) & ~coplanar
            hit = (covers | (coplanar & (index < i))) & (index != i)
            holes = list(zip(pts[hit, tang] - r, pts[hit, tang] + r))
            for a, b in reference_subtract_open_intervals(span[0], span[1], holes):
                segments.append(
                    exact2d.BoundarySegment(
                        orientation=orientation,
                        fixed_coord=float(fixed),
                        span_start=float(a),
                        span_end=float(b),
                        outward_sign=sign,
                    )
                )
    return exact2d.SegmentDecomposition(segments=tuple(segments))


def reference_arc_area(decomp) -> float:
    """ArcDecomposition.area() summed about the first centre, one numpy row per arc."""
    r = decomp.radius
    total = 0.0
    for i, t0, t1 in decomp.arcs:
        cx, cy = decomp.centers[i] - decomp.centers[0]
        total += (
            r * r * (t1 - t0)
            + cx * r * (math.sin(t1) - math.sin(t0))
            + cy * r * (math.cos(t0) - math.cos(t1))
        )
    return 0.5 * total


def _sweep_instances():
    yield from _reference_instances()
    g = np.random.default_rng(59)
    for k in range(12):
        # c-puzzle and b-puzzle shaped: the origin plus up to 50 confined centres
        yield f"c-puzzle-{k}", np.vstack([[0.0, 0.0], uniform_in_cube(g, int(g.integers(1, 51)), 2)]), 1.0
        yield f"b-puzzle-{k}", np.vstack([[0.0, 0.0], uniform_in_ball(g, int(g.integers(1, 51)), 2)]), 1.0
    yield "single", np.array([[0.3, -0.7]]), 0.4
    yield "all-coincident", np.full((6, 2), 0.25), 0.8
    yield "near-coincident-chain", np.array([[0.0, 0.0], [0.6e-12, 0.0], [1.2e-12, 0.0], [3.0, 0.0]]), 1.0
    yield "pair-2r-apart", np.array([[0.0, 0.0], [2.0, 0.0]]), 1.0
    yield "pair-2r-apart-diagonal", np.array([[-0.5, 0.5], [1.0, 0.5], [1.0, 2.0]]), 0.75
    yield "tiny-radius", np.array([[0.0, 0.0], [3e-13, 1e-12], [1.0, 1.0]]), 2e-13


def merged_runs(decomp) -> exact2d.SegmentDecomposition:
    """The pieces of a square decomposition merged into maximal runs: pieces
    on one line with one outward sign that touch become one segment, in
    square_union_boundary's order (vertical, then horizontal, each by line
    and start)."""
    runs = []
    for s in sorted(decomp.segments, key=lambda s: (s.orientation != "vertical", s.fixed_coord, s.span_start)):
        last = runs[-1] if runs else None
        if last and (last.orientation, last.fixed_coord, last.outward_sign, last.span_end) == (
            s.orientation, s.fixed_coord, s.outward_sign, s.span_start
        ):
            runs[-1] = dataclasses.replace(last, span_end=s.span_end)
        else:
            runs.append(s)
    return exact2d.SegmentDecomposition(segments=tuple(runs))


def fraction_square_measures(points, r) -> tuple[Fraction, Fraction]:
    """The exact area and perimeter of the union of the squares [c - r, c + r]^2
    in rationals: each square marks its cells of the compressed grid, and the
    perimeter sums the cell edges between a covered and an uncovered cell."""
    r = Fraction(r)
    boxes = [[(Fraction(c) - r, Fraction(c) + r) for c in row] for row in points.tolist()]
    xs, ys = (sorted({v for box in boxes for v in box[k]}) for k in (0, 1))
    dx, dy = ([b - a for a, b in zip(e, e[1:])] for e in (xs, ys))
    # cell (i, j) at [i + 1, j + 1], ringed by uncovered cells
    covered = np.zeros((len(xs) + 1, len(ys) + 1), bool)
    for (x0, x1), (y0, y1) in boxes:
        covered[1 + bisect_left(xs, x0) : 1 + bisect_left(xs, x1), 1 + bisect_left(ys, y0) : 1 + bisect_left(ys, y1)] = True
    area = sum(dx[i] * sum(dy[j] for j in np.flatnonzero(row)) for i, row in enumerate(covered[1:-1, 1:-1]))
    steps_x = np.nonzero(covered[1:, 1:-1] != covered[:-1, 1:-1])[1]
    steps_y = np.nonzero(covered[1:-1, 1:] != covered[1:-1, :-1])[0]
    return area, sum(dy[j] for j in steps_x) + sum(dx[i] for i in steps_y)


def square_allowances(decomp, points, r) -> tuple[float, float]:
    """Rounding allowances of a square decomposition's area and perimeter: n
    segments of total length L, each end a face c +- r within ulp(r + R) of
    its place (R: the farthest centre from the origin).  The area is
    mc._AREA_ROUNDING's 8 units of ulp(1) n L (r + R); a length is within
    ulp(r + R) + ulp(L) and the sum adds n ulp(L), so the perimeter is within
    2 n ulp(1) (r + R + L)."""
    n, length, ulp = len(decomp.segments), decomp.perimeter(), math.ulp(1.0)
    reach = r + float(np.hypot(points[:, 0], points[:, 1]).max())
    return 8.0 * n * ulp * length * reach, 2.0 * n * ulp * (reach + length)


def assert_square_measures_are_exact(decomp, points, r, label):
    area, perimeter = fraction_square_measures(points, r)
    e_area, e_perimeter = square_allowances(decomp, points, r)
    assert abs(Fraction(decomp.area()) - area) <= e_area, label
    assert abs(Fraction(decomp.perimeter()) - perimeter) <= e_perimeter, label


def assert_square_runs_match(got, want, points, r, dyadic, label):
    """got has want's pieces merged into maximal runs; on dyadic coordinates
    its area and perimeter are want's bits, elsewhere within the allowance."""
    assert got == merged_runs(want), label
    e_area, e_perimeter = (0.0, 0.0) if dyadic else square_allowances(got, points, r)
    assert abs(got.area() - want.area()) <= e_area, label
    assert abs(got.perimeter() - want.perimeter()) <= e_perimeter, label


# where the per-centre loop's _EPS decides which faces meet, it is no oracle
_EPS_DECIDED = {"near-coincident-chain", "tiny-radius"}
_DYADIC = ("quarter-lattice", "touching", "pair-2r-apart")


@pytest.mark.parametrize(
    "block_pairs, slab_cells",
    [pytest.param(b, s, id=str(b)) for b, s in ((geometry._BLOCK_PAIRS, _kernels._COVER_SLAB_CELLS), (1, 1), (40, 100))],
)
def test_boundaries_match_per_centre_loops(monkeypatch, block_pairs, slab_cells):
    # the row blocking and the cover's slabs must not show in the output: one
    # row per block or slab, a few, and the modules' own sizes give the same
    # decomposition
    monkeypatch.setattr(geometry, "_BLOCK_PAIRS", block_pairs)
    monkeypatch.setattr(_kernels, "_COVER_SLAB_CELLS", slab_cells)
    for name, centers, r in _sweep_instances():
        pts = PointSet(centers)
        got = square_union_boundary(pts, r)
        if name in _EPS_DECIDED:
            assert_square_measures_are_exact(got, centers, r, name)
        else:
            want = reference_square_union_boundary(pts, r)
            assert_square_runs_match(got, want, centers, r, name.startswith(_DYADIC), name)
        got, want = disk_union_boundary(pts, r), reference_disk_union_boundary(pts, r)
        assert got.arcs == want.arcs, name
        np.testing.assert_array_equal(got.centers, want.centers)
        assert got.perimeter() == want.perimeter(), name
        assert got.area() == reference_arc_area(want), name


@pytest.mark.parametrize("block_pairs", [geometry._BLOCK_PAIRS, 1, 40])
def test_dedup_matches_greedy_loop(monkeypatch, block_pairs):
    monkeypatch.setattr(geometry, "_BLOCK_PAIRS", block_pairs)
    rng = np.random.default_rng(61)
    for _ in range(40):
        n = int(rng.integers(1, 25))
        pts = rng.uniform(-1, 1, (n, 2))
        # exact repeats, and steps of 0.6 tol along a line: the greedy rule keeps
        # every other point of such a chain, where "close to any earlier row" would keep one
        extra = pts[rng.integers(0, n, n)]
        chain = pts[0] + np.outer(np.arange(int(rng.integers(0, 6))), [0.6e-12, 0.0])
        mixed = np.concatenate([pts, extra, chain])[rng.permutation(2 * n + len(chain))]
        kept, group = geometry.group_rows(mixed)
        np.testing.assert_array_equal(mixed[kept], reference_dedup_preserve_order(mixed))
        # each row joins the first kept row within tol, itself when it is kept
        for i, row in enumerate(mixed):
            near = np.abs(mixed[kept] - row).max(axis=1) <= _EPS
            assert group[i] == np.flatnonzero(near & (kept <= i))[0]


def test_boundaries_memory_stays_bounded():
    # a full (4, n, n) broadcast would take 4 * 2500**2 * 8 bytes = 200 MB
    rng = np.random.default_rng(67)
    centers = rng.uniform(-20, 20, (2500, 2))
    for build, reference, pieces in (
        (square_union_boundary, lambda c, r: merged_runs(reference_square_union_boundary(c, r)), "segments"),
        (disk_union_boundary, reference_disk_union_boundary, "arcs"),
    ):
        tracemalloc.start()
        try:
            build(PointSet(centers), 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24e6, (build.__name__, peak)
        part = PointSet(centers[:300])
        assert getattr(build(part, 0.5), pieces) == getattr(reference(part, 0.5), pieces)


# -- the planar kernel against its previous version, bit for bit ----------------
# The grouped sweep and the two boundaries as they were before the sweep took
# flat clipping and an unstable row sort, kept verbatim as the reference the
# leaner kernel must reproduce bit for bit.


def previous_group_rows(points):
    n = len(points)
    rep = np.arange(n)  # the kept row each row joins; itself when kept
    for blk in geometry.row_blocks(n):
        start, stop = blk.start, blk.stop
        # Chebyshev distance as a running maximum over the coordinate columns
        first, *rest = points[:stop].T
        dist = np.abs(first - first[blk, None])
        for col in rest:
            np.maximum(dist, np.abs(col - col[blk, None]), out=dist)
        close = dist <= geometry._GROUP_TOL
        close &= np.arange(stop) < np.arange(start, stop)[:, None]  # earlier rows only
        for k in np.flatnonzero(close.any(axis=1)):
            earlier_kept = np.flatnonzero(close[k] & (rep[:stop] == np.arange(stop)))
            if len(earlier_kept):
                rep[start + k] = earlier_kept[0]
    kept = np.flatnonzero(rep == np.arange(n))
    return kept, np.searchsorted(kept, rep)


def previous_exposed_pieces(lo, hi, group, a, b):
    lo, hi = lo[:, None], hi[:, None]
    counts = np.bincount(group, minlength=len(lo))
    rank = np.arange(len(group)) - (np.cumsum(counts) - counts)[group]
    width = int(counts.max(initial=0))
    starts = np.full((len(lo), width), np.inf)
    ends = np.full((len(lo), width), -np.inf)
    starts[group, rank] = a
    ends[group, rank] = b
    inside = (ends > lo) & (starts < hi)
    starts = np.where(inside, np.maximum(starts, lo), np.inf)
    ends = np.where(inside, np.minimum(ends, hi), -np.inf)
    order = np.argsort(starts, axis=1, kind="stable")
    starts = np.take_along_axis(starts, order, axis=1)
    ends = np.take_along_axis(ends, order, axis=1)
    # the cursor before each hole, and after the last one: lo or the farthest end so far
    cursor = np.maximum.accumulate(np.concatenate([lo, ends], axis=1), axis=1)
    emit = np.concatenate(
        [
            np.isfinite(starts) & (starts - cursor[:, :-1] > _EPS),
            (hi - cursor[:, -1:] > _EPS) | (counts == 0)[:, None],
        ],
        axis=1,
    )
    g, k = np.nonzero(emit)
    return g, cursor[g, k], np.concatenate([starts, hi], axis=1)[g, k]


def previous_disk_union_boundary(centers, r):
    pts = exact2d._require_planar(centers)
    pts = pts[previous_group_rows(pts)[0]]
    r = positive_radius(r)
    n = len(pts)
    arcs = []
    for blk in geometry.row_blocks(n):
        rows = np.arange(blk.start, blk.stop)
        diffs = pts[None, :] - pts[blk, None]
        dists = np.hypot(diffs[..., 0], diffs[..., 1])
        near = dists < 2.0 * r
        near[np.arange(len(rows)), rows] = False
        i, j = np.nonzero(near)
        # points of circle i strictly inside disk j: |theta - phi| < alpha
        phi = np.array(list(map(math.atan2, diffs[i, j, 1].tolist(), diffs[i, j, 0].tolist())))
        alpha = np.array(list(map(math.acos, (dists[i, j] / (2.0 * r)).tolist())))
        cut = alpha > 0.0
        i, lo, hi = i[cut], phi[cut] - alpha[cut], phi[cut] + alpha[cut]
        start = np.remainder(lo, _TWO_PI)
        end = start + (hi - lo)
        # in [0, 2*pi]: (start, end), or (start, 2*pi) and (0, end - 2*pi) where it wraps
        wraps = end > _TWO_PI
        pieces = np.stack([np.ones_like(wraps), wraps], axis=1).ravel()
        group = np.repeat(i, 2)[pieces]
        a = np.stack([start, np.zeros_like(start)], axis=1).ravel()[pieces]
        b = np.stack([np.minimum(end, _TWO_PI), end - _TWO_PI], axis=1).ravel()[pieces]
        # one turn from the first covered angle, so a wrapping gap stays whole
        a0 = np.full(len(rows), np.inf)
        np.minimum.at(a0, group, a)
        a0[a0 == np.inf] = 0.0
        g, t0, t1 = previous_exposed_pieces(a0, a0 + _TWO_PI, group, a, b)
        arcs += zip(rows[g].tolist(), t0.tolist(), t1.tolist())
    return exact2d.ArcDecomposition(arcs=tuple(arcs), radius=r, centers=pts)


def _kernel_instances():
    """2000 (family, centres, radius) instances: random, quarter-lattice
    (tangencies and coincident faces), ring, near-duplicate, x-ties (rows
    within _GROUP_TOL in x only), and radii from 1e-13 to 3."""
    rng = np.random.default_rng(83)
    for k in range(400):
        n = int(rng.integers(1, 25))
        yield "random", rng.uniform(-1, 1, (n, 2)), float(rng.uniform(0.05, 1.5))
    for k in range(400):
        n = int(rng.integers(2, 25))
        yield "quarter-lattice", np.round(rng.uniform(-1, 1, (n, 2)) * 4) / 4, 0.125 * int(rng.integers(1, 9))
    for k in range(300):
        m = int(rng.integers(3, 16))
        angles = np.linspace(0.0, 2.0 * math.pi, m, endpoint=False) + rng.uniform(0, 1)
        ring = float(rng.uniform(0.5, 2.0)) * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        yield "ring", ring, float(rng.uniform(0.2, 1.5))
    for k in range(300):
        pts = rng.uniform(-1, 1, (int(rng.integers(1, 10)), 2))
        jitter = rng.uniform(-1, 1, pts.shape) * 10.0 ** rng.uniform(-13, -6)
        yield "near-duplicate", np.concatenate([pts, pts + jitter])[rng.permutation(2 * len(pts))], float(rng.uniform(0.2, 1.2))
    for k in range(300):
        # x within _GROUP_TOL, y far apart: the group_rows short-cut must not fire
        pts = rng.uniform(-1, 1, (int(rng.integers(2, 12)), 2))
        pts[1::2, 0] = pts[::2, 0][: len(pts[1::2])] + rng.uniform(-0.9e-12, 0.9e-12, len(pts[1::2]))
        yield "x-ties", pts, float(rng.uniform(0.1, 1.0))
    for k in range(300):
        r = 10.0 ** float(rng.uniform(-13, math.log10(3.0)))
        yield "radii", rng.uniform(-1, 1, (int(rng.integers(1, 15)), 2)) * r * float(rng.uniform(0.5, 4)), r


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def test_kernel_matches_previous_version_bit_for_bit():
    count = 0
    for _, centers, r in _kernel_instances():
        pts = PointSet(centers)
        got, want = disk_union_boundary(pts, r), previous_disk_union_boundary(pts, r)
        assert [i for i, _, _ in got.arcs] == [i for i, _, _ in want.arcs], count
        assert _bits([a[1:] for a in got.arcs]) == _bits([a[1:] for a in want.arcs]), count
        assert got.centers.tobytes() == want.centers.tobytes()
        kept, group = geometry.group_rows(centers)
        want_kept, want_group = previous_group_rows(centers)
        np.testing.assert_array_equal(kept, want_kept)
        np.testing.assert_array_equal(group, want_group)
        count += 1
    assert count == 2000


def test_square_runs_match_the_face_pieces_on_every_family():
    # the per-centre loop's pieces, merged into maximal runs, are the runs of
    # the cover: to the bit on the quarter lattice, within the rounding
    # allowance elsewhere; where its _EPS or _GROUP_TOL decides, the exact
    # rational measures are the oracle instead
    for k, (family, centers, r) in enumerate(_kernel_instances()):
        pts = PointSet(centers)
        got = square_union_boundary(pts, r)
        if family in ("near-duplicate", "x-ties", "radii"):
            assert_square_measures_are_exact(got, centers, r, k)
        else:
            want = reference_square_union_boundary(pts, r)
            assert_square_runs_match(got, want, centers, r, family == "quarter-lattice", k)


def test_disk_area_is_translation_exact():
    # summed about the first centre, the area of three unit disks does not
    # lose digits when their base point moves far from the origin (summed
    # about the origin it was off by about 4e-9, 2e-5 and 1e-2 relative)
    offsets = np.array([[0.0, 0.0], [0.7, 0.2], [-0.3, 1.1]])
    for base in (1e8, 1e12, 1e14):
        far = offsets + np.array([base, base])
        assert disk_union_area(PointSet(far), 1.0) == disk_union_area(PointSet(far - far[0]), 1.0)
