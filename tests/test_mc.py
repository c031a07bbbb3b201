import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.spatial import cKDTree

from parset import (
    GaussianMixture,
    InvalidArgumentError,
    McConfig,
    NormKind,
    ParallelSetSpec,
    PointSet,
    RangeOverflowError,
    cube_union_measures,
    disk_union_area,
    disk_union_perimeter,
    entropy_mc,
    entropy_quadrature,
    fisher_information_mc,
    fisher_information_quadrature,
    inscribed_angle_check,
    kneser_shell_check,
    mc_gaussian_shell,
    mc_halfspace_gaussian_shell,
    mc_shell_lebesgue,
    mc_volume,
    threads,
    union_measures,
)
import parset
from parset import Verdict, _kernels, _rng, exact2d
from parset import mc as mcmod
from parset._kernels import min_dist
from parset._rng import CHUNK, chunk_generator, map_reduce_chunks, uniform_in_ball
from parset.bounds import BoundReport
from parset.mc import (
    MeasureEstimate,
    cap_solid_angle_fractions,
    central_cap_fraction,
)
from test_exact2d import square_allowances


def spec_point(dim, norm=NormKind.L2, radius=1.0):
    return ParallelSetSpec(
        base=PointSet(np.zeros((1, dim))), norm=norm, radius=radius
    )


def test_volume_unit_ball_3d():
    est = mc_volume(spec_point(3), McConfig(samples=400_000, seed=1))
    want = 4.0 * math.pi / 3.0
    assert abs(est.value - want) <= 3.0 * est.std_error


def test_volume_cube_4d_exact():
    est = mc_volume(spec_point(4, NormKind.LINF), McConfig(samples=50_000, seed=2))
    assert est.value == 16.0
    assert est.std_error == 0.0


def test_volume_matches_exact_area():
    pts = PointSet([[0.0, 0.0], [0.9, 0.3]])
    spec = ParallelSetSpec(base=pts, norm=NormKind.L2, radius=1.0)
    est = mc_volume(spec, McConfig(samples=500_000, seed=3))
    want = disk_union_area(pts, 1.0)
    assert abs(est.value - want) <= 3.0 * est.std_error


def test_shell_circle():
    est = mc_shell_lebesgue(
        spec_point(2), McConfig(samples=1_000_000, seed=4, shell_delta=1e-3)
    )
    assert abs(est.value - 2.0 * math.pi) <= 3.0 * est.std_error + 5e-3


def test_shell_square():
    est = mc_shell_lebesgue(
        spec_point(2, NormKind.LINF), McConfig(samples=1_000_000, seed=5, shell_delta=1e-3)
    )
    assert abs(est.value - 8.0) <= 3.0 * est.std_error + 5e-3


def test_shell_matches_exact_perimeter():
    rng = np.random.default_rng(6)
    raw = rng.standard_normal((20, 2))
    raw /= np.maximum(np.linalg.norm(raw, axis=1, keepdims=True), 1e-9)
    raw *= rng.random((20, 1)) ** 0.5
    pts = PointSet(raw)
    spec = ParallelSetSpec(base=pts, norm=NormKind.L2, radius=1.0)
    est = mc_shell_lebesgue(spec, McConfig(samples=1_000_000, seed=7, shell_delta=1e-3))
    want = disk_union_perimeter(pts, 1.0)
    assert abs(est.value - want) <= 3.0 * est.std_error + 5e-3


def test_shell_richardson_consistency():
    spec = spec_point(2)
    a = mc_shell_lebesgue(spec, McConfig(samples=800_000, seed=8, shell_delta=2e-3))
    b = mc_shell_lebesgue(spec, McConfig(samples=800_000, seed=9, shell_delta=1e-3))
    tol = 3.0 * math.hypot(a.std_error, b.std_error) + 5.0 * 2e-3
    assert abs(a.value - b.value) <= tol


def test_gaussian_shell_halfspace():
    est = mc_halfspace_gaussian_shell(3, McConfig(samples=2_000_000, seed=10, shell_delta=1e-3))
    assert abs(est.value - 1.0 / math.sqrt(2.0 * math.pi)) <= 3.0 * est.std_error


def test_gaussian_shell_ball_against_radial_quadrature():
    # oracle: d/d_rho of the Gaussian mass of B(rho) = radial chi density
    dim, rho = 3, 1.2

    def chi_pdf(s):
        log_c = (1.0 - dim / 2.0) * math.log(2.0) - math.lgamma(dim / 2.0)
        return math.exp(log_c + (dim - 1) * math.log(s) - s * s / 2.0)

    delta = 1e-3
    want, _ = quad(chi_pdf, rho, rho + delta)
    want /= delta
    est = mc_gaussian_shell(
        spec_point(dim, radius=rho), McConfig(samples=2_000_000, seed=11, shell_delta=delta)
    )
    assert abs(est.value - want) <= 3.0 * est.std_error


def test_gaussian_shell_empty():
    spec = spec_point(2, radius=30.0)
    est = mc_gaussian_shell(spec, McConfig(samples=100_000, seed=12, shell_delta=1e-3))
    assert est.value == 0.0


_PLANE = ParallelSetSpec(base=PointSet([[0.0, 0.0], [0.8, 0.3]]), norm=NormKind.L2, radius=0.5)
_CFG = McConfig(samples=3000, seed=4)
_LINE = GaussianMixture(atoms=[[0.0], [1.2]], weights=[0.4, 0.6], variance=0.5)
_PLANAR_MIXTURE = GaussianMixture(atoms=[[0.0, 0.0], [1.2, 0.3]], weights=[0.4, 0.6], variance=0.5)


def _apex_fraction(dim):
    apex = np.full(dim, 0.2)
    return [cap_solid_angle_fractions(dim, 0.9, apex, directions=2500, seed=3)[0]]


def _union_measure(kind, dim, norm):
    # kneser_is_exact names the cells where the volume is exact
    base = PointSet([[0.0] * dim, [0.8, 0.3, -0.2][:dim]])
    (est,) = union_measures(ParallelSetSpec(base=base, norm=norm, radius=0.5), (kind,), _CFG)
    if kind == "volume":
        assert mcmod.kneser_is_exact(dim, norm) is (est.samples_used == 0)
    return [est]


# union_measures' table: the draws behind each (kind, dim, norm) cell, 0 where it is exact
_UNION_DRAWS = {
    ("volume", 2, NormKind.L2): 0, ("volume", 2, NormKind.LINF): 0,
    ("volume", 3, NormKind.L2): 3000, ("volume", 3, NormKind.LINF): 0,
    ("surface", 2, NormKind.L2): 0, ("surface", 2, NormKind.LINF): 0,
    ("surface", 3, NormKind.L2): 3000, ("surface", 3, NormKind.LINF): 3000,
    ("gaussian-surface", 2, NormKind.L2): 3000, ("gaussian-surface", 2, NormKind.LINF): 0,
    ("gaussian-surface", 3, NormKind.L2): 3000, ("gaussian-surface", 3, NormKind.LINF): 0,
}


# (estimator, the draws behind each of its estimates: 0 where the value is exact)
_PROVENANCE = {
    "mc_volume": (lambda: [mc_volume(_PLANE, _CFG)], 3000),
    "mc_shell_lebesgue": (lambda: [mc_shell_lebesgue(_PLANE, _CFG)], 3000),
    "mc_gaussian_shell": (lambda: [mc_gaussian_shell(_PLANE, _CFG)], 3000),
    "cube_union_measures": (lambda: list(cube_union_measures(_PLANE.base, 0.5)), 0),
    "cap-2d": (lambda: _apex_fraction(2), 0),
    "cap-3d": (lambda: _apex_fraction(3), 0),
    "cap-4d": (lambda: _apex_fraction(4), 2500),
    "entropy_mc": (lambda: [entropy_mc(_PLANAR_MIXTURE, n=2000, seed=1)], 2000),
    "entropy_quadrature": (lambda: [entropy_quadrature(_LINE)], 0),
    "fisher_information_mc": (lambda: [fisher_information_mc(_PLANAR_MIXTURE, n=2000, seed=1)], 2000),
    "fisher_information_quadrature": (lambda: [fisher_information_quadrature(_LINE)], 0),
    **{
        f"union_measures-{kind}-{dim}d-{norm.value}": (lambda cell=(kind, dim, norm): _union_measure(*cell), draws)
        for (kind, dim, norm), draws in _UNION_DRAWS.items()
    },
}


def test_union_measures_rejects_an_unknown_kind():
    with pytest.raises(InvalidArgumentError, match="unknown measure kinds"):
        union_measures(_PLANE, ("volume", "area"), _CFG)


@pytest.mark.parametrize("name", list(_PROVENANCE))
def test_every_estimator_states_its_provenance(name):
    # one estimate type throughout: samples_used is 0 exactly where the value
    # is exact, and the number of draws elsewhere
    assert MeasureEstimate is parset.MeasureEstimate is parset.bounds.MeasureEstimate
    estimate, draws = _PROVENANCE[name]
    for est in estimate():
        assert type(est) is MeasureEstimate
        assert est.samples_used == draws
        assert math.isfinite(est.value) and 0.0 <= est.std_error < math.inf


def test_determinism_same_seed():
    spec = spec_point(3)
    a = mc_volume(spec, McConfig(samples=300_000, seed=42))
    b = mc_volume(spec, McConfig(samples=300_000, seed=42))
    assert a == b


def test_determinism_across_workers():
    spec = spec_point(3)
    base = PointSet([[0.0, 0.0, 0.0], [0.7, -0.2, 0.1]])
    estimators = (
        lambda cfg: mc_volume(spec, cfg),
        lambda cfg: mc_shell_lebesgue(spec, cfg),
        lambda cfg: mc_gaussian_shell(spec, cfg),
        lambda cfg: mc_halfspace_gaussian_shell(3, cfg, sigma=1.5),
        lambda cfg: kneser_shell_check(base, NormKind.LINF, 0.2, 0.5, 1.3, cfg),
    )
    cfg = McConfig(samples=300_000, seed=42)
    for estimate in estimators:
        with threads(4):
            b = estimate(cfg)
        assert estimate(cfg) == b
    gm = GaussianMixture(atoms=[[0.0, 0.0], [1.0, 0.5]], weights=[0.3, 0.7], variance=0.4)
    for estimate in (entropy_mc, fisher_information_mc):
        with threads(2):
            b = estimate(gm, n=150_000, seed=43)
        assert estimate(gm, n=150_000, seed=43) == b


def test_unbiasedness_pooled():
    spec = spec_point(2)
    vals, ses = [], []
    for s in range(8):
        est = mc_volume(spec, McConfig(samples=100_000, seed=1000 + s))
        vals.append(est.value)
        ses.append(est.std_error)
    pooled_mean = float(np.mean(vals))
    pooled_se = float(np.sqrt(np.sum(np.square(ses)))) / len(vals)
    assert abs(pooled_mean - math.pi) <= 3.0 * pooled_se


def test_kneser_single_point_scaling():
    rep = kneser_shell_check(
        PointSet([[0.0, 0.0, 0.0]]),
        NormKind.L2,
        a_k=0.5,
        b_k=1.0,
        t=1.5,
        cfg=McConfig(samples=500_000, seed=14),
    )
    assert rep.verdict is Verdict.PASS
    # balls scale exactly: measured ~= bound up to shared-sample noise
    assert rep.measured == pytest.approx(rep.bound_value, rel=0.05)


def test_kneser_t_one_identity():
    rep = kneser_shell_check(
        PointSet([[0.0, 0.0]]),
        NormKind.L2,
        a_k=0.5,
        b_k=1.0,
        t=1.0,
        cfg=McConfig(samples=100_000, seed=15),
    )
    assert rep.measured == rep.bound_value  # identical counts on both sides


def test_kneser_random_sweep():
    rng = np.random.default_rng(16)
    for k in range(10):
        pts = PointSet(rng.uniform(-1, 1, (rng.integers(1, 6), 3)))
        rep = kneser_shell_check(
            pts, NormKind.L2, 0.5, 1.0, 1.5, McConfig(samples=400_000, seed=17 + k)
        )
        assert rep.verdict is Verdict.PASS


def test_kneser_validates_arguments():
    pts = PointSet([[0.0, 0.0]])
    cfg = McConfig(samples=1000, seed=0)
    with pytest.raises(InvalidArgumentError):
        kneser_shell_check(pts, NormKind.L2, 1.0, 0.5, 1.5, cfg)
    with pytest.raises(InvalidArgumentError):
        kneser_shell_check(pts, NormKind.L2, 0.5, 1.0, 0.9, cfg)


# -- exact planar shells --------------------------------------------------------


@pytest.mark.parametrize("norm", list(NormKind))
def test_kneser_planar_single_point_is_the_equality_case(norm):
    # disks and squares scale exactly, so the two sides differ by rounding only
    cfg = McConfig(samples=1, seed=0)
    for t in (1.0, 1.2, 2.0):
        for point in ([0.0, 0.0], [0.3, -0.7], [1e6, -2e6]):
            rep = kneser_shell_check(PointSet([point]), norm, 0.5, 1.0, t, cfg)
            assert rep.verdict is Verdict.PASS, (t, point)
            assert abs(rep.measured - rep.bound_value) <= rep.std_error, (t, point)
            # square coordinates are rounded at their own size, so far off
            # the allowance grows with it
            reach = 1.0 + (math.hypot(*point) if norm is NormKind.LINF else 0.0)
            assert 0.0 < rep.std_error < 1e-12 * reach * rep.bound_value, (t, point)


def _bump_first_volume(calls):
    """union_measures with the first volume asked for raised by 1e-9 of
    itself; calls collects the radii asked for."""
    exact = mcmod.union_measures

    def bumped(spec, kinds, cfg):
        (volume,) = exact(spec, kinds, cfg)
        calls.append(spec.radius)
        return (dataclasses.replace(volume, value=volume.value * (1.0 + 1e-9)) if len(calls) == 1 else volume,)

    return bumped


@pytest.mark.parametrize("norm", list(NormKind))
def test_kneser_planar_allowance_catches_a_1e9_bump(monkeypatch, norm):
    # the same equality case with one area raised by 1e-9 of itself must FAIL
    calls = []
    monkeypatch.setattr(mcmod, "union_measures", _bump_first_volume(calls))
    for t in (1.0, 1.2, 2.0):
        calls.clear()
        rep = kneser_shell_check(PointSet([[0.3, -0.7]]), norm, 0.5, 1.0, t, McConfig(samples=1, seed=0))
        assert calls[0] == t * 1.0  # the outer area, A(t b), is the one raised
        assert rep.verdict is Verdict.FAIL, t


@pytest.mark.parametrize("norm", list(NormKind))
def test_kneser_planar_shells_are_exact_areas(norm):
    # each side is a difference of disk-union or square-union areas, and cfg
    # is not read
    rng = np.random.default_rng(71)
    base = PointSet(rng.uniform(-1, 1, (5, 2)))
    rep = kneser_shell_check(base, norm, 0.3, 0.6, 1.4, McConfig(samples=1, seed=0))
    area = {rho: exact2d.union_boundary(base, rho, norm).area() for rho in (0.3, 0.6, 1.4 * 0.3, 1.4 * 0.6)}
    assert rep.measured == area[1.4 * 0.6] - area[1.4 * 0.3]
    assert rep.bound_value == 1.4**2 * (area[0.6] - area[0.3])
    with threads(2):
        assert rep == kneser_shell_check(base, norm, 0.3, 0.6, 1.4, McConfig(samples=99, seed=5))


@pytest.mark.parametrize("norm, dim", [(NormKind.L2, 2), (NormKind.LINF, 2), (NormKind.LINF, 3)])
def test_kneser_shared_volumes_compute_each_radius_once(monkeypatch, norm, dim):
    # the suite's sweep, t in (1.2, 1.5, 2) at a = 0.5, b = 1: seven radii,
    # against twelve volumes for three lone calls, with the same reports
    base = PointSet(np.random.default_rng(72).uniform(-1, 1, (4, dim)))
    cfg = McConfig(samples=1, seed=0)
    alone = [kneser_shell_check(base, norm, 0.5, 1.0, t, cfg) for t in (1.2, 1.5, 2.0)]
    exact, radii = mcmod.union_measures, []

    def counted(spec, kinds, cfg):
        radii.append(spec.radius)
        return exact(spec, kinds, cfg)

    monkeypatch.setattr(mcmod, "union_measures", counted)
    volumes = {}
    shared = [kneser_shell_check(base, norm, 0.5, 1.0, t, cfg, volumes) for t in (1.2, 1.5, 2.0)]
    assert shared == alone
    assert sorted(radii) == sorted(volumes) == [0.5, 0.6, 0.75, 1.0, 1.2, 1.5, 2.0]


def test_kneser_check_computes_seven_volumes_per_exact_configuration(monkeypatch):
    # 13 of the check's 20 configurations are exact (every planar one and the
    # 3-d L-inf ones); each asks for seven radii, not twelve volumes
    from parset import suite

    exact, calls = mcmod.union_measures, []

    def counted(spec, kinds, cfg):
        if not calls or calls[-1][0] is not spec.base:
            calls.append((spec.base, []))
        calls[-1][1].append(spec.radius)
        return exact(spec, kinds, cfg)

    monkeypatch.setattr(mcmod, "union_measures", counted)
    suite.check_kneser(0, suite.profile_from_samples(100))
    assert len(calls) == 13
    assert all(sorted(radii) == [0.5, 0.6, 0.75, 1.0, 1.2, 1.5, 2.0] for _, radii in calls)


@pytest.mark.parametrize("norm", list(NormKind))
def test_kneser_planar_shells_agree_with_band_counts(norm):
    # on 20 random configurations, each exact shell lies within 4 sigma of a
    # 10^6-draw band count over the box of the largest dilation
    from parset.mc import _band_estimates

    rng = np.random.default_rng(73)
    for k in range(20):
        base = PointSet(uniform_in_ball(rng, int(rng.integers(1, 9)), 2))
        t = float(rng.uniform(1.0, 2.0))
        rep = kneser_shell_check(base, norm, 0.5, 1.0, t, McConfig(samples=1, seed=0))
        pts, linf = base.points, norm is NormKind.LINF
        lhs, rhs = _band_estimates(
            McConfig(samples=1_000_000, seed=100 + k),
            2,
            lambda x: min_dist(x, pts, linf),
            [(0.5 * t, t, 1.0), (0.5, 1.0, 1.0)],
            box=(pts, t),
        )
        assert abs(rep.measured - lhs.value) <= 4.0 * lhs.std_error, k
        assert abs(rep.bound_value / t**2 - rhs.value) <= 4.0 * rhs.std_error, k


def test_kneser_results_past_double_range_raise():
    cfg = McConfig(samples=1000, seed=0)
    for norm in NormKind:
        with pytest.raises(RangeOverflowError):  # t^2 and A(t b) both overflow
            kneser_shell_check(PointSet([[0.0, 0.0]]), norm, 0.5, 1.0, 1e300, cfg)
        with pytest.raises(RangeOverflowError):  # A(t b) only
            kneser_shell_check(PointSet([[0.0, 0.0]]), norm, 1e150, 1e160, 1.5, cfg)
    # a finite box whose t^3 overflows ended in a bare OverflowError
    with pytest.raises(RangeOverflowError):
        kneser_shell_check(PointSet([[0.0, 0.0, 0.0]]), NormKind.L2, 1e-200, 1e-200, 1e200, cfg)
    # t b itself past double range read as an invalid radius
    for dim, norm in itertools.product((2, 3), NormKind):
        with pytest.raises(RangeOverflowError, match="t \\* b_k"):
            kneser_shell_check(PointSet([[0.0] * dim]), norm, 1e10, 1e10, 1e300, cfg)


def _mp_disk_area(dec):
    """The area of an arc decomposition at 50 digits, each arc end snapped to
    the exact intersection angle (or wrap point) it rounds."""
    import mpmath as mp

    with mp.workdps(50):
        rho, pts = mp.mpf(dec.radius), [[mp.mpf(v) for v in row] for row in dec.centers.tolist()]
        total = mp.mpf(0)
        for i, t0, t1 in dec.arcs:
            (xi, yi), ends = pts[i], [mp.mpf(0), 2 * mp.pi, 4 * mp.pi]
            for j, (xj, yj) in enumerate(pts):
                d = mp.hypot(xj - xi, yj - yi)
                if j != i and d < 2 * rho:
                    phi, alpha = mp.atan2(yj - yi, xj - xi), mp.acos(d / (2 * rho))
                    ends += [(phi + s * alpha) % (2 * mp.pi) + w for s in (-1, 1) for w in (0, 2 * mp.pi)]
            e0, e1 = (min(ends, key=lambda e: abs(e - t)) for t in (t0, t1))
            assert abs(e0 - t0) < 1e-9 and abs(e1 - t1) < 1e-9
            total += rho * rho * (e1 - e0) + xi * rho * (mp.sin(e1) - mp.sin(e0)) + yi * rho * (mp.cos(e0) - mp.cos(e1))
        return total / 2


def _fraction_square_area(points, rho) -> Fraction:
    """The exact area of a union of squares, by slabs over rational coordinates."""
    r = Fraction(rho)
    boxes = [(Fraction(x) - r, Fraction(x) + r, Fraction(y) - r, Fraction(y) + r) for x, y in points.tolist()]
    xs = sorted({v for b in boxes for v in b[:2]})
    area = Fraction(0)
    for x0, x1 in zip(xs, xs[1:]):
        spans = sorted((b[2], b[3]) for b in boxes if b[0] <= x0 and x1 <= b[1])
        covered, lo, hi = Fraction(0), None, None
        for a, b in spans:
            if hi is None or a > hi:
                covered += (hi - lo) if hi is not None else 0
                lo, hi = a, b
            else:
                hi = max(hi, b)
        covered += (hi - lo) if hi is not None else 0
        area += covered * (x1 - x0)
    return area


def test_planar_area_allowance_covers_the_rounding():
    # against 50-digit references, on random, quarter-lattice (tangent and
    # coincident faces), ring, near-duplicate, tiny-radius and far-off
    # instances: the rounding stays below a quarter of the allowance
    import mpmath as mp

    def area(points, norm, rho):
        spec = ParallelSetSpec(base=PointSet(points), norm=norm, radius=rho)
        return union_measures(spec, ("volume",), McConfig(samples=1, seed=0))[0]

    rng = np.random.default_rng(79)
    cases = [(rng.uniform(-1, 1, (int(rng.integers(1, 16)), 2)), float(rng.uniform(0.05, 3))) for _ in range(20)]
    cases += [(np.round(rng.uniform(-1, 1, (int(rng.integers(2, 14)), 2)) * 4) / 4, 0.25 * int(rng.integers(1, 6)))
              for _ in range(10)]
    ring = np.linspace(0.0, 2.0 * math.pi, 7, endpoint=False)
    cases += [(1.3 * np.stack([np.cos(ring), np.sin(ring)], axis=1), 0.8)]
    dup = rng.uniform(-1, 1, (5, 2))
    cases += [(np.concatenate([dup, dup + rng.uniform(-1e-9, 1e-9, dup.shape)]), 0.6)]
    cases += [(rng.uniform(-1, 1, (4, 2)) * 3e-9, 1e-9), (rng.uniform(-1, 1, (4, 2)) * 1e-13, 3e-13)]
    cases += [(rng.uniform(-1, 1, (5, 2)) + off * rng.standard_normal(2), 0.7) for off in (1e3, 1e6, 1e10)]
    # the cover rounds square faces at their absolute place, so these lose
    # digits (4.3e-9 of the area), and the square allowance grows with it
    cases += [(np.random.default_rng(41).uniform(-1, 1, (12, 2)) + 1e8, 0.8)]
    for k, (points, rho) in enumerate(cases):
        disks = area(points, NormKind.L2, rho)
        want = _mp_disk_area(exact2d.disk_union_boundary(PointSet(points), rho))
        assert abs(mp.mpf(disks.value) - want) <= disks.std_error / 4, k
        squares = area(points, NormKind.LINF, rho)
        assert abs(Fraction(squares.value) - _fraction_square_area(points, rho)) <= squares.std_error / 4, k


# -- the exact L-inf cover --------------------------------------------------------


def _fraction_cube_union_volume(points, rho) -> Fraction:
    """Inclusion-exclusion over every subset of cubes, in exact rationals."""
    r = Fraction(rho)
    cubes = [[(Fraction(c) - r, Fraction(c) + r) for c in row] for row in points.tolist()]
    total = Fraction(0)
    for size in range(1, len(cubes) + 1):
        for subset in itertools.combinations(cubes, size):
            part = Fraction(1)
            for sides in zip(*subset):
                part *= max(Fraction(0), min(b for _, b in sides) - max(a for a, _ in sides))
            total += part if size % 2 else -part
    return total


def _mp_cube_union_gaussian(points, rho):
    """Inclusion-exclusion of the standard Gaussian measure at 40 digits."""
    import mpmath as mp

    with mp.workdps(40):
        r = mp.mpf(rho)
        cubes = [[(mp.mpf(c) - r, mp.mpf(c) + r) for c in row] for row in points.tolist()]
        total = mp.mpf(0)
        for size in range(1, len(cubes) + 1):
            for subset in itertools.combinations(cubes, size):
                part = mp.mpf(1)
                for sides in zip(*subset):
                    lo, hi = max(a for a, _ in sides), min(b for _, b in sides)
                    part *= mp.ncdf(hi) - mp.ncdf(lo) if hi > lo else 0
                total += part if size % 2 else -part
        return total


def _cover_cases(rng, dims, max_points):
    """Random instances, and quarter-lattice ones whose faces touch and coincide."""
    cases = []
    for dim in dims:
        for _ in range(6):
            n = int(rng.integers(1, max_points + 1))
            cases.append((rng.uniform(-1, 1, (n, dim)), float(rng.uniform(0.05, 1.5))))
            lattice = np.round(rng.uniform(-1, 1, (n, dim)) * 4) / 4
            cases.append((np.concatenate([lattice, lattice[:1]]), 0.125 * int(rng.integers(1, 5))))
    return cases


def _cover_in_slabs(monkeypatch, points, rho):
    """cube_union_measures in the cover's own slabs, in slabs of one
    first-axis row, and in slabs of 40 cells (several rows in 1-d and in small
    planar grids), which must all give the same bits."""
    results = []
    for slab_cells in (_kernels._COVER_SLAB_CELLS, 1, 40):
        with monkeypatch.context() as patch:
            patch.setattr(_kernels, "_COVER_SLAB_CELLS", slab_cells)
            results.append(cube_union_measures(PointSet(points), rho))
    assert results[1:] == results[:-1]
    return results[0]


def test_cover_volume_matches_exact_inclusion_exclusion(monkeypatch):
    rng = np.random.default_rng(81)
    for k, (points, rho) in enumerate(_cover_cases(rng, (1, 2, 3, 4), 6)):
        volume, _ = _cover_in_slabs(monkeypatch, points, rho)
        exact = _fraction_cube_union_volume(points, rho)
        assert abs(Fraction(volume.value) - exact) <= volume.std_error / 4, k
        assert volume.samples_used == 0


def test_cover_gaussian_matches_mpmath_inclusion_exclusion(monkeypatch):
    import mpmath as mp

    rng = np.random.default_rng(83)
    for k, (points, rho) in enumerate(_cover_cases(rng, (1, 2, 3), 4)):
        _, gauss = _cover_in_slabs(monkeypatch, points * 1.5, rho)
        assert abs(mp.mpf(gauss.value) - _mp_cube_union_gaussian(points * 1.5, rho)) <= gauss.std_error / 4, k
        assert gauss.samples_used == 0


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_cover_gaussian_of_one_cube_is_the_product(dim):
    import mpmath as mp

    rng = np.random.default_rng(85 + dim)
    for _ in range(10):
        center, rho = rng.uniform(-3, 3, dim), float(rng.uniform(0.01, 2))
        _, gauss = cube_union_measures(PointSet([center]), rho)
        with mp.workdps(40):
            want = mp.fprod(mp.ncdf(mp.mpf(c) + rho) - mp.ncdf(mp.mpf(c) - rho) for c in center.tolist())
            assert abs(mp.mpf(gauss.value) - want) <= gauss.std_error / 4


def test_cover_matches_the_planar_square_areas():
    rng = np.random.default_rng(87)
    for k in range(300):
        points = rng.uniform(-1.5, 1.5, (int(rng.integers(1, 21)), 2))
        rho = float(rng.uniform(0.05, 1.5))
        if k % 3 == 0:  # tangent and coincident faces
            points, rho = np.round(points * 4) / 4, 0.125 * int(rng.integers(1, 6))
        volume, _ = cube_union_measures(PointSet(points), rho)
        boundary = exact2d.square_union_boundary(PointSet(points), rho)
        allowance = square_allowances(boundary, points, rho)[0]
        assert abs(volume.value - boundary.area()) <= volume.std_error + allowance, k


def test_cover_keeps_faces_apart_at_tiny_radii():
    # a face sweep that merged faces within an absolute 1e-12 halved these
    # measures; the cover decides on indices
    points = np.array([[0.0, 0.0], [3e-13, 0.0]])
    volume, _ = cube_union_measures(PointSet(points), 1e-13)
    assert abs(volume.value - 8e-26) <= volume.std_error
    boundary = exact2d.square_union_boundary(PointSet(points), 1e-13)
    e_area, e_perimeter = square_allowances(boundary, points, 1e-13)
    assert abs(exact2d.square_union_area(PointSet(points), 1e-13) - 8e-26) <= e_area
    assert abs(exact2d.square_union_perimeter(PointSet(points), 1e-13) - 1.6e-12) <= e_perimeter


def test_cover_volume_is_translation_exact(monkeypatch):
    # dyadic coordinates, so the translated points are exact
    rng = np.random.default_rng(89)
    for dim in (2, 3, 4):
        points = rng.integers(-64, 64, (6, dim)) / 64.0
        base, _ = _cover_in_slabs(monkeypatch, points, 0.3)
        for offset in (1.0, -3.0 * 2**20, 2.0**40):
            moved, _ = _cover_in_slabs(monkeypatch, points + offset, 0.3)
            assert moved == base, (dim, offset)


def test_cover_past_the_old_grid_cap_holds_one_slab():
    # 130 cubes in 3-d make 260^3 = 17.6M cells, past the 2^22 an unstreamed
    # count array was capped at (141 MB of float64); a slab is 3 rows of 260^2
    import tracemalloc

    points = PointSet(np.random.default_rng(97).uniform(-1, 1, (130, 3)))
    tracemalloc.start()
    try:
        volume, gauss = cube_union_measures(points, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6, peak
    assert 0.0 < volume.value <= 130 * 0.2**3 and 0.0 < gauss.value < 1.0


def test_cover_past_its_budget_raises_before_allocating(monkeypatch):
    import tracemalloc

    points = PointSet(np.random.default_rng(91).uniform(-1, 1, (64, 4)))
    tracemalloc.start()
    try:
        with pytest.raises(InvalidArgumentError, match=r"needs 268435456 grid cells"):
            cube_union_measures(points, 0.5)  # 128 lines an axis
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # the budget counts the grid's vertices: 4 squares in general position
    # make 8 x 8 of them
    squares = PointSet([[0.0, 0.0], [0.3, 0.1], [0.7, 0.45], [1.1, 0.8]])
    monkeypatch.setattr(_kernels, "_COVER_MAX_CELLS", 64)
    cube_union_measures(squares, 0.5)
    monkeypatch.setattr(_kernels, "_COVER_MAX_CELLS", 63)
    with pytest.raises(InvalidArgumentError, match="needs 64 grid cells"):
        cube_union_measures(squares, 0.5)


def test_cover_results_past_double_range_raise():
    with pytest.raises(RangeOverflowError):  # the volume
        cube_union_measures(PointSet([[0.0, 0.0, 0.0]]), 1e150)
    with pytest.raises(RangeOverflowError):  # the faces themselves
        cube_union_measures(PointSet([[-1e308, 0.0], [1e308, 0.0]]), 1.0)
    with pytest.raises(RangeOverflowError):  # a 3-d L-inf Kneser shell
        kneser_shell_check(PointSet([[0.0, 0.0, 0.0]]), NormKind.LINF, 1e100, 1e110, 1.5, McConfig(samples=1, seed=0))


@pytest.mark.parametrize("dim", [1, 3, 4])
def test_kneser_linf_single_point_is_the_equality_case(dim):
    cfg = McConfig(samples=1, seed=0)
    for t in (1.0, 1.2, 2.0):
        for point in (np.zeros(dim), np.linspace(-0.7, 0.4, dim), np.full(dim, 1e6)):
            rep = kneser_shell_check(PointSet([point]), NormKind.LINF, 0.5, 1.0, t, cfg)
            assert rep.verdict is Verdict.PASS, (t, point)
            assert abs(rep.measured - rep.bound_value) <= rep.std_error, (t, point)
            assert 0.0 < rep.std_error < 1e-12 * rep.bound_value, (t, point)


@pytest.mark.parametrize("dim", [3, 4])
def test_kneser_linf_allowance_catches_a_1e9_bump(monkeypatch, dim):
    # the equality case with the outer volume raised by 1e-9 of itself FAILs
    calls = []
    monkeypatch.setattr(mcmod, "union_measures", _bump_first_volume(calls))
    for t in (1.0, 1.2, 2.0):
        calls.clear()
        point = PointSet([np.linspace(-0.7, 0.4, dim)])
        rep = kneser_shell_check(point, NormKind.LINF, 0.5, 1.0, t, McConfig(samples=1, seed=0))
        assert calls[0] == t * 1.0  # the outer volume, V(t b), is the one raised
        assert rep.verdict is Verdict.FAIL, t


def test_kneser_linf_shells_are_cover_volumes():
    # off the plane the L-inf shells are differences of cover volumes, and
    # cfg is not read
    rng = np.random.default_rng(93)
    base = PointSet(rng.uniform(-1, 1, (5, 3)))
    rep = kneser_shell_check(base, NormKind.LINF, 0.3, 0.6, 1.4, McConfig(samples=1, seed=0))
    volume = {rho: cube_union_measures(base, rho)[0].value for rho in (0.3, 0.6, 1.4 * 0.3, 1.4 * 0.6)}
    assert rep.measured == volume[1.4 * 0.6] - volume[1.4 * 0.3]
    assert rep.bound_value == 1.4**3 * (volume[0.6] - volume[0.3])
    with threads(2):
        assert rep == kneser_shell_check(base, NormKind.LINF, 0.3, 0.6, 1.4, McConfig(samples=99, seed=5))


def test_volume_and_shell_share_one_draw():
    # off the plane the surface is the reference shell estimator to the bit;
    # the L2 volume is the reference volume count over the shell's wider box,
    # and the L-inf one the cover's
    rng = np.random.default_rng(95)
    with threads(2):
        for dim, norm, delta in itertools.product((1, 3), NormKind, (None, 0.05)):
            base = PointSet(rng.uniform(-1.0, 1.0, (int(rng.integers(1, 9)), dim)))
            spec = ParallelSetSpec(base=base, norm=norm, radius=float(rng.uniform(0.2, 1.0)))
            cfg = McConfig(samples=CHUNK + 777, seed=int(rng.integers(1 << 32)), shell_delta=delta)
            volume, shell = union_measures(spec, ("volume", "surface"), cfg)
            assert shell == reference_mc_shell_lebesgue(spec, cfg) == mc_shell_lebesgue(spec, cfg)
            assert union_measures(spec, ("surface", "volume"), cfg) == (shell, volume)
            if norm is NormKind.LINF:
                assert volume == cube_union_measures(base, spec.radius)[0]
                continue
            lo, hi, box_vol = reference_bounding_box(spec, reference_resolve_delta(cfg, spec.radius))

            def chunk(g, n):
                x = lo + g.random((n, dim)) * (hi - lo)
                return (int((reference_spec_distances(spec, x) <= spec.radius).sum()),)

            (hits,) = map_reduce_chunks(cfg.seed, cfg.samples, chunk)
            assert volume == reference_proportion_estimate(hits, cfg.samples, box_vol)


def _parent_cap_fractions(dim, cap_half_angle, apex, directions, seed):
    """The one-batch estimator that cap_solid_angle_fractions replaced, verbatim."""
    cos_cap = math.cos(cap_half_angle)
    g = chunk_generator(seed, 0)
    u = g.standard_normal((directions, dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    # ray from apex: |apex + t u| = 1, positive root
    b = u @ apex
    t = -b + np.sqrt(np.maximum(b * b + 1.0 - apex @ apex, 0.0))
    q = apex[None, :] + t[:, None] * u
    hit_apex = (q[:, 0] >= cos_cap) & (t > 1e-12)
    hit_center = u[:, 0] >= cos_cap
    fa = hit_apex.mean()
    fc = hit_center.mean()
    se = lambda p: math.sqrt(p * (1.0 - p) / directions)
    return float(fa), float(fc), se(fa), se(fc)


@pytest.mark.parametrize("directions", [1, 777, 4000, 40_000, CHUNK])
def test_cap_apex_fraction_matches_one_batch_estimator(directions):
    # up to one chunk the band count sees the one-batch estimator's draws;
    # 2-d and 3-d are exact and have their own oracles below
    cases = [
        (5, 0.4, np.array([0.0, 0.1, 0.0, -0.6, 0.3])),
        # apex on the sphere inside the cap: outward rays stay at the apex
        (4, 0.7, np.array([0.8, 0.6, 0.0, 0.0])),
    ]
    for dim, cap, apex in cases:
        fa, _ = cap_solid_angle_fractions(dim, cap, apex, directions, seed=23)
        want_fa, _, want_se, _ = _parent_cap_fractions(dim, cap, apex, directions, 23)
        assert (fa.value, fa.std_error, fa.samples_used) == (want_fa, want_se, directions)


def _green_cap_fraction(theta, apex):
    """40-digit oracle for the 3-d apex fraction: the rim disk's solid angle by
    Green's theorem, the integral over the rim of (1 - h / sqrt(h^2 + |u|^2))
    (u x dl) / |u|^2 with u from the apex's foot on the rim plane; a fraction
    Omega / (4 pi) below the plane and 1 - Omega / (4 pi) above it."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        th = mpmath.mpf(theta)
        c, s = mpmath.cos(th), mpmath.sin(th)
        a = [mpmath.mpf(float(v)) for v in apex]
        h = a[0] - c
        rho = mpmath.sqrt(a[1] ** 2 + a[2] ** 2)

        def integrand(phi):
            x, y = s * mpmath.cos(phi) - rho, s * mpmath.sin(phi)
            u2 = x * x + y * y
            return (1 - abs(h) / mpmath.sqrt(h * h + u2)) * s * (x * mpmath.cos(phi) + y * mpmath.sin(phi)) / u2

        # the integrand peaks over a width of about the distance to the rim
        near = abs(rho - s) + abs(h)
        breaks = sorted({-mpmath.pi, -10 * near, -near, mpmath.mpf(0), near, 10 * near, mpmath.pi})
        omega = mpmath.quad(integrand, [b for b in breaks if abs(b) <= mpmath.pi]) / (4 * mpmath.pi)
        return float(omega if h <= 0 else 1 - omega)


def _near_rim_apexes():
    """Apexes 1e-3 and 1e-6 from the rim circle, on both sides of the rim plane
    and of the rim's cylinder and on the cylinder itself, and from the rim
    plane, on both sides."""
    for theta in (0.4, 1.3, 2.2):
        c, s = math.cos(theta), math.sin(theta)
        for dist in (1e-3, 1e-6):
            # from the rim point (c, s) along four directions (cos a, sin a)
            # in the (x_0, radius) plane that point into the ball, whose
            # inward directions are pi / 2 + theta < a < 3 pi / 2 + theta
            for k in range(1, 5):
                a = 0.5 * math.pi + theta + 0.2 * k * math.pi
                x0, r = c + dist * math.cos(a), s + dist * math.sin(a)
                yield theta, np.array([x0, 0.6 * r, -0.8 * r])
            for side in (-1.0, 1.0):
                yield theta, np.array([c + side * dist, 0.3 * s, 0.4 * s])
            # rho == s exactly, on the side of the plane that is in the ball
            yield theta, np.array([c - math.copysign(dist, c), s, 0.0])


def test_cap_fraction_matches_green_quadrature_near_the_rim():
    seen = set()
    for theta, apex in _near_rim_apexes():
        assert apex @ apex < 1.0
        fa, _ = cap_solid_angle_fractions(3, theta, apex, 1, seed=0)
        assert abs(fa.value - _green_cap_fraction(theta, apex)) <= fa.std_error
        seen.add((apex[0] > math.cos(theta), math.hypot(apex[1], apex[2]) < math.sin(theta)))
    assert len(seen) == 4  # above and below the plane, inside and outside the rim


@pytest.mark.parametrize("theta", [0.3, 1.2, 1.9, 2.8])
def test_cap_fraction_on_axis_closed_form(theta):
    # on the axis the rim disk's solid angle is 2 pi (1 - h / sqrt(h^2 + s^2))
    c, s = math.cos(theta), math.sin(theta)
    for x0 in (-0.99, -0.5, c - 1e-3, c + 1e-3, 0.0, 0.5, 0.99):
        h = abs(x0 - c)
        disk = 0.5 * (1.0 - h / math.hypot(h, s))
        fa, _ = cap_solid_angle_fractions(3, theta, np.array([x0, 0.0, 0.0]), 1, seed=0)
        assert abs(fa.value - (disk if x0 < c else 1.0 - disk)) <= fa.std_error


@pytest.mark.parametrize("dim", [2, 3])
def test_cap_fraction_at_centre_is_central(dim):
    for theta in (0.05, 0.6, 1.2, math.pi / 2, 1.9, 2.6, 3.1):
        fa, fc = cap_solid_angle_fractions(dim, theta, np.zeros(dim), 1, seed=0)
        assert fa.samples_used == 0
        assert abs(fa.value - fc) <= fa.std_error


def test_cap_fraction_2d_on_the_circle_is_half_central():
    # inscribed-angle theorem: from any point of the circle the arc, or the
    # rest of it, is seen at half its central angle
    for theta in (0.3, 0.9, 2.0, 3.0):
        for phi in (math.pi, 2.5, -1.0, 0.5 * theta, 0.0):
            apex = np.array([math.cos(phi), math.sin(phi)])
            fa, fc = cap_solid_angle_fractions(2, theta, apex, 1, seed=0)
            assert abs(fa.value - fc / 2.0) <= fa.std_error


def test_cap_fractions_agree_with_monte_carlo():
    # the exact fractions against the one-batch Monte Carlo estimator at 40
    # random apexes and three fixed ones, among them an apex on the sphere
    # inside the cap (outward rays leave at once and miss)
    g = np.random.default_rng(41)
    cases = [
        (3, 1.3, np.array([0.2, -0.3, 0.5])),
        (3, 2.4, np.zeros(3)),
        (3, 0.7, np.array([0.8, 0.6, 0.0])),
    ]
    for k in range(40):
        dim = 2 + k % 2
        apex = g.standard_normal(dim)
        apex *= g.random() ** (1.0 / dim) / np.linalg.norm(apex)
        cases.append((dim, float(g.uniform(0.1, 3.0)), apex))
    z = []
    for k, (dim, theta, apex) in enumerate(cases):
        fa, _ = cap_solid_angle_fractions(dim, theta, apex, 1, seed=0)
        mc_fa, _, mc_se, _ = _parent_cap_fractions(dim, theta, apex, 100_000, 100 + k)
        z.append((mc_fa - fa.value) / mc_se)
    z = np.array(z)
    assert np.abs(z).max() < 4.5
    assert abs(z.mean()) < 0.5  # 3 sigma for 43 standard normals
    assert 0.6 < z.std() < 1.4


@pytest.mark.parametrize("dim", range(2, 9))
def test_central_cap_fraction_matches_quadrature(dim):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    whole = mpmath.quad(lambda phi: mpmath.sin(phi) ** (dim - 2), [0, mpmath.pi])
    for theta in (0.05, 0.6, 1.2, math.pi / 2, 1.9, 2.6, 3.1):
        want = mpmath.quad(lambda phi: mpmath.sin(phi) ** (dim - 2), [0, theta]) / whole
        assert central_cap_fraction(dim, theta) == pytest.approx(float(want), rel=1e-13, abs=1e-15)


def test_inscribed_angle_same_apex():
    # from the centre the exact apex fraction is the central one; from 4-d
    # up the estimate is within 4 standard errors of it
    fa, fc = cap_solid_angle_fractions(3, 1.0, np.zeros(3), directions=50_000, seed=18)
    assert fc == central_cap_fraction(3, 1.0)
    assert abs(fa.value - fc) <= fa.std_error
    fa, fc = cap_solid_angle_fractions(5, 1.0, np.zeros(5), directions=50_000, seed=18)
    assert abs(fa.value - fc) <= 4.0 * fa.std_error


def test_inscribed_angle_2d_on_circle():
    # at the antipode the inscribed-angle theorem makes the ratio exactly 1/2
    fa, fc = cap_solid_angle_fractions(2, 0.9, np.array([-1.0, 0.0]), directions=1, seed=19)
    assert fc == pytest.approx(0.9 / math.pi, rel=1e-15)
    assert abs(fa.value / fc - 0.5) <= 1e-15


def test_cap_fractions_do_not_depend_on_workers():
    apex = np.array([0.1, -0.4, 0.2, 0.3])
    one = cap_solid_angle_fractions(4, 1.1, apex, 200_000, seed=24)
    with threads(2):
        two = cap_solid_angle_fractions(4, 1.1, apex, 200_000, seed=24)
    assert one == two


def test_cap_fractions_memory_is_one_chunk():
    import tracemalloc

    tracemalloc.start()
    try:
        cap_solid_angle_fractions(4, 0.9, np.zeros(4), 1_000_000, seed=25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10e6


@pytest.mark.parametrize("directions", [0, -5])
def test_cap_fractions_reject_no_directions(directions):
    with pytest.raises(InvalidArgumentError):
        cap_solid_angle_fractions(3, 0.9, np.zeros(3), directions, seed=0)
    with pytest.raises(InvalidArgumentError):
        inscribed_angle_check(3, 0.9, trials=1, seed=0, directions=directions)


def test_inscribed_angle_nan_trial_fails(monkeypatch):
    from parset import mc

    est = lambda v: MeasureEstimate(v, 0.01, 100)
    results = iter([(est(0.5), 0.5), (est(math.nan), 0.5), (est(0.5), 0.5)])
    monkeypatch.setattr(mc, "cap_solid_angle_fractions", lambda *a: next(results))
    rep = inscribed_angle_check(2, 0.9, trials=3, seed=0)
    assert math.isnan(rep.measured)
    assert rep.verdict is Verdict.FAIL


def test_inscribed_angle_picks_the_trial_worst_at_4_sigma(monkeypatch):
    from parset import mc

    # deficits fc / 2 - fa: 0.010 with se 0.01 passes at 4 sigma, but 0.005
    # with se 0.0005 fails; the larger raw deficit must not hide it
    est = lambda v, se: MeasureEstimate(v, se, 100)
    results = iter([(est(0.24, 0.01), 0.5), (est(0.245, 0.0005), 0.5)])
    monkeypatch.setattr(mc, "cap_solid_angle_fractions", lambda *a: next(results))
    rep = inscribed_angle_check(2, 0.9, trials=2, seed=0)
    assert rep.verdict is Verdict.FAIL
    assert (rep.measured, rep.std_error) == (0.25 - 0.245, 0.0005)


def test_inscribed_angle_3d_sweep():
    rep = inscribed_angle_check(3, 1.2, trials=25, seed=20, directions=100_000)
    assert rep.verdict is Verdict.PASS


def test_min_dist_matches_brute_force():
    # min_dist scans bases of at most 64 points and builds a KD-tree above
    # that; m = 64 and 65 sit on either side of the cutoff, and the scan must
    # reproduce cKDTree's rounding bit for bit
    rng = np.random.default_rng(21)
    for dim, m, linf in itertools.product((1, 2, 3, 5, 8, 12), (1, 7, 40, 64, 65, 200), (False, True)):
        base = rng.standard_normal((m, dim))
        pts = np.concatenate([rng.standard_normal((500, dim)), base[rng.integers(0, m, 20)]])
        want = cKDTree(base).query(pts, p=np.inf if linf else 2)[0]
        # column-major rows are what the box draw hands over
        for batch in (pts, np.asfortranarray(pts)):
            got = min_dist(batch, base, linf)
            np.testing.assert_array_equal(got, want)
            assert (got[-20:] == 0.0).all()


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("linf", [False, True])
def test_min_dist_scan_holds_three_rows(dim, linf):
    # best and two scratch rows; a fresh array per coordinate and base point
    # used to lift the peak to four or five rows
    import tracemalloc

    n = 1_000_000
    rng = np.random.default_rng(26)
    pts = np.asfortranarray(rng.standard_normal((n, dim)))
    base = rng.standard_normal((8, dim))
    tracemalloc.start()
    try:
        min_dist(pts, base, linf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * 3 * 8 * n


@pytest.mark.parametrize("m", [64, 65])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_min_dist_rejects_non_finite_points(m, bad):
    # a NaN distance would otherwise be counted as a miss
    pts = np.ones((10, 3))
    pts[4, 1] = bad
    base = np.zeros((m, 3))
    bad_base = base.copy()
    bad_base[m - 1, 2] = bad
    for linf in (False, True):
        with pytest.raises(ValueError):
            min_dist(pts, base, linf)
        with pytest.raises(ValueError):
            min_dist(np.ones((10, 3)), bad_base, linf)


def test_small_bases_build_no_kd_tree(monkeypatch):
    # against a silent return to the per-chunk KD-tree for small bases;
    # min_dist imports cKDTree at the call, so patch it where it is looked up
    import scipy.spatial

    def no_tree(*args, **kwargs):
        raise AssertionError("cKDTree built")

    monkeypatch.setattr(scipy.spatial, "cKDTree", no_tree)
    rng = np.random.default_rng(22)
    base = PointSet(rng.uniform(-1, 1, (64, 3)))
    cfg = McConfig(samples=70_000, seed=23)
    for norm in NormKind:
        mc_volume(ParallelSetSpec(base=base, norm=norm, radius=0.5), cfg)
        kneser_shell_check(base, norm, 0.5, 1.0, 1.5, cfg)
    with pytest.raises(AssertionError, match="cKDTree built"):
        min_dist(np.zeros((1, 3)), rng.uniform(-1, 1, (65, 3)), False)


def test_mcconfig_validation():
    with pytest.raises(InvalidArgumentError):
        McConfig(samples=0, seed=1)
    with pytest.raises(InvalidArgumentError):
        McConfig(samples=10, seed=1, shell_delta=0.0)
    # a scope of no threads raises on entry, before any draw
    drawn = []
    with pytest.raises(InvalidArgumentError, match="workers must be >= 1"):
        with threads(0):
            drawn.append(mc_volume(spec_point(2), McConfig(samples=10, seed=1)))
    assert drawn == []
    # each scope gives the previous count back, also after an exception
    with threads(2):
        with pytest.raises(InvalidArgumentError):
            with threads(3):
                assert _rng._THREADS.get() == 3
                McConfig(samples=0, seed=1)
        assert _rng._THREADS.get() == 2
    assert _rng._THREADS.get() == 1


# The estimators as they were before they shared mc._band_estimates, kept
# verbatim as the reference for that core: same draws, counts and float order.


def reference_spec_distances(spec, x):
    return min_dist(x, spec.base.points, spec.norm is NormKind.LINF)


def reference_bounding_box(spec, extra=0.0):
    reach = spec.radius + extra
    lo = spec.base.points.min(axis=0) - reach
    hi = spec.base.points.max(axis=0) + reach
    return lo, hi, float(np.prod(hi - lo))


def reference_proportion_estimate(hits, n, scale):
    p = hits / n
    return MeasureEstimate(
        value=scale * p,
        std_error=scale * math.sqrt(p * (1.0 - p) / n),
        samples_used=n,
    )


def reference_mc_volume(spec, cfg):
    lo, hi, box_vol = reference_bounding_box(spec)
    span = hi - lo

    def chunk(g, n):
        x = lo + g.random((n, spec.base.dim)) * span
        return (int((reference_spec_distances(spec, x) <= spec.radius).sum()),)

    (hits,) = map_reduce_chunks(cfg.seed, cfg.samples, chunk)
    return reference_proportion_estimate(hits, cfg.samples, box_vol)


def reference_resolve_delta(cfg, r):
    return cfg.shell_delta if cfg.shell_delta is not None else r / 1000.0


def reference_mc_shell_lebesgue(spec, cfg):
    delta = reference_resolve_delta(cfg, spec.radius)
    lo, hi, box_vol = reference_bounding_box(spec, extra=delta)
    span = hi - lo
    r = spec.radius

    def chunk(g, n):
        x = lo + g.random((n, spec.base.dim)) * span
        d = reference_spec_distances(spec, x)
        return (int(((d > r) & (d <= r + delta)).sum()),)

    (hits,) = map_reduce_chunks(cfg.seed, cfg.samples, chunk)
    est = reference_proportion_estimate(hits, cfg.samples, box_vol)
    return MeasureEstimate(est.value / delta, est.std_error / delta, est.samples_used)


def reference_gaussian_shell(dim, inner, dist_fn, delta, cfg, sigma):
    if not (sigma > 0.0):
        raise InvalidArgumentError("sigma must be positive")

    def chunk(g, n):
        x = g.standard_normal((n, dim)) * sigma
        d = dist_fn(x)
        return (int(((d > inner) & (d <= inner + delta)).sum()),)

    (hits,) = map_reduce_chunks(cfg.seed, cfg.samples, chunk)
    est = reference_proportion_estimate(hits, cfg.samples, 1.0)
    return MeasureEstimate(est.value / delta, est.std_error / delta, est.samples_used)


def reference_mc_gaussian_shell(spec, cfg, sigma=1.0):
    delta = reference_resolve_delta(cfg, spec.radius)
    dist_fn = lambda x: reference_spec_distances(spec, x)
    return reference_gaussian_shell(spec.base.dim, spec.radius, dist_fn, delta, cfg, sigma)


def reference_mc_halfspace_gaussian_shell(dim, cfg, sigma=1.0):
    delta = reference_resolve_delta(cfg, 1.0)
    dist_fn = lambda x: np.maximum(x[:, 0], 0.0)
    return reference_gaussian_shell(dim, 0.0, dist_fn, delta, cfg, sigma)


def reference_kneser_shell_check(base, norm, a_k, b_k, t, cfg):
    outer = ParallelSetSpec(base=base, norm=norm, radius=t * b_k)
    lo, hi, box_vol = reference_bounding_box(outer)
    span = hi - lo
    dim = base.dim

    def chunk(g, n):
        x = lo + g.random((n, dim)) * span
        d = min_dist(x, base.points, norm is NormKind.LINF)
        lhs = int(((d > t * a_k) & (d <= t * b_k)).sum())
        rhs = int(((d > a_k) & (d <= b_k)).sum())
        return lhs, rhs

    lhs_hits, rhs_hits = map_reduce_chunks(cfg.seed, cfg.samples, chunk)
    lhs = reference_proportion_estimate(lhs_hits, cfg.samples, box_vol)
    rhs = reference_proportion_estimate(rhs_hits, cfg.samples, box_vol)
    scale = t**dim
    combined = math.sqrt(lhs.std_error**2 + (scale * rhs.std_error) ** 2)
    return BoundReport.compare(
        "kneser-shell", bound_value=scale * rhs.value, measured=lhs.value, std_error=combined
    )


def test_band_core_matches_reference_estimators():
    # two chunks, the last one partial, so two threads split the stream
    samples = CHUNK + 4321
    rng = np.random.default_rng(24)
    for dim, norm, delta, workers in itertools.product(
        range(1, 5), NormKind, (None, 0.03), (1, 2)
    ):
        with threads(workers):
            seed = int(rng.integers(1 << 32))
            cfg = McConfig(samples=samples, seed=seed, shell_delta=delta)
            base = PointSet(rng.uniform(-1.0, 1.0, (int(rng.integers(1, 9)), dim)))
            spec = ParallelSetSpec(base=base, norm=norm, radius=float(rng.uniform(0.2, 1.0)))
            sigma = float(rng.uniform(0.5, 2.0))
            pairs = [
                (mc_volume(spec, cfg), reference_mc_volume(spec, cfg)),
                (mc_shell_lebesgue(spec, cfg), reference_mc_shell_lebesgue(spec, cfg)),
            ]
            # planar shells are exact areas (test_kneser_planar_shells_are_exact_areas),
            # L-inf ones exact cube-union volumes in every dimension
            if dim != 2 and norm is NormKind.L2:
                pairs.append(
                    (
                        kneser_shell_check(base, norm, 0.3, 0.6, 1.4, cfg),
                        reference_kneser_shell_check(base, norm, 0.3, 0.6, 1.4, cfg),
                    )
                )
            pairs += [
                (mc_gaussian_shell(spec, cfg, sigma), reference_mc_gaussian_shell(spec, cfg, sigma)),
                (mc_halfspace_gaussian_shell(dim, cfg, sigma),
                 reference_mc_halfspace_gaussian_shell(dim, cfg, sigma)),
            ]
            for got, want in pairs:
                assert got == want, (dim, norm, delta, workers)


def test_box_draws_are_the_broadcast_formula():
    # a last-bit change in the draws seldom moves a band count, so the draws
    # themselves are compared with lo + u * span
    from parset.mc import _band_estimates

    rng = np.random.default_rng(27)
    for dim in (1, 2, 3, 5):
        points, reach = rng.uniform(-1.0, 1.0, (4, dim)), 0.7
        seen = []

        def record(x):
            seen.append(np.array(x))
            return np.zeros(len(x))

        _band_estimates(McConfig(samples=CHUNK + 100, seed=28), dim, record,
                        [(-math.inf, 0.0, 1.0)], box=(points, reach))
        lo = points.min(axis=0) - reach
        span = (points.max(axis=0) + reach) - lo
        assert [len(x) for x in seen] == [CHUNK, 100]
        for k, x in enumerate(seen):
            np.testing.assert_array_equal(x, lo + chunk_generator(28, k).random((len(x), dim)) * span)


def test_band_core_argument_errors():
    cfg = McConfig(samples=10, seed=1)
    with pytest.raises(InvalidArgumentError, match="sigma must be a positive finite real"):
        mc_halfspace_gaussian_shell(2, cfg, sigma=0.0)
    with pytest.raises(InvalidArgumentError, match="sigma must be a positive finite real"):
        mc_gaussian_shell(spec_point(2), cfg, sigma=-1.0)
