import math

import mpmath as mp
import pytest

from parset import bounds
from parset import (
    BoundReport,
    InvalidArgumentError,
    NormKind,
    RangeOverflowError,
    Verdict,
    bound_bounded_support,
    bound_shell_volume,
    bound_union_in_ball,
    bound_union_in_cube,
    bound_volume_constrained,
    gaussian_constant,
    gaussian_surface_bound,
    reverse_bm_bound,
    reverse_epi_constant,
    sample_complexity_n0,
)


def test_union_in_ball_values():
    assert bound_union_in_ball(2, 1.0) == pytest.approx(4.0 * math.pi)
    assert bound_union_in_ball(1, 1.0) == pytest.approx(2.0)
    assert bound_union_in_ball(3, 2.0) == pytest.approx(64.0 * math.pi)


def test_union_in_cube_values():
    assert bound_union_in_cube(2, 1.0) == pytest.approx(16.0)
    assert bound_union_in_cube(1, 1.0) == pytest.approx(2.0)
    assert bound_union_in_cube(3, 1.0) == pytest.approx(96.0)


def test_volume_constrained_values():
    assert bound_volume_constrained(1, 1.0, 2.0) == pytest.approx(4.0)
    assert bound_volume_constrained(2, 1.0, 0.0) == 0.0
    # (V/r) * 2^(2d-1) * d with d=2, r=0.5, V=pi
    assert bound_volume_constrained(2, 0.5, math.pi) == pytest.approx(32.0 * math.pi)


def test_shell_volume_values():
    assert bound_shell_volume(2, 1.0, 1.0, math.pi) == pytest.approx(24.0 * math.pi)
    assert bound_shell_volume(2, 1.0, 1.0, 0.0) == 0.0


def test_shell_volume_calculus_identity():
    # shell bound divided by delta approaches the surface bound as delta -> 0
    for d, r, vol in [(1, 1.0, 2.0), (2, 0.7, 3.0), (4, 1.3, 10.0)]:
        delta = 1e-9
        limit = bound_shell_volume(d, r, delta, vol) / delta
        assert limit == pytest.approx(bound_volume_constrained(d, r, vol), rel=1e-6)


def test_bounded_support_values():
    ball, cube = bound_bounded_support(2, 1.0, 1.0)
    assert ball == pytest.approx(36.0 * math.pi)
    assert cube == pytest.approx(math.pi * (1.0 + math.sqrt(2.0) / 2.0) ** 2 * 2.0 * 8.0)
    # R = 0 reduces the packing factor to 1
    ball0, _ = bound_bounded_support(3, 0.0, 1.0)
    assert ball0 == pytest.approx(bound_union_in_ball(3, 1.0) / 2.0 ** (3 - 1) * 4)
    # equivalently: 1 * 2^(d-1) * d * omega_d * r^(d-1) = 2^(d-1) * Omega_d * r^(d-1)
    assert ball0 == pytest.approx(bound_union_in_ball(3, 1.0))


def test_gaussian_constant_d1_high_precision():
    mp.mp.dps = 40
    d = 1
    pref = (
        mp.mpf(2) ** (2 * d - 1)
        * (d * mp.pi ** (mp.mpf(d) / 2) / mp.gamma(1 + mp.mpf(d) / 2))
        / (2 * mp.pi) ** (mp.mpf(d) / 2)
    )
    total = sum(
        mp.binomial(d, i)
        * mp.mpf(2) ** ((d - i) / mp.mpf(2))
        * mp.gamma(1 + (d - i) / mp.mpf(2))
        * mp.mpf(1.5) ** i
        for i in range(d + 1)
    )
    want = float(pref * total)
    got = gaussian_constant(1, NormKind.L2)
    assert got.constant_C == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("norm", [NormKind.L2, NormKind.LINF])
def test_gaussian_constant_sandwich(norm):
    # every d whose sandwich is in double range
    for d in range(1, 282 if norm is NormKind.L2 else 142):
        bd = gaussian_constant(d, norm)
        assert bd.lower_sandwich <= bd.constant_C <= bd.upper_sandwich
        assert bd.lower_sandwich == pytest.approx(2.0 ** (2 * d - 1) * d, rel=1e-12)
        assert bd.constant_C == gaussian_surface_bound(d, 1.0, norm=norm)


def test_gaussian_constant_linf_vs_l2():
    l2 = gaussian_constant(2, NormKind.L2).constant_C
    li = gaussian_constant(2, NormKind.LINF).constant_C
    assert l2 > 0 and li > 0  # only the per-norm sandwiches are contractual


def test_gaussian_surface_bound_values():
    c = gaussian_constant(3).constant_C
    assert gaussian_surface_bound(3, 1.0, 1.0) == pytest.approx(c)
    assert gaussian_surface_bound(3, 0.1, 1.0) == pytest.approx(10.0 * c)
    assert gaussian_surface_bound(3, 2.0, 0.5) == pytest.approx(2.0 * c)


# (d, norm) past the end of gaussian_constant's sandwich (L-inf from d = 142,
# L2 from d = 282) with C still in double range (L-inf to d = 287, L2 to 484)
_PAST_THE_SANDWICH = [
    (150, NormKind.LINF), (280, NormKind.LINF), (300, NormKind.L2), (480, NormKind.L2)
]


@pytest.mark.parametrize("d, norm", _PAST_THE_SANDWICH, ids=str)
def test_gaussian_surface_bound_needs_only_c(d, norm):
    with pytest.raises(RangeOverflowError, match="gaussian_constant sandwich exceeds"):
        gaussian_constant(d, norm)
    want = math.exp(bounds._log_gaussian_constant(d, norm))
    assert gaussian_surface_bound(d, 1.0, norm=norm) == want < math.inf


@pytest.mark.parametrize("d, norm", [(288, NormKind.LINF), (485, NormKind.L2)], ids=str)
def test_gaussian_surface_bound_raises_past_c(d, norm):
    with pytest.raises(RangeOverflowError, match="gaussian_constant exceeds double range"):
        gaussian_surface_bound(d, 1.0, norm=norm)


def test_gaussian_surface_bound_monotone():
    prev = math.inf
    for r in [0.1, 0.5, 1.0, 2.0, 5.0]:
        val = gaussian_surface_bound(2, r, 1.0)
        assert val <= prev + 1e-12
        prev = val


def test_reverse_bm_values():
    assert reverse_bm_bound(1, 1.0) == pytest.approx(8.0)
    assert reverse_bm_bound(2, 2.0) == pytest.approx(2.0**8 / (math.pi * 4.0))
    # homogeneity: doubling r divides the bound by 2^d
    assert reverse_bm_bound(3, 2.0) == pytest.approx(reverse_bm_bound(3, 1.0) / 8.0)


def test_reverse_epi_constant():
    assert reverse_epi_constant(4, 1.0 / math.pi) == pytest.approx(0.0, abs=1e-12)
    assert reverse_epi_constant(2, 1.0) == pytest.approx(-math.log(math.pi))
    assert reverse_epi_constant(3, 0.2) > 0.0  # positive iff r < 1/pi
    assert reverse_epi_constant(3, 0.5) < 0.0


def test_sample_complexity_regression():
    # frozen plug-in value for d=3, sigma=1, r=1, eps=0.3, delta=0.1, c0=c1=1
    assert sample_complexity_n0(3, 1.0, 1.0, 0.3, 0.1) == 219801122752967


def test_sample_complexity_tiny_eps_is_past_double_range():
    # eta * eps / 2 underflowed to 0 and log(0) raised a math domain error
    with pytest.raises(RangeOverflowError, match="sample_complexity_n0"):
        sample_complexity_n0(2, 1.0, 1.0, 1e-300, 0.1)


def test_sample_complexity_needs_only_c():
    # at d = 300 gaussian_constant's sandwich is past double range, but C,
    # the count and every step between are not
    c = math.exp(bounds._log_gaussian_constant(300, NormKind.L2))
    eta = 200.0 / (2.0 * max(c / 1e190, c / (2.0 * 1e190 / 3.0)))
    want = math.log(20.0) / (eta * 200.0 / 2.0) ** 300
    assert sample_complexity_n0(300, 1e190, 1e190, 200.0, 0.1) == math.ceil(want) == 26
    with pytest.raises(RangeOverflowError, match="sample_complexity_n0 exceeds double range"):
        sample_complexity_n0(300, 1.0, 1.0, 0.3, 0.1)


def test_sample_complexity_delta_doubling():
    n1 = sample_complexity_n0(3, 1.0, 1.0, 0.3, 0.1)
    n2 = sample_complexity_n0(3, 1.0, 1.0, 0.3, 0.05)
    from parset import gaussian_constant as gc

    c = gc(3).constant_C
    eta = 0.3 / (2.0 * max(c, c / (2.0 / 3.0)))
    extra = math.log(2.0) / (eta * 0.3 / 2.0) ** 3
    assert n2 - n1 == pytest.approx(extra, rel=1e-6)


def test_sample_complexity_eps_scaling():
    # when C/sigma dominates, halving eps multiplies the count by ~2^(2d)
    n1 = sample_complexity_n0(3, 1.0, 1.0, 0.2, 0.1)
    n2 = sample_complexity_n0(3, 1.0, 1.0, 0.1, 0.1)
    assert n2 / n1 == pytest.approx(2.0**6, rel=1e-6)


def test_sample_complexity_validation():
    with pytest.raises(InvalidArgumentError, match="eta"):
        # enormous eps pushes eta past r/3
        sample_complexity_n0(1, 100.0, 0.001, 50.0, 0.1)
    with pytest.raises(InvalidArgumentError):
        sample_complexity_n0(2, 1.0, 1.0, 0.3, 1.5)
    with pytest.raises(InvalidArgumentError):
        sample_complexity_n0(2, 1.0, 1.0, 0.3, 0.1, c0=0.5)


def test_overflow_raises():
    with pytest.raises(RangeOverflowError):
        bound_union_in_cube(500, 10.0)
    with pytest.raises((RangeOverflowError, OverflowError)):
        gaussian_constant(400)


def test_bounded_support_subnormal_radius():
    # r / 2 underflowed to 0 at the smallest subnormal, and log(0) raised a
    # math domain error; the bound itself is past double range there
    with pytest.raises(RangeOverflowError):
        bound_bounded_support(2, 1.0, 5e-324)
    # at r = 1e-300 it is finite: ((R + r/2) / (r/2))^2 * 2 * 2 * pi * r = 16 pi / r
    ball, cube = bound_bounded_support(2, 1.0, 1e-300)
    assert ball == pytest.approx(16.0 * math.pi * 1e300, rel=1e-12)
    assert math.isfinite(cube)


@pytest.mark.parametrize("sigma, r", [(1e-320, 1.0), (1.0, 1e-320)])
def test_gaussian_surface_bound_past_double_range_raises(sigma, r):
    # max(C / sigma, C / r) used to come back as inf
    with pytest.raises(RangeOverflowError, match="gaussian_surface_bound exceeds double range"):
        gaussian_surface_bound(2, r, sigma)


def test_union_in_ball_past_omega_underflow():
    # omega_453 underflows to 0.0 in double precision; the bound itself is 4.94e-186
    d = 453
    omega = mp.pi ** (mp.mpf(d) / 2) / mp.gamma(1 + mp.mpf(d) / 2)
    expected = float(mp.mpf(2) ** (d - 1) * d * omega)
    assert bound_union_in_ball(d, 1.0) == pytest.approx(expected, rel=1e-12)


def test_monotonicity():
    assert bound_volume_constrained(2, 1.0, 2.0) > bound_volume_constrained(2, 1.0, 1.0)
    assert bound_volume_constrained(2, 2.0, 1.0) < bound_volume_constrained(2, 1.0, 1.0)


def test_bound_report_verdict_logic():
    rep = BoundReport.compare("x", 1.0, measured=1.5, std_error=0.2)
    assert rep.verdict is Verdict.PASS  # 1.5 - 0.8 <= 1.0
    rep = BoundReport.compare("x", 1.0, measured=2.0, std_error=0.2)
    assert rep.verdict is Verdict.FAIL
    rep = BoundReport.uncompared("x", 1.0)
    assert rep.verdict is Verdict.NOT_COMPARED
    assert rep.measured is None


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_bound_report_non_finite_fails(bad):
    assert BoundReport.compare("x", bad, measured=0.0).verdict is Verdict.FAIL
    assert BoundReport.compare("x", 1.0, measured=bad).verdict is Verdict.FAIL
    assert BoundReport.compare("x", 1.0, measured=0.0, std_error=bad).verdict is Verdict.FAIL
