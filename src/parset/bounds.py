"""Closed-form constants, bound comparisons, and the one type of measured
value they compare against, MeasureEstimate (exact where samples_used == 0).

Every formula is evaluated in log space with one final exponentiation; a
result past double range raises RangeOverflowError instead of returning inf.
The Gaussian bounds exponentiate the constant C alone; gaussian_constant
adds the sandwich `parset bounds` prints, whose upper end overflows first.
All logarithms are natural, entropies are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .errors import InvalidArgumentError, RangeOverflowError
from .geometry import NormKind, _log_omega, nonnegative_real, positive_radius, positive_real

_LOG_DBL_MAX = math.log(1.7976931348623157e308)


class Verdict(Enum):
    PASS = "pass"
    FAIL = "fail"
    NOT_COMPARED = "not-compared"


@dataclass(frozen=True)
class MeasureEstimate:
    """A measured value.  With samples_used > 0 it is a Monte Carlo estimate
    from that many draws and std_error is its standard error; with
    samples_used == 0 it is exact (a union volume, a quadrature integral, a
    solid angle) and std_error is its rounding or truncation allowance."""

    value: float
    std_error: float
    samples_used: int


@dataclass(frozen=True)
class BoundReport:
    """A bound's value next to a measured quantity, with a 4-sigma verdict.

    fail when measured - 4 * std_error > bound_value, or when any of the
    three numbers is NaN or infinite.
    """

    bound_name: str
    bound_value: float
    measured: float | None = None
    std_error: float = 0.0
    slack: float | None = field(default=None)
    verdict: Verdict = field(default=Verdict.NOT_COMPARED)

    @classmethod
    def compare(
        cls, name: str, bound_value: float, measured: float, std_error: float = 0.0
    ) -> "BoundReport":
        finite = all(math.isfinite(v) for v in (bound_value, measured, std_error))
        fails = not finite or measured - 4.0 * std_error > bound_value
        verdict = Verdict.FAIL if fails else Verdict.PASS
        return cls(
            bound_name=name,
            bound_value=bound_value,
            measured=measured,
            std_error=std_error,
            slack=bound_value - measured,
            verdict=verdict,
        )

    @classmethod
    def sweep(cls, name: str, bound_value: float, values) -> "BoundReport":
        """compare the worst of a sweep's per-instance values (see worst_excess)."""
        return cls.compare(name, bound_value, worst_excess(values)[0])

    @classmethod
    def uncompared(cls, name: str, bound_value: float) -> "BoundReport":
        return cls(bound_name=name, bound_value=bound_value)


def worst_excess(values) -> tuple[float, int]:
    """(largest value, its index) over per-instance values, in order.

    A NaN value is kept as the worst, so a sweep with a NaN instance fails;
    no values give (-inf, -1), so an empty sweep fails too.
    """
    worst, at = -math.inf, -1
    for k, value in enumerate(values):
        if value > worst or math.isnan(value):
            worst, at = value, k
    return worst, at


@dataclass(frozen=True)
class GaussianConstantBreakdown:
    """gaussian_constant's C between the two ends of its sandwich."""

    constant_C: float
    lower_sandwich: float
    upper_sandwich: float


def _exp_checked(log_value: float, what: str) -> float:
    if log_value > _LOG_DBL_MAX:
        raise RangeOverflowError(f"{what} exceeds double range (log value {log_value:.3f})")
    return math.exp(log_value)


def _check_dim(d: int, r: float | None = None) -> None:
    """d >= 1, and r, when given, a positive finite radius."""
    if d < 1:
        raise InvalidArgumentError("dimension must be >= 1")
    if r is not None:
        positive_radius(r)


def bound_union_in_ball(d: int, r: float) -> float:
    """2^(d-1) * Omega_d * r^(d-1): surface cap for unions centred inside a ball."""
    _check_dim(d, r)
    return _exp_checked(
        (d - 1) * math.log(2.0) + math.log(d) + _log_omega(d) + (d - 1) * math.log(r),
        "bound_union_in_ball",
    )


def bound_union_in_cube(d: int, r: float) -> float:
    """2d * (4r)^(d-1): surface cap for cube unions centred inside a cube."""
    _check_dim(d, r)
    return _exp_checked(
        math.log(2.0 * d) + (d - 1) * math.log(4.0 * r), "bound_union_in_cube"
    )


def bound_volume_constrained(d: int, r: float, volume: float) -> float:
    """(V/r) * 2^(2d-1) * d: surface cap given a volume budget."""
    _check_dim(d, r)
    if nonnegative_real(volume, "volume") == 0.0:
        return 0.0
    return _exp_checked(
        math.log(volume) - math.log(r) + (2 * d - 1) * math.log(2.0) + math.log(d),
        "bound_volume_constrained",
    )


def bound_shell_volume(d: int, r: float, delta: float, volume: float) -> float:
    """(V/r^d) * 2^(2d-1) * ((r+delta)^d - r^d): shell volume cap."""
    _check_dim(d, r)
    positive_real(delta, "delta")
    if nonnegative_real(volume, "volume") == 0.0:
        return 0.0
    # (r+delta)^d - r^d = r^d * expm1(d * log1p(delta/r)), stable for tiny delta
    growth = math.expm1(d * math.log1p(delta / r))
    return _exp_checked(
        math.log(volume) + (2 * d - 1) * math.log(2.0) + math.log(growth),
        "bound_shell_volume",
    )


def bound_bounded_support(d: int, big_r: float, r: float) -> tuple[float, float]:
    """Surface caps for a base set inside B(R): (ball variant, cube variant)."""
    _check_dim(d, r)
    nonnegative_real(big_r, "enclosing radius")
    log_omega = _log_omega(d)
    ball = _exp_checked(
        # log(r) - log 2, not log(r / 2): r / 2 underflows to 0 at r = 5e-324
        d * (math.log(big_r + r / 2.0) - math.log(r) + math.log(2.0))
        + (d - 1) * math.log(2.0)
        + math.log(d)
        + log_omega
        + (d - 1) * math.log(r),
        "bound_bounded_support (ball)",
    )
    cube = _exp_checked(
        log_omega
        + d * math.log(big_r + r * math.sqrt(d) / 2.0)
        + math.log(d)
        - math.log(r)
        + (2 * d - 1) * math.log(2.0),
        "bound_bounded_support (cube)",
    )
    return ball, cube


def _log_sum_exp(values) -> float:
    m = max(values)
    return m + math.log(sum(math.exp(v - m) for v in values))


def _log_gaussian_constant(d: int, norm: NormKind) -> float:
    """log C, with C = (2*pi)^(-d/2) * 2^(2d-1) * d * omega_d * sum_i C_i and
    C_i = binom(d,i) * 2^((d-i)/2) * Gamma(1+(d-i)/2) * (3/2)^i, the cube
    variant carrying an extra (sqrt d)^i per coefficient; one log-sum-exp
    over the log C_i, so no C_i is formed."""
    _check_dim(d)
    log_coeffs = []
    for i in range(d + 1):
        v = (
            math.lgamma(d + 1) - math.lgamma(i + 1) - math.lgamma(d - i + 1)
            + 0.5 * (d - i) * math.log(2.0)
            + math.lgamma(1.0 + 0.5 * (d - i))
            + i * math.log(1.5)
        )
        if norm is NormKind.LINF:
            v += 0.5 * i * math.log(d)
        log_coeffs.append(v)
    log_prefactor = (
        -0.5 * d * math.log(2.0 * math.pi)
        + (2 * d - 1) * math.log(2.0)
        + math.log(d)
        + _log_omega(d)
    )
    return log_prefactor + _log_sum_exp(log_coeffs)


def _gaussian_c(d: int, norm: NormKind) -> float:
    return _exp_checked(_log_gaussian_constant(d, norm), "gaussian_constant")


def gaussian_constant(d: int, norm: NormKind = NormKind.L2) -> GaussianConstantBreakdown:
    """Dimension constant C for the Gaussian surface-area cap (see
    _log_gaussian_constant), with its sandwich
    2^(2d-1)*d <= C <= 2^(2d-1)*d^2*3^d, the cube upper end gaining d^(d/2).
    Raises RangeOverflowError where C or an end of the sandwich is past
    double range."""
    constant = _gaussian_c(d, norm)
    log_lower = (2 * d - 1) * math.log(2.0) + math.log(d)
    log_upper = (2 * d - 1) * math.log(2.0) + 2.0 * math.log(d) + d * math.log(3.0)
    if norm is NormKind.LINF:
        log_upper += 0.5 * d * math.log(d)
    return GaussianConstantBreakdown(
        constant_C=constant,
        lower_sandwich=_exp_checked(log_lower, "gaussian_constant sandwich"),
        upper_sandwich=_exp_checked(log_upper, "gaussian_constant sandwich"),
    )


def gaussian_surface_bound(
    d: int, r: float, sigma: float = 1.0, norm: NormKind = NormKind.L2
) -> float:
    """max(C/sigma, C/r) with gaussian_constant's C, taken without its sandwich."""
    positive_radius(r)
    positive_real(sigma, "sigma")
    c = _gaussian_c(d, norm)
    bound = max(c / sigma, c / r)
    if bound == math.inf:
        raise RangeOverflowError("gaussian_surface_bound exceeds double range")
    return bound


def reverse_bm_bound(d: int, r: float) -> float:
    """2^(4d) / (omega_d * r^d): Minkowski-sum volume inflation factor."""
    _check_dim(d, r)
    return _exp_checked(
        4 * d * math.log(2.0) - _log_omega(d) - d * math.log(r),
        "reverse_bm_bound",
    )


def reverse_epi_constant(d: int, r: float) -> float:
    """-(d/2) * ln(pi * r): additive entropy slack for smoothed sums."""
    _check_dim(d, r)
    return -0.5 * d * math.log(math.pi * r)


def sample_complexity_n0(
    d: int,
    sigma: float,
    r: float,
    eps: float,
    delta: float,
    c0: float = 1.0,
    c1: float = 1.0,
) -> int:
    """Sample count for the plug-in transport estimator's deviation guarantee.

    eta = eps / (2 * max(C/sigma, C/(2r/3))) must land in (0, r/3); the count
    is ceil((log(2/delta) + log c0) / (c1 * (eta*eps/2)^d)).  c0 and c1 are
    tail constants not pinned by theory; defaults of 1.0 are placeholders.
    """
    _check_dim(d, r)
    positive_real(eps, "eps")
    if not (0.0 < delta < 1.0):
        raise InvalidArgumentError("delta must lie in (0, 1)")
    if not (1.0 <= c0 < math.inf):
        raise InvalidArgumentError("c0 must be a finite real >= 1")
    positive_real(c1, "c1")
    positive_real(sigma, "sigma")
    c = _gaussian_c(d, NormKind.L2)
    c_sr = max(c / sigma, c / (2.0 * r / 3.0))
    eta = eps / (2.0 * c_sr)
    if not (0.0 < eta < r / 3.0):
        raise InvalidArgumentError(
            f"eta = {eta:.6g} falls outside (0, r/3); eps too large for this r and sigma"
        )
    log_n0 = (
        math.log(math.log(2.0 / delta) + math.log(c0))
        - math.log(c1)
        # summed logs: the product eta * eps / 2 underflows to 0 for tiny eps
        - d * (math.log(eta) + math.log(eps) - math.log(2.0))
    )
    value = _exp_checked(log_n0, "sample_complexity_n0")
    if value >= 2**63:
        raise RangeOverflowError("sample_complexity_n0 exceeds a 64-bit integer")
    return math.ceil(value)


# name -> function; `parset bounds` reads each bound's parameters from its signature
BOUND_CATALOG = {
    "union-in-ball": bound_union_in_ball,
    "union-in-cube": bound_union_in_cube,
    "volume-constrained": bound_volume_constrained,
    "shell-volume": bound_shell_volume,
    "bounded-support": bound_bounded_support,
    "gaussian-surface": gaussian_surface_bound,
    "reverse-bm": reverse_bm_bound,
    "reverse-epi-constant": reverse_epi_constant,
    "sample-complexity-n0": sample_complexity_n0,
}
