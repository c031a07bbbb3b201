"""parset: measures of r-parallel sets, reverse isoperimetric bound checks,
and empirical robust-risk estimation."""

__version__ = "0.1.0"

from .bounds import (
    BoundReport,
    GaussianConstantBreakdown,
    MeasureEstimate,
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
from .entropy import (
    GaussianMixture,
    convolve_mixtures,
    de_bruijn_check,
    entropy_mc,
    entropy_quadrature,
    fisher_information_mc,
    fisher_information_quadrature,
    mixture_density,
    reverse_epi_check,
)
from .errors import InvalidArgumentError, RangeOverflowError
from .exact2d import (
    ArcDecomposition,
    BoundarySegment,
    SegmentDecomposition,
    disk_union_area,
    disk_union_boundary,
    disk_union_perimeter,
    rasterized_measures,
    square_union_area,
    square_union_boundary,
    square_union_perimeter,
    union_boundary,
)
from .geometry import (
    NormKind,
    ParallelSetSpec,
    PointSet,
    load_points,
    load_points_csv,
    load_points_json,
)
from .mc import (
    McConfig,
    cube_union_measures,
    inscribed_angle_check,
    kneser_shell_check,
    mc_gaussian_shell,
    mc_halfspace_gaussian_shell,
    mc_shell_lebesgue,
    mc_volume,
    mc_volume_and_shell,
)
from .suite import SUITES, Profile, RunManifest, SuiteConfig, run_suite
from .transport import (
    DistributionSpec,
    EmpiricalMeasure,
    TransportResult,
    check_w1_domination,
    convergence_experiment,
    coupling_sandwich_check,
    d_r_brute_force,
    d_r_uniform,
    d_r_uniform_many,
    d_r_weighted,
    robust_risk,
    sample_distribution,
    w1_empirical,
)
