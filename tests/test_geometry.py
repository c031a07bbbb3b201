import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parset import (
    InvalidArgumentError,
    NormKind,
    ParallelSetSpec,
    PointSet,
    load_points_csv,
    load_points_json,
)
from parset import _kernels, bounds, entropy, mc, transport
from parset.experiment import ExperimentConfig, run_verify_experiment
from parset.geometry import (
    json_real,
    json_reals,
    nonnegative_real,
    positive_real,
    reading,
    shell_params,
)
from parset.transport import EmpiricalMeasure


def test_distance_identity():
    assert _kernels.min_dist(np.zeros((1, 2)), np.zeros((1, 2)), False)[0] == 0.0


def test_distance_pythagorean():
    x, a = np.array([[3.0, 4.0]]), np.zeros((1, 2))
    assert _kernels.min_dist(x, a, False)[0] == pytest.approx(5.0)
    assert _kernels.min_dist(x, a, True)[0] == pytest.approx(4.0)


def test_distance_dimension_mismatch():
    with pytest.raises(ValueError, match="rows of length 2"):
        _kernels.min_dist(np.array([[1.0, 2.0, 3.0]]), np.zeros((1, 2)), False)


def test_distance_zero_iff_member():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert _kernels.min_dist(np.array([[3.0, 4.0]]), a, False)[0] == 0.0
    assert _kernels.min_dist(np.array([[3.0, 4.0 + 1e-9]]), a, False)[0] > 0.0


def test_point_set_distances_reach_min_dist(monkeypatch):
    # every point-to-set distance is _kernels.min_dist, looked up at call time
    def no_min_dist(*args, **kwargs):
        raise AssertionError("min_dist reached")

    monkeypatch.setattr(_kernels, "min_dist", no_min_dist)
    verify = ExperimentConfig(
        name="demo",
        module="bounds",
        parameters={"points": [[0.0, 0.0], [0.5, 0.0]], "checks": ["union-in-ball"]},
        seed=1,
    )
    with pytest.raises(AssertionError, match="min_dist reached"):
        run_verify_experiment(verify)


@given(st.lists(st.floats(-5, 5), min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_norm_sandwich(coords):
    x, a = np.array([coords]), np.zeros((1, len(coords)))
    dl2 = _kernels.min_dist(x, a, False)[0]
    dli = _kernels.min_dist(x, a, True)[0]
    assert dli <= dl2 + 1e-12
    assert dl2 <= math.sqrt(len(coords)) * dli + 1e-12


def test_pointset_validation():
    with pytest.raises(InvalidArgumentError):
        PointSet(np.zeros((0, 2)))
    with pytest.raises(InvalidArgumentError):
        PointSet([[np.inf, 0.0]])
    with pytest.raises(InvalidArgumentError):
        ParallelSetSpec(base=PointSet([[0.0]]), norm=NormKind.L2, radius=0.0)


def test_csv_round_trip(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("x0,x1\n1.5,-2.25\n0,1e-17\n")
    back = load_points_csv(path)
    np.testing.assert_array_equal(back.points, [[1.5, -2.25], [0.0, 1e-17]])


def test_csv_rejects_ragged(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x0,x1\n1.0,2.0\n3.0\n")
    with pytest.raises(InvalidArgumentError, match="ragged"):
        load_points_csv(path)


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1.0,2.0\n")
    with pytest.raises(InvalidArgumentError, match="header"):
        load_points_csv(path)


def reference_load_points_csv(path):
    """The row-by-row reader: every row's floats in turn, each error at its
    line.  Returns the points or the error message."""
    import csv

    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return f"{path}: empty point file"
        dim = len(header)
        expected = [f"x{i}" for i in range(dim)]
        if [h.strip() for h in header] != expected:
            return f"{path}: header must be {','.join(expected)}, got {','.join(header)}"
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != dim:
                return f"{path}:{lineno}: ragged row of width {len(row)}"
            try:
                rows.append([float(v) for v in row])
            except ValueError:
                return f"{path}:{lineno}: non-numeric coordinate"
    if not rows:
        return f"{path}: no points"
    try:
        return PointSet(np.asarray(rows)).points
    except InvalidArgumentError as exc:
        return f"{path}: {exc}"


_CSV_TEXTS = {
    "plain": "x0,x1\n1.5,-2\n0,3e-300\n",
    "quoted": 'x0,x1\n"1.5","-2.25"\n"1e3",4\n',
    "padded": "x0, x1\n 1.5 ,\t-2 \n  7,8\n",
    "underscores": "x0\n1_0\n2_000.5\n",
    "blank-rows": "x0,x1\n\n1,2\n\n\n3,4\n\n",
    "one-column": "x0\n1\n2\n3\n",
    "three-columns": "x0,x1,x2\n1,2,3\n4,5,6\n",
    "inf": "x0,x1\n1,2\ninf,0\n",
    "nan": "x0,x1\n1,nan\n",
    "ragged": "x0,x1\n1,2\n3\n4,5\n",
    "ragged-wide": "x0,x1\n1,2\n3,4,5\n",
    "non-numeric": "x0,x1\n1,2\n3,four\n5,6\n",
    "non-numeric-after-blanks": "x0,x1\n\n1,2\n\n\nx,2\n",
    "non-numeric-before-ragged": "x0,x1\n1,2\n3,y\n4\n",
    "ragged-before-non-numeric": "x0,x1\n1,2\n4\n3,y\n",
    "empty-field": "x0,x1\n1,\n",
    "header-only": "x0,x1\n",
    "header-and-blanks": "x0,x1\n\n\n",
    "empty": "",
    "bad-header": "a,b\n1,2\n",
}


@pytest.mark.parametrize("name", sorted(_CSV_TEXTS))
def test_csv_reader_matches_row_by_row_reader(tmp_path, name):
    path = tmp_path / f"{name}.csv"
    path.write_text(_CSV_TEXTS[name])
    want = reference_load_points_csv(path)
    if isinstance(want, str):
        with pytest.raises(InvalidArgumentError) as exc:
            load_points_csv(path)
        assert str(exc.value) == want
    else:
        got = load_points_csv(path).points
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)
    # the cases that must fail, fail, and where
    failing = {"ragged": ":3: ragged", "ragged-wide": ":3: ragged", "non-numeric": ":3: non-numeric",
               "non-numeric-after-blanks": ":6: non-numeric",
               "non-numeric-before-ragged": ":3: non-numeric", "ragged-before-non-numeric": ":3: ragged",
               "empty-field": ":2: non-numeric", "header-only": ": no points",
               "header-and-blanks": ": no points", "inf": "finite", "nan": "finite",
               "empty": "empty point file", "bad-header": "header must be"}
    assert isinstance(want, str) == (name in failing)
    if name in failing:
        assert failing[name] in want


def test_json_round_trip(tmp_path):
    path = tmp_path / "pts.json"
    path.write_text("[[1.0, 2.0, 3.0], [-2.25, 0, 1e-17]]\n")
    back = load_points_json(path)
    np.testing.assert_array_equal(back.points, [[1.0, 2.0, 3.0], [-2.25, 0.0, 1e-17]])


def test_json_rejects_ragged(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[[1.0, 2.0], [3.0]]")
    with pytest.raises(InvalidArgumentError, match="ragged"):
        load_points_json(path)


def test_reading_prefixes_each_message_once():
    # a constructor's InvalidArgumentError gets the place; an inner guard's
    # message is not prefixed again by the outer one
    with pytest.raises(InvalidArgumentError) as err:
        with reading("a.json"):
            ParallelSetSpec(base=PointSet([[0.0]]), norm=NormKind.L2, radius=-1.0)
    assert str(err.value) == "a.json: radius must be a positive finite real"
    with pytest.raises(InvalidArgumentError) as err:
        with reading("a.json"):
            with reading("a.json: weights"):
                float("x")
    assert str(err.value) == "a.json: weights: could not convert string to float: 'x'"


def test_json_numbers_are_read_by_one_rule():
    # json.loads gives a JSON number as an int or a float; "2", true and null are not numbers
    assert json_real(2, "a.json: t") == 2.0 and json_real(-0.5, "a.json: t") == -0.5
    np.testing.assert_array_equal(json_reals([1, 2.5, math.inf], "a.json: w"), [1.0, 2.5, math.inf])
    for bad, shown in (("2", '"2"'), (True, "true"), (False, "false"), (None, "null"), ([1], "[1]")):
        with pytest.raises(InvalidArgumentError) as err:
            json_real(bad, "a.json: t")
        assert str(err.value) == f"a.json: t: need a number, got {shown}"
        with pytest.raises(InvalidArgumentError) as err:
            json_reals([0.5, bad, "3"], "a.json: w")
        assert str(err.value) == f"a.json: w: need a number, got {shown}"
    for bad in ("0.5", None, 0.5, {"0": 1.0}):
        with pytest.raises(InvalidArgumentError) as err:
            json_reals(bad, "a.json: w")
        assert str(err.value) == "a.json: w: need an array of numbers"
    with pytest.raises(InvalidArgumentError) as err:
        json_real(10**400, "a.json: t")
    assert str(err.value) == "a.json: t: int too large to convert to float"


def test_shell_params_read_by_mc_and_verify():
    # a null delta is the default, r / 1000 at use, as a missing one is
    assert shell_params({}, "a.json") == shell_params({"delta": None}, "a.json") == (None, 1.0)
    assert shell_params({"delta": 1, "sigma": 0.5}, "a.json") == (1.0, 0.5)
    for data, message in (({"delta": 0}, "a.json: delta must be a positive finite real"),
                          ({"sigma": -1.0}, "a.json: sigma must be a positive finite real"),
                          ({"sigma": None}, "a.json: sigma: need a number, got null"),
                          ({"delta": "0.1"}, 'a.json: delta: need a number, got "0.1"')):
        with pytest.raises(InvalidArgumentError) as err:
            shell_params(data, "a.json")
        assert str(err.value) == message


# -- one checked-real rule: NaN and +-inf fail every real parameter ------------

_ONE = PointSet([[0.0, 0.0]])
_UNIFORM = EmpiricalMeasure.uniform(_ONE)
_CFG = mc.McConfig(samples=10, seed=0)
_BALL_GEN = transport.DistributionSpec("uniform-ball", 1)
_POS = "must be a positive finite real"
_NONNEG = "must be a nonnegative finite real"
# name: (a call that takes the parameter, the message it fails with)
ROUTED = {
    "positive_real": (lambda x: positive_real(x, "x"), f"x {_POS}"),
    "nonnegative_real": (lambda x: nonnegative_real(x, "x"), f"x {_NONNEG}"),
    "spec-radius": (lambda x: ParallelSetSpec(_ONE, NormKind.L2, x), f"radius {_POS}"),
    "bound-radius": (lambda x: bounds.reverse_bm_bound(2, x), f"radius {_POS}"),
    "volume-constrained-volume": (lambda x: bounds.bound_volume_constrained(2, 1.0, x),
                                  f"volume {_NONNEG}"),
    "shell-volume-volume": (lambda x: bounds.bound_shell_volume(2, 1.0, 0.1, x),
                            f"volume {_NONNEG}"),
    "shell-volume-delta": (lambda x: bounds.bound_shell_volume(2, 1.0, x, 1.0), f"delta {_POS}"),
    "bounded-support-big-r": (lambda x: bounds.bound_bounded_support(2, x, 1.0),
                              f"enclosing radius {_NONNEG}"),
    "gaussian-surface-sigma": (lambda x: bounds.gaussian_surface_bound(2, 1.0, x), f"sigma {_POS}"),
    "n0-sigma": (lambda x: bounds.sample_complexity_n0(2, x, 1.0, 0.01, 0.1), f"sigma {_POS}"),
    "n0-eps": (lambda x: bounds.sample_complexity_n0(2, 1.0, 1.0, x, 0.1), f"eps {_POS}"),
    "n0-delta": (lambda x: bounds.sample_complexity_n0(2, 1.0, 1.0, 0.01, x),
                 r"delta must lie in \(0, 1\)"),
    "n0-c0": (lambda x: bounds.sample_complexity_n0(2, 1.0, 1.0, 0.01, 0.1, c0=x),
              "c0 must be a finite real >= 1"),
    "n0-c1": (lambda x: bounds.sample_complexity_n0(2, 1.0, 1.0, 0.01, 0.1, c1=x), f"c1 {_POS}"),
    "mc-shell-delta": (lambda x: mc.McConfig(samples=1, seed=0, shell_delta=x),
                       f"shell_delta {_POS}"),
    "mc-sigma": (lambda x: mc.mc_halfspace_gaussian_shell(2, _CFG, sigma=x),
                 f"sigma {_POS}"),
    "kneser-a": (lambda x: mc.kneser_shell_check(_ONE, NormKind.L2, x, 1.0, 1.5, _CFG),
                 "need 0 < a_k <= b_k < inf"),
    "kneser-b": (lambda x: mc.kneser_shell_check(_ONE, NormKind.L2, 0.5, x, 1.5, _CFG),
                 "need 0 < a_k <= b_k < inf"),
    "kneser-t": (lambda x: mc.kneser_shell_check(_ONE, NormKind.L2, 0.5, 1.0, x, _CFG),
                 "need 1 <= t < inf"),
    "cap-half-angle": (lambda x: mc.cap_solid_angle_fractions(3, x, np.zeros(3), 10, 0),
                       r"cap_half_angle must lie in \(0, pi\)"),
    "mixture-variance": (lambda x: entropy.GaussianMixture([[0.0]], [1.0], x),
                         f"variance {_POS}"),
    "de-bruijn-t0": (lambda x: entropy.de_bruijn_check([[0.0]], [1.0], x),
                     "need 0.001 < t0 < inf"),
    "d-r-radius": (lambda x: transport.d_r_uniform(_ONE, _ONE, x), f"radius {_NONNEG}"),
    "w1-domination-radius": (lambda x: transport.check_w1_domination(_UNIFORM, _UNIFORM, x),
                             f"radius {_POS}"),
    "generator-sigma": (lambda x: transport.DistributionSpec("gaussian-mixture", 1, ((0.0,),),
                                                             sigma=x), f"sigma {_NONNEG}"),
    "convergence-sigma": (lambda x: transport.convergence_experiment(
        _BALL_GEN, _BALL_GEN, 0.5, x, [2], 1, 0), f"noise sigma {_NONNEG}"),
    "sandwich-eta": (lambda x: transport.coupling_sandwich_check(
        _UNIFORM, _UNIFORM, _UNIFORM, _UNIFORM, 0.3, x), r"eta must lie in \(0, r/3\)"),
    "robust-risk": (transport.robust_risk, r"transport cost must lie in \[0, 1\]"),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", sorted(ROUTED))
def test_non_finite_parameters_are_rejected(name, bad):
    call, message = ROUTED[name]
    with pytest.raises(InvalidArgumentError, match=f"^{message}$"):
        call(bad)


_W1_TAKES = "w1_empirical takes 1-d measures, or two uniform measures of equal size"
_PLANE = PointSet([[0.0, 0.0], [1.0, 0.0]])

# name: (call, message); each input lies outside what the function computes
REFUSED = {
    "w1-weighted-2d": (lambda: transport.w1_empirical(
        EmpiricalMeasure(_PLANE, [0.25, 0.75]), EmpiricalMeasure.uniform(_PLANE)), _W1_TAKES),
    "w1-unequal-size-2d": (lambda: transport.w1_empirical(
        EmpiricalMeasure.uniform(_PLANE), EmpiricalMeasure.uniform(PointSet([[0.0, 1.0]]))),
        _W1_TAKES),
    "de-bruijn-past-the-grid": (lambda: entropy.de_bruijn_check([[0.0, 0.0, 0.0]], [1.0], t0=0.7),
                                "de_bruijn_check needs a mixture whose grid fits 32769 points"),
    "reverse-epi-two-variances": (lambda: entropy.reverse_epi_check(
        entropy.GaussianMixture([[0.0]], [1.0], 0.5), entropy.GaussianMixture([[0.0]], [1.0], 0.6)),
        "the two mixtures must share one variance r"),
}


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_refused_inputs_are_named(name):
    call, message = REFUSED[name]
    with pytest.raises(InvalidArgumentError, match=f"^{message}$"):
        call()
