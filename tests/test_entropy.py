import hashlib
import itertools
import json
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import logsumexp

from parset import (
    BoundReport,
    GaussianMixture,
    InvalidArgumentError,
    MeasureEstimate,
    Verdict,
    convolve_mixtures,
    de_bruijn_check,
    entropy_mc,
    entropy_quadrature,
    fisher_information_mc,
    fisher_information_quadrature,
    mixture_density,
    reverse_epi_check,
)
from parset._rng import _COUNT_MAX_ATOMS, CHUNK, atom_rows, map_reduce_chunks, threads
from parset.cli import main
from parset import entropy
from parset.entropy import _fisher_auto, _log_density, _row_logsumexp, _score_batch


def gaussian_entropy(var, dim=1):
    return 0.5 * dim * math.log(2.0 * math.pi * math.e * var)


def test_density_single_atom():
    gm = GaussianMixture(atoms=[[0.0]], weights=[1.0], variance=1.0)
    assert mixture_density(gm, [0.0]) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi))


def test_density_symmetry():
    gm = GaussianMixture(atoms=[[-1.0], [1.0]], weights=[0.5, 0.5], variance=0.5)
    single = GaussianMixture(atoms=[[1.0]], weights=[1.0], variance=0.5)
    # at the midpoint, each symmetric atom contributes the single-atom value
    assert mixture_density(gm, [0.0]) == pytest.approx(mixture_density(single, [0.0]))


def test_density_matches_naive_sum():
    rng = np.random.default_rng(1)
    atoms = rng.standard_normal((5, 3))
    w = rng.random(5) + 0.1
    w /= w.sum()
    var = 0.7
    gm = GaussianMixture(atoms=atoms, weights=w, variance=var)
    for x in rng.standard_normal((10, 3)):
        naive = sum(
            wi * math.exp(-np.sum((x - ai) ** 2) / (2 * var)) / (2 * math.pi * var) ** 1.5
            for wi, ai in zip(w, atoms)
        )
        assert mixture_density(gm, x) == pytest.approx(naive, rel=1e-12)


def test_convolve_single_atoms():
    a = GaussianMixture(atoms=[[1.0, 2.0]], weights=[1.0], variance=0.3)
    b = GaussianMixture(atoms=[[-0.5, 1.0]], weights=[1.0], variance=0.4)
    c = convolve_mixtures(a, b)
    np.testing.assert_allclose(c.atoms, [[0.5, 3.0]])
    assert c.variance == pytest.approx(0.7)
    assert c.weights.sum() == pytest.approx(1.0, abs=1e-15)


def test_convolve_merges_duplicates():
    a = GaussianMixture(atoms=[[0.0], [1.0]], weights=[0.5, 0.5], variance=0.2)
    b = GaussianMixture(atoms=[[0.0], [1.0]], weights=[0.5, 0.5], variance=0.2)
    c = convolve_mixtures(a, b)
    assert len(c.weights) == 3  # sums 0, 1, 2 with the middle atom merged
    assert c.weights.sum() == pytest.approx(1.0, abs=1e-12)
    mid = np.where(np.isclose(c.atoms[:, 0], 1.0))[0]
    assert c.weights[mid[0]] == pytest.approx(0.5)


def test_convolve_merges_near_sums_that_sort_apart():
    # (0, 5) sorts between the sums (0, 0) and (1e-13, 0), which still merge
    a = GaussianMixture(atoms=[[0.0, 0.0], [0.0, 5.0]], weights=[0.5, 0.5], variance=0.2)
    b = GaussianMixture(atoms=[[0.0, 0.0], [1e-13, -5.0]], weights=[0.5, 0.5], variance=0.2)
    c = convolve_mixtures(a, b)
    np.testing.assert_array_equal(c.atoms, [[0.0, 0.0], [0.0, 5.0], [1e-13, -5.0]])
    np.testing.assert_array_equal(c.weights, [0.5, 0.25, 0.25])


def test_convolve_density_matches_quadrature():
    a = GaussianMixture(atoms=[[0.0], [1.5]], weights=[0.3, 0.7], variance=0.4)
    b = GaussianMixture(atoms=[[-1.0]], weights=[1.0], variance=0.6)
    c = convolve_mixtures(a, b)
    for t in [-1.0, 0.0, 0.4, 1.2, 2.0]:
        integrand = lambda tau: mixture_density(a, [tau]) * mixture_density(b, [t - tau])
        want, _ = quad(integrand, -15, 15, limit=200)
        assert mixture_density(c, [t]) == pytest.approx(want, rel=1e-8)


def test_entropy_mc_single_gaussian():
    gm = GaussianMixture(atoms=[[0.0, 0.0]], weights=[1.0], variance=0.8)
    est = entropy_mc(gm, n=200_000, seed=2)
    assert est.samples_used == 200_000
    assert abs(est.value - gaussian_entropy(0.8, dim=2)) <= 3.0 * est.std_error


def test_entropy_mc_far_separated():
    sep = 50.0
    gm = GaussianMixture(
        atoms=[[0.0], [sep], [2 * sep]], weights=[1 / 3] * 3, variance=0.5
    )
    est = entropy_mc(gm, n=200_000, seed=3)
    want = math.log(3.0) + gaussian_entropy(0.5)
    assert abs(est.value - want) <= 3.0 * est.std_error + 1e-6


def test_entropy_mc_matches_quadrature():
    rng = np.random.default_rng(4)
    for k in range(3):
        n_atoms = int(rng.integers(1, 5))
        w = rng.random(n_atoms) + 0.1
        gm = GaussianMixture(
            atoms=rng.uniform(-2, 2, (n_atoms, 1)),
            weights=w / w.sum(),
            variance=float(rng.uniform(0.2, 1.5)),
        )
        mc = entropy_mc(gm, n=150_000, seed=5 + k)
        qd = entropy_quadrature(gm)
        assert abs(mc.value - qd.value) <= 3.0 * mc.std_error + qd.std_error


def test_entropy_mc_pooled_unbiasedness():
    gm = GaussianMixture(atoms=[[0.0], [1.8]], weights=[0.6, 0.4], variance=0.5)
    want = entropy_quadrature(gm).value
    vals, ses = [], []
    for s in range(6):
        est = entropy_mc(gm, n=60_000, seed=300 + s)
        vals.append(est.value)
        ses.append(est.std_error)
    pooled_mean = float(np.mean(vals))
    pooled_se = float(np.sqrt(np.sum(np.square(ses)))) / len(vals)
    assert abs(pooled_mean - want) <= 3.0 * pooled_se


def test_entropy_quadrature_single_gaussian():
    gm = GaussianMixture(atoms=[[0.3]], weights=[1.0], variance=0.6)
    est = entropy_quadrature(gm)
    assert est.samples_used == 0
    assert est.value == pytest.approx(gaussian_entropy(0.6), abs=1e-8)


def test_entropy_quadrature_separated_limit():
    gm = GaussianMixture(atoms=[[0.0], [60.0]], weights=[0.5, 0.5], variance=0.5)
    want = math.log(2.0) + gaussian_entropy(0.5)
    assert entropy_quadrature(gm).value == pytest.approx(want, abs=1e-8)


def test_entropy_quadrature_refinement(monkeypatch):
    gm = GaussianMixture(atoms=[[0.0], [2.0]], weights=[0.4, 0.6], variance=0.3)
    coarse = entropy_quadrature(gm)
    monkeypatch.setattr(entropy, "_GRID_STEP", entropy._GRID_STEP / 4.0)
    fine = entropy_quadrature(gm).value
    assert abs(coarse.value - fine) < 1e-11
    assert abs(coarse.value - fine) <= coarse.std_error


@pytest.mark.parametrize("sep", [1e3, 1e4])
def test_entropy_quadrature_rejects_coarse_grid(sep):
    # 8193 points over 1e4 + 2.4 returned -4.247 with std_error 2.6e-31
    gm = GaussianMixture(atoms=[[0.0], [sep]], weights=[0.5, 0.5], variance=0.01)
    with pytest.raises(InvalidArgumentError, match="quadrature grid of .* points exceeds 32769"):
        entropy_quadrature(gm)
    with pytest.raises(InvalidArgumentError, match="quadrature grid"):
        fisher_information_quadrature(gm)


@pytest.mark.parametrize(
    "sep, variance", [(800.0, 0.01), (8174.0, 1.0)], ids=["8000-sd", "8174-sd"]
)
def test_entropy_quadrature_fine_enough_grid(sep, variance):
    # atoms 8000 sd and 8174 sd apart, the farthest that 32769 points at
    # sd/4 reach 9 sd past
    gm = GaussianMixture(atoms=[[0.0], [sep]], weights=[0.5, 0.5], variance=variance)
    want = math.log(2.0) + gaussian_entropy(variance)
    assert entropy_quadrature(gm).value == pytest.approx(want, abs=1e-12)
    assert fisher_information_quadrature(gm).value == pytest.approx(1.0 / variance, rel=1e-12)


def test_quadrature_window_limit():
    # one grid point past the budget, a mixture goes to Monte Carlo: in 1-d
    # at 32769 and 32770 points, in 2-d at 181 x 181 and 182 x 181
    for atoms, far in (([[0.0], [8174.0]], [[0.0], [8174.0 + 1e-9]]),
                       ([[0.0, 0.0], [27.0, 27.0]], [[0.0, 0.0], [27.25, 27.0]])):
        gm = GaussianMixture(atoms=atoms, weights=[0.5, 0.5], variance=1.0)
        wider = GaussianMixture(atoms=far, weights=[0.5, 0.5], variance=1.0)
        assert entropy._grid_shape(gm)[3] <= 32769 < entropy._grid_shape(wider)[3]
        assert entropy._uses_grid(gm) and not entropy._uses_grid(wider)
        assert _fisher_auto(wider, n=1000, seed=0).samples_used == 1000
        with pytest.raises(InvalidArgumentError, match="quadrature grid"):
            entropy_quadrature(wider)


def test_entropy_quadrature_refuses_a_grid_past_the_budget():
    # any 3-d mixture: 73 points an axis at the least
    gm = GaussianMixture(atoms=[[0.0, 0.0, 0.0]], weights=[1.0], variance=1.0)
    with pytest.raises(InvalidArgumentError,
                       match="quadrature grid of 3.89e[+]05 points exceeds 32769"):
        entropy_quadrature(gm)


def test_convolution_entropy_dominates_inputs():
    # adding independent noise cannot reduce entropy
    rng = np.random.default_rng(6)
    for k in range(3):
        wa = rng.random(2) + 0.1
        wb = rng.random(3) + 0.1
        a = GaussianMixture(
            atoms=rng.uniform(-2, 2, (2, 1)), weights=wa / wa.sum(), variance=0.5
        )
        b = GaussianMixture(
            atoms=rng.uniform(-2, 2, (3, 1)), weights=wb / wb.sum(), variance=0.5
        )
        h_sum = entropy_quadrature(convolve_mixtures(a, b)).value
        assert h_sum >= max(entropy_quadrature(a).value, entropy_quadrature(b).value) - 1e-9


def test_reverse_epi_analytic_single_atoms():
    # deterministic variables: every entropy in closed form, inequality strict
    for d, r in [(1, 0.5), (2, 0.7), (3, 1.3)]:
        lhs = gaussian_entropy(2.0 * r, dim=d)
        rhs = 2.0 * gaussian_entropy(r, dim=d) - 0.5 * d * math.log(math.pi * r)
        assert lhs <= rhs
        assert rhs - lhs == pytest.approx(d / 2.0)  # constant slack for point masses


def test_reverse_epi_check_random():
    rng = np.random.default_rng(7)
    for k in range(5):
        kx = int(rng.integers(1, 4))
        ky = int(rng.integers(1, 4))
        wx = rng.random(kx) + 0.1
        wy = rng.random(ky) + 0.1
        x_atoms, y_atoms = rng.uniform(-3, 3, (kx, 1)), rng.uniform(-3, 3, (ky, 1))
        r = float(rng.uniform(0.2, 1.5))
        rep = reverse_epi_check(
            GaussianMixture(x_atoms, wx / wx.sum(), r), GaussianMixture(y_atoms, wy / wy.sum(), r)
        )[0]
        assert rep.verdict is Verdict.PASS


def test_reverse_epi_far_separated_gap():
    r = 0.3
    sep = 40.0 * math.sqrt(r)
    gm_x = GaussianMixture(atoms=[[0.0], [sep]], weights=[0.5, 0.5], variance=r)
    gm_y = GaussianMixture(atoms=[[0.0], [3 * sep]], weights=[0.5, 0.5], variance=r)
    h_x = entropy_quadrature(gm_x).value
    h_y = entropy_quadrature(gm_y).value
    h_sum = entropy_quadrature(convolve_mixtures(gm_x, gm_y)).value
    gap = h_sum - h_x - h_y
    assert gap == pytest.approx(-0.5 * math.log(math.pi * math.e * r), abs=0.02)


def test_fisher_single_gaussian():
    gm = GaussianMixture(atoms=[[0.0, 0.0, 0.0]], weights=[1.0], variance=0.7)
    est = fisher_information_mc(gm, n=200_000, seed=9)
    assert abs(est.value - 3.0 / 0.7) <= 4.0 * est.std_error


def test_fisher_mixture_below_bound():
    gm = GaussianMixture(atoms=[[-1.0], [1.0]], weights=[0.5, 0.5], variance=0.4)
    est = fisher_information_mc(gm, n=200_000, seed=10)
    assert est.value < 1.0 / 0.4  # strictly smoother than one Gaussian
    # quadrature oracle for the score integral: J = integral p'(x)^2 / p(x)
    dx = 1e-5

    def score_sq(x):
        p = mixture_density(gm, [x])
        dp = (mixture_density(gm, [x + dx]) - mixture_density(gm, [x - dx])) / (2 * dx)
        return dp * dp / p

    want, _ = quad(score_sq, -8, 8, limit=400)
    assert abs(est.value - want) <= 4.0 * est.std_error + 1e-4


def test_fisher_translation_invariance():
    atoms = np.array([[0.0], [1.5]])
    w = np.array([0.3, 0.7])
    a = fisher_information_mc(GaussianMixture(atoms=atoms, weights=w, variance=0.5), n=50_000, seed=11)
    b = fisher_information_mc(
        GaussianMixture(atoms=atoms + 10.0, weights=w, variance=0.5), n=50_000, seed=11
    )
    # same samples up to the rounding of the shift itself
    assert b.value == pytest.approx(a.value, rel=1e-12)


def test_fisher_bound_sweep():
    rng = np.random.default_rng(12)
    for k in range(10):
        d = int(rng.integers(1, 4))
        n_atoms = int(rng.integers(1, 5))
        w = rng.random(n_atoms) + 0.1
        gm = GaussianMixture(
            atoms=rng.uniform(-2, 2, (n_atoms, d)),
            weights=w / w.sum(),
            variance=float(rng.uniform(0.3, 1.5)),
        )
        est = fisher_information_mc(gm, n=100_000, seed=13 + k)
        assert est.value <= gm.dim / gm.variance + 4.0 * est.std_error


def reference_fisher_quad(atoms, weights, var):
    """J = integral of p'^2 / p by scipy's adaptive quadrature, with p and p'
    summed over the atoms directly."""
    atoms = [float(a) for a in np.ravel(atoms)]
    norm = 1.0 / math.sqrt(2.0 * math.pi * var)

    def integrand(x):
        g = [w * norm * math.exp(-((x - a) ** 2) / (2.0 * var)) for a, w in zip(atoms, weights)]
        p = sum(g)
        dp = sum(gi * (a - x) / var for gi, a in zip(g, atoms))
        return dp * dp / p if p > 0.0 else 0.0

    sd = math.sqrt(var)
    lo, hi = min(atoms) - 15.0 * sd, max(atoms) + 15.0 * sd
    want, _ = quad(integrand, lo, hi, points=atoms, limit=400, epsabs=0.0, epsrel=1e-13)
    return want


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_fisher_quadrature_matches_scipy_quad(k):
    rng = np.random.default_rng(60 + k)
    for _ in range(3):
        gm = _random_mixture(rng, k, 1)
        est = fisher_information_quadrature(gm)
        assert est.samples_used == 0
        want = reference_fisher_quad(gm.atoms, gm.weights, gm.variance)
        assert abs(est.value - want) <= est.std_error
        assert est.value == pytest.approx(want, rel=1e-9)


def test_fisher_quadrature_single_atom_is_one_over_var():
    # the equality case of J <= 1/var: the std_error must cover the rounding,
    # which moves 9 of these 20 values off 1/var, by up to 4.4e-16
    rng = np.random.default_rng(61)
    for _ in range(20):
        var = float(rng.uniform(0.3, 1.5))
        gm = GaussianMixture(atoms=[[rng.uniform(-2.0, 2.0)]], weights=[1.0], variance=var)
        est = fisher_information_quadrature(gm)
        assert abs(est.value - 1.0 / var) <= est.std_error < 1e-11


def test_fisher_quadrature_two_atoms_below_bound():
    gm = GaussianMixture(atoms=[[-0.5], [0.7]], weights=[0.3, 0.7], variance=0.8)
    est = fisher_information_quadrature(gm)
    assert est.value + est.std_error < 1.0 / 0.8


def test_fisher_quadrature_translation_invariance():
    atoms = np.array([[0.0], [1.5], [-0.4]])
    w = np.array([0.3, 0.5, 0.2])
    a = fisher_information_quadrature(GaussianMixture(atoms=atoms, weights=w, variance=0.5))
    b = fisher_information_quadrature(GaussianMixture(atoms=atoms + 10.0, weights=w, variance=0.5))
    assert b.value == pytest.approx(a.value, rel=1e-12)


def test_a_mixture_the_grid_takes_never_reaches_monte_carlo(monkeypatch):
    def no_monte_carlo(*args, **kwargs):
        raise AssertionError("Monte Carlo reached")

    monkeypatch.setattr(entropy, "_moment_mean", no_monte_carlo)
    for atoms in ([[0.0], [1.1]], [[0.0, 0.3], [1.1, -0.4]]):
        rep = de_bruijn_check(atoms, [0.4, 0.6], t0=0.7)
        assert rep.verdict is Verdict.PASS
        gm = GaussianMixture(atoms=atoms, weights=[0.4, 0.6], variance=0.7)
        est = _fisher_auto(gm, n=1000, seed=0)
        assert est.samples_used == 0 and est.lower <= gm.dim / gm.variance
    for a, b in (([[0.0], [1.0]], [[0.5]]), ([[0.0, 0.0], [1.0, -2.0]], [[0.5, 0.5]])):
        gm_x = GaussianMixture(atoms=a, weights=[0.5, 0.5], variance=0.6)
        rep, h_x, h_y = reverse_epi_check(gm_x, GaussianMixture(atoms=b, weights=[1.0], variance=0.6))
        assert rep.verdict is Verdict.PASS
        assert h_x.samples_used == h_y.samples_used == 0
    # a mixture past the budget still takes the Monte Carlo path
    with pytest.raises(AssertionError, match="Monte Carlo reached"):
        _fisher_auto(GaussianMixture(atoms=[[0.0, 0.0, 0.0]], weights=[1.0], variance=0.7), 1000, 0)
    with pytest.raises(AssertionError, match="Monte Carlo reached"):
        far = GaussianMixture(atoms=[[0.0, 0.0], [100.0, 0.0]], weights=[0.5, 0.5], variance=0.6)
        reverse_epi_check(far, far)


def _grid_pair(gm):
    return entropy_quadrature(gm), fisher_information_quadrature(gm)


def _pair_at_step(monkeypatch, gm, factor):
    """Entropy and Fisher information with the grid step scaled by factor."""
    with monkeypatch.context() as m:
        m.setattr(entropy, "_GRID_STEP", entropy._GRID_STEP * factor)
        m.setattr(entropy, "_MAX_POINTS", 10**6)
        return _grid_pair(gm)


def _two_atoms(sep_sd, dim, variance=0.6, shift=0.0):
    # atoms sep_sd standard deviations apart along the diagonal, where the
    # trapezoid rule converges the slowest (about 7 sd)
    a = np.full(dim, sep_sd * math.sqrt(variance / dim))
    return GaussianMixture(atoms=np.stack([np.zeros(dim), a]) + shift, weights=[0.3, 0.7],
                           variance=variance)


# mixtures of the shapes the suite and `parset epi` integrate, and pairs
# far_sd apart, the slowest to converge
def _grid_mixtures(far_sd=(5.0, 7.0, 9.0)):
    rng = np.random.default_rng(90)
    yield from (_random_mixture(rng, k, d) for k in (1, 2, 4) for d in (1, 2))
    yield from (_two_atoms(s, d) for s in far_sd for d in (1, 2))
    w = rng.random(4) + 0.1
    gm = GaussianMixture(rng.uniform(-3.0, 3.0, (4, 2)), w / w.sum(), 0.5)
    yield convolve_mixtures(gm, gm)


@pytest.mark.parametrize("dim", [1, 2])
def test_single_atom_closed_forms(dim):
    # h = (d/2) log(2 pi e var) and J = d / var, within the allowance, which
    # stays at the rounding level; J is the equality case of
    # fisher-bound-sweep's J <= d / var, which must pass
    rng = np.random.default_rng(80 + dim)
    for _ in range(5):
        var = float(rng.uniform(0.3, 1.5))
        gm = GaussianMixture(atoms=rng.uniform(-2.0, 2.0, (1, dim)), weights=[1.0], variance=var)
        h, j = _grid_pair(gm)
        assert h.samples_used == j.samples_used == 0
        assert abs(h.value - gaussian_entropy(var, dim)) <= h.std_error < 1e-10
        assert abs(j.value - dim / var) <= j.std_error < 1e-10
        sweep = BoundReport.sweep("fisher-bound-sweep", 0.0, [j.lower - dim / var])
        assert sweep.verdict is Verdict.PASS


def _mpmath_cubature(gm, panels=8, nodes=12):
    """(h, J) of a 2-d mixture by a Gauss-Legendre product rule in mpmath,
    on panels x panels panels of nodes x nodes points over the atoms' range
    widened by 9 sd."""
    import mpmath as mp

    with mp.workdps(20):
        return _mpmath_sums(mp, gm, panels, nodes)


def _mpmath_sums(mp, gm, panels, nodes):
    v = mp.mpf(gm.variance)
    atoms = [[mp.mpf(float(c)) for c in a] for a in gm.atoms]
    weights = [mp.mpf(float(w)) for w in gm.weights]
    xs, ws = mp.gauss_quadrature(nodes, "legendre")

    def axis(c):
        lo = min(a[c] for a in atoms) - 9 * mp.sqrt(v)
        width = (max(a[c] for a in atoms) + 9 * mp.sqrt(v) - lo) / panels
        mids = [lo + (p + mp.mpf(0.5)) * width for p in range(panels)]
        return [(m + width / 2 * x, width / 2 * w) for m in mids for x, w in zip(xs, ws)]

    h = j = mp.mpf(0)
    for x, ux in axis(0):
        ex = [w * mp.exp(-((x - a[0]) ** 2) / (2 * v)) / (2 * mp.pi * v) for a, w in zip(atoms, weights)]
        for y, uy in axis(1):
            c = [e * mp.exp(-((y - a[1]) ** 2) / (2 * v)) for a, e in zip(atoms, ex)]
            p = mp.fsum(c)
            gx = mp.fsum(ci * (a[0] - x) for ci, a in zip(c, atoms)) / v
            gy = mp.fsum(ci * (a[1] - y) for ci, a in zip(c, atoms)) / v
            h -= ux * uy * p * mp.log(p)
            j += ux * uy * (gx * gx + gy * gy) / p
    return float(h), float(j)


@pytest.mark.parametrize(
    "atoms, weights, variance",
    [([[0.0, 0.0], [1.2, -0.5]], [0.3, 0.7], 0.5),
     ([[-0.8, 0.4], [0.9, 0.1], [0.2, -1.1]], [0.2, 0.5, 0.3], 0.8)],
    ids=["two-atoms", "three-atoms"],
)
def test_quadrature_matches_mpmath_cubature(atoms, weights, variance):
    # the cubature agrees with itself at 10 x 10 panels to 1e-12
    gm = GaussianMixture(atoms=atoms, weights=weights, variance=variance)
    h, j = _grid_pair(gm)
    want_h, want_j = _mpmath_cubature(gm)
    assert abs(h.value - want_h) <= h.std_error + 1e-12
    assert abs(j.value - want_j) <= j.std_error + 1e-12


@pytest.mark.parametrize("dim", [1, 2])
def test_a_mixture_shifted_by_a_fraction_of_a_step(monkeypatch, dim):
    # the grid is the lattice of multiples of the step, so moving the
    # mixture by part of a step moves it across the grid; every shift stays
    # within its allowance of a reference on a grid four times finer
    step = entropy._GRID_STEP * math.sqrt(0.6)
    ref_h, ref_j = (e.value for e in _pair_at_step(monkeypatch, _two_atoms(7.0, dim), 0.25))
    values = set()
    for frac in (0.0, 0.2, 1.0 / 3.0, 0.5, 0.9):
        h, j = _grid_pair(_two_atoms(7.0, dim, shift=frac * step))
        assert abs(h.value - ref_h) <= h.std_error
        assert abs(j.value - ref_j) <= j.std_error
        values.add(j.value)
    assert len(values) == 5  # the shifts do move the sums


def test_the_step_is_in_the_geometric_range(monkeypatch):
    # halving the step gains more than doubling it loses: |T_h - T_2h|, the
    # allowance's discretisation term, bounds T_h's error against T_h/2
    for gm in _grid_mixtures():
        fine = _pair_at_step(monkeypatch, gm, 0.5)
        coarse = _pair_at_step(monkeypatch, gm, 2.0)
        for t_h, t_half, t_2h in zip(_grid_pair(gm), fine, coarse):
            # up to the rounding of sums that all agree
            assert abs(t_h.value - t_half.value) <= abs(t_h.value - t_2h.value) + 1e-15
            assert abs(t_h.value - t_2h.value) <= t_h.std_error


@pytest.mark.parametrize("dim", [1, 2])
def test_the_tail_bound_covers_a_short_reach(monkeypatch, dim):
    # a grid that reaches 3 sd misses 1e-3 of the integrals, which only the
    # tail bound covers; at the module's reach the bound is below rounding
    gm = GaussianMixture(atoms=np.zeros((1, dim)), weights=[1.0], variance=0.7)
    assert max(entropy._tail_moments(dim)) < 1e-16
    monkeypatch.setattr(entropy, "_GRID_REACH", 3.0)
    h, j = _grid_pair(gm)
    assert 1e-4 < abs(h.value - gaussian_entropy(0.7, dim)) <= h.std_error
    assert 1e-4 < abs(j.value - dim / 0.7) <= j.std_error


def test_the_discretisation_term_is_needed_at_a_coarse_step(monkeypatch):
    # at sd/2 the error reaches 1e-6, far past the rounding and tail terms,
    # and |T_h - T_2h| covers it; a pair 9 sd apart is past the geometric
    # range there (its T_sd lands nearer T_sd/2 than the integral does)
    worst = 0.0
    for gm in _grid_mixtures(far_sd=(5.0, 7.0)):
        coarse = _pair_at_step(monkeypatch, gm, 2.0)
        for est, ref in zip(coarse, _grid_pair(gm)):
            assert abs(est.value - ref.value) <= est.std_error
            worst = max(worst, abs(est.value - ref.value))
    assert worst > 1e-6


@pytest.mark.parametrize("k", [1, 2, 3])
def test_de_bruijn_quadrature_slope_is_half_fisher(k):
    # in 1-d the slope and J come from quadrature: only the O(dt^2)
    # finite-difference term separates them
    rng = np.random.default_rng(70 + k)
    for _ in range(3):
        w = rng.random(k) + 0.1
        t0 = float(rng.uniform(0.5, 1.5))
        rep = de_bruijn_check(rng.uniform(-2, 2, (k, 1)), w / w.sum(), t0=t0)
        assert rep.verdict is Verdict.PASS
        assert rep.bound_value == pytest.approx(100.0 * 1e-6 * (1.0 + t0**-3))
        assert rep.measured < rep.bound_value / 100.0


def test_de_bruijn_single_gaussian():
    rep = de_bruijn_check([[0.0]], [1.0], t0=0.8)
    assert rep.verdict is Verdict.PASS
    # analytic slope: d/dt (1/2) ln(2 pi e t) = 1/(2t) = J/2
    gm = GaussianMixture(atoms=[[0.0]], weights=[1.0], variance=0.8)
    est = fisher_information_mc(gm, n=100_000, seed=15)
    assert est.value / 2.0 == pytest.approx(1.0 / (2.0 * 0.8), abs=4 * est.std_error)


def test_de_bruijn_two_atom_quadrature_oracle():
    atoms = [[0.0], [2.0]]
    w = [0.5, 0.5]
    t0 = 1.0
    rep = de_bruijn_check(atoms, w, t0=t0)
    assert rep.verdict is Verdict.PASS
    # independent oracle: quadrature entropies at t0 +- dt
    dt = 1e-3
    h = lambda t: entropy_quadrature(
        GaussianMixture(atoms=atoms, weights=w, variance=t)
    ).value
    fd = (h(t0 + dt) - h(t0 - dt)) / (2 * dt)
    est = fisher_information_mc(
        GaussianMixture(atoms=atoms, weights=w, variance=t0), n=200_000, seed=17
    )
    assert abs(fd - est.value / 2.0) <= 4.0 * est.std_error + 1e-4


def test_de_bruijn_dt_halving():
    atoms = [[0.0], [1.2]]
    w = [0.5, 0.5]
    t0 = 0.9
    h = lambda t: entropy_quadrature(GaussianMixture(atoms=atoms, weights=w, variance=t)).value
    gm = GaussianMixture(atoms=atoms, weights=w, variance=t0)
    dx = 1e-5

    def score_sq(x):
        p = mixture_density(gm, [x])
        dp = (mixture_density(gm, [x + dx]) - mixture_density(gm, [x - dx])) / (2 * dx)
        return dp * dp / p

    j_exact, _ = quad(score_sq, -10, 10, limit=400)
    errs = []
    for dt in (2e-2, 1e-2):
        fd = (h(t0 + dt) - h(t0 - dt)) / (2 * dt)
        errs.append(abs(fd - j_exact / 2.0))
    assert errs[1] < errs[0]


def test_mixture_validation():
    with pytest.raises(InvalidArgumentError):
        GaussianMixture(atoms=[[0.0]], weights=[0.5], variance=1.0)
    with pytest.raises(InvalidArgumentError):
        GaussianMixture(atoms=[[0.0]], weights=[1.0], variance=0.0)
    with pytest.raises(InvalidArgumentError):
        GaussianMixture(atoms=[[0.0], [1.0]], weights=[1.0], variance=1.0)
    with pytest.raises(InvalidArgumentError):
        GaussianMixture(atoms=np.zeros((1, 0)), weights=[1.0], variance=1.0)


@pytest.mark.parametrize("x", [0.5, np.zeros((2, 1, 1))], ids=["scalar", "3-d"])
def test_mixture_density_rejects_other_shapes(x):
    gm = GaussianMixture(atoms=[[0.0]], weights=[1.0], variance=1.0)
    with pytest.raises(InvalidArgumentError, match="1-vector or an"):
        mixture_density(gm, x)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_mixture_rejects_non_finite_weights(bad):
    with pytest.raises(InvalidArgumentError, match="finite"):
        GaussianMixture(atoms=[[0.0], [2.0]], weights=[bad, 1.0], variance=1.0)


@pytest.mark.parametrize(
    "atoms, variance, match",
    [
        ([[math.nan, 0.0]], 1.0, "atom coordinates must be finite"),
        ([[0.0], [-math.inf]], 1.0, "atom coordinates must be finite"),
        ([[0.0, 1.0]], math.inf, "variance must be a positive finite real"),
    ],
    ids=["nan-atom", "inf-atom", "inf-variance"],
)
def test_mixture_rejects_non_finite_atoms_and_variance(atoms, variance, match):
    weights = np.full(len(atoms), 1.0 / len(atoms))
    with pytest.raises(InvalidArgumentError, match=match):
        GaussianMixture(atoms=atoms, weights=weights, variance=variance)


# The moment reductions as they were before they shared
# entropy._moment_mean, kept verbatim as the reference for that core.


def reference_sample_mixture(gm, g, n):
    idx = np.searchsorted(np.cumsum(gm.weights), g.random(n), side="right")
    idx = idx.clip(0, len(gm.weights) - 1)
    return gm.atoms[idx] + g.standard_normal((n, gm.dim)) * math.sqrt(gm.variance)


def reference_entropy_mc(gm, n=1_000_000, seed=0):
    def chunk(g, m):
        v = -_log_density(gm, reference_sample_mixture(gm, g, m))
        return float(v.sum()), float((v * v).sum())

    s1, s2 = map_reduce_chunks(seed, n, chunk)
    mean = s1 / n
    var = max(s2 / n - mean * mean, 0.0)
    return MeasureEstimate(mean, math.sqrt(var / n), n)


def reference_fisher_information_mc(gm, n=200_000, seed=0):
    def chunk(g, m):
        x = reference_sample_mixture(gm, g, m)
        s2 = (_score_batch(gm, x) ** 2).sum(axis=1)
        return float(s2.sum()), float((s2 * s2).sum())

    s1, s2 = map_reduce_chunks(seed, n, chunk)
    mean = s1 / n
    var = max(s2 / n - mean * mean, 0.0)
    return MeasureEstimate(mean, math.sqrt(var / n), n)


def test_moment_core_matches_reference_estimators():
    # two chunks, the last one partial, so two threads split the stream
    n = CHUNK + 2345
    rng = np.random.default_rng(25)
    for dim, workers in itertools.product(range(1, 5), (1, 2)):
        k = int(rng.integers(1, 5))
        w = rng.random(k) + 0.1
        atoms, weights = rng.uniform(-2.0, 2.0, (k, dim)), w / w.sum()
        gm = GaussianMixture(atoms=atoms, weights=weights, variance=float(rng.uniform(0.3, 1.5)))
        seed = int(rng.integers(1 << 32))
        with threads(workers):
            assert entropy_mc(gm, n, seed) == reference_entropy_mc(gm, n, seed)
            assert fisher_information_mc(gm, n, seed) == reference_fisher_information_mc(gm, n, seed)


@pytest.mark.parametrize("dim", [2, 3])
def test_moment_core_matches_reference_past_the_count_split(dim):
    # the reference draws every atom by binary search; at _COUNT_MAX_ATOMS
    # atoms the sampler counts, one past it it searches too
    n = CHUNK + 2345
    rng = np.random.default_rng(28 + dim)
    for k in (_COUNT_MAX_ATOMS, _COUNT_MAX_ATOMS + 1):
        gm = _random_mixture(rng, k, dim)
        seed = int(rng.integers(1 << 32))
        assert entropy_mc(gm, n, seed) == reference_entropy_mc(gm, n, seed)
        assert fisher_information_mc(gm, n, seed) == reference_fisher_information_mc(gm, n, seed)


class _Uniforms:
    """A generator stub whose random(n) hands out the given uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)

    def random(self, n):
        assert n == len(self.u)
        return self.u.copy()


def _normalized(w):
    return w / w.sum()


@pytest.mark.parametrize(
    "weights",
    [
        np.ones(1),
        # ten weights of 0.1 add up to 0.9999999999999999, below 1, so the
        # top uniforms pass every threshold and the last row is the clip
        np.full(10, 0.1),
        np.full(_COUNT_MAX_ATOMS, 1.0 / _COUNT_MAX_ATOMS),
        np.full(_COUNT_MAX_ATOMS + 1, 1.0 / (_COUNT_MAX_ATOMS + 1)),
        _normalized(np.random.default_rng(27).random(_COUNT_MAX_ATOMS) + 0.1),
        _normalized(np.random.default_rng(27).random(1000) + 0.1),
    ],
    ids=lambda w: f"k{len(w)}",
)
def test_atom_rows_is_searchsorted_to_the_row(weights):
    # u on every cumulative weight and one ulp to either side, the ends of
    # [0, 1), and the uniforms of a real stream
    cw = np.cumsum(weights)
    u = np.concatenate([cw, np.nextafter(cw, 0.0), np.nextafter(cw, 1.0)])
    u = np.concatenate([u[(0.0 <= u) & (u < 1.0)], [0.0, 1.0 - 2.0**-53]])
    u = np.concatenate([u, np.random.default_rng(len(cw)).random(5000)])
    atoms = np.arange(len(cw), dtype=np.float64)[:, None] * [1.0, -1.0]
    want = np.take(atoms, np.searchsorted(cw, u, side="right").clip(0, len(cw) - 1), axis=0)
    got = atom_rows(_Uniforms(u), atoms, weights, len(u))
    assert np.array_equal(got, want)
    if len(cw) == 10:
        assert cw[-1] < 1.0 and (u >= cw[-1]).any()  # the clip is reached


# sha256 of what `parset epi` writes for two fixed mixtures of 70 and 3 atoms
# at seed 11 and 70000 samples, taken with these numpy and scipy versions.
# In 2-d every entropy comes from the grid, which the digest pins.  In 4-d
# every entropy is Monte Carlo (the sum's 210 and the 70 atoms are drawn past
# _COUNT_MAX_ATOMS, the 3 below it), and the digest pins the sampler, the
# log-density kernel and the moment sums.
_EPI_SHA256 = {
    2: "7bd09a96c5963365226dd3b5efc4a5e8ce06b0e41c6868879353666c66e007f2",
    4: "6572dd0a6258f9f7b9c9dbacac958a191275f9be2a1f75ba01b6240e02271714",
}
_EPI_VERSIONS = {"numpy": "2.4.6", "scipy": "1.17.1"}


def _epi_digest(tmp_path, dim, mixture_seed):
    import scipy

    have = {"numpy": np.__version__, "scipy": scipy.__version__}
    if have != _EPI_VERSIONS:
        pytest.skip(f"digest taken with {_EPI_VERSIONS}, running with {have}")
    rng = np.random.default_rng(mixture_seed)
    for side, k in (("x", 70), ("y", 3)):
        w = rng.random(k) + 0.1
        mixture = {"atoms": rng.uniform(-3.0, 3.0, (k, dim)).tolist(), "weights": (w / w.sum()).tolist()}
        (tmp_path / f"{side}.json").write_text(json.dumps(mixture))
    out = tmp_path / "epi.json"
    assert main(["epi", "--x", str(tmp_path / "x.json"), "--y", str(tmp_path / "y.json"),
                 "--smoothing", "0.5", "--samples", "70000", "--seed", "11",
                 "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_epi_digest_is_pinned(tmp_path):
    assert _epi_digest(tmp_path, 2, 2800) == _EPI_SHA256[2]


def test_epi_monte_carlo_digest_is_pinned(tmp_path):
    assert _epi_digest(tmp_path, 4, 3500) == _EPI_SHA256[4]


# The log-density and score as they were before they shared the mixture
# kernel, kept verbatim as the reference for it.


def reference_log_density(gm, x):
    d = gm.dim
    # (n, k) squared distances, done in blocks to bound the temporary
    n = x.shape[0]
    out = np.empty(n)
    log_norm = -0.5 * d * math.log(2.0 * math.pi * gm.variance)
    logw = np.log(gm.weights)
    block = max(1, (1 << 22) // max(len(gm.weights), 1))
    for s in range(0, n, block):
        diff = x[s : s + block, None, :] - gm.atoms[None, :, :]
        d2 = (diff * diff).sum(axis=2)
        out[s : s + block] = logsumexp(logw[None, :] - d2 / (2.0 * gm.variance), axis=1)
    return out + log_norm


def reference_score_batch(gm, x):
    """Gradient of log density: responsibility-weighted (atom - x) / variance."""
    logw = np.log(gm.weights)
    diff = gm.atoms[None, :, :] - x[:, None, :]            # (n, k, d)
    log_resp = logw[None, :] - (diff * diff).sum(axis=2) / (2.0 * gm.variance)
    log_resp -= logsumexp(log_resp, axis=1, keepdims=True)
    resp = np.exp(log_resp)
    return (resp[:, :, None] * diff).sum(axis=1) / gm.variance


def _random_mixture(rng, k, d):
    w = rng.random(k) + 0.1
    return GaussianMixture(
        atoms=rng.uniform(-2.0, 2.0, (k, d)),
        weights=w / w.sum(),
        variance=float(rng.uniform(0.3, 1.5)),
    )


@pytest.mark.parametrize(
    "k, d", [(1, 1), (4, 1), (16, 1), (4, 2), (16, 2), (33, 2), (129, 2), (3, 3), (16, 7)]
)
def test_mixture_kernel_matches_reference_bits(k, d):
    rng = np.random.default_rng(100 * k + d)
    gm = _random_mixture(rng, k, d)
    x = reference_sample_mixture(gm, rng, CHUNK)
    assert np.array_equal(_log_density(gm, x), reference_log_density(gm, x))
    want = reference_score_batch(gm, x)
    if d == 1 and k >= 8:
        # numpy summed this one over the atoms pairwise; the kernel sums in order
        np.testing.assert_allclose(_score_batch(gm, x), want, rtol=1e-13, atol=1e-13)
    else:
        assert np.array_equal(_score_batch(gm, x), want)


@pytest.mark.parametrize("k, d", [(8, 8), (5, 12)])
def test_mixture_kernel_matches_reference_high_dim(k, d):
    # from d = 8 numpy sums |x - a|^2 over the last axis pairwise, the kernel
    # column by column, so only the last bits may differ
    rng = np.random.default_rng(100 * k + d)
    gm = _random_mixture(rng, k, d)
    x = reference_sample_mixture(gm, rng, CHUNK)
    np.testing.assert_allclose(_log_density(gm, x), reference_log_density(gm, x), rtol=1e-13)
    # scores near zero lose their relative digits to cancellation
    np.testing.assert_allclose(
        _score_batch(gm, x), reference_score_batch(gm, x), rtol=1e-13, atol=1e-13
    )


@pytest.mark.parametrize("k, d", [(4, 1), (16, 2)])
def test_mixture_kernel_block_edges(k, d):
    # batches that end just before, at and just after a block boundary
    rng = np.random.default_rng(30 + k)
    gm = _random_mixture(rng, k, d)
    block = entropy._BLOCK_TERMS // k
    for n in (0, 1, block - 1, block, block + 1):
        x = reference_sample_mixture(gm, rng, n)
        assert np.array_equal(_log_density(gm, x), reference_log_density(gm, x)), n
        score = _score_batch(gm, x)
        assert score.shape == (n, d) and score.flags.c_contiguous
        assert np.array_equal(score, reference_score_batch(gm, x)), n
    point = reference_sample_mixture(gm, rng, 1)
    assert mixture_density(gm, point[0]) == np.exp(reference_log_density(gm, point))[0]


def _lse_rows():
    inf, nan = math.inf, math.nan
    rng = np.random.default_rng(26)
    yield np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 2.0], [0.0, 0.0, 0.0], [-3.0, 5.0, 5.0]])
    yield np.array([[0.0], [-inf], [inf], [nan], [1e308], [-745.0]])
    yield np.array([[0.0, -800.0, -1000.0], [700.0, -100.0, 0.0], [1e308, 1e308, 0.0]])
    yield np.array([[-inf, 0.0, 1.0], [-inf, -inf, 2.0], [-inf, -inf, -inf]])
    yield np.array([[inf, 0.0, 1.0], [inf, inf, 0.0], [inf, -inf, 0.0]])
    yield np.array([[nan, 0.0, 1.0], [inf, nan, 0.0], [-inf, nan, 1.0], [nan, nan, nan]])
    # at a spread of 1 many terms add comparable amounts, so the order of the
    # sum shows in the last bits; 129 and 200 are where numpy splits a row
    for k, spread in itertools.product((2, 7, 8, 9, 16, 33, 128, 129, 200), (20.0, 1.0)):
        t = rng.normal(0.0, spread, (500, k))
        t[::7, 1] = t[::7, 0] = t[::7].max(axis=1)  # tied maxima
        t[::11, -1] = -inf
        t[::13] = t[::13, :1]  # all-equal rows
        yield t
    yield rng.normal(0.0, 20.0, (500, 1))
    # a whole block of 2**17 terms: with no tie every count is 1, so the
    # division by the counts and their log are skipped; then the same block
    # with one tie, beside an all -inf row, and with a +inf maximum
    t = rng.normal(0.0, 1.0, (entropy._BLOCK_TERMS // 4, 4))
    assert ((t == t.max(axis=1, keepdims=True)).sum(axis=1) == 1).all()
    yield t
    tied = t.copy()
    tied[5, 2] = tied[5].max()
    yield tied
    yield np.where(np.arange(len(t))[:, None] == 7, -inf, t)
    big = t.copy()
    big[9, 1] = inf
    yield big
    # past 255 atoms the counts leave uint8, which 300 ties would wrap
    t = rng.normal(0.0, 1.0, (400, 300))
    t[::5, 1] = t[::5, 0] = t[::5].max(axis=1)
    t[::13] = t[::13, :1]
    yield t


@pytest.mark.filterwarnings("error")
def test_row_logsumexp_is_scipys():
    # the kernel holds the (n, k) rows as k columns
    for t in _lse_rows():
        np.testing.assert_array_equal(_row_logsumexp(t.T), logsumexp(t, axis=1))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_score_is_the_gradient_of_log_density(d):
    rng = np.random.default_rng(40 + d)
    gm = _random_mixture(rng, int(rng.integers(2, 6)), d)
    x = reference_sample_mixture(gm, rng, 200)
    h = 1e-5
    fd = np.empty_like(x)
    for j in range(d):
        step = np.zeros(d)
        step[j] = h
        fd[:, j] = (_log_density(gm, x + step) - _log_density(gm, x - step)) / (2.0 * h)
    np.testing.assert_allclose(_score_batch(gm, x), fd, rtol=1e-6, atol=1e-6)
