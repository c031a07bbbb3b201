import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import logsumexp

from parset import (
    EntropyMethod,
    GaussianMixture,
    InvalidArgumentError,
    Verdict,
    convolve_mixtures,
    de_bruijn_check,
    entropy_mc,
    entropy_quadrature,
    fisher_information_mc,
    mixture_density,
    pointwise_lemma_check,
    reverse_epi_check,
)
from parset._rng import CHUNK, map_reduce_chunks
from parset.bounds import BoundReport
from parset.entropy import (
    EntropyEstimate,
    _log_density,
    _row_logsumexp,
    _score_batch,
    pointwise_lemma_log_ratio,
)


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
    assert est.method is EntropyMethod.MC
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
    assert est.method is EntropyMethod.QUADRATURE
    assert est.value == pytest.approx(gaussian_entropy(0.6), abs=1e-8)


def test_entropy_quadrature_separated_limit():
    gm = GaussianMixture(atoms=[[0.0], [60.0]], weights=[0.5, 0.5], variance=0.5)
    want = math.log(2.0) + gaussian_entropy(0.5)
    assert entropy_quadrature(gm).value == pytest.approx(want, abs=1e-8)


def test_entropy_quadrature_refinement():
    gm = GaussianMixture(atoms=[[0.0], [2.0]], weights=[0.4, 0.6], variance=0.3)
    coarse = entropy_quadrature(gm, points=8193).value
    fine = entropy_quadrature(gm, points=16385).value
    assert abs(coarse - fine) < 1e-8


def test_entropy_quadrature_dim_guard():
    gm = GaussianMixture(atoms=[[0.0, 0.0]], weights=[1.0], variance=1.0)
    with pytest.raises(InvalidArgumentError):
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
        rep = reverse_epi_check(
            x_atoms=rng.uniform(-3, 3, (kx, 1)),
            x_weights=wx / wx.sum(),
            y_atoms=rng.uniform(-3, 3, (ky, 1)),
            y_weights=wy / wy.sum(),
            r=float(rng.uniform(0.2, 1.5)),
        )
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


def test_pointwise_lemma_equality_case():
    log_ratio, log_threshold = pointwise_lemma_log_ratio([0.7, -0.2], [0.7, -0.2], 0.9)
    assert log_ratio == pytest.approx(log_threshold, abs=1e-12)
    assert pointwise_lemma_check([0.7, -0.2], [0.7, -0.2], 0.9)


def test_pointwise_lemma_strict_case():
    log_ratio, log_threshold = pointwise_lemma_log_ratio([1.0], [-1.0], 0.5)
    assert log_ratio > log_threshold + 1.0  # |a-b|^2/(4r) = 2


def test_pointwise_lemma_sweep():
    rng = np.random.default_rng(8)
    for _ in range(1000):
        d = int(rng.integers(1, 5))
        a = rng.standard_normal(d) * 3
        b = rng.standard_normal(d) * 3
        r = float(rng.uniform(0.05, 5.0))
        assert pointwise_lemma_check(a, b, r)


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


def test_de_bruijn_single_gaussian():
    rep = de_bruijn_check([[0.0]], [1.0], t0=0.8, dt=1e-3, n=150_000, seed=14)
    assert rep.verdict is Verdict.PASS
    # analytic slope: d/dt (1/2) ln(2 pi e t) = 1/(2t) = J/2
    gm = GaussianMixture(atoms=[[0.0]], weights=[1.0], variance=0.8)
    est = fisher_information_mc(gm, n=100_000, seed=15)
    assert est.value / 2.0 == pytest.approx(1.0 / (2.0 * 0.8), abs=4 * est.std_error)


def test_de_bruijn_two_atom_quadrature_oracle():
    atoms = [[0.0], [2.0]]
    w = [0.5, 0.5]
    t0 = 1.0
    rep = de_bruijn_check(atoms, w, t0=t0, dt=1e-3, n=200_000, seed=16)
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
    h = lambda t: entropy_quadrature(
        GaussianMixture(atoms=atoms, weights=w, variance=t), points=32769
    ).value
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


# The three moment reductions as they were before they shared
# entropy._moment_means, kept verbatim as the reference for that core.


def reference_sample_mixture(gm, g, n):
    idx = np.searchsorted(np.cumsum(gm.weights), g.random(n), side="right")
    idx = idx.clip(0, len(gm.weights) - 1)
    return gm.atoms[idx] + g.standard_normal((n, gm.dim)) * math.sqrt(gm.variance)


def reference_entropy_mc(gm, n=1_000_000, seed=0, workers=1):
    def chunk(g, m):
        v = -_log_density(gm, reference_sample_mixture(gm, g, m))
        return float(v.sum()), float((v * v).sum())

    s1, s2 = map_reduce_chunks(seed, n, workers, chunk)
    mean = s1 / n
    var = max(s2 / n - mean * mean, 0.0)
    return EntropyEstimate(mean, math.sqrt(var / n), EntropyMethod.MC)


def reference_fisher_information_mc(gm, n=200_000, seed=0, workers=1):
    def chunk(g, m):
        x = reference_sample_mixture(gm, g, m)
        s2 = (_score_batch(gm, x) ** 2).sum(axis=1)
        return float(s2.sum()), float((s2 * s2).sum())

    s1, s2 = map_reduce_chunks(seed, n, workers, chunk)
    mean = s1 / n
    var = max(s2 / n - mean * mean, 0.0)
    return EntropyEstimate(mean, math.sqrt(var / n), EntropyMethod.MC)


def reference_de_bruijn_check(atoms, weights, t0, dt=1e-3, n=200_000, seed=0, curvature_budget=100.0):
    gm_plus = GaussianMixture(atoms=atoms, weights=weights, variance=t0 + dt)
    gm_minus = GaussianMixture(atoms=atoms, weights=weights, variance=t0 - dt)
    gm_mid = GaussianMixture(atoms=atoms, weights=weights, variance=t0)

    cum = np.cumsum(gm_mid.weights)

    def chunk(g, m):
        idx = np.searchsorted(cum, g.random(m), side="right").clip(0, len(cum) - 1)
        eps = g.standard_normal((m, gm_mid.dim))
        base = gm_mid.atoms[idx]
        v_plus = -_log_density(gm_plus, base + eps * math.sqrt(t0 + dt))
        v_minus = -_log_density(gm_minus, base + eps * math.sqrt(t0 - dt))
        fd = (v_plus - v_minus) / (2.0 * dt)
        s2 = (_score_batch(gm_mid, base + eps * math.sqrt(t0)) ** 2).sum(axis=1)
        return (
            float(fd.sum()),
            float((fd * fd).sum()),
            float(s2.sum()),
            float((s2 * s2).sum()),
        )

    f1, f2, j1, j2 = map_reduce_chunks(seed, n, workers=1, chunk_fn=chunk)
    fd_mean = f1 / n
    fd_se = math.sqrt(max(f2 / n - fd_mean * fd_mean, 0.0) / n)
    j_mean = j1 / n
    j_se = math.sqrt(max(j2 / n - j_mean * j_mean, 0.0) / n)
    combined = math.sqrt(fd_se**2 + (j_se / 2.0) ** 2)
    allowance = 4.0 * combined + curvature_budget * dt * dt * (1.0 + t0**-3)
    return BoundReport.compare(
        "de-bruijn",
        bound_value=allowance,
        measured=abs(fd_mean - j_mean / 2.0),
        std_error=0.0,
    )


def test_moment_core_matches_reference_estimators():
    # two chunks, the last one partial, so two workers split the stream
    n = CHUNK + 2345
    rng = np.random.default_rng(25)
    for dim, workers in itertools.product(range(1, 5), (1, 2)):
        k = int(rng.integers(1, 5))
        w = rng.random(k) + 0.1
        atoms, weights = rng.uniform(-2.0, 2.0, (k, dim)), w / w.sum()
        gm = GaussianMixture(atoms=atoms, weights=weights, variance=float(rng.uniform(0.3, 1.5)))
        seed = int(rng.integers(1 << 32))
        assert entropy_mc(gm, n, seed, workers) == reference_entropy_mc(gm, n, seed, workers)
        assert fisher_information_mc(gm, n, seed, workers) == reference_fisher_information_mc(
            gm, n, seed, workers
        )
        # the reference runs on one thread, so two workers must not change the report
        t0 = float(rng.uniform(0.3, 1.5))
        assert de_bruijn_check(
            atoms, weights, t0, 1e-3, n, seed, workers
        ) == reference_de_bruijn_check(atoms, weights, t0, 1e-3, n, seed)


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


@pytest.mark.parametrize("k, d", [(1, 1), (4, 1), (16, 1), (4, 2), (16, 2), (3, 3), (16, 7)])
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


def _lse_rows():
    inf, nan = math.inf, math.nan
    rng = np.random.default_rng(26)
    yield np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 2.0], [0.0, 0.0, 0.0], [-3.0, 5.0, 5.0]])
    yield np.array([[0.0], [-inf], [inf], [nan], [1e308], [-745.0]])
    yield np.array([[0.0, -800.0, -1000.0], [700.0, -100.0, 0.0], [1e308, 1e308, 0.0]])
    yield np.array([[-inf, 0.0, 1.0], [-inf, -inf, 2.0], [-inf, -inf, -inf]])
    yield np.array([[inf, 0.0, 1.0], [inf, inf, 0.0], [inf, -inf, 0.0]])
    yield np.array([[nan, 0.0, 1.0], [inf, nan, 0.0], [-inf, nan, 1.0], [nan, nan, nan]])
    for k in (2, 7, 8, 9, 16, 33):
        t = rng.normal(0.0, 20.0, (500, k))
        t[::7, 1] = t[::7, 0] = t[::7].max(axis=1)  # tied maxima
        t[::11, -1] = -inf
        t[::13] = t[::13, :1]  # all-equal rows
        yield t


@pytest.mark.filterwarnings("error")
def test_row_logsumexp_is_scipys():
    for t in _lse_rows():
        np.testing.assert_array_equal(_row_logsumexp(t), logsumexp(t, axis=1))


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
