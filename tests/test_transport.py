import hashlib
import json
import math
import tracemalloc
from fractions import Fraction
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment, linprog
from scipy.spatial import cKDTree

from parset import (
    BallUnionRegion,
    DistributionSpec,
    EmpiricalMeasure,
    HalfspaceRegion,
    InvalidArgumentError,
    PointSet,
    Verdict,
    check_w1_domination,
    convergence_experiment,
    coupling_sandwich_check,
    d_r_brute_force,
    d_r_uniform,
    d_r_weighted,
    decision_region_risk,
    gaussian_smooth,
    robust_risk,
    sample_distribution,
    w1_empirical,
)
from parset._rng import single_generator
from parset.cli import main
from parset.transport import _pair_dist_sq, _permutations, _threshold_csr


def uniform(points):
    return EmpiricalMeasure.uniform(PointSet(points))


def test_dr_identity():
    x = PointSet([[0.0, 1.0], [2.0, 3.0]])
    assert d_r_uniform(x, x, 0.5).value == 0.0


def test_dr_all_far():
    x = PointSet([[0.0], [1.0]])
    y = PointSet([[100.0], [200.0]])
    assert d_r_uniform(x, y, 0.5).value == 1.0


def test_dr_line_example():
    x = PointSet([[0.0], [1.0], [2.0]])
    y = PointSet([[0.5], [2.1], [9.0]])
    res = d_r_uniform(x, y, 0.3)
    assert res.value == pytest.approx(1.0 / 3.0)
    assert res.value == d_r_brute_force(x, y, 0.3)


def test_dr_threshold_tie_matchable():
    # distance exactly 2r costs nothing
    x = PointSet([[0.0]])
    y = PointSet([[1.0]])
    assert d_r_uniform(x, y, 0.5).value == 0.0
    # the threshold graph is exactly the dense d2 <= (2r)^2 test, ties and
    # r = 0 with coincident points included
    rng = np.random.default_rng(3)
    lattice = rng.integers(-4, 5, (60, 2)) * 0.25
    cases = [
        (lattice, lattice[rng.permutation(60)], r) for r in (0.0, 0.125, 0.25, 0.375)
    ] + [(rng.standard_normal((80, 3)), rng.standard_normal((70, 3)), 0.4)]
    for xs, ys, r in cases:
        dense = ((xs[:, None, :] - ys[None, :, :]) ** 2).sum(axis=2) <= (2.0 * r) ** 2
        indptr, indices = _threshold_csr(xs, ys, (2.0 * r) ** 2)
        got = np.zeros_like(dense)
        got[np.repeat(np.arange(len(xs)), np.diff(indptr)), indices] = True
        assert indptr[-1] == dense.sum()
        np.testing.assert_array_equal(got, dense)
        # row-major order with ascending columns, not just the same set
        np.testing.assert_array_equal(indices, np.nonzero(dense)[1])


def reference_threshold_csr(x, y, threshold_sq):
    """The threshold graph from one KD-tree ball query per row of x, each a
    Python list of columns; the pair query must give the same arrays."""
    radius = math.sqrt(threshold_sq) * (1.0 + 1e-9)
    near = cKDTree(y).query_ball_point(x, radius, return_sorted=True)
    rows = np.repeat(np.arange(len(x)), [len(cols) for cols in near])
    cols = np.fromiter(chain.from_iterable(near), np.int64, len(rows))
    keep = ((x[rows] - y[cols]) ** 2).sum(axis=1) <= threshold_sq
    indptr = np.zeros(len(x) + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows[keep], minlength=len(x)), out=indptr[1:])
    return indptr, cols[keep]


def _graph_instances():
    for d in (1, 2, 3, 8, 9):
        rng = np.random.default_rng(d)
        # d2 <= 0.5 d keeps 1-40% of the pairs; the trees visit rows out of order
        for n, m in ((1, 1), (1, 40), (40, 1), (2000, 1500)):
            yield f"normal-{d}d-{n}x{m}", rng.standard_normal((n, d)), rng.standard_normal((m, d)), 0.5 * d
    rng = np.random.default_rng(10)
    lattice = rng.integers(-3, 4, (500, 2)) * 0.5
    ys = np.concatenate([lattice[rng.permutation(500)], rng.integers(-3, 4, (300, 2)) * 0.5])
    yield "lattice-r0", lattice, ys, 0.0
    yield "lattice-ties", lattice, ys, 0.25
    cube = rng.uniform(0.0, 1.0, (500, 3))
    yield "every-pair", cube[:300], cube[300:], 3.0
    dup = np.repeat(rng.standard_normal((100, 2)), 3, axis=0)
    yield "duplicates", dup, dup[rng.permutation(300)], 0.25
    yield "no-edges", rng.standard_normal((200, 2)), 100.0 + rng.standard_normal((150, 2)), 1.0


@pytest.mark.parametrize(
    "name,xs,ys,threshold_sq", [pytest.param(*case, id=case[0]) for case in _graph_instances()]
)
def test_threshold_csr_matches_reference(name, xs, ys, threshold_sq):
    indptr, indices = _threshold_csr(xs, ys, threshold_sq)
    want_indptr, want_indices = reference_threshold_csr(xs, ys, threshold_sq)
    assert indptr.dtype == indices.dtype == np.int64
    np.testing.assert_array_equal(indptr, want_indptr)
    np.testing.assert_array_equal(indices, want_indices)
    if name == "every-pair":
        assert len(indices) == len(xs) * len(ys)
    if name == "no-edges":
        assert len(indices) == 0


def test_threshold_csr_memory_stays_bounded():
    # a Python int per candidate pair, as per-row ball queries give, peaks at about 40 MB
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal((2400, 2)), rng.standard_normal((2400, 2))
    tracemalloc.start()
    try:
        indptr, indices = _threshold_csr(x, y, 0.6**2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(indices) == 490_743
    assert peak < 25e6, peak


# sha256 of what `parset dr` writes and of repr(d_r_uniform(...).certificate)
# for two seeded 1500-point clouds at r = 0.3, taken with these numpy and scipy
# versions; the certificate is the matching that Dinic finds, so it pins the
# edge order of the threshold graph as well as its edge set
_DR_SHA256 = "522fb2dc46118e15332b308890055bd738c6baa5183148458540d359bb440a01"
_CERTIFICATE_SHA256 = "44cb56fd24e1acbd0c311e2c9ec25b4b9eeb6212c81f3d7296715ea17433c552"
_TRANSPORT_VERSIONS = {"numpy": "2.4.6", "scipy": "1.17.1"}


def test_transport_digest_is_pinned(tmp_path):
    import scipy

    have = {"numpy": np.__version__, "scipy": scipy.__version__}
    if have != _TRANSPORT_VERSIONS:
        pytest.skip(f"digest taken with {_TRANSPORT_VERSIONS}, running with {have}")
    rng = np.random.default_rng(1500)
    x = rng.standard_normal((1500, 2))
    y = rng.standard_normal((1500, 2)) + [1.0, 0.0]
    (tmp_path / "mu0.json").write_text(json.dumps({"points": x.tolist()}))
    (tmp_path / "mu1.json").write_text(json.dumps({"points": y.tolist()}))
    out = tmp_path / "dr.json"
    assert main(["dr", "--mu0", str(tmp_path / "mu0.json"), "--mu1", str(tmp_path / "mu1.json"),
                 "--radius", "0.3", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _DR_SHA256
    cert = d_r_uniform(PointSet(x), PointSet(y), 0.3).certificate
    assert hashlib.sha256(repr(cert).encode()).hexdigest() == _CERTIFICATE_SHA256


def test_dr_brute_force_sweep():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        dim = int(rng.integers(1, 4))
        x = PointSet(rng.standard_normal((n, dim)))
        y = PointSet(rng.standard_normal((n, dim)))
        r = float(rng.uniform(0.05, 1.5))
        assert d_r_uniform(x, y, r).value == d_r_brute_force(x, y, r)
    # one shared table per n, which no caller can change
    perms = _permutations(8)
    assert not perms.flags.writeable
    assert _permutations(8) is perms


def test_dr_certificate_is_a_maximum_matching():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((300, 2))
    y = rng.standard_normal((300, 2))
    r = 0.1
    res = d_r_uniform(PointSet(x), PointSet(y), r)
    pairs = np.asarray(res.certificate)
    assert len(set(pairs[:, 0])) == len(set(pairs[:, 1])) == len(pairs)
    assert (np.linalg.norm(x[pairs[:, 0]] - y[pairs[:, 1]], axis=1) <= 2.0 * r).all()
    far = (np.linalg.norm(x[:, None, :] - y[None, :, :], axis=2) > 2.0 * r).astype(float)
    rows, cols = linear_sum_assignment(far)
    assert len(pairs) == 300 - int(far[rows, cols].sum())
    assert res.value_exact == Fraction(300 - len(pairs), 300)


def test_dr_certificate_validity():
    rng = np.random.default_rng(2)
    x = PointSet(rng.standard_normal((20, 2)))
    y = PointSet(rng.standard_normal((20, 2)))
    r = 0.6
    res = d_r_uniform(x, y, r)
    for i, j in res.certificate:
        assert np.linalg.norm(x.points[i] - y.points[j]) <= 2.0 * r + 1e-12
    matched_mass = len(res.certificate) / 20.0
    assert matched_mass + res.value == pytest.approx(1.0)


def test_dr_properties():
    rng = np.random.default_rng(3)
    x = PointSet(rng.standard_normal((15, 2)))
    y = PointSet(rng.standard_normal((15, 2)) + 0.5)
    wx = rng.random(15) + 0.1
    wy = rng.random(12) + 0.1
    mu = EmpiricalMeasure(points=x, weights=wx / wx.sum())
    nu = EmpiricalMeasure(points=PointSet(y.points[:12]), weights=wy / wy.sum())
    prev = prev_weighted = 1.1
    for r in [0.0, 0.1, 0.3, 0.6, 1.0, 2.0]:
        val = d_r_uniform(x, y, r).value
        assert 0.0 <= val <= 1.0
        assert val <= prev + 1e-12  # non-increasing in r
        assert val == d_r_uniform(y, x, r).value  # symmetric
        prev = val
        weighted = d_r_weighted(mu, nu, r).value_exact
        assert 0 <= weighted <= 1
        assert weighted <= prev_weighted
        assert weighted == d_r_weighted(nu, mu, r).value_exact
        prev_weighted = weighted


def _quarter_lattice_points(n):
    quarter = st.integers(-8, 8).map(lambda k: k / 4)
    return st.lists(st.tuples(quarter, quarter), min_size=n, max_size=n)


@given(
    st.integers(1, 8).flatmap(lambda n: st.tuples(_quarter_lattice_points(n), _quarter_lattice_points(n))),
    st.integers(0, 8).map(lambda k: k / 8),
)
@settings(max_examples=150, deadline=None)
def test_dr_uniform_equals_weighted_on_uniform_inputs(xy, r):
    # lattice points and radii make distances of exactly 2r common
    x, y = (np.array(p) for p in xy)
    want = d_r_weighted(uniform(x), uniform(y), r).value_exact
    assert d_r_uniform(PointSet(x), PointSet(y), r).value_exact == want


@pytest.mark.parametrize("r", [1e154, 1e200, 1.7e308])
def test_dr_radius_past_double_range_is_rejected(r):
    # (2r)^2 used to raise a bare OverflowError from float **
    x, y = PointSet([[0.0], [1.0]]), PointSet([[5.0], [7.0]])
    for call in (d_r_uniform, d_r_brute_force):
        with pytest.raises(InvalidArgumentError, match=r"radius must be below 6.7e153"):
            call(x, y, r)
    with pytest.raises(InvalidArgumentError, match=r"radius must be below 6.7e153"):
        d_r_weighted(uniform([[0.0], [1.0]]), uniform([[5.0], [7.0]]), r)


def test_dr_radius_just_inside_double_range():
    x, y = PointSet([[0.0], [1.0]]), PointSet([[5.0], [7.0]])
    r = 6.7e153
    assert d_r_uniform(x, y, r).value == d_r_brute_force(x, y, r) == 0.0
    assert d_r_weighted(uniform([[0.0], [1.0]]), uniform([[5.0], [7.0]]), r).value == 0.0


def test_dr_zero_radius_disjoint_supports():
    x = PointSet([[0.0], [1.0]])
    y = PointSet([[0.25], [0.75]])
    assert d_r_uniform(x, y, 0.0).value == 1.0


def test_dr_requires_points():
    with pytest.raises(InvalidArgumentError):
        d_r_uniform(PointSet([[0.0]]), PointSet([[0.0], [1.0]]), 0.5)


def test_dr_weighted_identity():
    mu = uniform([[0.0, 1.0], [1.0, 0.0]])
    assert d_r_weighted(mu, mu, 0.5).value == 0.0
    assert d_r_weighted(mu, mu, 0.5).value_exact == 0


def test_dr_weighted_two_atom_flow():
    mu = EmpiricalMeasure(points=PointSet([[0.0]]), weights=np.array([1.0]))
    r = 0.5
    nu = EmpiricalMeasure(
        points=PointSet([[2.0 * r], [3.0 * r]]), weights=np.array([0.5, 0.5])
    )
    res = d_r_weighted(mu, nu, r)
    assert res.value_exact == Fraction(1, 2)


def test_dr_weighted_matches_uniform():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        dim = int(rng.integers(1, 3))
        x = PointSet(rng.standard_normal((n, dim)))
        y = PointSet(rng.standard_normal((n, dim)))
        r = float(rng.uniform(0.05, 1.5))
        assert (
            d_r_weighted(EmpiricalMeasure.uniform(x), EmpiricalMeasure.uniform(y), r).value_exact
            == d_r_uniform(x, y, r).value_exact
        )


def test_dr_weighted_flow_certificate():
    rng = np.random.default_rng(5)
    w = rng.random(6) + 0.2
    mu = EmpiricalMeasure(points=PointSet(rng.standard_normal((6, 2))), weights=w / w.sum())
    v = rng.random(4) + 0.2
    nu = EmpiricalMeasure(points=PointSet(rng.standard_normal((4, 2))), weights=v / v.sum())
    r = 0.8
    res = d_r_weighted(mu, nu, r)
    sent = np.zeros(6)
    received = np.zeros(4)
    for i, j, mass in res.certificate:
        assert np.linalg.norm(mu.points.points[i] - nu.points.points[j]) <= 2 * r + 1e-12
        sent[i] += mass
        received[j] += mass
    assert (sent <= mu.weights + 1e-9).all()
    assert (received <= nu.weights + 1e-9).all()
    assert sent.sum() == pytest.approx(1.0 - res.value, abs=1e-9)


# -- integer flow against the rational reference ------------------------------


class RationalFlowNetwork:
    """Dinic on Fraction capacities, the weighted solver's former
    implementation, kept as the reference the integer flow must reproduce."""

    def __init__(self, n_nodes: int):
        self.adj: list[list[int]] = [[] for _ in range(n_nodes)]
        self.to: list[int] = []
        self.cap: list[Fraction] = []

    def add_edge(self, u: int, v: int, cap: Fraction) -> int:
        eid = len(self.to)
        self.adj[u].append(eid)
        self.to.append(v)
        self.cap.append(cap)
        self.adj[v].append(eid + 1)
        self.to.append(u)
        self.cap.append(Fraction(0))
        return eid

    def max_flow(self, s: int, t: int) -> Fraction:
        total = Fraction(0)
        n = len(self.adj)
        while True:
            level = [-1] * n
            level[s] = 0
            queue = [s]
            for u in queue:
                for eid in self.adj[u]:
                    v = self.to[eid]
                    if self.cap[eid] > 0 and level[v] < 0:
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[t] < 0:
                return total
            cursor = [0] * n

            def dfs(u: int, pushed: Fraction) -> Fraction:
                if u == t:
                    return pushed
                while cursor[u] < len(self.adj[u]):
                    eid = self.adj[u][cursor[u]]
                    v = self.to[eid]
                    if self.cap[eid] > 0 and level[v] == level[u] + 1:
                        got = dfs(v, min(pushed, self.cap[eid]))
                        if got > 0:
                            self.cap[eid] -= got
                            self.cap[eid ^ 1] += got
                            return got
                    cursor[u] += 1
                return Fraction(0)

            while True:
                pushed = dfs(s, Fraction(1))
                if pushed == 0:
                    break
                total += pushed


def rational_d_r_weighted(mu, nu, r):
    """(value_exact, value, certificate) from the dense threshold matrix and
    the rational flow."""

    def exact_weights(weights):
        fracs = [Fraction(float(w)) for w in weights]
        total = sum(fracs)
        return [f / total for f in fracs]

    n, m = len(mu.points), len(nu.points)
    wx = exact_weights(mu.weights)
    wy = exact_weights(nu.weights)
    x, y = mu.points.points, nu.points.points
    ok = ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2) <= (2.0 * r) ** 2
    net = RationalFlowNetwork(n + m + 2)
    src, snk = n + m, n + m + 1
    for i in range(n):
        net.add_edge(src, i, wx[i])
    for j in range(m):
        net.add_edge(n + j, snk, wy[j])
    edge_ids = {}
    for i in range(n):
        for j in np.nonzero(ok[i])[0]:
            edge_ids[(i, int(j))] = net.add_edge(i, n + int(j), Fraction(2))
    flow = net.max_flow(src, snk)
    exact = Fraction(1) - flow
    cert = tuple(
        (i, j, float(net.cap[eid ^ 1]))
        for (i, j), eid in sorted(edge_ids.items())
        if net.cap[eid ^ 1] > 0
    )
    return exact, float(exact), cert


def _weighted_instances():
    rng = np.random.default_rng(14)

    def random_weights(k):
        w = rng.random(k) + 0.05
        return w / w.sum()

    for _ in range(120):
        n, m, dim = int(rng.integers(1, 13)), int(rng.integers(1, 13)), int(rng.integers(1, 4))
        mu = EmpiricalMeasure(PointSet(rng.standard_normal((n, dim))), random_weights(n))
        nu = EmpiricalMeasure(PointSet(rng.standard_normal((m, dim))), random_weights(m))
        yield mu, nu, float(rng.uniform(0.05, 1.5))
    for _ in range(120):
        n, m, dim = int(rng.integers(1, 16)), int(rng.integers(1, 16)), int(rng.integers(1, 4))
        yield uniform(rng.standard_normal((n, dim))), uniform(rng.standard_normal((m, dim))), float(
            rng.uniform(0.05, 1.5)
        )
    # points on a 0.25 lattice: many pairs at exactly 2r, coincident points at r = 0
    for k in range(120):
        n, m, dim = int(rng.integers(1, 13)), int(rng.integers(1, 13)), int(rng.integers(1, 4))
        xs = rng.integers(-3, 4, (n, dim)) * 0.25
        ys = rng.integers(-3, 4, (m, dim)) * 0.25
        r = (0.0, 0.125, 0.25)[k % 3]
        if k % 2:
            yield uniform(xs), uniform(ys), r
        else:
            yield EmpiricalMeasure(PointSet(xs), random_weights(n)), EmpiricalMeasure(
                PointSet(ys), random_weights(m)
            ), r


def test_dr_weighted_matches_rational_reference():
    for mu, nu, r in _weighted_instances():
        res = d_r_weighted(mu, nu, r)
        assert (res.value_exact, res.value, res.certificate) == rational_d_r_weighted(mu, nu, r)


def test_w1_identity_and_point_masses():
    mu = uniform([[0.0, 0.0], [1.0, 1.0]])
    assert w1_empirical(mu, mu).value == pytest.approx(0.0, abs=1e-12)
    a = uniform([[0.0, 0.0]])
    b = uniform([[3.0, 4.0]])
    assert w1_empirical(a, b).value == pytest.approx(5.0)


def test_w1_sorted_1d():
    mu = uniform([[0.0], [1.0]])
    nu = uniform([[2.0], [3.0]])
    assert w1_empirical(mu, nu).value == pytest.approx(2.0)


def test_w1_1d_matches_lp():
    rng = np.random.default_rng(6)
    for _ in range(10):
        n, m = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        wx = rng.random(n) + 0.1
        wy = rng.random(m) + 0.1
        mu = EmpiricalMeasure(points=PointSet(rng.standard_normal((n, 1))), weights=wx / wx.sum())
        nu = EmpiricalMeasure(points=PointSet(rng.standard_normal((m, 1))), weights=wy / wy.sum())
        got = w1_empirical(mu, nu).value
        # LP route on the same instance, forced by a 2-d embedding with zero column
        mu2 = EmpiricalMeasure(
            points=PointSet(np.hstack([mu.points.points, np.zeros((n, 1))])), weights=mu.weights
        )
        nu2 = EmpiricalMeasure(
            points=PointSet(np.hstack([nu.points.points, np.zeros((m, 1))])), weights=nu.weights
        )
        assert got == pytest.approx(w1_empirical(mu2, nu2).value, abs=1e-8)


def test_w1_hungarian_matches_lp():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((8, 2))
    y = rng.standard_normal((8, 2))
    uni = w1_empirical(uniform(x), uniform(y)).value
    # near-uniform weights route through the LP
    w = np.full(8, 1.0 / 8) + np.concatenate([[1e-9], np.full(7, -1e-9 / 7)])
    lp = w1_empirical(
        EmpiricalMeasure(points=PointSet(x), weights=w),
        EmpiricalMeasure.uniform(PointSet(y)),
    ).value
    assert uni == pytest.approx(lp, abs=1e-6)


def reference_w1_dense_lp(mu, nu):
    # the transportation LP with the dense constraint matrix it was first built with
    n, m = len(mu.points), len(nu.points)
    dist = np.sqrt(_pair_dist_sq(mu.points.points, nu.points.points))
    a_eq = np.zeros((n + m, n * m))
    for i in range(n):
        a_eq[i, i * m : (i + 1) * m] = 1.0
    for j in range(m):
        a_eq[n + j, j::m] = 1.0
    res = linprog(
        dist.ravel(),
        A_eq=a_eq,
        b_eq=np.concatenate([mu.weights, nu.weights]),
        bounds=(0, None),
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    plan = res.x.reshape(n, m)
    flows = tuple(
        (int(i), int(j), float(plan[i, j]))
        for i, j in zip(*np.nonzero(plan > 1e-12))
    )
    return float(res.fun), flows


def test_w1_sparse_lp_matches_dense_build():
    rng = np.random.default_rng(26)

    def measure(n, d):
        w = rng.random(n) + 0.1
        return EmpiricalMeasure(points=PointSet(rng.standard_normal((n, d))), weights=w / w.sum())

    for n, m, d in ((37, 91, 2), (91, 37, 3), (60, 60, 2)):
        mu, nu = measure(n, d), measure(m, d)
        res = w1_empirical(mu, nu)
        assert (res.value, res.certificate) == reference_w1_dense_lp(mu, nu)
    # the dense (n + m) x (n * m) matrix alone is 32 MB at n = m = 100
    mu, nu = measure(100, 2), measure(100, 2)
    tracemalloc.start()
    try:
        res = w1_empirical(mu, nu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6
    assert (res.value, res.certificate) == reference_w1_dense_lp(mu, nu)


def test_w1_size_guard():
    pts = PointSet(np.random.default_rng(0).standard_normal((501, 2)))
    with pytest.raises(InvalidArgumentError, match="500"):
        w1_empirical(EmpiricalMeasure.uniform(pts), EmpiricalMeasure.uniform(pts))


def test_w1_certificate_marginals():
    rng = np.random.default_rng(8)
    wx = rng.random(5) + 0.1
    wy = rng.random(7) + 0.1
    mu = EmpiricalMeasure(points=PointSet(rng.standard_normal((5, 3))), weights=wx / wx.sum())
    nu = EmpiricalMeasure(points=PointSet(rng.standard_normal((7, 3))), weights=wy / wy.sum())
    res = w1_empirical(mu, nu)
    sent = np.zeros(5)
    received = np.zeros(7)
    cost = 0.0
    for i, j, mass in res.certificate:
        sent[i] += mass
        received[j] += mass
        cost += mass * np.linalg.norm(mu.points.points[i] - nu.points.points[j])
    np.testing.assert_allclose(sent, mu.weights, atol=1e-7)
    np.testing.assert_allclose(received, nu.weights, atol=1e-7)
    assert cost == pytest.approx(res.value, abs=1e-7)


def test_w1_1d_certificate_marginals():
    rng = np.random.default_rng(15)
    for _ in range(20):
        n, m = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        wx = rng.random(n) + 0.1
        wy = rng.random(m) + 0.1
        mu = EmpiricalMeasure(points=PointSet(rng.standard_normal((n, 1))), weights=wx / wx.sum())
        nu = EmpiricalMeasure(points=PointSet(rng.standard_normal((m, 1))), weights=wy / wy.sum())
        res = w1_empirical(mu, nu)
        sent = np.zeros(n)
        received = np.zeros(m)
        cost = 0.0
        for i, j, mass in res.certificate:
            assert mass >= 0.0
            sent[i] += mass
            received[j] += mass
            cost += mass * abs(mu.points.points[i, 0] - nu.points.points[j, 0])
        np.testing.assert_allclose(sent, mu.weights, atol=1e-12)
        np.testing.assert_allclose(received, nu.weights, atol=1e-12)
        assert cost == pytest.approx(res.value, abs=1e-12)


def test_w1_domination_cases():
    mu = uniform([[0.0, 0.0], [1.0, 0.0]])
    rep = check_w1_domination(mu, mu, 0.5)
    assert rep.verdict is Verdict.PASS and rep.measured == 0.0
    far = uniform([[100.0, 0.0], [101.0, 0.0]])
    rep = check_w1_domination(mu, far, 0.5)
    assert rep.verdict is Verdict.PASS
    assert rep.measured == 1.0  # completely separated
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(2, 51))
        a = uniform(rng.standard_normal((n, 2)))
        b = uniform(rng.standard_normal((n, 2)) + rng.uniform(-1, 1))
        rep = check_w1_domination(a, b, float(rng.uniform(0.05, 1.0)))
        assert rep.verdict is Verdict.PASS


def test_robust_risk():
    assert robust_risk(1.0) == 0.0
    assert robust_risk(0.0) == 0.5
    assert robust_risk(1.0 / 3.0) == pytest.approx(1.0 / 3.0)
    with pytest.raises(InvalidArgumentError):
        robust_risk(1.5)


def test_decision_region_degenerate():
    rng = np.random.default_rng(10)
    x0 = PointSet(rng.standard_normal((50, 2)))
    x1 = PointSet(rng.standard_normal((50, 2)))
    empty = BallUnionRegion(centers=[], rho=0.0)
    assert decision_region_risk(empty, x0, x1, 0.3) == 0.5
    everything = HalfspaceRegion(normal=[1.0, 0.0], offset=math.inf)
    assert decision_region_risk(everything, x0, x1, 0.3) == 0.5


def test_decision_region_halfspace_dominates_optimum():
    rng = np.random.default_rng(11)
    n, r = 100, 0.2
    x0 = PointSet(rng.standard_normal((n, 2)) + [0.0, 0.0])
    x1 = PointSet(rng.standard_normal((n, 2)) + [4.0, 0.0])
    region = HalfspaceRegion(normal=[-1.0, 0.0], offset=-2.0)  # decide 1 when x >= 2
    risk = decision_region_risk(region, x0, x1, r)
    optimal = robust_risk(d_r_uniform(x0, x1, r).value)
    assert risk < 0.5
    assert risk >= optimal - 1e-12


def test_decision_region_ball_union():
    x0 = PointSet([[0.0, 0.0], [3.0, 0.0]])
    x1 = PointSet([[0.1, 0.0], [5.0, 0.0]])
    region = BallUnionRegion(centers=[[0.0, 0.0]], rho=1.0)
    risk = decision_region_risk(region, x0, x1, 0.25)
    # mu0 mass in dilated ball: the origin point only -> 1/2
    # mu1 mass outside the eroded ball: the far point only -> 1/2
    assert risk == pytest.approx(0.5 * (0.5 + 0.5))
    with pytest.raises(InvalidArgumentError):
        decision_region_risk(object(), x0, x1, 0.25)


# regions that once gave a silent risk (rho NaN: 0.5; offset NaN: 0.0) or a
# bare ValueError from min_dist or matmul
_BAD_REGIONS = {
    "halfspace-nan-offset": lambda: HalfspaceRegion(normal=[1.0, 0.0], offset=math.nan),
    "ball-nan-rho": lambda: BallUnionRegion(centers=[[0.0, 0.0]], rho=math.nan),
    "ball-inf-rho": lambda: BallUnionRegion(centers=[[0.0, 0.0]], rho=math.inf),
    "ball-nan-center": lambda: BallUnionRegion(centers=[[math.nan, 0.0]], rho=1.0),
    "ball-inf-center": lambda: BallUnionRegion(centers=[[0.0, -math.inf]], rho=1.0),
    "halfspace-3d": lambda: HalfspaceRegion(normal=[1.0, 0.0, 0.0], offset=0.0),
    "ball-3d": lambda: BallUnionRegion(centers=[[0.0, 0.0, 0.0]], rho=1.0),
    "ball-3d-kd-tree": lambda: BallUnionRegion(centers=np.zeros((70, 3)), rho=1.0),
}


@pytest.mark.parametrize("case", sorted(_BAD_REGIONS))
def test_decision_region_rejects_bad_input(case):
    x = PointSet(np.random.default_rng(12).standard_normal((20, 2)))
    with pytest.raises(InvalidArgumentError):
        decision_region_risk(_BAD_REGIONS[case](), x, x, 0.25)


def test_gaussian_smooth():
    pts = PointSet(np.zeros((4000, 3)))
    assert gaussian_smooth(pts, 0.0, 1) is pts
    smoothed = gaussian_smooth(pts, 0.5, 1)
    again = gaussian_smooth(pts, 0.5, 1)
    np.testing.assert_array_equal(smoothed.points, again.points)
    mean = smoothed.points.mean(axis=0)
    se = 0.5 / math.sqrt(4000)
    assert (np.abs(mean) <= 3.0 * se).all()
    var = smoothed.points.var(axis=0)
    assert np.allclose(var, 0.25, rtol=0.15)


def test_coupling_sandwich_reduction():
    rng = np.random.default_rng(12)
    mu0 = uniform(rng.standard_normal((10, 2)))
    mu1 = uniform(rng.standard_normal((10, 2)) + 0.3)
    rep = coupling_sandwich_check(mu0, mu1, mu0, mu1, r=0.6, eta=0.1)
    assert rep.verdict is Verdict.PASS
    assert rep.measured <= 0.0


def test_coupling_sandwich_random_quadruples():
    rng = np.random.default_rng(13)
    for _ in range(20):
        dim = int(rng.integers(1, 4))
        mk = lambda: uniform(rng.standard_normal((int(rng.integers(2, 21)), dim)))
        r = float(rng.uniform(0.3, 1.2))
        eta = float(rng.uniform(0.05, 0.32)) * r
        eta = min(eta, r / 3 * 0.95)
        rep = coupling_sandwich_check(mk(), mk(), mk(), mk(), r, eta)
        assert rep.verdict is Verdict.PASS


def test_coupling_sandwich_eta_guard():
    mu = uniform([[0.0], [1.0]])
    with pytest.raises(InvalidArgumentError):
        coupling_sandwich_check(mu, mu, mu, mu, r=0.6, eta=0.2001)


def test_sample_distribution_kinds():
    g = single_generator(1)
    spec = DistributionSpec(kind="uniform-ball", dim=3, radius=2.0)
    pts = sample_distribution(spec, 5000, g)
    assert pts.shape == (5000, 3)
    assert (np.linalg.norm(pts, axis=1) <= 2.0 + 1e-12).all()
    mix = DistributionSpec(
        kind="gaussian-mixture", dim=2, atoms=((0.0, 0.0), (5.0, 0.0)), sigma=0.1
    )
    pts = sample_distribution(mix, 4000, g)
    near_first = (np.linalg.norm(pts, axis=1) < 2.0).mean()
    assert 0.4 < near_first < 0.6
    with pytest.raises(InvalidArgumentError):
        DistributionSpec(kind="mystery", dim=2)


def test_distribution_spec_rejects_wrong_widths():
    # a width other than dim used to fail inside sample_distribution's reshape,
    # or (a 1-coordinate centre) broadcast silently
    for kw in (
        {"kind": "gaussian-mixture", "atoms": ((0.0,),)},
        {"kind": "gaussian-mixture", "atoms": ((0.0, 0.0), (0.0, 0.0, 0.0, 0.0))},
        {"kind": "uniform-ball", "center": (0.5,)},
    ):
        with pytest.raises(InvalidArgumentError, match="coordinates"):
            DistributionSpec(dim=2, **kw)


@pytest.mark.parametrize(
    "kw, match",
    [
        ({"weights": (-1.0, 2.0)}, "weights"),
        ({"weights": (0.0, 1.0)}, "weights"),
        ({"weights": (math.nan, 1.0)}, "weights"),
        ({"weights": (math.inf, 1.0)}, "weights"),
        ({"sigma": -1.0}, "sigma"),
        ({"sigma": math.nan}, "sigma"),
        ({"radius": -1.0}, "radius"),
        ({"radius": 0.0}, "radius"),
        ({"radius": math.inf}, "radius"),
    ],
)
def test_distribution_spec_rejects_bad_parameters(kw, match):
    # weights (-1, 2) used to draw only atom 1; the rest drew without complaint
    with pytest.raises(InvalidArgumentError, match=match):
        DistributionSpec(kind="gaussian-mixture", dim=1, atoms=((0.0,), (1.0,)), **kw)


@pytest.mark.parametrize("sigma", [-0.5, math.nan, math.inf])
def test_convergence_rejects_bad_noise(sigma):
    gen = DistributionSpec(kind="uniform-ball", dim=1)
    with pytest.raises(InvalidArgumentError, match="sigma"):
        convergence_experiment(gen, gen, r=0.3, sigma=sigma, n_grid=(4,), trials=1, seed=0)


@pytest.mark.parametrize("n_grid", [(), (4, 0), (-3,)])
def test_convergence_rejects_bad_grid(n_grid):
    # a negative size used to end in numpy's "negative dimensions" ValueError
    gen = DistributionSpec(kind="uniform-ball", dim=1)
    with pytest.raises(InvalidArgumentError, match="n_grid"):
        convergence_experiment(gen, gen, r=0.3, sigma=0.0, n_grid=n_grid, trials=1, seed=0)


def test_convergence_identical_generators():
    gen = DistributionSpec(kind="gaussian-mixture", dim=2, atoms=((0.0, 0.0),))
    result = convergence_experiment(
        gen, gen, r=0.5, sigma=0.1, n_grid=(10, 20), trials=3, seed=3
    )
    for _, _, d_r, dev in result.rows:
        assert d_r <= 0.35
    assert result.reference <= 0.2


def test_convergence_separated_atoms():
    gen0 = DistributionSpec(kind="gaussian-mixture", dim=2, atoms=((0.0, 0.0),))
    gen1 = DistributionSpec(kind="gaussian-mixture", dim=2, atoms=((6.0, 0.0),))
    result = convergence_experiment(
        gen0, gen1, r=0.5, sigma=0.05, n_grid=(10, 20), trials=3, seed=4
    )
    assert result.reference == 1.0
    for _, _, d_r, dev in result.rows:
        assert d_r == 1.0 and dev == 0.0


def test_convergence_rows_schema():
    gen = DistributionSpec(kind="uniform-ball", dim=1, radius=1.0)
    result = convergence_experiment(
        gen, gen, r=0.3, sigma=0.0, n_grid=(8, 4), trials=2, seed=5
    )
    ns = [row[0] for row in result.rows]
    assert ns == [4, 4, 8, 8]  # sorted grid, trials within
    assert result.n_ref == 64
    assert set(result.medians) == {4, 8}


def test_empirical_measure_validation():
    with pytest.raises(InvalidArgumentError):
        EmpiricalMeasure(points=PointSet([[0.0]]), weights=np.array([0.5]))
    with pytest.raises(InvalidArgumentError):
        EmpiricalMeasure(points=PointSet([[0.0]]), weights=np.array([0.5, 0.5]))
    with pytest.raises(InvalidArgumentError):
        EmpiricalMeasure(points=PointSet([[0.0], [1.0]]), weights=np.array([1.0, -1e-13]))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_empirical_measure_rejects_non_finite_weights(bad):
    with pytest.raises(InvalidArgumentError, match="finite"):
        EmpiricalMeasure(points=PointSet([[0.0], [1.0]]), weights=np.array([bad, 1.0]))
