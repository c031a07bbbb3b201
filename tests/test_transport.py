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
    DistributionSpec,
    EmpiricalMeasure,
    InvalidArgumentError,
    PointSet,
    Verdict,
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
from parset import _kernels, transport
from parset._rng import chunk_generator
from parset.cli import main
from parset.transport import _DIRECT_MAX_TERMS, _pair_dist_sq, _permutations, _threshold_csr


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
    # (n + 1) * m past 2**31, so the keys are int64
    yield "int64-keys", rng.uniform(0.0, 1.0, (46341, 2)), rng.uniform(0.0, 1.0, (46341, 2)), 4e-6
    yield from _split_instances()


def _split_shapes(d):
    """(n, m) shapes whose n * m * d straddle the direct test's cutoff: the
    largest pair count at or below it, one pair fewer and one pair more,
    plus the 1 x k and k x 1 shapes at the same counts."""
    at = _DIRECT_MAX_TERMS // d
    for pairs in (at - 1, at, at + 1):
        m = max(k for k in range(1, math.isqrt(pairs) + 1) if pairs % k == 0)
        yield pairs // m, m
        yield 1, pairs
        yield pairs, 1


def _split_instances():
    """Graphs on both sides of the direct test's cutoff, in the dimensions
    where the sum of squares changes order (8, and past 8 the remainder)."""
    for d in (1, 2, 3, 7, 8, 9, 20):
        rng = np.random.default_rng(100 + d)
        for n, m in _split_shapes(d):
            xs = rng.standard_normal((n, d)) * rng.uniform(0.1, 10.0, d)
            ys = rng.standard_normal((m, d)) * rng.uniform(0.1, 10.0, d)
            d2 = _pair_dist_sq(xs, ys)
            # a threshold that is some pair's distance, so that pair is a tie
            tie = float(np.quantile(d2, 0.3, method="lower"))
            yield f"split-{d}d-{n}x{m}", xs, ys, tie
    for d in (2, 3):
        rng = np.random.default_rng(200 + d)
        for n, m in list(_split_shapes(d))[::3]:
            xs = rng.integers(-2, 3, (n, d)) * 0.5
            ys = rng.integers(-2, 3, (m, d)) * 0.5
            yield f"split-lattice-r0-{d}d-{n}x{m}", xs, ys, 0.0
            yield f"split-lattice-ties-{d}d-{n}x{m}", xs, ys, 0.25 * d
            yield f"split-no-edges-{d}d-{n}x{m}", xs, ys + 100.0, 1.0
            yield f"split-every-pair-{d}d-{n}x{m}", xs, ys, 4.0 * d


def test_split_instances_straddle_the_cutoff():
    below = {name for name, xs, ys, _ in _split_instances()
             if len(xs) * len(ys) * xs.shape[1] <= _DIRECT_MAX_TERMS}
    names = [name for name, *_ in _split_instances()]
    assert 0 < len(below) < len(names)
    for d in (1, 2, 3, 7, 8, 9, 20):
        terms = sorted(n * m * d for n, m in _split_shapes(d))
        assert terms[0] < terms[3] <= _DIRECT_MAX_TERMS < terms[-1]


@pytest.mark.parametrize(
    "name,xs,ys,threshold_sq", [pytest.param(*case, id=case[0]) for case in _graph_instances()]
)
def test_threshold_csr_matches_reference(name, xs, ys, threshold_sq):
    indptr, indices = _threshold_csr(xs, ys, threshold_sq)
    want_indptr, want_indices = reference_threshold_csr(xs, ys, threshold_sq)
    # int32 wherever (len(x) + 1) * len(y) fits, on both sides of the split
    want_dtype = np.int32 if (len(xs) + 1) * len(ys) < 2**31 else np.int64
    assert indptr.dtype == indices.dtype == want_dtype
    assert (want_dtype == np.int64) == (name == "int64-keys")
    np.testing.assert_array_equal(indptr, want_indptr)
    np.testing.assert_array_equal(indices, want_indices)
    if "every-pair" in name:
        assert len(indices) == len(xs) * len(ys)
    if "no-edges" in name:
        assert len(indices) == 0


@pytest.mark.parametrize("counts, want", [
    ((46340 * 46341,), np.int32),  # the keys of a 46339 x 46340 graph
    ((46342 * 46341,), np.int64),  # and of a 46341 x 46341 one
    ((2**31 - 1,), np.int32),
    ((2**31,), np.int64),
    ((2**31 - 1, 2**31 - 1), np.int32),  # a union's node and entry counts
    ((5, 2**31), np.int64),  # entries past int32, nodes within it
    ((2**31, 5), np.int64),  # and the other way round
    ((2**40, 2**40), np.int64),
])
def test_index_dtype_is_int32_wherever_every_count_fits(counts, want):
    assert _kernels.index_dtype(*counts) is want


def test_index_dtype_decides_the_network(monkeypatch):
    # the network's arrays take the dtype of its node and entry counts,
    # whatever the graphs' dtypes, and int64 gives the same matching
    import scipy.sparse.csgraph as csgraph

    rng = np.random.default_rng(15)
    x, y = rng.standard_normal((300, 2)), rng.standard_normal((300, 2))
    ox, oy = np.argsort(x[:, 0], kind="stable"), np.argsort(y[:, 0], kind="stable")
    indptr, indices = _threshold_csr(x[ox], y[oy], 0.2**2)
    seen, solve = [], csgraph.maximum_flow

    def recorded(network, *args, **kwargs):
        seen.append((network.indptr.dtype, network.indices.dtype, network.data.dtype))
        return solve(network, *args, **kwargs)

    monkeypatch.setattr(csgraph, "maximum_flow", recorded)
    counts = []
    monkeypatch.setattr(_kernels, "index_dtype", lambda *c: counts.append(c) or np.int32)
    want = _kernels.max_matching([(indptr, indices, 300)])
    monkeypatch.setattr(_kernels, "index_dtype", lambda *c: counts.append(c) or np.int64)
    got = _kernels.max_matching([(indptr, indices, 300)])
    assert counts == [(602, len(indices) + 600)] * 2
    # scipy's csr_matrix copies int64 arrays whose values fit int32 down to
    # int32; index_dtype picks int64 only where they do not fit
    assert seen == [(np.int32, np.int32, np.int32)] * 2
    assert got[0] == want[0]
    np.testing.assert_array_equal(got[1], want[1])


@pytest.mark.parametrize("d", [*range(1, 21), 127, 128, 129, 300])
def test_pairwise_sum_is_numpy_row_sum(d):
    # magnitudes over 30 binades, so that any other order of addition rounds
    # differently somewhere
    rng = np.random.default_rng(d)
    diffs = rng.standard_normal((3000, d)) * np.exp2(rng.integers(-15, 15, (3000, d)))
    want = (diffs**2).sum(axis=1)
    np.testing.assert_array_equal(_kernels.pairwise_sum(np.square(diffs).T.copy()), want)
    # the direct test gives the same bits as the candidates' test
    x, y = diffs[:40], diffs[40:115] * 0.5
    i, j = np.divmod(np.arange(40 * 75), 75)
    np.testing.assert_array_equal(_pair_dist_sq(x, y).ravel(), ((x[i] - y[j]) ** 2).sum(axis=1))


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


def test_matching_memory_stays_bounded():
    # the graph of test_threshold_csr_memory_stays_bounded, matched: 23.9 MB
    # with the network's int32 arrays the only copy of the edges, 25.9 MB if
    # the int32 graph is still held during the solve, and 32.0 MB with an
    # int64 graph held beside an int64 copy in the network; most of the peak
    # is inside scipy's maximum_flow, so the bound holds for the pinned
    # versions only
    _skip_unless_transport_versions()
    rng = np.random.default_rng(0)
    x, y = PointSet(rng.standard_normal((2400, 2))), PointSet(rng.standard_normal((2400, 2)))
    lone = d_r_uniform(x, y, 0.3)  # imports and scipy's first-call set-up, untraced
    tracemalloc.start()
    try:
        res = d_r_uniform(x, y, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res == lone
    assert peak < 25e6, peak


# sha256 of what `parset dr` writes and of repr(d_r_uniform(...).certificate)
# for two seeded 1500-point clouds at r = 0.3, taken with these numpy and scipy
# versions; the certificate is the matching that Dinic finds on the graph of
# the points sorted by first coordinate, so it pins that order and the graph's
# edge order as well as its edge set
_DR_SHA256 = "522fb2dc46118e15332b308890055bd738c6baa5183148458540d359bb440a01"
_CERTIFICATE_SHA256 = "9cd52f6b23487f9c801cdb1e03447fc840279247c7891ba6c57f1cf44f276144"
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


def _skip_unless_transport_versions():
    import scipy

    have = {"numpy": np.__version__, "scipy": scipy.__version__}
    if have != _TRANSPORT_VERSIONS:
        pytest.skip(f"digest taken with {_TRANSPORT_VERSIONS}, running with {have}")


# sha256 of what `parset dr` writes for two fixed weighted 2-d clouds of 120
# and 90 points at r = 0.4, taken with _TRANSPORT_VERSIONS; unequal counts
# take the exact flow, so it pins d_r_weighted's Dinic in Python integers
_DR_WEIGHTED_SHA256 = "1799b3c921e3436a44ab807b2e5d4324eebe605b055827d38bb57a88af9be8f3"


def test_dr_weighted_digest_is_pinned(tmp_path):
    _skip_unless_transport_versions()
    rng = np.random.default_rng(1200)
    for side, n, shift in (("mu0", 120, 0.0), ("mu1", 90, 0.7)):
        w = rng.random(n) + 0.1
        cloud = {"points": (rng.standard_normal((n, 2)) + [shift, 0.0]).tolist(),
                 "weights": (w / w.sum()).tolist()}
        (tmp_path / f"{side}.json").write_text(json.dumps(cloud))
    out = tmp_path / "dr.json"
    assert main(["dr", "--mu0", str(tmp_path / "mu0.json"), "--mu1", str(tmp_path / "mu1.json"),
                 "--radius", "0.4", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _DR_WEIGHTED_SHA256


# sha256 of repr((value_exact, certificate)) of every d_r_weighted call that
# check_w1_domination_sweep and check_coupling_sandwich make at seed 0 of the
# smoke profile (20 pairs and 20 quadruples, 2-50 points a side), taken with
# _TRANSPORT_VERSIONS; the certificates are the flows Dinic pushes, so it pins
# the push order beyond the rational reference's sizes
_SUITE_FLOWS_SHA256 = "726ca09f1134437a7b1e96d45ada855c06000623fbc3fbd84e5b8db3c14950e6"


def test_suite_weighted_flows_digest_is_pinned(monkeypatch):
    from parset import suite, transport

    _skip_unless_transport_versions()
    calls = []
    solve = transport.d_r_weighted

    def recorded(mu, nu, r):
        res = solve(mu, nu, r)
        calls.append((res.value_exact, res.certificate))
        return res

    monkeypatch.setattr(transport, "d_r_weighted", recorded)
    prof = suite.profile_from_samples(100)
    suite.check_w1_domination_sweep(0, prof)
    suite.check_coupling_sandwich(0, prof)
    assert len(calls) == prof.w1_pairs + 5 * prof.sandwich_count
    assert max(len(cert) for _, cert in calls) > 20
    assert hashlib.sha256(repr(calls).encode()).hexdigest() == _SUITE_FLOWS_SHA256


# sha256 of the CSV and the reference line that `parset dr-converge` writes
# for a small fixed config (a 3-atom mixture against a uniform ball), taken
# with _TRANSPORT_VERSIONS; it pins the generators' streams and the sweep
_DR_CONVERGE_SHA256 = "d5dfc240f5530aef6084f54af1ed019ec113d061baa35e1eca3b0e64cdcccad7"


def test_dr_converge_digest_is_pinned(tmp_path, capsys):
    _skip_unless_transport_versions()
    config = {
        "gen0": {"kind": "gaussian-mixture", "dim": 2, "atoms": [[0.0, 0.0], [1.0, 0.5], [-0.5, 1.0]],
                 "weights": [0.5, 0.3, 0.2], "sigma": 0.3},
        "gen1": {"kind": "uniform-ball", "dim": 2, "center": [0.4, 0.2], "radius": 1.2},
        "r": 0.25, "sigma": 0.1, "n_grid": [15, 40], "trials": 3, "seed": 21,
    }
    (tmp_path / "conv.json").write_text(json.dumps(config))
    out = tmp_path / "conv.csv"
    capsys.readouterr()
    assert main(["dr-converge", "--config", str(tmp_path / "conv.json"), "--out", str(out)]) == 0
    written = out.read_bytes() + capsys.readouterr().err.encode()
    assert hashlib.sha256(written).hexdigest() == _DR_CONVERGE_SHA256


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


def _batch_instances(seed, count):
    """Mixed sizes 1-11, dims 1-3, radii from none matchable to all."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = int(rng.integers(1, 12))
        dim = int(rng.integers(1, 4))
        shift = 50.0 if k % 7 == 0 else 0.0  # a graph with no edges
        x = PointSet(rng.standard_normal((n, dim)))
        y = PointSet(rng.standard_normal((n, dim)) + shift)
        yield x, y, float(rng.choice([0.0, rng.uniform(0.05, 1.5), 4.0]))


def _assert_valid_certificate(res, x, y, r):
    """Distinct pairs in input indices, listed by ascending left index, each
    within 2r, n * (1 - value) of them."""
    pairs = np.asarray(res.certificate, dtype=np.int64).reshape(-1, 2)
    assert len(set(pairs[:, 0])) == len(set(pairs[:, 1])) == len(pairs)
    assert list(pairs[:, 0]) == sorted(pairs[:, 0])
    assert ((0 <= pairs) & (pairs < len(x))).all()
    gaps = np.linalg.norm(x[pairs[:, 0]] - y[pairs[:, 1]], axis=1)
    assert (gaps <= 2.0 * r).all()
    assert len(pairs) == len(x) * (1 - res.value_exact)


def test_d_r_uniform_many_matches_lone_calls_and_brute_force():
    instances = list(_batch_instances(11, 300))
    results = d_r_uniform_many(instances)
    assert len(results) == len(instances)
    assert any(res.certificate == () for res in results)
    for res, (x, y, r) in zip(results, instances):
        n = len(x)
        lone = d_r_uniform(x, y, r)
        assert res.value_exact == lone.value_exact and res.value == lone.value
        if n <= 8:
            assert res.value == d_r_brute_force(x, y, r)
        _assert_valid_certificate(res, x.points, y.points, r)


def test_d_r_uniform_many_batch_of_one_is_the_lone_network():
    rng = np.random.default_rng(12)
    x, y = rng.standard_normal((300, 2)), rng.standard_normal((300, 2))
    (res,) = d_r_uniform_many([(PointSet(x), PointSet(y), 0.1)])
    assert res == d_r_uniform(PointSet(x), PointSet(y), 0.1)
    # the matching of this instance's own threshold graph on the points sorted
    # by first coordinate, pair for pair, in input indices
    ox, oy = np.argsort(x[:, 0], kind="stable"), np.argsort(y[:, 0], kind="stable")
    matched, match_l = _kernels.max_matching([(*_threshold_csr(x[ox], y[oy], 0.2**2), 300)])
    left = np.flatnonzero(match_l >= 0)
    want = sorted(zip(ox[left].tolist(), oy[match_l[left]].tolist()))
    assert res.certificate == tuple(want)
    assert res.value_exact == Fraction(300 - matched, 300)
    assert d_r_uniform_many([]) == []


@pytest.mark.parametrize("dim, n, r", [(1, 400, 0.002), (2, 600, 0.05), (3, 300, 0.2)])
def test_d_r_uniform_follows_a_permutation_of_the_rows(dim, n, r):
    # distinct first coordinates fix the sorted order, so permuting the rows
    # of x and y permutes the certificate the same way
    rng = np.random.default_rng(dim)
    x, y = rng.standard_normal((n, dim)), rng.standard_normal((n, dim))
    px, py = rng.permutation(n), rng.permutation(n)
    res = d_r_uniform(PointSet(x), PointSet(y), r)
    moved = d_r_uniform(PointSet(x[px]), PointSet(y[py]), r)
    assert 0 < len(res.certificate) < n
    assert moved.value_exact == res.value_exact
    back_x, back_y = np.argsort(px), np.argsort(py)  # input row i is moved row back[i]
    want = sorted((back_x[i], back_y[j]) for i, j in res.certificate)
    assert moved.certificate == tuple((int(i), int(j)) for i, j in want)
    _assert_valid_certificate(moved, x[px], y[py], r)


@pytest.mark.parametrize("x, y, r", [
    # a vertical line against a shifted one: every first coordinate ties
    (np.column_stack([np.zeros(40), np.arange(40.0)]),
     np.column_stack([np.full(40, 0.5), np.arange(40.0)[::-1] + 0.3]), 0.3),
    # repeated points on both sides, in 2-d
    (np.repeat([[0.0, 0.0], [1.0, 1.0], [0.0, 3.0]], [5, 7, 4], axis=0)[::-1],
     np.repeat([[0.1, 0.0], [1.0, 0.9], [5.0, 5.0]], [6, 6, 4], axis=0), 0.1),
    # 1-d duplicates
    (np.array([[0.0], [1.0], [0.0], [1.0], [2.0], [0.0]]),
     np.array([[1.0], [0.0], [0.5], [0.0], [9.0], [1.0]]), 0.25),
])
def test_d_r_uniform_ties_in_first_coordinate_keep_a_valid_certificate(x, y, r):
    res = d_r_uniform(PointSet(x), PointSet(y), r)
    _assert_valid_certificate(res, x, y, r)
    far = (_pair_dist_sq(x, y) > (2.0 * r) ** 2).astype(float)
    rows, cols = linear_sum_assignment(far)
    assert res.value_exact == Fraction(int(far[rows, cols].sum()), len(x))
    if len(x) <= 8:
        assert res.value == d_r_brute_force(PointSet(x), PointSet(y), r)


@pytest.mark.parametrize("bad, match", [
    ((PointSet([[0.0]]), PointSet([[0.0], [1.0]]), 0.5), "equal sample counts"),
    ((PointSet([[0.0]]), PointSet([[0.0, 1.0]]), 0.5), "share a dimension"),
    ((PointSet([[0.0]]), PointSet([[1.0]]), 1e154), "radius must be below 6.7e153"),
    ((PointSet([[0.0]]), PointSet([[1.0]]), math.nan), "radius"),
])
def test_d_r_uniform_many_checks_every_triple_before_solving(monkeypatch, bad, match):
    calls = []
    monkeypatch.setattr(_kernels, "max_matching", lambda *a: calls.append(a))
    good = (PointSet([[0.0]]), PointSet([[1.0]]), 0.5)
    with pytest.raises(InvalidArgumentError, match=match):
        d_r_uniform_many([good, bad])
    assert calls == []


def test_d_r_uniform_many_memory_stays_bounded():
    # 12 dense graphs of about 1.9e5 edges each would hold 2.3e6 edges at once,
    # about 170 MB of solver arrays; batches of at most _BATCH_MAX_EDGES edges
    # peak near 50 MB
    rng = np.random.default_rng(13)
    x, y = PointSet(rng.standard_normal((1500, 2))), PointSet(rng.standard_normal((1500, 2)))
    lone = d_r_uniform(x, y, 0.3)
    tracemalloc.start()
    try:
        results = d_r_uniform_many([(x, y, 0.3)] * 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(res.value_exact == lone.value_exact for res in results)
    assert peak < 100e6, peak


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


@pytest.fixture
def matching_calls(monkeypatch):
    """(n_left, n_right, result, scipy flow) of every max_matching call."""
    import scipy.sparse.csgraph as csgraph

    calls, flows = [], []
    solve, match = csgraph.maximum_flow, _kernels.max_matching

    def flow(*args, **kwargs):
        res = solve(*args, **kwargs)
        flows.append(res.flow)
        return res

    def matching(graphs):
        n_left = sum(len(indptr) - 1 for indptr, _, _ in graphs)
        n_right = sum(m for _, _, m in graphs)
        got = match(graphs)
        assert graphs == []  # emptied into the network
        calls.append((n_left, n_right, got, flows[-1]))
        return got

    monkeypatch.setattr(csgraph, "maximum_flow", flow)
    monkeypatch.setattr(_kernels, "max_matching", matching)
    return calls


def _tocoo_matching(flow, n_left, n_right):
    """The matching read from the whole flow matrix in COO form."""
    flow = flow.tocoo()
    source = n_left + n_right
    used = (flow.row < n_left) & (flow.col >= n_left) & (flow.col < source) & (flow.data > 0)
    match_l = np.full(n_left, -1, np.int64)
    match_l[flow.row[used]] = flow.col[used] - n_left
    return int(used.sum()), match_l


def test_max_matching_reads_the_flow_from_its_left_rows(matching_calls):
    rng = np.random.default_rng(14)
    graphs = [(np.zeros(2, np.int64), np.zeros(0, np.int64), 1, 1),  # one node a side, no edge
              (np.array([0, 1]), np.array([0]), 1, 1),  # one edge
              (np.array([0, 0, 0, 0]), np.zeros(0, np.int64), 3, 5)]  # no edges
    for n_left, n_right, density in ((7, 3, 0.5), (3, 7, 0.5), (40, 40, 0.05), (200, 150, 0.02),
                                     (150, 200, 0.2), (60, 90, 1.0)):
        dense = rng.random((n_left, n_right)) < density
        dense[rng.random(n_left) < 0.2] = False  # some left nodes with no edge
        indptr = np.concatenate([[0], np.cumsum(dense.sum(axis=1))])
        graphs.append((indptr, np.nonzero(dense)[1], n_left, n_right))
    for indptr, indices, _, n_right in graphs:
        _kernels.max_matching([(indptr, indices, n_right)])
    # a block-diagonal union of unequal parts, some with no edge
    parts = [(PointSet(rng.standard_normal((n, 2))), PointSet(rng.standard_normal((n, 2)) + shift), 0.3)
             for n, shift in ((1, 0.0), (5, 50.0), (17, 0.0), (1, 50.0), (60, 0.0), (33, 0.0))]
    d_r_uniform_many(parts)
    assert len(matching_calls) == len(graphs) + 1
    for (indptr, indices, *_), (_, _, (matched, match_l), _) in zip(graphs, matching_calls):
        left = np.flatnonzero(match_l >= 0)
        assert matched == len(left) == len(set(match_l[left]))
        for i in left:  # every matched pair is an edge
            assert match_l[i] in indices[indptr[i] : indptr[i + 1]]
    assert [matched for _, _, (matched, _), _ in matching_calls[:3]] == [0, 1, 0]
    for n_left, n_right, (matched, match_l), flow in matching_calls:
        want_matched, want_match_l = _tocoo_matching(flow, n_left, n_right)
        assert matched == want_matched
        assert match_l.dtype == want_match_l.dtype
        np.testing.assert_array_equal(match_l, want_match_l)


def test_max_matching_takes_int32_and_int64_graphs():
    # graphs built by hand come in either dtype; the network, and so the
    # matching, does not depend on it
    rng = np.random.default_rng(16)
    parts = []
    for n_left, n_right, density in ((50, 40, 0.08), (30, 45, 0.1)):
        dense = rng.random((n_left, n_right)) < density
        indptr = np.concatenate([[0], np.cumsum(dense.sum(axis=1))])
        parts.append((indptr, np.nonzero(dense)[1], n_right))
    assert all(indptr.dtype == indices.dtype == np.int64 for indptr, indices, _ in parts)

    def int32(part):
        indptr, indices, n_right = part
        return indptr.astype(np.int32), indices.astype(np.int32), n_right

    for graphs in ([parts[0]], parts):
        want_matched, want = _kernels.max_matching(list(graphs))
        for cast in ([int32] * len(graphs), [int32, lambda part: part]):
            matched, match_l = _kernels.max_matching([f(part) for f, part in zip(cast, graphs)])
            assert matched == want_matched
            np.testing.assert_array_equal(match_l, want)
    # the union's matching is the parts' side by side, the second part's right
    # nodes after the first's
    alone = [_kernels.max_matching([int32(part)]) for part in parts]
    assert want_matched == alone[0][0] + alone[1][0]
    assert ((want[:50] >= -1) & (want[:50] < 40)).all()
    assert ((want[50:] == -1) | ((want[50:] >= 40) & (want[50:] < 85))).all()


def test_the_network_holds_the_only_copy_of_the_edges_during_the_solve(monkeypatch):
    import weakref

    import scipy.sparse.csgraph as csgraph

    arrays, alive = [], []
    build, solve = transport._threshold_csr, csgraph.maximum_flow

    def built(x, y, threshold_sq):  # x and y are the sorted copies
        graph = build(x, y, threshold_sq)
        arrays.extend(map(weakref.ref, (x, y, *graph)))
        return graph

    def solved(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in arrays))
        return solve(*args, **kwargs)

    monkeypatch.setattr(transport, "_threshold_csr", built)
    monkeypatch.setattr(csgraph, "maximum_flow", solved)
    rng = np.random.default_rng(17)
    x, y = PointSet(rng.standard_normal((400, 2))), PointSet(rng.standard_normal((400, 2)))
    small = PointSet(rng.standard_normal((20, 2)))  # a graph of the direct test
    d_r_uniform(x, y, 0.1)
    d_r_uniform_many([(x, y, 0.1), (small, small, 0.3), (x, y, 0.2)])
    assert alive == [0, 0]
    # a batch solved early holds the graph that did not fit, and only it
    monkeypatch.setattr(transport, "_BATCH_MAX_EDGES", 1)
    d_r_uniform_many([(x, y, 0.1), (small, small, 0.3), (x, y, 0.2)])
    assert alive == [0, 0, 2, 2, 0]


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


def reference_w1_dense_lp(mu, nu):
    # the transportation LP with a dense constraint matrix, solved by HiGHS: an
    # independent reference for the exact 1-d and assignment routes
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


def test_w1_1d_matches_lp():
    rng = np.random.default_rng(6)
    for _ in range(10):
        n, m = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        wx = rng.random(n) + 0.1
        wy = rng.random(m) + 0.1
        mu = EmpiricalMeasure(points=PointSet(rng.standard_normal((n, 1))), weights=wx / wx.sum())
        nu = EmpiricalMeasure(points=PointSet(rng.standard_normal((m, 1))), weights=wy / wy.sum())
        got = w1_empirical(mu, nu).value
        assert got == pytest.approx(reference_w1_dense_lp(mu, nu)[0], abs=1e-8)


def test_w1_hungarian_matches_lp():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((8, 2))
    y = rng.standard_normal((8, 2))
    uni = w1_empirical(uniform(x), uniform(y)).value
    assert uni == pytest.approx(reference_w1_dense_lp(uniform(x), uniform(y))[0], abs=1e-9)


def test_one_uniformity_rule_routes_w1_and_dr(tmp_path, monkeypatch):
    # is_uniform, all weights equal, picks the assignment solve in w1_empirical
    # and the matching in `parset dr`; weights within 1e-13 of 1/n, which a
    # tolerance would have taken as uniform, are refused by w1_empirical and
    # go to the flow in `parset dr`
    import scipy.optimize

    from parset import transport as tp

    def refused(*args):
        raise AssertionError("uniform route taken")

    rng = np.random.default_rng(17)
    x, y = PointSet(rng.standard_normal((8, 2))), PointSet(rng.standard_normal((8, 2)))
    w = np.full(8, 1.0 / 8) + np.concatenate([[7e-14], np.full(7, -1e-14)])
    near, mu1 = EmpiricalMeasure(points=x, weights=w), EmpiricalMeasure.uniform(y)
    assert mu1.is_uniform and not near.is_uniform
    monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", refused)
    monkeypatch.setattr(tp, "d_r_uniform", refused)
    with pytest.raises(AssertionError, match="uniform route"):
        w1_empirical(EmpiricalMeasure.uniform(x), mu1)
    for pair in ((near, mu1), (mu1, near)):
        with pytest.raises(InvalidArgumentError, match="two uniform measures of equal size"):
            w1_empirical(*pair)
    for side, (points, weights) in {"mu0": (x, w), "mu1": (y, mu1.weights)}.items():
        payload = {"points": points.points.tolist(), "weights": weights.tolist()}
        (tmp_path / f"{side}.json").write_text(json.dumps(payload))
    out = tmp_path / "dr.json"
    assert main(["dr", "--mu0", str(tmp_path / "mu0.json"), "--mu1", str(tmp_path / "mu1.json"),
                 "--radius", "0.5", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["value"] == d_r_weighted(near, mu1, 0.5).value


def test_w1_size_guard():
    pts = PointSet(np.random.default_rng(0).standard_normal((501, 2)))
    with pytest.raises(InvalidArgumentError, match="500"):
        w1_empirical(EmpiricalMeasure.uniform(pts), EmpiricalMeasure.uniform(pts))


def test_w1_1d_certificate_marginals():
    # random weights, then tied positions and cumulative weights that meet
    # (1/4 and 2/4 against 1/2): every piece has positive mass
    rng = np.random.default_rng(15)
    for k in range(220):
        if k < 20:
            n, m = int(rng.integers(1, 12)), int(rng.integers(1, 12))
            wx = rng.random(n) + 0.1
            wy = rng.random(m) + 0.1
            mu = EmpiricalMeasure(points=PointSet(rng.standard_normal((n, 1))), weights=wx / wx.sum())
            nu = EmpiricalMeasure(points=PointSet(rng.standard_normal((m, 1))), weights=wy / wy.sum())
        else:
            n, m = (int(v) for v in rng.choice([1, 2, 3, 4, 6, 8], 2))
            mu = uniform(rng.integers(-2, 3, (n, 1)).astype(float))
            nu = uniform(rng.integers(-2, 3, (m, 1)).astype(float))
        res = w1_empirical(mu, nu)
        sent = np.zeros(n)
        received = np.zeros(m)
        cost = 0.0
        for i, j, mass in res.certificate:
            assert mass > 0.0
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
    assert rep.measured == 1.0 - 100.0  # completely separated: cost 1, W1 = 100
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(2, 51))
        a = uniform(rng.standard_normal((n, 2)))
        b = uniform(rng.standard_normal((n, 2)) + rng.uniform(-1, 1))
        rep = check_w1_domination(a, b, float(rng.uniform(0.05, 1.0)))
        assert rep.verdict is Verdict.PASS


@pytest.mark.parametrize("sigmas", [0.0, 4.0, 100.0])
def test_w1_domination_margin_does_not_read_the_sigma_rule(monkeypatch, sigmas):
    # the cost may pass W1 / (2r) by the 1e-12 margin and no more, whatever
    # multiplier the verdict rule puts on a standard error
    from types import SimpleNamespace

    from parset import bounds, transport

    monkeypatch.setattr(bounds, "_SIGMAS", sigmas)
    monkeypatch.setattr(transport, "w1_empirical", lambda mu, nu: SimpleNamespace(value=1.0))
    mu = uniform([[0.0, 0.0]])
    for cost, verdict in ((0.5 + 1e-12, Verdict.PASS), (0.5 + 2e-12, Verdict.FAIL)):
        monkeypatch.setattr(transport, "d_r_weighted", lambda mu, nu, r, c=cost: SimpleNamespace(value=c))
        rep = check_w1_domination(mu, mu, 1.0)
        assert rep.measured == cost - 0.5 and rep.std_error == 0.0
        assert rep.verdict is verdict


def test_robust_risk():
    assert robust_risk(1.0) == 0.0
    assert robust_risk(0.0) == 0.5
    assert robust_risk(1.0 / 3.0) == pytest.approx(1.0 / 3.0)
    with pytest.raises(InvalidArgumentError):
        robust_risk(1.5)


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
    g = chunk_generator(1, 0)
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


@pytest.mark.parametrize("n_grid", [(10, 10), (25, 10, 25)])
def test_convergence_rejects_a_repeated_size(n_grid):
    # a repeated size wrote each of its (n, trial) rows twice, from the same streams
    gen = DistributionSpec(kind="uniform-ball", dim=1)
    with pytest.raises(InvalidArgumentError, match=f"^n_grid holds the size {n_grid[0]} twice$"):
        convergence_experiment(gen, gen, r=0.3, sigma=0.0, n_grid=n_grid, trials=2, seed=0)


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


def test_convergence_matches_one_sweep(monkeypatch):
    # the reference is matched on its own and the trials in one sweep; values do
    # not depend on the batch, so one sweep over all the pairs gives the same numbers
    sweeps = []

    def recording(instances):
        sweeps.append(list(instances))
        return d_r_uniform_many(sweeps[-1])

    monkeypatch.setattr(transport, "d_r_uniform_many", recording)
    gen0 = DistributionSpec(kind="gaussian-mixture", dim=2, atoms=((0.0, 0.0), (1.0, 0.5)))
    gen1 = DistributionSpec(kind="uniform-ball", dim=2, radius=1.2)
    result = convergence_experiment(gen0, gen1, r=0.2, sigma=0.1, n_grid=(10, 30), trials=3, seed=6)
    reference, trials = sweeps
    assert len(reference) == 1 and len(reference[0][0]) == result.n_ref == 240
    ref, *values = (res.value for res in d_r_uniform_many(reference + trials))
    assert result.reference == ref
    assert [row[2] for row in result.rows] == values
    assert [row[3] for row in result.rows] == [abs(v - ref) for v in values]
    assert len(set(values)) > 2 and 0.0 < ref < 1.0


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
