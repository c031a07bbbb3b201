"""Deterministic counter-based sampling streams.

Every Monte Carlo draw goes through a Philox stream keyed by the user seed.
Work is split into fixed-size chunks; chunk k always starts at the same
counter offset, and partial results are combined in chunk order.  Estimates
are therefore bit-identical for a given seed regardless of how many threads
execute the chunks.

That count is one scope, threads(n), not a parameter: map_reduce_chunks reads
it, and nothing else in the package takes a thread count.  Outside any scope
it is 1.  parset.suite.run_suite and the mc and epi commands enter it.

The package's two Monte Carlo reductions run on map_reduce_chunks: band
counts (mc._band_estimates, behind every estimate in mc, solid angles
included) and moment means (entropy._moment_mean).  Mixture atoms are drawn
by one inverse-CDF routine, atom_rows: counted for mixtures of at most
_COUNT_MAX_ATOMS atoms, binary-searched above, the same rows either way.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Sequence

import numpy as np

from .geometry import positive_count

CHUNK = 1 << 16
# Counter blocks reserved per chunk slot; far larger than any chunk can consume,
# so streams never overlap.
_CHUNK_STRIDE = 1 << 40

_MASK64 = (1 << 64) - 1


def derive_seed(seed: int, *tags) -> int:
    """Stable 64-bit child seed for a (seed, tags) pair."""
    msg = repr((int(seed),) + tuple(tags)).encode()
    return int.from_bytes(hashlib.blake2b(msg, digest_size=8).digest(), "little")


def chunk_generator(seed: int, chunk_index: int) -> np.random.Generator:
    bg = np.random.Philox(key=int(seed) & _MASK64)
    bg.advance(int(chunk_index) * _CHUNK_STRIDE)
    return np.random.Generator(bg)


_THREADS: ContextVar[int] = ContextVar("parset_threads", default=1)


@contextmanager
def threads(n: int):
    """Run the chunks of every Monte Carlo reduction inside on n threads; the
    previous count comes back on exit, an exception's included."""
    token = _THREADS.set(positive_count(n, "workers"))
    try:
        yield
    finally:
        _THREADS.reset(token)


def map_reduce_chunks(seed: int, total: int, chunk_fn: Callable[[np.random.Generator, int], Sequence]):
    """Run chunk_fn(gen, n) over all chunks, on the threads of the enclosing
    threads scope; add the tuples in chunk order."""
    total = positive_count(total, "total samples")
    sizes = [CHUNK] * (total // CHUNK)
    if total % CHUNK:
        sizes.append(total % CHUNK)

    def run(k: int):
        return chunk_fn(chunk_generator(seed, k), sizes[k])

    count = _THREADS.get()
    if count == 1 or len(sizes) == 1:
        parts = [run(k) for k in range(len(sizes))]
    else:
        with ThreadPoolExecutor(count) as pool:
            parts = list(pool.map(run, range(len(sizes))))
    acc = list(parts[0])
    for part in parts[1:]:
        for i, v in enumerate(part):
            acc[i] = acc[i] + v
    return tuple(acc)


# most atoms whose draws are counted rather than binary-searched.  On the
# 2-core box, with the uniforms and the gather, 64 atoms cost 17-29 against
# 56-64 ns a draw at CHUNK draws (counting stays ahead up to 256 atoms and
# past), and 40-70 against 56-76 ns at 4096 draws, where the two meet
# between 64 and 128 atoms
_COUNT_MAX_ATOMS = 64


def atom_rows(g: np.random.Generator, atoms: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """n rows of atoms drawn with probabilities weights (inverse CDF, one
    uniform u each): row i is the number of cumulative weights cw_j <= u_i,
    clipped to the last row for a cumulative sum that ends below 1.

    That is searchsorted(cw, u, side="right").clip(0, k - 1).  Up to
    _COUNT_MAX_ATOMS atoms it is counted instead, one pass of u per threshold
    into a uint8 counter; leaving the last threshold out is the clip.  Both
    give the same integers.  np.take gathers the rows about ten times faster
    than fancy indexing, with the same values."""
    cw, u = np.cumsum(weights), g.random(n)
    if len(cw) > _COUNT_MAX_ATOMS:
        idx = np.searchsorted(cw, u, side="right").clip(0, len(cw) - 1)
    else:
        idx, hit = np.zeros(n, dtype=np.uint8), np.empty(n, dtype=bool)
        for c in cw[:-1]:
            idx += np.less_equal(c, u, out=hit)
    return np.take(atoms, idx, axis=0)


def uniform_in_ball(g: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """n points uniform in the unit L2 ball (direction x radius^(1/d) method)."""
    z = g.standard_normal((n, dim))
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    radii = g.random(n) ** (1.0 / dim)
    return z / norms * radii[:, None]


def uniform_in_cube(g: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """n points uniform in [-1, 1]^dim."""
    return g.random((n, dim)) * 2.0 - 1.0
