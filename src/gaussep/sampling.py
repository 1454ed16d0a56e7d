"""Seeded Monte Carlo sampling of Gaussian Wigner densities.

The Wigner function of a Gaussian state is a proper (nonnegative) normal
density, so phase-space points can be drawn from it directly; sample
averages of quadrature polynomials converge to the symmetrized operator
moments.  :func:`sample_wigner` returns the bare read-only sample matrix,
one row per shot.

Randomness uses numpy's PCG64 generator.  Independent substreams are
derived from a root seed and an integer key path via
``numpy.random.SeedSequence(entropy=seed, spawn_key=key)``, so concurrent
consumers (measurement groups, readouts, estimation branches) produce
identical results regardless of scheduling or worker count.

A substream is drawn in blocks of ``BLOCK_ROWS`` rows, each the block's
standard normals times the covariance root plus the means; the blocks are
bit for bit the rows of one whole draw, and no consumer holds all the
normals at once.  Every sampled scheme call (the Stokes and method-3
readouts of :func:`gaussep.moments.measure`, the five groups of
``locc_i``, and the rows, q/p choices and symmetrized rows of ``locc_ii``
and method 1) runs its substreams as jobs of :func:`_in_order`:
concurrently on the CPUs this process may use, with the same bytes as one
after another.
"""

from __future__ import annotations

import collections
import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import GaussianState
from .exceptions import InsufficientShotsError, InvalidCovarianceError

EIG_CLAMP_TOL = 1e-10
# Rows per block of a draw.  An 8-column block's matrix product stays within
# OpenBLAS's one-thread size (m n k <= 4 * 65536), so concurrent draws do not
# also wake its thread pool.
BLOCK_ROWS = 4096
# Fewer shots than this do not repay starting a thread pool, about 0.7 ms
# (3.5 ms at the 90th percentile) for two threads on a 2-CPU host: sampled
# stokes took 17% longer on two threads at 1e4 shots and 10% less at 2e4.
POOL_MIN_SHOTS = 4 * BLOCK_ROWS


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Deterministic substream for the given seed and key path."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    )


@dataclass(frozen=True)
class MomentEstimate:
    """Sample mean with its standard error."""

    value: float
    std_error: float
    n_shots: int


def _cov_sqrt(cov: np.ndarray) -> np.ndarray:
    """Symmetric square root; tiny negative eigenvalues are clamped."""
    lam, U = np.linalg.eigh(cov)
    if lam[0] < -EIG_CLAMP_TOL:
        raise InvalidCovarianceError(
            f"covariance matrix is not positive semidefinite: min eig = {lam[0]:.3e}"
        )
    return U @ np.diag(np.sqrt(np.clip(lam, 0.0, None))) @ U.T


def sample_wigner(state: GaussianState, n_shots: int, seed: int, *key: int) -> np.ndarray:
    """Draw ``n_shots`` i.i.d. phase-space points from the Wigner density.

    Returns the read-only (n_shots, 2n) float64 matrix of points, one row
    per shot in the order (q1, p1, ..., qn, pn).  Reproducible bit-exactly
    from (state, n_shots, seed, key).
    """
    samples = _draw(state, derive_rng(seed, *key), _empty(n_shots, state.means.size))
    samples.setflags(write=False)
    return samples


def _empty(n_shots: int, *columns: int) -> np.ndarray:
    """An uninitialized array of ``n_shots`` rows for a job to fill.

    Made on the calling thread: memory freed by a worker thread stays in
    that thread's malloc arena, and full-size arrays allocated in workers
    raised the peak RSS of the 1e5-shot ``shots_heavy`` benchmark workload
    from about 71 MB to 92 MB.
    """
    if n_shots < 1:
        raise InsufficientShotsError(f"n_shots must be >= 1, got {n_shots}")
    return np.empty((n_shots, *columns))


def _draw(state: GaussianState, rng: np.random.Generator, rows: np.ndarray) -> np.ndarray:
    """``rows``, filled block by block with Wigner samples of ``rng``'s stream."""
    for block_rows, block in _wigner_blocks(state, rows.shape[0], rng):
        rows[block_rows] = block
    return rows


def _wigner_blocks(state: GaussianState, n_shots: int, rng: np.random.Generator):
    """``(rows, block)`` pairs whose blocks, in order, are the ``n_shots``
    Wigner samples of ``rng``'s stream, at most ``BLOCK_ROWS`` + 1 rows each.

    Factors the covariance when called; draws a block only when asked for
    it.  numpy computes each row of a block's product as in the whole
    matrix, except in a one-row (matrix-vector) product, so a one-row tail
    joins the block before it.
    """
    root_t = _cov_sqrt(state.cov).T
    means = state.means

    def blocks():
        start = 0
        while start < n_shots:
            stop = n_shots if n_shots - start <= BLOCK_ROWS + 1 else start + BLOCK_ROWS
            block = rng.standard_normal(size=(stop - start, means.size)) @ root_t
            block += means
            yield slice(start, stop), block
            start = stop

    return blocks()


def _in_order(jobs, n_shots: int) -> list:
    """``finish(work(*args))`` for each ``(finish, work, *args)`` of ``jobs``,
    in job order; ``n_shots`` is the shot count of the call's substreams.

    From ``POOL_MIN_SHOTS`` shots on, ``work`` runs on a thread pool with
    one worker per CPU this process may use, and every worker is joined
    before this returns or raises; numpy releases the interpreter lock in
    the draws, matrix products and ufunc loops.  ``finish`` runs on the
    calling thread, in job order, so the results are the same bytes as
    those of an inline run.  ``jobs`` is drawn on the calling thread too,
    lazily: at most one job per worker runs ahead of the job being
    finished, which bounds the arrays alive at once.  Workers run only
    private code: no public function of the package leaves the calling
    thread.
    """
    workers = _usable_cpus() if n_shots >= POOL_MIN_SHOTS else 1
    if workers == 1:
        return [finish(work(*args)) for finish, work, *args in jobs]
    jobs = iter(jobs)
    results = []
    with ThreadPoolExecutor(workers) as pool:
        def submit(batch):
            return [(finish, pool.submit(work, *args)) for finish, work, *args in batch]

        running = collections.deque(submit(itertools.islice(jobs, workers)))
        while running:
            finish, future = running.popleft()
            value = future.result()
            running.extend(submit(itertools.islice(jobs, 1)))
            results.append(finish(value))
    return results


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def mean_and_se(values: np.ndarray) -> MomentEstimate:
    """Sample mean of per-shot values with its standard error."""
    values = np.asarray(values, dtype=float)
    n = values.size
    if n < 2:
        raise InsufficientShotsError(f"a standard error needs at least 2 shots, got {n}")
    std = float(np.std(values, ddof=1))
    return MomentEstimate(value=float(np.mean(values)), std_error=std / math.sqrt(n), n_shots=n)


def covariance_and_se(x: np.ndarray, y: np.ndarray) -> MomentEstimate:
    """Unbiased sample covariance with its large-N standard error."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    if n < 2:
        raise InsufficientShotsError("covariance needs at least 2 shots")
    prod = (x - x.mean()) * (y - y.mean())
    cov = float(np.sum(prod) / (n - 1))
    se = float(np.std(prod, ddof=1)) / np.sqrt(n)
    return MomentEstimate(value=cov, std_error=se, n_shots=n)

