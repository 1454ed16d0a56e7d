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
normals at once.  :func:`gaussep.moments.measure` runs the substreams of
its readouts concurrently on the CPUs this process may use, with the same
bytes as one after another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import GaussianState
from .exceptions import InsufficientShotsError, InvalidCovarianceError

EIG_CLAMP_TOL = 1e-10
# Rows per block of a draw.  An 8-column block's matrix product stays within
# OpenBLAS's one-thread size (m n k <= 4 * 65536), so concurrent draws do not
# also wake its thread pool.
BLOCK_ROWS = 4096


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
    blocks = _wigner_blocks(state, n_shots, derive_rng(seed, *key))
    samples = np.empty((n_shots, state.means.size))
    for rows, block in blocks:
        samples[rows] = block
    samples.setflags(write=False)
    return samples


def _wigner_blocks(state: GaussianState, n_shots: int, rng: np.random.Generator):
    """``(rows, block)`` pairs whose blocks, in order, are the ``n_shots``
    Wigner samples of ``rng``'s stream, at most ``BLOCK_ROWS`` + 1 rows each.

    Checks and factors when called; draws a block only when asked for it.
    numpy computes each row of a block's product as in the whole matrix,
    except in a one-row (matrix-vector) product, so a one-row tail joins
    the block before it.
    """
    if n_shots < 1:
        raise InsufficientShotsError(f"n_shots must be >= 1, got {n_shots}")
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

