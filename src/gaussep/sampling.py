"""Seeded Monte Carlo sampling of Gaussian Wigner densities.

The Wigner function of a Gaussian state is a proper (nonnegative) normal
density, so phase-space points can be drawn from it directly; sample
averages of quadrature polynomials converge to the symmetrized operator
moments.

Randomness uses numpy's PCG64 generator.  Independent substreams are
derived from a root seed and an integer key path via
``numpy.random.SeedSequence(entropy=seed, spawn_key=key)``, so concurrent
consumers (measurement groups, readouts, estimation branches) produce
identical results regardless of scheduling or worker count.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .core import GaussianState, _as_readonly
from .exceptions import InsufficientShotsError, InvalidCovarianceError

EIG_CLAMP_TOL = 1e-10


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Deterministic substream for the given seed and key path."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    )


@dataclass(frozen=True)
class ShotBatch:
    """Matrix of sampled phase-space points with provenance metadata.

    A read-only, float64, 2-D matrix that owns its data (as
    :func:`sample_wigner` makes) is kept as it is; anything else is copied
    into one.
    """

    samples: np.ndarray
    seed: int
    key: tuple[int, ...] = ()

    def __post_init__(self):
        s = self.samples
        if not (isinstance(s, np.ndarray) and s.ndim == 2 and s.dtype == np.float64
                and s.flags.owndata and not s.flags.writeable):
            object.__setattr__(self, "samples", _as_readonly(np.atleast_2d(s)))

    @property
    def n_shots(self) -> int:
        return self.samples.shape[0]


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


def sample_wigner(state: GaussianState, n_shots: int, seed: int, *key: int) -> ShotBatch:
    """Draw ``n_shots`` i.i.d. phase-space points from the Wigner density.

    Reproducible bit-exactly from (state, n_shots, seed, key).
    """
    if n_shots < 1:
        raise InsufficientShotsError(f"n_shots must be >= 1, got {n_shots}")
    rng = derive_rng(seed, *key)
    root = _cov_sqrt(state.cov)
    z = rng.standard_normal(size=(n_shots, state.means.size))
    samples = z @ root.T
    samples += state.means
    samples.setflags(write=False)
    return ShotBatch(samples=samples, seed=int(seed), key=tuple(key))


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


def batch_to_csv(batch: ShotBatch, path) -> None:
    """Dump samples as CSV with header q1,p1,q2,p2,..."""
    n_modes = batch.samples.shape[1] // 2
    header = []
    for m in range(n_modes):
        header += [f"q{m + 1}", f"p{m + 1}"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(batch.samples.tolist())
