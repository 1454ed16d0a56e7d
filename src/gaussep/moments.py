"""Every Stokes and method-3 readout is a quadratic form x^T A x in the
quadratures x = (q1, p1, ...), A real symmetric on its support columns, or
the operator product of two.  On a Gaussian state (means mu, covariance
cov, symplectic form J; Isserlis 1918, Mathai & Provost 1992), <A> =
tr(A cov) + mu^T A mu and Re<A B> = <A><B> + 2 tr(A cov B cov) +
4 mu^T A cov B mu + tr(A J B J)/2; the Wigner average lacks the last term.
"""

import functools
from typing import NamedTuple

import numpy as np

from .core import symplectic_form
from .sampling import (MomentEstimate, _empty, _in_order, _wigner_blocks, derive_rng,
                       mean_and_se)


class QuadForm(NamedTuple):
    support: tuple[int, ...]  # quadrature columns, in the order each shot sums them
    matrix: np.ndarray  # symmetric A on the support


def _form(modes: tuple[int, int], upper: np.ndarray) -> QuadForm:
    """sum_{i <= j} upper[i, j] x_i x_j on the quadratures of ``modes``."""
    return QuadForm(tuple(c for m in modes for c in (2 * m, 2 * m + 1)), (upper + upper.T) / 2)


def photon_number_difference(plus_mode: int, minus_mode: int) -> QuadForm:
    """n(plus) - n(minus); the 1/2 constants of n = (q^2 + p^2 - 1)/2 cancel."""
    return _form((plus_mode, minus_mode), np.diag([0.5, 0.5, -0.5, -0.5]))


def cross_intensity(x_mode: int, y_mode: int) -> QuadForm:
    """a_x^dag a_y + a_y^dag a_x = q_x q_y + p_x p_y for distinct modes."""
    return _form((x_mode, y_mode), np.eye(4, k=2))


def cross_phase(x_mode: int, y_mode: int) -> QuadForm:
    """i(a_x^dag a_y - a_y^dag a_x) = p_x q_y - q_x p_y for distinct modes."""
    return _form((x_mode, y_mode), np.diag([0.0, 1.0, 0.0], k=1) - np.eye(4, k=3))


def product(*factors: QuadForm) -> tuple[tuple[QuadForm, ...], float]:
    """A readout: its factors and its operator expectation minus Wigner average."""
    if len(factors) == 1:
        return factors, 0.0
    (sa, a), (sb, b) = factors
    j_ab = symplectic_form(max(sa + sb) // 2 + 1)[np.ix_(sa, sb)]
    return factors, -0.5 * float(np.sum(a @ j_ab @ b * j_ab))  # J[b, a] = -J[a, b]^T


def measure(readouts, n_shots: int | None = None, seed: int = 0) -> list[MomentEstimate]:
    """Each ``(product, out, key)`` on the state ``out``, exact if ``n_shots``
    is None, else averaged over Wigner samples drawn on ``(seed, *key)``.

    Sampled readouts are independent jobs of
    :func:`gaussep.sampling._in_order`, one substream each, which runs
    them concurrently from ``POOL_MIN_SHOTS`` shots on.  A job draws and
    evaluates block by block and fills only its per-shot values; their
    means and errors are taken on the calling thread, in readout order, so
    the results are the same bytes as those of an inline run.
    """
    if n_shots is None:
        return [MomentEstimate(_wigner_mean(factors, out.means, out.cov) + offset, 0.0, 0)
                for (factors, offset), out, _ in readouts]
    readouts = list(readouts)
    jobs = ((mean_and_se, _sampled_per_shot, _shot_terms(factors), out, derive_rng(seed, *key),
             _empty(n_shots)) for (factors, _), out, key in readouts)
    return [MomentEstimate(est.value + offset, est.std_error, est.n_shots)
            for est, ((_, offset), _, _) in zip(_in_order(jobs, n_shots), readouts)]


def _sampled_per_shot(terms: tuple[tuple, ...], out, rng, values: np.ndarray) -> np.ndarray:
    """``values``, filled with the per-shot values of the readout with
    factor ``terms`` on Wigner samples of ``out`` from ``rng``; evaluated
    block by block, so no block outlives its evaluation."""
    for rows, block in _wigner_blocks(out, values.size, rng):
        values[rows] = _per_shot_product(terms, block)
    return values


def _wigner_mean(factors: tuple[QuadForm, ...], mu: np.ndarray, cov: np.ndarray) -> float:
    forms = [(list(s), m) for s, m in factors]
    firsts = [np.sum(m * cov[np.ix_(s, s)]) + mu[s] @ m @ mu[s] for s, m in forms]
    if len(forms) == 1:
        return float(firsts[0])
    (sa, a), (sb, b) = forms
    cov_ab = cov[np.ix_(sa, sb)]
    a_cov_b = a @ cov_ab @ b
    return float(firsts[0] * firsts[1] + 2 * np.sum(a_cov_b * cov_ab) + 4 * mu[sa] @ a_cov_b @ mu[sb])


def _shot_terms(factors: tuple[QuadForm, ...]) -> tuple[tuple, ...]:
    """Each factor's (column, column, c) terms: c x_i x_j over A's nonzero
    upper triangle in support order, c = A_ii or 2 A_ij."""
    return tuple(
        tuple((support[i], support[j], matrix[i, j] * (1.0 if i == j else 2.0))
              for i, j in zip(*np.nonzero(np.triu(matrix))))
        for support, matrix in factors
    )


def _per_shot_product(terms: tuple[tuple, ...], samples: np.ndarray) -> np.ndarray:
    """Per-shot product of the factors with ``terms``; each distinct one is
    evaluated once."""
    values = {}
    for form in terms:
        if form not in values:
            out = values[form] = np.zeros(samples.shape[0])
            for i, j, coefficient in form:
                term = samples[:, i] * samples[:, j]
                term *= coefficient
                out += term
    return functools.reduce(np.multiply, [values[form] for form in terms])
