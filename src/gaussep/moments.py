"""Exact moments of quadrature polynomials on Gaussian states.

Polynomials in the quadrature operators are represented as dictionaries
mapping an ordered tuple of quadrature indices (0 -> q1, 1 -> p1, ...) to a
complex coefficient; the tuple order is the operator order.

For a Gaussian state the expectation of an ordered product follows from
the Wick recursion with the two-point function M = cov + (i/2) J:

    <X_{i1} ... X_{im}> = d_{i1} <rest> + sum_j M[i1, ij] <rest without j>.

Replacing M by the plain covariance matrix yields the symmetrized
(Weyl-ordered) moment instead, which is exactly what averaging the same
polynomial over samples of the Wigner density converges to.  The
difference between the two is a commutator correction; for the intensity
observables used by the interferometric schemes it is a state-independent
constant, supplied by :func:`ordering_offset`.

:func:`measure` estimates every Stokes and method-3 readout, exactly or
from Wigner samples.
"""

from __future__ import annotations

import functools
from dataclasses import replace

import numpy as np

from .core import GaussianState, symplectic_form
from .sampling import MomentEstimate, mean_and_se, sample_wigner

Poly = dict[tuple[int, ...], complex]

IMAG_TOL = 1e-9


def poly_product(p1: Poly, p2: Poly) -> Poly:
    """Operator product; p1 factors stand to the left of p2 factors."""
    out: Poly = {}
    for k1, c1 in p1.items():
        for k2, c2 in p2.items():
            k = k1 + k2
            out[k] = out.get(k, 0.0) + c1 * c2
    return out


def photon_number_difference(plus_mode: int, minus_mode: int) -> Poly:
    """n(plus) - n(minus); the 1/2 constants of n = (q^2 + p^2 - 1)/2 cancel."""
    qp, pp = 2 * plus_mode, 2 * plus_mode + 1
    qm, pm = 2 * minus_mode, 2 * minus_mode + 1
    return {(qp, qp): 0.5, (pp, pp): 0.5, (qm, qm): -0.5, (pm, pm): -0.5}


def cross_intensity(x_mode: int, y_mode: int) -> Poly:
    """a_x^dag a_y + a_y^dag a_x = q_x q_y + p_x p_y for distinct modes."""
    qx, px = 2 * x_mode, 2 * x_mode + 1
    qy, py = 2 * y_mode, 2 * y_mode + 1
    return {(qx, qy): 1.0, (px, py): 1.0}


def cross_phase(x_mode: int, y_mode: int) -> Poly:
    """i(a_x^dag a_y - a_y^dag a_x) = q_y p_x - q_x p_y for distinct modes."""
    qx, px = 2 * x_mode, 2 * x_mode + 1
    qy, py = 2 * y_mode, 2 * y_mode + 1
    return {(qy, px): 1.0, (qx, py): -1.0}


def _ordered_moment(idx, means, M, cache):
    if not idx:
        return 1.0 + 0.0j
    hit = cache.get(idx)
    if hit is not None:
        return hit
    i0, rest = idx[0], idx[1:]
    total = means[i0] * _ordered_moment(rest, means, M, cache)
    for j in range(len(rest)):
        total += M[i0, rest[j]] * _ordered_moment(
            rest[:j] + rest[j + 1 :], means, M, cache
        )
    cache[idx] = total
    return total


def _expect(poly: Poly, means: np.ndarray, M: np.ndarray) -> complex:
    cache: dict = {}
    return sum(c * _ordered_moment(k, means, M, cache) for k, c in poly.items())


def expect_operator(poly: Poly, state: GaussianState) -> complex:
    """Quantum expectation of the ordered operator polynomial."""
    M = state.cov + 0.5j * symplectic_form(state.n_modes)
    return _expect(poly, state.means, M)


def expect_symmetrized(poly: Poly, state: GaussianState) -> float:
    """Average of the polynomial over the state's Wigner density."""
    value = _expect(poly, state.means, state.cov.astype(complex))
    return float(value.real)


def real_expect_operator(poly: Poly, state: GaussianState) -> float:
    value = expect_operator(poly, state)
    if abs(value.imag) > IMAG_TOL * max(1.0, abs(value.real)):
        raise ValueError(f"expectation is not real: {value}")
    return float(value.real)


def ordering_offset(poly: Poly, n_modes: int) -> float:
    """Constant to add to a Wigner-sampled average of the polynomial so it
    estimates the operator expectation.

    Evaluated on the vacuum; for the observables built from the helpers
    above the operator-minus-symmetrized difference does not depend on the
    state, which the test suite asserts on random states.  Computed once
    per (polynomial, mode count) and remembered.
    """
    return _vacuum_offset(tuple(poly.items()), int(n_modes))


@functools.cache
def _vacuum_offset(terms: tuple, n_modes: int) -> float:
    poly = dict(terms)
    vac = GaussianState(
        means=np.zeros(2 * n_modes), cov=0.5 * np.eye(2 * n_modes)
    )
    value = expect_operator(poly, vac) - expect_symmetrized(poly, vac)
    if abs(value.imag) > IMAG_TOL:
        raise ValueError(f"ordering offset is not real: {value}")
    return float(value.real)


def evaluate_on_samples(poly: Poly, samples: np.ndarray) -> np.ndarray:
    """Per-row values of the polynomial on an (N, 2n) sample matrix.

    Each monomial is the left-to-right product of its columns times its
    coefficient, accumulated in insertion order.
    """
    out = np.zeros(samples.shape[0])
    for idx, coeff in poly.items():
        if abs(coeff.imag if isinstance(coeff, complex) else 0.0) > 0:
            raise ValueError("sampled evaluation requires real coefficients")
        coeff = float(np.real(coeff))
        if len(idx) < 2:  # a constant or a linear term
            out += coeff * samples[:, idx[0]] if idx else coeff
            continue
        term = samples[:, idx[0]] * samples[:, idx[1]]
        for i in idx[2:]:
            term *= samples[:, i]
        term *= coeff
        out += term
    return out


def measure(readouts, n_shots: int | None = None, seed: int = 0) -> list[MomentEstimate]:
    """Estimate of the operator product of ``factors`` on the state ``out``
    for each ``(factors, out, key)`` of ``readouts``: exact when ``n_shots``
    is None, else the mean of :func:`_per_shot_product` over ``n_shots``
    Wigner samples drawn on ``(seed, *key)`` plus the product's ordering offset."""
    estimates = []
    for factors, out, key in readouts:
        product = functools.reduce(poly_product, factors)
        if n_shots is None:
            value = real_expect_operator(product, out)
            estimates.append(MomentEstimate(value=value, std_error=0.0, n_shots=0))
            continue
        # the previous draw is released only once this one exists, so the
        # allocator reuses its pages instead of returning them to the
        # system and faulting them in again for every readout
        samples = sample_wigner(out, n_shots, seed, *key)
        est = mean_and_se(_per_shot_product(factors, samples))
        estimates.append(replace(est, value=est.value + ordering_offset(product, out.n_modes)))
    return estimates


def _per_shot_product(factors: tuple[Poly, ...], samples: np.ndarray) -> np.ndarray:
    """Per-shot values of the product of ``factors``, each distinct factor
    evaluated once, so S1^2 is (S1)^2; its arrays die before the next draw."""
    values = {id(factor): factor for factor in factors}
    values = {k: evaluate_on_samples(factor, samples) for k, factor in values.items()}
    return functools.reduce(np.multiply, [values[id(f)] for f in factors])
