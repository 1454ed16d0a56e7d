"""Symplectic transforms modeling Gaussian optical elements.

A transform acts on a state as means -> S means + shift,
cov -> S cov S^T.  Builders return the common elements with the
conventions q = (a + a^dag)/sqrt(2), p = i(a^dag - a)/sqrt(2):

* phase shifter: a -> a e^{i phi}, so q -> q cos(phi) - p sin(phi).
* 50-50 beam splitter on (a, b): outputs (a - b)/sqrt(2), (a + b)/sqrt(2).
* single-mode squeezer S(xi), xi = theta e^{i gamma}:
  a -> a cosh(theta) - e^{i gamma} a^dag sinh(theta).
* two-mode squeezer: a1 -> a1 cosh(r) + a2^dag sinh(r) and symmetric.
* OPA with gain g and pump phase Phi on (a, b):
  out_a = a cosh(g) + e^{i Phi} b^dag sinh(g) and symmetric; Phi = 0
  reduces to the two-mode squeezer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import GaussianState, _as_readonly, symplectic_form
from .exceptions import InvalidStateError

SYMPLECTIC_TOL = 1e-10


@dataclass(frozen=True)
class SymplecticTransform:
    """Linear symplectic matrix plus a phase-space displacement."""

    matrix: np.ndarray
    shift: np.ndarray = field(default=None)

    def __post_init__(self):
        S = _as_readonly(np.atleast_2d(self.matrix))
        if S.shape[0] != S.shape[1] or S.shape[0] % 2 != 0:
            raise InvalidStateError(f"matrix shape {S.shape} is not 2n x 2n")
        shift = np.zeros(S.shape[0]) if self.shift is None else np.atleast_1d(self.shift)
        shift = _as_readonly(shift)
        if shift.shape != (S.shape[0],):
            raise InvalidStateError(
                f"shift shape {shift.shape} does not match matrix {S.shape}"
            )
        J = symplectic_form(S.shape[0] // 2)
        err = np.max(np.abs(S @ J @ S.T - J))
        if err > SYMPLECTIC_TOL:
            raise InvalidStateError(f"matrix is not symplectic: |SJS^T - J| = {err:.3e}")
        object.__setattr__(self, "matrix", S)
        object.__setattr__(self, "shift", shift)

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[0] // 2


def apply_transform(state: GaussianState, transform: SymplecticTransform) -> GaussianState:
    if transform.n_modes != state.n_modes:
        raise InvalidStateError(
            f"transform acts on {transform.n_modes} modes, state has {state.n_modes}"
        )
    return GaussianState(*_propagated(state, [transform]))


def _propagated(state: GaussianState, steps) -> tuple[np.ndarray, np.ndarray]:
    """Means and covariance of ``state`` after each of ``steps`` in turn, unchecked."""
    means, cov = state.means, state.cov
    for step in steps:
        S = step.matrix
        means, cov = S @ means + step.shift, S @ cov @ S.T
    return means, cov


def compose(second: SymplecticTransform, first: SymplecticTransform) -> SymplecticTransform:
    """Transform equivalent to applying ``first`` and then ``second``."""
    if second.n_modes != first.n_modes:
        raise InvalidStateError("compose requires equal mode counts")
    return SymplecticTransform(
        matrix=second.matrix @ first.matrix,
        shift=second.matrix @ first.shift + second.shift,
    )


def embed(transform: SymplecticTransform, n_modes: int, modes) -> SymplecticTransform:
    """Lift a k-mode transform onto the chosen modes of an n-mode system."""
    modes = list(modes)
    if len(modes) != transform.n_modes:
        raise InvalidStateError(
            f"transform acts on {transform.n_modes} modes, got {len(modes)} targets"
        )
    if len(set(modes)) != len(modes) or any(m < 0 or m >= n_modes for m in modes):
        raise InvalidStateError(f"invalid target modes {modes} for n={n_modes}")
    shift = np.zeros(2 * n_modes)
    shift[[i for m in modes for i in (2 * m, 2 * m + 1)]] = transform.shift
    return SymplecticTransform(matrix=_placed(transform.matrix, n_modes, modes), shift=shift)


def _placed(block: np.ndarray, n_modes: int, modes) -> np.ndarray:
    """The 2n x 2n identity with ``block`` on the quadratures of ``modes``."""
    out = np.eye(2 * n_modes)
    idx = [i for m in modes for i in (2 * m, 2 * m + 1)]
    out[np.ix_(idx, idx)] = block
    return out


def phase_shifter(phi: float) -> SymplecticTransform:
    c, s = np.cos(phi), np.sin(phi)
    return SymplecticTransform(matrix=np.array([[c, -s], [s, c]]))


def beam_splitter_50_50() -> SymplecticTransform:
    s = 1.0 / np.sqrt(2.0)
    eye = np.eye(2)
    return SymplecticTransform(
        matrix=np.block([[s * eye, -s * eye], [s * eye, s * eye]])
    )


def rotation_theta(theta: float) -> SymplecticTransform:
    """Two-mode Gaussian rotation [[cos I, sin I], [-sin I, cos I]]."""
    c, s = np.cos(theta), np.sin(theta)
    eye = np.eye(2)
    return SymplecticTransform(
        matrix=np.block([[c * eye, s * eye], [-s * eye, c * eye]])
    )


def displacement(alpha: complex) -> SymplecticTransform:
    """Single-mode displacement D(alpha): shifts (q, p) by sqrt(2)(Re, Im)."""
    shift = np.sqrt(2.0) * np.array([np.real(alpha), np.imag(alpha)])
    return SymplecticTransform(matrix=np.eye(2), shift=shift)


def single_mode_squeezer(theta: float, gamma: float = 0.0) -> SymplecticTransform:
    return SymplecticTransform(matrix=_squeezer_matrix(theta, gamma))


def _squeezer_matrix(theta: float, gamma: float) -> np.ndarray:
    """The plain symplectic matrix of S(theta e^{i gamma}), unchecked."""
    c, s = np.cosh(theta), np.sinh(theta)
    cg, sg = np.cos(gamma), np.sin(gamma)
    return np.array([[c - s * cg, -s * sg], [-s * sg, c + s * cg]])


def two_mode_squeezer(r: float) -> SymplecticTransform:
    c, s = np.cosh(r), np.sinh(r)
    return SymplecticTransform(
        matrix=np.array(
            [[c, 0.0, s, 0.0], [0.0, c, 0.0, -s], [s, 0.0, c, 0.0], [0.0, -s, 0.0, c]]
        )
    )


def opa(g: float, pump_phase: float = 0.0) -> SymplecticTransform:
    mu, s = np.cosh(g), np.sinh(g)
    cp, sp = np.cos(pump_phase), np.sin(pump_phase)
    return SymplecticTransform(
        matrix=np.array(
            [
                [mu, 0.0, s * cp, s * sp],
                [0.0, mu, s * sp, -s * cp],
                [s * cp, s * sp, mu, 0.0],
                [s * sp, -s * cp, 0.0, mu],
            ]
        )
    )
