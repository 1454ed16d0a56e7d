"""Covariance-matrix calculus for Gaussian states.

A Gaussian state of ``n`` modes is fully described by the first-moment
vector ``means`` (ordering ``q1, p1, ..., qn, pn``) and the real symmetric
covariance matrix ``cov`` of symmetrized second moments,

    cov[k, l] = <{R_k, R_l}>/2 - <R_k><R_l>.

Units follow hbar = 1 with [q, p] = i, so the vacuum covariance is I/2 and
a physical covariance matrix satisfies cov + (i/2) J >= 0, where J is the
symplectic form assembled from 2x2 blocks [[0, 1], [-1, 0]].

Separability of a two-mode state is decided by the Simon (PPT) criterion:
with block determinants det A, det B, det C of cov = [[A, C], [C^T, B]],
the state is separable iff

    det A + det B - 2 det C - 4 det(cov) <= 1/4,

equivalently iff the minimum symplectic eigenvalue of the partially
transposed covariance matrix is >= 1/2.

The exact analysis and every scheme share one definition of each step:
:func:`block_determinants`, then :func:`simon_margin` (delta and the
margin), :func:`verdict_of` (the verdict and its boundary tolerance) and
:func:`symplectic_spectrum` (``xi_min`` from delta and det(cov)).
Schemes that estimate the whole covariance matrix decide on it through
:func:`criterion_of_estimate`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    InvalidCovarianceError,
    InvalidStateError,
    UnsupportedModeCountError,
)

SYMMETRY_TOL = 1e-12
PHYSICALITY_TOL = 1e-10
VERDICT_TOL = 1e-10

_OMEGA = np.array([[0.0, 1.0], [-1.0, 0.0]])
_UPPER = np.triu_indices(4)


def symplectic_form(n_modes: int) -> np.ndarray:
    """The 2n x 2n symplectic form J encoding [R_k, R_l] = i J_kl."""
    J = np.zeros((2 * n_modes, 2 * n_modes))
    for m in range(n_modes):
        J[2 * m : 2 * m + 2, 2 * m : 2 * m + 2] = _OMEGA
    return J


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class GaussianState:
    """First moments and covariance matrix of an n-mode Gaussian state.

    Parameters
    ----------
    means : array_like, shape (2n,)
        Quadrature expectation values, ordered (q1, p1, ..., qn, pn).
    cov : array_like, shape (2n, 2n)
        Real symmetric covariance matrix in the same ordering.

    Construction checks shapes and symmetry only; physicality of the
    covariance matrix is checked by :func:`validate`.
    """

    means: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        means = _as_readonly(np.atleast_1d(self.means))
        cov = _as_readonly(np.atleast_2d(self.cov))
        if means.ndim != 1 or cov.shape != (means.size, means.size):
            raise InvalidStateError(
                f"inconsistent dimensions: means {means.shape}, cov {cov.shape}"
            )
        if means.size % 2 != 0 or means.size == 0:
            raise InvalidStateError("means length must be 2 * n_modes")
        if not np.all(np.isfinite(means)) or not np.all(np.isfinite(cov)):
            raise InvalidStateError("non-finite entries in means or cov")
        if np.max(np.abs(cov - cov.T)) > SYMMETRY_TOL:
            raise InvalidStateError("covariance matrix is not symmetric")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "cov", cov)

    @property
    def n_modes(self) -> int:
        return self.means.size // 2


@dataclass(frozen=True)
class BlockDecomposition:
    """2x2 blocks of a two-mode covariance matrix [[A, C], [C^T, B]]."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray


class Verdict(enum.Enum):
    SEPARABLE = "separable"
    ENTANGLED = "entangled"
    BOUNDARY = "boundary"


@dataclass(frozen=True)
class SeparabilityReport:
    """Outcome of the Simon criterion on a two-mode covariance matrix.

    ``delta`` is det A + det B - 2 det C with blocks of the *original*
    covariance matrix, ``margin = delta - 4 det(cov) - 1/4``.  The state is
    separable iff margin <= 0 (within tolerance); ``xi_min`` is the minimum
    symplectic eigenvalue of the partially transposed covariance matrix.
    ``log_negativity = max(0, -ln(2 xi_min))`` vanishes on separable states;
    ``neg_log_xi = -ln(xi_min)`` is kept as an auxiliary unnormalized value.
    """

    det_a: float
    det_b: float
    det_c: float
    det_gamma: float
    delta: float
    xi_min: float
    margin: float
    verdict: Verdict
    log_negativity: float
    neg_log_xi: float

    def to_dict(self) -> dict:
        return {**vars(self), "verdict": self.verdict.value}


def physicality_eigenvalues(state: GaussianState) -> np.ndarray:
    """Eigenvalues of the Hermitian matrix cov + (i/2) J, ascending."""
    J = symplectic_form(state.n_modes)
    return np.linalg.eigvalsh(state.cov + 0.5j * J)


def validate(state: GaussianState, tol: float = PHYSICALITY_TOL) -> bool:
    """True iff cov + (i/2) J is positive semidefinite within tolerance."""
    return bool(physicality_eigenvalues(state)[0] >= -tol)


def require_valid(state: GaussianState) -> None:
    lam = physicality_eigenvalues(state)[0]
    if lam < -PHYSICALITY_TOL:
        raise InvalidStateError(
            f"covariance matrix violates the uncertainty bound: "
            f"min eig(cov + iJ/2) = {lam:.3e}"
        )


def require_two_modes(state: GaussianState) -> None:
    if state.n_modes != 2:
        raise UnsupportedModeCountError(
            f"operation defined for two modes, got {state.n_modes}"
        )


def block_decomposition(state: GaussianState) -> BlockDecomposition:
    require_two_modes(state)
    cov = state.cov
    return BlockDecomposition(
        a=_as_readonly(cov[:2, :2]),
        b=_as_readonly(cov[2:, 2:]),
        c=_as_readonly(cov[:2, 2:]),
    )


def partial_transpose(state: GaussianState, mode: int = 1) -> GaussianState:
    """Partial transpose as phase-space mirror reflection.

    Flips the sign of the momentum of the chosen mode (default: second
    mode), acting on both the covariance matrix and the means.
    """
    require_two_modes(state)
    if mode not in (0, 1):
        raise UnsupportedModeCountError(f"mode must be 0 or 1, got {mode}")
    refl = np.ones(4)
    refl[2 * mode + 1] = -1.0
    L = np.diag(refl)
    return GaussianState(means=refl * state.means, cov=L @ state.cov @ L)


def block_determinants(gamma: np.ndarray) -> tuple:
    """det A, det B, det C and det(gamma) of a 4x4 matrix [[A, C], [C^T, B]]:
    floats, or arrays over the leading axes of a stack of matrices."""
    blocks = (gamma[..., :2, :2], gamma[..., 2:, 2:], gamma[..., :2, 2:], gamma)
    dets = tuple(np.linalg.det(m) for m in blocks)
    return dets if gamma.ndim > 2 else tuple(map(float, dets))


def simon_margin(det_a, det_b, det_c, det_gamma) -> tuple:
    """(delta, margin) with delta = det A + det B - 2 det C and
    margin = delta - 4 det(gamma) - 1/4; the state is entangled iff
    margin > 0.  Elementwise on arrays of determinants."""
    delta = det_a + det_b - 2.0 * det_c
    return delta, delta - 4.0 * det_gamma - 0.25


def verdict_of(margin: float) -> Verdict:
    """Verdict of a Simon margin; |margin| <= VERDICT_TOL is the boundary."""
    if abs(margin) <= VERDICT_TOL:
        return Verdict.BOUNDARY
    return Verdict.ENTANGLED if margin > 0 else Verdict.SEPARABLE


def symplectic_spectrum(delta: float, det_gamma: float, tol: float = PHYSICALITY_TOL,
                        delta_terms: float = 0.0) -> tuple[float, float]:
    """Both symplectic eigenvalues of a two-mode matrix with invariants
    delta = det A + det B + 2 det C and det(gamma).

    Their squares are the roots of x^2 - delta x + det(gamma) = 0.  Raises
    InvalidCovarianceError when the roots are complex beyond rounding or
    the smaller one is below ``-tol``; NaN invariants fail both checks.
    The rounding allowed scales with delta^2 and 4 |det(gamma)|, or with
    ``delta_terms``^2 when larger: |det A| + |det B| + 2 |det C|, whose
    square bounds the terms that cancel in the discriminant.
    """
    disc = delta * delta - 4.0 * det_gamma
    scale = max(1.0, delta * delta, 4.0 * abs(det_gamma), delta_terms * delta_terms)
    if not disc >= -PHYSICALITY_TOL * scale:
        raise InvalidCovarianceError(
            f"no real symplectic spectrum: Delta^2 - 4 det = {disc:.3e}"
        )
    root = math.sqrt(max(disc, 0.0))
    lo = (delta - root) / 2.0
    hi = (delta + root) / 2.0
    if not lo >= -tol:
        raise InvalidCovarianceError(f"negative squared eigenvalue {lo:.3e}")
    return math.sqrt(max(lo, 0.0)), math.sqrt(max(hi, 0.0))


def log_negativity(xi_min: float) -> float:
    """max(0, -ln(2 xi_min)); zero on separable states."""
    return max(0.0, -math.log(2.0 * xi_min)) if xi_min > 0 else math.inf


def symplectic_eigenvalues(state: GaussianState) -> tuple[float, float]:
    """Both symplectic eigenvalues of a two-mode covariance matrix; equal
    to the absolute eigenvalues of i J cov."""
    require_two_modes(state)
    det_a, det_b, det_c, det_gamma = block_determinants(state.cov)
    # delta of the matrix itself, not of its partial transpose; on a pure
    # state it is 1/2 while its terms grow like e^{4r}, so the rounding
    # allowed scales with the terms
    delta, _ = simon_margin(det_a, det_b, -det_c, det_gamma)
    return symplectic_spectrum(delta, det_gamma,
                               delta_terms=abs(det_a) + abs(det_b) + 2.0 * abs(det_c))


def min_symplectic_eigenvalue(state: GaussianState) -> float:
    """Smallest symplectic eigenvalue of the input covariance matrix."""
    return symplectic_eigenvalues(state)[0]


def simon_criterion(state: GaussianState) -> SeparabilityReport:
    """Decide separability of a valid two-mode Gaussian state.

    Works on the blocks of the original covariance matrix; the mirror
    reflection of the partial transpose only flips the sign of det C, so
    ``delta = det A + det B - 2 det C`` equals the symplectic invariant
    Delta of the partially transposed matrix and ``det cov`` is unchanged.
    """
    require_two_modes(state)
    require_valid(state)
    det_a, det_b, det_c, det_gamma = block_determinants(state.cov)
    delta, margin = simon_margin(det_a, det_b, det_c, det_gamma)
    xi_min = symplectic_spectrum(delta, det_gamma)[0]
    return SeparabilityReport(
        det_a=det_a,
        det_b=det_b,
        det_c=det_c,
        det_gamma=det_gamma,
        delta=delta,
        xi_min=xi_min,
        margin=margin,
        verdict=verdict_of(margin),
        log_negativity=log_negativity(xi_min),
        neg_log_xi=-math.log(xi_min) if xi_min > 0 else math.inf,
    )


def _symmetric(upper: np.ndarray) -> np.ndarray:
    """Symmetric 4x4 matrices of 10 upper-triangle entries, row-major."""
    out = np.empty(upper.shape[:-1] + (4, 4))
    out[..., _UPPER[0], _UPPER[1]] = upper
    out[..., _UPPER[1], _UPPER[0]] = upper
    return out


def margin_of(gamma: np.ndarray):
    """det A + det B - 2 det C - 4 det(gamma) - 1/4 of a 4x4 matrix, or of
    each matrix of a stack."""
    return simon_margin(*block_determinants(gamma))[1]


def margin_error(margin_of, x, se) -> float:
    """Standard error, to second order, of a margin of independent sources
    ``x`` with standard errors ``se``: sqrt(sum g_k^2 + 1/2 sum H_kl^2), the
    standard deviation of a quadratic form of normal sources, so exact for
    a margin of degree two.  ``margin_of`` maps a (K, n) stack of source
    vectors to K margins; one call on x, x +- s_k e_k, x +- 2 s_k e_k and
    x +- (s_k e_k + s_l e_l) gives g_k, the slope over source k times s_k
    (exact up to degree four in it), and the second differences H_kl, off
    the diagonal by polarisation.  Sources whose error is 0 or NaN are
    dropped; with none left, ``margin_of`` is not called."""
    x, se = np.asarray(x, dtype=float), np.asarray(se, dtype=float)
    keep = np.flatnonzero(se > 0)
    n = keep.size
    if n == 0:
        return 0.0
    steps = np.diag(se)[keep]
    k, l = np.nonzero(np.less.outer(np.arange(n), np.arange(n)))
    shifts = np.concatenate([steps, 2.0 * steps, steps[k] + steps[l]])
    m = margin_of(x + np.concatenate([np.zeros((1, x.size)), shifts, -shifts]))
    center, plus, minus = m[0], m[1 : len(shifts) + 1], m[len(shifts) + 1 :]
    odd, even = plus - minus, plus + minus - 2.0 * center
    g, h = (8.0 * odd[:n] - odd[n : 2 * n]) / 12.0, even[:n]
    # each off-diagonal term stands for H_kl and H_lk
    off = (even[2 * n :] - h[k] - h[l]) / 2.0
    return float(np.sqrt(g @ g + 0.5 * (h @ h) + off @ off))


def purity(state: GaussianState) -> float:
    """Tr rho^2 = 1 / (2^n sqrt(det cov)); equals 1 for pure states."""
    det_gamma = np.linalg.det(state.cov)
    if det_gamma <= 0.0:
        raise InvalidCovarianceError(f"det cov = {det_gamma:.3e} <= 0")
    return float(1.0 / (2.0**state.n_modes * math.sqrt(det_gamma)))


def wigner_pdf(state: GaussianState, point: np.ndarray) -> float:
    """Wigner density at a phase-space point.

    For a Gaussian state this is the normal density with the state's means
    and covariance matrix, 1 / ((2 pi)^n sqrt(det cov)) at the mean.
    """
    point = np.asarray(point, dtype=float)
    if point.shape != state.means.shape:
        raise InvalidStateError(
            f"point shape {point.shape} does not match means {state.means.shape}"
        )
    sign, logdet = np.linalg.slogdet(state.cov)
    if sign <= 0:
        raise InvalidCovarianceError("covariance matrix is singular")
    diff = point - state.means
    quad = diff @ np.linalg.solve(state.cov, diff)
    n = state.n_modes
    return float(math.exp(-0.5 * quad - 0.5 * logdet) / (2.0 * math.pi) ** n)


def tensor_product(first: GaussianState, second: GaussianState) -> GaussianState:
    """State of the combined system, first modes then second modes."""
    n = first.means.size + second.means.size
    cov = np.zeros((n, n))
    cov[: first.means.size, : first.means.size] = first.cov
    cov[first.means.size :, first.means.size :] = second.cov
    return GaussianState(
        means=np.concatenate([first.means, second.means]), cov=cov
    )


def partial_trace(state: GaussianState, keep) -> GaussianState:
    """Reduced state of the given mode indices (order preserved)."""
    keep = [keep] if np.isscalar(keep) else list(keep)
    if any(m < 0 or m >= state.n_modes for m in keep):
        raise UnsupportedModeCountError(f"mode indices {keep} out of range")
    idx = np.concatenate([[2 * m, 2 * m + 1] for m in keep]).astype(int)
    return GaussianState(
        means=state.means[idx], cov=state.cov[np.ix_(idx, idx)]
    )


def project_to_valid(state: GaussianState) -> tuple[GaussianState, float]:
    """Repair a noisy covariance estimate by adding the smallest eps * I
    restoring cov + iJ/2 >= 0.  Returns the repaired state and eps."""
    lam = physicality_eigenvalues(state)[0]
    if lam >= 0.0:
        return state, 0.0
    eps = -lam + PHYSICALITY_TOL
    return GaussianState(means=state.means, cov=state.cov + eps * np.eye(state.means.size)), float(eps)


def criterion_of_estimate(means, gamma) -> tuple[SeparabilityReport, float]:
    """Simon criterion of an estimated two-mode state repaired by
    :func:`project_to_valid`; returns the report and the projection eps."""
    projected, eps = project_to_valid(GaussianState(means=means, cov=gamma))
    return simon_criterion(projected), eps
