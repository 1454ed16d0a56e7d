"""Constructors for the states used throughout the package.

Besides the standard vacuum / thermal / two-mode squeezed vacuum states,
this module builds displaced squeezed thermal states (the reference states
of the interferometric scheme) together with closed forms for all of their
first and second moments, covariance matrices in Simon normal form, and
seeded random valid two-mode states via Williamson synthesis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import GaussianState, physicality_eigenvalues
from .exceptions import InvalidCovarianceError, InvalidStateError
from .transforms import (
    _placed,
    _propagated,
    _squeezer_matrix,
    apply_transform,
    displacement,
    single_mode_squeezer,
    two_mode_squeezer,
)


def vacuum(n_modes: int = 1) -> GaussianState:
    """n-mode vacuum: zero means, covariance I/2."""
    return GaussianState(
        means=np.zeros(2 * n_modes), cov=0.5 * np.eye(2 * n_modes)
    )


def thermal(n_bar: float) -> GaussianState:
    """Single-mode thermal state with mean photon number ``n_bar``."""
    if n_bar < 0:
        raise InvalidStateError(f"mean photon number must be >= 0, got {n_bar}")
    return GaussianState(means=np.zeros(2), cov=(n_bar + 0.5) * np.eye(2))


@dataclass(frozen=True)
class ReferenceStateParams:
    """Parameters of a displaced squeezed thermal state.

    The state is D(alpha) S(xi) rho_thermal(n_bar) S(xi)^dag D(alpha)^dag
    with alpha = d e^{i beta} and xi = theta e^{i gamma}.  The unbiased
    case is beta = gamma = 0.
    """

    n_bar: float = 0.0
    d: float = 1.0
    beta: float = 0.0
    theta: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        vals = (self.n_bar, self.d, self.beta, self.theta, self.gamma)
        if not all(np.isfinite(v) for v in vals):
            raise InvalidStateError(f"non-finite reference parameters {vals}")
        if self.n_bar < 0 or self.d < 0 or self.theta < 0:
            raise InvalidStateError(
                "n_bar, d and theta must be non-negative, got "
                f"({self.n_bar}, {self.d}, {self.theta})"
            )


@dataclass(frozen=True)
class ReferenceMoments:
    """Closed-form moments of a displaced squeezed thermal state.

    ``qp`` and ``pq`` are the complex operator moments <q p> and <p q>;
    they differ by the commutator, qp - pq = i, and their common real part
    is ``sigma`` = <{q, p}>/2 (uncentered).
    """

    q_mean: float
    p_mean: float
    q2: float
    p2: float
    sigma: float

    @property
    def qp(self) -> complex:
        return self.sigma + 0.5j

    @property
    def pq(self) -> complex:
        return self.sigma - 0.5j

    @property
    def q2_plus_p2(self) -> float:
        return self.q2 + self.p2


def reference_moments(params: ReferenceStateParams) -> ReferenceMoments:
    """Evaluate all first and second moments of the reference state.

    <q> = sqrt(2) d cos(beta), <p> = sqrt(2) d sin(beta),
    <q^2> = (n_bar + 1/2)(e^{2 theta} sin^2(gamma/2)
            + e^{-2 theta} cos^2(gamma/2)) + 2 d^2 cos^2(beta),
    <p^2> = same with sin^2/cos^2 of gamma/2 swapped and sin^2(beta),
    sigma = d^2 sin(2 beta) - (n_bar + 1/2) sinh(2 theta) sin(gamma).

    sigma = 0 (so qp = -pq = i/2) holds for unbiased parameters and, more
    generally, under the balanced-bias condition
    d^2 sin(2 beta) = (n_bar + 1/2) sinh(2 theta) sin(gamma).
    """
    n_bar, d, beta, theta, gamma = (
        params.n_bar,
        params.d,
        params.beta,
        params.theta,
        params.gamma,
    )
    width = n_bar + 0.5
    q2 = width * (
        math.exp(2 * theta) * math.sin(gamma / 2) ** 2
        + math.exp(-2 * theta) * math.cos(gamma / 2) ** 2
    ) + 2 * d * d * math.cos(beta) ** 2
    p2 = width * (
        math.exp(2 * theta) * math.cos(gamma / 2) ** 2
        + math.exp(-2 * theta) * math.sin(gamma / 2) ** 2
    ) + 2 * d * d * math.sin(beta) ** 2
    sigma = d * d * math.sin(2 * beta) - width * math.sinh(2 * theta) * math.sin(gamma)
    return ReferenceMoments(
        q_mean=math.sqrt(2) * d * math.cos(beta),
        p_mean=math.sqrt(2) * d * math.sin(beta),
        q2=q2,
        p2=p2,
        sigma=sigma,
    )


def displaced_squeezed_thermal(params: ReferenceStateParams) -> GaussianState:
    """Single-mode displaced squeezed thermal state.

    Built by applying the squeezer and then the displacement to the
    thermal state; the moments coincide with :func:`reference_moments`.
    """
    alpha = params.d * complex(math.cos(params.beta), math.sin(params.beta))
    steps = (single_mode_squeezer(params.theta, params.gamma), displacement(alpha))
    return GaussianState(*_propagated(thermal(params.n_bar), steps))


def two_mode_squeezed_vacuum(r: float) -> GaussianState:
    """Two-mode squeezed vacuum with squeezing parameter r."""
    return apply_transform(vacuum(2), two_mode_squeezer(r))


def simon_form(lam: float, mu: float, s: float, t: float) -> GaussianState:
    """Covariance matrix in Simon normal form.

    A = lam I, B = mu I, C = diag(s, t).  Raises if the assembled matrix
    violates the uncertainty bound, reporting the violated eigenvalue.
    """
    cov = np.diag([lam, lam, mu, mu]).astype(float)
    cov[0, 2] = cov[2, 0] = s
    cov[1, 3] = cov[3, 1] = t
    state = GaussianState(means=np.zeros(4), cov=cov)
    worst = physicality_eigenvalues(state)[0]
    if worst < -1e-10:
        raise InvalidCovarianceError(
            f"simon_form({lam}, {mu}, {s}, {t}) is unphysical: "
            f"min eig(cov + iJ/2) = {worst:.3e} < 0"
        )
    return state


def random_passive(rng: np.random.Generator, n_modes: int = 2) -> np.ndarray:
    """Random passive (energy-conserving) symplectic matrix from phase
    shifters and 50-50 beam splitters on a rotated mode pair."""
    def shifter(m):
        phi = rng.uniform(0, 2 * math.pi)
        c, s = np.cos(phi), np.sin(phi)
        return _placed(np.array([[c, -s], [s, c]]), n_modes, [m])

    out = shifter(0)
    for m in range(1, n_modes):
        out = shifter(m) @ out
    for m in range(n_modes - 1):
        theta = rng.uniform(0, 2 * math.pi)
        c, s = math.cos(theta), math.sin(theta)
        eye = np.eye(2)
        out = _placed(np.block([[c * eye, -s * eye], [s * eye, c * eye]]), n_modes,
                      [m, m + 1]) @ out
    for m in range(n_modes):
        out = shifter(m) @ out
    return out


def random_state(seed, max_squeeze: float = 1.0, max_thermal: float = 2.0) -> GaussianState:
    """Seeded random valid two-mode state via Williamson synthesis.

    Draws symplectic eigenvalues nu_i uniform in [1/2, 1/2 + max_thermal],
    then conjugates diag(nu1, nu1, nu2, nu2) with passive * squeezers *
    passive, squeeze magnitudes uniform in [0, max_squeeze] with random
    squeeze phases.  The construction is valid for every draw, and with
    max_squeeze = 0 the result is always separable.
    """
    if max_squeeze < 0 or max_thermal < 0:
        raise InvalidStateError("max_squeeze and max_thermal must be >= 0")
    rng = np.random.default_rng(seed)  # a Generator is returned as it is
    nu = rng.uniform(0.5, 0.5 + max_thermal, size=2)
    base = np.diag([nu[0], nu[0], nu[1], nu[1]])
    squeeze = np.eye(4)
    for m in range(2):
        sq = _squeezer_matrix(rng.uniform(0.0, max_squeeze), rng.uniform(0, 2 * math.pi))
        squeeze = _placed(sq, 2, [m]) @ squeeze
    S = random_passive(rng) @ squeeze @ random_passive(rng)
    return GaussianState(means=np.zeros(4), cov=S @ base @ S.T)


def thermal_fock_second_moment(n_bar: float, max_photons: int = 200, tail: float = 1e-12) -> float:
    """<q^2> of a thermal state summed over the photon-number distribution.

    Independent check of the covariance construction: <q^2> =
    sum_n P(n) (n + 1/2) with the geometric photon-number law, truncated
    at ``max_photons`` or once the remaining tail mass is below ``tail``.
    """
    if n_bar == 0:
        return 0.5
    total = 0.0
    mass = 0.0
    ratio = n_bar / (n_bar + 1.0)
    p = 1.0 / (n_bar + 1.0)
    for n in range(max_photons + 1):
        total += p * (n + 0.5)
        mass += p
        if 1.0 - mass < tail:
            break
        p *= ratio
    return total
