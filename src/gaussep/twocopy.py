"""Two-copy estimation of the four determinants in the Simon criterion.

The SWAP operator on two copies of a state has expectation Tr rho^2, so a
projective +-1 measurement of it estimates the purity, and the Gaussian
purity 1/(2^n sqrt(det cov)) inverts to the determinant: swap tests on the
mode-1 marginals, the mode-2 marginals and the full two-mode state deliver
det A, det B and det(cov) without reconstructing any matrix elements.
Outcomes are simulated at the Bernoulli level with p(+1) = (1 + mu)/2,
which is the exact statistics of the +-1 spectrum.

Three routes to det C:

* method 1: ``locc_ii``'s random local quadrature pairs on N shots (layout
  ``method1`` of :data:`gaussep.locc.LAYOUTS`): per shot each party measures
  a uniformly random quadrature of its mode, and the shots that measured
  both columns of a cross entry estimate its covariance.
* method 2: assuming Simon normal form (A = lam I, B = mu I,
  C = diag(s, t)), det(cov) = (lam mu - s^2)(lam mu - t^2) and the mode-1
  marginal after the two-mode rotation by pi/4 has determinant
  [(lam + mu)^2 + 2(lam + mu)(s + t) + 4 s t] / 4; both are polynomial in
  e1 = s + t and e2 = s t, so two more swap tests determine e2 = det C up
  to root selection.  Roots that reassemble into an unphysical covariance
  matrix are discarded; two surviving roots raise an ambiguity error.
  det C comes with its analytic (implicit) derivative over the four
  swap-test determinants.
* method 3: both copies of each mode meet in an optical parametric
  amplifier; four cross-intensity observables of the amplified outputs are
  linear in the cross moments with gain-dependent coefficients, and one
  affine 4x4 solve returns all four entries of C and their errors.

An ``assemble_verdict`` step turns the four determinant estimates into a
separability report.  The margin's standard error is
:func:`gaussep.core.margin_error` over independent sources: the swap
tests' determinants and, for methods 1 and 3, the four entries of C.
Method 2's det C is solved from the swap tests, so it is no source of its
own: it enters linearised through its gradient over the four swap tests.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    GaussianState,
    Verdict,
    log_negativity,
    margin_error,
    partial_trace,
    purity,
    require_two_modes,
    require_valid,
    simon_margin,
    symplectic_spectrum,
    tensor_product,
    validate,
    verdict_of,
)
from .exceptions import (
    AmbiguousRootError,
    ConditioningError,
    InsufficientShotsError,
    InvalidCovarianceError,
    InvalidStateError,
    SimonTypeMismatchError,
)
from .locc import _assembled, _drawn
from .moments import cross_intensity, cross_phase, measure, product
from .sampling import derive_rng
from .states import ReferenceStateParams, _simon_matrix
from .stokes import SingleModeNetwork, network_design, sample_stokes
from .transforms import (SymplecticTransform, _propagated, apply_transform, embed, opa,
                         rotation_theta)

_ROOT_TOL = 1e-9
_MEANS_TOL = 1e-9
# the reference of the displacement pre-step; its two <S1> rows over
# (<q>, <p>) have determinant 2 d^2 = 2, so the mean system is regular
_MEANS_REFERENCE = ReferenceStateParams(d=1.0, theta=0.2)


@dataclass(frozen=True)
class SwapTestResult:
    """Bernoulli swap-test record and the determinant it implies."""

    p_plus: float
    purity_hat: float
    purity_se: float
    det_hat: float
    det_se: float
    n_shots: int
    n_modes: int


def swap_test(state: GaussianState, n_shots: int, seed: int, *key: int) -> SwapTestResult:
    """Simulate +-1 swap outcomes on two copies and invert to a determinant.

    p(+1) = (1 + Tr rho^2)/2; det = (1 / (2^n purity))^2.
    """
    if n_shots < 1:
        raise InsufficientShotsError(f"n_shots must be >= 1, got {n_shots}")
    require_valid(state)
    mu = purity(state)
    rng = derive_rng(seed, *key)
    plus = int(np.count_nonzero(rng.random(n_shots) < 0.5 * (1.0 + mu)))
    p_hat = plus / n_shots
    purity_hat = 2.0 * p_hat - 1.0
    p_se = math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n_shots)
    purity_se = 2.0 * p_se
    if purity_hat <= 0.0:
        raise InsufficientShotsError(
            f"purity estimate {purity_hat:.3e} <= 0 after {n_shots} shots; "
            "no determinant can be inverted from it"
        )
    n = state.n_modes
    det_hat = (1.0 / (2.0**n * purity_hat)) ** 2
    det_se = 2.0 * det_hat / purity_hat * purity_se
    return SwapTestResult(
        p_plus=p_hat,
        purity_hat=purity_hat,
        purity_se=purity_se,
        det_hat=det_hat,
        det_se=det_se,
        n_shots=n_shots,
        n_modes=n,
    )


@dataclass(frozen=True)
class CMatrixEstimate:
    """Estimated cross block with per-entry errors.  The four entries are
    independent sources of the margin's error (:func:`run_two_copy`)."""

    c_hat: np.ndarray
    c_se: np.ndarray
    n_shots: int
    method: str

    @property
    def det_c(self) -> float:
        c = self.c_hat
        return float(c[0, 0] * c[1, 1] - c[0, 1] * c[1, 0])


def method1_c(state: GaussianState, n_shots: int, seed: int) -> CMatrixEstimate:
    """C from locc_ii's random local quadrature pairs on ``n_shots`` copies."""
    require_two_modes(state)
    require_valid(state)
    gamma, gamma_se = _assembled(_drawn(state, "method1", n_shots, seed))
    return CMatrixEstimate(c_hat=gamma[:2, 2:].copy(), c_se=gamma_se[:2, 2:].copy(),
                           n_shots=n_shots, method="method1")


@dataclass(frozen=True)
class Method2Result:
    det_c: float
    s: float
    t: float
    candidates: tuple
    gradient: np.ndarray  # d det C / d (det A, det B, det gamma, det rot)


def method2_det_c(det_a: float, det_b: float, det_gamma: float,
                  det_rotated_marginal: float, tol: float = _ROOT_TOL,
                  input_se=(0.0, 0.0, 0.0, 0.0)) -> Method2Result:
    """Solve the Simon-form determinant system for det C = s t.

    Unknowns e1 = s + t, e2 = s t obey

        det_gamma = (lam mu)^2 - lam mu (e1^2 - 2 e2) + e2^2,
        4 det_rot = (lam + mu)^2 + 2 (lam + mu) e1 + 4 e2,

    with lam = sqrt(det A), mu = sqrt(det B).  Eliminating e2 leaves a
    quadratic in e1 with leading coefficient ((lam - mu)/2)^2, which
    degenerates to linear for symmetric states.  Roots are kept only if
    (s, t) are real and the reassembled Simon-form covariance matrix is
    physical; zero survivors signal that the state is not of Simon type
    within the input noise, two distinct survivors are ambiguous.

    ``input_se`` are the inputs' standard errors.  Candidates pass as
    physical within five times the largest (at least 1e-8).  A negative
    discriminant (s - t)^2 = e1^2 - 4 e2 is clamped to zero unless it lies
    more than three of its own first-order errors below it.

    The gradient is the implicit derivative of det C = k - h e1, with
    h = (lam + mu)/2 and k = det_rot - h^2, through the quadratic
    P(e1) = 0: d det C = dk - e1 dh + h dP / P'(e1).
    """
    if det_a <= 0 or det_b <= 0:
        raise SimonTypeMismatchError(
            f"det A = {det_a:.3e} and det B = {det_b:.3e} must be positive"
        )
    lam, mu = math.sqrt(det_a), math.sqrt(det_b)
    h = 0.5 * (lam + mu)
    k = det_rotated_marginal - h * h
    # det_gamma = (lam mu)^2 - lam mu e1^2 + 2 lam mu e2 + e2^2 with e2 = k - h e1
    a = h * h - lam * mu  # ((lam - mu)/2)^2 >= 0
    m = lam * mu + k
    b = -2.0 * h * m
    c0 = (lam * mu) ** 2 + 2.0 * lam * mu * k + k * k - det_gamma
    scale = max(1.0, abs(lam * mu), abs(k))
    validity_tol = max(1e-8, 5.0 * max(input_se))
    # partial derivatives over (lam, mu, det_gamma, det_rot) at fixed e1,
    # and the chain rule to (det A, det B, det_gamma, det_rot)
    d_lm = np.array([mu, lam, 0.0, 0.0])
    dh = np.array([0.5, 0.5, 0.0, 0.0])
    dk = np.array([-h, -h, 0.0, 1.0])
    dm = d_lm + dk
    to_inputs = np.array([0.5 / lam, 0.5 / mu, 1.0, 1.0])

    def slopes(e1):
        """Derivatives of e2 and of e1^2 - 4 e2 over the four inputs, with e1
        moving so that P(e1) = 0."""
        dp = (2.0 * h * dh - d_lm) * e1**2 - 2.0 * (m * dh + h * dm) * e1 + 2.0 * m * dm
        dp[2] -= 1.0
        de1 = -dp / (2.0 * a * e1 + b)
        de2 = dk - e1 * dh - h * de1
        return de2 * to_inputs, (2.0 * e1 * de1 - 4.0 * de2) * to_inputs

    if a < 1e-14 * scale:
        # symmetric states (lam = mu) make the system linear in e1
        if abs(b) < tol * scale**2:
            raise SimonTypeMismatchError(
                "degenerate determinant system: both e1 coefficients vanish"
            )
        e1_roots = [-c0 / b]
    else:
        disc = b * b - 4.0 * a * c0
        if disc < -tol * scale**4:
            raise SimonTypeMismatchError(
                f"no real solution for s + t (discriminant {disc:.3e}); "
                "the determinant inputs are not of Simon type within noise"
            )
        # cancellation-free quadratic roots; lam close to mu makes the
        # naive formula lose the physical root
        root = math.sqrt(max(disc, 0.0))
        q = -0.5 * (b + math.copysign(root, b))
        e1_roots = [q / a] if q != 0.0 else [0.0]
        if q != 0.0:
            e1_roots.append(c0 / q)
    quantum_valid = []
    psd_only = []
    for e1 in e1_roots:
        if not np.isfinite(e1):
            continue
        e2 = k - h * e1
        disc_st = e1 * e1 - 4.0 * e2
        # the noise bound is evaluated only where the rounding bound rejects
        if disc_st < -tol * scale**2 and disc_st < -3.0 * np.linalg.norm(
                slopes(e1)[1] * input_se):
            continue
        half = math.sqrt(max(disc_st, 0.0)) / 2.0
        s, t = e1 / 2.0 + half, e1 / 2.0 - half
        cov = _simon_matrix(lam, mu, s, t)
        try:
            candidate = GaussianState(means=np.zeros(4), cov=cov)
        except InvalidStateError:
            continue
        if validate(candidate, tol=validity_tol):
            bucket = quantum_valid
        elif np.linalg.eigvalsh(cov)[0] >= -validity_tol:
            # covariance-like but below the uncertainty bound; kept as a
            # fallback so inputs from marginally unphysical estimates still
            # resolve instead of flagging mismatch
            bucket = psd_only
        else:
            continue
        if not any(abs(e2 - kept[2]) < tol * scale**2 for kept in bucket):
            bucket.append((s, t, e2))
    survivors = quantum_valid if quantum_valid else psd_only
    if not survivors:
        raise SimonTypeMismatchError(
            "no root of the determinant system reassembles into a positive "
            "semidefinite Simon-form matrix; the state is not of Simon type "
            "within the input noise"
        )
    if len(survivors) > 1:
        raise AmbiguousRootError(
            f"both roots give physical Simon-form matrices: det C in "
            f"{[round(s[2], 9) for s in survivors]}; no disambiguation rule applies"
        )
    s, t, e2 = survivors[0]
    return Method2Result(det_c=float(e2), s=float(s), t=float(t),
                         candidates=tuple(survivors), gradient=slopes(s + t)[0])


def rotated_marginal(state: GaussianState) -> GaussianState:
    """Mode-1 marginal after the two-mode pi/4 rotation; its determinant is
    the fourth swap-test input of method 2."""
    rotated = apply_transform(state, rotation_theta(math.pi / 4))
    return partial_trace(rotated, [0])


def opa_solver_constants(g1: float, phi1: float, g2: float, phi2: float) -> dict:
    """Coefficients of the amplified cross-intensity observables.

    With c_i = cosh(g_i), s_i = sinh(g_i):
        <O1> = m1 (q1q2 + p1p2) + n1 (q1p2 - p1q2)     O1 = i(A3+ B3 - B3+ A3)
        <O2> = m2 (q1q2 + p1p2) + n2 (q1p2 - p1q2)     O2 = A3+ B3 + B3+ A3
        <O3> = m1p (q1q2 - p1p2) + n1p (q1p2 + p1q2)   O3 = i(A3+ B4 - B4+ A3)
        <O4> = m2p (q1q2 - p1p2) + n2p (q1p2 + p1q2)   O4 = A3+ B4 + B4+ A3

    At g1 = g2 = 0 the first pair reduces to (m1, n1, m2, n2) =
    (0, -1, 1, 0), reading the two combinations off directly.
    """
    c1, s1 = math.cosh(g1), math.sinh(g1)
    c2, s2 = math.cosh(g2), math.sinh(g2)
    return {
        "m1": s1 * s2 * math.sin(phi1 - phi2),
        "n1": -c1 * c2 + s1 * s2 * math.cos(phi1 - phi2),
        "m2": c1 * c2 + s1 * s2 * math.cos(phi1 - phi2),
        "n2": -s1 * s2 * math.sin(phi1 - phi2),
        "m1p": -c1 * s2 * math.sin(phi2) + s1 * c2 * math.sin(phi1),
        "n1p": c1 * s2 * math.cos(phi2) - s1 * c2 * math.cos(phi1),
        "m2p": c1 * s2 * math.cos(phi2) + s1 * c2 * math.cos(phi1),
        "n2p": s1 * c2 * math.sin(phi1) + c1 * s2 * math.sin(phi2),
    }


@dataclass(frozen=True)
class OpaParams:
    """Gains and pump phases of the two amplifiers.

    The observables O1, O2 read (q1 q2 + p1 p2, q1 p2 - p1 q2) through a
    2x2 system of determinant cosh(g1 - g2) cosh(g1 + g2) >= 1, always
    solvable; O3, O4 read (q1 q2 - p1 p2, q1 p2 + p1 q2) through one of
    determinant sinh(g1 - g2) sinh(g1 + g2), so the gains must differ.
    """

    g1: float = 0.3
    phi1: float = 0.0
    g2: float = 0.2
    phi2: float = math.pi / 3

    def __post_init__(self):
        if self.g1 < 0 or self.g2 < 0:
            raise ConditioningError("OPA gains must be >= 0")
        det = math.sinh(self.g1 - self.g2) * math.sinh(self.g1 + self.g2)
        if abs(det) < 1e-10:
            raise ConditioningError(
                f"OPA gains g1 = {self.g1}, g2 = {self.g2} make the "
                "(q1q2 - p1p2, q1p2 + p1q2) system singular; choose g1 != g2"
            )

    @property
    def constants(self) -> dict:
        return opa_solver_constants(self.g1, self.phi1, self.g2, self.phi2)


@functools.lru_cache(maxsize=64)
def _opa_steps(params: OpaParams) -> tuple[SymplecticTransform, SymplecticTransform]:
    """Alice's OPA on the two copies of mode 1 and Bob's on the two copies
    of mode 2, on the mode order (1, 2, 1', 2'); built once per params.
    The amplifier outputs live in slots (A4, B4, A3, B3)."""
    return (
        embed(opa(params.g1, params.phi1), 4, [0, 2]),
        embed(opa(params.g2, params.phi2), 4, [1, 3]),
    )


@functools.lru_cache(maxsize=64)
def _opa_solver(params: OpaParams) -> np.ndarray:
    """Inverse of the affine map from C = (c00, c01, c10, c11) =
    (q1q2, q1p2, p1q2, p1p2) to the observables (O1, O2, O3, O4)."""
    k = params.constants
    solver = np.linalg.inv(np.array([
        [k["m1"], k["n1"], -k["n1"], k["m1"]],
        [k["m2"], k["n2"], -k["n2"], k["m2"]],
        [k["m1p"], k["n1p"], k["n1p"], -k["m1p"]],
        [k["m2p"], k["n2p"], k["n2p"], -k["m2p"]],
    ]))
    solver.setflags(write=False)
    return solver


# observables on the amplified four-mode state; slots: A4=0, B4=1, A3=2, B3=3
_OPA_PRODUCTS = (
    product(cross_phase(2, 3)),      # i(A3^dag B3 - B3^dag A3)
    product(cross_intensity(2, 3)),  # A3^dag B3 + B3^dag A3
    product(cross_phase(2, 1)),      # i(A3^dag B4 - B4^dag A3)
    product(cross_intensity(2, 1)),  # A3^dag B4 + B4^dag A3
)


def _estimate_means_stokes(state, n_shots, seed):
    """Interferometric mean estimation for the displacement pre-step.

    Samples only the two <S1> readouts per mode and solves their 2x2 rows
    of the Stokes design for (<q>, <p>); 4 n_shots copies in total."""
    means = np.zeros(4)
    for mode in (0, 1):
        net = SingleModeNetwork(mode=mode, reference=_MEANS_REFERENCE, s1sq_phases=())
        design, offset = network_design(net)
        readouts = sample_stokes(net, state, n_shots, seed, 10 + mode)
        rhs = np.array([r.value.value for r in readouts]) - offset
        means[2 * mode : 2 * mode + 2] = np.linalg.solve(design[:, 2 * mode : 2 * mode + 2], rhs)
    return means


def method3_c(state: GaussianState, params: OpaParams | None = None,
              n_shots: int | None = None, seed: int = 0) -> CMatrixEstimate:
    """Amplifier-based estimation of all four C entries.

    Requires zero first moments; states with nonzero means are first
    displaced by means estimated interferometrically (consuming the same
    per-readout shot budget).  Analytic when ``n_shots`` is None.
    """
    require_two_modes(state)
    require_valid(state)
    params = params or OpaParams()
    shots_used = 0
    if np.max(np.abs(state.means)) > _MEANS_TOL:
        if n_shots is None:
            means_hat = state.means.copy()
        else:
            means_hat = _estimate_means_stokes(state, n_shots, seed)
            shots_used += 4 * n_shots
        state = GaussianState(means=state.means - means_hat, cov=state.cov)
    # rho (x) rho through both amplifiers
    out = GaussianState(*_propagated(tensor_product(state, state), _opa_steps(params)))
    estimates = measure([(readout, out, (20 + i,)) for i, readout in enumerate(_OPA_PRODUCTS)],
                        n_shots, seed)
    values = np.array([est.value for est in estimates])
    errors = np.array([est.std_error for est in estimates])
    shots_used += sum(est.n_shots for est in estimates)
    solver = _opa_solver(params)
    c = (solver @ values).reshape(2, 2)
    se = np.sqrt(solver**2 @ errors**2).reshape(2, 2)
    return CMatrixEstimate(c_hat=c, c_se=se, n_shots=shots_used, method="method3")


@dataclass(frozen=True)
class TwoCopyResult:
    """Verdict assembled from four determinant estimates."""

    det_a: float
    det_b: float
    det_c: float
    det_gamma: float
    delta: float
    margin: float
    margin_std_error: float
    verdict: Verdict
    xi_min: float | None
    log_negativity: float | None
    estimates_consistent: bool
    method: str
    shots_used: int
    measurement_settings: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {**vars(self), "verdict": self.verdict.value}


# measurement settings: three swap tests always; det C costs 4 random-pair
# settings (method 1), one extra swap test (method 2), 4 amplified
# observables (method 3); five-observable tomography is the comparison point
_METHOD_SETTINGS = {"method1": 4, "method2": 1, "method3": 4, "exact": 0}
TOMOGRAPHY_SETTINGS = 5


def assemble_verdict(det_a: float, det_b: float, det_c: float, det_gamma: float,
                     margin_std_error: float = 0.0, method: str = "exact",
                     shots_used: int = 0) -> TwoCopyResult:
    """Simon criterion from determinant estimates and the margin's
    standard error.

    xi_min is computed when the estimates admit a real symplectic spectrum
    and flagged inconsistent otherwise.
    """
    delta, margin = simon_margin(det_a, det_b, det_c, det_gamma)
    try:
        xi_min = symplectic_spectrum(delta, det_gamma, tol=1e-12)[0]
    except InvalidCovarianceError:
        xi_min = None
    settings = {
        "swap_tests": 4 if method == "method2" else 3,
        "det_c_settings": _METHOD_SETTINGS.get(method, 0),
        "tomography_settings": TOMOGRAPHY_SETTINGS,
    }
    return TwoCopyResult(
        det_a=det_a,
        det_b=det_b,
        det_c=det_c,
        det_gamma=det_gamma,
        delta=delta,
        margin=margin,
        margin_std_error=margin_std_error,
        verdict=verdict_of(margin),
        xi_min=xi_min,
        log_negativity=None if xi_min is None else log_negativity(xi_min),
        estimates_consistent=xi_min is not None,
        method=method,
        shots_used=shots_used,
        measurement_settings=settings,
    )


def run_two_copy(state: GaussianState, method: str, n_shots: int, seed: int,
                 opa_params: OpaParams | None = None) -> TwoCopyResult:
    """Full two-copy pipeline: three swap tests plus the chosen det C route.

    ``n_shots`` is the budget per estimation branch (equal split).  The
    margin's error sources are the swap tests and, for methods 1 and 3,
    the four entries of C (:func:`gaussep.core.margin_error`).
    """
    require_two_modes(state)
    require_valid(state)
    swaps = [swap_test(partial_trace(state, [0]), n_shots, seed, 0),
             swap_test(partial_trace(state, [1]), n_shots, seed, 1),
             swap_test(state, n_shots, seed, 2)]
    if method == "method2":
        swaps.append(swap_test(rotated_marginal(state), n_shots, seed, 3))
        solved = method2_det_c(*(swap.det_hat for swap in swaps), tol=1e-6,
                               input_se=[swap.det_se for swap in swaps])
        det_c, shots, c_hat, c_se = solved.det_c, 4 * n_shots, [], []
    elif method in ("method1", "method3"):
        c_est = (method1_c(state, n_shots, seed + 1) if method == "method1"
                 else method3_c(state, opa_params, n_shots, seed + 2))
        det_c, shots = c_est.det_c, 3 * n_shots + c_est.n_shots
        c_hat, c_se = c_est.c_hat.ravel(), c_est.c_se.ravel()
    else:
        raise ValueError(f"unknown method {method!r}")
    dets = [swap.det_hat for swap in swaps]

    def margin_at(x):
        # method 2 solves det C from the four swap tests: linearised through its gradient
        c = (det_c + (x - dets) @ solved.gradient if method == "method2"
             else np.linalg.det(x[:, 3:].reshape(-1, 2, 2)))
        return simon_margin(x[:, 0], x[:, 1], c, x[:, 2])[1]

    margin_se = margin_error(margin_at, [*dets, *c_hat], [*(swap.det_se for swap in swaps), *c_se])
    return assemble_verdict(*dets[:2], det_c, dets[2], margin_se, method, shots)
