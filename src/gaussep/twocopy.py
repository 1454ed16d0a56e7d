"""Two-copy estimation of the four determinants in the Simon criterion.

The SWAP operator on two copies of a state has expectation Tr rho^2, so a
projective +-1 measurement of it estimates the purity, and the Gaussian
purity 1/(2^n sqrt(det cov)) inverts to the determinant: swap tests on the
mode-1 marginals, the mode-2 marginals and the full two-mode state deliver
det A, det B and det(cov) without reconstructing any matrix elements.
Outcomes are simulated at the Bernoulli level with p(+1) = (1 + mu)/2,
which is the exact statistics of the +-1 spectrum.

Three routes to det C:

* method 1: per shot each party measures a uniformly random quadrature of
  its mode; matching pairs estimate the four cross covariances directly.
* method 2: assuming Simon normal form (A = lam I, B = mu I,
  C = diag(s, t)), det(cov) = (lam mu - s^2)(lam mu - t^2) and the mode-1
  marginal after the two-mode rotation by pi/4 has determinant
  [(lam + mu)^2 + 2(lam + mu)(s + t) + 4 s t] / 4; both are polynomial in
  e1 = s + t and e2 = s t, so two more swap tests determine e2 = det C up
  to root selection.  Roots that reassemble into an unphysical covariance
  matrix are discarded; two surviving roots raise an ambiguity error.
* method 3: both copies of each mode meet in an optical parametric
  amplifier; four cross-intensity observables of the amplified outputs are
  linear in the cross moments with gain-dependent coefficients, and two
  2x2 solves return all four entries of C.

An ``assemble_verdict`` step turns the four determinant estimates into a
separability report with a propagated margin error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    GaussianState,
    Verdict,
    VERDICT_TOL,
    log_negativity,
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
from .moments import (
    cross_intensity,
    cross_phase,
    evaluate_on_samples,
    ordering_offset,
    real_expect_operator,
)
from .sampling import covariance_and_se, derive_rng, mean_and_se, sample_wigner
from .states import ReferenceStateParams
from .stokes import SingleModeNetwork, network_design, sample_stokes
from .transforms import apply_transform, embed, opa, rotation_theta, SymplecticTransform

_ROOT_TOL = 1e-9
_MEANS_TOL = 1e-9


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

    def to_dict(self) -> dict:
        return {
            "p_plus": self.p_plus,
            "purity_hat": self.purity_hat,
            "purity_std_error": self.purity_se,
            "det_hat": self.det_hat,
            "det_std_error": self.det_se,
            "n_shots": self.n_shots,
            "n_modes": self.n_modes,
        }


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
    """Estimated cross block with per-entry and determinant errors."""

    c_hat: np.ndarray
    c_se: np.ndarray
    det_c: float
    det_c_se: float
    n_shots: int
    method: str

    def to_dict(self) -> dict:
        return {
            "c_hat": self.c_hat.tolist(),
            "c_std_errors": self.c_se.tolist(),
            "det_c": self.det_c,
            "det_c_std_error": self.det_c_se,
            "n_shots": self.n_shots,
            "method": self.method,
        }


def _det2_and_se(c: np.ndarray, se: np.ndarray) -> tuple[float, float]:
    det = float(c[0, 0] * c[1, 1] - c[0, 1] * c[1, 0])
    var = (
        (c[1, 1] * se[0, 0]) ** 2
        + (c[0, 0] * se[1, 1]) ** 2
        + (c[1, 0] * se[0, 1]) ** 2
        + (c[0, 1] * se[1, 0]) ** 2
    )
    return det, float(math.sqrt(var))


def method1_c(state: GaussianState, n_shots: int, seed: int) -> CMatrixEstimate:
    """Random local quadrature pairs; matching subsets give the C entries."""
    require_two_modes(state)
    require_valid(state)
    rows = sample_wigner(state, n_shots, seed, 0).samples
    rng = derive_rng(seed, 1)
    alice_q = rng.random(n_shots) < 0.5
    bob_q = rng.random(n_shots) < 0.5
    pairs = {
        (0, 0): alice_q & bob_q,       # (q1, q2)
        (0, 1): alice_q & ~bob_q,      # (q1, p2)
        (1, 0): ~alice_q & bob_q,      # (p1, q2)
        (1, 1): ~alice_q & ~bob_q,     # (p1, p2)
    }
    if min(int(m.sum()) for m in pairs.values()) < 100:
        raise InsufficientShotsError(
            f"fewer than 100 shots for some quadrature pair out of {n_shots}"
        )
    c = np.zeros((2, 2))
    se = np.zeros((2, 2))
    for (i, j), mask in pairs.items():
        # alice column: q1 -> 0, p1 -> 1; bob column: q2 -> 2, p2 -> 3
        est = covariance_and_se(rows[mask][:, i], rows[mask][:, 2 + j])
        c[i, j], se[i, j] = est.value, est.std_error
    det, det_se = _det2_and_se(c, se)
    return CMatrixEstimate(
        c_hat=c, c_se=se, det_c=det, det_c_se=det_se, n_shots=n_shots, method="method1"
    )


@dataclass(frozen=True)
class Method2Result:
    det_c: float
    s: float
    t: float
    candidates: tuple

    def to_dict(self) -> dict:
        return {"det_c": self.det_c, "s": self.s, "t": self.t}


def method2_det_c(det_a: float, det_b: float, det_gamma: float,
                  det_rotated_marginal: float, tol: float = _ROOT_TOL,
                  validity_tol: float = 1e-8) -> Method2Result:
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
    b = -2.0 * h * (lam * mu + k)
    c0 = (lam * mu) ** 2 + 2.0 * lam * mu * k + k * k - det_gamma
    scale = max(1.0, abs(lam * mu), abs(k))
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
        if disc_st < -tol * scale**2:
            continue
        half = math.sqrt(max(disc_st, 0.0)) / 2.0
        s, t = e1 / 2.0 + half, e1 / 2.0 - half
        cov = np.diag([lam, lam, mu, mu]).astype(float)
        cov[0, 2] = cov[2, 0] = s
        cov[1, 3] = cov[3, 1] = t
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
    return Method2Result(det_c=float(e2), s=float(s), t=float(t), candidates=tuple(survivors))


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

    The (q1 q2 + p1 p2, q1 p2 - p1 q2) system has determinant
    cosh(g1 - g2) cosh(g1 + g2) >= 1 and is always solvable; the
    (q1 q2 - p1 p2, q1 p2 + p1 q2) system has determinant
    sinh(g1 - g2) sinh(g1 + g2), so the gains must differ.
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

    def sum_system(self) -> np.ndarray:
        k = self.constants
        return np.array([[k["m1"], k["n1"]], [k["m2"], k["n2"]]])

    def diff_system(self) -> np.ndarray:
        k = self.constants
        return np.array([[k["m1p"], k["n1p"]], [k["m2p"], k["n2p"]]])

    def to_dict(self) -> dict:
        return {"g1": self.g1, "phi1": self.phi1, "g2": self.g2, "phi2": self.phi2}


def _two_copy_output(state: GaussianState, params: OpaParams) -> GaussianState:
    """rho (x) rho with Alice's OPA on the two copies of mode 1 and Bob's
    on the two copies of mode 2.  Mode order (1, 2, 1', 2'); amplifier
    outputs live in slots (A4, B4, A3, B3)."""
    both = tensor_product(state, state)
    both = apply_transform(both, embed(opa(params.g1, params.phi1), 4, [0, 2]))
    return apply_transform(both, embed(opa(params.g2, params.phi2), 4, [1, 3]))


# observables on the amplified four-mode state; slots: A4=0, B4=1, A3=2, B3=3
_OPA_POLYS = (
    cross_phase(2, 3),      # i(A3^dag B3 - B3^dag A3)
    cross_intensity(2, 3),  # A3^dag B3 + B3^dag A3
    cross_phase(2, 1),      # i(A3^dag B4 - B4^dag A3)
    cross_intensity(2, 1),  # A3^dag B4 + B4^dag A3
)


def _estimate_means_stokes(state, n_shots, seed, ref):
    """Interferometric mean estimation for the displacement pre-step.

    Samples only the two <S1> readouts per mode and solves their 2x2 rows
    of the Stokes design for (<q>, <p>); 4 n_shots copies in total."""
    means = np.zeros(4)
    for mode in (0, 1):
        net = SingleModeNetwork(mode=mode, reference=ref, s1sq_phases=())
        design, offset = network_design(net)
        matrix = design[:, 2 * mode : 2 * mode + 2]
        if abs(np.linalg.det(matrix)) < 1e-10:
            raise ConditioningError(
                "mean-estimation system singular; the displacement pre-step "
                "needs a reference with nonzero d"
            )
        readouts = sample_stokes(net, state, n_shots, seed, 10 + mode)
        rhs = np.array([r.value.value for r in readouts]) - offset
        means[2 * mode : 2 * mode + 2] = np.linalg.solve(matrix, rhs)
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
            means_hat = _estimate_means_stokes(
                state, n_shots, seed, ReferenceStateParams(d=1.0, theta=0.2)
            )
            shots_used += 4 * n_shots
        state = apply_transform(
            state, SymplecticTransform(matrix=np.eye(4), shift=-means_hat)
        )
    out = _two_copy_output(state, params)
    values = np.zeros(4)
    errors = np.zeros(4)
    if n_shots is None:
        for i, poly in enumerate(_OPA_POLYS):
            values[i] = real_expect_operator(poly, out)
    else:
        for i, poly in enumerate(_OPA_POLYS):
            batch = sample_wigner(out, n_shots, seed, 20 + i)
            est = mean_and_se(evaluate_on_samples(poly, batch.samples))
            values[i] = est.value + ordering_offset(poly, 4)
            errors[i] = est.std_error
            shots_used += n_shots
    sum_sys = params.sum_system()
    diff_sys = params.diff_system()
    u_plus, v_minus = np.linalg.solve(sum_sys, values[:2])
    u_minus, v_plus = np.linalg.solve(diff_sys, values[2:])
    c = np.array(
        [
            [(u_plus + u_minus) / 2.0, (v_plus + v_minus) / 2.0],
            [(v_plus - v_minus) / 2.0, (u_plus - u_minus) / 2.0],
        ]
    )
    # linear error propagation through both solves
    inv_sum = np.linalg.inv(sum_sys)
    inv_diff = np.linalg.inv(diff_sys)
    var_up, var_vm = (inv_sum**2) @ (errors[:2] ** 2)
    var_um, var_vp = (inv_diff**2) @ (errors[2:] ** 2)
    se = 0.5 * np.sqrt(
        np.array([[var_up + var_um, var_vp + var_vm], [var_vp + var_vm, var_up + var_um]])
    )
    det, det_se = _det2_and_se(c, se)
    return CMatrixEstimate(
        c_hat=c,
        c_se=se,
        det_c=det,
        det_c_se=det_se,
        n_shots=shots_used,
        method="method3",
    )


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
        return {
            "det_a": self.det_a,
            "det_b": self.det_b,
            "det_c": self.det_c,
            "det_gamma": self.det_gamma,
            "delta": self.delta,
            "margin": self.margin,
            "margin_std_error": self.margin_std_error,
            "verdict": self.verdict.value,
            "xi_min": self.xi_min,
            "log_negativity": self.log_negativity,
            "estimates_consistent": self.estimates_consistent,
            "method": self.method,
            "shots_used": self.shots_used,
            "measurement_settings": self.measurement_settings,
        }


# measurement settings: three swap tests always; det C costs 4 random-pair
# settings (method 1), one extra swap test (method 2), 4 amplified
# observables (method 3); five-observable tomography is the comparison point
_METHOD_SETTINGS = {"method1": 4, "method2": 1, "method3": 4, "exact": 0}
TOMOGRAPHY_SETTINGS = 5


def assemble_verdict(det_a: float, det_b: float, det_c: float, det_gamma: float,
                     std_errors=(0.0, 0.0, 0.0, 0.0), method: str = "exact",
                     shots_used: int = 0, tol: float = VERDICT_TOL) -> TwoCopyResult:
    """Simon criterion from determinant estimates.

    The margin's standard error follows from the (independent) input
    errors.  xi_min is computed when the estimates admit a real symplectic
    spectrum and flagged inconsistent otherwise.
    """
    delta, margin = simon_margin(det_a, det_b, det_c, det_gamma)
    se_a, se_b, se_c, se_g = std_errors
    margin_se = math.sqrt(se_a**2 + se_b**2 + 4.0 * se_c**2 + 16.0 * se_g**2)
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
        margin_std_error=margin_se,
        verdict=verdict_of(margin, tol),
        xi_min=xi_min,
        log_negativity=None if xi_min is None else log_negativity(xi_min),
        estimates_consistent=xi_min is not None,
        method=method,
        shots_used=shots_used,
        measurement_settings=settings,
    )


def _method2_fd_se(inputs: np.ndarray, input_se: np.ndarray, base: float,
                   validity_tol: float) -> float:
    """Error of the method-2 root by finite differences over the four
    determinant inputs; falls back to a quadrature bound where the root
    selection is unstable."""
    var = 0.0
    for i, se in enumerate(input_se):
        if se == 0.0:
            continue
        h = max(1e-7, 1e-4 * se)
        bumped = inputs.copy()
        bumped[i] += h
        try:
            value = method2_det_c(*bumped, tol=1e-6, validity_tol=validity_tol).det_c
        except (SimonTypeMismatchError, AmbiguousRootError):
            return float(np.sqrt(np.sum(input_se**2)))
        var += ((value - base) / h * se) ** 2
    return float(math.sqrt(var))


def run_two_copy(state: GaussianState, method: str, n_shots: int, seed: int,
                 opa_params: OpaParams | None = None) -> TwoCopyResult:
    """Full two-copy pipeline: three swap tests plus the chosen det C route.

    ``n_shots`` is the budget per estimation branch (equal split).
    """
    require_two_modes(state)
    require_valid(state)
    swap_a = swap_test(partial_trace(state, [0]), n_shots, seed, 0)
    swap_b = swap_test(partial_trace(state, [1]), n_shots, seed, 1)
    swap_g = swap_test(state, n_shots, seed, 2)
    shots = 3 * n_shots
    if method == "method1":
        c_est = method1_c(state, n_shots, seed + 1)
        det_c, det_c_se = c_est.det_c, c_est.det_c_se
        shots += c_est.n_shots
    elif method == "method2":
        rotated = rotated_marginal(state)
        swap_rot = swap_test(rotated, n_shots, seed, 3)
        shots += n_shots
        inputs = np.array(
            [swap_a.det_hat, swap_b.det_hat, swap_g.det_hat, swap_rot.det_hat]
        )
        input_se = np.array(
            [swap_a.det_se, swap_b.det_se, swap_g.det_se, swap_rot.det_se]
        )
        validity_tol = max(1e-8, 5.0 * float(np.max(input_se)))
        solved = method2_det_c(*inputs, tol=1e-6, validity_tol=validity_tol)
        det_c = solved.det_c
        det_c_se = _method2_fd_se(inputs, input_se, solved.det_c, validity_tol)
    elif method == "method3":
        c_est = method3_c(state, opa_params, n_shots, seed + 2)
        det_c, det_c_se = c_est.det_c, c_est.det_c_se
        shots += c_est.n_shots
    else:
        raise ValueError(f"unknown method {method!r}")
    return assemble_verdict(
        swap_a.det_hat,
        swap_b.det_hat,
        det_c,
        swap_g.det_hat,
        std_errors=(swap_a.det_se, swap_b.det_se, det_c_se, swap_g.det_se),
        method=method,
        shots_used=shots,
    )
