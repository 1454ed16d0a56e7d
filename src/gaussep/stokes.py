"""Interferometric reconstruction with Stokes-like intensity observables.

Single-mode layout: the signal mode k interferes with a displaced squeezed
thermal reference r (phase shifter phi on the reference arm) at a 50-50
beam splitter.  The photon-number difference of the outputs is

    S1(phi) = q_k q_r^phi + p_k p_r^phi,
    q_r^phi = q_r cos(phi) - p_r sin(phi),   p_r^phi = q_r sin(phi) + p_r cos(phi).

With known reference moments, <S1> at two phases is linear in <q_k>,
<p_k>, and <S1^2> at three phases is linear in <q_k^2>, <p_k^2>,
<{q_k, p_k}>/2:

    <S1^2(phi)> = <q_k^2> <(q_r^phi)^2> + <p_k^2> <(p_r^phi)^2>
                  + 2 sigma_k sigma_r^phi - 1/2,

where sigma denotes the uncentered symmetrized cross moment <{q, p}>/2 of
the respective mode and the -1/2 is the commutator constant.

Two-mode layout: the signal modes interfere at beam splitter 1; the
difference arm b- = (a1 - a2)/sqrt(2) meets reference c at beam splitter 2
and the sum arm b+ meets reference d at beam splitter 3.  Measured are
S1^2 on both arms (arm moments are signal moments plus/minus the cross
moments), the product S1 (x) S1, and the cross-output anticoincidence

    S3(phi1, phi2) = i(a6^dag a3 - a3^dag a6),

whose expectation contains (<q1 p2> - <p1 q2>)/2.  Together with the
single-mode readouts these determine all four entries of the cross block
C, hence the full covariance matrix (this path amounts to full state
tomography).

Every readout is affine in theta, the 4 means and the 10 raw second
moments <{x_i, x_j}>/2 of the signal: readouts = design @ theta + offset.
A :class:`StokesConfig` solves 14 of its 15 rows with one inverse, and its
standard errors are exact first-order propagations of readout errors.

The sampled backend propagates signal and references through the network
symplectics, draws Wigner samples of the output state, averages the same
intensity polynomials per shot, and adds the analytically derived
commutator constants so the estimates are unbiased for the operator
expectations.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    GaussianState,
    SeparabilityReport,
    margin_gradient,
    partial_trace,
    project_to_valid,
    require_two_modes,
    require_valid,
    simon_criterion,
    tensor_product,
)
from .exceptions import ConditioningError, InvalidStateError
from .moments import (
    Poly,
    cross_phase,
    evaluate_on_samples,
    ordering_offset,
    photon_number_difference,
    poly_product,
    real_expect_operator,
)
from .sampling import MomentEstimate, mean_and_se, sample_wigner
from .states import (
    ReferenceMoments,
    ReferenceStateParams,
    displaced_squeezed_thermal,
    reference_moments,
)
from .transforms import apply_transform, beam_splitter_50_50, embed, phase_shifter

DEFAULT_SINGLE_REFERENCE = ReferenceStateParams(n_bar=0.0, d=1.0, beta=0.0, theta=0.2)
DEFAULT_REFERENCE_C = ReferenceStateParams(n_bar=0.0, d=1.0, beta=0.0, theta=0.2)
# distinct second moments keep the (q1 q2, p1 p2) system nonsingular, and
# the pi/2 displacement phase keeps the S1xS1 coefficient nonzero while
# preserving sigma = 0
DEFAULT_REFERENCE_D = ReferenceStateParams(
    n_bar=0.0, d=1.5, beta=math.pi / 2, theta=0.1
)

SINGLE_MODE_S1_PHASES = (0.0, math.pi / 2)
SINGLE_MODE_S1SQ_PHASES = (0.0, math.pi / 2, math.pi / 4)

_SIGMA_TOL = 1e-9
_COND_TOL = 1e-10
_FALLBACK_TOL = 1e-9


@dataclass(frozen=True)
class SingleModeNetwork:
    """Single-arm layout measuring all five moments of one signal mode."""

    mode: int = 0
    reference: ReferenceStateParams = DEFAULT_SINGLE_REFERENCE
    s1_phases: tuple = SINGLE_MODE_S1_PHASES
    s1sq_phases: tuple = SINGLE_MODE_S1SQ_PHASES


@dataclass(frozen=True)
class TwoModeNetwork:
    """Cross-block measurement layout with two references."""

    ref_c: ReferenceStateParams = DEFAULT_REFERENCE_C
    ref_d: ReferenceStateParams = DEFAULT_REFERENCE_D
    phi1: float = 0.0
    phi2_values: tuple = (0.0, math.pi / 4)


@dataclass(frozen=True)
class StokesReadout:
    observable: str
    phases: tuple
    value: MomentEstimate


@dataclass(frozen=True)
class SingleModeMoments:
    """Uncentered first and second moments of one mode."""

    q: float
    p: float
    q2: float
    p2: float
    sigma: float

    @classmethod
    def from_state(cls, state: GaussianState, mode: int = 0) -> "SingleModeMoments":
        i, j = 2 * mode, 2 * mode + 1
        return cls(
            q=float(state.means[i]),
            p=float(state.means[j]),
            q2=float(state.cov[i, i] + state.means[i] ** 2),
            p2=float(state.cov[j, j] + state.means[j] ** 2),
            sigma=float(state.cov[i, j] + state.means[i] * state.means[j]),
        )


@dataclass(frozen=True)
class TwoModeCrossMoments:
    """Uncentered cross moments between the two signal modes."""

    q1q2: float
    p1p2: float
    q1p2: float
    p1q2: float


def _rotated_first(ref: ReferenceMoments, phi: float) -> tuple[float, float]:
    c, s = math.cos(phi), math.sin(phi)
    return ref.q_mean * c - ref.p_mean * s, ref.q_mean * s + ref.p_mean * c


def _rotated_second(ref: ReferenceMoments, phi: float) -> tuple[float, float, float]:
    c, s = math.cos(phi), math.sin(phi)
    q2 = c * c * ref.q2 - 2 * c * s * ref.sigma + s * s * ref.p2
    p2 = s * s * ref.q2 + 2 * c * s * ref.sigma + c * c * ref.p2
    sigma = c * s * (ref.q2 - ref.p2) + (c * c - s * s) * ref.sigma
    return q2, p2, sigma


def s1_expectation(sig: SingleModeMoments, ref: ReferenceMoments, phi: float) -> float:
    rq, rp = _rotated_first(ref, phi)
    return sig.q * rq + sig.p * rp


def s1sq_expectation(sig: SingleModeMoments, ref: ReferenceMoments, phi: float) -> float:
    q2f, p2f, sigf = _rotated_second(ref, phi)
    return sig.q2 * q2f + sig.p2 * p2f + 2.0 * sig.sigma * sigf - 0.5


def _arm_moments(m1, m2, cross: TwoModeCrossMoments, sign: int) -> SingleModeMoments:
    """Moments of the beam-splitter arm (a1 + sign*a2)/sqrt(2)."""
    return SingleModeMoments(
        q=(m1.q + sign * m2.q) / math.sqrt(2),
        p=(m1.p + sign * m2.p) / math.sqrt(2),
        q2=0.5 * (m1.q2 + 2 * sign * cross.q1q2 + m2.q2),
        p2=0.5 * (m1.p2 + 2 * sign * cross.p1p2 + m2.p2),
        sigma=0.5 * (m1.sigma + m2.sigma + sign * (cross.q1p2 + cross.p1q2)),
    )


def s1xs1_expectation(m1, m2, cross, rc: ReferenceMoments, rd: ReferenceMoments,
                      phi1: float, phi2: float) -> float:
    rcq, rcp = _rotated_first(rc, phi1)
    rdq, rdp = _rotated_first(rd, phi2)
    x = cross.q1p2 - cross.p1q2
    return (
        0.5 * (m1.q2 - m2.q2) * rcq * rdq
        + 0.5 * (m1.p2 - m2.p2) * rcp * rdp
        + 0.5 * (m1.sigma - m2.sigma) * (rcq * rdp + rcp * rdq)
        + 0.5 * x * (rcq * rdp - rcp * rdq)
    )


def s3_expectation(m1, m2, cross, rc: ReferenceMoments, rd: ReferenceMoments,
                   phi1: float, phi2: float) -> float:
    rcq, rcp = _rotated_first(rc, phi1)
    rdq, rdp = _rotated_first(rd, phi2)
    mean_part = (
        (m1.q - m2.q) * rdp
        + (m1.q + m2.q) * rcp
        - (m1.p - m2.p) * rdq
        - (m1.p + m2.p) * rcq
    ) / (2.0 * math.sqrt(2))
    ref_part = 0.5 * (
        (rc.q_mean * rd.q_mean + rc.p_mean * rd.p_mean) * math.sin(phi1 - phi2)
        + (rd.q_mean * rc.p_mean - rc.q_mean * rd.p_mean) * math.cos(phi1 - phi2)
    )
    return mean_part + 0.5 * (cross.q1p2 - cross.p1q2) + ref_part


def _exact(value: float) -> MomentEstimate:
    return MomentEstimate(value=float(value), std_error=0.0, n_shots=0)


def _closed_forms(network, sig, cross) -> list[tuple[str, tuple, float]]:
    """(observable, phases, expectation) of every readout of ``network``,
    from the moments ``sig[k]`` of signal mode k and the cross moments."""
    if isinstance(network, SingleModeNetwork):
        m = sig[network.mode]
        ref = reference_moments(network.reference)
        out = [("S1", (phi,), s1_expectation(m, ref, phi)) for phi in network.s1_phases]
        out += [("S1sq", (phi,), s1sq_expectation(m, ref, phi)) for phi in network.s1sq_phases]
        return out
    if isinstance(network, TwoModeNetwork):
        m1, m2 = sig
        rc = reference_moments(network.ref_c)
        rd = reference_moments(network.ref_d)
        phi1 = network.phi1
        phi2a = network.phi2_values[0]
        minus_arm = _arm_moments(m1, m2, cross, -1)
        plus_arm = _arm_moments(m1, m2, cross, +1)
        out = [("S1sq_c", (phi1,), s1sq_expectation(minus_arm, rc, phi1))]
        out += [
            ("S1sq_d", (phi2,), s1sq_expectation(plus_arm, rd, phi2))
            for phi2 in network.phi2_values
        ]
        out.append(
            ("S1xS1", (phi1, phi2a), s1xs1_expectation(m1, m2, cross, rc, rd, phi1, phi2a))
        )
        out.append(("S3", (phi1, phi2a), s3_expectation(m1, m2, cross, rc, rd, phi1, phi2a)))
        return out
    raise InvalidStateError(f"unknown network type {type(network).__name__}")


def expect_stokes(network, state: GaussianState) -> list[StokesReadout]:
    """Exact readout expectations from signal moments and reference moments."""
    require_valid(state)
    if isinstance(network, TwoModeNetwork):
        require_two_modes(state)
    raw = state.cov + np.outer(state.means, state.means)
    sig, cross = _moment_objects(state.means.tolist(), raw.tolist())
    return [
        StokesReadout(name, phases, _exact(value))
        for name, phases, value in _closed_forms(network, sig, cross)
    ]


# ---------------------------------------------------------------------------
# network propagation: the joint output state and the output-mode
# polynomial for each readout; exact oracle and engine of the sampled backend
# ---------------------------------------------------------------------------

def _single_mode_output(network: SingleModeNetwork, state: GaussianState,
                        phi: float) -> GaussianState:
    signal = partial_trace(state, [network.mode]) if state.n_modes > 1 else state
    joint = tensor_product(signal, displaced_squeezed_thermal(network.reference))
    joint = apply_transform(joint, embed(phase_shifter(phi), 2, [1]))
    return apply_transform(joint, beam_splitter_50_50())


def _two_mode_output(network: TwoModeNetwork, state: GaussianState,
                     phi1: float, phi2: float) -> GaussianState:
    joint = tensor_product(state, displaced_squeezed_thermal(network.ref_c))
    joint = tensor_product(joint, displaced_squeezed_thermal(network.ref_d))
    joint = apply_transform(joint, embed(beam_splitter_50_50(), 4, [0, 1]))
    joint = apply_transform(joint, embed(phase_shifter(phi1), 4, [2]))
    joint = apply_transform(joint, embed(phase_shifter(phi2), 4, [3]))
    # arm b- with reference c: outputs a3 (mode 0) and a4 (mode 2)
    joint = apply_transform(joint, embed(beam_splitter_50_50(), 4, [0, 2]))
    # arm b+ with reference d: outputs a5 (mode 1) and a6 (mode 3)
    return apply_transform(joint, embed(beam_splitter_50_50(), 4, [1, 3]))


_S1_SINGLE: Poly = photon_number_difference(1, 0)
_S1_ARM_C: Poly = photon_number_difference(2, 0)
_S1_ARM_D: Poly = photon_number_difference(3, 1)
# S3 = i(a6^dag a3 - a3^dag a6); a3 is output mode 0, a6 is output mode 3
_S3: Poly = cross_phase(3, 0)

# every readout is one quadratic factor or the operator product of two
_FACTORS: dict[str, tuple[Poly, ...]] = {
    "S1": (_S1_SINGLE,),
    "S1sq": (_S1_SINGLE, _S1_SINGLE),
    "S1sq_c": (_S1_ARM_C, _S1_ARM_C),
    "S1sq_d": (_S1_ARM_D, _S1_ARM_D),
    "S1xS1": (_S1_ARM_C, _S1_ARM_D),
    "S3": (_S3,),
}
# expanded products, for exact expectations and ordering offsets
_EXPANDED: dict[str, Poly] = {
    name: functools.reduce(poly_product, factors) for name, factors in _FACTORS.items()
}


def _readout_programs(network, state: GaussianState):
    """(readout id, output state) for every readout."""
    if isinstance(network, SingleModeNetwork):
        programs = []
        for phi in network.s1_phases:
            programs.append((("S1", (phi,)), _single_mode_output(network, state, phi)))
        for phi in network.s1sq_phases:
            programs.append((("S1sq", (phi,)), _single_mode_output(network, state, phi)))
        return programs
    if isinstance(network, TwoModeNetwork):
        require_two_modes(state)
        phi1 = network.phi1
        phi2a = network.phi2_values[0]
        first = _two_mode_output(network, state, phi1, phi2a)
        programs = [(("S1sq_c", (phi1,)), first)]
        for phi2 in network.phi2_values:
            out = first if phi2 == phi2a else _two_mode_output(network, state, phi1, phi2)
            programs.append((("S1sq_d", (phi2,)), out))
        programs.append((("S1xS1", (phi1, phi2a)), first))
        programs.append((("S3", (phi1, phi2a)), first))
        return programs
    raise InvalidStateError(f"unknown network type {type(network).__name__}")


def propagated_expectations(network, state: GaussianState) -> list[StokesReadout]:
    """Operator expectations computed on the network-propagated joint state.

    Independent of :func:`expect_stokes`; the two must agree exactly.
    """
    require_valid(state)
    return [
        StokesReadout(name, phases, _exact(real_expect_operator(_EXPANDED[name], out)))
        for (name, phases), out in _readout_programs(network, state)
    ]


def _sampled_values(factors: tuple[Poly, ...], samples: np.ndarray) -> np.ndarray:
    """Per-shot readout values: each distinct factor is evaluated once and
    the factors are multiplied shot by shot, so S1^2 is (S1)^2."""
    values = evaluate_on_samples(factors[0], samples)
    if len(factors) == 2:
        square = factors[1] is factors[0]
        values *= values if square else evaluate_on_samples(factors[1], samples)
    return values


def sample_stokes(network, state: GaussianState, n_shots: int, seed: int,
                  *key: int) -> list[StokesReadout]:
    """Monte Carlo readouts: Wigner-sampled polynomial averages plus the
    commutator constants that make them unbiased operator estimates."""
    require_valid(state)
    readouts = []
    for index, ((name, phases), out) in enumerate(_readout_programs(network, state)):
        batch = sample_wigner(out, n_shots, seed, *key, index)
        est = mean_and_se(_sampled_values(_FACTORS[name], batch.samples))
        offset = ordering_offset(_EXPANDED[name], out.n_modes)
        readouts.append(StokesReadout(name, phases, replace(est, value=est.value + offset)))
    return readouts


# ---------------------------------------------------------------------------
# the affine design: readouts = design @ theta + offset
# ---------------------------------------------------------------------------

# theta holds the means (q1, p1, q2, p2), then the raw second moments
# <{x_i, x_j}>/2 for i <= j in row-major order
_UPPER = np.triu_indices(4)
_N_THETA = 4 + len(_UPPER[0])
_COL = {(int(i), int(j)): 4 + k for k, (i, j) in enumerate(zip(*_UPPER))}


def _unpack(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Means and symmetric raw second-moment matrix of theta; leading axes
    of a stack of theta vectors are kept."""
    raw = np.zeros(theta.shape[:-1] + (4, 4))
    raw[..., _UPPER[0], _UPPER[1]] = theta[..., 4:]
    raw[..., _UPPER[1], _UPPER[0]] = theta[..., 4:]
    return theta[..., :4], raw


def moment_vector(state: GaussianState) -> np.ndarray:
    """theta of a two-mode state: its means and raw second moments."""
    require_two_modes(state)
    raw = state.cov + np.outer(state.means, state.means)
    return np.concatenate([state.means, raw[_UPPER]])


def _moment_objects(means: list, raw: list):
    """Moments of each mode and, for two modes, the cross moments, from the
    means and the raw second-moment matrix as nested lists; physical or not."""
    sig = [
        SingleModeMoments(q=means[i], p=means[i + 1], q2=raw[i][i], p2=raw[i + 1][i + 1],
                          sigma=raw[i][i + 1])
        for i in range(0, len(means), 2)
    ]
    if len(means) != 4:
        return sig, None
    return sig, TwoModeCrossMoments(q1q2=raw[0][2], p1p2=raw[1][3], q1p2=raw[0][3],
                                    p1q2=raw[1][2])


@functools.lru_cache(maxsize=256)
def network_design(network) -> tuple[np.ndarray, np.ndarray]:
    """(design, offset): the readouts of ``network``, in :func:`expect_stokes`
    order, are exactly ``design @ theta + offset`` for the signal's theta.

    The closed forms are affine in theta, so the offset is their value at
    theta = 0 and column j is their value at the j-th unit vector minus it.
    """
    def readouts(theta):
        moments = _moment_objects(*(part.tolist() for part in _unpack(theta)))
        return np.array([value for _, _, value in _closed_forms(network, *moments)])

    offset = readouts(np.zeros(_N_THETA))
    design = np.column_stack([readouts(unit) - offset for unit in np.eye(_N_THETA)])
    for array in (design, offset):
        array.setflags(write=False)
    return design, offset


def _require_sigma_free(ref: ReferenceMoments, which: str) -> None:
    if abs(ref.sigma) > _SIGMA_TOL:
        raise ConditioningError(
            f"reference {which} must satisfy <qp> = -<pq> = i/2 "
            f"(symmetrized cross moment sigma = {ref.sigma:.3e}); use unbiased "
            "parameters or the balanced-bias condition "
            "d^2 sin(2 beta) = (n_bar + 1/2) sinh(2 theta) sin(gamma)"
        )


def _require_regular(block: np.ndarray, problem: str) -> None:
    """Raise ``problem`` (formatted with the determinant) for a singular block."""
    det = np.linalg.det(block)
    if abs(det) < _COND_TOL * max(1.0, np.abs(block).max() ** len(block)):
        raise ConditioningError(problem.format(det=det))


# ---------------------------------------------------------------------------
# end-to-end pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StokesConfig:
    ref_single: ReferenceStateParams = DEFAULT_SINGLE_REFERENCE
    ref_c: ReferenceStateParams = DEFAULT_REFERENCE_C
    ref_d: ReferenceStateParams = DEFAULT_REFERENCE_D
    s1_phases: tuple = SINGLE_MODE_S1_PHASES
    s1sq_phases: tuple = SINGLE_MODE_S1SQ_PHASES
    phi1: float = 0.0
    phi2_values: tuple = (0.0, math.pi / 4)

    def __post_init__(self):
        for name, count in (("s1_phases", 2), ("s1sq_phases", 3), ("phi2_values", 2)):
            phases = tuple(getattr(self, name))
            if len(phases) != count:
                raise InvalidStateError(
                    f"{name} needs exactly {count} phases, got {len(phases)}"
                )
            object.__setattr__(self, name, phases)

    def networks(self):
        return (
            SingleModeNetwork(0, self.ref_single, self.s1_phases, self.s1sq_phases),
            SingleModeNetwork(1, self.ref_single, self.s1_phases, self.s1sq_phases),
            TwoModeNetwork(self.ref_c, self.ref_d, self.phi1, self.phi2_values),
        )


@functools.lru_cache(maxsize=64)
def _config_solver(config: StokesConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, solver, offset) with theta = solver @ (readouts[rows] - offset).

    The 14 rows are block triangular in (means, single-mode second
    moments, cross moments); each diagonal block is checked before the
    system is inverted.
    """
    designs = [network_design(net) for net in config.networks()]
    design = np.vstack([d for d, _ in designs])
    offset = np.concatenate([o for _, o in designs])
    _require_sigma_free(reference_moments(config.ref_single), "r")
    for mode in (0, 1):
        i, j, first = 2 * mode, 2 * mode + 1, 5 * mode
        _require_regular(
            design[first : first + 2, [i, j]],
            "the <S1> system is singular: reference first moments vanish "
            "(d = 0) or the S1 phases are degenerate (det = {det:.3e}); "
            "increase the displacement d of the reference",
        )
        _require_regular(
            design[first + 2 : first + 5, [_COL[i, i], _COL[j, j], _COL[i, j]]],
            "the <S1^2> system is singular: the reference is phase-symmetric "
            "(<q_r^2> = <p_r^2>) or the phases are degenerate "
            "(det = {det:.3e}); increase theta or d of the reference",
        )
    rc, rd = reference_moments(config.ref_c), reference_moments(config.ref_d)
    _require_sigma_free(rc, "c")
    _require_sigma_free(rd, "d")
    # S1 (x) S1 carries the cross moments with coefficient K/2,
    # K = <q_c^phi1><p_d^phi2> - <p_c^phi1><q_d^phi2>; S3 replaces it when K vanishes
    rcq, rcp = _rotated_first(rc, config.phi1)
    rdq, rdp = _rotated_first(rd, config.phi2_values[0])
    coupled = abs(rcq * rdp - rcp * rdq) > _FALLBACK_TOL
    rows = np.delete(np.arange(15), 14 if coupled else 13)
    _require_regular(
        design[rows[10:]][:, [_COL[0, 2], _COL[1, 3], _COL[0, 3], _COL[1, 2]]],
        "the C-block system is singular (det = {det:.3e}) for the S1sq_c, "
        f"S1sq_d and {'S1xS1' if coupled else 'S3'} equations; references c "
        "and d have proportional second moments or degenerate phase "
        "settings; change theta or d of one reference, or use distinct phi2 values",
    )
    solver, offset = np.linalg.inv(design[rows]), offset[rows]
    for array in (rows, solver, offset):
        array.setflags(write=False)
    return rows, solver, offset


def reconstruct(values, errors, config: StokesConfig | None = None):
    """Means, covariance matrix, its per-entry standard errors and the
    margin standard error from the 15 readouts of ``config.networks()``.

    Readouts are independent, so each error is the root sum of squares of
    one exact first-order term per readout.
    """
    rows, solver, offset = _config_solver(config or StokesConfig())
    theta = solver @ (np.asarray(values, dtype=float)[rows] - offset)
    means, raw = _unpack(theta)
    gamma = raw - np.outer(means, means)
    # change of theta, then of gamma, per one standard error of each readout
    d_means, d_raw = _unpack((solver * np.asarray(errors, dtype=float)[rows]).T)
    d_gamma = d_raw - d_means[:, :, None] * means - means[:, None] * d_means[:, None, :]
    d_margin = np.sum(d_gamma * margin_gradient(gamma), axis=(1, 2))
    gamma_se = np.sqrt(np.sum(d_gamma**2, axis=0))
    return means, gamma, gamma_se, float(np.sqrt(np.sum(d_margin**2)))


@dataclass(frozen=True)
class StokesPipelineResult:
    gamma_hat: np.ndarray
    means_hat: np.ndarray
    gamma_se: np.ndarray
    report: SeparabilityReport
    margin_std_error: float
    projection_epsilon: float
    readouts: tuple
    # reconstructing every covariance entry and both means is full state
    # tomography of a Gaussian state
    full_state_tomography: bool = True

    def to_dict(self) -> dict:
        out = self.report.to_dict()
        out.update(
            {
                "gamma_hat": self.gamma_hat.tolist(),
                "means_hat": self.means_hat.tolist(),
                "gamma_std_errors": self.gamma_se.tolist(),
                "margin_std_error": self.margin_std_error,
                "projection_epsilon": self.projection_epsilon,
                "full_state_tomography": self.full_state_tomography,
            }
        )
        return out


def full_pipeline(state: GaussianState, config: StokesConfig | None = None,
                  n_shots: int | None = None, seed: int = 0) -> StokesPipelineResult:
    """Reconstruct the covariance matrix and decide separability.

    Analytic backend when ``n_shots`` is None, otherwise every readout is
    estimated from ``n_shots`` Wigner samples on its own deterministic
    substream.  Per-entry and margin standard errors are propagated
    linearly through the reconstruction.
    """
    require_two_modes(state)
    config = config or StokesConfig()
    readouts = []
    for scope, network in enumerate(config.networks()):
        if n_shots is None:
            readouts += expect_stokes(network, state)
        else:
            readouts += sample_stokes(network, state, n_shots, seed, scope)
    means, gamma, gamma_se, margin_se = reconstruct(
        [r.value.value for r in readouts], [r.value.std_error for r in readouts], config
    )
    projected, eps = project_to_valid(GaussianState(means=means, cov=gamma))
    return StokesPipelineResult(
        gamma_hat=gamma,
        means_hat=means,
        gamma_se=gamma_se,
        report=simon_criterion(projected),
        margin_std_error=margin_se,
        projection_epsilon=eps,
        readouts=tuple(readouts),
    )
