"""Interferometric reconstruction with Stokes-like intensity observables.

Single-mode layout: the signal mode k interferes with a displaced squeezed
thermal reference r (phase shifter phi on the reference arm) at a 50-50
beam splitter.  The photon-number difference of the outputs is

    S1(phi) = q_k q_r^phi + p_k p_r^phi,
    q_r^phi = q_r cos(phi) - p_r sin(phi),   p_r^phi = q_r sin(phi) + p_r cos(phi).

With known reference moments, <S1> at two phases is a linear system for
<q_k>, <p_k>, and <S1^2> at three phases is a linear system for <q_k^2>,
<p_k^2>, <{q_k, p_k}>/2:

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
already-estimated single-mode moments these five readouts determine all
four entries of the cross block C, hence the full covariance matrix (this
path amounts to full state tomography).

The sampled backend propagates signal and references through the network
symplectics, draws Wigner samples of the output state, averages the same
intensity polynomials per shot, and adds the analytically derived
commutator constants so the estimates are unbiased for the operator
expectations.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    GaussianState,
    SeparabilityReport,
    partial_trace,
    project_to_valid,
    require_two_modes,
    require_valid,
    simon_criterion,
    tensor_product,
)
from .exceptions import ConditioningError, InvalidStateError
from .locc import margin_of
from .moments import (
    Poly,
    cross_phase,
    evaluate_on_samples,
    ordering_offset,
    photon_number_difference,
    poly_product,
    real_expect_operator,
)
from .sampling import MomentEstimate, sample_wigner
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

    def variances(self) -> np.ndarray:
        return np.array(
            [
                [self.q2 - self.q**2, self.sigma - self.q * self.p],
                [self.sigma - self.q * self.p, self.p2 - self.p**2],
            ]
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


def _cross_from_state(state: GaussianState) -> TwoModeCrossMoments:
    c = state.cov
    d = state.means
    return TwoModeCrossMoments(
        q1q2=float(c[0, 2] + d[0] * d[2]),
        p1p2=float(c[1, 3] + d[1] * d[3]),
        q1p2=float(c[0, 3] + d[0] * d[3]),
        p1q2=float(c[1, 2] + d[1] * d[2]),
    )


def _exact(value: float) -> MomentEstimate:
    return MomentEstimate(value=float(value), std_error=0.0, n_shots=0)


def expect_stokes(network, state: GaussianState) -> list[StokesReadout]:
    """Exact readout expectations from signal moments and reference moments."""
    require_valid(state)
    if isinstance(network, SingleModeNetwork):
        sig = SingleModeMoments.from_state(state, network.mode)
        ref = reference_moments(network.reference)
        out = [
            StokesReadout("S1", (phi,), _exact(s1_expectation(sig, ref, phi)))
            for phi in network.s1_phases
        ]
        out += [
            StokesReadout("S1sq", (phi,), _exact(s1sq_expectation(sig, ref, phi)))
            for phi in network.s1sq_phases
        ]
        return out
    if isinstance(network, TwoModeNetwork):
        require_two_modes(state)
        m1 = SingleModeMoments.from_state(state, 0)
        m2 = SingleModeMoments.from_state(state, 1)
        cross = _cross_from_state(state)
        rc = reference_moments(network.ref_c)
        rd = reference_moments(network.ref_d)
        phi1 = network.phi1
        phi2a = network.phi2_values[0]
        minus_arm = _arm_moments(m1, m2, cross, -1)
        plus_arm = _arm_moments(m1, m2, cross, +1)
        out = [
            StokesReadout(
                "S1sq_c", (phi1,), _exact(s1sq_expectation(minus_arm, rc, phi1))
            )
        ]
        out += [
            StokesReadout(
                "S1sq_d", (phi2,), _exact(s1sq_expectation(plus_arm, rd, phi2))
            )
            for phi2 in network.phi2_values
        ]
        out.append(
            StokesReadout(
                "S1xS1",
                (phi1, phi2a),
                _exact(s1xs1_expectation(m1, m2, cross, rc, rd, phi1, phi2a)),
            )
        )
        out.append(
            StokesReadout(
                "S3",
                (phi1, phi2a),
                _exact(s3_expectation(m1, m2, cross, rc, rd, phi1, phi2a)),
            )
        )
        return out
    raise InvalidStateError(f"unknown network type {type(network).__name__}")


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
        values = _sampled_values(_FACTORS[name], batch.samples)
        offset = ordering_offset(_EXPANDED[name], out.n_modes)
        std = float(np.std(values, ddof=1)) / math.sqrt(n_shots)
        readouts.append(
            StokesReadout(
                name,
                phases,
                MomentEstimate(
                    value=float(np.mean(values)) + offset,
                    std_error=std,
                    n_shots=n_shots,
                ),
            )
        )
    return readouts


# ---------------------------------------------------------------------------
# linear-system solvers
# ---------------------------------------------------------------------------

def _readout_map(readouts) -> dict:
    return {(r.observable, r.phases): r for r in readouts}


def _require_sigma_free(ref: ReferenceMoments, which: str) -> None:
    if abs(ref.sigma) > _SIGMA_TOL:
        raise ConditioningError(
            f"reference {which} must satisfy <qp> = -<pq> = i/2 "
            f"(symmetrized cross moment sigma = {ref.sigma:.3e}); use unbiased "
            "parameters or the balanced-bias condition "
            "d^2 sin(2 beta) = (n_bar + 1/2) sinh(2 theta) sin(gamma)"
        )


def solve_single_mode(readouts, ref: ReferenceMoments) -> SingleModeMoments:
    """Recover (<q>, <p>, <q^2>, <p^2>, <{q,p}>/2) of the signal mode.

    Means solve the 2x2 system from <S1> at two phases; the second moments
    and the symmetrized term solve the 3x3 system from <S1^2> at three
    phases.  Exact on analytic readouts.
    """
    _require_sigma_free(ref, "r")
    table = _readout_map(readouts)
    s1 = sorted((k[1][0], v) for k, v in table.items() if k[0] == "S1")
    s1sq = sorted((k[1][0], v) for k, v in table.items() if k[0] == "S1sq")
    if len(s1) != 2 or len(s1sq) != 3:
        raise InvalidStateError(
            f"need S1 at 2 phases and S1sq at 3 phases, got {len(s1)} and {len(s1sq)}"
        )
    mean_rows = np.array([_rotated_first(ref, phi) for phi, _ in s1])
    mean_rhs = np.array([r.value.value for _, r in s1])
    det = np.linalg.det(mean_rows)
    if abs(det) < _COND_TOL * max(1.0, np.abs(mean_rows).max() ** 2):
        raise ConditioningError(
            "the <S1> system is singular: reference first moments vanish "
            f"(d = 0) or the S1 phases are degenerate (det = {det:.3e}); "
            "increase the displacement d of the reference"
        )
    q_mean, p_mean = np.linalg.solve(mean_rows, mean_rhs)
    rows = []
    rhs = []
    for phi, readout in s1sq:
        q2f, p2f, sigf = _rotated_second(ref, phi)
        rows.append([q2f, p2f, 2.0 * sigf])
        rhs.append(readout.value.value + 0.5)
    rows = np.array(rows)
    det = np.linalg.det(rows)
    if abs(det) < _COND_TOL * max(1.0, np.abs(rows).max() ** 3):
        raise ConditioningError(
            "the <S1^2> system is singular: the reference is phase-symmetric "
            "(<q_r^2> = <p_r^2>) or the phases are degenerate "
            f"(det = {det:.3e}); increase theta or d of the reference"
        )
    q2, p2, sigma = np.linalg.solve(rows, np.array(rhs))
    return SingleModeMoments(q=float(q_mean), p=float(p_mean), q2=float(q2),
                             p2=float(p2), sigma=float(sigma))


def solve_c_block(readouts, m1: SingleModeMoments, m2: SingleModeMoments,
                  rc: ReferenceMoments, rd: ReferenceMoments,
                  phi1: float, phi2_values) -> tuple[TwoModeCrossMoments, np.ndarray]:
    """Recover the cross block C from the two-mode readouts.

    Rows of the linear system act on the unknowns
    (q1 q2, p1 p2, q1 p2, p1 q2):

    * <S1^2> on the difference arm (reference c) and on the sum arm
      (reference d) at the configured phases;
    * <S1 (x) S1>, whose cross-moment coefficient is
      K/2 = (<q_c^phi1><p_d^phi2> - <p_c^phi1><q_d^phi2>)/2, or <S3> when
      K vanishes (references with aligned or zero first moments).

    Returns the uncentered cross moments and the covariance block
    C = cross moments minus mean products.
    """
    _require_sigma_free(rc, "c")
    _require_sigma_free(rd, "d")
    table = _readout_map(readouts)
    phi2a = phi2_values[0]

    rows, rhs, used = [], [], []

    def arm_equation(ref, phi, sign):
        q2f, p2f, sigf = _rotated_second(ref, phi)
        row = [sign * q2f, sign * p2f, sign * sigf, sign * sigf]
        const = (
            0.5 * (m1.q2 + m2.q2) * q2f
            + 0.5 * (m1.p2 + m2.p2) * p2f
            + (m1.sigma + m2.sigma) * sigf
            - 0.5
        )
        return row, const

    key = ("S1sq_c", (phi1,))
    row, const = arm_equation(rc, phi1, -1)
    rows.append(row)
    rhs.append(table[key].value.value - const)
    used.append(key)
    for phi2 in phi2_values:
        key = ("S1sq_d", (phi2,))
        row, const = arm_equation(rd, phi2, +1)
        rows.append(row)
        rhs.append(table[key].value.value - const)
        used.append(key)

    rcq, rcp = _rotated_first(rc, phi1)
    rdq, rdp = _rotated_first(rd, phi2a)
    coupling = rcq * rdp - rcp * rdq
    if abs(coupling) > _FALLBACK_TOL:
        key = ("S1xS1", (phi1, phi2a))
        const = (
            0.5 * (m1.q2 - m2.q2) * rcq * rdq
            + 0.5 * (m1.p2 - m2.p2) * rcp * rdp
            + 0.5 * (m1.sigma - m2.sigma) * (rcq * rdp + rcp * rdq)
        )
        rows.append([0.0, 0.0, 0.5 * coupling, -0.5 * coupling])
    else:
        key = ("S3", (phi1, phi2a))
        mean_part = (
            (m1.q - m2.q) * rdp
            + (m1.q + m2.q) * rcp
            - (m1.p - m2.p) * rdq
            - (m1.p + m2.p) * rcq
        ) / (2.0 * math.sqrt(2))
        ref_part = 0.5 * (
            (rc.q_mean * rd.q_mean + rc.p_mean * rd.p_mean) * math.sin(phi1 - phi2a)
            + (rd.q_mean * rc.p_mean - rc.q_mean * rd.p_mean) * math.cos(phi1 - phi2a)
        )
        const = mean_part + ref_part
        rows.append([0.0, 0.0, 0.5, -0.5])
    rhs.append(table[key].value.value - const)
    used.append(key)

    matrix = np.array(rows)
    det = np.linalg.det(matrix)
    if abs(det) < _COND_TOL * max(1.0, np.abs(matrix).max() ** 4):
        raise ConditioningError(
            "the C-block system is singular (det = "
            f"{det:.3e}) for equations {used}; references c and d have "
            "proportional second moments or degenerate phase settings; "
            "change theta or d of one reference, or use distinct phi2 values"
        )
    q1q2, p1p2, q1p2, p1q2 = np.linalg.solve(matrix, np.array(rhs))
    cross = TwoModeCrossMoments(
        q1q2=float(q1q2), p1p2=float(p1p2), q1p2=float(q1p2), p1q2=float(p1q2)
    )
    c_block = np.array(
        [
            [cross.q1q2 - m1.q * m2.q, cross.q1p2 - m1.q * m2.p],
            [cross.p1q2 - m1.p * m2.q, cross.p1p2 - m1.p * m2.p],
        ]
    )
    return cross, c_block


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

    def networks(self):
        return (
            SingleModeNetwork(0, self.ref_single, self.s1_phases, self.s1sq_phases),
            SingleModeNetwork(1, self.ref_single, self.s1_phases, self.s1sq_phases),
            TwoModeNetwork(self.ref_c, self.ref_d, self.phi1, self.phi2_values),
        )


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


class _ReadoutVector:
    """Ordered readout values keyed by (scope, observable, phases)."""

    def __init__(self):
        self.keys: list = []
        self.values: list = []
        self.errors: list = []

    def extend(self, scope: int, readouts):
        for r in readouts:
            self.keys.append((scope, r.observable, r.phases))
            self.values.append(r.value.value)
            self.errors.append(r.value.std_error)

    def as_map(self, values) -> dict:
        return dict(zip(self.keys, values))

    def keys_for_scope(self, scope: int):
        return [k for k in self.keys if k[0] == scope]


def _build_gamma(vector: _ReadoutVector, values, config: StokesConfig):
    table = vector.as_map(values)
    ref_single = reference_moments(config.ref_single)
    rc = reference_moments(config.ref_c)
    rd = reference_moments(config.ref_d)
    per_mode = []
    for mode in (0, 1):
        mode_readouts = [
            StokesReadout(obs, phases, _exact(table[(scope, obs, phases)]))
            for (scope, obs, phases) in vector.keys_for_scope(mode)
        ]
        per_mode.append(solve_single_mode(mode_readouts, ref_single))
    two_readouts = [
        StokesReadout(obs, phases, _exact(table[(scope, obs, phases)]))
        for (scope, obs, phases) in vector.keys_for_scope(2)
    ]
    _, c_block = solve_c_block(
        two_readouts, per_mode[0], per_mode[1], rc, rd, config.phi1, config.phi2_values
    )
    gamma = np.zeros((4, 4))
    gamma[:2, :2] = per_mode[0].variances()
    gamma[2:, 2:] = per_mode[1].variances()
    gamma[:2, 2:] = c_block
    gamma[2:, :2] = c_block.T
    means = np.array([per_mode[0].q, per_mode[0].p, per_mode[1].q, per_mode[1].p])
    return gamma, means


def full_pipeline(state: GaussianState, config: StokesConfig | None = None,
                  n_shots: int | None = None, seed: int = 0) -> StokesPipelineResult:
    """Reconstruct the covariance matrix and decide separability.

    Analytic backend when ``n_shots`` is None, otherwise every readout is
    estimated from ``n_shots`` Wigner samples on its own deterministic
    substream.  Per-entry and margin standard errors are propagated
    linearly through the solvers.
    """
    require_two_modes(state)
    config = config or StokesConfig()
    net0, net1, net2 = config.networks()
    vector = _ReadoutVector()
    if n_shots is None:
        vector.extend(0, expect_stokes(net0, state))
        vector.extend(1, expect_stokes(net1, state))
        vector.extend(2, expect_stokes(net2, state))
    else:
        vector.extend(0, sample_stokes(net0, state, n_shots, seed, 0))
        vector.extend(1, sample_stokes(net1, state, n_shots, seed, 1))
        vector.extend(2, sample_stokes(net2, state, n_shots, seed, 2))

    values = np.array(vector.values)
    errors = np.array(vector.errors)
    gamma, means = _build_gamma(vector, values, config)

    gamma_var = np.zeros((4, 4))
    margin_var = 0.0
    if np.any(errors > 0):
        base_margin = margin_of(gamma)
        for i, err in enumerate(errors):
            if err == 0.0:
                continue
            h = max(1e-7, 1e-7 * abs(values[i]))
            bumped = values.copy()
            bumped[i] += h
            gamma_b, _ = _build_gamma(vector, bumped, config)
            gamma_var += ((gamma_b - gamma) / h * err) ** 2
            margin_var += ((margin_of(gamma_b) - base_margin) / h * err) ** 2

    raw = GaussianState(means=means, cov=gamma)
    projected, eps = project_to_valid(raw)
    report = simon_criterion(projected)
    readouts = tuple(
        StokesReadout(obs, phases, MomentEstimate(v, e, n_shots or 0))
        for (scope, obs, phases), v, e in zip(vector.keys, values, errors)
    )
    return StokesPipelineResult(
        gamma_hat=gamma,
        means_hat=means,
        gamma_se=np.sqrt(gamma_var),
        report=report,
        margin_std_error=float(math.sqrt(margin_var)),
        projection_epsilon=eps,
        readouts=readouts,
    )


def readouts_to_csv(readouts, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["observable", "phases", "value", "std_error", "n_shots"])
        for r in readouts:
            writer.writerow(
                [
                    r.observable,
                    ";".join(f"{p:.12g}" for p in r.phases),
                    repr(r.value.value),
                    repr(r.value.std_error),
                    r.value.n_shots,
                ]
            )
