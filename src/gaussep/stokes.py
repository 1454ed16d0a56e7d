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
moments) and the product S1 (x) S1; when the S1 (x) S1 coupling to the
cross moments vanishes, the cross-output anticoincidence

    S3(phi1, phi2) = i(a6^dag a3 - a3^dag a6),

whose expectation contains (<q1 p2> - <p1 q2>)/2, is read instead.
Together with the single-mode readouts these determine all four entries
of the cross block C, hence the full covariance matrix (this path amounts
to full state tomography).

Every readout is affine in theta, the 4 means and the 10 raw second
moments <{x_i, x_j}>/2 of the signal: readouts = design @ theta + offset,
each design row written from the reference moments behind the readout's
phase shifters.  A :class:`StokesConfig` defines exactly the 14 readouts
it solves, with one inverse.  The covariance entries' standard errors are
exact first-order propagations of the independent readout errors; the
margin's is :func:`gaussep.core.margin_error` over the readouts.

Each network is a fixed list of readouts, each read at one setting (the
phases of its shifters); the references and the transforms of every
distinct setting are built once per network, and each setting is
propagated once per state.  Each readout is a quadratic form in the
output quadratures, or the product of two (:mod:`gaussep.moments`); the
sampled backend draws Wigner samples of the output state, averages the
same forms per shot, and adds the commutator constants that make the
estimates unbiased.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    GaussianState,
    SeparabilityReport,
    _UPPER,
    _symmetric,
    criterion_of_estimate,
    margin_error,
    margin_of,
    partial_trace,
    require_two_modes,
    require_valid,
    tensor_product,
)
from .exceptions import ConditioningError, InvalidStateError
from .moments import cross_phase, measure, photon_number_difference, product
from .sampling import MomentEstimate
from .states import (
    ReferenceMoments,
    ReferenceStateParams,
    displaced_squeezed_thermal,
    reference_moments,
    vacuum,
)
from .transforms import _propagated, beam_splitter_50_50, embed, phase_shifter

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


def _behind_shifter(params: ReferenceStateParams, phi: float) -> tuple[np.ndarray, np.ndarray]:
    """Means and raw second-moment matrix of a reference's (q, p) after a
    phase shifter phi."""
    ref = reference_moments(params)
    c, s = math.cos(phi), math.sin(phi)
    rot = np.array([[c, -s], [s, c]])
    raw = np.array([[ref.q2, ref.sigma], [ref.sigma, ref.p2]])
    return rot @ [ref.q_mean, ref.p_mean], rot @ raw @ rot.T


@functools.lru_cache(maxsize=256)
def _readouts(network) -> tuple[tuple[str, tuple, tuple], ...]:
    """(observable, phases, setting) of every readout of ``network``, in
    readout order; a setting is the phases of the network's phase shifters."""
    if isinstance(network, SingleModeNetwork):
        s1 = [("S1", (phi,), (phi,)) for phi in network.s1_phases]
        return tuple(s1 + [("S1sq", (phi,), (phi,)) for phi in network.s1sq_phases])
    if isinstance(network, TwoModeNetwork):
        first = (network.phi1, network.phi2_values[0])
        # S1 (x) S1 carries the cross moments with coefficient K/2,
        # K = <q_c^phi1><p_d^phi2> - <p_c^phi1><q_d^phi2>; S3 replaces it when K vanishes
        mean_c, _ = _behind_shifter(network.ref_c, network.phi1)
        mean_d, _ = _behind_shifter(network.ref_d, network.phi2_values[0])
        coupled = abs(mean_c @ _J2 @ mean_d) > _FALLBACK_TOL
        return (
            ("S1sq_c", (network.phi1,), first),
            *(("S1sq_d", (phi2,), (network.phi1, phi2)) for phi2 in network.phi2_values),
            ("S1xS1" if coupled else "S3", first, first),
        )
    raise InvalidStateError(f"unknown network type {type(network).__name__}")


def expect_stokes(network, state: GaussianState) -> list[StokesReadout]:
    """Exact readout expectations: the network's design applied to the
    signal's means and raw second moments."""
    require_valid(state)
    if isinstance(network, SingleModeNetwork) and state.n_modes == 1:
        # the design reads only the signal mode's columns; vacuum fills the other
        pair = [vacuum(1), vacuum(1)]
        pair[network.mode] = state
        state = tensor_product(*pair)
    design, offset = network_design(network)
    values = design @ moment_vector(state) + offset
    return [
        StokesReadout(name, phases, MomentEstimate(value=float(value), std_error=0.0, n_shots=0))
        for (name, phases, _), value in zip(_readouts(network), values)
    ]


# ---------------------------------------------------------------------------
# network propagation: the joint output state and the quadratic-form
# product for each readout; exact oracle and engine of the sampled backend.
# The reference state and each setting's steps are built once per network;
# per state, each setting propagates arrays through its steps into one state.
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=256)
def _settings(network) -> tuple[GaussianState, tuple[tuple[tuple, tuple], ...]]:
    """The reference state and (setting, network steps) of each distinct
    setting; shared by every caller, so immutable."""
    readouts = _readouts(network)
    if isinstance(network, SingleModeNetwork):
        reference = displaced_squeezed_thermal(network.reference)
        return reference, tuple({
            (phi,): (embed(phase_shifter(phi), 2, [1]), beam_splitter_50_50())
            for _, _, (phi,) in readouts
        }.items())
    refs = (network.ref_c, network.ref_d)
    reference = tensor_product(*(displaced_squeezed_thermal(ref) for ref in refs))
    # beam splitter 1 on the signal modes, the phase shifters on references c
    # and d, then arm b- meets c (outputs a3 = mode 0, a4 = mode 2) and arm
    # b+ meets d (outputs a5 = mode 1, a6 = mode 3)
    return reference, tuple({
        (phi1, phi2): (
            embed(beam_splitter_50_50(), 4, [0, 1]),
            embed(phase_shifter(phi1), 4, [2]),
            embed(phase_shifter(phi2), 4, [3]),
            embed(beam_splitter_50_50(), 4, [0, 2]),
            embed(beam_splitter_50_50(), 4, [1, 3]),
        )
        for _, _, (phi1, phi2) in readouts
    }.items())


def _outputs(network, state: GaussianState) -> list[GaussianState]:
    """The output state of every readout, in readout order; readouts that
    share a setting share the object."""
    readouts = _readouts(network)
    if isinstance(network, TwoModeNetwork):
        require_two_modes(state)
    elif state.n_modes > 1:
        state = partial_trace(state, [network.mode])
    reference, settings = _settings(network)
    joint = tensor_product(state, reference)
    outputs = {setting: GaussianState(*_propagated(joint, steps)) for setting, steps in settings}
    return [outputs[setting] for _, _, setting in readouts]


_S1_SINGLE = photon_number_difference(1, 0)
_S1_ARM_C = photon_number_difference(2, 0)
_S1_ARM_D = photon_number_difference(3, 1)
# S3 = i(a6^dag a3 - a3^dag a6); a3 is output mode 0, a6 is output mode 3
_S3 = cross_phase(3, 0)

# every readout is one quadratic factor or the operator product of two
_PRODUCTS = {
    "S1": product(_S1_SINGLE),
    "S1sq": product(_S1_SINGLE, _S1_SINGLE),
    "S1sq_c": product(_S1_ARM_C, _S1_ARM_C),
    "S1sq_d": product(_S1_ARM_D, _S1_ARM_D),
    "S1xS1": product(_S1_ARM_C, _S1_ARM_D),
    "S3": product(_S3),
}


def _measured(state: GaussianState, keyed_networks, n_shots: int | None = None,
              seed: int = 0) -> list[StokesReadout]:
    """Every readout of each ``(network, key)`` through one :func:`measure`
    call; readout ``index`` of a network draws on ``(seed, *key, index)``."""
    require_valid(state)
    readouts, jobs = [], []
    for network, key in keyed_networks:
        programs = enumerate(zip(_readouts(network), _outputs(network, state)))
        jobs += [(_PRODUCTS[name], out, (*key, index)) for index, ((name, _, _), out) in programs]
        readouts += _readouts(network)
    estimates = zip(readouts, measure(jobs, n_shots, seed))
    return [StokesReadout(name, phases, est) for (name, phases, _), est in estimates]


def propagated_expectations(network, state: GaussianState) -> list[StokesReadout]:
    """Operator expectations computed on the network-propagated joint state.

    Independent of :func:`expect_stokes`; the two must agree exactly.
    """
    return _measured(state, [(network, ())])


def sample_stokes(network, state: GaussianState, n_shots: int, seed: int,
                  *key: int) -> list[StokesReadout]:
    """Monte Carlo readouts: Wigner-sampled per-shot averages plus the
    commutator constants that make them unbiased operator estimates.
    Readout ``index`` draws on the substream ``(seed, *key, index)``."""
    return _measured(state, [(network, key)], n_shots, seed)


# ---------------------------------------------------------------------------
# the affine design: readouts = design @ theta + offset
# ---------------------------------------------------------------------------

# theta holds the means (q1, p1, q2, p2), then the raw second moments
# <{x_i, x_j}>/2 for i <= j in row-major order
_COL = {(int(i), int(j)): 4 + k for k, (i, j) in enumerate(zip(*_UPPER))}


def _moments(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Means and covariance matrix of theta; leading axes of a stack of
    theta vectors are kept."""
    means = theta[..., :4]
    return means, _symmetric(theta[..., 4:]) - means[..., :, None] * means[..., None, :]


def moment_vector(state: GaussianState) -> np.ndarray:
    """theta of a two-mode state: its means and raw second moments."""
    require_two_modes(state)
    raw = state.cov + np.outer(state.means, state.means)
    return np.concatenate([state.means, raw[_UPPER]])


# the signal quadratures read by each readout, as rows over (q1, p1, q2, p2):
# a signal mode, or a beam-splitter arm (a1 +- a2)/sqrt(2)
_MODES = (np.eye(4)[:2], np.eye(4)[2:])
_ARM_MINUS = (_MODES[0] - _MODES[1]) / math.sqrt(2)
_ARM_PLUS = (_MODES[0] + _MODES[1]) / math.sqrt(2)
# u @ _J2 @ v = u_q v_p - u_p v_q
_J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
_NO_MEANS = np.zeros(4)
_NO_RAW = np.zeros((4, 4))


def _row(means: np.ndarray = _NO_MEANS, raw: np.ndarray = _NO_RAW) -> np.ndarray:
    """theta coefficients of means @ <x> + sum_ij raw[i, j] <{x_i, x_j}>/2."""
    both = raw + raw.T
    return np.concatenate([means, np.where(_UPPER[0] == _UPPER[1], 0.5, 1.0) * both[_UPPER]])


def _design_row(network, name: str, setting: tuple) -> tuple[np.ndarray, float]:
    """(theta coefficients, offset) of one readout.  S1 and S1^2 pair the
    signal side's quadratures with the reference's moments behind its
    shifter; -1/2 is the commutator constant of S1^2."""
    if isinstance(network, SingleModeNetwork):
        signal = _MODES[network.mode]
        mean, raw = _behind_shifter(network.reference, *setting)
        if name == "S1":
            return _row(means=mean @ signal), 0.0
        return _row(raw=signal.T @ raw @ signal), -0.5
    (mean_c, raw_c), (mean_d, raw_d) = (
        _behind_shifter(ref, phi) for ref, phi in zip((network.ref_c, network.ref_d), setting)
    )
    if name == "S1sq_c":
        return _row(raw=_ARM_MINUS.T @ raw_c @ _ARM_MINUS), -0.5
    if name == "S1sq_d":
        return _row(raw=_ARM_PLUS.T @ raw_d @ _ARM_PLUS), -0.5
    if name == "S1xS1":
        return _row(raw=np.outer(mean_c @ _ARM_MINUS, mean_d @ _ARM_PLUS)), 0.0
    # S3 = <(q_- - q_c)(p_+ + p_d) - (p_- - p_c)(q_+ + q_d)>/2 on the arms and
    # the references behind their shifters
    means = (_J2 @ mean_d) @ _ARM_MINUS + (_J2 @ mean_c) @ _ARM_PLUS
    return 0.5 * _row(means, _ARM_MINUS.T @ _J2 @ _ARM_PLUS), 0.5 * (mean_d @ _J2 @ mean_c)


@functools.lru_cache(maxsize=256)
def network_design(network) -> tuple[np.ndarray, np.ndarray]:
    """(design, offset): the readouts of ``network``, in :func:`expect_stokes`
    order, are exactly ``design @ theta + offset`` for the signal's theta."""
    rows = [_design_row(network, name, setting) for name, _, setting in _readouts(network)]
    design = np.array([row for row, _ in rows])
    offset = np.array([const for _, const in rows])
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
def _config_solver(config: StokesConfig) -> tuple[np.ndarray, np.ndarray]:
    """(solver, offset) with theta = solver @ (readouts - offset).

    The 14 rows are block triangular in (means, single-mode second
    moments, cross moments); each diagonal block is checked before the
    system is inverted.
    """
    networks = config.networks()
    designs = [network_design(net) for net in networks]
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
    _require_sigma_free(reference_moments(config.ref_c), "c")
    _require_sigma_free(reference_moments(config.ref_d), "d")
    coupling = _readouts(networks[2])[-1][0]
    _require_regular(
        design[10:, [_COL[0, 2], _COL[1, 3], _COL[0, 3], _COL[1, 2]]],
        "the C-block system is singular (det = {det:.3e}) for the S1sq_c, "
        f"S1sq_d and {coupling} equations; references c "
        "and d have proportional second moments or degenerate phase "
        "settings; change theta or d of one reference, or use distinct phi2 values",
    )
    solver = np.linalg.inv(design)
    for array in (solver, offset):
        array.setflags(write=False)
    return solver, offset


def reconstruct(values, errors, config: StokesConfig | None = None):
    """Means, covariance matrix, its per-entry standard errors and the
    margin standard error from the 14 readouts of ``config.networks()``.

    Readouts are independent: each entry's error is the root sum of
    squares of one exact first-order term per readout, and the margin's
    is :func:`gaussep.core.margin_error` over the readouts.
    """
    solver, offset = _config_solver(config or StokesConfig())
    values, errors = np.asarray(values, dtype=float), np.asarray(errors, dtype=float)
    means, gamma = _moments(solver @ (values - offset))
    # change of theta, then of gamma, per one standard error of each readout
    d_theta = (solver * errors).T
    d_means = d_theta[:, :4]
    d_gamma = (_symmetric(d_theta[:, 4:]) - d_means[:, :, None] * means
               - means[:, None] * d_means[:, None, :])
    gamma_se = np.sqrt(np.sum(d_gamma**2, axis=0))
    margin_se = margin_error(lambda readouts: margin_of(_moments((readouts - offset) @ solver.T)[1]),
                             values, errors)
    return means, gamma, gamma_se, margin_se


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
        return {**self.report.to_dict(), "gamma_hat": self.gamma_hat.tolist(),
                "means_hat": self.means_hat.tolist(), "gamma_std_errors": self.gamma_se.tolist(),
                "margin_std_error": self.margin_std_error,
                "projection_epsilon": self.projection_epsilon,
                "full_state_tomography": self.full_state_tomography}


def full_pipeline(state: GaussianState, config: StokesConfig | None = None,
                  n_shots: int | None = None, seed: int = 0) -> StokesPipelineResult:
    """Reconstruct the covariance matrix and decide separability.

    Analytic backend when ``n_shots`` is None, otherwise every readout is
    estimated from ``n_shots`` Wigner samples on its own deterministic
    substream.  Standard errors are propagated through the reconstruction
    (:func:`reconstruct`).
    """
    require_two_modes(state)
    config = config or StokesConfig()
    if n_shots is None:
        readouts = [r for network in config.networks() for r in expect_stokes(network, state)]
    else:
        # one measure call for all three networks keeps every CPU busy;
        # network ``scope`` draws readout ``index`` on (seed, scope, index)
        readouts = _measured(state, [(network, (scope,)) for scope, network
                                     in enumerate(config.networks())], n_shots, seed)
    means, gamma, gamma_se, margin_se = reconstruct(
        [r.value.value for r in readouts], [r.value.std_error for r in readouts], config
    )
    report, eps = criterion_of_estimate(means, gamma)
    return StokesPipelineResult(gamma_hat=gamma, means_hat=means, gamma_se=gamma_se,
                                report=report, margin_std_error=margin_se,
                                projection_epsilon=eps, readouts=tuple(readouts))
