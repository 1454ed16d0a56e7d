"""Local-measurement reconstruction of a two-mode covariance matrix.

Five observables suffice because their outcomes are reused: a joint record
of (q1, q2) gives both single-mode squares and the product q1 q2, and
likewise for the other pairs.  The groups are

    A: q1 (x) q2          -> <q1>, <q2>, <q1^2>, <q2^2>, <q1 q2>
    B: p1 (x) p2          -> p analogues
    C: {q1,p1}/2 (x) {q2,p2}/2 -> the two single-mode symmetrized terms
    D: q1 (x) p2          -> <q1 p2>
    E: p1 (x) q2          -> <p1 q2>

Two shot layouts are implemented.  Plan variant ``scheme_i`` measures each
group on its own N copies.  Variant ``scheme_ii`` spends 4N copies on a
uniformly random quadrature pair per shot (2 classical bits per shot to
reconcile the choices, plus 1 group-label bit) and N copies on the
symmetrized group.

Group C outcomes are simulated as per-shot Wigner products q*p, which is
unbiased for <{q, p}>/2 although it is not the true outcome law of that
observable; the schemes only consume expectation values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    GaussianState,
    SeparabilityReport,
    margin_gradient,
    project_to_valid,
    require_two_modes,
    require_valid,
    simon_criterion,
)
from .exceptions import InsufficientShotsError, InvalidStateError
from .sampling import covariance_and_se, derive_rng, mean_and_se, sample_wigner

GROUP_LABELS = ("A", "B", "C", "D", "E")

# quadrature column pairs measured by groups A, B, D, E (mode-1 col, mode-2 col)
_PAIR_COLUMNS = {"A": (0, 2), "B": (1, 3), "D": (0, 3), "E": (1, 2)}

MIN_SHOTS = 100


@dataclass(frozen=True)
class FiveGroupPlan:
    """Shot layout for the five-observable scheme."""

    shots_per_group: int
    variant: str = "scheme_i"

    def __post_init__(self):
        if self.variant not in ("scheme_i", "scheme_ii"):
            raise InvalidStateError(f"unknown variant {self.variant!r}")
        if self.shots_per_group < MIN_SHOTS:
            raise InsufficientShotsError(
                f"need at least {MIN_SHOTS} shots per group, got {self.shots_per_group}"
            )

    @property
    def total_shots(self) -> int:
        return 5 * self.shots_per_group

    @property
    def classical_bits(self) -> int:
        # scheme I pre-agrees the schedule; scheme II needs both parties'
        # per-shot quadrature choices (2 bits) plus the group-label bit
        if self.variant == "scheme_i":
            return 0
        return 2 * 4 * self.shots_per_group + 1


@dataclass(frozen=True)
class CovarianceEstimate:
    """Reconstructed covariance matrix with per-entry standard errors."""

    gamma_hat: np.ndarray
    means_hat: np.ndarray
    gamma_se: np.ndarray
    means_se: np.ndarray
    plan: FiveGroupPlan

    def to_dict(self) -> dict:
        return {
            "gamma_hat": self.gamma_hat.tolist(),
            "means_hat": self.means_hat.tolist(),
            "gamma_std_errors": self.gamma_se.tolist(),
            "means_std_errors": self.means_se.tolist(),
            "shots_per_group": self.plan.shots_per_group,
            "variant": self.plan.variant,
            "classical_bits": self.plan.classical_bits,
        }


def _set_sym(mat, se, i, j, est):
    mat[i, j] = mat[j, i] = est.value
    se[i, j] = se[j, i] = est.std_error


def _scheme_i(state, plan, seed):
    gamma = np.full((4, 4), np.nan)
    gamma_se = np.full((4, 4), np.nan)
    means = np.full(4, np.nan)
    means_se = np.full(4, np.nan)
    n = plan.shots_per_group
    for gi, label in enumerate(GROUP_LABELS):
        rows = sample_wigner(state, n, seed, gi).samples
        if label == "C":
            _set_sym(gamma, gamma_se, 0, 1, covariance_and_se(rows[:, 0], rows[:, 1]))
            _set_sym(gamma, gamma_se, 2, 3, covariance_and_se(rows[:, 2], rows[:, 3]))
            continue
        i, j = _PAIR_COLUMNS[label]
        x, y = rows[:, i], rows[:, j]
        _set_sym(gamma, gamma_se, i, j, covariance_and_se(x, y))
        if label in ("A", "B"):
            # diagonal entries and the means come from the same records
            _set_sym(gamma, gamma_se, i, i, covariance_and_se(x, x))
            _set_sym(gamma, gamma_se, j, j, covariance_and_se(y, y))
            for col, v in ((i, x), (j, y)):
                est = mean_and_se(v)
                means[col] = est.value
                means_se[col] = est.std_error
    return gamma, means, gamma_se, means_se


def _scheme_ii(state, plan, seed):
    gamma = np.full((4, 4), np.nan)
    gamma_se = np.full((4, 4), np.nan)
    means = np.full(4, np.nan)
    means_se = np.full(4, np.nan)
    n = plan.shots_per_group
    rows = sample_wigner(state, 4 * n, seed, 0).samples
    choice_rng = derive_rng(seed, 100)
    alice_q = choice_rng.random(4 * n) < 0.5  # True: q1, False: p1
    bob_q = choice_rng.random(4 * n) < 0.5
    masks = {
        "A": alice_q & bob_q,
        "B": ~alice_q & ~bob_q,
        "D": alice_q & ~bob_q,
        "E": ~alice_q & bob_q,
    }
    if min(int(m.sum()) for m in masks.values()) < MIN_SHOTS:
        raise InsufficientShotsError("a random pair received too few shots")
    for label, (i, j) in _PAIR_COLUMNS.items():
        sub = rows[masks[label]]
        _set_sym(gamma, gamma_se, i, j, covariance_and_se(sub[:, i], sub[:, j]))
    # each party sees its own quadrature on every shot where it chose it
    for col, mask in ((0, alice_q), (1, ~alice_q), (2, bob_q), (3, ~bob_q)):
        v = rows[mask][:, col]
        _set_sym(gamma, gamma_se, col, col, covariance_and_se(v, v))
        est = mean_and_se(v)
        means[col] = est.value
        means_se[col] = est.std_error
    sym_rows = sample_wigner(state, n, seed, 1).samples
    _set_sym(gamma, gamma_se, 0, 1, covariance_and_se(sym_rows[:, 0], sym_rows[:, 1]))
    _set_sym(gamma, gamma_se, 2, 3, covariance_and_se(sym_rows[:, 2], sym_rows[:, 3]))
    return gamma, means, gamma_se, means_se


def run_scheme(state: GaussianState, plan: FiveGroupPlan, seed: int) -> CovarianceEstimate:
    """Simulate the chosen plan and reconstruct means and covariance."""
    require_two_modes(state)
    require_valid(state)
    runner = _scheme_i if plan.variant == "scheme_i" else _scheme_ii
    gamma, means, gamma_se, means_se = runner(state, plan, seed)
    if np.any(np.isnan(gamma)) or np.any(np.isnan(means)):
        raise RuntimeError("covariance reconstruction left unset entries")
    return CovarianceEstimate(
        gamma_hat=gamma, means_hat=means, gamma_se=gamma_se, means_se=means_se, plan=plan
    )


@dataclass(frozen=True)
class EstimatedVerdict:
    """Simon-criterion verdict computed from a noisy covariance estimate."""

    report: SeparabilityReport
    margin_std_error: float
    gamma_raw: np.ndarray
    gamma_projected: np.ndarray
    projection_epsilon: float

    def to_dict(self) -> dict:
        out = self.report.to_dict()
        out["margin_std_error"] = self.margin_std_error
        out["projection_epsilon"] = self.projection_epsilon
        return out


def margin_std_error(gamma: np.ndarray, gamma_se: np.ndarray) -> float:
    """First-order error of the criterion margin from per-entry errors.

    Upper-triangle entries are treated as independent estimates, each
    perturbed symmetrically, so an off-diagonal entry's gradient is the sum
    over its two mirrored positions.  Entries whose error is zero or NaN
    are skipped.
    """
    grad = margin_gradient(gamma)
    grad = np.triu(grad + grad.T) - np.diag(np.diag(grad))
    se = np.triu(np.where(np.isnan(gamma_se), 0.0, gamma_se))
    return float(np.sqrt(np.sum((grad * se) ** 2)))


def verdict_from_estimate(estimate: CovarianceEstimate) -> EstimatedVerdict:
    """Project the estimate to a valid covariance matrix and apply the
    Simon criterion; the raw matrix and the propagated margin error are
    kept alongside the verdict."""
    raw = GaussianState(means=estimate.means_hat, cov=estimate.gamma_hat)
    projected, eps = project_to_valid(raw)
    report = simon_criterion(projected)
    return EstimatedVerdict(
        report=report,
        margin_std_error=margin_std_error(estimate.gamma_hat, estimate.gamma_se),
        gamma_raw=estimate.gamma_hat,
        gamma_projected=projected.cov,
        projection_epsilon=eps,
    )
