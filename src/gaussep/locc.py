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

The margin's error (:func:`gaussep.core.margin_error`) takes the 10
upper-triangle entries of the estimated covariance matrix as sources.
"""

from __future__ import annotations

import functools
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
    require_two_modes,
    require_valid,
)
from .exceptions import InsufficientShotsError, InvalidStateError
from .sampling import _draw, _empty, _in_order, covariance_and_se, derive_rng, mean_and_se

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


def random_pairs(state: GaussianState, n_shots: int, seed: int, choice_key: int):
    """Random local quadrature pairs on ``n_shots`` copies: the Wigner rows
    drawn on ``(seed, 0)``; per column, the shots whose party measured it,
    from each party's q or p choices drawn on ``(seed, choice_key)``; and
    per cross entry (i, j) of gamma the covariance from the shots that
    measured both i and j.  The two substreams are drawn concurrently."""
    return _in_order(_pair_jobs(state, n_shots, seed, choice_key), n_shots)[1]


def _pair_jobs(state, n_shots, seed, choice_key):
    """The jobs of :func:`random_pairs`, for :func:`_in_order`: the choices,
    then the rows, whose finishing step returns the result."""
    sides, picks = {}, {}

    def split(choices):
        alice_q, bob_q = choices
        sides.update({0: alice_q, 1: ~alice_q, 2: bob_q, 3: ~bob_q})
        # gather by index: faster than a boolean mask, with the same values
        picks.update({(i, j): np.flatnonzero(sides[i] & sides[j]) for i in (0, 1) for j in (2, 3)})

    def pairs_of(rows):
        if min(p.size for p in picks.values()) < MIN_SHOTS:
            raise InsufficientShotsError(
                f"a random quadrature pair received fewer than {MIN_SHOTS} of {n_shots} shots"
            )
        # gather each subset's columns directly rather than copying its whole rows
        pairs = {(i, j): covariance_and_se(rows[p, i], rows[p, j]) for (i, j), p in picks.items()}
        return rows, sides, pairs

    return [
        (split, _choose, derive_rng(seed, choice_key), _empty(n_shots),
         np.empty((2, n_shots), dtype=bool)),
        (pairs_of, _draw, state, derive_rng(seed, 0), _empty(n_shots, state.means.size)),
    ]


def _choose(rng, uniform, choices):
    """``choices``, each party's row filled with ``uniform`` draws < 1/2."""
    for party in choices:
        rng.random(out=uniform)
        np.less(uniform, 0.5, out=party)
    return choices


def _symmetrized(rows):
    """Group C: the two single-mode symmetrized terms."""
    return {(0, 1): covariance_and_se(rows[:, 0], rows[:, 1]),
            (2, 3): covariance_and_se(rows[:, 2], rows[:, 3])}


def _group(label, rows):
    """Group ``label``'s entries and means from its rows."""
    if label == "C":
        return _symmetrized(rows), {}
    i, j = _PAIR_COLUMNS[label]
    entries, means = {(i, j): covariance_and_se(rows[:, i], rows[:, j])}, {}
    if label in ("A", "B"):
        # diagonal entries and the means come from the same records
        for col in (i, j):
            entries[col, col] = covariance_and_se(rows[:, col], rows[:, col])
            means[col] = mean_and_se(rows[:, col])
    return entries, means


def _scheme_i(state, plan, seed):
    n = plan.shots_per_group
    # each group's rows are made when its draw is started and freed once
    # its statistics are taken, which bounds peak memory
    jobs = ((functools.partial(_group, label), _draw, state, derive_rng(seed, gi),
             _empty(n, state.means.size)) for gi, label in enumerate(GROUP_LABELS))
    entries, means = {}, {}
    for group_entries, group_means in _in_order(jobs, n):
        entries.update(group_entries)
        means.update(group_means)
    return entries, means


def _scheme_ii(state, plan, seed):
    n = plan.shots_per_group
    symmetrized = (_symmetrized, _draw, state, derive_rng(seed, 1), _empty(n, state.means.size))
    _, (rows, sides, entries), sym = _in_order([*_pair_jobs(state, 4 * n, seed, 100),
                                                symmetrized], n)
    means = {}
    # each party sees its own quadrature on every shot where it chose it
    for col, mask in sides.items():
        v = rows[np.flatnonzero(mask), col]
        entries[col, col] = covariance_and_se(v, v)
        means[col] = mean_and_se(v)
    entries.update(sym)
    return entries, means


def run_scheme(state: GaussianState, plan: FiveGroupPlan, seed: int) -> CovarianceEstimate:
    """Simulate the chosen plan and reconstruct means and covariance."""
    require_two_modes(state)
    require_valid(state)
    runner = _scheme_i if plan.variant == "scheme_i" else _scheme_ii
    entries, means = runner(state, plan, seed)
    gamma, gamma_se = np.empty((4, 4)), np.empty((4, 4))
    for (i, j), est in entries.items():
        gamma[i, j] = gamma[j, i] = est.value
        gamma_se[i, j] = gamma_se[j, i] = est.std_error
    return CovarianceEstimate(
        gamma_hat=gamma, means_hat=np.array([means[c].value for c in range(4)]),
        gamma_se=gamma_se, means_se=np.array([means[c].std_error for c in range(4)]), plan=plan,
    )


@dataclass(frozen=True)
class EstimatedVerdict:
    """Simon-criterion verdict computed from a noisy covariance estimate."""

    report: SeparabilityReport
    margin_std_error: float
    projection_epsilon: float

    def to_dict(self) -> dict:
        return {**self.report.to_dict(), "margin_std_error": self.margin_std_error,
                "projection_epsilon": self.projection_epsilon}


def verdict_from_estimate(estimate: CovarianceEstimate) -> EstimatedVerdict:
    """The Simon criterion of the estimate, with the margin error
    propagated from the raw matrix: its 10 upper-triangle entries are
    independent sources, each perturbed symmetrically."""
    report, eps = criterion_of_estimate(estimate.means_hat, estimate.gamma_hat)
    margin_se = margin_error(lambda upper: margin_of(_symmetric(upper)),
                             estimate.gamma_hat[_UPPER], estimate.gamma_se[_UPPER])
    return EstimatedVerdict(report=report, margin_std_error=margin_se, projection_epsilon=eps)
