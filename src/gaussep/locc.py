"""Local-measurement reconstruction of a two-mode covariance matrix.

Five observables suffice because their outcomes are reused: a joint record
of (q1, q2) gives both single-mode squares and the product q1 q2, and
likewise for the other pairs.  The groups are

    A: q1 (x) q2          -> <q1>, <q2>, <q1^2>, <q2^2>, <q1 q2>
    B: p1 (x) p2          -> p analogues
    C: {q1,p1}/2 (x) {q2,p2}/2 -> the two single-mode symmetrized terms
    D: q1 (x) p2          -> <q1 p2>
    E: p1 (x) q2          -> <p1 q2>

:data:`LAYOUTS` holds the shot layouts as data, each a tuple of shot
groups with the keys of their substreams under the call's seed:

    scheme_i   A to E, N shots each; rows on keys 0 to 4
    scheme_ii  A, B, D, E as uniformly random quadrature pairs on 4N shots,
               q/p choices on key 100 and rows on key 0 (2 classical bits
               per shot plus 1 group-label bit); C on N shots, rows on key 1
    method1    the random pairs alone on N shots (two-copy method 1, under
               run_two_copy's seed + 1): choices on key 1, rows on key 0

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

_COLUMNS = ("q1", "p1", "q2", "p2")

# per shot group: (rows key, q/p choices key or None, shot multiple, entries read)
LAYOUTS = {
    "scheme_i": (
        (0, None, 1, ((0, 2), (0, 0), (2, 2))),  # A: q1 (x) q2
        (1, None, 1, ((1, 3), (1, 1), (3, 3))),  # B: p1 (x) p2
        (2, None, 1, ((0, 1), (2, 3))),          # C: {q1,p1}/2 (x) {q2,p2}/2
        (3, None, 1, ((0, 3),)),                 # D: q1 (x) p2
        (4, None, 1, ((1, 2),)),                 # E: p1 (x) q2
    ),
    "scheme_ii": (
        (0, 100, 4, ((0, 2), (0, 3), (1, 2), (1, 3), (0, 0), (1, 1), (2, 2), (3, 3))),
        (1, None, 1, ((0, 1), (2, 3))),          # C
    ),
    "method1": ((0, 1, 1, ((0, 2), (0, 3), (1, 2), (1, 3))),),
}

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


def _choose(rng, uniform, choices):
    """``choices``, each party's row filled with ``uniform`` draws < 1/2."""
    for party in choices:
        rng.random(out=uniform)
        np.less(uniform, 0.5, out=party)
    return choices


def _estimate(reads, choices, rows):
    """Entry (i, j) of gamma, for each pair of ``reads``, from a shot
    group's ``rows``: the covariance of columns i and j over the shots that
    measured both (every shot when ``choices`` is None), with the column's
    mean when i == j.  Each subset's indices are taken when it is read."""
    if choices is not None:
        # the shots that measured q1, p1, q2 and p2
        sides = (choices[0], ~choices[0], choices[1], ~choices[1])
    found = {}
    for i, j in reads:
        if choices is None:
            x, y = rows[:, i], rows[:, j]
        else:
            # gather by index: faster than a boolean mask, with the same values
            shots = np.flatnonzero(sides[i] if i == j else sides[i] & sides[j])
            if shots.size < MIN_SHOTS:
                raise InsufficientShotsError(
                    f"the random quadrature pair ({_COLUMNS[i]}, {_COLUMNS[j]}) received "
                    f"{shots.size} of {rows.shape[0]} shots, fewer than {MIN_SHOTS}; "
                    "increase shots"
                )
            # gather each subset's columns directly rather than copying its whole rows
            x = rows[shots, i]
            y = x if i == j else rows[shots, j]
            del shots  # as large as a column: freed before the statistics, for peak memory
        found[i, j] = covariance_and_se(x, y), mean_and_se(x) if i == j else None
    return found


def _drawn(state: GaussianState, layout: str, n_shots: int, seed: int) -> dict:
    """The one runner of the local layouts: every shot group of
    ``LAYOUTS[layout]`` at ``n_shots`` per plan count, drawn as jobs of
    :func:`_in_order` (choices before rows), and the (covariance, mean or
    None) estimates that :func:`_estimate` reads from them, by gamma entry."""

    def jobs():
        # lazily, so that a group's arrays live only from its draw to its statistics
        for rows_key, choice_key, multiple, reads in LAYOUTS[layout]:
            shots, choices = multiple * n_shots, None
            if choice_key is not None:
                choices = np.empty((2, shots), dtype=bool)
                # the rows job reads the filled choices; this job adds no entry
                yield ((lambda filled: {}), _choose, derive_rng(seed, choice_key),
                       _empty(shots), choices)
            yield (functools.partial(_estimate, reads, choices), _draw, state,
                   derive_rng(seed, rows_key), _empty(shots, state.means.size))

    estimates = {}
    for found in _in_order(jobs(), n_shots):
        estimates.update(found)
    return estimates


def _assembled(estimates: dict) -> tuple[np.ndarray, np.ndarray]:
    """gamma and its standard errors from :func:`_drawn`'s estimates,
    symmetric; an entry no group reads is nan."""
    gamma, gamma_se = np.full((4, 4), np.nan), np.full((4, 4), np.nan)
    for (i, j), (cov, _) in estimates.items():
        gamma[i, j] = gamma[j, i] = cov.value
        gamma_se[i, j] = gamma_se[j, i] = cov.std_error
    return gamma, gamma_se


def run_scheme(state: GaussianState, plan: FiveGroupPlan, seed: int) -> CovarianceEstimate:
    """Simulate the chosen plan and reconstruct means and covariance."""
    require_two_modes(state)
    require_valid(state)
    estimates = _drawn(state, plan.variant, plan.shots_per_group, seed)
    gamma, gamma_se = _assembled(estimates)
    means = [estimates[c, c][1] for c in range(4)]
    return CovarianceEstimate(
        gamma_hat=gamma, means_hat=np.array([m.value for m in means]),
        gamma_se=gamma_se, means_se=np.array([m.std_error for m in means]), plan=plan,
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
