import numpy as np
import pytest

from gaussep import (
    FiveGroupPlan,
    InsufficientShotsError,
    Verdict,
    run_scheme,
    simon_criterion,
    tensor_product,
    thermal,
    two_mode_squeezed_vacuum,
    vacuum,
    verdict_from_estimate,
)
from gaussep.core import margin_of
from gaussep.locc import CovarianceEstimate


def test_plan_accounting():
    plan_i = FiveGroupPlan(shots_per_group=1000)
    assert plan_i.total_shots == 5000
    assert plan_i.classical_bits == 0
    plan_ii = FiveGroupPlan(shots_per_group=1000, variant="scheme_ii")
    # 2 bits per random-pair shot (4N of them) plus the group-label bit
    assert plan_ii.classical_bits == 8001


def test_too_few_shots_rejected():
    with pytest.raises(InsufficientShotsError):
        FiveGroupPlan(shots_per_group=10)


def test_every_entry_measured():
    est = run_scheme(vacuum(2), FiveGroupPlan(shots_per_group=200), seed=0)
    assert not np.any(np.isnan(est.gamma_hat))
    assert not np.any(np.isnan(est.means_hat))
    assert not np.any(np.isnan(est.gamma_se[np.triu_indices(4)]))


@pytest.mark.parametrize("variant", ["scheme_i", "scheme_ii"])
def test_vacuum_entries_within_five_sigma(variant):
    est = run_scheme(
        vacuum(2), FiveGroupPlan(shots_per_group=100000, variant=variant), seed=1
    )
    for i in range(4):
        for j in range(4):
            err = abs(est.gamma_hat[i, j] - vacuum(2).cov[i, j])
            assert err < 5 * max(est.gamma_se[i, j], 1e-12), (i, j)
    assert np.all(np.abs(est.means_hat) < 5 * est.means_se)


@pytest.mark.parametrize("variant", ["scheme_i", "scheme_ii"])
def test_tmsv_cross_entry(variant):
    state = two_mode_squeezed_vacuum(0.5)
    est = run_scheme(
        state, FiveGroupPlan(shots_per_group=100000, variant=variant), seed=2
    )
    assert abs(est.gamma_hat[0, 2] - 0.5876005968219007) < 5 * est.gamma_se[0, 2]
    for i in range(4):
        for j in range(4):
            err = abs(est.gamma_hat[i, j] - state.cov[i, j])
            assert err < 5 * max(est.gamma_se[i, j], 1e-12), (i, j)


def test_fixed_seed_reproducible():
    state = two_mode_squeezed_vacuum(0.3)
    plan = FiveGroupPlan(shots_per_group=5000)
    a = run_scheme(state, plan, seed=9)
    b = run_scheme(state, plan, seed=9)
    assert np.array_equal(a.gamma_hat, b.gamma_hat)


def test_schemes_agree_in_expectation():
    # per-entry difference of the two scheme means over seeds stays within
    # 3 combined standard errors of the seed-mean
    state = two_mode_squeezed_vacuum(0.4)
    n_seeds = 50
    g_i = np.zeros((n_seeds, 4, 4))
    g_ii = np.zeros((n_seeds, 4, 4))
    for s in range(n_seeds):
        g_i[s] = run_scheme(state, FiveGroupPlan(shots_per_group=2000), seed=s).gamma_hat
        g_ii[s] = run_scheme(
            state, FiveGroupPlan(shots_per_group=2000, variant="scheme_ii"), seed=1000 + s
        ).gamma_hat
    diff = g_i.mean(axis=0) - g_ii.mean(axis=0)
    se = np.sqrt(g_i.var(axis=0, ddof=1) / n_seeds + g_ii.var(axis=0, ddof=1) / n_seeds)
    assert np.all(np.abs(diff) < 3.0 * se)


def test_estimator_error_shrinks_with_n():
    state = two_mode_squeezed_vacuum(0.5)
    rms = []
    for n in (1000, 10000, 100000):
        errs = []
        for seed in range(4):
            est = run_scheme(state, FiveGroupPlan(shots_per_group=n), seed=seed)
            errs.append(np.sqrt(np.mean((est.gamma_hat - state.cov) ** 2)))
        rms.append(np.mean(errs))
    slope = np.polyfit(np.log([1000, 10000, 100000]), np.log(rms), 1)[0]
    assert -0.6 <= slope <= -0.4


def test_margin_error_perturbs_upper_entries_symmetrically():
    rng = np.random.default_rng(910)
    gamma = two_mode_squeezed_vacuum(0.4).cov + rng.normal(0.0, 0.05, size=(4, 4))
    gamma = (gamma + gamma.T) / 2
    se = rng.uniform(0.01, 0.1, size=(4, 4))
    se[0, 0] = 0.0
    se[1, 3] = np.nan
    h = 1e-5
    var = 0.0
    for i in range(4):
        for j in range(i, 4):
            if se[i, j] == 0.0 or np.isnan(se[i, j]):
                continue
            up, down = gamma.copy(), gamma.copy()
            up[i, j] += h
            up[j, i] = up[i, j]
            down[i, j] -= h
            down[j, i] = down[i, j]
            var += ((margin_of(up) - margin_of(down)) / (2 * h) * se[i, j]) ** 2
    # at errors of 1e-4 se the second-order term is negligible
    estimate = CovarianceEstimate(gamma_hat=gamma, means_hat=np.zeros(4), gamma_se=1e-4 * se,
                                  means_se=np.zeros(4), plan=FiveGroupPlan(shots_per_group=100))
    margin_se = verdict_from_estimate(estimate).margin_std_error
    assert 1e4 * margin_se == pytest.approx(np.sqrt(var), rel=1e-7)


class TestVerdict:
    def test_exact_tmsv_entangled(self):
        state = two_mode_squeezed_vacuum(0.5)
        est = run_scheme(state, FiveGroupPlan(shots_per_group=100000), seed=3)
        verdict = verdict_from_estimate(est)
        assert verdict.report.verdict is Verdict.ENTANGLED
        truth = simon_criterion(state)
        assert abs(verdict.report.margin - truth.margin) < 5 * verdict.margin_std_error

    def test_thermal_product_separable(self):
        state = tensor_product(thermal(1.0), thermal(1.0))
        est = run_scheme(state, FiveGroupPlan(shots_per_group=50000), seed=4)
        verdict = verdict_from_estimate(est)
        assert verdict.report.verdict is Verdict.SEPARABLE

    def test_noisy_vacuum_near_boundary(self):
        est = run_scheme(vacuum(2), FiveGroupPlan(shots_per_group=100000), seed=5)
        verdict = verdict_from_estimate(est)
        # margin is 0 for the vacuum; the estimate must sit within noise
        assert abs(verdict.report.margin) < 5 * verdict.margin_std_error
        assert verdict.margin_std_error > 0

    def test_projection_restores_validity(self):
        # small shot counts frequently produce unphysical estimates; the
        # verdict path must still succeed and record the repair
        for seed in range(5):
            est = run_scheme(vacuum(2), FiveGroupPlan(shots_per_group=150), seed=seed)
            verdict = verdict_from_estimate(est)
            assert verdict.projection_epsilon >= 0.0
