import math

import numpy as np
import pytest

from gaussep import (
    AmbiguousRootError,
    ConditioningError,
    GaussianState,
    InsufficientShotsError,
    OpaParams,
    SimonTypeMismatchError,
    Verdict,
    assemble_verdict,
    method1_c,
    method2_det_c,
    method3_c,
    partial_trace,
    purity,
    random_state,
    run_two_copy,
    simon_criterion,
    simon_form,
    swap_test,
    tensor_product,
    thermal,
    two_mode_squeezed_vacuum,
    vacuum,
)
from gaussep.twocopy import rotated_marginal


class TestSwapTest:
    def test_pure_state_all_plus(self):
        result = swap_test(two_mode_squeezed_vacuum(0.5), 10000, seed=0)
        assert result.p_plus == 1.0
        assert result.purity_hat == 1.0
        assert result.det_hat == pytest.approx(1.0 / 16.0, abs=1e-12)

    def test_tmsv_marginal(self):
        marginal = partial_trace(two_mode_squeezed_vacuum(0.5), [0])
        assert purity(marginal) == pytest.approx(1.0 / math.cosh(1.0), rel=1e-12)
        result = swap_test(marginal, 400000, seed=1)
        target = math.cosh(1.0) ** 2 / 4.0
        assert abs(result.det_hat - target) < 5 * result.det_se

    def test_thermal_determinant(self):
        result = swap_test(thermal(1.0), 400000, seed=2)
        assert abs(result.det_hat - 2.25) < 5 * result.det_se

    def test_unbiased_over_seeds(self):
        state = thermal(0.8)
        mu = purity(state)
        estimates = [swap_test(state, 2000, seed=s).purity_hat for s in range(200)]
        se = np.std(estimates, ddof=1) / math.sqrt(len(estimates))
        assert abs(np.mean(estimates) - mu) < 3 * se

    def test_reproducible(self):
        a = swap_test(thermal(0.5), 5000, seed=3)
        b = swap_test(thermal(0.5), 5000, seed=3)
        assert a.p_plus == b.p_plus

    def test_insufficient_shots_flagged(self):
        # purity 1/21 -> p(+1) ~ 0.52; a one-shot run can land at -1
        state = thermal(10.0)
        with pytest.raises(InsufficientShotsError):
            for seed in range(200):
                swap_test(state, 1, seed=seed)


class TestMethod1:
    def test_tmsv(self):
        state = two_mode_squeezed_vacuum(0.5)
        est = method1_c(state, 400000, seed=4)
        s = math.sinh(1.0) / 2.0
        target = np.diag([s, -s])
        for i in range(2):
            for j in range(2):
                assert abs(est.c_hat[i, j] - target[i, j]) < 5 * est.c_se[i, j]
        assert est.det_c < 0

    def test_product_state_zero(self):
        state = tensor_product(thermal(0.5), thermal(1.0))
        est = method1_c(state, 200000, seed=5)
        for i in range(2):
            for j in range(2):
                assert abs(est.c_hat[i, j]) < 5 * est.c_se[i, j]

    def test_too_few_shots(self):
        with pytest.raises(InsufficientShotsError):
            method1_c(vacuum(2), 200, seed=6)


class TestMethod2:
    def test_tmsv_exact_inputs(self):
        state = two_mode_squeezed_vacuum(0.5)
        det_rot = float(np.linalg.det(rotated_marginal(state).cov))
        lam = math.cosh(1.0) / 2.0
        result = method2_det_c(lam * lam, lam * lam, 1.0 / 16.0, det_rot)
        assert result.det_c == pytest.approx(-math.sinh(1.0) ** 2 / 4.0, abs=1e-9)

    def test_vacuum(self):
        result = method2_det_c(0.25, 0.25, 1.0 / 16.0, 0.25)
        assert result.det_c == pytest.approx(0.0, abs=1e-12)

    def test_worked_example_via_psd_fallback(self):
        # these block values violate the uncertainty bound as a quantum
        # state, but the determinant algebra still has a unique positive
        # semidefinite solution with det C = s t = 0.03
        lam, mu, s, t = 0.8, 0.6, 0.3, 0.1
        det_g = (lam * mu - s * s) * (lam * mu - t * t)
        det_rot = ((lam + mu + 2 * s) * (lam + mu + 2 * t)) / 4.0
        result = method2_det_c(lam * lam, mu * mu, det_g, det_rot)
        assert result.det_c == pytest.approx(0.03, abs=1e-10)
        assert (result.s, result.t) == (
            pytest.approx(0.3, abs=1e-9),
            pytest.approx(0.1, abs=1e-9),
        )

    def test_simon_states_recovered_uniquely(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 200:
            lam, mu = rng.uniform(0.5, 3, 2)
            s, t = rng.uniform(-1.5, 1.5, 2)
            try:
                state = simon_form(lam, mu, s, t)
            except Exception:
                continue
            det_rot = float(
                np.linalg.det(rotated_marginal(state).cov)
            )
            result = method2_det_c(
                lam * lam, mu * mu, float(np.linalg.det(state.cov)), det_rot
            )
            assert result.det_c == pytest.approx(s * t, abs=1e-9)
            checked += 1

    def test_non_simon_state_flags_mismatch(self):
        rng = np.random.default_rng(5)
        state = None
        for _ in range(7):
            state = random_state(rng)
        det_a = float(np.linalg.det(state.cov[:2, :2]))
        det_b = float(np.linalg.det(state.cov[2:, 2:]))
        det_g = float(np.linalg.det(state.cov))
        det_rot = float(np.linalg.det(rotated_marginal(state).cov))
        with pytest.raises(SimonTypeMismatchError):
            method2_det_c(det_a, det_b, det_g, det_rot)

    # simon_form(1.5, 1.1, 0.4, 0.2) is covered by the calibration test below
    @pytest.mark.parametrize("lam, mu, s, t", [(1.0, 0.8, 0.3, 0.2), (2.0, 1.5, 0.8, 0.6)])
    def test_same_sign_simon_states_resolve(self, lam, mu, s, t):
        # s close to t puts the discriminant (s - t)^2 within noise of zero
        state = simon_form(lam, mu, s, t)
        for seed in range(100):
            run_two_copy(state, "method2", 20000, seed)

    def test_ambiguity_flagged_not_chosen(self):
        lam, mu, s, t = 0.8, 0.6, 0.3, 0.1
        det_g = (lam * mu - s * s) * (lam * mu - t * t)
        det_rot = ((lam + mu + 2 * s) * (lam + mu + 2 * t)) / 4.0
        # input errors this large let both roots pass as physical
        with pytest.raises(AmbiguousRootError):
            method2_det_c(lam * lam, mu * mu, det_g, det_rot, input_se=(math.inf,) * 4)


_M2_STATES = {
    "tmsv": two_mode_squeezed_vacuum(0.5),
    "simon-a": simon_form(1.2, 0.9, 0.5, -0.3),
    "simon-b": simon_form(2.0, 1.5, 0.8, -0.6),
}


def _method2_inputs(state, n_shots, seed):
    """(det A, det B, det gamma, det rot), exact if ``n_shots`` is None, else
    from swap tests, with the root solve's keywords as run_two_copy sets them."""
    parts = (partial_trace(state, [0]), partial_trace(state, [1]), state, rotated_marginal(state))
    if n_shots is None:
        return [float(np.linalg.det(part.cov)) for part in parts], {}
    tests = [swap_test(part, n_shots, seed, i) for i, part in enumerate(parts)]
    return [t.det_hat for t in tests], {"tol": 1e-6, "input_se": [t.det_se for t in tests]}


@pytest.mark.parametrize("name", sorted(_M2_STATES))
@pytest.mark.parametrize("n_shots, seed", [(None, 0), (20000, 3), (20000, 8)])
def test_method2_gradient_matches_central_difference(name, n_shots, seed):
    inputs, kwargs = _method2_inputs(_M2_STATES[name], n_shots, seed)
    central = []
    for i, x in enumerate(inputs):
        step = 1e-6 * abs(x)
        up, down = list(inputs), list(inputs)
        up[i] += step
        down[i] -= step
        central.append((method2_det_c(*up, **kwargs).det_c
                        - method2_det_c(*down, **kwargs).det_c) / (2.0 * step))
    gradient = method2_det_c(*inputs, **kwargs).gradient
    assert np.max(np.abs(gradient - central)) <= 1e-7 * np.max(np.abs(central))


@pytest.mark.parametrize(
    "state",
    [two_mode_squeezed_vacuum(0.5), simon_form(1.2, 0.9, 0.5, -0.3), simon_form(1.5, 1.1, 0.4, 0.2)],
    ids=["tmsv", "simon-opposite-signs", "simon-same-signs"],
)
def test_method2_margin_error_calibrated(state):
    # z = (margin - truth) / SE over independent seeds has mean 0 and std 1
    truth = simon_criterion(state).margin
    z = []
    for seed in range(300):
        result = run_two_copy(state, "method2", 20000, seed)
        z.append((result.margin - truth) / result.margin_std_error)
    assert abs(np.mean(z)) < 0.15
    assert 0.85 <= np.std(z, ddof=1) <= 1.15


class TestMethod3:
    def test_degenerate_gains_rejected(self):
        with pytest.raises(ConditioningError, match="g1 != g2"):
            OpaParams(g1=0.3, phi1=0.1, g2=0.3, phi2=0.1)

    def test_zero_gain_constants(self):
        # at zero gain the first observable pair reads the two cross-moment
        # combinations off directly (no solve needed)
        from gaussep.twocopy import opa_solver_constants

        k = opa_solver_constants(0.0, 0.0, 0.0, 0.0)
        assert (k["m1"], k["n1"], k["m2"], k["n2"]) == (0.0, -1.0, 1.0, 0.0)
        from gaussep import opa, vacuum, apply_transform

        out = apply_transform(vacuum(2), opa(0.0, 1.3))
        assert np.allclose(out.cov, vacuum(2).cov)

    def test_tmsv_analytic_exact(self):
        state = two_mode_squeezed_vacuum(0.5)
        est = method3_c(state, OpaParams(g1=0.3, phi1=0.0, g2=0.2, phi2=math.pi / 3))
        s = math.sinh(1.0) / 2.0
        assert np.allclose(est.c_hat, np.diag([s, -s]), atol=1e-9)

    def test_random_zero_mean_states_analytic(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            state = random_state(rng)
            params = OpaParams(
                g1=rng.uniform(0.2, 0.6),
                phi1=rng.uniform(0, 2 * math.pi),
                g2=rng.uniform(0.7, 1.0),
                phi2=rng.uniform(0, 2 * math.pi),
            )
            est = method3_c(state, params)
            assert np.allclose(est.c_hat, state.cov[:2, 2:], atol=1e-9)

    def test_nonzero_means_displaced_first(self):
        rng = np.random.default_rng(9)
        base = random_state(rng)
        state = GaussianState(means=[0.5, -0.3, 0.8, 0.1], cov=base.cov)
        est = method3_c(state)  # analytic: displacement uses exact means
        assert np.allclose(est.c_hat, state.cov[:2, 2:], atol=1e-9)

    def test_sampled_within_five_sigma(self):
        state = two_mode_squeezed_vacuum(0.5)
        est = method3_c(state, n_shots=100000, seed=10)
        s = math.sinh(1.0) / 2.0
        target = np.diag([s, -s])
        for i in range(2):
            for j in range(2):
                assert abs(est.c_hat[i, j] - target[i, j]) < 5 * est.c_se[i, j]

    def test_sampled_reproducible(self):
        state = two_mode_squeezed_vacuum(0.3)
        a = method3_c(state, n_shots=5000, seed=11)
        b = method3_c(state, n_shots=5000, seed=11)
        assert np.array_equal(a.c_hat, b.c_hat)

    def test_sampled_nonzero_means_prestep(self):
        # the displacement pre-step spends four extra mean readouts, so the
        # shot accounting doubles; the residual displacement bias stays far
        # below the statistical error at this budget
        base = random_state(9)
        state = GaussianState(means=[0.5, -0.3, 0.8, 0.1], cov=base.cov)
        est = method3_c(state, n_shots=100000, seed=3)
        assert est.n_shots == 8 * 100000
        err = np.abs(est.c_hat - state.cov[:2, 2:])
        assert (err < 6 * np.maximum(est.c_se, 1e-4)).all()


class TestAssembleVerdict:
    def test_exact_tmsv(self):
        state = two_mode_squeezed_vacuum(0.5)
        r = simon_criterion(state)
        result = assemble_verdict(r.det_a, r.det_b, r.det_c, r.det_gamma)
        assert result.verdict is Verdict.ENTANGLED
        assert result.xi_min == pytest.approx(math.exp(-1.0) / 2.0, abs=1e-12)

    def test_exact_vacuum_boundary(self):
        result = assemble_verdict(0.25, 0.25, 0.0, 1.0 / 16.0)
        assert result.margin == pytest.approx(0.0, abs=1e-14)
        assert result.verdict is Verdict.BOUNDARY

    def test_exact_thermal_product(self):
        result = assemble_verdict(2.25, 2.25, 0.0, 2.25**2)
        assert result.verdict is Verdict.SEPARABLE

    def test_agreement_with_criterion_on_random_states(self):
        for seed in range(1000):
            state = random_state(seed)
            r = simon_criterion(state)
            result = assemble_verdict(r.det_a, r.det_b, r.det_c, r.det_gamma)
            if abs(r.margin) < 1e-9:
                continue
            assert result.verdict is r.verdict, seed

    def test_inconsistent_estimates_flagged(self):
        # delta^2 < 4 det cannot come from a real covariance matrix
        result = assemble_verdict(0.1, 0.1, 0.0, 10.0)
        assert not result.estimates_consistent
        assert result.xi_min is None

    def test_margin_error_propagation(self):
        # independent errors of det A, det B, det C and det gamma enter the
        # margin with slopes 1, 1, -2 and -4; det C = c00 c11 - c01 c10 is
        # bilinear in independent entries, so its variance to second order
        # is exact: Var(x y) = y^2 s_x^2 + x^2 s_y^2 + s_x^2 s_y^2
        state = two_mode_squeezed_vacuum(0.5)
        result = run_two_copy(state, "method1", 20000, seed=16)
        c_est = method1_c(state, 20000, 17)
        assert result.det_c == c_est.det_c
        swaps = [swap_test(partial_trace(state, [0]), 20000, 16, 0),
                 swap_test(partial_trace(state, [1]), 20000, 16, 1), swap_test(state, 20000, 16, 2)]
        c, se = c_est.c_hat, c_est.c_se
        det_c_var = sum((c[j, l] * se[i, k]) ** 2 + (c[i, k] * se[j, l]) ** 2
                        + (se[i, k] * se[j, l]) ** 2 for (i, k), (j, l) in
                        [((0, 0), (1, 1)), ((0, 1), (1, 0))])
        expected = math.hypot(swaps[0].det_se, swaps[1].det_se, 2 * math.sqrt(det_c_var),
                              4 * swaps[2].det_se)
        assert result.margin_std_error == pytest.approx(expected, rel=1e-12)

    def test_method2_margin_error_is_linear_in_swap_tests(self):
        # method 2's det C enters linearised through its gradient over the
        # four swap tests, so the margin error is first order only
        state = simon_form(1.2, 0.9, 0.5, -0.3)
        result = run_two_copy(state, "method2", 20000, seed=18)
        swaps = [swap_test(partial_trace(state, [0]), 20000, 18, 0),
                 swap_test(partial_trace(state, [1]), 20000, 18, 1), swap_test(state, 20000, 18, 2),
                 swap_test(rotated_marginal(state), 20000, 18, 3)]
        se = np.array([swap.det_se for swap in swaps])
        solved = method2_det_c(*(swap.det_hat for swap in swaps), tol=1e-6, input_se=se)
        assert result.det_c == solved.det_c
        slopes = np.array([1.0, 1.0, -4.0, 0.0]) - 2.0 * solved.gradient
        assert result.margin_std_error == pytest.approx(np.linalg.norm(slopes * se), rel=1e-12)

    def test_margin_error_passed_through(self):
        result = assemble_verdict(0.25, 0.25, 0.0, 1.0 / 16.0, margin_std_error=0.03)
        assert result.margin_std_error == 0.03

    def test_measurement_accounting(self):
        result = assemble_verdict(0.25, 0.25, 0.0, 1 / 16, method="method3")
        assert result.measurement_settings["swap_tests"] == 3
        assert result.measurement_settings["det_c_settings"] == 4
        assert result.measurement_settings["tomography_settings"] == 5


class TestEndToEnd:
    @pytest.mark.parametrize("method", ["method1", "method3"])
    def test_tmsv_detected(self, method):
        state = two_mode_squeezed_vacuum(0.5)
        result = run_two_copy(state, method, 100000, seed=12)
        assert result.verdict is Verdict.ENTANGLED
        truth = simon_criterion(state).margin
        assert abs(result.margin - truth) < 5 * result.margin_std_error

    def test_method2_on_simon_type_state(self):
        state = two_mode_squeezed_vacuum(0.4)
        result = run_two_copy(state, "method2", 400000, seed=13)
        assert result.verdict is Verdict.ENTANGLED
        truth = simon_criterion(state).margin
        assert abs(result.margin - truth) < 5 * result.margin_std_error

    def test_thermal_product_separable(self):
        state = tensor_product(thermal(1.0), thermal(1.0))
        result = run_two_copy(state, "method1", 100000, seed=14)
        assert result.verdict is Verdict.SEPARABLE

    def test_reproducible(self):
        state = two_mode_squeezed_vacuum(0.3)
        a = run_two_copy(state, "method3", 20000, seed=15)
        b = run_two_copy(state, "method3", 20000, seed=15)
        assert a.to_dict() == b.to_dict()
