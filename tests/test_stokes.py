import csv
import math

import numpy as np
import pytest

from gaussep import (
    ConditioningError,
    GaussianState,
    InvalidStateError,
    ReferenceStateParams,
    SingleModeNetwork,
    SymplecticTransform,
    TwoModeNetwork,
    Verdict,
    apply_transform,
    derive_rng,
    displacement,
    expect_stokes,
    full_pipeline,
    method3_c,
    propagated_expectations,
    random_state,
    reference_moments,
    sample_stokes,
    simon_criterion,
    thermal,
    tensor_product,
    two_mode_squeezed_vacuum,
    vacuum,
)
from gaussep.core import margin_of
from gaussep.stokes import (
    StokesConfig,
    _outputs,
    _readouts,
    moment_vector,
    network_design,
    reconstruct,
)
from conftest import random_signal_state


def random_reference(rng, biased=False):
    if not biased:
        return ReferenceStateParams(
            n_bar=rng.uniform(0, 1),
            d=rng.uniform(0.2, 2),
            beta=0.0,
            theta=rng.uniform(0, 0.8),
            gamma=0.0,
        )
    return ReferenceStateParams(
        n_bar=rng.uniform(0, 1),
        d=rng.uniform(0.2, 2),
        beta=rng.uniform(-math.pi, math.pi),
        theta=rng.uniform(0, 0.8),
        gamma=rng.uniform(-math.pi, math.pi),
    )


class TestAnalyticAgainstPropagated:
    """The closed-form readout expressions must match direct operator
    moments on the network-propagated joint state, readout by readout."""

    def test_single_mode_random_cases(self):
        rng = np.random.default_rng(100)
        for case in range(50):
            state = random_signal_state(rng)
            net = SingleModeNetwork(
                mode=int(rng.integers(0, 2)), reference=random_reference(rng, biased=True)
            )
            analytic = {(r.observable, r.phases): r.value.value for r in expect_stokes(net, state)}
            direct = {(r.observable, r.phases): r.value.value for r in propagated_expectations(net, state)}
            assert analytic.keys() == direct.keys()
            for key in analytic:
                assert analytic[key] == pytest.approx(direct[key], abs=1e-10), (case, key)

    def test_two_mode_random_cases(self):
        rng = np.random.default_rng(200)
        for case in range(50):
            state = random_signal_state(rng)
            net = TwoModeNetwork(
                ref_c=random_reference(rng, biased=True),
                ref_d=random_reference(rng, biased=True),
                phi1=rng.uniform(0, 2 * math.pi),
                phi2_values=(rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)),
            )
            analytic = {(r.observable, r.phases): r.value.value for r in expect_stokes(net, state)}
            direct = {(r.observable, r.phases): r.value.value for r in propagated_expectations(net, state)}
            assert analytic.keys() == direct.keys()
            for key in analytic:
                assert analytic[key] == pytest.approx(direct[key], abs=1e-10), (case, key)

    def test_vacuum_signal_zero_mean_reference(self):
        # zero-displacement reference gives <S1> = 0 for any phase
        net = SingleModeNetwork(reference=ReferenceStateParams(d=0.0, theta=0.3))
        for r in expect_stokes(net, vacuum(1)):
            if r.observable == "S1":
                assert r.value.value == pytest.approx(0.0, abs=1e-14)

    def test_pi_over_4_square_on_double_vacuum(self):
        # vacuum signal with a vacuum reference: <S1^2(pi/4)> = 0
        net = SingleModeNetwork(reference=ReferenceStateParams(d=0.0, theta=0.0))
        values = {r.phases: r.value.value for r in expect_stokes(net, vacuum(1)) if r.observable == "S1sq"}
        assert values[(math.pi / 4,)] == pytest.approx(0.0, abs=1e-14)


# beta = 0 on both references: the S1xS1 coupling vanishes with nonzero
# reference means, so S3 is read and its mean terms stay covered
_ZERO_COUPLING = StokesConfig(
    ref_c=ReferenceStateParams(d=1.0, theta=0.2),
    ref_d=ReferenceStateParams(d=1.5, theta=0.1),
)

_SHARED_SETTINGS = (
    *StokesConfig().networks(),
    # S1 and S1^2 read at disjoint phases: five settings, one per readout
    SingleModeNetwork(mode=1, s1_phases=(0.1, 1.3), s1sq_phases=(0.4, 2.0, 2.9)),
    # equal phi2 values: every readout shares one setting
    TwoModeNetwork(phi1=0.3, phi2_values=(0.7, 0.7)),
    _ZERO_COUPLING.networks()[2],
)


class TestNetworkSettings:
    """Each network's settings are built once; per state each distinct
    setting is propagated once."""

    @pytest.mark.parametrize("network", _SHARED_SETTINGS)
    def test_closed_forms_match_propagation(self, network):
        state = random_signal_state(np.random.default_rng(300))
        analytic = expect_stokes(network, state)
        direct = propagated_expectations(network, state)
        assert [(r.observable, r.phases) for r in analytic] == [
            (r.observable, r.phases) for r in direct
        ]
        for a, b in zip(analytic, direct):
            assert a.value.value == pytest.approx(b.value.value, abs=1e-10), a.observable

    @pytest.mark.parametrize("network", _SHARED_SETTINGS)
    def test_readouts_sharing_a_setting_share_the_output_state(self, network):
        state = random_signal_state(np.random.default_rng(301))
        readouts = list(zip(_readouts(network), _outputs(network, state)))
        for (_, _, setting_a), out_a in readouts:
            for (_, _, setting_b), out_b in readouts:
                assert (out_a is out_b) == (setting_a == setting_b)

    @pytest.mark.parametrize(
        "run",
        [propagated_expectations, lambda net, state: sample_stokes(net, state, 50, 3)],
        ids=["propagated", "sampled"],
    )
    @pytest.mark.parametrize("network", _SHARED_SETTINGS[2:])
    def test_second_call_builds_no_transform(self, monkeypatch, run, network):
        state = random_signal_state(np.random.default_rng(302))
        first = run(network, state)

        def rebuilt(self):
            raise AssertionError("a network transform was built again")

        monkeypatch.setattr(SymplecticTransform, "__post_init__", rebuilt)
        second = run(network, state)
        assert [r.value for r in second] == [r.value for r in first]

    @pytest.mark.parametrize("run, most", [
        (lambda state: full_pipeline(state, n_shots=2000, seed=3), 14),
        (lambda state: [propagated_expectations(net, state)
                        for net in StokesConfig().networks()], 13),
        (method3_c, 2),
    ], ids=["sampled-full_pipeline", "propagated_expectations", "analytic-method3_c"])
    def test_one_checked_state_per_setting(self, monkeypatch, run, most):
        """Between the elements of a network only arrays move: a call builds
        the signal's joint state and one checked output state per setting
        (sampled full_pipeline: 10 single-mode, 3 two-mode and an estimate
        that needs no projection; method 3: the two copies and their
        amplified state)."""
        state = random_signal_state(np.random.default_rng(304), with_means=False)
        run(state)  # builds and caches the networks' references and steps
        built = []
        check = GaussianState.__post_init__

        def counted(self):
            built.append(self)
            check(self)

        monkeypatch.setattr(GaussianState, "__post_init__", counted)
        run(state)
        assert len(built) <= most


class TestSampledBackend:
    def test_matches_analytic_within_five_sigma(self):
        rng = np.random.default_rng(300)
        for case in range(6):
            state = random_signal_state(rng)
            net = TwoModeNetwork()
            analytic = {(r.observable, r.phases): r.value.value for r in expect_stokes(net, state)}
            sampled = sample_stokes(net, state, 100000, seed=case)
            for r in sampled:
                target = analytic[(r.observable, r.phases)]
                assert abs(r.value.value - target) < 5 * r.value.std_error, (
                    case,
                    r.observable,
                )

    def test_single_mode_matches_analytic(self):
        rng = np.random.default_rng(301)
        for case in range(4):
            state = random_signal_state(rng)
            net = SingleModeNetwork(mode=0)
            analytic = {(r.observable, r.phases): r.value.value for r in expect_stokes(net, state)}
            for r in sample_stokes(net, state, 100000, seed=40 + case):
                target = analytic[(r.observable, r.phases)]
                assert abs(r.value.value - target) < 5 * r.value.std_error

    def test_reproducible(self):
        state = two_mode_squeezed_vacuum(0.5)
        net = TwoModeNetwork()
        a = sample_stokes(net, state, 2000, seed=7)
        b = sample_stokes(net, state, 2000, seed=7)
        assert [r.value.value for r in a] == [r.value.value for r in b]


class _Moments:
    """Uncentered first and second moments of one mode."""

    def __init__(self, state, mode):
        i, j = 2 * mode, 2 * mode + 1
        raw = state.cov + np.outer(state.means, state.means)
        self.q, self.p = state.means[i], state.means[j]
        self.q2, self.p2, self.sigma = raw[i, i], raw[j, j], raw[i, j]


def _mode_moments(result, mode):
    """Uncentered moments of one mode from a pipeline reconstruction."""
    return _Moments(GaussianState(means=result.means_hat, cov=result.gamma_hat), mode)


class TestSingleModeSolve:
    def test_vacuum_recovered_exactly(self):
        config = StokesConfig(ref_single=ReferenceStateParams(d=1.0, theta=0.3))
        m = _mode_moments(full_pipeline(vacuum(2), config), 0)
        assert (m.q, m.p) == (pytest.approx(0.0, abs=1e-12), pytest.approx(0.0, abs=1e-12))
        assert m.q2 == pytest.approx(0.5, abs=1e-12)
        assert m.p2 == pytest.approx(0.5, abs=1e-12)
        assert m.sigma == pytest.approx(0.0, abs=1e-12)

    def test_displaced_signal_mean_recovered(self):
        displaced = apply_transform(vacuum(1), displacement((1.0 / math.sqrt(2)) + 0.0j))
        state = tensor_product(displaced, vacuum(1))
        m = _mode_moments(full_pipeline(state, StokesConfig()), 0)
        assert m.q == pytest.approx(1.0, abs=1e-12)
        assert m.p == pytest.approx(0.0, abs=1e-12)

    def test_random_states_recovered_exactly(self):
        rng = np.random.default_rng(400)
        for _ in range(30):
            state = random_signal_state(rng)
            mode = int(rng.integers(0, 2))
            solved = _mode_moments(full_pipeline(state, StokesConfig()), mode)
            truth = _Moments(state, mode)
            for field in ("q", "p", "q2", "p2", "sigma"):
                assert getattr(solved, field) == pytest.approx(
                    getattr(truth, field), abs=1e-10
                )

    def test_sampled_solve_within_five_sigma(self):
        state = two_mode_squeezed_vacuum(0.5)
        result = full_pipeline(state, StokesConfig(), n_shots=100000, seed=11)
        solved = _mode_moments(result, 0)
        # generous bound: solver mixes readouts, each with its own error
        ses = [r.value.std_error for r in result.readouts[:5]]
        bound = 5 * max(ses) * 5
        assert abs(solved.q2 - state.cov[0, 0]) < bound

    def test_zero_displacement_reference_fails_mean_solve(self):
        config = StokesConfig(ref_single=ReferenceStateParams(d=0.0, theta=0.3))
        with pytest.raises(ConditioningError, match="d = 0|first moments"):
            full_pipeline(vacuum(2), config)

    def test_phase_symmetric_reference_fails_moment_solve(self):
        # sinh(2 theta) = 2 d^2 balances displacement against squeezing so
        # <q_r^2> = <p_r^2> while sigma stays zero and the means solve works
        theta = 0.5 * math.asinh(2.0)
        ref = ReferenceStateParams(d=1.0, beta=0.0, theta=theta, gamma=0.0)
        m = reference_moments(ref)
        assert m.q2 == pytest.approx(m.p2, abs=1e-12)
        with pytest.raises(ConditioningError, match="phase-symmetric"):
            full_pipeline(vacuum(2), StokesConfig(ref_single=ref))

    def test_biased_reference_solved_exactly(self):
        # each design row holds the reference's full raw moments, sigma
        # included, so biased references need no balanced-bias condition
        ref = ReferenceStateParams(n_bar=0.3, d=1.2, beta=0.4, theta=0.3, gamma=0.7)
        ref_d = ReferenceStateParams(n_bar=0.1, d=1.5, beta=1.2, theta=0.1, gamma=2.0)
        assert reference_moments(ref).sigma == pytest.approx(0.705, abs=1e-3)
        assert reference_moments(ref_d).sigma == pytest.approx(1.410, abs=1e-3)
        configs = [StokesConfig(ref_single=ref), StokesConfig(ref_c=ref),
                   StokesConfig(ref_single=ref, ref_c=ref, ref_d=ref_d)]
        rng = np.random.default_rng(402)
        for _ in range(10):
            state = random_signal_state(rng)
            for config in configs:
                for network in config.networks():
                    direct = [r.value.value for r in propagated_expectations(network, state)]
                    assert [r.value.value for r in expect_stokes(network, state)] == (
                        pytest.approx(direct, abs=1e-10))
                result = full_pipeline(state, config)
                assert np.max(np.abs(result.gamma_hat - state.cov)) < 1e-10
                assert np.max(np.abs(result.means_hat - state.means)) < 1e-10


class TestCBlockSolve:
    def _solve(self, state, net):
        config = StokesConfig(
            ref_c=net.ref_c, ref_d=net.ref_d, phi1=net.phi1, phi2_values=net.phi2_values
        )
        return full_pipeline(state, config).gamma_hat[:2, 2:]

    def test_tmsv_exact(self):
        state = two_mode_squeezed_vacuum(0.5)
        c_block = self._solve(state, TwoModeNetwork())
        s = math.sinh(1.0) / 2.0
        assert np.allclose(c_block, np.diag([s, -s]), atol=1e-10)

    def test_thermal_product_zero(self):
        state = tensor_product(thermal(0.7), thermal(0.2))
        c_block = self._solve(state, TwoModeNetwork())
        assert np.allclose(c_block, 0.0, atol=1e-12)

    def test_random_states_exact(self):
        rng = np.random.default_rng(500)
        for _ in range(30):
            state = random_signal_state(rng)
            c_block = self._solve(state, TwoModeNetwork())
            assert np.allclose(c_block, state.cov[:2, 2:], atol=1e-9)

    def test_zero_mean_references_fall_back_to_s3(self):
        # d = 0 for both references kills the S1xS1 coupling; the S3
        # equation must take over and still solve exactly
        net = TwoModeNetwork(
            ref_c=ReferenceStateParams(d=0.0, theta=0.2),
            ref_d=ReferenceStateParams(d=0.0, theta=0.4),
        )
        rng = np.random.default_rng(501)
        for _ in range(10):
            state = random_signal_state(rng)
            c_block = self._solve(state, net)
            assert np.allclose(c_block, state.cov[:2, 2:], atol=1e-9)

    def test_identical_references_singular(self):
        net = TwoModeNetwork(
            ref_c=ReferenceStateParams(d=1.0, theta=0.2),
            ref_d=ReferenceStateParams(d=1.0, theta=0.2),
        )
        with pytest.raises(ConditioningError, match="proportional|singular"):
            self._solve(two_mode_squeezed_vacuum(0.3), net)


class TestAffineDesign:
    def test_design_reproduces_closed_forms_and_propagation(self):
        rng = np.random.default_rng(700)
        for case in range(20):
            state = random_signal_state(rng)
            theta = moment_vector(state)
            networks = (
                SingleModeNetwork(mode=0, reference=random_reference(rng)),
                SingleModeNetwork(mode=1, reference=random_reference(rng)),
                TwoModeNetwork(
                    ref_c=random_reference(rng),
                    ref_d=random_reference(rng),
                    phi1=rng.uniform(0, 2 * math.pi),
                    phi2_values=(rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)),
                ),
            )
            for net in networks:
                design, offset = network_design(net)
                affine = design @ theta + offset
                closed = [r.value.value for r in expect_stokes(net, state)]
                propagated = [r.value.value for r in propagated_expectations(net, state)]
                np.testing.assert_allclose(affine, closed, rtol=1e-12, atol=1e-12,
                                           err_msg=str(case))
                np.testing.assert_allclose(affine, propagated, rtol=1e-8, atol=1e-8,
                                           err_msg=str(case))

    @pytest.mark.parametrize(
        "field, values",
        [("s1_phases", (0.0,)), ("s1sq_phases", (0.0, 1.0)), ("phi2_values", (0.0, 0.3, 0.7))],
    )
    def test_phase_counts_validated(self, field, values):
        with pytest.raises(InvalidStateError, match=field):
            StokesConfig(**{field: values})


class TestErrorPropagation:
    @staticmethod
    def _sampled(n_shots=2000, seed=5):
        result = full_pipeline(random_signal_state(np.random.default_rng(800)),
                               n_shots=n_shots, seed=seed)
        values = np.array([r.value.value for r in result.readouts])
        errors = np.array([r.value.std_error for r in result.readouts])
        return result, values, errors

    def test_margin_error_is_gradient_times_readout_errors(self):
        # at errors of 1e-4 of the sampled ones the second-order term is
        # negligible, and the margin error is its first-order propagation
        result, values, errors = self._sampled()
        terms = []
        for i, err in enumerate(errors):
            h = 1e-5 * max(1.0, abs(values[i]))
            up, down = values.copy(), values.copy()
            up[i] += h
            down[i] -= h
            slope = (margin_of(reconstruct(up, errors)[1])
                     - margin_of(reconstruct(down, errors)[1])) / (2 * h)
            terms.append(slope * err)
        expected = math.sqrt(sum(t * t for t in terms))
        assert 1e4 * reconstruct(values, 1e-4 * errors)[3] == pytest.approx(expected, rel=1e-6)
        assert result.margin_std_error >= expected

    @pytest.mark.parametrize("seed, index", [(3255849660, 20), (1019201470, 10),
                                             (3324371921, 20), (1346067635, 8)])
    def test_tail_draws_within_six_standard_errors(self, seed, index):
        # randtest draws at 1e3 shots whose margin lay 6 to 11 first-order
        # standard errors from the truth: the margin is far from linear in
        # the readouts there, and the second-order term covers it
        state = random_state(derive_rng(seed, index))
        result = full_pipeline(state, n_shots=1000, seed=seed + index)
        truth = simon_criterion(state).margin
        assert abs(result.report.margin - truth) <= 6 * result.margin_std_error

    def test_margin_error_smooth_in_readouts(self):
        result, values, errors = self._sampled()
        base = reconstruct(values, errors)[3]
        assert base == result.margin_std_error
        for i in range(len(values)):
            nudged = values.copy()
            nudged[i] *= 1.0 + 1e-15
            moved = reconstruct(nudged, errors)[3]
            assert abs(moved - base) < 1e-12 * base, i


class TestFullPipeline:
    def test_analytic_exact_on_random_states(self):
        rng = np.random.default_rng(600)
        for _ in range(25):
            state = random_signal_state(rng)
            result = full_pipeline(state)
            assert np.max(np.abs(result.gamma_hat - state.cov)) < 1e-9
            assert np.max(np.abs(result.means_hat - state.means)) < 1e-10
            assert result.full_state_tomography

    def test_vacuum_boundary(self):
        result = full_pipeline(vacuum(2))
        assert result.report.verdict is Verdict.BOUNDARY

    def test_tmsv_entangled_with_log_negativity(self):
        result = full_pipeline(two_mode_squeezed_vacuum(0.5))
        assert result.report.verdict is Verdict.ENTANGLED
        assert result.report.log_negativity == pytest.approx(1.0, abs=1e-8)

    def test_sampled_pipeline_tracks_truth(self):
        state = two_mode_squeezed_vacuum(0.5)
        result = full_pipeline(state, n_shots=100000, seed=3)
        assert result.report.verdict is Verdict.ENTANGLED
        for i in range(4):
            for j in range(4):
                err = abs(result.gamma_hat[i, j] - state.cov[i, j])
                assert err < 6 * max(result.gamma_se[i, j], 1e-9), (i, j)
        assert result.margin_std_error > 0

    @pytest.mark.parametrize(
        "config, coupling",
        [(StokesConfig(), "S1xS1"), (_ZERO_COUPLING, "S3")],
        ids=["default", "zero-coupling"],
    )
    def test_every_sampled_readout_is_solved(self, config, coupling):
        state = random_signal_state(np.random.default_rng(602))
        exact = full_pipeline(state, config)
        assert np.max(np.abs(exact.gamma_hat - state.cov)) < 1e-9
        result = full_pipeline(state, config, n_shots=200, seed=4)
        assert len(result.readouts) == 14
        assert [r.observable for r in result.readouts[10:]] == [
            "S1sq_c", "S1sq_d", "S1sq_d", coupling
        ]

    def test_sampled_reproducible(self):
        state = two_mode_squeezed_vacuum(0.2)
        a = full_pipeline(state, n_shots=3000, seed=8)
        b = full_pipeline(state, n_shots=3000, seed=8)
        assert np.array_equal(a.gamma_hat, b.gamma_hat)

    def test_separable_states_classified(self):
        rng = np.random.default_rng(601)
        hits = 0
        total = 12
        for _ in range(total):
            state = random_signal_state(rng, with_means=False, max_squeeze=0.0)
            result = full_pipeline(state, n_shots=100000, seed=int(rng.integers(1 << 30)))
            if result.report.verdict in (Verdict.SEPARABLE, Verdict.BOUNDARY):
                hits += 1
        assert hits >= total - 1


def test_readouts_csv_dump(tmp_path):
    readouts = expect_stokes(TwoModeNetwork(), two_mode_squeezed_vacuum(0.3))
    path = tmp_path / "readouts.csv"
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
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "observable,phases,value,std_error,n_shots"
    assert len(lines) == 1 + len(readouts)


def test_s3_zero_mean_reduces_to_cross_moment_difference():
    # with zero-mean signal and zero-mean references only the
    # (q1 p2 - p1 q2)/2 term of the anticoincidence observable survives
    from gaussep import random_state, ReferenceStateParams

    state = random_state(33)
    net = TwoModeNetwork(
        ref_c=ReferenceStateParams(d=0.0, theta=0.3),
        ref_d=ReferenceStateParams(d=0.0, theta=0.5),
        phi1=0.0,
        phi2_values=(0.0, math.pi / 4),
    )
    (value,) = [r.value.value for r in expect_stokes(net, state) if r.observable == "S3"]
    raw = state.cov + np.outer(state.means, state.means)
    assert value == pytest.approx(0.5 * (raw[0, 3] - raw[1, 2]), abs=1e-14)
