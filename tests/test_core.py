import math

import numpy as np
import pytest

from gaussep import (
    GaussianState,
    InvalidCovarianceError,
    InvalidStateError,
    UnsupportedModeCountError,
    Verdict,
    block_decomposition,
    min_symplectic_eigenvalue,
    symplectic_eigenvalues,
    partial_trace,
    partial_transpose,
    project_to_valid,
    purity,
    random_state,
    simon_criterion,
    symplectic_form,
    tensor_product,
    thermal,
    two_mode_squeezed_vacuum,
    vacuum,
    validate,
    wigner_pdf,
)
from gaussep.core import block_determinants, margin_error, margin_of
from conftest import random_local_symplectic


class TestSymplecticForm:
    def test_invariants(self):
        for n in (1, 2, 3):
            J = symplectic_form(n)
            assert np.allclose(J @ J, -np.eye(2 * n))
            assert np.allclose(J.T, -J)


class TestValidity:
    def test_vacuum_saturates_bound(self):
        assert validate(vacuum(2))
        # saturation: the minimum eigenvalue of cov + iJ/2 is exactly 0
        J = symplectic_form(2)
        eigs = np.linalg.eigvalsh(vacuum(2).cov + 0.5j * J)
        assert abs(eigs[0]) < 1e-14

    def test_sub_vacuum_invalid(self):
        state = GaussianState(means=np.zeros(4), cov=0.1 * np.eye(4))
        assert not validate(state)

    def test_tmsv_valid_against_eigensolve(self, tmsv_half):
        assert validate(tmsv_half)
        J = symplectic_form(2)
        eigs = np.linalg.eigvalsh(tmsv_half.cov + 0.5j * J)
        assert eigs[0] >= -1e-10

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidStateError):
            GaussianState(means=np.zeros(3), cov=np.eye(3))
        with pytest.raises(InvalidStateError):
            GaussianState(means=np.zeros(4), cov=np.eye(2))

    def test_asymmetric_cov_rejected(self):
        cov = np.eye(4)
        cov[0, 1] = 1e-6
        with pytest.raises(InvalidStateError):
            GaussianState(means=np.zeros(4), cov=cov)


class TestPartialTranspose:
    def test_vacuum_invariant(self):
        v = vacuum(2)
        assert np.allclose(partial_transpose(v).cov, v.cov)

    def test_tmsv_c_block_sign(self, tmsv_half):
        s = math.sinh(1.0) / 2.0
        pt = partial_transpose(tmsv_half)
        assert np.allclose(pt.cov[:2, 2:], np.diag([s, s]), atol=1e-12)

    def test_entry_14_sign_rule(self):
        state = random_state(7)
        assert partial_transpose(state).cov[0, 3] == pytest.approx(-state.cov[0, 3])

    def test_means_flip(self):
        state = GaussianState(means=[1.0, 2.0, 3.0, 4.0], cov=np.eye(4))
        assert np.allclose(partial_transpose(state).means, [1, 2, 3, -4])

    def test_single_mode_unsupported(self):
        with pytest.raises(UnsupportedModeCountError):
            partial_transpose(vacuum(1))


class TestSymplecticEigenvalues:
    def test_vacuum(self):
        assert min_symplectic_eigenvalue(vacuum(2)) == pytest.approx(0.5, abs=1e-12)

    def test_pt_tmsv_analytic(self, tmsv_half):
        xi = min_symplectic_eigenvalue(partial_transpose(tmsv_half))
        assert xi == pytest.approx(math.exp(-1.0) / 2.0, abs=1e-12)

    def test_thermal_product(self):
        state = tensor_product(thermal(1.0), thermal(1.0))
        assert min_symplectic_eigenvalue(state) == pytest.approx(1.5, abs=1e-12)

    def test_formula_matches_spectral_oracle(self):
        J = symplectic_form(2)
        for seed in range(300):
            state = partial_transpose(random_state(seed))
            oracle = np.min(np.abs(np.linalg.eigvals(1j * J @ state.cov)))
            xi = min_symplectic_eigenvalue(state)
            assert abs(xi - oracle) <= 1e-8 * oracle

    def test_pure_tmsv_at_strong_squeezing(self):
        # det(gamma) and the terms of delta grow like e^{8r} and e^{4r} while
        # delta stays 1/2, so the discriminant's rounding grows with r
        for r in np.arange(0.0, 7.0 + 1e-9, 0.25):
            values = symplectic_eigenvalues(two_mode_squeezed_vacuum(r))
            assert max(abs(v - 0.5) for v in values) <= 2e-4, r

    def test_impossible_spectrum_rejected(self):
        # symmetric matrix whose delta^2 - 4 det is well below zero, so no
        # real symplectic spectrum exists
        cov = np.array(
            [
                [-0.159, -0.056, -0.522, 0.310],
                [-0.056, -0.130, 1.149, 0.590],
                [-0.522, 1.149, 1.346, 1.120],
                [0.310, 0.590, 1.120, 1.960],
            ]
        )
        with pytest.raises(InvalidCovarianceError):
            min_symplectic_eigenvalue(GaussianState(means=np.zeros(4), cov=cov))


class TestSimonCriterion:
    def test_vacuum_boundary(self):
        report = simon_criterion(vacuum(2))
        assert report.delta - 4 * report.det_gamma == pytest.approx(0.25, abs=1e-14)
        assert report.verdict is Verdict.BOUNDARY
        assert report.log_negativity == pytest.approx(0.0, abs=1e-12)

    def test_tmsv_entangled(self, tmsv_half):
        report = simon_criterion(tmsv_half)
        # delta = cosh(2)/2 and 4 det = 1/4 for the pure two-mode squeezed state
        assert report.delta - 4 * report.det_gamma == pytest.approx(
            math.cosh(2.0) / 2.0 - 0.25, abs=1e-12
        )
        assert report.verdict is Verdict.ENTANGLED
        assert report.log_negativity == pytest.approx(1.0, abs=1e-9)

    def test_thermal_product_separable(self):
        report = simon_criterion(tensor_product(thermal(1.0), thermal(1.0)))
        assert report.delta - 4 * report.det_gamma == pytest.approx(-15.75, abs=1e-12)
        assert report.verdict is Verdict.SEPARABLE

    def test_agrees_with_ppt_oracle(self):
        # criterion vs positive semidefiniteness of pt(cov) + iJ/2
        J = symplectic_form(2)
        for seed in range(1000):
            state = random_state(seed)
            report = simon_criterion(state)
            if abs(report.margin) < 1e-9:
                continue
            pt = partial_transpose(state)
            ppt = np.linalg.eigvalsh(pt.cov + 0.5j * J)[0] >= -1e-10
            assert (report.verdict is Verdict.SEPARABLE) == ppt, seed

    def test_symmetric_under_transpose_mode_choice(self):
        for seed in range(50):
            state = random_state(seed)
            r1 = min_symplectic_eigenvalue(partial_transpose(state, mode=0))
            r2 = min_symplectic_eigenvalue(partial_transpose(state, mode=1))
            assert r1 == pytest.approx(r2, rel=1e-10)

    def test_block_determinant_paths_agree(self):
        # delta on original blocks equals Delta of the transposed matrix
        for seed in range(50):
            state = random_state(seed)
            report = simon_criterion(state)
            pt = block_decomposition(partial_transpose(state))
            delta_pt = (
                np.linalg.det(pt.a) + np.linalg.det(pt.b) + 2 * np.linalg.det(pt.c)
            )
            assert report.delta == pytest.approx(delta_pt, rel=1e-10)

    def test_local_symplectic_invariance(self):
        rng = np.random.default_rng(12)
        state = random_state(13)
        base = simon_criterion(state)
        for _ in range(20):
            S = random_local_symplectic(rng)
            moved = GaussianState(means=S @ state.means, cov=S @ state.cov @ S.T)
            rep = simon_criterion(moved)
            assert rep.det_a == pytest.approx(base.det_a, rel=1e-9, abs=1e-9)
            assert rep.det_b == pytest.approx(base.det_b, rel=1e-9, abs=1e-9)
            assert rep.det_c == pytest.approx(base.det_c, rel=1e-9, abs=1e-9)
            assert rep.det_gamma == pytest.approx(base.det_gamma, rel=1e-9, abs=1e-9)


class TestPurityWigner:
    def test_vacuum_pure(self):
        assert purity(vacuum(2)) == pytest.approx(1.0, abs=1e-12)

    def test_thermal_purity(self):
        assert purity(thermal(1.0)) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_tmsv_pure_any_r(self):
        for r in (0.1, 0.5, 1.3):
            assert purity(two_mode_squeezed_vacuum(r)) == pytest.approx(1.0, abs=1e-10)

    def test_wigner_vacuum_origin(self):
        assert wigner_pdf(vacuum(2), np.zeros(4)) == pytest.approx(
            1.0 / math.pi**2, rel=1e-12
        )

    def test_wigner_peak_value(self):
        state = random_state(5)
        peak = 1.0 / (4 * math.pi**2 * math.sqrt(np.linalg.det(state.cov)))
        assert wigner_pdf(state, state.means) == pytest.approx(peak, rel=1e-10)

    def test_wigner_integrates_to_one(self):
        state = GaussianState(means=[0.4, -0.2], cov=np.array([[0.8, 0.2], [0.2, 0.4]]))
        axis = np.linspace(-7, 7, 401)
        grid = np.array(
            [[wigner_pdf(state, np.array([q, p])) for p in axis] for q in axis]
        )
        integral = np.trapezoid(np.trapezoid(grid, axis, axis=1), axis)
        assert integral == pytest.approx(1.0, abs=1e-6)

    def test_wigner_even_around_mean(self):
        state = GaussianState(means=[0.3, -0.2, 1.0, 0.7], cov=vacuum(2).cov)
        v = np.array([0.2, 0.1, -0.4, 0.3])
        assert wigner_pdf(state, state.means + v) == pytest.approx(
            wigner_pdf(state, state.means - v), rel=1e-12
        )


class TestComposition:
    def test_tensor_then_trace_roundtrip(self):
        a = two_mode_squeezed_vacuum(0.3)
        b = thermal(0.7)
        joint = tensor_product(a, b)
        back = partial_trace(joint, [0, 1])
        assert np.array_equal(back.cov, a.cov)
        assert np.array_equal(back.means, a.means)
        only_b = partial_trace(joint, [2])
        assert np.array_equal(only_b.cov, b.cov)

    def test_project_to_valid_restores_bound(self):
        cov = vacuum(2).cov.copy()
        cov[0, 0] = 0.2  # dips below vacuum noise
        state = GaussianState(means=np.zeros(4), cov=cov)
        assert not validate(state)
        fixed, eps = project_to_valid(state)
        assert eps > 0
        assert validate(fixed)
        untouched, eps0 = project_to_valid(vacuum(2))
        assert eps0 == 0.0


def _cofactors(m):
    """Gradient of det m over its entries: det(m) inv(m)^T."""
    return np.linalg.det(m) * np.linalg.inv(m).T


def _margin_gradient(gamma):
    """Partial derivatives of margin_of over the 16 entries of gamma."""
    grad = -4.0 * _cofactors(gamma)
    grad[:2, :2] += _cofactors(gamma[:2, :2])
    grad[2:, 2:] += _cofactors(gamma[2:, 2:])
    grad[:2, 2:] -= 2.0 * _cofactors(gamma[:2, 2:])
    return grad


def _product(points):
    return points[:, 0] * points[:, 1]


class TestMarginError:
    def test_bilinear_margin_is_exact(self):
        # Var(x y) = y^2 s_x^2 + x^2 s_y^2 + s_x^2 s_y^2 for independent
        # normal x, y; the second-order term is exact for degree two
        for x, y, sx, sy in [(1.3, -0.7, 0.2, 0.05), (0.0, 0.0, 1.0, 2.0), (4.0, 3.0, 0.01, 0.5)]:
            expected = math.sqrt((y * sx) ** 2 + (x * sy) ** 2 + (sx * sy) ** 2)
            assert margin_error(_product, [x, y], [sx, sy]) == pytest.approx(expected, rel=1e-12)

    def test_first_order_part_is_gradient_times_errors(self):
        # at errors of 1e-5 the second-order term is negligible, so the
        # error of each entry alone is its analytic slope times its error
        rng = np.random.default_rng(900)
        h = 1e-5
        for _ in range(10):
            gamma = random_state(rng).cov + rng.normal(0.0, 0.1, size=(4, 4))
            grad = _margin_gradient(gamma)
            per_entry = [margin_error(lambda p: margin_of(p.reshape(-1, 4, 4)), gamma.ravel(),
                                      h * np.eye(16)[k]) / h for k in range(16)]
            scale = np.max(np.abs(grad))
            np.testing.assert_allclose(per_entry, np.abs(grad).ravel(), rtol=1e-7,
                                       atol=1e-7 * scale)
            se = rng.uniform(0.5, 2.0, size=16)
            total = margin_error(lambda p: margin_of(p.reshape(-1, 4, 4)), gamma.ravel(), h * se)
            assert total / h == pytest.approx(np.linalg.norm(grad.ravel() * se), rel=1e-7)

    def test_slopes_exact_for_a_cubic(self):
        # a central difference over +-1 SE alone would add s^3 to the slope
        # of x^3; the +-2 SE points cancel it
        for x, s in [(1.0, 0.5), (-0.7, 0.3), (2.0, 1.5)]:
            expected = math.hypot(3 * x * x * s, 6 * x * s * s / math.sqrt(2))
            got = margin_error(lambda p: p[:, 0] ** 3, [x], [s])
            assert got == pytest.approx(expected, rel=1e-12)

    def test_never_below_first_order(self):
        # the slopes are exact, so the second-order term can only widen
        rng = np.random.default_rng(901)
        for _ in range(10):
            gamma = random_state(rng).cov
            se = rng.uniform(0.01, 0.3, size=16)
            first = np.linalg.norm(_margin_gradient(gamma).ravel() * se)
            total = margin_error(lambda p: margin_of(p.reshape(-1, 4, 4)), gamma.ravel(), se)
            assert total >= first * (1.0 - 1e-12)

    def test_zero_and_nan_errors_dropped(self):
        stacks = []

        def margin(points):
            stacks.append(points)
            return _product(points) + points[:, 2] * points[:, 3]

        x = [1.3, -0.7, 2.0, 5.0]
        got = margin_error(margin, x, [0.2, 0.05, 0.0, np.nan])
        assert got == pytest.approx(margin_error(_product, x[:2], [0.2, 0.05]), rel=1e-12)
        # one call on x, x +- s_k e_k, x +- 2 s_k e_k and x +- (s_k e_k + s_l e_l)
        # of the two kept sources
        (points,) = stacks
        assert points.shape == (11, 4)
        assert np.all(points[:, 2:] == x[2:])

    def test_no_error_never_calls_margin(self):
        def margin(points):
            raise AssertionError("margin_of called without a source")

        assert margin_error(margin, [1.0, 2.0], [0.0, 0.0]) == 0.0
        assert margin_error(margin, [1.0, 2.0], [np.nan, 0.0]) == 0.0


def test_block_determinants_of_a_stack_match_each_matrix():
    rng = np.random.default_rng(902)
    stack = rng.normal(size=(5, 4, 4))
    dets = block_determinants(stack)
    for i, gamma in enumerate(stack):
        assert tuple(d[i] for d in dets) == block_determinants(gamma)
        assert margin_of(stack)[i] == margin_of(gamma)
