import math

import numpy as np
import pytest

from gaussep import GaussianState, thermal, two_mode_squeezed_vacuum, vacuum
from gaussep.moments import (
    cross_intensity,
    cross_phase,
    evaluate_on_samples,
    expect_operator,
    expect_symmetrized,
    ordering_offset,
    photon_number_difference,
    poly_product,
    real_expect_operator,
)
from conftest import random_signal_state


def test_quadratic_moments():
    state = GaussianState(means=[0.5, -0.3], cov=np.array([[0.7, 0.1], [0.1, 0.9]]))
    assert real_expect_operator({(0, 0): 1.0}, state) == pytest.approx(0.7 + 0.25)
    # <qp> carries +i/2 on top of the symmetrized value
    qp = expect_operator({(0, 1): 1.0}, state)
    assert qp == pytest.approx((0.1 + 0.5 * (-0.3)) + 0.5j)
    pq = expect_operator({(1, 0): 1.0}, state)
    assert qp - pq == pytest.approx(1j)


def test_number_operator_expectation():
    # <n> = (<q^2> + <p^2> - 1)/2 via the difference against vacuum mode
    state = GaussianState(
        means=np.zeros(4),
        cov=np.block(
            [[1.5 * np.eye(2), np.zeros((2, 2))], [np.zeros((2, 2)), 0.5 * np.eye(2)]]
        ),
    )
    nd = photon_number_difference(0, 1)  # n(thermal) - n(vacuum)
    assert real_expect_operator(nd, state) == pytest.approx(1.0, abs=1e-12)


def test_quartic_against_isserlis_zero_mean():
    # symmetrized <q1^2 q2^2> on a zero-mean Gaussian follows Isserlis:
    # g11 g22 + 2 g12^2 with g the covariance entries of (q1, q2)
    state = two_mode_squeezed_vacuum(0.5)
    poly = {(0, 0, 2, 2): 1.0}
    g11 = state.cov[0, 0]
    g22 = state.cov[2, 2]
    g12 = state.cov[0, 2]
    assert expect_symmetrized(poly, state) == pytest.approx(
        g11 * g22 + 2 * g12**2, rel=1e-12
    )
    # q1 and q2 commute, so the operator value is identical
    assert real_expect_operator(poly, state) == pytest.approx(
        g11 * g22 + 2 * g12**2, rel=1e-12
    )


def test_intensity_square_commutator_constant():
    # <S1^2> - Wigner average of the same polynomial equals -1/2 for the
    # photon-number difference of two modes, on any state
    rng = np.random.default_rng(4)
    poly = poly_product(photon_number_difference(1, 0), photon_number_difference(1, 0))
    offset = ordering_offset(poly, 2)
    assert offset == pytest.approx(-0.5, abs=1e-12)
    for _ in range(25):
        state = random_signal_state(rng)
        diff = real_expect_operator(poly, state) - expect_symmetrized(poly, state)
        assert diff == pytest.approx(offset, abs=1e-9)


def test_cross_mode_polynomials_have_no_offset():
    rng = np.random.default_rng(5)
    for poly in (cross_intensity(0, 1), cross_phase(0, 1)):
        assert ordering_offset(poly, 2) == pytest.approx(0.0, abs=1e-12)
        for _ in range(10):
            state = random_signal_state(rng)
            diff = real_expect_operator(poly, state) - expect_symmetrized(poly, state)
            assert diff == pytest.approx(0.0, abs=1e-10)


def test_swap_test_on_vacuum_square():
    # <(n1 - n2)^2> on vacuum (x) vacuum vanishes although the Wigner
    # average of the squared polynomial is 1/2
    state = vacuum(2)
    poly = poly_product(photon_number_difference(1, 0), photon_number_difference(1, 0))
    assert real_expect_operator(poly, state) == pytest.approx(0.0, abs=1e-12)
    assert expect_symmetrized(poly, state) == pytest.approx(0.5, abs=1e-12)


def test_evaluate_on_samples_matches_polynomial():
    rows = np.array([[1.0, 2.0, 3.0, 4.0], [0.5, -1.0, 2.0, 0.0]])
    poly = {(0, 2): 2.0, (1,): -1.0, (3, 3): 0.5}
    vals = evaluate_on_samples(poly, rows)
    expected = 2.0 * rows[:, 0] * rows[:, 2] - rows[:, 1] + 0.5 * rows[:, 3] ** 2
    assert np.allclose(vals, expected)


def test_sampled_average_converges_to_symmetrized():
    from gaussep import sample_wigner

    state = two_mode_squeezed_vacuum(0.4)
    poly = poly_product(photon_number_difference(1, 0), photon_number_difference(1, 0))
    samples = sample_wigner(state, 200000, 11)
    vals = evaluate_on_samples(poly, samples)
    target = expect_symmetrized(poly, state)
    se = np.std(vals, ddof=1) / math.sqrt(len(vals))
    assert abs(np.mean(vals) - target) < 5 * se
