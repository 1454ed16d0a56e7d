"""Exact readout moments: the trace formulas of ``gaussep.moments`` against
the ordered Wick recursion of ``wick`` and against hand-worked values."""

import math

import numpy as np
import pytest

import wick
from gaussep import (
    GaussianState,
    apply_transform,
    beam_splitter_50_50,
    embed,
    phase_shifter,
    sample_wigner,
    tensor_product,
    two_mode_squeezed_vacuum,
    vacuum,
)
from gaussep.moments import (
    QuadForm,
    _per_shot_product,
    _shot_terms,
    _wigner_mean,
    cross_intensity,
    cross_phase,
    measure,
    photon_number_difference,
    product,
)
from conftest import random_signal_state


def exact(readout, state):
    return measure([(readout, state, ())])[0].value


def wigner_mean(readout, state):
    return _wigner_mean(readout[0], state.means, state.cov)


def random_four_mode_state(rng):
    """Two random displaced two-mode states, mixed by phase shifters and
    beam splitters so that all four modes are correlated."""
    state = tensor_product(random_signal_state(rng), random_signal_state(rng))
    for modes in ([0, 2], [1, 3], [0, 3]):
        shifter = embed(phase_shifter(rng.uniform(0.0, 2 * np.pi)), 4, modes[:1])
        state = apply_transform(state, shifter)
        state = apply_transform(state, embed(beam_splitter_50_50(), 4, modes))
    return state


def test_trace_formulas_match_wick_on_all_factor_pairs():
    rng = np.random.default_rng(21)
    factors = wick.package_factors()
    pairs = [((fa, pa), (fb, pb)) for _, fa, pa in factors for _, fb, pb in factors]
    assert len(pairs) == 64
    readouts = [product(fa, fb) for (fa, _), (fb, _) in pairs]
    polys = [wick.poly_product(pa, pb) for (_, pa), (_, pb) in pairs]
    for _ in range(50):
        state = random_four_mode_state(rng)
        for readout, poly in zip(readouts, polys):
            operator = wick.expect_operator(poly, state)
            assert exact(readout, state) == pytest.approx(operator.real, rel=1e-12)
            # the offset is the operator-minus-symmetrized difference
            difference = operator.real - wick.expect_symmetrized(poly, state)
            assert readout[1] == pytest.approx(difference, abs=1e-12 * max(1.0, abs(operator)))
        for _, factor, poly in factors:
            operator = wick.expect_operator(poly, state)
            assert exact(product(factor), state) == pytest.approx(operator.real, rel=1e-12)
            assert operator.imag == pytest.approx(0.0, abs=1e-12)


def test_quadratic_moments():
    state = GaussianState(means=[0.5, -0.3], cov=np.array([[0.7, 0.1], [0.1, 0.9]]))
    q_squared = product(QuadForm((0,), np.array([[1.0]])))
    assert exact(q_squared, state) == pytest.approx(0.7 + 0.25)
    # the oracle: <qp> carries +i/2 on top of the symmetrized value
    qp = wick.expect_operator({(0, 1): 1.0}, state)
    assert qp == pytest.approx((0.1 + 0.5 * (-0.3)) + 0.5j)
    assert qp - wick.expect_operator({(1, 0): 1.0}, state) == pytest.approx(1j)
    # the symmetrized q p has the form's value
    qp_sym = product(QuadForm((0, 1), np.array([[0.0, 0.5], [0.5, 0.0]])))
    assert exact(qp_sym, state) == pytest.approx(qp.real)


def test_number_operator_expectation():
    # <n> = (<q^2> + <p^2> - 1)/2 via the difference against vacuum mode
    state = GaussianState(
        means=np.zeros(4),
        cov=np.block(
            [[1.5 * np.eye(2), np.zeros((2, 2))], [np.zeros((2, 2)), 0.5 * np.eye(2)]]
        ),
    )
    nd = product(photon_number_difference(0, 1))  # n(thermal) - n(vacuum)
    assert exact(nd, state) == pytest.approx(1.0, abs=1e-12)


def test_quartic_against_isserlis_zero_mean():
    # <q1^2 q2^2> on a zero-mean Gaussian follows Isserlis:
    # g11 g22 + 2 g12^2 with g the covariance entries of (q1, q2)
    state = two_mode_squeezed_vacuum(0.5)
    g11, g22, g12 = state.cov[0, 0], state.cov[2, 2], state.cov[0, 2]
    readout = product(QuadForm((0,), np.array([[1.0]])), QuadForm((2,), np.array([[1.0]])))
    assert wigner_mean(readout, state) == pytest.approx(g11 * g22 + 2 * g12**2, rel=1e-12)
    # q1 and q2 commute, so the operator value is identical
    assert readout[1] == 0.0
    assert exact(readout, state) == pytest.approx(g11 * g22 + 2 * g12**2, rel=1e-12)


def test_intensity_square_commutator_constant():
    # <S1^2> minus the Wigner average of the same product is -1/2 for the
    # photon-number difference of two modes, on any state
    rng = np.random.default_rng(4)
    readout = product(photon_number_difference(1, 0), photon_number_difference(1, 0))
    assert readout[1] == -0.5
    poly = wick.poly_product(wick.photon_number_difference(1, 0), wick.photon_number_difference(1, 0))
    for _ in range(25):
        state = random_signal_state(rng)
        diff = wick.expect_operator(poly, state).real - wick.expect_symmetrized(poly, state)
        assert diff == pytest.approx(readout[1], abs=1e-9)
        assert exact(readout, state) - wigner_mean(readout, state) == pytest.approx(-0.5, abs=1e-9)


def test_cross_mode_polynomials_have_no_offset():
    rng = np.random.default_rng(5)
    pairs = [(cross_intensity(0, 1), wick.cross_intensity(0, 1)),
             (cross_phase(0, 1), wick.cross_phase(0, 1))]
    for factor, poly in pairs:
        readout = product(factor)
        assert readout[1] == 0.0
        for _ in range(10):
            state = random_signal_state(rng)
            diff = wick.expect_operator(poly, state) - wick.expect_symmetrized(poly, state)
            assert diff == pytest.approx(0.0, abs=1e-10)
            assert exact(readout, state) == wigner_mean(readout, state)


def test_swap_test_on_vacuum_square():
    # <(n1 - n2)^2> on vacuum (x) vacuum vanishes although the Wigner
    # average of the squared form is 1/2
    state = vacuum(2)
    readout = product(photon_number_difference(1, 0), photon_number_difference(1, 0))
    assert exact(readout, state) == pytest.approx(0.0, abs=1e-12)
    assert wigner_mean(readout, state) == pytest.approx(0.5, abs=1e-12)


def test_per_shot_values_match_polynomial():
    rows = np.array([[1.0, 2.0, 3.0, 4.0], [0.5, -1.0, 2.0, 0.0]])
    # 2 x0 x2 - x1 x3 + 0.5 x3^2 on the support (0, 2, 1, 3)
    upper = np.array([[0.0, 2.0, 0.0, 0.0], [0.0] * 4, [0.0, 0.0, 0.0, -1.0], [0.0, 0.0, 0.0, 0.5]])
    form = QuadForm((0, 2, 1, 3), (upper + upper.T) / 2)
    vals = _per_shot_product(_shot_terms((form,)), rows)
    expected = 2.0 * rows[:, 0] * rows[:, 2] - rows[:, 1] * rows[:, 3] + 0.5 * rows[:, 3] ** 2
    assert np.allclose(vals, expected)
    assert np.allclose(_per_shot_product(_shot_terms((form, form)), rows), expected**2)


def test_sampled_average_converges_to_symmetrized():
    state = two_mode_squeezed_vacuum(0.4)
    readout = product(photon_number_difference(1, 0), photon_number_difference(1, 0))
    vals = _per_shot_product(_shot_terms(readout[0]), sample_wigner(state, 200000, 11))
    target = wigner_mean(readout, state)
    se = np.std(vals, ddof=1) / math.sqrt(len(vals))
    assert abs(np.mean(vals) - target) < 5 * se
