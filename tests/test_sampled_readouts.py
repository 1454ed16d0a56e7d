"""Pins of the sampled readout path: the random draws, the order of the
per-shot arithmetic and the copies it does or does not make.

Each test fails if a draw or an evaluation order drifts, so a change that
moves random streams or sampled output bytes shows up here first.
"""

import functools
import math

import numpy as np
import pytest

from gaussep import StokesConfig, sample_stokes, sample_wigner, tensor_product, vacuum
from gaussep import core, moments, sampling
from gaussep.moments import (
    cross_phase,
    evaluate_on_samples,
    measure,
    ordering_offset,
    photon_number_difference,
    poly_product,
    real_expect_operator,
)
from gaussep.sampling import derive_rng
from gaussep.stokes import _FACTORS, _outputs, _readouts
from gaussep.twocopy import _OPA_POLYS
from conftest import random_signal_state

# the operator product of each readout's factors
_EXPANDED = {name: functools.reduce(poly_product, factors) for name, factors in _FACTORS.items()}


def reference_evaluate(poly, samples):
    """The per-monomial loop that evaluate_on_samples must reproduce bit
    for bit: a product of columns from a vector of ones, times the
    coefficient, accumulated in insertion order."""
    out = np.zeros(samples.shape[0])
    for idx, coeff in poly.items():
        term = np.ones(samples.shape[0])
        for i in idx:
            term = term * samples[:, i]
        out += float(np.real(coeff)) * term
    return out


def stokes_and_method3_polys():
    polys = [f for factors in _FACTORS.values() for f in factors]
    polys += list(_EXPANDED.values()) + list(_OPA_POLYS)
    # beyond the package's own: a constant, a cubic monomial and a
    # coefficient that is not a power of two
    polys.append({(): 0.3, (1, 4, 6): -1.7, (2,): 1.0 / 3.0, (7, 7): 0.1})
    return polys


def measured_per_shot(monkeypatch, factors, samples):
    """The per-shot values that ``measure`` averages, on ``samples``."""
    seen = []
    monkeypatch.setattr(moments, "sample_wigner", lambda *args: samples)
    monkeypatch.setattr(moments, "mean_and_se",
                        lambda values: seen.append(values) or sampling.mean_and_se(values))
    measure([(factors, vacuum(samples.shape[1] // 2), ())], samples.shape[0])
    return seen[0]


@pytest.fixture
def samples():
    rng = np.random.default_rng(2024)
    return rng.normal(0.3, 1.4, size=(5000, 8))


def test_evaluate_on_samples_bit_identical_to_reference_loop(samples):
    for poly in stokes_and_method3_polys():
        got = evaluate_on_samples(poly, samples)
        assert got.tobytes() == reference_evaluate(poly, samples).tobytes(), poly


@pytest.mark.parametrize("name", ["S1sq", "S1sq_c", "S1sq_d", "S1xS1"])
def test_factored_product_matches_expanded_polynomial(samples, name, monkeypatch):
    factored = measured_per_shot(monkeypatch, _FACTORS[name], samples)
    expanded = evaluate_on_samples(_EXPANDED[name], samples)
    scale = np.max(np.abs(expanded))
    assert np.max(np.abs(factored - expanded)) <= 1e-12 * scale
    assert abs(factored.mean() - expanded.mean()) <= 1e-12 * abs(expanded.mean())


def test_expanded_polynomials_are_products_of_factors():
    rng = np.random.default_rng(3)
    out = tensor_product(random_signal_state(rng), random_signal_state(rng))
    for name, factors in _FACTORS.items():
        expected = factors[0] if len(factors) == 1 else poly_product(*factors)
        assert _EXPANDED[name] == expected
        assert measure([(factors, out, ())])[0].value == real_expect_operator(expected, out)


@pytest.mark.parametrize("network_index", [0, 2])
def test_sample_stokes_equals_expanded_evaluation_on_same_draws(network_index):
    state = random_signal_state(np.random.default_rng(8))
    network = StokesConfig().networks()[network_index]
    n_shots, seed, key = 4000, 17, (network_index,)
    readouts = sample_stokes(network, state, n_shots, seed, *key)
    programs = list(zip(_readouts(network), _outputs(network, state)))
    assert len(readouts) == len(programs)
    for index, (r, ((name, phases, _), out)) in enumerate(zip(readouts, programs)):
        rows = sample_wigner(out, n_shots, seed, *key, index)
        values = evaluate_on_samples(_EXPANDED[name], rows)
        expected = float(np.mean(values)) + ordering_offset(_EXPANDED[name], out.n_modes)
        expected_se = float(np.std(values, ddof=1)) / math.sqrt(n_shots)
        assert (r.observable, r.phases) == (name, phases)
        assert r.value.value == pytest.approx(expected, rel=1e-12, abs=1e-12)
        assert r.value.std_error == pytest.approx(expected_se, rel=1e-9)


def test_sample_wigner_equals_hand_built_draw():
    state = random_signal_state(np.random.default_rng(5))
    n_shots, seed, key = 3000, 123, (2, 7)
    lam, u = np.linalg.eigh(state.cov)
    root = u @ np.diag(np.sqrt(np.clip(lam, 0.0, None))) @ u.T
    z = derive_rng(seed, *key).standard_normal(size=(n_shots, state.means.size))
    expected = state.means + z @ root.T
    got = sample_wigner(state, n_shots, seed, *key)
    assert got.tobytes() == expected.tobytes()


def test_fresh_samples_are_read_only_and_not_copied(monkeypatch):
    def no_copy(a):
        raise AssertionError("sample_wigner copied its own sample matrix")

    state = random_signal_state(np.random.default_rng(1))
    monkeypatch.setattr(core, "_as_readonly", no_copy)
    samples = sample_wigner(state, 100, 9)
    assert not samples.flags.writeable
    assert samples.flags.owndata
    assert samples.dtype == np.float64 and samples.shape == (100, 4)


def test_ordering_offset_remembered_per_polynomial_and_mode_count(monkeypatch):
    poly = poly_product(cross_phase(1, 0), photon_number_difference(0, 1))
    first = ordering_offset(poly, 2)

    def no_wick(*args):
        raise AssertionError("Wick recursion ran again for a known polynomial")

    monkeypatch.setattr(moments, "expect_operator", no_wick)
    monkeypatch.setattr(moments, "expect_symmetrized", no_wick)
    assert ordering_offset(dict(poly), 2) == first
    with pytest.raises(AssertionError):
        ordering_offset(poly, 3)

