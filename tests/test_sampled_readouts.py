"""Pins of the sampled readout path: the random draws, the order of the
per-shot arithmetic and the copies it does or does not make.

Each test fails if a draw or an evaluation order drifts, so a change that
moves random streams or sampled output bytes shows up here first.
"""

import math

import numpy as np
import pytest

import wick
from gaussep import StokesConfig, sample_stokes, sample_wigner, tensor_product, vacuum
from gaussep import core, moments, sampling
from gaussep.moments import QuadForm, measure
from gaussep.sampling import derive_rng
from gaussep.stokes import _PRODUCTS, _outputs, _readouts
from conftest import random_signal_state

# each Stokes readout as the operator product of ordered polynomials
_POLYS = {name: poly for name, _, poly in wick.package_factors()}
_EXPANDED = {
    "S1": _POLYS["S1"],
    "S1sq": wick.poly_product(_POLYS["S1"], _POLYS["S1"]),
    "S1sq_c": wick.poly_product(_POLYS["S1_c"], _POLYS["S1_c"]),
    "S1sq_d": wick.poly_product(_POLYS["S1_d"], _POLYS["S1_d"]),
    "S1xS1": wick.poly_product(_POLYS["S1_c"], _POLYS["S1_d"]),
    "S3": _POLYS["S3"],
}


def reference_evaluate(poly, samples):
    """The per-monomial loop that the per-shot values must reproduce bit
    for bit: a product of columns from a vector of ones, times the
    coefficient, accumulated in insertion order."""
    out = np.zeros(samples.shape[0])
    for idx, coeff in poly.items():
        term = np.ones(samples.shape[0])
        for i in idx:
            term = term * samples[:, i]
        out += float(np.real(coeff)) * term
    return out


def factors_and_polys():
    """The package's eight factors, plus one beyond them with a full upper
    triangle and coefficients that are not powers of two, each with the
    same observable as a polynomial in upper-triangle order."""
    pairs = [(factor, poly) for _, factor, poly in wick.package_factors()]
    support, upper = (1, 4, 6), np.triu(np.arange(1.0, 10.0).reshape(3, 3) / 3.0 - 1.7)
    poly = {(support[i], support[j]): upper[i, j] for i, j in zip(*np.nonzero(upper))}
    pairs.append((QuadForm(support, (upper + upper.T) / 2), poly))
    return pairs


def measured_per_shot(monkeypatch, readout, samples):
    """The per-shot values that ``measure`` averages, on ``samples``."""
    seen = []
    monkeypatch.setattr(moments, "sample_wigner", lambda *args: samples)
    monkeypatch.setattr(moments, "mean_and_se",
                        lambda values: seen.append(values) or sampling.mean_and_se(values))
    measure([(readout, vacuum(samples.shape[1] // 2), ())], samples.shape[0])
    return seen[0]


@pytest.fixture
def samples():
    rng = np.random.default_rng(2024)
    return rng.normal(0.3, 1.4, size=(5000, 8))


def test_per_shot_values_bit_identical_to_reference_loop(samples, monkeypatch):
    pairs = factors_and_polys()
    for factor, poly in pairs:
        got = measured_per_shot(monkeypatch, moments.product(factor), samples)
        assert got.tobytes() == reference_evaluate(poly, samples).tobytes(), poly
    # a product is the product of its factors' per-shot values
    for (fa, pa), (fb, pb) in [(pairs[0], pairs[0]), (pairs[1], pairs[2])]:
        got = measured_per_shot(monkeypatch, moments.product(fa, fb), samples)
        expected = reference_evaluate(pa, samples) * reference_evaluate(pb, samples)
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("name", ["S1sq", "S1sq_c", "S1sq_d", "S1xS1"])
def test_factored_product_matches_expanded_polynomial(samples, name, monkeypatch):
    factored = measured_per_shot(monkeypatch, _PRODUCTS[name], samples)
    expanded = reference_evaluate(_EXPANDED[name], samples)
    scale = np.max(np.abs(expanded))
    assert np.max(np.abs(factored - expanded)) <= 1e-12 * scale
    assert abs(factored.mean() - expanded.mean()) <= 1e-12 * abs(expanded.mean())


def test_expanded_polynomials_are_products_of_factors():
    rng = np.random.default_rng(3)
    out = tensor_product(random_signal_state(rng), random_signal_state(rng))
    assert set(_PRODUCTS) == set(_EXPANDED)
    for name, readout in _PRODUCTS.items():
        expected = wick.expect_operator(_EXPANDED[name], out).real
        assert measure([(readout, out, ())])[0].value == pytest.approx(expected, rel=1e-12)


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
        poly = _EXPANDED[name]
        values = reference_evaluate(poly, rows)
        offset = wick.expect_operator(poly, out).real - wick.expect_symmetrized(poly, out)
        expected = float(np.mean(values)) + offset
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


def test_offsets_computed_once_when_readouts_are_defined(monkeypatch):
    def no_offset(*args):
        raise AssertionError("an ordering offset was computed during a measurement")

    state = random_signal_state(np.random.default_rng(6))
    monkeypatch.setattr(moments, "symplectic_form", no_offset)
    for network in StokesConfig().networks():
        sample_stokes(network, state, 100, 3)
    assert _PRODUCTS["S1sq"][1] == -0.5
    assert _PRODUCTS["S1xS1"][1] == 0.0
    with pytest.raises(AssertionError):
        moments.product(moments.photon_number_difference(1, 0), moments.cross_phase(1, 0))
