"""Pins of the sampled readout path: the random draws, the order of the
per-shot arithmetic and the copies it does or does not make.

Each test fails if a draw or an evaluation order drifts, so a change that
moves random streams or sampled output bytes shows up here first.
"""

import functools
import inspect
import math
import os
import pickle
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import gaussep
import wick
from gaussep import (FiveGroupPlan, GaussianState, InvalidCovarianceError, SingleModeNetwork,
                     StokesConfig, full_pipeline, method3_c, run_scheme, run_two_copy,
                     sample_stokes, sample_wigner, tensor_product, vacuum)
from gaussep import core, locc, moments, sampling
from gaussep.moments import QuadForm, measure
from gaussep.sampling import BLOCK_ROWS, derive_rng
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
    monkeypatch.setattr(moments, "_wigner_blocks",
                        lambda *args: iter([(slice(0, samples.shape[0]), samples)]))
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
    # whole blocks, a one-row tail, a short tail and shorter than one block
    state = random_signal_state(np.random.default_rng(5))
    seed, key = 123, (2, 7)
    lam, u = np.linalg.eigh(state.cov)
    root = u @ np.diag(np.sqrt(np.clip(lam, 0.0, None))) @ u.T
    for n_shots in (1, 3000, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 7):
        z = derive_rng(seed, *key).standard_normal(size=(n_shots, state.means.size))
        expected = state.means + z @ root.T
        got = sample_wigner(state, n_shots, seed, *key)
        assert got.tobytes() == expected.tobytes(), n_shots


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


# enough shots for the thread pool, ending in a short block
_THREADED_SHOTS = sampling.POOL_MIN_SHOTS + 5


def _on_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def _off_main_evaluations(monkeypatch):
    """The threads other than the main one that evaluated a block."""
    threads = set()
    inner = moments._per_shot_product

    def recorded(factors, block):
        if threading.current_thread() is not threading.main_thread():
            threads.add(threading.get_ident())
        return inner(factors, block)

    monkeypatch.setattr(moments, "_per_shot_product", recorded)
    return threads


def test_threaded_measurements_equal_inline_bytes(monkeypatch):
    state = random_signal_state(np.random.default_rng(21))
    threads_before = threading.active_count()
    results = {}
    for cpus in (1, 4):
        _on_cpus(monkeypatch, cpus)
        off_main = _off_main_evaluations(monkeypatch)
        results[cpus] = pickle.dumps((
            full_pipeline(state, n_shots=_THREADED_SHOTS, seed=5),
            method3_c(state, n_shots=_THREADED_SHOTS, seed=6),
        ))
        assert threading.active_count() == threads_before
        assert bool(off_main) == (cpus > 1)
    assert results[1] == results[4]


def test_threaded_path_raises_as_inline_path(monkeypatch):
    bad = GaussianState(means=np.zeros(4), cov=np.diag([1.0, 1.0, 1.0, -0.2]))
    readout = moments.product(moments.cross_intensity(0, 1))
    jobs = [(readout, vacuum(2), (0,)), (readout, bad, (1,)), (readout, vacuum(2), (2,))]
    threads_before = threading.active_count()
    messages = []
    for cpus in (1, 4):
        _on_cpus(monkeypatch, cpus)
        with pytest.raises(InvalidCovarianceError) as info:
            measure(jobs, _THREADED_SHOTS, 3)
        assert threading.active_count() == threads_before
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def _off_main_draws(monkeypatch):
    """The threads other than the main one that drew Wigner blocks for
    ``sampling._draw``."""
    threads = set()
    inner = sampling._wigner_blocks

    def recorded(state, n_shots, rng):
        if threading.current_thread() is not threading.main_thread():
            threads.add(threading.get_ident())
        return inner(state, n_shots, rng)

    monkeypatch.setattr(sampling, "_wigner_blocks", recorded)
    return threads


def _threaded_schemes(state):
    """Both locc variants and two-copy method 1, with enough shots per
    substream for the thread pool."""
    return (
        run_scheme(state, FiveGroupPlan(_THREADED_SHOTS), seed=5),
        run_scheme(state, FiveGroupPlan(_THREADED_SHOTS, "scheme_ii"), seed=6),
        run_two_copy(state, "method1", _THREADED_SHOTS, seed=7),
    )


def test_threaded_schemes_equal_inline_bytes(monkeypatch):
    state = random_signal_state(np.random.default_rng(23))
    threads_before = threading.active_count()
    results = {}
    for cpus in (1, 4):
        _on_cpus(monkeypatch, cpus)
        off_main = _off_main_draws(monkeypatch)
        results[cpus] = pickle.dumps(_threaded_schemes(state))
        assert threading.active_count() == threads_before
        assert bool(off_main) == (cpus > 1)
    assert results[1] == results[4]


@pytest.mark.parametrize("scheme, failing_key", [
    ("scheme_i", (2,)),     # group C, while other groups are drawn
    ("scheme_ii", (1,)),    # the symmetrized rows
    ("method1", (0,)),      # the random-pair rows
])
def test_threaded_scheme_draw_raises_as_inline(monkeypatch, scheme, failing_key):
    inner = sampling._wigner_blocks

    def failing(state, n_shots, rng):
        key = rng.bit_generator.seed_seq.spawn_key
        if key == failing_key:
            raise InvalidCovarianceError(f"draw {key} failed")
        return inner(state, n_shots, rng)

    monkeypatch.setattr(sampling, "_wigner_blocks", failing)
    state = random_signal_state(np.random.default_rng(24))
    threads_before = threading.active_count()
    messages = []
    for cpus in (1, 4):
        _on_cpus(monkeypatch, cpus)
        with pytest.raises(InvalidCovarianceError) as info:
            if scheme == "method1":
                run_two_copy(state, "method1", _THREADED_SHOTS, seed=3)
            else:
                run_scheme(state, FiveGroupPlan(_THREADED_SHOTS, scheme), seed=3)
        assert threading.active_count() == threads_before
        messages.append(str(info.value))
    assert messages[0] == messages[1] == f"draw {failing_key} failed"


def _largest_worker_trace() -> int:
    """The largest traced allocation whose traceback runs through a pool worker."""
    worker = os.path.join("concurrent", "futures", "thread.py")
    for trace in sorted(tracemalloc.take_snapshot().traces, key=lambda t: -t.size):
        if any(frame.filename.endswith(worker) for frame in trace.traceback):
            return trace.size
    return 0


def _worker_traces_at_each_finish(monkeypatch, module):
    """The largest worker trace alive at each finishing step of ``module``'s
    pooled jobs, while the worker's result is alive."""
    sizes = []
    inner = module._in_order

    def finishing(finish):
        def step(value):
            sizes.append(_largest_worker_trace())
            return finish(value)
        return step

    def traced(jobs, n_shots):
        return inner(((finishing(finish), *job) for finish, *job in jobs), n_shots)

    monkeypatch.setattr(module, "_in_order", traced)
    return sizes


@pytest.mark.parametrize("module, run", [
    (locc, lambda state: run_scheme(state, FiveGroupPlan(_THREADED_SHOTS), seed=5)),
    (locc, lambda state: run_scheme(state, FiveGroupPlan(_THREADED_SHOTS, "scheme_ii"), seed=6)),
    (moments, lambda state: sample_stokes(SingleModeNetwork(), state, _THREADED_SHOTS, 7)),
], ids=["locc_i-groups", "locc_ii-rows-and-choices", "measure-per-shot-values"])
def test_full_size_arrays_are_made_on_the_calling_thread(monkeypatch, module, run):
    """Workers allocate at most one block of a two-mode draw.  A full-size
    array of ``_THREADED_SHOTS`` rows (Wigner rows, q/p choices or per-shot
    values) is larger; made in a worker, it would stay in that worker's
    malloc arena and raise the process's peak memory."""
    one_block = (BLOCK_ROWS + 1) * 4 * 8
    _on_cpus(monkeypatch, 4)
    sizes = _worker_traces_at_each_finish(monkeypatch, module)
    state = random_signal_state(np.random.default_rng(25))
    tracemalloc.start(40)
    try:
        run(state)
        # the check sees an array that a worker made
        with ThreadPoolExecutor(1) as pool:
            made = pool.submit(np.empty, _THREADED_SHOTS).result()
            assert _largest_worker_trace() == made.nbytes > one_block
    finally:
        tracemalloc.stop()
    assert sizes
    assert max(sizes) <= one_block


def test_public_functions_stay_on_the_calling_thread(monkeypatch):
    calls = {}

    def on_main_thread(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            assert threading.current_thread() is threading.main_thread(), name
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    # rebind every module's own binding of a public package function
    wrapped = {}
    for module in [gaussep] + [m for n, m in sorted(sys.modules.items())
                               if n.startswith("gaussep.")]:
        for attr, value in list(vars(module).items()):
            if (inspect.isfunction(value) and not attr.startswith("_")
                    and value.__module__.startswith("gaussep")):
                name = f"{value.__module__}.{value.__name__}"
                wrapped.setdefault(id(value), on_main_thread(name, value))
                monkeypatch.setattr(module, attr, wrapped[id(value)])
    _on_cpus(monkeypatch, 4)
    off_main = _off_main_evaluations(monkeypatch)
    state = random_signal_state(np.random.default_rng(22))
    full_pipeline(state, n_shots=_THREADED_SHOTS, seed=7)
    assert off_main
    assert calls["gaussep.sampling.mean_and_se"] == 14
    assert calls["gaussep.moments.measure"] == 1
    # the locc groups, the random-pair rows and choices, and method 1
    off_main_draws = _off_main_draws(monkeypatch)
    _threaded_schemes(state)
    assert off_main_draws
    # and a public function called from another thread would have failed
    failures = []

    def draw_off_main():
        try:
            sampling.sample_wigner(vacuum(1), 10, 0)
        except AssertionError as exc:
            failures.append(exc)

    worker = threading.Thread(target=draw_off_main)
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive() and len(failures) == 1
