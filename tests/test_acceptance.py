"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
import time

import numpy as np
import pytest

from gaussep import (
    FiveGroupPlan,
    GaussianState,
    ReferenceStateParams,
    SingleModeNetwork,
    TwoModeNetwork,
    Verdict,
    assemble_verdict,
    displaced_squeezed_thermal,
    expect_stokes,
    full_pipeline,
    min_symplectic_eigenvalue,
    partial_transpose,
    propagated_expectations,
    random_state,
    reference_moments,
    run_scheme,
    run_two_copy,
    sample_wigner,
    simon_criterion,
    symplectic_form,
    tensor_product,
    thermal,
    two_mode_squeezed_vacuum,
    vacuum,
)
from gaussep.cli import run_experiment


def _report(number: int, name: str, elapsed: float, detail: str = "") -> None:
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.2f} s){suffix}")


def test_criterion_1_exactness():
    start = time.perf_counter()
    vac = simon_criterion(vacuum(2))
    assert abs(vac.delta - 4 * vac.det_gamma - 0.25) < 1e-12
    th = simon_criterion(tensor_product(thermal(1.0), thermal(1.0)))
    assert abs(th.delta - 4 * th.det_gamma - (-15.75)) < 1e-9
    tm = simon_criterion(two_mode_squeezed_vacuum(0.5))
    assert abs(tm.delta - 4 * tm.det_gamma - (math.cosh(2.0) / 2 - 0.25)) < 1e-9
    assert tm.verdict is Verdict.ENTANGLED
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, "criterion exactness", elapsed)


def test_criterion_2_xi_min_formula_vs_spectral_oracle():
    start = time.perf_counter()
    J = symplectic_form(2)
    worst = 0.0
    for seed in range(1000):
        state = random_state(seed)
        transposed = partial_transpose(state)
        oracle = float(np.min(np.abs(np.linalg.eigvals(1j * J @ transposed.cov))))
        xi = simon_criterion(state).xi_min
        xi_direct = min_symplectic_eigenvalue(transposed)
        worst = max(worst, abs(xi - oracle) / oracle, abs(xi_direct - oracle) / oracle)
    assert worst <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(2, "xi_min formula vs spectral oracle", elapsed, f"worst rel err {worst:.2e}")


def test_criterion_3_tmsv_analytic_law():
    start = time.perf_counter()
    for r in np.arange(0.1, 1.05, 0.1):
        report = simon_criterion(two_mode_squeezed_vacuum(float(r)))
        assert abs(report.xi_min - math.exp(-2 * r) / 2) < 1e-9, r
        assert abs(report.log_negativity - 2 * r) < 1e-9, r
    _report(3, "two-mode squeezed vacuum law", time.perf_counter() - start)


def test_criterion_4_locc_estimator():
    start = time.perf_counter()
    state = two_mode_squeezed_vacuum(0.5)
    est = run_scheme(state, FiveGroupPlan(shots_per_group=100000), seed=2024)
    for i in range(4):
        for j in range(4):
            err = abs(est.gamma_hat[i, j] - state.cov[i, j])
            assert err < 5 * max(est.gamma_se[i, j], 1e-12), (i, j)
    rms = []
    sizes = (1000, 10000, 100000)
    for n in sizes:
        errs = []
        for seed in range(16):
            e = run_scheme(state, FiveGroupPlan(shots_per_group=n), seed=3000 + seed)
            errs.append(np.sqrt(np.mean((e.gamma_hat - state.cov) ** 2)))
        rms.append(np.mean(errs))
    slope = float(np.polyfit(np.log(sizes), np.log(rms), 1)[0])
    assert -0.6 <= slope <= -0.4
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(4, "five-observable estimator", elapsed, f"slope {slope:.3f}")


def test_criterion_5_stokes_consistency():
    start = time.perf_counter()
    rng = np.random.default_rng(41)
    worst = 0.0
    for case in range(100):
        base = random_state(rng, max_squeeze=0.8, max_thermal=1.5)
        state = GaussianState(means=rng.normal(0, 1, 4), cov=base.cov)
        ref = ReferenceStateParams(
            n_bar=rng.uniform(0, 1),
            d=rng.uniform(0.2, 2),
            beta=rng.uniform(-math.pi, math.pi),
            theta=rng.uniform(0, 0.8),
            gamma=rng.uniform(-math.pi, math.pi),
        )
        ref2 = ReferenceStateParams(
            n_bar=rng.uniform(0, 1), d=rng.uniform(0.2, 2),
            beta=rng.uniform(-math.pi, math.pi), theta=rng.uniform(0, 0.8),
            gamma=rng.uniform(-math.pi, math.pi),
        )
        networks = [
            SingleModeNetwork(mode=int(rng.integers(0, 2)), reference=ref),
            TwoModeNetwork(
                ref_c=ref, ref_d=ref2,
                phi1=rng.uniform(0, 2 * math.pi),
                phi2_values=(rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)),
            ),
        ]
        for net in networks:
            analytic = {
                (r.observable, r.phases): r.value.value
                for r in expect_stokes(net, state)
            }
            direct = {
                (r.observable, r.phases): r.value.value
                for r in propagated_expectations(net, state)
            }
            assert analytic.keys() == direct.keys()
            for key, value in analytic.items():
                err = abs(value - direct[key])
                worst = max(worst, err)
                assert err < 1e-10, (case, key)
    # reconstruction exactness on analytic readouts
    for case in range(25):
        base = random_state(rng, max_squeeze=0.8, max_thermal=1.5)
        state = GaussianState(means=rng.normal(0, 1, 4), cov=base.cov)
        result = full_pipeline(state)
        assert np.max(np.abs(result.gamma_hat - state.cov)) < 1e-9
    elapsed = time.perf_counter() - start
    _report(5, "interferometric backend consistency", elapsed, f"worst {worst:.2e}")


def test_criterion_6_two_copy_pipeline():
    start = time.perf_counter()
    disagree_outside_noise = 0
    for seed in range(1000):
        state = random_state(seed)
        truth = simon_criterion(state)
        result = assemble_verdict(
            truth.det_a, truth.det_b, truth.det_c, truth.det_gamma
        )
        if abs(truth.margin) < 1e-9:
            continue
        if result.verdict is not truth.verdict:
            disagree_outside_noise += 1
    assert disagree_outside_noise == 0
    agreements = 0
    n_states = 200
    bad = []
    for index in range(n_states):
        state = random_state(10_000 + index)
        truth = simon_criterion(state)
        result = run_two_copy(state, "method3", 100000, seed=777 + index)
        true_sep = truth.verdict in (Verdict.SEPARABLE, Verdict.BOUNDARY)
        est_sep = result.verdict in (Verdict.SEPARABLE, Verdict.BOUNDARY)
        if true_sep == est_sep:
            agreements += 1
        else:
            bad.append((index, truth.margin, result.margin_std_error))
            assert abs(truth.margin) < 5 * result.margin_std_error, bad[-1]
    rate = agreements / n_states
    assert rate >= 0.99
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(6, "two-copy pipeline", elapsed, f"agreement {rate:.3f}")


def test_criterion_7_reference_state_moments():
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    n = 100000
    for draw in range(20):
        params = ReferenceStateParams(
            n_bar=rng.uniform(0, 2),
            d=rng.uniform(0, 2),
            beta=rng.uniform(-math.pi, math.pi),
            theta=rng.uniform(0, 1),
            gamma=rng.uniform(-math.pi, math.pi),
        )
        state = displaced_squeezed_thermal(params)
        m = reference_moments(params)
        rows = sample_wigner(state, n, 555 + draw)
        checks = [
            (rows[:, 0], m.q_mean),
            (rows[:, 1], m.p_mean),
            (rows[:, 0] ** 2, m.q2),
            (rows[:, 1] ** 2, m.p2),
            (rows[:, 0] * rows[:, 1], m.sigma),
        ]
        for values, target in checks:
            se = np.std(values, ddof=1) / math.sqrt(n)
            assert abs(np.mean(values) - target) < 5 * se, (draw, target)
    elapsed = time.perf_counter() - start
    _report(7, "reference-state moments", elapsed)


def test_criterion_8_reproducibility():
    start = time.perf_counter()
    for scheme in ("locc_i", "stokes", "twocopy_m3"):
        payloads = []
        for _ in range(2):
            record = run_experiment(
                {
                    "state": {"kind": "tmsv", "params": {"r": 0.5}},
                    "scheme": scheme,
                    "shots": 3000,
                    "seed": 99,
                }
            )
            payloads.append(
                json.dumps(record["estimate"], sort_keys=True).encode()
            )
        assert payloads[0] == payloads[1], scheme
    _report(8, "seeded reproducibility", time.perf_counter() - start)
