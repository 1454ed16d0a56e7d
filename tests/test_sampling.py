import math

import numpy as np
import pytest

from gaussep import (
    GaussianState,
    InsufficientShotsError,
    InvalidCovarianceError,
    sample_wigner,
    thermal,
    two_mode_squeezed_vacuum,
    vacuum,
)
from gaussep.sampling import batch_to_csv, covariance_and_se, derive_rng, mean_and_se


def test_fixed_seed_reproducible():
    state = two_mode_squeezed_vacuum(0.5)
    a = sample_wigner(state, 1000, 42)
    b = sample_wigner(state, 1000, 42)
    assert np.array_equal(a.samples, b.samples)
    c = sample_wigner(state, 1000, 43)
    assert not np.array_equal(a.samples, c.samples)


def test_substreams_differ():
    state = vacuum(1)
    a = sample_wigner(state, 100, 7, 0)
    b = sample_wigner(state, 100, 7, 1)
    assert not np.array_equal(a.samples, b.samples)
    assert np.array_equal(a.samples, sample_wigner(state, 100, 7, 0).samples)


def test_vacuum_variance_within_five_sigma():
    n = 100000
    batch = sample_wigner(vacuum(2), n, 3)
    sigma = 0.5 * math.sqrt(2.0 / n)
    for col in range(4):
        assert abs(np.var(batch.samples[:, col], ddof=1) - 0.5) < 5 * sigma


def test_tmsv_cross_moment_within_five_sigma():
    n = 100000
    state = two_mode_squeezed_vacuum(0.5)
    batch = sample_wigner(state, n, 5)
    est = mean_and_se(batch.samples[:, 0] * batch.samples[:, 2])
    assert abs(est.value - 0.5876005968219007) < 5 * est.std_error


def test_empirical_cov_matches_gamma():
    state = two_mode_squeezed_vacuum(0.3)
    batch = sample_wigner(state, 200000, 9)
    emp = np.cov(batch.samples.T, ddof=1)
    assert np.max(np.abs(emp - state.cov)) < 0.02


def test_rms_error_scales_as_inverse_sqrt_n():
    state = two_mode_squeezed_vacuum(0.5)
    sizes = [1000, 10000, 100000]
    rms = []
    for n in sizes:
        errs = []
        for seed in range(6):
            batch = sample_wigner(state, n, 100 + seed)
            emp = np.cov(batch.samples.T, ddof=1)
            errs.append(np.sqrt(np.mean((emp - state.cov) ** 2)))
        rms.append(np.mean(errs))
    slope = np.polyfit(np.log(sizes), np.log(rms), 1)[0]
    assert -0.6 <= slope <= -0.4


def test_fourth_moment_matches_isserlis():
    state = two_mode_squeezed_vacuum(0.5)
    n = 100000
    batch = sample_wigner(state, n, 17)
    est = mean_and_se(batch.samples[:, 0] ** 2 * batch.samples[:, 2] ** 2)
    g11, g22, g12 = state.cov[0, 0], state.cov[2, 2], state.cov[0, 2]
    target = g11 * g22 + 2 * g12**2
    assert abs(est.value - target) < 5 * est.std_error


def test_symmetrized_cross_term():
    # per-shot q*p estimates <{q,p}>/2; check on a squeezed-rotated mode
    from gaussep import apply_transform, phase_shifter, single_mode_squeezer, compose

    state = apply_transform(
        thermal(0.5), compose(phase_shifter(0.6), single_mode_squeezer(0.5))
    )
    batch = sample_wigner(state, 200000, 23)
    est = mean_and_se(batch.samples[:, 0] * batch.samples[:, 1])
    assert abs(est.value - state.cov[0, 1]) < 5 * est.std_error


def test_non_psd_rejected():
    cov = np.diag([1.0, -0.2])
    state = GaussianState(means=np.zeros(2), cov=cov)
    with pytest.raises(InvalidCovarianceError):
        sample_wigner(state, 10, 0)


def test_mean_and_se():
    batch = sample_wigner(vacuum(1), 50000, 31)
    est = mean_and_se(batch.samples[:, 0])
    assert abs(est.value) < 5 * est.std_error
    assert est.std_error == pytest.approx(math.sqrt(0.5) / math.sqrt(50000), rel=0.05)
    with pytest.raises(InsufficientShotsError):
        mean_and_se(batch.samples[:1, 0])


def test_covariance_and_se_unbiased():
    rng = derive_rng(77)
    covs = []
    for _ in range(300):
        x = rng.normal(0, 1, 500)
        y = 0.5 * x + rng.normal(0, 1, 500)
        covs.append(covariance_and_se(x, y).value)
    assert np.mean(covs) == pytest.approx(0.5, abs=0.02)


def test_csv_dump(tmp_path):
    batch = sample_wigner(vacuum(2), 5, 1)
    path = tmp_path / "batch.csv"
    batch_to_csv(batch, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "q1,p1,q2,p2"
    assert len(lines) == 6
