"""The energy-curve helpers, the checks' z-test, and the two statistics that
only the acceptance criteria use (kept in _toys)."""

from __future__ import annotations

import numpy as np
import pytest

from restage.analysis import mean_trace, trace_from_run
from restage.checks import z_test_mean_var
from restage.denoiser import GaussianPrior
from restage.latent import SeededRng
from restage.sampler import run

from _toys import CODEC, TIMELINE, monotonicity_stat, p_x0_mse_series, single_plan


class TestTraceFromRun:
    def test_from_a_run(self):
        prior = GaussianPrior(np.full((4, 16, 16), 0.2), 1.0)
        (result,) = run(
            "baseline", single_plan(2.0), TIMELINE, prior, CODEC, None, [SeededRng(1)]
        )
        trace = trace_from_run(result)
        assert len(trace) == 50
        assert trace[0] == result.trace[0].latent_energy
        assert trace[17] == result.trace[17].latent_energy


class TestMeanTrace:
    def test_stepwise_average(self):
        mean = mean_trace([[1.0, 3.0], [2.0, 5.0]])
        assert mean.tolist() == [1.5, 4.0]


class TestSnapshotSeries:
    def test_identical_snapshots_give_zero(self):
        grid = np.full((1, 2, 2), 1.5)
        segments = p_x0_mse_series([(0, grid), (1, grid), (2, grid)])
        assert segments == [[(1, 0.0), (2, 0.0)]]

    def test_scalar_change(self):
        segments = p_x0_mse_series(
            [(0, np.full((1, 1, 1), 1.0)), (1, np.full((1, 1, 1), 3.0))]
        )
        assert segments == [[(1, 4.0)]]

    def test_shape_change_starts_a_new_segment(self):
        small_a = np.full((1, 2, 2), 1.0)
        small_b = np.full((1, 2, 2), 2.0)
        big_a = np.full((1, 4, 4), 5.0)
        big_b = np.full((1, 4, 4), 5.5)
        segments = p_x0_mse_series([(0, small_a), (1, small_b), (2, big_a), (3, big_b)])
        # the mixed-shape pair (1, 2) contributes nothing
        assert segments == [[(1, 1.0)], [(3, 0.25)]]

    def test_too_few_snapshots(self):
        with pytest.raises(ValueError, match="at least 2"):
            p_x0_mse_series([(0, np.full((1, 1, 1), 0.0))])


class TestMonotonicityStat:
    def test_strictly_increasing(self):
        assert monotonicity_stat([(1, 10.0), (2, 11.0), (3, 14.0), (4, 20.0)]) == 1.0

    def test_strictly_decreasing(self):
        assert monotonicity_stat([(1, 5.0), (2, 4.0), (3, 1.0)]) == -1.0

    def test_tied_response_reduces_the_magnitude(self):
        stat = monotonicity_stat([(1, 1.0), (2, 1.0), (3, 2.0)])
        assert abs(stat - 2.0 / np.sqrt(6.0)) < 1e-12

    def test_invariant_under_monotone_transforms(self):
        pairs = [(1, 0.3), (2, 1.7), (3, 0.9), (4, 2.4)]
        transformed = [(x, float(np.exp(y))) for x, y in pairs]
        assert monotonicity_stat(pairs) == monotonicity_stat(transformed)

    def test_needs_three_distinct_settings(self):
        with pytest.raises(ValueError, match="3 points"):
            monotonicity_stat([(1, 1.0), (2, 2.0)])
        with pytest.raises(ValueError, match="3 points"):
            monotonicity_stat([(1, 1.0), (1, 2.0), (2, 3.0)])

    def test_fully_tied_response_rejected(self):
        with pytest.raises(ValueError, match="tied"):
            monotonicity_stat([(1, 2.0), (2, 2.0), (3, 2.0)])

    def test_agrees_with_the_reference_implementation(self):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(40)
        x = rng.normal(size=20)
        y = rng.normal(size=20)
        pairs = list(zip(x.tolist(), y.tolist()))
        want = stats.kendalltau(x, y).statistic
        assert monotonicity_stat(pairs) == pytest.approx(want, abs=1e-12)


class TestZTest:
    def test_symmetric_sample_scores_zero(self):
        half = np.linspace(0.5, 2.0, 5000)
        samples = np.concatenate([half, -half])
        z, _ = z_test_mean_var(samples, 0.0, 1.0)
        assert z == 0.0

    def test_standard_normal_sample(self):
        samples = np.random.default_rng(41).standard_normal(100_000)
        z, ratio = z_test_mean_var(samples, 0.0, 1.0)
        assert abs(z) < 4.0
        assert 0.97 < ratio < 1.03

    def test_location_shift_is_detected(self):
        samples = np.random.default_rng(42).standard_normal(100_000) + 0.05
        z, _ = z_test_mean_var(samples, 0.0, 1.0)
        assert z > 10.0

    def test_variance_ratio_uses_the_expected_scale(self):
        samples = 2.0 * np.random.default_rng(43).standard_normal(50_000)
        _, ratio = z_test_mean_var(samples, 0.0, 4.0)
        assert 0.95 < ratio < 1.05

    def test_sample_size_floor(self):
        with pytest.raises(ValueError, match="10000"):
            z_test_mean_var(np.zeros(9_999), 0.0, 1.0)

    def test_variance_must_be_positive(self):
        with pytest.raises(ValueError, match="variance"):
            z_test_mean_var(np.zeros(20_000), 0.0, 0.0)
