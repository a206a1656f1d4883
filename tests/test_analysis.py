"""Energy traces, snapshot series, and the run statistics."""

from __future__ import annotations

import numpy as np
import pytest

from restage.analysis import (
    EnergyTrace,
    mean_trace,
    monotonicity_stat,
    p_x0_mse_series,
    trace_from_run,
    z_test_mean_var,
)
from restage.denoiser import UNCONDITIONAL, GaussianPrior
from restage.errors import ComparisonError, StatError
from restage.latent import LatentGrid, SeededRng
from restage.sampler import run

from _toys import CODEC, TIMELINE, single_plan


def _trace(label, *rows):
    return EnergyTrace(label=label, rows=tuple(rows))


class TestEnergyTrace:
    def test_from_a_run(self):
        prior = GaussianPrior(LatentGrid.full(4, 16, 16, 0.2), 1.0, TIMELINE)
        result = run("baseline", single_plan(2.0), TIMELINE, prior, CODEC, UNCONDITIONAL, SeededRng(1))
        trace = trace_from_run(result, "demo")
        assert trace.label == "demo"
        assert len(trace.rows) == 50
        assert trace.rows[0] == (0, result.trace[0].latent_energy)
        assert trace.energy_at(17) == result.trace[17].latent_energy

    def test_steps_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            _trace("t", (0, 1.0), (0, 2.0))

    @pytest.mark.parametrize("bad", [-0.5, float("nan"), float("inf")])
    def test_energies_must_be_finite_and_non_negative(self, bad):
        with pytest.raises(ValueError, match="bad energy"):
            _trace("t", (0, 1.0), (1, bad))

    def test_energy_at_missing_step(self):
        with pytest.raises(KeyError):
            _trace("t", (0, 1.0)).energy_at(5)


class TestMeanTrace:
    def test_stepwise_average(self):
        a = _trace("a", (0, 1.0), (1, 3.0))
        b = _trace("b", (0, 2.0), (1, 5.0))
        mean = mean_trace([a, b], "mean")
        assert mean.label == "mean"
        assert mean.rows == ((0, 1.5), (1, 4.0))

    def test_requires_traces(self):
        with pytest.raises(StatError, match="no traces"):
            mean_trace([], "empty")

    def test_requires_a_shared_step_grid(self):
        a = _trace("a", (0, 1.0), (1, 3.0))
        b = _trace("b", (0, 2.0), (2, 5.0))
        with pytest.raises(ComparisonError, match="step grid"):
            mean_trace([a, b], "mean")


class TestSnapshotSeries:
    def test_identical_snapshots_give_zero(self):
        grid = LatentGrid.full(1, 2, 2, 1.5)
        segments = p_x0_mse_series([(0, grid), (1, grid), (2, grid)])
        assert segments == [[(1, 0.0), (2, 0.0)]]

    def test_scalar_change(self):
        segments = p_x0_mse_series(
            [(0, LatentGrid.full(1, 1, 1, 1.0)), (1, LatentGrid.full(1, 1, 1, 3.0))]
        )
        assert segments == [[(1, 4.0)]]

    def test_shape_change_starts_a_new_segment(self):
        small_a = LatentGrid.full(1, 2, 2, 1.0)
        small_b = LatentGrid.full(1, 2, 2, 2.0)
        big_a = LatentGrid.full(1, 4, 4, 5.0)
        big_b = LatentGrid.full(1, 4, 4, 5.5)
        segments = p_x0_mse_series([(0, small_a), (1, small_b), (2, big_a), (3, big_b)])
        # the mixed-shape pair (1, 2) contributes nothing
        assert segments == [[(1, 1.0)], [(3, 0.25)]]

    def test_too_few_snapshots(self):
        with pytest.raises(StatError, match="at least 2"):
            p_x0_mse_series([(0, LatentGrid.zeros(1, 1, 1))])


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
        with pytest.raises(StatError, match="3 points"):
            monotonicity_stat([(1, 1.0), (2, 2.0)])
        with pytest.raises(StatError, match="3 points"):
            monotonicity_stat([(1, 1.0), (1, 2.0), (2, 3.0)])

    def test_fully_tied_response_rejected(self):
        with pytest.raises(StatError, match="tied"):
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
        with pytest.raises(StatError, match="10000"):
            z_test_mean_var(np.zeros(9_999), 0.0, 1.0)

    def test_variance_must_be_positive(self):
        with pytest.raises(StatError, match="variance"):
            z_test_mean_var(np.zeros(20_000), 0.0, 0.0)
