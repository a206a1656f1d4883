"""Closed-form noise predictors: Gaussian prior, point-set prior, guidance mix."""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from restage.denoiser import (
    Condition,
    DatasetPrior,
    GaussianPrior,
    UNCONDITIONAL,
    cfg_combine,
    dataset_posterior_mean,
)
from restage.errors import DenoiserError, ShapeError
from restage.latent import LatentGrid, SeededRng, gaussian_noise
from restage.schedule import build_schedule, build_timeline

from _toys import TIMELINE, direct_posterior_mean

# one-step timeline whose only level is exactly 0.5, for hand calculations
HALF_TIMELINE = build_timeline(build_schedule("linear", 0.5, 0.5, 1), 1)


class TestCondition:
    def test_flags(self):
        assert not UNCONDITIONAL.is_conditional
        assert Condition(label=2).is_conditional
        assert "unconditional" in repr(UNCONDITIONAL)
        assert "label=2" in repr(Condition(label=2))


class TestGaussianPrior:
    def test_prediction_vanishes_at_the_scaled_mean(self):
        mean = LatentGrid(np.random.default_rng(1).normal(size=(2, 4, 4)))
        prior = GaussianPrior(mean, 0.7, TIMELINE)
        ab = float(TIMELINE.alpha_bar_at_step[20])
        x_t = LatentGrid(np.sqrt(ab) * mean.data)
        eps = prior.predict_eps(x_t.data, 20, UNCONDITIONAL)
        assert np.allclose(eps, 0.0, atol=1e-12)

    def test_scalar_hand_case(self):
        # zero mean, unit variance, level 0.5, x = 1:
        # posterior gain sqrt(0.5), estimate and prediction both 1/sqrt(2)
        prior = GaussianPrior(LatentGrid.zeros(1, 1, 1), 1.0, HALF_TIMELINE)
        eps = prior.predict_eps(LatentGrid.full(1, 1, 1, 1.0).data, 0, UNCONDITIONAL)
        assert float(eps[0, 0, 0]) == pytest.approx(0.7071067811865475, abs=1e-15)

    def test_prediction_is_affine_in_the_latent(self):
        rng = np.random.default_rng(2)
        prior = GaussianPrior(LatentGrid(rng.normal(size=(1, 3, 3))), 1.4, TIMELINE)
        x1 = LatentGrid(rng.normal(size=(1, 3, 3)))
        x2 = LatentGrid(rng.normal(size=(1, 3, 3)))
        lam = 0.3
        blend = LatentGrid(lam * x1.data + (1 - lam) * x2.data)
        got = prior.predict_eps(blend.data, 11, UNCONDITIONAL)
        want = lam * prior.predict_eps(x1.data, 11, UNCONDITIONAL) + (
            1 - lam
        ) * prior.predict_eps(x2.data, 11, UNCONDITIONAL)
        assert np.allclose(got, want, atol=1e-12)

    def test_condition_has_no_effect(self):
        prior = GaussianPrior(LatentGrid.full(1, 2, 2, 0.3), 1.0, TIMELINE)
        x = gaussian_noise(1, 2, 2, SeededRng(3).stream("init"))
        a = prior.predict_eps(x.data, 5, UNCONDITIONAL)
        b = prior.predict_eps(x.data, 5, Condition(label=3))
        assert np.array_equal(a, b)

    def test_other_resolutions_broadcast_channel_means(self):
        rng = np.random.default_rng(4)
        mean = LatentGrid(rng.normal(size=(2, 4, 4)))
        prior = GaussianPrior(mean, 0.9, TIMELINE)
        broadcast = prior.mean_for_shape(8, 8)
        channel_means = mean.data.mean(axis=(1, 2))
        assert broadcast.shape == (2, 8, 8)
        assert np.array_equal(broadcast, np.broadcast_to(channel_means[:, None, None], (2, 8, 8)))
        # prediction at the new shape must equal a prior built on that mean
        flat_prior = GaussianPrior(LatentGrid(np.array(broadcast)), 0.9, TIMELINE)
        x = gaussian_noise(2, 8, 8, SeededRng(5).stream("init"))
        assert np.array_equal(
            prior.predict_eps(x.data, 7, UNCONDITIONAL),
            flat_prior.predict_eps(x.data, 7, UNCONDITIONAL),
        )

    def test_native_resolution_uses_the_stored_mean(self):
        mean = LatentGrid(np.random.default_rng(6).normal(size=(2, 4, 4)))
        prior = GaussianPrior(mean, 1.0, TIMELINE)
        assert prior.mean_for_shape(4, 4) is mean.data

    def test_channel_mismatch(self):
        prior = GaussianPrior(LatentGrid.zeros(2, 4, 4), 1.0, TIMELINE)
        with pytest.raises(DenoiserError, match="channels"):
            prior.predict_eps(LatentGrid.zeros(3, 4, 4).data, 0, UNCONDITIONAL)

    def test_bad_variance(self):
        with pytest.raises(ValueError, match="variance"):
            GaussianPrior(LatentGrid.zeros(1, 2, 2), 0.0, TIMELINE)

    @pytest.mark.parametrize("step", [-1, 50])
    def test_step_outside_timeline(self, step):
        prior = GaussianPrior(LatentGrid.zeros(1, 2, 2), 1.0, TIMELINE)
        with pytest.raises(DenoiserError, match="step"):
            prior.predict_eps(LatentGrid.zeros(1, 2, 2).data, step, UNCONDITIONAL)


def _points(values):
    return [LatentGrid.full(1, 1, 1, v) for v in values]


class TestDatasetPrior:
    def test_single_point_posterior_is_that_point(self):
        prior = DatasetPrior(_points([1.7]), [0], TIMELINE)
        x = LatentGrid.full(1, 1, 1, -3.0)
        mean = dataset_posterior_mean(prior, x.data, 0.5, UNCONDITIONAL)
        assert float(mean[0, 0, 0]) == 1.7

    def test_symmetric_pair_balances_to_zero(self):
        point = LatentGrid(np.random.default_rng(7).normal(size=(2, 3, 3)))
        mirrored = LatentGrid(-point.data)
        prior = DatasetPrior([point, mirrored], [0, 0], TIMELINE)
        mean = dataset_posterior_mean(prior, LatentGrid.zeros(2, 3, 3).data, 0.5, UNCONDITIONAL)
        assert np.all(mean == 0.0)

    def test_equidistant_points_share_weight_exactly(self):
        prior = DatasetPrior(_points([1.0, 3.0]), [0, 0], TIMELINE)
        ab = 0.5
        midpoint = LatentGrid.full(1, 1, 1, np.sqrt(ab) * 2.0)
        mean = dataset_posterior_mean(prior, midpoint.data, ab, UNCONDITIONAL)
        assert float(mean[0, 0, 0]) == pytest.approx(2.0, abs=1e-12)

    def test_distant_query_collapses_onto_the_nearest_point(self):
        prior = DatasetPrior(_points([0.0, 2.0]), [0, 0], TIMELINE)
        mean = dataset_posterior_mean(
            prior, LatentGrid.full(1, 1, 1, 10.0).data, 0.5, UNCONDITIONAL
        )
        assert float(mean[0, 0, 0]) == pytest.approx(2.0, abs=1e-6)

    def test_near_clean_level_snaps_to_the_matching_point(self):
        rng = np.random.default_rng(8)
        points = [LatentGrid(rng.normal(size=(1, 2, 2))) for _ in range(5)]
        prior = DatasetPrior(points, [0] * 5, TIMELINE)
        ab = 1.0 - 1e-6
        x = LatentGrid(np.sqrt(ab) * points[3].data)
        mean = dataset_posterior_mean(prior, x.data, ab, UNCONDITIONAL)
        assert np.allclose(mean, points[3].data, atol=1e-9)

    def test_posterior_stays_in_the_convex_hull(self):
        rng = np.random.default_rng(9)
        points = [LatentGrid(rng.normal(size=(2, 2, 2))) for _ in range(6)]
        prior = DatasetPrior(points, [0] * 6, TIMELINE)
        stack = np.stack([p.data for p in points])
        for seed in range(5):
            x = gaussian_noise(2, 2, 2, SeededRng(seed).stream("init"))
            mean = dataset_posterior_mean(prior, x.data, 0.3, UNCONDITIONAL)
            assert np.all(mean >= stack.min(axis=0) - 1e-12)
            assert np.all(mean <= stack.max(axis=0) + 1e-12)

    def test_condition_restricts_to_the_labelled_points(self):
        prior = DatasetPrior(_points([-5.0, 4.0]), [0, 1], TIMELINE)
        x = LatentGrid.zeros(1, 1, 1)
        only_one = dataset_posterior_mean(prior, x.data, 0.5, Condition(label=1))
        assert float(only_one[0, 0, 0]) == 4.0

    def test_unknown_label(self):
        prior = DatasetPrior(_points([1.0]), [0], TIMELINE)
        with pytest.raises(DenoiserError, match="label 5"):
            dataset_posterior_mean(prior, LatentGrid.zeros(1, 1, 1).data, 0.5, Condition(label=5))

    @pytest.mark.parametrize("ab", [0.0, 1.0, -0.2, 1.5])
    def test_level_must_be_interior(self, ab):
        prior = DatasetPrior(_points([1.0]), [0], TIMELINE)
        with pytest.raises(ValueError, match="alpha_bar_t"):
            dataset_posterior_mean(prior, LatentGrid.zeros(1, 1, 1).data, ab, UNCONDITIONAL)

    def test_channel_mismatch(self):
        prior = DatasetPrior(_points([1.0]), [0], TIMELINE)
        with pytest.raises(DenoiserError, match="channels"):
            dataset_posterior_mean(prior, LatentGrid.zeros(2, 1, 1).data, 0.5, UNCONDITIONAL)

    def test_construction_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            DatasetPrior([], [], TIMELINE)
        with pytest.raises(ValueError, match="labels"):
            DatasetPrior(_points([1.0, 2.0]), [0], TIMELINE)
        with pytest.raises(ShapeError, match="point 1"):
            DatasetPrior(
                [LatentGrid.zeros(1, 2, 2), LatentGrid.zeros(1, 3, 3)], [0, 0], TIMELINE
            )

    def test_resampled_stack_matches_per_point_resizing(self):
        from restage.latent import resize_bilinear

        rng = np.random.default_rng(10)
        points = [LatentGrid(rng.normal(size=(2, 4, 4))) for _ in range(3)]
        prior = DatasetPrior(points, [0] * 3, TIMELINE)
        stack = prior.stack_for_shape(8, 8)
        want = np.stack([resize_bilinear(p, 8, 8).data for p in points])
        assert np.array_equal(stack, want)

    def test_stack_cache_is_reused(self):
        prior = DatasetPrior(_points([1.0, 2.0]), [0, 0], TIMELINE)
        prior.prepare_resolution(3, 3)
        assert prior.stack_for_shape(3, 3) is prior.stack_for_shape(3, 3)

    def test_predict_eps_consistent_with_the_posterior_mean(self):
        rng = np.random.default_rng(11)
        points = [LatentGrid(rng.normal(size=(1, 2, 2))) for _ in range(4)]
        prior = DatasetPrior(points, [0] * 4, HALF_TIMELINE)
        x = gaussian_noise(1, 2, 2, SeededRng(12).stream("init"))
        eps = prior.predict_eps(x.data, 0, UNCONDITIONAL)
        mean = dataset_posterior_mean(prior, x.data, 0.5, UNCONDITIONAL)
        want = (x.data - np.sqrt(0.5) * mean) / np.sqrt(0.5)
        assert np.allclose(eps, want, atol=1e-14)


@st.composite
def posterior_cases(draw):
    """A labelled point set, a query at the native or a resampled size, a branch, a level."""
    n = draw(st.integers(1, 12))
    channels = draw(st.integers(1, 3))
    height, width = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = rng.normal(size=(n, channels, height, width)) * 10.0 ** draw(st.floats(-3, 2))
    if n > 1 and draw(st.booleans()):
        # near-duplicate of point 0, off by a relative 1e-12 .. 1e-4
        dup = draw(st.integers(1, n - 1))
        offset = 10.0 ** draw(st.floats(-12, -4))
        data[dup] = data[0] * (1.0 + offset * rng.normal(size=data[0].shape))
    labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    label = draw(st.none() | st.sampled_from(sorted(set(labels))))
    level = draw(st.sampled_from(["near-0", "interior", "near-1"]))
    if level == "near-0":
        ab = 10.0 ** draw(st.floats(-8, -2))
    elif level == "interior":
        ab = draw(st.floats(0.01, 0.99))
    else:
        ab = 1.0 - 10.0 ** draw(st.floats(-14, -8))
    if draw(st.booleans()):
        query_shape = (height, width)
    else:
        query_shape = (draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    x = rng.normal(size=(channels, *query_shape))
    x *= 10.0 ** draw(st.floats(-3, 3)) / np.linalg.norm(x)
    prior = DatasetPrior([LatentGrid(d) for d in data], labels, TIMELINE)
    return prior, LatentGrid(x), ab, Condition(label=label)


class TestMatrixFormPosterior:
    @settings(max_examples=300, deadline=None)
    @given(case=posterior_cases())
    def test_matches_the_direct_difference_form(self, case):
        prior, x, ab, condition = case
        got = dataset_posterior_mean(prior, x.data, ab, condition)
        want = direct_posterior_mean(prior, x, ab, condition).data
        # float64 rounding of the log-weights, scaled by their magnitude L
        stack = prior.stack_for_shape(x.height, x.width)
        if condition.is_conditional:
            stack = stack[[lab == condition.label for lab in prior.labels]]
        flat = stack.reshape(len(stack), -1)
        xf = x.data.reshape(-1)
        log_scale = (
            xf @ xf / 2.0
            + np.sqrt(ab) * np.abs(flat @ xf).max()
            + ab * np.einsum("nd,nd->n", flat, flat).max() / 2.0
        ) / (1.0 - ab)
        tol = 1e-13 * np.abs(flat).max() * (1.0 + log_scale)
        assert np.abs(got - want).max() <= tol

    def test_threads_filling_a_cold_cache_agree_with_serial_calls(self):
        rng = np.random.default_rng(14)
        points = [LatentGrid(rng.normal(size=(2, 4, 4))) for _ in range(8)]
        labels = [i % 3 for i in range(8)]
        queries = [
            (LatentGrid(rng.normal(size=(2, side, side))), Condition(label=label))
            for side in (4, 6, 8)
            for label in (None, 0, 1, 2)
        ]
        serial = DatasetPrior(points, labels, TIMELINE)
        want = [dataset_posterior_mean(serial, x.data, 0.4, c) for x, c in queries]
        shared = DatasetPrior(points, labels, TIMELINE)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [
                    pool.submit(dataset_posterior_mean, shared, x.data, 0.4, c) for x, c in queries * 4
                ]
                got = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for i, mean in enumerate(got):
            assert np.array_equal(mean, want[i % len(queries)])


class TestCfgCombine:
    def _branches(self):
        rng = np.random.default_rng(13)
        u = LatentGrid(rng.normal(size=(2, 3, 3)))
        c = LatentGrid(rng.normal(size=(2, 3, 3)))
        return u, c

    def test_endpoint_scales(self):
        u, c = self._branches()
        assert np.array_equal(cfg_combine(u.data, c.data, 0.0), u.data)
        # omega = 1 recovers the conditional branch up to one cancellation
        assert np.allclose(cfg_combine(u.data, c.data, 1.0), c.data, atol=1e-15)

    def test_extrapolation(self):
        u = LatentGrid.full(1, 1, 1, 1.0)
        c = LatentGrid.full(1, 1, 1, 2.0)
        assert float(cfg_combine(u.data, c.data, 5.0)[0, 0, 0]) == 6.0

    def test_identical_branches_are_a_fixed_point(self):
        u, _ = self._branches()
        assert np.array_equal(cfg_combine(u.data, u.data, 17.0), u.data)

    @settings(max_examples=40, deadline=None)
    @given(
        w1=st.floats(-4, 8, allow_nan=False),
        w2=st.floats(-4, 8, allow_nan=False),
    )
    def test_affine_in_omega(self, w1, w2):
        u, c = self._branches()
        mid = cfg_combine(u.data, c.data, (w1 + w2) / 2.0)
        avg = (cfg_combine(u.data, c.data, w1) + cfg_combine(u.data, c.data, w2)) / 2.0
        assert np.allclose(mid, avg, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError, match="shapes differ"):
            cfg_combine(LatentGrid.zeros(1, 2, 2).data, LatentGrid.zeros(1, 2, 3).data, 1.0)
