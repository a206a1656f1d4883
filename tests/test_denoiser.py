"""Closed-form noise predictors: Gaussian prior, point-set prior, guidance mix."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from restage.denoiser import DatasetPrior, GaussianPrior, cfg_combine, dataset_posterior_mean
from restage.latent import LatentGrid, SeededRng, gaussian_noise

from _toys import TIMELINE, direct_posterior_mean, read_only


def _level(step):
    """The 50-step timeline's noise level at ``step``."""
    return float(TIMELINE.alpha_bar_at_step[step])


class TestGaussianPrior:
    def test_prediction_vanishes_at_the_scaled_mean(self):
        mean = np.random.default_rng(1).normal(size=(2, 4, 4))
        prior = GaussianPrior(mean, 0.7)
        ab = _level(20)
        eps = prior.predict_eps(np.sqrt(ab) * mean, ab, None)
        assert np.allclose(eps, 0.0, atol=1e-12)

    def test_scalar_hand_case(self):
        # zero mean, unit variance, level 0.5, x = 1:
        # posterior gain sqrt(0.5), estimate and prediction both 1/sqrt(2)
        prior = GaussianPrior(np.full((1, 1, 1), 0.0), 1.0)
        eps = prior.predict_eps(np.full((1, 1, 1), 1.0), 0.5, None)
        assert float(eps[0, 0, 0]) == pytest.approx(0.7071067811865475, abs=1e-15)

    def test_prediction_is_affine_in_the_latent(self):
        rng = np.random.default_rng(2)
        prior = GaussianPrior(rng.normal(size=(1, 3, 3)), 1.4)
        x1 = rng.normal(size=(1, 3, 3))
        x2 = rng.normal(size=(1, 3, 3))
        lam = 0.3
        blend = lam * x1 + (1 - lam) * x2
        got = prior.predict_eps(blend, _level(11), None)
        want = lam * prior.predict_eps(x1, _level(11), None) + (
            1 - lam
        ) * prior.predict_eps(x2, _level(11), None)
        assert np.allclose(got, want, atol=1e-12)

    def test_condition_has_no_effect(self):
        prior = GaussianPrior(np.full((1, 2, 2), 0.3), 1.0)
        x = gaussian_noise(1, 2, 2, SeededRng(3).stream("init"))
        a = prior.predict_eps(x, _level(5), None)
        b = prior.predict_eps(x, _level(5), 3)
        assert np.array_equal(a, b)

    def test_other_resolutions_broadcast_channel_means(self):
        rng = np.random.default_rng(4)
        mean = rng.normal(size=(2, 4, 4))
        prior = GaussianPrior(mean, 0.9)
        broadcast = prior.mean_for_shape(8, 8)
        channel_means = mean.mean(axis=(1, 2))
        assert broadcast.shape == (2, 8, 8)
        assert np.array_equal(broadcast, np.broadcast_to(channel_means[:, None, None], (2, 8, 8)))
        # prediction at the new shape must equal a prior built on that mean
        flat_prior = GaussianPrior(broadcast, 0.9)
        x = gaussian_noise(2, 8, 8, SeededRng(5).stream("init"))
        assert np.array_equal(
            prior.predict_eps(x, _level(7), None),
            flat_prior.predict_eps(x, _level(7), None),
        )

    def test_native_resolution_uses_the_stored_mean(self):
        prior = GaussianPrior(np.random.default_rng(6).normal(size=(2, 4, 4)), 1.0)
        assert prior.mean_for_shape(4, 4) is prior.mean

    def test_bad_variance(self):
        with pytest.raises(ValueError, match="variance"):
            GaussianPrior(np.full((1, 2, 2), 0.0), 0.0)

    @pytest.mark.parametrize(
        "mean, match",
        [
            (np.array([[[0.0, np.nan]]]), "non-finite"),
            (np.zeros((2, 2)), r"\(C, H, W\) array, got shape \(2, 2\)"),
            (np.zeros((1, 0, 2)), r"non-empty .* got shape \(1, 0, 2\)"),
        ],
    )
    def test_a_bad_mean_is_refused(self, mean, match):
        with pytest.raises(ValueError, match=match):
            GaussianPrior(mean, 1.0)

    def test_writes_to_the_callers_array_do_not_reach_predictions(self):
        given = np.random.default_rng(14).normal(size=(2, 3, 3))
        prior = GaussianPrior(given, 0.8)
        x = gaussian_noise(2, 3, 3, SeededRng(15).stream("init"))
        before = prior.predict_eps(x, _level(9), None)
        given[...] = 5.0
        assert np.array_equal(prior.predict_eps(x, _level(9), None), before)

    def test_the_mean_is_read_only(self):
        prior = GaussianPrior(np.zeros((1, 2, 2)), 1.0)
        assert not prior.mean.flags.writeable
        with pytest.raises(ValueError):
            prior.mean[0, 0, 0] = 1.0


def _points(values):
    """One 1x1x1 point per value, as an (N, 1, 1, 1) stack."""
    return np.reshape(np.asarray(values, dtype=np.float64), (-1, 1, 1, 1))


class TestDatasetPrior:
    def test_single_point_posterior_is_that_point(self):
        prior = DatasetPrior(_points([1.7]), [0])
        x = np.full((1, 1, 1), -3.0)
        mean = dataset_posterior_mean(prior, x, 0.5, None)
        assert float(mean[0, 0, 0]) == 1.7

    def test_symmetric_pair_balances_to_zero(self):
        point = np.random.default_rng(7).normal(size=(2, 3, 3))
        prior = DatasetPrior(np.stack([point, -point]), [0, 0])
        mean = dataset_posterior_mean(prior, np.full((2, 3, 3), 0.0), 0.5, None)
        assert np.all(mean == 0.0)

    def test_equidistant_points_share_weight_exactly(self):
        prior = DatasetPrior(_points([1.0, 3.0]), [0, 0])
        ab = 0.5
        midpoint = np.full((1, 1, 1), np.sqrt(ab) * 2.0)
        mean = dataset_posterior_mean(prior, midpoint, ab, None)
        assert float(mean[0, 0, 0]) == pytest.approx(2.0, abs=1e-12)

    def test_distant_query_collapses_onto_the_nearest_point(self):
        prior = DatasetPrior(_points([0.0, 2.0]), [0, 0])
        mean = dataset_posterior_mean(prior, np.full((1, 1, 1), 10.0), 0.5, None)
        assert float(mean[0, 0, 0]) == pytest.approx(2.0, abs=1e-6)

    def test_near_clean_level_snaps_to_the_matching_point(self):
        rng = np.random.default_rng(8)
        points = rng.normal(size=(5, 1, 2, 2))
        prior = DatasetPrior(points, [0] * 5)
        ab = 1.0 - 1e-6
        mean = dataset_posterior_mean(prior, np.sqrt(ab) * points[3], ab, None)
        assert np.allclose(mean, points[3], atol=1e-9)

    def test_posterior_stays_in_the_convex_hull(self):
        rng = np.random.default_rng(9)
        stack = rng.normal(size=(6, 2, 2, 2))
        prior = DatasetPrior(stack, [0] * 6)
        for seed in range(5):
            x = gaussian_noise(2, 2, 2, SeededRng(seed).stream("init"))
            mean = dataset_posterior_mean(prior, x, 0.3, None)
            assert np.all(mean >= stack.min(axis=0) - 1e-12)
            assert np.all(mean <= stack.max(axis=0) + 1e-12)

    def test_condition_restricts_to_the_labelled_points(self):
        prior = DatasetPrior(_points([-5.0, 4.0]), [0, 1])
        x = np.full((1, 1, 1), 0.0)
        only_one = dataset_posterior_mean(prior, x, 0.5, 1)
        assert float(only_one[0, 0, 0]) == 4.0

    def test_construction_validation(self):
        with pytest.raises(ValueError, match=r"non-empty .* got \(0, 1, 2, 2\)"):
            DatasetPrior(np.zeros((0, 1, 2, 2)), [])
        with pytest.raises(ValueError, match=r"non-empty .* got \(1, 2, 2\)"):
            DatasetPrior(np.zeros((1, 2, 2)), [0])
        with pytest.raises(ValueError, match="labels"):
            DatasetPrior(_points([1.0, 2.0]), [0])

    def test_resampled_stack_matches_per_point_resizing(self):
        from restage.latent import resize_bilinear

        rng = np.random.default_rng(10)
        points = rng.normal(size=(3, 2, 4, 4))
        prior = DatasetPrior(points, [0] * 3)
        stack = prior.stack_for_shape(8, 8)
        want = np.stack([resize_bilinear(LatentGrid(p), 8, 8).data for p in points])
        assert np.array_equal(stack, want) and not stack.flags.writeable

    def test_a_read_only_stack_is_kept_without_a_copy(self):
        stack = read_only(np.random.default_rng(9).normal(size=(3, 2, 3, 3)))
        prior = DatasetPrior(stack, [0] * 3)
        assert np.shares_memory(prior.points, stack)
        assert prior.stack_for_shape(3, 3) is prior.points

    def test_a_writable_stack_is_copied_read_only(self):
        given = np.random.default_rng(9).normal(size=(3, 2, 3, 3))
        prior = DatasetPrior(given, [0] * 3)
        assert not prior.points.flags.writeable
        assert not np.shares_memory(prior.points, given)
        assert np.array_equal(prior.points, given)

    def test_out_must_be_c_contiguous(self):
        prior = DatasetPrior(_points([1.0]), [0])
        strided = np.empty((1, 2, 2, 2))[..., 0]
        with pytest.raises(ValueError, match="C-contiguous"):
            dataset_posterior_mean(prior, np.zeros((1, 2, 2)), 0.5, None, strided)

    def test_stack_cache_is_reused(self):
        prior = DatasetPrior(_points([1.0, 2.0]), [0, 0])
        prior.prepare_resolution(3, 3)
        assert prior.stack_for_shape(3, 3) is prior.stack_for_shape(3, 3)

    def test_predict_eps_consistent_with_the_posterior_mean(self):
        rng = np.random.default_rng(11)
        prior = DatasetPrior(rng.normal(size=(4, 1, 2, 2)), [0] * 4)
        x = gaussian_noise(1, 2, 2, SeededRng(12).stream("init"))
        eps = prior.predict_eps(x, 0.5, None)
        mean = dataset_posterior_mean(prior, x, 0.5, None)
        want = (x - np.sqrt(0.5) * mean) / np.sqrt(0.5)
        assert np.allclose(eps, want, atol=1e-14)


@st.composite
def posterior_cases(draw):
    """A labelled point set, one query or a batch at the native or a resampled size, a branch, a level."""
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
    # one (C, H, W) query, or a (B, C, H, W) batch whose rows differ in scale
    batch = draw(st.none() | st.integers(1, 4))
    rows = 1 if batch is None else batch
    x = rng.normal(size=(rows, channels, *query_shape))
    for row in x:
        row *= 10.0 ** draw(st.floats(-3, 3)) / np.linalg.norm(row)
    prior = DatasetPrior(data, labels)
    return prior, x[0] if batch is None else x, ab, label


class TestMatrixFormPosterior:
    @settings(max_examples=300, deadline=None)
    @given(case=posterior_cases())
    def test_matches_the_direct_difference_form(self, case):
        prior, x, ab, label = case
        got = dataset_posterior_mean(prior, x, ab, label)
        assert got.shape == x.shape
        height, width = x.shape[-2:]
        stack = prior.stack_for_shape(height, width)
        if label is not None:
            stack = stack[[lab == label for lab in prior.labels]]
        flat = stack.reshape(len(stack), -1)
        for got_row, x_row in zip(got.reshape(-1, *x.shape[-3:]), x.reshape(-1, *x.shape[-3:])):
            want = direct_posterior_mean(prior, x_row, ab, label)
            # float64 rounding of the log-weights, scaled by their magnitude L
            xf = x_row.reshape(-1)
            log_scale = (
                xf @ xf / 2.0
                + np.sqrt(ab) * np.abs(flat @ xf).max()
                + ab * np.einsum("nd,nd->n", flat, flat).max() / 2.0
            ) / (1.0 - ab)
            tol = 1e-13 * np.abs(flat).max() * (1.0 + log_scale)
            assert np.abs(got_row - want).max() <= tol


class TestCfgCombine:
    """cfg_combine consumes both branch buffers, so each call gets copies."""

    def _branches(self):
        rng = np.random.default_rng(13)
        u = rng.normal(size=(2, 3, 3))
        c = rng.normal(size=(2, 3, 3))
        return u, c

    def test_endpoint_scales(self):
        u, c = self._branches()
        assert np.array_equal(cfg_combine(u.copy(), c.copy(), 0.0), u)
        # omega = 1 recovers the conditional branch up to one cancellation
        assert np.allclose(cfg_combine(u.copy(), c.copy(), 1.0), c, atol=1e-15)

    def test_extrapolation(self):
        u = np.full((1, 1, 1), 1.0)
        c = np.full((1, 1, 1), 2.0)
        assert float(cfg_combine(u.copy(), c.copy(), 5.0)[0, 0, 0]) == 6.0

    @settings(max_examples=40, deadline=None)
    @given(
        w1=st.floats(-4, 8, allow_nan=False),
        w2=st.floats(-4, 8, allow_nan=False),
    )
    def test_affine_in_omega(self, w1, w2):
        u, c = self._branches()

        def combine(omega):
            return cfg_combine(u.copy(), c.copy(), omega)

        mid = combine((w1 + w2) / 2.0)
        avg = (combine(w1) + combine(w2)) / 2.0
        assert np.allclose(mid, avg, atol=1e-12)
