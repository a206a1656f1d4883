"""Grids, seeded streams, forward noising, and the two resamplers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from restage.errors import ShapeError
from restage.latent import (
    LatentGrid,
    SeededRng,
    average_energy,
    forward_diffuse,
    gaussian_noise,
    resize_bilinear,
    resize_nearest,
)


class TestLatentGrid:
    def test_wraps_and_converts_to_float64(self):
        grid = LatentGrid([[[1, 2], [3, 4]]])
        assert grid.data.dtype == np.float64
        assert grid.shape == (1, 2, 2)
        assert (grid.channels, grid.height, grid.width) == (1, 2, 2)

    def test_copies_the_input(self):
        src = np.ones((1, 2, 2))
        grid = LatentGrid(src)
        src[0, 0, 0] = 99.0
        assert grid.data[0, 0, 0] == 1.0

    def test_data_is_read_only(self):
        grid = LatentGrid.zeros(1, 2, 2)
        with pytest.raises(ValueError):
            grid.data[0, 0, 0] = 1.0

    def test_full_and_zeros(self):
        assert np.all(LatentGrid.full(2, 3, 4, 1.5).data == 1.5)
        assert np.all(LatentGrid.zeros(2, 3, 4).data == 0.0)

    @pytest.mark.parametrize("values", [np.zeros((2, 2)), np.zeros((1, 1, 2, 2))])
    def test_wrong_rank_rejected(self, values):
        with pytest.raises(ShapeError, match="3-D"):
            LatentGrid(values)

    def test_empty_rejected(self):
        with pytest.raises(ShapeError, match="positive"):
            LatentGrid(np.zeros((1, 0, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        values = np.zeros((1, 2, 2))
        values[0, 1, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            LatentGrid(values)


class TestSeededRng:
    def test_same_stream_reproduces_draws(self):
        a = SeededRng(7).stream("init").standard_normal(8)
        b = SeededRng(7).stream("init").standard_normal(8)
        assert np.array_equal(a, b)

    def test_purpose_separates_streams(self):
        a = SeededRng(7).stream("init").standard_normal(8)
        b = SeededRng(7).stream("refresh").standard_normal(8)
        assert not np.array_equal(a, b)

    def test_index_separates_streams(self):
        a = SeededRng(7).stream("refresh", 1).standard_normal(8)
        b = SeededRng(7).stream("refresh", 2).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_seed_separates_streams(self):
        a = SeededRng(7).stream("init").standard_normal(8)
        b = SeededRng(8).stream("init").standard_normal(8)
        assert not np.array_equal(a, b)

    def test_seed_domain(self):
        SeededRng(0)
        SeededRng(2**64 - 1)
        with pytest.raises(ValueError, match="seed"):
            SeededRng(-1)
        with pytest.raises(ValueError, match="seed"):
            SeededRng(2**64)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="index"):
            SeededRng(7).stream("init", -1)


class TestGaussianNoise:
    def test_deterministic_per_stream(self):
        a = gaussian_noise(2, 3, 3, SeededRng(5).stream("init"))
        b = gaussian_noise(2, 3, 3, SeededRng(5).stream("init"))
        assert np.array_equal(a.data, b.data)

    def test_standard_moments(self):
        noise = gaussian_noise(4, 64, 64, SeededRng(7).stream("init"))
        n = noise.data.size
        assert abs(noise.data.mean()) < 4.0 / np.sqrt(n)
        assert 0.9 < noise.data.var() < 1.1

    def test_bad_dims(self):
        with pytest.raises(ShapeError, match="positive"):
            gaussian_noise(0, 4, 4, SeededRng(1).stream("init"))


class TestForwardDiffuse:
    def test_full_signal_returns_the_signal(self):
        x0 = LatentGrid([[[1.0, -2.0], [0.5, 3.0]]])
        eps = LatentGrid.full(1, 2, 2, 9.0)
        assert np.array_equal(forward_diffuse(x0, 1.0, eps).data, x0.data)

    def test_zero_signal_returns_the_noise(self):
        x0 = LatentGrid.full(1, 2, 2, 9.0)
        eps = LatentGrid([[[1.0, -2.0], [0.5, 3.0]]])
        assert np.array_equal(forward_diffuse(x0, 0.0, eps).data, eps.data)

    def test_scalar_hand_case(self):
        out = forward_diffuse(LatentGrid.full(1, 1, 1, 2.0), 0.25, LatentGrid.full(1, 1, 1, 1.0))
        assert float(out.data[0, 0, 0]) == pytest.approx(1.8660254037844386, abs=1e-15)

    def test_domain_and_shape_errors(self):
        x0 = LatentGrid.zeros(1, 2, 2)
        with pytest.raises(ValueError, match="alpha_bar_t"):
            forward_diffuse(x0, 1.5, x0)
        with pytest.raises(ShapeError):
            forward_diffuse(x0, 0.5, LatentGrid.zeros(1, 2, 3))

    def test_mixture_energy_statistics(self):
        # fixed signal plus standard noise: the mean square has expectation
        # ab * E(x0^2) + (1 - ab) and a computable sampling variance
        rng = np.random.default_rng(60)
        x0 = LatentGrid(rng.normal(0.4, 0.8, size=(2, 250, 200)))
        eps = gaussian_noise(2, 250, 200, SeededRng(61).stream("init"))
        ab = 0.37
        energy = average_energy(forward_diffuse(x0, ab, eps).data)
        expected = ab * average_energy(x0.data) + (1.0 - ab)
        a = np.sqrt(ab) * x0.data
        b2 = 1.0 - ab
        var_of_mean = float(np.sum(4.0 * a * a * b2 + 2.0 * b2 * b2)) / a.size**2
        assert abs(energy - expected) < 4.0 * np.sqrt(var_of_mean)


class TestAverageEnergy:
    def test_values(self):
        assert average_energy(LatentGrid.zeros(2, 3, 3).data) == 0.0
        assert average_energy(LatentGrid.full(2, 3, 3, 2.0).data) == 4.0
        assert average_energy(LatentGrid([[[1.0, 2.0], [3.0, 4.0]]]).data) == 7.5


class TestResizeBilinear:
    def test_doubling_a_pair(self):
        out = resize_bilinear(LatentGrid([[[0.0, 1.0]]]), 1, 4)
        assert np.allclose(out.data[0, 0], [0.0, 0.25, 0.75, 1.0], atol=1e-15)

    def test_constant_is_exact(self):
        out = resize_bilinear(LatentGrid.full(2, 3, 3, 3.7), 7, 5)
        assert np.allclose(out.data, 3.7, atol=1e-15)

    def test_same_size_is_the_identity(self):
        grid = gaussian_noise(2, 5, 6, SeededRng(3).stream("init"))
        assert np.array_equal(resize_bilinear(grid, 5, 6).data, grid.data)

    def test_upsample_shape_and_containment(self):
        grid = gaussian_noise(3, 4, 4, SeededRng(4).stream("init"))
        out = resize_bilinear(grid, 8, 8)
        assert out.shape == (3, 8, 8)
        for c in range(3):
            assert out.data[c].min() >= grid.data[c].min() - 1e-12
            assert out.data[c].max() <= grid.data[c].max() + 1e-12

    def test_downsample_shape(self):
        grid = gaussian_noise(1, 8, 8, SeededRng(5).stream("init"))
        assert resize_bilinear(grid, 3, 5).shape == (1, 3, 5)

    def test_bad_target(self):
        with pytest.raises(ShapeError, match="positive"):
            resize_bilinear(LatentGrid.zeros(1, 2, 2), 0, 2)

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        src_h=st.integers(1, 6),
        src_w=st.integers(1, 6),
        dst_h=st.integers(1, 12),
        dst_w=st.integers(1, 12),
    )
    def test_output_range_contained_per_channel(self, seed, src_h, src_w, dst_h, dst_w):
        grid = gaussian_noise(2, src_h, src_w, SeededRng(seed).stream("init"))
        out = resize_bilinear(grid, dst_h, dst_w)
        assert out.shape == (2, dst_h, dst_w)
        for c in range(2):
            span = max(1.0, float(np.abs(grid.data[c]).max()))
            assert out.data[c].min() >= grid.data[c].min() - 1e-12 * span
            assert out.data[c].max() <= grid.data[c].max() + 1e-12 * span

    def test_upsampling_noise_sheds_energy(self):
        noise = gaussian_noise(1, 64, 64, SeededRng(8).stream("init"))
        up = resize_bilinear(noise, 128, 128)
        assert average_energy(up.data) < 0.6 * average_energy(noise.data)

    def test_doubling_energy_ratio_matches_the_closed_form(self):
        # closed form for 2x doubling of iid noise: two edge outputs per
        # axis keep weight 1, interior outputs carry squared-weight 0.625
        rng = np.random.default_rng(31415)
        src = LatentGrid(rng.standard_normal((1, 1024, 1024)))
        ratio = average_energy(resize_bilinear(src, 2048, 2048).data) / average_energy(src.data)
        assert ratio == pytest.approx(0.391545647893764, abs=1e-12)  # regression pin
        side = 2.0 + (2 * 1024 - 2) * 0.625
        exact = (side / (2 * 1024)) ** 2
        assert exact == pytest.approx(0.39108289778232574, abs=1e-15)
        assert abs(ratio - exact) < 3e-3


class TestResizeNearest:
    def test_doubling_replicates(self):
        out = resize_nearest(LatentGrid([[[2.0, 5.0]]]), 1, 4)
        assert out.data[0, 0].tolist() == [2.0, 2.0, 5.0, 5.0]

    def test_preserves_the_value_set(self):
        grid = gaussian_noise(1, 3, 3, SeededRng(9).stream("init"))
        out = resize_nearest(grid, 7, 7)
        assert set(out.data.ravel()) <= set(grid.data.ravel())

    def test_same_size_is_the_identity(self):
        grid = gaussian_noise(2, 4, 5, SeededRng(10).stream("init"))
        assert np.array_equal(resize_nearest(grid, 4, 5).data, grid.data)

    def test_bad_target(self):
        with pytest.raises(ShapeError, match="positive"):
            resize_nearest(LatentGrid.zeros(1, 2, 2), 2, -1)
