"""Grids, seeded streams, energies, and the bilinear resampler."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from restage.latent import LatentGrid, SeededRng, average_energy, gaussian_noise, resize_bilinear

from _toys import direct_average_energy, direct_resize_bilinear


class TestLatentGrid:
    def test_wraps_and_converts_to_float64(self):
        grid = LatentGrid([[[1, 2], [3, 4]]])
        assert grid.data.dtype == np.float64
        assert grid.data.shape == (1, 2, 2)

    def test_holds_a_float64_array_as_it_is(self):
        src = np.ones((2, 1, 2, 2))
        assert LatentGrid(src).data is src


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
        assert isinstance(a, np.ndarray) and a.shape == (2, 3, 3)
        assert np.array_equal(a, b)

    def test_standard_moments(self):
        noise = gaussian_noise(4, 64, 64, SeededRng(7).stream("init"))
        n = noise.size
        assert abs(noise.mean()) < 4.0 / np.sqrt(n)
        assert 0.9 < noise.var() < 1.1


# the workloads' batch shapes, a two-seed batch and one lone latent
ENERGY_SHAPES = [
    (24, 4, 16, 16), (24, 4, 32, 32), (4, 4, 128, 128), (4, 4, 256, 256), (2, 4, 32, 32),
    (4, 16, 16),
]
SHAPE_IDS = ["x".join(map(str, shape)) for shape in ENERGY_SHAPES]


def _latents(shape):
    """A (B, C, H, W) batch of offset normal latents; a lone latent is a batch of one."""
    x = 0.3 + 1.7 * np.random.default_rng(list(shape)).standard_normal(shape)
    return x if x.ndim == 4 else x[None]


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


class TestAverageEnergy:
    """One dot product per seed: bitwise the same in any batch, and the
    direct mean to rounding (docs/DECISIONS.md entry 20)."""

    def test_values(self):
        assert average_energy(np.full((2, 3, 3), 0.0)) == 0.0
        assert average_energy(np.full((2, 3, 3), 2.0)) == 4.0
        assert average_energy(np.array([[[1.0, 2.0], [3.0, 4.0]]])) == 7.5
        # a (B, C, H, W) batch gives one energy per seed
        batch = np.stack([np.zeros((2, 3, 3)), np.full((2, 3, 3), 2.0), np.full((2, 3, 3), -3.0)])
        assert average_energy(batch).tolist() == [0.0, 4.0, 9.0]

    @pytest.mark.parametrize("shape", ENERGY_SHAPES, ids=SHAPE_IDS)
    def test_each_energy_is_its_row_summed_alone(self, shape):
        x = _latents(shape)
        got = average_energy(x)
        assert got.shape == (len(x),)
        alone = [average_energy(row) for row in x]
        assert all(np.ndim(e) == 0 for e in alone)
        assert np.array_equal(_bits(got), _bits(alone))
        assert np.array_equal(_bits(average_energy(x[::-1])), _bits(got[::-1]))

    @pytest.mark.parametrize("shape", ENERGY_SHAPES, ids=SHAPE_IDS)
    def test_agrees_with_the_direct_mean(self, shape):
        x = _latents(shape)
        want = direct_average_energy(x)
        assert np.all(np.abs(average_energy(x) - want) <= 1e-13 * want)

    @pytest.mark.parametrize("shape", ENERGY_SHAPES, ids=SHAPE_IDS)
    def test_a_nan_row_gives_nan_in_that_row_only(self, shape):
        x = _latents(shape)
        clean = average_energy(x)
        bad = len(x) // 2
        x[bad, -1, 3, 5] = np.nan
        got = average_energy(x)
        assert np.isnan(got[bad]) and np.isnan(average_energy(x[bad]))
        keep = np.arange(len(x)) != bad
        assert np.array_equal(_bits(got[keep]), _bits(clean[keep]))

    @pytest.mark.parametrize("shape", ENERGY_SHAPES, ids=SHAPE_IDS)
    def test_an_overflowing_row_gives_inf_without_a_warning(self, shape):
        x = _latents(shape)
        clean = average_energy(x)
        bad = len(x) - 1
        x[bad, 0, 0, 1] = -1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = average_energy(x)
            alone = average_energy(x[bad])
        assert got[bad] == alone == np.inf
        keep = np.arange(len(x)) != bad
        assert np.array_equal(_bits(got[keep]), _bits(clean[keep]))


class TestResizeBilinear:
    def test_doubling_a_pair(self):
        out = resize_bilinear(LatentGrid([[[0.0, 1.0]]]), 1, 4)
        assert np.allclose(out.data[0, 0], [0.0, 0.25, 0.75, 1.0], atol=1e-15)

    def test_constant_is_exact(self):
        out = resize_bilinear(LatentGrid(np.full((2, 3, 3), 3.7)), 7, 5)
        assert np.allclose(out.data, 3.7, atol=1e-15)

    def test_same_size_is_the_identity(self):
        grid = LatentGrid(gaussian_noise(2, 5, 6, SeededRng(3).stream("init")))
        assert np.array_equal(resize_bilinear(grid, 5, 6).data, grid.data)

    def test_upsample_shape_and_containment(self):
        grid = LatentGrid(gaussian_noise(3, 4, 4, SeededRng(4).stream("init")))
        out = resize_bilinear(grid, 8, 8)
        assert out.data.shape == (3, 8, 8)
        for c in range(3):
            assert out.data[c].min() >= grid.data[c].min() - 1e-12
            assert out.data[c].max() <= grid.data[c].max() + 1e-12

    def test_downsample_shape(self):
        grid = LatentGrid(gaussian_noise(1, 8, 8, SeededRng(5).stream("init")))
        assert resize_bilinear(grid, 3, 5).data.shape == (1, 3, 5)

    def test_bad_target(self):
        with pytest.raises(ValueError, match="positive"):
            resize_bilinear(LatentGrid(np.zeros((1, 2, 2))), 0, 2)

    def test_returns_a_new_writable_array_and_leaves_its_input(self):
        src = np.random.default_rng(3).normal(size=(2, 3, 4, 4))
        before = src.copy()
        for target in ((4, 4), (7, 5)):
            out = resize_bilinear(LatentGrid(src), *target).data
            assert out.flags.writeable and not np.shares_memory(out, src)
            out += 1.0
            assert np.array_equal(src, before)

    @pytest.mark.parametrize(
        "shape, target",
        [
            ((4, 4, 128, 128), (256, 256)),
            ((64, 4, 16, 16), (32, 32)),
            ((8, 4, 8, 8), (20, 20)),
            ((3, 4, 20, 20), (13, 9)),
        ],
    )
    def test_a_channel_stack_matches_the_direct_form_grid_by_grid(self, shape, target):
        # a (B, C, H, W) batch resized as it is, as the stage boundaries and
        # the dataset prior resize theirs
        batch = np.random.default_rng(sum(shape)).normal(size=shape)
        got = resize_bilinear(LatentGrid(batch), *target).data
        assert got.shape == (*shape[:2], *target)
        for row, grid in zip(got, batch):
            want = direct_resize_bilinear(grid, *target)
            assert np.array_equal(row.view(np.uint64), want.view(np.uint64))

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        src_h=st.integers(1, 6),
        src_w=st.integers(1, 6),
        dst_h=st.integers(1, 12),
        dst_w=st.integers(1, 12),
    )
    def test_output_range_contained_per_channel(self, seed, src_h, src_w, dst_h, dst_w):
        grid = LatentGrid(gaussian_noise(2, src_h, src_w, SeededRng(seed).stream("init")))
        out = resize_bilinear(grid, dst_h, dst_w)
        assert out.data.shape == (2, dst_h, dst_w)
        for c in range(2):
            span = max(1.0, float(np.abs(grid.data[c]).max()))
            assert out.data[c].min() >= grid.data[c].min() - 1e-12 * span
            assert out.data[c].max() <= grid.data[c].max() + 1e-12 * span

    def test_upsampling_noise_sheds_energy(self):
        noise = gaussian_noise(1, 64, 64, SeededRng(8).stream("init"))
        up = resize_bilinear(LatentGrid(noise), 128, 128)
        assert average_energy(up.data) < 0.6 * average_energy(noise)

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
