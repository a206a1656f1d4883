"""Codecs and the decode-resize-encode path used at stage boundaries."""

from __future__ import annotations

import sys
import textwrap

import numpy as np
import pytest

from restage.codec import ExternalCodec, IdentityCodec, refresh_resize
from restage.errors import CodecError, ShapeError
from restage.latent import LatentGrid, SeededRng, average_energy, gaussian_noise, resize_bilinear


class TestIdentityCodec:
    def test_passes_grids_through(self):
        codec = IdentityCodec()
        grid = LatentGrid.full(1, 2, 2, 1.0)
        assert codec.granularity == 1
        assert codec.decode(grid) is grid
        assert codec.encode(grid) is grid


class TestRefreshResize:
    def test_identity_codec_reduces_to_plain_resampling(self):
        codec = IdentityCodec()
        grid = gaussian_noise(3, 5, 5, SeededRng(1).stream("init"))
        via_codec = refresh_resize(codec, grid, 9, 7)
        assert np.array_equal(via_codec.data, resize_bilinear(grid, 9, 7).data)

    def test_same_size_is_the_identity(self):
        grid = gaussian_noise(2, 4, 4, SeededRng(2).stream("init"))
        out = refresh_resize(IdentityCodec(), grid, 4, 4)
        assert np.array_equal(out.data, grid.data)

    def test_constant_grids_stay_constant(self):
        out = refresh_resize(IdentityCodec(), LatentGrid.full(2, 3, 3, 1.25), 6, 6)
        assert np.allclose(out.data, 1.25, atol=1e-15)

    def test_upsampled_noise_sheds_energy(self):
        noise = gaussian_noise(1, 32, 32, SeededRng(3).stream("init"))
        up = refresh_resize(IdentityCodec(), noise, 64, 64)
        assert average_energy(up.data) < 0.6 * average_energy(noise.data)

    def test_bad_target(self):
        with pytest.raises(ShapeError, match="positive"):
            refresh_resize(IdentityCodec(), LatentGrid.full(1, 2, 2, 0.0), 0, 4)


def _stub(tmp_path, body: str) -> str:
    """Write a codec stub script and return the command invoking it."""
    script = tmp_path / "stub_codec.py"
    script.write_text(textwrap.dedent(body), encoding="utf-8")
    return f"{sys.executable} {script}"


BLOCK_CODEC = """\
    import sys
    import numpy as np
    from restage.tensorfile import read_tensor, write_tensor

    mode, src, dst = sys.argv[1:4]
    arr = read_tensor(src)
    if mode == "decode":
        out = np.repeat(np.repeat(arr, 2, axis=1), 2, axis=2)
    else:
        out = arr[:, ::2, ::2]
    write_tensor(dst, out)
"""


class TestExternalCodec:
    def test_construction_validation(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            ExternalCodec("", workdir=tmp_path)
        with pytest.raises(ValueError, match="granularity"):
            ExternalCodec("true", workdir=tmp_path, granularity=0)

    def test_decode_scales_by_the_granularity(self, tmp_path):
        codec = ExternalCodec(_stub(tmp_path, BLOCK_CODEC), workdir=tmp_path, granularity=2)
        grid = LatentGrid([[[1.0, 2.0], [3.0, 4.0]]])
        decoded = codec.decode(grid)
        assert decoded.shape == (1, 4, 4)
        assert np.array_equal(
            decoded.data,
            np.repeat(np.repeat(grid.data, 2, axis=1), 2, axis=2),
        )

    def test_encode_inverts_decode_on_storable_values(self, tmp_path):
        codec = ExternalCodec(_stub(tmp_path, BLOCK_CODEC), workdir=tmp_path, granularity=2)
        # integer-valued grid survives the float32 transport exactly
        grid = LatentGrid(np.arange(8.0).reshape(2, 2, 2))
        assert np.array_equal(codec.encode(codec.decode(grid)).data, grid.data)

    def test_refresh_resize_through_the_external_codec(self, tmp_path):
        codec = ExternalCodec(_stub(tmp_path, BLOCK_CODEC), workdir=tmp_path, granularity=2)
        out = refresh_resize(codec, LatentGrid.full(1, 2, 2, 3.0), 4, 4)
        assert out.shape == (1, 4, 4)
        assert np.allclose(out.data, 3.0, atol=1e-6)

    def test_encode_requires_divisible_dims(self, tmp_path):
        codec = ExternalCodec(_stub(tmp_path, BLOCK_CODEC), workdir=tmp_path, granularity=2)
        with pytest.raises(ShapeError, match="not divisible"):
            codec.encode(LatentGrid.full(1, 3, 3, 0.0))

    def test_nonzero_exit_surfaces_stderr(self, tmp_path):
        command = _stub(
            tmp_path,
            """\
            import sys
            print("boom", file=sys.stderr)
            sys.exit(3)
            """,
        )
        codec = ExternalCodec(command, workdir=tmp_path, granularity=2)
        with pytest.raises(CodecError, match="status 3") as info:
            codec.decode(LatentGrid.full(1, 2, 2, 0.0))
        assert "boom" in str(info.value)

    def test_unreadable_output(self, tmp_path):
        command = _stub(
            tmp_path,
            """\
            import sys
            with open(sys.argv[3], "wb") as fh:
                fh.write(b"garbage")
            """,
        )
        codec = ExternalCodec(command, workdir=tmp_path, granularity=2)
        with pytest.raises(CodecError, match="unreadable"):
            codec.decode(LatentGrid.full(1, 2, 2, 0.0))

    def test_wrong_decode_shape(self, tmp_path):
        command = _stub(
            tmp_path,
            """\
            import sys
            import shutil
            shutil.copyfile(sys.argv[2], sys.argv[3])
            """,
        )
        codec = ExternalCodec(command, workdir=tmp_path, granularity=2)
        with pytest.raises(CodecError, match="decode returned shape"):
            codec.decode(LatentGrid.full(1, 2, 2, 0.0))

    def test_temp_files_are_cleaned_up(self, tmp_path):
        workdir = tmp_path / "scratch"
        codec = ExternalCodec(_stub(tmp_path, BLOCK_CODEC), workdir=workdir, granularity=2)
        codec.decode(LatentGrid.full(1, 2, 2, 0.0))
        assert list(workdir.glob("codec-*")) == []
