"""Binary tensor format: round trips and header validation offsets."""

from __future__ import annotations

import builtins
import struct

import numpy as np
import pytest

from restage import tensorfile
from restage.cli import _write_csv
from restage.errors import TensorFormatError
from restage.latent import LatentGrid
from restage.tensorfile import MAGIC, VERSION, read_grid, read_tensor, write_grid, write_tensor


def _header(version=VERSION, dims=(2, 2)):
    return MAGIC + struct.pack("<II", version, len(dims)) + struct.pack(f"<{len(dims)}I", *dims)


class TestRoundTrip:
    @pytest.mark.parametrize("shape", [(5,), (2, 3), (2, 3, 4), (1,) * 8])
    def test_values_survive_as_float32(self, tmp_path, shape):
        rng = np.random.default_rng(1)
        values = rng.normal(0.0, 3.0, size=shape)
        path = tmp_path / "t.rhrt"
        write_tensor(path, values)
        back = read_tensor(path)
        assert back.dtype == np.float32
        assert back.shape == shape
        assert np.array_equal(back, values.astype(np.float32))

    def test_rewriting_the_readback_is_byte_identical(self, tmp_path):
        values = np.random.default_rng(2).normal(size=(3, 4))
        first = tmp_path / "a.rhrt"
        second = tmp_path / "b.rhrt"
        write_tensor(first, values)
        write_tensor(second, read_tensor(first))
        assert first.read_bytes() == second.read_bytes()

    def test_grid_round_trip(self, tmp_path):
        grid = LatentGrid(np.random.default_rng(3).normal(size=(2, 3, 3)))
        path = tmp_path / "g.rhrt"
        write_grid(path, grid)
        back = read_grid(path)
        assert back.data.dtype == np.float64
        assert np.array_equal(back.data, grid.data.astype(np.float32).astype(np.float64))


class TestWriteValidation:
    def test_rank_zero_rejected(self, tmp_path):
        with pytest.raises(TensorFormatError, match="rank"):
            write_tensor(tmp_path / "t.rhrt", np.float64(1.0))

    def test_rank_nine_rejected(self, tmp_path):
        with pytest.raises(TensorFormatError, match="rank"):
            write_tensor(tmp_path / "t.rhrt", np.zeros((1,) * 9))

    def test_float32_overflow_rejected(self, tmp_path):
        # finite in float64 but infinite once truncated to storage precision
        with pytest.warns(RuntimeWarning), pytest.raises(ValueError, match="finite"):
            write_tensor(tmp_path / "t.rhrt", np.array([1e39]))


class TestAtomicWrites:
    @pytest.mark.parametrize(
        "write",
        [
            lambda path: write_tensor(path, np.ones((2, 3))),
            lambda path: _write_csv(path, "a,b", ["1,2", "3,4"]),
        ],
        ids=["tensor", "csv"],
    )
    def test_a_write_that_fails_partway_leaves_no_file(self, tmp_path, monkeypatch, write):
        class DiskFull:
            """A file that takes its first chunk and fails on the next."""

            def __init__(self, path, mode):
                self._fh = builtins.open(path, mode)
                self._chunks = 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._fh.close()

            def write(self, chunk):
                self._chunks += 1
                if self._chunks > 1:
                    raise OSError("disk full")
                return self._fh.write(chunk)

        monkeypatch.setattr(tensorfile, "open", DiskFull, raising=False)
        target = tmp_path / "out"
        with pytest.raises(OSError, match="disk full"):
            write(target)
        assert list(tmp_path.iterdir()) == []
        # an earlier complete file under the final name survives intact
        target.write_bytes(b"old")
        with pytest.raises(OSError, match="disk full"):
            write(target)
        assert list(tmp_path.iterdir()) == [target]
        assert target.read_bytes() == b"old"


class TestReadValidation:
    def _expect(self, tmp_path, blob, offset, fragment):
        path = tmp_path / "bad.rhrt"
        path.write_bytes(blob)
        with pytest.raises(TensorFormatError, match=fragment) as info:
            read_tensor(path)
        assert info.value.offset == offset
        assert f"byte offset {offset}" in str(info.value)

    def test_bad_magic(self, tmp_path):
        self._expect(tmp_path, b"XXXX" + b"\x00" * 12, 0, "magic")

    def test_truncated_before_version(self, tmp_path):
        self._expect(tmp_path, MAGIC, 4, "version")

    def test_unsupported_version(self, tmp_path):
        self._expect(tmp_path, _header(version=2) + b"\x00" * 16, 4, "version")

    def test_truncated_before_rank(self, tmp_path):
        self._expect(tmp_path, MAGIC + struct.pack("<I", VERSION), 8, "ndim")

    @pytest.mark.parametrize("ndim", [0, 9])
    def test_rank_out_of_range(self, tmp_path, ndim):
        blob = MAGIC + struct.pack("<II", VERSION, ndim)
        self._expect(tmp_path, blob, 8, "rank")

    def test_truncated_dims_list(self, tmp_path):
        blob = MAGIC + struct.pack("<II", VERSION, 2) + struct.pack("<I", 3)
        self._expect(tmp_path, blob, len(blob), "dims")

    def test_zero_dimension(self, tmp_path):
        blob = _header(dims=(3, 0))
        self._expect(tmp_path, blob, 16, "dimension 1")

    def test_payload_length_mismatch(self, tmp_path):
        blob = _header(dims=(2, 2)) + b"\x00" * 8  # needs 16 payload bytes
        self._expect(tmp_path, blob, 20, "payload length")

    def test_non_finite_payload(self, tmp_path):
        payload = np.array([1.0, 2.0, np.inf, 4.0], dtype="<f4").tobytes()
        blob = MAGIC + struct.pack("<II", VERSION, 1) + struct.pack("<I", 4) + payload
        self._expect(tmp_path, blob, 16 + 8, "non-finite")

    def test_grid_reader_requires_rank_three(self, tmp_path):
        path = tmp_path / "flat.rhrt"
        write_tensor(path, np.zeros((2, 2)))
        with pytest.raises(TensorFormatError, match="rank-3") as info:
            read_grid(path)
        assert info.value.offset == 8
