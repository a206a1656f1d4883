"""Binary tensor format: round trips and header validation offsets."""

from __future__ import annotations

import builtins
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from restage import tensorfile
from restage.cli import _write_csv
from restage.errors import TensorFormatError
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
        grid = np.random.default_rng(3).normal(size=(2, 3, 3))
        path = tmp_path / "g.rhrt"
        write_grid(path, grid)
        back = read_grid(path)
        assert type(back) is np.ndarray and back.dtype == np.float64
        assert not back.flags.writeable
        assert back.tobytes() == read_tensor(path).astype(np.float64).tobytes()
        assert np.array_equal(back, grid.astype(np.float32).astype(np.float64))


class TestWriteValidation:
    @pytest.mark.parametrize("shape", [(3, 3), (1, 2, 3, 3)])
    def test_grid_writer_requires_rank_three(self, tmp_path, shape):
        with pytest.raises(TensorFormatError, match="rank-3"):
            write_grid(tmp_path / "g.rhrt", np.zeros(shape))
        assert list(tmp_path.iterdir()) == []

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


# A fixed rank-3 file: 24 header bytes (magic, version, rank, three dims) and
# twelve float32 values. 1.0 and 1.5 turn infinite or NaN when their top
# exponent bit flips, and 2^127 * 1.5 when its lowest one does.
FIXED_DIMS = (2, 3, 2)
FIXED_VALUES = np.array(
    [1.0, -2.5, 0.0, 3.0e-39, 1.5, 2.0**127 * 1.5, -7.0, 0.125, 1e10, -1e-10, 42.0, 5.0],
    dtype="<f4",
)
FIXED = _header(dims=FIXED_DIMS) + FIXED_VALUES.tobytes()
HEADER_END = 24


def _offset_of_failure(blob, path):
    path.write_bytes(blob)
    with pytest.raises(TensorFormatError) as info:
        read_tensor(path)
    return info.value.offset


class TestFormatProperties:
    """Properties of the format as a whole, over every byte of a fixed file.

    A flipped payload bit that leaves a finite value is not detected: the
    format carries no checksum, so such a file reads back with the flipped
    value. The tests below claim detection only for the header, for
    truncation and for payload values that become NaN or infinite.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        arrays(
            np.float32,
            array_shapes(min_dims=1, max_dims=4, max_side=5),
            elements=st.floats(width=32, allow_nan=False, allow_infinity=False),
        )
    )
    def test_float32_arrays_round_trip_bitwise(self, tmp_path_factory, values):
        path = tmp_path_factory.mktemp("rt") / "t.rhrt"
        write_tensor(path, values)
        back = read_tensor(path)
        assert back.shape == values.shape
        assert np.array_equal(back.view(np.uint32), values.view(np.uint32))

    def test_every_truncation_names_the_field_it_cuts(self, tmp_path):
        path = tmp_path / "cut.rhrt"
        for length in range(len(FIXED)):
            if length < 4:
                want = 0  # magic
            elif length < 8:
                want = 4  # version
            elif length < 12:
                want = 8  # rank
            elif length < HEADER_END:
                want = length  # the dims list ends early, at the file's end
            else:
                want = HEADER_END  # the payload is short
            assert _offset_of_failure(FIXED[:length], path) == want, length

    def test_every_header_bit_flip_is_caught_at_its_field(self, tmp_path):
        path = tmp_path / "flip.rhrt"
        for bit in range(8 * HEADER_END):
            blob = bytearray(FIXED)
            blob[bit // 8] ^= 1 << (bit % 8)
            byte = bit // 8
            if byte < 4:
                want = 0
            elif byte < 8:
                want = 4
            elif byte < 12:
                rank = struct.unpack_from("<I", blob, 8)[0]
                want = 8
                if 1 <= rank <= 8:
                    # another valid rank re-reads the dims list, reaching into the
                    # payload for rank 7: a zero there is named, else the payload,
                    # now at 12 + 4 * rank, has the wrong length
                    dims = struct.unpack_from(f"<{rank}I", blob, 12)
                    want = next((12 + 4 * i for i, d in enumerate(dims) if d == 0), 12 + 4 * rank)
            else:
                dim = (byte - 12) // 4
                flipped = struct.unpack_from("<I", blob, 12 + 4 * dim)[0]
                # a zeroed dimension is named; any other changes the payload length
                want = 12 + 4 * dim if flipped == 0 else HEADER_END
            assert _offset_of_failure(bytes(blob), path) == want, bit

    def test_payload_flips_to_nan_or_inf_name_the_value(self, tmp_path):
        path = tmp_path / "flip.rhrt"
        caught = 0
        for bit in range(8 * (len(FIXED) - HEADER_END)):
            blob = bytearray(FIXED)
            blob[HEADER_END + bit // 8] ^= 1 << (bit % 8)
            index = bit // 32
            value = np.frombuffer(bytes(blob), dtype="<f4", offset=HEADER_END)[index]
            if np.isfinite(value):
                continue  # undetectable without a checksum; see the class docstring
            assert _offset_of_failure(bytes(blob), path) == HEADER_END + 4 * index, bit
            caught += 1
        # the exponent flips of 1.0, 1.5 and 2^127 * 1.5
        assert caught == 3
