"""Codecs and the decode-resize-encode path used at stage boundaries."""

from __future__ import annotations

import os
import signal
import threading
import time

import numpy as np
import pytest

from restage.codec import ExternalCodec, IdentityCodec, refresh_resize
from restage.denoiser import GaussianPrior
from restage.errors import CodecError, SamplerError
from restage.latent import LatentGrid, SeededRng, average_energy, gaussian_noise, resize_bilinear
from restage.sampler import run

from _toys import (
    BLOCK_CODEC,
    FAILS_ON_INDEX_1,
    LOGGED_COPY,
    TIMELINE,
    codec_stub,
    most_at_once,
    read_only,
    staged_plan,
)


def _batch(*latents):
    """The read-only (B, C, H, W) batch of (C, H, W) ``latents``."""
    return read_only(latents)


class TestIdentityCodec:
    def test_passes_grids_through(self):
        codec = IdentityCodec()
        batch = _batch(np.full((2, 3, 3), 1.0), np.full((2, 3, 3), 0.5))
        assert codec.granularity == 1
        assert codec.decode(batch) is batch
        assert codec.encode(batch) is batch


class TestRefreshResize:
    def test_identity_codec_reduces_to_plain_resampling(self):
        grids = [gaussian_noise(3, 5, 5, SeededRng(s).stream("init")) for s in (1, 2)]
        out = refresh_resize(IdentityCodec(), _batch(*grids), 9, 7)
        assert out.shape == (2, 3, 9, 7) and not out.flags.writeable
        for row, grid in zip(out, grids):
            assert np.array_equal(row, resize_bilinear(LatentGrid(grid), 9, 7).data)

    def test_same_size_is_the_identity(self):
        batch = _batch(gaussian_noise(2, 4, 4, SeededRng(2).stream("init")))
        assert np.array_equal(refresh_resize(IdentityCodec(), batch, 4, 4), batch)

    def test_constant_grids_stay_constant(self):
        out = refresh_resize(IdentityCodec(), _batch(np.full((2, 3, 3), 1.25)), 6, 6)
        assert np.allclose(out, 1.25, atol=1e-15)

    def test_upsampled_noise_sheds_energy(self):
        noise = gaussian_noise(1, 32, 32, SeededRng(3).stream("init"))
        (up,) = refresh_resize(IdentityCodec(), _batch(noise), 64, 64)
        assert average_energy(up) < 0.6 * average_energy(noise)

    def test_bad_target(self):
        with pytest.raises(ValueError, match="positive"):
            refresh_resize(IdentityCodec(), _batch(np.full((1, 2, 2), 0.0)), 0, 4)

    def test_the_codec_encodes_a_read_only_batch(self):
        seen = []

        class Recording(IdentityCodec):
            def encode(self, batch):
                seen.append(batch.flags.writeable)
                return batch

        out = refresh_resize(Recording(), _batch(np.full((2, 3, 3), 0.5)), 6, 6)
        assert seen == [False] and not out.flags.writeable


class TestExternalCodec:
    def test_construction_validation(self):
        for command in ("", '""'):
            with pytest.raises(ValueError, match="names no program"):
                ExternalCodec(command, granularity=1)
        with pytest.raises(ValueError, match="granularity"):
            ExternalCodec("true", granularity=0)

    def test_decode_scales_by_the_granularity(self, tmp_path, codec_tmp):
        codec = ExternalCodec(codec_stub(tmp_path, BLOCK_CODEC), granularity=2)
        grid = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        (decoded,) = codec.decode(_batch(grid))
        assert decoded.shape == (1, 4, 4)
        assert np.array_equal(decoded, np.repeat(np.repeat(grid, 2, axis=1), 2, axis=2))

    def test_encode_inverts_decode_on_storable_values(self, tmp_path, codec_tmp):
        codec = ExternalCodec(codec_stub(tmp_path, BLOCK_CODEC), granularity=2)
        # integer-valued grid survives the float32 transport exactly
        grid = np.arange(8.0).reshape(2, 2, 2)
        (back,) = codec.encode(codec.decode(_batch(grid)))
        assert np.array_equal(back, grid)

    def test_refresh_resize_through_the_external_codec(self, tmp_path, codec_tmp):
        codec = ExternalCodec(codec_stub(tmp_path, BLOCK_CODEC), granularity=2)
        (out,) = refresh_resize(codec, _batch(np.full((1, 2, 2), 3.0)), 4, 4)
        assert out.shape == (1, 4, 4)
        assert np.allclose(out, 3.0, atol=1e-6)

    def test_nonzero_exit_surfaces_stderr(self, tmp_path, codec_tmp):
        command = codec_stub(
            tmp_path,
            """\
            import sys
            print("boom", file=sys.stderr)
            sys.exit(3)
            """,
        )
        codec = ExternalCodec(command, granularity=2)
        with pytest.raises(CodecError, match="status 3") as info:
            codec.decode(_batch(np.full((1, 2, 2), 0.0)))
        assert "boom" in str(info.value)

    def test_unreadable_output(self, tmp_path, codec_tmp):
        command = codec_stub(
            tmp_path,
            """\
            import sys
            with open(sys.argv[3], "wb") as fh:
                fh.write(b"garbage")
            """,
        )
        codec = ExternalCodec(command, granularity=2)
        with pytest.raises(CodecError, match="unreadable"):
            codec.decode(_batch(np.full((1, 2, 2), 0.0)))

    def test_wrong_decode_shape(self, tmp_path, codec_tmp):
        # copies every grid but index 2's, for which it writes one value
        command = codec_stub(
            tmp_path,
            """\
            import os, shutil, struct, sys

            src, dst = sys.argv[2:4]
            if os.path.basename(src) == "2.in":
                with open(dst, "wb") as fh:
                    fh.write(b"RHRT" + struct.pack("<5I", 1, 3, 1, 1, 1) + struct.pack("<f", 0.0))
            else:
                shutil.copyfile(src, dst)
            """,
        )
        codec = ExternalCodec(command, granularity=1)
        with pytest.raises(CodecError, match=r"decode returned shape \(1, 1, 1\)") as info:
            codec.decode(_integer_batch(4))
        assert info.value.index == 2
        assert "expected (2, 4, 4) (batch index 2)" in str(info.value)
        assert list(codec_tmp.iterdir()) == []

    def test_a_command_that_cannot_start_names_its_step_and_seed(self, tmp_path, codec_tmp):
        codec = ExternalCodec(str(tmp_path / "no-such-codec"), granularity=1)
        plan = staged_plan(2.0, 6.0)
        prior = GaussianPrior(np.full(4, 0.2), 1.0)
        with pytest.raises(SamplerError, match="decode command could not start") as info:
            run("rectified", plan, TIMELINE, prior, codec, None, [SeededRng(31), SeededRng(32)])
        assert info.value.step == plan.refresh_steps[0]
        assert info.value.seed == 31
        assert list(codec_tmp.glob("codec-*")) == []

    def test_temp_files_are_cleaned_up(self, tmp_path, codec_tmp):
        codec = ExternalCodec(codec_stub(tmp_path, BLOCK_CODEC), granularity=2)
        codec.decode(_batch(np.full((1, 2, 2), 0.0)))
        assert list(codec_tmp.glob("codec-*")) == []


def _integer_batch(n, shape=(2, 4, 4)):
    """A read-only (n, *shape) batch of distinct grids whose values survive
    the float32 transport exactly."""
    rng = np.random.default_rng(17)
    return read_only(rng.integers(-50, 50, size=(n, *shape)))


class TestConcurrentBatches:
    def test_a_batch_matches_one_grid_calls(self, tmp_path, codec_tmp):
        codec = ExternalCodec(codec_stub(tmp_path, BLOCK_CODEC), granularity=2)
        batch = _integer_batch(3)
        decoded = codec.decode(batch)
        encoded = codec.encode(decoded)
        assert decoded.shape == (3, 2, 8, 8) and encoded.shape == batch.shape
        assert not decoded.flags.writeable and not encoded.flags.writeable
        for b in range(len(batch)):
            one_dec = codec.decode(batch[b : b + 1])
            assert np.array_equal(decoded[b : b + 1], one_dec)
            assert np.array_equal(encoded[b : b + 1], codec.encode(one_dec))
        assert np.array_equal(encoded, batch)

    @pytest.mark.parametrize("one_cpu", [False, True])
    def test_at_most_one_command_per_cpu_runs_at_once(
        self, tmp_path, codec_tmp, monkeypatch, one_cpu
    ):
        if one_cpu:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        width = len(os.sched_getaffinity(0))
        log = tmp_path / "spans.log"
        codec = ExternalCodec(
            codec_stub(tmp_path, LOGGED_COPY.format(log=str(log))), granularity=1
        )
        batch = _integer_batch(3)
        assert np.array_equal(codec.decode(batch), batch)
        assert len(log.read_text().splitlines()) == len(batch)
        assert most_at_once(log) == min(width, len(batch))

    def test_a_failed_call_kills_the_batch_and_names_its_index(
        self, tmp_path, codec_tmp, monkeypatch
    ):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        codec = ExternalCodec(
            codec_stub(tmp_path, FAILS_ON_INDEX_1.format(dir=str(tmp_path))), granularity=1
        )
        start = time.monotonic()
        with pytest.raises(CodecError, match="decode command exited with status 3") as info:
            codec.decode(_integer_batch(3))
        # index 0 sleeps for five seconds: the failure of index 1 is seen
        # as it exits, not after the commands started before it
        assert time.monotonic() - start < 2.5
        assert info.value.index == 1
        assert "cannot code this grid" in str(info.value)
        assert "(batch index 1)" in str(info.value)
        assert list(codec_tmp.iterdir()) == []
        # indices 0 and 2 were still sleeping when the failure was seen: they
        # are killed, and never finish their copies
        time.sleep(0.3)
        assert list(tmp_path.glob("done-*")) == []

    def test_a_stop_that_lands_on_another_thread_ends_the_wait(self, tmp_path, codec_tmp):
        # with SIGTERM blocked on the main thread the kernel hands it to the
        # helper thread, as it may hand it to one of OpenBLAS's; only the
        # wakeup pipe then ends the main thread's wait for the command
        pids = tmp_path / "pids"
        pids.mkdir()
        body = f"""\
            import os, time

            open(os.path.join({str(pids)!r}, str(os.getpid())), "x").close()
            time.sleep(8.0)
            """
        codec = ExternalCodec(codec_stub(tmp_path, body), granularity=1)

        def stop(signum, frame):
            raise SystemExit(143)

        idle = threading.Event()
        helper = threading.Thread(target=idle.wait)
        helper.start()  # before the mask, so SIGTERM stays open on it
        previous = signal.signal(signal.SIGTERM, stop)
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
        timer = threading.Timer(0.5, os.kill, (os.getpid(), signal.SIGTERM))
        start = time.monotonic()
        try:
            timer.start()
            with pytest.raises(SystemExit):
                codec.decode(_integer_batch(1))
            elapsed = time.monotonic() - start
        finally:
            timer.cancel()
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
            signal.signal(signal.SIGTERM, previous)
            idle.set()
            helper.join()
        assert elapsed < 2.0
        (pid,) = (int(p.name) for p in pids.iterdir())
        with pytest.raises(ProcessLookupError):  # killed and reaped
            os.kill(pid, 0)
        assert list(codec_tmp.iterdir()) == []
