"""End-to-end command-line coverage: golden files, determinism, error paths."""

from __future__ import annotations

import contextlib
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from restage.cli import main
from restage.denoiser import GaussianPrior
from restage.schedule import build_schedule, build_timeline
from restage.tensorfile import read_tensor, write_grid, write_tensor

from _toys import FAILS_ON_INDEX_1, WRITES_PID_THEN_SLEEPS, codec_stub

_SRC = Path(__file__).resolve().parent.parent / "src"

PAPER_LADDER = """\
    [schedule]
    num_steps = 50
    [ladder]
    preset = paper-2048
    resolutions = 16x16, 32x32
"""

# ten steps on a tiny grid keeps every CLI run under a second
SMALL = """\
    [schedule]
    num_steps = 10
    [ladder]
    t_min = 5
    t_max = 10
    n_stages = 1
    m_t = 1
    omega_min = 2
    omega_max = 2
    m_omega = 1
    resolutions = 8x8
    [denoiser]
    mean_value = 0.25
    variance = 1.5
    [run]
    variant = rectified
    seed = 4
"""

STAGED_SMALL = """\
    [schedule]
    num_steps = 10
    [ladder]
    t_min = 5
    t_max = 10
    n_stages = 2
    m_t = 1
    omega_min = 2
    omega_max = 6
    m_omega = 1
    resolutions = 8x8, 16x16
    [denoiser]
    mean_value = 0.25
    variance = 1.5
"""


def _config(tmp_path, text, name="config.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return str(path)


class TestLadder:
    def test_golden_csv(self, tmp_path, capsys):
        cfg = _config(tmp_path, PAPER_LADDER)
        assert main(["ladder", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        got = (tmp_path / "out" / "ladder.csv").read_bytes()
        assert got == (
            b"stage,first_step,last_step,height,width,omega\n"
            b"0,0,40,16,16,5\n"
            b"1,40,50,32,32,30\n"
        )
        out = capsys.readouterr().out
        assert "refresh steps: [40]" in out
        assert "stage 0: steps [0, 40) at 16x16, omega 5" in out

    def test_three_stage_preset_interpolates_omega(self, tmp_path):
        cfg = _config(
            tmp_path,
            PAPER_LADDER.replace("paper-2048", "paper-4096").replace(
                "16x16, 32x32", "16x16, 32x32, 48x48"
            ),
        )
        assert main(["ladder", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out" / "ladder.csv").read_text().splitlines()
        assert lines[1] == "0,0,40,16,16,5"
        assert lines[2] == "1,40,45,32,32,36.8198052"
        assert lines[3] == "2,45,50,48,48,50"


class TestSample:
    def test_single_stage_rectified_matches_baseline(self, tmp_path):
        cfg_a = _config(tmp_path, SMALL, "a.ini")
        cfg_b = _config(tmp_path, SMALL.replace("variant = rectified", "variant = baseline"), "b.ini")
        assert main(["sample", "--config", cfg_a, "--out", str(tmp_path / "a")]) == 0
        assert main(["sample", "--config", cfg_b, "--out", str(tmp_path / "b")]) == 0
        for name in ("trace_4.csv", "final_4.rhrt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("prior", ["gaussian", "dataset"])
    def test_batched_output_matches_one_seed_runs(self, tmp_path, capsys, prior):
        if prior == "gaussian":
            text, first = SMALL, 4
        else:
            # conditional dataset prior over two resolutions: the batch shares
            # one prior and its per-resolution and per-label caches
            rng = np.random.default_rng(12)
            write_tensor(tmp_path / "points.rhrt", 0.05 * rng.normal(size=(6, 4, 8, 8)))
            text = STAGED_SMALL.replace(
                "mean_value = 0.25\n    variance = 1.5",
                "kind = dataset\n    path = points.rhrt\n    conditional = true",
            ) + "[run]\nvariant = rectified\n"
            first = 0
        batch = tmp_path / "batch"
        cfg = _config(tmp_path, text + "run_count = 3\n")
        assert main(["sample", "--config", cfg, "--out", str(batch)]) == 0
        assert "wrote 3 run(s) to" in capsys.readouterr().out
        seeds = range(first, first + 3)
        names = sorted(p.name for p in batch.iterdir())
        assert names == [f"final_{s}.rhrt" for s in seeds] + [f"trace_{s}.csv" for s in seeds]
        one = _config(tmp_path, text + "run_count = 1\n", "one.ini")
        for seed in seeds:
            alone = tmp_path / f"alone_{seed}"
            assert main(["sample", "--config", one, "--out", str(alone), "--seed", str(seed)]) == 0
            # trace energies agree at the CSV's 9 significant digits, tensors
            # to the float32 storage tolerance
            trace = f"trace_{seed}.csv"
            assert (batch / trace).read_bytes() == (alone / trace).read_bytes()
            got = read_tensor(batch / f"final_{seed}.rhrt")
            want = read_tensor(alone / f"final_{seed}.rhrt")
            assert np.abs(got - want).max() <= 2.0**-22 * np.abs(want).max()

    def test_a_failing_seed_leaves_no_trace_or_final_file(self, tmp_path, capsys, monkeypatch):
        predict = GaussianPrior.predict_eps
        level_7 = build_timeline(build_schedule(), 10).alpha_bar_at_step[7]

        def poisoned(self, x_t, alpha_bar, condition, out=None):
            eps = predict(self, x_t, alpha_bar, condition, out)
            if alpha_bar == level_7:
                eps[1] = np.nan  # the batch's second seed only
            return eps

        monkeypatch.setattr(GaussianPrior, "predict_eps", poisoned)
        # with snapshots too: those of the steps before the failure go with it
        for k, snapshots in enumerate(["", "snapshot_steps = all\n"]):
            cfg = _config(tmp_path, SMALL + "run_count = 3\n" + snapshots)
            out = tmp_path / f"out{k}"
            assert main(["sample", "--config", cfg, "--out", str(out)]) == 1
            assert "error: step 7, seed 5: latent grid contains non-finite values" in capsys.readouterr().err
            assert list(out.iterdir()) == []

    def test_a_failing_codec_call_leaves_no_output_or_codec_file(self, tmp_path, codec_tmp, capsys):
        command = codec_stub(tmp_path, FAILS_ON_INDEX_1.format(dir=str(tmp_path)))
        for k, snapshots in enumerate(["", "snapshot_steps = all\n"]):
            cfg = _config(
                tmp_path,
                STAGED_SMALL
                + f"[codec]\nkind = external\ncommand = {command}\ngranularity = 1\n"
                + "[run]\nvariant = rectified\nrun_count = 3\n" + snapshots,
            )
            out = tmp_path / f"out{k}"
            assert main(["sample", "--config", cfg, "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert "error: step 5, seed 1: decode command exited with status 3" in err
            assert "(batch index 1)" in err
            assert list(out.iterdir()) == []
            assert list(codec_tmp.glob("codec-*")) == []

    def test_sigterm_reaps_the_codec_and_leaves_no_file(self, tmp_path):
        # two processes at most: the command, and its one codec call, which
        # writes its pid and then sleeps until it is killed
        pidfile = tmp_path / "codec.pid"
        command = codec_stub(tmp_path, WRITES_PID_THEN_SLEEPS.format(pidfile=str(pidfile)))
        cfg = _config(
            tmp_path,
            STAGED_SMALL
            + f"[codec]\nkind = external\ncommand = {command}\ngranularity = 1\n"
            + "[run]\nvariant = rectified\nsnapshot_steps = all\n",
        )
        work, out = tmp_path / "tmp", tmp_path / "out"
        work.mkdir()
        env = dict(os.environ, PYTHONPATH=str(_SRC), TMPDIR=str(work))
        argv = [sys.executable, "-m", "restage.cli", "sample", "--config", cfg, "--out", str(out)]
        stub = None
        with subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE) as proc:
            try:
                deadline = time.monotonic() + 60.0
                while not pidfile.exists():
                    assert proc.poll() is None, proc.stderr.read()
                    assert time.monotonic() < deadline, "the codec command did not start"
                    time.sleep(0.02)
                stub = int(pidfile.read_text())
                proc.send_signal(signal.SIGTERM)
                assert proc.wait(timeout=60) == 143
                with pytest.raises(ProcessLookupError):
                    os.kill(stub, 0)  # killed and reaped
                assert list(work.iterdir()) == []
                assert list(out.iterdir()) == []  # no snapshot, and no partial file
            finally:
                if proc.poll() is None:
                    proc.kill()
                if stub is not None:
                    with contextlib.suppress(ProcessLookupError):
                        os.kill(stub, signal.SIGKILL)

    @pytest.mark.parametrize("command", ["sample", "energy-curve"])
    def test_an_overflowing_energy_fails_both_commands_at_its_step(self, tmp_path, capsys, command):
        cfg = _config(tmp_path, SMALL.replace("mean_value = 0.25", "mean_value = 1e200"))
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: step 0, seed 4: latent energy overflows float64\n"
        assert not out.exists() or list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "extra,argv",
        [
            ("run_count = 2\n", []),
            ("", ["--seed", "-3"]),
            ("run_count = 2\n", ["--seed", "18446744073709551615"]),
        ],
    )
    def test_seed_range_fails_before_any_output(self, tmp_path, capsys, extra, argv):
        text = SMALL + extra
        if not argv:
            text = text.replace("seed = 4", "seed = 18446744073709551615")
        cfg = _config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["sample", "--config", cfg, "--out", str(out), *argv]) == 1
        assert "error: run.seed" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_override(self, tmp_path):
        cfg = _config(tmp_path, SMALL)
        assert main(["sample", "--config", cfg, "--out", str(tmp_path / "out"), "--seed", "99"]) == 0
        assert (tmp_path / "out" / "trace_99.csv").exists()
        assert not (tmp_path / "out" / "trace_4.csv").exists()

    def test_snapshot_files(self, tmp_path):
        cfg = _config(tmp_path, SMALL + "snapshot_steps = 3, 7\n")
        assert main(["sample", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "snapshot_4_3.rhrt").exists()
        assert (tmp_path / "out" / "snapshot_4_7.rhrt").exists()


def _curve_rows(tmp_path):
    lines = (tmp_path / "out" / "energy_curves.csv").read_text().splitlines()
    assert lines[0] == "label,step,mean_energy"
    rows = {}
    for line in lines[1:]:
        label, step, energy = line.split(",")
        rows.setdefault(label, []).append((int(step), float(energy)))
    return rows


class TestEnergyCurve:
    def test_vanishing_prior_decays_with_the_noise_floor(self, tmp_path):
        """With a near-zero-variance prior the update only rescales the latent,
        so the energy curve must track (1 - alpha_bar) exactly."""
        cfg = _config(
            tmp_path,
            SMALL.replace("variance = 1.5", "variance = 1e-12").replace(
                "mean_value = 0.25", "mean_value = 0"
            )
            + "run_count = 2\n[energy]\nvariants = baseline\n",
        )
        assert main(["energy-curve", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        rows = _curve_rows(tmp_path)["baseline"]
        assert [step for step, _ in rows] == list(range(10))
        timeline = build_timeline(build_schedule(), 10)
        ab = timeline.alpha_bar_at_step
        e0 = rows[0][1]
        for step, energy in rows[1:]:
            want = e0 * (1.0 - ab[step]) / (1.0 - ab[0])
            assert energy == pytest.approx(want, rel=1e-5)

    def test_omega_sweep_labels(self, tmp_path, capsys):
        cfg = _config(
            tmp_path, SMALL + "[energy]\nvariants = baseline\nomegas = 1, 3\n"
        )
        assert main(["energy-curve", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        rows = _curve_rows(tmp_path)
        assert sorted(rows) == ["baseline-omega1", "baseline-omega3"]
        assert "baseline-omega1: 1 run(s), 10 steps" in capsys.readouterr().out

    def test_a_repeated_curve_label_fails_before_any_run(self, tmp_path, capsys):
        # both scales print as 3, so the two variants make four baseline-omega3 curves
        cfg = _config(
            tmp_path,
            SMALL + "[energy]\nvariants = baseline, baseline\nomegas = 3.0000001, 3.0000002\n",
        )
        out = tmp_path / "out"
        assert main(["energy-curve", "--config", cfg, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: energy.variants/energy.omegas: curve label 'baseline-omega3' repeats\n"
        )
        assert not (out / "energy_curves.csv").exists()

    def test_reference_variants(self, tmp_path):
        cfg = _config(
            tmp_path,
            STAGED_SMALL + "[energy]\nvariants = rectified, native-baseline, rectified-no-rect\n",
        )
        assert main(["energy-curve", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        rows = _curve_rows(tmp_path)
        assert sorted(rows) == ["native-baseline", "rectified", "rectified-no-rect"]
        for label in rows:
            assert len(rows[label]) == 10
        # without a conditional branch the guidance scale is inert, so
        # flattening it cannot move the curve
        assert rows["rectified"] == rows["rectified-no-rect"]

    def test_flattened_omega_diverges_after_the_boundary(self, tmp_path):
        # a tight cloud keeps the posterior soft at late steps; well-separated
        # points would collapse both guidance branches onto the same neighbor
        rng = np.random.default_rng(11)
        write_tensor(tmp_path / "points.rhrt", 0.05 * rng.normal(size=(6, 4, 8, 8)))
        cfg = _config(
            tmp_path,
            STAGED_SMALL.replace(
                "mean_value = 0.25\n    variance = 1.5",
                "kind = dataset\n    path = points.rhrt\n    conditional = true",
            )
            + "[energy]\nvariants = rectified, rectified-no-rect\n",
        )
        assert main(["energy-curve", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        rows = _curve_rows(tmp_path)
        rect = dict(rows["rectified"])
        flat = dict(rows["rectified-no-rect"])
        # stage 0 carries the same scale either way; the curves may only split
        # once the post-refresh stage starts stepping
        assert all(rect[s] == flat[s] for s in range(6))
        assert any(rect[s] != flat[s] for s in range(6, 10))


class TestVerify:
    def test_all_checks_pass(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert out.count("PASS") == 8
        assert "FAIL" not in out

    def test_corrupt_schedule_is_caught(self, capsys):
        assert main(["verify", "--corrupt", "schedule"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "1 check(s) failed: schedule-monotonic" in out


class TestDumpGrid:
    def test_single_channel_golden_pgm(self, tmp_path, capsys):
        src = tmp_path / "grid.rhrt"
        write_grid(src, np.array([[[0.0, 1.0], [2.0, 3.0]]]))
        dst = tmp_path / "img.pgm"
        assert main(["dump-grid", str(src), str(dst)]) == 0
        assert dst.read_bytes() == b"P5\n2 2\n255\n" + bytes([0, 85, 170, 255])
        assert f"wrote {dst}" in capsys.readouterr().out

    def test_constant_channel_renders_mid_gray(self, tmp_path):
        src = tmp_path / "grid.rhrt"
        write_grid(src, np.full((1, 3, 2), 0.7))
        dst = tmp_path / "img.pgm"
        assert main(["dump-grid", str(src), str(dst)]) == 0
        assert dst.read_bytes() == b"P5\n2 3\n255\n" + bytes([128] * 6)

    def test_multi_channel_suffixes(self, tmp_path):
        src = tmp_path / "grid.rhrt"
        write_grid(src, np.arange(12, dtype=float).reshape(3, 2, 2))
        assert main(["dump-grid", str(src), str(tmp_path / "img.pgm")]) == 0
        for c in range(3):
            assert (tmp_path / f"img_c{c}.pgm").exists()
        assert not (tmp_path / "img.pgm").exists()

    def test_wrong_rank_is_reported(self, tmp_path, capsys):
        src = tmp_path / "flat.rhrt"
        write_tensor(src, np.zeros((2, 2)))
        assert main(["dump-grid", str(src), str(tmp_path / "img.pgm")]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "rank-3" in err


class TestErrors:
    def test_config_is_required(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["sample"])
        assert info.value.code == 2
        assert "the following arguments are required: --config" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--seed", "5"],
            ["verify", "--out", "/nonexistent/x"],
            ["dump-grid", "--config", "x.ini", "in.rhrt", "out.pgm"],
            ["ladder", "--config", "x.ini", "--seed", "5"],
        ],
    )
    def test_commands_reject_flags_they_ignore(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["ladder", "--config", str(tmp_path / "nope.ini")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_subcommand_is_required(self):
        with pytest.raises(SystemExit):
            main([])
