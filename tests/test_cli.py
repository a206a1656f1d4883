"""End-to-end command-line coverage: golden files, determinism, error paths."""

from __future__ import annotations

import builtins
import contextlib
import os
import shutil
import signal
import subprocess
import sys
import textwrap
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from restage import cli
from restage.cli import main
from restage.config import load_config
from restage.denoiser import DatasetPrior, GaussianPrior
from restage.latent import SeededRng
from restage.sampler import VARIANTS, run
from restage.schedule import build_schedule, build_timeline
from restage.tensorfile import read_tensor, write_grid, write_tensor

from _toys import (
    FAILS_ON_INDEX_1,
    LOGGED_COPY,
    SLEEPS_OFF_CPU,
    WRITES_PID_THEN_SLEEPS,
    clustered_shell_prior,
    codec_stub,
    most_at_once,
)

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
        pids = tmp_path / "pids"
        pids.mkdir()
        command = codec_stub(tmp_path, WRITES_PID_THEN_SLEEPS.format(dir=str(pids)))
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
                while not any(pids.iterdir()):
                    assert proc.poll() is None, proc.stderr.read()
                    assert time.monotonic() < deadline, "the codec command did not start"
                    time.sleep(0.02)
                stub = int(next(pids.iterdir()).name)
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

    def test_a_value_beyond_float32_fails_with_no_output_and_no_warning(self, tmp_path, capsys):
        # finite in float64, so the run succeeds, but the final tensors cannot be stored
        cfg = _config(tmp_path, SMALL.replace("mean_value = 0.25", "mean_value = 1e39") + "run_count = 2\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sample", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: tensor contains values that are not finite as float32\n"
        assert list(out.iterdir()) == []

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

    @pytest.mark.parametrize("command", ["ladder", "sample"])
    def test_other_commands_refuse_a_repeated_curve_label(self, tmp_path, capsys, command):
        # every key is validated at load, so the [energy] section fails a
        # command that does not read it
        cfg = _config(tmp_path, SMALL + "[energy]\nvariants = rectified\nomegas = 3, 3.0000001\n")
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: energy.variants/energy.omegas: curve label 'rectified-omega3' repeats\n"
        )
        assert not out.exists() or not any(out.iterdir())

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

    def test_curves_run_the_steps_they_share_once(self, tmp_path, monkeypatch):
        # the energy-sweep bench workload's shape: six labels, an unguided
        # clustered shell, 16 -> 32 at paper-2048, two seeds
        write_tensor(tmp_path / "points.rhrt", clustered_shell_prior().points)
        cfg = _config(tmp_path, PAPER_LADDER + f"""\
    [denoiser]
    kind = dataset
    path = points.rhrt
    [run]
    run_count = 2
    [energy]
    variants = {", ".join(VARIANTS)}
""")
        calls, entered = [], []
        predict, inner = DatasetPrior.predict_eps, cli.run

        def counted(*args, **kwargs):
            calls.append(1)
            return predict(*args, **kwargs)

        def recorded(*args, **kwargs):
            entered.append(len(calls))  # the predictions made before this run
            return inner(*args, **kwargs)

        monkeypatch.setattr(DatasetPrior, "predict_eps", counted)
        monkeypatch.setattr(cli, "run", recorded)
        assert main(["energy-curve", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        # baseline runs 50 steps; rectified and latent-resize resume its 40-step
        # stage-0 trunk; snr-corrected and native-baseline share no step; the
        # unguided rectified-no-rect is rectified's run and costs none
        assert entered + [len(calls)] == [0, 50, 60, 70, 120, 170, 170]


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


_OPEN = builtins.open


class _WriteFault:
    """Stands in for ``open``: the k-th file opened for writing under ``root``
    raises ``exc`` once it holds a byte. With k = 0 it only records the paths."""

    def __init__(self, root, k=0, exc=None):
        self.root, self.k, self.exc = root, k, exc
        self.paths = []

    def __call__(self, file, mode="r", *args, **kwargs):
        fh = _OPEN(file, mode, *args, **kwargs)
        if "w" in mode and Path(file).is_relative_to(self.root):
            self.paths.append(Path(file))
            if len(self.paths) == self.k:
                with fh:
                    fh.write(b"\0")
                raise self.exc
        return fh


def _contents(directory):
    """Every entry of ``directory``: a file's bytes, or None for a directory."""
    return {p.name: p.read_bytes() if p.is_file() else None for p in directory.iterdir()}


def _refill(directory, contents):
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir()
    for name, data in contents.items():
        (directory / name).write_bytes(data)


class TestCommitPoint:
    """A command publishes all of its files or none: unless it succeeds, its
    output directory ends holding exactly what it held before."""

    def test_every_failing_sample_write_leaves_out_as_it_was(self, tmp_path, monkeypatch, capsys):
        cfg = _config(tmp_path, SMALL + "run_count = 2\nsnapshot_steps = all\n")
        out = tmp_path / "out"
        argv = ["sample", "--config", cfg, "--out", str(out)]
        record = _WriteFault(out)
        monkeypatch.setattr(builtins, "open", record)
        assert main(argv) == 0
        published = sorted(p.name for p in out.iterdir())  # no staging entry is left either
        assert len(published) == 24  # 20 snapshots, 2 traces, 2 finals
        assert sorted(p.name for p in record.paths) == published
        assert all(p.parent.parent == out for p in record.paths)  # each written in staging
        capsys.readouterr()

        for k in range(1, len(published) + 1):
            faults = [OSError("disk full")]
            if k in (1, len(published)):  # the first snapshot, inside the run; the last final
                faults.append(KeyboardInterrupt())
            for exc in faults:
                for before in ({}, {"trace_4.csv": b"an earlier trace\n"}):
                    _refill(out, before)
                    monkeypatch.setattr(builtins, "open", _WriteFault(out, k, exc))
                    if isinstance(exc, OSError):
                        assert main(argv) == 1
                        assert capsys.readouterr().err == "error: disk full\n"
                    else:
                        with pytest.raises(KeyboardInterrupt):
                            main(argv)
                    assert _contents(out) == before, (k, exc)

    @pytest.mark.parametrize("command", ["ladder", "energy-curve", "dump-grid"])
    def test_a_failing_write_leaves_the_directory_as_it_was(self, tmp_path, monkeypatch, capsys, command):
        out = tmp_path / "out"
        if command == "dump-grid":
            src = tmp_path / "grid.rhrt"
            write_grid(src, np.arange(12, dtype=float).reshape(3, 2, 2))
            argv, before, k = ["dump-grid", str(src), str(out / "img.pgm")], "img_c0.pgm", 3
        else:
            cfg = _config(tmp_path, SMALL + "[energy]\nvariants = baseline, rectified\n")
            name = "ladder.csv" if command == "ladder" else "energy_curves.csv"
            argv, before, k = [command, "--config", cfg, "--out", str(out)], name, 1
        _refill(out, {before: b"an earlier file\n"})
        monkeypatch.setattr(builtins, "open", _WriteFault(out, k, OSError("disk full")))
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: disk full\n"
        assert _contents(out) == {before: b"an earlier file\n"}


# Gaussian, 64x64 then 128x128: 4 * 128 * 128 = 65,536 values per seed, so
# the 2^19 cap holds 8 seeds and nine seeds 0..8 split into batches of 5 and 4
SPLIT = STAGED_SMALL.replace("8x8, 16x16", "64x64, 128x128") + "[run]\nvariant = rectified\nrun_count = 9\n"


def _dataset_split(tmp_path):
    """SPLIT with a conditional dataset prior in place of the Gaussian one."""
    rng = np.random.default_rng(12)
    write_tensor(tmp_path / "points.rhrt", 0.05 * rng.normal(size=(6, 4, 8, 8)))
    return SPLIT.replace(
        "mean_value = 0.25\n    variance = 1.5",
        "kind = dataset\n    path = points.rhrt\n    conditional = true",
    )


@pytest.fixture
def workers(monkeypatch):
    """``workers(n)`` makes ``sample`` see an n-CPU mask, on any host, and leave
    the real one alone; returns the pids that ``os.fork`` gives the parent."""
    forked = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    def use(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        monkeypatch.setattr(os, "sched_setaffinity", lambda pid, mask: None)
        monkeypatch.setattr(os, "fork", recording_fork)
        return forked

    return use


class TestPartition:
    """``sample``'s seed batches: a rule of the config alone."""

    @pytest.mark.parametrize(
        "workload,seeds,values,sizes",
        [
            ("posterior-staged", 24, 4 * 32 * 32, [24]),
            ("snapshot-io", 4, 4 * 256 * 256, [2, 2]),
            ("energy-sweep", 2, 4 * 32 * 32, [2]),
            ("codec-external", 8, 4 * 32 * 32, [8]),
            ("1000 seeds at 64x64", 1000, 4 * 64 * 64, [32] * 8 + [31] * 24),
        ],
    )
    def test_the_bench_shapes(self, workload, seeds, values, sizes):
        batches = cli._partition(list(range(100, 100 + seeds)), values)
        assert [len(b) for b in batches] == sizes
        assert max(len(b) for b in batches) * values <= cli.BATCH_VALUES == 2**19

    def test_fewest_balanced_contiguous_batches_under_the_cap(self):
        for values in (1, 1000, 2**14, 2**17, 2**18 + 1, 2**19, 2**19 + 1, 2**21):
            for n in range(1, 41):
                seeds = list(range(7, 7 + n))
                batches = cli._partition(seeds, values)
                sizes = [len(b) for b in batches]
                assert [s for b in batches for s in b] == seeds
                assert max(sizes) - min(sizes) <= 1
                # each batch under the cap, or one seed alone; one batch fewer
                # would put more seeds than the cap holds into one of them
                assert all(size * values <= cli.BATCH_VALUES or size == 1 for size in sizes)
                if len(batches) > 1:
                    assert -(-n // (len(batches) - 1)) * values > cli.BATCH_VALUES


@pytest.mark.skipif(sys.version_info >= (3, 12), reason="sample forks no worker from Python 3.12 on")
class TestWorkers:
    """Seed batches on forked workers: the same bytes, the same errors, no leftovers."""

    @pytest.mark.parametrize("prior", ["gaussian", "dataset"])
    def test_bytes_do_not_depend_on_the_worker_count(self, tmp_path, capsys, workers, prior):
        text = SPLIT if prior == "gaussian" else _dataset_split(tmp_path)
        cfg = _config(tmp_path, text + "snapshot_steps = 2, 8\n")
        outs = {}
        for n in (2, 1):
            forked = workers(n)
            outs[n] = tmp_path / f"workers{n}"
            assert main(["sample", "--config", cfg, "--out", str(outs[n])]) == 0
            assert len(forked) == n - 1
            forked.clear()
        assert "wrote 9 run(s) to" in capsys.readouterr().out
        assert len(_contents(outs[2])) == 9 * 4  # a trace, a final and two snapshots per seed
        assert _contents(outs[2]) == _contents(outs[1])

    def test_a_split_run_is_bitwise_one_run_of_all_its_seeds(self, tmp_path, workers):
        cfg = _config(tmp_path, SPLIT + "snapshot_steps = 2, 8\n")
        split, whole = tmp_path / "split", tmp_path / "whole"
        forked = workers(2)
        assert main(["sample", "--config", cfg, "--out", str(split)]) == 0
        assert len(forked) == 1

        config = load_config(cfg)
        timeline, plan, denoiser, label, codec = cli._build_all(config)
        seeds = list(range(9))
        whole.mkdir()

        def snapshot(step, p_x0):
            if step in config.run.snapshot_steps:
                for seed, row in zip(seeds, p_x0):
                    write_grid(whole / f"snapshot_{seed}_{step}.rhrt", row)

        results = run(
            config.run.variant, plan, timeline, denoiser, codec, label,
            [SeededRng(s) for s in seeds], on_step=snapshot,
        )
        for seed, result in zip(seeds, results):
            write_grid(whole / f"final_{seed}.rhrt", result.final_p_x0)
            header = "step,train_t,omega,latent_energy,p_x0_energy,refreshed"
            cli._write_csv(whole / f"trace_{seed}.csv", header, cli._trace_rows(result))
        assert _contents(split) == _contents(whole)

    @pytest.mark.parametrize("poisoned", ["child", "both"])
    def test_a_failing_seed_in_a_child_fails_the_command(self, tmp_path, capsys, monkeypatch, workers, poisoned):
        predict = GaussianPrior.predict_eps
        timeline = build_timeline(build_schedule(), 10)
        parent = os.getpid()

        def poisoned_predict(self, x_t, alpha_bar, condition, out=None):
            eps = predict(self, x_t, alpha_bar, condition, out)
            # the child fails at step 2; the parent, if at all, later at step 7
            in_child = os.getpid() != parent
            if alpha_bar == timeline.alpha_bar_at_step[2 if in_child else 7] and (in_child or poisoned == "both"):
                eps[1] = np.nan  # the batch's second seed: 6 in the child's, 1 in the parent's
            return eps

        monkeypatch.setattr(GaussianPrior, "predict_eps", poisoned_predict)
        workers(2)
        out = tmp_path / "out"
        assert main(["sample", "--config", _config(tmp_path, SPLIT), "--out", str(out)]) == 1
        # the first failing batch in seed order names the error, whichever failed first
        want = "step 7, seed 1" if poisoned == "both" else "step 2, seed 6"
        assert capsys.readouterr().err == f"error: {want}: latent grid contains non-finite values\n"
        assert list(out.iterdir()) == []

    def test_a_failure_in_the_parents_batch_reaps_the_children(self, tmp_path, capsys, monkeypatch, workers):
        predict = GaussianPrior.predict_eps
        parent = os.getpid()

        def poisoned_predict(self, x_t, alpha_bar, condition, out=None):
            if os.getpid() != parent:
                # the child's batch would outlast the test; it sleeps in slices,
                # as a batch computes, since a stop that lands on a BLAS thread
                # is taken at the main thread's next bytecode, not inside a sleep
                for _ in range(1200):
                    time.sleep(0.05)
            eps = predict(self, x_t, alpha_bar, condition, out)
            eps[0] = np.nan
            return eps

        monkeypatch.setattr(GaussianPrior, "predict_eps", poisoned_predict)
        forked = workers(2)
        out = tmp_path / "out"
        start = time.monotonic()
        assert main(["sample", "--config", _config(tmp_path, SPLIT), "--out", str(out)]) == 1
        assert time.monotonic() - start < 30.0
        assert capsys.readouterr().err == "error: step 0, seed 0: latent grid contains non-finite values\n"
        assert list(out.iterdir()) == []
        assert len(forked) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(forked[0], os.WNOHANG)  # already reaped

    def test_sigterm_during_a_split_run_leaves_no_file_and_no_process(self, tmp_path):
        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip("a split run forks only with two CPUs in the mask")
        # three seeds at 256x256 split into batches of 2 and 1; each worker
        # blocks in its first codec call, which writes its pid and sleeps
        pids = tmp_path / "pids"
        pids.mkdir()
        command = codec_stub(tmp_path, WRITES_PID_THEN_SLEEPS.format(dir=str(pids)))
        cfg = _config(
            tmp_path,
            STAGED_SMALL.replace("8x8, 16x16", "128x128, 256x256")
            + f"[codec]\nkind = external\ncommand = {command}\ngranularity = 1\n"
            + "[run]\nvariant = rectified\nrun_count = 3\nsnapshot_steps = all\n",
        )
        work, out = tmp_path / "tmp", tmp_path / "out"
        work.mkdir()
        env = dict(os.environ, PYTHONPATH=str(_SRC), TMPDIR=str(work))
        argv = [sys.executable, "-m", "restage.cli", "sample", "--config", cfg, "--out", str(out)]
        with subprocess.Popen(
            argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, start_new_session=True
        ) as proc:
            try:
                deadline = time.monotonic() + 60.0
                while len(list(pids.iterdir())) < 2:
                    assert proc.poll() is None, proc.stderr.read()
                    assert time.monotonic() < deadline, "the codec commands did not start"
                    time.sleep(0.02)
                proc.send_signal(signal.SIGTERM)
                assert proc.wait(timeout=60) == 143
                with pytest.raises(ProcessLookupError):
                    os.killpg(proc.pid, 0)  # no worker and no codec command is left
                assert list(work.iterdir()) == []
                assert list(out.iterdir()) == []
            finally:
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)

    def test_codec_commands_stay_one_per_cpu_across_workers(self, tmp_path, codec_tmp):
        mask = os.sched_getaffinity(0)
        if len(mask) < 2:
            pytest.skip("needs two CPUs")
        log = tmp_path / "spans.log"
        command = codec_stub(tmp_path, LOGGED_COPY.format(log=str(log)))
        cfg = _config(
            tmp_path,
            STAGED_SMALL.replace("8x8, 16x16", "128x128, 256x256")
            + f"[codec]\nkind = external\ncommand = {command}\ngranularity = 1\n"
            + "[run]\nvariant = rectified\nrun_count = 3\n",
        )
        two = set(sorted(mask)[:2])
        os.sched_setaffinity(0, two)
        try:
            # batches of 2 and 1 seeds: one decode and one encode per seed
            assert main(["sample", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
            assert os.sched_getaffinity(0) == two  # the parent's mask is restored
        finally:
            os.sched_setaffinity(0, mask)
        assert len(log.read_text().splitlines()) == 6
        assert most_at_once(log) <= 2

    def test_a_child_that_dies_unreported_fails_the_command(self, tmp_path, capsys, monkeypatch, workers):
        predict = GaussianPrior.predict_eps
        parent = os.getpid()

        def dying_predict(self, x_t, alpha_bar, condition, out=None):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return predict(self, x_t, alpha_bar, condition, out)

        monkeypatch.setattr(GaussianPrior, "predict_eps", dying_predict)
        workers(2)
        out = tmp_path / "out"
        assert main(["sample", "--config", _config(tmp_path, SPLIT), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: a sampling worker stopped unreported\n"
        assert list(out.iterdir()) == []

    def test_sigterm_while_worker_0_waits_for_a_child_stops_the_child(self, tmp_path):
        mask = os.sched_getaffinity(0)
        if len(mask) < 2:
            pytest.skip("a split run forks only with two CPUs in the mask")
        # three seeds at 256x256 split into batches of 2 and 1 on a two-CPU
        # mask: worker 0's codec calls copy, on the first CPU, and its batch
        # ends; the child's first call writes its pid and sleeps
        first, second = sorted(mask)[:2]
        pids = tmp_path / "pids"
        pids.mkdir()
        command = codec_stub(tmp_path, SLEEPS_OFF_CPU.format(cpu=first, dir=str(pids)))
        cfg = _config(
            tmp_path,
            STAGED_SMALL.replace("8x8, 16x16", "128x128, 256x256")
            + f"[codec]\nkind = external\ncommand = {command}\ngranularity = 1\n"
            + "[run]\nvariant = rectified\nrun_count = 3\n",
        )
        work, out = tmp_path / "tmp", tmp_path / "out"
        work.mkdir()
        env = dict(os.environ, PYTHONPATH=str(_SRC), TMPDIR=str(work))
        argv = [sys.executable, "-m", "restage.cli", "sample", "--config", cfg, "--out", str(out)]
        os.sched_setaffinity(0, {first, second})
        try:
            proc = subprocess.Popen(
                argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, start_new_session=True
            )
        finally:
            os.sched_setaffinity(0, mask)
        with proc:
            try:
                deadline = time.monotonic() + 60.0
                while not (any(pids.iterdir()) and list(out.glob(".restage-*/final_1.rhrt"))):
                    assert proc.poll() is None, proc.stderr.read()
                    assert time.monotonic() < deadline, "worker 0's batch did not end"
                    time.sleep(0.02)
                time.sleep(0.3)  # worker 0 now waits for the child's report
                assert proc.poll() is None
                proc.send_signal(signal.SIGTERM)
                assert proc.wait(timeout=30) == 143
                with pytest.raises(ProcessLookupError):
                    os.killpg(proc.pid, 0)  # no worker and no codec command is left
                assert list(work.iterdir()) == []
                assert list(out.iterdir()) == []
            finally:
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)

    @pytest.mark.parametrize("where", ["child", "parent"])
    def test_an_error_main_does_not_report_keeps_its_traceback(self, tmp_path, capfd, monkeypatch, workers, where):
        predict = GaussianPrior.predict_eps
        parent = os.getpid()

        def broken_predict(self, x_t, alpha_bar, condition, out=None):
            if (os.getpid() != parent) == (where == "child"):
                raise TypeError("a bug")
            return predict(self, x_t, alpha_bar, condition, out)

        monkeypatch.setattr(GaussianPrior, "predict_eps", broken_predict)
        forked = workers(2)
        out = tmp_path / "out"
        argv = ["sample", "--config", _config(tmp_path, SPLIT), "--out", str(out)]
        if where == "parent":
            with pytest.raises(TypeError, match="a bug"):
                main(argv)
        else:
            # the child prints the traceback; it sends no report, as only the
            # failures main reports go down the pipe
            assert main(argv) == 1
            err = capfd.readouterr().err
            assert "TypeError: a bug\n" in err
            assert err.endswith("error: a sampling worker stopped unreported\n")
        assert list(out.iterdir()) == []
        with pytest.raises(ChildProcessError):
            os.waitpid(forked[0], os.WNOHANG)  # already reaped

    def test_from_python_3_12_the_batches_run_in_the_command_itself(self, tmp_path, monkeypatch, workers):
        forked = workers(2)
        monkeypatch.setattr(sys, "version_info", (3, 12, 0, "final", 0))
        out = tmp_path / "out"
        assert main(["sample", "--config", _config(tmp_path, SPLIT), "--out", str(out)]) == 0
        assert forked == []
        assert len(_contents(out)) == 9 * 2
