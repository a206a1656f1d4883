"""Config parsing, total validation, and component construction."""

from __future__ import annotations

import re
import textwrap

import numpy as np
import pytest

from restage.cli import cmd_sample
from restage.codec import ExternalCodec, IdentityCodec
from restage.config import build_codec, build_denoiser, load_config
from restage.denoiser import DatasetPrior, GaussianPrior
from restage.errors import ConfigError
from restage.latent import SeededRng, gaussian_noise
from restage.tensorfile import read_grid, write_tensor

from _toys import BLOCK_CODEC, codec_stub, direct_gaussian_eps

MINIMAL = """\
    [schedule]
    num_steps = 50
    [ladder]
    preset = paper-2048
    resolutions = 16x16, 32x32
"""


def _load(tmp_path, text=MINIMAL):
    path = tmp_path / "config.ini"
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return load_config(path)


class TestDefaults:
    def test_minimal_config_round_trip(self, tmp_path):
        config = _load(tmp_path)
        assert config.schedule.num_steps == 50
        assert config.ladder.t_min == 40 and config.ladder.n_stages == 2
        assert config.ladder.resolutions == ((16, 16), (32, 32))
        assert config.denoiser.kind == "gaussian"
        assert config.codec.kind == "identity"
        assert config.run.variant == "baseline"
        assert (config.run.seed, config.run.run_count) == (0, 1)
        assert config.run.snapshot_steps == ()
        assert config.energy.variants == () and config.energy.omegas == ()

    def test_builders_use_the_schedule_section(self, tmp_path):
        config = _load(tmp_path)
        schedule = config.build_schedule()
        assert len(schedule.alpha_bar) == 1000
        timeline = config.build_timeline()
        assert timeline.num_steps == 50

    def test_explicit_ladder_keys(self, tmp_path):
        config = _load(
            tmp_path,
            """\
            [schedule]
            num_steps = 50
            [ladder]
            t_min = 30
            t_max = 50
            n_stages = 2
            m_t = 1.5
            omega_min = 2
            omega_max = 8
            m_omega = 0.7
            resolutions = 8x8, 16x16
            """,
        )
        assert config.ladder.t_min == 30
        assert config.ladder.m_omega == 0.7

    def test_inline_comments_are_stripped(self, tmp_path):
        config = _load(
            tmp_path,
            """\
            [schedule]
            num_steps = 50    ; run length
            [ladder]
            preset = paper-2048
            resolutions = 16x16, 32x32
            """,
        )
        assert config.schedule.num_steps == 50


class TestValidation:
    def test_preset_and_explicit_keys_conflict(self, tmp_path):
        with pytest.raises(ConfigError, match="mutually exclusive"):
            _load(
                tmp_path,
                """\
                [schedule]
                num_steps = 50
                [ladder]
                preset = paper-2048
                t_min = 40
                resolutions = 16x16, 32x32
                """,
            )

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown section"):
            _load(tmp_path, MINIMAL + "[extras]\nkey = 1\n")

    def test_unknown_key(self, tmp_path):
        with pytest.raises(ConfigError, match="run.pace: unknown key"):
            _load(tmp_path, MINIMAL + "[run]\npace = fast\n")
        # boundaries always resample bilinearly; the old option is gone
        with pytest.raises(ConfigError, match="codec.resize_method: unknown key"):
            _load(tmp_path, MINIMAL + "[codec]\nresize_method = bilinear\n")
        # the output directory is the command line's --out alone
        with pytest.raises(ConfigError, match="run.output_dir: unknown key"):
            _load(tmp_path, MINIMAL + "[run]\noutput_dir = out\n")
        # the training schedule is a constant of restage.schedule, not an option
        # (beta_end and train_steps are the test_bad_values cases of the same kind)
        for key, value in [("kind", "linear"), ("beta_start", "0.001")]:
            text = MINIMAL.replace("num_steps = 50", f"num_steps = 50\n    {key} = {value}")
            with pytest.raises(ConfigError, match=f"schedule.{key}: unknown key"):
                _load(tmp_path, text)

    def test_missing_required_section(self, tmp_path):
        with pytest.raises(ConfigError, match="ladder: required section"):
            _load(tmp_path, "[schedule]\nnum_steps = 50\n")

    def test_missing_num_steps(self, tmp_path):
        with pytest.raises(ConfigError, match="num_steps"):
            _load(
                tmp_path,
                """\
                [schedule]
                [ladder]
                preset = paper-2048
                resolutions = 16x16, 32x32
                """,
            )

    @pytest.mark.parametrize(
        "extra,fragment",
        [
            ("[run]\nseed = -1\n", "run.seed"),
            ("[run]\nseed = 18446744073709551615\nrun_count = 2\n", "run.seed"),
            ("[run]\nrun_count = 0\n", "run_count"),
            ("[run]\nvariant = turbo\n", "variant"),
            ("[run]\nsnapshot_steps = 1, 99\n", "snapshot_steps"),
            ("[run]\nsnapshot_steps = 1, x\n", "snapshot_steps"),
            ("[denoiser]\nkind = lookup\n", "denoiser.kind"),
            ("[denoiser]\nvariance = 0\n", "variance"),
            ("[denoiser]\nvariance = inf\n", "denoiser.variance: must be finite"),
            ("[denoiser]\nmean_value = nan\n", "denoiser.mean_value: must be finite"),
            ("[denoiser]\nkind = dataset\n", "denoiser.path"),
            ("[denoiser]\nkind = dataset\npath = p.rhrt\nconditional = maybe\n", "boolean"),
            ("[codec]\nkind = mp3\n", "codec.kind"),
            ("[codec]\nresize_method = bicubic\n", "resize_method"),
            ("[codec]\nkind = external\n", "codec.command"),
            ("[codec]\nkind = external\ncommand = vae\ngranularity = 0\n", "granularity"),
            ('[codec]\nkind = external\ncommand = ""\n', "codec.command: .* names no program"),
            ("[codec]\nkind = external\ncommand = 'unbalanced\n", "codec.command: No closing"),
            ("[energy]\nvariants = warped\n", "energy.variants"),
            ("[energy]\nomegas = 1, x\n", "energy.omegas"),
            ("[energy]\nomegas = 1, nan\n", "energy.omegas: must be finite"),
            ("[energy]\nomegas = 1,, 2\n", "energy.omegas: empty entry"),
            ("[energy]\nvariants = baseline,\n", "energy.variants: empty entry"),
            ("[schedule]\nnum_steps = 50\nbeta_end = 2\n", "schedule.beta_end: unknown key"),
            ("[schedule]\nnum_steps = 2000\n", "schedule.num_steps"),
            ("[schedule]\nnum_steps = 50\ntrain_steps = 0\n", "schedule.train_steps: unknown key"),
        ],
    )
    def test_bad_values(self, tmp_path, extra, fragment):
        text = MINIMAL + extra
        if extra.startswith("[schedule]"):
            # a [schedule] case replaces the minimal config's own schedule section
            text = MINIMAL.replace("    [schedule]\n    num_steps = 50\n", "") + extra
        with pytest.raises(ConfigError, match=fragment):
            _load(tmp_path, text)

    @pytest.mark.parametrize("seed,run_count", [(2**64 - 1, 1), (2**64 - 2, 2)])
    def test_last_run_seed_may_reach_the_64_bit_limit(self, tmp_path, seed, run_count):
        config = _load(tmp_path, MINIMAL + f"[run]\nseed = {seed}\nrun_count = {run_count}\n")
        assert (config.run.seed, config.run.run_count) == (seed, run_count)

    @pytest.mark.parametrize("value", ["abc", "16xx16", "16"])
    def test_bad_resolutions(self, tmp_path, value):
        with pytest.raises(ConfigError, match="resolutions"):
            _load(
                tmp_path,
                f"""\
                [schedule]
                num_steps = 50
                [ladder]
                preset = paper-2048
                resolutions = {value}, 32x32
                """,
            )

    def test_bad_number_types(self, tmp_path):
        with pytest.raises(ConfigError, match="not an integer"):
            _load(tmp_path, MINIMAL.replace("num_steps = 50", "num_steps = soon"))
        with pytest.raises(ConfigError, match="denoiser.variance: not a number"):
            _load(tmp_path, MINIMAL + "[denoiser]\nvariance = tiny\n")

    def test_explicit_ladder_rejects_a_nan_omega(self, tmp_path):
        text = (
            "[schedule]\nnum_steps = 50\n[ladder]\nt_min = 40\nt_max = 50\nn_stages = 2\nm_t = 1\n"
            "omega_min = 2\nomega_max = nan\nm_omega = 1\nresolutions = 8x8, 16x16\n"
        )
        with pytest.raises(ConfigError, match="ladder.omega_max: must be finite"):
            _load(tmp_path, text)

    def test_unknown_preset(self, tmp_path):
        with pytest.raises(ConfigError, match="preset"):
            _load(tmp_path, MINIMAL.replace("paper-2048", "paper-1024"))

    def test_window_must_fit_the_run(self, tmp_path):
        with pytest.raises(ConfigError, match="t_max"):
            _load(tmp_path, MINIMAL.replace("num_steps = 50", "num_steps = 45"))

    def test_colliding_ladder_fails_at_load(self, tmp_path):
        text = (
            "[schedule]\nnum_steps = 50\n[ladder]\nt_min = 40\nt_max = 42\nn_stages = 4\nm_t = 1\n"
            "omega_min = 1\nomega_max = 1\nm_omega = 1\nresolutions = 8x8, 8x8, 16x16, 16x16\n"
        )
        with pytest.raises(ConfigError, match="collide"):
            _load(tmp_path, text)

    def test_resolutions_need_not_be_multiples_of_the_granularity(self, tmp_path):
        # decode doubles 5x5, the refresh resizes to twice 9x9 and encode
        # halves that, so a granularity-2 codec runs an odd ladder
        command = codec_stub(tmp_path, BLOCK_CODEC)
        config = _load(
            tmp_path,
            MINIMAL.replace("16x16, 32x32", "5x5, 9x9")
            + f"[codec]\nkind = external\ncommand = {command}\ngranularity = 2\n"
            + "[run]\nvariant = rectified\nrun_count = 2\n",
        )
        assert cmd_sample(config, tmp_path / "out") == 0
        for seed in (0, 1):
            assert read_grid(tmp_path / "out" / f"final_{seed}.rhrt").shape == (4, 9, 9)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "missing.ini")

    def test_unparsable_file(self, tmp_path):
        # a key before any section header is not INI
        with pytest.raises(ConfigError, match="cannot parse config file"):
            _load(tmp_path, "    num_steps = 50\n" + MINIMAL)


class TestSnapshotSteps:
    def test_forms(self, tmp_path):
        assert _load(tmp_path, MINIMAL + "[run]\nsnapshot_steps =\n").run.snapshot_steps == ()
        assert _load(
            tmp_path, MINIMAL + "[run]\nsnapshot_steps = all\n"
        ).run.snapshot_steps == tuple(range(50))
        assert _load(
            tmp_path, MINIMAL + "[run]\nsnapshot_steps = 3, 7\n"
        ).run.snapshot_steps == (3, 7)


class TestEnergySection:
    def test_curve_labels_and_sweep(self, tmp_path):
        config = _load(
            tmp_path,
            MINIMAL
            + "[energy]\n"
            + "variants = baseline, rectified, native-baseline, rectified-no-rect\n"
            + "omegas = 1.5, 3\n",
        )
        assert config.energy.variants == (
            "baseline", "rectified", "native-baseline", "rectified-no-rect",
        )
        assert config.energy.omegas == (1.5, 3.0)

    def test_each_curve_has_its_label_variant_and_scale(self, tmp_path):
        sweep = _load(tmp_path, MINIMAL + "[energy]\nvariants = baseline, rectified\nomegas = 1.5, 3\n")
        assert sweep.energy.curves(sweep.run.variant) == [
            ("baseline-omega1.5", "baseline", 1.5),
            ("baseline-omega3", "baseline", 3.0),
            ("rectified-omega1.5", "rectified", 1.5),
            ("rectified-omega3", "rectified", 3.0),
        ]
        # no variants: the run's variant alone, labelled by its name
        plain = _load(tmp_path, MINIMAL + "[run]\nvariant = latent-resize\n")
        assert plain.energy.curves(plain.run.variant) == [("latent-resize", "latent-resize", None)]

    @pytest.mark.parametrize(
        "energy, label",
        [
            ("variants = rectified\nomegas = 3, 3.0000001\n", "rectified-omega3"),
            ("variants = baseline, rectified, baseline\n", "baseline"),
            ("omegas = 2, 2.0\n", "baseline-omega2"),
        ],
    )
    def test_a_repeated_curve_label_is_rejected(self, tmp_path, energy, label):
        message = f"energy.variants/energy.omegas: curve label {label!r} repeats"
        with pytest.raises(ConfigError, match=re.escape(message)):
            _load(tmp_path, MINIMAL + "[energy]\n" + energy)


class TestBuildDenoiser:
    def test_gaussian_prior_has_the_configured_mean_at_every_stage(self, tmp_path):
        # every stage of the 16 -> 32 ladder predicts with exactly 0.1; the
        # average of a 16x16 field of 0.1 reads 0.1 + 1.39e-17
        config = _load(tmp_path, MINIMAL + "[denoiser]\nmean_value = 0.1\nvariance = 1.5\n")
        denoiser, label = build_denoiser(config)
        assert isinstance(denoiser, GaussianPrior)
        for size in (16, 32):
            x = gaussian_noise(4, size, size, SeededRng(size).stream("init"))
            want = direct_gaussian_eps([0.1] * 4, 1.5, x, 0.37)
            got = denoiser.predict_eps(x, 0.37, None)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert denoiser.mean.shape == (4, 1, 1) and np.all(denoiser.mean == 0.1)
        assert denoiser.variance == 1.5
        assert label is None

    def _dataset_config(self, tmp_path, conditional):
        rng = np.random.default_rng(2)
        write_tensor(tmp_path / "points.rhrt", rng.normal(size=(6, 4, 16, 16)))
        flag = "conditional = true\n" if conditional else ""
        return _load(
            tmp_path, MINIMAL + f"[denoiser]\nkind = dataset\npath = points.rhrt\n{flag}"
        )

    def test_dataset_prior_unconditional(self, tmp_path):
        denoiser, label = build_denoiser(self._dataset_config(tmp_path, False))
        assert isinstance(denoiser, DatasetPrior)
        assert len(denoiser.points) == 6
        assert denoiser.labels == (0,) * 6
        assert label is None

    def test_dataset_prior_conditional_alternates_labels(self, tmp_path):
        denoiser, label = build_denoiser(self._dataset_config(tmp_path, True))
        assert denoiser.labels == (0, 1, 0, 1, 0, 1)
        assert label == 0

    def test_relative_path_is_taken_against_the_config_directory(self, tmp_path, monkeypatch):
        write_tensor(tmp_path / "points.rhrt", np.zeros((3, 4, 16, 16)))
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        config = _load(tmp_path, MINIMAL + "[denoiser]\nkind = dataset\npath = points.rhrt\n")
        denoiser, _ = build_denoiser(config)
        assert len(denoiser.points) == 3

    def test_dataset_tensor_must_be_rank_four(self, tmp_path):
        write_tensor(tmp_path / "points.rhrt", np.zeros((4, 16, 16)))
        config = _load(tmp_path, MINIMAL + "[denoiser]\nkind = dataset\npath = points.rhrt\n")
        with pytest.raises(ConfigError, match="rank-4"):
            build_denoiser(config)

    def test_missing_dataset_file(self, tmp_path):
        config = _load(tmp_path, MINIMAL + "[denoiser]\nkind = dataset\npath = nope.rhrt\n")
        with pytest.raises(ConfigError, match="cannot load"):
            build_denoiser(config)


class TestBuildCodec:
    def test_identity(self, tmp_path):
        assert isinstance(build_codec(_load(tmp_path)), IdentityCodec)

    def test_external(self, tmp_path):
        config = _load(
            tmp_path, MINIMAL + "[codec]\nkind = external\ncommand = vae --fast\ngranularity = 4\n"
        )
        codec = build_codec(config)
        assert isinstance(codec, ExternalCodec)
        assert codec.command == "vae --fast"
        assert codec.granularity == 4
