"""Step updates, boundary actions, full runs, and the closed-form run oracle.

Whole runs are held to ``bench/checks.py::reference_run``, the bench's
independent direct-form implementation of the staged loop, for every
variant on a two- and a three-stage ladder; that pins which level each
boundary re-noises to and which stage's noise stream it draws from. The
in-place step functions are held bit for bit to the direct forms kept in
``_toys``.
"""

from __future__ import annotations

import itertools
import shlex
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from restage import sampler
from restage.checks import affine_trajectory_oracle, z_test_mean_var
from restage.codec import ExternalCodec, IdentityCodec
from restage.denoiser import DatasetPrior, Denoiser, GaussianPrior, cfg_combine
from restage.errors import SamplerError
from restage.latent import (
    LatentGrid,
    SeededRng,
    average_energy,
    gaussian_noise,
    resize_bilinear,
)
from restage.sampler import (
    VARIANTS,
    ddim_step,
    noise_refresh,
    run,
)
from restage.schedule import (
    LadderConfig,
    SamplerTimeline,
    build_plan,
    build_schedule,
    build_timeline,
    ladder_preset,
)

from _toys import (
    BENCH,
    BLOCK_CODEC,
    BoundaryStart,
    CLASS_ZERO,
    CODEC,
    FAILS_ON_INDEX_1,
    TARGET,
    TIMELINE,
    clustered_shell_prior,
    codec_stub,
    direct_cfg_combine,
    direct_ddim_step,
    direct_gaussian_eps,
    direct_noise_refresh,
    bench_module,
    ladder,
    linear_schedule,
    read_only,
    single_plan,
    staged_plan,
)


class TestDdimStep:
    def test_terminal_level_collapses_onto_the_estimate(self):
        x = gaussian_noise(1, 3, 3, SeededRng(1).stream("init"))
        eps = gaussian_noise(1, 3, 3, SeededRng(2).stream("init"))
        x_prev, p_x0 = ddim_step(x.copy(), eps.copy(), 0.4, 1.0)
        assert np.array_equal(x_prev, p_x0)

    def test_scalar_hand_case(self):
        x_prev, p_x0 = ddim_step(np.full((1, 1, 1), 1.0), np.zeros((1, 1, 1)), 0.25, 1.0)
        assert float(p_x0[0, 0, 0]) == pytest.approx(2.0, rel=1e-15)
        assert float(x_prev[0, 0, 0]) == pytest.approx(2.0, rel=1e-15)

    def test_reconstruction_identity(self):
        x = gaussian_noise(2, 4, 4, SeededRng(3).stream("init"))
        eps = gaussian_noise(2, 4, 4, SeededRng(4).stream("init"))
        ab = 0.37
        _, p_x0 = ddim_step(x.copy(), eps.copy(), ab, 0.8)
        rebuilt = np.sqrt(ab) * p_x0 + np.sqrt(1 - ab) * eps
        assert np.allclose(rebuilt, x, atol=1e-12)


@st.composite
def branch_pairs(draw):
    """Two independent (B, C, H, W) float64 arrays of one shape, each at a drawn scale."""
    shape = tuple(draw(st.integers(1, n)) for n in (3, 4, 5, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return tuple(rng.normal(size=shape) * 10.0 ** draw(st.floats(-3, 3)) for _ in range(2))


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


LEVELS = st.floats(0.0, 1.0, exclude_min=True)
OMEGAS = st.sampled_from([0.0, 1.0]) | st.floats(-50.0, -1e-3) | st.floats(10.0, 1e8)


class TestInPlaceKernels:
    """The in-place step functions round exactly as the direct forms in ``_toys`` do."""

    @settings(max_examples=80, deadline=None)
    @given(pair=branch_pairs(), ab_t=LEVELS, ab_prev=LEVELS)
    def test_update_matches_the_direct_form(self, pair, ab_t, ab_prev):
        x, eps = pair
        with np.errstate(over="ignore", invalid="ignore"):
            want_x, want_p = direct_ddim_step(x, eps, ab_t, ab_prev)
            buf = x.copy()
            got_x, got_p = ddim_step(buf, eps.copy(), ab_t, ab_prev)
        assert got_x is buf
        assert np.array_equal(_bits(got_x), _bits(want_x))
        assert np.array_equal(_bits(got_p), _bits(want_p))

    @settings(max_examples=80, deadline=None)
    @given(pair=branch_pairs(), omega=OMEGAS)
    def test_guidance_matches_the_direct_form(self, pair, omega):
        u, c = pair
        want = direct_cfg_combine(u, c, omega)
        buf = u.copy()
        got = cfg_combine(buf, c.copy(), omega)
        assert got is buf
        assert np.array_equal(_bits(got), _bits(want))

    @settings(max_examples=60, deadline=None)
    @given(
        pair=branch_pairs(),
        step=st.integers(0, TIMELINE.num_steps - 1),
        variance=st.floats(1e-3, 1e3),
    )
    def test_gaussian_prediction_matches_the_direct_form(self, pair, step, variance):
        x, m = pair
        means = m[0, :, 0, 0]  # one per channel, broadcast over x's rows and grid
        prior = GaussianPrior(means, variance)
        ab = float(TIMELINE.alpha_bar_at_step[step])
        want = direct_gaussian_eps(means, variance, x, ab)
        out = np.empty_like(x)
        assert prior.predict_eps(x, ab, None, out=out) is out
        assert np.array_equal(_bits(out), _bits(want))
        assert np.array_equal(_bits(prior.predict_eps(x, ab, None)), _bits(want))


class TestNoiseRefresh:
    def test_full_signal_level_returns_the_resized_estimate(self):
        p = gaussian_noise(1, 4, 4, SeededRng(5).stream("init"))
        eps = gaussian_noise(1, 8, 8, SeededRng(6).stream("init"))
        (out,) = noise_refresh(p[None], CODEC, 8, 8, 1.0, [eps])
        assert np.array_equal(out, resize_bilinear(LatentGrid(p), 8, 8).data)

    def test_same_resolution_matches_forward_noising(self):
        p = gaussian_noise(2, 4, 4, SeededRng(7).stream("init"))
        eps = gaussian_noise(2, 4, 4, SeededRng(8).stream("init"))
        (out,) = noise_refresh(p[None], CODEC, 4, 4, 0.82, [eps])
        assert np.array_equal(out, np.sqrt(0.82) * p + np.sqrt(1.0 - 0.82) * eps)

    @pytest.mark.parametrize("block", [False, True])
    def test_a_batch_matches_the_one_seed_refresh(self, tmp_path, codec_tmp, block):
        codec = (
            ExternalCodec(codec_stub(tmp_path, BLOCK_CODEC), granularity=2)
            if block else IdentityCodec()
        )
        rngs = [SeededRng(s) for s in (12, 13, 14)]
        p_x0 = [gaussian_noise(3, 4, 6, r.stream("init")) for r in rngs]
        eps = [gaussian_noise(3, 6, 10, r.stream("refresh", 1)) for r in rngs]
        got = noise_refresh(read_only(p_x0), codec, 6, 10, 0.37, eps)
        assert got.shape == (3, 3, 6, 10) and got.flags.writeable
        for row, p, e in zip(got, p_x0, eps):
            want = direct_noise_refresh(p, codec, 6, 10, 0.37, e)
            assert np.array_equal(row.view(np.uint64), want.view(np.uint64))

    def test_noise_count_must_match_the_batch(self):
        p = gaussian_noise(1, 4, 4, SeededRng(9).stream("init"))
        eps = gaussian_noise(1, 4, 4, SeededRng(10).stream("init"))
        with pytest.raises(ValueError, match="longer"):
            noise_refresh(p[None], CODEC, 4, 4, 0.5, [eps, eps])


def _gaussian():
    return GaussianPrior(np.full(4, 0.2), 1.0)


class _Draws:
    """A stream bundle for ``seed`` whose every stream draws ``values``."""

    def __init__(self, seed, values):
        self.seed, self.values = seed, values

    def stream(self, purpose, index=0):
        return self

    def standard_normal(self, shape):
        return self.values


# built once: the batch properties draw many runs from it
SHELL = clustered_shell_prior()


class TestRunBasics:
    def test_variants_tuple(self):
        assert VARIANTS == (
            "baseline", "rectified", "latent-resize", "snr-corrected", "native-baseline",
            "rectified-no-rect",
        )

    def test_deterministic_given_the_seed(self):
        prior = _gaussian()
        plan = staged_plan(2.0, 6.0)
        (a,) = run("rectified", plan, TIMELINE, prior, CODEC, None, [SeededRng(21)])
        (b,) = run("rectified", plan, TIMELINE, prior, CODEC, None, [SeededRng(21)])
        assert a.trace == b.trace
        assert np.array_equal(a.final_p_x0, b.final_p_x0)

    def test_rectified_without_boundaries_is_the_baseline(self):
        prior = _gaussian()
        plan = single_plan(2.0)
        (a,) = run("baseline", plan, TIMELINE, prior, CODEC, None, [SeededRng(22)])
        (b,) = run("rectified", plan, TIMELINE, prior, CODEC, None, [SeededRng(22)])
        assert a.trace == b.trace
        assert np.array_equal(a.final_p_x0, b.final_p_x0)

    def test_on_step_sees_each_step_once_in_order(self):
        seen = []
        results = run(
            "rectified", staged_plan(2.0, 6.0), TIMELINE, _gaussian(), CODEC, None,
            [SeededRng(23), SeededRng(1023)], on_step=lambda step, p_x0: seen.append((step, p_x0)),
        )
        assert [step for step, _ in seen] == list(range(50))
        for step, p_x0 in seen:
            assert type(p_x0) is np.ndarray and p_x0.dtype == np.float64
            assert p_x0.shape == ((2, 4, 16, 16) if step < 40 else (2, 4, 32, 32))
            assert not p_x0.flags.writeable
        for row, result in zip(seen[-1][1], results, strict=True):
            assert np.array_equal(_bits(row), _bits(result.final_p_x0))

    def test_first_row_records_the_initial_latent_energy(self):
        prior = _gaussian()
        noise = gaussian_noise(4, 16, 16, SeededRng(24).stream("init"))
        (result,) = run(
            "baseline", single_plan(2.0), TIMELINE, prior, CODEC, None, [SeededRng(24)]
        )
        assert result.trace[0].latent_energy == average_energy(noise)

    def test_plan_and_timeline_must_agree(self):
        short = build_timeline(build_schedule(), 10)
        with pytest.raises(ValueError, match="covers"):
            run(
                "baseline", single_plan(2.0), short, _gaussian(), CODEC, None,
                [SeededRng(27)],
            )

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="variant"):
            run(
                "turbo", single_plan(2.0), TIMELINE, _gaussian(), CODEC, None,
                [SeededRng(28)],
            )

    def test_denoiser_failures_carry_the_step(self):
        class Exploding(GaussianPrior):
            def predict_eps(self, x_t, alpha_bar, label, out=None):
                if alpha_bar == TIMELINE.alpha_bar_at_step[7]:
                    raise ValueError("synthetic failure")
                return super().predict_eps(x_t, alpha_bar, label, out)

        prior = Exploding(np.full(4, 0.2), 1.0)
        with pytest.raises(SamplerError, match="step 7") as info:
            run("baseline", single_plan(2.0), TIMELINE, prior, CODEC, None, [SeededRng(29)])
        assert info.value.step == 7


class TestReferenceVariants:
    """The two energy-curve references run as the plain variants would on the
    plan each one stands for, bit for bit (docs/DECISIONS.md entry 12)."""

    def _assert_same_runs(self, got, want):
        for a, b in zip(got, want, strict=True):
            assert a.trace == b.trace
            assert np.array_equal(_bits(a.final_p_x0), _bits(b.final_p_x0))

    def test_native_baseline_is_the_baseline_at_the_target_size(self):
        rngs = [SeededRng(70), SeededRng(71)]
        got = run("native-baseline", staged_plan(3, 12), TIMELINE, SHELL, CODEC, CLASS_ZERO, rngs)
        target = single_plan(3.0, TARGET, TARGET)
        want = run("baseline", target, TIMELINE, SHELL, CODEC, CLASS_ZERO, rngs)
        self._assert_same_runs(got, want)

    def test_rectified_no_rect_is_the_rectified_run_at_a_flat_omega(self):
        rngs = [SeededRng(72), SeededRng(73)]
        got = run("rectified-no-rect", staged_plan(3, 12), TIMELINE, SHELL, CODEC, CLASS_ZERO, rngs)
        want = run("rectified", staged_plan(3, 3), TIMELINE, SHELL, CODEC, CLASS_ZERO, rngs)
        self._assert_same_runs(got, want)


# a 7-step timeline whose two stages meet at step 4
SEVEN = build_timeline(build_schedule(), 7)
SEVEN_PLAN = build_plan(
    LadderConfig(
        t_min=4, t_max=7, n_stages=2, m_t=1.0, omega_min=2.0, omega_max=5.0,
        m_omega=1.0, resolutions=((4, 4), (8, 8)),
    ),
    SEVEN,
)


class TestLevelContract:
    """``run`` is the one source of noise levels: the denoiser sees each step's
    timeline level, once per guidance branch, whatever the variant."""

    @pytest.mark.parametrize(
        "variant,label",
        [
            ("baseline", None), ("rectified", CLASS_ZERO), ("latent-resize", CLASS_ZERO),
            ("snr-corrected", None), ("native-baseline", None), ("rectified-no-rect", CLASS_ZERO),
        ],
        ids=[
            "baseline", "rectified-guided", "latent-resize-guided", "snr-corrected",
            "native-baseline", "rectified-no-rect-guided",
        ],
    )
    def test_the_denoiser_sees_the_timeline_levels_in_step_order(self, variant, label):
        seen = []

        class Recording(GaussianPrior):
            def predict_eps(self, x_t, alpha_bar, label, out=None):
                seen.append((alpha_bar, label))
                return super().predict_eps(x_t, alpha_bar, label, out)

        assert SEVEN_PLAN.refresh_steps == (4,)
        prior = Recording(np.full(4, 0.2), 1.0)
        run(variant, SEVEN_PLAN, SEVEN, prior, CODEC, label, [SeededRng(60), SeededRng(61)])
        # snr-corrected too: its corrected levels go to the update, not the denoiser
        branches = (None, label) if label is not None else (None,)
        assert seen == [(float(ab), c) for ab in SEVEN.alpha_bar_at_step[:7] for c in branches]

    @pytest.mark.parametrize("variant", ["baseline", "rectified", "snr-corrected"])
    @pytest.mark.parametrize("bad", [0.0, 1.0])
    def test_a_degenerate_level_fails_its_step(self, variant, bad):
        # no timeline the program builds holds such a level; in one built by
        # hand it makes the step non-finite, and the energy screen fails it
        levels = SEVEN.alpha_bar_at_step.copy()
        levels[4] = bad
        broken = SamplerTimeline(7, SEVEN.step_to_train_t, levels)
        with warnings.catch_warnings(), pytest.raises(SamplerError) as info:
            warnings.simplefilter("ignore")
            run(variant, SEVEN_PLAN, broken, _gaussian(), CODEC, None, [SeededRng(62)])
        assert info.value.step == 4
        assert "non-finite" in str(info.value)


class TestGridsAtTheEdges:
    def test_a_run_without_boundaries_builds_no_holder(self, monkeypatch):
        prior = clustered_shell_prior()
        built = []
        init = LatentGrid.__init__

        def counting_init(self, values):
            built.append(values)
            init(self, values)

        monkeypatch.setattr(LatentGrid, "__init__", counting_init)
        for batch in (1, 3):
            rngs = [SeededRng(40 + k) for k in range(batch)]
            estimates = []
            results = run(
                "baseline", single_plan(3.0), TIMELINE, prior, CODEC, CLASS_ZERO, rngs,
                on_step=lambda step, p_x0: estimates.append(p_x0),
            )
            # the noise is drawn as plain arrays, and every step, estimate
            # and final is one
            assert built == []
            rows = [*estimates[0], *estimates[49], *(r.final_p_x0 for r in results)]
            assert len(rows) == 3 * batch
            for row in rows:
                assert type(row) is np.ndarray and row.dtype == np.float64
                assert row.shape == (4, 16, 16) and not row.flags.writeable
            assert np.array_equal(estimates[49], [r.final_p_x0 for r in results])

    def test_a_non_finite_prediction_fails_its_step(self):
        class Poisoned(GaussianPrior):
            def predict_eps(self, x_t, alpha_bar, label, out=None):
                eps = super().predict_eps(x_t, alpha_bar, label, out)
                if alpha_bar == TIMELINE.alpha_bar_at_step[7]:
                    eps[1] = np.nan  # the second seed's row only
                return eps

        prior = Poisoned(np.full(4, 0.2), 1.0)
        rngs = [SeededRng(41), SeededRng(1041), SeededRng(2041)]
        with pytest.raises(SamplerError, match="step 7, seed 1041") as info:
            run("baseline", single_plan(2.0), TIMELINE, prior, CODEC, None, rngs)
        assert info.value.step == 7
        assert info.value.seed == 1041

    def test_a_non_finite_initial_noise_fails_the_first_step(self):
        # the initial latents are plain arrays: the energy screen checks them
        noise = np.zeros((4, 16, 16))
        noise[2, 3, 4] = np.nan
        with pytest.raises(SamplerError, match="step 0, seed 1044: latent grid contains"):
            run(
                "baseline", single_plan(2.0), TIMELINE, _gaussian(), CODEC, None,
                [_Draws(44, np.zeros((4, 16, 16))), _Draws(1044, noise)],
            )

    def test_a_huge_finite_latent_is_not_rejected(self):
        # every element of 1e200 is finite, so the latent is not rejected as
        # non-finite; its square overflows the energy, which fails the step
        # without a numpy warning
        with warnings.catch_warnings(), pytest.raises(SamplerError) as info:
            warnings.simplefilter("error")
            run(
                "baseline", single_plan(2.0), TIMELINE, _gaussian(), CODEC, None,
                [_Draws(42, np.full((4, 16, 16), 1e200))],
            )
        assert str(info.value) == "step 0, seed 42: latent energy overflows float64"
        assert info.value.step == 0
        assert info.value.seed == 42

    def test_a_failed_codec_call_names_its_seed(self, tmp_path, codec_tmp):
        codec = ExternalCodec(
            codec_stub(tmp_path, FAILS_ON_INDEX_1.format(dir=str(tmp_path))), granularity=1
        )
        plan = build_plan(ladder(2, 2.0, 2.0, ((4, 4), (8, 8))), TIMELINE)
        rngs = [SeededRng(43), SeededRng(1043), SeededRng(2043)]
        with pytest.raises(SamplerError, match="step 40, seed 1043: decode command") as info:
            run("rectified", plan, TIMELINE, _gaussian(), codec, None, rngs)
        assert (info.value.step, info.value.seed) == (40, 1043)
        assert list(codec_tmp.iterdir()) == []


def _rounded(trace):
    """Trace rows with both energies as the CSV writes them, at 9 significant digits."""
    return [
        (r.step, r.train_t, r.omega, f"{r.latent_energy:.9g}", f"{r.p_x0_energy:.9g}", r.refreshed)
        for r in trace
    ]


def _noise_entering(rngs):
    """Per seed: the initial latent and both boundaries' fresh noise, as a run uses them."""
    init, fresh = [], []

    class Recording(GaussianPrior):
        def predict_eps(self, x_t, alpha_bar, label, out=None):
            if alpha_bar == TIMELINE.alpha_bar_at_step[0]:
                init.extend(x_t.copy())
            return super().predict_eps(x_t, alpha_bar, label, out)

    def recording_refresh(p_x0, codec, height, width, alpha_bar_prev, eps):
        eps = list(eps)
        fresh.extend(eps)
        return noise_refresh(p_x0, codec, height, width, alpha_bar_prev, eps)

    plan = build_plan(ladder(3, 2.0, 2.0, ((4, 4), (8, 8), (12, 12))), TIMELINE)
    prior = Recording(np.full(4, 0.2), 1.0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sampler, "noise_refresh", recording_refresh)
        run("rectified", plan, TIMELINE, prior, CODEC, None, rngs)
    # each boundary refreshes its seeds as one batch, in batch order
    b = len(rngs)
    return {r.seed: (init[i], fresh[i], fresh[b + i]) for i, r in enumerate(rngs)}


class TestBatches:
    """A batch of seeds runs each seed as its own one-seed run would (docs/DECISIONS.md entry 4)."""

    @settings(max_examples=24, deadline=None, derandomize=True)
    @given(
        seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6),
        variant=st.sampled_from(VARIANTS),
        gaussian=st.booleans(),
    )
    def test_each_seed_matches_its_one_seed_run(self, seeds, variant, gaussian):
        prior, label = (_gaussian(), None) if gaussian else (SHELL, CLASS_ZERO)
        plan = staged_plan(3.0, 12.0)
        batch = run(variant, plan, TIMELINE, prior, CODEC, label, [SeededRng(s) for s in seeds])
        assert len(batch) == len(seeds)
        for seed, got in zip(seeds, batch):
            (want,) = run(variant, plan, TIMELINE, prior, CODEC, label, [SeededRng(seed)])
            assert _rounded(got.trace) == _rounded(want.trace)
            # the float32 storage tolerance of the tensor files
            ref = want.final_p_x0
            assert np.abs(got.final_p_x0 - ref).max() <= 2.0**-22 * np.abs(ref).max()

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6, unique=True),
        data=st.data(),
    )
    def test_noise_depends_only_on_the_seed_and_stage(self, seeds, data):
        order = data.draw(st.permutations(seeds))
        for batch in (seeds, order):
            seen = _noise_entering([SeededRng(s) for s in batch])
            for seed in seeds:
                rng = SeededRng(seed)
                want = (
                    gaussian_noise(4, 4, 4, rng.stream("init")),
                    gaussian_noise(4, 8, 8, rng.stream("refresh", 1)),
                    gaussian_noise(4, 12, 12, rng.stream("refresh", 2)),
                )
                assert all(np.array_equal(a, b) for a, b in zip(seen[seed], want))

    def test_seed_and_noise_counts_are_checked(self):
        with pytest.raises(ValueError, match="at least one seed"):
            run("baseline", single_plan(2.0), TIMELINE, _gaussian(), CODEC, None, [])


# a 12-step timeline whose two- or three-stage ladders meet at steps 6 and 8
TWELVE = build_timeline(build_schedule(), 12)


def _twelve_plan(omegas):
    """Stages of 8x8, (12x12,) 16x16 over TWELVE, one guidance scale each."""
    sizes = ((8, 8), (16, 16)) if len(omegas) == 2 else ((8, 8), (12, 12), (16, 16))
    config = LadderConfig(
        t_min=6, t_max=12, n_stages=len(omegas), m_t=1.0, omega_min=1.0, omega_max=2.0,
        m_omega=1.0, resolutions=sizes,
    )
    plan = build_plan(config, TWELVE)
    return plan._replace(stages=tuple(s._replace(omega=w) for s, w in zip(plan.stages, omegas)))


class _Counting(Denoiser):
    """Passes every prediction to ``inner`` and counts the calls, and per
    branch (the label) the calls times each call's H x W."""

    def __init__(self, inner):
        self.inner, self.channels, self.calls, self.pixels = inner, inner.channels, 0, {}

    def predict_eps(self, x_t, alpha_bar, label, out=None):
        self.calls += 1
        self.pixels[label] = self.pixels.get(label, 0) + x_t.shape[-2] * x_t.shape[-1]
        return self.inner.predict_eps(x_t, alpha_bar, label, out)


class TestPixelSteps:
    """The paper's efficiency claim as an exact count: the predictions a
    staged run makes, in calls x H x W per guidance branch, against a run
    with every step at the target resolution (ROADMAP item 16 (d))."""

    @pytest.mark.parametrize(
        "preset, resolutions, staged",
        [
            # 40 x 16^2 + 10 x 32^2 against 50 x 32^2: a ratio of 2.5
            ("paper-2048", ((16, 16), (32, 32)), 20_480),
            # 40 x 16^2 + 5 x 24^2 + 5 x 32^2
            ("paper-4096", ((16, 16), (24, 24), (32, 32)), 18_240),
        ],
    )
    def test_rectified_against_native(self, preset, resolutions, staged):
        plan = build_plan(ladder_preset(preset, resolutions), TIMELINE)
        pixels = {}
        for variant in ("rectified", "native-baseline"):
            counted = _Counting(GaussianPrior(np.zeros(4), 1.0))
            run(variant, plan, TIMELINE, counted, CODEC, CLASS_ZERO, [SeededRng(1)])
            pixels[variant] = counted.pixels
        assert pixels["rectified"] == {None: staged, CLASS_ZERO: staged}
        assert pixels["native-baseline"] == {None: 51_200, CLASS_ZERO: 51_200}


class TestSharedStore:
    """Runs that share a store of trajectory states return, curve by curve,
    bitwise what their standalone runs return (docs/DECISIONS.md entry 19)."""

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        scales=st.lists(
            st.lists(st.sampled_from([3.0, 12.0]), min_size=2, max_size=3), min_size=2, max_size=2
        ),
        gaussian=st.booleans(),
        guided=st.booleans(),
        seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=2),
        data=st.data(),
    )
    def test_each_curve_matches_its_standalone_run(self, scales, gaussian, guided, seeds, data):
        # each plan's scales are staged, flat, or held over the first two stages
        plans = [_twelve_plan(omegas) for omegas in scales]
        prior = _gaussian() if gaussian else SHELL
        label = CLASS_ZERO if guided else None
        every = [(v, k) for v in VARIANTS for k in range(len(plans))]
        curves = data.draw(st.permutations(every)) + data.draw(
            st.lists(st.sampled_from(every), max_size=3)
        )
        rngs = [SeededRng(s) for s in seeds]
        counted, shared = _Counting(prior), {}
        alone = {
            (v, k): run(v, plans[k], TWELVE, prior, CODEC, label, rngs) for v, k in every
        }
        for variant, k in curves:
            got = run(variant, plans[k], TWELVE, counted, CODEC, label, rngs, shared=shared)
            for a, b in zip(got, alone[variant, k], strict=True):
                assert a.trace == b.trace
                assert np.array_equal(_bits(a.final_p_x0), _bits(b.final_p_x0))
        # baseline and rectified on one plan always share their stage-0 steps
        assert counted.calls < len(curves) * 12 * (2 if guided else 1)

    @pytest.mark.parametrize(
        "change, calls",
        [
            (None, 0), ("rngs", 24), ("bundle", 24), ("denoiser", 24), ("codec", 24),
            ("label", 24), ("timeline", 24), ("rebuilt-timeline", 0),
        ],
    )
    def test_a_store_resumes_only_runs_of_the_same_inputs(self, change, calls):
        plan = _twelve_plan((3.0, 12.0))
        counted, shared = _Counting(SHELL), {}
        inputs = dict(
            timeline=TWELVE, denoiser=counted, codec=CODEC, label=CLASS_ZERO,
            rngs=[SeededRng(80)],
        )
        run("rectified", plan, **inputs, shared=shared)
        if change is not None:
            name, value = {
                # another SeededRng(80): the objects a run calls count by identity
                "rngs": ("rngs", [SeededRng(80)]),
                # seed 80, but its initial latent draws another stream's noise
                "bundle": ("rngs", [BoundaryStart(SeededRng(80))]),
                "denoiser": ("denoiser", _Counting(SHELL)),
                "codec": ("codec", IdentityCodec()),
                "label": ("label", 1),
                "timeline": ("timeline", build_timeline(linear_schedule(1e-4, 0.02, 1000), 12)),
                # a timeline counts by its levels: TWELVE built again resumes
                "rebuilt-timeline": ("timeline", build_timeline(build_schedule(), 12)),
            }[change]
            inputs[name] = value
        probe = inputs["denoiser"]
        probe.calls = 0
        got = run("rectified", plan, **inputs, shared=shared)
        assert probe.calls == calls
        want = run("rectified", plan, **inputs)
        for a, b in zip(got, want, strict=True):
            assert a.trace == b.trace
            assert np.array_equal(_bits(a.final_p_x0), _bits(b.final_p_x0))

    @pytest.mark.parametrize(
        "extra, error, match",
        [
            # run has no initial-noise input: every starting latent comes from rngs
            pytest.param(
                dict(initial_noise=np.zeros((1, 4, 8, 8))), TypeError, "initial_noise", id="extra0"
            ),
            pytest.param(
                dict(on_step=lambda step, p_x0: None), ValueError, "shared store", id="extra1"
            ),
        ],
    )
    def test_a_store_takes_no_initial_noise_or_snapshots(self, extra, error, match):
        counted, shared = _Counting(SHELL), {}
        with pytest.raises(error, match=match):
            run(
                "rectified", _twelve_plan((3.0, 12.0)), TWELVE, counted, CODEC, None,
                [SeededRng(82)], shared=shared, **extra,
            )
        assert counted.calls == 0 and shared == {}


class TestEnergiesAreObservers:
    """No tensor reads an energy, so the energies' rounding cannot reach one
    (docs/DECISIONS.md entry 20): scaling every energy by 1 + 1e-9 leaves
    every estimate and snapshot bitwise as it was."""

    SCALE = 1.0 + 1e-9

    def _runs(self, prior, label, store):
        """Each run's (result, snapshots) of staged ``rectified`` runs: one
        snapshotting every step, or two resuming from one store."""
        rngs = [SeededRng(90), SeededRng(91)]
        if not store:
            snaps = []
            results = run(
                "rectified", _twelve_plan((3.0, 12.0)), TWELVE, prior, CODEC, label, rngs,
                on_step=lambda step, p_x0: snaps.extend(p_x0),
            )
            return [(results, snaps)]
        shared = {}
        return [
            (run("rectified", _twelve_plan(omegas), TWELVE, prior, CODEC, label, rngs,
                 shared=shared), [])
            for omegas in ((3.0, 12.0), (3.0, 6.0))
        ]

    @pytest.mark.parametrize("store", [False, True], ids=["snapshots", "store"])
    @pytest.mark.parametrize("guided", [False, True], ids=["unguided", "guided"])
    @pytest.mark.parametrize("gaussian", [True, False], ids=["gaussian", "shell"])
    def test_scaled_energies_change_no_tensor(self, monkeypatch, gaussian, guided, store):
        prior = _gaussian() if gaussian else SHELL
        label = CLASS_ZERO if guided else None
        plain = self._runs(prior, label, store)
        energy = sampler.average_energy
        monkeypatch.setattr(sampler, "average_energy", lambda x: energy(x) * self.SCALE)
        scaled = self._runs(prior, label, store)
        for (want, want_snaps), (got, got_snaps) in zip(plain, scaled, strict=True):
            assert len(got_snaps) == len(want_snaps) == (0 if store else 24)
            for a, b in zip(got_snaps, want_snaps):
                assert np.array_equal(_bits(a), _bits(b))
            for a, b in zip(got, want, strict=True):
                assert np.array_equal(_bits(a.final_p_x0), _bits(b.final_p_x0))
                for r, s in zip(a.trace, b.trace, strict=True):
                    assert r[:3] + r[5:] == s[:3] + s[5:]
                    assert r.latent_energy == s.latent_energy * self.SCALE != s.latent_energy
                    assert r.p_x0_energy == s.p_x0_energy * self.SCALE != s.p_x0_energy


class TestStagedTrace:
    def test_snapshots_ratchet_through_the_boundary(self):
        prior = _gaussian()
        seen = []
        results = run(
            "rectified", staged_plan(5.0, 30.0), TIMELINE, prior, CODEC, None,
            [SeededRng(31), SeededRng(32)],
            on_step=lambda step, p_x0: seen.append((step, p_x0.shape)),
        )
        # each step reports every seed as soon as its estimate exists; the
        # boundary consumes step 39's estimate at the old resolution, and
        # step 40 is the first estimate computed at the new one
        assert seen[39:41] + seen[49:] == [
            (39, (2, 4, 16, 16)), (40, (2, 4, 32, 32)), (49, (2, 4, 32, 32)),
        ]
        assert [r.final_p_x0.shape for r in results] == [(4, 32, 32)] * 2


# The README quick-start prior. The bench reference still takes its Gaussian
# mean off the first stage from channel averages of a stored field: exact for
# 0.25, but about 1e-16 off for a mean that does not average exactly.
MEAN, VARIANCE = 0.25, 1.5
# 8 points at 4x8x8, float32 as a dataset file holds them
POINTS = np.random.default_rng(8).normal(size=(8, 4, 8, 8)).astype(np.float32)
BENCH_LADDERS = {"paper-2048": ((8, 8), (16, 16)), "paper-4096": ((8, 8), (12, 12), (16, 16))}
# gaussian-codec: the bench's stand-in codec, where a variant's boundaries call one
BENCH_CASES = [
    pytest.param(preset, prior, variant, id=f"{preset}-{prior}-{variant}")
    for preset in BENCH_LADDERS
    for prior in ("gaussian", "dataset", "dataset-guided", "gaussian-codec")
    for variant in VARIANTS
    if prior != "gaussian-codec" or variant in ("rectified", "rectified-no-rect")
]


class TestBenchReference:
    """``run``, seed by seed, against ``bench/checks.py::reference_run``: the
    staged loop written again from the direct forms, with its own schedule,
    ladder, variant table, posterior, guidance, update, refresh and codec.
    Tolerances fixed before the first comparison: Gaussian estimates bitwise
    (docs/DECISIONS.md entry 5); dataset estimates within 1e-12 of their
    scale, as the matrix-form posterior drops a shared term; step, train_t,
    omega and refreshed exact; energies within 1e-12 relative (entry 20)."""

    SEEDS = (101, 102)

    @pytest.mark.parametrize("preset, prior, variant", BENCH_CASES)
    def test_each_seed_matches_the_reference_run(self, preset, prior, variant):
        workloads, checks = bench_module("workloads"), bench_module("checks")
        dataset, guided = prior.startswith("dataset"), prior == "dataset-guided"
        external = prior == "gaussian-codec"
        workload = workloads.Workload(
            name=prior, command="sample", preset=preset, resolutions=BENCH_LADDERS[preset],
            prior="dataset" if dataset else "gaussian", run_count=len(self.SEEDS),
            conditional=guided, external_codec=external,
        )
        # the reference reads no config file
        points = POINTS if dataset else None
        inputs = workloads.Inputs(workload, None, self.SEEDS[0], points, MEAN, VARIANCE)
        # the denoiser and codec as config.build_denoiser and build_codec make them
        if dataset:
            labels = [i % 2 if guided else 0 for i in range(len(POINTS))]
            denoiser, label = DatasetPrior(POINTS.astype(np.float64), labels), 0 if guided else None
        else:
            denoiser, label = GaussianPrior(np.full(4, MEAN), VARIANCE), None
        stand_in = f"{shlex.quote(sys.executable)} -S {shlex.quote(str(BENCH / 'stand_in_codec.py'))}"
        codec = ExternalCodec(stand_in, granularity=2) if external else CODEC
        plan = build_plan(ladder_preset(preset, BENCH_LADDERS[preset]), TIMELINE)
        rngs = [SeededRng(s) for s in self.SEEDS]
        for seed, got in zip(self.SEEDS, run(variant, plan, TIMELINE, denoiser, codec, label, rngs)):
            rows, snapshots = checks.reference_run(inputs, seed, variant)
            assert [r[:3] + r[5:] for r in got.trace] == [r[:3] + r[5:] for r in rows]
            energies, want_energies = (np.array([r[3:5] for r in t]) for t in (got.trace, rows))
            assert np.all(np.abs(energies - want_energies) <= 1e-12 * want_energies)
            want = snapshots[-1]
            if dataset:
                assert np.abs(got.final_p_x0 - want).max() <= 1e-12 * np.abs(want).max()
            else:
                assert np.array_equal(_bits(got.final_p_x0), _bits(want))


class TestAffineOracle:
    def test_single_step_closed_form(self):
        timeline = build_timeline(linear_schedule(0.5, 0.5, 1), 1)
        plan = build_plan(
            LadderConfig(
                t_min=0, t_max=1, n_stages=1, m_t=1.0,
                omega_min=1.0, omega_max=1.0, m_omega=1.0, resolutions=((2, 2),),
            ),
            timeline,
        )
        v = 1.3
        noise_gain, mean_gain = affine_trajectory_oracle(plan, timeline, v)
        g = np.sqrt(0.5) * v / (0.5 * v + 0.5)
        assert noise_gain == pytest.approx(g, rel=1e-15)
        assert mean_gain == pytest.approx(1.0 - g * np.sqrt(0.5), rel=1e-15)

    def test_gain_identity_from_the_fixed_point(self):
        # starting at sqrt(ab_0) * mean keeps the trajectory on the mean, so
        # noise_gain * sqrt(ab_0) + mean_gain must equal 1
        root_ab0 = np.sqrt(float(TIMELINE.alpha_bar_at_step[0]))
        for variance in (0.3, 1.0, 2.7):
            noise_gain, mean_gain = affine_trajectory_oracle(single_plan(2.0), TIMELINE, variance)
            assert noise_gain * root_ab0 + mean_gain == pytest.approx(1.0, abs=1e-12)

    def test_rejects_staged_plans(self):
        with pytest.raises(ValueError, match="single-resolution"):
            affine_trajectory_oracle(staged_plan(2.0, 2.0), TIMELINE, 1.0)

    def test_zero_variance_lands_every_run_on_the_point(self):
        # a prior concentrated on its mean: the oracle sends every x_T there,
        # and so does every run, staged or not, of a dataset prior whose
        # points all coincide, except snr-corrected, whose update does not see
        # the level its denoiser saw. Constant per channel, that point is a
        # Gaussian prior of vanishing variance at every stage, energies included.
        assert affine_trajectory_oracle(single_plan(3.0), TIMELINE, 0.0) == (0.0, 1.0)
        values = np.array([0.3, -1.2, 0.0, 2.5])
        point = values[:, None, None] * np.ones((4, 8, 8))
        gaussian = GaussianPrior(values, 1e-300)
        rngs = [SeededRng(800 + k) for k in range(5)]
        ladders = (((8, 8), (16, 16)), ((8, 8), (12, 12), (16, 16)))
        for resolutions, variant, label in itertools.product(ladders, VARIANTS, (None, CLASS_ZERO)):
            plan = build_plan(ladder(len(resolutions), 2.0, 6.0, resolutions), TIMELINE)
            want = run(variant, plan, TIMELINE, gaussian, CODEC, label, rngs)
            for n in (1, 8):
                prior = DatasetPrior(np.repeat(point[None], n, axis=0), [CLASS_ZERO] * n)
                for g, w in zip(run(variant, plan, TIMELINE, prior, CODEC, label, rngs), want):
                    if variant != "snr-corrected":
                        assert float(np.abs(g.final_p_x0 - point[:, :1, :1]).max()) <= 1e-12
                    diff = float(np.abs(g.final_p_x0 - w.final_p_x0).max())
                    assert diff <= 1e-12 * float(np.abs(w.final_p_x0).max())
                    energies = [(r.latent_energy, r.p_x0_energy) for r in g.trace]
                    assert energies == pytest.approx(
                        [(r.latent_energy, r.p_x0_energy) for r in w.trace], rel=1e-12, abs=0
                    )

    def test_matches_full_runs_at_odd_settings(self):
        rng = np.random.default_rng(35)
        means = rng.normal(0.1, 0.5, size=3)
        prior = GaussianPrior(means, 0.9)
        plan = single_plan(2.5, 6, 6)
        noise_gain, mean_gain = affine_trajectory_oracle(plan, TIMELINE, prior.variance)
        for k in range(10):
            srng = SeededRng(700 + k)
            noise = gaussian_noise(3, 6, 6, srng.stream("init"))
            (got,) = run("baseline", plan, TIMELINE, prior, CODEC, None, [srng])
            want = noise_gain * noise + mean_gain * means[:, None, None]
            denom = max(float(np.abs(want).max()), 1e-12)
            assert float(np.abs(got.final_p_x0 - want).max()) / denom < 1e-9


class TestRunDistribution:
    def test_final_noise_component_has_the_predicted_moments(self):
        # short runs on a tiny grid: the final estimate is exactly
        # noise_gain * x_T + mean_gain * mean, so pooled residuals against
        # the mean term must look like noise_gain * standard normals
        timeline = build_timeline(linear_schedule(0.02, 0.08, 40), 6)
        plan = build_plan(
            LadderConfig(
                t_min=0, t_max=6, n_stages=1, m_t=1.0,
                omega_min=1.0, omega_max=1.0, m_omega=1.0, resolutions=((2, 2),),
            ),
            timeline,
        )
        prior = GaussianPrior([0.7], 1.3)
        noise_gain, mean_gain = affine_trajectory_oracle(plan, timeline, prior.variance)
        rngs = [SeededRng(50_000 + k) for k in range(3000)]
        results = run("baseline", plan, timeline, prior, CODEC, None, rngs)
        residuals = np.array(
            [(result.final_p_x0 - mean_gain * 0.7).ravel() for result in results]
        )
        z, ratio = z_test_mean_var(residuals, 0.0, noise_gain**2)
        assert abs(z) < 4.0
        assert 0.9 < ratio < 1.1
