"""Step updates, boundary actions, full runs, and the closed-form run oracle.

The replication tests rebuild a whole staged run out of public pieces
(predict_eps, ddim_step, noise_refresh, resize_bilinear) and demand bitwise
agreement with run(); they pin down which level each boundary re-noises to
and which stage's noise stream it draws from. The in-place step functions
are held bit for bit to the direct forms kept in ``_toys``.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from restage import sampler
from restage.checks import z_test_mean_var
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
    affine_trajectory_oracle,
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
    snr_corrected_alpha_bar,
)

from _toys import (
    BLOCK_CODEC,
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
        native=st.booleans(),
        variance=st.floats(1e-3, 1e3),
    )
    def test_gaussian_prediction_matches_the_direct_form(self, pair, step, native, variance):
        x, m = pair
        _, c, h, w = x.shape
        # at another resolution the prior broadcasts its channel means
        mean = m[0] if native else np.resize(m[0], (c, h + 1, w + 2))
        prior = GaussianPrior(mean, variance)
        ab = float(TIMELINE.alpha_bar_at_step[step])
        want = direct_gaussian_eps(prior, x, ab)
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


def _gaussian(channels=4, height=16, width=16, value=0.2, variance=1.0):
    return GaussianPrior(np.full((channels, height, width), value), variance)


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

    def test_explicit_initial_noise_matches_the_drawn_one(self):
        prior = _gaussian()
        plan = single_plan(2.0)
        drawn = gaussian_noise(4, 16, 16, SeededRng(23).stream("init"))[None]
        noise = drawn.copy()
        (a,) = run("baseline", plan, TIMELINE, prior, CODEC, None, [SeededRng(23)])
        (b,) = run(
            "baseline", plan, TIMELINE, prior, CODEC, None, [SeededRng(23)], initial_noise=noise,
        )
        assert a.trace == b.trace
        assert np.array_equal(a.final_p_x0, b.final_p_x0)
        assert np.array_equal(noise, drawn)  # copied, not written

    def test_first_row_records_the_initial_latent_energy(self):
        prior = _gaussian()
        noise = gaussian_noise(4, 16, 16, SeededRng(24).stream("init"))
        (result,) = run(
            "baseline", single_plan(2.0), TIMELINE, prior, CODEC, None, [SeededRng(24)]
        )
        assert result.trace[0].latent_energy == average_energy(noise)

    def test_wrong_initial_noise_shape(self):
        with pytest.raises(ValueError, match="initial noise"):
            run(
                "baseline", single_plan(2.0), TIMELINE, _gaussian(), CODEC, None,
                [SeededRng(26)], initial_noise=np.zeros((1, 4, 8, 8)),
            )

    def test_plan_and_timeline_must_agree(self):
        short = build_timeline(build_schedule(), 10)
        with pytest.raises(ValueError, match="covers"):
            run(
                "baseline", single_plan(2.0), short, _gaussian(), CODEC, None,
                [SeededRng(27)],
            )

    def test_unknown_variant_and_method(self):
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

        prior = Exploding(np.full((4, 16, 16), 0.2), 1.0)
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
            ("baseline", None), ("rectified", CLASS_ZERO), ("snr-corrected", None),
            ("native-baseline", None), ("rectified-no-rect", CLASS_ZERO),
        ],
        ids=[
            "baseline", "rectified-guided", "snr-corrected", "native-baseline",
            "rectified-no-rect-guided",
        ],
    )
    def test_the_denoiser_sees_the_timeline_levels_in_step_order(self, variant, label):
        seen = []

        class Recording(GaussianPrior):
            def predict_eps(self, x_t, alpha_bar, label, out=None):
                seen.append((alpha_bar, label))
                return super().predict_eps(x_t, alpha_bar, label, out)

        assert SEVEN_PLAN.refresh_steps == (4,)
        prior = Recording(np.full((4, 4, 4), 0.2), 1.0)
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
            run(variant, SEVEN_PLAN, broken, _gaussian(4, 4, 4), CODEC, None, [SeededRng(62)])
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
            snapshots = []
            results = run(
                "baseline", single_plan(3.0), TIMELINE, prior, CODEC, CLASS_ZERO, rngs,
                snapshot_steps=(0, 49), on_snapshot=lambda b, step, row: snapshots.append(row),
            )
            # the noise is drawn as plain arrays, and every step, snapshot
            # and final is one
            assert built == []
            rows = snapshots + [r.final_p_x0 for r in results]
            assert len(rows) == 3 * batch
            for row in rows:
                assert type(row) is np.ndarray and row.dtype == np.float64
                assert row.shape == (4, 16, 16) and not row.flags.writeable
            assert np.array_equal(snapshots[-batch:], [r.final_p_x0 for r in results])

    def test_a_non_finite_prediction_fails_its_step(self):
        class Poisoned(GaussianPrior):
            def predict_eps(self, x_t, alpha_bar, label, out=None):
                eps = super().predict_eps(x_t, alpha_bar, label, out)
                if alpha_bar == TIMELINE.alpha_bar_at_step[7]:
                    eps[1] = np.nan  # the second seed's row only
                return eps

        prior = Poisoned(np.full((4, 16, 16), 0.2), 1.0)
        rngs = [SeededRng(41), SeededRng(1041), SeededRng(2041)]
        with pytest.raises(SamplerError, match="step 7, seed 1041") as info:
            run("baseline", single_plan(2.0), TIMELINE, prior, CODEC, None, rngs)
        assert info.value.step == 7
        assert info.value.seed == 1041

    def test_a_non_finite_initial_noise_fails_the_first_step(self):
        # explicit initial noise is a plain array: the energy screen checks it
        noise = np.zeros((2, 4, 16, 16))
        noise[1, 2, 3, 4] = np.nan
        with pytest.raises(SamplerError, match="step 0, seed 1044: latent grid contains"):
            run(
                "baseline", single_plan(2.0), TIMELINE, _gaussian(), CODEC, None,
                [SeededRng(44), SeededRng(1044)], initial_noise=noise,
            )

    def test_a_huge_finite_latent_is_not_rejected(self):
        # every element of 1e200 is finite, so the latent is not rejected as
        # non-finite; its square overflows the energy, which fails the step
        # without a numpy warning
        with warnings.catch_warnings(), pytest.raises(SamplerError) as info:
            warnings.simplefilter("error")
            run(
                "baseline", single_plan(2.0), TIMELINE, _gaussian(), CODEC, None,
                [SeededRng(42)], initial_noise=np.full((1, 4, 16, 16), 1e200),
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
            run("rectified", plan, TIMELINE, _gaussian(4, 4, 4), codec, None, rngs)
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
    prior = Recording(np.full((4, 4, 4), 0.2), 1.0)
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
        with pytest.raises(ValueError, match="2 seeds"):
            run(
                "baseline", single_plan(2.0), TIMELINE, _gaussian(), CODEC, None,
                [SeededRng(36), SeededRng(37)], initial_noise=np.zeros((1, 4, 16, 16)),
            )
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
    """Passes every prediction to ``inner`` and counts the calls."""

    def __init__(self, inner):
        self.inner, self.channels, self.calls = inner, inner.channels, 0

    def predict_eps(self, x_t, alpha_bar, label, out=None):
        self.calls += 1
        return self.inner.predict_eps(x_t, alpha_bar, label, out)


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
        prior = _gaussian(height=8, width=8) if gaussian else SHELL
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
        [(None, 0), ("rngs", 24), ("denoiser", 24), ("codec", 24), ("label", 24), ("timeline", 24)],
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
            inputs[change] = {
                "rngs": [SeededRng(81)],
                "denoiser": _Counting(SHELL),
                "codec": IdentityCodec(),
                "label": 1,
                "timeline": build_timeline(build_schedule(), 12),
            }[change]
        probe = inputs["denoiser"]
        probe.calls = 0
        got = run("rectified", plan, **inputs, shared=shared)
        assert probe.calls == calls
        want = run("rectified", plan, **inputs)
        assert all(a.trace == b.trace for a, b in zip(got, want))

    @pytest.mark.parametrize(
        "extra", [dict(initial_noise=np.zeros((1, 4, 8, 8))), dict(snapshot_steps=(3,))]
    )
    def test_a_store_takes_no_initial_noise_or_snapshots(self, extra):
        counted, shared = _Counting(SHELL), {}
        with pytest.raises(ValueError, match="shared store"):
            run(
                "rectified", _twelve_plan((3.0, 12.0)), TWELVE, counted, CODEC, None,
                [SeededRng(82)], on_snapshot=lambda *a: None, shared=shared, **extra,
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
                snapshot_steps=range(12), on_snapshot=lambda b, step, row: snaps.append(row),
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
        prior = _gaussian(height=8, width=8) if gaussian else SHELL
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
    def test_stage_columns_and_refresh_flags(self):
        prior = _gaussian()
        (result,) = run(
            "rectified", staged_plan(5.0, 30.0), TIMELINE, prior, CODEC, None,
            [SeededRng(30)],
        )
        assert len(result.trace) == 50
        assert [r.omega for r in result.trace] == [5.0] * 40 + [30.0] * 10
        assert [r.step for r in result.trace] == list(range(50))
        assert [r.refreshed for r in result.trace] == [s == 40 for s in range(50)]
        assert [r.train_t for r in result.trace] == TIMELINE.step_to_train_t.tolist()

    def test_snapshots_ratchet_through_the_boundary(self):
        prior = _gaussian()
        seen = []
        results = run(
            "rectified", staged_plan(5.0, 30.0), TIMELINE, prior, CODEC, None,
            [SeededRng(31), SeededRng(32)], snapshot_steps=(39, 40, 49),
            on_snapshot=lambda index, step, grid: seen.append((index, step, grid.shape)),
        )
        # each snapshot step reports every seed as soon as its estimate exists;
        # the boundary consumes step 39's estimate at the old resolution, and
        # step 40 is the first estimate computed at the new one
        assert seen == [
            (0, 39, (4, 16, 16)), (1, 39, (4, 16, 16)),
            (0, 40, (4, 32, 32)), (1, 40, (4, 32, 32)),
            (0, 49, (4, 32, 32)), (1, 49, (4, 32, 32)),
        ]
        assert [r.final_p_x0.shape for r in results] == [(4, 32, 32)] * 2

    def test_snapshot_steps_need_a_callback(self):
        with pytest.raises(ValueError, match="on_snapshot"):
            run(
                "baseline", single_plan(2.0), TIMELINE, _gaussian(), CODEC, None,
                [SeededRng(35)], snapshot_steps=(3,),
            )

    def test_rectified_boundary_replicated_from_parts(self):
        prior = _gaussian()
        plan = staged_plan(2.0, 2.0)
        rng = SeededRng(32)
        (want,) = run("rectified", plan, TIMELINE, prior, CODEC, None, [rng])

        x = gaussian_noise(4, 16, 16, SeededRng(32).stream("init"))
        p_x0 = None
        for step in range(40):
            eps = prior.predict_eps(x, float(TIMELINE.alpha_bar_at_step[step]), None)
            x, p_x0 = ddim_step(
                x, eps,
                float(TIMELINE.alpha_bar_at_step[step]),
                float(TIMELINE.alpha_bar_at_step[step + 1]),
            )
        boundary_eps = gaussian_noise(4, 32, 32, SeededRng(32).stream("refresh", 1))
        x = noise_refresh(
            read_only(p_x0[None]), CODEC, 32, 32, float(TIMELINE.alpha_bar_at_step[40]),
            [boundary_eps],
        )[0]
        for step in range(40, 50):
            eps = prior.predict_eps(x, float(TIMELINE.alpha_bar_at_step[step]), None)
            x, p_x0 = ddim_step(
                x, eps,
                float(TIMELINE.alpha_bar_at_step[step]),
                float(TIMELINE.alpha_bar_at_step[step + 1]),
            )
        assert np.array_equal(want.final_p_x0, p_x0)

    def test_latent_resize_boundary_replicated_from_parts(self):
        prior = _gaussian()
        plan = staged_plan(2.0, 2.0)
        (want,) = run("latent-resize", plan, TIMELINE, prior, CODEC, None, [SeededRng(33)])

        x = gaussian_noise(4, 16, 16, SeededRng(33).stream("init"))
        p_x0 = None
        for step in range(50):
            if step == 40:
                x = resize_bilinear(LatentGrid(x), 32, 32).data
            eps = prior.predict_eps(x, float(TIMELINE.alpha_bar_at_step[step]), None)
            x, p_x0 = ddim_step(
                x, eps,
                float(TIMELINE.alpha_bar_at_step[step]),
                float(TIMELINE.alpha_bar_at_step[step + 1]),
            )
        assert np.array_equal(want.final_p_x0, p_x0)

    def test_area_corrected_variant_replicated_from_parts(self):
        # runs at the target resolution for all 50 steps; the denoiser sees
        # plain levels while both step levels pass through the correction
        # with gamma = (area ratio)^2 = 16 for a 16 -> 32 plan
        prior = _gaussian()
        plan = staged_plan(2.0, 9.0)
        (want,) = run("snr-corrected", plan, TIMELINE, prior, CODEC, None, [SeededRng(34)])

        gamma = 16.0
        x = gaussian_noise(4, 32, 32, SeededRng(34).stream("init"))
        p_x0 = None
        for step in range(50):
            eps = prior.predict_eps(x, float(TIMELINE.alpha_bar_at_step[step]), None)
            x, p_x0 = ddim_step(
                x, eps,
                snr_corrected_alpha_bar(float(TIMELINE.alpha_bar_at_step[step]), gamma),
                snr_corrected_alpha_bar(float(TIMELINE.alpha_bar_at_step[step + 1]), gamma),
            )
        assert np.array_equal(want.final_p_x0, p_x0)
        assert all(not r.refreshed for r in want.trace)
        assert all(r.omega == 2.0 for r in want.trace)


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
        prior = GaussianPrior(np.full((1, 2, 2), 0.4), v)
        oracle = affine_trajectory_oracle(plan, timeline, prior)
        g = np.sqrt(0.5) * v / (0.5 * v + 0.5)
        assert oracle.noise_gain == pytest.approx(g, rel=1e-15)
        assert oracle.mean_gain == pytest.approx(1.0 - g * np.sqrt(0.5), rel=1e-15)

    def test_gain_identity_from_the_fixed_point(self):
        # starting at sqrt(ab_0) * mean keeps the trajectory on the mean, so
        # noise_gain * sqrt(ab_0) + mean_gain must equal 1
        root_ab0 = np.sqrt(float(TIMELINE.alpha_bar_at_step[0]))
        for variance in (0.3, 1.0, 2.7):
            prior = _gaussian(variance=variance)
            oracle = affine_trajectory_oracle(single_plan(2.0), TIMELINE, prior)
            assert oracle.noise_gain * root_ab0 + oracle.mean_gain == pytest.approx(
                1.0, abs=1e-12
            )

    def test_rejects_staged_plans_and_point_priors(self):
        with pytest.raises(ValueError, match="single-resolution"):
            affine_trajectory_oracle(staged_plan(2.0, 2.0), TIMELINE, _gaussian())
        dataset = DatasetPrior(np.zeros((1, 4, 16, 16)), [0])
        with pytest.raises(TypeError, match="GaussianPrior"):
            affine_trajectory_oracle(single_plan(2.0), TIMELINE, dataset)

    def test_matches_full_runs_at_odd_settings(self):
        rng = np.random.default_rng(35)
        mean = rng.normal(0.1, 0.5, size=(3, 6, 6))
        prior = GaussianPrior(mean, 0.9)
        plan = single_plan(2.5, 6, 6)
        oracle = affine_trajectory_oracle(plan, TIMELINE, prior)
        for k in range(10):
            srng = SeededRng(700 + k)
            noise = gaussian_noise(3, 6, 6, srng.stream("init"))
            (got,) = run("baseline", plan, TIMELINE, prior, CODEC, None, [srng])
            want = oracle.noise_gain * noise + oracle.mean_gain * mean
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
        prior = GaussianPrior(np.full((1, 2, 2), 0.7), 1.3)
        oracle = affine_trajectory_oracle(plan, timeline, prior)
        rngs = [SeededRng(50_000 + k) for k in range(3000)]
        results = run("baseline", plan, timeline, prior, CODEC, None, rngs)
        residuals = np.array(
            [(result.final_p_x0 - oracle.mean_gain * 0.7).ravel() for result in results]
        )
        z, ratio = z_test_mean_var(residuals, 0.0, oracle.noise_gain**2)
        assert abs(z) < 4.0
        assert 0.9 < ratio < 1.1
