"""Step updates, boundary actions, full runs, and the closed-form run oracle.

The replication tests rebuild a whole staged run out of public pieces
(predict_eps, ddim_step, noise_refresh, resize_bilinear) and demand bitwise
agreement with run(); they pin down which level each boundary re-noises to
and which stage's noise stream it draws from.
"""

from __future__ import annotations

import numpy as np
import pytest

from restage.codec import IdentityCodec
from restage.denoiser import UNCONDITIONAL, DatasetPrior, GaussianPrior
from restage.errors import DenoiserError, SamplerError, ShapeError
from restage.latent import (
    LatentGrid,
    SeededRng,
    average_energy,
    forward_diffuse,
    gaussian_noise,
    resize_bilinear,
)
from restage.sampler import (
    VARIANTS,
    AffineTrajectory,
    affine_trajectory_oracle,
    ddim_step,
    noise_refresh,
    run,
)
from restage.schedule import (
    LadderConfig,
    build_plan,
    build_schedule,
    build_timeline,
    snr_corrected_alpha_bar,
)

from _toys import CLASS_ZERO, CODEC, TIMELINE, clustered_shell_prior, single_plan, staged_plan


class TestDdimStep:
    def test_terminal_level_collapses_onto_the_estimate(self):
        x = gaussian_noise(1, 3, 3, SeededRng(1).stream("init"))
        eps = gaussian_noise(1, 3, 3, SeededRng(2).stream("init"))
        x_prev, p_x0 = ddim_step(x.data, eps.data, 0.4, 1.0)
        assert np.array_equal(x_prev, p_x0)

    def test_scalar_hand_case(self):
        x_prev, p_x0 = ddim_step(
            LatentGrid.full(1, 1, 1, 1.0).data, LatentGrid.zeros(1, 1, 1).data, 0.25, 1.0
        )
        assert float(p_x0[0, 0, 0]) == pytest.approx(2.0, rel=1e-15)
        assert float(x_prev[0, 0, 0]) == pytest.approx(2.0, rel=1e-15)

    def test_reconstruction_identity(self):
        x = gaussian_noise(2, 4, 4, SeededRng(3).stream("init"))
        eps = gaussian_noise(2, 4, 4, SeededRng(4).stream("init"))
        ab = 0.37
        _, p_x0 = ddim_step(x.data, eps.data, ab, 0.8)
        rebuilt = np.sqrt(ab) * p_x0 + np.sqrt(1 - ab) * eps.data
        assert np.allclose(rebuilt, x.data, atol=1e-12)

    def test_domain_errors(self):
        x = LatentGrid.zeros(1, 2, 2).data
        with pytest.raises(ValueError, match="singular"):
            ddim_step(x, x, 0.0, 0.5)
        with pytest.raises(ValueError):
            ddim_step(x, x, 1.5, 0.5)
        with pytest.raises(ValueError):
            ddim_step(x, x, 0.5, 0.0)
        with pytest.raises(ShapeError):
            ddim_step(x, LatentGrid.zeros(1, 2, 3).data, 0.5, 0.8)


class TestNoiseRefresh:
    def test_full_signal_level_returns_the_resized_estimate(self):
        p = gaussian_noise(1, 4, 4, SeededRng(5).stream("init"))
        eps = gaussian_noise(1, 8, 8, SeededRng(6).stream("init"))
        out = noise_refresh(p, CODEC, 8, 8, "bilinear", 1.0, eps)
        assert np.array_equal(out.data, resize_bilinear(p, 8, 8).data)

    def test_same_resolution_matches_forward_noising(self):
        p = gaussian_noise(2, 4, 4, SeededRng(7).stream("init"))
        eps = gaussian_noise(2, 4, 4, SeededRng(8).stream("init"))
        out = noise_refresh(p, CODEC, 4, 4, "bilinear", 0.82, eps)
        assert np.array_equal(out.data, forward_diffuse(p, 0.82, eps).data)

    def test_noise_shape_must_match_the_target(self):
        p = gaussian_noise(1, 4, 4, SeededRng(9).stream("init"))
        eps = gaussian_noise(1, 4, 4, SeededRng(10).stream("init"))
        with pytest.raises(ShapeError, match="fresh noise"):
            noise_refresh(p, CODEC, 8, 8, "bilinear", 0.5, eps)

    @pytest.mark.parametrize("ab", [0.0, 1.5])
    def test_level_domain(self, ab):
        p = gaussian_noise(1, 2, 2, SeededRng(11).stream("init"))
        with pytest.raises(ValueError, match="alpha_bar_prev"):
            noise_refresh(p, CODEC, 2, 2, "bilinear", ab, p)


def _gaussian(channels=4, height=16, width=16, value=0.2, variance=1.0):
    return GaussianPrior(LatentGrid.full(channels, height, width, value), variance, TIMELINE)


class TestRunBasics:
    def test_variants_tuple(self):
        assert VARIANTS == ("baseline", "rectified", "latent-resize", "snr-corrected")

    def test_deterministic_given_the_seed(self):
        prior = _gaussian()
        a = run("rectified", staged_plan(2.0, 6.0), TIMELINE, prior, CODEC, UNCONDITIONAL, SeededRng(21))
        b = run("rectified", staged_plan(2.0, 6.0), TIMELINE, prior, CODEC, UNCONDITIONAL, SeededRng(21))
        assert a.trace == b.trace
        assert np.array_equal(a.final_p_x0.data, b.final_p_x0.data)

    def test_rectified_without_boundaries_is_the_baseline(self):
        prior = _gaussian()
        plan = single_plan(2.0)
        a = run("baseline", plan, TIMELINE, prior, CODEC, UNCONDITIONAL, SeededRng(22))
        b = run("rectified", plan, TIMELINE, prior, CODEC, UNCONDITIONAL, SeededRng(22))
        assert a.trace == b.trace
        assert np.array_equal(a.final_p_x0.data, b.final_p_x0.data)

    def test_explicit_initial_noise_matches_the_drawn_one(self):
        prior = _gaussian()
        plan = single_plan(2.0)
        drawn = gaussian_noise(4, 16, 16, SeededRng(23).stream("init"))
        a = run("baseline", plan, TIMELINE, prior, CODEC, UNCONDITIONAL, SeededRng(23))
        b = run(
            "baseline", plan, TIMELINE, prior, CODEC, UNCONDITIONAL, SeededRng(23),
            initial_noise=drawn,
        )
        assert a.trace == b.trace
        assert np.array_equal(a.final_p_x0.data, b.final_p_x0.data)

    def test_first_row_records_the_initial_latent_energy(self):
        prior = _gaussian()
        noise = gaussian_noise(4, 16, 16, SeededRng(24).stream("init"))
        result = run("baseline", single_plan(2.0), TIMELINE, prior, CODEC, UNCONDITIONAL, SeededRng(24))
        assert result.trace[0].latent_energy == average_energy(noise.data)

    def test_reconstruction_check_passes_on_a_clean_run(self):
        prior = _gaussian()
        run(
            "rectified", staged_plan(2.0, 6.0), TIMELINE, prior, CODEC, UNCONDITIONAL,
            SeededRng(25), check_reconstruction=True,
        )

    def test_wrong_initial_noise_shape(self):
        with pytest.raises(ShapeError, match="initial noise"):
            run(
                "baseline", single_plan(2.0), TIMELINE, _gaussian(), CODEC, UNCONDITIONAL,
                SeededRng(26), initial_noise=LatentGrid.zeros(4, 8, 8),
            )

    def test_plan_and_timeline_must_agree(self):
        short = build_timeline(build_schedule(), 10)
        with pytest.raises(ValueError, match="covers"):
            run("baseline", single_plan(2.0), short, _gaussian(), CODEC, UNCONDITIONAL, SeededRng(27))

    def test_unknown_variant_and_method(self):
        with pytest.raises(ValueError, match="variant"):
            run("turbo", single_plan(2.0), TIMELINE, _gaussian(), CODEC, UNCONDITIONAL, SeededRng(28))
        with pytest.raises(ValueError, match="resize method"):
            run(
                "baseline", single_plan(2.0), TIMELINE, _gaussian(), CODEC, UNCONDITIONAL,
                SeededRng(28), resize_method="bicubic",
            )

    def test_denoiser_failures_carry_the_step(self):
        class Exploding(GaussianPrior):
            def predict_eps(self, x_t, step, condition):
                if step == 7:
                    raise DenoiserError("synthetic failure")
                return super().predict_eps(x_t, step, condition)

        prior = Exploding(LatentGrid.full(4, 16, 16, 0.2), 1.0, TIMELINE)
        with pytest.raises(SamplerError, match="step 7") as info:
            run("baseline", single_plan(2.0), TIMELINE, prior, CODEC, UNCONDITIONAL, SeededRng(29))
        assert info.value.step == 7


class TestGridsAtTheEdges:
    def test_a_run_without_boundaries_builds_two_grids(self, monkeypatch):
        prior = clustered_shell_prior()
        built = []
        init = LatentGrid.__init__

        def counting_init(self, values):
            built.append(values)
            init(self, values)

        monkeypatch.setattr(LatentGrid, "__init__", counting_init)
        run("baseline", single_plan(3.0), TIMELINE, prior, CODEC, CLASS_ZERO, SeededRng(40))
        # the initial noise and final_p_x0; every step works on plain arrays
        assert len(built) == 2

    def test_a_non_finite_prediction_fails_its_step(self):
        class Poisoned(GaussianPrior):
            def predict_eps(self, x_t, step, condition):
                eps = super().predict_eps(x_t, step, condition)
                return np.full_like(eps, np.nan) if step == 7 else eps

        prior = Poisoned(LatentGrid.full(4, 16, 16, 0.2), 1.0, TIMELINE)
        with pytest.raises(SamplerError, match="step 7") as info:
            run("baseline", single_plan(2.0), TIMELINE, prior, CODEC, UNCONDITIONAL, SeededRng(41))
        assert info.value.step == 7

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_a_huge_finite_latent_is_not_rejected(self):
        # 1e200 squared overflows the energy, but every element stays finite
        result = run(
            "baseline", single_plan(2.0), TIMELINE, _gaussian(), CODEC, UNCONDITIONAL,
            SeededRng(42), initial_noise=LatentGrid.full(4, 16, 16, 1e200),
        )
        assert result.trace[0].latent_energy == np.inf
        assert np.isfinite(result.final_p_x0.data).all()


class TestStagedTrace:
    def test_stage_columns_and_refresh_flags(self):
        prior = _gaussian()
        result = run(
            "rectified", staged_plan(5.0, 30.0), TIMELINE, prior, CODEC, UNCONDITIONAL,
            SeededRng(30), snapshot_steps=(39, 40, 49),
        )
        assert len(result.trace) == 50
        assert [r.omega for r in result.trace] == [5.0] * 40 + [30.0] * 10
        assert [r.step for r in result.trace] == list(range(50))
        assert [r.refreshed for r in result.trace] == [s == 40 for s in range(50)]
        assert [r.train_t for r in result.trace] == TIMELINE.step_to_train_t.tolist()

    def test_snapshots_ratchet_through_the_boundary(self):
        prior = _gaussian()
        result = run(
            "rectified", staged_plan(5.0, 30.0), TIMELINE, prior, CODEC, UNCONDITIONAL,
            SeededRng(31), snapshot_steps=(39, 40, 49),
        )
        shapes = {step: grid.shape for step, grid in result.p_x0_snapshots}
        # the boundary consumes step 39's estimate at the old resolution;
        # step 40 is the first estimate computed at the new one
        assert shapes == {39: (4, 16, 16), 40: (4, 32, 32), 49: (4, 32, 32)}
        assert result.final_p_x0.shape == (4, 32, 32)

    def test_rectified_boundary_replicated_from_parts(self):
        prior = _gaussian()
        plan = staged_plan(2.0, 2.0)
        rng = SeededRng(32)
        want = run("rectified", plan, TIMELINE, prior, CODEC, UNCONDITIONAL, rng)

        x = gaussian_noise(4, 16, 16, SeededRng(32).stream("init")).data
        p_x0 = None
        for step in range(40):
            eps = prior.predict_eps(x, step, UNCONDITIONAL)
            x, p_x0 = ddim_step(
                x, eps,
                float(TIMELINE.alpha_bar_at_step[step]),
                float(TIMELINE.alpha_bar_at_step[step + 1]),
            )
        boundary_eps = gaussian_noise(4, 32, 32, SeededRng(32).stream("refresh", 1))
        x = noise_refresh(
            LatentGrid(p_x0), CODEC, 32, 32, "bilinear",
            float(TIMELINE.alpha_bar_at_step[40]), boundary_eps,
        ).data
        for step in range(40, 50):
            eps = prior.predict_eps(x, step, UNCONDITIONAL)
            x, p_x0 = ddim_step(
                x, eps,
                float(TIMELINE.alpha_bar_at_step[step]),
                float(TIMELINE.alpha_bar_at_step[step + 1]),
            )
        assert np.array_equal(want.final_p_x0.data, p_x0)

    def test_latent_resize_boundary_replicated_from_parts(self):
        prior = _gaussian()
        plan = staged_plan(2.0, 2.0)
        want = run("latent-resize", plan, TIMELINE, prior, CODEC, UNCONDITIONAL, SeededRng(33))

        x = gaussian_noise(4, 16, 16, SeededRng(33).stream("init")).data
        p_x0 = None
        for step in range(50):
            if step == 40:
                x = resize_bilinear(LatentGrid(x), 32, 32).data
            eps = prior.predict_eps(x, step, UNCONDITIONAL)
            x, p_x0 = ddim_step(
                x, eps,
                float(TIMELINE.alpha_bar_at_step[step]),
                float(TIMELINE.alpha_bar_at_step[step + 1]),
            )
        assert np.array_equal(want.final_p_x0.data, p_x0)

    def test_area_corrected_variant_replicated_from_parts(self):
        # runs at the target resolution for all 50 steps; the denoiser sees
        # plain levels while both step levels pass through the correction
        # with gamma = (area ratio)^2 = 16 for a 16 -> 32 plan
        prior = _gaussian()
        plan = staged_plan(2.0, 9.0)
        want = run("snr-corrected", plan, TIMELINE, prior, CODEC, UNCONDITIONAL, SeededRng(34))

        gamma = 16.0
        x = gaussian_noise(4, 32, 32, SeededRng(34).stream("init")).data
        p_x0 = None
        for step in range(50):
            eps = prior.predict_eps(x, step, UNCONDITIONAL)
            x, p_x0 = ddim_step(
                x, eps,
                snr_corrected_alpha_bar(float(TIMELINE.alpha_bar_at_step[step]), gamma),
                snr_corrected_alpha_bar(float(TIMELINE.alpha_bar_at_step[step + 1]), gamma),
            )
        assert np.array_equal(want.final_p_x0.data, p_x0)
        assert all(not r.refreshed for r in want.trace)
        assert all(r.omega == 2.0 for r in want.trace)


class TestAffineOracle:
    def test_apply_combines_noise_and_mean(self):
        traj = AffineTrajectory(noise_gain=0.25, mean_gain=0.5)
        noise = LatentGrid.full(1, 1, 1, 2.0)
        mean = LatentGrid.full(1, 1, 1, 3.0)
        assert float(traj.apply(noise, mean).data[0, 0, 0]) == 2.0
        with pytest.raises(ShapeError):
            traj.apply(noise, LatentGrid.zeros(1, 2, 2))

    def test_single_step_closed_form(self):
        timeline = build_timeline(build_schedule("linear", 0.5, 0.5, 1), 1)
        plan = build_plan(
            LadderConfig(
                t_min=0, t_max=1, n_stages=1, m_t=1.0,
                omega_min=1.0, omega_max=1.0, m_omega=1.0, resolutions=((2, 2),),
            ),
            timeline,
        )
        v = 1.3
        prior = GaussianPrior(LatentGrid.full(1, 2, 2, 0.4), v, timeline)
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
        points = [LatentGrid.zeros(4, 16, 16)]
        dataset = DatasetPrior(points, [0], TIMELINE)
        with pytest.raises(TypeError, match="GaussianPrior"):
            affine_trajectory_oracle(single_plan(2.0), TIMELINE, dataset)

    def test_matches_full_runs_at_odd_settings(self):
        rng = np.random.default_rng(35)
        mean = LatentGrid(rng.normal(0.1, 0.5, size=(3, 6, 6)))
        prior = GaussianPrior(mean, 0.9, TIMELINE)
        plan = single_plan(2.5, 6, 6)
        oracle = affine_trajectory_oracle(plan, TIMELINE, prior)
        for k in range(10):
            srng = SeededRng(700 + k)
            noise = gaussian_noise(3, 6, 6, srng.stream("init"))
            got = run("baseline", plan, TIMELINE, prior, CODEC, UNCONDITIONAL, srng)
            want = oracle.apply(noise, mean)
            denom = max(float(np.abs(want.data).max()), 1e-12)
            assert float(np.abs(got.final_p_x0.data - want.data).max()) / denom < 1e-9


class TestRunDistribution:
    def test_final_noise_component_has_the_predicted_moments(self):
        # short runs on a tiny grid: the final estimate is exactly
        # noise_gain * x_T + mean_gain * mean, so pooled residuals against
        # the mean term must look like noise_gain * standard normals
        schedule = build_schedule("linear", 0.02, 0.08, 40)
        timeline = build_timeline(schedule, 6)
        plan = build_plan(
            LadderConfig(
                t_min=0, t_max=6, n_stages=1, m_t=1.0,
                omega_min=1.0, omega_max=1.0, m_omega=1.0, resolutions=((2, 2),),
            ),
            timeline,
        )
        prior = GaussianPrior(LatentGrid.full(1, 2, 2, 0.7), 1.3, timeline)
        oracle = affine_trajectory_oracle(plan, timeline, prior)
        residuals = np.empty((3000, 4))
        for k in range(3000):
            result = run(
                "baseline", plan, timeline, prior, CODEC, UNCONDITIONAL, SeededRng(50_000 + k)
            )
            residuals[k] = (result.final_p_x0.data - oracle.mean_gain * 0.7).ravel()

        from restage.analysis import z_test_mean_var

        z, ratio = z_test_mean_var(residuals, 0.0, oracle.noise_gain**2)
        assert abs(z) < 4.0
        assert 0.9 < ratio < 1.1
