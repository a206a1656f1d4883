"""Schedules, timelines, ladder plans, and the area-corrected step algebra."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from restage import checks
from restage.checks import ddim_step_coefficients, snr_energy_coefficient
from restage.errors import ConfigError
from restage.sampler import ddim_step
from restage.schedule import (
    BETA_END,
    BETA_START,
    LADDER_PRESETS,
    TRAIN_STEPS,
    LadderConfig,
    build_plan,
    build_schedule,
    build_timeline,
    ladder_preset,
    select_omegas,
    select_refresh_steps,
    snr_corrected_alpha_bar,
)

from _toys import TIMELINE, linear_schedule


class TestBuildSchedule:
    def test_scaled_linear_interpolates_root_beta(self):
        s = build_schedule()
        root = np.sqrt(s.betas)
        assert root[0] == pytest.approx(math.sqrt(BETA_START), rel=1e-15)
        assert root[-1] == pytest.approx(math.sqrt(BETA_END), rel=1e-15)
        assert np.allclose(np.diff(root), (root[-1] - root[0]) / (TRAIN_STEPS - 1), rtol=1e-9, atol=0)
        assert np.array_equal(s.alpha_bar, np.cumprod(1.0 - s.betas))

    def test_default_endpoints(self):
        s = build_schedule()
        assert len(s.betas) == len(s.alpha_bar) == 1000
        assert float(s.alpha_bar[0]) == pytest.approx(0.99915, abs=1e-12)
        # regression pin for the terminal retained-signal fraction
        assert float(s.alpha_bar[-1]) == pytest.approx(0.004660098513077238, abs=1e-15)

    def test_alpha_bar_strictly_decreasing_in_unit_interval(self):
        s = build_schedule()
        assert np.all(np.diff(s.alpha_bar) < 0)
        assert np.all((s.alpha_bar > 0) & (s.alpha_bar < 1))

    def test_arrays_are_read_only(self):
        s = build_schedule()
        with pytest.raises(ValueError):
            s.alpha_bar[0] = 0.5
        with pytest.raises(ValueError):
            s.betas[0] = 0.5


class TestBuildTimeline:
    def test_two_steps_hit_both_ends(self):
        tl = build_timeline(build_schedule(), 2)
        assert tl.step_to_train_t.tolist() == [999, 0]

    def test_full_coverage_is_the_identity_countdown(self):
        tl = build_timeline(linear_schedule(0.1, 0.1, 10), 10)
        assert tl.step_to_train_t.tolist() == list(range(9, -1, -1))

    def test_single_step_visits_the_last_timestep(self):
        tl = build_timeline(build_schedule(), 1)
        assert tl.step_to_train_t.tolist() == [999]
        assert tl.alpha_bar_at_step.tolist() == [
            pytest.approx(0.004660098513077238, abs=1e-15),
            1.0,
        ]

    def test_halfway_ties_round_up(self):
        # step 1 maps to raw position 2.5; round-half-up lands on 3, not 2
        tl = build_timeline(linear_schedule(0.1, 0.1, 6), 3)
        assert tl.step_to_train_t.tolist() == [5, 3, 0]

    def test_levels_carry_the_post_terminal_entry(self):
        assert TIMELINE.alpha_bar_at_step.shape == (51,)
        assert float(TIMELINE.alpha_bar_at_step[-1]) == 1.0
        assert np.all(np.diff(TIMELINE.alpha_bar_at_step) > 0)

    def test_zero_steps_rejected(self):
        with pytest.raises(ConfigError, match="num_steps"):
            build_timeline(build_schedule(), 0)

    def test_more_steps_than_training_rejected(self):
        with pytest.raises(ConfigError, match="num_steps"):
            build_timeline(linear_schedule(0.1, 0.1, 6), 7)

    def test_arrays_are_read_only(self):
        with pytest.raises(ValueError):
            TIMELINE.alpha_bar_at_step[0] = 0.5


def _ladder(**overrides):
    base = dict(
        t_min=40, t_max=50, n_stages=2, m_t=1.0,
        omega_min=5.0, omega_max=30.0, m_omega=1.0,
        resolutions=((16, 16), (32, 32)),
    )
    base.update(overrides)
    return LadderConfig(**base)


class TestLadderConfigValidation:
    @pytest.mark.parametrize(
        "overrides,fragment",
        [
            (dict(n_stages=0, resolutions=()), "n_stages"),
            (dict(t_min=-1), "t_min"),
            (dict(t_min=50), "strictly below"),
            (dict(m_t=0.0), "m_t"),
            (dict(m_omega=-1.0), "m_omega"),
            (dict(omega_min=31.0), "omega_min"),
            (dict(resolutions=((16, 16),)), "per stage"),
            (dict(resolutions=((16, 0), (32, 32))), "non-positive"),
            (dict(resolutions=((16, 16), (8, 32))), "shrinks"),
        ],
    )
    def test_each_field_is_checked(self, overrides, fragment):
        with pytest.raises(ConfigError, match=fragment):
            build_plan(_ladder(**overrides), TIMELINE)

    def test_a_replaced_field_is_checked_when_planned(self):
        # the energy-curve omega sweep plans ladders changed with _replace
        with pytest.raises(ConfigError, match=r"ladder\.m_t"):
            build_plan(_ladder()._replace(m_t=0), TIMELINE)

    def test_equal_resolutions_allowed(self):
        plan = build_plan(_ladder(resolutions=((16, 16), (16, 16))), TIMELINE)
        assert [(s.height, s.width) for s in plan.stages] == [(16, 16), (16, 16)]


class TestStageSelection:
    def test_two_stage_boundary_sits_at_t_min(self):
        assert select_refresh_steps(_ladder()) == [40]

    def test_sublinear_shape_spreads_boundaries(self):
        config = _ladder(
            n_stages=3, m_t=0.5, omega_max=50.0, m_omega=0.5,
            resolutions=((16, 16), (24, 24), (32, 32)),
        )
        assert select_refresh_steps(config) == [40, 45]

    def test_single_stage_has_no_boundaries(self):
        assert select_refresh_steps(_ladder(n_stages=1, resolutions=((16, 16),))) == []

    def test_omegas_interpolate_between_endpoints(self):
        assert select_omegas(_ladder()) == [5.0, 30.0]
        shaped = select_omegas(
            _ladder(
                n_stages=3, m_t=0.5, omega_max=50.0, m_omega=0.5,
                resolutions=((16, 16), (24, 24), (32, 32)),
            )
        )
        assert shaped[0] == 5.0 and shaped[2] == 50.0
        assert shaped[1] == pytest.approx(36.81980515339464, abs=1e-9)

    def test_single_stage_uses_omega_min(self):
        assert select_omegas(_ladder(n_stages=1, resolutions=((16, 16),))) == [5.0]


class TestBuildPlan:
    def test_stages_tile_the_run(self):
        plan = build_plan(_ladder(), TIMELINE)
        assert plan.refresh_steps == (40,)
        assert [(s.first_step, s.last_step) for s in plan.stages] == [(0, 40), (40, 50)]
        assert plan.num_steps == 50
        assert plan.base_resolution == (16, 16)
        assert plan.target_resolution == (32, 32)

    def test_colliding_boundaries_rejected(self):
        config = _ladder(
            n_stages=3, m_t=8.0, resolutions=((16, 16), (24, 24), (32, 32))
        )
        with pytest.raises(ConfigError, match="collide"):
            build_plan(config, TIMELINE)

    def test_boundary_at_step_zero_rejected(self):
        with pytest.raises(ConfigError, match="falls outside"):
            build_plan(_ladder(t_min=0), TIMELINE)

    def test_window_past_run_length_rejected(self):
        with pytest.raises(ConfigError, match="t_max"):
            build_plan(_ladder(t_max=60), TIMELINE)


@st.composite
def _ladders(draw):
    """A valid ladder and the step count of a run it fits: any window, stage
    count, boundary exponent and non-decreasing resolutions."""
    num_steps = draw(st.integers(1, 80))
    t_max = draw(st.integers(1, num_steps))
    n_stages = draw(st.integers(1, 6))
    sides = [draw(st.lists(st.integers(1, 64), min_size=n_stages, max_size=n_stages)) for _ in "hw"]
    config = LadderConfig(
        t_min=draw(st.integers(0, t_max - 1)),
        t_max=t_max,
        n_stages=n_stages,
        m_t=draw(st.floats(0.05, 10.0)),
        omega_min=1.0,
        omega_max=draw(st.floats(1.0, 50.0)),
        m_omega=1.0,
        resolutions=tuple(zip(sorted(sides[0]), sorted(sides[1]))),
    )
    return config, num_steps


class TestPlanProperties:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=_ladders())
    def test_every_accepted_plan_tiles_the_run(self, case):
        config, num_steps = case
        timeline = build_timeline(build_schedule(), num_steps)
        try:
            plan = build_plan(config, timeline)
        except ConfigError:
            return  # a refused ladder raises ConfigError and nothing else
        edges = [(s.first_step, s.last_step) for s in plan.stages]
        assert len(edges) == config.n_stages
        assert edges[0][0] == 0 and edges[-1][1] == num_steps
        assert all(first < last for first, last in edges)
        assert all(a[1] == b[0] for a, b in zip(edges, edges[1:]))
        assert plan.refresh_steps == tuple(first for first, _ in edges[1:])
        assert [(s.height, s.width) for s in plan.stages] == list(config.resolutions)


class TestPresets:
    def test_known_names(self):
        assert sorted(LADDER_PRESETS) == ["paper-2048", "paper-4096"]

    def test_two_stage_preset_values(self):
        # boundary 40 and scales exactly [5, 30]; the check also covers paper-4096
        check = checks.ladder_presets()
        assert check.ok, check.detail
        assert check.detail.startswith("boundaries [40] / [40, 45], scales [5.0, 30.0] / ")

    def test_three_stage_preset_values(self):
        check = checks.ladder_presets()
        assert check.ok, check.detail
        assert check.value == pytest.approx(36.81980515339464, abs=1e-9)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="preset"):
            ladder_preset("paper-8192", ((16, 16),))


class TestAreaCorrection:
    def test_hand_value(self):
        assert snr_corrected_alpha_bar(0.5, 16.0) == pytest.approx(0.5 / 8.5, rel=1e-15)

    def test_unit_gamma_is_the_identity(self):
        for ab in (0.0, 0.1, 0.5, 0.97, 1.0):
            assert snr_corrected_alpha_bar(ab, 1.0) == ab

    def test_endpoints_are_fixed_points(self):
        for gamma in (1.0, 4.0, 16.0):
            assert snr_corrected_alpha_bar(0.0, gamma) == 0.0
            assert snr_corrected_alpha_bar(1.0, gamma) == 1.0

    def test_correction_lowers_interior_levels(self):
        for ab in (0.01, 0.3, 0.9):
            assert snr_corrected_alpha_bar(ab, 4.0) < ab

    def test_energy_coefficient_endpoints(self):
        for gamma in (1.0, 2.0, 16.0):
            assert snr_energy_coefficient(0.0, gamma) == 1.0
            assert snr_energy_coefficient(1.0, gamma) == gamma

    def test_rewritten_step_matches_direct_substitution(self):
        check = checks.snr_identity()
        assert check.ok and check.value < 1e-12, check.detail

    def test_latent_gain_stays_near_unity_on_the_standard_run(self):
        # at the largest supported area ratio the per-step latent gain
        # factor deviates from 1 by 12.4% at worst over a 50-step run
        check = checks.snr_near_unity()
        assert check.value == pytest.approx(0.12435156637960021, abs=1e-12)
        assert check.ok and check.value < 0.2


class TestStepCoefficients:
    def test_terminal_step_collapses_onto_the_estimate(self):
        a, b = ddim_step_coefficients(0.25, 1.0)
        assert a == pytest.approx(2.0, rel=1e-15)
        assert b == pytest.approx(-math.sqrt(3.0), rel=1e-15)

    def test_hand_case(self):
        a, b = ddim_step_coefficients(0.5, 0.8)
        assert a == pytest.approx(math.sqrt(1.6), rel=1e-15)
        assert b == pytest.approx(math.sqrt(0.2) - math.sqrt(0.8), rel=1e-14)

    def test_coefficients_reproduce_the_update(self):
        x_prev, _ = ddim_step(np.full((1, 1, 1), 1.3), np.full((1, 1, 1), 0.7), 0.37, 0.81)
        a, b = ddim_step_coefficients(0.37, 0.81)
        assert float(x_prev[0, 0, 0]) == pytest.approx(a * 1.3 + b * 0.7, rel=1e-14)
