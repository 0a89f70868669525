import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from funnelcap import (
    CascadeConfig,
    FunnelParams,
    ReferenceSpec,
    StageControllerParams,
    builtin_system,
    cascade,
    clamp_theta,
    funnel_value,
    gain_range,
    stage_control,
    stage_gain,
)

HALF_PI = math.pi / 2.0


def make_stage(v_bar, c=HALF_PI):
    return StageControllerParams(v_bar=v_bar, c=c, funnel=FunnelParams(p=1.0, q=0.1, mu=1.0))


def ex1_cascade():
    return CascadeConfig(
        n=2,
        stages=(
            StageControllerParams(v_bar=4.5, funnel=FunnelParams(p=1.0, q=0.05, mu=0.9)),
            StageControllerParams(v_bar=8.0, funnel=FunnelParams(p=1.4, q=0.05, mu=1.0)),
        ),
    )


def sine_ref(amp, freq):
    return ReferenceSpec(y_d=lambda t: amp * math.sin(freq * t), y_d_rate=lambda t: amp * freq * math.cos(freq * t))


ZERO_REF = ReferenceSpec(y_d=lambda t: 0.0, y_d_rate=lambda t: 0.0)


class TestStageControl:
    def test_zero_error_gives_zero_output(self):
        for stage in (make_stage(4.5), make_stage(1.0, c=0.3), make_stage(7.0, c=3.0)):
            assert stage_control(0.0, stage) == 0.0

    def test_collapses_to_linear_law_at_c_half_pi(self):
        stage = make_stage(4.5)
        theta = -0.999
        while theta <= 0.999:
            assert stage_control(theta, stage) == pytest.approx(-4.5 * theta, abs=1e-12)
            theta += 0.037

    def test_approaches_negative_bound_near_theta_one(self):
        stage = make_stage(4.5)
        assert stage_control(1.0 - 1e-9, stage) == pytest.approx(-4.5, abs=1e-6)
        assert stage_control(-(1.0 - 1e-9), stage) == pytest.approx(4.5, abs=1e-6)
        assert abs(stage_control(1.0 - 1e-9, stage)) < 4.5

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1.0, -1.0, 1.5])
    def test_rejects_out_of_domain_theta(self, bad):
        with pytest.raises(ValueError):
            stage_control(bad, make_stage(1.0))
        with pytest.raises(ValueError):
            stage_gain(bad, make_stage(1.0))

    @pytest.mark.parametrize("v_bar, c", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -0.5), (math.nan, 1.0)])
    def test_rejects_bad_params(self, v_bar, c):
        with pytest.raises(ValueError):
            make_stage(v_bar, c=c)
        with pytest.raises(TypeError):
            StageControllerParams(v_bar=1.0, funnel=(1.0, 0.1, 1.0))


class TestStageGain:
    def test_constant_gain_at_c_half_pi(self):
        stage = make_stage(4.5)
        for theta in (-0.9, -0.3, 0.0, 0.42, 0.99):
            assert stage_gain(theta, stage) == pytest.approx(-4.5, rel=1e-12)

    def test_center_gain_for_unit_params(self):
        # cos^2(0) = 1 collapses the denominator to 4c^2
        assert stage_gain(0.0, make_stage(1.0, c=1.0)) == pytest.approx(-math.pi / 2.0, rel=1e-12)

    def test_matches_central_difference(self):
        stage = make_stage(4.5)
        h = 1e-6
        fd = (stage_control(0.3 + h, stage) - stage_control(0.3 - h, stage)) / (2.0 * h)
        assert fd == pytest.approx(stage_gain(0.3, stage), abs=1e-6)


class TestGainRange:
    def test_branches_coincide_at_c_half_pi(self):
        lo, hi = gain_range(make_stage(4.5))
        assert lo == pytest.approx(-4.5, rel=1e-12)
        assert hi == pytest.approx(-4.5, rel=1e-12)
        assert lo == hi

    def test_low_c_branch(self):
        lo, hi = gain_range(make_stage(1.0, c=1.0))
        assert lo == pytest.approx(-math.pi / 2.0, rel=1e-12)
        assert hi == pytest.approx(-2.0 / math.pi, rel=1e-12)

    def test_high_c_branch(self):
        lo, hi = gain_range(make_stage(8.0, c=math.pi))
        assert lo == pytest.approx(-16.0, rel=1e-12)
        assert hi == pytest.approx(-4.0, rel=1e-12)

    def test_ordered_and_negative(self):
        for c in (0.2, 1.0, HALF_PI, 2.0, 5.0):
            lo, hi = gain_range(make_stage(3.0, c=c))
            assert lo <= hi < 0.0

    def test_closed_form_at_small_c(self):
        # The slope at theta = 0 is the range's first end, down to tiny c
        # where a (4c^2 - pi^2)*cos^2 + pi^2 denominator cancels to 0.
        for c in (1e-300, 1e-9, 1.2e-8, 2e-8, 1e-7, 0.01, 1.0, 1.5):
            stage = make_stage(4.5, c=c)
            assert gain_range(stage)[0] == pytest.approx(-math.pi * 4.5 / (2.0 * c), rel=1e-15)
            assert stage_gain(0.0, stage) == pytest.approx(gain_range(stage)[0], rel=1e-15)

    def test_gain_is_finite_and_non_positive_for_any_c(self):
        for c in np.logspace(-300, 300, 121):
            stage = make_stage(4.5, c=c)
            lo, hi = gain_range(stage)
            assert lo <= hi <= 0.0
            for theta in (0.0, 1e-300, -1e-9, 0.3, -0.7, 1.0 - 1e-12):
                assert -math.inf < stage_gain(theta, stage) <= 0.0


class TestClamp:
    def test_interior_passes_through(self):
        assert clamp_theta(0.25) == (0.25, False)
        assert clamp_theta(-0.9999) == (-0.9999, False)

    def test_clamps_and_flags(self):
        theta, sat = clamp_theta(1.7)
        assert sat and theta == 1.0 - 1e-9
        theta, sat = clamp_theta(-1.0)
        assert sat and theta == -(1.0 - 1e-9)


class TestCascade:
    def test_pendulum_start_decision(self):
        dec = cascade([-0.5, 1.0], 0.0, ex1_cascade(), sine_ref(1.0, 0.5))
        assert dec.z[0] == pytest.approx(-0.5, rel=1e-12)
        assert dec.theta[0] == pytest.approx(-0.5, rel=1e-12)
        assert dec.u[0] == pytest.approx(2.25, rel=1e-12)
        assert dec.z[1] == pytest.approx(-1.25, rel=1e-12)
        assert dec.theta[1] == pytest.approx(-1.25 / 1.4, rel=1e-12)
        assert dec.u[1] == pytest.approx(8.0 * 1.25 / 1.4, rel=1e-12)
        assert dec.saturated == (False, False)

    def test_on_reference_state_gives_zero_everything(self):
        dec = cascade([0.0, 0.0], 0.0, ex1_cascade(), ZERO_REF)
        assert dec.z == (0.0, 0.0)
        assert dec.theta == (0.0, 0.0)
        assert dec.u == (0.0, 0.0)
        assert dec.saturated == (False, False)

    def test_second_example_start(self):
        config = CascadeConfig(
            n=2,
            stages=(
                StageControllerParams(v_bar=1.0, funnel=FunnelParams(p=1.0, q=0.08, mu=0.9)),
                StageControllerParams(v_bar=16.0, funnel=FunnelParams(p=0.4, q=0.01, mu=0.5)),
            ),
        )
        dec = cascade([0.5, -0.8], 0.0, config, sine_ref(0.5, 1.0))
        assert dec.z[0] == pytest.approx(0.5, rel=1e-12)
        assert dec.theta[0] == pytest.approx(0.5, rel=1e-12)
        assert dec.u[0] == pytest.approx(-0.5, rel=1e-12)
        assert dec.z[1] == pytest.approx(-0.3, rel=1e-12)

    def test_flags_saturation_when_error_escapes_funnel(self):
        dec = cascade([2.0, 0.0], 0.0, ex1_cascade(), ZERO_REF)
        assert dec.saturated[0]
        assert dec.theta[0] == 1.0 - 1e-9
        assert abs(dec.u[0]) < 4.5

    @pytest.mark.parametrize("name", ["pendulum_ex1", "nonlinear_ex2"])
    def test_psi_is_the_envelope_value_divided_by(self, name):
        sc = builtin_system(name).scenario
        stages = sc.controller.stages
        rng = np.random.default_rng(7)
        states = rng.uniform(-3.0, 3.0, (2000, sc.system.n)).tolist()
        for state, t in zip(states, rng.uniform(0.0, 20.0, 2000).tolist()):
            dec = cascade(state, t, sc.controller, sc.reference)
            assert dec.psi == tuple(funnel_value(s.funnel, t) for s in stages)
            assert dec.theta == tuple(clamp_theta(z / psi)[0] for z, psi in zip(dec.z, dec.psi))

    def test_rejects_bad_state(self):
        with pytest.raises(ValueError):
            cascade([0.0], 0.0, ex1_cascade(), ZERO_REF)
        with pytest.raises(ValueError):
            cascade([math.nan, 0.0], 0.0, ex1_cascade(), ZERO_REF)

    def test_stage_count_must_match_order(self):
        with pytest.raises(ValueError):
            CascadeConfig(n=3, stages=ex1_cascade().stages)
        with pytest.raises(ValueError):
            CascadeConfig(n=0, stages=())


theta_st = st.floats(min_value=-(1.0 - 1e-9), max_value=1.0 - 1e-9)
v_bar_st = st.floats(min_value=0.1, max_value=20.0)
c_st = st.floats(min_value=0.2, max_value=5.0)


@given(theta=theta_st, v_bar=v_bar_st, c=c_st)
def test_odd_symmetry(theta, v_bar, c):
    stage = make_stage(v_bar, c=c)
    assert abs(stage_control(-theta, stage) + stage_control(theta, stage)) <= 1e-12


@given(
    theta_a=st.floats(min_value=-0.999, max_value=0.998),
    gap=st.floats(min_value=1e-6, max_value=0.5),
    v_bar=v_bar_st,
    c=c_st,
)
def test_strictly_decreasing(theta_a, gap, v_bar, c):
    stage = make_stage(v_bar, c=c)
    theta_b = min(theta_a + gap, 0.999)
    assert stage_control(theta_a, stage) > stage_control(theta_b, stage)


@given(theta=theta_st, v_bar=v_bar_st, c=c_st)
def test_output_strictly_inside_cap(theta, v_bar, c):
    assert abs(stage_control(theta, make_stage(v_bar, c=c))) < v_bar


@given(theta=theta_st, v_bar=v_bar_st, c=c_st)
def test_gain_negative_and_within_range(theta, v_bar, c):
    stage = make_stage(v_bar, c=c)
    g = stage_gain(theta, stage)
    lo, hi = gain_range(stage)
    slack = 1e-12 * abs(lo)
    assert g < 0.0
    assert lo - slack <= g <= hi + slack


@given(theta=st.floats(min_value=-0.99, max_value=0.99), v_bar=st.floats(min_value=0.5, max_value=10.0), c=st.floats(min_value=0.5, max_value=2.5))
def test_gain_matches_central_difference(theta, v_bar, c):
    stage = make_stage(v_bar, c=c)
    h = 1e-6
    fd = (stage_control(theta + h, stage) - stage_control(theta - h, stage)) / (2.0 * h)
    assert abs(fd - stage_gain(theta, stage)) <= 1e-6


@given(theta=st.floats(min_value=-0.999, max_value=0.999), v_bar=v_bar_st)
def test_linear_collapse_at_c_half_pi(theta, v_bar):
    assert abs(stage_control(theta, make_stage(v_bar)) - (-v_bar * theta)) <= 1e-12
