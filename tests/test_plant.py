import json
import math
from dataclasses import replace

import numpy as np
import pytest

from funnelcap import (
    BoundsSpec,
    DynamicsError,
    SystemSpec,
    builtin_system,
    dump_defaults,
    eval_dynamics,
    pendulum_system,
    resolve_config,
    sine_chain_system,
    sine_signal,
    spot_check_bounds,
    zero_signal,
)
from funnelcap.plant import _score_margins


class TestEvalDynamics:
    def test_pendulum_equilibrium(self):
        sys_ = pendulum_system()
        assert eval_dynamics(sys_, [0.0, 0.0], 0.0, 0.0) == [0.0, 0.0]

    def test_pendulum_at_unit_velocity(self):
        sys_ = pendulum_system(d=(zero_signal, sine_signal(0.5, 1.0)))
        dot = eval_dynamics(sys_, [0.0, 1.0], 0.0, 0.0)
        assert dot[0] == pytest.approx(1.0, rel=1e-12)
        # friction term -(k/m)*v = -1 plus the velocity load sin(1)
        assert dot[1] == pytest.approx(math.sin(1.0) - 1.0, rel=1e-12)

    def test_sine_chain_at_origin_with_unit_input(self):
        sys_ = sine_chain_system()
        assert eval_dynamics(sys_, [0.0, 0.0], 1.0, 0.0) == [0.0, 7.0]

    def test_signals_blowup_with_stage_index(self):
        sys_ = SystemSpec(
            n=2,
            f=(lambda xs: 0.0, lambda xs: math.inf),
            g=(lambda xs: 1.0, lambda xs: 1.0),
            d=(zero_signal, zero_signal),
        )
        with pytest.raises(DynamicsError) as err:
            eval_dynamics(sys_, [0.0, 0.0], 0.0, 3.5)
        assert err.value.stage == 2
        assert err.value.t == 3.5

    def test_rejects_bad_arguments(self):
        sys_ = pendulum_system()
        with pytest.raises(ValueError):
            eval_dynamics(sys_, [0.0], 0.0, 0.0)
        with pytest.raises(ValueError):
            eval_dynamics(sys_, [0.0, 0.0], math.nan, 0.0)

    def test_deterministic(self):
        sys_ = pendulum_system(d=(zero_signal, sine_signal(0.5, 1.0)))
        a = eval_dynamics(sys_, [0.3, -0.7], 1.25, 2.0)
        b = eval_dynamics(sys_, [0.3, -0.7], 1.25, 2.0)
        assert a == b

    def test_prefix_only_dependence(self):
        # stage-1 oracles never see later states
        seen = []
        sys_ = SystemSpec(
            n=2,
            f=(lambda xs: seen.append(len(xs)) or 0.0, lambda xs: 0.0),
            g=(lambda xs: 1.0, lambda xs: 1.0),
            d=(zero_signal, zero_signal),
        )
        eval_dynamics(sys_, [1.0, 2.0], 0.0, 0.0)
        assert seen == [1]

    def test_oracles_get_the_state_prefix_as_a_tuple(self):
        # As the simulator and spot_check_bounds pass it, also for a list state.
        seen = []

        def oracle(xs):
            seen.append(xs)
            return 1.0

        sys_ = SystemSpec(n=2, f=(oracle, oracle), g=(oracle, oracle), d=(zero_signal, zero_signal))
        eval_dynamics(sys_, [1.0, 2.0], 0.0, 0.0)
        assert seen == [(1.0,), (1.0,), (1.0, 2.0), (1.0, 2.0)]
        assert all(type(xs) is tuple for xs in seen)


class TestBuiltins:
    def test_pendulum_example_constants(self, ex1):
        assert ex1.scenario.system.g[1]((0.0, 0.0)) == 100.0
        assert ex1.scenario.system.g[1]((2.3, -1.7)) == 100.0
        assert ex1.scenario.system.g[0]((0.0,)) == 1.0
        assert ex1.scenario.x0 == (-0.5, 1.0)
        assert ex1.scenario.system.d[0](1.3) == 0.0
        assert ex1.scenario.system.d[1](math.pi / 2.0) == pytest.approx(0.5, rel=1e-12)
        assert ex1.scenario.reference.y_d(math.pi) == pytest.approx(1.0, rel=1e-12)
        assert ex1.scenario.reference.y_d_rate(0.0) == pytest.approx(0.5, rel=1e-12)
        assert ex1.region.template == resolve_config(json.loads(dump_defaults("pendulum_ex1"))).region.template

    def test_nonlinear_example_constants(self, ex2):
        assert ex2.scenario.system.g[0]((0.0,)) == 5.0
        assert ex2.scenario.system.g[1]((0.0, 0.0)) == 7.0
        assert ex2.scenario.x0 == (0.5, -0.8)
        assert ex2.scenario.system.d[0](math.pi / 2.0) == pytest.approx(0.2, rel=1e-12)
        assert ex2.scenario.system.d[1](math.pi / 2.0) == pytest.approx(0.5, rel=1e-12)
        assert ex2.scenario.reference.y_d(math.pi / 2.0) == pytest.approx(0.5, rel=1e-12)
        assert ex2.region.template == resolve_config(json.loads(dump_defaults("nonlinear_ex2"))).region.template

    def test_scenario_defaults(self, ex1):
        sc = ex1.scenario
        assert sc.horizon == 20.0
        assert sc.step == 1e-3
        assert sc.substeps == 7
        assert sc.bounds.k[1] == pytest.approx(9.8 * math.sqrt(2.0), rel=1e-15)
        assert sc.bounds.v0_bar == 1.0 and sc.bounds.r0 == 0.5

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            builtin_system("pendulum_ex3")


class TestSpotCheck:
    def test_declared_growth_constant_fails_for_second_example(self, ex2):
        # |sin(x1) + x2| exceeds 1*||(x1, x2)|| at e.g. (1, 1): the declared
        # constant is optimistic and the check must surface that, not fix it.
        families = spot_check_bounds(ex2.scenario.system, ex2.scenario.bounds, [(-2.0, 2.0), (-2.0, 2.0)], samples=4000, seed=3)
        k = families[0]
        assert k.name == "k"
        assert k.violations[1] > 0
        assert k.min_margin[1] < 0.0
        assert any(any(f.violations) for f in families)

    def test_violation_exists_at_known_point(self, ex2):
        k2 = ex2.scenario.bounds.k[1]
        lhs = abs(ex2.scenario.system.f[1]((1.0, 1.0)))
        assert lhs > k2 * math.hypot(1.0, 1.0)

    def test_pendulum_bounds_hold_on_box(self, ex1):
        families = spot_check_bounds(ex1.scenario.system, ex1.scenario.bounds, [(-2.0, 2.0), (-2.0, 2.0)], samples=4000, seed=3)
        assert [f.name for f in families] == ["k", "g_lo/g_hi"]
        assert all(f.violations == (0, 0) for f in families)
        assert all(m >= 0.0 for m in families[0].min_margin)
        assert not any(any(f.violations) for f in families)

    def test_rejects_bad_box(self, ex1):
        with pytest.raises(ValueError):
            spot_check_bounds(ex1.scenario.system, ex1.scenario.bounds, [(-1.0, 1.0)], samples=10)
        with pytest.raises(ValueError):
            spot_check_bounds(ex1.scenario.system, ex1.scenario.bounds, [(1.0, -1.0), (-1.0, 1.0)], samples=10)
        with pytest.raises(ValueError):
            spot_check_bounds(ex1.scenario.system, ex1.scenario.bounds, [(-1.0, 1.0), (-1.0, 1.0)], samples=0)
        # non-finite ends, and a span hi - lo that overflows, are refused up
        # front rather than by numpy's OverflowError
        for first in ((-2.0, math.nan), (-math.inf, 2.0), (-1e308, 1e308)):
            with pytest.raises(ValueError):
                spot_check_bounds(ex1.scenario.system, ex1.scenario.bounds, [first, (-2.0, 2.0)], samples=10)
        # bounds must cover exactly the system's stages: 1 and 3 are refused
        b = ex1.scenario.bounds
        for count in (1, 3):
            lists = {name: (getattr(b, name) * 2)[:count] for name in ("k", "g_lo", "g_hi", "d_bar")}
            with pytest.raises(ValueError, match="bounds cover"):
                spot_check_bounds(ex1.scenario.system, replace(b, **lists), [(-2.0, 2.0), (-2.0, 2.0)], samples=10)

    def test_nan_drift_on_half_the_box_fails_there(self, ex1):
        # f_2 is NaN on the half x_1 > 0 of the box and the pendulum's own
        # drift elsewhere, where k_2 holds: exactly the NaN samples fail.
        nans = []

        def half_nan(xs):
            nans.append(xs[0] > 0.0)
            return math.nan if nans[-1] else ex1.scenario.system.f[1](xs)

        system = replace(ex1.scenario.system, f=(ex1.scenario.system.f[0], half_nan))
        box = [(-2.0, 2.0), (-2.0, 2.0)]
        k, g = spot_check_bounds(system, ex1.scenario.bounds, box)
        assert 0 < k.violations[1] == sum(nans) < len(nans) == 2000
        assert math.isnan(k.min_margin[1])
        assert k.worst_at[1][0] > 0.0
        assert g.violations[1] == 0

    def test_nan_gain_everywhere_fails_every_sample(self, ex1):
        system = replace(ex1.scenario.system, g=(ex1.scenario.system.g[0], lambda xs: math.nan))
        families = spot_check_bounds(system, ex1.scenario.bounds, [(-2.0, 2.0), (-2.0, 2.0)])
        assert any(any(f.violations) for f in families)
        g = families[1]
        assert g.name == "g_lo/g_hi"
        assert g.violations[1] == 2000
        assert math.isnan(g.min_margin[1])
        assert len(g.worst_at[1]) == 2
        assert all(-2.0 <= v <= 2.0 for v in g.worst_at[1])

    def test_margin_reducer_rule(self):
        # columns: a tie, signed zeros, infinities, NaN among negatives
        margins = np.array(
            [
                [1.0, -0.0, math.inf, 2.0],
                [0.5, 0.0, math.inf, math.nan],
                [0.5, -0.0, -math.inf, -1.0],
                [2.0, 0.0, -math.inf, math.nan],
            ]
        )
        lowest, count, rows, fails = _score_margins(margins)
        assert rows == (1, 0, 2, 1)  # first occurrence of the minimum, or of NaN
        assert lowest[:3] == (0.5, 0.0, -math.inf)
        assert math.copysign(1.0, lowest[1]) == -1.0
        assert math.isnan(lowest[3])
        assert count == (0, 0, 2, 3)  # -0.0 passes, NaN fails
        assert np.array_equal(fails, ~(margins >= 0.0))
        assert [type(v) for v in (*lowest, *count, *rows)] == [float] * 4 + [int] * 8


class TestSpecValidation:
    def test_system_spec_lengths(self):
        with pytest.raises(ValueError):
            SystemSpec(n=2, f=(lambda xs: 0.0,), g=(lambda xs: 1.0, lambda xs: 1.0), d=(zero_signal, zero_signal))
        with pytest.raises(ValueError):
            SystemSpec(n=0, f=(), g=(), d=())
        for m, l in ((0.0, 1.0), (0.01, -1.0)):
            with pytest.raises(ValueError):
                pendulum_system(m=m, l=l)

    def test_bounds_spec_guards(self):
        with pytest.raises(ValueError):
            BoundsSpec(k=(-1.0, 0.0), g_lo=(1.0, 1.0), g_hi=(1.0, 1.0), d_bar=(0.0, 0.0), v0_bar=1.0, r0=0.5)
        with pytest.raises(ValueError):
            BoundsSpec(k=(0.0, 0.0), g_lo=(2.0, 1.0), g_hi=(1.0, 1.0), d_bar=(0.0, 0.0), v0_bar=1.0, r0=0.5)
        with pytest.raises(ValueError):
            BoundsSpec(k=(0.0,), g_lo=(1.0, 1.0), g_hi=(1.0, 1.0), d_bar=(0.0, 0.0), v0_bar=1.0, r0=0.5)
        with pytest.raises(ValueError):
            BoundsSpec(k=(), g_lo=(), g_hi=(), d_bar=(), v0_bar=1.0, r0=0.5)
