import collections
import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

import funnelcap as fc
from funnelcap import _rk4
from funnelcap.config import resolve_config
from funnelcap.plant import _formula
from funnelcap.simulator import _CSV_BLOCK_ROWS, _control_path, _kernel

ZERO_REF = fc.ReferenceSpec(y_d=lambda t: 0.0, y_d_rate=lambda t: 0.0)


def identity_scenario(horizon=1.0, step=1e-3, p=1.0, substeps=1):
    """f = 0, g = 1, d = 0, y_d = 0, x0 = 0: nothing should ever move."""
    system = fc.SystemSpec(
        n=2,
        f=(lambda xs: 0.0, lambda xs: 0.0),
        g=(lambda xs: 1.0, lambda xs: 1.0),
        d=(fc.zero_signal, fc.zero_signal),
    )
    controller = fc.CascadeConfig(
        n=2,
        stages=(
            fc.StageControllerParams(v_bar=1.0, funnel=fc.FunnelParams(p=p, q=0.1, mu=1.0)),
            fc.StageControllerParams(v_bar=1.0, funnel=fc.FunnelParams(p=p, q=0.1, mu=1.0)),
        ),
    )
    return fc.Scenario(
        system=system,
        reference=ZERO_REF,
        controller=controller,
        bounds=None,
        x0=(0.0, 0.0),
        horizon=horizon,
        step=step,
        substeps=substeps,
    )


def sub_step_schedule(sc, t):
    """m_k of each recording interval [t_k, t_k+1], from the envelope formula:
    ceil(substeps * max_i q_i / psi_i(t_k+1))."""
    return [
        math.ceil(sc.substeps * max(s.funnel.q / fc.funnel_value(s.funnel, t_next) for s in sc.controller.stages))
        for t_next in t[1:]
    ]


def counting_rhs(sc, count):
    """sc with its last stage's control coefficient wrapped to call count()
    first: every right-hand side evaluation calls that oracle exactly once."""
    g_last = sc.system.g[-1]

    def counted(xs):
        count()
        return g_last(xs)

    return dataclasses.replace(sc, system=dataclasses.replace(sc.system, g=(*sc.system.g[:-1], counted)))


def rhs_calls_per_interval(sc, monkeypatch):
    """Run sc with its right-hand sides counted per call of the kernel's
    advance, which integrates one recording interval."""
    counts = []
    kernel = _kernel

    def counted_kernel(*args):
        ns = kernel(*args)
        advance = ns["advance"]

        def counted_advance(*args):
            counts.append(0)
            return advance(*args)

        ns["advance"] = counted_advance
        return ns

    def count():
        counts[-1] += 1

    monkeypatch.setattr("funnelcap.simulator._kernel", counted_kernel)
    traj = fc.simulate(counting_rhs(sc, count))
    assert len(counts) == traj.samples - 1
    return traj, counts


def chain_scenario(n, seed, horizon=0.2, substeps=3):
    """A seeded n-stage chain: state-dependent f_i and g_i > 0, sinusoidal
    disturbances and reference, and envelopes that start around x0 = 0."""
    rng = np.random.default_rng(seed)
    a, b, c = rng.uniform(0.5, 2.0, size=(3, n)).tolist()
    system = fc.SystemSpec(
        n=n,
        f=tuple((lambda xs, a=a_i: a * math.sin(xs[-1]) - 0.5 * xs[0]) for a_i in a),
        g=tuple((lambda xs, b=b_i: b + 0.25 * math.cos(sum(xs))) for b_i in b),
        d=tuple(fc.sine_signal(0.1 * c_i, 3.0) for c_i in c),
    )
    stages = []
    for v_bar, p, q, mu, shape in rng.uniform(0.5, 1.0, size=(n, 5)).tolist():
        funnel = fc.FunnelParams(p=4.0 * p + q, q=0.1 * q, mu=2.0 * mu)
        stages.append(fc.StageControllerParams(v_bar=5.0 * v_bar, funnel=funnel, c=2.0 * shape))
    return fc.Scenario(
        system=system,
        reference=fc.sine_reference(0.5, 1.0),
        controller=fc.CascadeConfig(n=n, stages=tuple(stages)),
        bounds=None,
        x0=(0.0,) * n,
        horizon=horizon,
        substeps=substeps,
    )


def plain_signals(sc, calls):
    """sc with y_d and each d_i wrapped in a plain lambda that first appends
    the signal's name to calls, so the kernel calls them, not their text."""

    def plain(name, signal):
        return lambda t: calls.append(name) or signal(t)

    reference = dataclasses.replace(sc.reference, y_d=plain("y_d", sc.reference.y_d))
    d = tuple(plain(f"d{i}", d_i) for i, d_i in enumerate(sc.system.d, 1))
    return dataclasses.replace(sc, reference=reference, system=dataclasses.replace(sc.system, d=d))


def kernel_sources(monkeypatch):
    """The list every kernel source compiled from now on is appended to,
    with the kernel cache cleared."""
    sources = []

    def spy(source, *args):
        sources.append(source)
        return compile(source, *args)

    monkeypatch.setattr(_rk4, "compile", spy, raising=False)
    _rk4._kernel_code.cache_clear()
    return sources


def reference_advance(sc, state, t_k, h_sub, m_k):
    """The loop the RK4 kernel unrolls: m_k classic RK4 sub-steps of
    eval_dynamics driven by cascade(...).u[-1]."""
    n = len(state)

    def rhs(s, t):
        return fc.eval_dynamics(sc.system, s, fc.cascade(s, t, sc.controller, sc.reference).u[-1], t)

    for s in range(m_k):
        t_s = t_k + s * h_sub
        k1 = rhs(state, t_s)
        s2 = [state[j] + 0.5 * h_sub * k1[j] for j in range(n)]
        k2 = rhs(s2, t_s + 0.5 * h_sub)
        s3 = [state[j] + 0.5 * h_sub * k2[j] for j in range(n)]
        k3 = rhs(s3, t_s + 0.5 * h_sub)
        s4 = [state[j] + h_sub * k3[j] for j in range(n)]
        k4 = rhs(s4, t_s + h_sub)
        state = [state[j] + (h_sub / 6.0) * (k1[j] + 2.0 * k2[j] + 2.0 * k3[j] + k4[j]) for j in range(n)]
        for j in range(n):
            if not math.isfinite(state[j]):
                raise fc.DynamicsError(j + 1, t_s + h_sub, state[j])
    return state


def assert_rows_are_cascades(sc, traj):
    """Each row's z, theta, u and psi are cascade(xi_k, t_k) bit for bit, its
    y_d is reference.y_d(t_k), and the saturation events are the cascade's
    clamp flags, each valued z_i / psi_i."""
    decisions = [fc.cascade(xi, t, sc.controller, sc.reference) for xi, t in zip(traj.xi.tolist(), traj.t.tolist())]
    for name in ("z", "theta", "u", "psi"):
        assert getattr(traj, name).tobytes() == np.array([getattr(d, name) for d in decisions]).tobytes()
    assert traj.y_d.tobytes() == np.array([sc.reference.y_d(t) for t in traj.t.tolist()]).tobytes()
    clamps = [
        (t, i + 1, d.z[i] / d.psi[i])
        for t, d in zip(traj.t.tolist(), decisions)
        for i in range(sc.system.n)
        if d.saturated[i]
    ]
    assert [(e.t, e.stage, e.value) for e in traj.events if e.kind == "saturation"] == clamps


def both_raise(sc, state, t_k, h_sub, m_k):
    """The DynamicsError of the kernel and of the reference loop, as tuples."""
    advance = _kernel(sc.controller, sc.reference, sc.system)["advance"]
    errors = []
    for run in (advance, lambda *args: reference_advance(sc, *args)):
        with pytest.raises(fc.DynamicsError) as err:
            run(list(state), t_k, h_sub, m_k)
        errors.append((err.value.stage, err.value.t, err.value.value))
    return errors


class TestSimulate:
    def test_identity_loop_stays_exactly_at_zero(self):
        traj = fc.simulate(identity_scenario())
        assert traj.samples == 1001
        assert np.all(traj.xi == 0.0)
        assert np.all(traj.u == 0.0)
        assert np.all(traj.z == 0.0)
        assert np.all(traj.theta == 0.0)
        assert traj.events == ()

    def test_deterministic_bit_identical(self, ex1):
        sc = ex1.scenario.with_overrides(horizon=0.5)
        a = fc.simulate(sc)
        b = fc.simulate(sc)
        for name in ("t", "xi", "z", "theta", "u", "psi", "y_d"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_time_grid_and_shapes(self, ex1_trajectory):
        traj = ex1_trajectory
        assert traj.samples == 20001
        assert traj.t[0] == 0.0
        assert traj.t[-1] == pytest.approx(20.0, abs=1e-12)
        assert np.all(np.diff(traj.t) > 0.0)
        assert traj.xi.shape == (20001, 2)
        assert traj.psi.shape == (20001, 2)

    @pytest.mark.parametrize(
        "horizon, step, steps",
        # 0.0015 and 0.0035 lie halfway between samples; 2.0 / 1e-5 is 199999.99999999997.
        [(0.0015, 1e-3, 1), (0.0025, 1e-3, 2), (0.0035, 1e-3, 3), (2.0, 1e-5, 200_000), (20.0, 1e-3, 20_000)],
    )
    def test_every_sample_up_to_the_horizon_is_recorded(self, horizon, step, steps, monkeypatch):
        sc = identity_scenario(horizon=horizon, step=step)
        if steps < 10:
            t = fc.simulate(sc).t
            assert t.tolist() == [k * step for k in range(steps + 1)]
            assert t[-1] <= horizon < t[-1] + step
        # The table's size, with the kernel's run skipped, so that long horizons stay cheap.
        seen = []

        def kernel(*args):
            ns = _kernel(*args)
            ns["run"] = lambda table, state, steps, *rest: seen.append((len(table), steps))
            return ns

        monkeypatch.setattr("funnelcap.simulator._kernel", kernel)
        fc.simulate(sc)
        assert seen == [(steps + 1, steps)]

    def test_pendulum_envelopes_hold(self, ex1_trajectory):
        traj = ex1_trajectory
        assert np.all(np.abs(traj.z) < traj.psi)
        assert np.all(np.abs(traj.u[:, -1]) < 8.0)
        late = traj.t >= 10.0
        assert np.max(np.abs(traj.z[late, 0])) < 0.0502
        assert traj.events == ()

    def test_start_condition_enforced(self, ex1):
        sc = dataclasses.replace(ex1.scenario, x0=(2.0, 1.0), horizon=0.05)
        with pytest.raises(fc.TrivialConditionError):
            fc.simulate(sc)

    def test_permissive_logs_and_runs_clamped(self, ex1):
        sc = dataclasses.replace(ex1.scenario, x0=(2.0, 1.0), horizon=0.05)
        traj = fc.simulate(sc, permissive=True)
        kinds = {e.kind for e in traj.events}
        assert "trivial_violation" in kinds
        assert any(e.kind == "trivial_violation" and e.stage == 1 and e.t == 0.0 for e in traj.events)
        assert "saturation" in kinds
        assert np.all(np.abs(traj.u[:, -1]) < 8.0)
        # The start check reads sample 0: each failing stage logs its z_i(0),
        # ahead of every clamp event at t = 0.
        trivial = [j for j, e in enumerate(traj.events) if e.kind == "trivial_violation"]
        failing = np.flatnonzero(np.abs(traj.z[0]) >= traj.psi[0]) + 1
        assert [traj.events[j].stage for j in trivial] == failing.tolist()
        for j in trivial:
            assert traj.events[j].value == traj.z[0, traj.events[j].stage - 1]
        start_clamps = [j for j, e in enumerate(traj.events) if e.kind == "saturation" and e.t == 0.0]
        assert start_clamps and max(trivial) < min(start_clamps)

    @pytest.mark.parametrize("example", ["ex1", "ex2"])
    def test_bundled_rows_are_the_cascade_at_each_sample(self, example, request):
        sc = request.getfixturevalue(example).scenario
        assert_rows_are_cascades(sc, request.getfixturevalue(f"{example}_trajectory"))

    def test_clamped_rows_are_the_cascade_at_each_sample(self, ex1):
        sc = dataclasses.replace(ex1.scenario, x0=(1.8, 1.0), horizon=0.5)
        traj = fc.simulate(sc, permissive=True)
        assert len(traj.events) == 203
        assert_rows_are_cascades(sc, traj)

    @pytest.mark.parametrize("n", [1, 3])
    def test_chain_rows_are_the_cascade_at_each_sample(self, n):
        sc = chain_scenario(n, seed=11)
        assert_rows_are_cascades(sc, fc.simulate(sc))

    def test_dynamics_blowup_aborts_with_time(self):
        system = fc.SystemSpec(n=1, f=(lambda xs: xs[0] * xs[0],), g=(lambda xs: 1e-6,), d=(fc.zero_signal,))
        controller = fc.CascadeConfig(
            n=1,
            stages=(fc.StageControllerParams(v_bar=0.01, funnel=fc.FunnelParams(p=1e6, q=1e6, mu=1.0)),),
        )
        sc = fc.Scenario(
            system=system, reference=ZERO_REF, controller=controller, bounds=None, x0=(5.0,), horizon=1.0, step=1e-3
        )
        with pytest.raises(fc.DynamicsError) as err:
            fc.simulate(sc)
        assert 0.0 < err.value.t <= 1.0
        assert err.value.stage == 1

    def test_overflowing_state_update_aborts(self):
        # Every derivative is 1e308, but the RK4 weighted sum k1 + 2*k2 + ...
        # overflows: the state check, not the right-hand side, must stop the run.
        system = fc.SystemSpec(n=1, f=(lambda xs: 1e308,), g=(lambda xs: 0.0,), d=(fc.zero_signal,))
        controller = fc.CascadeConfig(
            n=1,
            stages=(fc.StageControllerParams(v_bar=1.0, funnel=fc.FunnelParams(p=1e6, q=1e6, mu=1.0)),),
        )
        sc = fc.Scenario(
            system=system, reference=ZERO_REF, controller=controller, bounds=None, x0=(0.0,), horizon=1.0, step=1e-3
        )
        # g and d are 0, so f's value is the whole derivative of each evaluation.
        derivatives = []

        def recorded(xs):
            out = system.f[0](xs)
            derivatives.append(out)
            return out

        sc = dataclasses.replace(sc, system=dataclasses.replace(system, f=(recorded,)))
        with pytest.raises(fc.DynamicsError) as err:
            fc.simulate(sc)
        assert (err.value.stage, err.value.t, err.value.value) == (1, 0.001, math.inf)
        assert derivatives == [1e308] * 4

    def test_scenario_validation(self, ex1):
        with pytest.raises(ValueError):
            dataclasses.replace(ex1.scenario, horizon=0.0)
        with pytest.raises(ValueError):
            dataclasses.replace(ex1.scenario, step=0.0)
        with pytest.raises(ValueError):
            dataclasses.replace(ex1.scenario, substeps=0)
        with pytest.raises(ValueError):
            dataclasses.replace(ex1.scenario, substeps=True)
        with pytest.raises(ValueError):
            dataclasses.replace(ex1.scenario, x0=(0.0,))
        with pytest.raises(ValueError):
            dataclasses.replace(ex1.scenario, x0=(math.inf, 0.0))
        # a controller or bounds of another order than the system
        one = chain_scenario(1, seed=1).controller
        with pytest.raises(ValueError, match="controller has 1 stages"):
            dataclasses.replace(ex1.scenario, controller=one)
        short = fc.BoundsSpec(k=(0.0,), g_lo=(1.0,), g_hi=(1.0,), d_bar=(0.0,), v0_bar=1.0, r0=0.5)
        with pytest.raises(ValueError, match="bounds cover 1 stages"):
            dataclasses.replace(ex1.scenario, bounds=short)

    def test_scenario_refuses_overflowing_counts(self, ex1):
        # horizon / step past the float range, and a sub-step count that
        # does not convert to a float, would overflow inside simulate.
        for kwargs in ({"step": 1e-320}, {"step": 1e-300, "horizon": 1e10}, {"substeps": 10**400}):
            with pytest.raises(ValueError):
                dataclasses.replace(ex1.scenario, **kwargs)

    @pytest.mark.parametrize("example", ["ex1", "ex2"])
    def test_sub_steps_follow_the_envelope(self, example, request, monkeypatch):
        sc = request.getfixturevalue(example).scenario.with_overrides(horizon=0.5)
        traj, calls = rhs_calls_per_interval(sc, monkeypatch)
        schedule = sub_step_schedule(sc, traj.t)
        assert calls == [4 * m for m in schedule]
        assert max(schedule) <= sc.substeps
        assert all(a <= b for a, b in zip(schedule, schedule[1:]))
        # The wide envelopes of the first 0.5 s need fewer sub-steps than the
        # settled count; none of them reaches its q_i this early.
        assert schedule[0] < sc.substeps

    def test_schedule_ignores_the_declared_gain_bounds(self, monkeypatch):
        # A generous g_hi on a slowly settling stage 1 must not thin out the
        # sub-steps stage 2 needs: with the count sized from each stage's
        # declared stiffness instead of q_i, this run broke 441 bounds.
        cfg = json.loads(fc.dump_defaults("pendulum_ex1"))
        cfg["controller"]["stages"][0]["funnel"]["mu"] = 0.1
        cfg["bounds"]["g_hi"][0] = 1000.0
        cfg["sim"]["horizon"] = 3.0
        sc = resolve_config(cfg).scenario
        traj, calls = rhs_calls_per_interval(sc, monkeypatch)
        assert calls == [4 * m for m in sub_step_schedule(sc, traj.t)]
        assert fc.monitor(traj, sc.controller, sc.bounds).total_violations == 0

    @pytest.mark.parametrize("example, rhs", [("ex1", 482_536), ("ex2", 356_584)])
    def test_bundled_runs_take_the_pinned_rhs_evaluations(self, example, rhs, request):
        # 20 s at the bundled counts, 7 (ex1) and 5 (ex2), with every
        # monitor clean; at 10 sub-steps they took 683,992 and 702,316.
        calls = []
        sc = request.getfixturevalue(example).scenario
        traj = fc.simulate(counting_rhs(sc, lambda: calls.append(None)))
        assert len(calls) == rhs
        assert fc.monitor(traj, sc.controller, sc.bounds).total_violations == 0

    def test_settled_envelopes_take_the_configured_count(self, monkeypatch):
        # p == q: every psi_i is q_i from the start, so every interval takes
        # all of its sub-steps; a scenario without bounds simulates too.
        sc = identity_scenario(horizon=0.05, p=0.1, substeps=10)
        traj, calls = rhs_calls_per_interval(sc, monkeypatch)
        assert np.all(traj.psi == 0.1)
        assert calls == [40] * (traj.samples - 1)
        assert np.all(traj.xi == 0.0)

    @pytest.mark.parametrize("example", ["ex1", "ex2"])
    def test_schedule_matches_a_fine_fixed_step(self, example, request):
        # The reference integrates at exactly 1e-5 per step, as acceptance
        # criterion 7 builds it.
        sc = request.getfixturevalue(example).scenario
        x = fc.simulate(sc.with_overrides(horizon=2.0)).xi[-1]
        x_ref = fc.simulate(dataclasses.replace(sc, horizon=2.0, step=1e-5, substeps=1)).xi[-1]
        assert np.max(np.abs(x - x_ref)) <= 1e-6

    def test_fast_control_path_matches_cascade_exactly(self, ex1, ex2):
        rng = np.random.default_rng(7)
        for ex in (ex1, ex2):
            sc = ex.scenario
            u_last = _control_path(sc.controller, sc.reference)
            for _ in range(2000):
                state = list(rng.uniform(-4.0, 4.0, sc.system.n))
                t = float(rng.uniform(0.0, 30.0))
                assert u_last(state, t) == fc.cascade(state, t, sc.controller, sc.reference).u[-1]

    def test_control_path_refuses_a_nan_reference_as_cascade_does(self, ex1):
        # The plant input is read off the recorded row, so the kernel's
        # finite-input check applies; the kernel generates no other law.
        sc = ex1.scenario
        nan_reference = fc.ReferenceSpec(y_d=lambda t: math.nan, y_d_rate=lambda t: 0.0)
        assert "u_last" not in _kernel(sc.controller, sc.reference, sc.system)
        with pytest.raises(ValueError):
            fc.cascade([0.0, 0.0], 1.0, sc.controller, nan_reference)
        with pytest.raises(ValueError):
            _control_path(sc.controller, nan_reference)([0.0, 0.0], 1.0)


class TestKernel:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_the_reference_loop_bit_for_bit(self, n):
        # chain_scenario's f_i and g_i are plain; its y_d and d_i are library
        # formulas, and plain lambdas of the same values in the second kernel.
        sc = chain_scenario(n, seed=n)
        calls = []
        advances = [_kernel(s.controller, s.reference, s.system)["advance"] for s in (sc, plain_signals(sc, calls))]
        rng = np.random.default_rng(100 + n)
        for _ in range(200):
            t_k = float(rng.uniform(0.0, 10.0))
            # Normalized errors uniform on (-1.2, 1.2), so about one stage in
            # six clamps, and one in ten inside the guard band's edges.
            state, prev = [], sc.reference.y_d(t_k)
            for stage in sc.controller.stages:
                theta = float(rng.uniform(-1.2, 1.2))
                if rng.random() < 0.1:
                    theta = math.copysign(1.0 - 0.5 * fc.THETA_EPS, theta)
                state.append(prev + theta * fc.funnel_value(stage.funnel, t_k))
                prev = fc.stage_control(fc.clamp_theta(theta)[0], stage)
            h_sub = float(rng.uniform(1e-5, 1e-3))
            m_k = int(rng.integers(1, 8))
            expected = reference_advance(sc, state, t_k, h_sub, m_k)
            assert [advance(list(state), t_k, h_sub, m_k) for advance in advances] == [expected, expected]
        # A plain y_d or d_i is called once per distinct time: 3 times per sub-step.
        calls.clear()
        advances[1]([0.0] * n, 1.0, 1e-3, 5)
        assert collections.Counter(calls) == dict.fromkeys(["y_d", *(f"d{i}" for i in range(1, n + 1))], 15)

    def test_three_stage_run_matches_the_reference_loop(self):
        sc = chain_scenario(3, seed=11)
        traj = fc.simulate(sc)
        assert traj.samples == 201
        assert np.all(np.abs(traj.z) < traj.psi)
        state = list(sc.x0)
        for k, m_k in enumerate(sub_step_schedule(sc, traj.t)):
            state = reference_advance(sc, state, float(traj.t[k]), sc.step / m_k, m_k)
            assert traj.xi[k + 1].tolist() == state

    def test_non_finite_stage_two_field_raises_as_the_loop_does(self):
        # f_2 = 1e308 * x_2 overflows once k1 has pushed x_2 past 1.8, at the
        # first half step.
        sc = chain_scenario(3, seed=3)
        f = (sc.system.f[0], lambda xs: 1e308 * xs[1], sc.system.f[2])
        sc = dataclasses.replace(sc, system=dataclasses.replace(sc.system, f=f))
        kernel, loop = both_raise(sc, [0.0, 1.0, 0.0], 2.0, 1e-3, 3)
        assert kernel == loop == (2, 2.0 + 0.5 * 1e-3, math.inf)

    def test_overflowing_state_raises_as_the_loop_does(self):
        # x_2's derivative jumps to 1e308 past 1.0: the first sub-step lands
        # near 1.7e304, and the second one's weighted sum overflows.
        sc = chain_scenario(2, seed=5)
        system = fc.SystemSpec(
            n=2,
            f=(lambda xs: 0.0, lambda xs: 1e308 if xs[1] > 1.0 else 1.0),
            g=(lambda xs: 0.0, lambda xs: 0.0),
            d=(fc.zero_signal, fc.zero_signal),
        )
        sc = dataclasses.replace(sc, system=system)
        kernel, loop = both_raise(sc, [0.0, 0.9995], 2.0, 1e-3, 3)
        assert kernel == loop == (2, 2.0 + 1e-3 + 1e-3, math.inf)

    def test_oracles_get_the_state_prefix_as_a_tuple(self, ex1):
        seen = []

        def f(xs):
            seen.append(xs)
            return 0.0

        sc = ex1.scenario
        system = dataclasses.replace(sc.system, f=(f, f))
        _kernel(sc.controller, sc.reference, system)["advance"]([0.1, 0.2], 0.0, 1e-3, 1)
        assert seen[:2] == [(0.1,), (0.1, 0.2)]
        assert all(type(xs) is tuple for xs in seen)


def old_pendulum(m, l, k, gravity):
    """The pendulum family's oracles as they were written before its text."""
    a_g, a_k, gain = gravity / l, k / m, 1.0 / (m * l * l)
    f = (lambda xs: 0.0, lambda xs: -a_g * math.sin(xs[0]) - a_k * xs[1] + math.sin(xs[1]))
    return f, (lambda xs: 1.0, lambda xs: gain)


def old_sine_chain(a, b2, gains):
    """The sine-chain family's oracles as they were written before its text."""
    a1, a2, g1, g2 = *a, *gains
    f = (lambda xs: a1 * math.sin(xs[0]), lambda xs: a2 * math.sin(xs[0]) + b2 * xs[1])
    return f, (lambda xs: g1, lambda xs: g2)


class TestFormulas:
    SPECIAL = [0.0, -0.0, 5e-324, -1e-300, 1e300, -1e300, 1e16, math.nan]

    def test_family_oracles_equal_the_old_lambdas_bit_for_bit(self):
        rng = np.random.default_rng(21)
        values = rng.uniform(-10.0, 10.0, 200).tolist() + self.SPECIAL
        pairs = [(x, y) for x in values[:60] + self.SPECIAL for y in values[::7]]
        for _ in range(5):
            m, l, k, grav, a1, a2, b2, g1, g2 = rng.uniform(0.01, 20.0, 9).tolist()
            for new, old in (
                (fc.pendulum_system(m=m, l=l, k=k, gravity=grav), old_pendulum(m, l, k, grav)),
                (fc.sine_chain_system(a=(a1, -a2), b2=-b2, gains=(g1, g2)), old_sine_chain((a1, -a2), -b2, (g1, g2))),
            ):
                for oracles, old_oracles in zip((new.f, new.g), old):
                    for i, (oracle, old_oracle) in enumerate(zip(oracles, old_oracles)):
                        got = [oracle(p[: i + 1]).hex() for p in pairs]
                        assert got == [old_oracle(p[: i + 1]).hex() for p in pairs]
            signal = fc.sine_signal(a1, -a2)
            assert [signal(t).hex() for t in values] == [(a1 * math.sin(-a2 * t)).hex() for t in values]

    def test_a_constant_named_like_a_kernel_constant_cannot_collide(self, monkeypatch):
        # The control law's namespace binds A1, B2 and LIMIT too; the slot
        # prefix keeps these apart (F1_A1, F2_B2, ...).  Without the prefix,
        # as patched below, the kernel refuses the constant A1 instead of
        # running silently on one of the two values.
        sc = chain_scenario(2, seed=2)
        f = (_formula("{A1} * sin({x1})", A1=0.5), _formula("{B2} * {x2} - {LIMIT} * {x1}", B2=1.5, LIMIT=0.25))
        sc = dataclasses.replace(sc, system=dataclasses.replace(sc.system, f=f))
        advance = _kernel(sc.controller, sc.reference, sc.system)["advance"]
        for state in ([0.1, -0.2], [0.4, 0.3]):
            assert advance(list(state), 1.0, 1e-3, 3) == reference_advance(sc, state, 1.0, 1e-3, 3)
        monkeypatch.setattr("funnelcap._rk4._CONSTANT_KEY", "{name}")
        with pytest.raises(ValueError, match="kernel name A1 is already bound"):
            _kernel(sc.controller, sc.reference, sc.system)

    def test_mixed_formula_and_plain_oracles_match_the_reference_loop(self, ex1):
        # Stage 2's drift and stage 1's gain are plain callables, the rest
        # library formulas: each slot inlines its own text in the same kernel.
        (_, f2), (g1, _) = old_pendulum(0.01, 1.0, 0.01, 9.8)
        sc = ex1.scenario
        mixed = dataclasses.replace(sc.system, f=(sc.system.f[0], f2), g=(g1, sc.system.g[1]))
        sc = dataclasses.replace(sc, system=mixed, horizon=0.2)
        advance = _kernel(sc.controller, sc.reference, sc.system)["advance"]
        rng = np.random.default_rng(5)
        for _ in range(50):
            state = rng.uniform(-0.5, 0.5, 2).tolist()
            t_k = float(rng.uniform(0.0, 10.0))
            assert advance(list(state), t_k, 1e-4, 2) == reference_advance(sc, state, t_k, 1e-4, 2)
        assert fc.simulate(sc).xi.tobytes() == fc.simulate(ex1.scenario.with_overrides(horizon=0.2)).xi.tobytes()

    def test_default_disturbances_are_inlined(self, ex1, monkeypatch):
        # zero_signal carries the formula "0.0", so a family built with its
        # default disturbances makes no oracle call per right-hand side.
        sources = kernel_sources(monkeypatch)
        sc = dataclasses.replace(ex1.scenario, system=fc.pendulum_system())
        advance = _kernel(sc.controller, sc.reference, sc.system)["advance"]
        assert len(sources) == 1
        assert "_call(" not in sources[0]
        rng = np.random.default_rng(8)
        for _ in range(50):
            state = rng.uniform(-0.5, 0.5, 2).tolist()
            t_k = float(rng.uniform(0.0, 10.0))
            assert advance(list(state), t_k, 1e-4, 2) == reference_advance(sc, state, t_k, 1e-4, 2)

    @pytest.mark.parametrize(
        "example, digest",
        [
            ("ex1", "58b8b262045e2358c46801bbcc3c9375e0dbcddc9f7ee60dd2005c52a704e82e"),
            ("ex2", "36abbe1c0a9642283cb7e38c1e93e5cb75c38c47c74b25a16fb054c5944f29b7"),
        ],
    )
    def test_bundled_kernel_source_is_pinned(self, example, digest, request, monkeypatch):
        # Every oracle of the bundled configs carries library text, so the
        # kernel they run is fixed; the pin keeps it from moving unnoticed.
        sources = kernel_sources(monkeypatch)
        sc = request.getfixturevalue(example).scenario
        _kernel(sc.controller, sc.reference, sc.system)
        assert [hashlib.sha256(source.encode()).hexdigest() for source in sources] == [digest]

    def test_families_share_one_compiled_kernel(self, ex1):
        a = _kernel(ex1.scenario.controller, ex1.scenario.reference, ex1.scenario.system)
        other = fc.pendulum_system(m=0.02, l=2.0, d=(fc.sine_signal(0.1, 2.0), fc.sine_signal(0.3, 1.0)))
        b = _kernel(ex1.scenario.controller, fc.sine_reference(0.2, 3.0), other)
        assert a["run"].__code__ is b["run"].__code__
        assert (a["F2_a_g"], b["F2_a_g"]) == (9.8, 4.9)


class TestMonitor:
    def test_pendulum_run_is_violation_free(self, ex1, ex1_trajectory):
        report = fc.monitor(ex1_trajectory, ex1.scenario.controller, ex1.scenario.bounds)
        assert [f.name for f in report.families] == [
            "error_envelope",
            "input_cap",
            "state_envelope",
            "output_slew",
        ]
        assert report.total_violations == 0
        assert report.events == ()
        for fam in report.families:
            assert all(m > 0.0 for m in fam.min_margin)

    def test_second_example_run_is_violation_free(self, ex2, ex2_trajectory):
        report = fc.monitor(ex2_trajectory, ex2.scenario.controller, ex2.scenario.bounds)
        assert report.total_violations == 0

    def test_detects_injected_envelope_violation(self, ex1, ex1_trajectory):
        z = ex1_trajectory.z.copy()
        k = 1000
        z[k, 0] = ex1_trajectory.psi[k, 0] + 0.1
        edited = dataclasses.replace(ex1_trajectory, z=z)
        report = fc.monitor(edited, ex1.scenario.controller, ex1.scenario.bounds)
        fam = {f.name: f for f in report.families}["error_envelope"]
        assert fam.violations == (1, 0)
        assert fam.worst_at[0] == pytest.approx(ex1_trajectory.t[k])
        assert len(report.events) == 1
        assert report.events[0].kind == "violation_error_envelope"
        assert report.events[0].stage == 1
        assert report.events[0].t == pytest.approx(ex1_trajectory.t[k])

    def test_slew_bounds_come_from_certificate(self, ex1, ex1_trajectory):
        report = fc.monitor(ex1_trajectory, ex1.scenario.controller, ex1.scenario.bounds)
        cert = fc.check_feasibility(ex1.scenario.controller, ex1.scenario.bounds, [0.0, 0.0])
        slew = {f.name: f for f in report.families}["output_slew"]
        h = ex1.scenario.step
        u = ex1_trajectory.u
        ud = np.empty_like(u)
        ud[1:-1] = (u[2:] - u[:-2]) / (2.0 * h)
        ud[0] = (u[1] - u[0]) / h
        ud[-1] = (u[-1] - u[-2]) / h
        for i, stage in enumerate(cert.stages):
            expected = stage.r - float(np.max(np.abs(ud[:, i])))
            assert slew.min_margin[i] == pytest.approx(expected, rel=1e-12)

    def test_dimension_mismatch_rejected(self, ex1, ex1_trajectory):
        short = fc.BoundsSpec(k=(0.0,), g_lo=(1.0,), g_hi=(1.0,), d_bar=(0.0,), v0_bar=1.0, r0=0.5)
        with pytest.raises(ValueError):
            fc.monitor(ex1_trajectory, ex1.scenario.controller, short)
        one_sample = dataclasses.replace(ex1_trajectory, t=ex1_trajectory.t[:1])
        with pytest.raises(ValueError, match="at least two samples"):
            fc.monitor(one_sample, ex1.scenario.controller, ex1.scenario.bounds)

    def test_chain_rule_consistency_shrinks_quadratically(self, ex1):
        # du/dt should equal gain(theta) * dtheta/dt up to discretization error
        stages = (
            fc.StageControllerParams(v_bar=4.5, c=1.0, funnel=fc.FunnelParams(p=1.0, q=0.05, mu=0.9)),
            fc.StageControllerParams(v_bar=8.0, funnel=fc.FunnelParams(p=2.5, q=0.05, mu=1.0)),
        )
        cfg = fc.CascadeConfig(n=2, stages=stages)

        def worst_deviation(step):
            sc = dataclasses.replace(ex1.scenario, controller=cfg, horizon=2.0, step=step)
            traj = fc.simulate(sc)
            ud = (traj.u[2:, 0] - traj.u[:-2, 0]) / (2.0 * step)
            td = (traj.theta[2:, 0] - traj.theta[:-2, 0]) / (2.0 * step)
            phi = np.array([fc.stage_gain(t, stages[0]) for t in traj.theta[1:-1, 0]])
            return float(np.max(np.abs(ud - phi * td)))

        d_coarse = worst_deviation(1e-3)
        d_fine = worst_deviation(5e-4)
        assert d_coarse < 5e-3
        assert d_coarse / d_fine > 3.0


class TestCsv:
    def test_trajectory_csv_round_trip(self, ex1, tmp_path):
        traj = fc.simulate(ex1.scenario.with_overrides(horizon=0.05))
        path = tmp_path / "trajectory.csv"
        fc.write_trajectory_csv(traj, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,xi_1,xi_2,z_1,z_2,theta_1,theta_2,u_1,u_2,psi_1,psi_2,y_d"
        assert len(lines) == 1 + traj.samples
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(data[:, 0], traj.t)
        assert np.array_equal(data[:, 1:3], traj.xi)
        assert np.array_equal(data[:, 3:5], traj.z)
        assert np.array_equal(data[:, 5:7], traj.theta)
        assert np.array_equal(data[:, 7:9], traj.u)
        assert np.array_equal(data[:, 9:11], traj.psi)
        assert np.array_equal(data[:, 11], traj.y_d)

    def test_trajectory_csv_bytes_match_per_value_writer(self, ex1_trajectory, tmp_path):
        # Two full write blocks and a one-row block; the first row carries
        # special values.
        k = slice(0, 2 * _CSV_BLOCK_ROWS + 1)
        fields = {f: np.array(getattr(ex1_trajectory, f)[k]) for f in ("t", "xi", "z", "theta", "u", "psi", "y_d")}
        fields["xi"][0] = (-0.0, np.inf)
        fields["u"][0] = (np.nan, -np.inf)
        fields["y_d"][0] = 5e-324
        traj = fc.Trajectory(events=(), **fields)
        lines = ["t,xi_1,xi_2,z_1,z_2,theta_1,theta_2,u_1,u_2,psi_1,psi_2,y_d\n"]
        for i in range(traj.samples):
            row = [traj.t[i], *traj.xi[i], *traj.z[i], *traj.theta[i], *traj.u[i], *traj.psi[i], traj.y_d[i]]
            lines.append(",".join(f"{v:.17g}" for v in row) + "\n")
        path = tmp_path / "trajectory.csv"
        fc.write_trajectory_csv(traj, path)
        assert path.read_bytes() == "".join(lines).encode("utf-8")

    @pytest.mark.parametrize(
        "example, digest",
        [
            ("ex1", "8cde7665fb1f7b8ffdf182b81abec3b5ceda5a160607c3abb2d6ef30b8eece98"),
            ("ex2", "74e997217b197e6372b34b9f8cbfe1de872ee3e95ed34851bdd891f32bd0ea3e"),
        ],
    )
    def test_full_horizon_trajectory_bytes_are_pinned(self, example, digest, request, tmp_path):
        path = tmp_path / "trajectory.csv"
        fc.write_trajectory_csv(request.getfixturevalue(f"{example}_trajectory"), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_events_csv(self, ex1, tmp_path):
        sc = dataclasses.replace(ex1.scenario, x0=(2.0, 1.0), horizon=0.01)
        traj = fc.simulate(sc, permissive=True)
        path = tmp_path / "events.csv"
        fc.write_events_csv(traj.events, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,kind,stage,value"
        assert len(lines) == 1 + len(traj.events)
        cells = lines[1].split(",")
        assert cells[1] == "trivial_violation"
        assert float(cells[3]) == traj.events[0].value

    def test_monitor_csv(self, ex1, ex1_trajectory, tmp_path):
        report = fc.monitor(ex1_trajectory, ex1.scenario.controller, ex1.scenario.bounds)
        path = tmp_path / "monitor.csv"
        fc.write_monitor_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "family,stage,min_margin,worst_t,violations"
        assert len(lines) == 1 + 4 * 2
        for line in lines[1:]:
            assert line.split(",")[4] == "0"

    def test_events_csv_bytes_match_per_value_writer(self, tmp_path):
        events = (
            fc.Event(t=0.0, kind="trivial_violation", stage=1, value=math.nan),
            fc.Event(t=5e-324, kind="clamp", stage=2, value=-0.0),
            fc.Event(t=1.0 / 3.0, kind="violation_error_envelope", stage=1, value=math.inf),
            fc.Event(t=19.999, kind="clamp", stage=2, value=-math.inf),
        )
        path = tmp_path / "events.csv"
        fc.write_events_csv(events, path)
        lines = ["t,kind,stage,value\n"] + [f"{e.t:.17g},{e.kind},{e.stage},{e.value:.17g}\n" for e in events]
        assert path.read_bytes() == "".join(lines).encode("utf-8")
        fc.write_events_csv((), path)
        assert path.read_bytes() == b"t,kind,stage,value\n"

    def test_monitor_csv_bytes_match_per_value_writer(self, tmp_path):
        report = fc.MonitorReport(
            families=(
                fc.BoundFamilyReport("error_envelope", (math.nan, -0.0), (1, 0), (0.25, 5e-324)),
                fc.BoundFamilyReport("input_cap", (math.inf, -math.inf), (0, 7), (math.nan, 1.0 / 3.0)),
            ),
            events=(),
        )
        path = tmp_path / "monitor.csv"
        fc.write_monitor_csv(report, path)
        lines = ["family,stage,min_margin,worst_t,violations\n"]
        for fam in report.families:
            for i in range(len(fam.min_margin)):
                lines.append(f"{fam.name},{i + 1},{fam.min_margin[i]:.17g},{fam.worst_at[i]:.17g},{fam.violations[i]}\n")
        assert path.read_bytes() == "".join(lines).encode("utf-8")
