import dataclasses
import math

import numpy as np
import pytest

import funnelcap as fc
from funnelcap.simulator import _CSV_BLOCK_ROWS, _control_path

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


def rhs_calls_per_interval(sc, monkeypatch):
    """Run sc with eval_dynamics counted between consecutive samples."""
    counts = []

    def counted_cascade(*args):
        counts.append(0)
        return fc.cascade(*args)

    def counted_dynamics(*args):
        counts[-1] += 1
        return fc.eval_dynamics(*args)

    monkeypatch.setattr("funnelcap.simulator.cascade", counted_cascade)
    monkeypatch.setattr("funnelcap.simulator.eval_dynamics", counted_dynamics)
    traj = fc.simulate(sc)
    assert counts[-1] == 0  # the last sample closes the run
    return traj, counts[:-1]


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

    def test_one_cascade_evaluation_per_sample(self, ex1, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args[1])
            return fc.cascade(*args)

        monkeypatch.setattr("funnelcap.simulator.cascade", counted)
        traj = fc.simulate(ex1.scenario.with_overrides(horizon=0.05))
        assert len(calls) == traj.samples
        assert calls == traj.t.tolist()

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
