"""Closed-loop integration of a cascaded plant under the saturating cascade,
with runtime monitors for every analytical bound the design promises.

Integration is classic 4th-order Runge-Kutta with the controller
re-evaluated inside every sub-stage; the loop is deterministic.  Sub-steps
scale with the recording step, so halving the step shrinks the final-state
error by roughly 2^4.

Near a settled funnel the loop is stiff: stage i's local error-feedback gain
is about g_hi_i * |gain_lo_i| / psi_i(t), reaching 1.6e4/s at psi_i = q_i
for the built-in pendulum example, while explicit RK4 is only stable for
|gain * h| below about 2.79.  Scenarios therefore carry ``substeps``, the
number of equal RK4 sub-steps per recorded step once the envelopes have
settled; the recording grid stays comparable across runs while the
integration step stays inside the stability region.  While an envelope is
still wide the loop is less stiff, so each recording interval
[t_k, t_{k+1}] is sized on its own:

    m_k = ceil(substeps * max_i q_i / psi_i(t_{k+1})),    h_sub = step / m_k.

psi only decreases, so psi_i(t_{k+1}) is the interval's smallest envelope and
every stage's stiffness per sub-step stays at or below what ``substeps``
gives it once settled.  m_k never exceeds ``substeps`` (q_i <= psi_i),
never decreases, and equals ``substeps`` once some psi_i is within a factor
substeps / (substeps - 1) of its q_i; substeps = 1 integrates every interval
in one step.  The bundled example configs give substeps = 10: over 20 s the
pendulum takes 683,992 right-hand-side evaluations instead of 800,000 and
the sine chain 702,316, with final states bit-identical to 10 sub-steps in
every interval.  Short runs gain most: 100 seeded 0.2 s sine-chain runs
with start offsets (0.5, 0.1) average about 1.2 sub-steps per interval.  A
config that omits ``substeps`` gets the fewest that keep step/substeps times
the largest settled gain at 2.5 or below (``config._stable_substeps``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .controller import THETA_EPS, CascadeConfig, cascade
from .feasibility import BoundsSpec, _write_csv, check_feasibility
from .plant import BoundFamilyReport, DynamicsError, ReferenceSpec, SystemSpec, _score_margins, eval_dynamics

__all__ = [
    "Scenario",
    "Event",
    "Trajectory",
    "TrivialConditionError",
    "simulate",
    "MonitorReport",
    "monitor",
    "write_trajectory_csv",
    "write_events_csv",
    "write_monitor_csv",
]


# Per-stage trajectory columns, in table and CSV order: each is n wide and
# sits between the t column and the y_d column.
_STAGE_COLUMNS = ("xi", "z", "theta", "u", "psi")


class TrivialConditionError(RuntimeError):
    """The initial errors are not strictly inside their envelopes (|z_i(0)| >= p_i)."""


@dataclass(frozen=True)
class Scenario:
    """One closed-loop run: plant, reference, cascade, optional certification
    bounds (needed by monitors), start state, horizon, and the recording step
    (seconds).  ``substeps`` is the number of equal RK4 sub-steps per
    recorded step once the envelopes have settled; while they are wider,
    each recorded step takes ceil(substeps * max_i q_i / psi_i) of them, psi_i
    taken at the step's end (see the module notes on stiffness)."""

    system: SystemSpec
    reference: ReferenceSpec
    controller: CascadeConfig
    bounds: BoundsSpec | None
    x0: tuple[float, ...]
    horizon: float
    step: float = 1e-3
    substeps: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "x0", tuple(float(v) for v in self.x0))
        object.__setattr__(self, "horizon", float(self.horizon))
        object.__setattr__(self, "step", float(self.step))
        n = self.system.n
        if self.controller.n != n:
            raise ValueError(f"controller has {self.controller.n} stages, system order is {n}")
        if self.bounds is not None and self.bounds.n != n:
            raise ValueError(f"bounds cover {self.bounds.n} stages, system order is {n}")
        if len(self.x0) != n:
            raise ValueError(f"x0 has length {len(self.x0)}, expected {n}")
        if not all(math.isfinite(v) for v in self.x0):
            raise ValueError("x0 entries must be finite")
        if not (self.step > 0.0 and math.isfinite(self.step)):
            raise ValueError(f"step must be finite and > 0, got {self.step}")
        # A finite horizon / step also makes the horizon finite.
        if not (self.horizon >= self.step and math.isfinite(self.horizon / self.step)):
            raise ValueError(f"horizon must be >= step with a finite horizon / step, got {self.horizon} / {self.step}")
        # The sub-step count enters float arithmetic, so it must convert to a float.
        if not (isinstance(self.substeps, int) and not isinstance(self.substeps, bool) and 1 <= self.substeps <= sys.float_info.max):
            raise ValueError(f"substeps must be an integer from 1 to {sys.float_info.max:g}, got {self.substeps}")

    def with_overrides(self, horizon: float | None = None, step: float | None = None) -> "Scenario":
        kwargs = {}
        if horizon is not None:
            kwargs["horizon"] = float(horizon)
        if step is not None:
            kwargs["step"] = float(step)
            # A coarser step keeps the sub-step no longer than it was, so the
            # stiffness ratio stays where the config put it; the count never
            # shrinks.  The tolerance keeps an exact multiple from gaining one.
            # A non-finite step is left for __post_init__ to refuse.
            ratio = kwargs["step"] * self.substeps / self.step
            if math.isfinite(ratio):
                kwargs["substeps"] = max(self.substeps, math.ceil(ratio * (1.0 - 1e-9)))
        return replace(self, **kwargs) if kwargs else self


@dataclass(frozen=True)
class Event:
    t: float
    kind: str
    stage: int
    value: float


@dataclass(frozen=True)
class Trajectory:
    """Recorded closed-loop run, one row per sample time.

    xi, z, theta, u, psi all have shape (samples, n); theta is the clamped
    value actually fed to the control law; u column i is stage i's output, the
    last column being the plant input.  Events carry clamp occurrences at
    sample times and, in permissive runs, the start-condition violations.
    """

    t: np.ndarray
    xi: np.ndarray
    z: np.ndarray
    theta: np.ndarray
    u: np.ndarray
    psi: np.ndarray
    y_d: np.ndarray
    events: tuple[Event, ...]

    @property
    def n(self) -> int:
        return self.xi.shape[1]

    @property
    def samples(self) -> int:
        return self.t.size


def _control_path(config: CascadeConfig, reference):
    """Build a fast plant-input evaluator for the RK4 inner loop.

    Performs exactly the arithmetic of cascade(...).u[-1], with per-stage
    constants hoisted out of the loop; agreement is bit-exact and covered by
    a regression test.
    """
    y_d = reference.y_d
    consts = [
        (
            s.funnel.p - s.funnel.q,
            s.funnel.q,
            s.funnel.mu,
            math.pi / (2.0 * s.c),
            2.0 * s.v_bar / math.pi,
        )
        for s in config.stages
    ]
    limit = 1.0 - THETA_EPS  # same guard band as clamp_theta
    half_pi = 0.5 * math.pi
    tan = math.tan
    atan = math.atan
    exp = math.exp

    def u_last(state, t: float) -> float:
        prev = y_d(t)
        for j, (pq, q, mu, a, b) in enumerate(consts):
            theta = (state[j] - prev) / (pq * exp(-mu * t) + q)
            if theta > limit:
                theta = limit
            elif theta < -limit:
                theta = -limit
            prev = -b * atan(a * tan(half_pi * theta))
        return prev

    return u_last


def simulate(scenario: Scenario, permissive: bool = False) -> Trajectory:
    """Integrate the closed loop and record states, errors, and stage outputs.

    Each sample's z, theta, u and psi come from one cascade evaluation, psi_i
    being the envelope value that z_i was divided by.  The start must satisfy
    |z_i(0)| < psi_i(0) for every stage; it is read from recorded sample 0.
    Violations raise TrivialConditionError unless ``permissive`` is set, in
    which case they are logged and the clamped controller runs anyway.  A
    non-finite state aborts with DynamicsError at the failure time.  Identical
    scenarios produce bit-identical trajectories.
    """
    sys_ = scenario.system
    ref = scenario.reference
    cfg = scenario.controller
    n = sys_.n
    h = scenario.step
    steps = int(round(scenario.horizon / h))  # >= 1, since horizon >= step
    samples = steps + 1
    m = scenario.substeps
    # (p_i - q_i, q_i, mu_i) of each envelope: psi_i(t) = (p_i - q_i) *
    # exp(-mu_i * t) + q_i, bit for bit as funnel_value computes it.
    envelopes = [(st.funnel.p - st.funnel.q, st.funnel.q, st.funnel.mu) for st in cfg.stages]

    table = np.empty((samples, len(_STAGE_COLUMNS) * n + 2))
    events: list[Event] = []

    u_last = _control_path(cfg, ref)

    def rhs(state: list[float], t: float) -> list[float]:
        return eval_dynamics(sys_, state, u_last(state, t), t)

    state = list(scenario.x0)
    range_n = range(n)
    for k in range(samples):
        t_k = k * h
        dec = cascade(state, t_k, cfg, ref)
        if k == 0:
            for i in range_n:
                if abs(dec.z[i]) >= dec.psi[i]:
                    if not permissive:
                        raise TrivialConditionError(
                            f"|z_{i + 1}(0)| = {abs(dec.z[i]):.6g} is not strictly inside "
                            f"psi_{i + 1}(0) = {dec.psi[i]:.6g}; pass permissive=True to run clamped"
                        )
                    events.append(Event(t=0.0, kind="trivial_violation", stage=i + 1, value=dec.z[i]))
        for i in range_n:
            if dec.saturated[i]:
                events.append(Event(t=t_k, kind="saturation", stage=i + 1, value=dec.z[i] / dec.psi[i]))
        table[k] = (t_k, *state, *dec.z, *dec.theta, *dec.u, *dec.psi, ref.y_d(t_k))
        if k == steps:
            break

        # Classic RK4 over the recording interval, in m_k sub-steps sized for
        # its smallest envelopes, psi_i(t_{k+1}) (see the module notes).
        t_next = (k + 1) * h
        m_k = math.ceil(m * max(q / (pq * math.exp(-mu * t_next) + q) for pq, q, mu in envelopes))
        h_sub = h / m_k
        for s in range(m_k):
            t_s = t_k + s * h_sub
            k1 = rhs(state, t_s)
            s2 = [state[j] + 0.5 * h_sub * k1[j] for j in range_n]
            k2 = rhs(s2, t_s + 0.5 * h_sub)
            s3 = [state[j] + 0.5 * h_sub * k2[j] for j in range_n]
            k3 = rhs(s3, t_s + 0.5 * h_sub)
            s4 = [state[j] + h_sub * k3[j] for j in range_n]
            k4 = rhs(s4, t_s + h_sub)
            state = [
                state[j] + (h_sub / 6.0) * (k1[j] + 2.0 * k2[j] + 2.0 * k3[j] + k4[j])
                for j in range_n
            ]
            for j in range_n:
                if not math.isfinite(state[j]):
                    raise DynamicsError(j + 1, t_s + h_sub, state[j])

    stage_cols = np.split(table[:, 1:-1], len(_STAGE_COLUMNS), axis=1)
    return Trajectory(
        t=table[:, 0], **dict(zip(_STAGE_COLUMNS, stage_cols)), y_d=table[:, -1], events=tuple(events)
    )


@dataclass(frozen=True)
class MonitorReport:
    families: tuple[BoundFamilyReport, ...]
    events: tuple[Event, ...]

    @property
    def total_violations(self) -> int:
        return sum(sum(f.violations) for f in self.families)

    def __str__(self) -> str:
        lines = []
        for f in self.families:
            for i, (m, v) in enumerate(zip(f.min_margin, f.violations)):
                lines.append(f"{f.name} stage {i + 1}: min_margin={m:.6g} violations={v}")
        lines.append(f"total violations: {self.total_violations}")
        return "\n".join(lines)


def monitor(trajectory: Trajectory, config: CascadeConfig, bounds: BoundsSpec) -> MonitorReport:
    """Check the four guaranteed bound families at every recorded sample.

    error_envelope   |z_i| < psi_i
    input_cap        |u_i| < v_bar_i
    state_envelope   |xi_i| < psi_i + v_bar_{i-1}  (v_bar_0 is the reference bound)
    output_slew      |du_i/dt| <= r_i, the certified slew bound, with du/dt
                     estimated by central differences of the recorded outputs
                     (one-sided at both ends), so its margin depends on the step

    psi is the trajectory's own record, the envelope values the cascade
    divided by.  Each family is one (name, bound, observed) row, scored on
    margin = bound - |observed|, so negative (or NaN) means violated.  Returns
    per-family worst margins, violation counts, and one event per violating
    sample.
    """
    n = trajectory.n
    if config.n != n or bounds.n != n:
        raise ValueError(f"trajectory has {n} stages, config has {config.n}, bounds {bounds.n}")
    if trajectory.samples < 2:
        raise ValueError("trajectory must hold at least two samples")
    t = trajectory.t
    h = float(t[1] - t[0])
    caps = np.array([bounds.v0_bar, *(s.v_bar for s in config.stages)])  # v_bar_0..n
    # Certified slew bounds come from the same recursion as the feasibility check.
    r = np.array([s.r for s in check_feasibility(config, bounds, [0.0] * n).stages])

    families = []
    events: list[Event] = []
    for name, bound, observed in (
        ("error_envelope", trajectory.psi, trajectory.z),
        ("input_cap", caps[1:], trajectory.u),
        ("state_envelope", trajectory.psi + caps[:-1], trajectory.xi),
        ("output_slew", r, np.gradient(trajectory.u, h, axis=0)),
    ):
        margins = bound - np.abs(observed)
        min_margin, violations, rows, fails = _score_margins(margins)
        families.append(BoundFamilyReport(name, min_margin, violations, tuple(t[list(rows)].tolist())))
        events.extend(
            Event(t=float(t[k]), kind=f"violation_{name}", stage=i + 1, value=float(margins[k, i]))
            for i, col in enumerate(fails.T)
            for k in np.flatnonzero(col)
        )
    return MonitorReport(families=tuple(families), events=tuple(events))


# Rows of the trajectory table formatted per write.
_CSV_BLOCK_ROWS = 1024


def write_trajectory_csv(trajectory: Trajectory, path) -> None:
    """One row per sample: t, xi_1..n, z_1..n, theta_1..n, u_1..n, psi_1..n, y_d."""
    n = trajectory.n
    cols = ["t", *(f"{name}_{i + 1}" for name in _STAGE_COLUMNS for i in range(n)), "y_d"]
    blocks = (
        trajectory.t[:, None],
        *(getattr(trajectory, name) for name in _STAGE_COLUMNS),
        trajectory.y_d[:, None],
    )
    # One block of rows at a time, so the whole table is never built.
    starts = range(0, trajectory.samples, _CSV_BLOCK_ROWS)
    rows = (map(tuple, np.hstack([b[k : k + _CSV_BLOCK_ROWS] for b in blocks]).tolist()) for k in starts)
    _write_csv(path, ",".join(cols), ",".join(["%.17g"] * len(cols)) + "\n", rows)


def write_events_csv(events: Sequence[Event], path) -> None:
    _write_csv(path, "t,kind,stage,value", "%.17g,%s,%s,%.17g\n", [[(e.t, e.kind, e.stage, e.value) for e in events]])


def write_monitor_csv(report: MonitorReport, path) -> None:
    rows = ([(f.name, i, *r) for i, r in enumerate(zip(f.min_margin, f.worst_at, f.violations), 1)] for f in report.families)
    _write_csv(path, "family,stage,min_margin,worst_t,violations", "%s,%s,%.17g,%.17g,%s\n", rows)
