"""Closed-loop integration of a cascaded plant under the saturating cascade,
with runtime monitors for every analytical bound the design promises.

Integration is classic 4th-order Runge-Kutta with the controller
re-evaluated inside every sub-stage; the loop is deterministic.  Sub-steps
scale with the recording step, so halving the step shrinks the final-state
error by roughly 2^4.

One generated kernel, built and compiled in ``_rk4``, runs the whole sample
loop: every row is ``cascade``'s z, theta, u and psi bit for bit, and each
interval's sub-steps are those of ``eval_dynamics`` driven by
``cascade(...).u[-1]`` inside classic RK4, term for term.

Near a settled funnel the loop is stiff: stage i's local error-feedback gain
is about g_hi_i * |phi_lo_i| / psi_i(t), phi_lo_i being ``gain_range``'s
steepest stage gain.  It reaches 1.6e4/s at psi_i = q_i for the built-in
pendulum example, while explicit RK4 is only stable for |gain * h| below
about 2.79.  The sub-step rule that keeps it there is stated here, once;
the ``sample`` text of ``_rk4``'s kernel computes each interval's m_k:

- ``Scenario.substeps`` is the number of equal RK4 sub-steps per recorded
  step once the envelopes have settled.  Wider envelopes are less stiff, so
  each recording interval [t_k, t_{k+1}] is sized on its own:

      m_k = max(1, ceil(substeps * max_i q_i / psi_i(t_{k+1}))),    h_sub = step / m_k.

  psi only decreases, so psi_i(t_{k+1}) is the interval's smallest envelope
  and every stage's stiffness per sub-step stays at or below what
  ``substeps`` gives it once settled.  m_k never exceeds ``substeps``
  (q_i <= psi_i), never decreases, and is at least 1 even when every
  q_i / psi_i underflows to 0 (extra sub-steps never weaken the bound), so
  substeps = 1 integrates every interval in one step.  The count never
  reads the certification bounds, so a generous g_hi on one stage cannot
  thin out the sub-steps another stage needs.
- A config that omits ``substeps`` gets ``_stable_substeps``: the fewest that
  keep step / substeps times the largest settled gain,
  max_i g_hi_i * |phi_lo_i| / q_i, at _RK4_RATIO_LIMIT or below.  A count
  that cannot be derived (some stage's ratio inf or NaN) or that exceeds
  _MAX_DERIVED_SUBSTEPS is refused by one ValueError, which the config
  reader anchors at $.sim.substeps; a given count is taken as given.  The
  bundled configs give the derived counts, 7 (pendulum) and 5 (sine chain).
- ``Scenario.with_overrides`` raises the count for a coarser recording step,
  so the settled sub-step is no longer than the config made it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .certificate import BoundsSpec, _write_csv, check_feasibility
from .controller import CascadeConfig, gain_range
from .plant import BoundFamilyReport, ReferenceSpec, SystemSpec, _score_margins, zero_signal

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

# Classic RK4 is stable on the negative real axis up to |gain * h| of about
# 2.785; a derived count keeps the settled ratio below this, with some room
# to spare.
_RK4_RATIO_LIMIT = 2.5

# The most sub-steps per recorded step that may be derived: at about 1.5 us
# per right-hand side (the bundled pendulum's 20 s run in process, 2-vCPU
# x86 host, CPython 3.11), 1e4 already make a 20 s run at 1 ms steps take
# about 20 minutes.
_MAX_DERIVED_SUBSTEPS = 10_000


class TrivialConditionError(RuntimeError):
    """The initial errors are not strictly inside their envelopes (|z_i(0)| >= p_i)."""


@dataclass(frozen=True)
class Scenario:
    """One closed-loop run: plant, reference, cascade, optional certification
    bounds (needed by monitors), start state, horizon, and the recording step
    (seconds).  ``substeps`` is the number of equal RK4 sub-steps per
    recorded step once the envelopes have settled; the module notes give the
    sub-step rule."""

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


def _stable_substeps(controller: CascadeConfig, bounds: BoundsSpec, step: float) -> int:
    """Smallest m >= 1 with max_i g_hi_i * |phi_lo_i| / q_i * step / m <= _RK4_RATIO_LIMIT.

    Raises ValueError when no count up to _MAX_DERIVED_SUBSTEPS does: a
    stage's ratio that is inf or NaN needs an infinite count.
    """
    ratios = [g_hi * abs(gain_range(s)[0]) / s.funnel.q for g_hi, s in zip(bounds.g_hi, controller.stages)]
    needed = step * max(ratios) / _RK4_RATIO_LIMIT if all(map(math.isfinite, ratios)) else math.inf
    if not needed <= _MAX_DERIVED_SUBSTEPS:
        raise ValueError(
            f"the settled stiffness ratio needs {needed:.6g} sub-steps per recorded step, "
            f"more than {_MAX_DERIVED_SUBSTEPS}; set substeps explicitly"
        )
    return max(1, math.ceil(needed))


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


def _kernel(config: CascadeConfig, reference, system: SystemSpec) -> dict:
    """``_rk4._kernel``, imported on first use, so that a process that never
    simulates (``check``, ``region``) neither compiles nor holds the kernel
    generator."""
    from ._rk4 import _kernel

    return _kernel(config, reference, system)


def _control_path(config: CascadeConfig, reference):
    """The plant input u(state, t), read as u_n off the kernel's ``record``
    row: cascade(...).u[-1] bit for bit, as a regression test holds it."""
    zeros = (zero_signal,) * config.n  # record reads no plant oracle
    record = _kernel(config, reference, SystemSpec(config.n, zeros, zeros, zeros))["record"]
    return lambda state, t: record(state, t, [])[4 * config.n]


def simulate(scenario: Scenario, permissive: bool = False) -> Trajectory:
    """Integrate the closed loop and record states, errors, and stage outputs.

    The kernel records each sample with the cascade's arithmetic, psi_i
    being the envelope value that z_i was divided by, and reports each clamp
    with its raw z_i / psi_i.  The start must satisfy |z_i(0)| < psi_i(0)
    for every stage; it is read from recorded sample 0 before integrating.
    Violations raise TrivialConditionError unless ``permissive`` is set, in
    which case they are logged and the clamped controller runs anyway.  A
    non-finite state aborts with DynamicsError at the failure time.  Identical
    scenarios produce bit-identical trajectories.

    Samples are recorded every ``step`` from t = 0 up to the last one at or
    before the horizon; a ratio horizon / step within a relative 1e-9 below
    a whole number counts as that number (2.0 / 1e-5 is 199999.99999999997).
    """
    # >= 1, since horizon >= step; near the float maximum, min() leaves numpy
    # to refuse the table as too large.
    steps = math.floor(min(scenario.horizon / scenario.step * (1.0 + 1e-9), sys.float_info.max))
    table = np.empty((steps + 1, len(_STAGE_COLUMNS) * scenario.system.n + 2))
    columns = dict(zip(_STAGE_COLUMNS, np.split(table[:, 1:-1], len(_STAGE_COLUMNS), axis=1)))
    kernel = _kernel(scenario.controller, scenario.reference, scenario.system)

    sats: list[tuple[float, int, float]] = []
    table[0] = kernel["record"](scenario.x0, 0.0, sats)
    events: list[Event] = []
    for i, (z, psi) in enumerate(zip(columns["z"][0].tolist(), columns["psi"][0].tolist()), 1):
        if abs(z) >= psi:
            if not permissive:
                raise TrivialConditionError(
                    f"|z_{i}(0)| = {abs(z):.6g} is not strictly inside "
                    f"psi_{i}(0) = {psi:.6g}; pass permissive=True to run clamped"
                )
            events.append(Event(t=0.0, kind="trivial_violation", stage=i, value=z))
    kernel["run"](table, scenario.x0, steps, scenario.step, scenario.substeps, sats)
    events.extend(Event(t=t, kind="saturation", stage=i, value=v) for t, i, v in sats)

    return Trajectory(t=table[:, 0], **columns, y_d=table[:, -1], events=tuple(events))


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
