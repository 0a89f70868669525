"""Cascaded (pure-feedback) plant models, references, the two parametric
families, and the scoring of sampled bounds: the spot check of declared
constants here, and the simulator's monitor, both report their evidence as
``BoundFamilyReport`` families scored by one rule, ``_score_margins``.

A plant of order n is described by per-stage scalar oracles:

    d(xi_i)/dt = f_i(xi_1..xi_i) + g_i(xi_1..xi_i) * xi_{i+1} + d_i(t)   (i < n)
    d(xi_n)/dt = f_n(xi_1..xi_n) + g_n(xi_1..xi_n) * u       + d_n(t)

with f_i vanishing at the origin and g_i positive on the operating domain.
Oracles are plain callables, so user systems plug in without subclassing.
The paper's two examples are the bundled configs (``configs/*.json``), which
set the parameters of the pendulum and sine-chain families below;
``config.builtin_system`` loads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "SystemSpec",
    "ReferenceSpec",
    "DynamicsError",
    "eval_dynamics",
    "sine_signal",
    "zero_signal",
    "sine_reference",
    "pendulum_system",
    "sine_chain_system",
    "BoundFamilyReport",
    "spot_check_bounds",
]

Oracle = Callable[[Sequence[float]], float]
TimeSignal = Callable[[float], float]


@dataclass(frozen=True)
class SystemSpec:
    """Order n plus per-stage oracles f_i, g_i (functions of the first i states)
    and disturbance signals d_i (functions of time only)."""

    n: int
    f: tuple[Oracle, ...]
    g: tuple[Oracle, ...]
    d: tuple[TimeSignal, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "f", tuple(self.f))
        object.__setattr__(self, "g", tuple(self.g))
        object.__setattr__(self, "d", tuple(self.d))
        if self.n < 1:
            raise ValueError(f"system order n must be >= 1, got {self.n}")
        for name, seq in (("f", self.f), ("g", self.g), ("d", self.d)):
            if len(seq) != self.n:
                raise ValueError(f"expected {self.n} {name}-oracles, got {len(seq)}")


@dataclass(frozen=True)
class ReferenceSpec:
    """Desired output y_d and its time derivative, both continuous and bounded."""

    y_d: TimeSignal
    y_d_rate: TimeSignal


class DynamicsError(RuntimeError):
    """A dynamics evaluation produced a non-finite value (closed-loop blowup)."""

    def __init__(self, stage: int, t: float, value: float):
        super().__init__(f"non-finite dynamics at stage {stage}, t={t}: {value}")
        self.stage = stage
        self.t = t
        self.value = value


def eval_dynamics(system: SystemSpec, state: Sequence[float], control: float, t: float) -> list[float]:
    """State derivative of the cascade driven by ``control`` at the last stage.

    Raises DynamicsError (carrying the 1-based stage index and time) if any
    component comes out non-finite.
    """
    if len(state) != system.n:
        raise ValueError(f"state has length {len(state)}, expected {system.n}")
    control = float(control)
    if not math.isfinite(control):
        raise ValueError(f"control input must be finite, got {control}")
    n = system.n
    out = []
    for i in range(n):
        prefix = state[: i + 1]
        drive = state[i + 1] if i < n - 1 else control
        val = system.f[i](prefix) + system.g[i](prefix) * drive + system.d[i](t)
        if not math.isfinite(val):
            raise DynamicsError(i + 1, t, val)
        out.append(val)
    return out


def sine_signal(amp: float, freq: float) -> TimeSignal:
    """Deterministic sinusoid amp*sin(freq*t), used for disturbances."""
    amp = float(amp)
    freq = float(freq)
    return lambda t: amp * math.sin(freq * t)


def zero_signal(t: float) -> float:
    return 0.0


def sine_reference(amp: float, freq: float) -> ReferenceSpec:
    """Reference y_d = amp*sin(freq*t) with its exact derivative."""
    amp = float(amp)
    freq = float(freq)
    return ReferenceSpec(y_d=sine_signal(amp, freq), y_d_rate=lambda t: amp * freq * math.cos(freq * t))


def pendulum_system(
    m: float = 0.01,
    l: float = 1.0,
    k: float = 0.01,
    gravity: float = 9.8,
    d: tuple[TimeSignal, TimeSignal] = (zero_signal, zero_signal),
) -> SystemSpec:
    """Torque-driven pendulum with viscous friction and a velocity-dependent load.

    angle rate     = angular velocity
    velocity rate  = -(gravity/l)*sin(angle) - (k/m)*velocity + sin(velocity)
                     + u/(m*l^2) + d_2(t)
    """
    if m <= 0 or l <= 0:
        raise ValueError("pendulum mass and length must be > 0")
    a_g = gravity / l
    a_k = k / m
    gain = 1.0 / (m * l * l)
    return SystemSpec(
        n=2,
        f=(lambda xs: 0.0, lambda xs: -a_g * math.sin(xs[0]) - a_k * xs[1] + math.sin(xs[1])),
        g=(lambda xs: 1.0, lambda xs: gain),
        d=d,
    )


def sine_chain_system(
    a: tuple[float, float] = (0.5, 1.0),
    b2: float = 1.0,
    gains: tuple[float, float] = (5.0, 7.0),
    d: tuple[TimeSignal, TimeSignal] = (zero_signal, zero_signal),
) -> SystemSpec:
    """Two-stage chain with sinusoidal drift and constant control coefficients.

    stage-1 rate = a_1*sin(xi_1) + gains_1*xi_2 + d_1(t)
    stage-2 rate = a_2*sin(xi_1) + b2*xi_2 + gains_2*u + d_2(t)
    """
    a1, a2 = float(a[0]), float(a[1])
    g1, g2 = float(gains[0]), float(gains[1])
    b2 = float(b2)
    return SystemSpec(
        n=2,
        f=(lambda xs: a1 * math.sin(xs[0]), lambda xs: a2 * math.sin(xs[0]) + b2 * xs[1]),
        g=(lambda xs: g1, lambda xs: g2),
        d=d,
    )


def _score_margins(margins: np.ndarray) -> tuple[tuple, tuple, tuple, np.ndarray]:
    """The one scoring rule for a (samples, n) array of sampled margins:
    per column the smallest margin (np.argmin takes the first NaN, else the
    first of tied minima), the failing count and the smallest margin's row,
    then the failing mask.  Only a margin >= 0 passes, so NaN fails and -0.0
    passes."""
    fails = ~(margins >= 0.0)
    rows = np.argmin(margins, axis=0)
    lowest = margins[rows, np.arange(margins.shape[1])]
    # counted per column: count_nonzero(axis=0) is ~6x slower on a narrow mask
    return tuple(lowest.tolist()), tuple(int(np.count_nonzero(c)) for c in fails.T), tuple(rows.tolist()), fails


@dataclass(frozen=True)
class BoundFamilyReport:
    """Worst margins for one family of sampled bounds, per stage.

    min_margin[i] is the minimum over samples; violations[i] counts samples
    with a negative or NaN margin; worst_at[i] is where the minimum (or the
    first NaN) occurred: a sample time for the monitor, the stage's state
    prefix for the constants spot check.  All three come from
    ``_score_margins``.
    """

    name: str
    min_margin: tuple[float, ...]
    violations: tuple[int, ...]
    worst_at: tuple


def spot_check_bounds(system: SystemSpec, bounds, box, samples: int = 2000, seed: int = 0) -> tuple[BoundFamilyReport, ...]:
    """Sample the operating box and test the declared growth and gain constants.

    ``box`` lists one finite (lo, hi) interval per state, and ``bounds`` one
    constant per stage.  The check is evidence, not proof: over ``samples``
    uniform draws it returns two families, ``k`` with margins
    k_i*||prefix|| - |f_i(prefix)| and ``g_lo/g_hi`` with
    min(g_i - g_lo_i, g_hi_i - g_i).  The oracles get plain floats, as in
    ``simulate``; ||prefix|| is ``math.hypot``, which overflows only where
    the norm does.  A negative or NaN margin means the constant is
    violated at ``worst_at`` (reported, never silently corrected).
    """
    if bounds.n != system.n:
        raise ValueError(f"bounds cover {bounds.n} stages, system order is {system.n}")
    if len(box) != system.n:
        raise ValueError(f"box must list {system.n} intervals, got {len(box)}")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    lo, hi = np.array(box, dtype=float).T
    with np.errstate(over="ignore", invalid="ignore"):
        span = hi - lo  # NaN or inf for a non-finite box
    if not np.all(np.isfinite(span) & (span >= 0.0)):
        raise ValueError("box intervals must satisfy lo <= hi with a finite hi - lo")
    pts = rng.uniform(lo, hi, size=(samples, system.n)).tolist()

    k_m = np.empty((samples, system.n))
    g_m = np.empty_like(k_m)
    for i in range(system.n):
        k_i, g_lo_i, g_hi_i = bounds.k[i], bounds.g_lo[i], bounds.g_hi[i]
        prefixes = [tuple(row[: i + 1]) for row in pts]
        k_m[:, i] = [k_i * math.hypot(*xs) - abs(system.f[i](xs)) for xs in prefixes]
        g_m[:, i] = [min(g - g_lo_i, g_hi_i - g) for g in map(system.g[i], prefixes)]
    families = []
    for name, margins in (("k", k_m), ("g_lo/g_hi", g_m)):
        min_margin, violations, rows, _ = _score_margins(margins)
        worst_at = tuple(tuple(pts[row][: i + 1]) for i, row in enumerate(rows))
        families.append(BoundFamilyReport(name, min_margin, violations, worst_at))
    return tuple(families)
