"""Saturating error-feedback law and the backstepping cascade built from it.

Every stage maps its normalized error theta = z/psi, confined to (-1, 1),
through the same odd, strictly decreasing, bounded law

    u(theta) = -(2*v_bar/pi) * arctan( (pi/(2*c)) * tan(pi*theta/2) ),

so |u| < v_bar for all admissible theta and the output diverges toward
-/+ v_bar as theta approaches +/-1.  The cascade chains n such stages:
stage 1 tracks the reference, each later stage tracks the previous
stage's output, and the last stage produces the actual plant input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .funnel import FunnelParams, funnel_value

__all__ = [
    "THETA_EPS",
    "StageControllerParams",
    "CascadeConfig",
    "CascadeDecision",
    "clamp_theta",
    "stage_control",
    "stage_gain",
    "gain_range",
    "cascade",
]

# Width of the guard band keeping |theta| < 1 under floating-point overshoot.
THETA_EPS = 1e-9
_THETA_LIMIT = 1.0 - THETA_EPS

_HALF_PI = 0.5 * math.pi


@dataclass(frozen=True)
class StageControllerParams:
    """One stage of the cascade: output bound v_bar, shape constant c, error funnel."""

    v_bar: float
    funnel: FunnelParams
    c: float = _HALF_PI

    def __init__(self, v_bar: float, funnel: FunnelParams, c: float = _HALF_PI) -> None:
        # checked as locals, then stored once, as in FunnelParams
        v_bar, c = float(v_bar), float(c)
        if not (math.isfinite(v_bar) and v_bar > 0.0):
            raise ValueError(f"stage output bound v_bar must be finite and > 0, got {v_bar}")
        if not (math.isfinite(c) and c > 0.0):
            raise ValueError(f"stage shape constant c must be finite and > 0, got {c}")
        if not isinstance(funnel, FunnelParams):
            raise TypeError("funnel must be a FunnelParams")
        object.__setattr__(self, "__dict__", dict(v_bar=v_bar, funnel=funnel, c=c))


@dataclass(frozen=True)
class CascadeConfig:
    """Ordered stages of an n-stage cascade; stage n bounds the actual input."""

    n: int
    stages: tuple[StageControllerParams, ...]

    def __init__(self, n: int, stages: tuple[StageControllerParams, ...]) -> None:
        # checked as locals, then stored once, as in FunnelParams
        stages = tuple(stages)
        if isinstance(n, bool) or not isinstance(n, int):
            raise ValueError(f"system order n must be an int, got {n!r}")
        if n < 1:
            raise ValueError(f"system order n must be >= 1, got {n}")
        if len(stages) != n:
            raise ValueError(f"expected {n} stages, got {len(stages)}")
        object.__setattr__(self, "__dict__", dict(n=n, stages=stages))


@dataclass(frozen=True)
class CascadeDecision:
    """Cascade evaluation at one (state, t): errors z, normalized errors theta
    (after clamping), stage outputs u, the envelope values psi each z_i was
    divided by, and per-stage clamp flags."""

    z: tuple[float, ...]
    theta: tuple[float, ...]
    u: tuple[float, ...]
    psi: tuple[float, ...]
    saturated: tuple[bool, ...]


def clamp_theta(raw: float) -> tuple[float, bool]:
    """Confine a raw error ratio to [-1 + THETA_EPS, 1 - THETA_EPS].

    Returns the (possibly clamped) value and whether clamping occurred.  In
    exact arithmetic a feasible closed loop keeps |theta| < 1 on its own; the
    clamp only absorbs numerical overshoot from discrete integration.
    """
    if raw > _THETA_LIMIT:
        return _THETA_LIMIT, True
    if raw < -_THETA_LIMIT:
        return -_THETA_LIMIT, True
    return raw, False


def _check_theta(theta: float) -> float:
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    if abs(theta) >= 1.0:
        raise ValueError(f"theta must lie in (-1, 1), got {theta}")
    return theta


def stage_control(theta: float, params: StageControllerParams) -> float:
    """Stage output u(theta) = -(2*v_bar/pi)*arctan((pi/(2*c))*tan(pi*theta/2)).

    Odd, strictly decreasing, and bounded: |u| < v_bar on theta in (-1, 1).
    With c = pi/2 the law collapses to the linear map u = -v_bar*theta.
    """
    theta = _check_theta(theta)
    inner = (math.pi / (2.0 * params.c)) * math.tan(_HALF_PI * theta)
    return -(2.0 * params.v_bar / math.pi) * math.atan(inner)


def stage_gain(theta: float, params: StageControllerParams) -> float:
    """Slope du/dtheta = -2*pi*v_bar / (4c*cos^2(pi*theta/2) + (pi^2/c)*sin^2(pi*theta/2)).

    Its two terms are >= 0 and never both 0, so the denominator cannot cancel
    or round to 0.  Negative for all theta in (-1, 1); -v_bar when c = pi/2.
    """
    theta = _check_theta(theta)
    c, cos_t, sin_t = params.c, math.cos(_HALF_PI * theta), math.sin(_HALF_PI * theta)
    return -2.0 * math.pi * params.v_bar / (4.0 * c * cos_t * cos_t + (math.pi * sin_t / c) * (math.pi * sin_t))


def gain_range(params: StageControllerParams) -> tuple[float, float]:
    """Bounds (phi_lo, phi_hi) of the stage gain over theta in (-1, 1), in
    closed form and most negative first: -pi*v_bar/(2c), attained at theta =
    0, and -2*v_bar*c/pi, the limit as |theta| -> 1.  The first is phi_lo
    for c < pi/2; both are -v_bar at c = pi/2.  Always phi_lo <= phi_hi < 0.
    """
    at_center = -math.pi * params.v_bar / (2.0 * params.c)
    at_edge = -2.0 * params.v_bar * params.c / math.pi
    return (at_center, at_edge) if params.c < _HALF_PI else (at_edge, at_center)


def cascade(state, t: float, config: CascadeConfig, reference) -> CascadeDecision:
    """Evaluate the full cascade at one state and time.

    z_1 is the tracking error against reference.y_d(t); each later z_i is the
    deviation of state i from the previous stage's output.  Each theta_i is
    z_i divided by its funnel value psi_i(t), clamped just inside (-1, 1) if
    discrete integration pushed it out (flagged in ``saturated``).
    """
    if len(state) != config.n:
        raise ValueError(f"state has length {len(state)}, expected {config.n}")
    z: list[float] = []
    theta: list[float] = []
    u: list[float] = []
    psi: list[float] = []
    saturated: list[bool] = []
    prev = reference.y_d(t)
    for xi_i, stage in zip(state, config.stages):
        xi_i = float(xi_i)
        if not math.isfinite(xi_i):
            raise ValueError(f"state entries must be finite, got {xi_i}")
        z_i = xi_i - prev
        psi_i = funnel_value(stage.funnel, t)
        theta_i, sat_i = clamp_theta(z_i / psi_i)
        u_i = stage_control(theta_i, stage)
        z.append(z_i)
        theta.append(theta_i)
        u.append(u_i)
        psi.append(psi_i)
        saturated.append(sat_i)
        prev = u_i
    return CascadeDecision(z=tuple(z), theta=tuple(theta), u=tuple(u), psi=tuple(psi), saturated=tuple(saturated))
