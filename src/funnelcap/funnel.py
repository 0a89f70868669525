"""Exponentially shrinking performance envelopes.

Each tracking-error signal is required to stay strictly inside a
time-varying envelope

    psi(t) = (p - q) * exp(-mu * t) + q,

which starts at ``p``, decays at rate ``mu`` and settles at ``q``.  The
envelope and its derivative are bounded for all t >= 0:

    q <= psi(t) <= p          and          mu*(q - p) <= d(psi)/dt <= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["FunnelParams", "funnel_value", "funnel_rate", "funnel_rate_bounds"]


@dataclass(frozen=True)
class FunnelParams:
    """Parameters of one performance envelope.

    p   initial bound, psi(0)
    q   steady-state bound, psi(inf)
    mu  exponential decay rate (1/s)

    Requires p >= q > 0 and mu > 0.  p == q gives a constant envelope.
    """

    p: float
    q: float
    mu: float

    def __init__(self, p: float, q: float, mu: float) -> None:
        # Checked as locals, then stored once, as a fresh instance dict past
        # the frozen __setattr__ (a plain dict keeps attribute reads fast);
        # dataclass() keeps this __init__, and replace() calls it.
        p, q, mu = float(p), float(q), float(mu)
        if not (math.isfinite(p) and math.isfinite(q) and math.isfinite(mu)):
            raise ValueError("funnel parameters must be finite")
        if q <= 0.0:
            raise ValueError(f"steady-state bound q must be > 0, got {q}")
        if p < q:
            raise ValueError(f"initial bound p must satisfy p >= q, got p={p}, q={q}")
        if mu <= 0.0:
            raise ValueError(f"decay rate mu must be > 0, got {mu}")
        object.__setattr__(self, "__dict__", dict(p=p, q=q, mu=mu))


def _check_time(t: float) -> float:
    t = float(t)
    if not math.isfinite(t) or t < 0.0:
        raise ValueError(f"time must be finite and >= 0, got {t}")
    return t


def funnel_value(params: FunnelParams, t: float) -> float:
    """Envelope value psi(t) = (p - q)*exp(-mu*t) + q; always in [q, p]."""
    t = _check_time(t)
    return (params.p - params.q) * math.exp(-params.mu * t) + params.q


def funnel_rate(params: FunnelParams, t: float) -> float:
    """Envelope slope d(psi)/dt = -mu*(p - q)*exp(-mu*t); always in [mu*(q - p), 0]."""
    t = _check_time(t)
    return -params.mu * (params.p - params.q) * math.exp(-params.mu * t)


def funnel_rate_bounds(params: FunnelParams) -> tuple[float, float]:
    """Analytical range (mu*(q - p), 0) containing funnel_rate(t) for all t >= 0."""
    return (params.mu * (params.q - params.p), 0.0)
