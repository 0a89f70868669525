"""Analytical feasibility certificates for jointly prescribed error envelopes
and input caps.

Prescribing a shrinking error envelope and a hard input cap at the same time
involves a trade-off: a tight envelope may demand more actuation than the cap
allows.  The certificate resolves it with one recursion over the stages.  With

    delta_i   = [p_1 + v0_bar, ..., p_i + v_bar_{i-1}]
    varphi_i  = k_i*||delta_i|| + d_bar_i + g_hi_i*v_bar_i + r_{i-1} + g_hi_i*p_{i+1}
                (r_0 = r0; the g_hi_i*p_{i+1} term is dropped at the last stage)
    r_i       = (varphi_i/q_i + mu_i*(p_i - q_i)/p_i) * |phi_lo_i|

the prescription is certified feasible when, for every stage,

    varphi_i < (g_hi_i + g_lo_i)*v_bar_i + mu_i*(q_i - p_i)

and the start lies strictly inside every envelope, |z_i(0)| < p_i.  Here
varphi_i bounds the worst growth rate of the stage error, the right-hand side
is the worst restoring rate the capped stage output can still guarantee, and
r_i bounds the slew rate of stage i's output (phi_lo_i is the stage's most
negative gain); stage i+1 must outrun it, hence the recursion through r.

The recursion is written once, in ``_certificate``, using only + - * / and
sqrt, so it gives the same bits whether the envelope starts p_i are floats or
numpy arrays that broadcast together.  ``check_feasibility`` runs it on one
cascade, and the region sweeps in ``feasibility`` run it on grids of
two-stage start states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .controller import CascadeConfig, StageControllerParams, gain_range

__all__ = ["BoundsSpec", "StageFeasibility", "FeasibilityReport", "check_feasibility"]


@dataclass(frozen=True)
class BoundsSpec:
    """Known constants the certificate is evaluated against.

    k      per-stage growth constants, |f_i(xs)| <= k_i*||xs||
    g_lo   per-stage lower bounds on the control coefficients g_i
    g_hi   per-stage upper bounds on g_i
    d_bar  per-stage disturbance magnitude bounds
    v0_bar bound on the reference magnitude |y_d|
    r0     bound on the reference slew rate |d(y_d)/dt|
    """

    k: tuple[float, ...]
    g_lo: tuple[float, ...]
    g_hi: tuple[float, ...]
    d_bar: tuple[float, ...]
    v0_bar: float
    r0: float

    def __init__(
        self, k: tuple[float, ...], g_lo: tuple[float, ...], g_hi: tuple[float, ...], d_bar: tuple[float, ...], v0_bar: float, r0: float
    ) -> None:
        # checked as locals, then stored once, as in FunnelParams
        k, g_lo, g_hi, d_bar = (tuple(float(v) for v in seq) for seq in (k, g_lo, g_hi, d_bar))
        v0_bar, r0 = float(v0_bar), float(r0)
        n = len(k)
        if n < 1:
            raise ValueError("bounds must cover at least one stage")
        for name, seq in (("g_lo", g_lo), ("g_hi", g_hi), ("d_bar", d_bar)):
            if len(seq) != n:
                raise ValueError(f"{name} must have {n} entries like k")
        if not all(math.isfinite(v) and v >= 0.0 for v in k + g_lo + g_hi + d_bar + (v0_bar, r0)):
            raise ValueError("all bound constants must be finite and >= 0")
        if any(lo > hi for lo, hi in zip(g_lo, g_hi)):
            raise ValueError("g_lo must not exceed g_hi")
        object.__setattr__(self, "__dict__", dict(k=k, g_lo=g_lo, g_hi=g_hi, d_bar=d_bar, v0_bar=v0_bar, r0=r0))

    @property
    def n(self) -> int:
        return len(self.k)


def _slew(varphi, p, stage: StageControllerParams):
    """Slew-rate bound r = (varphi/q + mu*(p - q)/p) * |phi_lo| of a stage's
    output, with q and mu its envelope's and phi_lo its law's most negative gain."""
    q, mu = stage.funnel.q, stage.funnel.mu
    return (varphi / q + mu * (p - q) / p) * abs(gain_range(stage)[0])


def _certificate(bounds: BoundsSpec, p, stages: Sequence[StageControllerParams]) -> list:
    """The certificate recursion: (varphi_i, rhs_i, margin_i, r_i) for each
    stage, with r_i its slew bound, or None at the last stage.

    ``p`` holds the envelope starts as floats, or as numpy arrays whose shapes
    grow along the cascade (an (nx,) row, then an (ny, nx) grid); q, mu, v_bar
    and phi_lo come from the stage laws ``stages``, whose starts are unused.
    Only slew bounds a later stage consumes are computed, so the last
    stage's is left to the caller (check_feasibility).  Augmented operators
    reuse fresh temporaries on arrays; swapped operands of + and * give the
    same bits, since both commute exactly; sqrt is math.sqrt on floats, so a
    scalar run stays in Python floats.  Overflow to inf or NaN is left silent
    (feasibility._stage_margins wraps array runs in np.errstate): a non-finite
    margin already reads as infeasible.  feasibility.feasible_region relies
    on p[1] entering only through + - * / by constants >= 0 and sqrt, so that
    neither margin increases with it, bit for bit.
    """
    n = len(p)
    cap = bounds.v0_bar  # v_bar_{i-1}
    sq = 0.0  # running ||delta_i||^2
    r = bounds.r0
    out = []
    for i, stage in enumerate(stages):
        d = p[i] + cap
        d *= d
        d += sq
        sq = d
        if isinstance(sq, np.ndarray):  # sq is unused after the last stage, whose sqrt takes its buffer
            varphi = np.sqrt(sq, out=sq if i + 1 == n else None)
        else:
            varphi = math.sqrt(sq)
        varphi *= bounds.k[i]
        varphi += bounds.d_bar[i]
        varphi += bounds.g_hi[i] * stage.v_bar
        varphi += r  # r (r0 or a slew bound already returned) keeps its buffer
        r = None
        if i + 1 < n:
            varphi = bounds.g_hi[i] * p[i + 1] + varphi
            r = _slew(varphi, p[i], stage)
        rhs = (bounds.g_hi[i] + bounds.g_lo[i]) * stage.v_bar + stage.funnel.mu * (stage.funnel.q - p[i])
        out.append((varphi, rhs, rhs - varphi, r))
        cap = stage.v_bar
    return out


@dataclass(frozen=True)
class StageFeasibility:
    """Certificate arithmetic for one stage (1-based index).

    margin = rhs - varphi must be strictly positive, as must trivial_margin =
    p - |z0| (start strictly inside the envelope).  r is the stage's output
    slew bound fed to the next stage.
    """

    stage: int
    varphi: float
    rhs: float
    margin: float
    r: float
    p: float
    z0: float
    trivial_margin: float

    def __init__(
        self, stage: int, varphi: float, rhs: float, margin: float, r: float, p: float, z0: float, trivial_margin: float
    ) -> None:
        # stored once, as in FunnelParams; the fields are computed, not checked
        fields = dict(stage=stage, varphi=varphi, rhs=rhs, margin=margin, r=r, p=p, z0=z0, trivial_margin=trivial_margin)
        object.__setattr__(self, "__dict__", fields)

    @property
    def feasible(self) -> bool:
        return self.margin > 0.0 and self.trivial_margin > 0.0


@dataclass(frozen=True)
class FeasibilityReport:
    stages: tuple[StageFeasibility, ...]
    feasible: bool

    def __init__(self, stages: tuple[StageFeasibility, ...], feasible: bool) -> None:
        object.__setattr__(self, "__dict__", dict(stages=stages, feasible=feasible))

    def __str__(self) -> str:
        lines = []
        for s in self.stages:
            lines.append(
                f"stage {s.stage}: varphi={s.varphi:.6g} rhs={s.rhs:.6g} "
                f"margin={s.margin:.6g} r={s.r:.6g} p={s.p:.6g} |z0|={abs(s.z0):.6g} "
                f"trivial_margin={s.trivial_margin:.6g}"
            )
            if s.trivial_margin <= 0.0:
                lines.append(
                    f"  trivial condition violated at stage {s.stage}: "
                    f"|z_{s.stage}(0)| = {abs(s.z0):.6g} >= p_{s.stage} = {s.p:.6g}"
                )
        lines.append(f"verdict: {'FEASIBLE' if self.feasible else 'INFEASIBLE'}")
        return "\n".join(lines)


def check_feasibility(config: CascadeConfig, bounds: BoundsSpec, z0: Sequence[float]) -> FeasibilityReport:
    """Run the full per-stage certificate for a cascade and initial errors z0.

    Evaluates the varphi/r recursion from stage 1 up (the one region sweeps
    run), the strict margin rhs_i - varphi_i with rhs_i = (g_hi_i +
    g_lo_i)*v_bar_i + mu_i*(q_i - p_i), and the strict start condition
    p_i > |z_i(0)|.  Feasible only if every stage passes both.  Each slew
    bound r_i is the recursion's own, and only the last stage's is computed
    here.
    """
    n = config.n
    if bounds.n != n:
        raise ValueError(f"bounds cover {bounds.n} stages, cascade has {n}")
    if len(z0) != n:
        raise ValueError(f"z0 has length {len(z0)}, expected {n}")
    p = [s.funnel.p for s in config.stages]
    stages = []
    feasible = True
    for i, (varphi_i, rhs_i, margin_i, r_i) in enumerate(_certificate(bounds, p, config.stages)):
        if r_i is None:
            r_i = _slew(varphi_i, p[i], config.stages[i])
        z0_i = float(z0[i])
        trivial_i = p[i] - abs(z0_i)
        # fields in declaration order: stage, varphi, rhs, margin, r, p, z0, trivial_margin
        stages.append(StageFeasibility(i + 1, varphi_i, rhs_i, margin_i, r_i, p[i], z0_i, trivial_i))
        feasible = feasible and margin_i > 0.0 and trivial_i > 0.0  # StageFeasibility.feasible
    return FeasibilityReport(tuple(stages), feasible)


def _write_csv(path, header: str, line: str, blocks) -> None:
    """The one CSV writer: the header line, then each block's rows, every row
    a tuple formatted by ``line`` and each block written in one piece."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for block in blocks:
            fh.write("".join([line % row for row in block]))
