"""Analytical feasibility certificates for jointly prescribed error envelopes
and input caps, plus feasible initial-state region sweeps.

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
cascade.  Over a grid of two-stage start states, with each p_i = |z_i(0)| +
delta tied to the state, ``feasible_region`` builds the mask from each
column's feasible run, whose ends it finds by bisection, one certificate row
per step; the margins of every cell still come from row tiles, on first read
and in ``region_to_csv``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Sequence

import numpy as np

from .controller import CascadeConfig, StageControllerParams, clamp_theta, gain_range, stage_control
from .funnel import FunnelParams

__all__ = [
    "BoundsSpec",
    "StageFeasibility",
    "FeasibilityReport",
    "check_feasibility",
    "RegionTemplate",
    "RegionResult",
    "check_point",
    "feasible_region",
    "region_to_csv",
]

# Cells per row tile of the region sweep: small enough that the recursion's
# temporaries stay in cache, and at least one grid row.
_TILE_CELLS = 16384


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

    def __post_init__(self) -> None:
        for name in ("k", "g_lo", "g_hi", "d_bar"):
            object.__setattr__(self, name, tuple(float(v) for v in getattr(self, name)))
        object.__setattr__(self, "v0_bar", float(self.v0_bar))
        object.__setattr__(self, "r0", float(self.r0))
        n = len(self.k)
        if n < 1:
            raise ValueError("bounds must cover at least one stage")
        for name in ("g_lo", "g_hi", "d_bar"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} must have {n} entries like k")
        flat = self.k + self.g_lo + self.g_hi + self.d_bar + (self.v0_bar, self.r0)
        if not all(math.isfinite(v) and v >= 0.0 for v in flat):
            raise ValueError("all bound constants must be finite and >= 0")
        if any(lo > hi for lo, hi in zip(self.g_lo, self.g_hi)):
            raise ValueError("g_lo must not exceed g_hi")

    @property
    def n(self) -> int:
        return len(self.k)


def _slew(varphi, p, stage: StageControllerParams):
    """Slew-rate bound r = (varphi/q + mu*(p - q)/p) * |phi_lo| of a stage's
    output, with q and mu its envelope's and phi_lo its law's most negative gain."""
    q, mu = stage.funnel.q, stage.funnel.mu
    return (varphi / q + mu * (p - q) / p) * abs(gain_range(stage)[0])


def _certificate(bounds: BoundsSpec, p, stages: Sequence[StageControllerParams]) -> list:
    """The certificate recursion: (varphi_i, rhs_i, margin_i) for each stage.

    ``p`` holds the envelope starts as floats, or as numpy arrays whose shapes
    grow along the cascade (an (nx,) row, then an (ny, nx) grid); q, mu, v_bar
    and phi_lo come from the stage laws ``stages``, whose starts are unused.
    Only slew bounds a later stage consumes are computed.  Augmented operators
    reuse fresh temporaries on arrays; swapped operands of + and * give the
    same bits, since both commute exactly.  Overflow to inf or NaN is left
    silent: a non-finite margin already reads as infeasible.  feasible_region
    relies on p[1] entering only through + - * / by constants >= 0 and sqrt,
    so that neither margin increases with it, bit for bit.
    """
    n = len(p)
    cap = bounds.v0_bar  # v_bar_{i-1}
    sq = 0.0  # running ||delta_i||^2
    r = bounds.r0
    out = []
    with np.errstate(over="ignore", invalid="ignore"):
        for i, stage in enumerate(stages):
            d = p[i] + cap
            d *= d
            d += sq
            sq = d
            varphi = np.sqrt(sq)
            varphi *= bounds.k[i]
            varphi += bounds.d_bar[i]
            varphi += bounds.g_hi[i] * stage.v_bar
            r += varphi  # r is r0 or a fresh slew bound: the sum reuses its buffer
            varphi = r
            if i + 1 < n:
                varphi = bounds.g_hi[i] * p[i + 1] + varphi
                r = _slew(varphi, p[i], stage)
            rhs = (bounds.g_hi[i] + bounds.g_lo[i]) * stage.v_bar + stage.funnel.mu * (stage.funnel.q - p[i])
            out.append((varphi, rhs, rhs - varphi))
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

    @property
    def feasible(self) -> bool:
        return self.margin > 0.0 and self.trivial_margin > 0.0


@dataclass(frozen=True)
class FeasibilityReport:
    stages: tuple[StageFeasibility, ...]
    feasible: bool

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
    p_i > |z_i(0)|.  Feasible only if every stage passes both.
    """
    n = config.n
    if bounds.n != n:
        raise ValueError(f"bounds cover {bounds.n} stages, cascade has {n}")
    if len(z0) != n:
        raise ValueError(f"z0 has length {len(z0)}, expected {n}")
    p = [s.funnel.p for s in config.stages]
    stages = []
    for i, (varphi_i, rhs_i, margin_i) in enumerate(_certificate(bounds, p, config.stages)):
        varphi_i = float(varphi_i)  # r in Python floats: overflow stays silent
        z0_i = float(z0[i])
        stages.append(
            StageFeasibility(
                stage=i + 1,
                varphi=varphi_i,
                rhs=rhs_i,
                margin=float(margin_i),
                r=_slew(varphi_i, p[i], config.stages[i]),
                p=p[i],
                z0=z0_i,
                trivial_margin=p[i] - abs(z0_i),
            )
        )
    return FeasibilityReport(stages=tuple(stages), feasible=all(s.feasible for s in stages))


@dataclass(frozen=True)
class RegionTemplate:
    """Everything a two-stage certificate needs except the initial state.

    ``controller`` gives each stage's law and envelope tail (v_bar, c, q, mu);
    its envelope starts are not read, since they are tied to the state by
    p_i = |z_i(0)| + deltas[i].  ``bounds`` are the certification constants
    and ``y_d0`` the reference value at t = 0.
    """

    controller: CascadeConfig
    deltas: tuple[float, float]
    bounds: BoundsSpec
    y_d0: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "deltas", tuple(float(d) for d in self.deltas))
        object.__setattr__(self, "y_d0", float(self.y_d0))
        if not self.controller.n == len(self.deltas) == self.bounds.n == 2:
            raise ValueError("region sweeps are two-stage: controller, deltas and bounds must cover 2 stages")
        # p_i = |z_i(0)| + deltas[i] must be finite and reach the steady-state
        # bound q_i at every cell, including z_i(0) = 0, so the derived funnel
        # stays valid; written so that a NaN offset fails too.
        if not all(s.funnel.q <= d < math.inf for d, s in zip(self.deltas, self.controller.stages)):
            raise ValueError("each envelope offset must be finite and >= the matching steady-state bound q")


def _start_output(z: float, p: float, law: StageControllerParams) -> float:
    """Output at t = 0 of a stage with error z and envelope start psi(0) = p.

    The one rule config offsets, check_point and the region sweep resolve
    starts by; theta = z/p is clamped as in the closed loop, since it rounds
    to +/-1 at far cells.
    """
    theta, _ = clamp_theta(z / p)
    return stage_control(theta, law)


def _start_chain(stages, x0: Sequence[float], y_d0: float):
    """The one start chain: yield (law, z_i(0)) per stage from the initial state.

    ``stages`` holds (v_bar, c, p, delta, q, mu) per stage, with one of p and
    delta None; z_i(0) = x0_i minus the t = 0 output of the stage before
    (y_d0 for the first), computed only once stage i is reached, and an
    offset gives p_i = |z_i(0)| + delta_i.  FunnelParams' ValueError for a
    start below q leaves the generator.
    """
    law = z = None
    for (v_bar, c, p, delta, q, mu), x in zip(stages, x0):
        z = x - (y_d0 if law is None else _start_output(z, law.funnel.p, law))
        law = StageControllerParams(v_bar=v_bar, c=c, funnel=FunnelParams(p=abs(z) + delta if p is None else p, q=q, mu=mu))
        yield law, z


def check_point(template: RegionTemplate, x: float, y: float) -> FeasibilityReport:
    """Per-point certificate of the cascade a ``delta`` config with the
    template's offsets resolves to at start (x, y), run through
    check_feasibility; its report carries each stage's p and z(0).  Does per
    cell the arithmetic feasible_region does per grid, so the two agree bit
    for bit."""
    offsets = [(s.v_bar, s.c, None, d, s.funnel.q, s.funnel.mu) for s, d in zip(template.controller.stages, template.deltas)]
    laws, z0 = zip(*_start_chain(offsets, (float(x), float(y)), template.y_d0))
    return check_feasibility(CascadeConfig(n=len(laws), stages=laws), template.bounds, z0)


def _columns(template: RegionTemplate, x: np.ndarray):
    """Per-x terms of the sweep: p_1 = |x - y_d0| + deltas[0] and u_1(0),
    the latter with the scalar stage law, since numpy's tan and arctan need
    not match libm's bits."""
    z1 = x - template.y_d0
    p1 = np.abs(z1) + template.deltas[0]
    u1 = np.array([_start_output(z, p, template.controller.stages[0]) for z, p in zip(z1.tolist(), p1.tolist())])
    return p1, u1


def _stage_margins(template: RegionTemplate, p1: np.ndarray, u1: np.ndarray, y: np.ndarray):
    """Both stage margins at second states ``y`` (an (nx,) row or a (rows, 1)
    column) over the columns' p1 and u1, with p_2 = |y - u_1(0)| + deltas[1]."""
    p2 = y - u1
    np.abs(p2, out=p2)
    p2 += template.deltas[1]
    (_, _, m1), (_, _, m2) = _certificate(template.bounds, (p1, p2), template.controller.stages)
    return m1, m2


def _margin_tiles(template: RegionTemplate, x: np.ndarray, y: np.ndarray):
    """The one margin sweep kernel: yield (rows, margin_c1, margin_c2) per row tile.

    p_1 and u_1(0) depend on x alone, so they are computed once per x;
    p_2 spans the grid.  The recursion runs on an (nx,) row of p_1 and one
    tile of about _TILE_CELLS cells of p_2 at a time, so its temporaries
    stay in cache; it is elementwise, so every cell gets check_point's bits.
    """
    p1, u1 = _columns(template, x)
    rows = max(1, _TILE_CELLS // x.size)
    for start in range(0, y.size, rows):
        tile = slice(start, start + rows)
        yield tile, *_stage_margins(template, p1, u1, y[tile, None])


@dataclass(frozen=True)
class RegionResult:
    """Grid sweep output, indexed [iy, ix] for initial state (x[ix], y[iy]):
    the feasible mask, and both stage margins, re-run from ``template`` and
    the axes on first read, then cached.  Axes, mask and margins are
    read-only, so the mask cannot be edited apart from the margins."""

    template: RegionTemplate
    x: np.ndarray
    y: np.ndarray
    feasible: np.ndarray

    @property
    def fraction(self) -> float:
        return float(np.count_nonzero(self.feasible)) / self.feasible.size

    @cached_property
    def _margins(self) -> tuple[np.ndarray, ...]:
        margins = np.empty((2, *self.feasible.shape))
        for tile, m1, m2 in _margin_tiles(self.template, self.x, self.y):
            margins[:, tile] = m1, m2
        margins.flags.writeable = False
        return tuple(margins)

    margin_c1 = property(lambda self: self._margins[0], doc="Stage-1 margin per cell.")
    margin_c2 = property(lambda self: self._margins[1], doc="Stage-2 margin per cell.")


def _feasible_run(template: RegionTemplate, p1: np.ndarray, u1: np.ndarray, ys: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Per column, how many cells of ``ys``, walking up from index ``first``,
    are feasible before the first that is not.

    The walk must move away from u_1, so the feasible cells are a prefix
    (see feasible_region).  All columns bisect at once, one (nx,) certificate
    row per step: cells [0, lo) are feasible and cell hi (or the axis end) is
    not; a converged column re-probes an in-range cell and ignores it.
    """
    lo, hi = np.zeros_like(first), ys.size - first
    while (lo < hi).any():
        mid = (lo + hi) // 2
        m1, m2 = _stage_margins(template, p1, u1, ys[np.minimum(first + mid, ys.size - 1)])
        ok = (m1 > 0.0) & (m2 > 0.0) & (lo < hi)
        lo = np.where(ok, mid + 1, lo)
        hi = np.where(ok, hi, mid)
    return lo


def feasible_region(template: RegionTemplate, x: Sequence[float], y: Sequence[float]) -> RegionResult:
    """Certificate sweep over a rectangular grid of initial states.

    A cell is feasible iff both margins are strictly positive; the start
    condition holds by construction since deltas > 0.  Only the mask is
    built, from each column's feasible run; the margins are re-run from the
    tiles on first read.  Mask and margins match check_point exactly at
    every cell.

    The run is exact, not sampled.  For a fixed x, p_1 and u_1(0) are fixed
    and p_2 = fl(|fl(y - u_1)|) + deltas[1] does not decrease as y moves away
    from u_1 on either side.  Every operation _certificate applies to p_2 is
    +, -, * or / by a constant >= 0, or sqrt, each monotone under
    round-to-nearest (BoundsSpec and the stage laws keep every constant >=
    0), so neither margin increases with p_2, and a margin that overflowed to
    inf or NaN stays non-positive for every larger p_2.  So along ascending
    y the feasible cells form one contiguous run on each side of u_1, and
    _feasible_run finds the ends of both by bisection: about 2*log2(ny)
    certificate rows per grid instead of one evaluation per cell.
    """
    x = np.array(x, dtype=float)  # copies: the result owns its axes
    y = np.array(y, dtype=float)
    if x.ndim != 1 or y.ndim != 1 or x.size == 0 or y.size == 0:
        raise ValueError("grid axes must be non-empty 1-D arrays")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("grid axes must be finite")
    p1, u1 = _columns(template, x)
    order = np.argsort(y, kind="stable")
    ys = y[order]
    pivot = np.searchsorted(ys, u1)  # first cell with y >= u_1
    # Below u_1 the walk runs down the axis: up the reversed one from ny - pivot.
    start = pivot - _feasible_run(template, p1, u1, ys[::-1], y.size - pivot)
    stop = pivot + _feasible_run(template, p1, u1, ys, pivot)
    rank = np.empty_like(order)
    rank[order] = np.arange(y.size)
    feasible = np.less_equal(start, rank[:, None])
    feasible &= rank[:, None] < stop
    x.flags.writeable = y.flags.writeable = feasible.flags.writeable = False
    return RegionResult(template=template, x=x, y=y, feasible=feasible)


def _write_csv(path, header: str, line: str, blocks) -> None:
    """The one CSV writer: the header line, then each block's rows, every row
    a tuple formatted by ``line`` and each block written in one piece."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for block in blocks:
            fh.write("".join([line % row for row in block]))


def region_to_csv(result: RegionResult, path) -> None:
    """Write one row per cell: x, y, feasible(0/1), margin_c1, margin_c2.

    Streams the margins from the sweep kernel a row tile at a time and never
    builds (or caches) the full grids; one block per grid row, and each x
    and y is formatted once.
    """
    xs = ["%.17g" % v for v in result.x.tolist()]
    ys = ["%.17g" % v for v in result.y.tolist()]
    rows = (
        zip(xs, repeat(y), f.tolist(), a.tolist(), b.tolist())
        for tile, m1, m2 in _margin_tiles(result.template, result.x, result.y)
        for y, f, a, b in zip(ys[tile], result.feasible[tile], m1, m2)
    )
    _write_csv(path, "x,y,feasible,margin_c1,margin_c2", "%s,%s,%d,%.17g,%.17g\n", rows)
