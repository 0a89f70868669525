"""Feasible initial-state regions of two-stage cascades, from the
certificate in ``certificate``.

Each envelope start is tied to the state, p_i = |z_i(0)| + delta_i, with
z_i(0) = x_i minus the t = 0 output of the stage before, by the one rule
``_start_output``.  ``check_point`` builds the two stage laws of one start
from the template's and certifies them through ``check_feasibility``,
looked up in this module, once per probe.  Over a grid of start
states, ``feasible_region`` builds the mask from each column's feasible run,
whose ends it guesses from the closed-form band (``_half_width``) and
proves, or else finds by bisection, one certificate row per step; the
margins of every cell still come from row tiles, on first read and in
``region_to_csv``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Sequence

import numpy as np

from .certificate import BoundsSpec, FeasibilityReport, _certificate, _slew, _write_csv, check_feasibility
from .controller import _HALF_PI, _THETA_LIMIT, CascadeConfig, StageControllerParams, _check_theta, clamp_theta, gain_range, stage_control
from .funnel import FunnelParams

__all__ = ["RegionTemplate", "RegionResult", "check_point", "feasible_region", "region_to_csv"]

# Cells per row tile of the region sweep: small enough that the recursion's
# temporaries stay in cache, and at least one grid row.
_TILE_CELLS = 16384


def _row_tiles(ny: int, nx: int, cells: int = _TILE_CELLS):
    """Slices of whole rows of an (ny, nx) grid, about ``cells`` cells each."""
    rows = max(1, cells // nx)
    return (slice(start, start + rows) for start in range(0, ny, rows))


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
        if not math.isfinite(self.y_d0):
            raise ValueError(f"reference value y_d0 must be finite, got {self.y_d0}")
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
    """The start chain of config offsets: yield (law, z_i(0)) per stage
    from the initial state.

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
    check_feasibility once; its report carries each stage's p and z(0).

    The two stage laws are built straight from the template's: z_1 = x -
    y_d0 and p_1 = |z_1| + deltas[0], then z_2 = y - u_1(0) from
    _start_output, the rule _start_chain applies, and p_2 = |z_2| +
    deltas[1].  A non-finite start is refused by FunnelParams.  Does per
    cell the arithmetic feasible_region does per grid, so the two agree bit
    for bit."""
    (s1, s2), (d1, d2) = template.controller.stages, template.deltas
    z1 = float(x) - template.y_d0
    law1 = StageControllerParams(s1.v_bar, FunnelParams(abs(z1) + d1, s1.funnel.q, s1.funnel.mu), s1.c)
    z2 = float(y) - _start_output(z1, law1.funnel.p, law1)
    law2 = StageControllerParams(s2.v_bar, FunnelParams(abs(z2) + d2, s2.funnel.q, s2.funnel.mu), s2.c)
    return check_feasibility(CascadeConfig(2, (law1, law2)), template.bounds, (z1, z2))


def _columns(template: RegionTemplate, x: np.ndarray):
    """Per-x terms of the sweep: p_1 = |x - y_d0| + deltas[0] and u_1(0).

    u_1(0) is _start_output over the whole row: the division, clamp and
    products of clamp_theta and stage_control in numpy, which round as
    Python floats do, and tan and atan from libm through math, since numpy's
    need not match its bits.  A z_1/p_1 that is not finite is refused as the
    scalar law refuses it.
    """
    law = template.controller.stages[0]
    with np.errstate(over="ignore", invalid="ignore"):
        z1 = x - template.y_d0
        p1 = np.abs(z1) + template.deltas[0]
        theta = np.clip(z1 / p1, -_THETA_LIMIT, _THETA_LIMIT)  # NaN passes the clamp
    if np.isnan(theta).any():
        _check_theta(math.nan)
    theta *= _HALF_PI
    inner = (math.pi / (2.0 * law.c)) * np.fromiter(map(math.tan, theta.tolist()), float, theta.size)
    u1 = -(2.0 * law.v_bar / math.pi) * np.fromiter(map(math.atan, inner.tolist()), float, inner.size)
    return p1, u1


def _stage_margins(template: RegionTemplate, p1: np.ndarray, u1: np.ndarray, y: np.ndarray):
    """Both stage margins at second states ``y`` (an (nx,) row or a (rows, 1)
    column) over the columns' p1 and u1, with p_2 = |y - u_1(0)| + deltas[1]."""
    p2 = y - u1
    np.abs(p2, out=p2)
    p2 += template.deltas[1]
    with np.errstate(over="ignore", invalid="ignore"):
        (_, _, m1, _), (_, _, m2, _) = _certificate(template.bounds, (p1, p2), template.controller.stages)
    return m1, m2


def _margin_tiles(template: RegionTemplate, x: np.ndarray, y: np.ndarray):
    """The one margin sweep kernel: yield (rows, margin_c1, margin_c2) per row tile.

    p_1 and u_1(0) depend on x alone, so they are computed once per x;
    p_2 spans the grid.  The recursion runs on an (nx,) row of p_1 and one
    tile of about _TILE_CELLS cells of p_2 at a time, so its temporaries
    stay in cache; it is elementwise, so every cell gets check_point's bits.
    """
    p1, u1 = _columns(template, x)
    for tile in _row_tiles(y.size, x.size):
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


def _half_width(template: RegionTemplate, p1: np.ndarray) -> np.ndarray:
    """Half-width w per column of the band |y - u_1(0)| < w where both
    margins are positive, from the margins in closed form.

    For fixed x, margin_1 = m - g_hi_1*p_2 is linear in p_2.  With s = p_2 +
    v_bar_1, margin_2 = D - B*s - k_2*sqrt(S + s^2), where S = (p_1 +
    v0_bar)^2, B = mu_2 + g_hi_1*|phi_lo_1|/q_1 and D holds the rest; it is
    0 at the root s = (D^2 - k_2^2*S) / (B*D + k_2*sqrt(D^2 + (B^2 -
    k_2^2)*S)) of its squared form, which is the linear root D/B when k_2 =
    0 and stays finite when B = k_2.  w = p_2* - deltas[1] for the smaller
    of the two roots p_2*.

    This is a bracket, not a second certificate: it rounds differently from
    _certificate, and feasible_region only seeds its search with it.  w may
    miss a cell or be inf or NaN, and its arithmetic may overflow:
    _run_guesses calls it under np.errstate.
    """
    b, (s1, s2) = template.bounds, template.controller.stages
    sq = (p1 + b.v0_bar) ** 2
    a = b.k[0] * np.sqrt(sq) + b.d_bar[0] + b.g_hi[0] * s1.v_bar + b.r0  # varphi_1 at p_2 = 0
    top1 = ((b.g_hi[0] + b.g_lo[0]) * s1.v_bar + s1.funnel.mu * (s1.funnel.q - p1) - a) / b.g_hi[0]
    slope = s2.funnel.mu + b.g_hi[0] * abs(gain_range(s1)[0]) / s1.funnel.q
    d = b.g_lo[1] * s2.v_bar + s2.funnel.mu * s2.funnel.q - b.d_bar[1] - _slew(a, p1, s1) + slope * s1.v_bar
    k2 = b.k[1]
    root = (d * d - k2 * k2 * sq) / (slope * d + k2 * np.sqrt(d * d + (slope * slope - k2 * k2) * sq))
    top2 = np.where(d > 0.0, root - s1.v_bar, -np.inf)  # margin_2 <= 0 for every s >= 0 when D <= 0
    return np.minimum(top1, top2) - template.deltas[1]


def _run_guesses(template: RegionTemplate, p1: np.ndarray, u1: np.ndarray, ys: np.ndarray, pivot: np.ndarray):
    """Guessed lengths of each column's feasible runs below and above u_1 on
    the sorted axis ``ys``, whose first cell with y >= u_1 is ``pivot``: the
    cells within w of u_1, never fewer than 0."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        w = _half_width(template, p1)
        up = np.maximum(np.searchsorted(ys, u1 + w, side="left") - pivot, 0)
        down = np.maximum(pivot - np.searchsorted(ys, u1 - w, side="right"), 0)
    return down, up


def _feasible_run(template: RegionTemplate, p1: np.ndarray, u1: np.ndarray, ys: np.ndarray, first: np.ndarray, guess: np.ndarray) -> np.ndarray:
    """Per column, how many cells of ``ys``, walking up from index ``first``,
    are feasible before the first that is not.

    The walk must move away from u_1, so the feasible cells are a prefix
    (see feasible_region).  All columns bisect at once, one (nx,) certificate
    row per step: cells [0, lo) are feasible and cell hi (or the axis end) is
    not.  The first two steps probe cells ``guess`` - 1 and ``guess``, and a
    prefix of exactly ``guess`` cells passes the first and fails the second,
    which proves the run length; the columns they leave open bisect from
    midpoints.  A step whose cell lies outside [lo, hi) changes nothing, so
    a wrong guess costs rows, never bits.
    """
    lo, hi = np.zeros_like(first), ys.size - first
    mids = [guess, guess - 1]  # popped from the end
    while (lo < hi).any():
        mid = mids.pop() if mids else (lo + hi) // 2
        m1, m2 = _stage_margins(template, p1, u1, ys[np.clip(first + mid, 0, ys.size - 1)])
        ok = (m1 > 0.0) & (m2 > 0.0)
        step = (lo <= mid) & (mid < hi)
        lo = np.where(step & ok, mid + 1, lo)
        hi = np.where(step & ~ok, mid, hi)
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
    y the feasible cells form one contiguous run on each side of u_1.  The
    closed-form band of _half_width guesses each run's length (the cells
    within w of u_1), then _feasible_run verifies the guess with two certificate rows
    and bisects only the columns it misses: 4 rows per grid when every guess
    holds, at most 2*(2 + ceil(log2(ny + 1))), instead of one evaluation per
    cell, each run under np.errstate in _stage_margins.  The guess never
    decides a cell, so a wrong one costs rows, never bits.
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
    down, up = _run_guesses(template, p1, u1, ys, pivot)
    # Below u_1 the walk runs down the axis: up the reversed one from ny - pivot.
    # Ranks and run ends lie in [0, ny]: in the narrowest type holding ny
    # (uint16 at 1001 rows) the mask's compares run ~5x faster than in int64.
    narrow = np.min_scalar_type(y.size)
    start = (pivot - _feasible_run(template, p1, u1, ys[::-1], y.size - pivot, down)).astype(narrow)
    stop = (pivot + _feasible_run(template, p1, u1, ys, pivot, up)).astype(narrow)
    rank = np.empty(y.size, narrow)
    rank[order] = np.arange(y.size, dtype=narrow)
    # Row tiles of a margin tile's bytes keep the second compare's
    # temporary in cache, not a second full-grid mask.
    feasible = np.empty((y.size, x.size), dtype=bool)
    for tile in _row_tiles(y.size, x.size, 8 * _TILE_CELLS):
        np.less_equal(start, rank[tile, None], out=feasible[tile])
        feasible[tile] &= rank[tile, None] < stop
    x.flags.writeable = y.flags.writeable = feasible.flags.writeable = False
    return RegionResult(template=template, x=x, y=y, feasible=feasible)


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
