"""The feasible band of a two-stage region sweep in closed form.

For a fixed x, p_1 and u_1(0) are fixed and both margins fall as p_2 = |y -
u_1(0)| + deltas[1] grows, so the feasible start states of the column are
the band |y - u_1(0)| < w, with w from the largest admissible p_2.  This is
a bracket, not a second certificate: it rounds differently from
``feasibility._certificate``, and ``feasible_region`` only seeds its search
with it.  ``feasible_region`` imports this module on first use, so a process
that never sweeps does not compile it, and the compile peak of
``feasibility.py`` stays below that of ``config.py``, which sets the peak
memory of a process that compiles the package from source.
"""

from __future__ import annotations

import numpy as np

from .controller import gain_range
from .feasibility import RegionTemplate, _slew


def half_width(template: RegionTemplate, p1: np.ndarray) -> np.ndarray:
    """Half-width w per column of the band |y - u_1(0)| < w where both
    margins are positive, from the margins in closed form.

    For fixed x, margin_1 = m - g_hi_1*p_2 is linear in p_2.  With s = p_2 +
    v_bar_1, margin_2 = D - B*s - k_2*sqrt(S + s^2), where S = (p_1 +
    v0_bar)^2, B = mu_2 + g_hi_1*|phi_lo_1|/q_1 and D holds the rest; it is
    0 at the root s = (D^2 - k_2^2*S) / (B*D + k_2*sqrt(D^2 + (B^2 -
    k_2^2)*S)) of its squared form, which is the linear root D/B when k_2 =
    0 and stays finite when B = k_2.  w = p_2* - deltas[1] for the smaller
    of the two roots p_2*.

    w may miss a cell or be inf or NaN, and its arithmetic may overflow:
    run_guesses calls it under np.errstate.
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


def run_guesses(template: RegionTemplate, p1: np.ndarray, u1: np.ndarray, ys: np.ndarray, pivot: np.ndarray):
    """Guessed lengths of each column's feasible runs below and above u_1 on
    the sorted axis ``ys``, whose first cell with y >= u_1 is ``pivot``: the
    cells within w of u_1, never fewer than 0."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        w = half_width(template, p1)
        up = np.maximum(np.searchsorted(ys, u1 + w, side="left") - pivot, 0)
        down = np.maximum(pivot - np.searchsorted(ys, u1 - w, side="right"), 0)
    return down, up
