import math
import tracemalloc
import warnings
from itertools import repeat
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funnelcap import (
    BoundsSpec,
    CascadeConfig,
    FunnelParams,
    RegionResult,
    RegionTemplate,
    StageControllerParams,
    builtin_system,
    check_feasibility,
    check_point,
    feasible_region,
    gain_range,
    region_to_csv,
)
from funnelcap import feasibility
from funnelcap.feasibility import _TILE_CELLS, _certificate, _slew, _start_output, _write_csv

HALF_PI = math.pi / 2.0


def ex1_config():
    return CascadeConfig(
        n=2,
        stages=(
            StageControllerParams(v_bar=4.5, funnel=FunnelParams(p=1.0, q=0.05, mu=0.9)),
            StageControllerParams(v_bar=8.0, funnel=FunnelParams(p=1.4, q=0.05, mu=1.0)),
        ),
    )


def ex1_bounds():
    return BoundsSpec(
        k=(0.0, 9.8 * math.sqrt(2.0)),
        g_lo=(1.0, 100.0),
        g_hi=(1.0, 100.0),
        d_bar=(0.0, 0.5),
        v0_bar=1.0,
        r0=0.5,
    )


def cascade_of(q, mu, v_bar, c=(HALF_PI, HALF_PI)):
    """Two-stage cascade for a region template; its envelope starts p = q
    are not read by the region layer."""
    stages = tuple(
        StageControllerParams(v_bar=v, c=ci, funnel=FunnelParams(p=qi, q=qi, mu=m))
        for qi, m, v, ci in zip(q, mu, v_bar, c)
    )
    return CascadeConfig(n=len(stages), stages=stages)


def ex1_template():
    return RegionTemplate(
        controller=cascade_of(q=(0.05, 0.05), mu=(0.9, 1.0), v_bar=(4.5, 8.0)),
        deltas=(0.5, 0.1),
        bounds=ex1_bounds(),
        y_d0=0.0,
    )


def ex2_template():
    return RegionTemplate(
        controller=cascade_of(q=(0.08, 0.01), mu=(0.9, 0.5), v_bar=(1.0, 16.0)),
        deltas=(0.5, 0.1),
        bounds=BoundsSpec(k=(0.5, 1.0), g_lo=(5.0, 7.0), g_hi=(5.0, 7.0), d_bar=(0.2, 0.5), v0_bar=0.5, r0=0.5),
        y_d0=0.0,
    )


def inline_recursion(config, bounds):
    """Literal transcription of the certificate arithmetic, kept independent
    of the library implementation."""
    n = config.n
    p = [s.funnel.p for s in config.stages]
    q = [s.funnel.q for s in config.stages]
    mu = [s.funnel.mu for s in config.stages]
    vb = [s.v_bar for s in config.stages]
    c = [s.c for s in config.stages]
    vpre = [bounds.v0_bar] + vb
    out = []
    r_prev = bounds.r0
    for i in range(1, n + 1):
        delta = [p[j] + vpre[j] for j in range(i)]
        norm = math.sqrt(sum(x * x for x in delta))
        var = bounds.k[i - 1] * norm + bounds.d_bar[i - 1] + bounds.g_hi[i - 1] * vb[i - 1] + r_prev
        if i < n:
            var += bounds.g_hi[i - 1] * p[i]
        rhs = (bounds.g_hi[i - 1] + bounds.g_lo[i - 1]) * vb[i - 1] + mu[i - 1] * (q[i - 1] - p[i - 1])
        if c[i - 1] < HALF_PI:
            phi_lo = -math.pi * vb[i - 1] / (2.0 * c[i - 1])
        else:
            phi_lo = -2.0 * vb[i - 1] * c[i - 1] / math.pi
        r_i = (var / q[i - 1] + mu[i - 1] * (p[i - 1] - q[i - 1]) / p[i - 1]) * abs(phi_lo)
        out.append((var, rhs, rhs - var, r_i))
        r_prev = r_i
    return out


def zero_bounds(n=2):
    return BoundsSpec(k=(0.0,) * n, g_lo=(0.0,) * n, g_hi=(0.0,) * n, d_bar=(0.0,) * n, v0_bar=0.0, r0=0.0)


class TestDeltaVector:
    """The stacked state box delta_i = [p_1 + v0_bar, ..., p_i + v_bar_{i-1}]
    enters varphi_i through its norm; unit growth constants and no other
    terms expose that norm."""

    unit_growth = BoundsSpec(k=(1.0, 1.0), g_lo=(0.0, 0.0), g_hi=(0.0, 0.0), d_bar=(0.0, 0.0), v0_bar=1.0, r0=0.0)

    def test_pendulum_stage_1(self):
        s1 = check_feasibility(ex1_config(), self.unit_growth, [0.0, 0.0]).stages[0]
        assert s1.varphi == 2.0

    def test_pendulum_stage_2(self):
        s1, s2 = check_feasibility(ex1_config(), self.unit_growth, [0.0, 0.0]).stages
        assert s2.varphi - s1.r == pytest.approx(math.hypot(2.0, 5.9), rel=1e-12)


class TestVarphi:
    def test_pendulum_stage_1(self):
        s1 = check_feasibility(ex1_config(), ex1_bounds(), [0.0, 0.0]).stages[0]
        assert s1.varphi == pytest.approx(6.4, rel=1e-12)

    def test_all_zero_bounds(self):
        assert check_feasibility(ex1_config(), zero_bounds(), [0.0, 0.0]).stages[0].varphi == 0.0

    def test_pendulum_stage_2_drops_next_envelope_term(self):
        s1, s2 = check_feasibility(ex1_config(), ex1_bounds(), [0.0, 0.0]).stages
        expected = 9.8 * math.sqrt(2.0) * math.sqrt(2.0**2 + 5.9**2) + 0.5 + 100.0 * 8.0 + s1.r
        assert s2.varphi == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(1466.6876690987456, rel=1e-12)


class TestRateBound:
    def test_pendulum_stage_1(self):
        s1 = check_feasibility(ex1_config(), ex1_bounds(), [0.0, 0.0]).stages[0]
        expected = (6.4 / 0.05 + 0.9 * 0.95 / 1.0) * 4.5
        assert s1.r == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(579.8475, rel=1e-12)

    def test_flat_funnel_with_zero_growth(self):
        flat = CascadeConfig(n=1, stages=(StageControllerParams(v_bar=2.0, funnel=FunnelParams(p=0.3, q=0.3, mu=1.0)),))
        assert check_feasibility(flat, zero_bounds(1), [0.0]).stages[0].r == 0.0

    def test_linear_in_gain_magnitude(self):
        # for c >= pi/2 the most negative gain is -2*v_bar*c/pi, so doubling c
        # doubles |phi_lo| and leaves varphi alone
        def stage_1(c):
            config = ex1_config()
            wider = StageControllerParams(v_bar=4.5, c=c, funnel=config.stages[0].funnel)
            return check_feasibility(CascadeConfig(n=2, stages=(wider, config.stages[1])), ex1_bounds(), [0.0, 0.0]).stages[0]

        base, doubled = stage_1(HALF_PI), stage_1(math.pi)
        assert doubled.varphi == base.varphi
        assert doubled.r == pytest.approx(2.0 * base.r, rel=1e-12)


class TestCheckFeasibility:
    def test_pendulum_certificate(self):
        report = check_feasibility(ex1_config(), ex1_bounds(), [-0.5, -1.25])
        s1, s2 = report.stages
        assert s1.varphi == pytest.approx(6.4, rel=1e-12)
        assert s1.rhs == pytest.approx(8.145, rel=1e-12)
        assert s1.margin == pytest.approx(1.745, rel=1e-9)
        assert s1.r == pytest.approx(579.8475, rel=1e-12)
        assert s1.trivial_margin == pytest.approx(0.5, rel=1e-12)
        assert s2.varphi == pytest.approx(1466.6876690987456, rel=1e-12)
        assert s2.margin == pytest.approx(131.96233090125452, rel=1e-12)
        assert s2.trivial_margin == pytest.approx(0.15, rel=1e-12)
        assert report.feasible

    def test_matches_inline_recursion(self):
        report = check_feasibility(ex1_config(), ex1_bounds(), [0.0, 0.0])
        for stage, (var, rhs, margin, r) in zip(report.stages, inline_recursion(ex1_config(), ex1_bounds())):
            assert stage.varphi == pytest.approx(var, rel=1e-12)
            assert stage.rhs == pytest.approx(rhs, rel=1e-12)
            assert stage.margin == pytest.approx(margin, rel=1e-12)
            assert stage.r == pytest.approx(r, rel=1e-12)

    def test_small_c_uses_the_exact_steepest_gain(self):
        # At c = 2e-8 the steepest gain is pi*4.5/(2c) = 3.53e8; a slope
        # formula evaluated at theta = 0 cancels there and reads 10% low,
        # which made this prescription look FEASIBLE (margin_2 = +1.98e9).
        config = CascadeConfig(
            n=2,
            stages=(
                StageControllerParams(v_bar=4.5, c=2e-8, funnel=FunnelParams(p=1.0, q=0.05, mu=0.9)),
                StageControllerParams(v_bar=4.3e8, funnel=FunnelParams(p=1.4, q=0.05, mu=1.0)),
            ),
        )
        report = check_feasibility(config, ex1_bounds(), [0.5, 0.2])
        s1, s2 = report.stages
        assert s1.r == pytest.approx((6.4 / 0.05 + 0.9 * 0.95) * math.pi * 4.5 / 4e-8, rel=1e-12)
        assert s2.margin == pytest.approx(-2.5411162e9, rel=1e-7)
        assert not report.feasible

    def test_start_outside_envelope_is_infeasible(self):
        report = check_feasibility(ex1_config(), ex1_bounds(), [1.5, 0.0])
        assert not report.feasible
        assert report.stages[0].trivial_margin < 0.0
        assert report.stages[0].margin > 0.0
        assert "trivial condition violated at stage 1" in str(report)

    def test_boundary_start_is_infeasible(self):
        report = check_feasibility(ex1_config(), ex1_bounds(), [1.0, 0.0])
        assert not report.feasible

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            check_feasibility(ex1_config(), ex1_bounds(), [0.0])
        short = BoundsSpec(k=(0.0,), g_lo=(1.0,), g_hi=(1.0,), d_bar=(0.0,), v0_bar=1.0, r0=0.5)
        with pytest.raises(ValueError):
            check_feasibility(ex1_config(), short, [0.0, 0.0])


@given(
    n=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
def test_recursion_matches_inline_for_random_cascades(n, data):
    qs = data.draw(st.lists(st.floats(0.01, 2.0), min_size=n, max_size=n))
    extras = data.draw(st.lists(st.floats(0.0, 3.0), min_size=n, max_size=n))
    mus = data.draw(st.lists(st.floats(0.05, 4.0), min_size=n, max_size=n))
    vbs = data.draw(st.lists(st.floats(0.1, 20.0), min_size=n, max_size=n))
    # log-uniform down to c = 1e-9, where |phi_lo| = pi*v_bar/(2c) is ~1e9 * v_bar
    cs = data.draw(st.lists(st.floats(-9.0, math.log10(3.0)).map(lambda e: 10.0**e), min_size=n, max_size=n))
    ks = data.draw(st.lists(st.floats(0.0, 15.0), min_size=n, max_size=n))
    glos = data.draw(st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n))
    gext = data.draw(st.lists(st.floats(0.0, 90.0), min_size=n, max_size=n))
    dbs = data.draw(st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n))
    v0 = data.draw(st.floats(0.0, 3.0))
    r0 = data.draw(st.floats(0.0, 3.0))

    config = CascadeConfig(
        n=n,
        stages=tuple(
            StageControllerParams(v_bar=vbs[i], c=cs[i], funnel=FunnelParams(p=qs[i] + extras[i], q=qs[i], mu=mus[i]))
            for i in range(n)
        ),
    )
    bounds = BoundsSpec(
        k=ks,
        g_lo=glos,
        g_hi=[lo + e for lo, e in zip(glos, gext)],
        d_bar=dbs,
        v0_bar=v0,
        r0=r0,
    )
    report = check_feasibility(config, bounds, [0.0] * n)
    for stage, (var, rhs, margin, r) in zip(report.stages, inline_recursion(config, bounds)):
        assert stage.varphi == pytest.approx(var, rel=1e-12, abs=1e-12)
        assert stage.rhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
        assert stage.r == pytest.approx(r, rel=1e-12, abs=1e-12)


@given(data=st.data())
def test_sweep_matches_inline_recursion_for_random_templates(data):
    q = data.draw(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=2))
    extras = data.draw(st.lists(st.floats(0.0, 2.0), min_size=2, max_size=2))
    mus = data.draw(st.lists(st.floats(0.05, 4.0), min_size=2, max_size=2))
    vbs = data.draw(st.lists(st.floats(0.1, 20.0), min_size=2, max_size=2))
    cs = data.draw(st.lists(st.floats(0.3, 3.0), min_size=2, max_size=2))
    glos = data.draw(st.lists(st.floats(0.0, 10.0), min_size=2, max_size=2))
    gext = data.draw(st.lists(st.floats(0.0, 90.0), min_size=2, max_size=2))
    bounds = BoundsSpec(
        k=data.draw(st.lists(st.floats(0.0, 15.0), min_size=2, max_size=2)),
        g_lo=glos,
        g_hi=[lo + e for lo, e in zip(glos, gext)],
        d_bar=data.draw(st.lists(st.floats(0.0, 2.0), min_size=2, max_size=2)),
        v0_bar=data.draw(st.floats(0.0, 3.0)),
        r0=data.draw(st.floats(0.0, 3.0)),
    )
    deltas = [qi + e for qi, e in zip(q, extras)]
    y_d0 = data.draw(st.floats(-1.0, 1.0))
    template = RegionTemplate(controller=cascade_of(q, mus, vbs, cs), deltas=deltas, bounds=bounds, y_d0=y_d0)
    x = np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4)))
    y = np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4)))

    res = feasible_region(template, x, y)
    for iy in range(y.size):
        for ix in range(x.size):
            z1 = x[ix] - y_d0
            p1 = abs(z1) + deltas[0]
            u1 = -(2.0 * vbs[0] / math.pi) * math.atan((math.pi / (2.0 * cs[0])) * math.tan(HALF_PI * z1 / p1))
            p2 = abs(y[iy] - u1) + deltas[1]
            config = CascadeConfig(
                n=2,
                stages=tuple(
                    StageControllerParams(v_bar=vbs[i], c=cs[i], funnel=FunnelParams(p=p, q=q[i], mu=mus[i]))
                    for i, p in enumerate((p1, p2))
                ),
            )
            margins = (res.margin_c1[iy, ix], res.margin_c2[iy, ix])
            for margin, (var, rhs, expected, _) in zip(margins, inline_recursion(config, bounds)):
                # relative to the terms the margin subtracts, which it may cancel
                assert margin == pytest.approx(expected, rel=1e-12, abs=1e-12 * (abs(var) + abs(rhs)))


@settings(max_examples=300)
@given(data=st.data())
def test_bisected_mask_is_the_full_grid_mask_for_random_templates(data):
    # In a wild template the constants also reach 0 and 1e300 (mu > 0, so its
    # floor is the least subnormal); y reaches 1e200, where ||delta||^2
    # overflows and k = 0 makes the stage-2 margin NaN.  The ranges are
    # narrower than above so that about a third of the tame grids have a
    # column with both verdicts.  The margins come from the row tiles.
    wild = data.draw(st.booleans())

    def pair(lo, hi, ends=(0.0, 1e300)):
        value = st.one_of(st.floats(lo, hi), st.sampled_from(ends)) if wild else st.floats(lo, hi)
        return [data.draw(value) for _ in range(2)]

    q = data.draw(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=2))
    extras = data.draw(st.lists(st.floats(0.0, 2.0), min_size=2, max_size=2))
    mus = pair(0.05, 4.0, ends=(5e-324, 1e300))
    vbs = data.draw(st.lists(st.floats(1.0, 20.0), min_size=2, max_size=2))
    cs = data.draw(st.lists(st.floats(0.3, 3.0), min_size=2, max_size=2))
    glos = [lo * scale for lo, scale in zip(pair(1.0, 10.0), (1.0, 100.0))]
    gext = pair(0.0, 2.0)
    bounds = BoundsSpec(
        k=pair(0.0, 2.0),
        g_lo=glos,
        g_hi=[lo + e for lo, e in zip(glos, gext)],
        d_bar=data.draw(st.lists(st.floats(0.0, 0.5), min_size=2, max_size=2)),
        v0_bar=data.draw(st.floats(0.0, 1.0)),
        r0=data.draw(st.floats(0.0, 1.0)),
    )
    deltas = [qi + e for qi, e in zip(q, extras)]
    y_d0 = data.draw(st.floats(-1.0, 1.0))
    template = RegionTemplate(controller=cascade_of(q, mus, vbs, cs), deltas=deltas, bounds=bounds, y_d0=y_d0)
    x = np.array(data.draw(st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=6)))
    z1 = x[0] - y_d0
    u1 = _start_output(z1, abs(z1) + deltas[0], template.controller.stages[0])
    pool = data.draw(st.lists(st.one_of(st.floats(-5.0, 5.0), st.sampled_from([-1e200, 1e200])), min_size=1, max_size=8))
    ys = data.draw(st.lists(st.sampled_from(pool), max_size=16))  # with repeats
    y = np.array(data.draw(st.permutations(ys + [u1])))

    res = feasible_region(template, x, y)
    assert np.array_equal(res.feasible, (res.margin_c1 > 0.0) & (res.margin_c2 > 0.0))


def bits(values):
    """The IEEE bit patterns of float values, so -0.0 and each NaN compare exactly."""
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


# 0, the least subnormal, a larger subnormal and 1e300 (positive-only
# constants skip 0).
EXTREMES = (0.0, 5e-324, 1e-310, 1e300)


@settings(max_examples=300)
@given(n=st.integers(min_value=1, max_value=4), data=st.data())
def test_scalar_certificate_matches_one_element_arrays_bit_for_bit(n, data):
    # check_feasibility runs the recursion on Python floats, the sweep on
    # arrays; both must give the same bits, NaN and +/-inf included, and the
    # scalar path must raise no warning of its own.  Only a wild cascade
    # takes its constants from EXTREMES too.
    wild = data.draw(st.booleans())

    def draw(lo, hi, positive=False):
        ends = EXTREMES[1:] if positive else EXTREMES
        value = st.one_of(st.floats(lo, hi), st.sampled_from(ends)) if wild else st.floats(lo, hi)
        return [data.draw(value) for _ in range(n)]

    q, mu, v_bar, c = draw(0.01, 2.0, True), draw(0.05, 4.0, True), draw(0.1, 20.0, True), draw(0.3, 3.0, True)
    extra, g_lo, g_ext = draw(0.0, 3.0), draw(0.0, 10.0), draw(0.0, 90.0)
    config = CascadeConfig(
        n=n,
        stages=tuple(
            StageControllerParams(v_bar=v_bar[i], c=c[i], funnel=FunnelParams(p=q[i] + extra[i], q=q[i], mu=mu[i]))
            for i in range(n)
        ),
    )
    bounds = BoundsSpec(
        k=draw(0.0, 15.0),
        g_lo=g_lo,
        g_hi=[lo + e for lo, e in zip(g_lo, g_ext)],
        d_bar=draw(0.0, 2.0),
        v0_bar=draw(0.0, 3.0)[0],
        r0=draw(0.0, 3.0)[0],
    )
    z = st.floats(allow_nan=False, allow_infinity=False) if wild else st.floats(-3.0, 3.0)
    z0 = data.draw(st.lists(z, min_size=n, max_size=n))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = check_feasibility(config, bounds, z0)
    p = [np.array([s.funnel.p]) for s in config.stages]
    with np.errstate(all="ignore"):
        rows = _certificate(bounds, p, config.stages)
        slews = [_slew(varphi, p_i, law) for (varphi, _, _), p_i, law in zip(rows, p, config.stages)]
    for s, (varphi, rhs, margin), r in zip(report.stages, rows, slews):
        assert bits([s.varphi, s.rhs, s.margin, s.r]) == bits([varphi[0], rhs[0], margin[0], r[0]])
        for name in ("varphi", "rhs", "margin", "r", "p", "z0", "trivial_margin"):
            assert type(getattr(s, name)) is float, name


class TestMarginMonotonicity:
    def base_margins(self):
        return [s.margin for s in check_feasibility(ex1_config(), ex1_bounds(), [0.0, 0.0]).stages]

    def test_growth_constant_never_helps(self):
        base = self.base_margins()
        worse = BoundsSpec(k=(0.5, 9.8 * math.sqrt(2.0) + 1.0), g_lo=(1.0, 100.0), g_hi=(1.0, 100.0), d_bar=(0.0, 0.5), v0_bar=1.0, r0=0.5)
        new = [s.margin for s in check_feasibility(ex1_config(), worse, [0.0, 0.0]).stages]
        assert all(m_new <= m_old for m_new, m_old in zip(new, base))

    def test_disturbance_never_helps(self):
        base = self.base_margins()
        worse = BoundsSpec(k=(0.0, 9.8 * math.sqrt(2.0)), g_lo=(1.0, 100.0), g_hi=(1.0, 100.0), d_bar=(0.3, 1.5), v0_bar=1.0, r0=0.5)
        new = [s.margin for s in check_feasibility(ex1_config(), worse, [0.0, 0.0]).stages]
        assert all(m_new <= m_old for m_new, m_old in zip(new, base))

    def test_reference_rate_never_helps(self):
        base = self.base_margins()
        worse = BoundsSpec(k=(0.0, 9.8 * math.sqrt(2.0)), g_lo=(1.0, 100.0), g_hi=(1.0, 100.0), d_bar=(0.0, 0.5), v0_bar=1.0, r0=2.5)
        new = [s.margin for s in check_feasibility(ex1_config(), worse, [0.0, 0.0]).stages]
        assert all(m_new <= m_old for m_new, m_old in zip(new, base))

    def test_own_stage_cap_never_hurts_when_g_lo_positive(self):
        base = self.base_margins()
        config = ex1_config()
        wider = CascadeConfig(
            n=2,
            stages=(
                StageControllerParams(v_bar=5.5, funnel=config.stages[0].funnel),
                config.stages[1],
            ),
        )
        new = check_feasibility(wider, ex1_bounds(), [0.0, 0.0]).stages[0].margin
        assert new >= base[0]


def write_csv_rows(res, path):
    """region.csv for arrays no sweep gives, written through region_to_csv's writer and line format."""
    xs = ["%.17g" % v for v in res.x.tolist()]
    rows = zip(res.y.tolist(), res.feasible, res.margin_c1, res.margin_c2)
    blocks = (zip(xs, repeat("%.17g" % y), f.tolist(), a.tolist(), b.tolist()) for y, f, a, b in rows)
    _write_csv(path, "x,y,feasible,margin_c1,margin_c2", "%s,%s,%d,%.17g,%.17g\n", blocks)


class TestRegion:
    def test_pendulum_start_cell_is_feasible(self):
        pt = check_point(ex1_template(), -0.5, 1.0)
        assert pt.feasible
        assert pt.stages[0].p == pytest.approx(1.0, rel=1e-12)
        assert pt.stages[1].p == pytest.approx(1.35, rel=1e-12)
        assert pt.stages[0].margin == pytest.approx(1.795, rel=1e-9)
        assert pt.stages[1].margin == pytest.approx(137.1683252651053, rel=1e-9)

    def test_second_example_simulated_start_is_feasible(self):
        pt = check_point(ex2_template(), 0.5, -0.8)
        assert pt.feasible
        assert (pt.stages[0].p, pt.stages[1].p) == (pytest.approx(1.0, rel=1e-12), pytest.approx(0.4, rel=1e-12))
        assert pt.stages[0].margin == pytest.approx(0.722, rel=1e-9)
        assert pt.stages[1].margin == pytest.approx(2.800171547131697, rel=1e-9)

    def test_second_example_claimed_member_is_not_feasible(self):
        # The narrower start (0.2, -0.8) fails the stage-2 margin under the
        # offset parameterization; reported as-is, never patched over.
        pt = check_point(ex2_template(), 0.2, -0.8)
        assert not pt.feasible
        assert pt.stages[0].margin == pytest.approx(0.07057142857143, rel=1e-9)
        assert pt.stages[1].margin == pytest.approx(-8.753589691475526, rel=1e-9)

    def test_far_cells_are_infeasible(self):
        # at |x| = 1e17, z_1/p_1 rounds to +/-1 and the stage-1 law needs the clamp
        x = np.array([-1e17, -50.0, 50.0, 1e17])
        res = feasible_region(ex1_template(), x, np.array([0.0]))
        assert not res.feasible.any()
        assert (res.margin_c1 < 0.0).all()
        assert not any(check_point(ex1_template(), xi, 0.0).feasible for xi in x)

    def test_sweep_matches_point_checks_everywhere(self):
        template = ex1_template()
        x = np.linspace(-2.0, 2.0, 21)
        y = np.linspace(-2.0, 2.0, 21)
        res = feasible_region(template, x, y)
        for iy in range(y.size):
            for ix in range(x.size):
                pt = check_point(template, x[ix], y[iy])
                assert pt.feasible == bool(res.feasible[iy, ix])
                assert res.margin_c1[iy, ix] == pt.stages[0].margin
                assert res.margin_c2[iy, ix] == pt.stages[1].margin

    def test_sweep_matches_point_checks_second_example(self):
        template = ex2_template()
        x = np.linspace(-1.5, 1.5, 15)
        y = np.linspace(-1.5, 1.5, 15)
        res = feasible_region(template, x, y)
        for iy in range(y.size):
            for ix in range(x.size):
                pt = check_point(template, x[ix], y[iy])
                assert pt.feasible == bool(res.feasible[iy, ix])
                assert res.margin_c1[iy, ix] == pt.stages[0].margin
                assert res.margin_c2[iy, ix] == pt.stages[1].margin

    def test_region_nonempty_and_contains_starts(self):
        res1 = feasible_region(ex1_template(), np.linspace(-2, 2, 41), np.linspace(-2, 2, 41))
        assert res1.feasible.any()
        res2 = feasible_region(ex2_template(), np.linspace(-2, 2, 41), np.linspace(-2, 2, 41))
        assert res2.feasible.any()

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            feasible_region(ex1_template(), np.array([]), np.array([0.0]))
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                feasible_region(ex1_template(), np.array([0.0, bad]), np.array([0.0]))

    def test_template_validation(self):
        ex1 = cascade_of(q=(0.05, 0.05), mu=(0.9, 1.0), v_bar=(4.5, 8.0))
        with pytest.raises(ValueError):
            RegionTemplate(controller=ex1, deltas=(0.0, 0.1), bounds=ex1_bounds())
        with pytest.raises(ValueError):
            # offset below the steady-state bound would make some cells invalid
            RegionTemplate(controller=ex1, deltas=(0.01, 0.1), bounds=ex1_bounds())
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                RegionTemplate(controller=ex1, deltas=(0.5, bad), bounds=ex1_bounds())
        short = BoundsSpec(k=(0.0,), g_lo=(1.0,), g_hi=(1.0,), d_bar=(0.0,), v0_bar=1.0, r0=0.5)
        with pytest.raises(ValueError):
            RegionTemplate(controller=ex1, deltas=(0.5, 0.1), bounds=short)

    def test_large_second_stage_q_does_not_break_point_checks(self):
        # p_1 derived at a near-reference cell can be smaller than q_2; the
        # point check must still evaluate (stage objects are built per stage)
        template = RegionTemplate(
            controller=cascade_of(q=(0.05, 0.9), mu=(0.9, 1.0), v_bar=(4.5, 8.0)),
            deltas=(0.5, 1.0),
            bounds=ex1_bounds(),
        )
        pt = check_point(template, 0.1, 0.0)
        assert pt.stages[0].p == pytest.approx(0.6, rel=1e-12)
        res = feasible_region(template, np.array([0.1]), np.array([0.0]))
        assert bool(res.feasible[0, 0]) == pt.feasible

    @pytest.mark.parametrize(
        "nx, ny",
        [
            (2, 2),
            (101, 2 * (_TILE_CELLS // 101) + 7),  # two full row tiles and a partial one
            (_TILE_CELLS + 1, 3),  # rows wider than the budget: one row per tile
        ],
    )
    @pytest.mark.parametrize("template", [ex1_template(), ex2_template()], ids=["ex1", "ex2"])
    def test_tiled_sweep_matches_one_full_grid_certificate(self, template, nx, ny):
        x = np.linspace(-2.0, 2.0, nx)
        y = np.linspace(-2.5, 2.5, ny)
        law = template.controller.stages[0]
        p1 = np.array([abs(xi - template.y_d0) + template.deltas[0] for xi in x.tolist()])
        u1 = np.array([_start_output(xi - template.y_d0, p, law) for xi, p in zip(x.tolist(), p1.tolist())])
        p2 = np.abs(y[:, None] - u1) + template.deltas[1]
        (_, _, m1), (_, _, m2) = _certificate(template.bounds, (p1, p2), template.controller.stages)
        res = feasible_region(template, x, y)
        assert res.margin_c1.shape == res.margin_c2.shape == res.feasible.shape == (ny, nx)
        assert np.array_equal(res.margin_c1, m1)
        assert np.array_equal(res.margin_c2, m2)
        assert np.array_equal(res.feasible, (m1 > 0.0) & (m2 > 0.0))

    def test_point_report_fields_are_python_floats(self):
        for template, (x, y) in ((ex1_template(), (-0.5, 1.0)), (ex2_template(), (0.2, -0.8))):
            for s in check_point(template, x, y).stages:
                for name in ("varphi", "rhs", "margin", "r", "p", "z0", "trivial_margin"):
                    assert type(getattr(s, name)) is float, name

    @pytest.mark.parametrize("x, y", [(math.inf, 0.0), (0.0, -math.inf), (0.0, math.nan)])
    def test_point_check_rejects_non_finite_start(self, x, y):
        with pytest.raises(ValueError):
            check_point(ex1_template(), x, y)

    @pytest.mark.parametrize(
        "res, write",
        [
            (feasible_region(ex1_template(), np.linspace(-2.0, 2.0, 37), np.linspace(-2.0, 2.0, 29)), region_to_csv),
            (
                SimpleNamespace(
                    x=np.array([-0.0, 1e-300, 2.5]),
                    y=np.array([0.1, -1e17]),
                    feasible=np.array([[True, False, True], [False, False, True]]),
                    margin_c1=np.array([[-0.0, np.inf, np.nan], [1.0 / 3.0, -np.inf, 5e-324]]),
                    margin_c2=np.array([[np.nan, -0.0, 0.0], [np.inf, 123456789.125, -2.0]]),
                ),
                write_csv_rows,
            ),
        ],
        ids=["sweep", "special-values"],
    )
    def test_csv_bytes_match_per_cell_writer(self, res, write, tmp_path):
        lines = ["x,y,feasible,margin_c1,margin_c2\n"]
        for iy in range(res.y.size):
            for ix in range(res.x.size):
                lines.append(
                    f"{res.x[ix]:.17g},{res.y[iy]:.17g},{1 if res.feasible[iy, ix] else 0},"
                    f"{res.margin_c1[iy, ix]:.17g},{res.margin_c2[iy, ix]:.17g}\n"
                )
        path = tmp_path / "region.csv"
        write(res, path)
        assert path.read_bytes() == "".join(lines).encode("utf-8")

    def test_result_owns_its_axes(self, tmp_path):
        template = ex1_template()
        x = np.linspace(-2.0, 2.0, 23)
        y = np.linspace(-2.5, 2.5, 19)
        res = feasible_region(template, x, y)
        before = tmp_path / "before.csv"
        region_to_csv(res, before)
        mask = res.feasible.copy()
        assert mask.any() and not mask.all()
        x += 5.0
        y *= -3.0
        for frozen in (res.x, res.feasible, res.margin_c1, res.margin_c2):
            with pytest.raises(ValueError):
                frozen[0] = 0.0
        fresh = feasible_region(template, np.linspace(-2.0, 2.0, 23), np.linspace(-2.5, 2.5, 19))
        assert np.array_equal(res.feasible, mask)
        assert np.array_equal(res.margin_c1, fresh.margin_c1)
        assert np.array_equal(res.margin_c2, fresh.margin_c2)
        assert np.array_equal(mask, (res.margin_c1 > 0.0) & (res.margin_c2 > 0.0))
        assert res.margin_c1 is res.margin_c1  # computed once, then cached
        after = tmp_path / "after.csv"
        region_to_csv(res, after)
        assert after.read_bytes() == before.read_bytes()

    def test_sweep_and_csv_never_hold_margin_grids(self, tmp_path):
        # At 1001^2 the two float64 margin grids take 16 MB; the mask alone 1 MB.
        template = ex1_template()
        big = (np.linspace(-2.0, 2.0, 1001), np.linspace(-2.0, 2.0, 1001))
        small = feasible_region(template, np.linspace(-2.0, 2.0, 501), np.linspace(-2.0, 2.0, 501))
        tracemalloc.start()
        try:
            res = feasible_region(template, *big)
            sweep_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            region_to_csv(small, tmp_path / "region.csv")
            csv_extra = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert sweep_peak < 4e6
        assert csv_extra < 3e6
        assert "_margins" not in res.__dict__
        assert "_margins" not in small.__dict__

    @pytest.mark.parametrize("name, cells", [("pendulum_ex1", 414225), ("nonlinear_ex2", 126883)])
    def test_bundled_masks_at_1001_match_the_full_tiles(self, name, cells):
        region = builtin_system(name).region.with_grid(1001, 1001)
        res = feasible_region(region.template, region.x, region.y)
        assert np.array_equal(res.feasible, (res.margin_c1 > 0.0) & (res.margin_c2 > 0.0))
        assert np.count_nonzero(res.feasible) == cells

    @pytest.mark.parametrize("ny", [255, 256, 65535, 65536])
    def test_narrow_rank_mask_at_the_dtype_boundaries(self, ny):
        # Ranks and run ends are stored in the narrowest unsigned type that
        # holds ny: uint8 up to 255 rows, uint16 up to 65535.  On the y axis
        # (shuffled, with repeats and u_1 of the middle column on it) the
        # first column's run reaches the top rank, so its end is ny itself,
        # and the last column's run starts at rank 0.
        template = ex1_template()
        x = np.array([-0.6, 0.0, 0.4])
        pool = np.linspace(-3.0, 3.0, ny - 3)
        z1 = x[1] - template.y_d0
        u1 = _start_output(z1, abs(z1) + template.deltas[0], template.controller.stages[0])
        y = np.random.default_rng(ny).permutation(np.concatenate([pool, pool[[1, -1]], [u1]]))
        res = feasible_region(template, x, y)
        assert res.feasible.dtype == bool and not res.feasible.flags.writeable
        assert np.array_equal(res.feasible, (res.margin_c1 > 0.0) & (res.margin_c2 > 0.0))
        top, bottom = np.argmax(y), np.argmin(y)
        assert res.feasible[top, 0] and res.feasible[bottom, 2] and not res.feasible.all(axis=0).any()

    def test_check_point_certifies_through_check_feasibility(self, monkeypatch):
        # check_point runs check_feasibility, looked up on the module, once
        # per probe; the benchmark traces it as the one nested span.
        calls = []

        def counted(*args):
            calls.append(args)
            return check_feasibility(*args)

        monkeypatch.setattr(feasibility, "check_feasibility", counted)
        template = ex1_template()
        for k, (x, y) in enumerate([(-0.5, 1.0), (0.0, 0.0), (1.9, -1.9), (1e17, 0.0)]):
            report = check_point(template, x, y)
            assert len(calls) == k + 1
            assert report == check_feasibility(*calls[-1])

    def test_sweep_takes_one_certificate_row_per_bisection_step(self, monkeypatch):
        shapes = []

        def counted(bounds, p, stages):
            shapes.append(np.shape(p[1]))
            return _certificate(bounds, p, stages)

        monkeypatch.setattr(feasibility, "_certificate", counted)
        axis = np.linspace(-2.0, 2.0, 1001)
        feasible_region(ex1_template(), axis, axis)
        assert 0 < len(shapes) <= 2 * math.ceil(math.log2(axis.size + 1))
        assert set(shapes) == {(axis.size,)}

    def test_csv_round_trip(self, tmp_path):
        res = feasible_region(ex1_template(), np.linspace(-1, 1, 5), np.linspace(-1, 1, 4))
        path = tmp_path / "region.csv"
        region_to_csv(res, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,y,feasible,margin_c1,margin_c2"
        assert len(lines) == 1 + 5 * 4
        first = lines[1].split(",")
        assert float(first[0]) == res.x[0]
        assert float(first[3]) == res.margin_c1[0, 0]
        assert float(first[4]) == res.margin_c2[0, 0]
        assert first[2] in ("0", "1")


def test_gain_range_feeds_rate_bound_most_negative_end():
    stage = StageControllerParams(v_bar=4.5, funnel=FunnelParams(p=1.0, q=0.05, mu=0.9))
    lo, hi = gain_range(stage)
    assert lo == pytest.approx(-4.5, rel=1e-12)
    assert abs(lo) >= abs(hi)
