"""The frozen value objects: each hand-written __init__ checks its inputs
and stores every field once, and must behave as the dataclass it is."""

import dataclasses
import inspect
import math

import numpy as np
import pytest

from funnelcap import (
    BoundsSpec,
    CascadeConfig,
    FeasibilityReport,
    FunnelParams,
    StageControllerParams,
    StageFeasibility,
    check_feasibility,
)

FUNNEL = FunnelParams(1.0, 0.5, 2.0)
STAGE = StageControllerParams(1.0, FUNNEL)
BOUNDS = dict(k=(1.0, 2.0), g_lo=(1.0, 1.0), g_hi=(2.0, 2.0), d_bar=(0.0, 0.0), v0_bar=1.0, r0=0.5)
CLASSES = [FunnelParams, StageControllerParams, CascadeConfig, BoundsSpec, StageFeasibility, FeasibilityReport]


def bounds(**changes):
    return BoundsSpec(**{**BOUNDS, **changes})


NOT_FINITE = "funnel parameters must be finite"
NOT_FLOAT = "float() argument must be a string or a real number, not "
BAD_BOUND = "all bound constants must be finite and >= 0"

# Each bad input with the exception type and message it raises; where two
# checks fail, the message names the one checked first.
BAD_INPUTS = [
    (lambda: FunnelParams(math.inf, 0.5, 1.0), ValueError, NOT_FINITE),
    (lambda: FunnelParams(1.0, math.nan, 1.0), ValueError, NOT_FINITE),
    (lambda: FunnelParams(1.0, 0.5, -math.inf), ValueError, NOT_FINITE),
    (lambda: FunnelParams(1.0, 0.0, 1.0), ValueError, "steady-state bound q must be > 0, got 0.0"),
    (lambda: FunnelParams(1.0, -0.5, 1.0), ValueError, "steady-state bound q must be > 0, got -0.5"),
    (lambda: FunnelParams(0.25, 0.5, 1.0), ValueError, "initial bound p must satisfy p >= q, got p=0.25, q=0.5"),
    (lambda: FunnelParams(1.0, 0.5, 0.0), ValueError, "decay rate mu must be > 0, got 0.0"),
    (lambda: FunnelParams(0.25, 0.5, 0.0), ValueError, "initial bound p must satisfy p >= q, got p=0.25, q=0.5"),
    (lambda: FunnelParams("x", 0.5, 1.0), ValueError, "could not convert string to float: 'x'"),
    (lambda: FunnelParams(None, 0.5, 1.0), TypeError, NOT_FLOAT + "'NoneType'"),
    (lambda: FunnelParams(1.0, 0.5, [1.0]), TypeError, NOT_FLOAT + "'list'"),
    (lambda: StageControllerParams(0.0, FUNNEL), ValueError, "stage output bound v_bar must be finite and > 0, got 0.0"),
    (lambda: StageControllerParams(-1.0, FUNNEL), ValueError, "stage output bound v_bar must be finite and > 0, got -1.0"),
    (lambda: StageControllerParams(math.inf, FUNNEL), ValueError, "stage output bound v_bar must be finite and > 0, got inf"),
    (lambda: StageControllerParams(math.nan, FUNNEL), ValueError, "stage output bound v_bar must be finite and > 0, got nan"),
    (lambda: StageControllerParams(1.0, FUNNEL, c=0.0), ValueError, "stage shape constant c must be finite and > 0, got 0.0"),
    (lambda: StageControllerParams(1.0, FUNNEL, c=math.inf), ValueError, "stage shape constant c must be finite and > 0, got inf"),
    (lambda: StageControllerParams(1.0, None), TypeError, "funnel must be a FunnelParams"),
    (lambda: StageControllerParams(1.0, (1.0, 0.5, 2.0)), TypeError, "funnel must be a FunnelParams"),
    (lambda: StageControllerParams(0.0, None), ValueError, "stage output bound v_bar must be finite and > 0, got 0.0"),
    (lambda: StageControllerParams("v", FUNNEL), ValueError, "could not convert string to float: 'v'"),
    (lambda: StageControllerParams(1.0, FUNNEL, c=None), TypeError, NOT_FLOAT + "'NoneType'"),
    (lambda: CascadeConfig(0, ()), ValueError, "system order n must be >= 1, got 0"),
    (lambda: CascadeConfig(-1, (STAGE,)), ValueError, "system order n must be >= 1, got -1"),
    (lambda: CascadeConfig(2, (STAGE,)), ValueError, "expected 2 stages, got 1"),
    (lambda: CascadeConfig(1, [STAGE, STAGE]), ValueError, "expected 1 stages, got 2"),
    (lambda: CascadeConfig(1, None), TypeError, "'NoneType' object is not iterable"),
    (lambda: bounds(k=()), ValueError, "bounds must cover at least one stage"),
    (lambda: bounds(g_lo=(1.0,)), ValueError, "g_lo must have 2 entries like k"),
    (lambda: bounds(g_hi=(2.0, 2.0, 2.0)), ValueError, "g_hi must have 2 entries like k"),
    (lambda: bounds(d_bar=()), ValueError, "d_bar must have 2 entries like k"),
    (lambda: bounds(k=(1.0, -2.0)), ValueError, BAD_BOUND),
    (lambda: bounds(d_bar=(0.0, math.nan)), ValueError, BAD_BOUND),
    (lambda: bounds(v0_bar=math.inf), ValueError, BAD_BOUND),
    (lambda: bounds(r0=-0.5), ValueError, BAD_BOUND),
    (lambda: bounds(g_lo=(1.0, 3.0)), ValueError, "g_lo must not exceed g_hi"),
    (lambda: bounds(k=None), TypeError, "'NoneType' object is not iterable"),
    (lambda: bounds(g_hi=("a", 2.0)), ValueError, "could not convert string to float: 'a'"),
    (lambda: bounds(v0_bar="b"), ValueError, "could not convert string to float: 'b'"),
    (lambda: bounds(g_lo=(1.0,), k=(-1.0, 1.0)), ValueError, "g_lo must have 2 entries like k"),
]


@pytest.mark.parametrize("build, exc, message", BAD_INPUTS)
def test_bad_inputs_raise_the_pinned_error(build, exc, message):
    with pytest.raises(Exception) as info:
        build()
    assert type(info.value) is exc
    assert str(info.value) == message


def examples():
    """One instance of each class, with every float field given as a str,
    an int or an np.float64, and the same instance built from floats."""
    report = check_feasibility(CascadeConfig(2, (STAGE, STAGE)), bounds(), (0.1, -0.2))
    return [
        (FunnelParams("1.5", 1, np.float64(2.0)), FunnelParams(1.5, 1.0, 2.0)),
        (StageControllerParams(np.float64(3.0), FUNNEL, c="0.5"), StageControllerParams(3.0, FUNNEL, 0.5)),
        (CascadeConfig(2, [STAGE, STAGE]), CascadeConfig(2, (STAGE, STAGE))),
        (
            BoundsSpec(k=[1, "2"], g_lo=np.array([1.0, 1.0]), g_hi=(2, 2), d_bar=(0, np.float64(0.5)), v0_bar="1", r0=np.float64(0.5)),
            bounds(d_bar=(0.0, 0.5)),
        ),
        (StageFeasibility(*dataclasses.astuple(report.stages[0])), report.stages[0]),
        (FeasibilityReport(report.stages, report.feasible), report),
    ]


@pytest.mark.parametrize("built, plain", examples(), ids=[cls.__name__ for cls in CLASSES])
def test_fields_are_stored_coerced_frozen_and_comparable(built, plain):
    cls = type(built)
    for field in dataclasses.fields(cls):
        value = getattr(built, field.name)
        if field.type == "float":
            assert type(value) is float, field.name
        elif field.type == "tuple[float, ...]":
            assert type(value) is tuple and all(type(v) is float for v in value), field.name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(built, field.name, value)
    assert list(vars(built)) == [field.name for field in dataclasses.fields(cls)]
    assert built == plain and hash(built) == hash(plain) and repr(built) == repr(plain)
    assert dataclasses.replace(built) == plain


def test_init_takes_the_fields_in_order_with_their_defaults():
    for cls in CLASSES:
        params = list(inspect.signature(cls).parameters.values())
        fields = dataclasses.fields(cls)
        assert [p.name for p in params] == [f.name for f in fields], cls
        assert [p.default for p in params] == [inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default for f in fields], cls
        assert [p.annotation for p in params] == [f.type for f in fields], cls


def test_replace_goes_back_through_the_checks():
    assert dataclasses.replace(FUNNEL, p="3").p == 3.0
    assert dataclasses.replace(STAGE, c=1).c == 1.0
    with pytest.raises(ValueError, match=r"^initial bound p must satisfy p >= q, got p=0\.25, q=0\.5$"):
        dataclasses.replace(FUNNEL, p=0.25)
    with pytest.raises(TypeError, match=r"^funnel must be a FunnelParams$"):
        dataclasses.replace(STAGE, funnel=None)
    with pytest.raises(ValueError, match=r"^expected 2 stages, got 1$"):
        dataclasses.replace(CascadeConfig(1, (STAGE,)), n=2)
    with pytest.raises(ValueError, match=r"^g_lo must not exceed g_hi$"):
        dataclasses.replace(bounds(), g_lo=(3.0, 1.0))
    assert repr(FunnelParams(1, 0.5, 2)) == "FunnelParams(p=1.0, q=0.5, mu=2.0)"
