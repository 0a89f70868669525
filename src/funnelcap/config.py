"""JSON scenario configurations, read, checked and assembled in one pass.

A config has sections ``system``, ``reference``, ``controller``, ``bounds``,
``sim``, and optionally ``region``.  ``system`` is either a parameter block
for one of the parametric families or the string ``builtin:<name>``, which
names a bundled config (``configs/*.json``, the only copy of the paper's two
examples): its system block is used, and each other section the config
omits, except ``region``, is taken from it.  That merge comes first; then
``resolve_config`` reads each key once, checking its type, sign and, for
per-stage lists, its length against the system order where it is read, and
builds the objects from the values it read.  An omitted ``sim.substeps`` is
derived by the sub-step rule of the simulator module notes.  Unknown keys
are rejected everywhere.  Parse errors carry file:line:column anchors;
schema errors carry the JSON-path anchor of the key they were read from.
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter
from dataclasses import dataclass
from functools import partial
from importlib import resources

import numpy as np

from .controller import CascadeConfig, StageControllerParams
from .feasibility import BoundsSpec, RegionTemplate, _start_chain
from .plant import ReferenceSpec, SystemSpec, pendulum_system, sine_chain_system, sine_reference, sine_signal
from .simulator import Scenario, _stable_substeps

__all__ = [
    "ConfigError",
    "RegionSpec",
    "ResolvedConfig",
    "resolve_config",
    "load_scenario",
    "dump_defaults",
    "builtin_system",
]

DEFAULT_GRID = (201, 201)

# The built-in examples by name: the bundled config each one is read from.
_CONFIG_FILES = {"pendulum_ex1": "ex1_pendulum.json", "nonlinear_ex2": "ex2_nonlinear.json"}

class ConfigError(ValueError):
    """A configuration failed to parse, validate, or assemble."""


def _fail(where: str, msg: str) -> None:
    raise ConfigError(f"at {where}: {msg}")


def _mapping(val, where: str, allowed: set[str], required: set[str]) -> dict:
    if not isinstance(val, dict):
        _fail(where, f"expected an object, got {type(val).__name__}")
    unknown = set(val) - allowed
    if unknown:
        _fail(where, f"unknown key(s) {sorted(unknown)}; allowed: {sorted(allowed)}")
    missing = required - set(val)
    if missing:
        _fail(where, f"missing required key(s) {sorted(missing)}")
    return val


def _number(val, where: str, positive: bool = False, nonneg: bool = False) -> float:
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        _fail(where, f"expected a number, got {val!r}")
    if not abs(val) <= sys.float_info.max:  # NaN, inf, or an integer past the float range
        _fail(where, "must be finite")
    val = float(val)
    if positive and val <= 0.0:
        _fail(where, f"must be > 0, got {val}")
    if nonneg and val < 0.0:
        _fail(where, f"must be >= 0, got {val}")
    return val


def _number_list(val, where: str, length: int | None = None, positive: bool = False, nonneg: bool = False) -> list[float]:
    if not isinstance(val, list):
        _fail(where, f"expected a list, got {type(val).__name__}")
    if length is not None and len(val) != length:
        _fail(where, f"expected {length} entries, got {len(val)}")
    return [_number(v, f"{where}[{j}]", positive=positive, nonneg=nonneg) for j, v in enumerate(val)]


def _is_count(val, least: int) -> bool:
    return isinstance(val, int) and not isinstance(val, bool) and val >= least


def _disturbance(val, where: str) -> tuple:
    # Both families are two-stage: one [amp, freq] pair per stage.
    if not isinstance(val, list) or len(val) != 2:
        _fail(where, "expected one [amp, freq] pair per stage")
    return tuple(sine_signal(*_number_list(pair, f"{where}[{j}]", length=2)) for j, pair in enumerate(val))


# Each family's factory and, for each key of its block besides ``family``,
# the factory argument it sets and how it is read.  Omitted keys take the
# factory's defaults.
_FAMILIES = {
    "pendulum": (
        pendulum_system,
        {
            "m": ("m", partial(_number, positive=True)),
            "l": ("l", partial(_number, positive=True)),
            "k": ("k", partial(_number, nonneg=True)),
            "g": ("gravity", partial(_number, nonneg=True)),
            "disturbance": ("d", _disturbance),
        },
    ),
    "sine_chain": (
        sine_chain_system,
        {
            "a": ("a", partial(_number_list, length=2)),
            "b2": ("b2", _number),
            "g": ("gains", partial(_number_list, length=2, positive=True)),
            "disturbance": ("d", _disturbance),
        },
    ),
}


@dataclass(frozen=True)
class RegionSpec:
    """Assembled region sweep: template, grid axes, and probe points."""

    template: RegionTemplate
    x: np.ndarray
    y: np.ndarray
    probe_points: tuple[tuple[float, float], ...]

    def with_grid(self, nx: int, ny: int) -> "RegionSpec":
        if nx < 2 or ny < 2:
            raise ConfigError(f"grid must be at least 2x2, got {nx}x{ny}")
        return RegionSpec(
            template=self.template,
            x=np.linspace(self.x[0], self.x[-1], nx),
            y=np.linspace(self.y[0], self.y[-1], ny),
            probe_points=self.probe_points,
        )


@dataclass(frozen=True)
class ResolvedConfig:
    scenario: Scenario
    region: RegionSpec | None


def _system(section) -> SystemSpec:
    if not isinstance(section, dict) or "family" not in section:
        _fail("$.system", "expected 'builtin:<name>' or an object with a 'family' key")
    family = section["family"]
    if not isinstance(family, str) or family not in _FAMILIES:
        _fail("$.system.family", f"unknown family {family!r}; known: {', '.join(_FAMILIES)}")
    factory, keys = _FAMILIES[family]
    _mapping(section, "$.system", {"family", *keys}, {"family"})
    kwargs = {}
    for key, val in section.items():
        if key != "family":
            arg, read = keys[key]
            kwargs[arg] = read(val, f"$.system.{key}")
    return factory(**kwargs)


def resolve_config(cfg: dict) -> ResolvedConfig:
    """Check and assemble a config into a Scenario plus optional RegionSpec.

    A ``builtin:<name>`` system is replaced by the bundled config's system
    block, and the bundled sections other than ``region`` fill in the ones
    the config omits.  Start-offset funnels (``delta``) are resolved stage by
    stage from the initial state: p_i = |z_i(0)| + delta_i, where z_i(0)
    chains through the t = 0 outputs of the already-resolved stages, with
    psi(0) = p: the one start chain check_point resolves its start by.
    """
    _mapping(cfg, "$", {"system", "reference", "controller", "bounds", "sim", "region"}, {"system"})
    if isinstance(cfg["system"], str):
        name = cfg["system"][len("builtin:"):]
        if not cfg["system"].startswith("builtin:") or name not in _CONFIG_FILES:
            _fail("$.system", f"expected 'builtin:<name>' with name in {tuple(_CONFIG_FILES)}, got {cfg['system']!r}")
        bundled = json.loads(dump_defaults(name))
        del bundled["region"]
        cfg = {**bundled, **cfg, "system": bundled["system"]}

    system = _system(cfg["system"])
    for section in ("reference", "controller", "bounds", "sim"):
        if section not in cfg:
            _fail(f"$.{section}", "required unless system is a builtin")

    ref = _mapping(cfg["reference"], "$.reference", {"amp", "freq"}, {"amp", "freq"})
    reference = sine_reference(_number(ref["amp"], "$.reference.amp"), _number(ref["freq"], "$.reference.freq"))

    sim = _mapping(cfg["sim"], "$.sim", {"x0", "horizon", "step", "substeps"}, {"x0", "horizon"})
    x0 = _number_list(sim["x0"], "$.sim.x0", length=system.n)
    horizon = _number(sim["horizon"], "$.sim.horizon", positive=True)
    step = _number(sim["step"], "$.sim.step", positive=True) if "step" in sim else Scenario.step
    substeps = sim.get("substeps")
    if "substeps" in sim and not _is_count(substeps, 1):
        _fail("$.sim.substeps", f"expected an integer >= 1, got {substeps!r}")

    controller = _controller(cfg["controller"], x0, reference)

    keys = {"k", "g_lo", "g_hi", "d_bar", "v0_bar", "r0"}
    b = _mapping(cfg["bounds"], "$.bounds", keys, keys)
    vals = {key: _number_list(b[key], f"$.bounds.{key}", length=system.n, nonneg=True) for key in ("k", "g_lo", "g_hi", "d_bar")}
    vals.update((key, _number(b[key], f"$.bounds.{key}", nonneg=True)) for key in ("v0_bar", "r0"))
    try:
        bounds = BoundsSpec(**vals)
    except ValueError as e:
        _fail("$.bounds", str(e))

    if substeps is None:
        try:
            substeps = _stable_substeps(controller, bounds, step)
        except ValueError as e:
            _fail("$.sim.substeps", str(e))
    try:
        scenario = Scenario(
            system=system,
            reference=reference,
            controller=controller,
            bounds=bounds,
            x0=x0,
            horizon=horizon,
            step=step,
            substeps=substeps,
        )
    except ValueError as e:
        _fail("$.sim", str(e))

    region = None
    if "region" in cfg:
        region = _region(cfg["region"], scenario)
    return ResolvedConfig(scenario=scenario, region=region)


def _stage(st, where: str) -> tuple:
    """Read one stage: (v_bar, c, p, delta, q, mu), with one of p and delta None."""
    _mapping(st, where, {"v_bar", "c", "funnel"}, {"v_bar", "funnel"})
    v_bar = _number(st["v_bar"], f"{where}.v_bar", positive=True)
    c = _number(st["c"], f"{where}.c", positive=True) if "c" in st else StageControllerParams.c
    fu = _mapping(st["funnel"], f"{where}.funnel", {"p", "delta", "q", "mu"}, {"q", "mu"})
    q = _number(fu["q"], f"{where}.funnel.q", positive=True)
    mu = _number(fu["mu"], f"{where}.funnel.mu", positive=True)
    if ("p" in fu) == ("delta" in fu):
        _fail(f"{where}.funnel", "exactly one of 'p' (explicit start) or 'delta' (start offset) is required")
    p = _number(fu["p"], f"{where}.funnel.p", positive=True) if "p" in fu else None
    delta = _number(fu["delta"], f"{where}.funnel.delta", positive=True) if "delta" in fu else None
    return v_bar, c, p, delta, q, mu


def _controller(section, x0: list[float], reference: ReferenceSpec) -> CascadeConfig:
    stages_cfg = _mapping(section, "$.controller", {"stages"}, {"stages"})["stages"]
    if not isinstance(stages_cfg, list) or not stages_cfg:
        _fail("$.controller.stages", "expected a non-empty list of stages")
    # Every stage is read before the count is checked, so a malformed stage
    # is named before a missing one, and no extra stage is resolved.
    read = [_stage(st, f"$.controller.stages[{j}]") for j, st in enumerate(stages_cfg)]
    if len(read) != len(x0):
        _fail("$.controller.stages", f"expected {len(x0)} stages for this system, got {len(read)}")
    stages = []
    try:  # the stage that failed is the one after those already resolved
        for law, _ in _start_chain(read, x0, reference.y_d(0.0)):
            stages.append(law)
    except ValueError as e:
        _fail(f"$.controller.stages[{len(stages)}].funnel", str(e))
    return CascadeConfig(n=len(stages), stages=tuple(stages))


def _region(section, scenario: Scenario) -> RegionSpec:
    region = _mapping(
        section,
        "$.region",
        {"deltas", "x_range", "y_range", "grid", "probe_points"},
        {"deltas", "x_range", "y_range"},
    )
    deltas = _number_list(region["deltas"], "$.region.deltas", length=2, positive=True)
    grid = region.get("grid", list(DEFAULT_GRID))
    if not (isinstance(grid, list) and len(grid) == 2 and all(_is_count(g, 2) for g in grid)):
        _fail("$.region.grid", f"expected [nx, ny] integers >= 2, got {grid!r}")
    axes = []
    for key, size in zip(("x_range", "y_range"), grid):
        rng = _number_list(region[key], f"$.region.{key}", length=2)
        # A finite hi - lo is the rule spot_check_bounds applies to its box;
        # past it np.linspace yields non-finite axes.
        if not (rng[0] < rng[1] and math.isfinite(rng[1] - rng[0])):
            _fail(f"$.region.{key}", f"range must satisfy lo < hi with a finite hi - lo, got {rng}")
        axes.append(np.linspace(rng[0], rng[1], size))
    probes = (scenario.x0,)
    if "probe_points" in region:
        if not isinstance(region["probe_points"], list):
            _fail("$.region.probe_points", "expected a list of [x, y] pairs")
        probes = tuple(
            tuple(_number_list(pt, f"$.region.probe_points[{j}]", length=2)) for j, pt in enumerate(region["probe_points"])
        )
    try:
        template = RegionTemplate(scenario.controller, deltas, scenario.bounds, scenario.reference.y_d(0.0))
    except ValueError as e:
        _fail("$.region", str(e))
    return RegionSpec(template=template, x=axes[0], y=axes[1], probe_points=probes)


def load_scenario(path) -> ResolvedConfig:
    """Read a config file and resolve it; a key repeated in one object is refused, not overwritten."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise ConfigError(f"{path}: not UTF-8 text: {e.reason} at byte {e.start}") from None

    def unique_keys(pairs: list) -> dict:
        counts = Counter(key for key, _ in pairs)
        for key, _ in pairs:
            if counts[key] > 1:
                raise ConfigError(f"{path}: repeated key {key!r}")
        return dict(pairs)

    try:
        cfg = json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}:{e.lineno}:{e.colno}: invalid JSON: {e.msg}") from None
    except ConfigError:
        raise
    except (RecursionError, ValueError) as e:  # nesting past the recursion limit, an integer past the digit limit
        raise ConfigError(f"{path}: unreadable JSON: {e}") from None
    return resolve_config(cfg)


def builtin_system(name: str) -> ResolvedConfig:
    """Load a built-in example from its bundled config: its scenario and region.

    ``pendulum_ex1`` is the paper's pendulum and ``nonlinear_ex2`` its
    sine-drift chain; ``dump_defaults(name)`` prints the constants.
    """
    return resolve_config(json.loads(dump_defaults(name)))


def dump_defaults(name: str = "pendulum_ex1") -> str:
    """Return the bundled config text for a built-in example, verbatim."""
    if name not in _CONFIG_FILES:
        raise ConfigError(f"unknown built-in config {name!r}; known: {tuple(_CONFIG_FILES)}")
    return resources.files("funnelcap").joinpath("configs", _CONFIG_FILES[name]).read_text(encoding="utf-8")
