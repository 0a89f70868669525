"""JSON scenario configurations: strict schema validation and object assembly.

A config has sections ``system``, ``reference``, ``controller``, ``bounds``,
``sim``, and optionally ``region``.  ``system`` is either a parameter block
for one of the parametric families or the string ``builtin:<name>``, which
names a bundled config (``configs/*.json``, the only copy of the paper's two
examples): its system block is used, and each other section the config
omits, except ``region``, is taken from it.  An omitted ``sim.substeps`` is
sized from the loop's stiffness ratio (see ``_stable_substeps``).  Unknown
keys are rejected everywhere.  Parse errors carry file:line:column anchors;
schema errors carry JSON-path anchors.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from typing import NamedTuple

import numpy as np

from .controller import CascadeConfig, StageControllerParams, gain_range
from .feasibility import BoundsSpec, RegionTemplate, _start_output
from .funnel import FunnelParams
from .plant import ReferenceSpec, SystemSpec, pendulum_system, sine_chain_system, sine_reference, sine_signal
from .simulator import Scenario

__all__ = [
    "ConfigError",
    "RegionSpec",
    "ResolvedConfig",
    "load_config",
    "resolve_config",
    "load_scenario",
    "dump_defaults",
    "builtin_system",
]

DEFAULT_GRID = (201, 201)
DEFAULT_STEP = 1e-3

# The built-in examples by name: the bundled config each one is read from.
_CONFIG_FILES = {"pendulum_ex1": "ex1_pendulum.json", "nonlinear_ex2": "ex2_nonlinear.json"}

# Classic RK4 is stable on the negative real axis up to |gain * h| of about
# 2.785; omitted substeps are sized to keep the stiffness ratio below this,
# with some room to spare.
_RK4_RATIO_LIMIT = 2.5


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
    val = float(val)
    if not math.isfinite(val):
        _fail(where, "must be finite")
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


def _parse_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}:{e.lineno}:{e.colno}: invalid JSON: {e.msg}") from None


def load_config(path) -> dict:
    """Read and validate a config file; returns the raw (validated) mapping."""
    cfg = _parse_file(path)
    validate_config(cfg)
    return cfg


def validate_config(cfg: dict) -> None:
    """Structural validation: sections, keys, and value shapes."""
    _mapping(cfg, "$", {"system", "reference", "controller", "bounds", "sim", "region"}, {"system"})

    system = cfg["system"]
    is_builtin = isinstance(system, str)
    if is_builtin:
        if not system.startswith("builtin:") or system[len("builtin:"):] not in _CONFIG_FILES:
            _fail("$.system", f"expected 'builtin:<name>' with name in {tuple(_CONFIG_FILES)}, got {system!r}")
    else:
        _validate_family(system)

    if not is_builtin:
        for section in ("reference", "controller", "bounds", "sim"):
            if section not in cfg:
                _fail(f"$.{section}", "required unless system is a builtin")

    if "reference" in cfg:
        ref = _mapping(cfg["reference"], "$.reference", {"amp", "freq"}, {"amp", "freq"})
        _number(ref["amp"], "$.reference.amp")
        _number(ref["freq"], "$.reference.freq")

    if "controller" in cfg:
        ctl = _mapping(cfg["controller"], "$.controller", {"stages"}, {"stages"})
        if not isinstance(ctl["stages"], list) or not ctl["stages"]:
            _fail("$.controller.stages", "expected a non-empty list of stages")
        for j, st in enumerate(ctl["stages"]):
            where = f"$.controller.stages[{j}]"
            _mapping(st, where, {"v_bar", "c", "funnel"}, {"v_bar", "funnel"})
            _number(st["v_bar"], f"{where}.v_bar", positive=True)
            if "c" in st:
                _number(st["c"], f"{where}.c", positive=True)
            fu = _mapping(st["funnel"], f"{where}.funnel", {"p", "delta", "q", "mu"}, {"q", "mu"})
            _number(fu["q"], f"{where}.funnel.q", positive=True)
            _number(fu["mu"], f"{where}.funnel.mu", positive=True)
            if ("p" in fu) == ("delta" in fu):
                _fail(f"{where}.funnel", "exactly one of 'p' (explicit start) or 'delta' (start offset) is required")
            if "p" in fu:
                _number(fu["p"], f"{where}.funnel.p", positive=True)
            else:
                _number(fu["delta"], f"{where}.funnel.delta", positive=True)

    if "bounds" in cfg:
        bounds = _mapping(
            cfg["bounds"],
            "$.bounds",
            {"k", "g_lo", "g_hi", "d_bar", "v0_bar", "r0"},
            {"k", "g_lo", "g_hi", "d_bar", "v0_bar", "r0"},
        )
        n = len(bounds["k"]) if isinstance(bounds["k"], list) else None
        for key in ("k", "g_lo", "g_hi", "d_bar"):
            _number_list(bounds[key], f"$.bounds.{key}", length=n, nonneg=True)
        _number(bounds["v0_bar"], "$.bounds.v0_bar", nonneg=True)
        _number(bounds["r0"], "$.bounds.r0", nonneg=True)

    if "sim" in cfg:
        sim = _mapping(cfg["sim"], "$.sim", {"x0", "horizon", "step", "substeps"}, {"x0", "horizon"})
        _number_list(sim["x0"], "$.sim.x0")
        _number(sim["horizon"], "$.sim.horizon", positive=True)
        if "step" in sim:
            _number(sim["step"], "$.sim.step", positive=True)
        if "substeps" in sim:
            sub = sim["substeps"]
            if not isinstance(sub, int) or isinstance(sub, bool) or sub < 1:
                _fail("$.sim.substeps", f"expected an integer >= 1, got {sub!r}")

    if "region" in cfg:
        region = _mapping(
            cfg["region"],
            "$.region",
            {"deltas", "x_range", "y_range", "grid", "probe_points"},
            {"deltas", "x_range", "y_range"},
        )
        _number_list(region["deltas"], "$.region.deltas", length=2, positive=True)
        for key in ("x_range", "y_range"):
            rng = _number_list(region[key], f"$.region.{key}", length=2)
            if rng[0] >= rng[1]:
                _fail(f"$.region.{key}", f"range must satisfy lo < hi, got {rng}")
        if "grid" in region:
            grid = region["grid"]
            if (
                not isinstance(grid, list)
                or len(grid) != 2
                or not all(isinstance(g, int) and not isinstance(g, bool) and g >= 2 for g in grid)
            ):
                _fail("$.region.grid", f"expected [nx, ny] integers >= 2, got {grid!r}")
        if "probe_points" in region:
            if not isinstance(region["probe_points"], list):
                _fail("$.region.probe_points", "expected a list of [x, y] pairs")
            for j, pt in enumerate(region["probe_points"]):
                _number_list(pt, f"$.region.probe_points[{j}]", length=2)


def _validate_family(system) -> None:
    if not isinstance(system, dict) or "family" not in system:
        _fail("$.system", "expected 'builtin:<name>' or an object with a 'family' key")
    family = system["family"]
    if family == "pendulum":
        _mapping(system, "$.system", {"family", "m", "l", "k", "g", "disturbance"}, {"family"})
        for key in ("m", "l"):
            if key in system:
                _number(system[key], f"$.system.{key}", positive=True)
        for key in ("k", "g"):
            if key in system:
                _number(system[key], f"$.system.{key}", nonneg=True)
    elif family == "sine_chain":
        _mapping(system, "$.system", {"family", "a", "b2", "g", "disturbance"}, {"family"})
        if "a" in system:
            _number_list(system["a"], "$.system.a", length=2)
        if "b2" in system:
            _number(system["b2"], "$.system.b2")
        if "g" in system:
            _number_list(system["g"], "$.system.g", length=2, positive=True)
    else:
        _fail("$.system.family", f"unknown family {family!r}; known: pendulum, sine_chain")
    if "disturbance" in system:
        if not isinstance(system["disturbance"], list) or len(system["disturbance"]) != 2:
            _fail("$.system.disturbance", "expected one [amp, freq] pair per stage")
        for j, pair in enumerate(system["disturbance"]):
            _number_list(pair, f"$.system.disturbance[{j}]", length=2)


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


_FAMILIES = {"pendulum": (pendulum_system, "gravity"), "sine_chain": (sine_chain_system, "gains")}


def _build_system(section) -> SystemSpec:
    """Call the family's factory with the keys the block gives, so omitted
    parameters take the factory's defaults; ``g`` names its gravity or gains."""
    factory, g_name = _FAMILIES[section["family"]]
    kwargs = {g_name if key == "g" else key: val for key, val in section.items() if key not in ("family", "disturbance")}
    if "disturbance" in section:
        kwargs["d"] = tuple(sine_signal(amp, freq) for amp, freq in section["disturbance"])
    return factory(**kwargs)


def _stable_substeps(controller: CascadeConfig, bounds: BoundsSpec, step: float) -> int:
    """Smallest m >= 1 with max_i g_hi_i * |phi_lo_i| / q_i * step / m <= _RK4_RATIO_LIMIT.

    g_hi_i * |phi_lo_i| / q_i is the largest local error-feedback gain of
    stage i near its settled envelope (see the simulator module notes).
    """
    ratio = step * max(g_hi * abs(gain_range(s)[0]) / s.funnel.q for g_hi, s in zip(bounds.g_hi, controller.stages))
    return max(1, math.ceil(ratio / _RK4_RATIO_LIMIT))


def resolve_config(cfg: dict) -> ResolvedConfig:
    """Assemble the validated config into a Scenario plus optional RegionSpec.

    A ``builtin:<name>`` system is replaced by the bundled config's system
    block, and the bundled sections other than ``region`` fill in the ones
    the config omits.  Start-offset funnels (``delta``) are resolved stage by
    stage from the initial state: p_i = |z_i(0)| + delta_i, where z_i(0)
    chains through the t = 0 outputs of the already-resolved stages, with
    psi(0) = p as check_point and the region sweep have it.
    """
    validate_config(cfg)
    if isinstance(cfg["system"], str):
        bundled = json.loads(dump_defaults(cfg["system"][len("builtin:"):]))
        del bundled["region"]
        cfg = {**bundled, **cfg, "system": bundled["system"]}

    system = _build_system(cfg["system"])
    reference = sine_reference(cfg["reference"]["amp"], cfg["reference"]["freq"])
    sim = cfg["sim"]
    x0 = tuple(float(v) for v in sim["x0"])
    if len(x0) != system.n:
        _fail("$.sim.x0", f"expected {system.n} entries, got {len(x0)}")
    controller = _resolve_controller(cfg["controller"], system.n, x0, reference)

    b = cfg["bounds"]
    if len(b["k"]) != system.n:
        _fail("$.bounds", f"expected {system.n} entries per list, got {len(b['k'])}")
    try:
        bounds = BoundsSpec(k=b["k"], g_lo=b["g_lo"], g_hi=b["g_hi"], d_bar=b["d_bar"], v0_bar=b["v0_bar"], r0=b["r0"])
    except ValueError as e:
        _fail("$.bounds", str(e))

    step = float(sim.get("step", DEFAULT_STEP))
    try:
        scenario = Scenario(
            system=system,
            reference=reference,
            controller=controller,
            bounds=bounds,
            x0=x0,
            horizon=float(sim["horizon"]),
            step=step,
            substeps=sim["substeps"] if "substeps" in sim else _stable_substeps(controller, bounds, step),
        )
    except ValueError as e:
        _fail("$.sim", str(e))

    region = None
    if "region" in cfg:
        region = _resolve_region(cfg["region"], scenario)
    return ResolvedConfig(scenario=scenario, region=region)


def _resolve_controller(section, n: int, x0, reference: ReferenceSpec) -> CascadeConfig:
    stages_cfg = section["stages"]
    if len(stages_cfg) != n:
        _fail("$.controller.stages", f"expected {n} stages for this system, got {len(stages_cfg)}")
    stages = []
    prev = reference.y_d(0.0)
    for j, st in enumerate(stages_cfg):
        where = f"$.controller.stages[{j}]"
        fu = st["funnel"]
        z0_j = float(x0[j]) - prev
        p = fu["p"] if "p" in fu else abs(z0_j) + fu["delta"]
        try:
            funnel = FunnelParams(p=p, q=fu["q"], mu=fu["mu"])
            stage = StageControllerParams(v_bar=st["v_bar"], c=st.get("c", math.pi / 2.0), funnel=funnel)
        except ValueError as e:
            _fail(f"{where}.funnel", str(e))
        stages.append(stage)
        prev = _start_output(z0_j, funnel.p, stage)
    return CascadeConfig(n=n, stages=tuple(stages))


def _resolve_region(section, scenario: Scenario) -> RegionSpec:
    try:
        template = RegionTemplate(scenario.controller, section["deltas"], scenario.bounds, scenario.reference.y_d(0.0))
    except ValueError as e:
        _fail("$.region", str(e))
    nx, ny = section.get("grid", DEFAULT_GRID)
    x_lo, x_hi = section["x_range"]
    y_lo, y_hi = section["y_range"]
    probes = section.get("probe_points")
    if probes is None:
        probes = [list(scenario.x0)]
    return RegionSpec(
        template=template,
        x=np.linspace(x_lo, x_hi, nx),
        y=np.linspace(y_lo, y_hi, ny),
        probe_points=tuple((float(p[0]), float(p[1])) for p in probes),
    )


def load_scenario(path) -> ResolvedConfig:
    """Read a config file and resolve it; resolve_config validates it once."""
    return resolve_config(_parse_file(path))


class BuiltinExample(NamedTuple):
    system: SystemSpec
    reference: ReferenceSpec
    scenario: Scenario


def builtin_system(name: str) -> BuiltinExample:
    """Load a built-in example from its bundled config.

    ``pendulum_ex1`` is the paper's pendulum and ``nonlinear_ex2`` its
    sine-drift chain; ``dump_defaults(name)`` prints the constants.
    """
    scenario = resolve_config(json.loads(dump_defaults(name))).scenario
    return BuiltinExample(system=scenario.system, reference=scenario.reference, scenario=scenario)


def dump_defaults(name: str = "pendulum_ex1") -> str:
    """Return the bundled config text for a built-in example, verbatim."""
    if name not in _CONFIG_FILES:
        raise ConfigError(f"unknown built-in config {name!r}; known: {tuple(_CONFIG_FILES)}")
    return resources.files("funnelcap").joinpath("configs", _CONFIG_FILES[name]).read_text(encoding="utf-8")
