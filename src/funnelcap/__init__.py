"""funnelcap: funnel-based tracking control with capped inputs.

Certifies jointly prescribed error envelopes and input caps through
analytical per-stage feasibility margins, computes feasible initial-state
regions, and simulates the closed loop while monitoring every guaranteed
bound.  The controller needs no model of the plant drift: each stage is a
static saturating map of its normalized tracking error.
"""

from .funnel import FunnelParams, funnel_value, funnel_rate, funnel_rate_bounds
from .controller import (
    THETA_EPS,
    StageControllerParams,
    CascadeConfig,
    CascadeDecision,
    clamp_theta,
    stage_control,
    stage_gain,
    gain_range,
    cascade,
)
from .plant import (
    SystemSpec,
    ReferenceSpec,
    DynamicsError,
    eval_dynamics,
    pendulum_system,
    sine_chain_system,
    sine_reference,
    sine_signal,
    zero_signal,
    spot_check_bounds,
)
from .feasibility import (
    BoundsSpec,
    StageFeasibility,
    FeasibilityReport,
    check_feasibility,
    RegionTemplate,
    RegionResult,
    PointFeasibility,
    check_point,
    feasible_region,
    region_to_csv,
)
from .simulator import (
    Scenario,
    Event,
    Trajectory,
    TrivialConditionError,
    simulate,
    BoundFamilyReport,
    MonitorReport,
    monitor,
    write_trajectory_csv,
    write_events_csv,
    write_monitor_csv,
)
from .config import (
    ConfigError,
    RegionSpec,
    ResolvedConfig,
    load_config,
    resolve_config,
    load_scenario,
    dump_defaults,
    builtin_system,
)

__version__ = "0.1.0"

__all__ = [
    "FunnelParams",
    "funnel_value",
    "funnel_rate",
    "funnel_rate_bounds",
    "THETA_EPS",
    "StageControllerParams",
    "CascadeConfig",
    "CascadeDecision",
    "clamp_theta",
    "stage_control",
    "stage_gain",
    "gain_range",
    "cascade",
    "SystemSpec",
    "ReferenceSpec",
    "DynamicsError",
    "eval_dynamics",
    "builtin_system",
    "pendulum_system",
    "sine_chain_system",
    "sine_reference",
    "sine_signal",
    "zero_signal",
    "spot_check_bounds",
    "BoundsSpec",
    "StageFeasibility",
    "FeasibilityReport",
    "check_feasibility",
    "RegionTemplate",
    "RegionResult",
    "PointFeasibility",
    "check_point",
    "feasible_region",
    "region_to_csv",
    "Scenario",
    "Event",
    "Trajectory",
    "TrivialConditionError",
    "simulate",
    "BoundFamilyReport",
    "MonitorReport",
    "monitor",
    "write_trajectory_csv",
    "write_events_csv",
    "write_monitor_csv",
    "ConfigError",
    "RegionSpec",
    "ResolvedConfig",
    "load_config",
    "resolve_config",
    "load_scenario",
    "dump_defaults",
    "__version__",
]
