import funnelcap
from funnelcap import config, controller, feasibility, funnel, plant, simulator


def test_public_api_is_pinned():
    # adding or removing a public name is a deliberate change: update this list with it
    assert sorted(funnelcap.__all__) == [
        "BoundFamilyReport",
        "BoundsSpec",
        "CascadeConfig",
        "CascadeDecision",
        "ConfigError",
        "DynamicsError",
        "Event",
        "FeasibilityReport",
        "FunnelParams",
        "MonitorReport",
        "ReferenceSpec",
        "RegionResult",
        "RegionSpec",
        "RegionTemplate",
        "ResolvedConfig",
        "Scenario",
        "StageControllerParams",
        "StageFeasibility",
        "SystemSpec",
        "THETA_EPS",
        "Trajectory",
        "TrivialConditionError",
        "__version__",
        "builtin_system",
        "cascade",
        "check_feasibility",
        "check_point",
        "clamp_theta",
        "dump_defaults",
        "eval_dynamics",
        "feasible_region",
        "funnel_rate",
        "funnel_rate_bounds",
        "funnel_value",
        "gain_range",
        "load_scenario",
        "monitor",
        "pendulum_system",
        "region_to_csv",
        "resolve_config",
        "simulate",
        "sine_chain_system",
        "sine_reference",
        "sine_signal",
        "spot_check_bounds",
        "stage_control",
        "stage_gain",
        "write_events_csv",
        "write_monitor_csv",
        "write_trajectory_csv",
        "zero_signal",
    ]


def test_package_api_is_the_union_of_module_lists():
    # each public name is declared once, in its module's __all__
    modules = (funnel, controller, plant, feasibility, simulator, config)
    joined = [name for mod in modules for name in mod.__all__] + ["__version__"]
    assert funnelcap.__all__ == joined
    assert len(set(joined)) == len(joined)
