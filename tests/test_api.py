import ast
import tracemalloc
from pathlib import Path

import funnelcap
from funnelcap import certificate, config, controller, feasibility, funnel, plant, simulator


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
    modules = (funnel, controller, plant, certificate, feasibility, simulator, config)
    joined = [name for mod in modules for name in mod.__all__] + ["__version__"]
    assert funnelcap.__all__ == joined
    assert len(set(joined)) == len(joined)


def package_imports():
    """Per module of the package, its relative imports of other modules as
    (target, enclosing function or None), read from the source with ast."""
    root = Path(funnelcap.__file__).parent
    names = {path.stem for path in root.glob("*.py")}
    graph = {}

    def visit(node, func, edges):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name, edges)
                continue
            if isinstance(child, ast.ImportFrom) and child.level == 1:
                targets = [child.module] if child.module else [alias.name for alias in child.names]
                edges.extend((target, func) for target in targets if target in names)
            visit(child, func, edges)

    for path in root.glob("*.py"):
        visit(ast.parse(path.read_text(encoding="utf-8")), None, graph.setdefault(path.stem, []))
    return graph


def test_intra_package_imports_form_no_cycle():
    graph = {mod: {target for target, _ in edges} for mod, edges in package_imports().items()}
    done, path = set(), []

    def walk(mod):
        assert mod not in path, f"import cycle: {' -> '.join(path[path.index(mod):] + [mod])}"
        if mod not in done:
            path.append(mod)
            for target in sorted(graph[mod]):
                walk(target)
            path.pop()
            done.add(mod)

    for mod in sorted(graph):
        walk(mod)


def test_only_the_kernel_generator_is_imported_inside_a_function():
    # simulate imports _rk4 on first use, so check and region never compile it
    graph = package_imports()
    nested = [(mod, func, target) for mod, edges in graph.items() for target, func in edges if func is not None]
    assert nested == [("simulator", "_kernel", "_rk4")]


def test_certificate_does_not_import_the_region_sweep():
    assert "feasibility" not in {target for target, _ in package_imports()["certificate"]}


def test_no_module_compiles_with_a_higher_peak_than_config():
    # Run without bytecode caches, every process compiles each module it
    # imports, and its peak memory follows the largest compile peak, which
    # is config.py's; a module grown past it raises that peak.
    peaks = {}
    for path in sorted(Path(funnelcap.__file__).parent.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        tracemalloc.start()
        try:
            compile(source, str(path), "exec")
            peaks[path.name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    ceiling = peaks.pop("config.py")
    assert {name: peak for name, peak in peaks.items() if peak >= ceiling} == {}
