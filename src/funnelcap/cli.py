"""Command-line front end: feasibility checks, closed-loop runs, region sweeps.

Exit codes: 0 success (or feasible), 1 infeasible verdict, runtime failure or
monitor violations in a non-permissive simulate run, 2 configuration errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import _CONFIG_FILES, ConfigError, dump_defaults, load_scenario
from .controller import cascade
from .feasibility import check_feasibility, check_point, feasible_region, region_to_csv
from .plant import DynamicsError, spot_check_bounds
from .simulator import TrivialConditionError, monitor, simulate, write_events_csv, write_monitor_csv, write_trajectory_csv

_EXIT_OK = 0
_EXIT_FAIL = 1
_EXIT_CONFIG = 2
# Seeded draws of the certificate's state box in check's constants spot check.
_SPOT_SAMPLES = 2000


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="funnelcap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="evaluate the feasibility certificate for a scenario")
    p_check.add_argument("config", help="path to a scenario config (JSON)")

    p_sim = sub.add_parser("simulate", help="run the closed loop and write trajectory/event/monitor CSVs")
    p_sim.add_argument("config", help="path to a scenario config (JSON)")
    p_sim.add_argument("--out", default="out", metavar="DIR", help="output directory (default: out)")
    p_sim.add_argument(
        "--step", type=float, default=None, metavar="S", help="override the recording step (s); the RK4 sub-steps follow it"
    )
    p_sim.add_argument("--horizon", type=float, default=None, metavar="S", help="override horizon (s)")
    p_sim.add_argument(
        "--permissive",
        action="store_true",
        help="log start-condition violations instead of refusing to run",
    )

    p_reg = sub.add_parser("region", help="sweep the feasible initial-state region and write a mask CSV")
    p_reg.add_argument("config", help="path to a scenario config with a region section")
    p_reg.add_argument("--out", default="out", metavar="DIR", help="output directory (default: out)")
    p_reg.add_argument("--grid", default=None, metavar="NXxNY", help="override grid resolution, e.g. 201x201")

    p_dump = sub.add_parser("dump-defaults", help="print a bundled example config")
    p_dump.add_argument(
        "--system",
        default="pendulum_ex1",
        choices=tuple(_CONFIG_FILES),
        help="which bundled config to print",
    )
    p_dump.add_argument("--out", default=None, metavar="FILE", help="write to a file instead of stdout")
    return parser


def _cmd_check(args) -> int:
    resolved = load_scenario(args.config)
    sc = resolved.scenario
    z0 = cascade(sc.x0, 0.0, sc.controller, sc.reference).z
    report = check_feasibility(sc.controller, sc.bounds, z0)
    print(report)
    # Sample the certificate's own state box |xi_i| <= p_i + v_bar_{i-1}
    # (v_bar_0 = v0_bar).  A violation disproves a premise of the verdict;
    # a clean sample proves nothing.
    caps = (sc.bounds.v0_bar,) + tuple(s.v_bar for s in sc.controller.stages)
    box = [(-(s.funnel.p + cap), s.funnel.p + cap) for s, cap in zip(sc.controller.stages, caps)]
    families = spot_check_bounds(sc.system, sc.bounds, box, samples=_SPOT_SAMPLES)
    print(_constants_line(families, box))
    return _EXIT_OK if report.feasible and not any(any(f.violations) for f in families) else _EXIT_FAIL


def _constants_line(families, box) -> str:
    where = f"{_SPOT_SAMPLES} samples of |xi| <= ({', '.join(f'{hi:g}' for _, hi in box)})"
    broken = [
        f"stage {i + 1} {f.name} fails {f.violations[i]} times, worst margin {f.min_margin[i]:.3g} "
        f"at ({', '.join(f'{x:.6g}' for x in f.worst_at[i])})"
        for i in range(len(box))  # stage-major, then family
        for f in families
        if f.violations[i]
    ]
    if not broken:
        return f"constants: {', '.join(f.name for f in families)} hold in all {where}"
    return f"constants: VIOLATED in {where}: " + "; ".join(broken)


def _cmd_simulate(args) -> int:
    resolved = load_scenario(args.config)
    try:
        sc = resolved.scenario.with_overrides(horizon=args.horizon, step=args.step)
    except ValueError as e:
        raise ConfigError(f"--step/--horizon: {e}") from None
    out = Path(args.out)
    try:
        traj = simulate(sc, permissive=args.permissive)
    except (TrivialConditionError, DynamicsError) as e:
        print(f"simulation failed: {e}", file=sys.stderr)
        return _EXIT_FAIL
    out.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(traj, out / "trajectory.csv")
    report = monitor(traj, sc.controller, sc.bounds)
    write_monitor_csv(report, out / "monitor.csv")
    print(report)
    write_events_csv(traj.events + report.events, out / "events.csv")
    print(f"wrote {out / 'trajectory.csv'}, {out / 'events.csv'}, {out / 'monitor.csv'}")
    # A permissive run was asked to go on past broken bounds; any other run fails on them.
    return _EXIT_FAIL if report.total_violations and not args.permissive else _EXIT_OK


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        nx, ny = text.lower().split("x")
        return int(nx), int(ny)
    except ValueError:
        raise ConfigError(f"--grid expects NXxNY (e.g. 201x201), got {text!r}") from None


def _cmd_region(args) -> int:
    resolved = load_scenario(args.config)
    if resolved.region is None:
        raise ConfigError("at $.region: required for region sweeps")
    region = resolved.region
    if args.grid is not None:
        region = region.with_grid(*_parse_grid(args.grid))
    result = feasible_region(region.template, region.x, region.y)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    region_to_csv(result, out / "region.csv")
    total = result.feasible.size
    hits = int(result.feasible.sum())
    print(f"feasible cells: {hits}/{total} ({100.0 * result.fraction:.2f}%)")
    for x, y in region.probe_points:
        report = check_point(region.template, x, y)
        margins = ", ".join(f"margin_c{s.stage}={s.margin:.6g}" for s in report.stages)
        print(f"probe ({x:g}, {y:g}): {'FEASIBLE' if report.feasible else 'INFEASIBLE'} ({margins})")
    print(f"wrote {out / 'region.csv'}")
    return _EXIT_OK


def _cmd_dump(args) -> int:
    text = dump_defaults(args.system)
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")
    return _EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "check": _cmd_check,
        "simulate": _cmd_simulate,
        "region": _cmd_region,
        "dump-defaults": _cmd_dump,
    }[args.command]
    try:
        return handler(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return _EXIT_CONFIG
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return _EXIT_CONFIG
    except (ValueError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return _EXIT_FAIL


if __name__ == "__main__":
    raise SystemExit(main())
