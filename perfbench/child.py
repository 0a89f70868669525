"""Child process of the benchmark: one workload pass, optionally traced.

    python3 perfbench/child.py --result FILE [--spans FILE] pass WORKLOAD --inputs FILE
    python3 perfbench/child.py --result FILE [--spans FILE] cli ARGV...

``pass`` runs one in-process pass of ``ensemble_short`` or ``certify_sweep``
over inputs the parent generated; ``cli`` calls ``funnelcap.cli.main(ARGV)``
with the tracer installed.  ``funnelcap`` must be importable (the parent puts
the checkout's ``src`` on PYTHONPATH).  The result file holds the pass's
outputs; with ``--spans`` the pass is traced, the result also holds the
per-layer summary and every span is written to that file at exit.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402


def ensemble_pass(fc, inputs: dict, tracer: Tracer | None) -> dict:
    """Load, certify, simulate and monitor each generated scenario config."""
    rows = []
    t_pass = time.perf_counter()
    for i, path in enumerate(inputs["configs"]):
        if tracer is not None:
            tracer.request = i
        t0 = time.perf_counter()
        try:
            sc = fc.load_scenario(path).scenario
            z0 = fc.cascade(sc.x0, 0.0, sc.controller, sc.reference).z
            certified = fc.check_feasibility(sc.controller, sc.bounds, z0).feasible
            traj = fc.simulate(sc)
            violations = fc.monitor(traj, sc.controller, sc.bounds).total_violations
        except Exception:  # a failed scenario is counted; the pass goes on
            rows.append({"error": traceback.format_exc(limit=-2)})
            continue
        rows.append(
            {
                "s": time.perf_counter() - t0,
                "certified": certified,
                "violations": violations,
                "steps": traj.samples - 1,
                "sim_s": float(traj.t[-1]),
            }
        )
    return {"wall_s": time.perf_counter() - t_pass, "scenarios": rows}


def certify_pass(fc, inputs: dict, tracer: Tracer | None) -> dict:
    """Sweep each generated region prescription, probe it point by point,
    then certify the generated n-stage cascades."""
    import numpy as np

    regions = []
    probe_s = 0.0
    probes = 0
    t_pass = time.perf_counter()
    for j, item in enumerate(inputs["prescriptions"]):
        if tracer is not None:
            tracer.request = j
        try:
            region = fc.load_scenario(item["config"]).region
            result = fc.feasible_region(region.template, region.x, region.y)
            ix = np.asarray(item["probe_ix"])
            iy = np.asarray(item["probe_iy"])
            expected = result.feasible[iy, ix]
            xs = region.x[ix].tolist()
            ys = region.y[iy].tolist()
            template = region.template
            t0 = time.perf_counter()
            got = [fc.check_point(template, x, y).feasible for x, y in zip(xs, ys)]
            probe_s += time.perf_counter() - t0
            probes += len(got)
        except Exception:  # a failed prescription is counted; the pass goes on
            regions.append({"error": traceback.format_exc(limit=-2)})
            continue
        regions.append(
            {
                "cells": int(result.feasible.size),
                "feasible": int(np.count_nonzero(result.feasible)),
                "mismatches": int(np.count_nonzero(np.asarray(got, dtype=bool) != expected)),
            }
        )

    cascades = []
    base = len(inputs["prescriptions"])
    for k, item in enumerate(inputs["cascades"]):
        if tracer is not None:
            tracer.request = base + k
        try:
            config = fc.CascadeConfig(
                n=len(item["stages"]),
                stages=tuple(
                    fc.StageControllerParams(
                        v_bar=s["v_bar"], c=s["c"], funnel=fc.FunnelParams(p=s["p"], q=s["q"], mu=s["mu"])
                    )
                    for s in item["stages"]
                ),
            )
            bounds = fc.BoundsSpec(**item["bounds"])
            t0 = time.perf_counter()
            report = fc.check_feasibility(config, bounds, item["z0"])
            probe_s += time.perf_counter() - t0
            probes += 1
        except Exception:  # a failed cascade is counted; the pass goes on
            cascades.append({"error": traceback.format_exc(limit=-2)})
            continue
        cascades.append(
            {
                "margin": [s.margin for s in report.stages],
                "r": [s.r for s in report.stages],
                "feasible": report.feasible,
            }
        )
    return {
        "wall_s": time.perf_counter() - t_pass,
        "regions": regions,
        "cascades": cascades,
        "probe_s": probe_s,
        "probes": probes,
    }


PASSES = {"ensemble_short": ensemble_pass, "certify_sweep": certify_pass}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/child.py")
    parser.add_argument("--result", required=True, help="JSON file for the pass's outputs")
    parser.add_argument("--spans", help="trace the pass and write its spans to this .npz file")
    sub = parser.add_subparsers(dest="mode", required=True)
    p_pass = sub.add_parser("pass")
    p_pass.add_argument("workload", choices=tuple(PASSES))
    p_pass.add_argument("--inputs", required=True)
    p_cli = sub.add_parser("cli")
    p_cli.add_argument("cli_argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)

    import funnelcap as fc
    import funnelcap.cli

    tracer = None
    if args.spans:
        tracer = Tracer()
        tracer.install()

    code = 0
    if args.mode == "cli":
        t0 = time.perf_counter()
        code = funnelcap.cli.main(args.cli_argv)
        out = {"wall_s": time.perf_counter() - t0, "exit": code}
    else:
        inputs = json.loads(Path(args.inputs).read_text(encoding="utf-8"))
        out = PASSES[args.workload](fc, inputs, tracer)
    if tracer is not None:
        out["trace"] = tracer.summary()
        tracer.write(args.spans)
    Path(args.result).write_text(json.dumps(out), encoding="utf-8")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
