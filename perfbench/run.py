"""Benchmark of funnelcap: certify, map and simulate, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory.  Workloads (see README.md and BENCHMARK.json):

    sim_long        CLI ``simulate`` on the bundled pendulum, 20 s horizon
    ensemble_short  100 seeded short closed-loop scenarios in one process
    certify_sweep   seeded region sweeps, point probes and n-stage certificates
    region_cli      CLI ``region`` on the bundled pendulum at 501x501

Each pass runs in a fresh child interpreter, one at a time.  For ``--seconds``
the run repeats rounds of a set-up probe and a pass (``--trace 0``), or of an
untraced and a traced pass (``--trace 1``), and reports medians.  Every output is
checked.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
of BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
A record with the machine, versions and every raw sample is written under
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBE = "import sys, funnelcap\nfor path in sys.argv[1:]:\n    funnelcap.load_scenario(path)\n"

# kind "cli": a pass is one CLI process; kind "pass": one child.py process.
WORKLOADS = {
    "sim_long": ("cli", wl.sim_long_inputs, wl.check_sim_long),
    "ensemble_short": ("pass", wl.ensemble_inputs, wl.check_ensemble),
    "certify_sweep": ("pass", wl.certify_inputs, wl.check_certify),
    "region_cli": ("cli", wl.region_inputs, wl.check_region),
}


# Units of the workload-specific metrics kept in the record.
UNITS = {
    "wall_s": "s",
    "traced_wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_s_per_s": "s/s",
    "scenario_s.p50": "s",
    "scenario_s.p90": "s",
    "cells_per_s": "1/s",
    "probes_per_s": "1/s",
    "failed_frac": "ratio",
}


class Proc:
    """One finished child process: wall time from spawn to exit, exit code,
    peak resident memory and captured standard output."""

    def __init__(self, argv: list[str], work: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        out_path, err_path = work / "stdout.txt", work / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
            self.wall_s = time.perf_counter() - t0
        proc.returncode = self.exit = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.stdout = out_path.read_text(encoding="utf-8", errors="replace")
        self.stderr = err_path.read_text(encoding="utf-8", errors="replace")


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3 if values else []
    return statistics.quantiles(values, n=4)


def median(values: list) -> float | int:
    """Median; a count stays a whole number."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def percentile(values: list[float], q: float) -> float:
    """Nearest rank: the smallest sample with at most a share 1 - q above it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Run:
    """One benchmark run of one workload: passes, checks and samples."""

    def __init__(self, workload: str, seed: int, size: dict) -> None:
        self.workload = workload
        self.kind, make_inputs, self.check = WORKLOADS[workload]
        self.dir = OUT / workload
        self.work = self.dir / "work"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.inputs = make_inputs(ROOT, self.work, seed, size)
        self.fails = wl.Failures()
        self.samples: dict[str, list[float]] = {}
        self.layers: list[dict] = []
        self.details: dict = {}

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def setup_probe(self, timed: bool = True) -> None:
        """Spawn + import funnelcap + load_scenario of every config the workload uses."""
        proc = Proc([sys.executable, "-c", SETUP_PROBE, *self.inputs["setup_configs"]], self.work)
        if timed:
            self.fails.op(proc.exit == 0, f"set-up probe: exit {proc.exit}: {proc.stderr[-500:]}")
            self.add("setup_s", proc.wall_s)
        elif proc.exit != 0:
            raise RuntimeError(f"funnelcap cannot be imported from {ROOT / 'src'}: {proc.stderr[-500:]}")

    def one_pass(self, traced: bool) -> None:
        result_path = self.work / "result.json"
        result_path.unlink(missing_ok=True)
        child = [sys.executable, str(HERE / "child.py"), "--result", str(result_path)]
        if traced:
            child += ["--spans", str(self.dir / "spans.npz")]
        if self.kind == "cli":
            argv = self.inputs["cli_argv"]
            proc = Proc(child + ["cli", *argv] if traced else [sys.executable, "-m", "funnelcap.cli", *argv], self.work)
        else:
            proc = Proc(child + ["pass", self.workload, "--inputs", self.inputs["pass_inputs"]], self.work)
        if proc.exit != 0 or ((traced or self.kind == "pass") and not result_path.exists()):
            self.fails.op(False, f"{self.workload} pass: exit {proc.exit}: {proc.stderr[-500:]}")
            return
        inner = json.loads(result_path.read_text(encoding="utf-8")) if result_path.exists() else None
        try:
            self.details.update(self.check(self.inputs, proc.stdout if self.kind == "cli" else inner, self.fails))
        except (OSError, ValueError, LookupError) as e:
            self.fails.op(False, f"{self.workload}: outputs unreadable: {e!r}")
        wall = proc.wall_s if self.kind == "cli" else inner["wall_s"]
        if traced:
            self.add("traced_wall_s", wall)
            self.trace_summary(inner, proc.wall_s)
            return
        self.add("wall_s", wall)
        self.add("peak_rss_mb", proc.rss_mb)
        self.workload_metrics(inner, wall)

    def trace_summary(self, inner: dict, process_wall: float) -> None:
        trace = inner["trace"]
        layers = dict(trace["layers"])
        steps = layers["simulator.simulate.samples"] - layers["simulator.simulate.calls"]
        layers["simulator.simulate.rhs_per_sample"] = layers["plant.eval_dynamics.calls"] / steps if steps else 0.0
        top = layers["cli.main.busy_s"] if self.kind == "cli" else inner["wall_s"]
        layers["cli.interp_s"] = process_wall - top
        self.fails.op(
            trace["nested"] and trace["min_self_s"] >= 0.0,
            f"trace: spans not nested (nested={trace['nested']}, min self {trace['min_self_s']})",
        )
        self.layers.append(layers)

    def workload_metrics(self, inner: dict | None, wall: float) -> None:
        """The workload's own end-to-end rates, for the record."""
        if self.workload == "sim_long":
            self.add("sim_s_per_s", self.inputs["sim_s"] / wall)
        elif self.workload == "ensemble_short":
            rows = [r for r in inner["scenarios"] if "error" not in r]
            if rows:
                times = [r["s"] for r in rows]
                self.add("sim_s_per_s", sum(r["sim_s"] for r in rows) / wall)
                self.add("scenario_s.p50", statistics.median(times))
                self.add("scenario_s.p90", percentile(times, 0.9))
        elif self.workload == "certify_sweep":
            self.add("cells_per_s", self.inputs["cells"] / wall)
            if inner["probe_s"] > 0.0:
                self.add("probes_per_s", inner["probes"] / inner["probe_s"])
        else:
            self.add("cells_per_s", self.inputs["cells"] / wall)


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "memory_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20,
        "platform": platform.platform(),
    }


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True)
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return {"sha": None, "dirty": None}
    return {"sha": sha.stdout.strip(), "dirty": bool(status.stdout.strip())}


def measure(workload: str, seed: int, seconds: float, trace: bool, size: dict | None = None) -> Run:
    """Run rounds of passes of ``workload`` for ``seconds``: at least one
    round, and no round that is expected to end past the time."""
    run = Run(workload, seed, size or wl.FULL[workload])
    run.setup_probe(timed=False)  # compiles bytecode and warms the file cache
    start = time.perf_counter()
    rounds = 0
    while True:
        if trace:
            run.one_pass(traced=False)
            run.one_pass(traced=True)
        else:
            run.setup_probe()
            run.one_pass(traced=False)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed * (rounds + 1) / rounds > seconds:
            break
    return run


def metrics(run: Run, spec: dict, trace: bool) -> dict:
    """The BENCHMARK.json metrics of this run, medians over its passes."""
    if not run.samples.get("wall_s") or (trace and not run.layers):
        raise RuntimeError(f"no pass completed: {run.fails.reasons[-1:]}")
    if not trace:
        return {
            m["name"]: {"value": statistics.median(run.samples[m["name"]]), "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    layers = {k: median([d[k] for d in run.layers]) for k in run.layers[0]}
    untraced = statistics.median(run.samples["wall_s"])
    layers["trace.overhead_frac"] = (statistics.median(run.samples["traced_wall_s"]) - untraced) / untraced
    return {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "funnelcap" / "__init__.py").is_file():
        print(f"error: no funnelcap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    started = time.time()
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        shutil.rmtree(run.work, ignore_errors=True)
        found = metrics(run, spec, bool(args.trace))
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    attempted, failed = run.fails.attempted, run.fails.failed
    extra = {k: statistics.median(v) for k, v in run.samples.items() if k not in found}
    extra["failed_frac"] = failed / attempted
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started": started,
        "machine": machine(),
        "python": sys.version,
        "numpy": importlib.metadata.version("numpy"),
        "git": git_state(),
        "metrics": found,
        "workload_metrics": extra,
        "samples": run.samples,
        "quartiles": {k: quartiles(v) for k, v in run.samples.items()},
        "layers_per_pass": run.layers,
        "outputs": run.details,
        "attempted": attempted,
        "failures": run.fails.reasons[:50],
    }
    record_path = run.dir / f"record-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1), encoding="utf-8")

    for name, m in found.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for name, value in extra.items():
        print(f"{name} = {value:.6g} {UNITS[name]}")
    print(f"outputs: {json.dumps(run.details)}")
    for reason in run.fails.reasons[:10]:
        print(f"FAILED: {' '.join(reason.split())[:400]}")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": found}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
