"""Workload inputs and output checks for the funnelcap benchmark (stdlib only).

Each workload turns ``--seed`` into inputs written under its work directory,
names the command of one pass, and checks what a pass produced.  The program
sees only the generated configs and arrays, never the seed.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import math
import random
from pathlib import Path

CONFIGS = Path("src") / "funnelcap" / "configs"
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

# Full-size parameters.  The benchmark's own tests run the same code smaller.
FULL = {
    "sim_long": {"horizon": 20.0},
    "ensemble_short": {"scenarios": 100, "horizon": 0.2},
    "certify_sweep": {"prescriptions": 50, "grid": 1001, "probes": 200, "cascades": 1000},
    "region_cli": {"grid": 501},
}

# Relative tolerance between the certificate's margins and the benchmark's own
# evaluation of the documented recursion (summation order may differ).
MARGIN_RTOL = 1e-9
# Absolute tolerance on the final sim_long state against the recorded
# reference: far below the settled envelope width q = 0.05, far above the
# rounding that a reordered but equivalent computation introduces.  The
# trajectory digest shows any change in bits.
FINAL_STATE_ATOL = 1e-6


def reference() -> dict:
    """Outputs recorded at the seed commit (see README.md)."""
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


def bundled(root: Path, name: str) -> dict:
    return json.loads((root / CONFIGS / f"{name}.json").read_text(encoding="utf-8"))


def write_json(path: Path, value) -> str:
    path.write_text(json.dumps(value), encoding="utf-8")
    return str(path)


class Failures:
    """Output-check failures of one run, with the reason for each."""

    def __init__(self) -> None:
        self.attempted = 0
        self.reasons: list[str] = []

    def op(self, ok: bool, reason: str) -> None:
        self.attempted += 1
        if not ok:
            self.reasons.append(reason)

    @property
    def failed(self) -> int:
        return len(self.reasons)


# --- sim_long --------------------------------------------------------------


def sim_long_inputs(root: Path, work: Path, seed: int, size: dict) -> dict:
    """The bundled pendulum config; the seed does not change it."""
    config = str(root / CONFIGS / "ex1_pendulum.json")
    argv = ["simulate", config, "--out", str(work / "out")]
    if size["horizon"] != FULL["sim_long"]["horizon"]:
        argv += ["--horizon", repr(size["horizon"])]
    cfg = bundled(root, "ex1_pendulum")["sim"]
    steps = int(round(size["horizon"] / cfg["step"]))
    return {
        "setup_configs": [config],
        "cli_argv": argv,
        "out": work / "out",
        "steps": steps,
        "rhs_calls": 4 * cfg["substeps"] * steps,
        "sim_s": steps * cfg["step"],
        "reference": reference()["sim_long"] if size == FULL["sim_long"] else None,
    }


def check_sim_long(inputs: dict, stdout: str, fails: Failures) -> dict:
    """No monitor violations, one row per sample, final state and digest."""
    out = inputs["out"]
    with open(out / "monitor.csv", newline="", encoding="utf-8") as fh:
        monitor = list(csv.DictReader(fh))
    families = {row["family"] for row in monitor}
    violations = sum(int(row["violations"]) for row in monitor)
    data = (out / "trajectory.csv").read_bytes()
    lines = data.decode("utf-8").splitlines()
    header = lines[0].split(",")
    last = dict(zip(header, (float(v) for v in lines[-1].split(","))))
    final = [last["xi_1"], last["xi_2"]]
    digest = hashlib.sha256(data).hexdigest()
    ok = (
        families == {"error_envelope", "input_cap", "state_envelope", "output_slew"}
        and violations == 0
        and len(lines) == inputs["steps"] + 2
    )
    ref = inputs["reference"]
    if ref is not None:
        ok = ok and all(abs(a - b) <= FINAL_STATE_ATOL for a, b in zip(final, ref["final_state"]))
    fails.op(ok, f"sim_long: violations={violations} rows={len(lines) - 1} final={final}")
    return {
        "trajectory_sha256": digest,
        "bit_identical": ref is not None and digest == ref["trajectory_sha256"],
        "final_state": final,
    }


# --- ensemble_short --------------------------------------------------------


def ensemble_inputs(root: Path, work: Path, seed: int, size: dict) -> dict:
    """Seeded start states of nonlinear_ex2, each a config with delta offsets.

    The offsets are the bundled region's, so a scenario is certified exactly
    when its start cell lies in the swept region.  The box straddles that
    region's edge, so both verdicts occur.
    """
    rng = random.Random(seed)
    base = bundled(root, "ex2_nonlinear")
    deltas = base.pop("region")["deltas"]
    for stage, delta in zip(base["controller"]["stages"], deltas):
        del stage["funnel"]["p"]
        stage["funnel"]["delta"] = delta
    configs = []
    for i in range(size["scenarios"]):
        cfg = copy.deepcopy(base)
        cfg["sim"].update(x0=[rng.uniform(-1.5, 1.5), rng.uniform(-1.2, 1.2)], horizon=size["horizon"])
        configs.append(write_json(work / f"scenario_{i:03d}.json", cfg))
    steps = int(round(size["horizon"] / base["sim"]["step"]))
    return {
        "setup_configs": configs,
        "pass_inputs": write_json(work / "inputs.json", {"configs": configs}),
        "rhs_calls": 4 * base["sim"]["substeps"] * steps * size["scenarios"],
    }


def check_ensemble(inputs: dict, result: dict, fails: Failures) -> dict:
    """Every scenario ran; none is certified and yet violated."""
    certified = violated = 0
    for i, row in enumerate(result["scenarios"]):
        if "error" in row:
            fails.op(False, f"ensemble_short scenario {i}: {row['error']}")
            continue
        certified += row["certified"]
        violated += row["violations"] > 0
        fails.op(not (row["certified"] and row["violations"] > 0), f"ensemble_short scenario {i}: certified but violated")
    return {"certified": certified, "violated": violated}


# --- certify_sweep ---------------------------------------------------------


def _perturbed(base: dict, rng: random.Random) -> dict:
    cfg = copy.deepcopy(base)
    stages = cfg["controller"]["stages"]
    for stage in stages:
        stage["v_bar"] *= rng.uniform(0.8, 1.25)
        stage["funnel"]["q"] *= rng.uniform(0.8, 1.25)
        stage["funnel"]["mu"] *= rng.uniform(0.8, 1.25)
    region = cfg["region"]
    region["deltas"] = [
        max(stage["funnel"]["q"], d * rng.uniform(0.7, 1.4)) for stage, d in zip(stages, region["deltas"])
    ]
    return cfg


def _cascade(rng: random.Random, n: int) -> dict:
    """A random n-stage prescription whose caps v_bar are sized stage by stage
    around the smallest certifiable value, so that both verdicts occur."""
    stages = []
    for _ in range(n):
        p = rng.uniform(0.2, 2.0)
        stages.append(
            {
                "v_bar": 1.0,
                "c": rng.choice([math.pi / 2.0, rng.uniform(0.5, 3.0)]),
                "p": p,
                "q": p * rng.uniform(0.1, 0.8),
                "mu": rng.uniform(0.2, 2.0),
            }
        )
    g_lo = [rng.uniform(0.5, 5.0) for _ in range(n)]
    bounds = {
        "k": [rng.uniform(0.0, 2.0) for _ in range(n)],
        "g_lo": g_lo,
        "g_hi": [g * rng.uniform(1.0, 2.0) for g in g_lo],
        "d_bar": [rng.uniform(0.0, 0.5) for _ in range(n)],
        "v0_bar": rng.uniform(0.2, 1.0),
        "r0": rng.uniform(0.1, 1.0),
    }
    item = {"stages": stages, "bounds": bounds, "z0": [s["p"] * rng.uniform(-0.9, 0.9) for s in stages]}
    for i, stage in enumerate(stages):
        # Stage i's margin is g_lo_i * v_bar_i plus terms free of v_bar_i and
        # of every later cap, so sizing the caps in stage order is exact.
        needed = 1.0 - certificate(item)[0][i] / g_lo[i]
        stage["v_bar"] = max(0.5, needed * rng.uniform(0.9, 1.6))
    return item


def certify_inputs(root: Path, work: Path, seed: int, size: dict) -> dict:
    """Both bundled region templates as recorded, then seeded perturbations of
    them (deltas, v_bar, q, mu), each with grid-node probes; then seeded 3- and
    4-stage cascades."""
    rng = random.Random(seed)
    grid = size["grid"]
    bases = [bundled(root, "ex1_pendulum"), bundled(root, "ex2_nonlinear")]
    prescriptions = []
    for j in range(size["prescriptions"]):
        base = bases[j % 2]
        cfg = copy.deepcopy(base) if j < 2 else _perturbed(base, rng)
        cfg["region"]["grid"] = [grid, grid]
        path = write_json(work / f"prescription_{j:03d}.json", cfg)
        prescriptions.append(
            {
                "config": path,
                "probe_ix": [rng.randrange(grid) for _ in range(size["probes"])],
                "probe_iy": [rng.randrange(grid) for _ in range(size["probes"])],
            }
        )
    cascades = [_cascade(rng, 3 + k % 2) for k in range(size["cascades"])]
    configs = [p["config"] for p in prescriptions]
    return {
        "setup_configs": configs,
        "pass_inputs": write_json(work / "inputs.json", {"prescriptions": prescriptions, "cascades": cascades}),
        "cascades": cascades,
        "cells": grid * grid * size["prescriptions"],
        "reference_counts": reference()["certify_sweep"].get(f"feasible_cells_{grid}"),
    }


def _phi_lo(v_bar: float, c: float) -> float:
    """Magnitude of the most negative stage gain over theta in (-1, 1)."""
    return math.pi * v_bar / (2.0 * c) if c < math.pi / 2.0 else 2.0 * v_bar * c / math.pi


def certificate(item: dict) -> tuple[list[float], bool]:
    """Margins and verdict of the documented n-stage recursion, evaluated
    independently of the package."""
    s, b = item["stages"], item["bounds"]
    n = len(s)
    caps = [b["v0_bar"]] + [st["v_bar"] for st in s]
    r_prev = b["r0"]
    margins = []
    for i in range(n):
        norm = math.sqrt(sum((s[j]["p"] + caps[j]) ** 2 for j in range(i + 1)))
        varphi = b["k"][i] * norm + b["d_bar"][i] + b["g_hi"][i] * s[i]["v_bar"] + r_prev
        if i < n - 1:
            varphi += b["g_hi"][i] * s[i + 1]["p"]
        rhs = (b["g_hi"][i] + b["g_lo"][i]) * s[i]["v_bar"] + s[i]["mu"] * (s[i]["q"] - s[i]["p"])
        margins.append(rhs - varphi)
        r_prev = (varphi / s[i]["q"] + s[i]["mu"] * (s[i]["p"] - s[i]["q"]) / s[i]["p"]) * _phi_lo(s[i]["v_bar"], s[i]["c"])
    feasible = all(m > 0.0 for m in margins) and all(abs(z) < st["p"] for z, st in zip(item["z0"], s))
    return margins, feasible


def check_certify(inputs: dict, result: dict, fails: Failures) -> dict:
    """Mask agrees with every probe, reference counts hold, and each cascade
    certificate matches the documented recursion."""
    counts = []
    for j, row in enumerate(result["regions"]):
        if "error" in row:
            fails.op(False, f"certify_sweep prescription {j}: {row['error']}")
            continue
        counts.append(row["feasible"])
        ok = row["mismatches"] == 0
        ref = inputs["reference_counts"]
        if j < 2 and ref is not None:
            ok = ok and row["feasible"] == ref[j]
        fails.op(ok, f"certify_sweep prescription {j}: {row['mismatches']} probe mismatches, {row['feasible']} feasible")
    feasible = 0
    for k, (row, item) in enumerate(zip(result["cascades"], inputs["cascades"])):
        if "error" in row:
            fails.op(False, f"certify_sweep cascade {k}: {row['error']}")
            continue
        margins, verdict = certificate(item)
        ok = row["feasible"] == verdict and all(
            math.isclose(a, e, rel_tol=MARGIN_RTOL, abs_tol=MARGIN_RTOL) for a, e in zip(row["margin"], margins)
        )
        feasible += row["feasible"]
        fails.op(ok, f"certify_sweep cascade {k}: margins {row['margin']} expected {margins}")
    return {"feasible_cells": counts, "feasible_cascades": feasible}


# --- region_cli ------------------------------------------------------------


def region_inputs(root: Path, work: Path, seed: int, size: dict) -> dict:
    """The bundled pendulum config at the given grid; the seed does not change it."""
    config = str(root / CONFIGS / "ex1_pendulum.json")
    grid = size["grid"]
    return {
        "setup_configs": [config],
        "cli_argv": ["region", config, "--grid", f"{grid}x{grid}", "--out", str(work / "out")],
        "out": work / "out",
        "cells": grid * grid,
        "probes": len(bundled(root, "ex1_pendulum")["region"]["probe_points"]),
        "reference": reference()["region_cli"].get(f"feasible_cells_{grid}"),
    }


def check_region(inputs: dict, stdout: str, fails: Failures) -> dict:
    """nx*ny + 1 rows, and one feasible count in the CSV, on stdout and in
    the reference."""
    rows = feasible = 0
    with open(inputs["out"] / "region.csv", encoding="utf-8") as fh:
        for line in fh:
            rows += 1
            feasible += line.split(",", 3)[2] == "1"
    printed = [line for line in stdout.splitlines() if line.startswith("feasible cells: ")]
    stated = int(printed[0].split()[2].split("/")[0]) if printed else None
    probes = [line for line in stdout.splitlines() if line.startswith("probe ")]
    ok = rows == inputs["cells"] + 1 and stated == feasible and len(probes) == inputs["probes"]
    if inputs["reference"] is not None:
        ok = ok and feasible == inputs["reference"]
    fails.op(ok, f"region_cli: rows={rows} csv feasible={feasible} printed={stated}")
    return {"feasible_cells": feasible}
