"""Fast tests of the benchmark itself, at reduced size.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

SMALL = {
    "sim_long": {"horizon": 0.05},
    "ensemble_short": {"scenarios": 5, "horizon": 0.02},
    "certify_sweep": {"prescriptions": 4, "grid": 41, "probes": 20, "cascades": 20},
    "region_cli": {"grid": 41},
}


@pytest.fixture(scope="module", params=sorted(SMALL))
def traced(request):
    """One untraced and one traced pass of a workload at reduced size."""
    name = request.param
    result = run.measure(name, seed=7, seconds=0.0, trace=True, size=SMALL[name])
    spans = dict(np.load(run.OUT / name / "spans.npz"))
    return name, result, spans


def test_outputs_pass_their_checks(traced):
    name, result, _ = traced
    assert result.fails.reasons == []
    assert result.fails.attempted >= 2


def test_rhs_evaluations_are_counted_exactly(traced):
    name, result, _ = traced
    calls = result.layers[0]["plant.eval_dynamics.calls"]
    if name in ("certify_sweep", "region_cli"):
        assert calls == 0
    else:
        # 4 stages per RK4 step x substeps x recorded steps x scenarios
        assert calls == result.inputs["rhs_calls"] > 0
        assert result.layers[0]["simulator.simulate.rhs_per_sample"] == 40


def test_region_cells_equal_grid_size(traced):
    name, result, _ = traced
    cells = result.layers[0]["feasibility.feasible_region.cells"]
    if name == "certify_sweep":
        size = SMALL[name]
        assert cells == size["grid"] ** 2 * size["prescriptions"]
    elif name == "region_cli":
        assert cells == SMALL[name]["grid"] ** 2
    else:
        assert cells == 0


def test_spans_nest_and_self_time_is_non_negative(traced):
    _, result, spans = traced
    parent = spans["parent"]
    child = parent >= 0
    assert child.any()
    assert np.all(spans["start"][child] >= spans["start"][parent[child]])
    assert np.all(spans["end"][child] <= spans["end"][parent[child]])
    layers = result.layers[0]
    assert all(v >= 0.0 for k, v in layers.items() if k.endswith("self_s"))


def test_requests_tag_scenarios_and_prescriptions(traced):
    name, _, spans = traced
    names = list(spans["names"])
    if name == "ensemble_short":
        sims = spans["request"][spans["name"] == names.index("simulator.simulate")]
        assert sorted(sims.tolist()) == list(range(SMALL[name]["scenarios"]))
    elif name == "certify_sweep":
        sweeps = spans["request"][spans["name"] == names.index("feasibility.feasible_region")]
        assert sorted(sweeps.tolist()) == list(range(SMALL[name]["prescriptions"]))


def test_reported_metrics_are_those_of_benchmark_json(traced):
    _, result, _ = traced
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    per_layer = run.metrics(result, spec, trace=True)
    assert list(per_layer) == [m["name"] for m in spec["per_layer"]]
    assert "trace.overhead_frac" in per_layer


def test_untraced_run_reports_end_to_end_metrics():
    result = run.measure("region_cli", seed=3, seconds=0.0, trace=False, size=SMALL["region_cli"])
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    found = run.metrics(result, spec, trace=False)
    assert list(found) == [m["name"] for m in spec["end_to_end"]]
    assert all(m["value"] > 0 for m in found.values())


def test_generated_inputs_depend_only_on_seed(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    run.wl.certify_inputs(run.ROOT, a, 5, SMALL["certify_sweep"])
    run.wl.certify_inputs(run.ROOT, b, 5, SMALL["certify_sweep"])
    assert (a / "prescription_003.json").read_text() == (b / "prescription_003.json").read_text()
    cascades = json.loads((a / "inputs.json").read_text())["cascades"]
    assert cascades == json.loads((b / "inputs.json").read_text())["cascades"]


def test_fails_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim_long", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
