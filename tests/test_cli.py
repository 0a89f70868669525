import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import funnelcap as fc
from funnelcap.cli import main


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def run_python(*args):
    """A fresh interpreter that imports the funnelcap these tests import,
    installed or not."""
    src = str(Path(fc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=60)


def test_python_dash_m_runs_the_cli():
    proc = run_python("-m", "funnelcap", "dump-defaults")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == fc.dump_defaults("pendulum_ex1")


# check and region never import the kernel generator, whose compile would
# count in their peak memory; simulate imports it on first use.
KERNEL_IMPORTS = """\
import sys
from funnelcap.cli import main
cfg, out = sys.argv[1:]
assert main(["check", cfg]) == 0
assert main(["region", cfg, "--grid", "21x21", "--out", out]) == 0
assert "funnelcap._rk4" not in sys.modules
assert main(["simulate", cfg, "--horizon", "0.01", "--out", out]) == 0
assert "funnelcap._rk4" in sys.modules
"""


def test_only_simulate_loads_the_kernel_generator(ex1_config_path, tmp_path):
    proc = run_python("-c", KERNEL_IMPORTS, str(ex1_config_path), str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr


def edit_bundled_substeps(new) -> str:
    """ex1's bundled text with its `"substeps": N` literal, N the bundled
    value, passed through new(literal); the edit must change the text."""
    text = fc.dump_defaults("pendulum_ex1")
    literal = f'"substeps": {json.loads(text)["sim"]["substeps"]}'
    edited = text.replace(literal, new(literal))
    assert edited != text
    return edited


def sha256_of(out):
    names = ("trajectory.csv", "events.csv", "monitor.csv")
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


class TestDumpDefaults:
    def test_prints_bundled_text(self, capsys):
        assert main(["dump-defaults"]) == 0
        assert capsys.readouterr().out == fc.dump_defaults("pendulum_ex1")

    def test_selects_and_writes_file(self, tmp_path):
        target = tmp_path / "ex2.json"
        assert main(["dump-defaults", "--system", "nonlinear_ex2", "--out", str(target)]) == 0
        assert target.read_text(encoding="utf-8") == fc.dump_defaults("nonlinear_ex2")


class TestCheck:
    def test_feasible_bundled_pendulum(self, ex1_config_path, capsys):
        assert main(["check", str(ex1_config_path)]) == 0
        out = capsys.readouterr().out
        assert "stage 1" in out and "stage 2" in out
        assert "margin=1.745" in out
        assert "verdict: FEASIBLE" in out
        assert "constants: k, g_lo/g_hi hold in all 2000 samples of |xi| <= (2, 5.9)" in out

    def test_bundled_stdout_is_pinned(self, ex1_config_path, ex2_config_path, capsys):
        # The whole report: certificate lines, verdict and constants line.
        for path, code, digest in (
            (ex1_config_path, 0, "5dab321a9cde4d0d172e7150487e583cc0bdac4515b8a09a9d7ad409cc25ef57"),
            (ex2_config_path, 1, "e605d7f0cb0ff657930b18428c74881b56292b2e0c26d8c7d115ae026563adc7"),
        ):
            assert main(["check", str(path)]) == code
            assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_integer_past_float_range_exits_two(self, tmp_path, capsys):
        text = fc.dump_defaults("pendulum_ex1").replace('"horizon": 20.0', '"horizon": 1' + "0" * 400)
        path = tmp_path / "cfg.json"
        path.write_text(text, encoding="utf-8")
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err == "config error: at $.sim.horizon: must be finite\n"

    def test_violated_constant_exits_one(self, ex2_config_path, tmp_path, capsys):
        # The certificate holds on paper, but the declared k_2 = 1 fails on
        # the certificate's own state box, so the verdict has no footing.
        assert main(["check", str(ex2_config_path)]) == 1
        out = capsys.readouterr().out
        assert "verdict: FEASIBLE" in out
        assert "constants: VIOLATED in 2000 samples of |xi| <= (1.5, 1.4): stage 2 k fails" in out
        assert "stage 1" not in out.split("constants:")[1]
        # Three broken constants over two stages are listed stage-major, each
        # worst point being the stage's own state prefix.
        cfg = json.loads(fc.dump_defaults("pendulum_ex1"))
        cfg["bounds"].update(k=[0, 1], g_lo=[2, 150], g_hi=[2, 150])
        assert main(["check", str(write_cfg(tmp_path, cfg))]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == (
            "constants: VIOLATED in 2000 samples of |xi| <= (2, 5.9): "
            "stage 1 g_lo/g_hi fails 2000 times, worst margin -1 at (0.547847); "
            "stage 2 k fails 1553 times, worst margin -10.5 at (1.55426, 4.90592); "
            "stage 2 g_lo/g_hi fails 2000 times, worst margin -50 at (0.547847, -2.71652)"
        )

    def test_infeasible_exits_one(self, tmp_path, capsys):
        cfg = json.loads(fc.dump_defaults("pendulum_ex1"))
        cfg["bounds"]["d_bar"] = [0.0, 500.0]
        path = write_cfg(tmp_path, cfg)
        assert main(["check", str(path)]) == 1
        assert "verdict: INFEASIBLE" in capsys.readouterr().out

    def test_start_outside_envelope_named(self, tmp_path, capsys):
        cfg = json.loads(fc.dump_defaults("pendulum_ex1"))
        cfg["sim"]["x0"] = [2.0, 1.0]
        path = write_cfg(tmp_path, cfg)
        assert main(["check", str(path)]) == 1
        assert "trivial condition violated at stage 1" in capsys.readouterr().out

    def test_malformed_config_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"system": builtin}\n', encoding="utf-8")
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "broken.json:1:" in err

    def test_non_utf8_config_exits_two(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{")
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "utf16.json" in err

    def test_repeated_key_exits_two(self, tmp_path, capsys):
        text = edit_bundled_substeps(lambda literal: '"substeps": 1, ' + literal)
        path = tmp_path / "repeated.json"
        path.write_text(text, encoding="utf-8")
        out = tmp_path / "runout"
        assert main(["simulate", str(path), "--out", str(out), "--horizon", "0.01"]) == 2
        assert "repeated.json: repeated key 'substeps'" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file_exits_two(self, tmp_path):
        assert main(["check", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize(
        "text",
        [
            # json.loads raises RecursionError long before this depth.
            '{"system": ' + "[" * 100_000 + "]" * 100_000 + "}",
            # Past Python's int-string digit limit json.loads raises a bare
            # ValueError; where there is no limit, _number refuses it.
            fc.dump_defaults("pendulum_ex1").replace('"horizon": 20.0', '"horizon": 1' + "0" * 4999),
        ],
        ids=["deep_nesting", "long_integer"],
    )
    def test_hostile_json_exits_two(self, text, tmp_path, capsys):
        path = tmp_path / "hostile.json"
        path.write_text(text, encoding="utf-8")
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_overflowing_norm_is_no_false_violation(self, tmp_path, capsys):
        # At p = 1e200 the box reaches 1e200, where x*x overflows; stage 1's
        # k_1 = 0 and f_1 = 0 hold exactly, so no 0*inf may make it fail.
        cfg = json.loads(fc.dump_defaults("pendulum_ex1"))
        for stage in cfg["controller"]["stages"]:
            stage["funnel"]["p"] = 1e200
        path = str(write_cfg(tmp_path, cfg))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["check", path]) == 1  # the certificate is INFEASIBLE
        out, err = capsys.readouterr()
        assert "Warning" not in err
        assert "stage 1 k" not in out.split("constants:")[1]

    def test_spot_check_box_without_finite_width_exits_two(self, tmp_path, capsys):
        # p_1 + v0_bar fits a float, but the box's width 2*(p_1 + v0_bar) does not.
        cfg = json.loads(fc.dump_defaults("pendulum_ex1"))
        cfg["controller"]["stages"][0]["funnel"]["p"] = 1e308
        assert main(["check", str(write_cfg(tmp_path, cfg))]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "config error: at $.controller.stages[0].funnel: p = 1e+308 plus the cap 1 "
            "gives the spot-check box no finite width\n"
        )


class TestSimulate:
    def test_writes_all_artifacts(self, ex1_config_path, tmp_path, capsys):
        out = tmp_path / "runout"
        code = main(["simulate", str(ex1_config_path), "--out", str(out), "--horizon", "0.5"])
        assert code == 0
        assert (out / "trajectory.csv").exists()
        assert (out / "events.csv").exists()
        assert (out / "monitor.csv").exists()
        stdout = capsys.readouterr().out
        assert "total violations: 0" in stdout
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert header == "t,xi_1,xi_2,z_1,z_2,theta_1,theta_2,u_1,u_2,psi_1,psi_2,y_d"
        cols = header.split(",")
        data = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
        z1 = data[:, cols.index("z_1")]
        psi1 = data[:, cols.index("psi_1")]
        assert np.all(np.abs(z1) < psi1)
        assert sha256_of(out) == {
            "trajectory.csv": "ee4fb271fc356c082bdcc21ac30375643850ec842af2b2d7bec16a3c07ca813f",
            "events.csv": "4a09f1d6ef30c97ca4dd9c7861342743977d5f26628ab17b2094c6ca55330053",
            "monitor.csv": "a808f4589546c50e5e67979ebe32fbedb74910228d4bd880ee93c9ad2b4b6279",
        }

    def test_second_example_trajectory_bytes_are_pinned(self, ex2_config_path, tmp_path):
        out = tmp_path / "runout"
        assert main(["simulate", str(ex2_config_path), "--out", str(out), "--horizon", "0.5"]) == 0
        digest = hashlib.sha256((out / "trajectory.csv").read_bytes()).hexdigest()
        assert digest == "e7cc3467387a93b17d09a3049acd67a79a9dc254b20a842ab3d2c7528ffbf59c"

    def test_step_and_horizon_overrides(self, ex1_config_path, tmp_path):
        out = tmp_path / "runout"
        assert main(["simulate", str(ex1_config_path), "--out", str(out), "--horizon", "0.1", "--step", "0.01"]) == 0
        lines = (out / "trajectory.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 11  # header + samples at 0.01 over 0.1 s

    def test_coarser_step_keeps_the_sub_step_length(self, ex1_config_path, tmp_path, capsys):
        # 10 ms recorded steps get 70 sub-steps of 1/7 ms, as the config's
        # 1 ms steps get 7; kept at 7 they would leave RK4's stable region.
        out = tmp_path / "runout"
        assert main(["simulate", str(ex1_config_path), "--out", str(out), "--horizon", "3", "--step", "0.01"]) == 0
        assert "total violations: 0" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", [["--step", "0"], ["--step", "inf"], ["--horizon", "-1"], ["--horizon", "nan"]])
    def test_invalid_override_is_a_config_error(self, ex1_config_path, tmp_path, capsys, flag):
        out = tmp_path / "runout"
        assert main(["simulate", str(ex1_config_path), "--out", str(out), *flag]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--step", "1e-320"], ["--step", "1e-300", "--horizon", "1e10"]])
    def test_overflowing_sample_count_is_a_config_error(self, ex1_config_path, tmp_path, capsys, flags):
        out = tmp_path / "runout"
        assert main(["simulate", str(ex1_config_path), "--out", str(out), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --step/--horizon:") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("flags", [[], ["--step", "0.002"]])
    def test_huge_substeps_is_a_config_error(self, tmp_path, capsys, flags):
        text = edit_bundled_substeps(lambda literal: '"substeps": 1' + "0" * 400)
        path = tmp_path / "cfg.json"
        path.write_text(text, encoding="utf-8")
        out = tmp_path / "runout"
        assert main(["simulate", str(path), "--out", str(out), "--horizon", "0.01", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: at $.sim: substeps") and err.count("\n") == 1
        assert not out.exists()

    def test_zero_horizon_writes_nothing(self, tmp_path, capsys):
        cfg = json.loads(fc.dump_defaults("pendulum_ex1"))
        cfg["sim"]["horizon"] = 0.0
        path = write_cfg(tmp_path, cfg)
        out = tmp_path / "runout"
        assert main(["simulate", str(path), "--out", str(out)]) == 2
        assert not out.exists()

    def test_start_violation_refused_then_permitted(self, tmp_path, capsys):
        cfg = json.loads(fc.dump_defaults("pendulum_ex1"))
        cfg["sim"]["x0"] = [2.0, 1.0]
        cfg["sim"]["horizon"] = 0.05
        path = write_cfg(tmp_path, cfg)
        out = tmp_path / "runout"
        assert main(["simulate", str(path), "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert "simulation failed" in err
        assert "not strictly inside" in err
        assert main(["simulate", str(path), "--out", str(out), "--permissive"]) == 0
        events = (out / "events.csv").read_text()
        assert "trivial_violation" in events


    def test_monitor_violations_exit_one_unless_permissive(self, tmp_path, capsys):
        # One RK4 step per millisecond is unstable near the settled
        # envelope; the monitor sees it before 2.5 s.
        cfg = json.loads(fc.dump_defaults("pendulum_ex1"))
        cfg["sim"]["substeps"] = 1
        cfg["sim"]["horizon"] = 2.5
        path = write_cfg(tmp_path, cfg)
        out = tmp_path / "runout"
        assert main(["simulate", str(path), "--out", str(out)]) == 1
        assert "total violations: 0" not in capsys.readouterr().out
        for name in ("trajectory.csv", "events.csv", "monitor.csv"):
            assert (out / name).exists()
        assert "violation_error_envelope" in (out / "events.csv").read_text()
        assert main(["simulate", str(path), "--out", str(out), "--permissive"]) == 0
        digests = sha256_of(out)
        assert digests["events.csv"] == "cbbb4cf47e438678b3ea74c4b830ec93d2b1b211de2fd423492eb595a66b4989"
        assert digests["monitor.csv"] == "37573fafc18b091c714fe89c95091362c3026e7b149942e2567f77b6178a2e46"

    def test_every_interval_takes_a_sub_step(self, tmp_path, capsys):
        # Every q_i/psi_i(t_k+1) underflows to 0, yet each interval must
        # still take one sub-step; the monitor's verdict decides the code.
        cfg = json.loads(fc.dump_defaults("pendulum_ex1"))
        for stage in cfg["controller"]["stages"]:
            stage["funnel"].update(p=1e200, q=1e-200)
        path = str(write_cfg(tmp_path, cfg))
        out = str(tmp_path / "runout")
        assert main(["simulate", path, "--out", out, "--horizon", "0.01"]) == 1
        assert "total violations: 22" in capsys.readouterr().out
        assert main(["simulate", path, "--out", out, "--horizon", "0.01", "--permissive"]) == 0
        assert len((tmp_path / "runout" / "trajectory.csv").read_text().splitlines()) == 12

    def test_impossible_horizon_is_a_runtime_failure(self, ex1_config_path, tmp_path, capsys):
        # 1e16 samples need far more than the address space: the sample table
        # is refused at once, and reported like any other runtime failure;
        # so is a sample count at the float maximum.
        out = tmp_path / "runout"
        for flags in (["--horizon", "1e13"], ["--horizon", "1.7976931348623157e308", "--step", "1"]):
            assert main(["simulate", str(ex1_config_path), "--out", str(out), *flags]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert not out.exists()


class TestRegion:
    def test_bundled_pendulum_region(self, ex1_config_path, tmp_path, capsys):
        out = tmp_path / "regout"
        assert main(["region", str(ex1_config_path), "--out", str(out), "--grid", "41x41"]) == 0
        stdout = capsys.readouterr().out
        assert "feasible cells:" in stdout
        assert "probe (-0.5, 1): FEASIBLE" in stdout
        lines = (out / "region.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 41 * 41
        digest = hashlib.sha256((out / "region.csv").read_bytes()).hexdigest()
        assert digest == "e0e249164560d219f6c712b74b5c76b516d7e355f17691d991c2df7d302635a7"

    def test_second_example_reports_both_probes(self, ex2_config_path, tmp_path, capsys):
        out = tmp_path / "regout"
        assert main(["region", str(ex2_config_path), "--out", str(out), "--grid", "21x21"]) == 0
        stdout = capsys.readouterr().out
        assert "probe (0.5, -0.8): FEASIBLE" in stdout
        assert "probe (0.2, -0.8): INFEASIBLE" in stdout
        digest = hashlib.sha256((out / "region.csv").read_bytes()).hexdigest()
        assert digest == "2a8dd6b9d63fac7305792e60b0dca359b04e09e2e4910291011c698f06c5fdd1"

    def test_missing_region_section_exits_two(self, tmp_path):
        cfg = json.loads(fc.dump_defaults("pendulum_ex1"))
        del cfg["region"]
        path = write_cfg(tmp_path, cfg)
        assert main(["region", str(path), "--out", str(tmp_path / "r")]) == 2

    @pytest.mark.parametrize("key", ["x_range", "y_range"])
    def test_overflowing_range_exits_two(self, key, tmp_path, capsys):
        # hi - lo overflows to inf although both ends are finite.
        cfg = json.loads(fc.dump_defaults("pendulum_ex1"))
        cfg["region"][key] = [-1e308, 1e308]
        path = write_cfg(tmp_path, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["region", str(path), "--out", str(tmp_path / "r")]) == 2
            assert f"at $.region.{key}: " in capsys.readouterr().err
            assert main(["check", str(path)]) == 2
            assert f"at $.region.{key}: " in capsys.readouterr().err

    def test_offset_below_q_exits_two(self, tmp_path, capsys):
        # delta_1 = 0.01 is below q_1 = 0.05: the region template refuses it.
        cfg = json.loads(fc.dump_defaults("pendulum_ex1"))
        cfg["region"]["deltas"] = [0.01, 0.1]
        assert main(["region", str(write_cfg(tmp_path, cfg)), "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == (
            "config error: at $.region: each envelope offset must be finite and >= the matching steady-state bound q\n"
        )

    def test_bad_grid_flag_exits_two(self, ex1_config_path, tmp_path):
        assert main(["region", str(ex1_config_path), "--out", str(tmp_path / "r"), "--grid", "axb"]) == 2

    def test_empty_region_is_valid_answer(self, tmp_path, capsys):
        cfg = json.loads(fc.dump_defaults("pendulum_ex1"))
        cfg["region"]["x_range"] = [30.0, 40.0]
        cfg["region"]["probe_points"] = [[35.0, 0.0]]
        path = write_cfg(tmp_path, cfg)
        out = tmp_path / "regout"
        assert main(["region", str(path), "--out", str(out), "--grid", "11x11"]) == 0
        stdout = capsys.readouterr().out
        assert "feasible cells: 0/121 (0.00%)" in stdout
        assert "probe (35, 0): INFEASIBLE" in stdout


def test_tiny_shape_constant_runs_every_command(tmp_path, capsys):
    # At c = 1e-9 the steepest stage gain is pi*4.5/(2c) = 7.1e9: every
    # command answers (the start violates psi_2(0) unless permissive).
    cfg = json.loads(fc.dump_defaults("pendulum_ex1"))
    cfg["controller"]["stages"][0]["c"] = 1e-9
    path = str(write_cfg(tmp_path, cfg))
    out = str(tmp_path / "out")
    for argv in (
        ["check", path],
        ["region", path, "--out", out],
        ["simulate", path, "--out", out, "--horizon", "0.01"],
        ["simulate", path, "--out", out, "--horizon", "0.01", "--permissive"],
    ):
        assert main(argv) in (0, 1)
    assert "margin_c2=" in capsys.readouterr().out


def test_underivable_substeps_is_a_config_error(tmp_path, capsys):
    cfg = json.loads(fc.dump_defaults("pendulum_ex1"))
    del cfg["sim"]["substeps"]
    cfg["controller"]["stages"][1].update(c=1e-300, v_bar=1e10)
    assert main(["check", str(write_cfg(tmp_path, cfg))]) == 2
    assert capsys.readouterr().err.startswith("config error: at $.sim.substeps: ")


def test_huge_derived_substeps_is_a_config_error(tmp_path, capsys):
    # c_2 = 1e-7 derives about 1e8 sub-steps per recorded step: refused at
    # once, where simulate would run practically forever.  A count given
    # explicitly is still taken as given.
    cfg = json.loads(fc.dump_defaults("pendulum_ex1"))
    substeps = cfg["sim"].pop("substeps")
    cfg["controller"]["stages"][1]["c"] = 1e-7
    out = str(tmp_path / "out")
    assert main(["simulate", str(write_cfg(tmp_path, cfg)), "--out", out, "--horizon", "0.01"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: at $.sim.substeps: ") and err.count("\n") == 1
    assert "set substeps explicitly" in err
    cfg["sim"]["substeps"] = substeps
    assert main(["check", str(write_cfg(tmp_path, cfg))]) in (0, 1)


@pytest.mark.parametrize(
    "edit, codes",
    [
        (lambda cfg: cfg["controller"]["stages"][0]["funnel"].update(mu=1e308), (1, 0, 1)),
        (lambda cfg: cfg["bounds"].update(k=[1e308, 1e308]), (1, 0, 0)),
        (lambda cfg: cfg["region"].update(probe_points=[[1e308, 1e308]]), (0, 0, 0)),
    ],
    ids=["mu", "k", "probe"],
)
def test_overflowing_constants_stay_silent(edit, codes, tmp_path, capsys):
    # Overflow to inf or NaN margins already reads as infeasible; it must not
    # also print numpy RuntimeWarnings.
    cfg = json.loads(fc.dump_defaults("pendulum_ex1"))
    edit(cfg)
    path = str(write_cfg(tmp_path, cfg))
    out = str(tmp_path / "out")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = (
            main(["check", path]),
            main(["region", path, "--out", out]),
            main(["simulate", path, "--out", out, "--horizon", "0.01"]),
        )
    assert got == codes
    assert "Warning" not in capsys.readouterr().err
