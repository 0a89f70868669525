import copy
import json
import math
import random
import re
import time

import pytest

import funnelcap as fc
from funnelcap import ConfigError
from funnelcap.config import resolve_config
from funnelcap.simulator import _stable_substeps


def ex1_cfg():
    return json.loads(fc.dump_defaults("pendulum_ex1"))


def ex2_cfg():
    return json.loads(fc.dump_defaults("nonlinear_ex2"))


def write(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def key_paths(node, steps=()):
    """Every key and list index under node, as the steps from the root."""
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield steps + (key,)
            yield from key_paths(child, steps + (key,))


def json_path(steps):
    return "$" + "".join(f"[{s}]" if isinstance(s, int) else f".{s}" for s in steps)


def on_one_branch(a, b):
    short, long = sorted((a, b), key=len)
    return long.startswith(short) and long[len(short) : len(short) + 1] in ("", ".", "[")


class TestBundledConfigs:
    def test_ex1_matches_builtin_scenario(self, ex1_config_path, ex1):
        resolved = fc.load_scenario(ex1_config_path)
        sc = resolved.scenario
        ref = ex1.scenario
        assert sc.controller == ref.controller
        assert sc.bounds == ref.bounds
        assert sc.x0 == ref.x0
        assert (sc.horizon, sc.step, sc.substeps) == (ref.horizon, ref.step, ref.substeps)
        for t in (0.0, 1.3, 7.7):
            assert sc.reference.y_d(t) == ref.reference.y_d(t)
            assert sc.system.d[1](t) == ref.system.d[1](t)
        assert resolved.region is not None
        assert resolved.region.probe_points == ((-0.5, 1.0),)

    def test_ex2_matches_builtin_scenario(self, ex2_config_path, ex2):
        resolved = fc.load_scenario(ex2_config_path)
        assert resolved.scenario.controller == ex2.scenario.controller
        assert resolved.scenario.bounds == ex2.scenario.bounds
        assert resolved.region.probe_points == ((0.5, -0.8), (0.2, -0.8))

    def test_round_trip_is_identical(self, tmp_path, ex1_config_path):
        first = fc.load_scenario(ex1_config_path).scenario
        text = fc.dump_defaults("pendulum_ex1")
        again = resolve_config(json.loads(text)).scenario
        assert first.controller == again.controller
        assert first.bounds == again.bounds
        assert first.x0 == again.x0
        assert (first.horizon, first.step, first.substeps) == (again.horizon, again.step, again.substeps)

    def test_unknown_dump_name(self):
        with pytest.raises(ConfigError):
            fc.dump_defaults("pendulum_ex9")


class TestFunnelResolution:
    def test_offset_mode_derives_start_bounds(self, tmp_path):
        cfg = ex1_cfg()
        cfg["controller"]["stages"][0]["funnel"] = {"delta": 0.5, "q": 0.05, "mu": 0.9}
        cfg["controller"]["stages"][1]["funnel"] = {"delta": 0.1, "q": 0.05, "mu": 1.0}
        sc = resolve_config(cfg).scenario
        assert sc.controller.stages[0].funnel.p == pytest.approx(1.0, rel=1e-12)
        # |z_2(0)| = |1 - 2.25| with the offset-derived first stage
        assert sc.controller.stages[1].funnel.p == pytest.approx(1.35, rel=1e-12)

    def test_offset_below_steady_state_bound_rejected(self):
        cfg = ex1_cfg()
        cfg["sim"]["x0"] = [0.0, 0.0]
        cfg["controller"]["stages"][0]["funnel"] = {"delta": 0.01, "q": 0.05, "mu": 0.9}
        with pytest.raises(ConfigError, match=r"stages\[0\]"):
            resolve_config(cfg)

    def test_offset_below_steady_state_bound_named_past_stage_one(self):
        # x0[1] = u_1(0) gives z_2(0) = 0, so p_2 = delta_2 < q_2: the chain
        # names the stage it stopped at, not the first one.
        cfg = ex1_cfg()
        sc = resolve_config(cfg).scenario
        s1 = sc.controller.stages[0]
        z1 = sc.x0[0] - sc.reference.y_d(0.0)
        cfg["sim"]["x0"][1] = fc.stage_control(fc.clamp_theta(z1 / s1.funnel.p)[0], s1)
        cfg["controller"]["stages"][1]["funnel"] = {"delta": 0.01, "q": 0.05, "mu": 1.0}
        msg = r"at \$\.controller\.stages\[1\]\.funnel: initial bound p must satisfy p >= q, got p=0\.01, q=0\.05"
        with pytest.raises(ConfigError, match=rf"^{msg}$"):
            resolve_config(cfg)

    def test_explicit_and_offset_are_exclusive(self):
        cfg = ex1_cfg()
        cfg["controller"]["stages"][0]["funnel"]["delta"] = 0.5
        with pytest.raises(ConfigError, match="exactly one"):
            resolve_config(cfg)
        del cfg["controller"]["stages"][0]["funnel"]["delta"]
        del cfg["controller"]["stages"][0]["funnel"]["p"]
        with pytest.raises(ConfigError, match="exactly one"):
            resolve_config(cfg)


class TestValidation:
    def test_unknown_top_level_key(self):
        cfg = ex1_cfg()
        cfg["plotting"] = {}
        with pytest.raises(ConfigError, match=r"at \$: unknown key"):
            resolve_config(cfg)

    def test_unknown_nested_key_with_path(self):
        cfg = ex1_cfg()
        cfg["controller"]["stages"][0]["funnel"]["shape"] = "exp"
        with pytest.raises(ConfigError, match=r"stages\[0\]\.funnel"):
            resolve_config(cfg)

    def test_parse_error_carries_line_and_column(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "system": "builtin:pendulum_ex1",\n  "bounds": oops\n}\n', encoding="utf-8")
        with pytest.raises(ConfigError, match=r"broken\.json:3:13"):
            fc.load_scenario(path)

    @pytest.mark.parametrize("key, first", [("horizon", 0.0), ("substeps", 1)])
    def test_repeated_key_refused(self, tmp_path, key, first):
        # json.loads alone keeps the last value, so the first would never be read.
        text = fc.dump_defaults("pendulum_ex1").replace(f'"{key}": ', f'"{key}": {first}, "{key}": ', 1)
        path = tmp_path / "repeated.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match=rf"repeated\.json: repeated key '{key}'$"):
            fc.load_scenario(path)

    def test_repeated_key_check_is_linear(self, tmp_path):
        # 100k distinct keys, then one repeat: refused with the first key in
        # file order that occurs twice, long before a quadratic scan would end.
        keys = [f"k{j}" for j in range(100_000)]
        path = tmp_path / "wide.json"
        path.write_text("{" + ", ".join(f'"{k}": 0' for k in [*keys, "k7", "k3"]) + "}", encoding="utf-8")
        start = time.perf_counter()
        with pytest.raises(ConfigError, match=r"repeated key 'k3'$"):
            fc.load_scenario(path)
        path.write_text(json.dumps({"system": "builtin:pendulum_ex1", **dict.fromkeys(keys, 0)}), encoding="utf-8")
        with pytest.raises(ConfigError, match=r"^at \$: unknown key\(s\)"):
            fc.load_scenario(path)
        assert time.perf_counter() - start < 10.0

    def test_missing_sections_for_family_system(self):
        cfg = {"system": {"family": "pendulum"}}
        with pytest.raises(ConfigError, match="required unless system is a builtin"):
            resolve_config(cfg)

    def test_unknown_builtin_and_family(self):
        with pytest.raises(ConfigError, match=r"\$\.system"):
            resolve_config({"system": "builtin:lorenz"})
        cfg = ex1_cfg()
        cfg["system"] = {"family": "lorenz"}
        with pytest.raises(ConfigError, match="unknown family"):
            resolve_config(cfg)

    def test_x0_length_checked(self):
        cfg = ex1_cfg()
        cfg["sim"]["x0"] = [0.0, 0.0, 0.0]
        with pytest.raises(ConfigError, match=r"\$\.sim\.x0"):
            resolve_config(cfg)

    def test_bounds_length_checked(self):
        # a short k names k, not the first list of the right length
        for k in ([0.0], [], [13.859292911256333], [0.0, 1.0, 2.0]):
            cfg = ex1_cfg()
            cfg["bounds"]["k"] = k
            with pytest.raises(ConfigError, match=rf"at \$\.bounds\.k: expected 2 entries, got {len(k)}$"):
                resolve_config(cfg)

    def test_single_key_mutations_resolve_or_name_their_path(self):
        # Each mutant resolves, or raises a ConfigError anchored on the
        # mutated key's branch: at the key, at a parent, or inside the new value.
        delete = object()
        values = ("x", -1, 0, math.nan, math.inf, [], {}, True, 2.5, [1.0], None, delete)
        outcomes = {"resolved": 0, "refused": 0}
        for base in (ex1_cfg(), ex2_cfg()):
            for steps in key_paths(base):
                for value in values:
                    cfg = copy.deepcopy(base)
                    node = cfg
                    for step in steps[:-1]:
                        node = node[step]
                    if value is delete:
                        del node[steps[-1]]
                    else:
                        node[steps[-1]] = copy.deepcopy(value)
                    try:
                        resolve_config(cfg)
                        outcomes["resolved"] += 1
                    except ConfigError as e:
                        anchor = re.match(r"at (\$\S*): ", str(e))
                        assert anchor and on_one_branch(anchor.group(1), json_path(steps)), (json_path(steps), value, str(e))
                        outcomes["refused"] += 1
        assert outcomes["resolved"] > 0 and outcomes["refused"] > 1000

    def test_zero_horizon_rejected(self):
        cfg = ex1_cfg()
        cfg["sim"]["horizon"] = 0.0
        with pytest.raises(ConfigError, match=r"\$\.sim\.horizon"):
            resolve_config(cfg)

    def test_bad_substeps_rejected(self):
        cfg = ex1_cfg()
        cfg["sim"]["substeps"] = 2.5
        with pytest.raises(ConfigError, match="substeps"):
            resolve_config(cfg)

    def test_integer_past_float_range_refused(self):
        # float() of such a literal raises OverflowError; it is refused as
        # not finite, and a sub-step count that large names the sim section.
        for key, path in (("horizon", r"\$\.sim\.horizon: must be finite"), ("substeps", r"at \$\.sim: substeps")):
            cfg = ex1_cfg()
            cfg["sim"][key] = 10**400
            with pytest.raises(ConfigError, match=path):
                resolve_config(cfg)
        cfg = ex1_cfg()
        cfg["bounds"]["k"] = [0.0, -(10**400)]
        with pytest.raises(ConfigError, match=r"\$\.bounds\.k\[1\]: must be finite"):
            resolve_config(cfg)

    def test_stage_count_must_match_system(self):
        cfg = ex1_cfg()
        cfg["controller"]["stages"] = cfg["controller"]["stages"][:1]
        with pytest.raises(ConfigError, match="expected 2 stages"):
            resolve_config(cfg)

    def test_region_grid_and_ranges(self):
        cfg = ex1_cfg()
        cfg["region"]["grid"] = [1, 201]
        with pytest.raises(ConfigError, match=r"\$\.region\.grid"):
            resolve_config(cfg)
        cfg = ex1_cfg()
        cfg["region"]["x_range"] = [2.0, -2.0]
        with pytest.raises(ConfigError, match="lo < hi"):
            resolve_config(cfg)

    def test_number_type_checks(self):
        cfg = ex1_cfg()
        cfg["bounds"]["v0_bar"] = "one"
        with pytest.raises(ConfigError, match="expected a number"):
            resolve_config(cfg)
        cfg = ex1_cfg()
        cfg["bounds"]["k"] = [0.0, -1.0]
        with pytest.raises(ConfigError, match=r"k\[1\]"):
            resolve_config(cfg)


class TestFamilies:
    def test_pendulum_family_block(self):
        cfg = ex1_cfg()
        cfg["system"] = {
            "family": "pendulum",
            "m": 0.02,
            "l": 2.0,
            "k": 0.04,
            "g": 9.81,
            "disturbance": [[0.0, 1.0], [0.3, 2.0]],
        }
        sc = resolve_config(cfg).scenario
        expected = fc.pendulum_system(m=0.02, l=2.0, k=0.04, gravity=9.81)
        for xs in ((0.3, -0.4), (1.0, 1.0)):
            assert sc.system.f[1](xs) == expected.f[1](xs)
            assert sc.system.g[1](xs) == expected.g[1](xs)
        assert sc.system.d[1](math.pi / 4.0) == pytest.approx(0.3 * math.sin(math.pi / 2.0), rel=1e-12)

    def test_sine_chain_defaults_match_builtin(self, ex2):
        cfg = ex2_cfg()
        cfg["system"] = {"family": "sine_chain", "disturbance": [[0.2, 1.0], [0.5, 1.0]]}
        sc = resolve_config(cfg).scenario
        for xs in ((0.3, -0.4), (1.0, 1.0)):
            assert sc.system.f[0](xs[:1]) == ex2.scenario.system.f[0](xs[:1])
            assert sc.system.f[1](xs) == ex2.scenario.system.f[1](xs)
            assert sc.system.g[1](xs) == ex2.scenario.system.g[1](xs)

    def test_family_requires_all_sections(self):
        cfg = ex2_cfg()
        cfg["system"] = {"family": "sine_chain"}
        del cfg["bounds"]
        with pytest.raises(ConfigError, match=r"\$\.bounds"):
            resolve_config(cfg)


class TestRegionResolution:
    def test_template_mirrors_controller(self, ex1_config_path):
        resolved = fc.load_scenario(ex1_config_path)
        tpl = resolved.region.template
        assert tpl.controller is resolved.scenario.controller
        assert tpl.bounds is resolved.scenario.bounds
        assert tpl.deltas == (0.5, 0.1)
        assert tpl.y_d0 == 0.0
        assert resolved.region.x.size == 201 and resolved.region.y.size == 201
        assert resolved.region.x[0] == -2.0 and resolved.region.x[-1] == 2.0

    def test_grid_defaults_and_probe_default(self):
        cfg = ex1_cfg()
        del cfg["region"]["grid"]
        del cfg["region"]["probe_points"]
        resolved = resolve_config(cfg)
        assert resolved.region.x.size == 201
        assert resolved.region.probe_points == ((-0.5, 1.0),)

    def test_with_grid_override(self, ex1_config_path):
        region = fc.load_scenario(ex1_config_path).region.with_grid(41, 31)
        assert region.x.size == 41 and region.y.size == 31
        with pytest.raises(ConfigError):
            region.with_grid(1, 10)

    def test_region_absent_is_none(self):
        cfg = ex1_cfg()
        del cfg["region"]
        assert resolve_config(cfg).region is None

    def test_builtin_defaults_without_sections(self):
        for name in ("pendulum_ex1", "nonlinear_ex2"):
            self._check_builtin_defaults(name)

    @staticmethod
    def _check_builtin_defaults(name):
        resolved = resolve_config({"system": f"builtin:{name}"})
        sc = resolved.scenario
        ref = resolve_config(json.loads(fc.dump_defaults(name))).scenario
        assert sc.controller == ref.controller
        assert sc.bounds == ref.bounds
        assert sc.x0 == ref.x0
        assert (sc.horizon, sc.step, sc.substeps) == (ref.horizon, ref.step, ref.substeps)
        for t in (0.0, 1.3, 7.7):
            assert sc.reference.y_d(t) == ref.reference.y_d(t)
            assert [d(t) for d in sc.system.d] == [d(t) for d in ref.system.d]
        for xs in ((0.3, -0.4), (1.0, 1.0), (-1.7, 2.2)):
            for i in range(2):
                assert sc.system.f[i](xs[: i + 1]) == ref.system.f[i](xs[: i + 1])
                assert sc.system.g[i](xs[: i + 1]) == ref.system.g[i](xs[: i + 1])
        assert resolved.region is None

    def test_builtin_offsets_resolve_from_bundled_start(self):
        stages = ex2_cfg()["controller"]["stages"]
        for stage, delta in zip(stages, (0.5, 0.1)):
            del stage["funnel"]["p"]
            stage["funnel"]["delta"] = delta
        sc = resolve_config({"system": "builtin:nonlinear_ex2", "controller": {"stages": stages}}).scenario
        assert sc.x0 == (0.5, -0.8)
        z0 = fc.cascade(sc.x0, 0.0, sc.controller, sc.reference).z
        assert sc.controller.stages[0].funnel.p == abs(0.5 - sc.reference.y_d(0.0)) + 0.5
        assert sc.controller.stages[1].funnel.p == abs(z0[1]) + 0.1

    @pytest.mark.parametrize("cfg", [ex1_cfg(), ex2_cfg()], ids=["ex1", "ex2"])
    def test_offsets_resolve_like_check_point(self, cfg):
        # Config offsets and region cells share one t = 0 start rule, with
        # psi(0) = p, so both give the same p and z(0) bit for bit.
        template = resolve_config(cfg).region.template
        for stage, delta in zip(cfg["controller"]["stages"], template.deltas):
            del stage["funnel"]["p"]
            stage["funnel"]["delta"] = delta
        rng = random.Random(20231)
        for _ in range(200):
            cfg["sim"]["x0"] = [rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)]
            sc = resolve_config(cfg).scenario
            s1, s2 = sc.controller.stages
            pt = fc.check_point(template, *sc.x0).stages
            assert (s1.funnel.p, s2.funnel.p) == (pt[0].p, pt[1].p)
            z1 = sc.x0[0] - sc.reference.y_d(0.0)
            u1 = fc.stage_control(fc.clamp_theta(z1 / s1.funnel.p)[0], s1)
            assert (z1, sc.x0[1] - u1) == (pt[0].z0, pt[1].z0)

    def test_start_chain_evaluates_each_inner_output_once(self, monkeypatch):
        # Only a stage with a successor needs its t = 0 output: one per
        # two-stage probe and per two-stage offset config.
        calls = []
        start_output = fc.feasibility._start_output

        def counted(*args):
            calls.append(args)
            return start_output(*args)

        monkeypatch.setattr(fc.feasibility, "_start_output", counted)
        cfg = ex1_cfg()
        template = resolve_config(cfg).region.template
        calls.clear()
        fc.check_point(template, -0.2, 0.5)
        assert len(calls) == 1
        for stage, delta in zip(cfg["controller"]["stages"], template.deltas):
            del stage["funnel"]["p"]
            stage["funnel"]["delta"] = delta
        resolve_config(cfg)
        assert len(calls) == 2

    def test_non_finite_stiffness_ratio_asks_for_substeps(self):
        # |phi_lo_2| = pi*1e10/(2e-300) overflows, so no count can be derived.
        cfg = ex1_cfg()
        del cfg["sim"]["substeps"]
        cfg["controller"]["stages"][1].update(c=1e-300, v_bar=1e10)
        with pytest.raises(ConfigError, match=r"^at \$\.sim\.substeps: .*inf.*set substeps explicitly"):
            resolve_config(cfg)
        cfg["sim"]["substeps"] = 3
        assert resolve_config(cfg).scenario.substeps == 3

    def test_omitted_substeps_sized_from_stiffness(self):
        # ratio max_i g_hi_i*|phi_lo_i|/q_i * step: 100*8/0.05*1e-3 = 16 for
        # the pendulum, 7*16/0.01*1e-3 = 11.2 for the chain; each needs
        # ratio/m <= 2.5.
        for cfg, expected in ((ex1_cfg(), 7), (ex2_cfg(), 5)):
            del cfg["sim"]["substeps"]
            assert resolve_config(cfg).scenario.substeps == expected
            cfg["sim"]["substeps"] = 2
            assert resolve_config(cfg).scenario.substeps == 2

    def test_bundled_substeps_are_the_derived_count(self):
        for cfg in (ex1_cfg(), ex2_cfg()):
            sc = resolve_config(cfg).scenario
            assert cfg["sim"]["substeps"] == _stable_substeps(sc.controller, sc.bounds, sc.step)

    @pytest.mark.parametrize("stage", [0, 1])
    def test_non_finite_stiffness_on_any_stage_is_refused(self, stage):
        # g_hi = 0 times an overflowing |phi_lo| is NaN on the edited stage;
        # the refusal is the same whichever stage carries it.
        cfg = ex1_cfg()
        del cfg["sim"]["substeps"]
        cfg["bounds"]["g_lo"][stage] = cfg["bounds"]["g_hi"][stage] = 0.0
        cfg["controller"]["stages"][stage].update(c=1e-300, v_bar=1e10)
        with pytest.raises(ConfigError) as info:
            resolve_config(cfg)
        assert str(info.value) == (
            "at $.sim.substeps: the settled stiffness ratio needs inf sub-steps per recorded step, "
            "more than 10000; set substeps explicitly"
        )

    def test_derived_substeps_are_capped(self):
        # ex1's largest settled gain is 16000/s: a 1.5 s step derives 9600
        # sub-steps, a 1.6 s step 10240, past the cap of 1e4.
        cfg = ex1_cfg()
        del cfg["sim"]["substeps"]
        cfg["sim"]["step"] = 1.5
        assert resolve_config(cfg).scenario.substeps == 9600
        cfg["sim"]["step"] = 1.6
        with pytest.raises(ConfigError, match=r"^at \$\.sim\.substeps: .* needs 10240 sub-steps .*more than 10000; set substeps explicitly"):
            resolve_config(cfg)
        cfg["sim"]["substeps"] = 20000
        assert resolve_config(cfg).scenario.substeps == 20000
