import json
import math

import pytest

from beamosc.config import (
    BUILTIN_DESIGNS,
    ProjectConfig,
    apply_overrides,
    default_config,
    load_builtin_design,
    load_config,
    validate_config,
)
from beamosc.errors import ConfigError
from beamosc.explore import evaluate


class TestValidation:
    def test_empty_config_resolves_to_defaults(self):
        resolved = validate_config({})
        assert resolved == default_config()
        assert resolved["beam"]["length"] == 100e-6
        assert resolved["pierce"]["gm"] == "auto"
        assert resolved["sim"]["displacement_guard"] is True

    def test_defaults_build_and_evaluate(self):
        cfg = ProjectConfig.from_raw({})
        point = evaluate(cfg.build_inputs())
        assert point.model.f0 == pytest.approx(75.9e3, rel=2e-3)
        assert point.feasible

    def test_unknown_block_is_named(self):
        with pytest.raises(ConfigError, match="transducr"):
            validate_config({"transducr": {"gap": 1e-6}})

    def test_unknown_field_is_named(self):
        with pytest.raises(ConfigError, match=r"transducer\.gapp"):
            validate_config({"transducer": {"gapp": 1e-6}})

    def test_bad_value_is_named(self):
        with pytest.raises(ConfigError, match=r"transducer\.gap"):
            validate_config({"transducer": {"gap": -1.0}})
        with pytest.raises(ConfigError, match=r"beam\.length"):
            validate_config({"beam": {"length": "long"}})
        with pytest.raises(ConfigError, match=r"beam\.anchor"):
            validate_config({"beam": {"anchor": "welded"}})
        with pytest.raises(ConfigError, match=r"sim\.noise_seed"):
            validate_config({"sim": {"noise_seed": 1.5}})
        with pytest.raises(ConfigError, match=r"sim\.noise_seed: must be >= 0"):
            validate_config({"sim": {"noise_seed": -3}})
        # materials.top_metal_index outside 1..4: test_process.TestLaminate.
        for pitch in (0, -1.2e-6):
            with pytest.raises(ConfigError, match=r"materials\.thickness_per_pair"):
                validate_config({"materials": {"thickness_per_pair": pitch}})
        with pytest.raises(ConfigError, match=r"rules\.require_metal_cover"):
            validate_config({"rules": {"require_metal_cover": "yes"}})

    def test_booleans_do_not_pass_as_numbers(self):
        with pytest.raises(ConfigError, match=r"transducer\.gap"):
            validate_config({"transducer": {"gap": True}})

    def test_gm_accepts_auto_or_nonnegative(self):
        assert validate_config({"pierce": {"gm": "auto"}})["pierce"]["gm"] == "auto"
        assert validate_config({"pierce": {"gm": 0}})["pierce"]["gm"] == 0.0
        with pytest.raises(ConfigError, match=r"pierce\.gm"):
            validate_config({"pierce": {"gm": -1e-5}})
        with pytest.raises(ConfigError, match=r"pierce\.gm"):
            validate_config({"pierce": {"gm": "big"}})

    def test_axis_items_are_validated_by_index(self):
        with pytest.raises(ConfigError, match=r"explore\.axes\[0\]\.steps"):
            validate_config({"explore": {"axes": [
                {"path": "beam.length", "min": 1e-6, "max": 2e-6, "steps": 0},
            ]}})
        with pytest.raises(ConfigError, match=r"explore\.axes\[1\]\.path"):
            validate_config({"explore": {"axes": [
                {"path": "beam.length", "min": 1e-6, "max": 2e-6, "steps": 2},
                {"path": "beam.width", "min": 1e-6, "max": 2e-6, "steps": 2},
            ]}})
        with pytest.raises(ConfigError, match=r"explore\.axes\[0\]\.min"):
            validate_config({"explore": {"axes": [
                {"path": "beam.length", "max": 2e-6, "steps": 2},
            ]}})

    def test_constraint_subset_is_validated(self):
        ok = validate_config({"explore": {"constraints": ["bias", "rules"]}})
        assert ok["explore"]["constraints"] == ["bias", "rules"]
        with pytest.raises(ConfigError, match=r"explore\.constraints\[1\]"):
            validate_config({"explore": {"constraints": ["bias", "thermal"]}})

    def test_non_object_root_and_blocks(self):
        with pytest.raises(ConfigError):
            validate_config([1, 2, 3])
        with pytest.raises(ConfigError, match="beam"):
            validate_config({"beam": 7})


class TestOverrides:
    def test_numbers_and_strings_parse(self):
        raw = apply_overrides({}, [
            "transducer.bias_voltage=12",
            "beam.anchor=clamped_clamped",
            "pierce.gm=auto",
            "sim.dt=1e-8",
        ])
        assert raw["transducer"]["bias_voltage"] == 12
        assert raw["beam"]["anchor"] == "clamped_clamped"
        assert raw["pierce"]["gm"] == "auto"
        assert raw["sim"]["dt"] == 1e-8

    def test_override_then_validate_catches_bad_keys(self):
        raw = apply_overrides({}, ["transducer.gapp=1e-6"])
        with pytest.raises(ConfigError, match=r"transducer\.gapp"):
            validate_config(raw)

    def test_malformed_assignments(self):
        with pytest.raises(ConfigError):
            apply_overrides({}, ["transducer.gap"])
        with pytest.raises(ConfigError):
            apply_overrides({}, ["a.b.c=1"])
        with pytest.raises(ConfigError):
            apply_overrides({}, [".gap=1"])

    def test_original_dict_is_left_alone(self):
        raw = {"transducer": {"gap": 2e-6}}
        out = apply_overrides(raw, ["transducer.gap=3e-6"])
        assert raw["transducer"]["gap"] == 2e-6
        assert out["transducer"]["gap"] == 3e-6


class TestBuiltinDesigns:
    def test_all_three_validate_and_differ(self):
        q_factors = set()
        for n in BUILTIN_DESIGNS:
            cfg = ProjectConfig.from_raw(load_builtin_design(n))
            q_factors.add(cfg.data["beam"]["q_factor"])
        assert q_factors == {4000.0, 4500.0, 5000.0}

    def test_design_3_is_clamped_clamped(self):
        cfg = ProjectConfig.from_raw(load_builtin_design(3))
        assert cfg.data["beam"]["anchor"] == "clamped_clamped"

    def test_unknown_design_number(self):
        with pytest.raises(ConfigError):
            load_builtin_design(4)


class TestBuilders:
    def test_build_inputs_wires_the_blocks_together(self):
        cfg = ProjectConfig.from_raw({"beam": {"in_plane_width": 1.5e-6},
                                      "transducer": {"electrode_length": 50e-6}})
        inputs = cfg.build_inputs()
        assert inputs.beam.H == 1.5e-6
        assert inputs.beam.W == pytest.approx(4.8e-6)  # laminate stack
        assert inputs.transducer.electrode_length == 50e-6
        assert inputs.gm is None  # "auto"

    def test_explicit_thickness_overrides_laminate(self):
        cfg = ProjectConfig.from_raw({"beam": {"thickness": 3e-6}})
        assert cfg.build_inputs().beam.W == 3e-6

    def test_build_sim_seed_override(self):
        cfg = ProjectConfig.from_raw({"sim": {"noise_seed": 3}})
        assert cfg.build_sim().noise_seed == 3
        assert cfg.build_sim(seed_override=11).noise_seed == 11

    def test_x_max_resolution(self):
        guard_on = ProjectConfig.from_raw({})
        assert guard_on.x_max(4e-7) == 4e-7
        guard_off = ProjectConfig.from_raw({"sim": {"displacement_guard": False}})
        assert guard_off.x_max(4e-7) == math.inf
        explicit = ProjectConfig.from_raw({"sim": {"x_max": 1e-7}})
        assert explicit.x_max(4e-7) == 1e-7

    def test_build_sweep_spec_requires_axes(self):
        with pytest.raises(ConfigError, match=r"explore\.axes"):
            ProjectConfig.from_raw({}).build_sweep_spec()
        cfg = ProjectConfig.from_raw({"explore": {
            "axes": [{"path": "beam.length", "min": 6e-5, "max": 1e-4,
                      "steps": 3, "scale": "log"}],
            "objective": "min_Rx",
            "constraints": ["bias"],
        }})
        spec = cfg.build_sweep_spec()
        assert spec.axes[0].path == "beam.length"
        assert spec.axes[0].scale == "log"
        assert spec.objective == "min_Rx"
        assert spec.enabled_constraints == ("bias",)

    def test_from_raw_applies_overrides(self):
        cfg = ProjectConfig.from_raw({}, overrides=["beam.q_factor=9000"])
        assert cfg.data["beam"]["q_factor"] == 9000.0


class TestFileLoading:
    def test_round_trip_through_a_file(self, tmp_path):
        path = tmp_path / "project.json"
        path.write_text(json.dumps({"beam": {"length": 8e-5}}))
        assert load_config(path)["beam"]["length"] == 8e-5

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)

    def test_non_object_root_file(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="root"):
            load_config(path)
