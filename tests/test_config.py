import copy
import json
import math

import pytest
from hypothesis import event, example, given
from hypothesis import strategies as st

from test_columns import PATH_RANGES
from beamosc.config import (
    BUILTIN_DESIGNS,
    SCHEMA,
    ProjectConfig,
    apply_overrides,
    default_config,
    load_builtin_design,
    load_config,
    validate_config,
)
from beamosc.errors import ConfigError, ValidationError
from beamosc.explore import (
    CONSTRAINT_NAMES,
    PARAMETER_PATHS,
    DesignInputs,
    SweepSpec,
    evaluate,
    flatten,
    set_parameter,
)
from beamosc.process import MemsRuleSet
from beamosc.pierce import PierceConfig
from beamosc.simulate import SimConfig
from beamosc.transduction import Transducer


class TestValidation:
    def test_empty_config_resolves_to_defaults(self):
        resolved = validate_config({})
        assert resolved == default_config()
        assert resolved["beam"]["length"] == 100e-6
        assert resolved["pierce"]["gm"] == "auto"
        assert resolved["sim"]["displacement_guard"] is True

    def test_a_config_shares_no_mutable_default(self):
        # Only mutable defaults are copied: editing one config's data in
        # place, every block and the axes list, leaves the next config's.
        want = default_config()
        data = ProjectConfig.from_raw({}).data
        data["explore"]["axes"].append({"path": "beam.length"})
        for block in SCHEMA:
            data[block].clear()
        assert default_config() == want
        assert ProjectConfig.from_raw({}).data["explore"]["axes"] == []

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


def plain_walk(raw):
    """validate_config as a walk of SCHEMA itself, deriving every default,
    dotted path and validator call afresh."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    resolved = {"description": ""}
    for block, entries in SCHEMA.items():
        resolved[block] = {name: copy.deepcopy(default)
                           for name, (default, _, _) in entries.items()}
    for block, content in raw.items():
        if block == "description":
            if not isinstance(content, str):
                raise ConfigError(f"description: expected a string, got {content!r}")
            resolved["description"] = content
            continue
        if block not in SCHEMA:
            raise ConfigError(f"unknown config key: {block}")
        if not isinstance(content, dict):
            raise ConfigError(f"{block}: expected an object")
        for field, value in content.items():
            if field not in SCHEMA[block]:
                raise ConfigError(f"unknown config key: {block}.{field}")
            _, fn, kw = SCHEMA[block][field]
            resolved[block][field] = fn(f"{block}.{field}", value, **kw)
    return resolved


def _edges(kw):
    """Each bound of a schema row and its two float neighbours."""
    bounds = [kw[k] for k in ("minimum", "exclusive_minimum", "maximum") if k in kw]
    return [b + step for b in bounds for step in (0, -1, 1)] + [
        math.nextafter(b, side) for b in bounds for side in (-math.inf, math.inf)]


_JUNK = st.one_of(st.none(), st.booleans(), st.integers(-10, 10),
                  st.integers(10**308, 10**400), st.floats(), st.just("auto"),
                  st.text(max_size=3), st.lists(st.integers(), max_size=2),
                  st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))
_AXIS_VALUES = {
    "path": st.sampled_from([*sorted(PARAMETER_PATHS), "beam.anchor", "bogus"]),
    "min": st.sampled_from([-1.0, 0.0, 1e-6, 2e-6, 5, math.inf, math.nan, True, "1"]),
    "max": st.sampled_from([-1.0, 0.0, 1e-6, 2e-6, 5, math.inf, math.nan, True, "1"]),
    "steps": st.sampled_from([0, 1, 3, 2.0, True, -1]),
    "scale": st.sampled_from(["linear", "log", "cubic", 1]),
    "bogus": st.integers(),
}


@st.composite
def axis_objects(draw):
    """An axis object with fields missing, extra or bad."""
    fields = draw(st.lists(st.sampled_from(sorted(_AXIS_VALUES)), unique=True))
    return {field: draw(_AXIS_VALUES[field]) for field in fields}


@st.composite
def schema_values(draw, block, name):
    _, _, kw = SCHEMA[block][name]
    if name == "axes":
        return draw(st.lists(st.one_of(axis_objects(), _JUNK), max_size=3))
    if name == "constraints":
        names = st.sampled_from([*CONSTRAINT_NAMES, "bogus", 3])
        return draw(st.one_of(st.none(), st.lists(names, max_size=3), _JUNK))
    if draw(st.integers(0, 3)) == 0:
        return draw(_JUNK)
    near = sorted(kw.get("choices", ())) or _edges(kw)
    return draw(st.one_of(st.sampled_from(near or ["auto"]), st.floats(1e-9, 1e3),
                          st.integers(0, 10)))


@st.composite
def raw_configs(draw):
    """A random subset of SCHEMA's keys, with unknown blocks and keys too."""
    keys = [(block, name) for block, entries in SCHEMA.items() for name in entries]
    keys += [("bogus", "x"), ("beam", "bogus"), ("description", None), ("beam", None)]
    raw = {}
    for block, name in draw(st.lists(st.sampled_from(keys), unique=True, max_size=6)):
        if block == "description":
            raw[block] = draw(st.one_of(st.text(max_size=3), _JUNK))
        elif name is None:
            raw[block] = draw(_JUNK)
        elif not isinstance(raw.setdefault(block, {}), dict):
            continue  # a junk block stays junk
        elif block not in SCHEMA or name not in SCHEMA[block]:
            raw[block][name] = 1
        else:
            raw[block][name] = draw(schema_values(block, name))
    return raw


def _mutables(value):
    """Every list and dict in `value`, nested ones too."""
    if isinstance(value, (list, dict)):
        yield value
        for item in value.values() if isinstance(value, dict) else value:
            yield from _mutables(item)


def _outcome(validate, raw):
    try:
        return "ok", repr(validate(raw))
    except ConfigError as err:
        return "refused", str(err)


@given(raw=raw_configs())
def test_the_compiled_schema_validates_as_the_plain_walk(raw):
    """validate_config's compiled tables give what a walk of SCHEMA gives:
    the same resolved config or the same message, and no list or dict of
    one result is shared with another result or with SCHEMA."""
    want = _outcome(plain_walk, raw)
    event(want[0])
    assert _outcome(validate_config, raw) == want
    if want[0] == "ok":
        first, second = validate_config(raw), validate_config(raw)
        defaults = [d for entries in SCHEMA.values() for d, _, _ in entries.values()]
        shared = {id(v) for v in _mutables(first)} & {
            id(v) for v in [*_mutables(second), *_mutables(defaults)]}
        assert not shared


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

    def test_empty_config_builds_the_dataclass_defaults(self):
        cfg = ProjectConfig.from_raw({})
        assert cfg.build_sim() == SimConfig()
        inputs = cfg.build_inputs()
        assert inputs.rules == MemsRuleSet()
        assert inputs.amplifier == PierceConfig()
        for field in ("target_margin", "alpha_pull_in", "mass_model", "deflection_mode"):
            assert getattr(inputs, field) == getattr(DesignInputs, field), field
        assert inputs.transducer.port == Transducer.port
        assert cfg.data["explore"]["objective"] == SweepSpec.objective

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

    @pytest.mark.parametrize("axis", [
        {"path": "beam.length", "min": 1e-4, "max": 6e-5, "steps": 3},
        {"path": "beam.length", "min": 0.0, "max": 1e-4, "steps": 3, "scale": "log"},
    ], ids=["min_above_max", "log_from_zero"])
    def test_bad_axis_is_named(self, axis):
        # Refused when the config loads, so before any command runs.
        with pytest.raises(ConfigError, match=r"^explore\.axes\[0\]: "):
            ProjectConfig.from_raw({"explore": {"axes": [axis]}})

    def test_from_raw_applies_overrides(self):
        cfg = ProjectConfig.from_raw({}, overrides=["beam.q_factor=9000"])
        assert cfg.data["beam"]["q_factor"] == 9000.0

    @given(design=st.sampled_from(BUILTIN_DESIGNS), loop=st.fixed_dictionaries({}, optional={
        name: st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
        for name in ("v_limit", "r_feedback", "r_output")}))
    def test_the_loop_elements_reach_the_amplifier_not_the_closed_form(self, design, loop):
        # sim.v_limit, sim.r_feedback and sim.r_output set the amplifier that
        # analyze and simulate share, and the closed form ignores them: every
        # value analyze reports is the default loop's, bit for bit.
        raw = load_builtin_design(design)
        cfg = ProjectConfig.from_raw({**raw, "sim": {**raw.get("sim", {}), **loop}})
        inputs = cfg.build_inputs()
        pierce, sim = cfg.data["pierce"], cfg.data["sim"]
        assert inputs.amplifier == PierceConfig(
            c1=pierce["c1"], c2=pierce["c2"], c0=pierce["c0"], v_limit=sim["v_limit"],
            r_feedback=sim["r_feedback"], r_output=sim["r_output"])
        for name, value in loop.items():
            assert getattr(inputs.amplifier, name) == value
        default = flatten(evaluate(ProjectConfig.from_raw(raw).build_inputs()))
        assert {k: repr(v) for k, v in flatten(evaluate(inputs)).items()} == {
            k: repr(v) for k, v in default.items()}


@st.composite
def parameter_values(draw):
    """Values for a subset of the sweepable keys, in PATH_RANGES."""
    keys = draw(st.lists(st.sampled_from(sorted(PATH_RANGES)), unique=True))
    return {key: draw(st.floats(*PATH_RANGES[key])) for key in keys}


class TestKeysMapLikeTheAxes:
    """`--set key=value` and a sweep axis at key = value build one design."""

    def test_every_axis_path_is_a_config_key(self):
        for path in PARAMETER_PATHS:
            block, field = path.split(".")
            assert field in SCHEMA.get(block, {}), path

    @given(design=st.sampled_from([None, *BUILTIN_DESIGNS]), params=parameter_values())
    @example(design=1, params={"beam.length": 1e-6})  # shorter than its width
    def test_set_builds_what_set_parameter_builds(self, design, params):
        raw = {} if design is None else load_builtin_design(design)
        overrides = [f"{key}={json.dumps(value)}" for key, value in params.items()]
        try:
            want = set_parameter(ProjectConfig.from_raw(raw).build_inputs(), params)
        except ValidationError as err:
            with pytest.raises(ValidationError) as raised:
                ProjectConfig.from_raw(raw, overrides).build_inputs()
            assert str(raised.value) == str(err)
            return
        assert ProjectConfig.from_raw(raw, overrides).build_inputs() == want

    @pytest.mark.parametrize("design", [None, *BUILTIN_DESIGNS])
    def test_unset_keys_keep_the_defaults(self, design):
        raw = {} if design is None else load_builtin_design(design)
        keys = ("beam.thickness", "pierce.gm", "materials.youngs_modulus")
        for key in keys:
            block, field = key.split(".")
            raw.get(block, {}).pop(field, None)
        was_set = apply_overrides(raw, [f"{key}=1e-4" for key in keys])
        inputs = ProjectConfig.from_raw(
            was_set, ["beam.thickness=null", "pierce.gm=auto", "materials.youngs_modulus=null"],
        ).build_inputs()
        assert inputs.beam.W == ProjectConfig.from_raw({}).build_inputs().beam.W  # the stack
        assert inputs.gm is None
        assert inputs.youngs_modulus == DesignInputs.youngs_modulus
        assert inputs == ProjectConfig.from_raw(raw).build_inputs()


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
