"""JSON project configs: schema, validation, overrides, bundled designs.

A config is a nested JSON object; every key is optional and falls back to a
documented default. Unknown keys anywhere are rejected up front, before any
computation or file output, and every error message names the offending key
by its dotted path. The same dotted paths drive `--set key=value` overrides.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from importlib import resources

from .errors import ConfigError
from .explore import (
    CONSTRAINT_NAMES,
    DEFAULT_GRID_CAP,
    OBJECTIVES,
    PARAMETER_PATHS,
    DesignInputs,
    SweepAxis,
    SweepSpec,
)
from .mechanics import Anchor, BeamGeometry, DEFLECTION_MODES, MASS_MODELS
from .process import MemsRuleSet, metal_stack_heights
from .simulate import SimConfig
from .transduction import Transducer, VALID_PORTS

BUILTIN_DESIGNS = (1, 2, 3)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _number(path, v, *, minimum=None, exclusive_minimum=None, maximum=None):
    if not _is_number(v):
        raise ConfigError(f"{path}: expected a number, got {v!r}")
    try:
        finite = math.isfinite(v)
    except OverflowError:  # an integer too large for a float
        finite = False
    if not finite:
        raise ConfigError(f"{path}: must be a finite number, got {v!r}")
    if exclusive_minimum is not None and v <= exclusive_minimum:
        raise ConfigError(f"{path}: must be > {exclusive_minimum}, got {v}")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {v}")
    if maximum is not None and v > maximum:
        raise ConfigError(f"{path}: must be <= {maximum}, got {v}")
    return float(v)


def _integer(path, v, *, minimum=None, maximum=None):
    if not isinstance(v, int) or isinstance(v, bool):
        raise ConfigError(f"{path}: expected an integer, got {v!r}")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {v}")
    if maximum is not None and v > maximum:
        raise ConfigError(f"{path}: must be <= {maximum}, got {v}")
    return v


def _boolean(path, v):
    if not isinstance(v, bool):
        raise ConfigError(f"{path}: expected true or false, got {v!r}")
    return v


def _string(path, v, choices=None):
    if not isinstance(v, str):
        raise ConfigError(f"{path}: expected a string, got {v!r}")
    if choices is not None and v not in choices:
        raise ConfigError(f"{path}: must be one of {sorted(choices)}, got {v!r}")
    return v


def _nullable(fn):
    def check(path, v, **kw):
        return None if v is None else fn(path, v, **kw)
    return check


def _gm(path, v):
    if v == "auto":
        return "auto"
    if _is_number(v) and v >= 0:
        return _number(path, v)
    raise ConfigError(f'{path}: expected "auto" or a number >= 0, got {v!r}')


def _axes(path, v):
    if not isinstance(v, list):
        raise ConfigError(f"{path}: expected a list of axis objects")
    out = []
    for i, item in enumerate(v):
        p = f"{path}[{i}]"
        if not isinstance(item, dict):
            raise ConfigError(f"{p}: expected an object")
        unknown = set(item) - {"path", "min", "max", "steps", "scale"}
        if unknown:
            raise ConfigError(f"{p}: unknown config key: {sorted(unknown)[0]}")
        for req in ("path", "min", "max", "steps"):
            if req not in item:
                raise ConfigError(f"{p}.{req}: required")
        axis_path = _string(f"{p}.path", item["path"], choices=set(PARAMETER_PATHS))
        out.append({
            "path": axis_path,
            "min": _number(f"{p}.min", item["min"]),
            "max": _number(f"{p}.max", item["max"]),
            "steps": _integer(f"{p}.steps", item["steps"], minimum=1),
            "scale": _string(f"{p}.scale", item.get("scale", "linear"),
                             choices={"linear", "log"}),
        })
    return out


def _constraints(path, v):
    if v is None:
        return None
    if not isinstance(v, list):
        raise ConfigError(f"{path}: expected a list of constraint names or null")
    return [_string(f"{path}[{i}]", n, choices=set(CONSTRAINT_NAMES))
            for i, n in enumerate(v)]


# Schema: block -> field -> (default, validator, validator kwargs).
SCHEMA = {
    "materials": {
        "youngs_modulus": (None, _nullable(_number), {"exclusive_minimum": 0}),
        "density": (None, _nullable(_number), {"exclusive_minimum": 0}),
        "top_metal_index": (4, _integer, {"minimum": 1, "maximum": 4}),
        "include_dielectric": (True, _boolean, {}),
        "thickness_per_pair": (None, _nullable(_number), {"exclusive_minimum": 0}),
    },
    "beam": {
        "anchor": ("cantilever", _string, {"choices": {a.value for a in Anchor}}),
        "length": (100e-6, _number, {"exclusive_minimum": 0}),
        "in_plane_width": (2e-6, _number, {"exclusive_minimum": 0}),
        "thickness": (None, _nullable(_number), {"exclusive_minimum": 0}),
        "q_factor": (4000.0, _number, {"exclusive_minimum": 0}),
    },
    "transducer": {
        "gap": (1.2e-6, _number, {"exclusive_minimum": 0}),
        "electrode_length": (75e-6, _number, {"exclusive_minimum": 0}),
        "bias_voltage": (9.5, _number, {"minimum": 0}),
        "port": ("one_port", _string, {"choices": VALID_PORTS}),
        "x_amplitude": (None, _nullable(_number), {"minimum": 0}),
    },
    "pierce": {
        "c1": (2e-12, _number, {"exclusive_minimum": 0}),
        "c2": (2e-12, _number, {"exclusive_minimum": 0}),
        "c0": (10e-15, _number, {"exclusive_minimum": 0}),
        "gm": ("auto", _gm, {}),
        "target_margin": (3.0, _number, {"exclusive_minimum": 0}),
    },
    "sim": {
        "dt": (None, _nullable(_number), {"exclusive_minimum": 0}),
        "duration": (None, _nullable(_number), {"exclusive_minimum": 0}),
        "noise_seed": (None, _nullable(_integer), {"minimum": 0}),
        "initial_kick": (1e-6, _number, {"minimum": 0}),
        "initial_displacement": (0.0, _number, {}),
        "v_limit": (0.1, _number, {"exclusive_minimum": 0}),
        "r_feedback": (1e10, _number, {"exclusive_minimum": 0}),
        "r_output": (1e9, _number, {"exclusive_minimum": 0}),
        "displacement_guard": (True, _boolean, {}),
        "x_max": (None, _nullable(_number), {"exclusive_minimum": 0}),
    },
    "explore": {
        "alpha_pull_in": (0.97, _number, {"exclusive_minimum": 0, "maximum": 1}),
        "vibration_amplitude": (None, _nullable(_number), {"minimum": 0}),
        "objective": ("startup_margin", _string, {"choices": set(OBJECTIVES)}),
        "grid_cap": (DEFAULT_GRID_CAP, _integer, {"minimum": 1}),
        "axes": ([], _axes, {}),
        "constraints": (None, _constraints, {}),
    },
    "rules": {
        "min_lateral_gap": (1.2e-6, _number, {"exclusive_minimum": 0}),
        "max_release_width": (8e-6, _number, {"exclusive_minimum": 0}),
        "require_metal_cover": (False, _boolean, {}),
    },
    "analysis": {
        "mass_model": ("full", _string, {"choices": set(MASS_MODELS)}),
        "deflection_mode": ("linearized", _string, {"choices": set(DEFLECTION_MODES)}),
    },
}


def default_config() -> dict:
    """The full default config as a plain dict."""
    out = {"description": ""}
    for block, fields in SCHEMA.items():
        out[block] = {name: copy.deepcopy(spec[0]) for name, spec in fields.items()}
    return out


def validate_config(raw: dict) -> dict:
    """Overlay `raw` onto the defaults, rejecting unknown keys and bad values.

    Raises ConfigError naming the offending dotted key. Runs before any file
    output so a bad config never leaves partial results behind.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    resolved = default_config()
    for block, content in raw.items():
        if block == "description":
            resolved["description"] = _string("description", content)
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


def load_config(path) -> dict:
    """Read a raw (unvalidated) config dict from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config {path} is not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path}: root must be a JSON object")
    return raw


def load_builtin_design(number: int) -> dict:
    """Raw config of one of the bundled reference designs (1, 2 or 3)."""
    if number not in BUILTIN_DESIGNS:
        raise ConfigError(f"design must be one of {BUILTIN_DESIGNS}, got {number}")
    text = resources.files("beamosc.data").joinpath(f"design{number}.json").read_text()
    return json.loads(text)


def _parse_set_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text  # bare strings like one_port need no quotes


def apply_overrides(raw: dict, assignments: list[str]) -> dict:
    """Apply --set style `block.field=value` assignments to a raw config.

    Values parse as JSON with a bare-string fallback. The result still goes
    through validate_config, so unknown keys are caught there.
    """
    out = copy.deepcopy(raw)
    for assignment in assignments:
        if "=" not in assignment:
            raise ConfigError(
                f"override {assignment!r} must look like key.path=value"
            )
        path, _, text = assignment.partition("=")
        parts = path.strip().split(".")
        if not all(parts) or len(parts) > 2:
            raise ConfigError(f"override path {path!r} must be block.field")
        value = _parse_set_value(text.strip())
        node = out
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override path {path!r} crosses a non-object key")
        node[parts[-1]] = value
    return out


@dataclass(frozen=True)
class ProjectConfig:
    """A validated config plus builders for the library-level objects."""

    data: dict

    @classmethod
    def from_raw(cls, raw: dict, overrides: list[str] | None = None) -> "ProjectConfig":
        if overrides:
            raw = apply_overrides(raw, overrides)
        return cls(data=validate_config(raw))

    def build_inputs(self) -> DesignInputs:
        d = self.data
        mat, beam, tr, prc, exp, rules, ana = (
            d["materials"], d["beam"], d["transducer"], d["pierce"],
            d["explore"], d["rules"], d["analysis"],
        )
        # The stack is resolved here, once: the pitch sets both the derived
        # thickness and the heights the metal-cover rule accepts, and the
        # electrode height is that same thickness (beam.W).
        heights = metal_stack_heights(mat["include_dielectric"], mat["thickness_per_pair"])
        thickness = beam["thickness"]
        if thickness is None:
            thickness = heights[mat["top_metal_index"] - 1]
        geometry = BeamGeometry(
            anchor=beam["anchor"], L=beam["length"],
            H=beam["in_plane_width"], W=thickness,
        )
        transducer = Transducer(
            gap=tr["gap"], electrode_length=tr["electrode_length"],
            bias_voltage=tr["bias_voltage"], port=tr["port"],
        )
        # Unset material constants keep the DesignInputs defaults, the fitted ones.
        constants = {key: mat[key] for key in ("youngs_modulus", "density")
                     if mat[key] is not None}
        return DesignInputs(
            beam=geometry,
            transducer=transducer,
            q_factor=beam["q_factor"],
            c1=prc["c1"], c2=prc["c2"], c0=prc["c0"],
            gm=None if prc["gm"] == "auto" else prc["gm"],
            target_margin=prc["target_margin"],
            alpha_pull_in=exp["alpha_pull_in"],
            vibration_amplitude=exp["vibration_amplitude"],
            x_amplitude=tr["x_amplitude"],
            mass_model=ana["mass_model"],
            deflection_mode=ana["deflection_mode"],
            rules=MemsRuleSet(
                min_lateral_gap=rules["min_lateral_gap"],
                max_release_width=rules["max_release_width"],
                require_metal_cover=rules["require_metal_cover"],
                metal_thickness_grid=heights,
            ),
            **constants,
        )

    def build_sim(self, seed_override: int | None = None) -> SimConfig:
        s = self.data["sim"]
        return SimConfig(
            dt=s["dt"],
            duration=s["duration"],
            noise_seed=seed_override if seed_override is not None else s["noise_seed"],
            initial_kick=s["initial_kick"],
            initial_displacement=s["initial_displacement"],
            v_limit=s["v_limit"],
            r_feedback=s["r_feedback"],
            r_output=s["r_output"],
        )

    def x_max(self, x_limit: float) -> float:
        """Displacement guard for simulation: explicit x_max, the port
        displacement limit when the guard is on, or +inf."""
        s = self.data["sim"]
        if s["x_max"] is not None:
            return s["x_max"]
        return x_limit if s["displacement_guard"] else float("inf")

    def build_sweep_spec(self) -> SweepSpec:
        exp = self.data["explore"]
        if not exp["axes"]:
            raise ConfigError(
                "explore.axes: at least one axis is required for sweep/optimize"
            )
        axes = tuple(
            SweepAxis(
                path=a["path"], minimum=a["min"], maximum=a["max"],
                steps=a["steps"], scale=a["scale"],
            )
            for a in exp["axes"]
        )
        constraints = exp["constraints"]
        return SweepSpec(
            axes=axes,
            objective=exp["objective"],
            grid_cap=exp["grid_cap"],
            constraints=None if constraints is None else tuple(constraints),
        )
