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
from dataclasses import dataclass, fields
from importlib import resources

from .errors import ConfigError, ValidationError
from .explore import (
    CONSTRAINT_NAMES,
    DEFAULT_GRID_CAP,
    OBJECTIVES,
    PARAMETER_PATHS,
    DesignInputs,
    SweepAxis,
    SweepSpec,
)
from .mechanics import BeamGeometry, MASS_MODELS, STIFFNESS_COEFF
from .pierce import PierceConfig
from .process import MAX_METAL_INDEX, MemsRuleSet, metal_stack_heights
from .simulate import SimConfig
from .transduction import DEFLECTION_MODES, Transducer, VALID_PORTS

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
        axis_path = _string(f"{p}.path", item["path"], choices=_AXIS_PATHS)
        earlier = [axis["path"] for axis in out]
        if axis_path in earlier:
            raise ConfigError(f"{p}.path: duplicates {path}[{earlier.index(axis_path)}]")
        axis = {
            "path": axis_path,
            "min": _number(f"{p}.min", item["min"]),
            "max": _number(f"{p}.max", item["max"]),
            "steps": _integer(f"{p}.steps", item["steps"], minimum=1),
            "scale": _string(f"{p}.scale", item.get("scale", "linear"),
                             choices={"linear", "log"}),
        }
        # The rules across fields (min <= max, log axes > 0) are SweepAxis's;
        # checking them here refuses a bad axis in every command.
        try:
            _sweep_axis(axis)
        except ValidationError as err:
            raise ConfigError(f"{p}: {err}") from err
        out.append(axis)
    return out


def _sweep_axis(axis: dict) -> SweepAxis:
    return SweepAxis(axis["path"], axis["min"], axis["max"], axis["steps"], axis["scale"])


def _constraints(path, v):
    if v is None:
        return None
    if not isinstance(v, list):
        raise ConfigError(f"{path}: expected a list of constraint names or null")
    return [_string(f"{path}[{i}]", n, choices=_CONSTRAINT_NAMES)
            for i, n in enumerate(v)]


# Schema: block -> field -> (default, validator, validator kwargs). A default
# or bound that a dataclass field or a module constant holds is read from it.
SCHEMA = {
    "materials": {
        "youngs_modulus": (None, _nullable(_number), {"exclusive_minimum": 0}),
        "density": (None, _nullable(_number), {"exclusive_minimum": 0}),
        "top_metal_index": (MAX_METAL_INDEX, _integer, {"minimum": 1, "maximum": MAX_METAL_INDEX}),
        "include_dielectric": (True, _boolean, {}),
        "thickness_per_pair": (None, _nullable(_number), {"exclusive_minimum": 0}),
    },
    "beam": {
        "anchor": ("cantilever", _string, {"choices": set(STIFFNESS_COEFF)}),
        "length": (100e-6, _number, {"exclusive_minimum": 0}),
        "in_plane_width": (2e-6, _number, {"exclusive_minimum": 0}),
        "thickness": (None, _nullable(_number), {"exclusive_minimum": 0}),
        "q_factor": (4000.0, _number, {"exclusive_minimum": 0}),
    },
    "transducer": {
        "gap": (1.2e-6, _number, {"exclusive_minimum": 0}),
        "electrode_length": (75e-6, _number, {"exclusive_minimum": 0}),
        "bias_voltage": (9.5, _number, {"minimum": 0}),
        "port": (Transducer.port, _string, {"choices": VALID_PORTS}),
        "x_amplitude": (None, _nullable(_number), {"minimum": 0}),
    },
    "pierce": {
        "c1": (PierceConfig.c1, _number, {"exclusive_minimum": 0}),
        "c2": (PierceConfig.c2, _number, {"exclusive_minimum": 0}),
        "c0": (PierceConfig.c0, _number, {"exclusive_minimum": 0}),
        "gm": ("auto", _gm, {}),
        "target_margin": (DesignInputs.target_margin, _number, {"exclusive_minimum": 0}),
    },
    "sim": {
        "dt": (SimConfig.dt, _nullable(_number), {"exclusive_minimum": 0}),
        "duration": (SimConfig.duration, _nullable(_number), {"exclusive_minimum": 0}),
        "noise_seed": (SimConfig.noise_seed, _nullable(_integer), {"minimum": 0}),
        "initial_kick": (SimConfig.initial_kick, _number, {"minimum": 0}),
        "initial_displacement": (SimConfig.initial_displacement, _number, {}),
        "v_limit": (PierceConfig.v_limit, _number, {"exclusive_minimum": 0}),
        "r_feedback": (PierceConfig.r_feedback, _number, {"exclusive_minimum": 0}),
        "r_output": (PierceConfig.r_output, _number, {"exclusive_minimum": 0}),
        "displacement_guard": (True, _boolean, {}),
        "x_max": (None, _nullable(_number), {"exclusive_minimum": 0}),
    },
    "explore": {
        "alpha_pull_in": (DesignInputs.alpha_pull_in, _number,
                          {"exclusive_minimum": 0, "maximum": 1}),
        "vibration_amplitude": (None, _nullable(_number), {"minimum": 0}),
        "objective": (SweepSpec.objective, _string, {"choices": set(OBJECTIVES)}),
        "grid_cap": (DEFAULT_GRID_CAP, _integer, {"minimum": 1}),
        "axes": ([], _axes, {}),
        "constraints": (None, _constraints, {}),
    },
    "rules": {
        "min_lateral_gap": (MemsRuleSet.min_lateral_gap, _number, {"exclusive_minimum": 0}),
        "max_release_width": (MemsRuleSet.max_release_width, _number, {"exclusive_minimum": 0}),
        "require_metal_cover": (MemsRuleSet.require_metal_cover, _boolean, {}),
    },
    "analysis": {
        "mass_model": (DesignInputs.mass_model, _string, {"choices": set(MASS_MODELS)}),
        "deflection_mode": (DesignInputs.deflection_mode, _string,
                            {"choices": set(DEFLECTION_MODES)}),
    },
}


# The schema compiled once, at import: each block's defaults (only a mutable
# one, such as explore.axes, is copied per config), one (dotted path,
# validator, keywords) row per key, and the route of every key an axis can
# set into the DesignInputs part and field it sets.
_DEFAULTS = {block: {name: default for name, (default, _, _) in entries.items()}
             for block, entries in SCHEMA.items()}
_MUTABLE_DEFAULTS = tuple((block, name) for block, defaults in _DEFAULTS.items()
                          for name, default in defaults.items()
                          if isinstance(default, (list, dict)))
_ROWS = {block: {name: (f"{block}.{name}", fn, kw) for name, (_, fn, kw) in entries.items()}
         for block, entries in SCHEMA.items()}
_AXIS_PATHS = frozenset(PARAMETER_PATHS)
_CONSTRAINT_NAMES = frozenset(CONSTRAINT_NAMES)
_ROUTES = tuple((*key.split("."), part, field) for key, (part, field) in PARAMETER_PATHS.items())


def default_config() -> dict:
    """The full default config as a plain dict of its own: each mutable
    default (a list or dict, such as explore.axes) is a fresh copy."""
    out = {"description": ""}
    for block, defaults in _DEFAULTS.items():
        out[block] = dict(defaults)
    for block, name in _MUTABLE_DEFAULTS:
        out[block][name] = copy.deepcopy(out[block][name])
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
        rows = _ROWS.get(block)
        if rows is None:
            raise ConfigError(f"unknown config key: {block}")
        if not isinstance(content, dict):
            raise ConfigError(f"{block}: expected an object")
        target = resolved[block]
        for field, value in content.items():
            row = rows.get(field)
            if row is None:
                raise ConfigError(f"unknown config key: {block}.{field}")
            path, fn, kw = row
            target[field] = fn(path, value, **kw)
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
    except UnicodeDecodeError as err:
        raise ConfigError(f"config {path} is not UTF-8 text: {err}") from err
    except RecursionError as err:
        raise ConfigError(f"config {path} is nested too deeply to parse") from err
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
    through validate_config, so unknown keys are caught there. Only the
    root and its blocks are copied, the levels an assignment writes to: a
    deep copy of a deeply nested value would overflow the stack.
    """
    out = {key: dict(value) if isinstance(value, dict) else value for key, value in raw.items()}
    for assignment in assignments:
        if "=" not in assignment:
            raise ConfigError(
                f"override {assignment!r} must look like key.path=value"
            )
        path, _, text = assignment.partition("=")
        parts = path.strip().split(".")
        if not all(parts) or len(parts) > 2:
            raise ConfigError(f"override path {path!r} must be block.field")
        try:
            value = _parse_set_value(text.strip())
        except RecursionError as err:
            raise ConfigError(f"{path.strip()}: value is nested too deeply to parse") from err
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
        mat = d["materials"]
        # The stack is resolved here, once: the pitch sets both the derived
        # thickness (beam.W, the electrode height too) and the heights the
        # metal-cover rule accepts.
        heights = metal_stack_heights(mat["include_dielectric"], mat["thickness_per_pair"])
        parts = {
            "beam": {"anchor": d["beam"]["anchor"], "W": heights[mat["top_metal_index"] - 1]},
            "transducer": {"port": d["transducer"]["port"]},
            "amplifier": {key: d["sim"][key] for key in ("v_limit", "r_feedback", "r_output")},
            None: dict(d["analysis"]),
        }
        # Every key an axis can set goes through the axes' own table; an
        # unset one (null, or pierce.gm "auto") keeps its DesignInputs default.
        for block, name, part, field in _ROUTES:
            value = d[block][name]
            if value not in (None, "auto"):
                parts[part][field] = value
        return DesignInputs(
            beam=BeamGeometry(**parts["beam"]),
            transducer=Transducer(**parts["transducer"]),
            amplifier=PierceConfig(**parts["amplifier"]),
            rules=MemsRuleSet(**d["rules"], metal_thickness_grid=heights),
            **parts[None],
        )

    def build_sim(self) -> SimConfig:
        return SimConfig(**{f.name: self.data["sim"][f.name] for f in fields(SimConfig)})

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
        constraints = exp["constraints"]
        return SweepSpec(
            axes=tuple(map(_sweep_axis, exp["axes"])),
            objective=exp["objective"],
            grid_cap=exp["grid_cap"],
            constraints=None if constraints is None else tuple(constraints),
        )
