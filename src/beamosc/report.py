"""Comparison of computed behavior against the bundled reference devices.

Three fabricated devices ship with the package as design configs plus a
table of their measured/verified figures (frequency, pull-in, deflection,
motional RLC, amplifier impedance). build_comparison() recomputes all nine
quantities for each device and grades every cell against a stated relative
tolerance. Design 1's static deflection is documented to sit about 2.5%
above the reference value under the linearized deflection model, so that
one cell carries a wider (3%) tolerance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .config import BUILTIN_DESIGNS, ProjectConfig, load_builtin_design
from .errors import ConfigError
from .explore import evaluate, flatten

# (key, label, unit label, display scale, explore.COLUMNS name)
QUANTITIES = (
    ("f0_hz", "f0", "kHz", 1e-3, "derived.f0"),
    ("v_pull_in_v", "V_pull_in", "V", 1.0, "derived.v_pull_in"),
    ("i_x_a", "I_x", "nA", 1e9, "derived.i_x"),
    ("z_static_m", "x_static", "nm", 1e9, "derived.x_static"),
    ("re_zc_ohm", "|Re(Zc)|", "Mohm", 1e-6, "derived.re_zc"),
    ("re_zc_max_ohm", "|Re(Zc)|max", "Mohm", 1e-6, "derived.re_zc_max"),
    ("r_x_ohm", "R_x", "kohm", 1e-3, "derived.r_x"),
    ("l_x_h", "L_x", "H", 1.0, "derived.l_x"),
    ("c_x_f", "C_x", "aF", 1e18, "derived.c_x"),
)


def load_reference() -> dict:
    """The bundled reference table: values and per-cell tolerances."""
    text = resources.files("beamosc.data").joinpath("reference_values.json").read_text()
    return json.loads(text)


@dataclass(frozen=True)
class ComparisonReport:
    """All cells for all designs, as the columns table1 prints and writes."""

    columns: dict[str, list]  # name -> one value per cell, in table1.csv's order

    @property
    def all_pass(self) -> bool:
        return all(self.columns["passed"])

    def render_text(self) -> str:
        lines = [
            f"{'design':>6} {'quantity':>12} {'reference':>12} {'computed':>12} "
            f"{'rel_err':>9} {'tol':>7} {'status':>6}"
        ]
        display = {key: (label, unit, scale) for key, label, unit, scale, _ in QUANTITIES}
        for design, key, ref, computed, rel, tol, passed in zip(*self.columns.values()):
            label, unit, scale = display[key]
            lines.append(
                f"{design:>6} {label + ' ' + unit:>12} "
                f"{ref * scale:>12.4g} {computed * scale:>12.4g} "
                f"{rel:>+9.2%} {tol:>7.1%} {'pass' if passed else 'FAIL':>6}"
            )
        n_fail = self.columns["passed"].count(False)
        lines.append(
            f"{len(self.columns['passed'])} cells, "
            + ("all pass" if n_fail == 0 else f"{n_fail} FAILED")
        )
        return "\n".join(lines)


def build_comparison(overrides: list[str] | None = None) -> ComparisonReport:
    """Evaluate the three bundled designs and grade every reference cell.

    `overrides` are --set style assignments applied to each design config
    before evaluation (so a deliberately wrong material density makes the
    frequency cells fail, which is the intended use).
    """
    reference = load_reference()
    columns = {name: [] for name in ("design", "quantity", "reference", "computed",
                                     "rel_error", "tolerance", "passed")}
    for n in BUILTIN_DESIGNS:
        cfg = ProjectConfig.from_raw(load_builtin_design(n), overrides or [])
        if cfg.data["transducer"]["x_amplitude"] is None:
            raise ConfigError("transducer.x_amplitude: table1 compares I_x at this "
                              "amplitude, so it must be a number, got null")
        row = flatten(evaluate(cfg.build_inputs()))
        entry = reference["designs"][str(n)]
        for key, _, _, _, column in QUANTITIES:
            ref_value = entry["values"][key]
            tol = entry["tolerances"][key]
            rel = (row[column] - ref_value) / ref_value
            for name, value in zip(columns, (n, key, ref_value, row[column], rel, tol,
                                             abs(rel) <= tol)):
                columns[name].append(value)
    return ComparisonReport(columns=columns)
