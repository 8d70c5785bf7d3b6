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
from .explore import DesignPoint, evaluate

# (key, label, unit label, display scale, getter)
QUANTITIES = (
    ("f0_hz", "f0", "kHz", 1e-3, lambda p: p.model.f0),
    ("v_pull_in_v", "V_pull_in", "V", 1.0, lambda p: p.v_pull_in),
    ("i_x_a", "I_x", "nA", 1e9, lambda p: p.i_x),
    ("z_static_m", "x_static", "nm", 1e9, lambda p: p.x_static),
    ("re_zc_ohm", "|Re(Zc)|", "Mohm", 1e-6, lambda p: p.re_zc),
    ("re_zc_max_ohm", "|Re(Zc)|max", "Mohm", 1e-6, lambda p: p.re_max),
    ("r_x_ohm", "R_x", "kohm", 1e-3, lambda p: p.circuit.r_x),
    ("l_x_h", "L_x", "H", 1.0, lambda p: p.circuit.l_x),
    ("c_x_f", "C_x", "aF", 1e18, lambda p: p.circuit.c_x),
)


def load_reference() -> dict:
    """The bundled reference table: values and per-cell tolerances."""
    text = resources.files("beamosc.data").joinpath("reference_values.json").read_text()
    return json.loads(text)


@dataclass(frozen=True)
class CellComparison:
    """One quantity of one design: reference vs computed."""

    design: int
    quantity: str
    label: str
    unit: str
    scale: float
    reference: float
    computed: float
    rel_error: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class ComparisonReport:
    """All cells for all designs plus the evaluated points behind them."""

    cells: tuple[CellComparison, ...]
    points: dict

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.cells)

    @property
    def failures(self) -> list[CellComparison]:
        return [c for c in self.cells if not c.passed]

    def render_text(self) -> str:
        lines = [
            f"{'design':>6} {'quantity':>12} {'reference':>12} {'computed':>12} "
            f"{'rel_err':>9} {'tol':>7} {'status':>6}"
        ]
        for c in self.cells:
            lines.append(
                f"{c.design:>6} {c.label + ' ' + c.unit:>12} "
                f"{c.reference * c.scale:>12.4g} {c.computed * c.scale:>12.4g} "
                f"{c.rel_error:>+9.2%} {c.tolerance:>7.1%} "
                f"{'pass' if c.passed else 'FAIL':>6}"
            )
        n_fail = len(self.failures)
        lines.append(
            f"{len(self.cells)} cells, "
            + ("all pass" if n_fail == 0 else f"{n_fail} FAILED")
        )
        return "\n".join(lines)

    def to_rows(self) -> list[dict]:
        return [
            {
                "design": c.design,
                "quantity": c.quantity,
                "reference": c.reference,
                "computed": c.computed,
                "rel_error": c.rel_error,
                "tolerance": c.tolerance,
                "passed": c.passed,
            }
            for c in self.cells
        ]


def build_comparison(overrides: list[str] | None = None) -> ComparisonReport:
    """Evaluate the three bundled designs and grade every reference cell.

    `overrides` are --set style assignments applied to each design config
    before evaluation (so a deliberately wrong material density makes the
    frequency cells fail, which is the intended use).
    """
    reference = load_reference()
    cells = []
    points: dict[int, DesignPoint] = {}
    for n in BUILTIN_DESIGNS:
        cfg = ProjectConfig.from_raw(load_builtin_design(n), overrides or [])
        if cfg.data["transducer"]["x_amplitude"] is None:
            raise ConfigError("transducer.x_amplitude: table1 compares I_x at this "
                              "amplitude, so it must be a number, got null")
        point = evaluate(cfg.build_inputs())
        points[n] = point
        entry = reference["designs"][str(n)]
        for key, label, unit, scale, getter in QUANTITIES:
            ref_value = entry["values"][key]
            tol = entry["tolerances"][key]
            computed = getter(point)
            rel = (computed - ref_value) / ref_value
            cells.append(
                CellComparison(
                    design=n,
                    quantity=key,
                    label=label,
                    unit=unit,
                    scale=scale,
                    reference=ref_value,
                    computed=computed,
                    rel_error=rel,
                    tolerance=tol,
                    passed=abs(rel) <= tol,
                )
            )
    return ComparisonReport(cells=tuple(cells), points=points)
