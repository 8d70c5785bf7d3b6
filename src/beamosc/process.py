"""Metal-laminate process model and manufacturability rules.

Structures are built from the interconnect stack of a standard CMOS flow and
released by a maskless post-process etch. The composite beam material is a
metal/dielectric laminate, so its stiffness and density are effective values
fitted to fabricated devices rather than textbook aluminum numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._num import select
from .errors import ValidationError

# Effective laminate properties, fitted to the bundled reference devices.
DEFAULT_YOUNGS_MODULUS = 63e9  # Pa
DEFAULT_DENSITY = 2770.0       # kg/m^3

THICKNESS_PER_PAIR = 1.2e-6    # m of stack height per metal+dielectric pair
METAL_FRACTION = 0.5           # thickness share left when dielectric is excluded
MAX_METAL_INDEX = 4


def metal_stack_heights(include_dielectric: bool = True,
                        thickness_per_pair: float | None = None) -> tuple[float, ...]:
    """Stack thickness for each top metal 1..MAX_METAL_INDEX: the heights a
    metal-covered beam may have.

    Thickness scales linearly with the metal count (1.2 um per
    metal+dielectric pair by default, so a 4-metal stack is 4.8 um) and
    keeps METAL_FRACTION of that when the dielectric is excluded.
    """
    pitch = THICKNESS_PER_PAIR if thickness_per_pair is None else thickness_per_pair
    if not pitch > 0:  # NaN too
        raise ValidationError("thickness_per_pair must be > 0")
    fraction = 1.0 if include_dielectric else METAL_FRACTION
    return tuple(i * pitch * fraction for i in range(1, MAX_METAL_INDEX + 1))


DEFAULT_METAL_GRID = metal_stack_heights()


@dataclass(frozen=True)
class MemsRuleSet:
    """Release-etch manufacturability limits.

    min_lateral_gap     smallest etchable electrode gap, m
    max_release_width   widest in-plane feature the etch can undercut, m
    require_metal_cover when set, the stack thickness must land on a valid
                        metal-stack height from `metal_thickness_grid`
    """

    min_lateral_gap: float = 1.2e-6
    max_release_width: float = 8e-6
    require_metal_cover: bool = False
    metal_thickness_grid: tuple[float, ...] = DEFAULT_METAL_GRID

    def __post_init__(self):
        if not (self.min_lateral_gap > 0 and self.max_release_width > 0):  # NaN too
            raise ValidationError("rule limits must be > 0")
        if not self.metal_thickness_grid:
            raise ValidationError("metal_thickness_grid must not be empty")


@dataclass(frozen=True)
class RuleViolation:
    """One broken rule: name, the measured value, and the limit it broke."""

    rule: str
    measured: float
    limit: float

    def describe(self) -> str:
        return f"{self.rule}: measured {self.measured:.6g}, limit {self.limit:.6g}"


def rule_checks(gap, width, thickness, rules: MemsRuleSet = MemsRuleSet()) -> list[tuple]:
    """Every release-etch rule as (rule, broken, measured, limit).

    Takes the electrode gap, in-plane width and stack thickness as floats
    or columns; `broken` is a bool or a bool column.
    """
    checks = [
        ("lateral_gap", gap < rules.min_lateral_gap, gap, rules.min_lateral_gap),
        ("release_width", width > rules.max_release_width, width,
         rules.max_release_width),
    ]
    if rules.require_metal_cover:
        # min() with a key: the first grid height closest to the thickness.
        grid = rules.metal_thickness_grid
        nearest, distance = grid[0], abs(grid[0] - thickness)
        for height in grid[1:]:
            closer = abs(height - thickness) < distance
            nearest = select(closer, height, nearest)
            distance = select(closer, abs(height - thickness), distance)
        checks.append(("metal_cover", abs(nearest - thickness) > 1e-9, thickness, nearest))
    return checks


def check_mems_rules(geometry, transducer, rules: MemsRuleSet = MemsRuleSet()) -> list[RuleViolation]:
    """Check a beam/transducer pair against the release-etch rules.

    Returns a list of violations, empty when the design is manufacturable.
    Shrinking the gap or widening the beam can only add violations, never
    remove them.
    """
    return [
        RuleViolation(rule, measured, limit)
        for rule, broken, measured, limit
        in rule_checks(transducer.gap, geometry.H, geometry.W, rules)
        if broken
    ]
