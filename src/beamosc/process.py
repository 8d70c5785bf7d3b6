"""Metal-laminate process model and manufacturability rules.

Structures are built from the interconnect stack of a standard CMOS flow and
released by a maskless post-process etch. The composite beam material is a
metal/dielectric laminate, so its stiffness and density are effective values
fitted to fabricated devices rather than textbook aluminum numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._num import select
from .errors import RAISE, ValidationError, build

# Effective laminate properties, fitted to the bundled reference devices.
DEFAULT_YOUNGS_MODULUS = 63e9  # Pa
DEFAULT_DENSITY = 2770.0       # kg/m^3

THICKNESS_PER_PAIR = 1.2e-6    # m of stack height per metal+dielectric pair
METAL_FRACTION = 0.5           # thickness share left when dielectric is excluded
MAX_METAL_INDEX = 4


@dataclass(frozen=True)
class LaminateSpec:
    """Which part of the interconnect stack forms the structure.

    top_metal_index     highest metal layer included (1..4)
    include_dielectric  keep inter-metal dielectric in the laminate (the
                        normal released structure) or count metal only
    """

    top_metal_index: int
    include_dielectric: bool = True

    def __post_init__(self):
        if not isinstance(self.top_metal_index, int) or isinstance(self.top_metal_index, bool):
            raise ValidationError("top_metal_index must be an integer")
        if not 1 <= self.top_metal_index <= MAX_METAL_INDEX:
            raise ValidationError(
                f"top_metal_index must be in 1..{MAX_METAL_INDEX}, "
                f"got {self.top_metal_index}"
            )


@dataclass(frozen=True)
class LaminateProperties:
    """Resolved stack: thickness [m], Young's modulus [Pa], density [kg/m^3]."""

    thickness: float
    youngs_modulus: float
    density: float

    def __post_init__(self, check=RAISE):
        check((self.thickness <= 0) | (self.youngs_modulus <= 0) | (self.density <= 0),
              "laminate properties must all be > 0")


def laminate_properties(
    spec: LaminateSpec,
    *,
    youngs_modulus: float | None = None,
    density: float | None = None,
    thickness_per_pair: float | None = None,
    thickness: float | None = None,
    check=RAISE,
) -> LaminateProperties:
    """Resolve a laminate spec to thickness and effective material constants.

    Thickness scales linearly with the metal count (1.2 um per
    metal+dielectric pair, so a 4-metal stack is 4.8 um). Keyword overrides
    replace the fitted defaults; an explicit `thickness` wins over the
    per-pair scaling. The material values may be floats or columns.
    """
    pitch = THICKNESS_PER_PAIR if thickness_per_pair is None else thickness_per_pair
    if pitch <= 0:
        raise ValidationError("thickness_per_pair must be > 0")
    if thickness is None:
        thickness = spec.top_metal_index * pitch
        if not spec.include_dielectric:
            thickness *= METAL_FRACTION
    return build(
        LaminateProperties, check,
        thickness=thickness,
        youngs_modulus=DEFAULT_YOUNGS_MODULUS if youngs_modulus is None else youngs_modulus,
        density=DEFAULT_DENSITY if density is None else density,
    )


def metal_stack_heights(include_dielectric: bool = True,
                        thickness_per_pair: float | None = None) -> tuple[float, ...]:
    """Stack thickness for each top metal 1..MAX_METAL_INDEX at this pitch:
    the heights a metal-covered beam may have."""
    return tuple(
        laminate_properties(LaminateSpec(i, include_dielectric),
                            thickness_per_pair=thickness_per_pair).thickness
        for i in range(1, MAX_METAL_INDEX + 1))


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
        if self.min_lateral_gap <= 0 or self.max_release_width <= 0:
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
