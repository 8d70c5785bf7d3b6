"""Lumped single-mode model of a laterally vibrating beam.

The beam bends in plane, so the area moment uses the in-plane width H as the
bending dimension and the stack thickness W as the out-of-plane depth:

    I = W * H^3 / 12
    k = c * E * I / L^3      c = 3 (cantilever tip) or 192 (clamped-clamped middle)
    f0 = sqrt(k / m) / (2 pi)

The default mass model lumps the full beam mass rho*L*H*W at the drive point.
That choice, together with the stiffness above, reproduces the bundled
reference device table; a single-mode modal mass (fraction of the full mass)
is available as an alternative and raises the predicted frequency by
1/sqrt(fraction).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._num import power, sqrt
from .errors import RAISE, ValidationError, build

# Tip (cantilever) and midpoint (clamped-clamped) point-load stiffness factors.
STIFFNESS_COEFF = {"cantilever": 3.0, "clamped_clamped": 192.0}

# Effective fraction of the beam mass participating in the fundamental mode.
MODAL_MASS_FRACTION = {"cantilever": 0.2427, "clamped_clamped": 0.3965}

MASS_MODELS = ("full", "modal")


@dataclass(frozen=True)
class BeamGeometry:
    """Prismatic beam released over a cavity.

    anchor  "cantilever" or "clamped_clamped", a key of STIFFNESS_COEFF
    L       length between anchors, m
    H       in-plane width (the bending direction), m
    W       stack thickness (out-of-plane depth), m
    """

    anchor: str
    L: float
    H: float
    W: float

    def __post_init__(self, check=RAISE):
        anchors = sorted(STIFFNESS_COEFF)  # a list: an unhashable anchor is refused too
        if self.anchor not in anchors:  # never a column
            raise ValidationError(f"anchor must be one of {anchors}, got {self.anchor!r}")
        L, H, W = self.L, self.H, self.W
        check((L != L) | (H != H) | (W != W) | (L <= 0) | (H <= 0) | (W <= 0),
              "beam dimensions must all be > 0")
        check(L <= H, "beam length must exceed its in-plane width")


# The functions below take floats, or numpy columns from the sweep kernel;
# `geometry` may be any object with the BeamGeometry attributes. `check`
# runs each precondition (errors.RAISE by default).


def area_moment(geometry: BeamGeometry) -> float:
    """Second moment of area for in-plane bending, m^4."""
    return geometry.W * power(geometry.H, 3) / 12.0


def spring_constant(geometry: BeamGeometry, youngs_modulus: float, check=RAISE) -> float:
    """Point-load stiffness at the drive point, N/m."""
    check((youngs_modulus != youngs_modulus) | (youngs_modulus <= 0),
          "youngs_modulus must be > 0")
    coeff = STIFFNESS_COEFF[geometry.anchor]
    return coeff * youngs_modulus * area_moment(geometry) / power(geometry.L, 3)


def lumped_mass(geometry: BeamGeometry, density: float, mass_model: str = "full",
                check=RAISE) -> float:
    """Equivalent mass at the drive point, kg.

    "full" lumps the entire beam mass (the calibration used throughout the
    bundled reference designs); "modal" scales it by the fundamental-mode
    participation fraction.
    """
    check((density != density) | (density <= 0), "density must be > 0")
    if mass_model not in MASS_MODELS:
        raise ValidationError(f"mass_model must be one of {MASS_MODELS}")
    m = density * geometry.L * geometry.H * geometry.W
    if mass_model == "modal":
        m = m * MODAL_MASS_FRACTION[geometry.anchor]
    return m


def resonant_frequency(k: float, m: float, check=RAISE) -> float:
    """Natural frequency sqrt(k/m)/(2*pi), Hz."""
    check((k != k) | (m != m) | (k <= 0) | (m <= 0), "k and m must be > 0")
    return _natural_frequency(k, m)


def _natural_frequency(k, m):
    return sqrt(k / m) / (2.0 * math.pi)


@dataclass(frozen=True)
class LumpedBeamModel:
    """Spring-mass-damper summary of one beam: k [N/m], m [kg], f0 [Hz], q."""

    k: float
    m: float
    f0: float
    q: float

    def __post_init__(self, check=RAISE):
        k, m, f0, q = self.k, self.m, self.f0, self.q
        check((k != k) | (m != m) | (f0 != f0) | (k <= 0) | (m <= 0) | (f0 <= 0),
              "k, m and f0 must all be > 0")
        check((q != q) | (q <= 0), "q must be > 0")
        expected = _natural_frequency(k, m)  # k, m > 0 checked above
        check(abs(f0 / expected - 1.0) > 1e-12,
              "f0 = {!r} inconsistent with sqrt(k/m)/2pi = {!r}", f0, expected)

    @classmethod
    def from_geometry(
        cls,
        geometry: BeamGeometry,
        youngs_modulus: float,
        density: float,
        q: float,
        mass_model: str = "full",
        check=RAISE,
    ) -> "LumpedBeamModel":
        k = spring_constant(geometry, youngs_modulus, check)
        m = lumped_mass(geometry, density, mass_model, check)
        return build(cls, check, k=k, m=m, f0=resonant_frequency(k, m, check), q=q)

