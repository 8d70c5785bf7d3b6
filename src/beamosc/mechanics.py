"""Lumped single-mode model of a laterally vibrating beam.

The beam bends in plane, so the area moment uses the in-plane width H as the
bending dimension and the stack thickness W as the out-of-plane depth:

    I = W * H^3 / 12
    k = c * E * I / L^3      c = 3 (cantilever tip) or 192 (clamped-clamped middle)

The default mass model lumps the full beam mass rho*L*H*W at the drive point.
That choice, together with the stiffness above, reproduces the bundled
reference device table; a single-mode modal mass (fraction of the full mass)
is available as an alternative and raises the predicted frequency by
1/sqrt(fraction).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from ._num import logical_not, power, select, sqrt
from .errors import RAISE, ConvergenceError, PullInError, ValidationError, build
from .transduction import EPS0, Transducer


class Anchor(str, enum.Enum):
    CANTILEVER = "cantilever"
    CLAMPED_CLAMPED = "clamped_clamped"


# Tip (cantilever) and midpoint (clamped-clamped) point-load stiffness factors.
STIFFNESS_COEFF = {Anchor.CANTILEVER: 3.0, Anchor.CLAMPED_CLAMPED: 192.0}

# Effective fraction of the beam mass participating in the fundamental mode.
MODAL_MASS_FRACTION = {Anchor.CANTILEVER: 0.2427, Anchor.CLAMPED_CLAMPED: 0.3965}

MASS_MODELS = ("full", "modal")
DEFLECTION_MODES = ("linearized", "nonlinear")

_FP_TOL = 1e-15       # nonlinear deflection fixed-point tolerance, m
_FP_MAX_ITER = 1000
_FP_DAMPING = 0.5


@dataclass(frozen=True)
class BeamGeometry:
    """Prismatic beam released over a cavity.

    L  length between anchors, m
    H  in-plane width (the bending direction), m
    W  stack thickness (out-of-plane depth), m
    """

    anchor: Anchor
    L: float
    H: float
    W: float

    def __post_init__(self, check=RAISE):
        # Accept plain strings for the anchor to keep config plumbing simple.
        if not isinstance(self.anchor, Anchor):
            try:
                object.__setattr__(self, "anchor", Anchor(self.anchor))
            except ValueError:
                valid = [a.value for a in Anchor]
                raise ValidationError(
                    f"anchor must be one of {valid}, got {self.anchor!r}"
                ) from None
        L, H, W = self.L, self.H, self.W
        check((L <= 0) | (H <= 0) | (W <= 0), "beam dimensions must all be > 0")
        check(L <= H, "beam length must exceed its in-plane width")


# The functions below take floats, or numpy columns from the sweep kernel;
# `geometry` may be any object with the BeamGeometry attributes. `check`
# runs each precondition (errors.RAISE by default).


def area_moment(geometry: BeamGeometry) -> float:
    """Second moment of area for in-plane bending, m^4."""
    return geometry.W * power(geometry.H, 3) / 12.0


def spring_constant(geometry: BeamGeometry, youngs_modulus: float, check=RAISE) -> float:
    """Point-load stiffness at the drive point, N/m."""
    check(youngs_modulus <= 0, "youngs_modulus must be > 0")
    coeff = STIFFNESS_COEFF[geometry.anchor]
    return coeff * youngs_modulus * area_moment(geometry) / power(geometry.L, 3)


def lumped_mass(geometry: BeamGeometry, density: float, mass_model: str = "full",
                check=RAISE) -> float:
    """Equivalent mass at the drive point, kg.

    "full" lumps the entire beam mass (the calibration used throughout the
    bundled reference designs); "modal" scales it by the fundamental-mode
    participation fraction.
    """
    check(density <= 0, "density must be > 0")
    if mass_model not in MASS_MODELS:
        raise ValidationError(f"mass_model must be one of {MASS_MODELS}")
    m = density * geometry.L * geometry.H * geometry.W
    if mass_model == "modal":
        m = m * MODAL_MASS_FRACTION[geometry.anchor]
    return m


def resonant_frequency(k: float, m: float, check=RAISE) -> float:
    """Natural frequency sqrt(k/m)/(2*pi), Hz."""
    check((k <= 0) | (m <= 0), "k and m must be > 0")
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
        check((self.k <= 0) | (self.m <= 0) | (self.f0 <= 0),
              "k, m and f0 must all be > 0")
        check((self.q != self.q) | (self.q <= 0), "q must be > 0")
        expected = _natural_frequency(self.k, self.m)  # k, m > 0 checked above
        check(abs(self.f0 / expected - 1.0) > 1e-12,
              "f0 = {!r} inconsistent with sqrt(k/m)/2pi = {!r}", self.f0, expected)

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


def pull_in_voltage(
    k: float, gap: float, electrode_area: float, permittivity: float = EPS0,
    check=RAISE,
) -> float:
    """Bias at which the gap collapses: sqrt(8*k*g^3 / (27*eps*A)), V."""
    check((k <= 0) | (gap <= 0) | (electrode_area <= 0) | (permittivity <= 0),
          "k, gap, electrode_area and permittivity must be > 0")
    return sqrt(8.0 * k * power(gap, 3) / (27.0 * permittivity * electrode_area))


_CROSSED = "deflection iterate crossed the stable-branch limit g/3"
_NOT_CONVERGED = (f"static deflection fixed point did not reach {_FP_TOL} m "
                  f"within {_FP_MAX_ITER} iterations")


def static_deflection(k: float, transducer: Transducer, electrode_area: float,
                      eta: float, v_pull_in: float, mode: str = "linearized",
                      check=RAISE) -> float:
    """DC gap closure under bias, m.

    `eta` and `v_pull_in` are the coupling coefficient and pull-in voltage
    of this electrode, as coupling_coefficient() and pull_in_voltage() give
    them for `electrode_area`.

    "linearized" evaluates the force at the rest gap, x = eta*V_P/(2k).
    "nonlinear" solves x = eps*A*V^2 / (2k*(g-x)^2) by a damped fixed point
    (damping 0.5, tolerance 1e-15 m, at most 1000 iterations) and requires
    the bias to sit strictly below pull-in. An unbiased gap does not move.
    """
    check(k <= 0, "k must be > 0")
    if mode not in DEFLECTION_MODES:
        raise ValidationError(f"mode must be one of {DEFLECTION_MODES}")
    t = transducer
    biased = t.bias_voltage != 0.0
    if mode == "linearized":
        return select(biased, eta * t.bias_voltage / (2.0 * k), 0.0)

    pulled_in = biased & (t.bias_voltage >= v_pull_in)
    check(pulled_in, "bias {} V >= pull-in voltage {:.6g} V", t.bias_voltage, v_pull_in,
          error=PullInError)
    force_num = t.permittivity * electrode_area * power(t.bias_voltage, 2) / (2.0 * k)
    if isinstance(force_num, np.ndarray) or isinstance(t.gap, np.ndarray):
        solve = _fixed_point_columns
    else:
        solve = _fixed_point
    active = biased & (k > 0) & logical_not(pulled_in)
    return select(biased, solve(force_num, t.gap, active, check), 0.0)


def _deflection_step(x, force_num, gap):
    """One damped iterate of x = force_num / (g - x)^2."""
    return x + _FP_DAMPING * (force_num / power(gap - x, 2) - x)


def _fixed_point(force_num: float, gap: float, active: bool, check) -> float:
    if not active:
        return 0.0
    x = 0.0
    for _ in range(_FP_MAX_ITER):
        x_next = _deflection_step(x, force_num, gap)
        if x_next >= gap / 3.0:
            # Past the stable-branch boundary: treat as collapse.
            check(True, _CROSSED, error=PullInError)
            return math.nan
        if abs(x_next - x) < _FP_TOL:
            return x_next
        x = x_next
    check(True, _NOT_CONVERGED, error=ConvergenceError)
    return math.nan


def _fixed_point_columns(force_num, gap, active, check):
    """_fixed_point() on every active element, each through the same
    iterates: elements leave the loop as they converge or fail."""
    force_num, gap, active = np.broadcast_arrays(force_num, gap, active)
    result = np.zeros(force_num.shape)
    crossed = np.zeros(force_num.shape, dtype=bool)
    stuck = np.zeros(force_num.shape, dtype=bool)
    idx = np.flatnonzero(active)
    x = np.zeros(idx.size)
    f, g = force_num[idx], gap[idx]
    for _ in range(_FP_MAX_ITER):
        if not idx.size:
            break
        x_next = _deflection_step(x, f, g)
        cross = x_next >= g / 3.0
        done = abs(x_next - x) < _FP_TOL
        # A NaN iterate stays NaN: it can only run out of iterations.
        lost = np.isnan(x_next) & ~cross
        crossed[idx[cross]] = True
        stuck[idx[lost]] = True
        converged = done & ~cross
        result[idx[converged]] = x_next[converged]
        keep = ~(cross | done | lost)
        idx, x, f, g = idx[keep], x_next[keep], f[keep], g[keep]
    stuck[idx] = True
    check(crossed, _CROSSED, error=PullInError)
    check(stuck, _NOT_CONVERGED, error=ConvergenceError)
    return result

