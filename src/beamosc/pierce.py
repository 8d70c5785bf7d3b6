"""Small-signal model of the Pierce sustaining amplifier.

A transconductor g_m loaded by the two ground capacitors C1, C2 and shunted
by the resonator's static capacitance C0 presents, at the resonator port,

    Z_C = (g_m + j*w*(C1 + C2)) / (j*w*g_m*C0 - w^2 * S)
    S   = C1*C2 + C2*C0 + C0*C1

whose real part is negative with magnitude

    |Re(Z_C)| = g_m*C1*C2 / ((g_m*C0)^2 + w^2 * S^2).

The magnitude is unimodal in g_m: it peaks at g_m_opt = w*S/C0 with value
Re_max = C1*C2 / (2*w*C0*S). Oscillation builds up while |Re(Z_C)| exceeds
the motional resistance R_x; design practice asks for a 3x margin.
PierceConfig is the amplifier's circuit, which evaluate() grades and the
startup simulation integrates; the closed form reads only C1, C2 and C0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from ._num import fmax, power, select, sqrt
from .errors import RAISE, build


@dataclass(frozen=True)
class PierceConfig:
    """The amplifier's circuit: every loop element but the resonator. Its
    operating point, g_m and the frequency, is given alongside.

    c1, c2      input/output ground capacitors, F
    c0          static (feedthrough) capacitance across the resonator, F
    v_limit     transconductor saturation scale, V
    r_feedback  bias resistor across the resonator port, ohm
    r_output    amplifier output resistance to ground, ohm
    """

    c1: float = 2e-12
    c2: float = 2e-12
    c0: float = 10e-15
    v_limit: float = 0.1
    r_feedback: float = 1e10
    r_output: float = 1e9

    def __post_init__(self, check=RAISE):
        c1, c2, c0 = self.c1, self.c2, self.c0
        check((c1 != c1) | (c2 != c2) | (c0 != c0) | (c1 <= 0) | (c2 <= 0) | (c0 <= 0),
              "c1, c2 and c0 must all be > 0")
        for name in ("v_limit", "r_feedback", "r_output"):
            value = getattr(self, name)  # never a column: no axis sets it
            check(not -math.inf < value < math.inf, "{} must be finite, got {!r}", name, value)
        check(self.v_limit <= 0, "v_limit must be > 0")
        check((self.r_feedback <= 0) | (self.r_output <= 0), "r_feedback and r_output must be > 0")


def _sum_products(c1: float, c2: float, c0: float) -> float:
    return c1 * c2 + c2 * c0 + c0 * c1


# The functions below also take numpy columns from the sweep kernel. `check`
# runs each precondition (errors.RAISE by default).


def _omega(f0, check) -> float:
    check((f0 != f0) | (f0 <= 0), "f0 must be > 0")
    return 2.0 * math.pi * f0


def negative_resistance(config: PierceConfig, gm: float, f0: float, check=RAISE) -> float:
    """|Re(Z_C)| at transconductance gm (0: switched off) and frequency f0, ohm."""
    check((gm != gm) | (gm < 0), "gm must be >= 0")
    w = _omega(f0, check)
    s = _sum_products(config.c1, config.c2, config.c0)
    num = gm * config.c1 * config.c2
    den = power(gm * config.c0, 2) + power(w * s, 2)
    return num / den


def complex_impedance(config: PierceConfig, gm: float, f0: float, check=RAISE) -> complex:
    """Small-signal Z_C at the resonator port at gm and f0, ohm."""
    check((gm != gm) | (gm < 0), "gm must be >= 0")
    w = _omega(f0, check)
    s = _sum_products(config.c1, config.c2, config.c0)
    num = complex(gm, w * (config.c1 + config.c2))
    den = complex(-w * w * s, w * gm * config.c0)
    return num / den


class PierceOptimum(NamedTuple):
    """Peak of |Re(Z_C)| over g_m: the value and where it occurs."""

    re_max: float  # ohm
    gm_opt: float  # A/V


def max_negative_resistance(config: PierceConfig, f0: float, check=RAISE) -> PierceOptimum:
    """Best achievable |Re(Z_C)| at f0 and the transconductance that reaches it."""
    w = _omega(f0, check)
    c1, c2, c0 = config.c1, config.c2, config.c0
    s = _sum_products(c1, c2, c0)
    return PierceOptimum(
        re_max=c1 * c2 / (2.0 * w * c0 * s),
        gm_opt=w * s / c0,
    )


def _gm_roots(config, f0, target_resistance, check=RAISE):
    """Transconductances giving |Re(Z_C)| = target_resistance at f0, on
    floats or columns: (reachable, double, low, high).

    Solves target*(C0*gm)^2 - C1*C2*gm + target*(w*S)^2 = 0. The roots lie
    below and above g_m_opt; at a double root (the target equals Re_max)
    low == high, at g_m_opt. Where the target exceeds Re_max it is not
    reachable and the roots are meaningless.
    """
    w = _omega(f0, check)
    target = target_resistance
    check((target != target) | (target <= 0), "target_resistance must be > 0")
    c1, c2, c0 = config.c1, config.c2, config.c0
    s = _sum_products(c1, c2, c0)
    a = target * c0 * c0
    b = -c1 * c2
    c = target * power(w * s, 2)
    disc = b * b - 4.0 * a * c
    # Relative discriminant guards the target == Re_max boundary against
    # rounding: treat |disc| below 1e-12*b^2 as a double root.
    rel = disc / (b * b)
    reachable = (rel != rel) | (rel >= -1e-12)  # not rel < -1e-12
    double = rel <= 1e-12
    root = sqrt(fmax(disc, 0.0))
    gm_high = (-b + root) / (2.0 * a)
    gm_low = c / (a * gm_high)  # stable form of the subtractive root
    gm_double = -b / (2.0 * a)
    return (reachable, double, select(double, gm_double, gm_low),
            select(double, gm_double, gm_high))


@dataclass(frozen=True)
class StartupReport:
    """Startup margin of a resonator/amplifier pairing.

    margin = |Re(Z_C)| / R_x. Oscillation requires margin > 1 strictly;
    meets_3x reports the margin >= 3 design rule.
    """

    margin: float
    oscillates: bool
    meets_3x: bool

    def __post_init__(self, check=RAISE):
        # On bools, a > b is "a and not b".
        check(self.meets_3x > self.oscillates, "meets_3x implies oscillates")


def startup_check(neg_resistance: float, motional_resistance: float,
                  check=RAISE) -> StartupReport:
    """Compare achievable |Re(Z_C)| against the motional resistance."""
    check((neg_resistance != neg_resistance) | (neg_resistance < 0),
          "neg_resistance must be >= 0")
    check((motional_resistance != motional_resistance) | (motional_resistance <= 0),
          "motional_resistance must be > 0")
    margin = neg_resistance / motional_resistance
    return build(
        StartupReport, check,
        margin=margin,
        oscillates=margin > 1.0,
        meets_3x=margin >= 3.0,
    )

