"""Electrostatic gap transducer and the series RLC equivalent circuit.

A DC-biased parallel-plate electrode converts beam motion into current and
drive voltage into force with the same coupling coefficient

    eta = V_P * eps * A / g^2        [N/V, equivalently A/(m/s)]

where the electrode area A is the electrode length times the beam stack
thickness: the electrode is cut from the same interconnect stack as the beam.

Seen from the electrode, the vibrating beam behaves as a series RLC branch:

    R_x = k / (w0 * Q * eta^2)    L_x = m / eta^2    C_x = eta^2 / k

so that w0 = 1/sqrt(L_x C_x) and R_x * Q = sqrt(L_x / C_x) hold exactly.

The bias also pulls the beam in: the gap collapses at the pull-in voltage
V_pi = sqrt(8 k g^3 / (27 eps A)), and below it the beam rests at a static deflection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._num import asin, power, select, sin, sqrt
from .errors import RAISE, PullInError, ValidationError, build

EPS0 = 8.854e-12  # vacuum permittivity, F/m

PORT_ONE = "one_port"
PORT_TWO = "two_port"
VALID_PORTS = frozenset({PORT_ONE, PORT_TWO})

# Usable peak displacement as a fraction of the rest gap. The one-port limit
# is set by bias network dynamics, the two-port limit by feedthrough linearity.
DISPLACEMENT_FRACTION = {PORT_ONE: 0.33, PORT_TWO: 0.11}

DEFLECTION_MODES = ("linearized", "nonlinear")

_IDENTITY_RTOL = 1e-9  # resonance/Q identity slack for EquivalentCircuit


@dataclass(frozen=True)
class Transducer:
    """Parallel-plate air-gap electrode facing the moving beam.

    gap               electrode-to-beam spacing at rest, m
    electrode_length  electrode overlap measured along the beam, m
    bias_voltage      DC polarization across the gap, V
    port              "one_port" (drive and sense share the electrode) or
                      "two_port"

    The gap is air: its permittivity is EPS0.
    """

    gap: float
    electrode_length: float
    bias_voltage: float
    port: str = PORT_ONE

    def __post_init__(self, check=RAISE):
        gap, length, bias = self.gap, self.electrode_length, self.bias_voltage
        check((gap != gap) | (gap <= 0), "transducer gap must be > 0")
        check((length != length) | (length <= 0), "electrode_length must be > 0")
        check((bias != bias) | (bias < 0), "bias_voltage must be >= 0")
        ports = sorted(VALID_PORTS)  # a list: an unhashable port is refused too
        if self.port not in ports:  # never a column
            raise ValidationError(f"port must be one of {ports}, got {self.port!r}")


# The functions below take floats, or numpy columns from the sweep kernel;
# `check` runs each precondition (errors.RAISE by default); `area` is the
# electrode face area A, m^2.


def electrode_capacitance(transducer: Transducer, area: float) -> float:
    """Static gap capacitance eps*A/g at rest, F."""
    return EPS0 * area / transducer.gap


def coupling_coefficient(transducer: Transducer, area: float) -> float:
    """Electromechanical coupling eta = V_P * eps * A / g^2, N/V."""
    t = transducer
    return t.bias_voltage * EPS0 * area / (t.gap * t.gap)


def displacement_limit(transducer: Transducer) -> float:
    """Largest usable vibration amplitude for the port configuration, m."""
    return DISPLACEMENT_FRACTION[transducer.port] * transducer.gap


def pull_in_voltage(k: float, gap: float, electrode_area: float, check=RAISE) -> float:
    """Bias at which the air gap collapses: sqrt(8*k*g^3 / (27*eps0*A)), V."""
    area = electrode_area
    check((k != k) | (gap != gap) | (area != area) | (k <= 0) | (gap <= 0) | (area <= 0),
          "k, gap and electrode_area must be > 0")
    v_pi = sqrt(8.0 * k * power(gap, 3) / (27.0 * EPS0 * area))
    check(v_pi == 0.0, "pull-in voltage underflows to 0 V at gap {!r} m, k {!r} N/m", gap, k)
    return v_pi


def static_deflection(k: float, transducer: Transducer, eta: float, v_pull_in: float,
                      mode: str = "linearized", check=RAISE) -> float:
    """DC gap closure under bias, m.

    `eta` >= 0 and `v_pull_in` > 0 are the coupling coefficient and pull-in
    voltage of the electrode, as coupling_coefficient() and
    pull_in_voltage() give them.

    "linearized" evaluates the force at the rest gap, x = eta*V_P/(2k).
    "nonlinear" takes the stable root of the force balance
    x*(g - x)^2 = eps*A*V^2/(2k), a cubic whose root below g/3 is
    x = (4g/3) * sin^2(asin(V/V_pi)/3) (Nathanson et al., IEEE Trans.
    Electron Devices 14(3), 1967), and requires the bias to sit strictly
    below pull-in. An unbiased gap does not move.
    """
    check((k != k) | (k <= 0), "k must be > 0")
    check((eta != eta) | (eta < 0), "eta must be >= 0")
    check((v_pull_in != v_pull_in) | (v_pull_in <= 0), "v_pull_in must be > 0")
    if mode not in DEFLECTION_MODES:
        raise ValidationError(f"mode must be one of {DEFLECTION_MODES}")
    t = transducer
    biased = t.bias_voltage != 0.0
    if mode == "linearized":
        return select(biased, eta * t.bias_voltage / (2.0 * k), 0.0)

    pulled_in = biased & (t.bias_voltage >= v_pull_in)
    check(pulled_in, "bias {} V >= pull-in voltage {:.6g} V", t.bias_voltage, v_pull_in,
          error=PullInError)
    # asin needs V/V_pi <= 1: a pulled-in column element, already failed
    # above, takes the root at V_pi instead of a math domain error.
    ratio = select(pulled_in, 1.0, t.bias_voltage / v_pull_in)
    s = sin(asin(ratio) / 3.0)
    return 4.0 * t.gap / 3.0 * (s * s)


@dataclass(frozen=True)
class EquivalentCircuit:
    """Series RLC branch equivalent to the resonator seen at the electrode.

    A lossless resonator is expressed as q = inf with r_x = 0. Construction
    enforces the resonance identity w0*sqrt(L_x*C_x) = 1 and, for finite Q,
    R_x*Q = sqrt(L_x/C_x), both to 1e-9 relative.
    """

    r_x: float  # motional resistance, ohm
    l_x: float  # motional inductance, H
    c_x: float  # motional capacitance, F
    f0: float   # series resonance, Hz
    q: float    # quality factor (may be math.inf)

    def __post_init__(self, check=RAISE):
        r_x, l_x, c_x, f0, q = self.r_x, self.l_x, self.c_x, self.f0, self.q
        check((l_x != l_x) | (c_x != c_x) | (f0 != f0) | (l_x <= 0) | (c_x <= 0) | (f0 <= 0),
              "l_x, c_x and f0 must all be > 0")
        check((r_x != r_x) | (r_x < 0), "r_x must be >= 0")
        check((q != q) | (q <= 0), "q must be > 0")
        w0 = 2.0 * math.pi * f0
        res = w0 * sqrt(l_x * c_x)
        check(abs(res - 1.0) > _IDENTITY_RTOL,
              "resonance identity violated: w0*sqrt(LxCx) = {!r}", res)
        lossless = abs(q) == math.inf
        check(lossless & (r_x != 0.0), "q = inf requires r_x = 0")
        char = sqrt(l_x / c_x)
        check((abs(q) != math.inf) & (abs(r_x * q / char - 1.0) > _IDENTITY_RTOL),
              "Q identity violated: r_x*q != sqrt(Lx/Cx)")


def extract_circuit(k: float, m: float, q: float, eta: float,
                    check=RAISE) -> EquivalentCircuit:
    """Map spring constant, mass, Q and coupling onto the series RLC branch.

    q may be math.inf for a lossless branch (r_x = 0).
    """
    check((k != k) | (m != m) | (eta != eta) | (k <= 0) | (m <= 0) | (eta <= 0),
          "k, m and eta must all be > 0")
    check((q != q) | (q <= 0), "q must be > 0")
    w0 = sqrt(k / m)
    f0 = w0 / (2.0 * math.pi)
    l_x = m / (eta * eta)
    c_x = eta * eta / k
    r_x = select(abs(q) == math.inf, 0.0, k / (w0 * q * eta * eta))
    return build(EquivalentCircuit, check, r_x=r_x, l_x=l_x, c_x=c_x, f0=f0, q=q)


def motional_current(eta: float, f0: float, x_amplitude: float, check=RAISE) -> float:
    """Peak motional current eta * w0 * x for vibration amplitude x, A."""
    check((eta != eta) | (f0 != f0) | (eta <= 0) | (f0 <= 0), "eta and f0 must be > 0")
    check((x_amplitude != x_amplitude) | (x_amplitude < 0), "x_amplitude must be >= 0")
    return eta * 2.0 * math.pi * f0 * x_amplitude
