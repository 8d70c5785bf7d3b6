"""Exponent laws of the closed-form chain.

Away from its branches the chain is a product of powers, so scaling one
input by lam scales each derived figure by lam**p, with p an integer or a
half. table1 checks 27 cells at three design points; these laws check the
formulas behind them at every drawn point, with no fitted constant
involved.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamosc.explore import PARAMETER_PATHS, evaluate, flatten, set_parameter
from beamosc.mechanics import MASS_MODELS

OUTPUTS = ("derived.spring_constant", "derived.f0", "derived.v_pull_in", "derived.eta",
           "derived.r_x", "derived.l_x", "derived.c_x")
# d ln(output) / d ln(input), in OUTPUTS order: k, f0, V_pi, eta, R_x, L_x, C_x.
EXPONENTS = {
    "beam.length": (-3, -2, -1.5, 0, -1, 1, 3),
    "beam.in_plane_width": (3, 1, 1.5, 0, 2, 1, -3),
    "beam.thickness": (1, 0, 0, 1, -1, -1, 1),
    "transducer.gap": (0, 0, 1.5, -2, 4, 4, -4),
    "transducer.electrode_length": (0, 0, -0.5, 1, -2, -2, 2),
    "transducer.bias_voltage": (0, 0, 0, 1, -2, -2, 2),
    "materials.youngs_modulus": (1, 0.5, 0.5, 0, 0.5, 0, -1),
    "materials.density": (0, -0.5, 0, 0, 0.5, 1, 0),
    "beam.q_factor": (0, 0, 0, 0, -1, 0, 0),
}


@settings(max_examples=150)
@given(design=st.sampled_from([1, 2, 3]),
       anchor=st.sampled_from(["cantilever", "clamped_clamped"]),
       mass_model=st.sampled_from(MASS_MODELS), path=st.sampled_from(sorted(EXPONENTS)),
       lam=st.floats(0.5, 2.0))
def test_each_output_scales_by_its_exponent(design_points, design, anchor, mass_model,
                                            path, lam):
    inputs = design_points[design].inputs
    # An electrode a quarter of the beam stays shorter than the beam for
    # every lam in [0.5, 2], on either side of the scaling.
    inputs = replace(
        inputs, beam=replace(inputs.beam, anchor=anchor),
        transducer=replace(inputs.transducer, electrode_length=inputs.beam.L / 4),
        mass_model=mass_model, deflection_mode="linearized")
    part, field = PARAMETER_PATHS[path]
    value = getattr(getattr(inputs, part) if part else inputs, field)
    base = flatten(evaluate(inputs))
    scaled = flatten(evaluate(set_parameter(inputs, {path: value * lam})))
    ratio = value * lam / value  # lam as the rounded input holds it
    for name, p in zip(OUTPUTS, EXPONENTS[path]):
        assert scaled[name] == pytest.approx(base[name] * ratio ** p, rel=1e-12, abs=0), name
