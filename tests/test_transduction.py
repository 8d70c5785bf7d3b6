import math

import pytest
from hypothesis import given, strategies as st

from beamosc.errors import ValidationError
from beamosc.mechanics import spring_constant
from beamosc.transduction import (
    EPS0,
    EquivalentCircuit,
    Transducer,
    coupling_coefficient,
    displacement_limit,
    electrode_capacitance,
    extract_circuit,
    motional_current,
)
from test_mechanics import BEAMS, E, electrode_area, reference_transducer

Q_FACTORS = {1: 4000.0, 2: 4500.0, 3: 5000.0}


def spring(n):
    return spring_constant(BEAMS[n], E)


class TestCoupling:
    def test_coupling_against_reference_capacitance(self, reference):
        # Independent check: eta^2 = k * C_x, with C_x from the table.
        for n in (1, 2, 3):
            tr = reference_transducer(n)
            eta = coupling_coefficient(tr, electrode_area(tr))
            expected = math.sqrt(spring(n) * reference[str(n)]["values"]["c_x_f"])
            assert eta == pytest.approx(expected, rel=1e-3)

    def test_bias_reconstructs_from_reference(self, reference):
        # The table implies one common polarization voltage.
        for n in (1, 2, 3):
            tr = reference_transducer(n)
            eta_table = math.sqrt(spring(n) * reference[str(n)]["values"]["c_x_f"])
            bias = eta_table * tr.gap ** 2 / (EPS0 * electrode_area(tr))
            assert bias == pytest.approx(9.5, rel=2e-3)

    def test_static_capacitance_value(self):
        tr = reference_transducer(1)
        c = electrode_capacitance(tr, electrode_area(tr))
        assert c == pytest.approx(2.6562e-15, rel=1e-4)

    @given(
        gap=st.floats(min_value=0.5e-6, max_value=5e-6),
        bias=st.floats(min_value=0.1, max_value=50.0),
        length=st.floats(min_value=10e-6, max_value=200e-6),
    )
    def test_coupling_equals_bias_times_capacitance_over_gap(self, gap, bias, length):
        tr = Transducer(gap=gap, electrode_length=length, bias_voltage=bias)
        area = length * 4.8e-6
        c = electrode_capacitance(tr, area)
        assert coupling_coefficient(tr, area) == pytest.approx(bias * c / gap, rel=1e-12)


class TestDisplacementLimit:
    def test_one_port_limit(self):
        assert displacement_limit(reference_transducer(1)) == pytest.approx(
            0.33 * 1.2e-6
        )

    def test_two_port_limit_is_tighter(self):
        two = Transducer(gap=1.2e-6, electrode_length=75e-6, bias_voltage=9.5,
                         port="two_port")
        assert displacement_limit(two) == pytest.approx(0.11 * 1.2e-6)

    def test_unknown_port_rejected(self):
        with pytest.raises(ValidationError):
            Transducer(gap=1.2e-6, electrode_length=75e-6, bias_voltage=9.5,
                       port="three_port")


class TestEquivalentCircuit:
    def test_extract_circuit_reference(self, reference):
        for n, beam in BEAMS.items():
            tr = reference_transducer(n)
            eta = coupling_coefficient(tr, electrode_area(tr))
            m = 2770.0 * beam.L * beam.H * beam.W
            ec = extract_circuit(spring(n), m, Q_FACTORS[n], eta)
            ref = reference[str(n)]["values"]
            assert ec.r_x == pytest.approx(ref["r_x_ohm"], rel=1e-2)
            assert ec.l_x == pytest.approx(ref["l_x_h"], rel=1e-2)
            assert ec.c_x == pytest.approx(ref["c_x_f"], rel=1e-2)

    @given(
        k=st.floats(min_value=1e-3, max_value=1e3),
        m=st.floats(min_value=1e-15, max_value=1e-6),
        q=st.floats(min_value=10.0, max_value=1e6),
        eta=st.floats(min_value=1e-10, max_value=1e-4),
    )
    def test_resonance_and_q_identities(self, k, m, q, eta):
        ec = extract_circuit(k, m, q, eta)
        w0 = 2 * math.pi * ec.f0
        assert abs(w0 * math.sqrt(ec.l_x * ec.c_x) - 1.0) <= 1e-9
        assert abs(ec.r_x * q / math.sqrt(ec.l_x / ec.c_x) - 1.0) <= 1e-9

    @given(
        k=st.floats(min_value=1e-3, max_value=1e3),
        m=st.floats(min_value=1e-15, max_value=1e-6),
        eta=st.floats(min_value=1e-10, max_value=1e-4),
    )
    def test_mass_and_stiffness_round_trip(self, k, m, eta):
        ec = extract_circuit(k, m, 1000.0, eta)
        assert ec.l_x * eta * eta == pytest.approx(m, rel=1e-12)
        assert eta * eta / ec.c_x == pytest.approx(k, rel=1e-12)

    def test_lossless_branch(self):
        ec = extract_circuit(0.6048, 2.6592e-12, math.inf, 2.1e-8)
        assert ec.r_x == 0.0
        assert math.isinf(ec.q)

    def test_identity_violation_rejected(self):
        with pytest.raises(ValidationError):
            EquivalentCircuit(r_x=1.0, l_x=1.0, c_x=1.0, f0=1.0, q=1.0)

    def test_q_identity_violation_rejected(self):
        ec = extract_circuit(0.6048, 2.6592e-12, 4000.0, 2.1e-8)
        with pytest.raises(ValidationError):
            EquivalentCircuit(r_x=ec.r_x * 2, l_x=ec.l_x, c_x=ec.c_x,
                              f0=ec.f0, q=ec.q)


class TestImpedanceAndCurrent:
    def test_motional_current_reference(self, reference, design_points):
        for n in (1, 2, 3):
            point = design_points[n]
            ref = reference[str(n)]["values"]
            i = motional_current(point.eta, point.circuit.f0,
                                 point.inputs.x_amplitude)
            assert i == pytest.approx(ref["i_x_a"], rel=1e-2)

    @given(x=st.floats(min_value=1e-12, max_value=1e-6))
    def test_motional_current_linear_in_amplitude(self, x):
        base = motional_current(2.1e-8, 75.9e3, x)
        assert motional_current(2.1e-8, 75.9e3, 2 * x) == pytest.approx(
            2 * base, rel=1e-12
        )

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValidationError):
            motional_current(2.1e-8, 75.9e3, -1e-9)
