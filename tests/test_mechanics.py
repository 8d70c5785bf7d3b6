import math

import pytest
from hypothesis import given, strategies as st

from beamosc.errors import PullInError, ValidationError
from beamosc.mechanics import (
    BeamGeometry,
    LumpedBeamModel,
    MODAL_MASS_FRACTION,
    area_moment,
    lumped_mass,
    resonant_frequency,
    spring_constant,
)
from beamosc.process import DEFAULT_DENSITY, DEFAULT_YOUNGS_MODULUS
from beamosc.transduction import (
    EPS0,
    Transducer,
    coupling_coefficient,
    pull_in_voltage,
    static_deflection,
)

E = DEFAULT_YOUNGS_MODULUS
RHO = DEFAULT_DENSITY

# Geometry of the three bundled reference devices.
BEAMS = {
    1: BeamGeometry(anchor="cantilever", L=100e-6, H=2e-6, W=4.8e-6),
    2: BeamGeometry(anchor="cantilever", L=60e-6, H=1e-6, W=4.8e-6),
    3: BeamGeometry(anchor="clamped_clamped", L=100e-6, H=1e-6, W=4.8e-6),
}
ELECTRODES = {1: 75e-6, 2: 45e-6, 3: 80e-6}


def reference_transducer(n, bias=9.5):
    return Transducer(gap=1.2e-6, electrode_length=ELECTRODES[n], bias_voltage=bias)


def electrode_area(tr, W=4.8e-6):
    """Electrode length times the stack thickness of the reference beams."""
    return tr.electrode_length * W


def deflection(k, tr, mode="linearized"):
    """static_deflection() with the coupling and pull-in of the same electrode."""
    area = electrode_area(tr)
    return static_deflection(k, tr, coupling_coefficient(tr, area),
                             pull_in_voltage(k, tr.gap, area), mode)


class TestStiffnessAndMass:
    def test_area_moment_value(self):
        # W*H^3/12 for the 2 um wide, 4.8 um thick beam
        assert area_moment(BEAMS[1]) == pytest.approx(3.2e-24, rel=1e-12)

    def test_spring_constants(self):
        assert spring_constant(BEAMS[1], E) == pytest.approx(0.6048, rel=1e-12)
        assert spring_constant(BEAMS[2], E) == pytest.approx(0.35, rel=1e-12)
        assert spring_constant(BEAMS[3], E) == pytest.approx(4.8384, rel=1e-12)

    def test_clamped_clamped_is_64x_stiffer(self):
        cant = BeamGeometry(anchor="cantilever", L=80e-6, H=1.5e-6, W=4.8e-6)
        cc = BeamGeometry(anchor="clamped_clamped", L=80e-6, H=1.5e-6, W=4.8e-6)
        assert spring_constant(cc, E) / spring_constant(cant, E) == pytest.approx(64.0)

    def test_full_mass_value(self):
        assert lumped_mass(BEAMS[1], RHO) == pytest.approx(2.6592e-12, rel=1e-12)

    def test_modal_mass_fractions(self):
        full = lumped_mass(BEAMS[1], RHO)
        modal = lumped_mass(BEAMS[1], RHO, mass_model="modal")
        assert modal / full == pytest.approx(MODAL_MASS_FRACTION["cantilever"])
        full3 = lumped_mass(BEAMS[3], RHO)
        modal3 = lumped_mass(BEAMS[3], RHO, mass_model="modal")
        assert modal3 / full3 == pytest.approx(0.3965)

    def test_mass_consistent_with_reference_inductance(self, reference):
        # Independent cross-check: m must equal L_x * eta^2 from the table.
        for n, beam in BEAMS.items():
            tr = reference_transducer(n)
            eta = coupling_coefficient(tr, electrode_area(tr))
            m_from_table = reference[str(n)]["values"]["l_x_h"] * eta * eta
            m = lumped_mass(beam, RHO)
            assert m == pytest.approx(m_from_table, rel=2e-3)

    def test_density_reconstructs_from_all_reference_frequencies(self, reference):
        # rho = k / (w0^2 L H W) lands on the same value for every device.
        for n, beam in BEAMS.items():
            f0 = reference[str(n)]["values"]["f0_hz"]
            k = spring_constant(beam, E)
            w0 = 2 * math.pi * f0
            rho = k / (w0 ** 2 * beam.L * beam.H * beam.W)
            assert rho == pytest.approx(RHO, rel=5e-3)


class TestFrequency:
    def test_reference_frequencies(self, reference):
        for n, beam in BEAMS.items():
            k = spring_constant(beam, E)
            m = lumped_mass(beam, RHO)
            f0 = resonant_frequency(k, m)
            assert f0 == pytest.approx(reference[str(n)]["values"]["f0_hz"], rel=2e-3)

    @given(scale=st.floats(min_value=0.3, max_value=3.0))
    def test_frequency_scales_inverse_square_of_length(self, scale):
        base = BEAMS[1]
        scaled = BeamGeometry(anchor=base.anchor, L=base.L * scale, H=base.H, W=base.W)
        f_base = resonant_frequency(spring_constant(base, E), lumped_mass(base, RHO))
        f_scaled = resonant_frequency(
            spring_constant(scaled, E), lumped_mass(scaled, RHO)
        )
        assert f_scaled * scale ** 2 == pytest.approx(f_base, rel=1e-9)

    def test_model_from_geometry(self):
        model = LumpedBeamModel.from_geometry(BEAMS[1], E, RHO, q=4000.0)
        assert model.k == pytest.approx(0.6048, rel=1e-12)
        assert model.f0 == pytest.approx(75901.5, rel=1e-4)

    def test_inconsistent_model_rejected(self):
        with pytest.raises(ValidationError):
            LumpedBeamModel(k=0.6048, m=2.6592e-12, f0=80000.0, q=4000.0)


class TestPullIn:
    def test_reference_pull_in_voltages(self, reference):
        for n, beam in BEAMS.items():
            tr = reference_transducer(n)
            v = pull_in_voltage(spring_constant(beam, E), tr.gap, electrode_area(tr))
            assert v == pytest.approx(
                reference[str(n)]["values"]["v_pull_in_v"], rel=1.5e-2
            )

    @given(scale=st.floats(min_value=0.5, max_value=2.0))
    def test_pull_in_scales_with_gap_power_1p5(self, scale):
        k, area = 0.6048, 3.6e-10
        v1 = pull_in_voltage(k, 1.2e-6, area)
        v2 = pull_in_voltage(k, 1.2e-6 * scale, area)
        assert v2 == pytest.approx(v1 * scale ** 1.5, rel=1e-9)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValidationError):
            pull_in_voltage(0.0, 1.2e-6, 3.6e-10)


class TestStaticDeflection:
    def test_linearized_matches_reference_designs_2_and_3(self, reference):
        for n in (2, 3):
            k = spring_constant(BEAMS[n], E)
            x = deflection(k, reference_transducer(n))
            assert x == pytest.approx(
                reference[str(n)]["values"]["z_static_m"], rel=5e-3
            )

    def test_design_1_carries_a_known_2p5_percent_offset(self, reference):
        # The widest beam sits ~2.5% above its reference deflection under
        # the linearized model; the offset is stable and documented.
        k = spring_constant(BEAMS[1], E)
        x = deflection(k, reference_transducer(1))
        ref = reference["1"]["values"]["z_static_m"]
        rel = (x - ref) / ref
        assert 0.02 < rel < 0.03

    def test_zero_bias_means_zero_deflection(self):
        tr = reference_transducer(1, bias=0.0)
        assert deflection(0.6048, tr) == 0.0
        assert deflection(0.6048, tr, mode="nonlinear") == 0.0

    @given(frac=st.floats(min_value=0.05, max_value=0.9))
    def test_nonlinear_exceeds_linearized(self, frac):
        k = 0.6048
        tr0 = reference_transducer(1)
        v_pi = pull_in_voltage(k, tr0.gap, electrode_area(tr0))
        tr = reference_transducer(1, bias=frac * v_pi)
        x_lin = deflection(k, tr)
        x_nl = deflection(k, tr, mode="nonlinear")
        assert x_nl > x_lin
        assert x_nl < tr.gap / 3

    def test_nonlinear_agrees_with_linear_at_small_bias(self):
        k = 0.6048
        tr = reference_transducer(1, bias=0.5)
        x_lin = deflection(k, tr)
        x_nl = deflection(k, tr, mode="nonlinear")
        assert x_nl == pytest.approx(x_lin, rel=5e-3)

    def test_nonlinear_satisfies_balance_equation(self):
        k = 0.6048
        tr = reference_transducer(1)
        x = deflection(k, tr, mode="nonlinear")
        force = EPS0 * electrode_area(tr) * tr.bias_voltage ** 2 / (
            2 * k * (tr.gap - x) ** 2
        )
        assert x == pytest.approx(force, rel=1e-9)

    @given(n=st.sampled_from(sorted(BEAMS)),
           anchor=st.sampled_from(["cantilever", "clamped_clamped"]),
           ratio=st.floats(min_value=1e-100, max_value=0.999999))
    def test_nonlinear_is_the_stable_root_up_to_pull_in(self, n, anchor, ratio):
        # Below V/V_pi ~ 1e-145 the force eps*A*V^2/(2k) is a subnormal
        # float, with no relative precision left to compare.
        beam = BeamGeometry(anchor=anchor, L=BEAMS[n].L, H=BEAMS[n].H, W=BEAMS[n].W)
        k = spring_constant(beam, E)
        tr0 = reference_transducer(n)
        v_pi = pull_in_voltage(k, tr0.gap, electrode_area(tr0))
        tr = reference_transducer(n, bias=ratio * v_pi)
        x = deflection(k, tr, mode="nonlinear")
        g = tr.gap
        assert 0.0 <= x < g / 3
        force = EPS0 * electrode_area(tr) * tr.bias_voltage ** 2 / (2 * k)
        assert x * (g - x) ** 2 == pytest.approx(force, rel=1e-12)
        # At least the linearized value, to the rounding of the two forms.
        assert x >= deflection(k, tr) * (1 - 1e-12)

    @pytest.mark.parametrize("factor", [1.0, 1.2])
    def test_bias_at_or_past_pull_in_raises(self, factor):
        k = 0.6048
        tr0 = reference_transducer(1)
        v_pi = pull_in_voltage(k, tr0.gap, electrode_area(tr0))
        tr = reference_transducer(1, bias=factor * v_pi)
        with pytest.raises(PullInError):
            deflection(k, tr, mode="nonlinear")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValidationError):
            deflection(0.6048, reference_transducer(1), mode="exact")

    @pytest.mark.parametrize("eta, v_pull_in, mode", [
        (math.nan, 9.0, "linearized"),
        (1e-7, math.nan, "nonlinear"),
        (-1e-7, 9.0, "linearized"),
    ])
    def test_coupling_and_pull_in_outside_their_ranges_rejected(self, eta, v_pull_in, mode):
        # eta >= 0 and v_pull_in > 0, as coupling_coefficient() and
        # pull_in_voltage() give them; NaN is neither.
        with pytest.raises(ValidationError):
            static_deflection(1.0, Transducer(2e-6, 45e-6, 5.0), eta, v_pull_in, mode)


class TestGeometryValidation:
    def test_length_must_exceed_width(self):
        with pytest.raises(ValidationError):
            BeamGeometry(anchor="cantilever", L=1e-6, H=2e-6, W=4.8e-6)

    def test_negative_dimension_rejected(self):
        with pytest.raises(ValidationError):
            BeamGeometry(anchor="cantilever", L=100e-6, H=-2e-6, W=4.8e-6)

    def test_unknown_anchor_rejected(self):
        with pytest.raises(ValidationError):
            BeamGeometry(anchor="simply_supported", L=100e-6, H=2e-6, W=4.8e-6)

    def test_string_anchor_coerced(self):
        # The anchor is a plain name: the geometry keeps the string it was given.
        g = BeamGeometry(anchor="clamped_clamped", L=100e-6, H=2e-6, W=4.8e-6)
        assert type(g.anchor) is str and g.anchor == "clamped_clamped"
