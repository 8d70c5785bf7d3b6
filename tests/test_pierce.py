import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from beamosc.errors import StageError, ValidationError
from beamosc.explore import (
    COLUMNS,
    SweepAxis,
    SweepSpec,
    evaluate,
    flatten,
    set_parameter,
    sweep,
)
from beamosc.pierce import (
    PierceConfig,
    _gm_roots,
    max_negative_resistance,
    negative_resistance,
)
from conftest import amplifier_nodes, join_blocks

C1 = C2 = 2e-12
C0 = 10e-15
F0 = 75901.5285

caps = st.floats(min_value=1e-14, max_value=1e-11)
shunts = st.floats(min_value=1e-15, max_value=1e-12)
freqs = st.floats(min_value=1e4, max_value=1e7)


def cfg(c0=C0):
    return PierceConfig(c1=C1, c2=C2, c0=c0)


def port_impedance(config, gm, f0) -> complex:
    """Z_C at the resonator port, from a 2x2 complex solve of the node
    equations at w = 2*pi*f0, the resistors open: a unit current drawn from
    the input node into the output node sets Z_C = v2 - v1."""
    cap, cond = amplifier_nodes(config, gm, resistors=False)
    v1, v2 = np.linalg.solve(cond + 2j * math.pi * f0 * cap, [-1.0, 1.0])
    return complex(v2 - v1)


class TestNegativeResistance:
    def test_nominal_design_value(self):
        # 67.4 uA/V into 2p/2p/10f at 75.9 kHz gives about -64.7 Mohm
        assert negative_resistance(cfg(), 67.4e-6, F0) == pytest.approx(64.7e6, rel=2e-3)

    def test_bundled_designs_match_reference(self, reference, design_points):
        for n in (1, 2, 3):
            point = design_points[n]
            ref = reference[str(n)]["values"]["re_zc_ohm"]
            assert point.re_zc == pytest.approx(ref, rel=5e-3)

    def test_zero_gm_gives_zero(self):
        assert negative_resistance(cfg(), 0.0, F0) == 0.0

    @given(gm=st.floats(min_value=1e-7, max_value=1e-2),
           c1=caps, c2=caps, c0=shunts, f0=freqs)
    def test_matches_real_part_of_full_impedance(self, gm, c1, c2, c0, f0):
        config = PierceConfig(c1=c1, c2=c2, c0=c0)
        z = port_impedance(config, gm, f0)
        assert -z.real == pytest.approx(negative_resistance(config, gm, f0), rel=1e-9)
        assert z.imag < 0  # the port always looks capacitive

    def test_imaginary_part_closed_form(self):
        # Im(Z) = -(gm^2 C0 + w^2 (C1+C2) S) / (w (w^2 S^2 + gm^2 C0^2))
        gm = 67.4e-6
        w = 2 * math.pi * F0
        s = C1 * C2 + C2 * C0 + C0 * C1
        num = gm ** 2 * C0 + w ** 2 * (C1 + C2) * s
        den = w * (w ** 2 * s ** 2 + gm ** 2 * C0 ** 2)
        assert port_impedance(cfg(), gm, F0).imag == pytest.approx(-num / den, rel=1e-9)

    def test_small_c0_limit(self):
        # As C0 -> 0 the magnitude approaches gm / (w^2 C1 C2).
        gm = 67.4e-6
        w = 2 * math.pi * F0
        limit = gm / (w ** 2 * C1 * C2)
        val = negative_resistance(cfg(c0=1e-19), gm, F0)
        assert val == pytest.approx(limit, rel=1e-3)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValidationError, match="^gm must be >= 0$"):
            negative_resistance(cfg(), -1e-6, F0)
        with pytest.raises(ValidationError, match="^f0 must be > 0$"):
            negative_resistance(cfg(), 1e-6, 0.0)
        with pytest.raises(ValidationError):
            PierceConfig(c1=0.0, c2=C2, c0=C0)

    @pytest.mark.parametrize("name, message", [
        ("v_limit", "v_limit must be > 0"),
        ("r_feedback", "r_feedback and r_output must be > 0"),
        ("r_output", "r_feedback and r_output must be > 0"),
    ])
    def test_loop_elements_must_be_positive(self, name, message):
        for value in (0.0, -1.0):
            with pytest.raises(ValidationError, match=f"^{message}$"):
                PierceConfig(**{name: value})


class TestPeak:
    def test_reference_peaks(self, reference, design_points):
        for n in (1, 2, 3):
            ref = reference[str(n)]["values"]["re_zc_max_ohm"]
            assert design_points[n].re_max == pytest.approx(ref, rel=1e-2)

    def test_gm_opt_reference_design(self, design_points):
        assert design_points[1].gm_opt == pytest.approx(192.669e-6, rel=1e-3)

    def test_peak_is_attained_at_gm_opt(self):
        re_max, gm_opt = max_negative_resistance(cfg(), F0)
        assert negative_resistance(cfg(), gm_opt, F0) == pytest.approx(re_max, rel=1e-12)

    @given(c1=caps, c2=caps, c0=shunts, f0=freqs)
    def test_unimodal_over_gm(self, c1, c2, c0, f0):
        config = PierceConfig(c1=c1, c2=c2, c0=c0)
        re_max, gm_opt = max_negative_resistance(config, f0)
        grid = gm_opt * np.logspace(-2, 2, 21)
        vals = [negative_resistance(config, g, f0) for g in grid]
        assert max(vals) <= re_max * (1 + 1e-12)
        below = [v for g, v in zip(grid, vals) if g <= gm_opt]
        above = [v for g, v in zip(grid, vals) if g >= gm_opt]
        assert all(b1 <= b2 * (1 + 1e-12) for b1, b2 in zip(below, below[1:]))
        assert all(a1 * (1 + 1e-12) >= a2 for a1, a2 in zip(above, above[1:]))

    def test_shunt_capacitance_recovered_from_reference(self, reference):
        # Bisect C0 so the peak matches each reference row: all three land
        # on the same 10 fF shunt.
        freqs_and_peaks = [
            (reference[str(n)]["values"]["f0_hz"],
             reference[str(n)]["values"]["re_zc_max_ohm"])
            for n in (1, 2, 3)
        ]
        for f0, peak in freqs_and_peaks:
            lo, hi = 1e-16, 1e-12
            for _ in range(200):
                mid = math.sqrt(lo * hi)
                if max_negative_resistance(cfg(c0=mid), f0).re_max > peak:
                    lo = mid  # larger C0 lowers the peak
                else:
                    hi = mid
            assert math.sqrt(lo * hi) == pytest.approx(10e-15, rel=5e-3)

    def test_peak_frequency_product_constant(self, reference):
        # Re_max * f0 = C1C2/(4 pi C0 S) is geometry-independent.
        products = [
            reference[str(n)]["values"]["f0_hz"]
            * reference[str(n)]["values"]["re_zc_max_ohm"]
            for n in (1, 2, 3)
        ]
        mean = sum(products) / 3
        for p in products:
            assert p == pytest.approx(mean, rel=3e-3)


class TestRequiredGm:
    """_gm_roots(): (reachable, double, low, high) for a target |Re(Z_C)|."""

    def test_reference_design_roots(self, design_points):
        point = design_points[1]
        reachable, double, low, high = _gm_roots(cfg(), point.circuit.f0,
                                                 point.re_zc)
        assert reachable and not double
        assert low == pytest.approx(67.389e-6, rel=1e-3)
        assert high == pytest.approx(550.849e-6, rel=1e-3)
        assert low < high

    @given(c1=caps, c2=caps, c0=shunts, f0=freqs,
           frac=st.floats(min_value=0.01, max_value=0.999))
    def test_roots_reproduce_target(self, c1, c2, c0, f0, frac):
        config = PierceConfig(c1=c1, c2=c2, c0=c0)
        re_max, gm_opt = max_negative_resistance(config, f0)
        target = frac * re_max
        reachable, double, low, high = _gm_roots(config, f0, target)
        assert reachable and not double
        assert low < gm_opt < high
        for gm in (low, high):
            assert negative_resistance(config, gm, f0) == pytest.approx(target, rel=1e-9)

    def test_unreachable_target_returns_empty(self):
        re_max, _ = max_negative_resistance(cfg(), F0)
        reachable, _, _, _ = _gm_roots(cfg(), F0, 1.01 * re_max)
        assert not reachable

    def test_target_at_peak_gives_double_root(self):
        re_max, gm_opt = max_negative_resistance(cfg(), F0)
        reachable, double, low, high = _gm_roots(cfg(), F0, re_max)
        assert reachable and double
        assert low == high == pytest.approx(gm_opt, rel=1e-6)

    def test_invalid_target_rejected(self):
        with pytest.raises(ValidationError):
            _gm_roots(cfg(), F0, 0.0)


class TestStartupCheck:
    """The startup margin |Re(Z_C)| / R_x that evaluate() keeps, and the
    two readings of it that COLUMNS gives."""

    def test_bundled_margins(self, design_points):
        margins = {n: design_points[n].startup_margin for n in (1, 2, 3)}
        assert margins[1] == pytest.approx(90.238, rel=1e-3)
        assert margins[2] == pytest.approx(45.550, rel=1e-3)
        assert margins[3] == pytest.approx(4.661, rel=1e-3)
        getters = dict(COLUMNS)
        for n in (1, 2, 3):
            assert getters["derived.meets_3x"](design_points[n]) is True
            assert getters["derived.oscillates"](design_points[n]) is True

    @staticmethod
    def _readings(margins):
        # Each COLUMNS reading of these margins, taken one float at a time
        # and as one column; both must agree and read as bools.
        getters = dict(COLUMNS)
        readings = {}
        for name in ("derived.oscillates", "derived.meets_3x"):
            get = getters[name]
            floats = [get(SimpleNamespace(startup_margin=m)) for m in margins]
            assert all(type(reading) is bool for reading in floats)
            column = get(SimpleNamespace(startup_margin=np.array(margins)))
            assert column.dtype == bool
            assert column.tolist() == floats
            readings[name] = floats
        return readings

    def test_margin_of_exactly_one_does_not_oscillate(self):
        # Oscillation needs a margin above 1 strictly.
        readings = self._readings([math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0)])
        assert readings["derived.oscillates"] == [False, False, True]
        assert readings["derived.meets_3x"] == [False, False, False]

    def test_margin_of_exactly_three_meets_rule(self):
        # The design rule is met at 3 itself.
        readings = self._readings([math.nextafter(3.0, 0.0), 3.0, math.nextafter(3.0, 4.0)])
        assert readings["derived.meets_3x"] == [False, True, True]
        assert readings["derived.oscillates"] == [True, True, True]

    def test_zero_negative_resistance(self):
        readings = self._readings([0.0])
        assert readings == {"derived.oscillates": [False], "derived.meets_3x": [False]}

    def test_gm_sweep_reads_as_evaluate_reads(self, design_points):
        # Across margins of about 0.5-5 both readings are seen False and
        # True, and a column pass gives each point what evaluate() gives it.
        point = design_points[1]
        low, high = (_gm_roots(point.inputs.amplifier, point.circuit.f0,
                               margin * point.circuit.r_x)[2] for margin in (0.5, 5.0))
        spec = SweepSpec(axes=(SweepAxis("pierce.gm", low, high, 13, "log"),))
        columns = join_blocks(sweep(point.inputs, spec))
        names = ("derived.startup_margin", "derived.oscillates", "derived.meets_3x")
        rows = [flatten(evaluate(set_parameter(point.inputs, {"pierce.gm": gm})))
                for gm in spec.axes[0].values()]
        for name in names:
            assert columns[name].tolist() == [row[name] for row in rows]
        for name in names[1:]:
            assert set(columns[name].tolist()) == {False, True}
        assert columns["derived.startup_margin"][[0, -1]] == pytest.approx([0.5, 5.0])

    def test_lossless_design_is_refused_at_pierce(self, design_points):
        # An infinite Q gives R_x = 0: no margin to read.
        inputs = replace(design_points[1].inputs, q_factor=math.inf)
        with pytest.raises(StageError, match="^pierce: motional_resistance must be > 0$") as info:
            evaluate(inputs)
        assert info.value.stage == "pierce"


class TestLocus:
    def test_locus_touches_peak(self):
        # Z_C traced over g_m: |Re| peaks at Re_max, Re <= 0 and Im < 0 throughout.
        f0 = 75901.5285
        re_max, gm_opt = max_negative_resistance(cfg(), f0)
        locus = [port_impedance(cfg(), gm, f0)
                 for gm in gm_opt * np.logspace(-2, 2, 201)]
        assert max(-z.real for z in locus) == pytest.approx(re_max, rel=1e-3)
        assert all(z.real <= 0 for z in locus)
        assert all(z.imag < 0 for z in locus)
