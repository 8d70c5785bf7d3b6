import pytest
from hypothesis import given, strategies as st

from beamosc.config import ProjectConfig
from beamosc.errors import ConfigError, ValidationError
from beamosc.explore import DesignInputs
from beamosc.mechanics import BeamGeometry
from beamosc.process import (
    DEFAULT_DENSITY,
    DEFAULT_METAL_GRID,
    DEFAULT_YOUNGS_MODULUS,
    MemsRuleSet,
    check_mems_rules,
    metal_stack_heights,
)
from beamosc.transduction import Transducer


def beam(H=2e-6, W=4.8e-6, L=100e-6):
    return BeamGeometry(anchor="cantilever", L=L, H=H, W=W)


def transducer(gap=1.2e-6):
    return Transducer(gap=gap, electrode_length=75e-6, bias_voltage=9.5)


def stack_inputs(**materials):
    return ProjectConfig.from_raw({"materials": materials}).build_inputs()


class TestLaminate:
    """The interconnect stack: metal_stack_heights() and how the config
    resolves the beam thickness and material constants from it."""

    def test_four_metal_stack_thickness(self):
        assert metal_stack_heights()[3] == pytest.approx(4.8e-6, rel=1e-12)
        inputs = stack_inputs()
        assert inputs.beam.W == metal_stack_heights()[3]
        assert inputs.youngs_modulus == DEFAULT_YOUNGS_MODULUS == 63e9
        assert inputs.density == DEFAULT_DENSITY == 2770.0
        fields = DesignInputs.__dataclass_fields__
        assert fields["youngs_modulus"].default == DEFAULT_YOUNGS_MODULUS
        assert fields["density"].default == DEFAULT_DENSITY

    def test_thickness_scales_with_metal_count(self):
        heights = metal_stack_heights()
        assert heights == pytest.approx([1.2e-6, 2.4e-6, 3.6e-6, 4.8e-6])
        assert sorted(heights) == list(heights)
        assert DEFAULT_METAL_GRID == heights
        assert [stack_inputs(top_metal_index=i).beam.W for i in (1, 2, 3, 4)] == list(heights)

    def test_metal_only_stack_is_thinner(self):
        full = metal_stack_heights()
        bare = metal_stack_heights(include_dielectric=False)
        assert all(b < f for b, f in zip(bare, full))
        assert bare == pytest.approx([0.5 * f for f in full], rel=1e-12)
        assert stack_inputs(include_dielectric=False).beam.W == bare[3]

    @pytest.mark.parametrize("index", [0, 5, -1])
    def test_unknown_metal_index_rejected(self, index):
        with pytest.raises(ConfigError, match=r"materials\.top_metal_index"):
            stack_inputs(top_metal_index=index)

    def test_non_integer_index_rejected(self):
        with pytest.raises(ConfigError, match=r"materials\.top_metal_index"):
            stack_inputs(top_metal_index=2.5)

    def test_material_overrides(self):
        assert metal_stack_heights(thickness_per_pair=1.0e-6) == pytest.approx(
            [1.0e-6, 2.0e-6, 3.0e-6, 4.0e-6], rel=1e-12)
        inputs = stack_inputs(youngs_modulus=70e9, density=2330.0, top_metal_index=2,
                              thickness_per_pair=1.0e-6)
        assert inputs.youngs_modulus == 70e9
        assert inputs.density == 2330.0
        assert inputs.beam.W == pytest.approx(2.0e-6)

    def test_explicit_thickness_wins(self):
        inputs = ProjectConfig.from_raw({"materials": {"top_metal_index": 2},
                                         "beam": {"thickness": 3.3e-6}}).build_inputs()
        assert inputs.beam.W == 3.3e-6

    @pytest.mark.parametrize("pitch", [0.0, -1.2e-6])
    def test_non_positive_pitch_rejected(self, pitch):
        with pytest.raises(ValidationError, match="thickness_per_pair"):
            metal_stack_heights(thickness_per_pair=pitch)


class TestRules:
    def test_reference_geometry_is_clean(self):
        assert check_mems_rules(beam(), transducer()) == []

    def test_narrow_gap_violation(self):
        violations = check_mems_rules(beam(), transducer(gap=1.0e-6))
        assert len(violations) == 1
        v = violations[0]
        assert v.rule == "lateral_gap"
        assert v.measured == 1.0e-6
        assert v.limit == 1.2e-6
        assert "lateral_gap" in v.describe()

    def test_wide_beam_violation(self):
        violations = check_mems_rules(beam(H=9e-6), transducer())
        assert [v.rule for v in violations] == ["release_width"]
        assert violations[0].limit == 8e-6

    def test_metal_cover_rule_disabled_by_default(self):
        assert check_mems_rules(beam(W=2.0e-6), transducer()) == []

    def test_metal_cover_rule_enforced(self):
        rules = MemsRuleSet(require_metal_cover=True)
        bad = check_mems_rules(beam(W=2.0e-6), transducer(), rules)
        assert [v.rule for v in bad] == ["metal_cover"]
        assert bad[0].limit == pytest.approx(2.4e-6)
        ok = check_mems_rules(beam(W=2.4e-6), transducer(), rules)
        assert ok == []

    @pytest.mark.parametrize("height", [0.0, -4.8e-6])
    def test_metal_heights_must_be_positive(self, height):
        # NaN is test_explore's test_nan_is_refused_where_it_enters.
        with pytest.raises(ValidationError, match="metal_thickness_grid"):
            MemsRuleSet(require_metal_cover=True, metal_thickness_grid=(height,))

    def test_gap_at_limit_is_legal(self):
        assert check_mems_rules(beam(), transducer(gap=1.2e-6)) == []

    @given(
        g1=st.floats(min_value=0.1e-6, max_value=5e-6),
        g2=st.floats(min_value=0.1e-6, max_value=5e-6),
    )
    def test_shrinking_gap_never_fixes_anything(self, g1, g2):
        lo, hi = sorted((g1, g2))
        names_lo = {v.rule for v in check_mems_rules(beam(), transducer(gap=lo))}
        names_hi = {v.rule for v in check_mems_rules(beam(), transducer(gap=hi))}
        assert names_hi <= names_lo
