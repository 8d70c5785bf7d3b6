import json
import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from beamosc import explore, mechanics, pierce, transduction
from beamosc.errors import GridCapError, StageError, ValidationError
from beamosc.explore import (
    CONSTRAINT_NAMES,
    OBJECTIVES,
    PARAMETER_PATHS,
    SweepAxis,
    SweepSpec,
    evaluate,
    flatten,
    optimize,
    set_parameter,
    sweep,
)
from beamosc.process import MemsRuleSet, check_mems_rules, metal_stack_heights
from beamosc.simulate import SimConfig, summarize_startup
from conftest import join_blocks


def with_transducer(inputs, **fields):
    return replace(inputs, transducer=replace(inputs.transducer, **fields))


class TestEvaluate:
    def test_bundled_design_1_is_feasible(self, design_points):
        point = design_points[1]
        assert point.feasible
        assert [c.name for c in point.constraints] == list(CONSTRAINT_NAMES)
        assert point.startup_margin == pytest.approx(90.238, rel=1e-3)
        assert point.i_x == pytest.approx(3.4e-9, rel=1e-2)
        assert point.x_limit == pytest.approx(0.33 * point.inputs.transducer.gap, rel=1e-12)

    def test_bundled_design_2_fails_only_on_bias(self, design_points):
        point = design_points[2]
        assert not point.feasible
        bad = [c.name for c in point.constraints if not c.ok]
        assert bad == ["bias"]
        bias = point.constraint("bias")
        assert bias.measured == 9.5
        assert bias.limit == pytest.approx(0.97 * point.v_pull_in, rel=1e-12)
        assert bias.violation > 0

    def test_bundled_design_3_is_feasible(self, design_points):
        assert design_points[3].feasible
        assert flatten(design_points[3])["derived.meets_3x"]

    def test_electrode_height_follows_stack_thickness(self, design_points):
        # The electrode area is electrode_length * W: eta and C_static scale
        # with W, and V_pi ~ sqrt(k / A) does not move because k ~ W too.
        base = design_points[1]
        point = evaluate(set_parameter(base.inputs, {"beam.thickness": 3e-6}))
        scale = 3e-6 / base.inputs.beam.W
        assert point.eta == pytest.approx(base.eta * scale, rel=1e-12)
        assert point.c_static == pytest.approx(base.c_static * scale, rel=1e-12)
        assert point.v_pull_in == pytest.approx(base.v_pull_in, rel=1e-12)

    @pytest.mark.parametrize("mode", ["linearized", "nonlinear"])
    def test_coupling_and_pull_in_are_computed_once(self, design_points, monkeypatch,
                                                    mode):
        calls = {"coupling_coefficient": 0, "pull_in_voltage": 0}
        originals = {"coupling_coefficient": transduction.coupling_coefficient,
                     "pull_in_voltage": transduction.pull_in_voltage}
        for name, original in originals.items():
            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)
            # Both namespaces the pipeline could look the function up in.
            for module in (explore, transduction):
                monkeypatch.setattr(module, name, counted, raising=False)
        evaluate(replace(design_points[1].inputs, deflection_mode=mode))
        assert calls == {"coupling_coefficient": 1, "pull_in_voltage": 1}

    def test_unknown_constraint_name(self, design_points):
        with pytest.raises(KeyError):
            design_points[1].constraint("thermal")


class TestAmplifierSizing:
    def test_auto_gm_hits_target_margin(self, design_points):
        inputs = replace(design_points[1].inputs, gm=None)
        point = evaluate(inputs)
        assert point.startup_margin == pytest.approx(point.inputs.target_margin,
                                                     rel=1e-9)
        assert point.gm < point.gm_opt
        assert point.constraint("startup").ok

    def test_auto_gm_falls_back_to_peak_when_unreachable(self, design_points):
        # A 1 nF bridging capacitance caps |Re(Z_C)| far below 3 R_x.
        inputs = design_points[1].inputs
        inputs = replace(inputs, gm=None, amplifier=replace(inputs.amplifier, c0=1e-9))
        point = evaluate(inputs)
        assert point.gm == pytest.approx(point.gm_opt, rel=1e-12)
        assert point.startup_margin == pytest.approx(point.re_max / point.circuit.r_x,
                                                     rel=1e-12)
        assert not point.constraint("startup").ok
        assert not point.feasible

    def test_explicit_gm_is_respected(self, design_points):
        inputs = replace(design_points[1].inputs, gm=1e-5)
        assert evaluate(inputs).gm == 1e-5


class TestConstraints:
    def test_vibration_budget_can_break_deflection(self, design_points):
        inputs = replace(design_points[1].inputs, vibration_amplitude=4e-7)
        point = evaluate(inputs)
        check = point.constraint("deflection")
        assert not check.ok
        assert check.measured == pytest.approx(point.x_static + 4e-7, rel=1e-12)
        assert not point.feasible

    def test_default_vibration_budget_is_the_headroom(self, design_points):
        point = design_points[1]
        check = point.constraint("deflection")
        assert check.ok
        assert check.measured == pytest.approx(point.x_limit, rel=1e-12)

    def test_narrow_gap_violates_rules(self, design_points):
        inputs = with_transducer(design_points[1].inputs, gap=1.0e-6)
        point = evaluate(inputs)
        violations = check_mems_rules(inputs.beam, inputs.transducer, inputs.rules)
        assert [v.rule for v in violations] == ["lateral_gap"]
        assert point.rule_violation_count == 1
        assert not point.constraint("rules").ok
        assert not point.feasible

    def test_bias_above_limit(self, design_points):
        inputs = with_transducer(design_points[1].inputs, bias_voltage=12.0)
        point = evaluate(inputs)
        assert not point.constraint("bias").ok


class TestStageErrors:
    def test_electrode_longer_than_beam(self, design_points):
        inputs = with_transducer(design_points[1].inputs, electrode_length=200e-6)
        with pytest.raises(StageError) as err:
            evaluate(inputs)
        assert err.value.stage == "transduction"

    def test_nonlinear_deflection_past_pull_in(self, design_points):
        inputs = replace(
            with_transducer(design_points[1].inputs, bias_voltage=12.0),
            deflection_mode="nonlinear",
        )
        with pytest.raises(StageError) as err:
            evaluate(inputs)
        assert err.value.stage == "transduction"

    def test_gap_underflow_names_the_gap(self, design_points):
        # gap**3 underflows to 0 V of pull-in: a sweep refuses the point with
        # the error evaluate() gives it.
        inputs = design_points[1].inputs
        with pytest.raises(StageError) as direct:
            evaluate(with_transducer(inputs, gap=1e-110))
        assert direct.value.stage == "transduction" and "gap" in str(direct.value)
        spec = SweepSpec(axes=(SweepAxis("transducer.gap", 1e-110, 1.2e-6, 4, "log"),),
                         objective="min_Rx")
        with pytest.raises(StageError) as swept:
            list(sweep(inputs, spec))
        assert str(swept.value) == str(direct.value)

    def test_a_failing_sweep_replays_only_the_points_its_pass_flags(self, design_points,
                                                                   monkeypatch):
        # Electrodes of 50-120 um on design 1's 100 um beam: the column pass
        # vouches for the six up to 100 um, so only the first point it flags,
        # 110 um, is evaluated on its own, and raises.
        calls = []

        def counted(inputs):
            calls.append(inputs)
            return evaluate(inputs)

        monkeypatch.setattr(explore, "evaluate", counted)
        spec = SweepSpec(axes=(SweepAxis("transducer.electrode_length", 50e-6, 120e-6, 8),),
                         objective="min_Rx")
        with pytest.raises(StageError) as raised:
            list(sweep(design_points[1].inputs, spec))
        assert str(raised.value) == ("transduction: electrode_length 0.00011 m exceeds "
                                     "beam length 0.0001 m")
        assert len(calls) == 1

    def test_a_flagged_point_that_evaluates_cleanly_trips_the_sweep(self, design_points,
                                                                   monkeypatch):
        # The pass stops vouching for the valid 60 um electrode, ahead of
        # the 110 um one that fails: the sweep evaluates only that first
        # flagged point, and raises because evaluate() passes it.
        column_pass = explore._column_pass

        def doubting(*args):
            values, vouched = column_pass(*args)
            vouched[1] = False
            return values, vouched

        monkeypatch.setattr(explore, "_column_pass", doubting)
        spec = SweepSpec(axes=(SweepAxis("transducer.electrode_length", 50e-6, 120e-6, 8),),
                         objective="min_Rx")
        with pytest.raises(RuntimeError, match=r"^sweep failed grid point 1 on a check "
                                               r"that evaluate\(\) passes$"):
            list(sweep(design_points[1].inputs, spec))

    def test_bad_inputs_rejected_up_front(self, design_points):
        with pytest.raises(ValidationError):
            replace(design_points[1].inputs, q_factor=0.0)
        with pytest.raises(ValidationError):
            replace(design_points[1].inputs, gm=-1.0)
        with pytest.raises(ValidationError):
            replace(design_points[1].inputs, alpha_pull_in=1.5)

    @given(n=st.sampled_from([1, 2, 3]), path=st.sampled_from(sorted(PARAMETER_PATHS)),
           nan=st.sampled_from([math.nan, -math.nan]))
    def test_nan_is_refused_on_every_path(self, design_points, n, path, nan):
        # Refused by a check, never graded as an infeasible point of NaNs.
        with pytest.raises((ValidationError, StageError)) as raised:
            evaluate(set_parameter(design_points[n].inputs, {path: nan}))
        cause = getattr(raised.value, "cause", raised.value)
        assert isinstance(cause, ValidationError)

    @settings(max_examples=200)
    @given(data=st.data(), nan=st.sampled_from([math.nan, -math.nan, np.float64("nan")]))
    def test_nan_is_refused_where_it_enters(self, design_points, data, nan):
        # Each library function and validated type refuses a NaN in any
        # numeric argument with ValidationError, where the value enters.
        # The draws span 150 cases, fewer than max_examples, so Hypothesis,
        # which repeats no draw, tries every one.
        point = design_points[1]
        inputs, model, circuit = point.inputs, point.model, point.circuit
        beam, tr, amp = inputs.beam, inputs.transducer, inputs.amplifier
        operating_point = {"gm": point.gm, "f0": circuit.f0}
        short = SimConfig(duration=60.0 / circuit.f0)
        cases = {  # name: (call, valid keyword arguments)
            "spring_constant": (partial(mechanics.spring_constant, beam),
                                {"youngs_modulus": inputs.youngs_modulus}),
            "lumped_mass": (partial(mechanics.lumped_mass, beam), {"density": inputs.density}),
            "resonant_frequency": (mechanics.resonant_frequency, {"k": model.k, "m": model.m}),
            "pull_in_voltage": (transduction.pull_in_voltage,
                                {"k": model.k, "gap": tr.gap,
                                 "electrode_area": tr.electrode_length * beam.W}),
            "static_deflection": (partial(transduction.static_deflection, transducer=tr),
                                  {"k": model.k, "eta": point.eta,
                                   "v_pull_in": point.v_pull_in}),
            "extract_circuit": (transduction.extract_circuit,
                                {"k": model.k, "m": model.m, "q": model.q, "eta": point.eta}),
            "motional_current": (transduction.motional_current,
                                 {"eta": point.eta, "f0": circuit.f0, "x_amplitude": 1e-8}),
            "max_negative_resistance": (partial(pierce.max_negative_resistance, amp),
                                        {"f0": circuit.f0}),
            "negative_resistance": (partial(pierce.negative_resistance, amp), operating_point),
            "_gm_roots": (partial(pierce._gm_roots, amp),
                          {"f0": circuit.f0, "target_resistance": 3 * circuit.r_x}),
            "summarize_startup": (partial(summarize_startup, circuit, amp, sim=short),
                                  {"gm": point.gm, "eta": point.eta, "x_max": 1e-6}),
            "LumpedBeamModel": (mechanics.LumpedBeamModel, vars(model)),
            "EquivalentCircuit": (transduction.EquivalentCircuit, vars(circuit)),
            "PierceConfig": (pierce.PierceConfig, vars(amp)),
            "MemsRuleSet": (partial(MemsRuleSet, metal_thickness_grid=(1e-6,)),
                            {"min_lateral_gap": 1e-6, "max_release_width": 8e-6}),
            "MemsRuleSet.metal_thickness_grid": (
                lambda height: MemsRuleSet(require_metal_cover=True,
                                           metal_thickness_grid=(4.8e-6, height)),
                {"height": 2.4e-6}),
            "metal_stack_heights": (metal_stack_heights, {"thickness_per_pair": 1e-6}),
            "DesignInputs": (partial(replace, inputs),
                             {"q_factor": inputs.q_factor, "gm": 1e-5, "target_margin": 3.0,
                              "alpha_pull_in": 0.97, "vibration_amplitude": 1e-8,
                              "x_amplitude": 1e-8}),
        }
        call, valid = cases[data.draw(st.sampled_from(sorted(cases)))]
        name = data.draw(st.sampled_from(sorted(valid)))
        call(**valid)
        with pytest.raises(ValidationError):
            call(**{**valid, name: nan})


class TestParameterPaths:
    def test_set_parameter_round_trip(self, design_points):
        inputs = design_points[1].inputs
        out = set_parameter(inputs, {"beam.length": 80e-6,
                                     "transducer.bias_voltage": 5.0,
                                     "pierce.gm": 1e-4})
        assert out.beam.L == 80e-6
        assert inputs.beam.L == 100e-6  # original untouched
        assert out.transducer.bias_voltage == 5.0
        assert out.gm == 1e-4

    def test_unknown_path_is_named(self, design_points):
        with pytest.raises(ValidationError, match="beam.lenght"):
            set_parameter(design_points[1].inputs, {"beam.lenght": 1.0})


class TestSweepAxis:
    def test_linear_values(self):
        axis = SweepAxis("beam.length", 60e-6, 100e-6, 5)
        vals = axis.values()
        assert vals[0] == 60e-6 and vals[-1] == 100e-6 and len(vals) == 5

    def test_log_values(self):
        axis = SweepAxis("transducer.gap", 1e-6, 4e-6, 3, scale="log")
        assert axis.values() == pytest.approx([1e-6, 2e-6, 4e-6], rel=1e-12)

    def test_single_step_pins_the_minimum(self):
        axis = SweepAxis("beam.length", 60e-6, 100e-6, 1)
        assert list(axis.values()) == [60e-6]

    @settings(max_examples=200)
    @given(scale=st.sampled_from(["linear", "log"]), low=st.floats(1e-12, 1e6),
           negative=st.booleans(), ulps=st.integers(0, 8), ratio=st.floats(1.0, 1e3),
           steps=st.integers(1, 9))
    # np.geomspace puts the middle value 7 ulps above this axis's maximum.
    @example(scale="log", low=1.539351012830692e-06, negative=False, ulps=1, ratio=1.0,
             steps=3)
    def test_values_stay_inside_the_axis(self, scale, low, negative, ulps, ratio, steps):
        # Ends a few ulps apart (ratio 1) or wide apart; a value the grid
        # function puts inside the axis keeps its bits.
        if negative and scale == "linear":
            low = -low
        high = low + abs(low) * (ratio - 1.0)
        for _ in range(ulps):
            high = math.nextafter(high, math.inf)
        values = SweepAxis("transducer.gap", low, high, steps, scale).values()
        raw = (np.geomspace if scale == "log" else np.linspace)(low, high, steps)
        assert ((low <= values) & (values <= high)).all(), (values.tolist(), low, high)
        inside = (low <= raw) & (raw <= high)
        assert values[inside].tobytes() == raw[inside].tobytes()
        assert values[0] == low and (steps == 1 or values[-1] == high)

    def test_validation(self):
        with pytest.raises(ValidationError):
            SweepAxis("beam.lenght", 1.0, 2.0, 2)
        with pytest.raises(ValidationError):
            SweepAxis("beam.length", 2.0, 1.0, 2)
        with pytest.raises(ValidationError):
            SweepAxis("beam.length", 1.0, 2.0, 0)
        with pytest.raises(ValidationError):
            SweepAxis("beam.length", 0.0, 2.0, 2, scale="log")
        with pytest.raises(ValidationError):
            SweepAxis("beam.length", 1.0, 2.0, 2, scale="cubic")
        with pytest.raises(ValidationError, match="finite"):
            SweepAxis("beam.length", math.nan, 2.0, 2)


class TestSweep:
    def base(self, design_points):
        # Electrode shortened so a 60 um beam stays a valid combination.
        return with_transducer(design_points[1].inputs, electrode_length=45e-6)

    def test_two_by_two_grid(self, design_points):
        spec = SweepSpec(axes=(
            SweepAxis("beam.length", 60e-6, 100e-6, 2),
            SweepAxis("beam.in_plane_width", 1e-6, 2e-6, 2),
        ))
        grid = join_blocks(sweep(self.base(design_points), spec))
        assert len(grid["feasible"]) == 4
        lengths = grid["beam.length"].tolist()
        widths = grid["beam.in_plane_width"].tolist()
        assert lengths == [60e-6, 60e-6, 100e-6, 100e-6]  # row-major order
        assert widths == [1e-6, 2e-6, 1e-6, 2e-6]
        # Corners reproduce the bundled short and long designs.
        assert grid["derived.f0"][0] == pytest.approx(105.4e3, rel=2e-3)
        assert not grid["feasible"][0]  # bias sits too close to pull-in
        assert not grid["constraint.bias_ok"][0]
        assert grid["derived.f0"][3] == pytest.approx(75.9e3, rel=2e-3)
        assert grid["feasible"][3]

    def test_a_fault_stays_in_its_block(self, design_points, monkeypatch):
        # A subnormal target_margin overflows margin / target_margin in the
        # column pass (the float path runs on to inf, and a zero startup
        # violation): only the first block, the points with that target,
        # goes point by point.
        monkeypatch.setattr(explore, "SWEEP_BLOCK", 5)
        calls = []

        def counted(inputs):
            calls.append(inputs)
            return evaluate(inputs)

        monkeypatch.setattr(explore, "evaluate", counted)
        spec = SweepSpec(axes=(
            SweepAxis("pierce.target_margin", 1e-320, 3.0, 2),
            SweepAxis("beam.q_factor", 1000.0, 8000.0, 5),
        ))
        grid = join_blocks(sweep(self.base(design_points), spec))
        assert [p.target_margin for p in calls] == [1e-320] * 5
        assert grid["feasible"].tolist() == [True] * 10

    def test_grid_cap_enforced(self, design_points):
        spec = SweepSpec(
            axes=(SweepAxis("beam.length", 60e-6, 100e-6, 2),
                  SweepAxis("beam.in_plane_width", 1e-6, 2e-6, 2)),
            grid_cap=3,
        )
        with pytest.raises(GridCapError):
            sweep(self.base(design_points), spec)

    def test_grid_cap_is_checked_before_the_axes_are_sampled(self, design_points,
                                                             monkeypatch):
        def values(axis):
            raise AssertionError(f"{axis.path} sampled before the cap check")

        monkeypatch.setattr(SweepAxis, "values", values)
        spec = SweepSpec(axes=(SweepAxis("beam.length", 60e-6, 100e-6, 10**10),))
        with pytest.raises(GridCapError, match="10000000000 points"):
            sweep(self.base(design_points), spec)

    def test_spec_validation(self):
        axis = SweepAxis("beam.length", 60e-6, 100e-6, 2)
        with pytest.raises(ValidationError):
            SweepSpec(axes=())
        with pytest.raises(ValidationError):
            SweepSpec(axes=(axis,), objective="min_power")
        with pytest.raises(ValidationError):
            SweepSpec(axes=(axis,), constraints=("bias", "thermal"))
        with pytest.raises(ValidationError, match="axis 1 duplicates axis 0"):
            SweepSpec(axes=(axis, replace(axis, steps=3)))
        assert SweepSpec(axes=(axis,)).enabled_constraints == CONSTRAINT_NAMES
        assert SweepSpec(axes=(axis,), constraints=("bias",)).enabled_constraints \
            == ("bias",)
        assert SweepSpec(axes=(axis,), constraints=("rules", "bias")).enabled_constraints \
            == ("bias", "rules")


class TestOptimize:
    def test_min_rx_pushes_bias_to_the_rail(self, design_points):
        spec = SweepSpec(
            axes=(SweepAxis("transducer.bias_voltage", 2.0, 9.5, 5),),
            objective="min_Rx",
        )
        result = optimize(design_points[1].inputs, spec)
        assert result.feasible
        assert result.best_params["transducer.bias_voltage"] == 9.5
        assert result.objective_value == pytest.approx(
            design_points[1].circuit.r_x, rel=1e-9)
        grid_values = [entry["objective"] for entry in result.log
                       if entry["feasible"] and entry["phase"] == "grid"]
        assert result.objective_value <= min(grid_values) * (1 + 1e-12)

    def test_max_f0_prefers_the_shortest_beam(self, design_points):
        inputs = with_transducer(design_points[2].inputs, bias_voltage=9.0)
        spec = SweepSpec(
            axes=(SweepAxis("beam.length", 60e-6, 100e-6, 5),),
            objective="max_f0",
        )
        result = optimize(inputs, spec)
        assert result.feasible
        assert result.best_params["beam.length"] == 60e-6
        assert result.objective_value == pytest.approx(
            design_points[2].model.f0, rel=1e-12)

    def test_margin_ceiling_stops_at_the_bias_boundary(self, design_points):
        point = design_points[1]
        spec = SweepSpec(
            axes=(SweepAxis("beam.length", 75e-6, 120e-6, 5),),
            objective="startup_margin",
        )
        result = optimize(point.inputs, spec)
        assert result.feasible
        # Ceiling grows with beam length until bias hits alpha * V_pi;
        # V_pi ~ L^-1.5 puts that boundary at a closed-form length.
        alpha = point.inputs.alpha_pull_in
        bias = point.inputs.transducer.bias_voltage
        l_star = point.inputs.beam.L * (alpha * point.v_pull_in / bias) ** (2 / 3)
        assert result.best_params["beam.length"] == pytest.approx(l_star, rel=5e-4)
        assert result.best.constraint("bias").ok
        assert result.objective_value == pytest.approx(
            OBJECTIVES["startup_margin"][1](result.best), rel=1e-12)
        assert result.objective_value > OBJECTIVES["startup_margin"][1](point)

    def test_all_infeasible_reports_the_blocking_constraint(self, design_points):
        spec = SweepSpec(
            axes=(SweepAxis("transducer.bias_voltage", 15.0, 20.0, 3),),
            objective="min_Rx",
        )
        result = optimize(design_points[1].inputs, spec)
        assert not result.feasible
        assert result.best is None
        assert result.best_params is None
        assert result.objective_value is None
        assert result.most_violated == "bias"
        assert result.evaluations == 3

    def test_repeat_runs_are_identical(self, design_points):
        spec = SweepSpec(
            axes=(SweepAxis("transducer.bias_voltage", 2.0, 9.5, 5),),
            objective="min_Rx",
        )
        a = optimize(design_points[1].inputs, spec)
        b = optimize(design_points[1].inputs, spec)
        assert a == b
        assert a.best_params == b.best_params
        assert a.objective_value == b.objective_value
        assert a.evaluations == b.evaluations

    def test_grid_points_that_fail_are_logged_and_skipped(self, design_points):
        # The two shortest beams are shorter than the 75 um electrode.
        spec = SweepSpec(
            axes=(SweepAxis("beam.length", 60e-6, 100e-6, 5),),
            objective="min_Rx",
        )
        result = optimize(design_points[1].inputs, spec)
        log = list(result.log)
        for entry in log[:2]:
            assert entry["objective"] is None
            assert entry["feasible"] is False
        assert log[2]["objective"] is not None
        assert result.feasible
        # 5 grid points, then the polish's two differences at the 100 um
        # bound, where the longest beam has the least R_x.
        assert result.evaluations == len(result.log) == 7

    def test_a_grid_where_every_point_fails_raises_the_last_error(self, design_points):
        spec = SweepSpec(
            axes=(SweepAxis("beam.length", 40e-6, 60e-6, 3),),
            objective="min_Rx",
        )
        with pytest.raises(StageError) as raised:
            optimize(design_points[1].inputs, spec)
        assert raised.value.stage == "transduction"
        assert "beam length 6e-05 m" in str(raised.value)

    def test_refinement_never_loses_to_the_grid(self, design_points):
        spec = SweepSpec(
            axes=(SweepAxis("beam.length", 75e-6, 120e-6, 4),
                  SweepAxis("transducer.bias_voltage", 6.0, 9.5, 4)),
            objective="startup_margin",
        )
        result = optimize(design_points[1].inputs, spec)
        assert result.feasible
        grid_best = max(entry["objective"] for entry in result.log
                        if entry["feasible"] and entry["phase"] == "grid")
        assert result.objective_value >= grid_best

    @pytest.mark.parametrize("axis, alone, faults", [
        # A vibration budget of 1e308, whose deflection violation would
        # overflow, fails a check in the last block only; the pass does not
        # fault, so those points are logged as failed and not evaluated.
        pytest.param(SweepAxis("explore.vibration_amplitude", 0.0, 1e308, 2), 1e308, False,
                     id="axis0-1e+308"),
        # So does a bias of 0 V, which couples with eta = 1 in the pass.
        pytest.param(SweepAxis("transducer.bias_voltage", 0.0, 9.0, 2), 0.0, False,
                     id="axis1-0.0"),
        # gm = 1e300 overflows in the last block only.
        pytest.param(SweepAxis("pierce.gm", 1e-4, 1e300, 2), 1e300, True, id="axis2-1e+300"),
    ])
    def test_a_fault_stays_in_its_block(self, design_points, monkeypatch, axis, alone, faults):
        # Only the points of the block that faults are graded by evaluate().
        monkeypatch.setattr(explore, "SWEEP_BLOCK", 5)
        monkeypatch.setattr(explore, "_polish",
                            lambda spec, start, reading, grade: (start, reading, [], ()))
        calls = []
        monkeypatch.setattr(explore, "evaluate",
                            lambda inputs: calls.append(inputs) or evaluate(inputs))
        inputs = with_transducer(design_points[1].inputs, electrode_length=45e-6)
        q_axis = SweepAxis("beam.q_factor", 1000.0, 8000.0, 5)
        result = optimize(inputs, SweepSpec(axes=(axis, q_axis)))
        assert result.feasible
        assert [e["params"][axis.path] for e in result.log if e["objective"] is None] \
            == [alone] * 5
        # The last call evaluates the winner for the result.
        assert calls[:-1] == [set_parameter(inputs, {axis.path: alone, q_axis.path: q})
                              for q in q_axis.values().tolist() if faults]

    def test_no_column_pass_sees_more_than_a_block(self, design_points, monkeypatch):
        monkeypatch.setattr(explore, "SWEEP_BLOCK", 7)
        passes = []  # the length of each column pass's axis columns

        def recorded(inputs, params, *args):
            columns = [len(v) for v in params.values() if isinstance(v, np.ndarray)]
            if columns:
                passes.append(max(columns))
            return set_parameter(inputs, params, *args)

        monkeypatch.setattr(explore, "set_parameter", recorded)
        spec = SweepSpec(axes=(
            SweepAxis("transducer.bias_voltage", 2.0, 9.5, 5),
            SweepAxis("beam.q_factor", 1000.0, 8000.0, 5),
            SweepAxis("pierce.c1", 1e-12, 3e-12, 5),
        ))
        optimize(design_points[1].inputs, spec)
        assert passes[:18] == [7] * 17 + [6]  # 125 coarse points
        assert len(passes) > 18 and max(passes) <= 7  # then the polish's passes

    def test_a_repeated_request_logs_the_grade_of_its_first(self, design_points, monkeypatch):
        calls = []
        monkeypatch.setattr(explore, "evaluate", lambda inputs: calls.append(1) or evaluate(inputs))
        spec = SweepSpec(axes=(SweepAxis("transducer.bias_voltage", 6.0, 9.4, 5),
                               SweepAxis("beam.in_plane_width", 1.5e-6, 3e-6, 5),
                               SweepAxis("beam.length", 90e-6, 120e-6, 4)),
                         objective="max_f0")
        result = optimize(design_points[1].inputs, spec)

        def bits(entry):
            return tuple(map(float.hex, entry["params"].values()))
        grid = {bits(e) for e in result.log if e["phase"] == "grid"}
        refine = [bits(e) for e in result.log if e["phase"] == "refine"]
        # The column passes grade the whole grid and every polish point; a
        # difference clipped at a bound of the box revisits the grid point.
        assert all(e["objective"] is not None for e in result.log if e["phase"] == "grid")
        assert grid & set(refine)
        assert len(calls) == 1  # the winner's DesignPoint
        assert result.evaluations == len(result.log) == len(grid) + len(refine)
        # A revisit, of a polish point or of a grid point, logs its first
        # grade bit for bit.
        first = {}
        for entry in result.log:
            grade = first.setdefault(bits(entry), (entry["objective"], entry["feasible"]))
            assert float.hex(entry["objective"]) == float.hex(grade[0])
            assert entry["feasible"] is grade[1]

    def test_the_polish_makes_one_pass_per_step(self, design_points, monkeypatch):
        # Each line search also grades the stencils of its t = 1 and t = 1/2
        # points, so a step that starts at either takes its differences from
        # that pass. Under design 3's fixed gm the startup ratio curves in log
        # coordinates, so a line's t = 1 point overshoots the limit; the next
        # program backs off by that overshoot, and 4 programs in 5 column
        # passes reach the limit, where halving onto it took 15 in 17.
        passes, programs = [], []
        column_pass, lp = explore._column_pass, explore._lp
        monkeypatch.setattr(explore, "_column_pass",
                            lambda *args: passes.append(1) or column_pass(*args))
        monkeypatch.setattr(explore, "_lp", lambda *args: programs.append(1) or lp(*args))
        spec = SweepSpec(axes=(SweepAxis("beam.length", 85e-6, 125e-6, 5),
                               SweepAxis("beam.in_plane_width", 0.8e-6, 1.6e-6, 5),
                               SweepAxis("transducer.bias_voltage", 4.0, 9.4, 5)),
                         objective="max_f0")
        result = optimize(design_points[3].inputs, spec)
        assert result.evaluations == 173
        assert len(passes) == 5
        assert len(programs) == 4
        # The halving walk's optimum, 327 evaluations, to within 1e-9.
        assert result.objective_value == pytest.approx(381177.1689746848, rel=1e-9)

    def test_a_fixed_axis_is_one_grid_step_and_no_simplex_dimension(self, design_points):
        inputs = design_points[1].inputs
        bias = SweepAxis("transducer.bias_voltage", 6.0, 9.4, 5)
        width = SweepAxis("beam.in_plane_width", 1.5e-6, 3e-6, 5)
        length = SweepAxis("beam.length", inputs.beam.L, inputs.beam.L, 3)  # design 1's own
        free = optimize(inputs, SweepSpec(axes=(bias, width)))
        fixed = optimize(inputs, SweepSpec(axes=(bias, length, width)))
        assert fixed.evaluations == free.evaluations
        for a, b in zip(free.log, fixed.log):
            assert list(b["params"]) == [bias.path, length.path, width.path]
            assert b["params"][length.path] == inputs.beam.L
            assert {k: v for k, v in b["params"].items() if k != length.path} == a["params"]
            assert (b["phase"], b["objective"], b["feasible"]) == \
                (a["phase"], a["objective"], a["feasible"])
        # With no free axis there is one design to grade and nothing to refine.
        alone = optimize(inputs, SweepSpec(axes=(replace(bias, maximum=6.0, steps=3),)))
        assert alone.evaluations == 1
        assert alone.best_params == {bias.path: 6.0}


class TestFlatten:
    def test_rows_serialize_to_json(self, design_points):
        row = flatten(design_points[1])
        text = json.dumps(row)
        assert "derived.f0" in row
        assert row["feasible"] is True
        assert row["beam.length"] == 100e-6
        assert row["constraint.bias_ok"] is True
        back = json.loads(text)
        assert back["derived.startup_margin"] == pytest.approx(90.238, rel=1e-3)

    def test_row_keeps_missing_current_as_null(self, design_points):
        inputs = replace(design_points[1].inputs, x_amplitude=None)
        row = flatten(evaluate(inputs))
        assert row["derived.i_x"] is None
