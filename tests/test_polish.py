"""The log-space polish of optimize() and its linear program.

The objectives and the bias, deflection and startup ratios are power laws
of the axes (tests/test_exponents.py), so where one monomial constraint and
the box bounds hold the optimum, it has a closed form that the polish must
reach to 1e-9 relative, and its shadow prices are the exponents.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from beamosc import explore
from beamosc.explore import OBJECTIVES, SweepAxis, SweepSpec, evaluate, optimize, set_parameter
from test_columns import base_inputs, optimize_specs


def with_transducer(inputs, **fields):
    return replace(inputs, transducer=replace(inputs.transducer, **fields))


def bias_limited_length(inputs, bias):
    """The beam length at which `bias` is alpha_pull_in * V_pi: V_pi goes
    as L^-1.5 at a fixed electrode."""
    point = evaluate(inputs)
    return inputs.beam.L * (inputs.alpha_pull_in * point.v_pull_in / bias) ** (2 / 3)


def bias_and_length(inputs, bias_max=11.0):
    """min_Rx over the bias, 6 V to bias_max, and the beam length, 60 to
    100 um, on design 1 (75 um electrode)."""
    return optimize(inputs, SweepSpec(axes=(
        SweepAxis("transducer.bias_voltage", 6.0, bias_max, 5),
        SweepAxis("beam.length", 60e-6, 100e-6, 5),
    ), objective="min_Rx"))


class TestClosedForm:
    def test_bias_and_length_reach_the_pull_in_bound(self, design_points):
        # R_x falls as V^-2 and as L^-1; the bias axis stops at 11 V and
        # pull-in at the length where 11 V is 0.97 V_pi.
        inputs = design_points[1].inputs
        result = bias_and_length(inputs)
        length = bias_limited_length(inputs, 11.0)
        want = evaluate(set_parameter(inputs, {"transducer.bias_voltage": 11.0,
                                               "beam.length": length}))
        assert result.best_params["transducer.bias_voltage"] == 11.0  # the axis's own float
        assert result.best_params["beam.length"] == pytest.approx(length, rel=1e-9)
        assert result.objective_value == pytest.approx(want.circuit.r_x, rel=1e-9)
        assert result.objective_value == pytest.approx(587188.7193047, rel=1e-9)
        # 1.18% below the best grid point, (11 V, 90 um).
        grid = min(e["objective"] for e in result.log if e["phase"] == "grid" and e["feasible"])
        assert grid == pytest.approx(594202.4916509722, rel=1e-12)
        assert result.objective_value < 0.99 * grid
        assert result.evaluations == len(result.log) == 41

    def test_bias_and_length_name_what_binds(self, design_points):
        # L* goes as (alpha V_pi / V)^(2/3), so R_x at the optimum goes as
        # alpha^(-2/3) and as V_max^(-2 + 2/3).
        result = bias_and_length(design_points[1].inputs)
        assert [(b["name"], b["bound"]) for b in result.binding] == [
            ("bias", "limit"), ("transducer.bias_voltage", "max")]
        assert result.binding[0]["shadow_price"] == pytest.approx(-2 / 3, rel=1e-9)
        assert result.binding[1]["shadow_price"] == pytest.approx(-4 / 3, rel=1e-9)

    def test_the_shadow_prices_are_the_optimum_s_slopes(self, design_points):
        inputs = design_points[1].inputs
        base = bias_and_length(inputs)
        step = 1e-3
        moved = {
            "bias": bias_and_length(replace(inputs, alpha_pull_in=0.97 * (1 + step))),
            "transducer.bias_voltage": bias_and_length(inputs, bias_max=11.0 * (1 + step)),
        }
        for entry in base.binding:
            slope = (math.log(moved[entry["name"]].objective_value / base.objective_value)
                     / math.log1p(step))
            assert slope == pytest.approx(entry["shadow_price"], rel=1e-6)

    @pytest.mark.parametrize("design", [1, 2, 3])
    def test_the_margin_ceiling_stops_at_pull_in(self, design_points, design):
        # Re_max/R_x grows with the beam length until the bias reaches
        # alpha * V_pi; only the bias constraint is enforced.
        inputs = with_transducer(design_points[design].inputs, electrode_length=30e-6)
        bias = inputs.transducer.bias_voltage
        length = bias_limited_length(inputs, bias)
        spec = SweepSpec(axes=(SweepAxis("beam.length", 0.7 * length, 1.3 * length, 5),),
                         objective="startup_margin", constraints=("bias",))
        result = optimize(inputs, spec)
        want = evaluate(set_parameter(inputs, {"beam.length": length}))
        assert result.best_params["beam.length"] == pytest.approx(length, rel=1e-9)
        assert result.objective_value == pytest.approx(want.re_max / want.circuit.r_x,
                                                       rel=1e-9)
        assert [(b["name"], b["bound"]) for b in result.binding] == [("bias", "limit")]

    @pytest.mark.parametrize("design", [1, 2, 3])
    def test_two_axes_and_one_constraint(self, design_points, design):
        # min_Rx on bias and length: the bias axis's maximum and pull-in hold
        # the optimum, whatever the design.
        inputs = with_transducer(design_points[design].inputs, electrode_length=30e-6)
        top = inputs.transducer.bias_voltage
        length = bias_limited_length(inputs, top)
        spec = SweepSpec(axes=(SweepAxis("transducer.bias_voltage", 0.5 * top, top, 5),
                               SweepAxis("beam.length", 0.6 * length, 1.2 * length, 5)),
                         objective="min_Rx", constraints=("bias",))
        result = optimize(inputs, spec)
        want = evaluate(set_parameter(inputs, {"transducer.bias_voltage": top,
                                               "beam.length": length}))
        assert result.best_params["transducer.bias_voltage"] == top
        assert result.objective_value == pytest.approx(want.circuit.r_x, rel=1e-9)

    def test_a_box_corner_is_taken_exactly(self, design_points):
        # max_f0 with no constraint: f0 goes as H / L^2, so the polish ends
        # on the shortest, widest beam, each the axis's own float.
        inputs = with_transducer(design_points[1].inputs, electrode_length=30e-6)
        spec = SweepSpec(axes=(SweepAxis("beam.length", 61e-6, 99e-6, 3),
                               SweepAxis("beam.in_plane_width", 1.1e-6, 2.9e-6, 3)),
                         objective="max_f0", constraints=())
        result = optimize(inputs, spec)
        assert result.best_params == {"beam.length": 61e-6, "beam.in_plane_width": 2.9e-6}
        assert [(b["name"], b["bound"]) for b in result.binding] == [
            ("beam.length", "min"), ("beam.in_plane_width", "max")]
        assert [b["shadow_price"] for b in result.binding] == pytest.approx([-2.0, 1.0],
                                                                            rel=1e-9)

    def test_a_coordinate_moved_onto_a_bound_is_the_axis_s_own_float(self):
        # From this start, y0 + (ln(max) - y0) rounds below ln(max), and its
        # exp below max; the program's step to the bound must still land on
        # max itself. A grader of the power law R_x ~ V^-2 stands in for
        # the pipeline.
        top, start = 18.488519950954284, 2.3388084907382494
        assert math.log(start) + (math.log(top) - math.log(start)) < math.log(top)
        spec = SweepSpec(axes=(SweepAxis("transducer.bias_voltage", 1.0, top, 2),),
                         objective="min_Rx", constraints=())
        graded = []

        def grade(points):
            graded.extend(points)
            return [(p["transducer.bias_voltage"] ** -2.0, True) for p in points]

        *_, binding = explore._polish(spec, {"transducer.bias_voltage": start},
                                      (start ** -2.0, True), grade)
        assert graded[2] == {"transducer.bias_voltage": top}  # the line's t = 1
        assert [(b["name"], b["bound"]) for b in binding] == [
            ("transducer.bias_voltage", "max")]
        assert binding[0]["shadow_price"] == pytest.approx(-2.0, rel=1e-9)

    def test_an_axis_from_zero_keeps_its_grid_value(self, design_points):
        # vibration_amplitude from 0 has no log coordinate: the polish moves
        # the bias and leaves the budget where the grid put it.
        inputs = design_points[1].inputs
        spec = SweepSpec(axes=(SweepAxis("explore.vibration_amplitude", 0.0, 1e-8, 3),
                               SweepAxis("transducer.bias_voltage", 2.0, 9.5, 5)),
                         objective="min_Rx")
        result = optimize(inputs, spec)
        grid = {e["params"]["explore.vibration_amplitude"] for e in result.log
                if e["phase"] == "grid"}
        polish = {e["params"]["explore.vibration_amplitude"] for e in result.log
                  if e["phase"] == "refine"}
        assert polish == {result.best_params["explore.vibration_amplitude"]} <= grid


# Axes around the bundled designs, each ratio applied to the design's own
# value, as the benchmark's design sessions draw them.
NEAR = {path: operator.attrgetter(field) for path, field in (
    ("beam.length", "beam.L"), ("beam.in_plane_width", "beam.H"),
    ("transducer.bias_voltage", "transducer.bias_voltage"), ("transducer.gap", "transducer.gap"),
    ("beam.q_factor", "q_factor"), ("pierce.c1", "c1"), ("pierce.c2", "c2"),
    ("explore.alpha_pull_in", "alpha_pull_in"))}


@st.composite
def design_specs(draw, design_points):
    """1-4 axes of 1-5 steps from 0.6-1 to 1-1.4 times a bundled design's
    own values, any objective, all or some constraints."""
    point = design_points[draw(st.sampled_from([1, 2, 3]))]
    inputs = with_transducer(point.inputs, electrode_length=30e-6)
    axes = []
    for path in draw(st.lists(st.sampled_from(sorted(NEAR)), min_size=1, max_size=4,
                              unique=True)):
        value = NEAR[path](inputs)
        top = 1.0 if path == "explore.alpha_pull_in" else draw(st.floats(1.0, 1.4))
        axes.append(SweepAxis(path, value * draw(st.floats(0.6, 1.0)), value * top,
                              draw(st.integers(1, 5)),
                              draw(st.sampled_from(["linear", "log"]))))
    constraints = draw(st.sampled_from([None, ("bias",), ("bias", "deflection"),
                                        ("startup", "rules"), ()]))
    return inputs, SweepSpec(axes=tuple(axes), objective=draw(st.sampled_from(sorted(OBJECTIVES))),
                             constraints=constraints)


@settings(max_examples=60)
@given(data=st.data(), case=optimize_specs())
def test_the_polish_never_loses_to_the_grid_nor_leaves_the_box(design_points, data, case):
    kind, spec = case
    inputs = data.draw(base_inputs(design_points))
    check_polish(inputs, spec, kind)


@settings(max_examples=60)
@given(data=st.data())
def test_the_polish_near_the_bundled_designs(design_points, data):
    inputs, spec = data.draw(design_specs(design_points))
    check_polish(inputs, spec, "near a design")


def check_polish(inputs, spec, kind):
    """The polish never loses to the best grid point, grades no point
    outside the axes, and logs each request once."""
    try:
        result = optimize(inputs, spec)
    except explore.BeamoscError:
        event(f"{kind}: raises")
        return
    assert result.evaluations == len(result.log)
    if not result.feasible:
        event(f"{kind}: infeasible")
        return
    sign = -1.0 if OBJECTIVES[spec.objective][0] == "max" else 1.0
    grid = [sign * e["objective"] for e in result.log if e["phase"] == "grid" and e["feasible"]]
    polished = sign * result.objective_value < min(grid)
    event(f"{kind}: {'polished' if polished else 'grid point kept'}")
    assert sign * result.objective_value <= min(grid)
    for entry in result.log:
        for axis in spec.axes:
            assert axis.minimum <= entry["params"][axis.path] <= axis.maximum
    assert list(result.best_params) == [axis.path for axis in spec.axes]


def brute_force_lp(g, rows, lower, upper):
    """The least g.d over every vertex of the box and rows, with numpy. A
    vertex within 1e-9 of the box is moved onto it, and may exceed a row by
    1e-12 in a.d, the slack of _lp()'s own check: a slack of 1e-9 admits
    a vertex far outside a row of small coefficients."""
    n = len(g)
    planes = [(np.eye(n)[i], b) for i in range(n) for b in (lower[i], upper[i])]
    planes += [(np.array(a), b) for a, b in rows]
    best = math.inf
    for chosen in itertools.combinations(planes, n):
        a = np.array([p[0] for p in chosen])
        if abs(np.linalg.det(a)) < 1e-9:
            continue
        d = np.linalg.solve(a, [p[1] for p in chosen])
        if not (np.all(d >= np.array(lower) - 1e-9) and np.all(d <= np.array(upper) + 1e-9)):
            continue
        d = np.clip(d, lower, upper)
        if all(np.dot(r, d) <= b + 1e-12 for r, b in rows):
            best = min(best, float(np.dot(g, d)))
    return best


coefficient = st.floats(-3.0, 3.0).map(lambda v: round(v, 3))


@st.composite
def programs(draw):
    """Box LPs of 1-4 variables with 0-3 rows, as the polish sets them up:
    the box holds 0 and each row's bound is >= 0."""
    n = draw(st.integers(1, 4))
    g = [draw(coefficient) for _ in range(n)]
    rows = [([draw(coefficient) for _ in range(n)], draw(st.floats(0.0, 2.0)))
            for _ in range(draw(st.integers(0, 3)))]
    lower = [-draw(st.floats(0.0, 2.0)) for _ in range(n)]
    upper = [draw(st.floats(0.0, 2.0)) for _ in range(n)]
    return g, rows, lower, upper


@settings(max_examples=200)
@given(programs())
def test_the_active_set_program_finds_the_least_vertex(program):
    g, rows, lower, upper = program
    solution = explore._lp(g, rows, lower, upper)
    if solution is None:  # a tie the tolerances cannot split
        event("no choice passes")
        return
    d, reduced, prices = solution
    assert all(lo <= x <= hi for lo, x, hi in zip(lower, d, upper))
    assert all(sum(x * y for x, y in zip(a, d)) <= b + 1e-9 for a, b in rows)
    assert all(price >= -1e-12 for price in prices.values())
    value = sum(x * y for x, y in zip(g, d))
    assert value == pytest.approx(brute_force_lp(g, rows, lower, upper), abs=1e-9)
