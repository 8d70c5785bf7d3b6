"""Property tests of the columnar sweep and the streamed row writer.

sweep() evaluates a whole grid in one pass over numpy columns. Every column
must hold, bit for bit, what evaluate() + flatten() give point by point,
and a grid with an invalid point must raise what the scalar path raises
for the first such point. optimize() grades its coarse grid in the same
pass and must return, bit for bit, what grading it point by point gives.
write_rows() must give the bytes of csv.DictWriter and json.dump(indent=2),
and write_json() those of json.dumps(indent=2) with a row table inside,
whether one process formats every row or a forked child formats half. A
write that fails leaves the file it was to replace as it was.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import tempfile
import weakref
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from beamosc import _num, explore, simulate, traceio
from beamosc.errors import BeamoscError, StageError, ValidationError
from beamosc.explore import (
    COLUMNS,
    CONSTRAINT_NAMES,
    OBJECTIVES,
    PARAMETER_PATHS,
    OptimizeResult,
    SweepAxis,
    SweepSpec,
    evaluate,
    flatten,
    optimize,
    set_parameter,
    sweep,
)
from beamosc.traceio import RowTable, write_json, write_rows
from conftest import join_blocks

# Sampled range of every sweepable path around bundled design 1.
PATH_RANGES = {
    "beam.length": (80e-6, 140e-6),
    "beam.in_plane_width": (1e-6, 3e-6),
    "beam.thickness": (2e-6, 6e-6),
    "beam.q_factor": (1000.0, 8000.0),
    "transducer.gap": (0.8e-6, 2e-6),
    "transducer.electrode_length": (30e-6, 75e-6),
    "transducer.bias_voltage": (1.0, 12.0),
    "pierce.c0": (1e-15, 1e-13),
    "pierce.c1": (0.5e-12, 5e-12),
    "pierce.c2": (0.5e-12, 5e-12),
    "pierce.gm": (1e-6, 1e-3),
    "pierce.target_margin": (1.0, 10.0),
    "materials.youngs_modulus": (30e9, 150e9),
    "materials.density": (1000.0, 8000.0),
    "explore.alpha_pull_in": (0.5, 1.0),
    "explore.vibration_amplitude": (0.0, 4e-7),
    "transducer.x_amplitude": (0.0, 1e-6),
}


# Wider ranges that fail somewhere: evaluate() raises an overflow (gm) or a
# zero division (c1), or refuses a vibration budget whose deflection
# violation would overflow, or a bias too small to couple the beam.
FAULT_RANGES = {
    "pierce.gm": (1e-6, 1e300),
    "pierce.c1": (1e-320, 5e-12),
    "explore.vibration_amplitude": (1e303, 1e308),
    "transducer.bias_voltage": (5e-324, 12.0),
}


def test_every_sweepable_path_is_sampled():
    assert set(PATH_RANGES) == set(PARAMETER_PATHS)


def test_an_overflowing_vibration_budget_is_a_failed_check_not_a_fault(design_points):
    # The column pass flags the point whose deflection violation would
    # overflow, which evaluate() refuses by name, and vouches for the other.
    inputs = design_points[1].inputs
    axis = SweepAxis("explore.vibration_amplitude", 0.0, 1e308, 2)
    [(_, values, vouched)] = explore._grid_blocks(inputs, (axis,), [axis.values()],
                                                  lambda point: [point.x_static])
    assert values is not None
    assert vouched.tolist() == [True, False]
    with pytest.raises(StageError, match="^transduction: vibration_amplitude 1e\\+308 m"):
        evaluate(replace(inputs, vibration_amplitude=1e308))


def test_a_tiny_bias_is_a_failed_check_not_a_fault(design_points):
    # 1e-300 V underflows eta^2 and 3e-150 V overflows Lx/Cx: the pass flags
    # both, which evaluate() refuses by naming the bias, and vouches for 9 V.
    inputs = design_points[1].inputs
    axis = SweepAxis("transducer.bias_voltage", 1e-300, 9.0, 3, "log")
    [(_, values, vouched)] = explore._grid_blocks(inputs, (axis,), [axis.values()],
                                                  lambda point: [point.circuit.r_x])
    assert values is not None
    assert vouched.tolist() == [False, False, True]
    for bias in axis.values()[:2].tolist():
        with pytest.raises(StageError, match=f"^transduction: bias_voltage {bias!r} V is too small"):
            evaluate(set_parameter(inputs, {"transducer.bias_voltage": bias}))


@st.composite
def axes(draw, max_steps=4, faults=False):
    paths = draw(st.lists(st.sampled_from(sorted(PATH_RANGES)), min_size=1, max_size=3,
                          unique=True))
    out = []
    for path in paths:
        lo, hi = PATH_RANGES[path]
        if faults and path in FAULT_RANGES and draw(st.booleans()):
            lo, hi = FAULT_RANGES[path]
        a = draw(st.floats(lo, hi))
        b = draw(st.floats(a, hi))
        scale = draw(st.sampled_from(["linear", "log"])) if a > 0 else "linear"
        out.append(SweepAxis(path, a, b, draw(st.integers(1, max_steps)), scale))
    return tuple(out)


@st.composite
def base_inputs(draw, design_points):
    inputs = design_points[draw(st.sampled_from([1, 2, 3]))].inputs
    transducer = replace(inputs.transducer,
                         port=draw(st.sampled_from(["one_port", "two_port"])),
                         electrode_length=30e-6)
    beam = replace(inputs.beam, anchor=draw(st.sampled_from(["cantilever",
                                                             "clamped_clamped"])))
    return replace(
        inputs, beam=beam, transducer=transducer,
        gm=draw(st.sampled_from([None, inputs.gm])),
        x_amplitude=draw(st.sampled_from([None, inputs.x_amplitude])),
        deflection_mode=draw(st.sampled_from(["linearized", "nonlinear"])),
    )


def scalar_path(inputs, spec):
    """evaluate() + flatten() point by point, in grid order; the error of
    the first point that fails, if any."""
    rows = []
    grids = [axis.values() for axis in spec.axes]
    for index in np.ndindex(*(len(g) for g in grids)):
        params = {axis.path: float(grid[i]) for axis, grid, i in zip(spec.axes, grids, index)}
        try:
            rows.append(flatten(evaluate(set_parameter(inputs, params))))
        except BeamoscError as err:
            return rows, err
    return rows, None


def same(a, b) -> bool:
    """Equal values of the same type; floats compared by their bits."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return a.hex() == b.hex() or (math.isnan(a) and math.isnan(b))
    return a == b


@settings(max_examples=80)
@given(data=st.data(), grid_axes=axes(faults=True))
def test_columns_equal_the_scalar_path_bitwise(design_points, data, grid_axes):
    inputs = data.draw(base_inputs(design_points))
    spec = SweepSpec(axes=grid_axes)
    rows, error = scalar_path(inputs, spec)
    event("a point fails" if error is not None else "every point evaluates")
    if error is not None:
        with pytest.raises(type(error)) as raised:
            join_blocks(sweep(inputs, spec))
        assert str(raised.value) == str(error)
        return
    columns = join_blocks(sweep(inputs, spec))
    assert list(columns) == [name for name, _ in COLUMNS]
    for name, column in columns.items():
        values = column.tolist()
        assert len(values) == len(rows)
        for i, row in enumerate(rows):
            assert same(values[i], row[name]), (name, i, values[i], row[name])


finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e100, max_value=1e100)
anything = st.floats(allow_nan=True, allow_infinity=True)


@given(st.lists(finite, min_size=1, max_size=50), st.integers(0, 2**32 - 1),
       st.sampled_from([2, 3]))
def test_power_has_the_bits_of_python_pow(values, seed, n):
    # Full-mantissa values too: numpy's ** differs on a few percent of them.
    rng = np.random.default_rng(seed)
    values = values + (rng.uniform(0.1, 10.0, 50) * 10.0 ** rng.integers(-90, 90, 50)).tolist()
    column = _num.power(np.array(values), n)
    assert [v.hex() for v in column.tolist()] == [_num.power(v, n).hex() for v in values]


@given(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=50), st.integers(0, 2**32 - 1))
def test_asin_and_sin_have_the_bits_of_math(values, seed):
    # np.arcsin differs from math.asin on about 8% of uniform values.
    values = values + np.random.default_rng(seed).uniform(-1.0, 1.0, 200).tolist()
    column = np.array(values)
    assert [v.hex() for v in _num.asin(column).tolist()] == [math.asin(v).hex() for v in values]
    assert [v.hex() for v in _num.sin(column).tolist()] == [math.sin(v).hex() for v in values]


@given(st.lists(st.tuples(anything, anything, anything), min_size=1, max_size=20))
def test_max_select_keep_python_order_with_nan(rows):
    a, b, c = (np.array(col) for col in zip(*rows))

    def at(result, i):  # a size-1 column may come back as a float
        return float(np.broadcast_to(result, a.shape)[i])

    for i, (x, y, z) in enumerate(rows):
        assert same(at(_num.fmax(a, b), i), max(x, y))
        assert same(at(_num.select(a > b, a, c), i), x if x > y else z)


@settings(max_examples=40)
@given(data=st.data(), grid_axes=axes(), where=st.integers(0, 3),
       short=st.floats(2e-6, 29e-6))
def test_an_invalid_point_raises_what_the_scalar_path_raises(
        design_points, data, grid_axes, where, short):
    # A beam length below the 30 um electrode, at a random axis position;
    # no other axis moves the beam length or the electrode back.
    inputs = data.draw(base_inputs(design_points))
    others = tuple(a for a in grid_axes
                   if a.path not in ("beam.length", "transducer.electrode_length"))
    spec = SweepSpec(axes=others[:where]
                     + (SweepAxis("beam.length", short, 100e-6, 3),) + others[where:])
    _, error = scalar_path(inputs, spec)
    assert error is not None
    with pytest.raises(type(error)) as raised:
        join_blocks(sweep(inputs, spec))
    assert str(raised.value) == str(error)


def per_point_optimize(inputs, spec):
    """optimize() with every point graded on its own: set_parameter +
    evaluate for each itertools.product combination, then the same polish
    with a grader that evaluates each point it is given, one at a time;
    the refine log and the winner are what the polish returns. A fixed
    axis (minimum == maximum) is one grid step."""
    sense, extract = OBJECTIVES[spec.objective]
    sign = -1.0 if sense == "max" else 1.0
    enabled = spec.enabled_constraints
    read = explore._reader(spec)
    grids = [replace(axis, steps=min(axis.steps, 5) if axis.minimum < axis.maximum else 1)
             .values() for axis in spec.axes]
    log, infeasible = [], []
    last_error, best = None, None

    def try_point(params):
        """The point's read() tuple and DesignPoint, or None and the error."""
        try:
            point = evaluate(set_parameter(inputs, params))
        except BeamoscError as err:
            return None, err
        value = extract(point)
        feasible = all(point.constraint(n).ok for n in enabled)
        reading = read(point)
        assert same(reading[0], value) and reading[1] is feasible
        return reading, point

    def entry(phase, params, reading):
        return {"phase": phase, "params": dict(params),
                "objective": None if reading is None else reading[0],
                "feasible": reading is not None and reading[1]}

    for combo in itertools.product(*grids):
        params = {axis.path: float(v) for axis, v in zip(spec.axes, combo)}
        reading, outcome = try_point(params)  # outcome: the DesignPoint or the error
        log.append(entry("grid", params, reading))
        if reading is None:
            last_error = outcome
        elif not reading[1]:
            infeasible.append(outcome)
        elif best is None or sign * reading[0] < best[0]:
            best = (sign * reading[0], params, reading)
    if best is None:
        if not infeasible:
            raise last_error
        closest = min(infeasible, key=lambda p: sum(
            c.violation for c in p.constraints if c.name in enabled))
        worst = max((c for c in closest.constraints if c.name in enabled),
                    key=lambda c: c.violation)
        return OptimizeResult(spec.objective, False, None, None, None, worst.name, tuple(log))
    params, reading, requested, binding = explore._polish(
        spec, best[1], best[2], lambda points: [try_point(p)[0] for p in points])
    log += [entry("refine", p, r) for p, r in requested]
    return OptimizeResult(spec.objective, True, evaluate(set_parameter(inputs, params)), params,
                          reading[0], None, tuple(log), binding)


def assert_same(a, b, where="result"):
    """Equal trees of dicts, lists and tuples with same() leaves."""
    if isinstance(a, dict):
        assert type(b) is dict and list(a) == list(b), where
        for key in a:
            assert_same(a[key], b[key], f"{where}[{key!r}]")
    elif isinstance(a, (list, tuple)):
        assert type(a) is type(b) and len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same(x, y, f"{where}[{i}]")
    else:
        assert same(a, b), (where, a, b)


@st.composite
def optimize_specs(draw):
    """Grids of up to 8 steps per axis (more than 5 are coarsened), linear
    or log, and one of four kinds: inside the valid region, crossing the
    30 um electrode length, all infeasible, or all failing."""
    kind = draw(st.sampled_from(["inside", "crosses electrode", "infeasible", "fails"]))
    grid_axes = draw(axes(max_steps=8, faults=True))
    constraints = draw(st.one_of(st.none(), st.lists(
        st.sampled_from(CONSTRAINT_NAMES), min_size=1, unique=True).map(tuple)))
    moved = {"crosses electrode": ("beam.length", "transducer.electrode_length"),
             "fails": ("beam.length", "transducer.electrode_length"),
             "infeasible": ("explore.vibration_amplitude",)}.get(kind, ())
    grid_axes = tuple(a for a in grid_axes if a.path not in moved)
    steps = draw(st.integers(1, 8))
    if kind == "crosses electrode":
        extra = SweepAxis("beam.length", draw(st.floats(2e-6, 29e-6)), 100e-6, max(steps, 2))
    elif kind == "fails":
        extra = SweepAxis("beam.length", 5e-6, 25e-6, steps, draw(st.sampled_from(["linear", "log"])))
    elif kind == "infeasible":
        # A vibration budget beyond every displacement limit breaks deflection.
        extra = SweepAxis("explore.vibration_amplitude", 1e-5, 2e-5, steps)
        constraints = tuple(sorted(set(constraints or CONSTRAINT_NAMES) | {"deflection"}))
    else:
        extra = None
    if extra is not None:
        where = draw(st.integers(0, len(grid_axes)))
        grid_axes = grid_axes[:where] + (extra,) + grid_axes[where:]
    return kind, SweepSpec(axes=grid_axes, objective=draw(st.sampled_from(sorted(OBJECTIVES))),
                           constraints=constraints)


@settings(max_examples=100)
@given(data=st.data(), case=optimize_specs())
def test_optimize_equals_the_per_point_grid(design_points, data, case):
    kind, spec = case
    inputs = data.draw(base_inputs(design_points))
    try:
        want = per_point_optimize(inputs, spec)
    except Exception as err:  # noqa: BLE001 - optimize must raise the same
        event(f"{kind}: raises")
        with pytest.raises(type(err)) as raised:
            optimize(inputs, spec)
        assert str(raised.value) == str(err)
        assert getattr(raised.value, "stage", None) == getattr(err, "stage", None)
        return
    event(f"{kind}: {'feasible' if want.feasible else 'infeasible'}")
    got = optimize(inputs, spec)
    assert got.evaluations == want.evaluations == len(got.log)
    assert_same(list(got.log), list(want.log), "log")
    assert got.feasible is want.feasible
    assert got.most_violated == want.most_violated
    assert_same(got.best_params, want.best_params, "best_params")
    assert same(got.objective_value, want.objective_value) or (
        got.objective_value is want.objective_value is None)
    assert_same(got.binding, want.binding, "binding")
    if want.best is not None:
        assert_same(flatten(got.best), flatten(want.best), "best")


@settings(max_examples=100)
@given(data=st.data(), case=optimize_specs(), block=st.sampled_from([7, explore.SWEEP_BLOCK]))
def test_a_pass_vouches_for_exactly_the_points_evaluate_passes(design_points, data, case,
                                                                 block):
    # optimize() logs a point its column pass flags as failed without
    # evaluating it, and sweep() raises at the first one: in a pass that
    # does not fault, evaluate() must fail every flagged point and pass
    # every other. Grids coarsened as optimize() coarsens them.
    kind, spec = case
    inputs = data.draw(base_inputs(design_points))
    grids = [replace(axis, steps=min(axis.steps, 5)).values() for axis in spec.axes]
    with mock.patch.object(explore, "SWEEP_BLOCK", block):
        passes = list(explore._grid_blocks(inputs, spec.axes, grids, explore._reader(spec)))
    for params, values, vouched in passes:
        if values is None:
            event(f"{kind}: a pass faults")
            continue
        event(f"{kind}: {'flags a point' if not vouched.all() else 'vouches for all'}")
        for i, ok in enumerate(vouched.tolist()):
            candidate = traceio._row(params, i)
            if ok:
                evaluate(set_parameter(inputs, candidate))
            else:
                with pytest.raises(BeamoscError):
                    evaluate(set_parameter(inputs, candidate))


def optimize_outcome(inputs, spec):
    """optimize()'s result, or the type, text and stage of what it raises."""
    try:
        return optimize(inputs, spec)
    except BeamoscError as err:
        return type(err), str(err), getattr(err, "stage", None)


@settings(max_examples=60)
@given(data=st.data(), case=optimize_specs(), block=st.integers(1, 7))
def test_optimize_does_not_depend_on_the_block_size(design_points, data, case, block):
    # Grids of up to 8^3 coarsened to 5^3 points: blocks of 1-7 points cut
    # them anywhere, a faulting or failing block among them.
    kind, spec = case
    inputs = data.draw(base_inputs(design_points))
    want = optimize_outcome(inputs, spec)
    with mock.patch.object(explore, "SWEEP_BLOCK", block):
        got = optimize_outcome(inputs, spec)
    if not isinstance(want, OptimizeResult):
        event(f"{kind}: raises")
        assert got == want
        return
    event(f"{kind}: {'feasible' if want.feasible else 'infeasible'}")
    assert got.evaluations == want.evaluations
    assert_same(list(got.log), list(want.log), "log")
    assert got.feasible is want.feasible
    assert got.most_violated == want.most_violated
    assert_same(got.best_params, want.best_params, "best_params")
    assert same(got.objective_value, want.objective_value)


class TestInvalidPoints:
    def base(self, design_points):
        return replace(design_points[1].inputs,
                       transducer=replace(design_points[1].inputs.transducer,
                                          electrode_length=45e-6))

    def test_electrode_longer_than_one_beam_length(self, design_points):
        spec = SweepSpec(axes=(
            SweepAxis("transducer.bias_voltage", 5.0, 9.0, 3),
            SweepAxis("beam.length", 40e-6, 100e-6, 4),
        ))
        with pytest.raises(StageError) as raised:
            join_blocks(sweep(self.base(design_points), spec))
        _, error = scalar_path(self.base(design_points), spec)
        assert raised.value.stage == error.stage == "transduction"
        assert str(raised.value) == str(error)
        assert "exceeds beam length" in str(raised.value)

    def test_a_grid_point_is_one_design_in_either_axis_order(self, design_points):
        # A 1.5 um beam is shorter than the base 2 um width, and valid with
        # the 1 um width of the same grid point, whichever axis comes first.
        inputs = replace(design_points[1].inputs,
                         transducer=replace(design_points[1].inputs.transducer,
                                            electrode_length=1e-6))
        want = [flatten(evaluate(replace(inputs, beam=replace(inputs.beam, L=length, H=1e-6))))
                for length in (1.5e-6, 100e-6)]
        length = SweepAxis("beam.length", 1.5e-6, 100e-6, 2)
        width = SweepAxis("beam.in_plane_width", 1e-6, 1e-6, 1)
        for axes in ((length, width), (width, length)):
            columns = join_blocks(sweep(inputs, SweepSpec(axes=axes)))
            for name, column in columns.items():
                got = column.tolist()
                assert all(same(got[i], row[name]) for i, row in enumerate(want)), name
            log = list(optimize(inputs, SweepSpec(axes=axes)).log)
            assert [entry["objective"] for entry in log[:2]] == [
                row["derived.re_zc_max"] / row["derived.r_x"] for row in want]

    def test_an_unbiased_point_fails_like_evaluate(self, design_points):
        # The pass flags eta = 0 and goes on with eta = 1 there, so it
        # neither divides by zero nor faults; under the suite's
        # RuntimeWarning filter this also checks that np.errstate holds.
        spec = SweepSpec(axes=(SweepAxis("transducer.bias_voltage", 0.0, 9.0, 3),))
        _, error = scalar_path(self.base(design_points), spec)
        with pytest.raises(StageError) as raised:
            join_blocks(sweep(self.base(design_points), spec))
        assert str(raised.value) == str(error)
        assert raised.value.stage == "transduction"

    def test_nonlinear_pull_in_names_its_stage(self, design_points):
        inputs = replace(self.base(design_points), deflection_mode="nonlinear")
        spec = SweepSpec(axes=(SweepAxis("transducer.bias_voltage", 5.0, 30.0, 6),))
        _, error = scalar_path(inputs, spec)
        with pytest.raises(StageError) as raised:
            join_blocks(sweep(inputs, spec))
        assert str(raised.value) == str(error)
        assert raised.value.stage == "transduction"


# ------------------------------------------------------------- row writer

cells = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10**6, 10**6),
    st.sampled_from([1e-05, 0.1, 1e+22, 5e-324, -0.0, 123456.789]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(alphabet='ab,"\' \n\r%{}é', max_size=6),
)


names = st.text(alphabet='ab,"%é ', min_size=1, max_size=4)


@st.composite
def tables(draw, group=False):
    """Columns of lists; with `group`, maybe one column group (0-3 columns)
    at a drawn place among them."""
    n = draw(st.integers(1, 6))
    items = [(name, draw(st.lists(cells, min_size=n, max_size=n)))
             for name in draw(st.lists(names, min_size=1, max_size=4, unique=True))]
    if group and draw(st.booleans()):
        inner = draw(st.lists(names, max_size=3, unique=True))
        key = draw(names.filter(lambda k: k not in dict(items)))
        items.insert(draw(st.integers(0, len(items))),
                     (key, {name: draw(st.lists(cells, min_size=n, max_size=n))
                            for name in inner}))
    return dict(items)


def row_objects(columns: dict) -> list[dict]:
    """The JSON rows of a table, a column group nested in each."""
    n = len(next(c for c in columns.values() if not isinstance(c, dict)))

    def row(cols, i):
        return {k: row(c, i) if isinstance(c, dict) else c[i] for k, c in cols.items()}
    return [row(columns, i) for i in range(n)]


@st.composite
def documents(draw):
    """(document, reference, columns): a RowTable of `columns` at depth 1-2
    inside a JSON document, in a list or under a key among other values,
    and the same document holding the table's row objects instead."""
    columns = draw(tables(group=True))
    doc, ref = RowTable([columns]), row_objects(columns)
    for _ in range(draw(st.integers(1, 2))):
        siblings = list(draw(st.dictionaries(names, cells, max_size=3)).items())
        at = draw(st.integers(0, len(siblings)))
        if draw(st.booleans()):
            values = [v for _, v in siblings]
            doc, ref = (values[:at] + [doc] + values[at:], values[:at] + [ref] + values[at:])
        else:
            key = draw(names.filter(lambda k: k not in dict(siblings)))
            doc, ref = (dict(siblings[:at] + [(key, doc)] + siblings[at:]),
                        dict(siblings[:at] + [(key, ref)] + siblings[at:]))
    return doc, ref, columns


def reference_bytes(columns: dict) -> tuple[str, str]:
    names = list(columns)
    rows = [dict(zip(names, values)) for values in zip(*columns.values())]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=names, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: ("" if v is None else v) for k, v in row.items()})
    return buf.getvalue(), json.dumps(rows, indent=2) + "\n"


def blocks_of(columns: dict, cuts: list[int]) -> list[dict]:
    """write_rows() blocks: `columns` cut before each row index in `cuts`."""
    n = len(next(c for c in columns.values() if not isinstance(c, dict)))
    bounds = sorted({0, n} | {cut for cut in cuts if 0 < cut < n})

    def part(cols, a, b):
        return {k: part(c, a, b) if isinstance(c, dict) else c[a:b] for k, c in cols.items()}
    return [part(columns, a, b) for a, b in zip(bounds, bounds[1:])]


cut_lists = st.lists(st.integers(1, 8), max_size=3)


@settings(max_examples=150)
@given(columns=tables(), cuts=cut_lists)
# A str, bool or None among the values sends floats down the object path,
# which formats each distinct (type, value) once: 0.0 and -0.0 must keep
# their own text, and True, 1 and 1.0 theirs.
@example(columns={"z": [0.0, -0.0, None, -0.0, 1.0, True, 1, False, 0]}, cuts=[])
@example(columns={"z": [0.0, -0.0, None, -0.0, 1.0, True, 1, False, 0]}, cuts=[2, 5])
def test_rows_writer_matches_dictwriter_and_json(tmp_path_factory, columns, cuts):
    out = tmp_path_factory.mktemp("rows")
    write_rows(blocks_of(columns, cuts), csv_path=out / "t.csv", json_path=out / "t.json")
    want_csv, want_json = reference_bytes(columns)
    assert (out / "t.csv").read_bytes() == want_csv.encode()
    assert (out / "t.json").read_bytes() == want_json.encode()


@settings(max_examples=60)
@given(n=st.integers(1, 30), seed=st.integers(0, 2**32 - 1), cuts=cut_lists,
       row_block=st.integers(1, 7))
def test_rows_writer_on_numpy_columns(tmp_path_factory, n, seed, cuts, row_block):
    rng = np.random.default_rng(seed)
    rows = np.arange(n)
    columns = {
        "x": rng.uniform(-1, 1, n) * 10.0 ** rng.integers(-300, 300, n),
        # Repeats within and across blocks; 0.0 and -0.0 keep their own text.
        "repeats": rng.choice([0.0, -0.0, 0.1, 5e-324], n),
        # Repeats nothing in its first chunk, then one value over and over.
        "late": np.where(rows < row_block, rows * 0.1, -0.0),
        # Distinct within a chunk, the same values in every chunk.
        "cycle": rows % row_block * 0.1,
        "flag": rng.integers(0, 2, n).astype(bool),
        "count": rng.integers(0, 3, n),
        "kind": np.broadcast_to("one,two", (n,)),
        "none": np.broadcast_to(None, (n,)),
        "same": np.broadcast_to(0.1, (n,)),
    }
    out = tmp_path_factory.mktemp("np")
    with mock.patch.object(traceio, "ROW_BLOCK", row_block):
        write_rows(blocks_of(columns, cuts), csv_path=out / "t.csv", json_path=out / "t.json")
    want_csv, want_json = reference_bytes({k: v.tolist() for k, v in columns.items()})
    assert (out / "t.csv").read_text() == want_csv
    assert (out / "t.json").read_text() == want_json


@settings(max_examples=150)
@given(case=documents(), cuts=cut_lists)
def test_json_writer_matches_json_dumps(tmp_path_factory, case, cuts):
    doc, ref, columns = case
    out = tmp_path_factory.mktemp("doc")
    write_json(doc, out / "d.json")
    assert (out / "d.json").read_bytes() == (json.dumps(ref, indent=2) + "\n").encode()
    write_rows(blocks_of(columns, cuts), json_path=out / "t.json")
    want = json.dumps(row_objects(columns), indent=2) + "\n"
    assert (out / "t.json").read_bytes() == want.encode()


@settings(max_examples=60)
@given(case=documents(), data=st.data(), bad=st.sampled_from([math.nan, math.inf, -math.inf]))
def test_json_writer_refuses_a_non_finite_cell_anywhere(tmp_path_factory, case, data, bad):
    doc, _, columns = case
    leaves = [c for c in columns.values() if not isinstance(c, dict)] + [
        c for group in columns.values() if isinstance(group, dict) for c in group.values()]
    if data.draw(st.booleans()):
        column = data.draw(st.sampled_from(leaves))
        column[data.draw(st.integers(0, len(column) - 1))] = bad
    else:
        doc = {"before": bad, "doc": doc}
    path = tmp_path_factory.mktemp("bad") / "d.json"
    with pytest.raises(ValidationError, match="non-finite"):
        write_json(doc, path)
    assert not path.exists()


def test_json_writer_mark_shows_only_where_a_table_is(tmp_path):
    # write_json() marks a RowTable's place with the string "\0"; a document
    # holding no table is written whatever its strings, and one that holds
    # a table and the mark as a string is refused, not written wrongly.
    doc = {"\0": "\0", "list": ["\0"]}
    write_json(doc, tmp_path / "plain.json")
    assert (tmp_path / "plain.json").read_text() == json.dumps(doc, indent=2) + "\n"
    with pytest.raises(ValueError, match="mark"):
        write_json({"text": "\0", "rows": RowTable([{"a": [1]}])}, tmp_path / "t.json")
    assert not (tmp_path / "t.json").exists()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_rows_writer_refuses_non_finite_values(tmp_path, bad):
    with pytest.raises(ValidationError, match="non-finite"):
        write_rows([{"a": [1.0, bad]}], csv_path=tmp_path / "t.csv")
    with pytest.raises(ValidationError, match="non-finite"):
        write_rows([{"a": np.array([1.0, bad])}], json_path=tmp_path / "t.json")
    assert not (tmp_path / "t.csv").exists()
    assert not (tmp_path / "t.json").exists()
    # A bad later block, after a good one was written: the files in place
    # keep their bytes, and no temporary file is left.
    (tmp_path / "t.csv").write_text("old\n")
    with pytest.raises(ValidationError, match="non-finite"):
        write_rows(iter([{"a": [1.0]}, {"a": [bad]}]), csv_path=tmp_path / "t.csv",
                   json_path=tmp_path / "t.json")
    assert (tmp_path / "t.csv").read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]


def test_a_failed_write_leaves_the_target_as_it_was(tmp_path, monkeypatch):
    # write_json() stopped inside a RowTable, after its first block, and
    # write_trace_svg() stopped by a failing write: each target keeps its
    # old bytes, and no temporary file is left.
    for name in ("d.json", "trace.svg"):
        (tmp_path / name).write_text("old\n")
    write_table = traceio._write_table

    def stopped(blocks, csv_fh, json_fh, indent=""):
        write_table(blocks[:1], csv_fh, json_fh, indent)
        raise RuntimeError("stopped inside the table")

    with mock.patch.object(traceio, "_write_table", stopped), \
            pytest.raises(RuntimeError, match="inside the table"):
        write_json({"log": RowTable(({"a": [1.0, 2.0]}, {"a": [3.0]})), "after": 1},
                   tmp_path / "d.json")

    def failing_open(*args, **kwargs):
        fh = open(*args, **kwargs)
        write = fh.write

        def half_written(text):
            write(text[:len(text) // 2])
            raise OSError(28, "No space left on device")

        fh.write = half_written
        return fh

    monkeypatch.setattr(traceio, "open", failing_open, raising=False)
    with pytest.raises(OSError, match="No space"):
        traceio.write_trace_svg(simulate.Plot(np.arange(5.0), np.sin(np.arange(5.0))),
                                tmp_path / "trace.svg")
    assert {p.name: p.read_text() for p in tmp_path.iterdir()} == {
        "d.json": "old\n", "trace.svg": "old\n"}


# ------------------------------------------------- rows in two processes

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="os.fork() is POSIX only")


@needs_fork
@settings(max_examples=150)
@given(case=documents(), cuts=cut_lists, row_block=st.integers(1, 7),
       split_rows=st.integers(1, 7))
def test_split_blocks_have_the_serial_bytes(tmp_path_factory, case, cuts, row_block,
                                            split_rows):
    doc, _, columns = case
    has_group = any(isinstance(c, dict) for c in columns.values())
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(os.getpid())
        return fork()

    files = {}
    with mock.patch.object(traceio, "ROW_BLOCK", row_block), \
            mock.patch.object(traceio, "SPLIT_ROWS", split_rows), \
            mock.patch("os.fork", counted_fork):
        for cpus in (1, 2):
            out = tmp_path_factory.mktemp("split")
            with mock.patch("os.sched_getaffinity", lambda pid: set(range(cpus)), create=True):
                write_rows(blocks_of(columns, cuts), json_path=out / "t.json",
                           csv_path=None if has_group else out / "t.csv")
                write_json(doc, out / "d.json")
            files[cpus] = {p.name: p.read_bytes() for p in out.iterdir()}
            if cpus == 1:
                assert forks == []
    event(f"{len(forks)} blocks split")
    assert files[2] == files[1]


@needs_fork
@settings(max_examples=60)
@given(n=st.integers(1, 40), cuts=st.lists(st.integers(1, 39), max_size=12),
       row_block=st.integers(1, 7), split_rows=st.integers(1, 4), backlog=st.integers(0, 12),
       width=st.sampled_from([3, 40]))
def test_a_capped_backlog_has_the_serial_bytes(tmp_path_factory, n, cuts, row_block,
                                               split_rows, backlog, width):
    # A child is never seen done while blocks arrive, so they queue up;
    # past the bytes of `backlog` rows this process formats the oldest
    # itself. With a child at work the queued columns hold no more bytes
    # than that, whatever the table's width: a cap counted in rows would
    # let the queue hold `row_bytes` times as many. The bytes are those of
    # one process formatting every row.
    columns = {"t": np.arange(n) * 1e-7, "v": np.sin(np.arange(n)), "step": np.arange(n)}
    columns.update({f"c{i}": np.cos(np.arange(n) + i) for i in range(width - 3)})
    row_bytes = sum(column.itemsize for column in columns.values())
    cap = backlog * row_bytes
    reaped, add, here = traceio._Child.reaped, traceio._Pipeline.add, traceio._Pipeline._here
    calls = {"here": 0, "capped": 0}

    def busy(child, options=0):
        return child.status is not None or not options and reaped(child)

    def counted_here(pipeline):
        calls["here"] += 1
        return here(pipeline)

    def checked_add(pipeline, rows, count, size):
        assert size == count * row_bytes
        before = calls["here"]
        add(pipeline, rows, count, size)
        calls["capped"] += calls["here"] > before
        queued = sum(end - begin for _, begin, end, _ in pipeline.queue) * row_bytes
        assert not pipeline.children or queued <= cap

    with mock.patch.object(traceio, "ROW_BLOCK", row_block), \
            mock.patch.object(traceio, "SPLIT_ROWS", split_rows), \
            mock.patch.object(traceio, "_BACKLOG_BYTES", cap), \
            mock.patch.object(traceio._Child, "reaped", busy), \
            mock.patch.object(traceio._Pipeline, "add", checked_add), \
            mock.patch.object(traceio._Pipeline, "_here", counted_here):
        out = tmp_path_factory.mktemp("capped")
        with mock.patch("os.sched_getaffinity", lambda pid: {0, 1}, create=True):
            write_rows(blocks_of(columns, cuts), csv_path=out / "t.csv",
                       json_path=out / "t.json")
    event("rows formatted past the cap" if calls["capped"] else "the cap not reached")
    want_csv, want_json = reference_bytes({k: v.tolist() for k, v in columns.items()})
    assert (out / "t.csv").read_text() == want_csv
    assert (out / "t.json").read_text() == want_json


@needs_fork
def test_closed_temporary_files_are_dropped_as_the_table_runs(tmp_path, monkeypatch):
    # Every child is seen done when the next block arrives, so each block
    # forks one, twelve in all. A child's two temporary files are closed
    # and let go once its text is copied in: at most three children's are
    # alive at once (one at work, this process's rows, the last child),
    # however many the table forks.
    reaped, fork, temporary = traceio._Child.reaped, os.fork, tempfile.TemporaryFile
    forks, files, alive = [], [], []

    def counted_fork():
        forks.append(os.getpid())
        return fork()

    def counted_temporary(*args, **kwargs):
        fh = temporary(*args, **kwargs)
        files.append(weakref.ref(fh))
        alive.append(sum(ref() is not None for ref in files))
        return fh

    monkeypatch.setattr(traceio, "ROW_BLOCK", 2)
    monkeypatch.setattr(traceio, "SPLIT_ROWS", 4)
    monkeypatch.setattr(traceio._Child, "reaped", lambda child, options=0: reaped(child))
    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(tempfile, "TemporaryFile", counted_temporary)
    columns = {"t": np.arange(48) / 7.0, "step": np.arange(48)}
    write_rows(blocks_of(columns, list(range(4, 48, 4))), csv_path=tmp_path / "t.csv",
               json_path=tmp_path / "t.json")
    want_csv, want_json = reference_bytes({k: v.tolist() for k, v in columns.items()})
    assert (tmp_path / "t.csv").read_text() == want_csv
    assert (tmp_path / "t.json").read_text() == want_json
    assert len(forks) == 12
    assert max(alive) <= 6


@needs_fork
@pytest.mark.parametrize("fails_in", ["child", "parent"])
def test_a_failed_half_writes_nothing_and_leaves_no_process(tmp_path, monkeypatch, capfd,
                                                             fails_in):
    parent = os.getpid()
    float_texts = traceio._float_texts

    def texts(column, known):
        if (os.getpid() != parent) == (fails_in == "child"):
            raise RuntimeError(f"formatting failed in the {fails_in}")
        return float_texts(column, known)

    monkeypatch.setattr(traceio, "_float_texts", texts)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    (tmp_path / "t.csv").write_text("old\n")
    n = traceio.SPLIT_ROWS
    with pytest.raises(OSError if fails_in == "child" else RuntimeError):
        write_rows([{"t": np.arange(n) / 7.0}], csv_path=tmp_path / "t.csv",
                   json_path=tmp_path / "t.json")
    assert (tmp_path / "t.csv").read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("host", ["one usable CPU", "no os.fork", "no os.sched_getaffinity"])
def test_a_serial_host_writes_a_long_block_without_forking(tmp_path, monkeypatch, host):
    def fork():
        raise AssertionError("os.fork() called")

    monkeypatch.setattr(os, "fork", fork, raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    if host == "one usable CPU":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    elif host == "no os.fork":
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.delattr(os, "sched_getaffinity")
    n = traceio.SPLIT_ROWS
    columns = {"t": np.arange(n) * 1e-7, "v": np.sin(np.arange(n)), "step": np.arange(n)}
    write_rows([columns], csv_path=tmp_path / "t.csv", json_path=tmp_path / "t.json")
    want_csv, want_json = reference_bytes({k: v.tolist() for k, v in columns.items()})
    assert (tmp_path / "t.csv").read_text() == want_csv
    assert (tmp_path / "t.json").read_text() == want_json
