"""Property tests of the columnar sweep and the streamed row writer.

sweep() evaluates a whole grid in one pass over numpy columns. Every column
must hold, bit for bit, what evaluate() + flatten() give point by point,
and a grid with an invalid point must raise what the scalar path raises
for the first such point. optimize() grades its coarse grid in the same
pass and must return, bit for bit, what grading it point by point gives.
write_rows() must give the bytes of csv.DictWriter and json.dump(indent=2).
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from beamosc import _num
from beamosc.errors import BeamoscError, StageError, ValidationError
from beamosc.explore import (
    COLUMNS,
    CONSTRAINT_NAMES,
    OBJECTIVES,
    PARAMETER_PATHS,
    OptimizeResult,
    SweepAxis,
    SweepSpec,
    _refine,
    evaluate,
    flatten,
    optimize,
    set_parameter,
    sweep,
)
from beamosc.traceio import write_rows

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
    "explore.x_amplitude": (0.0, 1e-6),
}


def test_every_sweepable_path_is_sampled():
    assert set(PATH_RANGES) == set(PARAMETER_PATHS)


@st.composite
def axes(draw, max_steps=4):
    paths = draw(st.lists(st.sampled_from(sorted(PATH_RANGES)), min_size=1, max_size=3))
    out = []
    for path in paths:
        lo, hi = PATH_RANGES[path]
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
        candidate = inputs
        try:
            for axis, grid, i in zip(spec.axes, grids, index):
                candidate = set_parameter(candidate, axis.path, float(grid[i]))
            rows.append(flatten(evaluate(candidate)))
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
@given(data=st.data(), grid_axes=axes())
def test_columns_equal_the_scalar_path_bitwise(design_points, data, grid_axes):
    inputs = data.draw(base_inputs(design_points))
    spec = SweepSpec(axes=grid_axes)
    rows, error = scalar_path(inputs, spec)
    event("a point fails" if error is not None else "every point evaluates")
    if error is not None:
        with pytest.raises(type(error)) as raised:
            sweep(inputs, spec)
        assert str(raised.value) == str(error)
        return
    columns = sweep(inputs, spec)
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
        sweep(inputs, spec)
    assert str(raised.value) == str(error)


def per_point_optimize(inputs, spec):
    """optimize() with its coarse grid graded point by point: set_parameter
    + evaluate for each itertools.product combination, then the same
    refinement."""
    sense, extract = OBJECTIVES[spec.objective]
    sign = -1.0 if sense == "max" else 1.0
    enabled = spec.enabled_constraints
    grids = [axis.values() if axis.steps <= 5 else replace(axis, steps=5).values()
             for axis in spec.axes]
    log, infeasible = [], []
    last_error, best = None, None

    def try_point(phase, params):
        nonlocal last_error, best
        candidate = inputs
        try:
            for path, value in params.items():
                candidate = set_parameter(candidate, path, value)
            point = evaluate(candidate)
        except BeamoscError as err:
            last_error = err
            log.append({"phase": phase, "params": dict(params),
                        "objective": None, "feasible": False})
            return math.inf
        value = extract(point)
        feasible = all(point.constraint(n).ok for n in enabled)
        log.append({"phase": phase, "params": dict(params),
                    "objective": value, "feasible": feasible})
        if not feasible:
            infeasible.append(point)
            return math.inf
        if best is None or sign * value < best[0]:
            best = (sign * value, dict(params), point)
        return sign * value

    for combo in itertools.product(*grids):
        try_point("grid", {axis.path: float(v) for axis, v in zip(spec.axes, combo)})
    if best is None:
        if not infeasible:
            raise last_error
        closest = min(infeasible, key=lambda p: sum(
            c.violation for c in p.constraints if c.name in enabled))
        worst = max((c for c in closest.constraints if c.name in enabled),
                    key=lambda c: c.violation)
        return OptimizeResult(spec.objective, False, None, None, None,
                              len(log), worst.name, tuple(log))
    _refine(spec.axes, grids, best[1], lambda params: try_point("refine", params))
    signed, params, point = best
    return OptimizeResult(spec.objective, True, point, params, sign * signed,
                          len(log), None, tuple(log))


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
    grid_axes = draw(axes(max_steps=8))
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
    if want.best is not None:
        assert_same(flatten(got.best), flatten(want.best), "best")


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
            sweep(self.base(design_points), spec)
        _, error = scalar_path(self.base(design_points), spec)
        assert raised.value.stage == error.stage == "transduction"
        assert str(raised.value) == str(error)
        assert "exceeds beam length" in str(raised.value)

    def test_part_way_replacement_fails_like_set_parameter(self, design_points):
        # A 1.5 um beam is shorter than the base 2 um width until the width
        # axis narrows it: set_parameter rejects the first replacement.
        spec = SweepSpec(axes=(
            SweepAxis("beam.length", 1.5e-6, 100e-6, 2),
            SweepAxis("beam.in_plane_width", 1e-6, 1e-6, 1),
        ))
        with pytest.raises(ValidationError) as raised:
            sweep(self.base(design_points), spec)
        assert not isinstance(raised.value, StageError)
        assert str(raised.value) == "beam length must exceed its in-plane width"

    def test_an_unbiased_point_fails_like_evaluate(self, design_points):
        # eta = 0 divides by zero in the column pass; under the suite's
        # RuntimeWarning filter this also checks that np.errstate holds it.
        spec = SweepSpec(axes=(SweepAxis("transducer.bias_voltage", 0.0, 9.0, 3),))
        _, error = scalar_path(self.base(design_points), spec)
        with pytest.raises(StageError) as raised:
            sweep(self.base(design_points), spec)
        assert str(raised.value) == str(error)
        assert raised.value.stage == "transduction"

    def test_nonlinear_pull_in_names_its_stage(self, design_points):
        inputs = replace(self.base(design_points), deflection_mode="nonlinear")
        spec = SweepSpec(axes=(SweepAxis("transducer.bias_voltage", 5.0, 30.0, 6),))
        _, error = scalar_path(inputs, spec)
        with pytest.raises(StageError) as raised:
            sweep(inputs, spec)
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


@st.composite
def tables(draw):
    names = draw(st.lists(st.text(alphabet='ab,"%é ', min_size=1, max_size=4),
                          min_size=1, max_size=4, unique=True))
    n = draw(st.integers(1, 6))
    return {name: draw(st.lists(cells, min_size=n, max_size=n)) for name in names}


def reference_bytes(columns: dict) -> tuple[str, str]:
    names = list(columns)
    rows = [dict(zip(names, values)) for values in zip(*columns.values())]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=names, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: ("" if v is None else v) for k, v in row.items()})
    return buf.getvalue(), json.dumps(rows, indent=2) + "\n"


@settings(max_examples=150)
@given(columns=tables())
def test_rows_writer_matches_dictwriter_and_json(tmp_path_factory, columns):
    out = tmp_path_factory.mktemp("rows")
    write_rows(columns, csv_path=out / "t.csv", json_path=out / "t.json")
    want_csv, want_json = reference_bytes(columns)
    assert (out / "t.csv").read_bytes() == want_csv.encode()
    assert (out / "t.json").read_bytes() == want_json.encode()


@settings(max_examples=60)
@given(n=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
def test_rows_writer_on_numpy_columns(tmp_path_factory, n, seed):
    rng = np.random.default_rng(seed)
    columns = {
        "x": rng.uniform(-1, 1, n) * 10.0 ** rng.integers(-300, 300, n),
        "flag": rng.integers(0, 2, n).astype(bool),
        "count": rng.integers(0, 3, n),
        "kind": np.broadcast_to("one,two", (n,)),
        "none": np.broadcast_to(None, (n,)),
        "same": np.broadcast_to(0.1, (n,)),
    }
    out = tmp_path_factory.mktemp("np")
    write_rows(columns, csv_path=out / "t.csv", json_path=out / "t.json")
    want_csv, want_json = reference_bytes({k: v.tolist() for k, v in columns.items()})
    assert (out / "t.csv").read_text() == want_csv
    assert (out / "t.json").read_text() == want_json


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_rows_writer_refuses_non_finite_values(tmp_path, bad):
    with pytest.raises(ValidationError, match="non-finite"):
        write_rows({"a": [1.0, bad]}, csv_path=tmp_path / "t.csv")
    with pytest.raises(ValidationError, match="non-finite"):
        write_rows({"a": np.array([1.0, bad])}, json_path=tmp_path / "t.json")
    assert not (tmp_path / "t.csv").exists()
    assert not (tmp_path / "t.json").exists()
