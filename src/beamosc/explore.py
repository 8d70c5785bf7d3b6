"""Design evaluation pipeline, parameter sweeps, and optimization.

evaluate() runs one candidate through process -> mechanics -> transduction ->
amplifier sizing and grades it against four feasibility constraints:

  bias        V_P <= alpha * V_pi (stay clear of pull-in, alpha = 0.97)
  deflection  static deflection + vibration allowance <= displacement limit
  startup     |Re(Z_C)| / R_x >= target margin (3x by default)
  rules       release-etch manufacturability rules hold

The pipeline is written once, in _chain(). evaluate() runs it on Python
floats for one design; _grid_blocks() runs it on numpy columns, one pass
per block of SWEEP_BLOCK grid points, with the same bits in every output,
so its memory is set by the block, not the grid. sweep() yields the blocks,
infeasible points flagged rather than dropped. optimize() grades its coarse
grid through the same blocks and refines the best cell with a
derivative-free simplex search, point by point, that rejects constraint
violations; every request is graded where it is made, and the result is
never worse than the best grid point.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from ._num import float_errors, fmax, select
from .errors import (
    RAISE,
    BeamoscError,
    GridCapError,
    StageError,
    ValidationError,
    build,
    checks,
    rebuild,
)
from .mechanics import BeamGeometry, LumpedBeamModel
from .pierce import (
    PierceConfig,
    StartupReport,
    _gm_roots,
    max_negative_resistance,
    negative_resistance,
    startup_check,
)
from .process import (
    DEFAULT_DENSITY,
    DEFAULT_YOUNGS_MODULUS,
    MemsRuleSet,
    rule_checks,
)
from .transduction import (
    EquivalentCircuit,
    Transducer,
    coupling_coefficient,
    displacement_limit,
    electrode_capacitance,
    extract_circuit,
    motional_current,
    pull_in_voltage,
    static_deflection,
)

_SLACK = 1e-9  # relative slack on constraint boundaries


@dataclass(frozen=True)
class DesignInputs:
    """Everything needed to evaluate one resonator/oscillator candidate.

    The beam and its electrode are cut from the same interconnect stack, so
    the electrode height is the beam stack thickness beam.W and the
    electrode area is transducer.electrode_length * beam.W. youngs_modulus
    and density are the effective laminate constants.

    gm = None sizes the amplifier automatically: the smallest
    transconductance that reaches target_margin, falling back to the
    |Re(Z_C)| peak when the margin is out of reach. x_amplitude is the
    assumed operating vibration amplitude (used only to report motional
    current); vibration_amplitude is the amplitude budget enforced by the
    deflection constraint, defaulting to the remaining headroom.
    """

    beam: BeamGeometry
    transducer: Transducer
    q_factor: float
    c1: float = 2e-12
    c2: float = 2e-12
    c0: float = 10e-15
    gm: float | None = None
    target_margin: float = 3.0
    alpha_pull_in: float = 0.97
    vibration_amplitude: float | None = None
    x_amplitude: float | None = None
    mass_model: str = "full"
    deflection_mode: str = "linearized"
    rules: MemsRuleSet = MemsRuleSet()
    youngs_modulus: float = DEFAULT_YOUNGS_MODULUS
    density: float = DEFAULT_DENSITY

    def __post_init__(self, check=RAISE):
        q = self.q_factor
        check((q != q) | (q <= 0), "q_factor must be > 0")
        c1, c2, c0 = self.c1, self.c2, self.c0
        check((c1 != c1) | (c2 != c2) | (c0 != c0) | (c1 <= 0) | (c2 <= 0) | (c0 <= 0),
              "c1, c2 and c0 must all be > 0")
        gm = self.gm
        if gm is not None:
            check((gm != gm) | (gm < 0), "gm must be >= 0 (or None for automatic sizing)")
        margin = self.target_margin
        check((margin != margin) | (margin <= 0), "target_margin must be > 0")
        alpha = self.alpha_pull_in
        check((alpha != alpha) | (alpha <= 0) | (alpha > 1), "alpha_pull_in must be in (0, 1]")
        vib, x_amp = self.vibration_amplitude, self.x_amplitude
        if vib is not None:
            check((vib != vib) | (vib < 0), "vibration_amplitude must be >= 0")
        if x_amp is not None:
            check((x_amp != x_amp) | (x_amp < 0), "x_amplitude must be >= 0")


@dataclass(frozen=True)
class ConstraintCheck:
    """One graded constraint: measured value vs limit plus a violation size.

    violation is 0 when satisfied, otherwise the normalized amount by which
    the limit is exceeded (used to rank infeasible candidates).
    """

    name: str
    ok: bool
    measured: float
    limit: float
    violation: float


CONSTRAINT_NAMES = ("bias", "deflection", "startup", "rules")


@dataclass(frozen=True)
class DesignPoint:
    """Fully evaluated candidate: resolved parts, derived figures, verdict."""

    inputs: DesignInputs
    model: LumpedBeamModel
    eta: float
    c_static: float
    v_pull_in: float
    x_static: float
    x_limit: float
    circuit: EquivalentCircuit
    i_x: float | None
    re_max: float
    gm_opt: float
    amplifier: PierceConfig
    re_zc: float
    startup: StartupReport
    rule_violation_count: int
    constraints: tuple[ConstraintCheck, ...]
    feasible: bool

    def constraint(self, name: str) -> ConstraintCheck:
        for check in self.constraints:
            if check.name == name:
                return check
        raise KeyError(name)


def _chain(inputs: DesignInputs, check) -> DesignPoint:
    """The evaluation pipeline, on one design or on a whole grid.

    `check` runs every precondition, including those of each part built.
    errors.checks() raises at the first broken one; _Masks records a
    failure mask per stage and goes on, so `inputs` and the parts may hold
    numpy columns. check.stage names the stage running.
    """
    check.stage = "process"
    beam, youngs_modulus, density = inputs.beam, inputs.youngs_modulus, inputs.density
    check((youngs_modulus != youngs_modulus) | (density != density)
          | (youngs_modulus <= 0) | (density <= 0), "laminate properties must all be > 0")

    check.stage = "mechanics"
    model = LumpedBeamModel.from_geometry(
        beam, youngs_modulus, density, inputs.q_factor, inputs.mass_model, check)

    check.stage = "transduction"
    tr = inputs.transducer
    check(tr.electrode_length > beam.L * (1.0 + _SLACK),
          "electrode_length {:.6g} m exceeds beam length {:.6g} m",
          tr.electrode_length, beam.L)
    area = tr.electrode_length * beam.W
    eta = coupling_coefficient(tr, area)
    v_pi = pull_in_voltage(model.k, tr.gap, area, check)
    x_static = static_deflection(model.k, tr, eta, v_pi, inputs.deflection_mode, check)
    x_limit = displacement_limit(tr)
    # The bias violation, bias_voltage / bias_limit - 1, must be finite, as
    # must the deflection violation below; a flagged column point gets a
    # harmless value instead, so the pass does not fault.
    bias_limit = inputs.alpha_pull_in * v_pi
    overflows = tr.bias_voltage / 2.0**1023 >= bias_limit
    check(overflows, "alpha_pull_in {:.6g} overflows the bias constraint against "
          "V_pi {:.6g} V", inputs.alpha_pull_in, v_pi)
    bias_limit = select(overflows, 1.0, bias_limit)
    allowance = inputs.vibration_amplitude
    if allowance is not None:
        overflows = (x_static + allowance) / 2.0**1023 >= x_limit
        check(overflows, "vibration_amplitude {:.6g} m overflows the deflection constraint "
              "against x_limit {:.6g} m", allowance, x_limit)
        allowance = select(overflows, 0.0, allowance)
    circuit = extract_circuit(model.k, model.m, model.q, eta, check)
    i_x = None
    if inputs.x_amplitude is not None:
        i_x = motional_current(eta, circuit.f0, inputs.x_amplitude, check)

    check.stage = "pierce"
    c1, c2, c0 = inputs.c1, inputs.c2, inputs.c0
    opt = max_negative_resistance(c1, c2, c0, circuit.f0, check)
    gm = inputs.gm
    if gm is None:
        reachable, _, gm_low, _ = _gm_roots(
            c1, c2, c0, circuit.f0, inputs.target_margin * circuit.r_x, check)
        gm = select(reachable, gm_low, opt.gm_opt)
    amplifier = build(PierceConfig, check, c1=c1, c2=c2, c0=c0, gm=gm, f0=circuit.f0)
    re_zc = negative_resistance(amplifier)
    startup = startup_check(re_zc, circuit.r_x, check)

    check.stage = "rules"
    rules = rule_checks(tr.gap, beam.H, beam.W, inputs.rules)

    if allowance is None:
        allowance = fmax(0.0, x_limit - x_static)
    deflection = x_static + allowance
    # The first largest relative miss among the broken rules, 0 if none is.
    n_broken, rules_violation = 0, 0.0
    for _, broken, measured, limit in rules:
        miss = abs(measured - limit) / limit
        rules_violation = select(broken & ((n_broken == 0) | (miss > rules_violation)),
                                 miss, rules_violation)
        n_broken = n_broken + broken
    target = inputs.target_margin
    bias_ok = tr.bias_voltage <= bias_limit * (1.0 + _SLACK)
    deflection_ok = deflection <= x_limit * (1.0 + _SLACK)
    startup_ok = startup.margin >= target * (1.0 - _SLACK)
    rules_ok = n_broken == 0
    constraints = (
        build(ConstraintCheck, check, name="bias", ok=bias_ok,
                   measured=tr.bias_voltage, limit=bias_limit,
                   violation=fmax(0.0, tr.bias_voltage / bias_limit - 1.0)),
        build(ConstraintCheck, check, name="deflection", ok=deflection_ok,
                   measured=deflection, limit=x_limit,
                   violation=fmax(0.0, deflection / x_limit - 1.0)),
        build(ConstraintCheck, check, name="startup", ok=startup_ok,
                   measured=startup.margin, limit=target,
                   violation=fmax(0.0, 1.0 - startup.margin / target)),
        build(ConstraintCheck, check, name="rules", ok=rules_ok,
                   measured=n_broken + 0.0, limit=0.0, violation=rules_violation),
    )
    return build(
        DesignPoint, check,
        inputs=inputs,
        model=model,
        eta=eta,
        c_static=electrode_capacitance(tr, area),
        v_pull_in=v_pi,
        x_static=x_static,
        x_limit=x_limit,
        circuit=circuit,
        i_x=i_x,
        re_max=opt.re_max,
        gm_opt=opt.gm_opt,
        amplifier=amplifier,
        re_zc=re_zc,
        startup=startup,
        rule_violation_count=n_broken,
        constraints=constraints,
        feasible=bias_ok & deflection_ok & startup_ok & rules_ok,
    )


class _Masks:
    """Check collector for columns: a failure mask per stage (see
    errors.checks() for the interface)."""

    def __init__(self):
        self.stage = None
        self.failed: dict[str, object] = {}

    def __call__(self, bad, message, *args, error=ValidationError):
        self.failed[self.stage] = self.failed.get(self.stage, False) | bad


def evaluate(inputs: DesignInputs) -> DesignPoint:
    """Run the full pipeline on one candidate.

    Any validation, physics or arithmetic error (an overflow, say) is raised
    as a StageError naming the pipeline stage that rejected the candidate.
    """
    check = checks()
    try:
        return _chain(inputs, check)
    except (BeamoscError, ArithmeticError) as err:
        raise StageError(check.stage, err) from err


# Output columns of analyze/optimize payloads and of sweep.csv/sweep.json,
# in order: name and how to read it from a DesignPoint.
COLUMNS = tuple((name, operator.attrgetter(path)) for name, path in (
    ("beam.anchor", "inputs.beam.anchor"),
    ("beam.length", "inputs.beam.L"),
    ("beam.in_plane_width", "inputs.beam.H"),
    ("beam.thickness", "inputs.beam.W"),
    ("beam.q_factor", "inputs.q_factor"),
    ("laminate.youngs_modulus", "inputs.youngs_modulus"),
    ("laminate.density", "inputs.density"),
    ("transducer.gap", "inputs.transducer.gap"),
    ("transducer.electrode_length", "inputs.transducer.electrode_length"),
    ("transducer.bias_voltage", "inputs.transducer.bias_voltage"),
    ("transducer.port", "inputs.transducer.port"),
    ("pierce.c1", "inputs.c1"),
    ("pierce.c2", "inputs.c2"),
    ("pierce.c0", "inputs.c0"),
    ("derived.spring_constant", "model.k"),
    ("derived.mass", "model.m"),
    ("derived.f0", "model.f0"),
    ("derived.v_pull_in", "v_pull_in"),
    ("derived.x_static", "x_static"),
    ("derived.x_limit", "x_limit"),
    ("derived.eta", "eta"),
    ("derived.c_static", "c_static"),
    ("derived.r_x", "circuit.r_x"),
    ("derived.l_x", "circuit.l_x"),
    ("derived.c_x", "circuit.c_x"),
    ("derived.i_x", "i_x"),
    ("derived.re_zc", "re_zc"),
    ("derived.re_zc_max", "re_max"),
    ("derived.gm_opt", "gm_opt"),
    ("derived.gm", "amplifier.gm"),
    ("derived.startup_margin", "startup.margin"),
    ("derived.oscillates", "startup.oscillates"),
    ("derived.meets_3x", "startup.meets_3x"),
)) + tuple(
    (f"constraint.{name}_ok", lambda p, name=name: p.constraint(name).ok)
    for name in CONSTRAINT_NAMES
) + (
    ("rule_violation_count", operator.attrgetter("rule_violation_count")),
    ("feasible", operator.attrgetter("feasible")),
)


def flatten(point: DesignPoint) -> dict:
    """One row of scalars per design point, for CSV/JSON export."""
    return {name: get(point) for name, get in COLUMNS}


# Sweepable parameter paths, named as in the config file / --set syntax:
# path -> (the DesignInputs part it lives in, or None, and the field name).
PARAMETER_PATHS = {
    "beam.length": ("beam", "L"),
    "beam.in_plane_width": ("beam", "H"),
    "beam.thickness": ("beam", "W"),
    "beam.q_factor": (None, "q_factor"),
    "transducer.gap": ("transducer", "gap"),
    "transducer.electrode_length": ("transducer", "electrode_length"),
    "transducer.bias_voltage": ("transducer", "bias_voltage"),
    "pierce.c0": (None, "c0"),
    "pierce.c1": (None, "c1"),
    "pierce.c2": (None, "c2"),
    "pierce.gm": (None, "gm"),
    "pierce.target_margin": (None, "target_margin"),
    "materials.youngs_modulus": (None, "youngs_modulus"),
    "materials.density": (None, "density"),
    "explore.alpha_pull_in": (None, "alpha_pull_in"),
    "explore.vibration_amplitude": (None, "vibration_amplitude"),
    "transducer.x_amplitude": (None, "x_amplitude"),
}


def set_parameter(inputs: DesignInputs, params: dict, check=RAISE) -> DesignInputs:
    """Return a copy of `inputs` with the {dotted path: value} `params` replaced.

    The new values form one design, whatever their order: each part they
    touch is rebuilt once with all of its new values, then `inputs`, in
    the order config.build_inputs() builds them, so every check sees every
    new value. Values may be numpy columns when `check` is the sweep's
    collector.
    """
    changes: dict = {}  # part, None for inputs itself -> {field: value}
    for path, value in params.items():
        try:
            part, field = PARAMETER_PATHS[path]
        except KeyError:
            raise ValidationError(
                f"unknown parameter path {path!r}; valid paths: "
                f"{', '.join(sorted(PARAMETER_PATHS))}"
            ) from None
        changes.setdefault(part, {})[field] = value
    fields = changes.pop(None, {})
    for part in ("beam", "transducer"):
        if part in changes:
            fields[part] = rebuild(getattr(inputs, part), check, **changes[part])
    return rebuild(inputs, check, **fields)


@dataclass(frozen=True)
class SweepAxis:
    """One grid axis: a dotted parameter path and its sampled range."""

    path: str
    minimum: float
    maximum: float
    steps: int
    scale: str = "linear"

    def __post_init__(self):
        if self.path not in PARAMETER_PATHS:
            raise ValidationError(f"unknown parameter path {self.path!r}")
        if type(self.steps) is not int or self.steps < 1:  # bool is no step count
            raise ValidationError("steps must be an integer >= 1")
        if not (math.isfinite(self.minimum) and math.isfinite(self.maximum)):
            raise ValidationError("axis bounds must be finite")
        if self.minimum > self.maximum:
            raise ValidationError("axis minimum must not exceed maximum")
        if self.scale not in ("linear", "log"):
            raise ValidationError("scale must be 'linear' or 'log'")
        if self.scale == "log" and self.minimum <= 0:
            raise ValidationError("log axes need minimum > 0")

    def values(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.minimum, self.maximum, self.steps)
        return np.linspace(self.minimum, self.maximum, self.steps)


OBJECTIVES = {
    # Achievable startup margin ceiling: best-case |Re(Z_C)| over R_x.
    "startup_margin": ("max", lambda p: p.re_max / p.circuit.r_x),
    "min_Rx": ("min", lambda p: p.circuit.r_x),
    "max_f0": ("max", lambda p: p.model.f0),
}

DEFAULT_GRID_CAP = 1_000_000


@dataclass(frozen=True)
class SweepSpec:
    """Grid definition plus the objective/constraints used to grade it.

    constraints = None enforces all four; pass a subset of
    ("bias", "deflection", "startup", "rules") to relax the rest.
    """

    axes: tuple[SweepAxis, ...]
    objective: str = "startup_margin"
    grid_cap: int = DEFAULT_GRID_CAP
    constraints: tuple[str, ...] | None = None

    def __post_init__(self):
        if not self.axes:
            raise ValidationError("sweep needs at least one axis")
        if self.objective not in OBJECTIVES:
            raise ValidationError(
                f"objective must be one of {sorted(OBJECTIVES)}"
            )
        if self.grid_cap < 1:
            raise ValidationError("grid_cap must be >= 1")
        paths = [axis.path for axis in self.axes]
        for i, path in enumerate(paths):
            if paths.index(path) != i:
                raise ValidationError(f"axis {i} duplicates axis {paths.index(path)} "
                                      f"({path!r})")
        if self.constraints is not None:
            bad = set(self.constraints) - set(CONSTRAINT_NAMES)
            if bad:
                raise ValidationError(f"unknown constraints: {sorted(bad)}")

    @property
    def enabled_constraints(self) -> tuple[str, ...]:
        return CONSTRAINT_NAMES if self.constraints is None else self.constraints


def _check_cap(sizes: list[int], cap: int) -> None:
    total = math.prod(sizes)
    if total > cap:
        raise GridCapError(
            f"grid of {total} points exceeds the cap of {cap}; "
            "shrink the axes or raise grid_cap"
        )


def _grid_params(axes, axis_columns):
    """Each grid point's {path: value}, in grid order."""
    paths = [axis.path for axis in axes]
    for combo in zip(*(c.tolist() for c in axis_columns)):
        yield dict(zip(paths, combo))


SWEEP_BLOCK = 4096  # grid points per column pass and per block sweep() yields


def _grid_blocks(inputs: DesignInputs, axes, grids: list[np.ndarray], read):
    """Walk the grid in blocks of SWEEP_BLOCK points, in itertools.product
    order, with one column pass each: set_parameter() + _chain() on the
    block's axis columns, with the float path's arithmetic (numpy raises at
    each fault, _num.float_errors()).

    Yields the axis columns, read(point) of the pass with each value
    broadcast to a column, and the mask of points the pass vouches for:
    they passed every check and hold the bits evaluate() gives them. A
    fault anywhere in the pass or in read raises ArithmeticError or
    ValueError; then the block reads None and no point is vouched for.
    """
    sizes = [len(grid) for grid in grids]
    n = math.prod(sizes)
    for start in range(0, n, SWEEP_BLOCK):
        index = np.unravel_index(np.arange(start, min(start + SWEEP_BLOCK, n)), sizes)
        axis_columns = [grid[i] for grid, i in zip(grids, index)]
        size = len(index[0])
        checks = _Masks()
        checks.stage = "inputs"
        failed = np.zeros(size, dtype=bool)
        try:
            with float_errors():
                candidate = set_parameter(
                    inputs, {a.path: column for a, column in zip(axes, axis_columns)}, checks)
                values = [np.broadcast_to(v, (size,)) for v in read(_chain(candidate, checks))]
            for mask in checks.failed.values():
                failed |= mask
        except (ArithmeticError, ValueError):  # the pass vouches for no point
            values, failed[:] = None, True
        yield axis_columns, values, ~failed


def sweep(inputs: DesignInputs, spec: SweepSpec) -> Iterator[dict[str, np.ndarray]]:
    """Evaluate the full Cartesian grid as a stream of blocks.

    Checks grid_cap at once, then returns an iterator over blocks of up to
    SWEEP_BLOCK consecutive grid points in row-major axis order (the order
    of itertools.product over the axes). Each block maps every COLUMNS name
    to a column holding the bits evaluate() gives each of its points;
    columns that do not vary over the block are zero-stride views of one
    value. Infeasible points are flagged, not dropped. Memory is set by
    the block, not by the grid.

    Each block is one column pass of _grid_blocks(), and every check of
    set_parameter() and evaluate() runs on each of its points. A block
    with a point that fails one, or whose arithmetic faults anywhere (a
    zero divisor, an overflow), is evaluated point by point: iterating
    raises what set_parameter() and evaluate() raise for the first failing
    point in grid order, after the blocks before it; choose axis bounds
    inside the valid region. A block that only faults gives the same bits.
    """
    _check_cap([axis.steps for axis in spec.axes], spec.grid_cap)
    grids = [axis.values() for axis in spec.axes]
    return _sweep_blocks(inputs, spec.axes, grids)


def _sweep_blocks(inputs: DesignInputs, axes, grids) -> Iterator[dict[str, np.ndarray]]:
    def read(point: DesignPoint) -> list:
        return [get(point) for _, get in COLUMNS]

    for block, (axis_columns, values, vouched) in enumerate(
            _grid_blocks(inputs, axes, grids, read)):
        if not vouched.all():
            points = [evaluate(set_parameter(inputs, params))
                      for params in _grid_params(axes, axis_columns)]
            if values is not None:
                i = block * SWEEP_BLOCK + int(vouched.argmin())
                raise RuntimeError(f"sweep failed grid point {i} on a check that evaluate() passes")
            values = [np.array(column) for column in zip(*map(read, points))]
        yield {name: column for (name, _), column in zip(COLUMNS, values)}


@dataclass(frozen=True)
class OptimizeResult:
    """Outcome of optimize(): the winning point or an infeasibility report."""

    objective: str
    feasible: bool
    best: DesignPoint | None
    best_params: dict | None
    objective_value: float | None
    evaluations: int
    most_violated: str | None
    log: tuple[dict, ...]


_COARSE_LIMIT = 5     # max grid steps per axis in the coarse pass
_NM_ITER_PER_DIM = 60
_NM_TOL = 1e-4        # normalized simplex spread at convergence


def _refine(axes, grids: list[np.ndarray], start: dict, grade) -> None:
    """Nelder-Mead from the grid point `start` in the normalized box of the
    free axes, those with minimum < maximum.

    grade(params) evaluates one candidate and returns its signed objective,
    math.inf when it is rejected; the caller keeps the best. A fixed axis,
    whose grid is its one value, keeps that value in every params, in axis
    order; with no free axis there is nothing to refine. The first simplex
    steps half the finest grid cell away from `start`; points outside the
    box score math.inf without being graded.

    Points are tuples of Python floats, a simplex being too small for numpy
    to pay; each operation is numpy's, in numpy's order, so the points have
    the bits numpy arrays would give them.
    """
    free = [axis for axis in axes if axis.minimum < axis.maximum]
    if not free:
        return
    template = {axis.path: float(axis.minimum) for axis in axes}  # in axis order
    # Normalized box coordinates: u in [0,1] per free axis, geometric for log axes.
    box = [(axis.path, float(axis.minimum), float(axis.maximum), axis.scale == "log")
           for axis in free]

    def to_params(u: tuple) -> dict:
        vals = template.copy()
        for (path, lo, hi, log), x in zip(box, u):
            vals[path] = lo * (hi / lo) ** x if log else lo + x * (hi - lo)
        return vals

    def objective_u(u: tuple) -> float:
        for x in u:
            if x < 0.0 or x > 1.0:
                return math.inf
        return grade(to_params(u))

    def converged() -> bool:
        for u in simplex[1:]:
            for x, b in zip(u, simplex[0]):
                if not abs(x - b) < _NM_TOL:
                    return False
        return True

    def halfway(a: tuple, b: tuple) -> tuple:
        return tuple(x + 0.5 * (y - x) for x, y in zip(a, b))

    dim = len(free)
    step = 0.5 / max(len(g) - 1 for g in grids) if max(len(g) for g in grids) > 1 else 0.25
    u0 = tuple(math.log(start[path] / lo) / math.log(hi / lo) if log
               else (start[path] - lo) / (hi - lo) for path, lo, hi, log in box)
    simplex = [u0]
    for i in range(dim):
        x = u0[i] + step if u0[i] + step <= 1.0 else u0[i] - step
        simplex.append(u0[:i] + (x,) + u0[i + 1:])
    fvals = [objective_u(u) for u in simplex]

    for _ in range(_NM_ITER_PER_DIM * dim):
        order = sorted(range(dim + 1), key=fvals.__getitem__)
        simplex = [simplex[i] for i in order]
        fvals = [fvals[i] for i in order]
        if converged():
            break
        total = (0.0,) * dim  # np.mean(axis=0): sum from 0.0 in vertex order
        for u in simplex[:-1]:
            total = tuple(map(operator.add, total, u))
        centroid = tuple(t / dim for t in total)
        worst_u, worst_f = simplex[-1], fvals[-1]
        refl = tuple(c + (c - w) for c, w in zip(centroid, worst_u))
        f_refl = objective_u(refl)
        if f_refl < fvals[0]:
            expd = tuple(c + 2.0 * (c - w) for c, w in zip(centroid, worst_u))
            f_expd = objective_u(expd)
            if f_expd < f_refl:
                simplex[-1], fvals[-1] = expd, f_expd
            else:
                simplex[-1], fvals[-1] = refl, f_refl
        elif f_refl < fvals[-2]:
            simplex[-1], fvals[-1] = refl, f_refl
        else:
            contr = halfway(centroid, refl if f_refl < worst_f else worst_u)
            f_contr = objective_u(contr)
            if f_contr < min(f_refl, worst_f):
                simplex[-1], fvals[-1] = contr, f_contr
            else:
                for i in range(1, dim + 1):
                    simplex[i] = halfway(simplex[0], simplex[i])
                    fvals[i] = objective_u(simplex[i])


def optimize(inputs: DesignInputs, spec: SweepSpec) -> OptimizeResult:
    """Coarse grid pass plus simplex refinement of the best feasible cell.

    Candidates violating any enabled constraint (or failing to evaluate at
    all) are rejected rather than penalized smoothly. The refined result is
    never worse than the best feasible grid point. Fully deterministic.

    If no grid point is feasible the result reports the constraint that was
    closest to blocking everywhere (most_violated).

    The coarse grid runs as the column passes of _grid_blocks(), with the
    result, log and errors of evaluating it point by point: a point that
    fails a check is evaluated alone, and so is every point of a block
    whose arithmetic faults anywhere. Every request is graded where it is
    made, a point the simplex revisits included, and logged once: evaluations == len(log)
    counts requests. The winner is evaluated once more at the end for the
    DesignPoint the result carries; that evaluation is not logged.
    """
    sense, extract = OBJECTIVES[spec.objective]
    sign = -1.0 if sense == "max" else 1.0
    names = [name for name in CONSTRAINT_NAMES if name in spec.enabled_constraints]

    axes = spec.axes
    # A fixed axis (minimum == maximum) is one coarse step; _refine() skips it.
    grids = [
        replace(axis, steps=min(axis.steps, _COARSE_LIMIT)
                if axis.minimum < axis.maximum else 1).values()
        for axis in axes
    ]
    _check_cap([len(g) for g in grids], spec.grid_cap)

    log: list[dict] = []
    last_error: BeamoscError | None = None
    # (sum, enabled constraint violations) of the first infeasible candidate
    # with the least sum; read only when no grid point is feasible, so no
    # refinement ran.
    closest: tuple[float, tuple[float, ...]] | None = None
    best: tuple[float, dict] | None = None  # (signed objective, params)

    def grade(point: DesignPoint) -> tuple:
        """(objective, feasible, *enabled violations) of a point or of columns."""
        constraints = [point.constraint(name) for name in names]
        feasible = True
        for constraint in constraints:
            feasible = feasible & constraint.ok
        return extract(point), feasible, *(c.violation for c in constraints)

    def record(phase: str, params: dict, value: float | None, feasible: bool,
               *violations: float) -> float:
        nonlocal best, closest
        # Each request's params is a fresh dict; `best` keeps its own copy.
        log.append({"phase": phase, "params": params, "objective": value,
                    "feasible": feasible})
        if not feasible:
            # No violations for a point that failed to evaluate.
            if violations and (closest is None or sum(violations) < closest[0]):
                closest = (sum(violations), violations)
            return math.inf
        signed = sign * value
        if best is None or signed < best[0]:
            best = (signed, dict(params))
        return signed

    def try_point(phase: str, params: dict) -> float:
        nonlocal last_error
        try:
            point = evaluate(set_parameter(inputs, params))
        except BeamoscError as err:
            last_error = err
            return record(phase, params, None, False)
        return record(phase, params, *grade(point))

    # The coarse grid in column passes; points a pass does not vouch for
    # are graded by try_point, in grid order.
    for axis_columns, values, vouched in _grid_blocks(inputs, axes, grids, grade):
        graded = [] if values is None else list(zip(*(column.tolist() for column in values)))
        for i, (params, ok) in enumerate(zip(_grid_params(axes, axis_columns),
                                              vouched.tolist())):
            if ok:
                record("grid", params, *graded[i])
            else:
                try_point("grid", params)

    if best is None:
        if closest is None:
            assert last_error is not None
            raise last_error
        worst = max(range(len(names)), key=closest[1].__getitem__)
        return OptimizeResult(
            objective=spec.objective,
            feasible=False,
            best=None,
            best_params=None,
            objective_value=None,
            evaluations=len(log),
            most_violated=names[worst],
            log=tuple(log),
        )

    _refine(axes, grids, best[1], lambda params: try_point("refine", params))

    signed, params = best
    return OptimizeResult(
        objective=spec.objective,
        feasible=True,
        best=evaluate(set_parameter(inputs, params)),
        best_params=params,
        objective_value=sign * signed,
        evaluations=len(log),
        most_violated=None,
        log=tuple(log),
    )
