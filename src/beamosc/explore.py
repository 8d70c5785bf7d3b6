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
grid through the same blocks, then polishes the best grid point by
sequential linear programming in log coordinates, where the objectives and
the bias and deflection ratios, power laws of the axes, are affine: each
step grades finite differences, then a line toward the linear program's
optimum, in column passes too; the line's pass also grades the
differences around its first two points, where the next step usually
starts, and the polish keeps those readings, so most steps take one pass.
The startup ratio is not a power law under a fixed gm, which every bundled
design sets: |Re(Z_C)| = gm C1 C2 / ((gm C0)^2 + (w S)^2), S = C1 C2 +
C0 (C1 + C2) (Vittoz et al., IEEE JSSC 23(3), 1988). So a line toward the
startup limit overshoots it by a second-order amount, and the next program
aims inside the limit by the overshoot its t = 1 point measured.
An axis whose minimum is <= 0 has no log coordinate and keeps the grid
point's value. Constraint violations are rejected, and the result is never
worse than the best grid point. A point a column pass flags reads as
failed; only a pass that faults is evaluated point by point. optimize()'s
log is a traceio.RowTable of column blocks, one per coarse pass and one of
the polish's requests, which write_json() writes block by block.
"""

from __future__ import annotations

import itertools
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
from .traceio import RowTable, _length, _row

_SLACK = 1e-9  # relative slack on constraint boundaries
# The MemsRuleSet field that sets each rule's limit.
_RULE_LIMITS = {"lateral_gap": "min_lateral_gap", "release_width": "max_release_width",
                "metal_cover": "metal_thickness_grid"}


@dataclass(frozen=True)
class DesignInputs:
    """Everything needed to evaluate one resonator/oscillator candidate.

    The beam and its electrode are cut from the same interconnect stack, so
    the electrode height is the beam stack thickness beam.W and the
    electrode area is transducer.electrode_length * beam.W. youngs_modulus
    and density are the effective laminate constants.

    amplifier is the Pierce circuit, graded here and integrated by the
    startup simulation. gm = None sizes its transconductance: the smallest
    that reaches target_margin, or the |Re(Z_C)| peak when the margin is out
    of reach. x_amplitude is the assumed operating vibration amplitude (used
    only to report motional current); vibration_amplitude is the amplitude
    budget enforced by the deflection constraint, defaulting to the headroom.
    """

    beam: BeamGeometry
    transducer: Transducer
    q_factor: float
    amplifier: PierceConfig = PierceConfig()
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
    gm: float  # inputs.gm, or the automatic sizing's where that is None
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
    check(tr.bias_voltage == 0.0,  # named here, not as the eta = 0 extract_circuit() refuses
          "bias_voltage must be > 0 to couple the beam to the amplifier")
    circuit = extract_circuit(model.k, model.m, model.q, eta, check)
    i_x = None
    if inputs.x_amplitude is not None:
        i_x = motional_current(eta, circuit.f0, inputs.x_amplitude, check)

    check.stage = "pierce"
    amplifier = inputs.amplifier
    opt = max_negative_resistance(amplifier, circuit.f0, check)
    gm = inputs.gm
    if gm is None:
        reachable, _, gm_low, _ = _gm_roots(
            amplifier, circuit.f0, inputs.target_margin * circuit.r_x, check)
        gm = select(reachable, gm_low, opt.gm_opt)
    re_zc = negative_resistance(amplifier, gm, circuit.f0, check)
    startup = startup_check(re_zc, circuit.r_x, check)

    check.stage = "rules"
    rules = rule_checks(tr.gap, beam.H, beam.W, inputs.rules)

    if allowance is None:
        allowance = fmax(0.0, x_limit - x_static)
    deflection = x_static + allowance
    # The first largest relative miss among the broken rules, 0 if none is.
    # A broken rule's miss must be finite, as the bias and deflection
    # violations must; an unbroken one's is not read.
    n_broken, rules_violation = 0, 0.0
    for rule, broken, measured, limit in rules:
        overflows = abs(measured - limit) / 2.0**1023 >= limit
        check(broken & overflows, "rules.{} {:.6g} m overflows the rules constraint "
              "against {} {:.6g} m", _RULE_LIMITS[rule], limit, rule, measured)
        miss = abs(measured - limit) / select(overflows, 1.0, limit)
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
        gm=gm,
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
    ("pierce.c1", "inputs.amplifier.c1"),
    ("pierce.c2", "inputs.amplifier.c2"),
    ("pierce.c0", "inputs.amplifier.c0"),
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
    ("derived.gm", "gm"),
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
    "pierce.c0": ("amplifier", "c0"),
    "pierce.c1": ("amplifier", "c1"),
    "pierce.c2": ("amplifier", "c2"),
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
    for part in ("beam", "transducer", "amplifier"):
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
        # np.geomspace can round an inner value past an end a few ulps away.
        space = np.geomspace if self.scale == "log" else np.linspace
        return np.clip(space(self.minimum, self.maximum, self.steps), self.minimum, self.maximum)


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
        """The enforced constraints, in CONSTRAINT_NAMES order."""
        if self.constraints is None:
            return CONSTRAINT_NAMES
        return tuple(name for name in CONSTRAINT_NAMES if name in self.constraints)


def _check_cap(sizes: list[int], cap: int) -> None:
    total = math.prod(sizes)
    if total > cap:
        raise GridCapError(
            f"grid of {total} points exceeds the cap of {cap}; "
            "shrink the axes or raise grid_cap"
        )


# Points per column pass and per block sweep() yields: at least
# traceio.SPLIT_ROWS, so the row writer can give each block to a forked child
# to format.
SWEEP_BLOCK = 4096


def _column_pass(inputs: DesignInputs, params: dict, read):
    """One column pass: set_parameter() + _chain() on the {path: column}
    `params`, with the float path's arithmetic (numpy raises at each fault,
    _num.float_errors()).

    Returns read(point) of the pass, each value broadcast to a column, and
    the mask of points the pass vouches for: they passed every check and
    hold the bits evaluate() gives them. A fault anywhere in the pass or in
    read raises ArithmeticError or ValueError; then the values are None and
    no point is vouched for.
    """
    size = _length(params)
    checks = _Masks()
    checks.stage = "inputs"
    failed = np.zeros(size, dtype=bool)
    try:
        with float_errors():
            candidate = set_parameter(inputs, params, checks)
            values = [v if getattr(v, "shape", None) == (size,) else np.broadcast_to(v, (size,))
                      for v in read(_chain(candidate, checks))]
        for mask in checks.failed.values():
            failed |= mask
    except (ArithmeticError, ValueError):  # the pass vouches for no point
        values, failed[:] = None, True
    return values, ~failed


def _grid_blocks(inputs: DesignInputs, axes, grids: list[np.ndarray], read):
    """Walk the grid in blocks of SWEEP_BLOCK points, in itertools.product
    order, with one _column_pass() each; yields the block's {path: axis
    column} and what the pass returns."""
    sizes = [len(grid) for grid in grids]
    n = math.prod(sizes)
    for start in range(0, n, SWEEP_BLOCK):
        index = np.unravel_index(np.arange(start, min(start + SWEEP_BLOCK, n)), sizes)
        params = {axis.path: grid[i] for axis, grid, i in zip(axes, grids, index)}
        yield (params, *_column_pass(inputs, params, read))


def sweep(inputs: DesignInputs, spec: SweepSpec) -> Iterator[dict[str, np.ndarray]]:
    """Evaluate the full Cartesian grid as a stream of blocks.

    Checks grid_cap at once, then returns an iterator over blocks of up to
    SWEEP_BLOCK consecutive grid points in row-major axis order (the order
    of itertools.product over the axes). Each block maps every COLUMNS name
    to a column holding the bits evaluate() gives each of its points;
    columns that do not vary over the block are zero-stride views of one
    value. Infeasible points are flagged, not dropped. Memory is set by
    the block, not by the grid.

    Each block is one column pass of _grid_blocks(), running every check
    of set_parameter() and evaluate() on each of its points. Iterating
    raises what set_parameter() and evaluate() raise for the first failing
    point in grid order, after the blocks before it; choose axis bounds
    inside the valid region. In a pass that does not fault, that is the
    first point its checks flag, evaluated alone; a block whose arithmetic
    faults anywhere (a zero divisor, an overflow) is evaluated point by
    point, with the same bits where it does not fail.
    """
    _check_cap([axis.steps for axis in spec.axes], spec.grid_cap)
    grids = [axis.values() for axis in spec.axes]
    return _sweep_blocks(inputs, spec.axes, grids)


def _sweep_blocks(inputs: DesignInputs, axes, grids) -> Iterator[dict[str, np.ndarray]]:
    def read(point: DesignPoint) -> list:
        return [get(point) for _, get in COLUMNS]

    for block, (params, values, vouched) in enumerate(_grid_blocks(inputs, axes, grids, read)):
        if values is None:
            points = [evaluate(set_parameter(inputs, _row(params, i)))
                      for i in range(len(vouched))]
            values = [np.array(column) for column in zip(*map(read, points))]
        elif not vouched.all():
            i = int(vouched.argmin())
            evaluate(set_parameter(inputs, _row(params, i)))
            raise RuntimeError(f"sweep failed grid point {block * SWEEP_BLOCK + i} "
                               "on a check that evaluate() passes")
        yield {name: column for (name, _), column in zip(COLUMNS, values)}


@dataclass(frozen=True)
class OptimizeResult:
    """Outcome of optimize(): the winning point or an infeasibility report.

    log holds the requests in order as blocks of columns, {"phase", "params":
    {path: column}, "objective" (None for a point that failed), "feasible"}:
    one per coarse column pass, then one "refine" block of the polish's. A
    point fails where its column pass's checks flag it, or where evaluate()
    rejects it after its pass faults.

    binding lists what holds the optimum, from the polish's last linear
    program: each active constraint and axis bound, with its shadow price
    d ln(objective) / d ln(limit). It is empty when nothing was polished.
    """

    objective: str
    feasible: bool
    best: DesignPoint | None
    best_params: dict | None
    objective_value: float | None
    most_violated: str | None
    log: RowTable
    binding: tuple[dict, ...] = ()

    @property
    def evaluations(self) -> int:
        """Requests graded, one per log entry."""
        return len(self.log)


_COARSE_LIMIT = 5    # max grid steps per axis in the coarse pass
_POLISH_STEP = 1e-3  # log-coordinate step of the polish's differences
_POLISH_ITER = 20    # linear programs per polish, at most
_LINE = tuple(0.5 ** k for k in range(8))  # line-search steps 1, 1/2, ..., 1/128
_DESCENT = 1e-10     # least predicted fall of ln(objective) worth a line search
_TOL = 1e-12         # slack on the linear program's signs and bounds

# The smooth constraints the polish linearizes: name -> (ratio(point), sense).
# sense * ln(ratio) <= 0 where the constraint holds. Under automatic gm the
# startup margin reaches the target wherever the ceiling Re_max/R_x does.
_SMOOTH = {
    "bias": (lambda p: p.constraint("bias").measured / p.constraint("bias").limit, 1.0),
    "deflection": (lambda p: (p.x_static if p.inputs.vibration_amplitude is None
                              else p.constraint("deflection").measured) / p.x_limit, 1.0),
    "startup": (lambda p: (p.re_max / p.circuit.r_x if p.inputs.gm is None
                           else p.startup.margin) / p.inputs.target_margin, -1.0),
}


def _reader(spec: SweepSpec):
    """read(point) for optimize(): (objective, feasible, each enabled
    constraint's violation, each enabled smooth constraint's ratio), of a
    DesignPoint or of a column pass."""
    _, extract = OBJECTIVES[spec.objective]
    names = spec.enabled_constraints
    ratios = [_SMOOTH[name][0] for name in names if name in _SMOOTH]

    def read(point: DesignPoint) -> tuple:
        constraints = [point.constraint(name) for name in names]
        feasible = True
        for constraint in constraints:
            feasible = feasible & constraint.ok
        return (extract(point), feasible, *(c.violation for c in constraints),
                *(ratio(point) for ratio in ratios))
    return read


def _solve(matrix: list[list[float]], rhs: list[float]) -> list[float] | None:
    """x with matrix @ x == rhs, by Gaussian elimination with partial
    pivoting; None for a singular matrix. The systems are at most 3 x 3."""
    n = len(rhs)
    rows = [list(row) + [b] for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(rows[r][col]))
        if not abs(rows[pivot][col]) > 1e-14:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(col + 1, n):
            factor = rows[r][col] / rows[col][col]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    x = [0.0] * n
    for r in reversed(range(n)):
        x[r] = (rows[r][n] - sum(rows[r][c] * x[c] for c in range(r + 1, n))) / rows[r][r]
    return x


def _lp(g: list[float], rows: list[tuple], lower: list[float], upper: list[float]):
    """Minimize g.d over lower <= d <= upper and a.d <= b for each (a, b)
    in rows, where lower <= 0 <= upper and b >= 0, so d = 0 is feasible.

    An optimal vertex has as many active constraints as variables: some
    rows, and a bound on each other variable. The active sets are tried
    smallest first; for each choice of active rows and of as many basic
    variables, the rows' multipliers zero the basic variables' reduced
    costs, the sign of each other reduced cost picks its bound (0 for a
    zero cost), and the rows fix the basic variables. The first choice that
    is feasible with multipliers >= 0 meets the optimality conditions.

    Returns (d, the reduced costs, {row: multiplier} of the active rows),
    or None where rounding leaves no choice that passes.
    """
    n = len(g)
    for size in range(min(len(rows), n) + 1):
        for active in itertools.combinations(range(len(rows)), size):
            for basic in itertools.combinations(range(n), size):
                prices = _solve([[rows[j][0][i] for j in active] for i in basic],
                                [-g[i] for i in basic])
                if prices is None or any(price < -_TOL for price in prices):
                    continue
                reduced = [0.0 if i in basic else
                           g[i] + sum(price * rows[j][0][i] for price, j in zip(prices, active))
                           for i in range(n)]
                d = [lower[i] if cost > 0.0 else upper[i] if cost < 0.0 else 0.0
                     for i, cost in enumerate(reduced)]
                values = _solve([[rows[j][0][i] for i in basic] for j in active],
                                [rows[j][1] - sum(map(operator.mul, rows[j][0], d))
                                 for j in active])
                if values is None:
                    continue
                for i, value in zip(basic, values):
                    d[i] = value
                if all(lower[i] - _TOL <= d[i] <= upper[i] + _TOL for i in basic) and all(
                        sum(x * y for x, y in zip(a, d)) <= b + _TOL for a, b in rows):
                    for i in basic:
                        d[i] = min(max(d[i], lower[i]), upper[i])
                    return d, reduced, dict(zip(active, prices))
    return None


def _overshoot(reading: tuple | None, terms: list[float] | None, n: int) -> list[float]:
    """How far a line's t = 1 point, read() tuple `reading`, lies past each
    of the n smooth constraints' limits in log slack: max(0, slack) of its
    terms (see _polish) where it is infeasible and has them, else 0."""
    if terms is None or reading[1]:
        return [0.0] * n
    return [max(0.0, slack) for slack in terms[1:]]


def _polish(spec: SweepSpec, start: dict, reading: tuple, grade) -> tuple:
    """Sequential linear programming in log coordinates from the feasible
    grid point `start`, whose read() tuple (see _reader) is `reading`.

    The objective and the bias and deflection ratios are power laws of the
    axes, so in y = ln(value) they are affine and the polish is a linear
    program over the box of the free axes: those with 0 < minimum <
    maximum. The program takes the startup ratio as affine too, which it
    is not under a fixed gm (see the module docstring). An axis whose
    minimum is <= 0 has no log coordinate, and it keeps the incumbent's
    value, as a fixed axis does. The rules constraint is left to the line
    search.

    Each step, from the incumbent y0, grades the 2K points y0 +- h e_i,
    clipped into the box, for the log-derivatives of the signed objective
    and of each enabled smooth constraint; solves the linear program in the
    box with those constraints (see _lp); and grades y0 + t d for the steps
    t in _LINE. The incumbent is the best point requested, the first of
    equal ones. The polish stops when a step improves on nothing, which it
    does when the program finds no descent.

    A smooth constraint's row is a.d <= b, with a its derivatives and b its
    slack at y0 (-term) less its overshoot at the last line's t = 1 point
    (see _overshoot), and never below 0. Without an overshoot the row asks
    for the linearized limit. After a line whose t = 1 point overshoots a
    curved limit, the next step aims inside it by that much: aimed onto the
    linearized limit, its t = 1 point would overshoot again, and the walk
    would halve its way onto the limit, one step per halving.

    Most steps start at the line's t = 1 or t = 1/2 point, so each line
    search is graded together with the stencils of those two points, and
    the polish keeps their readings: a step that starts there requests
    that stencil from them instead of grading a new one. A look-ahead
    point is requested only then.

    grade(points) grades a list of params dicts, all axes in axis order,
    and returns each point's read() tuple, or None for a point that fails.
    A coordinate at a bound takes the axis's own minimum or maximum; one
    that does not move keeps its value.

    Returns the incumbent's params and read() tuple, the (params, read()
    tuple) of each point requested, in request order, and the last
    program's binding (see OptimizeResult).
    """
    sign = -1.0 if OBJECTIVES[spec.objective][0] == "max" else 1.0
    names = spec.enabled_constraints
    smooth = [name for name in names if name in _SMOOTH]
    senses = [_SMOOTH[name][1] for name in smooth]
    skip = 2 + len(names)  # the ratios' place in a read() tuple
    free = [(axis.path, float(axis.minimum), float(axis.maximum),
             math.log(axis.minimum), math.log(axis.maximum))
            for axis in spec.axes if 0.0 < axis.minimum < axis.maximum]
    free = [box for box in free if box[3] < box[4]]

    def signed(r) -> float:
        return sign * r[0] if r is not None and r[1] else math.inf

    def terms(r) -> list[float] | None:
        """sign * ln(objective), then each slack; None where one has no log."""
        if r is None or not all(0.0 < v < math.inf for v in (r[0], *r[skip:])):
            return None
        return [sign * math.log(r[0])] + [s * math.log(v) for s, v in zip(senses, r[skip:])]

    def moved(x: dict, changes: dict) -> dict:
        """x with each free axis k in `changes` at log coordinate changes[k]."""
        point = dict(x)
        for k, y in changes.items():
            path, low, high, ylow, yhigh = free[k]
            point[path] = (low if y <= ylow else high if y >= yhigh
                           else min(max(math.exp(y), low), high))
        return point

    def stencil(x: dict) -> list[dict]:
        """The 2K points y +- h e_i around x, clipped into the box."""
        points = []
        for k, (path, _, _, ylow, yhigh) in enumerate(free):
            y = math.log(x[path])
            points += [moved(x, {k: min(y + _POLISH_STEP, yhigh)}),
                       moved(x, {k: max(y - _POLISH_STEP, ylow)})]
        return points

    def scan(points: list[dict], readings: list) -> None:
        nonlocal best
        for point, r in zip(points, readings):
            requested.append((point, r))
            if signed(r) < best[0]:
                best = (signed(r), point, r)

    best = (signed(reading), start, reading)
    requested: list[tuple[dict, tuple | None]] = []
    binding: tuple[dict, ...] = ()
    lookahead: list[tuple] = []  # (point, its stencil, their readings) of the last line
    overshoot = [0.0] * len(smooth)  # of the last line's t = 1 point, see _overshoot
    for _ in range(_POLISH_ITER if free else 0):
        incumbent = best
        _, x, at_x = incumbent
        here = terms(at_x)
        if here is None:
            break
        y0 = [math.log(x[box[0]]) for box in free]
        points, readings = next(((group, kept) for point, group, kept in lookahead
                                 if point is x), (None, None))
        if points is None:
            points = stencil(x)
            readings = grade(points)
        scan(points, readings)
        # One column of derivatives per axis. An axis stays put where one of
        # its two points has no terms (it fails to evaluate, say), or where
        # they are one value (subnormal values an ulp apart).
        axes, columns = [], []
        for k, (path, *_) in enumerate(free):
            a, b = map(terms, readings[2 * k:2 * k + 2])
            span = math.log(points[2 * k][path]) - math.log(points[2 * k + 1][path])
            if a is not None and b is not None and span:
                axes.append(k)
                columns.append([(u - v) / span for u, v in zip(a, b)])
        solution = None
        if axes:
            rows = [([column[1 + j] for column in columns],
                     max(0.0, -here[1 + j] - overshoot[j])) for j in range(len(smooth))]
            lower = [free[k][3] - y0[k] for k in axes]
            upper = [free[k][4] - y0[k] for k in axes]
            solution = _lp([column[0] for column in columns], rows, lower, upper)
        binding = ()
        overshoot = [0.0] * len(smooth)
        if solution is not None:
            d, reduced, prices = solution
            binding = tuple(
                [{"name": smooth[j], "bound": "limit",
                  "shadow_price": -sign * senses[j] * price + 0.0}
                 for j, price in prices.items()]
                + [{"name": free[k][0], "bound": "min" if cost > 0.0 else "max",
                    "shadow_price": sign * cost}
                   for k, cost, low, high in zip(axes, reduced, lower, upper)
                   if (cost > 0.0 and low == 0.0) or (cost < 0.0 and high == 0.0)])
            if sum(map(operator.mul, [c[0] for c in columns], d)) < -_DESCENT:
                # At t = 1 a coordinate the program put on a bound takes it.
                snap = {k: free[k][3] if step == low else free[k][4] if step == high else None
                        for k, step, low, high in zip(axes, d, lower, upper)}
                line = [moved(x, {k: y0[k] + t * d[i] if t < 1.0 or snap[k] is None else snap[k]
                                  for i, k in enumerate(axes) if d[i] != 0.0})
                        for t in _LINE]
                ahead = stencil(line[0]) + stencil(line[1])
                readings = grade(line + ahead)
                scan(line, readings[:len(line)])
                overshoot = _overshoot(readings[0], terms(readings[0]), len(smooth))
                n, m = len(line), 2 * len(free)
                lookahead = [(line[0], ahead[:m], readings[n:n + m]),
                             (line[1], ahead[m:], readings[n + m:])]
        if best is incumbent:
            break
    return best[1], best[2], requested, binding


def optimize(inputs: DesignInputs, spec: SweepSpec) -> OptimizeResult:
    """Coarse grid pass plus a log-space polish of the best feasible point.

    Candidates violating any enabled constraint (or failing to evaluate at
    all) are rejected rather than penalized smoothly. The polished result
    is never worse than the best feasible grid point. Fully deterministic.

    If no grid point is feasible the result reports the constraint that was
    closest to blocking everywhere (most_violated); if every grid point
    fails, optimize() raises what evaluating the last one raises.

    The coarse grid runs as the column passes of _grid_blocks(), and the
    polish (see _polish) grades its points in column passes of at most
    SWEEP_BLOCK points too, with the result and log of evaluating them
    point by point: a point a pass's checks flag is logged as failed, as
    evaluate() fails it, without a second evaluation, and only a pass whose
    arithmetic faults is evaluated point by point. Every request, a point
    the polish revisits included, is logged once: evaluations == len(log).
    The winner is evaluated once more for the DesignPoint the result
    carries; that evaluation is not logged.
    """
    sign = -1.0 if OBJECTIVES[spec.objective][0] == "max" else 1.0
    names = spec.enabled_constraints
    read = _reader(spec)

    # A fixed axis (minimum == maximum) is one coarse step; _polish() skips it.
    grids = [
        replace(axis, steps=min(axis.steps, _COARSE_LIMIT)
                if axis.minimum < axis.maximum else 1).values()
        for axis in spec.axes
    ]
    _check_cap([len(g) for g in grids], spec.grid_cap)

    blocks: list[dict] = []  # the log: a block per grid pass, then the polish's requests
    # (sum, enabled constraint violations) of the first infeasible grid
    # point with the least sum.
    closest: tuple[float, tuple[float, ...]] | None = None
    best: tuple[float, dict, tuple] | None = None  # (signed objective, params, reading)

    def graded(params: dict, values, vouched) -> list:
        """Each point's read() tuple from the column pass over `params` that
        returned `values` and `vouched`, None where the pass flags the point.
        After a fault each point is evaluated alone, None where that fails."""
        if values is not None:
            return [row if ok else None for row, ok in
                    zip(zip(*(column.tolist() for column in values)), vouched.tolist())]
        rows = []
        for i in range(len(vouched)):
            try:
                rows.append(read(evaluate(set_parameter(inputs, _row(params, i)))))
            except BeamoscError:
                rows.append(None)
        return rows

    def grade(points: list[dict]) -> list:
        """The polish's points, graded in column passes of up to SWEEP_BLOCK."""
        params = {path: np.array([p[path] for p in points]) for path in points[0]}
        rows = []
        for start in range(0, len(points), SWEEP_BLOCK):
            block = {path: column[start:start + SWEEP_BLOCK] for path, column in params.items()}
            rows += graded(block, *_column_pass(inputs, block, read))
        return rows

    def logged(phase: str, params: dict, rows: list) -> None:
        blocks.append({"phase": np.broadcast_to(phase, (len(rows),)), "params": params,
                       "objective": [None if r is None else r[0] for r in rows],
                       "feasible": [r is not None and r[1] for r in rows]})

    for params, values, vouched in _grid_blocks(inputs, spec.axes, grids, read):
        rows = graded(params, values, vouched)
        logged("grid", params, rows)
        for i, reading in enumerate(rows):
            value, feasible, *rest = reading or (None, False)
            if not feasible:
                violations = tuple(rest[:len(names)])  # none for a point that failed
                if violations and (closest is None or sum(violations) < closest[0]):
                    closest = (sum(violations), violations)
            elif best is None or sign * value < best[0]:
                best = (sign * value, _row(params, i), reading)

    if best is None:
        if closest is None:  # every grid point failed: raise the last one's error
            evaluate(set_parameter(inputs, _row(params, -1)))
            raise RuntimeError(f"optimize failed grid point {math.prod(map(len, grids)) - 1} "
                               "on a check that evaluate() passes")
        worst = max(range(len(names)), key=closest[1].__getitem__)
        return OptimizeResult(objective=spec.objective, feasible=False, best=None,
                              best_params=None, objective_value=None,
                              most_violated=names[worst], log=RowTable(tuple(blocks)))
    params, reading, requested, binding = _polish(spec, best[1], best[2], grade)
    if requested:
        points, rows = zip(*requested)
        logged("refine", {path: [p[path] for p in points] for path in points[0]}, rows)
    return OptimizeResult(objective=spec.objective, feasible=True,
                          best=evaluate(set_parameter(inputs, params)), best_params=params,
                          objective_value=reading[0], most_violated=None,
                          log=RowTable(tuple(blocks)), binding=binding)
