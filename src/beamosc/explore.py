"""Design evaluation pipeline, parameter sweeps, and optimization.

evaluate() runs one candidate through process -> mechanics -> transduction ->
amplifier sizing and grades it against four feasibility constraints:

  bias        V_P <= alpha * V_pi (stay clear of pull-in, alpha = 0.97)
  deflection  static deflection + vibration allowance <= displacement limit
  startup     |Re(Z_C)| / R_x >= target margin (3x by default)
  rules       release-etch manufacturability rules hold

The pipeline is written once, in _chain(). evaluate() runs it on Python
floats for one design; sweep() runs it once on numpy columns holding the
whole grid, with the same bits in every output. sweep() keeps infeasible
points flagged rather than dropped. optimize() grades a coarse grid in the
same column pass and refines the best cell with a derivative-free simplex
search, point by point, that rejects constraint violations; the result is
never worse than the best grid point.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from ._num import fmax, select
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
from .mechanics import (
    BeamGeometry,
    LumpedBeamModel,
    pull_in_voltage,
    static_deflection,
)
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
    RuleViolation,
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
        check(self.q_factor <= 0, "q_factor must be > 0")
        check((self.c1 <= 0) | (self.c2 <= 0) | (self.c0 <= 0),
              "c1, c2 and c0 must all be > 0")
        if self.gm is not None:
            check(self.gm < 0, "gm must be >= 0 (or None for automatic sizing)")
        check(self.target_margin <= 0, "target_margin must be > 0")
        alpha = self.alpha_pull_in
        check((alpha != alpha) | (alpha <= 0) | (alpha > 1), "alpha_pull_in must be in (0, 1]")
        if self.vibration_amplitude is not None:
            check(self.vibration_amplitude < 0, "vibration_amplitude must be >= 0")
        if self.x_amplitude is not None:
            check(self.x_amplitude < 0, "x_amplitude must be >= 0")


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
    gm: float
    re_zc: float
    startup: StartupReport
    rule_violations: tuple[RuleViolation, ...]
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
    check((youngs_modulus <= 0) | (density <= 0), "laminate properties must all be > 0")

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
    v_pi = pull_in_voltage(model.k, tr.gap, area, tr.permittivity, check)
    x_static = static_deflection(model.k, tr, area, eta, v_pi, inputs.deflection_mode, check)
    x_limit = displacement_limit(tr)
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
    re_zc = negative_resistance(
        build(PierceConfig, check, c1=c1, c2=c2, c0=c0, gm=gm, f0=circuit.f0))
    startup = startup_check(re_zc, circuit.r_x, check)

    check.stage = "rules"
    rules = rule_checks(tr.gap, beam.H, beam.W, inputs.rules)

    bias_limit = inputs.alpha_pull_in * v_pi
    if inputs.vibration_amplitude is None:
        allowance = fmax(0.0, x_limit - x_static)
    else:
        allowance = inputs.vibration_amplitude
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
        gm=gm,
        re_zc=re_zc,
        startup=startup,
        # A sweep lists no violations: they differ by point. It reads the count.
        rule_violations=tuple(RuleViolation(rule, measured, limit)
                              for rule, broken, measured, limit in rules
                              if not isinstance(broken, np.ndarray) and broken),
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

    Any validation or physics error is raised as a StageError naming the
    pipeline stage that rejected the candidate.
    """
    check = checks()
    try:
        return _chain(inputs, check)
    except BeamoscError as err:
        raise StageError(check.stage, err) from err


# Output columns of analyze/optimize payloads and of sweep.csv/sweep.json,
# in order: name and how to read it from a DesignPoint.
COLUMNS = tuple((name, operator.attrgetter(path)) for name, path in (
    ("beam.anchor", "inputs.beam.anchor.value"),
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
    "pierce.c0": (None, "c0"),
    "pierce.c1": (None, "c1"),
    "pierce.c2": (None, "c2"),
    "pierce.gm": (None, "gm"),
    "pierce.target_margin": (None, "target_margin"),
    "materials.youngs_modulus": (None, "youngs_modulus"),
    "materials.density": (None, "density"),
    "explore.alpha_pull_in": (None, "alpha_pull_in"),
    "explore.vibration_amplitude": (None, "vibration_amplitude"),
    "explore.x_amplitude": (None, "x_amplitude"),
}


def set_parameter(inputs: DesignInputs, path: str, value: float,
                  check=RAISE) -> DesignInputs:
    """Return a copy of `inputs` with one dotted-path parameter replaced.

    `value` may be a numpy column when `check` is the sweep's collector.
    """
    try:
        part, field = PARAMETER_PATHS[path]
    except KeyError:
        raise ValidationError(
            f"unknown parameter path {path!r}; valid paths: "
            f"{', '.join(sorted(PARAMETER_PATHS))}"
        ) from None
    if part is None:
        return rebuild(inputs, check, **{field: value})
    return rebuild(inputs, check, **{part: rebuild(getattr(inputs, part), check, **{field: value})})


def _with_params(inputs: DesignInputs, pairs, check=RAISE) -> DesignInputs:
    """set_parameter() applied for each (path, value) pair, in order."""
    for path, value in pairs:
        inputs = set_parameter(inputs, path, value, check)
    return inputs


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
        if not isinstance(self.steps, int) or isinstance(self.steps, bool) or self.steps < 1:
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
        if self.constraints is not None:
            bad = set(self.constraints) - set(CONSTRAINT_NAMES)
            if bad:
                raise ValidationError(f"unknown constraints: {sorted(bad)}")

    @property
    def enabled_constraints(self) -> tuple[str, ...]:
        return CONSTRAINT_NAMES if self.constraints is None else self.constraints


def _check_cap(sizes: list[int], cap: int) -> int:
    total = math.prod(sizes)
    if total > cap:
        raise GridCapError(
            f"grid of {total} points exceeds the cap of {cap}; "
            "shrink the axes or raise grid_cap"
        )
    return total


def _column_pass(inputs: DesignInputs, axes, axis_columns):
    """set_parameter() + _chain() once over grid columns.

    Returns the point, whose fields hold columns or values shared by every
    grid point; the mask of points that failed a check; and the mask of
    points to replay through the scalar path: those plus every point with
    a non-finite float output, where evaluate() may raise instead (a zero
    divisor, an overflowing power). Raises ArithmeticError or ValueError
    when a part the axes do not vary fails on floats, so every point fails.
    """
    checks = _Masks()
    checks.stage = "inputs"
    with np.errstate(all="ignore"):
        candidate = _with_params(inputs, zip([a.path for a in axes], axis_columns), checks)
        point = _chain(candidate, checks)
    failed = np.zeros(len(axis_columns[0]), dtype=bool)
    for mask in checks.failed.values():
        failed |= mask
    replay = failed.copy()
    for _, get in COLUMNS:
        value = np.asarray(get(point))
        if value.dtype.kind == "f":
            replay |= ~np.isfinite(value)
    return point, failed, replay


def _axis_columns(grids: list[np.ndarray]) -> list[np.ndarray]:
    """One column per axis over the grid, in itertools.product order."""
    return [c.ravel() for c in np.meshgrid(*grids, indexing="ij")]


def sweep(inputs: DesignInputs, spec: SweepSpec) -> dict[str, np.ndarray]:
    """Evaluate the full Cartesian grid in one pass over columns.

    Returns one column per COLUMNS name, each holding every grid point in
    row-major axis order (the order of itertools.product over the axes),
    with the bits evaluate() gives for that point. Columns that do not vary
    over the grid are zero-stride views of one value. Infeasible points are
    flagged, not dropped.

    Every check of set_parameter() and evaluate() runs on every point. If
    any point fails one, the sweep raises what set_parameter() and
    evaluate() raise for the first such point in grid order; choose axis
    bounds inside the valid region.
    """
    grids = [axis.values() for axis in spec.axes]
    n = _check_cap([len(g) for g in grids], spec.grid_cap)
    axis_columns = _axis_columns(grids)

    def replay(i: int) -> None:
        evaluate(_with_params(inputs, [(axis.path, float(column[i]))
                                       for axis, column in zip(spec.axes, axis_columns)]))

    try:
        point, failed, suspect = _column_pass(inputs, spec.axes, axis_columns)
    except (ArithmeticError, ValueError):
        replay(0)
        raise
    for i in np.flatnonzero(suspect):
        replay(int(i))
        if failed[i]:
            raise RuntimeError(
                f"sweep failed grid point {i} on a check that evaluate() passes")
    return {name: np.broadcast_to(get(point), (n,)) for name, get in COLUMNS}


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
    """Nelder-Mead from the grid point `start` in the normalized axis box.

    grade(params) evaluates one candidate and returns its signed objective,
    math.inf when it is rejected; the caller keeps the best. The first
    simplex steps half the finest grid cell away from `start`; points
    outside the box score math.inf without being graded.
    """
    # Normalized box coordinates: u in [0,1] per axis, geometric for log axes.
    los = np.array([a.minimum for a in axes])
    his = np.array([a.maximum for a in axes])
    logscale = np.array([a.scale == "log" for a in axes])

    def to_params(u: np.ndarray) -> dict:
        vals = {}
        for i, axis in enumerate(axes):
            if los[i] == his[i]:
                vals[axis.path] = float(los[i])
            elif logscale[i]:
                vals[axis.path] = float(los[i] * (his[i] / los[i]) ** u[i])
            else:
                vals[axis.path] = float(los[i] + u[i] * (his[i] - los[i]))
        return vals

    def to_u(params: dict) -> np.ndarray:
        u = np.zeros(len(axes))
        for i, axis in enumerate(axes):
            v = params[axis.path]
            if los[i] == his[i]:
                u[i] = 0.0
            elif logscale[i]:
                u[i] = math.log(v / los[i]) / math.log(his[i] / los[i])
            else:
                u[i] = (v - los[i]) / (his[i] - los[i])
        return u

    def objective_u(u: np.ndarray) -> float:
        if np.any(u < 0.0) or np.any(u > 1.0):
            return math.inf
        return grade(to_params(u))

    dim = len(axes)
    step = 0.5 / max(len(g) - 1 for g in grids) if max(len(g) for g in grids) > 1 else 0.25
    u0 = to_u(start)
    simplex = [u0]
    for i in range(dim):
        v = u0.copy()
        v[i] = v[i] + step if v[i] + step <= 1.0 else v[i] - step
        simplex.append(v)
    fvals = [objective_u(u) for u in simplex]

    for _ in range(_NM_ITER_PER_DIM * dim):
        order = sorted(range(dim + 1), key=lambda i: fvals[i])
        simplex = [simplex[i] for i in order]
        fvals = [fvals[i] for i in order]
        spread = max(np.max(np.abs(s - simplex[0])) for s in simplex[1:])
        if spread < _NM_TOL:
            break
        centroid = np.mean(simplex[:-1], axis=0)
        worst_u, worst_f = simplex[-1], fvals[-1]
        refl = centroid + (centroid - worst_u)
        f_refl = objective_u(refl)
        if f_refl < fvals[0]:
            expd = centroid + 2.0 * (centroid - worst_u)
            f_expd = objective_u(expd)
            if f_expd < f_refl:
                simplex[-1], fvals[-1] = expd, f_expd
            else:
                simplex[-1], fvals[-1] = refl, f_refl
        elif f_refl < fvals[-2]:
            simplex[-1], fvals[-1] = refl, f_refl
        else:
            base = refl if f_refl < worst_f else worst_u
            contr = centroid + 0.5 * (base - centroid)
            f_contr = objective_u(contr)
            if f_contr < min(f_refl, worst_f):
                simplex[-1], fvals[-1] = contr, f_contr
            else:
                for i in range(1, dim + 1):
                    simplex[i] = simplex[0] + 0.5 * (simplex[i] - simplex[0])
                    fvals[i] = objective_u(simplex[i])


def optimize(inputs: DesignInputs, spec: SweepSpec) -> OptimizeResult:
    """Coarse grid pass plus simplex refinement of the best feasible cell.

    Candidates violating any enabled constraint (or failing to evaluate at
    all) are rejected rather than penalized smoothly. The refined result is
    never worse than the best feasible grid point. Fully deterministic.

    If no grid point is feasible the result reports the constraint that was
    closest to blocking everywhere (most_violated).

    The coarse grid runs as one column pass, with the result, log and
    errors of evaluating it point by point: a point that fails a check or
    has a non-finite output is evaluated alone, and so is the winning grid
    point, whose DesignPoint the result carries (that evaluation is not
    counted, so evaluations == len(log)).
    """
    sense, extract = OBJECTIVES[spec.objective]
    sign = -1.0 if sense == "max" else 1.0
    enabled = spec.enabled_constraints

    axes = spec.axes
    grids = [
        axis.values() if axis.steps <= _COARSE_LIMIT
        else replace(axis, steps=_COARSE_LIMIT).values()
        for axis in axes
    ]
    _check_cap([len(g) for g in grids], spec.grid_cap)

    log: list[dict] = []
    evaluations = 0
    last_error: BeamoscError | None = None
    # Enabled constraint violations of each infeasible candidate, in order;
    # read only when no grid point is feasible, so no refinement ran.
    infeasible_violations: list[tuple[float, ...]] = []
    names = [name for name in CONSTRAINT_NAMES if name in enabled]
    # (signed objective, params, point); point is None for a grid point
    # graded from the columns until it is evaluated at the end.
    best: tuple[float, dict, DesignPoint | None] | None = None

    def record(phase: str, params: dict, value: float | None, feasible: bool,
               point: DesignPoint | None) -> float:
        nonlocal evaluations, best
        evaluations += 1
        log.append({"phase": phase, "params": dict(params),
                    "objective": value, "feasible": feasible})
        if not feasible:
            return math.inf
        signed = sign * value
        if best is None or signed < best[0]:
            best = (signed, dict(params), point)
        return signed

    def try_point(phase: str, params: dict) -> float:
        nonlocal last_error
        try:
            point = evaluate(_with_params(inputs, params.items()))
        except BeamoscError as err:
            last_error = err
            return record(phase, params, None, False, None)
        feasible = all(point.constraint(n).ok for n in enabled)
        if not feasible:
            infeasible_violations.append(
                tuple(c.violation for c in point.constraints if c.name in enabled))
        return record(phase, params, extract(point), feasible, point)

    # The coarse grid in one column pass; points the pass cannot vouch for
    # go through try_point, in grid order like the rest.
    axis_columns = _axis_columns(grids)
    paths = [axis.path for axis in axes]
    n = len(axis_columns[0])
    try:
        point, _, replay = _column_pass(inputs, axes, axis_columns)
        with np.errstate(all="ignore"):
            objective = np.broadcast_to(extract(point), (n,))
    except (ArithmeticError, ValueError):
        # A part the axes do not vary failed on floats: replay every point.
        point, replay = None, np.ones(n, dtype=bool)
    if point is not None:
        replay = replay | ~np.isfinite(objective)
        ok = np.ones(n, dtype=bool)
        for name in enabled:
            ok &= point.constraint(name).ok
        objective, ok = objective.tolist(), ok.tolist()
        violations = [np.broadcast_to(point.constraint(name).violation, (n,)).tolist()
                      for name in names]
    replay = replay.tolist()
    for i, combo in enumerate(zip(*(c.tolist() for c in axis_columns))):
        params = dict(zip(paths, combo))
        if replay[i]:
            try_point("grid", params)
            continue
        if not ok[i]:
            infeasible_violations.append(tuple(v[i] for v in violations))
        record("grid", params, objective[i], ok[i], None)

    if best is None:
        if not infeasible_violations:
            assert last_error is not None
            raise last_error
        closest = min(infeasible_violations, key=sum)
        worst = max(range(len(names)), key=closest.__getitem__)
        return OptimizeResult(
            objective=spec.objective,
            feasible=False,
            best=None,
            best_params=None,
            objective_value=None,
            evaluations=evaluations,
            most_violated=names[worst],
            log=tuple(log),
        )

    _refine(axes, grids, best[1], lambda params: try_point("refine", params))

    signed, params, point = best
    if point is None:  # a grid point graded from the columns
        point = evaluate(_with_params(inputs, params.items()))
    return OptimizeResult(
        objective=spec.objective,
        feasible=True,
        best=point,
        best_params=params,
        objective_value=sign * signed,
        evaluations=evaluations,
        most_violated=None,
        log=tuple(log),
    )
