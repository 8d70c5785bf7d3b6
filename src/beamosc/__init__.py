"""beamosc: electrostatic MEMS beam resonators in Pierce oscillator loops.

Modules, in pipeline order:

  process       metal-stack heights and manufacturability rules
  mechanics     lumped spring/mass/frequency model of the beam
  transduction  gap transducer coupling and the series RLC equivalent
  pierce        sustaining amplifier small-signal impedance
  simulate      time-domain startup simulation and measurements
  explore       design evaluation, sweeps, optimization
  config        JSON config schema and bundled reference designs
  report        comparison against the bundled reference device table
  traceio       deterministic CSV/JSON/SVG output
  cli           the `beamosc` command
"""

from .errors import (
    BeamoscError,
    ConfigError,
    ConvergenceError,
    GridCapError,
    InsufficientDataError,
    PullInError,
    SimulationError,
    StageError,
    ValidationError,
)
from .process import MemsRuleSet, RuleViolation, check_mems_rules
from .mechanics import (
    Anchor,
    BeamGeometry,
    LumpedBeamModel,
    area_moment,
    lumped_mass,
    pull_in_voltage,
    resonant_frequency,
    spring_constant,
    static_deflection,
)
from .transduction import (
    EPS0,
    EquivalentCircuit,
    Transducer,
    coupling_coefficient,
    displacement_limit,
    electrode_capacitance,
    extract_circuit,
    motional_current,
)
from .pierce import (
    PierceConfig,
    PierceOptimum,
    StartupReport,
    complex_impedance,
    max_negative_resistance,
    negative_resistance,
    required_gm,
    startup_check,
)
from .simulate import (
    SimConfig,
    Trace,
    envelope,
    growth_rate,
    measure_frequency,
    simulate_startup,
    summarize,
)
from .explore import (
    ConstraintCheck,
    DesignInputs,
    DesignPoint,
    OptimizeResult,
    SweepAxis,
    SweepSpec,
    evaluate,
    flatten,
    optimize,
    set_parameter,
    sweep,
)
from .config import ProjectConfig, load_builtin_design, load_config
from .report import ComparisonReport, build_comparison, load_reference

__all__ = [
    "BeamoscError", "ConfigError", "ConvergenceError", "GridCapError",
    "InsufficientDataError", "PullInError", "SimulationError", "StageError",
    "ValidationError", "MemsRuleSet", "RuleViolation", "check_mems_rules", "Anchor",
    "BeamGeometry", "LumpedBeamModel", "area_moment", "lumped_mass",
    "pull_in_voltage", "resonant_frequency", "spring_constant",
    "static_deflection", "EPS0", "EquivalentCircuit", "Transducer",
    "coupling_coefficient", "displacement_limit", "electrode_capacitance",
    "extract_circuit", "motional_current", "PierceConfig", "PierceOptimum",
    "StartupReport", "complex_impedance", "max_negative_resistance",
    "negative_resistance", "required_gm", "startup_check", "SimConfig",
    "Trace", "envelope", "growth_rate", "measure_frequency",
    "simulate_startup", "summarize", "ConstraintCheck", "DesignInputs",
    "DesignPoint", "OptimizeResult", "SweepAxis", "SweepSpec", "evaluate",
    "flatten", "optimize", "set_parameter", "sweep", "ProjectConfig",
    "load_builtin_design", "load_config", "ComparisonReport",
    "build_comparison", "load_reference",
]
