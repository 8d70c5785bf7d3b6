"""beamosc: electrostatic MEMS beam resonators in Pierce oscillator loops.

Modules, in pipeline order:

  process       metal-stack heights and manufacturability rules
  mechanics     lumped spring/mass/frequency model of the beam
  transduction  gap transducer: coupling, pull-in, deflection, RLC equivalent
  pierce        the sustaining amplifier: its circuit, |Re(Zc)| and gm sizing
  simulate      time-domain startup simulation and measurements
  traceio       deterministic CSV/JSON/SVG output, committed whole
  explore       design evaluation, sweeps, optimization
  config        JSON config schema and bundled reference designs
  report        comparison against the bundled reference device table
  cli           the `beamosc` command
"""

__version__ = "0.1.0"

from .errors import (
    BeamoscError,
    ConfigError,
    GridCapError,
    PullInError,
    SimulationError,
    StageError,
    ValidationError,
)
from .process import MemsRuleSet, RuleViolation, check_mems_rules
from .mechanics import (
    BeamGeometry,
    LumpedBeamModel,
    area_moment,
    lumped_mass,
    resonant_frequency,
    spring_constant,
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
    pull_in_voltage,
    static_deflection,
)
from .pierce import (
    PierceConfig,
    PierceOptimum,
    max_negative_resistance,
    negative_resistance,
)
from .simulate import SimConfig, summarize_startup
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
    "BeamoscError", "ConfigError", "GridCapError", "PullInError",
    "SimulationError", "StageError", "ValidationError", "MemsRuleSet",
    "RuleViolation", "check_mems_rules",
    "BeamGeometry", "LumpedBeamModel", "area_moment", "lumped_mass",
    "resonant_frequency", "spring_constant", "EPS0", "EquivalentCircuit",
    "Transducer", "coupling_coefficient", "displacement_limit",
    "electrode_capacitance", "extract_circuit", "motional_current",
    "pull_in_voltage", "static_deflection", "PierceConfig", "PierceOptimum",
    "max_negative_resistance", "negative_resistance", "SimConfig", "summarize_startup",
    "ConstraintCheck", "DesignInputs", "DesignPoint", "OptimizeResult", "SweepAxis",
    "SweepSpec", "evaluate", "flatten", "optimize", "set_parameter", "sweep",
    "ProjectConfig", "load_builtin_design", "load_config", "ComparisonReport",
    "build_comparison", "load_reference",
]
