"""Lagrangian car-following laboratory for kinematic wave traffic models.

The package simulates platoons whose dynamics discretize the kinematic
wave (LWR) model in vehicle-number coordinates, plus second-order
relaxation variants, and measures the waves the simulations produce
against exact Riemann solutions.
"""
from .analysis import (
    DiagnosticsReport,
    ExperimentInvalid,
    MeasurementError,
    StringStabilityResult,
    WaveMeasurement,
    diagnose,
    diffusion_coefficient,
    eulerian_dispersion_roots,
    measure_front_speed,
    measure_startup_wave,
    string_stability_experiment,
)
from .cli import ConfigError, RunSpec, StabilitySpec, load_spec, serialize
from .conditions import (
    StepSizeReport,
    cfl_threshold,
    check_concave,
    collision_free_threshold,
    validate_step_sizes,
)
from .engine import (
    JWZ,
    Corrected1,
    Corrected2,
    Model,
    NonstandardLWR,
    PhillipsRelax,
    Scenario,
    Scheme,
    Trajectory,
    acceleration,
    simulate,
)
from .fundamental import (
    FundamentalDiagram,
    GreenshieldsFD,
    KernerFD,
    SpacingBelowJam,
    TriangularFD,
)
from .riemann import (
    NonConcaveDiagram,
    WaveSolution,
    riemann_wave,
    shock_speed_rh,
    synthetic_shock_trajectory,
)
from .templates import TEMPLATES, template_text

__version__ = "0.1.0"

__all__ = [
    "DiagnosticsReport",
    "ExperimentInvalid",
    "MeasurementError",
    "StringStabilityResult",
    "WaveMeasurement",
    "diagnose",
    "diffusion_coefficient",
    "eulerian_dispersion_roots",
    "measure_front_speed",
    "measure_startup_wave",
    "string_stability_experiment",
    "ConfigError",
    "RunSpec",
    "StabilitySpec",
    "load_spec",
    "serialize",
    "TEMPLATES",
    "template_text",
    "StepSizeReport",
    "cfl_threshold",
    "check_concave",
    "collision_free_threshold",
    "validate_step_sizes",
    "JWZ",
    "Corrected1",
    "Corrected2",
    "Model",
    "NonstandardLWR",
    "PhillipsRelax",
    "Scenario",
    "Scheme",
    "Trajectory",
    "acceleration",
    "simulate",
    "FundamentalDiagram",
    "GreenshieldsFD",
    "KernerFD",
    "SpacingBelowJam",
    "TriangularFD",
    "NonConcaveDiagram",
    "WaveSolution",
    "riemann_wave",
    "shock_speed_rh",
    "synthetic_shock_trajectory",
    "__version__",
]
