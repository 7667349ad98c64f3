"""The package as its users meet it: the demos run, and the public names hold."""
import glob
import os
import runpy

import pytest

import lagwave

DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), os.pardir, "demos", "*.py")))

PUBLIC = {
    "DiagnosticsReport", "ExperimentInvalid", "MeasurementError", "StringStabilityResult",
    "WaveMeasurement", "diagnose", "diffusion_coefficient", "eulerian_dispersion_roots",
    "measure_front_speed", "measure_startup_wave", "measure_wave", "string_stability_experiment",
    "SweepRow", "sweep_dn",
    "ConfigError", "RunSpec", "StabilitySpec", "load_spec", "serialize",
    "TEMPLATES", "template_text",
    "StepSizeReport", "cfl_threshold", "check_concave", "collision_free_threshold",
    "validate_step_sizes",
    "JWZ", "Corrected1", "Corrected2", "Model", "NonstandardLWR", "PhillipsRelax", "Scenario",
    "Scheme", "Trajectory", "acceleration", "simulate",
    "FundamentalDiagram", "GreenshieldsFD", "KernerFD", "SpacingBelowJam", "TriangularFD",
    "NonConcaveDiagram", "WaveSolution", "riemann_wave", "shock_speed_rh",
    "synthetic_shock_trajectory",
    "__version__",
}


def test_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path, capsys):
    runpy.run_path(path, run_name="__main__")
    assert capsys.readouterr().out


def test_package_surface():
    assert set(lagwave.__all__) == PUBLIC
    assert len(lagwave.__all__) == len(PUBLIC)
    for name in lagwave.__all__:
        getattr(lagwave, name)
