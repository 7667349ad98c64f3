"""The package as its users meet it: the demos run, and the public names hold."""
import glob
import os
import re
import runpy

import pytest

import lagwave

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
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


def test_version_matches_pyproject():
    with open(os.path.join(os.path.dirname(README), "pyproject.toml")) as fh:
        (version,) = re.findall(r'^version = "(.*)"$', fh.read(), re.M)
    assert lagwave.__version__ == version


def test_readme_library_tour(capsys):
    with open(README) as fh:
        (tour,) = re.findall(r"```python\n(.*?)```", fh.read(), re.S)
    exec(compile(tour, "README.md", "exec"), {})
    report, clean, front, rh = capsys.readouterr().out.splitlines()
    assert "collision_free_ok=True" in report and "cfl_ok=True" in report
    assert clean == "True"
    assert abs(float(front) - 2.5) < 1e-3
    assert rh == "2.5"
