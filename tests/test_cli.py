"""Config parsing, serialization round trips, file outputs, exit codes.

Every refusal of ``main`` is a row of ``REFUSALS``, and one test holds
each row to main's whole contract; a new refusal is one more row.
"""
import ast
import contextlib
import io
import math
import os
import subprocess
import sys
import tempfile
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import lagwave
import reference
from lagwave.cli import (
    load_spec,
    main,
    run,
    serialize,
    stability,
    sweep,
    thresholds,
)
from lagwave.engine import Corrected1, JWZ, NonstandardLWR, Scheme, simulate
from lagwave.fundamental import GreenshieldsFD, KernerFD, TriangularFD
from lagwave.templates import TEMPLATES, template_text
from reference import BASE_SC, make_cfg

MINIMAL = make_cfg()

TINY = make_cfg(scenario={
    "k1": "0.0625", "lead_speed": "0.0", "m": "1", "dn": "1.0",
    "dt": "0.25", "duration": "0.25",
})

DIRTY = make_cfg(
    fd={"type": "triangular"},
    scenario={
        "k1": "0.07142857142857142", "lead_speed": "0.0", "m": "3",
        "dn": "1.0", "dt": "1.0", "duration": "3.0",
    },
    run_sec={"scheme": "forward"},
)

SWEEPABLE = make_cfg(scenario={
    "k1": "0.03571428571428571", "lead_speed": "7.5", "vehicles": "8",
    "dn": "1.0", "dt_ratio": "0.35", "duration": "20.0",
})


def test_templates_all_load_and_round_trip():
    for name in TEMPLATES:
        spec = load_spec(template_text(name))
        again = load_spec(serialize(spec))
        assert again == spec, name


def test_template_names_cover_experiments():
    expected = {
        "greenshields-shock-a", "greenshields-shock-b",
        "triangular-shock-a", "triangular-shock-b",
        "greenshields-discharge", "triangular-discharge",
        "kerner-redlight", "kerner-redlight-coarse",
        "jwz-redlight", "jwz-redlight-corrected1", "jwz-redlight-corrected2",
        "phillips-stability", "nonstandard-stability",
    }
    assert expected <= set(TEMPLATES)


def test_template_override():
    text = "[run]\ntemplate = kerner-redlight\n\n[scenario]\ndt_ratio = 2.0\n"
    spec = load_spec(text)
    assert spec.scenario.dt == pytest.approx(0.2)
    assert isinstance(spec.scenario.fd, KernerFD)
    assert not spec.scenario.fd.clamp_nonnegative


def test_defaults():
    spec = load_spec(MINIMAL)
    assert spec.scenario.m == 50
    assert spec.scheme is Scheme.ANISOTROPIC_SYMPLECTIC
    assert isinstance(spec.model, NonstandardLWR)
    assert spec.display_vehicles == 5
    assert spec.vehicles is None
    assert spec.dt_ratio is None
    assert isinstance(spec.scenario.fd, GreenshieldsFD)


def test_round_trip_with_sweep_and_stability():
    text = make_cfg(
        scenario={
            "k1": "0.03571428571428571", "lead_speed": "7.5", "vehicles": "8",
            "dn": "1.0", "dt_ratio": "0.35", "duration": "20.0",
        },
        run_sec={"model": "jwz", "t": "4.0", "c0": "1.5", "corrected": "1",
                 "sweep": "1.0,0.5"},
        stability_sec={"amplitude": "0.02", "omega": "0.1"},
    )
    spec = load_spec(text)
    assert isinstance(spec.model, Corrected1)
    assert isinstance(spec.model.inner, JWZ)
    assert spec.sweep == (1.0, 0.5)
    assert spec.stability.amplitude == 0.02
    assert load_spec(serialize(spec)) == spec


@pytest.mark.parametrize("text, line", [
    (make_cfg(fd={"type": "kerner", "clamp_nonnegative": "yes"}), "clamp_nonnegative = true"),
    (make_cfg(run_sec={"out": "results"}), "out = results"),
])
def test_round_trip_of_keys_given_by_hand(text, line):
    spec = load_spec(text)
    assert line in serialize(spec).splitlines()
    assert load_spec(serialize(spec)) == spec


def test_template_text_refuses_an_unknown_name():
    with pytest.raises(KeyError, match="no template named 'nope'"):
        template_text("nope")


def test_run_writes_expected_files(tmp_path):
    spec = replace(load_spec(TINY), output_dir=str(tmp_path))
    assert run(spec) == 0
    csv = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert csv == [
        "t,vehicle,N,x,v,a",
        "0,0,0,0,0,0",
        "0,1,1,-16,11.25,0",
        "0.25,0,0,0,0,0",
        "0.25,1,1,-13.1875,11.25,0",
    ]
    summary = (tmp_path / "summary.txt").read_text().splitlines()
    keys = [line.split(" = ")[0] for line in summary]
    assert keys == [
        "measured_shock_speed", "r_squared", "min_spacing", "collision_count",
        "negative_speed_count", "max_abs_accel", "collision_free_threshold",
        "cfl_threshold",
    ]
    assert "collision_count = 0" in summary
    assert "min_spacing = 13.1875" in summary


def test_run_row_count(tmp_path):
    text = TINY.replace("m = 1", "m = 4").replace("duration = 0.25",
                                                  "duration = 0.75")
    spec = replace(load_spec(text), output_dir=str(tmp_path))
    run(spec)
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    # header plus (J+1)(M+1) samples
    assert len(lines) == 1 + 4 * 5


def test_run_deterministic_bytes(tmp_path):
    spec = load_spec(template_text("triangular-shock-b"))
    run(replace(spec, output_dir=str(tmp_path / "a")))
    run(replace(spec, output_dir=str(tmp_path / "b")))
    for name in ("trajectory.csv", "summary.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_sweep_single_point_matches_run(tmp_path):
    spec = load_spec(SWEEPABLE)
    run(replace(spec, output_dir=str(tmp_path / "r")))
    sweep(replace(spec, output_dir=str(tmp_path / "s")), (1.0,))

    summary = dict(
        line.split(" = ")
        for line in (tmp_path / "r" / "summary.txt").read_text().splitlines()
    )
    header, row = (tmp_path / "s" / "sweep.csv").read_text().splitlines()
    assert header == "dn,measured_speed,max_abs_accel,min_spacing,traj_diff_prev"
    dn, speed, _, min_spacing, diff = row.split(",")
    assert dn == "1"
    assert speed == summary["measured_shock_speed"]
    assert min_spacing == summary["min_spacing"]
    assert diff == "nan"
    assert (tmp_path / "s" / "trajectory_dn1.csv").exists()


def test_sweep_difference_never_compares_the_leader(tmp_path):
    # At dn = 2.5 vehicle 1 rounds to slot 0, the leader, so only
    # vehicles 2..5 (slots 1, 1, 2, 2) are compared with the dn = 1 run.
    spec = replace(load_spec(template_text("greenshields-discharge")), output_dir=str(tmp_path))
    sweep(spec, (1.0, 2.5))
    row = (tmp_path / "sweep.csv").read_text().splitlines()[2].split(",")

    a, b = (
        simulate(replace(spec.scenario, dn=dn, dt=spec.dt_ratio * dn, m=round(spec.vehicles / dn)),
                 model=spec.model, scheme=spec.scheme)
        for dn in (1.0, 2.5)
    )
    assert reference.displayed_slots(2.5, b.scenario.m, 5) == {2: 1, 3: 1, 4: 2, 5: 2}
    assert row[0] == "2.5"
    assert float(row[4]) == reference.traj_diff(a, b)


def test_thresholds_output(tmp_path):
    spec = replace(load_spec(TINY), output_dir=str(tmp_path))
    assert thresholds(spec) == 0
    text = (tmp_path / "thresholds.txt").read_text()
    assert "rate = 4" in text
    assert "collision_free_ok = true" in text
    assert "cfl_ok = true" in text
    assert "concave = true" in text


@pytest.mark.parametrize("name", ["greenshields-shock-a", "kerner-redlight"])
def test_thresholds_file_is_the_step_size_report_in_field_order(name, tmp_path):
    # thresholds.txt renders StepSizeReport field by field, so a condition
    # added to the report is a line added to the file.
    spec = replace(load_spec(template_text(name)), output_dir=str(tmp_path))
    assert thresholds(spec) == 0
    keys = [line.split(" = ")[0] for line in (tmp_path / "thresholds.txt").read_text().splitlines()]
    assert keys == [f.name for f in fields(lagwave.StepSizeReport)]


def test_stability_output(tmp_path):
    spec = load_spec(template_text("nonstandard-stability"))
    spec = replace(spec, output_dir=str(tmp_path))
    assert stability(spec) == 0
    text = (tmp_path / "stability.txt").read_text()
    assert "amplification_ratio = 0.99273" in text
    assert "predicted_ratio = " in text


def test_main_run_exit_codes(tmp_path, capsys):
    cfg = tmp_path / "tiny.ini"
    cfg.write_text(TINY)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    assert (out / "trajectory.csv").exists()
    captured = capsys.readouterr()
    assert "min_spacing" in captured.out


def test_main_expect_clean_failure(tmp_path, capsys):
    cfg = tmp_path / "dirty.ini"
    cfg.write_text(DIRTY)
    code = main(["run", str(cfg), "--out", str(tmp_path / "d"), "--expect-clean"])
    assert code == 2
    assert "expected clean" in capsys.readouterr().err


def _t(template: str, text: str = "") -> str:
    """Config text that names the bundled ``template`` in [run], then ``text``."""
    return f"[run]\ntemplate = {template}\n" + text


OUT = ("--out", "out")
# A UTF-16 byte order mark: not UTF-8, and under a Latin-1 locale a line
# before the first section header.
NOT_UTF8 = b"\xff\xfe[fd]\n"
_FREE_FLOW = "[fd]\ntype = triangular\n[scenario]\nk1 = 0.02\n"
_NO_RESPONSE = "a follower shows no oscillation: the window is too short or the followers do not respond"
_GRID = " grid of duration / dt steps and m slots: "
_NOT_FINITE = "invalid scenario: the step count duration / dt is not finite"
_INTP_MAX = f">{np.iinfo(np.intp).max}"
_SLOTS = "{}: the slot count vehicles / dn is too large for a float\n"
_TWINS = "sweep dn values 1.0000001 and 1.0000002 both write trajectory_dn1.csv\n"

# Every refusal of main: id -> (verb, config, arguments after it, the start
# of the error line after "error: ").  A start ending in a newline is the
# whole line.  A config holding a newline, or bytes, is the text of
# cfg.ini; any other is passed as it is, a template name or a path.
REFUSALS = {
    # The config argument and its text.
    "no-such-config": ("run", "no-such-template", OUT, "no such config file or template: 'no-such-template'\n"),
    "config-is-a-directory": ("run", ".", OUT, "[Errno"),
    # Its message depends on the locale.
    "config-not-utf8": ("run", NOT_UTF8, OUT, ""),
    "no-section-header": ("run", "k1 = 0.1\n[fd]\ntype = greenshields\n", OUT,
                          "malformed config: File contains no section headers."
                          " file: '<string>', line: 1 'k1 = 0.1\\n'\n"),
    "unparseable-lines": ("thresholds", _t("greenshields-shock-a", "no separator\nnor here\n"), OUT,
                          "malformed config: Source contains parsing errors: '<string>'"
                          " [line  3]: 'no separator\\n' [line  4]: 'nor here\\n'\n"),
    "fd-v-nan": ("run", make_cfg(fd={"type": "greenshields", "v": "nan"}), OUT,
                 "invalid fd: V must be finite, got nan\n"),
    "fd-k-zero": ("run", make_cfg(fd={"type": "greenshields", "k": "0"}), OUT,
                  "invalid fd: K must be positive, got 0.0\n"),
    # A negative initial_speed ran, and a "startup wave" was fitted to followers moving backwards.
    "initial-speed-negative": ("run", _t("greenshields-shock-a", "[scenario]\ninitial_speed = -5\n"), OUT,
                               "invalid scenario: initial_speed must be nonnegative\n"),
    "vehicles-negative": ("run", _t("greenshields-shock-a", "[scenario]\nvehicles = -3\n"), OUT,
                          "keys scenario.vehicles and scenario.dn: vehicles must be nonnegative, got -3\n"),
    "phillips-t-negative": ("run", _t("phillips-stability", "model = phillips\nt = -1\n"), OUT,
                            "invalid model: T must be positive"),
    "phillips-t-zero": ("run", _t("phillips-stability", "model = phillips\nt = 0\n"), OUT,
                        "invalid model: T must be positive"),
    "phillips-t-nan": ("run", _t("phillips-stability", "model = phillips\nt = nan\n"), OUT,
                       "invalid model: T must be finite"),
    "jwz-c0-inf": ("run", _t("phillips-stability", "model = jwz\nc0 = inf\n"), OUT, "invalid model: c0 must be finite"),
    # The output directory; os.makedirs raised ValueError on the NUL, a traceback with exit 1.
    "out-is-a-file": ("thresholds", _t("greenshields-discharge"), ("--out", "cfg.ini"), "[Errno"),
    "nul-in-out-run": ("run", _t("greenshields-shock-a", "out = a\0b\n"), (), "embedded null byte\n"),
    "nul-in-out-thresholds": ("thresholds", _t("greenshields-shock-a", "out = a\0b\n"), (), "embedded null byte\n"),
    # The dn values of a sweep.
    "sweep-without-dn": ("sweep", SWEEPABLE, OUT, "sweep needs --dn or a sweep key in [run]\n"),
    "sweep-dn-not-a-number": ("sweep", SWEEPABLE, (*OUT, "--dn", "0.5,abc"), "key run.sweep is not a number: 'abc'\n"),
    "sweep-dn-nan": ("sweep", "greenshields-discharge", (*OUT, "--dn", "nan"),
                     "sweep dn values must be positive and finite\n"),
    "sweep-dn-inf": ("sweep", "greenshields-discharge", (*OUT, "--dn", "inf"),
                     "sweep dn values must be positive and finite\n"),
    "sweep-empty": ("sweep", SWEEPABLE + "\n[run]\nsweep =\n", OUT, "sweep needs at least one dn value\n"),
    "sweep-dn-empty": ("sweep", "greenshields-discharge", (*OUT, "--dn", ","), "sweep needs at least one dn value\n"),
    # Both values are written as trajectory_dn1.csv, so the second run replaced the first.
    "sweep-twins": ("sweep", _t("greenshields-discharge", "sweep = 1.0000001,1.0000002\n"), OUT, _TWINS),
    "sweep-dn-twins": ("sweep", _t("greenshields-discharge"), (*OUT, "--dn", "1.0000001,1.0000002"), _TWINS),
    # A sweep rebuilds the scenario at each dn from vehicles and dt_ratio.
    "sweep-without-dt-ratio": ("sweep", MINIMAL, (*OUT, "--dn", "1.0,0.5"),
                               "sweep requires scenario.dt_ratio (fixed dt/dn ratio)\n"),
    "sweep-without-vehicles": ("sweep", MINIMAL.replace("dt = 0.35", "dt_ratio = 0.35"), (*OUT, "--dn", "1.0,0.5"),
                               "sweep requires scenario.vehicles (whole-vehicle count)\n"),
    # round(vehicles / dn) raised OverflowError, a traceback with exit 1.
    "slots-vehicles": ("thresholds", _t("greenshields-discharge", "[scenario]\nvehicles = 1" + "0" * 400 + "\n"),
                       OUT, _SLOTS.format("keys scenario.vehicles and scenario.dn")),
    "slots-dn": ("thresholds", _t("greenshields-discharge", "[scenario]\ndn = 1e-320\n"), OUT,
                 _SLOTS.format("keys scenario.vehicles and scenario.dn")),
    "slots-sweep": ("sweep", _t("greenshields-discharge", "sweep = 1,1e-320\n"), OUT,
                    _SLOTS.format("key run.sweep value 1e-320")),
    "slots-sweep-dn": ("sweep", _t("greenshields-discharge"), (*OUT, "--dn", "1e-320"),
                       _SLOTS.format("key run.sweep value 1e-320")),
    # Grids that cannot be stepped ended in a traceback: OverflowError from
    # Scenario.steps, or numpy's MemoryError or ValueError.  numpy refuses
    # every one of these shapes before touching memory.  A sweep refused at
    # a later dn wrote and printed the dn values before it.  A count past
    # the dimension limit was printed in full, 302 and 401 digits.
    "run-steps-overflow": ("run", _t("greenshields-shock-a", "[scenario]\ndt_ratio = 1e-320\n"), OUT, _NOT_FINITE),
    "run-unable-to-allocate": ("run", _t("greenshields-shock-a", "[scenario]\ndt_ratio = 1e-12\n"), OUT,
                               "numpy cannot allocate the (416000000000001, 161)" + _GRID),
    "run-dimension-limit": ("run", _t("kerner-redlight", "[scenario]\nm = 1" + "0" * 30 + "\n"), OUT,
                            f"numpy cannot allocate the (24001, {_INTP_MAX})" + _GRID),
    "run-steps-past-the-dimension-limit": ("run", _t("greenshields-shock-a", "[scenario]\nduration = 1e300\n"), OUT,
                                           f"numpy cannot allocate the ({_INTP_MAX}, 161)" + _GRID),
    "run-slots-past-the-dimension-limit": ("run", _t("kerner-redlight", "[scenario]\nm = 1" + "0" * 400 + "\n"), OUT,
                                           f"numpy cannot allocate the (24001, {_INTP_MAX})" + _GRID),
    "sweep-unable-to-allocate": ("sweep", _t("greenshields-shock-a", "[scenario]\ndt_ratio = 1e-12\n"),
                                 (*OUT, "--dn", "1"), "numpy cannot allocate the (26000000000001, 11)" + _GRID),
    "sweep-later-dn": ("sweep", _t("greenshields-discharge"), (*OUT, "--dn", "1,1e-12"),
                       "numpy cannot allocate the (14285714285716, 10000000000001)" + _GRID),
    "stability-lead": ("stability", _t("phillips-stability", "[scenario]\ndt_ratio = 1e-12\n"), OUT,
                       "numpy cannot allocate the 1200000000000000 lead speeds of duration / dt steps: "),
    "stability-grid": ("stability", _t("phillips-stability", "[scenario]\nm = 1" + "0" * 30 + "\n"), OUT,
                       f"numpy cannot allocate the (3430, {_INTP_MAX})" + _GRID),
    "stability-lead-dimension-limit": ("stability", _t("phillips-stability", "[scenario]\nduration = 1e300\n"), OUT,
                                       f"numpy cannot allocate the {_INTP_MAX} lead speeds of duration / dt steps: "),
    # The stability experiment.
    "no-stability-section": ("stability", MINIMAL, OUT, "config has no [stability] section\n"),
    "amplitude-negative": ("stability", _t("phillips-stability", "[stability]\namplitude = -0.5\n"), OUT,
                           "invalid stability: amplitude must be nonnegative"),
    "amplitude-nan": ("stability", _t("phillips-stability", "[stability]\namplitude = nan\n"), OUT,
                      "invalid stability: amplitude must be finite"),
    "omega-nan": ("stability", _t("phillips-stability", "[stability]\nomega = nan\n"), OUT,
                  "invalid stability: omega must be finite"),
    "omega-overflows": ("stability", _t("phillips-stability", "[stability]\nomega = 1e308\n"), OUT,
                        "omega is too large: the phase omega * J * dt overflows"),
    "one-follower": ("stability", _t("phillips-stability", "[scenario]\nm = 1\n"), OUT, "need at least two followers"),
    "collides": ("stability", _t("phillips-stability", "[stability]\namplitude = 3.0\nomega = 0.3\n"), OUT,
                 "platoon collided"),
    "scheme-forward": ("stability", _t("nonstandard-stability", "scheme = forward\n"), OUT,
                       "stability runs only run.scheme anisotropic"),
    "scheme-harmonic": ("stability", _t("nonstandard-stability", "scheme = harmonic\n"), OUT,
                        "stability runs only run.scheme anisotropic"),
    "lead-speed-with-initial-speed": (
        "stability", _t("nonstandard-stability", "[scenario]\nlead_speed = 3.0\ninitial_speed = 0.0\n"), OUT,
        "stability starts the followers in equilibrium"),
    "initial-speed": ("stability", _t("phillips-stability", "[scenario]\ninitial_speed = 5.0\n"), OUT,
                      "stability starts the followers in equilibrium"),
    # theta'(1/k1) = 0 raised ZeroDivisionError, and the overflowing exponent
    # printed numpy's RuntimeWarning above the error line.
    "free-flow-nonstandard": ("stability", _t("nonstandard-stability", _FREE_FLOW), OUT, _NO_RESPONSE),
    "free-flow-phillips": ("stability", _t("nonstandard-stability", "model = phillips\nt = 5\n" + _FREE_FLOW), OUT,
                           _NO_RESPONSE),
    "slope-underflow": ("stability", _t("nonstandard-stability", "[scenario]\nk1 = 1e-200\n"), OUT, _NO_RESPONSE),
    "exponent-overflow": ("stability", _t("nonstandard-stability", "[fd]\nk = 100\n[scenario]\nk1 = 1e-12\n"), OUT,
                          _NO_RESPONSE),
}


@pytest.mark.parametrize("verb, config, args, message", REFUSALS.values(), ids=REFUSALS)
def test_main_refuses_with_one_error_line_and_no_output(verb, config, args, message, tmp_path, monkeypatch, capsys):
    # main's whole contract for a refusal: exit 2, nothing on stdout, one
    # error line on stderr, no warning and nothing written.
    monkeypatch.chdir(tmp_path)
    if isinstance(config, bytes) or "\n" in config:
        (tmp_path / "cfg.ini").write_bytes(config if isinstance(config, bytes) else config.encode())
        config = "cfg.ini"
    before = sorted(os.listdir())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([verb, config, *args])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("error: " + message) and err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err
    assert sorted(os.listdir()) == before


def test_main_jwz_stability_where_theta_prime_is_zero(tmp_path, capsys):
    # theta'(1/k1) = 0 raised ZeroDivisionError; JWZ's is the one free-flow
    # case that runs, and it predicts the ratio inf.
    cfg = tmp_path / "flat.ini"
    cfg.write_text(_t("nonstandard-stability", "model = jwz\nt = 5\nc0 = 2\n" + _FREE_FLOW))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["stability", str(cfg), "--out", str(tmp_path / "x")]) == 0
    assert capsys.readouterr().err == ""
    assert "predicted_ratio = inf\n" in (tmp_path / "x" / "stability.txt").read_text()


def test_main_accepts_bare_template_name(tmp_path):
    out = tmp_path / "thr"
    assert main(["thresholds", "triangular-shock-a", "--out", str(out)]) == 0
    assert (out / "thresholds.txt").exists()


def test_thresholds_at_newell_rate_is_collision_free(tmp_path):
    # dn/dt = W*K exactly: Newell's model, which runs clean.
    fd = TriangularFD()
    cfg = tmp_path / "newell.ini"
    cfg.write_text(make_cfg(fd={"type": "triangular"}, scenario={**BASE_SC, "dn": repr(fd.W * fd.K), "dt": "1.0"}))
    assert main(["thresholds", str(cfg), "--out", str(tmp_path / "thr")]) == 0
    lines = (tmp_path / "thr" / "thresholds.txt").read_text().splitlines()
    assert f"collision_free_threshold = {fd.W * fd.K:.17g}" in lines
    assert "collision_free_ok = true" in lines
    assert "cfl_ok = true" in lines


def test_thresholds_report_no_collision_free_rate_where_the_diagram_moves_at_jam(tmp_path):
    # This sigmoid still moves at jam density; the threshold used to read 9.4087735584327472.
    cfg = tmp_path / "moving.ini"
    cfg.write_text("[run]\ntemplate = kerner-redlight\n[fd]\nc3 = 0.07\n")
    assert main(["thresholds", str(cfg), "--out", str(tmp_path / "thr")]) == 0
    lines = (tmp_path / "thr" / "thresholds.txt").read_text().splitlines()
    assert "collision_free_threshold = inf" in lines
    assert "collision_free_ok = false" in lines


def test_thresholds_call_a_steep_triangular_diagram_concave(tmp_path):
    # k*eta'' + 2*eta' cancels exactly on the congested branch, and here
    # its rounding error exceeds a numerical test's 1e-9 slack.
    cfg = tmp_path / "steep.ini"
    fd = {"type": "triangular", "v": "100.0", "w": "1.0", "k": "0.001"}
    cfg.write_text(make_cfg(fd=fd, scenario={**BASE_SC, "k1": "0.0005"}))
    assert main(["thresholds", str(cfg), "--out", str(tmp_path / "thr")]) == 0
    assert "concave = true" in (tmp_path / "thr" / "thresholds.txt").read_text().splitlines()


def test_main_reuses_one_parser(tmp_path, capsys):
    from lagwave.cli import _parser

    cfg = tmp_path / "sweepable.ini"
    cfg.write_text(SWEEPABLE)
    calls = [
        ("thresholds", "triangular-shock-a", ("thresholds.txt",)),
        ("run", str(cfg), ("trajectory.csv", "summary.txt")),
        ("stability", "nonstandard-stability", ("stability.txt",)),
    ]
    src = os.path.dirname(os.path.dirname(os.path.abspath(lagwave.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for i, (verb, config, names) in enumerate(calls):
        alone, together = tmp_path / f"alone{i}", tmp_path / f"together{i}"
        subprocess.run([sys.executable, "-m", "lagwave", verb, config, "--out", str(alone)],
                       capture_output=True, env=env, check=True)
        assert main([verb, config, "--out", str(together)]) == 0
        for name in names:
            assert (together / name).read_bytes() == (alone / name).read_bytes()

    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-verb", "triangular-shock-a"])
        assert exc.value.code == 2
    assert "invalid choice: 'no-such-verb'" in capsys.readouterr().err
    assert main(["thresholds", "kerner-redlight", "--out", str(tmp_path / "after")]) == 0
    assert _parser() is _parser()


def test_main_sweep_dn_flag(tmp_path):
    cfg = tmp_path / "sw.ini"
    cfg.write_text(SWEEPABLE)
    out = tmp_path / "sw"
    assert main(["sweep", str(cfg), "--out", str(out), "--dn", "1.0,0.5"]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3
    # second row's trajectory difference against the first is finite
    assert not math.isnan(float(lines[2].split(",")[4]))


@pytest.mark.parametrize("dn", ["1,10", "10,1"])
def test_main_sweep_difference_without_a_shared_vehicle_is_nan(dn, tmp_path):
    # At dn = 10 no whole vehicle has a follower's slot; its difference read 0.
    cfg = tmp_path / "sw.ini"
    cfg.write_text(SWEEPABLE)
    assert main(["sweep", str(cfg), "--out", str(tmp_path / "sw"), "--dn", dn]) == 0
    rows = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
    assert [row.split(",")[4] for row in rows] == ["traj_diff_prev", "nan", "nan"]


def test_main_sweep_of_no_steps_writes_nan_peaks(tmp_path):
    # A run of duration 0 exits 0; its sweep exited 2 with numpy's "zero-size
    # array to reduction operation maximum which has no identity".
    cfg = tmp_path / "zero.ini"
    cfg.write_text("[run]\ntemplate = greenshields-discharge\n[scenario]\nduration = 0\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "run")]) == 0
    assert main(["sweep", str(cfg), "--out", str(tmp_path / "x"), "--dn", "1,0.5"]) == 0
    rows = (tmp_path / "x" / "sweep.csv").read_text().splitlines()
    assert [row.split(",")[2] for row in rows] == ["max_abs_accel", "nan", "nan"]


def test_cli_imports_no_numpy():
    # cli only parses configs, formats and writes; array work belongs to the library modules.
    with open(lagwave.cli.__file__) as fh:
        tree = ast.parse(fh.read())
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module}
    assert {"argparse", "engine", "analysis"} <= modules
    assert not [m for m in modules if m.split(".")[0] == "numpy"]


def test_perfbench_tracer_installs():
    # The tracer patches names on lagwave.cli with no hasattr guard, so a
    # name that cli stops importing breaks every traced benchmark run; its
    # metrics read cache_info() on the three threshold functions, so must they.
    src = os.path.dirname(os.path.dirname(os.path.abspath(lagwave.__file__)))
    perfbench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
    code = ("import collections, tracing; tracing.Tracer().install(); "
            "tracing.layer_metrics([], collections.Counter(), 0.0, 0, 0)")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": os.pathsep.join([perfbench, src])},
        check=False,
    )
    assert proc.returncode == 0, proc.stderr


def test_python_dash_m_lagwave(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(lagwave.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "lagwave", "thresholds", "greenshields-shock-a", "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert (tmp_path / "thresholds.txt").exists()


def test_python_dash_m_lagwave_on_a_config_that_is_not_utf8(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(lagwave.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    cfg = tmp_path / "latin.ini"
    cfg.write_bytes(NOT_UTF8)
    proc = subprocess.run(
        [sys.executable, "-m", "lagwave", "run", str(cfg), "--out", str(tmp_path / "x")],
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


@pytest.mark.parametrize("verb", ["run", "thresholds"])
def test_main_steep_sigmoid_prints_no_warning(verb, tmp_path, capsys):
    # exp overflows to inf on this sigmoid, its exact limit; numpy printed two
    # RuntimeWarnings above the output.
    cfg = tmp_path / "steep.ini"
    cfg.write_text("[run]\ntemplate = kerner-redlight\n[fd]\nc3 = 1e-12\n[scenario]\nduration = 3\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([verb, str(cfg), "--out", str(tmp_path / "x")]) == 0
    assert capsys.readouterr().err == ""


_CASES = [
    (name, verb)
    for name in sorted(TEMPLATES)
    for verb in (("stability", "run", "thresholds") if "stability" in reference.template_verbs(name)
                 else ("run", "thresholds", "sweep"))
]
_NUMBERS = ["0", "-1", "nan", "inf", "1e-300", "1e-200", "1e300", "1e-12", "0.02", "0.5", "3", "100"]
# The step sizes leave out small positive values such as 1e-3: numpy
# allocates their grids, which take minutes to step.
_STEP_SIZES = ["0", "-1", "nan", "inf", "1e-300", "1e-200", "1e300", "0.5", "3", "100"]
_VALUES = {
    ("fd", "type"): ["greenshields", "triangular", "kerner"],
    ("fd", "clamp_nonnegative"): ["true", "false"],
    ("run", "model"): ["nonstandard", "phillips", "jwz"],
    ("run", "corrected"): ["none", "1", "2"],
    ("run", "scheme"): ["anisotropic", "forward", "harmonic"],
    **{key: _NUMBERS for key in [
        ("fd", "v"), ("fd", "w"), ("fd", "k"), ("fd", "c3"), ("scenario", "k1"), ("scenario", "lead_speed"),
        ("scenario", "initial_speed"), ("scenario", "m"), ("scenario", "vehicles"), ("run", "t"), ("run", "c0"),
        ("run", "display_vehicles"), ("stability", "amplitude"), ("stability", "omega"),
    ]},
    **{key: _STEP_SIZES for key in [("scenario", "dn"), ("scenario", "dt_ratio")]},
}
_OVERRIDE = st.sampled_from(sorted(_VALUES)).flatmap(lambda key: st.tuples(st.just(key), st.sampled_from(_VALUES[key])))


@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from(_CASES), overrides=st.lists(_OVERRIDE, min_size=1, max_size=2))
@example(case=("nonstandard-stability", "stability"),
         overrides=[(("fd", "type"), "triangular"), (("scenario", "k1"), "0.02")])
@example(case=("nonstandard-stability", "stability"), overrides=[(("scenario", "k1"), "1e-200")])
@example(case=("nonstandard-stability", "stability"), overrides=[(("fd", "k"), "100"), (("scenario", "k1"), "1e-12")])
@example(case=("phillips-stability", "stability"), overrides=[(("stability", "omega"), "1e300")])
def test_main_returns_0_or_2_and_raises_nothing(case, overrides):
    template, verb = case
    sections = {"run": {"template": template}, "scenario": {"duration": "60" if verb == "stability" else "3"}}
    for (section, key), value in overrides:
        sections.setdefault(section, {})[key] = value
    text = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) for name, keys in sections.items())
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "fuzz.ini")
        with open(cfg, "w") as fh:
            fh.write(text)
        args = [verb, cfg, "--out", os.path.join(tmp, "out")] + (["--dn", "1,0.5"] if verb == "sweep" else [])
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(args)
    assert code in (0, 2)
    assert code == 0 or err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def test_config_parser_is_shared_safely_between_threads():
    # Four threads on two cores, switching every microsecond, each load
    # the templates in its own order through the one parser.
    from concurrent.futures import ThreadPoolExecutor

    names = sorted(TEMPLATES)
    expected = {name: load_spec(template_text(name)) for name in names}

    def load_all(offset):
        order = names[offset:] + names[:offset]
        return all(load_spec(template_text(name)) == expected[name] for name in order * 3)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = [f.result(timeout=60) for f in [pool.submit(load_all, k) for k in range(4)]]
    finally:
        sys.setswitchinterval(interval)
    assert all(results)
