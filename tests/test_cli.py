"""Config parsing, serialization round trips, file outputs, exit codes."""
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
    ConfigError,
    StabilitySpec,
    load_spec,
    main,
    run,
    serialize,
    stability,
    sweep,
    thresholds,
)
from lagwave.engine import Corrected1, JWZ, NonstandardLWR, PhillipsRelax, Scheme, simulate
from lagwave.fundamental import GreenshieldsFD, KernerFD, TriangularFD
from lagwave.templates import TEMPLATES, template_text

BASE_SC = {
    "k1": "0.05", "lead_speed": "5.0", "dn": "1.0", "dt": "0.35",
    "duration": "2.0",
}


def make_cfg(fd=None, scenario=None, run_sec=None, stability_sec=None, extra=""):
    fd = {"type": "greenshields"} if fd is None else fd
    scenario = dict(BASE_SC) if scenario is None else scenario
    parts = ["[fd]"] + [f"{k} = {v}" for k, v in fd.items()]
    parts += ["", "[scenario]"] + [f"{k} = {v}" for k, v in scenario.items()]
    if run_sec:
        parts += ["", "[run]"] + [f"{k} = {v}" for k, v in run_sec.items()]
    if stability_sec:
        parts += ["", "[stability]"] + [f"{k} = {v}" for k, v in stability_sec.items()]
    return "\n".join(parts) + "\n" + extra


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


def test_serialize_refuses_an_unregistered_diagram():
    class Unlisted(GreenshieldsFD):
        pass

    spec = load_spec(MINIMAL)
    spec = replace(spec, scenario=replace(spec.scenario, fd=Unlisted()))
    with pytest.raises(ConfigError, match="cannot serialize diagram"):
        serialize(spec)


def test_template_text_refuses_an_unknown_name():
    with pytest.raises(KeyError, match="no template named 'nope'"):
        template_text("nope")


def _keys(cls):
    return {f.name.lower() for f in fields(cls)}


# Config keys are the dataclass fields in lower case: every key of another
# diagram type or model, and one that is no field at all, must be refused,
# and every [stability] field is required.
DIAGRAMS = {"greenshields": GreenshieldsFD, "triangular": TriangularFD, "kerner": KernerFD}
MODELS = {"nonstandard": NonstandardLWR, "phillips": PhillipsRelax, "jwz": JWZ}
FD_KEYS = set().union(*map(_keys, DIAGRAMS.values()))
MODEL_KEYS = set().union(*map(_keys, MODELS.values()))
FIELD_CASES = [
    (make_cfg(fd={"type": kind, key: "1"}), f"fd.{key}")
    for kind, cls in DIAGRAMS.items()
    for key in sorted(FD_KEYS - _keys(cls)) + ["bogus"]
] + [
    (make_cfg(run_sec={"model": name, key: "1"}), f"run.{key}")
    for name, cls in MODELS.items()
    for key in sorted(MODEL_KEYS - _keys(cls)) + ["bogus"]
] + [
    (make_cfg(stability_sec={k: "0.1" for k in _keys(StabilitySpec) - {key}}),
     f"missing required key stability.{key}")
    for key in sorted(_keys(StabilitySpec))
]


@pytest.mark.parametrize("text,fragment", [
    ("", "required"),
    (make_cfg(fd={"type": "parabolic"}), "fd.type"),
    (make_cfg(fd={"type": "greenshields", "w": "5"}), "fd.w"),
    (make_cfg(scenario={**BASE_SC, "foo": "1"}), "scenario.foo"),
    (make_cfg(run_sec={"bar": "1"}), "run.bar"),
    (make_cfg(extra="\n[plot]\nstyle = x\n"), "plot"),
    (make_cfg(scenario={**BASE_SC, "k1": "abc"}), "not a number"),
    (make_cfg(fd={"type": "greenshields", "v": "nan"}), "invalid fd: V must be finite"),
    (make_cfg(fd={"type": "greenshields", "k": "0"}), "invalid fd: K must be positive"),
    (make_cfg(fd={"type": "triangular", "w": "-5"}), "invalid fd: W must be positive"),
    (make_cfg(fd={"type": "kerner", "relax_time": "inf"}), "invalid fd: relax_time must be finite"),
    (make_cfg(scenario={**BASE_SC, "k1": "0.5"}), "invalid scenario"),
    (make_cfg(scenario={**BASE_SC, "dt_ratio": "0.35"}), "exactly one"),
    (make_cfg(scenario={k: v for k, v in BASE_SC.items() if k != "dt"}), "dt"),
    (make_cfg(scenario={**BASE_SC, "m": "5", "vehicles": "5"}), "at most one"),
    (make_cfg(scenario={**BASE_SC, "vehicles": "-3"}),
     "keys scenario.vehicles and scenario.dn: vehicles must be nonnegative, got -3"),
    (make_cfg(run_sec={"t": "5.0"}), "run.t"),
    (make_cfg(run_sec={"model": "phillips", "c0": "2.0"}), "run.c0"),
    (make_cfg(run_sec={"corrected": "3"}), "corrected"),
    (make_cfg(run_sec={"scheme": "leapfrog"}), "scheme"),
    (make_cfg(run_sec={"model": "phillips", "scheme": "forward"}), "scheme"),
    ("[run]\ntemplate = no-such-thing\n", "template"),
    (make_cfg(run_sec={"sweep": "1.0,1.0"}), "distinct"),
    (make_cfg(run_sec={"sweep": "-1.0"}), "positive"),
    (make_cfg(run_sec={"sweep": "1.0,nan"}), "finite"),
    (make_cfg(run_sec={"sweep": "inf"}), "finite"),
    (make_cfg(run_sec={"sweep": ""}), "sweep needs at least one dn value"),
    (make_cfg(run_sec={"sweep": "1.0000001,1.0000002"}),
     "sweep dn values 1.0000001 and 1.0000002 both write trajectory_dn1.csv"),
    (make_cfg(scenario={**BASE_SC, "m": "2.5"}), "key scenario.m is not an integer: '2.5'"),
    (make_cfg(fd={"type": "kerner", "clamp_nonnegative": "maybe"}),
     "key fd.clamp_nonnegative is not a boolean: 'maybe'"),
    ("[fd\ntype = greenshields\n", "malformed config: "),
    (make_cfg(fd={}), "missing required key fd.type"),
    (make_cfg(scenario={k: v for k, v in BASE_SC.items() if k != "dn"}), "missing required key scenario.dn"),
    (make_cfg(run_sec={"display_vehicles": "0"}), "key run.display_vehicles must be at least 1"),
    (make_cfg(scenario={**BASE_SC, "dn": "nan", "vehicles": "10"}), "scenario.dn must be positive and finite"),
    (make_cfg(scenario={**BASE_SC, "dn": "inf", "vehicles": "10"}), "scenario.dn must be positive and finite"),
    (make_cfg(stability_sec={"amplitude": "0.02"}), "stability.omega"),
    (make_cfg(stability_sec={"amplitude": "0.02", "omega": "0.1", "phase": "0"}),
     "stability.phase"),
    (make_cfg(run_sec={"model": "phillips", "t": "-1"}), "invalid model: T must be positive"),
    (make_cfg(run_sec={"model": "phillips", "t": "0"}), "invalid model: T must be positive"),
    (make_cfg(run_sec={"model": "phillips", "t": "nan"}), "invalid model: T must be finite"),
    (make_cfg(run_sec={"model": "jwz", "c0": "inf"}), "invalid model: c0 must be finite"),
    (make_cfg(stability_sec={"amplitude": "-0.5", "omega": "0.1"}),
     "invalid stability: amplitude must be nonnegative"),
    (make_cfg(stability_sec={"amplitude": "nan", "omega": "0.1"}),
     "invalid stability: amplitude must be finite"),
    (make_cfg(stability_sec={"amplitude": "0.02", "omega": "nan"}),
     "invalid stability: omega must be finite"),
] + FIELD_CASES)
def test_config_errors(text, fragment):
    with pytest.raises(ConfigError) as exc_info:
        load_spec(text)
    assert fragment in str(exc_info.value)


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


def test_sweep_requires_relative_spec():
    spec = load_spec(MINIMAL)
    with pytest.raises(ConfigError, match="dt_ratio"):
        sweep(spec, (1.0, 0.5))
    spec = load_spec(MINIMAL.replace("dt = 0.35", "dt_ratio = 0.35"))
    with pytest.raises(ConfigError, match="vehicles"):
        sweep(spec, (1.0, 0.5))


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


def test_stability_requires_section():
    with pytest.raises(ConfigError, match="stability"):
        stability(load_spec(MINIMAL))


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


def test_main_bad_config_exits_2(capsys):
    assert main(["run", "no-such-template"]) == 2
    assert "error:" in capsys.readouterr().err


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


# load_spec reuses one ConfigParser per process.  A config that fails,
# or that sets [DEFAULT] keys, must leave nothing in it for the next one.
@pytest.mark.parametrize("text, message", [
    ("[fd]\ntype = greenshields\ntype = triangular\n",
     "malformed config: While reading from '<string>' [line  3]: option 'type' in section 'fd' already exists"),
    ("[run]\ntemplate = greenshields-shock-a\n[run]\nmodel = jwz\n",
     "malformed config: While reading from '<string>' [line  3]: section 'run' already exists"),
    ("[DEFAULT]\nv = 20.0\n\n[run]\ntemplate = greenshields-shock-a\n", "unknown key run.v for model 'nonstandard'"),
    # a section's own keys are checked before the [DEFAULT] keys it inherits
    ("[DEFAULT]\nv = 20.0\n" + MINIMAL + "qq = 3\n", "unknown key scenario.qq"),
    ("[run]\ntemplate = greenshields-shock-a\nthis line has no separator\n",
     "malformed config: Source contains parsing errors: '<string>'\n\t[line  3]: 'this line has no separator\\n'"),
], ids=["duplicate-key", "duplicate-section", "default-key", "default-key-order", "malformed-line"])
def test_config_errors_leave_the_parser_clean(tmp_path, capsys, text, message):
    from lagwave.cli import _config_parser

    with pytest.raises(ConfigError) as exc_info:
        load_spec(text)
    assert str(exc_info.value) == message
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text)
    assert main(["thresholds", str(cfg), "--out", str(tmp_path / "thr")]) == 2
    assert message.splitlines()[0] in capsys.readouterr().err

    clean = template_text("greenshields-shock-a")
    after = load_spec(clean)
    parser, _ = _config_parser()
    _config_parser.cache_clear()
    assert _config_parser()[0] is not parser
    assert after == load_spec(clean)
    # a bare [DEFAULT] header defines no key, so it still loads
    assert load_spec("[DEFAULT]\n" + clean) == after


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


def test_main_sweep_needs_dn_somewhere(tmp_path, capsys):
    cfg = tmp_path / "sw.ini"
    cfg.write_text(SWEEPABLE)
    assert main(["sweep", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert "sweep" in capsys.readouterr().err


def test_main_sweep_bad_dn_exits_2(tmp_path, capsys):
    cfg = tmp_path / "sw.ini"
    cfg.write_text(SWEEPABLE)
    assert main(["sweep", str(cfg), "--out", str(tmp_path / "x"), "--dn", "0.5,abc"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'abc'" in err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_main_sweep_nonfinite_dn_exits_2(tmp_path, capsys, value):
    assert main(["sweep", "greenshields-discharge", "--out", str(tmp_path / "x"), "--dn", value]) == 2
    assert capsys.readouterr().err.startswith("error: sweep dn values must be positive and finite")
    assert not (tmp_path / "x").exists()


def test_main_empty_sweep_exits_2(tmp_path, capsys):
    cfg = tmp_path / "sw.ini"
    cfg.write_text(SWEEPABLE + "\n[run]\nsweep =\n")
    for args in (["sweep", str(cfg)], ["sweep", "greenshields-discharge", "--dn", ","]):
        assert main(args + ["--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == "error: sweep needs at least one dn value\n"
    assert not (tmp_path / "x").exists()


def test_main_file_system_errors_exit_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["thresholds", "greenshields-discharge", "--out", str(taken)]) == 2
    assert capsys.readouterr().err.startswith("error: [Errno")
    assert main(["run", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: [Errno")


@pytest.mark.parametrize("verb, override, dn, keys", [
    ("thresholds", "[scenario]\nvehicles = 1" + "0" * 400 + "\n", [], "keys scenario.vehicles and scenario.dn"),
    ("thresholds", "[scenario]\ndn = 1e-320\n", [], "keys scenario.vehicles and scenario.dn"),
    ("sweep", "sweep = 1,1e-320\n", [], "key run.sweep value 1e-320"),
    ("sweep", "", ["--dn", "1e-320"], "key run.sweep value 1e-320"),
], ids=["vehicles", "dn", "run.sweep", "--dn"])
def test_main_slot_count_overflow_exits_2(verb, override, dn, keys, tmp_path, capsys):
    # round(vehicles / dn) raised OverflowError, a traceback with exit 1
    cfg = tmp_path / "big.ini"
    cfg.write_text("[run]\ntemplate = greenshields-discharge\n" + override)
    assert main([verb, str(cfg), "--out", str(tmp_path / "x")] + dn) == 2
    assert capsys.readouterr().err == f"error: {keys}: the slot count vehicles / dn is too large for a float\n"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("override, dn", [
    ("sweep = 1.0000001,1.0000002\n", []),
    ("", ["--dn", "1.0000001,1.0000002"]),
], ids=["run.sweep", "--dn"])
def test_main_sweep_file_name_collision_exits_2(override, dn, tmp_path, capsys):
    # Both values are written as trajectory_dn1.csv, so the second run replaced the first.
    cfg = tmp_path / "twins.ini"
    cfg.write_text("[run]\ntemplate = greenshields-discharge\n" + override)
    assert main(["sweep", str(cfg), "--out", str(tmp_path / "x")] + dn) == 2
    assert capsys.readouterr().err == (
        "error: sweep dn values 1.0000001 and 1.0000002 both write trajectory_dn1.csv\n"
    )
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("verb, template, override, dn", [
    ("run", "greenshields-shock-a", "dt_ratio = 1e-320", []),
    ("run", "greenshields-shock-a", "dt_ratio = 1e-12", []),
    ("run", "kerner-redlight", "m = 1" + "0" * 30, []),
    ("sweep", "greenshields-shock-a", "dt_ratio = 1e-12", ["--dn", "1"]),
    ("sweep", "greenshields-discharge", "", ["--dn", "1,1e-12"]),
    ("stability", "phillips-stability", "dt_ratio = 1e-12", []),
    ("stability", "phillips-stability", "m = 1" + "0" * 30, []),
    ("stability", "phillips-stability", "duration = 1e300", []),
], ids=["run-steps-overflow", "run-unable-to-allocate", "run-dimension-limit", "sweep", "sweep-later-dn",
        "stability-lead", "stability-grid", "stability-lead-dimension-limit"])
def test_main_grid_that_cannot_be_stepped_exits_2(verb, template, override, dn, tmp_path, capsys):
    # Each ended in a traceback: OverflowError from Scenario.steps, or numpy's
    # MemoryError or ValueError.  numpy refuses every one of these shapes
    # before touching memory.  A sweep refused at a later dn wrote and printed
    # the dn values before it.
    cfg = tmp_path / "huge.ini"
    cfg.write_text(f"[run]\ntemplate = {template}\n[scenario]\n{override}\n")
    assert main([verb, str(cfg), "--out", str(tmp_path / "x")] + dn) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and "Traceback" not in err
    assert ("duration / dt is not finite" if override.endswith("e-320") else "numpy cannot allocate") in err
    assert not (tmp_path / "x").exists()


def test_main_sweep_of_no_steps_writes_nan_peaks(tmp_path):
    # A run of duration 0 exits 0; its sweep exited 2 with numpy's "zero-size
    # array to reduction operation maximum which has no identity".
    cfg = tmp_path / "zero.ini"
    cfg.write_text("[run]\ntemplate = greenshields-discharge\n[scenario]\nduration = 0\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "run")]) == 0
    assert main(["sweep", str(cfg), "--out", str(tmp_path / "x"), "--dn", "1,0.5"]) == 0
    rows = (tmp_path / "x" / "sweep.csv").read_text().splitlines()
    assert [row.split(",")[2] for row in rows] == ["max_abs_accel", "nan", "nan"]


@pytest.mark.parametrize("override, message", [
    ("initial_speed = -5", "error: invalid scenario: initial_speed must be nonnegative\n"),
    ("vehicles = -3", "error: keys scenario.vehicles and scenario.dn: vehicles must be nonnegative, got -3\n"),
], ids=["initial_speed", "vehicles"])
def test_main_negative_scenario_value_exits_2(override, message, tmp_path, capsys):
    # A negative initial_speed ran, and a "startup wave" was fitted to followers moving backwards.
    cfg = tmp_path / "negative.ini"
    cfg.write_text(f"[run]\ntemplate = greenshields-shock-a\n[scenario]\n{override}\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == message
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("template, override", [
    ("greenshields-shock-a", "duration = 1e300"),
    ("kerner-redlight", "m = 1" + "0" * 400),
], ids=["steps", "slots"])
def test_main_count_past_the_dimension_limit_is_one_short_line(template, override, tmp_path, capsys):
    # The refusal printed the count in full: 302 and 401 digits.
    cfg = tmp_path / "huge.ini"
    cfg.write_text(f"[run]\ntemplate = {template}\n[scenario]\n{override}\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: numpy cannot allocate") and f">{np.iinfo(np.intp).max}" in err
    assert err.count("\n") == 1 and err.endswith("\n") and len(err) < 200


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


@pytest.mark.parametrize("key, value", [("v", "nan"), ("k", "0")])
def test_main_invalid_fd_exits_2(tmp_path, capsys, key, value):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(make_cfg(fd={"type": "greenshields", key: value}))
    assert main(["run", str(cfg), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid fd: ") and f"{key.upper()} must be" in err
    assert not (tmp_path / "x").exists()


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


# A UTF-16 byte order mark: not UTF-8, and under a Latin-1 locale a line
# before the first section header.
NOT_UTF8 = b"\xff\xfe[fd]\n"


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


def test_main_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    # Reading the file raised UnicodeDecodeError, a traceback with exit 1.
    cfg = tmp_path / "latin.ini"
    cfg.write_bytes(NOT_UTF8)
    assert main(["run", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("verb", ["run", "thresholds"])
def test_main_nul_byte_in_out_exits_2(verb, tmp_path, capsys):
    # os.makedirs raised ValueError("embedded null byte"), a traceback with exit 1.
    cfg = tmp_path / "nul.ini"
    cfg.write_text("[run]\ntemplate = greenshields-shock-a\nout = a\0b\n")
    assert main([verb, str(cfg)]) == 2
    assert capsys.readouterr().err == "error: embedded null byte\n"


_FREE_FLOW = "[fd]\ntype = triangular\n[scenario]\nk1 = 0.02\n"
_NO_RESPONSE = "error: a follower shows no oscillation: the window is too short or the followers do not respond"


@pytest.mark.parametrize("overrides, message", [
    (_FREE_FLOW, _NO_RESPONSE),
    ("model = phillips\nt = 5\n" + _FREE_FLOW, _NO_RESPONSE),
    ("model = jwz\nt = 5\nc0 = 2\n" + _FREE_FLOW, None),
    ("[scenario]\nk1 = 1e-200\n", _NO_RESPONSE),
    ("[fd]\nk = 100\n[scenario]\nk1 = 1e-12\n", _NO_RESPONSE),
], ids=["free-flow-nonstandard", "free-flow-phillips", "free-flow-jwz", "slope-underflow", "exponent-overflow"])
def test_main_stability_where_theta_prime_is_zero(overrides, message, tmp_path, capsys):
    # theta'(1/k1) = 0 raised ZeroDivisionError, and the overflowing exponent
    # printed numpy's RuntimeWarning above the error line.
    cfg = tmp_path / "flat.ini"
    cfg.write_text("[run]\ntemplate = nonstandard-stability\n" + overrides)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["stability", str(cfg), "--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    if message is None:
        assert (code, err) == (0, "")
        assert "predicted_ratio = inf\n" in (tmp_path / "x" / "stability.txt").read_text()
    else:
        assert code == 2 and err.startswith(message) and err.count("\n") == 1


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
    assert code == 0 or err.getvalue().startswith("error: ")


@pytest.mark.parametrize("verb, overrides, message", [
    ("run", "model = phillips\nt = -1\n", "error: invalid model: T must be positive"),
    ("run", "model = phillips\nt = 0\n", "error: invalid model: T must be positive"),
    ("run", "model = phillips\nt = nan\n", "error: invalid model: T must be finite"),
    ("run", "model = jwz\nc0 = inf\n", "error: invalid model: c0 must be finite"),
    ("stability", "[stability]\namplitude = -0.5\n",
     "error: invalid stability: amplitude must be nonnegative"),
    ("stability", "[stability]\namplitude = nan\n", "error: invalid stability: amplitude must be finite"),
    ("stability", "[stability]\nomega = nan\n", "error: invalid stability: omega must be finite"),
    ("stability", "[stability]\nomega = 1e308\n", "error: omega is too large: the phase omega * J * dt overflows"),
    ("stability", "[scenario]\nm = 1\n", "error: need at least two followers"),
    ("stability", "[stability]\namplitude = 3.0\nomega = 0.3\n", "error: platoon collided"),
])
def test_main_bad_model_or_stability_exits_2(tmp_path, capsys, verb, overrides, message):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[run]\ntemplate = phillips-stability\n" + overrides)
    assert main([verb, str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.startswith(message)
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("template, overrides, message", [
    ("nonstandard-stability", "scheme = forward\n", "error: stability runs only run.scheme anisotropic"),
    ("nonstandard-stability", "scheme = harmonic\n", "error: stability runs only run.scheme anisotropic"),
    ("nonstandard-stability", "[scenario]\nlead_speed = 3.0\ninitial_speed = 0.0\n",
     "error: stability starts the followers in equilibrium"),
    ("phillips-stability", "[scenario]\ninitial_speed = 5.0\n",
     "error: stability starts the followers in equilibrium"),
])
def test_main_stability_refuses_inputs_it_ignores(tmp_path, capsys, template, overrides, message):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[run]\ntemplate = {template}\n" + overrides)
    assert main(["stability", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.startswith(message)
    assert not (tmp_path / "x").exists()


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
