"""Command line front end: config parsing, runs, sweeps, reports.

Configs are INI text with [fd], [scenario] and [run] sections (plus an
optional [stability] section).  A config may name a bundled template
via ``template`` in [run]; its own keys then override the template's.
The keys of [fd], [scenario], of the model in [run] and of [stability]
are the fields of the diagram, ``Scenario``, model and ``StabilitySpec``
dataclasses in lower case; [scenario] also takes the aliases
``vehicles`` (for m) and ``dt_ratio`` (for dt).  All files written are
deterministic: same spec, same bytes.
"""
from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from dataclasses import MISSING, dataclass, fields, replace
from itertools import chain

# perfbench/tracing.py patches measure_front_speed and measure_startup_wave here without a hasattr guard.
from .analysis import (
    DiagnosticsReport,
    ExperimentInvalid,
    SweepRow,
    _slot_count,
    diagnose,
    measure_front_speed,
    measure_startup_wave,
    measure_wave,
    string_stability_experiment,
    sweep_dn,
)
from .conditions import cfl_threshold, collision_free_threshold, validate_step_sizes
from .engine import (
    Corrected1,
    Corrected2,
    JWZ,
    Model,
    NonstandardLWR,
    PhillipsRelax,
    Scenario,
    Scheme,
    Trajectory,
    _Correction,
    acceleration,
    simulate,
)
from .fundamental import GreenshieldsFD, KernerFD, TriangularFD, _check_fields
from .templates import TEMPLATES, template_text

__all__ = ["ConfigError", "StabilitySpec", "RunSpec", "load_spec", "serialize"]


class ConfigError(ValueError):
    """A configuration problem, naming the offending key."""


@dataclass(frozen=True)
class StabilitySpec:
    amplitude: float
    omega: float

    def __post_init__(self):
        _check_fields(self)
        if self.amplitude < 0.0:
            raise ValueError(f"amplitude must be nonnegative, got {self.amplitude!r}")


@dataclass(frozen=True)
class RunSpec:
    """Everything needed to execute one experiment.

    ``vehicles`` and ``dt_ratio`` record how the scenario was specified
    when given in relative form; sweeps need both to rebuild the
    scenario at other dn values.
    """

    scenario: Scenario
    model: Model
    scheme: Scheme
    display_vehicles: int = 5
    stability: StabilitySpec | None = None
    sweep: tuple[float, ...] | None = None
    output_dir: str = "."
    vehicles: int | None = None
    dt_ratio: float | None = None


_DIAGRAMS = {"greenshields": GreenshieldsFD, "triangular": TriangularFD, "kerner": KernerFD}
_MODELS = {"nonstandard": NonstandardLWR, "phillips": PhillipsRelax, "jwz": JWZ}
_CORRECTIONS = {"none": None, "1": Corrected1, "2": Corrected2}
_SCHEMES = {s.value: s for s in Scheme}
_NAMES = {cls: name for table in (_DIAGRAMS, _MODELS, _CORRECTIONS) for name, cls in table.items()}

# [run] keys besides the model's own fields.
_RUN_KEYS = {"template", "model", "corrected", "scheme", "display_vehicles", "out", "sweep"}

# A sweep's file for each dn value.
_TRAJECTORY_FILE = "trajectory_dn{:g}.csv"

_REQUIRED = (
    "fd.type", "scenario.k1", "scenario.lead_speed", "scenario.dn",
    "scenario.duration", "scenario.dt or scenario.dt_ratio",
)


def _to_float(section: str, key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"key {section}.{key} is not a number: {raw!r}") from None


def _to_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"key {section}.{key} is not an integer: {raw!r}") from None


def _to_bool(section: str, key: str, raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"key {section}.{key} is not a boolean: {raw!r}")


# Parser per field type.  The modules postpone annotations, so ``f.type``
# is the annotation's text.  A field of any other type (the scenario's
# diagram) has no key: the caller supplies it.
_PARSERS = {"float": _to_float, "float | None": _to_float, "int": _to_int, "bool": _to_bool}

# Per dataclass: config key (the field name in lower case) -> (field name,
# parser, whether the field has no default).
_FIELDS = {
    cls: {
        f.name.lower(): (f.name, _PARSERS[f.type], f.default is MISSING)
        for f in fields(cls)
        if f.type in _PARSERS
    }
    for cls in (*_DIAGRAMS.values(), *_MODELS.values(), StabilitySpec, Scenario)
}


def _parse_sections(text: str) -> dict[str, dict[str, str]]:
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None
    return {name: dict(cp[name]) for name in cp.sections()}


def _check_keys(section: str, sec: dict[str, str], allowed, context: str = "") -> None:
    for key in sec:
        if key not in allowed:
            raise ConfigError(f"unknown key {section}.{key}{context}")


def _lookup(table: dict, key: str, name: str):
    if name not in table:
        raise ConfigError(f"unknown {key} {name!r}; expected one of {', '.join(table)}")
    return table[name]


def _build(cls, section: str, sec: dict[str, str], what: str, **kwargs):
    """Make the dataclass ``cls`` from the keys of ``sec`` named after its
    fields; fields passed in ``kwargs`` are taken as given."""
    for key, (name, parse, required) in _FIELDS[cls].items():
        if name in kwargs:
            continue
        if key in sec:
            kwargs[name] = parse(section, key, sec[key])
        elif required:
            raise ConfigError(f"missing required key {section}.{key}")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid {what}: {exc}") from None


def load_spec(text: str) -> RunSpec:
    """Parse configuration text into a validated RunSpec."""
    sections = _parse_sections(text)

    run_sec = sections.get("run", {})
    template = run_sec.get("template")
    if template is not None:
        if template not in TEMPLATES:
            raise ConfigError(
                f"unknown run.template {template!r}; bundled: {', '.join(sorted(TEMPLATES))}"
            )
        merged = {sec: dict(keys) for sec, keys in TEMPLATES[template].items()}
        for sec, keys in sections.items():
            merged.setdefault(sec, {}).update(keys)
        merged["run"].pop("template", None)
        sections = merged
        run_sec = sections.get("run", {})

    known_sections = {"fd", "scenario", "run", "stability"}
    for sec in sections:
        if sec not in known_sections:
            raise ConfigError(f"unknown section [{sec}]")

    fd_sec = sections.get("fd", {})
    sc_sec = sections.get("scenario", {})
    if not fd_sec and not sc_sec:
        raise ConfigError("empty config; required keys: " + ", ".join(_REQUIRED))
    _check_keys("scenario", sc_sec, _FIELDS[Scenario].keys() | {"vehicles", "dt_ratio"})

    kind = fd_sec.get("type")
    if kind is None:
        raise ConfigError("missing required key fd.type")
    fd_cls = _lookup(_DIAGRAMS, "fd.type", kind)
    _check_keys("fd", fd_sec, _FIELDS[fd_cls].keys() | {"type"}, f" for type {kind!r}")
    fd = _build(fd_cls, "fd", fd_sec, "fd")

    # The aliases: m = vehicles / dn, rounded (m = 50 when neither is given),
    # and dt = dt_ratio * dn.  dn must be finite before anything is rounded.
    if "dt" in sc_sec and "dt_ratio" in sc_sec:
        raise ConfigError("give exactly one of scenario.dt and scenario.dt_ratio")
    if "m" in sc_sec and "vehicles" in sc_sec:
        raise ConfigError("give at most one of scenario.m and scenario.vehicles")
    if "dn" not in sc_sec:
        raise ConfigError("missing required key scenario.dn")
    dn = _to_float("scenario", "dn", sc_sec["dn"])
    if not (math.isfinite(dn) and dn > 0.0):
        raise ConfigError(f"key scenario.dn must be positive and finite, got {dn!r}")
    given = {"fd": fd, "dn": dn}
    vehicles = dt_ratio = None
    if "vehicles" in sc_sec:
        vehicles = _to_int("scenario", "vehicles", sc_sec["vehicles"])
        given["m"] = _slots(vehicles, dn, "keys scenario.vehicles and scenario.dn")
    elif "m" not in sc_sec:
        given["m"] = 50
    if "dt_ratio" in sc_sec:
        dt_ratio = _to_float("scenario", "dt_ratio", sc_sec["dt_ratio"])
        given["dt"] = dt_ratio * dn
    elif "dt" not in sc_sec:
        raise ConfigError("missing required key scenario.dt or scenario.dt_ratio")
    scenario = _build(Scenario, "scenario", sc_sec, "scenario", **given)

    model_name = run_sec.get("model", "nonstandard")
    model_cls = _lookup(_MODELS, "run.model", model_name)
    _check_keys("run", run_sec, _FIELDS[model_cls].keys() | _RUN_KEYS, f" for model {model_name!r}")
    model = _build(model_cls, "run", run_sec, "model")
    correction = _lookup(_CORRECTIONS, "run.corrected", run_sec.get("corrected", "none"))
    if correction is not None:
        model = correction(model)

    scheme = _lookup(_SCHEMES, "run.scheme", run_sec.get("scheme", "anisotropic"))
    if scheme is not Scheme.ANISOTROPIC_SYMPLECTIC and not isinstance(model, NonstandardLWR):
        raise ConfigError(f"run.scheme {scheme.value!r} supports only model nonstandard")

    display = _to_int("run", "display_vehicles", run_sec.get("display_vehicles", "5"))
    if display < 1:
        raise ConfigError("key run.display_vehicles must be at least 1")

    sweep = _dn_values(run_sec["sweep"]) if "sweep" in run_sec else None

    stability = None
    st_sec = sections.get("stability")
    if st_sec is not None:
        _check_keys("stability", st_sec, _FIELDS[StabilitySpec])
        stability = _build(StabilitySpec, "stability", st_sec, "stability")

    return RunSpec(
        scenario=scenario,
        model=model,
        scheme=scheme,
        display_vehicles=display,
        stability=stability,
        sweep=sweep,
        output_dir=run_sec.get("out", "."),
        vehicles=vehicles,
        dt_ratio=dt_ratio,
    )


def _slots(vehicles: int, dn: float, keys: str) -> int:
    """The slot count m of ``vehicles`` at ``dn``; a refusal names ``keys``."""
    try:
        return _slot_count(vehicles, dn)
    except ValueError as exc:
        raise ConfigError(f"{keys}: {exc}") from None


def _dn_values(raw: str) -> tuple[float, ...]:
    """Comma-separated dn values, from run.sweep or from ``sweep --dn``:
    at least one, each positive, finite and with its own trajectory file."""
    values = tuple(_to_float("run", "sweep", p) for p in raw.split(",") if p.strip())
    if not values:
        raise ConfigError("sweep needs at least one dn value")
    if not all(math.isfinite(v) and v > 0.0 for v in values):
        raise ConfigError("sweep dn values must be positive and finite")
    if len(set(values)) != len(values):
        raise ConfigError("sweep dn values must be distinct")
    files = {}
    for v in values:
        name = _TRAJECTORY_FILE.format(v)
        if files.setdefault(name, v) != v:
            raise ConfigError(f"sweep dn values {files[name]!r} and {v!r} both write {name}")
    return values


def _name(obj, what: str) -> str:
    try:
        return _NAMES[type(obj)]
    except KeyError:
        raise ConfigError(f"cannot serialize {what} {obj!r}") from None


def _render(obj, **aliases) -> list[str]:
    """``key = value`` lines for the dataclass ``obj``, in field order; a
    field named in ``aliases`` is written as the (key, value) pair given
    there, and a field whose value is None is left out."""
    lines = []
    for key, (name, _, _) in _FIELDS[type(obj)].items():
        key, value = aliases.get(name) or (key, getattr(obj, name))
        if value is not None:
            lines.append(f"{key} = {str(value).lower() if isinstance(value, bool) else repr(value)}")
    return lines


def serialize(spec: RunSpec) -> str:
    """Render a RunSpec as configuration text; inverse of load_spec."""
    fd = spec.scenario.fd
    lines = ["[fd]", f"type = {_name(fd, 'diagram')}", *_render(fd)]

    aliases = {}
    if spec.vehicles is not None:
        aliases["m"] = ("vehicles", spec.vehicles)
    if spec.dt_ratio is not None:
        aliases["dt"] = ("dt_ratio", spec.dt_ratio)
    lines += ["", "[scenario]", *_render(spec.scenario, **aliases)]

    model, corrected = spec.model, None
    if isinstance(model, _Correction):
        model, corrected = model.inner, _NAMES[type(model)]
    lines += ["", "[run]", f"model = {_name(model, 'model')}", *_render(model)]
    if corrected is not None:
        lines.append(f"corrected = {corrected}")
    lines.append(f"scheme = {spec.scheme.value}")
    lines.append(f"display_vehicles = {spec.display_vehicles}")
    if spec.output_dir != ".":
        lines.append(f"out = {spec.output_dir}")
    if spec.sweep is not None:
        lines.append("sweep = " + ",".join(repr(v) for v in spec.sweep))

    if spec.stability is not None:
        lines += ["", "[stability]", *_render(spec.stability)]
    return "\n".join(lines) + "\n"


# -- execution ---------------------------------------------------------


def _g17(x: float) -> str:
    return f"{x:.17g}"


# Values (x, v and a together) that one %-format call of the CSV writer
# fills: enough to amortise the call, few enough that a block's lists
# stay near 100 kB.
_CSV_BLOCK = 4096


def _write_trajectory_csv(path: str, traj: Trajectory) -> None:
    # Each line's "t,vehicle,N," is rendered once into a block template;
    # one % call then fills the block's x, v, a.  Blocks are sized by
    # value count so that narrow, long runs (kerner-redlight) batch too.
    numbers = traj.vehicle_numbers().tolist()
    width = len(numbers)
    tails = ["%d,%.17g,%%.17g,%%.17g,%%.17g\n" % (i, n) for i, n in enumerate(numbers)]
    rows = max(1, _CSV_BLOCK // (3 * width))
    count = len(traj.times)
    with open(path, "w") as fh:
        fh.write("t,vehicle,N,x,v,a\n")
        for j0 in range(0, count, rows):
            j1 = min(j0 + rows, count)
            lines = []
            for t in traj.times[j0:j1].tolist():
                prefix = "%.17g," % t
                lines.append(prefix + prefix.join(tails))
            a = acceleration(traj.speeds[j0 : j1 + 1], traj.scenario.dt).ravel().tolist()
            if j1 == count:  # the last time row has no step after it
                a += [0.0] * width
            x = traj.positions[j0:j1].ravel().tolist()
            v = traj.speeds[j0:j1].ravel().tolist()
            fh.write("".join(lines) % tuple(chain.from_iterable(zip(x, v, a))))


def _summary_lines(spec: RunSpec, traj: Trajectory, report: DiagnosticsReport) -> list[str]:
    speed, r2 = measure_wave(traj)
    fd = spec.scenario.fd
    return [
        f"measured_shock_speed = {_g17(speed)}",
        f"r_squared = {_g17(r2)}",
        f"min_spacing = {_g17(report.min_spacing)}",
        f"collision_count = {report.collision_count}",
        f"negative_speed_count = {report.negative_speed_count}",
        f"max_abs_accel = {_g17(report.max_abs_acceleration)}",
        f"collision_free_threshold = {_g17(collision_free_threshold(fd))}",
        f"cfl_threshold = {_g17(cfl_threshold(fd))}",
    ]


def _write_lines(spec: RunSpec, name: str, lines: list[str]) -> str:
    """Write ``lines`` to ``name`` in the output directory and echo them;
    return the file's path."""
    os.makedirs(spec.output_dir, exist_ok=True)
    path = os.path.join(spec.output_dir, name)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    return path


def run(spec: RunSpec, expect_clean: bool = False) -> int:
    """Execute one run; write trajectory.csv and summary.txt."""
    os.makedirs(spec.output_dir, exist_ok=True)
    traj = simulate(spec.scenario, model=spec.model, scheme=spec.scheme)

    csv_path = os.path.join(spec.output_dir, "trajectory.csv")
    _write_trajectory_csv(csv_path, traj)
    report = diagnose(traj, spec.scenario.fd)
    summary_path = _write_lines(spec, "summary.txt", _summary_lines(spec, traj, report))
    print(f"[run] wrote {csv_path} and {summary_path}")

    if expect_clean and not report.clean:
        print(
            f"[run] expected clean run, found {report.collision_count} collisions, "
            f"{report.negative_speed_count} negative speeds "
            f"and {report.nonfinite_count} non-finite values",
            file=sys.stderr,
        )
        return 2
    return 0


def sweep(spec: RunSpec, dn_list: tuple[float, ...]) -> int:
    """Re-run the scenario across dn values (``sweep_dn``); write each trajectory and sweep.csv."""
    if spec.dt_ratio is None:
        raise ConfigError("sweep requires scenario.dt_ratio (fixed dt/dn ratio)")
    if spec.vehicles is None:
        raise ConfigError("sweep requires scenario.vehicles (whole-vehicle count)")
    for dn in dn_list:
        _slots(spec.vehicles, dn, f"key run.sweep value {dn!r}")
    os.makedirs(spec.output_dir, exist_ok=True)

    rows = []
    for traj, row in sweep_dn(
        spec.scenario, dn_list, spec.vehicles, spec.dt_ratio, spec.model, spec.scheme, spec.display_vehicles
    ):
        _write_trajectory_csv(os.path.join(spec.output_dir, _TRAJECTORY_FILE.format(row.dn)), traj)
        rows.append(row)
        print(
            f"[sweep] dn={row.dn:g} speed={row.measured_speed:.6g} max_accel={row.max_abs_accel:.6g} "
            f"min_spacing={row.min_spacing:.6g} diff_prev={row.traj_diff_prev:.6g}"
        )

    table_path = os.path.join(spec.output_dir, "sweep.csv")
    with open(table_path, "w") as fh:
        fh.write(",".join(SweepRow._fields) + "\n")
        for row in rows:
            fh.write(",".join(_g17(v) for v in row) + "\n")
    print(f"[sweep] wrote {table_path}")
    return 0


def thresholds(spec: RunSpec) -> int:
    """Report step-size admissibility for the spec's diagram and steps."""
    sc = spec.scenario
    rep = validate_step_sizes(sc.fd, sc.dn, sc.dt)
    lines = [
        f"dn = {_g17(rep.dn)}",
        f"dt = {_g17(rep.dt)}",
        f"rate = {_g17(rep.dn / rep.dt)}",
        f"collision_free_threshold = {_g17(rep.collision_free_threshold)}",
        f"cfl_threshold = {_g17(rep.cfl_threshold)}",
        f"collision_free_ok = {str(rep.collision_free_ok).lower()}",
        f"cfl_ok = {str(rep.cfl_ok).lower()}",
        f"concave = {str(rep.concave).lower()}",
    ]
    _write_lines(spec, "thresholds.txt", lines)
    return 0


def stability(spec: RunSpec) -> int:
    """Run the string-stability experiment described by the spec.  The
    leader oscillates about theta(1/k1), so scenario.lead_speed is not read."""
    if spec.stability is None:
        raise ConfigError("config has no [stability] section")
    if spec.scheme is not Scheme.ANISOTROPIC_SYMPLECTIC:
        raise ConfigError(f"stability runs only run.scheme anisotropic, got {spec.scheme.value!r}")
    sc = spec.scenario
    if sc.initial_speed is not None:
        raise ConfigError("stability starts the followers in equilibrium; remove scenario.initial_speed")
    try:
        result = string_stability_experiment(
            fd=sc.fd,
            model=spec.model,
            s0=1.0 / sc.k1,
            amplitude=spec.stability.amplitude,
            omega=spec.stability.omega,
            m=sc.m,
            dn=sc.dn,
            dt=sc.dt,
            duration=sc.duration,
        )
    except (ExperimentInvalid, ValueError) as exc:
        # Too few followers, a lead speed driven negative or a colliding
        # platoon: the config's values, not the program, are at fault.
        raise ConfigError(str(exc)) from None
    lines = [
        f"omega = {_g17(result.omega)}",
        f"amplification_ratio = {_g17(result.amplification_ratio)}",
        f"predicted_ratio = {_g17(result.predicted_ratio)}",
        "amplitudes = " + ",".join(_g17(a) for a in result.amplitudes),
    ]
    _write_lines(spec, "stability.txt", lines)
    return 0


def _load_config_arg(arg: str) -> str:
    if os.path.exists(arg):
        with open(arg) as fh:
            return fh.read()
    if arg in TEMPLATES:
        return template_text(arg)
    raise ConfigError(f"no such config file or template: {arg!r}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="lagwave",
        description="Car-following experiments for kinematic wave traffic models.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("config", help="config file path or bundled template name")
    common.add_argument("--out", help="output directory (default from config, else '.')")

    p_run = sub.add_parser("run", parents=[common], help="simulate one scenario")
    p_run.add_argument(
        "--expect-clean",
        action="store_true",
        help="exit nonzero if the run has collisions, negative speeds or non-finite values",
    )
    p_sweep = sub.add_parser("sweep", parents=[common], help="convergence sweep over dn")
    p_sweep.add_argument("--dn", help="comma-separated dn values (default from run.sweep in the config)")
    sub.add_parser("thresholds", parents=[common], help="report step-size admissibility")
    sub.add_parser("stability", parents=[common], help="string-stability experiment")

    args = parser.parse_args(argv)
    try:
        spec = load_spec(_load_config_arg(args.config))
        if args.out is not None:
            spec = replace(spec, output_dir=args.out)
        if args.verb == "run":
            return run(spec, expect_clean=args.expect_clean)
        if args.verb == "sweep":
            if args.dn is not None:
                dn_list = _dn_values(args.dn)
            elif spec.sweep is not None:
                dn_list = spec.sweep
            else:
                raise ConfigError("sweep needs --dn or a sweep key in [run]")
            return sweep(spec, dn_list)
        if args.verb == "thresholds":
            return thresholds(spec)
        return stability(spec)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
