"""Command line front end: config parsing, runs, sweeps, reports.

Configs are INI text with [fd], [scenario] and [run] sections (plus an
optional [stability] section).  A config may name a bundled template
via ``template`` in [run]; its own keys then override the template's.
The keys of [fd], [scenario], of the model in [run] and of [stability]
are the fields of the diagram, ``Scenario``, model and ``StabilitySpec``
dataclasses in lower case, each value read by its field's type
(``_parse``); [scenario] also takes the aliases ``vehicles`` (for m) and
``dt_ratio`` (for dt).  Each ``key = value`` result file renders one
record (``_write_lines``): thresholds.txt the ``StepSizeReport``,
summary.txt the run's ``analysis._Measures``, stability.txt the
``StringStabilityResult``.  All files written are deterministic: same
spec, same bytes.  ``main`` is the one place that turns a refusal (a
``ValueError``, ``ExperimentInvalid`` or ``OSError``) into an ``error:``
line and exit status 2.
"""
from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
import threading
from dataclasses import MISSING, dataclass, fields, replace
from functools import lru_cache
from itertools import chain

# perfbench/tracing.py patches simulate, diagnose, measure_front_speed and
# measure_startup_wave here without a hasattr guard, so they stay imported
# though cli calls none of them.
from .analysis import (
    ExperimentInvalid,
    SweepRow,
    _at_dn,
    _Measures,
    _slot_count,
    diagnose,
    measure_front_speed,
    measure_startup_wave,
    string_stability_experiment,
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
    _Correction,
    _stream,
    simulate,
)
from .fundamental import GreenshieldsFD, KernerFD, TriangularFD, _check_fields
from .templates import TEMPLATES, _ini, template_text

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

# The words a boolean value takes.
_BOOLS = {**dict.fromkeys(("true", "yes", "1", "on"), True), **dict.fromkeys(("false", "no", "0", "off"), False)}

# Converter and the noun its refusal names, per field type.  The modules
# postpone annotations, so ``f.type`` is the annotation's text.  A field of
# any other type (the scenario's diagram) has no key: the caller supplies it.
_NUMBER = (float, "a number")
_KINDS = {"float": _NUMBER, "float | None": _NUMBER, "int": (int, "an integer"),
          "bool": (lambda raw: _BOOLS[raw.strip().lower()], "a boolean")}


def _parse(section: str, key: str, raw: str, kind: str = "float"):
    """The value of ``section.key`` read as the field type ``kind``."""
    convert, noun = _KINDS[kind]
    try:
        return convert(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"key {section}.{key} is not {noun}: {raw!r}") from None


# Per dataclass: config key (the field name in lower case) -> (field name,
# field type, whether the field has no default).
_FIELDS = {
    cls: {f.name.lower(): (f.name, f.type, f.default is MISSING) for f in fields(cls) if f.type in _KINDS}
    for cls in (*_DIAGRAMS.values(), *_MODELS.values(), StabilitySpec, Scenario)
}


@lru_cache(maxsize=None)
def _config_parser() -> tuple[configparser.ConfigParser, threading.Lock]:
    """The config parser, built on first use and emptied for every later
    text, with the lock that keeps one text in it at a time."""
    return configparser.ConfigParser(interpolation=None), threading.Lock()


def _parse_sections(text: str) -> dict[str, dict[str, str]]:
    cp, lock = _config_parser()
    with lock:
        # clear() keeps the [DEFAULT] keys, which would pass into the next text.
        cp.clear()
        cp.defaults().clear()
        try:
            cp.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"malformed config: {exc}") from None
        sections = {}
        for name in cp.sections():
            # Keys in the order cp[name] gives, the section's own before the
            # [DEFAULT] keys that items() lists first, so the first unknown
            # key reported stays the same.
            values = dict(cp.items(name, raw=True))
            sections[name] = {key: values[key] for key in cp.options(name)}
    return sections


def _lookup(table: dict, key: str, name: str):
    if name not in table:
        raise ConfigError(f"unknown {key} {name!r}; expected one of {', '.join(table)}")
    return table[name]


def _build(cls, section: str, sec: dict[str, str], what: str, extra=(), context: str = "", **kwargs):
    """Make the dataclass ``cls`` from the keys of ``sec`` named after its fields, after
    refusing a key that is neither a field nor in ``extra``; ``kwargs`` are taken as given."""
    keys = _FIELDS[cls]
    for key in sec:
        if key not in keys and key not in extra:
            raise ConfigError(f"unknown key {section}.{key}{context}")
    for key, (name, kind, required) in keys.items():
        if name in kwargs:
            continue
        if key in sec:
            kwargs[name] = _parse(section, key, sec[key], kind)
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
            raise ConfigError(f"unknown run.template {template!r}; bundled: {', '.join(sorted(TEMPLATES))}")
        # The template's sections and keys first, in its order; the config's own values override its.
        base = TEMPLATES[template]
        sections = {s: {**base.get(s, {}), **sections.get(s, {})} for s in dict.fromkeys([*base, *sections])}
        run_sec = sections["run"]
        del run_sec["template"]

    known_sections = {"fd", "scenario", "run", "stability"}
    for sec in sections:
        if sec not in known_sections:
            raise ConfigError(f"unknown section [{sec}]")

    fd_sec = sections.get("fd", {})
    sc_sec = sections.get("scenario", {})
    if not fd_sec and not sc_sec:
        raise ConfigError("empty config; required keys: " + ", ".join(_REQUIRED))

    kind = fd_sec.get("type")
    if kind is None:
        raise ConfigError("missing required key fd.type")
    fd_cls = _lookup(_DIAGRAMS, "fd.type", kind)
    fd = _build(fd_cls, "fd", fd_sec, "fd", ("type",), f" for type {kind!r}")

    # The aliases: m = vehicles / dn, rounded (m = 50 when neither is given),
    # and dt = dt_ratio * dn.  dn must be finite before anything is rounded.
    if "dt" in sc_sec and "dt_ratio" in sc_sec:
        raise ConfigError("give exactly one of scenario.dt and scenario.dt_ratio")
    if "m" in sc_sec and "vehicles" in sc_sec:
        raise ConfigError("give at most one of scenario.m and scenario.vehicles")
    if "dn" not in sc_sec:
        raise ConfigError("missing required key scenario.dn")
    dn = _parse("scenario", "dn", sc_sec["dn"])
    if not (math.isfinite(dn) and dn > 0.0):
        raise ConfigError(f"key scenario.dn must be positive and finite, got {dn!r}")
    given = {"fd": fd, "dn": dn}
    vehicles = dt_ratio = None
    if "vehicles" in sc_sec:
        vehicles = _parse("scenario", "vehicles", sc_sec["vehicles"], "int")
        try:
            given["m"] = _slot_count(vehicles, dn)
        except ValueError as exc:
            raise ConfigError(f"keys scenario.vehicles and scenario.dn: {exc}") from None
    elif "m" not in sc_sec:
        given["m"] = 50
    if "dt_ratio" in sc_sec:
        dt_ratio = _parse("scenario", "dt_ratio", sc_sec["dt_ratio"])
        given["dt"] = dt_ratio * dn
    elif "dt" not in sc_sec:
        raise ConfigError("missing required key scenario.dt or scenario.dt_ratio")
    scenario = _build(Scenario, "scenario", sc_sec, "scenario", ("vehicles", "dt_ratio"), **given)

    model_name = run_sec.get("model", "nonstandard")
    model_cls = _lookup(_MODELS, "run.model", model_name)
    model = _build(model_cls, "run", run_sec, "model", _RUN_KEYS, f" for model {model_name!r}")
    correction = _lookup(_CORRECTIONS, "run.corrected", run_sec.get("corrected", "none"))
    if correction is not None:
        model = correction(model)

    scheme = _lookup(_SCHEMES, "run.scheme", run_sec.get("scheme", "anisotropic"))
    if scheme is not Scheme.ANISOTROPIC_SYMPLECTIC and not isinstance(model, NonstandardLWR):
        raise ConfigError(f"run.scheme {scheme.value!r} supports only model nonstandard")

    display = _parse("run", "display_vehicles", run_sec.get("display_vehicles", "5"), "int")
    if display < 1:
        raise ConfigError("key run.display_vehicles must be at least 1")

    sweep = _dn_values(run_sec["sweep"]) if "sweep" in run_sec else None

    stability = None
    st_sec = sections.get("stability")
    if st_sec is not None:
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


def _dn_values(raw: str) -> tuple[float, ...]:
    """Comma-separated dn values, from run.sweep or from ``sweep --dn``:
    at least one, each positive, finite and with its own trajectory file."""
    values = tuple(_parse("run", "sweep", p) for p in raw.split(",") if p.strip())
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
    sections = {"fd": [f"type = {_name(fd, 'diagram')}", *_render(fd)]}

    aliases = {}
    if spec.vehicles is not None:
        aliases["m"] = ("vehicles", spec.vehicles)
    if spec.dt_ratio is not None:
        aliases["dt"] = ("dt_ratio", spec.dt_ratio)
    sections["scenario"] = _render(spec.scenario, **aliases)

    model, corrected = spec.model, None
    if isinstance(model, _Correction):
        model, corrected = model.inner, _NAMES[type(model)]
    run_keys = sections["run"] = [f"model = {_name(model, 'model')}", *_render(model)]
    if corrected is not None:
        run_keys.append(f"corrected = {corrected}")
    run_keys += [f"scheme = {spec.scheme.value}", f"display_vehicles = {spec.display_vehicles}"]
    if spec.output_dir != ".":
        run_keys.append(f"out = {spec.output_dir}")
    if spec.sweep is not None:
        run_keys.append("sweep = " + ",".join(repr(v) for v in spec.sweep))

    if spec.stability is not None:
        sections["stability"] = _render(spec.stability)
    return _ini(sections)


# -- execution ---------------------------------------------------------


def _text(value) -> str:
    """A result value as text: a bool in lower case, a count in decimal,
    any other number by %.17g, and a sequence comma-joined."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.17g}"
    return ",".join(map(_text, value))


# Values (x, v and a together) that one %-format call of the CSV writer
# fills: enough to amortise the call, few enough that a block's lists
# stay near 100 kB.
_CSV_BLOCK = 4096

# Grid values per row block of a streamed run: the block's positions, speeds
# and accelerations are what run holds of the grid.
_RUN_BLOCK = 16384


def _write_run(path: str, blocks, measures: _Measures) -> None:
    """Write a run's (j0, x, v, a) row blocks, in order, to ``path`` as trajectory.csv,
    and feed each, once written, to the run's record (whose audit overwrites a).

    Each line's "t,vehicle,N," is rendered once into a template of
    _CSV_BLOCK values; one % call then fills their x, v, a.  The template
    counts values, so narrow, long runs (kerner-redlight) batch too.  The
    times j * dt and vehicle numbers i * dn have the bits of a Trajectory's
    np.arange(J + 1) * dt and np.arange(M + 1) * dn.
    """
    sc = measures.scenario
    tails = ["%d,%.17g,%%.17g,%%.17g,%%.17g\n" % (i, i * sc.dn) for i in range(sc.m + 1)]
    rows = max(1, _CSV_BLOCK // 3 // len(tails))
    with open(path, "w") as fh:
        fh.write("t,vehicle,N,x,v,a\n")
        for j0, x, v, a in blocks:
            for i in range(0, len(x), rows):
                k = slice(i, i + rows)
                prefixes = ["%.17g," % (j * sc.dt) for j in range(j0 + i, j0 + min(i + rows, len(x)))]
                lines = "".join(prefix + prefix.join(tails) for prefix in prefixes)
                values = zip(x[k].ravel().tolist(), v[k].ravel().tolist(), a[k].ravel().tolist())
                fh.write(lines % tuple(chain.from_iterable(values)))
            measures.add(j0, x, v, a)
            del x, v, a  # before the walk builds the next block


def _write_lines(spec: RunSpec, name: str, values: dict) -> str:
    """Write a ``key = value`` line per entry of ``values`` (``_text``) to
    ``name`` in the output directory and echo them; return the file's path."""
    text = "".join(f"{key} = {_text(value)}\n" for key, value in values.items())
    os.makedirs(spec.output_dir, exist_ok=True)
    path = os.path.join(spec.output_dir, name)
    with open(path, "w") as fh:
        fh.write(text)
    print(text, end="")
    return path


def run(spec: RunSpec, expect_clean: bool = False) -> int:
    """Execute one run; write trajectory.csv and summary.txt.

    The run is stepped, written, audited and measured one row block at a
    time (``engine._stream``, ``_write_run``): the grid is never held whole.
    """
    sc = spec.scenario
    # A grid that simulate refuses is refused here, before any file exists.
    blocks = _stream(sc, spec.model, spec.scheme, _RUN_BLOCK)
    os.makedirs(spec.output_dir, exist_ok=True)
    csv_path = os.path.join(spec.output_dir, "trajectory.csv")
    measures = _Measures(sc, spec.display_vehicles)
    _write_run(csv_path, blocks, measures)
    report = measures.audit.report()
    speed, r2 = measures.wave()
    summary_path = _write_lines(spec, "summary.txt", {
        "measured_shock_speed": speed, "r_squared": r2, "min_spacing": report.min_spacing,
        "collision_count": report.collision_count, "negative_speed_count": report.negative_speed_count,
        "max_abs_accel": report.max_abs_acceleration, "collision_free_threshold": collision_free_threshold(sc.fd),
        "cfl_threshold": cfl_threshold(sc.fd),
    })
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
    """Re-run the scenario across dn values as ``analysis.sweep_dn`` does, streaming each as ``run``
    does once every dn is checked; write each trajectory and sweep.csv."""
    if spec.dt_ratio is None:
        raise ConfigError("sweep requires scenario.dt_ratio (fixed dt/dn ratio)")
    if spec.vehicles is None:
        raise ConfigError("sweep requires scenario.vehicles (whole-vehicle count)")
    runs = []
    for dn in dn_list:
        try:
            sc = _at_dn(spec.scenario, dn, spec.vehicles, spec.dt_ratio)
        except ValueError as exc:
            raise ConfigError(f"key run.sweep value {dn!r}: {exc}") from None
        runs.append((_Measures(sc, spec.display_vehicles), _stream(sc, spec.model, spec.scheme, _RUN_BLOCK)))

    os.makedirs(spec.output_dir, exist_ok=True)
    rows, prev = [], None
    for measures, blocks in runs:
        _write_run(os.path.join(spec.output_dir, _TRAJECTORY_FILE.format(measures.scenario.dn)), blocks, measures)
        row, prev = measures.row(prev), measures
        rows.append(row)
        print(
            f"[sweep] dn={row.dn:g} speed={row.measured_speed:.6g} max_accel={row.max_abs_accel:.6g} "
            f"min_spacing={row.min_spacing:.6g} diff_prev={row.traj_diff_prev:.6g}"
        )

    table_path = os.path.join(spec.output_dir, "sweep.csv")
    with open(table_path, "w") as fh:
        fh.write(",".join(SweepRow._fields) + "\n")
        fh.writelines(_text(row) + "\n" for row in rows)
    print(f"[sweep] wrote {table_path}")
    return 0


def thresholds(spec: RunSpec) -> int:
    """Report step-size admissibility for the spec's diagram and steps:
    thresholds.txt is the fields of their ``StepSizeReport``, in order."""
    sc = spec.scenario
    rep = validate_step_sizes(sc.fd, sc.dn, sc.dt)
    _write_lines(spec, "thresholds.txt", {f.name: getattr(rep, f.name) for f in fields(rep)})
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
    # In this order, not StringStabilityResult's field order.
    _write_lines(spec, "stability.txt", {
        "omega": result.omega, "amplification_ratio": result.amplification_ratio,
        "predicted_ratio": result.predicted_ratio, "amplitudes": result.amplitudes,
    })
    return 0


def _load_config_arg(arg: str) -> str:
    if os.path.exists(arg):
        with open(arg) as fh:
            return fh.read()
    if arg in TEMPLATES:
        return template_text(arg)
    raise ConfigError(f"no such config file or template: {arg!r}")


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built on first use and reused by every
    later ``main`` call in the process."""
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
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
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
    # A refusal from the config, the library or the file system is the
    # input's fault, not the program's: one error line on stderr, exit 2.
    # configparser's messages span lines; their lines are joined by a space.
    except (ValueError, ExperimentInvalid, OSError) as exc:
        print("error: " + " ".join(line.strip() for line in str(exc).splitlines()), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
