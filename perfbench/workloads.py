"""The benchmark's workloads: operations drawn from a seed, each with a fixed expected outcome.

An operation starts from config text and runs it through lagwave's public
entry points: ``lagwave.cli.main(argv)`` for CLI traffic, the package's
library names otherwise.  Its check compares the outcome with what the
workload says in advance: an exit code, a clean or a colliding audit, an
expected ``ExperimentInvalid``, and, where one exists, an exact reference
(closed-form thresholds, the Rankine-Hugoniot speed, the linear
string-stability prediction).  Audits are re-done here with plain numpy, so
a check does not trust the code it checks.

This module is imported after ``lagwave`` and only by ``child.py``.
"""
from __future__ import annotations

import dataclasses
import hashlib
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import lagwave
import lagwave.cli

COLLISION_TOL = 1e-9
NEGATIVE_SPEED_TOL = 1e-12
SHOCK_TOL = 1e-3          # measured front speed against Rankine-Hugoniot
STARTUP_TOL = 0.05        # startup wave against the jam characteristic speed
STABILITY_TOL = 0.04      # growth per vehicle against exp(T w^2 / theta'(s0))
CLOSED_FORM_TOL = 1e-9    # thresholds with a closed form
GRID_TOL = 1e-6           # thresholds bracketed by an independent dense grid


@dataclass
class Check:
    """What one operation's check found."""

    problems: list[str] = field(default_factory=list)
    rel_errs: list[float] = field(default_factory=list)

    def expect(self, cond: bool, what: str) -> None:
        if not cond:
            self.problems.append(what)

    def against(self, got: float, ref: float, tol: float, what: str, exact: bool = True) -> None:
        """Relative error of ``got`` against ``ref``; exact references feed the reported maximum."""
        err = abs(got - ref) / abs(ref) if np.isfinite(got) else float("inf")
        if exact:
            self.rel_errs.append(err)
        self.expect(err <= tol, f"{what}: {got!r} vs reference {ref!r} (rel err {err:.3g} > {tol:g})")


@dataclass
class Op:
    """One operation: ``run(out_dir)`` is timed, ``check(value, out_dir)`` is not."""

    name: str
    config: str
    run: Callable[[str], object]
    check: Callable[[object, str], Check]
    vehicle_steps: int = 0


def build(workload: str, seed: int, tiny: bool = False) -> list[Op]:
    """The operations of ``workload`` for ``seed``, in the order they run."""
    rng = np.random.default_rng(seed)
    return {
        "cli-templates": _cli_templates,
        "long-platoon": _long_platoon,
        "rival-audit": _rival_audit,
        "thresholds-grid": _thresholds_grid,
    }[workload](rng, tiny)


# -- shared helpers ----------------------------------------------------


def _ini(sections: dict[str, dict[str, object]]) -> str:
    lines = []
    for name, keys in sections.items():
        lines.append(f"[{name}]")
        lines += [f"{k} = {v!r}" if isinstance(v, float) else f"{k} = {v}" for k, v in keys.items()]
        lines.append("")
    return "\n".join(lines)


def _vehicle_steps(spec) -> int:
    return spec.scenario.steps * spec.scenario.m


def _read_kv(path: str) -> dict[str, str]:
    with open(path) as fh:
        return dict(line.split(" = ", 1) for line in fh.read().splitlines())


def _cli_main(argv: list[str]) -> int:
    # Looked up at call time, so the traced run sees its wrappers.
    return lagwave.cli.main(argv)


def _closed_form_thresholds(fd) -> float | None:
    """Both thresholds of a Greenshields (V*K) or triangular (W*K) diagram."""
    if isinstance(fd, lagwave.GreenshieldsFD):
        return fd.V * fd.K
    if isinstance(fd, lagwave.TriangularFD):
        return fd.W * fd.K
    return None


def _kerner_grid_thresholds(fd, n: int = 40_001) -> tuple[float, float]:
    """Dense-grid lower bounds of both suprema, from the sigmoid law written out here."""
    k = np.linspace(0.0, fd.K, n)
    amp = fd.c1 * fd.unit_length / fd.relax_time
    sig = 1.0 / (1.0 + np.exp((k / fd.K - fd.c2) / fd.c3))
    raw = amp * (sig - fd.c4)
    deta = -amp * sig * (1.0 - sig) / (fd.c3 * fd.K)
    if fd.clamp_nonnegative:
        deta = np.where(raw > 0.0, deta, 0.0)
        raw = np.maximum(raw, 0.0)
    cf = max(float(np.max(k[:-1] * raw[:-1] / (1.0 - k[:-1] / fd.K))), float(-deta[-1] * fd.K**2))
    cfl = float(np.max(np.abs(deta) * k * k))
    return cf, cfl


def _check_thresholds(chk: Check, fd, cf: float, cfl: float) -> None:
    ref = _closed_form_thresholds(fd)
    if ref is not None:
        chk.against(cf, ref, CLOSED_FORM_TOL, "collision-free threshold")
        chk.against(cfl, ref, CLOSED_FORM_TOL, "CFL threshold")
        return
    for got, low, what in zip((cf, cfl), _kerner_grid_thresholds(fd), ("collision-free", "CFL")):
        chk.expect(low * (1.0 - 1e-9) <= got <= low * (1.0 + GRID_TOL),
                   f"{what} threshold {got!r} outside the grid bracket of {low!r}")


def _audit(traj, fd) -> tuple[int, int, float]:
    """Collisions, negative speeds and minimum spacing, counted directly from the arrays."""
    s = np.subtract(traj.positions[:, :-1], traj.positions[:, 1:])
    s /= traj.dn
    collisions = int(np.count_nonzero(s < fd.S - COLLISION_TOL))
    negatives = int(np.count_nonzero(traj.speeds < -NEGATIVE_SPEED_TOL))
    return collisions, negatives, float(np.min(s))


def _csv_rows(path: str) -> int:
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))


def _expect_value(chk: Check, value, kind) -> bool:
    if isinstance(value, BaseException):
        chk.problems.append(f"raised {type(value).__name__}: {value}")
        return False
    chk.expect(isinstance(value, kind), f"returned {type(value).__name__}, expected {kind.__name__}")
    return not chk.problems


def fingerprint(value, h) -> None:
    """Feed the bytes that identify a library result into the hash ``h``, without copying arrays."""
    if isinstance(value, BaseException):
        h.update(f"{type(value).__name__}: {value}".encode())
    elif isinstance(value, tuple):
        for v in value:
            fingerprint(v, h)
    elif isinstance(value, lagwave.Trajectory):
        h.update(value.positions)
        h.update(value.speeds)
    elif isinstance(value, lagwave.StringStabilityResult):
        h.update(value.amplitudes)
        h.update(repr((value.amplification_ratio, value.predicted_ratio)).encode())
    elif isinstance(value, lagwave.DiagnosticsReport):
        h.update(repr((value.collision_count, value.negative_speed_count, value.min_spacing)).encode())
    elif isinstance(value, lagwave.WaveMeasurement):
        h.update(repr((value.speed, value.r_squared)).encode())
        h.update(value.crossing_times)
    else:
        h.update(repr(value).encode())


# -- cli-templates -----------------------------------------------------
#
# Every bundled template through its CLI verb, as users run them.  The seed
# only shuffles the order: the templates fix the work.

_SHOCK_TEMPLATES = ("greenshields-shock-a", "greenshields-shock-b", "triangular-shock-a", "triangular-shock-b")
# Templates that show a known defect: the audit must keep finding it.
_UNCLEAN_TEMPLATES = ("kerner-redlight-coarse", "jwz-redlight")
_TINY_TEMPLATES = ("greenshields-discharge", "kerner-redlight-coarse", "jwz-redlight",
                   "jwz-redlight-corrected2", "nonstandard-stability")


def _downstream_density(fd, v2: float) -> float:
    """Density whose equilibrium speed is v2, solved by hand for the two closed-form laws."""
    if isinstance(fd, lagwave.GreenshieldsFD):
        return fd.K * (1.0 - v2 / fd.V)
    return fd.W * fd.K / (v2 + fd.W)


def _template_run_op(name: str) -> Op:
    spec = lagwave.load_spec(lagwave.template_text(name))
    sc = spec.scenario
    fd = sc.fd
    unclean = name in _UNCLEAN_TEMPLATES

    def run(out: str):
        return _cli_main(["run", name, "--out", out, "--expect-clean"])

    def check(rc, out: str) -> Check:
        chk = Check()
        chk.expect(rc == (2 if unclean else 0), f"exit code {rc!r}")
        summary = _read_kv(os.path.join(out, "summary.txt"))
        rows = _csv_rows(os.path.join(out, "trajectory.csv"))
        chk.expect(rows == 1 + (sc.steps + 1) * (sc.m + 1), f"trajectory.csv has {rows} lines")
        collisions = int(summary["collision_count"])
        negatives = int(summary["negative_speed_count"])
        if unclean:
            chk.expect(collisions > 0, "known collisions no longer reported")
            if name == "kerner-redlight-coarse":
                chk.expect(negatives > 0, "known negative speeds no longer reported")
        else:
            chk.expect(collisions == 0 and negatives == 0, f"{collisions} collisions, {negatives} negative speeds")
        _check_thresholds(chk, fd, float(summary["collision_free_threshold"]), float(summary["cfl_threshold"]))
        speed = float(summary["measured_shock_speed"])
        if name in _SHOCK_TEMPLATES:
            k2 = _downstream_density(fd, sc.lead_speed)
            chk.against(speed, lagwave.shock_speed_rh(fd, sc.k1, k2), SHOCK_TOL, "shock speed")
        elif name.endswith("-discharge"):
            jam_wave = -fd.V if isinstance(fd, lagwave.GreenshieldsFD) else -fd.W
            chk.against(speed, jam_wave, STARTUP_TOL, "startup wave", exact=False)
        return chk

    return Op(f"run:{name}", lagwave.template_text(name), run, check, _vehicle_steps(spec))


def _check_stability_result(chk: Check, ratio: float, predicted: float, model) -> None:
    """Relaxation and equilibrium models follow the linear prediction; JWZ's anticipation damps below it."""
    if isinstance(model, (lagwave.NonstandardLWR, lagwave.PhillipsRelax)):
        chk.against(ratio, predicted, STABILITY_TOL, "growth per vehicle")
        grows = isinstance(model, lagwave.PhillipsRelax)
        chk.expect((ratio > 1.0) == grows, f"growth per vehicle {ratio!r} on the wrong side of 1")
    else:
        chk.expect(1.0 < ratio < predicted, f"growth per vehicle {ratio!r} outside (1, {predicted!r})")


def _template_stability_op(name: str) -> Op:
    spec = lagwave.load_spec(lagwave.template_text(name))

    def run(out: str):
        return _cli_main(["stability", name, "--out", out])

    def check(rc, out: str) -> Check:
        chk = Check()
        chk.expect(rc == 0, f"exit code {rc!r}")
        res = _read_kv(os.path.join(out, "stability.txt"))
        amps = res["amplitudes"].split(",")
        chk.expect(len(amps) == spec.scenario.m + 1, f"{len(amps)} amplitudes")
        _check_stability_result(chk, float(res["amplification_ratio"]), float(res["predicted_ratio"]), spec.model)
        return chk

    return Op(f"stability:{name}", lagwave.template_text(name), run, check, _vehicle_steps(spec))


def _template_thresholds_op(name: str) -> Op:
    spec = lagwave.load_spec(lagwave.template_text(name))

    def run(out: str):
        return _cli_main(["thresholds", name, "--out", out])

    def check(rc, out: str) -> Check:
        chk = Check()
        chk.expect(rc == 0, f"exit code {rc!r}")
        _check_thresholds_file(chk, out, spec)
        return chk

    return Op(f"thresholds:{name}", lagwave.template_text(name), run, check)


def _check_thresholds_file(chk: Check, out: str, spec) -> None:
    rep = _read_kv(os.path.join(out, "thresholds.txt"))
    fd = spec.scenario.fd
    cf, cfl = float(rep["collision_free_threshold"]), float(rep["cfl_threshold"])
    _check_thresholds(chk, fd, cf, cfl)
    rate = spec.scenario.dn / spec.scenario.dt
    chk.expect(float(rep["rate"]) == rate, f"rate {rep['rate']} is not dn/dt")
    slack = 1.0 - 1e-12
    chk.expect(rep["collision_free_ok"] == str(rate >= cf * slack).lower(), "collision_free_ok flag")
    chk.expect(rep["cfl_ok"] == str(rate >= cfl * slack).lower(), "cfl_ok flag")
    concave = not isinstance(fd, lagwave.KernerFD)
    chk.expect(rep["concave"] == str(concave).lower(), f"concave = {rep['concave']}")


def _sweep_op(dn_list: tuple[float, ...]) -> Op:
    name = "greenshields-discharge"
    spec = lagwave.load_spec(lagwave.template_text(name))
    steps = 0
    for dn in dn_list:
        m = round(spec.vehicles / dn)
        steps += dataclasses.replace(spec.scenario, dn=dn, dt=spec.dt_ratio * dn, m=m).steps * m
    fd = spec.scenario.fd

    def run(out: str):
        return _cli_main(["sweep", name, "--dn", ",".join(repr(d) for d in dn_list), "--out", out])

    def check(rc, out: str) -> Check:
        chk = Check()
        chk.expect(rc == 0, f"exit code {rc!r}")
        with open(os.path.join(out, "sweep.csv")) as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        chk.expect(len(rows) == len(dn_list), f"sweep.csv has {len(rows)} rows")
        for row in rows:
            chk.against(float(row[1]), -fd.V, STARTUP_TOL, f"startup wave at dn={row[0]}", exact=False)
            chk.expect(float(row[3]) >= fd.S - COLLISION_TOL, f"min spacing {row[3]} below jam")
        return chk

    return Op(f"sweep:{name}", lagwave.template_text(name), run, check, steps)


def _cli_templates(rng, tiny: bool) -> list[Op]:
    names = _TINY_TEMPLATES if tiny else tuple(lagwave.TEMPLATES)
    ops = [
        _template_stability_op(n) if n.endswith("-stability") else _template_run_op(n)
        for n in names
    ]
    # One template per diagram law.
    ops += [_template_thresholds_op(n) for n in ("greenshields-shock-a", "triangular-shock-a", "kerner-redlight")]
    ops.append(_sweep_op((1.0, 0.5) if tiny else (1.0, 0.5, 0.25, 0.125, 0.0625)))
    return [ops[i] for i in rng.permutation(len(ops))]


# -- long-platoon ------------------------------------------------------
#
# Library calls with no file output: the per-step cost of the kernel.

_STABILITY_MODELS = (
    ("nonstandard-stability", {}),
    ("phillips-stability", {}),
    ("phillips-stability", {"model": "jwz", "t": 5.0, "c0": 2.0}),
    ("phillips-stability", {"model": "jwz", "t": 5.0, "c0": 2.0, "corrected": 1}),
    ("phillips-stability", {"model": "jwz", "t": 5.0, "c0": 2.0, "corrected": 2}),
)


def _run_stability(text: str):
    spec = lagwave.load_spec(text)
    sc = spec.scenario
    return lagwave.string_stability_experiment(
        fd=sc.fd, model=spec.model, s0=1.0 / sc.k1,
        amplitude=spec.stability.amplitude, omega=spec.stability.omega,
        m=sc.m, dn=sc.dn, dt=sc.dt, duration=sc.duration,
    )


def _stability_op(template: str, run_keys: dict, amplitude: float, omega: float, expect_invalid: bool) -> Op:
    text = _ini({
        "run": {"template": template, **run_keys},
        "stability": {"amplitude": amplitude, "omega": omega},
    })
    spec = lagwave.load_spec(text)

    def check(res, out: str) -> Check:
        chk = Check()
        if expect_invalid:
            chk.expect(isinstance(res, lagwave.ExperimentInvalid),
                       f"expected ExperimentInvalid, got {type(res).__name__}")
        elif _expect_value(chk, res, lagwave.StringStabilityResult):
            _check_stability_result(chk, res.amplification_ratio, res.predicted_ratio, spec.model)
        return chk

    label = run_keys.get("model", template.split("-")[0]) + (f"-c{run_keys['corrected']}" if "corrected" in run_keys else "")
    return Op(f"stability:{label}:w={omega:.4f}:a={amplitude:g}", text,
              lambda out: _run_stability(text), check, _vehicle_steps(spec))


def _simulate_op(name: str, text: str, expect_min_spacing: float | None = None) -> Op:
    spec = lagwave.load_spec(text)

    def run(out: str):
        parsed = lagwave.load_spec(text)
        return lagwave.simulate(parsed.scenario, model=parsed.model, scheme=parsed.scheme)

    def check(traj, out: str) -> Check:
        chk = Check()
        if _expect_value(chk, traj, lagwave.Trajectory):
            collisions, negatives, min_s = _audit(traj, spec.scenario.fd)
            chk.expect(collisions == 0 and negatives == 0, f"{collisions} collisions, {negatives} negative speeds")
            if expect_min_spacing is not None:
                chk.against(min_s, expect_min_spacing, 1e-9, "closest approach to the stopped leader", exact=False)
        return chk

    return Op(name, text, run, check, _vehicle_steps(spec))


def _long_platoon(rng, tiny: bool) -> list[Op]:
    # The stability window keeps its full length even when tiny: a shorter
    # record no longer matches the linear prediction.
    ops = []
    for template, keys in _STABILITY_MODELS:
        for omega in rng.uniform(0.04, 0.14, size=1 if tiny else 2):
            ops.append(_stability_op(template, keys, 0.02, float(omega), expect_invalid=False))
    # A ripple large enough to crash the relaxation model: the experiment must refuse it.
    ops.append(_stability_op("phillips-stability", {}, 3.0, float(rng.uniform(0.25, 0.35)), expect_invalid=True))
    # The long reference run of demos/rival_schemes.py: spacing creeps to jam, never below.
    ops.append(_simulate_op("simulate:rival-long-run", _ini({
        "fd": {"type": "triangular", "v": 20.0, "w": 5.0, "k": 1.0 / 7.0},
        "scenario": {"k1": 1.0 / 14.0, "lead_speed": 0.0, "m": 3, "dn": 1.0, "dt": 1.0,
                     "duration": 1000.0 if tiny else 10_000.0},
    }), expect_min_spacing=7.0))
    kerner = lagwave.template_text("kerner-redlight")
    if tiny:
        kerner = _ini({"run": {"template": "kerner-redlight"}, "scenario": {"duration": 240.0}})
    ops.append(_simulate_op("simulate:kerner-redlight", kerner))
    return ops


# -- rival-audit -------------------------------------------------------
#
# All five schemes at width, then the audit and the wave fit: per-element
# work in the kernel and the audit's event lists.

_COLLIDES = {
    # template -> schemes whose platoons collide for every lead speed drawn below
    "greenshields-shock-a": {lagwave.Scheme.FORWARD_SPACING, lagwave.Scheme.ARITHMETIC_CENTRAL,
                             lagwave.Scheme.HARMONIC_CENTRAL},
    "triangular-shock-b": {lagwave.Scheme.FORWARD_SPACING, lagwave.Scheme.ARITHMETIC_CENTRAL,
                           lagwave.Scheme.HARMONIC_CENTRAL, lagwave.Scheme.EXPLICIT_EXPLICIT},
}
# Lead speeds for which the outcomes above hold; explicit-explicit starts to
# collide on the Greenshields shock below a lead speed of about 6.5 m/s.
_LEAD_RANGE = {"greenshields-shock-a": (7.0, 9.5), "triangular-shock-b": (0.5, 2.5)}


def _audit_run(text: str):
    spec = lagwave.load_spec(text)
    sc = spec.scenario
    traj = lagwave.simulate(sc, model=spec.model, scheme=spec.scheme)
    report = lagwave.diagnose(traj, sc.fd)
    try:
        meas = lagwave.measure_front_speed(traj, sc.fd.eta(sc.k1), sc.lead_speed)
    except lagwave.MeasurementError as exc:
        meas = exc
    return traj, report, meas


def _audit_op(template: str, scheme, lead: float, vehicles: int) -> Op:
    text = _ini({
        "scenario": {"vehicles": vehicles, "lead_speed": lead},
        "run": {"template": template, "scheme": scheme.value},
    })
    spec = lagwave.load_spec(text)
    sc = spec.scenario
    collides = scheme in _COLLIDES[template]

    def check(value, out: str) -> Check:
        chk = Check()
        if not _expect_value(chk, value, tuple):
            return chk
        traj, report, meas = value
        collisions, negatives, min_s = _audit(traj, sc.fd)
        chk.expect((report.collision_count, report.negative_speed_count) == (collisions, negatives),
                   f"diagnose counted {report.collision_count}/{report.negative_speed_count} events, "
                   f"direct count {collisions}/{negatives}")
        chk.expect(report.min_spacing == min_s, "diagnose min spacing differs from direct count")
        chk.expect((collisions > 0) == collides, f"{collisions} collisions, expected {'some' if collides else 'none'}")
        if scheme is lagwave.Scheme.FORWARD_SPACING:
            # The forward stencil never lets a front form: nothing to fit.
            chk.expect(isinstance(meas, lagwave.MeasurementError), "front measured on the forward stencil")
        elif _expect_value(chk, meas, lagwave.WaveMeasurement) and scheme is lagwave.Scheme.ANISOTROPIC_SYMPLECTIC:
            k2 = _downstream_density(sc.fd, lead)
            chk.against(meas.speed, lagwave.shock_speed_rh(sc.fd, sc.k1, k2), SHOCK_TOL, "shock speed")
        return chk

    return Op(f"audit:{template}:{scheme.value}:v2={lead:.4f}:n={vehicles}", text,
              lambda out: _audit_run(text), check, _vehicle_steps(spec))


def _rival_audit(rng, tiny: bool) -> list[Op]:
    ops = []
    for template, (lo, hi) in _LEAD_RANGE.items():
        for lead in rng.uniform(lo, hi, size=1 if tiny else 3):
            ops += [_audit_op(template, scheme, float(lead), 10 if tiny else 60) for scheme in lagwave.Scheme]
    # Scaling run: 10 001 slots (625 vehicles at dn = 1/16).
    lead = float(rng.uniform(*_LEAD_RANGE["triangular-shock-b"]))
    ops.append(_audit_op("triangular-shock-b", lagwave.Scheme.ANISOTROPIC_SYMPLECTIC, lead, 20 if tiny else 625))
    return ops


# -- thresholds-grid ---------------------------------------------------
#
# Config parsing, canonical serialization and the threshold suprema on
# ~150 distinct diagrams: more than the 128 entries each threshold cache
# holds, then 30 revisits, some still cached and some evicted.


def _draw_diagram(rng, kind: str) -> dict[str, object]:
    k = float(rng.uniform(0.1, 0.2))
    if kind == "greenshields":
        return {"type": "greenshields", "v": float(rng.uniform(10.0, 35.0)), "k": k}
    if kind == "triangular":
        return {"type": "triangular", "v": float(rng.uniform(15.0, 35.0)), "w": float(rng.uniform(3.0, 8.0)), "k": k}
    # The sigmoid's shape constants stay at their defaults, which put its
    # speed at zero near jam density; its scale and jam density vary.
    return {"type": "kerner", "unit_length": float(rng.uniform(20.0, 36.0)),
            "relax_time": float(rng.uniform(3.0, 8.0)), "k": k,
            "clamp_nonnegative": "true" if rng.random() < 0.5 else "false"}


def _thresholds_op(index: int, fd_keys: dict[str, object], rng) -> Op:
    text = _ini({
        "fd": fd_keys,
        "scenario": {"k1": float(fd_keys["k"]) * float(rng.uniform(0.1, 0.9)), "lead_speed": 5.0,
                     "dn": float(rng.choice([1.0, 0.5, 0.25, 0.125, 0.0625])),
                     "dt_ratio": float(rng.uniform(0.2, 2.0)), "duration": 10.0},
    })
    spec = lagwave.load_spec(text)

    def run(out: str):
        canonical = lagwave.serialize(lagwave.load_spec(text))
        os.makedirs(out, exist_ok=True)
        path = os.path.join(out, "config.ini")
        with open(path, "w") as fh:
            fh.write(canonical)
        return _cli_main(["thresholds", path, "--out", out])

    def check(rc, out: str) -> Check:
        chk = Check()
        chk.expect(rc == 0, f"exit code {rc!r}")
        with open(os.path.join(out, "config.ini")) as fh:
            chk.expect(lagwave.load_spec(fh.read()) == spec, "serialized config does not load back to the same spec")
        _check_thresholds_file(chk, out, spec)
        return chk

    return Op(f"thresholds:{index}:{fd_keys['type']}", text, run, check)


def _thresholds_grid(rng, tiny: bool) -> list[Op]:
    distinct = 12 if tiny else 150
    kinds = ("greenshields", "triangular", "kerner")
    diagrams = [_draw_diagram(rng, kinds[i % 3]) for i in range(distinct)]
    diagrams = [diagrams[i] for i in rng.permutation(distinct)]
    diagrams += [diagrams[i] for i in rng.integers(0, distinct, size=3 if tiny else 30)]
    return [_thresholds_op(i, keys, rng) for i, keys in enumerate(diagrams)]
