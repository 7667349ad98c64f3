"""The tests' reference corpus, stated once: which verbs each bundled template
has, the run cases with their trajectories, config text and the whole-grid
references that the blocked, streamed and in-place code is checked against.

A case's trajectory is made once per session and shared by every test that
reads it, so its arrays are read-only: a test that writes into one fails.
"""
import contextlib
import functools
import math
import os
from dataclasses import replace

import numpy as np

from lagwave.analysis import COLLISION_TOL, NEGATIVE_SPEED_TOL, STARTUP_FRACTION, MeasurementError, _fit_line
from lagwave.cli import load_spec
from lagwave.conditions import cfl_threshold, collision_free_threshold
from lagwave.engine import (
    JWZ, Corrected1, NonstandardLWR, PhillipsRelax, Scheme, Trajectory, _Correction, _relaxation_time, simulate,
)
from lagwave.fundamental import GreenshieldsFD, TriangularFD
from lagwave.riemann import synthetic_shock_trajectory
from lagwave.templates import TEMPLATES, template_text


def template_verbs(name):
    """The verbs with outputs of template ``name``, besides ``thresholds``:
    ``stability`` where it has a [stability] section, else ``run``, and
    ``sweep`` where it has ``vehicles`` and ``dt_ratio``."""
    spec = load_spec(template_text(name))
    sweepable = spec.vehicles is not None and spec.dt_ratio is not None
    return ("run" if spec.stability is None else "stability",) + ("sweep",) * sweepable


SWEEPABLE = [name for name in sorted(TEMPLATES) if "sweep" in template_verbs(name)]

_G, _T = GreenshieldsFD(), TriangularFD()
# (fd, k1, k2, m, dn, duration, dt) of each synthetic shock, which has no RunSpec.
SYNTHETIC_SHOCKS = {
    "greenshields": (_G, _G.K / 4.0, 0.625 * _G.K, 20, 0.5, 40.0, 0.2),
    "triangular-congested": (_T, 0.4 * _T.K, 0.8 * _T.K, 15, 1.0, 60.0, 0.25),
    "greenshields-short": (_G, _G.K / 4.0, 0.625 * _G.K, 5, 1.0, 1.0, 0.1),
    "greenshields-fine": (_G, _G.K / 8.0, 0.5 * _G.K, 40, 0.25, 40.0, 0.05),
}
# Every run template, every scheme on the shock templates, a leader-only
# platoon, a run of no steps and non-finite and signed-zero speeds: the
# cases with a RunSpec.
RUN_CASES = [
    f"{name}:{scheme.value}" for name in sorted(TEMPLATES) if "run" in template_verbs(name)
    for scheme in (Scheme if "shock" in name else [load_spec(template_text(name)).scheme])
] + ["greenshields-shock-a:m=0", "greenshields-shock-a:duration=0", "greenshields-shock-b:special"]
CASES = RUN_CASES + [f"synthetic:{name}" for name in SYNTHETIC_SHOCKS]


def case_spec(case):
    """The RunSpec of a run case; the special case's values are edited into its record."""
    name, variant = case.split(":")
    spec = load_spec(template_text(name))
    sc = spec.scenario
    if variant == "m=0":
        return replace(spec, scenario=replace(sc, m=0))
    if variant == "duration=0":
        return replace(spec, scenario=replace(sc, duration=0.0))
    if variant == "special":
        return replace(spec, scenario=replace(sc, m=6, duration=3 * sc.dt))
    # the shock templates use the equilibrium model, which every scheme supports
    return replace(spec, scheme=Scheme(variant))


@functools.lru_cache(maxsize=None)
def case_trajectory(case):
    """The trajectory of ``case``, made once, with read-only arrays."""
    source, variant = case.split(":")
    if source == "synthetic":
        fd, k1, k2, m, dn, duration, dt = SYNTHETIC_SHOCKS[variant]
        traj = synthetic_shock_trajectory(fd, k1, k2, m=m, dn=dn, duration=duration, dt=dt)
    else:
        spec = case_spec(case)
        traj = simulate(spec.scenario, model=spec.model, scheme=spec.scheme)
    if variant == "special":
        x, v = traj.positions, traj.speeds
        v[0, 3] = -0.0
        v[1, 2] = np.nan
        v[2, 4] = np.inf
        v[2, 5] = -np.inf
        v[-1, -1] = -0.0
        x[1, 6] = np.nan
    for a in (traj.times, traj.positions, traj.speeds):
        a.flags.writeable = False
    return traj


BASE_SC = {"k1": "0.05", "lead_speed": "5.0", "dn": "1.0", "dt": "0.35", "duration": "2.0"}


def make_cfg(fd=None, scenario=None, run_sec=None, stability_sec=None, extra=""):
    """Config text of the sections given, then ``extra``; [fd] is a Greenshields
    diagram and [scenario] ``BASE_SC`` unless given."""
    sections = {"fd": {"type": "greenshields"} if fd is None else fd,
                "scenario": BASE_SC if scenario is None else scenario, "run": run_sec, "stability": stability_sec}
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for name, keys in sections.items() if keys is not None) + extra


def trajectory(x, v, dt=1.0):
    """A hand-made record on the scenario of greenshields-shock-a at dn = 1."""
    sc = replace(load_spec(template_text("greenshields-shock-a")).scenario, dn=1.0, dt=dt)
    x, v = np.asarray(x, dtype=float), np.asarray(v, dtype=float)
    return Trajectory(times=dt * np.arange(len(x)), positions=x, speeds=v, scenario=sc)


def eta(fd, k):
    """Each law's ``_eta`` as it was written before its ``out=`` form: the
    bits the formula keeps, the triangular law's NaN and k = 0 included."""
    if isinstance(fd, GreenshieldsFD):
        return fd.V * (1.0 - k / fd.K)
    if isinstance(fd, TriangularFD):
        congested = np.where(k > 0.0, fd.W * (fd.K / np.where(k > 0.0, k, 1.0) - 1.0), np.inf)
        return np.minimum(fd.V, congested)
    x = (k / fd.K - fd.c2) / fd.c3
    raw = fd.amplitude * (1.0 / (1.0 + np.exp(x)) - fd.c4)
    return np.maximum(raw, 0.0) if fd.clamp_nonnegative else raw


# The stepping kernel as it was before its scratch rows: every intermediate
# allocated, the stencils concatenated, theta through the laws' formulas as
# they were then.  The in-place and float kernels must give the same bits.
_STENCILS = {
    Scheme.ANISOTROPIC_SYMPLECTIC: lambda s: s,
    Scheme.EXPLICIT_EXPLICIT: lambda s: s,
    Scheme.FORWARD_SPACING: lambda s: np.concatenate((s[1:], s[-1:])),
    Scheme.ARITHMETIC_CENTRAL: lambda s: np.concatenate((0.5 * (s[:-1] + s[1:]), s[-1:])),
    Scheme.HARMONIC_CENTRAL: lambda s: np.concatenate((2.0 * s[:-1] * s[1:] / (s[:-1] + s[1:]), s[-1:])),
}


def step_kernel(positions, speeds, lead, fd, dn, dt, model, scheme):
    clamp = None
    if isinstance(model, _Correction):
        clamp, model = type(model), model.inner
    if not isinstance(model, (NonstandardLWR, PhillipsRelax, JWZ)):
        raise TypeError(f"unknown model {model!r}")
    # Interpolation form of the relaxation: exactly theta when T == dt.
    T = _relaxation_time(model)
    r = None if T is None else 1.0 - dt / T
    stencil = _STENCILS[scheme]
    S = fd.S
    for j in range(len(lead)):
        x, u, v = positions[j], speeds[j], speeds[j + 1]
        gaps = x[:-1] - x[1:]
        th = eta(fd, np.minimum(1.0 / np.maximum(stencil(gaps / dn), S), fd.K))
        new = th if r is None else th + r * (u[1:] - th)
        if isinstance(model, JWZ):
            far = np.abs(gaps) > 1e-12
            antic = np.where(far, (u[:-1] - u[1:]) / np.where(far, gaps, 1.0), 0.0)
            new = new + dt * model.c0 * antic
        if clamp is not None:
            ceiling = th if clamp is Corrected1 else (gaps - S * dn) / dt
            new = np.maximum(0.0, np.minimum(new, ceiling))
        v[0] = lead[j]
        v[1:] = new
        positions[j + 1] = x + dt * (u if scheme is Scheme.EXPLICIT_EXPLICIT else v)


def run_kernel(kernel, fd, dn, dt, x0, u0, lead, *model_and_scheme):
    """``kernel`` stepped from row (x0, u0) behind ``lead``: the (positions, speeds) grids."""
    positions = np.full((len(lead) + 1, len(x0)), -7.0)
    speeds = np.full_like(positions, -7.0)
    positions[0], speeds[0] = x0, u0
    with np.errstate(all="ignore"):
        kernel(positions, speeds, lead, fd, dn, dt, *model_and_scheme)
    return positions, speeds


def newell_positions(fd, dn, dt, x0, lead):
    """Newell's model from row ``x0``: Y_m^{j+1} = min(Y_m^j + V dt, Y_{m-1}^j - S dn),
    the leader moved by dt * lead[j]."""
    y = np.empty((len(lead) + 1, len(x0)))
    y[0] = x0
    for j, speed in enumerate(lead):
        y[j + 1, 0] = y[j, 0] + dt * speed
        y[j + 1, 1:] = np.minimum(y[j, 1:] + fd.V * dt, y[j, :-1] - fd.S * dn)
    return y


def diagnose(trajectory, fd=None):
    """The audit in whole-grid arrays; returns the report's fields."""
    if fd is None:
        fd = trajectory.scenario.fd
    s = trajectory.spacings()
    collisions = np.argwhere(s < fd.S - COLLISION_TOL)
    collisions[:, 1] += 1
    negatives = np.argwhere(trajectory.speeds < -NEGATIVE_SPEED_TOL)
    min_spacing = float(np.min(s)) if s.size else float("inf")
    acc = trajectory.accelerations
    max_acc = float(np.max(np.abs(acc, out=acc))) if acc.size else 0.0
    nonfinite = sum(int(np.count_nonzero(~np.isfinite(a))) for a in (trajectory.positions, trajectory.speeds))
    return collisions, negatives, min_spacing, max_acc, nonfinite


def assert_same_report(rep, want):
    """``rep``, a DiagnosticsReport, has the fields ``diagnose`` gives in ``want``."""
    collisions, negatives, min_spacing, max_acc, nonfinite = want
    for got, ref in ((rep.collision_events, collisions), (rep.negative_speed_events, negatives)):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert np.array_equal(got, ref)
    # repr tells nan and -0.0 apart, as summary.txt's %.17g does
    assert repr(rep.min_spacing) == repr(min_spacing)
    assert repr(rep.max_abs_acceleration) == repr(max_acc)
    assert rep.nonfinite_count == nonfinite


def crossings(trajectory, level, rising):
    """The (t, x) where each follower's speed first crosses ``level``, one
    follower at a time, for followers that start strictly on the far side:
    at the crossing row where the speed is the level, else interpolated from
    the row before."""
    times = trajectory.times
    ts, xs = [], []
    for m in range(1, trajectory.speeds.shape[1]):
        v, x = trajectory.speeds[:, m], trajectory.positions[:, m]
        past = v >= level if rising else v <= level
        hits = np.nonzero(past)[0]
        if past[0] or hits.size == 0:
            continue
        j = int(hits[0])
        if v[j] == level:
            ts.append(float(times[j]))
            xs.append(float(x[j]))
        else:
            frac = (level - v[j - 1]) / (v[j] - v[j - 1])
            ts.append(float(times[j - 1] + frac * (times[j] - times[j - 1])))
            xs.append(float(x[j - 1] + frac * (x[j] - x[j - 1])))
    return np.asarray(ts), np.asarray(xs)


def wave(traj):
    """The speed and r^2 of the wave, chosen from the record's first row as
    measure_wave chooses it, from the follower-by-follower crossings."""
    fd = traj.scenario.fd
    v2, v1 = traj.speeds[0, [0, -1]].tolist()
    choice = None
    if v1 < STARTUP_FRACTION * fd.V:
        choice = STARTUP_FRACTION * fd.V, True
    elif abs(v1 - v2) > 1e-9:
        choice = 0.5 * (v1 + v2), v2 > v1
    if choice is not None:
        ts, xs = crossings(traj, *choice)
        with contextlib.suppress(MeasurementError):
            if ts.size >= 3:
                return _fit_line(ts, xs)
    return math.nan, math.nan


def write_csv(path, traj):
    """trajectory.csv: one %-format per line, over the whole (J, M+1)
    acceleration grid."""
    acc = traj.accelerations
    numbers = traj.vehicle_numbers().tolist()
    width = len(numbers)
    with open(path, "w") as fh:
        fh.write("t,vehicle,N,x,v,a\n")
        for j, t in enumerate(traj.times.tolist()):
            a = acc[j].tolist() if j < len(acc) else [0.0] * width
            rows = zip([t] * width, range(width), numbers, traj.positions[j].tolist(), traj.speeds[j].tolist(), a)
            fh.writelines("%.17g,%d,%.17g,%.17g,%.17g,%.17g\n" % row for row in rows)


def summary(traj):
    """summary.txt from the whole-grid audit and crossings."""
    fd = traj.scenario.fd
    collisions, negatives, min_spacing, max_acc, _ = diagnose(traj)
    speed, r2 = wave(traj)
    values = [("measured_shock_speed", speed), ("r_squared", r2), ("min_spacing", min_spacing),
              ("collision_count", len(collisions)), ("negative_speed_count", len(negatives)),
              ("max_abs_accel", max_acc), ("collision_free_threshold", collision_free_threshold(fd)),
              ("cfl_threshold", cfl_threshold(fd))]
    return "".join(f"{key} = {value}\n" if isinstance(value, int) else f"{key} = {value:.17g}\n"
                   for key, value in values)


def displayed_slots(dn, m, count):
    """Slot of each displayed whole-numbered vehicle 1..count, keyed by vehicle
    number, over every vehicle: one whose slot is the leader's or lies past
    slot m is not displayed."""
    slots = {n: round(n / dn) for n in range(1, count + 1)}
    return {n: slot for n, slot in slots.items() if 1 <= slot <= m}


def traj_diff(prev, traj, count=5):
    """The largest gap between a displayed vehicle's positions in ``traj`` and
    in ``prev``, the run at the dn before, on prev's time grid up to the
    shorter duration; nan where the two runs display no vehicle in common."""
    t_prev, t = prev.times, traj.times
    grid = t_prev[t_prev <= min(float(t_prev[-1]), float(t[-1]))]
    slots_prev, slots = (displayed_slots(r.dn, r.scenario.m, count) for r in (prev, traj))
    diffs = [float(np.max(np.abs(prev.positions[: len(grid), slot] - np.interp(grid, t, traj.positions[:, slots[n]]))))
             for n, slot in slots_prev.items() if n in slots]
    return float(np.max(diffs)) if diffs else math.nan


def sweep(spec, dn_list, out):
    """The sweep in whole-grid passes: each dn's grid is simulated, written
    by the whole-grid writer, audited and measured, and its displayed
    vehicles compared with the dn before.  Writes sweep.csv and every
    trajectory_dn*.csv to ``out``; returns the rows and stdout."""
    rows, printed, prev = [], [], None
    for dn in dn_list:
        sc = replace(spec.scenario, dn=dn, dt=spec.dt_ratio * dn, m=round(spec.vehicles / dn))
        traj = simulate(sc, model=spec.model, scheme=spec.scheme)
        write_csv(os.path.join(out, f"trajectory_dn{dn:g}.csv"), traj)
        cols = list(displayed_slots(dn, sc.m, spec.display_vehicles).values())
        acc = np.diff(traj.speeds[:, cols], axis=0) / sc.dt
        max_acc = float(np.max(np.abs(acc))) if acc.size else math.nan
        diff = math.nan if prev is None else traj_diff(prev, traj, spec.display_vehicles)
        prev = traj
        row = (dn, wave(traj)[0], max_acc, diagnose(traj)[2], diff)
        rows.append(row)
        printed.append("[sweep] dn=%g speed=%.6g max_accel=%.6g min_spacing=%.6g diff_prev=%.6g\n" % row)
    table = os.path.join(out, "sweep.csv")
    with open(table, "w") as fh:
        fh.write("dn,measured_speed,max_abs_accel,min_spacing,traj_diff_prev\n")
        fh.writelines(",".join("%.17g" % v for v in row) + "\n" for row in rows)
    return rows, "".join(printed) + f"[sweep] wrote {table}\n"
