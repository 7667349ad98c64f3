"""Post-hoc diagnostics and measurements on simulated trajectories.

Everything here works on a finished Trajectory; nothing feeds back into
the stepping.  Spacing-based quantities use normalized spacings
(position gap divided by dn), so jam spacing is the reference value S
for every discretization.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .engine import Model, Scenario, Scheme, Trajectory, _relaxation_time, acceleration, simulate
from .fundamental import FundamentalDiagram

__all__ = [
    "MeasurementError",
    "ExperimentInvalid",
    "DiagnosticsReport",
    "WaveMeasurement",
    "StringStabilityResult",
    "diagnose",
    "measure_front_speed",
    "measure_startup_wave",
    "measure_wave",
    "SweepRow",
    "sweep_dn",
    "string_stability_experiment",
    "eulerian_dispersion_roots",
    "diffusion_coefficient",
]

COLLISION_TOL = 1e-9
NEGATIVE_SPEED_TOL = 1e-12
# Followers below this fraction of the free-flow speed are at rest.
STARTUP_FRACTION = 1e-3
# Grid values per block of diagnose's audit.
_AUDIT_BLOCK = 65536


class MeasurementError(RuntimeError):
    """A wave measurement could not be made (too few crossings)."""


class ExperimentInvalid(RuntimeError):
    """An experiment violated its own preconditions while running."""


@dataclass(eq=False)
class DiagnosticsReport:
    """Collision and speed-sign audit of a trajectory.

    Events are (n, 2) integer arrays of (time index, vehicle index)
    rows, ordered by time and then vehicle, so row 0 is the first
    event.  A collision is a normalized spacing below S - 1e-9; a
    negative speed is anything below -1e-12.  No comparison sees a NaN
    or an infinity, so the non-finite positions and speeds are counted
    apart; any of them makes the trajectory unclean.
    """

    collision_events: np.ndarray
    negative_speed_events: np.ndarray
    min_spacing: float
    max_abs_acceleration: float
    nonfinite_count: int

    @property
    def collision_count(self) -> int:
        return len(self.collision_events)

    @property
    def negative_speed_count(self) -> int:
        return len(self.negative_speed_events)

    @property
    def clean(self) -> bool:
        return not (self.collision_count or self.negative_speed_count or self.nonfinite_count)


def diagnose(trajectory: Trajectory, fd: FundamentalDiagram | None = None) -> DiagnosticsReport:
    """Scan a trajectory for spacing violations and negative speeds.

    The grid is audited in blocks of time rows, so the temporaries stay
    near _AUDIT_BLOCK values whatever the run's size; the report is the
    same as one whole-grid pass.
    """
    if fd is None:
        fd = trajectory.scenario.fd
    x, v = trajectory.positions, trajectory.speeds
    dn, dt = trajectory.dn, trajectory.scenario.dt
    rows = max(1, _AUDIT_BLOCK // x.shape[1])

    collisions, negatives = [], []
    # np.minimum/np.maximum carry a NaN through, as one np.min/np.max would.
    min_spacing, max_acc, nonfinite = math.inf, 0.0, 0
    for j0 in range(0, len(x), rows):
        xb, vb = x[j0 : j0 + rows], v[j0 : j0 + rows]
        s = (xb[:, :-1] - xb[:, 1:]) / dn
        hits = np.argwhere(s < fd.S - COLLISION_TOL)
        # Spacing column m is the gap in front of vehicle m + 1.
        hits += (j0, 1)
        collisions.append(hits)
        if s.size:
            min_spacing = np.minimum(min_spacing, np.min(s))
        del s  # before the next block-sized array, to keep the peak at about one block
        hits = np.argwhere(vb < -NEGATIVE_SPEED_TOL)
        hits[:, 0] += j0
        negatives.append(hits)
        # One row of overlap: the block's last step ends in the next block.
        acc = acceleration(v[j0 : j0 + rows + 1], dt)
        if acc.size:
            max_acc = np.maximum(max_acc, np.max(np.abs(acc, out=acc)))
        del acc
        nonfinite += sum(int(np.count_nonzero(~np.isfinite(a))) for a in (xb, vb))
    return DiagnosticsReport(
        collision_events=np.concatenate(collisions),
        negative_speed_events=np.concatenate(negatives),
        min_spacing=float(min_spacing),
        max_abs_acceleration=float(max_acc),
        nonfinite_count=nonfinite,
    )


@dataclass(eq=False)
class WaveMeasurement:
    """A wave front fitted through per-vehicle crossing points."""

    speed: float
    r_squared: float
    crossing_times: np.ndarray
    crossing_positions: np.ndarray


def _fit_line(t: np.ndarray, x: np.ndarray) -> tuple[float, float]:
    """Least-squares slope and r^2 of x against t, centred for stability."""
    tm = t - t.mean()
    xm = x - x.mean()
    denom = float(np.dot(tm, tm))
    if denom == 0.0:
        raise MeasurementError("crossing times are all identical")
    slope = float(np.dot(tm, xm)) / denom
    ss_tot = float(np.dot(xm, xm))
    resid = xm - slope * tm
    ss_res = float(np.dot(resid, resid))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return slope, min(max(r2, 0.0), 1.0)


def _crossings(trajectory: Trajectory, level: float, rising: bool) -> tuple[np.ndarray, np.ndarray]:
    """Interpolated (t, x) where each follower's speed first crosses ``level``.

    A vehicle only contributes if it starts strictly on the far side,
    so vehicles already past the front at t = 0 are excluded.
    """
    t, x, v = trajectory.times, trajectory.positions, trajectory.speeds
    past = v[:, 1:] >= level if rising else v[:, 1:] <= level
    # The first row past the level, per follower.  It is 0 both for a
    # follower that never gets there and for one that starts past it, and
    # these are exactly the followers that do not contribute.
    first = past.argmax(axis=0)
    m = np.nonzero(first)[0] + 1
    j = first[m - 1]
    hit = v[j, m] == level
    frac = (level - v[j - 1, m]) / (v[j, m] - v[j - 1, m])
    ts = np.where(hit, t[j], t[j - 1] + frac * (t[j] - t[j - 1]))
    xs = np.where(hit, x[j, m], x[j - 1, m] + frac * (x[j, m] - x[j - 1, m]))
    return ts, xs


def _fit_wave(ts: np.ndarray, xs: np.ndarray, what: str) -> WaveMeasurement:
    """Line through three or more crossing points, else "only <count> <what>"."""
    if ts.size < 3:
        raise MeasurementError(f"only {ts.size} {what}")
    slope, r2 = _fit_line(ts, xs)
    return WaveMeasurement(speed=slope, r_squared=r2, crossing_times=ts, crossing_positions=xs)


def measure_front_speed(trajectory: Trajectory, v1: float, v2: float) -> WaveMeasurement:
    """Fit the speed of the front separating speed states v1 and v2.

    The crossing of the midpoint speed (v1+v2)/2 is located for every
    follower that starts on the v1 side; a line through the crossing
    points gives the front speed.  Needs at least three crossings.
    """
    if v1 == v2:
        raise ValueError("v1 and v2 must differ")
    level = 0.5 * (v1 + v2)
    return _fit_wave(*_crossings(trajectory, level, rising=v2 > v1), "crossings, need at least 3")


def measure_startup_wave(trajectory: Trajectory) -> WaveMeasurement:
    """Fit the wave at which vehicles released from rest start moving.

    Crossing of STARTUP_FRACTION of the free-flow speed is recorded per
    vehicle.  Vehicles that were already moving at the start are
    excluded; fewer than three starters is a measurement error, so a
    uniformly moving platoon is rejected.
    """
    level = STARTUP_FRACTION * trajectory.scenario.fd.V
    return _fit_wave(*_crossings(trajectory, level, rising=True), "vehicles started from rest")


def measure_wave(trajectory: Trajectory) -> tuple[float, float]:
    """Speed and r^2 of the wave the trajectory's scenario sets off.

    Followers at rest set off the startup wave; followers whose speed
    differs from the leader's set off the front between the two speeds.
    A uniform platoon, or a fit with too few crossings, gives (nan, nan).
    """
    sc = trajectory.scenario
    v1 = sc.initial_speed if sc.initial_speed is not None else sc.fd.eta(sc.k1)
    try:
        if v1 < STARTUP_FRACTION * sc.fd.V:
            meas = measure_startup_wave(trajectory)
        elif abs(v1 - sc.lead_speed) > 1e-9:
            meas = measure_front_speed(trajectory, v1, sc.lead_speed)
        else:
            return math.nan, math.nan
    except MeasurementError:
        return math.nan, math.nan
    return meas.speed, meas.r_squared


class SweepRow(NamedTuple):
    """One dn of a convergence sweep; the fields are sweep.csv's columns."""

    dn: float
    measured_speed: float
    max_abs_accel: float
    min_spacing: float
    traj_diff_prev: float


def _displayed_slots(dn: float, m: int, count: int) -> dict[int, int]:
    """Slot of each displayed whole-numbered vehicle 1..count, keyed by
    vehicle number; a vehicle whose slot is the leader's or lies past
    slot m is not displayed."""
    slots = {n: round(n / dn) for n in range(1, count + 1)}
    return {n: slot for n, slot in slots.items() if 1 <= slot <= m}


def _slot_count(vehicles: int, dn: float) -> int:
    """The slot count m of a run of ``vehicles`` whole vehicles: vehicles / dn, rounded."""
    if not (math.isfinite(dn) and dn > 0.0):
        raise ValueError(f"dn must be positive and finite, got {dn!r}")
    try:
        return round(vehicles / dn)
    except OverflowError:
        raise ValueError("the slot count vehicles / dn is too large for a float") from None


def sweep_dn(
    scenario: Scenario,
    dn_values: Iterable[float],
    vehicles: int,
    dt_ratio: float,
    model: Model | None = None,
    scheme: Scheme = Scheme.ANISOTROPIC_SYMPLECTIC,
    display_vehicles: int = 5,
) -> Iterator[tuple[Trajectory, SweepRow]]:
    """Re-run ``scenario`` at each dn, with m = vehicles / dn rounded (a
    ValueError for a dn that gives none) and dt = dt_ratio * dn, and
    yield (trajectory, row) one dn at a time.

    Max |acceleration| and the trajectory difference are taken over the
    displayed whole-numbered vehicles 1..display_vehicles, matching what
    the plots show; min spacing is over every simulated slot.  The
    difference is the largest gap between a displayed vehicle's
    positions at this dn and at the previous one, on the previous time
    grid up to the shorter duration; it is nan for the first dn.
    """
    prev = None
    for dn in dn_values:
        m = _slot_count(vehicles, dn)
        traj = simulate(replace(scenario, dn=dn, dt=dt_ratio * dn, m=m), model=model, scheme=scheme)
        report = diagnose(traj)
        speed, _ = measure_wave(traj)

        slots = _displayed_slots(dn, m, display_vehicles)
        cols = list(slots.values())
        # The displayed columns only: the whole (J, M+1) grid is ~10 MB on triangular-discharge.
        acc = acceleration(traj.speeds[:, cols], traj.scenario.dt)
        max_acc = float(np.max(np.abs(acc))) if cols else math.nan
        # Copies: a view would keep the whole earlier positions grid alive.
        curves = {n: traj.positions[:, slot].copy() for n, slot in slots.items()}
        diff = math.nan
        if prev is not None:
            t_prev, curves_prev = prev
            grid = t_prev[t_prev <= min(float(t_prev[-1]), float(traj.times[-1]))]
            diff = 0.0
            for n, x_prev in curves_prev.items():
                if n in curves:
                    a = np.interp(grid, t_prev, x_prev)
                    b = np.interp(grid, traj.times, curves[n])
                    diff = max(diff, float(np.max(np.abs(a - b))))
        prev = (traj.times, curves)
        yield traj, SweepRow(dn, speed, max_acc, report.min_spacing, diff)


@dataclass(eq=False)
class StringStabilityResult:
    """Outcome of a sinusoidal lead-perturbation experiment."""

    omega: float
    amplitudes: np.ndarray
    amplification_ratio: float
    predicted_ratio: float


def string_stability_experiment(
    fd: FundamentalDiagram,
    model: Model,
    s0: float,
    amplitude: float,
    omega: float,
    m: int = 10,
    dn: float = 1.0,
    dt: float = 0.35,
    duration: float = 1200.0,
) -> StringStabilityResult:
    """Drive a platoon in equilibrium at spacing s0 with a sinusoidal
    lead speed and measure how the oscillation grows along the platoon.

    The first 20% of the record is discarded as transient.  Per-vehicle
    amplitude is half the peak-to-trough speed range over the remaining
    window; the reported ratio is the geometric mean of successive
    follower-to-follower ratios, normalized per unit vehicle number.
    The prediction is exp(T * omega^2 / theta'(s0)) with T the model's
    relaxation time (dt for the equilibrium model).
    """
    if m < 2:
        raise ValueError("need at least two followers to form a ratio")
    if amplitude < 0.0:
        raise ValueError("amplitude must be nonnegative")
    veq = fd.theta(s0)
    scenario = Scenario(
        fd=fd, k1=1.0 / s0, lead_speed=veq, m=m, dn=dn, dt=dt, duration=duration
    )
    J = scenario.steps
    lead = veq + amplitude * np.sin(omega * (np.arange(J) + 1) * dt)
    if np.any(lead < 0.0):
        raise ValueError("perturbation drives the lead speed negative")
    traj = simulate(scenario, model=model, lead_speeds=lead)

    report = diagnose(traj, fd)
    if report.collision_count:
        raise ExperimentInvalid(
            f"platoon collided {report.collision_count} times; amplitude too large"
        )

    T = _relaxation_time(model)
    predicted = float(np.exp((dt if T is None else T) * omega**2 / fd.theta_prime(s0)))
    cut = int(0.2 * (J + 1))
    window = traj.speeds[cut:, :]
    amps = 0.5 * (window.max(axis=0) - window.min(axis=0))

    if amplitude == 0.0:
        return StringStabilityResult(
            omega=omega, amplitudes=amps, amplification_ratio=1.0, predicted_ratio=predicted
        )
    if np.any(amps[1:] <= 0.0):
        raise ExperimentInvalid("a follower shows no oscillation; window too short")
    ratios = amps[2:] / amps[1:-1]
    geo = float(np.exp(np.mean(np.log(ratios))))
    return StringStabilityResult(
        omega=omega,
        amplitudes=amps,
        amplification_ratio=geo ** (1.0 / dn),
        predicted_ratio=predicted,
    )


def eulerian_dispersion_roots(
    fd: FundamentalDiagram, k0: float, T: float, wavenumber: float
) -> tuple[complex, complex]:
    """Complex frequencies of a plane-wave perturbation about state k0.

    A mode proportional to exp(i*(wavenumber*x - omega*t)) satisfies a
    quadratic in omega; a root with positive imaginary part grows in
    time.  For the relaxation model posed in Eulerian coordinates such
    a root (or a neutral one) exists at every admissible state, no
    matter the parameters.
    """
    if T <= 0.0:
        raise ValueError("T must be positive")
    v0 = fd.eta(k0)
    ep = fd.eta_prime(k0)
    w = wavenumber
    b = complex(2.0 * w * v0, 1.0 / T)
    c = complex((w * v0) ** 2, (v0 - k0 * ep) * w / T)
    disc = b * b - 4.0 * c
    root = np.sqrt(complex(disc))
    return ((-b + root) / 2.0, (-b - root) / 2.0)


def diffusion_coefficient(fd: FundamentalDiagram, k: float, T: float) -> float:
    """Effective diffusion of the relaxed model, -T * (k * eta'(k))^2.

    Never positive: the Eulerian relaxation approximation behaves like
    a backward heat equation, which is ill posed.
    """
    if T <= 0.0:
        raise ValueError("T must be positive")
    return -T * (k * fd.eta_prime(k)) ** 2
