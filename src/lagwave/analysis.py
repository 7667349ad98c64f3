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

from .engine import Model, Scenario, Scheme, Trajectory, _count, _relaxation_time, _row_blocks, acceleration, simulate
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


def _events(mask: np.ndarray, j0: int, col: int) -> np.ndarray:
    """``np.argwhere(mask) + (j0, col)`` for a 2-D mask: the (n, 2) intp rows,
    in the same order, from its flat indices and one divmod by its width."""
    flat = np.flatnonzero(mask)
    rows = np.empty((flat.size, 2), dtype=np.intp)
    # A mask of width 0 has no flat index to divide.
    np.divmod(flat, mask.shape[1] or 1, out=(rows[:, 0], rows[:, 1]))
    rows += (j0, col)
    return rows


def diagnose(trajectory: Trajectory, fd: FundamentalDiagram | None = None) -> DiagnosticsReport:
    """Scan a trajectory for spacing violations and negative speeds.

    The grid is audited in blocks of time rows (``engine._row_blocks``), so
    the temporaries stay near _AUDIT_BLOCK values whatever the run's size;
    a block is searched for events only when its minimum crosses the limit.
    The report is the same as one whole-grid pass.
    """
    fd = trajectory.scenario.fd if fd is None else fd
    spacing_limit = fd.S - COLLISION_TOL

    # Each list starts with no event, so a clean run concatenates to a (0, 2) array.
    collisions, negatives = [np.empty((0, 2), dtype=np.intp)], [np.empty((0, 2), dtype=np.intp)]
    # np.minimum/np.maximum carry a NaN through, as one np.min/np.max would.
    min_spacing, max_acc, nonfinite = math.inf, 0.0, 0
    for j0, xb, vb, acc in _row_blocks(trajectory, _AUDIT_BLOCK):
        max_acc = np.maximum(max_acc, np.max(np.abs(acc, out=acc)))
        del acc  # before the next block-sized array, to keep the peak at about one block
        s = xb[:, :-1] - xb[:, 1:]
        s /= trajectory.dn
        # A block whose minimum is at or above the limit holds no event; a NaN
        # minimum fails the test, so such a block is searched.
        block_min = np.min(s, initial=math.inf)
        if not block_min >= spacing_limit:
            # Spacing column m is the gap in front of vehicle m + 1.
            collisions.append(_events(s < spacing_limit, j0, 1))
        min_spacing = np.minimum(min_spacing, block_min)
        del s
        if not np.min(vb, initial=math.inf) >= -NEGATIVE_SPEED_TOL:
            negatives.append(_events(vb < -NEGATIVE_SPEED_TOL, j0, 0))
        nonfinite += sum(a.size - int(np.count_nonzero(np.isfinite(a))) for a in (xb, vb))
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
    """Speed and r^2 of the wave the record's first row sets off.

    Followers at rest set off the startup wave; followers whose speed
    differs from the leader's set off the front between the two speeds.
    A uniform platoon, or a fit with too few crossings, gives (nan, nan).
    """
    v2, v1 = trajectory.speeds[0, [0, -1]].tolist()
    try:
        if v1 < STARTUP_FRACTION * trajectory.scenario.fd.V:
            meas = measure_startup_wave(trajectory)
        elif abs(v1 - v2) > 1e-9:
            meas = measure_front_speed(trajectory, v1, v2)
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
    # Every vehicle past (m + 1) * dn has round(n / dn) > m: stop there.
    slots = {n: round(n / dn) for n in range(1, min(count, int((m + 1) * dn) + 1) + 1)}
    return {n: slot for n, slot in slots.items() if 1 <= slot <= m}


def _slot_count(vehicles: int, dn: float) -> int:
    """The slot count m of a run of ``vehicles`` whole vehicles: vehicles / dn, rounded."""
    if not (math.isfinite(dn) and dn > 0.0):
        raise ValueError(f"dn must be positive and finite, got {dn!r}")
    if vehicles < 0:
        raise ValueError(f"vehicles must be nonnegative, got {vehicles!r}")
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
        max_acc = float(np.max(np.abs(acc))) if acc.size else math.nan
        # Copies: a view would keep the whole earlier positions grid alive.
        curves = {n: traj.positions[:, slot].copy() for n, slot in slots.items()}
        diff = math.nan
        if prev is not None:
            t_prev, curves_prev = prev
            grid = t_prev[t_prev <= min(float(t_prev[-1]), float(traj.times[-1]))]
            diff = 0.0
            for n, x_prev in curves_prev.items():
                if n in curves:
                    # grid is a prefix of t_prev, so the previous curve is read on its own knots.
                    b = np.interp(grid, traj.times, curves[n])
                    diff = max(diff, float(np.max(np.abs(x_prev[: len(grid)] - b))))
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
    relaxation time (dt for the equilibrium model); it is inf where
    theta'(s0) = 0 and the exponent's numerator is not.
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
    try:
        lead = veq + amplitude * np.sin(omega * (np.arange(J) + 1) * dt)
    except (MemoryError, ValueError) as exc:  # as simulate refuses a grid that numpy cannot allocate
        raise ValueError(f"numpy cannot allocate the {_count(J)} lead speeds of duration / dt steps: {exc}") from None
    if np.any(lead < 0.0):
        raise ValueError("perturbation drives the lead speed negative")
    traj = simulate(scenario, model=model, lead_speeds=lead)

    report = diagnose(traj)
    if report.collision_count:
        raise ExperimentInvalid(
            f"platoon collided {report.collision_count} times; amplitude too large"
        )

    T = _relaxation_time(model)
    # Past the float range, omega**2 and the exponent saturate without a warning;
    # numpy's power has the bits of Python's.  + 0.0 makes the free branch's -0.0
    # (or an underflow) +0.0, so a zero slope gives the limit from above, inf.
    with np.errstate(over="ignore", divide="ignore"):
        rate = (dt if T is None else T) * np.float64(omega) ** 2
        predicted = float(np.exp(rate / (fd.theta_prime(s0) + 0.0))) if rate else 1.0
    cut = int(0.2 * (J + 1))
    window = traj.speeds[cut:, :]
    amps = 0.5 * (window.max(axis=0) - window.min(axis=0))

    ratio = 1.0
    if amplitude != 0.0:
        if np.any(amps[1:] <= 0.0):
            raise ExperimentInvalid(
                "a follower shows no oscillation: the window is too short or the followers do not respond to the leader"
            )
        ratio = float(np.exp(np.mean(np.log(amps[2:] / amps[1:-1])))) ** (1.0 / dn)
    return StringStabilityResult(
        omega=omega,
        amplitudes=amps,
        amplification_ratio=ratio,
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
    if not (math.isfinite(T) and T > 0.0 and math.isfinite(wavenumber)):
        raise ValueError(f"T must be positive and finite, wavenumber finite; got T={T!r}, wavenumber={wavenumber!r}")
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
    if not (math.isfinite(T) and T > 0.0):
        raise ValueError(f"T must be positive and finite, got {T!r}")
    return -T * (k * fd.eta_prime(k)) ** 2
