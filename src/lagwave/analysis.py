"""Post-hoc diagnostics and measurements on simulated trajectories.

Nothing here feeds back into the stepping.  The audit and the wave
crossings are accumulators fed a record's time rows in blocks, in order:
the public functions feed them a finished Trajectory, and a run's record
(``_Measures``), filled by ``sweep_dn`` and the CLI, feeds them each block.
Spacing-based quantities use normalized spacings (position gap divided by
dn), so jam spacing is the reference value S for every discretization.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .engine import Model, Scenario, Scheme, Trajectory, _count, _relaxation_time, _row_blocks, simulate
from .fundamental import FundamentalDiagram, _check_type

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


class _Audit:
    """The running figures of ``diagnose``, fed a record's (j0, positions,
    speeds, accelerations) row blocks in order (``engine._row_blocks`` or
    ``engine._stream``).  A block's accelerations are overwritten: the
    spacings are written into them once their maximum is taken.
    """

    def __init__(self, fd: FundamentalDiagram, dn: float):
        self.limit, self.dn = fd.S - COLLISION_TOL, dn
        # Each list starts with no event, so a clean run concatenates to a (0, 2) array.
        self.collisions = [np.empty((0, 2), dtype=np.intp)]
        self.negatives = [np.empty((0, 2), dtype=np.intp)]
        # np.minimum/np.maximum carry a NaN through, as one np.min/np.max would.
        self.min_spacing, self.max_acc, self.nonfinite = math.inf, 0.0, 0

    def add(self, j0: int, xb: np.ndarray, vb: np.ndarray, acc: np.ndarray) -> None:
        self.max_acc = np.maximum(self.max_acc, np.max(np.abs(acc, out=acc)))
        # The spacings take the accelerations' place, in the contiguous head of
        # their buffer, so the audit holds one block-sized array.
        rows, width = acc.shape
        s = acc.reshape(-1)[: rows * (width - 1)].reshape(rows, width - 1)
        # Two adjacent infinite positions give a NaN spacing, counted with them below.
        with np.errstate(invalid="ignore"):
            np.subtract(xb[:, :-1], xb[:, 1:], out=s)
        # Dividing by a positive dn rounds monotonically, so this is the
        # minimum of the normalized spacings, bit for bit.
        block_min = np.min(s, initial=math.inf) / self.dn
        # A block whose minimum is at or above the limit holds no event; a NaN
        # minimum fails the test, so such a block is searched.
        if not block_min >= self.limit:
            s /= self.dn
            # Spacing column m is the gap in front of vehicle m + 1.
            self.collisions.append(_events(s < self.limit, j0, 1))
        self.min_spacing = np.minimum(self.min_spacing, block_min)
        v_min = np.min(vb, initial=math.inf)
        if not v_min >= -NEGATIVE_SPEED_TOL:
            self.negatives.append(_events(vb < -NEGATIVE_SPEED_TOL, j0, 0))
        # A block holds a NaN or an infinity only if its minimum or maximum is one.
        for a, a_min in ((xb, np.min(xb, initial=math.inf)), (vb, v_min)):
            if not (math.isfinite(a_min) and math.isfinite(np.max(a, initial=-math.inf))):
                self.nonfinite += a.size - int(np.count_nonzero(np.isfinite(a)))

    def report(self) -> DiagnosticsReport:
        return DiagnosticsReport(
            collision_events=np.concatenate(self.collisions),
            negative_speed_events=np.concatenate(self.negatives),
            min_spacing=float(self.min_spacing),
            max_abs_acceleration=float(self.max_acc),
            nonfinite_count=self.nonfinite,
        )


def diagnose(trajectory: Trajectory, fd: FundamentalDiagram | None = None) -> DiagnosticsReport:
    """Scan a trajectory for spacing violations and negative speeds.

    The grid is audited in blocks of time rows (``engine._row_blocks``), so
    the temporaries stay near _AUDIT_BLOCK values whatever the run's size;
    a block is searched for events only when its minimum crosses the limit.
    The report is the same as one whole-grid pass.
    """
    audit = _Audit(trajectory.scenario.fd if fd is None else fd, trajectory.dn)
    for block in _row_blocks(trajectory, _AUDIT_BLOCK):
        audit.add(*block)
        del block  # before the walk builds the next block, to keep the peak at about one block
    return audit.report()


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


class _Crossings:
    """Where each follower's speed first crosses ``level``, fed a record's rows
    in order as blocks of (times, positions, speeds); a finished record is
    one block of views (``_fed``).  A follower only contributes if it starts
    strictly on the far side, so vehicles already past the front at t = 0
    are excluded.  The crossing is interpolated between its row and the row
    before, which for a block's first row is the last row of the block
    before, kept as a copy.  ``what`` names the crossings in a fit's error.

    A block is searched with one reduction over its rows, each follower's
    extreme speed (``np.fmax`` rising, ``np.fmin`` falling), which tells the
    followers that pass the level in it; the comparison and the search for
    the first row past the level run only on those followers' columns.  So
    no block-sized mask is built, nor the transposed copy that a search down
    its columns would make.
    """

    def __init__(self, level: float, rising: bool, what: str = "crossings"):
        self.level, self.rising, self.what = level, rising, what
        self.waiting = None

    def add(self, t: np.ndarray, x: np.ndarray, v: np.ndarray) -> None:
        level = self.level
        past, extreme = (np.greater_equal, np.fmax) if self.rising else (np.less_equal, np.fmin)
        if self.waiting is None:
            # The followers that may still cross, and each one's crossing.
            self.waiting = ~past(v[0, 1:], level)
            self.found = np.zeros_like(self.waiting)
            self.ts, self.xs = np.empty(self.waiting.size), np.empty(self.waiting.size)
        # A follower passes the level in this block where its extreme speed does:
        # fmax and fmin skip a NaN, which passes no comparison either.
        hits = np.flatnonzero(self.waiting & past(extreme.reduce(v[:, 1:], axis=0), level))
        if hits.size:
            self.waiting[hits] = False
            self.found[hits] = True
            m = hits + 1
            # The first row past the level, searched along each crossing follower's column.
            j = past(v.T[m], level).argmax(axis=1)
            # The row before; j - 1 = -1 reads the block's last row, replaced
            # at a block's first row by the row that came before it.
            t0, x0, v0 = t[j - 1], x[j - 1, m], v[j - 1, m]
            edge = j == 0
            if edge.any():
                t0[edge], x0[edge], v0[edge] = self.prev[0], self.prev[1][m[edge]], self.prev[2][m[edge]]
            t1, x1, v1 = t[j], x[j, m], v[j, m]
            hit = v1 == level
            frac = (level - v0) / (v1 - v0)
            self.ts[hits] = np.where(hit, t1, t0 + frac * (t1 - t0))
            self.xs[hits] = np.where(hit, x1, x0 + frac * (x1 - x0))
        self.prev = t[-1], x[-1].copy(), v[-1].copy()

    def points(self) -> tuple[np.ndarray, np.ndarray]:
        """The (t, x) crossings, in follower order."""
        return self.ts[self.found], self.xs[self.found]

    def fit(self) -> WaveMeasurement:
        """Line through three or more crossing points, else "only <count> <what>"."""
        ts, xs = self.points()
        if ts.size < 3:
            raise MeasurementError(f"only {ts.size} {self.what}")
        slope, r2 = _fit_line(ts, xs)
        return WaveMeasurement(speed=slope, r_squared=r2, crossing_times=ts, crossing_positions=xs)


def _fed(crossings: _Crossings, trajectory: Trajectory) -> _Crossings:
    """``crossings`` fed a finished record as one block."""
    crossings.add(trajectory.times, trajectory.positions, trajectory.speeds)
    return crossings


def _front(v1: float, v2: float) -> _Crossings:
    """The crossings of the front between speed states v1 and v2: the midpoint
    speed, for followers that start on the v1 side."""
    if v1 == v2:
        raise ValueError("v1 and v2 must differ")
    return _Crossings(0.5 * (v1 + v2), v2 > v1, "crossings, need at least 3")


def _startup(fd: FundamentalDiagram) -> _Crossings:
    """The crossings of the startup wave: STARTUP_FRACTION of the free-flow
    speed, for followers released from rest."""
    return _Crossings(STARTUP_FRACTION * fd.V, True, "vehicles started from rest")


def _wave(speeds: np.ndarray, fd: FundamentalDiagram) -> _Crossings | None:
    """The crossings of the wave that a record's first row of ``speeds`` sets
    off.  Followers at rest set off the startup wave; followers whose speed
    differs from the leader's set off the front between the two speeds; a
    uniform platoon sets off none (None)."""
    v2, v1 = speeds[[0, -1]].tolist()
    if v1 < STARTUP_FRACTION * fd.V:
        return _startup(fd)
    if abs(v1 - v2) > 1e-9:
        return _front(v1, v2)
    return None


def _speed_and_r2(crossings: _Crossings | None) -> tuple[float, float]:
    """The fitted wave's speed and r^2, or (nan, nan) for no wave or a fit
    with too few crossings."""
    if crossings is None:
        return math.nan, math.nan
    try:
        meas = crossings.fit()
    except MeasurementError:
        return math.nan, math.nan
    return meas.speed, meas.r_squared


def measure_front_speed(trajectory: Trajectory, v1: float, v2: float) -> WaveMeasurement:
    """Fit the speed of the front separating speed states v1 and v2.

    The crossing of the midpoint speed (v1+v2)/2 is located for every
    follower that starts on the v1 side; a line through the crossing
    points gives the front speed.  Needs at least three crossings, and
    finite v1 and v2.
    """
    for name, value in (("v1", v1), ("v2", v2)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    return _fed(_front(v1, v2), trajectory).fit()


def measure_startup_wave(trajectory: Trajectory) -> WaveMeasurement:
    """Fit the wave at which vehicles released from rest start moving.

    Crossing of STARTUP_FRACTION of the free-flow speed is recorded per
    vehicle.  Vehicles that were already moving at the start are
    excluded; fewer than three starters is a measurement error, so a
    uniformly moving platoon is rejected.
    """
    return _fed(_startup(trajectory.scenario.fd), trajectory).fit()


def measure_wave(trajectory: Trajectory) -> tuple[float, float]:
    """Speed and r^2 of the wave the record's first row sets off (``_wave``).

    A uniform platoon, or a fit with too few crossings, gives (nan, nan).
    """
    crossings = _wave(trajectory.speeds[0], trajectory.scenario.fd)
    return _speed_and_r2(None if crossings is None else _fed(crossings, trajectory))


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


class _Measures:
    """The record of a run: what ``diagnose`` and ``measure_wave`` report,
    and the peak |acceleration| and positions of the displayed vehicles
    (``_displayed_slots``), fed the run's (j0, positions, speeds,
    accelerations) row blocks in order (``engine._stream`` or
    ``_row_blocks``).  The audit overwrites the accelerations, so it is last.
    """

    def __init__(self, scenario: Scenario, display_vehicles: int = 5):
        _check_type("display_vehicles", display_vehicles, "int")
        if display_vehicles < 1:
            raise ValueError(f"display_vehicles must be at least 1, got {display_vehicles!r}")
        self.scenario = scenario
        self.audit = _Audit(scenario.fd, scenario.dn)
        self.slots = _displayed_slots(scenario.dn, scenario.m, display_vehicles)
        self.cols = list(self.slots.values())
        # A record of no steps has no acceleration, only the block rule's zero row: its peak stays nan.
        self.peak = -math.inf if scenario.steps and self.cols else math.nan
        self.positions = []  # the displayed vehicles' positions, per block

    def add(self, j0: int, x: np.ndarray, v: np.ndarray, a: np.ndarray) -> None:
        sc = self.scenario
        if j0 == 0:
            self.crossings = _wave(v[0], sc.fd)
        if self.crossings is not None:
            # The bits of the finished record's np.arange(J + 1) * dt.
            self.crossings.add(np.arange(j0, j0 + len(x)) * sc.dt, x, v)
        self.peak = np.maximum(self.peak, np.max(np.abs(a[:, self.cols]), initial=-math.inf))
        self.positions.append(x[:, self.cols])  # a copy, as a stream overwrites x
        self.audit.add(j0, x, v, a)

    def wave(self) -> tuple[float, float]:
        """The wave's speed and r^2, as ``measure_wave`` gives them."""
        return _speed_and_r2(self.crossings)

    def _curves(self) -> tuple[np.ndarray, dict[int, np.ndarray]]:
        """The record's times, and each displayed vehicle's positions by vehicle number."""
        sc = self.scenario
        return np.arange(sc.steps + 1) * sc.dt, dict(zip(self.slots, np.concatenate(self.positions).T))

    def row(self, prev: _Measures | None) -> SweepRow:
        """The run's ``sweep_dn`` row, its difference taken against ``prev``, the run at the dn before."""
        diff = math.nan
        if prev is not None:
            (times, curves), (t_prev, curves_prev) = self._curves(), prev._curves()
            grid = t_prev[t_prev <= min(float(t_prev[-1]), float(times[-1]))]
            shared = [n for n in curves_prev if n in curves]
            diff = 0.0 if shared else math.nan
            for n in shared:
                # grid is a prefix of t_prev, so the previous curve is read on its own knots.
                b = np.interp(grid, times, curves[n])
                # np.maximum, not max: a NaN gap makes the difference NaN.
                diff = float(np.maximum(diff, np.max(np.abs(curves_prev[n][: len(grid)] - b))))
        return SweepRow(self.scenario.dn, self.wave()[0], float(self.peak), self.audit.report().min_spacing, diff)


def _slot_count(vehicles: int, dn: float) -> int:
    """The slot count m of a run of ``vehicles`` whole vehicles: vehicles / dn, rounded."""
    if not (math.isfinite(dn) and dn > 0.0):
        raise ValueError(f"dn must be positive and finite, got {dn!r}")
    _check_type("vehicles", vehicles, "int")
    if vehicles < 0:
        raise ValueError(f"vehicles must be nonnegative, got {vehicles!r}")
    try:
        return round(vehicles / dn)
    except OverflowError:
        raise ValueError("the slot count vehicles / dn is too large for a float") from None


def _at_dn(scenario: Scenario, dn: float, vehicles: int, dt_ratio: float) -> Scenario:
    """``scenario`` at ``dn``, with m = vehicles / dn rounded and dt = dt_ratio * dn."""
    return replace(scenario, dn=dn, dt=dt_ratio * dn, m=_slot_count(vehicles, dn))


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
    grid up to the shorter duration; it is nan for the first dn and
    where the two runs display no vehicle in common.  The row is read
    from the record ``lagwave sweep`` streams (``_Measures``).
    """
    prev = None
    for dn in dn_values:
        sc = _at_dn(scenario, dn, vehicles, dt_ratio)
        measures = _Measures(sc, display_vehicles)  # refuses display_vehicles before a run
        traj = simulate(sc, model=model, scheme=scheme)
        for block in _row_blocks(traj, _AUDIT_BLOCK):
            measures.add(*block)
            del block  # before the walk builds the next block
        yield traj, measures.row(prev)
        prev = measures


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
    for name, value in (("amplitude", amplitude), ("omega", omega)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if m < 2:
        raise ValueError("need at least two followers to form a ratio")
    if amplitude < 0.0:
        raise ValueError("amplitude must be nonnegative")
    veq = fd.theta(s0)
    scenario = Scenario(
        fd=fd, k1=1.0 / s0, lead_speed=veq, m=m, dn=dn, dt=dt, duration=duration
    )
    J = scenario.steps
    # The last phase, in the sine's operation order; the others are smaller.
    if not math.isfinite(omega * J * dt):
        raise ValueError(f"omega is too large: the phase omega * J * dt overflows at omega={omega!r}, "
                         f"J={J} steps of dt={dt!r}")
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
