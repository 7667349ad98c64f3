"""Car-following time stepping in Lagrangian coordinates.

State is a platoon of M+1 vehicles indexed m = 0..M, where m = 0 is the
lead vehicle.  Vehicle m occupies position Y_m and the (normalized)
spacing to its leader is (Y_{m-1} - Y_m) / dn, with dn the vehicle-index
increment, so a platoon at density k has normalized spacing 1/k
regardless of dn.

The reference update is symplectic: speeds are advanced first from the
current spacings, positions then move with the *new* speeds.  Rival
spacing stencils and a fully explicit stepper are provided for the
failure-mode experiments; second-order behaviour (speed relaxation,
anticipation) enters through a model object.  One numpy kernel steps them
all: a scheme is a spacing stencil plus the choice of new or old speeds
for the position update, a model is the speed update.  The kernel dispatches
both once per run and steps in place: the per-vehicle rows it needs are
allocated once, and each step writes into them and into the grid's next
row, with the bits of the allocating expressions it replaces.  What a step
reads is bound once per run as well: the run's constants as 0-d arrays
and the views of its rows, its stencil's among them, so that a step pays
numpy's per-call overhead only in its ufunc calls and allocates no row.
Its float twin steps narrow anisotropic platoons, with the same bits, as the
cascade that the anisotropic scheme makes of a platoon: each vehicle
reads only the vehicle ahead, so it steps the leader's column and then
each follower's column behind the one before it.  It fills the rows of
a column at rest: a state that a step maps to itself bit for bit,
behind a column at rest, is every later row of its column.

A step reads only the row before it, so one loop, ``_steps``, steps a run
in blocks of time rows, and one rule, ``_block``, cuts a block with the
row its accelerations read.  ``simulate`` is the one block that is the
whole (J+1, M+1) grid; ``_stream`` hands out the row blocks of that grid,
bit for bit, without ever holding it; the CLI's ``run`` and ``sweep`` step
through it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

import numpy as np

from .fundamental import FundamentalDiagram, _check_fields, _zero_d

__all__ = [
    "Scheme",
    "NonstandardLWR",
    "PhillipsRelax",
    "JWZ",
    "Corrected1",
    "Corrected2",
    "Model",
    "Scenario",
    "Trajectory",
    "acceleration",
    "simulate",
]


class Scheme(Enum):
    """Spacing stencil / time stepping variants."""

    ANISOTROPIC_SYMPLECTIC = "anisotropic"
    FORWARD_SPACING = "forward"
    ARITHMETIC_CENTRAL = "arithmetic"
    HARMONIC_CENTRAL = "harmonic"
    EXPLICIT_EXPLICIT = "explicit-explicit"


@dataclass(frozen=True)
class NonstandardLWR:
    """Equilibrium speed adoption; relaxation happens within one step."""


@dataclass(frozen=True)
class PhillipsRelax:
    """Speed relaxation toward equilibrium over time scale T."""

    T: float = 5.0

    def __post_init__(self):
        _check_fields(self, ("T",))


@dataclass(frozen=True)
class JWZ:
    """Relaxation plus an anticipation term c0 * dv / gap."""

    T: float = 5.0
    c0: float = 2.0

    def __post_init__(self):
        _check_fields(self, ("T",))


@dataclass(frozen=True)
class _Correction:
    """A clamp on the speed of the ``inner`` model; corrections do not nest."""

    inner: "Model"

    def __post_init__(self):
        if isinstance(self.inner, _Correction):
            raise ValueError("corrections do not nest")


class Corrected1(_Correction):
    """Clamp the inner model's speed into [0, theta(spacing)]."""


class Corrected2(_Correction):
    """Clamp the inner model's speed into [0, (gap - S*dn)/dt]."""


Model = NonstandardLWR | PhillipsRelax | JWZ | Corrected1 | Corrected2


def _relaxation_time(model: Model) -> float | None:
    """The relaxation time T of the model, or of the model a correction
    wraps; None for the equilibrium model, which relaxes within a step."""
    if isinstance(model, _Correction):
        model = model.inner
    return model.T if isinstance(model, (PhillipsRelax, JWZ)) else None


@dataclass(frozen=True)
class Scenario:
    """Lead-vehicle problem: followers start in equilibrium at density k1,
    the leader travels at v2 = lead_speed for all time.

    ``initial_speed`` overrides the followers' starting speed (used for
    platoons released from rest); when None they start at eta(k1).
    """

    fd: FundamentalDiagram
    k1: float
    lead_speed: float
    m: int
    dn: float
    dt: float
    duration: float
    initial_speed: float | None = None

    def __post_init__(self):
        _check_fields(self, ("dn", "dt"))
        if not 0.0 < self.k1 <= self.fd.K:
            raise ValueError(f"k1 must lie in (0, K={self.fd.K!r}]")
        if self.lead_speed < 0.0:
            raise ValueError("lead_speed must be nonnegative")
        if self.initial_speed is not None and self.initial_speed < 0.0:
            raise ValueError("initial_speed must be nonnegative")
        if self.m < 0:
            raise ValueError("m must be nonnegative")
        if self.duration < 0.0:
            raise ValueError("duration must be nonnegative")
        if not math.isfinite(self.duration / self.dt):
            raise ValueError(f"the step count duration / dt is not finite: duration={self.duration!r}, dt={self.dt!r}")

    @property
    def steps(self) -> int:
        """Number of time steps covering the duration."""
        return math.ceil(self.duration / self.dt - 1e-9)


@dataclass(eq=False)
class Trajectory:
    """Simulation record on the full (time, vehicle) grid.

    ``positions`` and ``speeds`` have shape (J+1, M+1) with J the step count.
    """

    times: np.ndarray
    positions: np.ndarray
    speeds: np.ndarray
    scenario: Scenario

    @property
    def dn(self) -> float:
        """Vehicle-index increment, read from the scenario."""
        return self.scenario.dn

    @property
    def accelerations(self) -> np.ndarray:
        """Per-step accelerations, shape (J, M+1), as a fresh array
        computed on every access: bind it once."""
        return acceleration(self.speeds, self.scenario.dt)

    def spacings(self) -> np.ndarray:
        """Normalized spacings, shape (J+1, M)."""
        return (self.positions[:, :-1] - self.positions[:, 1:]) / self.dn

    def vehicle_numbers(self) -> np.ndarray:
        """Cumulative vehicle number N = m * dn for each slot."""
        return np.arange(self.positions.shape[1]) * self.dn


def _model_terms(model: Model, dt: float) -> tuple[type | None, float | None, float | None]:
    """The speed update's terms, dispatched once per run: the correction
    class or None, the relaxation factor r = 1 - dt / T or None, and the
    anticipation rate dt * c0 or None."""
    clamp = None
    if isinstance(model, _Correction):
        clamp, model = type(model), model.inner
    if not isinstance(model, (NonstandardLWR, PhillipsRelax, JWZ)):
        raise TypeError(f"unknown model {model!r}")
    # Interpolation form of the relaxation: exactly theta when T == dt.
    T = _relaxation_time(model)
    return clamp, None if T is None else 1.0 - dt / T, dt * model.c0 if isinstance(model, JWZ) else None


def _step_kernel(
    positions: np.ndarray,
    speeds: np.ndarray,
    lead: np.ndarray,
    fd: FundamentalDiagram,
    dn: float,
    dt: float,
    model: Model,
    scheme: Scheme,
) -> None:
    """Fill rows 1..J of the (J+1, M+1) ``positions`` and ``speeds`` from row 0.

    ``lead[j]`` is the leader speed over step j -> j+1.  The inputs are
    trusted: they are checked once per run, before the first step.  It
    steps the rival schemes, and the anisotropic scheme on platoons wider
    than _FLOAT_SLOTS; ``_float_kernel`` steps the narrower ones.

    The model, correction and scheme are dispatched once per run, and the
    (M,) scratch rows that they need are allocated once.  Each step writes
    its gaps, stencil, density, theta and update into those rows or into
    row j+1 itself, with the operands and operation order of the
    expressions quoted in the comments, so every value has the bits of
    that allocating form.  What a step reads is bound once per run too,
    because at a few hundred slots numpy's per-call overhead outweighs the
    arithmetic: the run's float constants as 0-d float64 arrays, which
    give a ufunc the bits of the Python float without converting it on
    every call, as the law's are (``FundamentalDiagram._operands``), so
    that a step converts no Python float and evaluates no property; the
    grid's rows and the slices of them that a step reads
    as iterators over 2-D views; the stencil's rows as views; the scheme
    as booleans, so that an anisotropic step pays one test for the
    stencils.  The leader's column is written in one call, since no step
    reads a leader speed before its own row.  These rows are the
    shape a batched kernel starts from: stepping B runs of one shape
    together (ROADMAP's batch axis) widens each to (B, M).
    """
    clamp, r, antic_rate = _model_terms(model, dt)
    old_speeds = scheme is Scheme.EXPLICIT_EXPLICIT
    density, eta = fd._density, fd._eta
    S, jam_gap, dn, dt = _zero_d(fd.S, fd.S * dn, dn, dt)
    r, antic_rate = (None if c is None else np.array(c) for c in (r, antic_rate))

    J, M = len(lead), positions.shape[1] - 1
    gaps, s = np.empty(M), np.empty(M)
    # Each follower's spacing estimate from the backward spacings s: the forward and central
    # stencils also read the follower behind, so the last vehicle, which has none, keeps its
    # backward spacing.  The anisotropic and explicit-explicit schemes use s itself.
    arithmetic, harmonic = scheme is Scheme.ARITHMETIC_CENTRAL, scheme is Scheme.HARMONIC_CENTRAL
    stencil = arithmetic or harmonic or scheme is Scheme.FORWARD_SPACING
    est = np.empty(M) if stencil else s
    head, last, ahead, behind, s_last = est[:-1], est[-1:], s[:-1], s[1:], s[-1:]
    zero, half, two, tol = _zero_d(0.0, 0.5, 2.0, 1e-12)
    tmp = np.empty(len(head)) if harmonic else None
    # Without relaxation theta is the new speed, written straight into row j+1.
    th = None if r is None else np.empty(M)
    if antic_rate is not None:
        far, dv, antic = np.empty(M, dtype=bool), np.empty(M), np.empty(M)
    ceiling = np.empty(M) if clamp is Corrected2 else None
    speeds[1 : J + 1, 0] = lead
    rows = zip(positions[:J], positions[:J, :-1], positions[:J, 1:], speeds[:J, :-1], speeds[:J, 1:],
               speeds[1 : J + 1, 1:], speeds[:J] if old_speeds else speeds[1 : J + 1], positions[1 : J + 1])
    for x, x_ahead, x_behind, u_ahead, u_behind, new, mover, x_next in rows:
        np.subtract(x_ahead, x_behind, out=gaps)
        np.divide(gaps, dn, out=s)
        if stencil:
            if arithmetic:
                # 0.5 * (s[:-1] + s[1:])
                np.add(ahead, behind, out=head)
                np.multiply(half, head, out=head)
            elif harmonic:
                # 2.0 * s[:-1] * s[1:] / (s[:-1] + s[1:])
                np.multiply(two, ahead, out=head)
                np.multiply(head, behind, out=head)
                np.add(ahead, behind, out=tmp)
                np.divide(head, tmp, out=head)
            else:
                head[...] = behind  # s[1:]
            last[...] = s_last  # each stencil's last slot, s[-1:]
        # theta(max(stencil(gaps / dn), S)); spacings clamped to >= S cannot
        # fail theta's check, so the unchecked formulas are called.
        np.maximum(est, S, out=est)
        theta = eta(density(est, out=est), out=new if th is None else th)
        if r is not None:
            # theta + r * (u[1:] - theta)
            np.subtract(u_behind, theta, out=new)
            np.multiply(r, new, out=new)
            np.add(theta, new, out=new)
        if antic_rate is not None:
            # new + dt * c0 * where(|gaps| > 1e-12, (u[:-1] - u[1:]) / gaps, 0.0)
            np.greater(np.abs(gaps, out=dv), tol, out=far)
            np.subtract(u_ahead, u_behind, out=dv)
            antic.fill(zero)
            np.divide(dv, gaps, out=antic, where=far)
            np.multiply(antic_rate, antic, out=antic)
            np.add(new, antic, out=new)
        if clamp is not None:
            # max(0.0, min(new, ceiling)), the ceiling theta or (gaps - S * dn) / dt
            if clamp is Corrected2:
                np.subtract(gaps, jam_gap, out=ceiling)
                np.divide(ceiling, dt, out=ceiling)
            np.minimum(new, theta if clamp is Corrected1 else ceiling, out=new)
            np.maximum(zero, new, out=new)
        # x + dt * (u if explicit-explicit else v)
        np.multiply(dt, mover, out=x_next)
        np.add(x, x_next, out=x_next)


# Anisotropic runs of at most this many slots step on Python floats, where
# numpy's per-call overhead outweighs its per-element speed.
_FLOAT_SLOTS = 16
# The rows the float kernel steps a column through, as lists, before writing them into the grid.
_FLOAT_CHUNK = 1024


def _same(a: float, b: float) -> bool:
    """Whether two floats have the same bits: equal in value, then in the
    sign of zero; a NaN is never the same."""
    return a == b and (a != 0.0 or math.copysign(1.0, a) == math.copysign(1.0, b))


def _float_kernel(
    positions: np.ndarray,
    speeds: np.ndarray,
    lead: np.ndarray,
    fd: FundamentalDiagram,
    dn: float,
    dt: float,
    model: Model,
) -> None:
    """``_step_kernel`` for the anisotropic scheme, on Python floats, stepped
    as the cascade it is.  A vehicle's step reads only its own (x, u) and
    that of the vehicle ahead, so the kernel steps the platoon one column
    at a time, _FLOAT_CHUNK rows at a time: first the leader's column,
    then each follower's column behind the column before it, read as
    lists, in one scalar loop, theta through the law's scalar formula
    ``_eta_float``.

    Each value is the expression ``_step_kernel`` quotes, in its operand
    order, so it has the same bits.  numpy's maximum and minimum are
    mirrored as ``a if (a > b or a != a) else b`` (and ``<``): they return
    the second operand on a tie of +-0 and pass a NaN from either side,
    where Python's max and min do not.  Python raises where numpy divides
    by zero, but no divisor here is zero: dn and dt are positive, s is at
    least S or NaN, K is positive, the triangular law divides only above
    kc/2, the sigmoid by c3 > 0 and exp(.) + 1 >= 1, and the JWZ term only
    where |gap| > 1e-12.

    A column at rest is not stepped on.  Once step j maps a column's (x, u)
    to itself bit for bit (``_same``), and the column ahead is at rest from
    row j on, every later row of the column is its row j, by induction.
    The leader's column steps behind the leader speeds, at rest from
    ``held``, the first step from which every speed has the bits of the
    last.  The rest of a column's chunk is filled with that row; the next
    chunk steps each column again, and a column at rest comes to rest at
    its first step.  Once the last column is at rest, every column is, and
    the rows after the chunk are filled with its last row in one broadcast.
    """
    clamp, r, antic_rate = _model_terms(model, dt)
    eta, S, K, jam_gap = fd._eta_float(), fd.S, fd.K, fd.S * dn
    bits = lead.view(np.uint64)
    moves = np.flatnonzero(bits != bits[-1:])
    held = int(moves[-1]) + 1 if len(moves) else 0
    x, u = positions[0].tolist(), speeds[0].tolist()  # each column's row c
    for c in range(0, len(lead), _FLOAT_CHUNK):
        e = min(c + _FLOAT_CHUNK, len(lead))
        for m, (xm, um) in enumerate(zip(x, u)):
            xs, us = [xm], [um]  # the column's rows c..e
            if m == 0:
                for j, new in enumerate(lead[c:e].tolist(), c):
                    x_next = xm + dt * new
                    if j >= held and _same(x_next, xm) and _same(new, um):
                        break
                    xm, um = x_next, new
                    xs.append(xm)
                    us.append(um)
            else:
                for j, xa, ua in zip(range(c, e), ahead_xs, ahead_us):
                    g = xa - xm
                    s = g / dn
                    s = s if s > S or s != s else S
                    k = 1.0 / s
                    k = k if k < K or k != k else K
                    th = eta(k)
                    new = th if r is None else th + r * (um - th)
                    if antic_rate is not None:
                        new = new + antic_rate * ((ua - um) / g if abs(g) > 1e-12 else 0.0)
                    if clamp is not None:
                        ceiling = th if clamp is Corrected1 else (g - jam_gap) / dt
                        new = new if new < ceiling or new != new else ceiling
                        new = 0.0 if 0.0 > new else new
                    x_next = xm + dt * new
                    if j >= ahead and _same(x_next, xm) and _same(new, um):
                        break
                    xm, um = x_next, new
                    xs.append(xm)
                    us.append(um)
            # The step from which this column is at rest, or e while it moves.
            ahead = c + len(xs) - 1
            xs += [xm] * (e - ahead)
            us += [um] * (e - ahead)
            positions[c + 1 : e + 1, m] = xs[1:]
            speeds[c + 1 : e + 1, m] = us[1:]
            x[m], u[m] = xm, um
            ahead_xs, ahead_us = xs, us
        if ahead < e:
            positions[e + 1 :] = positions[e]
            speeds[e + 1 :] = speeds[e]
            return


def acceleration(speeds: np.ndarray, dt: float) -> np.ndarray:
    """Per-step accelerations (U^{j+1} - U^j) / dt for a speed record."""
    speeds = np.asarray(speeds, dtype=float)
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    a = np.diff(speeds, axis=0)
    a /= dt
    return a


def _block(j0: int, x: np.ndarray, v: np.ndarray, dt: float, rows: int) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """The row block (j0, positions, speeds, accelerations) of the rows ``x`` and ``v``
    from row j0: a block's ``rows`` rows and the row after them, which its accelerations
    read, or the grid's last rows alone, whose last row gets zero accelerations.
    An infinite speed held over a step gives a NaN acceleration, without a
    warning: the audit counts the infinite speeds themselves."""
    with np.errstate(invalid="ignore"):
        a = acceleration(v, dt)
    if len(v) > rows:
        return j0, x[:rows], v[:rows], a
    return j0, x, v, np.concatenate((a, np.zeros((1, v.shape[1]))))


def _row_blocks(traj: Trajectory, values: int) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """``_block`` per block of max(1, values // width) time rows of a finished grid;
    each block is built in the yield, so the walk keeps no reference to it."""
    x, v, dt = traj.positions, traj.speeds, traj.scenario.dt
    rows = max(1, values // x.shape[1])
    for j0 in range(0, len(x), rows):
        yield _block(j0, x[j0 : j0 + rows + 1], v[j0 : j0 + rows + 1], dt, rows)


def _count(n: int) -> str:
    """``n`` in decimal, or ">limit" past numpy's dimension limit, so that a refusal
    stays one short line; no float, whose range an integer count can pass."""
    limit = int(np.iinfo(np.intp).max)
    return str(n) if n <= limit else f">{limit}"


def _grids(shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Uninitialised positions and speeds grids of ``shape``, (J+1, M+1); a shape
    that numpy cannot allocate is refused with numpy's reason."""
    try:
        return np.empty(shape), np.empty(shape)
    except (MemoryError, ValueError) as exc:
        raise ValueError(f"numpy cannot allocate the ({_count(shape[0])}, {_count(shape[1])}) grid "
                         f"of duration / dt steps and m slots: {exc}") from None


def _refuse_unallocatable(shape: tuple[int, int]) -> None:
    """Refuse the ``shape`` whose two grids ``simulate`` could not allocate, without
    allocating them.  Both are mapped untouched, which neither the resident set
    nor tracemalloc sees, and unmapped; only where a map fails is numpy asked
    for the grids, so that the refusal is numpy's own."""
    import mmap  # only a streamed run needs it, so importing lagwave does not load it

    maps = []
    try:
        for _ in range(2):
            maps.append(mmap.mmap(-1, math.prod(shape) * 8, flags=mmap.MAP_PRIVATE))
    except (OverflowError, OSError, ValueError):
        _grids(shape)
    finally:
        for m in maps:
            m.close()


def _checked_model(model: Model | None, scheme: Scheme) -> Model:
    """The model a run steps, the equilibrium model by default; stencil and
    explicit-explicit schemes support only that one."""
    if model is None:
        model = NonstandardLWR()
    if scheme is not Scheme.ANISOTROPIC_SYMPLECTIC and not isinstance(model, NonstandardLWR):
        raise ValueError(f"scheme {scheme.value!r} supports only the equilibrium model")
    return model


def _start(scenario: Scenario, x: np.ndarray, v: np.ndarray) -> None:
    """Write the initial platoon into the rows ``x`` and ``v``: uniform spacing
    dn/k1 with the leader at the origin, the followers at eta(k1) or the
    scenario's initial speed, the leader at its own speed."""
    x[:] = -np.arange(scenario.m + 1) * (scenario.dn / scenario.k1)
    v0 = scenario.initial_speed
    v[:] = scenario.fd.eta(scenario.k1) if v0 is None else v0
    v[0] = scenario.lead_speed


def _steps(scenario: Scenario, model: Model, scheme: Scheme, rows: int,
           lead: np.ndarray | None = None) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Step the run ``rows`` time rows at a time, the one caller of the kernels:
    ``_float_kernel`` for an anisotropic run of at most _FLOAT_SLOTS slots,
    ``_step_kernel`` for the others, picked once per run.

    On the first block a (min(rows, J) + 1, M+1) buffer is made and its row 0
    started; each block is stepped from row 0 and handed out as (j0, x, v),
    views of its rows plus the row after them, which is then copied to row 0.
    The block that holds the grid's last row ends the walk, so with rows > J
    the one block is the whole grid.  ``lead[j]`` is the leader speed over
    step j -> j+1, checked here once the buffer is made; by default the
    scenario's, broadcast, not allocated.
    """
    J = scenario.steps
    x, v = _grids((min(rows, J) + 1, scenario.m + 1))
    if lead is None:
        lead = np.broadcast_to(scenario.lead_speed, (J,))
    else:
        lead = np.asarray(lead, dtype=float)
        if lead.shape != (J,):
            raise ValueError(f"lead_speeds must have shape ({J},)")
        if not np.all(np.isfinite(lead)) or np.any(lead < 0.0):
            raise ValueError("lead_speeds must be finite and nonnegative")
    _start(scenario, x[0], v[0])
    if scheme is Scheme.ANISOTROPIC_SYMPLECTIC and scenario.m + 1 <= _FLOAT_SLOTS:
        kernel = _float_kernel
    else:
        kernel = lambda *args: _step_kernel(*args, scheme)  # noqa: E731
    for j0 in range(0, J + 1, rows):
        n = min(rows, J - j0)  # the steps to the block's last row, or to the grid's
        # A steep sigmoid's exp overflows to inf, which gives the sigmoid's exact
        # limit, so the warning is silenced; the audit counts any non-finite value.
        with np.errstate(over="ignore"):
            kernel(x[: n + 1], v[: n + 1], lead[j0 : j0 + n], scenario.fd, scenario.dn, scenario.dt, model)
        yield j0, x[: n + 1], v[: n + 1]
        if n < rows:
            return
        x[0], v[0] = x[n], v[n]


def _stream(scenario: Scenario, model: Model | None, scheme: Scheme,
            values: int) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """The blocks of ``_row_blocks(simulate(scenario, model, scheme), values)``,
    bit for bit, stepped as they are walked (``_block`` over ``_steps``): the
    full grid is never held, and a block's positions and speeds are views of
    the stepping buffer, overwritten by the next block.  The model, the scheme
    and the grid's shape are checked, and refused as ``simulate`` refuses
    them, on the call; the buffer is made when the first block is asked for.
    """
    model = _checked_model(model, scheme)
    _refuse_unallocatable((scenario.steps + 1, scenario.m + 1))
    rows = max(1, values // (scenario.m + 1))
    return (_block(j0, x, v, scenario.dt, rows) for j0, x, v in _steps(scenario, model, scheme, rows))


def simulate(
    scenario: Scenario,
    model: Model | None = None,
    scheme: Scheme = Scheme.ANISOTROPIC_SYMPLECTIC,
    lead_speeds: np.ndarray | None = None,
) -> Trajectory:
    """Run the lead-vehicle problem and record the full trajectory.

    ``lead_speeds`` optionally prescribes the leader speed per step
    (entry j is the leader speed over step j -> j+1); by default the
    leader holds ``scenario.lead_speed``.  Stencil and explicit-explicit
    schemes support only the equilibrium model.
    """
    model = _checked_model(model, scheme)
    J = scenario.steps
    _, positions, speeds = next(_steps(scenario, model, scheme, J + 1, lead_speeds))
    return Trajectory(times=np.arange(J + 1) * scenario.dt, positions=positions, speeds=speeds, scenario=scenario)
