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
anticipation) enters through a model object.  One kernel steps them all:
a scheme is a spacing stencil plus the choice of new or old speeds for
the position update, a model is the speed update.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

import numpy as np

from .fundamental import FundamentalDiagram, _check_fields

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


# Spacing estimate per follower from the backward spacings s.  Forward and
# central stencils also look at the follower behind; the last vehicle has
# none, so they fall back to its backward spacing.
_STENCILS = {
    Scheme.ANISOTROPIC_SYMPLECTIC: lambda s: s,
    Scheme.EXPLICIT_EXPLICIT: lambda s: s,
    Scheme.FORWARD_SPACING: lambda s: np.concatenate((s[1:], s[-1:])),
    Scheme.ARITHMETIC_CENTRAL: lambda s: np.concatenate((0.5 * (s[:-1] + s[1:]), s[-1:])),
    Scheme.HARMONIC_CENTRAL: lambda s: np.concatenate((2.0 * s[:-1] * s[1:] / (s[:-1] + s[1:]), s[-1:])),
}


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
    trusted; ``simulate`` validates them once per run.
    """
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
        # The unchecked _theta: spacings clamped to >= S cannot fail theta's check.
        th = fd._theta(np.maximum(stencil(gaps / dn), S))
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


def acceleration(speeds: np.ndarray, dt: float) -> np.ndarray:
    """Per-step accelerations (U^{j+1} - U^j) / dt for a speed record."""
    speeds = np.asarray(speeds, dtype=float)
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    a = np.diff(speeds, axis=0)
    a /= dt
    return a


def _row_blocks(traj: Trajectory, values: int) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """(j0, positions, speeds, accelerations) per block of max(1, values // width) time
    rows.  The accelerations read one row of the next block, and the last row gets zeros;
    each block is built in the yield, so the walk keeps no reference to it."""
    x, v, dt = traj.positions, traj.speeds, traj.scenario.dt
    count, width = x.shape
    rows = max(1, values // width)
    for j0 in range(0, count, rows):
        j1 = j0 + rows
        yield j0, x[j0:j1], v[j0:j1], (
            acceleration(v[j0 : j1 + 1], dt) if j1 < count
            else np.concatenate((acceleration(v[j0:], dt), np.zeros((1, width))))
        )


def _count(n: int) -> str:
    """``n`` in decimal, or ">limit" past numpy's dimension limit, so that a refusal
    stays one short line; no float, whose range an integer count can pass."""
    limit = int(np.iinfo(np.intp).max)
    return str(n) if n <= limit else f">{limit}"


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
    if model is None:
        model = NonstandardLWR()
    if scheme is not Scheme.ANISOTROPIC_SYMPLECTIC and not isinstance(model, NonstandardLWR):
        raise ValueError(f"scheme {scheme.value!r} supports only the equilibrium model")

    J = scenario.steps
    shape = (J + 1, scenario.m + 1)
    try:
        positions, speeds = np.empty(shape), np.empty(shape)
    except (MemoryError, ValueError) as exc:
        raise ValueError(f"numpy cannot allocate the ({_count(J + 1)}, {_count(scenario.m + 1)}) grid "
                         f"of duration / dt steps and m slots: {exc}") from None
    if lead_speeds is None:
        lead = np.full(J, scenario.lead_speed)
    else:
        lead = np.asarray(lead_speeds, dtype=float)
        if lead.shape != (J,):
            raise ValueError(f"lead_speeds must have shape ({J},)")
        if not np.all(np.isfinite(lead)) or np.any(lead < 0.0):
            raise ValueError("lead_speeds must be finite and nonnegative")

    # Initial platoon: uniform spacing dn/k1, leader at the origin.
    dt = scenario.dt
    positions[0] = -np.arange(scenario.m + 1) * (scenario.dn / scenario.k1)
    v0 = scenario.initial_speed
    speeds[0] = scenario.fd.eta(scenario.k1) if v0 is None else v0
    speeds[0, 0] = scenario.lead_speed
    # A steep sigmoid's exp overflows to inf, which gives the sigmoid's exact
    # limit, so the warning is silenced; the audit counts any non-finite value.
    with np.errstate(over="ignore"):
        _step_kernel(positions, speeds, lead, scenario.fd, scenario.dn, dt, model, scheme)

    return Trajectory(times=np.arange(J + 1) * dt, positions=positions, speeds=speeds, scenario=scenario)
