"""Exact wave solutions of the kinematic wave model for concave flows.

These closed-form results serve as ground truth for the simulation
experiments: the Rankine-Hugoniot shock speed, the wave structure of a
two-state initial condition, and an exactly piecewise-linear synthetic
trajectory set for exercising the measurement code.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .conditions import check_concave
from .engine import Scenario, Trajectory, _refuse_unallocatable
from .fundamental import FundamentalDiagram

__all__ = [
    "NonConcaveDiagram",
    "WaveSolution",
    "shock_speed_rh",
    "riemann_wave",
    "synthetic_shock_trajectory",
]


class NonConcaveDiagram(ValueError):
    """Classical wave solutions require a concave flow-density relation."""


@dataclass(frozen=True)
class WaveSolution:
    """Wave separating upstream density k1 from downstream density k2.

    ``kind`` is one of "uniform", "shock" (with ``speed``) or
    "rarefaction" (with the characteristic span ``lo``..``hi``).
    """

    kind: str
    k1: float
    k2: float
    speed: float | None = None
    lo: float | None = None
    hi: float | None = None


def shock_speed_rh(fd: FundamentalDiagram, k1: float, k2: float) -> float:
    """Rankine-Hugoniot speed (phi(k2) - phi(k1)) / (k2 - k1)."""
    if k1 == k2:
        raise ValueError("shock speed is undefined for equal densities")
    return (fd.phi(k2) - fd.phi(k1)) / (k2 - k1)


def riemann_wave(fd: FundamentalDiagram, k1: float, k2: float) -> WaveSolution:
    """Classify the wave from upstream k1 to downstream k2.

    Density increases (k1 < k2) produce a shock, decreases a
    rarefaction fan between the two characteristic speeds.  A full
    drop from jam to empty road on a piecewise-linear diagram is the
    degenerate fan that vehicles experience as a single front moving
    at the congested wave speed; it is reported as a shock.
    """
    if not check_concave(fd):
        raise NonConcaveDiagram(
            "flow is not concave; classical entropy solutions do not apply"
        )
    fd._check_density((k1, k2))
    if k1 == k2:
        return WaveSolution(kind="uniform", k1=k1, k2=k2)
    if k1 < k2:
        return WaveSolution(kind="shock", k1=k1, k2=k2, speed=shock_speed_rh(fd, k1, k2))
    if fd.kinks() and k1 == fd.K and k2 == 0.0:
        return WaveSolution(kind="shock", k1=k1, k2=k2, speed=float(fd.phi_prime(fd.K)))
    c1 = fd.phi_prime(k1)
    c2 = fd.phi_prime(k2)
    return WaveSolution(kind="rarefaction", k1=k1, k2=k2, lo=min(c1, c2), hi=max(c1, c2))


def synthetic_shock_trajectory(
    fd: FundamentalDiagram,
    k1: float,
    k2: float,
    m: int,
    dn: float,
    duration: float,
    dt: float,
) -> Trajectory:
    """Exact vehicle trajectories through a single shock.

    Every vehicle travels at eta(k1) until it meets the shock line
    x = sigma * t, then at eta(k2).  The time step is snapped so each
    vehicle's kink falls exactly on a sample, making the record
    piecewise linear on the grid with no discretization error.
    """
    if not k1 < k2:
        raise ValueError("need k1 < k2 for a shock")
    v1 = fd.eta(k1)
    v2 = fd.eta(k2)
    # Built before any input is divided by: it refuses each bad one, naming the field.
    scenario = Scenario(fd=fd, k1=k1, lead_speed=v2, m=m, dn=dn, dt=dt, duration=duration)
    sigma = riemann_wave(fd, k1, k2).speed
    if v1 <= sigma:
        raise ValueError("vehicles at v1 never reach the shock line")

    s1 = dn / k1
    # Vehicle 1 meets x = sigma*t after t1; vehicle m after m*t1.
    t1 = s1 / (v1 - sigma)
    L = max(1, round(t1 / dt))
    dt_snapped = t1 / L
    scenario = replace(scenario, dt=dt_snapped)
    J = scenario.steps
    _refuse_unallocatable((J + 1, m + 1))

    times = np.arange(J + 1) * dt_snapped
    # One column per vehicle i, with its kink at step i*L.
    i = np.arange(m + 1)
    j_kink = i * L
    t_kink = j_kink * dt_snapped
    x0 = -i * s1
    t = times[:, None]
    positions = np.where(t <= t_kink, x0 + v1 * t, (x0 + v1 * t_kink) + v2 * (t - t_kink))
    speeds = np.where(np.arange(J + 1)[:, None] < j_kink, v1, v2)
    return Trajectory(times=times, positions=positions, speeds=speeds, scenario=scenario)
