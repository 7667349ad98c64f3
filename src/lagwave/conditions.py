"""Admissibility thresholds for the discrete car-following updates.

Two scale-free thresholds govern the choice of step sizes.  Both are
suprema over the density range of the diagram and are compared against
the ratio ``dn/dt``:

* the collision-free threshold, ``sup phi(k) / (1 - k/K)``, which
  guarantees spacings never drop below jam spacing, and
* the CFL threshold, ``sup |eta_prime(k)| * k**2``, the classical
  stability bound for the explicit update.

On the concave laws both suprema have a closed form, the diagram's
``critical_rate``: ``V*K`` for Greenshields, where ``phi(k)/(1 - k/K)
= V*k`` and ``|eta_prime(k)|*k**2 = (V/K)*k**2`` both rise to ``k = K``,
and ``W*K`` for the triangular law, where both expressions equal ``W*K``
on the whole congested branch and stay below it on the free branch.
Both thresholds return it exactly, so that Newell's rate ``dn/dt = W*K``
passes both checks, and such a law is concave by construction.

Where a law has no closed form (the sigmoid), concavity is tested
numerically (``check_concave``), and both suprema come from one search,
``_supremum``: the maximum over a fixed grid of ``_GRID`` (100 000)
points, polished around the best grid point with Brent's bounded
minimisation, run as a maximiser (Brent 1973, *Algorithms for
Minimization without Derivatives*, ch. 5).  The grid maximum is found
from a coarse pass over every ``_STRIDE``-th point and windows around
its local maxima and both ends; on the sigmoid it equals the maximum
over the whole grid bit for bit.  The collision-free supremum is
singular at ``k = K``, and its value there depends on the sign of
``eta(K)``.  Where ``eta(K) > 0`` the diagram still moves at jam density,
``phi(k) / (1 - k/K)`` grows without bound towards ``K``, and the
threshold is ``inf``: no rate is collision-free.  Where ``eta(K) <= 0``
the grid stops one cell short of ``K``, and the boundary value is the
L'Hopital limit ``-eta_prime(K) * K**2``, exact for diagrams that reach
zero speed at jam density.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import inf, sqrt

import numpy as np

from .fundamental import FundamentalDiagram

__all__ = [
    "StepSizeReport",
    "collision_free_threshold",
    "cfl_threshold",
    "check_concave",
    "validate_step_sizes",
]

# Grid points of the two suprema before the polish.
_GRID = 100_000
# Stride of the coarse passes over the suprema's and the concavity test's grids.
_STRIDE = 100


def _brent_max(f, a: float, b: float, xatol: float) -> float:
    """Largest value of ``f`` found by Brent's bounded search on [a, b]."""
    # Port of scipy.optimize._optimize._minimize_scalar_bounded (scipy 1.17)
    # applied to -f, in the same float operation order, so results match it bit for bit.
    sqrt_eps = sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - sqrt(5.0))
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = f(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            # Parabolic fit through the three best points.
            r = (xf - nfc) * (ffulc - fx)
            q = (xf - fulc) * (fnfc - fx)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 if xm >= xf else -tol1
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = golden_mean * e
        x = xf + (1.0 if rat >= 0.0 else -1.0) * max(abs(rat), tol1)
        fu = f(x)
        num += 1
        if fu >= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu >= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu >= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:
            break
    return fx


def _grid_points(hi: float, i: np.ndarray) -> np.ndarray:
    """Points ``i`` of the ``_GRID``-point grid on [0, hi], as
    ``np.linspace(0.0, hi, _GRID)[i]`` computes them: i times the step
    (i / (_GRID - 1) times hi where the step underflows to zero), and hi
    itself last.  Only the points the search reads are computed."""
    n = _GRID - 1
    step = hi / n
    ks = i * step if step else i / n * hi
    ks[i == n] = hi
    return ks


def _grid_argmax(f, hi: float) -> tuple[int, float]:
    """First index of the largest value of ``f`` over the ``_GRID``-point grid
    on [0, hi] (``_grid_points``), and that value.

    ``f`` is evaluated on every ``_STRIDE``-th point and the last, then on
    the windows of ``2 * _STRIDE`` points either side of both ends and of
    every coarse local maximum (a point at least as large as both coarse
    neighbours, so plateaus count), merged into runs of indices in order.
    Each subset is a contiguous copy, evaluated by the same ufunc
    loops as the whole grid, so every value keeps its bits.  A peak
    narrower than the stride that no coarse local maximum sits next to
    would be missed; on the diagrams here the result equals the whole
    grid's ``np.argmax`` (tests/test_conditions.py checks it bit for bit).
    """
    last = _GRID - 1
    coarse = np.append(np.arange(0, last, _STRIDE), last)
    cv = f(_grid_points(hi, coarse))
    peak = (cv[1:-1] >= cv[:-2]) & (cv[1:-1] >= cv[2:])
    centres = np.concatenate(([0], coarse[1:-1][peak], [last]))
    # The windows [left, right) are sorted, so a run of indices ends where
    # the next window starts past the end of the one before it.
    left = np.maximum(centres - 2 * _STRIDE, 0)
    right = np.minimum(centres + 2 * _STRIDE + 1, _GRID)
    first = np.flatnonzero(np.append(True, left[1:] > right[:-1]))
    starts, ends = left[first], right[np.append(first[1:] - 1, len(centres) - 1)]
    idx = np.concatenate([np.arange(a, b) for a, b in zip(starts.tolist(), ends.tolist())])
    vals = f(_grid_points(hi, idx))
    j = int(np.argmax(vals))
    return int(idx[j]), float(vals[j])


def _supremum(fd: FundamentalDiagram, f, below_jam: bool) -> float:
    """Supremum of ``f`` over [0, K], or over densities below jam with the
    boundary value at K (``below_jam``; ``inf`` where ``eta(K) > 0``): the
    diagram's ``critical_rate`` where it declares one, else the maximum over
    the ``_GRID``-point grid, polished between the best grid point's neighbours."""
    if (rate := fd.critical_rate) is not None:
        return rate
    K = fd.K
    # Stop one grid cell short of K where the collision-free expression is 0/0.
    hi = K * (1.0 - 1.0 / _GRID) if below_jam else K
    # A steep sigmoid's exp overflows to inf, which gives the sigmoid's exact
    # limit, so each search silences the warning; the audit counts any
    # non-finite value that reaches a trajectory.
    with np.errstate(over="ignore"):
        if below_jam and fd._eta(np.asarray(K)) > 0.0:
            return inf  # k * eta(k) / (1 - k/K) grows without bound towards K
        i, best = _grid_argmax(f, hi)
        a, b = _grid_points(hi, np.array([max(i - 1, 0), min(i + 1, _GRID - 1)])).tolist()
        sup = max(best, _brent_max(lambda k: float(f(np.asarray(k))), a, b, 1e-13 * hi))
        return max(sup, float(-fd.eta_prime(K) * K * K)) if below_jam else sup


@lru_cache(maxsize=128)
def collision_free_threshold(fd: FundamentalDiagram) -> float:
    """Supremum of ``phi(k) / (1 - k/K)`` over densities below jam."""
    return _supremum(fd, lambda k: k * fd._eta(k) / (1.0 - k / fd.K), below_jam=True)


@lru_cache(maxsize=128)
def cfl_threshold(fd: FundamentalDiagram) -> float:
    """Supremum of ``|eta_prime(k)| * k**2`` over the full density range."""
    return _supremum(fd, lambda k: np.abs(fd._eta_prime(k)) * k * k, below_jam=False)


@lru_cache(maxsize=128)
def check_concave(fd: FundamentalDiagram) -> bool:
    """True when the flow ``phi`` is concave on the open density range.

    A law with a ``critical_rate`` is concave by that contract.  Elsewhere
    concavity of ``phi`` is equivalent to ``k*eta_second + 2*eta_prime
    <= 0``, checked with 1e-9 of slack at 10 000 interior points.  At a
    kink the one-sided derivatives of either branch satisfy it too.
    Every ``_STRIDE``-th point is tested first, and a violation there
    returns False without testing the rest.
    """
    if fd.critical_rate is not None:
        return True
    ks = np.linspace(0.0, fd.K, 10_002)[1:-1]

    def concave_on(k):
        return bool(np.all(k * fd._eta_second(k) + 2.0 * fd._eta_prime(k) <= 1e-9))

    # A violation on the coarse subset already decides; its copy is contiguous, as ks is.
    with np.errstate(over="ignore"):  # exp saturates to the sigmoid's limit, as in _supremum
        return concave_on(ks[::_STRIDE].copy()) and concave_on(ks)


@dataclass(frozen=True)
class StepSizeReport:
    """Outcome of validating a (dn, dt) pair against a diagram."""

    dn: float
    dt: float
    rate: float
    collision_free_threshold: float
    cfl_threshold: float
    collision_free_ok: bool
    cfl_ok: bool
    concave: bool


def validate_step_sizes(fd: FundamentalDiagram, dn: float, dt: float) -> StepSizeReport:
    """Compare the rate ``dn/dt`` against both thresholds.

    A condition passes when ``dn/dt`` is at or above its threshold,
    with 1e-12 of relative slack so that exactly-critical pairs are
    accepted.
    """
    if not (0.0 < dn < inf and 0.0 < dt < inf):
        raise ValueError(f"dn and dt must be positive and finite, got dn={dn!r}, dt={dt!r}")
    rate = dn / dt
    cf = collision_free_threshold(fd)
    cfl = cfl_threshold(fd)
    slack = 1.0 - 1e-12
    return StepSizeReport(
        dn=dn,
        dt=dt,
        rate=rate,
        collision_free_threshold=cf,
        cfl_threshold=cfl,
        collision_free_ok=bool(rate >= cf * slack),
        cfl_ok=bool(rate >= cfl * slack),
        concave=check_concave(fd),
    )
