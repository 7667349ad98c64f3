"""Admissibility thresholds for the discrete car-following updates.

Two scale-free thresholds govern the choice of step sizes.  Both are
suprema over the density range of the diagram and are compared against
the ratio ``dn/dt``:

* the collision-free threshold, ``sup phi(k) / (1 - k/K)``, which
  guarantees spacings never drop below jam spacing, and
* the CFL threshold, ``sup |eta_prime(k)| * k**2``, the classical
  stability bound for the explicit update.

The suprema are computed on a dense grid and then polished around the
best grid point with Brent's bounded minimisation, run as a maximiser
(Brent 1973, *Algorithms for Minimization without Derivatives*, ch. 5).
The first one is singular at ``k = K``; its boundary value is taken as
the L'Hopital limit ``-eta_prime(K) * K**2``, which is exact for
diagrams that reach zero speed at jam density.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import sqrt

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


def _refine_max(f, lo: float, hi: float, n: int) -> float:
    """Grid maximum of ``f`` over [lo, hi], polished near the best point."""
    ks = np.linspace(lo, hi, n)
    vals = f(ks)
    i = int(np.argmax(vals))
    best = float(vals[i])
    a = float(ks[max(i - 1, 0)])
    b = float(ks[min(i + 1, n - 1)])
    return max(best, _brent_max(lambda k: float(f(np.asarray(k))), a, b, 1e-13 * (hi - lo)))


@lru_cache(maxsize=128)
def collision_free_threshold(fd: FundamentalDiagram) -> float:
    """Supremum of ``phi(k) / (1 - k/K)`` over densities below jam."""
    K = fd.K

    def f(k):
        return fd.phi(k) / (1.0 - k / K)

    # Stop one grid cell short of K where the expression is 0/0.
    interior = _refine_max(f, 0.0, K * (1.0 - 1.0 / _GRID), _GRID)
    boundary = -fd.eta_prime(K) * K * K
    return max(interior, float(boundary))


@lru_cache(maxsize=128)
def cfl_threshold(fd: FundamentalDiagram) -> float:
    """Supremum of ``|eta_prime(k)| * k**2`` over the full density range."""

    def g(k):
        return np.abs(fd.eta_prime(k)) * k * k

    return _refine_max(g, 0.0, fd.K, _GRID)


@lru_cache(maxsize=128)
def check_concave(fd: FundamentalDiagram) -> bool:
    """True when the flow ``phi`` is concave on the open density range.

    Concavity of ``phi`` is equivalent to ``k*eta_second + 2*eta_prime
    <= 0``, checked with 1e-9 of slack at 10 000 interior points.  At a
    kink the one-sided derivatives of either branch satisfy it too.
    """
    ks = np.linspace(0.0, fd.K, 10_002)[1:-1]
    expr = ks * fd.eta_second(ks) + 2.0 * fd.eta_prime(ks)
    return bool(np.all(expr <= 1e-9))


@dataclass(frozen=True)
class StepSizeReport:
    """Outcome of validating a (dn, dt) pair against a diagram."""

    dn: float
    dt: float
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
    if dn <= 0.0 or dt <= 0.0:
        raise ValueError("step sizes must be positive")
    rate = dn / dt
    cf = collision_free_threshold(fd)
    cfl = cfl_threshold(fd)
    slack = 1.0 - 1e-12
    return StepSizeReport(
        dn=dn,
        dt=dt,
        collision_free_threshold=cf,
        cfl_threshold=cfl,
        collision_free_ok=bool(rate >= cf * slack),
        cfl_ok=bool(rate >= cfl * slack),
        concave=check_concave(fd),
    )
