"""Fundamental diagrams in both Eulerian and Lagrangian form.

A fundamental diagram is a speed-density relation ``eta(k)`` giving the
equilibrium speed of traffic at density ``k`` (vehicles per metre).  The
induced flow is ``phi(k) = k * eta(k)``.  The same law can be read in
car-following (Lagrangian) coordinates as a speed-spacing relation
``theta(s) = eta(1/s)``, defined for spacings at or above the jam
spacing ``S = 1/K``.

All evaluation methods accept scalars or numpy arrays and return a
matching shape (plain ``float`` for scalar input).
"""
from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "SpacingBelowJam",
    "FundamentalDiagram",
    "GreenshieldsFD",
    "TriangularFD",
    "KernerFD",
]


class SpacingBelowJam(ValueError):
    """Raised when a speed-spacing law is evaluated below the jam spacing."""


def _check_fields(obj, positive: tuple[str, ...] = ()) -> None:
    """Reject non-finite values of the dataclass ``obj``'s float fields
    and non-positive values of the fields named in ``positive``, naming
    the field.  A float field is one whose annotation text (the modules
    postpone annotations) starts with ``float``; a None value is skipped."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if not f.type.startswith("float") or value is None:
            continue
        if not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value!r}")
        if f.name in positive and value <= 0.0:
            raise ValueError(f"{f.name} must be positive, got {value!r}")


class FundamentalDiagram(ABC):
    """Common interface for speed-density laws.

    Concrete diagrams expose at least

    ``K`` : float
        Jam density, the largest admissible density.
    ``V`` : float
        Free-flow speed, ``eta(0)``.
    ``S`` : float
        Jam spacing, ``1/K``.

    and implement ``_eta`` (the speed formula on a density array already
    known to lie in [0, K]), ``eta_prime`` and ``eta_second``.  Everything
    else (the checked ``eta``, flow, spacing form, derivatives of the
    spacing form) is derived here.  Construction rejects non-finite
    parameters and non-positive values of the fields named in
    ``_positive``, naming the field.
    """

    K: float
    # Set unannotated in subclasses, so that it is not a dataclass field.
    _positive: tuple[str, ...] = ()

    def __post_init__(self):
        _check_fields(self, self._positive)

    @property
    def S(self) -> float:
        """Jam spacing, the reciprocal of the jam density."""
        return 1.0 / self.K

    def kinks(self) -> tuple[float, ...]:
        """Densities where ``eta`` is not differentiable (may be empty)."""
        return ()

    # -- Eulerian form -------------------------------------------------

    def eta(self, k):
        """Equilibrium speed at density ``k``, for ``0 <= k <= K``."""
        return _descalar(self._eta(self._check_density(k)))

    @abstractmethod
    def _eta(self, k):
        """``eta`` on a float array of densities in [0, K], unchecked."""

    @abstractmethod
    def eta_prime(self, k):
        """Derivative of ``eta`` (one-sided, congested branch at kinks)."""

    @abstractmethod
    def eta_second(self, k):
        """Second derivative of ``eta`` (same one-sided convention)."""

    def phi(self, k):
        """Equilibrium flow ``k * eta(k)``."""
        k = self._check_density(k)
        return _descalar(k * self._eta(k))

    def phi_prime(self, k):
        """Characteristic (kinematic wave) speed ``eta + k * eta_prime``."""
        k = self._check_density(k)
        return _descalar(self._eta(k) + k * self.eta_prime(k))

    # -- Lagrangian form -----------------------------------------------

    def theta(self, s):
        """Equilibrium speed at spacing ``s >= S``; ``theta(s) = eta(1/s)``."""
        return _descalar(self._eta(self._spacing_to_density(s)))

    def theta_prime(self, s):
        """Derivative of the spacing form: ``-eta_prime(1/s) / s**2``."""
        s = np.asarray(s, dtype=float)
        return _descalar(-self.eta_prime(self._spacing_to_density(s)) / (s * s))

    # -- helpers -------------------------------------------------------

    def _check_density(self, k):
        k = np.asarray(k, dtype=float)
        if np.any(k < 0.0) or np.any(k > self.K):
            raise ValueError(f"density outside [0, {self.K!r}]")
        return k

    def _spacing_to_density(self, s):
        s = np.asarray(s, dtype=float)
        if np.any(s <= 0.0):
            raise SpacingBelowJam("spacing must be positive")
        if np.any(s < self.S * (1.0 - 1e-12)):
            raise SpacingBelowJam(
                f"spacing below jam spacing S={self.S!r}"
            )
        # 1/s can land one ulp above K when s == S; clamp back into range.
        return np.minimum(1.0 / s, self.K)


def _descalar(x):
    """Return a plain float for 0-d results, the array otherwise."""
    x = np.asarray(x)
    return float(x) if x.ndim == 0 else x


@dataclass(frozen=True)
class GreenshieldsFD(FundamentalDiagram):
    """Linear speed-density law ``eta(k) = V * (1 - k/K)``."""

    V: float = 20.0
    K: float = 1.0 / 7.0
    _positive = ("V", "K")

    def _eta(self, k):
        return self.V * (1.0 - k / self.K)

    def eta_prime(self, k):
        k = self._check_density(k)
        return _descalar(np.full_like(k, -self.V / self.K))

    def eta_second(self, k):
        k = self._check_density(k)
        return _descalar(np.zeros_like(k))


@dataclass(frozen=True)
class TriangularFD(FundamentalDiagram):
    """Triangular flow: free speed ``V``, congested wave speed ``W``.

    ``eta(k) = min(V, W * (K/k - 1))``.  The two branches meet at the
    critical density ``k_c = W*K / (V + W)``; derivatives at the kink
    use the congested branch.
    """

    V: float = 20.0
    W: float = 5.0
    K: float = 1.0 / 7.0
    _positive = ("V", "W", "K")

    @property
    def critical_density(self) -> float:
        return self.W * self.K / (self.V + self.W)

    def kinks(self) -> tuple[float, ...]:
        return (self.critical_density,)

    def _eta(self, k):
        congested = np.where(k > 0.0, self.W * (self.K / np.where(k > 0.0, k, 1.0) - 1.0), np.inf)
        return np.minimum(self.V, congested)

    def eta_prime(self, k):
        k = self._check_density(k)
        kc = self.critical_density
        safe = np.where(k >= kc, k, 1.0)
        return _descalar(np.where(k >= kc, -self.W * self.K / (safe * safe), 0.0))

    def eta_second(self, k):
        k = self._check_density(k)
        kc = self.critical_density
        safe = np.where(k >= kc, k, 1.0)
        return _descalar(np.where(k >= kc, 2.0 * self.W * self.K / safe**3, 0.0))


@dataclass(frozen=True)
class KernerFD(FundamentalDiagram):
    """Sigmoid speed-density law with an additive offset.

    ``eta(k) = B * (1 / (1 + exp((k/K - c2)/c3)) - c4)`` where the
    amplitude is ``B = c1 * unit_length / relax_time``.  The offset
    ``c4`` makes the raw curve slightly negative near the jam density;
    with ``clamp_nonnegative`` set (the default) the curve is floored
    at zero and its derivatives vanish on the floored region.
    """

    unit_length: float = 28.0
    relax_time: float = 5.0
    K: float = 0.18
    c1: float = 5.0461
    c2: float = 0.25
    c3: float = 0.06
    c4: float = 3.73e-6
    clamp_nonnegative: bool = True
    _positive = ("unit_length", "relax_time", "K", "c1", "c3")

    @property
    def amplitude(self) -> float:
        return self.c1 * self.unit_length / self.relax_time

    @property
    def V(self) -> float:
        return self.eta(0.0)

    def _raw(self, k):
        x = (k / self.K - self.c2) / self.c3
        return self.amplitude * (1.0 / (1.0 + np.exp(x)) - self.c4)

    def _eta(self, k):
        raw = self._raw(k)
        if self.clamp_nonnegative:
            raw = np.maximum(raw, 0.0)
        return raw

    def eta_prime(self, k):
        k = self._check_density(k)
        x = (k / self.K - self.c2) / self.c3
        sig = 1.0 / (1.0 + np.exp(x))
        d = -self.amplitude * sig * (1.0 - sig) / (self.c3 * self.K)
        if self.clamp_nonnegative:
            # The amplitude is positive, so _raw(k) > 0 exactly where sig > c4.
            d = np.where(sig - self.c4 > 0.0, d, 0.0)
        return _descalar(d)

    def eta_second(self, k):
        # No tidy closed form is needed anywhere downstream, so a
        # centred difference of eta itself is used.  The step is tiny
        # relative to K; callers stay away from the domain edges.
        k = self._check_density(k)
        h = 1e-6 * self.K
        return _descalar((self.eta(k + h) - 2.0 * self.eta(k) + self.eta(k - h)) / (h * h))
