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
from functools import cache
from typing import Callable

import numpy as np

__all__ = [
    "SpacingBelowJam",
    "FundamentalDiagram",
    "GreenshieldsFD",
    "TriangularFD",
    "KernerFD",
]


class SpacingBelowJam(ValueError):
    """Raised when a speed-spacing law is evaluated below the jam spacing or at NaN."""


# The value types each field annotation admits, and the noun a refusal names.  The
# modules postpone annotations, so ``f.type`` is the annotation's text; a field
# of any other annotation (a scenario's diagram) is not checked.
_NUMBER = ((float, int, np.floating, np.integer), "a number")
_TYPES = {"float": _NUMBER, "float | None": _NUMBER, "int": ((int, np.integer), "an integer"),
          "bool": (bool, "a boolean")}


def _check_type(name: str, value, annotation: str) -> None:
    """Reject a ``value`` of field ``name`` that the annotation text does not admit."""
    types, noun = _TYPES[annotation]
    # bool is an int, so only a bool annotation admits it.
    if not isinstance(value, types) or isinstance(value, bool) and annotation != "bool":
        raise ValueError(f"{name} must be {noun}, got {value!r}")


def _check_fields(obj, positive: tuple[str, ...] = ()) -> None:
    """Reject a value of the dataclass ``obj``'s fields that is not of the
    field's annotation, a non-finite value of a float field and a
    non-positive value of the fields named in ``positive``, naming the
    field.  A None value of a ``float | None`` field is skipped."""
    for name, annotation in _typed_fields(type(obj)):
        value = getattr(obj, name)
        if value is None and annotation == "float | None":
            continue
        _check_type(name, value, annotation)
        if annotation.startswith("float") and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
        if name in positive and value <= 0.0:
            raise ValueError(f"{name} must be positive, got {value!r}")


@cache
def _typed_fields(cls) -> tuple[tuple[str, str], ...]:
    """The name and annotation text of each field of the dataclass ``cls`` that ``_TYPES`` checks."""
    return tuple((f.name, f.type) for f in fields(cls) if f.type in _TYPES)


class FundamentalDiagram(ABC):
    """Common interface for speed-density laws.

    Concrete diagrams expose at least

    ``K`` : float
        Jam density, the largest admissible density.
    ``V`` : float
        Free-flow speed, ``eta(0)``.
    ``S`` : float
        Jam spacing, ``1/K``.

    and implement three formulas, ``_eta``, ``_eta_prime`` and
    ``_eta_second``, on float arrays of densities already known to lie
    in [0, K], and ``_eta``'s scalar formula ``_eta_float``; they check
    nothing.  The public methods (``eta`` and its derivatives, the flow
    ``phi``, the spacing form ``theta``) live here only: each checks its
    input once, refusing NaN and values outside the domain, and returns
    a plain float for scalar input.  Library code that builds its own
    in-range arrays calls the formulas (and ``_density``, the density of
    a spacing) directly.  The scalar formula is ``_eta`` on one Python
    float density in [0, K] or NaN, with the same bits, as a closure over
    the law's constants built once per run: the float stepping kernel
    steps a platoon as a cascade, each follower's column behind its
    leader's, and calls it once per vehicle-step.  The sigmoid's calls
    ``np.exp`` on each float, which keeps numpy's exp bits.
    Construction rejects non-finite parameters and non-positive values
    of the fields named in ``_positive``, naming the field.

    ``_eta(k, out=None)`` is one formula for two kinds of caller.  Without
    ``out`` it allocates its result, 0-d for a 0-d ``k``.  With ``out``,
    an array of ``k``'s shape, every step writes into ``out``, which is
    returned, and no step allocates a temporary, not even a mask: the
    triangular law clamps ``k`` into ``out`` with ``fmax``.  The stepping
    kernel passes its scratch rows, so that a step allocates nothing.
    ``out`` must not share memory with ``k``.  Either
    way ``k`` is left unchanged, and the result has the same bits.  The
    one scalar fast path is the sigmoid law's ``_sigmoid``: Brent's 0-d
    search in ``conditions`` reaches that law alone (the concave laws'
    ``critical_rate`` short-circuits it), and there numpy scalar
    arithmetic is faster than ufunc calls given ``out=``.
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

    @property
    def critical_rate(self) -> float | None:
        """Closed form of both step-size thresholds (``conditions``), or None
        to search them; a law that returns a rate is concave, and both equal it."""
        return None

    # -- Eulerian form -------------------------------------------------

    def eta(self, k):
        """Equilibrium speed at density ``k``, for ``0 <= k <= K``."""
        return _descalar(self._eta(self._check_density(k)))

    def eta_prime(self, k):
        """Derivative of ``eta`` (one-sided, congested branch at kinks)."""
        return _descalar(self._eta_prime(self._check_density(k)))

    def eta_second(self, k):
        """Second derivative of ``eta`` (same one-sided convention)."""
        return _descalar(self._eta_second(self._check_density(k)))

    def phi(self, k):
        """Equilibrium flow ``k * eta(k)``."""
        k = self._check_density(k)
        return _descalar(k * self._eta(k))

    def phi_prime(self, k):
        """Characteristic (kinematic wave) speed ``eta + k * eta_prime``."""
        k = self._check_density(k)
        return _descalar(self._eta(k) + k * self._eta_prime(k))

    @abstractmethod
    def _eta(self, k, out=None):
        """``eta`` on a float array of densities in [0, K], unchecked,
        written into ``out`` when it is given."""

    @abstractmethod
    def _eta_prime(self, k):
        """``eta_prime`` on a float array of densities in [0, K], unchecked."""

    @abstractmethod
    def _eta_second(self, k):
        """``eta_second`` on a float array of densities in [0, K], unchecked."""

    @abstractmethod
    def _eta_float(self) -> Callable[[float], float]:
        """``_eta`` as a function of one float density in [0, K] or NaN,
        unchecked, with the same bits: a closure over the law's constants."""

    # -- Lagrangian form -----------------------------------------------

    def theta(self, s):
        """Equilibrium speed at spacing ``s >= S``; ``theta(s) = eta(1/s)``."""
        return _descalar(self._eta(self._density(self._check_spacing(s))))

    def theta_prime(self, s):
        """Derivative of the spacing form: ``-eta_prime(1/s) / s**2``."""
        s = self._check_spacing(s)
        with np.errstate(over="ignore"):  # s * s overflows past s = 1.3e154; the quotient is then 0, its limit
            return _descalar(-self._eta_prime(self._density(s)) / (s * s))

    def _density(self, s, out=None):
        """Density ``min(1/s, K)`` of a float array of spacings >= S,
        unchecked; ``out`` may be ``s`` itself."""
        # 1/s can land one ulp above K when s == S; clamp back into range.
        return np.minimum(np.divide(1.0, s, out=out), self.K, out=out)

    # -- helpers -------------------------------------------------------

    def _check_density(self, k):
        k = np.asarray(k, dtype=float)
        # Written so that NaN fails it too.
        if not np.all((k >= 0.0) & (k <= self.K)):
            raise ValueError(f"density must be a number in [0, {self.K!r}]")
        return k

    def _check_spacing(self, s):
        s = np.asarray(s, dtype=float)
        if not np.all(s >= self.S * (1.0 - 1e-12)):
            raise SpacingBelowJam(f"spacing must be a number at or above the jam spacing S={self.S!r}")
        return s


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

    @property
    def critical_rate(self) -> float:
        return self.V * self.K

    def _eta(self, k, out=None):
        # V * (1.0 - k / K)
        x = np.subtract(1.0, np.divide(k, self.K, out=out), out=out)
        x *= self.V
        return x

    def _eta_float(self):
        K, V = self.K, self.V
        return lambda k: (1.0 - k / K) * V

    def _eta_prime(self, k):
        return np.full_like(k, -self.V / self.K)

    def _eta_second(self, k):
        return np.zeros_like(k)


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

    def __post_init__(self):
        super().__post_init__()
        # eta divides K by max(k, kc/2), and at kc/2 its branch is 2V + W.
        half = 0.5 * self.critical_density
        if not (half > 0.0 and math.isfinite(self.W * (self.K / half - 1.0))):
            raise ValueError(f"kc/2 = W*K/(V+W)/2 must be positive and W*(K/(kc/2) - 1) finite, "
                             f"got V={self.V!r}, W={self.W!r}, K={self.K!r}")

    @property
    def critical_density(self) -> float:
        return self.W * self.K / (self.V + self.W)

    @property
    def critical_rate(self) -> float:
        return self.W * self.K

    def kinks(self) -> tuple[float, ...]:
        return (self.critical_density,)

    def _eta(self, k, out=None):
        # min(V, W * (K / k - 1.0)) with k clamped up to kc/2, which fmax also
        # takes for a NaN k: at and below kc/2 the congested branch is at least
        # 2V + W, so the result is V, and K / k would overflow for a subnormal k.
        if out is None:
            out = np.empty_like(k)
        np.fmax(k, 0.5 * self.critical_density, out=out)
        np.divide(self.K, out, out=out)
        out -= 1.0
        out *= self.W
        return np.minimum(self.V, out, out=out)

    def _eta_float(self):
        # V at or below kc/2 and at NaN, else numpy's minimum of the finite V and the branch.
        V, W, K, half = self.V, self.W, self.K, 0.5 * self.critical_density
        return lambda k: V if not k > half or V < (w := (K / k - 1.0) * W) else w

    def _eta_prime(self, k):
        kc = self.critical_density
        safe = np.where(k >= kc, k, 1.0)
        return np.where(k >= kc, -self.W * self.K / (safe * safe), 0.0)

    def _eta_second(self, k):
        kc = self.critical_density
        safe = np.where(k >= kc, k, 1.0)
        return np.where(k >= kc, 2.0 * self.W * self.K / safe**3, 0.0)


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

    def _sigmoid(self, k, out=None):
        # 1.0 / (1.0 + exp((k / K - c2) / c3)).  On a 0-d k, as in Brent's search in
        # the thresholds, the steps run as numpy scalar arithmetic: numpy scalars have
        # no in-place reverse division, and np.exp loses its scalar fast path given out=.
        x = np.divide(k, self.K, out=out)
        x -= self.c2
        x /= self.c3
        x = np.exp(x) if out is None else np.exp(x, out=out)
        x += 1.0
        return 1.0 / x if out is None else np.divide(1.0, x, out=out)

    def _eta(self, k, out=None):
        # amplitude * (sigmoid - c4), floored at 0 when clamped.
        x = self._sigmoid(k, out)
        x -= self.c4
        x *= self.amplitude
        return np.maximum(x, 0.0, out=out) if self.clamp_nonnegative else x

    def _eta_float(self):
        # np.exp on each float: math.exp differs from numpy's AVX-512 exp in the last ulp.
        K, c2, c3, c4, B, clamp = self.K, self.c2, self.c3, self.c4, self.amplitude, self.clamp_nonnegative
        exp = np.exp

        def eta(k):
            x = (1.0 / (float(exp((k / K - c2) / c3)) + 1.0) - c4) * B
            return x if not clamp or x > 0.0 or x != x else 0.0

        return eta

    def _eta_prime(self, k):
        sig = self._sigmoid(k)
        d = -self.amplitude * sig * (1.0 - sig) / (self.c3 * self.K)
        if self.clamp_nonnegative:
            # The amplitude is positive, so the raw curve is > 0 exactly where sig > c4.
            d = np.where(sig - self.c4 > 0.0, d, 0.0)
        return d

    def _eta_second(self, k):
        # No tidy closed form is needed anywhere downstream, so a
        # centred difference of _eta itself is used.  The formula is
        # defined a step h beyond either edge, so this holds on all of [0, K].
        h = 1e-6 * self.K
        return (self._eta(k + h) - 2.0 * self._eta(k) + self._eta(k - h)) / (h * h)
