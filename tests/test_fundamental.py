"""Fundamental diagram values against hand-computed and high-precision
reference numbers.

The sigmoid-diagram constants below were evaluated independently with
40-digit arithmetic; everything else is exact fraction arithmetic done
by hand.
"""
import copy
import math
import pickle
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import reference
from lagwave.analysis import diffusion_coefficient, eulerian_dispersion_roots
from lagwave.conditions import check_concave, cfl_threshold, collision_free_threshold
from lagwave.engine import Scenario, simulate
from lagwave.fundamental import (
    GreenshieldsFD,
    KernerFD,
    TriangularFD,
)
from lagwave.riemann import shock_speed_rh

G = GreenshieldsFD()
T = TriangularFD()
KC = KernerFD()
KU = KernerFD(clamp_nonnegative=False)


def test_greenshields_eta_endpoints():
    assert G.eta(0.0) == 20.0
    assert G.eta(G.K) == 0.0
    assert G.eta(G.K / 4.0) == pytest.approx(15.0, rel=1e-12)


def test_greenshields_jam_spacing():
    assert G.S == 7.0
    assert T.S == 7.0


def test_greenshields_theta_values():
    # theta(s) = V (1 - 1/(s K)), so theta(28) = 20 * 3/4, theta(14) = 20/2
    assert G.theta(28.0) == pytest.approx(15.0, rel=1e-12)
    assert G.theta(14.0) == pytest.approx(10.0, rel=1e-12)
    assert G.theta(G.S) == 0.0


def test_greenshields_theta_prime():
    # V / (K s^2) at s = 14: 140 / 196
    assert G.theta_prime(14.0) == pytest.approx(5.0 / 7.0, rel=1e-12)


@pytest.mark.parametrize("cls", [GreenshieldsFD, TriangularFD], ids=["greenshields", "triangular"])
def test_theta_prime_at_jam_for_the_largest_jam_density(cls):
    # The largest K whose S*S is a normal float; theta'(S) is V*K, and W*K on the triangular law.
    K = 1.0 / math.sqrt(np.finfo(float).tiny)
    fd = cls(V=1.0, K=K) if cls is GreenshieldsFD else cls(V=1.0, W=1.0, K=K)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fd.theta_prime(fd.S) == pytest.approx(K, rel=1e-12)
        assert fd.eta_prime(K) == pytest.approx(-1.0 / K, rel=1e-12)


def test_greenshields_phi():
    assert G.phi(G.K / 2.0) == pytest.approx(20.0 * G.K / 4.0, rel=1e-12)
    assert G.phi_prime(0.0) == pytest.approx(20.0, rel=1e-12)
    assert G.phi_prime(G.K) == pytest.approx(-20.0, rel=1e-12)


def test_triangular_eta_branches():
    assert T.eta(T.K / 10.0) == 20.0
    assert T.eta(0.4 * T.K) == pytest.approx(7.5, rel=1e-12)
    assert T.eta(T.K) == pytest.approx(0.0, abs=1e-15)


def test_triangular_critical_density():
    # branches meet where W (K/k - 1) = V, i.e. k = W K / (V + W) = 1/35
    assert T.critical_density == pytest.approx(1.0 / 35.0, rel=1e-12)
    assert T.kinks() == (T.critical_density,)
    assert G.kinks() == ()


def test_triangular_theta_values():
    assert T.theta(10.0) == pytest.approx(15.0 / 7.0, rel=1e-12)
    assert T.theta(63.0) == 20.0
    assert T.theta(T.S) == pytest.approx(0.0, abs=1e-15)


def test_triangular_theta_prime_branches():
    # congested: W/S * (S/s)^2 scaled, here -eta'(0.1)/100 = 5/7
    assert T.theta_prime(10.0) == pytest.approx(5.0 / 7.0, rel=1e-12)
    assert T.theta_prime(63.0) == 0.0


@pytest.mark.parametrize("fd", [G, T, KC], ids=["greenshields", "triangular", "kerner"])
def test_theta_prime_past_the_square_overflow_is_zero_without_a_warning(fd):
    # s * s overflowed past s = 1.3e154 with a RuntimeWarning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fd.theta_prime(1e200) == 0.0


def test_triangular_kink_derivative_is_congested():
    kc = T.critical_density
    assert T.eta_prime(kc) < 0.0
    assert T.eta_prime(0.999 * kc) == 0.0
    assert T.eta_second(kc) > 0.0
    assert T.eta_second(0.999 * kc) == 0.0


def test_triangular_phi_prime_branches():
    assert T.phi_prime(T.K / 100.0) == pytest.approx(20.0, rel=1e-12)
    # on the congested branch phi = W (K - k), so phi' = -W everywhere
    assert T.phi_prime(0.4 * T.K) == pytest.approx(-5.0, rel=1e-12)
    assert T.phi_prime(T.K) == pytest.approx(-5.0, rel=1e-12)


def test_kerner_amplitude():
    assert KC.amplitude == pytest.approx(28.25816, rel=1e-12)


def test_kerner_reference_values():
    # 40-digit reference evaluations of the sigmoid law
    assert KC.eta(0.0) == pytest.approx(27.82663292, rel=1e-9)
    assert KC.V == pytest.approx(27.82663292, rel=1e-9)
    assert KC.eta(0.002) == pytest.approx(27.740471539288, rel=1e-11)
    assert KU.eta(KU.K) == pytest.approx(-9.4967645e-8, rel=1e-6)


def test_kerner_clamp():
    assert KC.eta(KC.K) == 0.0
    assert KC.eta_prime(KC.K) == 0.0
    # raw curve crosses zero at k = 0.1799902648184572
    assert KC.eta(0.17999) > 0.0
    assert KC.eta(0.179995) == 0.0
    assert KU.eta(0.179995) < 0.0
    assert KU.eta_prime(KU.K) < 0.0


def test_kerner_theta_at_jam():
    assert KC.theta(KC.S) == 0.0
    assert KU.theta(KU.S) == pytest.approx(-9.4967645e-8, rel=1e-6)


def test_diagram_accepts_signed_shape_constants():
    # c2 and c4 are a centre and an offset, not scales: zero and negative are fine.
    fd = KernerFD(c2=0.0, c4=-1e-6)
    assert fd.eta(0.0) > 0.0


def test_unchecked_eta_matches_eta():
    ks = np.linspace(0.0, 0.18, 1001)
    for fd in (G, T, KC, KU):
        sub = ks[ks <= fd.K]
        assert np.array_equal(fd._eta(sub), fd.eta(sub))
        assert np.array_equal(fd._eta_prime(sub), fd.eta_prime(sub))
        assert np.array_equal(fd._eta_second(sub), fd.eta_second(sub))
        spacings = fd.S * np.linspace(1.0, 50.0, 1001)
        assert np.array_equal(fd._eta(fd._density(spacings)), fd.theta(spacings))


def reference_eta_prime(fd, k):
    """``KernerFD._eta_prime`` as it was written before the law's one ``_sigmoid``."""
    x = (k / fd.K - fd.c2) / fd.c3
    sig = 1.0 / (1.0 + np.exp(x))
    d = -fd.amplitude * sig * (1.0 - sig) / (fd.c3 * fd.K)
    if fd.clamp_nonnegative:
        d = np.where(sig - fd.c4 > 0.0, d, 0.0)
    return d


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.parametrize("fd", [G, T, KC, KU], ids=["greenshields", "triangular", "kerner", "kerner-unclamped"])
def test_eta_out_contract(fd):
    ks = np.concatenate((np.linspace(0.0, fd.K, 1001), [0.0, fd.K, np.nextafter(fd.K, 0.0), 1e-300]))
    want = reference.eta(fd, ks)
    k = ks.copy()
    buf = np.full_like(k, -1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = fd._eta(k, out=buf)
        alloc = fd._eta(k)
        scalars = [fd._eta(np.asarray(x)) for x in ks[[0, 1, 500, -4, -1]]]
    assert got is buf
    assert _bits(k) == _bits(ks)
    assert _bits(got) == _bits(want) and _bits(alloc) == _bits(want)
    for x, y in zip(ks[[0, 1, 500, -4, -1]], scalars):
        assert np.ndim(y) == 0 and _bits(y) == _bits(reference.eta(fd, np.asarray(x)))


# Steep sigmoids, whose exp overflows to inf for most densities.
STEEP_KERNER = [KernerFD(c3=c3, clamp_nonnegative=clamp) for c3 in (1e-3, 1e-6) for clamp in (True, False)]


@pytest.mark.parametrize("fd", [G, T, KC, KU, *STEEP_KERNER], ids=repr)
def test_eta_float_keeps_the_array_bits(fd):
    # The scalar formula of the float kernel, on the densities it hands it: [0, K] and NaN.
    ks = np.linspace(0.0, fd.K, 1001).tolist() + [fd.K, np.nextafter(fd.K, 0.0), 1e-300, math.nan]
    if isinstance(fd, TriangularFD):
        half = 0.5 * fd.critical_density
        ks += [half, np.nextafter(half, 0.0), np.nextafter(half, 1.0)]
    eta = fd._eta_float()
    with np.errstate(over="ignore"):
        got = [eta(k) for k in np.array(ks).tolist()]
        assert _bits(got) == _bits(fd._eta(np.array(ks)))
    # Python floats in, Python floats out: a numpy scalar would slow the kernel.
    assert all(type(v) is float for v in got)


@settings(max_examples=100, deadline=None)
@given(st.floats(0.1, 0.35), st.floats(1e-3, 0.1), st.booleans(),
       st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=50))
def test_kerner_eta_float_keeps_the_array_bits_in_the_steep_band(c2, c3, clamp, zs):
    # Densities where the sigmoid falls, exp's argument (k/K - c2)/c3 within
    # +-40: there a libm exp differs from numpy's in the last ulp on about
    # one density in twenty.
    fd = KernerFD(c2=c2, c3=c3, clamp_nonnegative=clamp)
    ks = np.clip(fd.K * (c2 + c3 * np.asarray(zs)), 0.0, fd.K)
    eta = fd._eta_float()
    assert _bits([eta(k) for k in ks.tolist()]) == _bits(fd._eta(ks))


@pytest.mark.parametrize("fd", [KC, KU, KernerFD(c3=0.01, c4=0.6), *STEEP_KERNER], ids=repr)
def test_sigmoid_keeps_the_written_out_bits(fd):
    ks = np.concatenate((np.linspace(0.0, fd.K, 1001), [fd.c2 * fd.K, np.nextafter(fd.K, 0.0), 1e-300]))
    picks = [0, 1, 250, 500, 1000, -3, -2, -1]
    with np.errstate(over="ignore"):
        for got, want in ((fd._eta, reference.eta), (fd._eta_prime, reference_eta_prime)):
            assert _bits(got(ks)) == _bits(want(fd, ks))
            for x in ks[picks]:
                y = got(np.asarray(x))
                assert np.ndim(y) == 0 and _bits(y) == _bits(want(fd, np.asarray(x)))
        k = ks.copy()
        buf = np.full_like(k, -1.0)
        assert fd._sigmoid(k, out=buf) is buf
        assert _bits(buf) == _bits(1.0 / (1.0 + np.exp((ks / fd.K - fd.c2) / fd.c3)))
    assert _bits(k) == _bits(ks)


@pytest.mark.parametrize("fd", STEEP_KERNER, ids=repr)
def test_a_steep_sigmoid_gives_its_limit_at_jam_without_a_warning(fd):
    # At K and S a steep sigmoid's exp overflows to inf, which gives its exact
    # limit: the public methods, and the library's calls of them, return the
    # formula's value and warn nothing.
    K, S = np.asarray(fd.K), np.asarray(fd.S)
    calls = {"eta": lambda: fd.eta(K), "eta_prime": lambda: fd.eta_prime(K), "eta_second": lambda: fd.eta_second(K),
             "phi": lambda: fd.phi(K), "phi_prime": lambda: fd.phi_prime(K), "theta": lambda: fd.theta(S),
             "theta_prime": lambda: fd.theta_prime(S), "shock_speed_rh": lambda: shock_speed_rh(fd, 0.5 * fd.K, fd.K),
             "diffusion_coefficient": lambda: diffusion_coefficient(fd, fd.K, 5.0),
             "eulerian_dispersion_roots": lambda: eulerian_dispersion_roots(fd, fd.K, 5.0, 0.1)}
    with np.errstate(over="ignore"):
        eta, eta_prime = fd._eta(K), fd._eta_prime(K)
        formulas = {"eta": eta, "eta_prime": eta_prime, "eta_second": fd._eta_second(K), "phi": K * eta,
                    "phi_prime": eta + K * eta_prime, "theta": fd._eta(fd._density(S)),
                    "theta_prime": -fd._eta_prime(fd._density(S)) / (S * S)}
        want = {name: call() for name, call in calls.items()}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = {name: call() for name, call in calls.items()}
    assert got == want
    assert {name: _bits(got[name]) for name in formulas} == {name: _bits(x) for name, x in formulas.items()}
    # The sigmoid's limit at jam is 0, so eta(K) is amplitude * -c4, floored at 0 when clamped.
    assert got["eta"] == (0.0 if fd.clamp_nonnegative else -fd.c4 * fd.amplitude)


def test_eta_out_keeps_the_triangular_nan_and_nonpositive_densities():
    k = np.array([np.nan, 0.0, -0.0, -1.0, T.K])
    buf = np.empty_like(k)
    assert _bits(T._eta(k, out=buf)) == _bits(reference.eta(T, k)) == _bits([T.V, T.V, T.V, T.V, 0.0])


@pytest.mark.parametrize("fd", [G, T, KC], ids=lambda fd: type(fd).__name__)
def test_density_out_may_be_the_spacings(fd):
    s = fd.S * np.concatenate(([1.0, np.inf], np.linspace(1.0, 50.0, 999)))
    want = np.minimum(1.0 / s, fd.K)
    buf = s.copy()
    assert fd._density(buf, out=buf) is buf
    assert _bits(buf) == _bits(want) == _bits(fd._density(s))


def test_triangular_eta_divides_only_above_half_the_critical_density():
    # Below kc/2 the congested branch exceeds 2V + W, so eta is V: the law
    # divides K by max(k, kc/2), not by k, which overflows for a subnormal k.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert TriangularFD().eta(1e-310) == 20.0


@given(V=st.floats(0.1, 300.0), W=st.floats(0.1, 300.0), K=st.floats(1e-3, 10.0),
       fractions=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=20))
@example(V=20.0, W=5.0, K=1.0 / 7.0, fractions=[1.0]).via("the default law")
@example(V=0.1, W=300.0, K=10.0, fractions=[0.5]).via("kc/2 near K/2")
@example(V=300.0, W=0.1, K=1e-3, fractions=[2.0]).via("kc/2 near 0")
def test_triangular_eta_keeps_its_bits_around_the_critical_density(V, W, K, fractions):
    fd = TriangularFD(V=V, W=W, K=K)
    kc = fd.critical_density
    edges = [x for c in (kc, 0.5 * kc) for x in (np.nextafter(c, 0.0), c, np.nextafter(c, np.inf))]
    ks = np.array([*edges, 0.0, np.nan, K, 1e-310, 5e-324, *(min(f * kc, K) for f in fractions)])
    with np.errstate(over="ignore"):
        want = reference.eta(fd, ks)
        scalars = [reference.eta(fd, np.asarray(x)) for x in ks]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        buf = np.empty_like(ks)
        assert fd._eta(ks, out=buf) is buf
        assert _bits(buf) == _bits(want) == _bits(fd._eta(ks))
        for x, y in zip(ks, scalars):
            assert _bits(fd._eta(np.asarray(x))) == _bits(y)


@pytest.mark.parametrize("fd", [KC, KU], ids=["clamped", "unclamped"])
def test_kerner_eta_second_is_defined_at_the_domain_edges(fd):
    assert np.isfinite(fd.eta_second(0.0))
    assert np.isfinite(fd.eta_second(fd.K))


def test_infinite_spacing_is_free_flow():
    for fd in (G, T, KC):
        assert fd.theta(np.inf) == fd.V


class _CountingKerner(KernerFD):
    """A Kerner diagram that counts the density checks run on it."""

    checks = 0

    def _check_density(self, k):
        _CountingKerner.checks += 1
        return super()._check_density(k)


def test_checks_stay_out_of_the_threshold_searches():
    fd = _CountingKerner()
    _CountingKerner.checks = 0
    collision_free_threshold.__wrapped__(fd)
    cfl_threshold.__wrapped__(fd)
    check_concave.__wrapped__(fd)
    assert _CountingKerner.checks <= 1


def test_checks_stay_out_of_the_stepping_kernel():
    scenario = Scenario(fd=_CountingKerner(), k1=0.05, lead_speed=5.0, m=20, dn=1.0, dt=0.1, duration=60.0)
    assert scenario.steps == 600
    _CountingKerner.checks = 0
    simulate(scenario)
    # The one check is eta(k1), the followers' starting speed.
    assert _CountingKerner.checks == 1


def test_vector_evaluation():
    s = np.array([7.0, 14.0, 28.0])
    out = G.theta(s)
    assert isinstance(out, np.ndarray)
    assert out.shape == s.shape
    assert out[0] == 0.0
    assert isinstance(G.theta(14.0), float)
    assert isinstance(G.eta(0.0), float)


@pytest.mark.parametrize("cls", [GreenshieldsFD, TriangularFD, KernerFD], ids=lambda cls: cls.__name__)
def test_bound_operands_stay_out_of_the_dataclass(cls):
    # The 0-d operands are cached on a diagram once it is stepped, but serialize and the
    # threshold caches' keys read only its fields, ==, hash and repr.
    stepped, fresh = cls(), cls()
    simulate(Scenario(fd=stepped, k1=0.5 * stepped.K, lead_speed=1.0, m=40, dn=1.0, dt=0.1, duration=1.0))
    assert "_operands" in vars(stepped) and "_operands" not in vars(fresh)
    assert [(f.name, getattr(stepped, f.name)) for f in fields(stepped)] == [
        (f.name, getattr(fresh, f.name)) for f in fields(fresh)]
    assert (repr(stepped), hash(stepped)) == (repr(fresh), hash(fresh)) and stepped == fresh
    assert copy.copy(stepped) == stepped and pickle.loads(pickle.dumps(stepped)) == stepped
    # A replaced diagram binds its own operands: its density at its jam spacing is its own K.
    moved = replace(stepped, K=2.0 * stepped.K)
    assert moved._density(np.asarray(moved.S)) == moved.K


def test_frozen_instances_are_hashable():
    assert hash(GreenshieldsFD()) == hash(GreenshieldsFD())
    assert GreenshieldsFD() == GreenshieldsFD()
    assert GreenshieldsFD() != TriangularFD()


@given(st.floats(min_value=7.0, max_value=1e4), st.floats(min_value=0.0, max_value=1e4))
def test_theta_monotone_nondecreasing(s, bump):
    for fd in (G, T, KC):
        assert fd.theta(s + bump) >= fd.theta(s) - 1e-12


@given(st.floats(min_value=0.01, max_value=0.99))
def test_eta_prime_matches_finite_difference(frac):
    for fd in (G, KC):
        k = frac * fd.K
        h = 1e-7 * fd.K
        num = (fd.eta(k + h) - fd.eta(k - h)) / (2.0 * h)
        assert fd.eta_prime(k) == pytest.approx(num, rel=1e-4, abs=1e-8)
