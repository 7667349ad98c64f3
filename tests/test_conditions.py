"""Step-size threshold computations.

Closed forms for the two classical diagrams:
  greenshields: sup phi(k)/(1 - k/K) = sup V k = V K = 20/7, and
  sup |eta'(k)| k^2 = (V/K) K^2 = V K = 20/7 as well.
  triangular:   the congested branch gives W K = 5/7 for both.

Sigmoid-diagram values were computed with an independent 40-digit
evaluation of the same suprema.
"""
import os
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import lagwave
from lagwave import conditions
from lagwave.conditions import (
    cfl_threshold,
    check_concave,
    collision_free_threshold,
    validate_step_sizes,
)
from lagwave.fundamental import GreenshieldsFD, KernerFD, TriangularFD
from lagwave.riemann import riemann_wave, shock_speed_rh
from lagwave.templates import TEMPLATES, template_text

G = GreenshieldsFD()
T = TriangularFD()
KC = KernerFD()

# The grid and Brent search serves the sigmoid law alone.  These
# subclasses hide the concave laws' closed form, so that the search is
# still run on a kink (the triangular CFL plateau starts at the critical
# density) and on a boundary maximum (Greenshields at k = K).


class _SearchedGreenshields(GreenshieldsFD):
    critical_rate = None


class _SearchedTriangular(TriangularFD):
    critical_rate = None


def _searched(fd):
    cls = _SearchedGreenshields if isinstance(fd, GreenshieldsFD) else _SearchedTriangular
    return cls(**{f.name: getattr(fd, f.name) for f in fields(fd)})


def test_greenshields_closed_forms():
    assert collision_free_threshold(G) == pytest.approx(20.0 / 7.0, rel=1e-9)
    assert cfl_threshold(G) == pytest.approx(20.0 / 7.0, rel=1e-9)


def test_triangular_closed_forms():
    assert collision_free_threshold(T) == pytest.approx(5.0 / 7.0, rel=1e-9)
    assert cfl_threshold(T) == pytest.approx(5.0 / 7.0, rel=1e-9)


def test_kerner_thresholds():
    # independent 40-digit optimizer results
    assert collision_free_threshold(KC) == pytest.approx(0.89415029395673, rel=1e-8)
    assert cfl_threshold(KC) == pytest.approx(1.6112019673576, rel=1e-8)


def test_threshold_grid_convergence(monkeypatch):
    # The suprema read conditions._GRID at call time; both are cached on
    # the diagram alone, so no 50 000-point value may outlive this test.
    caches = (collision_free_threshold, cfl_threshold)
    values = {}
    try:
        for grid in (50_000, 100_000):
            monkeypatch.setattr(conditions, "_GRID", grid)
            for fn in caches:
                fn.cache_clear()
            values[grid] = [fn(fd) for fd in (_searched(G), _searched(T), KC) for fn in caches]
    finally:
        for fn in caches:
            fn.cache_clear()
    assert values[50_000] == pytest.approx(values[100_000], rel=1e-9)


def test_concavity_classification():
    assert check_concave(G)
    assert check_concave(T)
    assert not check_concave(KC)
    assert not check_concave(KernerFD(clamp_nonnegative=False))


def test_validate_step_sizes_greenshields():
    rep = validate_step_sizes(G, dn=1.0, dt=0.35)
    assert rep.collision_free_ok
    assert rep.cfl_ok
    assert rep.concave
    assert rep.collision_free_threshold == pytest.approx(20.0 / 7.0, rel=1e-9)

    rep = validate_step_sizes(G, dn=1.0, dt=0.4)
    assert not rep.collision_free_ok
    assert not rep.cfl_ok


def test_validate_exact_critical_rate():
    # dn/dt exactly at the threshold must count as satisfied
    thr = collision_free_threshold(G)
    rep = validate_step_sizes(G, dn=thr * 0.35, dt=0.35)
    assert rep.collision_free_ok


def test_validate_kerner_split():
    # rate 1.0 sits between the two sigmoid thresholds
    rep = validate_step_sizes(KC, dn=0.1, dt=0.1)
    assert rep.collision_free_ok
    assert not rep.cfl_ok
    assert not rep.concave


def test_validate_rejects_nonpositive():
    with pytest.raises(ValueError):
        validate_step_sizes(G, dn=0.0, dt=0.1)
    with pytest.raises(ValueError):
        validate_step_sizes(G, dn=1.0, dt=-0.1)


@pytest.mark.parametrize("dn, dt", [
    (np.inf, 1.0), (np.nan, 1.0), (1.0, np.inf), (1.0, np.nan),
])
def test_validate_rejects_nonfinite(dn, dt):
    # An infinite dn would otherwise read as an infinite rate that passes both checks.
    with pytest.raises(ValueError, match="dn and dt must be positive and finite"):
        validate_step_sizes(G, dn=dn, dt=dt)


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(lagwave.__file__)))
    code = "import sys, lagwave, lagwave.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "[]"


# -- the Brent polish against scipy's bounded minimiser ----------------


def _scipy_brent_max(f, a, b, xatol):
    """What the polish computed when it called scipy, for comparison."""
    from scipy.optimize import minimize_scalar

    res = minimize_scalar(lambda k: -f(k), bounds=(a, b), method="bounded", options={"xatol": xatol})
    return -float(res.fun)


def _thresholds_both_ways(fd):
    ours = (collision_free_threshold.__wrapped__(fd), cfl_threshold.__wrapped__(fd))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(conditions, "_brent_max", _scipy_brent_max)
        theirs = (collision_free_threshold.__wrapped__(fd), cfl_threshold.__wrapped__(fd))
    return ours, theirs


@pytest.mark.parametrize("name", sorted(TEMPLATES))
def test_polish_matches_scipy_on_templates(name):
    pytest.importorskip("scipy")
    fd = lagwave.load_spec(template_text(name)).scenario.fd
    if fd.critical_rate is not None:
        fd = _searched(fd)  # polish the kink and the boundary maximum, not the closed form
    ours, theirs = _thresholds_both_ways(fd)
    assert ours == theirs


@settings(max_examples=25, deadline=None)
@given(
    st.floats(20.0, 36.0), st.floats(3.0, 8.0), st.floats(0.1, 0.2), st.booleans(),
)
def test_polish_matches_scipy_on_kerner(unit_length, relax_time, K, clamp):
    pytest.importorskip("scipy")
    fd = KernerFD(unit_length=unit_length, relax_time=relax_time, K=K, clamp_nonnegative=clamp)
    ours, theirs = _thresholds_both_ways(fd)
    assert ours == theirs


@pytest.mark.parametrize("f, a, b", [
    # flat bracket: the congested plateau of the triangular CFL expression
    (lambda k: float(np.abs(T.eta_prime(k)) * k * k), 0.1, 0.13),
    # maximum on the right boundary: Greenshields' CFL expression
    (lambda k: float(np.abs(G.eta_prime(k)) * k * k), G.K * 0.99998, G.K),
    # maximum on the left boundary
    (lambda k: float(G.eta(k)), 0.0, G.K),
    # constant over the whole bracket
    (lambda k: 1.0, 0.0, 1.0),
])
def test_polish_matches_scipy_on_edge_brackets(f, a, b):
    pytest.importorskip("scipy")
    xatol = 1e-13 * (b - a)
    assert conditions._brent_max(f, a, b, xatol) == _scipy_brent_max(f, a, b, xatol)


# -- closed forms on the concave diagrams ------------------------------
#
# Both thresholds of a Greenshields diagram equal V*K and both of a
# triangular diagram W*K, the critical rate.  The diagrams declare it,
# and the suprema return it exactly, so that Newell's rate dn/dt = W*K
# passes both checks.  The draws use thresholds-grid's ranges.

_DRAWS = np.random.default_rng(14)
DRAWN_GREENSHIELDS = [
    GreenshieldsFD(V=float(_DRAWS.uniform(10.0, 35.0)), K=float(_DRAWS.uniform(0.1, 0.2))) for _ in range(50)
]
DRAWN_TRIANGULAR = [
    TriangularFD(V=float(_DRAWS.uniform(15.0, 35.0)), W=float(_DRAWS.uniform(3.0, 8.0)),
                 K=float(_DRAWS.uniform(0.1, 0.2)))
    for _ in range(50)
]


def test_critical_rate_is_declared_by_the_concave_laws_only():
    assert G.critical_rate == G.V * G.K
    assert T.critical_rate == T.W * T.K
    assert KC.critical_rate is None
    assert KernerFD(clamp_nonnegative=False).critical_rate is None
    # a property, not a field: no config key, so no pinned config.ini moves
    assert not [fd for fd in (G, T, KC) if "critical_rate" in {f.name for f in fields(fd)}]


@pytest.mark.parametrize("fd", DRAWN_GREENSHIELDS, ids=lambda fd: f"V={fd.V:.3f},K={fd.K:.4f}")
def test_greenshields_thresholds_are_exactly_v_k(fd):
    assert collision_free_threshold(fd) == cfl_threshold(fd) == fd.V * fd.K


@pytest.mark.parametrize("fd", DRAWN_TRIANGULAR, ids=lambda fd: f"V={fd.V:.3f},W={fd.W:.3f},K={fd.K:.4f}")
def test_triangular_thresholds_are_exactly_w_k(fd):
    assert collision_free_threshold(fd) == cfl_threshold(fd) == fd.W * fd.K


def test_newell_rate_passes_both_checks():
    rep = validate_step_sizes(T, dn=T.W * T.K, dt=1.0)
    assert rep.collision_free_ok
    assert rep.cfl_ok


@pytest.mark.parametrize("fd", [G, T, *DRAWN_GREENSHIELDS[:20], *DRAWN_TRIANGULAR[:20]], ids=repr)
def test_search_agrees_with_the_closed_form(fd):
    hidden = _searched(fd)
    assert hidden.critical_rate is None
    assert collision_free_threshold.__wrapped__(hidden) == pytest.approx(fd.critical_rate, rel=1e-10)
    assert cfl_threshold.__wrapped__(hidden) == pytest.approx(fd.critical_rate, rel=1e-10)


# -- the sigmoid law keeps every bit -----------------------------------


@pytest.mark.parametrize("fd, cf, cfl", [
    (KernerFD(), "0.8941502939567331", "1.6112019673575597"),
    (KernerFD(clamp_nonnegative=False), "0.8941502939567331", "1.6112019673575597"),
    # drawn from thresholds-grid's ranges
    (KernerFD(unit_length=35.07083671699118, relax_time=5.673820565786469, K=0.1815235051643931),
     "0.995298594601321", "1.793464772721374"),
], ids=["clamped", "unclamped", "drawn"])
def test_kerner_thresholds_keep_their_bits(fd, cf, cfl):
    assert repr(collision_free_threshold(fd)) == cf
    assert repr(cfl_threshold(fd)) == cfl
    assert repr(check_concave(fd)) == "False"


# 5e-320 / (_GRID - 1) underflows to zero, where np.linspace scales i / (_GRID - 1) instead.
@pytest.mark.parametrize("hi", [0.18, 0.18 * (1.0 - 1e-5), 1.0 / 7.0, 0.1234567, 0.2, 1e-3, 100.0, 5e-320])
def test_grid_points_are_linspace_bits(hi):
    # The search draws only the grid points it reads; each must be np.linspace's,
    # so a numpy whose linspace computes them otherwise fails here.
    i = np.arange(conditions._GRID)
    assert conditions._grid_points(hi, i).tobytes() == np.linspace(0.0, hi, conditions._GRID).tobytes()


# -- the coarse-first search keeps the full grid's bits ----------------
#
# The suprema find their grid maximum from a coarse pass and windows
# around its local maxima and both ends, and check_concave tests a
# coarse subset first.  The references here evaluate every grid point,
# as the definitions read, and must agree bit for bit.


def _full_grid_max(f, lo, hi, n):
    ks = np.linspace(lo, hi, n)
    vals = f(ks)
    i = int(np.argmax(vals))
    a, b = float(ks[max(i - 1, 0)]), float(ks[min(i + 1, n - 1)])
    polished = conditions._brent_max(lambda k: float(f(np.asarray(k))), a, b, 1e-13 * (hi - lo))
    return max(float(vals[i]), polished)


def _full_grid_reference(fd):
    K, n = fd.K, conditions._GRID
    cf = max(_full_grid_max(lambda k: k * fd._eta(k) / (1.0 - k / K), 0.0, K * (1.0 - 1.0 / n), n),
             float(-fd.eta_prime(K) * K * K))
    cfl = _full_grid_max(lambda k: np.abs(fd._eta_prime(k)) * k * k, 0.0, K, n)
    ks = np.linspace(0.0, K, 10_002)[1:-1]
    concave = bool(np.all(ks * fd._eta_second(ks) + 2.0 * fd._eta_prime(ks) <= 1e-9))
    return cf, cfl, concave


def _assert_full_grid_bits(fd):
    # sharp sigmoids overflow exp to inf, which the formulas take in their stride
    with np.errstate(over="ignore"):
        got = (collision_free_threshold.__wrapped__(fd), cfl_threshold.__wrapped__(fd), check_concave.__wrapped__(fd))
        want = _full_grid_reference(fd)
    # repr tells -0.0 from 0.0 and matches nan to nan
    assert [repr(v) for v in got] == [repr(v) for v in want]


def _log_uniform(lo, hi):
    return st.floats(np.log10(lo), np.log10(hi)).map(lambda e: float(10.0 ** e))


@settings(max_examples=150, deadline=None)
@given(
    unit_length=_log_uniform(1e-2, 1e3), relax_time=_log_uniform(1e-2, 1e3), K=_log_uniform(1e-3, 1e2),
    c1=_log_uniform(1e-2, 1e2), c2=st.floats(-2.0, 3.0), c3=_log_uniform(1e-6, 10.0),
    c4=st.one_of(st.floats(-1.0, 2.0), _log_uniform(1e-10, 1e-2)), clamp=st.booleans(),
)
def test_kerner_search_keeps_the_full_grid_bits(unit_length, relax_time, K, c1, c2, c3, c4, clamp):
    _assert_full_grid_bits(KernerFD(unit_length=unit_length, relax_time=relax_time, K=K, c1=c1, c2=c2, c3=c3, c4=c4,
                                    clamp_nonnegative=clamp))


# Sharp sigmoids whose convex stretch lies between check_concave's coarse points.
NARROW_KERNER = [KernerFD(c2=0.50005, c3=1e-4, clamp_nonnegative=clamp) for clamp in (True, False)]


@pytest.mark.parametrize("fd", [KC, KernerFD(clamp_nonnegative=False), *NARROW_KERNER, G, T,
                                *DRAWN_GREENSHIELDS, *DRAWN_TRIANGULAR], ids=repr)
def test_searched_diagrams_keep_the_full_grid_bits(fd):
    _assert_full_grid_bits(fd if isinstance(fd, KernerFD) else _searched(fd))


def test_full_grid_bits_hold_off_avx512():
    # numpy picks its SIMD loops per host; this child runs the two tests
    # above on the loops of a host without AVX-512.  The golden pins are
    # not run there: three of them hold on AVX-512 hosts alone.
    src = os.path.dirname(os.path.dirname(os.path.abspath(lagwave.__file__)))
    env = {
        **os.environ,
        "NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4",
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    }
    code = (
        "import sys, pytest\n"
        "try:\n"
        "    from numpy._core._multiarray_umath import __cpu_features__ as cpu\n"
        "except ImportError:  # numpy 1.x\n"
        "    from numpy.core._multiarray_umath import __cpu_features__ as cpu\n"
        "assert not any(cpu.get(f) for f in ('AVX512_SPR', 'AVX512_ICL', 'X86_V4')), cpu\n"
        "sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', sys.argv[1], '-k', 'keep_the_full_grid_bits']))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, __file__], capture_output=True, text=True, env=env)
    output = proc.stdout + proc.stderr
    if "part of the baseline" in output:
        pytest.skip("this numpy build has AVX-512 in its baseline")
    assert proc.returncode == 0, output  # 0 also means tests were collected and ran


# -- concavity of the closed-form laws ---------------------------------
#
# A law with a critical_rate is concave by construction.  The numerical
# test of k*eta'' + 2*eta' <= 1e-9 misreads some of them: on the
# triangular congested branch the two terms cancel exactly, and their
# rounding error can exceed the absolute slack.


@settings(max_examples=100, deadline=None)
@given(V=_log_uniform(0.1, 316.0), W=_log_uniform(0.1, 316.0), K=_log_uniform(1e-6, 1e3), triangular=st.booleans())
@example(V=100.0, W=1.0, K=1e-3, triangular=True)
def test_closed_form_laws_are_concave(V, W, K, triangular):
    fd = TriangularFD(V=V, W=W, K=K) if triangular else GreenshieldsFD(V=V, K=K)
    assert check_concave(fd)
    k1, k2 = 0.25 * fd.K, 0.5 * fd.K
    wave = riemann_wave(fd, k1, k2)
    assert (wave.kind, wave.speed) == ("shock", shock_speed_rh(fd, k1, k2))


class _NoSecondDerivative(TriangularFD):
    def _eta_second(self, k):
        raise AssertionError("a closed-form law needs no numerical concavity test")


def test_closed_form_concavity_builds_no_grid():
    assert check_concave.__wrapped__(_NoSecondDerivative())
