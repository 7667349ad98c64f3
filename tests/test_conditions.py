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

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lagwave
from lagwave import conditions
from lagwave.conditions import (
    cfl_threshold,
    check_concave,
    collision_free_threshold,
    validate_step_sizes,
)
from lagwave.fundamental import GreenshieldsFD, KernerFD, TriangularFD
from lagwave.templates import TEMPLATES, template_text

G = GreenshieldsFD()
T = TriangularFD()
KC = KernerFD()


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
            values[grid] = [fn(fd) for fd in (G, T, KC) for fn in caches]
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
