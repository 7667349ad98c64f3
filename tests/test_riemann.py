"""Exact wave solutions and the synthetic-trajectory generator used to
close the loop on the wave-speed measurement code."""
import numpy as np
import pytest

from lagwave.fundamental import GreenshieldsFD, TriangularFD
from lagwave.riemann import (
    riemann_wave,
    shock_speed_rh,
    synthetic_shock_trajectory,
)
from lagwave.analysis import measure_front_speed

G = GreenshieldsFD()
T = TriangularFD()


def test_shock_speed_hand_values():
    # greenshields K/4 -> 0.625 K: (phi2 - phi1)/(k2 - k1) = 2.5 by hand
    assert shock_speed_rh(G, G.K / 4.0, 0.625 * G.K) == pytest.approx(2.5, rel=1e-12)
    # triangular K/10 -> 0.4 K crosses the kink: speed 10/3
    assert shock_speed_rh(T, T.K / 10.0, 0.4 * T.K) == pytest.approx(10.0 / 3.0,
                                                                     rel=1e-12)


def test_wave_uniform():
    w = riemann_wave(G, 0.05, 0.05)
    assert w.kind == "uniform"
    assert w.speed is None


def test_wave_shock():
    w = riemann_wave(G, G.K / 4.0, 0.625 * G.K)
    assert w.kind == "shock"
    assert w.speed == pytest.approx(shock_speed_rh(G, G.K / 4.0, 0.625 * G.K))


def test_wave_rarefaction_full_range():
    w = riemann_wave(G, G.K, 0.0)
    assert w.kind == "rarefaction"
    assert w.lo == pytest.approx(-20.0, rel=1e-12)
    assert w.hi == pytest.approx(20.0, rel=1e-12)


def test_wave_triangular_jam_release_is_shock():
    # kinked diagram: the jam-to-empty transition stays a sharp front
    w = riemann_wave(T, T.K, 0.0)
    assert w.kind == "shock"
    assert w.speed == pytest.approx(-5.0, rel=1e-12)


def test_wave_triangular_rarefaction():
    w = riemann_wave(T, 0.4 * T.K, T.K / 10.0)
    assert w.kind == "rarefaction"
    assert w.lo == pytest.approx(-5.0, rel=1e-12)
    assert w.hi == pytest.approx(20.0, rel=1e-12)


def test_shock_and_rarefaction_exclusive():
    # for distinct interior densities exactly one ordering gives a shock
    rng = np.random.default_rng(3)
    for fd in (G, T):
        for _ in range(200):
            a, b = rng.uniform(0.01, 0.99, size=2) * fd.K
            if abs(a - b) < 1e-6:
                continue
            kinds = {riemann_wave(fd, a, b).kind, riemann_wave(fd, b, a).kind}
            assert kinds == {"shock", "rarefaction"}


def test_synthetic_recovery_greenshields():
    k1, k2 = G.K / 4.0, 0.625 * G.K
    traj = synthetic_shock_trajectory(G, k1, k2, m=20, dn=0.5, duration=40.0,
                                      dt=0.2)
    meas = measure_front_speed(traj, G.eta(k1), G.eta(k2))
    sigma = shock_speed_rh(G, k1, k2)
    assert abs(meas.speed - sigma) <= 1e-9
    assert meas.r_squared > 1.0 - 1e-12


def test_synthetic_recovery_triangular_congested():
    # both densities congested: sigma = -W exactly
    k1, k2 = 0.4 * T.K, 0.8 * T.K
    traj = synthetic_shock_trajectory(T, k1, k2, m=15, dn=1.0, duration=60.0,
                                      dt=0.25)
    meas = measure_front_speed(traj, T.eta(k1), T.eta(k2))
    assert abs(meas.speed - (-5.0)) <= 1e-9


def test_synthetic_kink_on_shock_line():
    k1, k2 = G.K / 4.0, 0.625 * G.K
    sigma = shock_speed_rh(G, k1, k2)
    traj = synthetic_shock_trajectory(G, k1, k2, m=10, dn=0.5, duration=40.0,
                                      dt=0.2)
    v1 = G.eta(k1)
    # vehicle i crosses the shock when its fast branch meets x = sigma t
    for i in range(1, 6):
        x0 = traj.positions[0, i]
        t_kink = x0 / (sigma - v1)
        j = np.argmin(np.abs(traj.times - t_kink))
        assert traj.positions[j, i] == pytest.approx(sigma * traj.times[j],
                                                     abs=1e-9)


def test_synthetic_short_run_never_switches():
    # duration shorter than the first crossing keeps every follower fast
    k1, k2 = G.K / 4.0, 0.625 * G.K
    traj = synthetic_shock_trajectory(G, k1, k2, m=5, dn=1.0, duration=1.0,
                                      dt=0.1)
    assert np.all(traj.speeds[:, 1:] == G.eta(k1))


def _reference_synthetic(fd, k1, k2, m, dn, duration, dt):
    """The per-vehicle loop that ``synthetic_shock_trajectory`` replaced,
    kept as its reference: (times, positions, speeds)."""
    v1, v2 = fd.eta(k1), fd.eta(k2)
    sigma = shock_speed_rh(fd, k1, k2)
    s1 = dn / k1
    L = max(1, round(s1 / (v1 - sigma) / dt))
    dt_snapped = s1 / (v1 - sigma) / L
    J = max(int(np.ceil(duration / dt_snapped - 1e-9)), 0)
    times = np.arange(J + 1) * dt_snapped
    positions = np.empty((J + 1, m + 1))
    speeds = np.empty((J + 1, m + 1))
    for i in range(m + 1):
        j_kink = i * L
        t_kink = j_kink * dt_snapped
        x0 = -i * s1
        positions[:, i] = np.where(
            times <= t_kink, x0 + v1 * times, (x0 + v1 * t_kink) + v2 * (times - t_kink)
        )
        speeds[:, i] = np.where(np.arange(J + 1) < j_kink, v1, v2)
    return times, positions, speeds


@pytest.mark.parametrize("fd, k1, k2", [
    (G, G.K / 4.0, 0.625 * G.K), (G, G.K / 8.0, 0.875 * G.K),
    (T, T.K / 10.0, 0.4 * T.K), (T, 0.4 * T.K, 0.8 * T.K),
])
@pytest.mark.parametrize("m", [0, 1, 7, 40])
@pytest.mark.parametrize("dn, duration, dt", [(1.0, 40.0, 0.2), (0.25, 7.0, 0.05), (0.5, 0.0, 0.1)])
def test_synthetic_matches_reference_loop(fd, k1, k2, m, dn, duration, dt):
    traj = synthetic_shock_trajectory(fd, k1, k2, m=m, dn=dn, duration=duration, dt=dt)
    for got, want in zip((traj.times, traj.positions, traj.speeds),
                         _reference_synthetic(fd, k1, k2, m, dn, duration, dt)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_lax_entropy_on_random_shocks():
    rng = np.random.default_rng(11)
    for fd in (G, T):
        count = 0
        while count < 300:
            a, b = np.sort(rng.uniform(0.01, 0.99, size=2) * fd.K)
            if b - a < 1e-6:
                continue
            count += 1
            sigma = shock_speed_rh(fd, a, b)
            assert fd.phi_prime(a) >= sigma - 1e-9
            assert sigma >= fd.phi_prime(b) - 1e-9
