"""Diagnostics, wave-speed measurement, string stability, and the
linearized growth-rate analyzers."""
import gc
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest

import lagwave.analysis
from lagwave.analysis import (
    COLLISION_TOL,
    NEGATIVE_SPEED_TOL,
    ExperimentInvalid,
    MeasurementError,
    _crossings,
    _displayed_slots,
    diagnose,
    diffusion_coefficient,
    eulerian_dispersion_roots,
    measure_front_speed,
    measure_startup_wave,
    measure_wave,
    string_stability_experiment,
    sweep_dn,
)
from lagwave.cli import load_spec
from lagwave.engine import Corrected1, NonstandardLWR, PhillipsRelax, Scenario, Scheme, Trajectory, simulate
from lagwave.fundamental import GreenshieldsFD, KernerFD, TriangularFD
from lagwave.riemann import synthetic_shock_trajectory
from lagwave.templates import TEMPLATES, template_text

G = GreenshieldsFD()
T = TriangularFD()


class FakeTrajectory:
    """Minimal stand-in so diagnostics can be checked on hand arrays."""

    def __init__(self, positions, speeds, dt, fd):
        self.positions = np.asarray(positions, dtype=float)
        self.speeds = np.asarray(speeds, dtype=float)
        j = self.positions.shape[0]
        self.times = dt * np.arange(j)
        self.accelerations = np.diff(self.speeds, axis=0) / dt
        self.dn = 1.0
        self.scenario = Scenario(fd=fd, k1=fd.K / 2.0, lead_speed=0.0, m=1,
                                 dn=1.0, dt=dt, duration=dt * (j - 1))

    def spacings(self):
        return self.positions[:, :-1] - self.positions[:, 1:]


def test_diagnose_hand_trajectory():
    positions = [[0.0, -8.0], [0.0, -6.0], [0.0, -7.5]]
    speeds = [[0.0, 2.0], [0.0, -1.5], [0.0, 0.5]]
    traj = FakeTrajectory(positions, speeds, dt=1.0, fd=G)
    rep = diagnose(traj)
    # gap dips to 6 at step 1, vehicle index 1
    assert np.array_equal(rep.collision_events, [[1, 1]])
    assert rep.collision_count == 1
    assert np.array_equal(rep.negative_speed_events, [[1, 1]])
    assert rep.negative_speed_count == 1
    assert rep.min_spacing == 6.0
    assert rep.max_abs_acceleration == pytest.approx(3.5)
    assert not rep.clean


def test_diagnose_clean_run():
    sc = Scenario(fd=G, k1=G.K / 4.0, lead_speed=7.5, m=5, dn=0.5, dt=0.175,
                  duration=7.0)
    rep = diagnose(simulate(sc))
    assert rep.clean
    assert rep.collision_events.shape == (0, 2)
    assert rep.min_spacing > G.S


@pytest.mark.parametrize("block", [2, 4])
def test_diagnose_hand_trajectory_in_row_blocks(block, monkeypatch):
    # one and two rows per block: the hand stand-in serves the blocked audit too
    monkeypatch.setattr(lagwave.analysis, "_AUDIT_BLOCK", block)
    positions = [[0.0, -8.0], [0.0, -6.0], [0.0, -7.5]]
    speeds = [[0.0, 2.0], [0.0, -1.5], [0.0, np.nan]]
    rep = diagnose(FakeTrajectory(positions, speeds, dt=1.0, fd=G))
    assert np.array_equal(rep.collision_events, [[1, 1]])
    assert np.array_equal(rep.negative_speed_events, [[1, 1]])
    assert rep.min_spacing == 6.0
    assert math.isnan(rep.max_abs_acceleration)
    assert rep.nonfinite_count == 1


@pytest.mark.parametrize("positions, speeds, count", [
    ([[0.0, -8.0], [0.0, np.nan]], [[0.0, 2.0], [0.0, np.nan]], 2),
    ([[0.0, -8.0], [0.0, -8.0]], [[0.0, 2.0], [0.0, np.inf]], 1),
    ([[0.0, -8.0], [np.inf, -8.0]], [[0.0, 2.0], [0.0, 2.0]], 1),
])
def test_diagnose_nonfinite_trajectory_is_not_clean(positions, speeds, count):
    # no comparison sees a NaN or an infinity as an event, so the audit
    # must count the non-finite values itself
    rep = diagnose(FakeTrajectory(positions, speeds, dt=1.0, fd=G))
    assert rep.collision_count == 0
    assert rep.negative_speed_count == 0
    assert rep.nonfinite_count == count
    assert not rep.clean


def test_trajectory_requires_its_scenario():
    arrays = dict(times=np.arange(3.0), positions=np.array([[0.0, -8.0], [0.0, -6.0], [0.0, -7.5]]),
                  speeds=np.array([[0.0, 2.0], [0.0, -1.5], [0.0, 0.5]]))
    with pytest.raises(TypeError):
        Trajectory(**arrays)
    sc = Scenario(fd=G, k1=G.K / 2.0, lead_speed=0.0, m=1, dn=1.0, dt=1.0, duration=2.0)
    rep = diagnose(Trajectory(**arrays, scenario=sc))
    assert np.array_equal(rep.collision_events, [[1, 1]])
    assert rep.max_abs_acceleration == 3.5


def _reference_events(trajectory, fd):
    """The audit's events as (j, m) tuples, built one by one: the loop
    that ``diagnose`` replaced, kept as its reference."""
    s = trajectory.spacings()
    collisions = [
        (int(j), int(m) + 1) for j, m in zip(*np.nonzero(s < fd.S - COLLISION_TOL))
    ]
    negatives = [
        (int(j), int(m)) for j, m in zip(*np.nonzero(trajectory.speeds < -NEGATIVE_SPEED_TOL))
    ]
    return collisions, negatives


def _reference_crossings(trajectory, level, rising):
    """The per-vehicle loop that ``_crossings`` replaced, kept as its reference."""
    times = trajectory.times
    ts, xs = [], []
    for m in range(1, trajectory.speeds.shape[1]):
        v = trajectory.speeds[:, m]
        past = v >= level if rising else v <= level
        if past[0]:
            continue
        hits = np.nonzero(past)[0]
        if hits.size == 0:
            continue
        j = int(hits[0])
        if v[j] == level:
            ts.append(float(times[j]))
            xs.append(float(trajectory.positions[j, m]))
        else:
            frac = (level - v[j - 1]) / (v[j] - v[j - 1])
            ts.append(float(times[j - 1] + frac * (times[j] - times[j - 1])))
            xs.append(float(
                trajectory.positions[j - 1, m]
                + frac * (trajectory.positions[j, m] - trajectory.positions[j - 1, m])
            ))
    return np.asarray(ts), np.asarray(xs)


_SYNTHETIC_SHOCKS = {
    "greenshields": (G, G.K / 4.0, 0.625 * G.K, 20, 0.5, 40.0, 0.2),
    "triangular-congested": (T, 0.4 * T.K, 0.8 * T.K, 15, 1.0, 60.0, 0.25),
    "greenshields-short": (G, G.K / 4.0, 0.625 * G.K, 5, 1.0, 1.0, 0.1),
    "greenshields-fine": (G, G.K / 8.0, 0.5 * G.K, 40, 0.25, 40.0, 0.05),
}


def _reference_cases():
    """Every run template, every scheme on the shock templates, a
    leader-only platoon and the synthetic shocks."""
    cases = []
    for name in sorted(TEMPLATES):
        spec = load_spec(template_text(name))
        if spec.stability is None:
            schemes = list(Scheme) if "shock" in name else [spec.scheme]
            cases += [f"{name}:{scheme.value}" for scheme in schemes]
    return cases + ["greenshields-shock-a:m=0"] + [f"synthetic:{k}" for k in _SYNTHETIC_SHOCKS]


def _reference_trajectory(case):
    source, variant = case.split(":")
    if source == "synthetic":
        fd, k1, k2, m, dn, duration, dt = _SYNTHETIC_SHOCKS[variant]
        return synthetic_shock_trajectory(fd, k1, k2, m=m, dn=dn, duration=duration, dt=dt)
    spec = load_spec(template_text(source))
    if variant == "m=0":
        return simulate(replace(spec.scenario, m=0), model=spec.model, scheme=spec.scheme)
    # the shock templates use the equilibrium model, which every scheme supports
    return simulate(spec.scenario, model=spec.model, scheme=Scheme(variant))


@pytest.mark.parametrize("case", _reference_cases())
def test_audit_and_crossings_match_reference_loops(case):
    traj = _reference_trajectory(case)
    sc = traj.scenario
    rep = diagnose(traj)
    collisions, negatives = _reference_events(traj, sc.fd)
    assert rep.collision_events.shape == (len(collisions), 2)
    assert rep.negative_speed_events.shape == (len(negatives), 2)
    assert list(map(tuple, rep.collision_events.tolist())) == collisions
    assert list(map(tuple, rep.negative_speed_events.tolist())) == negatives
    # perfbench hashes the counts' repr, which an np.int64 would change
    assert type(rep.collision_count) is int and type(rep.negative_speed_count) is int

    v = traj.speeds
    v1 = sc.fd.eta(sc.k1) if sc.initial_speed is None else sc.initial_speed
    # the two measurements' levels, the extremes, and speeds the last
    # follower takes, so that some crossings land exactly on a sample
    levels = [0.5 * (v1 + sc.lead_speed), 1e-3 * sc.fd.V, v.min(), v.max()]
    levels += list(v[[len(v) // 3, 2 * len(v) // 3], -1])
    for level in levels:
        for rising in (True, False):
            got = _crossings(traj, level, rising)
            want = _reference_crossings(traj, level, rising)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _reference_measurement(trajectory):
    """The wave choice the command line made before ``measure_wave``,
    kept as its reference."""
    sc = trajectory.scenario
    v1 = sc.initial_speed if sc.initial_speed is not None else sc.fd.eta(sc.k1)
    v2 = sc.lead_speed
    try:
        if v1 < 1e-3 * sc.fd.V:
            meas = measure_startup_wave(trajectory)
        elif abs(v1 - v2) > 1e-9:
            meas = measure_front_speed(trajectory, v1, v2)
        else:
            return math.nan, math.nan
        return meas.speed, meas.r_squared
    except MeasurementError:
        return math.nan, math.nan


@pytest.mark.parametrize("case", _reference_cases() + ["uniform"])
def test_measure_wave_matches_reference(case):
    if case == "uniform":
        traj = simulate(Scenario(fd=G, k1=G.K / 4.0, lead_speed=G.eta(G.K / 4.0), m=5, dn=1.0, dt=0.35,
                                 duration=7.0))
    else:
        traj = _reference_trajectory(case)
    got, want = measure_wave(traj), _reference_measurement(traj)
    for a, b in zip(got, want):
        assert a == b or (math.isnan(a) and math.isnan(b))
    if case == "uniform":
        assert all(math.isnan(x) for x in got)


@pytest.mark.parametrize("dn, m, slots", [
    (2.5, 4, {2: 1, 3: 1, 4: 2, 5: 2}),  # vehicle 1 rounds to the leader's slot
    (1.0 / 16.0, 160, {n: 16 * n for n in range(1, 6)}),
    (0.1, 5, {}),  # kerner-redlight: no whole vehicle among 5 slots of 0.1
])
def test_displayed_slots(dn, m, slots):
    assert _displayed_slots(dn, m, 5) == slots


def test_sweep_dn_keeps_no_earlier_trajectory():
    sc = Scenario(fd=G, k1=G.K, lead_speed=G.V, m=4, dn=1.0, dt=0.35, duration=3.0)
    dns = (1.0, 0.5, 0.25, 0.125)
    kept = []
    for traj, row in sweep_dn(sc, dns, vehicles=4, dt_ratio=0.35):
        assert row.dn == traj.scenario.dn and traj.scenario.m == round(4 / row.dn)
        kept.append(weakref.ref(traj.positions))
        del traj
        gc.collect()
        assert [ref() is None for ref in kept] == [True] * (len(kept) - 1) + [False]
    assert len(kept) == len(dns)


@pytest.mark.parametrize("dn", [1e-320, 0.0, math.nan])
def test_sweep_dn_refuses_a_dn_without_a_slot_count(dn):
    # These raised OverflowError, ZeroDivisionError and "cannot convert
    # float NaN to integer" from round(vehicles / dn).
    sc = Scenario(fd=G, k1=G.K, lead_speed=G.V, m=4, dn=1.0, dt=0.35, duration=3.0)
    with pytest.raises(ValueError, match="dn"):
        next(sweep_dn(sc, (dn,), vehicles=4, dt_ratio=0.35))


def test_measure_front_speed_rejects_equal_levels():
    sc = Scenario(fd=G, k1=G.K / 4.0, lead_speed=7.5, m=5, dn=0.5, dt=0.175,
                  duration=7.0)
    traj = simulate(sc)
    with pytest.raises(ValueError):
        measure_front_speed(traj, 7.5, 7.5)


def test_measure_front_speed_needs_three_crossings():
    sc = Scenario(fd=G, k1=G.K / 4.0, lead_speed=7.5, m=2, dn=0.5, dt=0.175,
                  duration=7.0)
    traj = simulate(sc)
    with pytest.raises(MeasurementError):
        measure_front_speed(traj, 15.0, 7.5)


def test_measure_front_speed_known_shock():
    # greenshields K/4 -> 0.625 K has exact front speed 2.5 by mass balance
    sc = Scenario(fd=G, k1=G.K / 4.0, lead_speed=7.5, m=10, dn=1.0 / 16.0,
                  dt=0.35 / 16.0, duration=26.0)
    traj = simulate(sc)
    meas = measure_front_speed(traj, 15.0, 7.5)
    assert meas.speed == pytest.approx(2.5, rel=0.05)
    assert meas.r_squared > 0.999
    assert len(meas.crossing_times) >= 3


def test_measure_startup_wave_rejects_moving_platoon():
    sc = Scenario(fd=G, k1=G.K / 4.0, lead_speed=15.0, m=5, dn=0.5, dt=0.175,
                  duration=7.0)
    traj = simulate(sc)
    # every vehicle already moves faster than the threshold at t = 0
    with pytest.raises(MeasurementError):
        measure_startup_wave(traj)


def test_measure_startup_wave_discharge():
    sc = Scenario(fd=T, k1=T.K, lead_speed=20.0, m=240, dn=1.0 / 16.0,
                  dt=1.2 / 16.0, duration=30.0)
    traj = simulate(sc)
    meas = measure_startup_wave(traj)
    # jammed queue releases near the congested wave speed -W; this short
    # platoon is still converging (the long run lands within 5 percent)
    assert meas.speed == pytest.approx(-5.0, rel=0.10)
    assert meas.r_squared > 0.999
    assert len(meas.crossing_times) == 240


def test_string_stability_frozen_values():
    res = string_stability_experiment(G, PhillipsRelax(T=5.0), s0=14.0,
                                      amplitude=0.02, omega=0.1)
    assert res.amplification_ratio == pytest.approx(1.060541287216701, rel=1e-4)
    assert res.predicted_ratio == pytest.approx(math.exp(0.07), rel=1e-12)

    res = string_stability_experiment(G, NonstandardLWR(), s0=14.0,
                                      amplitude=0.02, omega=0.1)
    assert res.amplification_ratio == pytest.approx(0.9927307136224206, rel=1e-4)


def test_string_stability_step_refinement():
    # halving dt moves the measured ratio by well under 2 percent
    res = string_stability_experiment(G, PhillipsRelax(T=5.0), s0=14.0,
                                      amplitude=0.02, omega=0.1, dt=0.175)
    assert res.amplification_ratio == pytest.approx(1.0621812, rel=1e-4)


def test_string_stability_zero_amplitude():
    res = string_stability_experiment(G, NonstandardLWR(), s0=14.0,
                                      amplitude=0.0, omega=0.1)
    assert res.amplification_ratio == 1.0


def test_string_stability_validation():
    with pytest.raises(ValueError):
        # equilibrium speed is 10; forcing amplitude may not exceed it
        string_stability_experiment(G, NonstandardLWR(), s0=14.0,
                                    amplitude=11.0, omega=0.1)
    with pytest.raises(ValueError):
        string_stability_experiment(G, NonstandardLWR(), s0=14.0,
                                    amplitude=0.02, omega=0.1, m=1)
    with pytest.raises(ValueError, match="amplitude must be nonnegative"):
        string_stability_experiment(G, NonstandardLWR(), s0=14.0,
                                    amplitude=-0.02, omega=0.1)


def test_string_stability_needs_every_follower_to_oscillate():
    # Three steps move only the first followers; the rest stay in equilibrium.
    with pytest.raises(ExperimentInvalid, match="no oscillation"):
        string_stability_experiment(G, NonstandardLWR(), s0=14.0,
                                    amplitude=0.02, omega=0.1, duration=1.05)


def test_string_stability_corrected_model_uses_inner_relaxation_time():
    inner = PhillipsRelax(T=5.0)
    res = string_stability_experiment(G, Corrected1(inner), s0=14.0,
                                      amplitude=0.02, omega=0.1)
    assert res.predicted_ratio == string_stability_experiment(
        G, inner, s0=14.0, amplitude=0.02, omega=0.1).predicted_ratio
    assert res.predicted_ratio == pytest.approx(math.exp(0.07), rel=1e-12)


def test_string_stability_collision_invalidates():
    with pytest.raises(ExperimentInvalid):
        string_stability_experiment(G, PhillipsRelax(T=5.0), s0=8.0,
                                    amplitude=1.0, omega=0.5, m=5, dn=1.0,
                                    dt=3.0, duration=90.0)


def test_dispersion_roots_hand_values():
    # greenshields at K/2, T = 5, wavenumber 0.1; quadratic solved by hand
    r1, r2 = eulerian_dispersion_roots(G, G.K / 2.0, 5.0, 0.1)
    roots = sorted((r1, r2), key=lambda z: z.real)
    assert roots[0] == pytest.approx(-1.3083 + 0.2240j, abs=2e-3)
    assert roots[1] == pytest.approx(-0.6917 - 0.4240j, abs=2e-3)
    assert max(r1.imag, r2.imag) > 0.2


def test_dispersion_rejects_bad_relaxation():
    with pytest.raises(ValueError):
        eulerian_dispersion_roots(G, G.K / 2.0, 0.0, 0.1)


def test_diffusion_coefficient_values():
    # -T (k eta')^2 with k eta' = -10 at K/2: -5 * 100 = -500
    assert diffusion_coefficient(G, G.K / 2.0, 5.0) == pytest.approx(-500.0, rel=1e-12)
    # free branch of the triangular diagram is flat, so zero
    assert diffusion_coefficient(T, T.K / 100.0, 5.0) == 0.0
    with pytest.raises(ValueError):
        diffusion_coefficient(G, G.K / 2.0, -1.0)


def test_diffusion_never_positive():
    rng = np.random.default_rng(7)
    for fd in (G, T, KernerFD()):
        for _ in range(50):
            k = rng.uniform(0.01, 0.99) * fd.K
            t_rel = rng.uniform(0.5, 10.0)
            assert diffusion_coefficient(fd, k, t_rel) <= 0.0
