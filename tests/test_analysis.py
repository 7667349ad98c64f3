"""Diagnostics, wave-speed measurement, string stability, and the
linearized growth-rate analyzers."""
import gc
import math
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest

import lagwave.analysis
import reference
from lagwave.analysis import (
    MeasurementError,
    _Crossings,
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
from lagwave.engine import (
    JWZ,
    Corrected1,
    Corrected2,
    NonstandardLWR,
    PhillipsRelax,
    Scenario,
    Trajectory,
    _relaxation_time,
    simulate,
)
from lagwave.fundamental import GreenshieldsFD, KernerFD, TriangularFD
from lagwave.templates import template_text
from reference import CASES, assert_same_report, case_trajectory

G = GreenshieldsFD()
T = TriangularFD()


def test_diagnose_hand_trajectory():
    positions = [[0.0, -8.0], [0.0, -6.0], [0.0, -7.5]]
    speeds = [[0.0, 2.0], [0.0, -1.5], [0.0, 0.5]]
    traj = reference.trajectory(positions, speeds)
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
    # one and two rows per block of a hand-made record
    monkeypatch.setattr(lagwave.analysis, "_AUDIT_BLOCK", block)
    positions = [[0.0, -8.0], [0.0, -6.0], [0.0, -7.5]]
    speeds = [[0.0, 2.0], [0.0, -1.5], [0.0, np.nan]]
    rep = diagnose(reference.trajectory(positions, speeds))
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
    rep = diagnose(reference.trajectory(positions, speeds))
    assert rep.collision_count == 0
    assert rep.negative_speed_count == 0
    assert rep.nonfinite_count == count
    assert not rep.clean


@pytest.mark.parametrize("positions, speeds, nan_field", [
    ([[0.0, -8.0, -16.0], [np.inf, np.inf, -16.0]], [[0.0, 2.0, 2.0], [0.0, 2.0, 2.0]], "min_spacing"),
    ([[0.0, -8.0], [0.0, -8.0], [0.0, -8.0]], [[0.0, 2.0], [0.0, np.inf], [0.0, np.inf]], "max_abs_acceleration"),
], ids=["two adjacent infinite positions", "an infinite speed held over a step"])
def test_diagnose_counts_infinities_without_a_warning(positions, speeds, nan_field):
    # inf - inf is a NaN spacing or acceleration, which numpy warns of; the
    # audit counts the infinities themselves, and its NaN search still runs.
    traj = reference.trajectory(positions, speeds)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = diagnose(traj)
    assert rep.nonfinite_count == 2 and not rep.clean
    assert rep.collision_count == 0 and rep.negative_speed_count == 0
    assert math.isnan(getattr(rep, nan_field))


def test_diagnose_reads_the_diagram_of_the_trajectory_scenario():
    arrays = dict(times=np.arange(3.0), positions=np.array([[0.0, -8.0], [0.0, -6.0], [0.0, -7.5]]),
                  speeds=np.array([[0.0, 2.0], [0.0, -1.5], [0.0, 0.5]]))
    sc = Scenario(fd=G, k1=G.K / 2.0, lead_speed=0.0, m=1, dn=1.0, dt=1.0, duration=2.0)
    rep = diagnose(Trajectory(**arrays, scenario=sc))
    assert np.array_equal(rep.collision_events, [[1, 1]])
    assert rep.max_abs_acceleration == 3.5


@pytest.mark.parametrize("case", CASES)
def test_audit_and_crossings_match_reference_loops(case):
    traj = case_trajectory(case)
    sc = traj.scenario
    rep = diagnose(traj)
    assert_same_report(rep, reference.diagnose(traj))
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
            crossings = _Crossings(level, rising)
            crossings.add(traj.times, traj.positions, traj.speeds)
            got = crossings.points()
            want = reference.crossings(traj, level, rising)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("case", CASES + ["uniform"])
def test_measure_wave_matches_reference(case):
    if case == "uniform":
        traj = simulate(Scenario(fd=G, k1=G.K / 4.0, lead_speed=G.eta(G.K / 4.0), m=5, dn=1.0, dt=0.35,
                                 duration=7.0))
    else:
        traj = case_trajectory(case)
    got, want = measure_wave(traj), reference.wave(traj)
    for a, b in zip(got, want):
        assert a == b or (math.isnan(a) and math.isnan(b))
    if case == "uniform":
        assert all(math.isnan(x) for x in got)


def test_measure_wave_reads_the_record():
    # With k1 halved the scenario's rule gave a front between eta(K/2) and
    # the leader's speed (9.97, 0.999998) on a record released from rest.
    traj = simulate(load_spec(template_text("greenshields-discharge")).scenario)
    copy = Trajectory(traj.times, traj.positions, traj.speeds, replace(traj.scenario, k1=traj.scenario.k1 / 2.0))
    got = measure_wave(copy)
    assert got == measure_wave(traj)
    assert got[0] == pytest.approx(-19.98, abs=0.01) and got[1] == pytest.approx(1.0)


@pytest.mark.parametrize("dn, m, slots", [
    (2.5, 4, {2: 1, 3: 1, 4: 2, 5: 2}),  # vehicle 1 rounds to the leader's slot
    (1.0 / 16.0, 160, {n: 16 * n for n in range(1, 6)}),
    (0.1, 5, {}),  # kerner-redlight: no whole vehicle among 5 slots of 0.1
])
def test_displayed_slots(dn, m, slots):
    assert _displayed_slots(dn, m, 5) == slots


@pytest.mark.parametrize("dn", [0.1, 1.0 / 3.0, 0.0625, 0.5, 0.7, 1.0, 1.5, 2.5, 3.0])
@pytest.mark.parametrize("m", [0, 1, 2, 5, 17, 160])
def test_displayed_slots_bound_changes_nothing(dn, m):
    for count in (1, 2, 5, 10, 40, 400):
        assert _displayed_slots(dn, m, count) == reference.displayed_slots(dn, m, count)


def test_displayed_slots_of_a_huge_count_stop_at_the_slots():
    # The dict over range(1, count + 1) grew at ~2.7 million entries a second.
    assert _displayed_slots(0.5, 20, 10**12) == reference.displayed_slots(0.5, 20, 50)


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


def test_sweep_dn_of_no_steps_has_no_peak_acceleration():
    # The peak |a| over a record of no steps raised numpy's "zero-size array to reduction operation".
    sc = Scenario(fd=G, k1=G.K, lead_speed=G.V, m=4, dn=1.0, dt=0.35, duration=0.0)
    rows = [row for _, row in sweep_dn(sc, (1.0, 0.5), vehicles=4, dt_ratio=0.35)]
    assert [math.isnan(row.max_abs_accel) for row in rows] == [True, True]


@pytest.mark.parametrize("dns", [(1.0, 10.0), (10.0, 1.0)], ids=["1,10", "10,1"])
def test_sweep_dn_difference_without_a_shared_vehicle_is_nan(dns):
    # At dn = 10 the run has m = 0 and displays no vehicle; its difference read 0.0.
    sc = Scenario(fd=G, k1=G.K / 4.0, lead_speed=7.5, m=4, dn=1.0, dt=0.35, duration=5.0)
    rows = [row for _, row in sweep_dn(sc, dns, vehicles=4, dt_ratio=0.35)]
    assert [math.isnan(row.traj_diff_prev) for row in rows] == [True, True]


@pytest.mark.parametrize("slots", [slice(2, 9), slice(2, 3)], ids=["every-displayed", "vehicle-1"])
def test_sweep_dn_difference_keeps_a_nan(slots, monkeypatch):
    # The dn = 0.5 run's positions are NaN from row 3 on in ``slots``.  Python's
    # max(diff, nan) keeps diff, so the difference read 0.0 with every displayed
    # slot NaN, and the clean run's 2.015345973773745 with vehicle 1's alone.
    sc = Scenario(fd=G, k1=G.K / 4.0, lead_speed=7.5, m=4, dn=1.0, dt=0.35, duration=5.0)

    def simulate_with_nans(scenario, **kwargs):
        traj = simulate(scenario, **kwargs)
        if scenario.dn == 0.5:
            traj.positions[3:, slots] = np.nan
        return traj

    clean = [row for _, row in sweep_dn(sc, (1.0, 0.5), vehicles=4, dt_ratio=0.35)]
    assert clean[1].traj_diff_prev == 2.015345973773745
    monkeypatch.setattr(lagwave.analysis, "simulate", simulate_with_nans)
    rows = [row for _, row in sweep_dn(sc, (1.0, 0.5), vehicles=4, dt_ratio=0.35)]
    assert math.isnan(rows[1].traj_diff_prev)


def test_measure_front_speed_needs_three_crossings():
    sc = Scenario(fd=G, k1=G.K / 4.0, lead_speed=7.5, m=2, dn=0.5, dt=0.175,
                  duration=7.0)
    traj = simulate(sc)
    with pytest.raises(MeasurementError, match=r"^only 2 crossings, need at least 3$"):
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
    with pytest.raises(MeasurementError, match=r"^only 0 vehicles started from rest$"):
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


def test_string_stability_in_free_flow_predicts_unbounded_growth():
    # theta'(50) is -0.0 on the triangular free branch.  The prediction was a
    # ZeroDivisionError there, and a plain division gives exp(-inf) = 0.
    res = string_stability_experiment(TriangularFD(), JWZ(T=5.0, c0=2.0), s0=50.0,
                                      amplitude=0.02, omega=0.1)
    assert res.predicted_ratio == math.inf
    assert res.amplification_ratio == pytest.approx(0.1548, rel=1e-3)
    assert string_stability_experiment(TriangularFD(), JWZ(T=5.0, c0=2.0), s0=50.0,
                                       amplitude=0.0, omega=0.0).predicted_ratio == 1.0


@pytest.mark.parametrize("fd, s0, omega", [
    (G, 1e200, 0.1),
    (GreenshieldsFD(K=100.0), 1e12, 0.1),
    (G, 14.0, 1e300),
], ids=["slope-underflow", "exponent-overflow", "omega-squared-overflow"])
def test_string_stability_prediction_saturates_without_a_warning(fd, s0, omega):
    # theta'(1e200) underflowed to 0 (a ZeroDivisionError), exp overflowed
    # with a RuntimeWarning, and omega**2 raised OverflowError.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = string_stability_experiment(fd, JWZ(T=5.0, c0=2.0), s0=s0, amplitude=0.0, omega=omega, m=2,
                                          duration=3.0)
    assert res.predicted_ratio == math.inf


def _three_branch_prediction(fd, model, s0, omega, dt):
    """The prediction as it was computed before its branches were folded into one expression."""
    relax = _relaxation_time(model)
    with np.errstate(over="ignore"):
        rate, slope = (dt if relax is None else relax) * np.float64(omega) ** 2, fd.theta_prime(s0)
        if rate == 0.0:
            return 1.0
        if slope == 0.0:
            return math.inf
        return float(np.exp(rate / slope))


_JWZ = JWZ(T=5.0, c0=2.0)


@pytest.mark.parametrize("fd, model, s0, amplitude, omega, kwargs", [
    (T, _JWZ, 50.0, 0.02, 0.1, {}),
    (G, _JWZ, 1e200, 0.0, 0.1, dict(m=2, duration=3.0)),
    (GreenshieldsFD(K=100.0), _JWZ, 1e12, 0.0, 0.1, dict(m=2, duration=3.0)),
    (G, _JWZ, 14.0, 0.0, 0.0, {}),
    (G, NonstandardLWR(), 14.0, 0.02, 0.1, {}),
    (G, PhillipsRelax(T=5.0), 14.0, 0.02, 0.1, {}),
    (G, _JWZ, 14.0, 0.02, 0.1, {}),
    (G, Corrected1(_JWZ), 14.0, 0.02, 0.1, {}),
    (G, Corrected2(_JWZ), 14.0, 0.02, 0.1, {}),
    (G, _JWZ, 14.0, 0.02, 0.1, dict(m=20, dn=0.5, dt=0.175)),
], ids=["free-branch", "slope-underflow", "exponent-overflow", "omega-zero",
        "nonstandard", "phillips", "jwz", "corrected1-jwz", "corrected2-jwz", "jwz-half-dn"])
def test_string_stability_results_match_their_reference_expressions(fd, model, s0, amplitude, omega, kwargs):
    res = string_stability_experiment(fd, model, s0=s0, amplitude=amplitude, omega=omega, **kwargs)
    assert res.predicted_ratio == _three_branch_prediction(fd, model, s0, omega, kwargs.get("dt", 0.35))
    amps = res.amplitudes
    geo = float(np.exp(np.mean(np.log(amps[2:] / amps[1:-1])))) if amplitude else 1.0
    assert res.amplification_ratio == geo ** (1.0 / kwargs.get("dn", 1.0))


def test_string_stability_corrected_model_uses_inner_relaxation_time():
    inner = PhillipsRelax(T=5.0)
    res = string_stability_experiment(G, Corrected1(inner), s0=14.0,
                                      amplitude=0.02, omega=0.1)
    assert res.predicted_ratio == string_stability_experiment(
        G, inner, s0=14.0, amplitude=0.02, omega=0.1).predicted_ratio
    assert res.predicted_ratio == pytest.approx(math.exp(0.07), rel=1e-12)


def test_dispersion_roots_hand_values():
    # greenshields at K/2, T = 5, wavenumber 0.1; quadratic solved by hand
    r1, r2 = eulerian_dispersion_roots(G, G.K / 2.0, 5.0, 0.1)
    roots = sorted((r1, r2), key=lambda z: z.real)
    assert roots[0] == pytest.approx(-1.3083 + 0.2240j, abs=2e-3)
    assert roots[1] == pytest.approx(-0.6917 - 0.4240j, abs=2e-3)
    assert max(r1.imag, r2.imag) > 0.2


def test_diffusion_coefficient_values():
    # -T (k eta')^2 with k eta' = -10 at K/2: -5 * 100 = -500
    assert diffusion_coefficient(G, G.K / 2.0, 5.0) == pytest.approx(-500.0, rel=1e-12)
    # free branch of the triangular diagram is flat, so zero
    assert diffusion_coefficient(T, T.K / 100.0, 5.0) == 0.0


def test_diffusion_never_positive():
    rng = np.random.default_rng(7)
    for fd in (G, T, KernerFD()):
        for _ in range(50):
            k = rng.uniform(0.01, 0.99) * fd.K
            t_rel = rng.uniform(0.5, 10.0)
            assert diffusion_coefficient(fd, k, t_rel) <= 0.0
