"""Time stepping: hand-checked single steps of the kernel, scheme dispatch,
shape and validation contracts, and the two-step collision construction
that separates the robust update from its four rivals."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lagwave.engine import (
    Corrected1,
    Corrected2,
    JWZ,
    NonstandardLWR,
    PhillipsRelax,
    Scenario,
    Scheme,
    Trajectory,
    _step_kernel,
    acceleration,
    simulate,
)
from lagwave.fundamental import GreenshieldsFD, TriangularFD

G = GreenshieldsFD()
T = TriangularFD()


def initial_rows(fd, k1, lead_speed, m, dn, initial_speed=None):
    sc = Scenario(fd=fd, k1=k1, lead_speed=lead_speed, m=m, dn=dn, dt=1.0,
                  duration=1.0, initial_speed=initial_speed)
    traj = simulate(sc)
    return traj.positions[0], traj.speeds[0], traj


def step_rows(x0, u0, fd, model=None, scheme=Scheme.ANISOTROPIC_SYMPLECTIC, steps=1):
    """Step a hand-built row 0 through the kernel with dn = dt = 1 and a
    stopped leader; the row may hold states a Scenario refuses."""
    positions = np.empty((steps + 1, len(x0)))
    speeds = np.empty_like(positions)
    positions[0], speeds[0] = x0, u0
    _step_kernel(positions, speeds, np.zeros(steps), fd, 1.0, 1.0,
                 NonstandardLWR() if model is None else model, scheme)
    return positions, speeds


def test_init_positions_and_speeds():
    x, u, traj = initial_rows(G, k1=1.0 / 14.0, lead_speed=3.0, m=2, dn=0.5)
    # spacing per slot = dn / k1 = 7, slots at 0, -7, -14
    assert np.allclose(x, [0.0, -7.0, -14.0])
    assert u[0] == 3.0
    # followers start on equilibrium: eta(1/14) = 10
    assert np.allclose(u[1:], 10.0)
    assert traj.dn == 0.5


def test_init_initial_speed_override():
    _, u, _ = initial_rows(T, k1=T.K / 100.0, lead_speed=0.0, m=3, dn=1.0,
                           initial_speed=0.0)
    assert np.all(u == 0.0)


def test_trajectory_spacings_normalized():
    sc = Scenario(fd=G, k1=G.K / 4.0, lead_speed=0.0, m=2, dn=0.5, dt=1.0, duration=0.0)
    traj = Trajectory(times=np.zeros(1), positions=np.array([[0.0, -7.0, -21.0]]),
                      speeds=np.zeros((1, 3)), scenario=sc)
    # one row, one spacing per follower
    assert np.allclose(traj.spacings(), [[14.0, 28.0]])


def test_step_nonstandard_hand_values():
    # triangular, uniform spacing 2S = 14, red light ahead
    x, u, _ = initial_rows(T, k1=1.0 / 14.0, lead_speed=0.0, m=2, dn=1.0)
    positions, speeds = step_rows(x, u, T)
    # theta(14) = 5(14/7 - 1) = 5 for both followers, then positions move
    assert np.allclose(speeds[1], [0.0, 5.0, 5.0])
    assert np.allclose(positions[1], [0.0, -9.0, -23.0])


def test_step_nonstandard_clamps_tight_gap():
    positions, speeds = step_rows([0.0, -3.0], [0.0, 5.0], T)
    # gap 3 is below jam spacing; speed clamps to theta(S) = 0
    assert speeds[1, 1] == 0.0
    assert positions[1, 1] == -3.0


@pytest.mark.parametrize("scheme, estimate", [
    (Scheme.ANISOTROPIC_SYMPLECTIC, 7.0),
    (Scheme.EXPLICIT_EXPLICIT, 7.0),
    (Scheme.FORWARD_SPACING, 14.0),
    (Scheme.ARITHMETIC_CENTRAL, 10.5),
])
def test_scheme_spacing_estimates(scheme, estimate):
    # spacings 7 and 14; each scheme's first follower adopts theta(estimate)
    _, speeds = step_rows([0.0, -7.0, -21.0], [0.0, 0.0, 0.0], G, scheme=scheme)
    assert speeds[1, 1] == G.theta(estimate)
    # last vehicle has nothing behind, falls back to the backward gap
    assert speeds[1, 2] == G.theta(14.0)


def test_harmonic_spacing_estimate():
    _, speeds = step_rows([0.0, -7.0, -21.0], [0.0, 0.0, 0.0], G,
                          scheme=Scheme.HARMONIC_CENTRAL)
    assert speeds[1, 1] == pytest.approx(G.theta(28.0 / 3.0))
    assert speeds[1, 2] == G.theta(14.0)


def test_step_explicit_explicit_hand_values():
    x, u, _ = initial_rows(T, k1=1.0 / 14.0, lead_speed=0.0, m=1, dn=1.0)
    # explicit-explicit moves with the OLD speed (eta(1/14) = 5)
    positions, speeds = step_rows(x, u, T, scheme=Scheme.EXPLICIT_EXPLICIT, steps=2)
    assert np.allclose(positions[1], [0.0, -9.0])
    assert np.allclose(speeds[1], [0.0, 5.0])
    # gap is now 9, theta(9) = 10/7, but it moves with speed 5 first
    assert np.allclose(positions[2], [0.0, -4.0])
    assert speeds[2, 1] == pytest.approx(10.0 / 7.0)


def test_corrected1_floor_and_ceiling():
    # inner relaxation with a huge speed excess gets clipped to theta
    _, speeds = step_rows([0.0, -7.0], [0.0, 12.0], T, model=Corrected1(PhillipsRelax(T=2.0)))
    # theta(7) = 0, so the corrected speed is exactly 0
    assert speeds[1, 1] == 0.0


def test_corrected2_collision_ceiling():
    # gap 8, jam spacing 7: ceiling allows at most (8 - 7)/1 = 1 m/s
    positions, speeds = step_rows([0.0, -8.0], [0.0, 12.0], T, model=Corrected2(PhillipsRelax(T=2.0)))
    assert speeds[1, 1] == pytest.approx(1.0)
    # and the new gap is exactly the jam spacing
    assert positions[1, 0] - positions[1, 1] == pytest.approx(7.0)


def test_corrected_models_reject_nesting():
    with pytest.raises(ValueError):
        Corrected1(Corrected1(NonstandardLWR()))
    with pytest.raises(ValueError):
        Corrected2(Corrected1(PhillipsRelax()))


def test_jwz_anticipation_decelerates():
    x, u, _ = initial_rows(T, k1=1.0 / 14.0, lead_speed=0.0, m=1, dn=1.0)
    _, speeds = step_rows(x, u, T, model=JWZ(T=5.0, c0=2.0))
    # equilibrium holds (theta(14) = 5) but the closing speed term bites
    assert speeds[1, 1] == pytest.approx(5.0 - 10.0 / 14.0)


@pytest.mark.parametrize("cls, field, value", [
    (PhillipsRelax, "T", 0.0), (PhillipsRelax, "T", -1.0), (PhillipsRelax, "T", math.nan),
    (JWZ, "T", -1.0), (JWZ, "T", math.inf), (JWZ, "c0", math.inf), (JWZ, "c0", math.nan),
])
def test_model_parameter_validation(cls, field, value):
    with pytest.raises(ValueError, match=rf"^{field} must be"):
        cls(**{field: value})


def test_acceleration_shape_and_values():
    speeds = np.array([[0.0, 1.0], [0.0, 3.0], [0.0, 2.0]])
    a = acceleration(speeds, dt=0.5)
    assert a.shape == (2, 2)
    assert np.allclose(a[:, 1], [4.0, -2.0])
    with pytest.raises(ValueError):
        acceleration(speeds, dt=0.0)


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(fd=G, k1=G.K * 1.01, lead_speed=0.0, m=3, dn=1.0, dt=0.1, duration=1.0)
    with pytest.raises(ValueError):
        Scenario(fd=G, k1=0.05, lead_speed=0.0, m=-1, dn=1.0, dt=0.1, duration=1.0)
    with pytest.raises(ValueError):
        Scenario(fd=G, k1=0.05, lead_speed=0.0, m=3, dn=-1.0, dt=0.1, duration=1.0)
    with pytest.raises(ValueError):
        Scenario(fd=G, k1=0.05, lead_speed=-2.0, m=3, dn=1.0, dt=0.1, duration=1.0)
    with pytest.raises(ValueError, match="duration must be nonnegative"):
        Scenario(fd=G, k1=0.05, lead_speed=0.0, m=3, dn=1.0, dt=0.1, duration=-1.0)


def test_scenario_steps_rounding():
    sc = Scenario(fd=G, k1=0.05, lead_speed=0.0, m=3, dn=1.0, dt=0.1, duration=1.0)
    assert sc.steps == 10
    sc = Scenario(fd=G, k1=0.05, lead_speed=0.0, m=3, dn=1.0, dt=0.3, duration=1.0)
    assert sc.steps == 4


def test_simulate_shapes():
    sc = Scenario(fd=G, k1=G.K / 4.0, lead_speed=7.5, m=4, dn=0.5, dt=0.175,
                  duration=3.5)
    traj = simulate(sc)
    j = sc.steps
    assert traj.times.shape == (j + 1,)
    assert traj.positions.shape == (j + 1, 5)
    assert traj.speeds.shape == (j + 1, 5)
    assert traj.accelerations.shape == (j, 5)
    assert traj.spacings().shape == (j + 1, 4)
    assert np.allclose(traj.vehicle_numbers(), [0.0, 0.5, 1.0, 1.5, 2.0])
    # leader holds its prescribed speed the whole run
    assert np.all(traj.speeds[:, 0] == 7.5)


def test_simulate_lead_speeds_array():
    sc = Scenario(fd=G, k1=G.K / 4.0, lead_speed=7.5, m=2, dn=1.0, dt=0.35,
                  duration=3.5)
    lead = np.linspace(7.5, 0.0, sc.steps)
    traj = simulate(sc, lead_speeds=lead)
    assert np.allclose(traj.speeds[1:, 0], lead)
    with pytest.raises(ValueError):
        simulate(sc, lead_speeds=lead[:-1])


def test_simulate_scheme_model_conflict():
    sc = Scenario(fd=G, k1=G.K / 4.0, lead_speed=7.5, m=2, dn=1.0, dt=0.35,
                  duration=3.5)
    with pytest.raises(ValueError):
        simulate(sc, model=PhillipsRelax(), scheme=Scheme.FORWARD_SPACING)


def test_simulate_rejects_unknown_model():
    sc = Scenario(fd=G, k1=G.K / 4.0, lead_speed=7.5, m=2, dn=1.0, dt=0.35,
                  duration=3.5)
    with pytest.raises(TypeError, match="unknown model"):
        simulate(sc, model=object())


def test_simulate_phillips_t_equal_dt_matches_equilibrium():
    sc = Scenario(fd=G, k1=G.K / 4.0, lead_speed=7.5, m=5, dn=0.5, dt=0.175,
                  duration=7.0)
    a = simulate(sc, model=NonstandardLWR())
    b = simulate(sc, model=PhillipsRelax(T=sc.dt))
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.speeds, b.speeds)


FAILING_SCHEMES = (
    Scheme.FORWARD_SPACING,
    Scheme.ARITHMETIC_CENTRAL,
    Scheme.HARMONIC_CENTRAL,
    Scheme.EXPLICIT_EXPLICIT,
)


def first_collision_step(traj, fd):
    gaps = traj.spacings()
    bad = np.nonzero(np.any(gaps < fd.S - 1e-9, axis=1))[0]
    return int(bad[0]) if bad.size else None


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=1e-3, max_value=4.0))
def test_rival_schemes_collide_fast(x):
    # uniform spacing S(1+x) with a stopped leader: every rival scheme
    # overshoots the jam spacing within two steps
    k1 = 1.0 / (T.S * (1.0 + x))
    sc = Scenario(fd=T, k1=k1, lead_speed=0.0, m=3, dn=1.0, dt=1.0, duration=2.0)
    for scheme in FAILING_SCHEMES:
        traj = simulate(sc, scheme=scheme)
        step = first_collision_step(traj, T)
        assert step is not None and step <= 2, scheme


def test_anisotropic_survives_same_setup():
    sc = Scenario(fd=T, k1=1.0 / (T.S * 2.0), lead_speed=0.0, m=3, dn=1.0, dt=1.0,
                  duration=50.0)
    traj = simulate(sc)
    assert first_collision_step(traj, T) is None
    assert traj.spacings().min() >= T.S - 1e-9


@pytest.mark.parametrize("value", [math.inf, math.nan])
@pytest.mark.parametrize("field", ["lead_speed", "dn", "dt", "duration", "initial_speed"])
def test_scenario_rejects_nonfinite(field, value):
    kwargs = dict(fd=G, k1=0.05, lead_speed=0.0, m=3, dn=1.0, dt=0.1, duration=1.0)
    kwargs[field] = value
    with pytest.raises(ValueError, match=field):
        Scenario(**kwargs)


@pytest.mark.parametrize("bad", [-5.0, math.nan, math.inf])
def test_simulate_rejects_bad_lead_speeds(bad):
    sc = Scenario(fd=G, k1=G.K / 4.0, lead_speed=7.5, m=2, dn=1.0, dt=0.35,
                  duration=3.5)
    lead = np.full(sc.steps, 7.5)
    lead[3] = bad
    with pytest.raises(ValueError, match="lead_speeds"):
        simulate(sc, lead_speeds=lead)
