"""Time stepping: hand-checked single steps of the kernel, scheme dispatch,
shape and validation contracts, and the two-step collision construction
that separates the robust update from its four rivals."""
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lagwave.engine import (
    Corrected1,
    Corrected2,
    JWZ,
    NonstandardLWR,
    PhillipsRelax,
    Scenario,
    Scheme,
    Trajectory,
    _FLOAT_SLOTS,
    _float_kernel,
    _step_kernel,
    acceleration,
    simulate,
)
from lagwave.fundamental import GreenshieldsFD, KernerFD, TriangularFD
from golden import off_avx512
from reference import newell_positions, run_kernel, step_kernel

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


@pytest.mark.parametrize("dt", [math.nan, math.inf])
def test_acceleration_rejects_nonfinite_dt(dt):
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        acceleration(np.zeros((3, 2)), dt)


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
    with pytest.raises(ValueError, match="initial_speed must be nonnegative"):
        Scenario(fd=G, k1=0.05, lead_speed=0.0, m=3, dn=1.0, dt=0.1, duration=1.0, initial_speed=-5.0)


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


@pytest.mark.parametrize("m", [2, 20], ids=["float kernel", "numpy kernel"])
def test_simulate_rejects_unknown_model(m):
    sc = Scenario(fd=G, k1=G.K / 4.0, lead_speed=7.5, m=m, dn=1.0, dt=0.35,
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


def test_scenario_refuses_a_step_count_that_is_not_finite():
    # duration / dt overflowed to inf, and math.ceil raised OverflowError in steps
    with pytest.raises(ValueError, match=r"duration / dt is not finite: duration=1\.0, dt=1e-320"):
        Scenario(fd=G, k1=0.05, lead_speed=0.0, m=3, dn=1.0, dt=1e-320, duration=1.0)


LIMIT = np.iinfo(np.intp).max


@pytest.mark.parametrize("m, dt, text", [
    (3, 1e-15, None),
    # A count past numpy's dimension limit is written as ">limit", not in its hundreds of digits.
    (3, 1e-300, f"numpy cannot allocate the (>{LIMIT}, 4) grid of duration / dt steps and m slots: "),
    (10**30, 0.1, f"numpy cannot allocate the (11, >{LIMIT}) grid of duration / dt steps and m slots: "),
], ids=["unable to allocate", "steps past the dimension limit", "slots past it"])
def test_simulate_refuses_a_grid_numpy_cannot_allocate(m, dt, text):
    # Every shape is far past the address space, so numpy refuses it before touching memory.
    sc = Scenario(fd=G, k1=0.05, lead_speed=0.0, m=m, dn=1.0, dt=dt, duration=1.0)
    if text is None:
        text = rf"numpy cannot allocate the \({sc.steps + 1}, {m + 1}\) grid"
    else:
        text = "^" + re.escape(text)  # numpy's own reason follows
    with pytest.raises(ValueError, match=text):
        simulate(sc)


@pytest.mark.parametrize("bad", [-5.0, math.nan, math.inf])
def test_simulate_rejects_bad_lead_speeds(bad):
    sc = Scenario(fd=G, k1=G.K / 4.0, lead_speed=7.5, m=2, dn=1.0, dt=0.35,
                  duration=3.5)
    lead = np.full(sc.steps, 7.5)
    lead[3] = bad
    with pytest.raises(ValueError, match="lead_speeds"):
        simulate(sc, lead_speeds=lead)


def test_simulate_refuses_the_model_then_the_grid_then_lead_speeds():
    # Each refusal names the first of the three that fails, although the grid
    # is made by the stepping loop and lead_speeds are checked there.
    sc = Scenario(fd=G, k1=0.05, lead_speed=0.0, m=10**30, dn=1.0, dt=0.1, duration=1.0)
    lead = np.full(sc.steps, -1.0)
    with pytest.raises(ValueError, match="supports only the equilibrium model"):
        simulate(sc, model=PhillipsRelax(), scheme=Scheme.FORWARD_SPACING, lead_speeds=lead)
    with pytest.raises(ValueError, match=r"^numpy cannot allocate the \(11, >"):
        simulate(sc, lead_speeds=lead)


def test_simulate_default_leader_allocates_no_row():
    # An m = 0 grid is one value per row, so a J-long leader row would weigh
    # one grid.  The traced peak is the two grids and the times with the
    # integer steps they are made from, plus numpy's 64 kB casting buffer.
    sc = Scenario(fd=G, k1=0.05, lead_speed=5.0, m=0, dn=1.0, dt=0.1, duration=4000.0)
    tracemalloc.start()
    try:
        traj = simulate(sc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sc.steps == 40000 and np.all(traj.speeds[:, 0] == 5.0)
    assert peak < 4.5 * traj.positions.nbytes


@pytest.mark.parametrize("lead_speed", [5.0, 0.0], ids=["moving", "at rest from row 538"])
def test_float_kernel_holds_no_run_of_rows_as_lists(lead_speed):
    # A 4-slot row held as a Python list weighs about six times its grid row,
    # so the run's rows kept as lists would be several grids.  The traced peak
    # is the two grids and the times, plus one chunk of rows.  Behind a moving
    # leader every row passes through the chunks; behind a stopped one the
    # platoon comes to rest and the rows after it are filled, with no lists.
    sc = Scenario(fd=T, k1=1.0 / 14.0, lead_speed=lead_speed, m=3, dn=1.0, dt=0.1, duration=4000.0)
    tracemalloc.start()
    try:
        traj = simulate(sc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sc.steps == 40000 and sc.m + 1 <= _FLOAT_SLOTS
    assert peak < 3.0 * traj.positions.nbytes


def test_float_kernel_stops_stepping_a_platoon_at_rest(monkeypatch):
    # The long run of demos/rival_schemes.py is at rest, bit for bit, from row
    # 36 of 10 000: the kernel must stop stepping there, not step it through.
    calls = []
    row = TriangularFD._eta_row
    monkeypatch.setattr(TriangularFD, "_eta_row", lambda fd, ks: calls.append(1) or row(fd, ks))
    sc = Scenario(fd=TriangularFD(V=20.0, W=5.0, K=1.0 / 7.0), k1=1.0 / 14.0, lead_speed=0.0,
                  m=3, dn=1.0, dt=1.0, duration=10_000.0)
    simulate(sc)
    assert sc.steps == 10_000 and 0 < len(calls) <= 40


@pytest.mark.parametrize("m, scheme, kernel", [
    (_FLOAT_SLOTS - 1, Scheme.ANISOTROPIC_SYMPLECTIC, "_float_kernel"),
    (_FLOAT_SLOTS, Scheme.ANISOTROPIC_SYMPLECTIC, "_step_kernel"),
    (0, Scheme.FORWARD_SPACING, "_step_kernel"),
    (3, Scheme.EXPLICIT_EXPLICIT, "_step_kernel"),
])
def test_simulate_steps_narrow_anisotropic_runs_on_floats(monkeypatch, m, scheme, kernel):
    import lagwave.engine as engine

    called = []
    for name in ("_float_kernel", "_step_kernel"):
        real = getattr(engine, name)
        monkeypatch.setattr(engine, name, lambda *args, real=real, name=name: called.append(name) or real(*args))
    sc = Scenario(fd=G, k1=G.K / 4.0, lead_speed=7.5, m=m, dn=1.0, dt=0.35, duration=3.5)
    simulate(sc, scheme=scheme)
    # One call per run: the one block of simulate.
    assert called == [kernel]


KERNEL_MODELS = (NonstandardLWR(), PhillipsRelax(T=2.0), JWZ(T=3.0, c0=0.7),
                 Corrected1(JWZ(T=1.5, c0=-1.3)), Corrected2(PhillipsRelax(T=4.0)))
# The last jam density is one where 1/(1/K) rounds above K, so that the
# density clamp of a spacing at jam shows.
KERNEL_DIAGRAMS = (GreenshieldsFD(), TriangularFD(), KernerFD(), KernerFD(clamp_nonnegative=False),
                   GreenshieldsFD(K=0.1249279726343462))


@st.composite
def _row_zero(draw):
    """A drawn row 0 for one diagram: gaps that are zero, below jam or
    above it, speeds of either sign, and at most one non-finite position."""
    fd = draw(st.sampled_from(KERNEL_DIAGRAMS))
    width = draw(st.integers(min_value=1, max_value=40))
    dn = draw(st.sampled_from([1.0, 0.5, 0.1]))
    gap = st.one_of(st.just(0.0), st.floats(0.0, fd.S * dn), st.floats(fd.S * dn, 20.0 * fd.S * dn))
    gaps = draw(st.lists(gap, min_size=width - 1, max_size=width - 1))
    x0 = np.concatenate(([draw(st.floats(-100.0, 100.0))], -np.asarray(gaps, dtype=float)))
    x0 = np.cumsum(x0)
    odd = draw(st.sampled_from([None, np.inf, -np.inf, np.nan]))
    if odd is not None:
        x0[draw(st.integers(0, width - 1))] = odd
    u0 = np.asarray(draw(st.lists(st.floats(-5.0, 35.0), min_size=width, max_size=width)), dtype=float)
    lead = np.asarray(draw(st.lists(st.floats(0.0, 30.0), min_size=1, max_size=6)), dtype=float)
    return fd, dn, x0, u0, lead


@settings(max_examples=300, deadline=None)
@given(_row_zero(), st.sampled_from(Scheme), st.sampled_from(KERNEL_MODELS), st.sampled_from([1.0, 0.35, 3.0]))
@example((TriangularFD(), 1.0, np.array([0.0]), np.array([3.0]), np.array([1.0, 2.0])),
         Scheme.HARMONIC_CENTRAL, KERNEL_MODELS[3], 1.0).via("width 1")
@example((GreenshieldsFD(), 1.0, np.array([0.0, -7.0]), np.array([0.0, 12.0]), np.array([0.0])),
         Scheme.ARITHMETIC_CENTRAL, KERNEL_MODELS[4], 1.0).via("width 2, at jam")
@example((KernerFD(), 0.5, np.array([0.0, 0.0, -np.inf]), np.array([1.0, 2.0, 3.0]), np.array([0.0, 1.0])),
         Scheme.FORWARD_SPACING, KERNEL_MODELS[2], 0.35).via("width 3, zero gap, inf position")
@example((KernerFD(), 1.0, -np.cumsum(np.tile([0.0, 3.0, 5.6, 40.0], 4)), np.linspace(-2.0, 30.0, 16),
          np.array([3.0, 0.0, 8.0])), Scheme.ANISOTROPIC_SYMPLECTIC, KERNEL_MODELS[3], 0.35).via("width 16")
@example((TriangularFD(), 0.5, -np.cumsum(np.tile([0.0, 3.5, 3.6, 20.0], 5)[:17]), np.linspace(30.0, -2.0, 17),
          np.array([0.0, 5.0])), Scheme.ANISOTROPIC_SYMPLECTIC, KERNEL_MODELS[4], 1.0).via("width 17")
@example((TriangularFD(), 1.0, np.array([0.0, np.nan, -20.0]), np.array([5.0, 5.0, 5.0]), np.array([5.0])),
         Scheme.ANISOTROPIC_SYMPLECTIC, KERNEL_MODELS[4], 1.0).via("a NaN ceiling, numpy's minimum passes it")
@example((TriangularFD(), 1.0, np.array([0.0, -20.0, -40.0]), np.array([5.0, np.nan, 5.0]), np.array([5.0, 5.0])),
         Scheme.ANISOTROPIC_SYMPLECTIC, KERNEL_MODELS[4], 1.0).via("a NaN speed under a finite ceiling stays NaN")
# Runs that come to rest, after which the float kernel fills its rows.
@example((TriangularFD(), 1.0, -np.arange(5) * TriangularFD().S, np.zeros(5), np.zeros(80)),
         Scheme.ANISOTROPIC_SYMPLECTIC, KERNEL_MODELS[2], 1.0).via("at jam behind a stopped leader")
@example((GreenshieldsFD(), 1.0, -np.arange(5) * GreenshieldsFD().S, np.zeros(5),
          np.concatenate((np.zeros(30), np.full(10, 4.0), np.zeros(150)))),
         Scheme.ANISOTROPIC_SYMPLECTIC, KERNEL_MODELS[0], 1.0).via("a leader that stops, restarts and stops")
@example((GreenshieldsFD(), 1.0, -np.arange(5) * GreenshieldsFD().S, np.zeros(5),
          np.concatenate((np.zeros(10), np.full(30, 5.0)))),
         Scheme.ANISOTROPIC_SYMPLECTIC, KERNEL_MODELS[0], 1.0).via("at jam behind a leader that restarts for good")
# Zero speeds that differ in sign, at a density where theta is -0.0 (a
# sigmoid of subnormal amplitude), under JWZ with dt > T: each new zero
# takes the sign of the anticipation term's speed difference, so the rows
# stay equal in value but not in bytes, and none is a row at rest.
@example((KernerFD(c1=1e-318, clamp_nonnegative=False), 1.0, -np.arange(3) * KernerFD().S, np.array([-0.0, 0.0, 0.0]),
          np.zeros(3)), Scheme.ANISOTROPIC_SYMPLECTIC, KERNEL_MODELS[2], 3.5).via("signed zeros equal in value")
@example((KernerFD(), 1.0, -np.arange(5) * KernerFD().S, np.zeros(5),
          np.concatenate((np.tile([0.0, -0.0], 15), np.full(30, -0.0)))),
         Scheme.ANISOTROPIC_SYMPLECTIC, KERNEL_MODELS[2], 1.0).via("a leader alternating 0.0 and -0.0, then at -0.0")
def test_kernel_matches_the_allocating_reference(state, scheme, model, dt):
    # The numpy kernel steps the drawn scheme, and the float kernel the
    # anisotropic one, on every row, whatever its width.
    fd, dn, x0, u0, lead = state
    x0_before, u0_before, lead_before = x0.tobytes(), u0.tobytes(), lead.copy()
    for kernel, args in ((_step_kernel, (model, scheme)), (_float_kernel, (model,))):
        got = run_kernel(kernel, fd, dn, dt, x0, u0, lead, *args)
        want = run_kernel(step_kernel, fd, dn, dt, x0, u0, lead, model,
                          scheme if kernel is _step_kernel else Scheme.ANISOTROPIC_SYMPLECTIC)
        for g, w in zip(got, want):
            assert np.array_equal(g, w, equal_nan=True)
            # Signed zeros and NaN payloads too.
            assert g.tobytes() == w.tobytes()
        assert got[0][0].tobytes() == x0_before and got[1][0].tobytes() == u0_before
        assert np.array_equal(lead, lead_before)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(KERNEL_DIAGRAMS), st.sampled_from(KERNEL_MODELS), st.integers(0, _FLOAT_SLOTS - 1),
       st.floats(0.05, 1.0), st.floats(0.0, 30.0), st.integers(1, 100), st.sampled_from([1.0, 0.5]),
       st.sampled_from([1.0, 0.35]))
def test_a_platoon_braking_to_rest_matches_the_allocating_reference(fd, model, m, k1_share, v0, brake, dn, dt):
    # The leader brakes to 0 within its first 100 steps, and the platoon has
    # 300 more to come to rest, as about half of the draws do: the rows
    # filled after rest have the bits of stepping them.
    sc = Scenario(fd=fd, k1=k1_share * fd.K, lead_speed=v0, m=m, dn=dn, dt=dt, duration=400.0 * dt)
    lead = np.concatenate((np.linspace(v0, 0.0, brake), np.zeros(sc.steps - brake)))
    traj = simulate(sc, model, lead_speeds=lead)
    want = run_kernel(step_kernel, fd, dn, dt, traj.positions[0], traj.speeds[0], lead, model,
                      Scheme.ANISOTROPIC_SYMPLECTIC)
    assert traj.positions.tobytes() == want[0].tobytes() and traj.speeds.tobytes() == want[1].tobytes()


@settings(max_examples=200, deadline=None)
@given(V=st.floats(15.0, 35.0), W=st.floats(3.0, 8.0), K=st.floats(0.1, 0.2), k1_share=st.floats(0.1, 1.0),
       m=st.integers(3, 40), dn=st.sampled_from([1.0, 0.5, 0.25]), steps=st.integers(1, 60),
       lead_shares=st.lists(st.floats(0.0, 1.0), min_size=60, max_size=60))
def test_a_triangular_run_at_the_newell_rate_is_newells_model(V, W, K, k1_share, m, dn, steps, lead_shares):
    # At dn / dt = W K the anisotropic scheme on a triangular diagram is
    # Newell's model (Newell 2002; Daganzo 2006), up to rounding: it takes
    # theta and then the step, Newell's model the min of two sums.  The
    # diagrams span thresholds-grid's ranges, and widths on both sides of
    # _FLOAT_SLOTS step both kernels.
    fd = TriangularFD(V=V, W=W, K=K)
    dt = dn / (W * K)
    lead = V * np.asarray(lead_shares[:steps])
    sc = Scenario(fd=fd, k1=k1_share * K, lead_speed=lead[0], m=m, dn=dn, dt=dt, duration=steps * dt)
    assert sc.steps == len(lead)
    x = simulate(sc, lead_speeds=lead).positions
    want = newell_positions(fd, dn, dt, x[0], lead)
    # Within 1e-14 of the largest |position|; the worst of these draws reads 3.5e-16.
    assert np.max(np.abs(x - want)) <= 1e-14 * np.max(np.abs(want))


def test_float_kernel_bits_hold_off_avx512():
    # numpy picks its SIMD loops per host, and the float kernel hard-codes the
    # tie and NaN rule of numpy's maximum and minimum; this child runs the
    # byte comparison above on the loops of a host without AVX-512; its exit
    # 0 also means tests were collected and ran.
    off_avx512("import sys, pytest\n"
               "sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', sys.argv[1], '-k', 'matches_the_allocating_reference']))",
               __file__)
