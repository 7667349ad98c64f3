"""The row-block passes over a run's grid, the CSV writer, the audit and the
wave crossings, and the streamed run and sweep that step them, against the
whole-grid code they replaced.  The equivalence tests shrink the block
sizes so that every grid crosses many block edges; the memory tests keep
the defaults and bound what one pass holds."""
import contextlib
import functools
import hashlib
import io
import math
import os
import tempfile
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import lagwave.analysis
import lagwave.cli
from lagwave.analysis import (
    COLLISION_TOL, NEGATIVE_SPEED_TOL, STARTUP_FRACTION, MeasurementError, _Crossings, _events, _fit_line,
    diagnose, sweep_dn,
)
from lagwave.cli import load_spec, run, sweep
from lagwave.conditions import cfl_threshold, collision_free_threshold
from lagwave.engine import Scenario, Scheme, Trajectory, _row_blocks, _stream, simulate
from lagwave.fundamental import GreenshieldsFD
from lagwave.templates import TEMPLATES, template_text
from test_engine import _reference_step_kernel, _run_kernel


def _reference_write_trajectory_csv(path, traj):
    """The writer before row blocks: one %-format per line, over the
    whole (J, M+1) acceleration grid."""
    acc = traj.accelerations
    numbers = traj.vehicle_numbers().tolist()
    width = len(numbers)
    with open(path, "w") as fh:
        fh.write("t,vehicle,N,x,v,a\n")
        for j, t in enumerate(traj.times.tolist()):
            a = acc[j].tolist() if j < len(acc) else [0.0] * width
            rows = zip([t] * width, range(width), numbers, traj.positions[j].tolist(), traj.speeds[j].tolist(), a)
            fh.writelines("%.17g,%d,%.17g,%.17g,%.17g,%.17g\n" % row for row in rows)


def _reference_diagnose(trajectory, fd=None):
    """The audit before row blocks, in whole-grid arrays; returns the
    report's fields."""
    if fd is None:
        fd = trajectory.scenario.fd
    s = trajectory.spacings()
    collisions = np.argwhere(s < fd.S - COLLISION_TOL)
    collisions[:, 1] += 1
    negatives = np.argwhere(trajectory.speeds < -NEGATIVE_SPEED_TOL)
    min_spacing = float(np.min(s)) if s.size else float("inf")
    acc = trajectory.accelerations
    max_acc = float(np.max(np.abs(acc, out=acc))) if acc.size else 0.0
    nonfinite = sum(int(np.count_nonzero(~np.isfinite(a))) for a in (trajectory.positions, trajectory.speeds))
    return collisions, negatives, min_spacing, max_acc, nonfinite


def _reference_crossings(trajectory, level, rising):
    """The crossings before the block accumulator, one mask over the whole
    grid: interpolated (t, x) where each follower's speed first crosses
    ``level``, for followers that start strictly on the far side."""
    t, x, v = trajectory.times, trajectory.positions, trajectory.speeds
    past = v[:, 1:] >= level if rising else v[:, 1:] <= level
    # The first row past the level, per follower.  It is 0 both for a
    # follower that never gets there and for one that starts past it, and
    # these are exactly the followers that do not contribute.
    first = past.argmax(axis=0)
    m = np.nonzero(first)[0] + 1
    j = first[m - 1]
    hit = v[j, m] == level
    frac = (level - v[j - 1, m]) / (v[j, m] - v[j - 1, m])
    ts = np.where(hit, t[j], t[j - 1] + frac * (t[j] - t[j - 1]))
    xs = np.where(hit, x[j, m], x[j - 1, m] + frac * (x[j, m] - x[j - 1, m]))
    return ts, xs


def _reference_wave(traj):
    """The speed and r^2 of the wave, chosen from the record's first row as
    measure_wave chooses it, from the whole-grid crossings."""
    fd = traj.scenario.fd
    v2, v1 = traj.speeds[0, [0, -1]].tolist()
    speed = r2 = math.nan
    wave = None
    if v1 < STARTUP_FRACTION * fd.V:
        wave = STARTUP_FRACTION * fd.V, True
    elif abs(v1 - v2) > 1e-9:
        wave = 0.5 * (v1 + v2), v2 > v1
    if wave is not None:
        ts, xs = _reference_crossings(traj, *wave)
        with contextlib.suppress(MeasurementError):
            if ts.size >= 3:
                speed, r2 = _fit_line(ts, xs)
    return speed, r2


def _reference_summary(traj):
    """summary.txt from the whole-grid audit and crossings."""
    fd = traj.scenario.fd
    collisions, negatives, min_spacing, max_acc, _ = _reference_diagnose(traj)
    speed, r2 = _reference_wave(traj)
    values = [("measured_shock_speed", speed), ("r_squared", r2), ("min_spacing", min_spacing),
              ("collision_count", len(collisions)), ("negative_speed_count", len(negatives)),
              ("max_abs_accel", max_acc), ("collision_free_threshold", collision_free_threshold(fd)),
              ("cfl_threshold", cfl_threshold(fd))]
    return "".join(f"{key} = {value}\n" if isinstance(value, int) else f"{key} = {value:.17g}\n"
                   for key, value in values)


def _assert_same_report(rep, want):
    collisions, negatives, min_spacing, max_acc, nonfinite = want
    for got, ref in ((rep.collision_events, collisions), (rep.negative_speed_events, negatives)):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert np.array_equal(got, ref)
    # repr tells nan and -0.0 apart, as summary.txt's %.17g does
    assert repr(rep.min_spacing) == repr(min_spacing)
    assert repr(rep.max_abs_acceleration) == repr(max_acc)
    assert rep.nonfinite_count == nonfinite


@pytest.fixture
def tiny_blocks(monkeypatch):
    monkeypatch.setattr(lagwave.cli, "_CSV_BLOCK", 7)
    monkeypatch.setattr(lagwave.cli, "_RUN_BLOCK", 11)
    monkeypatch.setattr(lagwave.analysis, "_AUDIT_BLOCK", 5)


def _cases():
    """Every run template, every scheme on the shock templates, a
    leader-only platoon, a run of no steps and non-finite and signed-zero
    speeds."""
    cases = []
    for name in sorted(TEMPLATES):
        spec = load_spec(template_text(name))
        if spec.stability is None:
            schemes = list(Scheme) if "shock" in name else [spec.scheme]
            cases += [f"{name}:{scheme.value}" for scheme in schemes]
    return cases + ["greenshields-shock-a:m=0", "greenshields-shock-a:duration=0", "greenshields-shock-b:special"]


def _case_spec(case):
    """The RunSpec of a case; the special case's values are edited into its record."""
    name, variant = case.split(":")
    spec = load_spec(template_text(name))
    sc = spec.scenario
    if variant == "m=0":
        return replace(spec, scenario=replace(sc, m=0))
    if variant == "duration=0":
        return replace(spec, scenario=replace(sc, duration=0.0))
    if variant == "special":
        return replace(spec, scenario=replace(sc, m=6, duration=3 * sc.dt))
    # the shock templates use the equilibrium model, which every scheme supports
    return replace(spec, scheme=Scheme(variant))


def _case_trajectory(case):
    spec = _case_spec(case)
    traj = simulate(spec.scenario, model=spec.model, scheme=spec.scheme)
    if case.endswith(":special"):
        x, v = traj.positions.copy(), traj.speeds.copy()
        v[0, 3] = -0.0
        v[1, 2] = np.nan
        v[2, 4] = np.inf
        v[2, 5] = -np.inf
        v[-1, -1] = -0.0
        x[1, 6] = np.nan
        return Trajectory(times=traj.times, positions=x, speeds=v, scenario=traj.scenario)
    return traj


@functools.lru_cache(maxsize=None)
def _reference_csv_sha256(case):
    """sha256 of the whole-grid writer's trajectory.csv for ``case``, made once."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "want.csv")
        _reference_write_trajectory_csv(path, _case_trajectory(case))
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", _cases())
def test_blocked_passes_match_whole_grid(case, tiny_blocks):
    traj = _case_trajectory(case)
    _assert_same_report(diagnose(traj), _reference_diagnose(traj))


def _block_bytes(blocks):
    """Each block's j0 and its arrays' bytes, taken as it is walked: a
    streamed block's views are overwritten by the next."""
    return [(j0, x.tobytes(), v.tobytes(), a.tobytes()) for j0, x, v, a in blocks]


@pytest.mark.parametrize("case", _cases())
def test_stream_reproduces_simulate(case):
    # tobytes compares NaN, infinities and signed zeros exactly.  Blocks are
    # sized by values: one value and one row plus three (a row each), three
    # rows, and the grid's J and J + 1 rows, where the last block holds one
    # row and where one block holds the grid.
    spec = _case_spec(case)
    sc = spec.scenario
    traj = simulate(sc, model=spec.model, scheme=spec.scheme)
    count, width = traj.positions.shape
    # One size per row count: the blocks depend on nothing else.
    sizes = {max(1, values // width): values for values in (1, width + 3, 3 * width + 1, count * width - 1, count * width)}
    for values in sizes.values():
        got = _block_bytes(_stream(sc, spec.model, spec.scheme, values))
        assert got == _block_bytes(_row_blocks(traj, values)), values
    # Both sides step through one loop, so simulate's grid is also checked
    # against the allocating reference kernel stepped over the whole grid.
    lead = np.full(sc.steps, sc.lead_speed)
    want = _run_kernel(_reference_step_kernel, sc.fd, sc.dn, sc.dt, traj.positions[0], traj.speeds[0], lead,
                       spec.model, spec.scheme)
    assert [a.tobytes() for a in want] == [traj.positions.tobytes(), traj.speeds.tobytes()]


@pytest.mark.parametrize("m, dt", [(3, 1e-15), (3, 1e-300), (10**30, 0.1)],
                         ids=["unable to allocate", "steps past the dimension limit", "slots past it"])
def test_stream_refuses_what_simulate_refuses(m, dt):
    # Refused with simulate's message when called, before a block is asked
    # for: a stream of these shapes would step for hours.
    sc = Scenario(fd=GreenshieldsFD(), k1=0.05, lead_speed=0.0, m=m, dn=1.0, dt=dt, duration=1.0)
    with pytest.raises(ValueError) as want:
        simulate(sc)
    with pytest.raises(ValueError) as got:
        _stream(sc, None, Scheme.ANISOTROPIC_SYMPLECTIC, 65536)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("case", _cases())
def test_streamed_run_writes_the_whole_grid_bytes(case, tiny_blocks, tmp_path, monkeypatch):
    # Two rows per block: a crossing on an even row falls on a block's first
    # row and is interpolated from the row carried over from the block before.
    traj = _case_trajectory(case)
    monkeypatch.setattr(lagwave.cli, "_RUN_BLOCK", 2 * traj.positions.shape[1])
    if case.endswith(":special"):
        # No scenario steps to the edited values: the run walks the edited record.
        monkeypatch.setattr(lagwave.cli, "_stream", lambda sc, model, scheme, values: _row_blocks(traj, values))
    with contextlib.redirect_stdout(io.StringIO()):
        run(replace(_case_spec(case), output_dir=str(tmp_path)))
    assert _sha256(tmp_path / "trajectory.csv") == _reference_csv_sha256(case)
    assert (tmp_path / "summary.txt").read_text() == _reference_summary(traj)


def _reference_sweep(spec, dn_list, out):
    """The sweep before streaming, in whole-grid passes: each dn's grid is
    simulated, written by the whole-grid writer, audited and measured, and
    its displayed vehicles compared with the dn before.  Writes sweep.csv
    and every trajectory_dn*.csv to ``out``; returns the rows and stdout."""
    rows, printed, prev = [], [], None
    for dn in dn_list:
        m = round(spec.vehicles / dn)
        traj = simulate(replace(spec.scenario, dn=dn, dt=spec.dt_ratio * dn, m=m), model=spec.model, scheme=spec.scheme)
        _reference_write_trajectory_csv(os.path.join(out, f"trajectory_dn{dn:g}.csv"), traj)
        slots = {n: round(n / dn) for n in range(1, spec.display_vehicles + 1)}
        slots = {n: slot for n, slot in slots.items() if 1 <= slot <= m}
        acc = np.diff(traj.speeds[:, list(slots.values())], axis=0) / traj.scenario.dt
        max_acc = float(np.max(np.abs(acc))) if acc.size else math.nan
        curves = {n: traj.positions[:, slot].copy() for n, slot in slots.items()}
        diff = math.nan
        if prev is not None:
            t_prev, curves_prev = prev
            grid = t_prev[t_prev <= min(float(t_prev[-1]), float(traj.times[-1]))]
            diff = 0.0
            for n, x_prev in curves_prev.items():
                if n in curves:
                    b = np.interp(grid, traj.times, curves[n])
                    diff = max(diff, float(np.max(np.abs(x_prev[: len(grid)] - b))))
        prev = traj.times, curves
        row = (dn, _reference_wave(traj)[0], max_acc, _reference_diagnose(traj)[2], diff)
        rows.append(row)
        printed.append("[sweep] dn=%g speed=%.6g max_accel=%.6g min_spacing=%.6g diff_prev=%.6g\n" % row)
    table = os.path.join(out, "sweep.csv")
    with open(table, "w") as fh:
        fh.write("dn,measured_speed,max_abs_accel,min_spacing,traj_diff_prev\n")
        fh.writelines(",".join("%.17g" % v for v in row) + "\n" for row in rows)
    return rows, "".join(printed) + f"[sweep] wrote {table}\n"


_SWEEPABLE = sorted(name for name in TEMPLATES if "vehicles" in TEMPLATES[name]["scenario"])


@pytest.mark.parametrize("dn_list", [(1, 0.5, 0.25, 0.125, 0.0625), (1, 2.5), (0.5, 1, 0.3)],
                         ids=["halving", "coarser", "unordered"])
@pytest.mark.parametrize("case", _SWEEPABLE + ["greenshields-discharge:duration=0"])
def test_streamed_sweep_writes_the_whole_grid_files(case, dn_list, tiny_blocks, tmp_path):
    # One row per block at 961 slots; at dn = 2.5 vehicle 1 rounds to the leader.
    name, _, variant = case.partition(":")
    spec = load_spec(template_text(name))
    if variant:
        spec = replace(spec, scenario=replace(spec.scenario, duration=0.0))
    want, got = tmp_path / "want", tmp_path / "got"
    want.mkdir()
    want_rows, want_stdout = _reference_sweep(spec, dn_list, str(want))
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        sweep(replace(spec, output_dir=str(got)), dn_list)
    assert stdout.getvalue() == want_stdout.replace(str(want), str(got))
    assert sorted(os.listdir(got)) == sorted(os.listdir(want)) == sorted(
        ["sweep.csv"] + [f"trajectory_dn{dn:g}.csv" for dn in dn_list])
    for path in want.iterdir():
        assert (got / path.name).read_bytes() == path.read_bytes(), path.name
    # sweep_dn fills the same record from each finished grid; repr compares nan.
    rows = [row for _, row in sweep_dn(spec.scenario, dn_list, spec.vehicles, spec.dt_ratio, spec.model,
                                       spec.scheme, spec.display_vehicles)]
    assert [repr(tuple(row)) for row in rows] == [repr(row) for row in want_rows]
    assert all(math.isnan(row.max_abs_accel) for row in rows) == (variant == "duration=0")


@pytest.mark.parametrize("rising", [True, False])
@pytest.mark.parametrize("rows", [1, 2, 3, 6])
def test_crossings_carry_the_row_before_a_block(rows, rising):
    # Follower 1 crosses between rows 1 and 2, follower 2 meets the level
    # exactly at row 3, at a position of -0.0, and follower 3 starts past it.
    # Each block is a copy scribbled over once fed, as a stream's buffer is.
    x, v = _platoon(rows=6, width=4)
    v[:, 1] = [0.0, 0.25, 2.0, 2.0, 2.0, 2.0]
    v[:, 2] = [0.0, 0.0, 0.5, 1.0, 1.0, 1.0]
    v[:, 3] = 2.0
    x[3, 2] = -0.0
    if not rising:
        v = 2.0 - v
    traj = _trajectory(x, v, dt=0.3)
    crossings = _Crossings(1.0, rising)
    for j0 in range(0, 6, rows):
        block = [a[j0 : j0 + rows].copy() for a in (traj.times, x, v)]
        crossings.add(*block)
        for a in block:
            a.fill(np.nan)
    got, want = crossings.points(), _reference_crossings(traj, 1.0, rising)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    assert got[0].size == 2 and np.signbit(got[1][1])


def test_special_case_has_what_it_names():
    v = _case_trajectory("greenshields-shock-b:special").speeds
    assert np.isnan(v).any() and np.isposinf(v).any() and np.isneginf(v).any()
    assert np.signbit(v[v == 0.0]).any()


def _trajectory(x, v, dt=1.0):
    """A hand-made record on the scenario of greenshields-shock-a."""
    sc = replace(load_spec(template_text("greenshields-shock-a")).scenario, dn=1.0, dt=dt)
    x, v = np.asarray(x, dtype=float), np.asarray(v, dtype=float)
    return Trajectory(times=dt * np.arange(len(x)), positions=x, speeds=v, scenario=sc)


def _platoon(rows=8, width=2):
    """Vehicles 10 m apart moving at 1 m/s: a clean record."""
    x = -10.0 * np.arange(width) + np.arange(rows)[:, None]
    return x, np.ones((rows, width))


@pytest.mark.parametrize("where", ["last", "first"])
@pytest.mark.parametrize("what", ["spacing", "speed", "both"])
def test_audit_nan_in_one_block(where, what, tiny_blocks):
    # 5 values per block at width 2 is two rows per block, so a NaN in the
    # last (first) row reaches the spacings and accelerations of the last
    # (first) block only.
    x, v = _platoon()
    row = -1 if where == "last" else 0
    if what in ("spacing", "both"):
        x[row, 1] = np.nan
    if what in ("speed", "both"):
        v[row, 1] = np.nan
    traj = _trajectory(x, v)
    rep = diagnose(traj)
    _assert_same_report(rep, _reference_diagnose(traj))
    assert (repr(rep.min_spacing) == "nan") == (what != "speed")
    assert (repr(rep.max_abs_acceleration) == "nan") == (what != "spacing")
    assert not rep.clean


def test_audit_searches_a_block_with_a_nan_minimum(tiny_blocks):
    # A NaN makes the block's minimum NaN, which must not hide the events
    # beside it in the same block.
    x, v = _platoon(rows=7, width=3)
    x[4, 0] = np.nan
    x[4, 2] = x[4, 1] - 1.0
    v[4, 0], v[4, 2] = np.nan, -1.0
    traj = _trajectory(x, v)
    rep = diagnose(traj)
    _assert_same_report(rep, _reference_diagnose(traj))
    assert rep.collision_events.tolist() == [[4, 2]]
    assert rep.negative_speed_events.tolist() == [[4, 2]]


def test_audit_events_carry_their_block_offsets(tiny_blocks):
    x, v = _platoon(rows=7, width=3)
    x[5, 2] = x[5, 1] - 1.0  # vehicle 2 runs into vehicle 1 at row 5
    v[3, 1] = -1.0
    traj = _trajectory(x, v)
    rep = diagnose(traj)
    assert rep.collision_events.tolist() == [[5, 2]]
    assert rep.negative_speed_events.tolist() == [[3, 1]]
    _assert_same_report(rep, _reference_diagnose(traj))


@pytest.mark.parametrize("delta, events", [(0, 0), (-1, 1), (1, 0)], ids=["at", "ulp-below", "ulp-above"])
def test_audit_spacing_at_the_limit(delta, events, tiny_blocks):
    limit = load_spec(template_text("greenshields-shock-a")).scenario.fd.S - COLLISION_TOL
    gap = np.nextafter(limit, delta * np.inf) if delta else limit
    x, v = _platoon(width=2)
    x[3] = 0.0, -gap  # 0.0 - (-gap) is gap exactly, and dn is 1
    traj = _trajectory(x, v)
    rep = diagnose(traj)
    _assert_same_report(rep, _reference_diagnose(traj))
    assert rep.collision_events.tolist() == [[3, 1]] * events
    assert (rep.min_spacing == limit) == (delta == 0)


@pytest.mark.parametrize("ulps, events", [(0, 0), (1, 1)], ids=["at", "ulp-below"])
def test_audit_speed_at_the_limit(ulps, events, tiny_blocks):
    x, v = _platoon(width=2)
    v[4, 1] = -NEGATIVE_SPEED_TOL if ulps == 0 else np.nextafter(-NEGATIVE_SPEED_TOL, -np.inf)
    traj = _trajectory(x, v)
    rep = diagnose(traj)
    _assert_same_report(rep, _reference_diagnose(traj))
    assert rep.negative_speed_events.tolist() == [[4, 1]] * events


def test_audit_leader_only_negative_speed(tiny_blocks):
    # Width 1: every spacing block is empty, and the speed blocks are one column.
    x, v = _platoon(width=1)
    v[3, 0] = -1.0
    traj = _trajectory(x, v)
    rep = diagnose(traj)
    _assert_same_report(rep, _reference_diagnose(traj))
    assert rep.negative_speed_events.tolist() == [[3, 0]]
    assert rep.collision_count == 0 and rep.min_spacing == np.inf


@pytest.mark.parametrize("where", ["speed", "leader-position", "follower-position"])
def test_audit_block_with_only_posinf(where, tiny_blocks):
    # +inf leaves a speed block's minimum alone, and a spacing block's too
    # when it is the leader's position; a follower at +inf makes a -inf spacing.
    x, v = _platoon(width=3)
    if where == "speed":
        v[3, 1] = np.inf
    else:
        x[3, 0 if where == "leader-position" else 2] = np.inf
    traj = _trajectory(x, v)
    rep = diagnose(traj)
    _assert_same_report(rep, _reference_diagnose(traj))
    assert rep.nonfinite_count == 1
    assert rep.collision_events.tolist() == ([[3, 2]] if where == "follower-position" else [])
    assert rep.negative_speed_count == 0


_ODD = st.sampled_from([np.inf, -np.inf, np.nan])


@settings(max_examples=150, deadline=None)
@given(rows=st.integers(1, 9), width=st.integers(1, 5), dn=st.sampled_from([1.0, 0.3, 7.0 / 3.0]),
       data=st.data())
def test_audit_matches_a_whole_grid_recount_on_nonfinite_values(rows, width, dn, data):
    # Blocks of 5 values, spacings that straddle the collision limit at a dn
    # other than 1, negative speeds, and up to four infinities or NaNs in the
    # positions and speeds: a block skips its division and its isfinite count
    # only when that leaves the report unchanged.
    x = -(7.0 * dn) * np.arange(width) + np.arange(rows)[:, None]
    v = np.ones((rows, width))
    for a in (x, v):
        for _ in range(data.draw(st.integers(0, 3))):
            a[data.draw(st.integers(0, rows - 1)), data.draw(st.integers(0, width - 1))] += data.draw(st.floats(-1.5, 1.5))
    for _ in range(data.draw(st.integers(0, 4))):
        a = data.draw(st.sampled_from([x, v]))
        a[data.draw(st.integers(0, rows - 1)), data.draw(st.integers(0, width - 1))] = data.draw(_ODD)
    sc = replace(load_spec(template_text("greenshields-shock-a")).scenario, dn=dn, dt=1.0)
    traj = Trajectory(times=np.arange(rows, dtype=float), positions=x, speeds=v, scenario=sc)
    with pytest.MonkeyPatch.context() as mp, np.errstate(invalid="ignore"):
        mp.setattr(lagwave.analysis, "_AUDIT_BLOCK", 5)
        rep = diagnose(traj)
        want = _reference_diagnose(traj)
    _assert_same_report(rep, want)


@settings(max_examples=200, deadline=None)
@given(mask=arrays(bool, array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=9)),
       j0=st.integers(0, 10**6), col=st.integers(0, 1))
@example(mask=np.zeros((0, 5), dtype=bool), j0=3, col=1)
@example(mask=np.zeros((4, 0), dtype=bool), j0=3, col=1)
@example(mask=np.zeros((4, 5), dtype=bool), j0=0, col=0)
@example(mask=np.ones((4, 5), dtype=bool), j0=7, col=1)
@example(mask=np.ones((6, 1), dtype=bool), j0=2, col=0)
@example(mask=np.eye(3, 7, k=2, dtype=bool), j0=11, col=1)
def test_events_match_argwhere(mask, j0, col):
    got, want = _events(mask, j0, col), np.argwhere(mask) + (j0, col)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


def _counting_events(monkeypatch):
    calls = []

    def counted(mask, j0, col):
        rows = _events(mask, j0, col)
        calls.append((j0, col, len(rows)))
        return rows

    monkeypatch.setattr(lagwave.analysis, "_events", counted)
    return calls


def test_clean_run_searches_no_block(monkeypatch):
    spec = load_spec(template_text("greenshields-shock-a"))
    traj = simulate(spec.scenario, model=spec.model, scheme=spec.scheme)
    calls = _counting_events(monkeypatch)
    assert diagnose(traj).clean
    assert calls == []


def test_only_blocks_with_events_are_searched(monkeypatch, tiny_blocks):
    spec = load_spec(template_text("jwz-redlight"))
    traj = simulate(spec.scenario, model=spec.model, scheme=spec.scheme)
    calls = _counting_events(monkeypatch)
    rep = diagnose(traj)
    assert rep.collision_count and rep.negative_speed_count
    rows = max(1, lagwave.analysis._AUDIT_BLOCK // traj.positions.shape[1])
    want = {(j0, col) for col, events in ((1, rep.collision_events), (0, rep.negative_speed_events))
            for j0 in (events[:, 0] // rows * rows).tolist()}
    assert sorted((j0, col) for j0, col, _ in calls) == sorted(want)
    assert all(n for *_, n in calls)


@pytest.fixture(scope="module")
def wide_run():
    """triangular-discharge cut to half its duration: 961 slots, 5.1 MB per array."""
    spec = load_spec(template_text("triangular-discharge"))
    sc = spec.scenario
    traj = simulate(replace(sc, duration=0.5 * sc.duration), model=spec.model, scheme=spec.scheme)
    assert traj.positions.nbytes >= 5_000_000
    return traj


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_audit_memory_is_a_block(wide_run):
    # The whole-grid audit held spacings and accelerations, about 2x.
    peak, grid = _traced_peak(diagnose, wide_run), wide_run.positions.nbytes
    assert peak < grid / 4


def test_run_memory_is_a_block(tmp_path):
    # The run held both (J+1, M+1) grids, about 2x, and its whole-grid writer
    # a (J, M+1) acceleration grid, about 1x: it now holds the stream's block
    # and the writer's lists.  This bounds the writer on the blocks it gets.
    spec = load_spec(template_text("triangular-discharge"))
    sc = replace(spec.scenario, duration=0.5 * spec.scenario.duration)
    grid = (sc.steps + 1) * (sc.m + 1) * 8
    assert grid >= 5_000_000
    with contextlib.redirect_stdout(io.StringIO()):
        peak = _traced_peak(run, replace(spec, scenario=sc, output_dir=str(tmp_path)))
    assert peak < grid / 4


def test_sweep_memory_is_a_block(tmp_path):
    # The sweep held the finest dn's two (J+1, M+1) grids, about 2x: it now
    # holds a stream's block, the writer's lists and the displayed vehicles'
    # positions of two dn values.
    spec = load_spec(template_text("triangular-discharge"))
    spec = replace(spec, scenario=replace(spec.scenario, duration=0.5 * spec.scenario.duration),
                   output_dir=str(tmp_path))
    dn_list = (1.0, 0.0625)
    sc = replace(spec.scenario, dn=dn_list[-1], dt=spec.dt_ratio * dn_list[-1], m=round(spec.vehicles / dn_list[-1]))
    grid = (sc.steps + 1) * (sc.m + 1) * 8
    assert grid >= 5_000_000
    with contextlib.redirect_stdout(io.StringIO()):
        peak = _traced_peak(sweep, spec, dn_list)
    assert peak < grid / 4


def _short_run():
    """greenshields-shock-a cut to 10 steps: 161 slots, 11 rows."""
    spec = load_spec(template_text("greenshields-shock-a"))
    sc = spec.scenario
    return simulate(replace(sc, duration=10 * sc.dt), model=spec.model, scheme=spec.scheme)


@pytest.mark.parametrize("case", ["greenshields-shock-a:m=0", "greenshields-shock-a:duration=0",
                                  "greenshields-shock-b:special", "short"])
def test_row_blocks_cover_the_grid_once(case):
    traj = _short_run() if case == "short" else _case_trajectory(case)
    count, width = traj.positions.shape
    # tobytes compares NaN, infinities and signed zeros exactly
    want_acc = np.concatenate((traj.accelerations, np.zeros((1, width)))).tobytes()
    for values in range(1, width + 4):
        rows = max(1, values // width)
        blocks = list(_row_blocks(traj, values))
        assert [j0 for j0, *_ in blocks] == list(range(0, count, rows))
        for j0, x, v, a in blocks:
            assert len(x) == len(v) == len(a) == min(rows, count - j0)
            assert x.tobytes() == traj.positions[j0 : j0 + rows].tobytes()
            assert v.tobytes() == traj.speeds[j0 : j0 + rows].tobytes()
        assert np.concatenate([a for *_, a in blocks]).tobytes() == want_acc


def test_row_blocks_keep_no_block():
    # The audit frees each block's accelerations before it builds the next
    # block-sized array; a reference held by the walk would double its peak.
    traj = _short_run()
    walk = _row_blocks(traj, 2 * traj.positions.shape[1])
    for _, _, _, a in walk:
        ref = weakref.ref(a)
        del a
        assert ref() is None
