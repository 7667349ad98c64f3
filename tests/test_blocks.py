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
import reference
from lagwave.analysis import COLLISION_TOL, NEGATIVE_SPEED_TOL, _Crossings, _events, diagnose, sweep_dn
from lagwave.cli import load_spec, run, sweep
from lagwave.engine import Scenario, Scheme, Trajectory, _row_blocks, _stream, simulate
from lagwave.fundamental import GreenshieldsFD
from lagwave.templates import template_text
from reference import CASES, RUN_CASES, SWEEPABLE, assert_same_report, case_spec, case_trajectory


@pytest.fixture
def tiny_blocks(monkeypatch):
    monkeypatch.setattr(lagwave.cli, "_CSV_BLOCK", 7)
    monkeypatch.setattr(lagwave.cli, "_RUN_BLOCK", 11)
    monkeypatch.setattr(lagwave.analysis, "_AUDIT_BLOCK", 5)


@functools.lru_cache(maxsize=None)
def _reference_csv_sha256(case):
    """sha256 of the whole-grid writer's trajectory.csv for ``case``, made once."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "want.csv")
        reference.write_csv(path, case_trajectory(case))
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", CASES)
def test_blocked_passes_match_whole_grid(case, tiny_blocks):
    traj = case_trajectory(case)
    assert_same_report(diagnose(traj), reference.diagnose(traj))


def _block_bytes(blocks):
    """Each block's j0 and its arrays' bytes, taken as it is walked: a
    streamed block's views are overwritten by the next."""
    return [(j0, x.tobytes(), v.tobytes(), a.tobytes()) for j0, x, v, a in blocks]


@pytest.mark.parametrize("case", RUN_CASES)
def test_stream_reproduces_simulate(case):
    # tobytes compares NaN, infinities and signed zeros exactly.  Blocks are
    # sized by values: one value and one row plus three (a row each), three
    # rows, and the grid's J and J + 1 rows, where the last block holds one
    # row and where one block holds the grid.
    spec = case_spec(case)
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
    want = reference.run_kernel(reference.step_kernel, sc.fd, sc.dn, sc.dt, traj.positions[0], traj.speeds[0],
                                lead, spec.model, spec.scheme)
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


@pytest.mark.parametrize("case", RUN_CASES)
def test_streamed_run_writes_the_whole_grid_bytes(case, tiny_blocks, tmp_path, monkeypatch):
    # Two rows per block: a crossing on an even row falls on a block's first
    # row and is interpolated from the row carried over from the block before.
    traj = case_trajectory(case)
    monkeypatch.setattr(lagwave.cli, "_RUN_BLOCK", 2 * traj.positions.shape[1])
    if case.endswith(":special"):
        # No scenario steps to the edited values: the run walks the edited record.
        monkeypatch.setattr(lagwave.cli, "_stream", lambda sc, model, scheme, values: _row_blocks(traj, values))
    with contextlib.redirect_stdout(io.StringIO()):
        run(replace(case_spec(case), output_dir=str(tmp_path)))
    assert _sha256(tmp_path / "trajectory.csv") == _reference_csv_sha256(case)
    assert (tmp_path / "summary.txt").read_text() == reference.summary(traj)


@pytest.mark.parametrize("dn_list", [(1, 0.5, 0.25, 0.125, 0.0625), (1, 2.5), (0.5, 1, 0.3)],
                         ids=["halving", "coarser", "unordered"])
@pytest.mark.parametrize("case", SWEEPABLE + ["greenshields-discharge:duration=0"])
def test_streamed_sweep_writes_the_whole_grid_files(case, dn_list, tiny_blocks, tmp_path):
    # One row per block at 961 slots; at dn = 2.5 vehicle 1 rounds to the leader.
    spec = case_spec(case) if ":" in case else load_spec(template_text(case))
    want, got = tmp_path / "want", tmp_path / "got"
    want.mkdir()
    want_rows, want_stdout = reference.sweep(spec, dn_list, str(want))
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
    assert all(math.isnan(row.max_abs_accel) for row in rows) == case.endswith(":duration=0")


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
    traj = reference.trajectory(x, v, dt=0.3)
    crossings = _Crossings(1.0, rising)
    for j0 in range(0, 6, rows):
        block = [a[j0 : j0 + rows].copy() for a in (traj.times, x, v)]
        crossings.add(*block)
        for a in block:
            a.fill(np.nan)
    got, want = crossings.points(), reference.crossings(traj, 1.0, rising)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    assert got[0].size == 2 and np.signbit(got[1][1])


def test_special_case_has_what_it_names():
    v = case_trajectory("greenshields-shock-b:special").speeds
    assert np.isnan(v).any() and np.isposinf(v).any() and np.isneginf(v).any()
    assert np.signbit(v[v == 0.0]).any()


def test_corpus_trajectories_are_read_only():
    # Every test shares one trajectory per case, so none may write into it.
    traj = case_trajectory(CASES[0])
    for a in (traj.times, traj.positions, traj.speeds):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


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
    traj = reference.trajectory(x, v)
    rep = diagnose(traj)
    assert_same_report(rep, reference.diagnose(traj))
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
    traj = reference.trajectory(x, v)
    rep = diagnose(traj)
    assert_same_report(rep, reference.diagnose(traj))
    assert rep.collision_events.tolist() == [[4, 2]]
    assert rep.negative_speed_events.tolist() == [[4, 2]]


def test_audit_events_carry_their_block_offsets(tiny_blocks):
    x, v = _platoon(rows=7, width=3)
    x[5, 2] = x[5, 1] - 1.0  # vehicle 2 runs into vehicle 1 at row 5
    v[3, 1] = -1.0
    traj = reference.trajectory(x, v)
    rep = diagnose(traj)
    assert rep.collision_events.tolist() == [[5, 2]]
    assert rep.negative_speed_events.tolist() == [[3, 1]]
    assert_same_report(rep, reference.diagnose(traj))


@pytest.mark.parametrize("delta, events", [(0, 0), (-1, 1), (1, 0)], ids=["at", "ulp-below", "ulp-above"])
def test_audit_spacing_at_the_limit(delta, events, tiny_blocks):
    limit = load_spec(template_text("greenshields-shock-a")).scenario.fd.S - COLLISION_TOL
    gap = np.nextafter(limit, delta * np.inf) if delta else limit
    x, v = _platoon(width=2)
    x[3] = 0.0, -gap  # 0.0 - (-gap) is gap exactly, and dn is 1
    traj = reference.trajectory(x, v)
    rep = diagnose(traj)
    assert_same_report(rep, reference.diagnose(traj))
    assert rep.collision_events.tolist() == [[3, 1]] * events
    assert (rep.min_spacing == limit) == (delta == 0)


@pytest.mark.parametrize("ulps, events", [(0, 0), (1, 1)], ids=["at", "ulp-below"])
def test_audit_speed_at_the_limit(ulps, events, tiny_blocks):
    x, v = _platoon(width=2)
    v[4, 1] = -NEGATIVE_SPEED_TOL if ulps == 0 else np.nextafter(-NEGATIVE_SPEED_TOL, -np.inf)
    traj = reference.trajectory(x, v)
    rep = diagnose(traj)
    assert_same_report(rep, reference.diagnose(traj))
    assert rep.negative_speed_events.tolist() == [[4, 1]] * events


def test_audit_leader_only_negative_speed(tiny_blocks):
    # Width 1: every spacing block is empty, and the speed blocks are one column.
    x, v = _platoon(width=1)
    v[3, 0] = -1.0
    traj = reference.trajectory(x, v)
    rep = diagnose(traj)
    assert_same_report(rep, reference.diagnose(traj))
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
    traj = reference.trajectory(x, v)
    rep = diagnose(traj)
    assert_same_report(rep, reference.diagnose(traj))
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
        want = reference.diagnose(traj)
    assert_same_report(rep, want)


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


# A forked formatter inherits tracing, which traces every float it renders and
# makes a traced run ten times slower; the parent's peak never counts a
# child's allocations, so each child stops tracing as it starts.
os.register_at_fork(after_in_child=tracemalloc.stop)


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
    traj = _short_run() if case == "short" else case_trajectory(case)
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
