"""The row-block passes over a run's grid, the CSV writer and the audit,
against the whole-grid code they replaced.  The equivalence tests shrink
both block sizes so that every grid crosses many block edges; the memory
tests keep the defaults and bound what one pass holds."""
import os
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

import lagwave.analysis
import lagwave.cli
from lagwave.analysis import COLLISION_TOL, NEGATIVE_SPEED_TOL, diagnose
from lagwave.cli import _write_trajectory_csv, load_spec
from lagwave.engine import Scheme, Trajectory, _row_blocks, simulate
from lagwave.templates import TEMPLATES, template_text


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


def _case_trajectory(case):
    name, variant = case.split(":")
    spec = load_spec(template_text(name))
    sc = spec.scenario
    if variant == "m=0":
        return simulate(replace(sc, m=0), model=spec.model, scheme=spec.scheme)
    if variant == "duration=0":
        return simulate(replace(sc, duration=0.0), model=spec.model, scheme=spec.scheme)
    if variant == "special":
        traj = simulate(replace(sc, m=6, duration=3 * sc.dt), model=spec.model, scheme=spec.scheme)
        x, v = traj.positions.copy(), traj.speeds.copy()
        v[0, 3] = -0.0
        v[1, 2] = np.nan
        v[2, 4] = np.inf
        v[2, 5] = -np.inf
        v[-1, -1] = -0.0
        x[1, 6] = np.nan
        return Trajectory(times=traj.times, positions=x, speeds=v, scenario=traj.scenario)
    # the shock templates use the equilibrium model, which every scheme supports
    return simulate(sc, model=spec.model, scheme=Scheme(variant))


@pytest.mark.parametrize("case", _cases())
def test_blocked_passes_match_whole_grid(case, tiny_blocks, tmp_path):
    traj = _case_trajectory(case)
    _assert_same_report(diagnose(traj), _reference_diagnose(traj))
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    _write_trajectory_csv(str(got), traj)
    _reference_write_trajectory_csv(str(want), traj)
    assert got.read_bytes() == want.read_bytes()


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


def test_audit_events_carry_their_block_offsets(tiny_blocks):
    x, v = _platoon(rows=7, width=3)
    x[5, 2] = x[5, 1] - 1.0  # vehicle 2 runs into vehicle 1 at row 5
    v[3, 1] = -1.0
    traj = _trajectory(x, v)
    rep = diagnose(traj)
    assert rep.collision_events.tolist() == [[5, 2]]
    assert rep.negative_speed_events.tolist() == [[3, 1]]
    _assert_same_report(rep, _reference_diagnose(traj))


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


def test_writer_memory_is_a_block(wide_run):
    # The whole-grid writer held a (J, M+1) acceleration grid, about 1x.
    peak, grid = _traced_peak(_write_trajectory_csv, os.devnull, wide_run), wide_run.positions.nbytes
    assert peak < grid / 4


def test_audit_memory_is_a_block(wide_run):
    # The whole-grid audit held spacings and accelerations, about 2x.
    peak, grid = _traced_peak(diagnose, wide_run), wide_run.positions.nbytes
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
