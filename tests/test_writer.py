"""trajectory.csv from the run writer's two paths: a one-block run formatted
in process, and a longer one formatted by two forked formatters that write
alternate blocks at the offsets handed out in block order.  Both must give
the whole-grid writer's bytes, leave no process behind on any exit, and
hold no more than a block's text in any process."""
import contextlib
import errno
import io
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace

import pytest

import lagwave
import lagwave.analysis
import lagwave.cli
import reference
from lagwave.analysis import _at_dn
from lagwave.cli import _csv_chunks, _csv_tails, _doubles, load_spec, main, run, sweep
from lagwave.engine import _stream, simulate
from lagwave.templates import template_text


@pytest.fixture
def in_process_calls(monkeypatch):
    """The blocks (j0) rendered by this process: a forked formatter's calls
    land in its own copy of the list."""
    calls = []

    def counted(sc, tails, j0, x, v, a):
        calls.append(j0)
        return _csv_chunks(sc, tails, j0, x, v, a)

    monkeypatch.setattr(lagwave.cli, "_csv_chunks", counted)
    return calls


def _short_spec(steps):
    """greenshields-shock-a cut to ``steps`` steps: 161 slots, steps + 1 rows."""
    spec = load_spec(template_text("greenshields-shock-a"))
    return replace(spec, scenario=replace(spec.scenario, duration=steps * spec.scenario.dt))


@pytest.mark.parametrize("blocks", [1, 2, 3, 4])
@pytest.mark.parametrize("steps", [10, 11])
def test_run_writes_the_whole_grid_bytes_in_any_block_count(blocks, steps, tmp_path, monkeypatch, in_process_calls):
    # 11 and 12 rows in 1 to 4 blocks: odd and even counts, and a last block
    # shorter than the others (11 rows in blocks of 6, 4 or 3).
    spec = _short_spec(steps)
    sc = spec.scenario
    rows = math.ceil((sc.steps + 1) / blocks)
    monkeypatch.setattr(lagwave.cli, "_RUN_BLOCK", rows * (sc.m + 1))
    assert math.ceil((sc.steps + 1) / rows) == blocks
    with contextlib.redirect_stdout(io.StringIO()):
        run(replace(spec, output_dir=str(tmp_path)))
    reference.write_csv(tmp_path / "want.csv", simulate(sc, model=spec.model, scheme=spec.scheme))
    assert (tmp_path / "trajectory.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert in_process_calls == ([0] if blocks == 1 else [])


def test_zero_step_run_is_one_block_in_process(tmp_path, in_process_calls):
    spec = _short_spec(0)
    with contextlib.redirect_stdout(io.StringIO()):
        run(replace(spec, output_dir=str(tmp_path)))
    reference.write_csv(tmp_path / "want.csv", simulate(spec.scenario, model=spec.model, scheme=spec.scheme))
    assert (tmp_path / "trajectory.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert in_process_calls == [0]


def test_sweep_switches_between_the_paths(tmp_path, monkeypatch, in_process_calls):
    # greenshields-discharge's sweep is made one block at dn = 1 (230 rows of
    # 11 slots), so dn = 0.5 (four times the values) is forked and dn = 2 is
    # in process.
    spec = load_spec(template_text("greenshields-discharge"))
    sc = _at_dn(spec.scenario, 1.0, spec.vehicles, spec.dt_ratio)
    monkeypatch.setattr(lagwave.cli, "_RUN_BLOCK", (sc.steps + 1) * (sc.m + 1))
    dn_list = (1.0, 0.5, 2.0)
    want, got = tmp_path / "want", tmp_path / "got"
    want.mkdir()
    reference.sweep(spec, dn_list, str(want))
    with contextlib.redirect_stdout(io.StringIO()):
        sweep(replace(spec, output_dir=str(got)), dn_list)
    assert sorted(os.listdir(got)) == sorted(os.listdir(want))
    for path in want.iterdir():
        assert (got / path.name).read_bytes() == path.read_bytes(), path.name
    assert in_process_calls == [0, 0]


def _main_within(argv, seconds=60):
    """``main(argv)``, run in a thread that must end within ``seconds``: a
    formatter waiting on a pipe that is never closed fails the test, not the
    suite."""
    outcome = []

    def call():
        try:
            outcome.append(main(argv))
        except Exception as exc:  # raised again in the test's thread
            outcome.append(exc)

    thread = threading.Thread(target=call, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"main({argv}) still running after {seconds} s"
    if isinstance(outcome[0], Exception):
        raise outcome[0]
    return outcome[0]


def test_run_leaves_no_process(tmp_path, capfd):
    # greenshields-shock-a is 12 blocks at the default block size, each
    # several chunks of text.
    assert _main_within(["run", "greenshields-shock-a", "--out", str(tmp_path)]) == 0
    assert multiprocessing.active_children() == []
    assert capfd.readouterr().err == ""
    spec = load_spec(template_text("greenshields-shock-a"))
    reference.write_csv(tmp_path / "want.csv", simulate(spec.scenario, model=spec.model, scheme=spec.scheme))
    assert (tmp_path / "trajectory.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_main_process_failure_leaves_no_process(tmp_path, monkeypatch, capfd):
    add, calls = lagwave.analysis._Measures.add, []

    def add_two_blocks(self, *block):
        calls.append(block[0])
        if len(calls) == 3:
            raise RuntimeError("third block")
        add(self, *block)

    monkeypatch.setattr(lagwave.analysis._Measures, "add", add_two_blocks)
    with pytest.raises(RuntimeError, match="third block"):
        _main_within(["run", "greenshields-shock-a", "--out", str(tmp_path)])
    assert multiprocessing.active_children() == []
    # The formatters end quietly on EOF.
    assert capfd.readouterr().err == ""


def test_formatter_write_failure_is_one_error_line(tmp_path, monkeypatch, capfd):
    parent = os.getpid()
    pwrite = os.pwrite

    def full_disk(fd, data, offset):
        if os.getpid() != parent:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return pwrite(fd, data, offset)

    monkeypatch.setattr(os, "pwrite", full_disk)
    assert _main_within(["run", "greenshields-shock-a", "--out", str(tmp_path)]) == 2
    assert multiprocessing.active_children() == []
    out, err = capfd.readouterr()
    assert out == ""
    assert err == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"


def test_piped_sweep_prints_each_line_once(tmp_path):
    # stdout is a pipe, so block-buffered: a line still in the buffer at a
    # fork would be printed again by the formatter.
    src = os.path.dirname(os.path.dirname(os.path.abspath(lagwave.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "lagwave", "sweep", "greenshields-discharge", "--dn", "1,0.5,0.25",
         "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, check=False, timeout=120,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert len(lines) == 4 and len(set(lines)) == 4
    assert [line.split()[1] for line in lines[:3]] == ["dn=1", "dn=0.5", "dn=0.25"]


def test_formatter_memory_is_its_block_text():
    # A formatter holds one block's text until it learns the block's offset;
    # rendering it, from the raw bytes it receives, may add the last chunk's
    # template, values and lists, not a copy of the text or a grid.
    spec = load_spec(template_text("triangular-discharge"))
    j0, x, v, a = next(_stream(spec.scenario, spec.model, spec.scheme, lagwave.cli._RUN_BLOCK))
    assert x.size > lagwave.cli._RUN_BLOCK - x.shape[1]
    sc, tails = spec.scenario, _csv_tails(spec.scenario)
    raw = [_doubles(values.tobytes()) for values in (x, v, a)]
    tracemalloc.start()
    try:
        chunks = list(_csv_chunks(sc, tails, j0, *raw))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The ratio is 1.32 for this block: 961 slots render to 628 kB.
    assert peak < 1.5 * sum(map(len, chunks))
