"""Record the benchmark's trajectory points, and compare two trees in pairs.

    python3 tools/bench.py point --out BENCH_<name>.json [--rev REV]
    python3 tools/bench.py pair --workload rival-audit --base REV [--pairs 10] [--seed 1]

Both modes run ``perfbench/run.py --trace 0`` with the run length of
BENCHMARK.json, one run at a time, each in a fresh export of its tree:
``git archive REV``, or the working tree's tracked and unignored files,
which are a point's tree where no revision is given and a pair's change.
A run's full record, which the next run with the same arguments
replaces, is copied to ``.perfbench_out/bench/`` as soon as it is
written.

``point`` runs every workload once per seed of ``SEEDS`` and writes, per
workload, the median and quartiles over the seeds of the three bounded
metrics, ``setup_raw_s``, ``wall_raw_s`` and ``host_slowdown``, next to
numpy's baseline and enabled CPU features and whether the runs could
write bytecode (``_writes_bytecode``).  Read ``setup_s`` next to
``setup_raw_s``: the scaled set-up moves with the host's load.  Then it
runs tier-1 (``TIER1``) in the same tree and records its wall time, its
closing summary line and its 10 slowest tests.

``pair`` runs one workload N times on each of two trees, the base
revision's and the working tree's, alternating which runs first, and
prints whether the runs could write bytecode, each pair, then per metric
the change's wins (lower in n of N, ties counting for neither), each
side's median and quartiles and the median of the pairs' change/base
ratios.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KEPT = os.path.join(ROOT, ".perfbench_out", "bench")
SEEDS = (1, 2, 3)
METRICS = ("setup_s", "wall_s", "peak_rss_mb", "setup_raw_s", "wall_raw_s", "host_slowdown")
# ROADMAP's tier-1 command, with src/ on the path, plus pytest's 10 slowest tests.
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=10")

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout


def _export(rev: str | None, dest: str) -> str:
    """Write the tree of ``rev``, or the working tree, to ``dest``; return its description."""
    if rev is not None:
        with tarfile.open(fileobj=io.BytesIO(_git("archive", rev))) as tar:
            tar.extractall(dest, filter="data")
        return _git("rev-parse", rev).decode().strip()
    for name in _git("ls-files", "-z", "--cached", "--others", "--exclude-standard").decode().split("\0"):
        if name and os.path.isfile(os.path.join(ROOT, name)):
            os.makedirs(os.path.dirname(os.path.join(dest, name)), exist_ok=True)
            shutil.copy2(os.path.join(ROOT, name), os.path.join(dest, name))
    dirty = bool(_git("status", "--porcelain", "--untracked-files=no").strip())
    return _git("rev-parse", "HEAD").decode().strip() + (" with uncommitted changes" if dirty else "")


def _run(tree: str, workload: str, seed: int, keep_as: str) -> dict:
    """One perfbench run in ``tree``: its bounded and reported metrics, the record kept as ``keep_as``."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(BENCH["run_seconds"]), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench/run.py failed in {tree}:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    record_path = os.path.join(tree, ".perfbench_out", "records", f"{workload}-seed{seed}-trace0-full.json")
    os.makedirs(KEPT, exist_ok=True)
    shutil.copyfile(record_path, os.path.join(KEPT, keep_as))
    with open(record_path) as fh:
        record = json.load(fh)
    metrics = {**record["end_to_end"], **record["reported"]}
    return {"failed": record["failed"], "attempted": record["attempted"], **{m: metrics[m] for m in METRICS}}


def _tier1(tree: str) -> dict:
    """Tier-1 in ``tree``: its wall time, its closing summary line and its 10 slowest tests."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, ("src", os.environ.get("PYTHONPATH"))))}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=tree, env=env, capture_output=True, text=True,
                          timeout=3600)
    wall = time.perf_counter() - start
    lines = proc.stdout.splitlines()
    durations = re.compile(r"(\d+\.\d+)s (\w+) +(.+)$")
    slowest = [m.groups() for m in map(durations.match, lines) if m]
    return {"command": "PYTHONPATH=src python " + " ".join(TIER1), "wall_s": wall, "summary": lines[-1] if lines else "",
            "slowest": [{"s": float(s), "phase": phase, "test": test} for s, phase, test in slowest]}


def _writes_bytecode() -> bool:
    """Whether a child interpreter started as the runs are, in this environment, may
    write bytecode: ``sys.dont_write_bytecode`` is false (no ``PYTHONDONTWRITEBYTECODE``).
    Where it may not, each run compiles lagwave from source, which adds to its
    import time and can move its peak resident set by a garbage collection."""
    proc = subprocess.run([sys.executable, "-c", "import sys; print(sys.dont_write_bytecode)"],
                          capture_output=True, text=True, check=True)
    return proc.stdout.strip() == "False"


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def _cpu_features() -> dict:
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return {"baseline": list(umath.__cpu_baseline__),
            "enabled": sorted(name for name, on in umath.__cpu_features__.items() if on)}


def point(args) -> None:
    workloads = {}
    with tempfile.TemporaryDirectory() as tree:
        source = _export(args.rev, tree)
        for workload in (w["name"] for w in BENCH["workloads"]):
            runs = [_run(tree, workload, seed, f"point-{workload}-seed{seed}.json") for seed in SEEDS]
            print(f"{workload}: " + ", ".join(f"{m} {statistics.median(r[m] for r in runs):.6g}" for m in METRICS),
                  flush=True)
            workloads[workload] = {"failed": sum(r["failed"] for r in runs),
                                   "attempted": sum(r["attempted"] for r in runs),
                                   **{m: {**_spread([r[m] for r in runs]), "runs": [r[m] for r in runs]}
                                      for m in METRICS}}
        tier1 = _tier1(tree)
        print(f"tier-1: {tier1['summary']}, {tier1['wall_s']:.1f} s wall", flush=True)
    import numpy
    point = {"source": source, "seeds": list(SEEDS), "run_seconds": BENCH["run_seconds"],
             "python": sys.version.split()[0], "numpy": numpy.__version__, "numpy_cpu_features": _cpu_features(),
             "writes_bytecode": _writes_bytecode(), "workloads": workloads, "tier1": tier1}
    with open(args.out, "w") as fh:
        json.dump(point, fh, indent=1)
        fh.write("\n")


def pair(args) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: os.path.join(tmp, side) for side in ("base", "change")}
        for side, rev in (("base", args.base), ("change", None)):
            print(f"{side}: {_export(rev, trees[side])}", flush=True)
        print(f"runs write bytecode: {_writes_bytecode()}", flush=True)
        runs = {"base": [], "change": []}
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                runs[side].append(_run(trees[side], args.workload, args.seed, f"pair-{args.workload}-{side}-{i}.json"))
            b, c = runs["base"][-1], runs["change"][-1]
            print(f"pair {i + 1} ({order[0]} first): " + ", ".join(f"{m} {b[m]:.6g}/{c[m]:.6g}" for m in METRICS),
                  flush=True)
    failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs, base/change; failed operations {failed}")
    for m in METRICS:
        base, change = ([r[m] for r in runs[side]] for side in ("base", "change"))
        wins = sum(c < b for b, c in zip(base, change))
        ratio = statistics.median(c / b for b, c in zip(base, change))
        b, c = _spread(base), _spread(change)
        print(f"  {m:<14} change lower in {wins} of {args.pairs}; median ratio {ratio:.4f}; "
              f"base {b['median']:.6g} [{b['q1']:.6g}, {b['q3']:.6g}], "
              f"change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    modes = parser.add_subparsers(dest="mode", required=True)
    p = modes.add_parser("point", help="every workload over SEEDS, written as JSON")
    p.add_argument("--out", required=True, help="the point's file, BENCH_<name>.json at the repository root")
    p.add_argument("--rev", help="the revision to measure; the working tree by default")
    p.set_defaults(run=point)
    p = modes.add_parser("pair", help="one workload, alternating runs of a revision and the working tree")
    p.add_argument("--workload", required=True, choices=[w["name"] for w in BENCH["workloads"]])
    p.add_argument("--base", required=True, help="the revision to compare against")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(run=pair)
    args = parser.parse_args()
    args.run(args)


if __name__ == "__main__":
    main()
