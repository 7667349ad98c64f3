"""lagwave's benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload cli-templates --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Each sample is one fresh Python child (``child.py``), and children run one
at a time: the machine this was written on has 2 cores, and a second child
would time the first.  Children are started until ``--seconds`` have
passed (at least three); set-up is sampled at least seven times, with extra
set-up-only children where the workload's children are too few.
``setup_s``, ``wall_s`` and ``peak_rss_mb`` are medians over the samples
(``wall_s`` per operation, summed), and the two times are in reference-core
seconds: scaled by the calibration kernel timed next to them
(``calibrate.py``), because the shared host's slow stretches outlast a run.
The unscaled times are printed and recorded next to them.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` alternates
untraced and traced children and reports the per-layer metrics, the time
no span covers, and the tracing overhead.  Human-readable lines come first;
the last line of standard output is one JSON object.  A full record (the
environment, every child's numbers, each metric's quartiles and each
operation's result sha256) goes to ``.perfbench_out/records/``.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("cli-templates", "long-platoon", "rival-audit", "thresholds-grid")

MIN_CHILDREN = 3
MIN_SETUP_SAMPLES = 7
IMPORTTIME_SAMPLES = 3
STOP_STARTING_AFTER_S = 90.0  # with the child timeout, keeps a run inside 180 s
CHILD_TIMEOUT_S = 60.0


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _environment() -> dict:
    def version(dist: str) -> str:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "commit": _git_commit(),
        "kernel_reference_s": calibrate.REFERENCE_S,
    }


def _git_commit() -> str:
    """HEAD read from .git without running git; 'unknown' outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            return next(line.split()[0] for line in fh if line.rstrip().endswith(" " + ref))
    except (OSError, StopIteration):
        return "unknown"


class ChildFailed(RuntimeError):
    pass


class Runner:
    """Starts children one at a time and collects their result files."""

    def __init__(self, args, run_dir: str):
        self.args = args
        self.run_dir = run_dir
        self.count = 0
        path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
        self.env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED="0")

    def child(self, workload: bool, trace: int = 0, importtime: bool = False) -> dict:
        self.count += 1
        tag = f"c{self.count:03d}"
        result_path = os.path.join(self.run_dir, tag + ".json")
        cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
        cmd += [os.path.join(HERE, "child.py"), "--result", result_path]
        if workload:
            cmd += ["--workload", self.args.workload, "--seed", str(self.args.seed), "--size", self.args.size,
                    "--trace", str(trace), "--out-dir", os.path.join(self.run_dir, tag)]
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=self.env, cwd=ROOT, stdin=subprocess.DEVNULL,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0 or not os.path.exists(result_path):
            raise ChildFailed(f"child {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        with open(result_path) as fh:
            result = json.load(fh)
        result.update(tag=tag, trace=trace, elapsed_s=elapsed)
        if importtime:
            result["import"] = _parse_importtime(proc.stderr)
        return result


def _parse_importtime(stderr: str) -> dict[str, float]:
    """Import-layer seconds from ``-X importtime`` lines (self and cumulative, in us)."""
    selfs: dict[str, float] = {"numpy": 0.0, "scipy": 0.0, "lagwave": 0.0}
    total = 0.0
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|(\s*)(\S+)", line)
        if not m:
            continue
        own, cumulative, name = int(m.group(1)), int(m.group(2)), m.group(4)
        top = name.split(".")[0]
        if top in selfs:
            selfs[top] += own * 1e-6
        if name == "lagwave":
            total = cumulative * 1e-6
    return {"import.total_s": total, "import.scipy_s": selfs["scipy"],
            "import.numpy_s": selfs["numpy"], "import.lagwave_self_s": selfs["lagwave"]}


def _collect(runner: Runner, traced: bool) -> list[dict]:
    """Workload children until --seconds have passed.

    Traced runs alternate untraced and traced children, at least two of
    each, so the tracing overhead compares median passes of equal samples.
    """
    children: list[dict] = []
    needed = 4 if traced else MIN_CHILDREN
    start = time.perf_counter()
    while True:
        trace = int(traced and len(children) % 2 == 1)
        children.append(runner.child(workload=True, trace=trace))
        elapsed = time.perf_counter() - start
        typical = statistics.median(c["elapsed_s"] for c in children)
        if len(children) >= needed and (elapsed + typical > runner.args.seconds
                                        or elapsed > STOP_STARTING_AFTER_S):
            return children


def _check_children(children: list[dict]) -> tuple[int, int, list[str]]:
    """Attempted and failed operations; a result that differs from the first child's fails too."""
    attempted = failed = 0
    problems = []
    reference = {op["name"]: op["sha256"] for op in children[0]["ops"]}
    for child in children:
        for op in child["ops"]:
            attempted += 1
            bad = list(op["problems"])
            if op["sha256"] != reference.get(op["name"]):
                bad.append("result differs from the first child's: output is not deterministic")
            if bad:
                failed += 1
                problems.append(f"{child['tag']} {op['name']}: " + "; ".join(p.strip() for p in bad))
    return attempted, failed, problems


def _op_times(children: list[dict], key: str = "ref_seconds") -> list[tuple[float, ...]]:
    """Each operation's times over the children, in operation order."""
    return list(zip(*[[op[key] for op in c["ops"]] for c in children]))


def _median_pass(children: list[dict], key: str = "ref_seconds") -> float:
    """Each operation's median time over the children, summed."""
    return sum(statistics.median(times) for times in _op_times(children, key))


def _end_to_end(children: list[dict], setup: list[dict], attempted: int, failed: int) -> tuple[dict, dict]:
    """Bounded metrics, their samples, and the reported-only metrics."""
    samples = {
        "setup_s": [s["setup_ref_s"] for s in setup],
        "wall_s": [c["wall_ref_s"] for c in children],
        "peak_rss_mb": [c["peak_rss_mb"] for c in children],
    }
    bounded = {
        "setup_s": statistics.median(samples["setup_s"]),
        "wall_s": _median_pass(children),
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
    }
    errs = [e for c in children for op in c["ops"] for e in op["rel_errs"]]
    kernel = [s["setup_kernel_s"] for s in setup] + [op["kernel_s"] for c in children for op in c["ops"]]
    reported = {
        "setup_raw_s": statistics.median(s["setup_s"] for s in setup),
        "wall_raw_s": _median_pass(children, "seconds"),
        "host_slowdown": statistics.median(kernel) / calibrate.REFERENCE_S,
        "vehicle_steps_per_s": children[0]["vehicle_steps"] / bounded["wall_s"],
        "output_mb": children[0]["bytes_written"] / 1e6,
        "failed_ops": failed / attempted,
        "oracle_max_rel_err": max(errs) if errs else 0.0,
    }
    return bounded, {"samples": samples, "reported": reported}


UNITS = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
    # Reported, not bounded: the unscaled times and the kernel's slowdown
    # track the host's load; each of the others is 0 on some workload
    # (see README.md).
    "setup_raw_s": "s", "wall_raw_s": "s", "host_slowdown": "1",
    "vehicle_steps_per_s": "1/s", "output_mb": "MB", "failed_ops": "share", "oracle_max_rel_err": "1",
}
LAYER_UNITS = {
    "import.total_s": "s", "import.scipy_s": "s", "import.numpy_s": "s", "import.lagwave_self_s": "s",
    "cli.load_spec_s": "s", "cli.serialize_s": "s", "cli.self_s": "s", "cli.bytes_written": "B",
    "cli.ns_per_value": "ns",
    "engine.simulate_s": "s", "engine.steps": "count", "engine.vehicle_steps": "count",
    "engine.us_per_step": "us", "engine.ns_per_vehicle_step": "ns", "engine.bytes_computed": "B",
    "fundamental.theta_calls": "count", "fundamental.theta_s": "s",
    "analysis.diagnose_s": "s", "analysis.events": "count", "analysis.measure_s": "s",
    "analysis.crossings": "count", "analysis.stability_self_s": "s",
    "conditions.self_s": "s", "conditions.cache_misses": "count", "conditions.cache_hit_ratio": "ratio",
    "trace.uncovered_s": "s", "trace.overhead_s": "s",
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True, help="draws the diagrams, omegas and lead speeds")
    parser.add_argument("--seconds", type=float, required=True, help="how long to keep starting children")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few small operations per workload, for the self-test")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "lagwave", "__init__.py")):
        print(f"error: no lagwave sources under {SRC}; run from the root of a lagwave checkout",
              file=sys.stderr)
        return 2

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    run_dir = os.path.join(OUT, "runs", run_id)
    records = os.path.join(OUT, "records")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    os.makedirs(records, exist_ok=True)
    runner = Runner(args, run_dir)
    started = time.time()
    try:
        children = _collect(runner, traced=bool(args.trace))
        untraced = [c for c in children if not c["trace"]]
        setup = list(untraced)
        while len(setup) < MIN_SETUP_SAMPLES:
            setup.append(runner.child(workload=False))
        imports = [runner.child(workload=False, importtime=True)["import"]
                   for _ in range(IMPORTTIME_SAMPLES if args.trace else 0)]
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        shutil.rmtree(run_dir, ignore_errors=True)
        return 1

    attempted, failed, problems = _check_children(children)
    bounded, detail = _end_to_end(untraced, setup, attempted, failed)
    env = _environment()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "size": args.size, "started": started, "environment": env,
        "children": len(children), "setup_samples": len(setup),
        "attempted": attempted, "failed": failed, "problems": problems,
        "end_to_end": bounded, **detail,
        "quartiles": {name: _quartiles(vals) for name, vals in detail["samples"].items()},
        "ops": [{k: op[k] for k in ("name", "config_sha256", "sha256", "bytes", "ok")}
                for op in children[0]["ops"]],
        "op_seconds": {op["name"]: {"raw": [c["ops"][i]["seconds"] for c in untraced],
                                    "kernel": [c["ops"][i]["kernel_s"] for c in untraced]}
                       for i, op in enumerate(children[0]["ops"])},
    }

    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  trace {args.trace}")
    print("environment " + "  ".join(f"{k} {v}" for k, v in env.items()))
    print(f"children {len(children)}  setup samples {len(setup)}  operations {attempted}  failed {failed}")
    for line in problems[:20]:
        print("FAILED " + line)

    print(f"{'metric':<30}{'value':>14}  {'unit':<8}samples: q1, median, q3")
    for name, value in {**bounded, **detail["reported"]}.items():
        quartiles = record["quartiles"].get(name)
        spread = ", ".join(f"{q:.6g}" for q in quartiles) if quartiles else ""
        print(f"{name:<30}{value:>14.6g}  {UNITS[name]:<8}{spread}")
    if args.trace:
        traced = [c for c in children if c["trace"]]
        samples = {name: [c["layers"][name] for c in traced] for name in traced[0]["layers"]}
        samples.update({name: [i[name] for i in imports] for name in imports[0]})
        metrics = {name: statistics.median(vals) for name, vals in samples.items()}
        metrics["trace.overhead_s"] = _median_pass(traced) - _median_pass(untraced)
        record["layers"] = metrics
        record["layer_quartiles"] = {name: _quartiles(vals) for name, vals in samples.items()}
        spans = os.path.join(records, run_id + "-spans.json")
        shutil.copyfile(traced[-1]["spans"], spans)
        record["spans"] = os.path.relpath(spans, ROOT)
        units = LAYER_UNITS
        for name, value in metrics.items():
            print(f"{name:<30}{value:>14.6g}  {units[name]}")
    else:
        metrics, units = bounded, UNITS

    with open(os.path.join(records, run_id + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    shutil.rmtree(run_dir, ignore_errors=True)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
