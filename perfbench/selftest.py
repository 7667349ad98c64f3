"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at ``--size tiny`` for one second,
untraced and traced, and checks that the last line of output is the JSON
object the benchmark promises: exactly the keys correct, attempted, failed
and metrics; every end-to-end (untraced) or per-layer (traced) metric of
BENCHMARK.json present with its unit and a finite value; no failed
operation.  It also checks span self-time arithmetic, and that the
benchmark refuses to run, printing no result, in a directory holding only
BENCHMARK.json and the benchmark.  Exits 0 when everything holds.  Takes
about two minutes.
"""
from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BARE = os.path.join(ROOT, ".perfbench_out", "selftest-bare")


def _run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def _check_output(proc: subprocess.CompletedProcess, expected: dict[str, str]) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"correct {result['correct']}, attempted {result['attempted']}, failed {result['failed']}")
        problems += [line for line in proc.stdout.splitlines() if line.startswith("FAILED")]
    got = result["metrics"]
    if set(got) != set(expected):
        problems.append(f"metrics missing {sorted(set(expected) - set(got))}, extra {sorted(set(got) - set(expected))}")
    for name, unit in expected.items():
        if name in got:
            m = got[name]
            if m.get("unit") != unit:
                problems.append(f"{name}: unit {m.get('unit')!r}, expected {unit!r}")
            if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
                problems.append(f"{name}: value {m.get('value')!r}")
    return problems


def _check_self_times() -> list[str]:
    # tracing.py imports lagwave; check its arithmetic in a child that can.
    code = (
        "import tracing\n"
        "spans = [['a', 0, 100, -1], ['b', 10, 40, 0], ['c', 15, 25, 1], ['d', 50, 60, 0]]\n"
        "assert tracing.self_times(spans) == [60, 20, 10, 10], tracing.self_times(spans)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((HERE, os.path.join(ROOT, "src"))))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    return [] if proc.returncode == 0 else [f"self_times: {proc.stderr[-2000:]}"]


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    units = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
             1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    failures = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            problems = _check_output(_run(ROOT, workload, trace), units[trace])
            failures += bool(problems)
            print(f"{workload} trace {trace}: " + ("ok" if not problems else "FAIL"))
            for p in problems:
                print("  " + p)

    problems = _check_self_times()
    failures += bool(problems)
    print("span self times: " + ("ok" if not problems else "FAIL " + "; ".join(problems)))

    shutil.rmtree(BARE, ignore_errors=True)
    os.makedirs(BARE)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), BARE)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(BARE, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(BARE, bench["workloads"][0]["name"], 0)
    printed_result = proc.stdout.strip().endswith("}")
    ok = proc.returncode != 0 and not printed_result
    failures += not ok
    print(f"bare directory: {'ok' if ok else 'FAIL'} (exit {proc.returncode}, result printed: {printed_result})")
    shutil.rmtree(BARE, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
