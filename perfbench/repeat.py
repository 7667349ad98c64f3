"""Run the benchmark over several seeds and report each end-to-end metric's spread.

    python3 perfbench/repeat.py --workloads cli-templates,rival-audit --seeds 1-10 --out spread.json

For every workload it runs ``run.py`` once per seed, one run at a time, and
prints, per metric, the median over seeds and the spread: the distance
between the first and third quartile (``statistics.quantiles(values,
n=4)``) as a share of the median.  A spread under a third of the metric's
bound in BENCHMARK.json is marked steady.  ``--out`` writes every run's
metrics and the summary as JSON; ``perfbench/baseline.json`` was made this
way.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="a range 'a-b' or a list 'a,b,c'")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write all runs and the summary here as JSON")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            result.update(seed=seed, run_s=time.perf_counter() - start)
            with open(os.path.join(ROOT, ".perfbench_out", "records",
                                   f"{workload}-seed{seed}-trace{args.trace}-full.json")) as fh:
                record = json.load(fh)
            keep = ["environment", "children", "setup_samples", "reported", "quartiles"]
            if not runs:
                keep.append("ops")  # each operation's result sha256, to diff later runs against
            result["record"] = {k: record[k] for k in keep}
            runs.append(result)
            print(f"{workload} seed {seed}: {time.perf_counter() - start:.1f} s, correct {result['correct']}, "
                  + ", ".join(f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / med if med else float("nan")
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bounds.get(name)}
            bound = bounds.get(name)
            mark = ""
            if bound is not None:
                ok = spread < bound / 3
                steady &= ok or name == "setup_s"
                mark = "steady" if ok else f"NOT steady (bound {bound})"
            print(f"  {name:<28}median {med:<14.6g}spread {spread:8.4f}  {mark}")
        report["workloads"][workload] = {"runs": runs, "summary": summary,
                                         "all_correct": all(r["correct"] for r in runs)}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
    return 0 if steady else 3


if __name__ == "__main__":
    sys.exit(main())
