"""One fresh process of a benchmark run.

Set-up is ``import lagwave`` plus ``lagwave.cli``, timed from the first line
that touches the package.  With ``--workload`` the child then draws the
workload's operations from the seed, runs them one after another, timing
each from config text in to the last byte written, and checks each one
outside the timed region.  Set-up and every operation also get a time on
the reference core (``calibrate.py``): the calibration kernel runs right
after set-up, which also serves the first operation, and after an
operation once a quarter of a second of operations has passed since it
last ran; the operations in between are scaled by the mean of the two
kernel times around them.  With ``--trace 1`` the operations run under the span
recorder of ``tracing.py``.  The child writes one JSON result file and
exits 0; a failed operation is a result, not a crash.
"""
import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback

_t0 = time.perf_counter()
import lagwave  # noqa: E402
import lagwave.cli  # noqa: E402,F401

SETUP_S = time.perf_counter() - _t0

import calibrate  # noqa: E402  (after the timed import: it imports numpy)

CALIBRATE_EVERY_S = 0.25


def _hash_dir(path: str) -> tuple[dict[str, str], int, int]:
    """sha256 per file, total bytes, and comma-separated values written."""
    digests, nbytes, values = {}, 0, 0
    for name in sorted(os.listdir(path)):
        h = hashlib.sha256()
        with open(os.path.join(path, name), "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
                nbytes += len(chunk)
                values += chunk.count(b",") + chunk.count(b"\n")
        digests[name] = h.hexdigest()
    return digests, nbytes, values


def _run_ops(args, kernel_before: float) -> dict:
    import workloads

    ops = workloads.build(args.workload, args.seed, tiny=args.size == "tiny")
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    records = []
    wall = wall_ref = 0.0
    uncalibrated: list[dict] = []  # records since the kernel last ran
    bytes_written = values_written = 0
    for i, op in enumerate(ops):
        out = os.path.join(args.out_dir, f"op{i:03d}")
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            if tracer:
                tracer.active = True
            error_trace = ""
            start = time.perf_counter()
            try:
                value = op.run(out)
            except Exception as exc:  # the check decides whether this was expected
                value = exc
                error_trace = traceback.format_exc()
            seconds = time.perf_counter() - start
            if tracer:
                tracer.active = False
        wall += seconds
        record = {"name": op.name, "seconds": seconds}
        uncalibrated.append(record)
        if i == len(ops) - 1 or sum(r["seconds"] for r in uncalibrated) >= CALIBRATE_EVERY_S:
            kernel_after = calibrate.measure()
            kernel_s = (kernel_before + kernel_after) / 2
            for r in uncalibrated:
                r.update(kernel_s=kernel_s, ref_seconds=r["seconds"] * calibrate.scale(kernel_s))
                wall_ref += r["ref_seconds"]
            kernel_before, uncalibrated = kernel_after, []
        try:
            chk = op.check(value, out)
        except Exception:
            chk = workloads.Check(problems=["check raised:\n" + traceback.format_exc()])
        if error_trace and chk.problems:
            chk.problems.append(error_trace)
        if os.path.isdir(out):
            digests, nbytes, values = _hash_dir(out)
            shutil.rmtree(out)
        else:
            h = hashlib.sha256()
            workloads.fingerprint(value, h)
            digests, nbytes, values = {"result": h.hexdigest()}, 0, 0
        del value  # so the next operation's peak memory is its own
        bytes_written += nbytes
        values_written += values
        record.update({
            "config_sha256": hashlib.sha256(op.config.encode()).hexdigest(),
            "ok": not chk.problems,
            "problems": chk.problems,
            "rel_errs": chk.rel_errs,
            "sha256": digests,
            "bytes": nbytes,
            "vehicle_steps": op.vehicle_steps,
        })
        records.append(record)
    result = {
        "wall_s": wall,
        "wall_ref_s": wall_ref,
        "ops": records,
        "bytes_written": bytes_written,
        "values_written": values_written,
        "vehicle_steps": sum(op.vehicle_steps for op in ops),
    }
    if tracer:
        import tracing

        result["layers"] = tracing.layer_metrics(tracer.spans, tracer.counts, wall, bytes_written, values_written)
        spans_path = os.path.join(args.out_dir, "spans.json")
        with open(spans_path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent"], "spans": tracer.spans}, fh)
        result["spans"] = spans_path
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--result", required=True, help="path of the JSON result file to write")
    parser.add_argument("--workload", help="workload to run; without it the child only sets up")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", help="directory for the operations' output files")
    args = parser.parse_args()

    kernel_s = calibrate.measure()
    result = {"setup_s": SETUP_S, "setup_kernel_s": kernel_s, "setup_ref_s": SETUP_S * calibrate.scale(kernel_s)}
    if args.workload:
        os.makedirs(args.out_dir, exist_ok=True)
        result.update(_run_ops(args, kernel_s))
    # ru_maxrss is in KiB on Linux.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
