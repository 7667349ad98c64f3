"""Spans around the public names each caller looks up, and the per-layer metrics they give.

The traced run replaces module attributes (``lagwave.cli.simulate``,
``lagwave.analysis.diagnose``, ``FundamentalDiagram.theta``, ...) with
wrappers that record (name, start, end, parent) while an operation runs.
The program itself is not changed: callers look these names up at call
time, so they reach the wrappers.  Spans stay in memory and are written
out when the child exits.
"""
from __future__ import annotations

import functools
import time
from collections import Counter

import lagwave
import lagwave.analysis
import lagwave.cli
import lagwave.conditions
from lagwave.fundamental import FundamentalDiagram

_VERBS = ("run", "sweep", "thresholds", "stability")
_THRESHOLD_CACHES = (
    lagwave.conditions.collision_free_threshold,
    lagwave.conditions.cfl_threshold,
    lagwave.conditions.check_concave,
)


def _count_trajectory(counts: Counter, traj) -> None:
    steps = traj.positions.shape[0] - 1
    counts["engine.steps"] += steps
    counts["engine.vehicle_steps"] += steps * (traj.positions.shape[1] - 1)
    counts["engine.bytes_computed"] += sum(
        a.nbytes for a in (traj.times, traj.positions, traj.speeds, traj.accelerations)
    )


def _count_report(counts: Counter, report) -> None:
    counts["analysis.events"] += report.collision_count + report.negative_speed_count


def _count_measurement(counts: Counter, meas) -> None:
    counts["analysis.crossings"] += meas.crossing_times.size


def _count_theta(counts: Counter, _result) -> None:
    counts["fundamental.theta_calls"] += 1


class Tracer:
    """Records spans while ``active``; wrappers pass straight through otherwise."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self.counts: Counter = Counter()
        self.active = False
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(counts, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public name the workloads' callers look up."""
        patches = [
            ("engine.simulate", _count_trajectory, [(lagwave, "simulate"), (lagwave.cli, "simulate"),
                                                    (lagwave.analysis, "simulate")]),
            ("analysis.diagnose", _count_report, [(lagwave, "diagnose"), (lagwave.cli, "diagnose"),
                                                  (lagwave.analysis, "diagnose")]),
            ("analysis.measure", _count_measurement, [
                (lagwave, "measure_front_speed"), (lagwave.cli, "measure_front_speed"),
                (lagwave, "measure_startup_wave"), (lagwave.cli, "measure_startup_wave")]),
            ("analysis.stability", None, [(lagwave, "string_stability_experiment"),
                                          (lagwave.cli, "string_stability_experiment")]),
            ("cli.load_spec", None, [(lagwave, "load_spec"), (lagwave.cli, "load_spec")]),
            ("cli.serialize", None, [(lagwave, "serialize"), (lagwave.cli, "serialize")]),
        ]
        patches += [(f"cli.{verb}", None, [(lagwave.cli, verb)]) for verb in _VERBS]
        patches += [
            (f"conditions.{fn}", None, [(mod, fn) for mod in (lagwave, lagwave.cli, lagwave.conditions)
                                        if hasattr(mod, fn)])
            for fn in ("validate_step_sizes", "collision_free_threshold", "cfl_threshold", "check_concave")
        ]
        for name, count, targets in patches:
            for owner, attr in targets:
                setattr(owner, attr, self.wrap(name, getattr(owner, attr), count))
        FundamentalDiagram.theta = self.wrap("fundamental.theta", FundamentalDiagram.theta, _count_theta)


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus what its child spans cover, in ns."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans: list[list], counts: Counter, wall_s: float,
                  bytes_written: int, values_written: int) -> dict[str, float]:
    """Per-layer metrics of one traced child, from its spans and boundary counts."""
    own = self_times(spans)
    total: Counter = Counter()
    selfs: Counter = Counter()
    top = 0
    for (name, start, end, parent), own_ns in zip(spans, own):
        total[name] += end - start
        selfs[name] += own_ns
        if parent < 0:
            top += end - start
    s = 1e-9
    verb_self = sum(selfs[f"cli.{v}"] for v in _VERBS) * s
    simulate_s = total["engine.simulate"] * s
    steps, vsteps = counts["engine.steps"], counts["engine.vehicle_steps"]
    hits = sum(f.cache_info().hits for f in _THRESHOLD_CACHES)
    misses = sum(f.cache_info().misses for f in _THRESHOLD_CACHES)
    return {
        "cli.load_spec_s": total["cli.load_spec"] * s,
        "cli.serialize_s": total["cli.serialize"] * s,
        "cli.self_s": verb_self,
        "cli.bytes_written": bytes_written,
        "cli.ns_per_value": verb_self * 1e9 / values_written if values_written else 0.0,
        "engine.simulate_s": simulate_s,
        "engine.steps": steps,
        "engine.vehicle_steps": vsteps,
        "engine.us_per_step": simulate_s * 1e6 / steps if steps else 0.0,
        "engine.ns_per_vehicle_step": simulate_s * 1e9 / vsteps if vsteps else 0.0,
        "engine.bytes_computed": counts["engine.bytes_computed"],
        "fundamental.theta_calls": counts["fundamental.theta_calls"],
        "fundamental.theta_s": total["fundamental.theta"] * s,
        "analysis.diagnose_s": total["analysis.diagnose"] * s,
        "analysis.events": counts["analysis.events"],
        "analysis.measure_s": total["analysis.measure"] * s,
        "analysis.crossings": counts["analysis.crossings"],
        "analysis.stability_self_s": selfs["analysis.stability"] * s,
        "conditions.self_s": sum(v for k, v in selfs.items() if k.startswith("conditions.")) * s,
        "conditions.cache_misses": misses,
        "conditions.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "trace.uncovered_s": wall_s - top * s,
    }
