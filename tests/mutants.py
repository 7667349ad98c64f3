"""A hand-run mutation probe: does tier-1 fail when the code is wrong?

Each entry of ``MUTANTS`` is one text replacement in the source, a fault
made by hand: (file, old text, new text, reason).  For each mutant the
runner copies the repository to a temporary directory, applies the
replacement there and runs tier-1 with ``-x``, with criterion 02 (known
red) deselected.  A failing run kills the mutant; a passing one lets it
survive.  pytest does not collect this file, and tier-1 does not run the
probe: it takes up to 90 s a mutant.  ``tests/test_mutants.py`` checks
that each old text occurs exactly once in its file, so an entry fails
loudly when the code it names moves; the probe deselects that check,
which fails on every mutated copy.

    python tests/mutants.py            # every mutant
    python tests/mutants.py M04 M06    # the ones named
"""
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENGINE, ANALYSIS, CONDITIONS, CLI = (f"src/lagwave/{name}.py" for name in ("engine", "analysis", "conditions", "cli"))

_WRITE = """\
    os.makedirs(spec.output_dir, exist_ok=True)
    path = os.path.join(spec.output_dir, name)
    with open(path, "w") as fh:
        fh.write(text)
"""
_ECHO = """\
    print(text, end="")
"""

MUTANTS = {
    # The float kernel mirrors numpy's maximum and minimum, which pass a NaN from either side.
    "float-spacing-clamp-nan": (ENGINE, "s = s if s > S or s != s else S", "s = s if s > S else S",
                                "a NaN spacing is clamped to S"),
    "float-density-clamp-nan": (ENGINE, "ks.append(k if k < K or k != k else K)", "ks.append(k if k < K else K)",
                                "a NaN density is clamped to K"),
    "float-zero-floor": (ENGINE, "new = 0.0 if 0.0 > new else new", "new = max(0.0, new)",
                         "Python's max floors a NaN speed to 0.0, and -0.0 as well"),
    "M04": (ENGINE, "new = new if new < ceiling or new != new else ceiling", "new = new if new < ceiling else ceiling",
            "a NaN speed under a finite ceiling takes the ceiling"),
    "float-jwz-guard-abs": (ENGINE, "if abs(g) > 1e-12 else 0.0", "if g > 1e-12 else 0.0",
                            "the anticipation term is dropped behind a negative gap"),
    "numpy-jwz-guard-abs": (ENGINE, "np.greater(np.abs(gaps, out=dv), 1e-12, out=far)",
                            "np.greater(gaps, 1e-12, out=far)",
                            "the anticipation term is dropped behind a negative gap"),
    "float-corrected2-jam-gap": (ENGINE, "else (gaps[m] - jam_gap) / dt", "else gaps[m] / dt",
                                 "Corrected2's ceiling lets a follower close up past the jam gap"),
    # The rest rule of the float kernel.
    "M05": (ENGINE, "and v == u\n" + " " * 20 + "and np.array((x_next, v)).tobytes() == np.array((x, u)).tobytes())",
            "and v == u)",
            "rows equal in value but not in the sign of a zero are taken for a row at rest"),
    "M06": (ENGINE, "held = int(moves[-1]) + 1 if len(moves) else 0", "held = int(moves[-1]) if len(moves) else 0",
            "the rows are filled one step early, at the last step before the leader's last change"),
    # The audit and the measures.
    "audit-nan-spacing-search": (ANALYSIS, "if not block_min >= self.limit:", "if block_min < self.limit:",
                                 "a block whose spacing minimum is NaN is not searched for collisions"),
    "audit-nan-speed-search": (ANALYSIS, "if not v_min >= -NEGATIVE_SPEED_TOL:", "if v_min < -NEGATIVE_SPEED_TOL:",
                               "a block whose speed minimum is NaN is not searched for negative speeds"),
    "audit-inf-count": (ANALYSIS, "if not (math.isfinite(a_min) and math.isfinite(np.max(a, initial=-math.inf))):",
                        "if not math.isfinite(a_min):",
                        "a block whose only non-finite value is +inf counts none"),
    "sweep-nan-difference": (ANALYSIS,
                             "diff = float(np.maximum(diff, np.max(np.abs(curves_prev[n][: len(grid)] - b))))",
                             "diff = max(diff, float(np.max(np.abs(curves_prev[n][: len(grid)] - b))))",
                             "Python's max keeps the difference before a NaN one"),
    "crossing-exact-hit": (ANALYSIS, "hit = v1 == level", "hit = False",
                           "a speed exactly at the level is interpolated, off the row's own time by rounding"),
    "crossing-block-edge": (ANALYSIS, "if edge.any():", "if False:",
                            "a crossing in a block's first row is interpolated from the block's last row"),
    "M18": (ANALYSIS, "self.peak = -math.inf if scenario.steps and self.cols else math.nan",
            "self.peak = 0.0 if scenario.steps and self.cols else math.nan",
            "equivalent: every value the peak takes a maximum with is |a| >= +0.0 or NaN, a record with steps "
            "feeds at least one, np.maximum passes a NaN from either side and max(-inf, +0.0) is +0.0, so "
            "the first value replaces either start with the same bits"),
    # The step-size thresholds.
    "threshold-boundary-at-K": (CONDITIONS, "return max(sup, float(-fd.eta_prime(K) * K * K)) if below_jam else sup",
                                "return sup",
                                "the collision-free supremum leaves out its boundary value at K"),
    "threshold-inf-rule": (CONDITIONS,
                           "        if below_jam and fd._eta(np.asarray(K)) > 0.0:\n"
                           "            return inf  # k * eta(k) / (1 - k/K) grows without bound towards K\n",
                           "",
                           "a diagram that still moves at jam gets a finite collision-free rate"),
    # main's refusal boundary.
    "main-except-without-oserror": (CLI, "except (ValueError, ExperimentInvalid, OSError) as exc:",
                                    "except (ValueError, ExperimentInvalid) as exc:",
                                    "a file system refusal ends in a traceback"),
    "write-lines-echo-first": (CLI, _WRITE + _ECHO, _ECHO + _WRITE,
                               "a result file's lines reach stdout before its directory is made, so a refusal "
                               "there prints them"),
    "main-error-unjoined": (CLI, "print(\"error: \" + \" \".join(line.strip() for line in str(exc).splitlines()), "
                                 "file=sys.stderr)",
                            "print(f\"error: {exc}\", file=sys.stderr)",
                            "configparser's message reaches stderr on several lines"),
}

_TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors",
          "--deselect", "tests/test_acceptance.py::test_c02_sigmoid_diagram_thresholds",
          "--deselect", "tests/test_mutants.py::test_every_mutant_old_text_occurs_once"]


def source(path: str) -> str:
    """The text of the repository file ``path``."""
    return (ROOT / path).read_text()


def probe(name: str) -> tuple[str, float, str]:
    """Tier-1 on a copy with mutant ``name`` applied: killed or survived,
    the seconds it took, and the first test that failed."""
    path, old, new, _ = MUTANTS[name]
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis"))
        text = (copy / path).read_text()
        if text.count(old) != 1:
            raise SystemExit(f"{name}: the old text occurs {text.count(old)} times in {path}")
        (copy / path).write_text(text.replace(old, new))
        paths = [str(copy / "src"), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        start = time.perf_counter()
        proc = subprocess.run(_TIER1, cwd=copy, env=env, capture_output=True, text=True, check=False)
        seconds = time.perf_counter() - start
    if proc.returncode not in (0, 1):
        raise SystemExit(f"{name}: pytest exited {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE)
    return ("killed" if proc.returncode else "survived"), seconds, failed.group(1) if failed else ""


def main(names: list[str]) -> int:
    for name in names or MUTANTS:
        verdict, seconds, failed = probe(name)
        print(f"{name:30} {verdict:8} {seconds:6.1f} s  {failed}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
