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
ENGINE, ANALYSIS, CONDITIONS, CLI, FUNDAMENTAL = (
    f"src/lagwave/{name}.py" for name in ("engine", "analysis", "conditions", "cli", "fundamental"))

_WRITE = """\
    os.makedirs(spec.output_dir, exist_ok=True)
    path = os.path.join(spec.output_dir, name)
    with open(path, "w") as fh:
        fh.write(text)
"""
_ECHO = """\
    print(text, end="")
"""
_SEND = """\
            for values in (x, v, a):
                conn.send_bytes(values)
"""
_ADD = """\
            measures.add(j0, x, v, a)
"""

MUTANTS = {
    # The float kernel mirrors numpy's maximum and minimum, which pass a NaN from either side.
    "float-spacing-clamp-nan": (ENGINE, "s = s if s > S or s != s else S", "s = s if s > S else S",
                                "a NaN spacing is clamped to S"),
    "float-density-clamp-nan": (ENGINE, "k = k if k < K or k != k else K", "k = k if k < K else K",
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
    "float-corrected2-jam-gap": (ENGINE, "else (g - jam_gap) / dt", "else g / dt",
                                 "Corrected2's ceiling lets a follower close up past the jam gap"),
    "stencil-last-slot-uncopied": (ENGINE, "        head[...] = behind\n        last[...] = s_last\n",
                                   "        head[...] = behind\n",
                                   "the forward stencil leaves the last follower's estimate as its scratch row "
                                   "holds it, not its backward spacing"),
    "triangular-nan-maximum": (FUNDAMENTAL, "np.fmax(k, 0.5 * self.critical_density, out=out)",
                               "np.maximum(k, 0.5 * self.critical_density, out=out)",
                               "the triangular law gives NaN at a NaN density, not V"),
    "triangular-kc-unrefused": (FUNDAMENTAL, "if not (half > 0.0 and math.isfinite(self.W * (self.K / half - 1.0))):",
                                "if not half > 0.0:",
                                "a triangular law whose branch K / (kc/2) or 2V + W overflows is built, and its "
                                "eta warns"),
    # The rest rule of the float kernel.
    "M05": (ENGINE, "return a == b and (a != 0.0 or math.copysign(1.0, a) == math.copysign(1.0, b))",
            "return a == b",
            "rows equal in value but not in the sign of a zero are taken for a row at rest"),
    "M06": (ENGINE, "held = int(moves[-1]) + 1 if len(moves) else 0", "held = int(moves[-1]) if len(moves) else 0",
            "the rows are filled one step early, at the last step before the leader's last change"),
    "float-rest-without-ahead": (ENGINE, "if j >= ahead and _same(x_next, xm)", "if _same(x_next, xm)",
                                 "a follower that maps its row to itself is taken for at rest while the column "
                                 "ahead still moves"),
    # The sigmoid's scalar formula keeps numpy's exp.
    "kerner-scalar-libm-exp": (FUNDAMENTAL, "exp = np.exp", "exp = math.exp",
                               "libm's exp differs from numpy's in the last ulp on about one density in twenty"),
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
    # The block rule.
    "block-last-row-ones": (ENGINE, "np.concatenate((a, np.zeros((1, v.shape[1]))))",
                            "np.concatenate((a, np.ones((1, v.shape[1]))))",
                            "the grid's last row gets accelerations of 1, not 0"),
    # The step-size thresholds.
    "threshold-boundary-at-K": (CONDITIONS, "return max(sup, float(-fd.eta_prime(K) * K * K)) if below_jam else sup",
                                "return sup",
                                "the collision-free supremum leaves out its boundary value at K"),
    "threshold-inf-rule": (CONDITIONS,
                           "        if below_jam and fd._eta(np.asarray(K)) > 0.0:\n"
                           "            return inf  # k * eta(k) / (1 - k/K) grows without bound towards K\n",
                           "",
                           "a diagram that still moves at jam gets a finite collision-free rate"),
    # The library's refusals (tests/test_refusals.py).
    "scenario-k1-above-jam": (ENGINE, "if not 0.0 < self.k1 <= self.fd.K:", "if not 0.0 < self.k1:",
                              "a k1 above the jam density is accepted"),
    "fields-positive": (FUNDAMENTAL, "        if name in positive and value <= 0.0:\n"
                                     "            raise ValueError(f\"{name} must be positive, got {value!r}\")\n",
                        "", "a zero or negative scale, step or relaxation time is accepted"),
    "fields-int": (FUNDAMENTAL, '"int": ((int, np.integer), "an integer")', '"int": _NUMBER',
                   "a slot or vehicle count of 2.5 is accepted"),
    "fields-bool": (FUNDAMENTAL, ',\n          "bool": (bool, "a boolean")}', "}",
                    "a clamp flag of \"false\" is accepted, and clamps"),
    "fields-bool-apart": (FUNDAMENTAL, ' or isinstance(value, bool) and annotation != "bool"', "",
                          "a bool is taken as a count of 1 or a number 1.0"),
    "step-sizes-finite": (CONDITIONS, "if not (0.0 < dn < inf and 0.0 < dt < inf):", "if not (0.0 < dn and 0.0 < dt):",
                          "an infinite dn or dt reads as a rate that passes or fails both checks"),
    "front-levels-finite": (ANALYSIS, '    for name, value in (("v1", v1), ("v2", v2)):\n'
                                      "        if not math.isfinite(value):\n"
                                      '            raise ValueError(f"{name} must be finite, got {value!r}")\n',
                            "", "a non-finite level is fitted, and fails as a measurement"),
    "slot-count-vehicles": (ANALYSIS, "    if vehicles < 0:\n"
                                      '        raise ValueError(f"vehicles must be nonnegative, got {vehicles!r}")\n',
                            "", "a negative vehicle count is refused as a negative slot count"),
    # The config text's one reader and one writer.
    "text-int-before-bool": (CLI, "    if isinstance(value, bool):\n        return str(value).lower()\n"
                                  "    if isinstance(value, int):\n        return str(value)\n",
                             "    if isinstance(value, int):\n        return str(value)\n"
                             "    if isinstance(value, bool):\n        return str(value).lower()\n",
                             "a bool is written as True or False, not in lower case"),
    "kinds-int-as-number": (CLI, '"int": int,', '"int": float,',
                            "a count key is read as a float, which Scenario refuses"),
    # The config reader's rules (tests/test_refusals.py's load_spec rows).
    "config-unknown-key": (CLI, 'raise ConfigError(f"unknown key {section}.{key}{context}")', "pass",
                           "a key that is no field of the section's class is ignored"),
    "config-unknown-section": (CLI, 'raise ConfigError(f"unknown section [{sec}]")', "pass",
                               "a section that lagwave does not read is ignored"),
    "config-dt-and-dt-ratio": (CLI, 'raise ConfigError("give exactly one of scenario.dt and scenario.dt_ratio")',
                               "pass", "scenario.dt_ratio wins silently over scenario.dt"),
    "config-dn-file-names": (CLI, 'raise ConfigError(f"sweep dn values {files[name]!r} and {v!r} both write {name}")',
                             "pass", "two dn values of a sweep write one trajectory file, the second over the first"),
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
    # The run writer's two formatters.
    "writer-offset-not-advanced": (CLI, "return offset + count", "return offset",
                                   "every block is written at the offset after the header, over the one before"),
    "writer-pwrite-offset-not-advanced": (CLI, "view, offset = view[written:], offset + written",
                                          "view, offset = view[written:], offset",
                                          "each chunk of a block is written at the block's offset, over the one "
                                          "before"),
    "writer-newer-pending-first": (CLI, "conn = pending.pop(0)", "conn = pending.pop()",
                                   "the later of two pending blocks gets the earlier offset, so they swap places"),
    "writer-a-after-audit": (CLI, _SEND + _ADD, _SEND.replace("(x, v, a)", "(x, v)") + _ADD
                             + " " * 12 + "conn.send_bytes(a)\n",
                             "a formatter writes the accelerations the audit has overwritten"),
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
