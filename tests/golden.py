"""The golden pins' one generator and the one off-AVX-512 harness: the tests
and the child that checks the pins without AVX-512 both import them."""
import contextlib
import io
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest

import lagwave
from lagwave.cli import _TRAJECTORY_FILE, load_spec, run, serialize, stability, sweep, thresholds
from lagwave.templates import template_text
from reference import template_verbs

SWEEP_DN = (1.0, 0.5, 0.25)
_CALLS = {"run": run, "stability": stability, "sweep": lambda spec: sweep(spec, SWEEP_DN), "thresholds": thresholds}
_FILES = {"serialize": ("config.ini",), "template_text": ("template.ini",), "thresholds": ("thresholds.txt",),
          "run": ("trajectory.csv", "summary.txt"), "stability": ("stability.txt",),
          "sweep": ("sweep.csv", *(_TRAJECTORY_FILE.format(dn) for dn in SWEEP_DN))}


def pinned_files(name: str) -> dict[str, tuple[str, ...]]:
    """The files that each verb of template ``name`` pins, by verb."""
    return {verb: _FILES[verb] for verb in ("serialize", "template_text", "thresholds", *template_verbs(name))}


def golden_files(name: str, verbs=None) -> dict[str, bytes]:
    """``{"<name>/<file>": bytes}`` for the files that template ``name``'s
    verbs pin, or only those in ``verbs``, written to a temporary directory."""
    spec = load_spec(template_text(name))
    texts = {"config.ini": serialize(spec), "template.ini": template_text(name)}
    pins = {}
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
        for verb, files in pinned_files(name).items():
            if verbs is not None and verb not in verbs:
                continue
            if verb in _CALLS:
                assert _CALLS[verb](replace(spec, output_dir=out)) == 0
            for f in files:
                pins[f"{name}/{f}"] = texts[f].encode() if f in texts else Path(out, f).read_bytes()
    return pins


_AVX512 = ("AVX512_SPR", "AVX512_ICL", "X86_V4")
_FEATURES_OFF = f"""
try:
    from numpy._core._multiarray_umath import __cpu_features__ as cpu
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_features__ as cpu
assert not any(cpu.get(f) for f in {_AVX512!r}), cpu
"""


def off_avx512(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` (``args`` as ``sys.argv[1:]``) in a child with numpy's AVX-512 loops off and ``src/`` and
    ``tests/`` importable.  Skip where AVX-512 is in numpy's baseline; fail unless the child finds the
    features off and exits 0."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(lagwave.__file__)))
    path = [src, os.path.dirname(os.path.abspath(__file__)), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(_AVX512), "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-c", _FEATURES_OFF + code, *args], capture_output=True, text=True, env=env)
    if "part of the baseline" in proc.stdout + proc.stderr:
        pytest.skip("this numpy build has AVX-512 in its baseline")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc
