"""Golden manifest: every bundled template's output files keep their bytes.

``golden_manifest.json`` maps ``<template>/<file>`` to the sha256 of the
file that template writes: ``trajectory.csv`` and ``summary.txt`` for run
templates, ``stability.txt`` for templates with a [stability] section.
``config.ini`` is the template's canonical config text, ``serialize`` of
its loaded spec, and ``template.ini`` the text ``template_text`` renders.
A refactor of the stepping, the audit, the config parsing or the presets
must leave every hash unchanged.
"""
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import lagwave
from lagwave.cli import load_spec, run, serialize, stability
from lagwave.templates import TEMPLATES, template_text

MANIFEST = json.loads((Path(__file__).with_name("golden_manifest.json")).read_text())


def test_manifest_covers_every_template():
    assert {key.split("/")[0] for key in MANIFEST} == set(TEMPLATES)


@pytest.mark.parametrize("name", sorted(TEMPLATES))
def test_template_outputs_match_manifest(name, tmp_path):
    spec = replace(load_spec(template_text(name)), output_dir=str(tmp_path))
    if spec.stability is None:
        assert run(spec) == 0
        files = ("trajectory.csv", "summary.txt")
    else:
        assert stability(spec) == 0
        files = ("stability.txt",)
    expected = {f"{name}/{f}": MANIFEST[f"{name}/{f}"] for f in files}
    got = {f"{name}/{f}": hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in files}
    assert got == expected


@pytest.mark.parametrize("name", sorted(TEMPLATES))
def test_canonical_config_matches_manifest(name):
    text = serialize(load_spec(template_text(name)))
    assert hashlib.sha256(text.encode()).hexdigest() == MANIFEST[f"{name}/config.ini"]


@pytest.mark.parametrize("name", sorted(TEMPLATES))
def test_template_text_matches_manifest(name):
    text = template_text(name)
    assert hashlib.sha256(text.encode()).hexdigest() == MANIFEST[f"{name}/template.ini"]


# The pins that hold only where numpy dispatches its AVX-512 exp and log
# loops: Kerner's sigmoid steps through np.exp, and the stability ratio is
# the exp of a mean of logs.
AVX512_PINS = {
    "kerner-redlight/trajectory.csv",
    "kerner-redlight-coarse/trajectory.csv",
    "phillips-stability/stability.txt",
}

_OFF_AVX512 = """
import contextlib, hashlib, io, json, sys, tempfile
from dataclasses import replace
try:
    from numpy._core._multiarray_umath import __cpu_features__ as cpu
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_features__ as cpu
assert not any(cpu.get(f) for f in ('AVX512_SPR', 'AVX512_ICL', 'X86_V4')), cpu
from lagwave.cli import load_spec, run, serialize, stability
from lagwave.templates import TEMPLATES, template_text
pins = {}
for name in sorted(TEMPLATES):
    spec = load_spec(template_text(name))
    pins[name + "/config.ini"] = serialize(spec).encode()
    pins[name + "/template.ini"] = template_text(name).encode()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
        verb, files = (run, ("trajectory.csv", "summary.txt")) if spec.stability is None else (stability, ("stability.txt",))
        verb(replace(spec, output_dir=out))
        for f in files:
            with open(out + "/" + f, "rb") as fh:
                pins[name + "/" + f] = fh.read()
print(json.dumps({key: hashlib.sha256(data).hexdigest() for key, data in pins.items()}))
"""


def test_only_the_known_pins_move_off_avx512():
    # numpy picks its SIMD loops per host.  A child on the loops of a host
    # without AVX-512 writes every golden file: exactly the known pins move,
    # and every other pin, the streamed run's among them, holds there too.
    src = os.path.dirname(os.path.dirname(os.path.abspath(lagwave.__file__)))
    env = {
        **os.environ,
        "NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4",
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    }
    proc = subprocess.run([sys.executable, "-c", _OFF_AVX512], capture_output=True, text=True, env=env)
    if "part of the baseline" in proc.stderr:
        pytest.skip("this numpy build has AVX-512 in its baseline")
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got.keys() == MANIFEST.keys()
    assert {key for key in MANIFEST if got[key] != MANIFEST[key]} == AVX512_PINS
