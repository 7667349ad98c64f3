"""Golden manifest: every bundled template's output files keep their bytes.

``golden_manifest.json`` maps ``<template>/<file>`` to the sha256 of each file
that ``golden.golden_files`` writes, by verb: ``serialize`` pins ``config.ini``
and ``template_text`` ``template.ini``; ``run`` pins ``trajectory.csv`` and
``summary.txt``, or ``stability`` ``stability.txt`` where the template has a
[stability] section; ``thresholds`` pins ``thresholds.txt``; ``sweep`` at
dn = 1, 0.5, 0.25 pins ``sweep.csv`` and each ``trajectory_dn*.csv`` where the
template has ``vehicles`` and ``dt_ratio``.

A refactor must leave every hash unchanged.  A change that means to move a
file's bytes re-pins it in its own commit, quotes each changed line, and names
the pin in CHANGES.md.
"""
import ast
import hashlib
import json
from pathlib import Path

import pytest

from lagwave.templates import TEMPLATES
from golden import golden_files, off_avx512, pinned_files

MANIFEST = json.loads((Path(__file__).with_name("golden_manifest.json")).read_text())


def _assert_pins(name, *verbs):
    got = {key: hashlib.sha256(data).hexdigest() for key, data in golden_files(name, verbs).items()}
    assert got == {key: MANIFEST.get(key) for key in got}


def test_manifest_covers_every_template():
    # Each template's keys, verb by verb.
    assert MANIFEST.keys() == {f"{n}/{f}" for n in TEMPLATES for files in pinned_files(n).values() for f in files}


@pytest.mark.parametrize("name", sorted(TEMPLATES))
def test_template_outputs_match_manifest(name):
    _assert_pins(name, "run", "stability")


@pytest.mark.parametrize("name", [name for name in sorted(TEMPLATES) if "sweep" in pinned_files(name)])
def test_sweep_outputs_match_manifest(name):
    _assert_pins(name, "sweep")


@pytest.mark.parametrize("name", sorted(TEMPLATES))
def test_thresholds_match_manifest(name):
    _assert_pins(name, "thresholds")


@pytest.mark.parametrize("name", sorted(TEMPLATES))
def test_canonical_config_matches_manifest(name):
    _assert_pins(name, "serialize")


@pytest.mark.parametrize("name", sorted(TEMPLATES))
def test_template_text_matches_manifest(name):
    _assert_pins(name, "template_text")


# The pins that hold only where numpy dispatches its AVX-512 exp and log
# loops: Kerner's sigmoid steps through np.exp, and the stability ratio is
# the exp of a mean of logs.
AVX512_PINS = {
    "kerner-redlight/trajectory.csv",
    "kerner-redlight-coarse/trajectory.csv",
    "phillips-stability/stability.txt",
}

_ALL_PINS = """
import hashlib, json
from golden import golden_files
from lagwave.templates import TEMPLATES
print(json.dumps({key: hashlib.sha256(data).hexdigest() for name in TEMPLATES for key, data in golden_files(name).items()}))
"""


def test_only_the_known_pins_move_off_avx512():
    # numpy picks its SIMD loops per host.  A child on the loops of a host
    # without AVX-512 writes every golden file: exactly the known pins move,
    # and every other pin, the streamed run's among them, holds there too.
    got = json.loads(off_avx512(_ALL_PINS).stdout)
    assert got.keys() == MANIFEST.keys()
    assert {key for key in MANIFEST if got[key] != MANIFEST[key]} == AVX512_PINS


def test_no_test_module_imports_another():
    # Shared rules and references live in reference.py, the pins' generator in
    # golden.py: a test module that imported another would run alone only with it.
    tests = sorted(Path(__file__).parent.glob("test_*.py"))
    modules = {path.stem for path in tests}
    found = [(path.name, name) for path in tests for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, (ast.Import, ast.ImportFrom))
             for name in ([a.name for a in node.names] if isinstance(node, ast.Import) else [node.module or ""])
             if name.split(".")[0] in modules]
    assert found == []
