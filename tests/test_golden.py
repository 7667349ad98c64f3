"""Golden manifest: every bundled template's output files keep their bytes.

``golden_manifest.json`` maps ``<template>/<file>`` to the sha256 of the
file that template writes: ``trajectory.csv`` and ``summary.txt`` for run
templates, ``stability.txt`` for templates with a [stability] section.
``config.ini`` is the template's canonical config text, ``serialize`` of
its loaded spec.  A refactor of the stepping, the audit or the config
parsing must leave every hash unchanged.
"""
import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

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
