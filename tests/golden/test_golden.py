"""Pinned user-visible outputs: each must stay what the recorded commit
produced.  ``regenerate.py`` recomputes them (and rewrites only with
``--accept``)."""

import json
from pathlib import Path

import pytest

from tests.golden.outputs import compute

PINS = json.loads(Path(__file__).with_name("pins.json").read_text())


@pytest.fixture(scope="module")
def outputs():
    return compute()


@pytest.mark.parametrize("name", sorted(PINS))
def test_output_matches_pin(outputs, name):
    pin = PINS[name]
    assert outputs[name] == pin["value"], (
        f"{name} changed (pinned at commit {pin['commit']})")


def test_every_output_is_pinned(outputs):
    assert sorted(outputs) == sorted(PINS)
