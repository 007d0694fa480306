"""Shared helpers for the analysis test suite.

Fixture modules live flat under ``fixtures/`` as data; tests copy them
into a temp tree whose directory names trigger the analyzer's path
scoping (``sim/`` -> virtual clock, ``core/`` -> engine, a ``tuner.py``
file name -> decision module).  They are
copied rather than linted in place because the real fixture path
contains an ``analysis`` component, which would exempt them from
REPRO106 and skew scoping tests.
"""

from __future__ import annotations

import json
import pathlib

import pytest

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
GOLDEN_ARTIFACTS = REPO_ROOT / "tests" / "golden" / "artifacts"
GOLDEN_SCENARIOS = REPO_ROOT / "tests" / "golden" / "scenarios"


def plant_fixture(tmp_path: pathlib.Path, fixture: str, dest: str) -> pathlib.Path:
    """Copy ``fixtures/<fixture>`` to ``tmp_path/<dest>`` and return it."""
    target = tmp_path / dest
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text((FIXTURES / fixture).read_text())
    return target


def build_graph(tmp_path: pathlib.Path, plants):
    """Plant ``(fixture, dest)`` pairs and build a call graph over them.

    Display paths are the relative ``dest`` strings, so module names in
    the graph mirror the planted tree (``sim/rng.py`` -> ``sim.rng``),
    exactly as repo files get ``repro.*`` names from ``src/repro/...``.
    """
    from repro.analysis.callgraph import build_call_graph
    from repro.analysis.lint import LintContext

    contexts = []
    for fixture, dest in plants:
        target = plant_fixture(tmp_path, fixture, dest)
        contexts.append(LintContext.for_file(target, dest))
    return build_call_graph(contexts)


@pytest.fixture
def golden_plan() -> dict:
    """A fresh parsed copy of the known-good lenet plan artifact."""
    return json.loads((GOLDEN_ARTIFACTS / "lenet.plan.json").read_text())


@pytest.fixture
def golden_scenario() -> dict:
    """A fresh parsed copy of the known-good edge-storm scenario."""
    return json.loads((GOLDEN_SCENARIOS / "edge_storm.json").read_text())
