"""Shared fixtures: the program corpus and small run helpers."""

from __future__ import annotations

import os
from pathlib import Path

import pytest
from hypothesis import settings

from schemeflow.analysis import AnalysisConfig, analyze
from schemeflow.engine import TupleStore
from schemeflow.frontend import read_program
from schemeflow.machine import run_fixpoint

CORPUS_DIR = Path(__file__).parent / "corpus"
CORPUS = sorted(CORPUS_DIR.glob("*.scm"))

# Tests that run ``python -m schemeflow`` in a subprocess import this
# checkout's package too, installed or not.
SRC_DIR = str(Path(__file__).parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")]))

# Property tests draw the same examples on every run: derandomized, a fixed
# budget, and no deadline, so a slow machine cannot fail a test either.
# HYPOTHESIS_PROFILE names another profile, e.g. ``default`` for
# Hypothesis's own randomized search.
settings.register_profile("tier1", derandomize=True, max_examples=100, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))

# Programs that exercise every syntactic form at least once; kept under a
# failsafe fact ceiling so a regression cannot hang the suite.
SUITE_CEILING = 2_000_000


def corpus_ids() -> list[str]:
    return [p.stem for p in CORPUS]


@pytest.fixture(scope="session")
def corpus_programs():
    return {p.stem: read_program(p.read_text()) for p in CORPUS}


def config(m: int = 0, **kw) -> AnalysisConfig:
    kw.setdefault("fact_ceiling", SUITE_CEILING)
    return AnalysisConfig(m=m, **kw)


def store_of(relations, facts) -> TupleStore:
    """A new store holding ``facts``; ``saturate`` extends the store it is
    given, so each call needs its own."""
    store = TupleStore(relations)
    for name, rows in facts.items():
        store.bulk_add(name, rows)
    return store


def both_paths(source: str, cfg: AnalysisConfig):
    program = read_program(source)
    return analyze(program, cfg), run_fixpoint(program, cfg)
