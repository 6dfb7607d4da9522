"""m-CFA control-flow analysis for a Scheme subset, implemented twice.

One shared data model (:mod:`schemeflow.terms`) feeds two independent
evaluation paths: a deductive rule set run by an embedded semi-naive
fixpoint engine (:mod:`schemeflow.analysis` over :mod:`schemeflow.engine`)
and a direct global-store abstract-machine worklist
(:mod:`schemeflow.machine`).  The two are differentially tested against
each other; :mod:`schemeflow.termgen` produces worst-case terms for
precision and complexity experiments.
"""

from __future__ import annotations

__version__ = "0.1.0"

from schemeflow.analysis import AnalysisConfig, AnalysisResult, analyze
from schemeflow.frontend import extract_facts, read_program, read_sexprs
from schemeflow.machine import run_fixpoint
from schemeflow.termgen import GenSpec, gen_mcfa_worst, gen_vanhorn

__all__ = [
    "AnalysisConfig",
    "AnalysisResult",
    "analyze",
    "extract_facts",
    "read_program",
    "read_sexprs",
    "run_fixpoint",
    "GenSpec",
    "gen_mcfa_worst",
    "gen_vanhorn",
    "__version__",
]
