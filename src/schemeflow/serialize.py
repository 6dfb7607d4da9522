"""Canonical textual forms, TSV/JSON result serialization, and run reports.

Every term has exactly one rendering (labels bare, every other constructor
as a parenthesized S-expression), rows render column-per-column, and files
list rows sorted lexicographically on the rendered form — so equal results
are byte-identical no matter how they were computed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from schemeflow.errors import ValidationError
from schemeflow.terms import render

# The relations a run publishes; everything else is internal bookkeeping.
OUTPUT_RELATIONS: tuple[str, ...] = (
    "state_e",
    "state_a",
    "stored_val",
    "stored_kont",
    "flow_aa",
    "flow_ae",
    "flow_ea",
    "flow_ee",
)


def render_row(row: tuple) -> tuple[str, ...]:
    return tuple(render(x) for x in row)


def sorted_rows(rows) -> list[tuple[str, ...]]:
    return sorted(render_row(r) for r in rows)


def relation_text(rows) -> str:
    lines = ["\t".join(r) for r in sorted_rows(rows)]
    return "".join(line + "\n" for line in lines)


# ---------------------------------------------------------------------------
# Result directories
# ---------------------------------------------------------------------------


def result_json_text(relations: dict[str, set[tuple]]) -> str:
    doc = {name: [list(r) for r in sorted_rows(relations.get(name, set()))] for name in OUTPUT_RELATIONS}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def write_result_dir(relations: dict[str, set[tuple]], outdir: str | Path, *, format: str = "tsv") -> None:
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    if format == "tsv":
        for name in OUTPUT_RELATIONS:
            (out / f"{name}.tsv").write_text(relation_text(relations.get(name, set())))
    elif format == "json":
        (out / "result.json").write_text(result_json_text(relations))
    else:
        raise ValidationError(f"unknown output format {format!r}")


# ---------------------------------------------------------------------------
# Run reports
# ---------------------------------------------------------------------------


@dataclass
class RunReport:
    """What a run did: sizes, effort, and configuration — counts match the
    serialized outputs exactly; duration is wall-clock and varies run to run."""

    mode: str  # "analyze" | "oracle" | "bench"
    program: str
    m: int
    widen_depth: int | None
    truthiness: str
    engine: str  # "seminaive" | "naive" | "worklist"
    counts: dict[str, int] = field(default_factory=dict)
    rounds: int = 0
    peak_facts: int = 0
    duration_ms: float = 0.0

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True, indent=2) + "\n"
