"""Canonical textual forms, TSV/JSON result serialization, and run reports.

Every term has exactly one rendering (labels bare, every other constructor
as a parenthesized S-expression), rows render column-per-column, and files
list rows sorted lexicographically on the rendered form — so equal results
are byte-identical no matter how they were computed.

Rows are sorted as their tab-joined lines, one string per row. That is the
order of the tuples of rendered columns, because no cell contains a tab (the
reader splits atoms on whitespace) and wherever one cell is a proper prefix
of another cell in the same column, the next character is a digit, which
sorts after ``'\\t'``:

- a term other than a label renders as one balanced s-expression, and
  identifiers cannot contain parentheses, so it is never a proper prefix of
  another cell;
- a label is ``e<digits>`` and an int is decimal;
- a renamed identifier ends in ``~<digits>``, and ``~`` is reserved, so two
  renamed identifiers share a prefix only through their digits;
- other raw names (variables, primitives, booleans) occur only in EDB rows
  whose earlier columns (a label, or a label and a position) occur in no
  other row of that relation, so two rows never tie up to those names.

This holds for identifiers with control characters below ``'\\t'`` too,
which the reader accepts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path

from schemeflow.errors import ValidationError
from schemeflow.terms import render

# The relations a run publishes; everything else is internal bookkeeping.
# ``diff`` compares the first group by default; flow edges are derived
# bookkeeping and opt-in via --diff-flows.
DIFF_RELATIONS: tuple[str, ...] = ("state_e", "state_a", "stored_val", "stored_kont")
FLOW_RELATIONS: tuple[str, ...] = ("flow_aa", "flow_ae", "flow_ea", "flow_ee")
OUTPUT_RELATIONS: tuple[str, ...] = DIFF_RELATIONS + FLOW_RELATIONS


def render_row(row: tuple) -> tuple[str, ...]:
    return tuple(render(x) for x in row)


def sorted_lines(rows) -> list[str]:
    """Each row's rendered columns joined by tabs, sorted (see the module
    docstring for why this is the order of the rendered tuples)."""
    lines = ["\t".join(map(render, r)) for r in rows]
    lines.sort()
    return lines


def relation_text(rows) -> str:
    lines = sorted_lines(rows)
    return "\n".join(lines) + "\n" if lines else ""


# ---------------------------------------------------------------------------
# Result directories
# ---------------------------------------------------------------------------


def result_json_text(relations: dict[str, set[tuple]]) -> str:
    """Exactly ``json.dumps(doc, sort_keys=True, indent=2) + "\\n"`` for
    ``doc = {name: [[cell, ...] per sorted row] for name in OUTPUT_RELATIONS}``,
    written directly: with ``indent`` set, ``json.dumps`` leaves its C encoder
    for a pure-Python one."""
    members = []
    for name in sorted(OUTPUT_RELATIONS):
        lines = sorted_lines(relations.get(name, set()))
        if lines:
            rows = [",\n      ".join(map(encode_basestring_ascii, line.split("\t"))) for line in lines]
            body = "[\n    [\n      " + "\n    ],\n    [\n      ".join(rows) + "\n    ]\n  ]"
        else:
            body = "[]"
        members.append(f"  {encode_basestring_ascii(name)}: {body}")
    return "{\n" + ",\n".join(members) + "\n}\n"


def write_result_dir(relations: dict[str, set[tuple]], outdir: str | Path, *, format: str = "tsv") -> None:
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    if format == "tsv":
        for name in OUTPUT_RELATIONS:
            (out / f"{name}.tsv").write_text(relation_text(relations.get(name, set())), encoding="utf-8")
    elif format == "json":
        (out / "result.json").write_text(result_json_text(relations), encoding="utf-8")
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
