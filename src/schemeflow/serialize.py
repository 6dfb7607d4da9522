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

The JSON document escapes each distinct term of a relation once, with
``encode_basestring_ascii``, and builds each row's text from those escaped
cells.  When every cell escapes to itself in quotes, the rows' texts sort
as their lines do: the same prefix argument holds with ``'"'`` in place of
the tab, since ``'"'`` also sorts before every digit.  When some cell does
escape (an identifier with a backslash, a control character or a
non-ASCII character), its escape need not sort as its text, so the rows
are ordered by their lines instead.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import TextIO

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


def sorted_lines(rows, cell=render) -> list[str]:
    """Each row's rendered columns joined by tabs, sorted (see the module
    docstring for why this is the order of the rendered tuples).

    Lines are built column by column, so no Python frame runs per row or
    per cell.  ``cell`` renders one column value: :func:`render` takes any
    value (EDB rows also hold raw strings and ints); the writers of result
    relations, whose columns are all terms, read each term's text.  Each
    column is read from the rows by index: transposing them with
    ``zip(*rows)`` makes an iterator object per row, and that raised peak
    memory."""
    rows = tuple(rows)
    if not rows:
        return []
    columns = [map(cell, map(itemgetter(i), rows)) for i in range(len(rows[0]))]
    lines = list(map("\t".join, zip(*columns)))
    lines.sort()
    return lines


def relation_text(rows, lines_of=sorted_lines) -> str:
    lines = lines_of(rows)
    return "\n".join(lines) + "\n" if lines else ""


def _result_lines(rows) -> list[str]:
    """``sorted_lines`` of a result relation, whose cells are all terms, each
    read as the text fixed on it at interning.  A text too long to be fixed
    there is None, so the join raises; then the relation is rendered cell by
    cell, which builds and keeps those texts."""
    try:
        return sorted_lines(rows, attrgetter("_text"))
    except TypeError:
        return sorted_lines(rows)


# ---------------------------------------------------------------------------
# Result directories
# ---------------------------------------------------------------------------


# Rows of a relation per write of the JSON document, so that no text of a
# whole relation is built.
JSON_SLICE_ROWS = 2048


def _json_rows(rows) -> list[str]:
    """Each row of a result relation as its JSON array's cells, escaped and
    joined by the document's separators, in the order of the rows' lines
    (see the module docstring).  Each distinct term is escaped once."""
    rows = tuple(rows)
    columns = range(len(rows[0]))

    def cells(of) -> zip:
        """Each row as the tuple of ``of`` its cells."""
        return zip(*[map(of, map(itemgetter(i), rows)) for i in columns])

    terms = list(set().union(*[map(itemgetter(i), rows) for i in columns]))
    texts = list(map(attrgetter("_text"), terms))
    if None in texts:  # a text too long to be fixed at interning
        texts = list(map(render, terms))
    escaped = list(map(encode_basestring_ascii, texts))
    json_rows = list(map(",\n      ".join, cells(dict(zip(terms, escaped)).__getitem__)))
    # An escape is longer than the character it stands for, so each cell
    # escapes to itself in quotes exactly when the lengths add up.
    if sum(map(len, escaped)) == sum(map(len, texts)) + 2 * len(texts):
        json_rows.sort()
        return json_rows
    lines = map("\t".join, cells(dict(zip(terms, texts)).__getitem__))
    return [json_row for _, json_row in sorted(zip(lines, json_rows))]


def write_result_json(relations: dict[str, set[tuple]], out: TextIO) -> None:
    """Write exactly ``json.dumps(doc, sort_keys=True, indent=2) + "\\n"`` for
    ``doc = {name: [[cell, ...] per sorted row] for name in OUTPUT_RELATIONS}``
    to ``out``, directly: with ``indent`` set, ``json.dumps`` leaves its C
    encoder for a pure-Python one.  Each relation's rows are written
    ``JSON_SLICE_ROWS`` at a time, so the document is never held whole."""
    sep = "{\n"
    row_sep = "\n    ],\n    [\n      "
    for name in sorted(OUTPUT_RELATIONS):
        out.write(f"{sep}  {encode_basestring_ascii(name)}: ")
        sep = ",\n"
        rows = relations.get(name)
        if not rows:
            out.write("[]")
            continue
        json_rows = _json_rows(rows)
        out.write("[\n    [\n      ")
        for start in range(0, len(json_rows), JSON_SLICE_ROWS):
            if start:
                out.write(row_sep)
            out.write(row_sep.join(json_rows[start : start + JSON_SLICE_ROWS]))
        out.write("\n    ]\n  ]")
    out.write("\n}\n")


def write_result_dir(relations: dict[str, set[tuple]], outdir: str | Path, *, format: str = "tsv") -> None:
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    if format == "tsv":
        for name in OUTPUT_RELATIONS:
            rows = relations.get(name, set())
            (out / f"{name}.tsv").write_text(relation_text(rows, _result_lines), encoding="utf-8")
    elif format == "json":
        with open(out / "result.json", "w", encoding="utf-8") as f:
            write_result_json(relations, f)
    else:
        raise ValidationError(f"unknown output format {format!r}")


# ---------------------------------------------------------------------------
# Run reports
# ---------------------------------------------------------------------------


def report_json(report: dict[str, object]) -> str:
    """The run report ``report`` as its JSON text: exactly
    ``json.dumps(report, sort_keys=True, indent=2) + "\\n"``."""
    return _indented_json(report, "") + "\n"


def _indented_json(value: object, indent: str) -> str:
    """Exactly ``json.dumps(value, sort_keys=True, indent=2)`` for a dict
    of scalars and such dicts, nested at ``indent``.  With ``indent`` set,
    ``json.dumps`` uses a pure-Python encoder whose closures leave cyclic
    garbage behind every call; each scalar here goes through the C one."""
    if not isinstance(value, dict) or not value:
        return json.dumps(value)
    inner = indent + "  "
    members = [f"{inner}{json.dumps(k)}: {_indented_json(value[k], inner)}" for k in sorted(value)]
    return "{\n" + ",\n".join(members) + "\n" + indent + "}"
