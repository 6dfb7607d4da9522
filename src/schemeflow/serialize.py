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

A result relation is written one of two ways, chosen from its own rows by
one property: rows per distinct first-column term.  A relation with fewer
than ``GROUPED_ROWS_PER_FIRST`` is written flat, one line (or JSON row) per
row, sorted as above.  One with more is written grouped: its rows are
grouped by their first term, the groups are ordered by that term's text,
and each group becomes one block, the first cell written once as the prefix
of each of the group's rows.  The rest of a row (its other cells) comes
from a set keyed by the group's rests, so each distinct set of rests is
ordered once, by the rests' lines, and groups with the same set share it.
This is the order of the lines: they sort as their tuples of cells, a
tuple sorts by its first cell first, distinct terms have distinct texts,
and the rests' lines sort as their tuples by the argument above.  TSV and
JSON take the same groups in the same order, ordered by the terms' texts
and never by their escapes, so the grouped JSON needs no test of whether
its cells escape to themselves.

The two regimes of the analysis fall on either side of the constant.
Where arguments conflate (m <= padding), 92-98% of the published rows sit
in relations with at least 8 rows per first term: at termgen cell
(32,1,0,0), ``state_a`` has 32.1, ``stored_val`` 965, ``flow_aa`` 32.0 and
``flow_ea`` 16.7, and the 1,058 values of ``state_a`` share 35 distinct
sets of continuation addresses.  At the precise cells the most is
``state_e``, with 3.93 at (256,4,0,2) and 2.65 at (512,2,0,1).
"""

from __future__ import annotations

import json
from collections import deque
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


def sorted_lines(rows) -> list[str]:
    """Each row's rendered columns joined by tabs, sorted (see the module
    docstring for why this is the order of the rendered tuples).  Cells may
    be raw strings and ints besides terms, as in EDB rows."""
    rows = tuple(rows)
    return _sorted_lines(rows, list(map(itemgetter(0), rows)), render) if rows else []


def _sorted_lines(rows: tuple, firsts: list, cell) -> list[str]:
    """``sorted_lines`` of ``rows``, whose first column is ``firsts``, with
    ``cell`` rendering one column value.

    Lines are built column by column, so no Python frame runs per row or
    per cell.  Each column is read from the rows by index: transposing them
    with ``zip(*rows)`` makes an iterator object per row, and that raised
    peak memory."""
    columns = [map(cell, firsts), *[map(cell, map(itemgetter(i), rows)) for i in range(1, len(rows[0]))]]
    lines = list(map("\t".join, zip(*columns)))
    lines.sort()
    return lines


def relation_text(rows) -> str:
    lines = sorted_lines(rows)
    return "\n".join(lines) + "\n" if lines else ""


# ---------------------------------------------------------------------------
# Result directories
# ---------------------------------------------------------------------------


# Rows per distinct first-column term from which a result relation is
# written grouped.  On synthetic width-2 relations of 4,096 rows, grouped
# writing overtakes flat writing at about 4 rows per first term when every
# group has the same set of rests, and at 10-16 (TSV) or 4-6 (JSON) when no
# two groups share theirs.  The relations of precise cells reach at most
# 3.94, and the large ones of conflated cells at least 14.5, with few
# distinct sets (the module docstring gives the traffic); 8 is a factor of
# about 2 from both.
GROUPED_ROWS_PER_FIRST = 8

# Rows of a relation per write of the JSON document, on average over its
# pieces, so that no text of a whole relation is built.
JSON_SLICE_ROWS = 2048
JSON_CELL_SEP = ",\n      "
JSON_ROW_SEP = "\n    ],\n    [\n      "


def _result_pieces(rows, flat, escape, cell_sep: str, row_sep: str) -> list[str]:
    """The rows of a non-empty result relation in line order, as texts of
    whole rows joined by ``row_sep``, each row its cells (``escape``d, for
    JSON) joined by ``cell_sep``.  A relation with at least
    ``GROUPED_ROWS_PER_FIRST`` rows per distinct first-column term comes in
    one piece per first term, from :func:`_blocks`; any other comes from
    ``flat``, one piece per row.

    Both read each term's text as the one fixed on it at interning.  A text
    too long to be fixed there is None, so the pieces raise ``TypeError``;
    then they are built again with :func:`render`, which builds and keeps
    those texts."""
    rows = tuple(rows)
    firsts = list(map(itemgetter(0), rows))
    distinct = _few_distinct(firsts)

    def pieces(text) -> list[str]:
        if distinct is None:
            return flat(rows, firsts, text)
        return _blocks(rows, firsts, distinct, text, escape, cell_sep, row_sep)

    try:
        return pieces(attrgetter("_text"))
    except TypeError:
        return pieces(render)


def _few_distinct(firsts: list) -> set | None:
    """The distinct terms of ``firsts`` if each repeats at least
    ``GROUPED_ROWS_PER_FIRST`` times on average, else None.  The terms are
    counted a slice of an eighth of them at a time, and the count stops as
    soon as it shows too many: on the precise cells, after one to four
    slices."""
    limit = len(firsts) // GROUPED_ROWS_PER_FIRST
    distinct = set()
    for start in range(0, len(firsts), limit + 1):
        distinct.update(firsts[start : start + limit + 1])
        if len(distinct) > limit:
            return None
    return distinct


def _blocks(rows: tuple, firsts: list, distinct: set, text, escape, cell_sep: str, row_sep: str) -> list[str]:
    """One piece per first-column term, in the order of the terms' texts:
    the rows that start with it, each as its first cell, ``cell_sep`` and
    its rest.  A row's rest is its second cell, or the tuple of its other
    cells in a wider relation.  The rests of a group are keyed by their set,
    so groups with the same set share one list of rest texts, ordered once
    by the rests' lines (the module docstring says why that is the order
    of the rows' lines).  ``escape`` is None for TSV, whose cells are the
    terms' texts."""
    width = len(rows[0])
    groups = {first: [] for first in distinct}
    rests = map(itemgetter(1 if width == 2 else slice(1, width)), rows)
    deque(map(list.append, map(groups.__getitem__, firsts), rests), maxlen=0)
    # Each group's list gives way to one set object per distinct set of
    # rests, so that the lists and the equal sets are freed as it goes.
    sets: dict[frozenset, frozenset] = {}
    for first, rests in groups.items():
        rests = frozenset(rests)
        groups[first] = sets.setdefault(rests, rests)
    term_cell = text if escape is None else lambda term: escape(text(term))
    if width == 2:
        line, cell = text, term_cell
    else:
        line = lambda rest: "\t".join(map(text, rest))
        cell = lambda rest: cell_sep.join(map(term_cell, rest))
    if escape is None:  # a TSV row's cells are its line
        tails = {rests: sorted(map(line, rests)) for rests in sets}
    else:
        tails = {rests: list(map(cell, sorted(rests, key=line))) for rests in sets}
    blocks = []
    for first in sorted(groups, key=text):
        prefix = term_cell(first) + cell_sep
        blocks.append(prefix + (row_sep + prefix).join(tails[groups[first]]))
    return blocks


def _json_rows(rows: tuple, firsts: list, text) -> list[str]:
    """Each row of a result relation as its JSON array's cells, escaped and
    joined by the document's separators, in the order of the rows' lines
    (see the module docstring).  Each distinct term is escaped once."""
    columns = range(1, len(rows[0]))

    def cells(of) -> zip:
        """Each row as the tuple of ``of`` its cells."""
        return zip(map(of, firsts), *[map(of, map(itemgetter(i), rows)) for i in columns])

    terms = list(set(firsts).union(*[map(itemgetter(i), rows) for i in columns]))
    texts = list(map(text, terms))
    escaped = list(map(encode_basestring_ascii, texts))
    json_rows = list(map(JSON_CELL_SEP.join, cells(dict(zip(terms, escaped)).__getitem__)))
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
    encoder for a pure-Python one.  Each relation's rows are written about
    ``JSON_SLICE_ROWS`` at a time, so the document is never held whole."""
    sep = "{\n"
    for name in sorted(OUTPUT_RELATIONS):
        out.write(f"{sep}  {encode_basestring_ascii(name)}: ")
        sep = ",\n"
        rows = relations.get(name)
        if not rows:
            out.write("[]")
            continue
        pieces = _result_pieces(rows, _json_rows, encode_basestring_ascii, JSON_CELL_SEP, JSON_ROW_SEP)
        step = max(1, JSON_SLICE_ROWS * len(pieces) // len(rows))
        out.write("[\n    [\n      ")
        for start in range(0, len(pieces), step):
            if start:
                out.write(JSON_ROW_SEP)
            out.write(JSON_ROW_SEP.join(pieces[start : start + step]))
        out.write("\n    ]\n  ]")
    out.write("\n}\n")


def write_result_dir(relations: dict[str, set[tuple]], outdir: str | Path, *, format: str = "tsv") -> None:
    if format not in ("tsv", "json"):
        raise ValidationError(f"unknown output format {format!r}")
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    if format == "json":
        with open(out / "result.json", "w", encoding="utf-8") as f:
            write_result_json(relations, f)
        return
    for name in OUTPUT_RELATIONS:
        rows = relations.get(name)
        # The empty last piece ends the text with a newline without a copy.
        text = "\n".join(_result_pieces(rows, _sorted_lines, None, "\t", "\n") + [""]) if rows else ""
        (out / f"{name}.tsv").write_text(text, encoding="utf-8")


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
