"""Result directories written by the CLI, byte for byte, against the digests
that ``perfbench/pins.json`` pins for the benchmark's inputs.

The writer tests in ``test_serialize.py`` compare against reference writers
that render through the same term text, so they cannot see a wrong text
fixed on a term.  These digests were taken from earlier trees; this file
only reads them.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from schemeflow.cli import main
from schemeflow.termgen import GenSpec, gen_mcfa_worst

from conftest import CORPUS, corpus_ids

PINS = json.loads((Path(__file__).parent.parent / "perfbench" / "pins.json").read_text())


def digest_dir(path: Path) -> str:
    """SHA-256 over every file name and its bytes, as the benchmark takes it."""
    h = hashlib.sha256()
    for f in sorted(path.iterdir()):
        data = f.read_bytes()
        h.update(f.name.encode() + b"\0" + str(len(data)).encode() + b"\0" + data)
    return h.hexdigest()


def run_digest(path: str, program: Path, m: int, truthiness: str, fmt: str, out: Path) -> str:
    argv = [path, str(program), "--m", str(m), "--truthiness", truthiness, "--format", fmt]
    assert main(argv + ["--out", str(out)]) == 0
    return digest_dir(out)


@pytest.mark.parametrize("program", CORPUS, ids=corpus_ids())
def test_corpus_outputs_match_the_pins(program, tmp_path, capsys):
    for m in (0, 1, 2):
        for truthiness in ("both-branches", "appendix-exact"):
            pin = PINS[f"corpus {program.stem} m={m} t={truthiness} tsv"]["digest"]
            for path in ("analyze", "oracle"):
                out = tmp_path / f"{path}-{m}-{truthiness}"
                assert run_digest(path, program, m, truthiness, "tsv", out) == pin, (path, m, truthiness)


@pytest.mark.parametrize(
    "n, k, padding, m, fmt, paths",
    [
        (16, 1, 0, 0, "tsv", ("analyze", "oracle")),
        (16, 1, 1, 1, "tsv", ("analyze", "oracle")),
        (32, 1, 1, 1, "json", ("oracle",)),
    ],
    ids=["conflated-engine-16-1-0-0", "conflated-engine-16-1-1-1", "oracle-scale-32-1-1-1-json"],
)
def test_benchmark_cell_outputs_match_the_pins(n, k, padding, m, fmt, paths, tmp_path, capsys):
    program = tmp_path / "cell.scm"
    program.write_text(gen_mcfa_worst(GenSpec(n, k, padding)))
    pin = PINS[f"mcfa n={n} k={k} p={padding} m={m} t=both-branches {fmt}"]["digest"]
    for path in paths:
        assert run_digest(path, program, m, "both-branches", fmt, tmp_path / path) == pin, path
