"""The benchmark's workloads: which inputs each one runs, on which paths.

A workload is a fixed list of jobs.  A job is one CLI run,
``schemeflow <analyze|oracle> FILE --m M --truthiness T --format F --out DIR``,
on an input written to a file before timing.  Termgen cells are
``(n, k, padding, m)`` for ``termgen.gen_mcfa_worst`` at the default widen
depth of 2.  The seed shuffles the job order, and for cells in the precise
regime it also draws n from five values around the nominal one (work there
grows about linearly in n).  Conflated cells keep n fixed: their fact count
grows as n cubed, so even n +/- 1 would move the work by about 20%.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

PATHS = ("analyze", "oracle")
TRUTHINESS = ("both-branches", "appendix-exact")


@dataclass(frozen=True)
class Cell:
    n: int
    k: int
    padding: int
    m: int
    fmt: str = "tsv"
    paths: tuple[str, ...] = PATHS

    @property
    def precise(self) -> bool:
        return self.m > self.padding

    def n_choices(self) -> tuple[int, ...]:
        if not self.precise:
            return (self.n,)
        step = max(1, self.n // 128)
        return tuple(self.n + step * j for j in range(-2, 3))


@dataclass(frozen=True)
class Input:
    """One program under one configuration and output format."""

    key: str
    text: str
    m: int
    truthiness: str
    fmt: str


@dataclass(frozen=True)
class Job:
    input: Input
    path: str  # "analyze" (engine) or "oracle" (worklist machine)

    def argv(self, program_file: Path, out_dir: Path) -> list[str]:
        return [
            self.path,
            str(program_file),
            "--m",
            str(self.input.m),
            "--truthiness",
            self.input.truthiness,
            "--format",
            self.input.fmt,
            "--out",
            str(out_dir),
        ]


# Why each workload exists is recorded in BENCHMARK.json and README.md.
CELLS: dict[str, tuple[Cell, ...]] = {
    "conflated-engine": (Cell(16, 1, 0, 0), Cell(16, 1, 1, 1)),
    "precise-large": (Cell(256, 4, 0, 2), Cell(512, 2, 0, 1)),
    "oracle-scale": (
        Cell(32, 1, 0, 0, "tsv", ("oracle",)),
        Cell(32, 1, 1, 1, "json", ("oracle",)),
    ),
}
WORKLOADS = ("corpus-matrix",) + tuple(CELLS)
CORPUS_MS = (0, 1, 2)


def corpus_dir(root: Path) -> Path:
    return root / "tests" / "corpus"


def _cell_input(cell: Cell, n: int, gen) -> Input:
    source = f"mcfa n={n} k={cell.k} p={cell.padding}"
    text = gen(n, cell.k, cell.padding)
    key = f"{source} m={cell.m} t=both-branches {cell.fmt}"
    return Input(key, text, cell.m, "both-branches", cell.fmt)


def _corpus_inputs(root: Path) -> list[Input]:
    out = []
    for f in sorted(corpus_dir(root).glob("*.scm")):
        text = f.read_text()
        for m in CORPUS_MS:
            for t in TRUTHINESS:
                out.append(Input(f"corpus {f.stem} m={m} t={t} tsv", text, m, t, "tsv"))
    return out


def jobs(workload: str, seed: int, root: Path, gen) -> list[Job]:
    """The workload's jobs in the order the seed gives.  ``gen(n, k, p)``
    returns the termgen program text."""
    rng = random.Random(seed)
    if workload == "corpus-matrix":
        out = [Job(i, p) for i in _corpus_inputs(root) for p in PATHS]
        if len(out) != 25 * len(CORPUS_MS) * len(TRUTHINESS) * len(PATHS):
            raise SystemExit(f"corpus-matrix: expected 300 jobs, found {len(out)}")
    elif workload in CELLS:
        out = []
        for cell in CELLS[workload]:
            inp = _cell_input(cell, rng.choice(cell.n_choices()), gen)
            out.extend(Job(inp, p) for p in cell.paths)
    else:
        raise SystemExit(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng.shuffle(out)
    return out


def all_inputs(workload: str, root: Path, gen) -> list[tuple[Input, tuple[str, ...]]]:
    """Every input any seed can draw for the workload, with its paths."""
    if workload == "corpus-matrix":
        return [(i, PATHS) for i in _corpus_inputs(root)]
    return [
        (_cell_input(cell, n, gen), cell.paths)
        for cell in CELLS[workload]
        for n in cell.n_choices()
    ]
