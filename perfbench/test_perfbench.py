"""Tests of the benchmark's own logic.  Run by hand:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import metrics
import spans
import worker

ROOT = Path(__file__).resolve().parent.parent


# -- the percentile rule -------------------------------------------------


def test_percentile_is_nearest_rank():
    samples = [float(i) for i in range(1, 101)]
    assert metrics.percentile(samples, 50) == 50.0
    assert metrics.percentile(samples, 90) == 90.0
    assert metrics.percentile(list(reversed(samples)), 90) == 90.0
    assert metrics.percentile([7.0], 99) == 7.0


@pytest.mark.parametrize(
    "n, expected",
    [(10, None), (99, None), (100, 90.0), (999, 90.0), (1000, 99.0), (10_000, 99.9)],
)
def test_high_percentile_needs_ten_samples_beyond_it(n, expected):
    samples = [float(i) for i in range(n)]
    got = metrics.high_percentile(samples)
    if expected is None:
        assert got is None
        return
    p, value = got
    assert p == expected
    assert sum(1 for s in samples if s > value) >= metrics.MIN_BEYOND


# -- self time -------------------------------------------------------------


def _span(sid, name, start, end, parent, job=0):
    return spans.Span(sid, name, start, end, parent, job)


def test_self_time_subtracts_nested_children():
    tree = [
        _span(0, "cli", 0.0, 10.0, None),
        _span(1, "analysis", 1.0, 4.0, 0),
        _span(2, "engine.saturate", 2.0, 3.0, 1),
        _span(3, "serialize.write", 5.0, 9.0, 0),
    ]
    own = spans.self_times(tree)
    assert own == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}
    assert sum(own.values()) == 10.0
    spans.check_self_times_add_up(tree, "cli")


def test_self_time_counts_overlapping_children_once():
    tree = [
        _span(0, "cli", 0.0, 10.0, None),
        _span(1, "a", 1.0, 5.0, 0),
        _span(2, "b", 3.0, 7.0, 0),
    ]
    assert spans.self_times(tree)[0] == 4.0


def test_self_times_that_do_not_add_up_are_rejected():
    tree = [_span(0, "cli", 0.0, 10.0, None), _span(1, "a", 1.0, 4.0, 0)]
    tree[1].parent = None  # orphaned: its time is counted twice
    with pytest.raises(RuntimeError, match="add up"):
        spans.check_self_times_add_up(tree, "cli")


def test_tracer_wraps_records_counts_and_restores():
    class Owner:
        @staticmethod
        def work(x):
            return x * 2

    tracer = spans.Tracer()
    original = Owner.work
    tracer.wrap(Owner, "work", "layer.work", lambda c, result, args: c.update(n=result))
    root = tracer.begin("cli")
    assert Owner.work(21) == 42
    tracer.end(root)
    tracer.unwrap_all()
    assert Owner.work is original
    assert [(s.name, s.parent) for s in tracer.spans] == [("cli", None), ("layer.work", 0)]
    assert tracer.counts["n"] == 42


def test_wrapping_a_missing_name_fails_loudly():
    with pytest.raises(SystemExit, match="no longer exists"):
        spans.Tracer().wrap(json, "no_such_function", "x")


# -- failed_ratio ------------------------------------------------------------


def test_failed_ratio():
    assert metrics.failed_ratio(0, 300) == 0.0
    assert metrics.failed_ratio(3, 300) == 0.01
    with pytest.raises(ValueError):
        metrics.failed_ratio(0, 0)
    with pytest.raises(ValueError):
        metrics.failed_ratio(5, 4)


@pytest.mark.parametrize(
    "field, value, reason",
    [
        ("digest", "0" * 64, "output differs from the pinned digest"),
        ("derived", 1, "derived 61 facts, pinned 1"),
    ],
)
def test_a_wrong_pin_fails_exactly_the_jobs_of_that_input(
    tmp_path, monkeypatch, capsys, field, value, reason
):
    pins = json.loads(worker.PINS.read_text())
    key = "corpus 05_if_conflated m=1 t=both-branches tsv"
    pins[key] = dict(pins[key], **{field: value})
    fake = tmp_path / "pins.json"
    fake.write_text(json.dumps(pins))
    monkeypatch.setattr(worker, "PINS", fake)
    args = ["--workload", "corpus-matrix", "--seed", "3", "--seconds", "0.01",
            "--work", str(tmp_path / "work")]
    assert worker.main(args) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    rounds = result["rounds"]
    assert result["attempted"] == 300 * rounds
    assert rounds >= 2  # the warm-up round and at least one measured round
    assert result["table"]["analyze"]["jobs"] == 150 * (rounds - 1)  # warm jobs only
    assert result["failed"] == 2 * rounds  # both paths of the one input
    assert result["table"]["failed_ratio"] == 2 / 300
    assert result["failures"] == [reason]


def test_calibration_leaves_out_stalled_and_lucky_samples():
    cal = metrics.Calibration()
    cal.samples = [metrics.REF_SECONDS * 2] * 8 + [metrics.REF_SECONDS * 50, 0.0]
    assert cal.slowdown() == pytest.approx(2.0)
    cal.sample()
    assert len(cal.samples) == 11 and cal.samples[-1] > 0


# -- the benchmark's declared shape ---------------------------------------


def test_benchmark_json_matches_the_reported_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == metrics.PER_LAYER
    contract = [w["name"] for w in bench["workloads"]]
    assert contract == [w for w in worker.workloads.WORKLOADS if w != "corpus-matrix"]


def test_pins_hold_the_roadmap_baseline_cell():
    pins = json.loads(worker.PINS.read_text())
    assert pins["mcfa n=16 k=1 p=0 m=0 t=both-branches tsv"]["derived"] == 9_908
