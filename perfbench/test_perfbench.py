"""Tests of the benchmark's own logic (no package under test needed).

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import math
import os
from types import SimpleNamespace

import pytest

import numpy as np

from common import Outcomes, percentile, samples_beyond, tail_is_reportable
import live
import tracing


# -- percentile rule -----------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    # Even length: the lower middle sample, never an interpolation.
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.0


def test_percentile_keeps_failures_beyond_any_limit():
    values = [1.0] * 98 + [float("inf")] * 2
    assert percentile(values, 50) == 1.0
    assert math.isinf(percentile(values, 99))


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_p99_needs_a_thousand_samples_for_ten_beyond():
    assert samples_beyond(1000, 99) == 10
    assert tail_is_reportable(1000, 99)
    assert not tail_is_reportable(999, 99)
    assert samples_beyond(2000, 99) == 20


# -- self-time arithmetic ------------------------------------------------


def _span(i, parent, name, start, end, pid=1):
    return {"pid": pid, "id": i, "parent": parent, "name": name, "start": start, "end": end}


def test_self_time_subtracts_children():
    spans = [
        _span(1, 0, "detect", 0.0, 10.0),
        _span(2, 1, "kernel", 1.0, 3.0),
        _span(3, 1, "kernel", 4.0, 5.0),
    ]
    own = tracing.self_times(spans)
    assert own["detect"] == pytest.approx(7.0)
    assert own["kernel"] == pytest.approx(3.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span(1, 0, "parent", 0.0, 10.0),
        _span(2, 1, "a", 1.0, 4.0),
        _span(3, 1, "b", 2.0, 5.0),
        # Escapes the parent's end: only the covered part is subtracted.
        _span(4, 1, "c", 9.0, 12.0),
    ]
    assert tracing.self_times(spans)["parent"] == pytest.approx(10.0 - 4.0 - 1.0)


def test_self_time_ignores_grandchildren_and_other_processes():
    spans = [
        _span(1, 0, "root", 0.0, 10.0),
        _span(2, 1, "child", 2.0, 6.0),
        _span(3, 2, "grandchild", 3.0, 5.0),
        # Same ids in another process are different spans.
        _span(2, 1, "elsewhere", 0.0, 10.0, pid=2),
    ]
    own = tracing.self_times(spans)
    assert own["root"] == pytest.approx(6.0)
    assert own["child"] == pytest.approx(2.0)
    assert own["grandchild"] == pytest.approx(2.0)


def test_inclusive_time_counts_nested_same_name_once():
    spans = [
        _span(1, 0, "extract", 0.0, 4.0),
        _span(2, 1, "extract", 1.0, 2.0),
        _span(3, 0, "extract", 5.0, 6.0),
    ]
    assert tracing.inclusive_times(spans)["extract"] == pytest.approx(5.0)


def test_recorder_links_parents_and_pauses():
    recorder = tracing.Recorder("test")
    inner = recorder.wrap("inner", lambda x: x + 1)
    outer = recorder.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    inner_span, outer_span = recorder.records()
    assert (inner_span["name"], outer_span["name"]) == ("inner", "outer")
    assert inner_span["parent"] == outer_span["id"]
    assert outer_span["parent"] == 0
    assert tracing.self_times(recorder.records())["outer"] >= 0.0

    tracing.ACTIVE = recorder
    try:
        with tracing.paused():
            outer(1)
    finally:
        tracing.ACTIVE = None
    assert len(recorder.spans) == 2


def test_generator_spans_count_items():
    recorder = tracing.Recorder("test")

    def windows(n):
        yield from range(n)

    wrapped = recorder.wrap_generator("stream.process", windows, "stream.windows")
    assert list(wrapped(3)) == [0, 1, 2]
    # One span per resumption, including the one that ends the stream,
    # which yields nothing and so counts no window.
    records = recorder.records()
    assert len(records) == 4
    assert [r.get("counts") for r in records] == [{"stream.windows": 1}] * 3 + [None]


def test_span_file_round_trip(tmp_path):
    recorder = tracing.Recorder("test")
    recorder.wrap("rules", len, lambda result, _args: {"n": result})([1, 2])
    recorder.dump(tmp_path / "spans.jsonl")
    assert tracing.load_spans(tmp_path / "spans.jsonl") == recorder.records()


def test_layer_metrics_read_spans_counts_and_extras():
    spans = [
        _span(1, 0, "detect.kl", 0.0, 3.0),
        _span(2, 1, "planes.get", 0.4, 1.6),
        _span(3, 2, "kernel.feature_plane", 0.5, 1.5),
        _span(4, 1, "planes.get", 1.7, 1.8),
        _span(5, 1, "planes.get", 1.9, 2.0),
        _span(6, 0, "warehouse.store", 4.0, 4.5),
    ]
    spans[0]["counts"] = {"detect.alarms": 5}
    values = tracing.layer_metrics(spans, {"pool.compute_s": 1.25})
    assert list(values) == list(tracing.LAYER_UNITS)
    assert values["detect.kl.self_s"] == pytest.approx(3.0 - 1.2 - 0.1 - 0.1)
    assert values["kernel.feature_plane.s"] == pytest.approx(1.0)
    assert values["kernel.feature_plane.calls"] == 1
    assert values["warehouse.store_s"] == pytest.approx(0.5)
    assert values["detect.alarms"] == 5
    assert (values["planes.hits"], values["planes.misses"]) == (2, 1)
    assert values["pool.compute_s"] == 1.25
    assert values["stream.windows"] == 0.0


# -- failure counting ----------------------------------------------------


def test_outcomes_count_failures_against_attempts():
    outcomes = Outcomes()
    assert not outcomes.correct  # nothing attempted is not a pass
    outcomes.attempt(True)
    outcomes.attempt(False, "digest differs")
    outcomes.attempt(True, count=8)
    assert (outcomes.attempted, outcomes.failed) == (10, 1)
    assert outcomes.ratio == pytest.approx(0.1)
    assert outcomes.reasons == ["digest differs"]
    assert not outcomes.correct


def test_outcomes_merge():
    first, second = Outcomes(), Outcomes()
    first.attempt(True, count=3)
    second.attempt(False, "leaked shared memory", count=2)
    first.merge(second)
    assert (first.attempted, first.failed) == (5, 2)
    assert first.reasons == ["leaked shared memory"]


# -- live-feeds window bookkeeping ---------------------------------------


def test_completing_chunks_follow_the_emission_rule():
    n = 5 * live.CHUNK
    times = np.linspace(0.0, 150.0, n, endpoint=False)
    table = SimpleNamespace(time=times)
    chunks = live._completing_chunks(table)
    ends = [times[min(i + live.CHUNK, n) - 1] for i in range(0, n, live.CHUNK)]
    # Windows close at 60, 90 and 120 s: each by the first chunk whose
    # last packet reaches that time.
    assert len(chunks) == 3
    for k, chunk in enumerate(chunks):
        edge = live.WINDOW + k * live.HOP
        assert ends[chunk] >= edge
        assert chunk == 0 or ends[chunk - 1] < edge


# -- process hygiene -----------------------------------------------------


def test_awake_cpus_stops_its_spinners():
    with live.awake_cpus() as spinners:
        assert spinners
        assert all(spinner.poll() is None for spinner in spinners)
    # Killed and reaped: no process of the block outlives it.
    assert all(spinner.returncode is not None for spinner in spinners)
    assert not any(os.path.exists(f"/proc/{s.pid}") for s in spinners)
