"""Spans around the package's layer boundaries, recorded from outside.

Nothing in the package is instrumented: :func:`install` replaces public
functions and methods of each layer with thin wrappers that record a
span (name, start, end, parent span, thread, run id) and a few counts,
then call the original.  Spans stay in memory and are written as JSON
lines when the run ends (:meth:`Recorder.dump`).

A span's *self time* is its duration minus the part of that interval
its child spans cover (:func:`self_times`).  Children always run on the
parent's thread, so a thread-local stack gives every span its parent.

Wrappers only record in the process that installed them: pool workers
forked from a traced parent run the wrapped code but record nothing
(their time shows up as the pool's ``compute`` phase instead).
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path

#: Detector families the per-layer metrics report.
DETECTORS = ("pca", "gamma", "hough", "kl")
#: Pool phases reported by ``LabelingSession.label_traces(profile=...)``.
POOL_PHASES = ("export", "planes", "attach", "compute", "merge", "idle")


class Recorder:
    """In-memory span store for one traced run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.pid = os.getpid()
        #: (id, parent, name, start, end, thread, counts) tuples.
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: Cleared while the workload does unmeasured work (set-up,
        #: checks), so spans cover only what the metrics time.
        self.enabled = True

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, tally=None):
        """``fn`` recording one span per call.

        ``name`` may be a callable of the call's ``self``.
        ``tally(result, args)`` returns counters the span carries, so a
        count always covers exactly the spans it is read with.
        """
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.enabled or os.getpid() != recorder.pid:
                return fn(*args, **kwargs)
            label = name(args[0]) if callable(name) else name
            stack = recorder._stack()
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            counts = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if tally is not None:
                    counts = tally(result, args)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder.spans.append(
                    (span_id, parent, label, start, end, threading.get_ident(), counts)
                )

        wrapper.__perfbench_original__ = fn
        return wrapper

    def wrap_generator(self, name, fn, per_item: str):
        """A generator function whose every resumption is one span; a
        resumption that yields carries ``{per_item: 1}``."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            step = recorder.wrap(
                name, fn(*args, **kwargs).__next__, lambda _r, _a: {per_item: 1}
            )
            while True:
                try:
                    item = step()
                except StopIteration:
                    return
                yield item

        wrapper.__perfbench_original__ = fn
        return wrapper

    def records(self) -> list[dict]:
        """Every span as a dict (the span-file line format)."""
        records = []
        for span_id, parent, name, start, end, thread, counts in self.spans:
            record = {
                "run": self.run_id,
                "pid": self.pid,
                "id": span_id,
                "parent": parent,
                "name": name,
                "start": start,
                "end": end,
                "thread": thread,
            }
            if counts:
                record["counts"] = counts
            records.append(record)
        return records

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line (see README.md)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for record in self.records():
                handle.write(json.dumps(record) + "\n")


def load_spans(path: Path) -> list[dict]:
    """Read a span file back."""
    with open(path) as handle:
        return [json.loads(line) for line in handle]


def self_times(spans) -> dict[str, float]:
    """Total self time per span name.

    ``spans`` are dicts with ``id``, ``parent``, ``name``, ``start``
    and ``end`` (ids unique within one process, ``parent`` 0 for a
    root).  A span's self time is its duration minus the union of its
    children's intervals clipped to it, so overlapping or escaping
    children are never subtracted twice.
    """
    children: dict[tuple, list] = defaultdict(list)
    for span in spans:
        if span["parent"]:
            key = (span.get("pid"), span["parent"])
            children[key].append((span["start"], span["end"]))
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get((span.get("pid"), span["id"]), ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        totals[span["name"]] += max(end - start - covered, 0.0)
    return dict(totals)


def inclusive_times(spans) -> dict[str, float]:
    """Total wall time per span name, counting nested same-name spans once."""
    by_id = {(s.get("pid"), s["id"]): s for s in spans}
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        parent = by_id.get((span.get("pid"), span["parent"]))
        nested = False
        while parent is not None:
            if parent["name"] == span["name"]:
                nested = True
                break
            parent = by_id.get((parent.get("pid"), parent["parent"]))
        if not nested:
            totals[span["name"]] += span["end"] - span["start"]
    return dict(totals)


#: The recorder :func:`install` last installed in this process.
ACTIVE: "Recorder | None" = None


@contextlib.contextmanager
def paused():
    """Record nothing inside the block (no-op when tracing is off)."""
    recorder = ACTIVE
    if recorder is None or not recorder.enabled:
        yield
        return
    recorder.enabled = False
    try:
        yield
    finally:
        recorder.enabled = True


# -- installation --------------------------------------------------------


def _patch(owner, attr: str, make) -> None:
    original = getattr(owner, attr, None)
    if original is None or hasattr(original, "__perfbench_original__"):
        return
    setattr(owner, attr, make(original))


def _subclasses(cls) -> list:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        found.append(current)
        todo.extend(current.__subclasses__())
    return found


def install(recorder: Recorder) -> None:
    """Wrap every layer boundary the per-layer metrics read.

    Call before any session, pipeline or daemon is built: components
    capture engine kernels when they are constructed.
    """
    from repro.core import estimator as estimator_mod
    from repro.core.dynamic import DynamicSimilarityGraph
    from repro.core.extractor import TrafficExtractor
    from repro.core.strategies import CombinationStrategy
    from repro.detectors import registry  # noqa: F401 - loads every family
    from repro.detectors.base import Detector
    from repro.detectors.planes import PlaneCache
    from repro.engine.core import Engine
    from repro.labeling import mawilab
    from repro.labeling.database import LiveLabelIndex
    from repro.labeling.warehouse import Warehouse
    from repro.stream import pipeline as stream_mod
    from repro.stream.planes import StreamingPlanes

    global ACTIVE
    ACTIVE = recorder
    wrap = recorder.wrap

    # Engine kernels: wrap whatever Engine.kernel hands out.
    def kernel_lookup(original):
        wrappers: dict = {}

        def kernel(self, op):
            fn = original(self, op)
            wrapped = wrappers.get((op, fn))
            if wrapped is None:
                wrapped = wrappers[op, fn] = wrap(f"kernel.{op}", fn)
            return wrapped

        kernel.__perfbench_original__ = original
        return kernel

    _patch(Engine, "kernel", kernel_lookup)

    # Step 1: detectors and the shared feature-plane cache (a miss is a
    # planes.get span whose kernel.feature_plane child computes it).
    def count_alarms(result, _args):
        return {"detect.alarms": len(result)}

    def detector_name(detector):
        return f"detect.{detector.name}"

    for cls in _subclasses(Detector):
        for attr in ("analyze_table", "analyze_stream"):
            if attr in vars(cls):
                _patch(
                    cls, attr, lambda fn: wrap(detector_name, fn, count_alarms)
                )
    _patch(PlaneCache, "get", lambda fn: wrap("planes.get", fn))

    # Steps 2-3: extraction, similarity graph, Louvain, combiner.
    for attr in ("__init__", "extract_all", "extract_all_codes", "extract_table_codes"):
        _patch(TrafficExtractor, attr, lambda fn: wrap("extract", fn))

    def count_edges(graph, _args):
        return {"graph.edges": graph.n_edges}

    _patch(
        estimator_mod,
        "build_similarity_graph",
        lambda fn: wrap("graph", fn, count_edges),
    )
    for module in (estimator_mod, stream_mod):
        _patch(module, "louvain", lambda fn: wrap("louvain", fn))

    def count_communities(_result, args):
        return {"communities": len(args[1].communities)}

    for cls in _subclasses(CombinationStrategy):
        if "classify" in vars(cls):
            _patch(
                cls, "classify", lambda fn: wrap("combine", fn, count_communities)
            )

    # Step 4: heuristics and rule summarization.
    _patch(mawilab, "label_community", lambda fn: wrap("heuristics", fn))
    _patch(mawilab, "summarize_transactions", lambda fn: wrap("rules", fn))

    # Warehouse write and read paths.
    def count_rows(rows, _args):
        return {"warehouse.rows": len(rows)}

    _patch(Warehouse, "store_result", lambda fn: wrap("warehouse.store", fn))
    _patch(Warehouse, "query", lambda fn: wrap("warehouse.query", fn, count_rows))

    # Streaming: window loop, dynamic graph, incremental planes.
    _patch(
        stream_mod.StreamingPipeline,
        "process",
        lambda fn: recorder.wrap_generator("stream.process", fn, "stream.windows"),
    )
    for attr, label in (
        ("add_alarms", "dyn.add"),
        ("expire_alarms", "dyn.expire"),
        ("build", "dyn.build"),
    ):
        _patch(DynamicSimilarityGraph, attr, lambda fn, label=label: wrap(label, fn))
    _patch(StreamingPlanes, "append", lambda fn: wrap("splanes.append", fn))
    _patch(StreamingPlanes, "seed_window", lambda fn: wrap("splanes.seed", fn))

    # Live label index (read and write side of the serving layer).
    _patch(LiveLabelIndex, "publish", lambda fn: wrap("serve.publish", fn))
    _patch(LiveLabelIndex, "query", lambda fn: wrap("serve.query", fn))


def install_serve(recorder: Recorder) -> None:
    """The daemon-only boundaries: wire decode, feed push, ring wait."""
    from repro.serve import daemon, http

    wrap = recorder.wrap
    _patch(http, "rows_to_table", lambda fn: wrap("serve.decode", fn))
    _patch(daemon.Feed, "push", lambda fn: wrap("serve.push", fn))
    # Consumer-side waits for packets: a child of stream.process, so
    # idle time never counts as streaming work.
    _patch(daemon._FeedRing, "pop", lambda fn: wrap("serve.ring_wait", fn))


# -- per-layer metrics ---------------------------------------------------

#: Per-layer metric -> unit, in report order.
LAYER_UNITS: dict[str, str] = {}
for _family in DETECTORS:
    LAYER_UNITS[f"detect.{_family}.self_s"] = "s"
LAYER_UNITS.update(
    {"detect.alarms": "count", "planes.hits": "count", "planes.misses": "count"}
)

#: The engine's kernel ops (``repro.engine.core.KERNEL_OPS``), listed
#: here so the metric names exist before the package is imported.
KERNEL_OPS = (
    "filter_mask",
    "flow_codes",
    "binned_histogram",
    "sketch_buckets",
    "dominant_keys",
    "similarity_graph",
    "community_label",
    "column_values",
    "traffic_extractor",
    "alarm_codes",
    "label_assign",
    "feature_plane",
    "warehouse_select",
)
for _op in KERNEL_OPS:
    LAYER_UNITS[f"kernel.{_op}.s"] = "s"
    LAYER_UNITS[f"kernel.{_op}.calls"] = "count"
LAYER_UNITS.update(
    {
        "extract.self_s": "s",
        "graph.self_s": "s",
        "graph.edges": "count",
        "louvain.self_s": "s",
        "combine.self_s": "s",
        "communities": "count",
        "heuristics.self_s": "s",
        "rules.self_s": "s",
        "rules.calls": "count",
        "warehouse.store_s": "s",
        "warehouse.query_self_s": "s",
        "warehouse.rows": "count",
    }
)
for _phase in POOL_PHASES:
    LAYER_UNITS[f"pool.{_phase}_s"] = "s"
LAYER_UNITS.update(
    {
        "stream.process_self_s": "s",
        "stream.windows": "count",
        "dyn.add_s": "s",
        "dyn.expire_s": "s",
        "dyn.build_s": "s",
        "splanes.append_s": "s",
        "splanes.seed_s": "s",
        "serve.decode_s": "s",
        "serve.push_s": "s",
        "serve.ring_wait_s": "s",
        "serve.blocked_s": "s",
        "serve.ring_peak_packets": "count",
        "serve.publish_s": "s",
        "serve.query_s": "s",
        "gen.late_p99_ms": "ms",
    }
)


def layer_metrics(spans: list[dict], extra: dict) -> dict[str, float]:
    """Every per-layer metric from spans and workload extras.

    Metrics named ``*self_s`` are self times; other ``*_s`` / ``.s``
    metrics are inclusive wall times; ``*.calls`` count spans; the
    plane-cache counts come from ``planes.get`` spans and their
    ``kernel.feature_plane`` children; other counts sum the counters
    spans carry.  Layers a workload never enters read 0.
    """
    own = self_times(spans)
    wall = inclusive_times(spans)
    calls: dict[str, int] = defaultdict(int)
    tallies: dict[str, float] = defaultdict(float)
    for span in spans:
        calls[span["name"]] += 1
        for key, value in span.get("counts", {}).items():
            tallies[key] += value
    misses = calls["kernel.feature_plane"]
    values: dict[str, float] = {
        "planes.hits": float(calls["planes.get"] - misses),
        "planes.misses": float(misses),
    }
    for name in LAYER_UNITS:
        if name in values:
            continue
        if name in extra:
            values[name] = float(extra[name])
        elif name.endswith(".self_s"):
            values[name] = own.get(name[: -len(".self_s")], 0.0)
        elif name.endswith("_self_s"):
            values[name] = own.get(name[: -len("_self_s")], 0.0)
        elif name.endswith(".s"):
            values[name] = wall.get(name[: -len(".s")], 0.0)
        elif name.endswith("_s"):
            values[name] = wall.get(name[: -len("_s")], 0.0)
        elif name.endswith(".calls"):
            values[name] = float(calls[name[: -len(".calls")]])
        else:
            values[name] = tallies.get(name, 0.0)
    return {name: values[name] for name in LAYER_UNITS}
