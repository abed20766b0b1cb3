"""The streaming labeling pipeline: windows in, labels out.

:class:`StreamingPipeline` runs the paper's 4-step method continuously
over a sliding window of a packet stream:

1. **ingest** — packet batches (from
   :func:`~repro.net.pcap.iter_pcap` or any generator of
   :class:`~repro.net.table.PacketTable`) land in a
   :class:`~repro.stream.window.TraceWindow` ring; expired packets are
   evicted columnarly, so memory is bounded by the window span;
2. **detect** — the ensemble runs as
   :class:`~repro.detectors.streaming.StreamingDetector` wrappers,
   carrying per-configuration state (sketch hashers, KL histogram
   baselines) across window advances;
3. **associate** — new alarms join a
   :class:`~repro.core.dynamic.DynamicSimilarityGraph` incrementally
   (expired alarms leave it), and Louvain is *warm-started* from the
   previous window's partition (``louvain(..., seed_partition=...)``)
   so each window refines the clustering instead of recomputing it;
4. **classify + label** — the offline combiner and Step 4 machinery
   run unchanged on the live communities, and re-accepted communities
   from overlapping windows are merged into one label with an extended
   time span.

Parity anchor: when one window covers the whole trace, every stage
degenerates to its offline twin (empty detector state, cold Louvain
start, single-window label merge), and :meth:`StreamResult.to_csv` is
byte-identical to ``labels_to_csv(MAWILabPipeline.run(trace).labels)``
on every engine.
"""

from __future__ import annotations

import time as _time
import weakref
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.core.alarm_table import AlarmTable
from repro.core.community import CommunitySet
from repro.core.dynamic import DynamicSimilarityGraph
from repro.core.estimator import SimilarityEstimator
from repro.core.extractor import TrafficExtractor
from repro.core.louvain import louvain
from repro.detectors.base import Alarm, Detector
from repro.detectors.streaming import StreamingDetector, wrap_ensemble
from repro.engine import EngineSpec, resolve_engine
from repro.errors import StreamError
from repro.labeling.mawilab import LabelRecord, MAWILabPipeline, labels_to_csv
from repro.labeling.store import LabelStore
from repro.labeling.taxonomy import assign_taxonomy_batch
from repro.net.flow import Granularity
from repro.net.table import PacketTable
from repro.net.trace import Trace, TraceMetadata
from repro.detectors.planes import plane_cache_for
from repro.runner.config import PipelineConfig
from repro.runner.pool import WorkerPool
from repro.runner.shm import SegmentArena
from repro.stream.planes import StreamingPlanes
from repro.stream.window import TraceWindow


@dataclass
class WindowResult:
    """Everything one window emission produced."""

    index: int
    t0: float
    t1: float
    n_packets: int
    n_new_alarms: int
    n_live_alarms: int
    n_communities: int
    labels: list[LabelRecord]
    #: Wall seconds spent labeling this window (detect -> label).
    latency: float

    def describe(self) -> str:
        return (
            f"window#{self.index} {self.t0:.1f}-{self.t1:.1f}s "
            f"packets={self.n_packets} alarms={self.n_live_alarms} "
            f"(+{self.n_new_alarms}) communities={self.n_communities} "
            f"labels={len(self.labels)} latency={self.latency * 1e3:.1f}ms"
        )


@dataclass
class _MergedLabel:
    """One deduplicated stream label under construction."""

    record: LabelRecord
    t0: float
    t1: float
    windows: int = 1
    #: Index of the last window that contributed; merging only spans
    #: *different* windows — two same-key communities inside one window
    #: are genuinely distinct labels and stay separate.
    last_window: int = -1


@dataclass
class StreamStats:
    """Throughput / latency / memory accounting for one stream run."""

    n_windows: int = 0
    total_packets: int = 0
    processing_seconds: float = 0.0
    peak_ring_packets: int = 0
    window_latencies: list[float] = field(default_factory=list)

    @property
    def packets_per_sec(self) -> float:
        if self.processing_seconds <= 0:
            return 0.0
        return self.total_packets / self.processing_seconds

    @property
    def p95_latency(self) -> float:
        """95th-percentile window latency in seconds (0 when empty)."""
        if not self.window_latencies:
            return 0.0
        ordered = sorted(self.window_latencies)
        rank = max(int(np.ceil(0.95 * len(ordered))) - 1, 0)
        return ordered[rank]

    def to_dict(self) -> dict:
        return {
            "n_windows": self.n_windows,
            "total_packets": self.total_packets,
            "processing_seconds": round(self.processing_seconds, 6),
            "packets_per_sec": round(self.packets_per_sec, 1),
            "p95_window_latency": round(self.p95_latency, 6),
            "peak_ring_packets": self.peak_ring_packets,
        }


@dataclass
class StreamResult:
    """Final output of one stream run."""

    windows: list[WindowResult]
    #: Cross-window deduplicated labels, renumbered ``0..n-1`` in first
    #: appearance order, spans extended over merged re-acceptances.
    labels: list[LabelRecord]
    stats: StreamStats
    #: The same labels columnarly (``labels`` are its lazy views).
    label_store: Optional[LabelStore] = None

    def to_csv(self) -> str:
        """The merged labels in the offline database CSV format."""
        return labels_to_csv(self.labels)


def _label_key(record: LabelRecord) -> tuple:
    """Identity of a label for cross-window deduplication.

    Two windows re-accepting the same community produce records with
    the same taxonomy, heuristic, detector set and concise rules; time
    spans and alarm counts differ, so they are excluded.
    """
    return (
        record.taxonomy,
        record.heuristic.category,
        record.heuristic.detail,
        record.detectors,
        frozenset(
            (rule.src, rule.sport, rule.dst, rule.dport)
            for rule in record.summary.rules
        ),
    )


class StreamingPipeline:
    """The 4-step MAWILab method over a sliding packet window.

    Parameters
    ----------
    window:
        Window span in seconds; each emitted labeling covers the last
        ``window`` seconds of traffic.
    hop:
        Advance between emissions in seconds; defaults to ``window``
        (tumbling windows).  ``hop < window`` makes windows overlap —
        alarms re-detected in the overlap are deduplicated, and their
        communities merge into labels with extended spans.
    ensemble:
        Detector configurations (wrapped for streaming); defaults to
        the paper's 12.
    granularity:
        Traffic granularity of the association step.  Packet
        granularity is rejected: packet indices are not stable across
        window advances (flows are).
    engine:
        Execution-engine spec, as everywhere (see
        :func:`repro.engine.resolve_engine`).
    pool:
        Optional persistent :class:`~repro.runner.pool.WorkerPool`.
        When the pool is parallel, every window's Step 1 fans the
        detector configurations across its workers against one shared
        window segment (recycled via a :class:`SegmentArena`, pinned by
        the workers' segment registries) — the streaming twin of the
        session's intra-trace fan-out, and byte-identical to the
        serial window loop.  Requires ``config`` (workers rebuild
        their configurations from it) and the default ensemble.  The
        pool is borrowed, never shut down here.
    config:
        The :class:`~repro.runner.config.PipelineConfig` describing
        this pipeline, required by ``pool``.

    Remaining parameters mirror
    :class:`~repro.labeling.mawilab.MAWILabPipeline` exactly, which is
    what makes full-coverage streaming output byte-identical.
    """

    def __init__(
        self,
        window: float,
        hop: Optional[float] = None,
        ensemble: Optional[Sequence[Detector]] = None,
        granularity: Granularity = Granularity.UNIFLOW,
        strategy=None,
        measure: str = "simpson",
        edge_threshold: float = 0.1,
        rule_support_pct: float = 20.0,
        seed: int = 0,
        engine: EngineSpec = "auto",
        pool: Optional[WorkerPool] = None,
        config: Optional[PipelineConfig] = None,
        max_ring_packets: Optional[int] = None,
    ) -> None:
        if window <= 0:
            raise StreamError(f"window must be positive, got {window}")
        hop = window if hop is None else hop
        if not 0 < hop <= window:
            raise StreamError(
                f"hop must be in (0, window], got hop={hop} window={window}"
            )
        if granularity is Granularity.PACKET:
            raise StreamError(
                "packet granularity is not streamable: packet indices are "
                "window-local; use uniflow or biflow"
            )
        self.window = float(window)
        self.hop = float(hop)
        self.granularity = granularity
        self.seed = seed
        self.engine = resolve_engine(engine, what="stream")
        self.pipeline = MAWILabPipeline(
            ensemble=ensemble,
            granularity=granularity,
            strategy=strategy,
            measure=measure,
            edge_threshold=edge_threshold,
            rule_support_pct=rule_support_pct,
            seed=seed,
            engine=self.engine,
        )
        self.detectors: list[StreamingDetector] = wrap_ensemble(
            self.pipeline.ensemble
        )
        if pool is not None and pool.parallel and ensemble is not None:
            raise StreamError(
                "pooled streaming requires the config-described ensemble; "
                "pass config instead of a custom ensemble"
            )
        if pool is not None and pool.parallel and config is None:
            raise StreamError(
                "pooled streaming requires a PipelineConfig (workers "
                "rebuild their detector configurations from it)"
            )
        #: Borrowed pool for per-window detector fan-out (``None`` =>
        #: serial windows); the pool's owner shuts it down.
        self.pool = pool if pool is not None and pool.parallel else None
        self._config = config
        #: Recycled export segment for pooled windows; window fan-out
        #: is synchronous, so one arena suffices and recycling is safe.
        self._arena = SegmentArena() if self.pool is not None else None
        if self._arena is not None:
            weakref.finalize(self, SegmentArena.close, self._arena)
        #: Recycled export segment for each window's seeded planes
        #: (pooled vectorized mode only).
        self._plane_arena = (
            SegmentArena()
            if self.pool is not None and self.engine.vectorized
            else None
        )
        if self._plane_arena is not None:
            weakref.finalize(self, SegmentArena.close, self._plane_arena)
        #: Incrementally maintained plane bases: chunk appends grow the
        #: value dictionaries, each window's histograms / sketch
        #: buckets are then derived by searchsorted instead of
        #: recomputed from scratch (vectorized engine only; the
        #: reference engine recomputes — it is the oracle).
        self._stream_planes = (
            StreamingPlanes(self.pipeline.ensemble)
            if self.engine.vectorized
            else None
        )
        #: ``max_ring_packets`` caps the ring (see
        #: :meth:`TraceWindow.has_room`): the serving layer's feeds
        #: block their reader on a full ring instead of growing it.
        self.ring = TraceWindow(max_packets=max_ring_packets)
        self._graph = DynamicSimilarityGraph(
            measure=measure, edge_threshold=edge_threshold
        )
        #: Live alarms, columnar: row ``i`` of the table is the alarm
        #: with graph id ``_live_ids[i]``.  Ids are assigned
        #: monotonically and eviction preserves order, so ``_live_ids``
        #: stays ascending — the same order ``DynamicSimilarityGraph``
        #: compacts in.
        self._live_table: AlarmTable = AlarmTable.empty()
        self._live_ids: np.ndarray = np.empty(0, dtype=np.int64)
        #: Alarm identity -> live alarm ids carrying it.  A detector
        #: may legitimately emit identical alarms within one window
        #: (they are distinct graph nodes offline too), so identities
        #: map to id *lists*, not single ids.
        self._alarm_keys: dict[tuple, list[int]] = {}
        self._partition: dict[int, int] = {}
        #: Merge index: label identity -> its entries (latest last).
        self._merged: dict[tuple, list[_MergedLabel]] = {}
        #: The same entries in emission order — the output order, so a
        #: single-window run reproduces the offline label order exactly
        #: even when same-key labels interleave with others.
        self._merged_order: list[_MergedLabel] = []
        self._window_index = 0
        self._latencies: list[float] = []
        self._metadata: Optional[TraceMetadata] = None

    # -- streaming loop ------------------------------------------------

    def process(
        self,
        chunks: Iterable[PacketTable],
        metadata: Optional[TraceMetadata] = None,
    ) -> Iterator[WindowResult]:
        """Consume packet batches; yield one result per emitted window.

        Emission is driven by packet timestamps: a window ``[e - w, e)``
        is labeled as soon as a packet at or past ``e`` arrives.  When
        the stream ends, the remaining buffered packets form one final
        window (closed at the last timestamp) — for a stream shorter
        than ``window`` that final window is the only one, covering the
        whole stream.
        """
        self._metadata = metadata
        next_emit: Optional[float] = None
        last_emitted_end: Optional[float] = None
        for chunk in chunks:
            if len(chunk) == 0:
                continue
            self.ring.extend(chunk)
            if self._stream_planes is not None:
                self._stream_planes.append(chunk)
            if next_emit is None:
                next_emit = self.ring.t_min + self.window
            while self.ring.t_max >= next_emit:
                yield self._emit(next_emit, inclusive=False)
                last_emitted_end = next_emit
                next_emit += self.hop
        if len(self.ring) and (
            last_emitted_end is None or self.ring.t_max >= last_emitted_end
        ):
            yield self._emit(self.ring.t_max, inclusive=True)

    def run(
        self,
        chunks: Iterable[PacketTable],
        metadata: Optional[TraceMetadata] = None,
    ) -> StreamResult:
        """Consume the whole stream; return the merged result."""
        windows = list(self.process(chunks, metadata=metadata))
        store = self.merged_label_store()
        return StreamResult(
            windows=windows,
            labels=store.to_records(),
            stats=self.stats(),
            label_store=store,
        )

    # -- one window ----------------------------------------------------

    def _emit(self, window_end: float, inclusive: bool) -> WindowResult:
        started = _time.perf_counter()
        window_t0 = window_end - self.window
        self.ring.evict_before(window_t0)
        if self._stream_planes is not None:
            self._stream_planes.evict_before(window_t0)
        table = self.ring.table()
        in_window = (
            table.time <= window_end if inclusive else table.time < window_end
        )
        trace = Trace.from_table(
            table.take(np.nonzero(in_window)[0]), self._metadata
        )

        # Retire alarms that slid out of the window entirely: one
        # vectorized compare on the live table's t1 column, one column
        # slice to compact the survivors.
        expired_mask = self._live_table.t1 <= window_t0
        if expired_mask.any():
            expired = [int(i) for i in self._live_ids[expired_mask]]
            self._graph.expire_alarms(expired)
            self._live_table = self._live_table.take(~expired_mask)
            self._live_ids = self._live_ids[~expired_mask]
            for alarm_id in expired:
                self._partition.pop(alarm_id, None)
            dead = set(expired)
            self._alarm_keys = {
                key: kept
                for key, ids in self._alarm_keys.items()
                if (kept := [i for i in ids if i not in dead])
            }

        labels: list[LabelRecord] = []
        n_communities = 0
        fresh: list[tuple[tuple, Alarm]] = []
        if len(trace):
            if self._stream_planes is not None:
                # Seed the window trace's plane cache from the
                # incrementally maintained dictionaries; detectors (and
                # pooled workers, via the plane export below) resolve
                # the same cache and skip the from-scratch unique/hash.
                self._stream_planes.seed_window(
                    trace, plane_cache_for(trace, self.engine)
                )
            # Step 1, stateful: every configuration sees the window.
            # Cross-window alarm dedup: a re-detection in an
            # overlapping window is absorbed by a live copy from a
            # previous window, but duplicates *beyond* the live count
            # are kept — the offline pipeline keeps same-window
            # duplicates as distinct graph nodes, and so must we.
            seen_this_window: dict[tuple, int] = {}
            for alarm in self._detect_window(trace):
                key = (
                    alarm.config,
                    alarm.t0,
                    alarm.t1,
                    alarm.filters,
                    alarm.flow_keys,
                )
                seen = seen_this_window.get(key, 0)
                seen_this_window[key] = seen + 1
                if seen < len(self._alarm_keys.get(key, ())):
                    continue
                fresh.append((key, alarm))
            extractor = TrafficExtractor(
                trace, self.granularity, engine=self.engine
            )
            # Step 2, incremental: deltas into the live graph; fresh
            # alarms batch-append onto the live table as one
            # concatenation.
            traffic_sets = extractor.extract_all(
                [alarm for _, alarm in fresh]
            )
            new_ids = self._graph.add_alarms(traffic_sets)
            for (key, _alarm), alarm_id in zip(fresh, new_ids):
                self._alarm_keys.setdefault(key, []).append(alarm_id)
            if fresh:
                self._live_table = AlarmTable.concatenate(
                    [
                        self._live_table,
                        AlarmTable.from_alarms(
                            [alarm for _, alarm in fresh],
                            engine=self.engine,
                        ),
                    ]
                )
                self._live_ids = np.concatenate(
                    [self._live_ids, np.asarray(new_ids, dtype=np.int64)]
                )
            graph, node_of = self._graph.build()
            live_ids = [int(i) for i in self._live_ids]
            seed_partition = {
                node_of[alarm_id]: self._partition[alarm_id]
                for alarm_id in live_ids
                if alarm_id in self._partition
            }
            partition = louvain(
                graph,
                seed=self.seed,
                seed_partition=seed_partition or None,
            )
            for alarm_id in live_ids:
                self._partition[alarm_id] = partition[node_of[alarm_id]]
            # Steps 3-4: the offline machinery over the live table
            # (communities are index vectors over its rows).
            traffic_list = [
                self._graph.traffic_of(alarm_id) for alarm_id in live_ids
            ]
            communities = SimilarityEstimator._materialize(
                self._live_table, traffic_list, partition
            )
            n_communities = len(communities)
            community_set = CommunitySet(
                communities=communities,
                alarms=self._live_table,
                traffic_sets=traffic_list,
                granularity=self.granularity,
                graph=graph,
                extractor=extractor,
                alarm_table=self._live_table,
            )
            decisions = self.pipeline.strategy.classify(
                community_set, self.pipeline.config_names
            )
            taxonomies = assign_taxonomy_batch(decisions, engine=self.engine)
            labels = [
                self.pipeline._label_one(
                    community_set, community, decision, taxonomy
                )
                for community, decision, taxonomy in zip(
                    communities, decisions, taxonomies
                )
            ]

        self._merge_labels(labels)
        latency = _time.perf_counter() - started
        result = WindowResult(
            index=self._window_index,
            t0=window_t0,
            t1=window_end,
            n_packets=len(trace),
            n_new_alarms=len(fresh),
            n_live_alarms=self._graph.n_live,
            n_communities=n_communities,
            labels=labels,
            latency=latency,
        )
        self._window_index += 1
        self._latencies.append(latency)
        return result

    # -- Step 1 over one window (serial or pooled) ---------------------

    def _detect_window(self, trace: Trace) -> Iterator[Alarm]:
        """Every configuration's alarms for one window, ensemble order.

        Serial mode walks the stateful wrappers; pooled mode fans the
        configurations across the borrowed pool (states ride the tasks
        and return updated) and yields the identical alarm sequence.
        """
        if self.pool is None:
            for detector in self.detectors:
                yield from detector.analyze_window(trace)
            return
        yield from self._detect_window_pooled(trace)

    def _detect_window_pooled(self, trace: Trace) -> Iterator[Alarm]:
        from repro.runner.worker import DetectTask, run_detect

        n = len(self.detectors)
        n_groups = max(min(self.pool.workers, n), 1)
        bounds = [round(i * n / n_groups) for i in range(n_groups + 1)]
        groups = [
            tuple(range(lo, hi))
            for lo, hi in zip(bounds, bounds[1:])
            if hi > lo
        ]
        # One export per window into the recycled arena; workers pin
        # the mapping, so steady state is a single parent-side memcpy.
        handle = self._arena.export(trace.table)
        planes_handle = None
        if self._plane_arena is not None and self._stream_planes is not None:
            # Ship the window's seeded base planes next to the table so
            # every group starts from the shared histograms / buckets
            # instead of recomputing them per worker.
            planes_handle = self._plane_arena.export(
                plane_cache_for(trace, self.engine).exportable_items()
            )
        futures = [
            self.pool.submit(
                run_detect,
                DetectTask(
                    config=self._config,
                    config_indices=group,
                    shm=handle,
                    metadata=self._metadata,
                    pin_segment=True,
                    stream_states=tuple(
                        dict(self.detectors[i].state) for i in group
                    ),
                    planes=planes_handle,
                ),
            )
            for group in groups
        ]
        # Synchronous barrier: all groups read the segment, so the
        # next window may recycle the arena only after every result
        # lands — which gathering here guarantees.
        results = [future.result() for future in futures]
        failures = [r for r in results if not r.ok]
        if failures:
            raise StreamError(
                "pooled window detection failed: "
                + "; ".join(f.error for f in failures)
            )
        for group, result in zip(groups, results):
            for position, index in enumerate(group):
                wrapper = self.detectors[index]
                wrapper.state = dict(result.states[position])
                wrapper.windows_seen += 1
            yield from result.alarms.to_alarms()

    def close(self) -> None:
        """Unlink the window-export arena (pooled mode; idempotent).

        The borrowed pool is *not* shut down — its owner (usually a
        :class:`~repro.session.LabelingSession`) does that.
        """
        if self._arena is not None:
            self._arena.close()
        if self._plane_arena is not None:
            self._plane_arena.close()

    # -- cross-window label merging ------------------------------------

    def _merge_labels(self, labels: Sequence[LabelRecord]) -> None:
        for record in labels:
            key = _label_key(record)
            entries = self._merged.setdefault(key, [])
            if (
                entries
                and entries[-1].last_window != self._window_index
                and record.t0 <= entries[-1].t1
            ):
                # Same community re-accepted in an overlapping window:
                # one label, extended span.
                entry = entries[-1]
                entry.t0 = min(entry.t0, record.t0)
                entry.t1 = max(entry.t1, record.t1)
                entry.record = record
                entry.windows += 1
                entry.last_window = self._window_index
            else:
                entry = _MergedLabel(
                    record=record,
                    t0=record.t0,
                    t1=record.t1,
                    last_window=self._window_index,
                )
                entries.append(entry)
                self._merged_order.append(entry)

    def merged_label_store(self) -> LabelStore:
        """Deduplicated labels as one columnar store.

        Renumbering and span extension are whole-column writes
        (:meth:`LabelStore.with_columns`): ids become an ``arange`` in
        first-appearance order, spans the merge entries' extended
        envelopes — no per-record ``dataclasses.replace``.
        """
        entries = self._merged_order
        n = len(entries)
        store = LabelStore.from_records(
            [entry.record for entry in entries], engine=self.engine
        )
        return store.with_columns(
            community_id=np.arange(n, dtype=np.int64),
            t0=np.fromiter((e.t0 for e in entries), np.float64, count=n),
            t1=np.fromiter((e.t1 for e in entries), np.float64, count=n),
        )

    def merged_labels(self) -> list[LabelRecord]:
        """Deduplicated labels, renumbered in first-appearance order."""
        return self.merged_label_store().to_records()

    def stats(self) -> StreamStats:
        return StreamStats(
            n_windows=self._window_index,
            total_packets=self.ring.total_ingested,
            processing_seconds=sum(self._latencies),
            peak_ring_packets=self.ring.peak_packets,
            window_latencies=list(self._latencies),
        )
