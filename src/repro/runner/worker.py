"""The per-trace and per-detector tasks executed inside pool workers.

Two task shapes share the worker process:

* :func:`run_task` labels one whole trace (Steps 1-4 + CSV export) —
  the shard-mode unit;
* :func:`run_detect` runs Step 1 for a *subset of detector
  configurations* against a shared packet table — the intra-trace
  fan-out unit (``fanout="detector"|"trace"``); the parent merges the
  per-group alarm tables with
  :meth:`~repro.core.alarm_table.AlarmTable.concatenate` and runs
  Steps 2-4 once.

Both must stay module-level functions (pickled by reference into pool
workers) and must never raise: every failure is folded into a
``status="failed"`` report so one bad shard cannot take down a batch.

A task's packets reach the worker over one of three transports:

* **regenerate** — the worker rebuilds the archive day from
  ``(archive_seed, trace_duration, date)``; nothing but a date string
  crosses the process boundary;
* **pickle** — an embedded :class:`~repro.net.trace.Trace` rides the
  task pipe (two copies + pickle framing);
* **shm** — a :class:`~repro.runner.shm.SegmentHandle` names a
  shared-memory segment the worker attaches zero-copy.  Tasks with
  ``pin_segment=True`` attach through the process-local
  :class:`~repro.runner.shm.SegmentRegistry`, so successive tasks
  against the same (or a recycled arena) segment skip the map.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.ioutil import write_atomic
from repro.net.trace import Trace, TraceMetadata
from repro.runner.config import PipelineConfig
from repro.runner.report import TraceReport
from repro.runner.shm import SegmentHandle, segment_registry


@dataclass(frozen=True)
class TraceTask:
    """One shard: label one trace (generated, embedded, or shared).

    When both ``trace`` and ``shm`` are ``None`` the worker regenerates
    the archive day from ``(archive_seed, trace_duration, date)`` —
    pickling a date string is far cheaper than pickling a packet trace.
    An embedded ``trace`` or a shared-memory ``shm`` handle supports
    labeling arbitrary traces (e.g. loaded pcaps).
    """

    date: str
    config: PipelineConfig = PipelineConfig()
    archive_seed: int = 2010
    trace_duration: float = 60.0
    trace: Optional[Trace] = None
    shm: Optional[SegmentHandle] = None
    metadata: Optional[TraceMetadata] = None
    #: Trace-source fingerprint for alarm-cache keys.  Callers that
    #: know the provenance (e.g. an archive day shipped over shm) pass
    #: it so the cache key is transport-independent; ``None`` falls
    #: back to a content digest of the packets.
    fingerprint: Optional[str] = None
    cache_dir: Optional[str] = None
    out_dir: Optional[str] = None
    #: When true, the worker exports its Step 1 alarm table to a
    #: shared-memory segment and the report carries the handle — the
    #: parent attaches the *results* zero-copy (and owns the unlink).
    return_alarms: bool = False
    #: When true, the shm transport attaches through the worker's
    #: pinned :class:`~repro.runner.shm.SegmentRegistry` instead of a
    #: one-shot mapping — the right choice whenever the parent recycles
    #: segment names across shards (arena transport) or several tasks
    #: share one table.
    pin_segment: bool = False


def csv_path_for(out_dir: str | Path, date: str) -> Path:
    """Where one trace's label CSV lands inside ``out_dir``."""
    return Path(out_dir) / f"labels-{date}.csv"


#: Process-local pipeline per config.  Persistent workers run many
#: tasks; rebuilding the pipeline per task would discard the detector
#: instances' memoized deterministic state (sketch hash seeds), which
#: warm reuse keeps.  Configs are frozen/hashable and pipelines are
#: stateless across runs, so reuse is observationally identical.
_pipelines: dict = {}


def _pipeline_for(config: PipelineConfig):
    pipeline = _pipelines.get(config)
    if pipeline is None:
        pipeline = config.build_pipeline()
        _pipelines[config] = pipeline
    return pipeline


def fingerprint_trace(trace: Trace) -> str:
    """Content-derived digest of an inline trace.

    Cache keys for embedded traces must reflect the packets themselves
    — two different traces sharing a name/length/duration must not
    share Step 1 alarms.
    """
    hasher = hashlib.sha256()
    hasher.update(f"{trace.metadata.name}:{len(trace)}".encode())
    for pkt in trace:
        hasher.update(
            f"{pkt.time!r},{pkt.src},{pkt.dst},{pkt.sport},{pkt.dport},"
            f"{pkt.proto},{pkt.size},{pkt.tcp_flags},{pkt.icmp_type};".encode()
        )
    return f"inline:{hasher.hexdigest()[:16]}"


# Shared atomic-publish helper; kept under its historical name because
# callers and tests patch ``worker._write_atomic``.
_write_atomic = write_atomic


def run_task(task: TraceTask) -> TraceReport:
    """Label one trace; never raises (failures become reports)."""
    started = time.perf_counter()
    try:
        report = _run_task_inner(task)
    except Exception as exc:  # noqa: BLE001 - shard isolation is the point
        report = TraceReport(
            date=task.date,
            status="failed",
            error=f"{type(exc).__name__}: {exc}",
        )
    report.elapsed = time.perf_counter() - started
    return report


def _run_task_inner(task: TraceTask) -> TraceReport:
    if task.shm is not None:
        attach_started = time.perf_counter()
        if task.pin_segment:
            # Registry attach: the mapping is pinned across tasks, so
            # a recycled arena segment maps once per worker lifetime.
            table = segment_registry().view(task.shm)
            attach = time.perf_counter() - attach_started
            trace = Trace.from_table(table, task.metadata)
            return _label_trace(
                task, trace, fingerprint=task.fingerprint, attach=attach
            )
        attached = task.shm.attach()
        attach = time.perf_counter() - attach_started
        try:
            trace = Trace.from_table(attached.value, task.metadata)
            return _label_trace(
                task, trace, fingerprint=task.fingerprint, attach=attach
            )
        finally:
            attached.close()
    if task.trace is not None:
        return _label_trace(task, task.trace, fingerprint=task.fingerprint)
    from repro.mawi.archive import SyntheticArchive

    archive = SyntheticArchive(
        seed=task.archive_seed, trace_duration=task.trace_duration
    )
    trace = archive.day(task.date).trace
    return _label_trace(task, trace, fingerprint=archive.fingerprint())


def _label_trace(
    task: TraceTask,
    trace: Trace,
    fingerprint: Optional[str],
    attach: float = 0.0,
) -> TraceReport:
    """Shared Step 1-4 body behind every transport.

    ``fingerprint`` identifies the trace source for the alarm cache;
    ``None`` means content-derived (embedded/shared traces), computed
    only when a cache is actually configured — it costs a full packet
    scan.  ``attach`` is the transport-side attach time, folded into
    the report's phase breakdown.
    """
    from repro.labeling.mawilab import labels_to_csv
    from repro.runner.cache import AlarmCache

    pipeline = _pipeline_for(task.config)

    cache = AlarmCache(task.cache_dir) if task.cache_dir else None
    alarms = None
    key = ""
    if cache is not None:
        if fingerprint is None:
            fingerprint = fingerprint_trace(trace)
        key = AlarmCache.make_key(
            fingerprint, task.date, pipeline.ensemble_fingerprint()
        )
        alarms = cache.get(key)
    cache_hit = alarms is not None
    compute_started = time.perf_counter()
    if alarms is None:
        # Step 1 batch-emits columnarly; the cache stores the table.
        alarms = pipeline.detect_table(trace)
        if cache is not None:
            cache.put(key, alarms)

    result = pipeline.run_with_alarms(trace, alarms)
    csv_text = labels_to_csv(result.labels)
    compute = time.perf_counter() - compute_started

    alarms_shm = None
    if task.return_alarms:
        from repro.core.alarm_table import AlarmTable
        from repro.runner.shm import export

        if not isinstance(alarms, AlarmTable):
            alarms = AlarmTable.from_alarms(list(alarms))
        alarms_shm = export(alarms)

    csv_path = ""
    if task.out_dir:
        out_path = csv_path_for(task.out_dir, task.date)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        _write_atomic(out_path, csv_text)
        csv_path = str(out_path)

    return TraceReport(
        date=task.date,
        status="ok",
        n_alarms=len(result.alarms),
        n_communities=len(result.community_set.communities),
        n_anomalous=len(result.anomalous()),
        n_suspicious=len(result.suspicious()),
        n_notice=len(result.notice()),
        cache_hit=cache_hit,
        csv_path=csv_path,
        csv_sha256=hashlib.sha256(csv_text.encode()).hexdigest(),
        alarms_shm=alarms_shm,
        phases={
            "attach": round(attach, 6),
            "compute": round(compute, 6),
        },
    )


# -- intra-trace detector fan-out --------------------------------------


@dataclass(frozen=True)
class DetectTask:
    """Step 1 for a subset of detector configurations on one table.

    The intra-trace fan-out unit: the parent exports one packet table,
    slices the ensemble's configuration list into index groups, and
    ships one ``DetectTask`` per group.  Each worker rebuilds only its
    configurations (``config_indices`` into
    ``config.build_pipeline().ensemble`` order), analyzes the shared
    table, and returns its alarms; concatenating group results in
    group order reproduces ``detect_table``'s row order exactly —
    the byte-identity anchor across fan-out modes.

    ``stream_states``, when given (index-aligned with
    ``config_indices``), switches the configurations into streaming
    analysis: each detector runs ``analyze_stream`` with its carried
    state and the updated state returns in the result — which is what
    lets :class:`~repro.stream.pipeline.StreamingPipeline` fan every
    window across the same persistent pool.
    """

    config: PipelineConfig
    config_indices: tuple[int, ...]
    shm: Optional[SegmentHandle] = None
    trace: Optional[Trace] = None
    metadata: Optional[TraceMetadata] = None
    pin_segment: bool = True
    stream_states: Optional[tuple[dict, ...]] = None
    #: Feature planes the parent already computed for this trace,
    #: exported as one shared segment.  The worker seeds its trace's
    #: :class:`~repro.detectors.planes.PlaneCache` from the zero-copy
    #: views before analyzing, so sibling groups of one trace share
    #: the ensemble's planes instead of recomputing them per worker.
    planes: Optional[SegmentHandle] = None


@dataclass
class DetectResult:
    """Outcome of one :class:`DetectTask` (never an exception)."""

    config_indices: tuple[int, ...]
    status: str = "ok"
    error: str = ""
    #: The group's Step 1 alarms (rows in per-configuration emission
    #: order).  Alarm tables are ~1000x smaller than packet tables, so
    #: they ride the result pipe as-is rather than through a segment.
    alarms: object = None
    #: Updated per-configuration streaming states (streaming tasks).
    states: Optional[tuple[dict, ...]] = None
    n_alarms: int = 0
    phases: dict = field(default_factory=dict)
    worker_pid: int = 0

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def run_detect(task: DetectTask) -> DetectResult:
    """Run Step 1 for one configuration group; never raises."""
    try:
        return _run_detect_inner(task)
    except Exception as exc:  # noqa: BLE001 - group isolation, as run_task
        return DetectResult(
            config_indices=task.config_indices,
            status="failed",
            error=f"{type(exc).__name__}: {exc}",
            worker_pid=os.getpid(),
        )


def _run_detect_inner(task: DetectTask) -> DetectResult:
    from repro.core.alarm_table import AlarmTable

    attached = None
    attached_planes = None
    attach_started = time.perf_counter()
    if task.shm is not None:
        if task.pin_segment:
            table = segment_registry().view(task.shm)
        else:
            attached = task.shm.attach()
            table = attached.value
        trace = Trace.from_table(table, task.metadata)
    elif task.trace is not None:
        trace = task.trace
    else:
        raise ValueError("DetectTask carries neither shm nor trace")
    if task.planes is not None:
        # Seed the trace-attached plane cache from the parent's
        # exported planes; detectors resolve the same cache via
        # plane_cache_for, so no analyze call-site changes are needed.
        from repro.detectors.planes import plane_cache_for

        pipeline = _pipeline_for(task.config)
        cache = plane_cache_for(trace, pipeline.engine)
        if task.pin_segment:
            plane_views = segment_registry().view(task.planes)
        else:
            attached_planes = task.planes.attach()
            plane_views = attached_planes.value
        for spec, value in plane_views.items():
            cache.seed(spec, value)
    attach = time.perf_counter() - attach_started

    detect_started = time.perf_counter()
    try:
        ensemble = _pipeline_for(task.config).ensemble
        tables = []
        states: Optional[list[dict]] = (
            [] if task.stream_states is not None else None
        )
        for position, index in enumerate(task.config_indices):
            detector = ensemble[index]
            if task.stream_states is None:
                tables.append(detector.analyze_table(trace))
            else:
                state = dict(task.stream_states[position])
                alarms = detector.analyze_stream(trace, state)
                tables.append(
                    AlarmTable.from_alarms(
                        list(alarms), engine=detector.engine
                    )
                )
                states.append(state)
        # Alarm tables own their arrays (emission re-encodes), so the
        # result outlives the packet-table views safely.
        merged = AlarmTable.concatenate(tables)
    finally:
        if attached_planes is not None:
            attached_planes.close()
        if attached is not None:
            attached.close()
    detect = time.perf_counter() - detect_started
    return DetectResult(
        config_indices=task.config_indices,
        alarms=merged,
        states=tuple(states) if states is not None else None,
        n_alarms=len(merged),
        phases={
            "attach": round(attach, 6),
            "compute": round(detect, 6),
        },
        worker_pid=os.getpid(),
    )
