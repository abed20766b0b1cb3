"""The in-process and pooled workloads: label, publish, query.

One run of a batch workload is:

1. **set-up**, repeated :data:`SETUPS` times: build a
   :class:`~repro.session.LabelingSession` and label one warm-up slice
   (pool workers spawn here in ``pooled-traces``); the last session is
   the one measured;
2. **passes** over the workload's days, as many as label for about
   ``seconds`` on the reference host (:data:`PASS_SECONDS`; at least
   two).  The count is fixed for a given ``seconds``: were it "until
   ``seconds`` have passed", a fast stretch of the host would fit one
   more pass than a slow one and change what the run measures.  Every
   pass labels freshly built traces, so no per-trace memo carries over,
   and publishes into a fresh
   :class:`~repro.labeling.warehouse.Warehouse`.  Each day, once
   labelled, is stored with ``store_result`` and followed by a burst of
   closed-loop cross-day ``Warehouse.query`` calls from one client
   against the previous pass's complete warehouse, so query samples
   spread over the whole run instead of one instant.  Set-up samples
   spread the same way: after every :data:`SETUP_EVERY` seconds of
   labelling, one more session is set up, timed and closed.  ``setup_s``
   is the median of all set-up samples, so it does not hang on the
   host's speed in the run's first second.

Metrics: ``label_pps`` (packets over labelling time), ``query_p50_ms``
(every query; its p99 is reported beside it), ``freshness_p50_ms`` (per day, from
submitting it for labelling until ``store_result`` returns — its labels
are queryable; the median over days of each day's median over passes,
so the centre of one day's times whatever the number of passes),
``setup_s`` and ``peak_rss_mb``.

Every query spans the same number of days, so the latencies form one
group per taxonomy and the p50 falls inside the middle one.  A mix of
range lengths would put it on the edge between two groups, where it
reads a tail of one of them and jumps from run to run.

Checks: every label CSV digest equals the pure-Python oracle's, every
query returns exactly the rows the same predicates select from the
in-memory label stores of the queried pass, the pool closes, and
no shared-memory segment outlives the run.
"""

from __future__ import annotations

import functools
import hashlib
import resource
import shutil
import statistics
import time

from common import (
    TMP,
    Outcomes,
    peak_rss_mb,
    percentile,
    shm_segments,
    tail_is_reportable,
)
from inputs import INPUTS, load_trace, oracle_digest, warmup_trace
from tracing import POOL_PHASES, paused

#: Labelling seconds of one pass on the reference host (2 shared vCPUs);
#: a run makes ``max(2, round(seconds / PASS_SECONDS[workload]))`` passes.
PASS_SECONDS = {"archive-days": 7.5, "long-traces": 5.5, "pooled-traces": 3.0}
#: Set-ups before the first pass.
SETUPS = 3
#: Seconds of labelling between two set-up samples taken during the passes.
SETUP_EVERY = 1.5
#: Warehouse queries per queried pass, spread evenly over its days
#: (one pass leaves twenty samples beyond the p99).
QUERIES_PER_PASS = 2000
#: Days one query's date range spans (all of them, if fewer).
QUERY_DAYS = 8
TAXONOMIES = ("anomalous", "suspicious", "notice")
#: Seconds of the first trace labelled by each warm-up.
WARMUP_SECONDS = 60.0

SESSIONS = {
    "archive-days": {"workers": 1},
    "long-traces": {"workers": 1},
    "pooled-traces": {"workers": 2, "transport": "shm", "fanout": "trace"},
}


def _csv_digest(result) -> str:
    from repro.labeling.mawilab import labels_to_csv

    return hashlib.sha256(labels_to_csv(result.labels).encode()).hexdigest()


def _row_key(row: dict) -> tuple:
    return (
        row["date"],
        row["community"],
        row["taxonomy"],
        row["t0"],
        row["t1"],
        row["n_alarms"],
    )


def _rows_by_taxonomy(date: str, store) -> dict[str, list[tuple]]:
    """A stored day's expected query rows, per taxonomy, in store order."""
    rows: dict[str, list[tuple]] = {taxonomy: [] for taxonomy in TAXONOMIES}
    for record in store.to_records():
        rows[record.taxonomy].append(
            (
                date,
                record.community_id,
                record.taxonomy,
                float(record.t0),
                float(record.t1),
                record.n_alarms,
            )
        )
    return rows


class BatchRun:
    """State of one batch workload run (see the module docstring)."""

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        self.workload = workload
        self.n_passes = max(2, round(seconds / PASS_SECONDS[workload]))
        self.inputs = INPUTS[workload]
        self.dates = self.inputs.dates(seed)
        self.pooled = SESSIONS[workload].get("workers", 1) > 1
        self.outcomes = Outcomes()
        self.oracle = {d: oracle_digest(self.inputs, d) for d in self.dates}
        days = sorted(self.dates)
        span = min(QUERY_DAYS, len(days))
        #: (taxonomy, first day, last day) of every query, cycled through.
        self.plans = [
            (taxonomy, days[i], days[i + span - 1])
            for i in range(len(days) - span + 1)
            for taxonomy in TAXONOMIES
        ]
        self.per_day = -(-QUERIES_PER_PASS // len(days))
        #: Pool phase seconds summed over the labelling passes.
        self.pool_phases = dict.fromkeys(POOL_PHASES, 0.0)
        self.labelled = 0.0
        self.setups: list[float] = []
        self._next_setup = SETUP_EVERY
        self.packets = 0
        self.latencies: list[float] = []
        #: Freshness samples of each day, one per pass.
        self.freshness: dict[str, list[float]] = {d: [] for d in self.dates}

    # -- set-up ----------------------------------------------------------

    def _new_session(self):
        from repro.session import LabelingSession

        return LabelingSession(**SESSIONS[self.workload])

    def close(self, session) -> None:
        try:
            session.close()
        except Exception as exc:  # noqa: BLE001 - counted, not raised
            self.outcomes.attempt(False, f"session close raised {exc!r}")
            return
        self.outcomes.attempt(session.pool._executor is None, "pool did not close")

    def _timed_setup(self):
        """A new session, warmed up; its time joins :attr:`setups`."""
        warm = warmup_trace(self.inputs, WARMUP_SECONDS)
        started = time.perf_counter()
        session = self._new_session()
        if self.pooled:
            session.label_traces([warm])
        else:
            session.label_trace(warm)
        self.setups.append(time.perf_counter() - started)
        return session

    @paused()
    def setup(self):
        """Build the session :data:`SETUPS` times; keep the last one."""
        session = None
        for _ in range(SETUPS):
            if session is not None:
                self.close(session)
            session = self._timed_setup()
        return session

    @paused()
    def setup_sample(self) -> None:
        """One more set-up, timed and closed, once it is due."""
        if self.labelled >= self._next_setup:
            self._next_setup = self.labelled + SETUP_EVERY
            self.close(self._timed_setup())

    # -- measured passes -------------------------------------------------

    def passes(self, session, root) -> None:
        """:attr:`n_passes` labelled, published and queried passes.

        Each pass stores its days into a fresh warehouse while the
        queries read the previous pass's complete one, so the query mix
        is the same whatever order the days are labelled in.  At least
        two passes run, so there always is a queried pass.
        """
        from repro.labeling.warehouse import Warehouse

        published = None
        try:
            for n_pass in range(self.n_passes):
                current_root = root / "ab"[n_pass % 2]
                shutil.rmtree(current_root, ignore_errors=True)
                current = Warehouse(current_root)
                version = current.ensure_version(self.workload)
                traces = [load_trace(self.inputs, d) for d in self.dates]
                self.packets += sum(len(t) for t in traces)
                expected: dict[str, dict] = {}
                store = functools.partial(
                    self._publish, current, version, published, expected
                )
                if self.pooled:
                    self._pooled_pass(session, traces, store)
                else:
                    self._serial_pass(session, traces, store)
                # Drop the pass before the next one loads its traces.
                del traces
                if published is not None:
                    published[0].close()
                published = (current, expected)
        finally:
            if published is not None:
                published[0].close()

    def _serial_pass(self, session, traces, store) -> None:
        for date, trace in zip(self.dates, traces):
            started = time.perf_counter()
            result = session.label_trace(trace)
            digest = _csv_digest(result)
            labelled = time.perf_counter() - started
            self.labelled += labelled
            self.outcomes.attempt(
                digest == self.oracle[date],
                f"{date}: label CSV differs from the oracle",
            )
            store(date, result, labelled)
            self.setup_sample()

    def _pooled_pass(self, session, traces, store) -> None:
        profile: dict = {}
        started = time.perf_counter()
        batch = session.label_traces(traces, collect_alarms=True, profile=profile)
        labelled = time.perf_counter() - started
        self.labelled += labelled
        for key in POOL_PHASES:
            self.pool_phases[key] += profile[key]
        # Reports come back sorted by trace name, not in input order.
        reports = {report.date: report for report in batch.reports}
        waited = labelled
        for date, trace in zip(self.dates, traces):
            name = trace.metadata.name or trace.metadata.date
            result = self._rebuild(
                session, date, trace, reports[name], batch.alarm_tables.get(name)
            )
            if result is not None:
                waited += store(date, result, waited)
        self.setup_sample()

    @paused()
    def _rebuild(self, session, date, trace, report, alarms):
        """Check a pooled digest and rebuild the full result to store it.

        The pool returns each trace's digest and Step 1 alarm table;
        Steps 2-4 rerun here, outside the timed region, and their CSV
        must match the oracle too.
        """
        ok = report.ok and report.csv_sha256 == self.oracle[date]
        self.outcomes.attempt(ok, f"{date}: pooled label CSV differs ({report.error})")
        if not report.ok or alarms is None:
            return None
        result = session.pipeline.run_with_alarms(trace, alarms)
        self.outcomes.attempt(
            _csv_digest(result) == self.oracle[date],
            f"{date}: collected alarms do not reproduce the labels",
        )
        return result

    def _publish(self, warehouse, version, published, expected, date, result, waited):
        """Store one day, then query the published warehouse.

        ``waited`` is how long the day has waited since it was
        submitted for labelling; returns the store's seconds.
        """
        started = time.perf_counter()
        warehouse.store_result(date, result, version=version)
        stored = time.perf_counter() - started
        self.freshness[date].append(waited + stored)
        with paused():
            expected[date] = _rows_by_taxonomy(date, result.label_store())
        if published is not None:
            self._queries(*published)
        return stored

    def _queries(self, warehouse, expected: dict) -> None:
        """One closed-loop burst of :attr:`per_day` queries."""
        for _ in range(self.per_day):
            taxonomy, lo, hi = plan = self.plans[len(self.latencies) % len(self.plans)]
            started = time.perf_counter()
            try:
                rows = warehouse.query(taxonomy=taxonomy, date_from=lo, date_to=hi)
            except Exception as exc:  # noqa: BLE001 - counted
                self.latencies.append(float("inf"))
                self.outcomes.attempt(False, f"query {plan} raised {exc!r}")
                continue
            self.latencies.append(time.perf_counter() - started)
            want = [
                row
                for day in sorted(expected)
                if lo <= day <= hi
                for row in expected[day][taxonomy]
            ]
            self.outcomes.attempt(
                [_row_key(row) for row in rows] == want,
                f"query {plan} returned wrong rows",
            )


def run(workload: str, seed: int, seconds: float, layers: dict) -> tuple[dict, Outcomes]:
    """One batch run; returns (end-to-end metrics, outcomes).

    ``layers`` receives the workload's per-layer extras (pool phases)
    and display-only figures.
    """
    shm_before = shm_segments()
    bench = BatchRun(workload, seed, seconds)
    root = TMP / f"{workload}-{seed}-warehouse"
    session = bench.setup()
    try:
        bench.passes(session, root)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        executor = session.pool._executor
        if executor is not None:
            rss += sum(peak_rss_mb(pid) for pid in list(executor._processes))
    finally:
        bench.close(session)
        shutil.rmtree(root, ignore_errors=True)
    leaked = shm_segments() - shm_before
    bench.outcomes.attempt(not leaked, f"leaked shared memory: {sorted(leaked)}")
    latencies = bench.latencies
    bench.outcomes.attempt(
        tail_is_reportable(len(latencies), 99), "too few queries for a p99"
    )
    if bench.pooled:
        for key, value in bench.pool_phases.items():
            layers[f"pool.{key}_s"] = value
    layers["wh_qps"] = len(latencies) / sum(latencies)
    layers["query_p99_ms"] = percentile(latencies, 99) * 1e3
    metrics = {
        "setup_s": percentile(bench.setups, 50),
        "label_pps": bench.packets / bench.labelled,
        "query_p50_ms": percentile(latencies, 50) * 1e3,
        "freshness_p50_ms": percentile(
            [statistics.median(v) for v in bench.freshness.values()], 50
        )
        * 1e3,
        "peak_rss_mb": rss,
    }
    return metrics, bench.outcomes
