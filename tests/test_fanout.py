"""Persistent-worker fan-out: pool reuse, segment pinning, overlap.

The architecture contract of ``docs/architecture-fanout.md``: workers
spawn once and pin attached segments across shards, the parent
recycles arena segments and double-buffers export against compute,
intra-trace fan-out modes (``detector`` / ``trace``) label
byte-identically to the serial run, and every failure mode — bad
shard, failed detector group, dead worker — tears down without leaked
``/dev/shm`` segments.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.labeling.mawilab import labels_to_csv
from repro.mawi.archive import SyntheticArchive
from repro.runner.pool import WorkerPool, parallel_map
from repro.runner.shm import SegmentArena, SegmentRegistry, export
from repro.session import FANOUTS, LabelingSession

DATE = "2004-06-01"


@pytest.fixture(scope="module")
def archive() -> SyntheticArchive:
    return SyntheticArchive(seed=7, trace_duration=10.0)


@pytest.fixture(scope="module")
def day_trace(archive):
    return archive.day(DATE).trace


def _shm_segments() -> set[str]:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


def _pid(_: object) -> int:
    return os.getpid()


def _double(x: int) -> int:
    return x * 2


def _slow_double(x: int) -> int:
    time.sleep(0.05)
    return x * 2


def _die(_: object) -> None:
    os._exit(13)


def _boom(_: object) -> None:
    raise ValueError("boom")


class TestWorkerPoolPersistence:
    def test_workers_survive_across_maps(self):
        """The same processes serve successive map calls — start-up
        (and pinned registry state) is paid once per pool, not per
        batch.  Distinct pids across both maps stay within the pool
        size: nothing respawned between calls."""
        with WorkerPool(workers=2) as pool:
            first = set(pool.map(_pid, list(range(8))))
            second = set(pool.map(_pid, list(range(8))))
        assert len(first | second) <= 2
        assert os.getpid() not in first | second

    def test_inline_mode_never_forks(self):
        with WorkerPool(workers=1) as pool:
            assert not pool.parallel
            assert set(pool.map(_pid, [1, 2])) == {os.getpid()}
            assert pool._executor is None

    def test_submit_inline_mirrors_exceptions(self):
        with WorkerPool(workers=1) as pool:
            future = pool.submit(_boom, object())
            assert isinstance(future.exception(), ValueError)

    def test_recovers_after_worker_death(self):
        """A dead worker poisons one call, not the pool: the next map
        respawns and succeeds."""
        from concurrent.futures.process import BrokenProcessPool

        pool = WorkerPool(workers=2)
        try:
            with pytest.raises(BrokenProcessPool):
                pool.map(_die, [1, 2])
            assert pool.map(_double, [1, 2, 3]) == [2, 4, 6]
        finally:
            pool.shutdown()

    def test_parallel_map_facade(self):
        assert parallel_map(_double, [3, 4], workers=2) == [6, 8]
        assert parallel_map(_double, [], workers=2) == []


class TestMapPipelined:
    def test_results_in_input_order(self):
        with WorkerPool(workers=2) as pool:
            got = pool.map_pipelined(_slow_double, iter(range(10)))
        assert got == [x * 2 for x in range(10)]

    def test_production_is_lazy_and_bounded(self):
        """The task iterator is consumed incrementally: at most
        ``in_flight`` tasks are ever produced beyond the completed
        count — the double-buffer bound that lets exports overlap
        compute instead of all running up front."""
        produced = []
        completed = []
        in_flight = 3

        def tasks():
            for i in range(12):
                # Everything produced so far is either done or one of
                # the <= in_flight outstanding submissions.
                assert len(produced) <= len(completed) + in_flight
                produced.append(i)
                yield i

        with WorkerPool(workers=2) as pool:
            got = pool.map_pipelined(
                _slow_double,
                tasks(),
                in_flight=in_flight,
                progress=lambda done, total, r: completed.append(r),
            )
        assert got == [x * 2 for x in range(12)]
        assert len(produced) == 12

    def test_inline_interleaves_production_and_execution(self):
        order = []

        def tasks():
            for i in range(3):
                order.append(f"produce{i}")
                yield i

        def run(x):
            order.append(f"run{x}")
            return x

        with WorkerPool(workers=1) as pool:
            pool.map_pipelined(run, tasks())
        assert order == [
            "produce0", "run0", "produce1", "run1", "produce2", "run2",
        ]


class TestSegmentRegistry:
    def test_pins_mapping_across_handles(self, day_trace):
        """Two tasks naming the same segment map it once — the arena
        recycling contract that makes persistent workers pay off."""
        with SegmentArena() as arena:
            registry = SegmentRegistry()
            try:
                first = arena.export(day_trace.table)
                t1 = registry.view(first)
                assert (t1.time == day_trace.table.time).all()
                second = arena.export(day_trace.table)
                assert second.name == first.name
                registry.view(second)
                assert registry.attaches == 1
                assert registry.hits == 1
                assert registry.names() == (first.name,)
            finally:
                registry.clear()

    def test_evicts_lru_past_capacity(self, day_trace):
        registry = SegmentRegistry(max_segments=1)
        handles = [export(day_trace.table) for _ in range(2)]
        try:
            registry.view(handles[0])
            registry.view(handles[1])
            assert registry.attaches == 2
            assert registry.names() == (handles[1].name,)
        finally:
            registry.clear()
            for handle in handles:
                handle.unlink()

    def test_release_and_clear_are_idempotent(self, day_trace):
        registry = SegmentRegistry()
        handle = export(day_trace.table)
        try:
            registry.view(handle)
            registry.release(handle.name)
            registry.release(handle.name)
            assert registry.names() == ()
            registry.clear()
        finally:
            handle.unlink()


class TestTableArena:
    def test_recycles_segment_for_fitting_tables(self, day_trace):
        with SegmentArena() as arena:
            a = arena.export(day_trace.table)
            b = arena.export(day_trace.table)
            assert a.name == b.name
            assert arena.allocations == 1
            with b.attach() as table:
                assert (table.size == day_trace.table.size).all()

    def test_grows_under_new_name_and_unlinks_old(self, day_trace):
        import numpy as np

        from multiprocessing import shared_memory

        from repro.net.table import COLUMNS, PacketTable

        small = day_trace.table.take(np.arange(100))
        big = PacketTable(
            **{
                name: np.tile(getattr(day_trace.table, name), 2)
                for name in COLUMNS
            }
        )
        with SegmentArena() as arena:
            first = arena.export(small)
            second = arena.export(big)
            assert second.name != first.name
            assert arena.allocations == 2
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=first.name)
            with second.attach() as table:
                assert len(table) == len(big)

    def test_close_is_idempotent_and_arena_reusable(self, day_trace):
        arena = SegmentArena()
        handle = arena.export(day_trace.table)
        arena.close()
        arena.close()
        assert arena.name is None
        again = arena.export(day_trace.table)
        assert again.name != handle.name
        arena.close()


class TestFanoutModes:
    @pytest.mark.parametrize("engine", ["numpy", "python"])
    def test_csv_identical_across_fanout_modes(
        self, archive, day_trace, engine
    ):
        """The acceptance anchor: every fan-out mode renders the same
        label CSV on both engines (inline pool — the fan-out code path
        runs fully, without fork cost)."""
        shas = set()
        traces = [day_trace, archive.day("2004-06-02").trace]
        for fanout in FANOUTS:
            with LabelingSession(engine=engine, fanout=fanout) as session:
                batch = session.label_traces(traces)
            assert all(r.ok for r in batch.reports), (fanout, engine)
            shas.add(tuple(r.csv_sha256 for r in batch.reports))
        assert len(shas) == 1

    def test_csv_identical_with_real_processes(self, archive, day_trace):
        traces = [day_trace, archive.day("2004-06-02").trace]
        with LabelingSession() as serial:
            want = [
                r.csv_sha256 for r in serial.label_traces(traces).reports
            ]
        with LabelingSession(workers=2, fanout="detector") as session:
            batch = session.label_traces(traces)
        assert [r.csv_sha256 for r in batch.reports] == want
        assert all(r.ok for r in batch.reports)

    def test_label_trace_fanout_matches_serial(self, day_trace):
        with LabelingSession() as serial:
            want = labels_to_csv(serial.label_trace(day_trace).labels)
        with LabelingSession(fanout="trace", workers=2) as session:
            got = labels_to_csv(session.label_trace(day_trace).labels)
        assert got == want

    def test_unknown_fanout_rejected(self):
        with pytest.raises(ValueError, match="unknown fanout"):
            LabelingSession(fanout="packet")

    def test_config_groups_cover_ensemble_in_order(self):
        with LabelingSession(fanout="trace", workers=5) as session:
            groups = session._config_groups()
        n = len(session.pipeline.ensemble)
        flat = [i for group in groups for i in group]
        assert flat == list(range(n))
        assert len(groups) == min(5, n)
        sizes = {len(group) for group in groups}
        assert max(sizes) - min(sizes) <= 1

    def test_failed_detect_group_fails_only_its_trace(
        self, archive, day_trace, monkeypatch
    ):
        """A failed detector group folds into a failed TraceReport for
        that trace; the batch (and the session) carry on."""
        from repro.runner import worker

        bad_date = "2004-06-02"
        real_run_detect = worker.run_detect

        def failing_run_detect(task):
            if task.metadata is not None and task.metadata.date == bad_date:
                return worker.DetectResult(
                    config_indices=task.config_indices,
                    status="failed",
                    error="RuntimeError: injected",
                )
            return real_run_detect(task)

        monkeypatch.setattr(worker, "run_detect", failing_run_detect)
        traces = [day_trace, archive.day(bad_date).trace]
        with LabelingSession(fanout="detector") as session:
            batch = session.label_traces(traces)
        by_date = {r.date: r for r in batch.reports}
        assert by_date[f"mawi-{DATE}"].ok
        assert by_date[f"mawi-{bad_date}"].status == "failed"
        assert "injected" in by_date[f"mawi-{bad_date}"].error
        assert _shm_segments() == set()

    def test_fanout_uses_alarm_cache(self, archive, tmp_path):
        cache_dir = str(tmp_path / "cache")
        trace = archive.day(DATE).trace
        with LabelingSession(
            cache_dir=cache_dir, fanout="detector"
        ) as session:
            cold = session.label_traces([trace])
            warm = session.label_traces([trace])
        assert cold.cache_misses == 1
        assert warm.cache_hits == 1
        assert (
            cold.reports[0].csv_sha256 == warm.reports[0].csv_sha256
        )


class TestCrashTeardown:
    def test_worker_death_leaks_no_segments(self, archive, monkeypatch):
        """A worker dying mid-batch breaks that call, but close()
        still unlinks every arena segment — nothing survives in
        /dev/shm — and the same session labels again afterwards."""
        from concurrent.futures.process import BrokenProcessPool

        from repro.runner import worker

        before = _shm_segments()
        traces = [
            archive.day(d).trace for d in (DATE, "2004-06-02", "2004-06-03")
        ]
        session = LabelingSession(workers=2, transport="shm")
        monkeypatch.setattr(worker, "run_task", _die)
        with pytest.raises(BrokenProcessPool):
            session.label_traces(traces)
        monkeypatch.undo()
        # The pool respawned cleanly and the arenas were recycled, so
        # the very same session finishes the batch.
        batch = session.label_traces(traces)
        assert all(r.ok for r in batch.reports)
        session.close()
        assert _shm_segments() - before == set()

    def test_close_unlinks_streaming_arena(self, day_trace):
        with LabelingSession(workers=2) as session:
            pipeline = session.streaming_pipeline(window=10.0)
            result = pipeline.run([day_trace.table], metadata=day_trace.metadata)
            assert result.labels
            name = pipeline._arena.name
            assert name is not None
            pipeline.close()
            assert pipeline._arena.name is None

    def test_session_finalizer_cleans_unclosed_session(self, day_trace):
        """An unclosed session's GC finalizer unlinks its arenas."""
        import gc

        before = _shm_segments()
        session = LabelingSession(workers=1, transport="shm")
        session.label_traces([day_trace])
        assert _shm_segments() - before  # arena segment live
        del session
        gc.collect()
        assert _shm_segments() - before == set()


class TestPooledStreaming:
    def test_pooled_windows_match_serial(self, archive):
        from repro.stream import StreamingPipeline

        trace = archive.day("2004-06-03").trace
        serial = StreamingPipeline(window=4.0, hop=2.0).run(
            [trace.table], metadata=trace.metadata
        )
        with LabelingSession(workers=2) as session:
            pipeline = session.streaming_pipeline(window=4.0, hop=2.0)
            pooled = pipeline.run([trace.table], metadata=trace.metadata)
            pipeline.close()
        assert pooled.to_csv() == serial.to_csv()
        assert [w.n_new_alarms for w in pooled.windows] == [
            w.n_new_alarms for w in serial.windows
        ]

    def test_pool_requires_config(self):
        from repro.errors import StreamError
        from repro.stream import StreamingPipeline

        with WorkerPool(workers=2) as pool:
            with pytest.raises(StreamError, match="requires a Pipeline"):
                StreamingPipeline(window=5.0, pool=pool)

    def test_pool_rejects_custom_ensemble(self):
        from repro.detectors import default_ensemble
        from repro.errors import StreamError
        from repro.runner.config import PipelineConfig
        from repro.stream import StreamingPipeline

        with WorkerPool(workers=2) as pool:
            with pytest.raises(StreamError, match="custom ensemble"):
                StreamingPipeline(
                    window=5.0,
                    pool=pool,
                    config=PipelineConfig(),
                    ensemble=default_ensemble(),
                )


class TestPhaseAccounting:
    def test_reports_carry_worker_phases(self, day_trace):
        with LabelingSession(transport="shm") as session:
            batch = session.label_traces([day_trace])
        phases = batch.reports[0].phases
        assert set(phases) == {"attach", "compute"}
        assert phases["compute"] > 0

    def test_profile_sums_phases(self, archive, day_trace):
        traces = [day_trace, archive.day("2004-06-02").trace]
        for fanout in ("shard", "detector"):
            profile: dict = {}
            with LabelingSession(transport="shm", fanout=fanout) as session:
                session.label_traces(traces, profile=profile)
            assert {
                "export", "attach", "compute", "merge", "idle",
                "wall", "workers", "fanout", "transport",
            } <= set(profile), fanout
            assert profile["compute"] > 0
            assert profile["wall"] > 0
            assert profile["fanout"] == fanout
            assert profile["transport"] == "shm"


class TestSignalTeardown:
    """SIGTERM/SIGINT must stop workers and unlink shm (PR's daemon
    contract): the cleanup hooks run session finalizers and shut every
    live pool down, and the chained handler preserves conventional
    death semantics."""

    def test_run_signal_cleanup_closes_sessions_and_pools(self, day_trace):
        from repro.runner import pool as pool_mod

        before = _shm_segments()
        session = LabelingSession(workers=2, transport="shm")
        session.label_traces([day_trace])
        assert _shm_segments() - before  # arena live
        pool_mod._run_signal_cleanup()
        assert _shm_segments() - before == set()
        assert session.pool._executor is None
        session.close()  # already-finalized session closes cleanly

    def test_cleanup_prunes_spent_finalizers(self):
        from repro.runner import pool as pool_mod

        session = LabelingSession(workers=1)
        registered = session._finalizer
        assert registered in pool_mod._signal_cleanups
        session.close()  # unregisters
        assert registered not in pool_mod._signal_cleanups

    def test_install_is_idempotent_and_uninstall_restores(self):
        import signal as signal_mod

        from repro.runner.pool import (
            install_signal_handlers,
            uninstall_signal_handlers,
        )

        previous = signal_mod.getsignal(signal_mod.SIGTERM)
        try:
            install_signal_handlers()
            installed = signal_mod.getsignal(signal_mod.SIGTERM)
            assert installed is not previous
            install_signal_handlers()  # second install is a no-op
            assert signal_mod.getsignal(signal_mod.SIGTERM) is installed
        finally:
            uninstall_signal_handlers()
        assert signal_mod.getsignal(signal_mod.SIGTERM) is previous

    @pytest.mark.parametrize("signame", ["SIGTERM", "SIGINT"])
    def test_killed_process_leaks_nothing(self, signame):
        """End to end: a real process running a pooled session dies on
        the signal with conventional status and leaves /dev/shm clean."""
        import signal as signal_mod
        import subprocess
        import sys

        script = """
import os, sys, time
sys.path.insert(0, {src!r})
from repro.mawi.archive import SyntheticArchive
from repro.runner.pool import install_signal_handlers
from repro.session import LabelingSession

install_signal_handlers()
trace = SyntheticArchive(seed=7, trace_duration=5.0).day("2004-06-01").trace
session = LabelingSession(workers=2, transport="shm")
session.label_traces([trace])
print("READY", flush=True)
try:
    time.sleep(120)
except KeyboardInterrupt:
    sys.exit(42)
""".format(src=os.path.join(os.path.dirname(__file__), "..", "src"))

        signum = getattr(signal_mod, signame)
        before = _shm_segments()
        process = subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE
        )
        try:
            line = process.stdout.readline().decode()
            assert line.strip() == "READY"
            assert _shm_segments() - before  # child's arena is live
            process.send_signal(signum)
            returncode = process.wait(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        if signame == "SIGTERM":
            # Cleanup ran, then the default disposition was restored
            # and the signal re-raised: conventional signal death.
            assert returncode == -signal_mod.SIGTERM
        else:
            # SIGINT chains to the default Python handler, so the
            # child's KeyboardInterrupt except-path still runs.
            assert returncode == 42
        assert _shm_segments() - before == set()
