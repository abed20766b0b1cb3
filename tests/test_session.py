"""LabelingSession: one configuration, every run mode, one output.

The unification contract: offline, archive, batch (both transports)
and full-coverage streaming runs of the same session configuration
produce byte-identical label CSVs.  Plus the engine-agnostic alarm
cache: entries written under one engine hit under any other.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.labeling.mawilab import labels_to_csv
from repro.mawi.archive import SyntheticArchive
from repro.runner.config import PipelineConfig
from repro.session import LabelingSession

DATE = "2004-06-01"


@pytest.fixture(scope="module")
def archive() -> SyntheticArchive:
    return SyntheticArchive(seed=7, trace_duration=12.0)


@pytest.fixture(scope="module")
def day_trace(archive):
    return archive.day(DATE).trace


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestModeParity:
    def test_archive_and_batch_transports_match_offline(
        self, archive, day_trace
    ):
        session = LabelingSession()
        offline = _sha(labels_to_csv(session.label_trace(day_trace).labels))

        by_archive = session.label_archive(archive, [DATE])
        assert [r.status for r in by_archive.reports] == ["ok"]
        assert by_archive.reports[0].csv_sha256 == offline

        for transport in ("pickle", "shm"):
            shipped = LabelingSession(transport=transport).label_traces(
                [day_trace]
            )
            assert [r.status for r in shipped.reports] == ["ok"]
            assert shipped.reports[0].csv_sha256 == offline, transport

    def test_full_window_stream_matches_offline(self, day_trace):
        from repro.stream import chunk_table

        session = LabelingSession()
        offline = labels_to_csv(session.label_trace(day_trace).labels)
        streamed = session.label_stream(
            chunk_table(day_trace.table, 500),
            window=1e9,
            metadata=day_trace.metadata,
        )
        assert streamed.to_csv() == offline

    def test_engines_agree_through_the_session(self, day_trace):
        outputs = {
            engine: labels_to_csv(
                LabelingSession(engine=engine).label_trace(day_trace).labels
            )
            for engine in ("numpy", "python")
        }
        assert outputs["numpy"] == outputs["python"]

    def test_pooled_shm_matches_serial(self, archive):
        dates = [DATE, "2004-06-02"]
        traces = [archive.day(d).trace for d in dates]
        serial = LabelingSession(workers=1).label_traces(traces)
        pooled = LabelingSession(workers=2, transport="shm").label_traces(
            traces
        )
        assert [r.csv_sha256 for r in serial.reports] == [
            r.csv_sha256 for r in pooled.reports
        ]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_collect_alarms_returns_worker_tables_zero_copy(
        self, archive, day_trace, workers
    ):
        """Workers export their Step 1 alarm tables over shared memory;
        the session collects them into the batch report, equal to an
        in-process detection, with every segment freed afterwards."""
        batch = LabelingSession(workers=workers).label_traces(
            [day_trace], collect_alarms=True
        )
        assert [r.status for r in batch.reports] == ["ok"]
        name = day_trace.metadata.name
        table = batch.alarm_tables[name]
        expected = LabelingSession().pipeline.detect(day_trace)
        assert table.to_alarms() == expected
        # The transport handle was consumed, not leaked into the report
        # (and the JSON rendering stays serializable).
        assert batch.reports[0].alarms_shm is None
        assert "alarms_shm" not in batch.to_json()

    def test_collect_alarms_off_by_default(self, day_trace):
        batch = LabelingSession().label_traces([day_trace])
        assert batch.alarm_tables == {}


class TestSessionConfig:
    def test_engine_override_replaces_config_engine(self):
        session = LabelingSession(
            config=PipelineConfig(engine="numpy"), engine="python"
        )
        assert session.engine.name == "python"
        assert session.config.engine == "python"

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError, match="transport"):
            LabelingSession(transport="carrier-pigeon")

    def test_resume_requires_out_dir(self):
        with pytest.raises(ValueError, match="out_dir"):
            LabelingSession(resume=True)

    def test_pipeline_is_built_once(self):
        session = LabelingSession()
        assert session.pipeline is session.pipeline

    def test_export_formats(self, day_trace):
        session = LabelingSession()
        labels = session.label_trace(day_trace).labels
        assert session.export(labels, fmt="csv").startswith("community,")
        assert session.export(labels, fmt="xml").startswith("<?xml")
        with pytest.raises(ValueError, match="format"):
            session.export(labels, fmt="yaml")


class TestEngineAgnosticCache:
    def test_cache_written_under_one_engine_hits_under_the_other(
        self, archive, tmp_path
    ):
        cache_dir = str(tmp_path / "cache")
        first = LabelingSession(
            config=PipelineConfig(engine="numpy"), cache_dir=cache_dir
        ).label_archive(archive, [DATE])
        assert first.cache_hits == 0

        second = LabelingSession(
            config=PipelineConfig(engine="python"), cache_dir=cache_dir
        ).label_archive(archive, [DATE])
        assert second.cache_hits == 1
        assert (
            second.reports[0].csv_sha256 == first.reports[0].csv_sha256
        )

    def test_cache_hits_across_transports(self, archive, tmp_path):
        """A cache warmed by the regenerate transport hits when the
        same archive days are shipped as pregenerated traces (given the
        archive fingerprint), and vice versa."""
        from repro.net.trace import Trace, TraceMetadata

        cache_dir = str(tmp_path / "cache")
        warmed = LabelingSession(cache_dir=cache_dir).label_archive(
            archive, [DATE]
        )
        assert warmed.cache_misses == 1

        day = archive.day(DATE).trace
        shipped_trace = Trace.from_table(
            day.table, TraceMetadata(name=DATE, date=DATE)
        )
        for transport in ("pickle", "shm"):
            shipped = LabelingSession(
                cache_dir=cache_dir, transport=transport
            ).label_traces(
                [shipped_trace], fingerprints=[archive.fingerprint()]
            )
            assert shipped.cache_hits == 1, transport
            assert (
                shipped.reports[0].csv_sha256
                == warmed.reports[0].csv_sha256
            )

    def test_shm_segments_bounded_and_freed(self, archive):
        """Shard exports recycle a bounded arena pool — segments are
        pinned and reused across shards, not created per shard — and
        close() unlinks every segment."""
        from multiprocessing import shared_memory

        dates = [DATE, "2004-06-02", "2004-06-03"]
        traces = [archive.day(d).trace for d in dates]
        session = LabelingSession(transport="shm")
        batch = session.label_traces(traces)
        assert all(r.ok for r in batch.reports)
        # Serial shards pipeline through at most a few arena slots; a
        # 3-trace batch must not have allocated 3 segments.
        assert 1 <= len(session._arenas) <= 3
        assert sum(a.allocations for a in session._arenas) >= 1
        names = [a.name for a in session._arenas if a.name]
        assert names, "arena should hold a live recycled segment"
        session.close()
        # close() unlinks every arena segment — nothing leaks.
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
        assert session._arenas == []

    def test_engines_emit_identical_alarm_sets(self, day_trace):
        """The premise the shared key rests on, asserted directly."""
        from repro.labeling.mawilab import MAWILabPipeline

        fast = MAWILabPipeline(engine="numpy")
        reference = MAWILabPipeline(engine="python")
        assert [
            (a.config, a.t0, a.t1, a.filters, a.flow_keys)
            for a in fast.detect(day_trace)
        ] == [
            (a.config, a.t0, a.t1, a.filters, a.flow_keys)
            for a in reference.detect(day_trace)
        ]
