"""The resumable archive-ingest scheduler: journal, retries, cache.

The serving contract: a restarted scheduler resumes a half-ingested
archive without re-labeling completed days, a forced re-run hits the
Step 1 alarm cache instead of re-detecting, failures retry with
backoff and never stall other days, and a version change regenerates
everything.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.errors import ServeError
from repro.labeling.warehouse import Warehouse
from repro.mawi.archive import SyntheticArchive
from repro.serve import ArchiveScheduler, IngestJournal
from repro.session import LabelingSession

DATES = ["2004-06-01", "2004-06-02", "2004-06-03"]


@pytest.fixture(scope="module")
def small_archive() -> SyntheticArchive:
    return SyntheticArchive(seed=11, trace_duration=8.0)


@pytest.fixture(scope="module")
def shared_session():
    with LabelingSession() as session:
        yield session


def make_scheduler(small_archive, shared_session, tmp_path, **kwargs):
    return ArchiveScheduler(
        small_archive,
        DATES,
        str(tmp_path / "wh"),
        session=shared_session,
        cache_dir=str(tmp_path / "cache"),
        **kwargs,
    )


class TestResume:
    def test_restart_skips_completed_days(
        self, small_archive, shared_session, tmp_path
    ):
        first = make_scheduler(small_archive, shared_session, tmp_path)
        outcomes = first.run_once(limit=2)
        assert [o.status for o in outcomes] == ["done", "done"]
        assert first.pending() == ["2004-06-03"]

        # A fresh scheduler (same journal on disk) resumes mid-archive:
        # completed days are skipped without touching the pipeline.
        second = make_scheduler(small_archive, shared_session, tmp_path)
        ran = {"days": []}
        original = second._label_day

        def counting(date):
            ran["days"].append(date)
            return original(date)

        second._label_day = counting
        outcomes = second.run_once()
        assert [o.status for o in outcomes] == ["skipped", "skipped", "done"]
        assert ran["days"] == ["2004-06-03"]
        assert second.pending() == []
        assert Warehouse(tmp_path / "wh").dates() == DATES

    def test_forced_rerun_hits_alarm_cache(
        self, small_archive, shared_session, tmp_path
    ):
        """Journal wiped, cache kept: every day re-labels through the
        Step 1 cache (cache_hit asserted), so detection never re-runs."""
        first = make_scheduler(small_archive, shared_session, tmp_path)
        outcomes = first.run_once()
        assert all(not o.cache_hit for o in outcomes)

        os.unlink(first.journal.path)
        second = make_scheduler(small_archive, shared_session, tmp_path)
        outcomes = second.run_once()
        assert [o.status for o in outcomes] == ["done"] * 3
        assert all(o.cache_hit for o in outcomes)

    def test_version_change_invalidates_journal(
        self, small_archive, shared_session, tmp_path
    ):
        first = make_scheduler(
            small_archive, shared_session, tmp_path, version="v1"
        )
        first.run_once()
        assert first.pending() == []
        second = make_scheduler(
            small_archive, shared_session, tmp_path, version="v2"
        )
        assert second.pending() == DATES

    def test_default_version_tracks_inputs(
        self, small_archive, shared_session, tmp_path
    ):
        a = make_scheduler(small_archive, shared_session, tmp_path)
        b = make_scheduler(small_archive, shared_session, tmp_path)
        assert a.version == b.version
        other_archive = SyntheticArchive(seed=99, trace_duration=8.0)
        c = ArchiveScheduler(
            other_archive,
            DATES,
            str(tmp_path / "wh"),
            session=shared_session,
        )
        assert c.version != a.version


class TestRetries:
    def test_transient_failure_retries_with_backoff(
        self, small_archive, shared_session, tmp_path
    ):
        sleeps: list[float] = []
        scheduler = make_scheduler(
            small_archive,
            shared_session,
            tmp_path,
            max_retries=2,
            backoff=0.01,
            sleep=sleeps.append,
        )
        attempts = {"n": 0}
        original = scheduler._label_day

        def flaky(date):
            attempts["n"] += 1
            if attempts["n"] < 3:
                raise RuntimeError("transient")
            return original(date)

        scheduler._label_day = flaky
        outcomes = scheduler.run_once(limit=1)
        assert outcomes[0].status == "done"
        assert outcomes[0].attempts == 3
        assert sleeps == [0.01, 0.02]  # exponential backoff, injectable

    def test_permanent_failure_journals_and_spares_other_days(
        self, small_archive, shared_session, tmp_path
    ):
        scheduler = make_scheduler(
            small_archive,
            shared_session,
            tmp_path,
            max_retries=1,
            backoff=0.0,
            sleep=lambda _: None,
        )
        original = scheduler._label_day

        def poisoned(date):
            if date == "2004-06-02":
                raise RuntimeError("bad day")
            return original(date)

        scheduler._label_day = poisoned
        outcomes = scheduler.run_once()
        by_date = {o.date: o for o in outcomes}
        assert by_date["2004-06-02"].status == "failed"
        assert by_date["2004-06-02"].attempts == 2
        assert "bad day" in by_date["2004-06-02"].error
        assert by_date["2004-06-01"].status == "done"
        assert by_date["2004-06-03"].status == "done"
        # The failed day stays pending: the next pass retries it.
        assert scheduler.pending() == ["2004-06-02"]
        assert scheduler.journal.dates("failed") == ["2004-06-02"]
        scheduler._label_day = original
        outcomes = scheduler.run_once()
        assert {o.date: o.status for o in outcomes}["2004-06-02"] == "done"


class TestJournal:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "journal.json"
        journal = IngestJournal(path)
        journal.record("2004-06-01", "done", "v1", attempts=1)
        journal.record("2004-06-02", "failed", "v1", attempts=3, error="x")
        reloaded = IngestJournal(path)
        assert reloaded.is_done("2004-06-01", "v1")
        assert not reloaded.is_done("2004-06-01", "v2")
        assert not reloaded.is_done("2004-06-02", "v1")
        assert reloaded.entry("2004-06-02")["error"] == "x"
        assert reloaded.dates() == ["2004-06-01", "2004-06-02"]

    def test_corrupt_journal_raises(self, tmp_path):
        path = tmp_path / "journal.json"
        path.write_text("{not json")
        with pytest.raises(ServeError, match="corrupt"):
            IngestJournal(path)

    def test_journal_written_atomically(self, tmp_path):
        journal = IngestJournal(tmp_path / "journal.json")
        journal.record("2004-06-01", "done", "v1", attempts=1)
        assert not [
            name for name in os.listdir(tmp_path) if name.endswith(".tmp")
        ]
        payload = json.loads((tmp_path / "journal.json").read_text())
        assert payload["days"]["2004-06-01"]["status"] == "done"


class TestLivePublish:
    def test_scheduled_days_reach_live_index(self, small_archive, tmp_path):
        """A running service answers each scheduled day as soon as the
        scheduler stores it in the shared warehouse — no restart."""
        from repro.serve import LabelingService

        with LabelingService(warehouse_root=str(tmp_path / "wh")) as service:
            scheduler = ArchiveScheduler(
                small_archive,
                DATES,
                service.warehouse,
                session=service.session,
            )
            scheduler.run_once(limit=2)
            assert service.health()["warehouse_days"] == 2
            assert service.query_labels(date="2004-06-01")
            assert service.index.dates() == []
        journal = tmp_path / "wh" / "ingest-journal.json"
        assert scheduler.journal.path == journal

    def test_run_forever_stops_on_event(
        self, small_archive, shared_session, tmp_path
    ):
        import threading

        scheduler = make_scheduler(small_archive, shared_session, tmp_path)
        stop = threading.Event()
        stop.set()  # one pass, then exit immediately
        stats = scheduler.run_forever(cadence=0.0, stop=stop)
        assert stats.passes == 0  # already stopped: no passes ran

    def test_owned_session_closed(self, small_archive, tmp_path):
        scheduler = ArchiveScheduler(
            small_archive, DATES[:1], str(tmp_path / "wh")
        )
        assert scheduler._owns_session
        scheduler.run_once()
        scheduler.close()
