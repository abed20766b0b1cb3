"""Tests for the label database: the warehouse as the durable store of
labeled days, and the live index of days still being labeled."""

import os

import pytest

from repro.errors import LabelingError, WarehouseError
from repro.eval.benchmark import benchmark_detector
from repro.labeling.database import LiveLabelIndex
from repro.labeling.warehouse import Warehouse

DATE = "2004-06-01"


@pytest.fixture
def database(tmp_path, pipeline_result):
    warehouse = Warehouse(tmp_path / "mawilab")
    warehouse.ensure_version("vtest")
    warehouse.store_result(DATE, pipeline_result)
    return warehouse


class TestStore:
    def test_layout(self, database):
        assert (database.root / "manifest.json").exists()
        version_dir = database.root / "v0001"
        assert (version_dir / f"{DATE}.labels.seg").exists()
        assert (version_dir / f"{DATE}.alarms.seg").exists()

    def test_index_counts(self, database, pipeline_result):
        counts = database.stats()["days"][DATE]
        assert counts["n_communities"] == len(pipeline_result.labels)
        assert counts["n_anomalous"] == len(pipeline_result.anomalous())
        assert counts["n_alarms"] == len(pipeline_result.alarms)

    def test_dates(self, database, pipeline_result):
        assert database.dates() == [DATE]
        database.store_result("2004-06-02", pipeline_result)
        assert database.dates() == [DATE, "2004-06-02"]

    def test_restore_overwrites(self, database, pipeline_result):
        database.store_result(DATE, pipeline_result)
        assert database.dates() == [DATE]

    def test_bad_date_rejected(self, database, pipeline_result):
        """Day keys name segment files: nothing may escape the root."""
        for bad in ("../escape", "2004/06/01", ".hidden", ""):
            with pytest.raises(WarehouseError, match="bad day key"):
                database.store_result(bad, pipeline_result)
        assert database.dates() == [DATE]


class TestLoad:
    def test_missing_day(self, database):
        with pytest.raises(WarehouseError):
            database.label_store("1999-01-01")
        with pytest.raises(WarehouseError):
            database.export_csv("1999-01-01")

    def test_rows_round_trip(self, database, pipeline_result):
        rows = database.query(date=DATE)
        assert rows
        stored_ids = {row["community"] for row in rows}
        original_ids = {r.community_id for r in pipeline_result.labels}
        assert stored_ids == original_ids
        taxonomies = {row["taxonomy"] for row in rows}
        assert taxonomies <= {"anomalous", "suspicious", "notice"}

    def test_records_round_trip(self, database, pipeline_result):
        records = database.label_store(DATE).to_records()
        assert len(records) == len(pipeline_result.labels)
        by_id = {r.community_id: r for r in records}
        for original in pipeline_result.labels:
            restored = by_id[original.community_id]
            assert restored.taxonomy == original.taxonomy
            assert restored.heuristic == original.heuristic
            assert restored.n_alarms == original.n_alarms
            assert restored.detectors == original.detectors
            assert restored.t0 == original.t0
            assert restored.summary.rules == original.summary.rules

    def test_restored_records_usable_for_benchmarking(
        self, database, archive_day
    ):
        from repro.detectors.kl import KLDetector

        records = database.label_store(DATE).to_records()
        score = benchmark_detector(
            KLDetector(tuning="sensitive", threshold=1.8),
            archive_day.trace,
            records,
        )
        assert 0.0 <= score.recall <= 1.0
        assert score.true_positive + score.false_negative == sum(
            1 for r in records if r.taxonomy == "anomalous"
        )


class TestAtomicWrites:
    def test_crashed_store_leaves_old_day_intact(
        self, database, pipeline_result, monkeypatch
    ):
        """A write failing mid-publish (injected at os.replace) must
        leave the previous segment and manifest untouched and no tmp
        litter behind — readers never observe a partial write."""
        import repro.ioutil as ioutil

        manifest_path = database.root / "manifest.json"
        segment_path = database.root / "v0001" / f"{DATE}.labels.seg"
        manifest_before = manifest_path.read_bytes()
        segment_before = segment_path.read_bytes()

        def exploding_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(ioutil.os, "replace", exploding_replace)
        with pytest.raises(OSError, match="disk full"):
            database.store_result(DATE, pipeline_result)
        monkeypatch.undo()

        assert manifest_path.read_bytes() == manifest_before
        assert segment_path.read_bytes() == segment_before
        for dirpath, _dirnames, filenames in os.walk(database.root):
            assert not [n for n in filenames if n.endswith(".tmp")], dirpath
        assert Warehouse(database.root).verify()["segments"] == 2

    def test_multi_day_dates_ordering(self, database, pipeline_result):
        """dates() sorts chronologically however days were stored."""
        for date in ("2004-12-25", "2004-06-02", "2003-01-31"):
            database.store_result(date, pipeline_result)
        expected = ["2003-01-31", DATE, "2004-06-02", "2004-12-25"]
        assert database.dates() == expected
        assert Warehouse(database.root).dates() == expected


class TestLiveLabelIndex:
    @pytest.fixture
    def index(self, pipeline_result):
        live = LiveLabelIndex()
        live.publish(DATE, pipeline_result.label_store())
        return live

    def test_query_matches_store(self, index, pipeline_result):
        rows = index.query(date=DATE)
        assert len(rows) == len(pipeline_result.labels)
        assert {row["taxonomy"] for row in rows} <= {
            "anomalous",
            "suspicious",
            "notice",
        }

    def test_taxonomy_filter(self, index, pipeline_result):
        anomalous = index.query(date=DATE, taxonomy="anomalous")
        assert len(anomalous) == len(pipeline_result.anomalous())
        with pytest.raises(LabelingError, match="unknown taxonomy"):
            index.query(taxonomy="bogus")

    def test_time_overlap_filter(self, index, pipeline_result):
        t0 = min(r.t0 for r in pipeline_result.labels)
        everything = index.query(t0=t0 - 10.0, t1=1e9)
        assert len(everything) == len(pipeline_result.labels)
        assert index.query(t0=1e9, t1=2e9) == []

    def test_src_filter_dotted_and_int(self, index, pipeline_result):
        from repro.net.addresses import ip_to_str

        record = next(
            r
            for r in pipeline_result.labels
            if any(rule.src is not None for rule in r.summary.rules)
        )
        src = next(
            rule.src
            for rule in record.summary.rules
            if rule.src is not None
        )
        dotted = index.query(src=ip_to_str(src))
        numeric = index.query(src=src)
        assert dotted == numeric
        assert any(
            row["community"] == record.community_id for row in dotted
        )
        with pytest.raises(LabelingError, match="address"):
            index.query(src="not-an-ip")
        with pytest.raises(LabelingError, match="address"):
            index.query(src="10.0.0")

    def test_port_filters(self, index, pipeline_result):
        """Live days answer sport/dport like warehouse days do."""
        record, dport = next(
            (r, rule.dport)
            for r in pipeline_result.labels
            for rule in r.summary.rules
            if rule.dport is not None
        )
        rows = index.query(dport=dport)
        assert any(row["community"] == record.community_id for row in rows)
        assert all(
            any(rule["dport"] == dport for rule in row["rules"])
            for row in rows
        )
        assert index.query(sport=70000) == []

    def test_limit_and_multi_day_order(self, index, pipeline_result):
        index.publish("2004-06-02", pipeline_result.label_store())
        rows = index.query()
        dates = [row["date"] for row in rows]
        assert dates == sorted(dates)
        assert len(index.query(limit=3)) == 3
        assert index.query(limit=0) == []
        with pytest.raises(LabelingError, match="limit"):
            index.query(limit=-1)

    def test_store_for_and_drop(self, index):
        assert len(index.store_for(DATE))
        with pytest.raises(LabelingError):
            index.store_for("1999-01-01")
        index.drop(DATE)
        assert index.dates() == []

    def test_counters(self, index):
        index.query(date=DATE)
        counters = index.counters()
        assert counters["days"] == 1
        assert counters["publishes"] == 1
        assert counters["queries"] >= 1
        assert counters["labels"] > 0

    def test_publish_replaces_day_atomically(self, index, pipeline_result):
        before = len(index.query(date=DATE))
        index.publish(DATE, pipeline_result.label_store())
        assert len(index.query(date=DATE)) == before
        assert index.counters()["publishes"] == 2
