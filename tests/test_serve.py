"""The serving layer: feeds, backpressure, HTTP surface, parity.

The daemon's contract, end to end: a fully ingested feed serves
``/labels`` byte-identical to the offline ``repro label`` CSV, a slow
consumer blocks its producer at the configured ring bound instead of
growing memory, queries never touch the pipeline, and shutdown drains
cleanly.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.errors import ServeError
from repro.labeling.mawilab import labels_to_csv
from repro.net.table import COLUMNS, PacketTable
from repro.serve import LabelServer, LabelingService
from repro.serve.daemon import _FeedRing, _p95
from repro.serve.http import rows_to_table, table_to_rows
from repro.stream.window import chunk_table

DATE = "2004-06-01"


@pytest.fixture(scope="module")
def served(archive_day, pipeline_result):
    """One service with the shared archive day fully ingested, plus
    its HTTP server — the expensive boot shared by the read-only
    tests below."""
    service = LabelingService(window=archive_day.trace.duration * 2)
    service.open_feed("day", date=DATE)
    for chunk in chunk_table(archive_day.trace.table, 4096):
        service.push("day", chunk)
    service.close_feed("day")
    server = LabelServer(service).start_background()
    yield service, server, f"http://127.0.0.1:{server.port}"
    server.stop_background()
    service.shutdown()


def _get(base: str, path: str):
    with urllib.request.urlopen(base + path, timeout=30) as response:
        body = response.read().decode()
        if response.headers.get("Content-Type") == "text/csv":
            return body
        return json.loads(body)


def _post(base: str, path: str, payload: dict) -> dict:
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return json.load(response)


class TestFeedRing:
    def test_bounded_push_blocks_until_popped(self):
        ring = _FeedRing(max_packets=100)
        ring.push(_packets(60))

        def producer():
            ring.push(_packets(60))  # 60 + 60 > 100: must block

        thread = threading.Thread(target=producer)
        thread.start()
        time.sleep(0.1)
        assert thread.is_alive()  # still blocked
        assert ring.depth_packets == 60
        assert ring.pop() is not None
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert ring.peak_packets <= 100
        assert ring.pushes_blocked == 1
        assert ring.blocked_seconds > 0

    def test_oversized_chunk_admitted_into_empty_ring(self):
        ring = _FeedRing(max_packets=10)
        ring.push(_packets(50))  # would deadlock forever otherwise
        assert ring.depth_packets == 50
        assert ring.pop() is not None

    def test_push_timeout_raises(self):
        ring = _FeedRing(max_packets=10)
        ring.push(_packets(10))
        with pytest.raises(ServeError, match="timed out"):
            ring.push(_packets(5), timeout=0.05)

    def test_closed_ring_rejects_push_and_drains_pop(self):
        ring = _FeedRing(max_packets=100)
        ring.push(_packets(3))
        ring.close()
        with pytest.raises(ServeError, match="closed"):
            ring.push(_packets(1))
        assert len(ring.pop()) == 3
        assert ring.pop() is None

    def test_invalid_bound_rejected(self):
        with pytest.raises(ServeError):
            _FeedRing(max_packets=0)


def _packets(n: int) -> PacketTable:
    return PacketTable(
        time=np.arange(n, dtype=np.float64),
        src=np.full(n, 0x0A000001, np.uint32),
        dst=np.full(n, 0x0A000002, np.uint32),
        sport=np.full(n, 1234, np.uint16),
        dport=np.full(n, 80, np.uint16),
        proto=np.full(n, 6, np.uint8),
        size=np.full(n, 100, np.int64),
        tcp_flags=np.full(n, 16, np.uint8),
        icmp_type=np.zeros(n, np.uint8),
    )


class TestWireFormat:
    def test_rows_round_trip(self, archive_day):
        table = archive_day.trace.table
        restored = rows_to_table(table_to_rows(table))
        for name in COLUMNS:
            np.testing.assert_array_equal(
                getattr(restored, name), getattr(table, name)
            )

    def test_empty_rows(self):
        assert len(rows_to_table([])) == 0

    def test_ragged_rows_rejected(self):
        with pytest.raises(ServeError, match="fields"):
            rows_to_table([[0.0, 1, 2]])


class TestParity:
    def test_served_csv_identical_to_offline_label(
        self, served, pipeline_result
    ):
        """The acceptance anchor: /labels for a fully ingested day is
        record-identical to the offline `repro label` CSV."""
        _, _, base = served
        offline = labels_to_csv(pipeline_result.labels)
        assert _get(base, f"/labels?date={DATE}&format=csv") == offline

    def test_index_store_matches_offline(self, served, pipeline_result):
        service, _, _ = served
        store = service.index.store_for(DATE)
        assert labels_to_csv(store.to_records()) == labels_to_csv(
            pipeline_result.labels
        )


class TestHTTP:
    def test_health(self, served):
        _, _, base = served
        health = _get(base, "/health")
        assert health["status"] == "ok"
        assert health["days_published"] == 1
        assert health["feeds_failed"] == []

    def test_metrics(self, served, archive_day):
        _, _, base = served
        metrics = _get(base, "/metrics")
        assert metrics["ingest"]["packets"] == len(archive_day.trace)
        assert metrics["ingest"]["windows"] >= 1
        assert metrics["latency"]["p95_commit_seconds"] > 0
        queue = metrics["queues"]["day"]
        assert queue["peak_packets"] <= queue["max_packets"]
        assert metrics["index"]["days"] == 1
        assert metrics["http"]["requests"] >= 1

    def test_feeds_listing(self, served, archive_day):
        _, _, base = served
        feeds = _get(base, "/feeds")["feeds"]
        assert [f["name"] for f in feeds] == ["day"]
        assert feeds[0]["state"] == "closed"
        assert feeds[0]["packets_in"] == len(archive_day.trace)

    def test_labels_json_filters(self, served, pipeline_result):
        _, _, base = served
        rows = _get(base, f"/labels?date={DATE}")["labels"]
        assert len(rows) == len(pipeline_result.labels)
        anomalous = _get(base, f"/labels?date={DATE}&taxonomy=anomalous")
        assert anomalous["count"] == len(pipeline_result.anomalous())
        limited = _get(base, f"/labels?date={DATE}&limit=2")
        assert limited["count"] == 2

    def test_labels_src_filter(self, served, pipeline_result):
        from repro.net.addresses import ip_to_str

        _, _, base = served
        record = next(
            r
            for r in pipeline_result.labels
            if any(rule.src is not None for rule in r.summary.rules)
        )
        src = next(
            rule.src for rule in record.summary.rules if rule.src is not None
        )
        rows = _get(base, f"/labels?date={DATE}&src={ip_to_str(src)}")
        assert rows["count"] >= 1
        assert any(
            row["community"] == record.community_id
            for row in rows["labels"]
        )

    def test_unknown_route_404(self, served):
        _, _, base = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(base, "/nope")
        assert excinfo.value.code == 404

    def test_bad_query_400(self, served):
        _, _, base = served
        for path in (
            f"/labels?date={DATE}&format=yaml",
            f"/labels?date={DATE}&t0=abc",
            f"/labels?date={DATE}&taxonomy=bogus",
            "/labels?format=csv",
        ):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(base, path)
            assert excinfo.value.code == 400, path

    def test_csv_for_unknown_date_404(self, served):
        _, _, base = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(base, "/labels?date=1999-01-01&format=csv")
        assert excinfo.value.code == 404

    def test_duplicate_feed_open_409(self, served):
        _, _, base = served
        _post(base, "/feeds/dup", {"date": "2004-06-09"})
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(base, "/feeds/dup", {})
            assert excinfo.value.code == 409
        finally:
            _post(base, "/feeds/dup/close", {})

    def test_push_to_unknown_feed_409(self, served):
        _, _, base = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base, "/feeds/ghost/packets", {"packets": []})
        assert excinfo.value.code == 409

    def test_http_ingest_round_trip(self, served, archive_day):
        """The full wire path labels identically to direct pushes."""
        service, _, base = served
        _post(base, "/feeds/wire", {"date": "2004-06-10"})
        for chunk in chunk_table(archive_day.trace.table, 8192):
            _post(
                base,
                "/feeds/wire/packets",
                {"packets": table_to_rows(chunk)},
            )
        status = _post(base, "/feeds/wire/close", {})
        assert status["state"] == "closed"
        assert labels_to_csv(
            service.index.store_for("2004-06-10").to_records()
        ) == labels_to_csv(service.index.store_for(DATE).to_records())


def _raw_request(port: int, request: bytes) -> bytes:
    """Send raw bytes, return everything the server answers."""
    import socket

    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


class TestHostileInput:
    """Malformed requests get a 400 and the server keeps serving."""

    def _still_serving(self, base):
        assert _get(base, "/health")["status"] == "ok"

    @pytest.mark.parametrize("length", [b"abc", b"-5"])
    def test_bad_content_length_400(self, served, length):
        _, server, base = served
        reply = _raw_request(
            server.port,
            b"POST /feeds/x HTTP/1.1\r\nContent-Length: "
            + length
            + b"\r\n\r\n{}",
        )
        assert reply.startswith(b"HTTP/1.1 400 "), reply
        assert b"Content-Length" in reply
        self._still_serving(base)

    def test_limit_zero_and_negative(self, served):
        _, _, base = served
        assert _get(base, f"/labels?date={DATE}&limit=0")["count"] == 0
        assert _get(base, "/labels?limit=0")["count"] == 0
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(base, f"/labels?date={DATE}&limit=-1")
        assert excinfo.value.code == 400
        self._still_serving(base)

    def test_malformed_address_400(self, served):
        _, _, base = served
        for value in ("10.0.0", "10.0.0.999", "nope"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(base, f"/labels?date={DATE}&src={value}")
            assert excinfo.value.code == 400, value
        self._still_serving(base)

    @pytest.mark.parametrize(
        "query",
        [
            "limit=0&src=10.0.0",
            f"date={DATE}&limit=0&taxonomy=bogus",
            "limit=0&dst=nope",
        ],
    )
    def test_bad_predicate_with_limit_zero_400(self, served, query):
        _, _, base = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(base, f"/labels?{query}")
        assert excinfo.value.code == 400
        self._still_serving(base)

    def test_bad_predicate_on_empty_service_400(self):
        """No day to scan: the predicates are still checked."""
        with LabelingService(window=60.0) as service:
            server = LabelServer(service).start_background()
            base = f"http://127.0.0.1:{server.port}"
            try:
                assert _get(base, "/labels")["count"] == 0
                for query in ("src=10.0.0", "taxonomy=bogus", "limit=-1"):
                    with pytest.raises(urllib.error.HTTPError) as excinfo:
                        _get(base, f"/labels?{query}")
                    assert excinfo.value.code == 400, query
                self._still_serving(base)
            finally:
                server.stop_background()

    def test_bad_feed_date_rejected_at_open(self, tmp_path):
        """A date that cannot name a warehouse day is refused before
        any packet is accepted, not after labeling at close."""
        with LabelingService(
            window=60.0, warehouse_root=str(tmp_path / "wh")
        ) as service:
            server = LabelServer(service).start_background()
            base = f"http://127.0.0.1:{server.port}"
            try:
                for name, options in (
                    ("x", {"date": "../x"}),
                    ("y", {"date": ".y"}),
                    (".z", {}),
                ):
                    with pytest.raises(urllib.error.HTTPError) as excinfo:
                        _post(base, f"/feeds/{name}", options)
                    assert excinfo.value.code == 409, name
                    assert b"bad day key" in excinfo.value.read()
                assert service.feeds_status() == []
                assert _post(base, "/feeds/ok", {"date": DATE})["name"] == "ok"
                self._still_serving(base)
            finally:
                server.stop_background()


class TestBackpressure:
    def test_peak_ring_bounded_while_consumer_lags(self, archive_day):
        """The acceptance bound: a producer outrunning the labeler
        blocks at the configured ring size — the peak never exceeds
        the bound, and the producer demonstrably waited."""
        bound = 2048
        table = archive_day.trace.table
        with LabelingService(
            window=archive_day.trace.duration / 4,
            max_ring_packets=bound,
        ) as service:
            feed = service.open_feed("slow", date="2004-06-11")
            for chunk in chunk_table(table, 512):
                service.push("slow", chunk)
            service.close_feed("slow")
            status = feed.status()
        assert status["queue"]["peak_packets"] <= bound
        assert status["queue"]["pushes_blocked"] > 0
        assert status["queue"]["blocked_seconds"] > 0
        assert status["packets_in"] == len(table)


class TestServiceLifecycle:
    def test_shutdown_idempotent_and_terminal(self, archive_day):
        service = LabelingService(window=60.0)
        service.open_feed("f", date="2004-06-12")
        service.push("f", archive_day.trace.table)
        service.shutdown()
        service.shutdown()
        with pytest.raises(ServeError):
            service.open_feed("g")

    def test_unknown_feed_rejected(self):
        with LabelingService(window=60.0) as service:
            with pytest.raises(ServeError, match="unknown feed"):
                service.push("ghost", PacketTable.empty())

    def test_failed_feed_surfaces_on_close(self, archive_day):
        service = LabelingService(window=60.0)
        feed = service.open_feed("boom", date="2004-06-13")

        def exploding(*a, **k):
            raise RuntimeError("kaput")

        # Safe to patch: the consumer thread is parked in ring.pop()
        # until the first push, and _emit only fires per window.
        feed.pipeline._emit = exploding
        service.push("boom", archive_day.trace.table)
        with pytest.raises(ServeError, match="failed while labeling"):
            service.close_feed("boom")
        assert service.health()["status"] == "degraded"
        service.shutdown()

    def test_close_feed_persists_day(self, tmp_path, archive_day):
        from repro.labeling.warehouse import Warehouse

        with LabelingService(
            window=archive_day.trace.duration * 2,
            warehouse_root=str(tmp_path / "wh"),
        ) as service:
            service.open_feed("persist", date=DATE)
            service.push("persist", archive_day.trace.table)
            service.close_feed("persist")
            live_csv = labels_to_csv(
                service.index.store_for(DATE).to_records()
            )
        warehouse = Warehouse(tmp_path / "wh")
        assert warehouse.dates() == [DATE]
        assert warehouse.export_csv(DATE) == live_csv


class TestP95:
    def test_p95_helper(self):
        assert _p95([]) == 0.0
        assert _p95([5.0]) == 5.0
        values = [float(i) for i in range(1, 101)]
        assert _p95(values) == 95.0


class TestServeCLI:
    def test_parser_wires_serve_command(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "serve",
                "--port",
                "0",
                "--feeds",
                "a:2004-06-01",
                "--feeds",
                "b",
                "--schedule",
                "60",
                "--warehouse-root",
                "wh",
                "--max-ring-packets",
                "1024",
            ]
        )
        assert args.port == 0
        assert args.feeds == ["a:2004-06-01", "b"]
        assert args.schedule == 60.0
        assert args.max_ring_packets == 1024
        assert args.func.__name__ == "_cmd_serve"

    def test_schedule_requires_warehouse_root(self, capsys):
        from repro.cli import main

        assert main(["serve", "--schedule", "60"]) == 2
        assert "--warehouse-root" in capsys.readouterr().err
