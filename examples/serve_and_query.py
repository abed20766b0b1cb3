#!/usr/bin/env python3
"""Serving: run the labeling daemon, feed it live traffic, query labels.

The paper's artifact is a continuously published label database; this
example plays that loop end to end in one process:

1. boot a :class:`~repro.serve.daemon.LabelingService` behind its
   stdlib HTTP server;
2. stream one synthetic archive day into a feed chunk by chunk (the
   producer blocks whenever the bounded ingest ring fills —
   backpressure, not buffering);
3. query ``/labels`` while and after ingest, then verify the served
   CSV is byte-identical to the offline pipeline's output;
4. run the resumable archive scheduler into the same label warehouse
   the closed feed was committed to, and query its days back.

Run:  python examples/serve_and_query.py
"""

import json
import tempfile
import urllib.request

from repro.labeling import MAWILabPipeline, labels_to_csv
from repro.mawi import SyntheticArchive
from repro.serve import ArchiveScheduler, LabelServer, LabelingService
from repro.stream import chunk_table


def get(base: str, path: str):
    with urllib.request.urlopen(base + path) as response:
        body = response.read().decode()
    return body if path.endswith("csv") else json.loads(body)


def main() -> None:
    archive = SyntheticArchive(seed=2010, trace_duration=60.0)
    day = archive.day("2005-06-01")

    # 1. The daemon: one session, many feeds, a live query index and
    #    a durable label warehouse.  A window covering the whole stream
    #    gives offline parity; a smaller window would publish labels
    #    incrementally instead.
    with tempfile.TemporaryDirectory() as tmp, LabelingService(
        window=120.0, max_ring_packets=16384, warehouse_root=f"{tmp}/wh"
    ) as service:
        server = LabelServer(service).start_background()
        base = f"http://127.0.0.1:{server.port}"
        print(f"daemon listening on {base}")

        # 2. Feed the day as if the capture were still in progress.
        service.open_feed("live", date=day.date)
        for chunk in chunk_table(day.trace.table, 2048):
            service.push("live", chunk)  # blocks if the ring is full
        status = service.close_feed("live")
        print(
            f"feed drained: {status['packets_in']} packets, "
            f"{status['windows']} windows, {status['labels']} labels, "
            f"ring peak {status['queue']['peak_packets']} packets "
            f"(bound {status['queue']['max_packets']})"
        )

        # 3. Query the live index — no pipeline work on this path.
        anomalous = get(base, f"/labels?date={day.date}&taxonomy=anomalous")
        print(f"/labels: {anomalous['count']} anomalous communities")
        for row in anomalous["labels"][:3]:
            rule = row["rules"][0] if row["rules"] else {}
            print(
                f"  community {row['community']}: {row['heuristic_detail']}"
                f" src={rule.get('src')} dst={rule.get('dst')}"
            )
        metrics = get(base, "/metrics")
        print(
            f"/metrics: p95 commit latency "
            f"{metrics['latency']['p95_commit_seconds'] * 1e3:.0f}ms"
        )

        # The serving parity anchor: the served CSV for a fully
        # ingested day is byte-identical to the offline pipeline.
        offline = labels_to_csv(MAWILabPipeline().run(day.trace).labels)
        served = get(base, f"/labels?date={day.date}&format=csv")
        print(f"served CSV == offline `repro label` CSV: {served == offline}")

        server.stop_background()

        # 4. Scheduled ingest: walk archive days into the warehouse,
        #    resumably.  Interrupt and re-run: completed days are
        #    skipped via the journal, and a forced re-label hits the
        #    Step 1 alarm cache instead of re-detecting.
        scheduler = ArchiveScheduler(
            archive,
            ["2005-06-02", "2005-06-03"],
            service.warehouse,
            session=service.session,
            cache_dir=f"{tmp}/cache",
        )
        for outcome in scheduler.run_once():
            print(f"scheduled {outcome.describe()} "
                  f"({outcome.elapsed:.2f}s)")
        # A second pass owes nothing.
        print(f"second pass pending: {scheduler.pending()}")
        # Scheduled and fed days answer from the warehouse alike.
        print(
            f"warehouse days: {service.health()['warehouse_days']}, "
            f"2005-06-02 labels: "
            f"{len(service.query_labels(date='2005-06-02'))}"
        )


if __name__ == "__main__":
    main()
