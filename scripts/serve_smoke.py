#!/usr/bin/env python
"""CI smoke test for the labeling daemon.

Boots ``repro serve`` as a real subprocess with a label warehouse and
a one-day archive schedule, drives it the way an operator would — open
a feed over HTTP, POST a synthetic trace chunk by chunk, poll
``/labels`` until the day is queryable — and then checks the
properties a daemon must not lose:

* liveness: ``/health`` reports ``ok`` and ``/metrics`` counts the
  ingested windows;
* durability: the scheduled day and the closed feed's day both answer
  ``/labels?date=…&dport=…`` from the warehouse, and ``/health``
  reports ``warehouse_days == 2``;
* clean death: SIGTERM terminates the process with the conventional
  signal status, leaves no ``/dev/shm`` segments behind, and leaves a
  warehouse that ``repro warehouse verify`` passes.

Usage::

    python scripts/serve_smoke.py [--duration 12] [--timeout 120]

Exits non-zero with a diagnostic on any failed assertion.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request


def shm_segments() -> set[str]:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except FileNotFoundError:  # non-Linux: nothing to leak-check
        return set()


def wait_for_port(stderr, deadline: float) -> int:
    """Parse the bound port from the daemon's startup line."""
    port: list[int] = []

    def _scan() -> None:
        for raw in stderr:
            line = raw.decode(errors="replace")
            sys.stderr.write(f"[serve] {line}")
            match = re.search(r"http://[\d.]+:(\d+)", line)
            if match and not port:
                port.append(int(match.group(1)))

    thread = threading.Thread(target=_scan, daemon=True)
    thread.start()
    while not port:
        if time.monotonic() > deadline:
            raise TimeoutError("daemon never printed its listen address")
        time.sleep(0.05)
    return port[0]


def get(base: str, path: str) -> dict:
    with urllib.request.urlopen(base + path, timeout=30) as response:
        return json.load(response)


def post(base: str, path: str, payload: dict) -> dict:
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=120) as response:
        return json.load(response)


def assert_dport_query(base: str, date: str) -> None:
    """``date`` answers a dport-filtered query with matching rows."""
    labels = get(base, f"/labels?date={date}")["labels"]
    dport = next(
        (
            rule["dport"]
            for row in labels
            for rule in row["rules"]
            if rule["dport"] is not None
        ),
        None,
    )
    assert dport is not None, f"{date}: no label pins a dport: {labels}"
    rows = get(base, f"/labels?date={date}&dport={dport}")
    assert rows["count"] >= 1, (date, dport, rows)
    for row in rows["labels"]:
        assert row["date"] == date, row
        assert any(rule["dport"] == dport for rule in row["rules"]), row
    print(f"{date}: {rows['count']} labels on dport {dport}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", type=float, default=12.0)
    parser.add_argument("--timeout", type=float, default=180.0)
    args = parser.parse_args(argv)

    # Import lazily so --help works without the package installed.
    from repro.mawi.archive import SyntheticArchive
    from repro.serve.http import table_to_rows
    from repro.stream.window import chunk_table

    seed = 7
    scheduled = "2004-05-01"
    day = SyntheticArchive(seed=seed, trace_duration=args.duration).day(
        "2004-06-01"
    )
    segments_before = shm_segments()
    deadline = time.monotonic() + args.timeout
    workdir = tempfile.TemporaryDirectory(prefix="serve-smoke-")
    warehouse_root = os.path.join(workdir.name, "wh")

    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--port",
            "0",
            "--window",
            str(args.duration * 2),
            "--exit-after",
            str(args.timeout),
            "--warehouse-root",
            warehouse_root,
            "--schedule",
            str(args.timeout),
            "--seed",
            str(seed),
            "--duration",
            str(args.duration),
            "--start",
            scheduled,
            "--months",
            "1",
        ],
        stderr=subprocess.PIPE,
    )
    try:
        port = wait_for_port(process.stderr, deadline)
        base = f"http://127.0.0.1:{port}"

        while True:
            try:
                health = get(base, "/health")
                break
            except (urllib.error.URLError, ConnectionError):
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.1)
        assert health["status"] == "ok", health

        post(base, "/feeds/smoke", {"date": day.date})
        for chunk in chunk_table(day.trace.table, 4096):
            post(base, "/feeds/smoke/packets", {"packets": table_to_rows(chunk)})
        status = post(base, "/feeds/smoke/close", {})
        assert status["state"] == "closed", status
        assert status["packets_in"] == len(day.trace), status

        while True:
            labels = get(base, f"/labels?date={day.date}")
            if labels["count"] > 0:
                break
            if time.monotonic() > deadline:
                raise TimeoutError("labels never became queryable")
            time.sleep(0.1)
        print(f"queryable: {labels['count']} labels for {day.date}")

        metrics = get(base, "/metrics")
        assert metrics["ingest"]["windows"] >= 1, metrics
        assert metrics["ingest"]["packets"] == len(day.trace), metrics
        while True:
            health = get(base, "/health")
            if health["warehouse_days"] >= 2:
                break
            if time.monotonic() > deadline:
                raise TimeoutError("the scheduled day was never committed")
            time.sleep(0.1)
        assert health["status"] == "ok", health
        assert health["days_published"] == 1, health
        assert health["warehouse_days"] == 2, health
        for date in (scheduled, day.date):
            assert_dport_query(base, date)
    except BaseException:
        process.kill()
        process.wait()
        workdir.cleanup()
        raise

    process.send_signal(signal.SIGTERM)
    returncode = process.wait(timeout=60)
    assert returncode == -signal.SIGTERM, (
        f"expected death by SIGTERM, got returncode {returncode}"
    )

    leaked = shm_segments() - segments_before
    assert not leaked, f"daemon leaked /dev/shm segments: {sorted(leaked)}"

    with workdir:
        verify = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "warehouse",
                "verify",
                "--root",
                warehouse_root,
            ],
            capture_output=True,
            text=True,
            timeout=120,
        )
        sys.stderr.write(verify.stdout + verify.stderr)
        assert verify.returncode == 0, "warehouse verify failed"

    print(
        "serve smoke OK: fed + scheduled, queried, SIGTERM'd cleanly, "
        "no leaks, warehouse verified"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
