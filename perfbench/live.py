"""The live-feeds workload: ``repro serve`` driven over HTTP.

The daemon runs as a subprocess (``repro serve --window 60 --hop 30``;
in a traced run the same CLI entry point under ``launcher.py``).  Two
client threads share it:

* the **writer** posts each feed day in turn — open, pre-encoded
  2048-packet ``/feeds/<name>/packets`` bodies in a closed loop (a full
  ring blocks the POST: backpressure), close;
* two **readers** run open loops at a fixed rate — ``GET
  /labels?date=<feed>&taxonomy=anomalous`` and ``GET /feeds``, each
  :data:`RATE` times a second — timing every request from the moment it
  was due, so a stall also delays the requests queued behind it.

End-to-end metrics: ``label_pps`` (packets over first POST to last close
returning), ``query_p50_ms`` (``/labels``, from due time; a failure or
timeout counts as infinitely late),
``freshness_p50_ms`` (from the return of the POST that completes a
window to the first ``/feeds`` reply counting that window), and the
daemon's ``peak_rss_mb``.

The whole run keeps every CPU out of idle (:func:`awake_cpus`).

Checks: every closed feed's ``/labels?format=csv`` equals the
pure-Python streaming oracle, every request answers 2xx in time, the
daemon dies with SIGTERM's conventional status, and no shared-memory
segment outlives it.
"""

from __future__ import annotations

import contextlib
import hashlib
import http.client
import itertools
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from common import (
    Outcomes,
    child_env,
    peak_rss_mb,
    percentile,
    shm_segments,
    tail_is_reportable,
)
from inputs import (
    CHUNK,
    HOP,
    INPUTS,
    WINDOW,
    load_trace,
    oracle_digest,
    warmup_trace,
)

#: Seconds one round (every feed day posted once) takes on the reference
#: host (2 shared vCPUs); a run posts ``max(1, round(seconds /
#: ROUND_SECONDS))`` rounds, a fixed amount of work for a given
#: ``seconds``, so a fast stretch of the host never fits one more round
#: (and a larger label index) than a slow one.
ROUND_SECONDS = 17.0
#: Daemon boots per run; the median is ``setup_s``.
SETUPS = 5
#: Open-loop requests per second, per route (``/labels`` and ``/feeds``).
RATE = 100.0
#: ``/labels`` samples a run needs, so p99 has ten samples beyond it.
MIN_QUERIES = 1000
#: Seconds a request may take before it counts as failed.
TIMEOUT = 10.0
#: Seconds of the first feed day posted by each boot's warm-up feed.
WARMUP_SECONDS = 60.0
LAUNCHER = Path(__file__).resolve().parent / "launcher.py"
#: A busy loop in the idle scheduling class: it runs only when nothing
#: else wants the CPU (and exits at once if the class cannot be set).
SPIN = (
    "import os\n"
    "os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\n"
    "while True:\n"
    "    pass\n"
)


@contextlib.contextmanager
def awake_cpus():
    """Keep every CPU out of idle for the block.

    A request hops between the client, the daemon's event loop and its
    feed thread several times.  On a virtual machine every hop to an
    idle CPU waits for the hypervisor to wake that CPU, and the wait
    swings with other tenants' load: on a shared 2-vCPU host
    ``query_p50_ms`` moved between 3.2 and 6.4 ms with it.  One busy loop
    per CPU in the idle scheduling class keeps the CPUs awake, as
    disabling deep idle states does on a dedicated benchmark host; the
    kernel preempts it for any other task.
    """
    spinners = []
    try:
        for _ in range(len(os.sched_getaffinity(0))):
            spinners.append(subprocess.Popen([sys.executable, "-c", SPIN]))
        yield spinners
    finally:
        for spinner in spinners:
            spinner.kill()
        for spinner in spinners:
            spinner.wait()


class Daemon:
    """One ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, spans_path: Path | None = None) -> None:
        serve_args = [
            "serve",
            "--port",
            "0",
            "--window",
            f"{WINDOW:g}",
            "--hop",
            f"{HOP:g}",
            "--exit-after",
            "170",
        ]
        if spans_path is None:
            command = [sys.executable, "-m", "repro.cli", *serve_args]
        else:
            command = [
                sys.executable,
                str(LAUNCHER),
                str(spans_path),
                spans_path.stem,
                *serve_args,
            ]
        self.process = subprocess.Popen(
            command,
            env=child_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        self._drain = None
        try:
            self.port = self._read_port()
            self._drain = threading.Thread(
                target=lambda: self.process.stderr.read(), daemon=True
            )
            self._drain.start()
            self._wait_healthy()
        except BaseException:
            self.process.kill()
            self.process.wait()
            raise

    def _read_port(self) -> int:
        for raw in self.process.stderr:
            match = re.search(rb"http://[\d.]+:(\d+)", raw)
            if match:
                return int(match.group(1))
        raise RuntimeError("daemon exited before printing its address")

    def _wait_healthy(self, deadline: float = 60.0) -> None:
        stop = time.monotonic() + deadline
        while True:
            try:
                status, _body = self.request("GET", "/health")
                if status == 200:
                    return
            except OSError:
                pass
            if time.monotonic() > stop:
                raise RuntimeError("daemon never answered /health")
            time.sleep(0.01)

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=TIMEOUT)

    def request(self, method, path, body=None, conn=None):
        own = conn is None
        conn = conn or self.connect()
        try:
            headers = {"Content-Type": "application/json"} if body is not None else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            if own:
                conn.close()

    def stop(self, outcomes: Outcomes) -> None:
        """SIGTERM; the daemon must die with the conventional status."""
        self.process.send_signal(signal.SIGTERM)
        try:
            code = self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            code = self.process.wait()
        if self._drain is not None:
            self._drain.join(timeout=10)
        self.process.stderr.close()
        outcomes.attempt(
            code == -signal.SIGTERM,
            f"daemon exited with {code} on SIGTERM, not {-signal.SIGTERM}",
        )


def _encode(table) -> list[bytes]:
    from repro.serve.http import table_to_rows
    from repro.stream.window import chunk_table

    return [
        json.dumps({"packets": table_to_rows(chunk)}).encode()
        for chunk in chunk_table(table, CHUNK)
    ]


def _completing_chunks(table) -> list[int]:
    """For window k (0-based), the index of the chunk that emits it.

    Mirrors the streaming pipeline's emission rule: window ``k`` closes
    when a packet at or past ``t_min + window + k * hop`` arrives.
    """
    import numpy as np

    times = table.time
    last = np.minimum(np.arange(CHUNK, len(times) + CHUNK, CHUNK), len(times)) - 1
    ends = times[last]
    t_min = float(times[0])
    index = []
    k = 0
    for chunk, t_max in enumerate(ends):
        while t_max >= t_min + WINDOW + k * HOP:
            index.append(chunk)
            k += 1
    return index


class Feeds:
    """Pre-encoded feed bodies and their window-completion map."""

    def __init__(self, seed: int) -> None:
        inputs = INPUTS["live-feeds"]
        dates = inputs.dates(seed)
        self.days = []
        for date in dates:
            trace = load_trace(inputs, date)
            self.days.append(
                {
                    "date": date,
                    "bodies": _encode(trace.table),
                    "packets": len(trace),
                    "completes": _completing_chunks(trace.table),
                    "oracle": oracle_digest(inputs, date),
                }
            )
        self.warmup = _encode(warmup_trace(inputs, WARMUP_SECONDS).table)


def _warm_up(daemon: Daemon, feeds: Feeds, boot: int) -> None:
    name = f"warmup-{boot}"
    body = json.dumps({"date": name}).encode()
    for path, payload in [(f"/feeds/{name}", body)] + [
        (f"/feeds/{name}/packets", b) for b in feeds.warmup
    ] + [(f"/feeds/{name}/close", b"{}")]:
        status, reply = daemon.request("POST", path, payload)
        if status != 200:
            raise RuntimeError(f"warm-up {path} answered {status}: {reply[:200]!r}")


class Load:
    """The writer and reader threads of one measured phase."""

    def __init__(
        self, daemon: Daemon, feeds: Feeds, outcomes: Outcomes, seconds: float
    ) -> None:
        self.daemon = daemon
        self.feeds = feeds
        self.outcomes = outcomes
        self.rounds = max(1, round(seconds / ROUND_SECONDS))
        self.done = threading.Event()
        self.active_date = ""
        #: (feed name, day) of every feed posted, in order.
        self.posted: list[tuple[str, dict]] = []
        #: (feed name, chunk index) -> perf_counter when its POST returned.
        self.post_returned: dict[tuple, float] = {}
        #: (feed name, windows) -> perf_counter of the first /feeds reply
        #: counting that many labelled windows.
        self.window_seen: dict[tuple, float] = {}
        self.query_latency: list[float] = []
        self.lateness: list[float] = []
        self.conn = None
        self.started = 0.0
        self.finished = 0.0

    def writer(self) -> None:
        """Post every feed day, round after round, :attr:`rounds` times.

        More rounds follow only if the readers have not yet taken
        :data:`MIN_QUERIES` ``/labels`` samples.

        Round ``r`` posts day ``d`` as feed (and index date) ``d.r<r>``,
        so every feed is a fresh stream whose labels the oracle knows.
        """
        self.conn = self.daemon.connect()
        try:
            self.started = time.perf_counter()
            for round_ in itertools.count():
                for day in self.feeds.days:
                    self._post_feed(f"{day['date']}.r{round_}", day)
                if (
                    round_ + 1 >= self.rounds
                    and len(self.query_latency) >= MIN_QUERIES
                ):
                    break
        finally:
            self.finished = time.perf_counter()
            self.conn.close()
            self.done.set()

    def _post_feed(self, name: str, day: dict) -> None:
        self.active_date = name
        self._post(f"/feeds/{name}", json.dumps({"date": name}).encode())
        for i, body in enumerate(day["bodies"]):
            if self._post(f"/feeds/{name}/packets", body):
                self.post_returned[(name, i)] = time.perf_counter()
        reply = self._post(f"/feeds/{name}/close", b"{}")
        closed = reply is not None and json.loads(reply).get("state") == "closed"
        self.outcomes.attempt(closed, f"{name} did not close cleanly")
        self.posted.append((name, day))

    def _post(self, path, body):
        try:
            status, reply = self.daemon.request("POST", path, body, conn=self.conn)
        except (OSError, http.client.HTTPException) as exc:
            self.outcomes.attempt(False, f"POST {path}: {exc!r}")
            self.conn.close()
            self.conn = self.daemon.connect()
            return None
        ok = 200 <= status < 300
        self.outcomes.attempt(ok, f"POST {path} answered {status}")
        return reply if ok else None

    def reader(self, route: str) -> None:
        """Open loop on one read route at :data:`RATE`, timed from due time.

        Each route has its own thread and connection, so a slow
        ``/feeds`` reply never delays a ``/labels`` request.
        """
        conn = self.daemon.connect()
        start = time.perf_counter()
        try:
            for tick in itertools.count():
                if self.done.is_set():
                    break
                due = start + tick / RATE
                now = time.perf_counter()
                if now < due:
                    time.sleep(due - now)
                self.lateness.append(time.perf_counter() - due)
                conn = self._get(conn, route, due)
        finally:
            conn.close()

    def _get(self, conn, route, due):
        path = (
            f"/labels?date={self.active_date}&taxonomy=anomalous"
            if route == "labels"
            else "/feeds"
        )
        try:
            status, body = self.daemon.request("GET", path, conn=conn)
            ok = status == 200
        except (OSError, http.client.HTTPException) as exc:
            ok, status, body = False, repr(exc), b""
            conn.close()
            conn = self.daemon.connect()
        received = time.perf_counter()
        self.outcomes.attempt(ok, f"GET {path} answered {status}")
        if route == "labels":
            self.query_latency.append(received - due if ok else float("inf"))
        elif ok:
            for feed in json.loads(body)["feeds"]:
                key = (feed["name"], feed["windows"])
                self.window_seen.setdefault(key, received)
        return conn

    def freshness(self) -> list[float]:
        """Seconds from each window's completing POST to its first sighting."""
        values = []
        for name, day in self.posted:
            seen = sorted(
                (windows, at) for (feed, windows), at in self.window_seen.items()
                if feed == name
            )
            for k, chunk in enumerate(day["completes"]):
                posted = self.post_returned.get((name, chunk))
                first = next((at for windows, at in seen if windows >= k + 1), None)
                if posted is not None and first is not None:
                    values.append(first - posted)
        return values


def _measure(feeds: Feeds, outcomes: Outcomes, seconds: float, spans_path=None):
    shm_before = shm_segments()
    setups = []
    daemon = None
    try:
        for boot in range(SETUPS):
            if daemon is not None:
                daemon.stop(outcomes)
                daemon = None
            started = time.perf_counter()
            daemon = Daemon(spans_path)
            _warm_up(daemon, feeds, boot)
            setups.append(time.perf_counter() - started)
        load = Load(daemon, feeds, outcomes, seconds)
        threads = [
            threading.Thread(target=load.writer),
            threading.Thread(target=load.reader, args=("labels",)),
            threading.Thread(target=load.reader, args=("feeds",)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for name, day in load.posted:
            status, csv = daemon.request("GET", f"/labels?date={name}&format=csv")
            outcomes.attempt(
                status == 200 and hashlib.sha256(csv).hexdigest() == day["oracle"],
                f"{name}: served CSV differs from the streaming oracle",
            )
        _status, metrics = daemon.request("GET", "/metrics")
        metrics = json.loads(metrics)
        rss = peak_rss_mb(daemon.process.pid)
    finally:
        if daemon is not None:
            daemon.stop(outcomes)
    leaked = shm_segments() - shm_before
    outcomes.attempt(not leaked, f"leaked shared memory: {sorted(leaked)}")
    packets = sum(day["packets"] for _name, day in load.posted)
    freshness = load.freshness()
    outcomes.attempt(bool(freshness), "no window completion was observed")
    outcomes.attempt(
        tail_is_reportable(len(load.query_latency), 99),
        "too few /labels samples for a p99",
    )
    e2e = {
        "setup_s": percentile(setups, 50),
        "label_pps": packets / (load.finished - load.started),
        "query_p50_ms": percentile(load.query_latency, 50) * 1e3,
        "freshness_p50_ms": percentile(freshness or [float("inf")], 50) * 1e3,
        "peak_rss_mb": rss,
    }
    queues = metrics.get("queues", {}).values()
    extra = {
        "serve.blocked_s": metrics["ingest"]["blocked_seconds"],
        "serve.ring_peak_packets": max((q["peak_packets"] for q in queues), default=0),
        "gen.late_p99_ms": percentile(load.lateness, 99) * 1e3,
        "query_p99_ms": percentile(load.query_latency, 99) * 1e3,
    }
    return e2e, extra, load.started


def run(workload: str, seed: int, seconds: float, spans_path=None, layers=None):
    """One live-feeds run; returns (end-to-end metrics, outcomes).

    With ``spans_path`` the daemon runs under the tracing launcher and
    writes its spans there on SIGTERM; ``layers`` then receives the
    workload's per-layer extras and the measured phase's start time.
    """
    feeds = Feeds(seed)
    outcomes = Outcomes()
    with awake_cpus():
        e2e, extra, started = _measure(feeds, outcomes, seconds, spans_path)
    if layers is not None:
        layers.update(extra)
        layers["_measure_start"] = started
    return e2e, outcomes
