"""Workload inputs and their oracle digests, cached per day.

Every workload labels a fixed set of days of one
:class:`repro.mawi.archive.SyntheticArchive` (seed
:data:`ARCHIVE_SEED`); ``--seed`` sets the order in which they are
labelled or posted (``pooled-traces`` keeps date order, see
:data:`INPUTS`).  The same seed always yields the same inputs.  Keeping the days fixed is
deliberate: the labelling cost of a synthetic day varies by ±25% with
its anomaly mix, so seed-drawn days would move every figure by more
than the regressions the benchmark has to catch.  Content breadth comes
from the days themselves — 48 months across every era for
``archive-days``.

Generating a day and running the pure-Python oracle over it costs far
more than labelling it, so both are cached under ``.perfbench/cache``
per (duration, date) and paid once per checkout.  The workload process
never generates or runs the oracle itself: :func:`prepare` runs this
file as a child process, so the measured process's memory and caches
are the same on a cold and a warm cache.

Run directly to fill the cache for some workloads::

    python3 perfbench/inputs.py long-traces live-feeds
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    CACHE,
    HASH_SEED,
    child_env,
    stop_resource_tracker,
    use_repo_package,
)

#: Seed of the synthetic archive every workload draws its days from.
ARCHIVE_SEED = 2010
#: Streaming parameters of the live-feeds workload (and its oracle).
WINDOW = 60.0
HOP = 30.0
#: Packets per POST body / per streamed chunk.
CHUNK = 2048


def _months(n: int) -> tuple[str, ...]:
    """``n`` first-of-month dates spread evenly over 2001-2009."""
    months = [f"{y:04d}-{m:02d}-01" for y in range(2001, 2010) for m in range(1, 13)]
    return tuple(months[(i * len(months)) // n] for i in range(n))


@dataclass(frozen=True)
class InputSet:
    """The archive days a workload labels."""

    duration: float
    days: tuple[str, ...]
    #: "batch" (offline label CSV) or "stream" (window/hop CSV).
    oracle: str
    #: Keep the listed order for every seed.
    fixed_order: bool = False

    def dates(self, seed: int) -> tuple[str, ...]:
        """The days in the order ``seed`` gives them."""
        order = list(self.days)
        if not self.fixed_order:
            random.Random(seed).shuffle(order)
        return tuple(order)


#: Four MAWI-length (900 s) days from four eras, alarm-sparse.
LONG_DAYS = ("2002-03-01", "2004-07-01", "2006-11-01", "2008-05-01")

INPUTS = {
    # 48 alarm-dense 30 s days spread over 2001-2009.
    "archive-days": InputSet(30.0, _months(48), "batch"),
    "long-traces": InputSet(900.0, LONG_DAYS, "batch"),
    # The pool double-buffers traces, so its throughput depends on their
    # order (smallest first overlaps best): date order, whatever the seed.
    "pooled-traces": InputSet(900.0, LONG_DAYS, "batch", fixed_order=True),
    # Two of the long days, each posted as one feed.
    "live-feeds": InputSet(900.0, LONG_DAYS[:2], "stream"),
}


def _key(inputs: InputSet, date: str) -> str:
    return f"{inputs.duration:g}s-{date}"


def trace_path(inputs: InputSet, date: str) -> Path:
    return CACHE / f"trace-{ARCHIVE_SEED}-{_key(inputs, date)}.npz"


def oracle_path(inputs: InputSet, date: str) -> Path:
    kind = (
        "batch"
        if inputs.oracle == "batch"
        else f"stream-w{WINDOW:g}-h{HOP:g}-c{CHUNK}"
    )
    return CACHE / f"oracle-{kind}-{ARCHIVE_SEED}-{_key(inputs, date)}.json"


def _write_atomic(path: Path, write) -> None:
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    with open(tmp, "wb") as handle:
        write(handle)
    os.replace(tmp, path)


# -- generation + oracle (child process) --------------------------------


def _save_trace(path: Path, trace) -> None:
    import numpy as np

    from repro.net.table import COLUMNS

    meta = trace.metadata
    arrays = {name: getattr(trace.table, name) for name in COLUMNS}
    arrays["meta"] = np.array(
        json.dumps(
            {
                "name": meta.name,
                "samplepoint": meta.samplepoint,
                "link_mbps": meta.link_mbps,
                "date": meta.date,
            }
        )
    )
    _write_atomic(path, lambda handle: np.savez(handle, **arrays))


def _fill(workload: str) -> None:
    """Generate missing traces and oracle digests for one workload."""
    use_repo_package()
    from repro.mawi.archive import SyntheticArchive

    inputs = INPUTS[workload]
    dates = inputs.days
    CACHE.mkdir(parents=True, exist_ok=True)
    archive = SyntheticArchive(seed=ARCHIVE_SEED, trace_duration=inputs.duration)
    for date in dates:
        if not trace_path(inputs, date).is_file():
            _save_trace(trace_path(inputs, date), archive.day(date).trace)
    missing = [d for d in dates if not oracle_path(inputs, d).is_file()]
    if not missing:
        return
    traces = [load_trace(inputs, d) for d in missing]
    if inputs.oracle == "batch":
        from repro.session import LabelingSession

        with LabelingSession(engine="python", workers=1) as session:
            reports = session.label_traces(traces).reports
        digests = {r.date: r.csv_sha256 for r in reports if r.ok}
        for date, trace in zip(missing, traces):
            _store_oracle(inputs, date, digests[trace.metadata.name])
    else:
        from repro.stream import StreamingPipeline
        from repro.stream.window import chunk_table

        for date, trace in zip(missing, traces):
            pipeline = StreamingPipeline(window=WINDOW, hop=HOP, engine="python")
            try:
                csv = pipeline.run(
                    chunk_table(trace.table, CHUNK), metadata=trace.metadata
                ).to_csv()
            finally:
                pipeline.close()
            _store_oracle(inputs, date, hashlib.sha256(csv.encode()).hexdigest())


def _store_oracle(inputs: InputSet, date: str, digest: str) -> None:
    payload = json.dumps({"sha256": digest}).encode()
    _write_atomic(oracle_path(inputs, date), lambda h: h.write(payload))


# -- workload side ------------------------------------------------------


def prepare(timeout: float = 800.0) -> None:
    """Make sure the cache holds every workload's inputs.

    The first run in a checkout fills the whole cache (a few minutes),
    so no later run of any workload pays for generation or the oracle.
    """
    missing = [
        name
        for name, inputs in INPUTS.items()
        if not all(
            trace_path(inputs, d).is_file() and oracle_path(inputs, d).is_file()
            for d in inputs.days
        )
    ]
    if not missing:
        return
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *missing],
        check=True,
        env=child_env(),
        timeout=timeout,
    )


def load_trace(inputs: InputSet, date: str):
    """A fresh :class:`~repro.net.trace.Trace` over private column copies.

    Every call builds new table and trace objects, so no per-trace
    memo (feature planes, flow codes) survives from an earlier pass:
    each measured pass labels the traces as a first-time user would.
    """
    import numpy as np

    from repro.net.table import COLUMNS, PacketTable
    from repro.net.trace import Trace, TraceMetadata

    with np.load(trace_path(inputs, date)) as data:
        meta = json.loads(str(data["meta"]))
        table = PacketTable(**{name: data[name].copy() for name in COLUMNS})
    return Trace.from_table(table, TraceMetadata(**meta))


def warmup_trace(inputs: InputSet, seconds: float):
    """The first ``seconds`` of the set's first listed day (every seed's
    set-up warms up on the same packets)."""
    import numpy as np

    from repro.net.trace import Trace

    trace = load_trace(inputs, inputs.days[0])
    start = float(trace.table.time[0])
    rows = trace.time_slice(start, start + seconds)
    return Trace.from_table(
        trace.table.take(np.arange(rows.start, rows.stop)), trace.metadata
    )


def oracle_digest(inputs: InputSet, date: str) -> str:
    return json.loads(oracle_path(inputs, date).read_text())["sha256"]


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # The oracle runs under the hash seed of the measured runs.
        os.execve(sys.executable, [sys.executable, *sys.argv], child_env())
    try:
        for name in sys.argv[1:]:
            _fill(name)
    finally:
        stop_resource_tracker()
