"""Shared plumbing of the benchmark: paths, statistics, failure counts.

Everything here is pure standard library so the statistics and the
failure bookkeeping can be unit-tested without the package under test.
"""

from __future__ import annotations

import math
import os
import sys
from pathlib import Path

#: The checkout the benchmark runs in (it is always started from there).
ROOT = Path.cwd()
#: Everything the benchmark writes: input cache, oracle digests, span
#: files, scratch warehouses.  Listed in the repository's .gitignore.
WORK = ROOT / ".perfbench"
CACHE = WORK / "cache"
SPANS = WORK / "spans"
TMP = WORK / "tmp"


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no package to measure)."""


def use_repo_package() -> None:
    """Import ``repro`` from the checkout's ``src/`` tree, never elsewhere."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SetupError(
            f"no package under {src}; run from the root of a checkout"
        )
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


#: Pinned string-hash seed of every benchmark process: with random hash
#: seeds, set iteration order — and with it the order of equal-support
#: rules in a label CSV — changes from process to process.
HASH_SEED = "0"


def child_env() -> dict:
    """Environment for subprocesses that import the package under test."""
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    return env


# -- statistics ----------------------------------------------------------


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile: the smallest value with ``pct``% at or below.

    ``percentile(v, 50)`` of an even-length list is the lower middle
    value, so every reported figure is a measured sample, never an
    interpolation.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    if not 0 < pct <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {pct}")
    rank = math.ceil(pct / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie strictly above the nearest-rank ``pct``."""
    return n - max(math.ceil(pct / 100.0 * n), 1)


def tail_is_reportable(n: int, pct: float, beyond: int = 10) -> bool:
    """Whether ``pct`` has at least ``beyond`` samples above it."""
    return samples_beyond(n, pct) >= beyond


# -- failures ------------------------------------------------------------


class Outcomes:
    """Attempted and failed operations of one run, with reasons.

    Every operation the benchmark makes or checks — a labelled trace, a
    query, an HTTP request, a resource-hygiene check — is one attempt.
    A failure is anything that did not produce the oracle's answer in
    time: an exception, a wrong digest, a non-2xx reply, a timeout, a
    leaked segment.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def attempt(self, ok: bool, reason: str = "", count: int = 1) -> bool:
        """Record ``count`` attempts that all passed or all failed."""
        self.attempted += count
        if not ok:
            self.failed += count
            if len(self.reasons) < 20:
                self.reasons.append(reason or "unspecified failure")
        return ok

    def merge(self, other: "Outcomes") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.reasons.extend(other.reasons[: max(20 - len(self.reasons), 0)])

    @property
    def ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0


# -- resources -----------------------------------------------------------


def shm_segments() -> set[str]:
    """Names of the package's shared-memory segments currently alive."""
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except FileNotFoundError:
        return set()


def stop_resource_tracker() -> None:
    """Stop the ``multiprocessing`` resource tracker and wait for it.

    Shared-memory segments start a tracker process that otherwise lives
    on after the benchmark exits, orphaned, until it notices its parent
    is gone.  Stopping it here ends every process the run started.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def peak_rss_mb(pid: int) -> float:
    """High-water resident set of a live process, in MiB (0 if gone)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (FileNotFoundError, ProcessLookupError, PermissionError):
        pass
    return 0.0
