"""On-disk cache of Step 1 alarm sets.

Detection dominates pipeline runtime, and its output depends only on
(trace, ensemble) — not on the combiner, granularity or similarity
measure.  Caching alarms keyed by ``(archive, trace, ensemble)``
therefore lets a re-labeling sweep with a different combiner skip
Step 1 entirely.

Each entry is one :class:`~repro.core.alarm_table.AlarmTable` stored
as a column bundle (:mod:`repro.codec` — the warehouse's alarm-segment
layout): a handful of NumPy arrays plus two small name pools, written
atomically (temp file + ``os.replace``) so concurrent pool workers never
observe a torn entry.  Reading never unpickles anything: a corrupt,
truncated or foreign entry fails the codec's validation and is treated
as a miss and evicted.  Entries of older cache formats (``*.pkl``) are
not read; delete the cache directory to reclaim their space.

Cache keys are **engine-agnostic**: the columnar and reference kernels
are asserted byte-identical by the engine parity suite, so an alarm set
computed under one engine is valid under the other and the key hashes
only ``(archive, trace, ensemble)``.

The cache is LRU-aware: every hit touches the entry's mtime, and
:meth:`AlarmCache.prune` evicts least-recently-used entries to keep
the directory under a byte budget (``repro cache prune --max-bytes``)
and/or drop entries idle longer than a cutoff (``--older-than``) —
archive sweeps otherwise grow the directory without bound.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

from repro import codec
from repro.core.alarm_table import AlarmTable
from repro.detectors.base import Alarm
from repro.errors import CodecError
from repro.ioutil import write_atomic_bytes

#: Entry file suffix (a column bundle, like warehouse segments).
_SUFFIX = ".seg"


@dataclass(frozen=True)
class PruneStats:
    """Outcome of one :meth:`AlarmCache.prune` pass."""

    removed: int
    freed_bytes: int
    kept: int
    kept_bytes: int

    def describe(self) -> str:
        return (
            f"removed {self.removed} entries ({self.freed_bytes} bytes), "
            f"kept {self.kept} ({self.kept_bytes} bytes)"
        )


class AlarmCache:
    """Table-per-entry alarm cache rooted at ``cache_dir``."""

    def __init__(self, cache_dir: str | Path) -> None:
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    @staticmethod
    def make_key(
        archive_fingerprint: str,
        trace_name: str,
        ensemble_fingerprint: str,
    ) -> str:
        """Filesystem-safe key for one (archive, trace, ensemble).

        Deliberately independent of the execution engine: engines emit
        identical alarms (enforced by the parity suite), so an entry
        written under one engine must hit under any other.
        """
        digest = hashlib.sha256(
            f"{archive_fingerprint}:{trace_name}:{ensemble_fingerprint}"
            .encode()
        ).hexdigest()[:24]
        return f"alarms-{digest}"

    def path_for(self, key: str) -> Path:
        return self.cache_dir / f"{key}{_SUFFIX}"

    def get(self, key: str) -> Optional[AlarmTable]:
        """Cached alarm table for ``key``, or ``None`` on a miss."""
        alarms = self._read(key)
        if alarms is None:
            self.misses += 1
        else:
            self.hits += 1
        return alarms

    def _read(self, key: str) -> Optional[AlarmTable]:
        path = self.path_for(key)
        try:
            # A private writable copy: the table's columns view it.
            payload = bytearray(path.read_bytes())
            layout = codec.read_layout(payload)
            if layout.kind != "alarms":
                raise CodecError(f"cache entry holds {layout.kind!r}")
            table = AlarmTable.from_named_arrays(
                codec.view(payload, layout), layout.pools
            )
        except FileNotFoundError:
            return None
        except (OSError, CodecError, KeyError, ValueError):
            # Torn/corrupt entry (e.g. from a killed worker): evict.
            path.unlink(missing_ok=True)
            return None
        # Touch on hit: prune() evicts by mtime, making this an LRU.
        try:
            os.utime(path)
        except OSError:  # pragma: no cover - entry raced away
            pass
        return table

    def put(
        self, key: str, alarms: Union[AlarmTable, Sequence[Alarm]]
    ) -> None:
        """Store an alarm set under ``key`` atomically (as a table)."""
        if not isinstance(alarms, AlarmTable):
            alarms = AlarmTable.from_alarms(list(alarms))
        write_atomic_bytes(
            self.path_for(key),
            codec.encode("alarms", alarms.named_arrays(), alarms.pools()),
        )

    def __len__(self) -> int:
        return sum(1 for _ in self.cache_dir.glob(f"alarms-*{_SUFFIX}"))

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in self.cache_dir.glob(f"alarms-*{_SUFFIX}"):
            path.unlink(missing_ok=True)
            removed += 1
        return removed

    # -- pruning --------------------------------------------------------

    def _entries(self) -> list[tuple[float, int, Path]]:
        """(mtime, bytes, path) per entry, least recently used first."""
        entries = []
        for path in self.cache_dir.glob(f"alarms-*{_SUFFIX}"):
            try:
                stat = path.stat()
            except FileNotFoundError:  # pragma: no cover - racing worker
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
        entries.sort()
        return entries

    def prune(
        self,
        max_bytes: Optional[int] = None,
        older_than: Optional[float] = None,
        now: Optional[float] = None,
    ) -> PruneStats:
        """Evict entries by recency.

        ``older_than`` drops entries not used (created/hit) within the
        last ``older_than`` seconds; ``max_bytes`` then evicts least
        recently used entries until the directory's entry bytes fit the
        budget.  Either may be ``None``; with both ``None`` this is a
        no-op inventory pass.
        """
        now = time.time() if now is None else now
        entries = self._entries()
        removed = 0
        freed = 0
        kept: list[tuple[float, int, Path]] = []
        for mtime, size, path in entries:
            if older_than is not None and mtime < now - older_than:
                path.unlink(missing_ok=True)
                removed += 1
                freed += size
            else:
                kept.append((mtime, size, path))
        if max_bytes is not None:
            total = sum(size for _, size, _ in kept)
            while kept and total > max_bytes:
                _, size, path = kept.pop(0)  # oldest mtime = LRU victim
                path.unlink(missing_ok=True)
                removed += 1
                freed += size
                total -= size
        return PruneStats(
            removed=removed,
            freed_bytes=freed,
            kept=len(kept),
            kept_bytes=sum(size for _, size, _ in kept),
        )
