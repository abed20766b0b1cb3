"""Zero-copy transport of columnar values over ``multiprocessing.shared_memory``.

The pickle transport serializes every array into the pool's task pipe
and deserializes it in the worker — two full copies plus pickle
framing, per task.  This module replaces that with named shared-memory
segments, each holding one column bundle (:mod:`repro.codec`, the same
layout as warehouse segments and alarm-cache entries).  Three values
travel this way, each flattened to named arrays by its own adapter:

* packet tables, parent → workers
  (:meth:`~repro.net.table.PacketTable.named_arrays`);
* Step 1 alarm tables, workers → parent
  (:meth:`~repro.core.alarm_table.AlarmTable.named_arrays`);
* feature planes, parent → workers
  (:func:`~repro.detectors.planes.planes_to_named_arrays`).

Lifecycle: the parent **exports** a value (:func:`export`, or
:meth:`SegmentArena.export` when successive exports can recycle one
segment) and a tiny picklable :class:`SegmentHandle` — segment name
plus the bundle's :class:`~repro.codec.Layout` — rides the task pipe
instead of the data.  The worker **attaches**
(:meth:`SegmentHandle.attach`, or the process-local
:class:`SegmentRegistry`, which *pins* the mapping so later tasks
naming the same segment skip the map): the handle's layout turns the
mapping into NumPy views directly — no copy, no header parse — and the
adapter rebuilds the value around them.  The owner **unlinks** the
segment after its consumers finish (:meth:`SegmentHandle.unlink` /
:meth:`SegmentArena.close`), returning the memory to the OS.

``docs/architecture-fanout.md`` walks the full
export → attach → pin → reuse → teardown lifecycle.
"""

from __future__ import annotations

import atexit
from collections import OrderedDict
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Optional

import numpy as np

from repro import codec
from repro.core.alarm_table import AlarmTable
from repro.net.table import PacketTable

#: Headroom an arena allocates over the export that (re)sizes it, so
#: ingest-sized jitter doesn't thrash segment names.
_SLACK = 1.25

#: Segment names *created* by this process (exports and arenas).  The
#: attach-side resource-tracker workaround below must skip these: when
#: owner and attacher are the same process (inline pools, tests),
#: unregistering on attach would strip the owner's own registration
#: and make the eventual unlink double-unregister.
_owned_names: set[str] = set()


def _unregister_attached(name: str) -> None:
    """Opt an attached (not owned) segment out of resource tracking.

    Before Python 3.13 (``track=False``), merely attaching registers
    the segment with the process's resource tracker, which then
    "cleans up" — unlinks — segments the parent still owns when the
    worker exits, and warns about leaks it never owned.  Attach-side
    unregistration is the documented workaround; it is skipped for
    segments this very process owns.
    """
    if name in _owned_names:
        return
    try:  # pragma: no cover - depends on interpreter internals
        from multiprocessing.resource_tracker import unregister

        unregister(f"/{name}", "shared_memory")
    except Exception:
        pass


def _register_owned(name: str) -> None:
    """Re-assert tracker registration just before an owner-side unlink.

    Fork-started workers share the parent's resource tracker, so a
    worker's attach-side :func:`_unregister_attached` may have removed
    the owner's registration; re-registering (a set add — idempotent)
    keeps the unlink's internal unregister balanced instead of tripping
    a tracker ``KeyError``.
    """
    try:  # pragma: no cover - depends on interpreter internals
        from multiprocessing.resource_tracker import register

        register(f"/{name}", "shared_memory")
    except Exception:
        pass


def _close_quietly(mapping: shared_memory.SharedMemory) -> None:
    try:
        mapping.close()
    except BufferError:  # pragma: no cover - views still alive
        pass


def _attach(name: str) -> shared_memory.SharedMemory:
    mapping = shared_memory.SharedMemory(name=name)
    _unregister_attached(name)
    return mapping


# -- adapters: value <-> named arrays ---------------------------------


def _flatten(value) -> tuple[str, list, dict, dict]:
    """``(kind, named arrays, pools, meta)`` of one exportable value.

    ``value`` is a :class:`PacketTable`, an :class:`AlarmTable`, or a
    sequence of ``(spec, plane)`` feature-plane pairs.
    """
    if isinstance(value, PacketTable):
        return "table", value.named_arrays(), {}, {}
    if isinstance(value, AlarmTable):
        return "alarms", value.named_arrays(), value.pools(), {}
    from repro.detectors.planes import planes_to_named_arrays

    arrays, meta = planes_to_named_arrays(value)
    return "planes", arrays, {}, meta


def _rebuild(layout: codec.Layout, arrays: dict):
    """The value a segment holds, around its (view or copied) arrays."""
    if layout.kind == "table":
        return PacketTable.from_named_arrays(arrays)
    if layout.kind == "alarms":
        return AlarmTable.from_named_arrays(arrays, layout.pools)
    from repro.detectors.planes import planes_from_named_arrays

    return planes_from_named_arrays(arrays, layout.meta)


# -- handles -----------------------------------------------------------


class AttachedSegment:
    """A value viewed over one mapped shared segment.

    Keeps the segment mapped while :attr:`value` (a
    :class:`PacketTable`, an :class:`AlarmTable` or a ``{spec: plane}``
    dict) is in use; call :meth:`close` (or use as a context manager)
    after dropping every reference to it and to arrays derived from it.
    """

    def __init__(self, shm: shared_memory.SharedMemory, value) -> None:
        self._shm: Optional[shared_memory.SharedMemory] = shm
        self.value = value

    def __enter__(self):
        assert self.value is not None
        return self.value

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Drop the value and unmap the segment (idempotent).

        A still-referenced view makes the unmap raise ``BufferError``;
        the mapping then simply lives until process exit, which is
        safe — only :meth:`SegmentHandle.unlink` frees the backing
        memory, and that stays the owner's job.
        """
        self.value = None
        if self._shm is not None:
            _close_quietly(self._shm)
            self._shm = None


@dataclass(frozen=True)
class SegmentHandle:
    """Picklable description of one exported segment.

    Carries the bundle's parsed :class:`~repro.codec.Layout`, so an
    attach builds views straight from it — small name pools (alarm
    detectors / configurations) and plane metadata travel here too.
    """

    name: str
    layout: codec.Layout

    def attach(self) -> AttachedSegment:
        """Map the segment and view its value zero-copy.

        One mapping per call; callers that attach the same segment many
        times (pool workers receiving successive shards against one
        pinned table) should go through :func:`segment_registry`
        instead, which maps once and rebuilds only the cheap views.
        """
        shm = _attach(self.name)
        return AttachedSegment(
            shm, _rebuild(self.layout, codec.view(shm.buf, self.layout))
        )

    def copy(self):
        """Attach, copy out a process-local value, and unmap.

        For consumers that outlive the segment (the parent collects a
        worker's results, then unlinks); one memcpy per array.
        """
        shm = _attach(self.name)
        try:
            views = codec.view(shm.buf, self.layout)
            arrays = {name: np.array(array) for name, array in views.items()}
            del views
            return _rebuild(self.layout, arrays)
        finally:
            _close_quietly(shm)

    def unlink(self) -> None:
        """Free the backing segment (owner-side, after consumers finish).

        Idempotent: a second unlink (or an unlink racing another
        owner's) is a silent no-op.  Attached mappings stay valid after
        the unlink — the memory is returned to the OS only once every
        mapping closes, so a pinned registry entry merely delays the
        release, never corrupts it.
        """
        _owned_names.discard(self.name)
        try:
            segment = shared_memory.SharedMemory(name=self.name)
        except FileNotFoundError:  # pragma: no cover - already unlinked
            return
        segment.unlink()
        segment.close()


def export(value) -> SegmentHandle:
    """Pack ``value`` into a fresh shared segment; return its handle.

    The caller owns the segment and must eventually call
    :meth:`SegmentHandle.unlink` — segments outlive the creating
    process otherwise.  Pool workers use this to hand their Step 1
    alarm tables back; callers exporting many values in sequence
    should prefer a :class:`SegmentArena`, which recycles one segment
    instead of paying the create/unlink round-trip per export.
    """
    kind, arrays, pools, meta = _flatten(value)
    layout = codec.describe(kind, arrays, pools, meta)
    shm = shared_memory.SharedMemory(create=True, size=layout.nbytes)
    _owned_names.add(shm.name)
    try:
        codec.write(shm.buf, layout, arrays)
    except BaseException:
        _owned_names.discard(shm.name)
        shm.close()
        shm.unlink()
        raise
    shm.close()
    return SegmentHandle(name=shm.name, layout=layout)


def transport_probe_shm(handle: SegmentHandle) -> int:
    """Pool worker for the transport microbench: attach + touch.

    Returns the table's total byte count, forcing a real read of the
    mapped columns; the work is deliberately trivial so the measured
    time is the transport, not the compute.
    """
    attached = handle.attach()
    try:
        return int(attached.value.size.sum())
    finally:
        attached.close()


def transport_probe_pickle(table: PacketTable) -> int:
    """Pickle-transport twin of :func:`transport_probe_shm`."""
    return int(table.size.sum())


# -- persistent attachment and segment reuse ---------------------------
#
# A per-shard export/attach/unlink cycle is correct but pays a fixed
# cost per segment (shm_open + mmap + resource-tracker traffic +
# unlink) that dwarfs the memcpy for small tables.  Two pieces remove
# the churn:
#
# * parent side, a SegmentArena recycles ONE named segment across
#   successive exports (growing only when a bigger value arrives), so
#   steady-state export cost is a pure memcpy;
# * worker side, a SegmentRegistry pins mappings by segment name, so a
#   worker receiving its second shard against the same (or a recycled)
#   segment skips the map entirely and only rebuilds the O(#arrays)
#   NumPy views from the handle's layout.
#
# Safety: the arena owner must not overwrite a segment while any task
# holding its previous handle is still running — the pooled run modes
# guarantee this by recycling an arena only after the shard's report
# arrived.  Registry eviction and process exit merely unmap; the
# backing memory is freed when the owner unlinks AND the last mapping
# closes, in either order.


class SegmentRegistry:
    """Process-local cache of attached segments, keyed by name.

    Pool workers use the module singleton (:func:`segment_registry`) to
    attach task segments: the first task naming a segment maps it, every
    later task reuses the pinned mapping and only rebuilds the cheap
    views (layouts travel with each handle, so one segment can back
    differently-sized values across its lifetime — the arena recycling
    contract).

    ``max_segments`` bounds worker memory: mappings are evicted LRU
    once the pin count exceeds it.  Eviction (and :meth:`clear`, which
    runs at interpreter exit) closes the mapping; if views built from
    it are still referenced the unmap is deferred to process exit —
    safe, because only the exporting side ever unlinks.
    """

    def __init__(self, max_segments: int = 8) -> None:
        self.max_segments = max_segments
        self._mappings: OrderedDict[str, shared_memory.SharedMemory] = (
            OrderedDict()
        )
        #: Mappings created / reused since construction (observability:
        #: a healthy persistent-worker run shows hits >> attaches).
        self.attaches = 0
        self.hits = 0

    def _mapping(self, name: str) -> shared_memory.SharedMemory:
        mapping = self._mappings.get(name)
        if mapping is not None:
            self.hits += 1
            self._mappings.move_to_end(name)
            return mapping
        mapping = _attach(name)
        self._mappings[name] = mapping
        self.attaches += 1
        while len(self._mappings) > self.max_segments:
            _evicted, old = self._mappings.popitem(last=False)
            _close_quietly(old)
        return mapping

    def view(self, handle: SegmentHandle):
        """The pinned zero-copy value (table, alarms, planes) of ``handle``."""
        buffer = self._mapping(handle.name).buf
        return _rebuild(handle.layout, codec.view(buffer, handle.layout))

    def names(self) -> tuple[str, ...]:
        """Currently pinned segment names, LRU-oldest first."""
        return tuple(self._mappings)

    def release(self, name: str) -> None:
        """Unpin one segment (idempotent)."""
        mapping = self._mappings.pop(name, None)
        if mapping is not None:
            _close_quietly(mapping)

    def clear(self) -> None:
        """Unpin every segment (idempotent; registered atexit)."""
        while self._mappings:
            _name, mapping = self._mappings.popitem(last=False)
            _close_quietly(mapping)


_registry: Optional[SegmentRegistry] = None


def segment_registry() -> SegmentRegistry:
    """The process-wide :class:`SegmentRegistry` (created lazily).

    In pool workers this is the pin store that survives across tasks;
    its :meth:`~SegmentRegistry.clear` is registered ``atexit`` so a
    cleanly exiting worker unmaps everything it pinned.
    """
    global _registry
    if _registry is None:
        _registry = SegmentRegistry()
        atexit.register(_registry.clear)
    return _registry


class SegmentArena:
    """A reusable shared segment for successive exports.

    ``export`` packs a value into the owned segment and returns a fresh
    :class:`SegmentHandle` naming it.  The segment is created on first
    use and *recycled* on every later export that fits; a bigger value
    reallocates (with 25% headroom, so ingest-sized jitter doesn't
    thrash) under a new name and unlinks the old segment.  Stable names
    are what make worker-side pinning pay: after warm-up, an export is
    one memcpy in the parent and zero map/unmap work in the workers.

    The caller owns the recycle discipline: never export over a
    segment while a task holding its previous handle may still read it
    (the session recycles an arena only after the shard's report
    arrives).  :meth:`close` unlinks the segment; the arena is
    reusable afterwards (a later export allocates fresh).
    """

    def __init__(self) -> None:
        self._shm: Optional[shared_memory.SharedMemory] = None
        #: Segments allocated over the arena's lifetime (observability:
        #: steady state is 1).
        self.allocations = 0

    def export(self, value) -> SegmentHandle:
        """Pack ``value`` into the (recycled or grown) segment."""
        kind, arrays, pools, meta = _flatten(value)
        layout = codec.describe(kind, arrays, pools, meta)
        if self._shm is None or self._shm.size < layout.nbytes:
            self.close()
            self._shm = shared_memory.SharedMemory(
                create=True, size=int(layout.nbytes * _SLACK)
            )
            _owned_names.add(self._shm.name)
            self.allocations += 1
        codec.write(self._shm.buf, layout, arrays)
        return SegmentHandle(name=self._shm.name, layout=layout)

    @property
    def name(self) -> Optional[str]:
        """Current segment name (``None`` before first export)."""
        return self._shm.name if self._shm is not None else None

    def close(self) -> None:
        """Unlink and unmap the current segment (idempotent)."""
        if self._shm is None:
            return
        shm, self._shm = self._shm, None
        _owned_names.discard(shm.name)
        _register_owned(shm.name)
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass
        _close_quietly(shm)

    def __enter__(self) -> "SegmentArena":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
