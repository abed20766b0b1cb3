"""Shared-memory transport: zero-copy round-trips across processes.

The byte layout itself is the column-bundle codec, whose round-trip
property is pinned once for every value kind in ``test_codec.py``.
Here: any :class:`PacketTable` — including empty and single-packet
tables — exported to a shared-memory segment and attached *in a
subprocess* equals the original, column for column; any
:class:`AlarmTable` (the worker-result transport) round-trips the same
way; and the handle lifecycle (unlink, pickling, zero-copy views)
holds.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.alarm_table import AlarmTable
from repro.net.packet import PROTO_ICMP, PROTO_TCP, PROTO_UDP, Packet
from repro.net.table import COLUMNS, PacketTable
from repro.codec import ALIGN
from repro.runner.shm import export


def _packet(time, src, dst, sport, dport, proto, size, flags):
    if proto == PROTO_ICMP:
        sport = dport = 0
    return Packet(
        time=time,
        src=src,
        dst=dst,
        sport=sport,
        dport=dport,
        proto=proto,
        size=size,
        tcp_flags=flags if proto == PROTO_TCP else 0,
        icmp_type=8 if proto == PROTO_ICMP else 0,
    )


packets = st.builds(
    _packet,
    time=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    src=st.integers(0, 2**32 - 1),
    dst=st.integers(0, 2**32 - 1),
    sport=st.integers(0, 2**16 - 1),
    dport=st.integers(0, 2**16 - 1),
    proto=st.sampled_from([PROTO_TCP, PROTO_UDP, PROTO_ICMP]),
    size=st.integers(1, 2**31),
    flags=st.integers(0, 255),
)

packet_lists = st.lists(packets, min_size=0, max_size=30)

_single = [
    Packet(
        time=1.5,
        src=1,
        dst=2,
        sport=3,
        dport=4,
        proto=PROTO_TCP,
        size=40,
        tcp_flags=2,
        icmp_type=0,
    )
]


def _columns_equal(a: PacketTable, b: PacketTable) -> bool:
    return len(a) == len(b) and all(
        np.array_equal(getattr(a, c), getattr(b, c)) for c in COLUMNS
    )


def _attach_columns(handle) -> dict:
    """Pool worker: attach the segment and read every column out."""
    attached = handle.attach()
    try:
        table = attached.value
        return {c: getattr(table, c).tolist() for c in COLUMNS}
    finally:
        attached.close()


@pytest.fixture(scope="module")
def pool():
    with ProcessPoolExecutor(max_workers=1) as executor:
        yield executor


@given(packet_lists)
@example([])
@example(_single)
@settings(
    max_examples=15,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
def test_export_attach_in_subprocess_round_trips(pool, packet_list):
    table = PacketTable.from_packets(packet_list)
    handle = export(table)
    try:
        # In-process attach is already zero-copy...
        attached = handle.attach()
        try:
            assert _columns_equal(attached.value, table)
        finally:
            attached.close()
        # ...and a *different process* reads the same bytes back.
        remote = pool.submit(_attach_columns, handle).result(timeout=60)
        for column in COLUMNS:
            assert remote[column] == getattr(table, column).tolist(), column
    finally:
        handle.unlink()


def test_unlink_is_idempotent_and_frees_the_name():
    from multiprocessing import shared_memory

    handle = export(PacketTable.from_packets(_single))
    handle.unlink()
    handle.unlink()  # second unlink is a silent no-op
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=handle.name)


def test_segment_layout_is_eight_byte_aligned():
    """Every exported column starts on a bundle block boundary (64
    bytes, so also 8-byte aligned) at any row count."""
    assert ALIGN % 8 == 0
    for n_rows in (0, 1, 3, 7, 1000):
        handle = export(PacketTable.from_packets(_single * n_rows))
        try:
            layout = handle.layout
            assert layout.data_start % ALIGN == 0
            assert all(offset % ALIGN == 0 for *_, offset in layout.arrays)
            assert [name for name, *_ in layout.arrays] == list(COLUMNS)
        finally:
            handle.unlink()


def test_attach_is_zero_copy():
    """Attached columns are views over the mapped segment, not copies."""
    table = PacketTable.from_packets(_single * 5)
    handle = export(table)
    try:
        attached = handle.attach()
        try:
            for column in COLUMNS:
                assert not getattr(attached.value, column).flags.owndata
        finally:
            attached.close()
    finally:
        handle.unlink()


def _attach_alarms(handle) -> list:
    """Pool worker: attach an alarm segment, materialize every view."""
    attached = handle.attach()
    try:
        return attached.value.to_alarms()
    finally:
        attached.close()


from test_alarm_table import alarm_lists  # noqa: E402


@given(alarm_lists)
@example([])
@settings(
    max_examples=10,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
def test_alarm_table_round_trips_through_shm_subprocess(pool, alarm_list):
    """The worker-result transport: export an alarm table, attach in a
    different process, get the identical alarms back."""
    table = AlarmTable.from_alarms(alarm_list)
    handle = export(table)
    try:
        # In-process: attach views and the copy-out helper agree.
        attached = handle.attach()
        try:
            assert attached.value == table
        finally:
            attached.close()
        assert handle.copy().to_alarms() == alarm_list
        # Cross-process: a pool worker materializes equal alarms.
        remote = pool.submit(_attach_alarms, handle).result(timeout=60)
        assert remote == alarm_list
    finally:
        handle.unlink()


def test_alarm_handle_unlink_is_idempotent():
    from repro.detectors.base import Alarm
    from repro.net.filters import FeatureFilter

    table = AlarmTable.from_alarms(
        [Alarm("pca", "pca/a", 0.0, 1.0, (FeatureFilter(src=1),))]
    )
    handle = export(table)
    handle.unlink()
    handle.unlink()  # second unlink is a silent no-op
    from multiprocessing import shared_memory

    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=handle.name)


def test_handle_is_small_and_picklable():
    import pickle

    table = PacketTable.from_packets(_single * 1000)
    handle = export(table)
    try:
        payload = pickle.dumps(handle)
        # The point of the transport: the task pipe carries a name and
        # the column layout, not megabytes of packet arrays.
        assert len(payload) < 512
        clone = pickle.loads(payload)
        attached = clone.attach()
        try:
            assert _columns_equal(attached.value, table)
        finally:
            attached.close()
    finally:
        handle.unlink()
