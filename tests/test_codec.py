"""The column-bundle codec: one tested serializer for transport and storage.

Every columnar byte layout — shared-memory segments, warehouse segment
files, alarm-cache entries — is :mod:`repro.codec`, so its properties
are pinned once here:

* **round-trip** (hypothesis) — arbitrary named arrays (empty, 1-row,
  every packet- and alarm-table dtype) and reshaped feature planes
  come back byte-identical through a file opened as ``np.memmap`` and
  through a shared-memory segment;
* **validation** — a descriptor whose array overruns the data, is
  misaligned, or lacks a required key is a typed error: ``CodecError``
  from the codec, ``WarehouseError`` from a warehouse segment, and an
  evicted miss in the alarm cache;
* **format stability** — warehouse segments of a fixed store and
  alarm table hash to pinned SHA-256 values, so warehouses written by
  earlier releases still open and verify.
"""

from __future__ import annotations

import hashlib
import json
from multiprocessing import shared_memory

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import codec
from repro.core.alarm_table import (
    ALARM_COLUMN_DTYPES,
    FILTER_COLUMN_DTYPES,
    FLOW_COLUMN_DTYPES,
    AlarmTable,
)
from repro.detectors.base import Alarm
from repro.detectors.features import BinnedHistogram
from repro.detectors.planes import planes_from_named_arrays, planes_to_named_arrays
from repro.errors import CodecError, WarehouseError
from repro.labeling.heuristics import HeuristicLabel
from repro.labeling.mawilab import LabelRecord
from repro.labeling.store import LabelStore
from repro.labeling.warehouse import Segment, encode_label_segment
from repro.net.filters import FeatureFilter
from repro.net.flow import FlowKey
from repro.net.table import COLUMN_DTYPES
from repro.rules.itemsets import Rule
from repro.rules.summarize import CommunitySummary
from repro.runner.cache import AlarmCache

_DTYPES = sorted(
    {
        dtype.str
        for dtype in (
            *COLUMN_DTYPES.values(),
            *ALARM_COLUMN_DTYPES.values(),
            *FILTER_COLUMN_DTYPES.values(),
            *FLOW_COLUMN_DTYPES.values(),
            np.dtype(np.int64),  # ragged bounds
        )
    }
)

_lengths = st.sampled_from([0, 1]) | st.integers(0, 40)


@st.composite
def named_arrays(draw):
    names = draw(
        st.lists(
            st.text("abcdefgh_.", min_size=1, max_size=6),
            max_size=8,
            unique=True,
        )
    )
    return [
        (
            name,
            draw(
                hnp.arrays(
                    np.dtype(draw(st.sampled_from(_DTYPES))),
                    draw(_lengths),
                )
            ),
        )
        for name in names
    ]


@st.composite
def plane_items(draw):
    """``(spec, plane)`` pairs of every exportable plane shape."""
    items = []
    for i in range(draw(st.integers(0, 4))):
        rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 5))
        matrix = draw(hnp.arrays(np.float64, (rows, cols)))
        kind = draw(st.sampled_from(["nd", "tuple", "list", "hist"]))
        if kind == "nd":
            value = matrix
        elif kind == "tuple":
            value = (matrix, draw(st.integers(0, 9)), matrix[:, :1].ravel())
        elif kind == "list":
            value = [np.arange(draw(_lengths), dtype=np.int64), matrix]
        else:
            n_values = draw(st.integers(0, 5))
            value = BinnedHistogram(
                "src",
                np.arange(n_values, dtype=np.uint32),
                draw(hnp.arrays(np.int64, draw(_lengths))),
                np.zeros((rows, n_values), dtype=np.int64),
            )
        items.append((("plane", kind, i, 0.5), value))
    return items


def _through_file(tmp_path, payload) -> np.memmap:
    path = tmp_path / "bundle.seg"
    path.write_bytes(payload)
    return np.memmap(path, dtype=np.uint8, mode="r")


def _round_trips(tmp_path, kind, arrays, pools, meta):
    """Yield ``(layout, views)`` read back from a file and from shm."""
    payload = codec.encode(kind, arrays, pools, meta)
    raw = _through_file(tmp_path, payload)
    yield codec.read_layout(raw), codec.view(raw)
    layout = codec.describe(kind, arrays, pools, meta)
    segment = shared_memory.SharedMemory(create=True, size=layout.nbytes)
    try:
        codec.write(segment.buf, layout, arrays)
        views = codec.view(segment.buf, layout)
        yield codec.read_layout(segment.buf), views
        del views
    finally:
        segment.close()
        segment.unlink()


@given(arrays=named_arrays(), pool=st.lists(st.text(max_size=4), max_size=3))
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_named_arrays_round_trip_through_file_and_shm(tmp_path, arrays, pool):
    for layout, views in _round_trips(
        tmp_path, "test", arrays, {"pool": pool}, {"n": len(arrays)}
    ):
        assert layout.kind == "test"
        assert layout.pools == {"pool": tuple(pool)}
        assert layout.meta == {"n": len(arrays)}
        assert list(views) == [name for name, _ in arrays]
        for name, array in arrays:
            assert views[name].dtype == array.dtype
            assert views[name].tobytes() == array.tobytes()
        assert all(offset % codec.ALIGN == 0 for *_, offset in layout.arrays)


@given(items=plane_items())
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_reshaped_planes_round_trip_through_file_and_shm(tmp_path, items):
    arrays, meta = planes_to_named_arrays(items)
    for layout, views in _round_trips(tmp_path, "planes", arrays, {}, meta):
        planes = planes_from_named_arrays(views, layout.meta)
        assert list(planes) == [spec for spec, _ in items]
        for spec, value in items:
            got = planes[spec]
            assert type(got) is type(value)
            if isinstance(value, np.ndarray):
                got, value = [got], [value]
            elif isinstance(value, BinnedHistogram):
                assert got.feature == value.feature
                got = [got.values, got.codes, got.counts]
                value = [value.values, value.codes, value.counts]
            for g, v in zip(got, value):
                if isinstance(v, np.ndarray):
                    assert g.shape == v.shape and g.dtype == v.dtype
                    assert g.tobytes() == v.tobytes()
                    assert not g.flags.writeable
                else:
                    assert g == v


def test_describe_rejects_multidimensional_arrays():
    with pytest.raises(ValueError, match="one-dimensional"):
        codec.describe("t", [("m", np.zeros((2, 2)))])


# -- crafted descriptors ------------------------------------------------


def _reheader(payload, mutate) -> bytes:
    """``payload`` with its descriptor rewritten by ``mutate`` (data kept)."""
    layout = codec.read_layout(payload)
    header = json.loads(layout.header())
    mutate(header)
    text = json.dumps(header, sort_keys=True).encode()
    out = bytearray(codec.MAGIC)
    out += codec.FORMAT.to_bytes(4, "little") + len(text).to_bytes(8, "little")
    out += text
    out += bytes((-len(out)) % codec.ALIGN)
    return bytes(out + payload[layout.data_start : layout.nbytes])


def _four_rows(**meta) -> bytes:
    return bytes(
        codec.encode("alarms", [("a", np.arange(4, dtype=np.int64))], {}, meta)
    )


def _overrun(header):
    header["arrays"][0]["length"] = 1000


def _no_kind(header):
    del header["kind"]


def _misaligned(header):
    header["arrays"][0]["offset"] = 8


@pytest.mark.parametrize("mutate", [_overrun, _no_kind, _misaligned])
def test_crafted_descriptor_is_a_codec_error(mutate):
    with pytest.raises(CodecError):
        codec.read_layout(_reheader(_four_rows(), mutate))


@pytest.mark.parametrize("mutate", [_overrun, _no_kind])
def test_crafted_segment_header_is_a_warehouse_error(tmp_path, mutate):
    """A 4-row int64 column claiming 1000 rows used to open as an
    8-element view reading into the padding; a header without
    ``"kind"`` used to raise a bare ``KeyError``."""
    path = tmp_path / "2004-06-01.alarms.seg"
    path.write_bytes(_reheader(_four_rows(), mutate))
    with pytest.raises(WarehouseError):
        Segment(path)


@pytest.mark.parametrize("mutate", [_overrun, _no_kind])
def test_crafted_cache_entry_is_an_evicted_miss(tmp_path, mutate):
    cache = AlarmCache(tmp_path)
    key = AlarmCache.make_key("arch", "day", "ens")
    cache.put(key, [Alarm("pca", "pca/a", 0.0, 1.0, (FeatureFilter(src=1),))])
    path = cache.path_for(key)
    path.write_bytes(_reheader(path.read_bytes(), mutate))
    assert cache.get(key) is None
    assert not path.exists()
    assert cache.misses == 1


def test_cache_entry_of_another_kind_is_an_evicted_miss(tmp_path):
    cache = AlarmCache(tmp_path)
    key = AlarmCache.make_key("arch", "day", "ens")
    cache.path_for(key).write_bytes(
        bytes(codec.encode("labels", [("a", np.arange(3))]))
    )
    assert cache.get(key) is None
    assert not cache.path_for(key).exists()


# -- format stability ---------------------------------------------------


def _fixed_store() -> LabelStore:
    return LabelStore.from_records(
        [
            LabelRecord(
                community_id=0,
                taxonomy="anomalous",
                heuristic=HeuristicLabel(category="attack", detail="Sasser"),
                summary=CommunitySummary(
                    rules=[
                        Rule(
                            src=167772161,
                            sport=None,
                            dst=None,
                            dport=445,
                            support=0.75,
                            count=3,
                        )
                    ],
                    rule_degree=2.0,
                    rule_support=75.0,
                    n_transactions=4,
                ),
                t0=1.5,
                t1=9.25,
                n_alarms=3,
                detectors=("pca", "kl"),
                relative_distance=0.5,
                mu=0.8,
                annotations=("manual",),
            ),
            LabelRecord(
                community_id=1,
                taxonomy="notice",
                heuristic=HeuristicLabel(category="unknown", detail="Unknown"),
                summary=CommunitySummary(
                    rules=[], rule_degree=0.0, rule_support=0.0, n_transactions=0
                ),
                t0=3.0,
                t1=4.0,
                n_alarms=1,
                detectors=("hough",),
                relative_distance=None,
                mu=0.1,
                annotations=(),
            ),
        ]
    )


def _fixed_alarms() -> AlarmTable:
    return AlarmTable.from_alarms(
        [
            Alarm(
                "pca",
                "pca/optimal",
                0.0,
                15.0,
                (FeatureFilter(src=167772161, dport=445),),
                score=2.5,
                flow_keys=frozenset(
                    {
                        FlowKey(
                            src=167772161,
                            sport=1234,
                            dst=167772162,
                            dport=445,
                            proto=6,
                        )
                    }
                ),
            ),
            Alarm(
                "kl",
                "kl/sensitive",
                2.0,
                4.0,
                (FeatureFilter(dst=167772162), FeatureFilter(sport=80)),
                score=0.125,
            ),
            Alarm("hough", "hough/optimal", 5.0, 6.0, (FeatureFilter(proto=17),)),
        ]
    )


def test_warehouse_segment_bytes_are_pinned(tmp_path):
    """Segment files hash exactly as before the codec was shared."""
    from repro.labeling.warehouse import Warehouse

    warehouse = Warehouse(tmp_path)
    warehouse.ensure_version("fp")
    labels = warehouse.store_day(
        "2004-06-01", _fixed_store(), alarms=_fixed_alarms()
    )
    assert warehouse.current_version == "v0001"

    def sha(kind):
        return hashlib.sha256(
            (tmp_path / "v0001" / f"2004-06-01.{kind}.seg").read_bytes()
        ).hexdigest()

    assert labels.endswith("2004-06-01.labels.seg")
    assert sha("labels") == (
        "dff8dfb2a508d89bf0f0142e748cc08bf7b06d0680eae71a9bb0070a47cec988"
    )
    assert sha("alarms") == (
        "7d532128eb8cc8d3e2ed4ddaad19a056fb7f4541099c1566fcbecb337afef273"
    )
    meta = {"date": "2004-06-01", "version": "v0001"}
    assert sha("labels") == hashlib.sha256(
        encode_label_segment(_fixed_store(), meta)
    ).hexdigest()
    assert warehouse.verify() == {"version": "v0001", "days": 1, "segments": 2}
