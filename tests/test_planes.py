"""The shared feature-plane cache: sharing, parity, transport, streaming.

Four angles on :mod:`repro.detectors.planes`:

* **cache mechanics** — hit/miss/seed/export accounting, and the
  module-level :func:`~repro.detectors.sketch.shared_hasher` memo that
  lets two configurations share one sketch hasher;
* **cached == uncached** (hypothesis) — ``analyze_table`` with one
  cache shared across an ensemble of overlapping configurations is
  identical to fully uncached analysis, on both engines;
* **shared-memory transport** — planes exported by
  :func:`~repro.runner.shm.export` / recycled through a
  :class:`~repro.runner.shm.SegmentArena` attach element-identical and
  read-only;
* **streaming planes** (hypothesis) — incrementally maintained
  dictionaries seed window planes element-identical to the
  from-scratch kernels after arbitrary append/window sequences.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.detectors.gamma import GammaDetector
from repro.detectors.hough import HoughDetector
from repro.detectors.kl import KLDetector
from repro.detectors.pca import PCADetector
from repro.detectors.planes import (
    PlaneCache,
    merge_plane_specs,
    plane_cache_for,
)
from repro.detectors.sketch import shared_hasher
from repro.engine import get_engine
from repro.net.packet import PROTO_ICMP, PROTO_TCP, PROTO_UDP, Packet
from repro.net.trace import Trace
from repro.runner.shm import SegmentArena, export, segment_registry
from repro.stream.planes import StreamingPlanes

# -- strategies (the parity suite's small alphabets) -------------------


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
    time=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    src=st.integers(0, 5),
    dst=st.integers(0, 5),
    sport=st.integers(0, 3),
    dport=st.integers(0, 3),
    proto=st.sampled_from([PROTO_TCP, PROTO_UDP, PROTO_ICMP]),
    size=st.integers(40, 1500),
    flags=st.integers(0, 63),
)

packet_lists = st.lists(packets, min_size=1, max_size=40)
traces = packet_lists.map(Trace)


def _overlapping_ensemble(engine):
    """Configurations that deliberately share plane keys.

    Two tunings per family with identical structural parameters
    (thresholds differ), so every derived plane — residual matrices,
    deviation vectors, lit pixels, divergence series — is requested by
    at least two configurations.
    """
    return [
        PCADetector(tuning="optimal", engine=engine),
        PCADetector(tuning="sensitive", threshold=2.0, engine=engine),
        GammaDetector(tuning="optimal", engine=engine),
        GammaDetector(tuning="sensitive", threshold=2.5, engine=engine),
        HoughDetector(tuning="optimal", engine=engine),
        KLDetector(tuning="optimal", engine=engine),
        KLDetector(tuning="sensitive", threshold=2.0, engine=engine),
    ]


# -- shared hasher (module-level memo) ---------------------------------


def test_shared_hasher_is_memoized():
    assert shared_hasher(16, 11) is shared_hasher(16, 11)
    assert shared_hasher(16, 11) is not shared_hasher(16, 12)
    assert shared_hasher(8, 11) is not shared_hasher(16, 11)


def test_two_configs_share_one_hasher():
    """Sibling configurations resolve the *same* hasher instance."""
    optimal = PCADetector(tuning="optimal")
    sensitive = PCADetector(tuning="sensitive", threshold=2.0)
    n = optimal.params["n_sketches"]
    seed = optimal.params["hash_seed"]
    assert optimal._hasher(n, seed) is sensitive._hasher(n, seed)


# -- cache mechanics ---------------------------------------------------


def test_cache_counts_hits_and_misses():
    trace = Trace([_packet(float(i), i % 3, 1, 1, 2, PROTO_TCP, 100, 16) for i in range(10)])
    cache = PlaneCache("numpy")
    spec = ("time_bins", 4)
    first = cache.get(trace, spec)
    second = cache.get(trace, spec)
    assert first is second
    assert cache.hits == 1 and cache.misses == 1
    assert len(cache) == 1 and cache.nbytes > 0
    assert cache.counters()["planes"] == 1


def test_disabled_cache_recomputes():
    trace = Trace([_packet(float(i), 1, 2, 1, 2, PROTO_UDP, 100, 0) for i in range(6)])
    cache = PlaneCache("numpy", enabled=False)
    spec = ("time_bins", 3)
    a = cache.get(trace, spec)
    b = cache.get(trace, spec)
    assert a is not b
    np.testing.assert_array_equal(a, b)
    assert cache.hits == 0 and cache.misses == 2 and len(cache) == 0


def test_exportable_items_skip_object_planes():
    trace = Trace([_packet(float(i), i % 2, 3, 1, 2, PROTO_TCP, 80, 16) for i in range(8)])
    cache = PlaneCache("numpy")
    cache.get(trace, ("column", "src", "uint64"))
    cache.get(trace, ("flow_codes", "UNIFLOW"))
    cache.get(trace, ("time_bins", 4))
    cache.get(trace, ("binned_histogram", "src", 4))
    kinds = {spec[0] for spec, _value in cache.exportable_items()}
    assert kinds == {"time_bins", "binned_histogram"}


def test_plane_cache_for_is_per_trace_and_engine():
    trace = Trace([_packet(0.0, 1, 2, 1, 2, PROTO_TCP, 80, 16)])
    other = Trace([_packet(0.0, 1, 2, 1, 2, PROTO_TCP, 80, 16)])
    cache = plane_cache_for(trace, "numpy")
    assert plane_cache_for(trace, "numpy") is cache
    assert plane_cache_for(trace, "python") is not cache
    assert plane_cache_for(other, "numpy") is not cache


# -- cached == uncached (both engines) ---------------------------------


@pytest.mark.parametrize("engine_name", ["numpy", "python"])
@given(trace=traces)
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_cached_analysis_identical_to_uncached(engine_name, trace):
    engine = get_engine(engine_name)
    ensemble = _overlapping_ensemble(engine)
    shared = PlaneCache(engine)
    for detector in ensemble:
        uncached = detector.analyze_table(
            trace, planes=PlaneCache(engine, enabled=False)
        )
        cached = detector.analyze_table(trace, planes=shared)
        assert cached.to_alarms() == uncached.to_alarms()
    # The sharing actually happened: fewer misses than total requests.
    assert shared.hits > 0 or shared.misses == 0


# -- shared-memory transport -------------------------------------------


def _assert_planes_equal(got, expected):
    if isinstance(expected, np.ndarray):
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)
    elif isinstance(expected, (tuple, list)):
        assert type(got) is type(expected) and len(got) == len(expected)
        for g, e in zip(got, expected):
            _assert_planes_equal(g, e)
    elif hasattr(expected, "counts"):  # BinnedHistogram
        assert got.feature == expected.feature
        _assert_planes_equal(got.values, expected.values)
        _assert_planes_equal(got.codes, expected.codes)
        _assert_planes_equal(got.counts, expected.counts)
    else:
        assert got == expected


def _computed_cache(trace) -> PlaneCache:
    cache = PlaneCache("numpy")
    ensemble = _overlapping_ensemble(get_engine("numpy"))
    for spec in merge_plane_specs(ensemble):
        cache.get(trace, spec)
    return cache


def test_plane_export_attach_roundtrip(tiny_trace):
    items = _computed_cache(tiny_trace).exportable_items()
    assert items
    handle = export(items)
    try:
        with handle.attach() as planes:
            assert set(planes) == {spec for spec, _ in items}
            for spec, value in items:
                _assert_planes_equal(planes[spec], value)
    finally:
        handle.unlink()


def test_attached_planes_are_read_only(tiny_trace):
    items = _computed_cache(tiny_trace).exportable_items()
    handle = export(items)
    try:
        with handle.attach() as planes:
            array = next(
                v for v in planes.values() if isinstance(v, np.ndarray)
            )
            with pytest.raises(ValueError):
                array[0] = 0
    finally:
        handle.unlink()


def test_plane_arena_recycles_one_segment(tiny_trace):
    items = _computed_cache(tiny_trace).exportable_items()
    with SegmentArena() as arena:
        first = arena.export(items)
        name = first.name
        registry = segment_registry()
        planes = registry.view(first)
        for spec, value in items:
            _assert_planes_equal(planes[spec], value)
        # A same-size re-export recycles the segment in place.
        second = arena.export(items)
        assert second.name == name
        assert arena.allocations == 1
        registry.release(name)


def test_plane_arena_grows_for_bigger_exports(tiny_trace):
    small = _computed_cache(tiny_trace).exportable_items()
    big_trace = Trace(
        [
            _packet(float(i) / 7, i % 6, (i * 3) % 6, i % 4, 2, PROTO_TCP, 100, 16)
            for i in range(400)
        ]
    )
    big = _computed_cache(big_trace).exportable_items()
    with SegmentArena() as arena:
        arena.export(small)
        arena.export(big)
        assert arena.allocations == 2


# -- streaming incremental planes --------------------------------------


@given(data=st.data())
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_streaming_planes_match_from_scratch(data):
    """Seeded window planes == from-scratch kernels, any append order.

    Chunks are appended in arbitrary order, then an arbitrary subset
    of the ingested packets forms a window (modelling any sequence of
    evictions): the incrementally seeded histograms and bucket
    assignments must be element- and dtype-identical to what the
    vectorized ``feature_plane`` kernel computes from scratch.
    """
    engine = get_engine("numpy")
    ensemble = _overlapping_ensemble(engine)
    streaming = StreamingPlanes(ensemble)
    specs = [
        spec
        for spec in merge_plane_specs(ensemble)
        if spec[0] in ("binned_histogram", "sketch_buckets")
    ]

    ingested: list[Packet] = []
    for _ in range(data.draw(st.integers(1, 4))):
        chunk = data.draw(packet_lists)
        streaming.append(Trace(chunk).table)
        ingested.extend(chunk)

    keep = data.draw(
        st.lists(
            st.integers(0, len(ingested) - 1),
            min_size=1,
            max_size=len(ingested),
            unique=True,
        )
    )
    window = Trace([ingested[i] for i in keep])

    seeded = PlaneCache(engine)
    streaming.seed_window(window, seeded)
    scratch = PlaneCache(engine)
    for spec in specs:
        _assert_planes_equal(
            seeded.get(window, spec), scratch.get(window, spec)
        )
    # Every tracked base plane was seeded, not recomputed.
    assert all(seeded.get(window, spec) is not None for spec in specs)
    counters = streaming.counters()
    assert counters["windows_seeded"] == 1
    assert counters["novel_values"] > 0
    assert streaming.nbytes() > 0


def test_streaming_evict_is_noop():
    ensemble = [KLDetector(engine="numpy")]
    streaming = StreamingPlanes(ensemble)
    table = Trace(
        [_packet(float(i), i % 3, 1, 1, 2, PROTO_UDP, 90, 0) for i in range(9)]
    ).table
    streaming.append(table)
    before = streaming.nbytes()
    streaming.evict_before(5.0)
    assert streaming.nbytes() == before
