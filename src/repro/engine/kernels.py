"""The built-in kernel table: one implementation per (engine, op).

Registered lazily on first :meth:`~repro.engine.core.Engine.kernel`
call.  Production implementations live next to the code they serve
(:mod:`repro.core.graph`, :mod:`repro.core.extractor`,
:mod:`repro.detectors.sketch`, ...) and are imported here; the pure
reference twins that exist *only* as correctness oracles (per-packet
flow coding, Counter feature binning, scalar sketch hashing) are
defined inline.  ``tests/test_engine_parity.py`` drives every pair
through one table-driven hypothesis suite.

Kernel signatures
-----------------
``filter_mask(table, feature_filter, t0=None, t1=None)``
    Boolean per-row mask of packets the filter designates; ``t0``/``t1``
    override wildcard time bounds (the alarm window).
``flow_codes(table, granularity)``
    ``(codes, keys)``: dense int64 per-packet flow ids numbered by
    first appearance, plus the code -> FlowKey table.
``binned_histogram(table, feature, bin_idx, n_bins)``
    :class:`~repro.detectors.features.BinnedHistogram` of one feature
    column per time bin.
``sketch_buckets(hasher, keys)``
    int64 bucket per key under a
    :class:`~repro.detectors.sketch.SketchHasher`.
``dominant_keys(keys, mask, hasher, sketch, top, min_fraction)``
    Most frequent keys hashing to ``sketch`` among masked packets.
``similarity_graph(traffic_sets, measure_fn, batch_fn, edge_threshold)``
    The alarm similarity graph (Step 2).
``community_label(extractor, community)``
    Table-1 heuristic label of one community's traffic.
``column_values(trace, field, dtype=None)``
    One packet field as an array (the detectors' feature columns).
``traffic_extractor(trace, granularity, engine)``
    Factory for the per-engine traffic-extraction strategy object.
``alarm_codes(names)``
    ``(codes, pool)``: dense int32 codes for a sequence of detector /
    configuration names, numbered by first appearance — the coding
    :meth:`repro.core.alarm_table.AlarmTable.from_alarms` stores.
``label_assign(accepted, relative_distance, mu, suspicious_distance)``
    int8 taxonomy codes (0 = anomalous, 1 = suspicious, 2 = notice)
    for index-aligned decision columns; ``NaN`` relative distance
    means "no metric, approximate from mu" exactly like
    :func:`repro.labeling.taxonomy.assign_taxonomy`.
``feature_plane(trace, spec, planes)``
    One derived feature plane of a trace (column, time-bin index,
    binned histogram, sketch buckets, per-family statistics...), keyed
    by its parameter ``spec`` tuple and memoized in the
    :class:`~repro.detectors.planes.PlaneCache` passed as ``planes``
    (sub-planes are fetched through it).  The vectorized kernel reads
    the columnar table; the reference kernel scans packet objects for
    the engine-split plane kinds.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.engine.core import NUMPY_ENGINE, PYTHON_ENGINE

# -- filter-mask -------------------------------------------------------


@NUMPY_ENGINE.register("filter_mask")
def _filter_mask_numpy(table, feature_filter, t0=None, t1=None):
    return feature_filter.mask(table, t0=t0, t1=t1)


@PYTHON_ENGINE.register("filter_mask")
def _filter_mask_python(table, feature_filter, t0=None, t1=None):
    """Per-packet ``matches`` loop, with the same window override."""
    import dataclasses

    if t0 is not None and feature_filter.t0 is None:
        feature_filter = dataclasses.replace(feature_filter, t0=t0)
    if t1 is not None and feature_filter.t1 is None:
        feature_filter = dataclasses.replace(feature_filter, t1=t1)
    return np.fromiter(
        (
            feature_filter.matches(table.packet(i))
            for i in range(len(table))
        ),
        dtype=bool,
        count=len(table),
    )


# -- flow coding -------------------------------------------------------


@NUMPY_ENGINE.register("flow_codes")
def _flow_codes_numpy(table, granularity):
    from repro.net.table import flow_codes

    return flow_codes(table, granularity)


@PYTHON_ENGINE.register("flow_codes")
def _flow_codes_python(table, granularity):
    """Dict-based first-appearance numbering over packet objects."""
    from repro.net.flow import Granularity, key_for

    if granularity is Granularity.PACKET:
        raise ValueError("packets have no flow key; use packet indices instead")
    code_of: dict = {}
    keys = []
    codes = np.empty(len(table), dtype=np.int64)
    for i in range(len(table)):
        key = key_for(table.packet(i), granularity)
        code = code_of.get(key)
        if code is None:
            code = code_of[key] = len(keys)
            keys.append(key)
        codes[i] = code
    return codes, keys


# -- feature binning ---------------------------------------------------


@NUMPY_ENGINE.register("binned_histogram")
def _binned_histogram_numpy(table, feature, bin_idx, n_bins):
    from repro.detectors.features import binned_value_histogram

    return binned_value_histogram(table, feature, bin_idx, n_bins)


@PYTHON_ENGINE.register("binned_histogram")
def _binned_histogram_python(table, feature, bin_idx, n_bins):
    """Counter-per-bin reference assembling the same dense struct."""
    from repro.detectors.features import BinnedHistogram

    column = [getattr(table.packet(i), feature) for i in range(len(table))]
    values = sorted(set(column))
    code_of = {value: c for c, value in enumerate(values)}
    codes = np.array([code_of[v] for v in column], dtype=np.int64)
    counts = np.zeros((n_bins, len(values)), dtype=np.int64)
    for b in range(n_bins):
        histogram = Counter(
            value for value, in_bin in zip(column, bin_idx == b) if in_bin
        )
        for value, count in histogram.items():
            counts[b, code_of[value]] = count
    return BinnedHistogram(
        feature=feature,
        values=np.array(values, dtype=table.column(feature).dtype),
        codes=codes,
        counts=counts,
    )


# -- sketch hashing ----------------------------------------------------


@NUMPY_ENGINE.register("sketch_buckets")
def _sketch_buckets_numpy(hasher, keys):
    return hasher.buckets(keys)


@PYTHON_ENGINE.register("sketch_buckets")
def _sketch_buckets_python(hasher, keys):
    """Scalar ``bucket`` loop (the uint64-limb arithmetic oracle)."""
    return np.array(
        [hasher.bucket(int(key)) for key in np.asarray(keys)], dtype=np.int64
    )


def _register_sketch_kernels() -> None:
    from repro.detectors.sketch import (
        _dominant_keys_numpy,
        _dominant_keys_python,
    )

    NUMPY_ENGINE.register("dominant_keys", _dominant_keys_numpy)
    PYTHON_ENGINE.register("dominant_keys", _dominant_keys_python)


# -- feature planes ----------------------------------------------------


def _register_plane_kernels() -> None:
    from repro.detectors.planes import (
        _feature_plane_numpy,
        _feature_plane_python,
    )

    NUMPY_ENGINE.register("feature_plane", _feature_plane_numpy)
    PYTHON_ENGINE.register("feature_plane", _feature_plane_python)


# -- similarity graph --------------------------------------------------


def _register_graph_kernels() -> None:
    from repro.core.graph import (
        _build_similarity_graph_numpy,
        _build_similarity_graph_python,
    )

    NUMPY_ENGINE.register("similarity_graph", _build_similarity_graph_numpy)
    PYTHON_ENGINE.register("similarity_graph", _build_similarity_graph_python)


# -- community heuristics ----------------------------------------------


@NUMPY_ENGINE.register("community_label")
def _community_label_numpy(extractor, community):
    from repro.labeling.heuristics import label_packets_table

    indices = extractor.packet_index_array(community.traffic)
    return label_packets_table(extractor.trace.table, indices)


@PYTHON_ENGINE.register("community_label")
def _community_label_python(extractor, community):
    from repro.labeling.heuristics import label_packets

    indices = extractor.packets_of(community.traffic)
    return label_packets([extractor.trace[i] for i in indices])


# -- feature columns ---------------------------------------------------


@NUMPY_ENGINE.register("column_values")
def _column_values_numpy(trace, field, dtype=None):
    column = trace.table.column(field)
    return column.astype(dtype) if dtype is not None else column


@PYTHON_ENGINE.register("column_values")
def _column_values_python(trace, field, dtype=None):
    return np.array(
        [getattr(packet, field) for packet in trace],
        dtype=dtype if dtype is not None else np.float64,
    )


# -- alarm coding ------------------------------------------------------


@NUMPY_ENGINE.register("alarm_codes")
def _alarm_codes_numpy(names):
    """First-appearance dense coding via ``np.unique`` + renumbering."""
    names = np.asarray(list(names), dtype=object)
    if names.size == 0:
        return np.empty(0, dtype=np.int32), ()
    _uniq, first_index, inverse = np.unique(
        names, return_index=True, return_inverse=True
    )
    appearance = np.argsort(first_index, kind="stable")
    rank = np.empty(len(first_index), dtype=np.int32)
    rank[appearance] = np.arange(len(first_index), dtype=np.int32)
    codes = rank[inverse].astype(np.int32)
    pool = tuple(names[i] for i in first_index[appearance])
    return codes, pool


@PYTHON_ENGINE.register("alarm_codes")
def _alarm_codes_python(names):
    """Dict-based first-appearance numbering (the readable reference)."""
    code_of: dict = {}
    pool: list = []
    names = list(names)
    codes = np.empty(len(names), dtype=np.int32)
    for i, name in enumerate(names):
        code = code_of.get(name)
        if code is None:
            code = code_of[name] = len(pool)
            pool.append(name)
        codes[i] = code
    return codes, tuple(pool)


# -- taxonomy assignment -----------------------------------------------


@NUMPY_ENGINE.register("label_assign")
def _label_assign_numpy(accepted, relative_distance, mu, suspicious_distance=0.5):
    """Vectorized Section-5 taxonomy over decision columns."""
    from repro.errors import LabelingError

    accepted = np.asarray(accepted, dtype=bool)
    distance = np.asarray(relative_distance, dtype=np.float64).copy()
    mu = np.asarray(mu, dtype=np.float64)
    codes = np.zeros(len(accepted), dtype=np.int8)  # anomalous
    rejected = ~accepted
    approximate = rejected & np.isnan(distance)
    if bool((mu[approximate] > 0.5).any()):
        raise LabelingError("rejected decision with mu above threshold")
    # Approximate the distance from mu exactly like the scalar
    # reference: mu <= 0 -> inf, else 0.5 / mu - 1.
    positive = approximate & (mu > 0)
    distance[positive] = 0.5 / mu[positive] - 1.0
    distance[approximate & ~positive] = np.inf
    codes[rejected & (distance <= suspicious_distance)] = 1  # suspicious
    codes[rejected & (distance > suspicious_distance)] = 2  # notice
    return codes


@PYTHON_ENGINE.register("label_assign")
def _label_assign_python(accepted, relative_distance, mu, suspicious_distance=0.5):
    """Per-decision :func:`assign_taxonomy` loop (the oracle)."""
    from repro.core.strategies import Decision
    from repro.labeling.taxonomy import TAXONOMY_ORDER, assign_taxonomy

    code_of = {name: code for code, name in enumerate(TAXONOMY_ORDER)}
    accepted = np.asarray(accepted, dtype=bool)
    relative_distance = np.asarray(relative_distance, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    codes = np.empty(len(accepted), dtype=np.int8)
    for i in range(len(accepted)):
        distance = float(relative_distance[i])
        decision = Decision(
            community_id=i,
            accepted=bool(accepted[i]),
            mu=float(mu[i]),
            relative_distance=None if np.isnan(distance) else distance,
        )
        codes[i] = code_of[
            assign_taxonomy(decision, suspicious_distance=suspicious_distance)
        ]
    return codes


# -- warehouse predicate pushdown --------------------------------------
#
# Both kernels take the same plain-array view of one stored day: the
# per-record ``taxonomy_code`` / ``t0`` / ``t1`` columns plus the flat
# per-rule columns (``rule_record`` maps each rule row back to its
# record; ``-1`` in a rule field is the wildcard ``None``).  They
# return the matching record indices in row order — segments are
# scanned in place, no record objects exist until the caller renders
# the selected rows.


@NUMPY_ENGINE.register("warehouse_select")
def _warehouse_select_numpy(
    columns,
    taxonomy_code=None,
    src=None,
    dst=None,
    sport=None,
    dport=None,
    t0=None,
    t1=None,
):
    """Vectorized predicate pushdown over mapped label columns.

    Only the given predicates cost an array pass, which keeps small
    serving-path queries cheap.
    """
    n = len(columns["taxonomy_code"])
    masks = []
    if taxonomy_code is not None:
        masks.append(
            np.asarray(columns["taxonomy_code"]) == int(taxonomy_code)
        )
    if t0 is not None:
        masks.append(np.asarray(columns["t1"]) >= float(t0))
    if t1 is not None:
        masks.append(np.asarray(columns["t0"]) <= float(t1))
    rule_record = np.asarray(columns["rule_record"])
    for value, key in (
        (src, "rule_src"),
        (dst, "rule_dst"),
        (sport, "rule_sport"),
        (dport, "rule_dport"),
    ):
        if value is None:
            continue
        rule_mask = np.zeros(n, dtype=bool)
        rule_mask[rule_record[np.asarray(columns[key]) == int(value)]] = True
        masks.append(rule_mask)
    if not masks:
        return np.arange(n, dtype=np.int64)
    mask = masks[0]
    for other in masks[1:]:
        mask &= other
    return np.nonzero(mask)[0]


@PYTHON_ENGINE.register("warehouse_select")
def _warehouse_select_python(
    columns,
    taxonomy_code=None,
    src=None,
    dst=None,
    sport=None,
    dport=None,
    t0=None,
    t1=None,
):
    """Per-row reference scan (the oracle for the mmap fast path)."""
    n = len(columns["taxonomy_code"])
    rule_record = columns["rule_record"]
    matched = None
    for value, key in (
        (src, "rule_src"),
        (dst, "rule_dst"),
        (sport, "rule_sport"),
        (dport, "rule_dport"),
    ):
        if value is None:
            continue
        column = columns[key]
        rows = {
            int(rule_record[j])
            for j in range(len(column))
            if int(column[j]) == int(value)
        }
        matched = rows if matched is None else matched & rows
    out = []
    for i in range(n):
        if (
            taxonomy_code is not None
            and int(columns["taxonomy_code"][i]) != int(taxonomy_code)
        ):
            continue
        if t0 is not None and float(columns["t1"][i]) < float(t0):
            continue
        if t1 is not None and float(columns["t0"][i]) > float(t1):
            continue
        if matched is not None and i not in matched:
            continue
        out.append(i)
    return np.asarray(out, dtype=np.int64)


# -- traffic extraction ------------------------------------------------


def _register_extractor_kernels() -> None:
    from repro.core.extractor import (
        ColumnarTrafficExtraction,
        ReferenceTrafficExtraction,
    )

    NUMPY_ENGINE.register("traffic_extractor", ColumnarTrafficExtraction)
    PYTHON_ENGINE.register("traffic_extractor", ReferenceTrafficExtraction)


_register_sketch_kernels()
_register_graph_kernels()
_register_extractor_kernels()
_register_plane_kernels()
