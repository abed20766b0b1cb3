"""Trace-scoped feature-plane cache shared across the ensemble.

Every detector configuration derives the same handful of per-trace
feature arrays — header columns, sketch bucket assignments, per-time-bin
value histograms, and the per-family statistics built on top of them
(PCA residual matrices, Gamma deviation vectors, Hough lit pixels, KL
divergence series).  The paper's ensemble deliberately runs many
configurations of the same four detectors, so without sharing each
*plane* is recomputed once per configuration even though its value
depends only on the trace and a small parameter key.

A :class:`PlaneCache` memoizes those planes keyed by their true
parameters (a "spec" tuple such as ``("sketch_buckets", "src", 16, 11)``)
so N configurations sharing a plane compute it once.  Computation is
dispatched through the engine's ``"feature_plane"`` kernel — the
vectorized kernel reads the columnar table, the reference kernel scans
packet objects — so cached and uncached analysis stay byte-identical
per engine.

Plane specs
-----------
``("column", field, dtype_name)``
    Feature column as an array (``dtype_name`` like ``"uint64"`` or
    ``None`` for the engine default).
``("time_bins", n_bins)``
    Per-packet time-bin index (the KL/entropy ``np.minimum`` binning).
``("bin_members", n_bins)``
    Per-bin packet index lists (arrays on the vectorized engine, lists
    on the reference engine).
``("binned_histogram", field, n_bins)``
    Dense :class:`~repro.detectors.features.BinnedHistogram`.
``("binned_counters", field, n_bins)``
    Per-bin ``Counter`` histograms in packet order (reference engine's
    KL/entropy representation; insertion order is load-bearing for
    ``most_common`` tie-breaking).
``("kl_divergence", field, n_bins, smoothing)``
    Per-bin symmetrized-KL series.  Consumers that overwrite entries
    (the streaming baseline rewrite of bin 0) must ``.copy()`` first.
``("entropy_series", field, n_bins)``
    Per-bin Shannon entropies.
``("sketch_buckets", field, n_sketches, seed)``
    Per-packet sketch bucket of the field hashed with the shared
    :func:`~repro.detectors.sketch.shared_hasher`.
``("pca_residual", field, n_sketches, seed, n_bins, n_components)``
    Residual-subspace projection of the sketch/time count matrix.
``("gamma_deviations", field, n_sketches, seed, base_window, n_scales)``
    Per-sketch robust deviation of the multi-scale Gamma features.
``("hough_x", x_bins)``
    Per-packet x (time) pixel coordinate.
``("hough_pixels", field, x_bins, y_bins, pixel_threshold, seed)``
    ``(ys, xs)`` coordinates of lit pixels of one traffic picture.
``("flow_codes", granularity_name)``
    ``(codes, flow_keys)`` from :meth:`Trace.flow_code_table` (already
    trace-cached; the plane spec makes the dependency explicit and
    countable).

Sharing model
-------------
A ``PlaneCache`` is valid for exactly **one** trace: specs do not
include the trace, so reusing a cache across traces returns wrong
planes.  :func:`plane_cache_for` attaches one cache per (trace, engine)
to the trace itself (via a weak-key side table, so pickling a trace
never ships cached planes), which is how independent callers —
``MAWILabPipeline.detect``, fan-out workers looping a config group,
streaming windows — share planes with zero plumbing.  Memory is bounded
by the number of distinct specs the ensemble requests (a few dozen
arrays, mostly O(n_packets)); caches die with their trace.
"""

from __future__ import annotations

import weakref
from collections import Counter
from typing import Iterable

import numpy as np

from repro.engine import EngineSpec, resolve_engine
from repro.errors import DetectorError

_MISSING = object()

#: Plane kinds never exported over shared memory: either trivially
#: recomputable from the already-shared packet table ("column"), or
#: non-numeric ("flow_codes" carries FlowKey objects, "binned_counters"
#: carries Counters).
EXPORT_SKIP_KINDS = frozenset({"column", "flow_codes", "binned_counters"})


def plane_nbytes(value) -> int:
    """Approximate in-memory size of one cached plane, in bytes."""
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, (tuple, list)):
        return sum(plane_nbytes(v) for v in value)
    if isinstance(value, Counter):
        return 16 * len(value)
    nbytes = getattr(value, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    counts = getattr(value, "counts", None)
    if counts is not None:  # BinnedHistogram
        return plane_nbytes(counts) + plane_nbytes(value.values) + plane_nbytes(value.codes)
    return 0


class PlaneCache:
    """Memoized feature planes of one trace, shared across configs.

    Parameters
    ----------
    engine:
        Engine whose ``"feature_plane"`` kernel computes missing
        planes; cached and uncached analysis on the same engine emit
        identical values.
    enabled:
        ``False`` turns the cache into a pass-through that recomputes
        every request — the uncached baseline of the bench detect leg
        and the parity tests.
    """

    def __init__(self, engine: EngineSpec = "auto", enabled: bool = True) -> None:
        self.engine = resolve_engine(engine, what="feature planes")
        self.enabled = enabled
        self._planes: dict[tuple, object] = {}
        self.hits = 0
        self.misses = 0
        self.nbytes = 0

    def __len__(self) -> int:
        return len(self._planes)

    def get(self, trace, spec: tuple):
        """The plane ``spec`` of ``trace``, computing it on first use."""
        if self.enabled:
            value = self._planes.get(spec, _MISSING)
            if value is not _MISSING:
                self.hits += 1
                return value
        self.misses += 1
        value = self.engine.kernel("feature_plane")(trace, spec, self)
        if self.enabled:
            self._planes[spec] = value
            self.nbytes += plane_nbytes(value)
        return value

    def seed(self, spec: tuple, value) -> None:
        """Pre-populate one plane (shm import, streaming delta update)."""
        if spec not in self._planes:
            self.nbytes += plane_nbytes(value)
        self._planes[spec] = value

    def counters(self) -> dict:
        """Hit/miss/size counters for profiling artifacts."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "planes": len(self._planes),
            "nbytes": self.nbytes,
        }

    def exportable_items(self) -> list[tuple[tuple, object]]:
        """Cached ``(spec, value)`` pairs shippable over shared memory.

        Numeric arrays (and flat tuples/lists of arrays, and
        ``BinnedHistogram``) qualify; object-carrying planes and plain
        columns (already shipped as the packet table) do not.
        """
        items = []
        for spec, value in self._planes.items():
            if spec[0] in EXPORT_SKIP_KINDS:
                continue
            if _exportable_value(value):
                items.append((spec, value))
        return items


def _exportable_value(value) -> bool:
    if isinstance(value, np.ndarray):
        return value.dtype != object
    if isinstance(value, (tuple, list)):
        return all(
            (isinstance(v, np.ndarray) and v.dtype != object)
            or isinstance(v, (int, float, np.integer, np.floating))
            for v in value
        )
    # BinnedHistogram duck-type: three numeric arrays + a feature name.
    return (
        getattr(value, "counts", None) is not None
        and getattr(value, "values", None) is not None
        and getattr(value, "codes", None) is not None
    )


def planes_to_named_arrays(items) -> tuple[list[tuple[str, np.ndarray]], dict]:
    """Flatten exportable ``(spec, plane)`` pairs for :mod:`repro.codec`.

    Every plane array is stored 1-D as ``"<plane>.<member>"``; the
    returned plane metadata (JSON-native) records each spec, its
    container kind (``nd`` / ``tuple`` / ``list`` / ``hist``) and per
    member either the array's shape or the scalar value.
    """
    arrays: list[tuple[str, np.ndarray]] = []
    planes = []
    for i, (spec, value) in enumerate(items):
        if isinstance(value, np.ndarray):
            kind, members = "nd", [value]
        elif isinstance(value, (tuple, list)):
            kind = "tuple" if isinstance(value, tuple) else "list"
            members = list(value)
        else:  # BinnedHistogram duck-type
            kind = "hist"
            members = [value.feature, value.values, value.codes, value.counts]
        parts = []
        for j, member in enumerate(members):
            if isinstance(member, np.ndarray):
                arrays.append((f"{i}.{j}", member.reshape(-1)))
                parts.append(["array", list(member.shape)])
            else:
                if isinstance(member, np.generic):
                    member = member.item()
                parts.append(["scalar", member])
        planes.append([list(spec), kind, parts])
    return arrays, {"planes": planes}


def planes_from_named_arrays(arrays, meta) -> dict:
    """``{spec: plane}`` rebuilt from :func:`planes_to_named_arrays`.

    Array members are reshaped views, marked read-only: fan-out
    workers share one physical copy, so an accidental in-place write
    must raise rather than corrupt a sibling's input (consumers that
    rewrite entries — the streaming KL baseline — ``.copy()`` first).
    """
    from repro.detectors.features import BinnedHistogram

    planes: dict = {}
    for i, (spec, kind, parts) in enumerate(meta["planes"]):
        members = []
        for j, (tag, value) in enumerate(parts):
            if tag == "scalar":
                members.append(value)
                continue
            member = arrays[f"{i}.{j}"].reshape(value)
            member.flags.writeable = False
            members.append(member)
        if kind == "nd":
            plane = members[0]
        elif kind == "tuple":
            plane = tuple(members)
        elif kind == "list":
            plane = members
        else:
            plane = BinnedHistogram(*members)
        planes[tuple(spec)] = plane
    return planes


# One cache per (trace, engine name), attached weakly so a pickled
# trace never ships its planes and caches die with their trace.
_TRACE_CACHES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def plane_cache_for(trace, engine: EngineSpec = "auto") -> PlaneCache:
    """The trace-attached :class:`PlaneCache` for ``engine``.

    All callers resolving the same (trace object, engine) share one
    cache — this is the default sharing path for the batch pipeline,
    in-worker config groups, and streaming windows.
    """
    engine = resolve_engine(engine, what="feature planes")
    caches = _TRACE_CACHES.get(trace)
    if caches is None:
        caches = _TRACE_CACHES.setdefault(trace, {})
    cache = caches.get(engine.name)
    if cache is None:
        cache = caches[engine.name] = PlaneCache(engine)
    return cache


def merge_plane_specs(detectors: Iterable) -> list[tuple]:
    """Ordered union of ``plane_specs()`` across an ensemble."""
    seen: dict[tuple, None] = {}
    for detector in detectors:
        for spec in detector.plane_specs():
            seen.setdefault(spec, None)
    return list(seen)


# ---------------------------------------------------------------------
# feature_plane kernels
# ---------------------------------------------------------------------


def _feature_plane_numpy(trace, spec: tuple, planes: PlaneCache):
    """Vectorized kernel: planes read the trace's columnar table."""
    return _compute_plane(trace, spec, planes, vectorized=True)


def _feature_plane_python(trace, spec: tuple, planes: PlaneCache):
    """Reference kernel: engine-split planes scan packet objects."""
    return _compute_plane(trace, spec, planes, vectorized=False)


def _compute_plane(trace, spec: tuple, planes: PlaneCache, vectorized: bool):
    kind = spec[0]
    if kind == "column":
        _, field, dtype_name = spec
        dtype = np.dtype(dtype_name) if dtype_name else None
        return planes.engine.kernel("column_values")(trace, field, dtype)
    if kind == "time_bins":
        return _time_bins(trace, spec[1], vectorized)
    if kind == "bin_members":
        return _bin_members(trace, spec[1], planes, vectorized)
    if kind == "binned_histogram":
        _, field, n_bins = spec
        bin_idx = planes.get(trace, ("time_bins", n_bins))
        return planes.engine.kernel("binned_histogram")(
            trace.table, field, np.asarray(bin_idx), n_bins
        )
    if kind == "binned_counters":
        _, field, n_bins = spec
        members = planes.get(trace, ("bin_members", n_bins))
        return [
            Counter(getattr(trace[int(i)], field) for i in members[b])
            for b in range(n_bins)
        ]
    if kind == "kl_divergence":
        return _kl_divergence(trace, spec, planes, vectorized)
    if kind == "entropy_series":
        return _entropy_series_plane(trace, spec, planes, vectorized)
    if kind == "sketch_buckets":
        _, field, n_sketches, seed = spec
        from repro.detectors.sketch import shared_hasher

        keys = planes.get(trace, ("column", field, "uint64"))
        return shared_hasher(n_sketches, seed).buckets(keys)
    if kind == "pca_residual":
        return _pca_residual(trace, spec, planes)
    if kind == "gamma_deviations":
        return _gamma_deviations(trace, spec, planes)
    if kind == "hough_x":
        _, x_bins = spec
        times = planes.get(trace, ("column", "time", None))
        t_start, t_end = trace.start_time, trace.end_time
        span = max(t_end - t_start, 1e-9)
        return np.clip(
            ((times - t_start) / span * x_bins).astype(int), 0, x_bins - 1
        )
    if kind == "hough_pixels":
        _, field, x_bins, y_bins, pixel_threshold, seed = spec
        x = planes.get(trace, ("hough_x", x_bins))
        y = planes.get(trace, ("sketch_buckets", field, y_bins, seed))
        image = np.zeros((y_bins, x_bins), dtype=int)
        np.add.at(image, (y, x), 1)
        ys, xs = np.nonzero(image >= pixel_threshold)
        return (ys, xs)
    if kind == "flow_codes":
        from repro.net.flow import Granularity

        return trace.flow_code_table(Granularity[spec[1]])
    raise DetectorError(f"unknown feature plane kind: {spec!r}")


def _time_bins(trace, n_bins: int, vectorized: bool) -> np.ndarray:
    t_start, t_end = trace.start_time, trace.end_time
    span = max(t_end - t_start, 1e-9)
    if vectorized:
        return np.minimum(
            ((trace.table.time - t_start) / span * n_bins).astype(np.int64),
            n_bins - 1,
        )
    return np.array(
        [
            min(int((pkt.time - t_start) / span * n_bins), n_bins - 1)
            for pkt in trace
        ],
        dtype=np.int64,
    )


def _bin_members(trace, n_bins: int, planes: PlaneCache, vectorized: bool):
    bin_idx = planes.get(trace, ("time_bins", n_bins))
    if vectorized:
        return [np.nonzero(bin_idx == b)[0] for b in range(n_bins)]
    bins: list[list[int]] = [[] for _ in range(n_bins)]
    for i, b in enumerate(bin_idx):
        bins[int(b)].append(i)
    return bins


def _kl_divergence(trace, spec: tuple, planes: PlaneCache, vectorized: bool):
    _, field, n_bins, smoothing = spec
    if vectorized:
        from repro.detectors.kl import _divergence_series

        histogram = planes.get(trace, ("binned_histogram", field, n_bins))
        return _divergence_series(histogram.counts, smoothing)
    from repro.detectors.kl import _symmetric_kl

    hists = planes.get(trace, ("binned_counters", field, n_bins))
    series = np.zeros(n_bins)
    for b in range(1, n_bins):
        series[b] = _symmetric_kl(hists[b - 1], hists[b], smoothing)
    return series


def _entropy_series_plane(
    trace, spec: tuple, planes: PlaneCache, vectorized: bool
):
    _, field, n_bins = spec
    if vectorized:
        from repro.detectors.entropy import _entropy_series

        histogram = planes.get(trace, ("binned_histogram", field, n_bins))
        return _entropy_series(histogram.counts)
    from repro.detectors.entropy import shannon_entropy

    hists = planes.get(trace, ("binned_counters", field, n_bins))
    return np.array([shannon_entropy(h) for h in hists])


def _pca_residual(trace, spec: tuple, planes: PlaneCache) -> np.ndarray:
    _, field, n_sketches, seed, n_bins, n_components = spec
    from repro.detectors.pca import PCADetector
    from repro.detectors.sketch import shared_hasher, sketch_time_matrix

    times = planes.get(trace, ("column", "time", None))
    keys = planes.get(trace, ("column", field, "uint64"))
    buckets = planes.get(trace, ("sketch_buckets", field, n_sketches, seed))
    matrix = sketch_time_matrix(
        times,
        keys,
        shared_hasher(n_sketches, seed),
        trace.start_time,
        trace.end_time,
        n_bins,
        buckets=buckets,
    )
    return PCADetector._residual_matrix(matrix, n_components)


def _gamma_deviations(trace, spec: tuple, planes: PlaneCache) -> np.ndarray:
    _, field, n_sketches, seed, base_window, n_scales = spec
    from repro.detectors.gamma import GammaDetector

    times = planes.get(trace, ("column", "time", None))
    buckets = planes.get(trace, ("sketch_buckets", field, n_sketches, seed))
    t_start, t_end = trace.start_time, trace.end_time
    n_windows = max(int(np.ceil((t_end - t_start) / base_window)), 2)
    window_idx = np.clip(
        ((times - t_start) / base_window).astype(int), 0, n_windows - 1
    )
    counts = np.zeros((n_windows, n_sketches), dtype=float)
    np.add.at(counts, (window_idx, buckets), 1.0)
    features = GammaDetector._gamma_features(counts, n_scales)
    return GammaDetector._deviations(features)


__all__ = [
    "EXPORT_SKIP_KINDS",
    "PlaneCache",
    "merge_plane_specs",
    "plane_cache_for",
    "plane_nbytes",
]
