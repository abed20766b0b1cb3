"""The memory-mapped columnar label warehouse.

MAWILab's artifact is a *longitudinal* database: years of labeled days
queried across time.  This module is its only durable store: it
keeps each day as versioned, checksummed **columnar segments** — the
raw arrays of :class:`~repro.labeling.store.LabelStore` and
:class:`~repro.core.alarm_table.AlarmTable`, including the ragged
detector/annotation/rule blocks and the string name pools — that open
zero-copy via ``np.memmap``.

Layout
------
::

    <root>/
      manifest.json                  # versions, per-file bytes + sha256
      v0001/
        2004-06-01.labels.seg
        2004-06-01.alarms.seg
        ...
      v0002/                         # a recompute under a new config
        ...

Each segment file is one column bundle (:mod:`repro.codec` — the same
layout the shared-memory transport and the alarm cache use): ``MWLW``
magic, a little-endian format/u64 header length, a JSON descriptor
(array names, dtypes, lengths, relative offsets, string pools,
metadata), then 64-byte-aligned column blocks.  Every descriptor is
validated on open, so a header whose arrays overrun the file's data is
a :class:`~repro.errors.WarehouseError`, never a silent read into the
padding.  Segments are published atomically
(:func:`repro.ioutil.write_atomic_bytes`) and the manifest through
:func:`repro.ioutil.write_atomic`, so readers never observe a torn
file; the manifest records every segment's byte size and SHA-256, so a
truncated file is rejected on open (size check) and silent corruption
by :meth:`Warehouse.verify` (hash check).

mmap lifecycle: :meth:`Warehouse.open_labels` caches one read-only
``np.memmap`` per ``(version, date, kind)``; column views slice it
without copying, and :class:`LabelStore` / :class:`AlarmTable`
constructors accept those views as-is (``np.asarray`` is a no-op for
matching dtypes).  :meth:`Warehouse.close` drops the handles; the maps
are read-only, so dropping them is always safe.

Queries (:meth:`Warehouse.query`) push predicates — taxonomy, time
overlap, rule src/dst/sport/dport — down onto the mapped columns via
the paired ``"warehouse_select"`` engine kernels and only render the
matching rows (:func:`select_rows`).  The in-memory
:class:`~repro.labeling.database.LiveLabelIndex` of open days keeps the
same columns (:func:`label_columns`) and answers through the same
loop.  Per-day CSV files are an export format
(:meth:`Warehouse.export_csv`), byte-identical to ``repro label``.

Delta recompute (:meth:`Warehouse.recompute`): the warehouse
fingerprint digests (archive, ensemble, configuration).  A heuristics-
or combiner-only change keeps the ensemble fingerprint, so Step 1
alarms are reused from the :class:`~repro.runner.cache.AlarmCache` or
the previous version's alarm segments and only Steps 2–4 rerun; the
new labels land in a fresh version directory and the old version stays
readable, with a per-day diff (added / removed / taxonomy-changed
communities) reported.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from repro import codec
from repro.core.alarm_table import AlarmTable
from repro.engine import EngineSpec, resolve_engine
from repro.errors import CodecError, LabelingError, TraceError, WarehouseError
from repro.ioutil import write_atomic, write_atomic_bytes
from repro.labeling.mawilab import LabelRecord, PipelineResult, labels_to_csv
from repro.labeling.store import (
    LABEL_BOUND_COLUMNS,
    LABEL_COLUMNS,
    LabelStore,
    taxonomy_counts,
)
from repro.labeling.taxonomy import TAXONOMY_ORDER
from repro.net.addresses import ip_to_int, ip_to_str

_MANIFEST_NAME = "manifest.json"


def check_day_key(date: str) -> None:
    """Reject a day key that is not a plain file-name component.

    The key names the day's segment files, so separators or a leading
    dot (``../x``, ``.x``) would escape or hide in the version
    directory.
    """
    if not date or date.startswith(".") or os.path.basename(date) != date:
        raise WarehouseError(f"bad day key {date!r}")


def warehouse_fingerprint(
    archive_fingerprint: str,
    ensemble_fingerprint: str,
    config_repr: str,
) -> str:
    """Digest of everything a warehouse version depends on.

    The same material (and format) as the archive scheduler's default
    version string, so scheduler-ingested warehouses and
    :meth:`Warehouse.recompute` agree on when outputs are current.
    """
    material = ":".join(
        (archive_fingerprint, ensemble_fingerprint, config_repr)
    )
    return "v" + hashlib.sha256(material.encode()).hexdigest()[:12]


def archive_meta(archive) -> dict:
    """Manifest-storable description of an archive.

    Records the fingerprint plus, for synthetic archives, the
    ``seed`` / ``trace_duration`` needed to regenerate day traces at
    recompute time.
    """
    meta = {"fingerprint": archive.fingerprint()}
    for attr in ("seed", "trace_duration"):
        if hasattr(archive, attr):
            meta[attr] = getattr(archive, attr)
    return meta


# -- segment files ------------------------------------------------------


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class Segment:
    """One opened segment file: mapped column views + pools + meta."""

    __slots__ = ("path", "kind", "arrays", "pools", "meta")

    def __init__(self, path: Union[str, Path], kind: Optional[str] = None):
        self.path = Path(path)
        try:
            raw = np.memmap(self.path, dtype=np.uint8, mode="r")
            layout = codec.read_layout(raw)
        except CodecError as exc:
            raise WarehouseError(f"{exc}: {self.path}") from exc
        except (OSError, ValueError) as exc:
            raise WarehouseError(
                f"unreadable segment {self.path}: {exc}"
            ) from exc
        if kind is not None and layout.kind != kind:
            raise WarehouseError(
                f"segment {self.path} holds {layout.kind!r}, wanted {kind!r}"
            )
        self.kind = layout.kind
        self.pools = layout.pools
        self.meta = layout.meta
        self.arrays = codec.view(raw, layout)


def _encode_rule_field(rules, attr: str) -> np.ndarray:
    return np.fromiter(
        (
            -1 if getattr(rule, attr) is None else int(getattr(rule, attr))
            for rule in rules
        ),
        np.int64,
        count=len(rules),
    )


def label_columns(
    store: LabelStore,
) -> tuple[dict[str, np.ndarray], dict[str, tuple[str, ...]]]:
    """One day's labels as named columns plus string pools.

    The label segment layout: the store's numeric columns and ragged
    bounds, the per-record summary metrics, and flat per-rule columns
    (``-1`` = wildcard) whose ``r_record`` maps each rule to its
    record.  The warehouse spills these columns to disk, the live
    index keeps them in memory, and both answer queries from them
    through :func:`select_rows`.
    """
    n = len(store)
    rule_bounds = np.zeros(n + 1, dtype=np.int64)
    rules = []
    for i, summary in enumerate(store.summaries):
        day_rules = list(getattr(summary, "rules", ()) or ())
        rule_bounds[i + 1] = rule_bounds[i] + len(day_rules)
        rules.extend(day_rules)
    m = len(rules)
    arrays = {
        name: getattr(store, name)
        for name in LABEL_COLUMNS + LABEL_BOUND_COLUMNS
    }
    arrays.update(
        s_rule_degree=np.fromiter(
            (s.rule_degree for s in store.summaries), np.float64, count=n
        ),
        s_rule_support=np.fromiter(
            (s.rule_support for s in store.summaries), np.float64, count=n
        ),
        s_n_transactions=np.fromiter(
            (s.n_transactions for s in store.summaries), np.int64, count=n
        ),
        rule_bounds=rule_bounds,
        r_record=np.repeat(
            np.arange(n, dtype=np.int64), rule_bounds[1:] - rule_bounds[:-1]
        ),
        r_src=_encode_rule_field(rules, "src"),
        r_sport=_encode_rule_field(rules, "sport"),
        r_dst=_encode_rule_field(rules, "dst"),
        r_dport=_encode_rule_field(rules, "dport"),
        r_support=np.fromiter((r.support for r in rules), np.float64, count=m),
        r_count=np.fromiter((r.count for r in rules), np.int64, count=m),
    )
    pools = {
        "categories": store.categories,
        "details": store.details,
        "detector_names": store.detector_names,
        "annotation_tags": store.annotation_tags,
    }
    return arrays, pools


def encode_label_segment(store: LabelStore, meta: dict) -> bytearray:
    """Spill a :class:`LabelStore` (summaries included) into bytes."""
    arrays, pools = label_columns(store)
    return codec.encode("labels", list(arrays.items()), pools, meta)


def label_store_from_segment(segment: Segment) -> LabelStore:
    """Rebuild a full-fidelity :class:`LabelStore` from mapped columns.

    Numeric columns pass through zero-copy; only the per-record
    ``CommunitySummary`` objects (rules included) are materialized,
    because they are Python objects by definition.
    """
    from repro.rules.itemsets import Rule
    from repro.rules.summarize import CommunitySummary

    arrays = segment.arrays
    n = len(arrays["community_id"])
    rule_bounds = arrays["rule_bounds"]

    def opt(column: str, j: int) -> Optional[int]:
        value = int(arrays[column][j])
        return None if value < 0 else value

    summaries = []
    for i in range(n):
        lo, hi = int(rule_bounds[i]), int(rule_bounds[i + 1])
        summaries.append(
            CommunitySummary(
                rules=[
                    Rule(
                        src=opt("r_src", j),
                        sport=opt("r_sport", j),
                        dst=opt("r_dst", j),
                        dport=opt("r_dport", j),
                        support=float(arrays["r_support"][j]),
                        count=int(arrays["r_count"][j]),
                    )
                    for j in range(lo, hi)
                ],
                rule_degree=float(arrays["s_rule_degree"][i]),
                rule_support=float(arrays["s_rule_support"][i]),
                n_transactions=int(arrays["s_n_transactions"][i]),
            )
        )
    return LabelStore(
        **{name: arrays[name] for name in LABEL_COLUMNS},
        detector_bounds=arrays["detector_bounds"],
        annotation_bounds=arrays["annotation_bounds"],
        categories=segment.pools["categories"],
        details=segment.pools["details"],
        detector_names=segment.pools["detector_names"],
        annotation_tags=segment.pools["annotation_tags"],
        summaries=summaries,
    )


# -- recompute reporting ------------------------------------------------


@dataclass
class DayDiff:
    """Label-set delta of one day between two warehouse versions."""

    date: str
    added: list[int] = field(default_factory=list)
    removed: list[int] = field(default_factory=list)
    taxonomy_changed: list[dict] = field(default_factory=list)
    n_before: int = 0
    n_after: int = 0

    def to_payload(self) -> dict:
        return {
            "date": self.date,
            "added": self.added,
            "removed": self.removed,
            "taxonomy_changed": self.taxonomy_changed,
            "n_before": self.n_before,
            "n_after": self.n_after,
        }


@dataclass
class RecomputeReport:
    """What one :meth:`Warehouse.recompute` pass did."""

    old_version: Optional[str]
    new_version: Optional[str]
    fingerprint: str
    changed: bool
    ensemble_changed: bool = False
    days: list[DayDiff] = field(default_factory=list)
    cache_hits: int = 0
    segment_hits: int = 0
    step1_reruns: int = 0
    elapsed: float = 0.0

    def to_payload(self) -> dict:
        return {
            "old_version": self.old_version,
            "new_version": self.new_version,
            "fingerprint": self.fingerprint,
            "changed": self.changed,
            "ensemble_changed": self.ensemble_changed,
            "cache_hits": self.cache_hits,
            "segment_hits": self.segment_hits,
            "step1_reruns": self.step1_reruns,
            "elapsed": round(self.elapsed, 6),
            "days": [day.to_payload() for day in self.days],
        }


# -- the warehouse ------------------------------------------------------


class Warehouse:
    """Versioned columnar day store rooted at ``root``."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._segments: dict[tuple[str, str, str], Segment] = {}
        manifest_path = self.root / _MANIFEST_NAME
        if manifest_path.exists():
            try:
                self._manifest = json.loads(manifest_path.read_text())
            except (OSError, ValueError) as exc:
                raise WarehouseError(
                    f"corrupt warehouse manifest {manifest_path}: {exc}"
                ) from exc
        else:
            self._manifest = {
                "format": codec.FORMAT,
                "current": None,
                "versions": {},
            }
        # config -> date -> newest version holding it (latest_days),
        # built once here and kept current by store_day.
        self._latest: dict[Optional[str], dict[str, str]] = {}
        for version in self.versions():
            entry = self._manifest["versions"][version]
            self._latest.setdefault(entry.get("config"), {}).update(
                dict.fromkeys(entry["days"], version)
            )

    # -- manifest ------------------------------------------------------

    def _save_manifest(self) -> None:
        write_atomic(
            self.root / _MANIFEST_NAME,
            json.dumps(self._manifest, indent=2, sort_keys=True) + "\n",
        )

    @property
    def current_version(self) -> Optional[str]:
        return self._manifest["current"]

    def versions(self) -> list[str]:
        return sorted(self._manifest["versions"])

    def _version_entry(self, version: Optional[str]) -> tuple[str, dict]:
        version = version or self.current_version
        if version is None:
            raise WarehouseError(f"warehouse {self.root} has no versions")
        try:
            return version, self._manifest["versions"][version]
        except KeyError:
            raise WarehouseError(
                f"unknown warehouse version {version!r}; "
                f"known: {self.versions()}"
            ) from None

    def ensure_version(
        self,
        fingerprint: str,
        *,
        ensemble_fingerprint: Optional[str] = None,
        config: Optional[str] = None,
        archive: Optional[dict] = None,
        activate: bool = True,
    ) -> str:
        """The version id for ``fingerprint``, creating it if new.

        An existing version with the same fingerprint is reused (and
        re-activated when ``activate``); otherwise the next ``vNNNN``
        directory is allocated and recorded in the manifest.
        """
        for version_id, entry in self._manifest["versions"].items():
            if entry["fingerprint"] == fingerprint:
                if activate and self._manifest["current"] != version_id:
                    self._manifest["current"] = version_id
                    self._save_manifest()
                return version_id
        version_id = f"v{len(self._manifest['versions']) + 1:04d}"
        (self.root / version_id).mkdir(parents=True, exist_ok=True)
        self._manifest["versions"][version_id] = {
            "fingerprint": fingerprint,
            "ensemble_fingerprint": ensemble_fingerprint,
            "config": config,
            "archive": archive,
            "days": {},
        }
        if activate or self._manifest["current"] is None:
            self._manifest["current"] = version_id
        self._save_manifest()
        return version_id

    def set_current(self, version: str) -> None:
        version, _ = self._version_entry(version)
        if self._manifest["current"] != version:
            self._manifest["current"] = version
            self._save_manifest()

    # -- writing -------------------------------------------------------

    def store_day(
        self,
        date: str,
        labels: Union[LabelStore, Sequence[LabelRecord]],
        *,
        alarms: Optional[Union[AlarmTable, Sequence]] = None,
        n_alarms: Optional[int] = None,
        version: Optional[str] = None,
    ) -> str:
        """Spill one day's labels (and optionally alarms) to segments.

        Returns the label segment path.  Segment files are published
        atomically and the manifest (bytes + SHA-256 per file) last, so
        a crash mid-store leaves the previous manifest pointing only at
        complete files.  ``date`` must pass :func:`check_day_key`.
        """
        check_day_key(date)
        version, entry = self._version_entry(version)
        store = (
            labels
            if isinstance(labels, LabelStore)
            else LabelStore.from_records(list(labels))
        )
        table: Optional[AlarmTable] = None
        if alarms is not None:
            table = (
                alarms
                if isinstance(alarms, AlarmTable)
                else AlarmTable.from_alarms(list(alarms))
            )
        if n_alarms is None:
            n_alarms = (
                len(table)
                if table is not None
                else int(store.n_alarms.sum())
            )
        directory = self.root / version
        directory.mkdir(parents=True, exist_ok=True)

        def publish(kind: str, payload: bytes, records: int) -> dict:
            path = directory / f"{date}.{kind}.seg"
            write_atomic_bytes(path, payload)
            self._segments.pop((version, date, kind), None)
            return {
                "file": f"{version}/{path.name}",
                "bytes": len(payload),
                "sha256": hashlib.sha256(payload).hexdigest(),
                "records": records,
            }

        meta = {"date": date, "version": version}
        day_entry = {
            "labels": publish(
                "labels", encode_label_segment(store, meta), len(store)
            ),
            "alarms": (
                publish(
                    "alarms",
                    codec.encode(
                        "alarms", table.named_arrays(), table.pools(), meta
                    ),
                    len(table),
                )
                if table is not None
                else None
            ),
            "counts": {
                "n_communities": len(store),
                **{
                    f"n_{name}": count
                    for name, count in taxonomy_counts(store).items()
                },
                "n_alarms": int(n_alarms),
            },
        }
        entry["days"][date] = day_entry
        self._save_manifest()
        latest = self._latest.setdefault(entry.get("config"), {})
        if latest.get(date, "") <= version:
            latest[date] = version
        return str(directory / f"{date}.labels.seg")

    def store_result(
        self,
        date: str,
        result: PipelineResult,
        version: Optional[str] = None,
    ) -> str:
        """Spill one pipeline result (labels + Step 1 alarms)."""
        return self.store_day(
            date,
            result.label_store(),
            alarms=result.alarms,
            n_alarms=len(result.alarms),
            version=version,
        )

    # -- reading -------------------------------------------------------

    def dates(self, version: Optional[str] = None) -> list[str]:
        _, entry = self._version_entry(version)
        return sorted(entry["days"])

    def has_day(self, date: str, version: Optional[str] = None) -> bool:
        if version is None and self.current_version is None:
            return False
        _, entry = self._version_entry(version)
        return date in entry["days"]

    def latest_days(self, config: str) -> dict[str, str]:
        """Date -> the newest version made under ``config`` holding it.

        Independent of the current pointer: a serving daemon answers
        every day it committed (scheduled or fed, each kind in its own
        version) from here, whichever version was activated last.  The
        map is kept on the warehouse (O(1) per call); do not mutate it.
        """
        return self._latest.get(config, {})

    def _segment(
        self,
        date: str,
        kind: str,
        version: Optional[str] = None,
        verify: bool = False,
    ) -> Segment:
        version, entry = self._version_entry(version)
        try:
            file_entry = entry["days"][date][kind]
        except KeyError:
            raise WarehouseError(
                f"no stored {kind} for {date} in version {version}"
            ) from None
        if file_entry is None:
            raise WarehouseError(
                f"day {date} in version {version} has no {kind} segment"
            )
        path = self.root / file_entry["file"]
        try:
            size = os.path.getsize(path)
        except OSError as exc:
            raise WarehouseError(
                f"missing segment {path}: {exc}"
            ) from exc
        if size != file_entry["bytes"]:
            raise WarehouseError(
                f"segment {path} is {size} bytes, manifest says "
                f"{file_entry['bytes']} — truncated or stale"
            )
        if verify and _sha256_file(path) != file_entry["sha256"]:
            raise WarehouseError(
                f"segment {path} fails its manifest checksum — "
                "stale or corrupt"
            )
        key = (version, date, kind)
        segment = self._segments.get(key)
        if segment is None:
            segment = self._segments[key] = Segment(path, kind=kind)
        return segment

    def open_labels(
        self,
        date: str,
        version: Optional[str] = None,
        verify: bool = False,
    ) -> Segment:
        """The mapped label segment of one day (cached handle)."""
        return self._segment(date, "labels", version, verify=verify)

    def label_store(
        self, date: str, version: Optional[str] = None
    ) -> LabelStore:
        return label_store_from_segment(self.open_labels(date, version))

    def alarm_table(
        self, date: str, version: Optional[str] = None
    ) -> AlarmTable:
        segment = self._segment(date, "alarms", version)
        return AlarmTable.from_named_arrays(segment.arrays, segment.pools)

    def export_csv(self, date: str, version: Optional[str] = None) -> str:
        """The day's labels as CSV — byte-identical to ``repro label``."""
        return labels_to_csv(self.label_store(date, version).to_records())

    def close(self) -> None:
        """Drop every cached mmap handle (maps are read-only)."""
        self._segments.clear()

    def __enter__(self) -> "Warehouse":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- queries -------------------------------------------------------

    def query(
        self,
        date: Optional[str] = None,
        date_from: Optional[str] = None,
        date_to: Optional[str] = None,
        taxonomy: Optional[str] = None,
        src: Optional[Union[str, int]] = None,
        dst: Optional[Union[str, int]] = None,
        sport: Optional[int] = None,
        dport: Optional[int] = None,
        t0: Optional[float] = None,
        t1: Optional[float] = None,
        limit: Optional[int] = None,
        version: Optional[str] = None,
        engine: EngineSpec = None,
    ) -> list[dict]:
        """Cross-day label rows matching every given predicate.

        Scans the mapped columns of each day in date order through
        :func:`select_rows` — the loop the live index answers with
        too.  ``date`` restricts to one day; otherwise ``date_from`` /
        ``date_to`` bound the inclusive ISO date range.  Bad
        predicates raise :class:`~repro.errors.WarehouseError`.
        """
        if date is not None:
            dates = [date] if self.has_day(date, version) else []
        else:
            dates = [
                d
                for d in self.dates(version)
                if (date_from is None or d >= date_from)
                and (date_to is None or d <= date_to)
            ]
        try:
            return select_rows(
                ((day, self.open_labels(day, version)) for day in dates),
                taxonomy=taxonomy,
                src=src,
                dst=dst,
                sport=sport,
                dport=dport,
                t0=t0,
                t1=t1,
                limit=limit,
                engine=engine,
            )
        except LabelingError as exc:
            raise WarehouseError(str(exc)) from exc

    def stats(self, version: Optional[str] = None) -> dict:
        """Per-day and total counts, from the manifest alone."""
        version, entry = self._version_entry(version)
        days = {
            date: dict(day["counts"])
            for date, day in sorted(entry["days"].items())
        }
        totals: dict[str, int] = {}
        segment_bytes = 0
        for date, day in entry["days"].items():
            for name, count in day["counts"].items():
                totals[name] = totals.get(name, 0) + count
            for kind in ("labels", "alarms"):
                if day[kind] is not None:
                    segment_bytes += day[kind]["bytes"]
        return {
            "root": str(self.root),
            "version": version,
            "fingerprint": entry["fingerprint"],
            "n_days": len(days),
            "segment_bytes": segment_bytes,
            "totals": totals,
            "days": days,
        }

    def verify(self, version: Optional[str] = None) -> dict:
        """Hash-check every segment of one version against the manifest.

        Raises :class:`~repro.errors.WarehouseError` on the first
        truncated or corrupt file; returns the counts checked.
        """
        version, entry = self._version_entry(version)
        checked = 0
        for date in sorted(entry["days"]):
            for kind in ("labels", "alarms"):
                if entry["days"][date][kind] is not None:
                    self._segment(date, kind, version, verify=True)
                    checked += 1
        return {"version": version, "days": len(entry["days"]), "segments": checked}

    # -- delta recompute ------------------------------------------------

    def _reconstruct_archive(self, meta: Optional[dict]):
        if not meta or "seed" not in meta or "trace_duration" not in meta:
            raise WarehouseError(
                "the stored version carries no reconstructible archive "
                "metadata; pass archive= to recompute"
            )
        from repro.mawi.archive import SyntheticArchive

        archive = SyntheticArchive(
            seed=meta["seed"], trace_duration=meta["trace_duration"]
        )
        if archive.fingerprint() != meta["fingerprint"]:
            raise WarehouseError(
                "reconstructed archive fingerprint does not match the "
                "manifest; pass archive= to recompute"
            )
        return archive

    def recompute(
        self,
        config=None,
        *,
        archive=None,
        cache_dir: Optional[str] = None,
        dates: Optional[Sequence[str]] = None,
    ) -> RecomputeReport:
        """Relabel every ingested day under ``config``, reusing Step 1.

        Fingerprints (archive, ensemble, config); a no-op when the
        fingerprint matches the current version.  Otherwise a new
        version is written: days whose Step 1 alarms are available —
        from the :class:`~repro.runner.cache.AlarmCache` or, when the
        ensemble fingerprint is unchanged, the previous version's alarm
        segments — rerun Steps 2–4 only; the rest rerun the full
        pipeline.  The current pointer flips to the new version last,
        so a crash mid-recompute leaves the old version active.
        """
        import time as _time

        from repro.runner.cache import AlarmCache
        from repro.runner.config import PipelineConfig

        started = _time.perf_counter()
        config = config or PipelineConfig()
        old_version, old_entry = self._version_entry(None)
        if archive is None:
            archive = self._reconstruct_archive(old_entry.get("archive"))
        pipeline = config.build_pipeline()
        ensemble_fp = pipeline.ensemble_fingerprint()
        fingerprint = warehouse_fingerprint(
            archive.fingerprint(), ensemble_fp, repr(config)
        )
        if fingerprint == old_entry["fingerprint"]:
            return RecomputeReport(
                old_version=old_version,
                new_version=old_version,
                fingerprint=fingerprint,
                changed=False,
                elapsed=_time.perf_counter() - started,
            )
        ensemble_changed = (
            old_entry.get("ensemble_fingerprint") != ensemble_fp
        )
        cache = AlarmCache(cache_dir) if cache_dir else None
        new_version = self.ensure_version(
            fingerprint,
            ensemble_fingerprint=ensemble_fp,
            config=repr(config),
            archive=archive_meta(archive),
            activate=False,
        )
        report = RecomputeReport(
            old_version=old_version,
            new_version=new_version,
            fingerprint=fingerprint,
            changed=True,
            ensemble_changed=ensemble_changed,
        )
        for date in dates or self.dates(old_version):
            trace = archive.day(date).trace
            alarms = None
            key = AlarmCache.make_key(
                archive.fingerprint(), date, ensemble_fp
            )
            if cache is not None:
                alarms = cache.get(key)
                if alarms is not None:
                    report.cache_hits += 1
            if (
                alarms is None
                and not ensemble_changed
                and old_entry["days"].get(date, {}).get("alarms") is not None
            ):
                alarms = self.alarm_table(date, version=old_version)
                report.segment_hits += 1
                if cache is not None:
                    cache.put(key, alarms)
            if alarms is None:
                result = pipeline.run(trace)
                report.step1_reruns += 1
                if cache is not None:
                    cache.put(key, result.alarms)
            else:
                result = pipeline.run_with_alarms(trace, alarms)
            self.store_result(date, result, version=new_version)
            report.days.append(
                self._diff_day(date, old_version, result.label_store())
            )
        self.set_current(new_version)
        report.elapsed = _time.perf_counter() - started
        return report

    def _diff_day(
        self, date: str, old_version: str, new_store: LabelStore
    ) -> DayDiff:
        """Community-id / taxonomy delta against the previous version."""
        old_map: dict[int, int] = {}
        if self.has_day(date, old_version):
            arrays = self.open_labels(date, old_version).arrays
            old_map = {
                int(cid): int(tax)
                for cid, tax in zip(
                    arrays["community_id"], arrays["taxonomy_code"]
                )
            }
        new_map = {
            int(cid): int(tax)
            for cid, tax in zip(
                new_store.community_id, new_store.taxonomy_code
            )
        }
        return DayDiff(
            date=date,
            added=sorted(set(new_map) - set(old_map)),
            removed=sorted(set(old_map) - set(new_map)),
            taxonomy_changed=[
                {
                    "community": cid,
                    "old": TAXONOMY_ORDER[old_map[cid]],
                    "new": TAXONOMY_ORDER[new_map[cid]],
                }
                for cid in sorted(set(old_map) & set(new_map))
                if old_map[cid] != new_map[cid]
            ],
            n_before=len(old_map),
            n_after=len(new_map),
        )


# -- the query loop ----------------------------------------------------


def _address_code(value: Union[str, int]) -> int:
    """Normalize a query address (dotted quad or integer) to its code."""
    if isinstance(value, int):
        return value
    text = str(value)
    try:
        return ip_to_int(text) if "." in text else int(text)
    except (TraceError, ValueError) as exc:
        raise LabelingError(f"bad address {value!r}") from exc


def label_predicates(
    *,
    taxonomy: Optional[str] = None,
    src: Optional[Union[str, int]] = None,
    dst: Optional[Union[str, int]] = None,
    sport: Optional[int] = None,
    dport: Optional[int] = None,
    t0: Optional[float] = None,
    t1: Optional[float] = None,
    limit: Optional[int] = None,
) -> dict:
    """The ``"warehouse_select"`` kernel arguments for one query.

    Checks every predicate whatever days the query reaches: an unknown
    taxonomy, a malformed address or a negative ``limit`` raise
    :class:`~repro.errors.LabelingError`.
    """
    taxonomy_code = None
    if taxonomy is not None:
        if taxonomy not in TAXONOMY_ORDER:
            raise LabelingError(
                f"unknown taxonomy {taxonomy!r}; "
                f"known: {list(TAXONOMY_ORDER)}"
            )
        taxonomy_code = TAXONOMY_ORDER.index(taxonomy)
    if limit is not None and limit < 0:
        raise LabelingError(f"limit must be >= 0, got {limit}")
    return dict(
        taxonomy_code=taxonomy_code,
        src=None if src is None else _address_code(src),
        dst=None if dst is None else _address_code(dst),
        sport=None if sport is None else int(sport),
        dport=None if dport is None else int(dport),
        t0=t0,
        t1=t1,
    )


def select_rows(
    days: Iterable[tuple[str, object]],
    *,
    taxonomy: Optional[str] = None,
    src: Optional[Union[str, int]] = None,
    dst: Optional[Union[str, int]] = None,
    sport: Optional[int] = None,
    dport: Optional[int] = None,
    t0: Optional[float] = None,
    t1: Optional[float] = None,
    limit: Optional[int] = None,
    engine: EngineSpec = None,
) -> list[dict]:
    """Label rows matching every given predicate, day by day.

    ``days`` yields ``(date, day)`` pairs in answer order, where
    ``day`` holds one date's :func:`label_columns` as ``arrays`` and
    ``pools`` — a mapped :class:`Segment` or a live in-memory day.
    Each day is scanned by the ``"warehouse_select"`` kernel and only
    the selected rows are rendered.  ``taxonomy`` is one of the
    paper's three labels; ``src`` / ``dst`` (dotted quad or integer)
    and ``sport`` / ``dport`` match labels whose concise rules pin
    that value; ``t0`` / ``t1`` keep labels whose span overlaps
    ``[t0, t1]``; at most ``limit`` rows come back.  Bad predicates
    raise :class:`~repro.errors.LabelingError` (:func:`label_predicates`).
    """
    predicates = label_predicates(
        taxonomy=taxonomy,
        src=src,
        dst=dst,
        sport=sport,
        dport=dport,
        t0=t0,
        t1=t1,
        limit=limit,
    )
    select = resolve_engine(engine, what="label query").kernel(
        "warehouse_select"
    )
    rows: list[dict] = []
    for date, day in days:
        if limit is not None and len(rows) >= limit:
            break
        arrays = day.arrays
        selected = select(
            {
                "taxonomy_code": arrays["taxonomy_code"],
                "t0": arrays["t0"],
                "t1": arrays["t1"],
                "rule_record": arrays["r_record"],
                "rule_src": arrays["r_src"],
                "rule_dst": arrays["r_dst"],
                "rule_sport": arrays["r_sport"],
                "rule_dport": arrays["r_dport"],
            },
            **predicates,
        )
        if limit is not None:
            selected = selected[: limit - len(rows)]
        rows += [
            _render_row(arrays, day.pools, date, i) for i in selected.tolist()
        ]
    return rows


def _render_row(arrays, pools, date: str, index: int) -> dict:
    """One query-result row (JSON-shaped; rules nested per label),
    read straight from the columns, never through a
    :class:`LabelRecord`."""
    detector_bounds = arrays["detector_bounds"]
    rule_bounds = arrays["rule_bounds"]
    src, sport, dst, dport, support = (
        arrays[name]
        for name in ("r_src", "r_sport", "r_dst", "r_dport", "r_support")
    )
    rules = []
    for j in range(rule_bounds.item(index), rule_bounds.item(index + 1)):
        rule_src, rule_dst = src.item(j), dst.item(j)
        rule_sport, rule_dport = sport.item(j), dport.item(j)
        rules.append(
            {
                "src": None if rule_src < 0 else ip_to_str(rule_src),
                "sport": None if rule_sport < 0 else rule_sport,
                "dst": None if rule_dst < 0 else ip_to_str(rule_dst),
                "dport": None if rule_dport < 0 else rule_dport,
                "support": support.item(j),
            }
        )
    return {
        "date": date,
        "community": arrays["community_id"].item(index),
        "taxonomy": TAXONOMY_ORDER[arrays["taxonomy_code"].item(index)],
        "heuristic_category": pools["categories"][
            arrays["category_code"].item(index)
        ],
        "heuristic_detail": pools["details"][
            arrays["detail_code"].item(index)
        ],
        "t0": arrays["t0"].item(index),
        "t1": arrays["t1"].item(index),
        "n_alarms": arrays["n_alarms"].item(index),
        "detectors": list(
            pools["detector_names"][
                detector_bounds.item(index) : detector_bounds.item(index + 1)
            ]
        ),
        "rules": rules,
    }
