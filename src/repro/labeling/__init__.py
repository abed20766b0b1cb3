"""Labeling: heuristics, taxonomy and the end-to-end pipeline.

* :mod:`repro.labeling.heuristics` — Table 1 of the paper: simple
  port/flag/ICMP rules classifying a community's traffic as "Attack",
  "Special" or "Unknown".  Used only for *evaluation* (they are
  independent of the detectors' mechanisms), never by the combiner.
* :mod:`repro.labeling.taxonomy` — the MAWILab taxonomy of Section 5:
  anomalous / suspicious / notice / benign, thresholded on the SCANN
  relative distance.
* :mod:`repro.labeling.mawilab` — :class:`MAWILabPipeline`, the whole
  4-step method on one trace, plus the label records and CSV/XML
  writers that form the public database format.
* :mod:`repro.labeling.warehouse` — :class:`Warehouse`, the durable
  label database: the versioned memory-mapped columnar spill of
  :class:`LabelStore` / ``AlarmTable`` with zero-copy cross-day
  queries, CSV export and delta recompute.
* :mod:`repro.labeling.database` — ``LiveLabelIndex``, the in-memory
  index of days still being labeled, queried through the warehouse's
  own select-and-render loop.
"""

from repro.labeling.heuristics import (
    CATEGORY_ATTACK,
    CATEGORY_SPECIAL,
    CATEGORY_UNKNOWN,
    HeuristicLabel,
    label_community,
    label_packets,
)
from repro.labeling.taxonomy import (
    TAXONOMY_ANOMALOUS,
    TAXONOMY_BENIGN,
    TAXONOMY_NOTICE,
    TAXONOMY_ORDER,
    TAXONOMY_SUSPICIOUS,
    assign_taxonomy,
    assign_taxonomy_batch,
)
from repro.labeling.store import LabelStore, taxonomy_counts
from repro.labeling.mawilab import (
    LabelRecord,
    MAWILabPipeline,
    PipelineResult,
    labels_to_csv,
    labels_to_xml,
)
from repro.labeling.warehouse import Warehouse, warehouse_fingerprint

__all__ = [
    "CATEGORY_ATTACK",
    "CATEGORY_SPECIAL",
    "CATEGORY_UNKNOWN",
    "HeuristicLabel",
    "label_community",
    "label_packets",
    "TAXONOMY_ANOMALOUS",
    "TAXONOMY_BENIGN",
    "TAXONOMY_NOTICE",
    "TAXONOMY_ORDER",
    "TAXONOMY_SUSPICIOUS",
    "assign_taxonomy",
    "assign_taxonomy_batch",
    "LabelStore",
    "taxonomy_counts",
    "LabelRecord",
    "MAWILabPipeline",
    "PipelineResult",
    "labels_to_csv",
    "labels_to_xml",
    "Warehouse",
    "warehouse_fingerprint",
]
