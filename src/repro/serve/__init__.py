"""The serving layer: the labeling pipeline as a long-lived daemon.

MAWILab the artifact is a *continuously published* label database;
this package promotes the one-shot :class:`~repro.session.LabelingSession`
into that always-on shape:

* :mod:`repro.serve.daemon` — :class:`LabelingService`, the front door
  accepting many concurrent packet feeds with bounded-ring
  backpressure, sharded over the session's persistent worker pool;
* :mod:`repro.serve.scheduler` — :class:`ArchiveScheduler`, the
  resumable daily-ingest loop walking archive days into the
  :class:`~repro.labeling.warehouse.Warehouse` with a crash journal;
* :mod:`repro.serve.http` — the stdlib-only HTTP/JSON surface
  (``/labels``, ``/feeds``, ``/health``, ``/metrics``) over the
  warehouse (committed days) and the
  :class:`~repro.labeling.database.LiveLabelIndex` (open days).
"""

from repro.serve.daemon import Feed, LabelingService
from repro.serve.http import LabelServer, rows_to_table, table_to_rows
from repro.serve.scheduler import ArchiveScheduler, DayOutcome, IngestJournal

__all__ = [
    "ArchiveScheduler",
    "DayOutcome",
    "Feed",
    "IngestJournal",
    "LabelServer",
    "LabelingService",
    "rows_to_table",
    "table_to_rows",
]
