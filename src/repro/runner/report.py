"""Per-shard and aggregated batch-run reports.

A :class:`TraceReport` is the unit a pool worker returns: small,
picklable, and carrying everything the aggregator needs (label counts,
the output CSV digest, cache/failure status).  :class:`BatchReport`
collects them into the longitudinal summary the paper's Figs. 7-9 are
built from.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field


@dataclass
class TraceReport:
    """Outcome of labeling one archive trace."""

    date: str
    #: "ok", "failed", or "skipped" (resumed run found existing output).
    status: str = "ok"
    n_alarms: int = 0
    n_communities: int = 0
    n_anomalous: int = 0
    n_suspicious: int = 0
    n_notice: int = 0
    #: Whether Step 1 alarms came from the on-disk cache.
    cache_hit: bool = False
    csv_path: str = ""
    #: SHA-256 of the rendered label CSV (determinism checks compare
    #: these across serial and sharded runs without re-reading files).
    csv_sha256: str = ""
    elapsed: float = 0.0
    error: str = ""
    #: Zero-copy result transport: a
    #: :class:`~repro.runner.shm.SegmentHandle` naming the
    #: worker's exported Step 1 alarm table, when the task asked for
    #: it.  Consumed (and cleared) by the session; never serialized
    #: into the JSON report.
    alarms_shm: object = None
    #: Worker-side phase wall seconds ("attach", "compute"); the
    #: session adds its parent-side phases ("export", "merge") when
    #: profiling.  Empty when the shard was skipped or failed early.
    phases: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class BatchReport:
    """Aggregate of one batch run, ordered by date."""

    reports: list[TraceReport] = field(default_factory=list)
    #: Step 1 alarm tables collected from workers over the zero-copy
    #: shm result transport (``collect_alarms=True`` sessions only),
    #: keyed by trace name.  Not part of the JSON report.
    alarm_tables: dict = field(default_factory=dict, repr=False)

    def completed(self) -> list[TraceReport]:
        return [r for r in self.reports if r.status == "ok"]

    def failures(self) -> list[TraceReport]:
        return [r for r in self.reports if r.status == "failed"]

    def skipped(self) -> list[TraceReport]:
        return [r for r in self.reports if r.status == "skipped"]

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.reports if r.cache_hit)

    @property
    def cache_misses(self) -> int:
        return sum(
            1 for r in self.reports if r.status == "ok" and not r.cache_hit
        )

    def totals(self) -> dict[str, int]:
        """Label counts summed over completed traces."""
        keys = (
            "n_alarms",
            "n_communities",
            "n_anomalous",
            "n_suspicious",
            "n_notice",
        )
        done = self.completed()
        return {key: sum(getattr(r, key) for r in done) for key in keys}

    def to_json(self) -> str:
        def row(report: TraceReport) -> dict:
            serialized = asdict(report)
            serialized.pop("alarms_shm", None)  # transport-only field
            return serialized

        payload = {
            "traces": [row(r) for r in self.reports],
            "totals": self.totals(),
            "n_completed": len(self.completed()),
            "n_failed": len(self.failures()),
            "n_skipped": len(self.skipped()),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def describe(self) -> str:
        """Human-readable longitudinal summary, one line per trace."""
        lines = [
            f"{'date':12s} {'status':8s} {'alarms':>6s} {'comms':>5s} "
            f"{'anom':>4s} {'susp':>4s} {'notice':>6s} {'cache':>5s} "
            f"{'secs':>6s}"
        ]
        for r in self.reports:
            detail = r.error if r.status == "failed" else ""
            lines.append(
                f"{r.date:12s} {r.status:8s} {r.n_alarms:6d} "
                f"{r.n_communities:5d} {r.n_anomalous:4d} "
                f"{r.n_suspicious:4d} {r.n_notice:6d} "
                f"{'hit' if r.cache_hit else 'miss':>5s} "
                f"{r.elapsed:6.2f} {detail}".rstrip()
            )
        totals = self.totals()
        lines.append(
            f"total: {len(self.completed())} labeled, "
            f"{len(self.failures())} failed, {len(self.skipped())} skipped; "
            f"{totals['n_anomalous']} anomalous / "
            f"{totals['n_suspicious']} suspicious / "
            f"{totals['n_notice']} notice; "
            f"cache {self.cache_hits} hits / {self.cache_misses} misses"
        )
        return "\n".join(lines)
