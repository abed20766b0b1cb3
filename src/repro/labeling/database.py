"""The in-memory label index of open days.

The durable label database is the columnar
:class:`~repro.labeling.warehouse.Warehouse`; days still being labeled
— a serving daemon's open feeds — live here until they are committed
to it.  A published day keeps the same columns a warehouse segment
holds (:func:`~repro.labeling.warehouse.label_columns`), so both
answer queries through one loop
(:func:`~repro.labeling.warehouse.select_rows`) and render identical
rows.
"""

from __future__ import annotations

import threading
from typing import Optional, Sequence, Union

from repro.errors import LabelingError
from repro.labeling.mawilab import LabelRecord
from repro.labeling.store import LabelStore
from repro.labeling.warehouse import label_columns, select_rows


class _LiveDay:
    """One published day: its store (for CSV export) and its columns."""

    __slots__ = ("store", "arrays", "pools")

    def __init__(self, store: LabelStore) -> None:
        self.store = store
        self.arrays, self.pools = label_columns(store)


class LiveLabelIndex:
    """In-memory query index over published label days.

    The serving layer's read side for open days: feeds *publish* whole
    days (a :class:`~repro.labeling.store.LabelStore` per date) as
    windows commit, and HTTP queries *select* over the published
    columns — time spans, taxonomy codes, concise-rule flow keys —
    without ever touching a pipeline or a feed ring.

    Publishing replaces the date's entry atomically under a lock (the
    per-day columns are immutable), so a query sees either the
    previous complete day or the new complete day.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._days: dict[str, _LiveDay] = {}
        self.publishes = 0
        self.queries = 0

    # -- write side (pipeline commits) ---------------------------------

    def publish(
        self,
        date: str,
        labels: Union[LabelStore, Sequence[LabelRecord]],
    ) -> None:
        """Publish (or replace) one day's labels."""
        store = (
            labels
            if isinstance(labels, LabelStore)
            else LabelStore.from_records(list(labels))
        )
        day = _LiveDay(store)
        with self._lock:
            self._days[date] = day
            self.publishes += 1

    def drop(self, date: str) -> None:
        with self._lock:
            self._days.pop(date, None)

    # -- read side (queries) -------------------------------------------

    def dates(self) -> list[str]:
        with self._lock:
            return sorted(self._days)

    def store_for(self, date: str) -> LabelStore:
        """The published store of one day (for whole-day exports)."""
        with self._lock:
            day = self._days.get(date)
        if day is None:
            raise LabelingError(f"no published labels for {date}")
        return day.store

    def query(
        self,
        date: Optional[str] = None,
        taxonomy: Optional[str] = None,
        src: Optional[Union[str, int]] = None,
        dst: Optional[Union[str, int]] = None,
        sport: Optional[int] = None,
        dport: Optional[int] = None,
        t0: Optional[float] = None,
        t1: Optional[float] = None,
        limit: Optional[int] = None,
    ) -> list[dict]:
        """Label rows matching every given predicate.

        ``date`` restricts to one published day (all days otherwise,
        in date order); the predicates and row shape are those of
        :func:`~repro.labeling.warehouse.select_rows`.
        """
        with self._lock:
            if date is None:
                days = sorted(self._days.items())
            else:
                day = self._days.get(date)
                days = [] if day is None else [(date, day)]
            self.queries += 1
        return select_rows(
            days,
            taxonomy=taxonomy,
            src=src,
            dst=dst,
            sport=sport,
            dport=dport,
            t0=t0,
            t1=t1,
            limit=limit,
        )

    def counters(self) -> dict:
        with self._lock:
            return {
                "days": len(self._days),
                "labels": sum(
                    len(day.store) for day in self._days.values()
                ),
                "publishes": self.publishes,
                "queries": self.queries,
            }
