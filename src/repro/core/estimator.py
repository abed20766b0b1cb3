"""The similarity estimator: alarms in, communities out.

Orchestrates Step 2 of the paper's method:

1. :class:`~repro.core.extractor.TrafficExtractor` retrieves the
   traffic designated by each alarm at the chosen granularity;
2. :func:`~repro.core.graph.build_similarity_graph` connects alarms
   whose traffic intersects, weighted by a similarity measure
   (Simpson by default);
3. :func:`~repro.core.louvain.louvain` clusters the graph into
   communities; alarms left alone become *single communities*.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence, Union

import numpy as np

from repro.core.alarm_table import AlarmTable
from repro.core.community import Community, CommunitySet
from repro.core.extractor import TrafficExtractor
from repro.core.graph import build_similarity_graph
from repro.core.louvain import louvain
from repro.detectors.base import Alarm
from repro.engine import EngineSpec, resolve_engine
from repro.net.flow import Granularity
from repro.net.trace import Trace


class SimilarityEstimator:
    """Groups similar alarms into communities.

    Parameters
    ----------
    granularity:
        Traffic granularity for alarm association (uniflow by default —
        the paper's final choice, Section 5).
    measure:
        Similarity measure name ("simpson" / "jaccard" / "constant") or
        a callable.
    edge_threshold:
        Minimum edge weight kept in the graph.
    seed:
        Louvain shuffle seed (fixes the partition).
    resolution:
        Louvain modularity resolution.
    engine:
        Traffic-extraction engine spec (resolved through
        :func:`repro.engine.resolve_engine`).  On a vectorized engine,
        per-alarm traffic flows from the columnar extractor into the
        graph kernel as dense code arrays, and the public ``FrozenSet``
        traffic sets are materialized afterwards for the community
        records.
    graph_engine:
        Similarity-graph construction engine; defaults to ``engine``.
        All graph kernels build identical graphs.
    """

    def __init__(
        self,
        granularity: Granularity = Granularity.UNIFLOW,
        measure: str = "simpson",
        edge_threshold: float = 0.0,
        seed: int = 0,
        resolution: float = 1.0,
        engine: EngineSpec = "auto",
        graph_engine: EngineSpec = None,
    ) -> None:
        self.granularity = granularity
        self.measure = measure
        self.edge_threshold = edge_threshold
        self.seed = seed
        self.resolution = resolution
        self.engine = resolve_engine(engine, what="estimator")
        self.graph_engine = (
            self.engine
            if graph_engine is None
            else resolve_engine(graph_engine, what="graph")
        )

    def build(
        self,
        trace: Trace,
        alarms: Union[Sequence[Alarm], AlarmTable],
        timings: Optional[dict] = None,
    ) -> CommunitySet:
        """Run the estimator on one trace's alarms.

        ``alarms`` may be a plain list or an
        :class:`~repro.core.alarm_table.AlarmTable`; on a vectorized
        engine the table's encoded designation columns feed extraction
        directly (no :class:`Alarm` views), and the resulting
        communities are index vectors over the table.  ``timings``,
        when given, accumulates per-stage wall seconds under the keys
        ``"extract"``, ``"graph"`` and ``"combine"`` (Louvain
        clustering) — the ``repro bench`` instrumentation.
        """
        clock = time.perf_counter
        table: Optional[AlarmTable] = None
        if isinstance(alarms, AlarmTable):
            if self.engine.vectorized:
                table = alarms
            else:
                alarms = alarms.to_alarms()
        else:
            alarms = list(alarms)
        started = clock()
        extractor = TrafficExtractor(
            trace, self.granularity, engine=self.engine
        )
        if extractor.engine.vectorized:
            if table is not None:
                code_sets = extractor.extract_table_codes(table)
            else:
                code_sets = extractor.extract_all_codes(alarms)
            graph_input: Sequence = code_sets
            traffic_sets = [
                extractor.codes_to_traffic(codes) for codes in code_sets
            ]
        else:
            traffic_sets = extractor.extract_all(alarms)
            graph_input = traffic_sets
        if timings is not None:
            timings["extract"] = timings.get("extract", 0.0) + clock() - started
        started = clock()
        graph = build_similarity_graph(
            graph_input,
            measure=self.measure,
            edge_threshold=self.edge_threshold,
            engine=self.graph_engine,
        )
        if timings is not None:
            timings["graph"] = timings.get("graph", 0.0) + clock() - started
        started = clock()
        partition = louvain(
            graph, resolution=self.resolution, seed=self.seed
        )
        communities = self._materialize(
            table if table is not None else alarms, traffic_sets, partition
        )
        if timings is not None:
            timings["combine"] = timings.get("combine", 0.0) + clock() - started
        return CommunitySet(
            communities=communities,
            alarms=table if table is not None else alarms,
            traffic_sets=traffic_sets,
            granularity=self.granularity,
            graph=graph,
            extractor=extractor,
            alarm_table=table,
        )

    @staticmethod
    def _materialize(
        alarms: Union[list[Alarm], AlarmTable],
        traffic_sets: list,
        partition: dict[int, int],
    ) -> list[Community]:
        """Build Community objects from the Louvain partition.

        With an :class:`AlarmTable`, communities stay index vectors:
        their time envelopes come from vectorized column reductions
        and their member alarms are lazy table views.
        """
        members: dict[int, list[int]] = {}
        for alarm_id, label in partition.items():
            members.setdefault(label, []).append(alarm_id)
        table = alarms if isinstance(alarms, AlarmTable) else None
        communities: list[Community] = []
        for new_id, label in enumerate(sorted(members)):
            alarm_ids = tuple(sorted(members[label]))
            traffic = frozenset().union(
                *(traffic_sets[i] for i in alarm_ids)
            )
            if table is not None:
                ids = np.fromiter(alarm_ids, np.int64, count=len(alarm_ids))
                communities.append(
                    Community(
                        id=new_id,
                        alarm_ids=alarm_ids,
                        table=table,
                        traffic=traffic,
                        t0=float(table.t0[ids].min()),
                        t1=float(table.t1[ids].max()),
                    )
                )
                continue
            member_alarms = tuple(alarms[i] for i in alarm_ids)
            t0 = min(a.t0 for a in member_alarms)
            t1 = max(a.t1 for a in member_alarms)
            communities.append(
                Community(
                    id=new_id,
                    alarm_ids=alarm_ids,
                    alarms=member_alarms,
                    traffic=traffic,
                    t0=t0,
                    t1=t1,
                )
            )
        return communities
