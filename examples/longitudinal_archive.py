#!/usr/bin/env python3
"""Longitudinal study: labeling nine years of archive in parallel.

Reproduces the flavour of the paper's Figs. 7-8 interactively: shards
one day per half-year from 2001 to 2009 across a process pool with
``LabelingSession.label_archive``, then prints the attack-ratio time
series along with the era (Blaster/Sasser outbreaks, link upgrades,
post-2007 P2P growth).  The per-day label counts come straight from
the aggregated batch report; the attack-ratio columns re-run the
combiner per day from the session's alarm cache, so Step 1 executes
exactly once per trace.

Run:  python examples/longitudinal_archive.py
"""

import sys
import tempfile

from repro.eval.metrics import attack_ratio_by_class
from repro.labeling.heuristics import label_community
from repro.mawi import SyntheticArchive, era_for_date
from repro.runner import AlarmCache, PipelineConfig
from repro.session import LabelingSession


def main() -> None:
    archive = SyntheticArchive(seed=2010, trace_duration=30.0)
    config = PipelineConfig()

    dates = [
        f"{year}-{month:02d}-01"
        for year in range(2001, 2010)
        for month in (2, 8)
    ]

    with tempfile.TemporaryDirectory() as cache_dir, LabelingSession(
        config=config, workers=4, cache_dir=cache_dir
    ) as session:
        batch = session.label_archive(
            archive,
            dates,
            progress=lambda done, total, report: print(
                f"[{done}/{total}] {report.date} {report.status}",
                file=sys.stderr,
            ),
        )

        print(
            f"{'date':12s} {'era':14s} {'comms':>5s} {'anom':>4s} "
            f"{'susp':>4s} {'acc.ratio':>9s} {'rej.ratio':>9s}"
        )
        print("-" * 66)
        pipeline = config.build_pipeline()
        cache = AlarmCache(cache_dir)
        for report in batch.reports:
            if not report.ok:
                print(f"{report.date:12s} {report.status}: {report.error}")
                continue
            # Steps 2-4 only: alarms come from the cache Step 1 filled.
            day = archive.day(report.date)
            alarms = cache.get(
                AlarmCache.make_key(
                    archive.fingerprint(),
                    report.date,
                    pipeline.ensemble_fingerprint(),
                )
            )
            if alarms is None:  # cache evicted between runs
                alarms = pipeline.detect(day.trace)
            result = pipeline.run_with_alarms(day.trace, alarms)
            community_set = result.community_set
            heuristics = [
                label_community(c, community_set.extractor)
                for c in community_set.communities
            ]
            acc, rej = attack_ratio_by_class(
                heuristics, [d.accepted for d in result.decisions]
            )
            era = era_for_date(report.date)
            print(
                f"{report.date:12s} {era.name:14s} "
                f"{report.n_communities:5d} "
                f"{report.n_anomalous:4d} "
                f"{report.n_suspicious:4d} "
                f"{acc:9.2f} {rej:9.2f}"
            )

    print(
        "\nReading the series: the accepted attack ratio should sit well\n"
        "above the rejected one (SCANN discriminates), dip during worm\n"
        "outbreaks (2003-2005: detectors disagree on worm traffic, paper\n"
        "Fig. 7b) and degrade after mid-2007 when random-port P2P\n"
        "elephant flows — labeled 'Unknown' by the Table-1 heuristics —\n"
        "start dominating anomalies."
    )


if __name__ == "__main__":
    main()
