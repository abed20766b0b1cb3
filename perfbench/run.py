"""Benchmark of the MAWILab labeling system, timed from outside the package.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload long-traces --seed 1 --seconds 15 --trace 0

Workloads: ``archive-days``, ``long-traces``, ``pooled-traces``,
``live-feeds`` (see README.md).  Inputs are fixed synthetic archive days
in an order set by ``--seed``, cached under ``.perfbench/``.  Human-readable figures go to stdout
first; the last line of stdout is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics; with
``--trace 1`` the run measures once untraced and once with span
wrappers installed, and reports every per-layer metric plus the tracing
overhead (traced minus untraced) of each end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    HASH_SEED,
    SPANS,
    Outcomes,
    SetupError,
    stop_resource_tracker,
    use_repo_package,
)

#: End-to-end metric -> unit; every workload reports all of them.
E2E_UNITS = {
    "setup_s": "s",
    "label_pps": "pkt/s",
    "query_p50_ms": "ms",
    "freshness_p50_ms": "ms",
    "peak_rss_mb": "MiB",
}
WORKLOADS = ("archive-days", "long-traces", "pooled-traces", "live-feeds")
#: The same figures under the names a reader of each workload expects.
ALIASES = {
    "live-feeds": {"label_pps": "ingest_pps"},
}


def measure(workload: str, seed: int, seconds: float, layers: dict, spans_path=None):
    """One measured phase: (end-to-end metrics, outcomes)."""
    if workload == "live-feeds":
        import live

        return live.run(workload, seed, seconds, spans_path=spans_path, layers=layers)
    import batch

    return batch.run(workload, seed, seconds, layers)


def traced(workload: str, seed: int, seconds: float, plain: dict):
    """The traced phase: per-layer metrics, overheads and outcomes."""
    import tracing

    run_id = f"{workload}-seed{seed}-{os.getpid()}-{int(time.time())}"
    recorder = tracing.Recorder(run_id)
    tracing.install(recorder)
    extra: dict = {}
    daemon_spans = SPANS / f"{run_id}-daemon.jsonl"
    e2e, outcomes = measure(
        workload,
        seed,
        seconds,
        extra,
        spans_path=daemon_spans if workload == "live-feeds" else None,
    )
    recorder.dump(SPANS / f"{run_id}.jsonl")
    spans = recorder.records()
    if workload == "live-feeds":
        started = extra.pop("_measure_start")
        # Only the measured phase: the daemon also served its warm-up.
        spans += [
            s for s in tracing.load_spans(daemon_spans) if s["start"] >= started
        ]
    layers = tracing.layer_metrics(spans, extra)
    units = dict(tracing.LAYER_UNITS)
    for name, value in e2e.items():
        layers[f"overhead.{name}"] = value - plain[name]
        units[f"overhead.{name}"] = E2E_UNITS[name]
    return layers, units, outcomes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        use_repo_package()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Same process, pinned hash seed (see common.HASH_SEED).
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])

    from inputs import prepare

    try:
        prepare()
        info: dict = {}
        e2e, outcomes = measure(args.workload, args.seed, args.seconds, info)
        metrics = {name: (e2e[name], E2E_UNITS[name]) for name in E2E_UNITS}
        if args.trace:
            layers, units, traced_outcomes = traced(
                args.workload, args.seed, args.seconds, e2e
            )
            outcomes.merge(traced_outcomes)
            metrics = {name: (layers[name], units[name]) for name in layers}
    finally:
        stop_resource_tracker()

    report(args.workload, args.seed, e2e, info, outcomes)
    print(
        json.dumps(
            {
                "correct": outcomes.correct,
                "attempted": outcomes.attempted,
                "failed": outcomes.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


def report(workload: str, seed: int, e2e: dict, info: dict, outcomes: Outcomes) -> None:
    """Human-readable summary (everything before the JSON line)."""
    aliases = ALIASES.get(workload, {})
    print(f"perfbench {workload} seed={seed}")
    for name, unit in E2E_UNITS.items():
        alias = f" ({aliases[name]})" if name in aliases else ""
        print(f"  {name}{alias} = {e2e[name]:.6g} {unit}")
    # Shown, not gated: the p99 moves by more than any allowed bound
    # from run to run on a shared host (see README.md).
    print(f"  query_p99_ms = {info['query_p99_ms']:.6g} ms")
    if "wh_qps" in info:
        print(f"  wh_qps = {info['wh_qps']:.6g} 1/s")
    print(
        f"  fail_ratio = {outcomes.failed}/{outcomes.attempted}"
        f" = {outcomes.ratio:.6g}"
    )
    for reason in outcomes.reasons:
        print(f"  failure: {reason}")


if __name__ == "__main__":
    sys.exit(main())
