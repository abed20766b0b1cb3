"""Every layer boundary the benchmark's traced run wraps still exists.

``perfbench/tracing.py`` wraps package functions and methods by name
from outside, and its ``_patch`` silently skips a missing target — so a
rename in the package would zero a per-layer metric without an error.
This guard runs ``install`` / ``install_serve`` in a subprocess (the
patches are process-global) with ``_patch`` replaced by a recorder
that asserts each target is present.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_PROBE = """
import sys
sys.path[:0] = [{perfbench!r}, {src!r}]
import tracing

targets = []

def _patch(owner, attr, make):
    assert getattr(owner, attr, None) is not None, (
        f"trace hook target {{owner!r}}.{{attr}} is missing"
    )
    targets.append(f"{{getattr(owner, '__name__', owner)}}.{{attr}}")

tracing._patch = _patch
recorder = tracing.Recorder("hook-guard")
tracing.install(recorder)
tracing.install_serve(recorder)
print("\\n".join(targets))
"""


def test_every_trace_hook_target_exists():
    probe = _PROBE.format(
        perfbench=str(ROOT / "perfbench"), src=str(ROOT / "src")
    )
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
    )
    assert completed.returncode == 0, completed.stderr
    targets = set(completed.stdout.split())
    for expected in (
        "Engine.kernel",
        "PlaneCache.get",
        "Warehouse.store_result",
        "Warehouse.query",
        "StreamingPipeline.process",
        "LiveLabelIndex.publish",
        "Feed.push",
        "_FeedRing.pop",
    ):
        assert expected in targets, expected
