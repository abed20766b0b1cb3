"""Run a ``repro`` CLI command with the benchmark's span wrappers installed.

Usage::

    python3 perfbench/launcher.py SPANS_FILE RUN_ID serve --port 0 ...

The wrappers go in before the CLI builds anything, so every session,
pipeline and feed the command creates is traced.  The spans are written
to ``SPANS_FILE`` from the package's own SIGTERM/SIGINT teardown hook,
after which the process still dies with the conventional signal status.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import use_repo_package  # noqa: E402


def main(argv: list[str]) -> int:
    spans_path, run_id, command = Path(argv[0]), argv[1], argv[2:]
    use_repo_package()
    import tracing

    recorder = tracing.Recorder(run_id)
    tracing.install(recorder)
    tracing.install_serve(recorder)

    from repro.cli import main as cli_main
    from repro.runner.pool import register_signal_cleanup

    register_signal_cleanup(lambda: recorder.dump(spans_path))
    return cli_main(command)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
