"""Run the thermologic CLI once with layer tracing and save the span totals.

    python3 bench/clitrace.py STATS.json <thermologic arguments...>

The ``cli`` workload starts this in place of ``python3 -m thermologic.cli``
in its traced run, so the layers inside each subprocess are measured too.
"""

import json
import sys
from pathlib import Path

import thermologic.cli
import tracer


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    spans = tracer.Tracer()
    restore = tracer.install(spans)
    try:
        return thermologic.cli.main(argv)
    finally:
        restore()
        Path(stats_path).write_text(json.dumps(spans.export()))


if __name__ == "__main__":
    sys.exit(main())
