"""Start a ``repro node`` for the fleet-wire workload.

Run as a child process by ``run.py``; prints the node's
``listening on HOST:PORT`` line first, like ``repro node``.  On top of
the stock node it serves one extra command, ``bench.trace``, which
installs the benchmark's layer wrappers (:mod:`layertrace`) in this
process and starts attributing calls.  When the node shuts down
(``node.shutdown``), the launcher prints one line

    FLEETBENCH-NODE {"timed": <layer table>, "caches": {...}}

with the layer table of everything served since ``bench.trace`` and
the cache counters at that point and at shutdown, so the wire
breakdown covers the node as well as the client that waits on it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from layertrace import Tracer, cache_counters  # noqa: E402
from repro.net.node import NodeService, run_node  # noqa: E402

MARKER = "FLEETBENCH-NODE "


class TracedNodeService(NodeService):
    """The stock node plus the ``bench.trace`` command."""

    def __init__(self) -> None:
        super().__init__()
        self.tracer = Tracer()
        self.caches_at_start: dict | None = None

    def _op_bench_trace(self, p: dict) -> dict:
        self.tracer.install()
        self.caches_at_start = cache_counters()
        self.tracer.use("timed")
        return {}


def main() -> int:
    service = TracedNodeService()
    status = run_node(host="127.0.0.1", port=0, service=service)
    timed = service.tracer.phases.get("timed")
    report = {
        "timed": timed.to_json() if timed is not None else {},
        "caches": {"start": service.caches_at_start,
                   "end": cache_counters()},
    }
    print(MARKER + json.dumps(report), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
