"""Run ``repro serve`` with a span recorded at every layer boundary.

Usage: ``python perfbench/launcher.py SPANS.json serve <serve args...>``

The launcher wraps the public calls at each layer boundary of the
service, then hands over to the normal ``serve`` entry point.  Each span
records its name, start and end (``time.perf_counter``), its parent span
and the dispatch round it belongs to.  Spans stay in memory and are
written to ``SPANS.json`` once ``serve`` returns.  Only the front-end
process is traced: shard worker processes start from a fresh import.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from typing import Dict, List, Optional

#: ``(module, class or None, attribute, span name)`` of every boundary.
BOUNDARIES = (
    ("repro.service.state", "WorldState", "add_tasks", "state.add_tasks"),
    ("repro.service.state", "WorldState", "snapshot", "state.snapshot"),
    ("repro.service.state", "WorldState", "commit", "state.commit"),
    ("repro.service.state", "WorldState", "expire", "state.expire"),
    ("repro.service.state", "WorldState", "advance", "state.advance"),
    ("repro.service.cache", "SnapshotCatalogCache", "get_with_status", "catalog.refresh"),
    ("repro.service.engine", None, "solve_instance", "solve"),
    ("repro.service.engine", None, "solve_subproblem", "solve"),
    ("repro.service.journal", "WorldJournal", "append", "journal.append"),
    ("repro.service.engine", "DispatchEngine", "dispatch", "engine.round"),
    ("repro.service.shards.engine", "ShardedDispatchEngine", "dispatch", "engine.round"),
    ("repro.service.shards.engine", "ShardedWorldView", "add_tasks", "state.add_tasks"),
    ("repro.service.shards.supervisor", "ShardSupervisor", "call", "shards.call"),
)


class SpanRecorder:
    """In-memory spans with per-thread parents and round attribution."""

    def __init__(self) -> None:
        self.spans: List[Dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._rounds_started = 0
        self._open_round: Optional[Dict] = None

    def wrap(self, func, name: str):
        """``func`` with a span named ``name`` around every call."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            with self._lock:
                if name == "engine.round":
                    span = {"round": self._rounds_started}
                    self._rounds_started += 1
                else:
                    # Innermost open span on this thread, else the round in
                    # flight (shard RPCs run on the engine's pool threads).
                    owner = stack[-1] if stack else self._open_round
                    if owner is None:
                        span = {"round": self._rounds_started, "parent": None}
                    else:
                        span = {"round": owner["round"], "parent": owner["id"]}
                span["id"] = len(self.spans)
                span["name"] = name
                if name == "shards.call" and args[2:3]:
                    span["op"] = args[2]
                self.spans.append(span)
                if name == "engine.round":
                    self._open_round = span
            stack.append(span)
            span["start"] = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                if name == "engine.round":
                    self._open_round = None

        return traced

    def install(self) -> None:
        """Patch every boundary in :data:`BOUNDARIES`."""
        for module_name, class_name, attr, name in BOUNDARIES:
            module = importlib.import_module(module_name)
            owner = module if class_name is None else getattr(module, class_name)
            setattr(owner, attr, self.wrap(getattr(owner, attr), name))


def main(argv: List[str]) -> int:
    """Trace one ``serve`` run; returns its exit code."""
    spans_path, serve_argv = argv[0], argv[1:]
    recorder = SpanRecorder()
    recorder.install()
    from repro.cli import main as repro_main

    code = repro_main(serve_argv)
    with open(spans_path, "w") as fh:
        json.dump(recorder.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
