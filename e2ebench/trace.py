"""In-memory spans recorded around each call the benchmark makes into a layer.

A span has a name, start and end (``time.perf_counter`` seconds), the id of
the span it ran inside, the process CPU seconds it took, and counts taken at
the same boundary (LLM calls and prompt tokens).  Spans stay in memory and
are written out as JSON when the run ends.  A disabled tracer records
nothing, so untraced runs pay for neither clock reads nor meter snapshots.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional


class Tracer:
    """Nested spans with per-span counter deltas."""

    def __init__(
        self, enabled: bool, counters: Optional[Callable[[], Dict[str, float]]] = None
    ) -> None:
        self.enabled = enabled
        self.counters = counters
        self.spans: List[Dict[str, object]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record ``name`` around the body (a no-op when disabled)."""
        if not self.enabled:
            yield
            return
        record: Dict[str, object] = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        before = self.counters() if self.counters else {}
        cpu = time.process_time()
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            record["cpu_s"] = time.process_time() - cpu
            after = self.counters() if self.counters else {}
            record["counts"] = {
                key: after[key] - before.get(key, 0) for key in ("calls", "prompt_tokens")
                if key in after
            }
            self._stack.pop()

    def find(self, name: str, under: Optional[str] = None) -> Optional[Dict[str, object]]:
        """The first span called ``name`` (inside a top-level ``under``)."""
        for record in self.spans:
            if record["name"] == name and (under is None or self.root_of(record)["name"] == under):
                return record
        return None

    def root_of(self, record: Dict[str, object]) -> Dict[str, object]:
        """The top-level span ``record`` ran inside (itself if top-level)."""
        while record["parent"] is not None:
            record = self.spans[record["parent"]]
        return record

    def children(self, record: Dict[str, object]) -> List[Dict[str, object]]:
        """Spans whose parent is ``record``."""
        return [span for span in self.spans if span["parent"] == record["id"]]

    def with_self_times(self) -> List[Dict[str, object]]:
        """Every span, adding ``wall_s`` and ``self_s``.

        Self time is the span's duration minus the time its child spans
        cover; children of one span run one after another, so they never
        overlap and their durations add.
        """
        result = []
        for record in self.spans:
            wall = record["end"] - record["start"]
            covered = sum(child["end"] - child["start"] for child in self.children(record))
            result.append(dict(record, wall_s=wall, self_s=wall - covered))
        return result


def duration(record: Optional[Dict[str, object]]) -> float:
    """A span's wall seconds (0.0 for a span that never ran)."""
    if record is None:
        return 0.0
    return record["end"] - record["start"]
