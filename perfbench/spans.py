"""In-memory span recorder for the traced benchmark run.

Spans are recorded around the calls the benchmark makes into each
layer's public functions (see ``workloads.py``); nothing inside the
program is instrumented. Every span keeps its name, host start and end
(``time.perf_counter`` seconds) and the index of the span that was open
when it began. The list is written out once, when the benchmark ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Spans:
    """An append-only list of ``(name, start, end, parent)`` spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int | None] = []
        self._open: list[int] = []

    def __len__(self) -> int:
        return len(self.names)

    @contextmanager
    def span(self, name: str):
        """Record one span around the ``with`` body; yields its index."""
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else None)
        self.ends.append(float("nan"))
        self._open.append(index)
        self.starts.append(time.perf_counter())
        try:
            yield index
        finally:
            self.ends[index] = time.perf_counter()
            self._open.pop()

    def duration(self, index: int) -> float:
        return self.ends[index] - self.starts[index]

    def children(self, index: int) -> list[int]:
        return [k for k, parent in enumerate(self.parents) if parent == index]

    def self_time(self, index: int) -> float:
        """The span's duration minus the union of its children's
        intervals (clipped to the span), so overlapping children are
        not subtracted twice."""
        return self_time(
            (self.starts[index], self.ends[index]),
            [(self.starts[k], self.ends[k]) for k in self.children(index)])

    def subtree(self, root: int) -> list[int]:
        """``root`` and every span opened beneath it."""
        members = {root}
        for index in range(root + 1, len(self.names)):
            if self.parents[index] in members:
                members.add(index)
        return sorted(members)

    def self_by_name(self, root: int) -> dict[str, float]:
        """Self time of every span in ``root``'s subtree, summed by
        span name."""
        out: dict[str, float] = {}
        for index in self.subtree(root):
            name = self.names[index]
            out[name] = out.get(name, 0.0) + self.self_time(index)
        return out

    def to_dict(self) -> dict:
        return {
            "clock": "time.perf_counter seconds",
            "spans": [
                {"id": k, "name": self.names[k], "start": self.starts[k],
                 "end": self.ends[k], "parent": self.parents[k]}
                for k in range(len(self.names))
            ],
        }

    def save(self, path: Path) -> Path:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict()) + "\n")
        return path


def self_time(interval: tuple[float, float],
              children: list[tuple[float, float]]) -> float:
    """``interval``'s length minus the length of the union of
    ``children`` clipped to it."""
    start, end = interval
    covered = 0.0
    cursor = start
    for child_start, child_end in sorted(children):
        child_start = max(child_start, cursor)
        child_end = min(child_end, end)
        if child_end > child_start:
            covered += child_end - child_start
            cursor = child_end
    return (end - start) - covered
