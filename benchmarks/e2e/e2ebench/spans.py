"""The harness's own in-memory span recorder.

Spans wrap each call the harness makes into a layer and each probe:
name, start, end, the span that caused it, and a run id shared by every
span of one benchmark run.  They stay in memory and are written out
once, when the run ends.  Spans *inside* the program are a later change
(ROADMAP observability); until then a layer's self time here is the
span's duration minus the part its child spans cover.
"""
# decolint: disable-file=DL001

from __future__ import annotations

import json
import time
import uuid
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Records nested spans; ``enabled=False`` records nothing, which
    is how end-to-end rounds run with tracing off."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.run_id = uuid.uuid4().hex[:12]
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent,
                               attrs=attrs))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s.duration for s in self.spans if s.name == name)

    def self_times(self) -> dict[str, float]:
        """Per-name self time: duration minus direct children."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.duration
        out: dict[str, float] = {}
        for s, child_s in zip(self.spans, covered, strict=True):
            out[s.name] = out.get(s.name, 0.0) + s.duration - child_s
        return out

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for index, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "run": self.run_id, "id": index, "parent": s.parent,
                    "name": s.name, "start": s.start, "end": s.end,
                    **s.attrs}) + "\n")
