"""In-memory spans around the benchmark's calls into mub6.

A span is a dict with an id, a name (``<module>.<function>`` for calls into
the package, ``op`` for one benchmark operation), start and end times from
``time.perf_counter``, the id of the enclosing span and free-form attrs.
Spans stay in memory and are written out once, when the run ends.  With the
tracer disabled ``span`` records nothing and yields a scratch dict nobody
reads, so the untraced run executes the same benchmark code.
"""

from __future__ import annotations

import contextlib
import json
import time

_NULL = contextlib.nullcontext({"attrs": {}})


class Tracer:
    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.phase = "workload"
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def span(self, name: str, **attrs):
        """Context manager recording one span; yields the span dict so the
        caller can attach counts measured inside it."""
        if not self.enabled:
            return _NULL
        return self._record(name, attrs)

    @contextlib.contextmanager
    def _record(self, name, attrs):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "phase": self.phase,
            "attrs": attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh, default=str)
