"""In-memory span recorder that wraps functions from the outside.

A span is one call of a wrapped function: its name, wall-clock start and
end (``time.perf_counter``, which is CLOCK_MONOTONIC on Linux and so
comparable across the processes of one pipeline), process CPU time, the
index of the enclosing span on the same thread, the run id, and optional
counts computed from the call's arguments and result. Spans stay in memory
and are written out once, as JSON lines, when the traced process ends.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from typing import Any, Callable

# Computes named counts from (args, kwargs, result) of one wrapped call.
CountFn = Callable[[tuple, dict, Any], dict]


class Tracer:
    """Collects spans for one process; pass it to whatever installs wrappers."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._local = threading.local()
        self._main = threading.get_ident()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, counts: CountFn | None = None) -> Callable:
        """Return ``fn`` wrapped so that each call records one span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            index = len(self.spans)
            span = {
                "name": name,
                "run": self.run_id,
                "parent": stack[-1] if stack else -1,
                "main_thread": threading.get_ident() == self._main,
            }
            self.spans.append(span)
            stack.append(index)
            cpu0 = time.process_time()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                span["cpu"] = time.process_time() - cpu0
                span["start"], span["end"] = start, end
                stack.pop()
            if counts is not None:
                span["counts"] = counts(args, kwargs, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def load_spans(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    ``spans`` is one process's list, so ``parent`` indexes into it.
    """
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            own[s["parent"]] -= s["end"] - s["start"]
    return own
