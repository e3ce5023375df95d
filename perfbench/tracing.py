"""In-memory span recorder for traced benchmark runs.

Spans are recorded from the benchmark's side only: one around each
public call the benchmark makes, and one around every
``numpy.linalg.eigvalsh``/``eigh`` call made inside it, by swapping
those two functions on the ``numpy.linalg`` module for the duration of a
traced pass.  Spans stay in memory and are written out once, at the end
of the run, with each span's self time (its duration minus its
children's).
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
import tracemalloc
from pathlib import Path

import numpy as np

_COUNTED = ("eigvalsh", "eigh")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._saved: dict[str, object] = {}
        self._t0 = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Record ``name`` around the block; the innermost open span is its parent."""
        parent = self._stack[-1] if self._stack else None
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": None if parent is None else parent["id"],
            "op": None if parent is None else parent["op"],
            **attrs,
            "start": time.perf_counter() - self._t0,
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self._t0
            self._stack.pop()

    @contextlib.contextmanager
    def op_span(self, name: str, peak: bool, **attrs):
        """Span around one operation; with ``peak``, its tracemalloc peak in bytes."""
        if peak:
            tracemalloc.start()
        try:
            with self.span(name, **attrs) as rec:
                yield rec
        finally:
            if peak:
                rec["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()

    def count_linalg(self) -> None:
        """Wrap ``numpy.linalg.eigvalsh``/``eigh`` so calls inside a span are recorded."""
        for name in _COUNTED:
            fn = getattr(np.linalg, name)
            self._saved[name] = fn
            setattr(np.linalg, name, self._wrap(name, fn))

    def restore_linalg(self) -> None:
        for name, fn in self._saved.items():
            setattr(np.linalg, name, fn)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            if not self._stack:
                return fn(a, *args, **kwargs)
            with self.span(f"numpy.linalg.{name}", dim=int(np.shape(a)[-1])):
                return fn(a, *args, **kwargs)
        return counted

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the durations of its direct children, in seconds."""
        out = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end"] - s["start"]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({**s, "self_ms": own[s["id"]] * 1e3}, sort_keys=True) + "\n")
