"""In-memory spans, recorded by wrapping dualpath functions at their import sites.

A span is `[id, parent id, name, start, end]`; all spans of one process
share the recorder's run id. A site is `"module:attribute"` (the
attribute may be `Class.method`). Wrapping swaps that attribute for a
timing shim and `uninstall` puts the original back, so the program's
source is never edited and only the process that installs a site pays
for it. A site whose name no longer resolves fails loudly.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager


class BenchError(RuntimeError):
    """The benchmark no longer matches the program it measures."""


class Recorder:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[list] = []
        self._installed: list[tuple[object, str, object]] = []

    def open(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        span = [len(self.spans), parent, name, time.perf_counter(), None]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[4] = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise BenchError(f"span {span[2]} closed out of order (open: {popped[2]})")

    @contextmanager
    def span(self, name: str):
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    def wrap(self, site: str, name: str, rename=None, after=None) -> None:
        """Record a span around every call of `site`.

        `rename(result)` may replace the span name once the call returns;
        `after(args, result)` runs outside the span, for output checks.
        """
        owner, attr = _resolve(site)
        original = getattr(owner, attr)
        rec = self

        @functools.wraps(original)
        def shim(*args, **kwargs):
            s = rec.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                rec.close(s)
            if rename is not None:
                s[2] = rename(result)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, shim)
        self._installed.append((owner, attr, original))

    def patch(self, site: str, make_shim) -> None:
        """Replace `site` with `make_shim(original)`; restored by `uninstall`."""
        owner, attr = _resolve(site)
        original = getattr(owner, attr)
        setattr(owner, attr, functools.wraps(original)(make_shim(original)))
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"run": self.run_id, "id": sid, "parent": parent, "name": name,
                         "start": start, "end": end}
                    )
                    + "\n"
                )


def _resolve(site: str) -> tuple[object, str]:
    module_name, _, path = site.partition(":")
    try:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        getattr(owner, attr)
    except (ImportError, AttributeError) as err:
        raise BenchError(f"traced site {site} no longer exists: {err}") from None
    return owner, attr


class SpanTable:
    """Per-root totals, call durations and self times of a recorder's spans.

    A root is a span with no parent (one set-up or one timed iteration).
    Self time is a span's duration minus the time its direct children cover.
    """

    def __init__(self, spans: list[list]):
        child_time: dict[int, float] = defaultdict(float)
        self.root_of: dict[int, int] = {}
        self.by_name: dict[str, list[list]] = defaultdict(list)
        for span in spans:
            sid, parent, name, start, end = span
            self.root_of[sid] = sid if parent < 0 else self.root_of[parent]
            self.by_name[name].append(span)
            if parent >= 0:
                child_time[parent] += end - start
        self.self_time = {s[0]: (s[4] - s[3]) - child_time[s[0]] for s in spans}

    def in_roots(self, roots: set[int], name: str) -> list[list]:
        return [s for s in self.by_name.get(name, ()) if self.root_of[s[0]] in roots]

    def per_root(self, roots: list[int], name: str, self_only: bool = False) -> list[float]:
        """Seconds spent in spans called `name`, one total per root."""
        totals = {r: 0.0 for r in roots}
        for s in self.in_roots(set(roots), name):
            totals[self.root_of[s[0]]] += self.self_time[s[0]] if self_only else s[4] - s[3]
        return [totals[r] for r in roots]

    def count(self, roots: list[int], name: str) -> int:
        return len(self.in_roots(set(roots), name))


def median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0
