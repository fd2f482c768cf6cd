"""Spans for the traced benchmark run.

The tracer wraps callables the package exposes (layer instances' forward
and backward, module functions, the optimizer's step) so that each call
records a span: name, start, end, parent and an optional count. Spans stay
in memory until the run ends. Nothing under the package changes: wrapping
replaces an attribute and `uninstall` puts the original back.

A span's self time is its duration minus the durations of its child spans.
Calls are single-threaded and nested, so children never overlap and the
self times of a root span's subtree add up to the root's duration.
"""

from __future__ import annotations

import json
import time

NAME, START, END, PARENT, COUNT = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, fn, name: str, count=None):
        """fn wrapped to record a span; count(*args) gives the span's count."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1,
                          count(*args, **kwargs) if count else 0])
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][START] = start
                spans[idx][END] = end

        return traced

    def patch(self, owner, attr: str, name: str, count=None):
        """Replace owner.attr (module, class or instance) by a traced wrapper."""
        own = vars(owner)
        self._undo.append((owner, attr, attr in own, own.get(attr)))
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, count))

    def uninstall(self):
        while self._undo:
            owner, attr, had_own, old = self._undo.pop()
            if had_own:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)

    def write(self, path: str):
        with open(path, "w") as f:
            for i, (name, start, end, parent, count) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                    "parent": parent, "count": count}) + "\n")


def self_times(spans) -> list[float]:
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    return [(s[END] - s[START]) - c for s, c in zip(spans, covered)]


def roots(spans) -> list[int]:
    """Index of each span's root; parents always precede their children."""
    out = []
    for i, span in enumerate(spans):
        out.append(i if span[PARENT] < 0 else out[span[PARENT]])
    return out


def summarize(spans, root_name: str):
    """Per-name totals over the subtrees of the root spans called root_name.

    Returns (roots_seen, {name: self seconds}, {name: calls},
    {name: count sum}, worst |sum of self times - root duration| in s).
    """
    selfs = self_times(spans)
    root_of = roots(spans)
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    subtree_self: dict[int, float] = {}
    for i, span in enumerate(spans):
        r = root_of[i]
        if spans[r][NAME] != root_name:
            continue
        name = span[NAME]
        self_s[name] = self_s.get(name, 0.0) + selfs[i]
        calls[name] = calls.get(name, 0) + 1
        counts[name] = counts.get(name, 0) + span[COUNT]
        subtree_self[r] = subtree_self.get(r, 0.0) + selfs[i]
    gap = max((abs(total - (spans[r][END] - spans[r][START]))
               for r, total in subtree_self.items()), default=0.0)
    return len(subtree_self), self_s, calls, counts, gap
