"""In-memory span tracer that wraps public functions at their call sites.

A span is recorded at the module attribute the caller looks up (for example
``bdris.solver.snapshot``, which is the name ``solver.run`` calls), so the
library itself is untouched.  Spans are kept as ``[name, start, end,
parent]`` lists; a span's self time is its duration minus the durations of
its children.  Everything runs on one thread, so children of one parent
never overlap and the stack of open spans gives the parent.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict


class Tracer:
    """Install wrappers, collect spans and counts, and remove the wrappers."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._open = []
        self._patches = []   # (owner, attribute, original)

    # -- wrappers -----------------------------------------------------------

    def span(self, owner, attr, name, after=None):
        """Record a span ``name`` around every call of ``owner.attr``.

        ``after(args, kwargs, result)`` runs inside the span once the call
        returned, for counts that need the call's inputs and output.
        """
        fn = getattr(owner, attr)
        spans, stack = self.spans, self._open

        def wrapper(*args, **kwargs):
            rec = [name, time.perf_counter(), None, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result)
                return result
            finally:
                stack.pop()
                rec[2] = time.perf_counter()

        self._patch(owner, attr, fn, wrapper)

    def count(self, owner, attr, name):
        """Count calls of ``owner.attr`` under ``name`` without a span."""
        fn = getattr(owner, attr)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        self._patch(owner, attr, fn, wrapper)

    def _patch(self, owner, attr, fn, wrapper):
        self._patches.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def remove(self):
        """Restore every wrapped attribute; raise if one was not restored."""
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        left = [f"{getattr(o, '__name__', o)}.{a}" for o, a, fn in self._patches
                if getattr(o, a) is not fn]
        self._patches.clear()
        if left:
            raise RuntimeError(f"wrappers still installed: {left}")

    # -- analysis -----------------------------------------------------------

    def check(self):
        """Problems with the span tree, as a list of messages (empty if none).

        Every span is closed, lies inside its parent, and starts after its
        previous sibling ended, so children never add up to more than the
        parent.
        """
        problems = []
        if self._open:
            problems.append(f"{len(self._open)} spans still open")
        last_end = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            if end is None or end < start:
                problems.append(f"span {i} ({name}) not closed")
                continue
            if parent >= 0:
                _, p_start, p_end, _ = self.spans[parent]
                if start < p_start or (p_end is not None and end > p_end):
                    problems.append(f"span {i} ({name}) exceeds its parent")
            if start < last_end.get(parent, start):
                problems.append(f"span {i} ({name}) overlaps its sibling")
            last_end[parent] = end
        return problems

    def self_times(self):
        """Self times in seconds, grouped by span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(list)
        for (name, start, end, _), c in zip(self.spans, child):
            out[name].append(end - start - c)
        return out
