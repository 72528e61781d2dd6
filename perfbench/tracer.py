"""In-memory span tracer that instruments shrinkset from outside its source.

Each traced function is replaced at every module attribute that refers to
it, which is where its callers look it up at call time, and class methods
are replaced on the class.  Nothing is patched while tracing is off, so
untraced runs execute the library exactly as shipped.

A span is [name, start, end, parent, op]: parent is the index of the
enclosing span (-1 at top level) and op the id of the benchmark operation
that caused it.  Count-only targets are hot sub-microsecond calls whose
timing would cost more than the call; they only bump a counter.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []

    def timed(self, name: str, fn, on_result=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        key = name + ".calls"
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(record)
            counts[key] += 1
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(counts, args, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self, targets):
        """Patch every target for the body of a with statement.

        A target is (owner, attribute, span name, timed, on_result); owner
        is a module (all shrinkset modules holding the same object are
        patched too) or a class.
        """
        patches = []
        for owner, attr, name, timed, on_result in targets:
            original = getattr(owner, attr)
            wrapper = (
                self.timed(name, original, on_result)
                if timed
                else self.counted(name, original)
            )
            if isinstance(owner, type):
                holders = [owner]
            else:
                holders = [
                    mod
                    for key, mod in list(sys.modules.items())
                    if key.split(".")[0] == "shrinkset"
                    and getattr(mod, attr, None) is original
                ]
            for holder in holders:
                patches.append((holder, attr, original))
                setattr(holder, attr, wrapper)
        try:
            yield
        finally:
            for holder, attr, original in reversed(patches):
                setattr(holder, attr, original)
