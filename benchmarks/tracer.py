"""Span tracing around the calls into genzsl's modules, installed from outside.

A :class:`Tracer` replaces chosen module functions (and two class attributes)
with wrappers that record one span per call: the function's name, the span
that was open when it was called (its parent), and start and end times from
``time.perf_counter_ns``. Spans stay in memory; :meth:`Tracer.dump` writes
them out once the run is over. Counters ride along for work that is too fine
for a span (tape nodes created) or is measured rather than timed (bytes read
and written, bytes of score matrices computed).

The program itself is untouched: :meth:`Tracer.uninstall` puts every
original object back, so traced and untraced operations can alternate in
one process.
"""

from __future__ import annotations

import gzip
import os
import time
from collections import defaultdict

# span record fields; a parent is an index into the same operation's spans
NAME, PARENT, START, END = range(4)
NO_PARENT = -1


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    that its direct children cover. Overlapping or out-of-bounds children
    are clipped and merged, so no instant is subtracted twice."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[PARENT] != NO_PARENT:
            children[span[PARENT]].append(i)
    out = []
    for i, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0
        cursor = start
        for lo, hi in sorted((spans[c][START], spans[c][END]) for c in children[i]):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def summarize(spans, names):
    """Per function name: inclusive time (outermost calls only, so recursion
    is not counted twice), self time and call count. Times in ns."""
    selfs = self_times(spans)
    total = defaultdict(int)
    own = defaultdict(int)
    calls = defaultdict(int)
    for i, span in enumerate(spans):
        name = names[span[NAME]]
        calls[name] += 1
        own[name] += selfs[i]
        parent = span[PARENT]
        while parent != NO_PARENT and spans[parent][NAME] != span[NAME]:
            parent = spans[parent][PARENT]
        if parent == NO_PARENT:
            total[name] += span[END] - span[START]
    return {name: {"ns": total[name], "self_ns": own[name], "calls": calls[name]}
            for name in calls}


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list[int]] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.current = NO_PARENT
        self.op = 0
        self.finished: list[tuple[int, list]] = []
        self._originals: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def time(self, owner, attr: str, name: str, count=None) -> None:
        """Wrap ``owner.attr`` so each call records a span called `name`.
        `count(args, kwargs)` may return (counter, amount) to add per call."""
        fn = getattr(owner, attr)
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        tracer = self
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if count is not None:
                key, amount = count(args, kwargs)
                tracer.counters[key] += amount
            spans = tracer.spans
            parent = tracer.current
            record = [name_id, parent, 0, 0]
            tracer.current = len(spans)
            spans.append(record)
            record[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = clock()
                tracer.current = parent

        wrapper.__wrapped__ = fn
        self._replace(owner, attr, wrapper)

    def count_calls(self, owner, attr: str, counter: str) -> None:
        """Wrap ``owner.attr`` so each call adds one to `counter`, with no span."""
        fn = getattr(owner, attr)
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        self._replace(owner, attr, wrapper)

    def count_file_bytes(self, owner, attr: str, counter: str, path_of) -> None:
        """Wrap ``owner.attr`` so each call adds the size of the file
        `path_of(args)` names, measured after the call, to `counter`."""
        fn = getattr(owner, attr)
        counters = self.counters

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counters[counter] += os.path.getsize(path_of(args))
            return result

        wrapper.__wrapped__ = fn
        self._replace(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def begin_op(self, op: int) -> None:
        """Start recording the spans and counters of operation `op`."""
        self.op = op
        self.spans = []
        self.counters.clear()
        self.current = NO_PARENT

    def end_op(self):
        """Summary (see :func:`summarize`) and counters of the current
        operation. Its spans are kept for :meth:`dump`."""
        self.finished.append((self.op, self.spans))
        return summarize(self.spans, self.names), dict(self.counters)

    def dump(self, path: str) -> None:
        """Write every finished operation's spans as gzipped CSV. Span and
        parent numbers count within their operation; -1 marks a root."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("op,span,parent,name,start_ns,end_ns\n")
            for op, spans in self.finished:
                for i, s in enumerate(spans):
                    fh.write(f"{op},{i},{s[PARENT]},{self.names[s[NAME]]},"
                             f"{s[START]},{s[END]}\n")
