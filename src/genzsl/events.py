"""Degenerate-event bookkeeping.

Some operations hit points where a derivative is undefined (vector norm at
zero) or a score is undefined (cosine of a zero vector). The convention is to
substitute a safe value and record the event here instead of failing, so
training can proceed while the incident stays observable.

There is one tally per process; parallel sweep workers are processes, so
each keeps its own.
"""

from __future__ import annotations

from collections import Counter

_counts: Counter = Counter()


def record(name: str) -> None:
    _counts[name] += 1


def counts() -> dict[str, int]:
    return dict(_counts)
