"""A fixed task that measures how fast the host runs right now.

The benchmark's host is shared: from one second to the next it runs at
anything from full speed to half of it, and every time the program takes
moves with it. The benchmark therefore times this task before every set-up
and operation and after the last one, and scales each set-up and operation
by ``NOMINAL_MS / (mean task time just before and just after it)``. The
slowdown cancels as far as the task slows down the way the program does, so
the task mirrors the program's mix of work: a reverse-mode tape of small
objects and closures over float64 products of a 64-row batch, swept in
topological order. It does not import the program, so a change to the
program cannot change the scale.
"""

from __future__ import annotations

import time

import numpy as np

# the task's median on the host the benchmark was defined on (2-core x86_64),
# so that scaled times stay close to real milliseconds there
NOMINAL_MS = 17.0


class _Node:
    __slots__ = ("value", "parents", "vjp")

    def __init__(self, value, parents=(), vjp=None):
        self.value = value
        self.parents = parents
        self.vjp = vjp


def _matmul(a, b):
    return _Node(a.value @ b.value, (a, b), lambda g: (g @ b.value.T, a.value.T @ g))


def _add_bias(a, b):
    return _Node(a.value + b.value, (a, b), lambda g: (g, g.sum(axis=0)))


def _leaky(a):
    gate = np.where(a.value > 0.0, 1.0, 0.2)
    return _Node(a.value * gate, (a,), lambda g: (g * gate,))


def _mean_square(a):
    return _Node(np.asarray((a.value ** 2).mean()), (a,),
                 lambda g: (g * 2.0 * a.value / a.value.size,))


def _backward(root) -> None:
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node.parents if id(p) not in seen)
    grads = {id(root): np.ones_like(root.value)}
    for node in reversed(order):
        g = grads.get(id(node))
        if g is not None and node.vjp is not None:
            for parent, pg in zip(node.parents, node.vjp(g)):
                acc = grads.get(id(parent))
                grads[id(parent)] = pg if acc is None else acc + pg


class SpeedReference:
    """Times the fixed task and turns the timings into a scale factor."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((64, 32))
        self.w1 = rng.standard_normal((32, 64)) / 6.0
        self.b1 = np.zeros(64)
        self.w2 = rng.standard_normal((64, 32)) / 8.0
        self.times_ms: list[float] = []

    def measure(self) -> None:
        t0 = time.perf_counter()
        for _ in range(40):
            w1, b1, w2 = _Node(self.w1), _Node(self.b1), _Node(self.w2)
            h = _Node(self.x)
            for _ in range(3):
                h = _matmul(_leaky(_add_bias(_matmul(h, w1), b1)), w2)
            _backward(_mean_square(h))
        self.times_ms.append(1e3 * (time.perf_counter() - t0))

    def scale(self, i: int) -> float:
        """Factor that turns the time of the i-th timed item (set-ups, then
        operations) into nominal time; measure() ran before and after it."""
        return 2.0 * NOMINAL_MS / (self.times_ms[i] + self.times_ms[i + 1])
