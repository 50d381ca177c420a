"""Dense float64 matrix math with a small reverse-mode differentiation engine.

The engine is a single-use tape: every operation allocates a `Node` holding
its forward value and a closure that maps the upstream gradient onto the
operand gradients. Calling :func:`grad_scalar` on a scalar-valued expression
runs one reverse sweep and returns a gradient per named parameter.

Most of the time goes to Python dispatch per node, not to arithmetic, so a
dense layer is one fused node (:func:`dense`), and a batch that several
terms read goes through the network once, each term reading its rows
(:func:`row_slice`).

Second-order support is deliberately narrow. The only place a derivative of
a derivative is needed is the critic's Lipschitz penalty, and there the
input gradient of a leaky-rectifier stack has a closed form that can itself
be written with first-order tape operations
(:func:`critic_input_gradient`). One ordinary reverse sweep over that
expression yields the penalty's parameter gradients, so no general
higher-order machinery exists here.

Conventions:
  * every value is a float64 ndarray (scalars are 0-d arrays);
  * the leaky rectifier uses the negative-slope branch at exactly 0, so
    tie-breaking is deterministic;
  * vector-norm gradients below 1e-12 are substituted with zero and logged
    through :mod:`genzsl.events` instead of dividing by zero.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

import numpy as np

from . import events
from .errors import DimensionError, NumericOverflowError, ValidationError

NORM_EPS = 1e-12


def as_tensor(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


# ---------------------------------------------------------------------------
# tape nodes


class Node:
    """One tape entry: a forward value plus the reverse-map to its parents."""

    __slots__ = ("value", "parents", "vjp", "grad", "const")

    def __init__(self, value, parents=(), vjp=None, const=False):
        self.value = value
        self.parents = parents
        self.vjp = vjp
        self.grad = None
        self.const = const


def constant(x) -> Node:
    return Node(as_tensor(x), const=True)


def leaf(x) -> Node:
    """A differentiable leaf (parameter); backward() leaves its grad set."""
    return Node(as_tensor(x))


def _lift(x) -> Node:
    return x if isinstance(x, Node) else constant(x)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, size in enumerate(shape):
        if size == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def backward(root: Node) -> None:
    """Reverse sweep seeding d(root)/d(root) = 1; accumulates `.grad` on leaves."""
    topo: list[Node] = []
    seen: set[Node] = set()  # nodes hash by identity
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        for p in node.parents:
            if p not in seen and not p.const:
                stack.append((p, False))

    grads: dict[Node, np.ndarray] = {root: np.ones_like(root.value)}
    for node in reversed(topo):
        g = grads.get(node)
        if g is None:
            continue
        if node.vjp is None:
            node.grad = g if node.grad is None else node.grad + g
            continue
        for parent, pg in zip(node.parents, node.vjp(g)):
            if pg is None or parent.const:
                continue
            acc = grads.get(parent)
            grads[parent] = pg if acc is None else acc + pg


# ---------------------------------------------------------------------------
# primitive operations


def add(a, b) -> Node:
    a, b = _lift(a), _lift(b)
    return Node(
        a.value + b.value,
        (a, b),
        lambda g: (_unbroadcast(g, a.value.shape), _unbroadcast(g, b.value.shape)),
    )


def sub(a, b) -> Node:
    a, b = _lift(a), _lift(b)
    return Node(
        a.value - b.value,
        (a, b),
        lambda g: (_unbroadcast(g, a.value.shape), _unbroadcast(-g, b.value.shape)),
    )


def neg(a) -> Node:
    a = _lift(a)
    return Node(-a.value, (a,), lambda g: (-g,))


def mul(a, b) -> Node:
    a, b = _lift(a), _lift(b)
    return Node(
        a.value * b.value,
        (a, b),
        lambda g: (
            _unbroadcast(g * b.value, a.value.shape),
            _unbroadcast(g * a.value, b.value.shape),
        ),
    )


def matmul(a, b) -> Node:
    a, b = _lift(a), _lift(b)
    return Node(
        a.value @ b.value,
        (a, b),
        lambda g: (g @ b.value.T, a.value.T @ g),
    )


def transpose(a) -> Node:
    a = _lift(a)
    return Node(a.value.T, (a,), lambda g: (g.T,))


def reshape(a, shape) -> Node:
    a = _lift(a)
    old = a.value.shape
    return Node(a.value.reshape(shape), (a,), lambda g: (g.reshape(old),))


def concat_cols(a, b) -> Node:
    a, b = _lift(a), _lift(b)
    split = a.value.shape[1]
    return Node(
        np.hstack((a.value, b.value)),
        (a, b),
        lambda g: (g[:, :split], g[:, split:]),
    )


def vsum(a, axis=None) -> Node:
    a = _lift(a)
    shape = a.value.shape

    def vjp(g):
        if axis is None:
            return (np.full(shape, g),)
        return (np.broadcast_to(np.expand_dims(g, axis), shape).copy(),)

    return Node(a.value.sum(axis=axis), (a,), vjp)


def vmean(a, axis=None) -> Node:
    a = _lift(a)
    shape = a.value.shape
    count = a.value.size if axis is None else shape[axis]

    def vjp(g):
        if axis is None:
            return (np.full(shape, g / count),)
        return (np.broadcast_to(np.expand_dims(g / count, axis), shape).copy(),)

    return Node(np.asarray(a.value.mean(axis=axis)), (a,), vjp)


def square(a) -> Node:
    a = _lift(a)
    return Node(a.value * a.value, (a,), lambda g: (2.0 * a.value * g,))


def log(a) -> Node:
    a = _lift(a)
    return Node(np.log(a.value), (a,), lambda g: (g / a.value,))


def softplus(a) -> Node:
    a = _lift(a)
    out = np.logaddexp(0.0, a.value)
    sig = 1.0 / (1.0 + np.exp(-a.value))
    return Node(out, (a,), lambda g: (g * sig,))


def _gate(positive: np.ndarray, slope: float) -> np.ndarray:
    """The leaky rectifier's derivative factor: 1 where `positive`, else
    `slope`. A table lookup, which beats a branchy `np.where` here."""
    return np.array((slope, 1.0)).take(positive.view(np.uint8))


def leaky_relu(a, slope: float = 0.2) -> Node:
    a = _lift(a)
    gate = _gate(a.value > 0.0, slope)
    return Node(a.value * gate, (a,), lambda g: (g * gate,))


def softmax_rows(logits) -> Node:
    logits = _lift(logits)
    z = logits.value - logits.value.max(axis=1, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=1, keepdims=True)

    def vjp(g):
        return (s * (g - (g * s).sum(axis=1, keepdims=True)),)

    return Node(s, (logits,), vjp)


def cross_entropy_rows(logits, onehot) -> Node:
    """Per-row negative log-likelihood of the one-hot targets, fused with the
    softmax for stability. Returns a length-B vector."""
    logits, onehot = _lift(logits), _lift(onehot)
    z = logits.value - logits.value.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1)) + logits.value.max(axis=1)
    nll = lse - (logits.value * onehot.value).sum(axis=1)
    soft = np.exp(logits.value - lse[:, None])

    def vjp(g):
        return ((soft - onehot.value) * g[:, None], None)

    return Node(nll, (logits, onehot), vjp)


def row_norm(a) -> Node:
    """Euclidean norm of each row. Rows with norm below 1e-12 get a zero
    gradient (the norm is not differentiable at 0) and raise a degenerate
    event; their forward value passes through unchanged."""
    a = _lift(a)
    n = np.sqrt((a.value * a.value).sum(axis=1))
    degenerate = n < NORM_EPS
    if degenerate.any():
        events.record("degenerate_gradient_penalty")
    safe = np.where(degenerate, 1.0, n)

    def vjp(g):
        scale = np.where(degenerate, 0.0, g / safe)
        return (scale[:, None] * a.value,)

    return Node(n, (a,), vjp)


def row_norm_inv(a) -> Node:
    """1 / row norm, with degenerate rows mapped to 0 (and logged)."""
    a = _lift(a)
    n = np.sqrt((a.value * a.value).sum(axis=1))
    degenerate = n < NORM_EPS
    if degenerate.any():
        events.record("degenerate_zero_norm")
    inv = np.where(degenerate, 0.0, 1.0 / np.where(degenerate, 1.0, n))

    def vjp(g):
        scale = np.where(degenerate, 0.0, g * inv**3)
        return (-scale[:, None] * a.value,)

    return Node(inv, (a,), vjp)


def minmax_normalize_node(values) -> Node:
    """Batch min-max rescaling to [0, 1]; a constant batch maps to zeros.

    Subgradients at the min/max positions route through the first attaining
    index so repeated evaluation is deterministic.
    """
    v = _lift(values)
    x = v.value
    i_min = int(np.argmin(x))
    i_max = int(np.argmax(x))
    span = x[i_max] - x[i_min]
    if span < 1e-12:
        return Node(np.zeros_like(x), (v,), lambda g: (np.zeros_like(x),))
    out = (x - x[i_min]) / span

    def vjp(g):
        gx = g / span
        gx_min = gx.copy()
        gx_min[i_min] -= gx.sum()
        corr = (g * out).sum() / span
        gx_min[i_max] -= corr
        gx_min[i_min] += corr
        return (gx_min,)

    return Node(out, (v,), vjp)


# ---------------------------------------------------------------------------
# fused dense layers and the Lipschitz penalty


def dense(x, W, b=None, slope=None) -> Node:
    """`x @ W + b`, through the leaky rectifier when `slope` is given, as one
    tape node. Its value and gradients are bit-identical to the composed
    matmul/add/leaky_relu; the reverse map skips constant operands."""
    x, W = _lift(x), _lift(W)
    z = x.value @ W.value
    parents = (x, W)
    if b is not None:
        b = _lift(b)
        z = z + b.value
        parents = (x, W, b)
    gate = None if slope is None else _gate(z > 0.0, slope)
    out = z if gate is None else z * gate

    def vjp(g):
        if gate is not None:
            g = g * gate
        grads = (None if x.const else g @ W.value.T,
                 None if W.const else x.value.T @ g)
        return grads if b is None else grads + (g.sum(axis=0),)

    return Node(out, parents, vjp)


def dense_input_grad(g, W, gate=None) -> Node:
    """`(g * gate) @ W.T`, the reverse map of a dense layer onto its input,
    as one tape node that is itself differentiable in `g` and `W` (the gate
    is a constant array of the shape of `g`)."""
    g, W = _lift(g), _lift(W)
    gg = g.value if gate is None else g.value * gate

    def vjp(u):
        gu = None
        if not g.const:
            gu = u @ W.value
            if gate is not None:
                gu = gu * gate
        return (gu, None if W.const else u.T @ gg)

    return Node(gg @ W.value.T, (g, W), vjp)


def row_slice(a, start: int, stop: int) -> Node:
    """Rows `start:stop` of `a`; the whole of `a` is returned as it is."""
    a = _lift(a)
    if start == 0 and stop == len(a.value):
        return a

    def vjp(g):
        full = np.zeros_like(a.value)
        full[start:stop] = g
        return (full,)

    return Node(a.value[start:stop], (a,), vjp)


def critic_input_gradient(weights, activations, slope: float = 0.2) -> Node:
    """Input gradient of a scalar critic made of leaky-rectified dense layers
    and a linear head, as a tape expression.

    `weights` are the weight matrices from the input to the head, and
    `activations` the input rows followed by each hidden layer's output at
    those rows, as plain arrays. A rectifier with a non-negative slope keeps
    the sign of its input, so each layer's gate is read off its output; the
    gate is piecewise constant, so it enters the expression as a constant.
    A reverse sweep over anything derived from the result (such as the
    Lipschitz penalty) yields its gradients with respect to the weights.
    """
    if len(weights) != len(activations):
        raise DimensionError(f"{len(weights)} weight matrices for "
                             f"{len(activations)} layer inputs")
    head = _lift(weights[-1])
    if head.value.ndim != 2 or head.value.shape[1] != 1:
        raise DimensionError(f"critic head must have output width 1, got {head.value.shape}")
    g = dense_input_grad(constant(np.ones((len(activations[0]), 1))), head)
    for W, h in zip(reversed(weights[:-1]), reversed(activations[1:])):
        g = dense_input_grad(g, W, _gate(h > 0.0, slope))
    return g


def lipschitz_penalty_node(weights, activations, slope: float = 0.2) -> Node:
    """Mean squared deviation of the critic's input-gradient norm from 1;
    the arguments are those of :func:`critic_input_gradient`."""
    g = critic_input_gradient(weights, activations, slope)
    return vmean(square(sub(row_norm(g), 1.0)))


# ---------------------------------------------------------------------------
# parameter stores and public gradient operations


class ParamStore:
    """Named parameter tensors with deterministic (insertion) order."""

    def __init__(self, items: Mapping[str, np.ndarray] | Iterable = ()):
        self._data: dict[str, np.ndarray] = {}
        pairs = items.items() if isinstance(items, Mapping) else items
        for name, value in pairs:
            self.add(name, value)

    def add(self, name: str, value) -> None:
        if name in self._data:
            raise ValidationError(f"duplicate parameter name {name!r}")
        self._data[name] = as_tensor(value)

    def __getitem__(self, name: str) -> np.ndarray:
        return self._data[name]

    def __contains__(self, name: str) -> bool:
        return name in self._data

    def __iter__(self):
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def names(self) -> list[str]:
        return list(self._data)

    def items(self):
        return self._data.items()

    def copy(self) -> "ParamStore":
        return ParamStore((k, v.copy()) for k, v in self._data.items())

    def size(self) -> int:
        return sum(v.size for v in self._data.values())


class AdamState:
    """First/second moment estimates plus the shared step counter; zero
    moments for every parameter of `params`, or none without it."""

    def __init__(self, params: ParamStore | None = None):
        self.m = {k: np.zeros_like(v) for k, v in (params or {}).items()}
        self.v = {k: np.zeros_like(v) for k, v in (params or {}).items()}
        self.step = 0


def adam_step(
    params: ParamStore,
    grads: Mapping[str, np.ndarray],
    state: AdamState,
    lr: float = 0.001,
    beta1: float = 0.5,
    beta2: float = 0.9,
    eps: float = 1e-8,
) -> tuple[ParamStore, AdamState]:
    """One bias-corrected Adam update. Returns fresh params and state; the
    inputs are left untouched."""
    if lr <= 0:
        raise ValidationError("lr must be positive")
    if not (0 <= beta1 < 1 and 0 <= beta2 < 1):
        raise ValidationError("beta1 and beta2 must lie in [0, 1)")
    for name, p in params.items():
        g = grads.get(name)
        if g is None or g.shape != p.shape:
            raise DimensionError(f"gradient missing or mis-shaped for {name!r}")

    new = AdamState()
    new.step = state.step + 1
    t = new.step
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    out = ParamStore()
    for name, p in params.items():
        # in place on fresh temporaries (0-d parameters rebind instead): the
        # same operations, bit for bit, as p - lr * (m / c1) / (sqrt(v / c2) + eps)
        g = grads[name]
        m = beta1 * state.m[name]
        m += (1.0 - beta1) * g
        v = g * g
        v *= 1.0 - beta2
        v += beta2 * state.v[name]
        new.m[name] = m
        new.v[name] = v
        denom = np.sqrt(v / c2)
        denom += eps
        step = m / c1
        step *= lr
        step /= denom
        out.add(name, p - step)
    return out, new


def grad_scalar(
    loss_fn: Callable[[dict[str, Node]], Node], params: ParamStore
) -> dict[str, np.ndarray]:
    """Gradients of a scalar expression with respect to every parameter.

    `loss_fn` receives one leaf Node per parameter (keyed by name) and must
    return a scalar Node. Parameters the expression never touches map to
    zero tensors. Non-finite results raise NumericOverflowError naming the
    offending parameter where one can be identified.
    """
    leaves = {name: leaf(value) for name, value in params.items()}
    out = loss_fn(leaves)
    if out.value.size != 1:
        raise ValidationError(f"loss must be scalar, got shape {out.value.shape}")
    if not np.isfinite(out.value):
        raise NumericOverflowError("loss evaluated to a non-finite value")
    backward(out)
    grads = {}
    for name, node in leaves.items():
        g = node.grad if node.grad is not None else np.zeros_like(node.value)
        if not np.all(np.isfinite(g)):
            raise NumericOverflowError(f"non-finite gradient for parameter {name!r}")
        grads[name] = g
    return grads
