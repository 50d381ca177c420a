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
input gradient of a leaky-rectifier stack has a closed form
(:func:`critic_input_gradient`), whose reverse map onto the weights is
written out by hand. The penalty is one node over the weights
(:func:`lipschitz_penalty_node`), so one ordinary reverse sweep yields its
parameter gradients and no general higher-order machinery exists here.

Conventions:
  * every value is a float64 ndarray (scalars are 0-d arrays);
  * the leaky rectifier uses the negative-slope branch at exactly 0, so
    tie-breaking is deterministic;
  * vector-norm gradients below 1e-12 are substituted with zero and logged
    through :mod:`genzsl.events` instead of dividing by zero.
"""

from __future__ import annotations

import math
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


def softplus(a) -> Node:
    a = _lift(a)
    out = np.logaddexp(0.0, a.value)
    sig = 1.0 / (1.0 + np.exp(-a.value))
    return Node(out, (a,), lambda g: (g * sig,))


def leaky_gate(positive: np.ndarray, slope: float) -> np.ndarray:
    """The leaky rectifier's derivative factor: 1 where `positive`, else
    `slope`. A table lookup, which beats a branchy `np.where` here."""
    return np.array((slope, 1.0)).take(positive.view(np.uint8))


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
# fused nodes: dense layers, row slices, the Lipschitz penalty


def dense(x, W, b=None, slope=None) -> Node:
    """`x @ W + b`, through the leaky rectifier when `slope` is given, as one
    tape node. Its value and gradients are bit-identical to the composed
    matmul/add/leaky_relu wherever the pre-activation is finite; the reverse
    map skips constant operands.

    For a slope in [0, 1] the rectifier is max(z, slope * z), and its output
    keeps the sign of z, so the reverse map reads the gate off the output
    and a forward-only pass builds no gate at all."""
    if slope is not None and not 0.0 <= slope <= 1.0:
        raise ValidationError(f"rectifier slope must lie in [0, 1], got {slope}")
    x, W = _lift(x), _lift(W)
    out = x.value @ W.value
    parents = (x, W)
    if b is not None:
        b = _lift(b)
        out += b.value
        parents = (x, W, b)
    if slope is not None:
        np.maximum(out, slope * out, out=out)

    def vjp(g):
        if slope is not None:
            g = g * leaky_gate(out > 0.0, slope)
        grads = (None if x.const else g @ W.value.T,
                 None if W.const else x.value.T @ g)
        return grads if b is None else grads + (g.sum(axis=0),)

    return Node(out, parents, vjp)


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
    and a linear head, as one tape node over the weights.

    `weights` are the weight matrices from the input to the head, and
    `activations` the input rows followed by each hidden layer's output at
    those rows, as plain arrays. A rectifier with a non-negative slope keeps
    the sign of its input, so each layer's gate is read off its output; the
    gate is piecewise constant, so the reverse map treats it as a constant.
    With a_L = 1 w^T and a_(i-1) = (a_i * gate_i) W_i^T, the value is a_0,
    and the reverse map takes an upstream gradient on a_0 onto every weight
    matrix in closed form.
    """
    if len(weights) != len(activations):
        raise DimensionError(f"{len(weights)} weight matrices for "
                             f"{len(activations)} layer inputs")
    weights = [_lift(W) for W in weights]
    head = weights[-1].value
    if head.ndim != 2 or head.shape[1] != 1:
        raise DimensionError(f"critic head must have output width 1, got {head.shape}")
    a = np.repeat(head.T, len(activations[0]), axis=0)  # 1 w^T, exactly
    gated, gates = [], []  # each layer's (a_i * gate_i) and gate_i, head side first
    for W, h in zip(reversed(weights[:-1]), reversed(activations[1:])):
        gates.append(leaky_gate(h > 0.0, slope))
        gated.append(a * gates[-1])
        a = gated[-1] @ W.value.T

    def vjp(u):
        grads = []
        for W, c, gate in zip(weights[:-1], reversed(gated), reversed(gates)):
            grads.append(u.T @ c)
            u = (u @ W.value) * gate
        return tuple(grads) + (u.sum(axis=0)[:, None],)

    return Node(a, tuple(weights), vjp)


def lipschitz_penalty_node(weights, activations, slope: float = 0.2) -> Node:
    """Mean squared deviation of the critic's input-gradient norm from 1, as
    one tape node over the weights. The arguments are those of
    :func:`critic_input_gradient`, and the reverse map runs that node's.
    Rows whose input gradient has norm below 1e-12 keep their value but get
    a zero gradient (the norm is not differentiable at 0) and raise a
    degenerate event."""
    g = critic_input_gradient(weights, activations, slope)
    rows = g.value
    norm = np.sqrt((rows * rows).sum(axis=1))
    degenerate = norm < NORM_EPS
    if degenerate.any():
        events.record("degenerate_gradient_penalty")
    dev = norm - 1.0
    scale = np.where(degenerate, 0.0, 2.0 * dev / (len(rows) * np.where(degenerate, 1.0, norm)))
    return Node(np.asarray((dev * dev).mean()), g.parents,
                lambda u: g.vjp((u * scale)[:, None] * rows))


# ---------------------------------------------------------------------------
# parameter stores and public gradient operations


class ParamStore:
    """Named parameter tensors with deterministic (insertion) order.

    The tensors are views into one contiguous float64 vector, `flat`, laid
    out in that order, so whole-store arithmetic (the Adam update) is one
    vector operation. Values are copied in; `add` re-packs the vector, so
    arrays read before an `add` no longer belong to the store.
    """

    def __init__(self, items: Mapping[str, np.ndarray] | Iterable = ()):
        pairs = [(name, as_tensor(value)) for name, value in
                 (items.items() if isinstance(items, Mapping) else items)]
        names = set()
        for name, _ in pairs:
            if name in names:
                raise ValidationError(f"duplicate parameter name {name!r}")
            names.add(name)
        flat = np.concatenate([v.ravel() for _, v in pairs]) if pairs else np.zeros(0)
        self._bind(flat, [(name, v.shape) for name, v in pairs])

    def _bind(self, flat: np.ndarray, layout: list) -> None:
        self.flat = flat
        self._layout = layout
        self._data: dict[str, np.ndarray] = {}
        offset = 0
        for name, shape in layout:
            size = math.prod(shape)
            self._data[name] = flat[offset:offset + size].reshape(shape)
            offset += size

    def _like(self, flat: np.ndarray) -> "ParamStore":
        """A store with this one's names and shapes over the vector `flat`."""
        out = ParamStore.__new__(ParamStore)
        out._bind(flat, self._layout)
        return out

    def add(self, name: str, value) -> None:
        if name in self._data:
            raise ValidationError(f"duplicate parameter name {name!r}")
        value = as_tensor(value)
        self._bind(np.concatenate((self.flat, value.ravel())),
                   self._layout + [(name, value.shape)])

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
        return self._like(self.flat.copy())

    def size(self) -> int:
        return self.flat.size


class AdamState:
    """First/second moment estimates over a store's flat vector plus the
    shared step counter; zero moments for every parameter of `params`, or
    none without it."""

    def __init__(self, params: ParamStore | None = None):
        size = 0 if params is None else params.size()
        self.m = np.zeros(size)
        self.v = np.zeros(size)
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
    """One bias-corrected Adam update, elementwise over the store's flat
    vector. Returns fresh params and state; the inputs are left untouched."""
    if lr <= 0:
        raise ValidationError("lr must be positive")
    if not (0 <= beta1 < 1 and 0 <= beta2 < 1):
        raise ValidationError("beta1 and beta2 must lie in [0, 1)")
    for name, p in params.items():
        g = grads.get(name)
        if g is None or g.shape != p.shape:
            raise DimensionError(f"gradient missing or mis-shaped for {name!r}")
    if state.m.shape != params.flat.shape:
        raise DimensionError("the Adam state does not fit the parameter store")
    g = np.concatenate([grads[name].ravel() for name in params]) if len(params) \
        else np.zeros(0)

    new = AdamState()
    new.step = state.step + 1
    t = new.step
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    # in place on fresh temporaries: the same operations, bit for bit, as
    # p - lr * (m / c1) / (sqrt(v / c2) + eps)
    new.m = beta1 * state.m
    new.m += (1.0 - beta1) * g
    new.v = g * g
    new.v *= 1.0 - beta2
    new.v += beta2 * state.v
    denom = np.sqrt(new.v / c2)
    denom += eps
    step = new.m / c1
    step *= lr
    step /= denom
    return params._like(params.flat - step), new


def finite_grads(loss, gradient: Callable[[], dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """`gradient()`, once the scalar `loss` and then each gradient it returns
    are found finite; otherwise NumericOverflowError, which names the first
    non-finite parameter, and `gradient` does not run on a non-finite loss."""
    if not np.isfinite(loss):
        raise NumericOverflowError("loss evaluated to a non-finite value")
    grads = gradient()
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NumericOverflowError(f"non-finite gradient for parameter {name!r}")
    return grads


def grad_scalar(
    loss_fn: Callable[[dict[str, Node]], Node], params: ParamStore
) -> dict[str, np.ndarray]:
    """Gradients of a scalar expression with respect to every parameter.

    `loss_fn` receives one leaf Node per parameter (keyed by name) and must
    return a scalar Node. Parameters the expression never touches map to
    zero tensors. Non-finite results raise NumericOverflowError (see
    :func:`finite_grads`).
    """
    leaves = {name: leaf(value) for name, value in params.items()}
    out = loss_fn(leaves)
    if out.value.size != 1:
        raise ValidationError(f"loss must be scalar, got shape {out.value.shape}")

    def gradient():
        backward(out)
        return {name: node.grad if node.grad is not None else np.zeros_like(node.value)
                for name, node in leaves.items()}

    return finite_grads(out.value, gradient)
