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

    __slots__ = ("value", "parents", "vjp", "const")

    def __init__(self, value, parents=(), vjp=None, const=False):
        self.value = value
        self.parents = parents
        self.vjp = vjp
        self.const = const


def constant(x) -> Node:
    return Node(as_tensor(x), const=True)


def leaf(x) -> Node:
    """A differentiable leaf (parameter)."""
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


def backward(root: Node) -> dict[Node, np.ndarray]:
    """Reverse sweep seeding d(root)/d(root) = 1: the gradient of `root` at each
    leaf it reaches, keyed by node. Drops inner gradients once used; writes no node."""
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
        if node.vjp is None or node not in grads:
            continue
        g = grads.pop(node)
        for parent, pg in zip(node.parents, node.vjp(g)):
            if pg is None or parent.const:
                continue
            acc = grads.get(parent)
            grads[parent] = pg if acc is None else acc + pg
    return grads


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


def cross_entropy_rows(logits, labels) -> Node:
    """Per-row negative log-likelihood of the integer class `labels`, fused
    with the softmax for stability. Returns a length-B vector."""
    logits = _lift(logits)
    rows = np.arange(len(labels))
    top = logits.value.max(axis=1, keepdims=True)
    lse = np.log(np.exp(logits.value - top).sum(axis=1)) + top[:, 0]
    nll = lse - logits.value[rows, labels]
    soft = np.exp(logits.value - lse[:, None])

    def vjp(g):
        d = soft.copy()
        d[rows, labels] -= 1.0
        d *= g[:, None]
        return (d,)

    return Node(nll, (logits,), vjp)


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
        if x.const:
            d_x = None
        elif W.value.shape[1] == 1:  # an outer product: cheaper than the matmul, same bits
            d_x = g * W.value[:, 0]
        else:
            d_x = g @ W.value.T
        grads = (d_x, None if W.const else x.value.T @ g)
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
    a = head.T  # 1 w^T: the first gate's product broadcasts w^T over the rows
    gated, gates = [], []  # each layer's (a_i * gate_i) and gate_i, head side first
    for W, h in zip(reversed(weights[:-1]), reversed(activations[1:])):
        gates.append(leaky_gate(h > 0.0, slope))
        gated.append(a * gates[-1])
        a = gated[-1] @ W.value.T
    if len(weights) == 1:  # a linear critic: every row is w^T
        a = np.repeat(a, len(activations[0]), axis=0)

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
    return Node(np.asarray((dev * dev).sum() / len(rows)), g.parents,
                lambda u: g.vjp((u * scale)[:, None] * rows))


# ---------------------------------------------------------------------------
# parameter stores and public gradient operations


class ParamStore:
    """Named parameter tensors with deterministic (insertion) order.

    The tensors are views into one contiguous float64 vector, `flat`, laid
    out in that order, so whole-store arithmetic (the Adam update) is one
    vector operation. Values are copied in, and the layout is fixed when the
    store is built: a store is made from all of its (name, array) pairs at
    once.
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

    def __getitem__(self, name: str) -> np.ndarray:
        return self._data[name]

    def __contains__(self, name: str) -> bool:
        return name in self._data

    def __iter__(self):
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def items(self):
        return self._data.items()

    def size(self) -> int:
        return self.flat.size

    def zeros(self) -> "ParamStore":
        """A store of zeros laid out like this one: the gradient store that
        :func:`leaf_grads` and the critic step write into."""
        return self._like(np.zeros(self.flat.size))


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
    grads: ParamStore,
    state: AdamState,
    lr: float = 0.001,
    beta1: float = 0.5,
    beta2: float = 0.9,
    eps: float = 1e-8,
) -> tuple[ParamStore, AdamState]:
    """One bias-corrected Adam update, elementwise over the store's flat
    vector, from a gradient store laid out like `params` (any other raises
    DimensionError). Returns fresh params and state; inputs stay untouched."""
    if not (math.isfinite(lr) and lr > 0):
        raise ValidationError("lr must be finite and positive")
    if not (0 <= beta1 < 1 and 0 <= beta2 < 1):
        raise ValidationError("beta1 and beta2 must lie in [0, 1)")
    if not isinstance(grads, ParamStore) or grads._layout != params._layout:
        raise DimensionError("the gradients are not laid out like the parameter store")
    if state.m.shape != params.flat.shape:
        raise DimensionError("the Adam state does not fit the parameter store")
    g = grads.flat

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


def finite_grads(loss, gradient: Callable[[], ParamStore]) -> ParamStore:
    """`gradient()`, a gradient store, once the scalar `loss` and then the
    store's flat vector are found finite; otherwise NumericOverflowError,
    which names the first non-finite parameter, and `gradient` does not run
    on a non-finite loss."""
    if not np.isfinite(loss):
        raise NumericOverflowError("loss evaluated to a non-finite value")
    grads = gradient()
    if not np.isfinite(grads.flat).all():
        name = next(name for name, g in grads.items() if not np.isfinite(g).all())
        raise NumericOverflowError(f"non-finite gradient for parameter {name!r}")
    return grads


def leaf_grads(root: Node, leaves: Mapping[str, Node], params: ParamStore) -> ParamStore:
    """The gradients of `root` at the named `leaves`, from one sweep, as a
    store laid out like `params`; leaves the sweep misses get zeros."""
    swept = backward(root)
    grads = params.zeros()
    for name, node in leaves.items():
        g = swept.get(node)
        if g is not None:
            if g.shape != node.value.shape:
                raise DimensionError(f"gradient of {name!r} has shape {g.shape}")
            grads[name][...] = g
    return grads


def grad_scalar(
    loss_fn: Callable[[dict[str, Node]], Node], params: ParamStore
) -> ParamStore:
    """Gradients of a scalar expression with respect to every parameter, as
    a store laid out like `params`.

    `loss_fn` receives one leaf Node per parameter (keyed by name) and must
    return a scalar Node. Parameters the expression never touches get zero
    tensors. Non-finite results raise NumericOverflowError (see
    :func:`finite_grads`).
    """
    leaves = {name: leaf(value) for name, value in params.items()}
    out = loss_fn(leaves)
    if out.value.size != 1:
        raise ValidationError(f"loss must be scalar, got shape {out.value.shape}")
    return finite_grads(out.value, lambda: leaf_grads(out, leaves, params))
