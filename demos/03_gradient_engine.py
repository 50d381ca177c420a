"""The differentiation engine under the training loop.

Demonstrates gradients of a scalar expression over named parameters, the
analytic input gradient of a critic built from fused dense layers, and the
Lipschitz penalty whose parameter gradient requires differentiating through
that input gradient.
"""

import numpy as np

import genzsl.diffmath as dm

rng = np.random.default_rng(0)

# gradients of a tiny expression
params = dm.ParamStore({"w": np.array([1.0, 2.0, 3.0]), "unused": np.eye(2)})
grads = dm.grad_scalar(lambda lv: dm.vsum(dm.square(lv["w"])), params)
print("d/dw sum(w^2)      =", grads["w"], "(expected 2w)")
print("unused parameter   =", grads["unused"].ravel(), "(zeros)")

# input gradient of a leaky critic: one rectified dense layer and a linear head
W0, b0 = rng.standard_normal((4, 6)), rng.standard_normal(6) * 0.1
w1 = rng.standard_normal((6, 1))


def critic(x):
    hidden = dm.dense(dm.constant(x), W0, b0, slope=0.2)
    return hidden, dm.dense(hidden, w1)


x = rng.standard_normal((3, 4))
hidden, _ = critic(x)
g = dm.critic_input_gradient([W0, w1], [x, hidden.value]).value
print("\ncritic input gradient shape:", g.shape)

h = 1e-5
probe = x.copy()
probe[0, 0] += h
up = critic(probe)[1].value[0, 0]
probe[0, 0] -= 2 * h
down = critic(probe)[1].value[0, 0]
print(f"entry [0,0]: analytic {g[0, 0]:+.8f} vs central difference "
      f"{(up - down) / (2 * h):+.8f}")

# the penalty pushes the input-gradient norm toward 1
store = dm.ParamStore({"real.W": np.array([[3.0], [0.0]]), "real.b": np.zeros(1)})


def penalty(leaves):
    # a linear critic: the head's weights only, at four input rows
    return dm.lipschitz_penalty_node([leaves["real.W"]], [np.zeros((4, 2))])


pen_grads = dm.grad_scalar(penalty, store)
print("\nlinear critic with |w| = 3: penalty (3-1)^2 = 4")
print("analytic penalty gradient:", pen_grads["real.W"].ravel(),
      "(formula: 2(|w|-1) w/|w|)")

# one optimizer step
new, state = dm.adam_step(store, pen_grads, dm.AdamState(store))
print("after one Adam step |w| ->", np.linalg.norm(new["real.W"]))
