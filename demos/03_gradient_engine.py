"""The differentiation engine under the training loop.

Demonstrates gradients of a scalar expression over named parameters, the
analytic input gradient of a critic stack, and the Lipschitz penalty whose
parameter gradient requires differentiating through that input gradient.
"""

import numpy as np

import genzsl.diffmath as dm

rng = np.random.default_rng(0)

# gradients of a tiny expression
params = dm.ParamStore({"w": np.array([1.0, 2.0, 3.0]), "unused": np.eye(2)})
grads = dm.grad_scalar(lambda lv: dm.vsum(dm.square(lv["w"])), params)
print("d/dw sum(w^2)      =", grads["w"], "(expected 2w)")
print("unused parameter   =", grads["unused"].ravel(), "(zeros)")

# input gradient of a leaky critic stack
layers = [
    (rng.standard_normal((4, 6)), rng.standard_normal(6) * 0.1, "leaky"),
    (rng.standard_normal((6, 1)), np.zeros(1), "linear"),
]
x = rng.standard_normal((3, 4))
_, g_node = dm.affine_stack_with_input_gradient(x, layers)
g = g_node.value
print("\ncritic input gradient shape:", g.shape)

h = 1e-5
probe = x.copy()
probe[0, 0] += h
up = dm.affine_stack(dm.constant(probe), layers).value[0, 0]
probe[0, 0] -= 2 * h
down = dm.affine_stack(dm.constant(probe), layers).value[0, 0]
print(f"entry [0,0]: analytic {g[0, 0]:+.8f} vs central difference "
      f"{(up - down) / (2 * h):+.8f}")

# the penalty pushes the input-gradient norm toward 1
store = dm.ParamStore({"real.W": np.array([[3.0], [0.0]]), "real.b": np.zeros(1)})


def penalty(leaves):
    critic = [(leaves["real.W"], leaves["real.b"], "linear")]
    return dm.lipschitz_penalty_node(np.zeros((4, 2)), critic)


pen_grads = dm.grad_scalar(penalty, store)
print("\nlinear critic with |w| = 3: penalty (3-1)^2 = 4")
print("analytic penalty gradient:", pen_grads["real.W"].ravel(),
      "(formula: 2(|w|-1) w/|w|)")

# one optimizer step
new, state = dm.adam_step(store, pen_grads, dm.AdamState(store))
print("after one Adam step |w| ->", np.linalg.norm(new["real.W"]))
