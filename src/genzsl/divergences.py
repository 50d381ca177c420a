"""The Sharma-Mittal divergence family and the entropy loss against uniform.

The two-parameter family

    SM(gamma, beta)(p || q) =
        ((sum_i p_i^gamma q_i^(1-gamma)) ^ ((1-beta)/(1-gamma)) - 1) / (beta - 1)

contains the named special cases as limits:

    Renyi(gamma)     = beta -> 1        : ln(T) / (gamma - 1)
    Tsallis(gamma)   = beta -> gamma    : (T - 1) / (gamma - 1)
    KL               = both -> 1        : sum p ln(p/q)
    exponential KL   = gamma -> 1 only  : (exp((beta-1) KL) - 1) / (beta - 1)
    2 * Bhattacharyya = gamma -> 0.5, beta -> 1, with B = -ln sum sqrt(p q)

with T = sum_i p_i^gamma q_i^(1-gamma). Within 1e-5 of gamma = 1 or beta = 1
the closed-form limit (value and gradient) is used instead of the raw
expression, which would otherwise lose all precision to cancellation. The
beta = gamma line is different: the raw expression is numerically regular
there, but its true beta-slope can be large, so values within 1e-5 of the
line snap to the exact Tsallis limit while the (gamma, beta) partial
derivatives stay native. Axis-aligned difference quotients at steps of
1e-5 and larger probe outside the snap band and therefore see the native
surface that those partials describe.

Every input distribution is floored to 1e-12 and renormalized before any
exponentiation; one-hot vectors would otherwise produce infinities for
gamma > 1. Gradients include the flooring/renormalization chain so they
match finite differences of the computed quantity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

PROB_FLOOR = 1e-12
SINGULAR_TOL = 1e-5

# the point of the (gamma, beta) plane at which each family sits, given the
# free pair
_PLANE_POINT = {
    "sharma_mittal": lambda gamma, beta: (gamma, beta),
    "renyi": lambda gamma, beta: (gamma, 1.0),
    "tsallis": lambda gamma, beta: (gamma, gamma),
    "kl": lambda gamma, beta: (1.0, 1.0),
    "bhattacharyya": lambda gamma, beta: (0.5, 1.0),
}
FAMILIES = tuple(_PLANE_POINT)


@dataclass(frozen=True)
class DivergenceSpec:
    """Which family to use and where its free parameters start.

    For learnable parameters the optimizer works in an unconstrained space
    u with gamma = 1 + sign * softplus(u); the sign is fixed at construction
    from the initial value, keeping gamma on its side of 1 forever. KL and
    Bhattacharyya carry no free parameters; Renyi pins beta at its limit and
    Tsallis ties beta to gamma.
    """

    family: str = "sharma_mittal"
    gamma: float = 2.0
    beta: float = 2.0
    learn_gamma: bool = False
    learn_beta: bool = False

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValidationError(f"unknown divergence family {self.family!r}")
        for name in ("gamma", "beta"):
            if not np.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        if self.family not in ("kl", "bhattacharyya") and self.gamma <= 0:
            raise ValidationError("gamma must be positive")
        if self.family in ("kl", "bhattacharyya") and (self.learn_gamma or self.learn_beta):
            raise ValidationError(f"{self.family} has no learnable parameters")
        if self.family in ("renyi", "tsallis") and self.learn_beta:
            raise ValidationError(f"{self.family} has a single free parameter (gamma)")
        if self.learn_gamma and abs(self.gamma - 1.0) < SINGULAR_TOL:
            raise ValidationError("learnable gamma must start away from 1")
        if self.learn_beta and abs(self.beta - 1.0) < SINGULAR_TOL:
            raise ValidationError("learnable beta must start away from 1")

    def effective_params(self) -> tuple[float, float]:
        """The (gamma, beta) pair actually evaluated for this family."""
        return _PLANE_POINT[self.family](self.gamma, self.beta)

    def unconstrained_init(self) -> dict[str, float]:
        """Initial unconstrained parameters, one entry per learnable knob."""
        out = {}
        if self.learn_gamma:
            out["u_gamma"] = _softplus_inv(abs(self.gamma - 1.0))
        if self.learn_beta:
            out["u_beta"] = _softplus_inv(abs(self.beta - 1.0))
        return out

    def reparam_signs(self) -> tuple[float, float]:
        return float(np.sign(self.gamma - 1.0)), float(np.sign(self.beta - 1.0))


def _softplus_inv(y: float) -> float:
    if y <= 0:
        raise ValidationError("softplus inverse needs a positive argument")
    # log(expm1(y)) computed stably for large y
    return float(y + np.log1p(-np.exp(-y)))


# ---------------------------------------------------------------------------
# numeric core (vectorized over batches of rows)


def floor_renorm(P: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Clamp rows to [1e-12, 1] and renormalize; also returns the clipped row
    sums and the pass-through mask used by the gradient chain."""
    P = np.asarray(P, dtype=np.float64)
    C = np.clip(P, PROB_FLOOR, 1.0)
    S = C.sum(axis=-1, keepdims=True)
    mask = (P >= PROB_FLOOR) & (P <= 1.0)
    return C / S, S, mask


def _chain_through_renorm(dPp, Pp, S, mask):
    """Map a gradient w.r.t. the floored-renormalized rows back to the raw
    input rows, given the clipped row sums S."""
    inner = (dPp * Pp).sum(axis=-1, keepdims=True)
    return np.where(mask, (dPp - inner) / S, 0.0)


def _t_terms(Pp, Qp, gamma):
    """T = sum p^g q^(1-g) with its partials in P and gamma."""
    lp = np.log(Pp)
    lq = np.log(Qp)
    w = np.exp(gamma * lp + (1.0 - gamma) * lq)
    T = w.sum(axis=-1)
    dT_dP = gamma * w / Pp
    dT_dgamma = (w * (lp - lq)).sum(axis=-1)
    return T, dT_dP, dT_dgamma


def _kl_eval(Pp, Qp):
    r = np.log(Pp) - np.log(Qp)
    vals = (Pp * r).sum(axis=-1)
    dP = r + 1.0
    return vals, dP


def _bhattacharyya_eval(Pp, Qp):
    root = np.sqrt(Pp * Qp)
    B = root.sum(axis=-1)
    vals = -np.log(B)
    dP = -0.5 * root / Pp / B[..., None]
    return vals, dP


def _renyi_eval(Pp, Qp, gamma):
    T, dT_dP, dT_dg = _t_terms(Pp, Qp, gamma)
    g1 = gamma - 1.0
    vals = np.log(T) / g1
    dP = dT_dP / (T[..., None] * g1)
    dgamma = (dT_dg / T * g1 - np.log(T)) / g1**2
    return vals, dP, dgamma


def _tsallis_eval(Pp, Qp, gamma):
    T, dT_dP, dT_dg = _t_terms(Pp, Qp, gamma)
    g1 = gamma - 1.0
    vals = (T - 1.0) / g1
    dP = dT_dP / g1
    dgamma = (dT_dg * g1 - (T - 1.0)) / g1**2
    return vals, dP, dgamma


def _exp_kl_eval(Pp, Qp, beta):
    kl, dP_kl = _kl_eval(Pp, Qp)
    b1 = beta - 1.0
    E = np.exp(b1 * kl)
    vals = (E - 1.0) / b1
    dP = E[..., None] * dP_kl
    dbeta = (kl * E * b1 - (E - 1.0)) / b1**2
    return vals, dP, dbeta


def _sm_eval(Pp, Qp, gamma, beta):
    T, dT_dP, dT_dg = _t_terms(Pp, Qp, gamma)
    g1 = gamma - 1.0
    b1 = beta - 1.0
    e = (1.0 - beta) / (1.0 - gamma)
    lnT = np.log(T)
    A = np.exp(e * lnT)
    vals = (A - 1.0) / b1
    # d vals / dT collapses to T^(e-1) / (gamma - 1)
    dvdT = np.exp((e - 1.0) * lnT) / g1
    dP = dvdT[..., None] * dT_dP
    dA_dg = A * (-b1 / g1**2 * lnT + e * dT_dg / T)
    dgamma = dA_dg / b1
    dA_db = A * (-lnT / (1.0 - gamma))
    dbeta = (dA_db * b1 - (A - 1.0)) / b1**2
    return vals, dP, dgamma, dbeta


def _eval_family(P, Q, gamma, beta, family):
    """Values and gradients of a divergence on raw (near-)probability rows.

    Returns (vals, dP, dgamma, dbeta), Q being held fixed; the parameter
    gradients are per-row arrays, zero wherever the formula has no such knob.
    """
    P = np.atleast_2d(np.asarray(P, dtype=np.float64))
    Q = np.atleast_2d(np.asarray(Q, dtype=np.float64))
    Pp, S, mask = floor_renorm(P)
    Qp = floor_renorm(Q)[0]
    zeros = np.zeros(P.shape[0])

    if family not in _PLANE_POINT:
        raise ValidationError(f"unknown divergence family {family!r}")
    gamma, beta = _PLANE_POINT[family](gamma, beta)
    near_g = abs(gamma - 1.0) < SINGULAR_TOL
    near_b = abs(beta - 1.0) < SINGULAR_TOL
    if family == "bhattacharyya":
        # B is half the value of the plane at (0.5, 1), so it has its own formula
        vals, dP = _bhattacharyya_eval(Pp, Qp)
        dg = db = zeros
    elif near_g and near_b:
        vals, dP = _kl_eval(Pp, Qp)
        dg = db = zeros
    elif near_b:
        vals, dP, dg = _renyi_eval(Pp, Qp, gamma)
        db = zeros
    elif near_g:
        vals, dP, db = _exp_kl_eval(Pp, Qp, beta)
        dg = zeros
    elif family == "tsallis":
        # the tied line has one free knob, so its slope is the total
        # derivative along beta = gamma, not the plane's partials
        vals, dP, dg = _tsallis_eval(Pp, Qp, gamma)
        db = zeros
    else:
        vals, dP, dg, db = _sm_eval(Pp, Qp, gamma, beta)
        if abs(beta - gamma) < SINGULAR_TOL:
            # snap to the exact limit value; the partials stay native
            vals = _tsallis_eval(Pp, Qp, gamma)[0]

    return vals, _chain_through_renorm(dP, Pp, S, mask), dg, db


# ---------------------------------------------------------------------------
# public operations


def _validate_pair(p, q):
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.ndim != 1 or q.ndim != 1 or p.shape != q.shape:
        raise ValidationError(f"distributions must be equal-length vectors, got {p.shape} and {q.shape}")
    if p.size < 2:
        raise ValidationError("distributions need at least 2 entries")
    for name, v in (("p", p), ("q", q)):
        if np.any(v < 0):
            raise ValidationError(f"{name} has negative entries")
        if abs(v.sum() - 1.0) > 1e-9:
            raise ValidationError(f"{name} does not sum to 1 (got {v.sum():.12f})")
    return p, q


def sm_divergence(p, q, gamma: float, beta: float) -> float:
    """Sharma-Mittal divergence with singular parameters routed to the
    matching limit formula."""
    return special_case(p, q, DivergenceSpec("sharma_mittal", gamma, beta))


def special_case(p, q, spec: DivergenceSpec) -> float:
    """Closed-form value of the named limit family; never touches the raw
    two-parameter expression at its singular points."""
    p, q = _validate_pair(p, q)
    vals, *_ = _eval_family(p, q, spec.gamma, spec.beta, spec.family)
    return float(vals[0])


def entropy_loss(softmax, spec: DivergenceSpec) -> float:
    """Divergence between a seen-class softmax and the uniform distribution.

    Zero exactly when the softmax is uniform; grows as the distribution
    concentrates, for every family and valid parameter choice.
    """
    softmax = np.asarray(softmax, dtype=np.float64)
    return special_case(softmax, np.full(softmax.shape, 1.0 / softmax.size), spec)


def divergence_to_uniform_batch(P, gamma, beta, family):
    """Batch form used inside training graphs: per-row divergence D(P || u)
    of softmax rows from uniform, plus gradients w.r.t. rows and parameters.

    Returns (values, dP, dgamma, dbeta), the last two per row.
    """
    P = np.atleast_2d(np.asarray(P, dtype=np.float64))
    return _eval_family(P, np.full(P.shape, 1.0 / P.shape[1]), gamma, beta, family)
