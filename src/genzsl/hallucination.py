"""Hallucinated semantic descriptors from pairs of seen-class descriptors.

A hallucinated descriptor is the affine combination

    t_h = alpha * t_a + (1 - alpha) * t_b

of two distinct seen-class descriptors, with alpha drawn from a policy: a
union of open intervals (interpolating inside (0, 1), extrapolating outside)
sampled uniformly by length. Values of alpha near 0 or 1 are excluded by
construction so a hallucination never collapses onto a seen descriptor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class HallucinationPolicy:
    """Sampling policy for the combination weight alpha: uniform over the
    union of the open intervals, each weighted by its length."""

    intervals: tuple[tuple[float, float], ...] = ((0.2, 0.8),)

    def __post_init__(self):
        if not self.intervals:
            raise ValidationError("policy needs at least one interval")
        for lo, hi in self.intervals:
            if not lo < hi:
                raise ValidationError(f"empty interval ({lo}, {hi})")
            if lo < 0.0 < hi or lo < 1.0 < hi:
                raise ValidationError(
                    f"interval ({lo}, {hi}) strictly contains 0 or 1"
                )
        spans = sorted(self.intervals)
        for (_, hi_prev), (lo_next, _) in zip(spans, spans[1:]):
            if lo_next < hi_prev:
                raise ValidationError("intervals overlap")


PRESETS: dict[str, HallucinationPolicy] = {
    "interpolate": HallucinationPolicy(((0.2, 0.8),)),
    "neg_extrapolate": HallucinationPolicy(((-0.5, -0.2),)),
    "pos_extrapolate": HallucinationPolicy(((1.2, 1.5),)),
    "neg_pos": HallucinationPolicy(((-0.5, -0.2), (1.2, 1.5))),
    "all": HallucinationPolicy(((-0.5, -0.2), (0.2, 0.8), (1.2, 1.5))),
}


def policy_from_config(value) -> HallucinationPolicy:
    """A preset name or a list of [lo, hi] pairs, as read from a config file."""
    if isinstance(value, HallucinationPolicy):
        return value
    if isinstance(value, str):
        try:
            return PRESETS[value]
        except KeyError:
            raise ValidationError(
                f"unknown policy preset {value!r}; known: {sorted(PRESETS)}"
            ) from None
    try:
        intervals = tuple((float(lo), float(hi)) for lo, hi in value)
    except (TypeError, ValueError):
        raise ValidationError(f"cannot parse policy {value!r}") from None
    return HallucinationPolicy(intervals)


def sample_alphas(policy: HallucinationPolicy, size: int, rng: np.random.Generator) -> np.ndarray:
    """Draw `size` combination weights from the policy."""
    lo = np.array([iv[0] for iv in policy.intervals])
    hi = np.array([iv[1] for iv in policy.intervals])
    lengths = hi - lo
    edges = np.cumsum(lengths)
    total = edges[-1]

    out = np.empty(size)
    todo = np.arange(size)
    while todo.size:
        u = rng.uniform(0.0, total, size=todo.size)
        idx = np.searchsorted(edges, u, side="right")
        alpha = lo[idx] + (u - (edges[idx] - lengths[idx]))
        out[todo] = alpha
        # intervals are open; re-draw the measure-zero endpoint hits
        todo = todo[(alpha <= lo[idx]) | (alpha >= hi[idx])]
    return out


def sample_hallucinated_text(
    seen_semantics: np.ndarray,
    policy: HallucinationPolicy,
    batch_size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """A batch of hallucinated descriptors, one independent (a, b, alpha)
    triple per row with a != b."""
    T = np.asarray(seen_semantics, dtype=np.float64)
    if T.ndim != 2 or T.shape[0] < 2:
        raise ValidationError("need at least 2 seen-class descriptors")
    if batch_size < 1:
        raise ValidationError("batch_size must be at least 1")

    k = T.shape[0]
    a = rng.integers(0, k, size=batch_size)
    b = rng.integers(0, k, size=batch_size)
    clash = a == b
    while clash.any():
        b[clash] = rng.integers(0, k, size=int(clash.sum()))
        clash = a == b

    alpha = sample_alphas(policy, batch_size, rng)[:, None]
    return alpha * T[a] + (1.0 - alpha) * T[b]
