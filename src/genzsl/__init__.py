"""Generative zero-shot learning toolkit.

Trains a conditional feature generator against a two-headed critic with
creativity-inspired objectives (realism on hallucinated descriptors plus an
entropy push toward uniform seen-class confusion, measured by a learnable
two-parameter divergence family), and evaluates it with the generalized
seen/unseen battery: Top-1, the seen-unseen curve and its area, harmonic
mean, and retrieval precision.
"""

__version__ = "0.1.0"

from .dataio import (SyntheticSpec, ZslDataset, load_checkpoint, load_dataset,
                     make_synthetic, philox, save_checkpoint, save_dataset)
from .diffmath import AdamState, ParamStore, adam_step, grad_scalar
from .divergences import DivergenceSpec, entropy_loss, sm_divergence, special_case
from .evaluation import (EvalReport, build_classifier, evaluate_model,
                         harmonic_mean, retrieval_map, su_curve_auc, top1)
from .hallucination import (PRESETS, HallucinationPolicy, policy_from_config,
                            sample_alphas, sample_hallucinated_text)
from .losses import LossConfig, lipschitz_interpolate
from .model import (ArchSpec, DiscriminatorParams, GeneratorParams, ModelParams,
                    generate, init_params)
from .training import (ABLATION_SUITES, ArchConfig, CrossValResult, TrainConfig,
                       TrainHistory, ablate, cross_validate, train)

__all__ = [
    "__version__",
    "SyntheticSpec", "ZslDataset", "load_checkpoint", "load_dataset",
    "make_synthetic", "philox", "save_checkpoint", "save_dataset",
    "AdamState", "ParamStore", "adam_step", "grad_scalar",
    "DivergenceSpec", "entropy_loss", "sm_divergence", "special_case",
    "EvalReport", "build_classifier", "evaluate_model", "harmonic_mean",
    "retrieval_map", "su_curve_auc", "top1",
    "PRESETS", "HallucinationPolicy", "policy_from_config", "sample_alphas",
    "sample_hallucinated_text",
    "LossConfig", "lipschitz_interpolate",
    "ArchSpec", "DiscriminatorParams", "GeneratorParams", "ModelParams",
    "generate", "init_params",
    "ABLATION_SUITES", "ArchConfig", "CrossValResult", "TrainConfig",
    "TrainHistory", "ablate", "cross_validate", "train",
]
