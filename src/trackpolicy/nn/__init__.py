"""Minimal NN substrate: MLPs with a closed-form reverse pass, losses that
return their own gradients, Adam, finite-difference checking, and binary
checkpoints."""

from . import tensor
from .checkpoint import check_array_names, check_keys, load_checkpoint, save_checkpoint
from .gradcheck import finite_difference_check
from .losses import bce_with_logits, gaussian_kl_alignment, mse_loss
from .mlp import MlpSpec, apply, check_params, forward, init_params
from .optim import Adam

__all__ = [
    "tensor",
    "MlpSpec", "apply", "forward", "init_params", "check_params",
    "mse_loss", "bce_with_logits", "gaussian_kl_alignment",
    "Adam",
    "finite_difference_check",
    "save_checkpoint", "load_checkpoint", "check_keys", "check_array_names",
]
