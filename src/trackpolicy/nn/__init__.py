"""Minimal reverse-mode NN substrate: tensors, MLPs, losses, Adam,
finite-difference checking, and binary checkpoints."""

from . import tensor
from .checkpoint import load_checkpoint, save_checkpoint
from .gradcheck import finite_difference_check
from .losses import bce_with_logits, gaussian_kl_alignment, mse_loss
from .mlp import MlpSpec, apply, check_params, forward, init_params
from .optim import Adam, OptimizerState, adam_step
from .tensor import Tensor, grad_reverse

__all__ = [
    "tensor", "Tensor", "grad_reverse",
    "MlpSpec", "apply", "forward", "init_params", "check_params",
    "mse_loss", "bce_with_logits", "gaussian_kl_alignment",
    "Adam", "OptimizerState", "adam_step",
    "finite_difference_check",
    "save_checkpoint", "load_checkpoint",
]
