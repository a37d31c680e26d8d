"""Reverse pass of `mlp.apply`: closed-form MLP gradients over float64 numpy.

Every network in the repo is a plain MLP and every loss returns its own
gradient, so training needs no general autodiff: a trainer runs `apply`,
hands the loss gradient at the net's output to `backward`, and chains the
input gradient into whatever fed the net. The module keeps the name it had
when it held a reverse-mode tensor engine, because the benchmark's tracer
(bench/tracer.py) times the training backward pass by patching
`trackpolicy.nn.tensor.backward`. Callers therefore reach it as
`tensor.backward` at call time, never through a name bound at import.
"""

from __future__ import annotations

import numpy as np


def backward(spec, params: dict, cache: list, g: np.ndarray,
             input_grad: bool = False) -> tuple:
    """Gradients of a scalar loss through one MLP.

    cache: the activations `apply` returned with the output; g: the loss
    gradient at the output, (n, d_out). Returns (grads by parameter name,
    gradient at the input or None). The input gradient costs one more
    matmul, so only callers that feed another net's output in ask for it.
    """
    grads = {}
    for i in reversed(range(len(spec.activations))):
        act, y = spec.activations[i], cache[i + 1]
        if act == "relu":
            g = g * (y > 0)
        elif act == "tanh":
            g = g * (1.0 - y * y)
        w = params[f"{spec.name}/w{i}"]
        grads[f"{spec.name}/b{i}"] = g.sum(axis=0)
        grads[f"{spec.name}/w{i}"] = cache[i].T @ g
        if i == 0 and not input_grad:
            return grads, None
        g = g @ w.T
    return grads, g
