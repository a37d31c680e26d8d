"""Reverse pass of `mlp.apply`: closed-form MLP gradients over float64 numpy.

Every network in the repo is a plain MLP and every loss returns its own
gradient, so training needs no general autodiff: a trainer runs `apply`,
hands the loss gradient at the net's output to `backward`, and chains the
input gradient into whatever fed the net. `backward` allocates no parameter
gradients: it writes each one into an array the caller supplies, in a
training loop the net's views of its `FlatParams.grads`, so a whole step's
gradients land in one flat vector that `Adam.step` reads as it is.

The module keeps the name it had when it held a reverse-mode tensor engine,
because the benchmark's tracer (bench/tracer.py) times the training backward
pass by patching `trackpolicy.nn.tensor.backward`. Callers therefore reach
it as `tensor.backward` at call time, never through a name bound at import.
"""

from __future__ import annotations

import numpy as np


def backward(spec, params: dict, cache: list, g: np.ndarray, grads: dict,
             input_grad: bool = False):
    """Gradients of a scalar loss through one MLP, written into grads.

    cache: the activations `apply` returned with the output; g: the loss
    gradient at the output, (n, d_out); grads: an array per parameter name
    of spec, of the parameter's shape, that receives its gradient. Returns
    the gradient at the input, or None. The input gradient costs one more
    matmul, so only callers that feed another net's output in ask for it.
    """
    for i in reversed(range(len(spec.activations))):
        w, b, act = spec._layers[i]
        y = cache[i + 1]
        if act == "relu":
            g = g * (y > 0)
        elif act == "tanh":
            g = g * (1.0 - y * y)
        np.sum(g, axis=0, out=grads[b])
        np.matmul(cache[i].T, g, out=grads[w])
        if i == 0 and not input_grad:
            return None
        g = g @ params[w].T
    return g
