"""Dense multi-layer perceptrons as pure (spec, params) pairs.

`apply` is the one layer loop, shared by training and sampling: it returns
the output together with the activations that `tensor.backward` needs for
the reverse pass, and raises NonFiniteError as soon as a layer produces
NaN/Inf. The check runs on each layer's pre-activation, through the
package's one predicate (`errors.has_nonfinite`), so a -inf that relu would
zero still raises and names its layer; at the sampler's one-row batches the
check is a sizeable share of a layer, which is why it counts finite entries
rather than reducing with `ndarray.all`. Each layer writes its bias and
activation into the fresh array its matmul returned, so a layer costs one
allocation. `apply` checks neither the parameters nor the input: `forward`
is the validating entry point (parameter shapes, input shape and
finiteness, then `apply`'s output), and a caller that runs one net many
times on inputs it builds itself, such as the diffusion sampler, validates
once and then calls `apply`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from ..errors import NonFiniteError, ShapeMismatchError, check_int, has_nonfinite

ACTIVATIONS = ("relu", "tanh", "identity")


@dataclass(frozen=True)
class MlpSpec:
    """Layer widths plus one activation per weight layer.

    widths = (d_in, h1, ..., d_out), each an integer >= 1 stored as a plain
    int (`errors.check_int`: a float or a bool is rejected rather than
    truncated); activations has len(widths) - 1 entries.
    """

    widths: tuple
    activations: tuple
    name: str = "mlp"
    _shapes: MappingProxyType = field(init=False, repr=False, compare=False)
    _layers: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "widths", tuple(check_int(f"{self.name} width", w, 1)
                                                 for w in self.widths))
        object.__setattr__(self, "activations", tuple(self.activations))
        if len(self.widths) < 2:
            raise ValueError("need at least input and output widths")
        if len(self.activations) != len(self.widths) - 1:
            raise ValueError(
                f"need {len(self.widths) - 1} activations, got {len(self.activations)}")
        for a in self.activations:
            if a not in ACTIVATIONS:
                raise ValueError(f"unknown activation {a!r}")
        shapes = {}
        for i, (din, dout) in enumerate(zip(self.widths[:-1], self.widths[1:])):
            shapes[f"{self.name}/w{i}"] = (din, dout)
            shapes[f"{self.name}/b{i}"] = (dout,)
        object.__setattr__(self, "_shapes", MappingProxyType(shapes))
        # (weight name, bias name, activation) per layer, for `apply`'s loop
        object.__setattr__(self, "_layers", tuple(
            (f"{self.name}/w{i}", f"{self.name}/b{i}", act)
            for i, act in enumerate(self.activations)))

    def param_shapes(self) -> MappingProxyType:
        """Read-only parameter name -> shape, in declaration (checkpoint)
        order. Built once with the spec: every forward pass checks it."""
        return self._shapes


def init_params(spec: MlpSpec, seed: int) -> dict:
    """U(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights, zero biases;
    deterministic for a given seed."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in spec.param_shapes().items():
        if name.split("/")[-1].startswith("w"):
            bound = 1.0 / np.sqrt(shape[0])
            params[name] = rng.uniform(-bound, bound, size=shape)
        else:
            params[name] = np.zeros(shape)
    return params


def check_params(spec: MlpSpec, params: dict) -> None:
    expected = spec.param_shapes()
    for name, shape in expected.items():
        if name not in params:
            raise ShapeMismatchError(f"missing parameter {name}")
        if tuple(params[name].shape) != shape:
            raise ShapeMismatchError(
                f"{name}: expected shape {shape}, got {tuple(params[name].shape)}")


def apply(spec: MlpSpec, params: dict, x: np.ndarray) -> tuple:
    """Run the network on an (n, d_in) batch; returns (output, cache).

    Each layer is h @ w + b followed by the activation, both applied in
    place on the matmul's output, so every cache entry is its own array.
    cache lists the input and every layer's activated output, the input of
    `tensor.backward`. A NaN/Inf first shows up in an affine output (relu and
    tanh map finite values to finite values), so that is where it is caught.
    """
    h = x
    cache = [h]
    for i, (w, b, act) in enumerate(spec._layers):
        h = h @ params[w]
        h += params[b]
        if has_nonfinite(h):
            raise NonFiniteError(f"{spec.name}: non-finite values produced by layer {i}")
        if act == "relu":
            np.maximum(h, 0.0, out=h)
        elif act == "tanh":
            np.tanh(h, out=h)
        cache.append(h)
    return h, cache


def forward(spec: MlpSpec, params: dict, x) -> np.ndarray:
    """Output array for an (n, d_in) batch or a single (d_in,) row."""
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != spec.widths[0]:
        raise ShapeMismatchError(
            f"input shape {x.shape} does not match spec width {spec.widths[0]}")
    check_params(spec, params)
    if has_nonfinite(x):
        raise NonFiniteError(f"{spec.name}: non-finite input")
    h = apply(spec, params, x)[0]
    return h[0] if squeeze else h
