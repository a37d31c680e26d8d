"""Dense multi-layer perceptrons over the tensor engine.

A network is a pure (spec, params) pair with two ways to run it. `apply`
builds a differentiable Tensor graph; training calls it inside a composite
loss and runs tensor.backward on that loss. `forward` is the inference pass:
the same op sequence on plain arrays, with no graph, raising NonFiniteError
on a non-finite input or as soon as a layer produces NaN/Inf.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from ..errors import NonFiniteError, ShapeMismatchError
from . import tensor as T

ACTIVATIONS = ("relu", "tanh", "identity")


@dataclass(frozen=True)
class MlpSpec:
    """Layer widths plus one activation per weight layer.

    widths = (d_in, h1, ..., d_out); activations has len(widths) - 1 entries.
    """

    widths: tuple
    activations: tuple
    name: str = "mlp"
    _shapes: MappingProxyType = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        object.__setattr__(self, "activations", tuple(self.activations))
        if len(self.widths) < 2:
            raise ValueError("need at least input and output widths")
        if any(w <= 0 for w in self.widths):
            raise ValueError(f"widths must be positive: {self.widths}")
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

    def param_shapes(self) -> MappingProxyType:
        """Read-only parameter name -> shape, in declaration (checkpoint)
        order. Built once with the spec: every forward pass checks it."""
        return self._shapes


INIT_SCHEME = "uniform-fan-in"


def init_params(spec: MlpSpec, seed: int) -> dict:
    """U(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights, zero biases.

    Deterministic for a given seed; the caller records (scheme, seed).
    """
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


_ACT_FN = {"relu": T.relu, "tanh": T.tanh, "identity": lambda x: x}


def apply(spec: MlpSpec, params: dict, x: T.Tensor) -> T.Tensor:
    """Run the network on a live Tensor batch (n, d_in) -> (n, d_out)."""
    h = x
    for i, act in enumerate(spec.activations):
        h = T.matmul(h, params[f"{spec.name}/w{i}"]) + params[f"{spec.name}/b{i}"]
        h = _ACT_FN[act](h)
    return h


_NP_ACT = {"relu": lambda h: np.where(h > 0, h, 0.0), "tanh": np.tanh,
           "identity": lambda h: h}


def forward(spec: MlpSpec, params: dict, x) -> np.ndarray:
    """Output array for an (n, d_in) batch or a single (d_in,) row.

    Bit-identical to `apply(...).data`: each layer is h @ w + b followed by
    the activation. A NaN/Inf first shows up in an affine output (relu and
    tanh map finite values to finite values), so that is where it is caught.
    """
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != spec.widths[0]:
        raise ShapeMismatchError(
            f"input shape {x.shape} does not match spec width {spec.widths[0]}")
    check_params(spec, params)
    if not np.isfinite(x).all():
        raise NonFiniteError(f"{spec.name}: non-finite input")
    h = x
    for i, act in enumerate(spec.activations):
        h = h @ params[f"{spec.name}/w{i}"] + params[f"{spec.name}/b{i}"]
        if not np.isfinite(h).all():
            raise NonFiniteError(f"{spec.name}: non-finite values produced by layer {i}")
        h = _NP_ACT[act](h)
    return h[0] if squeeze else h
