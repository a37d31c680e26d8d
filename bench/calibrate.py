"""Machine-speed calibration for the end-to-end timings.

The benchmark was defined on a 2-vCPU x86_64 VM whose speed drifts with
load from other tenants: over a minute, 5-second medians of the same
operation ranged over a factor of 1.7. Wall-clock medians of separate runs
then differ by 15-40%, more than any useful regression bound.

`kernel_ms` times a fixed computation that uses neither trackpolicy nor
anything a change to it could alter. It mixes the three kinds of work the
workloads do: interpreted loops over tiny numpy arrays (sim and geometry),
single-row MLP layers with per-layer object and finiteness-check overhead
(sampling), and batch-32 forward and backward matmuls (training). Timed
right before and after each unit of work, it tells how fast the machine was
at the time. The end-to-end timings are reported at reference speed:

    reported = measured * REFERENCE_KERNEL_MS / kernel time around the unit

Over ten 30-second runs per workload on that VM, the spread of the median
step time across runs (interquartile range over median) was 0.16-0.34 raw
and 0.05-0.06 scaled. The raw wall-clock figures are reported beside the
scaled ones.
"""

import time

import numpy as np

# the kernel's time on the VM above when it is not slowed by other load
REFERENCE_KERNEL_MS = 8.0

_rng = np.random.default_rng(0)
_R3 = _rng.random((3, 3))
_V3 = _rng.random(3)
_ROW = _rng.random((1, 306))
_BATCH = _rng.random((32, 306))
_W1 = _rng.random((306, 256)) * 0.05
_W2 = _rng.random((256, 256)) * 0.05
_W3 = _rng.random((256, 176)) * 0.05


class _Node:
    def __init__(self, data, parents=()):
        self.data = data
        self.parents = parents


def kernel_ms() -> float:
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1000):
        acc += i * 0.5
    for _ in range(150):
        np.linalg.norm(np.cross(_V3, _R3 @ _V3))
    for _ in range(25):
        x = _Node(_ROW)
        for w in (_W1, _W2):
            x = _Node(np.maximum(x.data @ w, 0.0), (x,))
            np.all(np.isfinite(x.data))
        x = _Node(x.data @ _W3, (x,))
        np.all(np.isfinite(x.data))
    for _ in range(4):
        h = np.maximum(_BATCH @ _W1, 0.0)
        g = (h @ _W2) @ _W2.T
        h.T @ g
        _BATCH.T @ (g @ _W1.T)
    return (time.perf_counter() - t0) * 1e3
