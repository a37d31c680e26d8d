"""Spans around calls into trackpolicy's public functions, recorded from outside.

Each wrapper is installed at the name the caller looks up: `inference`
imports `triangulate`, `reprojection_residual_px` and `tracks_to_actions` by
name, and `policy`/`retarget` import `forward` and `apply` by name, so those
are patched in the importing module rather than (or as well as) in the
defining one. Patching a module attribute also catches calls from inside the
same module, because a function looks its globals up at call time. Methods
are patched on their class.

`nn.mlp.apply` is deliberately left alone at its own module: `nn.forward`
calls it there, and wrapping it would move the forward pass's self time into
`nn.apply`, which is meant to count only the training-graph path.

Spans live in memory as [id, parent id, request id, name, start, end] and are
written as JSONL once the run ends. One thread, so one stack of open spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

# (module, attribute or Class.method, span name)
PATCHES = (
    ("trackpolicy.inference", "rollout", "inference.rollout"),
    ("trackpolicy.inference", "predict_chunk", "inference.predict_chunk"),
    ("trackpolicy.inference", "oracle_chunk", "inference.oracle_chunk"),
    ("trackpolicy.inference", "chunk_from_tracks", "inference.chunk_from_tracks"),
    ("trackpolicy.inference", "world_to_ee_delta", "inference.world_to_ee_delta"),
    ("trackpolicy.inference", "triangulate", "geometry.triangulate"),
    ("trackpolicy.inference", "reprojection_residual_px", "geometry.reprojection_residual_px"),
    ("trackpolicy.inference", "tracks_to_actions", "geometry.tracks_to_actions"),
    ("trackpolicy.geometry", "triangulate", "geometry.triangulate"),
    ("trackpolicy.geometry", "reprojection_residual_px", "geometry.reprojection_residual_px"),
    ("trackpolicy.geometry", "tracks_to_actions", "geometry.tracks_to_actions"),
    ("trackpolicy.policy", "train", "policy.train"),
    ("trackpolicy.policy", "train_step", "policy.train_step"),
    ("trackpolicy.policy", "sample", "policy.sample"),
    ("trackpolicy.policy", "ancestral_sample", "diffusion.ancestral_sample"),
    ("trackpolicy.policy", "forward", "nn.forward"),
    ("trackpolicy.policy", "apply", "nn.apply"),
    ("trackpolicy.retarget", "forward", "nn.forward"),
    ("trackpolicy.retarget", "apply", "nn.apply"),
    ("trackpolicy.retarget", "KeypointRetargeter.fit", "retarget.fit"),
    ("trackpolicy.retarget", "KeypointRetargeter.transform_batch", "retarget.transform_batch"),
    ("trackpolicy.nn.tensor", "backward", "nn.backward"),
    ("trackpolicy.nn.optim", "Adam.step", "nn.adam_step"),
    ("trackpolicy.sim", "observe", "sim.observe"),
    ("trackpolicy.sim", "step", "sim.step"),
    ("trackpolicy.sim", "scripted_demo", "sim.scripted_demo"),
    ("trackpolicy.data", "chunk", "data.chunk"),
    ("trackpolicy.data", "save_dataset", "data.save_dataset"),
    ("trackpolicy.data", "load_dataset", "data.load_dataset"),
)

LAYERS = tuple(dict.fromkeys(name for _, _, name in PATCHES))


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


class Tracer:
    """Installs the PATCHES wrappers; records spans only while `enabled`.

    Use as a context manager so every original is put back, even when the
    traced work raises.
    """

    def __init__(self):
        self.spans = []
        self.enabled = False
        self.request_id = None
        self._stack = []
        self._originals = []

    def __enter__(self) -> "Tracer":
        for module, attr, name in PATCHES:
            owner, leaf = _resolve(module, attr)
            original = owner.__dict__[leaf]
            setattr(owner, leaf, self._wrap(original, name))
            self._originals.append((owner, leaf, original))
        return self

    def __exit__(self, *exc) -> None:
        self.enabled = False
        for owner, leaf, original in reversed(self._originals):
            setattr(owner, leaf, original)
        self._originals.clear()

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [len(spans), stack[-1] if stack else None, self.request_id,
                    name, time.perf_counter(), None]
            spans.append(span)
            stack.append(span[0])
            try:
                return fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                stack.pop()

        return traced

    def layer_totals(self) -> dict:
        """name -> (calls, self ms); self time excludes direct child spans."""
        child_s = [0.0] * len(self.spans)
        for _, parent, _, _, t0, t1 in self.spans:
            if parent is not None:
                child_s[parent] += t1 - t0
        totals = {name: [0, 0.0] for name in LAYERS}
        for sid, _, _, name, t0, t1 in self.spans:
            totals[name][0] += 1
            totals[name][1] += (t1 - t0 - child_s[sid]) * 1e3
        return {name: (calls, ms) for name, (calls, ms) in totals.items()}

    def write_jsonl(self, path) -> None:
        origin = self.spans[0][4] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, rid, name, t0, t1 in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "request": rid, "name": name,
                    "start_ms": (t0 - origin) * 1e3, "end_ms": (t1 - origin) * 1e3,
                }) + "\n")
