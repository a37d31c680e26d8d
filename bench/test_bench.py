"""Tests of the benchmark itself, at tiny sizes.

    python -m pytest bench -q

They run each workload in-process with the TINY sizes and `seconds=0`, so a
run does exactly its minimum number of units and its outputs are a function
of the seed alone.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402
from tracer import LAYERS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# each workload's own wall-clock and quality figures, reported beside the
# shared end-to-end metrics
FIGURES = {
    "cotrain": {"setup_s", "peak_rss_mb", "train_samples_per_s", "train_mse"},
    "learned_eval": {"setup_s", "peak_rss_mb", "episodes_per_s", "episode_ms_p50",
                     "replan_ms_p50", "replan_ms_p90", "success_rate", "chunk_err_mm"},
    "oracle_eval": {"setup_s", "peak_rss_mb", "episodes_per_s", "episode_ms_p50",
                    "replan_ms_p50", "replan_ms_p90", "success_rate", "demos_per_s"},
}
PER_LAYER_EXTRA = {"nn.forward.calls_per_replan", "data.save_dataset.bytes",
                   "inference.replans_per_episode", "inference.residual_px_p50",
                   "tracing.overhead_s", "tracing.overhead_pct"}

_cache = {}


def tiny(workload: str, trace: bool) -> dict:
    key = (workload, trace)
    if key not in _cache:
        _cache[key] = workloads.run(workload, 7, 0.0, trace, size=workloads.TINY)
    return _cache[key]


def _check_named(metrics: dict, expected: set) -> None:
    assert set(metrics) == expected
    for name, m in metrics.items():
        assert NAME.match(name), name
        assert set(m) == {"value", "unit"}
        assert UNIT.match(m["unit"]), (name, m["unit"])
        assert isinstance(m["value"], (int, float)), name


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(workload):
    res = tiny(workload, False)
    assert res["correct"], res["checks"]
    assert res["attempted"] >= 1 and res["failed"] == 0
    _check_named(res["metrics"], {m["name"] for m in SPEC["end_to_end"]})
    for m in SPEC["end_to_end"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert res["metrics"][m["name"]]["value"] > 0, m["name"]
    assert FIGURES[workload] <= set(res["report"])
    _check_named(res["report"], set(res["report"]))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(workload):
    res = tiny(workload, True)
    assert res["correct"], res["checks"]
    expected = {m["name"] for m in SPEC["per_layer"]}
    _check_named(res["metrics"], expected)
    assert expected == {f"{layer}.{kind}" for layer in LAYERS
                        for kind in ("calls", "self_ms")} | PER_LAYER_EXTRA
    for m in SPEC["per_layer"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]


def test_layers_called_where_the_workload_says():
    calls = {w: {k[:-len(".calls")]: v["value"] for k, v in tiny(w, True)["metrics"].items()
                 if k.endswith(".calls")} for w in workloads.WORKLOADS}
    for layer in ("nn.forward", "diffusion.ancestral_sample", "policy.sample",
                  "inference.predict_chunk"):
        assert calls["learned_eval"][layer] > 0 and calls["oracle_eval"][layer] == 0
    for layer in ("diffusion.ancestral_sample", "inference.chunk_from_tracks",
                  "geometry.triangulate", "sim.observe"):
        assert calls["cotrain"][layer] == 0
    for layer in ("policy.train_step", "nn.apply", "nn.backward", "nn.adam_step",
                  "retarget.fit", "data.chunk"):
        assert calls["cotrain"][layer] > 0 and calls["oracle_eval"][layer] == 0
    for layer in ("sim.scripted_demo", "data.save_dataset", "data.load_dataset",
                  "inference.oracle_chunk"):
        assert calls["oracle_eval"][layer] > 0


def test_deterministic_outputs_repeat_for_a_seed():
    for workload, figures in (("cotrain", ["train_mse"]),
                              ("learned_eval", ["success_rate", "chunk_err_mm"]),
                              ("oracle_eval", ["success_rate"])):
        again = workloads.run(workload, 7, 0.0, False, size=workloads.TINY)
        for f in figures:
            assert again["report"][f] == tiny(workload, False)["report"][f], (workload, f)
        traced = workloads.run(workload, 7, 0.0, True, size=workloads.TINY)
        first = tiny(workload, True)["metrics"]
        counts = {k: v for k, v in traced["metrics"].items() if k.endswith(".calls")}
        assert counts == {k: first[k] for k in counts}, workload


def test_learned_eval_counts_one_sampler_pass_per_view():
    m = tiny("learned_eval", True)["metrics"]
    replans = m["inference.predict_chunk.calls"]["value"]
    assert m["policy.sample.calls"]["value"] == 2 * replans
    assert m["diffusion.ancestral_sample.calls"]["value"] == 2 * replans


def test_patches_are_removed_after_a_traced_run():
    from trackpolicy import geometry, inference, policy

    before = (inference.triangulate, geometry.triangulate, policy.forward,
              policy.train_step, policy.Adam.step)
    tiny("oracle_eval", True)
    workloads.run("oracle_eval", 8, 0.0, True, size=workloads.TINY)
    assert before == (inference.triangulate, geometry.triangulate, policy.forward,
                      policy.train_step, policy.Adam.step)


def test_cli_refuses_to_run_without_the_package_source():
    """A directory holding only BENCHMARK.json and bench/ yields no result."""
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=workloads.OUT_DIR))
    try:
        (bare / "bench").mkdir()
        for f in BENCH.glob("*.py"):
            shutil.copy(f, bare / "bench" / f.name)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        p = subprocess.run([sys.executable, "bench/run.py", "--workload", "oracle_eval",
                            "--seed", "1", "--seconds", "1", "--trace", "0"],
                           cwd=bare, env=env, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare)
    assert p.returncode != 0
    assert p.stdout.strip() == ""
