"""trackpolicy benchmark: one command per workload run.

    python3 bench/run.py --workload {cotrain,learned_eval,oracle_eval} \
        --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from ./src. With
--trace 0 the last stdout line holds the end-to-end metrics, with --trace 1
the per-layer ones, both as
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
The line before it is a report: provenance, the correctness checks, and each
workload's own wall-clock and quality figures under their own names. The
traced run also writes its spans to bench/out/trace-<workload>-<seed>.jsonl.
Workloads and metrics are described in workloads.py, the scaling of the
end-to-end timings in calibrate.py.

    python -m pytest bench    # the benchmark's own tests, at tiny sizes

Exits 1 when a correctness check fails and 2 when the package source is
missing, printing no result line in the latter case.
"""

import os

# pinned before numpy is imported anywhere: the benchmark is single-threaded
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def _git_commit() -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("cotrain", "learned_eval", "oracle_eval"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")

    if not (SRC / "trackpolicy" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import trackpolicy
    if Path(trackpolicy.__file__).resolve().parent != SRC / "trackpolicy":
        print(f"error: trackpolicy imported from {trackpolicy.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    trace_path = None
    if args.trace:
        os.makedirs(workloads.OUT_DIR, exist_ok=True)
        trace_path = os.path.join(workloads.OUT_DIR,
                                  f"trace-{args.workload}-{args.seed}.jsonl")
    res = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                        trace_path=trace_path)
    report = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "provenance": provenance(args.seed), "units": res["units"],
              "samples": res["samples"], "checks": res["checks"],
              "figures": res["report"], "trace_file": trace_path}
    print(json.dumps(report))
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
