"""Benchmark of refac: one workload per call, in its own process.

    python3 bench/run.py --workload variance-study --seed 1 --seconds 35 --trace 0

The workload runs in a fresh interpreter (``worker.py``) with BLAS pinned
to one thread unless the environment already sets the thread count.  The
last line of standard output is one JSON object: whether the outputs
passed their checks, operations attempted and failed, and the metrics --
``setup_s``, ``ops_per_s`` and ``peak_rss_mb`` untraced, or the per-layer
metrics with ``--trace 1``.  The full result (and the spans of a traced
run) is also written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import CliWide

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOADS = ("variance-study", "coverage-study", "cli-wide")
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: the worker is stopped after this long; a run must end within 180 s
WORKER_TIMEOUT_S = 170


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "refac" / "__init__.py").is_file():
        print(f"run.py: the program's sources are missing ({SRC / 'refac'})",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = dict(os.environ)
    for variable in BLAS_THREAD_VARIABLES:
        env.setdefault(variable, "1")
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        if args.workload == "cli-wide":
            CliWide.prepare(args.seed, workdir)
        command = [sys.executable, str(HERE / "worker.py"),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--workdir", workdir]
        if args.trace:
            command += ["--trace-file", str(OUT / f"{stem}.spans.json")]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                                  text=True, timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"run.py: worker stopped after {WORKER_TIMEOUT_S} s", file=sys.stderr)
            return 3
    if proc.returncode != 0:
        print(f"run.py: worker exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode if proc.returncode > 0 else 1
    worker = json.loads(proc.stdout.strip().splitlines()[-1])

    if args.trace:
        metrics = worker["layers"]
    else:
        metrics = {
            "setup_s": {"value": worker["first_op"] - spawned, "unit": "s"},
            "ops_per_s": {"value": worker["ops_per_s"], "unit": "ops/s"},
            "peak_rss_mb": {"value": worker["peak_rss_mb"], "unit": "MB"},
        }
    result = {"correct": not worker["failures"], "attempted": worker["attempted"],
              "failed": worker["failed"], "metrics": metrics}
    for failure in worker["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    details = dict(worker, workload=args.workload, seed=args.seed,
                   seconds=args.seconds, trace=args.trace,
                   blas_threads={v: env[v] for v in BLAS_THREAD_VARIABLES},
                   python=sys.version.split()[0], result=result)
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=1) + "\n",
                                      encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
