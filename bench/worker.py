"""Run one benchmark workload in this process and print its figures as JSON.

Started by ``run.py``, which owns the command line the benchmark is
called with; this process holds only the program and the workload, so
its set-up time and peak memory are the workload's own.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


class Clock:
    """Accumulates the wall and CPU time spent inside ``with clock:`` blocks."""

    def __init__(self):
        self.busy = self.busy_cpu = 0.0

    def __enter__(self):
        self._start = time.perf_counter()
        self._start_cpu = time.process_time()

    def __exit__(self, *exc):
        self.busy += time.perf_counter() - self._start
        self.busy_cpu += time.process_time() - self._start_cpu


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-file", dest="trace_file")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import refac
    from refac.errors import RefacError

    import spans
    from workloads import WORKLOADS, OperationFailed

    recorder = missing = None
    if args.trace:
        recorder = spans.Recorder()
        _, missing = spans.install(recorder)

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    first_op = time.monotonic()

    clock = Clock()
    rounds = failed = 0
    round_s = []
    while clock.busy < args.seconds:
        before = clock.busy
        index = recorder.open(spans.ROUND) if recorder else None
        try:
            workload.round(rounds, clock)
        except (RefacError, OperationFailed) as exc:
            print(f"round {rounds} failed: {exc}", file=sys.stderr)
            failed += workload.OPS_PER_ROUND
        finally:
            if recorder:
                recorder.close(index)
        rounds += 1
        round_s.append(clock.busy - before)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    attempted = rounds * workload.OPS_PER_ROUND

    failures = workload.check()
    result = {
        "first_op": first_op,
        "attempted": attempted,
        "failed": failed,
        "rounds": rounds,
        "busy_s": clock.busy,
        "busy_cpu_s": clock.busy_cpu,
        "round_s": round_s,
        "ops_per_s": (attempted - failed) / clock.busy,
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "failures": failures,
        "refac_version": refac.__version__,
    }
    if recorder:
        result["layers"] = spans.layer_metrics(recorder, missing, attempted,
                                               workload.OPS_PER_ROUND)
        if args.trace_file:
            recorder.dump(args.trace_file)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
