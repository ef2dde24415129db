"""Runs one workload's closed loop in a process of its own, so its peak RSS is its own.

    python3 perfbench/worker.py --workload NAME --work DIR --seconds S --trace 0|1

Reads ``DIR/state.json`` written by the set-up, runs operations back to back
until S seconds have passed and the workload's minimum count is reached, and
writes
``DIR/result.json`` (plus ``DIR/spans.npz`` when traced).  The parent passes
an absolute ``src`` path in PYTHONPATH.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import workloads
from tracer import OP, Tracer, peak_rss_mb


def run(workload: str, work: Path, seconds: float, trace: bool) -> dict:
    state = json.loads((work / "state.json").read_text("utf-8"))
    op = workloads.OPS[workload]
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install_program()
        op_id = tracer.name(OP)
    times, errors = [], []
    attempted = failed = 0
    first = None
    started = time.perf_counter()
    while True:
        span = tracer.open(op_id) if tracer else None
        try:
            calls, bad, timing, facts = op(state, work)
        finally:
            if tracer:
                tracer.close(span)
        attempted += calls
        if not bad:
            # repeats of one operation must give identical outputs
            first = facts if first is None else first
            if facts != first:
                bad, facts = 1, {"error": f"output differs from the first repeat: {facts} vs {first}"}
        failed += bad
        if bad:
            errors.append(facts.get("error", "failed"))
        times.append(timing)
        if (time.perf_counter() - started >= seconds
                and len(times) >= workloads.MIN_OPS[workload]):
            break
    if tracer:
        tracer.uninstall()
        tracer.save(work / "spans.npz")
    return {
        "times": {clock: [t[clock] for t in times] for clock in times[0]},
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:5],
        "facts": first or {},
        "peak_rss_mb": peak_rss_mb(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--work", required=True, type=Path)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result = run(args.workload, args.work, args.seconds, bool(args.trace))
    (args.work / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
