"""flowsentry benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload build|gate_stream|gate_stages \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The run sets the workload up
``SETUP_REPEATS`` times from the seed, runs its closed loop for S seconds in a
separate process, checks every operation's outputs, prints a table of metrics
with units and sample counts, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, times given at reference speed (``pace.py``);
with ``--trace 1`` the loop runs once untraced and once traced, and the
metrics are the per-layer ones.  Work files
and a results record (machine fingerprint, ``src/`` line count, metrics) go
to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_REPEATS = {"build": 9, "gate_stream": 2, "gate_stages": 2}
# One BLAS thread.  On a small shared machine a second BLAS thread waits for a
# busy core: a 3.5 s model build took 12-19 s in some runs with two threads.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
RUN_BUDGET_S = 170             # a run must end within 180 s

E2E_UNITS = {
    "setup_s": "s",
    "build_s": "s",
    "heldout_weighted_f1": "ratio",
    "peak_rss_mb": "MB",
    "stream_flows_per_s": "1/s",
    "gate_p50_ms": "ms",
    "gate_p90_ms": "ms",
}


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def fingerprint() -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": {k: os.environ[k] for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                             if k in os.environ},
    }


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))


def run_setups(workload: str, seed: int, work: Path, tracer) -> dict:
    """Set the workload up SETUP_REPEATS times; each set-up's seconds per clock, and states."""
    import workloads
    from pace import run_timed
    from tracer import SETUP

    setup = workloads.SETUPS[workload]
    times, states = [], []
    for k in range(SETUP_REPEATS[workload]):
        target = work / f"setup{k}"
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        span = tracer.open(tracer.name(SETUP)) if tracer else None
        try:
            (state,), timing = run_timed([lambda: setup(target, seed)])
        finally:
            if tracer:
                tracer.close(span)
        states.append(state)
        times.append(timing)
    return {"times": {clock: [t[clock] for t in times] for clock in times[0]},
            "states": states}


def run_worker(workload: str, state: dict, work: Path, seconds: int, trace: bool,
               deadline: float) -> dict:
    work.mkdir(parents=True, exist_ok=True)
    for stale in ("result.json", "spans.npz"):
        (work / stale).unlink(missing_ok=True)
    (work / "state.json").write_text(json.dumps(state), encoding="utf-8")
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--work", str(work),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads((work / "result.json").read_text("utf-8"))


def end_to_end(workload: str, setups: dict, result: dict, clock: str) -> tuple[dict, dict]:
    """Metric values and their sample counts, times on the given clock."""
    lat = result["times"][clock]
    setup_times = setups["times"][clock]
    p50 = statistics.median(lat)
    states = setups["states"]
    state = states[-1]
    if workload == "build":
        build = p50
        build_n = len(lat)
        f1 = result["facts"].get("f1", 0.0)
    else:
        model_builds = [s["model_build_s"][clock] for s in states]
        build = statistics.median(model_builds)
        build_n = len(model_builds)
        f1 = state["model_f1"]
    values = {
        "setup_s": statistics.median(setup_times),
        "build_s": build,
        "heldout_weighted_f1": f1,
        "peak_rss_mb": result["peak_rss_mb"],
        "stream_flows_per_s": state["rows"] * len(lat) / sum(lat),
        "gate_p50_ms": p50 * 1000.0,
        "gate_p90_ms": _percentile(lat, 90) * 1000.0,
    }
    counts = {"setup_s": len(setup_times), "build_s": build_n, "heldout_weighted_f1": 1,
              "peak_rss_mb": 1, "stream_flows_per_s": len(lat), "gate_p50_ms": len(lat),
              "gate_p90_ms": len(lat)}
    return values, counts


def _table(rows) -> None:
    for name, value, unit, n in rows:
        print(f"  {name:<40} {value:>14.6g} {unit:<6} n={n}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="flowsentry benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "flowsentry" / "__init__.py").is_file():
        return _fail(f"no flowsentry sources under {SRC}; run from a source checkout")
    os.environ.update(BLAS_THREADS)          # before numpy loads, here and in children
    sys.path.insert(0, str(SRC))
    import workloads
    import tracer as tracing
    from pace import REFERENCE_S

    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS}")
    if args.seconds < 1:
        return _fail("--seconds must be at least 1")
    deadline = time.monotonic() + RUN_BUDGET_S
    seed = args.seed % 2**31
    work = OUT / args.workload
    trace = bool(args.trace)

    setup_tracer = None
    if trace:
        setup_tracer = tracing.Tracer()
        setup_tracer.install_synth()
    try:
        setups = run_setups(args.workload, seed, work, setup_tracer)
        states = setups["states"]
        shas = {s.get("model_sha") for s in states}
        if len(shas) != 1:
            return _fail(f"set-up repeats built different models: {sorted(shas)}")
        result = run_worker(args.workload, states[-1], work / "run", args.seconds, False,
                            deadline)
        values, counts = end_to_end(args.workload, setups, result, "paced")
        measured, _ = end_to_end(args.workload, setups, result, "wall")
        traced_values = layer = None
        if trace:
            setup_tracer.uninstall()
            setup_tracer.save(work / "setup_spans.npz")
            traced = run_worker(args.workload, states[-1], work / "traced", args.seconds, True,
                                deadline)
            traced_values, _ = end_to_end(args.workload, setups, traced, "paced")
            op_trace = tracing.Trace(work / "traced" / "spans.npz", tracing.OP)
            setup_trace = tracing.Trace(work / "setup_spans.npz", tracing.SETUP)
            layer = tracing.analyse(op_trace, setup_trace)
            layer["trace.overhead_ms"] = traced_values["gate_p50_ms"] - values["gate_p50_ms"]
            layer["code.src_lines"] = src_lines()
            result["attempted"] += traced["attempted"]
            result["failed"] += traced["failed"]
            result["errors"] += traced["errors"]
    except (workloads.CheckFailed, RuntimeError, OSError, subprocess.TimeoutExpired) as err:
        return _fail(f"{args.workload}: {err}")

    fp = fingerprint()
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} rows/operation={states[-1]['rows']}")
    print(f"machine: {json.dumps(fp, sort_keys=True)}")
    print(f"src lines: {src_lines()}")
    print(f"end-to-end{' (untraced run)' if trace else ''}, times at reference speed "
          f"(measured x {REFERENCE_S} s / reference kernel time around each call):")
    print(f"  {'':<40} {'at reference':>14} {'unit':<6} {'n':<6} {'as measured':>14}")
    for k, v in values.items():
        print(f"  {k:<40} {v:>14.6g} {E2E_UNITS[k]:<6} {counts[k]:<6} {measured[k]:>14.6g}")
    ratio = result["failed"] / result["attempted"]
    print(f"  {'failed_ops_ratio':<40} {ratio:>14.6g} {'ratio':<6} n={result['attempted']}")
    for err in result["errors"]:
        print(f"  failure: {err}")
    if trace:
        print("tracing overhead (traced minus untraced, at reference speed):")
        _table((k, traced_values[k] - values[k], E2E_UNITS[k], counts[k])
               for k in ("gate_p50_ms", "gate_p90_ms", "peak_rss_mb"))
        print(f"per operation, largest inclusive first ({op_trace.n_roots} operations):")
        mean_s = statistics.mean(traced["times"]["wall"])
        for name, inclusive, own in op_trace.breakdown():
            print(f"  {name:<32} incl {inclusive:10.6f} s ({100 * inclusive / mean_s:5.1f}%)"
                  f"  self {own:10.6f} s")
        print("per-layer:")
        _table((k, v, tracing.unit_of(k),
                setup_trace.n_roots if k.startswith("synth.") else op_trace.n_roots)
               for k, v in layer.items())

    metrics = layer if trace else values
    reported = {k: {"value": v, "unit": tracing.unit_of(k) if trace else E2E_UNITS[k]}
                for k, v in metrics.items()}
    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": fp, "src_lines": src_lines(),
              "samples": counts, "end_to_end": values, "end_to_end_as_measured": measured,
              "per_layer": layer, "operation_s": result["times"], "setup_s": setups["times"]}
    OUT.joinpath("results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
