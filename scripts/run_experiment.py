#!/usr/bin/env python3
"""End-to-end experiment on a synthetic corpus.

Generates flow CSVs, then drives the CLI through preprocess, feature
selection, training, evaluation, and a four-stage gate run, and prints the
headline numbers.  The defaults finish in a few minutes on a laptop; --quick
trades model capacity for speed when iterating.
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from flowsentry import cli


def run_cli(argv, seconds):
    """Run one CLI step, recording its wall seconds under its subcommand."""
    started = time.monotonic()
    rc = cli.main(argv)
    seconds[argv[0]] = time.monotonic() - started
    if rc not in (0, 2):
        print(f"[experiment] step {argv[0]} failed with exit {rc}", file=sys.stderr)
        sys.exit(rc)
    return rc


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="experiment", help="working directory")
    ap.add_argument("--rows", type=int, default=5000)
    ap.add_argument("--seed", type=int, default=17)
    ap.add_argument("--profile", default="ids2017", choices=["ids2017", "ids2018"])
    ap.add_argument("--separation", type=float, default=1.6)
    ap.add_argument("--target-k", type=int, default=22,
                    help="features kept by the selection stage (the default "
                         "network needs at least 22)")
    ap.add_argument("--epochs", type=int, default=None,
                    help="override the training epoch count")
    ap.add_argument("--quick", action="store_true",
                    help="small network and short training for smoke runs")
    args = ap.parse_args(argv)

    out = Path(args.out)
    fixtures = out / "fixtures"
    subprocess.run(
        [sys.executable, str(Path(__file__).with_name("make_fixtures.py")),
         "--out", str(fixtures), "--rows", str(args.rows),
         "--seed", str(args.seed), "--profile", args.profile,
         "--separation", str(args.separation)],
        check=True,
    )

    started = time.monotonic()
    seconds = {}
    prep = out / "preprocess"
    run_cli(["preprocess", "--data", str(fixtures / "corpus.csv"),
             "--profile", args.profile, "--out-dir", str(prep)], seconds)

    sel = out / "select"
    run_cli(["select-features", "--data", str(prep / "prepared.csv"),
             "--profile", args.profile, "--target-k", str(args.target_k),
             "--step", "2", "--out-dir", str(sel)], seconds)

    train = out / "train"
    train_argv = ["train", "--data", str(prep / "prepared.csv"),
                  "--features", str(sel / "selected_features.txt"),
                  "--encodings", str(prep / "encodings.json"),
                  "--profile", args.profile, "--seed", str(args.seed),
                  "--out-dir", str(train)]
    if args.quick:
        train_argv += ["--conv-filters", "8,16", "--dropout", "0.1",
                       "--lstm", "16", "--epochs", "8", "--batch-size", "128",
                       "--learning-rate", "0.005"]
    if args.epochs is not None:
        train_argv += ["--epochs", str(args.epochs)]
    run_cli(train_argv, seconds)

    model = train / "model.nidm"
    subprocess.run(
        [sys.executable, str(Path(__file__).with_name("make_fixtures.py")),
         "--out", str(fixtures), "--rows", str(args.rows),
         "--seed", str(args.seed), "--profile", args.profile,
         "--separation", str(args.separation), "--model", str(model)],
        check=True,
    )

    gates = out / "gates"
    gate_rc = run_cli(["stage-run", "--model", str(model),
                       "--build-input", str(fixtures / "clean_gate.csv"),
                       "--test-input", str(fixtures / "pool_mixed.csv"),
                       "--deploy-input", str(fixtures / "three_flow.csv"),
                       "--monitor-input", str(fixtures / "clean_gate.csv"),
                       "--out-dir", str(gates)], seconds)

    metrics = json.loads((train / "metrics.json").read_text(encoding="utf-8"))
    elapsed = time.monotonic() - started
    print()
    print(f"[experiment] rows={args.rows} profile={args.profile} "
          f"seed={args.seed} elapsed={elapsed:.0f}s")
    print("[experiment] step wall seconds: "
          + " ".join(f"{step}={s:.2f}" for step, s in seconds.items()))
    print(f"[experiment] held-out accuracy={metrics['accuracy']:.4f} "
          f"weighted_f1={metrics['weighted_f1']:.4f}")
    print(f"[experiment] stage-run exit={gate_rc} "
          f"(2 means the deploy gate caught its planted anomaly)")
    print(f"[experiment] artifacts under {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
