#!/usr/bin/env python3
"""Generate synthetic flow corpora and, given a trained model, gate fixtures.

Writes corpus.csv (training-grade, with missing markers), pool_mixed.csv and
pool_benign.csv (clean pools for gate crafting).  With --model it also writes
three_flow.csv (two passing rows around one the model flags) and
clean_gate.csv (passing rows only), picked by the model's own verdicts so the
gate tests exercise real decisions rather than hand-set labels.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from flowsentry import flowdata, monitor, pipeline, synth
from flowsentry.errors import FlowSentryError


def pick_rows(tm, path, want, threshold, limit):
    """The first `limit` raw lines whose flow the model alerts on (want="alert")
    or passes, among rows the monitor would score.  The candidates are
    scored together; each flow's verdict is the one score_flow gives it."""
    lines = path.read_text(encoding="utf-8").splitlines()
    with pipeline.open_scoring_input(path, tm) as (schema, fh):
        scorable = [row for row in flowdata.iter_selected_rows(fh, schema, tm.feature_names)
                    if isinstance(row, tuple) and row[0] is not None]
    if not scorable:
        return lines[0], []
    probs = tm.net.predict_proba(tm.transform_matrix([values for values, _ in scorable]))
    best = probs.argmax(axis=1)
    confidences = probs[np.arange(len(probs)), best]
    by_flow = {}
    for line in lines[1:]:
        by_flow.setdefault(line.split(",", 1)[0], line)
    tokens = monitor.alert_tokens(tm.class_names)
    picked = []
    for (_, cells), k, confidence in zip(scorable, best, confidences):
        alert = tokens[k] is not None and confidence >= threshold
        flow_id = flowdata._identity_cells(schema, cells)[1]
        if (want == "alert") == alert and flow_id in by_flow:
            picked.append(by_flow[flow_id])
        if len(picked) >= limit:
            break
    return lines[0], picked


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="fixtures", help="output directory")
    ap.add_argument("--rows", type=int, default=2000, help="corpus row count")
    ap.add_argument("--seed", type=int, default=17)
    ap.add_argument("--profile", default="ids2017", choices=["ids2017", "ids2018"])
    ap.add_argument("--separation", type=float, default=1.6,
                    help="class separation of the synthetic archetypes")
    ap.add_argument("--missing-fraction", type=float, default=0.005)
    ap.add_argument("--model", help="trained model file; enables gate crafting")
    ap.add_argument("--threshold", type=float, default=0.5)
    args = ap.parse_args(argv)

    try:
        texts = {
            "corpus.csv": synth.flow_csv(
                args.rows, profile=args.profile, seed=args.seed,
                missing_fraction=args.missing_fraction, separation=args.separation),
            "pool_mixed.csv": synth.flow_csv(
                max(args.rows // 10, 100), profile=args.profile, seed=args.seed + 4,
                missing_fraction=0.0, separation=args.separation),
            "pool_benign.csv": synth.flow_csv(
                max(args.rows // 20, 60), profile=args.profile, seed=args.seed + 6,
                benign_only=True, missing_fraction=0.0, separation=args.separation),
        }
    except FlowSentryError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        (out / name).write_text(text, encoding="utf-8")
    corpus, mixed, benign = (out / name for name in texts)
    print(f"[fixtures] corpus {corpus} ({args.rows} rows), pools {mixed}, {benign}")

    if not args.model:
        return 0

    tm = pipeline.load_model(args.model)
    header, alerts = pick_rows(tm, mixed, "alert", args.threshold, 1)
    _, passing = pick_rows(tm, benign, "pass", args.threshold, 6)
    if not alerts or len(passing) < 6:
        print("[fixtures] model verdicts cannot craft the gates "
              f"(alerts={len(alerts)}, passing={len(passing)})", file=sys.stderr)
        return 1

    three = out / "three_flow.csv"
    three.write_text("\n".join([header, passing[0], alerts[0], passing[1]]) + "\n",
                     encoding="utf-8")
    clean = out / "clean_gate.csv"
    clean.write_text("\n".join([header] + passing[2:6]) + "\n", encoding="utf-8")
    print(f"[fixtures] gates {three} (1 alert of 3), {clean} (clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
