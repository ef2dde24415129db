"""The three workloads: inputs made from the seed, set-up, one operation, and its output checks.

Every workload is a closed loop of one client: the next operation starts when
the previous one has finished.  The program is driven only through
``flowsentry.cli.main`` (the argv a user types) and ``flowsentry.synth``;
``scripts/make_fixtures.py --model`` crafts the stage-run gate inputs.

* build        preprocess -> select-features -> train on a synthetic ids2017 corpus.
               Nearly all featsel (forest/RFE), resample (kNN) and nncore
               training work runs here.
* gate_stream  one ``monitor`` call over a long flow CSV with missing and
               malformed cells.  Per-flow scoring dominates.
* gate_stages  back-to-back ``stage-run`` calls on four tiny stage inputs.  Fixed
               per-call cost (model load, CLI, manifest hashing) dominates.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

from pace import run_timed

WORKLOADS = ("build", "gate_stream", "gate_stages")

PROFILE = "ids2017"
CORPUS_ROWS = 800                   # raw corpus rows per model build
STREAM_ROWS = 2000                  # rows in the gate_stream input
SEPARATION = 1.6                    # class separation, as scripts/make_fixtures.py uses
# The build recipe is scripts/run_experiment.py's: RFE with step 2 and the
# default 50 trees, then train with the default architecture, batch 256 and
# learning rate 0.001.  Only the corpus rows and the epochs are smaller.
# The default ModelConfig needs at least 22 input features: at 21 its third conv
# block is left with length 1 against a pool of 2 ("conv block 3: input length 1
# shorter than pool 2"), so the README quickstart's default --target-k 20 fails.
TARGET_K = 22
EPOCHS = 30
F1_FLOOR = 0.8                      # held-out weighted F1 every model must clear
MIN_STAGE_CALLS = 110               # gate_stages: at least 10 samples beyond p90

# gate_stream input damage, as shares of rows: a missing marker in one feature,
# a non-numeric cell, and a row cut short.
MISSING_SHARE = 0.02
MALFORMED_SHARE = 0.01
TRUNCATED_SHARE = 0.005
STAGE_FILES = {"build": "clean_gate.csv", "test": "clean_gate.csv",
               "deploy": "three_flow.csv", "monitor": "clean_gate.csv"}


class CheckFailed(Exception):
    pass


@contextlib.contextmanager
def _quiet():
    """The CLI's console output goes to the null device, as to a discarded pipe."""
    with open(os.devnull, "w", encoding="utf-8") as sink, \
            contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        yield


def cli_call(argv: list[str]) -> int:
    from flowsentry import cli

    with _quiet():
        return cli.main(argv)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _f1(run_dir: Path) -> float:
    return json.loads((run_dir / "metrics.json").read_text("utf-8"))["weighted_f1"]


def _write_corpus(path: Path, rows: int, seed: int) -> None:
    from flowsentry import synth

    path.write_text(synth.flow_csv(rows, profile="ids2017", seed=seed,
                                   missing_fraction=0.01, separation=SEPARATION),
                    encoding="utf-8")


def _build_argv(corpus: Path, out: Path, seed: int) -> list[list[str]]:
    """preprocess -> select-features -> train, as scripts/run_experiment.py types them."""
    prep = out / "prep"
    return [
        ["preprocess", "--data", str(corpus), "--profile", PROFILE, "--out-dir", str(prep)],
        ["select-features", "--data", str(prep / "prepared.csv"), "--profile", PROFILE,
         "--target-k", str(TARGET_K), "--step", "2", "--out-dir", str(out / "sel")],
        ["train", "--data", str(prep / "prepared.csv"),
         "--features", str(out / "sel" / "selected_features.txt"),
         "--encodings", str(prep / "encodings.json"), "--profile", PROFILE,
         "--seed", str(seed), "--out-dir", str(out / "run"), "--epochs", str(EPOCHS)],
    ]


def _run_steps(steps: list[list[str]]) -> tuple[list[int], dict]:
    """Exit codes, and the seconds the steps took on each clock."""
    return run_timed([lambda argv=argv: cli_call(argv) for argv in steps])


# ---------------------------------------------------------------------------
# Set-up: returns the state an operation needs, JSON-serialisable.


def _build_model(work: Path, seed: int) -> dict:
    corpus = work / "corpus.csv"
    _write_corpus(corpus, CORPUS_ROWS, seed)
    codes, timing = _run_steps(_build_argv(corpus, work / "model", seed))
    if any(codes):
        raise CheckFailed(f"model build exited {codes}")
    model = work / "model" / "run" / "model.nidm"
    f1 = _f1(work / "model" / "run")
    if f1 < F1_FLOOR:
        raise CheckFailed(f"gate model weighted F1 {f1} < {F1_FLOOR}")
    return {"model": str(model), "model_build_s": timing, "model_f1": f1,
            "model_sha": _sha256(model),
            "features": (work / "model" / "sel" / "selected_features.txt")
            .read_text("utf-8").splitlines()}


def _damage_stream(text: str, features: list[str], seed: int) -> tuple[str, int]:
    """Damage a few rows; returns the new text and how many rows cannot be scored."""
    lines = text.splitlines()
    header = lines[0].split(",")
    feature_cols = [header.index(f) for f in features]
    rng = random.Random(seed)
    rows = list(range(1, len(lines)))
    rng.shuffle(rows)
    n_missing = int(MISSING_SHARE * len(rows))
    n_malformed = int(MALFORMED_SHARE * len(rows))
    n_truncated = int(TRUNCATED_SHARE * len(rows))
    damaged = rows[: n_missing + n_malformed + n_truncated]
    for k, i in enumerate(damaged):
        cells = lines[i].split(",")
        if k < n_missing:
            cells[rng.choice(feature_cols)] = rng.choice(["", "NaN", "Infinity"])
        elif k < n_missing + n_malformed:
            cells[rng.choice(feature_cols)] = rng.choice(["n/a?", "1.2.3", "--"])
        else:
            cells = cells[: rng.randrange(2, len(cells) - 1)]
        lines[i] = ",".join(cells)
    return "\n".join(lines) + "\n", len(damaged)


def setup_build(work: Path, seed: int) -> dict:
    corpus = work / "corpus.csv"
    _write_corpus(corpus, CORPUS_ROWS, seed)
    return {"corpus": str(corpus), "seed": seed, "rows": CORPUS_ROWS}


def setup_gate_stream(work: Path, seed: int) -> dict:
    from flowsentry import synth

    state = _build_model(work, seed)
    stream = work / "stream.csv"
    raw = synth.flow_csv(STREAM_ROWS, profile="ids2017", seed=seed + 1,
                         missing_fraction=0.0, separation=SEPARATION)
    text, unscorable = _damage_stream(raw, state["features"], seed)
    stream.write_text(text, encoding="utf-8")
    state.update(stream=str(stream), rows=STREAM_ROWS, unscorable=unscorable)
    return state


def setup_gate_stages(work: Path, seed: int) -> dict:
    state = _build_model(work, seed)
    root = Path(__file__).resolve().parent.parent
    fixtures = work / "fixtures"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "make_fixtures.py"), "--out", str(fixtures),
         "--rows", "400", "--seed", str(seed), "--model", state["model"]],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise CheckFailed(f"make_fixtures.py exited {proc.returncode}: {proc.stderr.strip()}")
    inputs = {stage: str(fixtures / name) for stage, name in STAGE_FILES.items()}
    planted = (fixtures / "three_flow.csv").read_text("utf-8").splitlines()[2].split(",")[0]
    rows = sum(len(Path(p).read_text("utf-8").splitlines()) - 1 for p in inputs.values())
    state.update(inputs=inputs, planted=planted, rows=rows)
    return state


SETUPS = {"build": setup_build, "gate_stream": setup_gate_stream,
          "gate_stages": setup_gate_stages}


# ---------------------------------------------------------------------------
# Operations: each returns (cli calls made, cli calls failed,
# seconds on each clock, facts)


def _anomaly_lines(log: Path) -> list[str]:
    return [ln for ln in log.read_text("utf-8").splitlines() if not ln.startswith("#")]


def _summary(log: Path) -> dict[str, int]:
    for ln in log.read_text("utf-8").splitlines():
        if ln.startswith("# total="):
            return {k: int(v) for k, v in (kv.split("=") for kv in ln[2:].split())}
    raise CheckFailed(f"{log.name}: no summary block")


def _round_trips(lines: list[str]) -> None:
    from flowsentry import monitor

    for ln in lines:
        if monitor.format_entry(monitor.parse_entry(ln)) != ln:
            raise CheckFailed(f"log line does not round-trip: {ln!r}")


def op_build(state: dict, work: Path) -> tuple[int, int, dict, dict]:
    out = work / "rep"
    shutil.rmtree(out, ignore_errors=True)
    codes, timing = _run_steps(_build_argv(Path(state["corpus"]), out, state["seed"]))
    failed = sum(1 for c in codes if c != 0)
    if failed:
        return len(codes), failed, timing, {"error": f"exit codes {codes}"}
    try:
        selected = (out / "sel" / "selected_features.txt").read_text("utf-8").splitlines()
        facts = {"sha": _sha256(out / "run" / "model.nidm"), "f1": _f1(out / "run"),
                 "selected": len(selected)}
    except (OSError, KeyError, ValueError) as err:
        return len(codes), 1, timing, {"error": f"build outputs: {err!r}"}
    if facts["f1"] < F1_FLOOR or facts["selected"] != TARGET_K:
        return len(codes), 1, timing, dict(facts, error=f"weighted F1 {facts['f1']} "
                                            f"(floor {F1_FLOOR}), {len(selected)} features")
    return len(codes), 0, timing, facts


def op_gate_stream(state: dict, work: Path) -> tuple[int, int, dict, dict]:
    from flowsentry.errors import InputError

    out = work / "monitor"
    shutil.rmtree(out, ignore_errors=True)
    argv = ["monitor", "--model", state["model"], "--input", state["stream"],
            "--stage", "monitor", "--out-dir", str(out)]
    (rc,), timing = run_timed([lambda: cli_call(argv)])
    log = out / "monitor.log"
    try:
        summary = _summary(log)
        lines = _anomaly_lines(log)
        _round_trips(lines)
        if summary["total"] != state["rows"]:
            raise CheckFailed(f"total {summary['total']} != rows written {state['rows']}")
        scored = state["rows"] - state["unscorable"]
        if summary["total"] - summary["skipped"] != scored:
            raise CheckFailed(f"skipped {summary['skipped']} + scored {scored} "
                              f"!= total {summary['total']}")
        if summary["anomalies"] != len(lines) or not lines:
            raise CheckFailed(f"{len(lines)} log lines for {summary['anomalies']} anomalies")
        if rc != 2:
            raise CheckFailed(f"exit {rc}, expected 2")
    except (CheckFailed, InputError, OSError) as err:
        return 1, 1, timing, {"error": str(err)}
    return 1, 0, timing, {"anomalies": summary["anomalies"]}


def op_gate_stages(state: dict, work: Path) -> tuple[int, int, dict, dict]:
    from flowsentry import monitor
    from flowsentry.errors import InputError

    out = work / "stages"
    shutil.rmtree(out, ignore_errors=True)
    inputs = state["inputs"]
    argv = ["stage-run", "--model", state["model"],
            "--build-input", inputs["build"], "--test-input", inputs["test"],
            "--deploy-input", inputs["deploy"], "--monitor-input", inputs["monitor"],
            "--out-dir", str(out)]
    (rc,), timing = run_timed([lambda: cli_call(argv)])
    try:
        if rc != 2:
            raise CheckFailed(f"exit {rc}, expected 2")
        for stage in STAGE_FILES:
            lines = _anomaly_lines(out / f"{stage}.log")
            flows = [monitor.parse_entry(ln).flow_id for ln in lines]
            want = [state["planted"]] if stage == "deploy" else []
            if flows != want:
                raise CheckFailed(f"{stage}.log flags {flows}, expected {want}")
    except (CheckFailed, InputError, OSError) as err:
        return 1, 1, timing, {"error": str(err)}
    return 1, 0, timing, {}


OPS = {"build": op_build, "gate_stream": op_gate_stream, "gate_stages": op_gate_stages}
MIN_OPS = {"build": 2, "gate_stream": 2, "gate_stages": MIN_STAGE_CALLS}
