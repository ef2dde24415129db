"""Command-line front end.

Eight subcommands cover the pipeline: preprocess, select-features, resample,
train, evaluate, predict, monitor, stage-run.  Defaults < config file <
explicit flags; a run that would write over a file it reads is refused,
and every run that returns writes a manifest (effective settings, seed,
input checksums) beside its outputs.  Usage problems exit 64, operational
failures 1, anomaly gating 2.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from dataclasses import dataclass, replace
from functools import cache
from pathlib import Path

from . import __version__
from .errors import EmptyDatasetError, FlowSentryError, InputError, ParameterError
from .featsel import apply_minmax, fit_minmax, rfe
from .flowdata import (
    Dataset,
    clean,
    encode_categorical,
    label_map_for,
    map_labels,
    read_prepared_csv,
    read_rows,
    sha256_file,
    undecodable,
    write_dataset_csv,
)
from .flowdata import parse_flow_csv  # noqa: F401  unused; perfbench/tracer.py wraps it here
from .monitor import (
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_USAGE,
    STAGES,
    MonitorConfig,
    run_monitor,
    stage_run,
)
from .pipeline import (
    MODEL_VERSION,
    CnnLstmModel,
    ModelConfig,
    TrainedModel,
    evaluate_model,
    load_model,
    open_scoring_input,
    save_model,
    split_dataset,
    train_model,
)
from .resample import ResampleConfig, resample_pipeline


class _Parser(argparse.ArgumentParser):
    """argparse that exits 64 on usage errors instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _comma_list(text: str) -> list[str]:
    return [t.strip() for t in text.split(",") if t.strip()]


def _class_list(text: str) -> list[str]:
    names = _comma_list(text)
    if not names:
        raise ValueError("name at least one class")
    return names


def _comma_ints(text: str) -> list[int]:
    return [int(t) for t in _comma_list(text)]


def _comma_floats(text: str) -> list[float]:
    return [float(t) for t in _comma_list(text)]


def _bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


@dataclass(frozen=True)
class Opt:
    name: str                # long flag without the leading dashes
    type: object = str       # _bool: a flag, given bare or with a value in a config file
    default: object = None
    help: str = ""
    required: bool = False


_COMMON = [
    Opt("config", str, None, "flat key = value settings file"),
    Opt("out-dir", str, ".", "directory for outputs and the run manifest"),
]

# Only the subcommands that read a seed or a label profile take one.
_SEED = Opt("seed", int, 0, "base random seed")
_PROFILE = Opt("profile", str, "ids2017", "label profile: ids2017 | ids2018 | custom")
_LABEL_RULES = Opt("label-rules", str, None, "JSON rules file for the custom profile")

_SUMMARIES = {
    "preprocess": "clean a raw flow CSV into a prepared CSV",
    "select-features": "rank features by recursive elimination and keep the top k",
    "resample": "scale a prepared CSV and rebalance its classes",
    "train": "train the CNN-LSTM model on a prepared CSV",
    "evaluate": "score a labelled flow CSV and write metrics",
    "predict": "write a verdict and confidence for each row of a flow CSV",
    "monitor": "gate one pipeline stage on a flow CSV",
    "stage-run": "gate all four pipeline stages, one flow CSV each",
}

_SPECS: dict[str, list[Opt]] = {
    "preprocess": [
        _PROFILE,
        Opt("data", str, None, "raw flow CSV", required=True),
        Opt("zero-threshold", float, 0.30, "drop columns with zero fraction above this"),
        Opt("categorical", _comma_list, ["Protocol"], "columns to rank-encode"),
        _LABEL_RULES,
    ],
    "select-features": [
        _SEED,
        _PROFILE,
        _LABEL_RULES,
        Opt("data", str, None, "prepared CSV from preprocess", required=True),
        Opt("target-k", int, 30, "number of features to keep"),
        Opt("step", int, 1, "features eliminated per round"),
        Opt("trees", int, 50, "forest size"),
        Opt("max-depth", int, 12, "tree depth limit"),
        Opt("min-leaf", int, 2, "minimum rows per leaf"),
        Opt("max-features", int, None, "candidate features per split (default sqrt)"),
    ],
    "resample": [
        _SEED,
        _PROFILE,
        _LABEL_RULES,
        Opt("data", str, None, "prepared CSV from preprocess", required=True),
        Opt("smote-k", int, 5, "neighbours for synthetic interpolation"),
        Opt("enn-k", int, 3, "neighbours for the pruning vote"),
    ],
    "train": [
        _SEED,
        _PROFILE,
        _LABEL_RULES,
        Opt("data", str, None, "prepared CSV from preprocess", required=True),
        Opt("features", str, None, "selected-feature list file (one name per line)"),
        Opt("encodings", str, None, "categorical tables JSON from preprocess"),
        Opt("train-frac", float, 0.8, "stratified train share"),
        Opt("epochs", int, 30, "training epochs"),
        Opt("batch-size", int, 256, "mini-batch size"),
        Opt("learning-rate", float, 0.001, "Adam step size"),
        Opt("conv-filters", _comma_ints, [32, 64, 64], "filters per conv block"),
        Opt("kernel", int, 3, "conv kernel width"),
        Opt("pool", int, 2, "max-pool width"),
        Opt("dropout", _comma_floats, [0.2, 0.3], "dropout rates after late blocks"),
        Opt("lstm", _comma_ints, [64, 32], "recurrent layer widths"),
        Opt("smote-k", int, 5, "neighbours for synthetic interpolation"),
        Opt("enn-k", int, 3, "neighbours for the pruning vote"),
        Opt("no-resample", _bool, False, "skip rebalancing of the train split"),
        Opt("model-out", str, None, "model file path (default <out-dir>/model.nidm)"),
    ],
    "evaluate": [
        Opt("model", str, None, "trained model file", required=True),
        Opt("data", str, None, "flow CSV to score", required=True),
    ],
    "predict": [
        Opt("model", str, None, "trained model file", required=True),
        Opt("data", str, None, "flow CSV to score", required=True),
    ],
    "monitor": [
        Opt("model", str, None, "trained model file", required=True),
        Opt("input", str, None, "flow CSV to gate on", required=True),
        Opt("stage", str, MonitorConfig.stage, "pipeline stage tag"),
        Opt("threshold", float, 0.5, "confidence needed to alert"),
        Opt("anomalous", _class_list, None, "classes that count as anomalies"),
        Opt("log", str, None, "log file path (default <out-dir>/<stage>.log)"),
        Opt("follow", _bool, False, "poll the input for appended rows"),
        Opt("poll-interval", float, 0.5, "seconds between polls in follow mode"),
        Opt("idle-timeout", float, None, "stop following after this many idle seconds"),
    ],
    "stage-run": [
        Opt("model", str, None, "trained model file", required=True),
        *(Opt(f"{stage}-input", str, None, f"flow CSV for the {stage} stage", required=True)
          for stage in STAGES),
        Opt("threshold", float, 0.5, "confidence needed to alert"),
        Opt("anomalous", _class_list, None, "classes that count as anomalies"),
    ],
}

# The options that name a file the run reads: its inputs.
_READS = {"data", "features", "encodings", "label-rules", "model", "input",
          *(f"{stage}-input" for stage in STAGES)}


@cache
def _build_parser() -> _Parser:
    """The argparse tree, built once per process: parsing keeps no state in
    it, since every parse_args call fills a fresh namespace."""
    parser = _Parser(
        prog="flowsentry",
        description="Flow-record intrusion detection and CI stage gating.",
    )
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    for name, opts in _SPECS.items():
        p = sub.add_parser(name, help=_SUMMARIES[name])
        for opt in _COMMON + opts:
            kwargs = {"default": None, "help": opt.help, "dest": opt.name.replace("-", "_")}
            if opt.type is _bool:
                p.add_argument(f"--{opt.name}", action="store_const", const=True, **kwargs)
            else:
                p.add_argument(f"--{opt.name}", type=str, **kwargs)
    return parser


@dataclass
class RunConfig:
    subcommand: str
    params: dict
    warnings: list


def _convert(opt: Opt, raw, where: str):
    """A flag's or config file's text through the option's type; any other
    raw value (None, or True from a bare flag) is taken as it is."""
    if not isinstance(raw, str):
        return raw
    try:
        return opt.type(raw)
    except (TypeError, ValueError) as err:
        raise ParameterError(f"bad value for {opt.name} ({where}): {err}") from None


def _read_text(path: str) -> str:
    """A UTF-8 text input file; any other bytes are an InputError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise undecodable(path, err) from None


def _read_config_file(path: str) -> dict[str, str]:
    out = {}
    text = _read_text(path)
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParameterError(f"{path}:{lineno}: expected key = value")
        key, _, value = stripped.partition("=")
        out[key.strip()] = value.strip()
    return out


def parse_args(argv: list[str]) -> RunConfig:
    """Resolve defaults, config file, and flags into one effective mapping."""
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if ns.subcommand is None:
        parser.error("a subcommand is required")
    opts = {o.name: o for o in _COMMON + _SPECS[ns.subcommand]}

    params = {name: o.default for name, o in opts.items()}
    explicit = {}
    try:
        for name, o in opts.items():
            raw = getattr(ns, name.replace("-", "_"))
            if raw is not None:
                explicit[name] = _convert(o, raw, "flag")
    except ParameterError as err:
        parser.error(str(err))

    warnings = []
    config_path = explicit.get("config")
    file_values = {}
    if config_path:
        try:
            file_values = _read_config_file(config_path)
            for key, value in file_values.items():
                if key not in opts:
                    warnings.append(f"config key {key!r} not used by {ns.subcommand}; ignored")
                    continue
                params[key] = _convert(opts[key], value, f"config {config_path}")
        except (ParameterError, InputError, OSError) as err:
            parser.error(str(err))
    for name, value in explicit.items():
        if name in file_values and name in opts and params[name] != value:
            warnings.append(
                f"flag --{name}={value} overrides config value {params[name]!r}"
            )
        params[name] = value

    missing = [o.name for o in opts.values() if o.required and params[o.name] is None]
    if missing:
        parser.error(f"{ns.subcommand}: missing required flag(s): "
                     + ", ".join(f"--{m}" for m in missing))
    return RunConfig(subcommand=ns.subcommand, params=params, warnings=warnings)


# ---------------------------------------------------------------------------
# Manifest


def _sha256(path, digests: dict) -> str | None:
    """An input's SHA-256: the digest taken through the descriptor that read
    it, when its reader left one in `digests`, or else one read here.  None
    for an input that cannot be read (a stage-run whose stage input is
    missing still writes its manifest) and for one that is not a regular
    file: a FIFO is not re-opened, since that would wait for a new writer."""
    if str(path) in digests:
        return digests[str(path)]
    if not Path(path).is_file():
        return None
    try:
        with open(path, "rb") as fh:
            return sha256_file(fh)
    except OSError:
        return None


def _write_manifest(cfg: RunConfig, path: Path, inputs: list, outputs: list, digests: dict):
    manifest = {
        "subcommand": cfg.subcommand,
        "package_version": __version__,
        "model_format_version": MODEL_VERSION,
        "seed": cfg.params.get("seed"),
        "effective_config": {
            k: v for k, v in sorted(cfg.params.items()) if k != "config"
        },
        "inputs": {str(p): _sha256(p, digests) for p in inputs},
        "outputs": sorted(str(o) for o in outputs),
    }
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _read_json(path: str, valid, shape: str):
    """Load a JSON input file; bad syntax, or data that `valid` rejects, is a
    ParameterError naming the file and the `shape` it should have."""
    try:
        data = json.loads(_read_text(path))
    except ValueError as err:
        raise ParameterError(f"{path}: not valid JSON: {err}") from None
    if not valid(data):
        raise ParameterError(f"{path}: expected {shape}")
    return data


def _is_rules(data) -> bool:
    return isinstance(data, list) and all(
        isinstance(r, list) and len(r) == 2 and all(isinstance(v, str) for v in r)
        for r in data
    )


def _is_tables(data) -> bool:
    return isinstance(data, dict) and all(
        isinstance(t, list) and all(isinstance(v, (int, float)) for v in t)
        for t in data.values()
    )


def _label_map(cfg: RunConfig):
    rules = None
    if cfg.params.get("label-rules"):
        rules = _read_json(cfg.params["label-rules"], _is_rules,
                           "a list of [label, class] string pairs")
    return label_map_for(cfg.params["profile"], rules)


def _write_metrics(paths: list[Path], report) -> None:
    """Write the text table, the JSON and the confusion CSV to `paths`, in
    that order, and echo the text table."""
    texts = (report.render_text(), json.dumps(report.to_dict(), indent=2, sort_keys=True),
             report.confusion_csv())
    for path, text in zip(paths, texts):
        path.write_text(text + "\n", encoding="utf-8")
    print(report.render_text())


# ---------------------------------------------------------------------------
# Subcommand bodies: each takes the run's config, the paths of the files it
# writes, as _COMMANDS names them, and a dict for the input digests its
# readers take; it returns its exit status and the files it wrote, for `run`
# to record in the manifest.


def _cmd_preprocess(cfg: RunConfig, outputs: list[Path], digests: dict):
    label_map = _label_map(cfg)
    ds, report = clean(cfg.params["data"], label_map,
                       zero_threshold=cfg.params["zero-threshold"], digests=digests)
    categorical = [c for c in cfg.params["categorical"] if c in ds.columns]
    ds = encode_categorical(ds, categorical)

    prepared, report_path, encodings_path = outputs
    write_dataset_csv(ds, prepared)
    report_path.write_text(report.render() + "\n", encoding="utf-8")
    encodings_path.write_text(json.dumps({k: list(v) for k, v in ds.encodings.items()},
                                         indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"[preprocess] {report.rows_in} rows in, {ds.n_rows} out, "
          f"{len(ds.columns)} features kept")
    return EXIT_OK, outputs


def _cmd_select_features(cfg: RunConfig, outputs: list[Path], digests: dict):
    ds = read_prepared_csv(cfg.params["data"], _label_map(cfg), digests)
    ranking = rfe(
        ds.matrix,
        ds.labels,
        target_k=cfg.params["target-k"],
        step=cfg.params["step"],
        feature_names=list(ds.columns),
        n_trees=cfg.params["trees"],
        max_depth=cfg.params["max-depth"],
        min_leaf=cfg.params["min-leaf"],
        max_features=cfg.params["max-features"],
        seed=cfg.params["seed"],
    )
    features_path, report_path = outputs
    features_path.write_text("\n".join(ranking.selected) + "\n", encoding="utf-8")
    report_path.write_text(ranking.report() + "\n", encoding="utf-8")
    print(f"[select-features] kept {len(ranking.selected)} of "
          f"{len(ranking.selected) + len(ranking.eliminated)} features")
    return EXIT_OK, outputs


def _resample_config(cfg: RunConfig) -> ResampleConfig:
    return ResampleConfig(smote_k=cfg.params["smote-k"], enn_k=cfg.params["enn-k"],
                          seed=cfg.params["seed"])


def _cmd_resample(cfg: RunConfig, outputs: list[Path], digests: dict):
    ds = read_prepared_csv(cfg.params["data"], _label_map(cfg), digests)
    scaler = fit_minmax(ds)
    scaled = apply_minmax(ds, scaler)
    resampled, report = resample_pipeline(scaled, _resample_config(cfg))
    out_csv, report_path = outputs
    write_dataset_csv(resampled, out_csv)
    report_path.write_text(report.render() + "\n", encoding="utf-8")
    print(report.render())
    return EXIT_OK, outputs


def _project(ds: Dataset, names: list[str]) -> Dataset:
    missing = [n for n in names if n not in ds.columns]
    if missing:
        raise ParameterError(f"selected feature(s) missing from data: {missing}")
    cols = [ds.columns.index(n) for n in names]
    return replace(ds, columns=tuple(names), matrix=ds.matrix[:, cols])


def _cmd_train(cfg: RunConfig, outputs: list[Path], digests: dict):
    label_map = _label_map(cfg)
    ds = read_prepared_csv(cfg.params["data"], label_map, digests)

    if cfg.params.get("features"):
        names = [ln.strip() for ln in _read_text(cfg.params["features"]).splitlines()
                 if ln.strip()]
        ds = _project(ds, names)
    encodings = {}
    if cfg.params.get("encodings"):
        tables = _read_json(cfg.params["encodings"], _is_tables,
                            "an object mapping column names to value lists")
        encodings = {k: tuple(v) for k, v in tables.items() if k in ds.columns}

    filters = cfg.params["conv-filters"]
    mconf = ModelConfig(
        conv_blocks=tuple((f, cfg.params["kernel"], cfg.params["pool"]) for f in filters),
        dropout_rates=tuple(cfg.params["dropout"]),
        lstm_units=tuple(cfg.params["lstm"]),
        epochs=cfg.params["epochs"],
        batch_size=cfg.params["batch-size"],
        learning_rate=cfg.params["learning-rate"],
        seed=cfg.params["seed"],
    )

    train_ds, test_ds = split_dataset(ds, train_frac=cfg.params["train-frac"],
                                      seed=cfg.params["seed"])
    scaler = fit_minmax(train_ds)
    train_scaled = apply_minmax(train_ds, scaler)
    test_scaled = apply_minmax(test_ds, scaler)
    if not cfg.params["no-resample"]:
        train_scaled, rep = resample_pipeline(train_scaled, _resample_config(cfg))
        print(rep.render())

    net = CnnLstmModel(mconf, n_features=ds.n_features, n_classes=len(ds.class_names))
    print(net.summary())
    history = train_model(net, train_scaled.matrix, train_scaled.labels)
    for h in history:
        print(f"[train] epoch {h.epoch}: loss={h.loss:.4f} acc={h.accuracy:.4f}")

    tm = TrainedModel(
        net=net,
        feature_names=ds.columns,
        scaler=scaler,
        label_map=label_map,
        encodings=encodings,
        history=history,
    )
    model_path, *metrics = outputs
    save_model(tm, model_path)

    report = evaluate_model(net, test_scaled.matrix, test_scaled.labels, ds.class_names)
    _write_metrics(metrics, report)
    return EXIT_OK, outputs


def _load_model(cfg: RunConfig, digests: dict) -> TrainedModel:
    """The model at --model, read once: `load_model` rebuilds it from the
    bytes that give the manifest its checksum."""
    path = cfg.params["model"]
    with open(path, "rb") as fh:
        data = fh.read()
    tm = load_model(data)
    digests[path] = hashlib.sha256(data).hexdigest()
    return tm


def _load_scorable(cfg: RunConfig, tm: TrainedModel, digests: dict):
    """Read a raw CSV into the model's input space with the monitor's reader.

    Unlike the monitor, the first malformed row raises.  A row missing a
    value in one of the model's selected features is dropped with a notice,
    as the monitor skips it; missing values in other columns do not matter.
    Returns the model input, each kept row's stripped label cell and its
    0-based index among the input's data rows.
    """
    with open_scoring_input(cfg.params["data"], tm, digests=digests) as (schema, fh):
        raw, labels, missing = read_rows(fh, schema, tm.feature_names)
    if missing:
        print(f"[{cfg.subcommand}] dropped {len(missing)} row(s) with missing values")
    if not len(raw):
        raise EmptyDatasetError("no records")
    kept = [i for i in range(len(labels)) if i not in missing]
    return tm.transform_matrix(raw), [labels[i] for i in kept], kept


def _cmd_evaluate(cfg: RunConfig, outputs: list[Path], digests: dict):
    tm = _load_model(cfg, digests)
    X, labels, _ = _load_scorable(cfg, tm, digests)
    y = map_labels(labels, tm.label_map)
    _write_metrics(outputs, evaluate_model(tm.net, X, y, tm.class_names))
    return EXIT_OK, outputs


def _cmd_predict(cfg: RunConfig, outputs: list[Path], digests: dict):
    tm = _load_model(cfg, digests)
    X, _, rows = _load_scorable(cfg, tm, digests)
    probs = tm.net.predict_proba(X)
    preds = probs.argmax(axis=1)
    [out_path] = outputs
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["row", "verdict", "confidence"])
        writer.writerows([i, tm.class_names[p], f"{row[p]:.6f}"]
                         for i, p, row in zip(rows, preds, probs))
    print(f"[predict] scored {len(preds)} rows -> {out_path}")
    return EXIT_OK, outputs


def _cmd_monitor(cfg: RunConfig, outputs: list[Path], digests: dict):
    tm = _load_model(cfg, digests)
    mconf = MonitorConfig(
        stage=cfg.params["stage"],
        alert_threshold=cfg.params["threshold"],
        anomalous_classes=tuple(cfg.params["anomalous"]) if cfg.params.get("anomalous") else None,
        follow=cfg.params["follow"],
        poll_interval=cfg.params["poll-interval"],
        idle_timeout=cfg.params["idle-timeout"],
    )
    summary = run_monitor(cfg.params["input"], tm, mconf, log_path=outputs[0], digests=digests)
    print(f"[monitor] stage={summary.stage} total={summary.total} "
          f"anomalies={summary.anomalies} skipped={summary.skipped}")
    return summary.exit_status, outputs


def _cmd_stage_run(cfg: RunConfig, outputs: list[Path], digests: dict):
    tm = _load_model(cfg, digests)
    summaries, status = stage_run(
        tm, {stage: cfg.params[f"{stage}-input"] for stage in STAGES},
        dict(zip(STAGES, outputs)),
        alert_threshold=cfg.params["threshold"], digests=digests,
        anomalous_classes=tuple(cfg.params["anomalous"]) if cfg.params.get("anomalous") else None)
    for stage, summary in summaries.items():
        if isinstance(summary, str):
            print(f"[stage-run] {stage}: operational failure")
            print(f"error: stage {stage}: {summary}", file=sys.stderr)
        else:
            print(f"[stage-run] {stage}: total={summary.total} anomalies={summary.anomalies}")
    return status, [log for stage, log in zip(STAGES, outputs) if stage in summaries]


# Each subcommand's body and the files it writes, in the order the body takes
# them, as names in --out-dir ("{stage}" stands for the --stage value).  The
# option _NAMED_BY gives a subcommand, when set, names its first file instead.
_METRICS = ("metrics.txt", "metrics.json", "confusion.csv")
_NAMED_BY = {"train": "model-out", "monitor": "log"}
_COMMANDS = {
    "preprocess": (_cmd_preprocess, ("prepared.csv", "clean_report.txt", "encodings.json")),
    "select-features": (_cmd_select_features, ("selected_features.txt", "feature_importance.txt")),
    "resample": (_cmd_resample, ("resampled.csv", "resample_report.txt")),
    "train": (_cmd_train, ("model.nidm", *_METRICS)),
    "evaluate": (_cmd_evaluate, _METRICS),
    "predict": (_cmd_predict, ("predictions.csv",)),
    "monitor": (_cmd_monitor, ("{stage}.log",)),
    "stage-run": (_cmd_stage_run, tuple(f"{stage}.log" for stage in STAGES)),
}


def _refuse_overwrites(inputs: list, outputs: list[Path]) -> None:
    """An InputError naming the first of `outputs` that is the same file as
    an earlier one, or else the first of `inputs` that is one of `outputs`.
    A path that exists is its file's device and inode, so links count; one
    that does not is its real path.  Each distinct path is stat-ed once."""
    files = {}
    for path in {str(p) for p in (*inputs, *outputs)}:
        try:
            st = os.stat(path)
            files[path] = (st.st_dev, st.st_ino)
        except OSError:
            files[path] = os.path.realpath(path)
    written = set()
    for path in outputs:
        if files[str(path)] in written:
            raise InputError(f"{path}: this run would write it twice; refused")
        written.add(files[str(path)])
    for path in inputs:
        if files[str(path)] in written:
            raise InputError(f"{path}: input is also a file this run writes; refused")


def run(cfg: RunConfig) -> int:
    """Make the directory of every file the run writes, refuse a run that
    would write over one of its inputs, its config file included, or write
    one file twice, its manifest included, run the subcommand's body and
    write the manifest of its inputs and the files it wrote.  An `error:`
    exit writes none."""
    for warning in cfg.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    try:
        out, digests = Path(cfg.params["out-dir"]), {}
        body, names = _COMMANDS[cfg.subcommand]
        inputs = [v for k, v in cfg.params.items() if k in _READS and v]
        outputs = [out / name.format_map(cfg.params) for name in names]
        option = _NAMED_BY.get(cfg.subcommand)
        if option and cfg.params[option]:
            outputs[0] = Path(cfg.params[option])
        manifest = out / "run-manifest.json"
        for parent in dict.fromkeys(p.parent for p in [manifest, *outputs]):
            parent.mkdir(parents=True, exist_ok=True)
        config = cfg.params["config"]     # read, but not an input the manifest records
        _refuse_overwrites([*inputs, config] if config else inputs, [*outputs, manifest])
        status, written = body(cfg, outputs, digests)
        _write_manifest(cfg, manifest, inputs, written, digests)
        return status
    except (FlowSentryError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FAILURE
    except MemoryError:
        print(f"error: {cfg.subcommand}: out of memory", file=sys.stderr)
        return EXIT_FAILURE


def main(argv=None) -> int:
    try:
        cfg = parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as ex:                     # usage errors (64) and --help (0)
        return int(ex.code or 0)
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
