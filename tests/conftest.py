"""Shared fixtures: a small synthetic corpus and a fixture model trained on it.

Everything here is session-scoped and seeded, so the suite sees one corpus and
one model no matter which subset of tests runs.

Tests that start `python -m flowsentry` in another working directory need the
package importable there, so the absolute `src` directory of the package under
test goes in front of PYTHONPATH for every child process.

Hypothesis draws its examples from a fixed seed and keeps no example database,
so two runs of the suite try the same examples; each test's own
`max_examples` and `deadline` still hold.
"""

import dataclasses
import importlib.util
import json
import os
import struct
import zlib
from pathlib import Path

import pytest
from hypothesis import settings

import flowsentry
from flowsentry import featsel, flowdata, monitor, pipeline, synth

_SRC = str(Path(flowsentry.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

# the gate fixtures are picked with the fixture script's own row picker
_spec = importlib.util.spec_from_file_location(
    "make_fixtures", Path(__file__).resolve().parents[1] / "scripts" / "make_fixtures.py")
make_fixtures = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_fixtures)

CORPUS_SEED = 3
CORPUS_SEPARATION = 1.8

TINY_CONFIG = pipeline.ModelConfig(
    conv_blocks=((8, 3, 2), (8, 3, 2)),
    dropout_rates=(0.1,),
    lstm_units=(8,),
    epochs=60,
    batch_size=64,
    learning_rate=0.01,
    seed=0,
)


@pytest.fixture(scope="session")
def work_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("corpus")


@pytest.fixture(scope="session")
def raw_csv_path(work_dir):
    path = work_dir / "raw.csv"
    path.write_text(
        synth.flow_csv(600, profile="ids2017", seed=CORPUS_SEED,
                       missing_fraction=0.01, separation=CORPUS_SEPARATION),
        encoding="utf-8",
    )
    return path


@pytest.fixture(scope="session")
def label_map():
    return flowdata.label_map_for("ids2017")


@pytest.fixture(scope="session")
def prepared(raw_csv_path, label_map):
    """Cleaned, encoded Dataset plus its CleanReport."""
    ds, report = flowdata.clean(raw_csv_path, label_map)
    ds = flowdata.encode_categorical(ds, ["Protocol"])
    return ds, report


@pytest.fixture(scope="session")
def tiny_model(prepared, label_map, work_dir):
    """A quickly trained but usable model, saved once for the whole session.

    Returns a dict with the TrainedModel, its on-disk path, the scaled splits,
    and the evaluation report on the held-out part.
    """
    ds, _ = prepared
    train, test = pipeline.split_dataset(ds, seed=0)
    scaler = featsel.fit_minmax(train)
    train_s = featsel.apply_minmax(train, scaler)
    test_s = featsel.apply_minmax(test, scaler)
    net = pipeline.CnnLstmModel(TINY_CONFIG, ds.n_features, len(ds.class_names))
    history = pipeline.train_model(net, train_s.matrix, train_s.labels)
    tm = pipeline.TrainedModel(
        net=net,
        feature_names=ds.columns,
        scaler=scaler,
        label_map=label_map,
        encodings=dict(ds.encodings),
        history=history,
    )
    path = work_dir / "tiny.nidm"
    pipeline.save_model(tm, path)
    report = pipeline.evaluate_model(net, test_s.matrix, test_s.labels, ds.class_names)
    return {
        "tm": tm,
        "path": path,
        "train": train_s,
        "test": test_s,
        "report": report,
        "history": history,
    }


@pytest.fixture(scope="session")
def monitor_fixtures(tiny_model, work_dir):
    """Gate-test CSVs picked by the fixture model's own verdicts.

    three_flow.csv holds two rows the model passes and one it flags at or
    above the default threshold; clean.csv holds only passing rows.
    """
    tm = tiny_model["tm"]

    mixed_path = work_dir / "pool_mixed.csv"
    mixed_path.write_text(
        synth.flow_csv(120, profile="ids2017", seed=9, missing_fraction=0.0,
                       separation=CORPUS_SEPARATION),
        encoding="utf-8",
    )
    benign_path = work_dir / "pool_benign.csv"
    benign_path.write_text(
        synth.flow_csv(60, profile="ids2017", seed=11, benign_only=True,
                       missing_fraction=0.0, separation=CORPUS_SEPARATION),
        encoding="utf-8",
    )

    header, anomalies = make_fixtures.pick_rows(tm, mixed_path, "alert", 0.5, 1)
    _, passing = make_fixtures.pick_rows(tm, benign_path, "pass", 0.5, 8)
    assert anomalies and len(passing) >= 3, "fixture model too weak to craft gates"

    three = work_dir / "three_flow.csv"
    three.write_text("\n".join([header, passing[0], anomalies[0], passing[1]]) + "\n",
                     encoding="utf-8")
    clean = work_dir / "clean_gate.csv"
    clean.write_text("\n".join([header] + passing) + "\n", encoding="utf-8")
    anomaly_csv = work_dir / "anomaly.csv"
    anomaly_csv.write_text(f"{header}\n{anomalies[0]}\n", encoding="utf-8")
    anomaly = flowdata.parse_flow_csv(anomaly_csv)[0]
    return {"three_flow": three, "clean": clean,
            "anomaly_verdict": monitor.score_flow(tm, anomaly)[0]}


@pytest.fixture(autouse=True)
def no_child_outlives_a_test():
    """A test leaves no child process behind, running or unreaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(params=["empty-object", "not-json", "not-utf8", "history-entry",
                        "encodings-list", "batch-size", "kernel-too-long", "weight-name",
                        "scaler-count", "scaler-oversized", "weights-oversized",
                        "section-overrun", "trailing-bytes"])
def malformed_model(request, tiny_model, tmp_path):
    """A copy of the fixture model with one malformed section, its meta (an
    architecture that cannot be built included), its first weight's name or
    its scaler (one column short of the feature names), 8 bytes past the
    last value of its scaler or weights, a first section length that runs
    past the payload, or 8 bytes after the last section, under a fresh
    CRC-32, so that only decoding the section can tell."""
    data = tiny_model["path"].read_bytes()
    head = len(pipeline.MODEL_MAGIC) + 2
    pos, sections = head, []
    while pos < len(data) - 4:
        (size,) = struct.unpack("<I", data[pos:pos + 4])
        sections.append(data[pos + 4:pos + 4 + size])
        pos += 4 + size
    meta, weights = json.loads(sections[0]), sections[4]
    if request.param == "weight-name":      # after the weight count and the name's length
        sections[4] = weights[:6] + b"\xff" + weights[7:]
    elif request.param == "scaler-count":     # the count, then n mins and n maxs
        (n,) = struct.unpack("<I", sections[3][:4])
        mins, maxs = sections[3][4:4 + 8 * n], sections[3][4 + 8 * n:]
        sections[3] = struct.pack("<I", n - 1) + mins[:-8] + maxs[:-8]
    elif request.param in ("scaler-oversized", "weights-oversized"):
        sections[3 if request.param == "scaler-oversized" else 4] += bytes(8)
    elif request.param not in ("section-overrun", "trailing-bytes"):
        sections[0] = {
            "empty-object": b"{}",
            "not-json": b"{config",
            "not-utf8": b"\xff{}",
            "history-entry": json.dumps({**meta, "history": [{"epoch": 1}]}).encode(),
            "encodings-list": json.dumps({**meta, "encodings": []}).encode(),
            "batch-size": json.dumps({**meta, "config": {**meta["config"],
                                                         "batch_size": 0}}).encode(),
            "kernel-too-long": json.dumps({**meta, "config": {
                **meta["config"], "conv_blocks": [[8, meta["n_features"] + 1, 2]]}}).encode(),
            "no-filters": json.dumps({**meta, "config": {**meta["config"], "conv_blocks": [
                [0, *block[1:]] for block in meta["config"]["conv_blocks"]]}}).encode(),
            "no-units": json.dumps({**meta, "config": {**meta["config"],
                                                       "lstm_units": [0]}}).encode(),
            "nan-rate": json.dumps({**meta, "config": {**meta["config"],
                                                       "learning_rate": float("nan")}}).encode(),
        }[request.param]
    body = data[:head] + b"".join(struct.pack("<I", len(s)) + s for s in sections)
    if request.param == "section-overrun":
        body = body[:head] + struct.pack("<I", len(body)) + body[head + 4:]
    elif request.param == "trailing-bytes":
        body += bytes(8)
    path = tmp_path / f"{request.param}.nidm"
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    return path


@pytest.fixture(params=["features", "classes"])
def miscounted_model(request, tiny_model, tmp_path):
    """A copy of the fixture model, written by save_model, whose net keeps its
    feature and class counts while one feature name (with its scaler column)
    or one class name (with its rules) is gone; the file's checksum holds."""
    tm = tiny_model["tm"]
    if request.param == "features":
        names = tm.feature_names[:-1]
        tm = dataclasses.replace(tm, feature_names=names, scaler=featsel.ScalerParams(
            names, tm.scaler.mins[:-1], tm.scaler.maxs[:-1]))
    else:
        gone = tm.class_names[-1]
        tm = dataclasses.replace(tm, label_map=dataclasses.replace(
            tm.label_map, class_names=tm.class_names[:-1],
            rules=tuple(r for r in tm.label_map.rules if r[1] != gone)))
    path = tmp_path / f"miscounted-{request.param}.nidm"
    pipeline.save_model(tm, path)
    return path


@pytest.fixture(params=["dense.b-nan", "lstm_1.wh-inf", "scaler mins-nan", "scaler maxs-inf"])
def non_finite_model(request, tiny_model, tmp_path):
    """A copy of the fixture model, written by save_model so its checksum
    holds, with a NaN or an infinity in one weight array or scaler bound.
    Returns the path and the name of the array that holds it."""
    name, value = request.param.rsplit("-", 1)
    tm, value = tiny_model["tm"], float(value)
    params = {k: v.copy() for k, v in tm.net.named_params().items()}
    bounds = {"scaler mins": tm.scaler.mins.copy(), "scaler maxs": tm.scaler.maxs.copy()}
    {**params, **bounds}[name].flat[0] = value
    net = pipeline.CnnLstmModel(tm.net.config, tm.net.n_features, tm.net.n_classes, params)
    scaler = featsel.ScalerParams(tm.feature_names, bounds["scaler mins"], bounds["scaler maxs"])
    path = tmp_path / "non-finite.nidm"
    pipeline.save_model(dataclasses.replace(tm, net=net, scaler=scaler), path)
    return path, name
