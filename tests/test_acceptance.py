"""Release gate: ten end-to-end checks, one verdict line each.

Criteria 6 and 8-10 share one module-scoped model trained with the default
config on the bundled synthetic corpus.
"""

import shutil
import subprocess
import sys
import threading
import time
from fractions import Fraction

import numpy as np
import pytest

from flowsentry import featsel, flowdata, monitor, nncore, pipeline, resample, synth
from flowsentry.errors import ChecksumError
from conftest import make_fixtures
import support
from test_flowdata import dataset_from_records
from test_nncore import check_layer_gradients, grad_check

TOL = 1e-4
THRESHOLD = 0.5


def _verdict(num, label, failures):
    status = "FAIL" if failures else "PASS"
    line = f"[acceptance] criterion {num:2d} {status}: {label}"
    if failures:
        line += " :: " + "; ".join(failures)
    print(line)
    assert not failures, line


# ---------------------------------------------------------------------------
# shared fixture model (criteria 6, 8, 9, 10)


def _prepare(csv_text, tmp):
    path = tmp / "corpus.csv"
    path.write_text(csv_text, encoding="utf-8")
    label_map = flowdata.label_map_for("ids2017")
    ds, _ = flowdata.clean(path, label_map)
    return flowdata.encode_categorical(ds, ["Protocol"]), label_map


@pytest.fixture(scope="module")
def strong(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("acceptance")
    ds, label_map = _prepare(
        synth.flow_csv(5000, profile="ids2017", seed=17,
                       missing_fraction=0.005, separation=1.6),
        tmp,
    )
    config = pipeline.ModelConfig()

    started = time.monotonic()
    train, test = pipeline.split_dataset(ds, train_frac=0.8, seed=0)
    scaler = featsel.fit_minmax(train)
    train_s = featsel.apply_minmax(train, scaler)
    test_s = featsel.apply_minmax(test, scaler)
    train_s, _ = resample.resample_pipeline(train_s, resample.ResampleConfig())
    net = pipeline.CnnLstmModel(config, ds.n_features, len(ds.class_names))
    history = pipeline.train_model(net, train_s.matrix, train_s.labels)
    report = pipeline.evaluate_model(net, test_s.matrix, test_s.labels, ds.class_names)
    elapsed = time.monotonic() - started

    tm = pipeline.TrainedModel(
        net=net, feature_names=ds.columns, scaler=scaler,
        label_map=label_map, encodings=dict(ds.encodings), history=history,
    )
    pre_save = tm.net.predict_proba(test_s.matrix[:32])
    path = tmp / "model.nidm"
    pipeline.save_model(tm, path)
    return {
        "tm": tm, "path": path, "dir": tmp, "history": history,
        "report": report, "elapsed": elapsed, "test": test_s,
        "pre_save": pre_save,
    }


@pytest.fixture(scope="module")
def gates(strong):
    """Monitor fixtures crafted from the fixture model's own verdicts."""
    tm = strong["tm"]
    tmp = strong["dir"]
    mixed = tmp / "pool_mixed.csv"
    mixed.write_text(synth.flow_csv(150, profile="ids2017", seed=21,
                                    missing_fraction=0.0, separation=1.6),
                     encoding="utf-8")
    benign = tmp / "pool_benign.csv"
    benign.write_text(synth.flow_csv(80, profile="ids2017", seed=23,
                                     benign_only=True, missing_fraction=0.0,
                                     separation=1.6),
                      encoding="utf-8")
    header, alerts = make_fixtures.pick_rows(tm, mixed, "alert", THRESHOLD, 1)
    _, passing = make_fixtures.pick_rows(tm, benign, "pass", THRESHOLD, 6)
    assert alerts and len(passing) >= 6, "fixture model cannot craft the gates"

    three = tmp / "three_flow.csv"
    three.write_text("\n".join([header, passing[0], alerts[0], passing[1]]) + "\n",
                     encoding="utf-8")
    clean = tmp / "clean_gate.csv"
    clean.write_text("\n".join([header] + passing[2:6]) + "\n", encoding="utf-8")
    return {"three": three, "clean": clean, "mixed": mixed}


# ---------------------------------------------------------------------------
# 1. gradient correctness


def test_criterion_01_gradient_correctness():
    started = time.monotonic()
    failures = []
    worst_overall = 0.0

    def conv_case(seed):
        dims = np.random.default_rng([97, seed])
        c_in = int(dims.integers(1, 4))
        k = int(dims.integers(1, 4))
        t = int(dims.integers(k, k + 6))
        b = int(dims.integers(1, 4))
        c_out = int(dims.integers(1, 5))
        return (b, t, c_in), lambda r: nncore.Conv1D(c_in, c_out, k, rng=r)

    def pool_case(seed):
        dims = np.random.default_rng([98, seed])
        pool = int(dims.integers(2, 4))
        t = int(dims.integers(pool, pool * 4))
        return ((int(dims.integers(1, 4)), t, int(dims.integers(1, 4))),
                lambda r: nncore.MaxPool1D(pool))

    def relu_case(seed):
        dims = np.random.default_rng([99, seed])
        return ((int(dims.integers(1, 4)), int(dims.integers(2, 7)),
                 int(dims.integers(1, 4))),
                lambda r: nncore.ReLU())

    def dense_case(seed):
        dims = np.random.default_rng([100, seed])
        f = int(dims.integers(1, 7))
        return ((int(dims.integers(1, 5)), f),
                lambda r: nncore.Dense(f, int(dims.integers(1, 6)), rng=r))

    def lstm_case(seed):
        dims = np.random.default_rng([101, seed])
        f = int(dims.integers(1, 4))
        return ((int(dims.integers(1, 3)), int(dims.integers(1, 5)), f),
                lambda r: nncore.LSTM(f, int(dims.integers(1, 4)),
                                      return_sequences=bool(seed % 2), rng=r))

    for name, case in (("conv1d", conv_case), ("maxpool1d", pool_case),
                       ("relu", relu_case), ("dense", dense_case),
                       ("lstm", lstm_case)):
        for seed in range(20):
            x_shape, make_layer = case(seed)
            worst = check_layer_gradients(make_layer, x_shape, seed=seed)
            err = max(worst.values())
            worst_overall = max(worst_overall, err)
            if err >= TOL:
                failures.append(f"{name} seed {seed}: rel err {err:.2e}")

    for seed in range(20):
        rng = np.random.default_rng([102, seed])
        b, C = int(rng.integers(1, 6)), int(rng.integers(2, 6))
        logits = rng.normal(size=(b, C))
        onehot = np.zeros((b, C))
        onehot[np.arange(b), rng.integers(0, C, size=b)] = 1.0

        def loss_of(flat):
            p = nncore.softmax(flat.reshape(b, C))
            return nncore.cross_entropy(p, onehot)[0]

        _, dlogits = nncore.cross_entropy(nncore.softmax(logits), onehot)
        err = grad_check(loss_of, logits.ravel().copy(), dlogits.ravel())
        worst_overall = max(worst_overall, err)
        if err >= TOL:
            failures.append(f"softmax+cross-entropy seed {seed}: rel err {err:.2e}")

    elapsed = time.monotonic() - started
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    _verdict(1, f"analytic gradients vs finite differences "
                f"(worst rel err {worst_overall:.2e}, {elapsed:.1f}s)", failures)


# ---------------------------------------------------------------------------
# 2. metric algebra


def test_criterion_02_metric_algebra():
    failures = []

    def check(cond, desc):
        if not cond:
            failures.append(desc)

    check(pipeline.accuracy_eq(50, 30, 10, 10) == 0.8, "accuracy(50,30,10,10)")
    check(pipeline.precision_eq(50, 10) == 50 / 60, "precision(50,10)")
    check(pipeline.recall_eq(50, 10) == 50 / 60, "recall(50,10)")
    check(pipeline.f1_eq(50 / 60, 50 / 60) == 50 / 60, "f1 at p=r")
    check(round(pipeline.precision_eq(50, 10), 4) == 0.8333, "0.8333 rounding")

    matrices = [
        np.array([[50, 10], [10, 30]]),
        np.diag([4, 3, 2]),
        np.array([[5, 1, 0], [2, 6, 1], [0, 2, 4]]),
        np.array([[5, 0], [3, 0]]),
        np.array([[7, 2, 0, 1], [1, 8, 1, 0], [0, 3, 5, 2], [2, 0, 1, 9]]),
    ]
    for mi, confusion in enumerate(matrices):
        C = len(confusion)
        names = tuple("ABCD"[:C])
        report = pipeline.metrics_from_confusion(confusion, names)
        total = int(confusion.sum())
        per = {"precision": [], "recall": [], "f1": []}
        for c in range(C):
            tp = int(confusion[c, c])
            fp = int(confusion[:, c].sum()) - tp
            fn = int(confusion[c].sum()) - tp
            p = Fraction(tp, tp + fp) if tp + fp else Fraction(0)
            r = Fraction(tp, tp + fn) if tp + fn else Fraction(0)
            f1 = 2 * p * r / (p + r) if p + r else Fraction(0)
            got = report.per_class[names[c]]
            check(abs(got["precision"] - float(p)) <= 1e-12,
                  f"matrix {mi} class {c} precision")
            check(abs(got["recall"] - float(r)) <= 1e-12,
                  f"matrix {mi} class {c} recall")
            check(abs(got["f1"] - float(f1)) <= 1e-12, f"matrix {mi} class {c} f1")
            per["precision"].append(got["precision"])
            per["recall"].append(got["recall"])
            per["f1"].append(got["f1"])
        check(abs(report.accuracy - float(Fraction(int(np.trace(confusion)), total)))
              <= 1e-12, f"matrix {mi} accuracy")
        weights = report.support / total
        for key, reported in (("precision", report.weighted_precision),
                              ("recall", report.weighted_recall),
                              ("f1", report.weighted_f1)):
            check(abs(reported - float(np.dot(weights, per[key]))) <= 1e-12,
                  f"matrix {mi} weighted {key}")
    _verdict(2, "confusion-count formulas on 5 fixed matrices", failures)


# ---------------------------------------------------------------------------
# 3. scaling contract


def test_criterion_03_scaling_contract():
    failures = []
    rng = np.random.default_rng(500)
    n_cols = 10_000
    scales = np.exp(rng.normal(0.0, 4.0, size=n_cols))
    shifts = rng.normal(0.0, 10.0, size=n_cols) * scales
    train = rng.normal(size=(48, n_cols)) * scales + shifts
    constant_cols = rng.permutation(n_cols)[:700]
    train[:, constant_cols] = shifts[constant_cols]
    names = tuple(f"f{j}" for j in range(n_cols))
    params = featsel.ScalerParams(feature_names=names,
                                  mins=train.min(axis=0), maxs=train.max(axis=0))

    # out-of-range probes: far outside the fitted extremes on both sides
    test = rng.normal(size=(32, n_cols)) * scales * 5.0 + shifts
    for matrix, tag in ((train, "train"), (test, "out-of-range")):
        out = featsel.scale_matrix(matrix, params)
        if not np.isfinite(out).all():
            failures.append(f"{tag}: non-finite output")
        if out.min() < 0.0 or out.max() > 1.0:
            failures.append(f"{tag}: outputs escape [0,1]")
    const_out = featsel.scale_matrix(test[:, constant_cols],
                                     featsel.ScalerParams(
                                         feature_names=tuple(names[j] for j in constant_cols),
                                         mins=train.min(axis=0)[constant_cols],
                                         maxs=train.max(axis=0)[constant_cols]))
    if not (const_out == 0.0).all():
        failures.append("constant columns not pinned to 0")

    simple = featsel.ScalerParams(feature_names=("f",),
                                  mins=np.array([0.0]), maxs=np.array([10.0]))
    got = featsel.scale_matrix(np.array([[0.0], [5.0], [10.0]]), simple)[:, 0]
    if not (got == np.array([0.0, 0.5, 1.0])).all():
        failures.append(f"[0,5,10] -> {got.tolist()} not [0, 0.5, 1]")
    _verdict(3, "min-max outputs on 10^4 randomized columns", failures)


# ---------------------------------------------------------------------------
# 4. resampling geometry


def _brute_knn(X, i, k):
    d = np.sqrt(((X - X[i]) ** 2).sum(axis=1))
    order = sorted((float(d[j]), j) for j in range(len(X)) if j != i)
    return [j for _, j in order[:k]]


def test_criterion_04_resampling_geometry():
    started = time.monotonic()
    failures = []
    rng = np.random.default_rng(41)

    minority = rng.normal(0.0, 1.0, size=(150, 4))
    k = 5
    synthetic = resample.smote(minority, k=k, n_synthetic=400, rng=np.random.default_rng(7))
    bad = 0
    for i, s in enumerate(synthetic):
        base = i % len(minority)
        on_segment = False
        for j in _brute_knn(minority, base, k):
            lo = np.minimum(minority[base], minority[j]) - 1e-9
            hi = np.maximum(minority[base], minority[j]) + 1e-9
            if ((s >= lo) & (s <= hi)).all():
                on_segment = True
                break
        if not on_segment:
            bad += 1
    if bad:
        failures.append(f"{bad}/400 synthetic rows off every neighbour segment")

    X = np.vstack([rng.normal(0.0, 1.2, size=(600, 3)),
                   rng.normal(1.0, 1.2, size=(600, 3))])
    y = np.array([0] * 600 + [1] * 600)
    kept = resample.enn(X, y, k=3, eligible_classes=[0, 1])
    removed = sorted(set(range(len(X))) - set(kept.tolist()))
    oracle = []
    for i in range(len(X)):
        votes = [1 if y[j] != y[i] else 0 for j in _brute_knn(X, i, 3)]
        if sum(votes) > 1.5:
            oracle.append(i)
    if removed != oracle:
        failures.append(f"ENN removals differ from the brute oracle "
                        f"({len(removed)} vs {len(oracle)})")

    blobs_X, blobs_y = support.blobs(
        {0: 900, 1: 300, 2: 120, 3: 80},
        {0: (0, 0), 1: (4, 0), 2: (0, 4), 3: (4, 4)},
        spread=1.0, seed=13)
    ds = flowdata.Dataset(columns=("a", "b"), matrix=blobs_X, labels=blobs_y,
                          class_names=("w", "x", "y", "z"))
    out, _ = resample.resample_pipeline(ds, resample.ResampleConfig(seed=3))
    before = np.bincount(ds.labels, minlength=4)
    after = np.bincount(out.labels, minlength=4)
    ratio_before = before.max() / before.min()
    ratio_after = after.max() / after[after > 0].min()
    if ratio_after > ratio_before + 1e-12:
        failures.append(f"imbalance ratio rose: {ratio_before:.3f} -> {ratio_after:.3f}")

    elapsed = time.monotonic() - started
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    _verdict(4, f"oversampling segments and pruning votes vs brute oracles "
                f"({elapsed:.1f}s)", failures)


# ---------------------------------------------------------------------------
# 5. feature-selection recovery


def test_criterion_05_feature_selection_recovery():
    failures = []
    hits = 0
    per_seed = []
    for seed in range(10):
        X, y, informative = support.informative_noise(300, n_informative=5,
                                                    n_noise=15, seed=seed)
        names = [f"f{j}" for j in range(X.shape[1])]
        ranking = featsel.rfe(X, y, target_k=5, step=2, feature_names=names,
                              n_trees=15, max_depth=8, min_leaf=2, seed=seed)
        found = len({int(n[1:]) for n in ranking.selected} & set(informative))
        per_seed.append(found)
        if found >= 4:
            hits += 1
    if hits < 9:
        failures.append(f"only {hits}/10 seeds recovered >=4 of 5 ({per_seed})")
    _verdict(5, f"informative-feature recovery {hits}/10 seeds", failures)


# ---------------------------------------------------------------------------
# 6. desk-scale training


def test_criterion_06_desk_scale_training(strong):
    failures = []
    report = strong["report"]
    history = strong["history"]
    if report.weighted_f1 < 0.90:
        failures.append(f"held-out weighted F1 {report.weighted_f1:.4f} < 0.90")
    if strong["elapsed"] >= 900.0:
        failures.append(f"runtime {strong['elapsed']:.0f}s >= 15 min")
    if not history or not history[-1].loss < history[0].loss:
        failures.append("final training loss not below first-epoch loss")
    _verdict(6, f"default config on the synthetic stand-in: weighted F1 "
                f"{report.weighted_f1:.4f} in {strong['elapsed']:.0f}s", failures)


# ---------------------------------------------------------------------------
# 7. determinism


def test_criterion_07_determinism(tmp_path, raw_csv_path, prepared):
    failures = []
    ds, _ = prepared
    argv_train = ["train", "--data", "prepared.csv", "--conv-filters", "8",
                  "--dropout", "0.1", "--lstm", "8", "--epochs", "2",
                  "--batch-size", "64", "--learning-rate", "0.01",
                  "--out-dir", "out"]
    argv_eval = ["evaluate", "--model", "out/model.nidm", "--data", "raw.csv",
                 "--out-dir", "eval"]
    runs = []
    for tag in ("a", "b"):
        cwd = tmp_path / tag
        cwd.mkdir()
        flowdata.write_dataset_csv(ds, cwd / "prepared.csv")
        shutil.copyfile(raw_csv_path, cwd / "raw.csv")
        for argv in (argv_train, argv_eval):
            proc = subprocess.run([sys.executable, "-m", "flowsentry"] + argv,
                                  cwd=cwd, capture_output=True, text=True)
            if proc.returncode != 0:
                failures.append(f"run {tag} {argv[0]} exited {proc.returncode}: "
                                f"{proc.stderr[-200:]}")
        runs.append(cwd)
    if not failures:
        for rel in ("out/model.nidm", "out/run-manifest.json",
                    "eval/metrics.txt", "eval/metrics.json",
                    "eval/confusion.csv"):
            a = (runs[0] / rel).read_bytes()
            b = (runs[1] / rel).read_bytes()
            if a != b:
                failures.append(f"{rel} differs between identical runs")
    _verdict(7, "bit-identical models and reports from identical runs", failures)


# ---------------------------------------------------------------------------
# 8. persistence


def test_criterion_08_persistence(strong, tmp_path):
    failures = []
    loaded = pipeline.load_model(strong["path"])
    after = loaded.net.predict_proba(strong["test"].matrix[:32])
    if not np.array_equal(strong["pre_save"], after):
        failures.append("reloaded predictions differ from pre-save predictions")

    data = bytearray(strong["path"].read_bytes())
    data[len(data) // 3] ^= 0x40
    corrupted = tmp_path / "corrupted.nidm"
    corrupted.write_bytes(bytes(data))
    try:
        pipeline.load_model(corrupted)
        failures.append("corrupted file loaded without a checksum error")
    except ChecksumError:
        pass
    _verdict(8, "save/load/predict bit-identity and corruption detection", failures)


# ---------------------------------------------------------------------------
# 9. monitor gating


def test_criterion_09_monitor_gating(strong, gates, tmp_path):
    failures = []
    tm = strong["tm"]

    log = tmp_path / "three.log"
    summary = monitor.run_monitor(gates["three"], tm,
                                  monitor.MonitorConfig(stage="deploy"),
                                  log_path=log)
    anomaly_lines = [l for l in log.read_text(encoding="utf-8").splitlines()
                     if not l.startswith("#")]
    if len(anomaly_lines) != 1:
        failures.append(f"{len(anomaly_lines)} anomaly lines, expected exactly 1")
    elif not monitor._LINE_RE.match(anomaly_lines[0]):
        failures.append(f"anomaly line fails the grammar: {anomaly_lines[0]!r}")
    if summary.exit_status != 2:
        failures.append(f"three-flow exit status {summary.exit_status} != 2")

    clean_log = tmp_path / "clean.log"
    clean_summary = monitor.run_monitor(gates["clean"], tm,
                                        monitor.MonitorConfig(stage="deploy"),
                                        log_path=clean_log)
    clean_lines = [l for l in clean_log.read_text(encoding="utf-8").splitlines()
                   if not l.startswith("#")]
    if clean_lines:
        failures.append(f"clean fixture produced {len(clean_lines)} anomaly lines")
    if clean_summary.exit_status != 0:
        failures.append(f"clean exit status {clean_summary.exit_status} != 0")

    # online ingestion must score identically to the offline pass
    offline = []
    for rownum, record, err in flowdata.iter_flow_rows(gates["three"]):
        assert err is None
        _, _, dist = monitor.score_flow(tm, record)
        offline.append((rownum, dist))

    source = gates["three"].read_text(encoding="utf-8").splitlines()
    growing = tmp_path / "growing.csv"
    growing.write_text(source[0] + "\n", encoding="utf-8")

    def writer():
        for line in source[1:]:
            time.sleep(0.05)
            with open(growing, "a", encoding="utf-8") as fh:
                fh.write(line + "\n")

    # the followed run scores through the monitor itself; every probability
    # row it computes is captured off the model instance
    online = []
    score_tile = tm.net.predict_proba

    def spy(X):
        probs = score_tile(X)
        online.extend(probs)
        return probs

    thread = threading.Thread(target=writer)
    tm.net.predict_proba = spy
    thread.start()
    try:
        follow = monitor.MonitorConfig(stage="deploy", follow=True,
                                       poll_interval=0.02, idle_timeout=0.6)
        monitor.run_monitor(growing, tm, follow, log_path=tmp_path / "followed.log")
    finally:
        thread.join()
        del tm.net.predict_proba

    if len(online) != len(offline):
        failures.append(f"online scored {len(online)} rows, offline {len(offline)}")
    else:
        for (rownum, dist), probs in zip(offline, online):
            if not np.array_equal(dist, probs):
                failures.append(f"row {rownum}: online and offline scores differ")
                break
    followed_lines = [l for l in (tmp_path / "followed.log").read_text(
        encoding="utf-8").splitlines() if not l.startswith("#")]
    if followed_lines != anomaly_lines:
        failures.append("online and offline anomaly lines differ")
    _verdict(9, "gate exit codes and online/offline score identity", failures)


# ---------------------------------------------------------------------------
# 10. end-to-end stage run


def _evaluate_based_count(tm, path):
    """Anomaly recount through the bulk evaluate path, not the monitor loop."""
    records, labels = zip(*[(r, label) for r, label in zip(
        flowdata.parse_flow_csv(path), support.row_labels(path), strict=True) if not r.missing])
    labels = flowdata.map_labels(labels, tm.label_map)
    ds = dataset_from_records(records, labels, tm.label_map)
    X = ds.matrix[:, [ds.columns.index(n) for n in tm.feature_names]]
    for j, name in enumerate(tm.feature_names):
        if name in tm.encodings:
            X[:, j] = flowdata.encode_column(X[:, j], tm.encodings[name])
    probs = tm.net.predict_proba(featsel.scale_matrix(X, tm.scaler))
    preds = probs.argmax(axis=1)
    conf = probs[np.arange(len(probs)), preds]
    names = np.array(tm.class_names)[preds]
    return int(((names != "Benign") & (conf >= THRESHOLD)).sum())


def test_criterion_10_stage_run(strong, gates, tmp_path):
    failures = []
    tm = strong["tm"]
    inputs = {
        "build": str(gates["clean"]),
        "test": str(gates["mixed"]),
        "deploy": str(gates["three"]),
        "monitor": str(gates["clean"]),
    }
    out = tmp_path / "stages"
    summaries, status = support.stage_run(tm, inputs, out,
                                          alert_threshold=THRESHOLD)
    if status != 2:
        failures.append(f"overall exit status {status} != 2")
    for stage, path in inputs.items():
        log = out / f"{stage}.log"
        if not log.is_file():
            failures.append(f"missing log for stage {stage}")
            continue
        logged = len([l for l in log.read_text(encoding="utf-8").splitlines()
                      if not l.startswith("#")])
        recount = _evaluate_based_count(tm, path)
        summary = summaries[stage]
        failed = isinstance(summary, str)             # the stage's failure
        if failed or logged != summary.anomalies or logged != recount:
            failures.append(
                f"{stage}: log={logged} summary="
                f"{summary if failed else summary.anomalies} recount={recount}")
    _verdict(10, "stage-run logs vs independent per-stage recounts", failures)
