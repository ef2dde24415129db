"""Model assembly, training, evaluation, and the on-disk model container.

The classifier stacks three conv/pool blocks over the scaled feature vector
(treated as a length-F sequence with one channel), two dropout layers after
the later blocks, two recurrent layers, and a dense softmax head.
"""

from __future__ import annotations

import csv
import io
import json
import struct
import zlib
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace as _dc_replace

import numpy as np

from . import nncore
from .errors import (
    ChecksumError,
    ConfigError,
    EmptyDatasetError,
    InputError,
    ModelFormatError,
    ModelVersionError,
    ParameterError,
    SchemaError,
    StratificationError,
)
from .featsel import ScalerParams, scale_matrix
from .flowdata import Dataset, FlowRecord, LabelMap, encode_column, open_flow_csv
from .flowdata import encode_value  # noqa: F401  unused; perfbench/tracer.py wraps it here

MODEL_MAGIC = b"NIDM"
MODEL_VERSION = 2

# Rows per tile, the row count of every GEMM of an inference forward (see
# CnnLstmModel.predict_proba): enough to spread the per-call cost of a
# product over many flows, few enough that padding a short input up to a
# full tile stays cheap.  stage-run fills one tile with the rows of all its
# stage inputs, so its four 3-4-row gate inputs take one forward pass, not
# four.  Measured on one core with the default network at 22 features: a
# 2,000-row monitor call took 113 ms at 32 rows, 107 ms at 64 and 105 ms at
# 128, but one padded 13-row tile took 0.75 ms, 1.25 ms and 3.46 ms, so
# larger tiles would slow every stage-run.
TILE_ROWS = 32
# Full tiles per forward pass.  A pass of several tiles runs each GEMM once
# per tile at the tile's shape, but the layer dispatch, every elementwise op
# and the monitor's transform_matrix once per pass.  Against one tile per
# pass, on perfbench's gate_stream (one 2,000-row monitor call, 10 s runs on
# 2 cores): 2 tiles gave +10% to +19% flows/s and +0.5 MB peak RSS, 4 tiles
# +8% to +16% and +1.5 MB, 8 tiles +6% and +4.3 MB.
PASS_TILES = 2


@dataclass(frozen=True)
class ModelConfig:
    """Architecture and optimisation settings; defaults are the shipped profile."""

    conv_blocks: tuple[tuple[int, int, int], ...] = ((32, 3, 2), (64, 3, 2), (64, 3, 2))
    dropout_rates: tuple[float, ...] = (0.2, 0.3)
    lstm_units: tuple[int, ...] = (64, 32)
    epochs: int = 30
    batch_size: int = 256
    learning_rate: float = 0.001
    seed: int = 0

    def __post_init__(self):
        if len(self.conv_blocks) < 1:
            raise ConfigError("need at least one conv block")
        if len(self.dropout_rates) > len(self.conv_blocks):
            raise ConfigError("more dropout rates than conv blocks")
        if len(self.lstm_units) < 1:
            raise ConfigError("need at least one recurrent layer")
        if any(filters < 1 for filters, _, _ in self.conv_blocks):
            raise ConfigError("every conv block needs at least 1 filter")
        if any(units < 1 for units in self.lstm_units):
            raise ConfigError("every recurrent layer needs at least 1 unit")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not 0 < self.learning_rate < np.inf:
            raise ConfigError("learning_rate must be a finite number > 0")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(
            conv_blocks=tuple(tuple(b) for b in d["conv_blocks"]),
            dropout_rates=tuple(d["dropout_rates"]),
            lstm_units=tuple(d["lstm_units"]),
            epochs=int(d["epochs"]),
            batch_size=int(d["batch_size"]),
            learning_rate=float(d["learning_rate"]),
            seed=int(d["seed"]),
        )


class CnnLstmModel:
    """The assembled network; owns layers, their rng streams, and the head.

    `params`, when given, maps `named_params()` names to the arrays the
    layers take as they are (see load_model); no init weights are drawn and
    no seed stream is spawned, so such a model scores but does not train.
    """

    def __init__(self, config: ModelConfig, n_features: int, n_classes: int, params=None):
        if n_classes < 2:
            raise ConfigError("need at least 2 classes")
        if n_features < 1:
            raise ConfigError("need at least 1 feature")
        self.config = config
        self.n_features = n_features
        self.n_classes = n_classes

        self._shuffle_ss = None
        drop_rngs = [None] * len(config.dropout_rates)
        if params is None:
            init_ss, drop_ss, self._shuffle_ss = np.random.SeedSequence(config.seed).spawn(3)
            init_children = init_ss.spawn(len(config.conv_blocks) + len(config.lstm_units) + 1)
            drop_rngs = [np.random.default_rng(ss) for ss in drop_ss.spawn(len(drop_rngs))]

        def init(name, li):
            """The layer's stored arrays, or an init generator to draw them."""
            if params is None:
                return {"rng": np.random.default_rng(init_children[li])}
            prefix = name + "."
            return {"params": {k[len(prefix):]: v for k, v in params.items()
                               if k.startswith(prefix)}}

        self.layers = []
        self.summary_rows = []
        t = n_features
        channels = 1
        li = 0
        first_drop = len(config.conv_blocks) - len(config.dropout_rates)
        for bi, (filters, kernel, pool) in enumerate(config.conv_blocks):
            if t < kernel:
                raise ConfigError(
                    f"conv block {bi + 1}: input length {t} shorter than kernel {kernel}"
                )
            conv = nncore.Conv1D(channels, filters, kernel, **init(f"conv1d_{bi + 1}", li))
            li += 1
            t = conv.out_length(t)
            self._add(conv, f"conv1d_{bi + 1}", (t, filters))
            self._add(nncore.ReLU(), f"relu_{bi + 1}", (t, filters))
            pool_layer = nncore.MaxPool1D(pool)
            if t < pool:
                raise ConfigError(
                    f"conv block {bi + 1}: input length {t} shorter than pool {pool}"
                )
            t = pool_layer.out_length(t)
            self._add(pool_layer, f"maxpool_{bi + 1}", (t, filters))
            channels = filters
            if bi >= first_drop:
                rate = config.dropout_rates[bi - first_drop]
                drop = nncore.Dropout(rate, rng=drop_rngs[bi - first_drop])
                self._add(drop, f"dropout_{bi - first_drop + 1}", (t, filters))

        self.lstm_steps = t             # the sequence length every LSTM sees
        feat = channels
        for si, units in enumerate(config.lstm_units):
            last = si == len(config.lstm_units) - 1
            lstm = nncore.LSTM(feat, units, return_sequences=not last,
                               **init(f"lstm_{si + 1}", li))
            li += 1
            self._add(lstm, f"lstm_{si + 1}", (units,) if last else (t, units))
            feat = units
        dense = nncore.Dense(feat, n_classes, **init("dense", li))
        self._add(dense, "dense", (n_classes,))
        # softmax is applied to forward_logits output, not run as a layer
        self.summary_rows.append(("softmax", (n_classes,), 0))

    def _add(self, layer, name, out_shape):
        self.layers.append((name, layer))
        n_params = sum(p.size for p in layer.params.values())
        self.summary_rows.append((name, out_shape, n_params))

    # -- forward/backward ---------------------------------------------------

    def forward_logits(self, X: np.ndarray, train: bool = False) -> np.ndarray:
        """[batch, n_features] -> [batch, n_classes] pre-softmax logits.  An
        inference pass also takes [tiles, rows, n_features] and gives
        [tiles, rows, n_classes], each tile's logits bitwise those of its
        own [rows, n_features] pass."""
        if X.ndim not in ((2,) if train else (2, 3)) or X.shape[-1] != self.n_features:
            raise SchemaError(f"expected [batch, {self.n_features}] or [tiles, rows, "
                              f"{self.n_features}] input, got {X.shape}")
        h = X[..., None]                      # one input channel per feature step
        for name, layer in self.layers:
            h = layer.forward(h, train=train)
        return h

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class probabilities, scored in fixed tiles of TILE_ROWS rows,
        PASS_TILES tiles per forward pass.

        The BLAS kernel a matmul runs depends on its row count.  Every GEMM
        here sees exactly one tile of TILE_ROWS rows (a short last tile is
        padded by repeating its final row, and the padding is dropped), so a
        row's probabilities are bitwise the same whatever its tile position,
        its companions or the input length: online and offline scoring agree.
        A pass of several tiles goes through forward_logits as one
        [tiles, TILE_ROWS, features] array, whose layers run each GEMM once
        per tile; a pass of one tile, as every short input, stays 2-D.
        """
        X = np.asarray(X, dtype=np.float64)
        n = len(X)
        probs = np.empty((n, self.n_classes))
        pass_rows = TILE_ROWS * PASS_TILES
        for s in range(0, n, pass_rows):
            block = X[s:s + pass_rows]
            tiles = -(-len(block) // TILE_ROWS)
            short = tiles * TILE_ROWS - len(block)
            if short:
                block = np.concatenate([block, np.repeat(block[-1:], short, axis=0)])
            if tiles > 1:
                block = block.reshape(tiles, TILE_ROWS, -1)
            logits = self.forward_logits(block, train=False).reshape(-1, self.n_classes)
            probs[s:s + pass_rows] = nncore.softmax(logits)[:n - s]
        return probs

    def backward_from_logits(self, dlogits: np.ndarray) -> None:
        """Every layer's parameter gradients.  The first layer, a Conv1D on
        the data, skips its input gradient, which nothing reads."""
        (_, first), *rest = self.layers
        grad = dlogits
        for _, layer in reversed(rest):
            grad = layer.backward(grad)
        first.backward(grad, input_grad=False)

    def named_params(self) -> dict[str, np.ndarray]:
        out = {}
        for name, layer in self.layers:
            for pname, arr in layer.params.items():
                out[f"{name}.{pname}"] = arr
        return out

    def param_shapes(self) -> dict[str, tuple]:
        """The shape of every parameter the graph needs, by `named_params` name."""
        return {f"{name}.{pname}": shape for name, layer in self.layers
                for pname, shape in layer.param_shapes().items()}

    def summary(self) -> str:
        lines = [f"input [{self.n_features}, 1]"]
        total = 0
        for name, shape, n in self.summary_rows:
            shape_txt = "[" + ", ".join(str(s) for s in shape) + "]"
            lines.append(f"{name:<12} out={shape_txt:<12} params={n}")
            total += n
        lines.append(f"total params={total}")
        lines.append(f"lstm time steps={self.lstm_steps}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Splitting


def split_dataset(dataset: Dataset, train_frac: float = 0.8, seed: int = 0):
    """Stratified split preserving row order inside each side.

    Every class keeps floor or ceil of train_frac * count rows in the train
    side; a class with a single row cannot be stratified and is an error.
    """
    if not 0.0 < train_frac < 1.0:
        raise ParameterError(f"train_frac {train_frac} outside (0, 1)")
    if dataset.n_rows == 0:
        raise EmptyDatasetError("cannot split an empty dataset")
    rng = np.random.default_rng(seed)
    train_idx = []
    test_idx = []
    for c in range(len(dataset.class_names)):
        idx = np.flatnonzero(dataset.labels == c)
        if len(idx) == 0:
            continue
        if len(idx) == 1:
            raise StratificationError(
                f"class {dataset.class_names[c]!r} has a single row"
            )
        n_train = int(round(train_frac * len(idx)))
        n_train = min(max(n_train, 1), len(idx) - 1)
        perm = rng.permutation(len(idx))
        train_idx.extend(idx[perm[:n_train]])
        test_idx.extend(idx[perm[n_train:]])
    train_idx = np.sort(np.asarray(train_idx, dtype=np.int64))
    test_idx = np.sort(np.asarray(test_idx, dtype=np.int64))
    train = _dc_replace(dataset, matrix=dataset.matrix[train_idx],
                        labels=dataset.labels[train_idx])
    test = _dc_replace(dataset, matrix=dataset.matrix[test_idx],
                       labels=dataset.labels[test_idx])
    return train, test


# ---------------------------------------------------------------------------
# Training


@dataclass
class EpochStats:
    epoch: int
    loss: float
    accuracy: float


def train_model(model: CnnLstmModel, X: np.ndarray, y: np.ndarray) -> list[EpochStats]:
    """Mini-batch Adam over shuffled epochs; returns per-epoch loss/accuracy.

    Zero epochs is a no-op that leaves the initialised weights untouched.  A
    step whose loss is not finite stops training with a ParameterError.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if len(X) == 0:
        raise EmptyDatasetError("empty training set")
    if len(X) != len(y):
        raise ParameterError("X and y length mismatch")
    if model._shuffle_ss is None:
        raise ParameterError("a model built from stored weights has no training streams")
    cfg = model.config
    params = model.named_params()
    optim = nncore.Adam(params, lr=cfg.learning_rate)
    shuffle_rng = np.random.default_rng(model._shuffle_ss)
    n = len(X)
    onehot = np.zeros((n, model.n_classes))
    onehot[np.arange(n), y] = 1.0

    history = []
    for epoch in range(cfg.epochs):
        perm = shuffle_rng.permutation(n)
        total_loss = 0.0
        correct = 0
        for start in range(0, n, cfg.batch_size):
            batch = perm[start:start + cfg.batch_size]
            xb, yb = X[batch], onehot[batch]
            probs = nncore.softmax(model.forward_logits(xb, train=True))
            if np.isnan(probs).any():           # from a NaN or infinite logit
                raise ParameterError(f"training diverged at epoch {epoch + 1}: the loss is "
                                     "not finite (try a smaller --learning-rate)")
            loss, dlogits = nncore.cross_entropy(probs, yb)
            model.backward_from_logits(dlogits)
            grads = {}
            for name, layer in model.layers:
                for pname, g in layer.grads.items():
                    grads[f"{name}.{pname}"] = g
            optim.step(grads)
            total_loss += loss * len(batch)
            correct += int((probs.argmax(axis=1) == y[batch]).sum())
        history.append(EpochStats(epoch=epoch + 1, loss=total_loss / n, accuracy=correct / n))
    return history


# ---------------------------------------------------------------------------
# Metrics


def accuracy_eq(tp, tn, fp, fn) -> float:
    denom = tp + tn + fp + fn
    return (tp + tn) / denom if denom else 0.0


def precision_eq(tp, fp) -> float:
    return tp / (tp + fp) if (tp + fp) else 0.0


def recall_eq(tp, fn) -> float:
    return tp / (tp + fn) if (tp + fn) else 0.0


def f1_eq(precision, recall) -> float:
    s = precision + recall
    return 2.0 * precision * recall / s if s else 0.0


@dataclass
class MetricsReport:
    class_names: tuple[str, ...]
    confusion: np.ndarray                  # [true, predicted]
    per_class: dict                        # name -> dict of tp/tn/fp/fn/metrics
    accuracy: float
    weighted_precision: float
    weighted_recall: float
    weighted_f1: float
    support: np.ndarray
    zero_division_flags: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "class_names": list(self.class_names),
            "confusion": self.confusion.tolist(),
            "per_class": self.per_class,
            "accuracy": self.accuracy,
            "weighted_precision": self.weighted_precision,
            "weighted_recall": self.weighted_recall,
            "weighted_f1": self.weighted_f1,
            "support": self.support.tolist(),
            "zero_division_flags": list(self.zero_division_flags),
        }

    def render_text(self) -> str:
        w = max(len("class"), *(len(n) for n in self.class_names))
        lines = [
            f"{'class':<{w}}  {'support':>7}  {'precision':>9}  {'recall':>9}  {'f1':>9}"
        ]
        for c, name in enumerate(self.class_names):
            m = self.per_class[name]
            lines.append(
                f"{name:<{w}}  {int(self.support[c]):>7}  "
                f"{m['precision']:>9.4f}  {m['recall']:>9.4f}  {m['f1']:>9.4f}"
            )
        lines.append("")
        lines.append(f"accuracy           {self.accuracy:.4f}")
        lines.append(f"weighted precision {self.weighted_precision:.4f}")
        lines.append(f"weighted recall    {self.weighted_recall:.4f}")
        lines.append(f"weighted f1        {self.weighted_f1:.4f}")
        if self.zero_division_flags:
            lines.append("zero-division: " + ", ".join(self.zero_division_flags))
        return "\n".join(lines)

    def confusion_csv(self) -> str:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            [["true\\pred", *self.class_names]]
            + [[name, *self.confusion[c].tolist()] for c, name in enumerate(self.class_names)])
        return buf.getvalue().removesuffix("\n")


def metrics_from_confusion(confusion: np.ndarray, class_names) -> MetricsReport:
    confusion = np.asarray(confusion, dtype=np.int64)
    C = len(class_names)
    if confusion.shape != (C, C):
        raise ParameterError(f"confusion shape {confusion.shape} vs {C} classes")
    total = int(confusion.sum())
    support = confusion.sum(axis=1)
    per_class = {}
    flags = []
    precisions = np.zeros(C)
    recalls = np.zeros(C)
    f1s = np.zeros(C)
    for c, name in enumerate(class_names):
        tp = int(confusion[c, c])
        fp = int(confusion[:, c].sum() - tp)
        fn = int(confusion[c].sum() - tp)
        tn = total - tp - fp - fn
        if tp + fp == 0:
            flags.append(f"{name}.precision")
        if tp + fn == 0:
            flags.append(f"{name}.recall")
        p = precision_eq(tp, fp)
        r = recall_eq(tp, fn)
        if p + r == 0:
            flags.append(f"{name}.f1")
        precisions[c] = p
        recalls[c] = r
        f1s[c] = f1_eq(p, r)
        per_class[name] = {
            "tp": tp, "tn": tn, "fp": fp, "fn": fn,
            "accuracy": accuracy_eq(tp, tn, fp, fn),
            "precision": p, "recall": r, "f1": f1s[c],
        }
    weights = support / total if total else np.zeros(C)
    return MetricsReport(
        class_names=tuple(class_names),
        confusion=confusion,
        per_class=per_class,
        accuracy=(float(np.trace(confusion)) / total) if total else 0.0,
        weighted_precision=float((weights * precisions).sum()),
        weighted_recall=float((weights * recalls).sum()),
        weighted_f1=float((weights * f1s).sum()),
        support=support,
        zero_division_flags=flags,
    )


def evaluate_model(model: CnnLstmModel, X: np.ndarray, y: np.ndarray, class_names) -> MetricsReport:
    """Score a scaled test matrix; argmax ties resolve to the lowest class."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if len(X) == 0:
        raise EmptyDatasetError("empty evaluation set")
    probs = model.predict_proba(X)
    preds = probs.argmax(axis=1)
    C = len(class_names)
    confusion = np.zeros((C, C), dtype=np.int64)
    np.add.at(confusion, (y, preds), 1)
    return metrics_from_confusion(confusion, class_names)


# ---------------------------------------------------------------------------
# Trained-model bundle and persistence


@dataclass
class TrainedModel:
    """Everything inference needs: net (which holds the config), scaler,
    feature list, label map, categorical tables, and the training history."""

    net: CnnLstmModel
    feature_names: tuple[str, ...]
    scaler: ScalerParams
    label_map: LabelMap
    encodings: dict[str, tuple[float, ...]] = field(default_factory=dict)
    history: list = field(default_factory=list)

    @property
    def class_names(self) -> tuple[str, ...]:
        return self.label_map.class_names

    def require_features(self, names) -> None:
        """Raise SchemaError unless `names` holds every selected feature."""
        absent = [n for n in self.feature_names if n not in names]
        if absent:
            raise SchemaError(f"input lacks selected feature(s) {absent}")

    def transform_matrix(self, raw) -> np.ndarray:
        """Encode each categorical column of a raw [n, features] matrix (any
        array-like, rows of selected values in `feature_names` order) and
        min-max scale it."""
        raw = np.array(raw, dtype=np.float64).reshape(-1, len(self.feature_names))
        for j, name in enumerate(self.feature_names):
            if name in self.encodings:
                raw[:, j] = encode_column(raw[:, j], self.encodings[name])
        return scale_matrix(raw, self.scaler)

    def transform_record(self, record: FlowRecord) -> np.ndarray:
        """`transform_matrix` for one parsed flow.

        Raises SchemaError for an absent feature and InputError for a
        missing value, so a caller can skip that one record.
        """
        self.require_features(record.features)
        for name in self.feature_names:
            if name in record.missing:
                raise InputError(f"missing value in selected feature {name!r}")
        return self.transform_matrix([[record.features[n] for n in self.feature_names]])[0]


@contextmanager
def open_scoring_input(path, model: TrainedModel, digests=None):
    """`open_flow_csv` for `model`: yields the schema and the open file after
    the header, for `iter_selected_rows`.  A header lacking a selected
    feature (by exact, stripped name) raises SchemaError before any row is
    read.  `digests` is `open_flow_csv`'s.
    """
    with open_flow_csv(path, digests) as (schema, fh):
        model.require_features(schema.feature_names)
        yield schema, fh


def _section(payload: bytes) -> bytes:
    return struct.pack("<I", len(payload)) + payload


def _canon_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save_model(tm: TrainedModel, path) -> None:
    """Container layout: magic, u16 version, length-prefixed sections (meta
    JSON, feature names, label map, scaler, weights), and a trailing CRC-32
    (zlib.crc32) over everything before it.  Always writes MODEL_VERSION."""
    meta = {
        "config": tm.net.config.to_dict(),
        "n_features": tm.net.n_features,
        "n_classes": tm.net.n_classes,
        "encodings": {k: list(v) for k, v in tm.encodings.items()},
        "history": [asdict(h) for h in tm.history],
    }
    label = {
        "profile": tm.label_map.profile,
        "class_names": list(tm.label_map.class_names),
        "rules": [list(r) for r in tm.label_map.rules],
    }
    scaler_payload = (
        struct.pack("<I", len(tm.scaler.feature_names))
        + np.ascontiguousarray(tm.scaler.mins, dtype="<f8").tobytes()
        + np.ascontiguousarray(tm.scaler.maxs, dtype="<f8").tobytes()
    )
    weights = bytearray()
    named = tm.net.named_params()
    weights += struct.pack("<I", len(named))
    for name, arr in named.items():
        nb = name.encode("utf-8")
        weights += struct.pack("<H", len(nb)) + nb
        weights += struct.pack("<B", arr.ndim)
        for d in arr.shape:
            weights += struct.pack("<I", d)
        weights += np.ascontiguousarray(arr, dtype="<f8").tobytes()

    body = MODEL_MAGIC + struct.pack("<H", MODEL_VERSION)
    body += _section(_canon_json(meta))
    body += _section(_canon_json(list(tm.feature_names)))
    body += _section(_canon_json(label))
    body += _section(scaler_payload)
    body += _section(bytes(weights))
    body += struct.pack("<I", zlib.crc32(body))
    with open(path, "wb") as fh:
        fh.write(body)


class _Cursor:
    """Reads a span of a checksummed payload; a read past its end is malformed."""

    def __init__(self, data: memoryview):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.data):
            raise ValueError(f"{n} bytes asked at byte {self.pos} of a "
                             f"{len(self.data)}-byte span")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def section(self) -> memoryview:
        return self.take(self.u32())

    def end(self) -> None:
        """Raise unless every byte of the span was read."""
        if self.pos != len(self.data):
            raise ValueError(f"{len(self.data) - self.pos} bytes left after the last value "
                             f"of a {len(self.data)}-byte span")


def load_model(source) -> TrainedModel:
    """Rebuild a saved model from its file (a path) or from the file's bytes
    as read, so a caller that also checksums the file reads it once."""
    if isinstance(source, bytes):
        data = source
    else:
        with open(source, "rb") as fh:
            data = fh.read()
    if len(data) < len(MODEL_MAGIC) + 2 + 4:
        raise ChecksumError("file too short to be a model container")
    if data[: len(MODEL_MAGIC)] != MODEL_MAGIC:
        raise ModelFormatError("bad magic; not a model container")
    payload = memoryview(data)[:-4]
    (version,) = struct.unpack_from("<H", data, len(MODEL_MAGIC))
    # The checksum comes first, so a flipped version bit is a ChecksumError.
    # A version-1 file (CRC-32C) fails here too, so the message names the
    # version field read, lest an old file be taken for a corrupt one.
    if zlib.crc32(payload) != struct.unpack("<I", data[-4:])[0]:
        raise ChecksumError("stored checksum does not match payload" + (
            "" if version == MODEL_VERSION else
            f"; its version field reads {version}, and only version {MODEL_VERSION} is read"))
    if version != MODEL_VERSION:
        raise ModelVersionError(
            f"container version {version} is not read; only version {MODEL_VERSION} is")
    cur = _Cursor(payload[len(MODEL_MAGIC) + 2:])

    # A section that passes the checksum can still be malformed: a length
    # that runs past its span, bytes left after its last value, text that is
    # not UTF-8 (a weight name included), not JSON, JSON of the wrong shape,
    # values the scaler or label map rejects (ParameterError), or an
    # architecture that cannot be built (ConfigError).
    try:
        meta = json.loads(str(cur.section(), "utf-8"))
        feature_names = tuple(json.loads(str(cur.section(), "utf-8")))
        label = json.loads(str(cur.section(), "utf-8"))
        config = ModelConfig.from_dict(meta["config"])
        n_features, n_classes = int(meta["n_features"]), int(meta["n_classes"])
        encodings = {k: tuple(v) for k, v in meta.get("encodings", {}).items()}
        history = [EpochStats(**h) for h in meta.get("history", [])]
        label_map = LabelMap(
            profile=label["profile"],
            class_names=tuple(label["class_names"]),
            rules=tuple((p, c) for p, c in label["rules"]),
        )
        if (n_features, n_classes) != (len(feature_names), len(label_map.class_names)):
            raise ModelFormatError(
                f"model stores {n_features} features and {n_classes} classes but names "
                f"{len(feature_names)} and {len(label_map.class_names)}")

        sc = _Cursor(cur.section())
        n = sc.u32()
        mins = np.frombuffer(sc.take(8 * n), dtype="<f8").astype(np.float64)
        maxs = np.frombuffer(sc.take(8 * n), dtype="<f8").astype(np.float64)
        sc.end()
        scaler = ScalerParams(feature_names=feature_names, mins=mins, maxs=maxs)

        wc = _Cursor(cur.section())
        count = wc.u32()
        arrays = {}
        for _ in range(count):
            name = str(wc.take(wc.u16()), "utf-8")
            ndim = struct.unpack("<B", wc.take(1))[0]
            shape = tuple(wc.u32() for _ in range(ndim))
            size = int(np.prod(shape)) if shape else 1
            # one owned, writable, C-contiguous copy that the layer takes as it is
            arrays[name] = np.frombuffer(wc.take(8 * size), dtype="<f8").reshape(shape) \
                .astype(np.float64)
        wc.end()
        cur.end()
        net = CnnLstmModel(config, n_features, n_classes, arrays)
    except (ValueError, KeyError, TypeError, AttributeError, ParameterError,
            ConfigError) as err:
        raise ModelFormatError(f"malformed model section: {type(err).__name__}: {err}") from None

    shapes = net.param_shapes()
    if set(shapes) != set(arrays):
        raise ModelFormatError("stored weight names do not match the rebuilt graph")
    for name, arr in arrays.items():
        if shapes[name] != arr.shape:
            raise ModelFormatError(f"stored shape {arr.shape} mismatches graph for {name}")
    for name, arr in {"scaler mins": mins, "scaler maxs": maxs, **arrays}.items():
        if not np.isfinite(arr).all():
            raise ModelFormatError(f"stored array {name} holds a non-finite value")

    return TrainedModel(
        net=net,
        feature_names=feature_names,
        scaler=scaler,
        label_map=label_map,
        encodings=encodings,
        history=history,
    )
