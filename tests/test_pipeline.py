"""Model assembly, the training loop, metric algebra, and persistence."""

import re
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsentry import cli, featsel, flowdata, nncore, pipeline, synth
from flowsentry.errors import (
    ChecksumError,
    ConfigError,
    InputError,
    ModelFormatError,
    ModelVersionError,
    ParameterError,
    SchemaError,
    StratificationError,
)
import support
from test_flowdata import dataset_from_records


def _dataset(X, y, class_names=("A", "B")):
    return flowdata.Dataset(
        columns=tuple(f"c{j}" for j in range(X.shape[1])),
        matrix=np.asarray(X, dtype=np.float64),
        labels=np.asarray(y, dtype=np.int64),
        class_names=class_names,
    )


# ---------------------------------------------------------------------------
# model assembly


class TestBuild:
    def test_default_head_width_and_param_count(self):
        cfg = pipeline.ModelConfig()
        net = pipeline.CnnLstmModel(cfg, n_features=30, n_classes=7)
        assert net.layers[-1][1].params["w"].shape[1] == 7
        assert net.summary_rows[-1] == ("softmax", (7,), 0)

        def conv_params(c_in, c_out, k):
            return c_out * c_in * k + c_out

        def lstm_params(f, h):
            return f * 4 * h + h * 4 * h + 4 * h

        expected = (
            conv_params(1, 32, 3) + conv_params(32, 64, 3) + conv_params(64, 64, 3)
            + lstm_params(64, 64) + lstm_params(64, 32)
            + (32 * 7 + 7)
        )
        assert sum(n for _, _, n in net.summary_rows) == expected == 64359

    def test_too_narrow_input_is_config_error(self):
        cfg = pipeline.ModelConfig(conv_blocks=((4, 3, 2),), dropout_rates=(),
                                   lstm_units=(4,))
        with pytest.raises(ConfigError):
            pipeline.CnnLstmModel(cfg, n_features=2, n_classes=2)

    def test_summary_names_every_layer(self):
        cfg = pipeline.ModelConfig()
        net = pipeline.CnnLstmModel(cfg, 30, 7)
        text = net.summary()
        for token in ("conv1d_1", "maxpool_1", "dropout_2", "lstm_2", "dense",
                      "softmax", "total params=64359"):
            assert token in text

    def test_same_seed_same_initial_weights(self):
        cfg = pipeline.ModelConfig(conv_blocks=((4, 3, 2),), dropout_rates=(),
                                   lstm_units=(4,), seed=9)
        a = pipeline.CnnLstmModel(cfg, 10, 3)
        b = pipeline.CnnLstmModel(cfg, 10, 3)
        for (n1, p1), (n2, p2) in zip(a.named_params().items(),
                                      b.named_params().items()):
            assert n1 == n2
            np.testing.assert_array_equal(p1, p2)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            pipeline.ModelConfig(learning_rate=0.0)
        for rate in (float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="learning_rate must be a finite number > 0"):
                pipeline.ModelConfig(learning_rate=rate)
        with pytest.raises(ConfigError):
            pipeline.ModelConfig(dropout_rates=(0.1, 0.2, 0.3, 0.4))
        with pytest.raises(ConfigError):
            pipeline.ModelConfig(epochs=-1)
        for blocks in (((0, 3, 2),), ((8, 3, 2), (-1, 3, 2))):
            with pytest.raises(ConfigError, match="every conv block needs at least 1 filter"):
                pipeline.ModelConfig(conv_blocks=blocks, dropout_rates=())
        for units in ((0,), (-3,), (8, 0)):
            with pytest.raises(ConfigError, match="every recurrent layer needs at least 1 unit"):
                pipeline.ModelConfig(lstm_units=units)

    def test_config_roundtrips_through_dict(self):
        cfg = pipeline.ModelConfig(epochs=2, lstm_units=(8, 4))
        assert pipeline.ModelConfig.from_dict(cfg.to_dict()) == cfg


class TestDefaultLstmSteps:
    """What the default stack leaves its LSTMs: one time step at 22 to 29
    features, two at 30 and 31, and no network at all below 22."""

    @pytest.mark.parametrize("n_features, steps", [(21, None), (22, 1), (29, 1), (30, 2),
                                                   (31, 2)])
    def test_sequence_length_each_lstm_sees(self, monkeypatch, n_features, steps):
        if steps is None:
            with pytest.raises(ConfigError):
                pipeline.CnnLstmModel(pipeline.ModelConfig(), n_features, 7)
            return
        net = pipeline.CnnLstmModel(pipeline.ModelConfig(), n_features, 7)
        seen, real = [], nncore.LSTM.forward

        def spy(layer, x, train=False):
            seen.append(x.shape[-2])                # [batch, time, channels]
            return real(layer, x, train)

        monkeypatch.setattr(nncore.LSTM, "forward", spy)
        net.forward_logits(np.zeros((3, n_features)), train=True)
        assert seen == [steps, steps]

    @pytest.mark.parametrize("n_features, steps", [(22, 1), (30, 2)])
    def test_summary_says_how_many_steps_each_lstm_sees(self, n_features, steps):
        net = pipeline.CnnLstmModel(pipeline.ModelConfig(), n_features, 7)
        assert net.summary().splitlines()[-1] == f"lstm time steps={steps}"

    def test_one_step_leaves_the_recurrent_weights_untrained(self):
        rng = np.random.default_rng(8)
        X, y = rng.random((300, 22)), rng.integers(0, 3, size=300)
        net = pipeline.CnnLstmModel(pipeline.ModelConfig(epochs=1), 22, 3)
        before = {name: arr.copy() for name, arr in net.named_params().items()}
        pipeline.train_model(net, X, y)
        after = net.named_params()
        for lstm in ("lstm_1", "lstm_2"):
            assert after[f"{lstm}.wh"].tobytes() == before[f"{lstm}.wh"].tobytes()
            assert not np.array_equal(after[f"{lstm}.wx"], before[f"{lstm}.wx"])
            # nor is there a forget gate at t = 0: its weights ship untrained too
            H = after[f"{lstm}.wh"].shape[0]
            for pname in ("wx", "b"):
                assert (after[f"{lstm}.{pname}"][..., H:2 * H].tobytes()
                        == before[f"{lstm}.{pname}"][..., H:2 * H].tobytes()), pname


# ---------------------------------------------------------------------------
# split


class TestSplit:
    def test_balanced_100_rows_gives_canonical_counts(self):
        X = np.random.default_rng(0).normal(size=(100, 3))
        y = np.array([0] * 50 + [1] * 50)
        train, test = pipeline.split_dataset(_dataset(X, y), train_frac=0.8, seed=1)
        assert train.n_rows == 80 and test.n_rows == 20
        assert (train.labels == 0).sum() == 40 and (train.labels == 1).sum() == 40
        assert (test.labels == 0).sum() == 10 and (test.labels == 1).sum() == 10

    def test_same_seed_identical_split(self):
        X = np.random.default_rng(1).normal(size=(60, 2))
        y = (X[:, 0] > 0).astype(np.int64)
        a = pipeline.split_dataset(_dataset(X, y), seed=5)
        b = pipeline.split_dataset(_dataset(X, y), seed=5)
        np.testing.assert_array_equal(a[0].matrix, b[0].matrix)
        np.testing.assert_array_equal(a[1].matrix, b[1].matrix)

    def test_single_row_class_rejected(self):
        X = np.zeros((5, 2))
        y = np.array([0, 0, 0, 0, 1])
        with pytest.raises(StratificationError):
            pipeline.split_dataset(_dataset(X, y))

    def test_row_order_preserved_within_splits(self):
        X = np.arange(40, dtype=np.float64).reshape(20, 2)
        y = np.array([0, 1] * 10)
        train, test = pipeline.split_dataset(_dataset(X, y), seed=3)
        assert np.all(np.diff(train.matrix[:, 0]) > 0)
        assert np.all(np.diff(test.matrix[:, 0]) > 0)

    @settings(max_examples=40, deadline=None)
    @given(n0=st.integers(2, 40), n1=st.integers(2, 40), seed=st.integers(0, 9))
    def test_per_class_counts_follow_rounding_rule(self, n0, n1, seed):
        X = np.random.default_rng(seed).normal(size=(n0 + n1, 2))
        y = np.array([0] * n0 + [1] * n1)
        train, test = pipeline.split_dataset(_dataset(X, y), train_frac=0.8, seed=seed)
        for c, n in ((0, n0), (1, n1)):
            want = int(np.clip(round(0.8 * n), 1, n - 1))
            assert (train.labels == c).sum() == want
            assert (test.labels == c).sum() == n - want


# ---------------------------------------------------------------------------
# training


class TestTrain:
    def test_epochs_zero_keeps_initial_weights(self):
        cfg = pipeline.ModelConfig(conv_blocks=((4, 3, 2),), dropout_rates=(),
                                   lstm_units=(4,), epochs=0)
        net = pipeline.CnnLstmModel(cfg, 8, 2)
        before = {k: v.copy() for k, v in net.named_params().items()}
        X = np.random.default_rng(0).uniform(size=(20, 8))
        y = np.array([0, 1] * 10)
        history = pipeline.train_model(net, X, y)
        assert history == []
        for k, v in net.named_params().items():
            np.testing.assert_array_equal(before[k], v)

    def test_loss_decreases_on_separable_data(self):
        rng = np.random.default_rng(2)
        X = np.vstack([rng.uniform(0.0, 0.3, size=(40, 10)),
                       rng.uniform(0.7, 1.0, size=(40, 10))])
        y = np.array([0] * 40 + [1] * 40)
        cfg = pipeline.ModelConfig(conv_blocks=((4, 3, 2),), dropout_rates=(),
                                   lstm_units=(4,), epochs=20, batch_size=16,
                                   learning_rate=0.01)
        net = pipeline.CnnLstmModel(cfg, 10, 2)
        history = pipeline.train_model(net, X, y)
        assert len(history) == 20
        assert history[-1].loss < history[0].loss
        assert all(np.isfinite(h.loss) for h in history)

    def test_training_is_deterministic(self):
        X = np.random.default_rng(3).uniform(size=(30, 8))
        y = (X[:, 0] > 0.5).astype(np.int64)
        cfg = pipeline.ModelConfig(conv_blocks=((4, 3, 2),), dropout_rates=(0.2,),
                                   lstm_units=(4,), epochs=3, batch_size=8, seed=4)
        nets = []
        for _ in range(2):
            net = pipeline.CnnLstmModel(cfg, 8, 2)
            pipeline.train_model(net, X, y)
            nets.append(net)
        for a, b in zip(nets[0].named_params().values(),
                        nets[1].named_params().values()):
            np.testing.assert_array_equal(a, b)

    def test_a_loss_that_is_not_finite_stops_training(self):
        rng = np.random.default_rng(5)
        X, y = rng.random((120, 10)), rng.integers(0, 3, size=120)
        cfg = pipeline.ModelConfig(conv_blocks=((4, 3, 2),), dropout_rates=(),
                                   lstm_units=(4,), epochs=2, batch_size=32,
                                   learning_rate=1e308)
        net = pipeline.CnnLstmModel(cfg, 10, 3)
        with pytest.raises(ParameterError) as err, np.errstate(all="ignore"):
            pipeline.train_model(net, X, y)
        assert str(err.value) == ("training diverged at epoch 1: the loss is not finite "
                                  "(try a smaller --learning-rate)")

    @staticmethod
    def _default_net_and_rows():
        """The default network at 22 features and two batches of 256 rows."""
        rng = np.random.default_rng(8)
        X, y = rng.random((512, 22)), rng.integers(0, 3, size=512)
        return pipeline.CnnLstmModel(pipeline.ModelConfig(epochs=1), 22, 3), X, y

    def test_no_batch_outlives_training(self):
        net, X, y = self._default_net_and_rows()
        pipeline.train_model(net, X, y)
        held = [name for name, layer in net.layers if layer._cache is not None]
        assert held == ["dropout_1", "dropout_2"]   # a mask, kept for the identity rule

    def test_a_step_builds_its_activations_after_the_last_step_released_its_own(self):
        # tracemalloc peak of this run: 13.5 MB when each layer keeps its
        # cache until its next training forward, 7.7 MB when each backward
        # releases it and no cache holds a float64 tensor it can rebuild;
        # without the release, or with Conv1D caching its windows, it reads
        # above 10 MB
        net, X, y = self._default_net_and_rows()
        tracemalloc.start()
        try:
            pipeline.train_model(net, X, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 9_000_000


# ---------------------------------------------------------------------------
# metric algebra


class TestMetrics:
    def test_binary_counts_reference_values(self):
        assert pipeline.accuracy_eq(50, 30, 10, 10) == pytest.approx(0.8)
        assert pipeline.precision_eq(50, 10) == pytest.approx(50 / 60)
        assert pipeline.recall_eq(50, 10) == pytest.approx(50 / 60)
        p, r = 50 / 60, 50 / 60
        assert pipeline.f1_eq(p, r) == pytest.approx(50 / 60)

    def test_perfect_predictions_give_unit_metrics(self):
        confusion = np.diag([4, 3, 2])
        report = pipeline.metrics_from_confusion(confusion, ("A", "B", "C"))
        assert report.accuracy == 1.0
        for name in ("A", "B", "C"):
            m = report.per_class[name]
            assert m["precision"] == m["recall"] == m["f1"] == 1.0
        assert report.weighted_f1 == pytest.approx(1.0, abs=1e-12)

    def test_hand_computed_three_class_matrix(self):
        confusion = np.array([[5, 1, 0], [2, 6, 1], [0, 2, 4]])
        report = pipeline.metrics_from_confusion(confusion, ("A", "B", "C"))
        assert report.accuracy == pytest.approx(15 / 21, abs=1e-12)
        A, B, C = (report.per_class[k] for k in ("A", "B", "C"))
        assert A["precision"] == pytest.approx(5 / 7, abs=1e-12)
        assert A["recall"] == pytest.approx(5 / 6, abs=1e-12)
        assert A["f1"] == pytest.approx(10 / 13, abs=1e-12)
        assert B["f1"] == pytest.approx(2 / 3, abs=1e-12)
        assert C["precision"] == pytest.approx(4 / 5, abs=1e-12)
        assert C["f1"] == pytest.approx(8 / 11, abs=1e-12)
        expected_weighted = (6 * 10 / 13 + 9 * 2 / 3 + 6 * 8 / 11) / 21
        assert report.weighted_f1 == pytest.approx(expected_weighted, abs=1e-12)

    def test_row_sums_equal_supports(self):
        confusion = np.array([[3, 1], [2, 6]])
        report = pipeline.metrics_from_confusion(confusion, ("A", "B"))
        np.testing.assert_array_equal(report.support, [4, 8])

    def test_zero_division_flagged_not_poisoned(self):
        confusion = np.array([[5, 0], [3, 0]])    # nothing predicted as B
        report = pipeline.metrics_from_confusion(confusion, ("A", "B"))
        assert report.per_class["B"]["precision"] == 0.0
        assert "B.precision" in report.zero_division_flags
        assert np.isfinite(report.weighted_f1)

    def test_all_metrics_within_unit_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            confusion = rng.integers(0, 30, size=(4, 4))
            if confusion.sum() == 0:
                continue
            report = pipeline.metrics_from_confusion(confusion, ("A", "B", "C", "D"))
            values = [report.accuracy, report.weighted_precision,
                      report.weighted_recall, report.weighted_f1]
            for m in report.per_class.values():
                values += [m["precision"], m["recall"], m["f1"]]
            assert all(0.0 <= v <= 1.0 for v in values)

    def test_render_text_and_csv_shapes(self):
        confusion = np.array([[3, 1], [0, 4]])
        report = pipeline.metrics_from_confusion(confusion, ("A", "B"))
        text = report.render_text()
        assert "accuracy" in text and "weighted f1" in text
        csv_text = report.confusion_csv()
        assert csv_text.splitlines()[0] == "true\\pred,A,B"
        assert csv_text.splitlines()[1] == "A,3,1"


class TestEvaluate:
    def test_argmax_invariant_under_logit_shift(self, tiny_model):
        net = tiny_model["tm"].net
        X = tiny_model["test"].matrix[:16]
        logits = net.forward_logits(X, train=False)
        base = logits.argmax(axis=1)
        shifted = nncore.softmax(logits + 123.456).argmax(axis=1)
        np.testing.assert_array_equal(base, shifted)

    def test_confusion_totals_match_input(self, tiny_model):
        test = tiny_model["test"]
        report = tiny_model["report"]
        assert report.confusion.sum() == test.n_rows
        np.testing.assert_array_equal(
            report.confusion.sum(axis=1),
            np.bincount(test.labels, minlength=len(test.class_names)))


# ---------------------------------------------------------------------------
# persistence


def _crc32c_bitwise(data):
    """CRC-32C (Castagnoli, reflected), one bit at a time: the checksum of a
    version-1 container, which the package no longer computes."""
    crc = 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ (0x82F63B78 if crc & 1 else 0)
    return crc ^ 0xFFFFFFFF


def _large_model(tmp_path):
    """The default architecture, untrained, saved: a file of about 0.5 MB."""
    net = pipeline.CnnLstmModel(pipeline.ModelConfig(), n_features=22, n_classes=7)
    names = tuple(f"f{j}" for j in range(22))
    tm = pipeline.TrainedModel(
        net=net,
        feature_names=names,
        scaler=featsel.ScalerParams(feature_names=names, mins=np.zeros(22), maxs=np.ones(22)),
        label_map=flowdata.label_map_for("ids2017"),
    )
    path = tmp_path / "large.nidm"
    pipeline.save_model(tm, path)
    return path


class TestPersistence:
    def test_flipped_byte_in_large_model_is_checksum_error(self, tmp_path):
        path = _large_model(tmp_path)
        data = path.read_bytes()
        pipeline.load_model(path)
        body = len(data) - 4
        tail_start = (body // 8192) * 8192
        for pos in (7, body // 2, tail_start - 1, tail_start, body - 1):
            bad = bytearray(data)
            bad[pos] ^= 0x01
            flipped = tmp_path / "flip.nidm"
            flipped.write_bytes(bytes(bad))
            with pytest.raises(ChecksumError):
                pipeline.load_model(flipped)

    def test_roundtrip_is_bit_identical(self, tiny_model, tmp_path):
        tm = tiny_model["tm"]
        X = tiny_model["test"].matrix[:12]
        before = tm.net.predict_proba(X)
        loaded = pipeline.load_model(tiny_model["path"])
        after = loaded.net.predict_proba(X)
        np.testing.assert_array_equal(before, after)
        assert loaded.feature_names == tm.feature_names
        assert loaded.label_map == tm.label_map
        assert loaded.encodings == tm.encodings
        np.testing.assert_array_equal(loaded.scaler.mins, tm.scaler.mins)
        assert [h.loss for h in loaded.history] == [h.loss for h in tm.history]

    def test_save_is_deterministic(self, tiny_model, tmp_path):
        a, b = tmp_path / "a.nidm", tmp_path / "b.nidm"
        pipeline.save_model(tiny_model["tm"], a)
        pipeline.save_model(tiny_model["tm"], b)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() == tiny_model["path"].read_bytes()

    def test_wrong_magic_is_format_error(self, tiny_model, tmp_path):
        data = bytearray(tiny_model["path"].read_bytes())
        data[0] = ord("X")
        bad = tmp_path / "magic.nidm"
        bad.write_bytes(bytes(data))
        with pytest.raises(ModelFormatError):
            pipeline.load_model(bad)

    def test_flipped_payload_byte_is_checksum_error(self, tiny_model, tmp_path):
        data = bytearray(tiny_model["path"].read_bytes())
        data[len(data) // 2] ^= 0xFF
        bad = tmp_path / "flip.nidm"
        bad.write_bytes(bytes(data))
        with pytest.raises(ChecksumError):
            pipeline.load_model(bad)

    def test_truncation_is_checksum_error(self, tiny_model, tmp_path):
        data = tiny_model["path"].read_bytes()
        bad = tmp_path / "trunc.nidm"
        bad.write_bytes(data[: len(data) // 2])
        with pytest.raises(ChecksumError):
            pipeline.load_model(bad)

    def test_newer_version_is_version_error(self, tiny_model, tmp_path):
        data = bytearray(tiny_model["path"].read_bytes())
        data[4:6] = struct.pack("<H", pipeline.MODEL_VERSION + 1)
        body = bytes(data[:-4])
        patched = body + struct.pack("<I", zlib.crc32(body))
        bad = tmp_path / "future.nidm"
        bad.write_bytes(patched)
        with pytest.raises(ModelVersionError):
            pipeline.load_model(bad)

    @pytest.mark.parametrize("version", [0, 1, 3])
    def test_version_field_corruption_is_checksum_error(self, tiny_model, tmp_path, version):
        data = bytearray(tiny_model["path"].read_bytes())
        assert struct.unpack("<H", data[4:6])[0] == pipeline.MODEL_VERSION == 2
        data[4:6] = struct.pack("<H", version)
        bad = tmp_path / "version.nidm"
        bad.write_bytes(bytes(data))
        with pytest.raises(ChecksumError):
            pipeline.load_model(bad)

    def test_version_1_file_is_refused(self, tiny_model, raw_csv_path, tmp_path, capsys):
        """A version-1 container (sections as version 2, under a CRC-32C)
        fails its CRC-32 check with a message that names the version field,
        so it is not taken for a corrupt version-2 file."""
        assert _crc32c_bitwise(b"123456789") == 0xE3069283
        data = bytearray(tiny_model["path"].read_bytes())
        data[4:6] = struct.pack("<H", 1)
        body = bytes(data[:-4])
        old = tmp_path / "v1.nidm"
        old.write_bytes(body + struct.pack("<I", _crc32c_bitwise(body)))
        message = ("stored checksum does not match payload; its version field reads 1, "
                   "and only version 2 is read")
        with pytest.raises(ChecksumError) as err:
            pipeline.load_model(old)
        assert str(err.value) == message

        assert cli.main(["evaluate", "--model", str(old), "--data", str(raw_csv_path),
                         "--out-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_malformed_section_is_format_error(self, malformed_model):
        with pytest.raises(ModelFormatError, match="malformed model section"):
            pipeline.load_model(malformed_model)

    @pytest.mark.parametrize("malformed_model, message", [
        ("batch-size", "batch_size must be >= 1"),
        ("kernel-too-long", "conv block 1: input length {n} shorter than kernel {k}"),
        ("no-filters", "every conv block needs at least 1 filter"),
        ("no-units", "every recurrent layer needs at least 1 unit"),
    ], indirect=["malformed_model"], ids=["batch-size", "kernel-too-long", "no-filters",
                                         "no-units"])
    def test_unbuildable_architecture_is_format_error(self, malformed_model, message,
                                                      tiny_model):
        n = tiny_model["tm"].net.n_features
        with pytest.raises(ModelFormatError) as err:
            pipeline.load_model(malformed_model)
        assert str(err.value) == \
            "malformed model section: ConfigError: " + message.format(n=n, k=n + 1)

    @pytest.mark.parametrize("malformed_model", ["scaler-oversized", "weights-oversized",
                                                 "section-overrun", "trailing-bytes"],
                             indirect=True)
    def test_every_checksummed_byte_is_read(self, malformed_model):
        """Under a valid checksum, a length that runs past the payload or a
        byte no value reads is a malformed section, not a checksum error."""
        with pytest.raises(ModelFormatError) as err:
            pipeline.load_model(malformed_model)
        assert type(err.value) is ModelFormatError
        assert re.fullmatch(r"malformed model section: ValueError: (8 bytes left after the "
                            r"last value|\d+ bytes asked at byte \d+) of a \d+-byte span",
                            str(err.value))

    @pytest.mark.parametrize("malformed_model", ["nan-rate"], indirect=True)
    def test_non_finite_learning_rate_is_format_error(self, malformed_model):
        with pytest.raises(ModelFormatError) as err:
            pipeline.load_model(malformed_model)
        assert str(err.value) == ("malformed model section: ConfigError: "
                                  "learning_rate must be a finite number > 0")

    def test_non_finite_weight_or_scaler_bound_is_format_error(self, non_finite_model):
        path, name = non_finite_model
        with pytest.raises(ModelFormatError) as err:
            pipeline.load_model(path)
        assert str(err.value) == f"stored array {name} holds a non-finite value"

    def test_counts_that_disagree_with_names_are_format_error(self, miscounted_model,
                                                               tiny_model):
        net = tiny_model["tm"].net
        names = (net.n_features - ("features" in miscounted_model.name),
                 net.n_classes - ("classes" in miscounted_model.name))
        with pytest.raises(ModelFormatError) as err:
            pipeline.load_model(miscounted_model)
        assert str(err.value) == (f"model stores {net.n_features} features and "
                                  f"{net.n_classes} classes but names {names[0]} and {names[1]}")


class TestLoadTakesStoredWeights:
    """load_model builds the graph from the stored arrays: no init weight is
    drawn and none is overwritten."""

    def test_loading_draws_no_weights(self, tiny_model, tmp_path, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("load_model drew init weights")

        monkeypatch.setattr(nncore, "glorot_uniform", no_draw)
        for layer in (nncore.Conv1D, nncore.LSTM, nncore.Dense):
            monkeypatch.setattr(layer, "_init", no_draw)
        loaded = pipeline.load_model(tiny_model["path"])
        monkeypatch.undo()

        tm = tiny_model["tm"]
        saved = tm.net.named_params()
        params = loaded.net.named_params()
        assert list(params) == list(saved)
        for name, arr in params.items():
            assert arr.flags.owndata and arr.flags.writeable and arr.flags.c_contiguous, name
            assert arr.dtype == np.float64 and arr.shape == saved[name].shape
            assert arr.tobytes() == saved[name].tobytes(), name
        assert loaded.net.summary() == tm.net.summary()

        again = tmp_path / "again.nidm"
        pipeline.save_model(loaded, again)
        assert again.read_bytes() == tiny_model["path"].read_bytes()
        X = np.concatenate([tiny_model["test"].matrix, tiny_model["train"].matrix[:50]])
        assert loaded.net.predict_proba(X).tobytes() == tm.net.predict_proba(X).tobytes()

    def test_loading_draws_no_generators(self, tiny_model, monkeypatch):
        """A loaded model only scores: no seed stream is spawned and no
        dropout layer gets a generator, and training it is refused."""
        def no_rng(*args, **kwargs):
            raise AssertionError("load_model made a generator")

        monkeypatch.setattr(np.random, "SeedSequence", no_rng)
        monkeypatch.setattr(np.random, "default_rng", no_rng)
        loaded = pipeline.load_model(tiny_model["path"])
        monkeypatch.undo()
        assert all(layer.rng is None for _, layer in loaded.net.layers
                   if isinstance(layer, nncore.Dropout))
        train = tiny_model["train"]
        with pytest.raises(ParameterError, match="no training streams"):
            pipeline.train_model(loaded.net, train.matrix, train.labels)

    def test_loads_from_the_file_bytes(self, tiny_model):
        from_path = pipeline.load_model(tiny_model["path"])
        from_bytes = pipeline.load_model(tiny_model["path"].read_bytes())
        X = tiny_model["test"].matrix
        assert from_bytes.net.predict_proba(X).tobytes() == from_path.net.predict_proba(X).tobytes()
        assert from_bytes.feature_names == from_path.feature_names
        with pytest.raises(ChecksumError):
            pipeline.load_model(tiny_model["path"].read_bytes()[:-1])

    def test_training_still_draws_the_same_init_weights(self):
        cfg = pipeline.ModelConfig(conv_blocks=((4, 3, 2),), dropout_rates=(), lstm_units=(3,),
                                   seed=5)
        net = pipeline.CnnLstmModel(cfg, 8, 3)
        init_ss = np.random.SeedSequence(5).spawn(3)[0].spawn(3)
        conv_rng, lstm_rng, dense_rng = (np.random.default_rng(s) for s in init_ss)
        limit = 1.0 / np.sqrt(3)
        want = {
            "conv1d_1.w": nncore.glorot_uniform((4, 1, 3), 3, 12, conv_rng),
            "conv1d_1.b": np.zeros(4),
            "lstm_1.wx": lstm_rng.uniform(-limit, limit, size=(4, 12)),
            "lstm_1.wh": lstm_rng.uniform(-limit, limit, size=(3, 12)),
            "lstm_1.b": np.array([0.0] * 3 + [1.0] * 3 + [0.0] * 6),
            "dense.w": nncore.glorot_uniform((3, 3), 3, 3, dense_rng),
            "dense.b": np.zeros(3),
        }
        got = net.named_params()
        assert list(got) == list(want)
        for name, arr in want.items():
            assert got[name].tobytes() == arr.tobytes(), name

    def _resaved(self, tiny_model, tmp_path, layer_name, edit):
        """The fixture model saved with one layer's stored arrays edited."""
        tm = tiny_model["tm"]
        net = pipeline.CnnLstmModel(tm.net.config, tm.net.n_features, tm.net.n_classes,
                                      dict(tm.net.named_params()))
        layer = dict(net.layers)[layer_name]
        layer.params = edit(dict(layer.params))
        path = tmp_path / "edited.nidm"
        pipeline.save_model(pipeline.TrainedModel(
            net=net, feature_names=tm.feature_names, scaler=tm.scaler,
            label_map=tm.label_map, encodings=tm.encodings, history=tm.history), path)
        return path

    def test_renamed_weight_is_format_error(self, tiny_model, tmp_path):
        def rename(params):
            params["w2"] = params.pop("w")
            return params

        path = self._resaved(tiny_model, tmp_path, "dense", rename)
        with pytest.raises(ModelFormatError) as err:
            pipeline.load_model(path)
        assert str(err.value) == "stored weight names do not match the rebuilt graph"

    def test_reshaped_weight_is_format_error(self, tiny_model, tmp_path):
        def widen(params):
            params["b"] = np.zeros(len(params["b"]) + 1)
            return params

        path = self._resaved(tiny_model, tmp_path, "dense", widen)
        n = tiny_model["tm"].net.n_classes
        with pytest.raises(ModelFormatError) as err:
            pipeline.load_model(path)
        assert str(err.value) == f"stored shape ({n + 1},) mismatches graph for dense.b"


# ---------------------------------------------------------------------------
# TrainedModel transforms


def _project_record(tm, record):
    """Oracle: one flow's selected features, each categorical value ranked
    on its own by a scan of its table; unscaled."""
    row = np.empty(len(tm.feature_names))
    for j, name in enumerate(tm.feature_names):
        v = record.features[name]
        if name in tm.encodings:
            v = support.rank(v, tm.encodings[name])
        row[j] = v
    return row


def _transform_dataset(tm, dataset):
    """Oracle: select the model's columns of a Dataset, encode, and scale."""
    cols = [dataset.columns.index(n) for n in tm.feature_names]
    raw = dataset.matrix[:, cols].copy()
    for j, name in enumerate(tm.feature_names):
        if name in tm.encodings:
            raw[:, j] = flowdata.encode_column(raw[:, j], tm.encodings[name])
    return featsel.scale_matrix(raw, tm.scaler)


class TestTransforms:
    def test_missing_selected_feature_is_schema_error(self, tiny_model):
        tm = tiny_model["tm"]
        record = flowdata.FlowRecord(
            features={"nope": 1.0},
            missing=frozenset(),
        )
        with pytest.raises(SchemaError):
            tm.transform_record(record)

    def test_missing_value_is_input_error(self, tiny_model):
        tm = tiny_model["tm"]
        name = tm.feature_names[0]
        record = flowdata.FlowRecord(
            features={n: 1.0 for n in tm.feature_names},
            missing=frozenset({name}),
        )
        with pytest.raises(InputError):
            tm.transform_record(record)

    def test_record_and_dataset_transforms_agree_bitwise(self, tiny_model, raw_csv_path, label_map):
        tm = tiny_model["tm"]
        records, labels = zip(*[(r, label) for r, label in zip(
            flowdata.parse_flow_csv(raw_csv_path), support.row_labels(raw_csv_path),
            strict=True) if not r.missing][:20])
        labels = flowdata.map_labels(labels, label_map)
        ds = dataset_from_records(records, labels, label_map)
        X_bulk = _transform_dataset(tm, ds)
        X = tm.transform_matrix([[r.features[n] for n in tm.feature_names] for r in records])
        assert X.dtype == X_bulk.dtype and X.tobytes() == X_bulk.tobytes()
        for i, record in enumerate(records):
            row = tm.transform_record(record)
            np.testing.assert_array_equal(row, X_bulk[i])

    def test_tile_projection_matches_project_record_bitwise(self, tiny_model, raw_csv_path):
        tm = tiny_model["tm"]
        assert "Protocol" in tm.encodings
        records = [r for r in flowdata.parse_flow_csv(raw_csv_path) if not r.missing][:40]
        odd = (-0.0, 0.0, 99.0, -1.0, 1e300, 6.5) + tm.encodings["Protocol"]
        records = [flowdata.FlowRecord(features=dict(r.features, Protocol=odd[i % len(odd)]))
                   for i, r in enumerate(records)]
        tile = tm.transform_matrix([[r.features[n] for n in tm.feature_names]
                                    for r in records])
        rows = np.stack([featsel.scale_matrix(_project_record(tm, r)[None, :], tm.scaler)[0]
                         for r in records])
        assert tile.dtype == rows.dtype and tile.shape == rows.shape
        assert tile.tobytes() == rows.tobytes()

    def test_empty_tile_is_empty_matrix(self, tiny_model):
        tm = tiny_model["tm"]
        X = tm.transform_matrix([])
        assert X.shape == (0, len(tm.feature_names)) and X.dtype == np.float64

    def test_predict_proba_rows_sum_to_one(self, tiny_model):
        probs = tiny_model["tm"].net.predict_proba(tiny_model["test"].matrix[:10])
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(10), atol=1e-9)


# ---------------------------------------------------------------------------
# tile scoring


def _nets(tiny_model):
    """The fixture model's net and the default architecture (untrained)."""
    return [tiny_model["tm"].net,
            pipeline.CnnLstmModel(pipeline.ModelConfig(), n_features=22, n_classes=7)]


class TestTileScoring:
    """A row's probabilities must not depend on what it is scored with.

    Never skipped: a BLAS build whose kernels break the invariance must fail here.
    """

    def test_rows_match_scoring_alone_at_any_length(self, tiny_model):
        rng = np.random.default_rng(11)
        for net in _nets(tiny_model):
            pool = rng.random((40, net.n_features))
            alone = np.stack([net.predict_proba(pool[i:i + 1])[0] for i in range(len(pool))])
            for n in range(1, 98):
                idx = rng.integers(0, len(pool), size=n)
                np.testing.assert_array_equal(net.predict_proba(pool[idx]), alone[idx],
                                              err_msg=f"{n} rows")

    def test_row_matches_scoring_alone_at_every_tile_position(self, tiny_model):
        rng = np.random.default_rng(12)
        for net in _nets(tiny_model):
            row = rng.random((1, net.n_features))
            alone = net.predict_proba(row)[0]
            for pos in range(pipeline.TILE_ROWS):
                X = rng.random((pipeline.TILE_ROWS, net.n_features))
                X[pos] = row[0]
                np.testing.assert_array_equal(net.predict_proba(X)[pos], alone,
                                              err_msg=f"position {pos}")

    def test_tiles_match_one_row_forward_passes(self, tiny_model):
        # reference: softmax of a separate one-row forward pass per row; the
        # kernel shape differs, so only rounding may differ
        rng = np.random.default_rng(13)
        for net in _nets(tiny_model):
            X = rng.random((70, net.n_features))
            ref = np.stack([nncore.softmax(net.forward_logits(X[i:i + 1]))[0]
                            for i in range(len(X))])
            np.testing.assert_allclose(net.predict_proba(X), ref, rtol=0, atol=1e-12)

    def test_empty_input_scores_to_empty(self, tiny_model):
        net = tiny_model["tm"].net
        assert net.predict_proba(np.empty((0, net.n_features))).shape == (0, net.n_classes)
