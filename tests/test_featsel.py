"""Scaling, the tree ensemble, and recursive feature elimination.

The oracle for importance claims is exhaustive single-feature split
enumeration; it is defined before any test that leans on it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from flowsentry import featsel, flowdata, synth
from flowsentry.errors import EmptyDatasetError, ParameterError, SchemaError


def perfectly_separating_features(X, y):
    """Brute force: all features with some threshold splitting X into pure halves.

    Enumerates every midpoint between consecutive distinct sorted values of
    every feature; a feature qualifies when one of its thresholds yields two
    label-pure sides.
    """
    out = []
    for j in range(X.shape[1]):
        xs = np.sort(np.unique(X[:, j]))
        for a, b in zip(xs[:-1], xs[1:]):
            t = (a + b) / 2.0
            left, right = y[X[:, j] <= t], y[X[:, j] > t]
            if len(set(left.tolist())) == 1 and len(set(right.tolist())) == 1:
                out.append(j)
                break
    return out


def _dataset(matrix, columns=None, labels=None):
    matrix = np.asarray(matrix, dtype=np.float64)
    columns = tuple(columns or (f"c{j}" for j in range(matrix.shape[1])))
    labels = np.zeros(len(matrix), dtype=np.int64) if labels is None else np.asarray(labels)
    return flowdata.Dataset(
        columns=columns,
        matrix=matrix,
        labels=labels,
        class_names=("Benign", "DoS"),
        profile="custom",
    )


# ---------------------------------------------------------------------------
# scaler


class TestScaler:
    def test_fit_records_extremes(self):
        sc = featsel.fit_minmax(_dataset([[0.0], [5.0], [10.0]]))
        assert sc.mins[0] == 0.0 and sc.maxs[0] == 10.0

    def test_0_5_10_scales_exactly(self):
        ds = _dataset([[0.0], [5.0], [10.0]])
        sc = featsel.fit_minmax(ds)
        out = featsel.scale_matrix(ds.matrix, sc)
        np.testing.assert_array_equal(out[:, 0], [0.0, 0.5, 1.0])

    def test_constant_column_maps_to_zero(self):
        ds = _dataset([[7.0], [7.0], [7.0]])
        sc = featsel.fit_minmax(ds)
        assert sc.mins[0] == sc.maxs[0] == 7.0
        np.testing.assert_array_equal(featsel.scale_matrix(ds.matrix, sc)[:, 0], [0, 0, 0])

    def test_columns_fit_independently(self):
        sc = featsel.fit_minmax(_dataset([[0.0, 100.0], [10.0, 300.0]]))
        np.testing.assert_array_equal(sc.mins, [0.0, 100.0])
        np.testing.assert_array_equal(sc.maxs, [10.0, 300.0])

    def test_out_of_range_clips(self):
        ds = _dataset([[0.0], [10.0]])
        sc = featsel.fit_minmax(ds)
        out = featsel.scale_matrix(np.array([[12.0], [-3.0]]), sc)
        np.testing.assert_array_equal(out[:, 0], [1.0, 0.0])

    def test_apply_requires_matching_columns(self):
        sc = featsel.fit_minmax(_dataset([[1.0]], columns=["a"]))
        with pytest.raises(SchemaError):
            featsel.apply_minmax(_dataset([[1.0]], columns=["b"]), sc)

    def test_empty_fit_rejected(self):
        with pytest.raises((EmptyDatasetError, Exception)):
            featsel.fit_minmax(_dataset(np.empty((0, 1))))

    def test_scaler_validates_max_ge_min(self):
        with pytest.raises(ParameterError):
            featsel.ScalerParams(("a",), np.array([1.0]), np.array([0.0]))

    @settings(max_examples=60)
    @given(
        train=hnp.arrays(np.float64, (5, 3), elements=st.floats(-1e9, 1e9)),
        test=hnp.arrays(np.float64, (4, 3), elements=st.floats(-1e9, 1e9)),
    )
    def test_scaled_values_always_in_unit_interval(self, train, test):
        sc = featsel.fit_minmax(_dataset(train))
        for m in (train, test):
            out = featsel.scale_matrix(m, sc)
            assert np.all(out >= 0.0) and np.all(out <= 1.0)


# ---------------------------------------------------------------------------
# random forest


class TestForest:
    def test_single_class_grows_single_leaves_with_zero_importance(self):
        X = np.random.default_rng(0).normal(size=(30, 4))
        y = np.zeros(30, dtype=np.int64)
        importances = featsel.train_random_forest(X, y, n_trees=5, seed=1)
        np.testing.assert_array_equal(importances, np.zeros(4))

    def test_separating_feature_dominates_importance(self):
        # feature 0 alone separates the classes; 9 noise features
        rng = np.random.default_rng(7)
        n = 200
        y = np.array([0] * (n // 2) + [1] * (n // 2), dtype=np.int64)
        X = rng.normal(0.0, 1.0, size=(n, 10))
        X[:, 0] = np.where(y == 0, rng.uniform(0, 1, n), rng.uniform(2, 3, n))
        assert perfectly_separating_features(X, y) == [0]
        importances = featsel.train_random_forest(X, y, n_trees=20, seed=0)
        assert importances[0] >= 0.9

    def test_same_seed_reproduces_everything(self):
        X = np.random.default_rng(5).normal(size=(60, 6))
        y = (X[:, 2] > 0).astype(np.int64)
        a = featsel.train_random_forest(X, y, n_trees=8, seed=3)
        b = featsel.train_random_forest(X, y, n_trees=8, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        X = np.random.default_rng(5).normal(size=(60, 6))
        y = (X[:, 2] > 0).astype(np.int64)
        a = featsel.train_random_forest(X, y, n_trees=8, seed=3)
        b = featsel.train_random_forest(X, y, n_trees=8, seed=4)
        assert not np.array_equal(a, b)

    def test_importances_normalized(self):
        X = np.random.default_rng(2).normal(size=(80, 5))
        y = (X[:, 1] + 0.2 * X[:, 3] > 0).astype(np.int64)
        importances = featsel.train_random_forest(X, y, n_trees=10, seed=0)
        assert abs(importances.sum() - 1.0) < 1e-9
        assert np.all(importances >= 0)

    def test_parameter_validation(self):
        X = np.zeros((4, 2))
        y = np.zeros(4, dtype=np.int64)
        with pytest.raises(ParameterError):
            featsel.train_random_forest(X, y, n_trees=0)
        with pytest.raises(ParameterError):
            featsel.train_random_forest(X, y, max_depth=0)
        with pytest.raises(ParameterError):
            featsel.train_random_forest(X, y, max_features=3)
        with pytest.raises(ParameterError):
            featsel.train_random_forest(X[:1], y[:1])


# ---------------------------------------------------------------------------
# RFE


class TestRfe:
    def test_partition_invariant(self):
        X, y, _ = synth.informative_noise(150, n_informative=3, n_noise=5, seed=0)
        ranking = featsel.rfe(X, y, target_k=4, n_trees=8, seed=0)
        assert len(ranking.selected) == 4
        assert sorted(ranking.selected + ranking.eliminated) == sorted(
            f"f{j}" for j in range(8))
        assert set(ranking.selected).isdisjoint(ranking.eliminated)

    def test_recovers_informative_features(self):
        X, y, informative = synth.informative_noise(
            400, n_informative=5, n_noise=15, seed=12)
        ranking = featsel.rfe(X, y, target_k=5, n_trees=20, seed=0)
        hits = len({f"f{j}" for j in informative} & set(ranking.selected))
        assert hits >= 4

    def test_zero_importance_ties_drop_highest_original_index_first(self):
        # one class: every importance is zero, so ties decide everything
        X = np.random.default_rng(0).normal(size=(40, 5))
        y = np.zeros(40, dtype=np.int64)
        ranking = featsel.rfe(X, y, target_k=2, step=1, n_trees=3, seed=0)
        assert ranking.eliminated == ["f4", "f3", "f2"]
        assert ranking.selected == ["f0", "f1"]

    def test_step_never_overshoots_target(self):
        X, y, _ = synth.informative_noise(100, n_informative=2, n_noise=5, seed=3)
        ranking = featsel.rfe(X, y, target_k=4, step=3, n_trees=5, seed=0)
        assert len(ranking.selected) == 4

    def test_target_k_zero_rejected(self):
        X = np.zeros((10, 3))
        y = np.zeros(10, dtype=np.int64)
        with pytest.raises(ParameterError):
            featsel.rfe(X, y, target_k=0)

    def test_report_lines_sorted_descending(self):
        X, y, _ = synth.informative_noise(120, n_informative=2, n_noise=4, seed=5)
        ranking = featsel.rfe(X, y, target_k=3, n_trees=6, seed=1)
        lines = ranking.report().splitlines()
        assert len(lines) == 3
        ranks = [int(line.split()[0]) for line in lines]
        values = [float(line.split()[-1]) for line in lines]
        assert ranks == [1, 2, 3]
        assert values == sorted(values, reverse=True)

    def test_deterministic_under_seed(self):
        X, y, _ = synth.informative_noise(100, n_informative=3, n_noise=6, seed=2)
        a = featsel.rfe(X, y, target_k=4, n_trees=6, seed=9)
        b = featsel.rfe(X, y, target_k=4, n_trees=6, seed=9)
        assert a.selected == b.selected and a.eliminated == b.eliminated
