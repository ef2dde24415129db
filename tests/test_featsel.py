"""Scaling, the tree ensemble, and recursive feature elimination.

The oracle for importance claims is exhaustive single-feature split
enumeration; it is defined before any test that leans on it.  The per-feature
float split search is kept as the bitwise oracle for the vectorised one.
"""

import hashlib
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from flowsentry import cli, featsel, flowdata, synth
from flowsentry.errors import EmptyDatasetError, FlowSentryError, ParameterError, SchemaError
import support


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


def best_split_one_feature(X, y_onehot, sample_idx, feature, min_leaf):
    """(decrease, threshold) for one feature from per-class float running
    sums, or None: the bitwise oracle for featsel._best_split."""
    x = X[sample_idx, feature]
    order = np.argsort(x, kind="stable")
    xs = x[order]
    if xs[0] == xs[-1]:
        return None
    counts = y_onehot[sample_idx][order]
    n = len(xs)
    cum = np.cumsum(counts, axis=0)
    total = cum[-1]
    left = cum[:-1]
    right = total - left
    n_left = np.arange(1, n, dtype=np.float64)
    n_right = n - n_left
    valid = (xs[1:] != xs[:-1]) & (n_left >= min_leaf) & (n_right >= min_leaf)
    if not valid.any():
        return None
    gini_parent = 1.0 - ((total / n) ** 2).sum()
    gini_left = 1.0 - (left * left).sum(axis=1) / (n_left * n_left)
    gini_right = 1.0 - (right * right).sum(axis=1) / (n_right * n_right)
    weighted = (n_left * gini_left + n_right * gini_right) / n
    decrease = np.where(valid, gini_parent - weighted, -np.inf)
    best = int(np.argmax(decrease))
    threshold = (xs[best] + xs[best + 1]) / 2.0
    return float(decrease[best]), threshold


def best_split_oracle(X, y, sample_idx, features, min_leaf, n_classes):
    """One feature at a time; a later feature wins only on a strictly larger
    decrease.  The winner's threshold becomes the rows at or below it and the
    rows above it, as (decrease, feature, left rows, right rows)."""
    y_onehot = np.eye(n_classes)[y]
    best = None
    for f in features:
        found = best_split_one_feature(X, y_onehot, sample_idx, f, min_leaf)
        if found is not None and (best is None or found[0] > best[0]):
            best = (found[0], int(f), found[1])
    if best is None:
        return None
    decrease, feature, threshold = best
    below = X[sample_idx, feature] <= threshold
    return decrease, feature, sample_idx[below], sample_idx[~below]


def best_split(X, y, sample_idx, features, min_leaf, n_classes):
    """featsel._best_split as the forest calls it: ranks and narrow labels of
    the whole X, class counts of the node."""
    y = np.asarray(y)
    total = np.bincount(y[sample_idx], minlength=n_classes)
    return featsel._best_split(featsel._dense_ranks(X),
                               y.astype(np.min_scalar_type(n_classes - 1)),
                               sample_idx, features, min_leaf, total)


def oracle_splitter(X):
    """best_split_oracle on X behind featsel._best_split's signature."""
    def split(R, y, sample_idx, features, min_leaf, total):
        return best_split_oracle(X, y, sample_idx, features, min_leaf, len(total))
    return split


def assert_same_split(got, want):
    """Same decrease bits, same feature, and the same rows on each side (as
    multisets: bootstrap rows repeat, and the order within a side is free)."""
    assert (got is None) == (want is None), (got, want)
    if want is not None:
        assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes(), (got, want)
        assert got[1] == want[1], (got, want)
        for side_got, side_want in zip(got[2:], want[2:]):
            assert np.sort(side_got).tolist() == np.sort(side_want).tolist(), (got, want)


def tie_heavy_matrix(rng, n, n_features):
    """Continuous, coarsely rounded, two-valued and constant columns, plus
    duplicated rows."""
    X = rng.normal(size=(n, n_features))
    X[:, 1::4] = np.round(X[:, 1::4])
    X[:, 2::4] = X[:, 2::4] > 0.5
    X[:, 3::4] = 0.25
    X[n // 2:] = X[: n - n // 2]
    return X


def _dataset(matrix, columns=None, labels=None):
    matrix = np.asarray(matrix, dtype=np.float64)
    columns = tuple(columns or (f"c{j}" for j in range(matrix.shape[1])))
    labels = np.zeros(len(matrix), dtype=np.int64) if labels is None else np.asarray(labels)
    return flowdata.Dataset(
        columns=columns,
        matrix=matrix,
        labels=labels,
        class_names=("Benign", "DoS"),
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
        with pytest.raises(ParameterError, match="NaN"):
            featsel.train_random_forest(np.where(np.eye(4, 2) > 0, np.nan, X), y)
        with pytest.raises(ParameterError, match="labels"):
            featsel.train_random_forest(X, y - 1)

    @pytest.mark.parametrize("case", ["inf-tail", "adjacent-floats", "exp"])
    def test_importances_depend_only_on_each_column_order(self, case):
        """Column 0 in two spellings with the same order gives bitwise the
        same importances.  A midpoint threshold would not cut where the ranks
        do in the first two: no finite midpoint lies below +inf, and the
        midpoint of two adjacent floats can round up to the larger."""
        rng = np.random.default_rng(11)
        n = 240
        X = rng.normal(size=(n, 5))
        x = X[:, 0]
        y = (x + 0.3 * rng.normal(size=n) > 1.0) + 2 * (X[:, 1] > 0)
        if case == "inf-tail":
            a, b = np.where(x > 1.0, np.inf, x), np.where(x > 1.0, 1e300, x)
        elif case == "adjacent-floats":
            low = np.nextafter(1.0, 2.0)
            high = np.nextafter(low, 2.0)
            assert (low + high) / 2.0 == high
            a, b = np.where(x > 1.0, high, low), (x > 1.0).astype(np.float64)
        else:
            a, b = np.exp(x), x
        assert ((a[:, None] < a) == (b[:, None] < b)).all()
        kw = dict(n_trees=10, seed=4)
        got = [featsel.train_random_forest(np.column_stack([col, X[:, 1:]]), y, **kw)
               for col in (a, b)]
        assert got[0].tobytes() == got[1].tobytes()
        assert got[0][0] > 0


class TestSplitSearch:
    @pytest.mark.parametrize("seed", range(8))
    def test_bitwise_equals_per_feature_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n_classes = int(rng.integers(2, 8))
        X = tie_heavy_matrix(rng, 120, 12)
        y = rng.integers(0, n_classes, size=120)
        for _ in range(40):
            n = int(rng.integers(2, 120))
            idx = rng.integers(0, 120, size=n)             # bootstrap duplicates
            features = np.sort(rng.permutation(12)[: int(rng.integers(1, 13))])
            min_leaf = int(rng.choice([1, 2, 3, max(1, n // 2), n // 2 + 1]))
            assert_same_split(
                best_split(X, y, idx, features, min_leaf, n_classes),
                best_split_oracle(X, y, idx, features, min_leaf, n_classes))

    def test_min_leaf_at_the_edge(self):
        X = np.arange(8, dtype=np.float64)[:, None]
        y = np.array([0, 0, 1, 1, 0, 1, 0, 1])
        idx = np.arange(8)
        for min_leaf in (1, 2, 3, 4, 5):
            got = best_split(X, y, idx, np.array([0]), min_leaf, 2)
            assert_same_split(got, best_split_oracle(X, y, idx, np.array([0]), min_leaf, 2))
            assert (got is None) == (min_leaf == 5)
        _, _, left, right = best_split(X, y, idx, np.array([0]), 4, 2)
        assert np.sort(left).tolist() == [0, 1, 2, 3]
        assert np.sort(right).tolist() == [4, 5, 6, 7]

    def test_single_class_and_no_valid_cut(self):
        rng = np.random.default_rng(3)
        X = tie_heavy_matrix(rng, 30, 8)
        idx = np.arange(30)
        features = np.arange(8)
        one_class = np.zeros(30, dtype=np.int64)
        got = best_split(X, one_class, idx, features, 2, 3)
        assert_same_split(got, best_split_oracle(X, one_class, idx, features, 2, 3))
        assert got[0] == 0.0
        y = rng.integers(0, 3, size=30)
        constant = np.array([3, 7])
        assert best_split(X, y, idx, constant, 1, 3) is None
        assert best_split_oracle(X, y, idx, constant, 1, 3) is None
        same_row = np.full(10, 4)
        assert best_split(X, y, same_row, features, 1, 3) is None

    def test_forest_bitwise_equals_forest_on_oracle_splits(self, monkeypatch):
        rng = np.random.default_rng(21)
        X = tie_heavy_matrix(rng, 200, 13)
        y = rng.integers(0, 5, size=200)
        fast = featsel.train_random_forest(X, y, n_trees=6, seed=2)
        monkeypatch.setattr(featsel, "_best_split", oracle_splitter(X))
        oracle = featsel.train_random_forest(X, y, n_trees=6, seed=2)
        assert fast.tobytes() == oracle.tobytes()
        assert fast.sum() > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_signed_zeros_and_duplicate_heavy_columns(self, seed):
        rng = np.random.default_rng(40 + seed)
        n = 150
        X = np.empty((n, 6))
        X[:, 0] = rng.choice([-0.0, 0.0], size=n)
        X[:, 1] = rng.choice([-0.0, 0.0, 1.0, -1.0], size=n)
        X[:, 2] = rng.choice([-0.0, 0.0, 2.5], size=n, p=[0.45, 0.45, 0.1])
        X[:, 3] = rng.integers(0, 3, size=n)
        X[:, 4] = np.where(rng.random(n) < 0.9, 7.0, rng.normal(size=n))
        X[:, 5] = rng.normal(size=n)
        y = rng.integers(0, 3, size=n)
        for _ in range(30):
            m = int(rng.integers(2, n))
            idx = rng.integers(0, n, size=m)
            features = np.sort(rng.permutation(6)[: int(rng.integers(1, 7))])
            min_leaf = int(rng.choice([1, 2, 5]))
            assert_same_split(best_split(X, y, idx, features, min_leaf, 3),
                              best_split_oracle(X, y, idx, features, min_leaf, 3))
        # the signed zeros share one rank, so no cut falls between them
        assert len(np.unique(featsel._dense_ranks(X)[0])) == 1

    def test_more_than_65536_distinct_values_take_wide_ranks(self):
        rng = np.random.default_rng(8)
        n = 70_000
        X = np.column_stack([rng.permutation(n) * 0.5, np.round(rng.normal(size=n), 1)])
        y = rng.integers(0, 4, size=n)
        R = featsel._dense_ranks(X)
        assert R.dtype == np.uint32
        assert int(R[0].max()) == n - 1
        for min_leaf in (1, 3):
            idx = rng.integers(0, n, size=400)
            assert_same_split(best_split(X, y, idx, np.array([0, 1]), min_leaf, 4),
                              best_split_oracle(X, y, idx, np.array([0, 1]), min_leaf, 4))

    def test_ranks_take_the_narrowest_dtype(self):
        assert featsel._dense_ranks(np.zeros((5, 2))).dtype == np.uint8
        X = np.arange(300, dtype=np.float64)[:, None]
        assert featsel._dense_ranks(X).dtype == np.uint16

    @pytest.mark.parametrize("min_leaf", [1, 2, 5])
    def test_forest_at_build_shape_bitwise_equals_oracle(self, prepared, monkeypatch,
                                                         min_leaf):
        """The fixture corpus at its 31 features, as RFE's first round sees it."""
        ds, _ = prepared
        assert ds.n_features == 31
        kw = dict(n_trees=3, min_leaf=min_leaf, seed=3)
        fast = featsel.train_random_forest(ds.matrix, ds.labels, **kw)
        monkeypatch.setattr(featsel, "_best_split", oracle_splitter(ds.matrix))
        oracle = featsel.train_random_forest(ds.matrix, ds.labels, **kw)
        assert fast.tobytes() == oracle.tobytes()
        assert fast.sum() > 0


# ---------------------------------------------------------------------------
# RFE


class TestRfe:
    def test_partition_invariant(self):
        X, y, _ = support.informative_noise(150, n_informative=3, n_noise=5, seed=0)
        ranking = featsel.rfe(X, y, target_k=4, n_trees=8, seed=0)
        assert len(ranking.selected) == 4
        assert sorted(ranking.selected + ranking.eliminated) == sorted(
            f"f{j}" for j in range(8))
        assert set(ranking.selected).isdisjoint(ranking.eliminated)

    def test_recovers_informative_features(self):
        X, y, informative = support.informative_noise(
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
        X, y, _ = support.informative_noise(100, n_informative=2, n_noise=5, seed=3)
        ranking = featsel.rfe(X, y, target_k=4, step=3, n_trees=5, seed=0)
        assert len(ranking.selected) == 4

    def test_target_k_zero_rejected(self):
        X = np.zeros((10, 3))
        y = np.zeros(10, dtype=np.int64)
        with pytest.raises(ParameterError):
            featsel.rfe(X, y, target_k=0)

    def test_report_lines_sorted_descending(self):
        X, y, _ = support.informative_noise(120, n_informative=2, n_noise=4, seed=5)
        ranking = featsel.rfe(X, y, target_k=3, n_trees=6, seed=1)
        lines = ranking.report().splitlines()
        assert len(lines) == 3
        ranks = [int(line.split()[0]) for line in lines]
        values = [float(line.split()[-1]) for line in lines]
        assert ranks == [1, 2, 3]
        assert values == sorted(values, reverse=True)

    def test_max_features_above_target_k_rejected_before_any_forest(self, monkeypatch):
        X, y, _ = support.informative_noise(60, n_informative=3, n_noise=28, seed=1)
        calls = []
        fit = featsel.train_random_forest

        def counted(*args, **kwargs):
            calls.append(1)
            return fit(*args, **kwargs)

        monkeypatch.setattr(featsel, "train_random_forest", counted)
        with pytest.raises(ParameterError, match=r"^max_features 25 outside 1\.\.22$"):
            featsel.rfe(X, y, target_k=22, step=2, max_features=25, n_trees=2)
        assert calls == []
        featsel.rfe(X, y, target_k=22, step=2, max_features=22, n_trees=2)
        assert len(calls) == 6

    def test_deterministic_under_seed(self):
        X, y, _ = support.informative_noise(100, n_informative=3, n_noise=6, seed=2)
        a = featsel.rfe(X, y, target_k=4, n_trees=6, seed=9)
        b = featsel.rfe(X, y, target_k=4, n_trees=6, seed=9)
        assert a.selected == b.selected and a.eliminated == b.eliminated


# ---------------------------------------------------------------------------
# one usable CPU or two: the same bits


@pytest.fixture
def placement(monkeypatch):
    """A spy on os.fork, and a function that makes one or two CPUs usable;
    returns that function and the list of forks."""
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)

    def use(cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))

    return use, forks


def _on_one_and_two_cpus(use, forks, fit):
    """fit() with one usable CPU, which never forks, then with two."""
    use(1)
    one = fit()
    assert forks == []
    use(2)
    return one, fit()


def _placement_case(case):
    """(X, y) of a forest input: tie-heavy columns, ±inf tails, signed zeros
    among duplicates, or more than 65,536 distinct values (wide ranks)."""
    rng = np.random.default_rng(60)
    if case == "tie-heavy":
        return tie_heavy_matrix(rng, 200, 13), rng.integers(0, 5, size=200)
    if case == "inf":
        X = rng.normal(size=(200, 6))
        y = (X[:, 0] > 1.0) + 2 * (X[:, 1] < -0.5)
        X[:, 0] = np.where(X[:, 0] > 1.0, np.inf, X[:, 0])
        X[:, 1] = np.where(X[:, 1] < -0.5, -np.inf, X[:, 1])
        X[::7, 2] = np.inf
        return X, y
    if case == "signed-zero":
        X = np.empty((150, 4))
        X[:, 0] = rng.choice([-0.0, 0.0], size=150)
        X[:, 1] = rng.choice([-0.0, 0.0, 1.0, -1.0], size=150)
        X[:, 2] = rng.choice([-0.0, 0.0, 2.5], size=150, p=[0.45, 0.45, 0.1])
        X[:, 3] = np.where(rng.random(150) < 0.9, 7.0, rng.normal(size=150))
        return X, rng.integers(0, 3, size=150)
    n = 70_000
    X = np.column_stack([rng.permutation(n) * 0.5, np.round(rng.normal(size=n), 1)])
    return X, (X[:, 0] > n / 4) + (X[:, 1] > 0.3)


def _trees(n_rows, size):
    """A tree count that puts an n_rows forest just above or just below the
    size at which it grows trees in a child."""
    if size == "above":
        return max(2, math.ceil(featsel.CHILD_FOREST_SIZE / n_rows))
    return (featsel.CHILD_FOREST_SIZE - 1) // n_rows


class TestPlacement:
    @pytest.mark.parametrize("case, size", [
        (case, size) for case in ("tie-heavy", "inf", "signed-zero", "wide-rank")
        for size in ("above", "below") if (case, size) != ("wide-rank", "below")])
    def test_forest_bits_do_not_depend_on_the_cpus(self, placement, case, size):
        use, forks = placement
        X, y = _placement_case(case)
        n_trees = _trees(len(X), size)
        kw = dict(n_trees=n_trees, max_depth=6 if case == "wide-rank" else 12, seed=5)
        one, two = _on_one_and_two_cpus(
            use, forks, lambda: featsel.train_random_forest(X, y, **kw))
        assert one.tobytes() == two.tobytes()
        assert one.sum() > 0
        assert len(forks) == (1 if size == "above" else 0)

    @pytest.mark.parametrize("case", ["tie-heavy", "inf", "signed-zero"])
    def test_rfe_bits_do_not_depend_on_the_cpus(self, placement, case):
        use, forks = placement
        X, y = _placement_case(case)
        k = X.shape[1] // 2
        n_trees = _trees(len(X), "above")

        def ranking():
            r = featsel.rfe(X, y, target_k=k, step=1, n_trees=n_trees, seed=3)
            return r.selected, r.eliminated, r.selected_importances.tobytes()

        one, two = _on_one_and_two_cpus(use, forks, ranking)
        assert one == two
        assert len(forks) == X.shape[1] - k + 1      # one per forest

    def test_one_tree_never_forks(self, placement):
        use, forks = placement
        use(2)
        X, y = _placement_case("wide-rank")
        featsel.train_random_forest(X, y, n_trees=1, max_depth=4)
        assert forks == []


class TestForestChild:
    """Whatever happens to the child or around it, the call fails or
    succeeds as it would on one CPU, and the child is reaped (the autouse
    no_child_outlives_a_test checks that, too)."""

    @pytest.fixture
    def forest(self, placement):
        """Two usable CPUs and a forest above the size: fit() and its input."""
        use, forks = placement
        use(2)
        X, y = _placement_case("tie-heavy")
        n_trees = _trees(len(X), "above")
        return lambda: featsel.train_random_forest(X, y, n_trees=n_trees, seed=2), forks

    @staticmethod
    def _fail_in(monkeypatch, where, error):
        """_best_split raising `error` in the child's trees or in this process's."""
        parent, real = os.getpid(), featsel._best_split

        def split(*args):
            if (os.getpid() == parent) == (where == "parent"):
                raise error
            return real(*args)

        monkeypatch.setattr(featsel, "_best_split", split)

    def test_an_error_in_the_child_is_raised_here(self, forest, monkeypatch):
        fit, forks = forest
        self._fail_in(monkeypatch, "child", ParameterError("odd tree failed"))
        with pytest.raises(ParameterError, match=r"^odd tree failed$"):
            fit()
        assert len(forks) == 1

    def test_select_features_reports_the_childs_error(self, placement, tmp_path, capsys,
                                                       monkeypatch):
        use, forks = placement
        use(2)
        corpus = tmp_path / "corpus.csv"
        corpus.write_text(synth.flow_csv(200, profile="ids2017", seed=4,
                                         missing_fraction=0.0, separation=1.6),
                          encoding="utf-8")
        assert cli.main(["preprocess", "--data", str(corpus), "--out-dir",
                         str(tmp_path / "prep")]) == 0
        self._fail_in(monkeypatch, "child", SchemaError("odd tree failed"))
        capsys.readouterr()
        rc = cli.main(["select-features", "--data", str(tmp_path / "prep" / "prepared.csv"),
                       "--target-k", "22", "--trees", "10", "--out-dir", str(tmp_path / "sel")])
        assert rc == 1 and len(forks) == 1
        assert capsys.readouterr().err == "error: odd tree failed\n"

    def test_a_child_that_dies_is_an_error(self, forest, monkeypatch):
        fit, forks = forest
        parent, real = os.getpid(), featsel._tree_splits

        def dying(*args):
            if os.getpid() != parent:
                os._exit(3)
            return real(*args)

        monkeypatch.setattr(featsel, "_tree_splits", dying)
        with pytest.raises(FlowSentryError,
                           match=r"^the forest's tree process ended before its last tree$"):
            fit()
        assert len(forks) == 1

    def test_a_failed_fork_grows_every_tree_here(self, forest, placement, monkeypatch):
        fit, forks = forest
        use, _ = placement
        two = fit()
        refused = []

        def no_fork():
            refused.append(1)
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        fallback = fit()
        use(1)
        one = fit()
        assert len(forks) == 1 and refused == [1]
        assert fallback.tobytes() == two.tobytes() == one.tobytes()

    @pytest.mark.parametrize("error", [ParameterError("even tree failed"), KeyboardInterrupt()],
                             ids=["error", "interrupt"])
    def test_an_error_here_leaves_the_child_reaped(self, forest, monkeypatch, error):
        fit, forks = forest
        self._fail_in(monkeypatch, "parent", error)
        with pytest.raises(type(error)):
            fit()
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


# ---------------------------------------------------------------------------
# pinned forest output


_PINNED = {17: "d809a87cd905763a338cea80b4a3e6eefd7797c81bf50673130cb4e698554fcf",
           7: "c94a4e12a8ea985008c5a0a9ca5abbdf1c73c68a01f368e9e353d15985a5f724"}


@pytest.mark.parametrize("seed, digest, cpus", [
    pytest.param(seed, digest, cpus, id=f"{seed}-{digest}" + ("-one-cpu" if cpus == 1 else ""))
    for seed, digest in _PINNED.items() for cpus in (2, 1)])
def test_select_features_output_is_pinned(tmp_path, placement, seed, digest, cpus):
    """SHA-256 of selected_features.txt then feature_importance.txt from
    `select-features --target-k 22 --step 2` on the 800-row corpus that
    scripts/make_fixtures.py writes at this seed, with two usable CPUs (six
    forests, six forks) and with one.  Any rework of the forest (growing
    trees in lockstep, say) must keep these bytes."""
    use, forks = placement
    use(cpus)
    corpus = tmp_path / "corpus.csv"
    corpus.write_text(synth.flow_csv(800, profile="ids2017", seed=seed,
                                     missing_fraction=0.005, separation=1.6),
                      encoding="utf-8")
    assert cli.main(["preprocess", "--data", str(corpus), "--out-dir",
                     str(tmp_path / "prep")]) == 0
    assert cli.main(["select-features", "--data", str(tmp_path / "prep" / "prepared.csv"),
                     "--target-k", "22", "--step", "2", "--out-dir",
                     str(tmp_path / "sel")]) == 0
    out = b"".join((tmp_path / "sel" / name).read_bytes()
                   for name in ("selected_features.txt", "feature_importance.txt"))
    assert hashlib.sha256(out).hexdigest() == digest
    assert len(forks) == (6 if cpus == 2 else 0)
