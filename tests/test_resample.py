"""SMOTE, ENN, and the combined rebalancing pipeline.

Oracles come first: quadratic-time k-NN and segment membership, written
independently of the vectorized implementations they check.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsentry import flowdata, resample
from flowsentry.errors import InsufficientSamplesError, ParameterError
import support


def brute_knn(X, i, k):
    """Indices of the k nearest rows to row i (Euclidean, self excluded),
    distance ties broken toward the lower index."""
    d = [(float(np.sqrt(((X[j] - X[i]) ** 2).sum())), j)
         for j in range(len(X)) if j != i]
    d.sort()
    return [j for _, j in d[:k]]


def full_sq_dists(X):
    """The whole n x n matrix of squared distances, (aa + bb) - 2 * (X @ X.T)
    clamped at 0, from one full product."""
    sq = (X * X).sum(axis=1)
    d2 = X @ X.T
    np.subtract(sq[:, None] + sq, 2.0 * d2, out=d2)
    return np.maximum(d2, 0.0, out=d2)


def knn_full_argsort(X, k):
    """A stable argsort of every whole distance row, first k kept: the
    bitwise oracle for resample._knn_indices."""
    d2 = full_sq_dists(X)
    np.fill_diagonal(d2, np.inf)
    return np.argsort(d2, axis=1, kind="stable")[:, :k]


def on_some_neighbour_segment(X, i, k, row, atol=1e-9):
    """True when `row` lies coordinate-wise between X[i] and one of its
    brute-force k nearest neighbours."""
    for j in brute_knn(X, i, k):
        lo = np.minimum(X[i], X[j]) - atol
        hi = np.maximum(X[i], X[j]) + atol
        if np.all(row >= lo) and np.all(row <= hi):
            return True
    return False


def brute_enn_doomed(X, y, k, eligible):
    """Row indices a literal reading of the pruning rule would remove."""
    out = []
    for i in range(len(X)):
        if y[i] not in eligible:
            continue
        disagree = sum(1 for j in brute_knn(X, i, k) if y[j] != y[i])
        if disagree > k / 2:
            out.append(i)
    return out


class _FixedRng:
    """Stub driving smote: neighbour index then lambda, repeating."""

    def __init__(self, nbr, lam):
        self.nbr, self.lam = nbr, lam

    def integers(self, lo, hi):
        return self.nbr

    def uniform(self):
        return self.lam


def _dataset(X, y, class_names):
    return flowdata.Dataset(
        columns=tuple(f"c{j}" for j in range(X.shape[1])),
        matrix=np.asarray(X, dtype=np.float64),
        labels=np.asarray(y, dtype=np.int64),
        class_names=class_names,
    )


# ---------------------------------------------------------------------------
# neighbour search


def grid_points(n, dim, seed, span=3):
    """Integer coordinates: every distance is exact, with many equal ones and
    duplicated rows."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, span, size=(n, dim)).astype(np.float64)
    X[n // 3: n // 3 + 5] = X[0]
    return X


class TestKnn:
    @pytest.mark.parametrize("n,dim,k", [(40, 2, 3), (60, 1, 5), (50, 3, 1)])
    def test_ties_and_duplicates_match_brute_oracle(self, n, dim, k):
        X = grid_points(n, dim, seed=n + dim)
        got = resample._knn_indices(X, k)
        for i in range(n):
            assert got[i].tolist() == brute_knn(X, i, k), i

    def test_rows_across_a_block_boundary_match_brute_oracle(self):
        n = resample.ROW_BLOCK + 44
        X = grid_points(n, 2, seed=5, span=6)
        got = resample._knn_indices(X, 4)
        for i in list(range(8)) + list(range(resample.ROW_BLOCK - 8, n)):
            assert got[i].tolist() == brute_knn(X, i, 4), i

    def test_all_identical_rows_take_the_lowest_other_indices(self):
        X = np.ones((30, 3))
        got = resample._knn_indices(X, 5)
        for i in range(30):
            assert got[i].tolist() == [j for j in range(30) if j != i][:5], i
        assert np.array_equal(got, knn_full_argsort(X, 5))

    def test_k_of_n_minus_one_ranks_every_other_row(self):
        X = grid_points(25, 2, seed=3)
        got = resample._knn_indices(X, 24)
        for i in range(25):
            assert got[i].tolist() == brute_knn(X, i, 24), i

    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_ties_at_the_kth_distance_across_a_block_boundary(self, k):
        # four distinct points, so dozens of rows tie at every row's k-th
        # distance on both sides of the first block boundary
        n = resample.ROW_BLOCK + 60
        X = grid_points(n, 2, seed=11, span=2)
        got = resample._knn_indices(X, k)
        assert np.array_equal(got, knn_full_argsort(X, k))
        for i in range(resample.ROW_BLOCK - 6, resample.ROW_BLOCK + 6):
            assert got[i].tolist() == brute_knn(X, i, k), i

    def test_non_finite_distances_sort_last_as_in_a_full_sort(self):
        # 1e200 squared overflows, so some distances come out inf or NaN
        X = grid_points(40, 2, seed=4)
        X[[3, 17, 18]] = 1e200
        with np.errstate(invalid="ignore", over="ignore"):
            assert np.isnan(full_sq_dists(X)).any()
            for k in (1, 3, 39):
                assert np.array_equal(resample._knn_indices(X, k), knn_full_argsort(X, k))

    def test_memory_grows_linearly_in_the_row_count(self):
        # one n x n float64 matrix at n = 4,096 is 128 MB; a [ROW_BLOCK, n]
        # slab and its temporaries take a fraction of that
        X = np.random.default_rng(6).random((4096, 22))
        tracemalloc.start()
        try:
            resample._knn_indices(X, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20, peak

    def test_enn_on_tie_heavy_input_matches_brute_oracle(self):
        X = grid_points(45, 2, seed=9)
        y = (np.arange(45) % 3 == 0).astype(np.int64)
        retained = set(resample.enn(X, y, k=3, eligible_classes=[0, 1]).tolist())
        assert retained == set(range(45)) - set(brute_enn_doomed(X, y, 3, {0, 1}))


# ---------------------------------------------------------------------------
# smote


class TestSmote:
    def test_forced_midpoint(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        out = resample.smote(X, k=1, n_synthetic=1, rng=_FixedRng(0, 0.5))
        np.testing.assert_array_equal(out, [[0.5, 0.5]])

    def test_zero_synthetic_is_empty(self):
        X = np.array([[0.0], [1.0], [2.0]])
        out = resample.smote(X, k=2, n_synthetic=0, rng=np.random.default_rng(0))
        assert out.shape == (0, 1)

    def test_too_few_rows_rejected(self):
        X = np.array([[0.0], [1.0]])
        with pytest.raises(InsufficientSamplesError):
            resample.smote(X, k=2, n_synthetic=1, rng=np.random.default_rng(0))

    def test_every_row_on_a_neighbour_segment(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(40, 3))
        k = 5
        out = resample.smote(X, k=k, n_synthetic=100, rng=np.random.default_rng(9))
        for i, row in enumerate(out):
            assert on_some_neighbour_segment(X, i % len(X), k, row), i

    def test_round_robin_bases(self):
        # lambda forced to 0 makes each output equal its base row
        X = np.arange(12, dtype=np.float64).reshape(6, 2)
        out = resample.smote(X, k=2, n_synthetic=8, rng=_FixedRng(0, 0.0))
        np.testing.assert_array_equal(out[:6], X)
        np.testing.assert_array_equal(out[6:], X[:2])

    def test_deterministic_under_seed(self):
        X = np.random.default_rng(0).normal(size=(20, 4))
        a = resample.smote(X, k=3, n_synthetic=30, rng=np.random.default_rng(5))
        b = resample.smote(X, k=3, n_synthetic=30, rng=np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("n_rows, k, n_synthetic, duplicates", [
        (30, 5, 0, False),
        (300, 5, 170, False),
        (40, 5, 700, False),
        (2000, 5, 20_000, False),
        (60, 4, 333, True),
        (12, 11, 50, False),
        (9, 8, 300, True),
    ], ids=["none", "fewer-than-n", "round-robin", "benchmark-scale", "duplicates",
            "k-is-n-minus-1", "duplicates-k-is-n-minus-1"])
    def test_equals_the_row_loop(self, n_rows, k, n_synthetic, duplicates):
        """Bit for bit the rows of the one-row-at-a-time oracle, across
        ROW_BLOCK boundaries, with the generator left in the same state."""
        X = np.random.default_rng(n_rows).normal(size=(n_rows, 22))
        if duplicates:
            X[1::3] = X[::3][:len(X[1::3])]
        rng, oracle_rng = np.random.default_rng(41), np.random.default_rng(41)
        out = resample.smote(X, k=k, n_synthetic=n_synthetic, rng=rng)
        expected = support.smote_loop(X, k, n_synthetic, oracle_rng)
        assert out.tobytes() == expected.tobytes()
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    @settings(max_examples=40)
    @given(lam=st.floats(0, 1), nbr=st.integers(0, 2))
    def test_synthetic_rows_are_convex_combinations(self, lam, nbr):
        X = np.random.default_rng(1).normal(size=(8, 3))
        out = resample.smote(X, k=3, n_synthetic=8, rng=_FixedRng(nbr, lam))
        for i, row in enumerate(out):
            assert on_some_neighbour_segment(X, i, 3, row)


# ---------------------------------------------------------------------------
# enn


class TestEnn:
    def test_surrounded_majority_point_removed(self):
        X = np.array([[0.0], [0.1], [0.2], [0.15], [9.0], [9.1], [9.2]])
        y = np.array([1, 1, 1, 0, 0, 0, 0])
        retained = resample.enn(X, y, k=3, eligible_classes=[0])
        # row 3 sits inside the other class's cluster; the far trio is safe
        assert 3 not in retained
        assert set(retained.tolist()) == {0, 1, 2, 4, 5, 6}
        assert brute_enn_doomed(X, y, 3, {0}) == [3]

    def test_separated_clusters_keep_everything(self):
        X, y = support.blobs({0: 20, 1: 20}, {0: (0.0, 0.0), 1: (50.0, 50.0)},
                           spread=0.5, seed=2)
        retained = resample.enn(X, y, k=3, eligible_classes=[0, 1])
        assert len(retained) == 40
        assert brute_enn_doomed(X, y, 3, {0, 1}) == []

    def test_matches_brute_oracle_on_overlapping_blobs(self):
        X, y = support.blobs({0: 30, 1: 30}, {0: (0.0, 0.0), 1: (0.5, 0.5)},
                           spread=1.0, seed=7)
        retained = set(resample.enn(X, y, k=3, eligible_classes=[0, 1]).tolist())
        doomed = set(brute_enn_doomed(X, y, 3, {0, 1}))
        assert retained == set(range(60)) - doomed

    def test_protected_class_never_removed(self):
        X, y = support.blobs({0: 30, 1: 5}, {0: (0.0, 0.0), 1: (0.2, 0.2)},
                           spread=1.0, seed=3)
        retained = resample.enn(X, y, k=3, eligible_classes=[0])
        assert set(np.flatnonzero(y == 1)).issubset(set(retained.tolist()))

    def test_decisions_computed_before_any_removal(self):
        # a chain where removing one point during the scan would change the
        # verdict on the next; batch semantics remove both
        X = np.array([[0.0], [1.0], [1.1], [1.2], [3.0], [3.1], [3.2]])
        y = np.array([0, 1, 1, 1, 0, 0, 0])
        retained = resample.enn(X, y, k=3, eligible_classes=[0, 1])
        doomed = set(brute_enn_doomed(X, y, 3, {0, 1}))
        assert set(retained.tolist()) == set(range(7)) - doomed

    def test_k_at_least_row_count_rejected(self):
        X = np.zeros((3, 1))
        y = np.array([0, 0, 1])
        with pytest.raises(ParameterError):
            resample.enn(X, y, k=3, eligible_classes=[0, 1])


# ---------------------------------------------------------------------------
# pipeline


class TestPipeline:
    def test_auto_target_equalizes_before_pruning(self):
        X, y = support.blobs({0: 90, 1: 10}, {0: (0.0, 0.0), 1: (30.0, 30.0)},
                           spread=0.5, seed=0)
        ds = _dataset(X, y, ("Benign", "DoS"))
        out, report = resample.resample_pipeline(
            ds, resample.ResampleConfig(smote_k=3, seed=0))
        # DoS is no majority class, so ENN keeps its post-SMOTE count
        assert report.before.tolist() == [90, 10] and out.class_counts()[1] == 90
        ratio_before = 9.0
        counts = out.class_counts()
        assert counts[counts > 0].max() / counts[counts > 0].min() <= ratio_before

    def test_balanced_input_gets_no_synthetic_rows(self):
        X, y = support.blobs({0: 25, 1: 25}, {0: (0.0, 0.0), 1: (30.0, 30.0)},
                           spread=0.5, seed=1)
        ds = _dataset(X, y, ("Benign", "DoS"))
        out, report = resample.resample_pipeline(ds)
        # neither class is a majority class, so ENN prunes no row
        np.testing.assert_array_equal(out.class_counts(), report.before)
        np.testing.assert_array_equal(out.matrix, ds.matrix)

    def test_synthetic_labels_follow_base_class(self):
        X, y = support.blobs({0: 60, 1: 12}, {0: (0.0, 0.0), 1: (40.0, 0.0)},
                           spread=0.5, seed=5)
        ds = _dataset(X, y, ("Benign", "DoS"))
        out, _ = resample.resample_pipeline(
            ds, resample.ResampleConfig(smote_k=3, seed=1))
        # synthetic minority rows must sit inside the minority cluster
        minority = out.matrix[out.labels == 1]
        assert np.all(np.abs(minority[:, 0] - 40.0) < 10.0)

    def test_single_class_rejected(self):
        X = np.zeros((10, 2))
        y = np.zeros(10, dtype=np.int64)
        ds = _dataset(X, y, ("Benign", "DoS"))
        with pytest.raises(ParameterError):
            resample.resample_pipeline(ds)

    def test_deterministic_under_seed(self):
        X, y = support.blobs({0: 50, 1: 15, 2: 8},
                           {0: (0, 0), 1: (10, 0), 2: (0, 10)}, seed=8)
        ds = _dataset(X, y, ("Benign", "DoS", "DDoS"))
        cfg = resample.ResampleConfig(smote_k=3, seed=4)
        a, _ = resample.resample_pipeline(ds, cfg)
        b, _ = resample.resample_pipeline(ds, cfg)
        np.testing.assert_array_equal(a.matrix, b.matrix)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_majority_designation_uses_present_class_share(self, monkeypatch):
        # three classes present: eligible iff share > 1/3
        X, y = support.blobs({0: 60, 1: 30, 2: 10},
                           {0: (0, 0), 1: (1, 1), 2: (2, 2)}, spread=2.0, seed=6)
        ds = _dataset(X, y, ("Benign", "DoS", "DDoS"))
        eligible, enn = [], resample.enn

        def spy(X, y, k, eligible_classes):
            eligible.append(list(eligible_classes))
            return enn(X, y, k, eligible_classes)

        monkeypatch.setattr(resample, "enn", spy)
        resample.resample_pipeline(ds, resample.ResampleConfig(smote_k=3, seed=0))
        assert eligible == [[0]]

    @settings(max_examples=25, deadline=None)
    @given(
        n0=st.integers(8, 40), n1=st.integers(8, 40), n2=st.integers(8, 40),
        seed=st.integers(0, 5),
    )
    def test_imbalance_ratio_never_increases(self, n0, n1, n2, seed):
        X, y = support.blobs({0: n0, 1: n1, 2: n2},
                           {0: (0, 0), 1: (2, 2), 2: (4, 0)}, spread=1.5, seed=seed)
        ds = _dataset(X, y, ("A", "B", "C"))
        before = ds.class_counts()
        ratio_before = before[before > 0].max() / before[before > 0].min()
        out, _ = resample.resample_pipeline(
            ds, resample.ResampleConfig(smote_k=3, seed=seed))
        after = out.class_counts()
        ratio_after = after[after > 0].max() / after[after > 0].min()
        assert ratio_after <= ratio_before + 1e-12


# ---------------------------------------------------------------------------
# report


def test_report_renders_percentage_table():
    X, y = support.blobs({0: 90, 1: 10}, {0: (0.0, 0.0), 1: (30.0, 30.0)},
                       spread=0.5, seed=0)
    ds = _dataset(X, y, ("Benign", "DoS"))
    _, report = resample.resample_pipeline(
        ds, resample.ResampleConfig(smote_k=3, seed=0))
    text = report.render()
    lines = text.splitlines()
    assert lines[0].split() == ["Class", "Before", "(%)", "After", "(%)"]
    assert lines[1].startswith("Benign") and lines[2].startswith("DoS")
    # before-percentages reflect the 90/10 input
    assert "90.0" in lines[1] and "10.0" in lines[2]
