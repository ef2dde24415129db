"""Feature scaling and recursive feature elimination over a bagged tree ensemble.

The importance signal comes from an in-package random forest so that ranking,
tie handling, and seeding are fully pinned down: bootstrap resampling per
tree, Gini impurity decrease, a random feature subset at every split.  Each
forest ranks every column's values once, and its trees split on those small
integer ranks alone: no float matrix reaches the tree code and no threshold is
formed, so ±inf ranks like any other value.  Each tree draws from its own
generator, so a large forest grows its odd-numbered trees in a forked child
while this process grows the even ones; the importances are summed in tree
order either way, so every bit is the same on one CPU and on two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import EmptyDatasetError, ParameterError, SchemaError
from .flowdata import Dataset, items_from_child

# A forest of at least this many rows x trees grows its odd-numbered trees in
# a forked child while this process grows the even ones, when more than one
# CPU is usable.  Medians of 15 alternated `train_random_forest` calls on
# rows of a cleaned 31-feature synthetic ids2017 corpus, one BLAS thread, on
# a 2-vCPU VM (one CPU -> two): 30 rows x 6 trees 4.6 -> 7.3 ms, 100 x 6
# 11.7 -> 10.0 ms, 200 x 6 18.4 -> 14.7 ms, 100 x 12 22.8 -> 16.9 ms,
# 400 x 6 26.7 -> 20.6 ms; medians of 7, 200 x 50 111 -> 66 ms, 800 x 50
# 347 -> 191 ms.  The break-even is near 600; fork and pipe cost about 3 ms.
CHILD_FOREST_SIZE = 1200


@dataclass(frozen=True)
class ScalerParams:
    """Per-column minima and maxima.  `divisor` (each span, 1 for a constant
    column) and `constant` (the span == 0 mask) are worked out once here, not
    on every scale_matrix call; like mins and maxs they are read-only."""

    feature_names: tuple[str, ...]
    mins: np.ndarray
    maxs: np.ndarray
    divisor: np.ndarray = field(init=False, repr=False, compare=False)
    constant: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mins = np.ascontiguousarray(self.mins, dtype=np.float64)
        maxs = np.ascontiguousarray(self.maxs, dtype=np.float64)
        if mins.shape != (len(self.feature_names),) or maxs.shape != mins.shape:
            raise ParameterError("scaler arrays do not match feature names")
        if np.any(maxs < mins):
            raise ParameterError("scaler has max < min")
        span = maxs - mins
        derived = {"mins": mins, "maxs": maxs, "divisor": np.where(span > 0, span, 1.0),
                   "constant": span == 0}
        for name, arr in derived.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))


def fit_minmax(train: Dataset) -> ScalerParams:
    if train.n_rows == 0:
        raise EmptyDatasetError("cannot fit a scaler on an empty dataset")
    return ScalerParams(
        feature_names=train.columns,
        mins=train.matrix.min(axis=0),
        maxs=train.matrix.max(axis=0),
    )


def scale_matrix(matrix: np.ndarray, params: ScalerParams) -> np.ndarray:
    """(x - min) / (max - min), constant columns pinned to 0, clipped to [0, 1]."""
    # a denormal span can overflow to inf here; the clip pins that to 0 or 1
    with np.errstate(over="ignore"):
        out = matrix - params.mins
        out /= params.divisor
    out[:, params.constant] = 0.0
    return np.clip(out, 0.0, 1.0, out=out)


def apply_minmax(data: Dataset, params: ScalerParams) -> Dataset:
    if data.columns != params.feature_names:
        raise SchemaError(
            f"columns {list(data.columns)} do not match scaler {list(params.feature_names)}"
        )
    return replace(data, matrix=scale_matrix(data.matrix, params))


# ---------------------------------------------------------------------------
# Random forest


def _best_split(R, y, sample_idx, features, min_leaf, total):
    """Best (impurity decrease, feature, left rows, right rows) over
    `features` for the rows in sample_idx, or None when no feature has a cut
    leaving min_leaf rows on both sides.

    R[f] holds the dense rank of each row's value among column f's distinct
    values, y the labels and `total` the node's class counts.  A stable sort
    of the ranks (a radix sort for 8- and 16-bit ranks) orders the rows as
    the values would, ties included.  Cuts fall between distinct ranks only,
    and the two sides of the best cut are sliced from that sort: the rows it
    was scored on, with no threshold formed.  Ties go to the first cut of a
    feature, then to the first feature in `features`.  All features are
    scored in one [m, n] pass from integer running class counts, so the sums
    of squared counts either side of each cut are exact.
    """
    n = len(sample_idx)
    lo, hi = min_leaf - 1, n - min_leaf     # cut j leaves j + 1 rows on the left
    if lo >= hi:
        return None
    r = R[features].take(sample_idx, axis=1)                # [m, n]
    order = np.argsort(r, axis=1, kind="stable")
    rows = np.arange(len(features))[:, None]
    rs = r.ravel().take(order + rows * n)
    valid = rs[:, lo + 1:hi + 1] != rs[:, lo:hi]
    if not valid.any():
        return None
    ys = y[sample_idx].take(order)
    # odd[f, i] = 2 s - 1, where s counts how many of ys[f, :i+1] share the
    # class of ys[f, i]: (s+1)^2 - s^2 = 2s + 1.  A stable sort by class lists
    # each class's rows in cut order, and every feature holds the same rows,
    # so class c's j-th row has s = j + 1.
    starts = np.cumsum(total) - total
    odd = np.empty(ys.shape, dtype=np.int64)
    odd[rows, np.argsort(ys, axis=1, kind="stable")] = (
        2 * (np.arange(1, n + 1) - np.repeat(starts, total)) - 1)
    # sum_c (T_c - L_c)^2 = sum T^2 - 2 sum T_c L_c + sum L^2
    sq_left = np.cumsum(odd[:, :hi], axis=1)[:, lo:]
    sq_right = (total @ total) - 2 * np.cumsum(total.take(ys[:, :hi]), axis=1)[:, lo:] + sq_left
    n_left = np.arange(lo + 1, hi + 1, dtype=np.float64)
    n_right = n - n_left
    gini_parent = 1.0 - ((total / n) ** 2).sum()
    gini_left = 1.0 - sq_left / (n_left * n_left)
    gini_right = 1.0 - sq_right / (n_right * n_right)
    weighted = (n_left * gini_left + n_right * gini_right) / n
    decrease = np.where(valid, gini_parent - weighted, -np.inf)
    f = int(decrease.max(axis=1).argmax())
    best = int(decrease[f].argmax())
    sorted_idx = sample_idx.take(order[f])
    cut = lo + best + 1
    return float(decrease[f, best]), int(features[f]), sorted_idx[:cut], sorted_idx[cut:]


def _grow_tree(R, y, n_classes, sample_idx, depth, max_depth, min_leaf, m_features,
               rng, splits, n_root):
    """Split recursively, appending each split's feature and weighted
    decrease, (n / n_root) * decrease, to `splits`, depth first."""
    counts = np.bincount(y[sample_idx], minlength=n_classes)
    n = len(sample_idx)
    if depth >= max_depth or np.count_nonzero(counts) < 2 or n < 2 * min_leaf:
        return

    candidates = np.sort(rng.permutation(len(R))[:m_features])
    best = _best_split(R, y, sample_idx, candidates, min_leaf, counts)
    if best is None:
        return

    decrease, feature, left, right = best
    splits.append((feature, (n / n_root) * decrease))
    for rows in (left, right):
        _grow_tree(R, y, n_classes, rows, depth + 1, max_depth, min_leaf, m_features,
                   rng, splits, n_root)


def _tree_splits(R, y, n_classes, max_depth, min_leaf, m_features, seed, t):
    """The (feature, weighted decrease) of each split of tree t, depth first:
    all a tree adds to the forest's importances.  It draws from its own
    default_rng([seed, t]) alone, so trees can grow in any order or process."""
    n = R.shape[1]
    rng = np.random.default_rng([seed, t])
    bootstrap = rng.integers(0, n, size=n)
    splits = []
    _grow_tree(R, y, n_classes, bootstrap, 0, max_depth, min_leaf, m_features, rng,
               splits, n_root=n)
    return splits


def _dense_ranks(X: np.ndarray) -> np.ndarray:
    """R[f, i]: the rank of X[i, f] among column f's distinct values, in the
    narrowest unsigned dtype that holds every rank.  Equal values share a
    rank, -0.0 and 0.0 included."""
    inverses = [np.unique(col, return_inverse=True)[1] for col in X.T]
    top = max(int(inv.max()) for inv in inverses)
    return np.array(inverses, dtype=np.min_scalar_type(top))


def train_random_forest(
    X: np.ndarray,
    y: np.ndarray,
    n_trees: int = 50,
    max_depth: int = 12,
    min_leaf: int = 2,
    max_features: int | None = None,
    seed: int = 0,
) -> np.ndarray:
    """Feature importances of bagged Gini trees; per-tree randomness derives
    from (seed, tree index).

    Importances are the support-weighted impurity decreases summed over all
    trees and normalized to 1 (left all-zero when no tree ever split).  The
    trees themselves are not kept: feature selection needs only this vector.
    X may hold infinities but no NaN, and labels are class codes from 0.  The
    trees see only each column's dense ranks, so ±inf ranks like any other
    value and a strictly increasing transform of a column leaves the
    importances unchanged.

    With at least CHILD_FOREST_SIZE rows x trees, `flowdata.items_from_child`
    decides: a forked child grows the odd-numbered trees while this process
    grows the even ones, or on one CPU all grow here.  Each tree hands back
    its splits' weighted decreases, and they are added up here tree by tree
    and split by split, the same float additions in the same order as on
    one CPU, so the importances are bitwise the same either way.  An error
    in the child is raised here, and the child never outlives the call.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or len(y) != len(X):
        raise ParameterError("X must be 2-D with one label per row")
    n, n_features = X.shape
    if n < 2:
        raise ParameterError("need at least 2 rows to fit a forest")
    if n_features < 1:
        raise ParameterError("need at least 1 feature")
    if n_trees < 1 or max_depth < 1 or min_leaf < 1:
        raise ParameterError("n_trees, max_depth, min_leaf must all be >= 1")
    m = max_features if max_features is not None else math.ceil(math.sqrt(n_features))
    if not 1 <= m <= n_features:
        raise ParameterError(f"max_features {m} outside 1..{n_features}")

    if np.isnan(X).any():
        raise ParameterError("X contains NaN")
    if y.min() < 0:
        raise ParameterError("labels must be >= 0")

    n_classes = int(y.max()) + 1
    R = _dense_ranks(X)
    y = y.astype(np.min_scalar_type(n_classes - 1))

    def grow(trees):
        return (_tree_splits(R, y, n_classes, max_depth, min_leaf, m, seed, t) for t in trees)

    if n_trees > 1 and n * n_trees >= CHILD_FOREST_SIZE:
        grown = [None] * n_trees
        with items_from_child(grow(range(1, n_trees, 2)), n_trees,
                              "the forest's tree process ended before its last tree") as odd:
            grown[0::2] = grow(range(0, n_trees, 2))
            grown[1::2] = odd
    else:
        grown = grow(range(n_trees))
    importance = np.zeros(n_features)
    for splits in grown:
        for feature, weighted in splits:
            importance[feature] += weighted
    total = importance.sum()
    if total > 0:
        importance = importance / total
    return importance


# ---------------------------------------------------------------------------
# Recursive feature elimination


@dataclass
class FeatureRanking:
    """Outcome of RFE: survivors with importances, plus the elimination order."""

    selected: list[str]
    selected_importances: np.ndarray
    eliminated: list[str]

    def report(self) -> str:
        """`<rank> <feature-name> <importance>` lines, most important first."""
        order = np.argsort(-self.selected_importances, kind="stable")
        lines = []
        for rank, j in enumerate(order, start=1):
            lines.append(f"{rank} {self.selected[j]} {self.selected_importances[j]:.6f}")
        return "\n".join(lines)


def rfe(
    X: np.ndarray,
    y: np.ndarray,
    target_k: int = 30,
    step: int = 1,
    feature_names: list[str] | None = None,
    **forest_params,
) -> FeatureRanking:
    """Repeatedly drop the `step` least important features, retrain, stop at k.

    Ties on importance break toward the higher original column index, which
    therefore leaves the forest first.  The final round never overshoots: it
    drops only as many features as remain above `target_k`.
    """
    X = np.asarray(X, dtype=np.float64)
    n_features = X.shape[1]
    if feature_names is None:
        feature_names = [f"f{j}" for j in range(n_features)]
    if len(feature_names) != n_features:
        raise ParameterError("feature_names length does not match X")
    if not 1 <= target_k <= n_features:
        raise ParameterError(f"target_k {target_k} outside 1..{n_features}")
    if step < 1:
        raise ParameterError("step must be >= 1")
    m = forest_params.get("max_features")     # the last forest sees target_k columns
    if m is not None and not 1 <= m <= target_k:
        raise ParameterError(f"max_features {m} outside 1..{target_k}")

    remaining = list(range(n_features))
    eliminated: list[int] = []
    while len(remaining) > target_k:
        importances = train_random_forest(X[:, remaining], y, **forest_params)
        n_drop = min(step, len(remaining) - target_k)
        # sort by (importance asc, original index desc)
        order = sorted(
            range(len(remaining)),
            key=lambda j: (importances[j], -remaining[j]),
        )
        drop_local = sorted(order[:n_drop], reverse=True)
        for j in order[:n_drop]:
            eliminated.append(remaining[j])
        for j in drop_local:
            remaining.pop(j)

    return FeatureRanking(
        selected=[feature_names[j] for j in remaining],
        selected_importances=train_random_forest(X[:, remaining], y, **forest_params),
        eliminated=[feature_names[j] for j in eliminated],
    )
