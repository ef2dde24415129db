"""Class rebalancing: synthetic minority interpolation followed by edited
nearest-neighbour pruning of the majority classes.

Both stages work on already-scaled features with plain Euclidean distance.
Neighbour ties always break toward the lower row index so results are
reproducible across platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InsufficientSamplesError, ParameterError
from .flowdata import Dataset


@dataclass(frozen=True)
class ResampleConfig:
    smote_k: int = 5
    enn_k: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.smote_k < 1 or self.enn_k < 1:
            raise ParameterError("neighbour counts must be >= 1")


ROW_BLOCK = 256   # rows per block of squared distances and neighbours


def _knn_indices(X: np.ndarray, k: int) -> np.ndarray:
    """k nearest rows for every row, self excluded, ties to the lower index.

    Squared distances (aa + bb) - 2 * (B @ X.T), clamped at 0, are built one
    [ROW_BLOCK, n] slab per row block B, with at most one slab-sized
    temporary beside it, so memory grows linearly in n, never as n * n.
    Exact top-k per slab: np.partition finds each row's k-th smallest
    distance, every column at or below it is a candidate, and a stable sort
    of the candidates by (row, distance) keeps their ascending column order
    among equal distances.  The first k per row are what a stable argsort of
    the whole row would list first, without ranking the rest of the row.
    """
    n = len(X)
    sq = (X * X).sum(axis=1)
    out = np.empty((n, k), dtype=np.intp)
    for s in range(0, n, ROW_BLOCK):
        block = X[s:s + ROW_BLOCK] @ X.T
        block *= 2.0                     # in place: 2.0 * block is a second slab
        np.subtract(sq[s:s + ROW_BLOCK, None] + sq, block, out=block)
        np.maximum(block, 0.0, out=block)
        diag = np.arange(len(block))
        block[diag, s + diag] = np.inf
        # copied, so the partitioned slab is freed at once
        kth = np.partition(block, k - 1, axis=1)[:, k - 1:k].copy()
        # not-greater rather than at-most: a row whose k-th distance is NaN
        # keeps every column, which then sorts NaN last like the full argsort
        keep = np.greater(block, kth)
        rows, cols = np.nonzero(np.logical_not(keep, out=keep))
        order = np.lexsort((block[rows, cols], rows))
        first = np.searchsorted(rows, np.arange(len(block)))
        out[s:s + ROW_BLOCK] = cols[order[first[:, None] + np.arange(k)]]
    return out


def smote(
    X: np.ndarray,
    k: int,
    n_synthetic: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Synthetic rows on segments between a base row and one of its k nearest
    neighbours: s + lam * (nbr - s) with lam ~ U[0, 1], each neighbour
    choice and lam drawn from `rng` in that order.

    Base rows cycle round-robin through X, so the synthetic count can exceed
    the real count.  Needs at least k+1 rows.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ParameterError("X must be 2-D")
    if n_synthetic < 0:
        raise ParameterError("n_synthetic must be >= 0")
    if k < 1:
        raise ParameterError("k must be >= 1")
    n = len(X)
    if n < k + 1:
        raise InsufficientSamplesError(f"need at least {k + 1} rows for k={k}, got {n}")
    out = np.empty((n_synthetic, X.shape[1]), dtype=np.float64)
    if n_synthetic == 0:
        return out
    neighbours = _knn_indices(X, k)
    for i in range(n_synthetic):
        base = i % n
        nbr = neighbours[base, int(rng.integers(0, k))]
        lam = float(rng.uniform())
        out[i] = X[base] + lam * (X[nbr] - X[base])
    return out


def enn(
    X: np.ndarray,
    y: np.ndarray,
    k: int,
    eligible_classes,
) -> np.ndarray:
    """Indices retained after edited-nearest-neighbour pruning.

    A row is removed when its label is one of `eligible_classes` (class
    indices; rows of any other class are kept) and a strict majority of its
    k nearest neighbours carry a different label.  All decisions are taken
    against the full input, then applied at once.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if len(X) != len(y):
        raise ParameterError("X and y length mismatch")
    if k < 1:
        raise ParameterError("k must be >= 1")
    n = len(X)
    if k >= n:
        raise ParameterError(f"k={k} must be smaller than the row count {n}")
    neighbours = _knn_indices(X, k)
    disagree = (y[neighbours] != y[:, None]).sum(axis=1)
    doomed = disagree > k / 2.0
    eligible = np.isin(y, np.asarray(list(eligible_classes), dtype=np.int64))
    doomed &= eligible
    return np.flatnonzero(~doomed)


@dataclass
class ResampleReport:
    """Per-class row counts before and after resampling plus a percentage table."""

    class_names: tuple[str, ...]
    before: np.ndarray
    after: np.ndarray

    def percentages(self) -> list[tuple[str, float, float]]:
        tb = max(int(self.before.sum()), 1)
        ta = max(int(self.after.sum()), 1)
        return [
            (name, 100.0 * self.before[c] / tb, 100.0 * self.after[c] / ta)
            for c, name in enumerate(self.class_names)
        ]

    def render(self) -> str:
        width = max(len("Class"), *(len(n) for n in self.class_names))
        lines = [f"{'Class':<{width}}  {'Before (%)':>10}  {'After (%)':>10}"]
        for name, pb, pa in self.percentages():
            lines.append(f"{name:<{width}}  {pb:>10.1f}  {pa:>10.1f}")
        return "\n".join(lines)


def _imbalance_ratio(counts: np.ndarray) -> float:
    present = counts[counts > 0]
    if len(present) == 0:
        return 1.0
    return float(present.max() / present.min())


def resample_pipeline(
    train: Dataset, config: ResampleConfig = ResampleConfig()
) -> tuple[Dataset, ResampleReport]:
    """SMOTE every class up to the largest class's row count, then ENN-prune
    the majority classes.

    Majority means a pre-SMOTE share above 1/C over the classes present.
    Pruning never removes protected rows and is capped so the output imbalance
    ratio cannot exceed the input's.
    """
    counts_before = train.class_counts()
    present = np.flatnonzero(counts_before)
    if len(present) < 2:
        raise ParameterError("resampling needs at least 2 classes present")
    n_total = int(counts_before.sum())
    n_present = len(present)
    majority = [int(c) for c in present if counts_before[c] / n_total > 1.0 / n_present]

    want = int(counts_before[present].max())

    X_parts = [train.matrix]
    y_parts = [train.labels]
    for c in present:
        deficit = want - int(counts_before[c])
        if deficit <= 0:
            continue
        rows = train.matrix[train.labels == c]
        synthetic = smote(
            rows,
            k=config.smote_k,
            n_synthetic=deficit,
            rng=np.random.default_rng([config.seed, int(c)]),
        )
        X_parts.append(synthetic)
        y_parts.append(np.full(deficit, c, dtype=np.int64))
    X_all = np.vstack(X_parts)
    y_all = np.concatenate(y_parts)
    counts_smote = np.bincount(y_all, minlength=len(train.class_names))

    retained = enn(X_all, y_all, k=config.enn_k, eligible_classes=majority)

    # Cap removals so the imbalance ratio never rises above the input's.
    ratio_in = _imbalance_ratio(counts_before)
    floor = int(math.ceil(counts_smote[counts_smote > 0].max() / ratio_in))
    removed = np.setdiff1d(np.arange(len(y_all)), retained)
    counts_now = counts_smote.astype(np.int64).copy()
    veto = []
    for i in removed:
        c = y_all[i]
        if counts_now[c] - 1 < floor:
            veto.append(i)
        else:
            counts_now[c] -= 1
    if veto:
        retained = np.union1d(retained, np.asarray(veto, dtype=np.int64))

    ds = replace(train, matrix=X_all[retained], labels=y_all[retained])
    counts_after = ds.class_counts()
    report = ResampleReport(
        class_names=train.class_names,
        before=counts_before,
        after=counts_after,
    )
    return ds, report
