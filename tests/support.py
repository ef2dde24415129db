"""Test-side data makers and oracles shared by several test modules."""

import csv
from pathlib import Path

import numpy as np

from flowsentry import flowdata, monitor


def informative_noise(
    n_rows: int,
    n_informative: int = 5,
    n_noise: int = 15,
    n_classes: int = 2,
    seed: int = 0,
    separation: float = 2.5,
):
    """Labelled matrix where only a known feature subset carries class signal.

    Returns (X, y, informative_indices); the informative columns are scattered
    through the matrix by a seeded permutation so position cannot leak.
    """
    rng = np.random.default_rng(seed)
    total = n_informative + n_noise
    y = rng.integers(0, n_classes, size=n_rows)
    centers = rng.normal(0.0, 1.0, size=(n_classes, n_informative)) * separation
    X = rng.normal(0.0, 1.0, size=(n_rows, total))
    positions = rng.permutation(total)[:n_informative]
    for j, pos in enumerate(np.sort(positions)):
        X[:, pos] += centers[y, j]
    return X, y, sorted(int(p) for p in np.sort(positions))


def blobs(counts: dict[int, int], centers: dict[int, tuple], spread: float = 0.5,
          seed: int = 0):
    """Gaussian clusters per class; handy for resampling geometry tests."""
    rng = np.random.default_rng(seed)
    X_parts, y_parts = [], []
    for cls in sorted(counts):
        c = np.asarray(centers[cls], dtype=np.float64)
        X_parts.append(rng.normal(0.0, spread, size=(counts[cls], len(c))) + c)
        y_parts.append(np.full(counts[cls], cls, dtype=np.int64))
    return np.vstack(X_parts), np.concatenate(y_parts)


def flow_identity(schema, cells):
    """(timestamp, flow_id, src, dst) of a row, cell by cell: each stripped
    cell or None for an absent column or empty cell, and each port joined to
    its address."""
    def cell(i):
        if i is None:
            return None
        v = cells[i].strip()
        return v if v else None

    ts_col, flow_id_col, src_ip_col, src_port_col, dst_ip_col, dst_port_col = schema.identity_idx
    src = cell(src_ip_col)
    if src is not None and cell(src_port_col) is not None:
        src = f"{src}:{cell(src_port_col)}"
    dst = cell(dst_ip_col)
    if dst is not None and cell(dst_port_col) is not None:
        dst = f"{dst}:{cell(dst_port_col)}"
    return cell(ts_col), cell(flow_id_col), src, dst


def flow_rows_with_identity(path):
    """`iter_flow_rows` over a flow CSV file, each (rownum, record, error)
    with the row's `flow_identity` appended (None for a row in error)."""
    with open(path, encoding="utf-8", newline="") as fh:
        schema = flowdata.read_schema(fh)
        rows = [cells for cells in csv.reader(fh) if cells]
    for (rownum, record, err), cells in zip(flowdata.iter_flow_rows(path), rows, strict=True):
        yield rownum, record, err, None if err else flow_identity(schema, cells)


def row_labels(path):
    """Each data row's stripped label cell in a flow CSV file, as
    `read_rows` reads it."""
    with open(path, encoding="utf-8", newline="") as fh:
        schema = flowdata.read_schema(fh)
        return flowdata.read_rows(fh, schema, ())[1]


def stage_run(tm, stage_inputs, out_dir, **kwargs):
    """`monitor.stage_run` logging each stage to `<out_dir>/<stage>.log`,
    the names `stage-run --out-dir` gives them; makes `out_dir`."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return monitor.stage_run(
        tm, stage_inputs, {stage: out / f"{stage}.log" for stage in monitor.STAGES}, **kwargs)


def rank(value: float, table) -> float:
    """A value's position in a stored encoding table, scanned entry by
    entry; a value equal to no entry ranks past the end."""
    for i, entry in enumerate(table):
        if entry == value:
            return float(i)
    return float(len(table))
