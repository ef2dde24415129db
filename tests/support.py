"""Test-side data makers and oracles shared by several test modules."""

import csv
import io
from pathlib import Path

import numpy as np

from flowsentry import flowdata, monitor, resample, synth


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


def flow_csv_loop(
    n_rows: int,
    profile: str = "ids2017",
    seed: int = 0,
    missing_fraction: float = 0.01,
    benign_only: bool = False,
    separation: float = 1.0,
) -> str:
    """`synth.flow_csv` one row at a time: each row drawn, shifted, scaled,
    rounded and formatted on its own, in the generator's draw order."""
    rng = np.random.default_rng(seed)
    mix = synth.IDS2017_MIX if profile == "ids2017" else synth.IDS2018_MIX
    if benign_only:
        mix = [(mix[0][0], 1.0)]
    labels = [m[0] for m in mix]
    classes = [flowdata.PROFILES[profile].match(label) for label in labels]
    shares = np.array([m[1] for m in mix])
    shares = shares / shares.sum()

    stat_cols = synth.STAT_COLS
    buf = io.StringIO()
    buf.write(",".join(synth.IDENTITY_COLS + stat_cols + ["Label"]) + "\n")

    stat_index = {name: j for j, name in enumerate(stat_cols)}
    base_scale = np.abs(np.random.default_rng(20240301).normal(3.0, 1.0, size=len(stat_cols))) + 1.0
    marker_cycle = ["Infinity", "NaN", "", "-Infinity"]
    n_missing = int(round(missing_fraction * n_rows))

    assignments = rng.choice(len(labels), size=n_rows, p=shares)
    missing_rows = set(rng.choice(n_rows, size=n_missing, replace=False)) if n_missing else set()

    for i in range(n_rows):
        label, cls = labels[assignments[i]], classes[assignments[i]]
        arche = synth._ARCHETYPES[cls]
        row = rng.normal(0.0, 1.0, size=len(stat_cols))
        for name, shift in arche.items():
            row[stat_index[name]] += separation * shift
        row = row * base_scale + 5.0 * base_scale
        proto = rng.choice(synth._PROTO_BY_ARCHETYPE[cls])
        row[stat_index["Protocol"]] = proto
        row[stat_index["Fwd PSH Flags"]] = 0.0 if rng.random() < 0.75 else 1.0
        for flag in ("SYN Flag Cnt", "ACK Flag Cnt", "PSH Flag Cnt", "RST Flag Cnt"):
            row[stat_index[flag]] = max(0.0, round(row[stat_index[flag]] / 3.0))

        cells = [
            f"flow-{i:06d}",
            f"10.0.{rng.integers(0, 32)}.{rng.integers(1, 255)}",
            str(int(rng.integers(1024, 65535))),
            f"172.16.{rng.integers(0, 8)}.{rng.integers(1, 255)}",
            str(int(rng.choice([80, 443, 22, 21, 8080]))),
            f"2024-03-01T{10 + (i // 3600) % 12:02d}:{(i // 60) % 60:02d}:{i % 60:02d}",
        ]
        stat_cells = [f"{v:.6f}" for v in row]
        stat_cells[stat_index["Protocol"]] = str(int(proto))
        if i in missing_rows:
            j = int(rng.integers(1, len(stat_cols)))
            stat_cells[j] = marker_cycle[i % len(marker_cycle)]
        buf.write(",".join(cells + stat_cells + [label]) + "\n")
    return buf.getvalue()


def first_difference(got: str, want: str):
    """None for equal texts, else the first line number (from 1) where they
    part, with both lines: a short report where a diff of two corpora would
    take minutes."""
    if got == want:
        return None
    got_lines, want_lines = got.split("\n"), want.split("\n")
    for i, (a, b) in enumerate(zip(got_lines, want_lines)):
        if a != b:
            return i + 1, a, b
    n = min(len(got_lines), len(want_lines))
    return n + 1, got_lines[n:n + 1], want_lines[n:n + 1]


def smote_loop(X, k: int, n_synthetic: int, rng) -> np.ndarray:
    """`resample.smote` one synthetic row at a time, each neighbour pick and
    lambda drawn just before its row is built."""
    X = np.asarray(X, dtype=np.float64)
    n = len(X)
    out = np.empty((n_synthetic, X.shape[1]), dtype=np.float64)
    if n_synthetic == 0:
        return out
    neighbours = resample._knn_indices(X, k)
    for i in range(n_synthetic):
        base = i % n
        nbr = neighbours[base, int(rng.integers(0, k))]
        lam = float(rng.uniform())
        out[i] = X[base] + lam * (X[nbr] - X[base])
    return out
