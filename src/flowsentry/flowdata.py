"""Flow CSV ingestion: reading rows, label grouping, cleaning, categorical encoding.

Input files are CICFlowMeter-style exports: one header row, one flow per data
row, a Label column (any casing), and optional identity columns (timestamp,
flow id, endpoint addresses).  Everything else is a numeric feature.

Every reader takes a file path and opens it with `open_flow_csv`; the parsers
under it (`read_schema`, `iter_selected_rows`, `read_rows`) take text lines.
`iter_selected_rows` parses each row's cells straight into the wanted columns:
scoring leniently, training strictly into one matrix (`read_rows`).  A row
that fails the one-pass float parse goes through `_parse_cells`, the one
per-cell row parser, which `iter_flow_rows`/`parse_flow_csv` also use to
build each `FlowRecord`; no subcommand builds one.

`items_from_child`, the package's one fork, alone decides on a second CPU for
the monitor's large inputs and the large forests' odd-numbered trees.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import math
import os
import pickle
import re
import signal
import stat
from collections.abc import Callable, Sequence
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import chain
from operator import itemgetter

import numpy as np

from .errors import (
    EmptyDatasetError,
    EmptyFeatureError,
    FlowSentryError,
    InputError,
    ParameterError,
    RowError,
    SchemaError,
    ShapeError,
    UnknownLabelError,
)

# Cells carrying these spellings are missing-flagged rather than parsed; any
# cell that parses to a non-finite float is flagged the same way.
_MISSING_MARKERS = {"", "nan", "infinity", "-infinity", "+infinity", "inf", "-inf", "+inf"}

_IDENT_TIMESTAMP = {"timestamp"}
_IDENT_FLOW_ID = {"flow id"}
_IDENT_SRC_IP = {"src ip", "source ip"}
_IDENT_DST_IP = {"dst ip", "destination ip"}
_IDENT_SRC_PORT = {"src port", "source port"}
_IDENT_DST_PORT = {"dst port", "destination port"}


_NON_ALNUM_RUN = re.compile(r"[^0-9a-z]+")


def normalize_name(name: str) -> str:
    """Lower-case and collapse every punctuation/space run to one space."""
    return _NON_ALNUM_RUN.sub(" ", name.lower()).strip()


@dataclass(frozen=True)
class FlowRecord:
    features: dict[str, float]
    missing: frozenset[str] = frozenset()


@dataclass(frozen=True)
class LabelMap:
    """Grouping of raw label spellings into a fixed canonical class set.

    Rules are data: (normalized spelling, canonical class) pairs matched
    exactly after `normalize_name`, so new spellings are a table change.
    """

    profile: str
    class_names: tuple[str, ...]
    rules: tuple[tuple[str, str], ...]

    def __post_init__(self):
        for pattern, cls in self.rules:
            if cls not in self.class_names:
                raise ParameterError(f"rule target {cls!r} not in class set")
            if pattern != normalize_name(pattern):
                raise ParameterError(f"rule pattern {pattern!r} is not normalized")

    def match(self, raw_label: str) -> str | None:
        key = normalize_name(raw_label)
        for pattern, cls in self.rules:
            if pattern == key:
                return cls
        return None


def _rules(pairs):
    return tuple((normalize_name(p), c) for p, c in pairs)


_IDS2017_CLASSES = ("Benign", "DoS", "DDoS", "Web", "Portscan", "Bot", "Brute Force")
_IDS2017_RULES = _rules([
    ("BENIGN", "Benign"),
    ("DoS Hulk", "DoS"),
    ("DoS GoldenEye", "DoS"),
    ("DoS slowloris", "DoS"),
    ("DoS Slowhttptest", "DoS"),
    ("DoS slowHTTP", "DoS"),
    ("Heartbleed", "DoS"),
    ("DoS", "DoS"),
    ("DDoS", "DDoS"),
    ("PortScan", "Portscan"),
    ("Port Scan", "Portscan"),
    ("Bot", "Bot"),
    ("FTP-Patator", "Brute Force"),
    ("SSH-Patator", "Brute Force"),
    ("Brute Force", "Brute Force"),
    ("Web Attack - Brute Force", "Web"),
    ("Web Attack - XSS", "Web"),
    ("Web Attack - Sql Injection", "Web"),
    ("Web", "Web"),
])

_IDS2018_CLASSES = ("Benign", "DoS", "DDoS", "Web", "Portscan", "Brute Force", "Infiltration")
_IDS2018_RULES = _rules([
    ("Benign", "Benign"),
    ("DoS attacks-Hulk", "DoS"),
    ("DoS attacks-GoldenEye", "DoS"),
    ("DoS attacks-Slowloris", "DoS"),
    ("DoS attacks-SlowHTTPTest", "DoS"),
    ("DoS", "DoS"),
    ("DDoS attacks-LOIC-HTTP", "DDoS"),
    ("DDOS attack-LOIC-UDP", "DDoS"),
    ("DDOS attack-HOIC", "DDoS"),
    ("DDoS", "DDoS"),
    ("Brute Force -Web", "Web"),
    ("Brute Force -XSS", "Web"),
    ("SQL Injection", "Web"),
    ("Web", "Web"),
    ("PortScan", "Portscan"),
    ("Port Scan", "Portscan"),
    ("FTP-BruteForce", "Brute Force"),
    ("SSH-Bruteforce", "Brute Force"),
    ("Brute Force", "Brute Force"),
    ("Infilteration", "Infiltration"),
    ("Infiltration", "Infiltration"),
])

PROFILES: dict[str, LabelMap] = {
    "ids2017": LabelMap("ids2017", _IDS2017_CLASSES, _IDS2017_RULES),
    "ids2018": LabelMap("ids2018", _IDS2018_CLASSES, _IDS2018_RULES),
}

# Wall-clock / bookkeeping columns never fed to the model.  The first column
# of each name is identity, not a feature; a second of the same normalized
# name (TIMESTAMP beside Timestamp) is a feature that clean() drops here.
# Inter-arrival-time statistics are real features and are never excluded.
DEFAULT_EXCLUDE = ("Timestamp", "Flow ID")


def label_map_for(profile: str, rules=None) -> LabelMap:
    """Profile lookup; `custom` requires an explicit rules table."""
    if profile in PROFILES:
        return PROFILES[profile]
    if profile == "custom":
        if not rules:
            raise ParameterError("custom profile needs a rules table")
        classes = []
        for _, cls in rules:
            if cls not in classes:
                classes.append(cls)
        return LabelMap("custom", tuple(classes), _rules(rules))
    raise ParameterError(f"unknown profile {profile!r}")


@dataclass(frozen=True)
class _Schema:
    """Resolved header: the feature columns (every one outside the label and
    the identity) by index and name as written, in header order, and the
    identity columns (timestamp, flow id, src ip, src port, dst ip, dst
    port), None for an absent one."""

    feature_idx: tuple[int, ...]
    feature_names: tuple[str, ...]
    label_col: int
    n_cols: int
    identity_idx: tuple[int | None, ...]


def _resolve_schema(header: Sequence[str]) -> _Schema:
    names = [h.strip() for h in header]
    if not names or all(n == "" for n in names):
        raise SchemaError("empty header row")
    if any(n == "" for n in names):
        raise SchemaError("header contains an empty column name")
    seen = set()
    for n in names:
        if n in seen:
            raise SchemaError(f"duplicate column name {n!r}")
        seen.add(n)

    norm = [normalize_name(n) for n in names]
    label_cols = [i for i, n in enumerate(norm) if n == "label"]
    if not label_cols:
        raise SchemaError("no Label column in header")
    if len(label_cols) > 1:
        raise SchemaError("more than one Label column in header")

    def find(aliases):
        hits = [i for i, n in enumerate(norm) if n in aliases]
        return hits[0] if hits else None

    ts = find(_IDENT_TIMESTAMP)
    fid = find(_IDENT_FLOW_ID)
    sip = find(_IDENT_SRC_IP)
    dip = find(_IDENT_DST_IP)
    sport = find(_IDENT_SRC_PORT)
    dport = find(_IDENT_DST_PORT)
    # A port column only joins the identity when its address column is present;
    # on its own it stays an ordinary numeric feature.
    if sip is None:
        sport = None
    if dip is None:
        dport = None

    identity_cols = {label_cols[0], ts, fid, sip, dip, sport, dport} - {None}
    feature_idx = tuple(
        i for i in range(len(names)) if i not in identity_cols
    )
    return _Schema(
        feature_idx=feature_idx,
        feature_names=tuple(names[i] for i in feature_idx),
        label_col=label_cols[0],
        n_cols=len(names),
        identity_idx=(ts, fid, sip, sport, dip, dport),
    )


def _parse_cell(text: str):
    """Returns (value, missing_flag); raises ValueError on non-numeric text."""
    s = text.strip()
    if s.lower() in _MISSING_MARKERS:
        return math.nan, True
    v = float(s)            # ValueError propagates to the row handler
    if not math.isfinite(v):
        return math.nan, True
    return v, False


def _cell_getter(idx) -> Callable[[list[str]], tuple[str, ...]]:
    """A function that picks the cells at column indices `idx`, in that
    order, from a row as a tuple (`itemgetter` alone returns a bare cell
    for one index)."""
    if len(idx) == 0:
        return lambda cells: ()
    if len(idx) == 1:
        i, = idx
        return lambda cells: (cells[i],)
    return itemgetter(*idx)


def _float_pass(get, cells: list[str]) -> tuple[float, ...] | None:
    """One plain float() per cell that `get` picks, or None.

    float() strips the same str.isspace set as str.strip, and every missing
    marker but "" parses to a non-finite value, so when the values' sum is
    finite (a finite sum has only finite terms) they are exactly what
    `_parse_cell` gives each cell, with no cell missing.  Any other row,
    overflowing sums included, gets None and needs the per-cell loop.
    """
    try:
        values = tuple(map(float, get(cells)))
    except ValueError:
        return None
    return values if math.isfinite(sum(values)) else None


def _identity_cells(schema: _Schema, cells: list[str]):
    """(timestamp, flow_id, src, dst) of a row: stripped cells, None for an
    absent column or an empty cell, each port joined to its address."""
    ts, flow_id, src, src_port, dst, dst_port = [
        None if i is None else cells[i].strip() or None for i in schema.identity_idx]
    if src is not None and src_port is not None:
        src = f"{src}:{src_port}"
    if dst is not None and dst_port is not None:
        dst = f"{dst}:{dst_port}"
    return ts, flow_id, src, dst


def _parse_cells(schema: _Schema, cells: list[str], rownum: int):
    """A row's features by name, parsed one `_parse_cell` at a time, and the
    names of its missing ones.  Raises the row's first RowError: a wrong
    cell count, then the first non-numeric feature cell in column order,
    then an empty label."""
    if len(cells) != schema.n_cols:
        raise RowError(rownum, f"expected {schema.n_cols} cells, got {len(cells)}")
    features, missing = {}, []
    for idx, name in zip(schema.feature_idx, schema.feature_names):
        try:
            value, is_missing = _parse_cell(cells[idx])
        except ValueError:
            raise RowError(
                rownum, f"non-numeric value {cells[idx]!r} in column {name!r}") from None
        features[name] = value
        if is_missing:
            missing.append(name)
    if not cells[schema.label_col].strip():
        raise RowError(rownum, "empty label")
    return features, missing


_schema_of = lru_cache(maxsize=4)(_resolve_schema)    # a run reads at most four headers


def read_schema(line_iter) -> _Schema:
    """Consumes the header row from an iterable of CSV text lines and
    returns its schema, resolved once per distinct row of cells."""
    try:
        header = next(filter(None, csv.reader(line_iter)), None)
    except csv.Error as err:
        raise SchemaError(f"header row not readable as CSV: {err}") from None
    if header is None:
        raise SchemaError("input has no header row")
    return _schema_of(tuple(header))


def sha256_file(fh) -> str | None:
    """The SHA-256 of an open file's whole content, read by `os.pread` from
    offset 0 in 64 KB chunks: it neither reads nor moves the file offset,
    which a reader forked by the monitor shares, nor any buffer over it.
    None for a FIFO or any other file that is not regular."""
    fd, pos = fh.fileno(), 0
    if not stat.S_ISREG(os.fstat(fd).st_mode):
        return None
    h = hashlib.sha256()
    while chunk := os.pread(fd, 65536, pos):
        h.update(chunk)
        pos += len(chunk)
    return h.hexdigest()


def undecodable(path, err: UnicodeDecodeError) -> InputError:
    """The error for an input file that is not UTF-8 text."""
    return InputError(f"{path}: not UTF-8 text ({err.reason})")


@contextmanager
def open_flow_csv(path, digests=None):
    """Open the flow CSV at `path` and yield its schema, read from the
    header row, and the open file, positioned after the header.
    Non-UTF-8 bytes raise an InputError naming the file.

    With `digests`, the file's SHA-256 (see `sha256_file`) goes in under
    `str(path)` when the caller is done with it, however far the read got:
    the descriptor that read it is read through once more, from offset 0,
    before it closes.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            try:
                yield read_schema(fh), fh
            finally:
                if digests is not None:
                    digests[str(path)] = sha256_file(fh)
    except UnicodeDecodeError as err:
        raise undecodable(path, err) from None


def iter_flow_rows(path):
    """Lenient streaming parse of the flow CSV at `path` into records, every
    row through `_parse_cells`.

    Yields (rownum, record, error) with exactly one of record/error set;
    rownum counts data rows from 1.  `parse_flow_csv` raises the first error.
    """
    with open_flow_csv(path) as (schema, fh):
        rownum = 0
        for cells in csv.reader(fh):
            if not cells:
                continue
            rownum += 1
            try:
                features, missing = _parse_cells(schema, cells, rownum)
            except RowError as err:
                yield rownum, None, err
                continue
            yield rownum, FlowRecord(features, frozenset(missing)), None


def iter_selected_rows(lines, schema: _Schema, names):
    """Lenient streaming parse of the rows after a header, down to what
    scoring needs.

    Yields one item per data row: the `RowError` of a malformed row, or a
    pair (values, cells) of the row's `names` values (each one of
    `schema`'s features) in that order and its cells as read, with values
    None when the row is missing a value in one of `names`.  A row with the
    right cell count, a non-empty label and every feature cell finite under
    one float() pass is read by that pass alone.  Any other row goes
    through `_parse_cells`, so each row gets the error `iter_flow_rows`
    gives it, or None values when its missing names meet `names`.  A line
    the csv module cannot read (a field over `csv.field_size_limit()`, or a
    NUL byte before Python 3.11) is a malformed row too.  No row builds a
    record.
    """
    column = dict(zip(schema.feature_names, schema.feature_idx))
    selected_idx = [column[name] for name in names]
    rest = [i for i in schema.feature_idx if i not in selected_idx]
    # selected cells first, so the first k parsed values are the selection
    get = _cell_getter(selected_idx + rest)
    k = len(selected_idx)
    selected = frozenset(names)
    n_cols, label_col = schema.n_cols, schema.label_col
    reader = csv.reader(lines)
    rownum = 0
    # only the reader raises csv.Error, for one line, and it reads on from
    # the next line
    while True:
        try:
            for cells in reader:
                if not cells:
                    continue
                rownum += 1
                if len(cells) == n_cols and cells[label_col].strip():
                    values = _float_pass(get, cells)
                    if values is not None:
                        yield values[:k], cells
                        continue
                try:
                    features, missing = _parse_cells(schema, cells, rownum)
                except RowError as err:
                    yield err
                    continue
                if selected.isdisjoint(missing):
                    yield tuple(features[n] for n in names), cells
                else:
                    yield None, cells
            return
        except csv.Error as err:
            rownum += 1
            yield RowError(rownum, f"not readable as CSV: {err}")


def read_rows(lines, schema: _Schema, names):
    """Strict `iter_selected_rows`: raises the first `RowError`.  Returns
    the complete rows' `names` values as one float64 matrix, filled as the
    rows stream in; every row's stripped label cell; and the cells of each
    row missing a value, keyed by its 0-based data-row position."""
    labels, missing = [], {}
    label_col = schema.label_col

    def complete_rows():
        for pos, row in enumerate(iter_selected_rows(lines, schema, names)):
            if isinstance(row, RowError):
                raise row
            values, cells = row
            labels.append(cells[label_col].strip())
            if values is None:
                missing[pos] = cells
            else:
                yield values

    matrix = np.fromiter(chain.from_iterable(complete_rows()), dtype=np.float64)
    return matrix.reshape(len(labels) - len(missing), len(names)), labels, missing


def parse_flow_csv(path) -> list[FlowRecord]:
    """Strict parse of the flow CSV at `path`: returns all records or raises
    on the first bad row.

    Every label profile shares the same header conventions, so parsing is
    uniform; the profile matters only to label grouping downstream.
    """
    records = []
    for _, record, err in iter_flow_rows(path):
        if err is not None:
            raise err
        records.append(record)
    return records


def map_labels(raw_labels, label_map: LabelMap, class_names_first: bool = False) -> np.ndarray:
    """Class index per raw label string (a row's stripped label cell);
    unknown spellings are collected and reported.
    With `class_names_first`, a label that is exactly a class name is that
    class before any rule is tried, as in a prepared CSV."""
    out = np.empty(len(raw_labels), dtype=np.int64)
    index = {name: i for i, name in enumerate(label_map.class_names)}
    unknown = []
    for i, raw_label in enumerate(raw_labels):
        if class_names_first and raw_label in index:
            out[i] = index[raw_label]
            continue
        cls = label_map.match(raw_label)
        if cls is None:
            if raw_label not in unknown:
                unknown.append(raw_label)
            continue
        out[i] = index[cls]
    if unknown:
        raise UnknownLabelError(
            "no grouping rule for label(s): " + ", ".join(repr(u) for u in unknown)
        )
    return out


@dataclass(frozen=True)
class Dataset:
    """Immutable table of finite features plus encoded class labels."""

    columns: tuple[str, ...]
    matrix: np.ndarray
    labels: np.ndarray
    class_names: tuple[str, ...]
    encodings: dict[str, tuple[float, ...]] = field(default_factory=dict)

    def __post_init__(self):
        m = np.ascontiguousarray(self.matrix, dtype=np.float64)
        y = np.ascontiguousarray(self.labels, dtype=np.int64)
        if m.ndim != 2 or m.shape[1] != len(self.columns):
            raise ShapeError(f"matrix shape {m.shape} vs {len(self.columns)} columns")
        if y.shape != (m.shape[0],):
            raise ShapeError(f"labels shape {y.shape} vs {m.shape[0]} rows")
        if m.size and not np.isfinite(m).all():
            raise InputError("dataset matrix contains non-finite values")
        if y.size and (y.min() < 0 or y.max() >= len(self.class_names)):
            raise InputError("label code outside class set")
        m.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "labels", y)

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_features(self) -> int:
        return self.matrix.shape[1]

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=len(self.class_names))


@dataclass
class CleanReport:
    """What clean() removed and why, in a replayable line format."""

    dropped_rows: list[tuple[int, str]] = field(default_factory=list)
    dropped_columns: list[tuple[str, str]] = field(default_factory=list)
    rows_in: int = 0

    def render(self) -> str:
        lines = [f"DROP-ROW {i} reason={reason}" for i, reason in self.dropped_rows]
        lines += [f"DROP-COL {name} reason={reason}" for name, reason in self.dropped_columns]
        return "\n".join(lines)


def clean(path, label_map: LabelMap,
          zero_threshold: float = 0.30) -> tuple[Dataset, CleanReport]:
    """Read the flow CSV at `path` strictly, drop unusable rows/columns and
    assemble the numeric Dataset.

    A malformed row anywhere raises first, then an unknown label on any row.
    Rows with any missing-flagged value go first, then columns whose zero
    fraction strictly exceeds `zero_threshold`, then columns in
    `DEFAULT_EXCLUDE`.  Report row numbers count data rows from 1.
    """
    with open_flow_csv(path) as (schema, fh):
        raw, raw_labels, missing = read_rows(fh, schema, schema.feature_names)
    labels = map_labels(raw_labels, label_map)
    if not 0.0 < zero_threshold <= 1.0:
        raise ParameterError(f"zero_threshold {zero_threshold} outside (0, 1]")
    if not raw_labels:
        raise EmptyDatasetError("no records to clean")

    report = CleanReport(rows_in=len(raw_labels),
                         dropped_rows=[(pos + 1, "missing") for pos in missing])
    if not len(raw):
        raise EmptyDatasetError("every row had missing values")

    columns = schema.feature_names
    zero_frac = (raw == 0.0).mean(axis=0)

    excluded_norm = {normalize_name(e) for e in DEFAULT_EXCLUDE}
    keep_cols = []
    for j, c in enumerate(columns):
        if zero_frac[j] > zero_threshold:
            report.dropped_columns.append((c, "zeros"))
        elif normalize_name(c) in excluded_norm:
            report.dropped_columns.append((c, "excluded"))
        else:
            keep_cols.append(j)
    if not keep_cols:
        raise EmptyFeatureError("every feature column was dropped")

    ds = Dataset(
        columns=tuple(columns[j] for j in keep_cols),
        matrix=raw[:, keep_cols],
        labels=np.delete(labels, list(missing)),
        class_names=label_map.class_names,
    )
    return ds, report


def encode_value(value: float, table: tuple[float, ...]) -> float:
    """`encode_column` for one value."""
    return float(encode_column(np.array([value], dtype=np.float64), table)[0])


def encode_column(values: np.ndarray, table: tuple[float, ...]) -> np.ndarray:
    """Rank of each value in a stored table; unseen values rank past the end."""
    tab = np.asarray(table, dtype=np.float64)
    if not len(tab):
        return np.zeros(len(values))
    pos = np.searchsorted(tab, values)
    # an unseen value sorts past the end or beside an entry it does not equal
    pos[tab.take(pos, mode="clip") != values] = len(tab)
    return pos.astype(np.float64)


def encode_categorical(dataset: Dataset, columns: list[str]) -> Dataset:
    """Replace named columns by the rank of each value among distinct values.

    Distinct values sort ascending (all cells are numeric after parsing).  The
    table used for each column is recorded on the returned Dataset; a column
    that already carries a recorded table is left untouched, so encoding is
    idempotent.  Stored tables are replayed on new data by `encode_value`
    and `encode_column`.
    """
    matrix = dataset.matrix.copy()
    encodings = dict(dataset.encodings)
    for col in columns:
        if col not in dataset.columns:
            raise SchemaError(f"unknown column {col!r}")
        if col in encodings:
            continue
        j = dataset.columns.index(col)
        table = tuple(float(v) for v in np.unique(matrix[:, j]))
        matrix[:, j] = encode_column(matrix[:, j], table)
        encodings[col] = table
    return replace(dataset, matrix=matrix, encodings=encodings)


def write_dataset_csv(dataset: Dataset, path) -> None:
    """Prepared-CSV form: feature columns plus a canonical Label column."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(dataset.columns) + ["Label"])
        # one row at a time: the whole matrix as Python floats is about 5x its size
        for values, code in zip(dataset.matrix, dataset.labels.tolist()):
            row = [repr(v) for v in values.tolist()]
            row.append(dataset.class_names[code])
            writer.writerow(row)


def read_prepared_csv(path, label_map: LabelMap) -> Dataset:
    """Load the prepared CSV at `path`, written by `write_dataset_csv` (or
    shaped like one).  A label is its class by exact class name, as written,
    or else through the map's rules.  Nothing is dropped: the first row with
    a missing value raises, naming its first missing column, after malformed
    rows and unknown labels."""
    with open_flow_csv(path) as (schema, fh):
        matrix, raw_labels, missing = read_rows(fh, schema, schema.feature_names)
    labels = map_labels(raw_labels, label_map, class_names_first=True)
    if missing:
        pos, cells = next(iter(missing.items()))
        name = _parse_cells(schema, cells, pos + 1)[1][0]
        raise RowError(pos + 1, f"missing value in {name!r}")
    if not raw_labels:
        raise EmptyDatasetError("no records")
    return Dataset(
        columns=schema.feature_names,
        matrix=matrix,
        labels=labels,
        class_names=label_map.class_names,
    )


# ---------------------------------------------------------------------------
# Work on a second core


def _send_items(items, out, batch_size) -> None:
    """The forked child's side of `items_from_child`: pickle `items` to the
    pipe `out` `batch_size` at a time, then None; on an exception, the items
    made before it and then the exception (one that cannot be pickled ends
    the stream early instead).  Never returns: the child leaves by
    `os._exit`, so no caller code runs in it and none of the parent's
    buffered sinks, which it shares, is flushed."""
    try:
        gc.disable()
        with os.fdopen(out, "wb") as pipe:
            batch, end = [], None
            try:
                for item in items:
                    batch.append(item)
                    if len(batch) == batch_size:
                        pipe.write(pickle.dumps(batch, pickle.HIGHEST_PROTOCOL))
                        batch = []
            except BaseException as err:        # the parent raises it as its own
                end = err
            if batch:
                pipe.write(pickle.dumps(batch, pickle.HIGHEST_PROTOCOL))
            pipe.write(pickle.dumps(end, pickle.HIGHEST_PROTOCOL))
    finally:
        os._exit(0)


def _received(pipe, lost):
    """The items `_send_items` pipes over, then its exception if it sent one."""
    while True:
        try:
            batch = pickle.load(pipe)
        except (EOFError, pickle.UnpicklingError):
            raise FlowSentryError(lost) from None
        if batch is None:
            return
        if isinstance(batch, BaseException):
            raise batch
        yield from batch


@contextmanager
def items_from_child(items, batch_size: int, lost: str):
    """An iterator over the iterable `items`, which a forked child iterates
    while this process goes on with its own work, and pipes over
    `batch_size` items at a time.  The package's one call of os.fork.

    An exception in the child is raised here, after the items made before
    it; a child that ends without its end marker raises FlowSentryError with
    the message `lost`.  Only this helper decides on a second CPU: without
    os.fork, with one usable CPU or when fork fails, `items` is iterated
    here instead.  However the block ends, the child is killed and reaped."""
    pid = None
    if (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) > 1):
        inp, out = os.pipe()
        try:
            pid = os.fork()
        except OSError:                         # no process to spare
            os.close(inp)
            os.close(out)
    if pid is None:
        yield iter(items)
        return
    if pid == 0:
        os.close(inp)
        _send_items(items, out, batch_size)
    os.close(out)
    try:
        with os.fdopen(inp, "rb") as pipe:
            yield _received(pipe, lost)
    finally:
        with suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
