"""Parsing, label grouping, cleaning, and categorical encoding."""

import csv
import dataclasses
import hashlib
import io
import math
import os
import pickle
import re
import struct
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from flowsentry import featsel, flowdata, synth
from flowsentry.errors import (
    EmptyDatasetError,
    EmptyFeatureError,
    FlowSentryError,
    ParameterError,
    RowError,
    SchemaError,
    UnknownLabelError,
)

IDS2017 = flowdata.label_map_for("ids2017")
IDS2018 = flowdata.label_map_for("ids2018")


_CSV_DIRS = []


@pytest.fixture(scope="module", autouse=True)
def _csv_dir(tmp_path_factory):
    """The directory that `_csv` writes its files to."""
    _CSV_DIRS.append(tmp_path_factory.mktemp("csv"))
    yield
    _CSV_DIRS.pop()


def _csv(*lines):
    """A new flow CSV file holding `lines`, each ended by a newline; returns
    its path."""
    fd, path = tempfile.mkstemp(suffix=".csv", dir=_CSV_DIRS[-1])
    with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join(line + "\n" for line in lines))
    return path


# ---------------------------------------------------------------------------
# parse_flow_csv


class TestParse:
    def test_port_without_ip_stays_a_feature(self):
        path = _csv(
            "Dst Port,Protocol,Flow Duration,Label",
            "80,6,100,BENIGN",
            "443,17,7,DoS Hulk",
        )
        records = flowdata.parse_flow_csv(path)
        assert len(records) == 2
        assert set(records[0].features) == {"Dst Port", "Protocol", "Flow Duration"}
        assert records[0].features["Dst Port"] == 80.0
        assert support.row_labels(path)[1] == "DoS Hulk"

    def test_port_with_ip_joins_identity(self):
        records = flowdata.parse_flow_csv(_csv(
            "Dst IP,Dst Port,Flow Duration,Label",
            "10.0.0.1,80,100,BENIGN",
        ))
        assert set(records[0].features) == {"Flow Duration"}
        schema = flowdata._resolve_schema(["Dst IP", "Dst Port", "Flow Duration", "Label"])
        assert (flowdata._identity_cells(schema, ["10.0.0.1", "80", "100", "BENIGN"])
                == (None, None, None, "10.0.0.1:80"))

    def test_infinity_cell_flags_missing(self):
        records = flowdata.parse_flow_csv(_csv(
            "A,B,Label", "Infinity,2,BENIGN", "3,4,BENIGN"))
        assert records[0].missing == frozenset({"A"})
        assert records[1].missing == frozenset()

    @pytest.mark.parametrize("cell", ["", "NaN", "nan", "-Infinity", "infinity", "inf"])
    def test_missing_markers(self, cell):
        records = flowdata.parse_flow_csv(_csv("A,Label", f"{cell},BENIGN"))
        assert records[0].missing == frozenset({"A"})

    def test_empty_input_is_schema_error(self):
        with pytest.raises(SchemaError):
            flowdata.parse_flow_csv(_csv())

    def test_missing_label_column_is_schema_error(self):
        with pytest.raises(SchemaError):
            flowdata.parse_flow_csv(_csv("A,B", "1,2"))

    def test_duplicate_label_column_is_schema_error(self):
        with pytest.raises(SchemaError):
            flowdata.parse_flow_csv(_csv("Label,A,label", "x,1,y"))

    def test_label_header_is_case_insensitive(self):
        path = _csv("A, LABEL ", "1,BENIGN")
        assert [r.features for r in flowdata.parse_flow_csv(path)] == [{"A": 1.0}]
        assert support.row_labels(path) == ["BENIGN"]

    def test_arity_mismatch_is_row_error_with_number(self):
        with pytest.raises(RowError) as exc:
            flowdata.parse_flow_csv(_csv("A,B,Label", "1,2,BENIGN", "1,2"))
        assert exc.value.row == 2

    def test_non_numeric_feature_cell_is_row_error(self):
        with pytest.raises(RowError):
            flowdata.parse_flow_csv(_csv("A,Label", "notanumber,BENIGN"))

    def test_empty_label_cell_is_row_error(self):
        with pytest.raises(RowError):
            flowdata.parse_flow_csv(_csv("A,Label", "1,"))

    def test_lenient_iteration_reports_errors_in_place(self):
        rows = list(flowdata.iter_flow_rows(_csv("A,Label", "1,BENIGN", "bad,BENIGN",
                                                 "3,BENIGN")))
        assert [r[0] for r in rows] == [1, 2, 3]
        assert rows[0][2] is None and rows[2][2] is None
        assert isinstance(rows[1][2], RowError)


# ---------------------------------------------------------------------------
# per-cell row parse and the fast path against an oracle loop

SPACES = [chr(c) for c in range(0x110000) if chr(c).isspace()]
ODD_CELLS = ["1_000", "\u0661\u0662\u0663", "1e400", "-nan", "+Infinity", "INF", "",
             "0x10", "\u22121", "-0.0", "0", "2.5", "1e-320", "NaN", "-inf", "infinity",
             "abc", "1.2.3", "--", "_1", "1__0"]


def _oracle_record(schema, cells, rownum):
    """The row parse with one `_parse_cell` per feature cell: features,
    missing set, label and identity."""
    if len(cells) != schema.n_cols:
        raise RowError(rownum, f"expected {schema.n_cols} cells, got {len(cells)}")
    features, missing = {}, []
    for idx, name in zip(schema.feature_idx, schema.feature_names):
        try:
            value, is_missing = flowdata._parse_cell(cells[idx])
        except ValueError:
            raise RowError(
                rownum, f"non-numeric value {cells[idx]!r} in column {name!r}") from None
        features[name] = value
        if is_missing:
            missing.append(name)
    raw_label = cells[schema.label_col].strip()
    if raw_label == "":
        raise RowError(rownum, "empty label")
    return features, frozenset(missing), raw_label, support.flow_identity(schema, cells)


def _cells_record(schema, cells, rownum):
    """`_parse_cells` in the oracle's form, with the row's label and
    `_identity_cells`."""
    features, missing = flowdata._parse_cells(schema, cells, rownum)
    return (features, frozenset(missing), cells[schema.label_col].strip(),
            flowdata._identity_cells(schema, cells))


def _outcome(build, schema, cells):
    """A comparable form of one parse: feature bits, missing set, label and
    identity, or the RowError message."""
    try:
        features, missing, raw_label, identity = build(schema, cells, 1)
    except RowError as err:
        return ("error", str(err))
    bits = [(k, struct.pack("<d", v)) for k, v in features.items()]
    return (bits, missing, raw_label, identity)


def _selected_outcome(schema, cells):
    """The row as the only data row through `iter_selected_rows` with every
    feature selected, in `_outcome`'s form as far as it tells: the RowError
    message, None for a missing value, or the feature bits."""
    text = io.StringIO()
    csv.writer(text).writerow(cells)
    rows = list(flowdata.iter_selected_rows(io.StringIO(text.getvalue()), schema,
                                            schema.feature_names))
    if isinstance(rows[0], RowError):
        return ("error", str(rows[0]))
    (values, got_cells), = rows
    assert got_cells == cells
    return None if values is None else list(zip(schema.feature_names,
                                                (struct.pack("<d", v) for v in values)))


def _assert_parses_agree(schema, cells):
    """`_parse_cells` gives the oracle's outcome, and `iter_selected_rows`
    what that outcome tells it."""
    want = _outcome(_oracle_record, schema, cells)
    assert _outcome(_cells_record, schema, cells) == want, (cells,)
    told = want if want[0] == "error" else (None if want[1] else want[0])
    assert _selected_outcome(schema, cells) == told, (cells,)


SCHEMA = flowdata._resolve_schema(["Flow ID", "Src IP", "Src Port", "A", "B", "Label"])
FULL_SCHEMA = flowdata._resolve_schema(["Timestamp", "Dst Port", "A", "Src IP", "Dst IP",
                                        "Label", "Flow ID", "B", "Src Port"])


class TestFastRowParse:
    def test_schema_caches_feature_columns(self):
        assert SCHEMA.feature_idx == (3, 4)
        assert SCHEMA.feature_names == ("A", "B")

    @pytest.mark.parametrize("value", ODD_CELLS)
    def test_padded_cells_match_the_per_cell_loop(self, value):
        for space in SPACES:
            for cell in (space + value + space, value + space * 2, space + value):
                for cells in (["f1", "10.0.0.1", "80", cell, "2", "BENIGN"],
                              ["f1", "10.0.0.1", "80", "3", cell, " Bot "],
                              [" ", "", "80", cell, cell, ""]):
                    _assert_parses_agree(SCHEMA, cells)

    def test_finite_rows_skip_the_per_cell_parser(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("per-cell parse on a finite row")

        monkeypatch.setattr(flowdata, "_parse_cell", refuse)
        monkeypatch.setattr(flowdata, "_parse_cells", refuse)
        cells = ["f", "h", "1", " 2 ", "-0.0", "BENIGN"]
        rows = list(flowdata.iter_selected_rows(["f,h,1, 2 ,-0.0,BENIGN\n"], SCHEMA,
                                                SCHEMA.feature_names))
        assert rows == [((2.0, 0.0), cells)]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(["", " ", "x", " 10.0.0.1 ", "80", "2024-03-01T10:00:00",
                                     "\u00a0f-1\t", "nan", "1"]),
                    min_size=9, max_size=9))
    def test_identity_cells_match_the_per_cell_loop(self, cells):
        _assert_parses_agree(FULL_SCHEMA, cells)

    def test_non_finite_sum_of_finite_values_takes_the_loop(self, monkeypatch):
        cells = ["f", "h", "1", "1e308", "1e308", "BENIGN"]
        assert math.isinf(sum([1e308, 1e308]))
        parsed = []
        parse_cells = flowdata._parse_cells

        def spy(*args):
            parsed.append(parse_cells(*args))
            return parsed[-1]

        monkeypatch.setattr(flowdata, "_parse_cells", spy)
        rows = list(flowdata.iter_selected_rows(["f,h,1,1e308,1e308,BENIGN\n"], SCHEMA,
                                                SCHEMA.feature_names))
        assert rows == [((1e308, 1e308), cells)]
        assert parsed == [({"A": 1e308, "B": 1e308}, [])]

    def test_short_row_error_precedes_parsing(self):
        _assert_parses_agree(SCHEMA, ["x", "1"])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from(ODD_CELLS),
                              st.floats().map(repr),
                              st.text(st.sampled_from("0123456789.eE+-_ \t\u00a0naifINF"),
                                      max_size=8)),
                    min_size=2, max_size=2))
    def test_random_cells_match_the_per_cell_loop(self, pair):
        cells = ["f1", "10.0.0.1", "80", pair[0], pair[1], "BENIGN"]
        _assert_parses_agree(SCHEMA, cells)


# ---------------------------------------------------------------------------
# iter_selected_rows against iter_flow_rows + a per-record projection


def _one_feature_model(tm, name):
    """`tm` cut down to the single selected feature `name`."""
    j = tm.feature_names.index(name)
    scaler = featsel.ScalerParams((name,), tm.scaler.mins[j:j + 1], tm.scaler.maxs[j:j + 1])
    return dataclasses.replace(tm, feature_names=(name,), scaler=scaler,
                               encodings={k: v for k, v in tm.encodings.items() if k == name})


def _odd_stream(path, raw_csv_path, tm):
    """A flow CSV built from clean corpus rows, damaged in every way the
    row parse tells apart; returns its path."""
    header, *lines = [next(csv.reader([l])) for l in
                      raw_csv_path.read_text(encoding="utf-8").splitlines()]
    base = [cells for cells in lines
            if all(c.strip().lower() not in ("nan", "infinity", "") for c in cells)]
    col = {name: i for i, name in enumerate(header)}
    selected = col[tm.feature_names[-1]]
    other = col[next(n for n in header[6:-1] if n not in tm.feature_names)]
    proto = col["Protocol"]
    rows = []

    def put(changes, cut=None):
        cells = list(base[len(rows) % len(base)])
        for i, cell in changes.items():
            cells[i] = cell
        rows.append(cells if cut is None else cut(cells))

    for value in ODD_CELLS + SPACES:
        for pad in ("", SPACES[len(rows) % len(SPACES)]):
            put({selected: pad + value + pad})
            put({other: value + pad})
    put({}, cut=lambda c: c[:-3])                         # short
    put({}, cut=lambda c: c + ["1"])                      # long
    put({len(header) - 1: ""})                            # empty label
    put({len(header) - 1: " \t "})                        # blank label
    put({col["Flow ID"]: "a,b", col["Src IP"]: " 10.0.0.1, x "})   # quoted commas
    put({other: "1,5"})                                   # quoted non-numeric
    put({selected: "NaN"})                                # missing, selected
    put({other: "Infinity"})                              # missing, not selected
    put({proto: "99"})                                    # unseen categorical code
    put({proto: " -0.0 "})
    put({selected: "1e308", other: "1e308"})              # finite cells, infinite sum
    put({col["Flow ID"]: " ", col["Src Port"]: "", col["Timestamp"]: ""})
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i, cells in enumerate(rows):
            writer.writerow(cells)
            if i % 50 == 0:
                writer.writerow([])                       # blank line
    return path


def _outcome_of(row):
    """An `iter_selected_rows` item as a comparable value: the RowError's
    message, None for a missing selected value, "scored" for a pair."""
    if isinstance(row, RowError):
        return str(row)
    return None if row[0] is None else "scored"


def _via_records(path, tm):
    """Row outcomes, raw values, model input, identities and labels by the
    record path: `iter_flow_rows` plus a per-record projection.  Labels are
    read by `read_rows` from a copy without the malformed rows."""
    outcomes, records, idents, labels = [], [], [], []
    well_formed = iter(support.row_labels(
        _without_malformed_rows(path, path.with_name("well-formed-" + path.name))))
    for _, rec, err, ident in support.flow_rows_with_identity(path):
        if err is not None:
            outcomes.append(str(err))
            continue
        label = next(well_formed)
        if rec.missing & set(tm.feature_names):
            outcomes.append(None)
        else:
            outcomes.append("scored")
            records.append(rec)
            idents.append(ident)
            labels.append(label)
    raw = np.array([[r.features[n] for n in tm.feature_names] for r in records])
    X = np.stack([tm.transform_record(r) for r in records])
    return outcomes, raw, X, idents, labels


def _via_reader(path, tm):
    with open(path, encoding="utf-8", newline="") as fh:
        schema = flowdata.read_schema(fh)
        rows = list(flowdata.iter_selected_rows(fh, schema, tm.feature_names))
    kept = [r for r in rows if isinstance(r, tuple) and r[0] is not None]
    values = [v for v, _ in kept]
    return ([_outcome_of(r) for r in rows], np.array(values), tm.transform_matrix(values),
            [flowdata._identity_cells(schema, cells) for _, cells in kept],
            [cells[schema.label_col].strip() for _, cells in kept])


class TestSelectedRows:
    @pytest.mark.parametrize("selection", ["all", "Protocol", "numeric"])
    def test_matches_records_and_transform(self, selection, tiny_model, raw_csv_path,
                                            tmp_path):
        tm = tiny_model["tm"]
        stream = _odd_stream(tmp_path / "odd.csv", raw_csv_path, tm)
        if selection == "Protocol":
            tm = _one_feature_model(tm, "Protocol")
        elif selection == "numeric":
            tm = _one_feature_model(tm, tm.feature_names[-1])
        outcomes, raw, X, idents, labels = _via_reader(stream, tm)
        want_outcomes, want_raw, want_X, want_idents, want_labels = _via_records(stream, tm)
        assert outcomes == want_outcomes
        assert raw.shape == want_raw.shape and raw.tobytes() == want_raw.tobytes()
        assert X.shape == want_X.shape and X.tobytes() == want_X.tobytes()
        assert idents == want_idents
        assert labels == want_labels
        assert len(X) > 50
        assert (None in outcomes) == (selection != "Protocol")   # NaN planted off Protocol
        assert sum(o not in (None, "scored") for o in outcomes) > 50
        assert any(i[1] == "a,b" and i[2].startswith("10.0.0.1, x:") for i in idents)
        assert any(i[0] is None and i[1] is None for i in idents)

    def test_one_feature_column(self):
        text = "Flow ID,A,Label\nf1, 2 ,BENIGN\nf2,,BENIGN\nf3,x,BENIGN\n\nf4,1e400,Bot\n,7,Bot\n"
        schema = flowdata._resolve_schema(["Flow ID", "A", "Label"])
        rows = list(flowdata.iter_selected_rows(text.splitlines(True)[1:], schema, ("A",)))
        assert [_outcome_of(r) for r in rows] == [
            "scored", None, "row 3: non-numeric value 'x' in column 'A'", None, "scored"]
        assert rows[0] == ((2.0,), ["f1", " 2 ", "BENIGN"])
        assert rows[2].row == 3
        assert rows[4] == ((7.0,), ["", "7", "Bot"])
        assert [r.features for r in flowdata.parse_flow_csv(
            _csv("Flow ID,A,Label", "f1,2,BENIGN"))] == [{"A": 2.0}]
        assert flowdata.parse_flow_csv(_csv("Flow ID,Label", "f1,BENIGN"))[0].features == {}

    def test_line_over_the_csv_field_limit_is_a_row_error(self):
        schema = flowdata._resolve_schema(["Flow ID", "A", "Label"])
        big = "f2," + "9" * (csv.field_size_limit() + 1) + ",BENIGN\n"
        lines = ["f1,1,BENIGN\n", big, "\n", "f3,3,Bot\n"]
        message = (f"row 2: not readable as CSV: field larger than field limit "
                   f"({csv.field_size_limit()})")
        rows = list(flowdata.iter_selected_rows(lines, schema, ("A",)))
        assert [_outcome_of(r) for r in rows] == ["scored", message, "scored"]
        assert rows[1].row == 2 and rows[2] == ((3.0,), ["f3", "3", "Bot"])
        with pytest.raises(RowError, match=re.escape(message)):
            flowdata.read_rows(lines, schema, ("A",))

    def test_header_over_the_csv_field_limit_is_a_schema_error(self):
        header = "A," + "x" * (csv.field_size_limit() + 1) + ",Label\n"
        with pytest.raises(SchemaError, match="^header row not readable as CSV: field larger"):
            flowdata.read_schema([header, "1,2,BENIGN\n"])

    def test_clean_rows_build_no_record(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("record built for a clean row")

        monkeypatch.setattr(flowdata, "FlowRecord", refuse)
        schema = flowdata._resolve_schema(["Flow ID", "A", "B", "Label"])
        rows = list(flowdata.iter_selected_rows(["f, 1,2,Bot\n"], schema, ("B", "A")))
        assert rows == [((2.0, 1.0), ["f", " 1", "2", "Bot"])]


# ---------------------------------------------------------------------------
# map_labels


class TestLabels:
    @pytest.mark.parametrize("raw,expected", [
        ("DoS Hulk", "DoS"),
        ("DoS GoldenEye", "DoS"),
        ("DoS Slowhttptest", "DoS"),
        ("BENIGN", "Benign"),
        ("Web Attack - XSS", "Web"),
        ("Web Attack – Sql Injection", "Web"),
        ("FTP-Patator", "Brute Force"),
        ("SSH-Patator", "Brute Force"),
        ("PortScan", "Portscan"),
        ("DDoS", "DDoS"),
        ("Bot", "Bot"),
        ("Heartbleed", "DoS"),
    ])
    def test_ids2017_grouping(self, raw, expected):
        assert IDS2017.match(raw) == expected

    @pytest.mark.parametrize("raw,expected", [
        ("Benign", "Benign"),
        ("DoS attacks-Hulk", "DoS"),
        ("DDOS attack-HOIC", "DDoS"),
        ("Brute Force -Web", "Web"),
        ("SQL Injection", "Web"),
        ("FTP-BruteForce", "Brute Force"),
        ("SSH-Bruteforce", "Brute Force"),
        ("Infilteration", "Infiltration"),
    ])
    def test_ids2018_grouping(self, raw, expected):
        assert IDS2018.match(raw) == expected

    def test_canonical_sets(self):
        assert IDS2017.class_names == (
            "Benign", "DoS", "DDoS", "Web", "Portscan", "Bot", "Brute Force")
        assert IDS2018.class_names == (
            "Benign", "DoS", "DDoS", "Web", "Portscan", "Brute Force", "Infiltration")

    def test_unknown_label_error_lists_spelling(self):
        labels = support.row_labels(_csv("A,Label", "1,FooAttack"))
        with pytest.raises(UnknownLabelError, match="FooAttack"):
            flowdata.map_labels(labels, IDS2017)

    def test_matching_ignores_case_and_punctuation(self):
        assert IDS2017.match("dos  hulk") == "DoS"
        assert IDS2017.match("WEB ATTACK -- XSS") == "Web"

    def test_custom_profile_requires_rules(self):
        with pytest.raises(ParameterError):
            flowdata.label_map_for("custom")
        lm = flowdata.label_map_for("custom", [("ok", "Benign"), ("bad", "Evil")])
        assert lm.match("OK") == "Benign"
        assert lm.class_names == ("Benign", "Evil")

    def test_prepared_csv_labels_are_class_names_first(self):
        """A prepared CSV stores class names; a custom class name need not
        match any rule, and a rule that matches one names no other class."""
        lm = flowdata.label_map_for("custom", [("normal", "Good"), ("good", "Evil")])
        ds = flowdata.read_prepared_csv(_csv("A,Label", "1,Good", "2,Evil", "3,normal"), lm)
        assert ds.labels.tolist() == [0, 1, 0]
        # raw inputs still go through the rules alone
        assert flowdata.map_labels(["Good", "normal"], lm).tolist() == [1, 0]
        with pytest.raises(UnknownLabelError, match="'Evil'"):
            flowdata.map_labels(["Evil"], lm)


class TestSynthCorpus:
    def test_corpora_are_pinned(self):
        """synth groups each label of its mix through the profile's rules;
        every corpus byte of both profiles, benign-only or mixed, at seven
        seeds, is pinned by one SHA-256."""
        digest = hashlib.sha256()
        for profile in ("ids2017", "ids2018"):
            for seed in (0, 3, 7, 17, 21, 2001, 2002):
                for benign_only in (False, True):
                    digest.update(synth.flow_csv(
                        700, profile=profile, seed=seed, benign_only=benign_only,
                        missing_fraction=0.01, separation=1.6).encode("utf-8"))
        assert digest.hexdigest() == \
            "7ed61b76e78ffc6059b6c1d32ad4210124686a60241ae5df4b7d08250e72e9ea"


# ---------------------------------------------------------------------------
# clean


def _clean(rows, header="A,B,C,Label"):
    return flowdata.clean(_csv(header, *rows), IDS2017)


class TestClean:
    def test_missing_rows_dropped_first(self):
        ds, report = _clean([
            "1,2,3,BENIGN", "NaN,2,3,BENIGN", "4,5,6,DoS Hulk", "7,8,9,BENIGN",
            "Infinity,1,1,BENIGN",
        ])
        assert ds.n_rows == 3
        assert [i for i, _ in report.dropped_rows] == [2, 5]
        assert all(r == "missing" for _, r in report.dropped_rows)

    def test_zero_fraction_strictly_above_threshold_drops_column(self):
        # 4 zeros of 10 = 40% > 30% -> dropped; 3 of 10 = 30% stays
        rows = [f"{0 if i < 4 else 1},{0 if i < 3 else 1},1,BENIGN" for i in range(10)]
        ds, report = _clean(rows)
        assert "A" not in ds.columns and "B" in ds.columns
        assert ("A", "zeros") in report.dropped_columns
        # A's zero fraction is 0.4, a tenth: a threshold of 0.39 drops A, 0.4 keeps it
        path = _csv("A,B,C,Label", *rows)
        _, report = flowdata.clean(path, IDS2017, zero_threshold=0.39)
        assert report.dropped_columns == [("A", "zeros")]
        ds, report = flowdata.clean(path, IDS2017, zero_threshold=0.4)
        assert "A" in ds.columns and report.dropped_columns == []

    def test_zero_fraction_computed_after_missing_rows_removed(self):
        # zeros concentrate in rows that die for missing values
        rows = ["0,NaN,1,BENIGN"] * 4 + ["1,1,1,BENIGN"] * 6
        ds, _ = _clean(rows)
        assert "A" in ds.columns

    def test_exclusion_list_drops_identity_style_columns(self):
        ds, _ = _clean(["1,2,BENIGN"], header="Fwd IAT Mean,Flow Duration,Label")
        # IAT statistics are signal, not wall clock; they stay
        assert "Fwd IAT Mean" in ds.columns

    def test_second_identity_spelling_is_excluded(self):
        # the first Timestamp and Flow ID columns are identity; a second
        # column of the same normalized name is a feature until excluded
        ds, report = _clean(["2024-01-01 10:00,1,5,f1,7,BENIGN", "x,2,6,f2,8,Bot"],
                            header="Timestamp,A,TIMESTAMP,Flow ID,flow_id,Label")
        assert ds.columns == ("A",)
        assert report.dropped_columns == [("TIMESTAMP", "excluded"), ("flow_id", "excluded")]
        assert report.render().splitlines() == ["DROP-COL TIMESTAMP reason=excluded",
                                                "DROP-COL flow_id reason=excluded"]

    def test_no_drops_preserves_order(self):
        ds, report = _clean(["1,2,3,BENIGN", "4,5,6,DDoS"])
        assert ds.columns == ("A", "B", "C")
        np.testing.assert_array_equal(ds.matrix, [[1, 2, 3], [4, 5, 6]])
        assert report.dropped_rows == [] and report.dropped_columns == []

    def test_all_rows_dropped_is_empty_dataset_error(self):
        with pytest.raises(EmptyDatasetError):
            _clean(["NaN,1,1,BENIGN"])

    def test_report_renders_line_format(self):
        _, report = _clean(["0,1,NaN,BENIGN"] + ["0,1,1,BENIGN"] * 3)
        lines = report.render().splitlines()
        assert lines[0] == "DROP-ROW 1 reason=missing"
        assert "DROP-COL A reason=zeros" in lines

    def test_clean_is_idempotent(self, raw_csv_path, label_map, tmp_path):
        ds, _ = flowdata.clean(raw_csv_path, label_map)
        # feed the cleaned matrix back through clean via its prepared CSV
        flowdata.write_dataset_csv(ds, tmp_path / "prepared.csv")
        ds2, report2 = flowdata.clean(tmp_path / "prepared.csv", label_map)
        assert report2.dropped_rows == [] and report2.dropped_columns == []
        np.testing.assert_array_equal(ds2.matrix, ds.matrix)
        assert ds2.columns == ds.columns


# ---------------------------------------------------------------------------
# strict reads against the record path


def dataset_from_records(records, labels, label_map):
    """The record path's Dataset, the referee of `read_rows`: every record
    in order, and the first one with a missing value refused, naming its
    first missing column in column order."""
    if not records:
        raise EmptyDatasetError("no records")
    for i, rec in enumerate(records):
        if rec.missing:
            name = next(c for c in rec.features if c in rec.missing)
            raise RowError(i + 1, f"missing value in {name!r}")
    columns = list(records[0].features.keys())
    matrix = np.array([[r.features[c] for c in columns] for r in records], dtype=np.float64)
    return flowdata.Dataset(
        columns=tuple(columns),
        matrix=matrix,
        labels=np.asarray(labels),
        class_names=label_map.class_names,
    )


def _without_malformed_rows(path, out):
    """A copy of a flow CSV without the rows `iter_flow_rows` reports as
    malformed; blank lines stay."""
    bad = {rownum for rownum, _, err in flowdata.iter_flow_rows(path) if err is not None}
    with open(path, encoding="utf-8", newline="") as src, \
            open(out, "w", encoding="utf-8", newline="") as dst:
        writer = csv.writer(dst, lineterminator="\n")
        reader = csv.reader(src)
        writer.writerow(next(reader))
        rownum = 0
        for cells in reader:
            rownum += bool(cells)
            if not (cells and rownum in bad):
                writer.writerow(cells)
    return out


def _traced_peak(read, *args):
    """`read(*args)` and the peak of the memory it traced."""
    tracemalloc.start()
    try:
        result = read(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStrictRead:
    def test_first_row_error_matches_the_record_path(self, tiny_model, raw_csv_path,
                                                     label_map, tmp_path):
        stream = _odd_stream(tmp_path / "odd.csv", raw_csv_path, tiny_model["tm"])
        with pytest.raises(RowError) as want:
            flowdata.parse_flow_csv(stream)
        for read in (flowdata.read_prepared_csv, flowdata.clean):
            with pytest.raises(RowError) as got:
                read(stream, label_map)
            assert (got.value.row, str(got.value)) == (want.value.row, str(want.value))

    def test_clean_matches_the_record_path_bitwise(self, tiny_model, raw_csv_path,
                                                   label_map, tmp_path):
        stream = _without_malformed_rows(
            _odd_stream(tmp_path / "odd.csv", raw_csv_path, tiny_model["tm"]),
            tmp_path / "well-formed.csv")
        records = flowdata.parse_flow_csv(stream)
        raw_labels = support.row_labels(stream)
        complete = [r for r in records if not r.missing]
        labels = flowdata.map_labels(
            [label for r, label in zip(records, raw_labels, strict=True) if not r.missing],
            label_map)
        want = dataset_from_records(complete, labels, label_map)
        ds, report = flowdata.clean(stream, label_map, zero_threshold=1.0)
        assert ds.columns == want.columns
        assert ds.matrix.shape == want.matrix.shape
        assert ds.matrix.tobytes() == want.matrix.tobytes()
        assert ds.labels.tobytes() == want.labels.tobytes()
        dropped = [i + 1 for i, r in enumerate(records) if r.missing]
        assert [i for i, _ in report.dropped_rows] == dropped and len(dropped) > 50
        assert report.rows_in == len(records)

        all_labels = flowdata.map_labels(raw_labels, label_map)
        with pytest.raises(RowError) as want_err:
            dataset_from_records(records, all_labels, label_map)
        with pytest.raises(RowError) as got_err:
            flowdata.read_prepared_csv(stream, label_map)
        assert str(got_err.value) == str(want_err.value)

    def test_missing_value_raises_after_label_and_row_errors(self):
        text = ["A,B,Label", "1,2,BENIGN", "3,,BENIGN", "4,NaN,Bot"]
        with pytest.raises(RowError, match=r"^row 2: missing value in 'B'$"):
            flowdata.read_prepared_csv(_csv(*text), IDS2017)
        with pytest.raises(UnknownLabelError, match="Mystery"):
            flowdata.read_prepared_csv(_csv(*text, "5,6,Mystery"), IDS2017)
        with pytest.raises(RowError, match=r"^row 5: non-numeric value 'x'"):
            flowdata.read_prepared_csv(_csv(*text, "5,6,Mystery", "x,1,BENIGN"), IDS2017)

    def test_missing_value_names_the_first_missing_column(self):
        data = _csv("Zeta,Alpha,Label", "1,2,Benign", "NaN,,Benign")
        records = flowdata.parse_flow_csv(data)
        with pytest.raises(RowError, match=r"^row 2: missing value in 'Zeta'$"):
            dataset_from_records(records, [0, 0], IDS2017)
        with pytest.raises(RowError, match=r"^row 2: missing value in 'Zeta'$"):
            flowdata.read_prepared_csv(data, IDS2017)

    def test_blank_lines_do_not_shift_drop_row_numbers(self):
        _, report = _clean(["", "1,2,3,BENIGN", "", "", "NaN,2,3,BENIGN", "4,5,6,BENIGN",
                            "", "7,,9,BENIGN"])
        assert report.render().splitlines()[:2] == ["DROP-ROW 2 reason=missing",
                                                    "DROP-ROW 4 reason=missing"]
        assert report.rows_in == 4

    def test_no_feature_column(self):
        with pytest.raises(EmptyFeatureError, match="every feature column was dropped"):
            _clean(["f1,BENIGN"], header="Flow ID,Label")
        ds = flowdata.read_prepared_csv(_csv("Flow ID,Label", "f1,BENIGN", "f2,Bot"), IDS2017)
        assert ds.matrix.shape == (2, 0) and ds.labels.tolist() == [0, 5]

    def test_memory_stays_near_the_matrix(self, label_map, tmp_path):
        # rows stream into the matrix: a list of FlowRecords takes 10-13 times its bytes
        raw = tmp_path / "raw.csv"
        raw.write_text(synth.flow_csv(20_000, profile="ids2017", seed=5), encoding="utf-8")
        (ds, _), peak = _traced_peak(flowdata.clean, raw, label_map)
        assert ds.n_rows > 19_000
        assert peak < 5 * ds.matrix.nbytes, peak / ds.matrix.nbytes
        flowdata.write_dataset_csv(ds, tmp_path / "prepared.csv")
        back, peak = _traced_peak(flowdata.read_prepared_csv, tmp_path / "prepared.csv",
                                  label_map)
        assert back.n_rows == ds.n_rows
        assert peak < 5 * back.matrix.nbytes, peak / back.matrix.nbytes


# ---------------------------------------------------------------------------
# encode_categorical


class TestEncode:
    def _ds(self, col):
        return flowdata.read_prepared_csv(_csv("P,X,Label", *[f"{v},1,BENIGN" for v in col]),
                                          IDS2017)

    def test_sorted_rank_codes(self):
        ds = flowdata.encode_categorical(self._ds([17, 6, 0, 6]), ["P"])
        np.testing.assert_array_equal(ds.matrix[:, 0], [2, 1, 0, 1])
        assert ds.encodings["P"] == (0.0, 6.0, 17.0)

    def test_single_distinct_value_codes_zero(self):
        ds = flowdata.encode_categorical(self._ds([7, 7, 7]), ["P"])
        np.testing.assert_array_equal(ds.matrix[:, 0], [0, 0, 0])

    def test_reencoding_is_identity(self):
        once = flowdata.encode_categorical(self._ds([17, 6]), ["P"])
        twice = flowdata.encode_categorical(once, ["P"])
        np.testing.assert_array_equal(once.matrix, twice.matrix)
        assert once.encodings == twice.encodings

    def test_unknown_column_is_schema_error(self):
        with pytest.raises(SchemaError):
            flowdata.encode_categorical(self._ds([1]), ["Q"])

    def test_replayed_table_maps_unseen_to_table_length(self):
        # stored tables are replayed on new data through encode_value
        table = flowdata.encode_categorical(self._ds([17, 6, 0]), ["P"]).encodings["P"]
        assert table == (0.0, 6.0, 17.0)
        assert flowdata.encode_value(99.0, table) == 3.0

    def test_column_encoding_matches_encode_value(self):
        table = (-3.0, 0.0, 6.0, 17.0, 1e300)
        values = np.array([-0.0, 0.0, 6.0, 17.0, 99.0, -5.0, 5.999, math.nan, math.inf,
                           -math.inf, 1e300, 1e-320, -3.0])
        for tab in (table, (7.0,), ()):
            got = flowdata.encode_column(values, tab)
            assert got.dtype == np.float64
            want = [flowdata.encode_value(float(v), tab) for v in values]
            assert [struct.pack("<d", v) for v in got] == [struct.pack("<d", v) for v in want]

    def test_column_encoding_matches_a_scan_of_the_table(self):
        table = (-3.0, 0.0, 6.0, 17.0, 1e300)
        values = np.array([-0.0, 0.0, 6.0, 17.0, 99.0, -5.0, 5.999, math.nan, math.inf,
                           -math.inf, 1e300, 1e-320, -3.0])
        for tab in (table, (7.0,), ()):
            got = flowdata.encode_column(values, tab)
            want = [support.rank(float(v), tab) for v in values]
            assert [struct.pack("<d", v) for v in got] == [struct.pack("<d", v) for v in want]

    def test_untouched_columns_survive(self):
        ds = flowdata.encode_categorical(self._ds([17, 6]), ["P"])
        np.testing.assert_array_equal(ds.matrix[:, 1], [1.0, 1.0])


# ---------------------------------------------------------------------------
# prepared CSV round trip


def test_prepared_roundtrip(prepared, label_map, tmp_path):
    ds, _ = prepared
    path = tmp_path / "prepared.csv"
    flowdata.write_dataset_csv(ds, path)
    back = flowdata.read_prepared_csv(path, label_map)
    assert back.columns == ds.columns
    np.testing.assert_array_equal(back.matrix, ds.matrix)
    np.testing.assert_array_equal(back.labels, ds.labels)


def test_prepared_cells_are_float_reprs(tmp_path):
    values = [0.1 + 0.2, -0.0, 5e-324, 1e22]
    ds = flowdata.Dataset(columns=("a", "b", "c", "d"), matrix=[values], labels=[1],
                          class_names=("Benign", "DoS"))
    path = tmp_path / "prepared.csv"
    flowdata.write_dataset_csv(ds, path)
    assert path.read_text(encoding="utf-8").splitlines() == [
        "a,b,c,d,Label", "0.30000000000000004,-0.0,5e-324,1e+22,DoS"]


# ---------------------------------------------------------------------------
# properties


@given(st.text(min_size=1, max_size=30))
def test_normalize_name_is_idempotent(name):
    once = flowdata.normalize_name(name)
    assert flowdata.normalize_name(once) == once


@settings(max_examples=50)
@given(
    st.lists(
        st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=3, max_size=3),
        min_size=1, max_size=20,
    )
)
def test_clean_keeps_row_order_and_finite_matrix(rows):
    lines = [f"{a},{b},{c},BENIGN" for a, b, c in rows]
    try:
        ds, report = _clean(lines)
    except Exception:
        return
    assert np.isfinite(ds.matrix).all()
    kept = [i for i in range(len(rows)) if (i + 1) not in
            {r for r, _ in report.dropped_rows}]
    assert ds.n_rows == len(kept)


# ---------------------------------------------------------------------------
# errors that cross from a forked child


def _error_classes(cls=FlowSentryError):
    """`cls` and every subclass under it."""
    return [cls] + [sub for child in cls.__subclasses__() for sub in _error_classes(child)]


@pytest.mark.parametrize("cls", _error_classes(), ids=lambda cls: cls.__name__)
def test_every_error_survives_pickling(cls):
    err = cls(3, "bad") if cls is RowError else cls("bad")
    back = pickle.loads(pickle.dumps(err, pickle.HIGHEST_PROTOCOL))
    assert type(back) is cls and str(back) == str(err)
    assert getattr(back, "row", None) == getattr(err, "row", None)


def _rows_then_a_row_error():
    yield "row 1"
    yield "row 2"
    raise RowError(3, "bad cell")


@pytest.mark.parametrize("cpus", [2, 1], ids=["forked", "inline"])
def test_a_row_error_among_the_items_reaches_the_caller(monkeypatch, cpus):
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    got = []
    with pytest.raises(RowError) as raised:
        with flowdata.items_from_child(_rows_then_a_row_error(), 1, "lost") as items:
            got.extend(items)
    assert got == ["row 1", "row 2"]
    assert type(raised.value) is RowError and raised.value.row == 3
    assert str(raised.value) == "row 3: bad cell"
    assert len(forks) == (1 if cpus > 1 else 0)
