"""Anomaly log grammar, gate exit codes, skip semantics, and follow mode."""

import csv
import hashlib
import io
import json
import os
import re
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsentry import flowdata, monitor, pipeline, synth
from flowsentry.errors import FlowSentryError, InputError, ParameterError, SchemaError
import support

TOKEN_CHARS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789.:_"
token_st = st.text(TOKEN_CHARS, min_size=1, max_size=20)


def _count_anomalies(tm, path, threshold=0.5):
    """Independent recount: score every parseable row with the gate rule."""
    n = 0
    for _, record, err in flowdata.iter_flow_rows(path):
        if err is not None or record.missing:
            continue
        verdict, confidence, _ = monitor.score_flow(tm, record)
        if verdict != "Benign" and confidence >= threshold:
            n += 1
    return n


# ---------------------------------------------------------------------------
# log line grammar


class TestGrammar:
    def test_reference_line_renders_exactly(self):
        entry = monitor.AnomalyLogEntry(
            timestamp="2024-03-01T10:00:00",
            stage="deploy",
            verdict="DDoS",
            confidence=0.773,
            flow_id="flow-000000",
            src="10.0.24.148:33446",
            dst="172.16.4.198:22",
        )
        assert monitor.format_entry(entry) == (
            "[2024-03-01T10:00:00Z] stage=deploy flow=flow-000000 "
            "src=10.0.24.148:33446 dst=172.16.4.198:22 "
            "verdict=DDoS confidence=0.773"
        )

    def test_spaces_in_values_become_dashes(self):
        entry = monitor.AnomalyLogEntry(
            timestamp="2024-03-01T10:00:00", stage="test",
            verdict="Brute Force", confidence=1.0, flow_id="f 1",
        )
        line = monitor.format_entry(entry)
        assert "verdict=Brute-Force" in line
        assert "flow=f-1" in line
        assert "confidence=1.000" in line

    def test_absent_fields_render_as_dash_and_parse_back_to_none(self):
        entry = monitor.AnomalyLogEntry(
            timestamp="2024-03-01T10:00:00", stage="build",
            verdict="Bot", confidence=0.5,
        )
        line = monitor.format_entry(entry)
        assert " flow=- src=- dst=- " in line
        back = monitor.parse_entry(line)
        assert back.flow_id is None and back.src is None and back.dst is None

    def test_parse_keeps_the_verdict_token(self):
        entry = monitor.AnomalyLogEntry(
            timestamp="2024-03-01T10:00:00", stage="deploy",
            verdict="Brute Force", confidence=0.9, flow_id="x",
        )
        line = monitor.format_entry(entry)
        back = monitor.parse_entry(line)
        assert back.verdict == "Brute-Force"
        assert monitor.format_entry(back) == line

    def test_malformed_lines_rejected(self):
        for line in ("", "not a log line", "[2024] stage=build",
                     "[2024-03-01T10:00:00Z] stage=build flow=f src=s dst=d "
                     "verdict=v confidence=2.000"):
            with pytest.raises(InputError):
                monitor.parse_entry(line)

    @settings(max_examples=80, deadline=None)
    @given(
        stage=st.sampled_from(monitor.STAGES),
        verdict=token_st,
        flow=st.none() | token_st,
        src=st.none() | token_st,
        dst=st.none() | token_st,
        milli=st.integers(0, 1000),
    )
    def test_format_parse_roundtrip(self, stage, verdict, flow, src, dst, milli):
        entry = monitor.AnomalyLogEntry(
            timestamp="2024-03-01T10:00:00",
            stage=stage,
            verdict=verdict,
            confidence=milli / 1000.0,
            flow_id=flow,
            src=src,
            dst=dst,
        )
        back = monitor.parse_entry(monitor.format_entry(entry))
        assert back == entry


SPACES = [chr(c) for c in range(0x110000) if chr(c).isspace()]


def _regex_token(value):
    """The regex tokeniser `_token` replaced, kept as its oracle."""
    if value is None or value == "":
        return "-"
    return re.sub(r"\s+", "-", value.strip())


class TestToken:
    def test_split_join_matches_the_regex_over_every_space(self):
        for space in SPACES:
            for other in (" ", "\t", "\u3000", space):
                for value in (space, space * 3, f"{space}a{other}", f"a{space}{other}b",
                              f"{other}{space}x y{space}z{other}", f"Brute{space}Force"):
                    assert monitor._token(value) == _regex_token(value), repr(value)

    def test_absent_values_are_a_dash(self):
        assert monitor._token(None) == monitor._token("") == "-"

    @settings(max_examples=200, deadline=None)
    @given(st.text(st.sampled_from(["a", "-", "."] + SPACES), max_size=12))
    def test_random_text_matches_the_regex(self, value):
        assert monitor._token(value) == _regex_token(value)


class TestTimestamps:
    def test_iso_input_passes_through(self):
        assert monitor._render_timestamp("2024-03-01T10:00:00") == "2024-03-01T10:00:00"
        assert monitor._render_timestamp("2024-03-01T10:00:00Z") == "2024-03-01T10:00:00"
        assert (monitor._render_timestamp("2024-03-01T10:00:00.123456Z")
                == "2024-03-01T10:00:00.123456")

    def test_capture_style_dates_normalise(self):
        assert monitor._render_timestamp("01/03/2024 10:05:00") == "2024-03-01T10:05:00"
        assert monitor._render_timestamp("01/03/2024 10:05") == "2024-03-01T10:05:00"

    def test_offsets_convert_to_utc(self):
        assert monitor._render_timestamp("2024-03-01T10:00:00+05:00") == "2024-03-01T05:00:00"
        assert monitor._render_timestamp("2024-03-01T10:00:00+00:00") == "2024-03-01T10:00:00"
        assert monitor._render_timestamp("2024-03-01T23:00:00-02:30") == "2024-03-02T01:30:00"
        assert (monitor._render_timestamp(" 2024-03-01T10:00:00.250000+01:00 ")
                == "2024-03-01T09:00:00.250000")

    @settings(max_examples=200, deadline=None)
    @given(st.datetimes(), st.booleans())
    def test_naive_and_z_render_as_written(self, when, zulu):
        text = when.isoformat() + ("Z" if zulu else "")
        assert monitor._render_timestamp(text) == when.isoformat()

    def test_garbage_falls_back_to_wall_clock(self):
        out = monitor._render_timestamp("not a date")
        assert re.match(r"^\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}$", out)


class TestConfig:
    def test_bad_stage_rejected(self):
        with pytest.raises(ParameterError):
            monitor.MonitorConfig(stage="ship")

    def test_threshold_bounds(self):
        with pytest.raises(ParameterError):
            monitor.MonitorConfig(alert_threshold=1.5)
        monitor.MonitorConfig(alert_threshold=0.0)
        monitor.MonitorConfig(alert_threshold=1.0)

    def test_poll_interval_positive(self):
        with pytest.raises(ParameterError):
            monitor.MonitorConfig(poll_interval=0.0)


# ---------------------------------------------------------------------------
# scoring


class TestScoreFlow:
    def test_verdict_is_argmax_and_confidence_its_probability(self, tiny_model, raw_csv_path):
        tm = tiny_model["tm"]
        checked = 0
        for _, record, err in flowdata.iter_flow_rows(raw_csv_path):
            if err is not None or record.missing:
                continue
            verdict, confidence, dist = monitor.score_flow(tm, record)
            assert verdict == tm.class_names[int(dist.argmax())]
            assert confidence == pytest.approx(dist.max())
            assert dist.sum() == pytest.approx(1.0, abs=1e-9)
            assert (dist >= 0).all()
            checked += 1
            if checked >= 25:
                break
        assert checked == 25

    def test_score_flow_equals_the_rows_monitor_tile_result(self, tiny_model, raw_csv_path,
                                                           monkeypatch):
        tm = tiny_model["tm"]
        tiles = []
        real = tm.predict_proba

        def spy(X):
            probs = real(X)
            tiles.append(probs)
            return probs

        monkeypatch.setattr(tm, "predict_proba", spy)
        summary = monitor.run_monitor(raw_csv_path, tm, monitor.MonitorConfig(),
                                      sink=io.StringIO())
        monkeypatch.undo()

        # one predict_proba call per pass: every pass but the last is full
        pass_rows = monitor.TILE_ROWS * monitor.PASS_TILES
        assert [len(t) for t in tiles[:-1]] == [pass_rows] * (len(tiles) - 1)
        in_tiles = np.concatenate(tiles)
        scorable = [r for _, r, err in flowdata.iter_flow_rows(raw_csv_path)
                    if err is None and not r.missing & set(tm.feature_names)]
        assert summary.skipped > 0
        assert len(in_tiles) == summary.total - summary.skipped == len(scorable)
        for record, dist in zip(scorable, in_tiles):
            np.testing.assert_array_equal(monitor.score_flow(tm, record)[2], dist)


# ---------------------------------------------------------------------------
# offline gate runs


class TestRunMonitor:
    def test_three_flow_gate_flags_exactly_one(self, tiny_model, monitor_fixtures):
        sink = io.StringIO()
        summary = monitor.run_monitor(
            monitor_fixtures["three_flow"], tiny_model["tm"],
            monitor.MonitorConfig(stage="deploy"), sink=sink)
        lines = sink.getvalue().splitlines()
        anomaly_lines = [l for l in lines if not l.startswith("#")]
        assert len(anomaly_lines) == 1
        assert monitor._LINE_RE.match(anomaly_lines[0])
        assert "stage=deploy" in anomaly_lines[0]
        assert summary.total == 3 and summary.skipped == 0
        assert summary.anomalies == 1
        assert summary.exit_status == monitor.EXIT_ANOMALIES == 2
        assert summary.per_class == {monitor_fixtures["anomaly_verdict"]: 1}

    def test_clean_gate_emits_nothing_and_passes(self, tiny_model, monitor_fixtures):
        sink = io.StringIO()
        summary = monitor.run_monitor(
            monitor_fixtures["clean"], tiny_model["tm"],
            monitor.MonitorConfig(stage="deploy"), sink=sink)
        assert all(l.startswith("#") for l in sink.getvalue().splitlines())
        assert summary.anomalies == 0
        assert summary.exit_status == monitor.EXIT_OK == 0

    def test_summary_block_shape(self, tiny_model, monitor_fixtures):
        sink = io.StringIO()
        summary = monitor.run_monitor(
            monitor_fixtures["three_flow"], tiny_model["tm"],
            monitor.MonitorConfig(stage="deploy"), sink=sink)
        lines = sink.getvalue().splitlines()
        tm = tiny_model["tm"]
        i = lines.index("# summary stage=deploy")
        assert lines[i + 1] == (
            f"# total={summary.total} anomalies={summary.anomalies} "
            f"skipped={summary.skipped} elapsed_ms={summary.elapsed_ms}"
        )
        class_lines = lines[i + 2:]
        assert len(class_lines) == len(tm.class_names)
        for name, line in zip(tm.class_names, class_lines):
            count = summary.per_class.get(name, 0)
            assert line == f"# class {monitor._token(name)}={count}"
            assert re.match(r"^# class \S+=\d+$", line)

    def test_unscorable_rows_are_skipped_not_fatal(self, tiny_model, monitor_fixtures, tmp_path):
        text = monitor_fixtures["three_flow"].read_text(encoding="utf-8")
        lines = text.splitlines()
        broken = tmp_path / "broken.csv"
        missing_row = lines[1].split(",")
        missing_row[lines[0].split(",").index("Flow Duration")] = "Infinity"
        broken.write_text(
            "\n".join(lines + [",".join(missing_row), "1,2,3"]) + "\n",
            encoding="utf-8")
        sink = io.StringIO()
        summary = monitor.run_monitor(
            broken, tiny_model["tm"], monitor.MonitorConfig(stage="test"),
            sink=sink)
        assert summary.total == 5
        assert summary.total - summary.skipped == 3
        assert summary.skipped == 2
        assert summary.anomalies == 1

    def test_damaged_stream_matches_per_record_scoring(self, tiny_model, raw_csv_path,
                                                       tmp_path):
        tm = tiny_model["tm"]
        lines = raw_csv_path.read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",")
        unselected = [n for n in header[6:-1] if n not in tm.feature_names]
        assert "Protocol" in tm.encodings and unselected
        proto = header.index("Protocol")
        other = header.index(unselected[0])
        chosen = header.index(tm.feature_names[-1])
        rows = []
        for i, line in enumerate(lines[1:200]):
            cells = line.split(",")
            kind = i % 9
            if kind == 0:
                cells[proto] = "99"                   # unseen code: scored
            elif kind == 1:
                cells[proto] = " -0.0 "               # padded, unseen sign: scored
            elif kind == 6:
                cells[proto] = "17.0"                 # seen code, other spelling
            elif kind == 2:
                cells[other] = "Infinity"             # missing, unselected: scored
            elif kind == 3:
                cells[chosen] = "NaN"                 # missing, selected: skipped
            elif kind == 4:
                cells[other] = "n/a?"                 # non-numeric anywhere: skipped
            elif kind == 5:
                cells = cells[:len(cells) // 2]       # truncated: skipped
            rows.append(",".join(cells))
        stream = tmp_path / "damaged.csv"
        stream.write_text("\n".join([lines[0]] + rows) + "\n", encoding="utf-8")

        sink = io.StringIO()
        summary = monitor.run_monitor(stream, tm, monitor.MonitorConfig(stage="test"),
                                      sink=sink)

        want, total, skipped, per_class = [], 0, 0, {}
        for _, record, err, ident in support.flow_rows_with_identity(stream):
            total += 1
            if err is not None or record.missing & set(tm.feature_names):
                skipped += 1
                continue
            verdict, confidence, _ = monitor.score_flow(tm, record)
            if verdict != "Benign" and confidence >= 0.5:
                per_class[verdict] = per_class.get(verdict, 0) + 1
                timestamp, flow_id, src, dst = ident
                want.append(monitor.format_entry(monitor.AnomalyLogEntry(
                    timestamp=monitor._render_timestamp(timestamp),
                    stage="test", verdict=verdict, confidence=confidence,
                    flow_id=flow_id, src=src, dst=dst)))
        got = sink.getvalue().splitlines()
        assert got[:len(want)] == want and want
        assert got[len(want)] == "# summary stage=test"
        assert (summary.total, summary.skipped, summary.anomalies, summary.per_class) == \
            (total, skipped, len(want), per_class)
        assert total == 199 and skipped >= 3 * 22

    def test_damaged_rows_build_no_record(self, tiny_model, monitor_fixtures, tmp_path,
                                          monkeypatch):
        tm = tiny_model["tm"]
        built = []

        def spy(*args, **kwargs):
            built.append(args)
            raise AssertionError("record built while scoring")

        monkeypatch.setattr(flowdata, "FlowRecord", spy)
        summary = monitor.run_monitor(monitor_fixtures["clean"], tm, monitor.MonitorConfig(),
                                      sink=io.StringIO())
        assert summary.total - summary.skipped == summary.total > 0 and built == []

        header, *rows = synth.flow_csv(60, profile="ids2017", seed=5, missing_fraction=0.0,
                                       separation=1.8).splitlines()
        names = header.split(",")
        other = names.index(next(n for n in names[6:-1] if n not in tm.feature_names))
        damage = {3: (names.index(tm.feature_names[0]), "NaN"),
                  11: (other, "Infinity"), 17: (other, ""),
                  23: (other, "n/a"), 31: (names.index("Protocol"), "abc")}
        for i, (col, cell) in damage.items():
            cells = rows[i].split(",")
            cells[col] = cell
            rows[i] = ",".join(cells)
        rows[40] = rows[40][:20]
        # missing, non-numeric and short rows alike are read from their cells
        stream = tmp_path / "damaged.csv"
        stream.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
        summary = monitor.run_monitor(stream, tm, monitor.MonitorConfig(), sink=io.StringIO())
        assert (summary.total, summary.skipped) == (60, 4)
        assert built == []

    def test_wholesale_schema_mismatch_is_operational(self, tiny_model, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("Alpha,Beta,Label\n1,2,BENIGN\n", encoding="utf-8")
        with pytest.raises(SchemaError):
            monitor.run_monitor(bad, tiny_model["tm"],
                                monitor.MonitorConfig(), sink=io.StringIO())

    def test_unreadable_input_is_operational(self, tiny_model, tmp_path):
        with pytest.raises(OSError):
            monitor.run_monitor(tmp_path / "nope.csv", tiny_model["tm"],
                                monitor.MonitorConfig(), sink=io.StringIO())

    def test_threshold_and_class_filters_suppress_alerts(self, tiny_model, monitor_fixtures):
        tm = tiny_model["tm"]
        summary = monitor.run_monitor(
            monitor_fixtures["three_flow"], tm,
            monitor.MonitorConfig(anomalous_classes=()), sink=io.StringIO())
        assert summary.anomalies == 0 and summary.exit_status == 0

        verdict = monitor_fixtures["anomaly_verdict"]
        summary = monitor.run_monitor(
            monitor_fixtures["three_flow"], tm,
            monitor.MonitorConfig(anomalous_classes=(verdict,)), sink=io.StringIO())
        assert summary.anomalies == 1

    def test_unknown_anomalous_class_rejected(self, tiny_model, monitor_fixtures):
        with pytest.raises(ParameterError):
            monitor.run_monitor(
                monitor_fixtures["three_flow"], tiny_model["tm"],
                monitor.MonitorConfig(anomalous_classes=("NoSuchClass",)),
                sink=io.StringIO())

    def test_log_path_sink_written_and_closed(self, tiny_model, monitor_fixtures, tmp_path):
        log = tmp_path / "gate.log"
        summary = monitor.run_monitor(
            monitor_fixtures["three_flow"], tiny_model["tm"],
            monitor.MonitorConfig(stage="deploy"), log_path=log)
        text = log.read_text(encoding="utf-8")
        assert "# summary stage=deploy" in text
        assert summary.anomalies == 1

    def test_lines_equal_format_entry_and_parse_back(self, tiny_model, raw_csv_path, tmp_path):
        # a class name with a space, and flow ids and sources with inner
        # whitespace: the tile flush writes each line as format_entry does
        tm = tiny_model["tm"]
        assert "Brute Force" in tm.class_names
        lines = raw_csv_path.read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",")
        flow, src = header.index("Flow ID"), header.index("Src IP")
        rows = []
        for i, line in enumerate(lines[1:]):
            cells = line.split(",")
            cells[flow] = f" flow  {i}\tx "
            cells[src] = f"{cells[src]} \t host"
            rows.append(",".join(cells))
        stream = tmp_path / "spaced.csv"
        stream.write_text("\n".join([lines[0]] + rows) + "\n", encoding="utf-8")

        sink = io.StringIO()
        summary = monitor.run_monitor(
            stream, tm, monitor.MonitorConfig(stage="build", alert_threshold=0.0), sink=sink)

        want = []
        for _, record, err, ident in support.flow_rows_with_identity(stream):
            if err is not None or record.missing & set(tm.feature_names):
                continue
            verdict, confidence, _ = monitor.score_flow(tm, record)
            if verdict != "Benign":
                timestamp, flow_id, src, dst = ident
                want.append(monitor.format_entry(monitor.AnomalyLogEntry(
                    timestamp=monitor._render_timestamp(timestamp),
                    stage="build", verdict=verdict, confidence=confidence,
                    flow_id=flow_id, src=src, dst=dst)))
        got = sink.getvalue().splitlines()[:summary.anomalies]
        assert got == want
        verdicts = set()
        for line in got:
            entry = monitor.parse_entry(line)
            assert monitor.format_entry(entry) == line
            assert entry.flow_id.startswith("flow-") and entry.flow_id.endswith("-x")
            assert "-host:" in entry.src
            verdicts.add(entry.verdict)
        assert "Brute-Force" in verdicts

    def test_sink_or_log_path_required(self, tiny_model, monitor_fixtures):
        with pytest.raises(ParameterError):
            monitor.run_monitor(monitor_fixtures["three_flow"], tiny_model["tm"],
                                monitor.MonitorConfig())


# ---------------------------------------------------------------------------
# follow mode


def _split_once_follow_lines(fh, poll_interval, idle_timeout, on_idle):
    """The line splitter `_follow_lines` replaced (one split per line, so
    quadratic in the size of one read), kept as its oracle."""
    buf = ""
    idle = 0.0
    while True:
        chunk = fh.read()
        if chunk:
            idle = 0.0
            buf += chunk
            while "\n" in buf:
                line, buf = buf.split("\n", 1)
                yield line + "\n"
        else:
            if idle_timeout is not None and idle >= idle_timeout:
                if buf:
                    yield buf
                return
            on_idle()
            time.sleep(poll_interval)
            idle += poll_interval


class _Reads:
    """A file whose successive read() calls return scripted chunks, then ""."""

    def __init__(self, chunks):
        self.chunks = list(chunks)

    def read(self):
        return self.chunks.pop(0) if self.chunks else ""


def _follow_both(chunks):
    got = []
    for gen in (monitor._follow_lines, _split_once_follow_lines):
        idles = []
        lines = list(gen(_Reads(chunks), 0.001, 0.003, on_idle=lambda: idles.append(1)))
        got.append((lines, len(idles)))
    return got


class TestFollowLines:
    @pytest.mark.parametrize("chunks", [
        ["a,1\n" * 3000],
        ["a,b\nc,", "d\ne", "", "\n"],
        ["\n\n", "x\n\n", "\n"],
        ["a\r\nb\r", "\nc\r\n", "\r\n"],
        ["a\nb"],
        ["a\n", "", "", "tail without newline"],
        ["", "x"],
    ])
    def test_same_lines_as_the_split_once_oracle(self, chunks):
        (new, new_idle), (old, old_idle) = _follow_both(chunks)
        assert new == old and new_idle == old_idle
        assert "".join(new) == "".join(chunks)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.text(st.sampled_from("ab,\r\n"), max_size=12), max_size=6))
    def test_random_chunks_match_the_oracle(self, chunks):
        (new, _), (old, _) = _follow_both(chunks)
        assert new == old


class TestFollow:
    def test_online_matches_offline(self, tiny_model, monitor_fixtures, tmp_path):
        source = monitor_fixtures["three_flow"].read_text(encoding="utf-8").splitlines()
        growing = tmp_path / "growing.csv"
        growing.write_text(source[0] + "\n", encoding="utf-8")

        def writer():
            for line in source[1:]:
                time.sleep(0.05)
                with open(growing, "a", encoding="utf-8") as fh:
                    fh.write(line + "\n")

        thread = threading.Thread(target=writer)
        online_sink = io.StringIO()
        thread.start()
        try:
            online = monitor.run_monitor(
                growing, tiny_model["tm"],
                monitor.MonitorConfig(stage="deploy", follow=True,
                                      poll_interval=0.02, idle_timeout=0.6),
                sink=online_sink)
        finally:
            thread.join()

        offline_sink = io.StringIO()
        offline = monitor.run_monitor(
            monitor_fixtures["three_flow"], tiny_model["tm"],
            monitor.MonitorConfig(stage="deploy"), sink=offline_sink)

        assert online.total == offline.total
        assert online.total - online.skipped == offline.total - offline.skipped
        assert online.anomalies == offline.anomalies
        assert online.per_class == offline.per_class

        def comparable(sink):
            return [l for l in sink.getvalue().splitlines()
                    if not l.startswith("# total=")]

        assert comparable(online_sink) == comparable(offline_sink)

    def test_flow_is_logged_before_the_next_row_arrives(self, tiny_model, monitor_fixtures,
                                                         tmp_path):
        # a tile is flushed whenever a poll finds no new data, so an anomaly
        # is logged while the writer pauses, not when a tile fills
        source = monitor_fixtures["three_flow"].read_text(encoding="utf-8").splitlines()
        growing = tmp_path / "growing.csv"
        growing.write_text(source[0] + "\n", encoding="utf-8")
        poll = 0.02

        def writer():
            for line in source[1:]:
                with open(growing, "a", encoding="utf-8") as fh:
                    fh.write(line + "\n")
                time.sleep(25 * poll)

        class Sink:
            """Records how many input lines existed when each log line arrived."""

            def __init__(self):
                self.seen = []

            def write(self, text):
                if not text.startswith("#"):
                    lines = growing.read_text(encoding="utf-8").splitlines()
                    self.seen.append((text.strip(), len(lines)))

            def flush(self):
                pass

        sink = Sink()
        thread = threading.Thread(target=writer)
        thread.start()
        try:
            summary = monitor.run_monitor(
                growing, tiny_model["tm"],
                monitor.MonitorConfig(stage="deploy", follow=True, poll_interval=poll,
                                      idle_timeout=1.0),
                sink=sink)
        finally:
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert summary.total == 3 and summary.anomalies == 1
        # header, the passing row, the anomalous row, and not yet the last row
        assert len(sink.seen) == 1 and sink.seen[0][1] == 3, sink.seen


# ---------------------------------------------------------------------------
# whole-pipeline orchestration


class TestStageRun:
    def test_runs_every_stage_and_gates(self, tiny_model, monitor_fixtures, tmp_path):
        tm = tiny_model["tm"]
        inputs = {
            "build": str(monitor_fixtures["clean"]),
            "test": str(monitor_fixtures["clean"]),
            "deploy": str(monitor_fixtures["three_flow"]),
            "monitor": str(monitor_fixtures["clean"]),
        }
        summaries, status = monitor.stage_run(tm, inputs, tmp_path / "logs")
        assert status == monitor.EXIT_ANOMALIES
        assert set(summaries) == set(monitor.STAGES)
        for stage in monitor.STAGES:
            log = tmp_path / "logs" / f"{stage}.log"
            assert log.is_file()
            assert f"# summary stage={stage}" in log.read_text(encoding="utf-8")
        assert summaries["deploy"].anomalies == 1
        assert summaries["monitor"] is not None, "anomalies must not stop later stages"

        for stage, path in inputs.items():
            assert summaries[stage].anomalies == _count_anomalies(tm, path)

    def test_all_clean_pipeline_passes(self, tiny_model, monitor_fixtures, tmp_path):
        inputs = {"build": str(monitor_fixtures["clean"]),
                  "deploy": str(monitor_fixtures["clean"])}
        summaries, status = monitor.stage_run(tiny_model["tm"], inputs, tmp_path / "logs")
        assert status == monitor.EXIT_OK
        assert set(summaries) == {"build", "deploy"}

    def test_operational_failure_stops_the_run(self, tiny_model, monitor_fixtures, tmp_path):
        inputs = {
            "build": str(tmp_path / "missing.csv"),
            "test": str(monitor_fixtures["clean"]),
        }
        summaries, status = monitor.stage_run(tiny_model["tm"], inputs, tmp_path / "logs")
        assert status == monitor.EXIT_FAILURE
        assert summaries["build"] is None
        assert "test" not in summaries, "failure must stop later stages"
        build_log = (tmp_path / "logs" / "build.log").read_text(encoding="utf-8")
        assert build_log.startswith("# error stage=build")


# ---------------------------------------------------------------------------
# stage-run as one scoring pass: stages share tiles, every log reads as if
# its stage ran alone


_ELAPSED = re.compile(r"elapsed_ms=\d+")


def _masked(path):
    """A log's text with the only field that may differ between runs masked."""
    return _ELAPSED.sub("elapsed_ms=-", path.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def stage_pool(tiny_model):
    """A clean synthetic header and 140 rows, and the column of the model's
    first selected feature."""
    header, *rows = synth.flow_csv(140, profile="ids2017", seed=21, missing_fraction=0.0,
                                   separation=1.8).splitlines()
    return header, rows, header.split(",").index(tiny_model["tm"].feature_names[0])


def _stage_input(path, pool, n, offset=0):
    """`n` scorable rows, a truncated row before them and a row missing a
    selected value in their middle: n + 2 rows, 2 of them skipped."""
    header, rows, col = pool
    body = rows[offset:offset + n]
    missing = rows[offset + n].split(",")
    missing[col] = "NaN"
    body.insert(n // 2, ",".join(missing))
    body.insert(0, rows[offset + n + 1][:40])
    path.write_text("\n".join([header] + body) + "\n", encoding="utf-8")
    return str(path)


def _counting_forwards(monkeypatch):
    calls = []
    real = pipeline.CnnLstmModel.forward_logits

    def counting(self, X, train=False):
        calls.append(len(X))
        return real(self, X, train)

    monkeypatch.setattr(pipeline.CnnLstmModel, "forward_logits", counting)
    return calls


def _pass_forwards(rows):
    """What `_counting_forwards` records for `rows` scorable rows scored in
    order: one forward per pass of up to PASS_TILES tiles, whose len(X) is
    its tile count when it takes several tiles as [tiles, TILE_ROWS,
    features], and TILE_ROWS for a one-tile pass, which stays 2-D."""
    tiles = -(-rows // monitor.TILE_ROWS)
    passes = [monitor.PASS_TILES] * (tiles // monitor.PASS_TILES)
    if tiles % monitor.PASS_TILES:
        passes.append(tiles % monitor.PASS_TILES)
    return [monitor.TILE_ROWS if k == 1 else k for k in passes]


def _solo(tm, path, stage, log, threshold=0.5):
    """run_monitor over one stage input, as the `monitor` command runs it."""
    return monitor.run_monitor(path, tm, monitor.MonitorConfig(stage=stage,
                                                               alert_threshold=threshold),
                               log_path=log)


class TestStageRunOnePass:
    @pytest.mark.parametrize("counts", [(0, 1, 31, 33), (65, 0, 33, 1), (33, 65, 0, 31),
                                        (1, 31, 0, 0)])
    def test_logs_equal_one_monitor_run_per_stage(self, tiny_model, stage_pool, tmp_path,
                                                  monkeypatch, counts):
        tm = tiny_model["tm"]
        inputs = {stage: _stage_input(tmp_path / f"{stage}.csv", stage_pool, n, 9 * i)
                  for i, (stage, n) in enumerate(zip(monitor.STAGES, counts))}
        calls = _counting_forwards(monkeypatch)
        summaries, status = monitor.stage_run(tm, inputs, tmp_path / "staged")
        monkeypatch.undo()
        assert calls == _pass_forwards(sum(counts))

        statuses = []
        for stage, path in inputs.items():
            solo = tmp_path / f"solo-{stage}.log"
            want = _solo(tm, path, stage, solo)
            assert _masked(tmp_path / "staged" / f"{stage}.log") == _masked(solo)
            got = summaries[stage]
            assert (got.total, got.skipped, got.anomalies, got.per_class) == \
                (want.total, want.skipped, want.anomalies, want.per_class)
            assert got.skipped == 2
            statuses.append(want.exit_status)
        assert status == max(statuses)
        assert list(summaries) == list(monitor.STAGES)
        assert sum(s.anomalies for s in summaries.values()) > 0, "no line was compared"

    def test_gate_fixtures_take_one_forward_pass(self, tiny_model, monitor_fixtures, tmp_path,
                                                 monkeypatch):
        inputs = {"build": str(monitor_fixtures["clean"]),
                  "test": str(monitor_fixtures["clean"]),
                  "deploy": str(monitor_fixtures["three_flow"]),
                  "monitor": str(monitor_fixtures["clean"])}
        calls = _counting_forwards(monkeypatch)
        summaries, status = monitor.stage_run(tiny_model["tm"], inputs, tmp_path / "logs")
        assert status == monitor.EXIT_ANOMALIES
        assert sum(s.total - s.skipped for s in summaries.values()) <= monitor.TILE_ROWS
        assert calls == [monitor.TILE_ROWS]


def _reordered(path, source, order):
    """The rows of the CSV at `source` with their cells picked in `order`
    (a short row keeps the ones it has), written to `path`."""
    rows = [ln.split(",") for ln in Path(source).read_text(encoding="utf-8").splitlines()]
    text = "".join(",".join(r[i] for i in order if i < len(r)) + "\n" for r in rows)
    Path(path).write_text(text, encoding="utf-8")
    return str(path)


def _counting_resolves(monkeypatch):
    """The header rows the scoring reader resolves."""
    headers = []
    real = pipeline._resolve_schema

    def counting(header):
        headers.append(tuple(header))
        return real(header)

    monkeypatch.setattr(pipeline, "_resolve_schema", counting)
    return headers


class TestHeaderResolvedOncePerRun:
    """A run resolves each distinct header among its inputs once, and never
    reuses a schema from an earlier run."""

    THRESHOLD = 0.0         # every row with a non-Benign verdict is logged

    def test_reordered_columns_in_one_run(self, tiny_model, stage_pool, tmp_path,
                                          monkeypatch):
        tm = tiny_model["tm"]
        n_cols = len(stage_pool[0].split(","))
        inputs = {stage: _stage_input(tmp_path / f"{stage}.csv", stage_pool, 20, 9 * i)
                  for i, stage in enumerate(monitor.STAGES)}
        inputs["test"] = _reordered(tmp_path / "test-reversed.csv", inputs["test"],
                                    range(n_cols - 1, -1, -1))
        inputs["monitor"] = _reordered(tmp_path / "monitor-rotated.csv", inputs["monitor"],
                                       [(i + 7) % n_cols for i in range(n_cols)])
        resolves = _counting_resolves(monkeypatch)
        summaries, _ = monitor.stage_run(tm, inputs, tmp_path / "staged",
                                         alert_threshold=self.THRESHOLD)
        monkeypatch.undo()
        assert len(resolves) == len(set(resolves)) == 3

        for stage, path in inputs.items():
            solo = tmp_path / f"solo-{stage}.log"
            _solo(tm, path, stage, solo, self.THRESHOLD)
            assert _masked(tmp_path / "staged" / f"{stage}.log") == _masked(solo)
        assert summaries["test"].anomalies and summaries["monitor"].anomalies

    def test_a_later_run_reads_a_rewritten_header(self, tiny_model, stage_pool, tmp_path,
                                                  monkeypatch):
        from flowsentry import cli

        n_cols = len(stage_pool[0].split(","))
        inputs = {stage: _stage_input(tmp_path / f"{stage}.csv", stage_pool, 20, 9 * i)
                  for i, stage in enumerate(monitor.STAGES)}
        argv = (["stage-run", "--model", str(tiny_model["path"]),
                 "--threshold", str(self.THRESHOLD)]
                + [a for stage, path in inputs.items() for a in (f"--{stage}-input", path)])
        resolves = _counting_resolves(monkeypatch)
        assert cli.main(argv + ["--out-dir", str(tmp_path / "first")]) == monitor.EXIT_ANOMALIES
        _reordered(inputs["deploy"], inputs["deploy"], range(n_cols - 1, -1, -1))
        assert cli.main(argv + ["--out-dir", str(tmp_path / "second")]) == monitor.EXIT_ANOMALIES
        monkeypatch.undo()
        assert len(resolves) == 1 + 2

        solo = tmp_path / "solo-deploy.log"
        assert _solo(tiny_model["tm"], inputs["deploy"], "deploy", solo, self.THRESHOLD).anomalies
        assert _masked(tmp_path / "second" / "deploy.log") == _masked(solo)


def _spy_reads(monkeypatch):
    """Counts, per input, the rows the monitor's reader yields and how many
    of them are scorable."""
    reads = []
    real = monitor.iter_selected_rows

    def spy(lines, schema, names):
        counts = [0, 0]
        reads.append(counts)
        for row in real(lines, schema, names):
            counts[0] += 1
            counts[1] += isinstance(row, tuple) and row[0] is not None
            yield row

    monkeypatch.setattr(monitor, "iter_selected_rows", spy)
    return reads


def _promised_lines(tm, pool, rows, stage, tmp_path, threshold):
    """The anomaly lines of the first `rows` data rows: what the log of an
    input that fails after them must hold."""
    header, body = pool
    prefix = tmp_path / f"prefix-{stage}.csv"
    prefix.write_text("\n".join([header] + body[:rows]) + "\n", encoding="utf-8")
    log = tmp_path / f"prefix-{stage}.log"
    _solo(tm, prefix, stage, log, threshold)
    return [ln for ln in log.read_text(encoding="utf-8").splitlines()
            if not ln.startswith("#")]


def _failing_input(kind, tmp_path, stage_pool):
    """(path, header, data rows) of an input that fails as `kind` says; a
    non-UTF-8 byte sits in row 81, after more than 32 scorable rows."""
    header, rows, _ = stage_pool
    body = rows[40:130]
    path = tmp_path / f"failing-{kind}.csv"
    if kind == "missing":
        return path, header, []
    if kind == "schema":
        path.write_text("\n".join([header.lower()] + body) + "\n", encoding="utf-8")
        return path, header, body
    data = ("\n".join([header] + body) + "\n").encode("utf-8")
    cut = data.index(body[80].encode("utf-8")) + 5
    path.write_bytes(data[:cut] + b"\xff" + data[cut:])
    return path, header, body


class TestStageRunFailure:
    """An operational failure in a later stage: earlier stages finish as if
    run alone, the failing stage logs every row read before the failure and
    then its `# error` line, and later stages get no log."""

    THRESHOLD = 0.0         # every row with a non-Benign verdict is logged

    @pytest.mark.parametrize("kind", ["missing", "schema", "not_utf8"])
    def test_failing_stage_logs_what_it_read(self, tiny_model, stage_pool, tmp_path,
                                             monkeypatch, kind):
        tm = tiny_model["tm"]
        failing, header, body = _failing_input(kind, tmp_path, stage_pool)
        inputs = {"build": _stage_input(tmp_path / "build.csv", stage_pool, 33),
                  "test": _stage_input(tmp_path / "test.csv", stage_pool, 1, 50),
                  "deploy": str(failing),
                  "monitor": _stage_input(tmp_path / "monitor.csv", stage_pool, 3)}
        reads = _spy_reads(monkeypatch)
        out = tmp_path / "staged"
        summaries, status = monitor.stage_run(tm, inputs, out, alert_threshold=self.THRESHOLD)
        monkeypatch.undo()

        statuses = []
        for stage in ("build", "test"):
            solo = tmp_path / f"solo-{stage}.log"
            want = _solo(tm, inputs[stage], stage, solo, self.THRESHOLD)
            assert _masked(out / f"{stage}.log") == _masked(solo)
            assert summaries[stage].anomalies == want.anomalies
            statuses.append(want.exit_status)
        assert summaries["deploy"] is None and "monitor" not in summaries
        assert not (out / "monitor.log").exists()
        assert status == max(statuses + [monitor.EXIT_FAILURE])

        with pytest.raises((OSError, FlowSentryError)) as err:
            _solo(tm, failing, "deploy", tmp_path / "solo-deploy.log", self.THRESHOLD)
        read = reads[2][0] if len(reads) > 2 else 0
        promised = _promised_lines(tm, (header, body), read, "deploy", tmp_path,
                                   self.THRESHOLD)
        got = (out / "deploy.log").read_text(encoding="utf-8").splitlines()
        assert got == promised + [f"# error stage=deploy {err.value}"]
        expected_error = {
            "missing": f"[Errno 2] No such file or directory: '{failing}'",
            "schema": f"input lacks selected feature(s) {list(tm.feature_names)}",
            "not_utf8": f"{failing}: not UTF-8 text (invalid start byte)",
        }[kind]
        assert got[-1] == f"# error stage=deploy {expected_error}"
        if kind == "not_utf8":
            # more rows than fill whole tiles: the last, partial tile is logged too
            assert reads[2][1] > monitor.TILE_ROWS and reads[2][1] % monitor.TILE_ROWS
            assert len(promised) > 0

    def test_unwritable_later_log_leaves_earlier_logs_whole(self, tiny_model, stage_pool,
                                                             tmp_path):
        tm = tiny_model["tm"]
        inputs = {"build": _stage_input(tmp_path / "build.csv", stage_pool, 33),
                  "test": _stage_input(tmp_path / "test.csv", stage_pool, 1, 50)}
        out = tmp_path / "staged"
        (out / "test.log").mkdir(parents=True)          # opening the log fails
        with pytest.raises(IsADirectoryError):
            monitor.stage_run(tm, inputs, out)
        solo = tmp_path / "solo-build.log"
        _solo(tm, inputs["build"], "build", solo)
        assert _masked(out / "build.log") == _masked(solo)

    def test_monitor_command_logs_rows_read_before_a_bad_byte(self, tiny_model, stage_pool,
                                                              tmp_path, monkeypatch, capsys):
        from flowsentry import cli

        failing, header, body = _failing_input("not_utf8", tmp_path, stage_pool)
        reads = _spy_reads(monkeypatch)
        out = tmp_path / "out"
        rc = cli.main(["monitor", "--model", str(tiny_model["path"]), "--input", str(failing),
                       "--stage", "deploy", "--threshold", str(self.THRESHOLD),
                       "--out-dir", str(out)])
        monkeypatch.undo()
        assert rc == monitor.EXIT_FAILURE
        assert capsys.readouterr().err == \
            f"error: {failing}: not UTF-8 text (invalid start byte)\n"
        [(read, scorable)] = reads
        assert scorable > monitor.TILE_ROWS and scorable % monitor.TILE_ROWS
        promised = _promised_lines(tiny_model["tm"], (header, body), read, "deploy", tmp_path,
                                   self.THRESHOLD)
        assert promised
        assert (out / "deploy.log").read_text(encoding="utf-8").splitlines() == promised


# ---------------------------------------------------------------------------
# each log takes a pass's anomaly lines in one write


class _Recording:
    """A sink that keeps the text of each write call, writing through to
    the file under it when there is one."""

    def __init__(self, fh=None):
        self.fh, self.writes = fh, []

    def write(self, text):
        self.writes.append(text)
        if self.fh is not None:
            self.fh.write(text)

    def flush(self):
        if self.fh is not None:
            self.fh.flush()

    def close(self):
        self.fh.close()


def _alerts_per_pass(tm, path, threshold):
    """For each pass of the input's scorable rows that holds an alert, in
    order, its number of alerts under the default class rule."""
    with pipeline.open_scoring_input(path, tm) as (schema, fh):
        values = [row[0] for row in flowdata.iter_selected_rows(fh, schema, tm.feature_names)
                  if isinstance(row, tuple) and row[0] is not None]
    probs = tm.predict_proba(tm.transform_matrix(values))
    best = probs.argmax(axis=1)
    pass_rows = monitor.TILE_ROWS * monitor.PASS_TILES
    passes = Counter(i // pass_rows for i, k in enumerate(best)
                     if tm.class_names[k] != "Benign" and probs[i, k] >= threshold)
    return [passes[p] for p in sorted(passes)]


class TestOneWritePerTile:
    THRESHOLD = 0.0         # every row with a non-Benign verdict is logged

    def test_monitor_writes_each_tile_once(self, tiny_model, stage_pool, tmp_path):
        tm = tiny_model["tm"]
        path = _stage_input(tmp_path / "in.csv", stage_pool, 100)
        want = _alerts_per_pass(tm, path, self.THRESHOLD)
        assert len(want) >= 2, "the input needs alerts in more than one pass"
        sink = _Recording()
        summary = monitor.run_monitor(
            path, tm, monitor.MonitorConfig(alert_threshold=self.THRESHOLD), sink=sink)
        *passes, block = sink.writes
        assert [text.count("\n") for text in passes] == want
        assert all(text.endswith("\n") and "#" not in text for text in passes)
        assert block.startswith("# summary stage=monitor")
        assert sum(want) == summary.anomalies

    def test_stages_sharing_a_tile_get_one_write_each(self, tiny_model, stage_pool, tmp_path,
                                                       monkeypatch):
        tm = tiny_model["tm"]
        inputs = {"build": _stage_input(tmp_path / "build.csv", stage_pool, 12),
                  "test": _stage_input(tmp_path / "test.csv", stage_pool, 12, 20)}
        sinks = {}

        def recording_open(path, *args, **kwargs):
            sinks[Path(path).stem] = _Recording(open(path, *args, **kwargs))
            return sinks[Path(path).stem]

        monkeypatch.setattr(monitor, "open", recording_open, raising=False)
        out = tmp_path / "logs"
        summaries, status = monitor.stage_run(tm, inputs, out, alert_threshold=self.THRESHOLD)
        monkeypatch.undo()
        assert status == monitor.EXIT_ANOMALIES
        for stage in inputs:
            anomalies = summaries[stage].anomalies
            assert anomalies > 0, f"{stage} needs an alert in the shared tile"
            lines, block = sinks[stage].writes
            assert lines.count("\n") == anomalies and "#" not in lines
            assert block.startswith(f"# summary stage={stage}")
            assert (out / f"{stage}.log").read_text(encoding="utf-8") == lines + block


# ---------------------------------------------------------------------------
# the gate's outputs, pinned


def _damaged_stream(n=335, seed=31):
    """A header and `n` synthetic flow rows with about 3% missing cells,
    every 23rd row given a non-numeric feature cell and every 37th row cut
    short."""
    header, *rows = synth.flow_csv(n, profile="ids2017", seed=seed, missing_fraction=0.03,
                                   separation=1.8).splitlines()
    col = header.split(",").index("Flow Duration")
    for i in range(5, n, 23):
        cells = rows[i].split(",")
        cells[col] = "n/a"
        rows[i] = ",".join(cells)
    for i in range(11, n, 37):
        rows[i] = rows[i][:60]
    return header, rows


# SHA-256 of each log's text with elapsed_ms masked: `monitor` over the whole
# stream, and `stage-run` over four slices of it (70, 3, 130 and 132 rows).
# Their scorable rows fill four whole passes, share passes across stage
# boundaries, and end in a two-tile pass whose second tile is partial.
_GATE_LOG_DIGESTS = {
    "monitor/deploy.log":
        "9795b734ca92c8e70048a8e27b7d474f2acdfc6f1636b8a188d1599158629b90",
    "staged/build.log":
        "bb0420d3c722fcec484b600a7eb702734c741f8b14e6af49450fec8dfd9633e1",
    "staged/test.log":
        "e1f18f669e65d9e6851b2616ce31784d115891b0212ce44212dc0b98c663214e",
    "staged/deploy.log":
        "863dfebd1f8015d31426013cd794d6536f656a0d3d214f503dcb8cb5560dd1c2",
    "staged/monitor.log":
        "d96f0368605944236df5dfbf1618b153914a4c0d6e300e1d2576e25b26e40953",
}


def test_gate_logs_are_pinned(tiny_model, tmp_path):
    """Any rework of the scoring path (tile or pass sizes, batched layers,
    the reader) must keep these bytes."""
    from flowsentry import cli

    header, rows = _damaged_stream()
    stream = tmp_path / "stream.csv"
    stream.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    model = str(tiny_model["path"])
    assert cli.main(["monitor", "--model", model, "--input", str(stream), "--stage", "deploy",
                     "--out-dir", str(tmp_path / "monitor")]) == monitor.EXIT_ANOMALIES
    argv = ["stage-run", "--model", model, "--out-dir", str(tmp_path / "staged")]
    start = 0
    for stage, n in zip(monitor.STAGES, (70, 3, 130, 132)):
        path = tmp_path / f"{stage}.csv"
        path.write_text("\n".join([header] + rows[start:start + n]) + "\n", encoding="utf-8")
        argv += [f"--{stage}-input", str(path)]
        start += n
    assert start == len(rows)
    assert cli.main(argv) == monitor.EXIT_ANOMALIES
    got = {name: hashlib.sha256(_masked(tmp_path / name).encode("utf-8")).hexdigest()
           for name in _GATE_LOG_DIGESTS}
    assert got == _GATE_LOG_DIGESTS


# ---------------------------------------------------------------------------
# a large input is read in a forked child


def _every_damage(tmp_path, bad_byte=False):
    """600 rows of `_damaged_stream` (missing markers, non-numeric cells,
    short rows) with blank lines, CRLF endings, Flow IDs quoted round a
    comma and a newline, a field over `csv.field_size_limit()` and an
    unterminated last line, about 360 KB: several of the child's batches.
    With `bad_byte`, a non-UTF-8 byte sits in the third-last row."""
    header, rows = _damaged_stream(600, seed=41)
    flow_id = header.split(",").index("Flow ID")
    for i in range(3, len(rows), 41):
        cells = rows[i].split(",")
        cells[flow_id] = f'"flow {i},\n{cells[flow_id]}"'
        rows[i] = ",".join(cells)
    cells = rows[100].split(",")
    cells[flow_id] = "x" * (csv.field_size_limit() + 1)
    rows[100] = ",".join(cells)
    body = "".join(row + ("\r\n" if i % 5 == 0 else "\n") + ("\n" if i % 29 == 0 else "")
                   for i, row in enumerate(rows))
    data = (header + "\n" + body).rstrip("\r\n").encode("utf-8")
    if bad_byte:
        cut = data.index(rows[-3].encode("utf-8")) + 5
        data = data[:cut] + b"\xff" + data[cut:]
    path = tmp_path / ("not-utf8.csv" if bad_byte else "every-damage.csv")
    path.write_bytes(data)
    return path


@pytest.fixture
def place_reader(monkeypatch):
    """Two usable CPUs, a spy on os.fork, and a function that sends each
    `_every_damage` input to the forked reader ("child"), while tiny stage
    inputs stay inline, or keeps every input in this process ("inline");
    returns that function and the list of forks."""
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    def place(where):
        monkeypatch.setattr(monitor, "CHILD_READ_BYTES",
                            64 * 1024 if where == "child" else 1 << 60)

    return place, forks


def _gate(argv, capsys):
    """A CLI gate call: its exit status and console output, elapsed_ms masked."""
    from flowsentry import cli

    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, _ELAPSED.sub("elapsed_ms=-", captured.out), captured.err


def _gate_argv(command, tm_path, inputs, out):
    """`monitor` over the deploy input alone, or `stage-run` over all four."""
    if command == "monitor":
        return ["monitor", "--model", str(tm_path), "--input", str(inputs["deploy"]),
                "--stage", "deploy", "--threshold", "0.0", "--out-dir", str(out)]
    return (["stage-run", "--model", str(tm_path), "--threshold", "0.0", "--out-dir", str(out)]
            + [a for stage, path in inputs.items() for a in (f"--{stage}-input", str(path))])


def _mixed_inputs(tmp_path, stage_pool, big):
    """One big deploy input among three tiny ones, so passes mix stages."""
    return {"build": _stage_input(tmp_path / "build.csv", stage_pool, 5),
            "test": _stage_input(tmp_path / "test.csv", stage_pool, 3, 20),
            "deploy": str(big),
            "monitor": _stage_input(tmp_path / "monitor.csv", stage_pool, 7, 40)}


def _child_and_inline(place, command, tm_path, inputs, tmp_path, capsys):
    """The gate call with the big input read by the child, then inline: for
    each, its status, console output and error text, and its masked logs."""
    got = []
    for where in ("child", "inline"):
        place(where)
        out = tmp_path / where
        call = _gate(_gate_argv(command, tm_path, inputs, out), capsys)
        got.append((call, {p.name: _masked(p) for p in sorted(out.glob("*.log"))}))
    return got


class TestForkedReader:
    """The child reads the same rows as this process would: the same logs,
    console output and exit status, failures included, and it never
    outlives the call."""

    @pytest.mark.parametrize("command", ["monitor", "stage-run"])
    def test_logs_equal_the_inline_read(self, tiny_model, stage_pool, tmp_path, capsys,
                                        place_reader, command):
        place, forks = place_reader
        inputs = _mixed_inputs(tmp_path, stage_pool, _every_damage(tmp_path))
        child, inline = _child_and_inline(place, command, tiny_model["path"], inputs,
                                          tmp_path, capsys)
        assert len(forks) == 1 and child == inline
        (rc, _, err), logs = child
        assert rc == monitor.EXIT_ANOMALIES and err == ""
        deploy = logs["deploy.log"]
        assert "# total=600 " in deploy and "flow=flow-3,-" in deploy
        assert deploy.count("\n") > 2 * monitor.TILE_ROWS * monitor.PASS_TILES

    @pytest.mark.parametrize("command", ["monitor", "stage-run"])
    def test_a_bad_byte_fails_as_inline(self, tiny_model, stage_pool, tmp_path, capsys,
                                        place_reader, command):
        place, forks = place_reader
        big = _every_damage(tmp_path, bad_byte=True)
        inputs = _mixed_inputs(tmp_path, stage_pool, big)
        child, inline = _child_and_inline(place, command, tiny_model["path"], inputs,
                                          tmp_path, capsys)
        assert len(forks) == 1 and child == inline
        (rc, _, err), logs = child
        message = f"{big}: not UTF-8 text (invalid start byte)"
        *lines, last = logs["deploy.log"].splitlines()
        assert len(lines) > monitor.TILE_ROWS * monitor.PASS_TILES
        if command == "monitor":
            assert rc == monitor.EXIT_FAILURE and err == f"error: {message}\n"
        else:           # the build stage's anomalies (2) outrank the failure (1)
            assert rc == monitor.EXIT_ANOMALIES and last == f"# error stage=deploy {message}"
            assert "monitor.log" not in logs

    def test_a_reader_that_dies_is_an_operational_error(self, tiny_model, tmp_path, capsys,
                                                        place_reader, monkeypatch):
        place, forks = place_reader
        place("child")
        parent, real = os.getpid(), monitor._scoring_rows

        def dying(lines, schema, names):
            for i, row in enumerate(real(lines, schema, names)):
                assert os.getpid() != parent, "the rows were read in this process"
                if i == 200:
                    os._exit(3)
                yield row

        monkeypatch.setattr(monitor, "_scoring_rows", dying)
        big = _every_damage(tmp_path)
        rc, _, err = _gate(_gate_argv("monitor", tiny_model["path"], {"deploy": big},
                                      tmp_path / "out"), capsys)
        assert forks and rc == monitor.EXIT_FAILURE
        assert err == \
            f"error: {big}: the row reader process ended before the end of the input\n"

    @pytest.mark.parametrize("failure", [OSError(28, "No space left on device"),
                                         KeyboardInterrupt()])
    def test_a_failing_sink_leaves_the_child_reaped(self, tiny_model, tmp_path, place_reader,
                                                    failure):
        place, forks = place_reader
        place("child")

        class FailingSink(io.StringIO):
            def write(self, text):
                if self.tell():
                    raise failure
                return super().write(text)

        with pytest.raises(type(failure)):
            monitor.run_monitor(_every_damage(tmp_path), tiny_model["tm"],
                                monitor.MonitorConfig(alert_threshold=0.0), sink=FailingSink())
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("case", ["one-cpu", "follow", "fifo", "small"])
    def test_no_fork_where_it_cannot_help(self, tiny_model, stage_pool, tmp_path,
                                          place_reader, monkeypatch, case):
        place, forks = place_reader
        path = _every_damage(tmp_path)
        config = monitor.MonitorConfig(alert_threshold=0.0)
        writer = None
        if case == "small":         # below the module's own threshold
            path = _stage_input(tmp_path / "small.csv", stage_pool, 20)
        else:
            place("child")
        if case == "one-cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        elif case == "follow":
            config = monitor.MonitorConfig(alert_threshold=0.0, follow=True, idle_timeout=0.0)
        elif case == "fifo":
            data, path = path.read_bytes(), tmp_path / "fifo.csv"
            os.mkfifo(path)
            writer = threading.Thread(target=path.write_bytes, args=(data,))
            writer.start()
        summary = monitor.run_monitor(path, tiny_model["tm"], config, sink=io.StringIO())
        if writer is not None:
            writer.join(timeout=60)
            assert not writer.is_alive()
        assert forks == [] and summary.total - summary.skipped > 0

    def test_a_failed_fork_reads_inline(self, tiny_model, tmp_path, place_reader,
                                        monkeypatch):
        place, _ = place_reader
        tm, big = tiny_model["tm"], _every_damage(tmp_path)
        config = monitor.MonitorConfig(alert_threshold=0.0)
        place("inline")
        inline = io.StringIO()
        monitor.run_monitor(big, tm, config, sink=inline)

        refused = []

        def no_fork():
            refused.append(1)
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        place("child")
        fallback = io.StringIO()
        monitor.run_monitor(big, tm, config, sink=fallback)
        assert refused == [1]
        assert _ELAPSED.sub("", fallback.getvalue()) == _ELAPSED.sub("", inline.getvalue())

    @pytest.mark.parametrize("command", ["monitor", "stage-run"])
    def test_manifest_digest_is_the_input_bytes(self, tiny_model, stage_pool, tmp_path,
                                                capsys, place_reader, command):
        place, forks = place_reader
        place("child")
        big = _every_damage(tmp_path)
        out = tmp_path / "out"
        inputs = _mixed_inputs(tmp_path, stage_pool, big)
        assert _gate(_gate_argv(command, tiny_model["path"], inputs, out), capsys)[0] == \
            monitor.EXIT_ANOMALIES
        assert len(forks) == 1
        manifest = json.loads((out / "run-manifest.json").read_text(encoding="utf-8"))
        assert manifest["inputs"][str(big)] == hashlib.sha256(big.read_bytes()).hexdigest()
