"""Pipeline-stage flow scoring with anomaly log emission and gating exit codes.

Exit codes: 0 clean, 2 when at least one anomaly was flagged, 1 on
operational failure (unreadable input, schema mismatch, unwritable sink).
Malformed or unscorable rows are skipped and counted, never fatal.
"""

from __future__ import annotations

import datetime as _dt
import os
import re
import stat
import time
from contextlib import closing, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from .errors import FlowSentryError, InputError, ParameterError, RowError
from .flowdata import (FlowRecord, _identity_cells, items_from_child, iter_selected_rows,
                       second_cpu_usable)
from .flowdata import iter_flow_rows  # noqa: F401  unused; perfbench/tracer.py wraps it here
from .pipeline import PASS_TILES, TILE_ROWS, TrainedModel, open_scoring_input
import numpy as np

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_ANOMALIES = 2
EXIT_USAGE = 64

STAGES = ("build", "test", "deploy", "monitor")

# A regular input of at least this many bytes is read in a forked child
# (`flowdata.items_from_child`) when more than one CPU is usable.  Medians of 36
# alternated in-process `monitor` calls per size over prefixes of a
# 2,000-row flow CSV, one BLAS thread, on a 2-vCPU VM (inline -> child):
# 150 rows (58 KB) 11.9 -> 18.8 ms, 300 rows (115 KB) 19.3 -> 24.4 ms,
# 600 rows (228 KB) 36.7 -> 37.3 ms, 800 rows (305 KB) 47.8 -> 45.7 ms,
# 1,000 rows (381 KB) 59.7 -> 51.7 ms.  The break-even is near 650 rows,
# or 250 KB; fork plus waitpid alone is about 4 ms.
CHILD_READ_BYTES = 256 * 1024


@dataclass(frozen=True)
class MonitorConfig:
    stage: str = "monitor"
    alert_threshold: float = 0.5
    anomalous_classes: tuple[str, ...] | None = None   # None: every non-Benign class
    follow: bool = False
    poll_interval: float = 0.5
    idle_timeout: float | None = None                  # follow mode stop condition

    def __post_init__(self):
        if self.stage not in STAGES:
            raise ParameterError(f"stage {self.stage!r} not one of {STAGES}")
        if not 0.0 <= self.alert_threshold <= 1.0:
            raise ParameterError("alert threshold must lie in [0, 1]")
        if self.poll_interval <= 0:
            raise ParameterError("poll interval must be > 0")


@dataclass(frozen=True)
class AnomalyLogEntry:
    timestamp: str          # ISO-8601 UTC, no suffix (the Z is added on the wire)
    stage: str
    verdict: str
    confidence: float
    flow_id: str | None = None
    src: str | None = None
    dst: str | None = None


def _token(value: str | None) -> str:
    if value is None or value == "":
        return "-"
    return "-".join(value.split())


def alert_tokens(class_names, anomalous_classes=None) -> list[str | None]:
    """The alert rule, per class index: the class's verdict token when its
    verdict raises an alert, or None when it does not.  Every class but
    Benign alerts, unless `anomalous_classes` names the ones that do."""
    if anomalous_classes is None:
        anomalous = {c for c in class_names if c != "Benign"}
    else:
        anomalous = set(anomalous_classes)
        unknown = anomalous - set(class_names)
        if unknown:
            raise ParameterError(f"anomalous classes {sorted(unknown)} not in the model's set")
    return [_token(name) if name in anomalous else None for name in class_names]


_LINE_RE = re.compile(
    r"^\[(?P<ts>[0-9T:.+\-]+)Z\] stage=(?P<stage>\S+) flow=(?P<flow>\S+) "
    r"src=(?P<src>\S+) dst=(?P<dst>\S+) verdict=(?P<verdict>\S+) "
    r"confidence=(?P<conf>[01]\.\d{3})$"
)


def _entry_line(timestamp, stage, flow_id, src, dst, verdict_token, confidence) -> str:
    """The anomaly grammar, written once: format_entry and the monitor's pass
    flush, which tokenises each verdict once per run, both build lines here."""
    return (
        f"[{timestamp}Z] stage={stage} flow={_token(flow_id)} "
        f"src={_token(src)} dst={_token(dst)} "
        f"verdict={verdict_token} confidence={confidence:.3f}"
    )


def format_entry(entry: AnomalyLogEntry) -> str:
    return _entry_line(entry.timestamp, entry.stage, entry.flow_id, entry.src, entry.dst,
                       _token(entry.verdict), entry.confidence)


def parse_entry(line: str) -> AnomalyLogEntry:
    """Inverse of format_entry; the verdict stays a token (spaces as dashes)."""
    m = _LINE_RE.match(line.strip())
    if m is None:
        raise InputError(f"line does not match the anomaly grammar: {line!r}")

    def detok(v):
        return None if v == "-" else v

    return AnomalyLogEntry(
        timestamp=m.group("ts"),
        stage=m.group("stage"),
        verdict=m.group("verdict"),
        confidence=float(m.group("conf")),
        flow_id=detok(m.group("flow")),
        src=detok(m.group("src")),
        dst=detok(m.group("dst")),
    )


_TS_FORMATS = (
    "%d/%m/%Y %H:%M:%S",
    "%d/%m/%Y %H:%M",
    "%m/%d/%Y %H:%M:%S",
    "%m/%d/%Y %H:%M",
)


def _render_timestamp(raw: str | None) -> str:
    """Record-supplied timestamps render as UTC: one with an offset is
    converted, one without is taken as UTC already.  Unparseable ones fall
    back to the scoring wall clock."""
    if raw:
        text = raw.strip()
        try:
            dt = _dt.datetime.fromisoformat(text.replace("Z", "+00:00"))
        except ValueError:
            pass
        else:
            if dt.tzinfo is not None:
                dt = dt.astimezone(_dt.timezone.utc).replace(tzinfo=None)
            return dt.isoformat()
        for fmt in _TS_FORMATS:
            try:
                return _dt.datetime.strptime(text, fmt).isoformat()
            except ValueError:
                continue
    now = _dt.datetime.now(_dt.timezone.utc).replace(tzinfo=None)
    return now.isoformat(timespec="seconds")


def score_flow(model: TrainedModel, record: FlowRecord):
    """(verdict, confidence, distribution) for one parsed flow.

    The per-record form of what the monitor does a pass at a time, and
    `evaluate` and `predict` for a whole input.  None of them builds a
    record for a clean row: `iter_selected_rows` reads its selected values
    straight into the matrix that goes through the same `transform_matrix`
    as `transform_record` does.  So the result is bitwise the same as the
    flow's inside any monitor pass, because predict_proba scores every row
    in a tile of the same shape.
    """
    dist = model.predict_proba(model.transform_record(record)[None, :])[0]
    idx = int(np.argmax(dist))
    return model.class_names[idx], float(dist[idx]), dist


@dataclass
class MonitorSummary:
    stage: str
    total: int = 0
    skipped: int = 0
    anomalies: int = 0
    per_class: dict[str, int] = field(default_factory=dict)
    elapsed_ms: int = 0

    @property
    def exit_status(self) -> int:
        return EXIT_ANOMALIES if self.anomalies > 0 else EXIT_OK


def _summary_block(summary: MonitorSummary, class_names) -> str:
    lines = [
        f"# summary stage={summary.stage}",
        f"# total={summary.total} anomalies={summary.anomalies} "
        f"skipped={summary.skipped} elapsed_ms={summary.elapsed_ms}",
    ]
    for name in class_names:
        lines.append(f"# class {_token(name)}={summary.per_class.get(name, 0)}")
    return "\n".join(lines)


def _follow_lines(fh, poll_interval: float, idle_timeout: float | None, on_idle):
    """Yield complete text lines from an open file as it grows; stop after
    idle_timeout seconds without new data (None keeps polling forever).
    `on_idle` is called each time a poll finds no new data, before the sleep."""
    buf = ""
    idle = 0.0
    while True:
        chunk = fh.read()
        if chunk:
            idle = 0.0
            *lines, buf = (buf + chunk).split("\n")
            for line in lines:
                yield line + "\n"
        else:
            if idle_timeout is not None and idle >= idle_timeout:
                if buf:
                    yield buf
                return
            on_idle()
            time.sleep(poll_interval)
            idle += poll_interval


def _scoring_rows(lines, schema, names):
    """The monitor's rows, one item per data row: None for a row it skips,
    or (values, identity), the row's `names` values and its
    `_identity_cells`, taken as it is read so that no row keeps its cells."""
    for row in iter_selected_rows(lines, schema, names):
        if isinstance(row, RowError) or row[0] is None:
            yield None
        else:
            yield row[0], _identity_cells(schema, row[1])


def _reads_in_child(fh, config: MonitorConfig) -> bool:
    """Whether the rest of `fh` is read in a forked child: a regular file of
    at least CHILD_READ_BYTES, not followed, with a second usable CPU.  The
    child takes over the open input: parent and child share its file
    offset, and this process reads no more of it."""
    if config.follow or not second_cpu_usable():
        return False
    st = os.fstat(fh.fileno())
    return stat.S_ISREG(st.st_mode) and st.st_size >= CHILD_READ_BYTES


class _StageLog:
    """One stage's part in a scoring run: its counters and the sink that
    takes its anomaly lines and summary block (a file opened at `path` when
    no sink is given, closed with the stage)."""

    def __init__(self, stage: str, sink=None, path=None):
        self.summary = MonitorSummary(stage=stage)
        self.sink, self.path, self.own_sink = sink, path, sink is None
        self.started = None

    def open(self):
        if self.own_sink:
            self.sink = open(self.path, "w", encoding="utf-8")
        self.started = time.monotonic()

    def close(self):
        if self.own_sink and self.sink is not None:
            self.sink.close()


class _TileScorer:
    """The scoring loop of `run_monitor` and `stage_run`.

    Stage inputs are read one after another, and their scorable rows wait in
    one shared pass of up to PASS_TILES tiles.  It is encoded, scaled and
    scored at once, one forward pass over [tiles, TILE_ROWS, features], when
    it holds TILE_ROWS * PASS_TILES rows, after the last input, and in
    follow mode whenever a poll finds no new data, so a followed flow never
    waits for later flows.  Each stage's anomaly lines from a pass go to its
    own sink in one write, in input order, and its summary block follows
    once its last row has been scored.  Rows of several stages can share a
    pass without changing a bit, because predict_proba scores every row in a
    tile of exactly TILE_ROWS rows, through GEMMs of one tile each.

    Every input is read by `_scoring_rows`, which keeps of each scorable
    row its selected values and its identity cells.  A regular input of at
    least CHILD_READ_BYTES, not followed, is read by that same generator in
    a forked child when more than one CPU is usable
    (`flowdata.items_from_child`): it parses rows while this process encodes, scores and logs the passes it
    has received.  The rows, their order and so every log byte are the same
    either way.

    A scorer lives for one run: each distinct header among its inputs is
    resolved and checked against the model once, and never in a later run,
    whose files may have changed.  With `digests`, each input's SHA-256 is
    taken through the descriptor that read it (see `open_flow_csv`).
    """

    def __init__(self, model: TrainedModel, config: MonitorConfig, digests=None):
        self.model = model
        self.config = config
        self.digests = digests
        self.alert_tokens = alert_tokens(model.class_names, config.anomalous_classes)
        self.schemas = {}               # header row -> its schema, in this run
        self.pending: list[tuple] = []  # (selected values in model order, identity, stage log)
        self.done: list[_StageLog] = []  # read to the end, waiting for their summary blocks

    def read(self, log: _StageLog, input_path) -> None:
        """Open the stage's log and read its input into the pass.  An
        operational failure (unwritable log, unreadable or non-UTF-8 input,
        absent selected columns) propagates after the rows read before it are
        scored and logged, and every earlier stage is finished."""
        config, pending, summary = self.config, self.pending, log.summary
        try:
            log.open()
            with open_scoring_input(input_path, self.model, self.schemas,
                                    self.digests) as (schema, fh):
                lines = (_follow_lines(fh, config.poll_interval, config.idle_timeout, self.flush)
                         if config.follow else fh)
                rows = _scoring_rows(lines, schema, self.model.feature_names)
                reader = nullcontext(rows)
                if _reads_in_child(fh, config):
                    reader = items_from_child(
                        rows, TILE_ROWS * PASS_TILES,
                        f"{input_path}: the row reader process ended before the end of the input")
                with reader as rows, closing(rows):
                    for row in rows:
                        summary.total += 1
                        if row is None:
                            summary.skipped += 1
                            continue
                        pending.append((*row, log))
                        if len(pending) == TILE_ROWS * PASS_TILES:
                            self.flush()
        except (OSError, FlowSentryError):
            self.flush()
            raise
        self.done.append(log)
        if not pending:
            self.flush()

    def flush(self) -> None:
        """Score the pass and write each stage's anomaly lines from it in one
        write, then the summary block of every stage read to the end."""
        pending = self.pending
        if pending:
            model, class_names = self.model, self.model.class_names
            threshold, tokens = self.config.alert_threshold, self.alert_tokens
            probs = model.predict_proba(model.transform_matrix([v for v, _, _ in pending]))
            best = probs.argmax(axis=1)
            confidences = probs[np.arange(len(probs)), best].tolist()
            rows = pending[:]
            pending.clear()
            out: dict[_StageLog, list[str]] = {}
            for (_, identity, log), k, confidence in zip(rows, best.tolist(), confidences):
                summary = log.summary
                token = tokens[k]
                if token is not None and confidence >= threshold:
                    verdict = class_names[k]
                    summary.anomalies += 1
                    summary.per_class[verdict] = summary.per_class.get(verdict, 0) + 1
                    ts, flow_id, src, dst = identity
                    out.setdefault(log, []).append(_entry_line(
                        _render_timestamp(ts), summary.stage, flow_id, src, dst,
                        token, confidence) + "\n")
            for log, lines in out.items():
                log.sink.write("".join(lines))
                log.sink.flush()
        done, self.done = self.done, []
        for log in done:
            summary = log.summary
            summary.elapsed_ms = int((time.monotonic() - log.started) * 1000)
            log.sink.write(_summary_block(summary, self.model.class_names) + "\n")
            log.sink.flush()
            log.close()


def run_monitor(
    input_path,
    model: TrainedModel,
    config: MonitorConfig = MonitorConfig(),
    sink=None,
    log_path=None,
    digests=None,
) -> MonitorSummary:
    """Score a flow CSV and write anomaly lines plus a trailing summary
    block: the one-stage case of `stage_run`'s loop.  `digests` takes the
    input's SHA-256, as `open_flow_csv` does.

    Raises on operational problems (unreadable or non-UTF-8 input, absent
    selected columns, unwritable sink, a forked reader that dies) once the
    rows read before them are logged; the caller maps that to exit status
    1.  A large input is read in a forked child (see `_TileScorer`), which
    never outlives the call.
    """
    scorer = _TileScorer(model, config, digests)
    if sink is None and log_path is None:
        raise ParameterError("need a sink or a log path")
    log = _StageLog(config.stage, sink, log_path)
    try:
        scorer.read(log, input_path)
        scorer.flush()
    finally:
        log.close()
    return log.summary


def stage_run(
    model: TrainedModel,
    stage_inputs: dict[str, str],
    out_dir,
    alert_threshold: float = 0.5,
    anomalous_classes=None,
    digests=None,
) -> tuple[dict[str, MonitorSummary | None], int]:
    """Run every configured stage in pipeline order, one log file per stage.

    The stage inputs are read in order through one `_TileScorer`, so a pass
    can hold rows of several stages; each log is what `run_monitor` writes
    for its stage alone, `elapsed_ms` apart.  The overall status is the max
    of stage statuses; anomalies (2) do not stop later stages, an
    operational failure (1) does.  The failing stage's log holds the lines
    of the rows read before the failure and ends in an `# error` line;
    later stages get no log.  `digests` takes the SHA-256 of each input
    read, as `open_flow_csv` does.  Each large input is read in a forked
    child (see `_TileScorer`), reaped before the next input is opened.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    config = MonitorConfig(alert_threshold=alert_threshold, anomalous_classes=anomalous_classes)
    stages = [s for s in STAGES if s in stage_inputs]
    if not stages:
        return {}, EXIT_OK
    summaries: dict[str, MonitorSummary | None] = {}
    logs: list[_StageLog] = []
    stage, failure = stages[0], None
    try:
        scorer = _TileScorer(model, config, digests)
        for stage in stages:
            logs.append(_StageLog(stage, path=out / f"{stage}.log"))
            summaries[stage] = logs[-1].summary
            scorer.read(logs[-1], stage_inputs[stage])
        scorer.flush()
    except (OSError, FlowSentryError) as err:
        failure = err
    finally:
        for log in logs:
            log.close()
    if failure is not None:
        summaries[stage] = None
        with open(out / f"{stage}.log", "a", encoding="utf-8") as fh:
            fh.write(f"# error stage={stage} {failure}\n")
    statuses = [s.exit_status for s in summaries.values() if s is not None]
    return summaries, max(statuses + [EXIT_OK if failure is None else EXIT_FAILURE])
