"""Pipeline-stage flow scoring with anomaly log emission and gating exit codes.

Exit codes: 0 clean, 2 when at least one anomaly was flagged, 1 on
operational failure (unreadable input, schema mismatch, unwritable log).
Malformed or unscorable rows are skipped and counted, never fatal.
"""

from __future__ import annotations

import datetime as _dt
import os
import re
import stat
import struct
import time
from contextlib import closing, nullcontext
from dataclasses import dataclass, field

from .errors import FlowSentryError, InputError, ParameterError, RowError
from .flowdata import FlowRecord, _identity_cells, items_from_child, iter_selected_rows
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
# 150 rows (58 KB) 7.0 -> 10.1 ms, 300 rows (115 KB) 9.7 -> 12.4 ms,
# 400 rows (153 KB) 16.1 -> 16.9 ms, 500 rows (191 KB) 15.7 -> 15.6 ms,
# 600 rows (228 KB) 20.7 -> 19.7 ms, 800 rows (305 KB) 23.0 -> 19.9 ms,
# 1,000 rows (381 KB) 27.2 -> 23.6 ms.  A second run also crossed between
# 450 and 500 rows, so the break-even is near 500 rows, or 190 KB.
CHILD_READ_BYTES = 192 * 1024


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
        if not 0 < self.poll_interval < np.inf:
            raise ParameterError("poll interval must be a finite number > 0")
        if self.idle_timeout is not None and not self.idle_timeout >= 0:
            raise ParameterError("idle timeout must be >= 0")


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


def _entry_prefix(timestamp, stage, flow_id, src, dst) -> str:
    """The anomaly grammar up to and including `verdict=`.  With
    `_entry_line` it is the grammar, written once: format_entry and the
    monitor, whose forked reader renders each scorable row's prefix before
    the row is scored, both build lines from here."""
    return (f"[{timestamp}Z] stage={stage} flow={_token(flow_id)} "
            f"src={_token(src)} dst={_token(dst)} verdict=")


def _entry_line(prefix: str, verdict_token: str, confidence: float) -> str:
    """A whole anomaly line from its `_entry_prefix`; the monitor's pass
    flush tokenises each verdict once per run."""
    return f"{prefix}{verdict_token} confidence={confidence:.3f}"


def format_entry(entry: AnomalyLogEntry) -> str:
    prefix = _entry_prefix(entry.timestamp, entry.stage, entry.flow_id, entry.src, entry.dst)
    return _entry_line(prefix, _token(entry.verdict), entry.confidence)


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
    back to the wall clock of this call: the monitor makes it as it scores
    the row, or as it reads the row in a forked reader."""
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
    dist = model.net.predict_proba(model.transform_record(record)[None, :])[0]
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


def _line_prefix(identity, stage) -> str:
    """The `_entry_prefix` of a row's anomaly line from its `_identity_cells`."""
    ts, flow_id, src, dst = identity
    return _entry_prefix(_render_timestamp(ts), stage, flow_id, src, dst)


def _scoring_rows(lines, schema, names, stage, scorer_pid):
    """The monitor's rows, one item per data row: None for a row it skips,
    or (packed, head).  `packed` is the row's `names` values as native
    float64 bytes.  `head` is the row's `_identity_cells`, or, when the
    generator runs in a process forked to read (its pid is not
    `scorer_pid`), the `_line_prefix` of its anomaly line in `stage`,
    rendered there so that the scoring process renders no line but those of
    flagged rows read in it.  No row keeps its cells."""
    forked = os.getpid() != scorer_pid
    pack = struct.Struct(f"{len(names)}d").pack
    for row in iter_selected_rows(lines, schema, names):
        if isinstance(row, RowError) or row[0] is None:
            yield None
        else:
            head = _identity_cells(schema, row[1])
            yield pack(*row[0]), _line_prefix(head, stage) if forked else head


def _reads_in_child(fh, config: MonitorConfig) -> bool:
    """Whether the rest of `fh`, a regular file of at least CHILD_READ_BYTES
    not followed, goes to `flowdata.items_from_child`, which alone decides
    on a forked child.  A child takes over the open input: parent and child
    share its file offset, and this process reads no more of it."""
    if config.follow:
        return False
    st = os.fstat(fh.fileno())
    return stat.S_ISREG(st.st_mode) and st.st_size >= CHILD_READ_BYTES


class _StageLog:
    """One stage's part in a scoring run: its counters and the log file at
    `path` that takes its anomaly lines and summary block, opened with the
    stage and closed with it."""

    def __init__(self, stage: str, path):
        self.summary = MonitorSummary(stage=stage)
        self.path, self.fh = path, None
        self.started = None

    def open(self):
        self.fh = open(self.path, "w", encoding="utf-8")
        self.started = time.monotonic()

    def close(self):
        if self.fh is not None:
            self.fh.close()


class _TileScorer:
    """The scoring loop of `run_monitor` and `stage_run`.

    Stage inputs are read one after another, and their scorable rows wait in
    one shared pass of up to PASS_TILES tiles.  It is encoded, scaled and
    scored at once, one forward pass over [tiles, TILE_ROWS, features], when
    it holds TILE_ROWS * PASS_TILES rows, after the last input, and in
    follow mode whenever a poll finds no new data, so a followed flow never
    waits for later flows.  Each stage's anomaly lines from a pass go to its
    own log file in one write, in input order, and its summary block follows
    once its last row has been scored.  Rows of several stages can share a
    pass without changing a bit, because predict_proba scores every row in a
    tile of exactly TILE_ROWS rows, through GEMMs of one tile each.

    Every input is read by `_scoring_rows`, which keeps of each scorable
    row its selected values, packed as float64 bytes, and its identity
    cells, from which a flagged row's line is rendered.  A regular input of
    at least CHILD_READ_BYTES, not followed, goes to
    `flowdata.items_from_child`, which alone decides on a second CPU: there
    a forked child runs that same generator, parsing rows and rendering the
    prefix of each one's anomaly line, while this process encodes, scores
    and logs the passes it has received, adding a verdict and confidence to
    the prefix of each flagged row.  The rows, their order and so every log
    byte are the same either way, but for a fallback timestamp, which is the
    time its row was read in the child and scored otherwise.

    Each input is checked against the model before its first row is read.
    With `digests`, each input's SHA-256 is taken through the descriptor
    that read it (see `open_flow_csv`).
    """

    def __init__(self, model: TrainedModel, config: MonitorConfig, digests=None):
        self.model = model
        self.config = config
        self.digests = digests
        self.alert_tokens = alert_tokens(model.class_names, config.anomalous_classes)
        self.pending: list[tuple] = []  # (packed selected values, line head, stage log)
        self.done: list[_StageLog] = []  # read to the end, waiting for their summary blocks

    def read(self, log: _StageLog, input_path) -> None:
        """Open the stage's log and read its input into the pass.  An
        operational failure (unwritable log, unreadable or non-UTF-8 input,
        absent selected columns) propagates after the rows read before it are
        scored and logged, and every earlier stage is finished."""
        config, pending, summary = self.config, self.pending, log.summary
        try:
            log.open()
            with open_scoring_input(input_path, self.model, self.digests) as (schema, fh):
                lines = (_follow_lines(fh, config.poll_interval, config.idle_timeout, self.flush)
                         if config.follow else fh)
                rows = _scoring_rows(lines, schema, self.model.feature_names, summary.stage,
                                     os.getpid())
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
            raw = np.frombuffer(b"".join([packed for packed, _, _ in pending]), np.float64)
            probs = model.net.predict_proba(model.transform_matrix(raw))
            best = probs.argmax(axis=1)
            confidences = probs[np.arange(len(probs)), best].tolist()
            rows = pending[:]
            pending.clear()
            out: dict[_StageLog, list[str]] = {}
            for (_, head, log), k, confidence in zip(rows, best.tolist(), confidences):
                token = tokens[k]
                if token is not None and confidence >= threshold:
                    summary, verdict = log.summary, class_names[k]
                    summary.anomalies += 1
                    summary.per_class[verdict] = summary.per_class.get(verdict, 0) + 1
                    if not isinstance(head, str):
                        head = _line_prefix(head, summary.stage)
                    out.setdefault(log, []).append(_entry_line(head, token, confidence) + "\n")
            for log, lines in out.items():
                log.fh.write("".join(lines))
                log.fh.flush()
        done, self.done = self.done, []
        for log in done:
            summary = log.summary
            summary.elapsed_ms = int((time.monotonic() - log.started) * 1000)
            log.fh.write(_summary_block(summary, self.model.class_names) + "\n")
            log.fh.flush()
            log.close()


def run_monitor(
    input_path,
    model: TrainedModel,
    config: MonitorConfig,
    log_path,
    digests=None,
) -> MonitorSummary:
    """Score a flow CSV and write anomaly lines plus a trailing summary
    block to the log file at `log_path`: the one-stage case of `stage_run`'s
    loop.  `digests` takes the input's SHA-256, as `open_flow_csv` does.

    Raises on operational problems (unreadable or non-UTF-8 input, absent
    selected columns, unwritable log, a forked reader that dies) once the
    rows read before them are logged; the caller maps that to exit status 1.
    A log that is the input is emptied: `cli.run` refuses such a run.  A
    large input may be read in a forked child (see `_TileScorer`), which
    never outlives the call.
    """
    scorer = _TileScorer(model, config, digests)
    log = _StageLog(config.stage, log_path)
    try:
        scorer.read(log, input_path)
        scorer.flush()
    finally:
        log.close()
    return log.summary


def stage_run(
    model: TrainedModel,
    stage_inputs: dict[str, str],
    log_paths: dict,
    alert_threshold: float = 0.5,
    anomalous_classes=None,
    digests=None,
) -> tuple[dict[str, MonitorSummary | str], int]:
    """Run STAGES in order over `stage_inputs`, each stage logging to its
    path in `log_paths`.

    The stage inputs are read in order through one `_TileScorer`, so a pass
    can hold rows of several stages; each log is what `run_monitor` writes
    for its stage alone, `elapsed_ms` apart.  The overall status is the max
    of stage statuses; anomalies (2) do not stop later stages, an
    operational failure (1) does.  The failing stage's log holds the lines
    of the rows read before the failure and ends in an `# error` line,
    whose reason stands in `summaries` in place of its summary; later
    stages get no log.  `digests` takes the SHA-256 of each input read, as
    `open_flow_csv` does.  Each large input may be read in a forked child
    (see `_TileScorer`), reaped before the next input is opened.
    """
    config = MonitorConfig(alert_threshold=alert_threshold, anomalous_classes=anomalous_classes)
    logs = {stage: _StageLog(stage, log_paths[stage]) for stage in STAGES}
    stage, failure = STAGES[0], None
    try:
        scorer = _TileScorer(model, config, digests)
        for stage, log in logs.items():
            scorer.read(log, stage_inputs[stage])
        scorer.flush()
    except (OSError, FlowSentryError) as err:
        failure = err
    finally:
        for log in logs.values():
            log.close()
    summaries = {s: logs[s].summary for s in STAGES[:STAGES.index(stage) + 1]}
    if failure is not None:
        summaries[stage] = reason = str(failure)
        with open(logs[stage].path, "a", encoding="utf-8") as fh:
            fh.write(f"# error stage={stage} {reason}\n")
    statuses = [s.exit_status for s in summaries.values() if not isinstance(s, str)]
    return summaries, max(statuses + [EXIT_OK if failure is None else EXIT_FAILURE])
