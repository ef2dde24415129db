"""Pipeline-stage flow scoring with anomaly log emission and gating exit codes.

Exit codes: 0 clean, 2 when at least one anomaly was flagged, 1 on
operational failure (unreadable input, schema mismatch, unwritable sink).
Malformed or unscorable rows are skipped and counted, never fatal.
"""

from __future__ import annotations

import datetime as _dt
import re
import time
from dataclasses import dataclass, field

from .errors import FlowSentryError, InputError, ParameterError
from .flowdata import FlowRecord, _identity_cells, iter_selected_rows
from .flowdata import iter_flow_rows  # noqa: F401  unused; perfbench/tracer.py wraps it here
from .pipeline import TILE_ROWS, TrainedModel, open_scoring_input
import numpy as np

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_ANOMALIES = 2
EXIT_USAGE = 64

STAGES = ("build", "test", "deploy", "monitor")


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


_LINE_RE = re.compile(
    r"^\[(?P<ts>[0-9T:.+\-]+)Z\] stage=(?P<stage>\S+) flow=(?P<flow>\S+) "
    r"src=(?P<src>\S+) dst=(?P<dst>\S+) verdict=(?P<verdict>\S+) "
    r"confidence=(?P<conf>[01]\.\d{3})$"
)


def _entry_line(timestamp, stage, flow_id, src, dst, verdict_token, confidence) -> str:
    """The anomaly grammar, written once: format_entry and the monitor's tile
    flush, which tokenises each verdict once per run, both build lines here."""
    return (
        f"[{timestamp}Z] stage={stage} flow={_token(flow_id)} "
        f"src={_token(src)} dst={_token(dst)} "
        f"verdict={verdict_token} confidence={confidence:.3f}"
    )


def format_entry(entry: AnomalyLogEntry) -> str:
    return _entry_line(entry.timestamp, entry.stage, entry.flow_id, entry.src, entry.dst,
                       _token(entry.verdict), entry.confidence)


def parse_entry(line: str, class_names=None) -> AnomalyLogEntry:
    """Inverse of format_entry; detokenises the verdict when the class set is known."""
    m = _LINE_RE.match(line.strip())
    if m is None:
        raise InputError(f"line does not match the anomaly grammar: {line!r}")
    verdict = m.group("verdict")
    if class_names:
        for name in class_names:
            if _token(name) == verdict:
                verdict = name
                break

    def detok(v):
        return None if v == "-" else v

    return AnomalyLogEntry(
        timestamp=m.group("ts"),
        stage=m.group("stage"),
        verdict=verdict,
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

    The per-record form of what the monitor does a tile at a time, and
    `evaluate` and `predict` for a whole input.  None of them builds a
    record for a clean row: `iter_selected_rows` reads its selected values
    straight into the matrix that goes through the same `transform_matrix`
    as `transform_record` does.  So the result is bitwise the same as the
    flow's inside any monitor tile, because predict_proba scores every row
    in a tile of the same shape.
    """
    dist = model.predict_proba(model.transform_record(record)[None, :])[0]
    idx = int(np.argmax(dist))
    return model.class_names[idx], float(dist[idx]), dist


@dataclass
class MonitorSummary:
    stage: str
    total: int = 0
    scored: int = 0
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


def run_monitor(
    input_path,
    model: TrainedModel,
    config: MonitorConfig = MonitorConfig(),
    sink=None,
    log_path=None,
) -> MonitorSummary:
    """Score a flow CSV and write anomaly lines plus a trailing summary block.

    Raises on operational problems (unreadable or non-UTF-8 input, absent
    selected columns, unwritable sink); the caller maps that to exit status 1.
    """
    if config.anomalous_classes is None:
        anomalous = {c for c in model.class_names if c != "Benign"}
    else:
        anomalous = set(config.anomalous_classes)
        unknown = anomalous - set(model.class_names)
        if unknown:
            raise ParameterError(f"anomalous classes {sorted(unknown)} not in the model's set")

    own_sink = None
    if sink is None:
        if log_path is None:
            raise ParameterError("need a sink or a log path")
        own_sink = open(log_path, "w", encoding="utf-8")
        sink = own_sink

    started = time.monotonic()
    summary = MonitorSummary(stage=config.stage)
    stage, threshold = config.stage, config.alert_threshold
    # per class index: its verdict token, or None for a class that raises no alert
    alert_tokens = [_token(name) if name in anomalous else None for name in model.class_names]
    try:
        # Scorable rows wait in a tile, which is encoded, scaled and scored at
        # once when it fills, at end of input, and in follow mode whenever a
        # poll finds no new data, so a followed flow never waits for later
        # flows.  The tile's anomaly lines go to the sink in one write.
        tile: list[tuple] = []      # (selected values in model order, row cells)

        def flush():
            if not tile:
                return
            probs = model.predict_proba(model.transform_matrix([v for v, _ in tile]))
            summary.scored += len(tile)
            best = probs.argmax(axis=1)
            confidences = probs[np.arange(len(probs)), best].tolist()
            out = []
            for (_, cells), k, confidence in zip(tile, best.tolist(), confidences):
                token = alert_tokens[k]
                if token is not None and confidence >= threshold:
                    verdict = model.class_names[k]
                    summary.anomalies += 1
                    summary.per_class[verdict] = summary.per_class.get(verdict, 0) + 1
                    ts, flow_id, src, dst = _identity_cells(schema, cells)
                    out.append(_entry_line(_render_timestamp(ts), stage, flow_id, src, dst,
                                           token, confidence) + "\n")
            tile.clear()
            if out:
                sink.write("".join(out))
                sink.flush()

        with open_scoring_input(input_path, model) as (schema, fh):
            lines = (_follow_lines(fh, config.poll_interval, config.idle_timeout, flush)
                     if config.follow else fh)
            for row in iter_selected_rows(lines, schema, model.feature_names):
                summary.total += 1
                if not isinstance(row, tuple):      # a RowError or a missing value
                    summary.skipped += 1
                    continue
                tile.append(row)
                if len(tile) == TILE_ROWS:
                    flush()
            flush()
        summary.elapsed_ms = int((time.monotonic() - started) * 1000)
        sink.write(_summary_block(summary, model.class_names) + "\n")
        sink.flush()
    finally:
        if own_sink is not None:
            own_sink.close()
    return summary


def stage_run(
    model: TrainedModel,
    stage_inputs: dict[str, str],
    out_dir,
    alert_threshold: float = 0.5,
    anomalous_classes=None,
) -> tuple[dict[str, MonitorSummary | None], int]:
    """Run every configured stage in pipeline order, one log file per stage.

    The overall status is the max of stage statuses; anomalies (2) do not stop
    later stages, an operational failure (1) does.
    """
    from pathlib import Path

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summaries: dict[str, MonitorSummary | None] = {}
    overall = EXIT_OK
    for stage in STAGES:
        if stage not in stage_inputs:
            continue
        config = MonitorConfig(
            stage=stage,
            alert_threshold=alert_threshold,
            anomalous_classes=anomalous_classes,
        )
        log_path = out / f"{stage}.log"
        try:
            summary = run_monitor(stage_inputs[stage], model, config, log_path=log_path)
        except (OSError, FlowSentryError) as err:
            summaries[stage] = None
            overall = max(overall, EXIT_FAILURE)
            with open(log_path, "a", encoding="utf-8") as fh:
                fh.write(f"# error stage={stage} {err}\n")
            break
        summaries[stage] = summary
        overall = max(overall, summary.exit_status)
    return summaries, overall
