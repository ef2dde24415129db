"""Span recording around flowsentry's functions and layer methods, from outside the package.

Each target is wrapped at the module (or class) where the caller looks it up,
for example ``flowsentry.cli.rfe`` or ``flowsentry.nncore.Conv1D.forward``, so
nothing under ``src/`` changes.  A span is (name, start, end, parent); spans
and counters stay in memory until the run ends and are then written out with
``Tracer.save``.  ``analyse`` turns a saved trace into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import time
from array import array
from pathlib import Path

import numpy as np

OP = "bench.op"          # one workload operation (a build, a monitor call, a stage-run)
SETUP = "bench.setup"    # one workload set-up

_LAYER_KINDS = {
    "Conv1D": "conv1d",
    "MaxPool1D": "maxpool1d",
    "ReLU": "relu",
    "Dropout": "dropout",
    "LSTM": "lstm",
    "Dense": "dense",
}


def peak_rss_mb() -> float:
    """Peak resident set size of this process's own address space.

    Linux carries the parent's peak into ``ru_maxrss`` across fork and exec,
    so a worker started by a parent that trained a model would report the
    parent's peak; ``VmHWM`` is reset by exec.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory span log plus the patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counters: list[tuple[int, str, float]] = []   # (span index, counter, value)
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def name(self, text: str) -> int:
        if text not in self._ids:
            self._ids[text] = len(self.names)
            self.names.append(text)
        return self._ids[text]

    def open(self, nid: int) -> int:
        i = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    def count(self, i: int, counter: str, value: float) -> None:
        self.counters.append((i, counter, float(value)))

    # -- wrappers ------------------------------------------------------------

    def wrap(self, fn, name: str, counters=None, before=None):
        """Time every call; `counters(args, kwargs, result, pre)` yields
        (counter, value) pairs, with `pre` the value `before()` gave."""
        nid = self.name(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pre = before() if before else None
            i = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if counters:
                for counter, value in counters(args, kwargs, result, pre):
                    self.count(i, counter, value)
            return result

        return traced

    def wrap_iter(self, fn, name: str):
        """Time each item a generator function yields, as one span per item."""
        nid = self.name(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            try:
                while True:
                    i = self.open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        self.count(i, "exhausted", 1)     # this span yielded no row
                        return
                    finally:
                        self.close(i)
                    yield item
            finally:
                it.close()

        return traced

    def wrap_forward(self, fn, kind: str):
        """Layer forward, split by the `train` flag it is called with."""
        train_id = self.name(f"nncore.{kind}.fwd_train")
        infer_id = self.name(f"nncore.{kind}.fwd_infer")

        @functools.wraps(fn)
        def traced(layer, x, train=False):
            i = self.open(train_id if train else infer_id)
            try:
                return fn(layer, x, train=train)
            finally:
                self.close(i)

        return traced

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install_synth(self) -> None:
        synth = importlib.import_module("flowsentry.synth")
        self._patch(synth, "flow_csv", self.wrap(synth.flow_csv, "synth.flow_csv"))

    def install_program(self) -> None:
        """Wrap every traced lookup site of the CLI, pipeline, monitor and layers."""
        cli = importlib.import_module("flowsentry.cli")
        flowdata = importlib.import_module("flowsentry.flowdata")
        featsel = importlib.import_module("flowsentry.featsel")
        resample = importlib.import_module("flowsentry.resample")
        nncore = importlib.import_module("flowsentry.nncore")
        pipeline = importlib.import_module("flowsentry.pipeline")
        monitor = importlib.import_module("flowsentry.monitor")

        def rows(args, kwargs, result, pre):
            yield "rows", len(result)

        def resampled(args, kwargs, result, pre):
            yield "rows_in", args[0].n_rows
            yield "rows_out", result[0].n_rows
            yield "rss_growth_mb", peak_rss_mb() - pre

        def epochs(args, kwargs, result, pre):
            yield "epochs", len(result)

        def summary(args, kwargs, result, pre):
            yield "skipped", result.skipped
            yield "log_lines", result.anomalies

        plain = [
            (cli, "main", "cli.main", None),
            (cli, "parse_flow_csv", "flowdata.parse", rows),
            (flowdata, "parse_flow_csv", "flowdata.parse", rows),
            (cli, "clean", "flowdata.clean", None),
            (cli, "encode_categorical", "flowdata.encode", None),
            (pipeline, "encode_value", "flowdata.encode", None),
            (cli, "write_dataset_csv", "flowdata.csv_io", None),
            (cli, "read_prepared_csv", "flowdata.csv_io", None),
            (cli, "rfe", "featsel.rfe", None),
            (featsel, "train_random_forest", "featsel.forest_fit", None),
            (cli, "fit_minmax", "featsel.scale", None),
            (cli, "apply_minmax", "featsel.scale", None),
            (pipeline, "scale_matrix", "featsel.scale", None),
            (resample, "smote", "resample.smote", None),
            (resample, "enn", "resample.enn", None),
            (cli, "split_dataset", "pipeline.split", None),
            (cli, "train_model", "pipeline.train", epochs),
            (cli, "evaluate_model", "pipeline.evaluate", None),
            (cli, "save_model", "pipeline.save", None),
            (cli, "load_model", "pipeline.load", None),
            (pipeline.TrainedModel, "transform_record", "pipeline.transform_record", None),
            (pipeline.CnnLstmModel, "forward_logits", "pipeline.forward", None),
            (cli, "run_monitor", "monitor.run", summary),
            (monitor, "run_monitor", "monitor.run", summary),
            (cli, "stage_run", "monitor.stage_run", None),
            (monitor, "score_flow", "monitor.score_flow", None),
            (nncore.Adam, "step", "nncore.adam.step", None),
        ]
        for owner, attr, name, counters in plain:
            self._patch(owner, attr, self.wrap(getattr(owner, attr), name, counters))
        self._patch(cli, "resample_pipeline",
                    self.wrap(cli.resample_pipeline, "resample.pipeline", resampled, peak_rss_mb))
        self._patch(monitor, "iter_flow_rows",
                    self.wrap_iter(monitor.iter_flow_rows, "flowdata.parse_row"))
        for cls_name, kind in _LAYER_KINDS.items():
            cls = getattr(nncore, cls_name)
            self._patch(cls, "forward", self.wrap_forward(cls.forward, kind))
            self._patch(cls, "backward",
                        self.wrap(cls.backward, f"nncore.{kind}.bwd"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def save(self, path: Path) -> None:
        np.savez(
            path,
            name_id=np.array(self.name_id, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            start=np.array(self.start, dtype=np.int64),
            end=np.array(self.end, dtype=np.int64),
            counter_span=np.array([c[0] for c in self.counters], dtype=np.int64),
            counter_value=np.array([c[2] for c in self.counters], dtype=np.float64),
            counter_name=np.array([c[1] for c in self.counters] or [""], dtype=str),
            names=np.array(json.dumps(self.names)),
        )


class Trace:
    """A saved span log, indexed by the root span (operation) each span belongs to."""

    def __init__(self, path: Path, root: str):
        with np.load(path) as z:
            self.names = json.loads(str(z["names"]))
            name_id = z["name_id"]
            parent = z["parent"]
            start = z["start"]
            end = z["end"]
            c_span = z["counter_span"]
            c_value = z["counter_value"]
            c_name = z["counter_name"][: len(c_span)]
        n = len(name_id)
        self.name_id = name_id
        self.dur = (end - start) / 1e9
        has_parent = parent >= 0
        child = np.zeros(n)
        np.add.at(child, parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child
        top = np.where(has_parent, parent, np.arange(n))
        while True:                              # pointer jumping up to each root
            up = top[top]
            if np.array_equal(up, top):
                break
            top = up
        rid = self.names.index(root) if root in self.names else -1
        self.roots = np.flatnonzero((name_id == rid) & ~has_parent)
        self._root_pos = np.full(n, -1)
        self._root_pos[self.roots] = np.arange(len(self.roots))
        self.root_of = self._root_pos[top]
        self.n_roots = len(self.roots)
        self._counters = (c_span, c_name, c_value)

    def ids(self, name: str) -> np.ndarray:
        """Indices of the spans with this name that lie under a root span."""
        if name not in self.names:
            return np.zeros(0, dtype=np.int64)
        return np.flatnonzero((self.name_id == self.names.index(name)) & (self.root_of >= 0))

    def per_root(self, values: np.ndarray, spans: np.ndarray) -> np.ndarray:
        return np.bincount(self.root_of[spans], weights=values,
                           minlength=self.n_roots).astype(np.float64)

    def total(self, name: str, self_only: bool = False) -> np.ndarray:
        """Seconds in spans of `name` per root span."""
        spans = self.ids(name)
        return self.per_root((self.self_time if self_only else self.dur)[spans], spans)

    def calls(self, name: str) -> np.ndarray:
        spans = self.ids(name)
        return self.per_root(np.ones(len(spans)), spans)

    def counter(self, name: str, counter: str) -> np.ndarray:
        c_span, c_name, c_value = self._counters
        keep = np.isin(c_span, self.ids(name)) & (c_name == counter)
        return self.per_root(c_value[keep], c_span[keep])

    def durations(self, name: str) -> np.ndarray:
        return self.dur[self.ids(name)]

    def breakdown(self, limit: int = 12) -> list[tuple[str, float, float]]:
        """(name, inclusive, self) seconds per root span, largest inclusive first."""
        rows = []
        for name in self.names:
            if name in (OP, SETUP):
                continue
            inclusive = self.total(name).sum() / max(self.n_roots, 1)
            own = self.total(name, self_only=True).sum() / max(self.n_roots, 1)
            if inclusive > 0:
                rows.append((name, inclusive, own))
        rows.sort(key=lambda r: -r[1])
        return rows[:limit]


def unit_of(metric: str) -> str:
    """Per-layer metric units follow from the name's suffix."""
    for suffix, unit in (("_us_p50", "us"), ("_us_p99", "us"), ("_ms", "ms"),
                         ("_mb", "MB"), ("_s", "s"), ("_lines", "lines")):
        if metric.endswith(suffix):
            return unit
    return "count"


def _median(a) -> float:
    return float(np.median(a)) if len(a) else 0.0


def analyse(op_trace: Trace, setup_trace: Trace) -> dict[str, float]:
    """Per-layer metrics: per-operation medians unless the name says otherwise."""
    t = op_trace
    per_op = _median
    m: dict[str, float] = {}

    m["flowdata.parse_s"] = per_op(t.total("flowdata.parse") + t.total("flowdata.parse_row"))
    m["flowdata.rows"] = per_op(t.counter("flowdata.parse", "rows") + t.calls("flowdata.parse_row")
                                - t.counter("flowdata.parse_row", "exhausted"))
    m["flowdata.clean_s"] = per_op(t.total("flowdata.clean"))
    m["flowdata.encode_s"] = per_op(t.total("flowdata.encode"))
    m["flowdata.csv_io_s"] = per_op(t.total("flowdata.csv_io"))

    m["featsel.rfe_s"] = per_op(t.total("featsel.rfe"))
    m["featsel.forest_fits"] = per_op(t.calls("featsel.forest_fit"))
    m["featsel.forest_fit_s"] = _median(t.durations("featsel.forest_fit"))
    m["featsel.scale_s"] = per_op(t.total("featsel.scale"))

    m["resample.pipeline_s"] = per_op(t.total("resample.pipeline"))
    m["resample.smote_s"] = per_op(t.total("resample.smote"))
    m["resample.enn_s"] = per_op(t.total("resample.enn"))
    m["resample.rows_in"] = per_op(t.counter("resample.pipeline", "rows_in"))
    m["resample.rows_out"] = per_op(t.counter("resample.pipeline", "rows_out"))
    # the peak only rises, so only the first call in a process can show growth
    growth = t.counter("resample.pipeline", "rss_growth_mb")
    m["resample.rss_growth_mb"] = float(growth.max()) if len(growth) else 0.0

    for kind in _LAYER_KINDS.values():
        for phase in ("fwd_train", "fwd_infer", "bwd"):
            m[f"nncore.{kind}.{phase}_s"] = per_op(t.total(f"nncore.{kind}.{phase}"))
    m["nncore.adam.step_s"] = per_op(t.total("nncore.adam.step"))
    m["nncore.fwd_infer_calls"] = per_op(
        sum(t.calls(f"nncore.{kind}.fwd_infer") for kind in _LAYER_KINDS.values()))

    m["pipeline.split_s"] = per_op(t.total("pipeline.split"))
    train = t.total("pipeline.train")
    n_epochs = t.counter("pipeline.train", "epochs")
    m["pipeline.train_s"] = per_op(train)
    m["pipeline.epoch_s"] = per_op(np.divide(train, n_epochs, out=np.zeros_like(train),
                                             where=n_epochs > 0))
    m["pipeline.evaluate_s"] = per_op(t.total("pipeline.evaluate"))
    m["pipeline.save_s"] = per_op(t.total("pipeline.save"))
    m["pipeline.load_s"] = per_op(t.total("pipeline.load"))
    m["pipeline.transform_record_us_p50"] = _median(t.durations("pipeline.transform_record")) * 1e6
    m["pipeline.forward_calls"] = per_op(t.calls("pipeline.forward"))

    score = t.durations("monitor.score_flow") * 1e6
    m["monitor.run_s"] = per_op(t.total("monitor.run"))
    m["monitor.self_s"] = per_op(t.total("monitor.run", self_only=True))
    m["monitor.score_flow_us_p50"] = _median(score)
    m["monitor.score_flow_us_p99"] = float(np.percentile(score, 99)) if len(score) else 0.0
    m["monitor.score_flow_calls"] = per_op(t.calls("monitor.score_flow"))
    m["monitor.rows_skipped"] = per_op(t.counter("monitor.run", "skipped"))
    m["monitor.log_lines"] = per_op(t.counter("monitor.run", "log_lines"))

    m["cli.self_s"] = per_op(t.total("cli.main", self_only=True))
    m["cli.invocations"] = per_op(t.calls("cli.main"))

    m["synth.flow_csv_s"] = _median(setup_trace.total("synth.flow_csv"))
    return m
