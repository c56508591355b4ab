"""Spans around the calls into each flowdetect module, installed at run time.

The wrappers replace the names the calling module looks up at call time
(``flowdetect.pipeline.step``, ``flowdetect.cli.ingest``, the detector
classes' methods, ...), so the program's source is untouched.  Spans nest
on one stack: a span's self time is its duration minus the durations of the
spans opened directly inside it.  Aggregates are kept in memory and written
out once, when the run ends.
"""

from __future__ import annotations

import builtins
import statistics
from collections import Counter, defaultdict
from time import perf_counter_ns

_MISSING = object()

#: Detector name -> class name in ``flowdetect.detectors``.
DETECTOR_CLASSES = {"kmeans": "CircularKMeans", "kde": "WrappedKde", "lof": "CosineLof"}


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.total_ns: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.durations: defaultdict[str, list[int]] = defaultdict(list)
        self.fit_sizes: list[int] = []
        self.records_loaded = 0
        self._children = [0]  # per open span: time covered by its direct children
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrappers

    def span(self, name: str, fn, keep: bool = False):
        """Wrap ``fn`` in a span; ``keep`` also stores every duration."""
        calls, total, own, children = self.calls, self.total_ns, self.self_ns, self._children
        durations = self.durations[name] if keep else None

        def traced(*args, **kwargs):
            children.append(0)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                took = perf_counter_ns() - start
                inner = children.pop()
                children[-1] += took
                calls[name] += 1
                total[name] += took
                own[name] += took - inner
                if durations is not None:
                    durations.append(took)

        return traced

    def count(self, name: str, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def patch(self, owner, attr: str, make, current=None) -> None:
        """Replace ``owner.attr`` by ``make(current)`` until ``restore``.

        ``current`` defaults to the attribute's present value; pass it for a
        name the owner resolves elsewhere, such as a builtin.
        """
        self._undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, make(getattr(owner, attr) if current is None else current))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------ install

    def install(self) -> None:
        """Patch every layer boundary; call before any Pipeline is built."""
        from flowdetect import cli, detectors, engine, evaluation, pipeline

        self.patch(cli, "ingest", self._traced_rows)
        self.patch(cli, "open", self._traced_open, current=builtins.open)
        self.patch(cli, "_jsonl", lambda fn: self.span("cli.jsonl", fn))
        self.patch(pipeline.ScoredEvent, "to_record", lambda fn: self.span("cli.to_record", fn))
        self.patch(pipeline.Pipeline, "process_event", lambda fn: self.span("pipeline.process_event", fn))
        self.patch(pipeline, "parse_timestamp", lambda fn: self.span("windowing.parse", fn))
        self.patch(pipeline, "formatting_data", lambda fn: self.span("windowing.fold", fn))
        self.patch(pipeline, "training_set", lambda fn: self.span("windowing.training_set", fn))
        self.patch(pipeline, "step", lambda fn: self.span("engine.step", fn))
        self.patch(pipeline, "majority_vote", lambda fn: self.span("ensemble.vote", fn))
        self.patch(engine.Env, "override", lambda fn: self.count("engine.override", fn))
        for name, class_name in DETECTOR_CLASSES.items():
            cls = getattr(detectors, class_name)
            self.patch(cls, "fit_partial", lambda fn, n=name: self._traced_fit(n, fn))
            self.patch(cls, "score_partial", lambda fn, n=name: self.span(f"detectors.{n}.score", fn))
        self.patch(evaluation, "load_scores", self._traced_load)
        self.patch(evaluation, "roc_curve", lambda fn: self.span("evaluation.roc", fn))
        self.patch(evaluation, "evaluate", lambda fn: self.span("evaluation.evaluate", fn))

    def wrap_spec(self, root, defs) -> None:
        """Put a span around every guard and action of a built machine tree."""
        seen: set[int] = set()
        pending = [root, *defs.values()]
        while pending:
            node = pending.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if node.action is not None:
                node.action = self.span("engine.action", node.action)
            for t in getattr(node, "transitions", ()):
                if t.guard is not None:
                    t.guard = self.span("engine.guard", t.guard)
                if t.action is not None:
                    t.action = self.span("engine.action", t.action)
            pending += [getattr(node, a) for a in ("left", "right", "body") if hasattr(node, a)]

    def _traced_rows(self, ingest):
        def rows(*args, **kwargs):
            pull = self.span("cli.ingest", ingest(*args, **kwargs).__next__)
            while True:
                try:
                    event = pull()
                except StopIteration:
                    return
                yield event

        return rows

    def _traced_open(self, open_):
        def traced_open(file, mode="r", *args, **kwargs):
            handle = open_(file, mode, *args, **kwargs)
            return _TracedWriter(handle, self.span("cli.write", handle.write)) if "w" in mode else handle

        return traced_open

    def _traced_fit(self, name: str, fit):
        timed = self.span(f"detectors.{name}.fit", fit, keep=True)

        def traced_fit(detector, minutes, *args, **kwargs):
            self.fit_sizes.append(len(minutes))
            return timed(detector, minutes, *args, **kwargs)

        return traced_fit

    def _traced_load(self, load):
        timed = self.span("evaluation.load", load)

        def traced_load(*args, **kwargs):
            records = timed(*args, **kwargs)
            self.records_loaded += len(records)
            return records

        return traced_load

    # ------------------------------------------------------------ results

    def layer_metrics(self, rows: int, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer figures, as ``name -> (value, unit)``, for ``rounds`` replays.

        ``rows`` is the number of log rows read over all rounds.  A layer
        the workload never reached reads 0.
        """
        calls, total, own = self.calls, self.total_ns, self.self_ns
        events = calls["pipeline.process_event"]
        fields = calls["evaluation.evaluate"]
        fits = sum(calls[f"detectors.{n}.fit"] for n in DETECTOR_CLASSES)

        def ratio(num, den):
            return num / den if den else 0.0

        def us(name, n, times=total):
            return ratio(times[name] * 1e-3, n)

        written_ns = total["cli.to_record"] + total["cli.jsonl"] + total["cli.write"]
        out = {
            "cli.ingest_us": (us("cli.ingest", rows), "us"),
            "cli.write_us": (ratio(written_ns * 1e-3, calls["cli.write"]), "us"),
            "windowing.parse_calls": (ratio(calls["windowing.parse"], events), "calls/event"),
            "windowing.parse_us": (us("windowing.parse", calls["windowing.parse"]), "us"),
            "windowing.fold_us": (us("windowing.fold", calls["windowing.fold"]), "us"),
            "windowing.training_set_calls": (ratio(calls["windowing.training_set"], fits), "calls/fit"),
            "engine.step_self_us": (us("engine.step", events, own), "us"),
            "engine.override_calls": (ratio(calls["engine.override"], events), "calls/event"),
        }
        for n in DETECTOR_CLASSES:
            took = self.durations[f"detectors.{n}.fit"]
            out[f"detectors.{n}.fit_ms"] = (statistics.median(took) * 1e-6 if took else 0.0, "ms")
        out["detectors.fit_calls"] = (ratio(fits, rounds), "count")
        sizes = self.fit_sizes
        out["detectors.fit_samples"] = (float(statistics.median(sizes)) if sizes else 0.0, "count")
        for n in DETECTOR_CLASSES:
            name = f"detectors.{n}.score"
            out[f"{name}_us"] = (us(name, calls[name]), "us")
        out["ensemble.vote_us"] = (us("ensemble.vote", calls["ensemble.vote"]), "us")
        out["pipeline.process_event_self_us"] = (us("pipeline.process_event", events, own), "us")
        out["evaluation.load_us"] = (us("evaluation.load", self.records_loaded), "us")
        out["evaluation.roc_ms"] = (us("evaluation.roc", fields) * 1e-3, "ms")
        out["evaluation.evaluate_self_ms"] = (us("evaluation.evaluate", fields, own) * 1e-3, "ms")
        return out

    def spans(self) -> dict[str, dict[str, float]]:
        return {
            name: {
                "calls": self.calls[name],
                "total_ms": self.total_ns[name] * 1e-6,
                "self_ms": self.self_ns[name] * 1e-6,
            }
            for name in sorted(self.calls)
        }


class _TracedWriter:
    """The two methods ``cmd_run`` uses on an output file, with a span on writes."""

    def __init__(self, handle, write) -> None:
        self._handle = handle
        self.write = write

    def close(self) -> None:
        self._handle.close()
