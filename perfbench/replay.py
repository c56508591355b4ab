"""Closed-loop replays of each workload through flowdetect's entry points.

One process, one client, no threads: ``cli.main`` gets the whole log for
``run`` and one field for ``evaluate``, and inside a run each event is
handed to ``Pipeline.process_event`` only after the previous one returned.
A run repeats whole rounds, each one replay of the workload from a fresh
Pipeline or one sweep of every field, until the timed phase is as close as
whole rounds get to the requested seconds and, for ``run`` workloads, until
the latencies support a 99.9th percentile with ten samples beyond it.

Every time is the CPU time of the thread that runs the program
(``time.thread_time_ns``), not the wall clock.  On a virtual machine the
hypervisor takes the CPU away now and then ("steal" in ``/proc/stat``); the
wall clock counts those gaps against the program, CPU time does not.  The
program starts no threads, so this CPU time is the time its work took.
Between calls, the run samples a reference loop that tells how fast the
host is running, and scales each stretch of work by it (``speed.py``); the
loop's own time is left out.  The wall time of the timed phase is kept in
the results file for reference.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, thread_time_ns

import checks
from inputs import EVENTS, FIELDS, LABELS, SCORES
from speed import Speedometer

from flowdetect import cli

#: 0.1% of this many latencies is ten samples beyond the 99.9th percentile.
MIN_LATENCIES = 10_000
#: CPU time after which a ``run`` workload takes a reference sample, about
#: 2 ms, before its next event.  Counted in time, not events, so that each
#: long retraining event gets samples of its own on either side.
SAMPLE_AFTER_NS = 50_000_000
#: Samples on each side of a chunk of ``run`` work that set its scale.
RUN_REACH = 2
#: Reference samples taken between two ``evaluate`` calls; the ones on each
#: side of a call set its scale.
SAMPLES_PER_CALL = 10


@dataclass
class Replay:
    """What the timed phase of one run produced."""

    speed: Speedometer
    rounds: int = 0
    operations: int = 0  # events for run workloads, evaluate calls for evaluate
    wall_s: float = 0.0
    records: int = 0  # input records consumed: log rows, or score records x fields
    #: CPU ns of each latency sample and, for a ``run`` event, the reference
    #: samples taken before it, which place it among the chunks.  Arrays
    #: keep the benchmark's own memory out of the program's peak.
    latency_ns: array = field(default_factory=lambda: array("q"))
    latency_at: array = field(default_factory=lambda: array("q"))
    #: An ``evaluate`` sweep spans several chunks, so it is scaled as it ends.
    scaled_sweeps_ns: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    detection_rate: float | None = None  # trend only, against the synth labels
    problems: list[str] = field(default_factory=list)

    @property
    def timed_s(self) -> float:
        """Unscaled CPU seconds of the timed phase."""
        return self.speed.cpu_ns() * 1e-9

    @property
    def scaled_s(self) -> float:
        return self.speed.scaled_ns() * 1e-9

    def wants_more(self, seconds: float) -> bool:
        """True while one more round brings the timed phase closer to ``seconds``.

        The phase is counted in scaled seconds, so that the number of rounds
        follows the program's work and not the host's speed.
        """
        return not self.rounds or self.scaled_s * (1 + 0.5 / self.rounds) < seconds

    def latencies_ns(self, scaled: bool = True) -> list[float]:
        if not scaled:
            return list(self.latency_ns)
        if self.scaled_sweeps_ns:
            return self.scaled_sweeps_ns
        factors = {at: self.speed.factor(at) for at in set(self.latency_at)}
        return [ns * factors[at] for ns, at in zip(self.latency_ns, self.latency_at)]


def _call(argv: list[str]) -> tuple[int, str, float]:
    """Run ``cli.main(argv)``; return its code, output and wall seconds."""
    out = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue(), perf_counter() - start


def _count_lines(path: Path) -> int:
    with open(path, "rb") as handle:
        return sum(1 for _ in handle)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def replay_run(
    workload: str, work: Path, seconds: float, tracer=None, min_rate: float | None = None
) -> Replay:
    """Replay ``trend`` or ``fanout`` through ``flowdetect run``, then check it.

    ``min_rate`` is the least detection rate ``trend`` must reach, if any.
    """
    speed = Speedometer(RUN_REACH)
    result = Replay(speed)
    latency_ns, latency_at, samples = result.latency_ns, result.latency_at, speed.samples
    built = []
    base = cli.Pipeline

    class TimedPipeline(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if tracer is not None:
                tracer.wrap_spec(self.spec, self.defs)
            built.append(self)

        def process_event(self, event):
            start = thread_time_ns()
            if start - speed.opened >= SAMPLE_AFTER_NS:
                speed.sample()
                start = thread_time_ns()
            alerts = super().process_event(event)
            latency_ns.append(thread_time_ns() - start)
            latency_at.append(len(samples))
            return alerts

    events, alerts, scores = work / EVENTS, work / "alerts.jsonl", work / SCORES
    argv = ["run", "--input", str(events), "--alerts-out", str(alerts), "--scores-out", str(scores)]
    rows = _count_lines(events) - 1  # the header
    outputs = set()
    cli.Pipeline = TimedPipeline
    try:
        while result.wants_more(seconds) or len(latency_ns) < MIN_LATENCIES:
            built.clear()
            speed.start()
            code, summary, wall_s = _call(argv)
            speed.stop()
            result.rounds += 1
            result.wall_s += wall_s
            result.records += rows
            result.operations += rows
            if code != 0:
                result.problems.append(f"run exited with {code}")
                return result
            outputs.add(hashlib.sha256(summary.encode() + alerts.read_bytes() + scores.read_bytes()).digest())
    finally:
        cli.Pipeline = base
    result.peak_rss_mb = _peak_rss_mb()

    if len(outputs) != 1:
        result.problems.append("rounds of the same input wrote different outputs")
    log = checks.read_log(str(events))
    counters = checks.parse_summary(summary)
    written = checks.read_jsonl(str(scores)), checks.read_jsonl(str(alerts))
    if workload == "trend":
        labels = checks.read_labels(str(work / LABELS))
        detectors = len(built[0].config.detectors)
        result.detection_rate = checks.detection_rate(written[0], labels)
        result.problems += checks.check_trend(log, labels, counters, *written, detectors, min_rate)
    else:
        result.problems += checks.check_fanout(log, counters, *written, built[0].training_data_for)
    return result


def replay_evaluate(work: Path, seconds: float) -> Replay:
    """Sweep every field of a fixed scores file with ``flowdetect evaluate``.

    One latency sample is one sweep of all the fields: the calls differ too
    much in size (``votes`` has a handful of thresholds, a detector field
    thousands) for a percentile over single calls to mean anything.  Each
    call is a chunk of its own, between two groups of reference samples.
    """
    speed = Speedometer(SAMPLES_PER_CALL)
    result = Replay(speed)
    scores, labels = str(work / SCORES), str(work / LABELS)
    records = _count_lines(work / SCORES)
    reports: dict[str, set[str]] = {name: set() for name in FIELDS}
    speed.sample(SAMPLES_PER_CALL)
    while result.wants_more(seconds):
        first = len(speed.chunks)
        for name in FIELDS:
            code, report, wall_s = _call(["evaluate", "--input", scores, "--labels", labels, "--field", name])
            speed.sample(SAMPLES_PER_CALL)
            result.wall_s += wall_s
            result.operations += 1
            if code != 0:
                result.problems.append(f"evaluate --field {name} exited with {code}")
                return result
            reports[name].add(report)
        sweep = speed.chunks[first:]
        result.latency_ns.append(sum(ns for ns, _ in sweep))
        result.scaled_sweeps_ns.append(speed.scaled_ns(sweep))
        result.rounds += 1
        result.records += records * len(FIELDS)
    speed.discard()
    result.peak_rss_mb = _peak_rss_mb()

    loaded = checks.read_jsonl(scores)
    truth = checks.read_labels(labels)
    for name, texts in reports.items():
        if len(texts) != 1:
            result.problems.append(f"{name}: rounds printed different reports")
        result.problems += checks.check_report(json.loads(next(iter(texts))), loaded, truth, name)
    return result
