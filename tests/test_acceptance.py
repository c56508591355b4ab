"""Acceptance suite: nine go/no-go checks on the assembled system.

One test per criterion, each printing a ``[criterion N] PASS/FAIL`` line
with the measured values next to the pinned tolerance.  Everything here is
deterministic: fixed seeds, fixed corpora, fixed expectations.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import time
from datetime import datetime, timedelta

import numpy as np
import pytest

import oracles
from flowdetect import synth
from flowdetect.cli import main as cli_main
from flowdetect.detectors import (
    CircularKMeans,
    CosineLof,
    Score,
    WrappedKde,
    circ_distance,
)
from flowdetect.engine import (
    Event,
    EventPattern,
    Flow,
    QuantifiedFlow,
    Ref,
    dump_state,
    init,
    is_final,
    state_to_dict,
    step,
)
from flowdetect.ensemble import majority_vote
from flowdetect.evaluation import evaluate
from flowdetect.pipeline import Pipeline, PipelineConfig
from flowdetect.windowing import DEFAULT_DATE_FORMAT, Window, WindowConfig, formatting_data

from test_engine import digits_spec, gen_tree, in_order, loop, routed_spec, run_events
from test_golden import _cpu_flags, _rerun_criterion_9


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def stream_of(events) -> list[Event]:
    return [
        Event("e", (e.user, e.when.strftime(DEFAULT_DATE_FORMAT), e.event_id))
        for e in events
    ]


# --------------------------------------------------------------- criterion 1

def test_criterion_1_engine_semantics():
    """Operator laws, environment split, refusal totality, determinism."""
    t0 = time.monotonic()

    # sequencing:  left updates are visible to the right operand
    def inc_n(env):
        env["n"] = env["n"] + 1

    def mul_n(env):
        env["n"] = env["n"] * 10

    pair = Flow(name="pair", attrs=(("n", 0),),
                left=loop("a", action=inc_n), right=loop("b", action=mul_n))
    state, _ = step(pair, init(pair), Event("tick"))
    assert dict(state.env) == {"n": 10}

    # quantified iteration is ascending, and the shadowed variable restores
    spec = digits_spec()
    dstate, out = step(spec, init(spec), Event("tick"))
    assert dict(dstate.env) == {"acc": 123}
    assert "x" not in out

    # iteration order over independent instances cannot matter
    body = loop("hit", EventPattern("t", (Ref("x"),)), attrs=(("c", 0),),
                action=lambda env: env.__setitem__("c", env["c"] + 1))
    node = QuantifiedFlow(name="q", var="x", domain=(1, 2, 3), body=body)

    baseline = None
    for order in itertools.permutations((1, 2, 3)):
        s = in_order(init(node), order)
        for arg in (2, 3, 2):
            s, _ = step(node, s, Event("t", (arg,)))
        assert list(s.instances) == list(order)
        text = dump_state(s)
        if baseline is None:
            baseline = text
        assert text == baseline

    # interleaved users replay exactly like isolated users
    mixed = run_events(routed_spec(), [
        Event("e", ("alice", 1)), Event("e", ("bob", 10)),
        Event("e", ("alice", 2)), Event("e", ("bob", 20)),
    ])
    alone = run_events(routed_spec(), [Event("e", ("alice", 1)), Event("e", ("alice", 2))])
    assert state_to_dict(mixed.instances["alice"]) == state_to_dict(alone.instances["alice"])

    # random trees: acceptance law, refusal totality, determinism
    for seed in range(40):
        tree, expect_final = gen_tree(random.Random(seed), 3, [0])
        s = init(tree)
        assert is_final(tree, s) == expect_final
        before = dump_state(s)
        assert step(tree, s, Event("nope", ("k",))) is None
        assert dump_state(s) == before
        fired = step(tree, s, Event("go", ("k",)))
        assert fired is not None
        assert "0x" not in dump_state(fired[0])

    elapsed = time.monotonic() - t0
    report(1, elapsed < 10.0, f"engine semantics battery in {elapsed:.2f}s (limit 10s)")


# --------------------------------------------------------------- criterion 2

def test_criterion_2_window_traces():
    """Five frozen fill/slide traces, exact version and eviction sequences."""
    monday = datetime(2010, 1, 4, 8, 0)  # ISO week 1 of 2010: week n is 201000 + n

    def trace_periods(ws, ss, weeks):
        window = Window(WindowConfig(ws, ss, "week"))
        trace = []
        for n in weeks:
            before = {period - 201000 for period in window.samples}
            formatting_data(window, monday + timedelta(weeks=n - 1))
            after = {period - 201000 for period in window.samples}
            trace.append((sorted(before - after), window.version))
        return trace

    def trace_instances(ws, ss, count):
        window = Window(WindowConfig(ws, ss, "instance"))
        trace = []
        for _ in range(count):
            before = window.version
            formatting_data(window, monday)
            trace.append((before >= 1 and window.version > before, window.version))
        return window, trace

    t31 = trace_periods(3, 1, range(1, 8))
    ok = t31 == [([], 0), ([], 0), ([], 1), ([1], 2), ([2], 3), ([3], 4), ([4], 5)]

    t105 = trace_periods(10, 5, range(1, 26))
    ok &= [e for e, _ in t105 if e] == [
        [1, 2, 3, 4, 5], [6, 7, 8, 9, 10], [11, 12, 13, 14, 15]
    ]
    ok &= [v for _, v in t105] == [0] * 9 + [1] * 5 + [2] * 5 + [3] * 5 + [4]

    t100 = trace_periods(10, 0, range(1, 31))
    ok &= all(e == [] for e, _ in t100)
    ok &= [v for _, v in t100] == [0] * 9 + [1] * 21

    w21, t21 = trace_instances(2, 1, 5)
    ok &= t21 == [(False, 0), (False, 1), (True, 2), (True, 3), (True, 4)]
    ok &= len(w21.samples[0]) == 2

    w10050, t10050 = trace_instances(100, 50, 300)
    slides = [i for i, (slid, _) in enumerate(t10050, start=1) if slid]
    ok &= slides == [150, 200, 250, 300] and w10050.version == 5
    ok &= len(w10050.samples[0]) == 100

    report(2, bool(ok), "five window configurations match hand-computed traces")


# --------------------------------------------------------------- criterion 3

def test_criterion_3_lof_against_brute_force():
    """200 random instances, n <= 50: agreement within 1e-9, infinities exact."""
    rng = random.Random(0)
    checked = 0
    worst = 0.0
    for _ in range(200):
        n = rng.randint(3, 50)
        minutes = [rng.randint(0, 1439) for _ in range(n)]
        if rng.random() < 0.5:
            minutes.extend([rng.choice(minutes)] * rng.randint(1, 5))
        k = rng.randint(1, 10)
        model = CosineLof(n_neighbors=k).fit_partial(minutes)
        expected = oracles.lof_training_scores(minutes, k)
        for got, want in zip(model.training_scores, expected):
            got = float(got)
            if np.isinf(want):
                assert np.isinf(got)
            else:
                worst = max(worst, abs(got - want))
                assert abs(got - want) <= 1e-9
            checked += 1
        for _ in range(3):
            query = rng.randint(0, 1439)
            got = model.score_partial(query).raw
            want = oracles.lof_novelty_score(minutes, k, query)
            if np.isinf(want):
                assert np.isinf(got)
            else:
                worst = max(worst, abs(got - want))
                assert abs(got - want) <= 1e-9
            checked += 1
    report(3, True, f"{checked} LOF scores within 1e-9 of brute force (worst {worst:.2e})")


# --------------------------------------------------------------- criterion 4

def test_criterion_4_kde_normalisation_and_quantile():
    """100 fits: the whole-minute densities integrate to 1 +- 1e-3; the
    threshold obeys the quantile bound."""
    rng = np.random.default_rng(41)
    worst_integral = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 121))
        n_modes = int(rng.integers(1, 4))
        centres = rng.uniform(0.0, 24.0, n_modes)
        widths = rng.uniform(0.1, 2.5, n_modes)
        hours = np.concatenate([
            rng.normal(c, w, n // n_modes + 1) for c, w in zip(centres, widths)
        ])[:n] % 24.0
        minutes = np.floor(hours * 60.0).astype(int).clip(0, 1439).tolist()
        p = float(rng.uniform(0.5, 5.0))
        model = WrappedKde(percentile=p).fit_partial(minutes)

        # A periodic trapezoid: one node per whole minute, each 1/60 h wide.
        integral = float(model.densities.sum()) / 60.0
        worst_integral = max(worst_integral, abs(integral - 1.0))
        assert abs(integral - 1.0) <= 1e-3

        # The training densities behind the threshold and the verdicts are
        # the kernel table's, so the share below it is the share flagged.
        n_fit = len(minutes)
        below = sum(model.score_partial(minute).binary for minute in minutes)
        assert below / n_fit <= p / 100.0 + 1.0 / n_fit

    detail = f"worst |minute densities' sum / 60 - 1| = {worst_integral:.2e} (limit 1e-3)"
    report(4, True, f"100 fits: {detail}")


# --------------------------------------------------------------- criterion 5

def test_criterion_5_kmeans_rotation_and_metric():
    """Clustering is rotation equivariant; the circular distance is a metric."""
    base_minutes = [470 + 2 * i for i in range(10)] + [1310 + 2 * i for i in range(10)]
    queries = (180, 480, 700, 1320)
    base = CircularKMeans(seed=6).fit_partial(base_minutes)
    base_scores = {q: base.score_partial(q) for q in queries}

    offsets = np.random.default_rng(5).integers(1, 1440, 50)
    for offset in offsets:
        offset = int(offset)
        rotated = CircularKMeans(seed=6).fit_partial(
            [(m + offset) % 1440 for m in base_minutes]
        )
        assert rotated.chosen_k == base.chosen_k
        for q in queries:
            got = rotated.score_partial((q + offset) % 1440)
            assert got.binary == base_scores[q].binary
            assert got.raw == pytest.approx(base_scores[q].raw, abs=1e-6)

    rng = random.Random(17)
    for _ in range(10_000):
        a, b, c = (rng.uniform(0.0, 24.0) % 24.0 for _ in range(3))
        ab, bc, ac = circ_distance(a, b), circ_distance(b, c), circ_distance(a, c)
        assert 0.0 <= ab <= 12.0
        assert ab == circ_distance(b, a)
        assert ac <= ab + bc + 1e-9
        assert circ_distance(a, a) == 0.0

    report(5, True, "50 rotations equivariant; metric laws hold on 10000 triples")


# --------------------------------------------------------------- criterion 6

def test_criterion_6_majority_vote_exhaustive():
    """Every vote pattern with 1..5 voters against plain counting."""
    patterns = 0
    for n in range(1, 6):
        for bits in itertools.product((0, 1), repeat=n):
            cast = [(f"d{i}", Score(b, float(b))) for i, b in enumerate(bits)]
            assert majority_vote(cast) == oracles.majority_rule(bits)
            patterns += 1
    report(6, True, f"{patterns} vote patterns match the strict-majority rule")


# --------------------------------------------------------------- criterion 7

def test_criterion_7_prequential_truncation():
    """Stopping the stream right after any event leaves its score unchanged."""
    config = lambda: PipelineConfig(window=WindowConfig(3, 1, "week"))  # noqa: E731
    rng = random.Random(2024)
    streams_checked = 0
    for seed in range(20):
        events = stream_of(synth.generate(2, 6, 0.08, seed=100 + seed))
        full = Pipeline(config())
        for event in events:
            full.process_event(event)
        full_records = {r.event_id: r.to_record() for r in full.drain_scores()}
        if not full_records:
            continue
        index_of = {e.args[2]: i for i, e in enumerate(events)}
        target = rng.choice(sorted(full_records))
        cut = index_of[target] + 1

        partial = Pipeline(config())
        for event in events[:cut]:
            partial.process_event(event)
        partial_records = partial.drain_scores()
        assert partial_records[-1].to_record() == full_records[target]
        streams_checked += 1

    report(7, streams_checked == 20,
           f"{streams_checked}/20 truncated replays reproduce the full-run score")


# --------------------------------------------------------------- criterion 8

@pytest.fixture(scope="module")
def trend_runs():
    events = synth.generate(50, 26, 0.05, seed=20100104)
    labels = {e.event_id: e.label for e in events}
    stream = stream_of(events)
    runs = {}
    t0 = time.monotonic()
    for sliding in (5, 0):
        pipeline = Pipeline(PipelineConfig(window=WindowConfig(10, sliding, "week")))
        for event in stream:
            pipeline.process_event(event)
        runs[sliding] = [r.to_record() for r in pipeline.drain_scores()]
    elapsed = time.monotonic() - t0
    return {"labels": labels, "runs": runs, "elapsed": elapsed}


def test_criterion_8_sliding_window_trend(trend_runs):
    """50 users, 26 weeks, 5% anomalies: the sliding model wins as published."""
    labels = trend_runs["labels"]
    sliding = evaluate(trend_runs["runs"][5], labels)
    static = evaluate(trend_runs["runs"][0], labels)
    per_detector = {
        name: evaluate(trend_runs["runs"][5], labels, field=name).auc
        for name in ("kde", "kmeans", "lof")
    }
    gap = sliding.auc - static.auc
    elapsed = trend_runs["elapsed"]

    detail = (
        f"DR={sliding.detection_rate:.3f} (>=0.85), "
        f"AUC sliding={sliding.auc:.3f} static={static.auc:.3f} gap={gap:.3f} (>=0.05), "
        f"combined>=min(per)={sliding.auc >= min(per_detector.values())}, "
        f"runtime={elapsed:.1f}s (<120s)"
    )
    ok = (
        sliding.detection_rate >= 0.85
        and gap >= 0.05
        and sliding.auc >= min(per_detector.values())
        and elapsed < 120.0
    )
    report(8, ok, detail)


#: sha256 over the sliding run's score records, one sorted-key JSON line
#: each, as ``flowdetect run`` writes them.  The run holds 600 fits, 200 of
#: them k-means, so a near-tie flip in the chosen k would change it.
#: It last changed when KDE scores came to be defined by the per-fit kernel
#: table: ``kde.raw`` moved by at most 8.3e-16, and no verdict changed.
TREND_SLIDING_SCORES_SHA256 = "44d0817f8f9a6aabe3c988ba7e1093fa5bc135598ace68d8802ff04d1a51f3c8"


def test_criterion_8_sliding_scores_match_golden_digest(trend_runs):
    digest = hashlib.sha256()
    for record in trend_runs["runs"][5]:
        digest.update((json.dumps(record, sort_keys=True) + "\n").encode())
    assert len(trend_runs["runs"][5]) == 13776
    assert digest.hexdigest() == TREND_SLIDING_SCORES_SHA256


# --------------------------------------------------------------- criterion 9

def test_criterion_9_byte_identical_runs(tmp_path, capsys):
    """Same corpus, same config: alert and score files match byte for byte."""
    events_csv = tmp_path / "events.csv"
    labels_csv = tmp_path / "labels.csv"
    assert cli_main([
        "synth", "--users", "12", "--weeks", "14", "--rate", "0.05", "--seed", "3",
        "--events-out", str(events_csv), "--labels-out", str(labels_csv),
    ]) == 0

    outputs = []
    summaries = []
    for tag in ("one", "two"):
        alerts = tmp_path / f"alerts-{tag}.jsonl"
        scores = tmp_path / f"scores-{tag}.jsonl"
        capsys.readouterr()
        assert cli_main([
            "run", "--input", str(events_csv),
            "--alerts-out", str(alerts), "--scores-out", str(scores),
        ]) == 0
        summaries.append(capsys.readouterr().out)
        outputs.append((alerts.read_bytes(), scores.read_bytes()))

    ok = outputs[0] == outputs[1] and summaries[0] == summaries[1]
    n_alerts = outputs[0][0].count(b"\n")
    n_scores = outputs[0][1].count(b"\n")
    report(9, ok, f"two runs byte-identical ({n_alerts} alerts, {n_scores} scored events)")


def test_criterion_9_digests_hold_at_numpys_baseline_simd_level():
    # Beside the AVX-512 groups, disabling X86_V3 (AVX2, FMA3 and the rest)
    # leaves a fresh process only numpy's X86_V2 baseline loops.
    if "avx2" not in _cpu_flags():
        pytest.skip("/proc/cpuinfo lists no avx2: numpy takes its baseline loops here anyway")
    _rerun_criterion_9(NPY_DISABLE_CPU_FEATURES="X86_V3,X86_V4,AVX512_ICL,AVX512_SPR")
