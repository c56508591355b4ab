"""Golden outputs: the alert and score bytes of a fixed corpus are pinned.

Criterion 9 proves that two runs of the same code agree; these digests
prove that a change to the code leaves the outputs as they were.  A change
that alters them on purpose updates the digests and says why.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from flowdetect import synth
from flowdetect.cli import main as cli_main
from flowdetect.detectors import CircularKMeans, CosineLof, WrappedKde
from flowdetect.engine import Event
from flowdetect.pipeline import Pipeline
from flowdetect.windowing import DEFAULT_DATE_FORMAT

#: sha256 of ``alerts.jsonl`` and ``scores.jsonl`` for the criterion-9
#: corpus: synth with 12 users, 14 weeks, rate 0.05, seed 3, default config.
#: The scores digest last changed when KDE scores came to be defined by the
#: per-fit kernel table (``kde.raw`` moved by at most 2.8e-16; no verdict).
CRITERION_9_ALERTS_SHA256 = "c4334765773422d18b129393ae1b9689d02c3faaeb24d8eee9458300b3c67e3a"
CRITERION_9_SCORES_SHA256 = "2b456cf90fca41d2e5112872440cb418aeac5e15915395dc827fa2ab7183d41d"

#: sha256 of each user's refits, in order, over the same corpus replayed
#: through ``Pipeline``: the JSON list of ``[detector, trained_version]``,
#: with k-means' chosen k appended.  Each user's window fills once in 14
#: weeks, so every detector is fitted once per user.
_K2 = "7119c151925fa62673346caa5b4b116e7e315f7b22e114aa6ea78e4ebabd1814"
_K3 = "a395c61f1df432db486e36ec483d1538fde8ab5c3f5a1ec214ca8f73b6208ba9"
CRITERION_9_FIT_HISTORY_SHA256 = {
    "U0000": "493bfdb89b627e33207011dc7a9a29e7737f6d1771a427e8e99b32d315f05825",
    "U0001": _K2,
    "U0002": _K2,
    "U0003": _K3,
    "U0004": _K2,
    "U0005": _K3,
    "U0006": _K3,
    "U0007": _K2,
    "U0008": _K2,
    "U0009": _K2,
    "U0010": "4230e92855bf29c60e0ca31d6bc4685c4316ced18a9ea93610296bb6d81f3a81",
    "U0011": _K3,
}


#: sha256 of ``flowdetect evaluate`` standard output for each swept field,
#: over the criterion-9 scores and labels: the report bytes, ``indent=2``
#: encoder included.
CRITERION_9_EVALUATE_SHA256 = {
    "votes": "15762a81c6618b09d801cb78818f3d5e7d79fba72883bf5954cd7235a770d994",
    "kde": "fb49abab66e6bb4f88051c3fd8612edac978c9ca225322dadda3aa0201ffb287",
    "kmeans": "61fc09c9f0473af8b3aee765c1942411cc76d5ec0afae73b330d828d6d4b8134",
    "lof": "f19034da7a96a31eca387b46550bc6a89ab34051a66ecb416c6a3cbc63e46792",
}


@pytest.fixture(scope="module")
def criterion_9_corpus(tmp_path_factory) -> dict[str, Path]:
    """Labels, alerts and scores of the criterion-9 corpus, made once."""
    root = tmp_path_factory.mktemp("criterion_9")
    paths = {name: root / name for name in ("events.csv", "labels.csv", "alerts.jsonl", "scores.jsonl")}
    assert cli_main([
        "synth", "--users", "12", "--weeks", "14", "--rate", "0.05", "--seed", "3",
        "--events-out", str(paths["events.csv"]), "--labels-out", str(paths["labels.csv"]),
    ]) == 0
    assert cli_main([
        "run", "--input", str(paths["events.csv"]),
        "--alerts-out", str(paths["alerts.jsonl"]), "--scores-out", str(paths["scores.jsonl"]),
    ]) == 0
    return paths


def test_criterion_9_corpus_outputs_match_golden_digests(criterion_9_corpus):
    alerts, scores = criterion_9_corpus["alerts.jsonl"], criterion_9_corpus["scores.jsonl"]
    assert hashlib.sha256(alerts.read_bytes()).hexdigest() == CRITERION_9_ALERTS_SHA256
    assert hashlib.sha256(scores.read_bytes()).hexdigest() == CRITERION_9_SCORES_SHA256


@pytest.mark.parametrize("field", sorted(CRITERION_9_EVALUATE_SHA256))
def test_criterion_9_evaluate_reports_match_golden_digests(criterion_9_corpus, capsys, field):
    capsys.readouterr()
    assert cli_main([
        "evaluate", "--input", str(criterion_9_corpus["scores.jsonl"]),
        "--labels", str(criterion_9_corpus["labels.csv"]), "--field", field,
    ]) == 0
    report = capsys.readouterr().out.encode()
    assert hashlib.sha256(report).hexdigest() == CRITERION_9_EVALUATE_SHA256[field]


#: sha256 of the ``dump-state`` text of a ``fanout``-like stream: 200 users,
#: one week, static profile, seed 1.  No window fills, so no detector runs
#: and the digest holds on any CPU; it pins ingest, parsing, the window fold
#: and the shape of every user's machine state.
UNFILLED_DUMP_STATE_SHA256 = "84b1ef2ea3dbb3d765091a99c4b6e510936e3ea31701fd4245a777d2d07f054f"


def test_unfilled_windows_dump_state_matches_golden_digest(tmp_path):
    events_csv = tmp_path / "events.csv"
    state = tmp_path / "state.json"
    synth.write_events(synth.generate(200, 1, 0.0, seed=1, profile="static"), str(events_csv))
    assert cli_main(["dump-state", "--input", str(events_csv), "--out", str(state)]) == 0
    assert hashlib.sha256(state.read_bytes()).hexdigest() == UNFILLED_DUMP_STATE_SHA256


def _record_fits(monkeypatch) -> list[list]:
    """Record every detector fit, in order.

    A refit is recorded as ``[detector, trained_version]``, plus the chosen
    k for k-means.
    """
    fits: list[list] = []
    for cls in (CircularKMeans, WrappedKde, CosineLof):

        def recording(self, minutes, version=0, _fit=cls.fit_partial):
            fitted = _fit(self, minutes, version)
            entry = [fitted.name, fitted.trained_version]
            if isinstance(fitted, CircularKMeans):
                entry.append(fitted.chosen_k)
            fits.append(entry)
            return fitted

        monkeypatch.setattr(cls, "fit_partial", recording)
    return fits


def _criterion_9_events() -> list[Event]:
    return [
        Event("e", (e.user, e.when.strftime(DEFAULT_DATE_FORMAT), e.event_id))
        for e in synth.generate(12, 14, 0.05, seed=3)
    ]


def _fit_histories(monkeypatch) -> dict[str, list[list]]:
    """Replay the criterion-9 corpus; return each user's refits in order."""
    fits = _record_fits(monkeypatch)
    pipeline = Pipeline()
    histories: dict[str, list[list]] = {}
    for event in _criterion_9_events():
        before = len(fits)
        pipeline.process_event(event)
        histories.setdefault(event.args[0], []).extend(fits[before:])
    return histories


def _digest_histories(histories: dict[str, list[list]]) -> dict[str, str]:
    return {
        user: hashlib.sha256(json.dumps(fits).encode()).hexdigest()
        for user, fits in sorted(histories.items())
    }


def test_criterion_9_corpus_fit_histories_match_golden_digests(monkeypatch):
    histories = _fit_histories(monkeypatch)
    assert _digest_histories(histories) == CRITERION_9_FIT_HISTORY_SHA256


def _line(record: dict) -> bytes:
    return (json.dumps(record, sort_keys=True) + "\n").encode()


def test_two_pipelines_in_one_process_both_match_golden_digests(monkeypatch):
    # Attribute-free machine states are shared process-wide, so two machines
    # stepped in turn must still keep apart.
    fits = _record_fits(monkeypatch)
    pipelines = (Pipeline(), Pipeline())
    alerts = [hashlib.sha256(), hashlib.sha256()]
    scores = [hashlib.sha256(), hashlib.sha256()]
    histories: list[dict[str, list[list]]] = [{}, {}]
    for event in _criterion_9_events():
        for i, pipeline in enumerate(pipelines):
            before = len(fits)
            for alert in pipeline.process_event(event):
                alerts[i].update(_line({
                    "eventId": alert.event_id,
                    "userId": alert.user_id,
                    "eventDate": alert.event_date,
                    "votes": alert.votes,
                }))
            for record in pipeline.drain_scores():
                scores[i].update(_line(record.to_record()))
            histories[i].setdefault(event.args[0], []).extend(fits[before:])
    for i in range(2):
        assert alerts[i].hexdigest() == CRITERION_9_ALERTS_SHA256
        assert scores[i].hexdigest() == CRITERION_9_SCORES_SHA256
        assert _digest_histories(histories[i]) == CRITERION_9_FIT_HISTORY_SHA256


def _cpu_flags() -> set[str]:
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    for line in cpuinfo.splitlines():
        if line.startswith("flags"):
            return set(line.partition(":")[2].split())
    return set()


def _rerun_criterion_9(**environ: str) -> None:
    """Rerun the criterion-9 golden tests in a child process with ``environ``.

    The child runs the alerts-and-scores and the fit-history tests.
    """
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, **environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])
    )
    child = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            f"{__file__}::test_criterion_9_corpus_outputs_match_golden_digests",
            f"{__file__}::test_criterion_9_corpus_fit_histories_match_golden_digests",
        ],
        cwd=root, env=env, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0 and "2 passed" in child.stdout, child.stdout + child.stderr


@pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
def test_criterion_9_digests_hold_under_other_blas_kernels(coretype):
    # OpenBLAS picks its kernels for the CPU it finds; OPENBLAS_CORETYPE
    # makes a fresh process take another CPU's.
    if "avx2" not in _cpu_flags():
        pytest.skip("/proc/cpuinfo lists no avx2: the Haswell kernels cannot run here")
    _rerun_criterion_9(OPENBLAS_CORETYPE=coretype)


def test_criterion_9_digests_hold_without_avx512_paths():
    # numpy dispatches some loops (``np.exp`` among them) to AVX-512 code
    # where the CPU has it; disabling those features makes a fresh process
    # take the AVX2 or baseline loops instead.
    if "avx512f" not in _cpu_flags():
        pytest.skip("/proc/cpuinfo lists no avx512f: numpy takes no AVX-512 path here")
    _rerun_criterion_9(NPY_DISABLE_CPU_FEATURES="X86_V4,AVX512_ICL,AVX512_SPR")


@pytest.mark.parametrize("hashseed", ["0", "12345"])
def test_criterion_9_digests_hold_under_other_hash_seeds(hashseed):
    # Outputs must not depend on hash order: PYTHONHASHSEED changes every
    # str hash, and with them the iteration order of sets of strings.
    _rerun_criterion_9(PYTHONHASHSEED=hashseed)
