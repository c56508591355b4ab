"""Golden outputs: the alert and score bytes of a fixed corpus are pinned.

Criterion 9 proves that two runs of the same code agree; these digests
prove that a change to the code leaves the outputs as they were.  A change
that alters them on purpose updates the digests and says why.
"""

from __future__ import annotations

import hashlib

from flowdetect.cli import main as cli_main

#: sha256 of ``alerts.jsonl`` and ``scores.jsonl`` for the criterion-9
#: corpus: synth with 12 users, 14 weeks, rate 0.05, seed 3, default config.
CRITERION_9_ALERTS_SHA256 = "c4334765773422d18b129393ae1b9689d02c3faaeb24d8eee9458300b3c67e3a"
CRITERION_9_SCORES_SHA256 = "ee62a4813815bcce6455737efe3f7cbda7dbdab4fb432061b0ddf31c8cf8a50b"


def test_criterion_9_corpus_outputs_match_golden_digests(tmp_path, capsys):
    events_csv = tmp_path / "events.csv"
    labels_csv = tmp_path / "labels.csv"
    alerts = tmp_path / "alerts.jsonl"
    scores = tmp_path / "scores.jsonl"
    assert cli_main([
        "synth", "--users", "12", "--weeks", "14", "--rate", "0.05", "--seed", "3",
        "--events-out", str(events_csv), "--labels-out", str(labels_csv),
    ]) == 0
    assert cli_main([
        "run", "--input", str(events_csv),
        "--alerts-out", str(alerts), "--scores-out", str(scores),
    ]) == 0
    capsys.readouterr()
    assert hashlib.sha256(alerts.read_bytes()).hexdigest() == CRITERION_9_ALERTS_SHA256
    assert hashlib.sha256(scores.read_bytes()).hexdigest() == CRITERION_9_SCORES_SHA256
