"""Detection-rate and ROC evaluation of a scored run against labels."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from .errors import InputError


@dataclass
class EvalReport:
    detection_rate: float
    roc_points: list[tuple[float, float]]
    auc: float
    alert_count: int
    tp: int
    fp: int
    tn: int
    fn: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "detection_rate": self.detection_rate,
            "auc": self.auc,
            "alert_count": self.alert_count,
            "confusion": {"tp": self.tp, "fp": self.fp, "tn": self.tn, "fn": self.fn},
            "roc_points": [[fpr, tpr] for fpr, tpr in self.roc_points],
        }


def load_scores(path: str) -> list[dict[str, Any]]:
    """Read a line-delimited scores file written by a run."""
    records = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise InputError(f"{path}:{lineno}: not valid JSON: {exc}") from exc
    return records


def load_labels(path: str) -> dict[str, int]:
    """Read an ``id,label`` CSV into an event-id to 0/1 map."""
    labels: dict[str, int] = {}
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or not {"id", "label"} <= set(reader.fieldnames):
            raise InputError(f"{path}: expected columns id,label")
        for row in reader:
            labels[row["id"]] = int(row["label"])
    return labels


def roc_curve(
    values: Sequence[float], labels: Sequence[int]
) -> tuple[list[tuple[float, float]], float]:
    """Threshold sweep over ``values``; higher means more anomalous.

    Returns points sorted from (0, 0) to (1, 1) plus the trapezoidal AUC.
    Both classes must be present.  One sort and one pass (Fawcett 2006):
    each distinct value, taken as the threshold, adds one point once every
    record tied at it has been counted.
    """
    if len(values) != len(labels):
        raise InputError("scores and labels differ in length")
    positives = sum(1 for y in labels if y == 1)
    negatives = len(labels) - positives
    if positives == 0 or negatives == 0:
        raise InputError("ROC requires both classes in the labels")
    ranked = sorted(zip(values, labels), key=lambda pair: pair[0], reverse=True)
    points = [(0.0, 0.0)]
    tp = fp = 0
    for i, (value, label) in enumerate(ranked):
        if label == 1:
            tp += 1
        elif label == 0:
            fp += 1
        if i + 1 == len(ranked) or ranked[i + 1][0] != value:
            points.append((fp / negatives, tp / positives))
    auc = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        auc += (x1 - x0) * (y1 + y0) / 2.0
    return points, auc


def evaluate(
    records: Sequence[Mapping[str, Any]],
    labels: Mapping[str, int],
    field: str = "votes",
) -> EvalReport:
    """Score a run: confusion at the alert decision, ROC over ``field``.

    ``field`` is ``"votes"`` or a detector name (its raw score is swept; the
    few records where that detector cast no vote are left out of the curve).
    Every scored event must be labelled.
    """
    missing = [r["eventId"] for r in records if r["eventId"] not in labels]
    if missing:
        shown = ", ".join(missing[:5])
        raise InputError(f"{len(missing)} scored events have no label (first: {shown})")

    tp = fp = tn = fn = 0
    alert_count = 0
    values: list[float] = []
    swept_labels: list[int] = []
    for record in records:
        label = labels[record["eventId"]]
        alerted = bool(record["alert"])
        alert_count += int(alerted)
        if alerted and label == 1:
            tp += 1
        elif alerted:
            fp += 1
        elif label == 1:
            fn += 1
        else:
            tn += 1
        if field == "votes":
            values.append(float(record["votes"]))
            swept_labels.append(label)
        else:
            entry = record["detectors"].get(field)
            if entry is not None:
                values.append(float(entry["raw"]))
                swept_labels.append(label)
    if not values:
        raise InputError(f"no records carry scores for field {field!r}")
    points, auc = roc_curve(values, swept_labels)
    rate = tp / (tp + fn) if tp + fn else 0.0
    return EvalReport(
        detection_rate=rate,
        roc_points=points,
        auc=auc,
        alert_count=alert_count,
        tp=tp,
        fp=fp,
        tn=tn,
        fn=fn,
    )


def evaluate_files(scores_path: str, labels_path: str, field: str = "votes") -> EvalReport:
    return evaluate(load_scores(scores_path), load_labels(labels_path), field)
