"""Detection-rate and ROC evaluation of a scored run against labels."""

from __future__ import annotations

import csv
import json
import math
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

    def _summary(self) -> dict[str, Any]:
        """Every field but the ROC points."""
        return {
            "detection_rate": self.detection_rate,
            "auc": self.auc,
            "alert_count": self.alert_count,
            "confusion": {"tp": self.tp, "fp": self.fp, "tn": self.tn, "fn": self.fn},
        }

    def to_dict(self) -> dict[str, Any]:
        return {**self._summary(), "roc_points": [[fpr, tpr] for fpr, tpr in self.roc_points]}

    def to_json(self) -> str:
        """``json.dumps(self.to_dict(), sort_keys=True, indent=2)``, byte for byte.

        With an ``indent``, ``json`` leaves its C encoder for a Python frame
        per value, thousands of them for a detector's curve.  Here only the
        small summary goes through ``json.dumps``.  The points go through the
        C encoder, which writes every value as ``json`` writes it (``0.25``,
        ``1e-05``, ``Infinity``, ``3``) and puts each value of a point on a
        line of its own; one replace then splits the points apart.  No
        number ``json`` writes holds a ``,``, a space or a bracket.
        """
        head = json.dumps(self._summary(), sort_keys=True, indent=2)
        points = "[]"
        if self.roc_points:
            # "[[x,\n      y],\n      [x,\n      y]]": between two points
            # indent=2 closes one and opens the next on lines of their own.
            inner = _encode_points(self.roc_points)[2:-2]
            inner = inner.replace("],\n      [", "\n    ],\n    [\n      ")
            points = f"[\n    [\n      {inner}\n    ]\n  ]"
        # "roc_points" sorts after every summary key, so it closes the object.
        return f'{head[:-2]},\n  "roc_points": {points}\n}}'


#: ``json``'s C encoder, with the separator ``indent=2`` puts between the
#: two values of a point, three levels deep.
_encode_points = json.JSONEncoder(separators=(",\n      ", ": ")).encode
_decoder = json.JSONDecoder()
#: Decodes one value and says where it ended, in one scanner call.
_raw_decode = _decoder.raw_decode
#: The decoder ``json.loads`` ends in, without its per-call argument and BOM
#: checks; ``load_scores`` restores the BOM message when a line fails.
_decode = _decoder.decode
#: The label column's two accepted texts and the values they read as.
_LABELS = {"0": 0, "1": 1}


def load_scores(path: str) -> list[dict[str, Any]]:
    """Read a line-delimited scores file written by a run.

    Each line holds one JSON value; blank and whitespace-only lines are
    skipped.  A byte-order mark that opens the file is skipped, as the CSV
    readers skip one; a line further on that opens with one is not valid
    JSON, and so is a line nested too deeply for the decoder.  A line that
    fails is named by its path and number with ``json.loads``' own message.

    Each stripped line is decoded in one scanner call, and kept when the
    value ends the line.  A value followed by more text is decoded again the
    way ``json.loads`` decodes it, only for that message.
    """
    records = []
    with open(path, encoding="utf-8-sig") as handle:
        try:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    # decode is raw_decode from the first character that is
                    # not whitespace, 0 here, then a check that the value
                    # ends the line; so a raised error is decode's own.
                    record, end = _raw_decode(line)
                    if end != len(line):
                        record = _decode(line)  # raises json's "Extra data" error
                    records.append(record)
                except json.JSONDecodeError as exc:
                    if line[0] == "\ufeff":  # the hint json.loads gives and decode skips
                        exc = json.JSONDecodeError(
                            "Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0
                        )
                    raise InputError(f"{path}:{lineno}: not valid JSON: {exc}") from exc
                except RecursionError as exc:  # nested deeper than the scanner goes
                    raise InputError(f"{path}:{lineno}: not valid JSON: {exc}") from None
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not valid UTF-8: {exc}") from None
    return records


def load_labels(path: str) -> dict[str, int]:
    """Read an ``id,label`` CSV into an event-id to 0/1 map."""
    labels: dict[str, int] = {}
    with open(path, encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None or not {"id", "label"} <= set(header):
                raise InputError(f"{path}: expected columns id,label")
            # As in csv.DictReader: a repeated name reads its last column,
            # a blank line is no row, and a field a short row lacks is None,
            # so a row too short to hold its label or its id is refused.
            column = {name: i for i, name in enumerate(header)}
            id_at, label_at = column["id"], column["label"]
            width = max(id_at, label_at) + 1
            for row in reader:
                if len(row) < width:
                    if not row:
                        continue
                    row += [None] * (width - len(row))
                event_id, label = row[id_at], row[label_at]
                value = _LABELS.get(label)
                if value is None:
                    raise InputError(f"{path}:{reader.line_num}: label must be 0 or 1, got {label!r}")
                if not event_id:
                    raise InputError(f"{path}:{reader.line_num}: id is missing")
                if event_id in labels:
                    raise InputError(f"{path}:{reader.line_num}: id {event_id!r} is labelled twice")
                labels[event_id] = value
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not valid UTF-8: {exc}") from None
        except csv.Error as exc:  # such as a field over csv.field_size_limit()
            raise InputError(f"{path}:{reader.line_num}: {exc}") from None
    return labels


def roc_curve(
    values: Sequence[float], labels: Sequence[int]
) -> tuple[list[tuple[float, float]], float]:
    """Threshold sweep over ``values``; higher means more anomalous.

    Returns points sorted from (0, 0) to (1, 1) plus the trapezoidal AUC.
    Every label must be 0 or 1, and both classes present.  No value may be
    NaN, which would rank by input order.  One sort and one pass (Fawcett
    2006): each distinct value, taken as the threshold, adds one point once
    every record tied at it has been counted.
    """
    if len(values) != len(labels):
        raise InputError("scores and labels differ in length")
    positives = sum(1 for y in labels if y == 1)
    negatives = sum(1 for y in labels if y == 0)
    if positives + negatives != len(labels):
        other = next(y for y in labels if y != 0 and y != 1)
        raise InputError(f"labels must be 0 or 1, got {other!r}")
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
            # NaN equals no value, so every NaN ends a run of ties here.
            if value != value:
                raise InputError("values include NaN, which has no place in the ranking")
            points.append((fp / negatives, tp / positives))
    auc = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        auc += (x1 - x0) * (y1 + y0) / 2.0
    return points, auc


def _swept(field: str, value: Any) -> float:
    """``value`` as swept: a number that is not a bool, and not NaN."""
    kind = type(value)
    if kind is not float and kind is not int:  # what JSON numbers decode to
        if kind is bool or not isinstance(value, (int, float)):
            raise ValueError(f"{field} is {value!r}, not a number")
    value = float(value)
    if math.isnan(value):
        raise ValueError(f"{field} is NaN")
    return value


def evaluate(
    records: Sequence[Mapping[str, Any]],
    labels: Mapping[str, int],
    field: str = "votes",
) -> EvalReport:
    """Score a run: confusion at the alert decision, ROC over ``field``.

    ``field`` is ``"votes"`` or a detector name (its raw score is swept; the
    few records where that detector cast no vote are left out of the curve).
    Every scored event must be labelled 0 or 1.  ``alert`` must be ``True``
    or ``False``, and each swept value a number that is not a bool: JSON
    ``true`` and ``"3"`` are no vote counts.  No swept value may be NaN,
    which has no place in the ranking; infinite values are kept.
    """
    tp = fp = tn = fn = 0
    alert_count = 0
    missing: list[str] = []
    values: list[float] = []
    swept_labels: list[int] = []
    for number, record in enumerate(records, start=1):
        try:
            label = labels.get(record["eventId"])
            if label is None:
                missing.append(record["eventId"])
                continue
            alerted = record["alert"]
            if alerted is not True and alerted is not False:
                raise ValueError(f"alert is {alerted!r}, not true or false")
            if field == "votes":
                value = _swept(field, record["votes"])
            else:
                entry = record["detectors"].get(field)
                value = None if entry is None else _swept(field, entry["raw"])
        except KeyError as exc:
            raise InputError(f"score record {number} has no {exc.args[0]!r} field") from None
        except (AttributeError, TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"score record {number} is malformed: {exc}") from None
        alert_count += int(alerted)
        if label == 1:
            if alerted:
                tp += 1
            else:
                fn += 1
        elif label == 0:
            if alerted:
                fp += 1
            else:
                tn += 1
        else:
            raise InputError(f"label of {record['eventId']!r} must be 0 or 1, got {label!r}")
        if value is not None:
            values.append(value)
            swept_labels.append(label)
    if missing:
        shown = ", ".join(map(str, missing[:5]))
        raise InputError(f"{len(missing)} scored events have no label (first: {shown})")
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
