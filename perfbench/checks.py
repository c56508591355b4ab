"""Output checks and statistics computed apart from flowdetect.

Nothing here imports the package under test: every expectation is derived
again from the CSV log, the labels and the files a run wrote, with the
standard library only.  Each ``check_*`` function returns a list of
problems; an empty list means the outputs are correct.
"""

from __future__ import annotations

import csv
import json
import math
import re
from datetime import datetime

#: Timestamp layout of the logs the synthetic generator writes.
DATE_FORMAT = "%m/%d/%Y %H:%M:%S"

#: The trend workload's window rule: fill at 10 distinct ISO weeks, evict the
#: oldest 5 when 15 are held, train only on at least 30 samples.
WINDOW_WEEKS = 10
SLIDE_WEEKS = 5
MIN_SAMPLES = 30


# --------------------------------------------------------------- statistics


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile over the ``n - 1`` spacing of the sorted data."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of an empty sample")
    rank = q * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def mann_whitney_auc(values, labels) -> float:
    """P(score of a positive > score of a negative), ties counting one half.

    Computed from average ranks after one sort, not by sweeping thresholds.
    """
    pairs = sorted(zip(values, labels), key=lambda p: p[0])
    positives = sum(1 for y in labels if y == 1)
    negatives = len(labels) - positives
    rank_sum = 0.0
    i = 0
    while i < len(pairs):
        j = i
        while j < len(pairs) and pairs[j][0] == pairs[i][0]:
            j += 1
        mean_rank = (i + 1 + j) / 2.0  # ranks i+1 .. j share their average
        rank_sum += mean_rank * sum(1 for _, y in pairs[i:j] if y == 1)
        i = j
    u = rank_sum - positives * (positives + 1) / 2.0
    return u / (positives * negatives)


# --------------------------------------------------------------- inputs


def read_log(path: str) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def read_labels(path: str) -> dict[str, int]:
    with open(path, encoding="utf-8", newline="") as handle:
        return {row["id"]: int(row["label"]) for row in csv.DictReader(handle)}


def read_jsonl(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def parse_summary(text: str) -> dict[str, int]:
    """The ``key=value`` counters a ``run`` prints as its last line."""
    return {k: int(v) for k, v in re.findall(r"(\w+)=(\d+)", text)}


def _when(text: str) -> datetime | None:
    try:
        return datetime.strptime(text, DATE_FORMAT)
    except ValueError:
        pass
    try:
        return datetime.fromisoformat(text)
    except ValueError:
        return None


def week_code(when: datetime) -> int:
    year, week, _ = when.isocalendar()
    return year * 100 + week


def log_counts(rows: list[dict[str, str]]) -> dict[str, int]:
    """What ``run`` should report for a log: accepted events, users, dropped rows."""
    malformed = skipped = 0
    users = set()
    for row in rows:
        if not row.get("id") or not row.get("date") or not row.get("user"):
            malformed += 1
        elif _when(row["date"]) is None:
            skipped += 1
        else:
            users.add(row["user"])
    return {
        "events": len(rows) - malformed - skipped,
        "users": len(users),
        "skipped_dates": skipped,
        "malformed_rows": malformed,
        "filtered_rows": 0,
    }


def _valid_events(rows):
    for row in rows:
        if row.get("id") and row.get("date") and row.get("user"):
            when = _when(row["date"])
            if when is not None:
                yield row["id"], row["user"], when


def _compare_counts(summary: dict[str, int], rows) -> list[str]:
    expected = log_counts(rows)
    return [
        f"{key}: run reported {summary.get(key)}, the log gives {value}"
        for key, value in expected.items()
        if summary.get(key) != value
    ]


# --------------------------------------------------------------- trend


def replay_week_windows(rows) -> tuple[int, list[str], dict[str, str]]:
    """Restate the sliding week window for every user, in log order.

    Returns the number of retraining events, the ids of the events scored
    and each user's first scored event.  An event is scored against the
    state before it is folded in; a retrain happens on the first event
    after the window gained a version, once it holds enough samples.
    """
    users: dict[str, dict] = {}
    retrains = 0
    scored: list[str] = []
    first: dict[str, str] = {}
    for event_id, user, when in _valid_events(rows):
        s = users.setdefault(
            user, {"weeks": {}, "version": 0, "trained": 0, "evicted": None}
        )
        weeks = s["weeks"]
        if s["version"] > s["trained"] and sum(weeks.values()) >= MIN_SAMPLES:
            s["trained"] = s["version"]
            retrains += 1
        if s["trained"]:
            scored.append(event_id)
            first.setdefault(user, event_id)
        week = week_code(when)
        if s["evicted"] is not None and week <= s["evicted"]:
            continue
        if week not in weeks:
            weeks[week] = 0
            held = sorted(weeks)
            if len(held) == WINDOW_WEEKS and s["version"] == 0:
                s["version"] = 1
            if len(held) == WINDOW_WEEKS + SLIDE_WEEKS:
                for old in held[:SLIDE_WEEKS]:
                    del weeks[old]
                s["evicted"] = held[SLIDE_WEEKS - 1]
                s["version"] += 1
        weeks[week] += 1
    return retrains, scored, first


def check_votes(scores: list[dict], alerts: list[dict]) -> list[str]:
    """Every score line alerts exactly on a strict majority; alerts match it."""
    problems = []
    for record in scores:
        binaries = [d["binary"] for d in record["detectors"].values()]
        if record["cast"] != len(binaries) or record["votes"] != sum(binaries):
            problems.append(f"{record['eventId']}: votes/cast disagree with its detectors")
        if record["alert"] != (record["votes"] > record["cast"] // 2):
            problems.append(f"{record['eventId']}: alert is not a strict majority")
    alerted = [r["eventId"] for r in scores if r["alert"]]
    if [a["eventId"] for a in alerts] != alerted:
        problems.append(
            f"alerts file holds {len(alerts)} events, score lines alert {len(alerted)}"
        )
    return problems[:20]


def detection_rate(scores: list[dict], labels: dict[str, int]) -> float:
    anomalous = [r for r in scores if labels[r["eventId"]] == 1]
    return sum(1 for r in anomalous if r["alert"]) / len(anomalous) if anomalous else 0.0


def check_trend(
    rows, labels, summary, scores, alerts, detectors: int, min_rate: float | None
) -> list[str]:
    """``min_rate`` is the least detection rate accepted; None checks none."""
    problems = _compare_counts(summary, rows)
    problems += check_votes(scores, alerts)
    retrain_events, scored, first = replay_week_windows(rows)
    if summary.get("retrains") != detectors * retrain_events:
        problems.append(
            f"retrains: run reported {summary.get('retrains')}, the window rule gives "
            f"{detectors} x {retrain_events}"
        )
    if [r["eventId"] for r in scores] != scored:
        problems.append(f"scored events: run wrote {len(scores)}, the window rule gives {len(scored)}")
    seen: dict[str, str] = {}
    for record in scores:
        seen.setdefault(record["userId"], record["eventId"])
    if seen != first:
        problems.append("a user's first scored event differs from the window rule")
    rate = detection_rate(scores, labels)
    if min_rate is not None and rate < min_rate:
        problems.append(f"detection rate {rate:.3f} < {min_rate}")
    return problems


# --------------------------------------------------------------- fanout


def training_data(rows) -> dict[str, dict[int, list[int]]]:
    """Each user's minutes of day in arrival order, grouped by ISO week code."""
    out: dict[str, dict[int, list[int]]] = {}
    for _, user, when in _valid_events(rows):
        weeks = out.setdefault(user, {})
        weeks.setdefault(week_code(when), []).append(when.hour * 60 + when.minute)
    return out


def check_fanout(rows, summary, scores, alerts, data_for) -> list[str]:
    """``data_for(user)`` returns the pipeline's training data for that user."""
    problems = _compare_counts(summary, rows)
    expected = training_data(rows)
    widest = max((len(weeks) for weeks in expected.values()), default=0)
    if widest >= WINDOW_WEEKS:
        problems.append(f"a user spans {widest} ISO weeks; a window could fill")
    for key, found in (("retrains", summary.get("retrains")), ("alerts", summary.get("alerts"))):
        if found != 0:
            problems.append(f"{key}: run reported {found}, expected 0")
    if scores or alerts:
        problems.append(f"wrote {len(scores)} score lines and {len(alerts)} alerts, expected none")
    wrong = [user for user, weeks in expected.items() if data_for(user) != weeks]
    if wrong:
        problems.append(f"{len(wrong)} users hold other training data (first: {wrong[0]})")
    return problems


# --------------------------------------------------------------- evaluate


def check_report(report: dict, records: list[dict], labels: dict[str, int], field: str) -> list[str]:
    """Check one ``evaluate`` report against the records it was computed from."""
    problems = []
    values, swept = [], []
    confusion = {"tp": 0, "fp": 0, "tn": 0, "fn": 0}
    for record in records:
        label = labels[record["eventId"]]
        if record["alert"]:
            confusion["tp" if label == 1 else "fp"] += 1
        else:
            confusion["fn" if label == 1 else "tn"] += 1
        if field == "votes":
            values.append(float(record["votes"]))
            swept.append(label)
        elif field in record["detectors"]:
            values.append(float(record["detectors"][field]["raw"]))
            swept.append(label)
    if report["confusion"] != confusion:
        problems.append(f"{field}: confusion {report['confusion']} != {confusion}")
    if report["alert_count"] != confusion["tp"] + confusion["fp"]:
        problems.append(f"{field}: alert count {report['alert_count']} is wrong")
    flagged = confusion["tp"] + confusion["fn"]
    if report["detection_rate"] != (confusion["tp"] / flagged if flagged else 0.0):
        problems.append(f"{field}: detection rate {report['detection_rate']!r} is wrong")
    auc = mann_whitney_auc(values, swept)
    if abs(report["auc"] - auc) > 1e-9:
        problems.append(f"{field}: AUC {report['auc']!r} != Mann-Whitney {auc!r}")
    points = report["roc_points"]
    if points[0] != [0.0, 0.0] or points[-1] != [1.0, 1.0]:
        problems.append(f"{field}: ROC does not run from (0, 0) to (1, 1)")
    if any(b[0] < a[0] or b[1] < a[1] for a, b in zip(points, points[1:])):
        problems.append(f"{field}: ROC points do not rise monotonically")
    return problems
