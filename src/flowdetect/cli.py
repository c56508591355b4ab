"""Command line front end: run, evaluate, synth, dump-state.

The activity log is a CSV with header ``id,date,user,pc,activity``.  Runs
write line-delimited JSON: one alert per line and one record per scored
event, with sorted keys so identical runs produce identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import ExitStack
from dataclasses import dataclass, replace
from typing import Any, Iterator, Sequence

from . import evaluation, synth
from .engine import Event
from .errors import FlowdetectError, InputError
from .pipeline import Pipeline, PipelineConfig
from .windowing import DEFAULT_DATE_FORMAT

REQUIRED_COLUMNS = ("id", "date", "user", "pc", "activity")


@dataclass
class IngestStats:
    rows: int = 0
    malformed: int = 0
    filtered: int = 0


def ingest(
    path: str,
    activity_filter: str | None = None,
    stats: IngestStats | None = None,
) -> Iterator[Event]:
    """Yield ``e(user, date, id)`` events from an activity log.

    The call itself opens the file and checks its header, so a run refuses a
    bad input before it opens any output; the rows are read as the events
    are asked for.  Rows with a missing or empty id, date or user are counted
    as malformed and skipped; rows not matching ``activity_filter`` are
    counted separately.  A row the CSV reader refuses (a field over
    ``csv.field_size_limit()``) raises ``InputError`` with its path and line:
    once a quoted field is cut off, the start of the next row is unknown.
    """
    events = _events(path, activity_filter, stats if stats is not None else IngestStats())
    next(events)  # up to the checked header
    return events


def _events(path: str, activity_filter: str | None, stats: IngestStats) -> Iterator[Any]:
    """``ingest``'s rows, after one ``None`` for a header that passed."""
    with open(path, encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None or not set(REQUIRED_COLUMNS) <= set(header):
                raise InputError(
                    f"{path}: expected columns {','.join(REQUIRED_COLUMNS)}, got {header}"
                )
            # As in csv.DictReader: a repeated name reads its last column,
            # a blank line is no row, and a short row lacks its last fields.
            column = {name: i for i, name in enumerate(header)}
            id_at, date_at, user_at = column["id"], column["date"], column["user"]
            activity_at = column["activity"]
            last_required = max(id_at, date_at, user_at)
            yield None
            for row in reader:
                if not row:
                    continue
                stats.rows += 1
                if len(row) <= last_required:
                    stats.malformed += 1
                    continue
                event_id, when, user = row[id_at], row[date_at], row[user_at]
                if not event_id or not when or not user:
                    stats.malformed += 1
                    continue
                if activity_filter is not None and (
                    activity_at >= len(row) or row[activity_at] != activity_filter
                ):
                    stats.filtered += 1
                    continue
                yield Event("e", (user, when, event_id))
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not valid UTF-8: {exc}") from None
        except csv.Error as exc:  # such as a field over csv.field_size_limit()
            raise InputError(f"{path}:{reader.line_num}: {exc}") from None


def _load_config(args: argparse.Namespace) -> PipelineConfig:
    config = PipelineConfig.from_file(args.config) if args.config else PipelineConfig()
    flags = {key: getattr(args, key, None) for key in ("date_format", "activity_filter")}
    # A replaced config is checked again as it is made.
    return replace(config, **{key: value for key, value in flags.items() if value})


def _jsonl(record: dict) -> str:
    return json.dumps(record, sort_keys=True) + "\n"


def _output(outputs: ExitStack, path: str | None):
    """Open ``path`` for writing, closed with ``outputs``; ``None`` for no path."""
    if not path:
        return None
    handle = open(path, "w", encoding="utf-8")
    outputs.callback(handle.close)  # a handle needs ``close``, not ``__exit__``
    return handle


def cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args)
    pipeline = Pipeline(config)
    stats = IngestStats()
    events = ingest(args.input, config.activity_filter, stats)
    with ExitStack() as outputs:
        outputs.callback(events.close)  # the input, should an output fail to open
        alerts_out = _output(outputs, args.alerts_out)
        scores_out = _output(outputs, args.scores_out)
        for event in events:
            fresh = pipeline.process_event(event)
            if alerts_out:
                for alert in fresh:
                    alerts_out.write(
                        _jsonl(
                            {
                                "eventId": alert.event_id,
                                "userId": alert.user_id,
                                "eventDate": alert.event_date,
                                "votes": alert.votes,
                            }
                        )
                    )
            scored = pipeline.drain_scores()
            if scores_out:
                for record in scored:
                    scores_out.write(_jsonl(record.to_record()))
    c = pipeline.counters
    print(
        f"events={c.events} users={pipeline.user_count} alerts={c.alerts} "
        f"retrains={c.retrains} skipped_dates={c.skipped_dates} "
        f"malformed_rows={stats.malformed} filtered_rows={stats.filtered} "
        f"stale_drops={pipeline.stale_drops}"
    )
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    report = evaluation.evaluate_files(args.input, args.labels, args.field)
    print(json.dumps(report.to_dict(), sort_keys=True, indent=2))
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    events = synth.generate(
        n_users=args.users,
        n_weeks=args.weeks,
        anomaly_rate=args.rate,
        seed=args.seed,
        profile=args.profile,
    )
    written = synth.write_events(events, args.events_out)
    synth.write_labels(events, args.labels_out)
    anomalies = sum(e.label for e in events)
    print(f"events={written} anomalies={anomalies} users={args.users} weeks={args.weeks}")
    return 0


def cmd_dump_state(args: argparse.Namespace) -> int:
    config = _load_config(args)
    pipeline = Pipeline(config)
    for event in ingest(args.input, config.activity_filter):
        pipeline.process_event(event)
    text = pipeline.dump()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowdetect",
        description="Per-user anomaly detection over activity logs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="process a log and write alerts and scores")
    run.add_argument("--input", required=True, help="activity log CSV")
    run.add_argument("--config", help="JSON pipeline configuration")
    run.add_argument("--alerts-out", help="alerts output, one JSON object per line")
    run.add_argument("--scores-out", help="scored events output, one JSON object per line")
    run.add_argument("--activity-filter", help="keep only rows with this activity value")
    run.add_argument("--date-format", help=f"timestamp layout (default {DEFAULT_DATE_FORMAT!r})")
    run.set_defaults(handler=cmd_run)

    ev = sub.add_parser("evaluate", help="compare a scores file against labels")
    ev.add_argument("--input", required=True, help="scores file from a run")
    ev.add_argument("--labels", required=True, help="CSV with columns id,label")
    ev.add_argument(
        "--field",
        default="votes",
        help="score to sweep for the ROC: votes or a detector name",
    )
    ev.set_defaults(handler=cmd_evaluate)

    sy = sub.add_parser("synth", help="generate a labelled synthetic activity log")
    sy.add_argument("--users", type=int, default=50)
    sy.add_argument("--weeks", type=int, default=26)
    sy.add_argument("--rate", type=float, default=0.05, help="anomaly fraction of all events")
    sy.add_argument("--seed", type=int, default=0)
    sy.add_argument("--profile", default="shift", choices=synth.PROFILES)
    sy.add_argument("--events-out", required=True)
    sy.add_argument("--labels-out", required=True)
    sy.set_defaults(handler=cmd_synth)

    dump = sub.add_parser("dump-state", help="run a log and print the final machine state")
    dump.add_argument("--input", required=True, help="activity log CSV")
    dump.add_argument("--config", help="JSON pipeline configuration")
    dump.add_argument("--activity-filter")
    dump.add_argument("--date-format")
    dump.add_argument("--out", help="write the state here instead of stdout")
    dump.set_defaults(handler=cmd_dump_state)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (FlowdetectError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
