"""Command line front end: run, evaluate, synth, dump-state.

The activity log is a CSV with header ``id,date,user,pc,activity``.  Runs
write line-delimited JSON: one alert per line and one record per scored
event, with sorted keys so identical runs produce identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import ExitStack
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Iterator, Sequence

from . import evaluation, synth
from .errors import FlowdetectError, InputError
from .windowing import DEFAULT_DATE_FORMAT

if TYPE_CHECKING:
    from .engine import Event
    from .pipeline import Pipeline, PipelineConfig

REQUIRED_COLUMNS = ("id", "date", "user", "pc", "activity")


def __getattr__(name: str) -> Any:
    """``Pipeline`` or ``PipelineConfig``, imported on first use and kept as a global.

    Only ``run`` and ``dump-state`` build a pipeline, so ``evaluate`` and
    ``synth`` load neither the engine nor the detectors.  The commands read
    both names through ``_current``, so an assigned ``cli.Pipeline`` is the
    one they build.
    """
    if name not in ("Pipeline", "PipelineConfig"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import pipeline

    value = globals()[name] = getattr(pipeline, name)
    return value


def _current(name: str) -> Any:
    """The module global ``name`` as it is now, resolved on first use."""
    return getattr(sys.modules[__name__], name)


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
    from .engine import Event

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
    config_type = _current("PipelineConfig")
    config = config_type.from_file(args.config) if args.config else config_type()
    flags = {key: getattr(args, key, None) for key in ("date_format", "activity_filter")}
    # Every flag given, an empty one included, replaces the file's value, and
    # a replaced config is checked again as it is made.
    return replace(config, **{key: value for key, value in flags.items() if value is not None})


#: ``json.dumps(..., sort_keys=True)`` without building an encoder per call.
_encode = json.JSONEncoder(sort_keys=True).encode


def _jsonl(record: dict) -> str:
    return _encode(record) + "\n"


def _output(outputs: ExitStack, path: str | None):
    """Open ``path`` for writing, closed with ``outputs``; ``None`` for no path."""
    if not path:
        return None
    handle = open(path, "w", encoding="utf-8")
    outputs.callback(handle.close)  # a handle needs ``close``, not ``__exit__``
    return handle


def _file_key(path: str) -> Any:
    """What two paths that name one file share.

    An existing file's device and inode, so that ``./log.csv``, a symlink and
    a hard link all match it; a path that names no file yet, resolved.
    """
    try:
        info = os.stat(path)
    except OSError:
        return os.path.realpath(path)
    return (info.st_dev, info.st_ino)


def _check_paths(args: argparse.Namespace) -> None:
    """Refuse an output that names a file the command reads, or another output.

    Opening such an output would empty a file the command is about to read,
    or write two streams into one.  The flags are the subcommand's ``reads``
    and ``writes``; a command given no output path checks nothing.
    """
    paths = [(f, getattr(args, f[2:].replace("-", "_"))) for f in (*args.reads, *args.writes)]
    if not any(path for flag, path in paths if flag in args.writes):
        return
    seen: dict[Any, str] = {}
    for flag, path in paths:
        if path:
            key = _file_key(path)
            if key in seen and flag in args.writes:
                raise InputError(f"{flag} {path} names the same file as {seen[key]}")
            seen.setdefault(key, flag)


def _replay(
    args: argparse.Namespace,
    alerts_path: str | None = None,
    scores_path: str | None = None,
    state_path: str | None = None,
) -> tuple[Pipeline, IngestStats]:
    """Run the pipeline over ``args.input``, writing alerts and scores as it goes.

    The input's header is checked before any output opens, and every output
    opens before the first event.  Each event's scored records are drained
    as it is processed, written or not.  The final state is written to
    ``state_path`` once the input is exhausted.
    """
    config = _load_config(args)
    pipeline = _current("Pipeline")(config)
    stats = IngestStats()
    events = ingest(args.input, config.activity_filter, stats)
    with ExitStack() as outputs:
        outputs.callback(events.close)  # the input, should an output fail to open
        alerts_out = _output(outputs, alerts_path)
        scores_out = _output(outputs, scores_path)
        state_out = _output(outputs, state_path)
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
        if state_out:
            state_out.write(pipeline.dump() + "\n")
    return pipeline, stats


def cmd_run(args: argparse.Namespace) -> int:
    pipeline, stats = _replay(args, args.alerts_out, args.scores_out)
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
    print(report.to_json())
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
    pipeline = _replay(args, state_path=args.out)[0]
    if not args.out:
        sys.stdout.write(pipeline.dump() + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowdetect",
        description="Per-user anomaly detection over activity logs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # The flags of the replay that ``run`` and ``dump-state`` share.
    replay = argparse.ArgumentParser(add_help=False)
    replay.add_argument("--input", required=True, help="activity log CSV")
    replay.add_argument("--config", help="JSON pipeline configuration")
    replay.add_argument("--activity-filter", help="keep only rows with this activity value")
    # argparse expands ``%`` in help texts, so the layout's own are doubled.
    layout = DEFAULT_DATE_FORMAT.replace("%", "%%")
    replay.add_argument("--date-format", help=f"timestamp layout (default {layout!r})")

    run = sub.add_parser("run", parents=[replay], help="process a log and write alerts and scores")
    run.add_argument("--alerts-out", help="alerts output, one JSON object per line")
    run.add_argument("--scores-out", help="scored events output, one JSON object per line")
    run.set_defaults(
        handler=cmd_run, reads=("--input", "--config"), writes=("--alerts-out", "--scores-out")
    )

    ev = sub.add_parser("evaluate", help="compare a scores file against labels")
    ev.add_argument("--input", required=True, help="scores file from a run")
    ev.add_argument("--labels", required=True, help="CSV with columns id,label")
    ev.add_argument(
        "--field",
        default="votes",
        help="score to sweep for the ROC: votes or a detector name",
    )
    ev.set_defaults(handler=cmd_evaluate, reads=("--input", "--labels"), writes=())

    sy = sub.add_parser("synth", help="generate a labelled synthetic activity log")
    sy.add_argument("--users", type=int, default=50)
    sy.add_argument("--weeks", type=int, default=26)
    sy.add_argument("--rate", type=float, default=0.05, help="anomaly fraction of all events")
    sy.add_argument("--seed", type=int, default=0)
    sy.add_argument("--profile", default="shift", choices=synth.PROFILES)
    sy.add_argument("--events-out", required=True)
    sy.add_argument("--labels-out", required=True)
    sy.set_defaults(handler=cmd_synth, reads=(), writes=("--events-out", "--labels-out"))

    dump = sub.add_parser(
        "dump-state", parents=[replay], help="run a log and print the final machine state"
    )
    dump.add_argument("--out", help="write the state here instead of stdout")
    dump.set_defaults(handler=cmd_dump_state, reads=("--input", "--config"), writes=("--out",))

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_paths(args)
        return args.handler(args)
    except (FlowdetectError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
