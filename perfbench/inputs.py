"""Make one workload's inputs with ``flowdetect.synth``, from a seed.

Run as ``python3 perfbench/inputs.py --workload trend --seed 1 --out DIR``.
``run.py`` starts it as a child process, so that generation (and, for
``evaluate``, the sliding run that produces the scores file) does not count
in the measured process's peak memory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
from datetime import timedelta
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: The make-up of each workload's log; all run with the default PipelineConfig.
#: ``trend`` is the criterion-8 stream; its default seed gives exactly that log.
TREND = {"users": 50, "weeks": 26, "rate": 0.05, "profile": "shift", "seed": 20100104}
#: Only the first ``days`` days are kept: no user comes near 10 ISO weeks.
FANOUT = {"users": 5000, "weeks": 1, "rate": 0.0, "profile": "static", "days": 2, "seed": 1}
EVALUATE = {"users": 17, "weeks": 26, "rate": 0.05, "profile": "shift", "seed": 1}
#: ``evaluate`` keeps this many score records, the first ones the run wrote,
#: so that the quadratic sweep does the same amount of work on every seed.
EVALUATE_RECORDS = 4000
MAKEUP = {"trend": TREND, "fanout": FANOUT, "evaluate": EVALUATE}

#: The fields ``evaluate`` sweeps, one operation each.
FIELDS = ("votes", "kde", "kmeans", "lof")

EVENTS = "events.csv"
LABELS = "labels.csv"
SCORES = "scores.jsonl"


def make_inputs(workload: str, seed: int, out: Path) -> None:
    from flowdetect import cli, synth

    makeup = MAKEUP[workload]
    events = synth.generate(
        makeup["users"], makeup["weeks"], makeup["rate"], seed=seed, profile=makeup["profile"]
    )
    if "days" in makeup:
        end = synth.DEFAULT_START + timedelta(days=makeup["days"])
        events = [e for e in events if e.when.date() < end]
    synth.write_events(events, str(out / EVENTS))
    synth.write_labels(events, str(out / LABELS))
    if workload == "evaluate":
        argv = ["run", "--input", str(out / EVENTS), "--scores-out", str(out / SCORES)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"the run that makes the scores file exited with {code}")
        lines = (out / SCORES).read_text(encoding="utf-8").splitlines(keepends=True)
        if len(lines) < EVALUATE_RECORDS:
            raise SystemExit(f"the run scored {len(lines)} events, fewer than {EVALUATE_RECORDS}")
        (out / SCORES).write_text("".join(lines[:EVALUATE_RECORDS]), encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(MAKEUP))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    args.out.mkdir(parents=True, exist_ok=True)
    make_inputs(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
