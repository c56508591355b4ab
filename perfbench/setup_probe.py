"""Time one cold set-up: import flowdetect and build the workload's Pipeline.

Run as ``python3 perfbench/setup_probe.py WORKLOAD``; prints the seconds of
CPU time it took, scaled by the host's speed as ``speed.py`` explains.
Each probe is a fresh interpreter, so the import is as cold as a user's.
``evaluate`` builds no Pipeline, so for it the set-up is the import alone.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
start = time.thread_time()

import flowdetect.cli  # noqa: E402

if sys.argv[1] != "evaluate":
    flowdetect.cli.Pipeline(flowdetect.cli.PipelineConfig())
took = time.thread_time() - start

import statistics  # noqa: E402

from speed import NOMINAL_NS, reference  # noqa: E402

#: Reference samples right after the set-up, about 40 ms.
samples = [reference() for _ in range(20)]
print(repr(took * NOMINAL_NS / statistics.median(samples)))
