"""What importing flowdetect loads, and each command run in a fresh interpreter.

The package resolves its re-exports on first access, ``cli`` resolves
``Pipeline`` and ``PipelineConfig`` on first use, and ``detectors`` imports
numpy at its first ``np.`` lookup.  In-process tests cannot show that a lazy
name is bound where it is read: ``monkeypatch`` leaves ``cli.Pipeline`` a
real global for every later test, and numpy stays loaded once any test has
loaded it.  So the commands also run here in child processes, some of them
with numpy blocked.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flowdetect
from flowdetect.cli import main

ROOT = Path(__file__).resolve().parent.parent

#: What only ``run``, ``dump-state`` and ``synth`` may load.  ``synth``
#: imports numpy; ``run`` and ``dump-state`` load the pipeline and the
#: detectors, which import numpy at the first fit, so not in a replay in
#: which no window fills.
HEAVY = ("numpy", "flowdetect.detectors", "flowdetect.pipeline")

#: Run first in every child.  Its first argument is ``block`` to make every
#: import of numpy raise ``ImportError``, or ``allow``; when the child ends
#: it writes which of ``HEAVY`` it loaded as the last line of stderr.
PRELUDE = f"""
import atexit, sys
if sys.argv.pop(1) == "block":
    sys.modules["numpy"] = None
atexit.register(lambda: print(
    "loaded:", *(name for name in {HEAVY!r} if sys.modules.get(name)), file=sys.stderr
))
"""

#: ``python -m flowdetect`` with the child's remaining arguments.
MAIN = PRELUDE + """
import runpy
runpy.run_module("flowdetect", run_name="__main__", alter_sys=True)
"""

#: Builds a machine through ``flowdetect.engine`` alone and steps it.
ENGINE = """
from flowdetect.engine import (
    UNBOUNDED, Automaton, Capture, Event, EventPattern, QuantifiedInterleave, Ref,
    Transition, dump_state, init, is_final, step,
)

def count(env):
    env["n"] = env["n"] + env["k"]

counter = Automaton(
    name="counter", attrs=(("n", 0),), states=("s",), initial="s", finals=("s",),
    transitions=(Transition(
        source="s", pattern=EventPattern("e", (Ref("u"), Capture("k", int))),
        target="s", action=count,
    ),),
)
spec = QuantifiedInterleave(name="users", var="u", domain=UNBOUNDED, body=counter)
state = init(spec)
for user, k in (("alice", 2), ("bob", 5), ("alice", 3)):
    state, _ = step(spec, state, Event("e", (user, k)))
print(is_final(spec, state), dump_state(state))
"""


def spawn(code: str, *argv: str, numpy: str = "allow") -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter, with ``argv`` after the ``numpy`` choice."""
    env = dict(os.environ, COLUMNS="80")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, numpy, *argv],
        cwd=ROOT, env=env, capture_output=True, timeout=300,
    )


def child(code: str, *argv: str, numpy: str = "allow") -> tuple[bytes, list[str]]:
    """Run ``code`` in a fresh interpreter; return its stdout and what it loaded of ``HEAVY``."""
    done = spawn(code, *argv, numpy=numpy)
    stderr = done.stderr.decode()
    assert done.returncode == 0, stderr
    last = stderr.splitlines()[-1].split()
    assert last[0] == "loaded:", stderr
    return done.stdout, last[1:]


def in_process(argv: list[str], capsys) -> bytes:
    """What ``flowdetect argv`` prints when called in this process."""
    assert main(argv) == 0
    return capsys.readouterr().out.encode()


# ------------------------------------------------------------------ exports

def test_every_export_is_its_home_modules_object_and_listed_by_dir():
    listed = dir(flowdetect)
    for name in flowdetect.__all__:
        home = importlib.import_module(f"flowdetect.{flowdetect._HOMES[name]}")
        assert getattr(flowdetect, name) is getattr(home, name), name
        assert name in listed, name
    assert sorted(flowdetect._HOMES) == sorted(flowdetect.__all__)


def test_an_unknown_name_raises_and_a_submodule_still_imports():
    with pytest.raises(AttributeError, match="nope"):
        flowdetect.nope  # noqa: B018
    assert not hasattr(flowdetect, "nope")
    from flowdetect import engine, synth

    assert engine is sys.modules["flowdetect.engine"]
    assert synth is sys.modules["flowdetect.synth"]


def test_cli_resolves_only_the_pipeline_types():
    from flowdetect import cli, pipeline

    assert cli.Pipeline is pipeline.Pipeline
    assert cli.PipelineConfig is pipeline.PipelineConfig
    with pytest.raises(AttributeError, match="nope"):
        cli.nope  # noqa: B018


# --------------------------------------------------------- fresh interpreters

@pytest.mark.parametrize(
    "module", ("flowdetect", "flowdetect.engine", "flowdetect.cli", "flowdetect.evaluation")
)
def test_importing_loads_neither_numpy_nor_the_detection_stack(module):
    assert child(PRELUDE + f"import {module}") == (b"", [])


def test_the_engine_builds_and_steps_a_machine_without_numpy(capsys):
    exec(compile(ENGINE, "<engine>", "exec"), {})
    expected = capsys.readouterr().out.encode()
    assert expected.startswith(b"True ")
    assert child(PRELUDE + ENGINE, numpy="block") == (expected, [])


def test_help_runs_without_numpy(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        main(["--help"])
    assert exit_.value.code == 0
    expected = capsys.readouterr().out.encode()
    assert expected.startswith(b"usage: flowdetect")
    assert child(MAIN, "--help", numpy="block") == (expected, [])


@pytest.fixture(scope="module")
def logs(tmp_path_factory):
    """A small synthetic log and labels, and a run's scores over it."""
    root = tmp_path_factory.mktemp("logs")
    paths = {name: str(root / name) for name in ("events.csv", "labels.csv", "scores.jsonl")}
    assert main([
        "synth", "--users", "3", "--weeks", "8", "--seed", "5",
        "--events-out", paths["events.csv"], "--labels-out", paths["labels.csv"],
    ]) == 0
    config = root / "config.json"
    config.write_text(json.dumps({"window_parameters": {"window_size": 3, "sliding_size": 1}}))
    paths["config.json"] = str(config)
    assert main([
        "run", "--input", paths["events.csv"], "--config", paths["config.json"],
        "--scores-out", paths["scores.jsonl"],
    ]) == 0
    assert Path(paths["scores.jsonl"]).read_text().count("\n") > 10
    return paths


@pytest.mark.parametrize("field", ("votes", "kde"))
def test_evaluate_runs_without_numpy_and_prints_the_same_report(field, logs, capsys):
    capsys.readouterr()
    argv = ["evaluate", "--input", logs["scores.jsonl"], "--labels", logs["labels.csv"], "--field", field]
    expected = in_process(argv, capsys)
    assert json.loads(expected)["auc"] is not None
    assert child(MAIN, *argv, numpy="block") == (expected, [])


def _outputs(command: str, logs: dict[str, str], out: Path) -> list[str]:
    """``command``'s arguments over ``logs``, writing into the directory ``out``."""
    if command == "synth":
        return [
            "synth", "--users", "3", "--weeks", "8", "--seed", "5",
            "--events-out", str(out / "events.csv"), "--labels-out", str(out / "labels.csv"),
        ]
    replay = ["--input", logs["events.csv"], "--config", logs["config.json"]]
    if command == "run":
        return [
            "run", *replay,
            "--alerts-out", str(out / "alerts.jsonl"), "--scores-out", str(out / "scores.jsonl"),
        ]
    return ["dump-state", *replay, "--out", str(out / "state.json")]


def _same_bytes(command: str, logs: dict[str, str], tmp_path: Path, capsys) -> tuple[bytes, list[str]]:
    """Run ``command`` in-process and in a child; check both print and write the same bytes.

    Returns what was printed and what the child loaded of ``HEAVY``; the
    in-process outputs are left in ``tmp_path / "here"``.
    """
    capsys.readouterr()
    here, there = tmp_path / "here", tmp_path / "there"
    here.mkdir()
    there.mkdir()
    printed = in_process(_outputs(command, logs, here), capsys)
    stdout, loaded = child(MAIN, *_outputs(command, logs, there))
    assert stdout == printed
    names = sorted(path.name for path in here.iterdir())
    assert names == sorted(path.name for path in there.iterdir()) != []
    for name in names:
        assert (there / name).read_bytes() == (here / name).read_bytes(), name
    return printed, loaded


@pytest.mark.parametrize("command", ("synth", "run", "dump-state"))
def test_a_fresh_process_writes_the_same_bytes(command, logs, tmp_path, capsys):
    _, loaded = _same_bytes(command, logs, tmp_path, capsys)
    assert "numpy" in loaded  # these commands do need it, here at a fit
    here = tmp_path / "here"
    if command == "synth":
        assert (here / "events.csv").read_bytes() == Path(logs["events.csv"]).read_bytes()


# ------------------------------------------------------- numpy at the first fit

@pytest.fixture(scope="module")
def unfilled(logs, tmp_path_factory):
    """A one-week log, in which the three-week window of ``logs``' config never fills."""
    events = tmp_path_factory.mktemp("unfilled") / "events.csv"
    assert main([
        "synth", "--users", "3", "--weeks", "1", "--seed", "5",
        "--events-out", str(events), "--labels-out", str(events.with_name("labels.csv")),
    ]) == 0
    return {"events.csv": str(events), "config.json": logs["config.json"]}


@pytest.mark.parametrize("command", ("run", "dump-state"))
def test_a_replay_in_which_no_window_fills_never_imports_numpy(command, unfilled, tmp_path, capsys):
    printed, loaded = _same_bytes(command, unfilled, tmp_path, capsys)
    assert loaded == ["flowdetect.detectors", "flowdetect.pipeline"]
    if command == "dump-state":
        assert json.loads((tmp_path / "here" / "state.json").read_text())["instances"]
    else:
        assert "retrains=0" in printed.decode()


#: Replays the log in its first argument under the config in its second, and
#: prints, for each event, whether numpy was loaded before and after its step
#: and how many fits the step made; then whether ``detectors.np`` is numpy.
PER_EVENT = PRELUDE + """
import json, sys
from flowdetect import cli, detectors
pipeline = cli.Pipeline(cli.PipelineConfig.from_file(sys.argv[2]))
steps = []
for event in cli.ingest(sys.argv[1]):
    before, fits = "numpy" in sys.modules, pipeline.counters.retrains
    pipeline.process_event(event)
    steps.append((before, "numpy" in sys.modules, pipeline.counters.retrains - fits))
print(json.dumps({"steps": steps, "np": detectors.np is sys.modules.get("numpy")}))
"""


def test_a_replay_imports_numpy_at_the_step_of_its_first_fit(logs):
    stdout, loaded = child(PER_EVENT, logs["events.csv"], logs["config.json"])
    assert loaded == list(HEAVY)
    report = json.loads(stdout)
    steps = report["steps"]
    first_fit = next(i for i, (_, _, fits) in enumerate(steps) if fits > 0)
    assert first_fit > 0
    assert [after for _, after, _ in steps] == [i >= first_fit for i in range(len(steps))]
    assert [before for before, _, _ in steps] == [i > first_fit for i in range(len(steps))]
    assert report["np"] is True


#: The array helpers, called in a process that has fitted nothing.
HELPERS = """
from flowdetect import detectors
print(
    repr(detectors.percentile([3.0, 1.0, 2.0, 10.0], 40.0)),
    repr(detectors.silhouette([1.0, 1.5, 13.0, 13.5, 23.5], [0, 0, 1, 1, 0])),
    repr(detectors.circular_mean([23.0, 1.5, 0.25])),
    detectors.minutes_to_hours([0, 90, 1439]).tolist(),
    detectors.np is __import__("sys").modules["numpy"],
)
"""


def test_the_array_helpers_import_numpy_in_a_process_that_has_not_fitted(capsys):
    exec(compile(HELPERS, "<helpers>", "exec"), {})
    expected = capsys.readouterr().out.encode()
    assert expected.endswith(b" True\n")
    assert child(PRELUDE + HELPERS) == (expected, ["numpy", "flowdetect.detectors"])


@pytest.mark.parametrize("command", ("run", "dump-state"))
def test_without_numpy_a_replay_exits_2_before_it_opens_an_output(command, unfilled, tmp_path):
    argv = _outputs(command, unfilled, tmp_path)
    flags = ("--alerts-out", "--scores-out", "--out")
    outputs = [Path(argv[i + 1]) for i, flag in enumerate(argv) if flag in flags]
    for output in outputs:
        output.write_bytes(b'{"old": 1}\n')
    done = spawn(MAIN, *argv, numpy="block")
    assert done.returncode == 2
    assert done.stdout == b""
    error = done.stderr.decode().splitlines()[0]
    assert error == "error: the detectors need numpy, which is not installed"
    assert [output.read_bytes() for output in outputs] == [b'{"old": 1}\n'] * len(outputs)
