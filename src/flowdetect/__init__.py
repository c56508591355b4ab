"""Composable state-machine engine with a streaming anomaly-detection pipeline.

Each name below is imported from its home module on first access, so
``import flowdetect`` loads no submodule, and ``import flowdetect.engine``
or ``flowdetect evaluate`` loads neither the detectors nor numpy.  The
detectors import numpy at their first fit, so ``flowdetect run`` over a log
in which no window fills never loads it.
"""

import importlib

__version__ = "0.1.0"

#: Each re-exported name -> the submodule that defines it.
_HOMES = {
    name: module
    for module, names in {
        "engine": (
            "UNBOUNDED",
            "Automaton",
            "Call",
            "Capture",
            "Env",
            "Event",
            "EventPattern",
            "Flow",
            "QuantifiedFlow",
            "QuantifiedInterleave",
            "Ref",
            "Transition",
            "describe",
            "dump_state",
            "init",
            "is_final",
            "step",
            "walk",
        ),
        "detectors": (
            "CircularKMeans",
            "CosineLof",
            "Detector",
            "Score",
            "WrappedKde",
            "circ_distance",
            "init_map",
            "percentile",
            "silhouette",
        ),
        "ensemble": ("majority_vote",),
        "pipeline": ("Pipeline", "PipelineConfig", "build_spec"),
        "windowing": (
            "DEFAULT_DATE_FORMAT",
            "Window",
            "WindowConfig",
            "compute_period",
            "formatting_data",
            "parse_timestamp",
            "training_set",
        ),
    }.items()
    for name in names
}
__all__ = sorted(_HOMES)


def __getattr__(name: str):
    """Import ``name`` from its home module and keep it as a global.

    Any other name raises ``AttributeError``, so ``from flowdetect import
    engine`` still imports the submodule.
    """
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{home}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

