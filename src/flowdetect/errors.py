"""Exception types shared across the package, and the one integer check."""

from __future__ import annotations

import numbers
from typing import Any


class FlowdetectError(Exception):
    """Base class for all package errors."""


class SpecificationError(FlowdetectError):
    """A machine specification is malformed (bad reference, arity, shadowing)."""


class EngineError(FlowdetectError):
    """Internal inconsistency, e.g. a runtime state that does not match its spec."""


class InputError(FlowdetectError):
    """Event or file input that cannot be processed."""


class ConfigurationError(FlowdetectError):
    """Invalid or unknown configuration value."""


class NotEnoughDataError(FlowdetectError):
    """A model was asked to fit on fewer samples than it requires."""


class NotFittedError(FlowdetectError):
    """A model was asked to score before it was fitted."""


def checked_integer(value: Any, what: str) -> Any:
    """``value`` if it is an integer and not a bool, else ``ConfigurationError``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigurationError(f"{what} must be an integer, got {value!r}")
    return value
