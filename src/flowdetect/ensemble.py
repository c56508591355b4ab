"""Combining per-detector verdicts into one alert decision."""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from .detectors import Score


def majority_vote(cast: Sequence[tuple[str, Score]]) -> bool:
    """True when strictly more than half of the cast votes are 1; false for none."""
    return 2 * sum(score.binary for _, score in cast) > len(cast)
