"""Unsupervised detectors over times of day.

All three models treat the hour of day as a point on a 24 h circle:

* ``CircularKMeans`` clusters training hours with a circular distance,
  chooses k by silhouette, and flags events whose z-score against the
  nearest cluster exceeds a threshold.
* ``WrappedKde`` estimates a wrapped-Gaussian density and flags events in
  low-density regions (below a low percentile of the training densities).
* ``CosineLof`` computes local outlier factors with a cosine distance on
  the unit-circle embedding and flags events above a high percentile of
  the training scores.

Models are immutable once fitted: ``fit_partial`` returns a new fitted
instance, so a score in flight never observes a half-updated model.

Samples and events are whole minutes of the day.  Fits and scores are
bit-for-bit stable under refactors: a change to this module keeps every IEEE
operation on every value, in the same order, or reorders only sums that are
exact in any order.  The k-means silhouette sums whole-minute distances, which
are integers, over the distinct training minutes, each weighted by its count.
A LOF fit takes each neighbourhood's mean as one row of a C-contiguous block
of the neighbourhoods of its size: numpy's pairwise sum of that row alone,
the sum a score takes of its one neighbourhood.  Nor do the k-means and KDE
fits depend on the CPU: the silhouette's integer sums are exact in whatever
order a BLAS kernel adds them, and a fitted KDE is its density at each whole
minute, summed from a per-fit kernel table built with ``math.exp`` and plain
arithmetic, never numpy's ``np.exp``, whose SIMD path varies with the CPU.
The golden digests in ``tests/test_golden.py`` and ``tests/test_acceptance.py``
pin the resulting scores, chosen k and alerts, and ``tests/test_golden.py``
reruns them under other BLAS kernels and without numpy's AVX-512 paths.

Importing this module does not import numpy, and neither does building an
unfitted detector: its model holds empty tuples.  numpy is imported at the
first ``np.`` lookup, which is a fit or one of the array helpers, so a run in
which no window fills never imports it.
"""

from __future__ import annotations

import copy
import functools
import math
import numbers
import warnings
from abc import ABC, abstractmethod
from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from .errors import ConfigurationError, NotEnoughDataError, NotFittedError, checked_integer


class _Numpy:
    """Stands in for numpy until the first attribute is read from it.

    That read imports numpy and rebinds this module's ``np`` to it, so every
    later ``np.`` lookup is an ordinary global.
    """

    def __getattr__(self, name: str) -> Any:
        global np
        import numpy

        np = numpy
        return getattr(numpy, name)


if TYPE_CHECKING:
    import numpy as np
else:
    np = _Numpy()

HOURS_PER_DAY = 24.0
MINUTES_PER_DAY = 1440

#: Smallest cluster spread used when normalising k-means z-scores (hours).
SIGMA_FLOOR = 0.25
#: Smallest KDE bandwidth (hours).
BANDWIDTH_FLOOR = 0.1

KMEANS_MAX_CLUSTERS = 10
LLOYD_MAX_ITER = 100
LLOYD_TOL = 1e-6

#: Distances within this of the k-distance count as neighbourhood ties.
LOF_TIE_EPS = 1e-12

#: Minutes of the day per block of a KDE fit's density sums, so its scratch
#: memory is this many rows of its distinct minutes, not 1,440.
_KDE_BLOCK_ROWS = 64
#: Index of the minute gap 0 in a KDE kernel table, which holds the signed
#: gaps -1439..1439 between a query minute and a sample minute.
_KDE_GAP_ZERO = MINUTES_PER_DAY - 1
#: Exponents below this are more than 50 below ln(2 ** -1075), about
#: -745.13, under which ``math.exp`` rounds to exactly 0.0.
_KDE_EXP_FLOOR = -800.0

_RADIANS_PER_HOUR = 2.0 * math.pi / HOURS_PER_DAY


# ---------------------------------------------------------------------------
# Circular geometry
# ---------------------------------------------------------------------------


def circ_distance(a: float, b: float) -> float:
    """Shortest distance between two hours on the 24 h circle.

    Arguments must lie in ``[0, 24)``; the result lies in ``[0, 12]``.
    """
    if not (0.0 <= a < HOURS_PER_DAY and 0.0 <= b < HOURS_PER_DAY):
        raise ValueError(f"hours must be in [0, 24): got {a}, {b}")
    if a < b:
        return min(b - a, a - b + HOURS_PER_DAY)
    return min(a - b, b - a + HOURS_PER_DAY)


def _circ_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorised circular distance, no range checks."""
    d = np.abs(a - b)
    return np.minimum(d, HOURS_PER_DAY - d)


def circular_mean(hours: Sequence[float]) -> float:
    """Direction of the mean resultant vector, as an hour in ``[0, 24)``.

    Perfectly balanced inputs have no mean direction; the first sample is
    returned so callers stay deterministic.
    """
    arr = np.asarray(hours, dtype=float)
    if arr.size == 0:
        raise ValueError("circular_mean of no samples")
    angles = arr * _RADIANS_PER_HOUR
    return _mean_direction(float(np.cos(angles).sum()), float(np.sin(angles).sum()), arr[0])


def _mean_direction(x: float, y: float, first: float) -> float:
    """Hour of the resultant ``(x, y)``, or ``first`` when it has no direction."""
    if math.hypot(x, y) < 1e-12:
        return float(first)
    hour = math.atan2(y, x) * (HOURS_PER_DAY / (2.0 * math.pi))
    return hour % HOURS_PER_DAY


_MINUTES_ERROR = "minutes of day must be whole numbers in [0, 1440)"


def _whole_minutes(minutes: Sequence[float]) -> np.ndarray:
    """``minutes`` as a float array, each a whole minute of the day."""
    arr = np.asarray(minutes, dtype=float)
    if arr.size and (arr.min() < 0 or arr.max() >= MINUTES_PER_DAY or np.any(arr % 1.0)):
        raise ValueError(_MINUTES_ERROR)
    return arr


def minutes_to_hours(minutes: Sequence[float]) -> np.ndarray:
    """Whole minutes of the day as hours; anything else raises ``ValueError``."""
    return _whole_minutes(minutes) / 60.0


def _minute_of(minute: float) -> int:
    """One whole minute of the day, checked as ``minutes_to_hours`` checks."""
    if not 0 <= minute < MINUTES_PER_DAY or minute % 1:
        raise ValueError(_MINUTES_ERROR)
    return int(minute)


def _hour_of(minute: float) -> float:
    """One whole minute of the day as an hour, checked as ``minutes_to_hours``."""
    return _minute_of(minute) / 60.0


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolation percentile at rank ``p / 100 * (n - 1)``.

    Implemented directly rather than via ``np.percentile``: the numpy
    interpolation turns ``inf - inf`` into NaN, and infinite values do occur
    in LOF score distributions.  A rank that lands exactly on a sample
    returns that sample; any interpolation that touches ``inf`` yields
    ``inf``.
    """
    arr = np.sort(np.asarray(values, dtype=float))
    if arr.size == 0:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100]: got {p}")
    rank = p / 100.0 * (arr.size - 1)
    lo = math.floor(rank)
    frac = rank - lo
    if frac == 0.0:
        return float(arr[lo])
    hi = min(lo + 1, arr.size - 1)
    return float(arr[lo] * (1.0 - frac) + arr[hi] * frac)


def silhouette(hours: Sequence[float], labels: Sequence[int]) -> float:
    """Mean silhouette coefficient under the circular distance.

    Singleton clusters contribute 0, as does any point whose intra and
    inter distances are both 0.  At least two clusters are required.
    """
    arr = np.asarray(hours, dtype=float)
    lab = np.asarray(labels)
    if len(set(lab.tolist())) < 2:
        raise ValueError("silhouette requires at least two clusters")
    matrix = _circ_dist(arr[:, None], arr[None, :])
    _, cluster = np.unique(lab, return_inverse=True)
    points = np.arange(arr.size)
    return float(_silhouettes(matrix, np.ones(arr.size), cluster[None, :], points, 1.0)[0])


def _cluster_sums(
    matrix: np.ndarray, weights: np.ndarray, cluster: np.ndarray, width: int
) -> np.ndarray:
    """Each point's distance sum to each cluster, each point weighted.

    ``cluster`` numbers the clusters ``0 .. width - 1``, none empty.
    """
    onehot = np.zeros((matrix.shape[0], width))
    onehot[np.arange(matrix.shape[0]), cluster] = weights
    return matrix @ onehot


def _silhouettes(
    matrix: np.ndarray,
    weights: np.ndarray,
    labels: np.ndarray,
    samples: np.ndarray,
    unit: float,
) -> np.ndarray:
    """The silhouette of each clustering in ``labels``, one row per clustering.

    ``matrix`` holds the distances between distinct points, ``weights`` how
    many samples sit at each point and ``samples`` the point of each sample,
    in sample order.  Each row of ``labels`` numbers the clusters of the
    points from 0, so samples at one point share a cluster.  The distances
    are ``matrix`` over ``unit``, with the sums divided after the product.
    Empty clusters count as infinitely far, and a clustering with fewer than
    two clusters scores -inf.
    """
    runs, m = labels.shape
    width = int(labels.max()) + 1
    key = labels + (np.arange(runs) * width)[:, None]
    sizes = np.bincount(key.ravel(), np.tile(weights, runs), runs * width)
    counts = sizes.reshape(runs, width)
    # Row c: cluster c's distance sum to each point, then its mean distance.
    # One product per clustering, over its non-empty clusters: a product
    # with every clustering's columns at once is large enough for BLAS to
    # wake its worker threads, which then spin.
    sums = np.zeros((runs, width, m))
    for run, present in enumerate(counts > 0):
        cluster = (np.cumsum(present) - 1)[labels[run]]
        sums[run, present] = _cluster_sums(matrix, weights, cluster, int(present.sum())).T
    sums = sums.reshape(runs * width, m) / unit
    flat = sums.reshape(-1)
    own = (key * m + np.arange(m)).ravel()
    own_size = sizes[key]
    a = flat[own].reshape(runs, m) / np.maximum(own_size - 1, 1)
    sums /= np.maximum(sizes, 1)[:, None]
    sums[sizes == 0] = math.inf
    flat[own] = math.inf
    b = sums.reshape(runs, width, m).min(axis=1)
    denom = np.maximum(a, b)
    scored = np.count_nonzero(counts, axis=1) >= 2
    # Singletons contribute 0, as do points with a = b = 0.
    keep = (own_size > 1) & (denom > 0) & scored[:, None]
    s = np.divide(b - a, denom, out=np.zeros((runs, m)), where=keep)
    # Each sample takes its point's term, and a running sum adds the terms
    # in sample order.
    return np.where(scored, np.cumsum(s[:, samples], axis=1)[:, -1] / samples.size, -math.inf)


def _weighted_draws(weight: np.ndarray, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """One index per row of ``weight``, drawn from that row's generator.

    Each is the draw ``rng.choice(n, p=row / row.sum())`` makes, by
    ``choice``'s own route: the cumulative sum over its last element, one
    ``random()``, then ``searchsorted(side="right")``, which on a sorted row
    counts the entries at or below the draw.  Each row sum is the pairwise
    sum of the row alone.  A row of no weight draws ``rng.integers(n)``.
    """
    total = weight.sum(axis=1)
    with np.errstate(invalid="ignore"):  # 0 / 0 in a row of no weight, never read
        cdf = np.cumsum(weight / total[:, None], axis=1)
        cdf /= cdf[:, -1:]
    totals = total.tolist()
    draws = [rng.random() if w > 0.0 else -1.0 for rng, w in zip(rngs, totals)]
    picks = np.count_nonzero(cdf <= np.array(draws)[:, None], axis=1)
    for row, w in enumerate(totals):
        if w <= 0.0:
            picks[row] = rngs[row].integers(weight.shape[1])
    return picks


# ---------------------------------------------------------------------------
# Detector interface
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Score:
    """One detector's verdict: a 0/1 decision and the raw statistic behind it."""

    binary: int
    raw: float

    def __post_init__(self) -> None:
        if self.binary not in (0, 1):
            raise ValueError(f"binary score must be 0 or 1: got {self.binary}")


class Detector(ABC):
    """Common surface of all detectors.

    ``trained_version`` is the window version the model was last fitted on,
    ``-1`` when never fitted.  Scoring is side-effect free and only allowed
    on fitted models.  ``fit_partial`` checks the minutes, needs at least
    ``min_samples`` of them, and returns the fitted model as a new instance,
    leaving ``self`` unchanged: a pipeline shares its unfitted instances
    between all its users.  A type implements ``_fit``, which sets the model
    on the copy ``fit_partial`` makes.  ``param_keys`` maps each external
    configuration key the type accepts to its constructor keyword.
    """

    name = "detector"
    min_samples = 1
    param_keys: Mapping[str, str] = {}

    def __init__(self) -> None:
        self.trained_version = -1

    @property
    def is_trained(self) -> bool:
        return self.trained_version >= 0

    def fit_partial(self, minutes: Sequence[float], version: int = 0) -> "Detector":
        """Return a new instance fitted on ``minutes`` (of the day); ``self`` stays as it was."""
        whole = _whole_minutes(minutes)
        if whole.size < self.min_samples:
            raise NotEnoughDataError(
                f"{self.name} needs at least {self.min_samples} samples, got {whole.size}"
            )
        fitted = copy.copy(self)
        fitted._fit(whole)
        fitted.trained_version = version
        return fitted

    @abstractmethod
    def _fit(self, whole: np.ndarray) -> None:
        """Set this copy's model from ``whole``, the checked training minutes."""

    @abstractmethod
    def score_partial(self, minute: float) -> Score:
        """Score one event by its minute of the day."""

    def _require_trained(self) -> None:
        if not self.is_trained:
            raise NotFittedError(f"{self.name} detector scored before fitting")

    def to_debug_dict(self) -> dict[str, Any]:
        return {"name": self.name, "trained_version": self.trained_version}


def _checked(value: Any, what: str) -> Any:
    """``value`` if it is a finite real number, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ConfigurationError(f"{what} must be a finite number, got {value!r}")
    return value


def _percent(value: Any, what: str) -> Any:
    """A number in [0, 100], as ``percentile`` takes it."""
    if not 0.0 <= _checked(value, what) <= 100.0:
        raise ConfigurationError(f"{what} must be in [0, 100], got {value!r}")
    return value


def _warn_range(name: str, value: float, low: float, high: float) -> None:
    if not low <= value <= high:
        warnings.warn(
            f"{name}={value} outside the recommended range [{low}, {high}]",
            UserWarning,
            stacklevel=3,
        )


# ---------------------------------------------------------------------------
# Circular k-means
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cluster:
    centroid: float  # hour in [0, 24)
    sigma: float  # spread of members around the centroid, hours
    size: int


class CircularKMeans(Detector):
    """K-means over hours of day with circular distance and z-score alerts.

    k is searched in ``2 .. min(10, n - 1)`` and chosen by the best
    silhouette (ties go to the smaller k).  An event is anomalous when its
    distance to the nearest centroid, in floored sigma units, exceeds
    ``threshold``.

    Samples at one minute share a label, so a fit takes each silhouette over
    the distinct training minutes, weighted by their counts, from a distance
    matrix of at most 1,440 x 1,440 whatever the window holds.  Its distance
    sums are integers, exact in any order, and each term is expanded back to
    its samples before the running sum in sample order, so the silhouettes
    keep the bytes of sums over every pair of samples.
    """

    name = "kmeans"
    min_samples = 3
    param_keys = {"kmeans_parameter": "threshold", "seed": "seed"}

    def __init__(self, threshold: float = 1.5, seed: int = 0):
        super().__init__()
        _warn_range("kmeans threshold", _checked(threshold, "kmeans threshold"), 1.5, 2.5)
        self.threshold = float(threshold)
        if checked_integer(seed, "kmeans seed") < 0:
            raise ConfigurationError("kmeans seed must be non-negative")
        self.seed = int(seed)
        self.chosen_k = 0
        self.clusters: tuple[Cluster, ...] = ()

    def _fit(self, whole: np.ndarray) -> None:
        hours = whole / 60.0
        n = hours.size
        # Every Lloyd update of every k takes its circular means from these.
        angles = hours * _RADIANS_PER_HOUR
        unit = np.stack((np.cos(angles), np.sin(angles)))
        ks = range(2, min(KMEANS_MAX_CLUSTERS, n - 1) + 1)
        runs = self._lloyd(hours, unit, ks)
        # Samples at one minute have one distance row to the centroids, so
        # one label, and the silhouette runs over the distinct minutes, each
        # weighted by its count: at most 1,440 of them, however long the
        # window.  Distances in minutes are integers, and so are their
        # weighted sums, far below 2**53 and exact in any summation order:
        # neither the grouping nor the BLAS kernel the CPU selects can move
        # the silhouette.  The sums are turned into hours after the product,
        # and the gaps are int16, so the float matrix is the one large array.
        distinct, first, samples, weights = np.unique(
            whole.astype(np.int16), return_index=True, return_inverse=True, return_counts=True
        )
        gaps = np.abs(distinct[:, None] - distinct)
        matrix = np.minimum(gaps, MINUTES_PER_DAY - gaps).astype(float)
        minute_labels = np.stack([labels for labels, _ in runs])[:, first]
        scores = _silhouettes(matrix, weights.astype(float), minute_labels, samples, 60.0)
        best = int(np.argmax(scores))  # the first best wins: ties go to the smaller k
        self.chosen_k = ks[best]
        self.clusters = self._summarise(hours, *runs[best])

    def score_partial(self, minute: float) -> Score:
        self._require_trained()
        hour = _hour_of(minute)
        z = math.inf
        for cluster in self.clusters:
            d = circ_distance(hour, cluster.centroid)
            z = min(z, d / max(cluster.sigma, SIGMA_FLOOR))
        return Score(int(z > self.threshold), z)

    def _lloyd(
        self, hours: np.ndarray, unit: np.ndarray, ks: Sequence[int]
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Lloyd iterations from k-means++ seeds, one run per k, in lockstep.

        ``unit`` holds the cosine and sine of each sample's angle; each
        centroid update is the ``circular_mean`` of the cluster's members.
        Returns each run's labels and its k centroids, exactly as the run
        would end alone: after ``LLOYD_MAX_ITER`` updates, after an update
        that moved no centroid by ``LLOYD_TOL`` (with labels from the new
        centroids), or when the labels equal those the centroids were just
        rebuilt from with no cluster re-seeded, where the update would
        shift by exactly 0.
        """
        n = hours.size
        width = KMEANS_MAX_CLUSTERS
        rngs = [np.random.default_rng([self.seed, k]) for k in ks]
        # One row per live run.  Unused slots repeat a real centroid at a
        # higher index, so the argmin's first-index rule never picks one.
        run = np.arange(len(ks))
        centroids = self._seed_centroids(hours, ks, rngs)
        real = np.arange(width) < np.asarray(ks)[:, None]
        # Each run's labels at its last update, whether that update re-seeded
        # no cluster and whether it moved no centroid by the tolerance, and
        # which centroids are the circular means of their members.
        last = np.zeros((len(ks), n), dtype=np.intp)
        settled = np.zeros(len(ks), dtype=bool)
        converged = np.zeros(len(ks), dtype=bool)
        is_mean = np.zeros((len(ks), width), dtype=bool)
        offset = (np.arange(len(ks)) * width)[:, None]  # each row's first cell
        ended: list[tuple[np.ndarray, np.ndarray]] = [None] * len(ks)  # type: ignore[list-item]
        column = hours[:, None]
        for step in range(LLOYD_MAX_ITER + 1):
            dist = _circ_dist(column, centroids[:, None, :])
            labels = dist.argmin(axis=2)
            moved = labels != last
            done = converged | (settled & ~moved.any(axis=1)) | (step == LLOYD_MAX_ITER)
            rows = None  # each row's place in ``dist``, when runs have ended
            if done.any():
                for row in np.flatnonzero(done).tolist():
                    ended[run[row]] = (labels[row], centroids[row, : ks[run[row]]].copy())
                if done.all():
                    break
                rows = np.flatnonzero(~done)
                run, centroids, real, last, is_mean, labels, moved = (
                    a[rows] for a in (run, centroids, real, last, is_mean, labels, moved)
                )
                offset = offset[: rows.size]
            # Members of each cluster in sample order, clusters by row, then
            # label: a stable sort of small keys, which numpy radix-sorts.
            key = labels + offset
            counts = np.bincount(key.ravel(), minlength=run.size * width)
            filled = counts > 0
            member = np.argsort(key.astype(np.uint8).ravel(), kind="stable") % n
            ends = np.cumsum(counts)
            # A centroid that is the mean of its members keeps its value
            # while no sample moves into or out of its cluster.
            stale = ~is_mean.ravel()
            stale[key[moved]] = True
            stale[(last + offset)[moved]] = True
            cells = np.flatnonzero(stale & filled)
            starts = ends[cells] - counts[cells]
            new = centroids.copy()
            flat = new.reshape(-1)
            # The same additions, in the same order, as ``circular_mean``:
            # numpy sums a contiguous run pairwise, in blocks set by position,
            # so each sum must reduce one contiguous run.  Each row of a
            # C-contiguous (2, m) slice is one.  Any strided row adds in
            # another order and moves the last bit, and so do ``bincount``
            # weights and ``reduceat``.  A last-axis fancy gather
            # (``unit[:, member]``) comes back F-ordered, its rows strided, so
            # the gather is ``take``, which returns C order.
            grouped = unit.take(member, axis=1)
            for cell, start, end, first in zip(
                cells.tolist(), starts.tolist(), ends[cells].tolist(), hours[member[starts]].tolist()
            ):
                x, y = np.add.reduce(grouped[:, start:end], 1).tolist()
                flat[cell] = _mean_direction(x, y, first)
            # Re-seed each empty cluster on the point farthest from its own
            # centroid, a distinct point per cluster, in label order.
            filled = filled.reshape(run.size, width)
            empty = ~filled & real
            if empty.any():
                for row in np.flatnonzero(empty.any(axis=1)).tolist():
                    own = dist[row if rows is None else rows[row], np.arange(n), labels[row]]
                    slots = np.flatnonzero(empty[row])
                    new[row, slots] = hours[np.argsort(-own)[: slots.size]]
            new = np.where(real, new, new[:, :1])
            converged = _circ_dist(centroids, new).max(axis=1) < LLOYD_TOL
            settled = ~empty.any(axis=1)
            is_mean = filled
            last = labels
            centroids = new
        return ended

    @staticmethod
    def _seed_centroids(
        hours: np.ndarray, ks: Sequence[int], rngs: Sequence[np.random.Generator]
    ) -> np.ndarray:
        """k-means++ seeds (Arthur and Vassilvitskii 2007) for every run at once.

        Run ``i`` draws its ``ks[i]`` seeds from ``rngs[i]``, the draws it
        would make alone; ``ks`` must ascend.  Row ``i`` of the result holds
        them, then repeats the first seed up to ``KMEANS_MAX_CLUSTERS``
        columns.
        """
        n = hours.size
        ks = np.asarray(ks)
        chosen = np.zeros((ks.size, KMEANS_MAX_CLUSTERS), dtype=np.intp)
        chosen[:, 0] = [rng.integers(n) for rng in rngs]
        # Each sample's distance to its nearest chosen centroid.  A minimum
        # is exact, so keeping it running gives the same D² weights, and the
        # same draws, as measuring against every chosen centroid each round.
        nearest = _circ_dist(hours, hours[chosen[:, :1]])
        first = 0  # runs before this one have all their seeds
        for t in range(1, int(ks[-1])):
            while ks[first] <= t:
                first += 1
            picks = _weighted_draws(nearest[first:] * nearest[first:], rngs[first:])
            chosen[first:, t] = picks
            nearest[first:] = np.minimum(nearest[first:], _circ_dist(hours, hours[picks][:, None]))
        chosen = np.where(np.arange(KMEANS_MAX_CLUSTERS) < ks[:, None], chosen, chosen[:, :1])
        return hours[chosen]

    @staticmethod
    def _summarise(
        hours: np.ndarray, labels: np.ndarray, centroids: np.ndarray
    ) -> tuple[Cluster, ...]:
        raw: list[Cluster] = []
        for j, centroid in enumerate(centroids):
            members = hours[labels == j]
            if members.size == 0:
                continue
            centre = float(centroid)
            spread = float(np.sqrt(np.mean(_circ_dist(members, centre) ** 2)))
            raw.append(Cluster(centre, spread, int(members.size)))
        # Merge clusters that collapsed onto the same centre so centroids
        # stay pairwise distinct.
        merged: list[Cluster] = []
        for cluster in sorted(raw, key=lambda c: c.centroid):
            if merged and _circ_dist(
                np.array(cluster.centroid), np.array(merged[-1].centroid)
            ) <= 1e-12:
                prev = merged[-1]
                size = prev.size + cluster.size
                sigma = math.sqrt(
                    (prev.size * prev.sigma**2 + cluster.size * cluster.sigma**2) / size
                )
                merged[-1] = Cluster(prev.centroid, sigma, size)
            else:
                merged.append(cluster)
        return tuple(merged)

    def to_debug_dict(self) -> dict[str, Any]:
        out = super().to_debug_dict()
        out.update(
            threshold=self.threshold,
            seed=self.seed,
            chosen_k=self.chosen_k,
            clusters=[
                {"centroid": c.centroid, "sigma": c.sigma, "size": c.size}
                for c in self.clusters
            ],
        )
        return out


# ---------------------------------------------------------------------------
# Wrapped kernel density estimate
# ---------------------------------------------------------------------------


class WrappedKde(Detector):
    """Gaussian KDE wrapped onto the day by summing shifted copies.

    The bandwidth follows Silverman's rule,
    ``0.9 * min(sd, IQR / 1.34) * n ** (-1/5)``, floored at 0.1 h.  The
    anomaly threshold is a low percentile of the training densities; an
    event is anomalous when its density falls strictly below it.

    Samples and events are whole minutes, so a fit keeps the density at each
    of the 1,440 minutes of the day, read-only, and nothing else: a score is
    one lookup.  The density at minute ``q`` is the pairwise sum
    (``np.add.reduce`` of one contiguous row) of ``table[q - u + 1439] *
    count`` over the distinct training minutes ``u`` in ascending order,
    divided by ``n * bandwidth * sqrt(2 pi)``, where ``table`` is the fit's
    ``_kernel_table``.  ``math.exp`` and plain IEEE arithmetic give the same
    bytes on any CPU.
    """

    name = "kde"
    min_samples = 2
    param_keys = {"kde_parameter": "percentile"}

    def __init__(self, percentile: float = 0.5):
        super().__init__()
        _warn_range("kde percentile", _percent(percentile, "kde percentile"), 0.5, 5.0)
        self.percentile = float(percentile)
        self.n = 0
        self.bandwidth = 0.0
        self.density_threshold = 0.0
        self.densities: np.ndarray | tuple[()] = ()

    def _fit(self, whole: np.ndarray) -> None:
        hours = whole / 60.0
        n = hours.size
        sd = float(np.std(hours))
        q75, q25 = np.percentile(hours, [75.0, 25.0])
        spread = min(sd, float(q75 - q25) / 1.34)
        bandwidth = max(0.9 * spread * n ** (-0.2), BANDWIDTH_FLOOR)
        sample_minutes = whole.astype(np.intp)
        per_minute = np.bincount(sample_minutes, minlength=MINUTES_PER_DAY)
        distinct = np.flatnonzero(per_minute)
        counts = per_minute[distinct].astype(float)
        table = _kernel_table(bandwidth)
        gaps = _KDE_GAP_ZERO - distinct
        day = np.arange(MINUTES_PER_DAY)[:, None]
        sums = []
        for i in range(0, MINUTES_PER_DAY, _KDE_BLOCK_ROWS):
            # A C-contiguous block: each row sum is numpy's pairwise sum of
            # that row alone.  No BLAS product, whose kernels vary with the CPU.
            terms = table.take(day[i : i + _KDE_BLOCK_ROWS] + gaps)
            terms *= counts
            sums.append(np.add.reduce(terms, axis=1))
        densities = np.concatenate(sums) / (n * bandwidth * math.sqrt(2.0 * math.pi))
        densities.flags.writeable = False
        self.n = n
        self.bandwidth = bandwidth
        self.densities = densities
        self.density_threshold = percentile(densities[sample_minutes], self.percentile)

    def score_partial(self, minute: float) -> Score:
        self._require_trained()
        value = self.densities.item(_minute_of(minute))
        return Score(int(value < self.density_threshold), self.density_threshold - value)

    def to_debug_dict(self) -> dict[str, Any]:
        out = super().to_debug_dict()
        out.update(
            percentile=self.percentile,
            n_samples=self.n,
            bandwidth=self.bandwidth,
            density_threshold=self.density_threshold,
        )
        return out


def _kernel_table(bandwidth: float) -> np.ndarray:
    """The wrapped kernel at each signed minute gap -1439..1439, for ``WrappedKde``.

    The Gaussian ``E(x) = exp(-0.5 * (x / (60 * bandwidth)) ** 2)`` is even,
    so it is evaluated once, with ``math.exp``, at each distance
    ``x = 0 .. 2879`` the three copies reach, except where its exponent is
    below ``_KDE_EXP_FLOOR``: there it is stored as the 0.0 ``math.exp``
    would return.  Entry ``i`` (gap ``g = i - 1439``) is ``(E(1440 - g) +
    E(|g|)) + E(g + 1440)``; each term is a slice of ``E``, reversed where
    the distance falls as ``g`` rises.
    """
    z = np.arange(2 * MINUTES_PER_DAY) / (60.0 * bandwidth)
    exponent = (-0.5 * z) * z
    live = np.flatnonzero(exponent >= _KDE_EXP_FLOOR)
    e = np.zeros(2 * MINUTES_PER_DAY)
    e[live] = np.fromiter(map(math.exp, exponent[live].tolist()), float, live.size)
    centre = np.concatenate((e[_KDE_GAP_ZERO:0:-1], e[:MINUTES_PER_DAY]))
    return (e[:0:-1] + centre) + e[1:]


# ---------------------------------------------------------------------------
# Local outlier factor with cosine distance
# ---------------------------------------------------------------------------


class CosineLof(Detector):
    """Local outlier factor on the unit-circle embedding of hours.

    Distance is ``1 - cos`` of the angle between two samples.  Neighbourhoods
    use the classic k-distance rule with ties included.  Duplicate-heavy
    neighbourhoods follow the conventions ``1 / 0 = inf`` and
    ``inf / inf = 1``.  New events are scored against the training points
    only; the alert threshold is a high percentile of the training scores.

    A fit gathers every neighbourhood at once, its rows ordered stably by
    size, and reduces the neighbourhoods of each size as one C-contiguous
    block: each row's sum is numpy's pairwise sum of that row alone, and is
    divided by its size, as ``_mean`` does for the one neighbourhood of a
    score.  So the densities and scores keep the bytes of one mean per row.
    The fit still holds the n x n distance matrix.
    """

    name = "lof"
    min_samples = 3
    param_keys = {"lof_parameter": "percentile", "n_neighbors": "n_neighbors"}

    def __init__(self, percentile: float = 95.0, n_neighbors: int = 20):
        super().__init__()
        _warn_range("lof percentile", _percent(percentile, "lof percentile"), 75.0, 95.0)
        if checked_integer(n_neighbors, "lof n_neighbors") < 1:
            raise ConfigurationError("n_neighbors must be at least 1")
        self.percentile = float(percentile)
        self.n_neighbors = int(n_neighbors)
        self.hours: np.ndarray | tuple[()] = ()
        self.k_eff = 0
        self.k_distances: np.ndarray | tuple[()] = ()
        self.local_densities: np.ndarray | tuple[()] = ()
        self.training_scores: np.ndarray | tuple[()] = ()
        self.score_threshold = 0.0

    def _fit(self, whole: np.ndarray) -> None:
        hours = whole / 60.0
        n = hours.size
        self.hours = hours
        self.k_eff = min(self.n_neighbors, n - 1)
        matrix = _cosine_distances(hours[:, None], hours[None, :])
        np.fill_diagonal(matrix, np.inf)  # a point is not its own neighbour

        kth = self.k_eff - 1
        # A copy, so the model does not keep the whole partitioned matrix.
        k_distances = np.partition(matrix, kth, axis=1)[:, kth].copy()
        # Every neighbourhood in one gather: the rows sorted stably by the
        # size of their neighbourhood, each row's neighbours in ascending
        # order, the order in which a row's mask selects them.
        near = matrix <= (k_distances + LOF_TIE_EPS)[:, None]
        sizes = np.count_nonzero(near, axis=1)
        order = np.argsort(sizes, kind="stable")
        position, neighbours = np.divmod(np.flatnonzero(near[order]), n)
        reach = np.maximum(k_distances[neighbours], matrix[order[position], neighbours])
        lof_densities, lof_ratios = _lof_ufuncs()
        densities = lof_densities(_neighbourhood_means(reach, order, sizes)).astype(float)
        neighbour_densities = _neighbourhood_means(densities[neighbours], order, sizes)
        scores = lof_ratios(neighbour_densities, densities).astype(float)
        self.k_distances = k_distances
        self.local_densities = densities
        self.training_scores = scores
        self.score_threshold = percentile(scores, self.percentile)

    def score_partial(self, minute: float) -> Score:
        self._require_trained()
        dist = _cosine_distances(_hour_of(minute), self.hours)
        kth = self.k_eff - 1
        near = dist <= np.partition(dist, kth)[kth] + LOF_TIE_EPS
        own_density = _lof_density(_mean(np.maximum(self.k_distances[near], dist[near])))
        raw = _lof_ratio(_mean(self.local_densities[near]), own_density)
        return Score(int(raw > self.score_threshold), raw)

    def to_debug_dict(self) -> dict[str, Any]:
        out = super().to_debug_dict()
        out.update(
            percentile=self.percentile,
            n_neighbors=self.n_neighbors,
            k_eff=self.k_eff,
            n_samples=len(self.hours),
            score_threshold=float(self.score_threshold),
        )
        return out


def _cosine_distances(a: np.ndarray | float, b: np.ndarray) -> np.ndarray:
    """``1 - cos`` of the angle between hour samples, clamped at 0."""
    angles = (a - b) * _RADIANS_PER_HOUR
    return np.maximum(1.0 - np.cos(angles), 0.0)


def _mean(values: np.ndarray) -> float:
    """``values.mean()``, the same sum and division, without its overhead."""
    return float(np.add.reduce(values)) / values.size


def _neighbourhood_means(values: np.ndarray, order: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The ``_mean`` of each row's values, for rows of ``sizes[row]`` values.

    ``values`` holds the values of row ``order[0]``, then of ``order[1]``,
    and so on, where ``order`` sorts the rows stably by size.  The rows of
    one size are one C-contiguous (rows, size) block, and ``np.add.reduce``
    along its last axis is numpy's pairwise sum of each row alone: the sum
    ``_mean`` takes, before the same division by the size.
    """
    means = np.empty(order.size)
    counts = np.bincount(sizes)
    start = offset = 0
    for size in np.flatnonzero(counts).tolist():
        count = int(counts[size])
        block = values[offset : offset + count * size].reshape(count, size)
        means[order[start : start + count]] = np.add.reduce(block, axis=1) / size
        start, offset = start + count, offset + count * size
    return means


def _lof_density(mean_reach: float) -> float:
    """Local reachability density: ``1 / mean_reach``, and ``1 / 0 = inf``."""
    return math.inf if mean_reach == 0.0 else 1.0 / mean_reach


def _lof_ratio(neighbour_density: float, own_density: float) -> float:
    """LOF as the neighbours' mean density over the point's own.

    Among duplicates densities are infinite: ``inf / inf = 1``, ``x / inf
    = 0`` and ``inf / x = inf``; and ``x / 0 = inf``.
    """
    if math.isinf(own_density):
        return 1.0 if math.isinf(neighbour_density) else 0.0
    if math.isinf(neighbour_density):
        return math.inf
    if own_density == 0.0:
        return math.inf
    return neighbour_density / own_density


@functools.cache
def _lof_ufuncs() -> tuple[np.ufunc, np.ufunc]:
    """``_lof_density`` and ``_lof_ratio`` on each element of an array, for the fit.

    Each element takes the Python float arithmetic that scoring takes.  They
    are built at the first fit, which imports numpy.
    """
    return np.frompyfunc(_lof_density, 1, 1), np.frompyfunc(_lof_ratio, 2, 1)


# ---------------------------------------------------------------------------
# Detector types
# ---------------------------------------------------------------------------

#: The detector types a config can name, keyed by each type's own ``name``.
#: The table is read-only: the three types are the whole set.
DETECTOR_TYPES: Mapping[str, type[Detector]] = MappingProxyType(
    {cls.name: cls for cls in (WrappedKde, CircularKMeans, CosineLof)}
)

DEFAULT_DETECTORS = tuple(sorted(DETECTOR_TYPES))


def init_map(params: Mapping[str, Mapping] | None = None) -> dict[str, Detector]:
    """Build fresh detector instances keyed by name, in sorted order.

    ``params`` maps each detector to build to its parameters, keyed by the
    external configuration keys its type declares in ``param_keys``;
    ``None`` builds the defaults.  Unknown detector names or parameter keys
    raise ``ConfigurationError``, and so do values the types cannot take
    (anything but a finite number, a non-integer count, a negative or
    non-integer seed, a percentile outside [0, 100]); values outside the
    recommended ranges only warn.
    """
    if params is None:
        params = {name: {} for name in DEFAULT_DETECTORS}
    out: dict[str, Detector] = {}
    for name in sorted(params):
        cls = DETECTOR_TYPES.get(name)
        if cls is None:
            raise ConfigurationError(f"unknown detector {name!r}")
        kwargs: dict[str, Any] = {}
        for key, value in (params[name] or {}).items():
            if key not in cls.param_keys:
                raise ConfigurationError(f"unknown {name} parameter {key!r}")
            kwargs[cls.param_keys[key]] = value
        out[name] = cls(**kwargs)
    return out
