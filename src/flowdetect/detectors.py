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

Fits and scores are bit-for-bit stable under refactors: a change to this
module keeps every IEEE operation on every value, in the same order, and the
golden digests in ``tests/test_golden.py`` and ``tests/test_acceptance.py``
pin the resulting scores, chosen k and alerts.
"""

from __future__ import annotations

import copy
import math
import numbers
import warnings
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from .errors import ConfigurationError, NotEnoughDataError, NotFittedError

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

#: The three wrapped copies of each kernel, one per leading axis entry.
_KDE_SHIFTS = np.array([-HOURS_PER_DAY, 0.0, HOURS_PER_DAY]).reshape(3, 1, 1)
_KDE_SHIFTS.flags.writeable = False

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


def minutes_to_hours(minutes: Sequence[float]) -> np.ndarray:
    arr = np.asarray(minutes, dtype=float)
    if arr.size and (arr.min() < 0 or arr.max() >= MINUTES_PER_DAY):
        raise ValueError("minutes of day must be in [0, 1440)")
    return arr / 60.0


def _hour_of(minute: float) -> float:
    """One minute of the day as an hour, range-checked as ``minutes_to_hours``."""
    if not 0 <= minute < MINUTES_PER_DAY:
        raise ValueError("minutes of day must be in [0, 1440)")
    return float(minute) / 60.0


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
    _, cluster, sizes = np.unique(lab, return_inverse=True, return_counts=True)
    return _silhouette_from_sums(_cluster_sums(matrix, cluster, sizes), cluster, sizes)


def _cluster_sums(matrix: np.ndarray, cluster: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Each point's distance sum to each cluster.

    ``cluster`` numbers the clusters ``0 .. sizes.size - 1``, none empty.
    """
    onehot = np.zeros((matrix.shape[0], sizes.size))
    onehot[np.arange(matrix.shape[0]), cluster] = 1.0
    return matrix @ onehot


def _silhouette_from_sums(sums: np.ndarray, cluster: np.ndarray, sizes: np.ndarray) -> float:
    n = sums.shape[0]
    rows = np.arange(n)
    own_size = sizes[cluster]
    a = sums[rows, cluster] / np.maximum(own_size - 1, 1)
    means = sums / sizes
    means[rows, cluster] = math.inf
    b = means.min(axis=1)
    denom = np.maximum(a, b)
    # Singletons contribute 0, as do points with a = b = 0.
    keep = (own_size > 1) & (denom > 0)
    s = np.divide(b - a, denom, out=np.zeros(n), where=keep)
    # A running sum, so the total adds the terms in point order.
    return float(np.cumsum(s)[-1]) / n


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
    on fitted models.  ``fit_partial`` needs at least ``min_samples``
    training samples.  ``param_keys`` maps each external configuration key
    the type accepts to its constructor keyword.
    """

    name = "detector"
    min_samples = 1
    param_keys: Mapping[str, str] = {}

    def __init__(self) -> None:
        self.trained_version = -1

    @property
    def is_trained(self) -> bool:
        return self.trained_version >= 0

    @abstractmethod
    def fit_partial(self, minutes: Sequence[float], version: int = 0) -> "Detector":
        """Return a new instance fitted on ``minutes`` (of the day)."""

    @abstractmethod
    def score_partial(self, minute: float, event_id: str | None = None) -> Score:
        """Score one event by its minute of the day."""

    def _require_samples(self, n: int) -> None:
        if n < self.min_samples:
            raise NotEnoughDataError(
                f"{self.name} needs at least {self.min_samples} samples, got {n}"
            )

    def _require_trained(self) -> None:
        if not self.is_trained:
            raise NotFittedError(f"{self.name} detector scored before fitting")

    def to_debug_dict(self) -> dict[str, Any]:
        return {"name": self.name, "trained_version": self.trained_version}


def _checked(value: Any, what: str, kind: type = numbers.Real) -> Any:
    """``value`` if it is a finite ``kind`` (``numbers.Real`` or ``numbers.Integral``), not a bool."""
    if isinstance(value, bool) or not isinstance(value, kind) or not math.isfinite(value):
        noun = "an integer" if kind is numbers.Integral else "a finite number"
        raise ConfigurationError(f"{what} must be {noun}, got {value!r}")
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
    """

    name = "kmeans"
    min_samples = 3
    param_keys = {"kmeans_parameter": "threshold", "seed": "seed"}

    def __init__(self, threshold: float = 1.5, seed: int = 0):
        super().__init__()
        _warn_range("kmeans threshold", _checked(threshold, "kmeans threshold"), 1.5, 2.5)
        self.threshold = float(threshold)
        if _checked(seed, "kmeans seed", numbers.Integral) < 0:
            raise ConfigurationError("kmeans seed must be non-negative")
        self.seed = int(seed)
        self.chosen_k = 0
        self.clusters: tuple[Cluster, ...] = ()

    def fit_partial(self, minutes: Sequence[float], version: int = 0) -> "CircularKMeans":
        hours = minutes_to_hours(minutes)
        n = hours.size
        self._require_samples(n)
        # Samples are whole minutes, so distances in minutes are integers
        # and their sums, far below 2**53, are exact in any summation order:
        # the BLAS kernel the CPU selects cannot move the silhouette.  The
        # sums are turned into hours only after the product.
        whole = np.asarray(minutes, dtype=float)
        gaps = np.abs(whole[:, None] - whole[None, :])
        matrix = np.minimum(gaps, MINUTES_PER_DAY - gaps)
        # Every Lloyd update of every k takes its circular means from these.
        angles = hours * _RADIANS_PER_HOUR
        unit = (np.cos(angles), np.sin(angles))
        best_k, best_score, best_labels, best_centroids = 0, -math.inf, None, None
        for k in range(2, min(KMEANS_MAX_CLUSTERS, n - 1) + 1):
            labels, centroids = self._lloyd(hours, unit, k)
            counts = np.bincount(labels)
            present = counts > 0
            if np.count_nonzero(present) < 2:
                score = -math.inf  # collapsed clustering, never preferred
            else:
                # Empty clusters are dropped; the rest keep their order.
                cluster = (np.cumsum(present) - 1)[labels]
                sizes = counts[present]
                sums = _cluster_sums(matrix, cluster, sizes)
                score = _silhouette_from_sums(sums / 60.0, cluster, sizes)
            if best_labels is None or score > best_score:
                best_k, best_score, best_labels, best_centroids = k, score, labels, centroids
        fitted = copy.copy(self)
        fitted.chosen_k = best_k
        fitted.clusters = self._summarise(hours, best_labels, best_centroids)
        fitted.trained_version = version
        return fitted

    def score_partial(self, minute: float, event_id: str | None = None) -> Score:
        self._require_trained()
        hour = _hour_of(minute)
        z = math.inf
        for cluster in self.clusters:
            d = circ_distance(hour, cluster.centroid)
            z = min(z, d / max(cluster.sigma, SIGMA_FLOOR))
        return Score(int(z > self.threshold), z)

    def _lloyd(
        self, hours: np.ndarray, unit: tuple[np.ndarray, np.ndarray], k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Lloyd iterations from k-means++ seeds.

        ``unit`` holds the cosine and sine of each sample's angle; each
        centroid update is the ``circular_mean`` of the cluster's members.
        """
        rng = np.random.default_rng([self.seed, k])
        centroids = self._seed_centroids(hours, k, rng)
        n = hours.size
        cos_h, sin_h = unit
        rebuilt_from = None  # the labels the centroids are the means of
        for _ in range(LLOYD_MAX_ITER):
            dist = _circ_dist(hours[:, None], centroids[None, :])
            labels = dist.argmin(axis=1)
            if rebuilt_from is not None and np.array_equal(labels, rebuilt_from):
                # The update would rebuild the same centroids: a shift of 0.
                return labels, centroids
            # Members of each cluster in sample order, clusters in label order.
            order = np.argsort(labels, kind="stable")
            cos_g, sin_g = cos_h[order], sin_h[order]
            new_centroids = centroids.copy()
            used: set[int] = set()
            start = 0
            for j, end in enumerate(np.cumsum(np.bincount(labels, minlength=k)).tolist()):
                if end > start:
                    # The same additions, in the same order, as
                    # ``circular_mean(members)``: numpy sums a contiguous run
                    # pairwise, in blocks set by position, so each sum must
                    # be one 1-D contiguous ``np.add.reduce``.  A reduction
                    # along a strided axis (the cos/sin pair as one (m, 2)
                    # array, or its (2, m) transpose), ``np.bincount``
                    # weights and ``np.add.reduceat`` add one element at a
                    # time instead, and move the last bit.
                    new_centroids[j] = _mean_direction(
                        float(np.add.reduce(cos_g[start:end])),
                        float(np.add.reduce(sin_g[start:end])),
                        hours[order[start]],
                    )
                else:
                    # Re-seed an empty cluster on the point farthest from
                    # its current centroid (distinct point per cluster).
                    own = dist[np.arange(n), labels]
                    for idx in np.argsort(-own):
                        if int(idx) not in used:
                            used.add(int(idx))
                            new_centroids[j] = hours[idx]
                            break
                start = end
            rebuilt_from = None if used else labels
            shift = float(_circ_dist(centroids, new_centroids).max())
            centroids = new_centroids
            if shift < LLOYD_TOL:
                break
        labels = _circ_dist(hours[:, None], centroids[None, :]).argmin(axis=1)
        return labels, centroids

    @staticmethod
    def _seed_centroids(hours: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
        n = hours.size
        chosen = [int(rng.integers(n))]
        # Each sample's distance to its nearest chosen centroid.  A minimum
        # is exact, so keeping it running gives the same D² weights, and the
        # same draws, as measuring against every chosen centroid each round.
        nearest = _circ_dist(hours, hours[chosen[0]])
        while len(chosen) < k:
            weight = nearest * nearest
            total = float(weight.sum())
            if total <= 0.0:
                chosen.append(int(rng.integers(n)))
            else:
                chosen.append(int(rng.choice(n, p=weight / total)))
            nearest = np.minimum(nearest, _circ_dist(hours, hours[chosen[-1]]))
        return hours[chosen].astype(float)

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
    """

    name = "kde"
    min_samples = 2
    param_keys = {"kde_parameter": "percentile"}

    def __init__(self, percentile: float = 0.5):
        super().__init__()
        _warn_range("kde percentile", _percent(percentile, "kde percentile"), 0.5, 5.0)
        self.percentile = float(percentile)
        self.samples: np.ndarray = np.empty(0)
        self.bandwidth = 0.0
        self.density_threshold = 0.0

    def fit_partial(self, minutes: Sequence[float], version: int = 0) -> "WrappedKde":
        hours = minutes_to_hours(minutes)
        n = hours.size
        self._require_samples(n)
        sd = float(np.std(hours))
        q75, q25 = np.percentile(hours, [75.0, 25.0])
        spread = min(sd, float(q75 - q25) / 1.34)
        bandwidth = max(0.9 * spread * n ** (-0.2), BANDWIDTH_FLOOR)
        fitted = copy.copy(self)
        fitted.samples = hours
        fitted.bandwidth = bandwidth
        fitted.density_threshold = percentile(fitted.density(hours), self.percentile)
        fitted.trained_version = version
        return fitted

    def density(self, hours: Sequence[float] | np.ndarray) -> np.ndarray:
        """Wrapped density at each query hour."""
        if self.samples.size == 0:
            raise NotFittedError("kde density requested before fitting")
        query = np.atleast_1d(np.asarray(hours, dtype=float))
        # All three shifts at once, in place: per element, the operations of
        # ``(-0.5 * z) * z`` and its exp, in the same order.
        e = (query[:, None] - self.samples[None, :]) + _KDE_SHIFTS
        e /= self.bandwidth
        e *= -0.5 * e
        np.exp(e, out=e)
        acc = e[0] + e[1] + e[2]
        norm = self.samples.size * self.bandwidth * math.sqrt(2.0 * math.pi)
        return acc.sum(axis=1) / norm

    def score_partial(self, minute: float, event_id: str | None = None) -> Score:
        self._require_trained()
        value = float(self.density(_hour_of(minute))[0])
        return Score(int(value < self.density_threshold), self.density_threshold - value)

    def to_debug_dict(self) -> dict[str, Any]:
        out = super().to_debug_dict()
        out.update(
            percentile=self.percentile,
            n_samples=int(self.samples.size),
            bandwidth=self.bandwidth,
            density_threshold=self.density_threshold,
        )
        return out


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
    """

    name = "lof"
    min_samples = 3
    param_keys = {"lof_parameter": "percentile", "n_neighbors": "n_neighbors"}

    def __init__(self, percentile: float = 95.0, n_neighbors: int = 20):
        super().__init__()
        _warn_range("lof percentile", _percent(percentile, "lof percentile"), 75.0, 95.0)
        if _checked(n_neighbors, "lof n_neighbors", numbers.Integral) < 1:
            raise ConfigurationError("n_neighbors must be at least 1")
        self.percentile = float(percentile)
        self.n_neighbors = int(n_neighbors)
        self.hours: np.ndarray = np.empty(0)
        self.k_eff = 0
        self.k_distances: np.ndarray = np.empty(0)
        self.local_densities: np.ndarray = np.empty(0)
        self.training_scores: np.ndarray = np.empty(0)
        self.score_threshold = 0.0

    def fit_partial(self, minutes: Sequence[float], version: int = 0) -> "CosineLof":
        hours = minutes_to_hours(minutes)
        n = hours.size
        self._require_samples(n)
        fitted = copy.copy(self)
        fitted.hours = hours
        fitted.k_eff = min(self.n_neighbors, n - 1)
        matrix = _cosine_distances(hours[:, None], hours[None, :])
        np.fill_diagonal(matrix, np.inf)  # a point is not its own neighbour

        kth = fitted.k_eff - 1
        # A copy, so the model does not keep the whole partitioned matrix.
        k_distances = np.partition(matrix, kth, axis=1)[:, kth].copy()
        # Row i: i's neighbourhood, and the reach distances from i.
        near = matrix <= (k_distances + LOF_TIE_EPS)[:, None]
        reach = np.maximum(k_distances[None, :], matrix)
        densities = np.empty(n)
        for i in range(n):
            mean_reach = _mean(reach[i][near[i]])
            densities[i] = math.inf if mean_reach == 0.0 else 1.0 / mean_reach
        scores = np.empty(n)
        for i in range(n):
            scores[i] = _lof_ratio(_mean(densities[near[i]]), float(densities[i]))
        fitted.k_distances = k_distances
        fitted.local_densities = densities
        fitted.training_scores = scores
        fitted.score_threshold = percentile(scores, self.percentile)
        fitted.trained_version = version
        return fitted

    def score_partial(self, minute: float, event_id: str | None = None) -> Score:
        self._require_trained()
        dist = _cosine_distances(_hour_of(minute), self.hours)
        kth = self.k_eff - 1
        near = dist <= np.partition(dist, kth)[kth] + LOF_TIE_EPS
        mean_reach = _mean(np.maximum(self.k_distances[near], dist[near]))
        own_density = math.inf if mean_reach == 0.0 else 1.0 / mean_reach
        raw = _lof_ratio(_mean(self.local_densities[near]), own_density)
        return Score(int(raw > self.score_threshold), raw)

    def to_debug_dict(self) -> dict[str, Any]:
        out = super().to_debug_dict()
        out.update(
            percentile=self.percentile,
            n_neighbors=self.n_neighbors,
            k_eff=self.k_eff,
            n_samples=int(self.hours.size),
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


def _lof_ratio(neighbour_density: float, own_density: float) -> float:
    if math.isinf(own_density):
        return 1.0 if math.isinf(neighbour_density) else 0.0
    if math.isinf(neighbour_density):
        return math.inf
    if own_density == 0.0:
        return math.inf
    return neighbour_density / own_density


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

DEFAULT_DETECTORS = ("kde", "kmeans", "lof")

DETECTOR_TYPES: dict[str, type[Detector]] = {
    "kde": WrappedKde,
    "kmeans": CircularKMeans,
    "lof": CosineLof,
}


def register_detector(name: str, cls: type[Detector]) -> None:
    """Expose an additional detector type to ``init_map``."""
    DETECTOR_TYPES[name] = cls


def init_map(params: Mapping[str, Mapping] | None = None) -> dict[str, Detector]:
    """Build fresh detector instances keyed by name, in sorted order.

    ``params`` maps each detector to build to its parameters, keyed by the
    external configuration keys its type declares in ``param_keys``;
    ``None`` builds the defaults.  Unknown detector names or parameter keys
    raise ``ConfigurationError``, and so do values the built-in types cannot
    take (anything but a finite number, a non-integer count, a negative or
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
