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
"""

from __future__ import annotations

import copy
import math
import warnings
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Sequence

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

_KDE_SHIFTS = (-HOURS_PER_DAY, 0.0, HOURS_PER_DAY)


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


def to_cartesian(hour: float) -> tuple[float, float]:
    """Embed an hour of day on the unit circle."""
    if not 0.0 <= hour < HOURS_PER_DAY:
        raise ValueError(f"hour must be in [0, 24): got {hour}")
    angle = 2.0 * math.pi * hour / HOURS_PER_DAY
    return (math.cos(angle), math.sin(angle))


def circular_mean(hours: Sequence[float]) -> float:
    """Direction of the mean resultant vector, as an hour in ``[0, 24)``.

    Perfectly balanced inputs have no mean direction; the first sample is
    returned so callers stay deterministic.
    """
    arr = np.asarray(hours, dtype=float)
    if arr.size == 0:
        raise ValueError("circular_mean of no samples")
    angles = arr * (2.0 * math.pi / HOURS_PER_DAY)
    x = float(np.cos(angles).sum())
    y = float(np.sin(angles).sum())
    if math.hypot(x, y) < 1e-12:
        return float(arr[0])
    hour = math.atan2(y, x) * (HOURS_PER_DAY / (2.0 * math.pi))
    return hour % HOURS_PER_DAY


def minutes_to_hours(minutes: Sequence[float]) -> np.ndarray:
    arr = np.asarray(minutes, dtype=float)
    if arr.size and (arr.min() < 0 or arr.max() >= MINUTES_PER_DAY):
        raise ValueError("minutes of day must be in [0, 1440)")
    return arr / 60.0


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
    return _silhouette_from_matrix(matrix, lab)


def _silhouette_from_matrix(matrix: np.ndarray, labels: np.ndarray) -> float:
    n = matrix.shape[0]
    _, cluster, sizes = np.unique(labels, return_inverse=True, return_counts=True)
    rows = np.arange(n)
    onehot = np.zeros((n, sizes.size))
    onehot[rows, cluster] = 1.0
    sums = matrix @ onehot  # each point's distance sum to each cluster
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


class Detector(ABC):
    """Common surface of all detectors.

    ``trained_version`` is the window version the model was last fitted on,
    ``-1`` when never fitted.  Scoring is side-effect free and only allowed
    on fitted models.  ``fit_partial`` needs at least ``min_samples``
    training samples.
    """

    name = "detector"
    min_samples = 1

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

    def __init__(self, threshold: float = 1.5, seed: int = 0):
        super().__init__()
        _warn_range("kmeans threshold", threshold, 1.5, 2.5)
        self.threshold = float(threshold)
        self.seed = int(seed)
        self.chosen_k = 0
        self.clusters: tuple[Cluster, ...] = ()

    def fit_partial(self, minutes: Sequence[float], version: int = 0) -> "CircularKMeans":
        hours = minutes_to_hours(minutes)
        n = hours.size
        self._require_samples(n)
        matrix = _circ_dist(hours[:, None], hours[None, :])
        best_k, best_score, best_labels, best_centroids = 0, -math.inf, None, None
        for k in range(2, min(KMEANS_MAX_CLUSTERS, n - 1) + 1):
            labels, centroids = self._lloyd(hours, k)
            if len(set(labels.tolist())) < 2:
                score = -math.inf  # collapsed clustering, never preferred
            else:
                score = _silhouette_from_matrix(matrix, labels)
            if best_labels is None or score > best_score:
                best_k, best_score, best_labels, best_centroids = k, score, labels, centroids
        fitted = copy.copy(self)
        fitted.chosen_k = best_k
        fitted.clusters = self._summarise(hours, best_labels, best_centroids)
        fitted.trained_version = version
        return fitted

    def score_partial(self, minute: float, event_id: str | None = None) -> Score:
        self._require_trained()
        hour = float(minutes_to_hours([minute])[0])
        z = math.inf
        for cluster in self.clusters:
            d = circ_distance(hour, cluster.centroid)
            z = min(z, d / max(cluster.sigma, SIGMA_FLOOR))
        return Score(int(z > self.threshold), z)

    def _lloyd(self, hours: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng([self.seed, k])
        centroids = self._seed_centroids(hours, k, rng)
        n = hours.size
        labels = np.zeros(n, dtype=int)
        for _ in range(LLOYD_MAX_ITER):
            dist = _circ_dist(hours[:, None], centroids[None, :])
            labels = dist.argmin(axis=1)
            new_centroids = centroids.copy()
            used: set[int] = set()
            for j in range(k):
                members = hours[labels == j]
                if members.size:
                    new_centroids[j] = circular_mean(members)
                else:
                    # Re-seed an empty cluster on the point farthest from
                    # its current centroid (distinct point per cluster).
                    own = dist[np.arange(n), labels]
                    for idx in np.argsort(-own):
                        if int(idx) not in used:
                            used.add(int(idx))
                            new_centroids[j] = hours[idx]
                            break
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
        while len(chosen) < k:
            d = _circ_dist(hours[:, None], hours[chosen][None, :]).min(axis=1)
            weight = d * d
            total = float(weight.sum())
            if total <= 0.0:
                chosen.append(int(rng.integers(n)))
            else:
                chosen.append(int(rng.choice(n, p=weight / total)))
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

    def __init__(self, percentile: float = 0.5):
        super().__init__()
        _warn_range("kde percentile", percentile, 0.5, 5.0)
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
        diff = query[:, None] - self.samples[None, :]
        acc = np.zeros_like(diff)
        for shift in _KDE_SHIFTS:
            z = (diff + shift) / self.bandwidth
            acc += np.exp(-0.5 * z * z)
        norm = self.samples.size * self.bandwidth * math.sqrt(2.0 * math.pi)
        return acc.sum(axis=1) / norm

    def score_partial(self, minute: float, event_id: str | None = None) -> Score:
        self._require_trained()
        hour = minutes_to_hours([minute])
        value = float(self.density(hour)[0])
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

    def __init__(self, percentile: float = 95.0, n_neighbors: int = 20):
        super().__init__()
        _warn_range("lof percentile", percentile, 75.0, 95.0)
        if n_neighbors < 1:
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

        k_distances = np.sort(matrix, axis=1)[:, fitted.k_eff - 1]
        neighbourhoods = [
            np.flatnonzero(matrix[i] <= k_distances[i] + LOF_TIE_EPS) for i in range(n)
        ]
        densities = np.empty(n)
        for i, neigh in enumerate(neighbourhoods):
            reach = np.maximum(k_distances[neigh], matrix[i, neigh])
            mean_reach = float(reach.mean())
            densities[i] = math.inf if mean_reach == 0.0 else 1.0 / mean_reach
        scores = np.empty(n)
        for i, neigh in enumerate(neighbourhoods):
            scores[i] = _lof_ratio(float(densities[neigh].mean()), float(densities[i]))
        fitted.k_distances = k_distances
        fitted.local_densities = densities
        fitted.training_scores = scores
        fitted.score_threshold = percentile(scores, self.percentile)
        fitted.trained_version = version
        return fitted

    def score_partial(self, minute: float, event_id: str | None = None) -> Score:
        self._require_trained()
        hour = float(minutes_to_hours([minute])[0])
        dist = _cosine_distances(np.array([[hour]]), self.hours[None, :])[0]
        k_dist = float(np.sort(dist)[self.k_eff - 1])
        neigh = np.flatnonzero(dist <= k_dist + LOF_TIE_EPS)
        reach = np.maximum(self.k_distances[neigh], dist[neigh])
        mean_reach = float(reach.mean())
        own_density = math.inf if mean_reach == 0.0 else 1.0 / mean_reach
        raw = _lof_ratio(float(self.local_densities[neigh].mean()), own_density)
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


def _cosine_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``1 - cos`` of the angle between hour samples, clamped at 0."""
    angles = (a - b) * (2.0 * math.pi / HOURS_PER_DAY)
    return np.maximum(1.0 - np.cos(angles), 0.0)


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

DETECTOR_TYPES: dict[str, Callable[..., Detector]] = {
    "kde": WrappedKde,
    "kmeans": CircularKMeans,
    "lof": CosineLof,
}

#: External parameter key -> constructor keyword, per detector.
_PARAM_KEYS = {
    "kde": {"kde_parameter": "percentile"},
    "kmeans": {"kmeans_parameter": "threshold", "seed": "seed"},
    "lof": {"lof_parameter": "percentile", "n_neighbors": "n_neighbors"},
}


def register_detector(name: str, factory: Callable[..., Detector]) -> None:
    """Expose an additional detector type to ``init_map``."""
    DETECTOR_TYPES[name] = factory


def init_map(
    kmeans_params: dict | None = None,
    kde_params: dict | None = None,
    lof_params: dict | None = None,
    detectors: Sequence[str] | None = None,
) -> dict[str, Detector]:
    """Build fresh detector instances keyed by name, in sorted order.

    Parameter dicts use the external configuration keys (``kde_parameter``,
    ``kmeans_parameter``, ``lof_parameter``, ``seed``, ``n_neighbors``).
    Unknown detector names or parameter keys raise ``ConfigurationError``;
    out-of-range parameter values only warn.
    """
    requested = list(detectors) if detectors is not None else list(DEFAULT_DETECTORS)
    provided = {"kde": kde_params, "kmeans": kmeans_params, "lof": lof_params}
    out: dict[str, Detector] = {}
    for name in sorted(set(requested)):
        factory = DETECTOR_TYPES.get(name)
        if factory is None:
            raise ConfigurationError(f"unknown detector {name!r}")
        kwargs: dict[str, Any] = {}
        params = provided.get(name) or {}
        key_map = _PARAM_KEYS.get(name, {})
        for key, value in params.items():
            if key not in key_map:
                raise ConfigurationError(f"unknown {name} parameter {key!r}")
            kwargs[key_map[key]] = value
        out[name] = factory(**kwargs)
    return out
