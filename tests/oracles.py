"""Independent reference implementations used to cross-check the library.

Everything here is written in plain Python on purpose: scalar math,
explicit loops, no shared code with the package under test. When a test
compares a library result against one of these functions, agreement is
evidence, not tautology.

The exception is the last section: earlier numpy formulations of the
detectors' hot paths, kept as they were.  The library's faster forms must
perform the same IEEE operations in the same order, so tests compare them
with these using ``==``; a plain-Python loop would add in another order.
"""

from __future__ import annotations

import math
from datetime import datetime

import numpy as np

from flowdetect.errors import InputError

DAY_HOURS = 24.0
TIE = 1e-12


def circular_distance(a: float, b: float) -> float:
    d = abs(a - b) % DAY_HOURS
    return min(d, DAY_HOURS - d)


def cosine_distance(a: float, b: float) -> float:
    return 1.0 - math.cos((a - b) * (2.0 * math.pi / DAY_HOURS))


def percentile_linear(values, p):
    """Linear-interpolation percentile, the classic (n-1) convention.

    An on-sample rank returns the sample itself so infinite values never
    produce ``0 * inf`` artifacts.
    """
    v = sorted(values)
    n = len(v)
    if n == 0:
        raise ValueError("empty")
    rank = p / 100.0 * (n - 1)
    lo = math.floor(rank)
    frac = rank - lo
    if frac == 0.0:
        return v[lo]
    hi = min(lo + 1, n - 1)
    return v[lo] * (1.0 - frac) + v[hi] * frac


def _ratio(num: float, den: float) -> float:
    if math.isinf(den):
        return 1.0 if math.isinf(num) else 0.0
    if den == 0.0:
        return math.inf
    return num / den


def _mean(values) -> float:
    return sum(values) / len(values)


def _lof_training_parts(hours, n_neighbors):
    n = len(hours)
    k = min(n_neighbors, n - 1)
    dist = [[cosine_distance(hours[i], hours[j]) for j in range(n)] for i in range(n)]
    kdist = []
    for i in range(n):
        others = sorted(dist[i][j] for j in range(n) if j != i)
        kdist.append(others[k - 1])
    neighbours = [
        [j for j in range(n) if j != i and dist[i][j] <= kdist[i] + TIE]
        for i in range(n)
    ]
    lrd = []
    for i in range(n):
        reach = [max(kdist[j], dist[i][j]) for j in neighbours[i]]
        mean_reach = _mean(reach)
        lrd.append(math.inf if mean_reach == 0.0 else 1.0 / mean_reach)
    return k, dist, kdist, neighbours, lrd


def lof_training_scores(minutes, n_neighbors):
    """Brute-force LOF of every training point against the rest."""
    hours = [m / 60.0 for m in minutes]
    _, _, _, neighbours, lrd = _lof_training_parts(hours, n_neighbors)
    out = []
    for i in range(len(hours)):
        out.append(_ratio(_mean([lrd[j] for j in neighbours[i]]), lrd[i]))
    return out


def lof_novelty_score(minutes, n_neighbors, query_minute):
    """LOF of a query point measured against the training set only."""
    hours = [m / 60.0 for m in minutes]
    k, _, kdist, _, lrd = _lof_training_parts(hours, n_neighbors)
    q = query_minute / 60.0
    dq = [cosine_distance(q, h) for h in hours]
    kq = sorted(dq)[k - 1]
    neigh = [j for j in range(len(hours)) if dq[j] <= kq + TIE]
    reach = [max(kdist[j], dq[j]) for j in neigh]
    mean_reach = _mean(reach)
    lrd_q = math.inf if mean_reach == 0.0 else 1.0 / mean_reach
    return _ratio(_mean([lrd[j] for j in neigh]), lrd_q)


def wrapped_density(train_hours, bandwidth, x):
    """Gaussian KDE on the 24h circle, three-copy wrapping, scalar loops."""
    total = 0.0
    for h in train_hours:
        for shift in (-DAY_HOURS, 0.0, DAY_HOURS):
            z = (x - h + shift) / bandwidth
            total += math.exp(-0.5 * z * z)
    return total / (len(train_hours) * bandwidth * math.sqrt(2.0 * math.pi))


def integrate_day(fn, nodes: int = 4800) -> float:
    """Riemann sum over one day; exact enough for periodic integrands."""
    step = DAY_HOURS / nodes
    return sum(fn(i * step) for i in range(nodes)) * step


def majority_rule(binaries) -> bool:
    """Alert rule restated from scratch: strict majority of votes cast."""
    ones = sum(1 for b in binaries if b == 1)
    return ones > len(binaries) // 2


def silhouette(hours, labels):
    """Mean silhouette (Rousseeuw 1987) under the circular distance.

    Point by point: ``a`` is the mean distance to the rest of its own
    cluster, ``b`` the smallest mean distance to another cluster.  A
    singleton scores 0, and so does a point with ``a = b = 0``.
    """
    n = len(hours)
    total = 0.0
    for i in range(n):
        own = [j for j in range(n) if labels[j] == labels[i] and j != i]
        if not own:
            continue
        a = _mean([circular_distance(hours[i], hours[j]) for j in own])
        b = min(
            _mean([circular_distance(hours[i], hours[j]) for j in range(n) if labels[j] == other])
            for other in set(labels) - {labels[i]}
        )
        if max(a, b) > 0.0:
            total += (b - a) / max(a, b)
    return total / n


def parse_timestamp(text, date_format="%m/%d/%Y %H:%M:%S"):
    """Timestamp parsing restated: ``strptime``, then ISO-8601, else ``InputError``."""
    try:
        return datetime.strptime(text, date_format)
    except ValueError:
        pass
    try:
        return datetime.fromisoformat(text)
    except ValueError:
        raise InputError(f"cannot parse timestamp {text!r}") from None


# ---------------------------------------------------------------------------
# Earlier numpy formulations, for bit-exact comparisons
# ---------------------------------------------------------------------------

RADIANS_PER_HOUR = 2.0 * math.pi / DAY_HOURS


def circ_dist_array(a, b):
    d = np.abs(a - b)
    return np.minimum(d, DAY_HOURS - d)


def circular_mean_masked(members):
    """Circular mean of one cluster's members, summed as its own array."""
    arr = np.asarray(members, dtype=float)
    angles = arr * RADIANS_PER_HOUR
    x = float(np.cos(angles).sum())
    y = float(np.sin(angles).sum())
    if math.hypot(x, y) < 1e-12:
        return float(arr[0])
    hour = math.atan2(y, x) * (DAY_HOURS / (2.0 * math.pi))
    return hour % DAY_HOURS


def seed_centroids_recomputed(hours, k, rng):
    """k-means++ seeding, measuring against every chosen centroid each round."""
    n = hours.size
    chosen = [int(rng.integers(n))]
    while len(chosen) < k:
        d = circ_dist_array(hours[:, None], hours[chosen][None, :]).min(axis=1)
        weight = d * d
        total = float(weight.sum())
        if total <= 0.0:
            chosen.append(int(rng.integers(n)))
        else:
            chosen.append(int(rng.choice(n, p=weight / total)))
    return hours[chosen].astype(float)


def lloyd_masked(hours, k, seed, max_iter=100, tol=1e-6):
    """Circular Lloyd iterations with one masked mean per cluster.

    Returns the labels, the centroids and how many empty clusters were
    re-seeded on the way.
    """
    rng = np.random.default_rng([seed, k])
    centroids = seed_centroids_recomputed(hours, k, rng)
    n = hours.size
    reseeds = 0
    for _ in range(max_iter):
        dist = circ_dist_array(hours[:, None], centroids[None, :])
        labels = dist.argmin(axis=1)
        new_centroids = centroids.copy()
        used = set()
        for j in range(k):
            members = hours[labels == j]
            if members.size:
                new_centroids[j] = circular_mean_masked(members)
            else:
                reseeds += 1
                own = dist[np.arange(n), labels]
                for idx in np.argsort(-own):
                    if int(idx) not in used:
                        used.add(int(idx))
                        new_centroids[j] = hours[idx]
                        break
        shift = float(circ_dist_array(centroids, new_centroids).max())
        centroids = new_centroids
        if shift < tol:
            break
    labels = circ_dist_array(hours[:, None], centroids[None, :]).argmin(axis=1)
    return labels, centroids, reseeds


def cosine_distances_array(a, b):
    angles = (a - b) * RADIANS_PER_HOUR
    return np.maximum(1.0 - np.cos(angles), 0.0)


def lof_fit_sorted(hours, n_neighbors):
    """LOF training parts with sorted k-distances and ``ndarray.mean``.

    Returns the k-distances, the local densities and the training scores.
    """
    n = hours.size
    k = min(n_neighbors, n - 1)
    matrix = cosine_distances_array(hours[:, None], hours[None, :])
    np.fill_diagonal(matrix, np.inf)
    k_distances = np.sort(matrix, axis=1)[:, k - 1]
    neighbourhoods = [np.flatnonzero(matrix[i] <= k_distances[i] + TIE) for i in range(n)]
    densities = np.empty(n)
    for i, neigh in enumerate(neighbourhoods):
        mean_reach = float(np.maximum(k_distances[neigh], matrix[i, neigh]).mean())
        densities[i] = math.inf if mean_reach == 0.0 else 1.0 / mean_reach
    scores = np.empty(n)
    for i, neigh in enumerate(neighbourhoods):
        scores[i] = _ratio(float(densities[neigh].mean()), float(densities[i]))
    return k_distances, densities, scores


def lof_score_sorted(hours, k, k_distances, densities, hour):
    """LOF of one query hour, with a sorted k-distance and ``ndarray.mean``."""
    dist = cosine_distances_array(np.array([[hour]]), hours[None, :])[0]
    k_dist = float(np.sort(dist)[k - 1])
    neigh = np.flatnonzero(dist <= k_dist + TIE)
    mean_reach = float(np.maximum(k_distances[neigh], dist[neigh]).mean())
    own = math.inf if mean_reach == 0.0 else 1.0 / mean_reach
    return _ratio(float(densities[neigh].mean()), own)


def kde_density_per_shift(samples, bandwidth, query):
    """Wrapped KDE at each query hour, one array pass per shift."""
    diff = query[:, None] - samples[None, :]
    acc = np.zeros_like(diff)
    for shift in (-DAY_HOURS, 0.0, DAY_HOURS):
        z = (diff + shift) / bandwidth
        acc += np.exp(-0.5 * z * z)
    norm = samples.size * bandwidth * math.sqrt(2.0 * math.pi)
    return acc.sum(axis=1) / norm
