"""Independent reference implementations used to cross-check the library.

Everything here is written in plain Python on purpose: scalar math,
explicit loops, no shared code with the package under test. When a test
compares a library result against one of these functions, agreement is
evidence, not tautology.
"""

from __future__ import annotations

import math

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
