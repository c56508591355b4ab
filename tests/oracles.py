"""Independent reference implementations used to cross-check the library.

Everything here is written in plain Python on purpose: scalar math,
explicit loops, no shared code with the package under test. When a test
compares a library result against one of these functions, agreement is
evidence, not tautology.

The exceptions are the last four sections.  One holds earlier numpy
formulations of the detectors' hot paths, kept as they were.  The library's
faster forms must perform the same IEEE operations in the same order, so
tests compare them with these using ``==``; a plain-Python loop would add in
another order.  The next holds the detectors' scores and the default-layout
timestamp reading as they were, for the same ``==`` comparisons.  The next
holds the loaders that ``load_labels`` and
``load_scores`` replaced, whose results and messages they must keep.  The
last is the detection pipeline as a plain loop over the package's own
windows, detectors and vote: it checks how the machine tree assembles them,
so it shares the parts and none of the assembly.
"""

from __future__ import annotations

import csv
import json
import math
import re
from datetime import datetime

import numpy as np

from flowdetect.errors import InputError, NotFittedError

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


def kde_kernel_table(bandwidth):
    """The wrapped kernel at each signed minute gap -1439..1439, as a list.

    One ``math.exp`` per distance 0..2879; entry ``g + 1439`` adds the
    copies at ``g - 1440``, ``g`` and ``g + 1440``, in that order.
    """
    gaussian = []
    for x in range(2880):
        z = x / (60.0 * bandwidth)
        gaussian.append(math.exp(-0.5 * z * z))
    return [
        gaussian[abs(g - 1440)] + gaussian[abs(g)] + gaussian[abs(g + 1440)]
        for g in range(-1439, 1440)
    ]


def kde_kernel_table_every_exp(bandwidth):
    """``detectors._kernel_table`` as it was with one ``math.exp`` per
    distance, including those that can only underflow to 0.0."""
    z = np.arange(2880) / (60.0 * bandwidth)
    e = np.fromiter(map(math.exp, ((-0.5 * z) * z).tolist()), float, 2880)
    centre = np.concatenate((e[1439:0:-1], e[:1440]))
    return (e[:0:-1] + centre) + e[1:]


def kde_table_densities(minutes, bandwidth, table, queries):
    """The KDE from ``table`` at each whole query minute.

    One term per distinct training minute, ascending, weighted by its count,
    and the terms added in numpy's pairwise order.
    """
    counts = {}
    for minute in minutes:
        counts[int(minute)] = counts.get(int(minute), 0) + 1
    norm = len(minutes) * bandwidth * math.sqrt(2.0 * math.pi)
    return [
        pairwise_sum([table[q - u + 1439] * counts[u] for u in sorted(counts)]) / norm
        for q in queries
    ]


def kde_table_threshold(minutes, bandwidth, table, p):
    """The ``p`` percentile of the training minutes' table densities."""
    distinct = sorted(set(minutes))
    density = dict(zip(distinct, kde_table_densities(minutes, bandwidth, table, distinct)))
    return percentile_linear([density[u] for u in minutes], p)


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


def pairwise_sum(values):
    """numpy's pairwise summation of a 1-D contiguous run, restated in Python.

    Fewer than 8 values are added one by one from 0.0; up to 128 go into
    eight interleaved accumulators, combined as
    ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))``, with the
    remaining values added one by one; a longer run is the sum of two halves,
    the first rounded down to a multiple of 8.
    """
    n = len(values)
    if n < 8:
        total = 0.0
        for value in values:
            total += value
        return total
    if n <= 128:
        r = list(values[:8])
        i = 8
        while i < n - n % 8:
            for lane in range(8):
                r[lane] += values[i + lane]
            i += 8
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for value in values[i:]:
            total += value
        return total
    half = n // 2
    half -= half % 8
    return pairwise_sum(values[:half]) + pairwise_sum(values[half:])


def mean_direction(x, y, first):
    if math.hypot(x, y) < 1e-12:
        return float(first)
    hour = math.atan2(y, x) * (DAY_HOURS / (2.0 * math.pi))
    return hour % DAY_HOURS


def seed_centroids_running_min(hours, k, rng):
    """k-means++ seeding with a running minimum, drawing with ``Generator.choice``."""
    n = hours.size
    chosen = [int(rng.integers(n))]
    nearest = circ_dist_array(hours, hours[chosen[0]])
    while len(chosen) < k:
        weight = nearest * nearest
        total = float(weight.sum())
        if total <= 0.0:
            chosen.append(int(rng.integers(n)))
        else:
            chosen.append(int(rng.choice(n, p=weight / total)))
        nearest = np.minimum(nearest, circ_dist_array(hours, hours[chosen[-1]]))
    return hours[chosen].astype(float)


def lloyd_grouped(hours, unit, k, seed, max_iter=100, tol=1e-6):
    """Circular Lloyd iterations for one k, members grouped by one stable sort.

    ``unit`` holds the cosine and sine arrays of the sample angles.  Each
    cluster is summed as one 1-D contiguous ``np.add.reduce`` pair, and the
    run stops early when the labels equal those the centroids were rebuilt
    from and no cluster was re-seeded.
    """
    rng = np.random.default_rng([seed, k])
    centroids = seed_centroids_running_min(hours, k, rng)
    n = hours.size
    cos_h, sin_h = unit
    rebuilt_from = None
    for _ in range(max_iter):
        dist = circ_dist_array(hours[:, None], centroids[None, :])
        labels = dist.argmin(axis=1)
        if rebuilt_from is not None and np.array_equal(labels, rebuilt_from):
            return labels, centroids
        order = np.argsort(labels, kind="stable")
        cos_g, sin_g = cos_h[order], sin_h[order]
        new_centroids = centroids.copy()
        used = set()
        start = 0
        for j, end in enumerate(np.cumsum(np.bincount(labels, minlength=k)).tolist()):
            if end > start:
                new_centroids[j] = mean_direction(
                    float(np.add.reduce(cos_g[start:end])),
                    float(np.add.reduce(sin_g[start:end])),
                    hours[order[start]],
                )
            else:
                own = dist[np.arange(n), labels]
                for idx in np.argsort(-own):
                    if int(idx) not in used:
                        used.add(int(idx))
                        new_centroids[j] = hours[idx]
                        break
            start = end
        rebuilt_from = None if used else labels
        shift = float(circ_dist_array(centroids, new_centroids).max())
        centroids = new_centroids
        if shift < tol:
            break
    labels = circ_dist_array(hours[:, None], centroids[None, :]).argmin(axis=1)
    return labels, centroids


def _silhouette_of_sums(sums, cluster, sizes):
    n = sums.shape[0]
    rows = np.arange(n)
    own_size = sizes[cluster]
    a = sums[rows, cluster] / np.maximum(own_size - 1, 1)
    means = sums / sizes
    means[rows, cluster] = math.inf
    b = means.min(axis=1)
    denom = np.maximum(a, b)
    keep = (own_size > 1) & (denom > 0)
    s = np.divide(b - a, denom, out=np.zeros(n), where=keep)
    return float(np.cumsum(s)[-1]) / n


def _summarise_clusters(hours, labels, centroids):
    raw = []
    for j, centroid in enumerate(centroids):
        members = hours[labels == j]
        if members.size == 0:
            continue
        centre = float(centroid)
        spread = float(np.sqrt(np.mean(circ_dist_array(members, centre) ** 2)))
        raw.append((centre, spread, int(members.size)))
    merged = []
    for centre, spread, size in sorted(raw):
        if merged and circ_dist_array(np.array(centre), np.array(merged[-1][0])) <= 1e-12:
            prev_centre, prev_spread, prev_size = merged[-1]
            total = prev_size + size
            sigma = math.sqrt((prev_size * prev_spread**2 + size * spread**2) / total)
            merged[-1] = (prev_centre, sigma, total)
        else:
            merged.append((centre, spread, size))
    return merged


def minute_distance_matrix(minutes):
    """The n x n circular distances between samples, in whole minutes."""
    whole = np.asarray(minutes, dtype=float)
    gaps = np.abs(whole[:, None] - whole[None, :])
    return np.minimum(gaps, 1440 - gaps)


def silhouette_full_matrix(matrix, labels):
    """The fit's silhouette of ``labels``, from each sample's distance sums
    over the n x n matrix of minute distances; -inf for fewer than two
    clusters."""
    n = labels.size
    counts = np.bincount(labels)
    present = counts > 0
    if np.count_nonzero(present) < 2:
        return -math.inf
    cluster = (np.cumsum(present) - 1)[labels]
    sizes = counts[present]
    onehot = np.zeros((n, sizes.size))
    onehot[np.arange(n), cluster] = 1.0
    return _silhouette_of_sums((matrix @ onehot) / 60.0, cluster, sizes)


def kmeans_fit_per_k(minutes, seed):
    """The whole circular k-means fit, one Lloyd run per k after another.

    Returns the chosen k and each cluster as ``(centroid, sigma, size)``.
    """
    hours = np.asarray(minutes, dtype=float) / 60.0
    n = hours.size
    matrix = minute_distance_matrix(minutes)
    angles = hours * RADIANS_PER_HOUR
    unit = (np.cos(angles), np.sin(angles))
    best_k, best_score, best_labels, best_centroids = 0, -math.inf, None, None
    for k in range(2, min(10, n - 1) + 1):
        labels, centroids = lloyd_grouped(hours, unit, k, seed)
        score = silhouette_full_matrix(matrix, labels)
        if best_labels is None or score > best_score:
            best_k, best_score, best_labels, best_centroids = k, score, labels, centroids
    return best_k, _summarise_clusters(hours, best_labels, best_centroids)


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


# ---------------------------------------------------------------------------
# The replaced scores and timestamp reading, for exact comparisons
# ---------------------------------------------------------------------------

SIGMA_FLOOR = 0.25
MINUTES_ERROR = "minutes of day must be whole numbers in [0, 1440)"


def _scored_hour(model, minute):
    """The fitted check, then ``minute`` as an hour, as the scores made them."""
    if not model.is_trained:
        raise NotFittedError(f"{model.name} detector scored before fitting")
    if not 0 <= minute < 1440 or minute % 1:
        raise ValueError(MINUTES_ERROR)
    return int(minute) / 60.0


def _circ_distance_checked(a, b):
    """``circ_distance`` as the k-means score called it, range check included."""
    if not (0.0 <= a < DAY_HOURS and 0.0 <= b < DAY_HOURS):
        raise ValueError(f"hours must be in [0, 24): got {a}, {b}")
    if a < b:
        return min(b - a, a - b + DAY_HOURS)
    return min(a - b, b - a + DAY_HOURS)


def kmeans_score_reference(model, minute):
    """``CircularKMeans.score_partial`` as it was, as ``(binary, raw)``."""
    hour = _scored_hour(model, minute)
    z = math.inf
    for cluster in model.clusters:
        d = _circ_distance_checked(hour, cluster.centroid)
        z = min(z, d / max(cluster.sigma, SIGMA_FLOOR))
    return int(z > model.threshold), z


def kde_score_reference(model, minute):
    """``WrappedKde.score_partial`` as it was, as ``(binary, raw)``."""
    _scored_hour(model, minute)
    value = model.densities.item(int(minute))
    return int(value < model.density_threshold), model.density_threshold - value


def _lof_mean(values):
    return float(np.add.reduce(values)) / values.size


def lof_score_reference(model, minute):
    """``CosineLof.score_partial`` as it was, as ``(binary, raw)``: a fresh
    array per operation, a boolean mask per gather, and one sum per row."""
    hour = _scored_hour(model, minute)
    dist = cosine_distances_array(hour, model.hours)
    kth = model.k_eff - 1
    near = dist <= np.partition(dist, kth)[kth] + TIE
    mean_reach = _lof_mean(np.maximum(model.k_distances[near], dist[near]))
    own_density = math.inf if mean_reach == 0.0 else 1.0 / mean_reach
    raw = _ratio(_lof_mean(model.local_densities[near]), own_density)
    return int(raw > model.score_threshold), raw


def parse_timestamp_fields(text, date_format="%m/%d/%Y %H:%M:%S"):
    """``windowing.parse_timestamp`` as it was: the default layout read field
    by field into the ``datetime`` constructor, then ``strptime``, then ISO."""
    if not isinstance(text, str):
        raise InputError(f"timestamp {text!r} is not text")
    if date_format == "%m/%d/%Y %H:%M:%S":
        fields = re.fullmatch(r"(\d\d)/(\d\d)/(\d{4}) (\d\d):(\d\d):(\d\d)", text, re.ASCII)
        if fields is not None:
            month, day, year, hour, minute, second = map(int, fields.groups())
            try:
                return datetime(year, month, day, hour, minute, second)
            except ValueError:
                pass
    return parse_timestamp(text, date_format)


# ---------------------------------------------------------------------------
# The replaced loaders, for exact comparisons
# ---------------------------------------------------------------------------


def load_labels_dictreader(path: str) -> dict[str, int]:
    """``load_labels`` as it was: one ``csv.DictReader`` dict per row."""
    labels: dict[str, int] = {}
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        try:
            if reader.fieldnames is None or not {"id", "label"} <= set(reader.fieldnames):
                raise InputError(f"{path}: expected columns id,label")
            for row in reader:
                event_id, label = row["id"], row["label"]
                if label not in ("0", "1"):
                    raise InputError(f"{path}:{reader.line_num}: label must be 0 or 1, got {label!r}")
                if event_id in labels:
                    raise InputError(f"{path}:{reader.line_num}: id {event_id!r} is labelled twice")
                labels[event_id] = int(label)
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not valid UTF-8: {exc}") from None
    return labels


def load_scores_decode(path: str) -> list:
    """``load_scores`` as it was: one ``JSONDecoder.decode`` call per line."""
    decode = json.JSONDecoder().decode
    records = []
    with open(path, encoding="utf-8-sig") as handle:
        try:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(decode(line))
                except json.JSONDecodeError as exc:
                    if line[0] == "\ufeff":
                        exc = json.JSONDecodeError(
                            "Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0
                        )
                    raise InputError(f"{path}:{lineno}: not valid JSON: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not valid UTF-8: {exc}") from None
    return records


# ---------------------------------------------------------------------------
# The pipeline as a plain loop
# ---------------------------------------------------------------------------


def pipeline_plain(config, events) -> dict:
    """What ``Pipeline`` computes for ``events``, written as one loop.

    Per event: parse the date (an unparseable one is counted and skipped);
    then, for each detector in name order, retrain it when its user's window
    has a version it has not seen and at least ``min_training_instances``
    samples, and score the event with it once it has ever been trained;
    vote over the detectors that scored; fold the event into the window
    last.  Each user has a window and a detector map of its own.  Returns
    the score records (``ScoredEvent.to_record`` dicts), the counters and
    each user's detectors' ``trained_version``.
    """
    # Imported here: this module has a ``parse_timestamp`` of its own.
    from flowdetect.detectors import init_map
    from flowdetect.ensemble import majority_vote
    from flowdetect.windowing import Window, formatting_data, parse_timestamp, training_set

    users: dict = {}
    records = []
    retrains = skipped_dates = 0
    for event in events:
        user, text, event_id = event.args
        try:
            when = parse_timestamp(text, config.date_format)
        except InputError:
            skipped_dates += 1
            continue
        if user not in users:
            users[user] = (Window(config.window), init_map(config.detectors))
        window, detectors = users[user]
        minute = when.hour * 60 + when.minute
        cast = []
        for name in sorted(detectors):
            detector = detectors[name]
            held = sum(len(minutes) for minutes in window.samples.values())
            if (
                window.version >= 1
                and window.version > detector.trained_version
                and held >= config.min_training_instances
            ):
                detector = detector.fit_partial(training_set(window), version=window.version)
                detectors[name] = detector
                retrains += 1
            if detector.is_trained:
                cast.append((name, detector.score_partial(minute)))
        if cast:
            records.append({
                "eventId": event_id,
                "userId": user,
                "eventDate": text,
                "votes": sum(score.binary for _, score in cast),
                "cast": len(cast),
                "alert": bool(majority_vote(cast)),
                "detectors": {
                    name: {"raw": score.raw, "binary": score.binary} for name, score in cast
                },
            })
        formatting_data(window, when)
    return {
        "records": records,
        "retrains": retrains,
        "skipped_dates": skipped_dates,
        "stale_drops": sum(window.stale_drops for window, _ in users.values()),
        "trained": {
            user: {name: d.trained_version for name, d in detectors.items()}
            for user, (_, detectors) in users.items()
        },
    }
