"""Detector behaviour against hand-computed and independently derived values."""

from __future__ import annotations

import copy
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from flowdetect import detectors as detectors_module
from flowdetect.detectors import (
    BANDWIDTH_FLOOR,
    DEFAULT_DETECTORS,
    DETECTOR_TYPES,
    SIGMA_FLOOR,
    CircularKMeans,
    Cluster,
    CosineLof,
    Score,
    WrappedKde,
    _kernel_table,
    _silhouettes,
    _weighted_draws,
    circ_distance,
    circular_mean,
    init_map,
    minutes_to_hours,
    percentile,
    silhouette,
)
from flowdetect.errors import ConfigurationError, NotEnoughDataError, NotFittedError

hours_strategy = st.floats(min_value=0.0, max_value=23.999999, allow_nan=False)


# ---------------------------------------------------------------- circle maths

def test_circ_distance_frozen_values():
    assert circ_distance(2.0, 23.0) == 3.0
    assert circ_distance(23.0, 2.0) == 3.0
    assert circ_distance(0.0, 12.0) == 12.0
    assert circ_distance(6.0, 6.0) == 0.0
    assert circ_distance(0.25, 23.75) == pytest.approx(0.5)


def test_circ_distance_rejects_out_of_range():
    with pytest.raises(ValueError):
        circ_distance(24.0, 1.0)
    with pytest.raises(ValueError):
        circ_distance(1.0, -0.1)


@given(a=hours_strategy, b=hours_strategy)
def test_circ_distance_symmetric_and_bounded(a, b):
    d = circ_distance(a, b)
    assert d == circ_distance(b, a)
    assert 0.0 <= d <= 12.0
    assert circ_distance(a, a) == 0.0


@settings(max_examples=300)
@given(a=hours_strategy, b=hours_strategy, c=hours_strategy)
def test_circ_distance_triangle_inequality(a, b, c):
    assert circ_distance(a, c) <= circ_distance(a, b) + circ_distance(b, c) + 1e-9


def test_circular_mean_wraps_midnight():
    # symmetric straddle of midnight averages to 0, not to roughly 12
    got = circular_mean([23.5, 23.8, 0.2, 0.5])
    assert min(got, 24.0 - got) < 1e-9
    assert circular_mean([23.5, 0.5]) in (pytest.approx(0.0, abs=1e-9), pytest.approx(24.0))


def test_circular_mean_degenerate_falls_back_to_first_sample():
    assert circular_mean([0.0, 12.0]) == 0.0
    assert circular_mean([6.0, 18.0]) == 6.0
    with pytest.raises(ValueError):
        circular_mean([])


def test_minutes_to_hours_range():
    assert minutes_to_hours([480, 90]).tolist() == [8.0, 1.5]
    with pytest.raises(ValueError):
        minutes_to_hours([-1])
    with pytest.raises(ValueError):
        minutes_to_hours([1440])


@pytest.mark.parametrize("cls", [CircularKMeans, WrappedKde, CosineLof])
def test_fit_and_score_take_only_whole_minutes(cls):
    # A fractional minute would void the whole-minute arithmetic each
    # detector relies on; an integral float is a whole minute.
    for bad in (480.5, 1439.999, math.nan):
        with pytest.raises(ValueError, match=r"whole numbers in \[0, 1440\)"):
            cls().fit_partial(TWO_CLUSTER_MINUTES + [bad])
    model = cls().fit_partial([float(minute) for minute in TWO_CLUSTER_MINUTES])
    assert model.score_partial(480.0) == cls().fit_partial(TWO_CLUSTER_MINUTES).score_partial(480)
    for bad in (480.5, 0.25, math.nan):
        with pytest.raises(ValueError, match=r"whole numbers in \[0, 1440\)"):
            model.score_partial(bad)


# ------------------------------------------------------------------ percentile

def test_percentile_frozen_values():
    assert percentile([0.0, 10.0], 95.0) == pytest.approx(9.5)
    assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == pytest.approx(2.5)
    assert percentile([7.0], 40.0) == 7.0
    assert percentile([3.0, 1.0, 2.0], 0.0) == 1.0
    assert percentile([3.0, 1.0, 2.0], 100.0) == 3.0


def test_percentile_errors():
    with pytest.raises(ValueError):
        percentile([], 50.0)
    with pytest.raises(ValueError):
        percentile([1.0], 101.0)


def test_percentile_handles_infinite_values():
    inf = math.inf
    assert percentile([1.0, inf, inf, inf], 95.0) == inf
    assert percentile([1.0, inf], 50.0) == inf
    # rank exactly on a finite sample must return it, never NaN
    assert percentile([1.0, inf], 0.0) == 1.0
    assert percentile([1.0, 2.0, inf], 50.0) == 2.0
    assert percentile([1.0, 2.0, inf], 100.0) == inf


@settings(max_examples=150)
@given(
    values=st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=40),
    p=st.floats(0.0, 100.0, allow_nan=False),
)
def test_percentile_matches_reference_formula(values, p):
    assert percentile(values, p) == pytest.approx(oracles.percentile_linear(values, p), abs=1e-7)


# ------------------------------------------------------------------ silhouette

def test_silhouette_hand_fixture():
    # two pairs 0.2h wide, 14h apart on the circle (so 10h the short way)
    got = silhouette([8.0, 8.2, 22.0, 22.2], [0, 0, 1, 1])
    expected = ((9.9 - 0.2) / 9.9 + (10.1 - 0.2) / 10.1) / 2.0
    assert got == pytest.approx(expected, abs=1e-12)


def test_silhouette_singletons_contribute_zero():
    assert silhouette([8.0, 9.0], [0, 1]) == 0.0


def test_silhouette_needs_two_clusters():
    with pytest.raises(ValueError):
        silhouette([8.0, 9.0], [0, 0])


def test_silhouette_matches_oracle():
    rng = np.random.default_rng(1987)
    cases = 0
    for trial in range(300):
        n = int(rng.integers(2, 40))
        # A coarse grid makes coincident points (a = b = 0) common.
        grid = rng.choice([0.5, 2.0, 0.0])
        hours = rng.uniform(0.0, 24.0, n)
        if grid:
            hours = np.floor(hours / grid) * grid
        # Non-contiguous label values; small clusters give singletons.
        values = rng.choice([-7, 0, 3, 10, 42], size=int(rng.integers(2, 6)), replace=False)
        labels = rng.choice(values, n).tolist()
        if len(set(labels)) < 2:
            continue
        got = silhouette(hours, labels)
        assert got == pytest.approx(oracles.silhouette(hours.tolist(), labels), abs=1e-12)
        cases += 1
    assert cases > 250


def test_silhouette_corner_cases_match_oracle():
    for hours, labels in [
        ([8.0, 8.0, 8.0, 8.0], [1, 1, 5, 5]),  # a = b = 0 everywhere
        ([3.0, 3.0, 20.0], [4, 4, 9]),  # a singleton beside a coincident pair
        ([1.0, 23.0, 12.0, 12.5, 6.0], [2, 2, 7, 7, 11]),
    ]:
        got = silhouette(hours, labels)
        assert got == pytest.approx(oracles.silhouette(hours, labels), abs=1e-12)
    assert silhouette([8.0, 8.0, 8.0, 8.0], [1, 1, 5, 5]) == 0.0


# --------------------------------------------------------------------- k-means

TWO_CLUSTER_MINUTES = [470 + 2 * i for i in range(10)] + [1310 + 2 * i for i in range(10)]


def test_kmeans_finds_two_well_separated_clusters():
    model = CircularKMeans(seed=0).fit_partial(TWO_CLUSTER_MINUTES, version=3)
    assert model.chosen_k == 2
    assert model.trained_version == 3
    centroids = sorted(c.centroid for c in model.clusters)
    assert centroids[0] == pytest.approx(479 / 60, abs=0.05)
    assert centroids[1] == pytest.approx(1319 / 60, abs=0.05)
    for cluster in model.clusters:
        assert cluster.size == 10
        assert cluster.sigma == pytest.approx(math.sqrt(33) / 60, abs=0.02)


def test_kmeans_z_score_frozen_example():
    model = CircularKMeans()
    model.clusters = (Cluster(8.0, 0.5, 10),)
    model.chosen_k = 1
    model.trained_version = 0
    score = model.score_partial(600)  # 10:00, two hours from the centroid
    assert score == Score(1, pytest.approx(4.0))
    assert model.score_partial(510).binary == 0  # 8:30 -> z = 1.0


def test_kmeans_sigma_floor():
    model = CircularKMeans()
    model.clusters = (Cluster(8.0, 0.0, 5),)
    model.chosen_k = 1
    model.trained_version = 0
    # one minute away, zero spread: z uses the floor, not a division by zero
    score = model.score_partial(481)
    assert score.raw == pytest.approx((1 / 60) / SIGMA_FLOOR, rel=1e-9)
    assert score.binary == 0


def test_kmeans_all_identical_training():
    model = CircularKMeans().fit_partial([480] * 20)
    assert len(model.clusters) == 1  # collapsed centroids merge
    assert model.clusters[0].sigma == 0.0
    assert model.clusters[0].size == 20
    assert model.score_partial(480).raw == 0.0


def test_kmeans_nearest_cluster_wins():
    model = CircularKMeans()
    model.clusters = (Cluster(8.0, 0.5, 10), Cluster(22.0, 0.5, 10))
    model.chosen_k = 2
    model.trained_version = 0
    assert model.score_partial(1290).raw == pytest.approx(1.0)  # 21:30 vs 22:00


def test_kmeans_deterministic_per_seed():
    a = CircularKMeans(seed=42).fit_partial(TWO_CLUSTER_MINUTES)
    b = CircularKMeans(seed=42).fit_partial(TWO_CLUSTER_MINUTES)
    assert a.to_debug_dict() == b.to_debug_dict()


def test_kmeans_rotation_equivariance_small():
    base = CircularKMeans(seed=1).fit_partial(TWO_CLUSTER_MINUTES)
    for offset in (60, 300, 720, 1000):
        shifted = [(m + offset) % 1440 for m in TWO_CLUSTER_MINUTES]
        rotated = CircularKMeans(seed=1).fit_partial(shifted)
        assert rotated.chosen_k == base.chosen_k
        for minute in (180, 480, 700, 1320):
            expect = base.score_partial(minute)
            got = rotated.score_partial((minute + offset) % 1440)
            assert got.binary == expect.binary
            assert got.raw == pytest.approx(expect.raw, abs=1e-6)


def test_kmeans_guards():
    with pytest.raises(NotEnoughDataError):
        CircularKMeans().fit_partial([480, 500])
    with pytest.raises(NotFittedError):
        CircularKMeans().score_partial(480)
    with pytest.warns(UserWarning):
        CircularKMeans(threshold=0.5)


def test_fit_partial_returns_new_instance():
    original = CircularKMeans(seed=0)
    fitted = original.fit_partial(TWO_CLUSTER_MINUTES, version=1)
    assert fitted is not original
    assert not original.is_trained
    assert fitted.is_trained


# ------------------------------------------------------------------------- kde

def test_kde_bandwidth_silverman_hand_fixture():
    # hours [8, 9, 10, 11]: sd = sqrt(1.25), IQR = 1.5
    model = WrappedKde().fit_partial([480, 540, 600, 660])
    expected = 0.9 * min(math.sqrt(1.25), 1.5 / 1.34) * 4 ** (-0.2)
    assert model.bandwidth == pytest.approx(expected, abs=1e-12)


def test_kde_bandwidth_floor_on_identical_samples():
    model = WrappedKde().fit_partial([480] * 10)
    assert model.bandwidth == BANDWIDTH_FLOOR


def test_kde_density_matches_scalar_reference():
    # Far in the tail the reference's own rounding of each gap in hours
    # reaches about 1e-12 relative; densities below 1e-200 are compared in
    # absolute terms.
    before_midnight = [1420 + i for i in range(20)]  # 23:40 to 23:59
    spread = np.random.default_rng(5).integers(0, 1440, 40).tolist()
    for minutes in (before_midnight, spread, [480, 540, 600, 660]):
        model = WrappedKde().fit_partial(minutes)
        hours = [m / 60.0 for m in minutes]
        expected = [oracles.wrapped_density(hours, model.bandwidth, q / 60.0) for q in range(1440)]
        np.testing.assert_allclose(model.densities, expected, rtol=1e-12, atol=1e-200)
    # mass wraps across midnight instead of leaking away
    model = WrappedKde().fit_partial(before_midnight)
    assert model.densities[0] > 1000 * model.densities[720]


def test_kde_density_integrates_to_one():
    rng = np.random.default_rng(7)
    minutes = np.concatenate([
        rng.normal(540, 45, 30),
        rng.normal(1200, 30, 10),
    ]).clip(0, 1439).astype(int)
    model = WrappedKde().fit_partial(minutes.tolist())
    # A periodic trapezoid over the whole minutes: one node per minute,
    # each 1/60 h wide.
    integral = float(model.densities.sum()) / 60.0
    assert integral == pytest.approx(1.0, abs=1e-3)


def test_kde_threshold_is_low_quantile_of_training_density():
    rng = np.random.default_rng(3)
    minutes = rng.normal(600, 60, 50).clip(0, 1439).astype(int).tolist()
    model = WrappedKde(percentile=5.0).fit_partial(minutes)
    below = np.count_nonzero(model.densities[minutes] < model.density_threshold)
    assert below / 50 <= 0.05 + 1 / 50


def test_a_fitted_kde_holds_only_its_whole_minute_densities():
    minutes = np.random.default_rng(2001).choice([480, 485, 540, 1020], 5000).tolist()
    model = WrappedKde().fit_partial(minutes)
    arrays = [name for name, value in vars(model).items() if isinstance(value, np.ndarray)]
    assert arrays == ["densities"]
    assert model.densities.shape == (1440,)
    with pytest.raises(ValueError):
        model.densities[0] = 0.0
    assert model.to_debug_dict()["n_samples"] == 5000


def test_an_unfitted_detector_holds_no_array():
    models = init_map()
    for name, model in models.items():
        assert not [key for key, value in vars(model).items() if isinstance(value, np.ndarray)], name
    kde, lof = models["kde"], models["lof"]
    assert kde.densities == ()
    assert (lof.hours, lof.k_distances, lof.local_densities, lof.training_scores) == ((),) * 4
    assert kde.to_debug_dict()["n_samples"] == lof.to_debug_dict()["n_samples"] == 0


def test_kde_scoring_splits_on_threshold():
    model = WrappedKde().fit_partial([475 + i for i in range(30)])  # ~8:00 block
    night = model.score_partial(180)
    assert night.binary == 1
    assert night.raw > 0
    modal = model.score_partial(490)
    assert modal.binary == 0
    assert modal.raw <= 0


def test_kde_guards():
    with pytest.raises(NotEnoughDataError):
        WrappedKde().fit_partial([480])
    with pytest.raises(NotFittedError):
        WrappedKde().score_partial(480)
    with pytest.warns(UserWarning):
        WrappedKde(percentile=50.0)


# ------------------------------------------------------------------------- lof

def test_lof_uniform_grid_scores_near_one():
    model = CosineLof().fit_partial([i * 60 for i in range(24)])
    assert model.k_eff == 20
    assert np.all(model.training_scores >= 0.8)
    assert np.all(model.training_scores <= 1.2)
    requery = model.score_partial(300)  # a training point, scored as novelty
    assert requery.raw == pytest.approx(1.0, abs=1e-9)


def test_lof_identical_training_conventions():
    # all-duplicate training: densities are infinite, ratios resolve to 1
    model = CosineLof().fit_partial([480] * 6)
    assert model.training_scores.tolist() == [1.0] * 6
    assert model.score_threshold == 1.0
    assert model.score_partial(480) == Score(0, 1.0)
    far = model.score_partial(600)
    assert far.binary == 1
    assert math.isinf(far.raw)


def test_lof_outlier_flagged_against_tight_cluster():
    minutes = [480 + i for i in range(30)]
    model = CosineLof(n_neighbors=5).fit_partial(minutes)
    assert model.score_partial(180).binary == 1  # 03:00
    assert model.score_partial(495).binary == 0  # inside the cluster


def test_lof_caps_neighbourhood_at_n_minus_one():
    model = CosineLof(n_neighbors=20).fit_partial([100, 200, 300, 400, 500])
    assert model.k_eff == 4


def test_min_samples_is_the_fewest_samples_each_detector_fits():
    for cls, minimum in ((WrappedKde, 2), (CircularKMeans, 3), (CosineLof, 3)):
        assert cls.min_samples == minimum
        samples = [480 + 30 * i for i in range(minimum)]
        assert cls().fit_partial(samples).is_trained
        with pytest.raises(NotEnoughDataError, match=f"at least {minimum} samples"):
            cls().fit_partial(samples[:-1])


def test_lof_guards():
    with pytest.raises(NotEnoughDataError):
        CosineLof().fit_partial([480, 500])
    with pytest.raises(NotFittedError):
        CosineLof().score_partial(480)
    with pytest.raises(ConfigurationError):
        CosineLof(n_neighbors=0)
    with pytest.warns(UserWarning):
        CosineLof(percentile=50.0)


def test_score_partial_rejects_minutes_outside_the_day():
    for cls in (CircularKMeans, WrappedKde, CosineLof):
        model = cls().fit_partial(TWO_CLUSTER_MINUTES)
        model.score_partial(0)
        model.score_partial(1439)
        for minute in (-1, 1440):
            with pytest.raises(ValueError, match=r"\[0, 1440\)"):
                model.score_partial(minute)


# ------------------------------------------------- exactness of the hot paths
# Each fast path must reproduce its earlier formulation (kept in oracles.py)
# to the last bit, so these compare with ==, never approx.


def _minute_sets(seed: int, count: int = 300):
    """Whole-minute training sets with duplicates, each with a k in 2..10."""
    rng = np.random.default_rng(seed)
    for trial in range(count):
        n = int(rng.integers(3, 120))
        shape = trial % 3
        if shape == 0:  # anywhere in the day
            minutes = rng.integers(0, 1440, n)
        elif shape == 1:  # a few busy times of day
            centres = rng.integers(0, 1440, int(rng.integers(1, 5)))
            minutes = (rng.choice(centres, n) + rng.integers(-20, 21, n)) % 1440
        else:  # few distinct values, so clusters collapse and empty
            minutes = rng.choice(rng.integers(0, 1440, int(rng.integers(1, 6))), n)
        minutes = np.concatenate([minutes, rng.choice(minutes, int(rng.integers(0, n)))])
        rng.shuffle(minutes)
        k = int(rng.integers(2, min(10, minutes.size - 1) + 1))
        yield minutes.tolist(), k


class _RecordingRng:
    """Passes each draw through to a generator and records the state it leaves.

    A uniform draw, and ``choice`` (which makes one), record ``"draw"``;
    ``integers`` records the index too.
    """

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.draws = []

    def integers(self, n):
        index = int(self._rng.integers(n))
        self.draws.append(("integers", index, self._rng.bit_generator.state))
        return index

    def random(self):
        value = self._rng.random()
        self.draws.append(("draw", self._rng.bit_generator.state))
        return value

    def choice(self, n, p):
        index = int(self._rng.choice(n, p=p))
        self.draws.append(("draw", self._rng.bit_generator.state))
        return index


def test_running_min_seeding_matches_full_recompute():
    for trial, (minutes, k) in enumerate(_minute_sets(2007)):
        hours = np.asarray(minutes, dtype=float) / 60.0
        fast, full = _RecordingRng([trial, k]), _RecordingRng([trial, k])
        got = CircularKMeans._seed_centroids(hours, [k], [fast])[0, :k]
        want = oracles.seed_centroids_recomputed(hours, k, full)
        assert fast.draws == full.draws
        assert np.array_equal(got, want)


def test_grouped_lloyd_update_matches_masked_circular_means():
    reseeded = 0
    for trial, (minutes, k) in enumerate(_minute_sets(1982)):
        hours = np.asarray(minutes, dtype=float) / 60.0
        angles = hours * (2.0 * math.pi / 24.0)
        [(labels, centroids)] = CircularKMeans(seed=trial)._lloyd(
            hours, np.stack((np.cos(angles), np.sin(angles))), [k]
        )
        want_labels, want_centroids, reseeds = oracles.lloyd_masked(hours, k, trial)
        assert np.array_equal(labels, want_labels)
        assert np.array_equal(centroids, want_centroids)
        reseeded += reseeds > 0
        for j in range(k):
            members = hours[labels == j]
            if members.size:
                assert circular_mean(members) == oracles.circular_mean_masked(members)
    assert reseeded >= 30


def _large_minute_sets(seed: int, count: int, sizes=(130, 401)):
    """Whole-minute sets of ``sizes[0]`` to ``sizes[1] - 1`` samples; the
    default sizes make clusters of over 128 occur."""
    rng = np.random.default_rng(seed)
    for trial in range(count):
        n = int(rng.integers(*sizes))
        if trial % 2:
            centres = rng.integers(0, 1440, int(rng.integers(1, 5)))
            minutes = (rng.choice(centres, n) + rng.integers(-30, 31, n)) % 1440
        else:
            minutes = rng.integers(0, 1440, n)
        yield minutes.tolist()


def _repeated_minute_sets(seed: int, count: int):
    """Whole-minute sets in which every minute occurs at least twice."""
    rng = np.random.default_rng(seed)
    for trial in range(count):
        distinct = rng.choice(1440, int(rng.integers(2, 80)), replace=False)
        if trial % 2:  # a few busy times of day
            jitter = rng.integers(-15, 16, distinct.size)
            distinct = np.unique((rng.choice(distinct[:3], distinct.size) + jitter) % 1440)
        minutes = np.repeat(distinct, rng.integers(2, 6, distinct.size))
        rng.shuffle(minutes)
        yield minutes.tolist()


@pytest.mark.parametrize("seed", [0, 3])
def test_lockstep_fit_matches_per_k_fit(seed):
    """The lockstep fit gives the per-k fit's chosen k and clusters, to the bit.

    330 sets per seed, 660 in all, each seed with its own sets.  In 27 of
    them every minute repeats, and 3 hold more samples than a day has
    minutes, so the silhouette weighs far fewer minutes than samples.
    """
    sets = [minutes for minutes, _ in _minute_sets(1993 + seed, 270)]
    sets += list(_large_minute_sets(1993 + seed, 30))
    sets += list(_repeated_minute_sets(1993 + seed, 27))
    sets += list(_large_minute_sets(1993 + seed, 3, sizes=(1441, 2000)))
    longest = 0
    for version, minutes in enumerate(sets):
        model = CircularKMeans(seed=seed).fit_partial(minutes, version=version)
        chosen_k, clusters = oracles.kmeans_fit_per_k(minutes, seed)
        assert model.chosen_k == chosen_k
        assert [(c.centroid, c.sigma, c.size) for c in model.clusters] == clusters
        assert model.trained_version == version
        longest = max(longest, max(c.size for c in model.clusters))
    assert longest > 128


def test_silhouettes_over_distinct_minutes_match_the_full_matrix():
    """The silhouette of every clustering a fit weighs, to the bit, against
    sums over all n x n sample pairs: the terms expand back to their samples
    before the running sum."""
    for seed, minutes in enumerate(_repeated_minute_sets(1443, 60)):
        whole = np.asarray(minutes)
        hours = whole / 60.0
        angles = hours * (2.0 * math.pi / 24.0)
        ks = range(2, min(10, whole.size - 1) + 1)
        unit = np.stack((np.cos(angles), np.sin(angles)))
        runs = CircularKMeans(seed=seed)._lloyd(hours, unit, ks)
        distinct, first, samples, weights = np.unique(
            whole, return_index=True, return_inverse=True, return_counts=True
        )
        gaps = np.abs(distinct[:, None] - distinct)
        between = np.minimum(gaps, 1440 - gaps).astype(float)
        labels = np.stack([labels for labels, _ in runs])
        got = _silhouettes(between, weights.astype(float), labels[:, first], samples, 60.0)
        matrix = oracles.minute_distance_matrix(minutes)
        assert got.tolist() == [oracles.silhouette_full_matrix(matrix, row) for row in labels]


def test_kmeans_fit_of_5000_samples_peaks_at_40_mb():
    minutes = np.random.default_rng(1999).integers(0, 1440, 5000).tolist()
    tracemalloc.start()
    try:
        CircularKMeans().fit_partial(minutes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * 2**20


def test_cluster_sums_follow_numpy_pairwise_scheme():
    """Each cluster sum is one row of a C-contiguous (2, m) slice, reduced along
    the row: the additions ``np.add.reduce`` makes on a 1-D contiguous run,
    which this pins to numpy's pairwise blocking at every length up to 1,000.
    """
    rng = np.random.default_rng(1993)
    angles = rng.integers(0, 1440, 1000) * (2.0 * math.pi / 1440.0)
    unit = np.stack((np.cos(angles), np.sin(angles)))
    for m in range(1001):
        start = int(rng.integers(0, 1001 - m))
        rows = np.add.reduce(unit[:, start : start + m], axis=1).tolist()
        for row, got in zip(unit, rows):
            run = row[start : start + m].tolist()
            assert got == float(np.add.reduce(np.array(run))) == oracles.pairwise_sum(run)


def test_contiguous_fancy_gather_keeps_the_row_sums():
    rng = np.random.default_rng(1994)
    angles = rng.integers(0, 1440, 400) * (2.0 * math.pi / 1440.0)
    unit = np.stack((np.cos(angles), np.sin(angles)))
    for _ in range(200):
        member = rng.choice(400, int(rng.integers(0, 400)))
        for gathered in (unit.take(member, axis=1), np.ascontiguousarray(unit[:, member])):
            assert gathered.flags.c_contiguous
            want = [oracles.pairwise_sum(unit[row][member].tolist()) for row in (0, 1)]
            assert np.add.reduce(gathered, axis=1).tolist() == want


def test_seeding_draw_matches_generator_choice():
    """The seeding draw takes ``Generator.choice``'s own route: the same index,
    and the generator left in the same state."""
    rng = np.random.default_rng(2007)
    for trial in range(2000):
        n = int(rng.integers(1, 300))
        weight = rng.random(n) * rng.integers(0, 2, n)
        if trial % 10 == 0:
            weight = np.zeros(n)  # no weight at all: a uniform index instead
        ours, theirs = np.random.default_rng([trial, 1]), np.random.default_rng([trial, 1])
        got = int(_weighted_draws(weight[None, :], [ours])[0])
        total = float(weight.sum())
        want = int(theirs.choice(n, p=weight / total) if total > 0.0 else theirs.integers(n))
        assert got == want
        assert ours.bit_generator.state == theirs.bit_generator.state


class _FixedDraw:
    """Stands in for a generator whose next uniform draw is known."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


def test_seeding_draw_on_a_cumulative_weight_goes_right():
    """A draw equal to a cumulative weight picks the next index, as
    ``searchsorted(side="right")`` does inside ``Generator.choice``."""
    weight = np.array([0.0, 1.0, 2.0, 0.0, 3.0, 4.0])
    cdf = np.cumsum(weight / weight.sum())
    cdf /= cdf[-1]
    for value in cdf[:-1]:
        want = int(np.searchsorted(cdf, value, side="right"))
        assert _weighted_draws(weight[None, :], [_FixedDraw(float(value))])[0] == want


def test_kde_fit_memory_grows_with_the_window_not_its_square():
    minutes = np.random.default_rng(1997).integers(0, 1440, 2000).tolist()
    tracemalloc.start()
    try:
        WrappedKde().fit_partial(minutes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


def test_kde_fit_of_5000_samples_peaks_at_20_mb():
    minutes = np.random.default_rng(1998).integers(0, 1440, 5000).tolist()
    tracemalloc.start()
    try:
        WrappedKde().fit_partial(minutes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * 2**20


def _assert_lof_matches_sorted(minutes, k, queries):
    """Every part of one LOF fit, and the scores of ``queries``, against the
    sort-based formulation, with ``==``."""
    hours = np.asarray(minutes, dtype=float) / 60.0
    model = CosineLof(n_neighbors=k).fit_partial(minutes)
    k_distances, densities, scores = oracles.lof_fit_sorted(hours, k)
    assert np.array_equal(model.k_distances, k_distances)
    assert np.array_equal(model.local_densities, densities)
    assert np.array_equal(model.training_scores, scores)
    assert model.score_threshold == oracles.percentile_linear(scores.tolist(), model.percentile)
    for minute in queries:
        want = oracles.lof_score_sorted(hours, model.k_eff, k_distances, densities, minute / 60.0)
        assert model.score_partial(minute).raw == want
    return model


def test_lof_partition_matches_sort_based_path():
    """The seeded minute sets with k in 2..10; 100 to 200 samples around a
    few busy times at the default k = 20, as a half-year stream's sliding
    windows hold; and 300 samples over 3 minutes, whose neighbourhoods at
    k = 150 and 299 are longer than numpy's 128-value pairwise block."""
    sets = list(_minute_sets(2000))
    shapes = np.random.default_rng(2024)
    for _ in range(60):
        n = int(shapes.integers(100, 201))
        centres = shapes.integers(0, 1440, int(shapes.integers(1, 4)))
        minutes = (shapes.choice(centres, n) + shapes.integers(-90, 91, n)) % 1440
        sets.append((minutes.tolist(), 20))
    for _ in range(10):
        minutes = (int(shapes.integers(0, 1440)) + shapes.integers(0, 3, 300)) % 1440
        sets += [(minutes.tolist(), k) for k in (20, 150, 299)]
    rng = np.random.default_rng(2000)
    for minutes, k in sets:
        queries = rng.integers(0, 1440, 4).tolist() + rng.choice(minutes, 2).tolist()
        _assert_lof_matches_sorted(minutes, k, queries)


def test_lof_fit_matches_sort_based_path_on_one_repeated_minute():
    """Every neighbourhood is the other n - 1 samples, and every density inf."""
    for n in (3, 8, 129, 300):
        for k in (1, 20):
            model = _assert_lof_matches_sorted([615] * n, k, [615, 616, 0])
            assert np.all(np.isinf(model.local_densities))
            assert model.training_scores.tolist() == [1.0] * n


def test_kde_scores_and_threshold_match_the_plain_python_table():
    """The kernel table, the threshold and every score, to the bit, against a
    restatement with a ``math.exp`` loop and per-minute pairwise sums; on
    every tenth set and the last two, all 1,440 densities too."""
    rng = np.random.default_rng(1986)
    sets = [minutes for minutes, _ in _minute_sets(1986)] + list(_large_minute_sets(1986, 10))
    for trial, minutes in enumerate(sets):
        model = WrappedKde(percentile=(0.5, 2.0, 5.0)[trial % 3]).fit_partial(minutes)
        table = oracles.kde_kernel_table(model.bandwidth)
        assert _kernel_table(model.bandwidth).tolist() == table
        want = oracles.kde_table_threshold(minutes, model.bandwidth, table, model.percentile)
        assert model.density_threshold == want
        queries = rng.integers(0, 1440, 4).tolist() + rng.choice(minutes, 2).tolist()
        densities = oracles.kde_table_densities(minutes, model.bandwidth, table, queries)
        for minute, density in zip(queries, densities):
            assert model.score_partial(minute).raw == model.density_threshold - density
        if trial % 10 == 0 or trial >= len(sets) - 2:
            every = oracles.kde_table_densities(minutes, model.bandwidth, table, range(1440))
            assert model.densities.tolist() == every
    assert max(map(len, map(set, sets))) > 128  # some sums take the pairwise split


def test_kde_kernel_table_skipping_underflowing_exps_keeps_its_bytes():
    """Distance ``x`` has exponent -800 exactly at bandwidth ``x / 2400``
    (``BANDWIDTH_FLOOR`` for ``x = 240``), so the grid takes those
    bandwidths and their neighbours as well as a spread up to 12 h."""
    grid = [BANDWIDTH_FLOOR, 1.2, 12.0] + np.geomspace(BANDWIDTH_FLOOR, 12.0, 300).tolist()
    for x in range(240, 2880, 37):
        edge = x / 2400.0
        grid += [np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf)]
    for bandwidth in grid:
        want = oracles.kde_kernel_table_every_exp(bandwidth)
        assert _kernel_table(bandwidth).tobytes() == want.tobytes(), bandwidth


# -------------------------------------------------------------------- registry

def test_init_map_defaults():
    detectors = init_map()
    assert list(detectors) == sorted(DEFAULT_DETECTORS)
    assert isinstance(detectors["kde"], WrappedKde)
    assert isinstance(detectors["kmeans"], CircularKMeans)
    assert isinstance(detectors["lof"], CosineLof)
    assert detectors["kde"].percentile == 0.5
    assert detectors["kmeans"].threshold == 1.5
    assert detectors["lof"].percentile == 95.0
    assert detectors["lof"].n_neighbors == 20
    assert all(not d.is_trained for d in detectors.values())


def test_init_map_applies_external_parameter_keys():
    detectors = init_map({
        "kmeans": {"kmeans_parameter": 2.5, "seed": 7},
        "kde": {"kde_parameter": 2.0},
        "lof": {"lof_parameter": 80.0, "n_neighbors": 5},
    })
    assert detectors["kmeans"].threshold == 2.5
    assert detectors["kmeans"].seed == 7
    assert detectors["kde"].percentile == 2.0
    assert detectors["lof"].percentile == 80.0
    assert detectors["lof"].n_neighbors == 5


def test_init_map_subset_and_errors():
    assert list(init_map({"kde": {}})) == ["kde"]
    with pytest.raises(ConfigurationError):
        init_map({"svm": {}})
    with pytest.raises(ConfigurationError):
        init_map({"kde": {"bogus": 1}})


def test_init_map_warns_on_out_of_range_parameters():
    with pytest.warns(UserWarning):
        init_map({"kde": {"kde_parameter": 10.0}})


def test_detector_types_are_read_only():
    with pytest.raises(TypeError):
        DETECTOR_TYPES["stub"] = CosineLof
    with pytest.raises(TypeError):
        DETECTOR_TYPES["kde"] = CosineLof
    assert not hasattr(detectors_module, "register_detector")
    assert DETECTOR_TYPES == {"kde": WrappedKde, "kmeans": CircularKMeans, "lof": CosineLof}
    assert all(cls.name == name for name, cls in DETECTOR_TYPES.items())
    assert isinstance(init_map()["kde"], WrappedKde)


# ---------------------------------------------------------- score kernels

_SCORE_REFERENCES = {
    "kde": oracles.kde_score_reference,
    "kmeans": oracles.kmeans_score_reference,
    "lof": oracles.lof_score_reference,
}
_DAY_MINUTE = st.integers(0, 1439)
#: Windows and ``n_neighbors`` whose LOF neighbourhoods hold 299 equal
#: distances, over 128, 8 to 128 and under 8 members; in the last,
#: ``n_neighbors`` is above n - 1.
_EDGE_WINDOWS = (
    ([615] * 300, 299),
    ([480 + i % 3 for i in range(300)], 200),
    ([i * 7 % 1440 for i in range(200)], 64),
    ([100, 100, 101, 700, 1439], 1),
    ([0, 719, 720, 1439], 9),
)


@st.composite
def _scoring_windows(draw):
    """A training window of 2 to 300 whole minutes, duplicate-heavy, at one
    minute or spread over the day, and an ``n_neighbors`` from 1 to n + 2."""
    n = draw(st.integers(2, 300))
    shape = draw(st.sampled_from(["duplicates", "one minute", "spread"]))
    if shape == "one minute":
        minutes = [draw(_DAY_MINUTE)] * n
    elif shape == "duplicates":
        distinct = draw(st.lists(_DAY_MINUTE, min_size=1, max_size=6))
        minutes = draw(st.lists(st.sampled_from(distinct), min_size=n, max_size=n))
    else:
        minutes = draw(st.lists(_DAY_MINUTE, min_size=n, max_size=n))
    return minutes, draw(st.integers(1, n + 2))


def _assert_scores_as_reference(model, minutes):
    reference = _SCORE_REFERENCES[model.name]
    for minute in minutes:
        score = model.score_partial(minute)
        binary, raw = reference(model, minute)
        assert (score.binary, repr(score.raw)) == (binary, repr(raw)), (model.name, minute)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(_scoring_windows())
@example(_EDGE_WINDOWS[0])
@example(_EDGE_WINDOWS[1])
@example(_EDGE_WINDOWS[2])
@example(_EDGE_WINDOWS[3])
@example(_EDGE_WINDOWS[4])
def test_score_kernels_match_their_references(window):
    """Every minute of the day, each detector against its score as it was,
    ``raw`` by ``repr``: infinite LOF raws, and the pickled and deep-copied
    model too."""
    minutes, n_neighbors = window
    params = {"kde": {}, "kmeans": {"seed": len(minutes)}, "lof": {"n_neighbors": n_neighbors}}
    day = range(1440)
    for name, unfitted in init_map(params).items():
        if len(minutes) < unfitted.min_samples:
            continue
        model = unfitted.fit_partial(minutes, version=1)
        _assert_scores_as_reference(model, day)
        for twin in (pickle.loads(pickle.dumps(model)), copy.deepcopy(model)):
            assert [twin.score_partial(m) for m in day] == [model.score_partial(m) for m in day]


def test_lof_edge_windows_reach_infinite_raws_and_every_neighbourhood_size():
    """The edge windows the score test always runs reach infinite raws, and
    neighbourhoods under 8, of 8 to 128 and over 128 members."""
    sizes, raws = set(), set()
    for minutes, k in _EDGE_WINDOWS:
        model = CosineLof(n_neighbors=k).fit_partial(minutes)
        for minute in range(1440):
            dist = oracles.cosine_distances_array(minute / 60.0, model.hours)
            kth = np.partition(dist, model.k_eff - 1)[model.k_eff - 1]
            size = int(np.count_nonzero(dist <= kth + oracles.TIE))
            sizes.add("under 8" if size < 8 else "8 to 128" if size <= 128 else "over 128")
            raws.add(model.score_partial(minute).raw)
    assert sizes == {"under 8", "8 to 128", "over 128"}
    assert math.inf in raws


def test_a_reassigned_kmeans_model_scores_from_its_new_clusters():
    model = CircularKMeans(seed=3).fit_partial(TWO_CLUSTER_MINUTES)
    before = [model.score_partial(m) for m in range(1440)]
    model.clusters = (Cluster(3.5, 0.1, 4), Cluster(12.0, 2.0, 9), Cluster(23.99, 0.25, 1))
    _assert_scores_as_reference(model, range(1440))
    assert [model.score_partial(m) for m in range(1440)] != before
    model.clusters = (Cluster(24.0, 0.5, 3),)
    with pytest.raises(ValueError, match="hours must be in"):
        model.score_partial(60)
    with pytest.raises(ValueError, match="hours must be in"):
        oracles.kmeans_score_reference(model, 60)


def test_scores_keep_their_checks():
    """Unfitted, each score raises ``NotFittedError``; fitted, a minute that is
    not a whole minute of the day raises ``ValueError``; a whole float minute
    scores as its int; all as the references do."""
    for name, model in init_map().items():
        reference = _SCORE_REFERENCES[name]
        for score in (model.score_partial, lambda m, model=model: reference(model, m)):
            with pytest.raises(NotFittedError):
                score(480)
            with pytest.raises(NotFittedError):
                score(0.5)
        fitted = model.fit_partial(TWO_CLUSTER_MINUTES)
        for score in (fitted.score_partial, lambda m, model=fitted: reference(model, m)):
            for minute in (0.5, 479.25, -1, 1440, 1e9, math.nan, math.inf):
                with pytest.raises(ValueError):
                    score(minute)
        assert fitted.score_partial(600.0) == fitted.score_partial(600)
        _assert_scores_as_reference(fitted, (0.0, 600.0, np.int64(1439), np.float64(720.0)))
