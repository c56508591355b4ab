"""Detector behaviour against hand-computed and independently derived values."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
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
    circ_distance,
    circular_mean,
    init_map,
    minutes_to_hours,
    percentile,
    register_detector,
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
    model = WrappedKde()
    model.samples = np.array([23.9, 0.1])
    model.bandwidth = 0.5
    model.trained_version = 0
    for query in (0.0, 0.5, 8.0, 12.0, 23.95):
        expected = oracles.wrapped_density([23.9, 0.1], 0.5, query)
        assert float(model.density([query])[0]) == pytest.approx(expected, rel=1e-12)
    # mass wraps across midnight instead of leaking away
    assert float(model.density([0.0])[0]) > 1000 * float(model.density([12.0])[0])


def test_kde_density_integrates_to_one():
    rng = np.random.default_rng(7)
    minutes = np.concatenate([
        rng.normal(540, 45, 30),
        rng.normal(1200, 30, 10),
    ]).clip(0, 1439).astype(int)
    model = WrappedKde().fit_partial(minutes.tolist())
    step = 24.0 / 4800
    grid = np.arange(4800) * step
    integral = float(model.density(grid).sum()) * step
    assert integral == pytest.approx(1.0, abs=1e-3)


def test_kde_threshold_is_low_quantile_of_training_density():
    rng = np.random.default_rng(3)
    minutes = rng.normal(600, 60, 50).clip(0, 1439).astype(int).tolist()
    model = WrappedKde(percentile=5.0).fit_partial(minutes)
    below = np.count_nonzero(model.density(model.samples) < model.density_threshold)
    assert below / 50 <= 0.05 + 1 / 50


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
    with pytest.raises(NotFittedError):
        WrappedKde().density([8.0])
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
    """Passes each draw through to a generator and records its index and weights."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.draws = []

    def integers(self, n):
        index = int(self._rng.integers(n))
        self.draws.append((index, None))
        return index

    def choice(self, n, p):
        index = int(self._rng.choice(n, p=p))
        self.draws.append((index, p.tobytes()))
        return index


def test_running_min_seeding_matches_full_recompute():
    for trial, (minutes, k) in enumerate(_minute_sets(2007)):
        hours = np.asarray(minutes, dtype=float) / 60.0
        fast, full = _RecordingRng([trial, k]), _RecordingRng([trial, k])
        got = CircularKMeans._seed_centroids(hours, k, fast)
        want = oracles.seed_centroids_recomputed(hours, k, full)
        assert fast.draws == full.draws
        assert np.array_equal(got, want)


def test_grouped_lloyd_update_matches_masked_circular_means():
    reseeded = 0
    for trial, (minutes, k) in enumerate(_minute_sets(1982)):
        hours = np.asarray(minutes, dtype=float) / 60.0
        angles = hours * (2.0 * math.pi / 24.0)
        labels, centroids = CircularKMeans(seed=trial)._lloyd(
            hours, (np.cos(angles), np.sin(angles)), k
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


def test_lof_partition_matches_sort_based_path():
    rng = np.random.default_rng(2000)
    for minutes, k in _minute_sets(2000):
        hours = np.asarray(minutes, dtype=float) / 60.0
        model = CosineLof(n_neighbors=k).fit_partial(minutes)
        k_distances, densities, scores = oracles.lof_fit_sorted(hours, k)
        assert np.array_equal(model.k_distances, k_distances)
        assert np.array_equal(model.local_densities, densities)
        assert np.array_equal(model.training_scores, scores)
        queries = rng.integers(0, 1440, 4).tolist() + rng.choice(minutes, 2).tolist()
        for minute in queries:
            want = oracles.lof_score_sorted(hours, model.k_eff, k_distances, densities, minute / 60.0)
            assert model.score_partial(minute).raw == want


def test_kde_stacked_shifts_match_per_shift_loop():
    rng = np.random.default_rng(1986)
    for minutes, _ in _minute_sets(1986):
        model = WrappedKde().fit_partial(minutes)
        want = oracles.kde_density_per_shift(model.samples, model.bandwidth, model.samples)
        assert np.array_equal(model.density(model.samples), want)
        queries = rng.integers(0, 1440, 4).tolist() + rng.choice(minutes, 2).tolist()
        for minute in queries:
            query = np.array([minute / 60.0])
            value = oracles.kde_density_per_shift(model.samples, model.bandwidth, query)[0]
            assert model.score_partial(minute).raw == model.density_threshold - value


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


def test_register_detector_extends_registry():
    class Stub(CosineLof):
        name = "stub"

    register_detector("stub", Stub)
    try:
        detectors = init_map({"stub": {}, "kde": {}})
        assert list(detectors) == ["kde", "stub"]
        assert isinstance(detectors["stub"], Stub)
    finally:
        del DETECTOR_TYPES["stub"]
