import numpy as np
import pytest

from icn_sentinel.classifiers import LabeledSet
from icn_sentinel.core import (ConfigError, DegenerateDataError)
from icn_sentinel.featsel import (FeatureSubset, GaConfig, cross_val_accuracy,
                                  genetic_select, greedy_select,
                                  stratified_folds)


def planted_data(seed=0, n=60, noise_features=4):
    """Feature 0 separates the classes with a wide margin; the rest is
    noise."""
    rng = np.random.default_rng(seed)
    y = np.where(rng.random(n) < 0.5, 1, -1)
    x0 = 3.0 * y + rng.normal(0, 0.3, size=n)
    noise = rng.normal(size=(n, noise_features))
    return LabeledSet.from_raw(np.column_stack([x0, noise]), y)


def xor_data(seed=0, per_corner=15):
    """Features 0 and 1 jointly determine the label; 2 and 3 are noise."""
    rng = np.random.default_rng(seed)
    rows, labels = [], []
    for a in (0, 1):
        for b in (0, 1):
            for _ in range(per_corner):
                rows.append([a + rng.normal(0, 0.05),
                             b + rng.normal(0, 0.05),
                             rng.normal(), rng.normal()])
                labels.append(1 if a == b else -1)
    return LabeledSet.from_raw(np.array(rows), np.array(labels))


def test_stratified_folds_balance():
    rng = np.random.default_rng(1)
    y = np.where(rng.random(83) < 0.3, 1, -1)
    assignment = stratified_folds(y, folds=5, seed=0)
    assert assignment.shape == y.shape
    assert set(assignment) <= set(range(5))
    # round-robin keeps per-class fold sizes within one of each other
    for klass in (1, -1):
        sizes = [int(((assignment == f) & (y == klass)).sum())
                 for f in range(5)]
        assert max(sizes) - min(sizes) <= 1


def test_stratified_folds_deterministic():
    y = np.array([1, -1] * 20)
    a = stratified_folds(y, folds=5, seed=7)
    b = stratified_folds(y, folds=5, seed=7)
    assert np.array_equal(a, b)


def test_stratified_folds_matches_row_loop():
    def loop_folds(y, folds, seed):
        rng = np.random.default_rng(seed)
        assignment = np.empty(len(y), dtype=int)
        for klass in np.unique(y):
            idx = np.flatnonzero(y == klass)
            idx = idx[rng.permutation(len(idx))]
            for pos, i in enumerate(idx):
                assignment[i] = pos % folds
        return assignment

    rng = np.random.default_rng(4)
    ys = [np.array([1, -1] * 20), np.where(rng.random(83) < 0.3, 1, -1),
          np.array([-1] * 7 + [1] * 2), np.array([1, 1, 1]),
          np.array([], dtype=int)]
    for y in ys:
        for folds in (2, 3, 5, 10):
            for seed in (0, 1, 7, 123):
                assert np.array_equal(stratified_folds(y, folds, seed),
                                      loop_folds(y, folds, seed))


def test_cross_val_perfect_feature():
    data = planted_data()
    assert cross_val_accuracy(data, [0]) == 1.0
    assert cross_val_accuracy(data, [1]) < 0.8


def test_cross_val_matches_restricted_set():
    data = planted_data(seed=2)
    for subset in ([0], [1, 3], [0, 2, 4]):
        direct = cross_val_accuracy(data, subset, seed=3)
        restricted = cross_val_accuracy(
            LabeledSet.from_raw(data.x[:, subset], data.y),
            list(range(len(subset))), seed=3)
        assert direct == restricted


def test_cross_val_errors():
    data = planted_data()
    with pytest.raises(ConfigError):
        cross_val_accuracy(data, [])
    with pytest.raises(ConfigError):
        cross_val_accuracy(data, [0], evaluator="forest")
    lone = LabeledSet.from_raw([[0.0], [1.0], [2.0]], [1, 1, -1])
    with pytest.raises(DegenerateDataError):
        cross_val_accuracy(lone, [0])


def test_greedy_finds_planted_feature():
    subset = greedy_select(planted_data())
    assert subset.indices == (0,)
    assert subset.score == 1.0


def test_greedy_tie_breaks_to_lowest_index():
    base = planted_data(seed=4)
    # duplicate the informative column at index 2; greedy must keep 0
    x = np.column_stack([base.x[:, 0], base.x[:, 1], base.x[:, 0],
                         base.x[:, 2]])
    data = LabeledSet.from_raw(x, base.y)
    subset = greedy_select(data)
    assert subset.indices == (0,)


def test_greedy_max_features():
    data = xor_data()
    subset = greedy_select(data, max_features=1)
    assert len(subset.indices) == 1
    with pytest.raises(ConfigError):
        greedy_select(data, max_features=0)


def test_greedy_needs_both_classes():
    lone = LabeledSet.from_raw([[0.0], [1.0]], [1, 1])
    with pytest.raises(DegenerateDataError):
        greedy_select(lone)


def test_both_methods_recover_planted_pair():
    data = xor_data()
    assert greedy_select(data).indices == (0, 1)
    ga = genetic_select(data, config=GaConfig(population=20, generations=15,
                                              seed=0))
    assert ga.indices == (0, 1)
    assert ga.score == 1.0


def test_ga_identity_under_zero_rates():
    data = planted_data(seed=5)
    n = data.n_features
    planted = np.zeros(n, dtype=bool)
    planted[0] = True
    other = np.ones(n, dtype=bool)
    config = GaConfig(population=4, generations=3, crossover_rate=0.0,
                      mutation_rate=0.0, seed=0)
    masks = [planted, other, other, other]
    subset = genetic_select(data, config=config, initial_masks=masks)
    # nothing can move, so the fittest seeded mask must win outright
    assert subset.indices == (0,)
    assert subset.score == 1.0


def test_ga_deterministic_and_monotone_history():
    data = planted_data(seed=6)
    config = GaConfig(population=10, generations=8, seed=42)
    s1, h1 = genetic_select(data, config=config, return_history=True)
    s2, h2 = genetic_select(data, config=config, return_history=True)
    assert s1 == s2
    assert h1 == h2
    assert len(h1) == config.generations
    assert all(b >= a for a, b in zip(h1, h1[1:]))


def test_ga_config_validation():
    with pytest.raises(ConfigError):
        GaConfig(population=1)
    with pytest.raises(ConfigError):
        GaConfig(generations=0)
    with pytest.raises(ConfigError):
        GaConfig(mutation_rate=1.5)
    data = planted_data()
    with pytest.raises(ConfigError):
        genetic_select(data, initial_masks=[np.zeros(data.n_features,
                                                     dtype=bool)])
    with pytest.raises(ConfigError):
        genetic_select(data, initial_masks=[np.ones(2, dtype=bool)])


def test_subset_indices_are_sorted_tuples():
    data = xor_data(seed=7)
    for subset in (greedy_select(data),
                   genetic_select(data, config=GaConfig(population=12,
                                                        generations=6,
                                                        seed=1))):
        assert isinstance(subset, FeatureSubset)
        assert list(subset.indices) == sorted(subset.indices)
