import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from icn_sentinel import classifiers, featsel
from icn_sentinel.classifiers import (CLASSIFIER_KINDS, LabeledSet,
                                      predict_labels, train_classifier)
from icn_sentinel.cli import main
from icn_sentinel.core import (ConfigError, DegenerateDataError)
from icn_sentinel.featsel import (FOLDS, FeatureSubset, GaConfig,
                                  cross_val_accuracy, genetic_select,
                                  greedy_select, stratified_folds)


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
    assignment = stratified_folds(y, seed=0)
    assert FOLDS == 5
    assert assignment.shape == y.shape
    assert set(assignment) == set(range(5))
    # round-robin keeps per-class fold sizes within one of each other
    for klass in (1, -1):
        sizes = [int(((assignment == f) & (y == klass)).sum())
                 for f in range(5)]
        assert max(sizes) - min(sizes) <= 1


def test_stratified_folds_deterministic():
    y = np.array([1, -1] * 20)
    a = stratified_folds(y, seed=7)
    b = stratified_folds(y, seed=7)
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
        for seed in (0, 1, 2, 3, 7, 42, 123, 9999):
            assert np.array_equal(stratified_folds(y, seed),
                                  loop_folds(y, 5, seed))


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


def cold_cross_val(data, indices, evaluator, seed):
    """Cross-validation that splits, checks and standardizes from scratch
    for every subset: the reference the fold memo must equal."""
    indices = sorted(indices)
    x = data.x[:, indices]
    y = data.y
    assignment = stratified_folds(y, seed=seed)
    correct = 0
    for fold in range(FOLDS):
        mask = assignment == fold
        if not mask.any():
            continue
        train = LabeledSet.from_raw(x[~mask], y[~mask])
        model = train_classifier(evaluator, train)
        correct += int((predict_labels(model, x[mask]) == y[mask]).sum())
    return correct / len(y)


def wide_data(seed=0, n=48, width=12):
    """Two shifted classes over columns of mixed scale, wide enough for
    subsets of up to 12 columns, where adding in another order than
    column order would round differently."""
    rng = np.random.default_rng(seed)
    y = np.where(np.arange(n) % 3 == 0, -1, 1)
    scale = 10.0 ** rng.uniform(-2, 3, size=width)
    x = (rng.normal(size=(n, width)) + 0.8 * y[:, None]) * scale
    return LabeledSet.from_raw(x, y)


SUBSET_SIZES = (1, 2, 7, 8, 9, 12)


def assert_bitwise(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    # the layout fixes numpy's summation order
    assert a.flags.c_contiguous == b.flags.c_contiguous
    assert a.flags.f_contiguous == b.flags.f_contiguous
    assert a.tobytes() == b.tobytes()


def test_cross_val_fold_memo_equals_cold_path():
    data = wide_data(seed=1, n=36)
    rng = np.random.default_rng(1)
    for seed in (0, 4, 9):
        for size in SUBSET_SIZES:
            subset = rng.choice(data.n_features, size=size,
                                replace=False).tolist()
            for evaluator in CLASSIFIER_KINDS:
                assert cross_val_accuracy(data, subset, evaluator,
                                          seed=seed) \
                    == cold_cross_val(data, subset, evaluator, seed)


def test_cross_val_fold_sets_equal_from_raw(monkeypatch):
    """Each fold trains on exactly the set from_raw builds from the
    subset's columns and scores exactly the subset's test rows (c45 runs
    the path every evaluator but k-NN under the cap takes)."""
    seen = []

    def train_spy(kind, train):
        seen.append(("train", train))
        return train_classifier(kind, train)

    def predict_spy(model, x):
        seen.append(("predict", x))
        return predict_labels(model, x)

    monkeypatch.setattr(featsel, "train_classifier", train_spy)
    monkeypatch.setattr(featsel, "predict_labels", predict_spy)
    data = wide_data(seed=3)
    rng = np.random.default_rng(3)
    for seed in (0, 2):
        assignment = stratified_folds(data.y, seed=seed)
        for size in SUBSET_SIZES:
            idx = sorted(rng.choice(data.n_features, size=size,
                                    replace=False).tolist())
            seen.clear()
            cross_val_accuracy(data, idx, "c45", seed=seed)
            assert len(seen) == 2 * FOLDS
            for fold in range(FOLDS):
                mask = assignment == fold
                (_, train), (_, test_x) = seen[2 * fold:2 * fold + 2]
                ref = LabeledSet.from_raw(data.x[:, idx][~mask],
                                          data.y[~mask])
                assert_bitwise(train.x, ref.x)
                assert_bitwise(train.y, ref.y)
                assert_bitwise(train.standardization.mean,
                               ref.standardization.mean)
                assert_bitwise(train.standardization.std,
                               ref.standardization.std)
                assert_bitwise(train.xz, ref.xz)
                assert_bitwise(test_x, data.x[:, idx][mask])


def assert_own_fit_planes(seen, data, indices, seed):
    """The one (planes, columns) pair a featsel._nearest spy recorded for a
    subset names the subset's sorted columns and stacks the test rows of
    every non-empty fold in fold order: each fold's block over its own
    training columns holds, bit for bit, the squared-difference planes of
    the subset's own from_raw fit, and every cell past them is +inf."""
    indices = sorted(indices)
    x = data.x[:, indices]
    assignment = stratified_folds(data.y, seed=seed)
    masks = [m for m in (assignment == f for f in range(FOLDS)) if m.any()]
    assert len(seen) == 1
    planes, columns = seen[0]
    assert columns == indices
    # the layout fixes numpy's summation order
    width = max(int(np.count_nonzero(~m)) for m in masks)
    assert planes.dtype == float and planes.flags.c_contiguous
    assert planes.shape == (data.n_features, len(data.y), width)
    start = 0
    for mask in masks:
        rows = slice(start, start + int(np.count_nonzero(mask)))
        ref = LabeledSet.from_raw(x[~mask], data.y[~mask])
        own = len(ref.y)
        assert_bitwise(np.ascontiguousarray(planes[indices, rows, :own]),
                       classifiers._sq_planes(
                           ref.xz, ref.standardization.apply(x[mask])))
        assert (planes[:, rows, own:] == np.inf).all()
        start = rows.stop
    assert start == len(data.y)


def spy_nearest(seen):
    """A featsel._nearest that records the planes it is given and the
    columns it adds."""
    def nearest_spy(planes, columns):
        seen.append((planes, list(columns)))
        return classifiers._nearest(planes, columns)
    return nearest_spy


def check_knn_planes_equal_from_raw(monkeypatch, data, sizes, seeds):
    """For random subsets of each size, one-column subsets too, one
    _nearest call scores all folds from planes whose blocks are bit for
    bit those of the subset's own fit per fold, and the accuracy is the
    cold path's."""
    seen = []
    monkeypatch.setattr(featsel, "_nearest", spy_nearest(seen))
    rng = np.random.default_rng(3)
    for seed in seeds:
        for size in sizes:
            idx = sorted(rng.choice(data.n_features, size=size,
                                    replace=False).tolist())
            seen.clear()
            assert cross_val_accuracy(data, idx, "knn", seed=seed) \
                == cold_cross_val(data, idx, "knn", seed)
            assert_own_fit_planes(seen, data, idx, seed)


def test_cross_val_knn_tensor_equals_from_raw(monkeypatch):
    check_knn_planes_equal_from_raw(monkeypatch, wide_data(seed=3),
                                    SUBSET_SIZES, (0, 2))


def test_cross_val_knn_above_128_columns(monkeypatch):
    """Subsets of 129 to 140 columns: the planes still equal those of the
    subset's own fit, and the accuracy the cold path's."""
    check_knn_planes_equal_from_raw(monkeypatch,
                                    wide_data(seed=7, n=40, width=140),
                                    (129, 136, 137, 140), (1,))


@st.composite
def knn_cv_cases(draw):
    """A small labelled set whose rows repeat (distance ties), a few fold
    seeds in turn, subsets of every size, and a tensor cap relative to the
    set's tensor size."""
    d = draw(st.integers(1, 20))
    n_pos, n_neg = draw(st.integers(2, 7)), draw(st.integers(2, 7))
    n = n_pos + n_neg
    value = st.floats(-1e3, 1e3, allow_subnormal=False)
    distinct = draw(st.lists(st.lists(value, min_size=d, max_size=d),
                             min_size=1, max_size=n))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1),
                          min_size=n, max_size=n))
    y = draw(st.permutations([1] * n_pos + [-1] * n_neg))
    seeds = draw(st.lists(st.integers(0, 99), min_size=1, max_size=3))
    subsets = draw(st.lists(st.sets(st.integers(0, d - 1), min_size=1),
                            min_size=1, max_size=4))
    cap = draw(st.sampled_from(["default", "zero", "below", "at", "above"]))
    data = LabeledSet.from_raw(np.array([distinct[i] for i in picks]),
                               np.array(y))
    return data, seeds, subsets, cap


def tensor_floats(data, seed):
    """Floats in all folds' (test, train, feature) tensors."""
    sizes = np.bincount(stratified_folds(data.y, seed), minlength=FOLDS)
    return int((sizes * (len(data.y) - sizes)).sum()) * data.n_features


@settings(max_examples=80, deadline=None)
@given(knn_cv_cases())
def test_knn_cross_val_equals_cold_path_property(case):
    data, seeds, subsets, cap = case
    default = featsel.KNN_TENSOR_FLOATS
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(featsel, "_nearest", spy_nearest(calls))
        for seed in seeds:
            size = tensor_floats(data, seed)
            limit = {"default": default, "zero": 0,
                     "below": size - 1, "at": size, "above": size + 1}[cap]
            mp.setattr(featsel, "KNN_TENSOR_FLOATS", limit)
            for subset in subsets:
                calls.clear()
                assert cross_val_accuracy(data, subset, "knn", seed=seed) \
                    == cold_cross_val(data, subset, "knn", seed)
                assert bool(calls) == (size <= limit)
                if calls:
                    assert_own_fit_planes(calls, data, subset, seed)
            assert list(data._folds) == [seed]


def test_cross_val_fold_memo_keeps_one_key():
    data = wide_data(seed=5)
    subset = [0, 3, 4, 7, 10]
    for seed in (0, 1, 0, 7, 1):
        assert cross_val_accuracy(data, subset, "knn", seed=seed) \
            == cold_cross_val(data, subset, "knn", seed)
        assert list(data._folds) == [seed]


def test_cross_val_errors():
    data = planted_data()
    with pytest.raises(ConfigError):
        cross_val_accuracy(data, [])
    with pytest.raises(ConfigError):
        cross_val_accuracy(data, [0], evaluator="forest")
    lone = LabeledSet.from_raw([[0.0], [1.0], [2.0]], [1, 1, -1])
    with pytest.raises(DegenerateDataError):
        cross_val_accuracy(lone, [0])


@pytest.mark.parametrize("evaluator", ["knn", "svm"])
@pytest.mark.parametrize("indices, message", [
    ([0, 9], "feature index 9 is outside [0, 4)"),
    ([4], "feature index 4 is outside [0, 4)"),
    ([-1, 3], "feature index -1 is outside [0, 4)"),
    ([3, 3], "feature index 3 is repeated"),
    ([1, 0, 1], "feature index 1 is repeated")])
def test_cross_val_rejects_bad_indices(evaluator, indices, message):
    data = planted_data(noise_features=3)
    with pytest.raises(ConfigError, match=re.escape(message)):
        cross_val_accuracy(data, indices, evaluator)


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


@pytest.mark.parametrize("evaluator", CLASSIFIER_KINDS)
def test_cross_validation_refuses_one_class_for_every_search(evaluator):
    # the class check lives in the CV split that both searches go through
    lone = LabeledSet.from_raw(np.arange(24.0).reshape(8, 3), [1] * 8)
    for search in (lambda: cross_val_accuracy(lone, [0, 2], evaluator),
                   lambda: greedy_select(lone, evaluator),
                   lambda: genetic_select(lone, evaluator,
                                          GaConfig(population=4,
                                                   generations=1))):
        with pytest.raises(DegenerateDataError, match="both classes"):
            search()


def test_both_methods_recover_planted_pair():
    data = xor_data()
    assert greedy_select(data).indices == (0, 1)
    ga = genetic_select(data, config=GaConfig(population=20, generations=15,
                                              seed=0))
    assert ga.indices == (0, 1)
    assert ga.score == 1.0


def test_ga_identity_under_zero_rates(monkeypatch):
    data = planted_data(seed=5)
    scored = []

    def cross_val_spy(data, indices, evaluator, seed):
        scored.append(tuple(indices))
        return cross_val_accuracy(data, indices, evaluator, seed=seed)

    monkeypatch.setattr(featsel, "cross_val_accuracy", cross_val_spy)
    config = GaConfig(population=4, generations=3, crossover_rate=0.0,
                      mutation_rate=0.0, seed=0)
    subset = genetic_select(data, config=config)
    # nothing can move, so no mask past the first population is ever
    # scored, and the fittest first mask (lowest position on ties) wins
    assert 1 <= len(scored) <= config.population
    fits = [cross_val_accuracy(data, s) - featsel.PARSIMONY_PENALTY * len(s)
            for s in scored]
    best = scored[fits.index(max(fits))]
    assert subset.indices == best
    assert subset.score == cross_val_accuracy(data, best)


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
    with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
        GaConfig(seed=-1)
    with pytest.raises(ConfigError, match="seed must be >= 0, got -3"):
        stratified_folds(np.array([1, -1] * 5), seed=-3)


@pytest.mark.parametrize("field, value", [
    ("population", 3.0), ("population", True), ("population", "8"),
    ("generations", 2.0), ("generations", False), ("seed", True),
    ("seed", 1.0), ("seed", np.int64(1))])
def test_ga_config_fields_must_be_integers(field, value):
    with pytest.raises(ConfigError,
                       match=re.escape("%s must be an integer, got %r"
                                       % (field, value))):
        GaConfig(**{field: value})


@pytest.mark.parametrize("seed", [True, False, 1.5, 1.0, np.int64(1), "1"])
def test_seeds_must_be_python_integers(seed):
    # seed 1's folds are memoized first, and True == 1 must not find them
    data, y = xor_data(seed=7), np.array([1, -1] * 5)
    assert cross_val_accuracy(data, [0], seed=1) > 0
    match = re.escape("seed must be an integer, got %r" % (seed,))
    for call in (lambda: stratified_folds(y, seed=seed),
                 lambda: cross_val_accuracy(data, [0], seed=seed),
                 lambda: greedy_select(data, seed=seed)):
        with pytest.raises(ConfigError, match=match):
            call()


@pytest.mark.parametrize("name", ["crossover_rate", "mutation_rate"])
@pytest.mark.parametrize("value", [True, False])
def test_ga_rates_refuse_booleans(name, value):
    with pytest.raises(ConfigError, match=re.escape(
            "%s must be a number in [0, 1], got %r" % (name, value))):
        GaConfig(**{name: value})


def test_ga_config_population_below_two_to_the_32():
    assert GaConfig(population=2 ** 32 - 1).population == 2 ** 32 - 1
    with pytest.raises(ConfigError, match=re.escape("population must be in "
                                                    "[2, 2**32)")):
        GaConfig(population=2 ** 32)


def test_subset_indices_are_sorted_tuples():
    data = xor_data(seed=7)
    for subset in (greedy_select(data),
                   genetic_select(data, config=GaConfig(population=12,
                                                        generations=6,
                                                        seed=1))):
        assert isinstance(subset, FeatureSubset)
        assert list(subset.indices) == sorted(subset.indices)


def test_stacked_knn_padding_and_overflow(monkeypatch):
    """Folds of uneven training size pad the stacked planes with +inf, and
    one fold's training spread in column 0 is tiny but non-zero, so its
    far test row is at distance inf from every training row (the squares
    overflow).  The stacked path labels every row as the cold path does:
    index 0 on that all-inf row, and never a padding column."""
    y = np.array([1] * 8 + [-1] * 7)
    seed = 0
    assignment = stratified_folds(y, seed=seed)
    sizes = np.bincount(assignment, minlength=FOLDS)
    assert sizes.min() > 0 and len(set(sizes)) > 1
    narrow = int(np.argmax(sizes))  # the fold with the fewest training rows
    far = int(np.flatnonzero(assignment == narrow)[-1])
    x = np.random.default_rng(8).normal(size=(len(y), 3)) + y[:, None]
    x[:, 0] = np.where(np.arange(len(y)) % 2, 1e-152, -1e-152)
    x[far, 0] = 1e3
    data = LabeledSet.from_raw(x, y)
    masks = [assignment == f for f in range(FOLDS)]
    own = [int(np.count_nonzero(~m)) for m in masks]
    query_fold = np.concatenate([np.full(s, f) for f, s in enumerate(sizes)])
    far_row = int(np.flatnonzero(query_fold == narrow)[-1])
    seen = []

    def nearest_spy(planes, columns):
        nearest = classifiers._nearest(planes, columns)
        seen.append((planes, nearest))
        return nearest

    monkeypatch.setattr(featsel, "_nearest", nearest_spy)
    for subset in ([0, 1], [0, 1, 2], [0, 2]):
        seen.clear()
        with np.errstate(over="ignore"):
            score = cross_val_accuracy(data, subset, "knn", seed=seed)
            assert score == cold_cross_val(data, subset, "knn", seed)
            cold = np.concatenate([
                predict_labels(train_classifier(
                    "knn", LabeledSet.from_raw(x[~m][:, subset], y[~m])),
                    x[m][:, subset]) for m in masks])
        (planes, nearest), = seen
        assert planes.shape[2] == max(own) > min(own)
        assert (planes[0, far_row, :own[narrow]] == np.inf).all()
        assert nearest[far_row] == 0
        assert (nearest < np.take(own, query_fold)).all()
        train_y = [y[~m] for m in masks]
        stacked = np.array([train_y[f][i]
                            for f, i in zip(query_fold, nearest)])
        assert stacked.tolist() == cold.tolist()


def golden_data():
    """47 rows over 8 columns of mixed scale, two of them informative, in
    two classes of 22 and 25 rows, so stratified folds differ in size."""
    rng = np.random.default_rng(2024)
    n = 47
    y = np.where(rng.random(n) < 0.45, 1, -1)
    x = rng.normal(size=(n, 8)) * 10.0 ** rng.uniform(-2, 2, size=8)
    x[:, 0] += 0.9 * y * abs(x[:, 0]).mean()
    x[:, 3] += 0.5 * y * abs(x[:, 3]).mean()
    return LabeledSet.from_raw(x, y)


# (evaluator, GA seed) -> selected indices, score.hex() and each history
# entry's hex, recorded from the per-fold, one-tournament-per-draw
# implementation with GaConfig(population=8, generations=5); the svm
# entries with the SMO trainer
GA_GOLDEN = {
    ("knn", 0): ((0, 1, 4, 7), "0x1.7d46cefa8d9dfp-1", [
        "0x1.4fa774e909480p-1", "0x1.6158699fdfedep-1",
        "0x1.792e3b85d1337p-1", "0x1.792e3b85d1337p-1",
        "0x1.792e3b85d1337p-1"]),
    ("knn", 1): ((0, 4, 6, 7), "0x1.72620ae4c415dp-1", [
        "0x1.6e49777007ab5p-1"] * 5),
    ("knn", 2): ((0, 1, 3, 5), "0x1.882b931057262p-1", [
        "0x1.4ea1500bda2d6p-1", "0x1.4ea1500bda2d6p-1",
        "0x1.7a346063004e1p-1", "0x1.7a346063004e1p-1",
        "0x1.8412ff9b9abbap-1"]),
    ("svm", 0): ((0, 1, 3, 5, 7), "0x1.882b931057262p-1", [
        "0x1.44c2b0d33fbfep-1", "0x1.587fef44749afp-1",
        "0x1.646ad8376d3dcp-1", "0x1.6e49777007ab5p-1",
        "0x1.6e49777007ab5p-1"]),
    ("svm", 1): ((0, 1, 3, 5, 6), "0x1.51b3bea3677d4p-1", [
        "0x1.4b8ee1744cdd8p-1", "0x1.4c9506517bf82p-1",
        "0x1.4c9506517bf82p-1", "0x1.4c9506517bf82p-1",
        "0x1.4c9506517bf82p-1"]),
    ("svm", 2): ((0, 3), "0x1.72620ae4c415dp-1", [
        "0x1.587fef44749afp-1", "0x1.59861421a3b59p-1",
        "0x1.646ad8376d3dcp-1", "0x1.7055c12a65e09p-1",
        "0x1.7055c12a65e09p-1"]),
    ("c45", 0): ((0, 4, 5, 6, 7), "0x1.72620ae4c415dp-1", [
        "0x1.4c9506517bf82p-1", "0x1.4c9506517bf82p-1",
        "0x1.6158699fdfedep-1", "0x1.6d435292d890bp-1",
        "0x1.6d435292d890bp-1"]),
    ("c45", 1): ((4, 6, 7), "0x1.677d46cefa8dap-1", [
        "0x1.646ad8376d3dcp-1"] * 5),
    ("c45", 2): ((0, 1, 3), "0x1.677d46cefa8dap-1", [
        "0x1.6364b35a3e232p-1", "0x1.6364b35a3e232p-1",
        "0x1.6364b35a3e232p-1", "0x1.646ad8376d3dcp-1",
        "0x1.646ad8376d3dcp-1"]),
}


@pytest.mark.parametrize("evaluator, seed", list(GA_GOLDEN))
def test_genetic_select_golden(evaluator, seed):
    subset, history = genetic_select(
        golden_data(), evaluator,
        GaConfig(population=8, generations=5, seed=seed),
        return_history=True)
    indices, score, hist = GA_GOLDEN[evaluator, seed]
    assert subset.indices == indices
    assert subset.score.hex() == score
    assert [h.hex() for h in history] == hist


def test_greedy_select_golden():
    subset = greedy_select(golden_data(), "knn")
    assert subset.indices == (0, 1)
    assert subset.score.hex() == "0x1.882b931057262p-1"


def test_select_cli_golden(tmp_path):
    """The JSON bytes of a genetic k-NN select on a 40-rows-per-group
    "mixed" campaign: the selection recorded from the per-fold
    implementation, in write_json's one-line layout."""
    from icn_sentinel.cli import main
    config = tmp_path / "gen.json"
    config.write_text('{"rows_per_group": 40, "attack_pattern": "mixed"}')
    assert main(["gen", "--config", str(config), "--seed", "5",
                 "--out", str(tmp_path / "campaign")]) == 0
    out = tmp_path / "selection.json"
    assert main(["select", "--data", str(tmp_path / "campaign" / "MD_test.csv"),
                 "--method", "genetic", "--algo", "knn", "--seed", "3",
                 "--out", str(out)]) == 0
    assert out.read_bytes() == (
        b'{"features": ["GBV", "Power", "AFR", "IGV", "LOT"], "score": 0.95}\n')


@pytest.mark.parametrize("n", [2, 3, 30, 257, 10 ** 6])
def test_paired_tournament_draw_equals_two_draws(n):
    """genetic_select draws a child's two tournaments as one size-6
    integers call: its values and the generator state after it equal two
    size-3 calls, amid the float draws of crossover and mutation and the
    scalar draw that repairs an empty child."""
    for seed in range(20):
        paired, split = np.random.default_rng(seed), np.random.default_rng(seed)
        for step in range(60):
            assert paired.integers(0, n, size=6).tolist() == \
                split.integers(0, n, size=3).tolist() \
                + split.integers(0, n, size=3).tolist()
            assert paired.random() == split.random()
            width = 1 + step % 9
            assert paired.random(width).tobytes() == \
                split.random(width).tobytes()
            if step % 4 == 0:
                assert paired.integers(0, width) == split.integers(0, width)
        assert paired.bit_generator.state == split.bit_generator.state


def pack_bits(bits):
    """An int whose bit j is bits[j]."""
    return sum(1 << j for j, b in enumerate(bits.tolist()) if b)


BOUNDS = (1, 2, 30, 2 ** 31 + 1, 2 ** 32 - 1)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 64), chunk=st.sampled_from([1, 2, 3, 7, 4096]),
       ops=st.lists(st.one_of(
           st.tuples(st.just("random")),
           st.tuples(st.just("below"), st.sampled_from([0, 0.02, 0.5, 1]),
                     st.integers(0, 20)),
           st.tuples(st.just("integers6"), st.sampled_from(BOUNDS)),
           st.tuples(st.just("integers"), st.sampled_from(BOUNDS))),
           max_size=60))
def test_pcg64_draws_equal_default_rng_property(seed, chunk, ops):
    """The decoder's draws equal default_rng(seed)'s over any interleaving
    of random(), random(n) < t, and integers(0, k) with size 6 or none,
    whatever the chunk of words read at a time: k = 2**31 + 1 rejects
    about half the outputs, and a scalar integers call leaves a high half
    kept across later doubles and chunks."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(featsel, "DRAW_CHUNK", chunk)
        draws = featsel._Pcg64Draws(seed)
        rng = np.random.default_rng(seed)
        for op, *args in ops + [("integers6", 30), ("random",)]:
            if op == "random":
                assert draws.random() == rng.random()
            elif op == "below":
                t, n = args
                assert draws.below(t, n) == pack_bits(rng.random(n) < t)
            elif op == "integers6":
                k, = args
                assert draws.integers(k, 6) \
                    == rng.integers(0, k, size=6).tolist()
            else:
                k, = args
                assert draws.integers(k, 1) == [int(rng.integers(0, k))]


def reference_mask_key(mask):
    return np.packbits(mask).tobytes()


def reference_genetic_select(data, evaluator="knn", config=None,
                             return_history=False):
    """genetic_select over boolean mask arrays and the Generator's own
    calls, as it was before masks became ints."""
    if not data.both_classes():
        raise DegenerateDataError("selection needs both classes")
    config = config or GaConfig()
    n = data.n_features
    rng = np.random.default_rng(config.seed)

    cache = {}

    def fitness(mask):
        key = reference_mask_key(mask)
        if key not in cache:
            indices = np.flatnonzero(mask)
            acc = cross_val_accuracy(data, indices.tolist(), evaluator,
                                     seed=config.seed)
            cache[key] = (acc - featsel.PARSIMONY_PENALTY * len(indices),
                          acc)
        return cache[key]

    def random_mask():
        while True:
            mask = rng.random(n) < 0.5
            if mask.any():
                return mask

    population = [random_mask() for _ in range(config.population)]

    def tournament(scores, picks):
        best = min(picks, key=lambda i: (-scores[i], i))
        return population[best]

    best_mask = None
    best_fit = -np.inf
    history = []
    for generation in range(config.generations + 1):
        scores = [fitness(m)[0] for m in population]
        top = int(np.argmax(scores))
        if scores[top] > best_fit:
            best_fit = scores[top]
            best_mask = population[top].copy()
        if generation == config.generations:
            break  # the final population counts toward best-ever only
        history.append(best_fit)

        nxt = [best_mask.copy()]  # elitism
        while len(nxt) < config.population:
            # one draw for both tournaments gives the two size-3 draws'
            # values and leaves the generator as they do: each bounded
            # value takes its own 32-bit output, whatever the size
            picks = rng.integers(0, len(population), size=6).tolist()
            pa = tournament(scores, picks[:3])
            pb = tournament(scores, picks[3:])
            if rng.random() < config.crossover_rate:
                coin = rng.random(n) < 0.5
                child = np.where(coin, pa, pb)
            else:
                child = pa.copy()
            flip = rng.random(n) < config.mutation_rate
            child = child ^ flip
            if not child.any():
                child[rng.integers(0, n)] = True
            nxt.append(child)
        population = nxt

    accuracy = fitness(best_mask)[1]
    subset = FeatureSubset(tuple(np.flatnonzero(best_mask).tolist()), accuracy)
    if return_history:
        return subset, history
    return subset


RATES = st.one_of(st.sampled_from([0.0, 1.0]),
                  st.floats(0, 1, allow_subnormal=False))


@st.composite
def ga_cases(draw):
    """A small labelled set of 1-10 columns, some of them shifted by the
    label, and a GA configuration with rates that include 0 and 1."""
    d = draw(st.integers(1, 10))
    n_pos, n_neg = draw(st.integers(2, 8)), draw(st.integers(2, 8))
    y = np.array(draw(st.permutations([1] * n_pos + [-1] * n_neg)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    shift = draw(st.lists(st.sampled_from([0.0, 0.5, 3.0]), min_size=d,
                          max_size=d))
    x = rng.normal(size=(len(y), d)) + np.outer(y, shift)
    config = GaConfig(population=draw(st.integers(2, 12)),
                      generations=draw(st.integers(1, 5)),
                      crossover_rate=draw(RATES), mutation_rate=draw(RATES),
                      seed=draw(st.integers(0, 2 ** 32)))
    evaluator = draw(st.sampled_from(["knn", "knn", "c45"]))
    return LabeledSet.from_raw(x, y), evaluator, config


@settings(max_examples=100, deadline=None)
@given(ga_cases())
def test_genetic_select_equals_reference_property(case):
    """Integer masks and decoded draws select what boolean masks and the
    Generator's own calls select: the same indices, score bits and
    history bits (one column exercises the integers(0, 1) repair)."""
    data, evaluator, config = case
    subset, history = genetic_select(data, evaluator, config,
                                     return_history=True)
    ref, ref_history = reference_genetic_select(data, evaluator, config,
                                                return_history=True)
    assert subset.indices == ref.indices
    assert subset.score.hex() == ref.score.hex()
    assert [h.hex() for h in history] == [h.hex() for h in ref_history]
