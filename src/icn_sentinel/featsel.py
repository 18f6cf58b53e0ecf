"""Wrapper feature selection over the package's own classifiers.

Subsets are scored by stratified FOLDS-fold cross-validated accuracy of a
chosen classifier kind; a greedy forward search and a genetic search are
provided.  Both are deterministic for a fixed dataset and seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import ConfigError, DegenerateDataError, InsufficientDataError
from .classifiers import (CLASSIFIER_KINDS, LabeledSet, Standardization,
                          _nearest, _sq_planes, predict_labels,
                          train_classifier)

PARSIMONY_PENALTY = 0.002

# cross-validation folds that score a subset
FOLDS = 5

# kNN cross-validation keeps a split's stacked squared-difference tensor
# while its folds' own (test, train, feature) blocks together hold at most
# this many floats (about 0.8 * rows**2 * features for 5 folds); the +inf
# padding, at most 2 columns per fold, is not counted
KNN_TENSOR_FLOATS = 2 ** 22

# the inner CV loop trains the SVM for fewer epochs than its default
_EVAL_HYPER = {"svm": {"epochs": 60}}


@dataclass(frozen=True)
class FeatureSubset:
    """Selected column indices (ascending) and their CV accuracy."""

    indices: tuple
    score: float


@dataclass(frozen=True)
class GaConfig:
    population: int = 30
    generations: int = 40
    crossover_rate: float = 0.9
    mutation_rate: float = 0.02
    seed: int = 0

    def __post_init__(self):
        _check_seed(self.seed)
        if self.population < 2:
            raise ConfigError("population must be >= 2")
        if self.generations < 1:
            raise ConfigError("generations must be >= 1")
        for name in ("crossover_rate", "mutation_rate"):
            v = getattr(self, name)
            if not 0 <= v <= 1:
                raise ConfigError("%s must be in [0, 1], got %r" % (name, v))


def _check_seed(seed):
    if seed < 0:
        raise ConfigError("seed must be >= 0, got %r" % (seed,))


def stratified_folds(y, seed=0):
    """Per-class round-robin assignment to FOLDS folds; deterministic
    under seed."""
    _check_seed(seed)
    y = np.asarray(y)
    rng = np.random.default_rng(seed)
    assignment = np.empty(len(y), dtype=int)
    for klass in np.unique(y):
        idx = np.flatnonzero(y == klass)
        idx = idx[rng.permutation(len(idx))]
        assignment[idx] = np.arange(len(idx)) % FOLDS
    return assignment


@dataclass(frozen=True)
class _Fold:
    """One CV fold at full width: C-ordered raw train and test rows and
    their labels."""

    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray


@dataclass(frozen=True)
class _Split:
    """The non-empty CV folds of one (data, seed) and, once k-NN asks for
    them, their squared differences stacked along the query axis."""

    folds: tuple

    @cached_property
    def sq_diff(self):
        """(planes, query_fold, train_y, test_y), built on first use.

        planes holds one C-ordered (all test rows, widest training fold)
        plane per feature.  Each fold's test rows hold the squared
        differences of that fold's standardized test and training rows,
        then +inf in the columns past its own training size: at most 2,
        as stratified training folds differ by at most one row per class.
        query_fold is each test row's fold, train_y[f] fold f's training
        labels, padded alike, and test_y the test labels in row order.
        From two columns up a subset's block of a fold equals the planes
        of its own fit, and a finite distance always beats a padding
        column.
        """
        folds = self.folds
        width = max(len(f.train_y) for f in folds)
        sizes = [len(f.test_y) for f in folds]
        planes = np.full((folds[0].test_x.shape[1], sum(sizes), width),
                         np.inf)
        test_y = np.concatenate([f.test_y for f in folds])
        train_y = np.zeros((len(folds), width), dtype=test_y.dtype)
        start = 0
        for i, f in enumerate(folds):
            if len(np.unique(f.train_y)) < 2:
                raise DegenerateDataError(
                    "training data must contain both classes")
            std = Standardization.fit(f.train_x)
            m = len(f.train_y)
            planes[:, start:start + sizes[i], :m] = _sq_planes(
                std.apply(f.train_x), std.apply(f.test_x))
            train_y[i, :m] = f.train_y
            start += sizes[i]
        query_fold = np.repeat(np.arange(len(folds)), sizes)
        return planes, query_fold, train_y, test_y


def _cv_folds(data: LabeledSet, seed) -> _Split:
    """The split of data into its non-empty folds, made once per seed; the
    memo on data keeps the latest seed only."""
    memo = data._folds
    if seed not in memo:
        y = data.y
        counts = np.unique(y, return_counts=True)[1]
        if counts.min() < 2:
            raise DegenerateDataError(
                "cross-validation needs >= 2 members per class")
        assignment = stratified_folds(y, seed=seed)
        folds = []
        for fold in range(FOLDS):
            mask = assignment == fold
            if not mask.any():
                continue
            folds.append(_Fold(np.ascontiguousarray(data.x[~mask]), y[~mask],
                               np.ascontiguousarray(data.x[mask]), y[mask]))
        memo.clear()
        memo[seed] = _Split(tuple(folds))
    return memo[seed]


def cross_val_accuracy(data: LabeledSet, indices, evaluator="knn",
                       seed=0) -> float:
    """Pooled accuracy of the evaluator over stratified CV folds.

    Standardization is refit on each training fold; folds whose training
    side lost a class are impossible by the round-robin construction for
    classes with >= 2 members.  The folds are split once per (data, seed).
    A k-NN subset of two or more columns is scored over all folds at once,
    by one _nearest call on the split's stacked squared differences, while
    the folds' blocks fit KNN_TENSOR_FLOATS; any other subset refits its
    own columns per fold.
    """
    indices = sorted(indices)
    if not indices:
        raise ConfigError("cannot evaluate an empty feature subset")
    if evaluator not in CLASSIFIER_KINDS:
        raise ConfigError("unknown evaluator %r" % (evaluator,))
    for before, j in zip([None] + indices, indices):
        if not 0 <= j < data.n_features:
            raise ConfigError("feature index %r is outside [0, %d)"
                              % (j, data.n_features))
        if j == before:
            raise ConfigError("feature index %r is repeated" % (j,))
    split = _cv_folds(data, seed)
    if evaluator == "knn" and len(indices) > 1 and sum(
            len(f.test_y) * f.train_x.size for f in split.folds) \
            <= KNN_TENSOR_FLOATS:
        planes, query_fold, train_y, test_y = split.sq_diff
        predicted = train_y[query_fold, _nearest(planes, indices)]
        return np.count_nonzero(predicted == test_y) / len(data.y)
    columns = np.asarray(indices)
    correct = 0
    for fold in split.folds:
        x = np.ascontiguousarray(fold.train_x[:, columns])
        std = Standardization.fit(x)
        model = train_classifier(evaluator,
                                 LabeledSet(x, fold.train_y, std,
                                            std.apply(x)),
                                 **_EVAL_HYPER.get(evaluator, {}))
        predicted = predict_labels(
            model, np.ascontiguousarray(fold.test_x[:, columns]))
        correct += np.count_nonzero(predicted == fold.test_y)
    return correct / len(data.y)


def greedy_select(data: LabeledSet, evaluator="knn", max_features=None,
                  seed=0) -> FeatureSubset:
    """Forward selection: repeatedly add the feature that raises CV
    accuracy the most (lowest index on ties); stop when nothing improves
    or max_features is reached."""
    if not data.both_classes():
        raise DegenerateDataError("selection needs both classes")
    n = data.n_features
    if max_features is None:
        max_features = n
    if max_features < 1:
        raise ConfigError("max_features must be >= 1")

    chosen = []
    best_score = -1.0
    while len(chosen) < min(max_features, n):
        best_step = None
        for j in range(n):
            if j in chosen:
                continue
            score = cross_val_accuracy(data, chosen + [j], evaluator,
                                       seed=seed)
            if best_step is None or score > best_step[0] + 1e-12:
                best_step = (score, j)
        if best_step is None or best_step[0] <= best_score + 1e-12:
            break
        best_score = best_step[0]
        chosen.append(best_step[1])
    if not chosen:
        raise InsufficientDataError("no feature improved on the empty subset")
    return FeatureSubset(tuple(sorted(chosen)), best_score)


def _mask_key(mask):
    return np.packbits(mask).tobytes()


def genetic_select(data: LabeledSet, evaluator="knn", config=None,
                   return_history=False):
    """Genetic search over feature bitmasks.

    Fitness is CV accuracy minus 0.002 per selected feature; selection is
    tournament of three, recombination uniform crossover, then per-bit
    mutation.  The best individual ever seen is preserved and returned.
    With return_history the per-generation best-ever fitness list (a
    non-decreasing sequence) comes back as a second value.
    """
    if not data.both_classes():
        raise DegenerateDataError("selection needs both classes")
    config = config or GaConfig()
    n = data.n_features
    rng = np.random.default_rng(config.seed)

    cache = {}

    def fitness(mask):
        key = _mask_key(mask)
        if key not in cache:
            indices = np.flatnonzero(mask)
            acc = cross_val_accuracy(data, indices.tolist(), evaluator,
                                     seed=config.seed)
            cache[key] = (acc - PARSIMONY_PENALTY * len(indices), acc)
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
