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
                          _nearest, _sq_planes, train_classifier)

PARSIMONY_PENALTY = 0.002

# cross-validation folds that score a subset
FOLDS = 5

# kNN cross-validation keeps a split's stacked squared-difference tensor
# while its folds' own (test, train, feature) blocks together hold at most
# this many floats (about 0.8 * rows**2 * features for 5 folds); the +inf
# padding, at most 2 columns per fold, is not counted
KNN_TENSOR_FLOATS = 2 ** 22


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
        for name in ("population", "generations"):
            _check_integer(name, getattr(self, name))
        _check_seed(self.seed)
        # the Generator draws each tournament pick below 2**32 from one
        # 32-bit output, the stream selections are recorded on
        if not 2 <= self.population < 2 ** 32:
            raise ConfigError("population must be in [2, 2**32)")
        if self.generations < 1:
            raise ConfigError("generations must be >= 1")
        for name in ("crossover_rate", "mutation_rate"):
            v = getattr(self, name)
            if isinstance(v, bool) or not 0 <= v <= 1:
                raise ConfigError("%s must be a number in [0, 1], got %r"
                                  % (name, v))


def _check_integer(name, value):
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError("%s must be an integer, got %r" % (name, value))


def _check_seed(seed):
    _check_integer("seed", seed)
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
    """One CV fold at full width: the training set with its own fit, and
    the test rows standardized by that fit, with their labels.  A column
    subset's own fit is a slice of this one (``Standardization.fit``), and
    ``apply`` is elementwise, so the subset's standardized rows are its
    columns of ``train.xz`` and ``test_z``."""

    train: LabeledSet
    test_z: np.ndarray
    test_y: np.ndarray


@dataclass(frozen=True)
class _Split:
    """The non-empty CV folds of one (data, seed) and, once k-NN asks for
    them, their squared differences stacked along the query axis."""

    folds: tuple

    @cached_property
    def stacks_knn(self):
        """Whether k-NN scores subsets from sq_diff: the folds' (test,
        train, feature) blocks hold at most KNN_TENSOR_FLOATS floats."""
        return sum(len(f.test_y) * f.train.x.size for f in self.folds) \
            <= KNN_TENSOR_FLOATS

    @cached_property
    def sq_diff(self):
        """(planes, query_fold, train_y, test_y) for every subset.

        planes holds one C-ordered (all test rows, widest training fold)
        plane per feature.  Each fold's test rows hold the squared
        differences of that fold's standardized test and training rows,
        then +inf in the columns past its own training size: at most 2,
        as stratified training folds differ by at most one row per class.
        query_fold is each test row's fold, train_y[f] fold f's training
        labels, padded alike, and test_y the test labels in row order.
        A finite distance always beats a padding column.
        """
        folds = self.folds
        width = max(len(f.train) for f in folds)
        sizes = [len(f.test_y) for f in folds]
        planes = np.full((folds[0].test_z.shape[1], sum(sizes), width),
                         np.inf)
        test_y = np.concatenate([f.test_y for f in folds])
        train_y = np.zeros((len(folds), width), dtype=test_y.dtype)
        start = 0
        for i, f in enumerate(folds):
            m = len(f.train)
            _sq_planes(f.train.xz.T, f.test_z.T,
                       planes[:, start:start + sizes[i], :m])
            train_y[i, :m] = f.train.y
            start += sizes[i]
        query_fold = np.repeat(np.arange(len(folds)), sizes)
        return planes, query_fold, train_y, test_y


def _cv_folds(data: LabeledSet, seed) -> _Split:
    """The split of data into its non-empty folds, made once per seed; the
    memo on data keeps the latest seed only."""
    _check_seed(seed)  # before the memo, where True would find seed 1
    memo = data._folds
    if seed not in memo:
        y = data.y
        counts = np.unique(y, return_counts=True)[1]
        if len(counts) < 2 or counts.min() < 2:
            raise DegenerateDataError(
                "cross-validation needs both classes, each with >= 2 members")
        assignment = stratified_folds(y, seed=seed)
        folds = []
        for fold in range(FOLDS):
            mask = assignment == fold
            if not mask.any():
                continue
            train_x = np.ascontiguousarray(data.x[~mask])
            std = Standardization.fit(train_x)
            folds.append(_Fold(LabeledSet(train_x, y[~mask], std,
                                          std.apply(train_x)),
                               std.apply(data.x[mask]), y[mask]))
        memo.clear()
        memo[seed] = _Split(tuple(folds))
    return memo[seed]


def cross_val_accuracy(data: LabeledSet, indices, evaluator="knn",
                       seed=0) -> float:
    """Pooled accuracy of the evaluator over stratified CV folds.

    Standardization is fit on each training fold; folds whose training
    side lost a class are impossible by the round-robin construction for
    classes with >= 2 members.  The folds are split and standardized once
    per (data, seed), at full width, and a subset reads its columns of
    them.  A k-NN subset is scored over all folds at once, by one
    _nearest call on the split's stacked squared differences, while the
    folds' blocks fit KNN_TENSOR_FLOATS; any other subset trains on its
    columns of each fold.
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
    if evaluator == "knn" and split.stacks_knn:
        planes, query_fold, train_y, test_y = split.sq_diff
        predicted = train_y[query_fold, _nearest(planes, indices)]
        return np.count_nonzero(predicted == test_y) / len(data.y)
    columns = np.asarray(indices)
    correct = 0
    for fold in split.folds:
        train, std = fold.train, fold.train.standardization
        model = train_classifier(evaluator, LabeledSet(
            np.ascontiguousarray(train.x[:, columns]), train.y,
            Standardization(std.mean[columns], std.std[columns]),
            np.ascontiguousarray(train.xz[:, columns])))
        predicted = model._labels(
            np.ascontiguousarray(fold.test_z[:, columns]))
        correct += np.count_nonzero(predicted == fold.test_y)
    return correct / len(data.y)


def greedy_select(data: LabeledSet, evaluator="knn", max_features=None,
                  seed=0) -> FeatureSubset:
    """Forward selection: repeatedly add the feature that raises CV
    accuracy the most (lowest index on ties); stop when nothing improves
    or max_features is reached."""
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


def genetic_select(data: LabeledSet, evaluator="knn", config=None,
                   return_history=False):
    """Genetic search over feature bitmasks.

    Fitness is CV accuracy minus 0.002 per selected feature; selection is
    tournament of three, recombination uniform crossover, then per-bit
    mutation.  The best individual ever seen is preserved and returned.
    With return_history the per-generation best-ever fitness list (a
    non-decreasing sequence) comes back as a second value.

    The population is a (population, features) boolean array, and each
    generation is bred with array operations from
    np.random.default_rng(config.seed).  A generation draws its
    tournament picks, its crossover coins, its coin masks, its mutation
    masks and then one bit for each child left empty, in that order; the
    first population draws its masks and then one bit per empty mask.  A
    tournament's winner is its pick of highest fitness, the lowest
    position on ties.
    """
    config = config or GaConfig()
    n = data.n_features
    size = config.population
    rng = np.random.default_rng(config.seed)

    cache = {}

    def fitness(mask):
        key = mask.tobytes()
        if key not in cache:
            indices = np.flatnonzero(mask).tolist()
            acc = cross_val_accuracy(data, indices, evaluator,
                                     seed=config.seed)
            cache[key] = (acc - PARSIMONY_PENALTY * len(indices), acc)
        return cache[key]

    def repair(masks):
        """masks with one drawn bit set in each empty row."""
        empty = np.flatnonzero(~masks.any(axis=1))
        masks[empty, rng.integers(0, n, len(empty))] = True
        return masks

    population = repair(rng.random((size, n)) < 0.5)
    best_mask = None
    best_fit = -np.inf
    history = []
    for generation in range(config.generations + 1):
        scores = np.array([fitness(m)[0] for m in population])
        # a tournament's winner has the lowest (-score, position)
        order = np.argsort(-scores, kind="stable")
        if scores[order[0]] > best_fit:
            best_fit = float(scores[order[0]])
            best_mask = population[order[0]]
        if generation == config.generations:
            break  # the final population counts toward best-ever only
        history.append(best_fit)
        rank = np.argsort(order)  # each position's place in order

        picks = rng.integers(0, size, (size - 1, 2, 3))
        pa, pb = population[order[rank[picks].min(axis=2)].T]
        cross = rng.random(size - 1) < config.crossover_rate
        coin = rng.random((size - 1, n)) < 0.5
        flip = rng.random((size - 1, n)) < config.mutation_rate
        children = np.where(coin | ~cross[:, None], pa, pb) ^ flip
        population = np.vstack([best_mask, repair(children)])  # elitism

    accuracy = fitness(best_mask)[1]
    subset = FeatureSubset(tuple(np.flatnonzero(best_mask).tolist()),
                           accuracy)
    if return_history:
        return subset, history
    return subset
