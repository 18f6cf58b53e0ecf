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

# kNN cross-validation keeps a split's two stacked squared-difference
# tensors, one for one-column subsets and one for wider ones, while its
# folds' own (test, train, feature) blocks together hold at most this many
# floats (about 0.8 * rows**2 * features for 5 folds), so a split holds at
# most twice this many; the +inf padding, at most 2 columns per fold, is
# not counted
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
        # tournaments draw below the population size from 32-bit outputs
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
    def stacks_knn(self):
        """Whether k-NN scores subsets from sq_diff and sq_diff_lone: the
        folds' (test, train, feature) blocks hold at most
        KNN_TENSOR_FLOATS floats."""
        return sum(len(f.test_y) * f.train_x.size for f in self.folds) \
            <= KNN_TENSOR_FLOATS

    def _stack(self, fit):
        """(planes, query_fold, train_y, test_y), with each fold's
        standardization fit(train_x).

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
        width = max(len(f.train_y) for f in folds)
        sizes = [len(f.test_y) for f in folds]
        planes = np.full((folds[0].test_x.shape[1], sum(sizes), width),
                         np.inf)
        test_y = np.concatenate([f.test_y for f in folds])
        train_y = np.zeros((len(folds), width), dtype=test_y.dtype)
        start = 0
        for i, f in enumerate(folds):
            std = fit(f.train_x)
            m = len(f.train_y)
            planes[:, start:start + sizes[i], :m] = _sq_planes(
                std.apply(f.train_x), std.apply(f.test_x))
            train_y[i, :m] = f.train_y
            start += sizes[i]
        query_fold = np.repeat(np.arange(len(folds)), sizes)
        return planes, query_fold, train_y, test_y

    @cached_property
    def sq_diff(self):
        """The stack fit on C-ordered rows: from two columns up numpy sums
        a subset's columns row by row, as in the subset's own fit."""
        return self._stack(Standardization.fit)

    @cached_property
    def sq_diff_lone(self):
        """The stack fit on Fortran-ordered rows: numpy reduces each column
        contiguously, as in a one-column subset's own fit."""
        return self._stack(
            lambda x: Standardization.fit(np.asfortranarray(x)))


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
    A k-NN subset is scored over all folds at once, by one _nearest call
    on the split's stacked squared differences (sq_diff_lone for one
    column, sq_diff from two up), while the folds' blocks fit
    KNN_TENSOR_FLOATS; any other subset refits its own columns per fold.
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
        planes, query_fold, train_y, test_y = \
            split.sq_diff if len(indices) > 1 else split.sq_diff_lone
        predicted = train_y[query_fold, _nearest(planes, indices)]
        return np.count_nonzero(predicted == test_y) / len(data.y)
    columns = np.asarray(indices)
    correct = 0
    for fold in split.folds:
        x = np.ascontiguousarray(fold.train_x[:, columns])
        std = Standardization.fit(x)
        model = train_classifier(evaluator,
                                 LabeledSet(x, fold.train_y, std,
                                            std.apply(x)))
        predicted = predict_labels(
            model, np.ascontiguousarray(fold.test_x[:, columns]))
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


# raw PCG64 words a _Pcg64Draws reads at a time
DRAW_CHUNK = 4096


class _Pcg64Draws:
    """The draws genetic_select makes of np.random.default_rng(seed),
    decoded from the raw words of its PCG64 bit generator.

    random() is a word's top 53 bits times 2**-53, so random(n) < t is a
    word's top 53 bits below t * 2**53, and ``below`` reads n of those
    tests as the bits of an int.  ``integers(k, size)`` is integers(0, k,
    size=size): each value takes a 32-bit output, the low half of a fresh
    word, then that word's high half, which PCG64 keeps for the next
    32-bit output whatever doubles are drawn in between.  An output x
    gives (x * k) >> 32 unless the product's low 32 bits fall below
    2**32 % k, when the next output is drawn instead (Lemire, "Fast
    Random Integer Generation in an Interval", ACM TOMACS 2019); k == 1
    draws nothing.  Words are read DRAW_CHUNK at a time.  On first use,
    each chunk's tests below t are packed into one int per t, and its
    Lemire values are listed per k, so a draw reads bits and list slots.
    """

    def __init__(self, seed):
        self._bitgen = np.random.PCG64(seed)
        self._words = np.empty(0, dtype=np.uint64)
        self._at = 0  # the next fresh word
        self._kept = -1  # the 32-bit slot of the kept high half, or -1
        self._refill(0)

    def _refill(self, need):
        """Read at least need more words after the unread ones, keeping
        the word whose high half is kept; slot 2i is word i's low half
        and slot 2i + 1 its high half."""
        kept = self._words[self._kept // 2:self._kept // 2 + 1] \
            if self._kept >= 0 else self._words[:0]
        self._words = np.concatenate([
            kept, self._words[self._at:],
            self._bitgen.random_raw(max(DRAW_CHUNK, need))])
        self._at = len(kept)
        self._kept = 1 if len(kept) else -1
        self._top = self._words >> np.uint64(11)
        self._below = {}
        self._lemire = {}

    def random(self) -> float:
        if self._at == len(self._words):
            self._refill(1)
        self._at += 1
        return int(self._top[self._at - 1]) * 2.0 ** -53

    def below(self, t, n) -> int:
        """random(n) < t as an int whose bit j is draw j's test."""
        if self._at + n > len(self._words):
            self._refill(n)
        packed = self._below.get(t)
        if packed is None:
            bits = np.packbits(self._top < t * 2.0 ** 53, bitorder="little")
            packed = self._below[t] = int.from_bytes(bits.tobytes(), "little")
        mask = (packed >> self._at) & ((1 << n) - 1)
        self._at += n
        return mask

    def _bounded(self, k):
        """Lemire's value below k per slot of the chunk, -1 where the slot
        is rejected, for k in [2, 2**32)."""
        values = self._lemire.get(k)
        if values is None:
            halves = self._words.astype("<u8").view("<u4")
            product = halves.astype(np.uint64) * np.uint64(k)
            scaled = (product >> np.uint64(32)).astype(np.int64)
            scaled[(product & np.uint64(0xFFFFFFFF))
                   < np.uint64(2 ** 32 % k)] = -1
            values = self._lemire[k] = scaled.tolist()
        return values

    def integers(self, k, size) -> list:
        """integers(0, k, size=size) as a list, for k in [1, 2**32)."""
        if k == 1:
            return [0] * size
        values = self._bounded(k)
        kept = self._kept
        start = 2 * self._at
        stop = start + size - (kept >= 0)
        picks = values[start:stop]
        if stop <= len(values) and -1 not in picks \
                and (kept < 0 or values[kept] >= 0):
            # nothing rejected: the kept half, then slots start..stop-1
            self._at = (stop + 1) // 2
            self._kept = stop if stop % 2 else -1
            return picks if kept < 0 else [values[kept]] + picks
        out = []
        while len(out) < size:
            slot = self._kept
            if slot >= 0:
                self._kept = -1
            else:
                if self._at == len(self._words):
                    self._refill(1)
                    values = self._bounded(k)
                slot = 2 * self._at
                self._at += 1
                self._kept = slot + 1
            if values[slot] >= 0:
                out.append(values[slot])
        return out


def genetic_select(data: LabeledSet, evaluator="knn", config=None,
                   return_history=False):
    """Genetic search over feature bitmasks.

    Fitness is CV accuracy minus 0.002 per selected feature; selection is
    tournament of three, recombination uniform crossover, then per-bit
    mutation.  The best individual ever seen is preserved and returned.
    With return_history the per-generation best-ever fitness list (a
    non-decreasing sequence) comes back as a second value.

    A mask is an int whose bit j selects feature j.  The draws are those
    of np.random.default_rng(config.seed), decoded from its PCG64 words
    by _Pcg64Draws, so a seed selects what it selected with the
    Generator's own calls.
    """
    config = config or GaConfig()
    n = data.n_features
    size = config.population
    rng = _Pcg64Draws(config.seed)

    cache = {}

    def fitness(mask):
        if mask not in cache:
            indices = [j for j in range(n) if mask >> j & 1]
            acc = cross_val_accuracy(data, indices, evaluator,
                                     seed=config.seed)
            cache[mask] = (acc - PARSIMONY_PENALTY * len(indices), acc)
        return cache[mask]

    population = []
    while len(population) < size:
        mask = rng.below(0.5, n)
        if mask:
            population.append(mask)

    best_mask = 0
    best_fit = -np.inf
    history = []
    for generation in range(config.generations + 1):
        scores = [fitness(m)[0] for m in population]
        # a tournament's winner has the lowest (-score, position)
        order = sorted(range(size), key=scores.__getitem__, reverse=True)
        if scores[order[0]] > best_fit:
            best_fit = scores[order[0]]
            best_mask = population[order[0]]
        if generation == config.generations:
            break  # the final population counts toward best-ever only
        history.append(best_fit)
        rank = [0] * size
        for r, i in enumerate(order):
            rank[i] = r
        ranked = [population[i] for i in order]

        population = [best_mask]  # elitism
        while len(population) < size:
            picks = rng.integers(size, 6)
            pa = ranked[min(rank[picks[0]], rank[picks[1]], rank[picks[2]])]
            pb = ranked[min(rank[picks[3]], rank[picks[4]], rank[picks[5]])]
            if rng.random() < config.crossover_rate:
                coin = rng.below(0.5, n)
                child = (pa & coin) | (pb & ~coin)
            else:
                child = pa
            child ^= rng.below(config.mutation_rate, n)
            if not child:
                child = 1 << rng.integers(n, 1)[0]
            population.append(child)

    accuracy = fitness(best_mask)[1]
    indices = tuple(j for j in range(n) if best_mask >> j & 1)
    subset = FeatureSubset(indices, accuracy)
    if return_history:
        return subset, history
    return subset
