"""Supervised detectors behind one train/predict contract.

Three classifiers label standardized feature vectors +1 (normal) or -1
(anomalous): a linear soft-margin SVM fit by deterministic subgradient
descent, a Euclidean nearest-neighbor memorizer fixed at k=1, and a
decision tree grown on gain ratio whose branches are flattened into
ordered, pruned if-then rules.  ``predict_labels`` scores a whole
feature matrix in one call per model.  Training uses no randomness:
identical data and hyperparameters give bit-identical models.  The SVM
takes its C and epoch count as arguments; C4.5 always grows with
C45_MIN_LEAF and prunes at C45_CF.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (ConfigError, DegenerateDataError, NORMAL, ANOMALOUS,
                   SchemaError, SentinelError, is_finite_number, json_float,
                   read_json, write_json)

# eq=False here and on the models: numpy arrays have no field-wise ==, so
# two instances compare by identity; compare model content by saved JSON
@dataclass(frozen=True, eq=False)
class Standardization:
    """Per-feature z-scoring; zero-spread features keep scale 1."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, x) -> "Standardization":
        """The columns' means and spreads; one that overflows raises
        SentinelError naming the first such column."""
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            mean = x.mean(axis=0)
            std = x.std(axis=0)
        bad = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(std)))
        if len(bad):
            raise SentinelError("feature column %d: the mean or spread "
                                "overflows float range" % bad[0])
        std = np.where(std > 0, std, 1.0)
        return cls(mean, std)

    def apply(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.mean.shape[0]:
            raise SchemaError("expected %d features, got %d"
                              % (self.mean.shape[0], x.shape[-1]))
        return (x - self.mean) / self.std

    def to_json(self):
        return {"mean": self.mean.tolist(), "std": self.std.tolist()}

    @classmethod
    def from_json(cls, doc):
        return cls(json_float(doc["mean"], "standardization", _floats),
                   json_float(doc["std"], "standardization", _floats))


def _floats(values) -> np.ndarray:
    return np.asarray(values, dtype=float)


@dataclass(frozen=True)
class LabeledSet:
    """Feature matrix with +1/-1 labels and the fitted standardization.

    Treat a built set as read-only: cross-validation remembers its folds
    on the set, so changing ``x`` or ``y`` afterwards would go unseen.
    """

    x: np.ndarray
    y: np.ndarray
    standardization: Standardization
    xz: np.ndarray  # standardized copy of x
    # featsel's cross-validation folds, one seed at a time
    _folds: dict = field(default_factory=dict, init=False, compare=False,
                         repr=False)

    @classmethod
    def from_raw(cls, x, y) -> "LabeledSet":
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=int)
        if x.ndim != 2 or x.shape[1] == 0:
            raise SchemaError("feature matrix must be 2-D with >= 1 column")
        if x.shape[0] != y.shape[0]:
            raise SchemaError("feature/label length mismatch: %d vs %d"
                              % (x.shape[0], y.shape[0]))
        if x.shape[0] == 0:
            raise DegenerateDataError("empty training set")
        if not np.isfinite(x).all():
            raise SentinelError("non-finite feature values")
        if not np.all((y == NORMAL) | (y == ANOMALOUS)):
            raise ConfigError("labels must be +1 or -1")
        std = Standardization.fit(x)
        return cls(x, y, std, std.apply(x))

    def __len__(self):
        return self.x.shape[0]

    @property
    def n_features(self):
        return self.x.shape[1]

    def both_classes(self) -> bool:
        return len(np.unique(self.y)) == 2


def _require_two_classes(data):
    if not data.both_classes():
        raise DegenerateDataError("training data must contain both classes")


# ---------------------------------------------------------------------------
# linear soft-margin SVM


@dataclass(frozen=True, eq=False)
class SvmModel:
    weights: np.ndarray
    bias: float
    c_param: float
    standardization: Standardization

    kind = "svm"

    def _labels(self, z) -> np.ndarray:
        """Sign of the margin per standardized row; a zero score is NORMAL.

        Each row keeps its own dot product: a matrix-vector product rounds
        differently and would move rows that sit on the boundary.
        """
        w = self.weights
        scores = np.fromiter((w @ zi for zi in z), dtype=float, count=len(z))
        return np.where(scores + self.bias >= 0.0, NORMAL, ANOMALOUS)

    def _body(self) -> dict:
        return {"weights": self.weights.tolist(), "bias": self.bias,
                "c_param": self.c_param}

    @classmethod
    def _from_body(cls, doc, std, d):
        weights = json_float(doc["weights"], "weights", _floats)
        if weights.shape != (d,) or not np.isfinite(weights).all():
            raise SchemaError("weights: expected %d finite values" % d)
        bias = json_float(doc["bias"], "bias")
        if not math.isfinite(bias):
            raise SchemaError("bias: expected a finite value, got %r" % bias)
        return cls(weights, bias, json_float(doc["c_param"], "c_param"), std)


def svm_objective(w, data, bias, c_param):
    """Primal objective ||w||^2 / 2 + C * sum hinge on standardized data."""
    margins = 1.0 - data.y * (data.xz @ w + bias)
    np.maximum(margins, 0.0, out=margins)
    return 0.5 * float(w @ w) + c_param * float(margins.sum())


# A certified run shorter than _SVM_SHORT_RUN samples does not repay its
# matrix-vector products.  After one, training takes plain per-sample steps,
# 1, 2, 4, ... up to _SVM_MAX_PLAIN of them while runs stay short, before it
# certifies again, so data dense in updates costs about what the plain loop
# costs.
_SVM_SHORT_RUN = 16
_SVM_MAX_PLAIN = 256

_U = np.finfo(float).eps / 2  # unit roundoff, 2**-53
_TINY = 2.0 ** -1000  # 2**74 times the smallest subnormal


def _decayed(w, decay, k) -> np.ndarray:
    """``w`` after ``k`` in-place ``w *= decay`` steps, bit for bit.

    ``multiply.accumulate`` down the rows ``[w, decay, ..., decay]`` is
    the recurrence ``r[i] = r[i - 1] * decay``: one rounded multiply per
    step, as each in-place step rounds.
    """
    rows = np.full((k + 1, len(w)), decay)
    rows[0] = w
    return np.multiply.accumulate(rows)[k]


class _HingeSkip:
    """Which upcoming hinge tests of ``svm_train`` are certain not to fire.

    Let samples i, i+1, ... be reached with no update in between, so
    sample j sees w_k, the weights w after k = j - i + 1 in-place
    ``w *= decay`` steps, and its test ``y * (z @ w_k + b) < 1.0`` fires
    iff y * fl(D + b) < 1 with D = fl(z . w_k), summed in any order.
    With u = 2**-53, lambda = 2**-1074 (the smallest subnormal),
    gamma_m = m u / (1 - m u), d features, delta = decay and
    A = sum |z| |w|:

    1. Decays: each multiply rounds by at most u relative or lambda / 2
       absolute (underflow), so w_k = w delta**k (1 + theta) + eps per
       element with |theta| <= gamma_k and |eps| <= k lambda.
    2. Dot products: for any summation order, fused or not,
       |fl(x . v) - x . v| <= gamma_d sum |x| |v| + d lambda (Higham,
       Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002,
       section 3.1).  So D is within gamma_d delta**k A (1 + gamma_k)
       of z . w_k, and by 1. z . w_k is within gamma_k delta**k A of
       delta**k z . w, both up to lambda terms.
    3. The estimate is E = fl(fl(y z . w) P_k), one matrix-vector product
       for the whole run, with P_k = delta**k (1 + theta') taken by
       ``cumprod`` (|theta'| <= gamma_(k-1), plus k lambda): within
       delta**k A (gamma_d + gamma_k + u) of y delta**k z . w.
    4. So |y D - E| <= delta**k A (2 gamma_d + 2 gamma_k + u), to first
       order, plus at most 8 (k + d)(1 + sum |z| + A) lambda.  The slack
       s = 4 (d + k + 2) u P_k fl(|z| . |w|) + _TINY ((k + d)
       fl(|z| . |w|) + (n + d)(1 + max sum |z|)) covers that twice over,
       with the rounding of fl(|z| . |w|) (gamma_d, 2. again), of P_k,
       of s itself and of Lo = fl(E - s) (u (|E| + s)) inside the factor
       2, and the lambda terms 2**74 times over.  Hence Lo <= y D.
    5. y * fl(D + b) = fl(y D + y b) because y is +1 or -1 and rounding
       to nearest is symmetric, and x -> fl(x + y b) is nondecreasing.
       So fl(Lo + y b) >= 1 means the test cannot fire.

    Decay clamped at 0 fits 1.-4. with delta**k = 0.  Weights and
    margins stay far below overflow.  ``sure`` checks 5. for a run; the
    first sample it cannot certify ends the run and steps as usual.
    """

    def __init__(self, z, y):
        n, d = z.shape
        self.y = y
        self.yz = y[:, None] * z
        self.absz = np.abs(z)
        k = np.arange(1, n + 1)
        self.rel = 4.0 * (d + k + 2) * _U
        self.tiny = _TINY * (k + d)
        self.floor = _TINY * (n + d) * (1.0 + self.absz.sum(axis=1).max())

    def sure(self, i, w, b, powers) -> np.ndarray:
        """True for each of samples i, i+1, ... whose hinge test is certain
        not to fire when it is reached from weights ``w`` and bias ``b``
        by decays alone.  ``powers`` is the epoch's ``cumprod`` of n
        decays; a ``cumprod`` prefix is bit for bit that of fewer."""
        m = len(self.y) - i
        powers = powers[:m]
        low = self.yz[i:] @ w
        low *= powers
        slack = self.absz[i:] @ np.abs(w)
        slack *= self.rel[:m] * powers + self.tiny[:m]
        slack += self.floor
        low -= slack
        low += self.y[i:] * b
        return low >= 1.0


def svm_train(data: LabeledSet, c_param=1.0, epochs=200) -> SvmModel:
    """Deterministic epoch-ordered subgradient descent from w = 0.

    Epoch t sweeps the samples in data order applying per-sample
    subgradient steps at rate 1 / (c_param * t); the rate decays per
    epoch, not per sample, so early epochs move freely and later ones
    settle.  The returned weights are the best iterate by objective over
    all epoch ends, so the final objective never exceeds the initial
    c_param * n.

    Most hinge tests do not fire once training settles.  One
    matrix-vector product bounds a run of upcoming margins, and the
    samples certified not to fire (``_HingeSkip`` proves the rule) only
    decay the weights, applied by ``_decayed`` bit for bit.  Every other
    sample steps as the plain per-sample loop does, so the model is
    bit-identical to that loop's.
    """
    if not (c_param > 0 and math.isfinite(c_param)):
        raise ConfigError("c_param must be a finite number > 0, got %r"
                          % (c_param,))
    if type(epochs) is not int or epochs < 1:
        raise ConfigError("epochs must be an integer >= 1, got %r"
                          % (epochs,))
    _require_two_classes(data)

    z = data.xz
    n = len(z)
    y = data.y.astype(float)
    samples = list(zip(y.tolist(), z))
    skip = _HingeSkip(z, y)

    w = np.zeros(z.shape[1])
    b = 0.0
    best_w, best_b = w.copy(), b
    best_obj = svm_objective(w, data, b, c_param)
    plain = backoff = 0
    for t in range(1, epochs + 1):
        eta = 1.0 / (c_param * t)
        # per-epoch constants; step * yi * zi groups as the per-sample
        # eta * c_param * yi * zi did, so every rounding is the same
        decay = max(1.0 - eta / n, 0.0)
        step = eta * c_param
        powers = None  # the decay powers, once a run is checked
        i = 0
        while i < n:
            if plain:
                end = min(n, i + plain)
                plain -= end - i
            else:
                if powers is None:
                    powers = np.cumprod(np.full(n, decay))
                sure = skip.sure(i, w, b, powers)
                run = int(sure.argmin())
                if sure[run]:
                    run = len(sure)
                if run:
                    w[:] = _decayed(w, decay, run)
                    i += run
                if run < _SVM_SHORT_RUN:
                    backoff = min(2 * backoff, _SVM_MAX_PLAIN) if backoff else 1
                    plain = backoff
                else:
                    backoff = 0
                end = min(n, i + 1)  # the first uncertain sample
            for yi, zi in samples[i:end]:
                w *= decay
                if yi * (zi @ w + b) < 1.0:
                    w += step * yi * zi
                    b += step * yi
            i = end
        obj = svm_objective(w, data, b, c_param)
        if obj < best_obj:
            best_obj, best_w, best_b = obj, w.copy(), b
    return SvmModel(best_w, best_b, c_param, data.standardization)


# ---------------------------------------------------------------------------
# nearest neighbor (Euclidean, k fixed at 1)


# kNN scores queries in blocks whose squared-difference planes, one per
# feature, would hold at most this many floats; the planes are built in
# turn into one reused (block, stored) buffer
KNN_BLOCK_FLOATS = 65536


def _sq_planes(stored, queries) -> np.ndarray:
    """Squared differences ``(stored - query) ** 2`` of the (stored,
    features) and (queries, features) rows, as one C-ordered (queries,
    stored) plane per feature."""
    diff = np.subtract(stored.T[:, None, :], queries.T[:, :, None], order="C")
    return diff * diff


class _PlaneView:
    """``_sq_planes(stored, queries)[c]`` built on lookup into ``out``, one
    (queries, stored) buffer that the next lookup overwrites."""

    def __init__(self, stored, queries, out):
        self.stored, self.queries, self.out = stored, queries, out

    def __getitem__(self, c):
        diff = np.subtract(self.stored[:, c], self.queries[:, c, None],
                           out=self.out)
        return np.multiply(diff, diff, out=diff)


def _nearest(planes, columns) -> np.ndarray:
    """Index of the nearest stored vector per query, from the sum of the
    squared-difference planes ``planes[c]`` added in ``columns`` order;
    distance ties pick the lowest stored index.  The sum starts from a
    copy of the first plane, as 0.0 + x is x for a square.

    The square root is kept: it can round two different sums to one
    distance, and so decide a tie.
    """
    columns = iter(columns)
    total = planes[next(columns)].copy()
    for c in columns:
        total += planes[c]
    return np.sqrt(total, out=total).argmin(axis=1)


@dataclass(frozen=True, eq=False)
class KnnModel:
    points: np.ndarray  # standardized stored vectors
    labels: np.ndarray
    standardization: Standardization

    kind = "knn"

    def _labels(self, z) -> np.ndarray:
        """Label of the nearest stored vector per standardized row; distance
        ties pick the lowest stored index."""
        points = self.points
        block = max(1, KNN_BLOCK_FLOATS // max(points.size, 1))
        buffer = np.empty((min(block, len(z)), len(points)))
        nearest = np.empty(len(z), dtype=np.intp)
        for start in range(0, len(z), block):
            queries = z[start:start + block]
            nearest[start:start + block] = _nearest(
                _PlaneView(points, queries, buffer[:len(queries)]),
                range(z.shape[1]))
        return self.labels[nearest]

    def _body(self) -> dict:
        return {"points": self.points.tolist(), "labels": self.labels.tolist(),
                "k": 1, "metric": "euclidean"}

    @classmethod
    def _from_body(cls, doc, std, d):
        """``k`` must be the JSON integer 1 and ``labels`` JSON integers
        +1 or -1, one per point."""
        if type(doc["k"]) is not int or doc["k"] != 1:
            raise ConfigError("only k=1 is supported, as a JSON integer, got "
                              "k=%r" % (doc["k"],))
        points = json_float(doc["points"], "points", _floats)
        if points.ndim != 2 or points.shape[1] != d or not len(points) \
                or not np.isfinite(points).all():
            raise SchemaError("points: expected a non-empty, finite (m, %d) "
                              "matrix" % d)
        labels = doc["labels"]
        if not isinstance(labels, list) or len(labels) != len(points) \
                or any(type(v) is not int or v not in (NORMAL, ANOMALOUS)
                       for v in labels):
            raise SchemaError("labels: expected %d integers +1 or -1"
                              % len(points))
        if doc["metric"] != "euclidean":
            raise SchemaError("metric: expected euclidean, got %r"
                              % (doc["metric"],))
        return cls(points, np.array(labels, dtype=int), std)


def knn_train(data: LabeledSet) -> KnnModel:
    _require_two_classes(data)
    return KnnModel(data.xz.copy(), data.y.copy(), data.standardization)


# ---------------------------------------------------------------------------
# C4.5-style tree with rule extraction


# fewest training rows on each side of a split
C45_MIN_LEAF = 2
# confidence of the pessimistic error bound that prunes rule conditions
C45_CF = 0.25


@dataclass(frozen=True)
class Rule:
    """Conjunctive conditions (feature index, '<=' or '>', threshold) and a
    class; ``error`` is the rule's training error rate after pruning."""

    conditions: tuple
    klass: int
    error: float = 0.0


@dataclass(frozen=True, eq=False)
class C45Model:
    rules: tuple
    default_class: int
    standardization: Standardization

    kind = "c45"

    def _labels(self, z) -> np.ndarray:
        """Class of the first rule matching each standardized row, or the
        default class."""
        labels = np.full(len(z), self.default_class, dtype=int)
        unassigned = np.ones(len(z), dtype=bool)
        for rule in self.rules:
            hit = unassigned & _coverage(rule.conditions, z)
            labels[hit] = rule.klass
            unassigned &= ~hit
        return labels

    def _body(self) -> dict:
        return {"rules": [{"conditions": [list(c) for c in r.conditions],
                           "class": r.klass, "error": r.error}
                          for r in self.rules],
                "default_class": self.default_class}

    @classmethod
    def _from_body(cls, doc, std, d):
        """``rules`` must be a list, feature indices and classes JSON
        integers, thresholds finite numbers and errors numbers in [0, 1]; a
        value that is not raises SchemaError naming ``rules``, ``rules[i]``
        or ``default_class``."""
        default_class = doc["default_class"]
        if type(default_class) is not int \
                or default_class not in (NORMAL, ANOMALOUS):
            raise SchemaError("default_class: expected the integer +1 or -1, "
                              "got %r" % (default_class,))
        if not isinstance(doc["rules"], list):
            raise SchemaError("rules: expected a list, got %r"
                              % (doc["rules"],))
        rules = []
        for i, r in enumerate(doc["rules"]):
            try:
                conds = tuple(map(tuple, r["conditions"]))
                for f, op, thr in conds:
                    if type(f) is not int or not 0 <= f < d \
                            or op not in ("<=", ">") \
                            or not is_finite_number(thr):
                        raise ValueError("condition %r needs an integer "
                                         "feature in [0, %d), <= or > and a "
                                         "finite threshold" % ([f, op, thr], d))
                klass, error = r["class"], r["error"]
                if type(klass) is not int or klass not in (NORMAL, ANOMALOUS):
                    raise ValueError("class must be the integer +1 or -1, "
                                     "got %r" % (klass,))
                if not (is_finite_number(error) and 0 <= error <= 1):
                    raise ValueError("error must be a number in [0, 1], got %r"
                                     % (error,))
                rules.append(Rule(tuple((f, op, float(thr))
                                        for f, op, thr in conds),
                                  klass, float(error)))
            except KeyError as exc:
                raise SchemaError("rules[%d]: missing key %s" % (i, exc))
            except (ArithmeticError, TypeError, ValueError) as exc:
                raise SchemaError("rules[%d]: %s" % (i, exc))
        return cls(tuple(rules), default_class, std)


def _majority(y):
    pos = int((y == NORMAL).sum())
    neg = int((y == ANOMALOUS).sum())
    return NORMAL if pos >= neg else ANOMALOUS


def _plogp(p) -> np.ndarray:
    """``p * log2(p)`` per element of the 1-D array ``p``, 0 where p is 0,
    from ``math.log2`` of each distinct p: ``np.log2`` may round differently."""
    values, inverse = np.unique(p, return_inverse=True)
    logs = [math.log2(v) if v > 0 else 0.0 for v in values.tolist()]
    return p * np.array(logs)[inverse]


def _entropy2(pos, total) -> np.ndarray:
    """Two-class entropy per element from integer arrays of positive and
    total row counts, summed in class order: 0 - t(pos) - t(neg)."""
    return 0.0 - _plogp(pos / total) - _plogp((total - pos) / total)


def _best_split(x, y):
    """Highest-gain-ratio binary split on a midpoint threshold (the lower
    value where the midpoint rounds up to the upper one).

    Candidate cuts sit between adjacent distinct values whose blocks are
    not both pure of the same class; ties prefer the lowest feature index,
    then the lowest threshold.  Returns (feature, threshold) or None when
    no cut has positive gain and children of C45_MIN_LEAF rows or more.

    All features and cuts are scored at once: each column is sorted
    stably, and each cut's block bounds and prefix counts of positive
    rows give its children.  Each cut's floats take one fixed operation
    order, so no result depends on how many cuts are scored together, and
    ``argmax`` takes the first maximum: the lowest feature, then cut.
    """
    n = len(y)
    order = np.argsort(x, axis=0, kind="stable")
    xs = np.take_along_axis(x, order, axis=0)
    cum = np.zeros((n + 1, x.shape[1]), dtype=np.int64)
    np.cumsum(y[order] == NORMAL, axis=0, out=cum[1:])
    # cut between sorted rows r and r + 1 of column j, feature-major
    j, r = np.nonzero((xs[1:] != xs[:-1]).T)
    end = r + 1  # rows left of the cut; its blocks are [start, end), [end, stop)
    same = j[1:] == j[:-1]
    start = np.zeros_like(end)
    start[1:][same] = end[:-1][same]
    stop = np.full_like(end, n)
    stop[:-1][same] = end[1:][same]
    pos = cum[end, j]
    pos_a, pos_b = pos - cum[start, j], cum[stop, j] - pos
    pure = (((pos_a == end - start) & (pos_b == stop - end))
            | ((pos_a == 0) & (pos_b == 0)))
    keep = (end >= C45_MIN_LEAF) & (n - end >= C45_MIN_LEAF) & ~pure
    j, r, end, pos = j[keep], r[keep], end[keep], pos[keep]
    m, total_pos = len(end), cum[n, 0]
    h = _entropy2(np.r_[total_pos, pos, total_pos - pos], np.r_[n, end, n - end])
    left, right = end / n, (n - end) / n
    gain = h[0] - left * h[1:m + 1] - right * h[m + 1:]
    t = _plogp(np.r_[left, right])
    ratio = np.where(gain > 1e-12, gain / -(t[:m] + t[m:]), 0.0)
    if not ratio.any():  # no cut with positive gain
        return None
    best = ratio.argmax()
    jb, rb = int(j[best]), r[best]
    lo, hi = xs[rb, jb], xs[rb + 1, jb]
    mid = (lo + hi) / 2.0
    # between adjacent floats the midpoint can round up to hi; a cut there
    # is not the one scored, and splits nothing when hi's block is the last
    return jb, (mid if mid < hi else lo)


def _rules(x, y, prefix=()):
    """Each root-to-leaf Rule of the gain-ratio tree grown on (x, y), the
    ``<=`` branch first; ``prefix`` holds the conditions above the node."""
    split = _best_split(x, y) if len(np.unique(y)) > 1 else None
    if split is None:
        yield Rule(prefix, _majority(y))
        return
    j, thr = split
    mask = x[:, j] <= thr
    for op, rows in (("<=", mask), (">", ~mask)):
        yield from _rules(x[rows], y[rows], prefix + ((j, op, float(thr)),))


@functools.cache
def _beta_ppf():
    """The beta quantile, chosen once per process: the ufunc behind
    scipy.stats.beta.ppf, which returns its value * scale 1.0 + loc 0.0, or
    on a scipy.special without it beta.ppf itself (45 MB more to import)."""
    try:
        from scipy.special._ufuncs import _beta_ppf
        return _beta_ppf
    except ImportError:
        from scipy.stats import beta
        return beta.ppf


# Pruning asks for few distinct (errors, n): 1488 in the 145,611 calls of one
# genetic c45 selection on 120 rows.  4096 entries hold such a search's set.
@functools.lru_cache(maxsize=4096)
def binom_upper(errors, n, cf):
    """Upper confidence bound of a binomial error rate at confidence cf.

    The pessimistic estimate behind rule pruning: the largest error
    probability under which observing <= errors mistakes in n cases still
    has probability cf: scipy.stats.beta.ppf(1 - cf, errors + 1, n - errors)
    bit for bit, computed as beta.ppf computes it (see ``_beta_ppf``).
    """
    if n <= 0 or errors >= n:
        return 1.0
    return float(_beta_ppf()(1.0 - cf, errors + 1, n - errors) * 1.0 + 0.0)


def _coverage(conditions, xz):
    mask = np.ones(len(xz), dtype=bool)
    for feat, op, thr in conditions:
        col = xz[:, feat]
        mask &= (col <= thr) if op == "<=" else (col > thr)
    return mask


def _simplify(rule, xz, y):
    """Greedily drop the condition whose removal most lowers the
    pessimistic error, ``binom_upper`` of the rows the rest covers; a tie
    (no worse) still drops, preferring shorter rules, then the lowest
    index.  Each condition's mask is built once, and "drop i" covers the
    AND of the masks before i and of those after it."""
    conds = list(rule.conditions)
    masks = [_coverage((c,), xz) for c in conds]
    wrong = y != rule.klass

    def pessimistic(mask):
        return binom_upper(int(np.count_nonzero(mask & wrong)),
                           int(np.count_nonzero(mask)), C45_CF)

    current = pessimistic(_coverage(conds, xz))
    while conds:
        prefix = suffix = [np.ones(len(y), dtype=bool)]
        for mask in masks:
            prefix = prefix + [prefix[-1] & mask]
        for mask in reversed(masks):
            suffix = [mask & suffix[0]] + suffix
        cand, i = min((pessimistic(prefix[i] & suffix[i + 1]), i)
                      for i in range(len(conds)))
        if cand > current:
            break
        del conds[i], masks[i]
        current = cand
    return Rule(tuple(conds), rule.klass)


def c45_train(data: LabeledSet) -> C45Model:
    """Grow a gain-ratio tree, flatten it to rules, prune and order them.

    Each root-to-leaf path becomes a rule; conditions are dropped while
    the pessimistic (binomial upper bound) error does not rise; duplicate
    and condition-free rules are removed; survivors sort by ascending
    training error.  The default class is the majority among training
    cases no rule covers (overall majority when everything is covered).
    """
    _require_two_classes(data)

    xz, y = data.xz, data.y
    rules, seen = [], set()
    for raw in _rules(xz, y):
        simplified = _simplify(raw, xz, y)
        if not simplified.conditions:
            continue
        key = (simplified.conditions, simplified.klass)
        if key in seen:
            continue
        seen.add(key)
        mask = _coverage(simplified.conditions, xz)
        n = int(mask.sum())
        err = float((y[mask] != simplified.klass).sum() / n) if n else 1.0
        rules.append(Rule(simplified.conditions, simplified.klass, err))

    rules.sort(key=lambda r: r.error)
    covered = np.zeros(len(y), dtype=bool)
    for rule in rules:
        covered |= _coverage(rule.conditions, xz)
    uncovered = y[~covered]
    default = _majority(uncovered) if uncovered.size else _majority(y)
    return C45Model(tuple(rules), default, data.standardization)


# ---------------------------------------------------------------------------
# dispatch and model files


def train_classifier(kind, data, **hyper):
    # trainers resolve by module name at call time, so wrappers see them
    if kind == "svm":
        return svm_train(data, **hyper)
    if kind == "knn":
        return knn_train(data, **hyper)
    if kind == "c45":
        return c45_train(data, **hyper)
    raise ConfigError("unknown classifier kind %r" % (kind,))


_MODELS = {cls.kind: cls for cls in (SvmModel, KnnModel, C45Model)}
CLASSIFIER_KINDS = tuple(_MODELS)


def model_kind(model) -> str:
    """Kind string of a trained model; ConfigError for any other object."""
    if type(model) not in _MODELS.values():
        raise ConfigError("unknown model type %r" % type(model).__name__)
    return model.kind


def predict_labels(model, x) -> np.ndarray:
    """Label (+1 or -1) of every row of the 2-D feature matrix ``x``."""
    model_kind(model)
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise SchemaError("feature matrix must be 2-D")
    return model._labels(model.standardization.apply(x))


def predict_label(model, x) -> int:
    """Label of one feature vector: a one-row view of predict_labels."""
    return int(predict_labels(model, [x])[0])


# the per-kind one-row names, kept as views of the same path
def svm_predict(model: SvmModel, x) -> int:
    return predict_label(model, x)


def knn_predict(model: KnnModel, x) -> int:
    return predict_label(model, x)


def model_to_json(model) -> dict:
    return {"kind": model_kind(model), **model._body(),
            "standardization": model.standardization.to_json()}


def model_from_json(doc):
    """Rebuild a model, checking every array against the standardization
    width ``d``; a shape, index, class or value that does not fit raises
    SchemaError naming the key."""
    kind = doc.get("kind")
    std = Standardization.from_json(doc["standardization"])
    if std.mean.ndim != 1 or std.std.shape != std.mean.shape \
            or not np.isfinite(std.mean).all() \
            or not (np.isfinite(std.std) & (std.std > 0)).all():
        raise SchemaError("standardization: mean and std must be lists of "
                          "equal length, finite, with std > 0")
    if kind not in CLASSIFIER_KINDS:
        raise ConfigError("unknown model kind %r" % (kind,))
    return _MODELS[kind]._from_body(doc, std, len(std.mean))


def save_model(model, path):
    write_json(path, model_to_json(model))


def load_model(path):
    return read_json(path, model_from_json)
