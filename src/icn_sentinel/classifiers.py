"""Supervised detectors behind one train/predict contract.

Three classifiers label standardized feature vectors +1 (normal) or -1
(anomalous): a linear soft-margin SVM trained to the optimum of its dual
by SMO, a Euclidean nearest-neighbor memorizer fixed at k=1, and a
decision tree grown on gain ratio whose branches are flattened into
ordered, pruned if-then rules.  ``predict_labels`` scores a whole
feature matrix in one call per model.  Training uses no randomness:
identical data and parameters give bit-identical models.  The SVM
takes its C as an argument; C4.5 always grows with C45_MIN_LEAF and
prunes at C45_CF.
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
        SentinelError naming the first such column.

        numpy reduces each column of a Fortran-ordered matrix alone, so a
        column's fit is the same at any width and any column subset's fit
        is a slice of the full one.
        """
        x = np.asfortranarray(x, dtype=float)
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


# SMO stops once the most violating pair's KKT gap m(a) - M(a) is below
# this, LIBSVM's default
_SVM_TOL = 1e-3
# the least curvature a pair is given (LIBSVM's TAU); coinciding rows have 0
_TAU = 1e-12


def svm_train(data: LabeledSet, c_param=1.0) -> SvmModel:
    """The soft-margin SVM at the optimum of its dual, by SMO.

    The dual is min a'Qa / 2 - sum a subject to y'a = 0 and 0 <= a <= C,
    with Q = (y y') * (z z').  Each step takes the most violating pair by
    second-order working-set selection (Fan, Chen & Lin, JMLR 6, 2005):
    i maximizes -y G over I_up, G = Qa - 1 the gradient, and j is the
    member of I_low that most lowers the dual with i.  Both move along
    y'a = 0 and are clipped to [0, C] as LIBSVM updates them.  Ties pick
    the lowest row, and each step forms only the kernel rows z @ z[i] and
    z @ z[j], never an n x n matrix.

    Training stops once m - M < _SVM_TOL, m the maximum of -y G over I_up
    and M its minimum over I_low; that takes finitely many steps.  The
    model is w = (a y) @ z with the bias the mean of -y G over free
    vectors (0 < a < C), or without one the midpoint of M and m; its
    primal objective is then at most n C _SVM_TOL above the optimum.
    """
    if not (c_param > 0 and math.isfinite(c_param)):
        raise ConfigError("c_param must be a finite number > 0, got %r"
                          % (c_param,))
    _require_two_classes(data)

    z = data.xz
    y = data.y.astype(float)
    c = float(c_param)
    a = np.zeros(len(y))
    yg = y.copy()  # -y * G, which is y at a = 0
    up, low = y > 0, y < 0  # I_up and I_low at a = 0
    kdiag = np.einsum("ij,ij->i", z, z)
    while True:
        score = np.where(up, yg, -np.inf)
        i = int(score.argmax())
        m = score.item(i)
        gain = np.where(low, m - yg, 0.0)
        if gain.max() < _SVM_TOL:
            break
        ki = z @ z[i]
        curv = kdiag + (kdiag.item(i) - 2.0 * ki)
        np.maximum(curv, _TAU, out=curv)
        np.maximum(gain, 0.0, out=gain)
        gain *= gain
        gain /= curv
        j = int(gain.argmax())
        kj = z @ z[j]
        yi, yj = y.item(i), y.item(j)
        ai0, aj0 = ai, aj = a.item(i), a.item(j)
        if yi != yj:
            delta = (yg.item(i) * yi + yg.item(j) * yj) / curv.item(j)
            diff = ai - aj
            ai += delta
            aj += delta
            if diff > 0:
                if aj < 0:
                    aj, ai = 0.0, diff
                if ai > c:
                    ai, aj = c, c - diff
            else:
                if ai < 0:
                    ai, aj = 0.0, -diff
                if aj > c:
                    aj, ai = c, c + diff
        else:
            delta = (yg.item(j) * yj - yg.item(i) * yi) / curv.item(j)
            total = ai + aj
            ai -= delta
            aj += delta
            if total > c:
                if ai > c:
                    ai, aj = c, total - c
                if aj > c:
                    aj, ai = c, total - c
            else:
                if aj < 0:
                    aj, ai = 0.0, total
                if ai < 0:
                    ai, aj = 0.0, total
        # -y G moves by -(y_i K_i da_i + y_j K_j da_j)
        ki *= (ai - ai0) * yi
        kj *= (aj - aj0) * yj
        ki += kj
        yg -= ki
        a[i], a[j] = ai, aj
        for t, at, yt in ((i, ai, yi), (j, aj, yj)):
            up[t] = at < c if yt > 0 else at > 0
            low[t] = at > 0 if yt > 0 else at < c
    free = (a > 0) & (a < c)
    if free.any():
        bias = yg[free].mean()
    else:
        bias = (m + np.where(low, yg, np.inf).min()) / 2.0
    return SvmModel((a * y) @ z, float(bias), c_param, data.standardization)


# ---------------------------------------------------------------------------
# nearest neighbor (Euclidean, k fixed at 1)


# kNN predict scores queries in blocks of KNN_BLOCK_FLOATS // stored rows,
# so the one reused (block, stored) buffer, into which each feature's
# squared-difference plane is built in turn, holds at most this many floats
KNN_BLOCK_FLOATS = 65536


def _sq_planes(stored_t, queries_t, out) -> np.ndarray:
    """Squared differences ``(stored - query) ** 2``, written into and
    returned as ``out``: the (queries, stored) plane of one feature's two
    rows, or for (features, stored) and (features, queries) matrices one
    such plane per feature.  A square beyond float range is +inf."""
    diff = np.subtract(stored_t[..., None, :], queries_t[..., :, None], out)
    with np.errstate(over="ignore"):
        return np.multiply(diff, diff, out=diff)


class _PlaneView:
    """``_sq_planes`` of feature c's rows of ``stored_t`` and ``queries_t``
    on lookup ``[c]``, built into ``out``, one (queries, stored) buffer
    that the next lookup overwrites.  ``stored_t`` and ``queries_t`` hold
    one feature per row, so a lookup reads two contiguous rows."""

    def __init__(self, stored_t, queries_t, out):
        self.stored_t, self.queries_t, self.out = stored_t, queries_t, out

    def __getitem__(self, c):
        return _sq_planes(self.stored_t[c], self.queries_t[c], self.out)


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
    with np.errstate(over="ignore"):
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
        points_t = np.ascontiguousarray(self.points.T)
        z_t = np.ascontiguousarray(z.T)
        block = max(1, KNN_BLOCK_FLOATS // len(self.points))
        buffer = np.empty((min(block, len(z)), len(self.points)))
        nearest = np.empty(len(z), dtype=np.intp)
        for start in range(0, len(z), block):
            queries_t = z_t[:, start:start + block]
            nearest[start:start + block] = _nearest(
                _PlaneView(points_t, queries_t, buffer[:queries_t.shape[1]]),
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
    AND of the masks before i and of those after it.  Returns the pruned
    rule, with its training error rate, and the mask of the rows it covers."""
    conds = list(rule.conditions)
    masks = [_coverage((c,), xz) for c in conds]
    wrong = y != rule.klass

    def pessimistic(mask):
        return binom_upper(int(np.count_nonzero(mask & wrong)),
                           int(np.count_nonzero(mask)), C45_CF)

    covered = np.logical_and.reduce([np.ones(len(y), dtype=bool), *masks])
    current = pessimistic(covered)
    while conds:
        prefix = suffix = [np.ones(len(y), dtype=bool)]
        for mask in masks:
            prefix = prefix + [prefix[-1] & mask]
        for mask in reversed(masks):
            suffix = [mask & suffix[0]] + suffix
        drops = [prefix[i] & suffix[i + 1] for i in range(len(conds))]
        cand, i = min((pessimistic(mask), i) for i, mask in enumerate(drops))
        if cand > current:
            break
        del conds[i], masks[i]
        current, covered = cand, drops[i]
    n = int(np.count_nonzero(covered))
    error = int(np.count_nonzero(covered & wrong)) / n if n else 1.0
    return Rule(tuple(conds), rule.klass, error), covered


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
    covered = np.zeros(len(y), dtype=bool)
    for raw in _rules(xz, y):
        # equal conditions and class cover the same rows: the error is equal
        rule, mask = _simplify(raw, xz, y)
        if not rule.conditions or rule in seen:
            continue
        seen.add(rule)
        rules.append(rule)
        covered |= mask

    rules.sort(key=lambda r: r.error)
    uncovered = y[~covered]
    default = _majority(uncovered) if uncovered.size else _majority(y)
    return C45Model(tuple(rules), default, data.standardization)


# ---------------------------------------------------------------------------
# dispatch and model files


def train_classifier(kind, data):
    # trainers resolve by module name at call time, so wrappers see them
    if kind == "svm":
        return svm_train(data)
    if kind == "knn":
        return knn_train(data)
    if kind == "c45":
        return c45_train(data)
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
