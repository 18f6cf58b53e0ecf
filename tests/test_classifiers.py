import dataclasses
import json
import math
import pathlib
import sys
import tempfile
import types
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import brentq, minimize
from scipy.stats import beta, binom

from icn_sentinel import classifiers
from icn_sentinel.classifiers import (CLASSIFIER_KINDS, C45Model, KnnModel, LabeledSet, Rule,
                                      Standardization, SvmModel, binom_upper,
                                      c45_train, knn_predict, knn_train,
                                      load_model, model_from_json, model_kind,
                                      model_to_json, predict_label,
                                      predict_labels, save_model,
                                      svm_objective, svm_predict, svm_train,
                                      train_classifier)
from icn_sentinel.core import (ANOMALOUS, NORMAL, ConfigError,
                               DegenerateDataError, SchemaError, SentinelError)
from icn_sentinel.harness import run_matrix
from icn_sentinel.synth import default_config, gen_campaign


def blob_data(seed=0, n=20, gap=6.0):
    rng = np.random.default_rng(seed)
    pos = rng.normal((gap, gap), 1.0, size=(n, 2))
    neg = rng.normal((-gap, -gap), 1.0, size=(n, 2))
    x = np.vstack([pos, neg])
    y = np.array([NORMAL] * n + [ANOMALOUS] * n)
    return LabeledSet.from_raw(x, y)


def test_standardization_fit_apply():
    x = np.array([[1.0, 10.0], [3.0, 10.0], [5.0, 10.0]])
    std = Standardization.fit(x)
    assert std.mean == pytest.approx([3.0, 10.0])
    # zero-spread column keeps scale 1 instead of dividing by zero
    assert std.std[1] == 1.0
    z = std.apply(x)
    assert z[:, 0].mean() == pytest.approx(0.0)
    assert z[:, 0].std() == pytest.approx(1.0)
    assert np.all(z[:, 1] == 0.0)
    # round trip
    assert np.allclose(z * std.std + std.mean, x)


def test_standardization_dim_check():
    std = Standardization.fit(np.ones((3, 2)))
    with pytest.raises(SchemaError):
        std.apply(np.ones(3))


def test_standardization_refuses_a_spread_beyond_float_range():
    # a column of +-1e308 used to fit std = inf with a numpy overflow
    # warning, so it standardized to all zeros and no classifier saw it
    x = np.array([[1.0, 1e308], [2.0, -1e308], [3.0, 1e308], [4.0, -1e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SentinelError, match="feature column 1: the mean or "
                           "spread overflows float range"):
            Standardization.fit(x)
        with pytest.raises(SentinelError, match="feature column 0"):
            LabeledSet.from_raw(x[:, ::-1], [1, -1, 1, -1])
        # a sum beyond float range makes the mean infinite
        with pytest.raises(SentinelError, match="feature column 0"):
            Standardization.fit([[1e308], [1e308]])
    assert Standardization.fit([[1e150], [-1e150]]).std[0] == 1e150


@st.composite
def mixed_scale_matrices(draw):
    """A C-ordered matrix of columns at mixed scales and offsets, with a
    row count on either side of numpy's pairwise-sum thresholds: 8 (the
    unrolled accumulators) and multiples of 128 (the recursion block)."""
    n = draw(st.one_of(st.integers(1, 20), st.integers(120, 136),
                       st.integers(250, 264), st.integers(1, 400)))
    d = draw(st.integers(1, 19))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = 10.0 ** rng.uniform(-6, 6, size=d)
    shift = rng.normal(size=d) * 10.0 ** rng.uniform(-3, 6, size=d)
    return rng.normal(size=(n, d)) * scale + shift


@settings(max_examples=200, deadline=None)
@given(mixed_scale_matrices())
def test_fortran_fit_equals_each_lone_column_fit_property(x):
    # cross-validation reads every subset's standardization from one fit
    # of each full-width fold, so a fit of C-ordered rows must give each
    # column its lone fit
    assert x.flags.c_contiguous
    wide = Standardization.fit(x)
    lone = [Standardization.fit(x[:, [c]]) for c in range(x.shape[1])]
    assert wide.mean.tobytes() == np.concatenate([s.mean for s in lone]).tobytes()
    assert wide.std.tobytes() == np.concatenate([s.std for s in lone]).tobytes()


def test_labeled_set_validation():
    with pytest.raises(SchemaError):
        LabeledSet.from_raw([1.0, 2.0], [1, -1])
    with pytest.raises(SchemaError):
        LabeledSet.from_raw([[1.0], [2.0]], [1])
    with pytest.raises(DegenerateDataError):
        LabeledSet.from_raw(np.empty((0, 2)), [])
    with pytest.raises(SentinelError):
        LabeledSet.from_raw([[np.nan], [1.0]], [1, -1])
    with pytest.raises(ConfigError):
        LabeledSet.from_raw([[1.0], [2.0]], [1, 2])


def test_labeled_set_needs_a_feature_column():
    # genetic selection over such a set drew for a non-empty mask forever
    with pytest.raises(SchemaError, match=">= 1 column"):
        LabeledSet.from_raw(np.empty((6, 0)), [1, 1, 1, -1, -1, -1])


def test_svm_symmetric_pair():
    # on z-scored points -1/+1 the primal optimum is w = 1, b = 0 with
    # objective 1/2
    data = LabeledSet.from_raw([[-1.0], [1.0]], [-1, 1])
    model = svm_train(data, c_param=1.0)
    assert model.weights[0] == pytest.approx(1.0, abs=0.05)
    assert model.bias == pytest.approx(0.0, abs=0.05)
    assert svm_objective(model.weights, data, model.bias, model.c_param) \
        == pytest.approx(0.5, abs=0.02)
    assert svm_predict(model, [1.0]) == NORMAL
    assert svm_predict(model, [-1.0]) == ANOMALOUS


def test_svm_separates_blobs():
    data = blob_data(seed=1)
    model = svm_train(data)
    preds = [svm_predict(model, row) for row in data.x]
    assert preds == list(data.y)


def test_svm_linear_limit_on_xor():
    data = LabeledSet.from_raw([[0, 0], [1, 1], [0, 1], [1, 0]],
                               [1, 1, -1, -1])
    model = svm_train(data)
    acc = np.mean([svm_predict(model, x) == y
                   for x, y in zip(data.x, data.y)])
    assert acc <= 0.75


def test_svm_objective_never_exceeds_start():
    # training starts at w = 0, whose objective is c_param * n
    rng = np.random.default_rng(4)
    for c_param in (0.1, 1.0, 10.0):
        x = rng.normal(size=(30, 3))
        y = np.where(rng.random(30) < 0.5, NORMAL, ANOMALOUS)
        if len(np.unique(y)) < 2:
            continue
        data = LabeledSet.from_raw(x, y)
        model = svm_train(data, c_param=c_param)
        objective = svm_objective(model.weights, data, model.bias,
                                  model.c_param)
        assert objective <= c_param * len(data) + 1e-9


def test_svm_deterministic():
    data = blob_data(seed=2)
    a = svm_train(data)
    b = svm_train(data)
    assert np.array_equal(a.weights, b.weights)
    assert a.bias == b.bias


def primal_optimum(data, c_param):
    """svm_objective at the (w, b) that SLSQP finds for the primal with
    slacks: min ||w||^2 / 2 + C sum xi subject to y (z w + b) >= 1 - xi
    and xi >= 0, over v = (w, b, xi), from the feasible w = 0, b = 0,
    xi = 1.  Its hinges are recomputed, so it is never below the
    optimum."""
    z, y = data.xz, data.y.astype(float)
    n, d = z.shape
    margin = np.hstack([y[:, None] * z, y[:, None], np.eye(n)])
    slack = np.eye(n, d + 1 + n, d + 1)
    result = minimize(
        lambda v: 0.5 * v[:d] @ v[:d] + c_param * v[d + 1:].sum(),
        np.r_[np.zeros(d + 1), np.ones(n)],
        jac=lambda v: np.r_[v[:d], 0.0, np.full(n, c_param)],
        method="SLSQP", options={"maxiter": 1000, "ftol": 1e-12},
        constraints=[{"type": "ineq", "fun": lambda v: margin @ v - 1.0,
                      "jac": lambda v: margin},
                     {"type": "ineq", "fun": lambda v: slack @ v,
                      "jac": lambda v: slack}])
    return svm_objective(result.x[:d], data, result.x[d], c_param)


@st.composite
def svm_problems(draw):
    """A labeled set of 2-30 rows and 1-4 features with both classes, on
    a coarse grid (ties, coinciding rows) or anywhere, and a C."""
    n, d = draw(st.integers(2, 30)), draw(st.integers(1, 4))
    cells = st.integers(-3, 3).map(float) if draw(st.booleans()) \
        else st.floats(-8.0, 8.0, width=16)
    x = draw(hnp.arrays(float, (n, d), elements=cells))
    y = draw(hnp.arrays(int, n, elements=st.sampled_from([NORMAL, ANOMALOUS])))
    y[:2] = (NORMAL, ANOMALOUS)
    return LabeledSet.from_raw(x, y), draw(st.sampled_from([0.1, 1.0, 10.0]))


@settings(max_examples=150, deadline=None)
@given(svm_problems())
def test_svm_train_reaches_the_primal_optimum(problem):
    """svm_train's objective is within 1e-3 C n of SLSQP's optimum, a
    relative 1e-3 of the objective C n at the start w = 0, b = 0: SMO's
    stopping rule bounds the excess by n C times its KKT tolerance 1e-3.
    (Relative to the optimum itself, C = 10 on a few rows has come out
    6 % above it.)"""
    data, c_param = problem
    model = svm_train(data, c_param=c_param)
    got = svm_objective(model.weights, data, model.bias, c_param)
    assert abs(got - primal_optimum(data, c_param)) \
        <= 1e-3 * c_param * len(data)


def test_svm_zero_score_ties_to_normal():
    model = SvmModel(np.zeros(2), 0.0, 1.0, Standardization(np.zeros(2), np.ones(2)))
    assert svm_predict(model, [3.0, -7.0]) == NORMAL


def test_svm_config_errors():
    data = blob_data()
    with pytest.raises(ConfigError):
        svm_train(data, c_param=0.0)
    # NaN passes a bare `c_param <= 0`, and NaN or infinity trained an
    # all-zero model
    for c_param in (math.nan, math.inf, -math.inf, -1.0):
        with pytest.raises(ConfigError, match="c_param"):
            svm_train(data, c_param=c_param)
    one_class = LabeledSet.from_raw([[0.0], [1.0]], [1, 1])
    with pytest.raises(DegenerateDataError):
        svm_train(one_class)


def test_knn_only_k1():
    data = blob_data()
    doc = model_to_json(knn_train(data))
    assert doc["k"] == 1 and doc["metric"] == "euclidean"
    with pytest.raises(ConfigError):
        model_from_json(dict(doc, k=3))
    with pytest.raises(SchemaError, match="metric"):
        model_from_json(dict(doc, metric="manhattan"))


def test_knn_tie_breaks_to_lowest_index():
    data = LabeledSet.from_raw([[0.0], [2.0]], [NORMAL, ANOMALOUS])
    model = knn_train(data)
    # query 1.0 is equidistant from both stored points
    assert knn_predict(model, [1.0]) == NORMAL
    flipped = LabeledSet.from_raw([[0.0], [2.0]], [ANOMALOUS, NORMAL])
    assert knn_predict(knn_train(flipped), [1.0]) == ANOMALOUS


@pytest.mark.parametrize("far", [1e3, 120.0], ids=["square", "sum"])
def test_knn_distance_beyond_float_range_is_inf_without_a_warning(far):
    # a spread of 1e-152 puts the far query's standardized difference near
    # 1e155 (its square overflows) or 1.2e154 (each square is finite but
    # their sum is not); every distance is +inf and the lowest index wins
    x = np.array([[1e-152, 1e-152], [-1e-152, -1e-152],
                  [1e-152, -1e-152], [-1e-152, 1e-152]])
    model = knn_train(LabeledSet.from_raw(x, [NORMAL, ANOMALOUS] * 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert predict_labels(model, [[far, far], [-1e-152, -1e-152]]) \
            .tolist() == [NORMAL, ANOMALOUS]


def test_knn_matches_distance_oracle():
    rng = np.random.default_rng(8)
    for _ in range(15):
        n = int(rng.integers(4, 25))
        x = rng.normal(size=(n, 3))
        y = np.where(rng.random(n) < 0.5, NORMAL, ANOMALOUS)
        if len(np.unique(y)) < 2:
            continue
        data = LabeledSet.from_raw(x, y)
        model = knn_train(data)
        mean, std = x.mean(axis=0), x.std(axis=0)
        std = np.where(std > 0, std, 1.0)
        for _ in range(5):
            q = rng.normal(size=3)
            diff = (x - mean) / std - (q - mean) / std
            dist = np.sqrt((diff ** 2).sum(axis=1))
            assert knn_predict(model, q) == y[int(np.argmin(dist))]


def test_knn_invariant_to_affine_feature_rescaling():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(30, 2))
    y = np.where(x[:, 0] + x[:, 1] > 0, NORMAL, ANOMALOUS)
    scale, shift = np.array([10.0, 0.25]), np.array([-5.0, 100.0])
    a = knn_train(LabeledSet.from_raw(x, y))
    b = knn_train(LabeledSet.from_raw(x * scale + shift, y))
    for _ in range(20):
        q = rng.normal(size=2)
        assert knn_predict(a, q) == knn_predict(b, q * scale + shift)


def test_c45_single_threshold_rules():
    x = np.array([[0.0], [1.0], [2.0], [3.0], [4.0], [5.0]])
    y = np.array([1, 1, 1, -1, -1, -1])
    model = c45_train(LabeledSet.from_raw(x, y))
    assert 1 <= len(model.rules) <= 2
    for rule in model.rules:
        assert len(rule.conditions) == 1
        assert rule.error == 0.0
    preds = [predict_label(model, row) for row in x]
    assert preds == list(y)
    assert predict_label(model, [50.0]) == ANOMALOUS
    assert predict_label(model, [-50.0]) == NORMAL


def test_c45_pure_split_needs_two_rows_a_side():
    assert classifiers.C45_MIN_LEAF == 2 and classifiers.C45_CF == 0.25
    # two pure pairs split between them
    data = LabeledSet.from_raw([[0.0], [1.0], [2.0], [3.0]], [1, 1, -1, -1])
    model = c45_train(data)
    preds = [predict_label(model, row) for row in data.x]
    assert preds == [1, 1, -1, -1]
    # a cut that leaves one row on a side is refused: no rule, majority
    for x, y, default in (([[0.0], [1.0]], [1, -1], NORMAL),
                          ([[0.0], [1.0], [2.0]], [1, -1, -1], ANOMALOUS)):
        model = c45_train(LabeledSet.from_raw(x, y))
        assert model.rules == ()
        assert model.default_class == default


def test_c45_constant_feature_majority():
    data = LabeledSet.from_raw([[1.0]] * 4, [1, 1, -1, 1])
    model = c45_train(data)
    assert model.rules == ()
    assert model.default_class == NORMAL
    assert predict_label(model, [1.0]) == NORMAL


def test_binom_upper_matches_bisection():
    # binom_upper(e, n, cf) is the p solving P[Bin(n, p) <= e] = cf
    cases = [(0, 10, 0.25), (2, 14, 0.25), (5, 40, 0.10), (1, 3, 0.50),
             (7, 9, 0.25)]
    for e, n, cf in cases:
        want = brentq(lambda p: binom.cdf(e, n, p) - cf, 1e-12, 1 - 1e-12)
        assert binom_upper(e, n, cf) == pytest.approx(want, abs=1e-9)
    # zero-error closed form: (1 - p)^n = cf
    assert binom_upper(0, 8, 0.25) == pytest.approx(1 - 0.25 ** (1 / 8))
    assert binom_upper(3, 3, 0.25) == 1.0
    assert binom_upper(0, 0, 0.25) == 1.0


def test_binom_upper_is_scipy_stats_beta_ppf_bit_for_bit():
    # the pruning bound must stay beta.ppf's value on every scipy the
    # package supports, whatever function computes it
    # every errors < n for n <= 200, then a sparse grid up to n = 3000
    cf = classifiers.C45_CF
    for n in range(1, 201):
        errors = np.arange(n)
        want = beta.ppf(1.0 - cf, errors + 1, n - errors)
        for e, w in zip(errors.tolist(), want.tolist()):
            got = binom_upper.__wrapped__(e, n, cf)
            assert got.hex() == w.hex(), (e, n)
    for n in list(range(1, 60)) + list(range(60, 3001, 37)):
        for errors in sorted({*range(min(n, 8)), *range(0, n, max(1, n // 9)),
                              n - 1}):
            want = float(beta.ppf(1.0 - cf, errors + 1, n - errors))
            got = binom_upper.__wrapped__(errors, n, cf)
            assert got.hex() == want.hex(), (errors, n)


def test_binom_upper_falls_back_to_beta_ppf(monkeypatch):
    # a scipy.special without the _beta_ppf ufunc, as an older scipy may be
    monkeypatch.setitem(sys.modules, "scipy.special._ufuncs",
                        types.ModuleType("scipy.special._ufuncs"))
    classifiers._beta_ppf.cache_clear()
    try:
        assert classifiers._beta_ppf() == beta.ppf
        cf = classifiers.C45_CF
        for n in (1, 2, 7, 60, 400, 3000):
            for errors in sorted({0, n // 2, n - 1}):
                want = float(beta.ppf(1.0 - cf, errors + 1, n - errors))
                got = binom_upper.__wrapped__(errors, n, cf)
                assert got.hex() == want.hex(), (errors, n)
    finally:
        classifiers._beta_ppf.cache_clear()


def rule_pessimistic(rule, conditions, xz, y, cf):
    mask = np.ones(len(xz), dtype=bool)
    for feat, op, thr in conditions:
        col = xz[:, feat]
        mask &= (col <= thr) if op == "<=" else (col > thr)
    n = int(mask.sum())
    errors = int((y[mask] != rule.klass).sum())
    return binom_upper(errors, n, cf)


def test_c45_rules_are_locally_minimal():
    # pruning stops when no single condition can be dropped without raising
    # the pessimistic error, so every kept condition must be load-bearing
    rng = np.random.default_rng(10)
    for trial in range(8):
        n = int(rng.integers(30, 70))
        x = rng.normal(size=(n, 3))
        y = np.where(x[:, 0] + 0.3 * rng.normal(size=n) > 0,
                     NORMAL, ANOMALOUS)
        if len(np.unique(y)) < 2:
            continue
        data = LabeledSet.from_raw(x, y)
        model = c45_train(data)
        for rule in model.rules:
            conds = list(rule.conditions)
            full = rule_pessimistic(rule, conds, data.xz, data.y, 0.25)
            for i in range(len(conds)):
                rest = conds[:i] + conds[i + 1:]
                dropped = rule_pessimistic(rule, rest, data.xz, data.y, 0.25)
                assert dropped > full


def test_c45_rule_errors_sorted_and_recomputable():
    data = blob_data(seed=11, n=25, gap=2.0)
    model = c45_train(data)
    errs = [r.error for r in model.rules]
    assert errs == sorted(errs)
    for rule in model.rules:
        covered = [i for i, z in enumerate(data.xz)
                   if all(z[f] <= t if op == "<=" else z[f] > t
                          for f, op, t in rule.conditions)]
        assert covered, "published rules must cover something"
        want = np.mean([data.y[i] != rule.klass for i in covered])
        assert rule.error == pytest.approx(float(want))


def test_c45_config_errors():
    one_class = LabeledSet.from_raw([[0.0], [1.0]], [1, 1])
    with pytest.raises(DegenerateDataError):
        c45_train(one_class)


def reference_entropy(counts):
    total = counts.sum()
    if total == 0:
        return 0.0
    h = 0.0
    for c in counts:
        if c > 0:
            p = c / total
            h -= p * math.log2(p)
    return h


def reference_best_split(x, y):
    """The per-feature, per-cut split search the array pass replaced."""
    n, d = x.shape
    base = reference_entropy(np.array([(y == NORMAL).sum(),
                                       (y == ANOMALOUS).sum()], dtype=float))
    best = None
    for j in range(d):
        order = np.argsort(x[:, j], kind="stable")
        xs = x[order, j]
        ys = y[order]
        cum_pos = np.concatenate(([0], np.cumsum(ys == NORMAL)))
        values, starts = np.unique(xs, return_index=True)
        if len(values) < 2:
            continue
        bounds = np.append(starts, n)
        for k in range(len(values) - 1):
            left_n = int(bounds[k + 1])
            right_n = n - left_n
            if left_n < classifiers.C45_MIN_LEAF \
                    or right_n < classifiers.C45_MIN_LEAF:
                continue
            # skip cuts between two blocks pure of the same class
            bpos_a = cum_pos[bounds[k + 1]] - cum_pos[bounds[k]]
            blen_a = bounds[k + 1] - bounds[k]
            bpos_b = cum_pos[bounds[k + 2]] - cum_pos[bounds[k + 1]]
            blen_b = bounds[k + 2] - bounds[k + 1]
            if ((bpos_a == blen_a and bpos_b == blen_b)
                    or (bpos_a == 0 and bpos_b == 0)):
                continue
            lp = float(cum_pos[left_n])
            left_counts = np.array([lp, left_n - lp])
            total_pos = float(cum_pos[n])
            right_counts = np.array([total_pos - lp, right_n - (total_pos - lp)])
            gain = base - (left_n / n) * reference_entropy(left_counts) \
                - (right_n / n) * reference_entropy(right_counts)
            if gain <= 1e-12:
                continue
            pl, pr = left_n / n, right_n / n
            split_info = -(pl * math.log2(pl) + pr * math.log2(pr))
            ratio = gain / split_info
            thr = (values[k] + values[k + 1]) / 2.0
            if thr == values[k + 1]:  # rounded up: cut at the lower value
                thr = values[k]
            key = (-ratio, j, thr)
            if best is None or key < best[0]:
                best = (key, j, thr)
    if best is None:
        return None
    return best[1], best[2]


def reference_pessimistic(conditions, klass, xz, y):
    mask = classifiers._coverage(conditions, xz)
    n = int(mask.sum())
    errors = int((y[mask] != klass).sum())
    # the unmemoized bound, so the memo is checked too
    return binom_upper.__wrapped__(errors, n, classifiers.C45_CF)


def reference_simplify(rule, xz, y):
    """The rule pruning that re-covered every candidate rule from scratch:
    the pruned rule with its training error rate, and its coverage mask,
    both from a fresh coverage of the kept conditions."""
    conds = list(rule.conditions)
    current = reference_pessimistic(conds, rule.klass, xz, y)
    while conds:
        candidates = []
        for i in range(len(conds)):
            rest = conds[:i] + conds[i + 1:]
            candidates.append((reference_pessimistic(rest, rule.klass, xz, y),
                               i))
        cand, i = min(candidates, key=lambda ci: (ci[0], ci[1]))
        if cand <= current:
            del conds[i]
            current = cand
        else:
            break
    mask = classifiers._coverage(conds, xz)
    n = int(mask.sum())
    error = float((y[mask] != rule.klass).sum() / n) if n else 1.0
    return Rule(tuple(conds), rule.klass, error), mask


@dataclasses.dataclass
class ReferenceNode:
    feature: int = None
    threshold: float = None
    left: "ReferenceNode" = None
    right: "ReferenceNode" = None
    klass: int = None

    def is_leaf(self):
        return self.feature is None


def reference_grow(x, y):
    if len(np.unique(y)) == 1:
        return ReferenceNode(klass=int(y[0]))
    split = classifiers._best_split(x, y)
    if split is None:
        return ReferenceNode(klass=classifiers._majority(y))
    j, thr = split
    mask = x[:, j] <= thr
    node = ReferenceNode(feature=j, threshold=float(thr))
    node.left = reference_grow(x[mask], y[mask])
    node.right = reference_grow(x[~mask], y[~mask])
    return node


def reference_paths(node, prefix=()):
    if node.is_leaf():
        yield Rule(tuple(prefix), node.klass)
        return
    yield from reference_paths(
        node.left, prefix + ((node.feature, "<=", node.threshold),))
    yield from reference_paths(
        node.right, prefix + ((node.feature, ">", node.threshold),))


def reference_rules(x, y):
    """The rule list c45_train took from a whole grown tree, walked
    root-to-leaf with the ``<=`` branch first."""
    return list(reference_paths(reference_grow(x, y)))


# small alphabets hold ties, repeated values and both zeros (-0.0 == 0.0);
# 40 values leave most rows distinct
SPLIT_VALUES = st.one_of(
    st.sampled_from([-0.0, 0.0, 1.0, -1.0, 0.5, 2.0, 1e-300]),
    st.floats(-1e6, 1e6, allow_nan=False))


@st.composite
def c45_cases(draw):
    """(x, y, alphabet): 2-60 rows, 1-6 columns over a value alphabet, with
    repeated rows, constant columns and both classes; the labels are drawn
    freely or follow a cut on one column, which makes runs of one class."""
    n, d = draw(st.integers(2, 60)), draw(st.integers(1, 6))
    alphabet = draw(st.lists(SPLIT_VALUES, min_size=1,
                             max_size=draw(st.sampled_from([3, 6, 40]))))
    x = draw(hnp.arrays(float, (n, d), elements=st.sampled_from(alphabet)))
    for row in draw(st.lists(st.integers(0, n - 1), max_size=n // 2)):
        x[row] = x[0]
    for col in draw(st.sets(st.integers(0, d - 1), max_size=d)):
        x[:, col] = x[0, col]
    y = draw(hnp.arrays(int, n, elements=st.sampled_from([NORMAL, ANOMALOUS])))
    if draw(st.booleans()):
        column = x[:, draw(st.integers(0, d - 1))]
        y = np.where(column > draw(st.sampled_from(alphabet)), NORMAL,
                     ANOMALOUS)
        for row in draw(st.lists(st.integers(0, n - 1), max_size=3)):
            y[row] = -y[row]
    first = draw(st.sampled_from([NORMAL, ANOMALOUS]))
    y[0], y[-1] = first, -first
    return x, y, alphabet


def model_bytes(model):
    return json.dumps(model_to_json(model), sort_keys=True)


@settings(max_examples=300, deadline=None)
@given(c45_cases())
# a gain of rounding noise only, which no cut may take
@example((np.array([[0.0], [0.0], [1.0], [1.0], [2.0], [2.0]]),
          np.array([1, -1, -1, 1, 1, -1]), [0.0]))
# every cut inside the run of one class sits between two pure blocks of
# that class; the one cut at the class change leaves a single row
@example((np.arange(5.0)[:, None], np.array([1, -1, -1, -1, -1]), [0.0]))
@example((np.arange(5.0)[:, None], np.array([-1, 1, 1, 1, 1]), [0.0]))
# standardized, 1e-12 and -0.0 become adjacent floats whose midpoint rounds
# up to the upper one; a cut there once recursed without end
@example((np.array([[1e-12], [1e-12], [33990.0]] + [[-0.0]] * 7),
          np.array([1] * 9 + [-1]), [-0.0, 1e-12, 33990.0]))
def test_c45_matches_scalar_reference_property(case):
    x, y, _ = case
    got, want = classifiers._best_split(x, y), reference_best_split(x, y)
    assert (got is None) == (want is None)
    if got is not None:
        assert type(got[0]) is int and got[0] == want[0]
        assert np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes()
    data = LabeledSet.from_raw(x, y)
    model = c45_train(data)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(classifiers, "_best_split", reference_best_split)
        patch.setattr(classifiers, "_simplify", reference_simplify)
        assert model_bytes(c45_train(data)) == model_bytes(model)


def rule_key(rule):
    """A rule's conditions with each threshold as its float bits, class
    and error."""
    return ([(f, op, np.float64(thr).tobytes()) for f, op, thr in
             rule.conditions], type(rule.klass), rule.klass, rule.error)


@settings(max_examples=300, deadline=None)
@given(c45_cases())
# class runs of two along one column: a path seven conditions deep
@example((np.arange(16.0)[:, None], np.array([1, 1, -1, -1] * 4), [0.0]))
def test_c45_rules_match_reference_tree_property(case):
    """The generator that grows and walks the tree in one recursion yields
    the rules of the whole grown tree, in the same order, bit for bit."""
    x, y, _ = case
    xz = LabeledSet.from_raw(x, y).xz
    got = list(classifiers._rules(xz, y))
    assert [rule_key(r) for r in got] \
        == [rule_key(r) for r in reference_rules(xz, y)]


def test_run_matrix_same_with_scalar_c45_reference(monkeypatch):
    """Every c45 cell of a "mixed" matrix: the array-pass split search and
    the mask-based pruning leave the report as the scalar loops leave it."""
    camp = gen_campaign(default_config(seed=0, attack_pattern="mixed",
                                       rows_per_group=90))
    report = run_matrix(camp, classifiers=["c45"])
    calls = {"split": 0, "simplify": 0}

    def counted(name, func):
        def wrapper(*args):
            calls[name] += 1
            return func(*args)
        return wrapper

    monkeypatch.setattr(classifiers, "_best_split",
                        counted("split", reference_best_split))
    monkeypatch.setattr(classifiers, "_simplify",
                        counted("simplify", reference_simplify))
    assert run_matrix(camp, classifiers=["c45"]) == report
    assert calls["split"] > 8 and calls["simplify"] > 8


def test_model_json_round_trips(tmp_path):
    data = blob_data(seed=12, n=15, gap=3.0)
    queries = np.random.default_rng(13).normal(scale=4.0, size=(20, 2))
    for kind in ("svm", "knn", "c45"):
        model = train_classifier(kind, data)
        path = tmp_path / ("model_%s.json" % kind)
        save_model(model, path)
        loaded = load_model(path)
        assert model_kind(loaded) == kind
        for q in queries:
            assert predict_label(loaded, q) == predict_label(model, q)
    svm = train_classifier("svm", data)
    restored = model_from_json(model_to_json(svm))
    assert np.array_equal(restored.weights, svm.weights)
    assert restored.bias == svm.bias


@pytest.mark.parametrize("kind", CLASSIFIER_KINDS)
def test_loaded_models_compare_without_raising(kind, tmp_path):
    # the models and their standardization hold numpy arrays, so == is
    # identity; a field-wise == raised "truth value ... is ambiguous"
    path = tmp_path / "model.json"
    save_model(train_classifier(kind, blob_data(seed=15)), path)
    first, second = load_model(path), load_model(path)
    assert first == first and not first == second
    assert first.standardization != second.standardization
    assert model_to_json(first) == model_to_json(second)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CLASSIFIER_KINDS), c45_cases(), st.data())
def test_model_json_round_trip_property(kind, case, draw):
    """Train, save, load and save again: the bytes are equal and the loaded
    model labels a drawn matrix as the trained one does."""
    x, y, alphabet = case
    queries = draw.draw(hnp.arrays(float, (draw.draw(st.integers(0, 20)),
                                           x.shape[1]),
                                   elements=st.sampled_from(alphabet)))
    model = train_classifier(kind, LabeledSet.from_raw(x, y))
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "model.json"
        save_model(model, path)
        first = path.read_bytes()
        loaded = load_model(path)
        save_model(loaded, path)
        assert path.read_bytes() == first
    assert predict_labels(loaded, queries).tolist() \
        == predict_labels(model, queries).tolist()


def test_dispatch():
    data = blob_data(seed=14)
    svm = train_classifier("svm", data)
    knn = train_classifier("knn", data)
    c45 = train_classifier("c45", data)
    assert isinstance(svm, SvmModel)
    assert isinstance(knn, KnnModel)
    assert isinstance(c45, C45Model)
    q = data.x[0]
    assert predict_label(svm, q) == svm_predict(svm, q)
    assert predict_label(knn, q) == knn_predict(knn, q)
    with pytest.raises(ConfigError):
        train_classifier("forest", data)
    for call in (model_kind, model_to_json, lambda m: predict_label(m, q)):
        with pytest.raises(ConfigError):
            call(object())
    with pytest.raises(ConfigError):
        model_from_json({"kind": "forest", "standardization":
                         {"mean": [0.0], "std": [1.0]}})


def test_rule_matches():
    rule = Rule(((0, "<=", 1.0), (1, ">", 0.0)), ANOMALOUS)
    model = C45Model((rule,), NORMAL,
                     Standardization(np.zeros(2), np.ones(2)))
    assert predict_labels(model, [[0.5, 2.0], [1.5, 2.0], [0.5, 0.0]]
                          ).tolist() == [ANOMALOUS, NORMAL, NORMAL]


def reference_labels(model, x):
    """Row-at-a-time labels, written out independently of the package."""
    out = []
    for row in np.asarray(x, dtype=float):
        z = (row - model.standardization.mean) / model.standardization.std
        if isinstance(model, SvmModel):
            score = float(model.weights @ z + model.bias)
            out.append(NORMAL if score >= 0.0 else ANOMALOUS)
        elif isinstance(model, KnnModel):
            # squares added in column order, one float at a time: neither
            # numpy's pairwise reduction nor sum(), which compensates from
            # Python 3.12 on
            query, dist = z.tolist(), []
            for point in model.points.tolist():
                total = 0.0
                for p, q in zip(point, query):
                    d = p - q
                    total += d * d
                dist.append(math.sqrt(total))
            out.append(int(model.labels[dist.index(min(dist))]))
        else:
            for rule in model.rules:
                if all(z[f] <= t if op == "<=" else z[f] > t
                       for f, op, t in rule.conditions):
                    out.append(rule.klass)
                    break
            else:
                out.append(model.default_class)
    return np.array(out, dtype=int)


def random_labeled(rng, n, d):
    x = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0, size=d)
    y = np.where(x[:, 0] + rng.normal(scale=0.5, size=n) > 0,
                 NORMAL, ANOMALOUS)
    y[:2] = (NORMAL, ANOMALOUS)
    return LabeledSet.from_raw(x, y)


def boundary_queries(model, rng, n):
    """Rows on the SVM decision boundary, where the score is a few ulps
    either side of zero and the label depends on exact rounding."""
    std = model.standardization
    w = model.weights
    z = rng.normal(size=(n, len(w)))
    z -= np.outer((z @ w + model.bias) / (w @ w), w)
    return z * std.std + std.mean


def test_predict_labels_matches_per_row_reference():
    rng = np.random.default_rng(31)
    for d in (1, 3, 7, 18, 25):
        data = random_labeled(rng, 60, d)
        queries = np.vstack([rng.normal(size=(40, d)) * data.x.std(axis=0),
                             data.x,
                             (data.x[:-1] + data.x[1:]) / 2.0])
        models = [train_classifier("svm", data),
                  train_classifier("c45", data),
                  knn_train(data)]
        for model in models:
            got = predict_labels(model, queries)
            assert got.shape == (len(queries),)
            assert np.array_equal(got, reference_labels(model, queries))
            assert [predict_label(model, q) for q in queries] == got.tolist()
        svm = models[0]
        near = boundary_queries(svm, rng, 300)
        assert np.array_equal(predict_labels(svm, near),
                              reference_labels(svm, near))


def test_batch_ties():
    # kNN: a query equidistant from stored points takes the lowest index
    for labels in ([NORMAL, ANOMALOUS], [ANOMALOUS, NORMAL]):
        model = knn_train(LabeledSet.from_raw([[0.0], [2.0]], labels))
        assert predict_labels(model, [[1.0]] * 3).tolist() == [labels[0]] * 3
    square = LabeledSet.from_raw([[0, 0], [0, 2], [2, 0], [2, 2]],
                                 [ANOMALOUS, NORMAL, NORMAL, NORMAL])
    assert predict_labels(knn_train(square), [[1.0, 1.0]]).tolist() \
        == [ANOMALOUS]
    # SVM: a zero score is NORMAL
    flat = SvmModel(np.zeros(2), 0.0, 1.0,
                    Standardization(np.zeros(2), np.ones(2)))
    assert predict_labels(flat, [[3.0, -7.0], [0.0, 0.0], [-1.0, 5.0]]
                          ).tolist() == [NORMAL] * 3
    # C4.5: the first matching rule wins; rows no rule covers get the
    # default class
    rules = (Rule(((0, "<=", 0.0),), ANOMALOUS),
             Rule(((0, "<=", 1.0),), NORMAL),
             Rule(((1, ">", 5.0),), NORMAL))
    c45 = C45Model(rules, ANOMALOUS, Standardization(np.zeros(2), np.ones(2)))
    x = [[-1.0, 9.0], [0.5, 0.0], [2.0, 9.0], [2.0, 0.0], [0.5, 9.0]]
    expected = [ANOMALOUS, NORMAL, NORMAL, ANOMALOUS, NORMAL]
    assert predict_labels(c45, x).tolist() == expected
    assert reference_labels(c45, x).tolist() == expected


def test_knn_blocks_cross_boundaries(monkeypatch):
    rng = np.random.default_rng(32)
    data = random_labeled(rng, 200, 4)
    queries = rng.normal(size=(500, 4)) * data.x.std(axis=0)
    model = knn_train(data)
    want = reference_labels(model, queries)
    # a block's one (block, stored) plane holds at most KNN_BLOCK_FLOATS
    block = classifiers.KNN_BLOCK_FLOATS // len(data)
    assert 1 < block < len(queries) and len(queries) % block
    # stored points and queries in Fortran order or as strided slices
    wide = np.zeros((len(data), 2 * data.n_features))
    wide[:, ::2] = model.points
    laid_out = [KnnModel(points, model.labels, model.standardization)
                for points in (np.asfortranarray(model.points), wide[:, ::2])]
    layouts = ((queries, want), (np.asfortranarray(queries), want),
               (queries[::3], want[::3]),
               (np.hstack([queries, queries])[:, :4], want))
    # the default block, one row per block, and blocks that end mid-input
    for limit in (classifiers.KNN_BLOCK_FLOATS, 1, 7 * len(data),
                  13 * len(data) + 1):
        monkeypatch.setattr(classifiers, "KNN_BLOCK_FLOATS", limit)
        for knn in [model] + laid_out:
            for x, labels in layouts:
                assert np.array_equal(predict_labels(knn, x), labels)


@pytest.mark.parametrize("width", list(range(1, 41)) + [64, 127, 128, 129,
                                                       130, 257, 300])
def test_plane_sum_is_numpy_pairwise_sum(width):
    """``_nearest`` scores a sorted subset of a wider plane stack by the
    column-order sum of its planes.  Below 8 terms that sum is numpy's sum
    over a contiguous feature axis bit for bit; at every wider width,
    across numpy's 8-term block and its 128 split, it stays within
    summation rounding of numpy's, and so does the distance of the pick.
    Columns at mixed magnitudes round differently under other orders.
    No plane is written."""
    rng = np.random.default_rng(width)
    stored = width + 5
    scale = rng.choice([1e-3, 1.0, 1e3], size=stored)
    sq = (rng.normal(size=(6, 9, stored)) * scale) ** 2
    columns = sorted(rng.choice(stored, size=width, replace=False).tolist())
    planes = np.ascontiguousarray(sq.transpose(2, 0, 1))
    before = planes.copy()
    got = classifiers._nearest(planes, columns)
    # column order, one float at a time
    total = np.empty(sq.shape[:2])
    for row, point in np.ndindex(*total.shape):
        acc = 0.0
        for c in columns:
            acc += float(sq[row, point, c])
        total[row, point] = acc
    assert got.tolist() == np.sqrt(total).argmin(axis=1).tolist()
    numpy_sum = np.ascontiguousarray(sq[..., columns]).sum(axis=-1)
    if width < 8:
        assert total.tobytes() == numpy_sum.tobytes()
    bound = width * np.finfo(float).eps
    assert np.all(np.abs(total - numpy_sum) <= bound * numpy_sum)
    dist = np.sqrt(numpy_sum)
    picked = dist[np.arange(len(dist)), got]
    assert np.all(picked <= dist.min(axis=1) * (1 + bound))
    assert planes.tobytes() == before.tobytes()  # no plane is written


def test_predict_labels_shapes():
    data = blob_data(seed=15)
    for kind in ("svm", "knn", "c45"):
        model = train_classifier(kind, data)
        empty = predict_labels(model, np.empty((0, 2)))
        assert empty.shape == (0,)
        assert empty.dtype.kind == "i"
        with pytest.raises(SchemaError):
            predict_labels(model, np.ones(2))
        with pytest.raises(SchemaError):
            predict_labels(model, np.ones((3, 5)))
    with pytest.raises(ConfigError):
        predict_labels(object(), np.empty((0, 2)))
