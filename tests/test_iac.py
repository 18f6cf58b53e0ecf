import dataclasses
import itertools
import json
import math
from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import mannwhitneyu, t as t_dist

from icn_sentinel import iac
from icn_sentinel.core import (ConfigError, EventNotFoundError, EventTrace,
                               InsufficientDataError, SensitivityDegree,
                               SentinelError)
from icn_sentinel.harness import event_chunks
from icn_sentinel.iac import (_CURVE_MEMO_LIMIT, VERDICT_MEMO_LIMIT, IacModel,
                              _curve_arrays, aggregate,
                              classify_trace, mann_whitney_u, min_max_curves,
                              train_iac_model)
from icn_sentinel.synth import default_config, gen_campaign

FIG_TRACE = "BBEBCABEABDBBBEBCBAABBBEB"


def naive_curves(symbols, event, w_delta):
    """Window enumeration oracle: scan every start position literally."""
    n = len(symbols)
    mins, maxs = {}, {}
    for w in range(1, w_delta + 1):
        counts = [symbols[i:i + w].count(event)
                  for i in range(n - w + 1) if symbols[i] == event]
        if counts:
            mins[w] = min(counts)
            maxs[w] = max(counts)
    return mins, maxs


def test_curves_two_occurrences():
    c_min, c_max = min_max_curves(EventTrace(tuple("BB")), "B", 2)
    assert c_min.values == {1: 1, 2: 2}
    assert c_max.values == {1: 1, 2: 2}
    assert c_min.windows() == (1, 2)


def test_curves_match_oracle_exhaustive():
    # every trace over {A, B} up to length 7, every event, full width
    for n in range(1, 8):
        for symbols in itertools.product("AB", repeat=n):
            trace = EventTrace(symbols)
            for event in set(symbols):
                c_min, c_max = min_max_curves(trace, event, n)
                want_min, want_max = naive_curves(symbols, event, n)
                assert c_min.values == want_min
                assert c_max.values == want_max


def test_curves_match_oracle_random():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(5, 60))
        symbols = tuple(rng.choice(list("ABCDE"), size=n))
        trace = EventTrace(symbols)
        event = symbols[int(rng.integers(n))]
        w_delta = int(rng.integers(1, n + 3))
        c_min, c_max = min_max_curves(trace, event, w_delta)
        want_min, want_max = naive_curves(symbols, event, w_delta)
        assert c_min.values == want_min
        assert c_max.values == want_max


def test_curve_laws():
    rng = np.random.default_rng(12)
    for _ in range(25):
        n = int(rng.integers(4, 50))
        symbols = tuple(rng.choice(list("ABC"), size=n))
        event = symbols[0]
        c_min, c_max = min_max_curves(EventTrace(symbols), event, n)
        assert c_min.values[1] == c_max.values[1] == 1
        prev_min = 0
        for w in c_min.windows():
            lo, hi = c_min.values[w], c_max.values[w]
            assert 1 <= lo <= hi <= w
            # widening a window never loses occurrences, so the lower curve
            # is monotone; the upper one is not (its argmax start can lose
            # its full window near the trace end)
            assert lo >= prev_min
            prev_min = lo


def test_curves_fig_trace():
    c_min, c_max = min_max_curves(EventTrace(tuple(FIG_TRACE)), "B", 10)
    assert c_min.values[1] == c_max.values[1] == 1
    assert (c_min.values[2], c_max.values[2]) == (1, 2)
    want_min, want_max = naive_curves(FIG_TRACE, "B", 10)
    assert c_min.values == want_min and c_max.values == want_max


def test_curves_partial_windows_absent():
    # B occurs only at the last position, so no width beyond 1 has a full
    # window starting at B
    c_min, c_max = min_max_curves(EventTrace(tuple("AAB")), "B", 3)
    assert c_min.values == {1: 1}
    assert c_max.values == {1: 1}


def test_curves_errors():
    with pytest.raises(EventNotFoundError):
        min_max_curves(EventTrace(tuple("AAA")), "B", 3)
    with pytest.raises(ConfigError):
        min_max_curves(EventTrace(tuple("AB")), "A", 0)


@st.composite
def curve_batches(draw):
    """Traces of 0-30 symbols over 1-4 letters, mixed lengths in one
    batch, tested on events that may be missing from some or all traces."""
    letters = "ABCD"[:draw(st.integers(1, 4))]
    traces = draw(st.lists(st.text(letters, max_size=30).map(tuple),
                           min_size=1, max_size=6))
    events = draw(st.lists(st.sampled_from(letters + "Z"), min_size=1,
                           max_size=5, unique=True))
    return traces, events, draw(st.integers(1, 35))


@settings(max_examples=300, deadline=None)
@given(curve_batches())
def test_curve_arrays_equal_window_oracle(case):
    traces, events, w_delta = case
    mins, maxs, present = _curve_arrays(traces, events, w_delta)
    shape = (len(events), len(traces), min(w_delta, max(map(len, traces))))
    assert mins.shape == maxs.shape == present.shape == shape
    for k, event in enumerate(events):
        for t, symbols in enumerate(traces):
            want_min, want_max = naive_curves(symbols, event, w_delta)
            widths = np.flatnonzero(present[k, t]) + 1
            assert widths.tolist() == sorted(want_min)
            got_min = {w: int(mins[k, t, w - 1]) for w in widths}
            got_max = {w: int(maxs[k, t, w - 1]) for w in widths}
            assert got_min == want_min and got_max == want_max


def test_select_feature_events():
    # every event is modeled, however rare: D occurs once in all, in one
    # trace, and gets empty bands
    traces = [EventTrace(tuple(FIG_TRACE[:12])),
              EventTrace(tuple(FIG_TRACE[12:]))]
    model = train_iac_model(traces)
    assert tuple(model.curves) == ("A", "B", "C", "D", "E")
    assert model.curves["D"] == {}


def test_select_tie_break_lexicographic():
    # events are held in lexicographic order, not by frequency
    for texts in (("BA", "BA"), ("CCB", "AAB"), ("CCCB", "BA")):
        model = train_iac_model([EventTrace(tuple(t)) for t in texts])
        assert tuple(model.curves) == tuple(sorted(set("".join(texts))))


def test_select_errors():
    with pytest.raises(InsufficientDataError, match="no events"):
        train_iac_model([EventTrace(()), EventTrace(())])


def pairs_for(traces, event, w_delta):
    return [min_max_curves(t, event, w_delta) for t in traces]


def test_aggregate_identical_traces_zero_width():
    traces = [EventTrace(tuple("ABAB"))] * 5
    bands = aggregate(pairs_for(traces, "A", 4))
    for w, (m0, lo0, hi0, m1, lo1, hi1) in bands.items():
        assert lo0 == m0 == hi0
        assert lo1 == m1 == hi1


def test_aggregate_two_trace_halfwidth():
    # min curves at w=1 are both 1; max curves at w=3 are 2 and 3, so the
    # 95% band around mean 2.5 has half-width t(0.975, df=1) * s / sqrt(2)
    # = 12.706 * 0.7071 / 1.4142 = 6.353
    t1 = EventTrace(tuple("AABA"))  # max over w=3 from A-starts: AAB -> 2
    t2 = EventTrace(tuple("AAAB"))  # AAA -> 3
    bands = aggregate(pairs_for([t1, t2], "A", 3))
    m1, lo1, hi1 = bands[3][3:]
    assert m1 == pytest.approx(2.5)
    assert hi1 - m1 == pytest.approx(6.353, abs=0.001)
    assert m1 - lo1 == pytest.approx(hi1 - m1)


def test_aggregate_shared_windows_only():
    # second trace's A curves stop at w=2 (single full window at its A);
    # the aggregate keeps only windows present in every pair
    t1 = EventTrace(tuple("ABABAB"))
    t2 = EventTrace(tuple("BBAB"))
    bands = aggregate(pairs_for([t1, t2], "A", 6))
    assert sorted(bands) == [1, 2]


def test_aggregate_errors():
    t = EventTrace(tuple("ABAB"))
    with pytest.raises(InsufficientDataError):
        aggregate(pairs_for([t], "A", 3))
    mixed = [min_max_curves(t, "A", 3), min_max_curves(t, "B", 3)]
    with pytest.raises(SentinelError):
        aggregate(mixed)


def test_mann_whitney_hand_case():
    u, p = mann_whitney_u([1, 2], [3, 4])
    assert u == 0.0
    assert p == pytest.approx(1.0 / 3.0)


def test_mann_whitney_identical_samples():
    _, p = mann_whitney_u([5, 5, 5], [5, 5, 5])
    assert p == 1.0


def test_mann_whitney_u_sum_invariant():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(1, 12))
        m = int(rng.integers(1, 12))
        a = list(rng.integers(0, 6, size=n))
        b = list(rng.integers(0, 6, size=m))
        u_a, _ = mann_whitney_u(a, b)
        u_b, _ = mann_whitney_u(b, a)
        assert u_a + u_b == pytest.approx(n * m)


def enumerate_p(a, b):
    """Brute-force two-sided permutation p-value over label assignments."""
    pooled = list(a) + list(b)
    n, m = len(a), len(b)

    def twice_u(xs, ys):
        return sum(2 if x > y else (1 if x == y else 0)
                   for x in xs for y in ys)

    tu_obs = twice_u(a, b)
    dev = abs(tu_obs - n * m)
    hits = total = 0
    for idx in itertools.combinations(range(n + m), n):
        chosen = set(idx)
        xs = [pooled[i] for i in idx]
        ys = [pooled[i] for i in range(n + m) if i not in chosen]
        total += 1
        if abs(twice_u(xs, ys) - n * m) >= dev:
            hits += 1
    return hits / total


def test_mann_whitney_exact_matches_enumeration():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, 6))
        # small alphabet forces heavy ties
        a = list(rng.integers(0, 3, size=n).astype(float))
        b = list(rng.integers(0, 3, size=m).astype(float))
        _, p = mann_whitney_u(a, b)
        assert p == pytest.approx(enumerate_p(a, b))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([0.0, 1.0, 2.5, 4.0]), min_size=1,
                max_size=7),
       st.lists(st.sampled_from([0.0, 1.0, 2.5, 4.0]), min_size=1,
                max_size=7))
def test_mann_whitney_exact_matches_enumeration_property(a, b):
    # both are the same integer count over comb(n + m, n), so bit-equal
    assert mann_whitney_u(a, b)[1] == enumerate_p(a, b)


def test_mann_whitney_matches_scipy_exact():
    rng = np.random.default_rng(6)
    for _ in range(30):
        n = int(rng.integers(3, 9))
        m = int(rng.integers(3, 9))
        pool = rng.permutation(200)[:n + m].astype(float)
        a, b = list(pool[:n]), list(pool[n:])
        u, p = mann_whitney_u(a, b)
        ref = mannwhitneyu(a, b, alternative="two-sided", method="exact")
        assert u == pytest.approx(float(ref.statistic))
        assert p == pytest.approx(float(ref.pvalue))


def test_mann_whitney_matches_scipy_asymptotic():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(21, 40))
        m = int(rng.integers(21, 40))
        a = list(rng.integers(0, 6, size=n).astype(float))
        b = list(rng.integers(0, 6, size=m).astype(float))
        assert n * m > 400
        u, p = mann_whitney_u(a, b)
        ref = mannwhitneyu(a, b, alternative="two-sided",
                           method="asymptotic")
        assert u == pytest.approx(float(ref.statistic))
        assert p == pytest.approx(float(ref.pvalue))


def test_mann_whitney_empty_sample():
    with pytest.raises(InsufficientDataError):
        mann_whitney_u([], [1.0])
    with pytest.raises(InsufficientDataError):
        mann_whitney_u([1.0], [])


def test_mann_whitney_refuses_nan():
    # NaN breaks the sort the ranks come from: U_a + U_b != n*m
    for a, b, name in (([float("nan"), 1.0], [1.0, 2.0], "sample a"),
                       ([1.0, 2.0], [1.0, float("nan")], "sample b")):
        with pytest.raises(ConfigError, match=name):
            mann_whitney_u(a, b)
    inf = float("inf")
    u_a, _ = mann_whitney_u([inf, 1.0], [1.0, -inf])
    u_b, _ = mann_whitney_u([1.0, -inf], [inf, 1.0])
    assert (u_a, u_b) == (3.5, 0.5)


def reference_exact_p(a, b, tu_obs):
    """The state-pair DP _exact_p replaced, kept as its oracle: states
    {(a values used, 2U): ways}, every c of every group, final states with
    fewer than n a values dropped at the end."""
    n, m = len(a), len(b)
    pooled = sorted(list(a) + list(b))
    states = {(0, 0): 1}
    seen = 0
    for _, grp in groupby(pooled):
        g = len(list(grp))
        nxt = {}
        for (used, tu), ways in states.items():
            b_before = seen - used
            top = min(g, n - used)
            for c in range(top + 1):
                key = (used + c, tu + 2 * c * b_before + c * (g - c))
                nxt[key] = nxt.get(key, 0) + ways * math.comb(g, c)
        states = nxt
        seen += g
    center = n * m
    dev = abs(tu_obs - center)
    qualifying = sum(w for (used, tu), w in states.items()
                     if used == n and abs(tu - center) >= dev)
    total = math.comb(n + m, n)
    return qualifying / total


# ties between the two zeros, and half steps between integers
MWU_VALUES = (-0.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, -1.5)


@st.composite
def mwu_pairs(draw):
    """Samples with n * m <= EXACT_LIMIT: pooled from an alphabet of 1-6
    values, all distinct, or integers in a against half steps in b."""
    n = draw(st.integers(1, 20))
    m = draw(st.integers(1, min(20, iac.EXACT_LIMIT // n)))
    kind = draw(st.sampled_from(("alphabet", "distinct", "offset")))
    if kind == "alphabet":
        alphabet = draw(st.lists(st.sampled_from(MWU_VALUES), min_size=1,
                                 max_size=6))
        pool = draw(st.lists(st.sampled_from(alphabet), min_size=n + m,
                             max_size=n + m))
        return pool[:n], pool[n:]
    if kind == "distinct":
        pool = draw(st.permutations(range(n + m)))
        return [k / 2 for k in pool[:n]], [k / 2 for k in pool[n:]]
    steps = st.integers(0, draw(st.integers(0, 5)))
    a = draw(st.lists(steps, min_size=n, max_size=n))
    b = draw(st.lists(steps, min_size=m, max_size=m))
    return [float(k) for k in a], [k + 0.5 for k in b]


def assert_exact_p_is_reference(a, b):
    tu = iac._twice_u(a, b)
    assert len(a) * len(b) <= iac.EXACT_LIMIT
    p = mann_whitney_u(a, b)[1]
    # the same integer count over comb(n + m, n), so bit-equal
    assert p == reference_exact_p(a, b, tu)
    return p


@settings(max_examples=150, deadline=None)
@given(mwu_pairs())
def test_exact_p_equals_reference_property(pair):
    assert_exact_p_is_reference(*pair)


def test_exact_p_equals_reference_pinned():
    # every value tied
    assert assert_exact_p_is_reference([3.0] * 7, [3.0] * 9) == 1.0
    # a curve test of detect-replay: 18 x 18 in 3 tie groups of 19, 5, 12
    assert assert_exact_p_is_reference(
        [1.0] + [2.0] * 5 + [3.0] * 12, [1.0] * 18) == 4.18726539537102e-09
    # 20 x 20 all distinct, interleaved
    assert_exact_p_is_reference([float(k) for k in range(0, 40, 2)],
                                [float(k) for k in range(1, 40, 2)])
    assert assert_exact_p_is_reference([1.0], [2.0]) == 1.0
    # x < y = y = y: 2U is 0 in 1 assignment and 4 in 3, not symmetric
    # about n*m = 3; both tails are counted about that mean
    assert assert_exact_p_is_reference([0.0], [1.0, 1.0, 1.0]) == 0.25
    assert assert_exact_p_is_reference([1.0], [0.0, 1.0, 1.0]) == 1.0


def jittered_traces(base, reps, seed):
    """Copies of a base pattern with one symbol swap each, so the model
    bands have nonzero width."""
    rng = np.random.default_rng(seed)
    traces = []
    for _ in range(reps):
        symbols = list(base)
        i = int(rng.integers(1, len(symbols) - 1))
        symbols[i], symbols[i - 1] = symbols[i - 1], symbols[i]
        traces.append(EventTrace(tuple(symbols)))
    return traces


def test_train_and_self_conformance():
    traces = [EventTrace(tuple("ABC" * 12))] * 6
    model = train_iac_model(traces, w_delta=18)
    assert set(model.curves) == {"A", "B", "C"}
    verdict = classify_trace(traces[0], model)
    assert not verdict.anomalous
    assert all(not v.anomalous for v in verdict.events.values())


def test_classify_flags_bursty_trace():
    model = train_iac_model([EventTrace(tuple("ABC" * 12))] * 6, w_delta=18)
    verdict = classify_trace(EventTrace(tuple("AABC" * 9)), model,
                             alpha=0.05, sigma_th=0.05)
    assert verdict.anomalous
    assert verdict.events["A"].anomalous


def test_sigma_gate_suppresses_mw_failure():
    # same distorted trace: the U test still rejects, but a huge deviation
    # threshold keeps every modeled event normal
    model = train_iac_model([EventTrace(tuple("ABC" * 12))] * 6, w_delta=18)
    verdict = classify_trace(EventTrace(tuple("AABC" * 9)), model,
                             alpha=0.05, sigma_th=math.inf)
    assert not verdict.anomalous
    a = verdict.events["A"]
    assert not (a.passed_min and a.passed_max)
    assert math.isfinite(a.deviation_min) and math.isfinite(a.deviation_max)


def test_missing_event_fails_closed():
    model = train_iac_model([EventTrace(tuple("ABC" * 12))] * 6, w_delta=18)
    # C never occurs in the test trace
    verdict = classify_trace(EventTrace(tuple("AB" * 18)), model,
                             sigma_th=math.inf)
    assert verdict.events["C"].anomalous
    assert verdict.events["C"].deviation_min == math.inf
    assert verdict.anomalous


def with_events(model, events):
    """A copy of ``model`` that tests ``events``, with empty memos; an
    event the model has no curves for gets empty bands."""
    return dataclasses.replace(
        model, curves={e: model.curves.get(e, {}) for e in events})


def test_unknown_event_fails_closed():
    model = train_iac_model([EventTrace(tuple("ABC" * 12))] * 6, w_delta=18)
    verdict = classify_trace(EventTrace(tuple("ABC" * 12)),
                             with_events(model, ["A", "B", "Z"]))
    assert verdict.events["Z"].anomalous
    assert not verdict.events["A"].anomalous


def test_sensitivity_scales_required_count():
    model = with_events(train_iac_model([EventTrace(tuple("ABC" * 12))] * 6,
                                        w_delta=18), ["A", "B", "Z"])
    test = EventTrace(tuple("ABC" * 12))
    # exactly one of three tested events (the unknown one) is anomalous
    for pct, required, flagged_trace in ((100, 1, True), (60, 3, False),
                                         (20, 3, False)):
        verdict = classify_trace(test, model,
                                 sensitivity=SensitivityDegree(pct))
        assert verdict.required == required
        assert verdict.anomalous is flagged_trace


def test_classify_no_events_error():
    model = train_iac_model([EventTrace(tuple("AB" * 6))] * 3, w_delta=4)
    window = EventTrace(tuple("AB" * 6))
    with pytest.raises(ConfigError):
        classify_trace(window, with_events(model, []))
    # a rejected call leaves nothing in the memo for the next one to find
    for _ in range(2):
        with pytest.raises(ConfigError, match="alpha"):
            classify_trace(window, model, alpha=math.nan)
    assert model._verdicts == {}


def test_train_needs_two_traces():
    with pytest.raises(InsufficientDataError):
        train_iac_model([EventTrace(tuple("ABAB"))])


@pytest.mark.parametrize("kwargs, key", [
    (dict(w_delta=0), "w_delta"), (dict(w_delta=2.0), "w_delta"),
    (dict(w_delta=True), "w_delta"),
    (dict(w_delta=-1), "w_delta"), (dict(w_delta="3"), "w_delta"),
    (dict(alpha=math.nan, sigma_th=math.nan), "alpha"),
    (dict(alpha=math.nan), "alpha"), (dict(sigma_th=math.nan), "sigma_th")])
def test_train_checks_settings_first(kwargs, key):
    # the checks IacModel.from_json applies, made before any work: even a
    # single trace, or one whose events never repeat, fails on the setting
    for traces in ([EventTrace(tuple("AB"))],
                   [EventTrace(tuple("AB")), EventTrace(tuple("CD"))]):
        with pytest.raises(ConfigError, match=key):
            train_iac_model(traces, **kwargs)


def reference_curves(symbols, event, w_delta):
    """Per-trace curves from one prefix-count list over the trace."""
    n = len(symbols)
    positions = [i for i, s in enumerate(symbols) if s == event]
    prefix = [0]
    for s in symbols:
        prefix.append(prefix[-1] + (s == event))
    mins, maxs = {}, {}
    for w in range(1, w_delta + 1):
        counts = [prefix[i + w] - prefix[i] for i in positions if i + w <= n]
        if counts:
            mins[w], maxs[w] = min(counts), max(counts)
    return mins, maxs


def reference_bands(curves, confidence):
    """Bands from 1-D numpy mean and std, one sample per (window, pick)."""
    shared = set.intersection(*(set(c[0]) for c in curves))
    n = len(curves)
    quantile = float(t_dist.ppf(0.5 + confidence / 2.0, n - 1))
    bands = {}
    for w in sorted(shared):
        entry = []
        for pick in (0, 1):
            sample = np.array([c[pick][w] for c in curves], dtype=float)
            mean = float(sample.mean())
            half = quantile * float(sample.std(ddof=1)) / math.sqrt(n)
            entry += [mean, mean - half, mean + half]
        bands[w] = tuple(entry)
    return bands


def reference_model_json(traces, w_delta):
    """train_iac_model's JSON, built one (event, trace) curve at a time:
    every event gets 95 % bands."""
    events = sorted({s for trace in traces for s in trace.events})
    curves = {}
    for event in events:
        per_trace = [reference_curves(t.events, event, w_delta)
                     for t in traces if event in t.events]
        curves[event] = (reference_bands(per_trace, 0.95)
                         if len(per_trace) >= 2 else {})
    return IacModel(curves, w_delta=w_delta).to_json()


def campaign_batches(pattern, seed):
    """Per-row windows of a campaign's attacked MD and ED test traces, plus
    the same flat traces cut at random into windows of uneven length."""
    campaign = gen_campaign(default_config(seed=seed, rows_per_group=60,
                                           attack_pattern=pattern))
    rng = np.random.default_rng(seed)
    for group in ("MD", "ED"):
        data = campaign.groups[group]
        yield event_chunks(data.test_events, len(data.test.schema))
        flat = data.test_events.events
        cuts = sorted(set(rng.integers(1, len(flat), size=30).tolist()))
        yield [EventTrace(flat[a:b])
               for a, b in zip([0] + cuts, cuts + [len(flat)])]


@pytest.mark.parametrize("pattern, seed", [
    (pattern, seed) for pattern in ("five", "mixed") for seed in (1, 2, 3)])
def test_model_json_equals_per_trace_reference(pattern, seed):
    for traces in campaign_batches(pattern, seed):
        # Q occurs in one trace only (empty band map), R in exactly two
        traces = ([EventTrace(traces[0].events + ("Q", "R"))]
                  + [EventTrace(traces[1].events + ("R",))] + traces[2:])
        for w_delta in (3, 12, 25):
            got = train_iac_model(traces, w_delta=w_delta).to_json()
            want = reference_model_json(traces, w_delta)
            assert got["events"]["Q"] == {}
            assert len(got["events"]["R"]) == 1  # R starts no wider window
            assert json.dumps(got, sort_keys=True) == \
                json.dumps(want, sort_keys=True), (pattern, seed, w_delta)


def test_trained_settings_load_back():
    traces = [EventTrace(tuple("ABAB"))] * 3
    for sigma_th in (math.inf, 0.0):
        doc = train_iac_model(traces, w_delta=1, alpha=0.0,
                              sigma_th=sigma_th).to_json()
        assert IacModel.from_json(doc).to_json() == doc


def test_rare_event_gets_empty_bands():
    # D appears in a single trace, so no aggregation is possible for it
    traces = [EventTrace(tuple("ABAB"))] * 3 + [EventTrace(tuple("ABAD"))]
    model = train_iac_model(traces, w_delta=4)
    assert model.curves["D"] == {}
    verdict = classify_trace(EventTrace(tuple("ABAD")), model,
                             sigma_th=math.inf)
    assert verdict.events["D"].anomalous and verdict.anomalous
    assert not verdict.events["A"].anomalous


def test_model_json_round_trip(tmp_path):
    traces = jittered_traces("ABCB" * 8, 6, seed=9)
    model = train_iac_model(traces, w_delta=10, alpha=0.01, sigma_th=0.2)
    path = tmp_path / "iac_model.json"
    model.save(path)
    loaded = IacModel.load(path)
    assert loaded.curves == model.curves
    assert loaded.w_delta == model.w_delta
    assert loaded.alpha == model.alpha
    assert loaded.sigma_th == model.sigma_th
    # an infinite sigma_th (never flag on band deviation) is a legal file
    train_iac_model(traces, sigma_th=math.inf).save(path)
    assert IacModel.load(path).sigma_th == math.inf


def test_trace_verdict_events_read_only():
    model = train_iac_model([EventTrace(tuple("ABC" * 12))] * 6, w_delta=18)
    verdict = classify_trace(EventTrace(tuple("AABC" * 9)), model)
    assert verdict.events["A"].anomalous
    assert sorted(verdict.events) == ["A", "B", "C"]
    with pytest.raises(TypeError):
        verdict.events["A"] = verdict.events["B"]
    with pytest.raises(TypeError):
        del verdict.events["A"]


def test_memo_key_covers_every_argument():
    model = train_iac_model([EventTrace(tuple("ABC" * 6))] * 4, w_delta=8)
    doc = model.to_json()
    window = EventTrace(tuple("AABC" * 5))
    options = [dict(alpha=alpha, sigma_th=sigma_th,
                    sensitivity=SensitivityDegree(pct))
               for alpha in (None, 0.05, 0.9)
               for sigma_th in (None, 0.05, math.inf)
               for pct in (20, 60, 100)]
    cold = [classify_trace(window, IacModel.from_json(doc), **kwargs)
            for kwargs in options]
    # each argument changes the verdict, so a key missing one would show
    for name in ("alpha", "sigma_th", "sensitivity"):
        seen = {}
        for kwargs, verdict in zip(options, cold):
            rest = tuple(repr(v) for k, v in sorted(kwargs.items()) if k != name)
            seen.setdefault(rest, []).append(verdict)
        assert any(len({repr(v) for v in group}) > 1
                   for group in seen.values()), name
    # warm the memo in one order, then read it back in the other
    for order in (range(len(options)), reversed(range(len(options)))):
        for i in order:
            assert classify_trace(window, model, **options[i]) == cold[i], \
                options[i]
    again = classify_trace(window, model, alpha=0.05)
    assert classify_trace(window, model, alpha=0.05) is again
    other = classify_trace(EventTrace(tuple("ABC" * 6)), model, alpha=0.05)
    assert other != again


def test_memo_is_bounded():
    model = train_iac_model([EventTrace(tuple("ABAB" * 3))] * 3, w_delta=3)
    doc = model.to_json()
    windows = [EventTrace(symbols)
               for symbols in itertools.product("AB", repeat=11)]
    assert len(windows) > VERDICT_MEMO_LIMIT
    for window in windows:
        classify_trace(window, model)
    assert len(model._verdicts) == VERDICT_MEMO_LIMIT
    # windows past the bound are still classified, just not remembered
    for window in windows[VERDICT_MEMO_LIMIT - 2:VERDICT_MEMO_LIMIT + 2]:
        cold = classify_trace(window, IacModel.from_json(doc))
        assert classify_trace(window, model) == cold
    assert len(model._verdicts) == VERDICT_MEMO_LIMIT


CURVE_MODEL_DOC = train_iac_model(jittered_traces("ABC" * 8, 6, seed=3),
                                  w_delta=8).to_json()
SWAP_XY = str.maketrans("XY", "YX")


def assert_same_verdict(warm, cold):
    assert (warm.required, warm.anomalous) == (cold.required, cold.anomalous)
    assert list(warm.events) == list(cold.events)
    for event, verdict in cold.events.items():
        assert dataclasses.astuple(warm.events[event]) == \
            dataclasses.astuple(verdict), event


def expected_curve_keys(window, model):
    """(event, pick, shared windows, curve values) of every curve test
    classify_trace makes on ``window`` with the model's events."""
    keys = set()
    for event, bands in model.curves.items():
        if event not in window.events:
            continue
        curves = min_max_curves(window, event, model.w_delta)
        shared = tuple(w for w in sorted(bands) if w in curves[0].values)
        for pick, curve in enumerate(curves):
            keys.add((event, pick, shared,
                      tuple(curve.values[w] for w in shared)))
    return keys


def test_curve_memo_tests_each_distinct_curve_once(monkeypatch):
    model = IacModel.from_json(CURVE_MODEL_DOC)
    assert set(model.curves) == {"A", "B", "C"}
    # distinct windows that differ only in untested symbols, so the window
    # memo misses them all; then one where A and B have the same curves,
    # and one where each event's min and max curves are equal
    windows = [EventTrace(tuple("AB%sCAB%sCAB%sC" % fill))
               for fill in itertools.product("XY", repeat=3)]
    windows += [EventTrace(tuple("AB" * 6)), EventTrace(tuple("ABC" * 4))]
    assert len(set(windows)) == len(windows)
    options = [dict(), dict(alpha=0.5), dict(sigma_th=math.inf),
               dict(sensitivity=SensitivityDegree(20))]
    runs = [(window, kwargs) for kwargs in options for window in windows]
    cold = [classify_trace(window, IacModel.from_json(CURVE_MODEL_DOC),
                           **kwargs) for window, kwargs in runs]
    real, calls = iac._curve_test, []

    def spy(curve, bands, pick, shared):
        event = next(e for e, b in model.curves.items() if b is bands)
        calls.append((event, pick, tuple(shared),
                      tuple(curve[w - 1] for w in shared)))
        return real(curve, bands, pick, shared)

    monkeypatch.setattr(iac, "_curve_test", spy)
    for (window, kwargs), verdict in zip(runs, cold):
        assert_same_verdict(classify_trace(window, model, **kwargs), verdict)
    expected = set().union(*(expected_curve_keys(w, model) for w in windows))
    assert sorted(calls) == sorted(expected)
    assert len(model._curve_tests) == len(calls)
    # the eight filled windows share their six curve tests
    assert len(expected_curve_keys(windows[0], model)) == 6
    assert len(calls) < 6 * len(windows)


def test_curve_memo_is_bounded(monkeypatch):
    # one event per window position, each tested once: every window adds
    # two keys per event to the curve memo, past its bound
    names = ["e%04d" % i for i in range(_CURVE_MEMO_LIMIT // 2 + 100)]
    band = [[m, m - 0.5, m + 0.5, m, m - 0.5, m + 0.5]
            for m in (1.0 + i % 4 for i in range(len(names)))]
    doc = {"events": {e: {"1": b} for e, b in zip(names, band)},
           "w_delta": 1, "alpha": 0.05, "sigma_th": 0.05}
    model = IacModel.from_json(doc)
    blocks = [names[i:i + 100] for i in range(0, len(names), 100)]
    for block in blocks:
        classify_trace(EventTrace(tuple(block)), model)
    assert len(model._curve_tests) == _CURVE_MEMO_LIMIT
    real, calls = iac._curve_test, []
    monkeypatch.setattr(iac, "_curve_test",
                        lambda *args: calls.append(args) or real(*args))
    # past the bound the tests still run, every time, and agree with cold
    # calls; new alpha values get past the window memo
    last = blocks[-1]
    for alpha in (0.06, 0.07):
        window = EventTrace(tuple(last))
        cold = classify_trace(window, IacModel.from_json(doc), alpha=alpha)
        calls.clear()
        assert_same_verdict(classify_trace(window, model, alpha=alpha), cold)
        assert len(calls) == 2 * len(last)
        assert {cold.events[e].deviation_min for e in last} == \
            {0.0, 0.25, 0.5, 0.625}
    assert len(model._curve_tests) == _CURVE_MEMO_LIMIT


# events of the models a memo test draws from: the trained ones, subsets
# of them, and sets that name an event with empty bands
FEATURE_EVENTS = [("A", "B", "C"), ("A",), ("B", "C"), ("A", "B", "Z"),
                  ("X",)]


def model_doc(events):
    bands = CURVE_MODEL_DOC["events"]
    return dict(CURVE_MODEL_DOC, events={e: bands.get(e, {}) for e in events})


@pytest.fixture(scope="module")
def shared_models():
    """One model per feature-event set, whose memos every example of a
    test fills and reads."""
    return {events: IacModel.from_json(model_doc(events))
            for events in FEATURE_EVENTS}


CLASSIFY_OPTIONS = st.fixed_dictionaries({
    "alpha": st.sampled_from([None, 0.05, 0.5, 1.0]),
    "sigma_th": st.sampled_from([None, 0.0, 0.05, math.inf]),
    "sensitivity": st.sampled_from([20, 60, 100]).map(SensitivityDegree)})


@settings(max_examples=100, deadline=None)
@given(st.lists(st.text("ABCXY", min_size=2, max_size=24), min_size=1,
                max_size=5), st.data())
def test_memos_equal_cold_calls(shared_models, texts, data):
    # every text ends in X, and its X/Y swap is a distinct window with the
    # same curves: the tested events never include Y
    pool = []
    for text in texts:
        pool += [EventTrace(tuple(text + "X")),
                 EventTrace(tuple((text + "X").translate(SWAP_XY)))]
    order = data.draw(st.permutations(range(len(pool))))
    order += data.draw(st.lists(st.sampled_from(range(len(pool))),
                                max_size=8))
    for i in order:
        events = data.draw(st.sampled_from(FEATURE_EVENTS))
        kwargs = data.draw(CLASSIFY_OPTIONS)
        cold = classify_trace(pool[i], IacModel.from_json(model_doc(events)),
                              **kwargs)
        assert_same_verdict(classify_trace(pool[i], shared_models[events],
                                           **kwargs), cold)
