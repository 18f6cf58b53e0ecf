"""Inter-arrival curves over event traces and their conformance testing.

For an event type e and window size w, every full window of w consecutive
events starting at an occurrence of e yields a count of e inside it.  The
minimum and maximum of those counts over the trace, as functions of w, are
the lower and upper inter-arrival curves.  A model aggregates per-trace
curves from normal operation into mean curves with Student-t confidence
bands; a test trace conforms when a Mann-Whitney U test cannot tell its
curve from the model mean, or when it can but the relative band exceedance
stays below a tunable deviation threshold sigma_th.
"""

from __future__ import annotations

import bisect
import functools
import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import groupby
from types import MappingProxyType

import numpy as np
from scipy.stats import t as student_t

from .core import (ConfigError, EventNotFoundError, EventTrace,
                   InsufficientDataError, SchemaError, SensitivityDegree,
                   SentinelError, is_finite_number, json_float,
                   read_json, write_json)

DEFAULT_W_DELTA = 25
DEFAULT_CONFIDENCE = 0.95
DEFAULT_ALPHA = 0.05
DEFAULT_SIGMA_TH = 0.05

# Largest |a|*|b| for which the exact permutation p-value is computed.
EXACT_LIMIT = 400

# Most verdicts one model remembers; classify_trace stops storing new ones
# once this many distinct (window, thresholds) keys are held.
VERDICT_MEMO_LIMIT = 1024

# Most curve tests one model remembers, keyed on (event, pick, shared
# windows, the test curve's values on them); past it tests still run.
_CURVE_MEMO_LIMIT = 4096


@dataclass(frozen=True)
class IacCurve:
    """One inter-arrival curve: window size -> event count."""

    event: str
    kind: str  # "min" or "max"
    values: dict

    def windows(self) -> tuple:
        return tuple(sorted(self.values))


# Stands in for a count at a start or end that cannot bound a full window.
_NO_WINDOW = 1 << 40


def _curve_arrays(traces, events, w_delta):
    """Min and max curves of every event over a batch of symbol sequences.

    Returns int arrays ``(mins, maxs, present)`` of shape (events, traces,
    widths), index w - 1 for width w, up to w_delta or the longest
    sequence, whichever is less: no window is wider than that.  ``present``
    marks the widths with at least one full window starting at an
    occurrence of the event; the counts elsewhere are meaningless.
    Sequences may differ in length.  Each event gets one prefix-count
    array over the padded batch, and the loop runs over widths, so
    temporaries stay (symbols, events, traces) in size.
    """
    codes = {event: k for k, event in enumerate(events)}
    longest = max((len(symbols) for symbols in traces), default=0)
    lengths = np.array([len(symbols) for symbols in traces])
    padded = np.full((longest, len(traces)), -1)
    for t, symbols in enumerate(traces):
        padded[:len(symbols), t] = [codes.get(s, -1) for s in symbols]
    hits = padded[:, None, :] == np.arange(len(events))[:, None]
    prefix = np.zeros((longest + 1,) + hits.shape[1:], dtype=np.int64)
    np.cumsum(hits, axis=0, out=prefix[1:])
    # Plane 0 holds counts and plane 1 negated counts, so one min over the
    # starts gives both the min and the negated max.  A window [i, i + w)
    # counts only when it starts at an occurrence and ends inside its own
    # trace: every other start or end is pushed far out of range.
    signed = np.stack((prefix, -prefix), axis=1)
    past_end = np.arange(longest + 1)[:, None] > lengths
    ends = np.where(past_end[:, None, None], _NO_WINDOW, signed)
    starts = np.where(hits[:, None], signed[:-1], -_NO_WINDOW)

    widths = min(w_delta, longest)
    out = np.empty((widths, 2, len(events), len(traces)), dtype=np.int64)
    for w in range(1, widths + 1):
        np.minimum.reduce(ends[w:] - starts[:longest - w + 1], axis=0,
                          out=out[w - 1])
    mins, maxs = out.transpose(1, 2, 3, 0)
    return mins, -maxs, mins <= longest


def min_max_curves(trace: EventTrace, event, w_delta):
    """Lower and upper inter-arrival curves of ``event`` up to width w_delta.

    Windows always start at an occurrence of the event and only full
    windows count, so widths with no full window are absent from the
    result.  Raises EventNotFoundError when the event never occurs.
    """
    if w_delta < 1:
        raise ConfigError("w_delta must be >= 1, got %r" % (w_delta,))
    if event not in trace.events:
        raise EventNotFoundError("event %r does not occur in the trace" % (event,))
    mins, maxs, present = (a[0, 0].tolist() for a in
                           _curve_arrays([trace.events], [event], w_delta))
    widths = [w for w in range(1, len(present) + 1) if present[w - 1]]
    return (IacCurve(event, "min", {w: mins[w - 1] for w in widths}),
            IacCurve(event, "max", {w: maxs[w - 1] for w in widths}))


def _check_gates(alpha, sigma_th, error):
    """Raise ``error`` naming alpha or sigma_th when it is NaN: every
    comparison with NaN is false, so a NaN alpha would fail every curve and
    a NaN sigma_th would let no failed curve count as anomalous."""
    for name, value in (("alpha", alpha), ("sigma_th", sigma_th)):
        if math.isnan(value):
            raise error("%s: expected a number, got NaN" % name)


@functools.lru_cache(maxsize=256)
def _t_quantile(n):
    """Two-sided Student-t quantile at DEFAULT_CONFIDENCE over n samples."""
    return float(student_t.ppf(0.5 + DEFAULT_CONFIDENCE / 2.0, n - 1))


def _bands(windows, sample, quantile) -> dict:
    """{w: (min_mean, min_lo, min_hi, max_mean, max_lo, max_hi)} from a
    (2, windows, traces) sample of min (0) and max (1) curve values.

    Each (pick, window) row is contiguous, so numpy reduces it exactly as
    it would reduce that row as a 1-D array.
    """
    sample = np.ascontiguousarray(sample, dtype=float)
    n = sample.shape[2]
    mean = sample.mean(axis=2)
    half = quantile * sample.std(axis=2, ddof=1) / math.sqrt(n)
    rows = np.stack((mean[0], mean[0] - half[0], mean[0] + half[0],
                     mean[1], mean[1] - half[1], mean[1] + half[1]), axis=1)
    return {w: tuple(row) for w, row in zip(windows, rows.tolist())}


def aggregate(curve_pairs) -> dict:
    """Six-curve aggregation over per-trace (min, max) curve pairs.

    Returns {w: (min_mean, min_lo, min_hi, max_mean, max_lo, max_hi)} over
    the window sizes present in every pair; the lo/hi bounds are two-sided
    Student-t confidence limits of the mean at DEFAULT_CONFIDENCE.  Needs
    at least two pairs.
    """
    pairs = list(curve_pairs)
    if len(pairs) < 2:
        raise InsufficientDataError(
            "aggregation needs >= 2 traces, got %d" % len(pairs))
    events = {cmin.event for cmin, _ in pairs} | {cmax.event for _, cmax in pairs}
    if len(events) != 1:
        raise SentinelError("cannot aggregate curves of different events: %s"
                            % sorted(events))

    shared = None
    for cmin, cmax in pairs:
        windows = set(cmin.values) & set(cmax.values)
        shared = windows if shared is None else shared & windows
    windows = sorted(shared)
    sample = [[[pair[pick].values[w] for pair in pairs] for w in windows]
              for pick in (0, 1)]
    return _bands(windows, np.reshape(sample, (2, len(windows), len(pairs))),
                  _t_quantile(len(pairs)))


def _twice_u(a, b):
    """2 * U_a with midrank tie handling, as an exact integer."""
    b_sorted = sorted(b)
    tu = 0
    for x in a:
        lo = bisect.bisect_left(b_sorted, x)
        hi = bisect.bisect_right(b_sorted, x)
        tu += 2 * lo + (hi - lo)
    return tu


def _exact_p(a, b, tu_obs):
    """Two-sided permutation p-value of the U statistic, ties included.

    Dynamic program over the tied value groups of the pooled sample, in
    rank-sum form.  With midranks, choosing c of a group's g tied values
    for sample a, when ``seen`` pooled values lie below the group, adds
    c*(2*seen + g + 1) to 2*R_a whatever the earlier choices were, and
    2U = 2*R_a - n*(n+1).  The states are one {2*R_a: ways} map per count
    of a values used so far, and a group takes only the c that leave
    enough values after it to reach n.  The last group must take exactly
    the a values still missing, so its states go straight into the tail
    count.  Under ties the 2U distribution need not be symmetric, so both
    tails are counted about the mean n*m: an assignment qualifies when
    |2U - n*m| >= |observed 2U - n*m|.  Counts are exact integers, so the
    result is the exact share of the comb(n + m, n) label assignments.
    """
    n, m = len(a), len(b)
    groups = [len(list(grp)) for _, grp in groupby(sorted([*a, *b]))]
    layers = [{0: 1}] + [{} for _ in range(n)]  # used -> {2*R_a: ways}
    seen, after = 0, n + m
    for g in groups[:-1]:
        after -= g
        shift = 2 * seen + g + 1
        ways_c = [math.comb(g, c) for c in range(min(g, n) + 1)]
        nxt = [{} for _ in range(n + 1)]
        for used, states in enumerate(layers):
            if not states:
                continue
            for c in range(max(0, n - used - after), min(g, n - used) + 1):
                target, add, k = nxt[used + c], c * shift, ways_c[c]
                for tr, ways in states.items():
                    key = tr + add
                    target[key] = target.get(key, 0) + ways * k
        layers = nxt
        seen += g
    g = groups[-1]
    center = n * m
    dev = abs(tu_obs - center)
    qualifying = 0
    for used, states in enumerate(layers):
        c = n - used
        if states:
            offset = c * (2 * seen + g + 1) - n * (n + 1) - center
            qualifying += math.comb(g, c) * sum(
                w for tr, w in states.items() if abs(tr + offset) >= dev)
    return qualifying / math.comb(n + m, n)


def _asymptotic_p(a, b, u_a):
    """Normal approximation with tie-corrected variance and continuity
    correction."""
    n, m = len(a), len(b)
    big_n = n + m
    counts = Counter(list(a) + list(b))
    tie_term = sum(t ** 3 - t for t in counts.values())
    var = n * m / 12.0 * ((big_n + 1) - tie_term / (big_n * (big_n - 1.0)))
    if var <= 0:
        return 1.0
    d = u_a - n * m / 2.0
    if d > 0:
        d -= 0.5
    elif d < 0:
        d += 0.5
    z = d / math.sqrt(var)
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return min(1.0, max(p, 0.0))


def mann_whitney_u(a, b):
    """Two-sided Mann-Whitney U test; returns (U of sample a, p-value).

    Exact permutation p when |a|*|b| <= 400, tie-corrected normal
    approximation otherwise.  Identical samples give p = 1.  NaN has no
    rank and raises ConfigError naming its sample; +-inf rank in order.
    """
    a = [float(x) for x in a]
    b = [float(x) for x in b]
    if not a or not b:
        raise InsufficientDataError("both samples must be non-empty")
    for name, sample in (("a", a), ("b", b)):
        if any(map(math.isnan, sample)):
            raise ConfigError("sample %s holds NaN, which has no rank" % name)
    tu = _twice_u(a, b)
    u_a = tu / 2.0
    if len(a) * len(b) <= EXACT_LIMIT:
        p = _exact_p(a, b, tu)
    else:
        p = _asymptotic_p(a, b, u_a)
    return u_a, p


@dataclass(frozen=True)
class EventVerdict:
    """Conformance outcome of one tested event."""

    event: str
    passed_min: bool
    passed_max: bool
    p_min: float
    p_max: float
    deviation_min: float
    deviation_max: float
    anomalous: bool


@dataclass(frozen=True)
class TraceVerdict:
    """Overall conformance verdict with per-event detail.

    ``events`` is a read-only mapping, event -> EventVerdict: one verdict
    may be handed out again for every identical window.
    """

    events: MappingProxyType
    required: int
    anomalous: bool

    def __post_init__(self):
        object.__setattr__(self, "events", MappingProxyType(dict(self.events)))


def _bands_from_json(event, bands) -> dict:
    """One event's window -> band map: windows w >= 1, each band the six
    finite numbers (min mean, lo, hi, max mean, lo, hi)."""
    if not isinstance(bands, dict) or not all(
            str(w).isdecimal() and int(w) >= 1
            and isinstance(band, (list, tuple)) and len(band) == 6
            and all(is_finite_number(v) for v in band)
            for w, band in bands.items()):
        raise SchemaError("events: %r needs windows w >= 1 with 6 finite "
                          "numbers each" % (event,))
    return {int(w): tuple(band) for w, band in bands.items()}


@dataclass(frozen=True)
class IacModel:
    """Aggregated normal-behavior curves plus the test configuration.

    Treat a built model as read-only: classify_trace remembers its verdicts
    and its per-curve test results on the model, so changing ``curves``
    afterwards would go unseen.
    """

    curves: dict  # event -> {w: (min_mean, min_lo, min_hi, max_mean, max_lo, max_hi)}
    w_delta: int = DEFAULT_W_DELTA
    alpha: float = DEFAULT_ALPHA
    sigma_th: float = DEFAULT_SIGMA_TH
    # classify_trace verdicts by (window, alpha, sigma_th, s_pct)
    _verdicts: dict = field(default_factory=dict, init=False, compare=False,
                            repr=False)
    # _curve_test results by (event, pick, shared, curve values on shared)
    _curve_tests: dict = field(default_factory=dict, init=False,
                               compare=False, repr=False)

    def to_json(self) -> dict:
        events = {e: {str(w): list(band) for w, band in bands.items()}
                  for e, bands in self.curves.items()}
        return {"events": events, "w_delta": self.w_delta,
                "alpha": self.alpha, "sigma_th": self.sigma_th}

    @classmethod
    def from_json(cls, doc) -> "IacModel":
        """Rebuild a model; a value that does not fit raises SchemaError
        naming its key.  An infinite sigma_th stays legal."""
        events = doc["events"]
        if not isinstance(events, dict) or not events:
            raise SchemaError("events: expected a non-empty object of event "
                              "-> bands")
        curves = {e: _bands_from_json(e, bands) for e, bands in events.items()}
        w_delta = doc["w_delta"]
        if type(w_delta) is not int or w_delta < 1:
            raise SchemaError("w_delta: expected an integer >= 1, got %r"
                              % (w_delta,))
        alpha = json_float(doc["alpha"], "alpha")
        sigma_th = json_float(doc["sigma_th"], "sigma_th")
        _check_gates(alpha, sigma_th, SchemaError)
        return cls(curves, w_delta=w_delta, alpha=alpha, sigma_th=sigma_th)

    def save(self, path):
        write_json(path, self.to_json())

    @classmethod
    def load(cls, path) -> "IacModel":
        return read_json(path, cls.from_json)


def train_iac_model(traces, w_delta=DEFAULT_W_DELTA, alpha=DEFAULT_ALPHA,
                    sigma_th=DEFAULT_SIGMA_TH) -> IacModel:
    """Aggregate per-trace curves from >= 2 normal traces into a model.

    Every event of the traces gets bands at DEFAULT_CONFIDENCE; an event
    present in fewer than two traces gets an empty band map and will fail
    closed at classification time.  The arguments must pass the checks
    IacModel.from_json applies, else ConfigError.
    """
    if type(w_delta) is not int or w_delta < 1:
        raise ConfigError("w_delta must be an integer >= 1, got %r" % (w_delta,))
    _check_gates(alpha, sigma_th, ConfigError)
    traces = list(traces)
    if len(traces) < 2:
        raise InsufficientDataError(
            "model training needs >= 2 traces, got %d" % len(traces))
    events = sorted(set().union(*(trace.events for trace in traces)))
    if not events:
        raise InsufficientDataError("the traces hold no events")

    mins, maxs, present = _curve_arrays([t.events for t in traces], events,
                                        w_delta)
    curves = {}
    for k, event in enumerate(events):
        has = present[k, :, 0]  # width 1 has a window at every occurrence
        n = int(has.sum())
        if n < 2:
            curves[event] = {}
            continue
        shared = present[k, has].all(axis=0)
        sample = np.stack((mins[k, has][:, shared].T, maxs[k, has][:, shared].T))
        curves[event] = _bands((np.flatnonzero(shared) + 1).tolist(), sample,
                               _t_quantile(n))
    return IacModel(curves, w_delta=w_delta, alpha=alpha, sigma_th=sigma_th)


def _curve_test(curve, bands, pick, shared):
    """(p, deviation) of one test curve, a list of counts by width - 1,
    over the shared windows: the Mann-Whitney p-value against the model
    mean curve and the mean relative exceedance outside its band.  pick 0
    tests against the min-curve band, pick 1 against max."""
    values = [float(curve[w - 1]) for w in shared]
    _, p = mann_whitney_u(values, [bands[w][3 * pick] for w in shared])
    total = 0.0
    for w, x in zip(shared, values):
        mean, lo, hi = bands[w][3 * pick:3 * pick + 3]
        total += max(0.0, lo - x, x - hi) / max(mean, 1.0)
    return p, total / len(shared)


def _memo_curve_test(model, event, curve, pick, shared):
    """_curve_test of one event's curve through the model's curve memo."""
    key = (event, pick, shared, tuple([curve[w - 1] for w in shared]))
    memo = model._curve_tests
    result = memo.get(key)
    if result is None:
        result = _curve_test(curve, model.curves[event], pick, shared)
        if len(memo) < _CURVE_MEMO_LIMIT:
            memo[key] = result
    return result


def classify_trace(test: EventTrace, model: IacModel, alpha=None, sigma_th=None,
                   sensitivity=None) -> TraceVerdict:
    """Conformance-test a trace against a model.

    Per model event the test curve values are compared with the model
    mean curve values over shared window sizes by a Mann-Whitney U test,
    independently for the min and max curves; a curve fails when
    p < alpha, and a failed curve only counts as anomalous when its band
    deviation reaches sigma_th.  An event with empty bands, or absent
    from the test trace, fails closed as anomalous (this dominates even an
    infinite sigma_th).  The trace is anomalous when at least
    sensitivity.required_count(len(model.curves)) events are.

    Verdicts are memoized per model, keyed on the window's symbols, alpha,
    sigma_th and the sensitivity grade, for up to VERDICT_MEMO_LIMIT keys:
    cyclic traffic repeats its windows, and a repeated window gets back the
    same read-only verdict.  Behind that memo
    each curve's (p, deviation) is memoized per model too, keyed on the
    event, min or max, the shared windows and the curve's values on them,
    for up to _CURVE_MEMO_LIMIT keys: distinct windows often give one event
    the same curve.  Both gates and the count apply after the lookup.  A
    NaN alpha or sigma_th, or a model without events, raises ConfigError.
    """
    alpha = model.alpha if alpha is None else alpha
    sigma_th = model.sigma_th if sigma_th is None else sigma_th
    sensitivity = sensitivity or SensitivityDegree(100)
    key = (test.events, alpha, sigma_th, sensitivity.s_pct)
    memo = model._verdicts
    cached = memo.get(key)
    if cached is not None:
        return cached
    # checked on a miss only: such a key is never stored
    tested = sorted(model.curves)
    if not tested:
        raise ConfigError("no events to test")
    _check_gates(alpha, sigma_th, ConfigError)

    alphabet = test.alphabet()
    built = [e for e in tested if model.curves[e] and e in alphabet]
    arrays = _curve_arrays([test.events], built, model.w_delta)
    curves = dict(zip(built, zip(*(a[:, 0].tolist() for a in arrays))))
    verdicts = {}
    for event in tested:
        shared = ()
        if event in curves:
            c_min, c_max, present = curves[event]
            bands = model.curves[event]
            shared = tuple(w for w in sorted(bands)
                           if w <= len(present) and present[w - 1])
        if not shared:
            verdicts[event] = EventVerdict(event, False, False, 0.0, 0.0,
                                           math.inf, math.inf, True)
            continue
        p_min, dev_min = _memo_curve_test(model, event, c_min, 0, shared)
        p_max, dev_max = _memo_curve_test(model, event, c_max, 1, shared)
        passed_min, passed_max = p_min >= alpha, p_max >= alpha
        anomalous = ((not passed_min and dev_min >= sigma_th)
                     or (not passed_max and dev_max >= sigma_th))
        verdicts[event] = EventVerdict(event, passed_min, passed_max,
                                       p_min, p_max, dev_min, dev_max,
                                       anomalous)

    required = sensitivity.required_count(len(tested))
    flagged = sum(1 for v in verdicts.values() if v.anomalous)
    verdict = TraceVerdict(verdicts, required, flagged >= required)
    if len(memo) < VERDICT_MEMO_LIMIT:
        memo[key] = verdict
    return verdict
