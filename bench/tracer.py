"""Outside-in tracing of icn_sentinel for the benchmark's traced run.

The tracer replaces public functions of the program with timing wrappers
where callers look them up: in the defining module and in every
``icn_sentinel`` module that imported the function by name.  Each call
records a span (name, start, end, parent) in memory; ``restore`` puts the
original objects back.  Nothing inside the program changes, so a later
refactor still shows up as moved time rather than as a broken probe.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import statistics
import sys
import time

PACKAGE = "icn_sentinel"

# Public functions wrapped in the traced run, by "<module>.<name>" or
# "<module>.<Class>.<method>".  The layer is the module.
TARGETS = (
    "core.parse_data_trace", "core.parse_event_trace",
    "core.write_data_trace", "core.DataTrace.to_matrix",
    "synth.gen_campaign", "synth.load_campaign", "synth.inject_attacks",
    "profiler.build_profile", "profiler.count_compromised",
    "iac.classify_trace", "iac.min_max_curves", "iac.mann_whitney_u",
    "iac.train_iac_model", "iac.aggregate",
    "classifiers.svm_train", "classifiers.c45_train",
    "classifiers.knn_train", "classifiers.predict_label",
    "classifiers.LabeledSet.from_raw",
    "featsel.cross_val_accuracy", "featsel.genetic_select",
    "harness.run_matrix", "harness.label_ground_truth",
    "harness.dual_detect", "harness.event_chunks",
)

# Per-layer metrics of the traced run, with units.  Suffixes: .self_s is
# span time minus the time its child spans cover, summed over the run;
# .calls counts spans; .p50_us/.p99_us are percentiles of span duration;
# cli.<command>.s is inclusive time of the benchmark's own CLI spans.
PER_LAYER = (
    ("core.parse_data_trace.self_s", "s"),
    ("core.parse_data_trace.rows", "count"),
    ("core.parse_event_trace.self_s", "s"),
    ("core.write_data_trace.self_s", "s"),
    ("core.DataTrace.to_matrix.self_s", "s"),
    ("core.DataTrace.to_matrix.calls", "count"),
    ("synth.gen_campaign.self_s", "s"),
    ("synth.load_campaign.self_s", "s"),
    ("synth.inject_attacks.self_s", "s"),
    ("synth.inject_attacks.calls", "count"),
    ("profiler.build_profile.self_s", "s"),
    ("profiler.count_compromised.self_s", "s"),
    ("profiler.count_compromised.calls", "count"),
    ("iac.classify_trace.self_s", "s"),
    ("iac.classify_trace.calls", "count"),
    ("iac.classify_trace.p50_us", "us"),
    ("iac.classify_trace.p99_us", "us"),
    ("iac.min_max_curves.self_s", "s"),
    ("iac.min_max_curves.calls", "count"),
    ("iac.mann_whitney_u.exact.self_s", "s"),
    ("iac.mann_whitney_u.exact.calls", "count"),
    ("iac.mann_whitney_u.asymptotic.calls", "count"),
    ("iac.train_iac_model.self_s", "s"),
    ("iac.aggregate.self_s", "s"),
    ("iac.aggregate.calls", "count"),
    ("classifiers.svm_train.self_s", "s"),
    ("classifiers.svm_train.calls", "count"),
    ("classifiers.c45_train.self_s", "s"),
    ("classifiers.knn_train.self_s", "s"),
    ("classifiers.knn_train.calls", "count"),
    ("classifiers.predict_label.self_s", "s"),
    ("classifiers.predict_label.calls", "count"),
    ("classifiers.LabeledSet.from_raw.self_s", "s"),
    ("featsel.cross_val_accuracy.self_s", "s"),
    ("featsel.cross_val_accuracy.calls", "count"),
    ("featsel.genetic_select.fitness_hit_ratio", "ratio"),
    ("harness.run_matrix.self_s", "s"),
    ("harness.label_ground_truth.calls", "count"),
    ("harness.label_ground_truth.useful_ratio", "ratio"),
    ("harness.dual_detect.self_s", "s"),
    ("harness.dual_detect.p50_us", "us"),
    ("harness.dual_detect.p99_us", "us"),
    ("harness.event_chunks.self_s", "s"),
    ("cli.gen.s", "s"),
    ("cli.train.s", "s"),
    ("cli.detect.s", "s"),
    ("cli.select.s", "s"),
    ("cli.evaluate.s", "s"),
    ("trace.overhead_pct", "%"),
)


class Tracer:
    """Span recorder plus the patches that feed it.

    ``spans`` holds ``[name, start, end, parent]`` lists, parent being the
    index of the enclosing span or -1.  Calls are single-threaded, so a
    plain stack gives the parent.
    """

    def __init__(self):
        self.spans = []
        self.counters = {"rows_parsed": 0, "fitness_lookups": 0}
        self.labels_seen = {}
        self._stack = []
        self._patches = []

    @contextlib.contextmanager
    def span(self, name):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _open(self, name):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, func, name, namer=None, observe=None):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            rec = self._open(namer(args, kwargs) if namer else name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(rec)
            if observe:
                observe(args, kwargs, result)
            return result
        return wrapper

    def install(self):
        """Wrap every target where callers look it up."""
        for target in TARGETS:
            module_name, *path = target.split(".")
            module = importlib.import_module("%s.%s" % (PACKAGE, module_name))
            if len(path) == 2:  # a method: patch the class once
                cls = getattr(module, path[0])
                raw = cls.__dict__[path[1]]
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrap(raw.__func__, target))
                else:
                    patched = self._wrap(raw, target)
                self._patch(cls, path[1], raw, patched)
                continue
            original = getattr(module, path[0])
            namer, observe = self._hooks(target, module, original)
            wrapper = self._wrap(original, target, namer, observe)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr, original, replacement):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self):
        """Put every original object back, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _hooks(self, target, module, func):
        """Per-target span naming and boundary counters."""
        if target == "iac.mann_whitney_u":
            pick = _picker(func, "a", "b")

            # split outside the program, by the size rule iac applies
            def namer(args, kwargs):
                a, b = pick(args, kwargs)
                exact = len(a) * len(b) <= module.EXACT_LIMIT
                return target + (".exact" if exact else ".asymptotic")
            return namer, None
        if target == "core.parse_data_trace":
            def observe(args, kwargs, result):
                self.counters["rows_parsed"] += len(result)
            return None, observe
        if target == "harness.label_ground_truth":
            pick = _picker(func, "row", "profile", "features", "sensitivity")

            def observe(args, kwargs, result):
                row, profile, features, sens = pick(args, kwargs)
                key = (id(row), id(profile), tuple(features), sens.s_pct)
                # the row is held so that its id cannot be reused
                self.labels_seen.setdefault(key, row)
            return None, observe
        if target == "featsel.genetic_select":
            pick = _picker(func, "config")

            def observe(args, kwargs, result):
                config, = pick(args, kwargs)
                config = config or module.GaConfig()
                self.counters["fitness_lookups"] += (
                    config.population * (config.generations + 1) + 1)
            return None, observe
        return None, None


def _picker(func, *names):
    """Fetch the named arguments of a call to ``func``, positional or not."""
    sig = inspect.signature(func)
    positions = [list(sig.parameters).index(n) for n in names]

    def pick(args, kwargs):
        if len(args) > max(positions):
            return tuple(args[p] for p in positions)
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return tuple(bound.arguments[n] for n in names)
    return pick


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i]
            for i, (name, start, end, parent) in enumerate(spans)]


def _nearest_rank_us(durations, pct):
    """Nearest-rank percentile of span durations, in microseconds."""
    ordered = sorted(durations)
    return ordered[max(1, math.ceil(pct / 100.0 * len(ordered))) - 1] * 1e6


def summarize(spans):
    """{name: {"calls", "total_s", "self_s", "durations"}} over all spans."""
    out = {}
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                      "self_s": 0.0, "durations": []})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += own
        entry["durations"].append(end - start)
    return out


def _under(spans, index, ancestor):
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == ancestor:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(tracer, overhead_pct):
    """Every PER_LAYER metric as {name: {"value", "unit"}}; 0 where the
    layer did not run in this workload."""
    spans = tracer.spans
    summary = summarize(spans)
    lookups = tracer.counters["fitness_lookups"]
    ga_misses = sum(1 for i, s in enumerate(spans)
                    if s[0] == "featsel.cross_val_accuracy"
                    and _under(spans, i, "featsel.genetic_select"))
    label_calls = summary.get("harness.label_ground_truth", {}).get("calls", 0)
    special = {
        "core.parse_data_trace.rows": tracer.counters["rows_parsed"],
        "featsel.genetic_select.fitness_hit_ratio":
            (lookups - ga_misses) / lookups if lookups else 0.0,
        "harness.label_ground_truth.useful_ratio":
            len(tracer.labels_seen) / label_calls if label_calls else 0.0,
        "trace.overhead_pct": overhead_pct,
    }
    metrics = {}
    for name, unit in PER_LAYER:
        if name in special:
            value = special[name]
        else:
            span_name, field = name.rsplit(".", 1)
            entry = summary.get(span_name)
            if entry is None:
                value = 0
            elif field == "calls":
                value = entry["calls"]
            elif field == "self_s":
                value = entry["self_s"]
            elif field == "s":
                value = entry["total_s"]
            elif field == "p50_us":
                value = statistics.median(entry["durations"]) * 1e6
            elif field == "p99_us":
                value = _nearest_rank_us(entry["durations"], 99)
            else:
                raise ValueError("no rule for per-layer metric %r" % name)
        metrics[name] = {"value": value, "unit": unit}
    return metrics
