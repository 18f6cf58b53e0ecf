"""The Detector and dual detection, ground-truth labeling, metrics and the
full group x dataset x sensitivity x classifier matrix.

A row is ground-truth anomalous at sensitivity S when the number of signal
parameters above threshold reaches the sensitivity's required count (all of
them at 20 %, any three at 60 %, any one at 100 %).  The matrix trains each
classifier per cell on the group's training partition (attacked at the
campaign rate with a campaign-derived seed, then labeled by the same rule)
and reports ADR / FPR / SA against the generator's ground truth, mirroring
the per-group result-table layout with full and reduced feature views.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

from .core import (ANOMALOUS, ConfigError, DataTrace, EventTrace, GROUPS,
                   MetricError, NORMAL, SENSITIVITIES, SchemaError,
                   SensitivityDegree, _check_distinct, derive_seed,
                   is_name_list, parse_data_trace, parse_event_trace,
                   read_json, write_json)
from .classifiers import (CLASSIFIER_KINDS, LabeledSet, load_model,
                          model_kind, predict_labels, save_model,
                          train_classifier)
from .iac import IacModel, classify_trace, train_iac_model
from .profiler import ThresholdProfile, build_profile, count_compromised
from .synth import Campaign, inject_attacks

DATASET_KINDS = ("full", "reduced")


def label_ground_truth(row, profile, features, sensitivity: SensitivityDegree):
    """-1 when enough of ``features`` sit above threshold, else +1: an int
    for a DataRow, and for a DataTrace an int vector with one label per
    row.

    ``features`` should name the signal parameters of the feature view;
    the required count comes from the sensitivity degree over that list.
    """
    features = list(features)
    required = sensitivity.required_count(len(features))
    labels = np.where(count_compromised(row, profile, features) >= required,
                      ANOMALOUS, NORMAL)
    return labels if labels.ndim else int(labels)


def metrics(tp, fp, tn, fn):
    """(ADR, FPR, SA) percentages from confusion counts.

    ADR = tp / (tp + fn) * 100, FPR = fp / (fp + tn) * 100,
    SA = (tp + tn) / total * 100.  Raises MetricError on an empty
    denominator.
    """
    for name, v in (("tp", tp), ("fp", fp), ("tn", tn), ("fn", fn)):
        if v < 0:
            raise MetricError("%s must be >= 0, got %r" % (name, v))
    if tp + fn == 0:
        raise MetricError("no anomalous ground truth: ADR undefined")
    if fp + tn == 0:
        raise MetricError("no normal ground truth: FPR undefined")
    total = tp + fp + tn + fn
    adr = 100.0 * tp / (tp + fn)
    fpr = 100.0 * fp / (fp + tn)
    sa = 100.0 * (tp + tn) / total
    return adr, fpr, sa


@dataclass(frozen=True)
class ScenarioResult:
    group: str
    dataset: str
    s_pct: int
    classifier: str
    tp: int
    fp: int
    tn: int
    fn: int
    adr: float
    fpr: float
    sa: float


@dataclass(frozen=True)
class DualVerdict:
    """Combined verdict: normal only when both detection branches pass."""

    threshold_pass: bool
    iac_pass: bool
    normal: bool
    iac_detail: object = None


@dataclass(frozen=True)
class MatrixConfig:
    """Matrix run settings.  Every classifier trains with its defaults and
    without randomness, so ``seed`` is only recorded: it does not change
    the report."""

    seed: int = 0


def event_chunks(events: EventTrace, symbols_per_row) -> list:
    """Split a flat event trace into per-row chunks of fixed width."""
    if symbols_per_row < 1:
        raise ConfigError("symbols_per_row must be >= 1")
    if len(events) % symbols_per_row:
        raise ConfigError("event trace length %d not divisible by %d"
                          % (len(events), symbols_per_row))
    return list(map(EventTrace._of,
                    zip(*[iter(events.events)] * symbols_per_row)))


def _check_paired(trace: DataTrace, windows):
    """Raise ConfigError unless there is one event window per row."""
    if len(windows) != len(trace):
        raise ConfigError("event trace does not pair with the data rows: "
                          "%d event windows of %d symbols for %d data rows"
                          % (len(windows), len(trace.schema), len(trace)))


def read_paired(data, events, schema):
    """The data trace of the ``data`` CSV over ``schema`` and the event
    windows of the ``events`` file, ``len(schema)`` symbols each, one per
    row."""
    trace = parse_data_trace(data, schema)
    windows = event_chunks(parse_event_trace(events), len(schema))
    _check_paired(trace, windows)
    return trace, windows


def _check_order(schema, features):
    """Raise SchemaError unless ``features`` are ``schema`` names in schema
    order, the order ``to_matrix(features)`` gives the classifier."""
    if list(features) != [n for n in schema if n in features]:
        raise SchemaError("features: expected schema names in schema "
                          "order, got %r" % (list(features),))


def _parse_meta(doc):
    """(schema, features, algo) from a model directory's meta.json."""
    for key in ("schema", "features"):
        if not is_name_list(doc[key]):
            raise SchemaError("%s: expected a non-empty list of distinct "
                              "strings, got %r" % (key, doc[key]))
    _check_order(doc["schema"], doc["features"])
    if doc["algo"] not in CLASSIFIER_KINDS:
        raise SchemaError("algo: expected one of %s, got %r"
                          % (", ".join(CLASSIFIER_KINDS), doc["algo"]))
    return tuple(doc["schema"]), tuple(doc["features"]), doc["algo"]


# eq=False: the models hold numpy arrays, which no field-wise == can compare
@dataclass(frozen=True, eq=False)
class Detector:
    """What ``train`` fits and ``detect`` runs: the threshold profile over
    ``schema``, the curve model and a classifier over ``features`` (schema
    names in schema order).  ``save`` and ``load`` are the one writer and
    reader of a model directory."""

    schema: tuple
    features: tuple
    profile: ThresholdProfile
    iac_model: IacModel
    model: object

    @classmethod
    def fit(cls, trace: DataTrace, windows, algo, limits,
            **curve_settings) -> "Detector":
        """Fit on a labeled trace and its event windows: the profile (psi
        from ``limits``) and the curve model (``curve_settings`` are
        train_iac_model's w_delta, alpha and sigma_th) on the normal rows,
        the ``algo`` classifier on every row over the whole schema."""
        _check_paired(trace, windows)
        if not trace.is_labeled():
            raise ConfigError("training data must be labeled")
        labels = trace.labels()
        normal_rows = [i for i, y in enumerate(labels.tolist()) if y == NORMAL]
        if not normal_rows:
            raise ConfigError("no normal rows to profile")
        profile = build_profile(trace.take(normal_rows), limits)
        iac_model = train_iac_model([windows[i] for i in normal_rows],
                                    **curve_settings)
        model = train_classifier(
            algo, LabeledSet.from_raw(trace.to_matrix(), labels))
        return cls(trace.schema, trace.schema, profile, iac_model, model)

    def save(self, directory, seed, config_hash):
        """Write the model directory; meta.json records ``seed`` and the
        generator's ``config_hash``."""
        algo = model_kind(self.model)
        os.makedirs(directory, exist_ok=True)
        self.profile.save(os.path.join(directory, "profile.json"))
        self.iac_model.save(os.path.join(directory, "iac_model.json"))
        save_model(self.model, os.path.join(directory, "model_%s.json" % algo))
        meta = {"schema": list(self.schema), "features": list(self.features),
                "algo": algo, "seed": seed, "config_hash": config_hash}
        write_json(os.path.join(directory, "meta.json"), meta)

    @classmethod
    def load(cls, directory, algo=None) -> "Detector":
        """Read a model directory with its ``algo`` classifier (meta.json's
        by default).  A profile without a schema name, or a classifier not
        as wide as ``features``, raises SchemaError naming the file."""
        meta_path = os.path.join(directory, "meta.json")
        schema, features, meta_algo = read_json(meta_path, _parse_meta)
        profile_path = os.path.join(directory, "profile.json")
        profile = ThresholdProfile.load(profile_path)
        missing = [n for n in schema if n not in profile.parameters]
        if missing:
            raise SchemaError("%s: no parameter %s" % (profile_path, missing))
        iac_model = IacModel.load(os.path.join(directory, "iac_model.json"))
        model_name = "model_%s.json" % (algo or meta_algo)
        model = load_model(os.path.join(directory, model_name))
        width = len(model.standardization.mean)
        if len(features) != width:
            raise SchemaError("%s: features lists %d names, but %s takes %d"
                              % (meta_path, len(features), model_name, width))
        return cls(schema, features, profile, iac_model, model)


def dual_detect(detector: Detector, trace: DataTrace, windows,
                sensitivity: SensitivityDegree, alpha=None,
                sigma_th=None) -> list:
    """Joint threshold/event verdicts, one DualVerdict per row of ``trace``.

    The trace's schema must list the detector's ``features`` in that
    order; ``windows[i]`` is the event window aligned with row i.  The
    threshold branch is the detector's classifier prediction on the row's
    ``features`` values, scored for all rows in one batch from the
    trace's matrix; the event branch conformance-tests each window
    against the detector's curve model.  A row is normal only when both
    branches pass.  Rows with the same threshold outcome and the same
    event verdict (classify_trace hands out one per repeated window) share
    one read-only DualVerdict.
    """
    _check_paired(trace, windows)
    _check_order(trace.schema, detector.features)
    x = trace.to_matrix(detector.features)
    threshold = predict_labels(detector.model, x) == NORMAL
    verdicts, made = [], {}
    for window, threshold_pass in zip(windows, threshold.tolist()):
        detail = classify_trace(window, detector.iac_model, alpha=alpha,
                                sigma_th=sigma_th, sensitivity=sensitivity)
        key = (threshold_pass, id(detail))  # ``made`` keeps detail alive
        if key not in made:
            iac_pass = not detail.anomalous
            made[key] = DualVerdict(threshold_pass, iac_pass,
                                    threshold_pass and iac_pass, detail)
        verdicts.append(made[key])
    return verdicts


@dataclass(frozen=True)
class EvaluationReport:
    results: tuple

    def rows(self, **match) -> list:
        out = []
        for r in self.results:
            if all(getattr(r, k) == v for k, v in match.items()):
                out.append(r)
        return out

    def averages(self) -> list:
        """Mean ADR/FPR/SA across groups per (classifier, dataset, s_pct)."""
        out = []
        for clf in CLASSIFIER_KINDS:
            for dataset in DATASET_KINDS:
                for s_pct in SENSITIVITIES:
                    cells = self.rows(classifier=clf, dataset=dataset,
                                      s_pct=s_pct)
                    if not cells:
                        continue
                    out.append({
                        "classifier": clf, "dataset": dataset, "s_pct": s_pct,
                        "adr": sum(c.adr for c in cells) / len(cells),
                        "fpr": sum(c.fpr for c in cells) / len(cells),
                        "sa": sum(c.sa for c in cells) / len(cells),
                    })
        return out

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["classifier", "dataset", "s_pct", "group",
                             "tp", "fp", "tn", "fn", "adr", "fpr", "sa"])
            for r in self.results:
                writer.writerow([r.classifier, r.dataset, r.s_pct, r.group,
                                 r.tp, r.fp, r.tn, r.fn,
                                 "%.4f" % r.adr, "%.4f" % r.fpr,
                                 "%.4f" % r.sa])

    def render_tables(self) -> str:
        """Aligned text tables, one per classifier and sensitivity, with
        full and reduced feature views side by side plus group averages."""
        lines = []
        by_cell = {}
        for r in self.results:  # the first result of a cell is shown
            by_cell.setdefault((r.classifier, r.s_pct, r.dataset, r.group), r)
        blocks = {(r.classifier, r.s_pct) for r in self.results}
        groups = {r.group for r in self.results}
        present_groups = [g for g in GROUPS if g in groups]
        for clf in CLASSIFIER_KINDS:
            for s_pct in SENSITIVITIES:
                if (clf, s_pct) not in blocks:
                    continue
                lines.append("%s, sensitivity %d%%" % (clf.upper(), s_pct))
                header = ["metric"]
                for dataset in DATASET_KINDS:
                    header += ["%s/%s" % (dataset, g) for g in present_groups]
                    header.append("%s/avg" % dataset)
                widths = [max(10, len(h) + 2) for h in header]
                lines.append("".join(h.ljust(w) for h, w in zip(header, widths)))
                for metric in ("adr", "fpr", "sa"):
                    cells = [metric.upper()]
                    for dataset in DATASET_KINDS:
                        vals = []
                        for g in present_groups:
                            r = by_cell.get((clf, s_pct, dataset, g))
                            vals.append(getattr(r, metric) if r else None)
                        cells += ["%.1f" % v if v is not None else "-"
                                  for v in vals]
                        shown = [v for v in vals if v is not None]
                        cells.append("%.1f" % (sum(shown) / len(shown))
                                     if shown else "-")
                    lines.append("".join(c.ljust(w)
                                         for c, w in zip(cells, widths)))
                lines.append("")
        return "\n".join(lines)


def run_matrix(campaign: Campaign, config: MatrixConfig = None, groups=None,
               datasets=None, sensitivities=None, classifiers=None) -> EvaluationReport:
    """Evaluate every (classifier, dataset view, sensitivity, group) cell.

    Ground truth on both partitions comes from the generator's own
    profile over the signal parameters, so denominators match the
    injected attack counts exactly.  Filters narrow the matrix; a repeated
    filter value or an unknown dataset raises SchemaError, and results
    follow the filters' classifier, dataset, sensitivity, group order (72
    cells by default).  Cells run by group, then view: a group attacks its
    training partition once, and a (group, view) builds its training
    LabeledSet and test matrix at its first cell, for all its models.
    Training has no randomness, so a classifier's cells with equal
    training labels (every sensitivity under the "five" pattern) train
    once and share the test predictions.  The first failing cell in run
    order raises.  ``config`` carries only the recorded seed.
    """
    groups = tuple(groups) if groups else GROUPS
    datasets = tuple(datasets) if datasets else DATASET_KINDS
    sensitivities = tuple(sensitivities) if sensitivities else SENSITIVITIES
    classifiers = tuple(classifiers) if classifiers else CLASSIFIER_KINDS
    for names, what in zip((groups, datasets, sensitivities, classifiers),
                           ("group", "dataset", "sensitivity", "classifier")):
        _check_distinct(names, what)
    for g in groups:
        if g not in campaign.groups:
            raise ConfigError("campaign has no group %r" % (g,))
    for d in datasets:
        if d not in DATASET_KINDS:
            raise SchemaError("unknown dataset %r" % (d,))

    signal = list(campaign.signal)
    feature_views = {"full": list(campaign.config.schema()),
                     "reduced": signal}
    cells = {}
    for group in groups:
        data = campaign.groups[group]
        train_mixed, _ = inject_attacks(
            data.train, None, data.profile, campaign.config.attack_pattern,
            campaign.config.attack_rate,
            seed=derive_seed(campaign.config.seed, group, "train-attack"),
            signal=signal, burst_len=campaign.config.burst_len)
        for dataset in datasets:
            features = feature_views[dataset]
            base = None  # the view's training LabeledSet
            for clf in classifiers:
                predictions = {}  # training labels -> test predictions
                for s_pct in sensitivities:
                    sens = SensitivityDegree(s_pct)
                    y_train = label_ground_truth(train_mixed, data.profile,
                                                 signal, sens)
                    key = y_train.tobytes()
                    if key not in predictions:
                        if base is None:
                            base = LabeledSet.from_raw(
                                train_mixed.to_matrix(features), y_train)
                            x_test = data.test.to_matrix(features)
                        model = train_classifier(clf, LabeledSet(
                            base.x, y_train, base.standardization, base.xz))
                        predictions[key] = predict_labels(model, x_test)
                    y_pred = predictions[key]

                    y_true = label_ground_truth(data.test, data.profile,
                                                signal, sens)
                    tp = int(((y_pred == ANOMALOUS) & (y_true == ANOMALOUS)).sum())
                    fp = int(((y_pred == ANOMALOUS) & (y_true == NORMAL)).sum())
                    tn = int(((y_pred == NORMAL) & (y_true == NORMAL)).sum())
                    fn = int(((y_pred == NORMAL) & (y_true == ANOMALOUS)).sum())
                    cells[clf, dataset, s_pct, group] = ScenarioResult(
                        group, dataset, s_pct, clf, tp, fp, tn, fn,
                        *metrics(tp, fp, tn, fn))
    return EvaluationReport(tuple(
        cells[c, d, s, g] for c in classifiers for d in datasets
        for s in sensitivities for g in groups))
