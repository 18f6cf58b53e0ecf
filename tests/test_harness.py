import dataclasses
import pathlib
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from icn_sentinel import harness
from icn_sentinel.classifiers import (CLASSIFIER_KINDS, LabeledSet,
                                      predict_label, train_classifier)
from icn_sentinel.core import (ANOMALOUS, NORMAL, ConfigError, DataRow,
                               DataTrace, EventTrace, GROUPS, MetricError,
                               ParameterSpec, SchemaError, SensitivityDegree,
                               derive_seed)
from icn_sentinel.harness import (DATASET_KINDS, SENSITIVITIES, Detector,
                                  EvaluationReport, MatrixConfig, dual_detect,
                                  event_chunks, label_ground_truth, metrics,
                                  run_matrix)
from icn_sentinel.iac import classify_trace, train_iac_model
from icn_sentinel.profiler import (ThresholdProfile, compute_threshold,
                                   count_compromised)
from icn_sentinel.synth import (config_hash, default_config, gen_campaign,
                                group_profile,
                                inject_attacks)


@pytest.fixture(scope="module")
def campaign():
    return gen_campaign(default_config(seed=0))


@pytest.fixture(scope="module")
def report(campaign):
    return run_matrix(campaign, MatrixConfig(seed=0))


def test_metrics_published_example():
    adr, fpr, sa = metrics(tp=25, fp=32, tn=103, fn=20)
    assert adr == pytest.approx(55.6, abs=0.05)
    assert fpr == pytest.approx(23.7, abs=0.05)
    assert sa == pytest.approx(71.1, abs=0.05)


def test_metrics_perfect_and_all_normal():
    assert metrics(45, 0, 135, 0) == (100.0, 0.0, 100.0)
    adr, fpr, sa = metrics(0, 0, 135, 45)
    assert (adr, fpr, sa) == (0.0, 0.0, 75.0)


def test_metrics_errors():
    with pytest.raises(MetricError):
        metrics(0, 5, 10, 0)  # no anomalous ground truth
    with pytest.raises(MetricError):
        metrics(5, 0, 0, 5)  # no normal ground truth
    with pytest.raises(MetricError):
        metrics(-1, 1, 1, 1)


def crafted_row(profile, signal, n_exceed):
    """Row exceeding the first n_exceed signal thresholds by a margin."""
    values = {}
    for i, name in enumerate(signal):
        spec = profile.spec(name)
        if i < n_exceed:
            values[name] = (spec.p_th + spec.psi) / 2.0
        else:
            values[name] = spec.p_th * 0.5
    return DataRow(6 * 3600, "MD", values, None)


def test_label_ground_truth_by_sensitivity():
    config = default_config(extra_params=0)
    profile = group_profile(config, "MD")
    signal = list(config.signal_names())
    # rows exceeding 0, 1, 3 and 5 of the five signal parameters
    want = {
        0: {20: NORMAL, 60: NORMAL, 100: NORMAL},
        1: {20: NORMAL, 60: NORMAL, 100: ANOMALOUS},
        3: {20: NORMAL, 60: ANOMALOUS, 100: ANOMALOUS},
        5: {20: ANOMALOUS, 60: ANOMALOUS, 100: ANOMALOUS},
    }
    for n_exceed, by_s in want.items():
        row = crafted_row(profile, signal, n_exceed)
        for s_pct, label in by_s.items():
            got = label_ground_truth(row, profile, signal,
                                     SensitivityDegree(s_pct))
            assert got == label, (n_exceed, s_pct)


@st.composite
def labelling_cases(draw):
    """(trace, profile, features, sensitivity): a trace over 1-5 drawn
    parameters whose cells are often exactly a threshold, and features
    drawn from its schema, sometimes with a name listed twice."""
    schema = draw(st.lists(st.sampled_from(["a", "b", "c", "d", "e"]),
                           min_size=1, max_size=5, unique=True))
    specs = {}
    for name in schema:
        psi = draw(st.floats(1.0, 1e4))
        mu = psi * draw(st.floats(0.0, 1.0))
        specs[name] = ParameterSpec(name, psi, mu, *compute_threshold(psi, mu))
    cell = {n: st.one_of(st.just(s.p_th), st.floats(0.0, 2 * s.psi))
            for n, s in specs.items()}
    rows = [DataRow(60 * i, "MD", {n: draw(cell[n]) for n in schema})
            for i in range(draw(st.integers(0, 12)))]
    features = draw(st.lists(st.sampled_from(schema), min_size=1,
                             max_size=6))
    if draw(st.booleans()):
        features.append(features[0])
    sens = SensitivityDegree(draw(st.sampled_from(SENSITIVITIES)))
    return (DataTrace(schema, rows), ThresholdProfile(specs), features,
            sens)


@settings(max_examples=200, deadline=None)
@given(labelling_cases())
def test_trace_labelling_matches_per_row_labels(case):
    trace, profile, features, sens = case
    # reference: one Python comparison per listed name, row by row
    counts = [sum(r.values[n] > profile.threshold(n) for n in features)
              for r in trace.rows]
    assert count_compromised(trace, profile, features).tolist() == counts
    assert [count_compromised(r, profile, features)
            for r in trace.rows] == counts
    labels = label_ground_truth(trace, profile, features, sens)
    assert labels.tolist() == [label_ground_truth(r, profile, features, sens)
                               for r in trace.rows]
    required = sens.required_count(len(features))
    assert labels.tolist() == [ANOMALOUS if c >= required else NORMAL
                               for c in counts]


def test_event_chunks():
    events = EventTrace(tuple("ABCABC"))
    chunks = event_chunks(events, 3)
    assert len(chunks) == 2
    assert chunks[0].events == ("A", "B", "C")
    assert chunks[1].events == ("A", "B", "C")
    with pytest.raises(ConfigError):
        event_chunks(events, 4)
    with pytest.raises(ConfigError):
        event_chunks(events, 0)


def dual_setup():
    config = default_config(extra_params=4, rows_per_group=40)
    profile = group_profile(config, "MD")
    signal = list(config.signal_names())
    schema = config.schema()
    from icn_sentinel.synth import gen_normal, inject_attacks
    from icn_sentinel.core import derive_seed
    train, train_ev = gen_normal(config, "MD", 40)
    mixed, _ = inject_attacks(train, None, profile, "five", 0.25,
                              seed=derive_seed(0, "MD", "mix"), signal=signal)
    sens = SensitivityDegree(100)
    y = np.array([label_ground_truth(r, profile, signal, sens)
                  for r in mixed.rows])
    data = LabeledSet.from_raw(mixed.to_matrix(schema), y)
    model = train_classifier("knn", data)
    chunks = event_chunks(train_ev, len(schema))
    iac_model = train_iac_model(chunks, w_delta=len(schema))
    detector = Detector(schema, schema, profile, iac_model, model)
    return schema, mixed, chunks, detector, sens


def test_dual_detect_branches():
    schema, mixed, chunks, detector, sens = dual_setup()
    labels = mixed.labels().tolist()
    normal_i, attacked_i = labels.index(NORMAL), labels.index(ANOMALOUS)

    clean, = dual_detect(detector, mixed.take([normal_i]), [chunks[normal_i]],
                         sens)
    assert clean.threshold_pass and clean.iac_pass and clean.normal

    hit, = dual_detect(detector, mixed.take([attacked_i]),
                       [chunks[attacked_i]], sens)
    assert not hit.threshold_pass
    assert not hit.normal

    # a window missing a feature event trips only the event branch
    gap = EventTrace(chunks[normal_i].events[1:])
    verdict, = dual_detect(detector, mixed.take([normal_i]), [gap], sens)
    assert verdict.threshold_pass
    assert not verdict.iac_pass
    assert not verdict.normal
    missing = chunks[normal_i].events[0]
    assert verdict.iac_detail.events[missing].anomalous


def test_dual_detect_batch_matches_one_row_calls():
    schema, mixed, chunks, detector, sens = dual_setup()
    batch = dual_detect(detector, mixed, chunks, sens)
    assert len(batch) == len(mixed)
    assert {v.normal for v in batch} == {True, False}
    for i, (window, verdict) in enumerate(zip(chunks, batch)):
        one, = dual_detect(detector, mixed.take([i]), [window], sens)
        assert (one.threshold_pass, one.iac_pass, one.normal) == \
            (verdict.threshold_pass, verdict.iac_pass, verdict.normal)
    assert dual_detect(detector, mixed.take([]), [], sens) == []
    with pytest.raises(ConfigError, match="1 event windows of %d symbols "
                       "for 2 data rows" % len(schema)):
        dual_detect(detector, mixed.take([0, 1]), chunks[:1], sens)


def test_dual_detect_shares_a_verdict_only_between_equal_outcomes():
    schema, mixed, chunks, detector, sens = dual_setup()
    n = len(mixed)
    gap = EventTrace(chunks[0].events[1:])
    # each row three times: with its own window, the first row's window
    # and a window that fails the event branch
    trace = mixed.take(list(range(n)) * 3)
    windows = chunks + [chunks[0]] * n + [gap] * n
    batch = dual_detect(detector, trace, windows, sens)
    outcomes = {}  # verdict object -> the outcomes of the rows holding it
    for i, verdict in enumerate(batch):
        one, = dual_detect(detector, trace.take([i]), [windows[i]], sens)
        assert (one.threshold_pass, one.iac_pass, one.normal) == \
            (verdict.threshold_pass, verdict.iac_pass, verdict.normal)
        assert one.iac_detail is verdict.iac_detail
        outcomes.setdefault(id(verdict), set()).add(
            (one.threshold_pass, id(one.iac_detail)))
    # one object per distinct outcome, and one outcome per object
    assert all(len(held) == 1 for held in outcomes.values())
    distinct = set().union(*outcomes.values())
    assert len(distinct) == len(outcomes) < len(batch)
    # rows of both threshold outcomes meet one window's verdict
    assert len({detail for _, detail in distinct}) < len(distinct)


def test_dual_detect_scores_a_trace_from_its_matrix():
    schema, mixed, chunks, detector, sens = dual_setup()
    from_trace = dual_detect(detector, mixed, chunks, sens)
    # the threshold branch is each row's own prediction from its values
    per_row = [predict_label(detector.model, [row.values[n] for n in schema])
               == NORMAL for row in mixed.rows]
    assert [v.threshold_pass for v in from_trace] == per_row
    # the matrix follows the trace's schema, so other orders are refused
    reordered = dataclasses.replace(detector, features=schema[::-1])
    with pytest.raises(SchemaError, match="schema order"):
        dual_detect(reordered, mixed, chunks, sens)


def verdict_keys(verdicts):
    return [(v.threshold_pass, v.iac_pass, v.normal, repr(v.iac_detail))
            for v in verdicts]


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(CLASSIFIER_KINDS), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(SENSITIVITIES))
def test_detector_save_load_round_trip_property(algo, seed, s_pct):
    """fit, save, load and save again: the model directories are byte-equal,
    and the loaded detector gives the fitted one's verdicts."""
    config = default_config(seed=seed, extra_params=2, rows_per_group=40,
                            attack_pattern="mixed")
    campaign = gen_campaign(config)
    width = len(config.schema())
    train = campaign.groups["MD"]
    limits = {name: pm.psi for name, pm in config.parameters().items()}
    fitted = Detector.fit(train.test, event_chunks(train.test_events, width),
                          algo, limits)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = pathlib.Path(tmp, "first"), pathlib.Path(tmp, "second")
        fitted.save(first, seed, config_hash(config))
        loaded = Detector.load(first)
        loaded.save(second, seed, config_hash(config))
        files = sorted(p.name for p in first.iterdir())
        assert files == sorted(["meta.json", "profile.json", "iac_model.json",
                                "model_%s.json" % algo])
        assert [(first / f).read_bytes() for f in files] \
            == [(second / f).read_bytes() for f in files]
    sens = SensitivityDegree(s_pct)
    for group in ("MD", "AD"):
        data = campaign.groups[group]
        windows = event_chunks(data.test_events, width)
        assert verdict_keys(dual_detect(loaded, data.test, windows, sens)) \
            == verdict_keys(dual_detect(fitted, data.test, windows, sens))


def test_run_matrix_shape_and_order(report):
    assert len(report.results) == 72
    seen = [(r.classifier, r.dataset, r.s_pct, r.group)
            for r in report.results]
    assert len(set(seen)) == 72
    # canonical nesting: classifier, then dataset, then sensitivity, group
    assert seen[0] == ("svm", "full", 20, "MD")
    assert seen[1][3] != "MD"
    assert seen[-1] == ("c45", "reduced", 100, "ND")


def test_run_matrix_confusion_denominators(report):
    for r in report.results:
        assert r.tp + r.fn == 45
        assert r.fp + r.tn == 135


def test_run_matrix_filters(campaign):
    md = run_matrix(campaign, groups=["MD"])
    assert len(md.results) == 18
    assert all(r.group == "MD" for r in md.results)
    knn = run_matrix(campaign, classifiers=["knn"], datasets=["reduced"],
                     sensitivities=[100])
    assert len(knn.results) == 4
    assert all(r.classifier == "knn" and r.dataset == "reduced"
               and r.s_pct == 100 for r in knn.results)
    with pytest.raises(ConfigError):
        run_matrix(campaign, groups=["XX"])


@pytest.mark.parametrize("filters, message", [
    ({"groups": ["MD", "MD"]}, "repeated group 'MD'"),
    ({"datasets": ["full", "full"]}, "repeated dataset 'full'"),
    ({"sensitivities": [100, 100]}, "repeated sensitivity 100"),
    ({"classifiers": ["knn", "knn"]}, "repeated classifier 'knn'"),
    ({"datasets": ["bogus"]}, "unknown dataset 'bogus'")])
def test_run_matrix_refuses_a_repeated_or_unknown_filter(campaign, filters,
                                                         message):
    # a repeated dataset, sensitivity or classifier used to evaluate its
    # cells twice, and an unknown dataset ended in a bare KeyError
    narrow = {"groups": ["MD"], "classifiers": ["knn"],
              "sensitivities": [100]}
    with pytest.raises(SchemaError, match=re.escape(message)):
        run_matrix(campaign, **dict(narrow, **filters))


def cell_key(result):
    return (result.classifier, result.dataset, result.s_pct, result.group)


@pytest.mark.parametrize("pattern, seed", [("five", 3), ("mixed", 7)])
def test_a_filtered_matrix_keeps_each_cell_of_the_full_run(pattern, seed):
    # metamorphic: narrowing evaluate by any filter, in any order, neither
    # adds a cell nor changes one
    campaign = gen_campaign(default_config(seed=seed, attack_pattern=pattern,
                                           rows_per_group=120))
    full = {cell_key(r): r for r in run_matrix(campaign).results}
    assert len(full) == 72
    filters = ([{"groups": [g]} for g in GROUPS]
               + [{"datasets": [d]} for d in DATASET_KINDS]
               + [{"sensitivities": [s]} for s in SENSITIVITIES]
               + [{"classifiers": [c]} for c in CLASSIFIER_KINDS]
               + [{"groups": ["ND", "AD"], "datasets": ["reduced"],
                   "sensitivities": [100, 20], "classifiers": ["c45", "svm"]}])
    dims = ("classifiers", "datasets", "sensitivities", "groups")
    for f in filters:
        cells = run_matrix(campaign, **f).results
        assert sorted(map(cell_key, cells)) == sorted(
            key for key in full
            if all(v in f.get(d, (v,)) for d, v in zip(dims, key))), f
        for r in cells:
            assert r == full[cell_key(r)], f


def test_run_matrix_deterministic(campaign):
    a = run_matrix(campaign, classifiers=["svm"], groups=["MD"])
    b = run_matrix(campaign, classifiers=["svm"], groups=["MD"])
    assert a.results == b.results


def test_report_rows_and_averages(report):
    cells = report.rows(classifier="knn", dataset="reduced", s_pct=100)
    assert len(cells) == 4
    avg = [a for a in report.averages()
           if a["classifier"] == "knn" and a["dataset"] == "reduced"
           and a["s_pct"] == 100]
    assert len(avg) == 1
    assert avg[0]["adr"] == pytest.approx(sum(c.adr for c in cells) / 4)
    assert avg[0]["sa"] == pytest.approx(sum(c.sa for c in cells) / 4)
    assert len(report.averages()) == 18


def test_report_csv_and_tables(tmp_path, report):
    path = tmp_path / "report.csv"
    report.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "classifier,dataset,s_pct,group,tp,fp,tn,fn,adr,fpr,sa"
    assert len(lines) == 73
    first = lines[1].split(",")
    assert first[0] == "svm" and first[3] == "MD"
    assert first[4:8] == [str(report.results[0].tp), str(report.results[0].fp),
                          str(report.results[0].tn), str(report.results[0].fn)]

    text = report.render_tables()
    assert "KNN, sensitivity 100%" in text
    assert "full/MD" in text and "reduced/avg" in text
    assert "ADR" in text and "FPR" in text and "SA" in text


def reference_tables(report):
    """render_tables as it was written over rows() scans: the reference."""
    lines = []
    present_groups = [g for g in GROUPS
                      if any(r.group == g for r in report.results)]
    for clf in CLASSIFIER_KINDS:
        for s_pct in SENSITIVITIES:
            if not report.rows(classifier=clf, s_pct=s_pct):
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
                        rs = report.rows(classifier=clf, s_pct=s_pct,
                                         dataset=dataset, group=g)
                        vals.append(getattr(rs[0], metric) if rs else None)
                    cells += ["%.1f" % v if v is not None else "-"
                              for v in vals]
                    shown = [v for v in vals if v is not None]
                    cells.append("%.1f" % (sum(shown) / len(shown))
                                 if shown else "-")
                lines.append("".join(c.ljust(w) for c, w in zip(cells, widths)))
            lines.append("")
    return "\n".join(lines)


def test_render_tables_matches_reference(campaign, report):
    filtered = run_matrix(campaign, groups=["MD", "ED"], classifiers=["knn"])
    # no SVM 60 % block, no reduced/AD cell anywhere, no ND group at all
    gaps = EvaluationReport(tuple(
        r for r in report.results
        if (r.classifier, r.s_pct) != ("svm", 60)
        and (r.dataset, r.group) != ("reduced", "AD") and r.group != "ND"))
    # a repeated cell shows its first result
    repeated = EvaluationReport(report.results + tuple(
        dataclasses.replace(r, adr=0.0, sa=0.0) for r in report.results[:9]))
    for case in (report, filtered, gaps, repeated, EvaluationReport(())):
        assert case.render_tables() == reference_tables(case)
    assert "SVM, sensitivity 60%" not in gaps.render_tables()
    assert "ND" not in gaps.render_tables()


def test_run_matrix_labels_from_the_matrix(monkeypatch):
    # ground truth comes from each partition's matrix: no trace builds its
    # DataRow views (rows is a cached_property, so it shows in vars())
    camp = gen_campaign(default_config(seed=1))
    mixed = []
    inject = harness.inject_attacks

    def keep(*args, **kwargs):
        out = inject(*args, **kwargs)
        mixed.append(out[0])
        return out

    monkeypatch.setattr(harness, "inject_attacks", keep)
    assert len(run_matrix(camp).results) == 72
    partitions = mixed + [t for data in camp.groups.values()
                          for t in (data.train, data.test)]
    assert len(partitions) == 12
    assert all("rows" not in vars(t) for t in partitions)


def distinct_training_sets(campaign):
    """(classifier, view, group, training labels) keys over the matrix,
    labelled the way run_matrix labels each cell."""
    config = campaign.config
    signal = list(campaign.signal)
    keys = set()
    for group in GROUPS:
        data = campaign.groups[group]
        train_mixed, _ = inject_attacks(
            data.train, None, data.profile, config.attack_pattern,
            config.attack_rate,
            seed=derive_seed(config.seed, group, "train-attack"),
            signal=signal, burst_len=config.burst_len)
        for s_pct in SENSITIVITIES:
            sens = SensitivityDegree(s_pct)
            labels = tuple(label_ground_truth(r, data.profile, signal, sens)
                           for r in train_mixed.rows)
            keys.update((clf, dataset, group, labels)
                        for clf in CLASSIFIER_KINDS
                        for dataset in DATASET_KINDS)
    return len(keys)


def test_run_matrix_trains_each_distinct_set_once(campaign, monkeypatch):
    calls = []
    train = harness.train_classifier

    def counting_train(kind, data):
        calls.append(kind)
        return train(kind, data)

    monkeypatch.setattr(harness, "train_classifier", counting_train)
    mixed = gen_campaign(default_config(seed=0, attack_pattern="mixed",
                                        rows_per_group=90))
    # "five" attacks compromise every signal parameter, so a group's
    # labels are the same at every sensitivity
    for camp, want in ((campaign, 24), (mixed, distinct_training_sets(mixed))):
        del calls[:]
        full = run_matrix(camp)
        assert len(full.results) == 72
        assert len(calls) == want
        # one sensitivity per call leaves nothing to reuse: a cold reference
        cold = {s: run_matrix(camp, sensitivities=[s]) for s in SENSITIVITIES}
        expected = [r for clf in CLASSIFIER_KINDS for dataset in DATASET_KINDS
                    for s in SENSITIVITIES
                    for r in cold[s].rows(classifier=clf, dataset=dataset)]
        assert full.results == tuple(expected)
    assert distinct_training_sets(campaign) == 24


def test_training_row_order_changes_no_profile_curves_or_verdicts(tmp_path):
    # metamorphic: a permutation of the training rows (and their windows)
    # writes the same profile.json and iac_model.json, and each classifier
    # gives every held-out row the same verdict.  360 rows stay below the
    # 1440 most recent rows that build_profile reads.
    config = default_config(seed=9400, rows_per_group=360)
    md = gen_campaign(config).groups["MD"]
    held_out = gen_campaign(default_config(
        seed=9401, attack_pattern="mixed", rows_per_group=1440)).groups["MD"]
    width = len(md.test.schema)
    windows = event_chunks(md.test_events, width)
    held_windows = event_chunks(held_out.test_events, width)
    limits = {name: pm.psi for name, pm in config.parameters().items()}
    n = len(md.test)
    rng = np.random.default_rng(0)
    orders = [list(range(n))] + [rng.permutation(n).tolist()
                                 for _ in range(2)]
    for algo in ("svm", "knn", "c45"):
        outcomes = []
        for i, order in enumerate(orders):
            detector = Detector.fit(md.test.take(order),
                                    [windows[j] for j in order], algo, limits)
            out = tmp_path / ("%s-%d" % (algo, i))
            detector.save(out, 0, config_hash(config))
            verdicts = dual_detect(detector, held_out.test, held_windows,
                                   SensitivityDegree(100))
            outcomes.append((
                (out / "profile.json").read_bytes(),
                (out / "iac_model.json").read_bytes(),
                [(v.threshold_pass, v.iac_pass, v.normal) for v in verdicts]))
        assert {normal for _, _, normal in outcomes[0][2]} == {True, False}
        assert outcomes[1:] == outcomes[:1] * (len(orders) - 1), algo


def test_sensitivity_grades_nest():
    # metamorphic: at a fixed curve model, a window flagged at S20 is
    # flagged at S60 and one flagged at S60 is flagged at S100, over the
    # same per-event verdicts; replayed and symbol-shuffled windows
    campaign = gen_campaign(default_config(seed=9402, attack_pattern="mixed",
                                           rows_per_group=600))
    md = campaign.groups["MD"]
    width = len(md.test.schema)
    model = train_iac_model(event_chunks(md.train_events, width))
    replayed = event_chunks(md.test_events, width)
    rng = np.random.default_rng(0)
    shuffled = [EventTrace(rng.permutation(w.events).tolist())
                for w in replayed]
    flagged = {s: 0 for s in SENSITIVITIES}
    for window in replayed + shuffled:
        verdicts = [classify_trace(window, model,
                                   sensitivity=SensitivityDegree(s))
                    for s in SENSITIVITIES]
        assert len({tuple(v.events.items()) for v in verdicts}) == 1
        anomalous = [v.anomalous for v in verdicts]
        assert anomalous == sorted(anomalous), window
        for s, a in zip(SENSITIVITIES, anomalous):
            flagged[s] += a
    # S20 needs every event anomalous, which none of these windows is
    assert flagged[20] <= flagged[60] < flagged[100] < len(replayed), flagged
    assert flagged[60] > 0, flagged
