import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from collections import Counter

import numpy as np
import pytest
import scipy.special

import icn_sentinel
from icn_sentinel.classifiers import load_model
from icn_sentinel.cli import build_parser, main
from icn_sentinel.core import (ConfigError, DataRow, SchemaError,
                               SensitivityDegree, infer_schema,
                               parse_data_trace, parse_event_trace)
from icn_sentinel.harness import Detector, dual_detect, event_chunks
from icn_sentinel.iac import IacModel
from icn_sentinel.synth import (GeneratorConfig, default_config,
                                gen_campaign, load_campaign)


@pytest.fixture(scope="module")
def campaign_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "campaign"
    assert main(["gen", "--seed", "0", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def models_dir(tmp_path_factory, campaign_dir):
    out = tmp_path_factory.mktemp("cli-models") / "models"
    rc = main(["train", "--data", str(campaign_dir / "MD_test.csv"),
               "--events", str(campaign_dir / "MD_test.events"),
               "--algo", "knn", "--out", str(out)])
    assert rc == 0
    return out


def read_all(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_gen_writes_expected_files(campaign_dir, capsys):
    names = {p.name for p in campaign_dir.iterdir()}
    assert "manifest.json" in names
    for group in ("MD", "AD", "ED", "ND"):
        for part in ("train", "test"):
            assert "%s_%s.csv" % (group, part) in names
            assert "%s_%s.events" % (group, part) in names
    manifest = json.loads((campaign_dir / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 0
    assert len(manifest["config_hash"]) == 64


def test_gen_byte_identical_regeneration(tmp_path, campaign_dir):
    again = tmp_path / "again"
    assert main(["gen", "--seed", "0", "--out", str(again)]) == 0
    assert read_all(again) == read_all(campaign_dir)


def test_gen_env_seed_fallback(tmp_path, monkeypatch):
    explicit = tmp_path / "explicit"
    via_env = tmp_path / "via-env"
    assert main(["gen", "--seed", "7", "--out", str(explicit)]) == 0
    monkeypatch.setenv("ICN_SENTINEL_SEED", "7")
    assert main(["gen", "--out", str(via_env)]) == 0
    assert read_all(via_env) == read_all(explicit)
    monkeypatch.setenv("ICN_SENTINEL_SEED", "not-a-number")
    assert main(["gen", "--out", str(tmp_path / "bad")]) == 3


def test_train_outputs(models_dir):
    names = {p.name for p in models_dir.iterdir()}
    assert names == {"profile.json", "iac_model.json", "model_knn.json",
                     "meta.json"}
    meta = json.loads((models_dir / "meta.json").read_text())
    assert meta["algo"] == "knn"
    assert len(meta["schema"]) == 18
    assert meta["features"] == meta["schema"]


def test_detect_finds_injected_rows(campaign_dir, models_dir, tmp_path,
                                    capsys):
    out = tmp_path / "verdicts.csv"
    rc = main(["detect", "--data", str(campaign_dir / "MD_test.csv"),
               "--events", str(campaign_dir / "MD_test.events"),
               "--models", str(models_dir), "--out", str(out)])
    assert rc == 0
    assert "45 of 180 rows anomalous" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "row,ts,group,threshold_pass,iac_pass,verdict"
    assert len(lines) == 181
    assert sum(line.endswith(",anomalous") for line in lines[1:]) == 45


def test_select_reduces_to_single_signal(campaign_dir, tmp_path):
    out = tmp_path / "subset.json"
    rc = main(["select", "--data", str(campaign_dir / "MD_test.csv"),
               "--method", "greedy", "--algo", "knn", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    # every attack trips all five signal channels, so one suffices
    assert len(doc["features"]) == 1
    assert doc["features"][0] in ("FGF", "MSV", "GBV", "EGT", "Power")
    assert doc["score"] == 1.0


def test_select_rejects_negative_seed(campaign_dir, monkeypatch, capsys):
    select = ["select", "--data", str(campaign_dir / "MD_test.csv")]
    for method in ("greedy", "genetic"):
        assert main(select + ["--method", method, "--seed", "-1"]) == 3
        err = capsys.readouterr().err
        assert "seed must be >= 0, got -1" in err and "Traceback" not in err
    monkeypatch.setenv("ICN_SENTINEL_SEED", "-1")
    assert main(select + ["--method", "genetic"]) == 3
    assert "seed must be >= 0, got -1" in capsys.readouterr().err


def test_select_genetic_rejects_max_features(campaign_dir, capsys):
    assert main(["select", "--data", str(campaign_dir / "MD_test.csv"),
                 "--method", "genetic", "--max-features", "2"]) == 3
    err = capsys.readouterr().err
    assert "--max-features" in err and "--method genetic" in err


def test_evaluate_meets_default_acceptance(campaign_dir, tmp_path, capsys):
    out = tmp_path / "report"
    rc = main(["evaluate", "--campaign", str(campaign_dir),
               "--out", str(out), "--seed", "0"])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "acceptance thresholds met (72 cells)" in stdout
    assert "KNN, sensitivity 100%" in stdout
    names = {p.name for p in out.iterdir()}
    assert names == {"report.csv", "report.txt", "run.json"}
    run = json.loads((out / "run.json").read_text())
    assert run["seed"] == 0
    assert len((out / "report.csv").read_text().splitlines()) == 73


def test_evaluate_filters(campaign_dir, capsys):
    rc = main(["evaluate", "--campaign", str(campaign_dir),
               "--groups", "MD", "--algo", "knn"])
    assert rc == 0
    assert "(6 cells)" in capsys.readouterr().out


@pytest.mark.parametrize("pattern", ["one", "three"])
def test_evaluate_refuses_a_campaign_with_one_class_cells(pattern, tmp_path,
                                                          capsys):
    # under "one" and "three" no training row is anomalous at sensitivity
    # 20 %, so the first such cell has nothing to train on
    config = tmp_path / "gen.json"
    config.write_text(json.dumps({"rows_per_group": 60,
                                  "attack_pattern": pattern}))
    campaign = tmp_path / "campaign"
    assert main(["gen", "--config", str(config), "--seed", "3",
                 "--out", str(campaign)]) == 0
    capsys.readouterr()
    out = tmp_path / "report"
    assert main(["evaluate", "--campaign", str(campaign),
                 "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: training data must contain both classes\n"
    assert captured.out == ""
    assert not out.exists()


def test_evaluate_unmeetable_rule_exits_one(campaign_dir, tmp_path, capsys):
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps(
        {"acceptance": [{"dataset": "full", "classifier": "svm",
                         "min_sa": 100.5}]}))
    rc = main(["evaluate", "--campaign", str(campaign_dir),
               "--config", str(rules)])
    assert rc == 1
    assert "acceptance failure" in capsys.readouterr().err


def test_evaluate_prints_each_failed_rule(campaign_dir, tmp_path, capsys):
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps(
        {"acceptance": [{"min_sa": 100.5, "max_fpr": -0.5,
                         "min_adr": 100.5}]}))
    rc = main(["evaluate", "--campaign", str(campaign_dir), "--groups", "MD",
               "--algo", "knn", "--dataset", "reduced", "--sensitivity", "60",
               "--config", str(rules)])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        "acceptance failure: knn/reduced/S60/MD: ADR 100.00 < 100.50",
        "acceptance failure: knn/reduced/S60/MD: FPR 0.00 > -0.50",
        "acceptance failure: knn/reduced/S60/MD: SA 100.00 < 100.50"]


@pytest.mark.parametrize("rule, key", [
    ({"min_saa": 101}, "min_saa"),
    ({"datset": "reduced", "min_sa": 101}, "datset")],
    ids=["min_saa", "datset"])
def test_evaluate_rejects_unknown_rule_key(rule, key, campaign_dir, tmp_path,
                                           capsys):
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps({"acceptance": [rule]}))
    assert main(["evaluate", "--campaign", str(campaign_dir),
                 "--config", str(rules)]) == 3
    err = capsys.readouterr().err
    assert "rules.json" in err and key in err, err


@pytest.mark.parametrize("args, rules, code, named", [
    (["--sensitivity", "60"], None, 1, '"s_pct": 20'),
    ([], '{"acceptance": []}', 3, "non-empty list"),
    ([], '{"acceptance": [{"min_sa": NaN}]}', 3, "min_sa"),
    ([], '{"acceptance": [{"max_fpr": Infinity}]}', 3, "max_fpr"),
    ([], '{"acceptance": [{"max_fpr": 1%s}]}' % ("0" * 400), 3, "max_fpr"),
    ([], '{"acceptance": [{"dataset": "reduced"}]}', 3, "no limit"),
    ([], '{"acceptance": [{"s_pct": "20", "min_sa": 101}]}', 1,
     '"s_pct": "20"')],
    ids=["default-rule-unmatched", "empty", "nan-limit", "infinite-limit",
         "beyond-float-limit", "no-limit", "string-s_pct-unmatched"])
def test_evaluate_refuses_vacuous_acceptance(args, rules, code, named,
                                             campaign_dir, tmp_path, capsys):
    # each rule set would pass any report: it checks no cell or no limit
    argv = ["evaluate", "--campaign", str(campaign_dir), "--groups", "MD",
            "--algo", "knn"] + args
    if rules is not None:
        (tmp_path / "rules.json").write_text(rules)
        argv += ["--config", str(tmp_path / "rules.json")]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert named in err, err
    if code == 1:
        assert err.startswith("acceptance failure: rule {")
        assert err.rstrip().endswith("matches no cell")


def test_usage_errors_exit_two(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["gen"]) == 2  # --out is required
    capsys.readouterr()


def test_gen_refuses_a_nan_noise_level(tmp_path, capsys):
    # json reads NaN; a NaN rel_std would put nan readings in the CSVs
    config = tmp_path / "gen_config.json"
    config.write_text('{"signal": [["FGF", {"psi": 500.0, "mu": 334.17, '
                      '"rel_std": NaN}]]}')
    out = tmp_path / "campaign"
    assert main(["gen", "--config", str(config), "--out", str(out)]) == 3
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field,value", [
    (field, value)
    for field in ("rows_per_group", "extra_params", "cadence_s", "burst_len",
                  "seed")
    for value in (True, 1.5)] + [("seed", "abc")])
def test_gen_refuses_a_non_integer_config_field(tmp_path, capsys, field,
                                                value):
    config = tmp_path / "gen_config.json"
    config.write_text(json.dumps({field: value}))
    out = tmp_path / "campaign"
    assert main(["gen", "--config", str(config), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "%s must be an integer, got %r" % (field, value) in err
    assert not out.exists()


@pytest.mark.parametrize("config, named", [
    ({"signal": None}, "signal: expected a list or an object"),
    ({"power_offsets": None}, "power_offsets"),
    ({"power_offsets": ["MD", "AD", "ED", "ND"]}, "power_offsets")],
    ids=["null-signal", "null-power-offsets", "power-offsets-list"])
def test_gen_refuses_a_null_or_listed_default(config, named, tmp_path,
                                              capsys):
    # null used to stand for the default power offsets, and a list of the
    # group names ended in an AttributeError
    path = tmp_path / "gen_config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "campaign"
    assert main(["gen", "--config", str(path), "--out", str(out)]) == 3
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("signal, named", [
    ([["FGF", 5]], "signal[0]: expected [name, {psi, mu, rel_std}]"),
    ([5], "signal[0]: expected [name, {psi, mu, rel_std}]"),
    ("FGF", "signal: expected a list or an object"),
    ([["FGF", {"psi": 500.0, "mu": 334.17}], ["GBV"]],
     "signal[1]: expected [name, {psi, mu, rel_std}]"),
    ({"FGF": 5}, "signal[0]: expected [name, {psi, mu, rel_std}]"),
    ([["FGF", {"mu": 1}]], "signal[0] ('FGF'): missing key 'psi'"),
    ([["FGF", {"psi": 500.0, "mu": 334.17}], ["GBV", {"psi": "x", "mu": 1}]],
     "signal[1] ('GBV'): psi must be a finite number, got 'x'"),
    ({"FGF": {"mu": 1}}, "signal[0] ('FGF'): missing key 'psi'"),
    ({"FGF": {"psi": 500.0, "mu": 334.17}, "GBV": {"psi": "x", "mu": 1}},
     "signal[1] ('GBV'): psi must be a finite number, got 'x'")],
    ids=["number-body", "number-entry", "string", "short-pair",
         "object-number-body", "list-missing-psi", "list-string-psi",
         "object-missing-psi", "object-string-psi"])
def test_gen_names_a_wrong_typed_signal_entry(signal, named, tmp_path,
                                              capsys):
    # each used to print only the TypeError or ValueError text, and a
    # missing key or bad value in a body did not name the entry; a null
    # signal is a case of test_gen_refuses_a_null_or_listed_default
    path = tmp_path / "gen_config.json"
    path.write_text(json.dumps({"signal": signal}))
    out = tmp_path / "campaign"
    assert main(["gen", "--config", str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "error: %s: %s" % (path, named) in err, err
    assert "bad value" not in err
    assert not out.exists()


def test_select_refuses_a_feature_beyond_float_range(small_campaign_dir,
                                                     tmp_path, capsys):
    # a LOT column of +-1e308 used to exit 0 after a numpy overflow
    # warning, scoring LOT as a constant column; train refuses it too
    lines = (small_campaign_dir / "MD_test.csv").read_text().splitlines()
    at = lines[0].split(",").index("LOT")
    for i in range(1, len(lines)):
        cells = lines[i].split(",")
        cells[at] = "1e308" if i % 2 else "-1e308"
        lines[i] = ",".join(cells)
    data = tmp_path / "overflow.csv"
    data.write_text("\n".join(lines) + "\n")
    schema = infer_schema(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["select", "--data", str(data), "--method", "greedy",
                     "--algo", "knn"]) == 3
    err = capsys.readouterr().err
    assert err == "error: feature column %d: the mean or spread " \
        "overflows float range\n" % schema.index("LOT"), err


def fresh_env():
    """The environment for a fresh interpreter that imports this package's
    source before anything else on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(icn_sentinel.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))


def test_select_knn_scores_a_far_row_without_an_overflow_warning(
        small_campaign_dir, tmp_path):
    # LOT's spread is tiny but non-zero, and one row sits far out: in the
    # folds that hold it out, its squared distance overflows to +inf, which
    # used to print numpy's multiply overflow warning
    lines = (small_campaign_dir / "MD_test.csv").read_text().splitlines()
    at = lines[0].split(",").index("LOT")
    for i in range(1, len(lines)):
        cells = lines[i].split(",")
        cells[at] = "1000" if i == 1 else "1e-152" if i % 2 else "-1e-152"
        lines[i] = ",".join(cells)
    data = tmp_path / "far.csv"
    data.write_text("\n".join(lines) + "\n")
    proc = subprocess.run(
        [sys.executable, "-m", "icn_sentinel.cli", "select", "--data",
         str(data), "--method", "greedy", "--algo", "knn", "--seed", "0",
         "--out", str(tmp_path / "selection.json")],
        env=fresh_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr, proc.stderr
    assert json.loads((tmp_path / "selection.json").read_text())["features"]


def test_train_refuses_a_baseline_beyond_float_range(small_campaign_dir,
                                                     tmp_path, capsys):
    # MSV cells near 1e307 used to print numpy's reduce overflow warning
    # from the trimmed mean before the error
    lines = (small_campaign_dir / "MD_test.csv").read_text().splitlines()
    at = lines[0].split(",").index("MSV")
    for i in range(1, len(lines)):
        cells = lines[i].split(",")
        cells[at] = "1.5e307"
        lines[i] = ",".join(cells)
    data = tmp_path / "overflow.csv"
    data.write_text("\n".join(lines) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["train", "--data", str(data),
                     "--events", str(small_campaign_dir / "MD_test.events"),
                     "--algo", "c45", "--out", str(tmp_path / "m")]) == 3
    assert capsys.readouterr().err == "error: non-finite mu for 'MSV'\n"
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("rows", [10 ** 11, 10 ** 400],
                         ids=["rows-1e11", "rows-401-digits"])
def test_gen_refuses_a_size_above_the_cap(rows, tmp_path, capsys):
    # refused in GeneratorConfig, before the rows are allocated
    config = tmp_path / "gen_config.json"
    config.write_text(json.dumps({"rows_per_group": rows}))
    out = tmp_path / "campaign"
    assert main(["gen", "--config", str(config), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "rows_per_group must be in [1, " in err and "Traceback" not in err
    assert not out.exists()


@pytest.fixture(scope="module")
def small_campaign_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-small")
    (out / "gen.json").write_text(json.dumps({"rows_per_group": 60}))
    assert main(["gen", "--config", str(out / "gen.json"), "--seed", "3",
                 "--out", str(out / "campaign")]) == 0
    return out / "campaign"


def test_data_errors_exit_three(campaign_dir, models_dir, tmp_path, capsys):
    assert main(["train", "--data", str(tmp_path / "missing.csv"),
                 "--events", str(tmp_path / "missing.events"),
                 "--out", str(tmp_path / "m")]) == 3
    assert main(["detect", "--data", str(campaign_dir / "MD_test.csv"),
                 "--events", str(campaign_dir / "MD_test.events"),
                 "--models", str(tmp_path / "nope")]) == 3
    assert main(["evaluate", "--campaign", str(tmp_path / "nope")]) == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["gen", "--config", str(bad),
                 "--out", str(tmp_path / "g")]) == 3
    assert "bad.json" in capsys.readouterr().err
    # malformed model files: a string psi, a missing key
    for name, key, spoil in (
            ("profile.json", "psi", lambda doc: doc["FGF"].update(psi="high")),
            ("iac_model.json", "w_delta", lambda doc: doc.pop("w_delta"))):
        models = tmp_path / ("spoiled_" + name.split(".")[0])
        shutil.copytree(models_dir, models)
        doc = json.loads((models / name).read_text())
        spoil(doc)
        (models / name).write_text(json.dumps(doc))
        assert main(["detect", "--data", str(campaign_dir / "MD_test.csv"),
                     "--events", str(campaign_dir / "MD_test.events"),
                     "--models", str(models)]) == 3
        err = capsys.readouterr().err
        assert name in err and key in err


def test_train_rejects_unlabeled_and_unpaired(campaign_dir, tmp_path, capsys):
    # train partition files are labeled all-normal; a classifier cannot be
    # fit on a single class
    rc = main(["train", "--data", str(campaign_dir / "MD_train.csv"),
               "--events", str(campaign_dir / "MD_train.events"),
               "--algo", "knn", "--out", str(tmp_path / "m")])
    assert rc == 3
    assert "both classes" in capsys.readouterr().err
    # events from a different partition cannot pair with the data rows
    rc = main(["train", "--data", str(campaign_dir / "MD_test.csv"),
               "--events", str(campaign_dir / "MD_train.events"),
               "--algo", "knn", "--out", str(tmp_path / "m")])
    assert rc == 3


def test_detect_matches_cold_per_row_dual_detect(campaign_dir, models_dir,
                                                 tmp_path, capsys):
    data = campaign_dir / "MD_test.csv"
    events = campaign_dir / "MD_test.events"
    out = tmp_path / "verdicts.csv"
    assert main(["detect", "--data", str(data), "--events", str(events),
                 "--models", str(models_dir), "--sensitivity", "60",
                 "--out", str(out)]) == 0
    capsys.readouterr()

    detector = Detector.load(models_dir)
    trace = parse_data_trace(data, detector.schema)
    chunks = event_chunks(parse_event_trace(events), len(detector.schema))
    # cyclic traffic: far fewer distinct windows than rows
    assert len({c.events for c in chunks}) < len(chunks) // 2
    lines = ["row,ts,group,threshold_pass,iac_pass,verdict"]
    for i in range(len(trace)):
        cold = dataclasses.replace(
            detector, iac_model=IacModel.load(models_dir / "iac_model.json"))
        v, = dual_detect(cold, trace.take([i]), [chunks[i]],
                         SensitivityDegree(60))
        lines.append("%d,%d,%s,%s,%s,%s" % (
            i, trace.timestamps[i], trace.groups[i], v.threshold_pass,
            v.iac_pass,
            "normal" if v.normal else "anomalous"))
    assert out.read_text() == "\n".join(lines) + "\n"


def test_detect_verdicts_are_row_local(svm_models_dir):
    # a row's verdict depends on that row and its window only: a prefix, a
    # permutation, a reversal and a duplication of a held-out trace, each
    # scored by a freshly loaded detector, give every row its verdict in
    # the whole trace
    held_out = gen_campaign(default_config(
        seed=9401, attack_pattern="mixed", rows_per_group=360)).groups["MD"]
    trace = held_out.test
    windows = event_chunks(held_out.test_events, len(trace.schema))
    n = len(trace)
    rng = np.random.default_rng(0)
    orders = {"prefix": list(range(n // 3)),
              "permutation": rng.permutation(n).tolist(),
              "reversal": list(range(n))[::-1],
              "duplication": rng.permutation(
                  list(range(n)) + list(range(0, n, 4))).tolist()}

    def verdicts(order, s_pct):
        return [(v.threshold_pass, v.iac_pass, v.normal) for v in dual_detect(
            Detector.load(svm_models_dir), trace.take(order),
            [windows[i] for i in order], SensitivityDegree(s_pct))]

    for s_pct in (20, 60, 100):
        whole = verdicts(range(n), s_pct)
        assert {normal for _, _, normal in whole} == {True, False}
        for name, order in orders.items():
            assert verdicts(order, s_pct) == [whole[i] for i in order], \
                (name, s_pct)


def test_detect_builds_no_data_row(campaign_dir, models_dir, tmp_path,
                                   monkeypatch, capsys):
    # detect scores the trace's matrix and writes ts/group from its columns
    def refuse(*args, **kwargs):
        raise AssertionError("detect built a DataRow")
    monkeypatch.setattr(DataRow, "__init__", refuse)
    out = tmp_path / "verdicts.csv"
    assert main(["detect", "--data", str(campaign_dir / "MD_test.csv"),
                 "--events", str(campaign_dir / "MD_test.events"),
                 "--models", str(models_dir), "--out", str(out)]) == 0
    assert "45 of 180 rows anomalous" in capsys.readouterr().out


def test_undecodable_trace_files_exit_three(campaign_dir, models_dir,
                                            tmp_path, capsys):
    data = campaign_dir / "MD_test.csv"
    events = campaign_dir / "MD_test.events"
    bad_csv = tmp_path / "bad.csv"
    raw = data.read_bytes().splitlines(keepends=True)
    bad_csv.write_bytes(b"".join(raw[:3] + [raw[3].replace(b",", b",\xff", 1)]
                                 + raw[4:]))
    bad_events = tmp_path / "bad.events"
    bad_events.write_bytes(events.read_bytes()[:40] + b"\xff\n")
    detect = ["detect", "--models", str(models_dir)]
    for argv, name in (
            # infer_schema reads the header of the file
            (["select", "--data", str(bad_csv)], "bad.csv"),
            # parse_data_trace, given the schema from meta.json
            (detect + ["--data", str(bad_csv), "--events", str(events)],
             "bad.csv"),
            (detect + ["--data", str(data), "--events", str(bad_events)],
             "bad.events")):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err
        assert "Traceback" not in err


def test_oversized_csv_fields_exit_three(campaign_dir, models_dir, tmp_path,
                                        capsys):
    # the csv module refuses fields over 131072 characters
    data = campaign_dir / "MD_test.csv"
    events = campaign_dir / "MD_test.events"
    raw = data.read_bytes().splitlines(keepends=True)
    long_header = tmp_path / "long_header.csv"
    long_header.write_bytes(raw[0].replace(b",", b"," + b"x" * 140000, 1)
                            + b"".join(raw[1:]))
    long_cell = tmp_path / "long_cell.csv"
    long_cell.write_bytes(b"".join(raw[:3] + [raw[3].replace(
        b",", b"," + b"7" * 140000, 1)] + raw[4:]))
    detect = ["detect", "--models", str(models_dir), "--events", str(events)]
    for argv, name in (
            # infer_schema reads the header of the file
            (["select", "--data", str(long_header)], "long_header.csv"),
            # parse_data_trace, after infer_schema read the header
            (["select", "--data", str(long_cell)], "long_cell.csv"),
            # parse_data_trace, given the schema from meta.json
            (detect + ["--data", str(long_cell)], "long_cell.csv")):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err
        assert "field limit" in err and "Traceback" not in err


def test_train_config_without_a_limit_exits_three(campaign_dir, tmp_path,
                                                 capsys):
    # a config whose signal names FGF only has no psi for MSV, GBV, ...
    config = tmp_path / "gen_config.json"
    config.write_text(json.dumps({"signal": {"FGF": {"psi": 600.0,
                                                      "mu": 300.0}}}))
    assert main(["train", "--data", str(campaign_dir / "MD_test.csv"),
                 "--events", str(campaign_dir / "MD_test.events"),
                 "--config", str(config), "--out", str(tmp_path / "m")]) == 3
    err = capsys.readouterr().err
    assert "psi" in err and "MSV" in err, err
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("flag, value, key", [
    ("--sigma-th", "nan", "sigma_th"), ("--alpha", "nan", "alpha"),
    ("--w-delta", "0", "w_delta")])
def test_train_rejects_settings_detect_would_refuse(flag, value, key,
                                                    campaign_dir, tmp_path,
                                                    capsys):
    # a model detect refuses to load must not be written in the first place
    out = tmp_path / "m"
    assert main(["train", "--data", str(campaign_dir / "MD_test.csv"),
                 "--events", str(campaign_dir / "MD_test.events"),
                 "--algo", "knn", flag, value, "--out", str(out)]) == 3
    assert key in capsys.readouterr().err
    assert not out.exists()
    # an infinite sigma_th stays legal and loads back
    if flag == "--sigma-th":
        assert main(["train", "--data", str(campaign_dir / "MD_test.csv"),
                     "--events", str(campaign_dir / "MD_test.events"),
                     "--algo", "knn", flag, "inf", "--out", str(out)]) == 0
        assert IacModel.load(out / "iac_model.json").sigma_th == float("inf")


@pytest.mark.parametrize("flag, key", [("--alpha", "alpha"),
                                       ("--sigma-th", "sigma_th")])
def test_detect_refuses_a_nan_gate(flag, key, campaign_dir, models_dir,
                                   tmp_path, capsys):
    # no comparison with NaN is true: a NaN gate decides every curve alike
    out = tmp_path / "verdicts.csv"
    assert main(["detect", "--data", str(campaign_dir / "MD_test.csv"),
                 "--events", str(campaign_dir / "MD_test.events"),
                 "--models", str(models_dir), flag, "nan",
                 "--out", str(out)]) == 3
    assert "%s: expected a number, got NaN" % key in capsys.readouterr().err
    assert not out.exists()


def test_detect_rejects_events_one_row_short(campaign_dir, models_dir,
                                             tmp_path, capsys):
    lines = (campaign_dir / "MD_test.events").read_text().splitlines()
    width = len(json.loads((models_dir / "meta.json").read_text())["schema"])
    short = tmp_path / "short.events"
    short.write_text("\n".join(lines[:-width]) + "\n")
    assert main(["detect", "--data", str(campaign_dir / "MD_test.csv"),
                 "--events", str(short), "--models", str(models_dir)]) == 3
    assert "does not pair" in capsys.readouterr().err


def test_pairing_error_names_the_counts(campaign_dir, models_dir, tmp_path,
                                        capsys):
    lines = (campaign_dir / "MD_test.events").read_text().splitlines()
    short = tmp_path / "short.events"
    short.write_text("\n".join(lines[:-18]) + "\n")
    for argv in (["detect", "--models", str(models_dir)],
                 ["train", "--out", str(tmp_path / "m")]):
        assert main(argv + ["--data", str(campaign_dir / "MD_test.csv"),
                            "--events", str(short)]) == 3
        err = capsys.readouterr().err
        assert "does not pair" in err
        assert "179 event windows of 18 symbols for 180 data rows" in err


def _repeat_column(source, target, name="MSV"):
    """Copy a data CSV with a second ``name`` column, of zeros, appended."""
    lines = source.read_text().splitlines()
    target.write_text("\n".join([lines[0] + "," + name]
                                + [line + ",0.0" for line in lines[1:]])
                      + "\n")


def test_every_command_rejects_a_repeated_column(campaign_dir, models_dir,
                                                 tmp_path, capsys):
    # the second MSV column used to be dropped without a word
    events = campaign_dir / "MD_test.events"
    data = tmp_path / "repeated.csv"
    _repeat_column(campaign_dir / "MD_test.csv", data)
    campaign = tmp_path / "campaign"
    shutil.copytree(campaign_dir, campaign)
    _repeat_column(campaign_dir / "MD_test.csv", campaign / "MD_test.csv")
    for argv, name in (
            (["train", "--data", str(data), "--events", str(events),
              "--out", str(tmp_path / "m")], "repeated.csv"),
            (["detect", "--data", str(data), "--events", str(events),
              "--models", str(models_dir)], "repeated.csv"),
            (["select", "--data", str(data)], "repeated.csv"),
            (["evaluate", "--campaign", str(campaign)], "MD_test.csv")):
        assert main(argv) == 3, argv[0]
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert "repeated column 'MSV'" in err and name in err, err
    assert not (tmp_path / "m").exists()


def test_train_and_select_refuse_a_csv_with_no_parameter_columns(
        tmp_path, capsys):
    # an empty schema used to end in an IndexError traceback, exit 1
    data = tmp_path / "bare.csv"
    data.write_text("ts,group,label\n0,MD,1\n60,MD,-1\n")
    events = tmp_path / "bare.events"
    events.write_text("A\nB\n")
    for argv in (["train", "--data", str(data), "--events", str(events),
                  "--out", str(tmp_path / "m")],
                 ["select", "--data", str(data)]):
        assert main(argv) == 3, argv[0]
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert "no parameter columns in %s" % data in err, err
    assert not (tmp_path / "m").exists()


def test_model_and_config_errors_name_the_file(campaign_dir, models_dir,
                                               tmp_path, capsys):
    models = tmp_path / "models"
    shutil.copytree(models_dir, models)
    doc = json.loads((models / "model_knn.json").read_text())
    (models / "model_knn.json").write_text(json.dumps(dict(doc, k=3)))
    with pytest.raises(ConfigError, match="model_knn.json: only k=1"):
        load_model(models / "model_knn.json")
    assert main(["detect", "--data", str(campaign_dir / "MD_test.csv"),
                 "--events", str(campaign_dir / "MD_test.events"),
                 "--models", str(models)]) == 3
    err = capsys.readouterr().err
    assert "model_knn.json" in err and "k=3" in err

    config = tmp_path / "gen_config.json"
    config.write_text(json.dumps({"signal": {"FGF": {"psi": -1.0,
                                                      "mu": 0.5}}}))
    assert main(["train", "--data", str(campaign_dir / "MD_test.csv"),
                 "--events", str(campaign_dir / "MD_test.events"),
                 "--config", str(config), "--out", str(tmp_path / "m")]) == 3
    err = capsys.readouterr().err
    assert "gen_config.json" in err and "psi must be > 0" in err


def test_detect_checks_model_width_against_meta(campaign_dir, models_dir,
                                                tmp_path, capsys):
    models = tmp_path / "models"
    shutil.copytree(models_dir, models)
    meta = json.loads((models / "meta.json").read_text())
    meta["features"] = meta["features"][:-1]
    (models / "meta.json").write_text(json.dumps(meta))
    assert main(["detect", "--data", str(campaign_dir / "MD_test.csv"),
                 "--events", str(campaign_dir / "MD_test.events"),
                 "--models", str(models)]) == 3
    err = capsys.readouterr().err
    assert "meta.json" in err and "features lists 17 names" in err
    assert "model_knn.json takes 18" in err


def _shorten_points(doc):
    doc["points"] = [p[:-1] for p in doc["points"]]


def _zero_first_label(doc):
    doc["labels"][0] = 0


def _zero_first_std(doc):
    doc["standardization"]["std"][0] = 0.0


def _bad_rule(feature, op, klass=-1, threshold=0.0):
    def spoil(doc):
        doc["rules"].insert(0, {"conditions": [[feature, op, threshold]],
                                "class": klass, "error": 0.0})
    return spoil


MISFIT_MODELS = {
    "svm": (("weights", lambda doc: doc["weights"].pop()),
            ("weights", lambda doc: doc.update(weights=[float("nan")]
                                               * len(doc["weights"]))),
            ("standardization",
             lambda doc: doc["standardization"]["std"].pop()),
            ("standardization", _zero_first_std),
            ("bias", lambda doc: doc.update(bias=float("nan"))),
            ("bias", lambda doc: doc.update(bias=float("inf"))),
            # strings and booleans, which float() would read as numbers
            ("bias", lambda doc: doc.update(bias=str(doc["bias"]))),
            ("weights", lambda doc: doc["weights"].__setitem__(
                0, str(doc["weights"][0]))),
            ("standardization",
             lambda doc: doc["standardization"]["mean"].__setitem__(0, "0")),
            ("c_param", lambda doc: doc.update(c_param=True))),
    "knn": (("points", _shorten_points),
            ("points", lambda doc: doc.update(points=doc["points"][0])),
            ("points", lambda doc: doc["points"][0].__setitem__(0, True)),
            ("labels", lambda doc: doc["labels"].pop()),
            ("labels", _zero_first_label),
            ("metric", lambda doc: doc.update(metric="cosine"))),
    "c45": (("rules", _bad_rule(99, "<=")),
            ("rules", _bad_rule(-1, ">")),
            ("rules", _bad_rule(0, "<")),
            ("rules", _bad_rule(0, ">", klass=5)),
            ("rules", _bad_rule(0, ">", threshold=float("nan"))),
            ("default_class", lambda doc: doc.update(default_class=0))),
}


@pytest.mark.parametrize("kind", sorted(MISFIT_MODELS))
def test_detect_rejects_model_arrays_that_do_not_fit(kind, campaign_dir,
                                                     tmp_path, capsys):
    trained = tmp_path / "trained"
    detect = ["detect", "--data", str(campaign_dir / "MD_test.csv"),
              "--events", str(campaign_dir / "MD_test.events")]
    assert main(["train", "--data", str(campaign_dir / "MD_test.csv"),
                 "--events", str(campaign_dir / "MD_test.events"),
                 "--algo", kind, "--out", str(trained)]) == 0
    assert main(detect + ["--models", str(trained)]) == 0
    capsys.readouterr()
    name = "model_%s.json" % kind
    for i, (key, spoil) in enumerate(MISFIT_MODELS[kind]):
        models = tmp_path / ("spoiled%d" % i)
        shutil.copytree(trained, models)
        doc = json.loads((models / name).read_text())
        spoil(doc)
        (models / name).write_text(json.dumps(doc))
        assert main(detect + ["--models", str(models)]) == 3, key
        err = capsys.readouterr().err
        assert name in err and key in err, err


@pytest.fixture(scope="module")
def c45_models_dir(tmp_path_factory, campaign_dir):
    out = tmp_path_factory.mktemp("cli-c45") / "models"
    assert main(["train", "--data", str(campaign_dir / "MD_test.csv"),
                 "--events", str(campaign_dir / "MD_test.events"),
                 "--algo", "c45", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def svm_models_dir(tmp_path_factory, campaign_dir):
    out = tmp_path_factory.mktemp("cli-svm") / "models"
    assert main(["train", "--data", str(campaign_dir / "MD_test.csv"),
                 "--events", str(campaign_dir / "MD_test.events"),
                 "--algo", "svm", "--out", str(out)]) == 0
    return out


def _first_condition(index, value):
    def spoil(doc):
        doc["rules"][0]["conditions"][0][index] = value
    return spoil


# values the loader once converted into a different model: feature 0.9
# became feature 0, true became feature 1, "1" became class 1
LENIENT_C45 = {
    "feature-float": ("rules[0]", _first_condition(0, 0.9)),
    "feature-bool": ("rules[0]", _first_condition(0, True)),
    "class-string": ("rules[0]", lambda doc: doc["rules"][0].update({
        "class": "1"})),
    "default-class-string": ("default_class",
                             lambda doc: doc.update(default_class="-1")),
    "error-nan-string": ("rules[0]",
                         lambda doc: doc["rules"][0].update(error="nan")),
    "error-negative": ("rules[0]",
                       lambda doc: doc["rules"][0].update(error=-5)),
    # an object of rules once loaded as a model with no rules
    "rules-object": ("rules: expected a list",
                     lambda doc: doc.update(rules={})),
    "condition-two-items": ("rules[0]", lambda doc: doc["rules"][0][
        "conditions"][0].pop()),
}


@pytest.mark.parametrize("case", sorted(LENIENT_C45))
def test_c45_model_values_must_have_their_json_types(case, campaign_dir,
                                                      c45_models_dir,
                                                      tmp_path, capsys):
    key, spoil = LENIENT_C45[case]
    models = tmp_path / "models"
    shutil.copytree(c45_models_dir, models)
    path = models / "model_c45.json"
    doc = json.loads(path.read_text())
    assert doc["rules"], "the trained model needs a rule to spoil"
    spoil(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=re.escape(key)):
        load_model(path)
    assert main(["detect", "--data", str(campaign_dir / "MD_test.csv"),
                 "--events", str(campaign_dir / "MD_test.events"),
                 "--models", str(models)]) == 3
    err = capsys.readouterr().err
    assert "model_c45.json" in err and key in err, err


def _first_label(value):
    def spoil(doc):
        doc["labels"][0] = value(doc["labels"][0])
    return spoil


# values the loader once read as a k of 1 or as labels: "1" and true became
# label 1, 1.5 was truncated to 1
LENIENT_KNN = {
    "label-string": (SchemaError, "labels:", _first_label(str)),
    "label-bool": (SchemaError, "labels:", _first_label(lambda v: True)),
    "label-fraction": (SchemaError, "labels:",
                       _first_label(lambda v: v * 1.5)),
    "label-integral-float": (SchemaError, "labels:", _first_label(float)),
    "k-true": (ConfigError, "k=True", lambda doc: doc.update(k=True)),
    "k-float": (ConfigError, "k=1.0", lambda doc: doc.update(k=1.0)),
}


@pytest.mark.parametrize("case", sorted(LENIENT_KNN))
def test_knn_model_values_must_have_their_json_types(case, campaign_dir,
                                                      models_dir, tmp_path,
                                                      capsys):
    error, key, spoil = LENIENT_KNN[case]
    models = tmp_path / "models"
    shutil.copytree(models_dir, models)
    path = models / "model_knn.json"
    doc = json.loads(path.read_text())
    spoil(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(error, match=re.escape(key)):
        load_model(path)
    assert main(["detect", "--data", str(campaign_dir / "MD_test.csv"),
                 "--events", str(campaign_dir / "MD_test.events"),
                 "--models", str(models)]) == 3
    err = capsys.readouterr().err
    assert "model_knn.json" in err and key in err, err


def _set_band(edit):
    def spoil(doc):
        doc["events"]["FGF"]["1"] = edit(doc["events"]["FGF"]["1"])
    return spoil


MISFIT_IAC = {
    "short-band": ("events", _set_band(lambda band: band[:3])),
    "string-band": ("events", _set_band(lambda band: ["x"] + band[1:])),
    "nan-band": ("events", _set_band(lambda band: band[:5] + [float("nan")])),
    "events-list": ("events", lambda doc: doc.update(events=[])),
    "events-empty": ("events", lambda doc: doc.update(events={})),
    "zero-w-delta": ("w_delta", lambda doc: doc.update(w_delta=0)),
    "nan-alpha": ("alpha", lambda doc: doc.update(alpha=float("nan"))),
    "nan-sigma-th": ("sigma_th",
                     lambda doc: doc.update(sigma_th=float("nan"))),
    # float() would read "0.05" as 0.05 and true as 1.0
    "alpha-string": ("alpha", lambda doc: doc.update(alpha="0.05")),
    "sigma-th-true": ("sigma_th", lambda doc: doc.update(sigma_th=True)),
    # windows not written as JSON writes them: "01" once replaced window 1's
    # band, and "\u0661" (ARABIC-INDIC DIGIT ONE) read as window 1
    "window-leading-zero": ("events", lambda doc: doc["events"]["FGF"].update(
        {"01": [2.0] * 6})),
    "window-non-ascii": ("events", lambda doc: doc["events"]["FGF"].update(
        {"\u0661": doc["events"]["FGF"].pop("1")})),
}


@pytest.mark.parametrize("case", sorted(MISFIT_IAC))
def test_detect_rejects_malformed_iac_model(case, campaign_dir, models_dir,
                                            tmp_path, capsys):
    key, spoil = MISFIT_IAC[case]
    models = tmp_path / "models"
    shutil.copytree(models_dir, models)
    path = models / "iac_model.json"
    doc = json.loads(path.read_text())
    spoil(doc)
    path.write_text(json.dumps(doc))
    assert main(["detect", "--data", str(campaign_dir / "MD_test.csv"),
                 "--events", str(campaign_dir / "MD_test.events"),
                 "--models", str(models)]) == 3
    err = capsys.readouterr().err
    assert "iac_model.json" in err and key in err, err


MISFIT_META = {
    "schema-string": ("schema", lambda doc: doc.update(schema="FGF")),
    "schema-empty": ("schema", lambda doc: doc.update(schema=[])),
    "schema-numbers": ("schema", lambda doc: doc.update(
        schema=list(range(len(doc["schema"]))))),
    "schema-repeats": ("schema",
                       lambda doc: doc["schema"].append(doc["schema"][0])),
    "features-unknown": ("features",
                         lambda doc: doc["features"].__setitem__(0, "XYZ")),
    "features-repeats": ("features", lambda doc: doc["features"].__setitem__(
        -1, doc["features"][0])),
    "features-reordered": ("features",
                           lambda doc: doc["features"].reverse()),
    "algo-unknown": ("algo", lambda doc: doc.update(algo="foo")),
}

MISFIT_PROFILE = {
    "nan-mu": ("mu", lambda doc: doc["FGF"].update(mu=float("nan"))),
    "nan-p-th": ("p_th", lambda doc: doc["FGF"].update(p_th=float("nan"))),
    "nan-delta": ("delta",
                  lambda doc: doc["FGF"].update(delta=float("nan"))),
    "inf-psi": ("psi", lambda doc: doc["FGF"].update(psi=float("inf"))),
    "missing-parameter": ("AFR", lambda doc: doc.pop("AFR")),
    "missing-psi": ("MSV: missing key 'psi'",
                    lambda doc: doc["MSV"].pop("psi")),
    "parameter-list": ("FGF", lambda doc: doc.update(FGF=[1.0, 2.0])),
}


@pytest.mark.parametrize("name, case", [("meta.json", c) for c in
                                        sorted(MISFIT_META)]
                         + [("profile.json", c) for c in
                            sorted(MISFIT_PROFILE)])
def test_detect_rejects_malformed_meta_and_profile(name, case, campaign_dir,
                                                   models_dir, tmp_path,
                                                   capsys):
    key, spoil = {"meta.json": MISFIT_META,
                  "profile.json": MISFIT_PROFILE}[name][case]
    models = tmp_path / "models"
    shutil.copytree(models_dir, models)
    path = models / name
    doc = json.loads(path.read_text())
    spoil(doc)
    path.write_text(json.dumps(doc))
    assert main(["detect", "--data", str(campaign_dir / "MD_test.csv"),
                 "--events", str(campaign_dir / "MD_test.events"),
                 "--models", str(models)]) == 3
    err = capsys.readouterr().err
    assert name in err and key in err, err


# a JSON integer that parses but has no float value
HUGE = 10 ** 400

BEYOND_FLOAT = {
    "profile-p-th": ("knn", "profile.json", "p_th",
                     lambda doc: doc["FGF"].update(p_th=HUGE)),
    "iac-alpha": ("knn", "iac_model.json", "alpha",
                  lambda doc: doc.update(alpha=HUGE)),
    "svm-bias": ("svm", "model_svm.json", "bias",
                 lambda doc: doc.update(bias=HUGE)),
    "svm-weights": ("svm", "model_svm.json", "weights",
                    lambda doc: doc["weights"].__setitem__(0, HUGE)),
    "svm-standardization": ("svm", "model_svm.json", "standardization",
                            lambda doc: doc["standardization"]["std"]
                            .__setitem__(0, HUGE)),
    "knn-points": ("knn", "model_knn.json", "points",
                   lambda doc: doc["points"][0].__setitem__(0, HUGE)),
}


@pytest.mark.parametrize("case", sorted(BEYOND_FLOAT))
def test_detect_refuses_a_number_beyond_float_range(case, campaign_dir,
                                                    tmp_path, capsys):
    kind, name, key, spoil = BEYOND_FLOAT[case]
    models = tmp_path / "models"
    data = ["--data", str(campaign_dir / "MD_test.csv"),
            "--events", str(campaign_dir / "MD_test.events")]
    assert main(["train"] + data + ["--algo", kind, "--out", str(models)]) == 0
    path = models / name
    doc = json.loads(path.read_text())
    spoil(doc)
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["detect"] + data + ["--models", str(models)]) == 3
    err = capsys.readouterr().err
    assert name in err and key in err, err


@pytest.mark.parametrize("config, key", [
    ({"signal": [["FGF", {"psi": HUGE, "mu": 334.17}]]}, "psi"),
    ({"power_offsets": {"MD": HUGE, "AD": 1.06, "ED": 1.12, "ND": 0.94}},
     "power offsets")], ids=["signal-psi", "power-offset"])
def test_gen_refuses_a_number_beyond_float_range(config, key, tmp_path,
                                                 capsys):
    path = tmp_path / "gen_config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "campaign"
    assert main(["gen", "--config", str(path), "--out", str(out)]) == 3
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("rule, key", [
    ({"min_sa": "0"}, "min_sa"), ({"max_fpr": True}, "max_fpr"),
    ({"min_adr": ["0"]}, "min_adr")],
    ids=["min-sa-string", "max-fpr-true", "min-adr-list"])
def test_evaluate_refuses_text_or_boolean_rule_limit(rule, key, campaign_dir,
                                                    tmp_path, capsys):
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps({"acceptance": [rule]}))
    assert main(["evaluate", "--campaign", str(campaign_dir), "--groups",
                 "MD", "--algo", "knn", "--config", str(rules)]) == 3
    err = capsys.readouterr().err
    assert "rules.json: acceptance: %s: expected a number" % key in err, err


@pytest.mark.parametrize("rate", [True, "0.25", 1.5, -0.1],
                         ids=["true", "string", "above-one", "negative"])
def test_gen_refuses_an_attack_rate_that_is_not_a_rate(rate, tmp_path,
                                                       capsys):
    # true once attacked every row and was written back into the manifest
    config = tmp_path / "gen_config.json"
    config.write_text(json.dumps({"attack_rate": rate}))
    out = tmp_path / "campaign"
    assert main(["gen", "--config", str(config), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "attack_rate must be a number in [0, 1]" in err, err
    assert not out.exists()


def test_evaluate_refuses_a_repeated_group(campaign_dir, tmp_path, capsys):
    # MD,MD once evaluated, and wrote, every MD cell twice
    out = tmp_path / "report"
    assert main(["evaluate", "--campaign", str(campaign_dir), "--groups",
                 "MD,AD,MD", "--algo", "knn", "--out", str(out)]) == 3
    assert "repeated group 'MD'" in capsys.readouterr().err
    assert not out.exists()


def _add_parent_keys(models, campaign):
    """Put back into a model directory the keys that older versions also
    wrote, with the values they wrote: the curve model's confidence, its
    sorted events and their counts over the normal rows' windows, and the
    profile's trimming settings."""
    meta = json.loads((models / "meta.json").read_text())
    trace = parse_data_trace(campaign / "MD_test.csv", meta["schema"])
    windows = event_chunks(parse_event_trace(campaign / "MD_test.events"),
                           len(meta["schema"]))
    counts = Counter(symbol for window, label in zip(windows, trace.labels())
                     if label == 1 for symbol in window.events)
    path = models / "iac_model.json"
    doc = json.loads(path.read_text())
    doc.update(confidence=0.95, feature_events=sorted(doc["events"]),
               frequencies=dict(counts))
    assert sorted(counts) == doc["feature_events"]
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    path = models / "profile.json"
    doc = json.loads(path.read_text())
    doc["_settings"] = {"trim_fraction": 0.1, "window_len": 1440}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


# the file map older manifests held; it named the fixed layout
OLDER_FILES = {group: {part: {"data": "%s_%s.csv" % (group, part),
                              "events": "%s_%s.events" % (group, part)}
                       for part in ("train", "test")}
               for group in ("MD", "AD", "ED", "ND")}


def test_directories_in_the_older_format_give_the_same_output(
        campaign_dir, small_campaign_dir, models_dir, svm_models_dir,
        c45_models_dir, tmp_path, capsys):
    # older files also held keys that copied others or held constants;
    # the readers skip them, so the outputs match byte for byte
    data = ["--data", str(campaign_dir / "AD_test.csv"),
            "--events", str(campaign_dir / "AD_test.events")]
    for algo, trained in (("knn", models_dir), ("svm", svm_models_dir),
                          ("c45", c45_models_dir)):
        older = tmp_path / ("older_" + algo)
        shutil.copytree(trained, older)
        _add_parent_keys(older, campaign_dir)
        for s_pct in ("20", "60", "100"):
            outputs = []
            for models in (trained, older):
                out = tmp_path / ("%s_%s_%s.csv" % (algo, s_pct, models.name))
                assert main(["detect"] + data + [
                    "--models", str(models), "--sensitivity", s_pct,
                    "--out", str(out)]) == 0
                outputs.append(out.read_bytes())
            assert outputs[0] == outputs[1], (algo, s_pct)
    older = tmp_path / "older_campaign"
    shutil.copytree(small_campaign_dir, older)
    doc = json.loads((older / "manifest.json").read_text())
    config = GeneratorConfig.from_json(doc["config"])
    doc.update(schema=list(config.schema()), signal=list(config.signal_names()),
               seed=config.seed, files=OLDER_FILES)
    (older / "manifest.json").write_text(json.dumps(doc, indent=2,
                                                    sort_keys=True) + "\n")
    reports = []
    for campaign in (small_campaign_dir, older):
        out = tmp_path / ("report_" + campaign.name)
        assert main(["evaluate", "--campaign", str(campaign), "--seed", "3",
                     "--out", str(out)]) == 0
        reports.append(read_all(out))
    assert reports[0] == reports[1]
    capsys.readouterr()


# file maps that damaged manifests held; at one time a list ended in an
# AttributeError, a number in a TypeError and an absolute name was read
DAMAGED_FILES = {
    "list": [],
    "string": "MD_test.csv",
    "number": dict(OLDER_FILES, MD={"train": {"data": 5, "events": None},
                                    "test": {"data": 5, "events": None}}),
    "absolute": dict(OLDER_FILES, MD={part: {"data": "/nonexistent.csv",
                                             "events": "/nonexistent.events"}
                                      for part in ("train", "test")}),
}


@pytest.mark.parametrize("case", sorted(DAMAGED_FILES))
def test_a_campaign_loads_from_its_fixed_layout(case, small_campaign_dir,
                                                tmp_path, capsys):
    manifest = json.loads((small_campaign_dir / "manifest.json").read_text())
    damaged = tmp_path / "campaign"
    shutil.copytree(small_campaign_dir, damaged)
    (damaged / "manifest.json").write_text(json.dumps(
        dict(manifest, files=DAMAGED_FILES[case])))
    assert load_campaign(damaged) == load_campaign(small_campaign_dir)
    args = ["--groups", "MD", "--algo", "knn", "--seed", "3"]
    reports = []
    for campaign in (small_campaign_dir, damaged):
        assert main(["evaluate", "--campaign", str(campaign)] + args) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    # gen writes the config and its hash, and no file map
    assert sorted(manifest) == ["config", "config_hash"]


def test_evaluate_reads_no_event_file(small_campaign_dir, tmp_path, capsys):
    # the matrix scores data rows only, so a campaign without its event
    # files evaluates to the same report
    bare = tmp_path / "bare_campaign"
    shutil.copytree(small_campaign_dir, bare)
    removed = sorted(bare.glob("*.events"))
    assert len(removed) == 8
    for path in removed:
        path.unlink()
    reports = []
    for campaign in (small_campaign_dir, bare):
        out = tmp_path / ("report_" + campaign.name)
        assert main(["evaluate", "--campaign", str(campaign), "--seed", "3",
                     "--out", str(out)]) == 0
        reports.append(read_all(out))
    assert sorted(reports[0]) == ["report.csv", "report.txt", "run.json"]
    assert reports[0] == reports[1]
    capsys.readouterr()


@pytest.mark.parametrize("config", [[], ""], ids=["list", "string"])
def test_a_manifest_config_must_be_an_object(config, small_campaign_dir,
                                             tmp_path, capsys):
    # a config that is not an object once evaluated the default config
    damaged = tmp_path / "campaign"
    shutil.copytree(small_campaign_dir, damaged)
    manifest = json.loads((damaged / "manifest.json").read_text())
    manifest["config"] = config
    (damaged / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(SchemaError, match="config: expected an object"):
        load_campaign(damaged)
    assert main(["evaluate", "--campaign", str(damaged)]) == 3
    err = capsys.readouterr().err
    assert "manifest.json: config: expected an object" in err, err


def test_one_parser_serves_every_command(small_campaign_dir, tmp_path, capsys):
    # main() builds the parser on its first call and reuses it; each command
    # prints and exits as it does with a parser built for it alone
    data = str(small_campaign_dir / "MD_test.csv")
    commands = [
        (["gen", "--config", str(small_campaign_dir.parent / "gen.json"),
          "--seed", "5", "--out", str(tmp_path / "campaign")], 0),
        (["detect", "--data", data], 2),
        (["--help"], 0),
        (["select", "--data", data, "--method", "greedy"], 0)]

    def run(fresh):
        outputs = []
        for argv, code in commands:
            if fresh:
                build_parser.cache_clear()
            assert main(argv) == code, argv
            outputs.append(capsys.readouterr())
        return outputs

    build_parser.cache_clear()
    shared = run(fresh=False)
    assert build_parser.cache_info().misses == 1
    assert shared == run(fresh=True)
    assert "usage: icn-sentinel detect" in shared[1].err
    assert shared[3].out.startswith("{")


def _scipy_after(code):
    """The scipy modules loaded once a fresh interpreter has run code."""
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nimport json, sys\nprint(json.dumps("
         "[m for m in sys.modules if m.split('.')[0] == 'scipy']))"],
        env=fresh_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _cli_runs(*commands):
    return "from icn_sentinel.cli import main\n" + "".join(
        "assert main(%r) == 0\n" % ([str(a) for a in argv],)
        for argv in commands)


def test_cold_import_loads_no_scipy():
    # nor builds the parser: that waits for the first main() call
    assert _scipy_after("import icn_sentinel.cli as cli\n"
                        "assert cli.build_parser.cache_info().currsize == 0"
                        ) == set()


def test_gen_detect_and_knn_select_load_no_scipy(small_campaign_dir,
                                                 tmp_path, capsys):
    campaign = small_campaign_dir
    data = ["--data", str(campaign / "MD_test.csv"),
            "--events", str(campaign / "MD_test.events")]
    assert main(["train"] + data + ["--algo", "knn",
                                    "--out", str(tmp_path / "models")]) == 0
    capsys.readouterr()
    assert _scipy_after(_cli_runs(
        ["gen", "--config", campaign.parent / "gen.json",
         "--out", tmp_path / "campaign"],
        ["detect"] + data + ["--models", tmp_path / "models",
                             "--out", tmp_path / "verdicts.csv"],
        ["select", "--data", campaign / "MD_test.csv", "--method", "genetic",
         "--algo", "knn", "--out", tmp_path / "selection.json"])) == set()


def test_svm_train_loads_scipy_special_but_not_scipy_stats(small_campaign_dir,
                                                           tmp_path):
    campaign = small_campaign_dir
    loaded = _scipy_after(_cli_runs(
        ["train", "--data", campaign / "MD_test.csv",
         "--events", campaign / "MD_test.events", "--algo", "svm",
         "--out", tmp_path / "models"]))
    assert "scipy.special" in loaded
    assert not {m for m in loaded if m.split(".")[:2] == ["scipy", "stats"]}


@pytest.mark.skipif(not hasattr(scipy.special._ufuncs, "_beta_ppf"),
                    reason="this scipy's scipy.special has no _beta_ppf, so "
                           "the pruning bound falls back to scipy.stats")
def test_c45_commands_load_scipy_special_but_not_scipy_stats(
        small_campaign_dir, tmp_path):
    campaign = small_campaign_dir
    data = campaign / "MD_test.csv"
    for argv in (["train", "--data", data, "--events", campaign
                  / "MD_test.events", "--algo", "c45",
                  "--out", tmp_path / "models"],
                 ["select", "--data", data, "--method", "genetic",
                  "--algo", "c45", "--out", tmp_path / "selection.json"],
                 ["evaluate", "--campaign", campaign,
                  "--out", tmp_path / "report"]):
        loaded = _scipy_after(_cli_runs(argv))
        assert "scipy.special" in loaded, argv[0]
        assert not {m for m in loaded
                    if m.split(".")[:2] == ["scipy", "stats"]}, argv[0]
