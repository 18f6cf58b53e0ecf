import importlib.util
from pathlib import Path

PAIRED_BENCH = Path(__file__).resolve().parent.parent / "tools" / "paired_bench.py"


def _paired_bench():
    spec = importlib.util.spec_from_file_location("paired_bench", PAIRED_BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(side, pass_ref, pass_times):
    return {"workload": "build-models", "side": side,
            "report": {"pass_times_s": pass_times},
            "result": {"failed": 0,
                       "metrics": {"pass_ref": {"value": pass_ref}}}}


def test_summarize_reports_the_first_timed_pass():
    # the median pass behind pass_ref is equal on both sides; only the
    # first pass, which pays a cold import, differs
    runs = [_run("parent", 1.0, [1.1, 0.2, 0.2]),
            _run("change", 1.0, [0.4, 0.2, 0.2])]
    metrics = [{"name": "pass_ref", "better": "lower", "bound": 0.25}]
    entry = _paired_bench().summarize(runs, metrics)["build-models"]
    assert entry["pass_ref"]["change_better_pairs"] == 0
    assert entry["first_pass_s"] == {
        "parent": [1.1], "change": [0.4], "parent_median": 1.1,
        "change_median": 0.4, "change_better_pairs": 1, "pairs": 1}


def test_selections_compare_parsed_features_and_score(tmp_path):
    # two layouts of one selection are equal; a moved score is not, and
    # both sides' values are kept
    bench = _paired_bench()
    one_line = tmp_path / "one_line.json"
    one_line.write_text('{"features": ["GBV", "LOT"], "score": 1.0}\n')
    indented = tmp_path / "indented.json"
    indented.write_text('{\n  "score": 1.0,\n  "features": [\n    "GBV",\n'
                        '    "LOT"\n  ]\n}\n')
    other = tmp_path / "other.json"
    other.write_text('{"features": ["GBV", "LOT"], "score": 0.95}\n')
    parent = {"MD": bench.read_selection(one_line)}
    assert bench.compare_sides(
        parent, {"MD": bench.read_selection(indented)})["identical"]
    moved = {"MD": bench.read_selection(other)}
    assert bench.compare_sides(parent, moved) == {
        "identical": False,
        "parent": {"MD": {"features": ["GBV", "LOT"], "score": 1.0}},
        "change": {"MD": {"features": ["GBV", "LOT"], "score": 0.95}}}


def test_reports_compare_each_file_byte_for_byte(tmp_path):
    # equal bytes and exit codes match; one changed byte, a file not
    # written or another exit code does not, and the file is named
    bench = _paired_bench()
    sides = {}
    for side in ("parent", "change"):
        report = tmp_path / side
        report.mkdir()
        (report / "report.csv").write_text("classifier,dataset\nsvm,full\n")
        (report / "report.txt").write_text("SVM, sensitivity 20%\n")
        (report / "run.json").write_text('{"seed": 3}\n')
        sides[side] = report
    parent = bench.read_report(sides["parent"], 0)
    assert set(parent) == {"exit_code", *bench.REPORT_FILES}
    assert bench.compare_sides(
        parent, bench.read_report(sides["change"], 0))["identical"]
    assert not bench.compare_sides(
        parent, bench.read_report(sides["change"], 3))["identical"]
    (sides["change"] / "report.txt").write_text("SVM, sensitivity 60%\n")
    moved = bench.read_report(sides["change"], 0)
    assert [k for k in parent if parent[k] != moved[k]] == ["report.txt"]
    assert not bench.compare_sides(parent, moved)["identical"]
    (sides["change"] / "run.json").unlink()
    assert bench.read_report(sides["change"], 0)["run.json"] is None
