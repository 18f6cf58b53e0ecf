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
