"""Self-tests of the benchmark, at tiny input sizes.

Run from the repository root:  python3 -m pytest -q bench
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402
import tracer as tracing  # noqa: E402

TINY = {
    "detect-replay": {"rows_per_group": 40, "train_rows_per_group": 40},
    "evaluate-matrix": {"rows_per_group": 40},
    "build-models": {"rows_per_group": 40},
}
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")


def declared(section):
    doc = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[section]}


def check_emitted(metrics, expected):
    assert set(metrics) == set(expected)
    for name, entry in metrics.items():
        assert NAME.match(name), name
        assert entry["unit"] == expected[name]
        assert isinstance(entry["value"], (int, float))


def program_objects():
    """Every attribute of every icn_sentinel module and traced class."""
    objects = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == tracing.PACKAGE:
            for attr, value in vars(mod).items():
                objects[(mod_name, attr)] = value
                if isinstance(value, type) and value.__module__ == mod_name:
                    for cattr, cvalue in vars(value).items():
                        objects[(mod_name, attr, cattr)] = cvalue
    return objects


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_smoke_end_to_end(workload, tmp_path):
    result, report = bench.run(workload, seed=3, seconds=0, trace=0,
                               sizes=TINY[workload], out_dir=tmp_path)
    assert result["correct"], report["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    check_emitted(result["metrics"], declared("end_to_end"))
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert report["named"]["op_failure_pct"]["value"] == 0
    for name, entry in report["named"].items():
        assert NAME.match(name) and entry["unit"]
    assert report["meta"]["workload"] == workload


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_traced_run(workload, tmp_path):
    bench.load_program()
    before = program_objects()
    result, report = bench.run(workload, seed=3, seconds=0, trace=1,
                               sizes=TINY[workload], out_dir=tmp_path)
    after = program_objects()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())

    # traced outputs matched the untraced pass, or the run is not correct
    assert result["correct"], report["errors"]
    metrics = result["metrics"]
    check_emitted(metrics, declared("per_layer"))

    doc = json.loads((bench.ROOT / report["spans_file"]).read_text())
    spans = doc["spans"]
    assert spans
    for _, start, end, parent in spans:
        assert start <= end
        if parent >= 0:
            _, p_start, p_end, _ = spans[parent]
            assert p_start <= start and end <= p_end

    value = {k: v["value"] for k, v in metrics.items()}
    if workload == "detect-replay":
        assert value["classifiers.svm_train.calls"] == 0
        assert value["iac.classify_trace.calls"] == value["core.parse_data_trace.rows"]
        assert value["iac.mann_whitney_u.exact.calls"] > 0
    elif workload == "evaluate-matrix":
        assert value["iac.mann_whitney_u.exact.calls"] == 0
        assert value["harness.label_ground_truth.useful_ratio"] == pytest.approx(1 / 6)
    else:
        assert 0 < value["featsel.genetic_select.fitness_hit_ratio"] < 1
        assert value["featsel.cross_val_accuracy.calls"] > 0


def test_refuses_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "detect-replay",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
