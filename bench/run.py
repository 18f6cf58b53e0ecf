"""icn-sentinel benchmark: three seeded CLI workloads, timed end to end.

Run from the repository root:

    python3 bench/run.py --workload detect-replay --seed 1 --seconds 25 --trace 0

Every workload drives the public entry point ``icn_sentinel.cli.main``
in-process, one command after another (a closed loop with one caller).
Set-up builds the inputs the timed part consumes; the timed part repeats
one pass of CLI commands until ``--seconds`` have elapsed and reports
medians.  A fixed reference loop is timed between passes, and each pass
is also reported in multiples of the reference time around it, which
cancels the host's swings in speed.  Each command's output is checked
and must be byte-identical on every pass.  With ``--trace 1`` one more
pass runs with outside-in wrappers around each module's public functions
(see tracer.py); the run then reports per-layer metrics and writes its
spans under bench/_out/.

The last stdout line is one JSON object: correct, attempted, failed and
metrics.  Lines before it carry the run metadata and the workload's own
named metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "_out"

# Timed input sizes, in generator rows per group (default 180).  A pass
# takes about 1.5-4.5 s on a 2-core x86 host, as contention comes and
# goes, so a 25 s run gives 6-15 passes to take the median over.
SIZES = {
    "detect-replay": {"rows_per_group": 1440, "train_rows_per_group": 180},
    "evaluate-matrix": {"rows_per_group": 360},
    "build-models": {"rows_per_group": 120},
}
SETUP_REPEATS = 3
MATRIX_CELLS = 72  # 3 classifiers x 2 feature views x 3 sensitivities x 4 groups
CLASSIFIER_KINDS = ("svm", "knn", "c45")
GROUPS = ("MD", "AD", "ED", "ND")  # campaign files are <group>_test.csv

END_TO_END_UNITS = {
    "setup_s": "s", "pass_ref": "ratio", "accuracy_pct": "%",
    "peak_rss_mb": "MB", "op_success_pct": "%",
}


def reference_s():
    """Wall time of a fixed piece of interpreter work that no change to
    the program alters.

    The shared host runs this process up to 2x slower for stretches of
    seconds to minutes, and a run's median pass time follows that.  Timed
    just before and after every pass, this loop measures how fast the
    host runs at that moment, so that a pass can be expressed in
    multiples of it (``pass_ref``).  Its mix follows where the program
    spends its time: small numpy steps in a Python loop (svm_train,
    predict_label), list and integer work (min_max_curves, the exact
    Mann-Whitney test), dict updates and a keyed sort.  About 0.25 s on
    an idle 2-core x86 host: long enough to average over the host's
    sub-second swings.
    """
    import numpy as np

    z = (np.arange(1200 * 16, dtype=float).reshape(1200, 16) % 7) / 7.0
    symbols = [i % 5 for i in range(3200)]
    start = time.perf_counter()
    w = np.zeros(16)
    for _ in range(18):
        for i in range(1200):
            w *= 0.999
            if z[i] @ w < 1.0:
                w += 0.001 * z[i]
    for event in range(5):
        prefix = [0] * (len(symbols) + 1)
        for i, s in enumerate(symbols):
            prefix[i + 1] = prefix[i] + (1 if s == event else 0)
        for width in range(1, 150):
            min(prefix[i + width] - prefix[i] for i in range(0, 3000, 3))
    counts = {}
    for i in range(250000):
        counts[i % 97] = counts.get(i % 97, 0) + float(i)
    sorted(range(150000), key=lambda x: -x)
    return time.perf_counter() - start


class CheckFailed(Exception):
    """A CLI command finished but its output is wrong."""


class RunAborted(Exception):
    """The workload cannot run: no program, a failed set-up command, or
    no pass that succeeded."""


def run_cli(main, argv):
    """Call ``main(argv)`` with its output captured, so that the result
    line stays last; returns (exit code, stderr text, wall seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue(), time.perf_counter() - start


def digest(*paths):
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).name.encode())
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class Session:
    """Runs the timed CLI commands, checks them and counts failures.

    ``check`` returns the output paths of a command; their digest must
    equal the one seen the first time the same command ran in this
    process, traced or not.
    """

    def __init__(self, main):
        self.main = main
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self._digests = {}

    def call(self, key, argv, check):
        """Run one command; returns its wall seconds (None on failure)."""
        self.attempted += 1
        try:
            if self.tracer is not None:
                with self.tracer.span("cli." + argv[0]):
                    code, err, elapsed = run_cli(self.main, argv)
            else:
                code, err, elapsed = run_cli(self.main, argv)
            if code != 0:
                raise CheckFailed("exit code %d: %s" % (code, err.strip()[-300:]))
            value = digest(*check())
            if self._digests.setdefault(key, value) != value:
                raise CheckFailed("output differs from the first pass")
        except CheckFailed as exc:
            self._fail("%s: %s" % (key, exc))
            return None
        except Exception:  # a crashed operation is counted, not fatal
            self._fail("%s: %s" % (key, traceback.format_exc()))
            return None
        return elapsed

    def _fail(self, message):
        self.failed += 1
        self.errors.append(message)


def setup_cli(main, argv):
    code, err, _ = run_cli(main, argv)
    if code != 0:
        raise RunAborted("%s exited %d: %s" % (" ".join(argv), code, err.strip()))


def write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


class Workload:
    """Inputs live in ``work``; ``setup`` returns the input paths, and
    ``run_pass`` one pass's measurements (None when a command failed)."""

    def __init__(self, work, seed, sizes):
        self.work, self.seed, self.sizes = work, seed, sizes


class DetectReplay(Workload):
    """detect with saved svm models over a held-out mixed-attack MD_test."""

    name = "detect-replay"

    def setup(self, main):
        w = self.work
        write_json(w / "train.json",
                   {"rows_per_group": self.sizes["train_rows_per_group"]})
        write_json(w / "held.json", {"rows_per_group": self.sizes["rows_per_group"],
                                     "attack_pattern": "mixed"})
        # the training campaign comes from a different seed than the replay
        setup_cli(main, ["gen", "--config", str(w / "train.json"),
                         "--seed", str(self.seed + 7919), "--out", str(w / "train")])
        setup_cli(main, ["train", "--data", str(w / "train" / "MD_test.csv"),
                         "--events", str(w / "train" / "MD_test.events"),
                         "--algo", "svm", "--seed", str(self.seed),
                         "--out", str(w / "models")])
        setup_cli(main, ["gen", "--config", str(w / "held.json"),
                         "--seed", str(self.seed), "--out", str(w / "held")])
        self.labels = [int(r["label"]) for r in read_csv(w / "held" / "MD_test.csv")]
        return [w / "models" / "model_svm.json", w / "held" / "MD_test.csv",
                w / "held" / "MD_test.events"]

    def run_pass(self, session):
        w = self.work
        verdicts = w / "verdicts.csv"
        quality = {}

        def check():
            rows = read_csv(verdicts)
            if len(rows) != len(self.labels):
                raise CheckFailed("%d verdict lines for %d rows"
                                  % (len(rows), len(self.labels)))
            quality.update(confusion(
                self.labels, [r["verdict"] == "anomalous" for r in rows]))
            return [verdicts]

        elapsed = session.call("detect", [
            "detect", "--data", str(w / "held" / "MD_test.csv"),
            "--events", str(w / "held" / "MD_test.events"),
            "--models", str(w / "models"), "--out", str(verdicts)], check)
        if elapsed is None:
            return None
        return {"pass_s": elapsed, "accuracy_pct": quality["accuracy_pct"],
                "detect_adr_pct": quality["adr_pct"],
                "detect_fpr_pct": quality["fpr_pct"]}

    def named(self, passes):
        detect_s = statistics.median(p["pass_s"] for p in passes)
        return {"detect_rows_per_s": (len(self.labels) / detect_s, "rows/s"),
                "detect_adr_pct": (passes[-1]["detect_adr_pct"], "%"),
                "detect_fpr_pct": (passes[-1]["detect_fpr_pct"], "%")}

    def describe(self):
        return {"held_out_rows": len(self.labels), "attack_pattern": "mixed",
                "models": "svm", **self.sizes}


def confusion(labels, flagged):
    """Dual-verdict accuracy, ADR and FPR against -1/+1 trace labels."""
    tp = sum(1 for y, f in zip(labels, flagged) if y == -1 and f)
    fn = sum(1 for y, f in zip(labels, flagged) if y == -1 and not f)
    fp = sum(1 for y, f in zip(labels, flagged) if y != -1 and f)
    tn = len(labels) - tp - fn - fp
    return {"accuracy_pct": 100.0 * (tp + tn) / len(labels),
            "adr_pct": 100.0 * tp / (tp + fn) if tp + fn else 0.0,
            "fpr_pct": 100.0 * fp / (fp + tn) if fp + tn else 0.0}


class EvaluateMatrix(Workload):
    """evaluate over a saved default-config campaign: all 72 cells."""

    name = "evaluate-matrix"

    def setup(self, main):
        w = self.work
        write_json(w / "gen.json", {"rows_per_group": self.sizes["rows_per_group"]})
        setup_cli(main, ["gen", "--config", str(w / "gen.json"),
                         "--seed", str(self.seed), "--out", str(w / "campaign")])
        return [w / "campaign"]

    def run_pass(self, session):
        report = self.work / "report"
        quality = {}

        def check():
            rows = read_csv(report / "report.csv")
            if len(rows) != MATRIX_CELLS:
                raise CheckFailed("report.csv has %d cells, expected %d"
                                  % (len(rows), MATRIX_CELLS))
            quality["sa"] = statistics.fmean(float(r["sa"]) for r in rows)
            return [report / "report.csv", report / "report.txt",
                    report / "run.json"]

        elapsed = session.call("evaluate", [
            "evaluate", "--campaign", str(self.work / "campaign"),
            "--out", str(report), "--seed", str(self.seed)], check)
        if elapsed is None:
            return None
        return {"pass_s": elapsed, "accuracy_pct": quality["sa"]}

    def named(self, passes):
        return {"evaluate_s": (statistics.median(p["pass_s"] for p in passes), "s"),
                "evaluate_sa_mean_pct": (passes[-1]["accuracy_pct"], "%")}

    def describe(self):
        return {"cells": MATRIX_CELLS, "attack_pattern": "five", **self.sizes}


class BuildModels(Workload):
    """gen, then train svm/knn/c45 on MD_test, then genetic select on the
    test file of each group.  One genetic search does seed-dependent work
    (its cross_val_accuracy calls spread by 0.14 of their median over ten
    seeds); four independent searches per pass bring that to 0.09."""

    name = "build-models"

    def setup(self, main):
        write_json(self.work / "gen.json",
                   {"rows_per_group": self.sizes["rows_per_group"]})
        return [self.work / "gen.json"]

    def run_pass(self, session):
        from icn_sentinel.classifiers import load_model, model_kind
        from icn_sentinel.iac import IacModel
        from icn_sentinel.profiler import ThresholdProfile

        w = self.work
        seed = str(self.seed)
        campaign, models = w / "campaign", w / "models"
        data = ["--data", str(campaign / "MD_test.csv"),
                "--events", str(campaign / "MD_test.events")]
        times = {}

        def gen_check():
            if not (campaign / "manifest.json").is_file():
                raise CheckFailed("gen wrote no manifest")
            return sorted(campaign.iterdir())

        times["gen"] = session.call("gen", [
            "gen", "--config", str(w / "gen.json"), "--seed", seed,
            "--out", str(campaign)], gen_check)
        for kind in CLASSIFIER_KINDS:
            def train_check(kind=kind):
                model_file = models / ("model_%s.json" % kind)
                ThresholdProfile.load(models / "profile.json")
                IacModel.load(models / "iac_model.json")
                if model_kind(load_model(model_file)) != kind:
                    raise CheckFailed("model file holds the wrong kind")
                return [models / "profile.json", models / "iac_model.json",
                        model_file, models / "meta.json"]

            times["train_" + kind] = session.call("train_" + kind, [
                "train", *data, "--algo", kind, "--seed", seed,
                "--out", str(models)], train_check)

        scores = []
        for i, group in enumerate(GROUPS):
            selection = w / ("selection_%s.json" % group)

            def select_check(selection=selection):
                doc = json.loads(selection.read_text())
                if not doc["features"]:
                    raise CheckFailed("select returned an empty subset")
                scores.append(float(doc["score"]))
                return [selection]

            times["select_" + group] = session.call("select_" + group, [
                "select", "--data", str(campaign / ("%s_test.csv" % group)),
                "--method", "genetic", "--algo", "knn",
                "--seed", str(self.ga_seed(i)), "--out", str(selection)],
                select_check)
        if None in times.values():
            return None
        train_s = sum(times["train_" + k] for k in CLASSIFIER_KINDS)
        select_s = sum(times["select_" + g] for g in GROUPS)
        score = statistics.fmean(scores)
        return {"pass_s": sum(times.values()), "accuracy_pct": 100.0 * score,
                "train_s": train_s, "select_s": select_s, "score": score}

    def named(self, passes):
        def med(key):
            return statistics.median(p[key] for p in passes)
        return {"build_s": (med("pass_s"), "s"), "train_s": (med("train_s"), "s"),
                "select_s": (med("select_s"), "s"),
                "select_cv_accuracy": (passes[-1]["score"], "ratio")}

    def ga_seed(self, group_index):
        # independent searches: one shared GA seed would correlate them
        return self.seed * len(GROUPS) + group_index

    def describe(self):
        from icn_sentinel.featsel import GaConfig
        return {"classifiers": list(CLASSIFIER_KINDS),
                "select": "genetic/knn on %s" % ",".join(GROUPS),
                "ga_config": dataclasses.asdict(GaConfig()),
                "ga_seeds": [self.ga_seed(i) for i in range(len(GROUPS))],
                **self.sizes}


WORKLOADS = {w.name: w for w in (DetectReplay, EvaluateMatrix, BuildModels)}


def import_seconds():
    """Wall time of a fresh interpreter importing the CLI: what every
    command-line start pays, and what an in-process import hides after
    the first time."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import icn_sentinel.cli"],
                   cwd=ROOT, env=env, check=True, timeout=120)
    return time.perf_counter() - start


def load_program():
    """Import icn_sentinel from this checkout's src/; refuse any other copy."""
    if not (SRC / "icn_sentinel" / "cli.py").is_file():
        raise RunAborted("no icn_sentinel sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import icn_sentinel.cli
    if Path(icn_sentinel.cli.__file__).resolve().parent.parent != SRC:
        raise RunAborted("imported icn_sentinel from %s, not from %s"
                          % (icn_sentinel.cli.__file__, SRC))
    return icn_sentinel.cli.main


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              env=dict(os.environ, GIT_DIR=str(ROOT / ".git")),
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() or None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def metadata(workload, seed, seconds):
    import numpy
    import scipy
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "cpu_model": cpu_model(), "git_commit": git_commit(),
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "setup_repeats": SETUP_REPEATS, "sizes": workload.describe(),
    }


def run(name, seed, seconds, trace, sizes=None, out_dir=OUT_DIR):
    """Run one workload; returns (result dict, report dict).

    The result is the object the last stdout line carries; the report
    holds metadata, the workload's named metrics and, when traced, the
    span summary and the spans file path.
    """
    main = load_program()
    out_dir.mkdir(parents=True, exist_ok=True)
    work = out_dir / ("work-%s-%d-%d" % (name, seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        workload = WORKLOADS[name](work, seed, sizes or SIZES[name])
        setups, imports, setup_digests = [], [], set()
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            imports.append(import_seconds())
            inputs = workload.setup(main)
            setups.append(time.perf_counter() - start)
            setup_digests.add(digest(*(p for path in inputs for p in
                                       (sorted(path.iterdir()) if path.is_dir()
                                        else [path]))))
        if len(setup_digests) != 1:
            raise RunAborted("set-up inputs differ between repeats")

        session = Session(main)
        passes = []
        refs = [reference_s()]
        deadline = time.perf_counter() + seconds
        while True:
            result = measured_pass(workload, session, refs)
            if result is not None:
                passes.append(result)
            if time.perf_counter() >= deadline:
                break
        if not passes:
            raise RunAborted("no pass succeeded: %s" % session.errors)
        pass_ref = statistics.median(p["pass_ref"] for p in passes)

        report = {"meta": metadata(workload, seed, seconds)}
        report["meta"].update(setup_times_s=setups, import_times_s=imports,
                              passes=len(passes), reference_times_s=refs)
        report["named"] = {k: {"value": v, "unit": u}
                           for k, (v, u) in workload.named(passes).items()}
        report["named"]["pass_s"] = {
            "value": statistics.median(p["pass_s"] for p in passes), "unit": "s"}
        report["named"]["op_failure_pct"] = {
            "value": 100.0 * session.failed / session.attempted, "unit": "%"}
        report["pass_times_s"] = [p["pass_s"] for p in passes]

        if trace:
            metrics = traced_pass(workload, session, refs, pass_ref, report, out_dir)
        else:
            metrics = {
                "setup_s": statistics.median(setups),
                "pass_ref": pass_ref,
                "accuracy_pct": passes[-1]["accuracy_pct"],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "op_success_pct": 100.0 * (session.attempted - session.failed)
                / session.attempted,
            }
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                       for k, v in metrics.items()}
        report["errors"] = session.errors
        result = {"correct": session.failed == 0, "attempted": session.attempted,
                  "failed": session.failed, "metrics": metrics}
        return result, report
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measured_pass(workload, session, refs):
    """Run one pass and time the reference loop after it; ``refs`` ends
    with the reference time taken before the pass.  ``pass_ref`` is the
    pass time over the mean of the two reference times around it."""
    gc.collect()
    result = workload.run_pass(session)
    gc.collect()
    refs.append(reference_s())
    if result is not None:
        result["pass_ref"] = result["pass_s"] / statistics.fmean(refs[-2:])
    return result


def traced_pass(workload, session, refs, pass_ref, report, out_dir):
    """One more pass under the tracer; returns the per-layer metrics and
    writes the spans to out_dir."""
    import tracer as tracing

    tracer = tracing.Tracer()
    tracer.install()
    session.tracer = tracer
    try:
        result = measured_pass(workload, session, refs)
    finally:
        session.tracer = None
        tracer.restore()
    # a failed traced pass is already counted; its overhead reads 0
    overhead = 100.0 * (result["pass_ref"] / pass_ref - 1.0) if result else 0.0
    metrics = tracing.layer_metrics(tracer, overhead)
    summary = tracing.summarize(tracer.spans)
    report["layers"] = {name: {"calls": e["calls"], "total_s": e["total_s"],
                               "self_s": e["self_s"]}
                        for name, e in sorted(summary.items())}
    names = sorted(summary)
    index = {n: i for i, n in enumerate(names)}
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    spans_path = out_dir / ("spans-%s-seed%d.json" % (workload.name, workload.seed))
    with open(spans_path, "w") as fh:
        json.dump({"meta": report["meta"], "metrics": metrics,
                   "fields": ["name", "start_s", "end_s", "parent"],
                   "names": names,
                   "spans": [[index[n], round(s - origin, 7), round(e - origin, 7), p]
                             for n, s, e, p in tracer.spans]}, fh)
    report["spans_file"] = os.path.relpath(spans_path, ROOT)
    return metrics


def print_layers(layers):
    print("%-42s %9s %10s %10s" % ("span", "calls", "total_s", "self_s"))
    for name, e in sorted(layers.items(), key=lambda kv: -kv[1]["total_s"]):
        print("%-42s %9d %10.4f %10.4f" % (name, e["calls"], e["total_s"], e["self_s"]))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, report = run(args.workload, args.seed, args.seconds, args.trace)
    except RunAborted as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 2
    for line in report["errors"]:
        print("bench: failed %s" % line, file=sys.stderr)
    if "layers" in report:
        print_layers(report.pop("layers"))
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
