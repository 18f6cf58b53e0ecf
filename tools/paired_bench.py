"""Paired parent/change runs of bench/run.py, written to one JSON file.

Run from the repository root, for example:

    python3 tools/paired_bench.py --parent HEAD --work /tmp/pairs \\
        --runs build-models:2401-2410 --runs detect-replay:2401-2404 \\
        --what "..." --out BENCH_24.json

Each side runs from its own copy of the sources under --work: the parent
is ``git archive`` of the --parent revision, the change a copy of the
working tree's tracked and untracked, not ignored, files.  Pair i runs
both sides on the same seed, one run at a time and back to back: parent
first when i is even, change first when i is odd.  Bytecode caching is
off (PYTHONDONTWRITEBYTECODE=1), so every import compiles on both sides.

For build-models each side also regenerates every seed's campaign and
genetic selections with the command line, as the workload does, and the
file records whether the four selection files are byte-identical.

The output holds every run (exit code, wall time, the report and result
lines) and, per workload and end-to-end metric of BENCHMARK.json, both
sides' values, their medians, the change's worsening in percent, the
distance between the parent's quartiles, how many pairs the change won
and whether the change stays within the metric's bound.  Per workload it
also reports each side's first timed pass (``first_pass_s``), their
medians and the pairs the change won; no bound applies to it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 25
GROUPS = ("MD", "AD", "ED", "ND")
# the build-models campaign size and GA seeds of bench/run.py
BUILD_ROWS_PER_GROUP = 120


def git(*args, **kwargs):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, **kwargs).stdout


def checkout(work, parent):
    """The parent's and the change's source trees under work."""
    sides = {"parent": work / "parent", "change": work / "change"}
    for path in sides.values():
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
    archive = git("archive", parent)
    subprocess.run(["tar", "-x", "-C", str(sides["parent"])], input=archive,
                   check=True)
    files = git("ls-files", "-z", "--cached", "--others",
                "--exclude-standard").split(b"\0")
    for name in filter(None, (f.decode() for f in files)):
        if (ROOT / name).is_file():
            target = sides["change"] / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, target)
    return sides


def bench_run(side_dir, workload, seed):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=side_dir, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    ok = proc.returncode == 0 and len(lines) >= 2
    return {"exit_code": proc.returncode, "wall_s": wall,
            "report": json.loads(lines[-2]) if ok else None,
            "result": json.loads(lines[-1]) if ok else None,
            "stderr_tail": proc.stderr[-2000:]}


def selections(side_dir, scratch, seed):
    """sha256 of each group's genetic selection of build-models' campaign."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(side_dir / "src"))
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    config = scratch / "gen.json"
    config.write_text(json.dumps({"rows_per_group": BUILD_ROWS_PER_GROUP}))

    def cli(*args):
        subprocess.run([sys.executable, "-m", "icn_sentinel.cli", *args],
                       env=env, check=True, capture_output=True)

    cli("gen", "--config", str(config), "--seed", str(seed),
        "--out", str(scratch / "campaign"))
    digests = {}
    for i, group in enumerate(GROUPS):
        out = scratch / ("selection_%s.json" % group)
        cli("select", "--data", str(scratch / "campaign" / ("%s_test.csv"
                                                            % group)),
            "--method", "genetic", "--algo", "knn",
            "--seed", str(seed * len(GROUPS) + i), "--out", str(out))
        digests[group] = hashlib.sha256(out.read_bytes()).hexdigest()
    return digests


def summarize(runs, metrics):
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        entry = {}
        for metric in metrics:
            name, lower = metric["name"], metric["better"] == "lower"
            values = {side: [r["result"]["metrics"][name]["value"]
                             for r in mine if r["side"] == side]
                      for side in ("parent", "change")}
            parent, change = values["parent"], values["change"]
            p_med, c_med = statistics.median(parent), statistics.median(change)
            worse = 100.0 * (c_med - p_med) / p_med if p_med else 0.0
            if not lower:
                worse = -worse
            q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive") \
                if len(parent) > 1 else parent * 3
            entry[name] = {
                **values, "parent_median": p_med, "change_median": c_med,
                "change_worse_by_pct": worse,
                "parent_quartile_distance": q3 - q1,
                "change_better_pairs": sum((c < p) if lower else (c > p)
                                           for p, c in zip(parent, change)),
                "pairs": len(parent), "bound_pct": 100.0 * metric["bound"],
                "within_bound": worse <= 100.0 * metric["bound"]}
        entry["failed_ops"] = {
            side: [r["result"]["failed"] for r in mine if r["side"] == side]
            for side in ("parent", "change")}
        # report only: the first timed pass, which pays any import or
        # cache warm-up that the median pass of pass_ref leaves out
        first = {side: [r["report"]["pass_times_s"][0]
                        for r in mine if r["side"] == side]
                 for side in ("parent", "change")}
        entry["first_pass_s"] = {
            **first,
            "parent_median": statistics.median(first["parent"]),
            "change_median": statistics.median(first["change"]),
            "change_better_pairs": sum(
                c < p for p, c in zip(first["parent"], first["change"])),
            "pairs": len(first["parent"])}
        summary[workload] = entry
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision")
    parser.add_argument("--work", required=True, type=Path,
                        help="scratch directory for both checkouts")
    parser.add_argument("--runs", required=True, action="append",
                        help="<workload>:<first seed>-<last seed>")
    parser.add_argument("--what", required=True,
                        help="what the change is and what it claims")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    plan = []
    for spec in args.runs:
        workload, seeds = spec.split(":")
        first, last = map(int, seeds.split("-"))
        plan.append((workload, list(range(first, last + 1))))
    sides = checkout(args.work.resolve(), args.parent)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    runs, identical = [], {}
    for workload, seeds in plan:
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                run = {"workload": workload, "seed": seed, "side": side,
                       "trace": 0, **bench_run(sides[side], workload, seed)}
                runs.append(run)
                print("%s seed %d %s: exit %d, %.1f s" % (
                    workload, seed, side, run["exit_code"], run["wall_s"]),
                    file=sys.stderr)
            if workload == "build-models":
                digests = {side: selections(sides[side], args.work / "select",
                                            seed) for side in order}
                identical[str(seed)] = digests["parent"] == digests["change"]
    failed = [r for r in runs if r["result"] is None]
    meta = next(r["report"]["meta"] for r in runs if r["report"])
    doc = {
        "what": args.what,
        "command": "python3 bench/run.py --workload <workload> --seed <seed> "
                   "--seconds %d --trace 0" % SECONDS,
        "pairing": "Runs go one at a time, never two at once. Pair i runs "
                   "both sides on the same seed, back to back: parent first "
                   "when i is even, change first when i is odd. The parent "
                   "side is git archive of %s, the change side a copy of the "
                   "working tree's tracked and untracked, not ignored, files; "
                   "bytecode caching is off (PYTHONDONTWRITEBYTECODE=1). "
                   "Written by tools/paired_bench.py."
                   % git("rev-parse", "--short", args.parent, text=True).strip(),
        "host": {k: meta[k] for k in ("python", "numpy", "scipy", "nproc",
                                      "cpu_model")},
        "seeds": {workload: seeds for workload, seeds in plan},
        "selections_identical": identical,
        "summary": summarize([r for r in runs if r["result"]], metrics),
        "runs": runs,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
