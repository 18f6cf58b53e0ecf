"""SHA-256 digests of every file a fixed command-line corpus writes.

Run from the repository root:

    python3 tools/golden.py          # print the digests as JSON
    python3 tools/golden.py --write  # record them in tests/golden.json

The corpus calls ``icn_sentinel.cli.main`` in-process, in a temporary
directory, with every seed given on the command line:

- ``gen`` of a "five" campaign (seed 5) and a "mixed" one (seed 8), at 60
  rows per group;
- ``train`` of each classifier on the "five" ``MD_test``;
- ``detect`` with each model directory over the "mixed" ``MD_test``, at
  S20 and S100;
- greedy ``select`` with each evaluator on the "mixed" ``MD_test``, and
  genetic ``select`` with each on the "five" ``MD_test`` (a genetic
  search scores several times the subsets a greedy one does, and settles
  sooner there);
- ``evaluate`` of both campaigns, under a rule every report meets.

Every command must exit 0.  The table maps each output file, by its path
below the corpus directory, to the SHA-256 of its bytes.
``tests/test_golden.py`` reruns the corpus against ``tests/golden.json``;
a change that means to alter an output rewrites the table with
``--write``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_JSON = ROOT / "tests" / "golden.json"
ROWS_PER_GROUP = 60
CAMPAIGNS = {"five": 5, "mixed": 8}  # attack pattern -> gen seed
ALGOS = ("svm", "knn", "c45")
SENSITIVITIES = (20, 100)


def corpus(inputs: Path, out: Path):
    """The argument lists of the corpus, in run order; the config files
    they read are written to ``inputs``, the outputs go to ``out``."""
    for pattern in CAMPAIGNS:
        (inputs / (pattern + ".json")).write_text(json.dumps(
            {"rows_per_group": ROWS_PER_GROUP, "attack_pattern": pattern}))
    rules = inputs / "rules.json"
    rules.write_text('{"acceptance": [{"min_sa": 0}]}')
    for pattern, seed in CAMPAIGNS.items():
        yield ["gen", "--config", str(inputs / (pattern + ".json")),
               "--seed", str(seed), "--out", str(out / pattern)]
    train = ["--data", str(out / "five" / "MD_test.csv"),
             "--events", str(out / "five" / "MD_test.events")]
    held_out = ["--data", str(out / "mixed" / "MD_test.csv"),
                "--events", str(out / "mixed" / "MD_test.events")]
    for algo in ALGOS:
        models = str(out / ("models_" + algo))
        yield ["train", *train, "--algo", algo, "--seed", "0",
               "--out", models]
        for s_pct in SENSITIVITIES:
            yield ["detect", *held_out, "--models", models,
                   "--sensitivity", str(s_pct),
                   "--out", str(out / ("detect_%s_S%d.csv" % (algo, s_pct)))]
    for method, data in (("greedy", held_out[1]), ("genetic", train[1])):
        for algo in ALGOS:
            yield ["select", "--data", data, "--method", method,
                   "--algo", algo, "--seed", "3",
                   "--out", str(out / ("select_%s_%s.json" % (method, algo)))]
    for pattern, seed in CAMPAIGNS.items():
        yield ["evaluate", "--campaign", str(out / pattern),
               "--config", str(rules), "--seed", str(seed),
               "--out", str(out / ("evaluate_" + pattern))]


def digests(work: Path) -> dict:
    """Run the corpus under ``work`` and return {relative path: sha256}."""
    from icn_sentinel.cli import main
    inputs, out = work / "inputs", work / "out"
    inputs.mkdir()
    out.mkdir()
    for argv in corpus(inputs, out):
        log = io.StringIO()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            code = main(argv)
        if code != 0:
            raise RuntimeError("%s exited %d:\n%s"
                               % (" ".join(argv), code, log.getvalue()))
    return {path.relative_to(out).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*")) if path.is_file()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="record the digests in %s"
                        % GOLDEN_JSON.relative_to(ROOT))
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        table = digests(Path(work))
    text = json.dumps(table, indent=2, sort_keys=True) + "\n"
    if args.write:
        GOLDEN_JSON.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
