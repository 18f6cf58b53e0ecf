"""Command line front end.

Subcommands: gen (synthesize a campaign), train (profile + curve model +
classifier from labeled data), detect (dual detection over a trace),
select (wrapper feature selection), evaluate (full scenario matrix with
acceptance thresholds).

Exit codes: 0 success, 1 acceptance thresholds unmet or a rule that
matches no report cell, 2 usage error, 3 data, model or rule error.  The
ICN_SENTINEL_SEED environment variable seeds any command that was not
given --seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import replace

from .core import (DEFAULT_SENSITIVITY, SENSITIVITIES, ConfigError,
                   SchemaError, SensitivityDegree, SentinelError,
                   infer_schema, json_float, parse_data_trace, read_json,
                   write_json)
from .classifiers import CLASSIFIER_KINDS, LabeledSet
from .featsel import GaConfig, genetic_select, greedy_select
from .harness import (DATASET_KINDS, Detector, MatrixConfig, dual_detect,
                      read_paired, run_matrix)
from .iac import DEFAULT_ALPHA, DEFAULT_SIGMA_TH, DEFAULT_W_DELTA
from .synth import (GeneratorConfig, config_hash, default_config,
                    gen_campaign, load_campaign, save_campaign)

DEFAULT_ACCEPTANCE = [
    {"dataset": "reduced", "s_pct": 20,
     "min_adr": 100.0, "max_fpr": 0.0, "min_sa": 100.0},
]


def _resolve_seed(args_seed, fallback=0):
    if args_seed is not None:
        return int(args_seed)
    env = os.environ.get("ICN_SENTINEL_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError("ICN_SENTINEL_SEED must be an integer, got %r"
                              % env)
    return fallback


def _generator_config(path):
    if path:
        return read_json(path, GeneratorConfig.from_json)
    return default_config()


def cmd_gen(args):
    config = _generator_config(args.config)
    seed = _resolve_seed(args.seed, fallback=config.seed)
    config = replace(config, seed=seed)
    campaign = gen_campaign(config)
    save_campaign(campaign, args.out)
    total = sum(len(g.test) + len(g.train) for g in campaign.groups.values())
    print("campaign written to %s (%d groups, %d rows, seed %d)"
          % (args.out, len(campaign.groups), total, seed))
    return 0


def cmd_train(args):
    seed = _resolve_seed(args.seed)
    trace, windows = read_paired(args.data, args.events,
                                 infer_schema(args.data))
    config = _generator_config(args.config)
    limits = {name: pm.psi for name, pm in config.parameters().items()}
    detector = Detector.fit(trace, windows, args.algo, limits,
                            w_delta=args.w_delta, alpha=args.alpha,
                            sigma_th=args.sigma_th)
    detector.save(args.out, seed, config_hash(config))
    print("models written to %s (profile, curves, %s)" % (args.out, args.algo))
    return 0


def cmd_detect(args):
    detector = Detector.load(args.models, algo=args.algo)
    trace, windows = read_paired(args.data, args.events, detector.schema)
    verdicts = dual_detect(detector, trace, windows,
                           SensitivityDegree(args.sensitivity),
                           alpha=args.alpha, sigma_th=args.sigma_th)
    normal = [v.normal for v in verdicts]
    columns = (range(len(trace)), trace.timestamps, trace.groups,
               [v.threshold_pass for v in verdicts],
               [v.iac_pass for v in verdicts],
               ["normal" if ok else "anomalous" for ok in normal])
    text = "row,ts,group,threshold_pass,iac_pass,verdict\n" + "".join(
        map("%s,%s,%s,%s,%s,%s\n".__mod__, zip(*columns)))
    anomalous = normal.count(False)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print("%d of %d rows anomalous (sensitivity %d%%)"
          % (anomalous, len(trace), args.sensitivity))
    return 0


def cmd_select(args):
    seed = _resolve_seed(args.seed)
    if args.method == "genetic" and args.max_features is not None:
        raise ConfigError("--max-features applies to --method greedy only, "
                          "not --method genetic")
    schema = infer_schema(args.data)
    trace = parse_data_trace(args.data, schema)
    data = LabeledSet.from_raw(trace.to_matrix(), trace.labels())
    if args.method == "greedy":
        subset = greedy_select(data, evaluator=args.algo,
                               max_features=args.max_features, seed=seed)
    else:
        subset = genetic_select(data, evaluator=args.algo,
                                config=GaConfig(seed=seed))
    doc = {"features": [schema[i] for i in subset.indices],
           "score": subset.score}
    if args.out:
        write_json(args.out, doc)
    else:
        sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


# acceptance rule key -> the report metric it limits and the comparison
# by which a row fails it
_LIMITS = {"min_adr": ("adr", "<"), "max_fpr": ("fpr", ">"),
           "min_sa": ("sa", "<")}
# acceptance rule keys that pick the report rows a rule applies to
_MATCH_KEYS = ("dataset", "s_pct", "classifier", "group")


def _check_acceptance(report, rules):
    """One line per limit a report cell breaks, and per rule that matches
    no cell at all."""
    failures = []
    for rule in rules:
        match = {key: rule[key] for key in _MATCH_KEYS if key in rule}
        cells = report.rows(**match)
        if not cells:
            failures.append("rule %s matches no cell"
                            % json.dumps(rule, sort_keys=True))
        for r in cells:
            for key, (metric, op) in _LIMITS.items():
                if key not in rule:
                    continue
                value, limit = getattr(r, metric), rule[key]
                if op == "<" and value < limit - 1e-9 \
                        or op == ">" and value > limit + 1e-9:
                    failures.append("%s/%s/S%d/%s: %s %.2f %s %.2f"
                                    % (r.classifier, r.dataset, r.s_pct,
                                       r.group, metric.upper(), value, op,
                                       limit))
    return failures


def _parse_acceptance(doc):
    """Acceptance rules with their thresholds as floats.  An empty or
    non-list ``acceptance``, a key that is neither a match key nor a limit,
    a rule with no limit and a limit that is not finite raise SchemaError:
    each would let any report pass."""
    rules = doc.get("acceptance", DEFAULT_ACCEPTANCE)
    if not isinstance(rules, list) or not rules:
        raise SchemaError("acceptance: expected a non-empty list of rules, "
                          "got %r" % (rules,))
    known = _MATCH_KEYS + tuple(_LIMITS)
    parsed = []
    for rule in rules:
        unknown = sorted(set(rule) - set(known))
        if unknown:
            raise SchemaError("acceptance: unknown rule key %s, expected "
                              "one of %s" % (", ".join(unknown),
                                             ", ".join(known)))
        limits = {key: json_float(rule[key], "acceptance: " + key)
                  for key in _LIMITS if key in rule}
        if not limits:
            raise SchemaError("acceptance: rule %r sets no limit, expected "
                              "one of %s" % (rule, ", ".join(_LIMITS)))
        for key, value in limits.items():
            if not math.isfinite(value):
                raise SchemaError("acceptance: %s must be a finite number, "
                                  "got %r" % (key, rule[key]))
        parsed.append(dict(rule, **limits))
    return parsed


def cmd_evaluate(args):
    seed = _resolve_seed(args.seed)
    rules = DEFAULT_ACCEPTANCE
    if args.config:
        rules = read_json(args.config, _parse_acceptance)
    campaign = load_campaign(args.campaign)
    groups = args.groups.split(",") if args.groups else None
    datasets = [args.dataset] if args.dataset else None
    sensitivities = [args.sensitivity] if args.sensitivity else None
    classifiers = [args.algo] if args.algo else None
    report = run_matrix(campaign, MatrixConfig(seed=seed), groups=groups,
                        datasets=datasets, sensitivities=sensitivities,
                        classifiers=classifiers)
    tables = report.render_tables()
    sys.stdout.write(tables)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        report.to_csv(os.path.join(args.out, "report.csv"))
        with open(os.path.join(args.out, "report.txt"), "w") as fh:
            fh.write(tables)
        run = {"seed": seed, "config_hash": config_hash(campaign.config)}
        write_json(os.path.join(args.out, "run.json"), run)
        print("report written to %s" % args.out)

    failures = _check_acceptance(report, rules)
    if failures:
        for line in failures:
            print("acceptance failure: %s" % line, file=sys.stderr)
        return 1
    print("acceptance thresholds met (%d cells)" % len(report.results))
    return 0


# built on the first main() call, not at import, and reused by later calls
@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="icn-sentinel",
        description="Threshold and inter-arrival-curve anomaly detection "
                    "over plant telemetry")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="synthesize a detection campaign")
    p.add_argument("--config", help="generator config JSON")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="fit profile, curve model and classifier")
    p.add_argument("--data", required=True, help="labeled training CSV")
    p.add_argument("--events", required=True, help="paired event trace")
    p.add_argument("--algo", choices=CLASSIFIER_KINDS, default="svm")
    p.add_argument("--config", help="generator config JSON (psi limits)")
    p.add_argument("--out", required=True, help="model output directory")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p.add_argument("--sigma-th", type=float, default=DEFAULT_SIGMA_TH)
    p.add_argument("--w-delta", type=int, default=DEFAULT_W_DELTA)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("detect", help="dual detection over a trace")
    p.add_argument("--data", required=True)
    p.add_argument("--events", required=True)
    p.add_argument("--models", required=True, help="directory from train")
    p.add_argument("--algo", choices=CLASSIFIER_KINDS, default=None)
    p.add_argument("--sensitivity", type=int, choices=SENSITIVITIES,
                   default=DEFAULT_SENSITIVITY)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--sigma-th", type=float, default=None)
    p.add_argument("--out", default=None, help="verdict CSV path")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("select", help="wrapper feature selection")
    p.add_argument("--data", required=True, help="labeled CSV")
    p.add_argument("--method", choices=("greedy", "genetic"), default="greedy")
    p.add_argument("--algo", choices=CLASSIFIER_KINDS, default="knn",
                   help="evaluator classifier")
    p.add_argument("--max-features", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="JSON output path")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("evaluate", help="scenario matrix over a campaign")
    p.add_argument("--campaign", required=True, help="directory from gen")
    p.add_argument("--out", default=None, help="report output directory")
    p.add_argument("--groups", default=None, help="comma list, e.g. MD,AD")
    p.add_argument("--dataset", choices=DATASET_KINDS, default=None)
    p.add_argument("--sensitivity", type=int, choices=SENSITIVITIES,
                   default=None)
    p.add_argument("--algo", choices=CLASSIFIER_KINDS, default=None)
    p.add_argument("--config", help="JSON with acceptance thresholds")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (SentinelError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
