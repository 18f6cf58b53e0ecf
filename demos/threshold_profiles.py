#!/usr/bin/env python3
# Learn per-parameter alarm thresholds from clean telemetry and count
# how many parameters an anomalous reading pushes past them.

import numpy as np

from icn_sentinel import (build_profile, compute_threshold, count_compromised,
                          default_config, invert_threshold)
from icn_sentinel.synth import gen_normal, group_profile

config = default_config(seed=7)

# the five signal parameters with their operational limits
print("parameter  limit psi   trim mean   threshold")
for name, pm in config.signal.items():
    delta, p_th = compute_threshold(pm.psi, pm.mu)
    print("%-9s  %9.2f   %9.2f   %9.2f" % (name, pm.psi, pm.mu, p_th))

# the threshold formula is invertible: given a published threshold we can
# recover the trim mean that produced it
mu = invert_threshold(500.0, 445.0)
print("\nmu recovered from (psi=500, p_th=445): %.4f" % mu)

# profile a freshly generated morning-demand window
trace, _ = gen_normal(config, "MD", 240)
limits = {name: pm.psi for name, pm in config.parameters().items()}
profile = build_profile(trace, limits)
print("\nlearned profile (signal parameters):")
for name in config.signal_names():
    spec = profile.spec(name)
    print("  %-9s mu=%8.3f  p_th=%8.3f" % (name, spec.mu, spec.p_th))

# normal rows never cross their own profile's thresholds
counts = count_compromised(trace, profile, config.signal_names())
print("\ncompromised counts over %d clean rows: min=%d max=%d"
      % (len(trace), min(counts), max(counts)))

# a reading forced above threshold on two parameters is counted as two
row = trace.rows[0]
values = dict(row.values)
values["FGF"] = 484.0
values["EGT"] = 539.0
forced = type(row)(row.timestamp, row.group, values, row.label)
print("forced row compromised count: %d"
      % count_compromised(forced, profile, config.signal_names()))

# the generator knows its own ground-truth profile without sampling noise
truth = group_profile(config, "MD")
drift = max(abs(profile.spec(n).p_th - truth.spec(n).p_th)
            for n in config.signal_names())
print("largest learned-vs-truth threshold gap: %.3f" % drift)
