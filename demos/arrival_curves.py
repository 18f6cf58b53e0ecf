#!/usr/bin/env python3
# Min/max inter-arrival curves over event traces, and the conformance
# test that flags traces whose curves leave the learned band.

from icn_sentinel import (EventTrace, classify_trace, mann_whitney_u,
                          min_max_curves, train_iac_model)

# a short hand-built trace: windows start at occurrences of the event
# and only windows fully inside the trace count
trace = EventTrace(tuple("BBEBCABEABDBBBEBCBAABBBEB"))
cmin, cmax = min_max_curves(trace, "B", w_delta=10)
print("w     : " + "  ".join("%2d" % w for w in sorted(cmin.values)))
print("c_min : " + "  ".join("%2d" % cmin.values[w] for w in sorted(cmin.values)))
print("c_max : " + "  ".join("%2d" % cmax.values[w] for w in sorted(cmax.values)))

# the curve pair brackets the event's short-term rate: at window size 2
# a B is followed by another B somewhere (max 2) but not everywhere (min 1)
assert cmin.values[1] == cmax.values[1] == 1
assert (cmin.values[2], cmax.values[2]) == (1, 2)

# train a model from repeated clean traces; bands come from a Student-t
# interval around the per-window means
clean = [EventTrace(tuple("ABC" * 12)) for _ in range(6)]
model = train_iac_model(clean, w_delta=18)
print("\nmodeled events:", " ".join(sorted(model.curves)))

# an identical trace conforms
verdict = classify_trace(EventTrace(tuple("ABC" * 12)), model)
print("clean trace anomalous:", verdict.anomalous)

# raising one symbol's rate pushes its curves out of the learned band
verdict = classify_trace(EventTrace(tuple("AABC" * 9)), model)
print("bursty trace anomalous:", verdict.anomalous)
for name, ev in sorted(verdict.events.items()):
    print("  %-2s min(p=%.3f dev=%.3f) max(p=%.3f dev=%.3f) -> %s"
          % (name, ev.p_min, ev.deviation_min, ev.p_max, ev.deviation_max,
             "fail" if ev.anomalous else "ok"))

# the conformance core is a Mann-Whitney U test, exact for small samples:
# 2 of the C(4,2)=6 label arrangements are at least as extreme
u, p = mann_whitney_u([1, 2], [3, 4])
print("\nMW U=%.1f exact p=%.4f for [1,2] vs [3,4]" % (u, p))
