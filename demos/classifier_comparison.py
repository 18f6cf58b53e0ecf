#!/usr/bin/env python3
# Train the three classifiers on one demand group and compare their
# confusion counts on the held-out test partition.

from icn_sentinel import (ANOMALOUS, LabeledSet, NORMAL, SensitivityDegree,
                          default_config, derive_seed, gen_campaign,
                          label_ground_truth, predict_labels, train_classifier)
from icn_sentinel.classifiers import CLASSIFIER_KINDS
from icn_sentinel.synth import inject_attacks

campaign = gen_campaign(default_config())
group = campaign.groups["MD"]
signal = list(campaign.signal)
schema = list(campaign.config.schema())

# the stored training partition is clean; attacks are injected into a
# copy so the classifiers see both classes
train, _ = inject_attacks(group.train, None, group.profile,
                          campaign.config.attack_pattern,
                          campaign.config.attack_rate,
                          seed=derive_seed(campaign.config.seed, "MD", "demo"),
                          signal=signal,
                          burst_len=campaign.config.burst_len)

sens = SensitivityDegree(100)
y_train = label_ground_truth(train, group.profile, signal, sens)
y_test = label_ground_truth(group.test, group.profile, signal, sens)
x_train = train.to_matrix(schema)
x_test = group.test.to_matrix(schema)
data = LabeledSet.from_raw(x_train, y_train)

print("train: %d rows (%d attacked), test: %d rows (%d attacked)"
      % (len(y_train), (y_train == ANOMALOUS).sum(),
         len(y_test), (y_test == ANOMALOUS).sum()))
print("\nclassifier   tp   fp   tn   fn")
for kind in CLASSIFIER_KINDS:
    model = train_classifier(kind, data)
    pred = predict_labels(model, x_test)
    tp = int(((pred == ANOMALOUS) & (y_test == ANOMALOUS)).sum())
    fp = int(((pred == ANOMALOUS) & (y_test == NORMAL)).sum())
    tn = int(((pred == NORMAL) & (y_test == NORMAL)).sum())
    fn = int(((pred == NORMAL) & (y_test == ANOMALOUS)).sum())
    print("%-10s %4d %4d %4d %4d" % (kind, tp, fp, tn, fn))

# the tree doubles as a readable description of the learned boundary;
# thresholds are in z-scored coordinates
model = train_classifier("c45", data)
print("\nextracted rules (standardized values):")
for rule in model.rules:
    conds = " and ".join("%s %s %.2f" % (schema[f], op, thr)
                         for f, op, thr in rule.conditions)
    print("  if %s then %+d" % (conds or "always", rule.klass))
print("  default %+d" % model.default_class)
