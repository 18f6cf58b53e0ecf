"""Anomaly detection for industrial telemetry.

Per-parameter threshold profiles learned from clean operation, min/max
inter-arrival curves over event traces, three classifiers trained from
scratch, wrapper feature selection, a synthetic plant generator and an
evaluation harness that scores every scenario cell.
"""

from .core import (ANOMALOUS, GROUP_HOURS, GROUPS, NORMAL, ConfigError,
                   DataRow, DataTrace, DegenerateDataError, EventNotFoundError,
                   EventTrace, InsufficientDataError, MetricError,
                   ParameterSpec, SchemaError, SensitivityDegree,
                   SentinelError, TraceParseError, derive_seed,
                   group_for_timestamp, infer_schema, parse_data_trace,
                   parse_event_trace, write_data_trace, write_event_trace)
from .profiler import (ThresholdProfile, build_profile, compute_threshold,
                       count_compromised, invert_threshold, trim_mean)
from .iac import (EventVerdict, IacCurve, IacModel, TraceVerdict, aggregate,
                  classify_trace, mann_whitney_u, min_max_curves,
                  train_iac_model)
from .classifiers import (C45Model, KnnModel, LabeledSet, Rule,
                          Standardization, SvmModel, c45_train, knn_predict,
                          knn_train, load_model, model_from_json, model_kind,
                          model_to_json, predict_label, predict_labels,
                          save_model, svm_objective, svm_predict, svm_train,
                          train_classifier)
from .featsel import (FeatureSubset, GaConfig, cross_val_accuracy,
                      genetic_select, greedy_select, stratified_folds)
from .synth import (Campaign, GeneratorConfig, GroupData, ParamModel,
                    config_hash, default_config, gen_campaign, gen_normal,
                    group_profile, inject_attacks, load_campaign,
                    save_campaign)
from .harness import (Detector, DualVerdict, EvaluationReport, MatrixConfig,
                      ScenarioResult, dual_detect, event_chunks,
                      label_ground_truth, metrics, read_paired, run_matrix)

__version__ = "0.1.0"

__all__ = [
    "ANOMALOUS", "GROUPS", "GROUP_HOURS", "NORMAL",
    "SentinelError", "SchemaError", "TraceParseError", "ConfigError",
    "DegenerateDataError", "InsufficientDataError", "EventNotFoundError",
    "MetricError",
    "DataRow", "DataTrace", "EventTrace", "ParameterSpec",
    "SensitivityDegree",
    "derive_seed", "group_for_timestamp", "infer_schema", "parse_data_trace",
    "parse_event_trace", "write_data_trace", "write_event_trace",
    "ThresholdProfile", "build_profile", "compute_threshold",
    "count_compromised", "invert_threshold", "trim_mean",
    "IacCurve", "IacModel", "EventVerdict", "TraceVerdict", "aggregate",
    "classify_trace", "mann_whitney_u", "min_max_curves", "train_iac_model",
    "LabeledSet", "Standardization", "SvmModel", "KnnModel", "C45Model",
    "Rule", "svm_train", "svm_predict", "svm_objective", "knn_train",
    "knn_predict", "c45_train", "train_classifier",
    "predict_label", "predict_labels", "model_kind", "model_to_json",
    "model_from_json", "save_model", "load_model",
    "FeatureSubset", "GaConfig", "cross_val_accuracy", "genetic_select",
    "greedy_select", "stratified_folds",
    "Campaign", "GroupData", "GeneratorConfig", "ParamModel", "config_hash",
    "default_config", "gen_campaign", "gen_normal", "group_profile",
    "inject_attacks", "load_campaign", "save_campaign",
    "Detector", "DualVerdict", "EvaluationReport", "MatrixConfig",
    "ScenarioResult", "dual_detect", "event_chunks", "label_ground_truth",
    "metrics", "read_paired", "run_matrix",
]
