"""Synthetic plant-telemetry generator with attack injection.

Produces per-group data traces whose normal readings stay inside each
parameter's alarm threshold and paired event traces that emit one symbol
per parameter reading on a fixed periodic schedule.  Attacks overwrite a
chosen pattern of signal parameters with values above threshold and plant
a repetition burst of the matching symbols inside the row's event chunk.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, replace

import numpy as np

from .core import (ANOMALOUS, ConfigError, DataTrace, EventTrace, GROUP_HOURS,
                   GROUPS, NORMAL, SchemaError, _check_distinct, derive_seed,
                   is_finite_number, parse_data_trace, parse_event_trace,
                   read_json, write_data_trace, write_event_trace, write_json)
from .profiler import ParameterSpec, ThresholdProfile, compute_threshold

ATTACK_PATTERNS = ("one", "three", "five", "mixed")
_PATTERN_COUNTS = {"one": 1, "three": 3, "five": 5}

DEFAULT_POWER_OFFSETS = {"MD": 1.00, "AD": 1.06, "ED": 1.12, "ND": 0.94}

# Signal parameters calibrated so the thresholds land on round alarm values:
# fuel gas flow, main steam valve, gas booster valve, exhaust gas temperature
# and generated power.
SIGNAL_DEFAULTS = (
    ("FGF", 500.0, 334.17),
    ("MSV", 45.0, 10.63),
    ("GBV", 5.0, 1.4645),
    ("EGT", 560.0, 434.8),
    ("Power", 1120.0, 806.06),
)

# Filler instrumentation channels; informative of nothing, present to make
# the full feature view noisy.  (name, psi); baseline mu is 0.6 * psi.
FILLER_POOL = (
    ("AFR", 60.0), ("BPT", 640.0), ("CDP", 32.0), ("CIT", 55.0),
    ("GEN", 60.0), ("HPT", 920.0), ("IGV", 88.0), ("LOP", 9.0),
    ("LOT", 140.0), ("LPT", 610.0), ("NGS", 108.0), ("OPR", 16.0),
    ("WFT", 85.0),
)

# Size caps GeneratorConfig checks before anything is allocated.  Rows per
# group: 43x the largest size in use (16x the benchmark's 1440 is 23,040),
# 144 MB of readings per default-width partition.  Extra parameters: 77x
# the default config's 13 filler channels.
MAX_ROWS_PER_GROUP = 1_000_000
MAX_EXTRA_PARAMS = 1000


@dataclass(frozen=True)
class ParamModel:
    """Generator shape of one parameter: limit, target baseline, noise."""

    psi: float
    mu: float
    rel_std: float = 0.05

    def __post_init__(self):
        for field in ("psi", "mu", "rel_std"):
            value = getattr(self, field)
            if not is_finite_number(value):
                raise ConfigError("%s must be a finite number, got %r"
                                  % (field, value))
        if not self.psi > 0:
            raise ConfigError("psi must be > 0")
        if not 0 < self.mu < self.psi:
            raise ConfigError("target mu must satisfy 0 < mu < psi")
        if self.rel_std < 0:
            raise ConfigError("rel_std must be >= 0")


@dataclass(frozen=True)
class GeneratorConfig:
    signal: dict = None
    extra_params: int = 13
    rows_per_group: int = 180
    attack_rate: float = 0.25
    attack_pattern: str = "five"
    power_offsets: dict = None
    seed: int = 0
    cadence_s: int = 60
    burst_len: int = 2

    def __post_init__(self):
        if self.signal is None:
            object.__setattr__(self, "signal",
                               {n: ParamModel(psi, mu)
                                for n, psi, mu in SIGNAL_DEFAULTS})
        if self.power_offsets is None:
            object.__setattr__(self, "power_offsets",
                               dict(DEFAULT_POWER_OFFSETS))
        if not self.signal:
            raise ConfigError("at least one signal parameter required")
        for name in self.signal:
            if name in ("ts", "group", "label"):
                raise SchemaError("signal name %r is reserved for a trace "
                                  "column" % (name,))
        for field in ("extra_params", "rows_per_group", "seed", "cadence_s",
                      "burst_len"):
            value = getattr(self, field)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError("%s must be an integer, got %r"
                                  % (field, value))
        if not 0 <= self.extra_params <= MAX_EXTRA_PARAMS:
            raise ConfigError("extra_params must be in [0, %d]"
                              % MAX_EXTRA_PARAMS)
        if not 1 <= self.rows_per_group <= MAX_ROWS_PER_GROUP:
            raise ConfigError("rows_per_group must be in [1, %d]"
                              % MAX_ROWS_PER_GROUP)
        if not is_finite_number(self.attack_rate) \
                or not 0 <= self.attack_rate <= 1:
            raise ConfigError("attack_rate must be a number in [0, 1]")
        if self.attack_pattern not in ATTACK_PATTERNS:
            raise ConfigError("attack_pattern must be one of %s"
                              % (ATTACK_PATTERNS,))
        if set(self.power_offsets) != set(GROUPS):
            raise ConfigError("power_offsets must cover exactly %s" % (GROUPS,))
        if not all(is_finite_number(v) and v > 0
                   for v in self.power_offsets.values()):
            raise ConfigError("power offsets must be positive finite numbers")
        if self.cadence_s < 1:
            raise ConfigError("cadence_s must be >= 1")
        if self.burst_len < 1:
            raise ConfigError("burst_len must be >= 1")
        # every group-effective baseline must stay strictly inside (0, psi)
        params = self.parameters()
        for group in GROUPS:
            for name, pm in params.items():
                mu = self._group_mu(name, pm, group)
                if not 0 < mu < pm.psi:
                    raise ConfigError(
                        "effective mu %g for %r in group %s outside (0, psi)"
                        % (mu, name, group))

    def fillers(self) -> dict:
        out = {}
        for i in range(self.extra_params):
            if i < len(FILLER_POOL):
                name, psi = FILLER_POOL[i]
            else:
                name, psi = "X%02d" % (i + 1), 100.0
            out[name] = ParamModel(psi, 0.6 * psi)
        return out

    def parameters(self) -> dict:
        """All parameters in schema order: signal first, then fillers."""
        out = dict(self.signal)
        for name, pm in self.fillers().items():
            if name in out:
                raise ConfigError("filler name %r collides with signal" % name)
            out[name] = pm
        return out

    def schema(self) -> tuple:
        return tuple(self.parameters())

    def signal_names(self) -> tuple:
        return tuple(self.signal)

    def _group_mu(self, name, pm, group) -> float:
        """Group demand scaling applies to the Power channel only."""
        if name == "Power":
            return pm.mu * self.power_offsets[group]
        return pm.mu

    def to_json(self) -> dict:
        # the signal order defines the schema, so it rides in a list that
        # key-sorting serializers cannot reorder
        return {
            "signal": [[n, {"psi": p.psi, "mu": p.mu, "rel_std": p.rel_std}]
                       for n, p in self.signal.items()],
            "extra_params": self.extra_params,
            "rows_per_group": self.rows_per_group,
            "attack_rate": self.attack_rate,
            "attack_pattern": self.attack_pattern,
            "power_offsets": dict(self.power_offsets),
            "seed": self.seed,
            "cadence_s": self.cadence_s,
            "burst_len": self.burst_len,
        }

    @classmethod
    def from_json(cls, doc) -> "GeneratorConfig":
        signal = None
        if "signal" in doc:
            raw = doc["signal"]
            pairs = list(raw.items() if isinstance(raw, dict) else raw)
            _check_distinct([n for n, _ in pairs], "signal name")
            signal = {n: ParamModel(b["psi"], b["mu"],
                                    b.get("rel_std", 0.05))
                      for n, b in pairs}
        kwargs = {k: doc[k] for k in
                  ("extra_params", "rows_per_group", "attack_rate",
                   "attack_pattern", "power_offsets", "seed", "cadence_s",
                   "burst_len") if k in doc}
        return cls(signal=signal, **kwargs)


def default_config(seed=0, **overrides) -> GeneratorConfig:
    return replace(GeneratorConfig(seed=seed), **overrides)


def config_hash(config: GeneratorConfig) -> str:
    text = json.dumps(config.to_json(), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def group_profile(config: GeneratorConfig, group) -> ThresholdProfile:
    """The generator's own alarm geometry for one group (ground truth)."""
    if group not in GROUPS:
        raise ConfigError("unknown group %r" % (group,))
    params = {}
    for name, pm in config.parameters().items():
        mu = config._group_mu(name, pm, group)
        delta, p_th = compute_threshold(pm.psi, mu)
        params[name] = ParameterSpec(name, pm.psi, mu, delta, p_th)
    return ThresholdProfile(params)


def _truncated_normal(rng, mean, sd, upper, n):
    """Normal draws rejection-truncated to (0, upper]."""
    if not 0 < mean <= upper:
        raise ConfigError("mean %g outside the acceptance band (0, %g]"
                          % (mean, upper))
    x = rng.normal(mean, sd, n)
    for _ in range(200):
        bad = ~((x > 0) & (x <= upper))  # a NaN draw is bad too
        if not bad.any():
            return x
        x[bad] = rng.normal(mean, sd, int(bad.sum()))
    raise ConfigError("rejection sampling keeps missing (0, %g]" % upper)


def gen_normal(config: GeneratorConfig, group, n, seed=None, start_row=0):
    """``n`` rows of normal operation for one group plus the paired events.

    Readings are normal draws around the group-effective baseline,
    rejection-truncated to (0, P_th], so no normal row ever counts as
    compromised against the generator profile.  Timestamps advance one
    cadence step per row inside the group's 6 h interval, rolling to the
    next day when the interval fills.  Labels are +1.
    """
    if group not in GROUPS:
        raise ConfigError("unknown group %r" % (group,))
    if n < 0:
        raise ConfigError("row count must be >= 0")
    if seed is None:
        seed = derive_seed(config.seed, group, "normal")
    rng = np.random.default_rng(seed)
    profile = group_profile(config, group)
    params = config.parameters()
    schema = tuple(params)

    matrix = np.empty((n, len(schema)))
    for j, (name, pm) in enumerate(params.items()):
        mu = config._group_mu(name, pm, group)
        sd = pm.rel_std * mu
        matrix[:, j] = _truncated_normal(rng, mu, sd,
                                         profile.threshold(name), n)

    per_interval = max(1, (6 * 3600) // config.cadence_s)
    start = GROUP_HOURS[group] * 3600
    timestamps = []
    for abs_row in range(start_row, start_row + n):
        day, slot = divmod(abs_row, per_interval)
        timestamps.append(day * 86400 + start + slot * config.cadence_s)
    events = EventTrace([name for _ in range(n) for name in schema])
    return DataTrace._from_columns(schema, tuple(timestamps), (group,) * n,
                                   (NORMAL,) * n, matrix), events


def inject_attacks(trace: DataTrace, events, profile: ThresholdProfile,
                   pattern, rate, seed, signal, burst_len=2):
    """Overwrite round(rate * n) uniformly chosen rows with attack values.

    Each attacked row gets its pattern's count of ``signal`` parameters
    drawn uniformly from (P_th, psi] and the label -1; other rows keep +1.  When ``events`` is
    given, every attacked parameter's symbol is additionally written over
    ``burst_len`` filler-symbol slots of the row's fixed-length event
    chunk, so chunk alignment survives.  Returns (trace, events).
    """
    if pattern not in ATTACK_PATTERNS:
        raise ConfigError("attack pattern must be one of %s" % (ATTACK_PATTERNS,))
    if not 0 <= rate <= 1:
        raise ConfigError("rate must be in [0, 1]")
    if ANOMALOUS in trace._labels:
        raise ConfigError("row %d is already anomalous"
                          % trace._labels.index(ANOMALOUS))
    signal_set = set(signal)
    signal = [n for n in trace.schema if n in signal_set]  # schema order
    if not signal:
        raise ConfigError("no attackable parameters")

    schema = trace.schema
    n = len(trace)
    n_attack = int(round(rate * n))
    rng = np.random.default_rng(seed)
    chosen = sorted(rng.choice(n, size=n_attack, replace=False).tolist()) \
        if n_attack else []

    symbols = None
    if events is not None:
        if len(events) != n * len(schema):
            raise ConfigError(
                "event trace length %d does not pair with %d rows of %d "
                "parameters" % (len(events), n, len(schema)))
        symbols = list(events.events)

    matrix = trace.to_matrix()
    labels = [NORMAL] * n
    for i in chosen:
        eff = pattern
        if eff == "mixed":
            eff = str(rng.choice(("one", "three", "five")))
        count = _PATTERN_COUNTS[eff]
        if count > len(signal):
            raise ConfigError("pattern %r needs %d signal parameters, have %d"
                              % (eff, count, len(signal)))
        picked = rng.choice(len(signal), size=count, replace=False)
        attacked = [signal[j] for j in sorted(picked.tolist())]

        for name in attacked:
            spec = profile.spec(name)
            matrix[i, schema.index(name)] = \
                spec.p_th + (1.0 - rng.random()) * (spec.psi - spec.p_th)
        labels[i] = ANOMALOUS

        if symbols is not None:
            base = i * len(schema)
            free = [base + j for j, name in enumerate(schema)
                    if name not in signal_set]
            pos = 0
            for name in attacked:
                for _ in range(burst_len):
                    if pos >= len(free):
                        break
                    symbols[free[pos]] = name
                    pos += 1

    out = DataTrace._from_columns(schema, trace.timestamps, trace.groups,
                                  tuple(labels), matrix)
    return out, EventTrace(symbols) if symbols is not None else None


@dataclass(frozen=True)
class GroupData:
    train: DataTrace
    test: DataTrace
    train_events: EventTrace
    test_events: EventTrace
    profile: ThresholdProfile  # generator ground truth for the group


@dataclass(frozen=True)
class Campaign:
    config: GeneratorConfig
    groups: dict

    @property
    def signal(self) -> tuple:
        return self.config.signal_names()


def gen_campaign(config: GeneratorConfig = None) -> Campaign:
    """Four-group campaign: attack-free train partitions (25 % of each
    group's data) and test partitions with attacks injected at the
    configured rate.  Fully deterministic under config.seed."""
    config = config or GeneratorConfig()
    groups = {}
    for group in GROUPS:
        profile = group_profile(config, group)
        n_test = config.rows_per_group
        n_train = int(round(n_test / 3.0))  # train is 25 % of train+test
        train, train_ev = gen_normal(config, group, n_train,
                                     seed=derive_seed(config.seed, group, "train"))
        test, test_ev = gen_normal(config, group, n_test,
                                   seed=derive_seed(config.seed, group, "test"),
                                   start_row=n_train)
        test, test_ev = inject_attacks(
            test, test_ev, profile, config.attack_pattern, config.attack_rate,
            seed=derive_seed(config.seed, group, "attack"),
            signal=config.signal_names(), burst_len=config.burst_len)
        groups[group] = GroupData(train, test, train_ev, test_ev, profile)
    return Campaign(config, groups)


def save_campaign(campaign: Campaign, outdir):
    """Write one CSV + events file pair per group partition and a manifest
    recording the seed and config hash.  Output is byte-deterministic."""
    os.makedirs(outdir, exist_ok=True)
    files = {}
    for group, data in campaign.groups.items():
        entries = {}
        for part, trace, events in (("train", data.train, data.train_events),
                                    ("test", data.test, data.test_events)):
            csv_name = "%s_%s.csv" % (group, part)
            ev_name = "%s_%s.events" % (group, part)
            write_data_trace(os.path.join(outdir, csv_name), trace)
            write_event_trace(os.path.join(outdir, ev_name), events)
            entries[part] = {"data": csv_name, "events": ev_name}
        files[group] = entries
    manifest = {
        "seed": campaign.config.seed,
        "config_hash": config_hash(campaign.config),
        "config": campaign.config.to_json(),
        "files": files,
    }
    write_json(os.path.join(outdir, "manifest.json"), manifest)


def _parse_manifest(doc):
    """(config, {group: (train csv, test csv, train events, test events)})
    from a campaign manifest."""
    files = {group: tuple(entries[part][kind] for kind in ("data", "events")
                          for part in ("train", "test"))
             for group, entries in doc["files"].items()}
    return GeneratorConfig.from_json(doc["config"]), files


def load_campaign(directory) -> Campaign:
    config, files = read_json(os.path.join(directory, "manifest.json"),
                              _parse_manifest)
    schema = config.schema()
    groups = {}
    for group, names in files.items():
        profile = group_profile(config, group)
        train, test, train_ev, test_ev = (os.path.join(directory, name)
                                          for name in names)
        groups[group] = GroupData(
            parse_data_trace(train, schema), parse_data_trace(test, schema),
            parse_event_trace(train_ev), parse_event_trace(test_ev), profile)
    return Campaign(config, groups)
