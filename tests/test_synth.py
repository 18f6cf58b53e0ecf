import csv
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from icn_sentinel.core import (ANOMALOUS, GROUP_HOURS, GROUPS, NORMAL,
                               ConfigError, DataRow, DataTrace, EventTrace,
                               SchemaError, derive_seed, parse_event_trace,
                               write_data_trace)
from icn_sentinel.profiler import ParameterSpec, count_compromised
from icn_sentinel.synth import (ATTACK_PATTERNS, MAX_EXTRA_PARAMS,
                                MAX_ROWS_PER_GROUP, Campaign, GeneratorConfig,
                                ParamModel, _PATTERN_COUNTS, config_hash,
                                default_config, gen_campaign, gen_normal,
                                group_profile, inject_attacks, load_campaign,
                                save_campaign)

EXPECTED_THRESHOLDS = {"FGF": 445.0, "MSV": 18.75, "GBV": 2.50,
                       "EGT": 532.0, "Power": 1032.0}


def test_default_profile_hits_published_thresholds():
    profile = group_profile(default_config(), "MD")
    for name, want in EXPECTED_THRESHOLDS.items():
        assert profile.threshold(name) == pytest.approx(want, abs=0.5)


def test_power_threshold_scales_with_group_demand():
    config = default_config()
    t = {g: group_profile(config, g).threshold("Power") for g in GROUPS}
    assert t["ED"] > t["AD"] > t["MD"] > t["ND"]
    # other signal channels ignore the demand offsets
    for name in ("FGF", "MSV", "GBV", "EGT"):
        vals = {group_profile(config, g).threshold(name) for g in GROUPS}
        assert len(vals) == 1


def test_gen_normal_rows_stay_normal():
    config = default_config()
    schema = config.schema()
    for group in GROUPS:
        trace, events = gen_normal(config, group, 120)
        assert len(trace) == 120
        assert all(row.label == NORMAL for row in trace.rows)
        profile = group_profile(config, group)
        assert all(count_compromised(row, profile, schema) == 0
                   for row in trace.rows)
        assert len(events) == 120 * len(schema)


def test_gen_normal_zero_noise_hits_baseline_exactly():
    config = default_config(signal={"FGF": ParamModel(500.0, 334.17, 0.0)},
                            extra_params=0)
    trace, _ = gen_normal(config, "MD", 5)
    for row in trace.rows:
        assert row.values["FGF"] == 334.17


def test_gen_normal_event_schedule_order():
    config = default_config(extra_params=2)
    schema = config.schema()
    trace, events = gen_normal(config, "AD", 7)
    symbols = list(events.events)
    for i in range(7):
        chunk = symbols[i * len(schema):(i + 1) * len(schema)]
        assert tuple(chunk) == schema


def test_gen_normal_timestamps_and_day_roll():
    # cadence of one hour fills the 6 h interval after six rows
    config = default_config(cadence_s=3600)
    trace, _ = gen_normal(config, "MD", 8)
    start = GROUP_HOURS["MD"] * 3600
    ts = [row.timestamp for row in trace.rows]
    assert ts[:6] == [start + i * 3600 for i in range(6)]
    assert ts[6] == 86400 + start
    assert ts[7] == 86400 + start + 3600
    assert all(row.group == "MD" for row in trace.rows)


def test_gen_normal_deterministic_and_empty():
    config = default_config()
    a, ea = gen_normal(config, "ND", 50)
    b, eb = gen_normal(config, "ND", 50)
    assert a.rows == b.rows
    assert ea.events == eb.events
    empty, events = gen_normal(config, "ND", 0)
    assert len(empty) == 0 and len(events) == 0


def test_gen_normal_errors():
    config = default_config()
    with pytest.raises(ConfigError):
        gen_normal(config, "XX", 5)
    with pytest.raises(ConfigError):
        gen_normal(config, "MD", -1)


def attacked_rows(trace):
    return [i for i, row in enumerate(trace.rows) if row.label == ANOMALOUS]


def test_inject_attacks_counts_and_ranges():
    config = default_config()
    profile = group_profile(config, "MD")
    signal = config.signal_names()
    clean, events = gen_normal(config, "MD", 80)
    for pattern, per_row in (("one", 1), ("three", 3), ("five", 5)):
        trace, _ = inject_attacks(clean, events, profile, pattern, 0.25,
                                  seed=7, signal=signal)
        hit = attacked_rows(trace)
        assert len(hit) == round(0.25 * 80)
        for i in hit:
            row = trace.rows[i]
            exceeding = [n for n in signal
                         if row.values[n] > profile.threshold(n)]
            assert len(exceeding) == per_row
            for name in exceeding:
                spec = profile.spec(name)
                assert spec.p_th < row.values[name] <= spec.psi
        # untouched rows are bit-identical to the originals
        for i, row in enumerate(trace.rows):
            if i not in hit:
                assert row.values == clean.rows[i].values
                assert row.label == NORMAL


def test_inject_attacks_mixed_pattern():
    config = default_config()
    profile = group_profile(config, "MD")
    signal = config.signal_names()
    clean, events = gen_normal(config, "MD", 100)
    trace, _ = inject_attacks(clean, events, profile, "mixed", 0.5,
                              seed=3, signal=signal)
    sizes = set()
    for i in attacked_rows(trace):
        row = trace.rows[i]
        sizes.add(sum(row.values[n] > profile.threshold(n) for n in signal))
    assert sizes <= {1, 3, 5}
    assert len(sizes) > 1


def test_inject_attacks_event_bursts():
    config = default_config()
    profile = group_profile(config, "MD")
    signal = set(config.signal_names())
    schema = config.schema()
    clean, events = gen_normal(config, "MD", 40)
    trace, out = inject_attacks(clean, events, profile, "one", 0.25,
                                seed=11, signal=config.signal_names(),
                                burst_len=2)
    assert len(out) == len(events)
    symbols = list(out.events)
    width = len(schema)
    for i in range(40):
        chunk = symbols[i * width:(i + 1) * width]
        if i in attacked_rows(trace):
            row = trace.rows[i]
            name = next(n for n in signal
                        if row.values[n] > profile.threshold(n))
            # the attacked symbol appears once on schedule plus burst copies
            assert chunk.count(name) == 1 + 2
        else:
            assert tuple(chunk) == schema


def test_inject_attacks_rate_zero_and_errors():
    config = default_config()
    profile = group_profile(config, "MD")
    signal = config.signal_names()
    clean, events = gen_normal(config, "MD", 20)
    trace, _ = inject_attacks(clean, events, profile, "five", 0.0, seed=0,
                              signal=signal)
    assert attacked_rows(trace) == []
    with pytest.raises(ConfigError):
        inject_attacks(clean, events, profile, "two", 0.25, seed=0,
                       signal=signal)
    with pytest.raises(ConfigError):
        inject_attacks(clean, events, profile, "five", 1.5, seed=0,
                       signal=signal)
    with pytest.raises(ConfigError):
        inject_attacks(clean, events, profile, "five", 0.25, seed=0,
                       signal=["FGF", "MSV"])  # five needs five parameters
    with pytest.raises(ConfigError, match="no attackable"):
        inject_attacks(clean, events, profile, "one", 0.25, seed=0,
                       signal=["nope"])
    already, _ = inject_attacks(clean, None, profile, "one", 0.25, seed=0,
                                signal=signal)
    with pytest.raises(ConfigError):
        inject_attacks(already, None, profile, "one", 0.25, seed=0,
                       signal=signal)
    short = EventTrace(events.events[:-1])
    with pytest.raises(ConfigError):
        inject_attacks(clean, short, profile, "one", 0.25, seed=0,
                       signal=signal)


def test_campaign_shapes_and_attack_share():
    campaign = gen_campaign()
    assert set(campaign.groups) == set(GROUPS)
    for group, data in campaign.groups.items():
        assert len(data.test) == 180
        assert len(data.train) == 60
        assert len(attacked_rows(data.test)) == 45
        assert attacked_rows(data.train) == []
        assert len(data.test_events) == 180 * 18
        assert len(data.train_events) == 60 * 18


def test_campaign_power_means_follow_demand():
    campaign = gen_campaign()
    means = {}
    for group, data in campaign.groups.items():
        means[group] = np.mean([row.values["Power"]
                                for row in data.train.rows])
    assert means["ED"] > means["AD"] > means["MD"] > means["ND"]


def test_campaign_regeneration_identical():
    config = default_config(seed=123)
    a = gen_campaign(config)
    b = gen_campaign(config)
    for group in GROUPS:
        assert a.groups[group].test.rows == b.groups[group].test.rows
        assert a.groups[group].train.rows == b.groups[group].train.rows
        assert a.groups[group].test_events == b.groups[group].test_events


def test_campaign_save_load_round_trip(tmp_path):
    campaign = gen_campaign(default_config(seed=5))
    outdir = tmp_path / "campaign"
    save_campaign(campaign, outdir)
    loaded = load_campaign(outdir)
    assert isinstance(loaded, Campaign)
    assert config_hash(loaded.config) == config_hash(campaign.config)
    assert loaded.signal == campaign.signal
    for group in GROUPS:
        got, want = loaded.groups[group], campaign.groups[group]
        assert got.test.schema == want.test.schema
        assert got.test.rows == want.test.rows
        assert got.train.rows == want.train.rows
        # the event files hold the generated traces, and loading skips them
        for part in ("train", "test"):
            written = parse_event_trace(outdir / ("%s_%s.events"
                                                  % (group, part)))
            assert written == getattr(want, part + "_events")
            assert getattr(got, part + "_events") is None


def test_save_campaign_byte_deterministic(tmp_path):
    config = default_config(seed=9)
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    save_campaign(gen_campaign(config), dir_a)
    save_campaign(gen_campaign(config), dir_b)
    for path in sorted(dir_a.iterdir()):
        assert path.read_bytes() == (dir_b / path.name).read_bytes()


def test_config_validation():
    with pytest.raises(ConfigError):
        default_config(attack_rate=1.5)
    with pytest.raises(ConfigError):
        default_config(attack_pattern="two")
    with pytest.raises(ConfigError):
        default_config(power_offsets={"MD": 1.0})
    with pytest.raises(ConfigError):
        default_config(power_offsets={"MD": 1.0, "AD": -1.0, "ED": 1.1,
                                      "ND": 0.9})
    with pytest.raises(ConfigError):
        ParamModel(100.0, 100.0)
    with pytest.raises(ConfigError):
        ParamModel(0.0, 1.0)
    # demand offset pushing the Power baseline past its limit
    with pytest.raises(ConfigError):
        default_config(power_offsets={"MD": 1.0, "AD": 1.06, "ED": 1.4,
                                      "ND": 0.94})


@pytest.mark.parametrize("field, cap", [
    ("rows_per_group", MAX_ROWS_PER_GROUP), ("extra_params", MAX_EXTRA_PARAMS)])
def test_config_refuses_sizes_above_the_cap(field, cap):
    # refused in GeneratorConfig, before any row or parameter is built
    assert getattr(default_config(**{field: cap}), field) == cap
    for value in (cap + 1, 10 ** 11, 10 ** 400):
        with pytest.raises(ConfigError, match="%s must be in" % field):
            default_config(**{field: value})


def test_config_hash_and_json_round_trip():
    config = default_config(seed=4, attack_pattern="three")
    doc = config.to_json()
    assert GeneratorConfig.from_json(doc) == config
    assert config_hash(config) == config_hash(GeneratorConfig.from_json(doc))
    assert config_hash(config) != config_hash(default_config(seed=5))
    assert len(config_hash(config)) == 64


def test_derive_seed_separates_streams():
    config = default_config()
    a, _ = gen_normal(config, "MD", 30,
                      seed=derive_seed(config.seed, "MD", "train"))
    b, _ = gen_normal(config, "MD", 30,
                      seed=derive_seed(config.seed, "MD", "test"))
    assert a.rows != b.rows


def test_param_model_refuses_non_finite_values():
    for args in ((math.inf, 1.0), (math.nan, 1.0), (500.0, math.nan),
                 (500.0, 334.17, math.nan), (500.0, 334.17, math.inf),
                 (500.0, True), ("500", 334.17)):
        with pytest.raises(ConfigError, match="must be a finite number"):
            ParamModel(*args)


def test_profile_specs_refuse_non_finite_values():
    # an infinite limit used to surface only as an attack value of inf
    for field in ("psi", "mu", "delta", "p_th"):
        values = dict(psi=500.0, mu=334.17, delta=0.33, p_th=445.0)
        values[field] = math.inf
        with pytest.raises(ConfigError, match="non-finite %s" % field):
            ParameterSpec("FGF", **values)


@pytest.mark.parametrize("signal,name", [
    ([["FGF", {"psi": 500.0, "mu": 334.17}],
      ["FGF", {"psi": 600.0, "mu": 334.17}]], "repeated signal name 'FGF'"),
    ({"label": {"psi": 500.0, "mu": 334.17}}, "'label'"),
    ([["ts", {"psi": 500.0, "mu": 334.17}]], "'ts'"),
    ([["FGF", {"psi": 500.0, "mu": 334.17}],
      ["group", {"psi": 50.0, "mu": 10.0}]], "'group'"),
])
def test_config_refuses_bad_signal_names(signal, name):
    # a repeat used to keep the last entry; a name that is a trace column
    # wrote a campaign that evaluate then refused
    with pytest.raises(SchemaError, match=name):
        GeneratorConfig.from_json({"signal": signal})


@pytest.mark.parametrize("name", [1, 1.5, None, ("FGF",), b"FGF"])
def test_config_refuses_non_string_signal_names(name):
    # the Python API used to save such a campaign, which load_campaign then
    # refused
    with pytest.raises(SchemaError,
                       match=re.escape("signal name %r is not a string"
                                       % (name,))):
        default_config(signal={name: ParamModel(500.0, 334.17)},
                       attack_pattern="one", rows_per_group=12)


# The row-by-row generator and attack injector that the matrix versions
# replaced, kept as oracles: they build one checked DataRow per row.

def _seed_truncated_normal(rng, mean, sd, upper, n):
    if not 0 < mean <= upper:
        raise ConfigError("mean %g outside the acceptance band (0, %g]"
                          % (mean, upper))
    x = rng.normal(mean, sd, n)
    for _ in range(200):
        bad = (x <= 0) | (x > upper)
        if not bad.any():
            return x
        x[bad] = rng.normal(mean, sd, int(bad.sum()))
    raise ConfigError("rejection sampling keeps missing (0, %g]" % upper)


def _seed_gen_normal(config, group, n, seed, start_row=0):
    """(schema, rows) and the events of gen_normal, built row by row."""
    rng = np.random.default_rng(seed)
    profile = group_profile(config, group)
    params = config.parameters()
    schema = tuple(params)
    columns = {}
    for name, pm in params.items():
        mu = config._group_mu(name, pm, group)
        sd = pm.rel_std * mu
        columns[name] = _seed_truncated_normal(rng, mu, sd,
                                               profile.threshold(name), n)
    per_interval = max(1, (6 * 3600) // config.cadence_s)
    start_hour = GROUP_HOURS[group]
    rows = []
    for i in range(n):
        abs_row = start_row + i
        day, slot = divmod(abs_row, per_interval)
        ts = day * 86400 + start_hour * 3600 + slot * config.cadence_s
        values = {name: float(columns[name][i]) for name in schema}
        rows.append(DataRow(ts, group, values, NORMAL))
    events = EventTrace([name for _ in range(n) for name in schema])
    return (schema, rows), events


def _seed_inject_attacks(schema, rows, events, profile, pattern, rate, seed,
                         signal, burst_len):
    """(schema, rows) and the events of inject_attacks, row by row."""
    signal = [n for n in schema if n in set(signal)]
    signal_set = set(signal)
    n = len(rows)
    n_attack = int(round(rate * n))
    rng = np.random.default_rng(seed)
    chosen = sorted(rng.choice(n, size=n_attack, replace=False).tolist()) \
        if n_attack else []
    symbols = list(events.events) if events is not None else None
    rows = [DataRow(r.timestamp, r.group, r.values, NORMAL)
            if r.label is None else r for r in rows]
    for i in chosen:
        eff = pattern
        if eff == "mixed":
            eff = str(rng.choice(("one", "three", "five")))
        count = _PATTERN_COUNTS[eff]
        picked = rng.choice(len(signal), size=count, replace=False)
        attacked = [signal[j] for j in sorted(picked.tolist())]
        values = dict(rows[i].values)
        for name in attacked:
            spec = profile.spec(name)
            values[name] = spec.p_th + (1.0 - rng.random()) * (spec.psi
                                                               - spec.p_th)
        rows[i] = DataRow(rows[i].timestamp, rows[i].group, values, ANOMALOUS)
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
    out_events = EventTrace(symbols) if symbols is not None else None
    return (schema, rows), out_events


def _seed_csv_bytes(schema, rows):
    """The bytes of the row-by-row write_data_trace (labelled rows)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["ts", "group"] + list(schema) + ["label"])
            for row in rows:
                writer.writerow([str(row.timestamp), row.group]
                                + [repr(float(row.values[n])) for n in schema]
                                + [str(row.label)])
        return path.read_bytes()


def _csv_bytes(trace):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        write_data_trace(path, trace)
        return path.read_bytes()


@settings(max_examples=100, deadline=None)
@given(pattern=st.sampled_from(ATTACK_PATTERNS),
       rate=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32),
       n=st.integers(0, 40), burst_len=st.integers(1, 6),
       with_events=st.booleans(), group=st.sampled_from(GROUPS),
       extra_params=st.integers(0, 15), start_row=st.integers(0, 400))
def test_matrix_generator_matches_row_oracle(pattern, rate, seed, n,
                                             burst_len, with_events, group,
                                             extra_params, start_row):
    config = default_config(extra_params=extra_params, cadence_s=97)
    profile = group_profile(config, group)
    signal = config.signal_names()
    clean, events = gen_normal(config, group, n, seed=seed,
                               start_row=start_row)
    (schema, rows), want_events = _seed_gen_normal(config, group, n, seed,
                                                   start_row)
    assert clean == DataTrace(schema, rows)
    assert clean.to_matrix().tobytes() == \
        DataTrace(schema, rows).to_matrix().tobytes()
    assert events.events == want_events.events
    assert _csv_bytes(clean) == _seed_csv_bytes(schema, rows)

    events = events if with_events else None
    want_events = want_events if with_events else None
    attacked, out = inject_attacks(clean, events, profile, pattern, rate,
                                   seed=seed + 1, signal=signal,
                                   burst_len=burst_len)
    (_, rows), want_out = _seed_inject_attacks(
        schema, rows, want_events, profile, pattern, rate, seed + 1, signal,
        burst_len)
    assert attacked == DataTrace(schema, rows)
    assert _csv_bytes(attacked) == _seed_csv_bytes(schema, rows)
    assert (out is None) == (want_out is None)
    if out is not None:
        assert out.events == want_out.events
    # the input trace is untouched
    assert clean == DataTrace(schema, _seed_gen_normal(
        config, group, n, seed, start_row)[0][1])
