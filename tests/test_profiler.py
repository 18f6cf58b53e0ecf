import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from icn_sentinel.core import (ConfigError, DataRow, DataTrace,
                               InsufficientDataError, ParameterSpec,
                               SchemaError)
from icn_sentinel.profiler import (ThresholdProfile, build_profile,
                                   compute_threshold, count_compromised,
                                   invert_threshold, trim_mean)

# published per-parameter limits and thresholds used across tests
LIMITS = {"FGF": 500.0, "MSV": 45.0, "GBV": 5.0, "EGT": 560.0,
          "Power": 1120.0}
THRESHOLDS = {"FGF": 445.0, "MSV": 18.75, "GBV": 2.50, "EGT": 532.0,
              "Power": 1032.0}


def reference_profile():
    params = {}
    for name, psi in LIMITS.items():
        mu = invert_threshold(psi, THRESHOLDS[name])
        delta, p_th = compute_threshold(psi, mu)
        params[name] = ParameterSpec(name, psi, mu, delta, p_th)
    return ThresholdProfile(params)


def test_trim_mean_hand_cases():
    assert trim_mean([5, 5, 5, 5], 0.1) == 5.0
    assert trim_mean([0, 1, 2, 3, 100], 0.2) == 2.0
    base = trim_mean(list(range(1, 11)), 0.1)
    corrupted = trim_mean(list(range(1, 10)) + [10000], 0.1)
    assert base == corrupted == 5.5


def test_trim_mean_corruption_invariance():
    rng = np.random.default_rng(2)
    values = list(rng.normal(50.0, 3.0, size=40))
    k = int(0.1 * len(values))
    clean = trim_mean(values, 0.1)
    wrecked = sorted(values)
    wrecked[:k] = [-1e9] * k
    wrecked[-k:] = [1e9] * k
    assert trim_mean(wrecked, 0.1) == pytest.approx(clean)


def test_trim_mean_errors():
    with pytest.raises(InsufficientDataError):
        trim_mean([], 0.1)
    with pytest.raises(ConfigError):
        trim_mean([1.0, 2.0], 0.5)
    with pytest.raises(ConfigError):
        trim_mean([1.0], -0.1)


def test_compute_threshold_formula():
    delta, p_th = compute_threshold(5.0, 1.4645)
    assert delta == pytest.approx((5.0 - 1.4645) / 5.0)
    assert p_th == pytest.approx(2.50, abs=0.01)
    delta, p_th = compute_threshold(500.0, 334.17)
    assert p_th == pytest.approx(445.0, abs=0.5)
    assert compute_threshold(100.0, 100.0) == (0.0, 100.0)
    assert compute_threshold(100.0, 0.0) == (1.0, 0.0)
    with pytest.raises(ConfigError):
        compute_threshold(0.0, 1.0)


def test_threshold_monotone_in_mu():
    last = -1.0
    for mu in np.linspace(0.0, 499.0, 60):
        _, p_th = compute_threshold(500.0, float(mu))
        assert p_th > last
        last = p_th
    # mu stays inside [mu, psi]
    for mu in (0.0, 123.4, 500.0):
        _, p_th = compute_threshold(500.0, mu)
        assert mu <= p_th <= 500.0 + 1e-9


def test_invert_threshold_roundtrip():
    for name, psi in LIMITS.items():
        mu = invert_threshold(psi, THRESHOLDS[name])
        _, p_th = compute_threshold(psi, mu)
        assert p_th == pytest.approx(THRESHOLDS[name], abs=0.5)
        # the smaller quadratic root is the physical one
        assert 0.0 <= mu <= psi


def _trace(values_by_row, name="FGF"):
    rows = [DataRow(60 * i + 21600, "MD", {name: float(v)}, None)
            for i, v in enumerate(values_by_row)]
    return DataTrace((name,), rows)


def test_build_profile_constant_column():
    profile = build_profile(_trace([1.4645] * 30, "GBV"), {"GBV": 5.0})
    spec = profile.spec("GBV")
    assert spec.mu == pytest.approx(1.4645)
    assert spec.p_th == pytest.approx(2.50, abs=0.01)


def test_build_profile_four_samples():
    # small-n case: floor(0.1 * 4) = 0 values trimmed per end
    profile = build_profile(_trace([329, 319, 362, 371]), {"FGF": 500.0})
    spec = profile.spec("FGF")
    assert spec.mu == pytest.approx(345.25)
    assert spec.p_th == pytest.approx(345.25 * (2 - 345.25 / 500.0))
    assert spec.p_th == pytest.approx(452.104875)


def test_build_profile_single_row():
    profile = build_profile(_trace([333.0]), {"FGF": 500.0})
    assert profile.spec("FGF").mu == 333.0


def test_build_profile_window_is_most_recent():
    # the window is the last 1440 rows; 10 % of it is 144 rows a side
    values = [100.0] * 500 + [200.0] * 1440
    profile = build_profile(_trace(values), {"FGF": 500.0})
    assert profile.spec("FGF").mu == 200.0
    # 145 low rows inside the window are one more than trimming drops
    values = [100.0] * 500 + [0.0] * 145 + [200.0] * 1295
    profile = build_profile(_trace(values), {"FGF": 500.0})
    assert profile.spec("FGF").mu == (200.0 * 1151) / 1152


def _seed_build_profile(schema, rows, limits, trim_fraction, window_len):
    """The per-row column build that build_profile replaced: each
    parameter's recent readings gathered from the rows into a list."""
    recent = rows[-window_len:]
    params = {}
    for name in schema:
        mu = trim_mean([row.values[name] for row in recent], trim_fraction)
        delta, p_th = compute_threshold(limits[name], mu)
        params[name] = ParameterSpec(name, float(limits[name]), mu, delta,
                                     p_th)
    return params


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_build_profile_matches_per_row_columns(data):
    schema = data.draw(st.sampled_from([("FGF",), ("MSV", "FGF"),
                                        ("a", "b", "c", "d", "e")]))
    # short traces, and traces about as long as the window
    n = data.draw(st.integers(1, 60) | st.integers(1430, 1460))
    # readings drawn from a small pool, so long traces stay cheap to draw
    pool = data.draw(st.lists(st.floats(0.0, 500.0), min_size=1,
                              max_size=12))
    picks = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))) \
        .integers(len(pool), size=(n, len(schema))).tolist()
    rows = [DataRow(60 * i, "MD",
                    {name: pool[k] for name, k in zip(schema, picks[i])},
                    None) for i in range(n)]
    limits = {name: 500.0 for name in schema}
    profile = build_profile(DataTrace(schema, rows), limits)
    assert profile.parameters == _seed_build_profile(schema, rows, limits,
                                                     0.1, 1440)


def test_build_profile_missing_limit():
    with pytest.raises(SchemaError):
        build_profile(_trace([1.0]), {})


def test_count_compromised_published_rows():
    profile = reference_profile()
    features = tuple(LIMITS)

    def row(fgf, msv, gbv, egt, power):
        values = dict(zip(features, (fgf, msv, gbv, egt, power)))
        return DataRow(0, "MD", values, None)

    assert count_compromised(row(484, 12.636, 1.365, 470, 884),
                             profile, features) == 1
    assert count_compromised(row(474, 10.998, 1.425, 547, 1078),
                             profile, features) == 3
    assert count_compromised(row(447, 23.51, 4.56, 557, 1103),
                             profile, features) == 5
    assert count_compromised(row(329, 10.51, 1.43, 469, 918),
                             profile, features) == 0


def test_count_compromised_strict_exceedance():
    profile = reference_profile()
    p_th = profile.spec("FGF").p_th
    at = DataRow(0, "MD", {"FGF": p_th, "MSV": 1, "GBV": 1, "EGT": 1,
                           "Power": 1}, None)
    above = DataRow(0, "MD", {"FGF": math.nextafter(p_th, math.inf),
                              "MSV": 1, "GBV": 1, "EGT": 1, "Power": 1}, None)
    assert count_compromised(at, profile, ("FGF",)) == 0
    assert count_compromised(above, profile, ("FGF",)) == 1


def test_count_compromised_monotone():
    profile = reference_profile()
    features = tuple(LIMITS)
    rng = np.random.default_rng(9)
    for _ in range(50):
        values = {n: float(rng.uniform(0, LIMITS[n])) for n in features}
        base = count_compromised(DataRow(0, "MD", values, None),
                                 profile, features)
        name = str(rng.choice(list(features)))
        raised = dict(values)
        raised[name] = LIMITS[name]
        bumped = count_compromised(DataRow(0, "MD", raised, None),
                                   profile, features)
        assert bumped >= base


def test_profile_roundtrip(tmp_path):
    profile = reference_profile()
    path = tmp_path / "profile.json"
    profile.save(path)
    back = ThresholdProfile.load(path)
    assert back == profile
    assert sorted(back.parameters) == sorted(LIMITS)
    assert back.threshold("FGF") == profile.spec("FGF").p_th
