import numpy as np
import pytest

from icn_sentinel.core import (ConfigError, DataRow, DataTrace, EventTrace,
                               ParameterSpec, SchemaError, SensitivityDegree,
                               TraceParseError, derive_seed,
                               group_for_timestamp, infer_schema,
                               parse_data_trace, parse_event_trace,
                               write_data_trace, write_event_trace)


def test_group_buckets():
    hour = 3600
    assert group_for_timestamp(0) == "ND"
    assert group_for_timestamp(6 * hour - 1) == "ND"
    assert group_for_timestamp(6 * hour) == "MD"
    assert group_for_timestamp(12 * hour) == "AD"
    assert group_for_timestamp(18 * hour) == "ED"
    assert group_for_timestamp(24 * hour) == "ND"
    # wraps across days
    assert group_for_timestamp(86400 + 7 * hour) == "MD"


def test_derive_seed_distinct_and_stable():
    a = derive_seed(0, "MD", "train")
    assert a == derive_seed(0, "MD", "train")
    assert a != derive_seed(0, "MD", "test")
    assert a != derive_seed(1, "MD", "train")
    assert a != derive_seed(0, "AD", "train")
    assert 0 <= a < 2 ** 63


def test_data_row_validation():
    with pytest.raises(SchemaError):
        DataRow(0, "XX", {"a": 1.0}, 1)
    with pytest.raises(ConfigError):
        DataRow(0, "MD", {"a": float("nan")}, 1)
    with pytest.raises(ConfigError):
        DataRow(0, "MD", {"a": 1.0}, 2)
    row = DataRow(0, "MD", {"a": 1.0}, None)
    assert row.label is None


def test_trace_matrix_order():
    rows = [DataRow(0, "MD", {"a": 1.0, "b": 2.0}, 1),
            DataRow(60, "MD", {"a": 3.0, "b": 4.0}, -1)]
    trace = DataTrace(("a", "b"), rows)
    assert np.array_equal(trace.to_matrix(), [[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(trace.to_matrix(["b"]), [[2.0], [4.0]])
    assert list(trace.labels()) == [1, -1]
    assert trace.is_labeled()
    assert len(trace) == 2


def test_trace_schema_mismatch():
    with pytest.raises(SchemaError):
        DataTrace(("a", "b"), [DataRow(0, "MD", {"a": 1.0}, 1)])


def test_sensitivity_required_counts():
    assert SensitivityDegree(20).required_count(5) == 5
    assert SensitivityDegree(60).required_count(5) == 3
    assert SensitivityDegree(100).required_count(5) == 1
    # clamped into [1, n]
    assert SensitivityDegree(60).required_count(2) == 2
    assert SensitivityDegree(100).required_count(1) == 1
    with pytest.raises(Exception):
        SensitivityDegree(50)


def test_parameter_spec_validation():
    ParameterSpec("FGF", 500.0, 334.17, 0.33166, 445.0)
    with pytest.raises(ConfigError):
        ParameterSpec("FGF", -1.0, 334.17, 0.33166, 445.0)
    with pytest.raises(ConfigError):
        ParameterSpec("FGF", 500.0, 334.17, 0.33166, 300.0)  # p_th below mu


def test_parse_single_row(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("ts,group,FGF,MSV,GBV,EGT,Power\n"
                    "0,MD,329,10.51,1.43,469,918\n")
    schema = ("FGF", "MSV", "GBV", "EGT", "Power")
    trace = parse_data_trace(path, schema)
    assert len(trace) == 1
    assert trace.rows[0].values["FGF"] == 329.0
    assert trace.rows[0].group == "MD"
    assert not trace.is_labeled()


def test_parse_header_only(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("ts,group,a\n")
    trace = parse_data_trace(path, ("a",))
    assert len(trace) == 0


def test_parse_bad_cell_reports_row(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("ts,group,a\n0,MD,abc\n")
    with pytest.raises(TraceParseError) as err:
        parse_data_trace(path, ("a",))
    assert "1" in str(err.value)
    # the bad cell sits in data row 2: an infinite timestamp, a non-finite
    # reading, a label other than +1/-1
    for second, column in (("inf,MD,1.0,1", "'ts'"), ("60,MD,nan,1", "'a'"),
                           ("60,MD,-inf,1", "'a'"), ("60,MD,1.0,2", "'label'")):
        path.write_text("ts,group,a,label\n0,MD,1.0,1\n%s\n" % second)
        with pytest.raises(TraceParseError) as err:
            parse_data_trace(path, ("a",))
        assert err.value.row == 2
        assert "row 2" in str(err.value) and column in str(err.value)


def test_parse_missing_column_named(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("ts,group,a\n0,MD,1\n")
    with pytest.raises(SchemaError) as err:
        parse_data_trace(path, ("a", "b"))
    assert "b" in str(err.value)


def test_parse_group_fallback_from_timestamp(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("ts,group,a\n25200,,1.5\n")
    trace = parse_data_trace(path, ("a",))
    assert trace.rows[0].group == "MD"


def test_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(5)
    rows = [DataRow(60 * i + 21600, "MD",
                    {"a": round(float(v), 6), "b": float(w)},
                    1 if i % 3 else -1)
            for i, (v, w) in enumerate(rng.normal(size=(40, 2)))]
    trace = DataTrace(("a", "b"), rows)
    path = tmp_path / "t.csv"
    write_data_trace(path, trace)
    back = parse_data_trace(path, ("a", "b"))
    assert back == trace
    # a second write is byte-identical
    path2 = tmp_path / "u.csv"
    write_data_trace(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_infer_schema(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("ts,group,FGF,Power,label\n")
    assert infer_schema(path) == ("FGF", "Power")


def test_event_trace_roundtrip(tmp_path):
    trace = EventTrace(tuple("ABCAB"))
    path = tmp_path / "e.events"
    write_event_trace(path, trace)
    assert parse_event_trace(path).events == trace.events
    # blank lines are ignored
    path.write_text("A\n\nB\n\nC\n")
    assert parse_event_trace(path).events == ("A", "B", "C")


def test_event_trace_ops():
    trace = EventTrace(tuple("ABAB"))
    assert len(trace) == 4
    assert trace.alphabet() == {"A", "B"}
    assert trace.slice(1, 3).events == ("B", "A")


def test_star_import_binds_every_exported_name():
    import icn_sentinel
    namespace = {}
    exec("from icn_sentinel import *", namespace)
    assert [n for n in icn_sentinel.__all__ if n not in namespace] == []
