import csv
import itertools
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from icn_sentinel.core import (ANOMALOUS, GROUPS, NORMAL, ConfigError,
                               DataRow, DataTrace, EventTrace, ParameterSpec,
                               SchemaError, SensitivityDegree, SentinelError,
                               TraceParseError, _open_trace, derive_seed,
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


@pytest.mark.parametrize("field", ["psi", "mu", "delta", "p_th"])
@pytest.mark.parametrize("value", [True, 10 ** 400, "500"],
                         ids=["bool", "beyond-float", "string"])
def test_parameter_spec_refuses_what_is_not_a_finite_number(field, value):
    # a bool passed as a limit, and an int beyond float range ended in a
    # bare OverflowError, where the profile reader refused both
    values = dict(psi=500.0, mu=334.17, delta=0.33166, p_th=445.0)
    values[field] = value
    with pytest.raises(ConfigError, match="non-finite %s for 'FGF'" % field):
        ParameterSpec("FGF", **values)


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


def test_repeated_column_is_rejected(tmp_path):
    # the second 'a' used to be dropped: both matrix columns held the first
    path = tmp_path / "t.csv"
    for header in ("ts,group,a,a,label", "ts,group,a, a ,label",
                   "ts,group,a,label,label", "ts,ts,group,a,label"):
        path.write_text(header + "\n0,MD,1.0,2.0,1\n")
        name = header.split(",")[-1] if header.endswith("label,label") \
            else "ts" if header.startswith("ts,ts") else "a"
        for read in (infer_schema, lambda p: parse_data_trace(p, ("a",))):
            with pytest.raises(SchemaError) as err:
                read(path)
            assert "repeated column %r" % name in str(err.value)
            assert "t.csv" in str(err.value)
    with pytest.raises(SchemaError, match="repeated parameter 'a'"):
        DataTrace(("a", "b", "a"), [])


def test_empty_trace_columns():
    trace = DataTrace(("a", "b"), [])
    assert trace.to_matrix().shape == (0, 2)
    assert trace.to_matrix(["b"]).shape == (0, 1)
    assert trace.timestamps == trace.groups == () and trace.is_labeled()
    assert list(trace.labels()) == []


def test_trace_is_read_only(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("ts,group,a,b\n0,MD,1.0,2.0\n60,MD,3.0,4.0\n")
    trace = parse_data_trace(path, ("a", "b"))
    with pytest.raises(AttributeError):
        trace.schema = ("b", "a")
    x = trace.to_matrix()
    assert x.flags.c_contiguous and x.flags.writeable
    x[0, 0] = 99.0  # a fresh copy: the trace keeps its values
    assert trace.to_matrix()[0, 0] == 1.0
    assert trace.rows[0].values == {"a": 1.0, "b": 2.0}


def _seed_parse_data_trace(path, schema):
    """The row-by-row parser that parse_data_trace replaced, kept as an
    oracle: the DataRows of a data CSV, or its first parse error."""
    schema = tuple(schema)
    with _open_trace(path) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TraceParseError("empty file: %s" % path)
        header = [h.strip() for h in header]
        for needed in ("ts", "group") + schema:
            if needed not in header:
                raise SchemaError("missing column %r in %s" % (needed, path))
        idx = {name: header.index(name) for name in header}
        has_label = "label" in header

        rows = []
        for rowno, rec in enumerate(reader, start=1):
            if not rec or all(not cell.strip() for cell in rec):
                continue
            if len(rec) != len(header):
                raise TraceParseError(
                    "parse error at row %d: expected %d cells, got %d"
                    % (rowno, len(header), len(rec)), row=rowno)
            try:
                ts = int(float(rec[idx["ts"]]))
            except (ValueError, OverflowError):
                raise TraceParseError(
                    "parse error at row %d: bad timestamp %r for 'ts'"
                    % (rowno, rec[idx["ts"]]), row=rowno)
            group = rec[idx["group"]].strip()
            if not group:
                group = group_for_timestamp(ts)
            if group not in GROUPS:
                raise TraceParseError(
                    "parse error at row %d: unknown group tag %r"
                    % (rowno, group), row=rowno)
            values = {}
            for name in schema:
                cell = rec[idx[name]]
                try:
                    values[name] = float(cell)
                except ValueError:
                    raise TraceParseError(
                        "parse error at row %d: non-numeric %r for %r"
                        % (rowno, cell, name), row=rowno)
                if not math.isfinite(values[name]):
                    raise TraceParseError(
                        "parse error at row %d: non-finite %r for %r"
                        % (rowno, cell, name), row=rowno)
            label = None
            if has_label:
                cell = rec[idx["label"]].strip()
                if cell:
                    try:
                        label = int(cell)
                    except ValueError:
                        label = None
                    if label not in (NORMAL, ANOMALOUS):
                        raise TraceParseError(
                            "parse error at row %d: bad label %r for 'label' "
                            "(+1 or -1)" % (rowno, cell), row=rowno)
            rows.append(DataRow(ts, group, values, label))
    return rows


TS_CELLS = st.one_of(st.integers(-10 ** 6, 10 ** 7).map(str),
                     st.sampled_from(["25200.9", " 120 ", "1e3", "-0",
                                      "1e30", "1_000"]))
GROUP_CELLS = st.sampled_from(list(GROUPS) + ["", " ", " ND "])
VALUE_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10 ** 20, 10 ** 20).map(str),
    st.sampled_from(["-0.0", " 2.5 ", "1e308", "-1.7976931348623157e308",
                     "5e-324", "1_0.5", "0"]))
LABEL_CELLS = st.sampled_from(["1", "-1", "", " ", "+1", " -1 ", "01"])
# one malformed cell of each kind; "count" drops or adds a cell
FAULTS = {
    "ts": st.sampled_from(["x", "", "inf", "-inf", "nan", "1e999", "0x10"]),
    "group": st.sampled_from(["XX", "md", "M D"]),
    "value": st.sampled_from(["abc", "", " ", "1.2.3", "0x10", "1e"]),
    "nonfinite": st.sampled_from(["nan", "inf", "-inf", "1e999", " NaN ",
                                  "-Infinity"]),
    "label": st.sampled_from(["2", "0", "x", "1.0", "+2", "-"]),
}
BLANK_LINES = st.sampled_from(["", "  ", "\t", ",", ", ,", " , , , "])


@st.composite
def data_csv_texts(draw):
    """(CSV text, schema): a header with free column order, an optional
    label column and a column outside the schema, rows mixing labelled and
    unlabelled cells and empty group cells, blank and whitespace-only
    lines, and at most one malformed cell (or a row with a wrong cell
    count) anywhere."""
    schema = draw(st.sampled_from([("a",), ("b", "a"), ("a", "b", "c")]))
    columns = ["ts", "group", *schema]
    if draw(st.booleans()):
        columns.append("label")
    if draw(st.booleans()):
        columns.append("note")
    columns = draw(st.permutations(columns))
    records = []
    for _ in range(draw(st.integers(0, 6))):
        cells = {"ts": draw(TS_CELLS), "group": draw(GROUP_CELLS),
                 "label": draw(LABEL_CELLS),
                 "note": draw(st.sampled_from(["", "x", "1"]))}
        cells.update((name, draw(VALUE_CELLS)) for name in schema)
        records.append([cells[c] for c in columns])
    fault = draw(st.sampled_from([None, "count", *FAULTS]))
    if fault == "label" and "label" not in columns:
        fault = None
    if fault and records:
        rec = records[draw(st.integers(0, len(records) - 1))]
        if fault == "count":
            if draw(st.booleans()):
                rec.pop()
            else:
                rec.append(draw(VALUE_CELLS))
        else:
            name = draw(st.sampled_from(schema)) \
                if fault in ("value", "nonfinite") else fault
            rec[columns.index(name)] = draw(FAULTS[fault])
    lines = [",".join(columns)] + [",".join(rec) for rec in records]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(1, len(lines))), draw(BLANK_LINES))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + newline * draw(st.integers(0, 1)), schema


def _outcome(parse, path, schema):
    try:
        return parse(path, schema), None
    except SentinelError as exc:
        return None, (type(exc), str(exc), getattr(exc, "row", None))


def _seed_matrix(rows, names):
    """The list-of-lists matrix build that to_matrix replaced."""
    return np.array([[row.values[n] for n in names] for row in rows],
                    dtype=float)


@settings(max_examples=400, deadline=None)
@given(data_csv_texts())
def test_parse_matches_row_parser_oracle(case):
    text, schema = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        path.write_text(text, newline="")
        trace, error = _outcome(parse_data_trace, path, schema)
        rows, want_error = _outcome(_seed_parse_data_trace, path, schema)
    assert error == want_error
    if error is not None:
        return
    assert trace.timestamps == tuple(r.timestamp for r in rows)
    assert trace.groups == tuple(r.group for r in rows)
    assert trace._labels == tuple(r.label for r in rows)
    got = trace.to_matrix()
    want = _seed_matrix(rows, schema).reshape(len(rows), len(schema))
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert trace.rows == tuple(rows)
    assert trace == DataTrace(schema, rows)


@st.composite
def row_traces(draw):
    """(schema, rows) of at least one row, all labelled or none."""
    schema = draw(st.sampled_from([("a",), ("b", "a"), ("c", "a", "b", "d")]))
    labelled = draw(st.booleans())
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        values = {name: draw(st.floats(allow_nan=False, allow_infinity=False))
                  for name in schema}
        label = draw(st.sampled_from([NORMAL, ANOMALOUS])) if labelled \
            else None
        rows.append(DataRow(draw(st.integers(-2 ** 53, 2 ** 53)),
                            draw(st.sampled_from(GROUPS)), values, label))
    return schema, rows


@settings(max_examples=150, deadline=None)
@given(row_traces())
def test_trace_round_trips(case):
    schema, rows = case
    built = DataTrace(schema, rows)
    # the rows become columns at once; ``rows`` is a view built on first use
    assert "rows" not in vars(built)
    assert built.timestamps == tuple(r.timestamp for r in rows)
    assert built.rows == tuple(rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        write_data_trace(path, built)
        parsed = parse_data_trace(path, schema)
    assert parsed == built and DataTrace(schema, parsed.rows) == parsed
    assert parsed.rows == built.rows
    assert parsed.to_matrix().tobytes() == built.to_matrix().tobytes()
    # every feature subset, named in any order, in schema order
    for k in range(1, len(schema) + 1):
        for subset in itertools.combinations(schema, k):
            want = _seed_matrix(rows, subset)
            for trace in (built, parsed):
                got = trace.to_matrix(subset[::-1])
                assert got.flags.c_contiguous
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(row_traces(), st.data())
def test_take_matches_the_picked_rows(case, data):
    schema, rows = case
    trace = DataTrace(schema, rows)
    indices = data.draw(st.lists(st.integers(-len(rows), len(rows) - 1),
                                 max_size=8))
    picked = [rows[i] for i in indices]
    taken = trace.take(indices)
    assert taken == DataTrace(schema, picked)
    assert taken.rows == tuple(picked)
    want = _seed_matrix(picked, schema).reshape(len(picked), len(schema))
    assert taken.to_matrix().tobytes() == want.tobytes()
    with pytest.raises(AttributeError):
        taken.schema = schema


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


def test_star_import_binds_every_exported_name():
    import icn_sentinel
    namespace = {}
    exec("from icn_sentinel import *", namespace)
    assert [n for n in icn_sentinel.__all__ if n not in namespace] == []
