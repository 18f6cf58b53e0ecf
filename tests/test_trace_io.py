"""The trace reader built on numpy's C text reader, and the
column-at-a-time writers, against the row loops they replaced.

``row_loop_parse_data_trace``, ``row_loop_write_data_trace`` and
``row_loop_write_event_trace`` are earlier ``core`` functions, kept
verbatim as references: ``parse_data_trace`` must return their columns
bit for bit, or raise their first error with the same row, and the
writers must write their bytes.
"""

import csv
import math
import operator
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from icn_sentinel.core import (ANOMALOUS, GROUPS, NORMAL, DataTrace,
                               EventTrace, SchemaError, SentinelError,
                               TraceParseError, _check_cells, _is_blank,
                               _open_trace, _parse_lines, _read_header,
                               group_for_timestamp,
                               parse_data_trace, write_data_trace,
                               write_event_trace)
from icn_sentinel.harness import event_chunks


def row_loop_parse_data_trace(path, schema) -> DataTrace:
    schema = tuple(schema)
    if not schema:
        raise SchemaError("no parameter columns in %s" % (path,))
    with _open_trace(path) as fh:
        reader = csv.reader(fh)
        header = _read_header(reader, path)
        for needed in ("ts", "group") + schema:
            if needed not in header:
                raise SchemaError("missing column %r in %s" % (needed, path))
        width = len(header)
        ts_at, group_at = header.index("ts"), header.index("group")
        label_at = header.index("label") if "label" in header else None
        columns = [header.index(name) for name in schema]
        if len(columns) > 1:
            pick = operator.itemgetter(*columns)
        else:
            def pick(rec, at=columns[0]):
                return (rec[at],)

        timestamps, groups, labels, values = [], [], [], []
        for rowno, rec in enumerate(reader, start=1):
            if len(rec) != width:
                if _is_blank(rec):
                    continue
                raise TraceParseError(
                    "parse error at row %d: expected %d cells, got %d"
                    % (rowno, width, len(rec)), row=rowno)
            cell = rec[ts_at]
            try:
                ts = int(float(cell))
            except (ValueError, OverflowError):
                if _is_blank(rec):  # a blank row fails at its ts cell
                    continue
                raise TraceParseError(
                    "parse error at row %d: bad timestamp %r for 'ts'"
                    % (rowno, cell), row=rowno)
            group = rec[group_at].strip() or group_for_timestamp(ts)
            if group not in GROUPS:
                raise TraceParseError(
                    "parse error at row %d: unknown group tag %r"
                    % (rowno, group), row=rowno)
            cells = pick(rec)
            try:
                row = list(map(float, cells))
            except ValueError:
                row = [math.nan]
            # a finite sum means finite cells; a NaN, an infinity or an
            # overflowing sum sends the row through the per-cell check
            if not math.isfinite(sum(row)):
                _check_cells(rowno, cells, schema)
            label = None
            if label_at is not None:
                cell = rec[label_at].strip()
                if cell:
                    try:
                        label = int(cell)
                    except ValueError:
                        label = None
                    if label not in (NORMAL, ANOMALOUS):
                        raise TraceParseError(
                            "parse error at row %d: bad label %r for "
                            "'label' (+1 or -1)" % (rowno, cell), row=rowno)
            timestamps.append(ts)
            groups.append(group)
            labels.append(label)
            values.append(row)
    matrix = np.array(values, dtype=float).reshape(len(values), len(schema))
    return DataTrace._from_columns(schema, tuple(timestamps), tuple(groups),
                                   tuple(labels), matrix)


def row_loop_write_data_trace(path, trace: DataTrace):
    """Write a trace as CSV; floats use repr so a reread is bit-exact."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        labeled = trace.is_labeled()
        header = ["ts", "group"] + list(trace.schema)
        if labeled:
            header.append("label")
        writer.writerow(header)
        for ts, group, values, label in zip(trace.timestamps, trace.groups,
                                            trace._matrix.tolist(),
                                            trace._labels):
            rec = [str(ts), group] + [repr(value) for value in values]
            if labeled:
                rec.append(str(label))
            writer.writerow(rec)


def row_loop_write_event_trace(path, trace: EventTrace):
    with open(path, "w") as fh:
        for event in trace.events:
            fh.write(event + "\n")


# one damaged cell or row of each kind the row loop refuses
DAMAGE = {
    "short": None,
    "ts": ["x", "", "nan", "inf", "1e400", "0x10"],
    "value": ["abc", "", "1.2.3", "nan", " NaN ", "inf", "-inf", "1e400",
              "-1e400", "#1"],
    "group": ["XX", "md", "M D"],
    "label": ["2", "0", "x", "1.0", "+2", "-"],
}

# numbers float() reads, some of which numpy's text reader refuses
ODD_NUMBERS = ["1_0", "1_000.5", "\u0661", "\u0663.\u0665", " 2.5 ",
               "\u20031.5\u2003", "+3.", "-0"]
# cells of the columns outside the schema
EXTRA_CELLS = ["", "note", "#tag", " a b ", "1.5", "\u0661", "x_1", "nan"]
LONG = csv.field_size_limit() + 1
# text numpy's reader must leave to the row loop, or (a lone \r) split
# as csv.reader does; one kind drawn per file
HAZARDS = {
    "nul": lambda cell: cell + "\x00",
    "cr": lambda cell: cell + "\r",
    "quote": lambda cell: '"' + cell,
    "long number": lambda cell: "0." + "0" * LONG + "1",
    "long cell": lambda cell: "9" * LONG,
    "comma": lambda cell: cell + ",",
}


@st.composite
def trace_files(draw):
    """(CSV text, schema): 1-20 parameters, 0-2 columns outside the
    schema and 0-300 rows in a shuffled column order, with or without a
    label column.  Each irregularity the row loop allows is drawn on or
    off for the whole file: blank and whitespace-only lines, empty group
    cells, ``+1``/`` -1 ``/blank labels, quoted cells and numbers only
    ``float()`` reads (``1_0``, non-ASCII digits).  At most one damaged
    row or cell is drawn anywhere, and at most one cell of any column
    gets a hazard for the text reader: a NUL, a lone ``\\r``, a ``"``, a
    cell longer than ``csv.field_size_limit()`` or a trailing comma."""
    k = draw(st.integers(1, 20))
    n = draw(st.integers(0, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    names = ["p%d" % i for i in range(k)]
    schema = tuple(draw(st.permutations(names)))
    extras = ["x%d" % i for i in range(draw(st.integers(0, 2)))]
    labeled = draw(st.booleans())
    header = ["ts", "group", *names, *extras] + (["label"] if labeled else [])
    header = draw(st.permutations(header))
    blank_lines, empty_groups, odd_labels, quoted, odd_numbers = (
        draw(st.booleans()) for _ in range(5))

    scale = 10.0 ** rng.integers(-6, 7, size=k)
    values = rng.normal(size=(n, k)) * scale
    cells = {"ts": [str(t) for t in rng.integers(-10 ** 6, 10 ** 8, size=n)],
             "group": [GROUPS[g] for g in rng.integers(0, 4, size=n)],
             "label": [("1", "-1")[b] for b in rng.integers(0, 2, size=n)]}
    for j, name in enumerate(names):
        cells[name] = [repr(v) for v in values[:, j].tolist()]
    for name in extras:
        cells[name] = rng.choice(EXTRA_CELLS, size=n).tolist()
    # short decimal forms float() reads too
    for j in rng.integers(0, k, size=min(n, 5)):
        cells[names[j]][rng.integers(n)] = "%.6g" % values[0, j]
    if odd_numbers:
        for name in rng.choice(["ts", *names], size=min(n, 3)):
            cells[name][rng.integers(n)] = rng.choice(ODD_NUMBERS)
    if empty_groups:
        for i in rng.integers(0, n, size=n // 4 + 1) if n else ():
            cells["group"][i] = rng.choice(["", " "])
    if odd_labels:
        for i in rng.integers(0, n, size=n // 4 + 1) if n else ():
            cells["label"][i] = rng.choice(["+1", " -1 ", "", " 1"])
    records = [[cells[c][i] for c in header] for i in range(n)]
    if quoted and n:
        for i in rng.integers(0, n, size=n // 4 + 1):
            j = int(rng.integers(len(header)))
            records[i][j] = '"%s"' % records[i][j]

    fault = draw(st.sampled_from([None, *DAMAGE]))
    if fault == "label" and not labeled:
        fault = None
    if fault and n:
        rec = records[draw(st.integers(0, n - 1))]
        if fault == "short":
            rec.pop()
        else:
            name = draw(st.sampled_from(names)) if fault == "value" else fault
            rec[header.index(name)] = draw(st.sampled_from(DAMAGE[fault]))
    hazard = draw(st.sampled_from([None, *HAZARDS]))
    if hazard and n:
        rec = records[draw(st.integers(0, n - 1))]
        j = draw(st.integers(0, len(rec) - 1))
        rec[j] = HAZARDS[hazard](rec[j])

    lines = [",".join(header)] + [",".join(rec) for rec in records]
    if blank_lines:
        for _ in range(draw(st.integers(1, 3))):
            lines.insert(draw(st.integers(1, len(lines))),
                         draw(st.sampled_from(["", " ", "\t", ",",
                                               " , , "])))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + newline * draw(st.integers(0, 1)), schema


def outcome(parse, path, schema):
    """The parsed columns, or the error's class, message and row."""
    try:
        trace = parse(path, schema)
    except SentinelError as exc:
        return ("error", type(exc), str(exc), getattr(exc, "row", None))
    matrix = trace._matrix
    return ("trace", trace.timestamps, trace.groups, trace._labels,
            matrix.shape, matrix.flags.c_contiguous, matrix.tobytes())


def file_bytes(write, trace):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out"
        write(path, trace)
        return path.read_bytes()


@settings(max_examples=200, deadline=None)
@given(trace_files())
def test_text_reader_matches_the_row_loop(case):
    text, schema = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        path.write_text(text, newline="")
        got = outcome(parse_data_trace, path, schema)
        assert got == outcome(row_loop_parse_data_trace, path, schema)
        if got[0] == "error":
            return
        trace = parse_data_trace(path, schema)
    assert file_bytes(write_data_trace, trace) == \
        file_bytes(row_loop_write_data_trace, trace)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 20), st.integers(0, 300), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_writers_match_the_row_loops(k, n, labeled, seed):
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(n, k)) * 10.0 ** rng.integers(-300, 300, size=k)
    matrix[rng.random(size=(n, k)) < 0.05] = -0.0
    labels = tuple(rng.choice([NORMAL, ANOMALOUS], size=n).tolist()) \
        if labeled else (None,) * n
    trace = DataTrace._from_columns(
        tuple("p%d" % i for i in range(k)),
        tuple(rng.integers(-2 ** 53, 2 ** 53, size=n).tolist()),
        tuple(rng.choice(GROUPS, size=n).tolist()), labels, matrix)
    assert file_bytes(write_data_trace, trace) == \
        file_bytes(row_loop_write_data_trace, trace)
    events = EventTrace._of(tuple(rng.choice(["A", "BB", "C9"],
                                             size=n * k).tolist()))
    assert file_bytes(write_event_trace, events) == \
        file_bytes(row_loop_write_event_trace, events)
    windows = event_chunks(events, k)
    assert [w.events for w in windows] == \
        [events.events[i:i + k] for i in range(0, n * k, k)]
    assert all(type(w) is EventTrace for w in windows)


CLEAN = ("ts,group,a,x,b,label\r\n60,MD,1.5,note,-2.25,1\r\n"
         "21700,AD,0.1,,3e-05,-1\r\n43300,ED,7,#tag,8.5,\r\n")
# CLEAN's layout: schema, width, ts, group and label positions, columns
LAYOUT = (("a", "b"), 6, 0, 1, 5, [2, 4])


def data_lines(path):
    """The lines after a one-line header, split as csv.reader sees them."""
    with open(path, newline="") as fh:
        return list(fh)[1:]


@pytest.mark.parametrize("old, new", [
    ("\r\n", "\r\n"), ("\r\n", "\n"), ("\r\n", "\r"), ("\r\n21700", "\r21700"),
])
def test_the_text_reader_splits_lines_as_csv_does(tmp_path, old, new):
    path = tmp_path / "trace.csv"
    path.write_text(CLEAN.replace(old, new), newline="")
    got = outcome(parse_data_trace, path, ("a", "b"))
    assert got == outcome(row_loop_parse_data_trace, path, ("a", "b"))
    assert got[0] == "trace" and got[4] == (3, 2)
    assert _parse_lines(data_lines(path), *LAYOUT) == \
        parse_data_trace(path, ("a", "b"))


@pytest.mark.parametrize("old, new", [
    ("MD", "MD\x00"), ("note", "no\x00te"), ("\r\n21700", "\r\n\r\n21700"),
    ("\r\n21700", "\r\n \r\n21700"), ("\r\n21700", "\r\n\r21700"),
    ("0.1,", "0.1\r,"), ("note", '"note'), ("note", 'no"te'),
    ("note", "x" * LONG), ("1.5", "1.5" + "0" * LONG), ("1.5", "1_5"),
    ("60,", "\u0666\u0660,"), ("1.5", "#1.5"), (",1\r\n", ",1,\r\n"),
    ("1.5", "nan"), ("60,", "inf,"), ("AD", ""), (",-1\r\n", ",2\r\n"),
])
def test_the_row_loop_reads_each_hazard(tmp_path, old, new):
    """numpy's text reader leaves each variant of CLEAN to the row loop,
    which reads it as the reference does."""
    path = tmp_path / "trace.csv"
    path.write_text(CLEAN.replace(old, new, 1), newline="")
    assert _parse_lines(data_lines(path), *LAYOUT) is None
    assert outcome(parse_data_trace, path, ("a", "b")) == \
        outcome(row_loop_parse_data_trace, path, ("a", "b"))


@pytest.mark.parametrize("body", ["", "\r\n", "\n\r\n\r"])
def test_a_file_without_rows_warns_nothing(tmp_path, body):
    """numpy warns on text with no data; such a file never reaches it."""
    path = tmp_path / "trace.csv"
    path.write_text(CLEAN.split("\r\n", 1)[0] + "\r\n" + body, newline="")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _parse_lines(data_lines(path), *LAYOUT) is None
        got = outcome(parse_data_trace, path, ("a", "b"))
    assert got == outcome(row_loop_parse_data_trace, path, ("a", "b"))
    assert got[4] == (0, 2)


def test_writers_quote_the_header_as_csv(tmp_path):
    trace = DataTrace._from_columns(("a,b", 'q"'), (0,), ("MD",), (None,),
                                    np.array([[1.5, -0.0]]))
    assert file_bytes(write_data_trace, trace) == \
        file_bytes(row_loop_write_data_trace, trace) == \
        b'ts,group,"a,b","q"""\r\n0,MD,1.5,-0.0\r\n'
    empty = EventTrace._of(())
    assert file_bytes(write_event_trace, empty) == b""


@pytest.mark.parametrize("bad_row_first", [True, False])
def test_an_unreadable_line_keeps_its_place_in_row_order(tmp_path,
                                                         bad_row_first):
    """A bad row before an over-long cell or an undecodable byte is
    reported first, and after it the unreadable line is."""
    good, bad = "60,MD,1.5\n", "60,MD,abc\n"
    rows = [good] * 3000
    bad_at = 3 if bad_row_first else 2500
    rows[bad_at] = bad
    long_cell = "9" * (csv.field_size_limit() + 1)
    for name, unreadable in (("long", ("60,MD,%s\n" % long_cell).encode()),
                             ("bytes", b"60,MD,\xff\xfe\n")):
        path = tmp_path / ("%s.csv" % name)
        # the unreadable line sits between rows 2000 and 2001, past the
        # text decoder's first chunks
        path.write_bytes(("ts,group,a\n" + "".join(rows[:2000])).encode()
                         + unreadable + "".join(rows[2000:]).encode())
        got = outcome(parse_data_trace, path, ("a",))
        assert got == outcome(row_loop_parse_data_trace, path, ("a",))
        assert got[0] == "error"
        if bad_row_first:
            assert got[1] is TraceParseError and got[3] == bad_at + 1
        else:
            assert got[3] != bad_at + 1
