"""Shared domain types, trace I/O and the JSON artifact format.

Sensor data is a timestamped table of per-parameter readings tagged with a
time-of-day demand group; event data is a flat sequence of symbols.  Labels,
when present, use +1 for normal rows and -1 for anomalous ones.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import numbers
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

GROUPS = ("MD", "AD", "ED", "ND")

# Demand-group time-of-day buckets, keyed by starting hour of a 6 h interval.
GROUP_HOURS = {"MD": 6, "AD": 12, "ED": 18, "ND": 0}

NORMAL = 1
ANOMALOUS = -1


class SentinelError(Exception):
    """Base class for every error raised by this package."""


class SchemaError(SentinelError):
    """A required column, parameter, group tag or artifact key is missing,
    unknown or malformed."""


class TraceParseError(SentinelError):
    """A trace file is malformed; ``row`` is the 1-based data row index."""

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class ConfigError(SentinelError):
    """A configuration value is out of its documented range."""


class DegenerateDataError(SentinelError):
    """Labeled training data does not contain both classes."""


class InsufficientDataError(SentinelError):
    """Not enough samples for the requested statistic."""


class EventNotFoundError(SentinelError):
    """The requested event type does not occur in the trace."""


class MetricError(SentinelError):
    """A rate metric was requested with an empty denominator."""


def is_finite_number(value) -> bool:
    """True for an int or float from a JSON artifact (not a bool) that is a
    finite float; an int beyond float range is not."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def is_name_list(value) -> bool:
    """True for a JSON artifact's non-empty list of distinct strings."""
    return isinstance(value, list) and bool(value) \
        and all(isinstance(n, str) for n in value) \
        and len(set(value)) == len(value)


def json_float(value, key, convert=float):
    """``convert(value)`` for a number, or nested lists of numbers, read from
    a JSON artifact.  A string or boolean anywhere in it, which ``float``
    would read as a number, and an integer beyond float range raise
    SchemaError naming ``key``."""
    pending = [value]
    while pending:
        item = pending.pop()
        if isinstance(item, list):
            pending += item
        elif isinstance(item, (str, bool)):
            raise SchemaError("%s: expected a number, got %r" % (key, item))
    try:
        return convert(value)
    except OverflowError:
        raise SchemaError("%s: a number is beyond float range" % key) from None


def group_for_timestamp(ts) -> str:
    """Demand group for a time of day: 06-12 MD, 12-18 AD, 18-24 ED, 00-06 ND."""
    hour = (int(ts) % 86400) // 3600
    if 6 <= hour < 12:
        return "MD"
    if 12 <= hour < 18:
        return "AD"
    if 18 <= hour < 24:
        return "ED"
    return "ND"


def derive_seed(master, *labels) -> int:
    """Stable 63-bit sub-seed for (master seed, label path).

    Keeps per-group / per-stage RNG streams independent while everything
    stays reproducible from one master seed.
    """
    text = str(int(master)) + "/" + "/".join(str(x) for x in labels)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class DataRow:
    """One reading of every parameter at one point in time."""

    timestamp: int
    group: str
    values: dict
    label: int | None = None

    def __post_init__(self):
        if self.group not in GROUPS:
            raise SchemaError("unknown group tag %r" % (self.group,))
        if self.label not in (None, NORMAL, ANOMALOUS):
            raise ConfigError("label must be +1, -1 or None, got %r" % (self.label,))
        for name, value in self.values.items():
            if not math.isfinite(float(value)):
                raise ConfigError("non-finite value for parameter %r" % name)

    @classmethod
    def _view(cls, timestamp, group, values, label):
        """A row over cells that a parsed trace has already checked."""
        row, put = object.__new__(cls), object.__setattr__
        # field by field, as __init__ does: vars(row).update would give each
        # row a dict of its own, about twice the size
        put(row, "timestamp", timestamp)
        put(row, "group", group)
        put(row, "values", values)
        put(row, "label", label)
        return row


class DataTrace:
    """An ordered run of rows sharing one parameter schema, held as columns.

    The columns are integer ``timestamps``, group tags ``groups``, labels
    (read through ``labels()``) and one C-ordered float64 ``(rows,
    schema)`` matrix (read through ``to_matrix()``).  ``rows`` is a view: a
    tuple of DataRows over the columns, built on first use.
    ``DataTrace(schema, rows)`` checks the rows it is given and turns them
    into columns at once.  A trace is read-only and compares equal to
    another with the same schema and columns.
    """

    def __init__(self, schema, rows):
        schema = tuple(schema)
        if not schema:
            raise SchemaError("schema must name at least one parameter")
        _check_distinct(schema, "parameter")
        rows = tuple(rows)
        for i, row in enumerate(rows):
            for name in schema:
                if name not in row.values:
                    raise SchemaError(
                        "row %d is missing parameter %r" % (i, name))
        matrix = np.array([[row.values[n] for n in schema] for row in rows],
                          dtype=float).reshape(len(rows), len(schema))
        vars(self).update(vars(DataTrace._from_columns(
            schema, tuple(row.timestamp for row in rows),
            tuple(row.group for row in rows),
            tuple(row.label for row in rows), matrix)))

    @classmethod
    def _from_columns(cls, schema, timestamps, groups, labels, matrix):
        """A trace over already-checked columns; ``matrix`` is frozen."""
        matrix.flags.writeable = False
        trace = object.__new__(cls)
        vars(trace).update(schema=schema, timestamps=timestamps,
                           groups=groups, _labels=labels, _matrix=matrix)
        return trace

    def __setattr__(self, name, value):
        raise AttributeError("DataTrace is read-only")

    def __eq__(self, other):
        if not isinstance(other, DataTrace):
            return NotImplemented
        return (self.schema == other.schema
                and self.timestamps == other.timestamps
                and self.groups == other.groups
                and self._labels == other._labels
                and np.array_equal(self._matrix, other._matrix))

    def __repr__(self):
        return "DataTrace(schema=%r, %d rows)" % (self.schema, len(self))

    def __len__(self):
        return len(self.timestamps)

    @cached_property
    def rows(self) -> tuple:
        schema, view = self.schema, DataRow._view
        return tuple(view(ts, group, dict(zip(schema, values)), label)
                     for ts, group, values, label in
                     zip(self.timestamps, self.groups, self._matrix.tolist(),
                         self._labels))

    def take(self, indices) -> "DataTrace":
        """The trace of the rows at ``indices``, in that order."""
        indices = list(indices)
        return DataTrace._from_columns(
            self.schema, tuple(self.timestamps[i] for i in indices),
            tuple(self.groups[i] for i in indices),
            tuple(self._labels[i] for i in indices),
            self._matrix.take(np.array(indices, dtype=np.intp), axis=0))

    def to_matrix(self, features=None) -> np.ndarray:
        """A fresh C-ordered float matrix; columns follow schema order.

        ``features`` restricts the columns but never reorders them: the
        schema order is canonical for vectorization.
        """
        at = self._positions(self.schema if features is None else features)
        return self._matrix.take(sorted(set(at)), axis=1)

    def columns(self, names) -> np.ndarray:
        """A fresh C-ordered float matrix of the columns ``names`` in the
        order listed, a name listed twice giving its column twice."""
        return self._matrix.take(self._positions(names), axis=1)

    def _positions(self, names) -> list:
        """Schema positions of ``names``; an unknown name raises
        SchemaError."""
        names = list(names)
        unknown = set(names) - set(self.schema)
        if unknown:
            raise SchemaError("unknown features %s" % sorted(unknown))
        return [self.schema.index(n) for n in names]

    def labels(self) -> np.ndarray:
        """Label vector; raises when any row is unlabeled."""
        if None in self._labels:
            raise SchemaError("row %d is unlabeled" % self._labels.index(None))
        return np.array(self._labels, dtype=int)

    def is_labeled(self) -> bool:
        return None not in self._labels


@dataclass(frozen=True)
class EventTrace:
    """A finite sequence of event symbols."""

    events: tuple

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(str(e) for e in self.events))

    @classmethod
    def _of(cls, events: tuple) -> "EventTrace":
        """A trace over a tuple of str symbols, without re-converting it."""
        trace = object.__new__(cls)
        object.__setattr__(trace, "events", events)
        return trace

    def __len__(self):
        return len(self.events)

    def alphabet(self) -> set:
        return set(self.events)

    def slice(self, start, stop) -> "EventTrace":
        return EventTrace._of(self.events[start:stop])


@dataclass(frozen=True)
class SensitivityDegree:
    """Detection sensitivity grade: 20 (least), 60 (medium) or 100 (highest).

    The grade fixes how many tested items must individually look anomalous
    before the whole observation is: all of them at 20 %, any three at 60 %,
    any single one at 100 %.
    """

    s_pct: int

    def __post_init__(self):
        if self.s_pct not in (20, 60, 100):
            raise ConfigError("sensitivity must be 20, 60 or 100, got %r"
                              % (self.s_pct,))

    def required_count(self, total: int) -> int:
        if total < 1:
            raise ConfigError("required_count needs at least one tested item")
        raw = {20: total, 60: 3, 100: 1}[self.s_pct]
        return max(1, min(raw, total))


@dataclass(frozen=True)
class ParameterSpec:
    """Alarm geometry of one parameter: limit, baseline, tolerance, threshold."""

    name: str
    psi: float
    mu: float
    delta: float
    p_th: float

    def __post_init__(self):
        for field in ("psi", "mu", "delta", "p_th"):
            value = getattr(self, field)
            if not isinstance(value, numbers.Real):
                raise TypeError("%s of %r must be a number, got %r"
                                % (field, self.name, value))
            if not math.isfinite(value):
                raise ConfigError("non-finite %s for %r" % (field, self.name))
        if not self.psi > 0:
            raise ConfigError("psi must be > 0 for %r" % self.name)
        if self.mu < 0:
            raise ConfigError("mu must be >= 0 for %r" % self.name)
        if self.mu <= self.psi and not (self.mu - 1e-9 <= self.p_th <= self.psi + 1e-9):
            raise ConfigError(
                "threshold %g for %r outside [mu, psi]" % (self.p_th, self.name))


@contextlib.contextmanager
def _open_trace(path):
    """Open a trace file as text; undecodable bytes and CSV cells the csv
    module refuses (one longer than its field limit) raise TraceParseError
    naming the file instead of a bare UnicodeDecodeError or csv.Error."""
    try:
        with open(path, newline="") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise TraceParseError("%s is not valid text: %s" % (path, exc))
    except csv.Error as exc:
        raise TraceParseError("%s is not a readable CSV file: %s"
                              % (path, exc))


def _check_distinct(names, what, where=""):
    """Raise SchemaError naming the first name that repeats in ``names``."""
    seen = set()
    for name in names:
        if name in seen:
            raise SchemaError("repeated %s %r%s" % (what, name, where))
        seen.add(name)


def _read_header(reader, path) -> list:
    """The stripped header cells of a data CSV, each name once."""
    try:
        header = next(reader)
    except StopIteration:
        raise TraceParseError("empty file: %s" % path)
    header = [h.strip() for h in header]
    _check_distinct(header, "column", " in %s" % (path,))
    return header


def _is_blank(rec) -> bool:
    return all(not cell.strip() for cell in rec)


def _check_cells(rowno, cells, schema):
    """Raise the parse error of the first non-numeric or non-finite cell
    of a row, in schema order; return when every cell is finite."""
    for name, cell in zip(schema, cells):
        try:
            value = float(cell)
        except ValueError:
            raise TraceParseError(
                "parse error at row %d: non-numeric %r for %r"
                % (rowno, cell, name), row=rowno)
        if not math.isfinite(value):
            raise TraceParseError(
                "parse error at row %d: non-finite %r for %r"
                % (rowno, cell, name), row=rowno)


def parse_data_trace(path, schema) -> DataTrace:
    """Read a CSV data trace: ``ts,group,<parameters...>[,label]``.

    Column order in the file is free; the returned trace follows ``schema``
    order.  An empty group cell falls back to the timestamp's time-of-day
    bucket, and blank lines are skipped.  Raises SchemaError for an empty
    ``schema`` and for missing or repeated columns, and TraceParseError
    (with the 1-based data row index) for the first malformed row in file
    order.
    """
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


def infer_schema(path) -> tuple:
    """Parameter columns of a data CSV: everything but ts/group/label.
    A repeated column name raises SchemaError."""
    with _open_trace(path) as fh:
        names = _read_header(csv.reader(fh), path)
    return tuple(h for h in names if h not in ("ts", "group", "label"))


def write_data_trace(path, trace: DataTrace):
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


def parse_event_trace(path) -> EventTrace:
    """Read an event trace: one symbol per line, blank lines ignored."""
    with _open_trace(path) as fh:
        events = tuple(filter(None, map(str.strip, fh)))
    return EventTrace._of(events)


def write_event_trace(path, trace: EventTrace):
    with open(path, "w") as fh:
        for event in trace.events:
            fh.write(event + "\n")



def write_json(path, doc):
    """Write a JSON artifact: two-space indent, sorted keys, final newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path, parse):
    """Read a JSON object from ``path`` and return ``parse(doc)``.

    Malformed JSON, and a missing key or a wrong-typed value met by
    ``parse``, raise SchemaError naming the file (and the key, when one is
    missing) instead of leaking a bare KeyError or TypeError.  A
    SentinelError raised by ``parse`` keeps its class and gains the file
    name as a prefix.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise SchemaError("%s is not valid JSON: %s" % (path, exc))
    if not isinstance(doc, dict):
        raise SchemaError("%s: expected a JSON object" % (path,))
    try:
        return parse(doc)
    except SentinelError as exc:
        exc.args = ("%s: %s" % (path, exc),)
        raise
    except KeyError as exc:
        raise SchemaError("%s: missing key %s" % (path, exc))
    except (TypeError, ValueError) as exc:
        raise SchemaError("%s: bad value: %s" % (path, exc))
