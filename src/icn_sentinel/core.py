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
from dataclasses import dataclass

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
    """True for a finite int or float from a JSON artifact (not a bool)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and math.isfinite(value)


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


@dataclass(frozen=True)
class DataTrace:
    """An ordered run of rows sharing one parameter schema."""

    schema: tuple
    rows: tuple

    def __post_init__(self):
        if not self.schema:
            raise SchemaError("schema must name at least one parameter")
        object.__setattr__(self, "schema", tuple(self.schema))
        object.__setattr__(self, "rows", tuple(self.rows))
        for i, row in enumerate(self.rows):
            for name in self.schema:
                if name not in row.values:
                    raise SchemaError(
                        "row %d is missing parameter %r" % (i, name))

    def __len__(self):
        return len(self.rows)

    def to_matrix(self, features=None) -> np.ndarray:
        """Rows as a float matrix; columns follow schema order.

        ``features`` restricts the columns but never reorders them: the
        schema order is canonical for vectorization.
        """
        names = self.schema
        if features is not None:
            wanted = set(features)
            unknown = wanted - set(names)
            if unknown:
                raise SchemaError("unknown features %s" % sorted(unknown))
            names = [n for n in names if n in wanted]
        return np.array([[row.values[n] for n in names] for row in self.rows],
                        dtype=float)

    def labels(self) -> np.ndarray:
        """Label vector; raises when any row is unlabeled."""
        out = []
        for i, row in enumerate(self.rows):
            if row.label is None:
                raise SchemaError("row %d is unlabeled" % i)
            out.append(row.label)
        return np.array(out, dtype=int)

    def is_labeled(self) -> bool:
        return all(row.label is not None for row in self.rows)


@dataclass(frozen=True)
class EventTrace:
    """A finite sequence of event symbols."""

    events: tuple

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(str(e) for e in self.events))

    def __len__(self):
        return len(self.events)

    def alphabet(self) -> set:
        return set(self.events)

    def slice(self, start, stop) -> "EventTrace":
        return EventTrace(self.events[start:stop])


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


def parse_data_trace(path, schema) -> DataTrace:
    """Read a CSV data trace: ``ts,group,<parameters...>[,label]``.

    Column order in the file is free; the returned trace follows ``schema``
    order.  An empty group cell falls back to the timestamp's time-of-day
    bucket.  Raises SchemaError for missing columns and TraceParseError
    (with the 1-based data row index) for malformed cells.
    """
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
    return DataTrace(schema, rows)


def infer_schema(path) -> tuple:
    """Parameter columns of a data CSV: everything but ts/group/label."""
    with _open_trace(path) as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise TraceParseError("empty file: %s" % path)
    names = [h.strip() for h in header]
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
        for row in trace.rows:
            rec = [str(row.timestamp), row.group]
            rec += [repr(float(row.values[n])) for n in trace.schema]
            if labeled:
                rec.append(str(row.label))
            writer.writerow(rec)


def parse_event_trace(path) -> EventTrace:
    """Read an event trace: one symbol per line, blank lines ignored."""
    events = []
    with _open_trace(path) as fh:
        for line in fh:
            token = line.strip()
            if token:
                events.append(token)
    return EventTrace(events)


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
