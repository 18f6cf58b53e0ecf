"""Normal-behavior threshold profiles.

A profile stores, per parameter, the upper physical limit psi, a trimmed
baseline mu learned from normal operation, the relative tolerance
delta = |psi - mu| / psi and the alarm threshold P_th = mu * delta + mu.
Readings strictly above P_th count as compromised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (ConfigError, DataTrace, InsufficientDataError,
                   ParameterSpec, SchemaError, read_json, write_json)

DEFAULT_TRIM_FRACTION = 0.1
DEFAULT_WINDOW_LEN = 1440


def trim_mean(values, trim_fraction):
    """Mean after dropping floor(trim_fraction * n) values from each end.

    Trimming is by sorted order, so up to that many corrupted extremes per
    side cannot move the baseline.  A sum past float range gives +-inf or
    nan without a numpy warning, for the caller to refuse.
    """
    if not 0 <= trim_fraction < 0.5:
        raise ConfigError("trim_fraction must be in [0, 0.5), got %r"
                          % (trim_fraction,))
    data = np.sort(np.asarray(values, dtype=float))
    n = data.size
    if n == 0:
        raise InsufficientDataError("trim_mean of an empty sequence")
    k = int(math.floor(trim_fraction * n))
    if n - 2 * k < 1:
        raise InsufficientDataError(
            "trimming %d from each end of %d values leaves nothing" % (k, n))
    with np.errstate(over="ignore", invalid="ignore"):
        return float(data[k:n - k].mean())


def compute_threshold(psi, mu):
    """Tolerance and alarm threshold for one parameter.

    delta = |psi - mu| / psi, P_th = mu * delta + mu.  For mu in [0, psi]
    this equals mu * (2 - mu/psi): anchored at 0 for mu = 0, at psi for
    mu = psi, and strictly increasing in between.
    """
    if not psi > 0:
        raise ConfigError("psi must be > 0, got %r" % (psi,))
    if mu < 0:
        raise ConfigError("mu must be >= 0, got %r" % (mu,))
    delta = abs(psi - mu) / psi
    p_th = mu * delta + mu
    return delta, p_th


def invert_threshold(psi, p_th):
    """Baseline mu whose threshold equals p_th (smaller quadratic root).

    Solves mu * (2 - mu/psi) = p_th for mu in [0, psi].
    """
    if not psi > 0:
        raise ConfigError("psi must be > 0, got %r" % (psi,))
    if not 0 <= p_th <= psi:
        raise ConfigError("p_th must lie in [0, psi], got %r" % (p_th,))
    return psi * (1.0 - math.sqrt(1.0 - p_th / psi))


@dataclass(frozen=True)
class ThresholdProfile:
    """Per-parameter alarm geometry."""

    parameters: dict

    def spec(self, name) -> ParameterSpec:
        try:
            return self.parameters[name]
        except KeyError:
            raise SchemaError("profile has no parameter %r" % (name,))

    def threshold(self, name) -> float:
        return self.spec(name).p_th

    def to_json(self) -> dict:
        return {name: {"psi": s.psi, "mu": s.mu, "delta": s.delta, "p_th": s.p_th}
                for name, s in self.parameters.items()}

    @classmethod
    def from_json(cls, doc) -> "ThresholdProfile":
        """Rebuild a profile; a missing key raises SchemaError naming it, and
        ParameterSpec refuses a value that does not fit.  A ``_settings``
        key, which older files carry, is skipped unread."""
        params = {}
        for name, body in doc.items():
            if name == "_settings":
                continue
            if not isinstance(body, dict):
                raise SchemaError("%s: expected an object with psi, mu, delta "
                                  "and p_th" % (name,))
            for key in ("psi", "mu", "delta", "p_th"):
                if key not in body:
                    raise SchemaError("%s: missing key %r" % (name, key))
            params[name] = ParameterSpec(name, body["psi"], body["mu"],
                                         body["delta"], body["p_th"])
        return cls(params)

    def save(self, path):
        write_json(path, self.to_json())

    @classmethod
    def load(cls, path) -> "ThresholdProfile":
        return read_json(path, cls.from_json)


def build_profile(train, limits) -> ThresholdProfile:
    """Learn a profile from normal-operation rows.

    mu per parameter is the DEFAULT_TRIM_FRACTION-trimmed mean over the
    most recent DEFAULT_WINDOW_LEN rows (the whole trace when shorter);
    ``limits`` maps every schema parameter to its physical limit psi.
    """
    if len(train) == 0:
        raise InsufficientDataError("cannot profile an empty trace")
    missing = [n for n in train.schema if n not in limits]
    if missing:
        raise SchemaError("no limit (psi) for parameters %s" % missing)

    recent = train.to_matrix()[-DEFAULT_WINDOW_LEN:]
    params = {}
    for j, name in enumerate(train.schema):
        mu = trim_mean(recent[:, j], DEFAULT_TRIM_FRACTION)
        delta, p_th = compute_threshold(limits[name], mu)
        params[name] = ParameterSpec(name, float(limits[name]), mu, delta, p_th)
    return ThresholdProfile(params)


def count_compromised(row, profile: ThresholdProfile, features):
    """Number of ``features`` whose reading strictly exceeds its threshold,
    a name listed twice counting twice: an int for a DataRow, and for a
    DataTrace an int vector with one count per row."""
    features = list(features)
    p_th = np.array([profile.threshold(name) for name in features],
                    dtype=float)
    if isinstance(row, DataTrace):
        values = row.columns(features)
    else:
        for name in features:
            if name not in row.values:
                raise SchemaError("row has no parameter %r" % (name,))
        values = np.array([row.values[name] for name in features],
                          dtype=float)
    counts = (values > p_th).sum(axis=-1)
    return counts if counts.ndim else int(counts)
