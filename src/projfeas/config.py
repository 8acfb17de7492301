"""Experiment configuration: a small YAML schema for feasibility runs.

A config is a YAML document with nested key-value sections::

    name: two-lines
    sets:                       # named set descriptors
      A: {variant: affine, offset: [0.0, 0.0], basis: [[1.0, 0.0]]}
      B: {variant: affine, offset: [0.0, 0.0], basis: [[1.0, 1.0]]}
    algorithm: {kind: dr, a: A, b: B}     # map | dr; omit for estimators only
    start: {point: [1.0, 0.0]}            # or {center: [...], radius: r, count: n}
    solution:
      witness: [0.0, 0.0]
      members: [A, B]                     # at least one
      exact: {variant: affine, offset: [0.0, 0.0], basis: []}   # optional
    budget: {max_iters: 1000, tol: 1.0e-10}
    regularity: {deltas: [1.0, 0.5], samples: 4096, seed: 7}
    outputs: {trace_csv: run.trace.csv, report: run.report.txt}

Each section is a dataclass below, and its fields are the schema: a field's
metadata reads it from YAML, writes it back and bounds its range, and its
error text names the bound.  One ``read``, one ``to_dict`` and one
``__post_init__`` serve every section, so a preset or an override is
range-checked like a YAML value.

Set variants: ``affine`` (offset + independent spanning vectors), ``ball`` /
``sphere`` (center + finite radius > 0), ``union`` (affine frames) and
``kinked``; any other or degenerate one is a ``ConfigError`` at its
``sets.<key>`` or ``solution.exact`` path.  A set the estimators sample (the
algorithm's pair, or the first set) that lies farther from the witness than
the least delta is one at ``regularity.deltas``.  So is a section that is not a
mapping, a value that does not convert (integer fields take whole numbers
only) or lies out of range, and a key the schema does not name, at
``<path>.<key>``: a set descriptor takes the keys its variant writes, and a
``point`` start takes ``point`` alone.  Required fields are read first, so a
misspelt one reads as missing.  ``parse_config(serialize_config(cfg))``
reproduces ``cfg`` exactly.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields, replace
from decimal import Decimal
from functools import partial
from operator import methodcaller

import numpy as np
import yaml

from .linalg import as_point
from .operators import AlternatingProjections, DouglasRachford
from .sampling import ball_points
from .sets import ClosedSet, set_from_dict
from .solution import SolutionSet

# The largest delta and start radius.  The estimators and the iterates take
# points within that distance of a point of the sets, so two of them differ by
# at most twice it, and the squared norm of a difference, (2 * MAGNITUDE)**2,
# must not exceed the largest double.  It bounds every coordinate too; a basis
# entry at dimension n, MAGNITUDE / sqrt(n), bounds a basis vector's norm.
MAGNITUDE = math.sqrt(sys.float_info.max) / 2

# The largest ``regularity.samples`` and ``start.count``: 256 times the
# default 4096 samples, and about 10,000 times the most starts a preset
# draws.  Each is the row count of arrays a run holds at once, and a sampled
# estimator run peaks near 200 bytes a sample, so a run at this many samples
# fits in a few hundred MB; a far larger count would end in numpy's
# allocation error, a traceback, instead of a ``ConfigError``.
MAX_COUNT = 2**20


class ConfigError(ValueError):
    """Invalid configuration; ``path`` names the offending field."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")


def _typed(kind, value, path, ctx):
    if not isinstance(value, kind):
        raise ConfigError(path, f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def _number(kind, value, path, ctx):
    """``value`` (or a string: YAML reads ``1e-10`` as one) as a ``float`` or
    ``int`` ``kind``; one that does not convert exactly is a ``ConfigError``."""
    try:
        number = float(value) if isinstance(value, str) else value
        if not isinstance(value, bool) and kind(number) == number:
            return kind(number)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(path, f"expected {'an integer' if kind is int else 'a number'}, got {value!r}")


def _list(item, value, path, ctx):
    return tuple(item(v, path, ctx) for v in _typed(list, value, path, ctx))


_str, _int, _float = partial(_typed, str), partial(_number, int), partial(_number, float)


def _coordinates(values, path):
    """``values``, or a ``ConfigError`` at the index of its first finite entry past ``MAGNITUDE``
    (``MAGNITUDE / sqrt(n)`` in a basis of dimension ``n``); the readers name what does not convert."""
    try:
        V = np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return values
    n = max(V.shape[1], 1) if V.ndim == 2 else 1
    far = np.argwhere(np.isfinite(V) & (np.abs(V) > MAGNITUDE / math.sqrt(n)))
    if far.size:
        bound = f"{MAGNITUDE:g}" + (f" / sqrt({n}) = {MAGNITUDE / math.sqrt(n):g}" if V.ndim == 2 else "")
        where = "".join(f"[{i}]" for i in far[0])
        raise ConfigError(path + where, f"must be at most {bound} in magnitude, got {V[tuple(far[0])]:g}")
    return values


def _point(value, path, ctx):
    try:
        p = as_point(value, next((s.dim for s in ctx["sets"].values()), None))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(path, str(exc)) from None
    return _coordinates(p, path)


def _set_name(value, path, ctx):
    if not isinstance(value, str) or value not in ctx["sets"]:
        raise ConfigError(path, f"references unknown set {value!r}")
    return value


def _unknown(data, keys, path):
    """A ``ConfigError`` at ``<path>.<key>`` for a key of ``data`` not in ``keys``."""
    for key in data:
        if key not in keys:
            raise ConfigError(f"{path}.{key}", f"unknown key; expected one of {', '.join(keys)}")


def _set(data, path, ctx=None):
    """The set ``data`` describes, with the keys its ``to_dict`` writes."""
    if not isinstance(data, dict):
        raise ConfigError(path, "expected a mapping")
    frames = data["frames"] if isinstance(data.get("frames"), list) else []
    for part, where in [(data, path)] + [(f, f"{path}.frames[{i}]") for i, f in enumerate(frames)]:
        for key in ("offset", "center", "basis"):
            if isinstance(part, dict) and key in part:
                _coordinates(part[key], f"{where}.{key}")
    try:
        s = set_from_dict(data)
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise ConfigError(path, str(exc)) from None
    written = s.to_dict()
    _unknown(data, written, path)
    for i, (frame, keys) in enumerate(zip(data.get("frames", ()), written.get("frames", ()))):
        _unknown(frame, keys, f"{path}.frames[{i}]")
    return s


def _sets(data, path, ctx):
    sets = {key: _set(sd, f"sets.{key}") for key, sd in _typed(dict, data, path, ctx).items()}
    dims = sorted({s.dim for s in sets.values()})
    if len(dims) > 1:
        raise ConfigError("sets", f"mixed ambient dimensions {dims}")
    return sets


def _start(data, path, ctx):
    kind = PointStart if isinstance(data, dict) and "point" in data else BallStart
    return kind.read(data, path, ctx)


def _floats(values):
    return [float(v) for v in values]


_to_dict = methodcaller("to_dict")


def _field(read, write=None, ok=None, need="", **default):
    """A schema field: ``read(value, path, ctx)`` takes it from YAML, with
    ``ctx`` the root's fields read so far, ``write`` gives it back (unchanged
    by default), and a value that fails ``ok`` must be ``need``."""
    meta = {"read": read, "write": write or (lambda v: v), "ok": ok, "need": need, "required": not default}
    return field(metadata=meta, **default)


class _Section:
    """A config section: a dataclass whose ``_field``s are its schema."""

    path = "<root>"  # the name its field and unknown-key errors take

    @classmethod
    def read(cls, data, path, ctx=None):
        """The section ``data`` describes, or a ``ConfigError`` at ``path``
        if it is no mapping; the root's fields are the ``ctx`` of its own."""
        if not isinstance(data, dict):
            raise ConfigError(path, "expected a mapping")
        values = {}
        ctx = values if ctx is None else ctx
        for f in sorted(fields(cls), key=lambda f: not f.metadata["required"]):
            where = f"{cls.path}.{f.name}"
            if data.get(f.name) is not None:
                values[f.name] = f.metadata["read"](data[f.name], where, ctx)
            elif f.metadata["required"]:
                raise ConfigError(where, "missing required field")
        _unknown(data, [f.name for f in fields(cls)], cls.path)
        return cls(**values)

    def to_dict(self):
        """What ``read`` takes back: each field that is not None, as ``write`` gives it."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            written = None if value is None else f.metadata["write"](value)
            if written not in (None, {}):
                out[f.name] = written
        return out

    def __post_init__(self):
        for f in fields(self):
            ok, value = f.metadata["ok"], getattr(self, f.name)
            if ok is not None and value is not None and not ok(value):
                if isinstance(value, int) and abs(value) > 2**53:  # a float gave it, or a long literal
                    value = float(value) if abs(value) < 2**1024 else f"{Decimal(value):.6g}"
                raise ConfigError(f"{self.path}.{f.name}", f"must be {f.metadata['need']}, got {value}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.to_dict() == other.to_dict()


@dataclass(frozen=True, eq=False)
class AlgorithmSpec(_Section):
    path = "algorithm"
    kind: str = _field(_str, ok=lambda k: k in ("map", "dr"), need="map or dr")
    a: str = _field(_set_name)
    b: str = _field(_set_name)


@dataclass(frozen=True, eq=False)
class PointStart(_Section):
    """One start at ``point``."""

    path = "start"
    point: np.ndarray = _field(_point, _floats)

    def points(self, seed):
        return self.point[None, :]


@dataclass(frozen=True, eq=False)
class BallStart(_Section):
    """``count`` starts sampled in the ball of ``radius`` about ``center``."""

    path = "start"
    center: np.ndarray = _field(_point, _floats)
    radius: float = _field(_float, float, lambda r: 0 <= r <= MAGNITUDE, f"in [0, {MAGNITUDE:g}]")
    count: int = _field(_int, int, lambda n: 1 <= n <= MAX_COUNT, f"in [1, {MAX_COUNT}]", default=1)

    def points(self, seed):
        return ball_points(self.center, self.radius, self.count, seed)[1:]  # skip the prepended center


@dataclass(frozen=True, eq=False)
class SolutionSpec(_Section):
    """A witness of the intersection, the sets it lies in, and the closed form."""

    path = "solution"
    witness: np.ndarray = _field(_point, _floats)
    members: tuple = _field(partial(_list, _set_name), list, lambda m: len(m) > 0, "at least one set")
    exact: ClosedSet | None = _field(_set, _to_dict, default=None)


@dataclass(frozen=True, eq=False)
class BudgetSpec(_Section):
    path = "budget"
    max_iters: int = _field(_int, int, lambda n: n >= 1, "at least 1", default=1000)
    tol: float = _field(_float, float, lambda t: 0 < t < math.inf, "finite and positive", default=1e-10)


@dataclass(frozen=True, eq=False)
class RegularitySpec(_Section):
    path = "regularity"
    deltas: tuple = _field(
        partial(_list, _float), _floats, lambda ds: len(ds) > 0 and all(0 < d <= MAGNITUDE for d in ds),
        f"at least one, each in (0, {MAGNITUDE:g}]", default=(1.0, 0.5, 0.25, 0.125),
    )
    samples: int = _field(_int, int, lambda n: 1 <= n <= MAX_COUNT, f"in [1, {MAX_COUNT}]", default=4096)
    seed: int = _field(_int, int, lambda n: n >= 0, "non-negative", default=0)


@dataclass(frozen=True, eq=False)
class OutputSpec(_Section):
    path = "outputs"
    trace_csv: str | None = _field(_str, default=None)
    report: str | None = _field(_str, default=None)


@dataclass(eq=False, kw_only=True)
class ExperimentConfig(_Section):
    name: str = _field(_str)
    sets: dict = _field(_sets, lambda sets: {k: s.to_dict() for k, s in sets.items()})
    algorithm: AlgorithmSpec | None = _field(AlgorithmSpec.read, _to_dict, default=None)
    start: PointStart | BallStart | None = _field(_start, _to_dict, default=None)
    solution: SolutionSpec = _field(SolutionSpec.read, _to_dict)
    budget: BudgetSpec = _field(BudgetSpec.read, _to_dict, default_factory=BudgetSpec)
    regularity: RegularitySpec = _field(RegularitySpec.read, _to_dict, default_factory=RegularitySpec)
    outputs: OutputSpec = _field(OutputSpec.read, _to_dict, default_factory=OutputSpec)

    # -- derived objects ----------------------------------------------------
    def pair(self):
        if self.algorithm is None:
            return None
        return self.sets[self.algorithm.a], self.sets[self.algorithm.b]

    def operator(self):
        if self.algorithm is None:
            return None
        kind = AlternatingProjections if self.algorithm.kind == "map" else DouglasRachford
        return kind(*self.pair())

    def solution_set(self):
        members = tuple(self.sets[name] for name in self.solution.members)
        return SolutionSet(members, self.solution.witness, self.solution.exact)

    def with_overrides(self, samples=None, seed=None, max_iters=None, tol=None):
        """A copy with each value that is not None in place of its field."""
        def update(spec, **values):
            return replace(spec, **{k: v for k, v in values.items() if v is not None})
        return replace(self, regularity=update(self.regularity, samples=samples, seed=seed),
                       budget=update(self.budget, max_iters=max_iters, tol=tol))


def config_from_dict(data):
    cfg = ExperimentConfig.read(data, "<root>")
    try:
        cfg.solution_set()
    except ValueError as exc:
        raise ConfigError("solution", str(exc)) from None
    # the estimators sample the pair, or the first set, within each delta of the witness
    delta = min(cfg.regularity.deltas)
    for name in (cfg.algorithm.a, cfg.algorithm.b) if cfg.algorithm else list(cfg.sets)[:1]:
        far = cfg.sets[name].distance_many(cfg.solution.witness[None])[0]
        if far > delta:
            raise ConfigError("regularity.deltas",
                              f"set {name!r} lies {far:g} from the witness, past delta {delta:g}")
    return cfg


def parse_config(text):
    """Parse a YAML experiment description; raises ``ConfigError`` with the
    field path on any problem."""
    try:
        data = yaml.safe_load(text)
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: an integer past Python's 4300 digits
        raise ConfigError("<root>", f"invalid YAML: {exc}") from None
    return config_from_dict(data)


def serialize_config(cfg):
    return yaml.safe_dump(cfg.to_dict(), sort_keys=False, default_flow_style=None)


def load_config(path):
    with open(path) as fh:
        return parse_config(fh.read())
