"""Experiment configuration: a small YAML schema for feasibility runs.

A config is a YAML document with nested key-value sections::

    name: two-lines
    sets:                       # named set descriptors
      A: {variant: affine, offset: [0.0, 0.0], basis: [[1.0, 0.0]]}
      B: {variant: affine, offset: [0.0, 0.0], basis: [[1.0, 1.0]]}
    algorithm: {kind: dr, a: A, b: B}          # kind: map | dr; omit for
                                               # estimator-only experiments
    start: {point: [1.0, 0.0]}                 # or {center: [...], radius: r,
                                               #     count: n} for n >= 1
                                               #     starts sampled in a
                                               #     ball of radius r >= 0
    solution:
      witness: [0.0, 0.0]
      members: [A, B]
      exact: {variant: affine, offset: [0.0, 0.0], basis: []}   # optional
    budget: {max_iters: 1000, tol: 1.0e-10}    # max_iters >= 1, tol > 0
    regularity: {deltas: [1.0, 0.5], samples: 4096, seed: 7}
    outputs: {trace_csv: run.trace.csv, report: run.report.txt}

Set variants: ``affine`` (offset + spanning vectors, orthonormalized on
load), ``ball`` / ``sphere`` (center + radius), ``union`` (list of affine
frames) and ``kinked`` (the planar kinked region); any other variant is a
``ConfigError`` at its ``sets.<key>`` or ``solution.exact`` path.  So is a
section that is not a mapping, a value that does not convert (integer fields
take whole numbers only) and a value out of range, from YAML or an override.
``parse_config(serialize_config(cfg))`` reproduces ``cfg`` exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import yaml

from .operators import AlternatingProjections, DouglasRachford
from .sampling import ball_points
from .sets import ClosedSet, set_from_dict
from .solution import SolutionSet


class ConfigError(ValueError):
    """Invalid configuration; ``path`` names the offending field."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")


def _require(data, key, path, kind=None):
    if not isinstance(data, dict) or key not in data:
        raise ConfigError(f"{path}.{key}", "missing required field")
    value = data[key]
    if kind is not None and not isinstance(value, kind):
        raise ConfigError(f"{path}.{key}", f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def _section(data, key):
    """The mapping under ``key``; empty when absent or null."""
    return {} if data.get(key) is None else _require(data, key, "<root>", dict)


def _number(value, path, kind=float):
    """``value`` (or a string: YAML reads ``1e-10`` as one) as a ``float`` or
    ``int`` ``kind``; one that does not convert exactly is a ``ConfigError``."""
    try:
        number = float(value) if isinstance(value, str) else value
        if not isinstance(value, bool) and kind(number) == number:
            return kind(number)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(path, f"expected {'an integer' if kind is int else 'a number'}, got {value!r}")


def _set(data, path):
    try:
        return set_from_dict(data)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(path, str(exc)) from None


def _check(ok, path, need, value):
    if not ok:
        raise ConfigError(path, f"must be {need}, got {value}")


def _point(data, path, dim=None):
    try:
        p = np.asarray(data, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(path, "not a numeric vector") from None
    if p.ndim != 1 or not np.isfinite(p).all():
        raise ConfigError(path, "expected a flat list of finite numbers")
    if dim is not None and p.shape[0] != dim:
        raise ConfigError(path, f"dimension {p.shape[0]} does not match ambient dimension {dim}")
    return p


@dataclass(frozen=True)
class AlgorithmSpec:
    kind: str
    a: str
    b: str


@dataclass(frozen=True, eq=False)
class StartSpec:
    point: np.ndarray | None = None
    center: np.ndarray | None = None
    radius: float = 0.0
    count: int = 1

    def __post_init__(self):
        _check(self.count >= 1, "start.count", "at least 1", self.count)
        _check(0 <= self.radius < np.inf, "start.radius", "finite and non-negative", self.radius)

    def points(self, seed):
        if self.point is not None:
            return self.point[None, :]
        pts = ball_points(self.center, self.radius, max(self.count * 2, 8), seed)
        return pts[1 : self.count + 1]  # skip the prepended center


@dataclass(frozen=True)
class BudgetSpec:
    max_iters: int = 1000
    tol: float = 1e-10

    def __post_init__(self):
        _check(self.max_iters >= 1, "budget.max_iters", "at least 1", self.max_iters)
        _check(self.tol > 0, "budget.tol", "positive", self.tol)


@dataclass(frozen=True)
class RegularitySpec:
    deltas: tuple = (1.0, 0.5, 0.25, 0.125)
    samples: int = 4096
    seed: int = 0

    def __post_init__(self):
        positive = self.deltas and all(0 < d < np.inf for d in self.deltas)
        _check(positive, "regularity.deltas", "finite and positive", list(self.deltas))
        _check(self.samples >= 1, "regularity.samples", "at least 1", self.samples)
        _check(self.seed >= 0, "regularity.seed", "non-negative", self.seed)


@dataclass(frozen=True)
class OutputSpec:
    trace_csv: str | None = None
    report: str | None = None


@dataclass
class ExperimentConfig:
    name: str
    sets: dict
    solution_witness: np.ndarray
    solution_members: tuple
    solution_exact: ClosedSet | None = None
    algorithm: AlgorithmSpec | None = None
    start: StartSpec | None = None
    budget: BudgetSpec = field(default_factory=BudgetSpec)
    regularity: RegularitySpec = field(default_factory=RegularitySpec)
    outputs: OutputSpec = field(default_factory=OutputSpec)

    # -- derived objects ----------------------------------------------------
    def pair(self):
        if self.algorithm is None:
            return None
        return self.sets[self.algorithm.a], self.sets[self.algorithm.b]

    def operator(self):
        if self.algorithm is None:
            return None
        a, b = self.pair()
        if self.algorithm.kind == "map":
            return AlternatingProjections(a, b)
        return DouglasRachford(a, b)

    def solution_set(self):
        members = tuple(self.sets[name] for name in self.solution_members)
        return SolutionSet(members, self.solution_witness, self.solution_exact)

    def with_overrides(self, samples=None, seed=None, max_iters=None, tol=None):
        """A copy with each value that is not None in place of its field."""

        def update(spec, **values):
            return replace(spec, **{k: v for k, v in values.items() if v is not None})

        return replace(
            self,
            regularity=update(self.regularity, samples=samples, seed=seed),
            budget=update(self.budget, max_iters=max_iters, tol=tol),
        )

    def to_dict(self):
        out = {"name": self.name, "sets": {k: s.to_dict() for k, s in self.sets.items()}}
        if self.algorithm is not None:
            out["algorithm"] = {"kind": self.algorithm.kind, "a": self.algorithm.a, "b": self.algorithm.b}
        if self.start is not None:
            if self.start.point is not None:
                out["start"] = {"point": [float(v) for v in self.start.point]}
            else:
                out["start"] = {
                    "center": [float(v) for v in self.start.center],
                    "radius": float(self.start.radius),
                    "count": int(self.start.count),
                }
        sol = {
            "witness": [float(v) for v in self.solution_witness],
            "members": list(self.solution_members),
        }
        if self.solution_exact is not None:
            sol["exact"] = self.solution_exact.to_dict()
        out["solution"] = sol
        out["budget"] = {"max_iters": int(self.budget.max_iters), "tol": float(self.budget.tol)}
        out["regularity"] = {
            "deltas": [float(d) for d in self.regularity.deltas],
            "samples": int(self.regularity.samples),
            "seed": int(self.regularity.seed),
        }
        outputs = {k: v for k, v in vars(self.outputs).items() if v}
        if outputs:
            out["outputs"] = outputs
        return out

    def __eq__(self, other):
        if not isinstance(other, ExperimentConfig):
            return NotImplemented
        return self.to_dict() == other.to_dict()


def config_from_dict(data):
    if not isinstance(data, dict):
        raise ConfigError("<root>", "config must be a mapping")
    name = _require(data, "name", "<root>", str)

    raw_sets = _require(data, "sets", "<root>", dict)
    sets = {}
    dims = set()
    for key, sd in raw_sets.items():
        sets[key] = _set(sd, f"sets.{key}")
        dims.add(sets[key].dim)
    if len(dims) > 1:
        raise ConfigError("sets", f"mixed ambient dimensions {sorted(dims)}")
    dim = dims.pop() if dims else None

    algorithm = None
    if data.get("algorithm") is not None:
        ad = data["algorithm"]
        kind = _require(ad, "kind", "algorithm", str)
        if kind not in ("map", "dr"):
            raise ConfigError("algorithm.kind", f"unknown algorithm {kind!r}; use map or dr")
        a = _require(ad, "a", "algorithm", str)
        b = _require(ad, "b", "algorithm", str)
        for ref, label in ((a, "algorithm.a"), (b, "algorithm.b")):
            if ref not in sets:
                raise ConfigError(label, f"references unknown set {ref!r}")
        algorithm = AlgorithmSpec(kind, a, b)

    start = None
    if data.get("start") is not None:
        sd = _section(data, "start")
        if "point" in sd:
            start = StartSpec(point=_point(sd["point"], "start.point", dim))
        else:
            start = StartSpec(
                center=_point(_require(sd, "center", "start"), "start.center", dim),
                radius=_number(_require(sd, "radius", "start"), "start.radius"),
                count=_number(sd.get("count", 1), "start.count", int),
            )

    sol = _require(data, "solution", "<root>", dict)
    witness = _point(_require(sol, "witness", "solution"), "solution.witness", dim)
    members = tuple(_require(sol, "members", "solution", list))
    for m in members:
        if m not in sets:
            raise ConfigError("solution.members", f"references unknown set {m!r}")
    exact = None if sol.get("exact") is None else _set(sol["exact"], "solution.exact")

    bd, rd = _section(data, "budget"), _section(data, "regularity")
    budget = BudgetSpec(
        _number(bd.get("max_iters", BudgetSpec.max_iters), "budget.max_iters", int),
        _number(bd.get("tol", BudgetSpec.tol), "budget.tol"),
    )
    deltas = _require(rd, "deltas", "regularity", list) if "deltas" in rd else RegularitySpec.deltas
    regularity = RegularitySpec(
        tuple(_number(d, "regularity.deltas") for d in deltas),
        _number(rd.get("samples", RegularitySpec.samples), "regularity.samples", int),
        _number(rd.get("seed", RegularitySpec.seed), "regularity.seed", int),
    )
    od = _section(data, "outputs")
    outputs = OutputSpec(od.get("trace_csv"), od.get("report"))

    cfg = ExperimentConfig(
        name=name,
        sets=sets,
        solution_witness=witness,
        solution_members=members,
        solution_exact=exact,
        algorithm=algorithm,
        start=start,
        budget=budget,
        regularity=regularity,
        outputs=outputs,
    )
    try:
        cfg.solution_set()
    except ValueError as exc:
        raise ConfigError("solution", str(exc)) from None
    return cfg


def parse_config(text):
    """Parse a YAML experiment description; raises ``ConfigError`` with the
    field path on any problem."""
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError("<root>", f"invalid YAML: {exc}") from None
    return config_from_dict(data)


def serialize_config(cfg):
    return yaml.safe_dump(cfg.to_dict(), sort_keys=False, default_flow_style=None)


def load_config(path):
    with open(path) as fh:
        return parse_config(fh.read())
