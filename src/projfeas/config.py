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
``ConfigError`` at its ``sets.<key>`` or ``solution.exact`` path.  A budget
or start out of range is a ``ConfigError`` at its field, whether it comes
from YAML or from an override (``--max-iters``, ``--tol``).
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


def _point(data, path, dim=None):
    try:
        p = np.asarray(data, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(path, "not a numeric vector") from None
    if p.ndim != 1:
        raise ConfigError(path, "expected a flat list of numbers")
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
        if self.count < 1:
            raise ConfigError("start.count", f"must be at least 1, got {self.count}")
        if self.radius < 0:
            raise ConfigError("start.radius", f"must be non-negative, got {self.radius}")

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
        if self.max_iters < 1:
            raise ConfigError("budget.max_iters", f"must be at least 1, got {self.max_iters}")
        if not self.tol > 0:
            raise ConfigError("budget.tol", f"must be positive, got {self.tol}")


@dataclass(frozen=True)
class RegularitySpec:
    deltas: tuple = (1.0, 0.5, 0.25, 0.125)
    samples: int = 4096
    seed: int = 0


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
        if self.outputs.trace_csv or self.outputs.report:
            out["outputs"] = {}
            if self.outputs.trace_csv:
                out["outputs"]["trace_csv"] = self.outputs.trace_csv
            if self.outputs.report:
                out["outputs"]["report"] = self.outputs.report
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
        try:
            sets[key] = set_from_dict(sd)
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"sets.{key}", str(exc)) from None
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
        sd = data["start"]
        if "point" in sd:
            start = StartSpec(point=_point(sd["point"], "start.point", dim))
        else:
            start = StartSpec(
                center=_point(_require(sd, "center", "start"), "start.center", dim),
                radius=float(_require(sd, "radius", "start")),
                count=int(sd.get("count", 1)),
            )

    sol = _require(data, "solution", "<root>", dict)
    witness = _point(_require(sol, "witness", "solution"), "solution.witness", dim)
    members = tuple(_require(sol, "members", "solution", list))
    for m in members:
        if m not in sets:
            raise ConfigError("solution.members", f"references unknown set {m!r}")
    exact = None
    if sol.get("exact") is not None:
        try:
            exact = set_from_dict(sol["exact"])
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError("solution.exact", str(exc)) from None

    bd = data.get("budget", {})
    budget = BudgetSpec(int(bd.get("max_iters", 1000)), float(bd.get("tol", 1e-10)))
    rd = data.get("regularity", {})
    regularity = RegularitySpec(
        tuple(float(d) for d in rd.get("deltas", (1.0, 0.5, 0.25, 0.125))),
        int(rd.get("samples", 4096)),
        int(rd.get("seed", 0)),
    )
    od = data.get("outputs", {})
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
