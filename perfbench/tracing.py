"""In-memory spans and counters around projfeas's layer boundaries.

Nothing under ``src/`` is changed: the tracer rebinds, for the duration of a
``with`` block, the names that callers look up (``projfeas.runner.iterate``,
``projfeas.driver.iterate``, ``Ball.project``, ...) and restores the
originals on exit.  Boundaries crossed a few thousand times per pass record a
span each (name, start, end, parent); the per-step ones (``step``,
``project``, ``SolutionSet.distance``, ``complement_basis``) only count.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

ESTIMATORS = {
    "estimate_subregularity": "subregularity",
    "estimate_pair_regularity": "pair_regularity",
    "estimate_kappa": "kappa",
    "estimate_c": "c",
    "check_strong_regularity": "strong_regularity",
    "friedrichs_cosine": "friedrichs",
}
REPORTED_ESTIMATORS = ("subregularity", "pair_regularity", "kappa", "c")
SET_VARIANTS = {
    "AffineSubspace": "Affine",
    "Ball": "Ball",
    "Sphere": "Sphere",
    "UnionOfSubspaces": "Union",
    "KinkedRegion": "Kinked",
}
PRESETS = ("example-i", "example-ii", "example-iii", "example-v", "kinked-regularity")
SELF_TIME_LAYERS = ("runner", "regularity", "sampling", "driver")


class Tracer:
    """Records spans and counts while installed (``with tracer: ...``)."""

    def __init__(self, pf):
        self.pf = pf
        self.spans = []  # [name, start, end, parent index or None]
        self.counts = Counter()
        self.seconds = Counter()
        self._stack = []
        self._restore = []

    # -- wrapping -------------------------------------------------------------
    def _rebind(self, owner, attr, make):
        """Point ``owner.attr`` (or ``owner[attr]`` for a dict) at a wrapper."""
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = make(original)
            self._restore.append(lambda: owner.__setitem__(attr, original))
        else:
            original = getattr(owner, attr)
            setattr(owner, attr, make(original))
            self._restore.append(lambda: setattr(owner, attr, original))

    def span(self, owner, attr, name, tag=None, on_result=None):
        """Record a span per call; ``tag(args)`` appends a suffix to the name,
        ``on_result(result, args)`` updates counts."""

        def make(fn):
            @functools.wraps(fn)
            def wrapped(*args, **kwargs):
                label = f"{name}.{tag(args)}" if tag else name
                record = [label, time.perf_counter(), None, self._stack[-1] if self._stack else None]
                self._stack.append(len(self.spans))
                self.spans.append(record)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    record[2] = time.perf_counter()
                    self._stack.pop()
                if on_result is not None:
                    on_result(result, args)
                return result

            return wrapped

        self._rebind(owner, attr, make)

    def count(self, owner, attr, name, timed=False, on_result=None):
        """Count calls (and their total time if ``timed``) without spans."""

        def make(fn):
            @functools.wraps(fn)
            def wrapped(*args, **kwargs):
                self.counts[name] += 1
                if timed:
                    t0 = time.perf_counter()
                    result = fn(*args, **kwargs)
                    self.seconds[name] += time.perf_counter() - t0
                else:
                    result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(result, args)
                return result

            return wrapped

        self._rebind(owner, attr, make)

    def __enter__(self):
        pf = self.pf
        runner, driver, regularity = pf.runner, pf.driver, pf.regularity
        for attr, short in ESTIMATORS.items():
            self.span(runner, attr, f"regularity.{short}")
        self.span(pf, "run_suite", "runner.suite")
        self.span(runner, "run_experiment", "runner.experiment", tag=lambda args: args[0].name)
        for key in list(runner.CLAIMS):
            self.span(runner.CLAIMS, key, "runner.claims")
        self.span(runner.ReportDocument, "to_text", "runner.report_text")

        def iterations(trace, _):
            self.counts["driver.iterations"] += len(trace) - 1

        for owner in (runner, driver):
            self.span(owner, "iterate", "driver.iterate", on_result=iterations)

        def csv_written(_, args):
            self.counts["driver.csv_rows"] += len(args[0])
            self.counts["driver.csv_bytes"] += Path(args[1]).stat().st_size

        self.span(runner, "trace_to_csv", "driver.trace_to_csv", on_result=csv_written)
        self.span(runner, "fit_rate", "driver.fit_rate")
        self.span(pf, "probe_fixed_points", "driver.probe_fixed_points")

        def rows(points, _):
            self.counts["sampling.rows"] += points.shape[0]

        for owner in (regularity, pf.config):
            self.span(owner, "ball_points", "sampling.ball_points", on_result=rows)
        for owner in (regularity, pf.sampling):  # SolutionSet.sample_points imports it late
            self.span(owner, "on_set_points", "sampling.on_set_points", on_result=rows)

        for owner in (runner, driver, regularity, pf.sampling, pf.sets):
            self.count(owner, "complement_basis", "linalg.complement_basis", timed=True)
        for cls in (pf.AlternatingProjections, pf.DouglasRachford):
            self.count(cls, "step", "operators.step")
        for cls_name, variant in SET_VARIANTS.items():
            def tied(outcome, _, variant=variant):
                if outcome.branch_count > 1:
                    self.counts[f"sets.tied.{variant}"] += 1

            self.count(getattr(pf.sets, cls_name), "project", f"sets.project.{variant}", on_result=tied)
        self.count(pf.SolutionSet, "distance", "solution.distance")
        return self

    def __exit__(self, *exc):
        while self._restore:
            self._restore.pop()()
        return False

    # -- summaries ------------------------------------------------------------
    def span_seconds(self):
        """Total duration per span name."""
        out = Counter()
        calls = Counter()
        for name, start, end, _ in self.spans:
            out[name] += end - start
            calls[name] += 1
        return out, calls

    def self_seconds(self):
        """Per layer: span durations minus the time their child spans cover."""
        child = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name.split(".", 1)[0]] += (end - start) - child[i]
        return out

    def metrics(self, wall_s, cpu_s):
        """Per-layer metrics of one traced pass."""
        secs, calls = self.span_seconds()
        c = self.counts
        m = {}
        for short in REPORTED_ESTIMATORS:
            m[f"regularity.{short}_s"] = secs[f"regularity.{short}"]
            m[f"regularity.{short}_calls"] = calls[f"regularity.{short}"]
        regularity_s = sum(v for k, v in secs.items() if k.startswith("regularity."))
        m["regularity.wall_share"] = regularity_s / wall_s
        m["sampling.on_set_points_s"] = secs["sampling.on_set_points"]
        m["sampling.ball_points_s"] = secs["sampling.ball_points"]
        m["sampling.rows"] = c["sampling.rows"]
        m["linalg.complement_basis_calls"] = c["linalg.complement_basis"]
        m["linalg.complement_basis_s"] = self.seconds["linalg.complement_basis"]
        iterate_s = secs["driver.iterate"]
        m["driver.iterate_s"] = iterate_s
        m["driver.iterate_calls"] = calls["driver.iterate"]
        m["driver.iterations"] = c["driver.iterations"]
        m["driver.us_per_iteration"] = iterate_s / c["driver.iterations"] * 1e6 if c["driver.iterations"] else 0.0
        m["driver.iterate_wall_share"] = iterate_s / wall_s
        per_call = [(e - s) * 1e3 for n, s, e, _ in self.spans if n == "driver.iterate"]
        m["driver.iterate_call_p50_ms"] = float(np.percentile(per_call, 50)) if per_call else 0.0
        m["driver.iterate_call_p90_ms"] = float(np.percentile(per_call, 90)) if per_call else 0.0
        m["driver.trace_to_csv_s"] = secs["driver.trace_to_csv"]
        m["driver.csv_rows"] = c["driver.csv_rows"]
        m["driver.csv_bytes"] = c["driver.csv_bytes"]
        m["driver.fit_rate_s"] = secs["driver.fit_rate"]
        m["operators.step_calls"] = c["operators.step"]
        for variant in SET_VARIANTS.values():
            n = c[f"sets.project.{variant}"]
            m[f"sets.project_calls.{variant}"] = n
            m[f"sets.tied_ratio.{variant}"] = c[f"sets.tied.{variant}"] / n if n else 0.0
        m["solution.distance_calls"] = c["solution.distance"]
        for name in PRESETS:
            m[f"runner.experiment_s.{name}"] = secs[f"runner.experiment.{name}"]
        m["runner.claims_s"] = secs["runner.claims"]
        m["runner.report_text_s"] = secs["runner.report_text"]
        m["runner.cpu_s"] = cpu_s
        self_s = self.self_seconds()
        for layer in SELF_TIME_LAYERS:
            m[f"{layer}.self_s"] = self_s[layer]
        return m

    def span_records(self, pass_id):
        return [
            {"pass": pass_id, "name": n, "start": s, "end": e, "parent": p}
            for n, s, e, p in self.spans
        ]
