import json
import math
import subprocess
import sys
import textwrap
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from projfeas import config
from projfeas.cli import main
from projfeas.config import ConfigError, PointStart, config_from_dict, parse_config, serialize_config
from projfeas.driver import RateFit, fit_rate, iterate
from projfeas.presets import PRESETS, preset
from projfeas.runner import run_experiment, run_suite
from projfeas.sets import Ball

MINIMAL = """
name: two-lines
sets:
  A: {variant: affine, offset: [0.0, 0.0], basis: [[1.0, 0.0]]}
  B: {variant: affine, offset: [0.0, 0.0], basis: [[1.0, 1.0]]}
algorithm: {kind: dr, a: A, b: B}
start: {point: [1.0, 0.0]}
solution:
  witness: [0.0, 0.0]
  members: [A, B]
  exact: {variant: affine, offset: [0.0, 0.0], basis: []}
budget: {max_iters: 200, tol: 1.0e-10}
regularity: {deltas: [1.0], samples: 256, seed: 3}
"""
REGULARITY = "regularity: {deltas: [1.0], samples: 256, seed: 3}"
# an interior witness of the kinked region, 7 from its boundary
KINKED_INTERIOR = """
name: kinked-interior
sets:
  K: {variant: kinked}
solution: {witness: [-5.0, -5.0], members: [K]}
regularity: {deltas: [1.0], samples: 256, seed: 3}
"""
# a ball inside another, about their common centre: every sample lies in both
NESTED_BALLS = """
name: nested-balls
sets:
  A: {variant: ball, center: [0.0, 0.0], radius: 2.0}
  B: {variant: ball, center: [0.0, 0.0], radius: 3.0}
algorithm: {kind: map, a: A, b: B}
start: {center: [0.0, 0.0], radius: 1.0, count: 3}
solution:
  witness: [0.0, 0.0]
  members: [A, B]
  exact: {variant: ball, center: [0.0, 0.0], radius: 2.0}
regularity: {deltas: [0.5]}
"""
LINE_B = "B: {variant: affine, offset: [0.0, 0.0], basis: [[1.0, 1.0]]}"
# the line y = 5, 5 from the witness: no sample of it lies within delta
FAR_LINE = MINIMAL.replace(LINE_B, "B: {variant: affine, offset: [0.0, 5.0], basis: [[1.0, 0.0]]}").replace(
    "members: [A, B]", "members: [A]")
# inputs that are out of range however they reach the schema: (old, new, path)
DEGENERATE = (
    ("members: [A, B]", "members: []", "solution.members"),
    ("members: [A, B]", "members: [[A], B]", "solution.members"),
    (LINE_B, "B: {variant: ball, center: [0.0, 0.0], radius: .inf}", "sets.B"),
    (LINE_B, "B: {variant: sphere, center: [0.0, 0.0], radius: .nan}", "sets.B"),
    (LINE_B, "B: {variant: affine, offset: [0.0, 0.0], basis: [[0.0, 0.0]]}", "sets.B"),
    (LINE_B, "B: {variant: affine, offset: [0.0, 0.0], basis: [[1.0, 1.0], [2.0, 2.0]]}", "sets.B"),
    ("deltas: [1.0]", "deltas: [1.0e300]", "regularity.deltas"),
    ("samples: 256", "samples: 1.0e300", "regularity.samples"),
    # a coordinate of each kind at +-1e300, named down to its entry
    (LINE_B, "B: {variant: affine, offset: [1.0e300, 0.0], basis: [[1.0, 1.0]]}", "sets.B.offset[0]"),
    (LINE_B, "B: {variant: affine, offset: [0.0, 0.0], basis: [[1.0, -1.0e300]]}", "sets.B.basis[0][1]"),
    (LINE_B, "B: {variant: ball, center: [0.0, -1.0e300], radius: 1.0}", "sets.B.center[1]"),
    (LINE_B, "B: {variant: sphere, center: [1.0e300, 0.0], radius: 1.0}", "sets.B.center[0]"),
    (LINE_B, "B: {variant: union, frames: [{offset: [0.0, 0.0], basis: [[1.0, 1.0]]}, "
             "{offset: [0.0, 0.0], basis: [[1.0e300, 1.0]]}]}", "sets.B.frames[1].basis[0][0]"),
    ("witness: [0.0, 0.0]", "witness: [0.0, 1.0e300]", "solution.witness[1]"),
    ("exact: {variant: affine, offset: [0.0, 0.0]", "exact: {variant: affine, offset: [-1.0e300, 0.0]",
     "solution.exact.offset[0]"),
    # an integer literal past the largest double
    (LINE_B, "B: {variant: ball, center: [0.0, 0.0], radius: 1" + "0" * 400 + "}", "sets.B"),
    ("witness: [0.0, 0.0]", "witness: [0.0, 1" + "0" * 400 + "]", "solution.witness"),
)


def test_parse_minimal_config():
    cfg = parse_config(MINIMAL)
    assert cfg.name == "two-lines"
    assert cfg.algorithm.kind == "dr"
    assert cfg.sets["A"].dim == 2
    sol = cfg.solution_set()
    assert sol.distance([3.0, 4.0]) == pytest.approx(5.0)


def test_round_trip_all_presets():
    for name in PRESETS:
        cfg = preset(name)
        again = parse_config(serialize_config(cfg))
        assert again == cfg, name
        # and a second round trip is byte-identical
        assert serialize_config(again) == serialize_config(cfg)


def _owned(cfg):
    """A config's sets and exact solution set, and its witness and start point or ball center."""
    geometry = [s for s in (*cfg.sets.values(), cfg.solution.exact) if s is not None]
    arrays = [cfg.solution.witness]
    if cfg.start is not None:
        arrays.append(cfg.start.point if isinstance(cfg.start, PointStart) else cfg.start.center)
    return geometry, arrays


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_shares_nothing_between_calls(name):
    first, second = preset(name), preset(name)
    expected = serialize_config(second)
    (geometry, arrays), (other_geometry, other_arrays) = _owned(first), _owned(second)
    for s, t in zip(geometry, other_geometry, strict=True):
        assert s is not t
    for mine, theirs in zip(arrays, other_arrays, strict=True):
        assert not np.shares_memory(mine, theirs)
        mine += 1.0  # a caller writing into its own config
    assert serialize_config(second) == expected
    assert serialize_config(preset(name)) == expected


def test_unknown_set_variant():
    line_a = "A: {variant: affine, offset: [0.0, 0.0], basis: [[1.0, 0.0]]}"
    point = "{variant: affine, offset: [0.0, 0.0], basis: []}"
    # no run builds an intersection, so the config does not know the variant
    intersection = f"{{variant: intersection, members: [{point}]}}"
    for old, new, path in (
        (line_a, "A: {variant: frobnicate}", "sets.A"),
        (line_a, f"A: {intersection}", "sets.A"),
        (f"exact: {point}", f"exact: {intersection}", "solution.exact"),
    ):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL.replace(old, new))
        assert path in str(err.value)


def test_out_of_range_budget_and_start():
    region = "start: {center: [0.0, 0.0], radius: 1.0, count: 3}"
    budget = "budget: {max_iters: 200, tol: 1.0e-10}"
    for old, new, path in (
        (budget, "budget: {max_iters: 0, tol: 1.0e-10}", "budget.max_iters"),
        (budget, "budget: {max_iters: 200, tol: 0.0}", "budget.tol"),
        (budget, "budget: {max_iters: 200, tol: -1.0}", "budget.tol"),
        (region, "start: {center: [0.0, 0.0], radius: 1.0, count: 0}", "start.count"),
        (region, "start: {center: [0.0, 0.0], radius: -1.0, count: 3}", "start.radius"),
        # values that do not convert, and sections that are not mappings
        (budget, "budget: {max_iters: abc, tol: 1.0e-10}", "budget.max_iters"),
        (budget, "budget: [1, 2]", "<root>.budget"),
        (region, "start: {center: [0.0, 0.0], radius: abc, count: 3}", "start.radius"),
        (region, "start: {center: [0.0, 0.0], radius: .nan, count: 3}", "start.radius"),
        (region, "start: {center: [.inf, 0.0], radius: 1.0, count: 3}", "start.center"),
        (region, "start: {point: [.nan, 0.0]}", "start.point"),
        (region, "start: {center: [0.0, 0.0], radius: 1.0, count: 2.7}", "start.count"),
        (REGULARITY, "regularity: {deltas: [1.0], samples: abc, seed: 3}", "regularity.samples"),
        (REGULARITY, "regularity: {deltas: 5, samples: 256, seed: 3}", "regularity.deltas"),
        (REGULARITY, "regularity: {deltas: [1.0], samples: 256, seed: 1.5}", "regularity.seed"),
        # and values out of range
        (REGULARITY, "regularity: {deltas: [-1.0], samples: 256, seed: 3}", "regularity.deltas"),
        (REGULARITY, "regularity: {deltas: [0.0], samples: 256, seed: 3}", "regularity.deltas"),
        (REGULARITY, "regularity: {deltas: [1.0], samples: 0, seed: 3}", "regularity.samples"),
        (REGULARITY, "regularity: {deltas: [1.0], samples: -5, seed: 3}", "regularity.samples"),
        (REGULARITY, "regularity: {deltas: [1.0], samples: 256, seed: -3}", "regularity.seed"),
        (budget, "budget: {max_iters: 200, tol: .inf}", "budget.tol"),
        # keys the schema does not name, at every level, and outputs that are not strings
        (budget, "budget: {max_iter: 5}", "budget.max_iter"),
        (region, "start: {point: [1.0, 0.0], count: 5}", "start.count"),
        (region, "start: {center: [0.0, 0.0], radius: 1.0, count: 3, seed: 1}", "start.seed"),
        (REGULARITY, "regularity: {deltas: [1.0], sample: 256, seed: 3}", "regularity.sample"),
        (budget, f"{budget}\noutputs: {{report: 5}}", "outputs.report"),
        (budget, f"{budget}\nbudgets: {{max_iters: 5}}", "<root>.budgets"),
        ("algorithm: {kind: dr, a: A, b: B}", "algorithm: {kind: dr, a: A, b: B, c: B}", "algorithm.c"),
        ("members: [A, B]", "members: [A, B]\n  anchor: [0.0, 0.0]", "solution.anchor"),
        ("basis: []}", "basis: [], radius: 1.0}", "solution.exact.radius"),
        ("A: {variant: affine,", "A: {variant: affine, center: [0.0, 0.0],", "sets.A.center"),
        ("A: {variant: affine, offset: [0.0, 0.0], basis: [[1.0, 0.0]]}", "A: [1.0, 0.0]", "sets.A"),
        ("A: {variant: affine, offset: [0.0, 0.0], basis: [[1.0, 0.0]]}",
         "A: {variant: union, frames: [{offset: [0.0, 0.0], basis: [[1.0, 0.0]], scale: 2.0}]}",
         "sets.A.frames[0].scale"),
        (region, "start: {center: [0.0, 0.0], radius: 1.0e300, count: 3}", "start.radius"),
        (region, "start: {center: [0.0, 0.0], radius: 1.0, count: 1.0e300}", "start.count"),
        (region, "start: {center: [0.0, 0.0], radius: 1.0, count: 1" + "0" * 400 + "}", "start.count"),
        (region, "start: {center: [-1.0e300, 0.0], radius: 1.0, count: 3}", "start.center[0]"),
        (region, "start: {point: [0.0, 1.0e300]}", "start.point[1]"),
        *DEGENERATE,
    ):
        text = MINIMAL.replace("start: {point: [1.0, 0.0]}", region)
        with pytest.raises(ConfigError) as err:
            parse_config(text.replace(old, new))
        assert path in str(err.value) and len(str(err.value)) < 120
        if path in ("start.count", "regularity.samples") and "1.0e300" in new:  # short, with its bound
            assert str(err.value) == f"{path}: must be in [1, {config.MAX_COUNT}], got 1e+300"
    # past the 4300 digits Python converts, the YAML reader itself fails
    with pytest.raises(ConfigError, match="^<root>: invalid YAML"):
        parse_config(MINIMAL.replace("samples: 256", "samples: 1" + "0" * 5000))
    # overrides go through the same checks
    cfg = parse_config(MINIMAL)
    for override, path in (
        ({"max_iters": 0}, "budget.max_iters"),
        ({"tol": -1.0}, "budget.tol"),
        ({"samples": 0}, "regularity.samples"),
        ({"seed": -3}, "regularity.seed"),
    ):
        with pytest.raises(ConfigError) as err:
            cfg.with_overrides(**override)
        assert path in str(err.value)


def test_wrong_dimension_start_point():
    bad = MINIMAL.replace("start: {point: [1.0, 0.0]}", "start: {point: [1.0, 0.0, 3.0]}")
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert "start.point" in str(err.value)


def test_missing_witness():
    bad = MINIMAL.replace("witness: [0.0, 0.0]", "anchor: [0.0, 0.0]")
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert "solution.witness" in str(err.value)


def test_unknown_algorithm_reference():
    bad = MINIMAL.replace("algorithm: {kind: dr, a: A, b: B}",
                          "algorithm: {kind: dr, a: A, b: C}")
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert "algorithm.b" in str(err.value)


def test_witness_not_in_members():
    bad = MINIMAL.replace("witness: [0.0, 0.0]", "witness: [0.0, 5.0]")
    with pytest.raises(ConfigError):
        parse_config(bad)


def test_run_experiment_writes_outputs(tmp_path):
    cfg = parse_config(MINIMAL)
    cfg.outputs = type(cfg.outputs)("t.csv", "r.txt")
    doc = run_experiment(cfg, out_dir=tmp_path)
    assert (tmp_path / "t.csv").exists()
    assert (tmp_path / "r.txt").exists()
    assert doc.exit_status == 0  # no registered claims for ad-hoc configs
    text = (tmp_path / "r.txt").read_text()
    assert text.startswith("# generated:")
    assert "--- machine ---" in text


def _machine(report):
    """The parsed JSON line under a report's ``--- machine ---`` marker."""
    return json.loads(report.read_text().split("--- machine ---\n", 1)[1])


@pytest.mark.parametrize("name, max_iters", [("example-i", None), ("example-iii", 2000)])
def test_machine_records_verdicts_and_fit(tmp_path, name, max_iters):
    cfg = preset(name)
    doc = run_experiment(cfg.with_overrides(samples=256, max_iters=max_iters), out_dir=tmp_path)
    machine = _machine(tmp_path / cfg.outputs.report)
    assert machine["name"] == name
    # json writes a tuple as a list: compare measured values as json reads them back
    assert machine["verdicts"] == [
        {"claim_id": v.claim_id, "passed": v.passed, "measured": json.loads(json.dumps(v.measured)),
         "bound": v.bound, "detail": v.detail}
        for v in doc.verdicts
    ]
    # the fit of the run's one trace, recomputed from the same start and budget
    budget = cfg.with_overrides(max_iters=max_iters).budget
    trace = iterate(cfg.operator(), cfg.start.point, cfg.solution_set(),
                    max_iters=budget.max_iters, tol=budget.tol)
    fit = fit_rate(trace)
    assert machine["fit"] == {f.name: getattr(fit, f.name) for f in fields(RateFit)}


def test_reports_deterministic_modulo_timestamp(tmp_path):
    cfg = preset("example-i")
    doc1 = run_experiment(cfg.with_overrides(samples=256), out_dir=tmp_path / "a")
    doc2 = run_experiment(cfg.with_overrides(samples=256), out_dir=tmp_path / "b")
    t1 = (tmp_path / "a" / cfg.outputs.report).read_text().split("\n", 1)[1]
    t2 = (tmp_path / "b" / cfg.outputs.report).read_text().split("\n", 1)[1]
    assert t1 == t2


def test_claim_bounds_follow_the_run():
    # a bound prints the budget and the start count the run had
    doc = run_experiment(preset("example-iii").with_overrides(samples=256, max_iters=2000))
    (tolerance,) = [v for v in doc.verdicts if v.claim_id == "iii-map-tolerance-within-budget"]
    assert tolerance.bound == "< 1e-6 within 2000 iterations"
    assert tolerance.detail.endswith("unreachable in 2000 iterations")
    cfg = preset("example-iv")
    doc = run_experiment(replace(cfg, start=replace(cfg.start, count=5)).with_overrides(samples=256))
    (converge,) = [v for v in doc.verdicts if v.claim_id == "iv-dr-all-starts-converge"]
    assert len(doc.traces) == 5
    assert converge.bound == "all 5 starts < 1e-8"


@pytest.mark.parametrize("name, claim_id", [
    ("example-i", "i-dr-step-rate"),
    ("example-i-map", "i-map-cycle-rate"),
    ("example-ii-inplane", "ii-dr-inplane-rate"),
    ("example-v", "v-dr-linear-fit"),
    ("example-v-map", "v-map-linear-fit"),
])
def test_rate_claim_without_a_fit_fails(tmp_path, name, claim_id):
    # five steps leave too few entries to fit a rate: the claim reads FAIL
    # with the reason, and the report is still written, with no fit entry
    doc = run_experiment(preset(name).with_overrides(samples=64, max_iters=5), out_dir=tmp_path)
    (rate,) = [v for v in doc.verdicts if v.claim_id == claim_id]
    assert doc.exit_status == 1
    assert not rate.passed and rate.measured is None
    assert "need at least 10" in rate.detail
    assert "fit" not in _machine(tmp_path / f"{name}.report.txt")


# the claims of each iterating preset that read its first trace, every trace or the rate fit
TRACE_CLAIMS = {
    "example-i": ("i-dr-tolerance", "i-dr-step-rate"),
    "example-i-map": ("i-map-tolerance", "i-map-cycle-rate"),
    "example-ii": ("ii-dr-fixed-off-intersection",),
    "example-ii-inplane": ("ii-dr-inplane-rate",),
    "example-iii": ("iii-map-tolerance-within-budget", "iii-map-sublinear"),
    "example-iii-dr": ("iii-dr-fixed-point-off-intersection",),
    "example-iv": ("iv-dr-all-starts-converge",),
    "example-iv-map": ("iv-map-all-starts-converge",),
    "example-v": ("v-dr-linear-fit", "v-dr-bound-dominates"),
    "example-v-map": ("v-map-linear-fit",),
}


@pytest.mark.parametrize("name", sorted(TRACE_CLAIMS))
def test_trace_claims_without_a_start_fail(name):
    # nothing is iterated, so every claim on a trace or its fit reads FAIL
    # with the reason; zero starts never pass
    doc = run_experiment(replace(preset(name), start=None).with_overrides(samples=64))
    assert doc.exit_status == 1
    read = [v for v in doc.verdicts if v.claim_id in TRACE_CLAIMS[name]]
    assert len(read) == len(TRACE_CLAIMS[name])
    for v in read:
        assert not v.passed and v.measured is None
        assert "no trace" in v.detail


@pytest.mark.parametrize("name", sorted(TRACE_CLAIMS))
def test_preset_claims_need_the_preset_geometry(name):
    # a preset's claims are statements about its sets, algorithm and
    # solution: a config that changes one of them is report-only
    doc = run_experiment(replace(preset(name), algorithm=None).with_overrides(samples=64))
    assert doc.verdicts == [] and doc.exit_status == 0
    cfg = preset(name)
    mine, read_back = ([v.claim_id for v in run_experiment(c.with_overrides(samples=64, max_iters=50)).verdicts]
                       for c in (cfg, parse_config(serialize_config(cfg))))
    assert mine == read_back and set(TRACE_CLAIMS[name]) <= set(mine)


def test_preset_with_another_set_is_report_only():
    cfg = preset("example-ii")
    cfg = replace(cfg, sets={**cfg.sets, "B": Ball([0.0, 0.0, 0.0], 1.0)})
    doc = run_experiment(cfg.with_overrides(samples=64))
    assert doc.verdicts == [] and doc.exit_status == 0


DROPS = ("start", "algorithm", "solution.exact", "solution", "budget", "regularity", "outputs",
         "name", "sets")


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(PRESETS)), st.sampled_from((None,) + DROPS),
       st.integers(1, 50), st.integers(1, 64))
def test_preset_without_a_section_ends_in_a_config_error_or_verdicts(name, drop, max_iters, samples):
    data = yaml.safe_load(serialize_config(preset(name)))
    if drop is not None:
        *parents, key = drop.split(".")
        section = data
        for parent in parents:
            section = section[parent]
        section.pop(key, None)
    try:
        cfg = config_from_dict(data)
    except ConfigError as err:
        assert err.path
        return
    doc = run_experiment(cfg.with_overrides(samples=samples, max_iters=max_iters))
    assert doc.exit_status in (0, 1)


def test_documented_configs_parse():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("### Config format", 1)[1]
    readme_yaml = section.split("```yaml\n", 1)[1].split("```", 1)[0]
    docstring_yaml = textwrap.dedent(config.__doc__.split("::\n\n", 1)[1].split("\n\n", 1)[0])
    for text in (readme_yaml, docstring_yaml):
        assert parse_config(text).name == "two-lines"


def test_cli_run_preset(tmp_path, capsys):
    code = main(["run", "example-i", "--out-dir", str(tmp_path), "--samples", "256"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdicts:" in out
    assert (tmp_path / "example-i.trace.csv").exists()


def test_cli_run_config_file(tmp_path, capsys):
    path = tmp_path / "cfg.yaml"
    for text in (MINIMAL, KINKED_INTERIOR):
        path.write_text(text)
        code = main(["run", str(path), "--out-dir", str(tmp_path), "--samples", "256"])
        assert code == 0
    # the kinked chart holds the interior witness itself, whose cone is zero
    machine = json.loads(capsys.readouterr().out.rsplit("--- machine ---\n", 1)[1])
    assert machine["sweep"] == [{"delta": 1.0, "eps_sub": 0.0, "eps_pair": 0.0}]


@pytest.mark.parametrize("verb", ["run", "rates"])
def test_cli_nested_balls_read_kappa_zero(tmp_path, verb, subprocess_env):
    # no sample has a distance to either set, so kappa takes its supremum over
    # no ratio: 0, not a traceback
    path = tmp_path / "nested.yaml"
    path.write_text(NESTED_BALLS)
    out = subprocess.run(
        [sys.executable, "-W", "error", "-m", "projfeas", verb, str(path), "--out-dir", str(tmp_path)],
        env=subprocess_env, capture_output=True, text=True,
    )
    assert out.returncode == 0 and "Traceback" not in out.stderr, out.stderr
    machine = json.loads(out.stdout.rsplit("--- machine ---\n", 1)[1])
    assert [row["kappa"] for row in machine["sweep"]] == [0.0]


@pytest.mark.parametrize("delta", [1e-13, 1e-12, 1e8, 1e12, 1e150])
def test_cli_rates_read_kappa_at_every_scale(delta, tmp_path, subprocess_env):
    # example-i's two lines are a cone: kappa is 1/sin(pi/8) at every delta.
    # An absolute gap floor read 0 below 1e-11, and an absolute membership
    # tolerance rejected the sampled points from 1e8 on
    cfg = preset("example-i")
    path = tmp_path / "example-i.yaml"
    path.write_text(serialize_config(replace(cfg, regularity=replace(cfg.regularity, deltas=(delta,)))))
    out = subprocess.run(
        [sys.executable, "-W", "error", "-m", "projfeas", "rates", str(path), "--out-dir", str(tmp_path)],
        env=subprocess_env, capture_output=True, text=True,
    )
    assert out.returncode == 0 and "Traceback" not in out.stderr, out.stderr
    machine = json.loads(out.stdout.rsplit("--- machine ---\n", 1)[1])
    assert [row["delta"] for row in machine["sweep"]] == [delta]
    assert machine["sweep"][0]["kappa"] >= 0.999 / math.sin(math.pi / 8)


def test_cli_rates_only(tmp_path, capsys):
    code = main(["rates", "kinked-regularity", "--out-dir", str(tmp_path), "--samples", "512"])
    out = capsys.readouterr().out
    assert code == 0
    assert "eps_pair" in out


def test_cli_config_error_exit_2(tmp_path, capsys):
    assert main(["run", "no-such-preset"]) == 2
    capsys.readouterr()
    # malformed and out-of-range values are config errors, not a failed verdict
    for flag, value, path in (
        ("--max-iters", "0", "budget."),
        ("--tol", "-1", "budget."),
        ("--samples", "0", "regularity.samples"),
        ("--seed", "-3", "regularity.seed"),
        ("--tol", "inf", "budget.tol"),
    ):
        assert main(["run", "example-i", "--out-dir", str(tmp_path), flag, value]) == 2
        assert f"config error: {path}" in capsys.readouterr().err
    cfg = tmp_path / "cfg.yaml"
    for old, new, path in (
        ("{point: [1.0, 0.0]}", "{center: [0.0, 0.0], radius: 1.0, count: 0}", "start.count"),
        ("max_iters: 200", "max_iters: abc", "budget.max_iters"),
        ("budget: {max_iters: 200, tol: 1.0e-10}", "budget: [1, 2]", "<root>.budget"),
        ("deltas: [1.0]", "deltas: 5", "regularity.deltas"),
        ("deltas: [1.0]", "deltas: [0.0]", "regularity.deltas"),
        ("seed: 3", "seed: -3", "regularity.seed"),
        ("tol: 1.0e-10", "tol: .inf", "budget.tol"),
        ("max_iters: 200", "max_iter: 200", "budget.max_iter"),
        ("{point: [1.0, 0.0]}", "{point: [1.0, 0.0], count: 5}", "start.count"),
        ("name: two-lines", "name: two-lines\noutputs: {report: 5}", "outputs.report"),
        ("{point: [1.0, 0.0]}", "{center: [0.0, 0.0], radius: 1.0e300, count: 3}", "start.radius"),
        ("{point: [1.0, 0.0]}", "{center: [0.0, 0.0], radius: 1.0, count: 1.0e300}", "start.count"),
        ("{point: [1.0, 0.0]}", "{center: [-1.0e300, 0.0], radius: 1.0, count: 3}", "start.center[0]"),
        ("{point: [1.0, 0.0]}", "{point: [0.0, 1.0e300]}", "start.point[1]"),
        (MINIMAL, FAR_LINE, "regularity.deltas: set 'B' lies 5 from the witness, past delta 1"),
        *DEGENERATE,
    ):
        cfg.write_text(MINIMAL.replace(old, new))
        assert main(["run", str(cfg), "--out-dir", str(tmp_path)]) == 2
        assert f"config error: {path}" in capsys.readouterr().err


def test_cli_usage_error_exit_2(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_cli_presets_listing(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    assert "example-i" in out and "subspace-iff (sweep)" in out


def test_python_m_projfeas_lists_presets(subprocess_env):
    out = subprocess.run(
        [sys.executable, "-m", "projfeas", "presets"],
        env=subprocess_env, capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == sorted(PRESETS) + ["subspace-iff (sweep)"]


def test_yaml_is_imported_only_to_read_or_write_yaml(subprocess_env):
    code = ("import sys, projfeas, projfeas.cli; cfg = projfeas.presets.preset('example-iii'); "
            "print('yaml' in sys.modules); projfeas.serialize_config(cfg); print('yaml' in sys.modules)")
    out = subprocess.run(
        [sys.executable, "-W", "error", "-c", code],
        env=subprocess_env, capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", "True"]


def test_cli_suite_subset(tmp_path, capsys):
    code = main([
        "suite", "example-i", "kinked-regularity",
        "--out-dir", str(tmp_path), "--samples", "512",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "example-i :: i-dr-step-rate" in out
    assert "kinked-regularity :: kink-pair-regularity-interval" in out


def test_cli_suite_unknown_name(capsys):
    assert main(["suite", "bogus"]) == 2
    capsys.readouterr()


def test_suite_refuses_an_unknown_name_before_any_run(tmp_path):
    lines = []
    with pytest.raises(ConfigError, match="<suite>: unknown preset 'bogus'"):
        run_suite(["example-i", "bogus"], out_dir=tmp_path, echo=lines.append)
    assert lines == [] and not any(tmp_path.iterdir())


def _machine(report):
    return json.loads(report.read_text().split("--- machine ---\n")[1])


def test_cli_sweep_runs_from_the_seed_flag(tmp_path, capsys):
    assert main(["suite", "subspace-iff", "--seed", "3", "--out-dir", str(tmp_path)]) == 0
    assert "[pass] subspace-iff :: subspace-iff-rank-test-match" in capsys.readouterr().out
    sweep = _machine(tmp_path / "subspace-iff.report.txt")["sweep"]
    assert [pair["seed"] for pair in sweep] == list(range(3, 23))


@pytest.mark.parametrize("flag, path", [
    ("--samples", "regularity.samples"), ("--max-iters", "budget.max_iters"), ("--tol", "budget.tol"),
])
def test_cli_sweep_range_checks_its_flags(flag, path, tmp_path, capsys):
    assert main(["suite", "subspace-iff", flag, "0", "--out-dir", str(tmp_path)]) == 2
    assert f"config error: {path}: must be" in capsys.readouterr().err
    assert not (tmp_path / "subspace-iff.report.txt").exists()


@pytest.mark.parametrize("verb", ["run", "rates"])
def test_cli_sweep_runs_only_through_suite(verb, tmp_path, capsys):
    # the sweep is no one experiment: `run` and `rates` refuse it and name `suite`
    assert main([verb, "subspace-iff", "--out-dir", str(tmp_path)]) == 2
    assert "is a sweep of many experiments: run it with `projfeas suite subspace-iff`" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_cli_sweep_too_short_to_fit_reads_fail(tmp_path, capsys):
    # a trace too short to fit a rate reads as not linear: a FAIL verdict, not a traceback
    assert main(["suite", "subspace-iff", "--max-iters", "1", "--out-dir", str(tmp_path)]) == 1
    assert "[FAIL] subspace-iff :: subspace-iff-rank-test-match (measured=10/20," in capsys.readouterr().out


def test_sweep_reports_differ_only_in_their_timestamp(tmp_path, capsys):
    texts = []
    for run in ("first", "second"):
        assert main(["suite", "subspace-iff", "--out-dir", str(tmp_path / run)]) == 0
        lines = (tmp_path / run / "subspace-iff.report.txt").read_text().splitlines()
        assert lines[0].startswith("# generated: ")
        texts.append(lines[1:])
    capsys.readouterr()
    assert texts[0] == texts[1]
    verdicts = {v["claim_id"]: v for v in _machine(tmp_path / "first" / "subspace-iff.report.txt")["verdicts"]}
    assert verdicts["subspace-sweep-runtime"] == {
        "claim_id": "subspace-sweep-runtime", "passed": True, "measured": True, "bound": "< 30 s", "detail": "",
    }


def test_cli_suite_failing_verdict_exit_1(tmp_path, capsys):
    # the example-iii tolerance claim is unattainable (sublinear decay), so
    # a truncated run must exit 1
    code = main([
        "suite", "example-iii",
        "--out-dir", str(tmp_path), "--samples", "256", "--max-iters", "500",
    ])
    out = capsys.readouterr().out
    assert code == 1
    assert "[FAIL] example-iii :: iii-map-tolerance-within-budget" in out
