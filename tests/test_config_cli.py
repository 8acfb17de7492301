import subprocess
import sys

import pytest

from projfeas.cli import main
from projfeas.config import ConfigError, parse_config, serialize_config
from projfeas.presets import PRESETS, SWEEPS, preset
from projfeas.runner import run_experiment

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
    ):
        text = MINIMAL.replace("start: {point: [1.0, 0.0]}", region)
        with pytest.raises(ConfigError) as err:
            parse_config(text.replace(old, new))
        assert path in str(err.value)
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


def test_reports_deterministic_modulo_timestamp(tmp_path):
    cfg = preset("example-i")
    doc1 = run_experiment(cfg, out_dir=tmp_path / "a", samples=256)
    doc2 = run_experiment(cfg, out_dir=tmp_path / "b", samples=256)
    t1 = (tmp_path / "a" / cfg.outputs.report).read_text().split("\n", 1)[1]
    t2 = (tmp_path / "b" / cfg.outputs.report).read_text().split("\n", 1)[1]
    assert t1 == t2


def test_cli_run_preset(tmp_path, capsys):
    code = main(["run", "example-i", "--out-dir", str(tmp_path), "--samples", "256"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdicts:" in out
    assert (tmp_path / "example-i.trace.csv").exists()


def test_cli_run_config_file(tmp_path, capsys):
    path = tmp_path / "cfg.yaml"
    path.write_text(MINIMAL)
    code = main(["run", str(path), "--out-dir", str(tmp_path), "--samples", "256"])
    assert code == 0
    capsys.readouterr()


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
    assert out.stdout.splitlines() == sorted(PRESETS) + [f"{name} (sweep)" for name in SWEEPS]


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
