"""The comparison scripts in ``tools/``, on small inputs: no test here runs
the suite or the benchmark.  ``bench_pairs`` runs against two stub trees
whose ``perfbench/run.py`` prints a fixed result at once."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


contract = _load("contract")
bench_pairs = _load("bench_pairs")

WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}


def test_first_difference_of_equal_texts_is_none():
    assert contract.first_difference("a\nb\n", "a\nb\n") is None


def test_first_difference_names_the_changed_line():
    assert contract.first_difference("a\nb\nc\n", "a\nB\nc\n") == "line 2: 'b\\n' != 'B\\n'"
    assert contract.first_difference("a\n", "a\nb\n") == "line 2: <end> != 'b\\n'"


def test_first_difference_reads_a_path_as_a_stream(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("n,x\n0,1.5\n")
    assert contract.first_difference(path, "n,x\n0,1.5\n") is None
    assert contract.first_difference("n,x\n0,2.5\n", path) == "line 2: '0,2.5\\n' != '0,1.5\\n'"


def test_first_difference_of_a_one_sided_artifact():
    assert contract.first_difference("a\n", None) == "only in PARENT"
    assert contract.first_difference(None, "a\n") == "only in CHANGE"


@pytest.mark.parametrize("tool", [contract, bench_pairs], ids=["contract", "bench_pairs"])
def test_main_exits_2_on_wrong_arguments(tool, tmp_path, capsys):
    for argv in ([], [str(tmp_path)], [str(tmp_path), str(tmp_path)], [str(tmp_path)] * 3):
        assert tool.main(argv) == 2
        assert "usage: python tools/" in capsys.readouterr().err


def test_summary_row_reads_medians_quartiles_pairs_and_move():
    row = bench_pairs.summary_row("suite", WALL, [1.0, 2.0, 3.0, 4.0, 5.0], [1.1, 1.9, 2.9, 4.1, 4.9])
    assert row == "| suite | wall_s | 3.000 [1.500–4.500] s | 2.900 [1.500–4.500] s | 3/5 | -3.3% |"


def test_summary_row_flags_a_move_past_the_bound():
    within = bench_pairs.summary_row("w", WALL, [1.0, 1.0], [1.2, 1.2])
    assert within.endswith("| 0/2 | +20.0% |")
    past = bench_pairs.summary_row("w", WALL, [1.0, 1.0], [1.3, 1.3])
    assert past.endswith("| 0/2 | +30.0%, worse than the 25% bound |")
    higher = {**WALL, "better": "higher"}
    assert bench_pairs.summary_row("w", higher, [1.0, 1.0], [0.7, 0.7]).endswith("worse than the 25% bound |")


STUB_RUN = """
import json, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
with open({log!r}, "a") as f:
    f.write(f"{side} {{seed}} {{' '.join(sys.argv[1:])}}\\n")
if seed in {fail}:
    print("perfbench: FAILED op: stub", file=sys.stderr)
    sys.exit(1)
print(json.dumps({{"context": {{}}}}))
metrics = {{"wall_s": {{"value": {scale} * seed, "unit": "s"}}}}
print(json.dumps({{"correct": True, "attempted": 2, "failed": 0, "metrics": metrics}}))
"""


def _stub_tree(root, side, scale, fail, log):
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(STUB_RUN.format(log=str(log), side=side, scale=scale, fail=fail))
    spec = {"run_seconds": 3, "workloads": [{"name": "w"}], "end_to_end": [WALL]}
    (root / "BENCHMARK.json").write_text(json.dumps(spec))
    return root


def test_bench_pairs_alternates_the_trees_and_exits_1_on_a_failed_run(tmp_path, capsys):
    log = tmp_path / "runs.log"
    parent = _stub_tree(tmp_path / "parent", "PARENT", 1.0, set(), log)
    change = _stub_tree(tmp_path / "change", "CHANGE", 0.5, {3}, log)
    assert bench_pairs.main([str(parent), str(change)]) == 1
    runs = log.read_text().splitlines()
    order = [tuple(r.split()[:2]) for r in runs]
    assert order == [(s, str(n)) for n in range(1, 11)
                     for s in (("PARENT", "CHANGE") if n % 2 else ("CHANGE", "PARENT"))]
    assert all(r.endswith("--workload w --seed " + r.split()[1] + " --seconds 3 --trace 0") for r in runs)
    out = capsys.readouterr().out.splitlines()
    # seed 3's pair is left out of the table: 9 pairs, every one lower by half
    assert out[2] == "| w | wall_s | 6.000 [3.000–8.500] s | 3.000 [1.500–4.250] s | 9/9 | -50.0% |"
    assert out[3:] == ["FAILED w seed 3 CHANGE: exit status 1: perfbench: FAILED op: stub"]
