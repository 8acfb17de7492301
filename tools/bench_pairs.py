"""Time two projfeas source trees against each other on the benchmark.

    python tools/bench_pairs.py PARENT CHANGE

PARENT and CHANGE are two source trees, such as two ``git archive`` copies
of two commits.  For each workload of PARENT's ``BENCHMARK.json`` the script
runs ten alternating pairs of ``perfbench/run.py --trace 0``: each tree's own
copy, from inside that tree, under the interpreter that runs this script,
for ``run_seconds`` of ``BENCHMARK.json``.  Pair ``n`` runs at seed ``n``,
PARENT first on odd seeds and CHANGE first on even ones, so that a drift of
the host's speed falls on both sides alike.

The script prints one Markdown table row per workload and end-to-end metric:
each side's median with its quartiles (``statistics.quantiles(n=4)``), in
how many pairs the change reads lower, and the move of the median.  A row
whose change median is worse than the parent's by more than the metric's
``bound`` says so in its last cell.  Each run's metrics go to stderr as it
ends.  The script exits 1 if any run fails or reports a failed operation,
naming each, 2 on wrong arguments, and 0 otherwise.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10
SIDES = ("PARENT", "CHANGE")


def run(tree, workload, seed, seconds):
    """One ``perfbench/run.py --trace 0`` run in ``tree``: its metric values,
    or ``None`` and why it failed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        last = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return None, f"exit status {proc.returncode}: {last}"
    result = json.loads(lines[-1])
    if result["failed"]:
        return None, f"{result['failed']} of {result['attempted']} operations failed"
    return {name: m["value"] for name, m in result["metrics"].items()}, None


def summary_row(workload, metric, old, new):
    """The table row of one ``BENCHMARK.json`` end-to-end ``metric`` over the
    paired values ``old`` (PARENT) and ``new`` (CHANGE) of one workload."""
    def spread(xs):
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
        return statistics.median(xs), f"{statistics.median(xs):.3f} [{q1:.3f}–{q3:.3f}] {metric['unit']}"

    (m_old, old_text), (m_new, new_text) = spread(old), spread(new)
    lower = sum(y < x for x, y in zip(old, new))
    move = (m_new - m_old) / m_old
    worse = move > metric["bound"] if metric["better"] == "lower" else -move > metric["bound"]
    flag = f", worse than the {metric['bound']:.0%} bound" if worse else ""
    return f"| {workload} | {metric['name']} | {old_text} | {new_text} | {lower}/{len(old)} | {move:+.1%}{flag} |"


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    trees = [Path(a).resolve() for a in argv]
    if len(trees) != 2 or not all((t / "perfbench" / "run.py").is_file() for t in trees):
        print("usage: python tools/bench_pairs.py PARENT CHANGE (two projfeas source trees)", file=sys.stderr)
        return 2
    spec = json.loads((trees[0] / "BENCHMARK.json").read_text())
    failures = []
    print("| workload | metric | parent | change | change lower | move |\n|---|---|---|---|---|---|", flush=True)
    for workload in (w["name"] for w in spec["workloads"]):
        pairs = []
        for seed in range(1, PAIRS + 1):
            values = {}
            for side in (0, 1) if seed % 2 else (1, 0):
                values[side], error = run(trees[side], workload, seed, spec["run_seconds"])
                if error:
                    failures.append(f"FAILED {workload} seed {seed} {SIDES[side]}: {error}")
                print(f"{workload} seed {seed} {SIDES[side]}: {values[side] or error}", file=sys.stderr, flush=True)
            if values[0] and values[1]:
                pairs.append((values[0], values[1]))
        for metric in spec["end_to_end"] if pairs else ():
            name = metric["name"]
            print(summary_row(workload, metric, [p[name] for p, _ in pairs], [c[name] for _, c in pairs]), flush=True)
    for line in failures:
        print(line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
