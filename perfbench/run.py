"""projfeas benchmark: end-to-end and per-layer timings of two workloads.

Run from the repository root:

    python3 perfbench/run.py --workload suite --seed 7 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: set-up time
(median of fresh-interpreter probes), the median wall time of one pass over
the workload's operations, and peak resident memory.  ``--trace 1`` runs
untraced passes, then traced passes, then the microbenchmarks, and reports
the per-layer metrics.  Passes form a closed loop: each starts when the
previous one has finished.  The last line of standard output is the result
object; the line before it holds the run's context (versions, CPUs, commit,
seed, input sizes and every pass's wall time).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import micro
from tracing import Tracer
from workloads import ROOT, SRC, WORKLOADS, BenchError, load_projfeas

SETUP_PROBES = (1, 2)  # before and after the passes, so one slow phase of the machine skews fewer
MIN_TIMED_PASSES = 2  # a suite pass is ~30 s; one pass would sample one phase of a shared host
OUT_DIR = ROOT / ".perfbench"  # scratch trace files and span dumps; git-ignored
PROBE = Path(__file__).resolve().parent / "setup_probe.py"


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup(workload, seed, probes):
    """Seconds from spawning a fresh interpreter to its inputs being built."""
    samples = []
    for _ in range(probes):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(PROBE), workload, str(seed)], stdout=subprocess.PIPE, text=True
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            if proc.wait() != 0 or line.strip() != "ready":
                raise BenchError(f"set-up probe failed (exit {proc.returncode})")
        samples.append(elapsed)
    return samples


def run_passes(workload, scratch, budget_s, tracer_for=None, min_passes=1):
    """Closed loop of passes for about ``budget_s`` seconds (at least ``min_passes``).

    Another pass starts only if it is expected to end within the budget.
    Returns the per-pass records: wall and CPU seconds, ops, and the tracer.
    """
    records = []
    start = time.perf_counter()
    while True:
        tracer = tracer_for() if tracer_for else None
        t0, c0 = time.perf_counter(), time.process_time()
        if tracer is None:
            ops = workload.run_pass(scratch)
        else:
            with tracer:
                ops = workload.run_pass(scratch)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        records.append({"wall_s": wall, "cpu_s": cpu, "ops": ops, "tracer": tracer})
        typical = statistics.median(r["wall_s"] for r in records)
        if len(records) >= min_passes and time.perf_counter() - start + typical > budget_s:
            return records


def _git_commit():
    """HEAD of the checkout if it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _src_digest():
    """SHA-256 over the program's sources, so results name the code they ran."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _context(args, workload, setup_samples, passes, extra):
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
        "src_sha256": _src_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": workload.sizes(),
        "setup_samples_s": setup_samples,
        "pass_wall_s": [r["wall_s"] for r in passes],
        **extra,
    }


def _declared_metrics(section):
    """``{name: unit}`` of one metric section of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def _median(records, key):
    return statistics.median(r[key] for r in records)


def _traced_values(pf, workload, scratch, args):
    """Per-layer metrics: untraced passes, traced passes, microbenchmarks."""
    plain = run_passes(workload, scratch, args.seconds / 2)
    traced = run_passes(workload, scratch, args.seconds / 2, tracer_for=lambda: Tracer(pf))
    per_pass = [r["tracer"].metrics(r["wall_s"], r["cpu_s"]) for r in traced]
    values = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    values["trace.overhead_s"] = _median(traced, "wall_s") - _median(plain, "wall_s")
    micro_values, micro_ops = micro.run(pf, args.seed)
    values.update(micro_values)
    spans = [s for i, r in enumerate(traced) for s in r["tracer"].span_records(i)]
    (OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json").write_text(json.dumps(spans))
    extra = {"traced_pass_wall_s": [r["wall_s"] for r in traced], "micro": micro.sizes()}
    return values, plain + traced, micro_ops, extra


def main(argv=None):
    args = _parse_args(argv)
    try:
        pf = load_projfeas()
        setup_samples = [] if args.trace else measure_setup(args.workload, args.seed, SETUP_PROBES[0])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](pf, args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    try:
        ops = []
        if args.trace:
            values, passes, micro_ops, extra = _traced_values(pf, workload, scratch, args)
            ops += micro_ops
        else:
            passes = run_passes(workload, scratch, args.seconds, min_passes=MIN_TIMED_PASSES)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            setup_samples += measure_setup(args.workload, args.seed, SETUP_PROBES[1])
            values = {
                "setup_s": statistics.median(setup_samples),
                "wall_s": _median(passes, "wall_s"),
                "peak_rss_mb": rss_mb,
            }
            extra = {}
        ops += [op for r in passes for op in r["ops"]]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    declared = _declared_metrics("per_layer" if args.trace else "end_to_end")
    if set(values) != set(declared):
        print(f"perfbench: metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(declared))}",
              file=sys.stderr)
        return 2
    failed = [op for op in ops if not op.ok]
    for op in failed:
        print(f"perfbench: FAILED {op.name}: {op.detail}", file=sys.stderr)
    metrics = {name: {"value": float(values[name]), "unit": declared[name]} for name in declared}
    context = _context(args, workload, setup_samples, passes, extra)
    result = {"correct": not failed, "attempted": len(ops), "failed": len(failed), "metrics": metrics}
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
