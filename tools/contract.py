"""Compare the outputs of two projfeas source trees, artifact by artifact.

    python tools/contract.py PARENT CHANGE

PARENT and CHANGE are two source trees, such as two ``git archive`` copies
of two commits.  Each runs in a temporary directory of its own, with its own
``src`` on ``PYTHONPATH``, under the interpreter that runs this script.  The
artifacts:

- the stdout, stderr and exit status of
  ``python -W error -m projfeas suite --out-dir runs``;
- each report the suite writes, without its ``# generated:`` line;
- each trace CSV the suite writes, read as a stream of lines, so that
  example-iii's 1e6-row one is never held in memory;
- each demo's stdout and exit status under ``python -W error``, and every
  CSV the demos write (demo 02's trace);
- ``serialize_config`` of every preset.

The script prints one line per artifact: ``same``, or the first line where
the two trees differ.  It exits 1 if any artifact differs, and 0 otherwise.
It compares two trees on one host and keeps no stored hash, since a float's
last bits may differ under another numpy or CPU.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

CONFIGS = """
import json
from projfeas.config import serialize_config
from projfeas.presets import PRESETS, preset
print(json.dumps({name: serialize_config(preset(name)) for name in PRESETS}))
"""


def _python(tree, cwd, *args):
    """``python -W error *args`` in ``cwd``, importing projfeas from ``tree``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    return subprocess.run([sys.executable, "-W", "error", *args], cwd=cwd, env=env,
                          capture_output=True, text=True)


def artifacts(tree, work):
    """Every artifact of ``tree``, run in the directory ``work``: a name
    mapped to its text, or to the path of a file too large to read whole."""
    out = {}
    suite = _python(tree, work, "-m", "projfeas", "suite", "--out-dir", "runs")
    out["suite stdout"], out["suite stderr"] = suite.stdout, suite.stderr
    out["suite exit status"] = f"{suite.returncode}\n"
    for path in sorted((work / "runs").glob("*.report.txt")):
        lines = path.read_text().splitlines(keepends=True)
        out[f"report {path.name}"] = "".join(line for line in lines if not line.startswith("# generated:"))
    for path in sorted((work / "runs").glob("*.trace.csv")):
        out[f"trace {path.name}"] = path
    demos = work / "demos"
    demos.mkdir()
    for demo in sorted((tree / "demos").glob("*.py")):
        run = _python(tree, demos, str(demo))
        out[f"demo {demo.name}"] = run.stdout + f"exit status {run.returncode}\n"
    for path in sorted(demos.glob("*.csv")):
        out[f"demo csv {path.name}"] = path
    configs = _python(tree, work, "-c", CONFIGS)
    for name, text in json.loads(configs.stdout or "{}").items():
        out[f"config {name}"] = text
    return out


def _lines(value):
    """The lines of a text, or of a file read as a stream, ends kept."""
    if isinstance(value, Path):
        return open(value, newline="")
    return io.StringIO(value, newline="")


def first_difference(old, new):
    """``None`` when the two artifacts are equal, else their first differing line."""
    if old is None or new is None:
        return f"only in {'PARENT' if new is None else 'CHANGE'}"
    with _lines(old) as a, _lines(new) as b:
        for n, (x, y) in enumerate(zip_longest(a, b), 1):
            if x != y:
                return f"line {n}: {_show(x)} != {_show(y)}"
    return None


def _show(line, width=100):
    if line is None:
        return "<end>"
    text = repr(line)
    return text if len(text) <= width else text[: width - 3] + "..."


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    trees = [Path(a).resolve() for a in argv]
    if len(trees) != 2 or not all((t / "src" / "projfeas").is_dir() for t in trees):
        print("usage: python tools/contract.py PARENT CHANGE (two projfeas source trees)", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as old_dir, tempfile.TemporaryDirectory() as new_dir:
        old = artifacts(trees[0], Path(old_dir))
        new = artifacts(trees[1], Path(new_dir))
        differ = 0
        for name in list(old) + [n for n in new if n not in old]:
            diff = first_difference(old.get(name), new.get(name))
            differ += diff is not None
            print(f"{name}: {diff or 'same'}", flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
