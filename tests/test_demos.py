"""Every narrative demo runs to completion.

Each demo runs in-process, from a temporary working directory, so the files
a demo writes land there and one import of the package serves all of them.
Demo 04 is the public caller of ``probe_fixed_points``.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out
    if demo.stem == "02_two_lines_rates":
        assert (tmp_path / "two_lines_dr.trace.csv").is_file()
