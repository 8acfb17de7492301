import os
from pathlib import Path

import pytest

from projfeas.presets import preset


def model(name):
    """The preset's two sets, in ``a, b`` order, and its solution set."""
    cfg = preset(name)
    return (*cfg.pair(), cfg.solution_set())


@pytest.fixture
def lines2():
    return model("example-i")


@pytest.fixture
def lines3():
    return model("example-ii")


@pytest.fixture
def line_ball():
    return model("example-iii")


@pytest.fixture
def cross_diag():
    return model("example-iv")


@pytest.fixture
def circle_line():
    return model("example-v")


def preset_pairs():
    """The five model feasibility pairs with the affine set second, each with its solution set."""
    return [(name, *model(p)) for name, p in (
        ("two-lines-2d", "example-i"),
        ("two-lines-3d", "example-ii"),
        ("ball-line", "example-iii-dr"),
        ("cross-diagonal", "example-iv"),
        ("circle-line", "example-v"),
    )]


@pytest.fixture
def subprocess_env():
    """Environment for a fresh interpreter that imports projfeas from ``src/``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
