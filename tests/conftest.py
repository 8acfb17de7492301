import os
from pathlib import Path

import numpy as np
import pytest

from projfeas.presets import (
    circle_and_line,
    cross_and_diagonal,
    line_and_ball,
    two_lines_2d,
    two_lines_3d,
)
from projfeas.solution import point_set_solution, singleton_solution

HALF_SQRT2 = np.sqrt(2.0) / 2.0


@pytest.fixture
def lines2():
    a, b = two_lines_2d()
    return a, b, singleton_solution((a, b), [0.0, 0.0])


@pytest.fixture
def lines3():
    a, b = two_lines_3d()
    return a, b, singleton_solution((a, b), [0.0, 0.0, 0.0])


@pytest.fixture
def line_ball():
    line, ball = line_and_ball()
    return line, ball, singleton_solution((line, ball), [0.0, 0.0])


@pytest.fixture
def cross_diag():
    cross, diag = cross_and_diagonal()
    return cross, diag, singleton_solution((cross, diag), [0.0, 0.0])


@pytest.fixture
def circle_line():
    circle, line = circle_and_line()
    witness = np.array([HALF_SQRT2, HALF_SQRT2])
    sol = point_set_solution(
        (circle, line),
        [witness, np.array([-HALF_SQRT2, HALF_SQRT2])],
        witness=witness,
    )
    return circle, line, sol


def preset_pairs():
    """The five model feasibility pairs with the affine set second."""
    a1, b1 = two_lines_2d()
    a2, b2 = two_lines_3d()
    line3, ball3 = line_and_ball()
    cross4, diag4 = cross_and_diagonal()
    circle5, line5 = circle_and_line()
    return [
        ("two-lines-2d", a1, b1, np.zeros(2)),
        ("two-lines-3d", a2, b2, np.zeros(3)),
        ("ball-line", ball3, line3, np.zeros(2)),
        ("cross-diagonal", cross4, diag4, np.zeros(2)),
        ("circle-line", circle5, line5, np.array([HALF_SQRT2, HALF_SQRT2])),
    ]


@pytest.fixture
def subprocess_env():
    """Environment for a fresh interpreter that imports projfeas from ``src/``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
