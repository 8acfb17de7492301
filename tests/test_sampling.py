"""The sample generator against scipy's scrambled Halton engine, bit for bit.

``qmc_unit`` computes Owen's random-permutation Halton sequence with numpy;
``ball_points`` maps it through ``_ndtri``, Moshier's Cephes inverse normal
CDF in numpy, in the form and order of operations of the C ``ndtri`` that
``scipy.special`` ships.  Its logarithms go through ``math.log``, the C
library's ``log`` that Cephes calls: numpy's vectorised ``np.log`` differs
from it in the last bit on some inputs, and one such bit would move a
sample.  Before, the package called ``scipy.stats.qmc.Halton``,
``scipy.stats.norm.ppf`` and ``scipy.special.ndtri``; those forms live on in
``kernel_reference``, and every estimate, start region and report reads the
same bytes as it did with them.  The golden rows and values pin the sequence
and the inverse CDF even if a later scipy changes its own, and fresh
interpreters check that the package loads no scipy module at all.
"""
import math

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernel_reference import (
    ref_affine_chart,
    ref_ball_chart,
    ref_ball_points,
    ref_boundary_chart,
    ref_kinked_chart,
    ref_ndtri,
    ref_qmc_unit,
)
from projfeas.runner import random_subspace_pair
from projfeas.sampling import _ndtri, ball_points, qmc_unit
from projfeas.sets import AffineSubspace, Ball, KinkedRegion, Sphere, UnionOfSubspaces

SEEDS = list(range(20)) + [int(s) for s in np.random.default_rng(1).integers(0, 2**31, 10)]
DIMS = range(1, 7)
SIZES = (1, 2, 3, 7, 64, 300, 513, 1024, 4096, 4097)


def _same_bytes(got, want):
    # the layout too: scipy returns the transpose of a (dim, n) array, and the
    # charts feed it to matrix products
    return (
        got.dtype == want.dtype
        and got.shape == want.shape
        and got.strides == want.strides
        and got.tobytes() == want.tobytes()
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_qmc_unit_matches_scipy_halton(seed):
    bad = [(d, n) for d in DIMS for n in SIZES if not _same_bytes(qmc_unit(n, d, seed), ref_qmc_unit(n, d, seed))]
    assert bad == []


@pytest.mark.parametrize("seed", SEEDS)
def test_ball_points_matches_norm_ppf_form(seed):
    bad = []
    for d in DIMS:
        center = np.linspace(-1.0, 0.5, d)
        for n in SIZES:
            got = ball_points(center, 1.5, n, seed)
            if not _same_bytes(got, ref_ball_points(center, 1.5, n, seed)):
                bad.append((d, n))
    assert bad == []


def test_empty_request():
    assert qmc_unit(0, 3, 5).shape == (0, 3)


@pytest.mark.parametrize("n", [0, 64])
def test_memoized_sequence_is_shared_and_read_only(n):
    u = qmc_unit(n, 2, 9)
    assert qmc_unit(n, 2, 9) is u
    with pytest.raises(ValueError):
        u[...] = 0.0


def _hex_rows(a):
    return [[float(v).hex() for v in row] for row in np.atleast_2d(a)]


def test_golden_rows():
    assert _hex_rows(qmc_unit(3, 3, 0)) == [
        ["0x1.9600b82ecb948p-4", "0x1.b9a95a7ee723ap-5", "0x1.33feaf0d8d01bp-2"],
        ["0x1.32c01705d9729p-1", "0x1.70efeafd43c79p-1", "0x1.66cc2453934dap-1"],
        ["0x1.65802e0bb2e52p-2", "0x1.8c8a80a53239bp-2", "0x1.9cc7890300d35p-4"],
    ]
    # index 4096: 13 live digits in base 2, and a point in each of six bases
    assert _hex_rows(qmc_unit(4097, 6, 1879383517)[4096]) == [[
        "0x1.b9821b9876fe2p-2", "0x1.ee5f28b2de0ddp-1", "0x1.a7e19e7b0574bp-1",
        "0x1.ac6ecaaa8330fp-1", "0x1.2250555f1e1e6p-1", "0x1.07a17c7fcaaf9p-2",
    ]]
    assert _hex_rows(ball_points([0.5, -1.0], 2.0, 2, 42)) == [
        ["0x1.0000000000000p-1", "-0x1.0000000000000p+0"],
        ["0x1.301bfe76a5f24p-1", "-0x1.bfe9c88bb865cp+0"],
        ["-0x1.92fe471ac87b8p-1", "-0x1.21b5b893304b6p-2"],
    ]


@pytest.mark.parametrize("n", [1, 7, 4096, 5000])
@pytest.mark.parametrize("seed", [0, 7, 123])
def test_one_halton_column_is_the_first_of_two(n, seed):
    # base 2's permutations are drawn first, so the kinked chart may draw
    # the one column it reads
    assert qmc_unit(n, 1, seed)[:, 0].tobytes() == qmc_unit(n, 2, seed)[:, 0].tobytes()


HALF_SQRT2 = math.sqrt(2.0) / 2.0
LINE = AffineSubspace([0.0, 0.5], [[1.0, 0.0]])
DIAGONAL = AffineSubspace.from_span([0.0, 0.0], [[1.0, 1.0]])
PLANE = AffineSubspace.from_span([0.0, 0.0, 1.0], [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
SUBSPACE_5D = random_subspace_pair(2030, (3, 3))[0]
DISC = Ball([0.0, 0.0], 1.0)
CIRCLE = Sphere([0.0, 0.0], 1.0)
# (chart owner, anchor, delta); `_ref_chart` builds the reference of each
CHARTS = {
    "2-D line": (LINE, [0.3, 0.1], 1.0),
    "2-D diagonal": (DIAGONAL, [0.0, 0.0], 0.5),
    "3-D plane": (PLANE, [0.2, -0.1, 1.3], 0.75),
    "5-D subspace, k = 3": (SUBSPACE_5D, np.zeros(5), 1.0),
    "ball, anchor inside": (DISC, [0.3, -0.2], 0.5),
    "ball, anchor at the centre": (DISC, [0.0, 0.0], 0.5),
    "ball, anchor outside": (DISC, [1.5, 0.5], 1.0),
    "3-D ball": (Ball([1.0, 0.0, -1.0], 2.0), [1.0, 2.0, -1.0], 0.5),
    "unit circle, delta 0.1": (CIRCLE, [HALF_SQRT2, HALF_SQRT2], 0.1),
    "unit circle, delta 2.5": (CIRCLE, [HALF_SQRT2, HALF_SQRT2], 2.5),
    "3-D sphere": (Sphere([0.0, 1.0, 0.0], 1.5), [0.0, 1.0, 1.5], 0.3),
    "cross": (UnionOfSubspaces.cross(), [0.0, 0.0], 1.0),
    "kinked region": (KinkedRegion(), [0.0, 0.0], 1.0),
}


def _ref_chart(s, anchor, delta, n, seed):
    if isinstance(s, AffineSubspace):
        return ref_affine_chart(s, anchor, delta, n, seed)
    if isinstance(s, Ball):
        return ref_ball_chart(s, anchor, delta, n, seed)
    if isinstance(s, Sphere):
        return ref_boundary_chart(s.center, s.radius, anchor, delta, n, seed)
    if isinstance(s, UnionOfSubspaces):
        per = max(1, n // len(s.frames))
        return np.vstack([ref_affine_chart(f, anchor, delta, per, seed + 911 * i) for i, f in enumerate(s.frames)])
    return ref_kinked_chart(s, anchor, delta, n, seed)


@pytest.mark.parametrize("case", sorted(CHARTS))
@pytest.mark.parametrize("n", [1, 300, 4096])
def test_chart_rows_match_the_per_point_ladder(case, n):
    """Each chart holds the rows of its per-point reference, bit for bit,
    as a multiset: the quasirandom rows and the dyadic ladder alike."""
    s, anchor, delta = CHARTS[case]
    anchor = np.asarray(anchor, dtype=float)
    got, want = s.chart(anchor, delta, n, 5), _ref_chart(s, anchor, delta, n, 5)
    assert got.shape == want.shape
    if n == 1:
        # numpy took the reference's one quasirandom row through a
        # vector-matrix product, which can round a sum of three or more terms
        # one ulp apart from the chart's one product of all its rows
        assert len({r.tobytes() for r in got} - {r.tobytes() for r in want}) <= 1
        ulps = 2 * np.finfo(float).eps * np.abs(want).max()
        np.testing.assert_allclose(sorted(got.tolist()), sorted(want.tolist()), rtol=0.0, atol=ulps)
        return
    assert sorted(row.tobytes() for row in got) == sorted(row.tobytes() for row in want)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 2048),
    dim=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_prefix_nested_and_in_unit_cube(n, dim, seed):
    """Doubling the budget only appends points; every coordinate is in [0, 1)."""
    u = qmc_unit(2 * n, dim, seed)
    assert qmc_unit(n, dim, seed).tobytes() == u[:n].tobytes()
    assert np.all((u >= 0.0) & (u < 1.0))


@pytest.mark.parametrize("module", ["projfeas", "projfeas.cli"])
def test_import_leaves_scipy_stats_out(module, subprocess_env):
    code = f"import sys, {module}; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=subprocess_env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "argv",
    [["-c", "import projfeas"], ["-c", "import projfeas.cli"], ["-m", "projfeas", "presets"]],
    ids=["import", "import-cli", "presets"],
)
def test_runtime_loads_no_scipy(argv, subprocess_env):
    """``-X importtime`` names every module a fresh interpreter loads."""
    out = subprocess.run(
        [sys.executable, "-X", "importtime", *argv],
        env=subprocess_env, capture_output=True, text=True, check=True,
    )
    assert [line for line in out.stderr.splitlines() if "scipy" in line] == []


def test_ndtri_matches_cephes_on_a_million_uniforms():
    y = np.clip(np.random.default_rng(20260418).random(10**6), 1e-12, 1 - 1e-12)
    assert _same_bytes(_ndtri(y), ref_ndtri(y))


def test_ndtri_matches_cephes_in_both_tails():
    """Log-spaced tails, from just inside the central form down to 1e-13."""
    t = 10.0 ** -np.random.default_rng(3).uniform(0.86, 13.0, 10**5)
    assert _same_bytes(_ndtri(t), ref_ndtri(t))
    assert _same_bytes(_ndtri(1.0 - t), ref_ndtri(1.0 - t))


def test_ndtri_matches_cephes_at_branch_edges():
    lo = math.exp(-2)  # where Cephes hands over between its central and tail forms
    edges = [lo, 1.0 - lo, 1.0 - 0.13533528323661269189]
    edges += [v for e in edges for v in (np.nextafter(e, 0.0), np.nextafter(e, 1.0))]
    edges += [0.5, 1e-12, 1 - 1e-12]
    y = np.array(edges)
    assert _same_bytes(_ndtri(y), ref_ndtri(y))
    # the layout too: a 2-D F-ordered input gives the C-ordered result
    y2 = np.asfortranarray(y[:10].reshape(5, 2))
    assert _same_bytes(_ndtri(y2), ref_ndtri(y2))


def test_ndtri_golden_values():
    y = np.array([1e-12, math.exp(-2), 0.025, 0.3, 0.5, 0.975, 1 - math.exp(-2), 1 - 1e-12])
    assert [float(v).hex() for v in _ndtri(y)] == [
        "-0x1.c234fba57a329p+2", "-0x1.19fd30bc4de02p+0", "-0x1.f5c0331eeff86p+0",
        "-0x1.0c7e39582c5fcp-1", "0x0.0p+0", "0x1.f5c0331eeff84p+0",
        "0x1.19fd30bc4de03p+0", "0x1.c2350895b2ea4p+2",
    ]


@pytest.mark.parametrize("y", [0.0, 1.0, -0.5, 1e-15, 1 - 2**-50])
def test_ndtri_refuses_outside_its_domain(y):
    with pytest.raises(ValueError):
        _ndtri(np.array([0.5, y]))


def test_ndtri_passes_nan_through():
    assert np.isnan(_ndtri(np.array([0.5, np.nan]))).tolist() == [False, True]


@settings(max_examples=200, deadline=None)
@given(y=st.lists(st.floats(1e-13, 1 - 1e-13), min_size=1, max_size=64))
def test_ndtri_matches_cephes_on_its_domain(y):
    y = np.array(y)
    assert _same_bytes(_ndtri(y), ref_ndtri(y))
