import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import preset_pairs
from kernel_reference import PointMap
from projfeas import presets
from projfeas.linalg import row_norms
from projfeas.operators import (
    AlternatingProjections,
    DouglasRachford,
    _listed,
    check_step_energy_identity,
    dr_two_forms_agree,
)
from projfeas.presets import circle_and_line, cross_and_diagonal, two_lines_2d
from projfeas.regularity import eps_tilde_douglas_rachford, eps_tilde_projector, eps_tilde_reflector

HALF_SQRT2 = np.sqrt(2.0) / 2.0


def test_dr_step_two_lines_by_hand():
    # z = P_B(1,0) = (1/2, 1/2); reflect: (0, 1); project onto the x-axis:
    # (0, 0); update: (0,0) - (1/2,1/2) + (1,0) = (1/2, -1/2)
    a, b = two_lines_2d()
    op = DouglasRachford(a, b)
    rec = op.apply([1.0, 0.0])
    np.testing.assert_allclose(rec.selected, [0.5, -0.5], atol=1e-15)
    np.testing.assert_allclose(rec.intermediates["project_b"], [0.5, 0.5], atol=1e-15)
    np.testing.assert_allclose(rec.intermediates["reflect_b"], [0.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(rec.intermediates["project_a_reflect_b"], [0.0, 0.0], atol=1e-15)


def test_map_step_two_lines_by_hand():
    a, b = two_lines_2d()
    rec = AlternatingProjections(a, b).apply([1.0, 0.0])
    np.testing.assert_allclose(rec.selected, [0.5, 0.0], atol=1e-15)
    np.testing.assert_allclose(rec.intermediates["project_b"], [0.5, 0.5])


def test_intersection_points_are_fixed():
    for name, a, b, sol in preset_pairs():
        witness = sol.witness
        for op in (AlternatingProjections(a, b), DouglasRachford(a, b)):
            np.testing.assert_allclose(op.step(witness), witness, atol=1e-12, err_msg=name)


def test_dr_two_forms_agree_hand_case():
    a, b = two_lines_2d()
    assert dr_two_forms_agree(a, b, [[1.0, 0.0]]).all()
    rb = b.reflect([1.0, 0.0])
    ra = a.reflect(rb.selected)
    assert rb.branch_count == ra.branch_count == 1
    np.testing.assert_allclose(0.5 * (ra.selected + [1.0, 0.0]), [0.5, -0.5], atol=1e-15)


def test_dr_two_forms_agree_random_convex_3d():
    rng = np.random.default_rng(17)
    from projfeas.sets import AffineSubspace, Ball

    a = AffineSubspace.from_span([0.0, 0.0, 0.0], rng.normal(size=(2, 3)))
    b = Ball([0.0, 0.0, 0.5], 1.0)
    assert dr_two_forms_agree(a, b, rng.normal(size=(100, 3)) * 2).all()


def test_dr_two_forms_agree_across_presets():
    rng = np.random.default_rng(18)
    for name, a, b, sol in preset_pairs():
        witness = sol.witness
        assert dr_two_forms_agree(a, b, witness[None]).all(), name  # both yield the point itself
        assert dr_two_forms_agree(a, b, witness + rng.normal(size=(50, a.dim))).all(), name


def test_step_energy_identity_zero_for_equal_arguments():
    a, b = two_lines_2d()
    assert check_step_energy_identity(a, b, [[1.0, 2.0]], [[1.0, 2.0]]).tolist() == [0.0]


def test_step_energy_identity_random_convex():
    a, b = two_lines_2d()
    rng = np.random.default_rng(19)
    Z = rng.normal(size=(200, 2, 2)) * 3  # rows x, y of each pair
    X, Y = Z[:, 0], Z[:, 1]
    scale = np.maximum(1.0, np.maximum(row_norms(X) ** 2, row_norms(Y) ** 2))
    assert np.all(check_step_energy_identity(a, b, X, Y) <= 1e-9 * scale)


def test_step_energy_identity_circle_line_near_witness():
    circle, line = circle_and_line()
    w = np.array([HALF_SQRT2, HALF_SQRT2])
    rng = np.random.default_rng(20)
    Z = w + rng.normal(size=(200, 2, 2)) * 0.3  # rows x, y of each pair
    assert np.all(check_step_energy_identity(circle, line, Z[:, 0], Z[:, 1]) <= 1e-9)


def _preset_geometry():
    """Each convex set a preset builds, the single points of its exact
    solution set included and equal sets once, and each Douglas-Rachford
    operator, by id."""
    convex, dr = {}, {}
    for name in sorted(presets.PRESETS):
        cfg = presets.preset(name)
        for key, s in {**cfg.sets, "exact": cfg.solution_set().exact}.items():
            if s.is_convex() and s not in convex.values():
                convex[f"{name}-{key}"] = s
        if cfg.algorithm is not None and cfg.algorithm.kind == "dr":
            dr[name] = cfg.operator()
    return convex, dr


CONVEX_SETS, DR_OPERATORS = _preset_geometry()


def _point_pairs(dim):
    """Rows ``X`` in [-4, 4] and as many rows ``Y``: other such points, or
    ``X`` moved by at most 1e-9 in each coordinate."""
    def rows(m, bound):
        return arrays(np.float64, (m, dim), elements=st.floats(-bound, bound, allow_nan=False))

    return st.integers(1, 12).flatmap(
        lambda m: st.tuples(rows(m, 4.0), rows(m, 4.0), rows(m, 1e-9), st.booleans())
    ).map(lambda t: (t[0], t[0] + t[2] if t[3] else t[1]))


@pytest.mark.parametrize("name", sorted(CONVEX_SETS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_convex_projectors_are_firmly_nonexpansive(name, data):
    # |Px - Py|^2 + |(x - Px) - (y - Py)|^2 <= |x - y|^2 up to rounding:
    # over 800,000 random pairs in [-4, 4] and [-4000, 4000], near ones
    # included, the excess was at most 1.5e-15 |x - y| max(1, |x|, |y|)
    s = CONVEX_SETS[name]
    X, Y = data.draw(_point_pairs(s.dim))
    PX, PY = s.project_many(X), s.project_many(Y)
    lhs = row_norms(PX - PY) ** 2 + row_norms((X - PX) - (Y - PY)) ** 2
    a, d = 1e-14 * np.maximum(1.0, np.maximum(row_norms(X), row_norms(Y))), row_norms(X - Y)
    assert np.all(lhs <= d**2 + a * (d + a)), (X, Y)  # the allowance a (d + a): rounding of P


@pytest.mark.parametrize("name", sorted(DR_OPERATORS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_step_energy_identity_on_preset_pairs(name, data):
    # within the documented noise, 1e-9 max(1, |x|^2, |y|^2); over 90,000
    # random pairs at scales 1e-3 to 1e3 the residual was at most 2.9e-15 of it
    op = DR_OPERATORS[name]
    X, Y = data.draw(_point_pairs(op.dim))
    scale = np.maximum(1.0, np.maximum(np.vecdot(X, X), np.vecdot(Y, Y)))
    assert np.all(check_step_energy_identity(op.a, op.b, X, Y) <= 1e-9 * scale), (X, Y)


@pytest.mark.parametrize("name", sorted(DR_OPERATORS))
def test_dr_checks_fail_without_the_plus_x(name, monkeypatch):
    # a check that compares an expression with itself passes anything: the
    # two forms share their branch slots, and with R_a R_b read as 2T - I the
    # energy identity is the parallelogram law.  A projector form that drops
    # its "+ x" must fail both checks on rows away from the origin
    op = DR_OPERATORS[name]
    Z = np.random.default_rng(31).uniform(-4.0, 4.0, size=(200, 2, op.dim))
    X, Y = Z[:, 0], Z[:, 1]
    scale = np.maximum(1.0, np.maximum(np.vecdot(X, X), np.vecdot(Y, Y)))
    assert dr_two_forms_agree(op.a, op.b, X).all()
    assert np.all(check_step_energy_identity(op.a, op.b, X, Y) <= 1e-9 * scale)
    stages = DouglasRachford._stages

    def without_x(self, *args):
        parts, _ = stages(self, *args)
        return parts, parts["project_a_reflect_b"] - parts["project_b"]

    monkeypatch.setattr(DouglasRachford, "_stages", without_x)
    assert not dr_two_forms_agree(op.a, op.b, X).any()
    # 1000 times the documented noise bound; the least ratio seen was 2.4e-4
    assert np.all(check_step_energy_identity(op.a, op.b, X, Y) > 1e-6 * scale)


# ---------------------------------------------------------------------------
# violation-constant inequalities (unit-scale versions)
# ---------------------------------------------------------------------------


def test_eps_tilde_formulas():
    assert eps_tilde_projector(0.1) == pytest.approx(0.22)
    assert eps_tilde_reflector(0.1) == pytest.approx(0.44)
    assert eps_tilde_douglas_rachford(0.0, 0.0) == 0.0
    # one convex set drops its terms entirely
    assert eps_tilde_douglas_rachford(0.1, 0.0) == pytest.approx(0.22)


def test_projector_firm_inequality_subregular_sets():
    # eps = 0 w.r.t. the solution set for every preset geometry except the
    # circle, whose constant on a delta-ball is delta/2
    rng = np.random.default_rng(26)
    cases = []
    for name, a, b, sol in preset_pairs():
        witness = sol.witness
        eps = 0.0
        for s in (a, b):
            if type(s).__name__ == "Sphere":
                eps = 0.5 * 0.5  # delta = 0.5 below
            cases.append((name, s, witness, eps))
    for name, s, witness, eps in cases:
        delta = 0.5
        lim = 1.0 + eps_tilde_projector(eps)
        for _ in range(100):
            x = witness + rng.normal(size=s.dim) * delta / 2
            x = witness + (x - witness) * min(1.0, (delta / 2) / max(np.linalg.norm(x - witness), 1e-12))
            out = s.project(x)
            if any(np.linalg.norm(p - witness) > delta for p in out.branches):
                continue  # outside the admissible neighborhood
            for p in out.branches:
                lhs = np.linalg.norm(p - witness) ** 2 + np.linalg.norm(x - p) ** 2
                rhs = lim * np.linalg.norm(x - witness) ** 2
                assert lhs <= rhs + 1e-9, name


def test_reflector_inequality_subregular_sets():
    rng = np.random.default_rng(27)
    for name, a, b, sol in preset_pairs():
        witness = sol.witness
        for s in (a, b):
            eps = 0.25 if type(s).__name__ == "Sphere" else 0.0
            lim = 1.0 + eps_tilde_reflector(eps)
            for _ in range(100):
                step = rng.normal(size=s.dim)
                x = witness + step / max(np.linalg.norm(step), 1.0) * 0.25
                out = s.reflect(x)
                for r in out.branches:
                    lhs = np.linalg.norm(r - witness) ** 2
                    rhs = lim * np.linalg.norm(x - witness) ** 2
                    assert lhs <= rhs + 1e-9, name


def test_dr_firm_inequality_circle_line():
    # both sets subregular near the witness; the composed step satisfies the
    # firm inequality with the combined violation constant
    circle, line = circle_and_line()
    w = np.array([HALF_SQRT2, HALF_SQRT2])
    delta = 0.25
    eps_a = delta / 2  # circle constant on the delta-ball
    lim = 1.0 + eps_tilde_douglas_rachford(eps_a, 0.0)
    op = DouglasRachford(circle, line)
    step = np.random.default_rng(28).normal(size=(300, 2))
    X = w + step / np.maximum(row_norms(step) / (delta / 2), 1.0)[:, None]
    XP = op._stages(X, _listed)[1]  # every branch, on the leading axes
    lhs = row_norms(XP - w) ** 2 + row_norms(X - XP) ** 2
    assert np.all(lhs <= lim * row_norms(X - w) ** 2 + 1e-9)


def test_convex_combination_preserves_firm_inequality():
    # projectors onto the cross and the diagonal are both firmly
    # quasi-nonexpansive toward the intersection; so is any mix
    cross, diag = cross_and_diagonal()
    rng = np.random.default_rng(29)
    for lam in (0.25, 0.5, 0.75):
        comb = PointMap(2, lambda x, P: lam * P(cross, x) + (1 - lam) * P(diag, x))
        for _ in range(200):
            x = rng.normal(size=2) * 2
            xp = comb.step(x)
            lhs = np.linalg.norm(xp) ** 2 + np.linalg.norm(x - xp) ** 2
            assert lhs <= np.linalg.norm(x) ** 2 + 1e-9
