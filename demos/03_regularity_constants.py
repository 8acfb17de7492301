"""Estimating the regularity constants and the rates they predict.

For each model pair this estimates, around the known intersection point:

  * eps_A, eps_B   violation of the normal-alignment inequality toward the
                   intersection (zero for convex sets),
  * kappa          the local linear-regularity modulus
                   sup dist(x, S) / max(dist(x, A), dist(x, B)),
  * c              the worst opposition between unit normals of the two sets
                   (exact singular-value computation for affine pairs),

then forms the predicted per-cycle / per-step contraction factors with a 5%
safety inflation and compares them with the observed fitted rates.  The
predictions are guarantees, not sharp values, so observed <= predicted with
room to spare; pairs without the needed regularity are flagged "no
guarantee".
"""

import numpy as np

from projfeas import (
    AlternatingProjections,
    DouglasRachford,
    KinkedRegion,
    SolutionSet,
    estimate_c,
    estimate_kappa,
    estimate_pair_regularity,
    estimate_subregularity,
    fit_rate,
    iterate,
    predicted_rates,
    point_set_solution,
)
from projfeas.presets import circle_and_line, cross_and_diagonal, two_lines_2d

HALF_SQRT2 = np.sqrt(2) / 2

pairs = []
a1, b1 = two_lines_2d()
pairs.append(("two lines", a1, b1, SolutionSet((a1, b1), [0, 0]), 1.0, [1.0, 0.0]))
a4, b4 = cross_and_diagonal()
pairs.append(("cross/diagonal", a4, b4, SolutionSet((a4, b4), [0, 0]), 1.0, [0.9, -0.4]))
a5, b5 = circle_and_line()
w = np.array([HALF_SQRT2, HALF_SQRT2])
sol5 = point_set_solution((a5, b5), [w, np.array([-HALF_SQRT2, HALF_SQRT2])], witness=w)
pairs.append(("circle/line", a5, b5, sol5, 0.025, w + [0.05, 0.05]))

for name, a, b, sol, delta, x0 in pairs:
    eps_a = estimate_subregularity(a, sol, delta, samples=2048, seed=1)
    eps_b = estimate_subregularity(b, sol, delta, samples=2048, seed=2)
    kappa = estimate_kappa(a, b, sol, delta, samples=2048, seed=3)
    c = estimate_c(a, b, sol.witness, delta, samples=1024, seed=4)
    rep = predicted_rates(
        eps_a, eps_b, kappa, c,
        a_convex=a.is_convex(), b_convex=b.is_convex(), b_affine=b.is_affine(),
        delta=delta, inflation=1.05,
    )
    obs_map = fit_rate(iterate(AlternatingProjections(a, b), x0, sol, 400, 1e-12)).observed_rate
    obs_dr = fit_rate(iterate(DouglasRachford(a, b), x0, sol, 400, 1e-12)).observed_rate
    print(f"== {name} (delta {delta}) ==")
    print(f"  eps_A {eps_a:.4f}  eps_B {eps_b:.4f}  kappa {kappa:.4f}  c {c:.4f}")
    print(f"  cycle rate: observed {obs_map:.4f}  predicted {rep.predicted_rate_map:.4f}"
          + ("" if rep.map_certified else "  (no guarantee)"))
    print(f"  step rate:  observed {obs_dr:.4f}  predicted {rep.predicted_rate_dr:.4f}"
          + ("" if rep.dr_certified else "  (no guarantee)"))

print("== kinked region (single-set regularity) ==")
k = KinkedRegion()
print(f"  toward the corner: {estimate_subregularity(k, SolutionSet((k,), [0, 0]), 1.0, 2048, 0):.6f}"
      "  (flat at 0: every boundary normal is orthogonal to its foot)")
print(f"  between set points: {estimate_pair_regularity(k, [0, 0], 1.0, 4096, 0):.6f}"
      f"  (tends to sqrt(2)/2 = {HALF_SQRT2:.6f})")
