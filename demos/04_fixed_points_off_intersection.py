"""When the reflection method parks away from the intersection.

Two geometries break Douglas-Rachford convergence to the intersection:

  * the planar pair embedded in three dimensions: the normal spaces share
    the third coordinate direction, and every point of that axis is a fixed
    point of the operator;
  * the ball tangent to a line: the fixed-point set contains a whole ray
    above the tangency point.

Alternating projections still converges in both cases (only sublinearly for
the tangent pair); the probes below find the spurious limits numerically and,
for the affine pair, recover the exact fixed-point subspace.
"""

import numpy as np

from projfeas import (
    AlternatingProjections,
    DouglasRachford,
    Region,
    SolutionSet,
    fit_rate,
    iterate,
    probe_fixed_points,
)
from projfeas.presets import line_and_ball, two_lines_3d
from projfeas.solution import dr_fixed_point_frame

print("== two lines embedded in three dimensions ==")
a, b = two_lines_3d()
sol = SolutionSet((a, b), [0.0, 0.0, 0.0])
stuck = iterate(DouglasRachford(a, b), [0.0, 0.0, 1.0], sol, max_iters=50, tol=1e-10)
print(f"  start (0,0,1): stop={stuck.stop_reason}, distance {stuck.final_dist_to_s} (a fixed point)")
inplane = iterate(DouglasRachford(a, b), [1.0, 0.5, 0.0], sol, max_iters=300, tol=1e-11)
print(f"  start in the span of the pair: rate {fit_rate(inplane).observed_rate:.6f} "
      f"(the planar value sqrt(2)/2)")
res = probe_fixed_points(DouglasRachford(a, b), Region(np.zeros(3), 2.0), 24, 11, sol,
                         max_iters=500, tol=1e-10)
off = [(p, d) for p, d in res.limits if d > 1e-6]
print(f"  probe: {len(off)}/{len(res.limits)} starts end away from the intersection")
frame = dr_fixed_point_frame(a, b, sol.witness)
print(f"  exact fixed-point subspace direction: {np.round(frame.basis, 6)}")

print("\n== ball tangent to a line ==")
line, ball = line_and_ball()
sol2 = SolutionSet((line, ball), [0.0, 0.0])
tr = iterate(AlternatingProjections(line, ball), [1.0, 0.0], sol2, max_iters=20000, tol=1e-12)
fit = fit_rate(tr)
print(f"  alternating projections after {len(tr) - 1} cycles: distance {tr.final_dist_to_s:.5f}")
print(f"  (closed form 1/sqrt(n+1) = {1/np.sqrt(len(tr)):.5f}; fitted 'rate' {fit.observed_rate:.6f},"
      f" linear={fit.linear})")
res2 = probe_fixed_points(DouglasRachford(ball, line), Region(np.array([0.0, 1.0]), 1.5),
                          24, 7, sol2, max_iters=3000, tol=1e-9)
worst = max(d for _, d in res2.limits)
print(f"  reflection-method probe: worst limit distance {worst:.4f} "
      "(a ray of fixed points sits above the tangency)")
