"""Alternating projections vs Douglas-Rachford on two lines in the plane.

The pair (x-axis, diagonal) meets at 45 degrees.  Alternating projections
halves the distance to the intersection once per cycle; the reflection method
contracts by cos(45deg) = sqrt(2)/2 per step.  Both fitted rates match the
closed forms to machine precision, and the Douglas-Rachford rate equals the
Friedrichs cosine of the pair.
"""

import numpy as np

from projfeas import (
    AlternatingProjections,
    DouglasRachford,
    SolutionSet,
    fit_rate,
    friedrichs_cosine,
    iterate,
)
from projfeas.driver import trace_to_csv
from projfeas.presets import two_lines_2d

a, b = two_lines_2d()
sol = SolutionSet((a, b), [0.0, 0.0])

for label, op, expected in (
    ("alternating projections (per cycle)", AlternatingProjections(a, b), 0.5),
    ("douglas-rachford (per step)", DouglasRachford(a, b), np.sqrt(2) / 2),
):
    trace = iterate(op, [1.0, 0.0], sol, max_iters=500, tol=1e-12)
    fit = fit_rate(trace)
    print(f"{label}:")
    print(f"  iterations {len(trace) - 1}, stop: {trace.stop_reason}")
    print(f"  fitted rate {fit.observed_rate:.12f} (closed form {expected:.12f}), "
          f"r^2 {fit.r_squared:.6f}")
    print(f"  first iterates: {[np.round(x, 4).tolist() for x in trace.iterates[:4]]}")

print(f"\nfriedrichs cosine of the pair: {friedrichs_cosine(a, b):.12f}")

trace = iterate(DouglasRachford(a, b), [1.0, 0.0], sol, max_iters=500, tol=1e-12)
trace_to_csv(trace, "two_lines_dr.trace.csv")
print("wrote two_lines_dr.trace.csv (iter, x_0, x_1, dist_A, dist_B, dist_S, step_norm)")
