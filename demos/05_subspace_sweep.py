"""The subspace dichotomy: linear convergence iff trivially meeting normals.

For affine pairs the reflection method converges linearly to the intersection
exactly when the orthogonal complements of the direction spaces meet only at
the origin (equivalently, the direction spans fill the ambient space).  The
sweep below draws twenty random pairs in five dimensions, half of them built
so the complements must overlap, and checks the dichotomy against the exact
rank test; for the convergent half it also verifies the predicted rate bound
and reports the Friedrichs cosine, which the observed rate matches.
"""

import numpy as np

from projfeas import fit_rate, friedrichs_cosine, iterate, subspace_iff_sweep
from projfeas.operators import DouglasRachford
from projfeas.runner import random_subspace_pair
from projfeas.solution import subspace_pair_solution

verdicts, details = subspace_iff_sweep()
for v in verdicts:
    print(f"[{'pass' if v.passed else 'FAIL'}] {v.claim_id}: {v.measured} ({v.bound})")

print("\nper-pair details:")
for d in details:
    line = (f"  dims {d['dims']}  regular={str(d['rank_regular']):5s}  "
            f"linear-to-S={str(d['converged_linearly']):5s}")
    if "observed_rate" in d:
        line += f"  rate {d['observed_rate']:.4f} <= bound {d['predicted']:.4f}"
    else:
        line += f"  final distance {d['final_dist']:.3f}"
    print(line)

# the asymptotic rate is the Friedrichs cosine of the pair
a, b, x0 = random_subspace_pair(2025, (3, 3))
sol = subspace_pair_solution(a, b, np.zeros(5))
fit = fit_rate(iterate(DouglasRachford(a, b), x0, sol, max_iters=4000, tol=1e-11))
print(f"\nsample pair: observed rate {fit.observed_rate:.6f} vs friedrichs cosine "
      f"{friedrichs_cosine(a, b):.6f}")
