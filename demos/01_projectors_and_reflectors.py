"""Tour of the set variants: distances, projections, reflections, normals.

Every set descriptor answers the same four queries.  The nonconvex variants
may return several projection branches; the selected branch is deterministic
(the first tied candidate: unions by lowest frame index, the kinked region's
slanted edge before its flat one), so everything built on top is
reproducible.
"""

import numpy as np

from projfeas import AffineSubspace, Ball, KinkedRegion, Sphere, UnionOfSubspaces


def show(label, outcome):
    branches = ", ".join(str(np.round(b, 6).tolist()) for b in outcome.branches)
    print(f"  {label}: selected {np.round(outcome.selected, 6)}  "
          f"distance {outcome.distance:.6f}  branches [{branches}] ({outcome.branch_count})")


print("== affine subspace: the diagonal of the plane ==")
diag = AffineSubspace.from_span([0.0, 0.0], [[1.0, 1.0]])
show("project (1, 0)", diag.project([1.0, 0.0]))
show("reflect (1, 0)", diag.reflect([1.0, 0.0]))  # swaps the coordinates

print("\n== ball tangent to the x-axis ==")
ball = Ball([0.0, 1.0], 1.0)
show("project (0, -1)", ball.project([0.0, -1.0]))
show("project (0.3, 0.8) (interior fixed)", ball.project([0.3, 0.8]))

print("\n== circle: multivalued at the center ==")
circle = Sphere([0.0, 0.0], 1.0)
show("project (2, 0)", circle.project([2.0, 0.0]))
show("project (0, 0)", circle.project([0.0, 0.0]))  # canonical representative

print("\n== cross (both axes): ties produce two branches ==")
cross = UnionOfSubspaces.cross(2)
show("project (2, 1)", cross.project([2.0, 1.0]))
show("project (1, 1)", cross.project([1.0, 1.0]))
show("reflect (1, 1)", cross.reflect([1.0, 1.0]))

print("\n== kinked region: a reflex corner at the origin ==")
kink = KinkedRegion()
show("project (1, 2)", kink.project([1.0, 2.0]))
show("project (-1, 3)", kink.project([-1.0, 3.0]))

print("\nproximal normal generators:")
print("  cross at (1, 0):", [g.tolist() for g in cross.proximal_normals([1.0, 0.0])])
print("  cross at the origin (zero cone):", cross.proximal_normals([0.0, 0.0]))
print("  kink on the slanted edge:", [np.round(g, 6).tolist() for g in kink.proximal_normals([-1.0, 1.0])])
print("  kink at the corner (zero cone):", kink.proximal_normals([0.0, 0.0]))
