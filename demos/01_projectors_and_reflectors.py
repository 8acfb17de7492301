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


def show_reflect(label, s, x):
    # one slot per candidate, slot 0 the selected branch, as branches_many lists them
    print(f"  {label}: slots {np.round(s.reflect(np.array([x]))[:, 0], 6).tolist()}")


def show_cone(label, cone):
    # a cone of rows is a tuple of normal groups: a ray, or the span of its basis rows
    parts = [f"{'ray' if g.one_sided else 'span'} {np.round(g.basis.reshape(-1, 2), 6).tolist()}" for g in cone]
    print(f"  {label}: {', '.join(parts) or 'zero cone'}")


print("== affine subspace: the diagonal of the plane ==")
diag = AffineSubspace.from_span([0.0, 0.0], [[1.0, 1.0]])
show("project (1, 0)", diag.project([1.0, 0.0]))
show_reflect("reflect (1, 0)", diag, [1.0, 0.0])  # swaps the coordinates

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
show_reflect("reflect (1, 1)", cross, [1.0, 1.0])

print("\n== kinked region: a reflex corner at the origin ==")
kink = KinkedRegion()
show("project (1, 2)", kink.project([1.0, 2.0]))
show("project (-1, 3)", kink.project([-1.0, 3.0]))

print("\nproximal normal cones, each of one row:")
show_cone("cross at (1, 0)", cross.normal_components(np.array([[1.0, 0.0]])))
show_cone("cross at the origin", cross.normal_components(np.zeros((1, 2))))
show_cone("kink on the slanted edge", kink.normal_components(np.array([[-1.0, 1.0]])))
show_cone("kink at the corner", kink.normal_components(np.zeros((1, 2))))
show_cone("kink at the corner, its limiting cone", kink.limiting_normals(np.zeros((1, 2))))
