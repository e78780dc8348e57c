"""
Numeric realization and the Legendrian lift
===========================================

A front determines its Legendrian curve: the y-coordinate is the slope of
the front.  This script realizes catalog fronts as smooth planar curves
(semicubical cusps, transversal crossings), lifts them to 3-space, and
verifies the reconstruction identities numerically:

  * the Legendrian condition dz = y dx holds along the polyline,
  * the Lagrangian projection bounds zero algebraic area,
  * its tangent winding number equals the combinatorial rotation number.
"""

import numpy as np

from legkit import (
    OrientedFront,
    catalog_front,
    lagrangian_embeddedness_check,
    legendrian_lift,
    numeric_rotation,
    parse_front,
    realize_front,
    rotation_number,
)

SAMPLES = 20_000  # per arc of each lift

for tb, r in [(-1, 0), (-2, 1), (-4, -3)]:
    d = catalog_front(tb, r)
    of = OrientedFront.default(d)
    lc = legendrian_lift(realize_front(d), of=of, samples_per_arc=SAMPLES)
    diam = lc.diameter()
    print(f"catalog ({tb:3d},{r:3d}):"
          f" residual {lc.legendrian_residual()/diam:.1e}"
          f" closure {abs(lc.closure_integral())/diam:.1e}"
          f" winding {numeric_rotation(lc):+d}"
          f" combinatorial {rotation_number(of):+d}")

# The basic unknot's Lagrangian projection is a figure eight: one double
# point splitting the curve into two lobes of opposite area.  Here it falls
# on a sample of both strands; the sweep's half-open hit rule counts it once.
lc = legendrian_lift(realize_front(parse_front("L 1\nR 1")), samples_per_arc=SAMPLES)
report = lagrangian_embeddedness_check(lc)
print("double points found:", len(report.double_points))
for p in report.double_points:
    print(f"double point at ({p.point[0]:+.3f}, {p.point[1]:+.3f}):"
          f" lobe areas {p.area_one:+.4f}, {p.area_two:+.4f}")
print("embedded lift:", report.embedded)

# The lift's integrals use a three-point rule on each two-step panel, which
# is fourth order: halving the step size cuts the closure error about
# 16-fold and the per-panel residual about 32-fold.
rf = realize_front(catalog_front(-4, 1))
coarse = legendrian_lift(rf, samples_per_arc=2000)
fine = legendrian_lift(rf, samples_per_arc=4000)
print("residual ratio under halving:",
      f"{coarse.legendrian_residual() / fine.legendrian_residual():.1f}")
print("closure ratio under halving:",
      f"{abs(coarse.closure_integral()) / abs(fine.closure_integral()):.1f}")
