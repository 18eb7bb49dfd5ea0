"""(1+eps)-approximate search under the Euclidean metric.

Exact sublinear search under L2 is out of reach, but two approximations
work well: an exponential-grid snapping of segment endpoints (fixed
radius r, answer within (1+eps)r when anything is within r), and regular
k-gon outer bodies replacing squares for curve queries over segments.
"""

import math

import numpy as np

from curveq import (
    AnnStructure,
    Curve,
    ExponentialGrid,
    KgonStructure,
    Segment,
    ann_ladder_query,
    dfd_segment_curve,
    kgon_sides,
)

rng = np.random.default_rng(5)

print("exponential grid around a point, eps=0.5, radii [alpha, beta]=[0.177, 1]")
g = ExponentialGrid([0, 0], 0.5, 1 / (2 * math.sqrt(2)), 1.0)
print(f"  levels: {g.nlevels}, cells: {g.ncells}")

curves = [Curve(f"c{k}", rng.integers(0, 40, size=(5, 2))) for k in range(8)]
s = Segment("q", rng.integers(0, 40, 2), rng.integers(0, 40, 2))
exact = min(dfd_segment_curve(s, c, "l2")[0] for c in curves)
print(f"\nexact nearest distance: {exact:.6g}")

for eps in (1.0, 0.25):
    r = exact * 1.25
    hit = AnnStructure(curves, eps, r).query(s)
    print(f"  (1+{eps}, r={r:.4g})-structure -> {hit[0]}, certified <= {hit[1]:.6g}")

cid, d = ann_ladder_query(curves, 0.5, s, 0.5, 100.0)
print(f"  radius ladder (eps=0.5) -> {cid}, true distance {d:.6g} "
      f"(<= {1.5**2:.2f}x exact = {2.25 * exact:.6g})")

print("\nk-gon structure: curve query over segments")
segs = [Segment(f"s{k}", rng.integers(0, 40, 2), rng.integers(0, 40, 2)) for k in range(25)]
q = Curve("walk", rng.integers(0, 40, size=(6, 2)))
exact = min(dfd_segment_curve(sg, q, "l2")[0] for sg in segs)
for eps in (1.0, 0.1):
    kg = KgonStructure(segs, eps)
    sid, dt = kg.nearest(q)
    print(f"  eps={eps}: k={kgon_sides(eps)} sides -> {sid}, "
          f"estimate {dt:.6g} in [{exact:.6g}, {(1 + eps) * exact:.6g}]")
