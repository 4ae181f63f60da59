"""Follow one stem through its reconnection.

The stem of the strong 2-resonant solution shrinks as t increases toward
zero, the four arms reorganize into new V-shaped pairs, and a different stem
species grows back out.  The endpoints come from trajectory intersections
and independently from derived closed forms; the midpoint amplitude tends to
the stem's sech^2 amplitude on both sides.
"""

from pathlib import Path

import kpii_stem as ks
from kpii_stem.cli import load_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

sol = load_scenario(SCENARIOS / "c2_1.json").build()
cat = ks.arm_catalog(sol)
print(f"past stem  {cat.stem_past.label_str():8s} amplitude "
      f"{cat.stem_past.amplitude:.6f}")
print(f"future stem {cat.stem_future.label_str():7s} amplitude "
      f"{cat.stem_future.amplitude:.6f}")
print()
print(f"{'t':>7} {'length':>12} {'closed form':>12} {'midpoint u':>12} {'valid':>6}")
for t in (-30.0, -20.0, -10.0, -5.0, -2.0, -0.5, 0.5, 2.0, 5.0, 10.0, 20.0, 30.0):
    rep = ks.stem_endpoints(sol, t)
    lf = ks.stem_length_formula(sol, t)
    print(f"{t:7.1f} {rep.length:12.6f} {lf:12.6f} "
          f"{rep.midpoint_amplitude:12.6f} {str(rep.valid):>6}")

print()
print("limits: (k1+k2+k3)^2/2 =", (sum(sol.params.k)) ** 2 / 2,
      "   k3^2/2 =", sol.params.k[2] ** 2 / 2)
