"""Cross sections of the field against the predicted sech^2 profiles.

Two kinds of sections: along a stem (the flat-topped interior of the ridge
reaches the predicted amplitude), and perpendicular to an arm far from all
junctions, where u collapses onto the single-arm profile to better than 1e-3.
"""

from pathlib import Path

import numpy as np

import kpii_stem as ks
from kpii_stem.cli import load_scenario
from kpii_stem.verify import section_anchor

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

sol = load_scenario(SCENARIOS / "w2.json").build()
cat = ks.arm_catalog(sol)

t = -2.0
rep = ks.stem_endpoints(sol, t)
stem = cat.stem_past
pts = ks.cross_section(sol, t, stem, s_range=(-0.45 * rep.length,
                                              0.45 * rep.length),
                       n_samples=1001, anchor=rep.midpoint)
u = np.array([v for _, v in pts])
print(f"along the {stem.label_str()} stem at t={t}:")
print(f"  interior max u = {u.max():.6f}   amplitude = {stem.amplitude:.6f}")

t = -20.0
for _, arm in cat.before:
    anchor = section_anchor(sol, arm, t)
    dev = ks.asymptotic_match(sol, arm, t)
    print(f"arm {arm.label_str():8s} anchored at "
          f"({anchor[0]:8.2f}, {anchor[1]:8.2f}):  sup |u - profile| = {dev:.2e}")
