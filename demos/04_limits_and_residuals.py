"""Verification oracles in action.

The eight-term solution with all interaction coefficients finite is exact for
any admissible parameters; driving two coefficients toward their resonant
limits (after recentring the diverging phases) reproduces each case template
with deviation shrinking like the inverse coefficient magnitude.
"""

from pathlib import Path

import numpy as np

import kpii_stem as ks
from kpii_stem.cli import load_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

rng = np.random.default_rng(0)
pts_wide = np.column_stack([rng.uniform(-50, 50, 500),
                            rng.uniform(-50, 50, 500),
                            rng.uniform(-10, 10, 500)])
pts_core = np.column_stack([rng.uniform(-1.25, 1.25, 200),
                            rng.uniform(-1.25, 1.25, 200),
                            rng.uniform(-0.05, 0.05, 200)])

for name in ("c2_1", "w2", "m2", "c3_1"):
    sol = load_scenario(SCENARIOS / f"{name}.json").build()
    rep = ks.kp_residual(sol, pts_wide)
    devs = ks.limit_convergence(sol, [1e3, 1e4, 1e5, 1e6], pts_core)
    ladder = " -> ".join(f"{d:.1e}" for d in devs)
    print(f"{name:6s} residual {rep.max_abs_residual:.2e}   limit ladder {ladder}")
