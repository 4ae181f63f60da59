"""Build each resonance case and read off its structure.

Every solution is determined by three wave numbers (k1, k2, k3), a free
transverse parameter p3 and a resonance case.  The remaining transverse
parameters are resolved from the case's constraint pair so that the pairwise
interaction coefficients reach 0 (weak resonance) or infinity (strong
resonance) exactly.  The surviving finite coefficient a12 carries the phase
shift ln a12 seen in the hatted arms.
"""

from pathlib import Path

import kpii_stem as ks
from kpii_stem.cli import load_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

for path in sorted(SCENARIOS.glob("*.json")):
    name = path.stem
    sol = load_scenario(path).build()
    cat = ks.arm_catalog(sol)
    print(f"=== {name}  (case {sol.spec.case.value})")
    print(f"    k  = {sol.params.k}")
    print(f"    p  = {tuple(round(v, 6) for v in sol.params.p)}")
    kinds = ", ".join(f"{i}{j}:{kind.value}" for (i, j), kind in
                      sorted(sol.resonance.kinds.items()))
    print(f"    resonance {kinds}   a12 = {sol.a12}")
    print(f"    tau terms: {len(sol.tau)}")
    arms = ", ".join(f"{r.value}:{a.label_str()}" for r, a in cat.before)
    print(f"    arms before: {arms}")
    print(f"    stem exchange: {cat.stem_past.label_str()} -> "
          f"{cat.stem_future.label_str()}")
    print()
