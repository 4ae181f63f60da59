#!/usr/bin/env python3
"""Regenerate src/kpii_stem/_closed_forms.py.

For every resonance case (first constraint branch, zero phase constants) this
script solves, in exact rational arithmetic, the meeting point of each triple
of tau-function terms and the separation of each junction pair sharing a
two-term boundary.  Each term of a case template contributes the affine
dominance function

    psi_m(x, y) = K_m x + P_m y + W_m t + lam_m * L,

with (K_m, P_m, W_m) the term's exponent vector, lam_m = 1 when the term
carries the finite interaction coefficient (L = ln a12) and 0 otherwise.
A junction {m, n, r} solves psi_m = psi_n = psi_r; its coordinates are linear
in t and L with coefficients that are rational in (k1, k2, k3, p3).  A
boundary segment between two junctions that share the pair {m, n} has length
|s_t * t + s_L * L| * sqrt(g), all three factors rational in the parameters.

The case tables (constraint pairs and tau templates) are read from
kpii_stem.catalog, so the package under src/ must be importable.  The second
constraint branch never needs its own table: it is the mirror image y -> -y
of the first branch at negated p3 (checked in the test suite).

Run from the repository root:  python3 tools/generate_closed_forms.py
"""

import itertools
import sys
from pathlib import Path

import sympy as sp

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from kpii_stem.catalog import A12, CONSTRAINTS, TEMPLATES  # noqa: E402

k1, k2, k3, p3 = sp.symbols("k1 k2 k3 p3")
t, L = sp.symbols("t L")


# exact counterpart of catalog.omega, whose float 3.0 would leak sympy Floats
def omega(k, p):
    return -(k**4 + 3 * p**2) / k


# case -> (constraints, [(eps, lam), ...]); lam = 1 on the a12-weighted term
CASES = {
    case.value: (CONSTRAINTS[case](k1, k2, k3, p3),
                 [(eps, int(coeff is A12)) for eps, coeff in template])
    for case, template in TEMPLATES.items()
}


def term_data(constraints, eps, lam):
    p1, p2 = constraints
    kv, pv = (k1, k2, k3), (p1, p2, p3)
    wv = tuple(omega(kv[j], pv[j]) for j in range(3))
    K = sum(e * kv[j] for j, e in enumerate(eps))
    P = sum(e * pv[j] for j, e in enumerate(eps))
    W = sum(e * wv[j] for j, e in enumerate(eps))
    return sp.together(K), sp.together(P), sp.together(W), lam


def junction_point(terms, tri):
    """Solve psi_a = psi_b = psi_c; return ((xt, xL), (yt, yL)) or None."""
    (Ka, Pa, Wa, la), (Kb, Pb, Wb, lb), (Kc, Pc, Wc, lc) = (terms[i] for i in tri)
    x, y = sp.symbols("x y")
    eq1 = sp.Eq((Ka - Kb) * x + (Pa - Pb) * y + (Wa - Wb) * t + (la - lb) * L, 0)
    eq2 = sp.Eq((Ka - Kc) * x + (Pa - Pc) * y + (Wa - Wc) * t + (la - lc) * L, 0)
    det = sp.simplify((Ka - Kb) * (Pa - Pc) - (Ka - Kc) * (Pa - Pb))
    if det == 0:
        return None
    sol = sp.solve([eq1, eq2], [x, y], dict=True)
    if not sol:
        return None
    xs, ys = sol[0][x], sol[0][y]
    out = []
    for expr in (xs, ys):
        expr = sp.cancel(sp.together(expr))
        ct = sp.cancel(sp.diff(expr, t))
        cL = sp.cancel(sp.diff(expr, L))
        assert sp.simplify(expr - ct * t - cL * L) == 0
        out.append((sp.factor(ct), sp.factor(cL)))
    return tuple(out)


def edge_length(terms, edge, ra, rb, points):
    """Length of the segment of boundary `edge` between junctions edge+{ra} and edge+{rb}."""
    key_a = frozenset(edge + (ra,))
    key_b = frozenset(edge + (rb,))
    if key_a not in points or key_b not in points:
        return None
    (xta, xLa), (yta, yLa) = points[key_a]
    (xtb, xLb), (ytb, yLb) = points[key_b]
    dxt, dxL = sp.cancel(xta - xtb), sp.cancel(xLa - xLb)
    dyt, dyL = sp.cancel(yta - ytb), sp.cancel(yLa - yLb)
    m, n = edge
    Km = terms[m][0] - terms[n][0]
    Pm = terms[m][1] - terms[n][1]
    gsq = sp.factor(sp.cancel(Km**2 + Pm**2))
    # separation is parallel to the boundary direction (-Pm, Km); extract scalars
    def scalar(cx, cy):
        sx = sp.cancel(-cx / Pm) if Pm != 0 else None
        sy = sp.cancel(cy / Km) if Km != 0 else None
        if sx is not None and sy is not None:
            assert sp.simplify(sx - sy) == 0, (edge, ra, rb)
        return sx if sx is not None else sy
    st = scalar(dxt, dyt)
    sL = scalar(dxL, dyL)
    if st is None or sL is None:
        return None
    return sp.factor(st), sp.factor(sL), gsq


def main():
    out = Path(__file__).resolve().parents[1] / "src" / "kpii_stem" / "_closed_forms.py"
    lines = [
        '"""Derived closed-form stem geometry tables.',
        "",
        "Generated by tools/generate_closed_forms.py; do not edit by hand.",
        "",
        "VERTEX[case][key](k1, k2, k3, p3) -> (xt, xL, yt, yL): the meeting point",
        "of the three tau-function terms named by `key` sits at",
        "(xt*t + xL*log_a12, yt*t + yL*log_a12) for the first constraint branch",
        "with zero phase constants.  SEGMENT[case][(edge, ends)] -> (st, sL, g):",
        "the separation of the two junctions flanking `edge` has length",
        "|st*t + sL*log_a12| * sqrt(g).  Keys are sorted tuples of term",
        "exponent vectors over (xi1, xi2, xi3).",
        '"""',
        "",
    ]
    vertex_entries = {}
    segment_entries = {}
    fn_lines = []
    fn_count = 0
    for case, (cons, spec_terms) in CASES.items():
        terms = [term_data(cons, eps, lam) for eps, lam in spec_terms]
        eps_list = [eps for eps, _ in spec_terms]
        points = {}
        vertex_entries[case] = {}
        for tri in itertools.combinations(range(len(terms)), 3):
            pt = junction_point(terms, tri)
            if pt is None:
                continue
            key = frozenset(tri)
            points[key] = pt
            (xt, xL), (yt, yL) = pt
            fname = f"_v{fn_count}"
            fn_count += 1
            fn_lines.append(f"def {fname}(k1, k2, k3, p3):")
            for nm, e in (("xt", xt), ("xL", xL), ("yt", yt), ("yL", yL)):
                fn_lines.append(f"    {nm} = {sp.pycode(e)}")
            fn_lines.append("    return (xt, xL, yt, yL)")
            fn_lines.append("")
            vkey = tuple(sorted(eps_list[i] for i in tri))
            vertex_entries[case][vkey] = fname
        segment_entries[case] = {}
        for edge in itertools.combinations(range(len(terms)), 2):
            rest = [r for r in range(len(terms)) if r not in edge]
            for ra, rb in itertools.combinations(rest, 2):
                res = edge_length(terms, edge, ra, rb, points)
                if res is None:
                    continue
                st, sL, gsq = res
                fname = f"_s{fn_count}"
                fn_count += 1
                fn_lines.append(f"def {fname}(k1, k2, k3, p3):")
                for nm, e in (("st", st), ("sL", sL), ("g", gsq)):
                    fn_lines.append(f"    {nm} = {sp.pycode(e)}")
                fn_lines.append("    return (st, sL, g)")
                fn_lines.append("")
                ekey = tuple(sorted((eps_list[edge[0]], eps_list[edge[1]])))
                endkey = tuple(sorted((eps_list[ra], eps_list[rb])))
                segment_entries[case][(ekey, endkey)] = fname
        print(f"{case}: {len(vertex_entries[case])} vertices, "
              f"{len(segment_entries[case])} segments", file=sys.stderr)

    lines.extend(fn_lines)
    lines.append("VERTEX = {")
    for case, entries in vertex_entries.items():
        lines.append(f"    {case!r}: {{")
        for key, fname in entries.items():
            lines.append(f"        {key!r}: {fname},")
        lines.append("    },")
    lines.append("}")
    lines.append("")
    lines.append("SEGMENT = {")
    for case, entries in segment_entries.items():
        lines.append(f"    {case!r}: {{")
        for key, fname in entries.items():
            lines.append(f"        {key!r}: {fname},")
        lines.append("    },")
    lines.append("}")
    lines.append("")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(lines))
    print(f"wrote {out}", file=sys.stderr)


if __name__ == "__main__":
    main()
