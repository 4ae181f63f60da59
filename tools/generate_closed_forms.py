#!/usr/bin/env python3
"""Regenerate src/kpii_stem/_closed_forms.py.

For every resonance case (first constraint branch, zero phase constants) this
script solves, in exact rational arithmetic, the meeting point of each triple
of tau-function terms that the limit skeleton can name.  Each term of a case
template contributes the affine dominance function

    psi_m(x, y) = K_m x + P_m y + W_m t + lam_m * L,

with (K_m, P_m, W_m) the term's exponent vector, lam_m = 1 when the term
carries the finite interaction coefficient (L = ln a12) and 0 otherwise.
A junction {m, n, r} solves psi_m = psi_n = psi_r; its coordinates are linear
in t and L with coefficients that are rational in (k1, k2, k3, p3).  A stem's
length is the distance between its two end junctions, so it needs no table
of its own.

Which keys are emitted follows from the Newton polytope of the template.  At
t -> +-inf every psi_m / |t| = eps_m . (k x + p y +- omega) is linear in the
exponent vector eps_m with no constant term, so the limit skeleton that the
arm catalog reads is a planar slice of the normal fan of conv(template) (the
tropical picture of Kodama, KP Solitons and the Grassmannians, 2017): its
junctions lie where the slice meets facet normals.  A junction is therefore
three vectors on one facet, and a triple is kept when its plane supports the
hull (every other vector on one side of it, at least one strictly), an exact
integer orientation test.  Each 5-term template is a square pyramid, which
drops its two diagonal planes: 48 junctions in all.

The generated module defines each distinct expression once, as a function
_eN(k1, k2, k3, p3) returning it (of 192 table coefficients 77 differ).
VERTEX[case][key] is the tuple (xt, xL, yt, yL) of such functions.  Keys
spell each exponent vector (a, b, c) by the module-level name _abc, which
compiles to less than a tuple literal.  Only the stem queries read the
table, and kpii_stem.geometry imports the module on the first of them.

The case tables (the constraint that each case's roots table gives, and the
tau templates that its roots and shifts tables give) are read from
kpii_stem.catalog, so the package under src/ must be importable.  The second
constraint branch never needs its own table: it is the mirror image y -> -y of
the first branch at negated p3 (checked in the test suite).

Run from the repository root whenever catalog.py changes; the table must come
out byte-identical unless the change means to alter it:

    python3 tools/generate_closed_forms.py && git diff --exit-code src/kpii_stem/_closed_forms.py

tests/test_closed_forms.py runs the same check into a temporary file, through
main(out), wherever sympy is installed.
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


def orientation(a, b, c, d):
    """Sign of det(b - a, c - a, d - a): the side of plane abc that d is on."""
    (u0, u1, u2), (v0, v1, v2), (w0, w1, w2) = (
        [q[i] - a[i] for i in range(3)] for q in (b, c, d))
    det = u0 * (v1 * w2 - v2 * w1) - u1 * (v0 * w2 - v2 * w0) + u2 * (v0 * w1 - v1 * w0)
    return (det > 0) - (det < 0)


def on_facet(eps_list, tri):
    """Whether the plane of the vectors eps_list[i], i in tri, supports their hull."""
    sides = {orientation(*(eps_list[i] for i in tri), e)
             for j, e in enumerate(eps_list) if j not in tri}
    return len(sides - {0}) == 1


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


def _vector_name(eps):
    return "_" + "".join(map(str, eps))


def _key_source(key):
    """Source text of a table key, with its exponent vectors by name."""
    return "(" + ", ".join(map(_vector_name, key)) + ")"


def main(out=Path(__file__).resolve().parents[1] / "src" / "kpii_stem" / "_closed_forms.py"):
    """Write the table to out (default: the package's _closed_forms.py)."""
    lines = [
        '"""Derived closed-form stem endpoint table.',
        "",
        "Generated by tools/generate_closed_forms.py; do not edit by hand.",
        "",
        "Each _eN(k1, k2, k3, p3) evaluates one distinct coefficient expression.",
        "VERTEX[case][key] = (xt, xL, yt, yL), four such functions: the meeting",
        "point of the three tau-function terms named by `key` sits at",
        "(xt*t + xL*log_a12, yt*t + yL*log_a12) for the first constraint branch",
        "with zero phase constants.  Keys are sorted tuples of term exponent",
        "vectors over (xi1, xi2, xi3); _abc names the vector (a, b, c).",
        "",
        "Only the keys the t -> +-inf limit skeleton can name are present: a",
        "junction is three vectors on one facet of the template's Newton polytope.",
        '"""',
        "",
    ]
    exprs = {}          # expression text -> function name, in order of first use

    def names(*coeffs):
        return tuple(exprs.setdefault(sp.pycode(e), f"_e{len(exprs)}") for e in coeffs)

    vertex_entries = {}
    for case, (cons, spec_terms) in CASES.items():
        terms = [term_data(cons, eps, lam) for eps, lam in spec_terms]
        eps_list = [eps for eps, _ in spec_terms]
        vertex_entries[case] = {}
        for tri in itertools.combinations(range(len(terms)), 3):
            if not on_facet(eps_list, tri):
                continue
            pt = junction_point(terms, tri)
            if pt is None:
                continue
            (xt, xL), (yt, yL) = pt
            vkey = tuple(sorted(eps_list[i] for i in tri))
            vertex_entries[case][vkey] = names(xt, xL, yt, yL)
        print(f"{case}: {len(vertex_entries[case])} vertices", file=sys.stderr)

    for code, fname in exprs.items():
        lines.extend((f"def {fname}(k1, k2, k3, p3):", f"    return {code}", ""))
    # a named vector compiles to one load, a literal one to four nodes
    vectors = sorted({eps for _, terms in CASES.values() for eps, _ in terms})
    lines.extend(f"{_vector_name(eps)} = {eps!r}" for eps in vectors)
    lines.append("")
    lines.append("VERTEX = {")
    for case, entries in vertex_entries.items():
        lines.append(f"    {case!r}: {{")
        for key, fnames in entries.items():
            lines.append(f"        {_key_source(key)}: ({', '.join(fnames)}),")
        lines.append("    },")
    lines.append("}")
    lines.append("")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(lines))
    print(f"wrote {out}", file=sys.stderr)


if __name__ == "__main__":
    main()
