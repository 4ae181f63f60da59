"""Both stem lengths against a 50-digit oracle.

The oracle takes the scenario's float k and p3 as exact, resolves p1 and p2
from the case's constraint pair in 50-digit arithmetic, checks that the
pairs the case makes resonant have a vanishing factor of a_ij there, forms
a12 from its definition at those p, and solves psi_m = psi_n = psi_r for
each end junction the catalog names (oracle_terms and junction_point, which
the endpoint tests share).  The stem length is the distance between the two
junction points.  Both the geometric length of stem_endpoints and
stem_length_formula are compared with it.
"""

import math

import mpmath
import numpy as np
import pytest

from kpii_stem import Branch, CaseSpec, ResonanceKind, build_case, build_solution, catalog
from kpii_stem import stem_endpoints, stem_length_formula, stem_side
from kpii_stem.cli import load_scenario

from conftest import SCENARIOS
from test_catalog import RESONANT_CASES, draw_params

TIMES = (-400.0, -20.0, -3.0, -0.5, 1e-3, 0.5, 3.0, 20.0, 400.0)
# Each coordinate is a sum of products of rational expressions in (k, p3)
# and ln a12; 2**-46 (64 ulps) of the larger of the length and the endpoint
# distances from the origin leaves room for their roundings, yet is four
# decades below the 1e-9 of the dual-path endpoint check.
TOL = 2.0**-46
mp = mpmath.mp.clone()
mp.dps = 50


def _aij_factors(ki, pi, kj, pj):
    """(num, den) of a_ij = ((ki kj (ki - kj))^2 - c^2) / ((ki kj (ki + kj))^2 - c^2),
    c = kj pi - ki pj."""
    m, c = ki * kj, kj * pi - ki * pj
    return (m * (ki - kj))**2 - c**2, (m * (ki + kj))**2 - c**2


def oracle_terms(sol):
    """eps -> (K, P, W, ln c + eps . xi0) of each template term, to 50 digits."""
    k = [mp.mpf(v) for v in sol.params.k]
    p3 = mp.mpf(sol.params.p[2])
    constraint = catalog.CONSTRAINTS[sol.spec.case]
    if sol.spec.branch is Branch.FIRST:
        p = [*constraint(*k, p3), p3]
    else:
        p = [*(-v for v in constraint(*k, -p3)), p3]
    for (i, j), kind in sol.resonance.kinds.items():
        num, den = _aij_factors(k[i - 1], p[i - 1], k[j - 1], p[j - 1])
        size = (abs(k[i - 1] * k[j - 1]) * (abs(k[i - 1]) + abs(k[j - 1]))
                + abs(k[j - 1] * p[i - 1]) + abs(k[i - 1] * p[j - 1]))**2
        if kind is not ResonanceKind.ELASTIC:
            assert abs(num if kind is ResonanceKind.WEAK else den) <= mp.mpf(10)**-40 * size
    num, den = _aij_factors(k[0], p[0], k[1], p[1])
    log_c = {catalog.A12: mp.log(num / den), 1: mp.mpf(0)}
    omegas = [-(kj**4 + 3 * pj**2) / kj for kj, pj in zip(k, p)]
    xi0 = [mp.mpf(v) for v in sol.params.xi0]

    def psi(eps, coeff):
        return (sum(e * v for e, v in zip(eps, k)), sum(e * v for e, v in zip(eps, p)),
                sum(e * v for e, v in zip(eps, omegas)),
                log_c[coeff] + sum(e * v for e, v in zip(eps, xi0)))

    return {eps: psi(eps, coeff) for eps, coeff in catalog.TEMPLATES[sol.spec.case]}


def junction_point(terms, junction, t):
    """The point where psi_m = psi_n = psi_r for the junction's three terms
    at t, to 50 digits."""
    (Ka, Pa, Wa, la), (Kb, Pb, Wb, lb), (Kc, Pc, Wc, lc) = (terms[e] for e in junction)
    t = mp.mpf(t)
    M = mp.matrix([[Ka - Kb, Pa - Pb], [Ka - Kc, Pa - Pc]])
    rhs = mp.matrix([-((Wa - Wb) * t + la - lb), -((Wa - Wc) * t + la - lc)])
    return mp.lu_solve(M, rhs)


def junction_distance(sol, t):
    """The larger distance of the two stem endpoints at t from the points
    where their junctions' three terms tie, to 50 digits, relative to the
    larger of 1 and the endpoint's distance from the origin."""
    terms = oracle_terms(sol)
    rep = stem_endpoints(sol, t)
    worst = 0.0
    for junction, (x, y) in zip(stem_side(sol, t)[1], (rep.endpoint_a, rep.endpoint_b)):
        px, py = junction_point(terms, junction, t)
        worst = max(worst, float(mp.hypot(px - x, py - y)) / max(1.0, math.hypot(x, y)))
    return worst


def _oracle(sol):
    """t -> the stem length of sol at t, and its endpoint scale, to 50 digits."""
    terms = oracle_terms(sol)

    def length(t):
        a, b = (junction_point(terms, j, t) for j in stem_side(sol, t)[1])
        return (mp.hypot(a[0] - b[0], a[1] - b[1]),
                max(mp.hypot(a[0], a[1]), mp.hypot(b[0], b[1])))
    return length


def _worst(sol):
    """The largest error of each length over TIMES, relative to the oracle's
    larger of the length and the endpoint distances from the origin."""
    oracle = _oracle(sol)
    worst = [0.0, 0.0]
    for t in TIMES:
        want, scale = oracle(t)
        scale = max(want, scale)
        for i, got in enumerate((stem_endpoints(sol, t).length, stem_length_formula(sol, t))):
            worst[i] = max(worst[i], float(abs(mp.mpf(got) - want) / scale))
    return worst


def _scenario_solutions():
    for path in sorted(SCENARIOS.glob("*.json")):
        sc = load_scenario(path)
        for branch in Branch:
            yield f"{path.stem}-{branch.value}", build_case(sc.case, sc.k, sc.p3, branch=branch)


def _draw_solutions():
    for case in RESONANT_CASES:
        for branch in Branch:
            rng = np.random.default_rng([2001, RESONANT_CASES.index(case),
                                         branch is Branch.SECOND])
            for i in range(3):
                params = draw_params(rng, case, branch)
                yield f"{case.value}-{branch.value}-{i}", build_solution(params,
                                                                         CaseSpec(case, branch))


@pytest.mark.parametrize("source", [_scenario_solutions, _draw_solutions],
                         ids=["scenarios", "draws"])
def test_stem_lengths_match_the_50_digit_oracle(source):
    for name, sol in source():
        worst = _worst(sol)
        assert max(worst) <= TOL, (name, worst)
