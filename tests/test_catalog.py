"""Resonance-case construction: constraints, coefficients, templates."""

import math
from fractions import Fraction

import numpy as np
import pytest

from kpii_stem import (
    INFINITE,
    Branch,
    Case,
    CaseSpec,
    ResonanceKind,
    aij_factors,
    build_case,
    build_solution,
    classify_resonance,
    make_generic,
    omega,
    phase_shift_param,
    resolve_constraints,
    u_on_grid,
    kp_residual,
)
from kpii_stem.errors import (
    DegenerateParameterError,
    InadmissibleParameterError,
)

RESONANT_CASES = [Case.C2_1, Case.C2_2, Case.C2_3, Case.C2_4,
                  Case.W2, Case.M2, Case.C3_1, Case.C3_2]
BRANCHES = [Branch.FIRST, Branch.SECOND]

# (a12, a13, a23) limit pattern per case: "fin" finite positive, 0, or inf
PATTERNS = {
    Case.C2_1: ("fin", "inf", "inf"), Case.C2_2: ("fin", "inf", "inf"),
    Case.C2_3: ("fin", "inf", "inf"), Case.C2_4: ("fin", "inf", "inf"),
    Case.W2: ("fin", 0, 0), Case.M2: ("fin", "inf", 0),
    Case.C3_1: (0, 0, 0), Case.C3_2: (0, "inf", "inf"),
}


def draw_params(rng, case, branch=Branch.FIRST, max_tries=200):
    """Random admissible (k, p3) for the case."""
    for _ in range(max_tries):
        k = rng.uniform(0.4, 2.5, 3) * rng.choice([-1.0, 1.0], 3)
        if min(abs(k[0] - k[1]), abs(k[0] - k[2]), abs(k[1] - k[2])) < 0.15:
            continue
        p3 = rng.uniform(-2.0, 2.0)
        try:
            params = resolve_constraints(k, p3, CaseSpec(case, branch))
        except (InadmissibleParameterError, DegenerateParameterError):
            continue
        return params
    raise RuntimeError("no admissible draw found")


def test_omega_values():
    assert omega(1.0, 0.0) == -1.0
    assert omega(-1.0, 0.0) == 1.0
    want = Fraction(499, 108)
    assert omega(-4.0 / 3.0, 1.0) == pytest.approx(float(want), rel=1e-15)


def test_omega_zero_wavenumber():
    with pytest.raises(DegenerateParameterError):
        omega(0.0, 1.0)


def test_phase_shift_kdv_reduction():
    assert phase_shift_param(1.0, 0.0, 2.0, 0.0) == pytest.approx(1.0 / 9.0, rel=1e-15)


def test_phase_shift_distinguished_values():
    # opposite wave numbers with opposite tilts: denominator vanishes alone
    assert phase_shift_param(1.0, 0.5, -1.0, -0.5) is INFINITE
    # equal solitons: numerator vanishes alone
    assert phase_shift_param(1.0, 0.5, 1.0, 0.5) == 0.0


# strong pairs (i, 3) with ki + k3 ~ 1e-5 from seeded draws of c3_2 (first
# branch), c2_2 and c2_3 (second branch), where a_ij's denominator as a
# difference of squares cancels to a ~ -1e20 instead of vanishing
@pytest.mark.parametrize("ki,pi,kj,pj", [
    (-2.0317768019662155, -0.04213267939167535, 2.0318338303797234, 0.0422497342419943),
    (0.690902762263871, -1.4059317262949667, -0.690919324642431, 1.405976872674814),
    (-2.107792038345225, 1.8933616561325046, 2.1077779247843114, -1.8933787266277355),
])
def test_phase_shift_near_opposite_wave_numbers(ki, pi, kj, pj):
    assert phase_shift_param(ki, pi, kj, pj) is INFINITE


def test_aij_factors_within_forward_error_bound():
    """Each factor is within gamma_4 S of its exact rational value."""
    rng = np.random.default_rng(5)
    gamma4 = Fraction(4, 2**53) / (1 - Fraction(4, 2**53))
    for n in range(400):
        ki, pi, kj, pj = rng.uniform(-2.5, 2.5, 4)
        if n % 2:  # near-opposite wave numbers, the ill-conditioned side
            kj = -ki + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12, -2)
        num, den, size = aij_factors(ki, pi, kj, pj)
        ki, pi, kj, pj = map(Fraction, (ki, pi, kj, pj))
        m, c = ki * kj, kj * pi - ki * pj
        exact_size = abs(m) * (abs(ki) + abs(kj)) + abs(kj * pi) + abs(ki * pj)
        assert abs(Fraction(size) - exact_size) <= gamma4 * exact_size
        want = (m * (ki - kj) - c, m * (ki - kj) + c,
                m * (ki + kj) - c, m * (ki + kj) + c)
        for got, exact in zip(num + den, want):
            assert abs(Fraction(got) - exact) <= gamma4 * exact_size


def _assert_pattern(params, pattern):
    """phase_shift_param gives the (a12, a13, a23) limit pattern of a case."""
    k, p = params.k, params.p
    for (i, j), want in zip(((0, 1), (0, 2), (1, 2)), pattern):
        got = phase_shift_param(k[i], p[i], k[j], p[j])
        if want == "inf":
            assert got is INFINITE, (params, (i + 1, j + 1), got)
        elif want == 0:
            assert got == 0.0, (params, (i + 1, j + 1), got)
        else:
            assert isinstance(got, float) and 0.0 < got < math.inf, (params, got)


@pytest.mark.parametrize("case", RESONANT_CASES)
@pytest.mark.parametrize("branch", BRANCHES)
def test_constraint_fidelity_random_draws(case, branch):
    """Resolved (p1, p2) reproduce the case's coefficient limits exactly."""
    rng = np.random.default_rng([84, RESONANT_CASES.index(case), BRANCHES.index(branch)])
    for _ in range(100):
        _assert_pattern(draw_params(rng, case, branch), PATTERNS[case])


@pytest.mark.parametrize("case", RESONANT_CASES)
@pytest.mark.parametrize("branch", BRANCHES)
def test_constraint_fidelity_near_opposite_wave_numbers(case, branch):
    """The limit pattern holds when one pair has |ki + kj| in [1e-12, 1e-2]."""
    rng = np.random.default_rng([99, RESONANT_CASES.index(case), BRANCHES.index(branch)])
    admissible = 0
    for _ in range(200):
        k = rng.uniform(0.4, 2.5, 3) * rng.choice([-1.0, 1.0], 3)
        i, j = ((0, 1), (0, 2), (1, 2))[rng.integers(3)]
        k[j] = -k[i] + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12, -2)
        try:
            params = resolve_constraints(k, rng.uniform(-2.0, 2.0),
                                         CaseSpec(case, branch))
        except (InadmissibleParameterError, DegenerateParameterError):
            continue
        _assert_pattern(params, PATTERNS[case])
        admissible += 1
    assert admissible >= 50


@pytest.mark.parametrize("case", RESONANT_CASES)
def test_template_cardinality(case):
    rng = np.random.default_rng([103, RESONANT_CASES.index(case)])
    expected = {Case.C2_1: 5, Case.C2_2: 4, Case.C2_3: 4, Case.C2_4: 5,
                Case.W2: 5, Case.M2: 5, Case.C3_1: 4, Case.C3_2: 4}[case]
    for _ in range(10):
        params = draw_params(rng, case)
        sol = build_solution(params, CaseSpec(case))
        assert len(sol.tau) == expected
        assert all(c > 0 for _, c in sol.template)


def test_reference_resolution_exact_values():
    params = resolve_constraints((-1.0, -2.0, -4.0 / 3.0), 1.0, CaseSpec(Case.C2_1))
    assert params.p[0] == pytest.approx(37.0 / 12.0, rel=1e-15)
    assert params.p[1] == pytest.approx(-31.0 / 6.0, rel=1e-15)
    sol = build_solution(params, CaseSpec(Case.C2_1))
    assert sol.a12 == pytest.approx(35.0 / 26.0, rel=1e-15)

    params = resolve_constraints((1.0, -1.0, -2.0), -0.5, CaseSpec(Case.W2))
    sol = build_solution(params, CaseSpec(Case.W2))
    assert sol.a12 == pytest.approx(0.75, rel=1e-15)
    assert 0.0 < sol.a12 < math.inf

    params = resolve_constraints((2.0, 4.0 / 3.0, 1.0), 0.0, CaseSpec(Case.C3_1))
    assert params.p[0] == pytest.approx(-2.0, rel=1e-15)
    assert params.p[1] == pytest.approx(-4.0 / 9.0, rel=1e-15)


def test_inadmissible_a12_rejected():
    # sign-mirrored strong set with a12 = -1/2
    with pytest.raises(InadmissibleParameterError):
        resolve_constraints((-2.0 / 3.0, -1.0, 4.0 / 3.0), 2.0 / 3.0,
                            CaseSpec(Case.C2_2))


def test_generic_requires_its_own_constructor():
    with pytest.raises(DegenerateParameterError):
        resolve_constraints((1.0, 2.0, 3.0), 0.0, CaseSpec(Case.GENERIC))


def test_generic_template_has_eight_terms():
    sol = make_generic((1.0, 2.0, 3.0), (0.2, -0.3, 0.1))
    assert len(sol.template) == 8
    assert len(sol.tau) == 8


def test_generic_computes_each_coefficient_once(monkeypatch):
    import kpii_stem.catalog as catalog
    calls = []

    def counted(*args):
        calls.append(args)
        return phase_shift_param(*args)

    monkeypatch.setattr(catalog, "phase_shift_param", counted)
    sol = make_generic((1.0, 2.0, 3.0), (0.2, -0.3, 0.1))
    assert len(calls) == 3
    assert sol.resonance == classify_resonance(sol.params, sol.spec)


def test_generic_rejects_resonant_parameters():
    # on the strong manifold a13 is infinite: not representable generically
    params = resolve_constraints((-1.0, -2.0, -4.0 / 3.0), 1.0, CaseSpec(Case.C2_1))
    with pytest.raises(DegenerateParameterError):
        make_generic(params.k, params.p)


@pytest.mark.parametrize("case,kinds", [
    (Case.C2_1, {(1, 2): ResonanceKind.ELASTIC, (1, 3): ResonanceKind.STRONG,
                 (2, 3): ResonanceKind.STRONG}),
    (Case.W2, {(1, 2): ResonanceKind.ELASTIC, (1, 3): ResonanceKind.WEAK,
               (2, 3): ResonanceKind.WEAK}),
    (Case.M2, {(1, 2): ResonanceKind.ELASTIC, (1, 3): ResonanceKind.STRONG,
               (2, 3): ResonanceKind.WEAK}),
    (Case.C3_1, {(1, 2): ResonanceKind.WEAK, (1, 3): ResonanceKind.WEAK,
                 (2, 3): ResonanceKind.WEAK}),
    (Case.C3_2, {(1, 2): ResonanceKind.WEAK, (1, 3): ResonanceKind.STRONG,
                 (2, 3): ResonanceKind.STRONG}),
])
def test_classification_table(case, kinds, solutions):
    name = case.value
    sol = solutions[name]
    got = classify_resonance(sol.params, sol.spec)
    assert got.kinds == kinds


def test_single_soliton_limit_along_first_phase(solutions):
    # far down the xi_1 = 0 line the weak 3-resonant solution is the plain
    # single-soliton profile
    sol = solutions["c3_1"]
    k1, p1 = sol.params.k[0], sol.params.p[0]
    w1 = sol.params.omegas[0]
    t, y = -8.0, -50.0
    x = -(p1 * y + w1 * t) / k1
    u = float(u_on_grid(sol.tau, x, y, t))
    assert u == pytest.approx(k1 * k1 / 2.0, rel=1e-6)


def test_reference_solution_residual(solutions):
    rng = np.random.default_rng(2)
    pts = np.column_stack([rng.uniform(-50, 50, 100),
                           rng.uniform(-50, 50, 100),
                           rng.uniform(-10, 10, 100)])
    assert kp_residual(solutions["c2_1"], pts).max_abs_residual < 1e-8


@pytest.mark.parametrize("case", RESONANT_CASES)
def test_branch_mirror_symmetry(case):
    """Second branch at -p3 is the first branch reflected in y."""
    rng = np.random.default_rng([211, RESONANT_CASES.index(case)])
    params = draw_params(rng, case, Branch.FIRST)
    k, p3 = params.k, params.p[2]
    first = build_solution(params, CaseSpec(case, Branch.FIRST))
    second = build_case(case, k, -p3, branch=Branch.SECOND)
    pts = rng.uniform(-15, 15, (40, 3))
    u1 = u_on_grid(first.tau, pts[:, 0], pts[:, 1], pts[:, 2])
    u2 = u_on_grid(second.tau, pts[:, 0], -pts[:, 1], pts[:, 2])
    assert np.abs(u1 - u2).max() < 1e-11


def test_phase_constants_shift_single_arm():
    delta = 0.8
    shifted = build_case(Case.C3_1, (2.0, 4.0 / 3.0, 1.0), 0.0,
                         xi0=(delta, 0.0, 0.0))
    # still an exact solution, and the first arm's ridge now sits on
    # xi_1 + delta = 0
    rng = np.random.default_rng(9)
    pts = np.column_stack([rng.uniform(-30, 30, 100),
                           rng.uniform(-30, 30, 100),
                           rng.uniform(-5, 5, 100)])
    assert kp_residual(shifted, pts).max_abs_residual < 1e-8
    k1, p1 = shifted.params.k[0], shifted.params.p[0]
    w1 = shifted.params.omegas[0]
    t, y = -8.0, -50.0
    x = -(p1 * y + w1 * t + delta) / k1
    assert float(u_on_grid(shifted.tau, x, y, t)) == pytest.approx(
        k1 * k1 / 2.0, rel=1e-6)
