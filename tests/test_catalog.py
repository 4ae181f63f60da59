"""Resonance-case construction: constraints, coefficients, templates."""

import itertools
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
    SolitonParams,
    a12_closed_form,
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
from kpii_stem import catalog
from kpii_stem.errors import (
    DegenerateParameterError,
    DomainError,
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


# The bit reference for catalog.ROOTS: each case's constraint pair, resonance
# kinds and a12 closed form written out by hand, one function per root pattern.
def _ref_strong(k1, k2, k3, p3):
    return (k1 * (k1 * k3 + k3**2 + p3) / k3, -k2 * (k2 * k3 + k3**2 - p3) / k3)


def _ref_weak(k1, k2, k3, p3):
    return (-k1 * (k1 * k3 - k3**2 - p3) / k3, k2 * (k2 * k3 - k3**2 + p3) / k3)


def _ref_mixed(k1, k2, k3, p3):
    return (k1 * (k1 * k3 + k3**2 + p3) / k3, k2 * (k2 * k3 - k3**2 + p3) / k3)


def _ref_all_weak(k1, k2, k3, p3):
    return (-k1 * (k1 * k3 - k3**2 - p3) / k3, -k2 * (k2 * k3 - k3**2 - p3) / k3)


def _ref_mixed3(k1, k2, k3, p3):
    return (-k1 * (k1 * k3 + k3**2 - p3) / k3, -k2 * (k2 * k3 + k3**2 - p3) / k3)


REF_CONSTRAINTS = {
    Case.C2_1: _ref_strong, Case.C2_2: _ref_strong, Case.C2_3: _ref_strong,
    Case.C2_4: _ref_strong, Case.W2: _ref_weak, Case.M2: _ref_mixed,
    Case.C3_1: _ref_all_weak, Case.C3_2: _ref_mixed3,
}

_E, _S, _W = ResonanceKind.ELASTIC, ResonanceKind.STRONG, ResonanceKind.WEAK
REF_KINDS = {
    _ref_strong: {(1, 2): _E, (1, 3): _S, (2, 3): _S},
    _ref_weak: {(1, 2): _E, (1, 3): _W, (2, 3): _W},
    _ref_mixed: {(1, 2): _E, (1, 3): _S, (2, 3): _W},
    _ref_all_weak: {(1, 2): _W, (1, 3): _W, (2, 3): _W},
    _ref_mixed3: {(1, 2): _W, (1, 3): _S, (2, 3): _S},
}


def _ref_a12(case, k):
    k1, k2, k3 = k
    family = REF_CONSTRAINTS.get(case)
    if family is _ref_strong:
        den = k3 * (k1 + k2 + k3)
        if den == 0:
            raise DegenerateParameterError("a12 denominator k3 (k1 + k2 + k3) vanishes")
        return (k1 + k3) * (k2 + k3) / den
    if family is _ref_weak:
        den = k3 * (k1 + k2 - k3)
        if den == 0:
            raise DegenerateParameterError("a12 denominator k3 (k1 + k2 - k3) vanishes")
        return -(k1 - k3) * (k2 - k3) / den
    if family is _ref_mixed:
        den = (k1 + k3) * (k2 - k3)
        if den == 0:
            raise DegenerateParameterError("a12 denominator (k1 + k3)(k2 - k3) vanishes")
        return -k3 * (k1 - k2 + k3) / den
    return None


def _reference_draws(rng, n):
    """n rounds of (k, p3): plain; one pair near-opposite or opposite; each
    entry scaled by its own 10**e, |e| <= 200; all scaled by 10**+-200; and
    one entry a signed zero or non-finite."""
    specials = [0.0, -0.0, math.inf, -math.inf, math.nan]
    for _ in range(n):
        k = rng.uniform(0.1, 3.0, 3) * rng.choice([-1.0, 1.0], 3)
        p3 = float(rng.uniform(-3.0, 3.0))
        yield k.tolist(), p3
        near = k.copy()
        i, j = ((0, 1), (0, 2), (1, 2))[rng.integers(3)]
        near[j] = -near[i] * (1.0 + rng.integers(2) * rng.choice([-1.0, 1.0])
                              * 10.0 ** rng.uniform(-16, -2))
        yield near.tolist(), p3
        yield ((k * 10.0 ** rng.integers(-200, 201, 3)).tolist(),
               p3 * 10.0 ** int(rng.integers(-200, 201)))
        scale = 10.0 ** int(rng.choice([-200, 200]))
        yield (k * scale).tolist(), p3 * scale
        entries = k.tolist() + [p3]
        entries[rng.integers(4)] = float(rng.choice(specials))
        yield entries[:3], entries[3]


def _bits(value):
    """float.hex of every float in value (a SolitonParams's k, p and xi0)."""
    if isinstance(value, SolitonParams):
        value = value.k + value.p + value.xi0
    if isinstance(value, float):
        return value.hex()
    return tuple(map(_bits, value)) if isinstance(value, tuple) else value


def _outcome(f, *args):
    """The bits of f(*args), or the type and message of what it raises."""
    try:
        return _bits(f(*args))
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("case", RESONANT_CASES)
@pytest.mark.parametrize("branch", BRANCHES)
def test_roots_table_matches_written_out_reference(case, branch, monkeypatch):
    """ROOTS gives the bits or the exceptions of the written-out constraint
    pair, kinds and a12 closed form, on plain, near-opposite, extreme,
    signed-zero and non-finite draws."""
    spec = CaseSpec(case, branch)
    rng = np.random.default_rng([130, RESONANT_CASES.index(case), BRANCHES.index(branch)])
    draws = list(_reference_draws(rng, 300))
    sign = 1.0 if branch is Branch.FIRST else -1.0
    got = [(_outcome(catalog.CONSTRAINTS[case], *k, sign * p3),
            _outcome(resolve_constraints, k, p3, spec)) for k, p3 in draws]
    with monkeypatch.context() as m:
        m.setitem(catalog.CONSTRAINTS, case, REF_CONSTRAINTS[case])
        want = [(_outcome(REF_CONSTRAINTS[case], *k, sign * p3),
                 _outcome(resolve_constraints, k, p3, spec)) for k, p3 in draws]
    assert got == want
    resolved = 0
    for k, p3 in draws:
        assert _outcome(a12_closed_form, case, k) == _outcome(_ref_a12, case, k), k
        try:
            params = resolve_constraints(k, p3, spec)
        except (InadmissibleParameterError, DegenerateParameterError, DomainError):
            continue
        resolved += 1
        got_class = classify_resonance(params, spec)
        assert got_class.kinds == REF_KINDS[REF_CONSTRAINTS[case]]
        assert _bits(got_class.a12) == _outcome(_ref_a12, case, params.k)
    assert resolved >= 100
    assert a12_closed_form(Case.GENERIC, (1.0, 2.0, 3.0)) is None


# The bit reference for catalog.TEMPLATES, which ROOTS and SHIFTS give: each
# case's tau terms written out by hand, in tau term order; A12 marks the terms
# that carry a12.
A12 = catalog.A12
REF_TEMPLATES = {
    Case.C2_1: (((0, 0, 0), 1), ((1, 0, 0), 1), ((0, 1, 0), 1),
                ((1, 1, 0), A12), ((1, 1, 1), A12)),
    Case.C2_2: (((0, 0, 0), 1), ((0, 1, 0), 1), ((0, 1, 1), 1), ((1, 1, 1), A12)),
    Case.C2_3: (((0, 0, 0), 1), ((1, 0, 0), 1), ((1, 0, 1), 1), ((1, 1, 1), A12)),
    Case.C2_4: (((0, 0, 0), 1), ((0, 0, 1), 1), ((1, 0, 1), 1),
                ((0, 1, 1), 1), ((1, 1, 1), A12)),
    Case.W2: (((0, 0, 0), 1), ((1, 0, 0), 1), ((0, 1, 0), 1),
              ((0, 0, 1), 1), ((1, 1, 0), A12)),
    Case.M2: (((0, 0, 0), 1), ((1, 0, 0), 1), ((0, 1, 0), 1),
              ((1, 1, 0), A12), ((1, 0, 1), 1)),
    Case.C3_1: (((0, 0, 0), 1), ((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1)),
    Case.C3_2: (((0, 0, 0), 1), ((0, 0, 1), 1), ((1, 0, 1), 1), ((0, 1, 1), 1)),
}


def test_templates_derived_from_the_limit_match_written_out_reference():
    # repr also compares the order of the terms and 1 against 1.0
    assert repr(list(catalog.TEMPLATES.items())) == repr(list(REF_TEMPLATES.items()))


def _relabel(r, weak12, template):
    """The same limit with solitons 1 and 2 swapped, in tau term order."""
    swapped = {(e2, e1, e3): c for (e1, e2, e3), c in template}
    return (r[1], r[0]), weak12, tuple((e, swapped[e]) for e in catalog.TERMS if e in swapped)


def test_limit_enumeration_gives_the_cases_and_one_template_more():
    """Over every pair of roots, (1, 2) elastic or weak and every shift in
    {-1, 0, 1}^6, the templates of 4 or more terms in which each soliton
    index takes both values are the 8 cases, T = {0, e2, e3, e13} and
    {0, e1, e2, e13} on strong-weak roots, and their 1 <-> 2 relabellings;
    each case's template comes from its SHIFTS entry alone."""
    shifts = {}
    for r in itertools.product((1, -1), repeat=2):
        for weak12 in (False, True):
            for shift in itertools.product(itertools.product((-1, 0, 1), repeat=3), repeat=2):
                try:
                    template = catalog.limit_template(r, weak12, shift)
                except ValueError:      # a term grows
                    continue
                eps = [e for e, _ in template]
                if len(eps) >= 4 and all({e[j] for e in eps} == {0, 1} for j in range(3)):
                    shifts.setdefault((r, weak12, template), []).append(shift)
    cases = {}
    for case, ((r1, _), (r2, _)) in catalog.ROOTS.items():
        weak12 = REF_KINDS[REF_CONSTRAINTS[case]][(1, 2)] is ResonanceKind.WEAK
        cases[(r1, r2), weak12, REF_TEMPLATES[case]] = case
    one = ((0, 0, 0), 1)
    t = (one, ((0, 1, 0), 1), ((0, 0, 1), 1), ((1, 0, 1), 1))
    companion = (one, ((1, 0, 0), 1), ((0, 1, 0), 1), ((1, 0, 1), 1))
    expected = {*cases, ((1, -1), False, t), ((1, -1), True, t), ((1, -1), True, companion)}
    expected |= {_relabel(*limit) for limit in expected}
    assert set(shifts) == expected
    for limit, case in cases.items():
        assert shifts[limit] == [catalog.SHIFTS[case]], case


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


def test_generic_signed_zero_phase_constants_give_the_same_tau():
    """A -0.0 phase constant stays -0.0 in params, but every phase sum starts
    from integer 0, so the tau terms carry +0.0 as for a +0.0 constant."""
    k, p = (1.0, 2.0, 3.0), (0.2, -0.3, 0.1)
    neg, pos = (make_generic(k, p, xi0=(z, z, z)) for z in (-0.0, 0.0))
    assert repr(neg.params.xi0) == "(-0.0, -0.0, -0.0)"
    assert repr(neg.tau) == repr(pos.tau)
    assert all(repr(term.phase) == "0.0" for term in neg.tau.terms)


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
