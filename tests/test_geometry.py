"""Arm catalogs, stem endpoints/lengths, amplitudes, sections, velocities."""

import math

import numpy as np
import pytest

from kpii_stem import (
    Case,
    Region,
    arm_catalog,
    arm_profile,
    build_case,
    cross_section,
    find_arm,
    make_generic,
    skeleton,
    stem_endpoints,
    stem_length_formula,
    stem_side,
    trajectory_line,
    velocity_table,
)
from kpii_stem.errors import (DegenerateParameterError, DomainError,
                              InadmissibleParameterError, InternalConsistencyError,
                              UnsupportedCaseError)
from kpii_stem.geometry import normalize_line
from kpii_stem.verify import section_anchor

from conftest import build_scenario
from test_catalog import RESONANT_CASES, draw_params
from test_closed_forms import _sweep_draws
from test_length_oracle import TOL, _scenario_solutions, junction_distance, mp
from kpii_stem import Branch, CaseSpec, build_solution

EXPECTED_STEMS = {
    "c2_1": (((1, 2, 3), True), ((3,), False)),
    "c2_1_alt": (((1, 3), True), ((2, 3), True)),
    "c2_2": (((2, 3), False), ((1, 3), True)),
    "c2_3": (((1, 3), False), ((2, 3), True)),
    "c2_4": (((1, 2, 3), True), ((3,), False)),
    "w2": (((1, -3), False), ((2, -3), False)),
    "m2": (((2, -3), True), ((1, 3), False)),
    "c3_1": (((1, -3), False), ((2,), False)),
    "c3_2": (((2,), False), ((1, 3), False)),
}


def test_reference_catalog_regions(solutions):
    cat = arm_catalog(solutions["c2_1"])
    before = {(r, a.label, a.hat) for r, a in cat.before}
    assert before == {
        (Region.Y_NEG, (1, 3), True), (Region.Y_NEG, (2,), False),
        (Region.Y_POS, (1,), False), (Region.Y_POS, (2, 3), True),
    }
    after = {(r, a.label, a.hat) for r, a in cat.after}
    assert after == {
        (Region.Y_NEG, (1, 3), True), (Region.Y_NEG, (2,), True),
        (Region.Y_POS, (1,), True), (Region.Y_POS, (2, 3), True),
    }
    assert cat.regime == "y"


def test_alternate_regime_listing(solutions):
    cat = arm_catalog(solutions["c2_1_alt"])
    assert cat.regime == "x"
    before = {(r, a.label, a.hat) for r, a in cat.before}
    assert before == {
        (Region.X_NEG, (1,), True), (Region.X_NEG, (2,), False),
        (Region.X_POS, (3,), False), (Region.X_POS, (1, 2, 3), True),
    }


@pytest.mark.parametrize("name", sorted(EXPECTED_STEMS))
def test_stem_species(name, solutions):
    cat = arm_catalog(solutions[name])
    (lp, hp), (lf, hf) = EXPECTED_STEMS[name]
    assert (cat.stem_past.label, cat.stem_past.hat) == (lp, hp)
    assert (cat.stem_future.label, cat.stem_future.hat) == (lf, hf)
    assert (cat.stem_past.label, cat.stem_past.hat) != (
        cat.stem_future.label, cat.stem_future.hat)


def test_mixed_three_resonant_catalog(solutions):
    cat = arm_catalog(solutions["c3_2"])
    before = {(r, a.label) for r, a in cat.before}
    assert before == {(Region.Y_NEG, (2, 3)), (Region.Y_POS, (1,)),
                      (Region.Y_POS, (3,)), (Region.Y_POS, (1, -2))}
    assert not any(a.hat for _, a in cat.before)


def test_catalog_requires_resonant_case():
    gen = make_generic((1.0, 2.0, 3.0), (0.2, -0.3, 0.1))
    with pytest.raises(UnsupportedCaseError):
        arm_catalog(gen)


def test_catalog_memo_is_weak_and_skips_skeleton(monkeypatch):
    import gc
    import weakref

    from kpii_stem import geometry
    calls = []
    real_skeleton = geometry.skeleton
    monkeypatch.setattr(geometry, "skeleton",
                        lambda sol, t: calls.append(t) or real_skeleton(sol, t))
    sol = build_scenario("c2_1")
    cat = arm_catalog(sol)
    assert calls == [-math.inf, math.inf]
    assert arm_catalog(sol) is cat
    assert len(calls) == 2
    ref = weakref.ref(sol)
    del sol, cat
    gc.collect()
    assert ref() is None


def _far_stem(sol, t):
    """The longest bounded edge of skeleton(sol, t) whose species no ray
    carries, and its junctions."""
    edges = skeleton(sol, t)
    rays = {e.arm.label for e in edges if not e.bounded}
    stem = max((e for e in edges if e.bounded and e.arm.label not in rays),
               key=lambda e: e.hi - e.lo)
    eps = [e for e, _ in sol.template]
    return stem.arm, tuple(sorted(tuple(sorted((eps[stem.m], eps[stem.n], eps[b])))
                                  for b in (stem.lo_bind, stem.hi_bind)))


def _catalog_draws():
    for case in RESONANT_CASES:
        for branch in Branch:
            rng = np.random.default_rng([611, RESONANT_CASES.index(case),
                                         list(Branch).index(branch)])
            for _ in range(6):
                yield build_solution(draw_params(rng, case, branch),
                                     CaseSpec(case, branch))


def test_catalog_stems_are_those_of_far_skeletons(solutions):
    """Each catalog stem and its junctions are the longest novel bounded edge
    of the skeleton at t = -1e6 and t = +1e6."""
    for sol in [*solutions.values(), *_catalog_draws()]:
        cat = arm_catalog(sol)
        assert (cat.stem_past, cat.past_junctions) == _far_stem(sol, -1e6)
        assert (cat.stem_future, cat.future_junctions) == _far_stem(sol, 1e6)


@pytest.mark.parametrize("case, k, p3, past, future", [
    # at t = +-50 a phase-shift jog 1-2 (length 641 and 2024) outgrows the stem
    ("c2_4", (0.3322126298432059, 2.8142302033330613, -1.5742139621014795),
     -1.7331770123390928, "2+3", "1+3"),
    ("c2_1", (0.9952500993670119, 2.470769460720458, -1.7333521002497938),
     0.3007571204655246, "1+3^", "2+3^"),
], ids=["c2_4", "c2_1"])
def test_catalog_reads_the_limit_not_a_finite_time(case, k, p3, past, future):
    cat = arm_catalog(build_case(case, k, p3))
    assert (cat.stem_past.label_str(), cat.stem_future.label_str()) == (past, future)


def test_near_degenerate_draw_builds_a_catalog():
    # k1 + k3 = 1e-5: the stem offset s_L ln a12 is about 1.3e6 long, so up to
    # |t| of about 1e6 both sides show the stem 1+3^; the limit tells them apart
    sol = build_case("c2_1", (1.0, 0.5, -1.0 + 1e-5), 0.5)
    cat = arm_catalog(sol)
    assert (cat.stem_past.label_str(), cat.stem_future.label_str()) == ("2+3^", "1+3^")
    for t in (-20.0, 20.0):
        assert stem_length_formula(sol, t) == pytest.approx(
            stem_endpoints(sol, t).length, rel=1e-9)


def _catalog_facts(sol):
    """The arm sets, stems and junctions of sol's catalog; its region
    listing follows the skeleton's axes, which scaling moves."""
    cat = arm_catalog(sol)
    return ({(a.label, a.hat) for _, a in cat.before}, {(a.label, a.hat) for _, a in cat.after},
            (cat.stem_past.label, cat.stem_past.hat), (cat.stem_future.label, cat.stem_future.hat),
            cat.past_junctions, cat.future_junctions)


def test_catalog_is_invariant_under_kpii_scaling():
    """(k, p3) -> (s k, s^2 p3) keeps every a_ij, so it keeps the catalog; with
    s = 2**e every K, P and W scales exactly, so the skeleton's tests must
    keep their verdicts from 2**-40 to 2**170."""
    rng = np.random.default_rng(7)
    for case in RESONANT_CASES:
        found = 0
        while found < 6:
            k, p3 = rng.uniform(-3.0, 3.0, 3), rng.uniform(-3.0, 3.0)
            try:
                facts = _catalog_facts(build_case(case, k, p3))
            except (InadmissibleParameterError, DegenerateParameterError,
                    InternalConsistencyError):  # inadmissible, or no reconnection
                continue
            found += 1
            for e in (-40, -27, 40, 100, 170):
                s = 2.0**e
                assert _catalog_facts(build_case(case, k * s, p3 * s * s)) == facts, (case, k, e)
    # off the powers of two the scaled draw rounds differently, and keeps it too
    k, p3 = np.array([1.3, 2.1, -0.7]), 0.4
    facts = _catalog_facts(build_case("c3_1", k, p3))
    for s in (1e-12, 1e-8, 1e12):
        assert _catalog_facts(build_case("c3_1", k * s, p3 * s * s)) == facts, s


def _wings_by_distance(sol, t):
    """The wing edges at each end junction of the limit stem of skeleton(sol,
    t), each oriented away from whichever of its ends lies nearer the
    junction (an infinite end is never the nearer)."""
    edges = skeleton(sol, t)
    rays = {e.arm.label for e in edges if not e.bounded}
    (stem,) = [e for e in edges if e.bounded and e.arm.label not in rays]
    wings = []
    for bind, s_end in ((stem.lo_bind, stem.lo), (stem.hi_bind, stem.hi)):
        junction, vertex = {stem.m, stem.n, bind}, stem.point(s_end)
        side = []
        for e in edges:
            if e is not stem and {e.m, e.n} <= junction:
                lo, hi = (math.dist(e.point(s), vertex) if math.isfinite(s) else math.inf
                          for s in (e.lo, e.hi))
                side.append((e, e.direction if lo <= hi else (-e.direction[0], -e.direction[1])))
        wings.append(side)
    return wings


def _listing(wings, regime):
    """Each wing's region by the sign of its outward direction on the regime's
    axis, sorted as the catalog sorts them."""
    axis = 1 if regime == "y" else 0
    regions = {("y", True): Region.Y_POS, ("y", False): Region.Y_NEG,
               ("x", True): Region.X_POS, ("x", False): Region.X_NEG}
    listing = [(regions[regime, d[axis] > 0], e.arm) for side in wings for e, d in side]
    return sorted(listing, key=lambda ra: (ra[0], ra[1].label, ra[1].hat))


def test_catalog_wings_leave_from_the_end_nearer_the_junction():
    """The catalog orients each wing by the term that binds its junction end;
    the end nearer the stem junction, in distance, gives the same regime and
    regions on the scenarios of both branches and on plain, near-degenerate
    and scaled seeded draws."""
    sols = [sol for _, sol in _scenario_solutions()]
    for case in RESONANT_CASES:
        for branch in Branch:
            spec = CaseSpec(case, branch)
            rng = np.random.default_rng([2027, RESONANT_CASES.index(case), branch is Branch.SECOND])
            for k, p3 in _sweep_draws(rng, 30):
                try:
                    sol = build_case(case, k, p3, branch=branch)
                    arm_catalog(sol)
                except (InadmissibleParameterError, DegenerateParameterError,
                        InternalConsistencyError):  # inadmissible, or no reconnection
                    continue
                sols.append(sol)
    assert len(sols) >= 300
    for sol in sols:
        cat = arm_catalog(sol)
        past, future = _wings_by_distance(sol, -math.inf), _wings_by_distance(sol, math.inf)
        opens_in_y = [abs(sum(d[1] for _, d in side)) >= abs(sum(d[0] for _, d in side))
                      for side in past]
        assert cat.regime == ("y" if all(opens_in_y) else "x")
        assert list(cat.before) == _listing(past, cat.regime)
        assert list(cat.after) == _listing(future, cat.regime)


def test_nan_time_is_rejected_at_the_skeleton(solutions):
    sol = solutions["m2"]
    (_, arm), *_ = arm_catalog(sol).before
    with pytest.raises(DomainError):
        skeleton(sol, math.nan)
    with pytest.raises(DomainError):
        section_anchor(sol, arm, math.nan)
    # an infinite time is the limit skeleton
    assert skeleton(sol, -math.inf) and skeleton(sol, math.inf)


def test_limit_skeleton_is_the_scaled_far_skeleton(solutions):
    """skeleton(sol, +-inf) is skeleton(sol, +-T) / T as T grows, without
    the edges of bounded length, and does not see ln c or xi0."""
    sol = solutions["c2_1"]
    shifted = build_case("c2_1", sol.params.k, sol.params.p[2], xi0=(0.3, -0.7, 1e10))
    for sign in (-1.0, 1.0):
        limit = skeleton(sol, sign * math.inf)
        assert [(e.m, e.n, e.lo, e.hi) for e in skeleton(shifted, sign * math.inf)] == [
            (e.m, e.n, e.lo, e.hi) for e in limit]
        T = 1e8
        far = {(e.m, e.n): e for e in skeleton(sol, sign * T)
               if not e.bounded or e.hi - e.lo > 1e3}
        assert sorted(far) == sorted((e.m, e.n) for e in limit)
        for e in limit:
            f = far[(e.m, e.n)]
            assert f.direction == e.direction
            for s, fs in ((e.lo, f.lo), (e.hi, f.hi)):
                if math.isfinite(s):
                    p, q = e.point(s), f.point(fs)
                    assert math.hypot(p[0] - q[0] / T, p[1] - q[1] / T) < 1e-6


def test_skeleton_bases_bitwise_as_planes_built_per_call(solutions):
    """Kept per solution, each plane constant still associates as
    (W t + xi0-part) + ln c, so the edge bases keep every bit."""
    sols = dict(solutions)
    for case in ("c2_1", "m2", "c3_1"):  # phase constants make xi0-part nonzero
        params = solutions[case].params
        sols[f"{case}_xi0"] = build_case(case, params.k, params.p[2],
                                         xi0=(0.3, -0.7, 1.1))
    for name, sol in sols.items():
        for t in (-20.0, -3.0, 0.5, 20.0):
            planes = {}
            for idx, (eps, coeff) in enumerate(sol.template):
                K, P, W, s0 = sol.exponent_of(eps)
                planes[idx] = (K, P, W * t + s0 + math.log(coeff))
            for e in skeleton(sol, t):
                (Ka, Pa, ca), (Kb, Pb, cb) = planes[e.m], planes[e.n]
                dK, dP, dc = Ka - Kb, Pa - Pb, ca - cb
                nrm = math.hypot(dK, dP)
                assert e.base == (-dc * dK / nrm**2, -dc * dP / nrm**2), (name, t)


def test_per_solution_state_does_not_keep_solutions_alive():
    import gc
    import weakref

    sol = build_scenario("c2_1")
    arm_catalog(sol)
    stem_endpoints(sol, -20.0)
    stem_endpoints(sol, 20.0)
    ref = weakref.ref(sol)
    del sol
    gc.collect()
    assert ref() is None


def test_arm_profile_values(solutions):
    sol = solutions["c2_1"]
    cat = arm_catalog(sol)
    stem = cat.stem_past
    assert stem.amplitude == pytest.approx(169.0 / 18.0, rel=1e-14)
    # on the trajectory line the profile equals the amplitude
    t = -2.0
    A, B, C = stem.line_coeffs(t)
    y0 = 1.0
    x0 = -(B * y0 + C) / A
    assert arm_profile(stem, (x0, y0, t)) == pytest.approx(
        stem.amplitude, rel=1e-13)
    # quarter amplitude where the phase combination reaches 2 asech(1/2)
    xi = 2.0 * math.acosh(2.0)
    x1 = -(B * y0 + C - xi) / A
    assert arm_profile(stem, (x1, y0, t)) == pytest.approx(
        stem.amplitude / 4.0, rel=1e-12)


def test_arm_profile_on_arrays_is_the_per_point_profile(solutions):
    # the section command's u_arm column takes one call on the section's
    # coordinate arrays; it must keep the bits of one call per sample
    for name, sol in solutions.items():
        for arm in arm_catalog(sol).species:
            for t in (-10.0, -2.0, 2.0, 10.0):
                A, B, C = normalize_line(arm.line_coeffs(t))
                for lo, hi in ((-20.0, 20.0), (-1e3, 1e3)):
                    s = np.linspace(lo, hi, 101)
                    xs, ys = -C * A + s * (-B), -C * B + s * A
                    want = [arm_profile(arm, (x, y, t)) for x, y in zip(xs.tolist(), ys.tolist())]
                    assert arm_profile(arm, (xs, ys, t)).tolist() == want, (name, arm, t)


def test_trajectory_line_basics(solutions):
    sol = solutions["c2_1"]
    arm1 = find_arm(sol, "1", hat=False)
    A, B, C = arm1.line_coeffs(0.0)
    assert C == 0.0  # through the origin at t = 0 with zero phase constants
    stem = arm_catalog(sol).stem_past
    _, _, C = stem.line_coeffs(0.0)
    assert C == pytest.approx(math.log(sol.a12), rel=1e-15)
    An, Bn, _ = trajectory_line(arm1, 0.0)
    assert math.hypot(An, Bn) == pytest.approx(1.0, rel=1e-15)
    assert An > 0 or (An == 0 and Bn > 0)


def test_junction_matches_closed_form_coordinates(solutions):
    # one written-out endpoint: the past stem 1+2+3^ of the strong reference
    # set ends where the first arm meets the hatted 2+3 arm; at t = -2
    sol = solutions["c2_1"]
    k1, k2, k3 = sol.params.k
    p3 = sol.params.p[2]
    L = math.log(sol.a12)
    t = -2.0
    A, B, C = trajectory_line(find_arm(sol, "1", hat=False), t)
    rep = stem_endpoints(sol, t)
    pt = min((rep.endpoint_a, rep.endpoint_b), key=lambda p: abs(A * p[0] + B * p[1] + C))
    want_x = ((k3**2 + 4 * k1 * k2 + 4 * k2 * k3 - 2 * p3
               + (4 * k2 * p3 - 4 * p3 * k1) / k3 - 3 * p3**2 / k3**2) * t
              - (k1 * k3 + k3**2 + p3) * L
              / (k3 * (k1 + k2 + k3) * (k2 + k3)))
    want_y = (L / ((k1 + k2 + k3) * (k2 + k3))
              + (6 * p3 / k3 + 4 * k1 - 4 * k2 + 2 * k3) * t)
    assert pt[0] == pytest.approx(want_x, rel=1e-10)
    assert pt[1] == pytest.approx(want_y, rel=1e-10)


def test_stem_report_zero_time(solutions):
    rep = stem_endpoints(solutions["c3_1"], 0.0)
    assert rep.endpoint_a == (0.0, 0.0) or rep.endpoint_a == (-0.0, 0.0)
    assert rep.length == 0.0
    assert not rep.valid


def test_stem_report_fields(solutions):
    rep = stem_endpoints(solutions["c2_1"], -5.0)
    assert rep.valid
    mx = 0.5 * (rep.endpoint_a[0] + rep.endpoint_b[0])
    my = 0.5 * (rep.endpoint_a[1] + rep.endpoint_b[1])
    assert rep.midpoint == (mx, my)
    d = math.hypot(rep.endpoint_a[0] - rep.endpoint_b[0],
                   rep.endpoint_a[1] - rep.endpoint_b[1])
    assert rep.length == pytest.approx(d, rel=1e-15)
    inside = stem_endpoints(solutions["c2_1"], 1.0)
    assert not inside.valid


def test_stem_side_names_stem_and_junctions(solutions):
    sol = solutions["c2_1"]
    cat = arm_catalog(sol)
    vectors = {eps for eps, _ in sol.template}
    for t, stem in ((-5.0, cat.stem_past), (0.0, cat.stem_past),
                    (1e-300, cat.stem_future), (5.0, cat.stem_future)):
        got, junctions = stem_side(sol, t)
        assert got is stem
        assert list(junctions) == sorted(junctions)
        for j in junctions:
            assert j == tuple(sorted(j)) and set(j) <= vectors and len(set(j)) == 3
        # the junctions share the stem's term pair, whose species is the stem
        shared = sorted(set(junctions[0]) & set(junctions[1]))
        assert len(shared) == 2
        diff = [a - b for a, b in zip(*shared)]
        label = tuple(j * d for j, d in zip((1, 2, 3), diff) if d != 0)
        assert label in (stem.label, tuple(-v for v in stem.label))
        # each junction's three terms tie at the reported endpoint
        assert junction_distance(sol, t) <= TOL


def test_midpoint_validity_tracks_exponent_rounding(solutions):
    sol = solutions["c2_1"]
    for t in (-20.0, 20.0):
        assert stem_endpoints(sol, t).valid
    # at t = 1e20 the midpoint's exponents are ~1e21, far beyond the 1e-9
    # budget; the amplitude computed there reads 0.0
    assert not stem_endpoints(sol, 1e20).valid
    assert not stem_endpoints(sol, -1e20).valid


def test_endpoint_mismatch_is_reported(solutions):
    rep = stem_endpoints(solutions["c2_1"], -5.0)
    assert 0.0 <= rep.endpoint_mismatch < 1e-9
    # phase constants shift the closed-form endpoints; the check still runs
    shifted = build_case(Case.C3_1, (2.0, 4.0 / 3.0, 1.0), 0.0, xi0=(0.3, 0.0, 0.0))
    for t in (-5.0, 5.0):
        assert 0.0 <= stem_endpoints(shifted, t).endpoint_mismatch < 1e-9


@pytest.mark.parametrize("name", sorted(EXPECTED_STEMS))
def test_phase_constants_are_a_space_time_translation(name, solutions):
    """With M the matrix of rows (k_j, p_j, omega_j), phase constants
    xi0 = M (x0, y0, t0) give the xi0 = 0 solution at (x + x0, y + y0,
    t + t0): the stem endpoints at t are those at t + t0 moved by -(x0, y0),
    the closed-form length at t is the one at t + t0, and the dual-path
    check runs on every row."""
    base = solutions[name]
    params, spec = base.params, base.spec
    M = mp.matrix([[k, p, w] for k, p, w in zip(params.k, params.p, params.omegas)])
    rng = np.random.default_rng([6301, sorted(EXPECTED_STEMS).index(name)])
    for _ in range(8):
        xi0 = tuple(rng.uniform(-1.0, 1.0, 3).tolist())
        x0, y0, t0 = (float(v) for v in mp.lu_solve(M, mp.matrix(xi0)))
        sol = build_case(spec.case, params.k, params.p[2], branch=spec.branch, xi0=xi0)
        for t in (-40.0, -20.0, 20.0, 40.0):
            assert (t > 0) == (t + t0 > 0)
            rep, ref = stem_endpoints(sol, t), stem_endpoints(base, t + t0)
            assert 0.0 <= rep.endpoint_mismatch < 1e-9
            for (x, y), (xr, yr) in ((rep.endpoint_a, ref.endpoint_a),
                                     (rep.endpoint_b, ref.endpoint_b)):
                scale = max(1.0, math.hypot(xr, yr))
                assert math.hypot(x - (xr - x0), y - (yr - y0)) <= 1e-12 * scale, (xi0, t)
            assert stem_length_formula(sol, t) == pytest.approx(
                stem_length_formula(base, t + t0), rel=1e-12, abs=1e-12), (xi0, t)


@pytest.mark.parametrize("name", sorted(EXPECTED_STEMS))
def test_length_formula_matches_distance(name, solutions):
    sol = solutions[name]
    for t in (-20.0, -5.0, -1.0, 1.0, 5.0, 20.0):
        rep = stem_endpoints(sol, t)
        lf = stem_length_formula(sol, t)
        assert lf == pytest.approx(rep.length, rel=1e-9, abs=1e-12)


def test_length_formula_examples(solutions):
    sol = solutions["c3_1"]
    k1, k2, k3 = sol.params.k
    p3 = sol.params.p[2]
    want = 4.0 * abs(k2) * math.sqrt(k1**2 + 1 - 2 * k1 * p3 / k3 + p3**2 / k3**2)
    assert stem_length_formula(sol, -1.0) == pytest.approx(want, rel=1e-12)
    assert stem_length_formula(sol, 0.0) == 0.0

    sol = solutions["w2"]
    rep = stem_endpoints(sol, -5.0)
    assert stem_length_formula(sol, -5.0) == pytest.approx(rep.length, rel=1e-10)

    # mixed case future side: length grows as 4 |t (k1+k3)/k3| sqrt(...)
    sol = solutions["m2"]
    k1, k2, k3 = sol.params.k
    p3 = sol.params.p[2]
    want = 4.0 * abs(10.0 * (k1 + k3) / k3) * math.sqrt(k3**2 + (k1 * k3 + p3)**2)
    assert stem_length_formula(sol, 10.0) == pytest.approx(want, rel=1e-12)


def test_length_formula_absent_for_generic():
    gen = make_generic((1.0, 2.0, 3.0), (0.2, -0.3, 0.1))
    with pytest.raises(UnsupportedCaseError):
        stem_length_formula(gen, 1.0)


# --- midpoint amplitude evolution: frozen closed-form oracles ---------------
# evaluated in 60-digit arithmetic; the raw exponentials overflow doubles

import mpmath


def _mp(fn):
    def wrapped(t):
        with mpmath.workdps(60):
            return float(fn(mpmath.mpf(t)))
    return wrapped


def _alpha(i):
    a, b = {1: (43, 867), 2: (851, 59), 3: (298, 612), 4: (655, 255),
            5: (553, 357), 6: (549.25, 360.75), 7: (484.25, 425.75),
            8: (253.5, 656.5), 9: (845, 65), 10: (188.5, 721.5),
            11: (614.25, 295.75)}[i]
    # exponents over the common denominator 910
    return mpmath.mpf(35) ** (mpmath.mpf(a) / 910) * mpmath.mpf(26) ** (mpmath.mpf(b) / 910)


@_mp
def strong_past_amp(t):
    e = mpmath.exp
    F1 = (2293200 * _alpha(1) * e(272 * t / 9) + 425880 * _alpha(2) * e(304 * t / 9)
          + 6604780 * _alpha(3) * e(64 * t / 3) + 5157880 * _alpha(4) * e(80 * t / 9)
          + 4022200 * _alpha(5) * e(112 * t / 9))
    den = 6084 * (_alpha(5) * e(112 * t / 9) + _alpha(4) * e(80 * t / 9)
                  + 35 * _alpha(3) / 26 * e(64 * t / 3) + 70) ** 2
    return (F1 + 279897800) / den


@_mp
def strong_future_amp(t):
    e = mpmath.exp
    F2 = (_alpha(6) * e(520 * t / 9)
          + mpmath.mpf(35525) / 116792 * _alpha(7) * e(1040 * t / 9)
          + mpmath.mpf(595) / 1123 * _alpha(8) * e(78 * t)
          + mpmath.mpf(117) / 1123 * _alpha(9) * e(338 * t / 9)
          + mpmath.mpf(42875) / 379574 * _alpha(10) * e(1222 * t / 9)
          + mpmath.mpf(1521) / 78610)
    den = 1863225 * (_alpha(9) * e(520 * t / 9)
                     + mpmath.mpf(26) / 35 * _alpha(11) * e(182 * t / 9)
                     + mpmath.mpf(35) / 13 * _alpha(6) * e(78 * t) + 26) ** 2
    return 3719825200 * e(182 * t / 9) * F2 / den


@_mp
def weak_past_amp(t):
    e, s3 = mpmath.exp, mpmath.sqrt(3)
    return ((30 * s3 * e(4 * t) + 6 * s3 * e(12 * t) + 30 * e(8 * t) + 54)
            / (3 * e(4 * t) + (e(8 * t) + 2) * s3) ** 2)


@_mp
def weak_future_amp(t):
    e, s3 = mpmath.exp, mpmath.sqrt(3)
    return (6 * (5 * s3 * e(24 * t) + e(36 * t) + s3 + 13 * e(12 * t))
            * e(12 * t) / (2 * s3 * e(24 * t) + s3 + 3 * e(12 * t)) ** 2)


@_mp
def mixed_past_amp(t):
    e, s3 = mpmath.exp, mpmath.sqrt(3)
    num = 3 * e(-3 * t / 2) * (729 * e(-15 * t / 2) + 1053 * e(-6 * t) * s3
                               + 675 * e(-9 * t / 2) + 243 * e(-3 * t) * s3
                               + 144 * e(-3 * t / 2) + 4 * s3)
    den = 2 * (s3 * e(-3 * t / 2) + 54 * s3 * e(-9 * t / 2) + 9 * e(-3 * t) + 3) ** 2
    return num / den


@_mp
def mixed_future_amp(t):
    e = mpmath.exp
    num = (36 * e(-15 * t / 2) + 144 * e(-6 * t) + 81 * e(-9 * t / 2)
           + 25 * e(-3 * t) + 13 * e(-3 * t / 2) + 1)
    den = 2 * (9 * e(-9 * t / 2) + e(-3 * t) + e(-3 * t / 2) + 2) ** 2
    return num / den


@_mp
def weak3_past_amp(t):
    e = mpmath.exp
    return (2 * e(-128 * t / 27) * (9 * e(-160 * t / 27) + 5 * e(-16 * t / 3)
                                    + 45 * e(-16 * t / 27) + 16)
            / (9 * (1 + 2 * e(-16 * t / 3) + e(-128 * t / 27)) ** 2))


@_mp
def weak3_future_amp(t):
    e = mpmath.exp
    return (2 * (9 * e(-10 * t / 3) + 40 * e(-8 * t / 3) + 10 * e(-2 * t / 3) + 16)
            / (9 * (2 + e(-8 * t / 3) + e(-2 * t / 3)) ** 2))


@pytest.mark.parametrize("name,oracles", [
    ("c2_1", (strong_past_amp, strong_future_amp)),
    ("w2", (weak_past_amp, weak_future_amp)),
    ("m2", (mixed_past_amp, mixed_future_amp)),
    ("c3_1", (weak3_past_amp, weak3_future_amp)),
])
def test_midpoint_amplitude_evolution(name, oracles, solutions):
    sol = solutions[name]
    past, future = oracles
    for t in (-8.0, -3.0, -1.5):
        assert stem_endpoints(sol, t).midpoint_amplitude == pytest.approx(past(t), abs=1e-8)
    for t in (1.5, 3.0, 8.0, 10.0):
        assert stem_endpoints(sol, t).midpoint_amplitude == pytest.approx(future(t), abs=1e-8)


@pytest.mark.parametrize("name,limits", [
    ("c2_1", (169.0 / 18.0, 8.0 / 9.0)),
    ("w2", (4.5, 0.5)),
    ("m2", (0.125, 0.125)),
    ("c3_1", (0.5, 8.0 / 9.0)),
])
def test_midpoint_amplitude_limits(name, limits, solutions):
    sol = solutions[name]
    assert stem_endpoints(sol, -20.0).midpoint_amplitude == pytest.approx(limits[0], abs=1e-3)
    assert stem_endpoints(sol, 20.0).midpoint_amplitude == pytest.approx(limits[1], abs=1e-3)


def test_midpoint_limits_every_reference_set(solutions):
    for name, sol in solutions.items():
        cat = arm_catalog(sol)
        assert abs(stem_endpoints(sol, -20.0).midpoint_amplitude - cat.stem_past.amplitude) <= 1e-3
        assert abs(stem_endpoints(sol, 20.0).midpoint_amplitude - cat.stem_future.amplitude) <= 1e-3


# --- cross sections ----------------------------------------------------------

def test_perpendicular_section_matches_stem_profile(solutions):
    sol = solutions["c2_1"]
    t = 1.0
    rep = stem_endpoints(sol, t)
    stem = arm_catalog(sol).stem_future
    A, B, C = trajectory_line(stem, t)
    mx, my = rep.midpoint
    perp = (-B, A, B * mx - A * my)
    pts = cross_section(sol, t, perp, s_range=(-5, 5), n_samples=801,
                        anchor=rep.midpoint)
    dev = 0.0
    An, Bn, Cn = normalize_line(perp)
    dproj = An * mx + Bn * my + Cn
    foot = (mx - dproj * An, my - dproj * Bn)
    for s, u in pts:
        x = foot[0] - Bn * s
        y = foot[1] + An * s
        dev = max(dev, abs(u - arm_profile(stem, (x, y, t))))
    assert dev < 1e-2


def test_along_stem_extrema(solutions):
    # (set, t, target value, whether the maximum is an interior hump or the
    # level of the plateau between the higher junction regions)
    checks = [
        ("c2_1", -2.0, 9.389, "hump"),
        ("c2_1", 1.0, 0.889, "plateau"),
        ("w2", -2.0, 4.499, "hump"),
        ("w2", 2.0, 0.500, "plateau"),
        ("m2", -8.0, 0.125, "plateau"),
        ("m2", 10.0, 0.125, "plateau"),
    ]
    for name, t, target, kind in checks:
        sol = solutions[name]
        stem, _ = stem_side(sol, t)
        rep = stem_endpoints(sol, t)
        frac = 0.45 if kind == "hump" else 0.25
        half = max(rep.length * frac, 1.5)
        pts = cross_section(sol, t, stem, s_range=(-half, half),
                            n_samples=2001, anchor=rep.midpoint)
        u = np.array([v for _, v in pts])
        i = int(np.argmax(u))
        if kind == "hump":
            assert 0 < i < len(u) - 1, (name, t)
        assert u[i] == pytest.approx(target, abs=1e-2), (name, t)


def test_section_far_from_structure_vanishes(solutions):
    sol = solutions["c2_1"]
    # a vertical line far outside every arm at t = 0
    pts = cross_section(sol, 0.0, (1.0, 0.0, 500.0), s_range=(-5, 5),
                        n_samples=11, anchor=(0.0, 0.0))
    assert max(abs(u) for _, u in pts) < 1e-12


def test_cross_section_validation(solutions):
    with pytest.raises(ValueError):
        cross_section(solutions["c2_1"], 0.0, (1.0, 0.0, 0.0), n_samples=1)


# --- velocities --------------------------------------------------------------

def test_velocity_table_single_and_pair_rows(solutions):
    sol = solutions["c2_1"]
    k, p = sol.params.k, sol.params.p
    rows = {(r.label, r.hat): r for r in velocity_table(sol)}
    r1 = rows[("1", False)]
    assert r1.amplitude == pytest.approx(k[0] ** 2 / 2.0, rel=1e-14)
    assert r1.vx == pytest.approx(k[0] ** 2 + 3.0 * p[0] ** 2 / k[0] ** 2, rel=1e-12)
    assert r1.vy == pytest.approx((k[0] ** 4 + 3.0 * p[0] ** 2) / (k[0] * p[0]),
                                  rel=1e-12)
    r23 = rows[("2+3", True)]
    ki, kj, pi, pj = k[1], k[2], p[1], p[2]
    want_vx = (ki**2 - ki * kj + kj**2
               + (3 * pi**2 * kj + 3 * pj**2 * ki) / (ki * kj * (ki + kj)))
    want_vy = ((ki**3 + kj**3) / (pi + pj)
               + (3 * pi**2 * kj + 3 * pj**2 * ki) / (ki * kj * (pi + pj)))
    assert r23.vx == pytest.approx(want_vx, rel=1e-12)
    assert r23.vy == pytest.approx(want_vy, rel=1e-12)
    r123 = rows[("1+2+3", True)]
    assert r123.amplitude == pytest.approx(169.0 / 18.0, rel=1e-14)
    d1 = 3 * (p[0] ** 2 * k[1] * k[2] + p[1] ** 2 * k[0] * k[2]
              + p[2] ** 2 * k[0] * k[1])
    K = sum(k)
    want_vx = (k[0] ** 3 + k[1] ** 3 + k[2] ** 3) / K + d1 / (k[0] * k[1] * k[2] * K)
    assert r123.vx == pytest.approx(want_vx, rel=1e-12)
    P = sum(p)
    want_vy = (k[0] ** 3 + k[1] ** 3 + k[2] ** 3) / P + d1 / (k[0] * k[1] * k[2] * P)
    assert r123.vy == pytest.approx(want_vy, rel=1e-12)


def test_velocity_table_difference_rows(solutions):
    sol = solutions["m2"]
    k, p = sol.params.k, sol.params.p
    rows = {(r.label, r.hat): r for r in velocity_table(sol)}
    r = rows[("2-3", True)]
    ki, kj, pi, pj = k[1], k[2], p[1], p[2]
    want_vx = (ki**2 + ki * kj + kj**2
               + (3 * pi**2 * kj - 3 * pj**2 * ki) / (ki * kj * (ki - kj)))
    assert r.vx == pytest.approx(want_vx, rel=1e-12)
    r = rows[("1-2+3", False)]
    d3 = 3 * (p[0] ** 2 * k[1] * k[2] - p[1] ** 2 * k[0] * k[2]
              + p[2] ** 2 * k[0] * k[1])
    K = k[0] - k[1] + k[2]
    want_vx = (k[0] ** 3 - k[1] ** 3 + k[2] ** 3) / K + d3 / (k[0] * k[1] * k[2] * K)
    assert r.vx == pytest.approx(want_vx, rel=1e-12)


def test_velocity_undefined_axis(solutions):
    # the third transverse parameter vanishes in the weak 3-resonant
    # reference set, so the third arm's y-intercept velocity is undefined
    rows = {(r.label, r.hat): r for r in velocity_table(solutions["c3_1"])}
    assert rows[("3", False)].vy is None
    assert rows[("3", False)].vx is not None


def test_velocity_normal_speed_identity(solutions):
    # 1/s^2 = 1/vx^2 + 1/vy^2 with s the line's normal speed -W/|n|
    for sol in solutions.values():
        for row_arm in [arm_catalog(sol).stem_past, arm_catalog(sol).stem_future]:
            vx, vy = row_arm.velocity
            if vx is None or vy is None or row_arm.W == 0:
                continue
            s = -row_arm.W / math.hypot(row_arm.A, row_arm.B)
            assert 1.0 / s**2 == pytest.approx(1.0 / vx**2 + 1.0 / vy**2,
                                               rel=1e-10)


# --- structural invariants ---------------------------------------------------

@pytest.mark.parametrize("name", sorted(EXPECTED_STEMS))
def test_triple_concurrency(name, solutions):
    """The three trajectory lines of each end junction meet in the endpoint:
    it is where the junction's three terms tie."""
    sol = solutions[name]
    for t in (-40.0, -20.0, -5.0, -3.0, 3.0, 5.0, 20.0, 40.0):
        assert junction_distance(sol, t) <= TOL, t


@pytest.mark.parametrize("name", sorted(EXPECTED_STEMS))
def test_length_affine_slope(name, solutions):
    sol = solutions[name]
    ts = np.linspace(-30.0, -20.0, 11)
    ls = np.array([stem_endpoints(sol, float(t)).length for t in ts])
    slope = np.polyfit(ts, ls, 1)[0]
    # closed form |st t + sL L| sqrt(g): slope magnitude is |st| sqrt(g)
    l1, l2 = stem_length_formula(sol, -30.0), stem_length_formula(sol, -20.0)
    want = (l2 - l1) / 10.0
    assert slope == pytest.approx(want, rel=1e-6)
    resid = ls - np.polyval(np.polyfit(ts, ls, 1), ts)
    assert np.abs(resid).max() < 1e-8 * max(1.0, np.abs(ls).max())


def test_endpoint_pairs_stay_distinct_near_reconnection(solutions):
    sol = solutions["c2_1"]
    dmin = math.inf
    for t in np.linspace(-1.0, 1.0, 201):
        # evaluate both species at the same instant
        p = stem_endpoints(sol, min(t, -1e-12))
        f = stem_endpoints(sol, max(t, 1e-12))
        for a in (p.endpoint_a, p.endpoint_b):
            for b in (f.endpoint_a, f.endpoint_b):
                dmin = min(dmin, math.hypot(a[0] - b[0], a[1] - b[1]))
    assert dmin > 1e-4

    rep = stem_endpoints(solutions["c3_1"], 0.0)
    assert rep.length == 0.0


@pytest.mark.parametrize("case", RESONANT_CASES)
def test_random_draw_endpoint_consistency(case):
    """Closed-form vs intersection endpoints over random admissible draws."""
    rng = np.random.default_rng([580, RESONANT_CASES.index(case)])
    done = 0
    while done < 15:
        params = draw_params(rng, case)
        sol = build_solution(params, CaseSpec(case, Branch.FIRST))
        for t in (-20.0, -5.0, -1.0, 1.0, 5.0, 20.0):
            rep = stem_endpoints(sol, t)  # raises on dual-path disagreement
            lf = stem_length_formula(sol, t)
            assert lf == pytest.approx(rep.length, rel=1e-9, abs=1e-12)
        done += 1


def test_second_branch_endpoints(solutions):
    sol2 = build_case(Case.W2, (1.0, -1.0, -2.0), 0.5, branch=Branch.SECOND)
    for t in (-5.0, 5.0):
        rep = stem_endpoints(sol2, t)  # internal dual-path check must pass
        assert stem_length_formula(sol2, t) == pytest.approx(rep.length, rel=1e-9)


# --- labels ------------------------------------------------------------------

def test_parse_arm_label(solutions):
    """A text label is read as the text label_str prints: spaces around it
    are ignored and a trailing ^ means hat=True.  Any other text names no
    arm."""
    c2_4, w2 = solutions["c2_4"], solutions["w2"]
    for sol, label, want in [(c2_4, "3", ((3,), False)),
                             (c2_4, " 1+3 ", ((1, 3), False)),
                             (c2_4, "1+2+3^", ((1, 2, 3), True)),
                             (c2_4, "1^", ((1,), True)),
                             (w2, "1+2-3^", ((1, 2, -3), True))]:
        arm = find_arm(sol, label)
        assert (arm.label, arm.hat) == want, label
    for label in ["abc", "", "^", "1^^", "1 + 3", "+1", "1+", "2-", "1++2", "1+-3",
                  "13", "1+1", "0", "01"]:
        with pytest.raises(KeyError):
            find_arm(c2_4, label)


def test_find_arm(solutions):
    """An explicit hat wins over the text's ^, a label tuple is looked up
    as it is, and a label the catalog lacks raises KeyError."""
    c2_4, w2 = solutions["c2_4"], solutions["w2"]
    for sol, label, hat, want in [(c2_4, "1^", False, ((1,), False)),
                                  (w2, "1+2-3", True, ((1, 2, -3), True)),
                                  (w2, (1, 2, -3), None, ((1, 2, -3), True))]:
        arm = find_arm(sol, label, hat=hat)
        assert (arm.label, arm.hat) == want, label
    with pytest.raises(KeyError):
        find_arm(w2, "1+2+3^")


def test_degenerate_line_rejected(solutions):
    from kpii_stem.errors import DegenerateLineError
    with pytest.raises(DegenerateLineError):
        normalize_line((0.0, 0.0, 1.0))
    with pytest.raises(DegenerateLineError):
        cross_section(solutions["c2_1"], 0.0, (0.0, 0.0, 1.0),
                      anchor=(0.0, 0.0))


def test_generic_resonance_is_elastic():
    from kpii_stem import classify_resonance
    gen = make_generic((1.0, 2.0, 3.0), (0.2, -0.3, 0.1))
    kinds = classify_resonance(gen.params, gen.spec).kinds
    assert all(k.value == "elastic" for k in kinds.values())
