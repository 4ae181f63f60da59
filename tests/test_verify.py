"""Residual, limit-convergence, asymptotic-match and ridge oracles."""

import math

import numpy as np
import pytest

from kpii_stem import (
    Branch,
    CaseSpec,
    ExpSumTau,
    ExpTerm,
    ResidualReport,
    arm_catalog,
    asymptotic_match,
    build_solution,
    find_arm,
    kp_residual,
    limit_convergence,
    limit_family,
    make_generic,
    omega,
    ridge_trace,
    skeleton,
    stem_endpoints,
    stem_side,
    trajectory_line,
    u_on_grid,
    u_partials,
)
from kpii_stem import verify
from kpii_stem.errors import (AnchorNotFoundError, DomainError, RidgeNotFoundError,
                              UnsupportedCaseError)
from kpii_stem.geometry import normalize_line
from kpii_stem.tau import BLOCK_POINTS
from kpii_stem.verify import (LADDER, LIMIT_BOX, RESIDUAL_BOX, SUITES, _limit_shift,
                              section_anchor)
from test_catalog import RESONANT_CASES, draw_params


def test_residual_zero_solution():
    tau = ExpSumTau((ExpTerm(1.0, 1.0, 2.0, 3.0),))
    rng = np.random.default_rng(0)
    rep = kp_residual(tau, rng.uniform(-20, 20, (50, 3)))
    assert rep.max_abs_residual == 0.0
    assert rep.n_points == 50
    assert rep.points_exceeding_tol == ()


def test_residual_single_soliton():
    k, p = 1.3, 0.7
    tau = ExpSumTau((ExpTerm(1.0, 0.0, 0.0, 0.0),
                     ExpTerm(1.0, k, p, omega(k, p))))
    rng = np.random.default_rng(1)
    rep = kp_residual(tau, rng.uniform(-30, 30, (100, 3)))
    assert rep.max_abs_residual < 1e-10


def _in_box(rng, box, n=None):
    """n points (default: the box's count) drawn with rng from a suite box
    (seed, count, half side in x and y, half span in t) of verify's table;
    each test keeps its own seed."""
    _, count, xy, t = box
    n = count if n is None else n
    return np.column_stack([rng.uniform(-xy, xy, n), rng.uniform(-xy, xy, n),
                            rng.uniform(-t, t, n)])


def test_residual_all_reference_sets(solutions):
    rng = np.random.default_rng(2)
    for name, sol in solutions.items():
        rep = kp_residual(sol, _in_box(rng, RESIDUAL_BOX))
        assert rep.max_abs_residual < SUITES["residual"], name
        assert not rep.points_exceeding_tol


def test_residual_generic_solution():
    gen = make_generic((1.0, 2.0, 3.2), (0.4, -0.8, 0.3))
    rng = np.random.default_rng(3)
    rep = kp_residual(gen, rng.uniform(-20, 20, (200, 3)))
    assert rep.max_abs_residual < SUITES["residual"]


def test_residual_reports_offenders():
    # a sum with a wrong interaction coefficient is not a solution
    k = (1.0, 2.0)
    p = (0.3, -0.4)
    terms = (ExpTerm(1.0, 0.0, 0.0, 0.0),
             ExpTerm(1.0, k[0], p[0], omega(k[0], p[0])),
             ExpTerm(1.0, k[1], p[1], omega(k[1], p[1])),
             ExpTerm(0.5, k[0] + k[1], p[0] + p[1],
                     omega(k[0], p[0]) + omega(k[1], p[1])))
    rep = kp_residual(ExpSumTau(terms), [(0.0, 0.0, 0.0)])
    assert rep.max_abs_residual > 1e-3
    assert len(rep.points_exceeding_tol) == 1



@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_residual_counts_nan_as_exceeding(solutions):
    # x = -1e308 is finite, but the tau exponents overflow there
    rep = kp_residual(solutions["c2_1"], [(-1e308, 0.0, 0.0), (0.0, 0.0, 0.0)])
    assert math.isnan(rep.max_abs_residual)
    ((x, y, t, res),) = rep.points_exceeding_tol
    assert (x, y, t) == (-1e308, 0.0, 0.0) and math.isnan(res)


RESIDUAL_INDICES = ((0, 0, 0), (1, 0, 0), (2, 0, 0), (4, 0, 0), (0, 2, 0), (1, 0, 1))


def _one_array_residual(sol, points, tol):
    """kp_residual's report from one u_partials call over all the points, the
    residual formed on the whole arrays."""
    pts = np.asarray(points, float)
    x, y, t = pts[:, 0], pts[:, 1], pts[:, 2]
    d = u_partials(sol.tau, x, y, t, RESIDUAL_INDICES)
    u = d[(0, 0, 0)]
    res = (d[(1, 0, 1)] + 6.0 * d[(1, 0, 0)] ** 2 + 6.0 * u * d[(2, 0, 0)]
           + d[(4, 0, 0)] + 3.0 * d[(0, 2, 0)])
    absres = np.abs(res)
    bad = [(float(x[i]), float(y[i]), float(t[i]), float(res[i]))
           for i in np.nonzero(~(absres <= tol))[0]]
    return ResidualReport(max_abs_residual=float(absres.max()),
                          n_points=len(x), points_exceeding_tol=tuple(bad))


@pytest.mark.parametrize("n", [1, 2, BLOCK_POINTS - 1, BLOCK_POINTS, BLOCK_POINTS + 1,
                               2 * BLOCK_POINTS + 1, 20_000])
def test_residual_report_bitwise_equal_to_one_array(n, solutions):
    # kp_residual reduces a slice of points at a time; a one-point last slice
    # (4097, 8193 points) is evaluated alone.  One NaN point, and a tol below
    # the rounding of the residual, so that offenders are listed
    rng = np.random.default_rng(n)
    for name, sol in solutions.items():
        pts = _in_box(rng, RESIDUAL_BOX, n)
        pts[n // 2, 1] = math.nan
        with np.errstate(invalid="ignore"):
            got = kp_residual(sol, pts, tol=1e-15)
            want = _one_array_residual(sol, pts, 1e-15)
        # one flag: pytest's diff of two long unequal reprs takes minutes
        same = repr(got) == repr(want)
        assert same, (name, n)
        assert math.isnan(got.max_abs_residual) and got.points_exceeding_tol, (name, n)


def test_residual_traced_peak_flat_in_point_count(solutions):
    import tracemalloc
    sol = solutions["m2"]
    rng = np.random.default_rng(61)
    kp_residual(sol, _in_box(rng, RESIDUAL_BOX, 2))  # the plan, outside the trace
    peaks = []
    for n in (20_000, 200_000):
        pts = _in_box(rng, RESIDUAL_BOX, n)
        tracemalloc.start()
        try:
            kp_residual(sol, pts)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


def test_residual_one_point_as_triple(solutions):
    sol = solutions["c3_1"]
    assert kp_residual(sol, (1.0, 2.0, 0.5)) == kp_residual(sol, [(1.0, 2.0, 0.5)])


MALFORMED_POINTS = {
    "empty list": [],
    "no rows": np.empty((0, 3)),
    "two columns": np.zeros((4, 2)),
    "four columns": np.zeros((4, 4)),
    "pair": (1.0, 2.0),
    "scalar": 1.0,
    "three axes": np.zeros((2, 3, 1)),
    "ragged": [(1.0, 2.0, 3.0), (1.0, 2.0)],
    "text": "abc",
}


@pytest.mark.parametrize("points", MALFORMED_POINTS.values(), ids=MALFORMED_POINTS)
def test_residual_and_limits_reject_malformed_points(points, solutions):
    sol = solutions["c2_1"]
    with pytest.raises(DomainError, match="points"):
        kp_residual(sol, points)
    with pytest.raises(DomainError, match="points"):
        limit_convergence(sol, [1e3], points)


@pytest.mark.parametrize("name", ["c2_1", "c2_4", "w2", "m2", "c3_1", "c3_2"])
def test_limit_ladder(name, solutions):
    sol = solutions[name]
    rng = np.random.default_rng(11)
    devs = limit_convergence(sol, LADDER, _in_box(rng, LIMIT_BOX))
    assert devs[-1] < SUITES["limits"]
    assert all(devs[i + 1] <= devs[i] for i in range(len(devs) - 1))


def _one_array_ladder(sol, magnitudes, pts):
    """limit_convergence's values from one u_on_grid call per tau over all
    the points."""
    x, y, t = pts[:, 0], pts[:, 1], pts[:, 2]
    u_ref = u_on_grid(sol.tau, x, y, t)
    return [float(np.abs(u_on_grid(gen.tau, x, y, t) - u_ref).max())
            for gen in limit_family(sol, magnitudes)]


@pytest.mark.parametrize("n", [1, 2, BLOCK_POINTS - 1, BLOCK_POINTS, BLOCK_POINTS + 1,
                               2 * BLOCK_POINTS + 1])
def test_limit_ladder_bitwise_equal_to_one_array(n, solutions):
    # limit_convergence reduces a slice of points at a time; a one-point last
    # slice (4097, 8193 points) is evaluated alone.  One NaN point makes every
    # rung's value NaN
    rng = np.random.default_rng(n + 1)
    for name in ("m2", "c3_1"):
        sol = solutions[name]
        pts = _in_box(rng, LIMIT_BOX, n)
        with np.errstate(invalid="ignore"):
            assert repr(limit_convergence(sol, LADDER, pts)) == repr(
                _one_array_ladder(sol, LADDER, pts)), (name, n)
            pts[n // 2, 1] = math.nan
            got = limit_convergence(sol, LADDER, pts)
            assert repr(got) == repr(_one_array_ladder(sol, LADDER, pts)), (name, n)
        assert len(got) == len(LADDER) and all(math.isnan(v) for v in got), (name, n)


def test_limit_ladder_traced_peak_flat_in_point_count(solutions):
    import tracemalloc
    sol = solutions["m2"]
    rng = np.random.default_rng(62)
    limit_convergence(sol, LADDER, _in_box(rng, LIMIT_BOX, 2))  # the plans, outside the trace
    peaks = []
    for n in (20_000, 200_000):
        pts = _in_box(rng, LIMIT_BOX, n)
        tracemalloc.start()
        try:
            limit_convergence(sol, LADDER, pts)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


def test_limit_family_members_are_exact_solutions(solutions):
    rng = np.random.default_rng(12)
    fam = limit_family(solutions["w2"], [1e3, 1e6])
    for gen in fam:
        rep = kp_residual(gen, rng.uniform(-20, 20, (100, 3)))
        assert rep.max_abs_residual < SUITES["residual"]


def test_limit_degenerate_family_is_identical(solutions):
    sol = solutions["w2"]
    devs = limit_convergence(sol, [], np.zeros((1, 3)))
    assert devs == []
    # comparing the template against itself gives exactly zero
    pts = np.random.default_rng(0).uniform(-5, 5, (50, 3))
    from kpii_stem import u_on_grid
    d = np.abs(u_on_grid(sol.tau, pts[:, 0], pts[:, 1], pts[:, 2])
               - u_on_grid(sol.tau, pts[:, 0], pts[:, 1], pts[:, 2])).max()
    assert d == 0.0


# the per-case recentring table that catalog.SHIFTS states, kept as reference
_OLD_LIMIT_SHIFTS = {
    "c2_1": lambda l13, l23: (0.0, 0.0, -l13 - l23),
    "c2_2": lambda l13, l23: (-l13, 0.0, -l23),
    "c2_3": lambda l13, l23: (0.0, -l23, -l13),
    "c2_4": lambda l13, l23: (-l13, -l23, 0.0),
    "w2": lambda l13, l23: (0.0, 0.0, 0.0),
    "m2": lambda l13, l23: (0.0, 0.0, -l13),
    "c3_1": lambda l13, l23: (0.0, 0.0, 0.0),
    "c3_2": lambda l13, l23: (-l13, -l23, 0.0),
}


@pytest.mark.parametrize("name", sorted(_OLD_LIMIT_SHIFTS))
def test_limit_shift_derived_from_template(name, solutions):
    """The recentring read from catalog.SHIFTS, whose templates are derived
    from it, keeps the bits and signed zeros of the written-out table."""
    case = solutions[name].spec.case
    rng = np.random.default_rng(20261018)
    logs = [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)]
    logs += [tuple(v) for v in rng.normal(0.0, 10.0, (200, 2)).tolist()]
    for l13, l23 in logs:
        assert repr(_limit_shift(case, l13, l23)) == repr(_OLD_LIMIT_SHIFTS[name](l13, l23))


def test_limit_family_rejects_generic():
    with pytest.raises(UnsupportedCaseError):
        limit_family(make_generic((1.0, 2.0, 3.0), (0.1, 0.2, 0.35)), [1e3])


def test_asymptotic_match_all_arms(solutions):
    for name, sol in solutions.items():
        cat = arm_catalog(sol)
        for side, tsign in (("before", -1.0), ("after", 1.0)):
            for _, arm in getattr(cat, side):
                d20 = asymptotic_match(sol, arm, tsign * 20.0)
                d40 = asymptotic_match(sol, arm, tsign * 40.0)
                assert d20 < SUITES["asymptotics"], (name, side, arm.label_str())
                assert d40 <= d20 + 1e-9, (name, side, arm.label_str())


def test_asymptotic_negative_control(solutions):
    sol = solutions["c2_1"]
    arm1 = find_arm(sol, "1", hat=False)
    arm2 = find_arm(sol, "2", hat=False)
    dev = asymptotic_match(sol, arm1, -20.0, profile_arm=arm2)
    assert dev > 0.1


def test_section_anchor_keeps_distance(solutions):
    sol = solutions["c2_1"]
    cat = arm_catalog(sol)
    for _, arm in cat.before:
        anchor = section_anchor(sol, arm, -20.0)
        verts = [e.point(s) for e in skeleton(sol, -20.0)
                 for s in (e.lo, e.hi) if math.isfinite(s)]
        dmin = min(math.hypot(anchor[0] - v[0], anchor[1] - v[1]) for v in verts)
        assert dmin >= 10.0 * 0.999


def _term_exponents(sol, x, y, t):
    """K and psi = K x + P y + W t + s0 + ln c of each positive term, psi
    with one row per term and one column per point."""
    rows = [(*sol.exponent_of(eps), math.log(c)) for eps, c in sol.template if c > 0]
    K = np.array([r[0] for r in rows])
    psi = np.array([Kc * x + Pc * y + Wc * t + s0 + lnc for Kc, Pc, Wc, s0, lnc in rows])
    return K, psi


def test_section_anchor_square_clears_other_terms(solutions):
    """Brute force over a 41 x 41 grid on each anchor's square: every other
    positive term sits need_c = ln(2 n_o Delta_c^2 / 1e-4) below the larger of
    the arm's two terms m, n, Delta_c^2 = max((K_c - K_m)^2, (K_c - K_n)^2)."""
    h = np.linspace(-12.0, 12.0, 41)
    u, v = (g.ravel() for g in np.meshgrid(h, h))
    for name, sol in solutions.items():
        cat = arm_catalog(sol)
        for side, t in (("before", -20.0), ("after", 20.0)):
            for _, arm in getattr(cat, side):
                ax, ay = section_anchor(sol, arm, t)
                # the anchor lies on the boundary of the arm's two terms
                _, at = _term_exponents(sol, np.array([ax]), np.array([ay]), t)
                n, m = np.argsort(at[:, 0])[-2:]
                assert abs(at[m, 0] - at[n, 0]) <= 1e-9 * (1 + abs(at[m, 0]))
                A, B, _ = normalize_line(arm.line_coeffs(t))
                K, psi = _term_exponents(sol, ax + u * A - v * B, ay + u * B + v * A, t)
                top = np.maximum(psi[m], psi[n])
                others = [c for c in range(len(K)) if c not in (m, n)]
                for c in others:
                    d2 = max((K[c] - K[m]) ** 2, (K[c] - K[n]) ** 2)
                    need = math.log(2.0 * len(others) * d2 / 1e-4)
                    gap = float((top - psi[c]).min())
                    assert gap >= need - 1e-9, (name, side, arm.label_str(), c, gap, need)


def test_section_anchors_on_seeded_draws_are_clean():
    """On 192 seeded admissible draws, every section anchor placed at
    |t| = 20 gives a section within 1e-3 of the arm profile.  27 of the 1536
    arm sections are refused."""
    rng = np.random.default_rng(17)
    refused = 0
    for case in RESONANT_CASES:
        for branch in Branch:
            for _ in range(12):
                sol = build_solution(draw_params(rng, case, branch), CaseSpec(case, branch))
                cat = arm_catalog(sol)
                for side, t in (("before", -20.0), ("after", 20.0)):
                    for _, arm in getattr(cat, side):
                        try:
                            dev = asymptotic_match(sol, arm, t)
                        except AnchorNotFoundError:
                            refused += 1
                            continue
                        assert dev < SUITES["asymptotics"], (case, branch, side,
                                                             arm.label_str(), dev)
    assert refused <= 27


def test_anchor_queries_build_skeleton_once(solutions, monkeypatch):
    from kpii_stem import verify
    sol = solutions["c2_1"]
    (_, arm), *_ = arm_catalog(sol).before
    calls = []
    real_skeleton = verify.skeleton
    monkeypatch.setattr(verify, "skeleton",
                        lambda sol, t: calls.append(t) or real_skeleton(sol, t))
    section_anchor(sol, arm, -20.0)
    assert calls == [-20.0]
    calls.clear()
    asymptotic_match(sol, arm, -20.0)
    assert calls == [-20.0]


def test_ridge_single_soliton_exact():
    k, p = 1.5, 0.6
    tau = ExpSumTau((ExpTerm(1.0, 0.0, 0.0, 0.0),
                     ExpTerm(1.0, k, p, omega(k, p))))

    class Holder:
        pass

    holder = Holder()
    holder.tau = tau
    trace = ridge_trace(holder, 0.0, (k, p, 0.0), scan_window=(-8, 8),
                        n_scans=15)
    want = normalize_line((k, p, 0.0))
    for got, ref in zip(trace.fitted_line, want):
        assert got == pytest.approx(ref, abs=1e-6)


def test_ridge_stem_alignment(solutions):
    sol = solutions["c3_1"]
    t = 10.0
    rep = stem_endpoints(sol, t)
    stem = arm_catalog(sol).stem_future
    line = trajectory_line(stem, t)
    trace = ridge_trace(sol, t, line, scan_window=(-1.5, 1.5), n_scans=11,
                        anchor=rep.midpoint)
    A, B, C = line
    # the extreme line is a slightly curved trajectory; near the midpoint it
    # stays within 1e-3 of the straight stem line
    for _, pt, val in trace.samples:
        assert abs(A * pt[0] + B * pt[1] + C) < 1e-3
    mid_val = trace.samples[len(trace.samples) // 2][2]
    assert mid_val == pytest.approx(8.0 / 9.0, abs=1e-3)


def test_ridge_value_matches_stem_amplitude(solutions):
    sol = solutions["c2_1"]
    t = -20.0
    rep = stem_endpoints(sol, t)
    stem = arm_catalog(sol).stem_past
    trace = ridge_trace(sol, t, trajectory_line(stem, t),
                        scan_window=(-5, 5), n_scans=11, anchor=rep.midpoint)
    for _, _, val in trace.samples:
        assert val == pytest.approx(169.0 / 18.0, abs=1e-3)


def test_ridge_fitted_lines_match_trajectories(solutions):
    for name in ("c2_1", "w2", "c3_2"):
        sol = solutions[name]
        for t in (-20.0, 20.0):
            stem, _ = stem_side(sol, t)
            rep = stem_endpoints(sol, t)
            line = trajectory_line(stem, t)
            half = min(5.0, 0.2 * rep.length)
            trace = ridge_trace(sol, t, line, scan_window=(-half, half),
                                n_scans=11, anchor=rep.midpoint)
            fa, fb, fc = trace.fitted_line
            la, lb, lc = line
            gate = SUITES["ridge"]
            assert abs(fa - la) < gate and abs(fb - lb) < gate
            assert abs(fc - lc) / max(1.0, abs(lc)) < gate


def test_ridge_not_found_far_from_structure(solutions):
    sol = solutions["c2_1"]
    with pytest.raises(RidgeNotFoundError):
        ridge_trace(sol, 0.0, (1.0, 0.0, 2000.0), scan_window=(-3, 3),
                    n_scans=7, search_halfwidth=2.0)


def test_section_argmax_on_trajectory(solutions):
    """The ridge crest along each junction-distant perpendicular section sits
    within 1e-3 arclength of the analytic trajectory crossing."""
    for name in ("c2_1", "w2", "m2", "c3_1"):
        sol = solutions[name]
        cat = arm_catalog(sol)
        for side, tsign in (("before", -1.0), ("after", 1.0)):
            for _, arm in getattr(cat, side):
                t = tsign * 20.0
                anchor = section_anchor(sol, arm, t)
                line = normalize_line(arm.line_coeffs(t))
                # both scans sit on the section through the anchor
                trace = ridge_trace(sol, t, line, scan_window=(0.0, 0.0),
                                    n_scans=2, search_halfwidth=2.0,
                                    anchor=anchor, tol=1e-7)
                A, B, _ = line
                for _, (px, py), _ in trace.samples:
                    offset = A * (px - anchor[0]) + B * (py - anchor[1])
                    assert abs(offset) < 1e-3, (name, side, arm.label_str())


def _golden_max_reference(f, lo, hi, tol):
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    s = 0.5 * (a + b)
    return s, f(s)


def _ridge_trace_reference(sol, t, approx_line, scan_window=(-10.0, 10.0),
                           n_scans=21, search_halfwidth=4.0, anchor=None,
                           tol=1e-6):
    """ridge_trace one scan at a time: (samples, fitted line, golden d), the
    last the golden-section maximum on each kept scan's coarse bracket."""
    A, B, C = normalize_line(approx_line)
    if anchor is None:
        anchor = (0.0, 0.0)
    dproj = A * anchor[0] + B * anchor[1] + C
    foot = (anchor[0] - dproj * A, anchor[1] - dproj * B)
    direction = (-B, A)
    coarse = np.linspace(-search_halfwidth, search_halfwidth, 41)
    frac = np.linspace(0.0, 1.0, 41)
    samples, golden = [], []
    for s in np.linspace(scan_window[0], scan_window[1], n_scans):
        cx = foot[0] + s * direction[0]
        cy = foot[1] + s * direction[1]

        def u_of(d):
            return u_on_grid(sol.tau, cx + d * A, cy + d * B, t)

        i = int(np.argmax(u_of(coarse)))
        if i == 0 or i == len(coarse) - 1:
            continue
        a, b = coarse[i - 1], coarse[i + 1]
        while b - a > tol:
            width = b - a
            grid = a + width * frac
            j = int(np.argmax(u_of(grid)))
            a, b = grid[max(j - 1, 0)], grid[min(j + 1, len(frac) - 1)]
            if not b - a < width:
                break
        d0 = 0.5 * (a + b)
        samples.append(((cx, cy), (cx + d0 * A, cy + d0 * B), float(u_of(d0))))
        golden.append(_golden_max_reference(lambda d: float(u_of(d)), coarse[i - 1],
                                            coarse[i + 1], tol)[0])
    assert len(samples) >= max(2, n_scans // 2)
    pts = np.array([p for _, p, _ in samples])
    mean = pts.mean(axis=0)
    _, _, vt = np.linalg.svd(pts - mean)
    tang = vt[0]
    normal = (-tang[1], tang[0])
    line = (normal[0], normal[1], -(normal[0] * mean[0] + normal[1] * mean[1]))
    return samples, normalize_line(line), golden


def _ridge_reference_calls(solutions):
    """(id, solution, t, line, keyword arguments) of the compared traces."""
    for name in sorted(solutions):
        sol = solutions[name]
        cat = arm_catalog(sol)
        for side, t in (("before", -20.0), ("after", 20.0)):
            arm = getattr(cat, side)[0][1]
            yield (f"{name}-{side}", sol, t, trajectory_line(arm, t),
                   dict(scan_window=(-5.0, 5.0), n_scans=7,
                        anchor=section_anchor(sol, arm, t)))
    sol = solutions["c3_1"]
    yield ("c3_1-stem", sol, 10.0,
           trajectory_line(arm_catalog(sol).stem_future, 10.0),
           dict(scan_window=(-1.0, 1.0), n_scans=5,
                anchor=stem_endpoints(sol, 10.0).midpoint))
    sol = solutions["c2_1"]
    arm = arm_catalog(sol).before[0][1]
    yield ("c2_1-dropped", sol, -20.0, trajectory_line(arm, -20.0),
           dict(scan_window=(-40.0, 40.0), n_scans=21,
                anchor=section_anchor(sol, arm, -20.0)))


def test_ridge_trace_matches_per_scan_reference(solutions):
    """The array search returns the same floats as the search on each scan
    alone, and each ridge point lies within tol of a golden-section search
    on the same bracket."""
    dropped = 0
    for case, sol, t, line, kw in _ridge_reference_calls(solutions):
        trace = ridge_trace(sol, t, line, **kw)
        samples, fitted, golden = _ridge_trace_reference(sol, t, line, **kw)
        assert trace.samples == tuple(samples), case
        assert trace.fitted_line == fitted, case
        A, B, _ = normalize_line(line)
        for ((cx, cy), (px, py), _), d in zip(samples, golden):
            assert math.dist((px, py), (cx + d * A, cy + d * B)) <= 1e-6, case
        dropped += kw["n_scans"] - len(samples)
    assert dropped > 0


def test_ridge_trace_takes_seven_kernel_calls(solutions, monkeypatch):
    """Criterion 09's traces: one coarse call, five rounds, one value call."""
    calls = []

    def counted(*args):
        calls.append(args)
        return u_on_grid(*args)

    monkeypatch.setattr(verify, "u_on_grid", counted)
    for case, sol, t, line, kw in _ridge_reference_calls(solutions):
        if case.endswith(("-before", "-after")):
            calls.clear()
            ridge_trace(sol, t, line, **kw)
            assert len(calls) == 7, case


def test_ridge_trace_stops_below_float_spacing(solutions):
    """A tol the bracket cannot reach ends when the bracket stops narrowing,
    near the ridge points of the default tol; a negative or NaN tol raises."""
    sol = solutions["c2_1"]
    arm = arm_catalog(sol).before[0][1]
    line = trajectory_line(arm, -20.0)
    kw = dict(scan_window=(-5.0, 5.0), n_scans=7,
              anchor=section_anchor(sol, arm, -20.0))
    ref = ridge_trace(sol, -20.0, line, **kw)
    for tol in (0.0, 1e-15):
        trace = ridge_trace(sol, -20.0, line, tol=tol, **kw)
        for (_, got, _), (_, want, _) in zip(trace.samples, ref.samples, strict=True):
            assert math.dist(got, want) <= 1e-6
    for tol in (-1e-6, math.nan):
        with pytest.raises(ValueError):
            ridge_trace(sol, -20.0, line, tol=tol, **kw)


def test_run_suite_checks_carry_tolerance_and_notes():
    from kpii_stem.catalog import build_case
    from kpii_stem.verify import Check, run_suite
    sol = build_case("m2", (2.0, -1.0, -1.5), 1.0)
    (residual,) = run_suite(sol, "residual")
    assert residual.tolerance == SUITES["residual"] and residual.passed
    (strict,) = run_suite(sol, "residual", tol=1e-30)
    assert (strict.measured, strict.tolerance, strict.passed) == (residual.measured, 1e-30, False)
    gen = make_generic((1.0, -1.0, -2.0), (-2.75, -1.25, -0.5))
    assert run_suite(gen, "ridge") == [
        Check("ridge", None, SUITES["ridge"], False, "not defined for generic scenarios")]
    assert run_suite(gen, "limits") == [
        Check("limit_convergence", None, SUITES["limits"], False,
              "generic scenario without limit_target")]
