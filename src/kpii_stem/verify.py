"""Independent verification oracles.

Four families of checks, all independent of the closed-form geometry path:

* kp_residual      -- the field equation residual (u_t + 6 u u_x + u_xxx)_x
                      + 3 u_yy evaluated with exact derivatives,
* limit_convergence -- the eight-term generic solution, recentred and driven
                      toward a resonance, converges to the case template,
* asymptotic_match -- far from junctions the solution matches the predicted
                      sech^2 arm profile on perpendicular sections,
* ridge_trace      -- brute-force ridge extraction recovers the analytic
                      trajectory lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import Case, ResonanceKind, ResonantSolution, aij_factors, aij_value, make_generic
from .errors import (
    AnchorNotFoundError,
    InadmissibleFamilyError,
    InadmissibleParameterError,
    RidgeNotFoundError,
    UnsupportedCaseError,
)
from .geometry import ArmDescriptor, arm_profile, normalize_line, skeleton
from .tau import _u_partials, u_on_grid


@dataclass(frozen=True)
class ResidualReport:
    max_abs_residual: float
    n_points: int
    points_exceeding_tol: tuple


@dataclass(frozen=True)
class RidgeTrace:
    samples: tuple          # (anchor_point, ridge_point, ridge_value) triples
    fitted_line: tuple      # normalized (A, B, C)


def kp_residual(sol, points, tol: float = 1e-8) -> ResidualReport:
    """Field-equation residual u_tx + 6 u_x^2 + 6 u u_xx + u_xxxx + 3 u_yy."""
    tau = sol.tau if isinstance(sol, ResonantSolution) else sol
    pts = np.asarray(points, float)
    if pts.ndim == 1:
        pts = pts[None, :]
    x, y, t = pts[:, 0], pts[:, 1], pts[:, 2]
    d = _u_partials(tau, x, y, t,
                    [(0, 0, 0), (1, 0, 0), (2, 0, 0), (4, 0, 0), (0, 2, 0), (1, 0, 1)])
    u = d[(0, 0, 0)]
    res = (d[(1, 0, 1)] + 6.0 * d[(1, 0, 0)] ** 2 + 6.0 * u * d[(2, 0, 0)]
           + d[(4, 0, 0)] + 3.0 * d[(0, 2, 0)])
    absres = np.abs(res)
    bad = [(float(x[i]), float(y[i]), float(t[i]), float(res[i]))
           for i in np.nonzero(absres > tol)[0]]
    return ResidualReport(max_abs_residual=float(absres.max()),
                          n_points=len(x), points_exceeding_tol=tuple(bad))


def _limit_shift(template, strong):
    """(ln a13, ln a23) -> phase shift s with eps . s = -(sum of ln a_i3 over
    the pairs (i, 3) in eps with strong[i - 1]) for each nonzero template
    exponent eps: the template terms stay in place as the strong a_i3 diverge."""
    eps = np.array([e for e, _ in template if any(e)])
    rhs = -eps[:, :2] * eps[:, 2:] * strong         # columns: ln a13, ln a23
    coeffs = np.rint(np.linalg.lstsq(eps, rhs, rcond=None)[0]).astype(int).tolist()
    # a zero coefficient adds no term, so a zero shift keeps its sign
    return lambda l13, l23: tuple(
        a * l13 + b * l23 if a and b else a * l13 if a else b * l23 if b else 0.0
        for a, b in coeffs)


def _perturbation_root(ki, pi, kj, pj, target: float) -> float | None:
    """Smallest p_i offset delta with a_ij(p_i + delta) = target, or None: the
    root of the family that converges to the resonance.

    Only c = kj pi - ki pj moves, to z = c + kj delta; a_ij = target where
    (1 - target)(z^2 - c^2) = num - target den.  z of the sign of c gives the
    smallest delta = (z^2 - c^2) / ((z + c) kj), free of cancellation.
    """
    if target == 1.0:  # num = den needs ki kj = 0
        return None
    num, den, _ = aij_factors(ki, pi, kj, pj)
    c = kj * pi - ki * pj
    gap = (math.prod(num) - target * math.prod(den)) / (1.0 - target)
    z2 = c * c + gap
    if z2 < 0:
        return None
    return gap / ((math.copysign(math.sqrt(z2), c) + c) * kj)


def limit_family(sol: ResonantSolution, magnitudes) -> list[ResonantSolution]:
    """Generic solutions approaching sol's resonance, one per target magnitude.

    For strong pairs the target magnitude is the size of a_ij (e.g. 1e6); for
    weak pairs its reciprocal is used, so magnitudes can be shared across
    cases.  Raises InadmissibleFamilyError if a rung leaves a_ij >= 0.
    """
    case = sol.spec.case
    if case is Case.GENERIC:
        raise UnsupportedCaseError(f"no limit family for case {case}")
    strong = [sol.resonance.kinds[(i, 3)] is ResonanceKind.STRONG for i in (1, 2)]
    shift_of = _limit_shift(sol.template, strong)
    k = sol.params.k
    p1s, p2s, p3 = sol.params.p
    a12_goal = sol.a12 if sol.a12 is not None else 0.0
    out = []
    for mag in magnitudes:
        t13, t23 = (mag if s else 1.0 / mag for s in strong)
        # The target ratio zeta is scanned so that a12 stays admissible
        # (nonnegative and near its intended limit).
        best = None
        d1 = _perturbation_root(k[0], p1s, k[2], p3, t13)
        for zeta in (1.0, 0.9, 1.1, 0.75, 4.0 / 3.0, 0.5, 2.0, 0.25, 4.0,
                     0.1, 10.0):
            d2 = _perturbation_root(k[1], p2s, k[2], p3, t23 * zeta)
            if d1 is None or d2 is None:
                continue
            p = (p1s + d1, p2s + d2, p3)
            a13, a23, a12 = (aij_value(num, den) for num, den, _ in (
                aij_factors(k[0], p[0], k[2], p3), aij_factors(k[1], p[1], k[2], p3),
                aij_factors(k[0], p[0], k[1], p[1])))
            if a13 <= 0 or a23 <= 0 or a12 < 0:
                continue
            score = abs(a12 - a12_goal)
            if best is None or score < best[0]:
                best = (score, p, a13, a23)
            good = (best[0] <= mag ** -0.5 if a12_goal == 0.0
                    else best[0] <= 0.2 * a12_goal)
            if good:
                break
        if best is None:
            raise InadmissibleFamilyError(
                f"no admissible perturbation at magnitude {mag} for {case.value}")
        _, p, a13, a23 = best
        shift = shift_of(math.log(a13), math.log(a23))
        try:
            out.append(make_generic(k, p, xi0=sol.params.xi0, xi_shift=shift))
        except InadmissibleParameterError as exc:
            raise InadmissibleFamilyError(str(exc)) from exc
    return out


def limit_convergence(sol: ResonantSolution, magnitudes, points) -> list[float]:
    """Sup |u_generic - u_template| over points, one value per ladder rung."""
    pts = np.asarray(points, float)
    x, y, t = pts[:, 0], pts[:, 1], pts[:, 2]
    u_ref = u_on_grid(sol.tau, x, y, t)
    devs = []
    for gen in limit_family(sol, magnitudes):
        devs.append(float(np.abs(u_on_grid(gen.tau, x, y, t) - u_ref).max()))
    return devs


# asymptotic sections: half width, and least distance of the anchor to a vertex
_HALF_WIDTH = 12.0
_JUNCTION_DISTANCE = 10.0


def _skeleton_vertices(edges):
    return [e.point(s) for e in edges for s in (e.lo, e.hi) if math.isfinite(s)]


def _find_edge(edges, arm: ArmDescriptor):
    best = None
    for e in edges:
        if e.arm.label == arm.label and e.arm.hat == arm.hat:
            span = (e.hi - e.lo) if e.bounded else math.inf
            if best is None or span > best[1]:
                best = (e, span)
    return best[0] if best is not None else None


def _seg_dist(p1, p2, q1, q2):
    """Distance between two finite 2D segments."""
    def pt_seg(p, a, b):
        ax, ay = b[0] - a[0], b[1] - a[1]
        denom = ax * ax + ay * ay
        s = 0.0 if denom == 0 else max(0.0, min(1.0, ((p[0] - a[0]) * ax + (p[1] - a[1]) * ay) / denom))
        cx, cy = a[0] + s * ax, a[1] + s * ay
        return math.hypot(p[0] - cx, p[1] - cy)

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    # crossing test
    d1, d2 = orient(p1, p2, q1), orient(p1, p2, q2)
    d3, d4 = orient(q1, q2, p1), orient(q1, q2, p2)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)):
        return 0.0
    return min(pt_seg(p1, q1, q2), pt_seg(p2, q1, q2),
               pt_seg(q1, p1, p2), pt_seg(q2, p1, p2))


def _edge_segment(e, clip: float, extend: float):
    # a ridge's exponential influence persists past its junctions, so the
    # realized interval is extended before distance checks
    lo = max(e.lo - extend, -clip)
    hi = min(e.hi + extend, clip)
    return e.point(lo), e.point(hi)


def _section_clearance(edges, edge, anchor):
    """Shortfall of the section's distance to every other realized ridge.

    Each foreign ridge must clear the section by its own decay length
    ln(4 * amplitude / budget) / |grad psi|, so that its leakage onto the
    section stays below the budget.  Returns min(distance - required); >= 0
    means the section is clean.
    """
    budget = 1e-4
    A, B, _ = normalize_line((edge.arm.A, edge.arm.B, 0.0))
    s1 = (anchor[0] - _HALF_WIDTH * A, anchor[1] - _HALF_WIDTH * B)
    s2 = (anchor[0] + _HALF_WIDTH * A, anchor[1] + _HALF_WIDTH * B)
    clip = abs(anchor[0]) + abs(anchor[1]) + 100.0 * _HALF_WIDTH + 1e4
    worst = math.inf
    for e in edges:
        if (e.m, e.n) == (edge.m, edge.n):
            continue
        grad = math.hypot(e.arm.A, e.arm.B)
        need = math.log(max(4.0 * e.arm.amplitude / budget, 2.0)) / grad
        q1, q2 = _edge_segment(e, clip, extend=2.0 * need + 10.0)
        worst = min(worst, _seg_dist(s1, s2, q1, q2) - need)
    return worst


def section_anchor(sol: ResonantSolution, arm: ArmDescriptor,
                   t: float) -> tuple[float, float]:
    """Point on the realized arm whose perpendicular section is clean.

    The anchor keeps at least _JUNCTION_DISTANCE from every skeleton vertex,
    and is pushed far enough out that every other ridge clears the
    +/- _HALF_WIDTH section by its own decay length.
    """
    edges = skeleton(sol, t)
    edge = _find_edge(edges, arm)
    if edge is None:
        raise AnchorNotFoundError(
            f"arm {arm.label_str()} is not realized at t = {t}")
    verts = _skeleton_vertices(edges)

    def ok(pt):
        if any(math.hypot(pt[0] - v[0], pt[1] - v[1]) < _JUNCTION_DISTANCE * 0.999 for v in verts):
            return False
        return _section_clearance(edges, edge, pt) >= 0.0

    if edge.bounded:
        mid = 0.5 * (edge.lo + edge.hi)
        span = 0.5 * (edge.hi - edge.lo)
        for frac in (0.0, 0.2, -0.2, 0.4, -0.4, 0.6, -0.6, 0.8, -0.8):
            pt = edge.point(mid + frac * span)
            if ok(pt):
                return pt
        raise AnchorNotFoundError(
            f"no clean section anchor on segment {arm.label_str()} at t = {t}")
    if math.isinf(edge.lo) and math.isinf(edge.hi):
        return edge.base
    s_end = edge.lo if math.isfinite(edge.lo) else edge.hi
    outward = 1.0 if math.isinf(edge.hi) else -1.0
    for mult in range(1, 80):
        pt = edge.point(s_end + outward * mult * _JUNCTION_DISTANCE)
        if ok(pt):
            return pt
    raise AnchorNotFoundError(
        f"no junction-distant anchor on arm {arm.label_str()} at t = {t}")


def asymptotic_match(sol: ResonantSolution, arm: ArmDescriptor, t: float,
                     profile_arm: ArmDescriptor | None = None) -> float:
    """Sup |u - arm profile| on the perpendicular section through the anchor.

    profile_arm overrides the compared profile (negative-control hook);
    the section itself always follows `arm`.
    """
    anchor = section_anchor(sol, arm, t)
    A, B, _ = normalize_line(arm.line_coeffs(t))
    s = np.linspace(-_HALF_WIDTH, _HALF_WIDTH, 801)
    xs = anchor[0] + s * A
    ys = anchor[1] + s * B
    u = u_on_grid(sol.tau, xs, ys, t)
    prof = arm_profile(profile_arm if profile_arm is not None else arm, (xs, ys, t))
    return float(np.abs(u - prof).max())


def ridge_trace(sol: ResonantSolution, t: float, approx_line,
                scan_window=(-10.0, 10.0), n_scans: int = 21,
                search_halfwidth: float = 4.0, anchor=(0.0, 0.0),
                tol: float = 1e-6) -> RidgeTrace:
    """Trace the ridge of u near a guess line and fit a line through it.

    Scan stations sit on the guess line inside scan_window (arclength
    relative to the anchor's projection; anchor defaults to the origin).
    One array evaluation gives every scan's 41-point coarse profile on its
    perpendicular; a scan whose maximum is not interior is dropped.  The
    maximum nearest the line is then refined by golden-section search on all
    scans at once, one evaluation per step, and a total-least-squares line is
    fitted through the refined points.
    """
    A, B, C = normalize_line(approx_line)
    dproj = A * anchor[0] + B * anchor[1] + C
    foot = (anchor[0] - dproj * A, anchor[1] - dproj * B)
    s = np.linspace(scan_window[0], scan_window[1], n_scans)
    cx, cy = foot[0] - s * B, foot[1] + s * A

    def u_at(d, scans=slice(None)):
        return u_on_grid(sol.tau, cx[scans] + d * A, cy[scans] + d * B, t)

    coarse = np.linspace(-search_halfwidth, search_halfwidth, 41)
    i = np.argmax(u_at(coarse[:, None]), axis=0)
    interior = (i > 0) & (i < len(coarse) - 1)
    found = int(interior.sum())
    if found < max(2, n_scans // 2):
        raise RidgeNotFoundError(f"ridge found on only {found} of {n_scans} scans")
    cx, cy, i = cx[interior], cy[interior], i[interior]
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = coarse[i - 1], coarse[i + 1]
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = u_at(np.stack([c, d]))
    # a scan leaves the loop once its bracket is below tol, so each scan
    # takes the steps that a search on it alone would take
    while (live := np.flatnonzero(b - a > tol)).size:
        left = fc[live] > fd[live]
        lo, hi = live[left], live[~left]
        b[lo], d[lo], fd[lo] = d[lo], c[lo], fc[lo]
        c[lo] = b[lo] - phi * (b[lo] - a[lo])
        a[hi], c[hi], fc[hi] = c[hi], d[hi], fd[hi]
        d[hi] = a[hi] + phi * (b[hi] - a[hi])
        f = u_at(np.where(left, c[live], d[live]), live)
        fc[lo], fd[hi] = f[left], f[~left]
    mid = 0.5 * (a + b)
    px, py = cx + mid * A, cy + mid * B
    samples = tuple(((x0, y0), (x1, y1), v) for x0, y0, x1, y1, v in zip(
        cx.tolist(), cy.tolist(), px.tolist(), py.tolist(), u_at(mid).tolist()))
    pts = np.column_stack([px, py])
    mean = pts.mean(axis=0)
    _, _, vt = np.linalg.svd(pts - mean)
    tang = vt[0]
    normal = (-tang[1], tang[0])
    line = (normal[0], normal[1], -(normal[0] * mean[0] + normal[1] * mean[1]))
    return RidgeTrace(samples=samples, fitted_line=normalize_line(line))
