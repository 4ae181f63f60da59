"""Independent verification oracles.

Four families of checks, all independent of the closed-form geometry path:

* kp_residual      -- the field equation residual (u_t + 6 u u_x + u_xxx)_x
                      + 3 u_yy evaluated with exact derivatives,
* limit_convergence -- the eight-term generic solution, recentred and driven
                      toward a resonance, converges to the case template,
* asymptotic_match -- where every other tau term lies exponentially below
                      the arm's two (section_anchor), the solution matches
                      the predicted sech^2 arm profile on perpendicular
                      sections,
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
from .geometry import ArmDescriptor, arm_profile, normalize_line, skeleton, term_planes
# perfbench/spans.py wraps the kernel at this binding, by this name
from .tau import u_on_grid, u_partials as _u_partials


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
    # a NaN residual (overflowed exponents) counts as exceeding tol
    bad = [(float(x[i]), float(y[i]), float(t[i]), float(res[i]))
           for i in np.nonzero(~(absres <= tol))[0]]
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
    smallest delta = (z^2 - c^2) / ((z + c) kj), free of cancellation; None
    where (z + c) kj is 0.
    """
    if target == 1.0:  # num = den needs ki kj = 0
        return None
    num, den, _ = aij_factors(ki, pi, kj, pj)
    c = kj * pi - ki * pj
    gap = (math.prod(num) - target * math.prod(den)) / (1.0 - target)
    z2 = c * c + gap
    if z2 < 0:
        return None
    divisor = (math.copysign(math.sqrt(z2), c) + c) * kj
    return gap / divisor if divisor else None


def limit_family(sol: ResonantSolution, magnitudes) -> list[ResonantSolution]:
    """Generic solutions approaching sol's resonance, one per target magnitude.

    For strong pairs the target magnitude is the size of a_ij (e.g. 1e6); for
    weak pairs its reciprocal is used, so magnitudes can be shared across
    cases.  A candidate is admissible when a13 and a23 are positive and a12
    nonnegative, all finite, with no exactly-zero factor (decided from
    aij_factors before any quotient).  Raises InadmissibleFamilyError if a
    rung has no admissible candidate.
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
            factors = (aij_factors(k[0], p[0], k[2], p3), aij_factors(k[1], p[1], k[2], p3),
                       aij_factors(k[0], p[0], k[1], p[1]))
            # an exactly-zero factor makes its a_ij 0 or infinite: inadmissible
            if any(0.0 in num + den for num, den, _ in factors):
                continue
            a13, a23, a12 = (aij_value(num, den) for num, den, _ in factors)
            if not (0 < a13 < math.inf and 0 < a23 < math.inf and 0 <= a12 < math.inf):
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


# asymptotic sections: half width, and the bound on the other terms' leakage
# into u there
_HALF_WIDTH = 12.0
_LEAKAGE = 1e-4


def _find_edge(edges, arm: ArmDescriptor):
    """The longest realized edge of the arm's species, or None."""
    found = [e for e in edges if (e.arm.label, e.arm.hat) == (arm.label, arm.hat)]
    return max(found, key=lambda e: e.hi - e.lo, default=None)


def section_anchor(sol: ResonantSolution, arm: ArmDescriptor,
                   t: float) -> tuple[float, float]:
    """Point on the realized arm whose perpendicular section is clean.

    u = 2 Var_w(K), so a term c at weight e^-gap_c relative to the larger of
    the arm's terms m, n moves u by at most 2 e^-gap_c Delta_c^2, with
    Delta_c^2 = max((K_c - K_m)^2, (K_c - K_n)^2).  Over the square of half
    width _HALF_WIDTH around the anchor each of the n_o other terms keeps
    gap_c >= ln(2 n_o Delta_c^2 / _LEAKAGE) and >= 0, so no skeleton vertex
    lies in it.  The gap is affine along the edge and convex across it with
    its kink on the edge, so each term bounds the edge parameter from one
    side.  A ray takes the clean point nearest its junction, a bounded edge
    the middle of its clean interval.
    """
    edges = skeleton(sol, t)
    edge = _find_edge(edges, arm)
    if edge is None:
        raise AnchorNotFoundError(
            f"arm {arm.label_str()} is not realized at t = {t}")
    h = _HALF_WIDTH
    others = {idx: (K, P, c) for idx, K, P, c in term_planes(sol, t)}
    (Km, Pm, cm), (Kn, Pn, _) = others.pop(edge.m), others.pop(edge.n)
    (bx, by), (dx, dy) = edge.base, edge.direction
    # the terms that end the edge also keep the square off its ends
    lo, hi = -math.inf, math.inf
    for Kc, Pc, cc in others.values():
        leak = 2.0 * len(others) * max(abs(Kc - Km), abs(Kc - Kn)) ** 2
        need = math.log(max(leak / _LEAKAGE, 1.0))
        # at offsets a along and b across the edge (unit normal (dy, -dx))
        # the gap is alpha + beta (s + a) + max(g_m b, g_n b), with g_m, g_n
        # the normal slopes of psi_m - psi_c and psi_n - psi_c; it is least
        # at a = -h sign(beta) and b in {-h, 0, h}
        alpha = (Km - Kc) * bx + (Pm - Pc) * by + (cm - cc)
        beta = (Km - Kc) * dx + (Pm - Pc) * dy
        across = min(0.0, (Km - Kc) * dy - (Pm - Pc) * dx, (Pn - Pc) * dx - (Kn - Kc) * dy)
        slack = alpha + h * (across - abs(beta)) - need    # least gap - need at s = 0
        if abs(beta) < 1e-13 * (1 + abs(Km - Kc) + abs(Pm - Pc)):
            if slack < 0:
                lo, hi = math.inf, -math.inf
        elif beta > 0:
            lo = max(lo, -slack / beta)
        else:
            hi = min(hi, -slack / beta)
    if not lo <= hi:
        raise AnchorNotFoundError(
            f"no clean section anchor on arm {arm.label_str()} at t = {t}")
    if edge.bounded:
        s = 0.5 * (lo + hi)
    elif math.isfinite(edge.lo):    # a ray: the clean point nearest its junction
        s = lo
    elif math.isfinite(edge.hi):
        s = hi
    else:                           # a line without junctions
        s = min(max(0.0, lo), hi)
    return edge.point(s)


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
    bracket around the maximum is then refined by the same 41-point profile
    taken across it, for all scans in one evaluation per round: the grid
    neighbours of the profile's maximum (clipped at an end) are the next
    bracket, 20 times narrower.  A scan stops once its bracket is at most
    tol, or when it no longer narrows (tol below the spacing of floats).
    A total-least-squares line is fitted through the bracket midpoints.
    Raises ValueError for a negative or NaN tol.
    """
    if not tol >= 0.0:
        raise ValueError(f"ridge tolerance must be >= 0, got {tol}")
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
    a, b = coarse[i - 1], coarse[i + 1]
    frac = np.linspace(0.0, 1.0, len(coarse))[:, None]
    # each scan takes the rounds that a search on it alone would take
    live = np.flatnonzero(b - a > tol)
    while live.size:
        width = b[live] - a[live]
        grid = a[live] + width * frac
        j = np.argmax(u_at(grid, live), axis=0)
        cols = np.arange(live.size)
        a[live] = grid[np.maximum(j - 1, 0), cols]
        b[live] = grid[np.minimum(j + 1, len(frac) - 1), cols]
        narrower = b[live] - a[live]
        live = live[(narrower > tol) & (narrower < width)]
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
