"""Independent verification oracles.

Four families of checks, all independent of the closed-form geometry path:

* kp_residual      -- the field equation residual (u_t + 6 u u_x + u_xxx)_x
                      + 3 u_yy evaluated with exact derivatives,
* limit_convergence -- the eight-term generic solution, recentred by the
                      case's phase-shift limit (catalog.SHIFTS) and driven
                      toward a resonance, converges to the case template,
* asymptotic_match -- where every other tau term lies exponentially below
                      the arm's two (section_anchor), the solution matches
                      the predicted sech^2 arm profile on perpendicular
                      sections,
* ridge_trace      -- brute-force ridge extraction recovers the analytic
                      trajectory lines.

run_suite runs one of SUITES, the suites of `kpii-stem verify`, as Check records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import ROOTS, SHIFTS, Case, ResonantSolution, aij_factors, aij_value, make_generic
from .errors import (AnchorNotFoundError, DomainError, InadmissibleFamilyError,
                     InadmissibleParameterError, InternalConsistencyError,
                     RidgeNotFoundError, UnsupportedCaseError)
from .geometry import (ArmDescriptor, arm_catalog, arm_profile, normalize_line, skeleton,
                       trajectory_line)
# perfbench/spans.py wraps the kernel at this binding, by this name
from .tau import BLOCK_POINTS, u_on_grid, u_partials as _u_partials


@dataclass(frozen=True)
class ResidualReport:
    max_abs_residual: float
    n_points: int
    points_exceeding_tol: tuple


@dataclass(frozen=True)
class RidgeTrace:
    samples: tuple          # (anchor_point, ridge_point, ridge_value) triples
    fitted_line: tuple      # normalized (A, B, C)


# the partials the residual reads: u, u_x, u_xx, u_xxxx, u_yy, u_xt
_RESIDUAL_INDICES = ((0, 0, 0), (1, 0, 0), (2, 0, 0), (4, 0, 0), (0, 2, 0), (1, 0, 1))


def _points(points) -> np.ndarray:
    """points as an (n, 3) float array: one (x, y, t) point of shape (3,), or
    an (n, 3) array with n >= 1.  Any other input raises DomainError."""
    try:
        pts = np.asarray(points, float)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"points are not an array of numbers: {exc}") from exc
    if pts.shape == (3,):
        return pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != 3 or not len(pts):
        raise DomainError("points must be one (x, y, t) point or an (n, 3) array "
                          f"with n >= 1, got shape {pts.shape}")
    return pts


def kp_residual(sol, points, tol: float = 1e-8) -> ResidualReport:
    """Field-equation residual u_tx + 6 u_x^2 + 6 u u_xx + u_xxxx + 3 u_yy.

    The points are evaluated and reduced a slice of at most BLOCK_POINTS at a
    time, so no array of the point count is formed beside the points.  Every
    per-point value has the bits of one call over all the points (the
    kernel's blocks give those bits, and a one-point slice those of its point
    inside an array).  A NaN residual (overflowed exponents) counts as
    exceeding tol and makes the maximum NaN."""
    tau = sol.tau if isinstance(sol, ResonantSolution) else sol
    pts = _points(points)
    peaks, bad = [], []
    for lo in range(0, len(pts), BLOCK_POINTS):
        x, y, t = pts[lo:lo + BLOCK_POINTS].T
        d = _u_partials(tau, x, y, t, _RESIDUAL_INDICES)
        u = d[(0, 0, 0)]
        res = (d[(1, 0, 1)] + 6.0 * d[(1, 0, 0)] ** 2 + 6.0 * u * d[(2, 0, 0)]
               + d[(4, 0, 0)] + 3.0 * d[(0, 2, 0)])
        absres = np.abs(res)
        peaks.append(absres.max())
        i = np.flatnonzero(~(absres <= tol))
        bad += zip(x[i].tolist(), y[i].tolist(), t[i].tolist(), res[i].tolist())
    # np.max, unlike max(), returns a NaN wherever it stands
    return ResidualReport(max_abs_residual=float(np.max(peaks)),
                          n_points=len(pts), points_exceeding_tol=tuple(bad))


def _limit_shift(case, l13, l23):
    """The limit family's phase shift at ln a13 = l13, ln a23 = l23, which keeps the
    case's template terms in place: xi_j moves by alpha_j l13 + beta_j l23, (alpha,
    beta) = SHIFTS[case].  A zero coefficient adds no term, so a zero keeps its sign."""
    return tuple(a * l13 + b * l23 if a and b else a * l13 if a else b * l23 if b else 0.0
                 for a, b in zip(*SHIFTS[case]))


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
    k = sol.params.k
    p1s, p2s, p3 = sol.params.p
    a12_goal = sol.a12 if sol.a12 is not None else 0.0
    out = []
    for mag in magnitudes:
        # a13 and a23 go to a pole (r = 1) or to a zero (r = -1)
        t13, t23 = (mag if r > 0 else 1.0 / mag for r, _ in ROOTS[case])
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
        shift = _limit_shift(case, math.log(a13), math.log(a23))
        xi0 = tuple(a + b for a, b in zip(sol.params.xi0, shift))
        try:
            out.append(make_generic(k, p, xi0=xi0))
        except InadmissibleParameterError as exc:
            raise InadmissibleFamilyError(str(exc)) from exc
    return out


def limit_convergence(sol: ResonantSolution, magnitudes, points) -> list[float]:
    """Sup |u_generic - u_template| over points, one value per ladder rung.
    points are one (x, y, t) point or an (n, 3) array, as for kp_residual,
    and are reduced a slice of at most BLOCK_POINTS at a time, as there: a
    running maximum per rung keeps the values of one call over all the
    points, and a NaN deviation makes its rung's value NaN."""
    pts = _points(points)
    family = limit_family(sol, magnitudes)
    peaks = np.full(len(family), -np.inf)
    for lo in range(0, len(pts), BLOCK_POINTS):
        x, y, t = pts[lo:lo + BLOCK_POINTS].T
        u_ref = u_on_grid(sol.tau, x, y, t)
        # np.maximum, unlike max(), keeps a NaN wherever it stands
        np.maximum(peaks, [np.abs(u_on_grid(gen.tau, x, y, t) - u_ref).max()
                           for gen in family], out=peaks)
    return peaks.tolist()


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
    side; the gap along the edge is the skeleton's (Edge.gaps).  A ray takes
    the clean point nearest its junction, a bounded edge the middle of its
    clean interval.  The section's points are good to
    2**-53 of their size, which moves the arm's phase v = A x + B y + C by
    up to (|A| + |B|) times that, and its profile a sech^2(v/2) by at most
    2 a / (3 sqrt 3) per unit of v (the tau exponents round alike); an
    anchor where that exceeds _LEAKAGE is refused too.
    """
    edges = skeleton(sol, t)
    edge = _find_edge(edges, arm)
    if edge is None:
        raise AnchorNotFoundError(
            f"arm {arm.label_str()} is not realized at t = {t}")
    h = _HALF_WIDTH
    _, Ks, Ps, *_ = sol.tau.values
    Km, Pm, Kn, Pn = Ks[edge.m], Ps[edge.m], Ks[edge.n], Ps[edge.n]
    dx, dy = edge.direction
    # the terms that end the edge also keep the square off its ends
    lo, hi = -math.inf, math.inf
    for c, alpha, beta, flat in edge.gaps:
        Kc, Pc = Ks[c], Ps[c]
        leak = 2.0 * len(edge.gaps) * max(abs(Kc - Km), abs(Kc - Kn)) ** 2
        need = math.log(max(leak / _LEAKAGE, 1.0))
        # at offsets a along and b across the edge (unit normal (dy, -dx))
        # the gap is alpha + beta (s + a) + max(g_m b, g_n b), with g_m, g_n
        # the normal slopes of psi_m - psi_c and psi_n - psi_c; it is least
        # at a = -h sign(beta) and b in {-h, 0, h}
        across = min(0.0, (Km - Kc) * dy - (Pm - Pc) * dx, (Pn - Pc) * dx - (Kn - Kc) * dy)
        slack = alpha + h * (across - abs(beta)) - need    # least gap - need at s = 0
        if flat:
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
    x, y = edge.point(s)
    rounding = (2.0 * arm.amplitude / (3.0 * math.sqrt(3.0)) * (abs(arm.A) + abs(arm.B))
                * 2.0**-53 * (max(abs(x), abs(y)) + h))
    if not rounding <= _LEAKAGE:
        raise AnchorNotFoundError(f"no clean section anchor on arm {arm.label_str()} at "
                                  f"t = {t}: rounding at {(x, y)} moves u by {rounding:.2g}")
    return x, y


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
    nx, ny = -vt[0][1], vt[0][0]    # the normal of the fitted direction
    line = (nx, ny, -(nx * mean[0] + ny * mean[1]))
    return RidgeTrace(samples=samples, fitted_line=normalize_line(line))


# ---------------------------------------------------------------- suites

# The suites of `kpii-stem verify` with their default tolerances.  residual and
# limits draw points from a box: (seed, count, half side in x and y, half span
# in t); limits runs LADDER's magnitudes.  asymptotics and ridge measure arms at
# t = -ARM_T and +ARM_T, ridge on RIDGE_SCANS scans over RIDGE_WINDOW.
SUITES = {"residual": 1e-8, "limits": 1e-4, "asymptotics": 1e-3, "ridge": 1e-4}
RESIDUAL_BOX, LIMIT_BOX = (20240811, 1000, 50.0, 10.0), (7, 200, 1.25, 0.05)
LADDER, ARM_T = (1e3, 1e4, 1e5, 1e6), 20.0
RIDGE_WINDOW, RIDGE_SCANS = (-5.0, 5.0), 7
_REFUSALS = (AnchorNotFoundError, RidgeNotFoundError, InadmissibleFamilyError,
             InternalConsistencyError)


@dataclass(frozen=True)
class Check:
    """One verify check; where measured is None, the note says why."""
    name: str
    measured: float | list | None
    tolerance: float | None
    passed: bool
    note: str | None = None


def _unmeasured(name, tol, note) -> Check:
    return Check(name, None, tol, False, note)


def _checks(name, tol, measure, what="the measured value") -> list[Check]:
    """[measure() < tol], or measure()'s own checks where it returns a list.  A
    refusal to measure, or a value that is not finite (JSON has no NaN), fails
    check `name` with measured None and a note, without numpy warnings."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            value = measure()
    except _REFUSALS as exc:
        return [_unmeasured(name, tol, str(exc))]
    if isinstance(value, list):
        return value
    if not math.isfinite(value):
        return [_unmeasured(name, tol, f"{what} is {value!r}")]
    return [Check(name, value, tol, value < tol)]


def _box(seed, n, xy, t) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.column_stack([rng.uniform(-xy, xy, n), rng.uniform(-xy, xy, n),
                            rng.uniform(-t, t, n)])


def _ridge_deviation(sol, arm, t) -> float:
    """The gap between the arm's fitted ridge line and its trajectory line."""
    line = trajectory_line(arm, t)
    trace = ridge_trace(sol, t, line, scan_window=RIDGE_WINDOW, n_scans=RIDGE_SCANS,
                        anchor=section_anchor(sol, arm, t))
    (fa, fb, fc), (la, lb, lc) = trace.fitted_line, line
    return float(max(abs(fa - la), abs(fb - lb), abs(fc - lc) / max(1.0, abs(lc))))


def run_suite(sol: ResonantSolution, suite: str, tol: float | None = None,
              target: ResonantSolution | None = None) -> list[Check]:
    """The checks of SUITES[suite] on sol against tol (default: the suite's).
    A generic sol's limits suite compares it with target, its resonant
    template; ridge fits each side's first catalog arm (the stem is curved)."""
    tol = SUITES[suite] if tol is None else tol
    if suite == "residual":
        pts = _box(*RESIDUAL_BOX)
        return _checks("field_equation_residual", tol,
                       lambda: kp_residual(sol, pts, tol=tol).max_abs_residual,
                       "the largest |residual|")
    if sol.spec.case is Case.GENERIC:
        if suite != "limits":
            return [_unmeasured(suite, tol, "not defined for generic scenarios")]
        if target is None:
            return [_unmeasured("limit_convergence", tol,
                                "generic scenario without limit_target")]
        x, y, t = _box(*LIMIT_BOX).T
        return _checks(f"deviation_from_{target.spec.case.value}_template", tol,
                       lambda: float(np.abs(u_on_grid(sol.tau, x, y, t)
                                            - u_on_grid(target.tau, x, y, t)).max()))
    if suite == "limits":
        def ladder():
            devs = limit_convergence(sol, LADDER, _box(*LIMIT_BOX))
            bad = [d for d in devs if not math.isfinite(d)]
            return bad[0] if bad else [
                Check("limit_ladder_end", devs[-1], tol, devs[-1] < tol),
                Check("limit_ladder_monotone", devs, None,
                      all(b <= a for a, b in zip(devs, devs[1:])))]
        return _checks("limit_ladder_end", tol, ladder, "a rung's deviation")
    name, measure = (("asymptotic", asymptotic_match) if suite == "asymptotics"
                     else ("ridge", _ridge_deviation))

    def each_arm():
        cat = arm_catalog(sol)
        return [c for side, t in (("before", -ARM_T), ("after", ARM_T))
                for _, arm in getattr(cat, side)[:None if suite == "asymptotics" else 1]
                for c in _checks(f"{name}_{side}_{arm.label_str()}", tol,
                                 lambda: measure(sol, arm, t))]
    return _checks(suite, tol, each_arm)
