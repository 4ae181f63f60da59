"""Analytic geometry of soliton arms and variable-length stems.

At fixed t the dominance regions of the tau terms partition the plane: term m
wins where psi_m(x, y) = K_m x + P_m y + W_m t + ln c_m + s_m is maximal.  The
solution u concentrates on the boundaries of this max-plus (tropical) skeleton:
along the boundary of terms m and n it is locally the sech^2 ridge

    u ~ ((K_m - K_n)^2 / 2) sech^2((psi_m - psi_n)/2),

so every arm, every junction and the bounded stem segment can be read off the
skeleton exactly.  Arms are the unbounded edges, the stem is the bounded edge,
and its endpoints are triple points of the skeleton.  The same endpoints are
also evaluated through a closed-form coefficient table (derived offline in
exact arithmetic, see tools/generate_closed_forms.py); the two paths are
cross-checked on every call.

The generated module defines each distinct coefficient expression once as a
function of (k1, k2, k3, p3); VERTEX[case][junction] is the tuple
(xt, xL, yt, yL) of such functions.  The table holds only what the limit
skeleton can name: at t -> +-inf each psi_m / |t| is linear in the term's
exponent vector, so a catalog junction is three vectors on one facet of the
template's Newton polytope (48 junctions over the eight cases).  A key the
table lacks is an InternalConsistencyError.  Only the stem queries read the
table, so it is imported on first use, and an entry's coefficients, which do
not depend on t, are evaluated once per solution.  The closed-form stem
length is the distance between the closed-form endpoints of the stem's two
end junctions.

Everything else about a side's stem that does not depend on t is built once
too, on the first stem query of that side: the stem plan holds, per end
junction, the best-conditioned pair of trajectory lines with their
normalized normals, signs, norms and determinant, and the closed-form
endpoint: the VERTEX coefficients with ln a12 multiplied in, plus the shift
that the phase constants xi0 give (the meeting point is linear in the line
offsets).  A query at t forms the two line offsets C(t), intersects,
compares with the closed form and evaluates u at the midpoint; stem_reports
does so for a vector of times with one u call.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass
from enum import Enum
from itertools import combinations

import numpy as np

from .catalog import Branch, Case, ResonantSolution
from .errors import (
    DegenerateLineError,
    DomainError,
    InternalConsistencyError,
    UnsupportedCaseError,
)
from .tau import u_on_grid

Eps = tuple[int, int, int]
# a triple point of three tau terms: their exponent vectors, sorted (the key
# format of the closed-form VERTEX table)
Junction = tuple[Eps, Eps, Eps]


class Region(str, Enum):
    Y_NEG = "y-"
    Y_POS = "y+"
    X_NEG = "x-"
    X_POS = "x+"


@dataclass(frozen=True)
class ArmDescriptor:
    """One sech^2 ridge: a soliton arm or stem species.

    label is the signed index combination (e.g. (1, 3) for the 1+3 arm,
    (1, -3) for 1-3); hat marks an extra profile offset of ln a12.  The
    trajectory at time t is A x + B y + C(t) = 0 with A, B the signed sums of
    k and p and C(t) = (signed omega sum) t + (signed xi0 sum) + offset.
    """

    label: tuple[int, ...]
    hat: bool
    amplitude: float
    profile_offset: float
    A: float
    B: float
    W: float
    xi0: float

    def line_coeffs(self, t: float) -> tuple[float, float, float]:
        return (self.A, self.B, self.W * t + self.xi0 + self.profile_offset)

    @property
    def velocity(self) -> tuple[float | None, float | None]:
        """Intercept velocities (-W/A, -W/B); None marks an undefined axis."""
        vx = -self.W / self.A if self.A != 0 else None
        vy = -self.W / self.B if self.B != 0 else None
        return (vx, vy)

    def label_str(self, hat_mark: bool = True) -> str:
        s = ""
        for j in self.label:
            sign = "-" if j < 0 else ("+" if s else "")
            s += f"{sign}{abs(j)}"
        return s + ("^" if self.hat and hat_mark else "")


@dataclass(frozen=True)
class AsymptoticCatalog:
    """Arm and stem assignment in the asymptotic regimes t -> -inf / +inf."""

    before: tuple[tuple[Region, ArmDescriptor], ...]
    after: tuple[tuple[Region, ArmDescriptor], ...]
    stem_past: ArmDescriptor
    stem_future: ArmDescriptor
    regime: str                 # "y" or "x" on both sides; heuristic, see arm_catalog
    past_junctions: tuple[Junction, Junction]       # sorted
    future_junctions: tuple[Junction, Junction]

    @property
    def species(self) -> list[ArmDescriptor]:
        """Every catalog arm, then the past and the future stem."""
        return ([a for _, a in self.before] + [a for _, a in self.after]
                + [self.stem_past, self.stem_future])


@dataclass(frozen=True)
class StemReport:
    """Stem geometry snapshot at one time."""

    t: float
    endpoint_a: tuple[float, float]
    endpoint_b: tuple[float, float]
    length: float
    midpoint: tuple[float, float]
    midpoint_amplitude: float
    valid: bool
    endpoint_mismatch: float            # closed form vs intersection, err/scale


@dataclass(frozen=True)
class Edge:
    """Realized skeleton edge: terms m, n tie on base + s * direction for lo < s
    < hi, cut off by terms lo_bind / hi_bind; arm is the edge's ridge species.

    gaps holds (c, alpha, beta, flat) for each other positive term c, in term
    order: psi_m - psi_c is alpha + beta s along the edge, and flat marks a
    beta too small to bound s.  verify.section_anchor reads them."""

    m: int
    n: int
    lo: float
    hi: float
    lo_bind: int | None
    hi_bind: int | None
    base: tuple[float, float]
    direction: tuple[float, float]
    arm: ArmDescriptor
    gaps: tuple[tuple[int, float, float, bool], ...]

    @property
    def bounded(self):
        return math.isfinite(self.lo) and math.isfinite(self.hi)

    def point(self, s: float) -> tuple[float, float]:
        return (self.base[0] + s * self.direction[0],
                self.base[1] + s * self.direction[1])


class _Record:
    """The t-independent state of one solution, built once: per positive term
    (index, K, P, W, xi0-part, ln c) and (|K|, |P|, |W|, |xi0-part|), the
    term index of each exponent vector, the pair arms as _arm_from_terms
    builds them, the arm catalog, and per side (past, future) the stem
    plan."""

    __slots__ = ("planes", "sizes", "index", "arms", "catalog", "plans")

    def __init__(self, sol: ResonantSolution):
        # tau's term idx is template[idx] with its (K, P, W, xi0-part)
        self.planes = tuple((idx, *row[1:], math.log(row[0]))
                            for idx, row in enumerate(zip(*sol.tau.values)) if row[0] > 0)
        self.sizes = tuple((abs(K), abs(P), abs(W), abs(s0))
                           for _, K, P, W, s0, _ in self.planes)
        self.index = {eps: i for i, (eps, _) in enumerate(sol.template)}
        self.arms: dict[tuple[int, int], ArmDescriptor] = {}
        self.catalog: AsymptoticCatalog | None = None
        self.plans: list[tuple | None] = [None, None]


# one record per solution, freed together with it (it holds no reference back)
_RECORDS = weakref.WeakKeyDictionary()


def _record(sol: ResonantSolution) -> _Record:
    """The solution's record: looked up once per public call and passed on."""
    rec = _RECORDS.get(sol)
    if rec is None:
        rec = _RECORDS[sol] = _Record(sol)
    return rec


def _arm(sol: ResonantSolution, rec: _Record, m: int, n: int) -> ArmDescriptor:
    """The arm of the term pair (m, n), built once per ordered pair: (n, m)
    takes ln(c_n / c_m), which can differ from -ln(c_m / c_n) in the last bit."""
    arm = rec.arms.get((m, n))
    if arm is None:
        arm = rec.arms[(m, n)] = _arm_from_terms(sol, m, n)
    return arm


def skeleton(sol: ResonantSolution, t: float) -> list[Edge]:
    """Realized dominance-boundary edges of the tau function at time t.

    Each term with positive coefficient has the plane psi_m = K x + P y +
    (W t + s0 + ln c).  t = -inf or +inf gives the limit skeleton, the limit
    of psi_m / |t| in the coordinates x/|t|, y/|t|: the constant is W sign(t),
    ln c_m and xi0 drop out, and every edge that does not grow with |t|
    shrinks to a point.  A NaN t raises DomainError.
    """
    if math.isnan(t):
        raise DomainError(f"the skeleton needs a time that is not NaN, got t = {t}")
    rec = _record(sol)
    if math.isinf(t):
        sign = math.copysign(1.0, t)
        planes = [(idx, K, P, sign * W) for idx, K, P, W, _, _ in rec.planes]
    else:
        planes = [(idx, K, P, W * t + s0 + lnc) for idx, K, P, W, s0, lnc in rec.planes]
    edges = []
    for a, (ia, Ka, Pa, ca) in enumerate(planes[:-1]):
        # (K_a - K_c, P_a - P_c, c_a - c_c) per term c, for every edge of term a
        cuts = [(ic, Ka - Kc, Pa - Pc, ca - cc) for ic, Kc, Pc, cc in planes]
        for ib, dK, dP, dc in cuts[a + 1:]:
            nrm = math.hypot(dK, dP)
            if nrm * nrm == 0:
                continue
            b0, b1 = -dc * dK / nrm**2, -dc * dP / nrm**2
            d0, d1 = -dP / nrm, dK / nrm
            lo, hi = -math.inf, math.inf
            lo_bind = hi_bind = None
            gaps = []
            for ic, dKc, dPc, dcc in cuts:
                if ic == ia or ic == ib:
                    continue
                alpha = dKc * b0 + dPc * b1 + dcc
                beta = dKc * d0 + dPc * d1
                # relative, so that KPII's scaling (K, P) -> (s K, s^2 P) keeps it
                flat = abs(beta) <= 1e-13 * (abs(dKc * d0) + abs(dPc * d1))
                gaps.append((ic, alpha, beta, flat))
                if flat:
                    if alpha < 0:
                        break           # term c wins along the whole line
                    continue
                bound = -alpha / beta
                if beta > 0:
                    if bound > lo:
                        lo, lo_bind = bound, ic
                elif bound < hi:
                    hi, hi_bind = bound, ic
            else:
                if not (math.isfinite(lo) and math.isfinite(hi)
                        and lo >= hi - 1e-9 * (abs(lo) + abs(hi))):
                    edges.append(Edge(ia, ib, lo, hi, lo_bind, hi_bind, (b0, b1), (d0, d1),
                                      _arm(sol, rec, ia, ib), tuple(gaps)))
    return edges


def _arm_from_terms(sol: ResonantSolution, m: int, n: int) -> ArmDescriptor:
    (e1, e2, e3), c_m = sol.template[m]
    (f1, f2, f3), c_n = sol.template[n]
    d1, d2, d3 = e1 - f1, e2 - f2, e3 - f3
    offset = math.log(c_m / c_n)
    if (d1 or d2 or d3) < 0:       # the first nonzero entry leads
        d1, d2, d3 = -d1, -d2, -d3
        offset = -offset
    label = tuple([j * d for j, d in ((1, d1), (2, d2), (3, d3)) if d != 0])
    K, P, W, s0 = sol.exponent_of((d1, d2, d3))
    return ArmDescriptor(label, abs(offset) > 1e-14, K * K / 2.0, offset, K, P, W, s0)


def _junctions(sol: ResonantSolution, stem: Edge) -> tuple[Junction, Junction]:
    """The two end junctions of a bounded edge, sorted."""
    eps = [e for e, _ in sol.template]
    return tuple(sorted(tuple(sorted((eps[stem.m], eps[stem.n], eps[bind])))
                        for bind in (stem.lo_bind, stem.hi_bind)))


def _stem_edge(edges) -> Edge | None:
    """The bounded edge whose species no ray carries (the stem), or None
    unless there is exactly one.

    Read on the limit skeleton, where the phase-shift jogs inside elastic
    X-crossings have shrunk to points and only the stem is left.
    """
    rays = {e.arm.label for e in edges if not e.bounded}
    novel = [e for e in edges if e.bounded and e.arm.label not in rays]
    return novel[0] if len(novel) == 1 else None


def _wings(edges, stem: Edge):
    """The arm edges at each stem junction, with outward directions: at the
    junction (m, n, b) a wing of two of its terms leaves from the end that
    the third term binds."""
    out = []
    for bind in (stem.lo_bind, stem.hi_bind):
        junction = (stem.m, stem.n, bind)
        side = []
        for e in edges:
            if e.m in junction and e.n in junction and e is not stem:
                (third,) = set(junction) - {e.m, e.n}
                d = e.direction if e.lo_bind == third else (-e.direction[0], -e.direction[1])
                side.append((e, d))
        out.append(side)
    return out


def _catalog_side(sol: ResonantSolution, t: float, regime: str | None = None):
    edges = skeleton(sol, t)
    stem = _stem_edge(edges)
    if stem is None:
        return None
    wings = _wings(edges, stem)
    if sum(len(side) for side in wings) != 4:
        return None
    if regime is None:
        # V-opening bisectors at the stem junctions decide the region axis
        bisectors = [(sum(d[0] for _, d in side), sum(d[1] for _, d in side)) for side in wings]
        regime = "y" if all(abs(by) >= abs(bx) for bx, by in bisectors) else "x"
    listing = []
    for side in wings:
        for e, d in side:
            comp = d[1] if regime == "y" else d[0]
            if regime == "y":
                region = Region.Y_POS if comp > 0 else Region.Y_NEG
            else:
                region = Region.X_POS if comp > 0 else Region.X_NEG
            listing.append((region, e.arm))
    # a Region is its str value, so it sorts as one
    listing.sort(key=lambda ra: (ra[0], ra[1].label, ra[1].hat))
    return stem, tuple(listing), regime


def arm_catalog(sol: ResonantSolution) -> AsymptoticCatalog:
    """Asymptotic arm/stem catalog read from the limit skeletons at t = -inf
    and t = +inf (see skeleton).

    On each side the stem is the one bounded edge whose species no ray
    carries, and the four catalog arms are the wing edges at its junctions.
    The two stems differ (the reconnection).  The region axis ("y" vs "x"
    listing) is a heuristic decided on the past side and used on both: the
    y-axis listing is used when the V-shaped wing pairs at both past stem
    junctions open predominantly in y, the x-axis listing otherwise.
    """
    if sol.spec.case is Case.GENERIC:
        raise UnsupportedCaseError("arm catalog requires a resonant case")
    rec = _record(sol)
    if rec.catalog is not None:
        return rec.catalog
    past = _catalog_side(sol, -math.inf)
    future = past and _catalog_side(sol, math.inf, regime=past[2])
    if not future or (past[0].m, past[0].n) == (future[0].m, future[0].n):
        raise InternalConsistencyError(
            "the t -> -inf and t -> +inf skeletons carry no two distinct stems")
    (stem_p, list_p, regime), (stem_f, list_f, _) = past, future
    catalog = AsymptoticCatalog(
        before=list_p, after=list_f,
        stem_past=stem_p.arm, stem_future=stem_f.arm, regime=regime,
        past_junctions=_junctions(sol, stem_p),
        future_junctions=_junctions(sol, stem_f))
    rec.catalog = catalog
    return catalog


def arm_profile(arm: ArmDescriptor, point) -> float:
    """Asymptotic sech^2 profile of one arm at (x, y, t)."""
    x, y, t = point
    A, B, C = arm.line_coeffs(t)
    v = A * np.asarray(x, float) + B * np.asarray(y, float) + C
    # sech^2(v/2) = 4 e^{-|v|} / (1 + e^{-|v|})^2, overflow-safe
    e = np.exp(-np.abs(v))
    val = arm.amplitude * 4.0 * e / (1.0 + e) ** 2
    return float(val) if np.ndim(val) == 0 else val


def trajectory_line(arm: ArmDescriptor, t: float):
    """Line coefficients (A, B, C) of the arm's trajectory at time t,
    normalized to A^2 + B^2 = 1 and A > 0 (or B > 0 when A == 0)."""
    return normalize_line(arm.line_coeffs(t))


def _orientation(A: float, B: float) -> tuple[float, float]:
    """(sign, norm) that scale a line with normal (A, B) to A^2 + B^2 = 1 and
    A > 0 (or B > 0 when A == 0)."""
    nrm = math.hypot(A, B)
    if nrm == 0:
        raise DegenerateLineError("line has zero normal vector")
    sign = 1.0
    if A < -1e-15 * nrm or (abs(A) <= 1e-15 * nrm and B < 0):
        sign = -1.0
    return sign, nrm


def normalize_line(line):
    A, B, C = line
    sign, nrm = _orientation(A, B)
    return (sign * A / nrm, sign * B / nrm, sign * C / nrm)


def _meet(A1, B1, C1, A2, B2, C2, det) -> tuple[float, float]:
    return ((-C1 * B2 + C2 * B1) / det, (-A1 * C2 + A2 * C1) / det)


def _future(t: float) -> bool:
    """Whether t is on the future side; a non-finite t is on neither."""
    if not math.isfinite(t):
        raise DomainError(f"stem queries need a finite time, got t = {t}")
    return bool(t > 0)  # numpy's bool does not index the per-side lists


def stem_side(sol: ResonantSolution,
              t: float) -> tuple[ArmDescriptor, tuple[Junction, Junction]]:
    """The stem species at time t and its two end junctions, sorted.

    The past stem is the one for t <= 0, the future stem for t > 0; a
    non-finite t raises DomainError.
    """
    future = _future(t)
    cat = arm_catalog(sol)
    if future:
        return cat.stem_future, cat.future_junctions
    return cat.stem_past, cat.past_junctions


def _junction_arms(sol: ResonantSolution, rec: _Record, junction: Junction):
    """The arms of the three term pairs of a junction."""
    # the pair order sets the last bits of the endpoints (a line's offset is
    # ln(c_m / c_n), and the stem plan keeps the first best-conditioned
    # pair); the frozenset order is the one the goldens were computed in
    idxs = [rec.index[eps] for eps in frozenset(junction)]
    return [_arm(sol, rec, a, b) for a, b in combinations(idxs, 2)]


@functools.cache
def _vertex_table():
    # imported on the first stem query, so that start-up without a bytecode
    # cache does not compile the table
    from . import _closed_forms
    return _closed_forms.VERTEX


def _closed_form(sol: ResonantSolution, junction: Junction) -> tuple[float, ...]:
    """The coefficients of the junction's VERTEX entry at (k1, k2, k3, p3),
    whose expressions are those of the first branch; each side's stem plan
    reads them once, and no junction ends the stem on both sides."""
    entry = _vertex_table()[sol.spec.case.value].get(junction)
    if entry is None:
        raise InternalConsistencyError(
            f"no closed-form VERTEX entry for {junction} in case {sol.spec.case.value}")
    k1, k2, k3 = sol.params.k
    p3 = sol.params.p[2]
    args = k1, k2, k3, -p3 if sol.spec.branch is Branch.SECOND else p3
    return tuple(f(*args) for f in entry)


# Midpoint budget: u = 2 Var_w(K) over the term weights w_m ~ c_m exp(E_m).
# Moving every exponent E_m by at most d moves Var_w(K) by at most
# d sum_m w_m |(K_m - mean)^2 - Var| <= 2 d Var, so u by at most 2 d u.  tau
# forms E_m = ((K x + P y) + W t) + s in 3 products and 3 sums, so to first
# order d <= 4 u S, u = 2**-53 and S = max_m |K x| + |P y| + |W t| + |s|
# (Higham 2002, section 3.1): the amplitude is good to 8 u S relative, plus
# roundings that do not grow with S.  Within the endpoint check's 1e-9 that
# asks u S <= 1.25e-10.
_MIDPOINT_BUDGET = 1e-9 / 8


def _plan_end(sol: ResonantSolution, rec: _Record, junction: Junction):
    """One end junction of a side's stem, as far as it does not depend on t:
    (det, line1, line2, closed).

    The endpoint is the meeting point of the junction's best-conditioned two
    trajectory lines A x + B y + C(t) = 0, each given as (A, B, W, xi0,
    offset, sign, norm): (A, B) is the normalized normal and C(t) =
    sign (W t + xi0 + offset) / norm, the offset that normalize_line forms;
    parallel lines raise DegenerateLineError.  closed is (xt, x0, yt, y0),
    the closed-form endpoint (xt t + x0, yt t + y0): the junction's VERTEX
    entry with ln a12 multiplied in and y negated on the second branch, plus
    the phase constants' part.  The meeting point is linear in the offsets,
    so that part is where the two lines meet with their xi0 terms alone.
    """
    lines = []
    for arm in _junction_arms(sol, rec, junction):
        sign, nrm = _orientation(arm.A, arm.B)
        lines.append((sign * arm.A / nrm, sign * arm.B / nrm,
                      arm.W, arm.xi0, arm.profile_offset, sign, nrm))
    # the normals do not depend on t, so neither does the best pair
    l1, l2 = max(combinations(lines, 2),
                 key=lambda p: abs(p[0][0] * p[1][1] - p[1][0] * p[0][1]))
    (A1, B1, _, xi1, _, sign1, norm1), (A2, B2, _, xi2, _, sign2, norm2) = l1, l2
    det = A1 * B2 - A2 * B1
    if abs(det) <= 1e-12 * max(math.hypot(A1, B1) * math.hypot(A2, B2), 1e-300):
        raise DegenerateLineError(f"junction lines are parallel: {junction}")
    sx, sy = _meet(A1, B1, sign1 * xi1 / norm1, A2, B2, sign2 * xi2 / norm2, det)
    xt, xL, yt, yL = _closed_form(sol, junction)
    log_a12 = sol.log_a12
    mirror = -1.0 if sol.spec.branch is Branch.SECOND else 1.0
    return det, l1, l2, (xt, xL * log_a12 + sx, mirror * yt, mirror * (yL * log_a12) + sy)


def _plan(sol: ResonantSolution, rec: _Record, t: float):
    """The stem plan of t's side, built on the first query of that side: the
    _plan_end of each end junction."""
    future = _future(t)
    plan = rec.plans[future]
    if plan is None:
        plan = rec.plans[future] = tuple(_plan_end(sol, rec, junction)
                                         for junction in stem_side(sol, t)[1])
    return plan


def _endpoints(plan, t: float):
    """The two stem endpoints at t and their largest relative disagreement
    with the closed form."""
    pts, mismatch = [], 0.0
    for (det, (A1, B1, W1, xi1, offset1, sign1, norm1),
         (A2, B2, W2, xi2, offset2, sign2, norm2), (xt, x0, yt, y0)) in plan:
        geo = gx, gy = _meet(A1, B1, sign1 * (W1 * t + xi1 + offset1) / norm1,
                             A2, B2, sign2 * (W2 * t + xi2 + offset2) / norm2, det)
        x, y = xt * t + x0, yt * t + y0
        err = math.hypot(gx - x, gy - y)
        scale = max(1.0, math.hypot(gx, gy), math.hypot(x, y))
        if not (all(map(math.isfinite, (gx, gy, x, y))) and err <= 1e-9 * scale):
            raise InternalConsistencyError(
                f"closed-form and geometric endpoints disagree: {geo} vs {(x, y)}")
        mismatch = max(mismatch, err / scale)
        pts.append(geo)
    return pts[0], pts[1], mismatch


def _stem_rows(sol: ResonantSolution, rec: _Record, ts):
    """(t, endpoint_a, endpoint_b, midpoint, endpoint_mismatch) per time of ts,
    from the stem plan of its side."""
    if sol.spec.case is Case.GENERIC:
        raise UnsupportedCaseError("stem endpoints require a resonant case")
    rows = []
    for t in ts:
        (xa, ya), (xb, yb), mismatch = _endpoints(_plan(sol, rec, t), t)
        rows.append((t, (xa, ya), (xb, yb), ((xa + xb) / 2.0, (ya + yb) / 2.0), mismatch))
    return rows


def stem_reports(sol: ResonantSolution, ts, t_min: float = 3.0) -> list[StemReport]:
    """The stem report at each time of ts, as stem_endpoints describes it.

    Each time's geometry comes from its side's stem plan; the midpoint
    amplitudes of all times take one u_on_grid call.
    """
    rec = _record(sol)
    rows = _stem_rows(sol, rec, ts)
    amps = u_on_grid(sol.tau, *np.array([mid + (t,) for t, _, _, mid, _ in rows],
                                        dtype=float).reshape(-1, 3).T)
    return [StemReport(t, a, b, math.hypot(a[0] - b[0], a[1] - b[1]), mid, amp,
                       abs(t) >= t_min and _within_budget(rec, mid, t), mismatch)
            for (t, a, b, mid, mismatch), amp in zip(rows, amps.tolist())]


def _within_budget(rec: _Record, mid, t: float) -> bool:
    """Whether rounding of the tau exponents at (mid, t) stays within
    _MIDPOINT_BUDGET."""
    # |K x| is |K| |x| to the bit: rounding is symmetric in sign
    mx, my, mt = abs(mid[0]), abs(mid[1]), abs(t)
    size = max([K * mx + P * my + W * mt + s0 for K, P, W, s0 in rec.sizes])
    return 2.0**-53 * size <= _MIDPOINT_BUDGET


def stem_endpoints(sol: ResonantSolution, t: float, t_min: float = 3.0) -> StemReport:
    """Endpoints, length and midpoint amplitude of the stem at time t.

    The stem is the one stem_side names for t.  Each endpoint is the
    best-conditioned pairwise intersection of the trajectory lines of its
    junction's three term pairs and is checked against the closed-form
    endpoint (see _plan_end); a non-finite endpoint or a disagreement beyond
    1e-9 relative is an internal error, and the largest relative
    disagreement is reported as endpoint_mismatch.  Inside |t| < t_min the
    report carries valid=False (the straight-trajectory description degrades
    near the reconnection), and so does a midpoint so far out that rounding
    of the tau exponents there can move the amplitude by more than 1e-9
    relative.  The one-time case of stem_reports.
    """
    return stem_reports(sol, (t,), t_min)[0]


def stem_length_formula(sol: ResonantSolution, t: float) -> float:
    """Closed-form stem length for the side of t: the distance between the
    closed-form endpoints (xt t + x0, yt t + y0) of the stem's two end
    junctions, read from the side's stem plan."""
    if sol.spec.case is Case.GENERIC:
        raise UnsupportedCaseError("stem length requires a resonant case")
    (*_, (xta, xa0, yta, ya0)), (*_, (xtb, xb0, ytb, yb0)) = _plan(sol, _record(sol), t)
    return math.hypot((xta * t + xa0) - (xtb * t + xb0), (yta * t + ya0) - (ytb * t + yb0))


def even_axis(lo: float, hi: float, n: int) -> np.ndarray:
    """n evenly spaced points from lo to hi.  Where hi - lo overflows, the
    axis is built at half scale and doubled, which is exact."""
    if math.isfinite(hi - lo):
        return np.linspace(lo, hi, n)
    return 2.0 * np.linspace(0.5 * lo, 0.5 * hi, n)


def cross_section(sol: ResonantSolution, t: float, line, s_range=(-20.0, 20.0),
                  n_samples: int = 801, anchor=None):
    """Sample u along a line, parametrized by arclength from the anchor.

    line is an ArmDescriptor or raw (A, B, C) coefficients.  The anchor
    defaults to the stem midpoint at time t (its endpoints checked as in
    stem_endpoints, no u evaluated there); its projection onto the line is
    arclength zero.  Returns a list of (s, u) pairs.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    if isinstance(line, ArmDescriptor):
        line = line.line_coeffs(t)
    A, B, C = normalize_line(line)
    if anchor is None:
        anchor = _stem_rows(sol, _record(sol), (t,))[0][3]
    # foot of the anchor on the line
    d = A * anchor[0] + B * anchor[1] + C
    foot = (anchor[0] - d * A, anchor[1] - d * B)
    direction = (-B, A)
    s = even_axis(s_range[0], s_range[1], n_samples)
    xs = foot[0] + s * direction[0]
    ys = foot[1] + s * direction[1]
    u = u_on_grid(sol.tau, xs, ys, t)
    return list(zip(s.tolist(), np.asarray(u).tolist()))


@dataclass(frozen=True)
class VelocityRow:
    label: str
    hat: bool
    vx: float | None
    vy: float | None
    amplitude: float


def velocity_table(sol: ResonantSolution) -> list[VelocityRow]:
    """Amplitude and intercept-velocity pair of every arm/stem species.

    The x entry is the speed of the trajectory's intersection with a fixed
    horizontal line (-W/A), the y entry with a fixed vertical line (-W/B);
    a vanishing normal component makes that entry undefined (None).
    """
    rows = {}
    for arm in arm_catalog(sol).species:
        key = (arm.label, arm.hat)
        if key not in rows:
            rows[key] = VelocityRow(arm.label_str(hat_mark=False), arm.hat, *arm.velocity,
                                    arm.amplitude)
    return [rows[k] for k in sorted(rows, key=lambda kk: (len(kk[0]), kk[0], kk[1]))]


def find_arm(sol: ResonantSolution, label, hat: bool | None = None) -> ArmDescriptor:
    """Look up an arm/stem descriptor among the catalog species by its label
    tuple, or by the text label_str prints for it ("3", "1+3", "1+2-3^"):
    surrounding spaces are ignored, and a trailing ^ means hat=True unless
    hat is given."""
    text = isinstance(label, str)
    if text:
        label = label.strip()
        hat = label.endswith("^") if hat is None else hat
        label = label.removesuffix("^")
    else:
        label = tuple(label)
    for arm in arm_catalog(sol).species:
        if ((arm.label_str(hat_mark=False) if text else arm.label) == label
                and (hat is None or arm.hat == hat)):
            return arm
    raise KeyError(f"no arm with label {label} (hat={hat}) in this catalog")
