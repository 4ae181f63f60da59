"""Analytic geometry of soliton arms and variable-length stems.

At fixed t the dominance regions of the tau terms partition the plane: term m
wins where psi_m(x, y) = K_m x + P_m y + W_m t + ln c_m + s_m is maximal.  The
solution u concentrates on the boundaries of this max-plus (tropical) skeleton:
along the boundary of terms m and n it is locally the sech^2 ridge

    u ~ ((K_m - K_n)^2 / 2) sech^2((psi_m - psi_n)/2),

so every arm, every junction and the bounded stem segment can be read off the
skeleton exactly.  Arms are the unbounded edges, the stem is the bounded edge,
and its endpoints are triple points of the skeleton.  The same endpoints are
also evaluated through closed-form coefficient tables (derived offline in
exact arithmetic, see tools/generate_closed_forms.py); the two paths are
cross-checked on every call.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from enum import Enum
from itertools import combinations

import numpy as np

from . import _closed_forms
from .catalog import Branch, Case, ResonantSolution
from .errors import (
    DegenerateLineError,
    DomainError,
    InternalConsistencyError,
    UnsupportedCaseError,
    UnsupportedFormulaError,
)
from .tau import u_on_grid

Eps = tuple[int, int, int]
# a triple point of three tau terms: their exponent vectors, sorted (the key
# format of the closed-form VERTEX tables)
Junction = tuple[Eps, Eps, Eps]


class Region(str, Enum):
    Y_NEG = "y-"
    Y_POS = "y+"
    X_NEG = "x-"
    X_POS = "x+"


class _Parallel:
    def __repr__(self):
        return "PARALLEL"


PARALLEL = _Parallel()


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
    endpoint_mismatch: float | None     # closed form vs intersection, err/scale


@dataclass(frozen=True)
class Edge:
    """Realized skeleton edge: terms m, n tie on base + s * direction for lo < s
    < hi, cut off by terms lo_bind / hi_bind; arm is the edge's ridge species."""

    m: int
    n: int
    lo: float
    hi: float
    lo_bind: int | None
    hi_bind: int | None
    base: tuple[float, float]
    direction: tuple[float, float]
    arm: ArmDescriptor

    @property
    def bounded(self):
        return math.isfinite(self.lo) and math.isfinite(self.hi)

    def point(self, s: float) -> tuple[float, float]:
        return (self.base[0] + s * self.direction[0],
                self.base[1] + s * self.direction[1])


class _Record:
    """The t-independent state of one solution, built once: per positive term
    (index, K, P, W, xi0-part, ln c), the term index of each exponent vector,
    the pair arms as _arm_from_terms builds them, and the arm catalog."""

    __slots__ = ("planes", "index", "arms", "catalog")

    def __init__(self, sol: ResonantSolution):
        self.planes = tuple((idx, *sol.exponent_of(eps), math.log(coeff))
                            for idx, (eps, coeff) in enumerate(sol.template)
                            if coeff > 0)
        self.index = {eps: i for i, (eps, _) in enumerate(sol.template)}
        self.arms: dict[tuple[int, int], ArmDescriptor] = {}
        self.catalog: AsymptoticCatalog | None = None


# one record per solution, freed together with it (it holds no reference back)
_RECORDS = weakref.WeakKeyDictionary()


def _record(sol: ResonantSolution) -> _Record:
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


def term_planes(sol: ResonantSolution, t: float) -> list[tuple[int, float, float, float]]:
    """(index, K, P, W t + s0 + ln c) of psi_m = K x + P y + W t + s0 + ln c
    for each term with positive coefficient.  At t = -inf or +inf the constant
    is W sign(t): the limit of psi_m / |t| in the coordinates x/|t|, y/|t|."""
    return [(idx, K, P, math.copysign(1.0, t) * W if math.isinf(t) else W * t + s0 + lnc)
            for idx, K, P, W, s0, lnc in _record(sol).planes]


def skeleton(sol: ResonantSolution, t: float) -> list[Edge]:
    """Realized dominance-boundary edges of the tau function at time t.

    t = -inf or +inf gives the limit skeleton (see term_planes): ln c_m and
    xi0 drop out, and every edge that does not grow with |t| shrinks to a point.
    """
    rec = _record(sol)
    planes = term_planes(sol, t)
    edges = []
    for a in range(len(planes)):
        for b in range(a + 1, len(planes)):
            ia, Ka, Pa, ca = planes[a]
            ib, Kb, Pb, cb = planes[b]
            dK, dP, dc = Ka - Kb, Pa - Pb, ca - cb
            nrm = math.hypot(dK, dP)
            if nrm < 1e-13:
                continue
            base = (-dc * dK / nrm**2, -dc * dP / nrm**2)
            direction = (-dP / nrm, dK / nrm)
            lo, hi = -math.inf, math.inf
            lo_bind = hi_bind = None
            empty = False
            for c in range(len(planes)):
                if c in (a, b):
                    continue
                ic, Kc, Pc, cc = planes[c]
                alpha = ((Ka - Kc) * base[0] + (Pa - Pc) * base[1] + (ca - cc))
                beta = (Ka - Kc) * direction[0] + (Pa - Pc) * direction[1]
                if abs(beta) < 1e-13 * (1 + abs(Ka - Kc) + abs(Pa - Pc)):
                    if alpha < 0:
                        empty = True
                        break
                    continue
                bound = -alpha / beta
                if beta > 0:
                    if bound > lo:
                        lo, lo_bind = bound, ic
                else:
                    if bound < hi:
                        hi, hi_bind = bound, ic
            if empty:
                continue
            if (math.isfinite(lo) and math.isfinite(hi)
                    and lo >= hi - 1e-9 * (1 + abs(lo) + abs(hi))):
                continue
            edges.append(Edge(m=ia, n=ib, lo=lo, hi=hi, lo_bind=lo_bind,
                              hi_bind=hi_bind, base=base, direction=direction,
                              arm=_arm(sol, rec, ia, ib)))
    return edges


def _arm_from_terms(sol: ResonantSolution, m: int, n: int) -> ArmDescriptor:
    eps_m, c_m = sol.template[m]
    eps_n, c_n = sol.template[n]
    diff = tuple(a - b for a, b in zip(eps_m, eps_n))
    offset = math.log(c_m / c_n)
    lead = next(d for d in diff if d != 0)
    if lead < 0:
        diff = tuple(-d for d in diff)
        offset = -offset
    label = tuple(j * diff[j - 1] for j in (1, 2, 3) if diff[j - 1] != 0)
    K, P, W, s0 = sol.exponent_of(diff)
    return ArmDescriptor(label=label, hat=abs(offset) > 1e-14,
                         amplitude=K * K / 2.0, profile_offset=offset,
                         A=K, B=P, W=W, xi0=s0)


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
    """The arm edges at each stem junction, with outward directions."""
    out = []
    for bind, s_end in ((stem.lo_bind, stem.lo), (stem.hi_bind, stem.hi)):
        junction = frozenset((stem.m, stem.n, bind))
        vertex = stem.point(s_end)
        side = []
        for e in edges:
            pair = frozenset((e.m, e.n))
            if pair < junction and pair != frozenset((stem.m, stem.n)):
                # outward = away from the stem junction along the wing
                def _dist(s):
                    if not math.isfinite(s):
                        return math.inf
                    p = e.point(s)
                    return math.hypot(p[0] - vertex[0], p[1] - vertex[1])
                d = e.direction if _dist(e.lo) <= _dist(e.hi) else (
                    -e.direction[0], -e.direction[1])
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
        bis_y = []
        for side in wings:
            bx = sum(d[0] for _, d in side)
            by = sum(d[1] for _, d in side)
            bis_y.append(abs(by) >= abs(bx))
        regime = "y" if all(bis_y) else "x"
    listing = []
    for side in wings:
        for e, d in side:
            comp = d[1] if regime == "y" else d[0]
            if regime == "y":
                region = Region.Y_POS if comp > 0 else Region.Y_NEG
            else:
                region = Region.X_POS if comp > 0 else Region.X_NEG
            listing.append((region, e.arm))
    listing.sort(key=lambda ra: (ra[0].value, ra[1].label, ra[1].hat))
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


def normalize_line(line):
    A, B, C = line
    nrm = math.hypot(A, B)
    if nrm == 0:
        raise DegenerateLineError("line has zero normal vector")
    sign = 1.0
    if A < -1e-15 * nrm or (abs(A) <= 1e-15 * nrm and B < 0):
        sign = -1.0
    return (sign * A / nrm, sign * B / nrm, sign * C / nrm)


def intersect_lines(l1, l2):
    """Intersection point of two lines, or PARALLEL."""
    A1, B1, C1 = l1
    A2, B2, C2 = l2
    det = A1 * B2 - A2 * B1
    scale = math.hypot(A1, B1) * math.hypot(A2, B2)
    if abs(det) <= 1e-12 * max(scale, 1e-300):
        return PARALLEL
    x = (-C1 * B2 + C2 * B1) / det
    y = (-A1 * C2 + A2 * C1) / det
    return (x, y)


def stem_side(sol: ResonantSolution,
              t: float) -> tuple[ArmDescriptor, tuple[Junction, Junction]]:
    """The stem species at time t and its two end junctions, sorted.

    The past stem is the one for t <= 0, the future stem for t > 0.
    """
    cat = arm_catalog(sol)
    if t <= 0:
        return cat.stem_past, cat.past_junctions
    return cat.stem_future, cat.future_junctions


def junction_lines(sol: ResonantSolution, junction: Junction, t: float):
    """Normalized trajectory lines of the three term pairs of a junction at
    time t; the three lines meet in the junction point."""
    rec = _record(sol)
    # the pair order sets the last bits of the endpoints (a line's offset is
    # ln(c_m / c_n), and stem_endpoints keeps the first best-conditioned
    # pair); the frozenset order is the one the goldens were computed in
    idxs = [rec.index[eps] for eps in frozenset(junction)]
    return [trajectory_line(_arm(sol, rec, a, b), t)
            for a, b in combinations(idxs, 2)]


def _closed_form_args(sol: ResonantSolution):
    """(k1, k2, k3, p3) for the generated tables, whose expressions are those
    of the first branch; None where they do not apply (phase constants)."""
    if any(abs(v) > 0 for v in sol.params.xi0):
        return None
    k1, k2, k3 = sol.params.k
    p3 = sol.params.p[2]
    return k1, k2, k3, -p3 if sol.spec.branch is Branch.SECOND else p3


# Midpoint budget: u = 2 Var_w(K) over the term weights w_m ~ c_m exp(E_m).
# Moving every exponent E_m by at most d moves Var_w(K) by at most
# d sum_m w_m |(K_m - mean)^2 - Var| <= 2 d Var, so u by at most 2 d u.  tau
# forms E_m = ((K x + P y) + W t) + s in 3 products and 3 sums, so to first
# order d <= 4 u S, u = 2**-53 and S = max_m |K x| + |P y| + |W t| + |s|
# (Higham 2002, section 3.1): the amplitude is good to 8 u S relative, plus
# roundings that do not grow with S.  Within the endpoint check's 1e-9 that
# asks u S <= 1.25e-10.
_MIDPOINT_BUDGET = 1e-9 / 8


def stem_endpoints(sol: ResonantSolution, t: float, t_min: float = 3.0) -> StemReport:
    """Endpoints, length and midpoint amplitude of the stem at time t.

    The stem is the one stem_side names for t.  Each endpoint is the
    best-conditioned pairwise intersection of its junction_lines and is
    checked against the closed-form VERTEX tables; a disagreement beyond 1e-9
    relative is an internal error, and the largest relative disagreement is
    reported as endpoint_mismatch (None with nonzero phase constants, where
    the tables do not apply and a non-finite endpoint raises DomainError).
    Inside |t| < t_min the report carries valid=False (the
    straight-trajectory description degrades near the reconnection), and so
    does a midpoint so far out that rounding of the tau exponents there can
    move the amplitude by more than 1e-9 relative.
    """
    if sol.spec.case is Case.GENERIC:
        raise UnsupportedCaseError("stem endpoints require a resonant case")
    _, junctions = stem_side(sol, t)
    args = _closed_form_args(sol)
    table = _closed_forms.VERTEX[sol.spec.case.value]
    pts, mismatch = [], None
    for junction in junctions:
        pair = max(combinations(junction_lines(sol, junction, t), 2),
                   key=lambda p: abs(p[0][0] * p[1][1] - p[1][0] * p[0][1]))
        geo = intersect_lines(*pair)
        if geo is PARALLEL:
            raise DegenerateLineError(f"junction lines are parallel: {junction}")
        if args is not None:
            xt, xL, yt, yL = table[junction](*args)
            x, y = xt * t + xL * sol.log_a12, yt * t + yL * sol.log_a12
            closed = (x, -y) if sol.spec.branch is Branch.SECOND else (x, y)
            err = math.hypot(geo[0] - closed[0], geo[1] - closed[1])
            scale = max(1.0, math.hypot(*geo), math.hypot(*closed))
            if not (all(map(math.isfinite, geo + closed)) and err <= 1e-9 * scale):
                raise InternalConsistencyError(
                    f"closed-form and geometric endpoints disagree: {geo} vs {closed}")
            mismatch = max(mismatch or 0.0, err / scale)
        elif not all(map(math.isfinite, geo)):
            raise DomainError(f"stem endpoint {geo} is not finite at t = {t}")
        pts.append(geo)
    (xa, ya), (xb, yb) = pts
    mid = ((xa + xb) / 2.0, (ya + yb) / 2.0)
    amp = float(u_on_grid(sol.tau, mid[0], mid[1], t))
    size = max(abs(K * mid[0]) + abs(P * mid[1]) + abs(W * t) + abs(s0)
               for _, K, P, W, s0, _ in _record(sol).planes)
    return StemReport(t=t, endpoint_a=(xa, ya), endpoint_b=(xb, yb),
                      length=math.hypot(xa - xb, ya - yb), midpoint=mid,
                      midpoint_amplitude=amp,
                      valid=abs(t) >= t_min and 2.0**-53 * size <= _MIDPOINT_BUDGET,
                      endpoint_mismatch=mismatch)


def stem_length_formula(sol: ResonantSolution, t: float) -> float:
    """Closed-form stem length |s_t t + s_L ln a12| sqrt(g) for the side of t."""
    if sol.spec.case is Case.GENERIC:
        raise UnsupportedCaseError("stem length requires a resonant case")
    args = _closed_form_args(sol)
    if args is None:
        raise UnsupportedFormulaError("closed forms assume zero phase constants")
    ja, jb = (set(j) for j in stem_side(sol, t)[1])
    # the stem is the edge both junctions share, ended by the other two terms
    key = (tuple(sorted(ja & jb)), tuple(sorted(ja ^ jb)))
    st, sL, g = _closed_forms.SEGMENT[sol.spec.case.value][key](*args)
    return abs(st * t + sL * sol.log_a12) * math.sqrt(g)


def midpoint_amplitude(sol: ResonantSolution, t: float) -> float:
    """u at the stem midpoint (approximates the stem amplitude for |t| >> 0)."""
    return stem_endpoints(sol, t).midpoint_amplitude


def cross_section(sol: ResonantSolution, t: float, line, s_range=(-20.0, 20.0),
                  n_samples: int = 801, anchor=None):
    """Sample u along a line, parametrized by arclength from the anchor.

    line is an ArmDescriptor or raw (A, B, C) coefficients.  The anchor
    defaults to the stem midpoint at time t; its projection onto the line is
    arclength zero.  Returns a list of (s, u) pairs.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    if isinstance(line, ArmDescriptor):
        line = line.line_coeffs(t)
    A, B, C = normalize_line(line)
    if anchor is None:
        anchor = stem_endpoints(sol, t).midpoint
    # foot of the anchor on the line
    d = A * anchor[0] + B * anchor[1] + C
    foot = (anchor[0] - d * A, anchor[1] - d * B)
    direction = (-B, A)
    s = np.linspace(s_range[0], s_range[1], n_samples)
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
        if key in rows:
            continue
        vx, vy = arm.velocity
        rows[key] = VelocityRow(label=arm.label_str(hat_mark=False), hat=arm.hat,
                                vx=vx, vy=vy, amplitude=arm.amplitude)
    return [rows[k] for k in sorted(rows, key=lambda kk: (len(kk[0]), kk[0], kk[1]))]


def parse_arm_label(text: str) -> tuple[tuple[int, ...], bool]:
    """Parse labels like "3", "1+3", "1+2-3", "1+2+3^" (trailing ^ = hat)."""
    text = text.strip()
    hat = text.endswith("^")
    if hat:
        text = text[:-1]
    out = []
    sign, num = 1, ""
    for ch in text + "+":
        if ch in "+-":
            if num:
                out.append(sign * int(num))
            sign = -1 if ch == "-" else 1
            num = ""
        elif ch.isdigit():
            num += ch
        else:
            raise ValueError(f"invalid arm label: {text!r}")
    if not out:
        raise ValueError(f"invalid arm label: {text!r}")
    return tuple(out), hat


def find_arm(sol: ResonantSolution, label, hat: bool | None = None) -> ArmDescriptor:
    """Look up an arm/stem descriptor by label among the catalog species."""
    if isinstance(label, str):
        label, hat_parsed = parse_arm_label(label)
        hat = hat_parsed if hat is None else hat
    for arm in arm_catalog(sol).species:
        if arm.label == tuple(label) and (hat is None or arm.hat == hat):
            return arm
    raise KeyError(f"no arm with label {label} (hat={hat}) in this catalog")
