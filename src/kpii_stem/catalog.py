"""Construction of resonant three-soliton solutions.

Each solution u = 2 (ln f)_xx is built from three wave numbers k = (k1, k2, k3)
and a single free transverse parameter p3; the remaining p1, p2 are resolved
from the selected resonance case so that the pairwise interaction coefficients
a_ij (see aij_factors) reach the case's limits (0 for weak, infinity for strong
resonance) exactly on the constraint manifold.  The surviving finite coefficient
a12 has a closed form per case, identical for both constraint branches.  The two
branches map onto each other by the mirror (p3, y) -> (-p3, -y).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .errors import (
    DegenerateParameterError,
    DomainError,
    InadmissibleParameterError,
    IndeterminateResonanceError,
)
from .tau import ExpSumTau, ExpTerm

Triple = tuple[float, float, float]


class Case(str, Enum):
    GENERIC = "generic"
    C2_1 = "c2_1"
    C2_2 = "c2_2"
    C2_3 = "c2_3"
    C2_4 = "c2_4"
    W2 = "w2"
    M2 = "m2"
    C3_1 = "c3_1"
    C3_2 = "c3_2"


class Branch(str, Enum):
    FIRST = "first"
    SECOND = "second"


class ResonanceKind(str, Enum):
    ELASTIC = "elastic"
    STRONG = "strong"
    WEAK = "weak"
    MIXED = "mixed"


class _Infinite:
    """Distinguished return value of phase_shift_param for a_ij -> infinity."""

    def __repr__(self):
        return "INFINITE"


INFINITE = _Infinite()


@dataclass(frozen=True)
class CaseSpec:
    case: Case
    branch: Branch = Branch.FIRST


@dataclass(frozen=True)
class SolitonParams:
    k: Triple
    p: Triple
    xi0: Triple = (0.0, 0.0, 0.0)
    # omega(k_j, p_j) per soliton, computed once on construction: the
    # exponent sums read them for every tau term, plane and arm of a solution
    omegas: Triple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for kj in self.k:
            if kj == 0 or not math.isfinite(kj):
                raise DegenerateParameterError(f"k must be finite nonzero, got {self.k}")
        for v in self.p + self.xi0:
            if not math.isfinite(v):
                raise DomainError("non-finite parameter")
        try:
            omegas = tuple(omega(kj, pj) for kj, pj in zip(self.k, self.p))
        except OverflowError:  # k**4 beyond the float range
            omegas = (math.inf,)
        if not all(map(math.isfinite, omegas)):
            raise InadmissibleParameterError(
                f"omega is not finite for k = {self.k}, p = {self.p}")
        object.__setattr__(self, "omegas", omegas)


@dataclass(frozen=True)
class ResonanceClass:
    kinds: dict[tuple[int, int], ResonanceKind]
    a12: float | None


@dataclass(frozen=True, eq=False)
class ResonantSolution:
    params: SolitonParams
    spec: CaseSpec
    tau: ExpSumTau
    resonance: ResonanceClass
    # per tau term: exponent vector over (xi1, xi2, xi3) and its coefficient
    template: tuple[tuple[tuple[int, int, int], float], ...]

    @property
    def a12(self) -> float | None:
        return self.resonance.a12

    @property
    def log_a12(self) -> float:
        return math.log(self.resonance.a12) if self.resonance.a12 else 0.0

    def exponent_of(self, eps) -> tuple[float, float, float, float]:
        """(K, P, W, xi0-part) of the template direction eps."""
        return _exponent_sums(self.params, eps)


def _exponent_sums(params: SolitonParams, eps) -> tuple[float, float, float, float]:
    # summed from 0 in soliton order
    (k1, k2, k3), (p1, p2, p3) = params.k, params.p
    (w1, w2, w3), (s1, s2, s3) = params.omegas, params.xi0
    e1, e2, e3 = eps
    return (0 + e1 * k1 + e2 * k2 + e3 * k3, 0 + e1 * p1 + e2 * p2 + e3 * p3,
            0 + e1 * w1 + e2 * w2 + e3 * w3, 0 + e1 * s1 + e2 * s2 + e3 * s3)


def omega(k: float, p: float) -> float:
    """Temporal frequency -(k^4 + 3 p^2)/k of a single line soliton."""
    if k == 0:
        raise DegenerateParameterError("omega undefined for k = 0")
    return -(k**4 + 3.0 * p * p) / k


def aij_factors(ki, pi, kj, pj):
    """Factor pairs (num, den) of a_ij = num / den, and the operand size S.

    num = (m (ki - kj) - c)(m (ki - kj) + c), den = (m (ki + kj) - c)(m (ki + kj) + c)
    with m = ki kj, c = kj pi - ki pj; S = |m| (|ki| + |kj|) + |kj pi| + |ki pj|.
    """
    m = ki * kj
    c = kj * pi - ki * pj
    size = abs(m) * (abs(ki) + abs(kj)) + abs(kj * pi) + abs(ki * pj)
    md, ms = m * (ki - kj), m * (ki + kj)
    return (md - c, md + c), (ms - c, ms + c), size


def aij_value(num, den) -> float:
    """a_ij from its factor pairs, one quotient per pair, which stays finite
    and nonzero where the product of two factors underflows."""
    return (num[0] / den[0]) * (num[1] / den[1])


# Zero test: each factor sums the signed products m ki, m kj, kj pi, ki pj.
# From exact k, p3, a pair (i, 3) takes kj pi = m ki + m kj + ki pj through the
# 5 roundings of pi's constraint formula and 3 in aij_factors, and m ki, m kj,
# ki pj directly through 4, 4 and 3: to first order an exact zero computes to
# at most 12 u |m| (|ki| + |kj|) + 9 u |ki pj| <= 12 u S, u = 2**-53 (Higham
# 2002, section 3.1); for the pair (1, 2) only while pi's terms do not cancel.
def phase_shift_param(ki, pi, kj, pj):
    """Pairwise interaction coefficient a_ij (0, positive real, or INFINITE)."""
    if ki == 0 or kj == 0:
        raise DegenerateParameterError("phase shift undefined for zero wave number")
    num, den, size = aij_factors(ki, pi, kj, pj)
    num_zero, den_zero = (min(map(abs, f)) <= 12 * 2.0**-53 * size for f in (num, den))
    if num_zero and den_zero:
        raise IndeterminateResonanceError(
            f"numerator and denominator both vanish for ({ki}, {pi}), ({kj}, {pj})")
    if num_zero or den_zero:
        return INFINITE if den_zero else 0.0
    a = aij_value(num, den)
    if a < 0:
        raise InadmissibleParameterError(
            f"negative interaction coefficient a = {a} for ({ki}, {pi}), ({kj}, {pj})")
    return a


# First-branch (p1, p2) per case family.  The second branch is the mirror
# (p3, y) -> (-p3, -y): resolve_constraints evaluates the family at -p3 and
# negates both results.
def _strong(k1, k2, k3, p3):
    return (k1 * (k1 * k3 + k3**2 + p3) / k3, -k2 * (k2 * k3 + k3**2 - p3) / k3)


def _weak(k1, k2, k3, p3):
    return (-k1 * (k1 * k3 - k3**2 - p3) / k3, k2 * (k2 * k3 - k3**2 + p3) / k3)


def _mixed(k1, k2, k3, p3):
    return (k1 * (k1 * k3 + k3**2 + p3) / k3, k2 * (k2 * k3 - k3**2 + p3) / k3)


def _all_weak(k1, k2, k3, p3):
    return (-k1 * (k1 * k3 - k3**2 - p3) / k3, -k2 * (k2 * k3 - k3**2 - p3) / k3)


def _mixed3(k1, k2, k3, p3):
    return (-k1 * (k1 * k3 + k3**2 - p3) / k3, -k2 * (k2 * k3 + k3**2 - p3) / k3)


CONSTRAINTS = {
    Case.C2_1: _strong, Case.C2_2: _strong, Case.C2_3: _strong, Case.C2_4: _strong,
    Case.W2: _weak, Case.M2: _mixed, Case.C3_1: _all_weak, Case.C3_2: _mixed3,
}

_KINDS = {
    _strong: {(1, 2): ResonanceKind.ELASTIC, (1, 3): ResonanceKind.STRONG,
              (2, 3): ResonanceKind.STRONG},
    _weak: {(1, 2): ResonanceKind.ELASTIC, (1, 3): ResonanceKind.WEAK,
            (2, 3): ResonanceKind.WEAK},
    _mixed: {(1, 2): ResonanceKind.ELASTIC, (1, 3): ResonanceKind.STRONG,
             (2, 3): ResonanceKind.WEAK},
    _all_weak: {(1, 2): ResonanceKind.WEAK, (1, 3): ResonanceKind.WEAK,
                (2, 3): ResonanceKind.WEAK},
    _mixed3: {(1, 2): ResonanceKind.WEAK, (1, 3): ResonanceKind.STRONG,
              (2, 3): ResonanceKind.STRONG},
}


def a12_closed_form(case: Case, k: Triple) -> float | None:
    """Surviving interaction coefficient; None for the fully resonant cases."""
    k1, k2, k3 = k
    family = CONSTRAINTS.get(case)
    if family is _strong:
        den = k3 * (k1 + k2 + k3)
        if den == 0:
            raise DegenerateParameterError("a12 denominator k3 (k1 + k2 + k3) vanishes")
        return (k1 + k3) * (k2 + k3) / den
    if family is _weak:
        den = k3 * (k1 + k2 - k3)
        if den == 0:
            raise DegenerateParameterError("a12 denominator k3 (k1 + k2 - k3) vanishes")
        return -(k1 - k3) * (k2 - k3) / den
    if family is _mixed:
        den = (k1 + k3) * (k2 - k3)
        if den == 0:
            raise DegenerateParameterError("a12 denominator (k1 + k3)(k2 - k3) vanishes")
        return -k3 * (k1 - k2 + k3) / den
    return None


# tau templates: term exponent vectors over (xi1, xi2, xi3); starred terms
# carry the coefficient a12
A12 = "a12"
TEMPLATES: dict[Case, tuple[tuple[tuple[int, int, int], object], ...]] = {
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


def resolve_constraints(k, p3: float, spec: CaseSpec, xi0=(0.0, 0.0, 0.0)) -> SolitonParams:
    """Fill p1, p2 from the case's constraint pair and validate a12."""
    if spec.case is Case.GENERIC:
        raise DegenerateParameterError(
            "generic solutions take explicit p1, p2 via make_generic")
    k = tuple(map(float, k))
    if len(k) != 3:
        raise DomainError("k must have three components")
    if k[2] == 0:
        raise DegenerateParameterError("constraints require k3 != 0")
    p3 = float(p3)
    constraint = CONSTRAINTS[spec.case]
    try:
        p1, p2 = (constraint(*k, p3) if spec.branch is Branch.FIRST
                  else (-p for p in constraint(*k, -p3)))
    except OverflowError:  # k3**2 beyond the float range
        p1 = p2 = math.inf
    # finite k, p3 whose p1 or p2 overflows are inadmissible, as an overflowing
    # omega is; non-finite k, p3 are rejected by SolitonParams
    if all(map(math.isfinite, k + (p3,))) and not all(map(math.isfinite, (p1, p2))):
        raise InadmissibleParameterError(
            f"resolved p1 = {p1}, p2 = {p2} are not finite for k = {k}, p3 = {p3}")
    a12 = a12_closed_form(spec.case, k)
    if a12 is not None:
        if not math.isfinite(a12):
            raise DegenerateParameterError(f"a12 = {a12} is not finite")
        if a12 <= 0:
            raise InadmissibleParameterError(
                f"case {spec.case.value} requires 0 < a12 < inf, got a12 = {a12}")
    return SolitonParams(k=k, p=(p1, p2, p3), xi0=tuple(map(float, xi0)))


def _pair_coefficients(params: SolitonParams):
    """(pair, a_ij) for the three pairs in order, each computed when reached."""
    k, p = params.k, params.p
    for i, j in ((1, 2), (1, 3), (2, 3)):
        yield (i, j), phase_shift_param(k[i - 1], p[i - 1], k[j - 1], p[j - 1])


def _generic_class(a: dict) -> ResonanceClass:
    kinds = {pair: ResonanceKind.STRONG if aij is INFINITE
             else ResonanceKind.WEAK if aij == 0 else ResonanceKind.ELASTIC
             for pair, aij in a.items()}
    a12 = a[(1, 2)]
    return ResonanceClass(kinds, a12 if isinstance(a12, float) and a12 > 0 else None)


def classify_resonance(params: SolitonParams, spec: CaseSpec) -> ResonanceClass:
    """Per-pair resonance kinds plus the surviving a12 (None when absent)."""
    if spec.case is Case.GENERIC:
        return _generic_class(dict(_pair_coefficients(params)))
    return ResonanceClass(kinds=dict(_KINDS[CONSTRAINTS[spec.case]]),
                          a12=a12_closed_form(spec.case, params.k))


def _make_tau(params: SolitonParams, template) -> ExpSumTau:
    # ExpTerm's fields after coeff are (kx, py, wt, phase) = (K, P, W, xi0-part)
    return ExpSumTau(tuple(ExpTerm(float(coeff), *_exponent_sums(params, eps))
                           for eps, coeff in template))


def build_solution(params: SolitonParams, spec: CaseSpec) -> ResonantSolution:
    """Instantiate the case's tau template at resolved parameters."""
    if spec.case is Case.GENERIC:
        raise DegenerateParameterError("use make_generic for the generic case")
    resonance = classify_resonance(params, spec)
    a12 = resonance.a12
    template = tuple(
        (eps, a12 if coeff is A12 else float(coeff))
        for eps, coeff in TEMPLATES[spec.case])
    return ResonantSolution(params=params, spec=spec,
                            tau=_make_tau(params, template),
                            resonance=resonance, template=template)


def build_case(case, k, p3, branch=Branch.FIRST, xi0=(0.0, 0.0, 0.0)) -> ResonantSolution:
    """Resolve constraints and build in one step."""
    spec = CaseSpec(Case(case), Branch(branch))
    return build_solution(resolve_constraints(k, p3, spec, xi0), spec)


def make_generic(k, p, xi0=(0.0, 0.0, 0.0), xi_shift=(0.0, 0.0, 0.0)) -> ResonantSolution:
    """Eight-term solution with explicit (p1, p2, p3); all a_ij must be finite.

    xi_shift adds constant offsets to the phases xi_j (used by the resonant
    limit studies, which recentre diverging coefficients before the limit).
    """
    params = SolitonParams(k=tuple(float(v) for v in k),
                           p=tuple(float(v) for v in p),
                           xi0=tuple(float(a) + float(b) for a, b in zip(xi0, xi_shift)))
    a = {}
    for (i, j), aij in _pair_coefficients(params):
        if aij is INFINITE:
            raise DegenerateParameterError(
                f"a{i}{j} is infinite; the generic template requires finite coefficients")
        a[(i, j)] = aij
    template = (
        ((0, 0, 0), 1.0), ((1, 0, 0), 1.0), ((0, 1, 0), 1.0), ((0, 0, 1), 1.0),
        ((1, 1, 0), a[(1, 2)]), ((1, 0, 1), a[(1, 3)]), ((0, 1, 1), a[(2, 3)]),
        ((1, 1, 1), a[(1, 2)] * a[(1, 3)] * a[(2, 3)]),
    )
    return ResonantSolution(params=params, spec=CaseSpec(Case.GENERIC),
                            tau=_make_tau(params, template),
                            resonance=_generic_class(a), template=template)
