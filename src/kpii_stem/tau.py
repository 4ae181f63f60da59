"""Exponential-sum tau functions and exact evaluation of u = 2 (ln f)_xx.

A tau function is a finite sum f = sum_m c_m exp(kx_m x + py_m y + wt_m t + s_m)
with nonnegative coefficients.  Everything observable is a ratio of term-wise
sums, so the evaluation rescales by the largest exponent: with
r_m = c_m exp(E_m - M), M = max E_m, the moments

    mu_beta = (d^beta f) / f = sum_m kx_m^bx py_m^by wt_m^bt r_m / sum_m r_m

are weighted averages and stay well conditioned for exponents of order 1e3.
Derivatives of ln f are recovered from the moments through the standard
moment/cumulant recursion, which keeps every partial of u exact to rounding
(no finite differencing anywhere in the production path).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DomainError, UnsupportedDerivativeError

MultiIndex = tuple[int, int, int]

# supported u-derivative orders: total <= 4 with x <= 4, y <= 2, t <= 1
_MAX_X, _MAX_Y, _MAX_T, _MAX_TOTAL = 4, 2, 1, 4


@dataclass(frozen=True)
class ExpTerm:
    """One term c * exp(kx*x + py*y + wt*t + phase) of a tau function."""

    coeff: float
    kx: float
    py: float
    wt: float
    phase: float = 0.0

    def __post_init__(self):
        vals = (self.coeff, self.kx, self.py, self.wt, self.phase)
        if not all(math.isfinite(v) for v in vals):
            raise DomainError(f"non-finite term field: {vals}")
        if self.coeff < 0:
            raise DomainError(f"negative term coefficient: {self.coeff}")


@dataclass(frozen=True)
class ExpSumTau:
    """Immutable exponential sum with at least one strictly positive term.

    Terms sharing an exponent direction (kx, py, wt) are merged at
    construction; the merged coefficient absorbs the phase offsets.
    """

    terms: tuple[ExpTerm, ...]

    def __post_init__(self):
        if not self.terms:
            raise DomainError("tau requires at least one term")
        merged = _merge_terms(self.terms)
        if not any(t.coeff > 0 for t in merged):
            raise DomainError("tau requires at least one positive coefficient")
        object.__setattr__(self, "terms", merged)

    def __len__(self):
        return len(self.terms)


@dataclass(frozen=True)
class FieldSample:
    """Value of u at a point, optionally with requested partial derivatives."""

    u: float
    partials: Mapping[MultiIndex, float] | None = None


def _merge_terms(terms: Sequence[ExpTerm]) -> tuple[ExpTerm, ...]:
    groups: dict[tuple[float, float, float], list[ExpTerm]] = {}
    order: list[tuple[float, float, float]] = []
    for term in terms:
        key = (term.kx, term.py, term.wt)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(term)
    out = []
    for key in order:
        group = groups[key]
        if len(group) == 1:
            out.append(group[0])
            continue
        pmax = max(t.phase for t in group)
        coeff = sum(t.coeff * math.exp(t.phase - pmax) for t in group)
        out.append(ExpTerm(coeff, *key, phase=pmax))
    return tuple(out)


def _term_arrays(tau: ExpSumTau):
    coeff = np.array([t.coeff for t in tau.terms])
    kx = np.array([t.kx for t in tau.terms])
    py = np.array([t.py for t in tau.terms])
    wt = np.array([t.wt for t in tau.terms])
    phase = np.array([t.phase for t in tau.terms])
    return coeff, kx, py, wt, phase


def _scaled_weights(arrays, x, y, t):
    """Return (r, M) from _term_arrays: r_m = c_m exp(E_m - M), M = max E_m."""
    coeff, kx, py, wt, phase = arrays
    x, y, t = np.asarray(x, float), np.asarray(y, float), np.asarray(t, float)
    shape = np.broadcast_shapes(x.shape, y.shape, t.shape)
    expo = (kx.reshape(kx.shape + (1,) * len(shape)) * x
            + py.reshape(py.shape + (1,) * len(shape)) * y
            + wt.reshape(wt.shape + (1,) * len(shape)) * t
            + phase.reshape(phase.shape + (1,) * len(shape)))
    M = expo.max(axis=0)
    r = coeff.reshape(coeff.shape + (1,) * len(shape)) * np.exp(expo - M)
    return r, M


def _moments(tau: ExpSumTau, x, y, t, lattice: Iterable[MultiIndex]):
    """Normalized moments mu_beta = (d^beta f)/f for every beta in lattice."""
    arrays = _term_arrays(tau)
    r, _ = _scaled_weights(arrays, x, y, t)
    _, kx, py, wt, _ = arrays
    extra = r.ndim - 1
    kx = kx.reshape(kx.shape + (1,) * extra)
    py = py.reshape(py.shape + (1,) * extra)
    wt = wt.reshape(wt.shape + (1,) * extra)
    s0 = r.sum(axis=0)
    out = {}
    for beta in lattice:
        bx, by, bt = beta
        out[beta] = (kx**bx * py**by * wt**bt * r).sum(axis=0) / s0
    return out


def _down_closed(indices: Iterable[MultiIndex]) -> list[MultiIndex]:
    """Every gamma <= beta for some requested beta: all the recursion reads."""
    return sorted({(gx, gy, gt) for bx, by, bt in indices
                   for gx in range(bx + 1)
                   for gy in range(by + 1)
                   for gt in range(bt + 1)})


def _cumulants(moments: Mapping[MultiIndex, np.ndarray]):
    """Derivatives of ln f from moments of f via the cumulant recursion.

    For alpha = alpha' + e_i (i the first active axis):
        c_alpha = mu_alpha - sum_{gamma < alpha'} C(alpha', gamma)
                             mu_{alpha' - gamma} c_{gamma + e_i}
    """
    cum: dict[MultiIndex, np.ndarray] = {}
    for alpha in sorted(moments, key=lambda a: (sum(a), a)):
        if alpha == (0, 0, 0):
            continue
        axis = next(i for i in range(3) if alpha[i] > 0)
        e = tuple(1 if i == axis else 0 for i in range(3))
        ap = tuple(a - b for a, b in zip(alpha, e))
        acc = moments[alpha]
        for gx in range(ap[0] + 1):
            for gy in range(ap[1] + 1):
                for gt in range(ap[2] + 1):
                    gamma = (gx, gy, gt)
                    if gamma == ap:
                        continue
                    comb = (math.comb(ap[0], gx) * math.comb(ap[1], gy)
                            * math.comb(ap[2], gt))
                    rest = (ap[0] - gx, ap[1] - gy, ap[2] - gt)
                    gplus = (gx + e[0], gy + e[1], gt + e[2])
                    acc = acc - comb * moments[rest] * cum[gplus]
        cum[alpha] = acc
    return cum


def _u_partials(tau: ExpSumTau, x, y, t, indices: Sequence[MultiIndex]):
    """Array-valued partials of u; index (0,0,0) is u itself."""
    needed = [(ax + 2, ay, at) for ax, ay, at in indices]
    lattice = _down_closed(needed)
    cum = _cumulants(_moments(tau, x, y, t, lattice))
    return {idx: 2.0 * cum[(idx[0] + 2, idx[1], idx[2])] for idx in indices}


def _check_point(point) -> tuple[float, float, float]:
    x, y, t = point
    if not all(math.isfinite(v) for v in (x, y, t)):
        raise DomainError(f"non-finite evaluation point: {point}")
    return float(x), float(y), float(t)


def _check_index(idx: MultiIndex) -> MultiIndex:
    ax, ay, at = idx
    ok = (0 <= ax <= _MAX_X and 0 <= ay <= _MAX_Y and 0 <= at <= _MAX_T
          and ax + ay + at <= _MAX_TOTAL)
    if not ok:
        raise UnsupportedDerivativeError(
            f"multi-index {idx} outside supported range "
            f"(x<={_MAX_X}, y<={_MAX_Y}, t<={_MAX_T}, total<={_MAX_TOTAL})")
    return (int(ax), int(ay), int(at))


def eval_tau(tau: ExpSumTau, point) -> float:
    """f(x, y, t); returns inf when the true value overflows a double."""
    x, y, t = _check_point(point)
    r, M = _scaled_weights(_term_arrays(tau), x, y, t)
    with np.errstate(over="ignore"):
        return float(r.sum(axis=0) * np.exp(M))


def log_eval_tau(tau: ExpSumTau, point) -> float:
    """ln f(x, y, t) via max-exponent rescaling (always finite)."""
    x, y, t = _check_point(point)
    r, M = _scaled_weights(_term_arrays(tau), x, y, t)
    return float(M + np.log(r.sum(axis=0)))


def eval_u(tau: ExpSumTau, point) -> FieldSample:
    """u = 2 (ln f)_xx = 2 (f f_xx - f_x^2)/f^2, exact up to rounding."""
    x, y, t = _check_point(point)
    vals = _u_partials(tau, x, y, t, [(0, 0, 0)])
    return FieldSample(u=float(vals[(0, 0, 0)]))


def eval_partials(tau: ExpSumTau, point, multi_indices) -> FieldSample:
    """u and the requested partial derivatives d^(ax,ay,at) u.

    Every derivative is an exact closed form: each derivative of f is again an
    exponential sum, and derivatives of ln f follow from the moment/cumulant
    recursion.
    """
    x, y, t = _check_point(point)
    idxs = sorted({_check_index(i) for i in multi_indices})
    vals = _u_partials(tau, x, y, t, [(0, 0, 0)] + idxs)
    return FieldSample(
        u=float(vals[(0, 0, 0)]),
        partials={i: float(vals[i]) for i in idxs},
    )


def u_on_grid(tau: ExpSumTau, x, y, t) -> np.ndarray:
    """Vectorized u over broadcastable coordinate arrays."""
    vals = _u_partials(tau, np.asarray(x, float), np.asarray(y, float),
                       np.asarray(t, float), [(0, 0, 0)])
    return np.asarray(vals[(0, 0, 0)])
