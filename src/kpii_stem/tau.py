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

u_partials is the one evaluation path; u_on_grid is its form for u alone.
Both take broadcastable coordinate arrays, and a point whose exponents are not
finite (a NaN or infinite coordinate, or one large enough to overflow) gives
NaN.

An input of more than BLOCK_POINTS points is evaluated in blocks of whole rows
along the leading axis of its broadcast shape, each written into a
preallocated result, so the kernel's transient memory is that of one block (of
at most BLOCK_POINTS + 1 points, or one row where a row is longer) whatever
the point count.  The blocks give the bits of one-array evaluation: every
per-point operation is elementwise, and the sums over terms run row by row for
any block of two or more points.  numpy reduces the terms of a single point
pairwise, not row by row, so a one-point remainder joins the block before it.
Within a block each moment and cumulant is dropped after its last read.

How a block forms its moments: r is built in place in one array (with one
scratch array), s0 = r.sum(axis=0), and every requested moment comes from one
contraction np.einsum("bm,m...->b...", W, r) of the stacked weight rows W with
r, divided by s0 in place.  The contraction adds the products one term row at
a time, in term order, which is how r.sum(axis=0) and (w * r).sum(axis=0) add
the rows of two or more points, so the moments keep the bits of one weighted
sum per moment.  The cumulant recursion then runs in place on the moment
arrays.

One point (any input of size 1: Python or numpy scalars, 0-d or length-1
arrays) is evaluated in Python floats (_point), with the operations numpy
applies to one point, in numpy's order: E_m = ((kx x + py y) + wt t) + phase,
r_m = c_m exp(E_m - M), each moment (w r summed over the terms) / s0, and
the recursion as a plain expression.  A sum over the terms starts from +0.0
and adds in term order below 8 terms and pairwise from 8 on, as numpy's
reduction of one point does.  exp alone is numpy's (np.exp on the term
vector): math.exp differs from it in the last bit for some arguments.  So a
one-point call keeps the bits of numpy's evaluation of that point; with 8 or
more terms these can differ in the last bits from the same point in a call
of several points, whose terms are summed row by row.

Nothing that is independent of the evaluation point is rebuilt per call.  An
ExpSumTau holds its term columns (coeff, kx, py, wt, phase) as read-only
arrays and as tuples of Python floats, built at construction.  The moment lattice and the cumulant recursion's
steps depend only on the tuple of requested multi-indices, a finite set, and
are built once per tuple (_plan), which also checks the supported orders.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, UnsupportedDerivativeError

MultiIndex = tuple[int, int, int]

# supported u-derivative orders: total <= 4 with x <= 4, y <= 2, t <= 1
_MAX_X, _MAX_Y, _MAX_T, _MAX_TOTAL = 4, 2, 1, 4

# points per evaluation block; also sizes the row blocks of `kpii-stem sample`
BLOCK_POINTS = 4096


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
        if not all(map(math.isfinite, vals)):
            raise DomainError(f"non-finite term field: {vals}")
        if self.coeff < 0:
            raise DomainError(f"negative term coefficient: {self.coeff}")


@dataclass(frozen=True)
class ExpSumTau:
    """Immutable exponential sum with at least one strictly positive term.

    The terms are kept as given: two terms on one exponent direction (kx, py,
    wt) stay two rows, which gives the u of their merged form to rounding.
    """

    terms: tuple[ExpTerm, ...]
    # (coeff, kx, py, wt, phase) of the terms: read-only contiguous rows
    columns: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)
    # the same five columns as tuples of Python floats, for the one-point path
    values: tuple[tuple[float, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not any(t.coeff > 0 for t in self.terms):
            raise DomainError("tau requires at least one positive coefficient")
        table = np.array([(t.coeff, t.kx, t.py, t.wt, t.phase) for t in self.terms],
                         dtype=float).T.copy()
        table.flags.writeable = False
        object.__setattr__(self, "columns", tuple(table))
        object.__setattr__(self, "values", tuple(map(tuple, table.tolist())))

    def __len__(self):
        return len(self.terms)


def _scaled_weights(tau: ExpSumTau, x, y, t):
    """Return (r, M, cols) at float arrays x, y, t of two or more points:
    r_m = c_m exp(E_m - M), M = max E_m, and tau's kx, py, wt columns indexed
    to broadcast against r.

    r is built in one array of the broadcast shape with one scratch array:
    E = ((kx x + py y) + wt t) + phase, then E - M, exp and the multiply by c,
    each in place."""
    nd = max(x.ndim, y.ndim, t.ndim)
    coeff, kx, py, wt, phase = (col[(slice(None),) + (None,) * nd] for col in tau.columns)
    r = np.empty((len(tau),) + np.broadcast(x, y, t).shape)
    part = np.empty_like(r)
    np.multiply(kx, x, out=r)
    r += np.multiply(py, y, out=part)
    r += np.multiply(wt, t, out=part)
    r += phase
    M = r.max(axis=0)
    r -= M
    np.exp(r, out=r)
    r *= coeff
    return r, M, (kx, py, wt)


def _weight(cols, beta):
    """kx**bx * py**by * wt**bt over the term columns cols, without the
    factors of exponent 0 (exactly 1.0); a power 1 is the column itself
    (col**1 is a copy)."""
    return functools.reduce(operator.mul, [col if b == 1 else col**b
                                           for col, b in zip(cols, beta) if b])


def _moments(tau: ExpSumTau, x, y, t, betas: Sequence[MultiIndex]):
    """Normalized moments mu_beta = (d^beta f)/f for nonzero betas, at two or
    more points.

    All the weights (_weight) are contracted with r in one einsum and divided
    by s0 in place (module docstring).
    """
    r, _, cols = _scaled_weights(tau, x, y, t)
    s0 = r.sum(axis=0)
    weights = [_weight(cols, beta) for beta in betas]
    S = np.einsum("bm,m...->b...", np.array(weights).reshape(len(betas), len(r)), r)
    S /= s0
    return dict(zip(betas, S))


def _down_closed(indices: Iterable[MultiIndex]) -> list[MultiIndex]:
    """Every gamma <= beta for some requested beta: all the recursion reads."""
    return sorted({(gx, gy, gt) for bx, by, bt in indices
                   for gx in range(bx + 1)
                   for gy in range(by + 1)
                   for gt in range(bt + 1)})


@functools.cache
def _plan(indices: tuple[MultiIndex, ...]):
    """The moments and the cumulant recursion's steps for the u-partials at
    indices: every nonzero beta of the down-closed lattice, and per step

        c_alpha = mu_alpha - sum_{gamma < alpha'} C(alpha', gamma)
                             mu_{alpha' - gamma} c_{gamma + e_i}

    for alpha = alpha' + e_i (i the first active axis) as (alpha, ((C,
    alpha' - gamma, gamma + e_i), ...), moments done, cumulants done): the
    last two name the moments and cumulants that no later step reads, except
    the cumulants behind the requested indices.  mu_0 = 1 is never read.  An
    index outside the supported orders raises UnsupportedDerivativeError.
    """
    for ax, ay, at in indices:
        if not (0 <= ax <= _MAX_X and 0 <= ay <= _MAX_Y and 0 <= at <= _MAX_T
                and ax + ay + at <= _MAX_TOTAL):
            raise UnsupportedDerivativeError(
                f"multi-index {(ax, ay, at)} outside supported range "
                f"(x<={_MAX_X}, y<={_MAX_Y}, t<={_MAX_T}, total<={_MAX_TOTAL})")
    lattice = _down_closed((ax + 2, ay, at) for ax, ay, at in indices)
    betas = [b for b in lattice if any(b)]
    steps = []
    for alpha in sorted(betas, key=lambda a: (sum(a), a)):
        axis = next(i for i in range(3) if alpha[i] > 0)
        e = tuple(1 if i == axis else 0 for i in range(3))
        ap = tuple(a - b for a, b in zip(alpha, e))
        terms = []
        for gx in range(ap[0] + 1):
            for gy in range(ap[1] + 1):
                for gt in range(ap[2] + 1):
                    if (gx, gy, gt) == ap:
                        continue
                    comb = (math.comb(ap[0], gx) * math.comb(ap[1], gy)
                            * math.comb(ap[2], gt))
                    terms.append((comb, (ap[0] - gx, ap[1] - gy, ap[2] - gt),
                                  (gx + e[0], gy + e[1], gt + e[2])))
        steps.append((alpha, tuple(terms)))
    # the step of each moment's and cumulant's last read
    last_mu, last_cum = {}, {}
    for k, (alpha, terms) in enumerate(steps):
        last_mu[alpha] = last_cum[alpha] = k
        for _, rest, gplus in terms:
            last_mu[rest] = last_cum[gplus] = k
    kept = {(ax + 2, ay, at) for ax, ay, at in indices}
    steps = [(alpha, terms,
              tuple(b for b, j in last_mu.items() if j == k),
              tuple(g for g, j in last_cum.items() if j == k and g not in kept))
             for k, (alpha, terms) in enumerate(steps)]
    return tuple(betas), tuple(steps)


def _cumulants(moments: dict[MultiIndex, np.ndarray], steps):
    """Derivatives of ln f from moments of f, by _plan's recursion steps.

    A step is acc = mu_alpha - sum C mu_rest c_gplus, each product formed as
    (C mu_rest) c_gplus; the multiply by a unit C is skipped, which is exact
    and so keeps the bits.  On arrays the products go through one scratch array
    and acc is updated in place, in the moment's own storage once no later
    step reads that moment.  Consumes moments; of the cumulants only those
    behind the requested indices are returned."""
    cum: dict[MultiIndex, np.ndarray] = {}
    part = None
    for alpha, terms, mu_done, cum_done in steps:
        acc = moments[alpha]
        if terms:
            if part is None:
                part = np.empty_like(acc)
            out = acc if alpha in mu_done else None
            for comb, rest, gplus in terms:
                if comb == 1:
                    np.multiply(moments[rest], cum[gplus], out=part)
                else:
                    np.multiply(comb, moments[rest], out=part)
                    part *= cum[gplus]
                acc = out = np.subtract(acc, part, out=out)
        cum[alpha] = acc
        for beta in mu_done:
            del moments[beta]
        for gamma in cum_done:
            del cum[gamma]
    return cum


def _term_sum(values):
    """The sum of one point's term values in the order numpy's reduction
    forms it: +0.0 plus numpy's pairwise sum, which adds fewer than 8 values
    in order, up to 128 in 8 running sums (the j-th takes every 8th value from
    j on) joined as a tree, and more in two halves cut at a multiple of 8."""
    n = len(values)
    if n < 8:
        total = 0.0
        for v in values:
            total += v
        return total
    return 0.0 + _pairwise(values)


def _pairwise(values):
    n = len(values)
    if n < 8:
        total = -0.0
        for v in values:
            total += v
        return total
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise(values[:half]) + _pairwise(values[half:])
    run = values[:8]
    stop = n - n % 8
    for i in range(8, stop, 8):
        run = [a + b for a, b in zip(run, values[i:i + 8])]
    total = ((run[0] + run[1]) + (run[2] + run[3])) + ((run[4] + run[5]) + (run[6] + run[7]))
    for v in values[stop:]:
        total += v
    return total


def _point(tau: ExpSumTau, x: float, y: float, t: float, indices, plan):
    """The partials at indices at one point (x, y, t), in Python floats.

    Each operation is the one numpy applies to a single point's term axis, in
    the same order (module docstring), so the bits are those of numpy's
    one-point evaluation.  exp is numpy's, whose results differ from
    math.exp's in the last bit for some arguments.  A square is v * v, which
    is numpy's square; higher powers are numpy's, where Python's ** would
    raise OverflowError.  Without a NaN exponent, max() is numpy's M (up to
    the sign of a zero M, which no r sees).  s0 is 0 only where every r is,
    and there numpy's quotient (NaN) is kept.

    A NaN exponent (a NaN coordinate, or inf - inf) makes s0 NaN, and then
    every partial is NaN.  Which NaN numpy gives depends on its choice
    between two NaN operands, which Python's float + and * do not follow
    (CPython's generic and specialised additions choose differently), so that
    NaN is taken from numpy's one-point top moments: c_alpha keeps the NaN of
    mu_alpha = S_alpha / s0, which keeps S_alpha's."""
    betas, steps = plan
    coeff, kx, py, wt, phase = tau.values
    expo = [a * x + b * y + c * t + d for a, b, c, d in zip(kx, py, wt, phase)]
    top = max(expo)
    r = list(map(operator.mul, coeff, np.exp([e - top for e in expo]).tolist()))
    s0 = _term_sum(r)
    if s0 != s0:
        coeff, kx, py, wt, phase = tau.columns
        expo = kx * x + py * y + wt * t + phase
        r = coeff * np.exp(expo - expo.max())
        return {idx: 2.0 * float((_weight((kx, py, wt), (idx[0] + 2, idx[1], idx[2])) * r).sum()
                                 / r.sum())
                for idx in indices}
    cols = (kx, py, wt)
    mu = {}
    for beta in betas:
        w = None
        for axis, b in enumerate(beta):
            if b:
                col = cols[axis]
                f = (col if b == 1 else list(map(operator.mul, col, col)) if b == 2
                     else (tau.columns[axis + 1] ** b).tolist())
                w = f if w is None else list(map(operator.mul, w, f))
        S = _term_sum(list(map(operator.mul, w, r)))
        mu[beta] = S / s0 if s0 else float(np.float64(S) / s0)
    cum = {}
    for alpha, terms, _, _ in steps:
        acc = mu[alpha]
        for comb, rest, gplus in terms:
            acc = acc - (mu[rest] if comb == 1 else comb * mu[rest]) * cum[gplus]
        cum[alpha] = acc
    return {idx: 2.0 * cum[(idx[0] + 2, idx[1], idx[2])] for idx in indices}


def _block(tau: ExpSumTau, x, y, t, indices, plan):
    """The partials at indices over the points of x, y, t as one array."""
    betas, steps = plan
    cum = _cumulants(_moments(tau, x, y, t, betas), steps)
    return {idx: 2.0 * cum[(idx[0] + 2, idx[1], idx[2])] for idx in indices}


def _blocked(tau: ExpSumTau, x, y, t, indices, plan):
    """_block over whole rows of the leading broadcast axis, at most
    BLOCK_POINTS points (or one row) per block, never a one-point block."""
    shape = np.broadcast_shapes(x.shape, y.shape, t.shape)
    rows, row = shape[0], math.prod(shape[1:])
    starts = list(range(0, rows, max(1, BLOCK_POINTS // row)))
    if row == 1 and len(starts) > 1 and rows - starts[-1] == 1:
        starts.pop()
    if len(starts) == 1:
        return _block(tau, x, y, t, indices, plan)
    # leading axes of length 1 added in place of broadcasting: views, no copies
    x, y, t = (a.reshape((1,) * (len(shape) - a.ndim) + a.shape) for a in (x, y, t))
    out = {idx: np.empty(shape) for idx in indices}
    for lo, hi in zip(starts, starts[1:] + [rows]):
        part = _block(tau, *(a if len(a) == 1 else a[lo:hi] for a in (x, y, t)),
                      indices, plan)
        for idx, vals in part.items():
            out[idx][lo:hi] = vals
    return out


def u_partials(tau: ExpSumTau, x, y, t, indices: Sequence[MultiIndex]):
    """Array-valued partials of u; index (0,0,0) is u itself.

    One point runs in Python floats with numpy's one-point bits, and more
    than BLOCK_POINTS points run in blocks (module docstring): the transient
    memory is bounded by one block, the bits are those of one array."""
    indices = tuple(indices)
    plan = _plan(indices)
    x, y, t = np.asarray(x, float), np.asarray(y, float), np.asarray(t, float)
    if x.size * y.size * t.size == 1:
        point = _point(tau, x.item(), y.item(), t.item(), indices, plan)
        nd = max(x.ndim, y.ndim, t.ndim)
        if nd == 0:
            return {idx: np.float64(v) for idx, v in point.items()}
        return {idx: np.array(v, ndmin=nd) for idx, v in point.items()}
    # the product of the sizes bounds the broadcast size, and the largest size
    # is it where the inputs of several points share one shape: most calls of
    # one block are told from the sizes, without a broadcast shape
    if x.size * y.size * t.size > BLOCK_POINTS and (
            max(x.size, y.size, t.size) > BLOCK_POINTS
            or len({a.shape for a in (x, y, t) if a.size > 1}) > 1):
        return _blocked(tau, x, y, t, indices, plan)
    return _block(tau, x, y, t, indices, plan)


def u_on_grid(tau: ExpSumTau, x, y, t) -> np.ndarray:
    """Vectorized u over broadcastable coordinate arrays.

    Evaluated in blocks of at most BLOCK_POINTS points (one row where a row
    of the leading broadcast axis is longer, never a block of one point), so
    the transient memory stays that of one block while the result's bits are
    those of one-array evaluation.

    A one-point call (scalar, 0-d or length 1) is evaluated in Python floats
    in numpy's one-point order, with np.exp (module docstring).  With 8 or
    more terms its u can differ in the last bits from the same point in a
    call with more points: the terms of a single point are summed pairwise
    in unrolled blocks of 8, and those of several points one term row at a
    time.  For the eight-term make_generic((1, 2, 3), (0.1, 0.2, 0.35)) the
    two differ by up to 7.8e-14 over 3000 points in [-10, 10]^3.  Both are
    exact to rounding.
    """
    return np.asarray(u_partials(tau, x, y, t, ((0, 0, 0),))[(0, 0, 0)])
