"""Core tau-function evaluation: u on arrays and its exact partial derivatives.

u_partials is the tau layer's one evaluation path and u_on_grid its form for
u alone; the references are 50- and 60-digit mpmath evaluations of the same
exponential sums.
"""

import functools
import itertools
import math
import operator

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpii_stem import (
    ExpSumTau,
    ExpTerm,
    make_generic,
    omega,
    u_on_grid,
    u_partials,
)
from kpii_stem.errors import DomainError, UnsupportedDerivativeError
from kpii_stem.tau import BLOCK_POINTS

from conftest import build_scenario


def one_soliton(k=2.0, p=0.0, phase=0.0):
    return ExpSumTau((ExpTerm(1.0, 0.0, 0.0, 0.0),
                      ExpTerm(1.0, k, p, omega(k, p), phase)))


def mp_tau(tau, x, y, t):
    """f at the caller's mpmath precision."""
    return mpmath.fsum(mpmath.mpf(term.coeff)
                       * mpmath.exp(mpmath.mpf(term.kx) * x + mpmath.mpf(term.py) * y
                                    + mpmath.mpf(term.wt) * t + mpmath.mpf(term.phase))
                       for term in tau.terms)


def _mp_u(tau):
    """u = 2 (ln tau)_xx = 2 (<kx^2> - <kx>^2) in mpmath, the means taken over
    the terms weighted by coeff * exp(kx x + py y + wt t + phase)."""
    terms = [tuple(map(mpmath.mpf, (e.coeff, e.kx, e.py, e.wt, e.phase)))
             for e in tau.terms]

    def u(x, y, t):
        w = [c * mpmath.exp(kx * x + py * y + wt * t + s) for c, kx, py, wt, s in terms]
        total = mpmath.fsum(w)
        m1 = mpmath.fsum(wi * e[1] for wi, e in zip(w, terms)) / total
        m2 = mpmath.fsum(wi * e[1] ** 2 for wi, e in zip(w, terms)) / total
        return 2 * (m2 - m1 * m1)
    return u


def test_two_unit_terms_at_origin():
    # equal weights on kx = 0 and 1: u = 2 (1/2 - 1/4), exact in binary
    tau = ExpSumTau((ExpTerm(1.0, 0.0, 0.0, 0.0), ExpTerm(1.0, 1.0, 0.0, 0.0)))
    assert u_on_grid(tau, 0.0, 0.0, 0.0) == 0.5


def test_reference_tau_at_origin_high_precision(solutions):
    sol = solutions["c2_1"]
    with mpmath.workdps(60):
        want = float(_mp_u(sol.tau)(0, 0, 0))
    assert float(u_on_grid(sol.tau, 0.0, 0.0, 0.0)) == pytest.approx(want, rel=1e-14, abs=0)


def test_u_dominated_sum_stays_finite():
    # f = 1 + e^(1000 x) overflows a double at x = 1; u is read off the
    # rescaled weights and stays exact to rounding.  At x = 0.01 the moment
    # form 2 (<kx^2> - <kx>^2) cancels in 1 - p, p = 1/(1 + e^-10), which
    # sets rel
    tau = ExpSumTau((ExpTerm(1.0, 0.0, 0.0, 0.0), ExpTerm(1.0, 1000.0, 0.0, 0.0)))
    xs = np.array([1.0, 0.7, 0.01, 0.0, -0.01, -1.0])
    got = u_on_grid(tau, xs, 0.0, 0.0)
    u_mp = _mp_u(tau)
    with mpmath.workdps(60):
        want = [float(u_mp(x, 0, 0)) for x in xs.tolist()]
    assert got.tolist() == pytest.approx(want, rel=1e-11, abs=0)
    assert got[3] == 5e5


def test_u_matches_mpmath_random_terms():
    rng = np.random.default_rng(5)
    for _ in range(5):
        terms = tuple(ExpTerm(float(c), float(kx), float(py), float(wt), float(s))
                      for c, kx, py, wt, s in zip(rng.uniform(0.1, 3.0, 5),
                                                  rng.uniform(-2, 2, 5),
                                                  rng.uniform(-2, 2, 5),
                                                  rng.uniform(-2, 2, 5),
                                                  rng.uniform(-1, 1, 5)))
        tau = ExpSumTau(terms)
        x, y, t = rng.uniform(-30, 30, 3)
        with mpmath.workdps(60):
            want = float(_mp_u(tau)(x, y, t))
        # most draws lie in a tail, where u is tiny and its rounding is
        # absolute, of order eps * kx^2
        assert float(u_on_grid(tau, x, y, t)) == pytest.approx(want, rel=1e-12, abs=1e-14)


def test_one_soliton_peak_value():
    # u = (k^2/2) sech^2(xi/2) peaks at k^2/2
    assert u_on_grid(one_soliton(k=2.0), 0.0, 0.0, 0.0) == pytest.approx(2.0, rel=1e-14)


def test_one_soliton_far_tail():
    tau = one_soliton(k=2.0)
    assert np.all(u_on_grid(tau, np.array([20.0, -20.0]), 0.0, 0.0) < 1e-15)


def test_u_matches_finite_difference_of_log(solutions):
    # mpmath's numerical second derivative of 2 ln f at 50 digits
    sol = solutions["c3_1"]
    with mpmath.workdps(50):
        want = float(2 * mpmath.diff(lambda x: mpmath.log(mp_tau(sol.tau, x, 0, 0)), 0, 2))
    assert float(u_on_grid(sol.tau, 0.0, 0.0, 0.0)) == pytest.approx(want, rel=1e-14, abs=0)


def test_partials_constant_tau_vanish():
    tau = ExpSumTau((ExpTerm(1.0, 0.0, 0.0, 0.0),))
    vals = u_partials(tau, 1.0, 2.0, 3.0,
                      [(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 2, 0), (1, 0, 1)])
    assert all(v == 0.0 for v in vals.values())


def test_peak_is_critical_point():
    vals = u_partials(one_soliton(k=2.0), 0.0, 0.0, 0.0, [(1, 0, 0)])
    assert abs(vals[(1, 0, 0)]) < 1e-12


def test_mixed_partial_matches_nested_fd():
    rng = np.random.default_rng(17)
    terms = tuple(ExpTerm(float(c), float(kx), float(py), float(wt))
                  for c, kx, py, wt in zip(rng.uniform(0.3, 2.0, 3),
                                           rng.uniform(-1.5, 1.5, 3),
                                           rng.uniform(-1.5, 1.5, 3),
                                           rng.uniform(-1.5, 1.5, 3)))
    tau = ExpSumTau(terms)
    x, y, t = 0.3, -0.4, 0.2
    got = u_partials(tau, x, y, t, [(1, 1, 0)])[(1, 1, 0)]
    u_mp = _mp_u(tau)
    with mpmath.workdps(50):
        want = float(mpmath.diff(lambda xx, yy: u_mp(xx, yy, t), (x, y), (1, 1)))
    assert got == pytest.approx(want, rel=1e-13, abs=0)


# c2_4 point draws on which a Richardson reference was off by more than 1e-5
PARTIALS_REGRESSION_SEEDS = {"c2_4": (2189723764, 1914107916, 4157923097)}


@pytest.mark.parametrize("name", ["c2_1", "c2_1_alt", "c2_2", "c2_3", "c2_4",
                                  "w2", "m2", "c3_1", "c3_2"])
def test_all_partials_match_richardson(name, solutions):
    """First partials of u from the partials bundle against mpmath's numerical
    derivative of u at 50 digits."""
    sol = solutions[name]
    u_mp = _mp_u(sol.tau)
    indices = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (1, 1, 0),
               (0, 2, 0), (1, 0, 1), (3, 0, 0), (4, 0, 0)]
    for seed in (133, *PARTIALS_REGRESSION_SEEDS.get(name, ())):
        rng = np.random.default_rng(seed)
        pts = np.column_stack([rng.uniform(-10, 10, 100),
                               rng.uniform(-10, 10, 100),
                               rng.uniform(-3, 3, 100)])
        got = u_partials(sol.tau, pts[:, 0], pts[:, 1], pts[:, 2], indices)
        with mpmath.workdps(50):
            for n, (x, y, t) in enumerate(pts.tolist()):
                for idx, shifted in (((1, 0, 0), lambda h: u_mp(x + h, y, t)),
                                     ((0, 1, 0), lambda h: u_mp(x, y + h, t)),
                                     ((0, 0, 1), lambda h: u_mp(x, y, t + h))):
                    want = float(mpmath.diff(shifted, 0))
                    assert abs(got[idx][n] - want) / max(1.0, abs(want)) < 1e-5


def test_high_order_partials_match_fd_scalar(solutions):
    # against mpmath's numerical partials of u at 50 digits
    sol = solutions["w2"]
    pt = (0.7, -1.3, 0.4)
    indices = [(2, 0, 0), (0, 2, 0), (4, 0, 0), (1, 0, 1)]
    vals = u_partials(sol.tau, *pt, indices)
    u_mp = _mp_u(sol.tau)
    with mpmath.workdps(50):
        for idx in indices:
            want = float(mpmath.diff(u_mp, pt, idx))
            assert vals[idx] == pytest.approx(want, rel=1e-12, abs=0), idx


def test_unsupported_derivative_orders():
    tau = one_soliton()
    for idx in [(5, 0, 0), (0, 3, 0), (0, 0, 2), (3, 2, 0), (7, 0, 0), (-1, 0, 0)]:
        with pytest.raises(UnsupportedDerivativeError):
            u_partials(tau, 0.0, 0.0, 0.0, [(0, 0, 0), idx])


def test_non_finite_point_gives_nan():
    # the array rule: a NaN or infinite coordinate gives NaN at its point only
    tau = one_soliton()
    with np.errstate(invalid="ignore"):
        u = u_on_grid(tau, np.array([math.inf, 0.0, 0.0, -math.inf]),
                      np.array([0.0, math.nan, 0.0, 0.0]), 0.0)
    assert np.isnan(u[[0, 1, 3]]).all() and u[2] == pytest.approx(2.0, rel=1e-14)


def test_negative_coefficient_rejected():
    with pytest.raises(DomainError):
        ExpTerm(-1.0, 0.0, 0.0, 0.0)


def test_duplicate_exponents_merge():
    # two terms on one direction are kept as two rows and give the u of
    # their merged form 5 e^x
    split = ExpSumTau((ExpTerm(1.0, 0.0, 0.0, 0.0),
                       ExpTerm(1.0, 1.0, 0.0, 0.0, phase=0.0),
                       ExpTerm(2.0, 1.0, 0.0, 0.0, phase=math.log(2.0))))
    merged = ExpSumTau((ExpTerm(1.0, 0.0, 0.0, 0.0), ExpTerm(5.0, 1.0, 0.0, 0.0)))
    assert len(split) == 3
    xs = np.linspace(-10.0, 10.0, 201)
    np.testing.assert_allclose(u_on_grid(split, xs, 0.0, 0.0),
                               u_on_grid(merged, xs, 0.0, 0.0), rtol=0, atol=1e-15)


def test_positivity_over_wide_window(solutions):
    rng = np.random.default_rng(23)
    for sol in solutions.values():
        pts = rng.uniform(-100.0, 100.0, (12000, 3))
        assert np.all(np.isfinite(u_on_grid(sol.tau, pts[:, 0], pts[:, 1], pts[:, 2])))
        # vectorized positivity of the rescaled sum over all draws
        from kpii_stem.tau import _scaled_weights
        r, M, _ = _scaled_weights(sol.tau, pts[:, 0], pts[:, 1], pts[:, 2])
        assert np.all(r.sum(axis=0) > 0)
        assert np.all(np.isfinite(M + np.log(r.sum(axis=0))))


def _reference_partials(tau, x, y, t, indices):
    """The u-partials as the kernel computed them with per-call state: term
    arrays and reshapes built on every call, every moment's full weight
    kx**bx * py**by * wt**bt, and the cumulant recursion derived as it runs."""
    coeff, kx, py, wt, phase = (np.array([getattr(e, name) for e in tau.terms])
                                for name in ("coeff", "kx", "py", "wt", "phase"))
    x, y, t = (np.asarray(v, float) for v in (x, y, t))
    shape = np.broadcast_shapes(x.shape, y.shape, t.shape)
    col = lambda a: a.reshape(a.shape + (1,) * len(shape))
    expo = col(kx) * x + col(py) * y + col(wt) * t + col(phase)
    r = col(coeff) * np.exp(expo - expo.max(axis=0))
    s0 = r.sum(axis=0)
    lattice = sorted({(gx, gy, gt) for ax, ay, at in indices
                      for gx in range(ax + 3) for gy in range(ay + 1)
                      for gt in range(at + 1)})
    mu = {b: (col(kx)**b[0] * col(py)**b[1] * col(wt)**b[2] * r).sum(axis=0) / s0
          for b in lattice}
    return _reference_recursion(mu, indices)


def _reference_recursion(mu, indices):
    """The u-partials at indices from the moments mu of their lattice, by the
    cumulant recursion with every binomial multiplied in."""
    cum = {}
    for alpha in sorted(mu, key=lambda a: (sum(a), a)):
        if alpha == (0, 0, 0):
            continue
        axis = next(i for i in range(3) if alpha[i] > 0)
        e = tuple(1 if i == axis else 0 for i in range(3))
        ap = tuple(a - b for a, b in zip(alpha, e))
        acc = mu[alpha]
        for gamma in itertools.product(*(range(a + 1) for a in ap)):
            if gamma == ap:
                continue
            comb = math.prod(math.comb(a, g) for a, g in zip(ap, gamma))
            rest = tuple(a - g for a, g in zip(ap, gamma))
            gplus = tuple(g + d for g, d in zip(gamma, e))
            acc = acc - comb * mu[rest] * cum[gplus]
        cum[alpha] = acc
    return {idx: 2.0 * cum[(idx[0] + 2, idx[1], idx[2])] for idx in indices}


SUPPORTED_INDICES = [i for i in itertools.product(range(5), range(3), range(2))
                     if sum(i) <= 4]


def test_partials_bitwise_equal_to_per_call_reference(solutions):
    """The construction-time columns, the per-index plan and the skipped unit
    factors leave every bit of u and its partials as they were."""
    from kpii_stem.tau import u_partials
    rng = np.random.default_rng(41)
    taus = [sol.tau for sol in solutions.values()]
    taus.append(make_generic((1.0, 2.0, 3.0), (0.1, 0.2, 0.35)).tau)
    assert len(taus) == 10 and len(taus[-1]) == 8
    for tau in taus:
        points = [(0.3, -0.7, 1.1),
                  tuple(rng.uniform(-9.0, 9.0, 11) for _ in range(3)),
                  (rng.uniform(-9.0, 9.0, (4, 1)), rng.uniform(-9.0, 9.0, (1, 5)), 0.7)]
        for x, y, t in points:
            requests = [[(0, 0, 0), idx] for idx in SUPPORTED_INDICES]
            requests.append(SUPPORTED_INDICES)
            for indices in requests:
                got = u_partials(tau, x, y, t, indices)
                want = _reference_partials(tau, x, y, t, indices)
                for idx in indices:
                    assert np.shape(got[idx]) == np.shape(want[idx])
                    assert np.asarray(got[idx]).tobytes() == np.asarray(want[idx]).tobytes()
            u = u_on_grid(tau, x, y, t)
            assert u.tobytes() == _reference_partials(tau, x, y, t, [(0, 0, 0)])[(0, 0, 0)].tobytes()


RESIDUAL_INDICES = ((0, 0, 0), (1, 0, 0), (2, 0, 0), (4, 0, 0), (0, 2, 0), (1, 0, 1))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_unit_binomial_skip_keeps_bits(solutions, monkeypatch):
    """The recursion without its multiplies by a unit binomial gives the bits
    of the recursion with them: on the shipped taus and the eight-term generic
    one at points with NaN and infinite coordinates, and on moments drawn
    with signed zeros and NaN."""
    rng = np.random.default_rng(47)
    taus = [sol.tau for sol in solutions.values()]
    taus.append(make_generic((1, 2, 3), (0.1, 0.2, 0.35)).tau)
    assert len(taus) == 10 and len(taus[-1]) == 8
    x, y, t = rng.uniform(-9.0, 9.0, (3, 40))
    x[:3], y[3], t[4] = (math.nan, math.inf, -math.inf), math.nan, math.inf
    plans = (((0, 0, 0),), RESIDUAL_INDICES, tuple(SUPPORTED_INDICES))
    for tau in taus:
        for indices in plans:
            got = u_partials(tau, x, y, t, indices)
            want = _reference_partials(tau, x, y, t, indices)
            assert all(got[i].tobytes() == want[i].tobytes() for i in indices)
    pool = np.array([0.0, -0.0, math.nan, 1.0, -1.0, 0.5, -2.0])
    drawn = {}
    monkeypatch.setattr("kpii_stem.tau._moments", lambda tau, x, y, t, betas: {
        b: drawn[b].copy() for b in betas})
    for indices in plans:
        lattice = {(gx, gy, gt) for ax, ay, at in indices for gx in range(ax + 3)
                   for gy in range(ay + 1) for gt in range(at + 1)}
        drawn = {b: rng.choice(pool, 400) for b in lattice}
        got = u_partials(taus[0], np.zeros(400), 0.0, 0.0, indices)
        want = _reference_recursion(drawn, indices)
        assert all(got[i].tobytes() == want[i].tobytes() for i in indices)
        signed_zero = [v for i in indices for v in got[i].tolist()
                       if v == 0.0 and math.copysign(1.0, v) < 0]
        assert signed_zero and any(np.isnan(got[i]).any() for i in indices)


# a point whose eight-term generic partials differ in the last bits between a
# one-point evaluation and an array one; it ends the one-point remainders below
ODD_POINT = (1.7, -2.92, -1.95)


def _block_shapes(rng):
    """Coordinates around the block boundaries: (label, x, y, t)."""
    B = BLOCK_POINTS
    u = lambda *shape: rng.uniform(-9.0, 9.0, shape)
    cases = [("scalar", 0.3, -0.7, 1.1)]
    for n in (B - 1, B, B + 1, B + 2, 3 * B + 5):
        x, y, t = u(n), u(n), u(n)
        x[-1], y[-1], t[-1] = ODD_POINT
        cases.append((f"1-D {n}", x, y, t))
    column = u(2 * B + 1, 1)
    column[-1] = ODD_POINT[0]
    cases += [
        # every row longer than a block: one row per block
        ("rows of B+1", u(3, 1), u(B + 1), 0.7),
        # four rows per block, the last block one row of 1000 points
        ("13 x 1000", u(13, 1), u(1000), -0.4),
        # one point per row: the one-point remainder joins the block before
        ("column 2B+1", column, ODD_POINT[1], ODD_POINT[2]),
        ("5 x 30 x 40", u(5, 1, 1), u(1, 30, 1), u(1, 1, 40)),
    ]
    return cases


def test_blocked_evaluation_bitwise_equal_to_one_array(solutions):
    """Blocks give the bits of the one-array reference at every block
    boundary, for the shipped taus and an eight-term generic one."""
    rng = np.random.default_rng(43)
    taus = [sol.tau for sol in solutions.values()]
    taus.append(make_generic((1, 2, 3), (0.1, 0.2, 0.35)).tau)
    assert len(taus) == 10 and len(taus[-1]) == 8
    alone = _reference_partials(taus[-1], *ODD_POINT, RESIDUAL_INDICES)
    pair = _reference_partials(taus[-1], *np.repeat([ODD_POINT], 2, axis=0).T,
                               RESIDUAL_INDICES)
    assert all(alone[idx] != pair[idx][1] for idx in RESIDUAL_INDICES)
    for label, x, y, t in _block_shapes(rng):
        for tau in taus:
            got = u_partials(tau, x, y, t, RESIDUAL_INDICES)
            want = _reference_partials(tau, x, y, t, RESIDUAL_INDICES)
            for idx in RESIDUAL_INDICES:
                assert np.shape(got[idx]) == np.shape(want[idx]), (label, idx)
                assert np.asarray(got[idx]).tobytes() == want[idx].tobytes(), (label, idx)
            u = u_on_grid(tau, x, y, t)
            assert u.tobytes() == want[(0, 0, 0)].tobytes(), label


def test_calls_of_one_block_take_the_one_array_path(monkeypatch):
    """Calls of at most one block are told from the input sizes alone; a
    grid of 65 x 64 points is the first that is not."""
    import kpii_stem.tau as tau_module

    def refuse(*args):
        raise AssertionError("blocked path taken")

    monkeypatch.setattr(tau_module, "_blocked", refuse)
    tau = one_soliton(k=2.0, p=0.5)
    xs = np.linspace(-5.0, 5.0, BLOCK_POINTS)
    assert u_on_grid(tau, 0.1, 0.2, 0.3).shape == ()
    assert u_on_grid(tau, xs, 0.0, 0.0).shape == (BLOCK_POINTS,)
    assert u_on_grid(tau, xs, xs, xs).shape == (BLOCK_POINTS,)
    assert u_on_grid(tau, xs[:64, None], xs[:64], 0.0).shape == (64, 64)
    with pytest.raises(AssertionError):
        u_on_grid(tau, xs[:65, None], xs[:64], 0.0)


def test_bundle_transient_memory_does_not_grow_with_points(solutions):
    """The six-partial bundle's traced peak beyond its result bytes is that
    of one block, at 2e4 and at 2e5 points alike (one array grows 10x)."""
    import tracemalloc
    tau = solutions["c3_1"].tau
    rng = np.random.default_rng(47)
    u_partials(tau, 0.0, 0.0, 0.0, RESIDUAL_INDICES)  # the plan, outside the trace
    transient = []
    for n in (20_000, 200_000):
        x, y, t = rng.uniform(-20.0, 20.0, (3, n))
        tracemalloc.start()
        try:
            out = u_partials(tau, x, y, t, RESIDUAL_INDICES)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        transient.append(peak - sum(v.nbytes for v in out.values()))
    assert transient[1] <= 1.25 * transient[0], transient


def _per_beta_moments(tau, x, y, t, betas):
    """Reference moments: r from the plain weight expression, then one
    (w * r).sum(axis=0) / s0 per beta at any point count."""
    lead = (slice(None),) + (None,) * max(x.ndim, y.ndim, t.ndim)
    coeff, kx, py, wt, phase = (col[lead] for col in tau.columns)
    expo = kx * x + py * y + wt * t + phase
    r = coeff * np.exp(expo - expo.max(axis=0))
    s0 = r.sum(axis=0)
    out = {}
    for beta in betas:
        w = functools.reduce(operator.mul,
                             [col**b for col, b in zip((kx, py, wt), beta) if b])
        out[beta] = (w * r).sum(axis=0) / s0
    return out


def _allocating_cumulants(moments, steps):
    """The cumulant recursion with a new array per operation."""
    cum = {}
    for alpha, terms, mu_done, cum_done in steps:
        acc = moments[alpha]
        for comb, rest, gplus in terms:
            mu = moments[rest] if comb == 1 else comb * moments[rest]
            acc = acc - mu * cum[gplus]
        cum[alpha] = acc
        for beta in mu_done:
            del moments[beta]
        for gamma in cum_done:
            del cum[gamma]
    return cum


def _per_beta(monkeypatch, call):
    """call() with u_partials running the per-beta reference kernel."""
    import kpii_stem.tau as tau_module
    with monkeypatch.context() as m:
        m.setattr(tau_module, "_moments", _per_beta_moments)
        m.setattr(tau_module, "_cumulants", _allocating_cumulants)
        return call()


def _kernel_taus(solutions):
    """c3_1 (4 terms), m2 (5), the eight-term generic tau, and the generic
    tau with phase constants (the shipped taus have phase 0 in every term)."""
    taus = {"c3_1": solutions["c3_1"].tau, "m2": solutions["m2"].tau,
            "generic": make_generic((1, 2, 3), (0.1, 0.2, 0.35)).tau,
            "generic xi0": make_generic((1, 2, 3), (0.1, 0.2, 0.35), xi0=(0.4, -1.1, 0.7)).tau}
    assert [len(tau) for tau in taus.values()] == [4, 5, 8, 8]
    assert all(col.any() for col in taus["generic xi0"].columns)
    return taus


def test_einsum_moments_bitwise_equal_to_per_beta_reference(solutions, monkeypatch):
    """The in-place weights, the one-einsum moments and the in-place
    recursion give the bits of the per-beta kernel: two and three points, a
    broadcast, a cross-section's 801 points, 4097 points (two blocks) and a
    150 x 151 grid.  One point does not reach this kernel (see
    test_one_point_bitwise_equal_to_numpy_one_point)."""
    rng = np.random.default_rng(53)
    u = lambda *shape: rng.uniform(-9.0, 9.0, shape)
    inputs = [("2 points", u(2), u(2), u(2)), ("3 points", u(3), u(3), 0.4),
              ("41 x 7", u(41, 1), u(7), -1.3), ("801", u(801), u(801), 10.0),
              ("4097", u(4097), u(4097), u(4097)),
              ("150 x 151", np.linspace(-30, 30, 150)[:, None], np.linspace(-30, 30, 151), 2.5)]
    for name, tau in _kernel_taus(solutions).items():
        for indices in (((0, 0, 0),), RESIDUAL_INDICES):
            for label, x, y, t in inputs:
                got = u_partials(tau, x, y, t, indices)
                want = _per_beta(monkeypatch, lambda: u_partials(tau, x, y, t, indices))
                for idx in indices:
                    assert type(got[idx]) is type(want[idx]), (name, label, idx)
                    assert np.shape(got[idx]) == np.shape(want[idx]), (name, label, idx)
                    assert np.asarray(got[idx]).tobytes() == np.asarray(want[idx]).tobytes(), \
                        (name, label, idx)


def test_kernel_peak_memory_no_higher_than_per_beta_reference(solutions, monkeypatch):
    """Traced peak bytes of the bundle and of u alone on 2e4 points are no
    higher than the per-beta kernel's."""
    import tracemalloc
    x, y, t = np.random.default_rng(59).uniform(-20.0, 20.0, (3, 20_000))

    def peak(tau, indices):
        u_partials(tau, 0.0, 0.0, 0.0, indices)  # the plan, outside the trace
        tracemalloc.start()
        try:
            u_partials(tau, x, y, t, indices)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for name, tau in _kernel_taus(solutions).items():
        for indices in (((0, 0, 0),), RESIDUAL_INDICES):
            got = peak(tau, indices)
            want = _per_beta(monkeypatch, lambda: peak(tau, indices))
            assert got <= want, (name, len(indices), got / x.size, want / x.size)


def test_tau_columns_are_read_only_and_not_compared():
    tau = one_soliton(k=2.0, p=0.5)
    coeff, kx, py, wt, phase = tau.columns
    assert kx.tolist() == [0.0, 2.0] and py.tolist() == [0.0, 0.5]
    with pytest.raises(ValueError):
        kx[0] = 1.0
    assert tau == one_soliton(k=2.0, p=0.5)
    assert hash(tau) == hash(one_soliton(k=2.0, p=0.5))
    assert "columns" not in repr(tau)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(k=st.floats(0.5, 3.0), delta=st.floats(-5.0, 5.0), x=st.floats(-10.0, 10.0))
def test_translation_covariance(k, delta, x):
    base = one_soliton(k=k)
    shifted = one_soliton(k=k, phase=delta)
    u1 = u_on_grid(shifted, x, 0.0, 0.0)
    u2 = u_on_grid(base, x + delta / k, 0.0, 0.0)
    assert u1 == pytest.approx(u2, abs=1e-12)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(lam=st.floats(1e-3, 1e3))
def test_coefficient_scaling_invariance(lam):
    sol = build_scenario("w2")
    scaled = ExpSumTau(tuple(ExpTerm(t.coeff * lam, t.kx, t.py, t.wt, t.phase)
                             for t in sol.tau.terms))
    pt = (1.2, -0.7, 0.5)
    indices = [(0, 0, 0), (1, 0, 0), (0, 2, 0)]
    a = u_partials(sol.tau, *pt, indices)
    b = u_partials(scaled, *pt, indices)
    for idx in indices:
        assert b[idx] == pytest.approx(a[idx], abs=1e-12)


# --- the one-point path ---------------------------------------------------------

def _one_point_taus(solutions):
    """The shipped taus, the eight-term generic one, seeded taus of 1 to 12
    terms (some coefficients 0), and a tau whose columns reach 1e155 and
    beyond, so that its squares (and the weights built from them) overflow."""
    rng = np.random.default_rng(61)
    taus = {name: sol.tau for name, sol in solutions.items()}
    taus["generic"] = make_generic((1, 2, 3), (0.1, 0.2, 0.35)).tau
    for n in range(1, 13):
        coeff = rng.uniform(0.0, 3.0, n)
        coeff[rng.random(n) < 0.2] = 0.0
        coeff[0] = 1.0
        cols = rng.normal(0.0, 2.0, (4, n))
        taus[f"random {n}"] = ExpSumTau(tuple(ExpTerm(float(c), *map(float, row))
                                              for c, row in zip(coeff, cols.T)))
    taus["huge"] = ExpSumTau((ExpTerm(1.0, 0.0, 0.0, 0.0), ExpTerm(1.0, 1e155, 0.0, 0.5),
                              ExpTerm(2.0, -3e160, 1e156, 1.0, 0.3)))
    return taus


def _one_points(rng):
    """Seeded points, far-field points (u underflows there), every sign of
    zero, and NaN and infinite coordinates."""
    points = [tuple(p) for p in rng.uniform(-9.0, 9.0, (30, 3))]
    points += [tuple(p) for p in rng.uniform(-1.0, 1.0, (12, 3)) * [[300.0, 300.0, 30.0]]]
    points += list(itertools.product((0.0, -0.0, 0.7), repeat=3))
    points += list(itertools.product((math.nan, math.inf, -math.inf, 0.3), repeat=3))
    return points


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_one_point_bitwise_equal_to_numpy_one_point(solutions):
    """A one-point call keeps every bit of numpy's evaluation of one point,
    the signs of zeros and NaNs included: u and the six residual partials on
    every tau and point of _one_point_taus and _one_points.  Below 8 terms
    the two-point array evaluation gives the same bits, but where both are
    NaN its NaN can differ: numpy picks among NaN operands differently for
    one point and for several."""
    rng = np.random.default_rng(67)
    points = _one_points(rng)
    far = 0
    for name, tau in _one_point_taus(solutions).items():
        for x, y, t in points:
            for indices in (((0, 0, 0),), RESIDUAL_INDICES):
                got = u_partials(tau, x, y, t, indices)
                want = _reference_partials(tau, x, y, t, indices)
                pair = (u_partials(tau, *np.repeat([[x, y, t]], 2, axis=0).T, indices)
                        if len(tau) < 8 else None)
                for idx in indices:
                    assert np.asarray(got[idx]).tobytes() == want[idx].tobytes(), \
                        (name, (x, y, t), idx, got[idx], want[idx])
                    if pair is not None and not (np.isnan(got[idx]) and np.isnan(pair[idx][0])):
                        assert np.asarray(got[idx]).tobytes() == pair[idx][:1].tobytes(), \
                            (name, (x, y, t), idx)
            far += name in solutions and 0.0 <= float(got[(0, 0, 0)]) < 2.2250738585072014e-308
    assert far  # some far-field u are subnormal or 0


def test_one_point_return_types_and_shapes():
    """np.float64 for Python and numpy scalars and 0-d arrays, an array of
    the broadcast shape for length-1 arrays; u_on_grid gives arrays."""
    tau = make_generic((1, 2, 3), (0.1, 0.2, 0.35)).tau
    want = u_partials(tau, 0.3, -0.7, 1.1, RESIDUAL_INDICES)
    cases = [((0.3, -0.7, 1.1), ()), ((np.float64(0.3), -0.7, np.float64(1.1)), ()),
             ((np.array(0.3), np.array(-0.7), np.array(1.1)), ()),
             ((np.array([0.3]), -0.7, 1.1), (1,)),
             ((np.array([0.3]), np.array([[-0.7]]), np.array(1.1)), (1, 1)),
             ((np.array([[0.3]]), np.array([[-0.7]]), np.array([[1.1]])), (1, 1))]
    for args, shape in cases:
        got = u_partials(tau, *args, RESIDUAL_INDICES)
        for idx in RESIDUAL_INDICES:
            if shape:
                assert type(got[idx]) is np.ndarray and got[idx].shape == shape
                assert got[idx].dtype == np.float64
            else:
                assert type(got[idx]) is np.float64
            assert np.asarray(got[idx]).reshape(-1)[0] == want[idx]
        u = u_on_grid(tau, *args)
        assert type(u) is np.ndarray and u.shape == shape


def test_one_point_calls_take_the_float_path(monkeypatch):
    """Every input of one point, whatever its shape, is evaluated in Python
    floats: the array kernel is not reached."""
    import kpii_stem.tau as tau_module

    def refuse(*args):
        raise AssertionError("array kernel taken")

    monkeypatch.setattr(tau_module, "_block", refuse)
    monkeypatch.setattr(tau_module, "_blocked", refuse)
    tau = one_soliton(k=2.0, p=0.5)
    for args in [(0.1, 0.2, 0.3), (np.array(0.1), 0.2, 0.3), ([0.1], [0.2], [0.3]),
                 (np.array([[0.1]]), np.array([0.2]), 0.3)]:
        u_partials(tau, *args, RESIDUAL_INDICES)
        u_on_grid(tau, *args)
    with pytest.raises(AssertionError):
        u_on_grid(tau, [0.1, 0.2], 0.2, 0.3)
