"""Core tau-function evaluation: values, logs, u, exact partial derivatives."""

import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpii_stem import (
    ExpSumTau,
    ExpTerm,
    eval_partials,
    eval_tau,
    eval_u,
    log_eval_tau,
    make_generic,
    omega,
    u_on_grid,
)
from kpii_stem.errors import DomainError, UnsupportedDerivativeError

from conftest import build_scenario, richardson_fd


def one_soliton(k=2.0, p=0.0, phase=0.0):
    return ExpSumTau((ExpTerm(1.0, 0.0, 0.0, 0.0),
                      ExpTerm(1.0, k, p, omega(k, p), phase)))


def mp_tau(tau, x, y, t):
    with mpmath.workdps(60):
        return sum(mpmath.mpf(term.coeff)
                   * mpmath.exp(mpmath.mpf(term.kx) * x + mpmath.mpf(term.py) * y
                                + mpmath.mpf(term.wt) * t + mpmath.mpf(term.phase))
                   for term in tau.terms)


def test_constant_tau_is_one():
    tau = ExpSumTau((ExpTerm(1.0, 0.0, 0.0, 0.0),))
    assert eval_tau(tau, (3.0, -4.0, 5.0)) == 1.0
    assert log_eval_tau(tau, (3.0, -4.0, 5.0)) == 0.0


def test_two_unit_terms_at_origin():
    tau = ExpSumTau((ExpTerm(1.0, 0.0, 0.0, 0.0), ExpTerm(1.0, 1.0, 0.0, 0.0)))
    assert eval_tau(tau, (0.0, 0.0, 0.0)) == pytest.approx(2.0, abs=0)


def test_reference_tau_at_origin_high_precision(solutions):
    # value at the origin is the plain coefficient sum; checked against a
    # 60-digit evaluation
    sol = solutions["c2_1"]
    got = eval_tau(sol.tau, (0.0, 0.0, 0.0))
    want = float(mp_tau(sol.tau, 0, 0, 0))
    assert got == pytest.approx(want, rel=1e-15)
    assert got == pytest.approx(74.0 / 13.0, rel=1e-14)


def test_log_eval_dominated_sum():
    tau = ExpSumTau((ExpTerm(1.0, 0.0, 0.0, 0.0), ExpTerm(1.0, 1000.0, 0.0, 0.0)))
    assert log_eval_tau(tau, (1.0, 0.0, 0.0)) == pytest.approx(1000.0, abs=1e-12)


def test_log_eval_matches_mpmath_random_terms():
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
            want = float(mpmath.log(mp_tau(tau, x, y, t)))
        assert log_eval_tau(tau, (x, y, t)) == pytest.approx(want, rel=1e-12)


def test_one_soliton_peak_value():
    # u = (k^2/2) sech^2(xi/2) peaks at k^2/2
    assert eval_u(one_soliton(k=2.0), (0.0, 0.0, 0.0)).u == pytest.approx(2.0, rel=1e-14)


def test_one_soliton_far_tail():
    tau = one_soliton(k=2.0)
    for xi in (40.0, -40.0):
        assert eval_u(tau, (xi / 2.0, 0.0, 0.0)).u < 1e-15


def test_u_matches_finite_difference_of_log(solutions):
    sol = solutions["c3_1"]
    f = lambda x: 2.0 * log_eval_tau(sol.tau, (x, 0.0, 0.0))
    fd_second = richardson_fd(lambda x: richardson_fd(f, x, 1e-3), 0.0, 1e-3)
    assert eval_u(sol.tau, (0.0, 0.0, 0.0)).u == pytest.approx(fd_second, abs=1e-6)


def test_partials_constant_tau_vanish():
    tau = ExpSumTau((ExpTerm(1.0, 0.0, 0.0, 0.0),))
    sample = eval_partials(tau, (1.0, 2.0, 3.0),
                           [(1, 0, 0), (2, 0, 0), (0, 2, 0), (1, 0, 1)])
    assert sample.u == 0.0
    assert all(v == 0.0 for v in sample.partials.values())


def test_peak_is_critical_point():
    sample = eval_partials(one_soliton(k=2.0), (0.0, 0.0, 0.0), [(1, 0, 0)])
    assert abs(sample.partials[(1, 0, 0)]) < 1e-12


def test_mixed_partial_matches_nested_fd():
    rng = np.random.default_rng(17)
    terms = tuple(ExpTerm(float(c), float(kx), float(py), float(wt))
                  for c, kx, py, wt in zip(rng.uniform(0.3, 2.0, 3),
                                           rng.uniform(-1.5, 1.5, 3),
                                           rng.uniform(-1.5, 1.5, 3),
                                           rng.uniform(-1.5, 1.5, 3)))
    tau = ExpSumTau(terms)
    pt = (0.3, -0.4, 0.2)
    got = eval_partials(tau, pt, [(1, 1, 0)]).partials[(1, 1, 0)]
    fd = richardson_fd(
        lambda y: richardson_fd(
            lambda x: eval_u(tau, (x, y, pt[2])).u, pt[0], 1e-3),
        pt[1], 1e-3)
    assert got == pytest.approx(fd, rel=1e-5)


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
    from kpii_stem.tau import _u_partials
    for seed in (133, *PARTIALS_REGRESSION_SEEDS.get(name, ())):
        rng = np.random.default_rng(seed)
        pts = np.column_stack([rng.uniform(-10, 10, 100),
                               rng.uniform(-10, 10, 100),
                               rng.uniform(-3, 3, 100)])
        got = _u_partials(sol.tau, pts[:, 0], pts[:, 1], pts[:, 2], indices)
        with mpmath.workdps(50):
            for n, (x, y, t) in enumerate(pts.tolist()):
                for idx, shifted in (((1, 0, 0), lambda h: u_mp(x + h, y, t)),
                                     ((0, 1, 0), lambda h: u_mp(x, y + h, t)),
                                     ((0, 0, 1), lambda h: u_mp(x, y, t + h))):
                    want = float(mpmath.diff(shifted, 0))
                    assert abs(got[idx][n] - want) / max(1.0, abs(want)) < 1e-5


def test_high_order_partials_match_fd_scalar(solutions):
    sol = solutions["w2"]
    pt = (0.7, -1.3, 0.4)
    vals = eval_partials(sol.tau, pt, [(2, 0, 0), (0, 2, 0), (4, 0, 0), (1, 0, 1)])

    def u_at(x=pt[0], y=pt[1], t=pt[2]):
        return eval_u(sol.tau, (x, y, t)).u

    dxx = richardson_fd(lambda x: richardson_fd(
        lambda x2: u_at(x=x2), x, 1e-3), pt[0], 1e-3)
    assert vals.partials[(2, 0, 0)] == pytest.approx(dxx, rel=1e-5)
    dyy = richardson_fd(lambda y: richardson_fd(
        lambda y2: u_at(y=y2), y, 1e-3), pt[1], 1e-3)
    assert vals.partials[(0, 2, 0)] == pytest.approx(dyy, rel=1e-5)
    dtx = richardson_fd(lambda t: richardson_fd(
        lambda x: u_at(x=x, t=t), pt[0], 1e-3), pt[2], 1e-3)
    assert vals.partials[(1, 0, 1)] == pytest.approx(dtx, rel=1e-4)
    # fourth x-derivative: nest second differences
    d2 = lambda x: (u_at(x=x + 1e-2) - 2 * u_at(x=x) + u_at(x=x - 1e-2)) / 1e-4
    d4 = (d2(pt[0] + 1e-2) - 2 * d2(pt[0]) + d2(pt[0] - 1e-2)) / 1e-4
    assert vals.partials[(4, 0, 0)] == pytest.approx(d4, rel=1e-3)


def test_unsupported_derivative_orders():
    tau = one_soliton()
    for idx in [(5, 0, 0), (0, 3, 0), (0, 0, 2), (3, 2, 0)]:
        with pytest.raises(UnsupportedDerivativeError):
            eval_partials(tau, (0.0, 0.0, 0.0), [idx])


def test_non_finite_point_rejected():
    tau = one_soliton()
    with pytest.raises(DomainError):
        eval_tau(tau, (math.inf, 0.0, 0.0))
    with pytest.raises(DomainError):
        eval_u(tau, (0.0, math.nan, 0.0))


def test_negative_coefficient_rejected():
    with pytest.raises(DomainError):
        ExpTerm(-1.0, 0.0, 0.0, 0.0)


def test_duplicate_exponents_merge():
    tau = ExpSumTau((ExpTerm(1.0, 1.0, 0.0, 0.0, phase=0.0),
                     ExpTerm(2.0, 1.0, 0.0, 0.0, phase=math.log(2.0))))
    assert len(tau) == 1
    assert eval_tau(tau, (0.0, 0.0, 0.0)) == pytest.approx(5.0, rel=1e-15)


def test_positivity_over_wide_window(solutions):
    rng = np.random.default_rng(23)
    for sol in solutions.values():
        pts = rng.uniform(-100.0, 100.0, (12000, 3))
        for x, y, t in pts[:: len(pts) // 30]:
            assert log_eval_tau(sol.tau, (x, y, t)) > -math.inf
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
    from kpii_stem.tau import _u_partials
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
                got = _u_partials(tau, x, y, t, indices)
                want = _reference_partials(tau, x, y, t, indices)
                for idx in indices:
                    assert np.shape(got[idx]) == np.shape(want[idx])
                    assert np.asarray(got[idx]).tobytes() == np.asarray(want[idx]).tobytes()
            u = u_on_grid(tau, x, y, t)
            assert u.tobytes() == _reference_partials(tau, x, y, t, [(0, 0, 0)])[(0, 0, 0)].tobytes()


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
    u1 = eval_u(shifted, (x, 0.0, 0.0)).u
    u2 = eval_u(base, (x + delta / k, 0.0, 0.0)).u
    assert u1 == pytest.approx(u2, abs=1e-12)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(lam=st.floats(1e-3, 1e3))
def test_coefficient_scaling_invariance(lam):
    sol = build_scenario("w2")
    scaled = ExpSumTau(tuple(ExpTerm(t.coeff * lam, t.kx, t.py, t.wt, t.phase)
                             for t in sol.tau.terms))
    pt = (1.2, -0.7, 0.5)
    a = eval_partials(sol.tau, pt, [(1, 0, 0), (0, 2, 0)])
    b = eval_partials(scaled, pt, [(1, 0, 0), (0, 2, 0)])
    assert b.u == pytest.approx(a.u, abs=1e-12)
    for idx in a.partials:
        assert b.partials[idx] == pytest.approx(a.partials[idx], abs=1e-12)
