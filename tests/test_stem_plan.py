"""The per-side stem plan: stem reports keep every bit of the per-call
computation they replace, the t-independent part is built once, and a
non-finite time is rejected where a side is picked."""

import json
import math
from collections import Counter
from dataclasses import fields, is_dataclass
from itertools import combinations

import numpy as np
import pytest

from kpii_stem import (Branch, Case, CaseSpec, StemReport, arm_catalog, build_case,
                       build_solution, cross_section, geometry, stem_endpoints,
                       stem_length_formula, stem_reports, stem_side, u_on_grid, _closed_forms)
from kpii_stem.cli import load_scenario, main
from kpii_stem.geometry import normalize_line
from kpii_stem.errors import (DegenerateLineError, DomainError, InternalConsistencyError,
                              KPStemError, UnsupportedCaseError)

from conftest import SCENARIOS, build_scenario
from test_catalog import RESONANT_CASES, draw_params

TIMES = (-400.0, -20.0, -3.0, -0.5, 0.0, 1e-3, 0.5, 3.0, 20.0, 400.0)
SCENARIO_NAMES = sorted(p.stem for p in SCENARIOS.glob("*.json"))


# --- the per-call computation the plan replaced, kept as the reference ------

def _junction_reference(sol, junction, t):
    """The best-conditioned two of the junction's three pair lines at t, as
    normalize_line writes them and in the order the plan reads them, and
    where the two meet with their phase-constant offsets alone."""
    coeff = dict(sol.template)
    lines = []
    for a, b in combinations(frozenset(junction), 2):
        d, offset = [x - y for x, y in zip(a, b)], math.log(coeff[a] / coeff[b])
        if (d[0] or d[1] or d[2]) < 0:     # the first nonzero entry leads
            d, offset = [-v for v in d], -offset
        K, P, W, s0 = sol.exponent_of(tuple(d))
        lines.append((normalize_line((K, P, W * t + s0 + offset)), normalize_line((K, P, s0))))
    ((A1, B1, C1), (_, _, X1)), ((A2, B2, C2), (_, _, X2)) = max(
        combinations(lines, 2),
        key=lambda p: abs(p[0][0][0] * p[1][0][1] - p[1][0][0] * p[0][0][1]))
    det = A1 * B2 - A2 * B1
    if abs(det) <= 1e-12 * max(math.hypot(A1, B1) * math.hypot(A2, B2), 1e-300):
        raise DegenerateLineError(f"junction lines are parallel: {junction}")
    return (((-C1 * B2 + C2 * B1) / det, (-A1 * C2 + A2 * C1) / det),
            ((-X1 * B2 + X2 * B1) / det, (-A1 * X2 + A2 * X1) / det))


def _stem_endpoints_reference(sol, t, t_min=3.0):
    """stem_endpoints without the plan: every t-independent part (line
    normals, the best pair, the closed-form coefficients, ln a12 products,
    the phase-constant shift) rebuilt on each call, u evaluated at one
    scalar point."""
    if sol.spec.case is Case.GENERIC:
        raise UnsupportedCaseError("stem endpoints require a resonant case")
    cat = arm_catalog(sol)
    junctions = cat.past_junctions if t <= 0 else cat.future_junctions
    ends = [_junction_reference(sol, junction, t) for junction in junctions]
    pts, mismatch = [], 0.0
    for junction, (geo, shift) in zip(junctions, ends):
        closed = _closed_endpoint_reference(sol, junction, t, shift)
        err = math.hypot(geo[0] - closed[0], geo[1] - closed[1])
        scale = max(1.0, math.hypot(*geo), math.hypot(*closed))
        if not (all(map(math.isfinite, geo + closed)) and err <= 1e-9 * scale):
            raise InternalConsistencyError(
                f"closed-form and geometric endpoints disagree: {geo} vs {closed}")
        mismatch = max(mismatch, err / scale)
        pts.append(geo)
    (xa, ya), (xb, yb) = pts
    mid = ((xa + xb) / 2.0, (ya + yb) / 2.0)
    amp = float(u_on_grid(sol.tau, mid[0], mid[1], t))
    size = max(abs(K * mid[0]) + abs(P * mid[1]) + abs(W * t) + abs(s0)
               for K, P, W, s0 in (sol.exponent_of(eps) for eps, c in sol.template if c > 0))
    return StemReport(t=t, endpoint_a=(xa, ya), endpoint_b=(xb, yb),
                      length=math.hypot(xa - xb, ya - yb), midpoint=mid,
                      midpoint_amplitude=amp,
                      valid=abs(t) >= t_min and 2.0**-53 * size <= 1e-9 / 8,
                      endpoint_mismatch=mismatch)


def _closed_endpoint_reference(sol, junction, t, shift):
    """The VERTEX endpoint, y negated on the second branch, moved by shift."""
    k1, k2, k3 = sol.params.k
    p3 = sol.params.p[2]
    mirror = -1.0 if sol.spec.branch is Branch.SECOND else 1.0
    xt, xL, yt, yL = (f(k1, k2, k3, mirror * p3)
                      for f in _closed_forms.VERTEX[sol.spec.case.value][junction])
    return (xt * t + (xL * sol.log_a12 + shift[0]),
            mirror * yt * t + (mirror * (yL * sol.log_a12) + shift[1]))


def _stem_length_reference(sol, t):
    """The distance between the closed-form endpoints, rebuilt on each call."""
    if sol.spec.case is Case.GENERIC:
        raise UnsupportedCaseError("stem length requires a resonant case")
    cat = arm_catalog(sol)
    junctions = cat.past_junctions if t <= 0 else cat.future_junctions
    (xa, ya), (xb, yb) = (_closed_endpoint_reference(sol, j, t, _junction_reference(sol, j, t)[1])
                          for j in junctions)
    return math.hypot(xa - xb, ya - yb)


def _bits(value):
    """value with every float as its hex form, so that == compares bits
    (the sign of a zero included)."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return type(value)(_bits(v) for v in value)
    if is_dataclass(value):
        return {f.name: _bits(getattr(value, f.name)) for f in fields(value)}
    return value


def _outcome(fn, *args):
    try:
        return _bits(fn(*args))
    except KPStemError as exc:
        return type(exc), str(exc)


def _solutions():
    sols = {name: build_scenario(name) for name in SCENARIO_NAMES}
    for case in RESONANT_CASES:
        for branch in Branch:
            rng = np.random.default_rng([1709, RESONANT_CASES.index(case), branch is Branch.SECOND])
            for i in range(6):
                spec = CaseSpec(case, branch)
                sols[f"{case}_{branch.value}_{i}"] = build_solution(draw_params(rng, case, branch),
                                                                   spec)
    # phase constants shift the closed-form endpoints
    for case in ("c3_1", "m2"):
        params = sols[case].params
        sols[f"{case}_xi0"] = build_case(case, params.k, params.p[2], xi0=(0.3, -0.7, 1.1))
    return sols


@pytest.fixture(scope="module")
def plan_solutions():
    return _solutions()


def test_stem_reports_keep_the_bits_of_the_per_call_computation(plan_solutions):
    compared = Counter()
    for name, sol in plan_solutions.items():
        for t in TIMES:
            want = _outcome(_stem_endpoints_reference, sol, t)
            assert _outcome(stem_endpoints, sol, t) == want, (name, t)
            assert _outcome(_stem_length_reference, sol, t) == \
                _outcome(stem_length_formula, sol, t), (name, t)
            compared["error" if isinstance(want, tuple) else "report"] += 1
        # a vector of times is the list of one-time reports
        try:
            vector = _bits(stem_reports(sol, TIMES))
        except KPStemError:
            continue
        assert vector == [_bits(stem_endpoints(sol, t)) for t in TIMES], name
    # the draws are not all refused
    assert compared["report"] >= 0.9 * sum(compared.values())


def test_stem_reports_of_no_times_is_empty(plan_solutions):
    assert stem_reports(plan_solutions["c2_1"], []) == []


def _stem_cli_reference(name, ts, fmt):
    sc = load_scenario(SCENARIOS / f"{name}.json")
    sol = sc.build()
    rows, mismatches = [], []
    for t in ts:
        rep = _stem_endpoints_reference(sol, t, t_min=sc.t_min)
        rows.append({"t": t, "ax": rep.endpoint_a[0], "ay": rep.endpoint_a[1],
                     "bx": rep.endpoint_b[0], "by": rep.endpoint_b[1],
                     "length": rep.length, "length_closed_form": _stem_length_reference(sol, t),
                     "midpoint_x": rep.midpoint[0], "midpoint_y": rep.midpoint[1],
                     "midpoint_amplitude": rep.midpoint_amplitude, "valid": rep.valid})
        mismatches.append(rep.endpoint_mismatch)
    from kpii_stem import __version__
    from kpii_stem.cli import _scenario_echo
    if fmt == "csv":
        return "".join([f"# kpii-stem v{__version__} case={sc.case}\n",
                        ",".join(rows[0]) + "\n"]
                       + [",".join(map(repr, row.values())) + "\n" for row in rows])
    rows = [dict(row, endpoint_mismatch=m) for row, m in zip(rows, mismatches)]
    return json.dumps({"version": __version__, "scenario": _scenario_echo(sc),
                       "rows": rows}, indent=2) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_stem_command_matches_per_time_reference(capsys, name, fmt):
    code = main(["stem", "--scenario", str(SCENARIOS / f"{name}.json"),
                 "--t=" + ",".join(repr(t) for t in TIMES), "--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    assert out == _stem_cli_reference(name, TIMES, fmt)


# --- the plan is built once per side and shared by every query ---------------

def _count_calls(monkeypatch, names):
    counts = Counter()
    for name in names:
        fn = getattr(geometry, name)

        def counted(*args, _name=name, _fn=fn, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(geometry, name, counted)
    return counts


@pytest.mark.parametrize("name", ["c2_1", "m2", "c3_2"])
def test_stem_plan_is_built_once_per_side(monkeypatch, name):
    counts = _count_calls(monkeypatch, ("_plan_end", "_closed_form", "_junction_arms",
                                        "arm_catalog"))
    sol = build_scenario(name)
    for t in (-20.0, 20.0):
        stem_endpoints(sol, t)
        stem_length_formula(sol, t)
    assert counts["_plan_end"] == 4
    counts.clear()
    for t in TIMES:
        stem_endpoints(sol, t)
        stem_length_formula(sol, t)
    stem_reports(sol, TIMES)
    assert not counts


def test_one_u_call_per_stem_query(monkeypatch):
    sol = build_scenario("c2_1")
    counts = _count_calls(monkeypatch, ("u_on_grid",))
    for t in TIMES:
        stem_endpoints(sol, t)
    assert counts["u_on_grid"] == len(TIMES)
    counts.clear()
    stem_reports(sol, TIMES)
    assert counts["u_on_grid"] == 1
    # the default section anchor is the stem midpoint; u is not needed there
    counts.clear()
    cross_section(sol, 20.0, (1.0, 0.0, 0.0), n_samples=11)
    assert counts["u_on_grid"] == 1


def test_plan_shares_the_sign_rule_of_normalize_line(monkeypatch):
    counts = _count_calls(monkeypatch, ("_orientation",))
    assert normalize_line((-3.0, 4.0, 1.0)) == (0.6, -0.8, -0.2)
    assert counts["_orientation"] == 1
    counts.clear()
    sol = build_scenario("c3_1")
    stem_endpoints(sol, -20.0)
    # three lines at each of the two end junctions
    assert counts["_orientation"] == 6


# --- a non-finite time has no side ---------------------------------------------

@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_nonfinite_time_is_a_domain_error(t):
    sol = build_scenario("c3_1")
    calls = (lambda: stem_side(sol, t), lambda: stem_endpoints(sol, t),
             lambda: stem_reports(sol, [-20.0, t]), lambda: stem_length_formula(sol, t),
             lambda: cross_section(sol, t, (1.0, 0.0, 0.0)))
    for call in calls:
        with pytest.raises(DomainError, match="finite time"):
            call()
    # finite times still answer, from both sides
    assert stem_endpoints(sol, -20.0).valid and stem_endpoints(sol, 20.0).valid
