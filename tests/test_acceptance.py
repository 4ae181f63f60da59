"""Acceptance gate: ten criteria, each printed as one pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
Every tolerance is fixed here; nothing is deferred to later calibration.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from kpii_stem import (
    Branch,
    CaseSpec,
    arm_catalog,
    asymptotic_match,
    build_solution,
    cross_section,
    find_arm,
    kp_residual,
    limit_convergence,
    ridge_trace,
    stem_endpoints,
    stem_length_formula,
    stem_side,
    trajectory_line,
)

from test_catalog import RESONANT_CASES, draw_params
from test_length_oracle import junction_distance

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "golden"

CASE_NAMES = [c.value for c in RESONANT_CASES]


def report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:2d} {name:<28s} {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert ok, line


def test_criterion_01_pde_exactness(solutions):
    rng = np.random.default_rng(101)
    worst, slowest = 0.0, 0.0
    for name in CASE_NAMES:
        pts = np.column_stack([rng.uniform(-50, 50, 1000),
                               rng.uniform(-50, 50, 1000),
                               rng.uniform(-10, 10, 1000)])
        t0 = time.perf_counter()
        rep = kp_residual(solutions[name], pts)
        slowest = max(slowest, time.perf_counter() - t0)
        worst = max(worst, rep.max_abs_residual)
    report(1, "pde exactness", worst < 1e-8 and slowest < 5.0,
           f"max residual {worst:.2e}, slowest case {slowest:.2f}s")


def test_criterion_02_amplitude_limits(solutions):
    targets = {"c2_1": (169.0 / 18.0, 8.0 / 9.0), "w2": (4.5, 0.5),
               "m2": (0.125, 0.125), "c3_1": (0.5, 8.0 / 9.0)}
    worst = 0.0
    for name, (past, future) in targets.items():
        worst = max(worst, abs(stem_endpoints(solutions[name], -20.0).midpoint_amplitude - past))
        worst = max(worst, abs(stem_endpoints(solutions[name], 20.0).midpoint_amplitude - future))
    report(2, "amplitude limits", worst < 1e-3, f"max |dev| {worst:.2e}")


def _draw_solutions(case, n):
    rng = np.random.default_rng([77, RESONANT_CASES.index(case)])
    # every draw counts: a draw without a catalog fails the criterion
    return [build_solution(draw_params(rng, case), CaseSpec(case, Branch.FIRST))
            for _ in range(n)]


def test_criterion_03_endpoint_identities(solutions):
    # every stem_endpoints call checks its closed-form endpoints against the
    # line intersections and reports the relative disagreement
    times = (-20.0, -5.0, -1.0, 1.0, 5.0, 20.0)
    sols = [solutions[name] for name in CASE_NAMES]
    sols += [sol for case in RESONANT_CASES for sol in _draw_solutions(case, 50)]
    mismatch = max(stem_endpoints(sol, t).endpoint_mismatch for sol in sols for t in times)
    report(3, "endpoint identities", mismatch < 1e-9,
           f"max rel disagreement {mismatch:.2e} over reference + 50 draws/case")


def test_criterion_04_length_formulas(solutions):
    times = (-20.0, -5.0, -1.0, 1.0, 5.0, 20.0)
    worst = 0.0
    for name in CASE_NAMES:
        sol = solutions[name]
        for t in times:
            rep = stem_endpoints(sol, t)
            lf = stem_length_formula(sol, t)
            worst = max(worst, abs(lf - rep.length) / max(1.0, rep.length))
    for case in RESONANT_CASES:
        for sol in _draw_solutions(case, 50):
            for t in times:
                rep = stem_endpoints(sol, t)
                lf = stem_length_formula(sol, t)
                worst = max(worst, abs(lf - rep.length) / max(1.0, rep.length))
    zero = stem_endpoints(solutions["c3_1"], 0.0).length
    slope_worst = 0.0
    for name in CASE_NAMES:
        sol = solutions[name]
        ts = np.linspace(-30.0, -20.0, 11)
        ls = np.array([stem_endpoints(sol, float(t)).length for t in ts])
        slope = np.polyfit(ts, ls, 1)[0]
        want = (stem_length_formula(sol, -20.0) - stem_length_formula(sol, -30.0)) / 10.0
        slope_worst = max(slope_worst, abs(slope - want) / abs(want))
    ok = worst < 1e-9 and zero == 0.0 and slope_worst < 1e-6
    report(4, "length formulas", ok,
           f"max rel dev {worst:.2e}, zero-time length {zero}, slope dev {slope_worst:.2e}")


def test_criterion_05_triple_concurrency(solutions):
    # each endpoint is where its junction's three terms tie (50 digits)
    worst = max(junction_distance(solutions[name], t) for name in CASE_NAMES
                for t in (-40.0, -20.0, -5.0, -3.0, 3.0, 5.0, 20.0, 40.0))
    report(5, "triple concurrency", worst < 1e-9, f"max rel distance {worst:.2e}")


def test_criterion_06_section_extrema(solutions):
    checks = [("c2_1", -2.0, 9.389, 0.45), ("c2_1", 1.0, 0.889, 0.25),
              ("w2", -2.0, 4.499, 0.45), ("w2", 2.0, 0.500, 0.25),
              ("m2", -8.0, 0.125, 0.25), ("m2", 10.0, 0.125, 0.25)]
    worst = 0.0
    for name, t, target, frac in checks:
        sol = solutions[name]
        stem, _ = stem_side(sol, t)
        rep = stem_endpoints(sol, t)
        half = max(rep.length * frac, 1.5)
        pts = cross_section(sol, t, stem, s_range=(-half, half),
                            n_samples=2001, anchor=rep.midpoint)
        u = max(v for _, v in pts)
        worst = max(worst, abs(u - target))
    report(6, "section extrema", worst < 1e-2, f"max |dev| {worst:.2e}")


def test_criterion_07_asymptotic_match(solutions):
    worst, growth = 0.0, 0.0
    for name, sol in solutions.items():
        cat = arm_catalog(sol)
        for side, tsign in (("before", -1.0), ("after", 1.0)):
            for _, arm in getattr(cat, side):
                d20 = asymptotic_match(sol, arm, tsign * 20.0)
                d40 = asymptotic_match(sol, arm, tsign * 40.0)
                worst = max(worst, d20)
                growth = max(growth, d40 - d20)
    sol = solutions["c2_1"]
    neg = asymptotic_match(sol, find_arm(sol, "1", hat=False), -20.0,
                           profile_arm=find_arm(sol, "2", hat=False))
    ok = worst < 1e-3 and growth <= 1e-9 and neg > 0.1
    report(7, "asymptotic match", ok,
           f"max dev {worst:.2e}, max growth {growth:.1e}, control {neg:.2f}")


def test_criterion_08_limit_convergence(solutions):
    rng = np.random.default_rng(108)
    pts = np.column_stack([rng.uniform(-1.25, 1.25, 200),
                           rng.uniform(-1.25, 1.25, 200),
                           rng.uniform(-0.05, 0.05, 200)])
    worst, mono = 0.0, True
    for name in CASE_NAMES:
        devs = limit_convergence(solutions[name], [1e3, 1e4, 1e5, 1e6], pts)
        worst = max(worst, devs[-1])
        mono &= all(devs[i + 1] <= devs[i] for i in range(len(devs) - 1))
    report(8, "limit convergence", worst < 1e-4 and mono,
           f"max ladder-end dev {worst:.2e}, monotone {mono}")


def test_criterion_09_ridge_oracle(solutions):
    # ridge lines fitted on junction-distant arm sections reproduce the
    # analytic trajectories; the stem's extreme line is curved, so the stem
    # is checked through its ridge value instead
    from kpii_stem.verify import section_anchor
    worst = 0.0
    for name in CASE_NAMES:
        sol = solutions[name]
        cat = arm_catalog(sol)
        for side, tsign in (("before", -1.0), ("after", 1.0)):
            arm = getattr(cat, side)[0][1]
            t = tsign * 20.0
            anchor = section_anchor(sol, arm, t)
            line = trajectory_line(arm, t)
            trace = ridge_trace(sol, t, line, scan_window=(-5.0, 5.0),
                                n_scans=7, anchor=anchor)
            fa, fb, fc = trace.fitted_line
            la, lb, lc = line
            worst = max(worst, abs(fa - la), abs(fb - lb),
                        abs(fc - lc) / max(1.0, abs(lc)))
    sol = solutions["c3_1"]
    t = 10.0
    rep = stem_endpoints(sol, t)
    trace = ridge_trace(sol, t, trajectory_line(arm_catalog(sol).stem_future, t),
                        scan_window=(-1.0, 1.0), n_scans=5, anchor=rep.midpoint)
    vals = [v for _, _, v in trace.samples]
    value_dev = max(abs(v - 8.0 / 9.0) for v in vals)
    ok = worst < 1e-4 and value_dev < 1e-3
    report(9, "ridge oracle", ok,
           f"max arm line dev {worst:.2e}, stem value dev {value_dev:.2e}")


def test_criterion_10_cli_contract(tmp_path):
    t0 = time.perf_counter()

    def run(*args):
        return subprocess.run([sys.executable, "-m", "kpii_stem.cli", *args],
                              capture_output=True, cwd=REPO)

    ok = True
    detail = []
    # determinism + goldens on every shipped scenario
    for sc in sorted(SCENARIOS.glob("*.json")):
        r1 = run("build", "--scenario", str(sc))
        r2 = run("build", "--scenario", str(sc))
        if r1.returncode != 0 or r1.stdout != r2.stdout:
            ok = False
            detail.append(f"nondeterministic build {sc.name}")
    for name, args in (("build_c2_1.json", ("build", "--scenario",
                                            str(SCENARIOS / "c2_1.json"))),
                       ("stem_c3_1.csv", ("stem", "--scenario",
                                          str(SCENARIOS / "c3_1.json"),
                                          "--t=-20,0,20")),
                       ("section_w2.csv", ("section", "--scenario",
                                           str(SCENARIOS / "w2.json"),
                                           "--t=-2", "--line", "1-3",
                                           "--range=-10,10", "--n", "41"))):
        res = run(*args)
        if res.stdout != (GOLDEN / name).read_bytes():
            ok = False
            detail.append(f"golden mismatch {name}")
    # exit-code contract
    missing = tmp_path / "missing_k.json"
    missing.write_text('{"case": "c2_1", "k": [-1.0, -2.0], "p3": 1.0}')
    inadm = tmp_path / "inadmissible.json"
    inadm.write_text(json.dumps({"case": "c2_2",
                                 "k": [-2.0 / 3.0, -1.0, 4.0 / 3.0],
                                 "p3": 2.0 / 3.0}))
    checks = [
        ("directory scenario", 2, ("build", "--scenario", str(GOLDEN))),
        ("empty scenario", 2, ("build", "--scenario", "/dev/null")),
        ("missing field", 2, ("build", "--scenario", str(missing))),
        ("inadmissible", 3, ("build", "--scenario", str(inadm))),
        ("io", 4, ("sample", "--scenario", str(SCENARIOS / "c2_1.json"),
                   "--t", "0", "--grid=-1,1,3,-1,1,3",
                   "--out", "/nonexistent-dir/x.csv")),
    ]
    for what, want, args in checks:
        code = run(*args).returncode
        if code != want:
            ok = False
            detail.append(f"{what} exit code {code} != {want}")
    dt = time.perf_counter() - t0
    report(10, "cli contract", ok and dt < 180.0,
           "; ".join(detail) if detail else f"goldens + exit codes in {dt:.1f}s")
