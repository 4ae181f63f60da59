"""The three closed-loop workloads: seeded input generators, requests, checks.

Every generator draws from ``numpy.random.default_rng((seed, stream))`` with a
fixed integer stream per workload, so the same seed gives the same inputs in
any process (no ``hash()``).  The request mix of one cycle has a fixed
composition; the seed only decides its order and the continuous values.  A
request returns a result that its check inspects after the timed interval;
the check returns an error message or None.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

from kpii_stem import catalog, cli, geometry, verify
from kpii_stem.errors import (
    DegenerateParameterError,
    InadmissibleParameterError,
    InternalConsistencyError,
)

RESONANT_CASES = ("c2_1", "c2_2", "c2_3", "c2_4", "w2", "m2", "c3_1", "c3_2")
BRANCHES = ("first", "second")

# stem_sweep: the stem report times and the section along an after-side arm
STEM_TIMES = (-20.0, 20.0, -10.0, 10.0, -5.0, 5.0, -3.0, 3.0)
SECTION_T, SECTION_POINTS = 10.0, 801

# oracle_verify: sizes and acceptance-gate bounds (tests/test_acceptance.py)
RESIDUAL_POINTS, LIMIT_POINTS = 20_000, 200
LADDER = (1e3, 1e4, 1e5, 1e6)
ASYMPTOTIC_T, RIDGE_T, RIDGE_SCANS = 20.0, 20.0, 7
RESIDUAL_TOL, LADDER_TOL, ASYMPTOTIC_TOL, RIDGE_TOL = 1e-8, 1e-4, 1e-3, 1e-4

# field_sample: one cycle is 12 requests, 8 small grids (per-term arrays fit
# a 2 MiB L2) and 4 large ones, CSV and JSON at 3:1 in each size class.  With
# 2:1 small:large the median falls inside the small-CSV requests and p90
# inside the large-CSV ones, so neither quantile sits on the gap between two
# request kinds.  Scenarios rotate independently: every 36 requests use each
# shipped scenario four times.
SMALL_GRID, LARGE_GRID = (145, 155), (295, 305)
FIELD_MIX = {("small", "csv"): 6, ("small", "json"): 2,
             ("large", "csv"): 3, ("large", "json"): 1}
SCENARIO_REPEATS = 4
FIELD_SUBSAMPLE = 16
FIELD_TOL = 1e-10
GRID_HALF_WIDTH = 30.0
# t is drawn from [-FIELD_T, FIELD_T], where the interaction region of every
# shipped scenario lies in the grid's box.  Further out a scenario's field
# leaves the box and u underflows to 0.0 over much of the grid (all of it for
# c2_1_alt at t = 17.5); a 0.0 prints faster than a full-precision value, so
# request cost then hangs on which scenario drew which t.
FIELD_T = 5.0

STREAMS = {"field_sample": 1, "stem_sweep": 2, "oracle_verify": 3}


def library_api() -> SimpleNamespace:
    """The entry points a request calls; tracing swaps in wrapped versions."""
    return SimpleNamespace(
        cli_main=cli.main,
        build_case=catalog.build_case,
        arm_catalog=geometry.arm_catalog,
        stem_endpoints=geometry.stem_endpoints,
        stem_length_formula=geometry.stem_length_formula,
        cross_section=geometry.cross_section,
        velocity_table=geometry.velocity_table,
        trajectory_line=geometry.trajectory_line,
        kp_residual=verify.kp_residual,
        limit_convergence=verify.limit_convergence,
        asymptotic_match=verify.asymptotic_match,
        section_anchor=verify.section_anchor,
        ridge_trace=verify.ridge_trace,
    )


@dataclass
class Workload:
    name: str
    cycle: int                          # requests in one cycle of the mix
    requests: list                      # a whole number of cycles
    call: Callable[[Any, SimpleNamespace], Any]
    check: Callable[[Any, Any], str | None]
    info: dict = field(default_factory=dict)


def scenario_paths(root: Path) -> list[Path]:
    return sorted((root / "scenarios").glob("*.json"))


def make(name: str, seed: int, root: Path, out_dir: Path, cycles: int | None = None) -> Workload:
    rng = np.random.default_rng((seed, STREAMS[name]))
    if name == "field_sample":
        return _field_sample(rng, root, out_dir, cycles or 24)
    if name == "stem_sweep":
        # 640 draws; a run repeats each about 13 times
        return _stem_sweep(rng, cycles or 40)
    if name == "oracle_verify":
        return _oracle_verify(rng, root, cycles or 4)
    raise ValueError(f"unknown workload {name!r}")


# ------------------------------------------------------------ field_sample

@dataclass(frozen=True)
class SampleRequest:
    scenario: str
    case: str
    t: float
    nx: int
    ny: int
    fmt: str
    out: str
    subsample: tuple                    # flat indices i * ny + j

    def argv(self) -> list[str]:
        w = GRID_HALF_WIDTH
        return ["sample", "--scenario", self.scenario, f"--t={self.t!r}",
                f"--grid={-w!r},{w!r},{self.nx},{-w!r},{w!r},{self.ny}",
                "--out", self.out, "--format", self.fmt]


def _max_arm_amplitude(sol) -> float:
    cat = geometry.arm_catalog(sol)
    arms = [a for _, a in cat.before] + [a for _, a in cat.after]
    return max(a.amplitude for a in arms + [cat.stem_past, cat.stem_future])


def _field_sample(rng, root: Path, out_dir: Path, cycles: int) -> Workload:
    paths = scenario_paths(root)
    refs = {}
    for p in paths:
        sol = cli.load_scenario(str(p)).build()
        terms = [t for t in sol.tau.terms if t.coeff > 0]
        ld = lambda vals: np.array(vals, dtype=np.longdouble)
        refs[str(p)] = SimpleNamespace(
            case=sol.spec.case.value, tol=FIELD_TOL * _max_arm_amplitude(sol),
            kx=ld([t.kx for t in terms]), py=ld([t.py for t in terms]),
            wt=ld([t.wt for t in terms]),
            c0=ld([t.phase for t in terms]) + np.log(ld([t.coeff for t in terms])))
    kinds = [kind for kind, n in FIELD_MIX.items() for _ in range(n)]
    order = np.concatenate([rng.permutation(len(kinds)) for _ in range(cycles)])
    block = np.repeat(np.arange(len(paths)), SCENARIO_REPEATS)
    rounds = -(-len(order) // len(block))
    scen = np.concatenate([rng.permutation(block) for _ in range(rounds)])
    requests = []
    for k, s in zip(order, scen):
        size, fmt = kinds[k]
        lo, hi = SMALL_GRID if size == "small" else LARGE_GRID
        nx, ny = (int(v) for v in rng.integers(lo, hi + 1, 2))
        p = str(paths[s])
        requests.append(SampleRequest(
            scenario=p, case=refs[p].case,
            t=float(rng.uniform(-FIELD_T, FIELD_T)), nx=nx, ny=ny, fmt=fmt,
            out=str(out_dir / f"sample.{fmt}"),
            subsample=tuple(int(v) for v in rng.choice(nx * ny, FIELD_SUBSAMPLE, replace=False))))

    def call(req: SampleRequest, api):
        return api.cli_main(req.argv())

    def check(req: SampleRequest, code):
        if code != cli.EXIT_OK:
            return f"exit code {code}"
        return _check_sample_file(req, refs[req.scenario])

    info = {"cycle_mix": {f"{s}/{f}": n for (s, f), n in FIELD_MIX.items()},
            "scenarios": len(paths)}
    return Workload("field_sample", len(kinds), requests, call, check, info)


def _reference_u(ref, x, y, t):
    """u = 2 (mu2 - mu1^2) in long double, by log-sum-exp over the tau terms."""
    x, y = np.asarray(x, np.longdouble), np.asarray(y, np.longdouble)
    e = (ref.kx[:, None] * x + ref.py[:, None] * y
         + ref.wt[:, None] * np.longdouble(t) + ref.c0[:, None])
    w = np.exp(e - e.max(axis=0))
    s0 = w.sum(axis=0)
    mu1 = (ref.kx[:, None] * w).sum(axis=0) / s0
    mu2 = (ref.kx[:, None] ** 2 * w).sum(axis=0) / s0
    return 2.0 * (mu2 - mu1 * mu1)


def _check_sample_file(req: SampleRequest, ref) -> str | None:
    w = GRID_HALF_WIDTH
    xs, ys = np.linspace(-w, w, req.nx), np.linspace(-w, w, req.ny)
    idx = np.array(req.subsample)
    i, j = idx // req.ny, idx % req.ny
    text = Path(req.out).read_text(encoding="utf-8")
    if req.fmt == "csv":
        lines = text.split("\n")
        head = f"# kpii-stem v{cli.__version__} case={req.case} t={req.t!r}"
        if lines[0] != head or lines[1] != "x,y,u":
            return f"bad CSV header {lines[:2]!r}"
        if len(lines) != req.nx * req.ny + 3 or lines[-1] != "":
            return f"CSV has {len(lines) - 3} rows, want {req.nx * req.ny}"
        rows = [lines[2 + int(k)].split(",") for k in idx]
        if any(float(r[0]) != xs[a] or float(r[1]) != ys[b] for r, a, b in zip(rows, i, j)):
            return "CSV coordinates do not match the grid"
        got = np.array([float(r[2]) for r in rows])
    else:
        doc = json.loads(text)
        want = {"version": cli.__version__, "t": req.t,
                "x_range": [-w, w, req.nx], "y_range": [-w, w, req.ny]}
        if any(doc.get(k) != v for k, v in want.items()) or doc["scenario"]["case"] != req.case:
            return "JSON header fields do not match the request"
        if len(doc["values"]) != req.nx * req.ny:
            return f"JSON has {len(doc['values'])} values, want {req.nx * req.ny}"
        got = np.array([doc["values"][int(k)] for k in idx])
    err = float(np.abs(got - _reference_u(ref, xs[i], ys[j], req.t)).max())
    if not err <= ref.tol:
        return f"u differs from the long-double reference by {err:.3e} > {ref.tol:.3e}"
    return None


# -------------------------------------------------------------- stem_sweep

@dataclass(frozen=True)
class StemRequest:
    case: str
    branch: str
    k: tuple
    p3: float


def _draw(rng, case: str, branch: str):
    """One admissible (k, p3), drawn as tests/test_catalog.py::draw_params does.

    Like tests/test_acceptance.py::_draw_solutions, a draw whose arm catalog
    finds no stem reconnection is also rejected.  Returns the draw and the
    numbers of inadmissible and of reconnection-free candidates before it.
    """
    spec = catalog.CaseSpec(catalog.Case(case), catalog.Branch(branch))
    inadmissible = no_reconnection = 0
    while True:
        k = rng.uniform(0.4, 2.5, 3) * rng.choice([-1.0, 1.0], 3)
        if min(abs(k[0] - k[1]), abs(k[0] - k[2]), abs(k[1] - k[2])) < 0.15:
            inadmissible += 1
            continue
        p3 = rng.uniform(-2.0, 2.0)
        try:
            params = catalog.resolve_constraints(k, p3, spec)
        except (InadmissibleParameterError, DegenerateParameterError):
            inadmissible += 1
            continue
        try:
            geometry.arm_catalog(catalog.build_solution(params, spec))
        except InternalConsistencyError:
            no_reconnection += 1
            continue
        req = StemRequest(case, branch, tuple(float(v) for v in k), float(p3))
        return req, inadmissible, no_reconnection


def _stem_sweep(rng, cycles: int) -> Workload:
    kinds = [(c, b) for c in RESONANT_CASES for b in BRANCHES]
    requests, inadmissible, no_reconnection = [], 0, 0
    for _ in range(cycles):
        for n in rng.permutation(len(kinds)):
            req, bad, flat = _draw(rng, *kinds[n])
            requests.append(req)
            inadmissible += bad
            no_reconnection += flat

    def call(req: StemRequest, api):
        sol = api.build_case(req.case, req.k, req.p3, branch=req.branch)
        cat = api.arm_catalog(sol)
        lengths = [(api.stem_endpoints(sol, t).length, api.stem_length_formula(sol, t))
                   for t in STEM_TIMES]
        section = api.cross_section(sol, SECTION_T, cat.after[0][1],
                                    n_samples=SECTION_POINTS)
        return lengths, section, api.velocity_table(sol)

    def check(req: StemRequest, result):
        lengths, section, table = result
        # same relative measure as acceptance criterion 04
        worst = max(abs(lf - lg) / max(1.0, lg) for lg, lf in lengths)
        if not worst <= 1e-9:
            return f"closed-form stem length differs by {worst:.3e} (relative)"
        if len(section) != SECTION_POINTS or not all(math.isfinite(u) for _, u in section):
            return "cross section is incomplete or not finite"
        if not table or not all(math.isfinite(row.amplitude) for row in table):
            return "velocity table is empty or not finite"
        return None

    info = {"cycle_mix": {"case x branch": len(kinds)},
            "draws": len(requests), "rejected_inadmissible": inadmissible,
            "rejected_no_reconnection": no_reconnection}
    return Workload("stem_sweep", len(kinds), requests, call, check, info)


# ----------------------------------------------------------- oracle_verify

@dataclass(frozen=True)
class OracleRequest:
    name: str
    scenario: Any                       # kpii_stem.cli.Scenario
    residual_points: np.ndarray


def _cli_limit_points() -> np.ndarray:
    """The fixed points of the CLI's limits suite (kpii_stem.cli._verify_limits).

    Seeded point sets are not used here: on some of them the c2_1_alt ladder
    ends above 1e-4 (see NOTES.md, Known defects).
    """
    rng = np.random.default_rng(7)
    return np.column_stack([rng.uniform(-1.25, 1.25, LIMIT_POINTS),
                            rng.uniform(-1.25, 1.25, LIMIT_POINTS),
                            rng.uniform(-0.05, 0.05, LIMIT_POINTS)])


def _oracle_verify(rng, root: Path, cycles: int) -> Workload:
    scenarios = [(p.stem, cli.load_scenario(str(p))) for p in scenario_paths(root)]
    limit_points = _cli_limit_points()
    requests = []
    for _ in range(cycles):
        for n in rng.permutation(len(scenarios)):
            name, sc = scenarios[n]
            res = np.column_stack([rng.uniform(-50, 50, RESIDUAL_POINTS),
                                   rng.uniform(-50, 50, RESIDUAL_POINTS),
                                   rng.uniform(-10, 10, RESIDUAL_POINTS)])
            requests.append(OracleRequest(name, sc, res))

    def call(req: OracleRequest, api):
        sol = req.scenario.build()
        residual = api.kp_residual(sol, req.residual_points, tol=RESIDUAL_TOL)
        ladder = api.limit_convergence(sol, LADDER, limit_points)
        cat = api.arm_catalog(sol)
        asym = [api.asymptotic_match(sol, arm, sign * ASYMPTOTIC_T)
                for side, sign in (("before", -1.0), ("after", 1.0))
                for _, arm in getattr(cat, side)]
        ridge = []
        # criterion 09: one arm per side at a junction-distant anchor
        for side, sign in (("before", -1.0), ("after", 1.0)):
            arm, t = getattr(cat, side)[0][1], sign * RIDGE_T
            line = api.trajectory_line(arm, t)
            trace = api.ridge_trace(sol, t, line, scan_window=(-5.0, 5.0),
                                    n_scans=RIDGE_SCANS,
                                    anchor=api.section_anchor(sol, arm, t))
            (fa, fb, fc), (la, lb, lc) = trace.fitted_line, line
            ridge.append(max(abs(fa - la), abs(fb - lb), abs(fc - lc) / max(1.0, abs(lc))))
        return residual.max_abs_residual, ladder, asym, ridge

    def check(req: OracleRequest, result):
        residual, ladder, asym, ridge = result
        if not residual < RESIDUAL_TOL:
            return f"residual {residual:.3e} >= {RESIDUAL_TOL}"
        if not ladder[-1] < LADDER_TOL:
            return f"limit ladder ends at {ladder[-1]:.3e} >= {LADDER_TOL}"
        if any(b > a for a, b in zip(ladder, ladder[1:])):
            return f"limit ladder is not monotone: {ladder}"
        if not max(asym) < ASYMPTOTIC_TOL:
            return f"asymptotic match {max(asym):.3e} >= {ASYMPTOTIC_TOL}"
        if not max(ridge) < RIDGE_TOL:
            return f"arm ridge line deviates by {max(ridge):.3e} >= {RIDGE_TOL}"
        return None

    info = {"cycle_mix": {"scenarios": len(scenarios)},
            "residual_points": RESIDUAL_POINTS, "limit_points": LIMIT_POINTS}
    return Workload("oracle_verify", len(scenarios), requests, call, check, info)
