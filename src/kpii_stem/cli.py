"""Scenario-driven command-line front end.

Subcommands: build, sample, stem, verify, section.  Scenarios are flat JSON
files (see scenarios/ in the repository root):

    {"case": "c2_1", "branch": "first", "k": [-1.0, -2.0, -1.3333333333333333],
     "p3": 1.0, "xi0": [0.0, 0.0, 0.0], "t_min": 3.0}

The generic case takes "p": [p1, p2, p3] instead of "p3" and may carry
"limit_target": "<case>" for the limits suite.  Exit codes: 0 success,
1 verification failure, 2 parse/usage error, 3 inadmissible parameters,
4 I/O error.  Output is deterministic: numbers are serialized with Python's
shortest round-trip repr and no timestamps are embedded.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .catalog import Case, ResonantSolution, build_case, make_generic
from .errors import (AnchorNotFoundError, DegenerateParameterError, InadmissibleFamilyError,
                     InadmissibleParameterError, InternalConsistencyError, KPStemError)
from .geometry import (
    arm_catalog,
    arm_profile,
    cross_section,
    find_arm,
    normalize_line,
    stem_endpoints,
    stem_length_formula,
    stem_side,
    trajectory_line,
    velocity_table,
)
from .tau import BLOCK_POINTS, u_on_grid
from .verify import (asymptotic_match, kp_residual, limit_convergence,
                     ridge_trace, section_anchor)

EXIT_OK, EXIT_VERIFY, EXIT_PARSE, EXIT_INADMISSIBLE, EXIT_IO = 0, 1, 2, 3, 4

_CASES = {c.value for c in Case}


class ScenarioError(Exception):
    pass


class OutputError(Exception):
    pass


@dataclass(frozen=True)
class Scenario:
    case: str
    branch: str
    k: tuple[float, float, float]
    p3: float | None
    p: tuple[float, float, float] | None
    xi0: tuple[float, float, float]
    t_min: float
    limit_target: str | None

    def build(self) -> ResonantSolution:
        if self.case == "generic":
            return make_generic(self.k, self.p, xi0=self.xi0)
        return build_case(self.case, self.k, self.p3,
                          branch=self.branch, xi0=self.xi0)


def _number(raw, name) -> float:
    if not isinstance(raw, (int, float)) or isinstance(raw, bool):
        raise ScenarioError(f"field {name} must be a number")
    try:
        value = float(raw)
    except OverflowError:  # an integer literal beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ScenarioError(f"field {name} must be finite, got {value!r}")
    return value


def _vector(raw, name, n=3):
    if not isinstance(raw, (list, tuple)):
        raise ScenarioError(f"field {name} must be a list of {n} numbers")
    vals = []
    for i in range(n):
        if i >= len(raw) or raw[i] is None:
            raise ScenarioError(f"missing field {name}[{i}]")
        vals.append(_number(raw[i], f"{name}[{i}]"))
    if len(raw) > n:
        raise ScenarioError(f"field {name} has more than {n} entries")
    return tuple(vals)


def parse_scenario(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a JSON object")
    case = data.get("case")
    if case is None:
        raise ScenarioError("missing field case")
    if case not in _CASES:
        raise ScenarioError(f"unknown case {case!r}")
    branch = data.get("branch", "first")
    if branch not in ("first", "second"):
        raise ScenarioError(f"unknown branch {branch!r}")
    k = _vector(data.get("k"), "k") if data.get("k") is not None else None
    if k is None:
        raise ScenarioError("missing field k")
    xi0 = _vector(data.get("xi0", [0.0, 0.0, 0.0]), "xi0")
    t_min = _number(data.get("t_min", 3.0), "t_min")
    if t_min < 0:
        raise ScenarioError("field t_min must be nonnegative")
    limit_target = data.get("limit_target")
    if limit_target is not None and limit_target not in _CASES - {"generic"}:
        raise ScenarioError(f"unknown limit_target {limit_target!r}")
    if case == "generic":
        if "p" not in data:
            raise ScenarioError("generic case requires field p = [p1, p2, p3]")
        p = _vector(data["p"], "p")
        return Scenario(case=case, branch=branch, k=k, p3=None, p=p, xi0=xi0,
                        t_min=t_min, limit_target=limit_target)
    if "p3" not in data:
        raise ScenarioError("missing field p3")
    return Scenario(case=case, branch=branch, k=k, p3=_number(data["p3"], "p3"),
                    p=None, xi0=xi0, t_min=t_min, limit_target=limit_target)


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON: {exc}") from exc
    return parse_scenario(data)


def _scenario_echo(sc: Scenario) -> dict:
    return {k: v for k, v in asdict(sc).items() if v is not None}


def _dump_json(obj, out):
    out.write(json.dumps(obj, indent=2))
    out.write("\n")


@contextmanager
def _open_output(path):
    """stdout when path is None, else the file at path; I/O errors raise OutputError."""
    try:
        if path is None:
            yield sys.stdout
            sys.stdout.flush()
        else:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                yield fh
    except OSError as exc:
        if path is None:  # else the flush at exit fails again, and says so
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise OutputError(f"cannot write {path or 'stdout'}: {exc}") from exc


# ---------------------------------------------------------------- commands

def cmd_build(args) -> int:
    sc = load_scenario(args.scenario)
    sol = sc.build()
    doc = {
        "version": __version__,
        "scenario": _scenario_echo(sc),
        "resolved": {"p1": sol.params.p[0], "p2": sol.params.p[1],
                     "p3": sol.params.p[2],
                     "omega": list(sol.params.omegas)},
        "a12": sol.a12,
        "resonance": {f"{i}{j}": kind.value
                      for (i, j), kind in sorted(sol.resonance.kinds.items())},
        "tau_terms": [{"coeff": c, "eps": list(eps)} for eps, c in sol.template],
    }
    if sol.spec.case is not Case.GENERIC:
        cat = arm_catalog(sol)
        doc["regime"] = cat.regime
        doc["arms"] = [
            {"label": a.label_str(), "region": r.value, "amplitude": a.amplitude,
             "velocity": list(a.velocity)}
            for r, a in cat.before]
        doc["stems"] = {"past": cat.stem_past.label_str(),
                        "future": cat.stem_future.label_str()}
        doc["velocity_table"] = [
            {"label": row.label, "vx": row.vx, "vy": row.vy,
             "amplitude": row.amplitude}
            for row in velocity_table(sol)]
    with _open_output(None) as out:
        _dump_json(doc, out)
    return EXIT_OK


def _parse_finite(raw: str, name: str) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise ScenarioError(f"invalid {name}: {exc}") from exc
    if not math.isfinite(value):
        raise ScenarioError(f"{name} must be finite, got {raw.strip()}")
    return value


def _parse_grid(spec: str):
    parts = spec.split(",")
    if len(parts) != 6:
        raise ScenarioError("grid must be xmin,xmax,nx,ymin,ymax,ny")
    try:
        nx, ny = int(parts[2]), int(parts[5])
    except ValueError as exc:
        raise ScenarioError(f"invalid grid: {exc}") from exc
    xmin, xmax, ymin, ymax = (_parse_finite(parts[i], "grid bound")
                              for i in (0, 1, 3, 4))
    if nx < 2 or ny < 2 or not (xmin < xmax and ymin < ymax):
        raise ScenarioError("grid needs xmin<xmax, ymin<ymax and nx,ny >= 2")
    return xmin, xmax, nx, ymin, ymax, ny


# numpy's refusals to size a sample count (IndexError from 2**63 - 1 to 1e19)
_UNSIZABLE = (ValueError, IndexError, MemoryError)


def _axis(lo: float, hi: float, n: int) -> np.ndarray:
    """n evenly spaced points from lo to hi.  Where hi - lo overflows, the
    axis is built at half scale and doubled, which is exact."""
    if math.isfinite(hi - lo):
        return np.linspace(lo, hi, n)
    return 2.0 * np.linspace(0.5 * lo, 0.5 * hi, n)


def cmd_sample(args) -> int:
    sc = load_scenario(args.scenario)
    sol = sc.build()
    t = _parse_finite(args.t, "t")
    xmin, xmax, nx, ymin, ymax, ny = _parse_grid(args.grid)
    # a finite grid or t can still overflow the tau exponents; those points
    # print as nan or inf, without numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            xs, ys = _axis(xmin, xmax, nx), _axis(ymin, ymax, ny)
        except _UNSIZABLE as exc:
            raise ScenarioError(f"grid of {nx} x {ny} points is too large") from exc
        # whole x-rows, four evaluation blocks per call and write (a block is
        # one row where a row is longer), so memory is bounded by four blocks
        # whatever the grid size
        rows = 4 * max(1, BLOCK_POINTS // ny)
        blocks = ((xs[i:i + rows], u_on_grid(sol.tau, xs[i:i + rows, None], ys, t))
                  for i in range(0, nx, rows))
        with _open_output(args.out) as fh:
            if args.format == "csv":
                fh.write(f"# kpii-stem v{__version__} case={sc.case} t={t!r}\n")
                fh.write("x,y,u\n")
                mids = [f",{y!r}," for y in ys.tolist()]
                for xb, ub in blocks:
                    for x, urow in zip(xb.tolist(), ub.tolist()):
                        xr = repr(x)
                        fh.write("".join([f"{xr}{m}{u!r}\n" for m, u in zip(mids, urow)]))
            else:
                # the header as json.dumps(indent=2) lays it out, with "values"
                # last; each block's values go through the C encoder, one per line
                head, tail = json.dumps(
                    {"version": __version__, "scenario": _scenario_echo(sc), "t": t,
                     "x_range": [xmin, xmax, nx], "y_range": [ymin, ymax, ny],
                     "values": []}, indent=2).rsplit("[]", 1)
                sep = head + "[\n    "
                for _, ub in blocks:
                    fh.write(sep + json.dumps(ub.ravel().tolist())[1:-1]
                             .replace(", ", ",\n    "))
                    sep = ",\n    "
                fh.write("\n  ]" + tail + "\n")
    return EXIT_OK


def _parse_tlist(raw: str):
    ts = [_parse_finite(v, "t") for v in raw.split(",") if v.strip() != ""]
    if not ts:
        raise ScenarioError("t list is empty")
    return ts


def cmd_stem(args) -> int:
    sc = load_scenario(args.scenario)
    sol = sc.build()
    rows, mismatches = [], []
    for t in _parse_tlist(args.t):
        rep = stem_endpoints(sol, t, t_min=sc.t_min)
        try:
            closed = stem_length_formula(sol, t)
        except KPStemError:
            closed = None
        rows.append({
            "t": t,
            "ax": rep.endpoint_a[0], "ay": rep.endpoint_a[1],
            "bx": rep.endpoint_b[0], "by": rep.endpoint_b[1],
            "length": rep.length, "length_closed_form": closed,
            "midpoint_x": rep.midpoint[0], "midpoint_y": rep.midpoint[1],
            "midpoint_amplitude": rep.midpoint_amplitude,
            "valid": rep.valid,
        })
        mismatches.append(rep.endpoint_mismatch)
    with _open_output(args.out) as out:
        if args.format == "csv":
            out.write(f"# kpii-stem v{__version__} case={sc.case}\n")
            out.write(",".join(rows[0]) + "\n")
            for row in rows:
                out.write(",".join("" if v is None else repr(v)
                                   for v in row.values()) + "\n")
        else:
            # the closed form vs intersection margin (err/scale, gate 1e-9)
            # is JSON-only: a CSV column would change the CSV bytes
            rows = [dict(row, endpoint_mismatch=m) for row, m in zip(rows, mismatches)]
            _dump_json({"version": __version__, "scenario": _scenario_echo(sc),
                        "rows": rows}, out)
    return EXIT_OK


def _verify_residual(sol, tol):
    rng = np.random.default_rng(20240811)
    pts = np.column_stack([rng.uniform(-50, 50, 1000),
                           rng.uniform(-50, 50, 1000),
                           rng.uniform(-10, 10, 1000)])
    rep = kp_residual(sol, pts, tol=tol)
    return [{"check": "field_equation_residual",
             "measured": rep.max_abs_residual, "tolerance": tol,
             "pass": rep.max_abs_residual < tol}]


def _verify_limits(sc, sol, tol):
    rng = np.random.default_rng(7)
    pts = np.column_stack([rng.uniform(-1.25, 1.25, 200),
                           rng.uniform(-1.25, 1.25, 200),
                           rng.uniform(-0.05, 0.05, 200)])
    if sol.spec.case is Case.GENERIC:
        if not sc.limit_target:
            return [{"check": "limit_convergence", "measured": None,
                     "tolerance": tol, "pass": False,
                     "note": "generic scenario without limit_target"}]
        target = build_case(sc.limit_target, sc.k, sc.p[2], branch=sc.branch)
        dev = float(np.abs(
            u_on_grid(sol.tau, pts[:, 0], pts[:, 1], pts[:, 2])
            - u_on_grid(target.tau, pts[:, 0], pts[:, 1], pts[:, 2])).max())
        return [{"check": f"deviation_from_{sc.limit_target}_template",
                 "measured": dev, "tolerance": tol, "pass": dev < tol}]
    try:
        devs = limit_convergence(sol, [1e3, 1e4, 1e5, 1e6], pts)
    except InadmissibleFamilyError as exc:
        # no ladder to measure: the check fails with a note, and the other
        # suites are still reported
        return [{"check": "limit_ladder_end", "measured": None,
                 "tolerance": tol, "pass": False, "note": str(exc)}]
    mono = all(devs[i + 1] <= devs[i] for i in range(len(devs) - 1))
    return [{"check": "limit_ladder_end", "measured": devs[-1],
             "tolerance": tol, "pass": devs[-1] < tol},
            {"check": "limit_ladder_monotone", "measured": devs,
             "tolerance": None, "pass": mono}]


def _ridge_deviation(sol, arm, t):
    line = trajectory_line(arm, t)
    trace = ridge_trace(sol, t, line, scan_window=(-5.0, 5.0), n_scans=7,
                        anchor=section_anchor(sol, arm, t))
    (fa, fb, fc), (la, lb, lc) = trace.fitted_line, line
    return float(max(abs(fa - la), abs(fb - lb), abs(fc - lc) / max(1.0, abs(lc))))


def _verify_arms(sol, tol, suite, T=20.0):
    # asymptotics: the profile of every catalog arm; ridge: the fitted ridge
    # line of the first catalog arm of each side (the stem's ridge line is
    # curved, so it is not fitted).  An arm without a clean section fails its
    # check with a note, and so does the suite without an arm catalog; the
    # other checks are still reported.
    name, measure = (("asymptotic", asymptotic_match) if suite == "asymptotics"
                     else ("ridge", _ridge_deviation))
    try:
        cat = arm_catalog(sol)
    except InternalConsistencyError as exc:
        return [{"check": suite, "measured": None, "tolerance": tol, "pass": False,
                 "note": str(exc)}]
    checks = []
    for side, tsign in (("before", -1.0), ("after", 1.0)):
        arms = [arm for _, arm in getattr(cat, side)]
        for arm in arms if suite == "asymptotics" else arms[:1]:
            check = {"check": f"{name}_{side}_{arm.label_str()}", "measured": None,
                     "tolerance": tol, "pass": False}
            try:
                check["measured"] = measure(sol, arm, tsign * T)
                check["pass"] = check["measured"] < tol
            except AnchorNotFoundError as exc:
                check["note"] = str(exc)
            checks.append(check)
    return checks


def cmd_verify(args) -> int:
    sc = load_scenario(args.scenario)
    sol = sc.build()
    tol_override = None if args.tol is None else _parse_finite(args.tol, "tol")
    suites = ("residual", "limits", "asymptotics", "ridge") \
        if args.suite == "all" else (args.suite,)
    defaults = {"residual": 1e-8, "limits": 1e-4,
                "asymptotics": 1e-3, "ridge": 1e-4}
    checks = []
    for suite in suites:
        tol = tol_override if tol_override is not None else defaults[suite]
        if suite == "residual":
            checks += _verify_residual(sol, tol)
        elif suite == "limits":
            checks += _verify_limits(sc, sol, tol)
        elif sol.spec.case is Case.GENERIC:
            checks.append({"check": suite, "measured": None,
                           "tolerance": tol, "pass": False,
                           "note": "not defined for generic scenarios"})
        else:
            checks += _verify_arms(sol, tol, suite)
    ok = all(c["pass"] for c in checks)
    with _open_output(None) as out:
        _dump_json({"version": __version__, "scenario": _scenario_echo(sc),
                    "passed": ok, "checks": checks}, out)
    return EXIT_OK if ok else EXIT_VERIFY


def _parse_range(spec: str):
    parts = spec.split(",")
    if len(parts) != 2:
        raise ScenarioError("range must be lo,hi")
    return tuple(_parse_finite(v, "range bound") for v in parts)


def cmd_section(args) -> int:
    sc = load_scenario(args.scenario)
    sol = sc.build()
    t = _parse_finite(args.t, "t")
    s_range = _parse_range(args.range)
    if args.n < 2:
        raise ScenarioError(f"n must be at least 2, got {args.n}")
    arm = None
    if args.line.startswith("abc:"):
        line = tuple(_parse_finite(v, f"line spec {args.line!r}")
                     for v in args.line[4:].split(","))
        if len(line) != 3:
            raise ScenarioError(f"invalid line spec {args.line!r}")
        if line[0] == line[1] == 0.0:
            raise ScenarioError(f"line spec {args.line!r} has a zero normal vector")
    elif args.line != "perp":
        try:
            arm = find_arm(sol, args.line)
        except (KeyError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PARSE
        line = arm.line_coeffs(t)
    mx, my = stem_endpoints(sol, t, t_min=sc.t_min).midpoint
    if args.line == "perp":
        # the stem trajectory turned 90 degrees about the midpoint
        A, B, _ = trajectory_line(stem_side(sol, t)[0], t)
        line = (-B, A, B * mx - A * my)
    try:
        pts = cross_section(sol, t, line, s_range=s_range, n_samples=args.n,
                            anchor=(mx, my))
    except _UNSIZABLE as exc:
        raise ScenarioError(f"n = {args.n} samples is too large") from exc
    with _open_output(args.out) as out:
        out.write(f"# kpii-stem v{__version__} case={sc.case} t={t!r}\n")
        if arm is not None:
            out.write("s,u,u_arm\n")
            A, B, C = normalize_line(line)
            d = A * mx + B * my + C
            foot = (mx - d * A, my - d * B)
            for s, u in pts:
                prof = float(arm_profile(arm, (foot[0] + s * (-B), foot[1] + s * A, t)))
                out.write(f"{float(s)!r},{float(u)!r},{prof!r}\n")
        else:
            out.write("s,u\n")
            for s, u in pts:
                out.write(f"{float(s)!r},{float(u)!r}\n")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kpii-stem",
        description="Resonant three-soliton solutions of the KPII equation "
                    "and their variable-length stem structures.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="resolve a scenario and print a summary")
    p.add_argument("--scenario", required=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("sample", help="sample u on a rectangular grid")
    p.add_argument("--scenario", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--grid", required=True, help="xmin,xmax,nx,ymin,ymax,ny")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("stem", help="stem endpoint/length/amplitude report")
    p.add_argument("--scenario", required=True)
    p.add_argument("--t", required=True, help="comma-separated list")
    p.add_argument("--out")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_stem)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--scenario", required=True)
    p.add_argument("--suite", choices=("residual", "limits", "asymptotics",
                                       "ridge", "all"), default="all")
    p.add_argument("--tol", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("section", help="cross-section of u along a line")
    p.add_argument("--scenario", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--line", required=True,
                   help="arm label like 1+2-3^ or 3, abc:A,B,C, or perp")
    p.add_argument("--range", default="-20,20")
    p.add_argument("--n", type=int, default=801)
    p.add_argument("--out")
    p.set_defaults(func=cmd_section)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OutputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (InadmissibleParameterError, DegenerateParameterError) as exc:
        print(f"error: inadmissible scenario: {exc}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    except KPStemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
