"""Scenario-driven command-line front end.

Subcommands: build, sample, stem, verify, section.  Scenarios are flat JSON
files (see scenarios/ in the repository root):

    {"case": "c2_1", "branch": "first", "k": [-1.0, -2.0, -1.3333333333333333],
     "p3": 1.0, "xi0": [0.0, 0.0, 0.0], "t_min": 3.0}

The generic case takes "p": [p1, p2, p3] instead of "p3" and may carry
"limit_target": "<case>" for the limits suite.  Exit codes: 0 success,
1 verification failure, 2 parse/usage error (also a command the scenario's
case does not support, such as stem or section on a generic scenario),
3 inadmissible parameters, 4 I/O error.  Output is deterministic: numbers are
serialized as Python's shortest round-trip repr writes them, and no
timestamps are embedded.  sample forms that text with floattext, whose bytes
tests/test_floattext.py checks against repr bit pattern by bit pattern, and
writes it as bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .catalog import Case, ResonantSolution, build_case, make_generic
from .errors import (DegenerateParameterError, InadmissibleParameterError,
                     IndeterminateResonanceError, KPStemError, UnsupportedCaseError)
from .geometry import (
    arm_catalog,
    arm_profile,
    even_axis,
    find_arm,
    line_points,
    stem_endpoints,
    stem_length_formula,
    stem_reports,
    stem_side,
    trajectory_line,
    velocity_table,
)
from .tau import BLOCK_POINTS, u_on_grid
from .verify import SUITES, run_suite

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
    if not isinstance(case, str) or case not in _CASES:
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
    if limit_target is not None and (not isinstance(limit_target, str)
                                     or limit_target not in _CASES - {"generic"}):
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
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError, UnicodeDecodeError and an integer
        # literal beyond int's digit limit; RecursionError too deep a nesting
        raise ScenarioError(f"invalid JSON: {exc}") from exc
    return parse_scenario(data)


def _scenario_echo(sc: Scenario) -> dict:
    return {k: v for k, v in asdict(sc).items() if v is not None}


def _dump_json(obj, out):
    out.write(json.dumps(obj, indent=2))
    out.write("\n")


@contextmanager
def _open_output(path, binary=False):
    """stdout when path is None, else the file at path (written in bytes if
    binary); I/O errors raise OutputError."""
    try:
        if path is None:
            yield sys.stdout
            sys.stdout.flush()
        else:
            with (open(path, "wb") if binary
                  else open(path, "w", encoding="utf-8", newline="\n")) as fh:
                yield fh
    except OSError as exc:
        if path is None:  # else the flush at exit fails again, and says so
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise OutputError(f"cannot write {path or 'stdout'}: {exc}") from exc


# ---------------------------------------------------------------- commands

def cmd_build(args, sc: Scenario, sol: ResonantSolution) -> int:
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
# values per kernel call and floattext.columns call in sample: four blocks
_TEXT_POINTS = 4 * BLOCK_POINTS


def _tiles(shape, size):
    """The (rows, columns) slices of tiles that cover a 2-D array of this
    shape in row-major order: size // BLOCK_POINTS blocks of whole rows where
    a row fits in a block, else at most size values, whole rows or pieces of
    one row."""
    n_rows, n_cols = shape
    rows = size // BLOCK_POINTS * (BLOCK_POINTS // n_cols) or max(1, size // n_cols)
    return (np.s_[i:i + rows, j:j + size]
            for i in range(0, n_rows, rows) for j in range(0, n_cols, size))


def _csv_lines(u, x_text, y_text):
    """The CSV lines of one tile's values u, row i at x_text[i] and column j
    at y_text[j]: formatted in one floattext call, then laid out a block at a
    time, each line the x text, the y text and the u text, each with its
    separator, side by side in one NUL-padded record, filled through a numpy
    view of the bytearray whose NULs are then dropped.  Each text is one
    void element, so a line is filled by three copies of whole texts."""
    from . import floattext
    x_text, y_text, u_text = (t.view((np.void, t.shape[1]))[:, 0]
                              for t in (x_text, y_text, floattext.columns(u, sep=b"\n")))
    line = np.dtype([("x", x_text.dtype), ("y", y_text.dtype), ("u", u_text.dtype)])
    u_text = u_text.reshape(u.shape)
    for i, j in _tiles(u.shape, BLOCK_POINTS):
        part = u_text[i, j]
        buf = bytearray(part.size * line.itemsize)
        lines = np.frombuffer(buf, line).reshape(part.shape)
        lines["x"] = x_text[i, None]
        lines["y"] = y_text[j]
        lines["u"] = part
        yield buf.translate(None, b"\0")
        del buf, lines  # before the next block's are made


def _json_values(u, sep, lead):
    """The JSON text of one tile's values u in row-major order, after lead
    and with sep between them: formatted in one floattext call, then
    compacted a block at a time."""
    from . import floattext
    text = floattext.columns(u, floattext.JSON_NONFINITE, sep)
    for i in range(0, len(text), BLOCK_POINTS):
        yield lead
        yield memoryview(floattext.text(text[i:i + BLOCK_POINTS]))[:-len(sep)]
        lead = sep


def cmd_sample(args, sc: Scenario, sol: ResonantSolution) -> int:
    # imported here: without a bytecode cache its compile would add to every
    # command's start-up
    from . import floattext
    t = _parse_finite(args.t, "t")
    xmin, xmax, nx, ymin, ymax, ny = _parse_grid(args.grid)
    # a finite grid or t can still overflow the tau exponents; those points
    # print as nan or inf, without numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            xs, ys = even_axis(xmin, xmax, nx), even_axis(ymin, ymax, ny)
        except _UNSIZABLE as exc:
            raise ScenarioError(f"grid of {nx} x {ny} points is too large") from exc
        # one kernel call and one floattext call per tile of _tiles, so memory
        # is bounded by one tile whatever the grid size; the text is compacted
        # and written a block at a time, which stays in cache
        with _open_output(args.out, binary=True) as fh:
            if args.format == "csv":
                fh.write(f"# kpii-stem v{__version__} case={sc.case} t={t!r}\n"
                         "x,y,u\n".encode())
                # the axes' text: packed once where the tiles are whole
                # rows, else for each piece of a row alone, so that a long
                # row's text is held a tile at a time
                axes = None if ny > _TEXT_POINTS else floattext.packed(xs, ys, sep=b",")
                for rows, cols in _tiles((nx, ny), _TEXT_POINTS):
                    x_text, y_text = (floattext.packed(xs[rows], ys[cols], sep=b",")
                                      if axes is None else (axes[0][rows], axes[1][cols]))
                    fh.writelines(_csv_lines(u_on_grid(sol.tau, xs[rows, None], ys[cols], t),
                                             x_text, y_text))
            else:
                # the header as json.dumps(indent=2) lays it out, with "values"
                # last, one value per line
                head, tail = json.dumps(
                    {"version": __version__, "scenario": _scenario_echo(sc), "t": t,
                     "x_range": [xmin, xmax, nx], "y_range": [ymin, ymax, ny],
                     "values": []}, indent=2).encode().rsplit(b"[]", 1)
                sep, lead = b",\n    ", b""
                fh.write(head + b"[\n    ")
                for rows, cols in _tiles((nx, ny), _TEXT_POINTS):
                    fh.writelines(_json_values(u_on_grid(sol.tau, xs[rows, None], ys[cols], t),
                                               sep, lead))
                    lead = sep
                fh.write(b"\n  ]" + tail + b"\n")
    return EXIT_OK


def _parse_tlist(raw: str):
    ts = [_parse_finite(v, "t") for v in raw.split(",") if v.strip() != ""]
    if not ts:
        raise ScenarioError("t list is empty")
    return ts


def cmd_stem(args, sc: Scenario, sol: ResonantSolution) -> int:
    csv = args.format == "csv"
    rows = [{
        "t": rep.t,
        "ax": rep.endpoint_a[0], "ay": rep.endpoint_a[1],
        "bx": rep.endpoint_b[0], "by": rep.endpoint_b[1],
        "length": rep.length, "length_closed_form": stem_length_formula(sol, rep.t),
        "midpoint_x": rep.midpoint[0], "midpoint_y": rep.midpoint[1],
        "midpoint_amplitude": rep.midpoint_amplitude,
        "valid": rep.valid,
        # the closed form vs intersection margin (err/scale, gate 1e-9) is
        # JSON-only: a CSV column would change the CSV bytes
        **({} if csv else {"endpoint_mismatch": rep.endpoint_mismatch}),
    } for rep in stem_reports(sol, _parse_tlist(args.t), t_min=sc.t_min)]
    with _open_output(args.out) as out:
        if csv:
            out.write(f"# kpii-stem v{__version__} case={sc.case}\n")
            out.write(",".join(rows[0]) + "\n")
            for row in rows:
                out.write(",".join(map(repr, row.values())) + "\n")
        else:
            _dump_json({"version": __version__, "scenario": _scenario_echo(sc),
                        "rows": rows}, out)
    return EXIT_OK


def cmd_verify(args, sc: Scenario, sol: ResonantSolution) -> int:
    tol = None if args.tol is None else _parse_finite(args.tol, "tol")
    if tol is not None and tol < 0:
        # no measurement is below a negative tolerance
        raise ScenarioError(f"tol must be nonnegative, got {args.tol.strip()}")
    suites = list(SUITES) if args.suite == "all" else [args.suite]
    # the resonant template that a generic scenario's limits suite compares with
    target = (build_case(sc.limit_target, sc.k, sc.p[2], branch=sc.branch, xi0=sc.xi0)
              if sc.case == "generic" and sc.limit_target and "limits" in suites else None)
    checks = [c for suite in suites for c in run_suite(sol, suite, tol, target)]
    ok = all(c.passed for c in checks)
    with _open_output(None) as out:
        _dump_json({"version": __version__, "scenario": _scenario_echo(sc), "passed": ok,
                    "checks": [{"check": c.name, "measured": c.measured, "tolerance": c.tolerance,
                                "pass": c.passed, **({} if c.note is None else {"note": c.note})}
                               for c in checks]}, out)
    return EXIT_OK if ok else EXIT_VERIFY


def _parse_range(spec: str):
    parts = spec.split(",")
    if len(parts) != 2:
        raise ScenarioError("range must be lo,hi")
    return tuple(_parse_finite(v, "range bound") for v in parts)


def cmd_section(args, sc: Scenario, sol: ResonantSolution) -> int:
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
        except KeyError as exc:
            raise ScenarioError(exc.args[0]) from exc
        line = arm.line_coeffs(t)
    mx, my = stem_endpoints(sol, t).midpoint
    if args.line == "perp":
        # the stem trajectory turned 90 degrees about the midpoint
        A, B, _ = trajectory_line(stem_side(sol, t)[0], t)
        line = (-B, A, B * mx - A * my)
    # as in sample, a span or samples that overflow print as nan or inf,
    # without numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            s = even_axis(*s_range, args.n)
            xs, ys = line_points(line, (mx, my), s)
            cols = [s.tolist(), u_on_grid(sol.tau, xs, ys, t).tolist()]
            if arm is not None:
                cols.append(arm_profile(arm, (xs, ys, t)).tolist())
        except _UNSIZABLE as exc:
            raise ScenarioError(f"n = {args.n} samples is too large") from exc
    with _open_output(args.out) as out:
        out.write(f"# kpii-stem v{__version__} case={sc.case} t={t!r}\n")
        out.write("s,u,u_arm\n" if arm is not None else "s,u\n")
        for row in zip(*cols):
            out.write(",".join(map(repr, row)) + "\n")
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line's parser, built on the first main call and then kept:
    parsing leaves it as it was."""
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
    p.add_argument("--suite", choices=(*SUITES, "all"), default="all")
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
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        sc = load_scenario(args.scenario)
        return args.func(args, sc, sc.build())
    except (ScenarioError, UnsupportedCaseError) as exc:
        # a command the scenario's case does not support is a usage error
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OutputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (InadmissibleParameterError, DegenerateParameterError,
            IndeterminateResonanceError) as exc:
        print(f"error: inadmissible scenario: {exc}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    except KPStemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
