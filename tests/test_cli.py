"""Command-line interface: exit codes, determinism, golden outputs."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from kpii_stem.tau import BLOCK_POINTS

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
SCENARIOS = REPO / "scenarios"

ALL_SCENARIOS = sorted(p.name for p in SCENARIOS.glob("*.json"))


def run_cli(*args, env_extra=None, cwd=None):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "kpii_stem.cli", *args],
        capture_output=True, env=env, cwd=cwd or REPO)


def test_build_all_scenarios_exit_zero():
    assert ALL_SCENARIOS, "scenario files missing"
    for name in ALL_SCENARIOS:
        res = run_cli("build", "--scenario", str(SCENARIOS / name))
        assert res.returncode == 0, (name, res.stderr)
        doc = json.loads(res.stdout)
        assert doc["version"]
        assert "resolved" in doc


def test_build_round_trip_bit_identical():
    res = run_cli("build", "--scenario", str(SCENARIOS / "c2_1.json"))
    doc = json.loads(res.stdout)
    echo = doc["scenario"]
    from kpii_stem.cli import parse_scenario
    sc = parse_scenario(echo)
    sol = sc.build()
    assert sol.params.p[0] == doc["resolved"]["p1"]
    assert sol.params.p[1] == doc["resolved"]["p2"]
    assert sol.a12 == doc["a12"]


def test_missing_wavenumber_component(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"case": "c2_1", "branch": "first", "k": [-1.0, -2.0], "p3": 1.0}')
    res = run_cli("build", "--scenario", str(bad))
    assert res.returncode == 2
    assert "missing field k[2]" in res.stderr.decode()


def test_unknown_case(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"case": "x9", "k": [1.0, 2.0, 3.0], "p3": 0.0}')
    res = run_cli("build", "--scenario", str(bad))
    assert res.returncode == 2


def test_invalid_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    res = run_cli("build", "--scenario", str(bad))
    assert res.returncode == 2


def test_inadmissible_parameters(tmp_path):
    bad = tmp_path / "inadmissible.json"
    bad.write_text(json.dumps({
        "case": "c2_2", "branch": "first",
        "k": [-2.0 / 3.0, -1.0, 4.0 / 3.0], "p3": 2.0 / 3.0}))
    res = run_cli("build", "--scenario", str(bad))
    assert res.returncode == 3
    assert "a12" in res.stderr.decode()


@pytest.mark.parametrize("command", [
    ("sample", "--t", "0", "--grid=-1,1,3,-1,1,3"),
    ("stem", "--t=-20,0,20"),
    ("section", "--t", "0", "--line", "3", "--n", "5"),
], ids=lambda c: c[0])
def test_unwritable_output_path(command):
    res = run_cli(command[0], "--scenario", str(SCENARIOS / "c2_1.json"),
                  *command[1:], "--out", "/nonexistent-dir/out.csv")
    assert res.returncode == 4
    assert b"Traceback" not in res.stderr
    (line,) = res.stderr.decode().splitlines()
    assert line.startswith("error: cannot write /nonexistent-dir/out.csv")


def test_sample_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ("sample", "--scenario", str(SCENARIOS / "c2_1.json"),
            "--t=-2", "--grid=-20,20,41,-20,20,41")
    assert run_cli(*args, "--out", str(out1)).returncode == 0
    assert run_cli(*args, "--out", str(out2)).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sample_grid_max_near_stem_amplitude(tmp_path):
    out = tmp_path / "grid.csv"
    res = run_cli("sample", "--scenario", str(SCENARIOS / "c2_1.json"),
                  "--t=-2", "--grid=-60,60,400,-60,60,400",
                  "--out", str(out))
    assert res.returncode == 0
    best = 0.0
    with open(out) as fh:
        next(fh); next(fh)
        for line in fh:
            best = max(best, float(line.split(",")[2]))
    assert abs(best - 169.0 / 18.0) < 1e-2


def test_sample_json_format(tmp_path):
    out = tmp_path / "grid.json"
    res = run_cli("sample", "--scenario", str(SCENARIOS / "c3_1.json"),
                  "--t", "0", "--grid=-5,5,11,-5,5,11",
                  "--out", str(out), "--format", "json")
    assert res.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["x_range"] == [-5.0, 5.0, 11]
    assert len(doc["values"]) == 121


def test_stem_report_values():
    res = run_cli("stem", "--scenario", str(SCENARIOS / "c3_1.json"),
                  "--t=-20,0,20", "--format", "json")
    assert res.returncode == 0
    rows = json.loads(res.stdout)["rows"]
    assert rows[1]["length"] == 0.0
    assert rows[1]["valid"] is False
    assert abs(rows[0]["midpoint_amplitude"] - 0.5) < 1e-3
    assert abs(rows[2]["midpoint_amplitude"] - 8.0 / 9.0) < 1e-3
    assert rows[0]["length_closed_form"] == pytest.approx(rows[0]["length"],
                                                          rel=1e-9)


def test_stem_report_mixed_amplitudes():
    res = run_cli("stem", "--scenario", str(SCENARIOS / "m2.json"),
                  "--t=-20,20", "--format", "json")
    rows = json.loads(res.stdout)["rows"]
    assert abs(rows[0]["midpoint_amplitude"] - 0.125) < 1e-3
    assert abs(rows[1]["midpoint_amplitude"] - 0.125) < 1e-3


def test_verify_residual_suite_passes():
    res = run_cli("verify", "--scenario", str(SCENARIOS / "c3_1.json"),
                  "--suite", "residual")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["passed"] is True
    assert doc["checks"][0]["measured"] < 1e-8


def test_verify_asymptotics_suite_passes():
    res = run_cli("verify", "--scenario", str(SCENARIOS / "w2.json"),
                  "--suite", "asymptotics")
    assert res.returncode == 0


def test_verify_asymptotics_passes_on_crowded_c2_2_draw(tmp_path):
    # the 1^ arm runs close to other ridges; a section anchored across one
    # of them misses the profile by 0.437 on both sides
    path = tmp_path / "c2_2.json"
    path.write_text(json.dumps({
        "case": "c2_2", "branch": "second",
        "k": [2.3893366773367974, -0.6379045762727384, -2.3913616321332127],
        "p3": -0.4947744352174097}))
    res = run_cli("verify", "--scenario", str(path), "--suite", "asymptotics")
    assert res.returncode == 0, res.stdout
    assert json.loads(res.stdout)["passed"] is True


@pytest.mark.parametrize("suite, n_checks", [("asymptotics", 8), ("ridge", 2)])
def test_verify_refused_anchor_keeps_report(tmp_path, suite, n_checks):
    # no section of this draw's 1^ arm is clean at t = -20
    path = tmp_path / "c2_1.json"
    path.write_text(json.dumps({
        "case": "c2_1", "branch": "first",
        "k": [-1.7228282133524533, 1.4063007297135197, 1.771906511241144],
        "p3": -1.5151554207086688}))
    res = run_cli("verify", "--scenario", str(path), "--suite", suite)
    assert res.returncode == 1
    assert res.stderr == b""
    doc = json.loads(res.stdout)
    assert doc["passed"] is False
    assert len(doc["checks"]) == n_checks
    refused = [c for c in doc["checks"] if c["measured"] is None]
    assert refused[0]["check"] == ("asymptotic" if suite == "asymptotics" else suite) + "_before_1^"
    for c in refused:
        assert c["pass"] is False
        assert "no clean section anchor" in c["note"]
    assert all(isinstance(c["measured"], float) for c in doc["checks"] if c not in refused)


_NO_RIDGE = "ridge found on only 0 of 7 scans"
_ROUNDING = "no clean section anchor on arm {}: rounding at"


@pytest.mark.parametrize("scenario, suite, refused", [
    # m2 scaled by 0.01: no scan of either side's first arm has an interior maximum
    ({"case": "m2", "k": [0.02, -0.01, -0.015], "p3": 1e-4}, "ridge",
     {"ridge_before_3": _NO_RIDGE, "ridge_after_3": _NO_RIDGE}),
    # a phase constant of -1e17 puts all but the 1 and 2 arms after t = 0 at
    # |x| of 5e16 to 1e17, where the floats are 8 to 16 apart: rounding, not
    # the arm, would set their sections
    ({"case": "c2_1", "k": [1.0, 1.0, 1.0], "p3": 0.0, "xi0": [0.0, 0.0, -1e17]}, "all",
     {f"{suite}_{side}_{arm}": _ROUNDING.format(f"{arm} at t = {t}")
      for suite, side, t, arms in (("asymptotic", "before", -20.0, ("1^", "2+3^", "1+3^", "2^")),
                                   ("asymptotic", "after", 20.0, ("2+3^", "1+3^")),
                                   ("ridge", "before", -20.0, ("1^",)))
      for arm in arms}),
], ids=["m2-scaled", "c2_1-far-phase"])
def test_verify_refused_ridge_keeps_report(tmp_path, capsys, scenario, suite, refused):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    from kpii_stem.cli import main
    code = main(["verify", "--scenario", str(path), f"--suite={suite}"])
    out, err = capsys.readouterr()
    assert (code, err) == (1, "")
    doc = json.loads(out)
    assert doc["passed"] is False
    nulls = [c for c in doc["checks"] if c["measured"] is None]
    assert [c["check"] for c in nulls] == list(refused)
    for c in nulls:
        assert c["pass"] is False
        assert c["note"].startswith(refused[c["check"]]), c
    # the arms the rounding leaves alone measure to rounding
    assert all(c["measured"] < 1e-12 for c in doc["checks"]
               if c["check"].startswith(("asymptotic", "ridge")) and c not in nulls)


def test_verify_inadmissible_limit_family_keeps_report(tmp_path):
    # no perturbation of this draw keeps a_ij admissible at magnitude 1e3
    path = tmp_path / "c2_1.json"
    path.write_text(json.dumps({
        "case": "c2_1", "branch": "first",
        "k": [-1.7228282133524533, 1.4063007297135197, 1.771906511241144],
        "p3": -1.5151554207086688}))
    res = run_cli("verify", "--scenario", str(path))
    assert res.returncode == 1
    assert res.stderr == b""
    doc = json.loads(res.stdout)
    assert doc["passed"] is False
    limits = [c for c in doc["checks"] if c["check"].startswith("limit")]
    assert limits == [{"check": "limit_ladder_end", "measured": None, "tolerance": 1e-4,
                       "pass": False,
                       "note": "no admissible perturbation at magnitude 1000.0 for c2_1"}]
    suites = {c["check"].split("_")[0] for c in doc["checks"]}
    assert suites == {"field", "limit", "asymptotic", "ridge"}


def test_verify_zero_aij_factor_keeps_report(tmp_path, capsys):
    # k1 = 4e-88 leaves an a_ij factor of every limit candidate exactly 0
    path = tmp_path / "c2_1.json"
    path.write_text(json.dumps({
        "case": "c2_1", "branch": "first",
        "k": [3.952049501376851e-88, -1.7288327383456552, -1.0107464608951817],
        "p3": -2.024990949721954}))
    from kpii_stem.cli import main
    code = main(["verify", "--scenario", str(path)])
    out, err = capsys.readouterr()
    assert 0 <= code <= 4
    assert err == ""
    doc = json.loads(out)
    limits = [c for c in doc["checks"] if c["check"].startswith("limit")]
    assert limits == [{"check": "limit_ladder_end", "measured": None, "tolerance": 1e-4,
                       "pass": False,
                       "note": "no admissible perturbation at magnitude 1000.0 for c2_1"}]
    # the draw has no arm catalog either: one failing check per arm suite
    arms = [c for c in doc["checks"] if c["check"] in ("asymptotics", "ridge")]
    assert [(c["check"], c["pass"], c["note"]) for c in arms] == [
        (suite, False, "the t -> -inf and t -> +inf skeletons carry no two distinct stems")
        for suite in ("asymptotics", "ridge")]


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_verify_default_suite_reports_json(name):
    res = run_cli("verify", "--scenario", str(SCENARIOS / name))
    assert res.returncode == 0
    assert b"Traceback" not in res.stderr
    doc = json.loads(res.stdout)
    assert doc["passed"] is True
    suites = {c["check"].split("_")[0] for c in doc["checks"]}
    assert suites == {"field", "limit", "asymptotic", "ridge"}


def test_verify_tolerance_override_can_fail():
    res = run_cli("verify", "--scenario", str(SCENARIOS / "w2.json"),
                  "--suite", "residual", "--tol", "1e-16")
    assert res.returncode == 1
    doc = json.loads(res.stdout)
    assert doc["passed"] is False
    assert doc["checks"][0]["tolerance"] == 1e-16


def test_verify_residual_overflow_writes_null_and_no_warnings(tmp_path, capsys):
    # k of 1e54 and p3 of 1e108 keep omega finite, but the residual's k^6
    # terms overflow: the check fails with null and a note, not a NaN token
    path = tmp_path / "c2_1.json"
    path.write_text(json.dumps({
        "case": "c2_1", "k": [-1e54, -2e54, -1.3333333333333333e54], "p3": 1e108}))
    from kpii_stem.cli import main
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["verify", "--scenario", str(path), "--suite", "residual"])
    out, err = capsys.readouterr()
    assert (code, err) == (1, "")
    doc = json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in {out}"))
    assert doc["checks"] == [{"check": "field_equation_residual", "measured": None,
                              "tolerance": 1e-8, "pass": False,
                              "note": "the largest |residual| is nan"}]


def test_verify_corrupted_generic_scenario(tmp_path):
    # an off-manifold eight-term scenario is still an exact solution, so the
    # residual suite passes, but it no longer matches the resonant template
    from kpii_stem import Case, CaseSpec, resolve_constraints
    params = resolve_constraints((1.0, -1.0, -2.0), -0.5, CaseSpec(Case.W2))
    doc = {"case": "generic", "k": [1.0, -1.0, -2.0],
           "p": [params.p[0] - 1e-3, params.p[1], params.p[2]],
           "limit_target": "w2"}
    path = tmp_path / "corrupt.json"
    path.write_text(json.dumps(doc))
    res = run_cli("verify", "--scenario", str(path), "--suite", "residual")
    assert res.returncode == 0, res.stdout
    res = run_cli("verify", "--scenario", str(path), "--suite", "limits")
    assert res.returncode == 1
    out = json.loads(res.stdout)
    assert out["passed"] is False


def test_verify_generic_scenario_with_phase_constants(tmp_path, capsys):
    # an exact on-manifold eight-term scenario matches the resonant template
    # built with the same phase constants (a deviation of 0.825 without them)
    from kpii_stem import Case, CaseSpec, resolve_constraints
    from kpii_stem.cli import main
    params = resolve_constraints((1.0, -1.0, -2.0), -0.5, CaseSpec(Case.W2))
    path = tmp_path / "generic.json"
    path.write_text(json.dumps({"case": "generic", "k": [1.0, -1.0, -2.0], "p": list(params.p),
                                "xi0": [0.3, -0.7, 0.45], "limit_target": "w2"}))
    code = main(["verify", "--scenario", str(path), "--suite=limits"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    (check,) = json.loads(out)["checks"]
    assert check["check"] == "deviation_from_w2_template"
    assert check["measured"] < 1e-12


def test_section_along_stem():
    res = run_cli("section", "--scenario", str(SCENARIOS / "c2_1.json"),
                  "--t", "1", "--line", "3", "--range=-6,6", "--n", "25")
    assert res.returncode == 0
    lines = res.stdout.decode().splitlines()
    assert lines[1] == "s,u,u_arm"
    vals = [tuple(float(v) for v in ln.split(",")) for ln in lines[2:]]
    assert max(abs(u - ua) for _, u, ua in vals) < 1e-2


def test_section_unknown_arm():
    res = run_cli("section", "--scenario", str(SCENARIOS / "c2_1.json"),
                  "--t", "1", "--line", "1-2-3", "--range=-2,2")
    assert res.returncode == 2


@pytest.mark.parametrize("label", ["1+", "+1", "2-", "1++2", "1+-3", "13", "1+1", "0"])
def test_section_malformed_arm_label_exits_2(capsys, label):
    """An arm label is one that build prints; other text names no arm."""
    code, err = _run_in_process(capsys, "section", "--scenario", str(SCENARIOS / "m2.json"),
                                "--t=5", f"--line={label}")
    assert code == 2
    (line,) = err.splitlines()
    assert line == f"error: no arm with label {label} (hat=False) in this catalog"


def test_section_explicit_line_far_away():
    res = run_cli("section", "--scenario", str(SCENARIOS / "c2_1.json"),
                  "--t", "0", "--line", "abc:1,0,500", "--range=-5,5", "--n", "11")
    assert res.returncode == 0
    lines = res.stdout.decode().splitlines()[2:]
    assert all(abs(float(ln.split(",")[1])) < 1e-12 for ln in lines)


GOLDEN_COMMANDS = {
    "build_c2_1.json": ("build", "--scenario", str(SCENARIOS / "c2_1.json")),
    "stem_c3_1.csv": ("stem", "--scenario", str(SCENARIOS / "c3_1.json"),
                      "--t=-20,0,20"),
    "section_w2.csv": ("section", "--scenario", str(SCENARIOS / "w2.json"),
                       "--t=-2", "--line", "1-3", "--range=-10,10",
                       "--n", "41"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_golden_outputs(name):
    res = run_cli(*GOLDEN_COMMANDS[name])
    assert res.returncode == 0
    golden = GOLDEN / name
    assert golden.exists(), f"golden file {name} missing"
    assert res.stdout == golden.read_bytes()


def test_verify_golden_output(capsys):
    # the default suite all on m2, every check's measured value to the bit
    from kpii_stem.cli import main
    code = main(["verify", "--scenario", str(SCENARIOS / "m2.json")])
    assert code == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / "verify_m2.json").read_bytes()


SAMPLE_GOLDEN_ARGS = ("sample", "--scenario", str(SCENARIOS / "m2.json"),
                      "--t=0.7", "--grid=-30,30,9,-30,30,7")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sample_golden_outputs(tmp_path, fmt):
    out = tmp_path / f"sample.{fmt}"
    res = run_cli(*SAMPLE_GOLDEN_ARGS, "--out", str(out), "--format", fmt)
    assert res.returncode == 0, res.stderr
    assert out.read_bytes() == (GOLDEN / f"sample_m2.{fmt}").read_bytes()


def _grid_axis(lo, hi, n):
    """The grid's coordinates: an overflowing span hi - lo is spaced at half
    scale and doubled, which is exact."""
    import numpy as np
    if hi - lo < float("inf"):
        return np.linspace(lo, hi, n)
    return 2.0 * np.linspace(0.5 * lo, 0.5 * hi, n)


def _sample_reference(scenario, t, grid, fmt):
    """The bytes of `sample` formatted point by point from one full-grid call."""
    import numpy as np
    from kpii_stem import __version__
    from kpii_stem.cli import _scenario_echo, load_scenario
    from kpii_stem.tau import u_on_grid
    sc = load_scenario(scenario)
    sol = sc.build()
    xmin, xmax, nx, ymin, ymax, ny = grid
    xs = _grid_axis(xmin, xmax, nx)
    ys = _grid_axis(ymin, ymax, ny)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    U = u_on_grid(sol.tau, X, Y, t)
    if fmt == "csv":
        parts = [f"# kpii-stem v{__version__} case={sc.case} t={t!r}\n", "x,y,u\n"]
        for i in range(nx):
            for j in range(ny):
                parts.append(f"{float(xs[i])!r},{float(ys[j])!r},"
                             f"{float(U[i, j])!r}\n")
        return "".join(parts).encode()
    doc = {"version": __version__, "scenario": _scenario_echo(sc), "t": t,
           "x_range": [xmin, xmax, nx], "y_range": [ymin, ymax, ny],
           "values": [float(v) for v in U.reshape(-1)]}
    return (json.dumps(doc, indent=2) + "\n").encode()


# ny = BLOCK_POINTS + 1 makes every x-row longer than an evaluation block, so
# `sample` takes four rows per call and eleven rows span three calls, the last
# one short.  In "calls" the rows are short: 150 rows of 120 values span two
# kernel calls of 4 * (BLOCK_POINTS // 120) = 136 rows, the second one short,
# each formatted in one floattext call and written in blocks of 34 rows
SAMPLE_REFERENCE_CASES = {
    "blocks": ("c2_1.json", -2.0, (-20.0, 20.0, 11, -20.0, 20.0, BLOCK_POINTS + 1)),
    "calls": ("m2.json", 1.3, (-30.0, 30.0, 150, -30.0, 30.0, 120)),
    "underflow": ("w2.json", 12.0, (-30.0, 30.0, 31, -30.0, 30.0, 29)),
    "nonfinite": ("c2_1.json", 0.0, (-1e308, 1e308, 5, -30.0, 30.0, 3)),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", sorted(SAMPLE_REFERENCE_CASES))
def test_sample_bytes_match_per_point_reference(tmp_path, case, fmt):
    from kpii_stem.cli import main
    name, t, grid = SAMPLE_REFERENCE_CASES[case]
    scenario = str(SCENARIOS / name)
    out = tmp_path / f"sample.{fmt}"
    spec = ",".join(repr(v) for v in grid)
    assert main(["sample", "--scenario", scenario, f"--t={t!r}",
                 f"--grid={spec}", "--out", str(out), "--format", fmt]) == 0
    want = _sample_reference(scenario, t, grid, fmt)
    assert out.read_bytes() == want
    if fmt == "csv":
        values = [float(ln.rsplit(",", 1)[1]) for ln in want.decode().splitlines()[2:]]
    else:
        values = json.loads(want)["values"]
    if case == "underflow":
        assert 0 < values.count(0.0) < len(values)
    if case == "nonfinite":
        assert any(v != v for v in values)



@pytest.mark.parametrize("fmt,bound_mib", [("csv", 1.69), ("json", 1.46)])
def test_sample_traced_peak_bounded(tmp_path, fmt, bound_mib):
    # one sample call on a 301 x 297 grid (six kernel calls) holds no more
    # than it did when each block of values was formatted alone
    import tracemalloc
    from kpii_stem.cli import main
    argv = ["sample", "--scenario", str(SCENARIOS / "m2.json"), "--t=1.3",
            "--grid=-30,30,301,-30,30,297", "--out", str(tmp_path / f"sample.{fmt}"),
            "--format", fmt]
    assert main(argv) == 0  # imports and plans, outside the trace
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mib * 2**20, peak / 2**20


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("t,grid", [
    (1e308, (-1.0, 1.0, 3, -1.0, 1.0, 2)),              # every u is nan
    (0.0, (-1.7e308, 1.7e308, 3, -1.0, 1.0, 2)),        # linspace overflows
], ids=["t", "grid"])
def test_sample_overflow_is_silent(tmp_path, t, grid, fmt):
    # finite inputs whose arithmetic overflows print nan/inf values, exit 0
    # and write nothing to stderr
    out = tmp_path / f"sample.{fmt}"
    scenario = str(SCENARIOS / "c2_1.json")
    res = run_cli("sample", "--scenario", scenario, f"--t={t!r}",
                  "--grid=" + ",".join(repr(v) for v in grid), "--out", str(out),
                  "--format", fmt)
    assert (res.returncode, res.stderr) == (0, b"")
    assert out.read_bytes() == _sample_reference(scenario, t, grid, fmt)


@pytest.mark.parametrize("line", ["3", "perp"])
def test_section_overflow_is_silent(line):
    # -1e308 - 1e308 overflows; the s axis is built as sample builds its grid
    # axes, and the overflowing u values print without numpy warnings
    res = run_cli("section", "--scenario", str(SCENARIOS / "c3_1.json"), "--t=10",
                  "--line", line, "--range=-1e308,1e308", "--n", "5")
    assert (res.returncode, res.stderr) == (0, b"")
    rows = [ln.split(",") for ln in res.stdout.decode().splitlines()[2:]]
    assert [float(row[0]) for row in rows] == [-1e308, -5e307, 0.0, 5e307, 1e308]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sample_overflowing_span_keeps_grid_coordinates(tmp_path, fmt):
    # -1.7e308 - 1.7e308 overflows, yet the grid's x are -1.7e308, 0, 1.7e308
    import numpy as np
    from kpii_stem.cli import load_scenario, main
    from kpii_stem.tau import u_on_grid
    scenario = SCENARIOS / "c2_1.json"
    out = tmp_path / f"sample.{fmt}"
    assert main(["sample", "--scenario", str(scenario), "--t=0",
                 "--grid=-1.7e308,1.7e308,3,-1,1,2", "--out", str(out),
                 "--format", fmt]) == 0
    xs, ys = [-1.7e308, 0.0, 1.7e308], [-1.0, 1.0]
    want = u_on_grid(load_scenario(scenario).build().tau,
                     np.array(xs)[:, None], np.array(ys), 0.0).ravel().tolist()
    if fmt == "csv":
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        assert [(float(x), float(y)) for x, y, _ in rows] == [(x, y) for x in xs for y in ys]
        got = [float(u) for _, _, u in rows]
    else:
        got = json.loads(out.read_text())["values"]
    # repr compares nan as equal to nan
    assert repr(got) == repr(want)
    assert 0.0 in got and any(u != u for u in got)

def _run_in_process(capsys, *argv):
    """Exit code and stderr of the CLI; an uncaught exception fails the test."""
    from kpii_stem.cli import main
    code = main(list(argv))
    return code, capsys.readouterr().err


NONFINITE_INPUTS = [
    ("sample", "--t=nan", "--grid=-1,1,3,-1,1,3"),
    ("sample", "--t=inf", "--grid=-1,1,3,-1,1,3"),
    ("sample", "--t=0", "--grid=-inf,inf,3,-1,1,3"),
    ("sample", "--t=0", "--grid=-1,1,3,nan,1,3"),
    ("stem", "--t=-20,nan"),
    ("stem", "--t=inf"),
    ("section", "--t=nan", "--line", "3"),
    ("section", "--t=-inf", "--line", "3"),
    ("verify", "--tol=nan"),
    ("verify", "--tol=inf"),
]


@pytest.mark.parametrize("command", NONFINITE_INPUTS, ids=" ".join)
def test_nonfinite_inputs_exit_2(tmp_path, capsys, command):
    out = tmp_path / "existing.csv"
    out.write_text("keep me\n")
    out_args = () if command[0] == "verify" else ("--out", str(out))
    code, err = _run_in_process(capsys, command[0], "--scenario",
                                str(SCENARIOS / "c2_1.json"), *command[1:],
                                *out_args)
    assert code == 2
    (line,) = err.splitlines()
    assert line.startswith("error:") and "finite" in line
    assert out.read_text() == "keep me\n"


@pytest.mark.parametrize("tol", ["-1", "-5e-9", "-1e-300"])
def test_negative_tol_exits_2(capsys, tol):
    # no measurement can meet a negative tolerance: a usage error, not a failed
    # verification
    code, err = _run_in_process(capsys, "verify", "--scenario",
                                str(SCENARIOS / "c2_1.json"), "--suite", "residual",
                                f"--tol={tol}")
    assert code == 2
    (line,) = err.splitlines()
    assert line == f"error: tol must be nonnegative, got {tol}"
    assert capsys.readouterr().out == ""


def test_zero_tol_is_a_verification_failure(capsys):
    # --tol=0 (and -0) is a tolerance that the residual's rounding exceeds
    from kpii_stem.cli import main
    for tol in ("0", "-0"):
        assert main(["verify", "--scenario", str(SCENARIOS / "c2_1.json"),
                     "--suite", "residual", f"--tol={tol}"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert [c["tolerance"] for c in doc["checks"]] == [0.0 if tol == "0" else -0.0]


# Python's json reads NaN, Infinity and -Infinity, and integers of any size
_C2_1 = '"case": "c2_1", "k": [-1.0, -2.0, -1.3333333333333333]'
NONFINITE_SCENARIOS = [
    ("p3", f'{{{_C2_1}, "p3": Infinity}}'),
    ("xi0[0]", f'{{{_C2_1}, "p3": 1.0, "xi0": [NaN, 0, 0]}}'),
    ("k[0]", '{"case": "c2_1", "k": [NaN, -2.0, -1.3333333333333333], "p3": 1.0}'),
    ("k[2]", '{"case": "c2_1", "k": [-1.0, -2.0, -1' + "0" * 400 + '], "p3": 1.0}'),
    ("t_min", f'{{{_C2_1}, "p3": 1.0, "t_min": NaN}}'),
    ("t_min", f'{{{_C2_1}, "p3": 1.0, "t_min": Infinity}}'),
    ("p[1]", f'{{{_C2_1.replace("c2_1", "generic")}, "p": [0.1, -Infinity, 0.3]}}'),
]


@pytest.mark.parametrize("field,text", NONFINITE_SCENARIOS,
                         ids=[f"{f}-{i}" for i, (f, _) in enumerate(NONFINITE_SCENARIOS)])
def test_nonfinite_scenario_numbers_exit_2(tmp_path, capsys, field, text):
    path = tmp_path / "scenario.json"
    path.write_text(text)
    for command in (("build",), ("stem", "--t=-20,20")):
        code, err = _run_in_process(capsys, command[0], "--scenario", str(path),
                                    *command[1:])
        assert code == 2, (command, err)
        (line,) = err.splitlines()
        assert line.startswith(f"error: field {field} must be finite"), line


@pytest.mark.parametrize("bad", [("--range=a,b",), ("--range=5",),
                                 ("--range=1,2,3",), ("--n", "1"),
                                 ("--line=abc:1,0",), ("--line=abc:0,0,1",)],
                         ids=" ".join)
def test_section_bad_arguments_exit_2(capsys, bad):
    code, err = _run_in_process(capsys, "section", "--scenario",
                                str(SCENARIOS / "c2_1.json"), "--t=1",
                                "--line", "3", *bad)
    assert code == 2
    (line,) = err.splitlines()
    assert line.startswith("error:")


# 10**20 is past numpy's size limit, so it is refused without allocating
@pytest.mark.parametrize("command", [
    ("sample", "--t=0", "--grid=-1,1,99999999999999999999,-1,1,2"),
    ("sample", "--t=0", "--grid=-1,1,2,-1,1,99999999999999999999"),
    ("section", "--t=1", "--line", "3", "--n", "99999999999999999999"),
    ("stem", "--t=,"),
    ("stem", "--t= "),
], ids=" ".join)
def test_unsizable_or_empty_inputs_exit_2(tmp_path, capsys, command):
    out = tmp_path / "existing.csv"
    out.write_text("keep me\n")
    code, err = _run_in_process(capsys, command[0], "--scenario",
                                str(SCENARIOS / "c2_1.json"), *command[1:],
                                "--out", str(out))
    assert code == 2
    (line,) = err.splitlines()
    assert line.startswith("error:")
    assert out.read_text() == "keep me\n"


def test_stem_nonfinite_endpoints_exit_1(tmp_path, capsys):
    # at t = 1e308 the endpoints overflow; the dual-path check must not pass
    out = tmp_path / "existing.csv"
    out.write_text("keep me\n")
    code, err = _run_in_process(capsys, "stem", "--scenario",
                                str(SCENARIOS / "c2_1.json"), "--t=1e308",
                                "--out", str(out))
    assert code == 1
    (line,) = err.splitlines()
    assert line.startswith("error: closed-form and geometric endpoints disagree")
    assert out.read_text() == "keep me\n"


def test_stem_nonfinite_endpoints_with_phase_constants_exit_1(tmp_path, capsys):
    # nonzero phase constants run the same closed-form check, which must not pass
    scenario = tmp_path / "scenario.json"
    scenario.write_text(f'{{{_C2_1}, "p3": 1.0, "xi0": [0.5, 0, 0]}}')
    out = tmp_path / "existing.csv"
    out.write_text("keep me\n")
    code, err = _run_in_process(capsys, "stem", "--scenario", str(scenario),
                                "--t=1e308", "--out", str(out))
    assert code == 1
    (line,) = err.splitlines()
    assert line.startswith("error: closed-form and geometric endpoints disagree")
    assert out.read_text() == "keep me\n"


def test_stem_extreme_draw_gets_a_closed_form_length(tmp_path, capsys):
    # the distance between the closed-form endpoints stays finite where an
    # expanded sqrt(g) form of the length rounds g below zero (the future side)
    path = tmp_path / "scenario.json"
    path.write_text('{"case": "c3_1", "k": [153261905.58773607, 507956682.225713, '
                    '-7410221.174899173], "p3": -1135704618253105.8}')
    out = tmp_path / "stem.csv"
    code, err = _run_in_process(capsys, "stem", "--scenario", str(path), "--t=-20,20",
                                "--out", str(out))
    assert (code, err) == (0, "")
    lines = out.read_text().splitlines()
    rows = [dict(zip(lines[1].split(","), map(float, line.split(",")[:-1])))
            for line in lines[2:]]
    assert [row["t"] for row in rows] == [-20.0, 20.0]
    for row in rows:
        closed, length = row["length_closed_form"], row["length"]
        assert math.isfinite(closed) and math.isfinite(length)
        scale = max(1.0, math.hypot(row["ax"], row["ay"]), math.hypot(row["bx"], row["by"]))
        assert abs(closed - length) <= 2e-9 * scale, row


# finite scenario numbers whose frequency omega = -(k^4 + 3 p^2) / k overflows
@pytest.mark.parametrize("text", [
    '{"case": "c2_1", "k": [1e100, -2.0, -1.3333333333333333], "p3": 1.0}',
    f'{{{_C2_1}, "p3": 1e200}}',
], ids=["k", "p3"])
def test_overflowing_frequency_exits_3(tmp_path, capsys, text):
    path = tmp_path / "scenario.json"
    path.write_text(text)
    for command in (("build",), ("stem", "--t=-20,20")):
        code, err = _run_in_process(capsys, command[0], "--scenario", str(path),
                                    *command[1:])
        assert code == 3, (command, err)
        (line,) = err.splitlines()
        assert line.startswith("error: inadmissible scenario: omega is not finite"), line


def test_overflowing_resolved_p_exits_3(tmp_path, capsys):
    # k is finite, but the constraint's p1 = k1 (k1 k3 + k3^2 + p3) / k3
    # overflows: to inf at k1 = 1e200, and k3**2 raises OverflowError at
    # k3 = 1e300
    path = tmp_path / "scenario.json"
    for text in ('{"case": "c2_1", "k": [1e200, -2.0, -1.3333333333333333], "p3": 1.0}',
                 '{"case": "c2_1", "k": [1, 2, 1e300], "p3": 1}'):
        path.write_text(text)
        code, err = _run_in_process(capsys, "build", "--scenario", str(path))
        assert code == 3, err
        (line,) = err.splitlines()
        assert line.startswith("error: inadmissible scenario:"), line


def test_indeterminate_resonance_exits_3(tmp_path, capsys):
    # p1 and p2 differ by one ulp at 1e17, so both factor pairs of a12 vanish
    # to rounding: the resonance type is undecidable, an inadmissible input
    path = tmp_path / "scenario.json"
    path.write_text('{"case": "generic", "k": [1.0, 1.0, 2.0], '
                    '"p": [1.0000000000000002e17, 1e17, 0.0]}')
    for command in (("build",), ("stem", "--t=-20,20"), ("verify",),
                    ("section", "--t=0", "--line", "perp"),
                    ("sample", "--t=0", "--grid=-1,1,3,-1,1,3",
                     "--out", str(tmp_path / "u.csv"))):
        code, err = _run_in_process(capsys, command[0], "--scenario", str(path),
                                    *command[1:])
        assert code == 3, (command, err)
        (line,) = err.splitlines()
        assert line.startswith("error: inadmissible scenario: numerator and denominator "
                               "both vanish"), line


def test_underflowing_generic_coefficients_give_no_traceback(tmp_path, capsys):
    # each a_ij factor passes the zero test, but the product of two underflows
    path = tmp_path / "scenario.json"
    path.write_text('{"case": "generic", "k": [1e-300, 2e-300, 3e-300], '
                    '"p": [1, 0.5, 0.2]}')
    for command in (("build",), ("verify", "--suite", "residual"),
                    ("sample", "--t=0", "--grid=-1,1,3,-1,1,3",
                     "--out", str(tmp_path / "u.csv"))):
        code, err = _run_in_process(capsys, command[0], "--scenario", str(path),
                                    *command[1:])
        if code:
            (line,) = err.splitlines()
            assert line.startswith("error:"), (command, line)


@pytest.mark.parametrize("name, xi0", [("c3_1", [1e10, 0, 0]), ("c2_1", [0, 1e300, 0])],
                         ids=["c3_1", "c2_1"])
def test_large_phase_constants_build_a_catalog(tmp_path, capsys, name, xi0):
    # the catalog is read at t = -inf and +inf, where xi0 drops out
    doc = json.loads((SCENARIOS / f"{name}.json").read_text())
    doc["xi0"] = xi0
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    for command in (("build",), ("stem", "--t=-20,20")):
        code, err = _run_in_process(capsys, command[0], "--scenario", str(path),
                                    *command[1:])
        assert code == 0, (command, err)
    # the closed-form endpoints carry the shift, so the check and length run
    from kpii_stem.cli import main
    assert main(["stem", "--scenario", str(path), "--t=-20,20", "--format", "json"]) == 0
    for row in json.loads(capsys.readouterr().out)["rows"]:
        assert 0.0 <= row["endpoint_mismatch"] < 1e-9
        assert math.isfinite(row["length_closed_form"])


def test_stem_json_reports_endpoint_mismatch(tmp_path):
    res = run_cli("stem", "--scenario", str(SCENARIOS / "c2_1.json"),
                  "--t=-20,0,20", "--format", "json")
    assert res.returncode == 0
    for row in json.loads(res.stdout)["rows"]:
        assert list(row)[-1] == "endpoint_mismatch"
        assert 0.0 <= row["endpoint_mismatch"] < 1e-9
    # with phase constants the closed-form endpoints shift, and the check runs
    doc = json.loads((SCENARIOS / "c3_1.json").read_text())
    doc["xi0"] = [0.3, 0.0, 0.0]
    path = tmp_path / "shifted.json"
    path.write_text(json.dumps(doc))
    res = run_cli("stem", "--scenario", str(path), "--t=-20,20", "--format", "json")
    assert res.returncode == 0
    rows = json.loads(res.stdout)["rows"]
    assert len(rows) == 2
    for row in rows:
        assert 0.0 <= row["endpoint_mismatch"] < 1e-9
        assert row["length_closed_form"] == pytest.approx(row["length"], rel=1e-9)
    # the CSV has no such column
    res = run_cli("stem", "--scenario", str(path), "--t=-20,20")
    assert b"endpoint_mismatch" not in res.stdout


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sample_write_error_mid_stream_exits_4(capsys, fmt):
    code, err = _run_in_process(capsys, "sample", "--scenario",
                                str(SCENARIOS / "c2_1.json"), "--t=0",
                                "--grid=-20,20,300,-20,20,300",
                                "--out", "/dev/full", "--format", fmt)
    assert code == 4
    (line,) = err.splitlines()
    assert line.startswith("error: cannot write /dev/full")


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", [
    ("build",), ("verify", "--suite", "residual"), ("stem", "--t=-20,0,20"),
], ids=lambda c: c[0])
def test_closed_stdout_pipe_exits_4(command, unbuffered):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        res = subprocess.run(
            [sys.executable, "-m", "kpii_stem.cli", command[0], "--scenario",
             str(SCENARIOS / "c2_1.json"), *command[1:]],
            stdout=write_end, stderr=subprocess.PIPE, env=env, cwd=REPO)
    finally:
        os.close(write_end)
    err = res.stderr.decode()
    assert res.returncode == 4, err
    assert "Traceback" not in err and "Exception ignored" not in err
    (line,) = err.splitlines()
    assert line.startswith("error: cannot write stdout")


@pytest.mark.parametrize("command", [
    ("stem", "--t=-20,20"),
    ("section", "--t=1", "--line=3"),
    ("section", "--t=1", "--line", "perp"),
    ("section", "--t=1", "--line", "abc:1,0,0"),
], ids=["stem", "section-arm", "section-perp", "section-abc"])
def test_generic_scenario_without_stems_exits_2(tmp_path, capsys, command):
    # stems and arms are defined for the resonant cases only: a usage error,
    # not a failed verification
    path = tmp_path / "generic.json"
    path.write_text('{"case": "generic", "k": [1, 2, 3], "p": [0.1, 0.2, 0.35]}')
    assert _run_in_process(capsys, "build", "--scenario", str(path)) == (0, "")
    capsys.readouterr()
    code, err = _run_in_process(capsys, command[0], "--scenario", str(path), *command[1:])
    assert code == 2
    (line,) = err.splitlines()
    assert line.startswith("error:") and line.endswith("a resonant case"), line
