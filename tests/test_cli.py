"""Command-line interface: exit codes, determinism, golden outputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_verify_default_suite_reports_json(name):
    res = run_cli("verify", "--scenario", str(SCENARIOS / name))
    assert res.returncode in (0, 1)
    assert b"Traceback" not in res.stderr
    doc = json.loads(res.stdout)
    assert doc["passed"] is (res.returncode == 0)
    suites = {c["check"].split("_")[0] for c in doc["checks"]}
    assert suites == {"field", "limit", "asymptotic", "ridge"}


def test_figures_match_shipped_scenarios():
    from kpii_stem import FIGURES
    assert set(FIGURES) == {p.stem for p in SCENARIOS.glob("*.json")}
    for name, fig in FIGURES.items():
        data = json.loads((SCENARIOS / f"{name}.json").read_text())
        assert data["case"] == fig["case"]
        assert tuple(data["k"]) == fig["k"]
        assert data["p3"] == fig["p3"]
        assert data["branch"] == "first"
        assert data["xi0"] == [0.0, 0.0, 0.0]


def test_verify_tolerance_override_can_fail():
    res = run_cli("verify", "--scenario", str(SCENARIOS / "w2.json"),
                  "--suite", "residual", "--tol", "1e-16")
    assert res.returncode == 1
    doc = json.loads(res.stdout)
    assert doc["passed"] is False
    assert doc["checks"][0]["tolerance"] == 1e-16


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
