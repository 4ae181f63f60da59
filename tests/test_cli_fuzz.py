"""Fuzzed command lines: every run ends in a documented exit code (0-4).

Each subcommand gets argv built from valid and invalid values alike; the run
must return an exit code or leave through argparse's SystemExit, and raise
nothing else.  Grid and sample counts stay small (at most 50) or are far past
numpy's size limit, so no run allocates much.

Fuzzed scenario contents go through build, stem, section and sample: each
run ends in a documented exit code, a failing one says why in exactly one
error line, no run writes warning text, and a sample file that is written
holds the bytes of the point-by-point repr reference.
"""

import contextlib
import io
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kpii_stem.cli import main
from test_cli import _sample_reference

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def mostly(common, rare):
    """common four times in five, so that most runs get past parsing."""
    return st.integers(0, 4).flatmap(lambda i: rare if i == 4 else common)


numbers = mostly(st.floats(-30.0, 30.0).map(repr), st.one_of(
    st.floats().map(repr),
    st.integers(-10**30, 10**30).map(str),
    st.sampled_from(["", " ", "x", "1e400", "-0", "nan", "-inf", "1_0", "0x10"]),
    st.text(max_size=4),
))
counts = mostly(st.integers(2, 50).map(str), st.one_of(
    st.integers(-2, 1).map(str), st.sampled_from(["", "x", "2.5", "99999999999999999999"])))
ordered = st.tuples(st.floats(-30.0, 30.0), st.floats(0.5, 30.0)).map(
    lambda p: (repr(p[0]), repr(p[0] + p[1])))
intervals = mostly(ordered, st.tuples(numbers, numbers))
extras = mostly(st.just(()), st.sampled_from(
    ["--bogus", "--format=xml", "--t=0", "--out", "-h"]).map(lambda a: (a,)))


def _scenario():
    paths = [str(p) for p in sorted(SCENARIOS.glob("*.json"))]
    return mostly(st.sampled_from(paths),
                  st.sampled_from([str(SCENARIOS / "missing.json"), str(SCENARIOS)]))


def _out(out_dir):
    return mostly(st.just(str(out_dir / "out.txt")),
                  st.sampled_from([str(out_dir / "missing" / "out.txt"), str(out_dir)]))


def _argv(command, out_dir):
    head = st.tuples(st.just(command), st.just("--scenario"), _scenario())
    if command == "build":
        body = st.just(())
    elif command == "sample":
        grid = st.tuples(intervals, counts, intervals, counts).map(
            lambda g: ",".join([*g[0], g[1], *g[2], g[3]]))
        body = st.tuples(numbers.map("--t={}".format), grid.map("--grid={}".format),
                         st.just("--out"), _out(out_dir),
                         st.sampled_from(["--format=csv", "--format=json"]))
    elif command == "stem":
        ts = mostly(st.lists(numbers, min_size=1, max_size=4), st.lists(numbers, max_size=4))
        body = st.tuples(ts.map(",".join).map("--t={}".format),
                         st.sampled_from(["--format=csv", "--format=json"]))
    elif command == "verify":
        body = st.tuples(st.sampled_from(["residual", "limits", "asymptotics", "ridge",
                                          "all", "bogus"]).map("--suite={}".format),
                         mostly(st.just("--tol=1e-3"), numbers.map("--tol={}".format)))
    else:
        line = st.one_of(st.sampled_from(["3", "1+3", "1-3^", "1+2+3^", "perp", "bogus",
                                          "abc:1,0,0", "abc:0,0,1", "abc:", ""]),
                         st.lists(numbers, min_size=3, max_size=3)
                         .map(",".join).map("abc:{}".format))
        body = st.tuples(numbers.map("--t={}".format), line.map("--line={}".format),
                         intervals.map(",".join).map("--range={}".format),
                         counts.map("--n={}".format), st.just("--out"), _out(out_dir))
    return st.tuples(head, body, extras).map(lambda parts: [a for p in parts for a in p])


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("command", ["build", "sample", "stem", "verify", "section"])
def test_fuzzed_argv_exits_with_documented_code(command, out_dir):
    @settings(max_examples=100, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_argv(command, out_dir))
    def run(argv):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2, 3, 4), (argv, code)

    run()


# each number in +-3 half the time, else +-10**U(-300, 300)
magnitudes = st.one_of(st.floats(-3.0, 3.0),
                       st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-300.0, 300.0))
                       .map(lambda se: se[0] * 10.0**se[1]))
triples = st.lists(magnitudes, min_size=3, max_size=3)
scenarios = st.fixed_dictionaries({
    "case": st.sampled_from(["generic", "c2_1", "c2_2", "c2_3", "c2_4", "w2", "m2",
                             "c3_1", "c3_2"]),
    "branch": st.sampled_from(["first", "second"]),
    "k": triples, "p3": magnitudes, "p": triples,
    "xi0": st.one_of(st.just([0.0, 0.0, 0.0]), triples),
})


SAMPLE_GRID = (-20.0, 20.0, 5, -15.0, 15.0, 4)
SCENARIO_COMMANDS = {
    "build": ["build"],
    "stem": ["stem", "--t=-20,0.5,20"],
    "sample-csv": ["sample", "--grid=" + ",".join(map(str, SAMPLE_GRID)), "--format=csv"],
    "sample-json": ["sample", "--grid=" + ",".join(map(str, SAMPLE_GRID)), "--format=json"],
    # one stem time, whose midpoint amplitude is a one-point u, and sections
    # anchored at the stem midpoint
    "stem-one-t": ["stem", "--t=5"],
    "section-perp": ["section", "--t=5", "--line=perp"],
    "section-abc": ["section", "--t=-3", "--line=abc:1,0.5,0", "--n=9"],
}


@pytest.mark.parametrize("command", list(SCENARIO_COMMANDS))
def test_fuzzed_scenario_exits_with_one_error_line_and_no_warnings(command, out_dir):
    # sample's t is drawn from the same magnitudes, so extreme scenarios and
    # times can drive u to subnormal, nan or inf values; a written file must
    # hold the bytes of the point-by-point repr reference
    path = out_dir / f"scenario-{command}.json"
    out = out_dir / f"{command}.out"
    argv = SCENARIO_COMMANDS[command]
    sample = argv[0] == "sample"

    @settings(max_examples=150, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(scenarios, magnitudes if sample else st.none())
    def run(scenario, t):
        path.write_text(json.dumps(scenario))
        out.unlink(missing_ok=True)
        extra = [f"--t={t!r}", "--out", str(out)] if sample else []
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main([argv[0], "--scenario", str(path), *argv[1:], *extra])
        lines = err.getvalue().splitlines()
        assert code in (0, 1, 2, 3, 4), (scenario, code)
        assert not caught, (scenario, [str(w.message) for w in caught])
        if code:
            assert len(lines) == 1 and lines[0].startswith("error:"), (scenario, lines)
        else:
            assert not lines, (scenario, lines)
            if sample:
                with np.errstate(all="ignore"):
                    want = _sample_reference(str(path), t, SAMPLE_GRID, argv[-1].split("=")[1])
                assert out.read_bytes() == want, (scenario, t)

    run()
