"""The generated closed-form table: layout, the facet rule that picks its
keys, loading on first use, and the dual-path endpoint check that reads it."""

import ast
import importlib.util
import itertools
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kpii_stem import (_closed_forms, arm_catalog, catalog, cli, stem_endpoints,
                       stem_length_formula, stem_side)
from kpii_stem.errors import (DegenerateParameterError, InadmissibleParameterError,
                              InternalConsistencyError)

from conftest import SCENARIOS, build_scenario

REPO = Path(__file__).resolve().parent.parent
TABLES = REPO / "src" / "kpii_stem" / "_closed_forms.py"


def test_each_expression_is_defined_once():
    tree = ast.parse(TABLES.read_text(encoding="utf-8"))
    bodies = [ast.dump(node.body[0]) for node in tree.body
              if isinstance(node, ast.FunctionDef)]
    assert len(bodies) == 77
    assert len(set(bodies)) == len(bodies)


def test_table_entries_are_tuples_of_functions():
    assert not hasattr(_closed_forms, "SEGMENT")
    for entries in _closed_forms.VERTEX.values():
        for entry in entries.values():
            assert isinstance(entry, tuple) and len(entry) == 4
            assert all(callable(f) for f in entry)


def _orientation(a, b, c, d):
    """Sign of det(b - a, c - a, d - a), in integers."""
    u, v, w = ([q[i] - a[i] for i in range(3)] for q in (b, c, d))
    det = (u[0] * (v[1] * w[2] - v[2] * w[1]) - u[1] * (v[0] * w[2] - v[2] * w[0])
           + u[2] * (v[0] * w[1] - v[1] * w[0]))
    return (det > 0) - (det < 0)


def test_table_keys_are_the_facet_triples():
    # a limit junction is three exponent vectors on one facet of the
    # template's hull: their plane has every other vector on one side and
    # at least one strictly
    n_vertex = 0
    for case, template in catalog.TEMPLATES.items():
        eps = sorted(e for e, _ in template)
        vertex = {tri for tri in itertools.combinations(eps, 3)
                  if len({_orientation(*tri, e) for e in eps if e not in tri} - {0}) == 1}
        assert set(_closed_forms.VERTEX[case.value]) == vertex
        # a 4-term template is a tetrahedron, a 5-term one a square pyramid
        # without its two diagonal planes
        assert len(vertex) == {4: 4, 5: 8}[len(eps)]
        n_vertex += len(vertex)
    assert set(_closed_forms.VERTEX) == {c.value for c in catalog.TEMPLATES}
    assert n_vertex == 48


def test_generator_reproduces_the_table(tmp_path):
    """tools/generate_closed_forms.py, run on today's catalog, writes the
    committed table byte for byte."""
    pytest.importorskip("sympy")
    spec = importlib.util.spec_from_file_location(
        "generate_closed_forms", REPO / "tools" / "generate_closed_forms.py")
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    out = tmp_path / "_closed_forms.py"
    generator.main(out)
    assert out.read_bytes() == TABLES.read_bytes()


def _sweep_draws(rng, n):
    """n (k, p3) draws: one in three plain, one in three with k1 + k3 or
    k1 + k2 + k3 within 1e-12 .. 1e-2 of zero, one in three with the k
    magnitudes spread over four decades and p3 at the KPII scale k**2."""
    for i in range(n):
        k = rng.uniform(0.4, 2.5, 3) * rng.choice([-1.0, 1.0], 3)
        p3 = rng.uniform(-2.0, 2.0)
        if i % 3 == 1:
            delta = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12, -2)
            k[2] = (-k[0] if rng.integers(2) else -k[0] - k[1]) + delta
        elif i % 3 == 2:
            scale = 10.0 ** rng.uniform(-2, 2, 3)
            k = k * scale
            p3 *= float(np.prod(scale)) ** (2 / 3)
        yield k, p3


def test_every_catalog_key_is_in_the_tables():
    cases = list(catalog.TEMPLATES)
    catalogs = 0
    for case in cases:
        for branch in catalog.Branch:
            spec = catalog.CaseSpec(case, branch)
            rng = np.random.default_rng([19, cases.index(case), list(catalog.Branch).index(branch)])
            for k, p3 in _sweep_draws(rng, 150):
                try:
                    sol = catalog.build_solution(catalog.resolve_constraints(k, p3, spec), spec)
                    cat = arm_catalog(sol)
                except (InadmissibleParameterError, DegenerateParameterError,
                        InternalConsistencyError):  # inadmissible, or no reconnection
                    continue
                catalogs += 1
                for junctions in (cat.past_junctions, cat.future_junctions):
                    assert set(junctions) <= set(_closed_forms.VERTEX[case.value]), (case, k, p3)
    assert catalogs >= 1500


def test_missing_table_key_is_an_error_not_a_traceback(monkeypatch, capsys):
    junction = stem_side(build_scenario("c3_1"), 5.0)[1][0]
    monkeypatch.delitem(_closed_forms.VERTEX["c3_1"], junction)
    assert cli.main(["stem", "--scenario", str(SCENARIOS / "c3_1.json"), "--t=5"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: no closed-form VERTEX entry")


_PROBE = """
import sys
import kpii_stem, kpii_stem.cli as cli
loaded = lambda: "kpii_stem._closed_forms" in sys.modules
seen = [("import", loaded())]
scenario = sys.argv[1]
for argv in (["build"], ["sample", "--t=1", "--grid=-5,5,4,-5,5,4", "--out", sys.argv[2]],
             ["verify"], ["stem", "--t=-20,20", "--out", sys.argv[2]]):
    code = cli.main([argv[0], "--scenario", scenario, *argv[1:]])
    seen.append((argv[0], code, loaded()))
print(seen)
"""


def test_tables_load_only_for_stem_queries(tmp_path):
    res = subprocess.run(
        [sys.executable, "-c", _PROBE, str(SCENARIOS / "c3_1.json"), str(tmp_path / "out")],
        capture_output=True, text=True, check=True)
    seen = ast.literal_eval(res.stdout.splitlines()[-1])
    assert seen == [("import", False), ("build", 0, False), ("sample", 0, False),
                    ("verify", 0, False), ("stem", 0, True)]


def test_dual_path_check_runs_on_every_call(monkeypatch):
    sol = build_scenario("c3_1")
    junction = stem_side(sol, -20.0)[1][0]
    xt, xL, yt, yL = _closed_forms.VERTEX["c3_1"][junction]
    monkeypatch.setitem(_closed_forms.VERTEX["c3_1"], junction,
                        (lambda *a: xt(*a) + 1e-3, xL, yt, yL))
    with pytest.raises(InternalConsistencyError):
        stem_endpoints(sol, -20.0)
    # the coefficients are kept per solution, the comparison is not
    with pytest.raises(InternalConsistencyError):
        stem_endpoints(sol, -35.0)


@pytest.mark.parametrize("name", ["c3_1", "m2"])
def test_table_entries_are_evaluated_once_per_solution(monkeypatch, name):
    calls = {}

    def counted(key, entry):
        def wrap(i, f):
            def g(*args):
                calls[(key, i)] = calls.get((key, i), 0) + 1
                return f(*args)
            return g
        return tuple(wrap(i, f) for i, f in enumerate(entry))

    entries = _closed_forms.VERTEX[name]
    for key, entry in list(entries.items()):
        monkeypatch.setitem(entries, key, counted(key, entry))
    sol = build_scenario(name)
    for t in (-40.0, -20.0, -5.0, 5.0, 20.0, 40.0) * 2:
        stem_endpoints(sol, t)
        stem_length_formula(sol, t)
    junctions = {j for t in (-1.0, 1.0) for j in stem_side(sol, t)[1]}
    assert {key for key, _ in calls} == junctions
    assert set(calls.values()) == {1}
    assert len(calls) == 4 * len(junctions)
