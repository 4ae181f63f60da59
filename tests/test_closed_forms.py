"""The generated closed-form tables: layout, loading on first use, and the
dual-path endpoint check that reads them."""

import ast
import itertools
import subprocess
import sys
from pathlib import Path

import pytest

from kpii_stem import _closed_forms, catalog, stem_endpoints, stem_length_formula, stem_side
from kpii_stem.errors import InternalConsistencyError

from conftest import SCENARIOS, build_scenario

REPO = Path(__file__).resolve().parent.parent
TABLES = REPO / "src" / "kpii_stem" / "_closed_forms.py"


def test_each_expression_is_defined_once():
    tree = ast.parse(TABLES.read_text(encoding="utf-8"))
    bodies = [ast.dump(node.body[0]) for node in tree.body
              if isinstance(node, ast.FunctionDef)]
    assert len(bodies) == 282
    assert len(set(bodies)) == len(bodies)


def test_table_entries_are_tuples_of_functions():
    for table, width in ((_closed_forms.VERTEX, 4), (_closed_forms.SEGMENT, 3)):
        for entries in table.values():
            for entry in entries.values():
                assert isinstance(entry, tuple) and len(entry) == width
                assert all(callable(f) for f in entry)


def test_table_keys_are_every_junction_and_segment_of_each_case():
    # every triple of a template's terms meets in one point, and every pair
    # boundary runs between the junctions of the two other terms
    n_vertex = n_segment = 0
    for case, template in catalog.TEMPLATES.items():
        eps = sorted(e for e, _ in template)
        vertex = set(itertools.combinations(eps, 3))
        segment = {(edge, ends) for edge in itertools.combinations(eps, 2)
                   for ends in itertools.combinations([e for e in eps if e not in edge], 2)}
        assert set(_closed_forms.VERTEX[case.value]) == vertex
        assert set(_closed_forms.SEGMENT[case.value]) == segment
        n_vertex += len(vertex)
        n_segment += len(segment)
    assert set(_closed_forms.VERTEX) == set(_closed_forms.SEGMENT) == {
        c.value for c in catalog.TEMPLATES}
    assert (n_vertex, n_segment) == (56, 144)


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

    def counted(table, key, entry):
        def wrap(i, f):
            def g(*args):
                calls[(table, key, i)] = calls.get((table, key, i), 0) + 1
                return f(*args)
            return g
        return tuple(wrap(i, f) for i, f in enumerate(entry))

    for table in ("VERTEX", "SEGMENT"):
        entries = getattr(_closed_forms, table)[name]
        for key, entry in list(entries.items()):
            monkeypatch.setitem(entries, key, counted(table, key, entry))
    sol = build_scenario(name)
    for t in (-40.0, -20.0, -5.0, 5.0, 20.0, 40.0) * 2:
        stem_endpoints(sol, t)
        stem_length_formula(sol, t)
    junctions = {j for t in (-1.0, 1.0) for j in stem_side(sol, t)[1]}
    assert {(table, key) for table, key, _ in calls} == (
        {("VERTEX", j) for j in junctions}
        | {("SEGMENT", key) for key in _segment_keys(sol)})
    assert set(calls.values()) == {1}
    assert len(calls) == 4 * len(junctions) + 3 * 2


def _segment_keys(sol):
    keys = set()
    for t in (-1.0, 1.0):
        ja, jb = (set(j) for j in stem_side(sol, t)[1])
        keys.add((tuple(sorted(ja & jb)), tuple(sorted(ja ^ jb))))
    return keys

