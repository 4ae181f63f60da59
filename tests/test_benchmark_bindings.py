"""The benchmark harness's hooks into the package still resolve.

perfbench/spans.py wraps module globals by name (BINDING_SITES) and the
workloads call the package through perfbench/workloads.library_api().  A
refactor that renames or drops one of those names would otherwise surface
only as a crash of a benchmark run.  The harness files are read, never edited.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
workloads = _load("workloads")


@pytest.mark.parametrize("site", spans.BINDING_SITES,
                         ids=lambda s: f"{s[0].__name__}.{s[1]}")
def test_binding_site_resolves(site):
    module, attr = site[:2]
    assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_library_api_entry_points_resolve():
    api = workloads.library_api()
    assert all(callable(fn) for fn in vars(api).values())
    # the tracer wraps these api attributes by name
    assert set(spans.ENTRY_POINTS) <= set(vars(api))
