"""No module imports another kpii_stem module's private (underscore) names."""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# (importer, imported name): the only private imports there are.  The importer
# is the package module's name, or "tests" for any test file.
ALLOWED = {
    # the generated closed-form tables have one reader
    ("geometry", "_closed_forms"),
    # ... and their layout and per-solution evaluation are checked directly
    ("tests", "_closed_forms"),
    # the tau kernel's weights, checked against references
    ("tests", "tau._scaled_weights"),
    # the scenario echo that `sample` writes, rebuilt by the byte reference
    ("tests", "cli._scenario_echo"),
    # the limit recentring read from catalog.SHIFTS, checked against a
    # written-out per-case table
    ("tests", "verify._limit_shift"),
}


def _private(part):
    return part.startswith("_") and not part.endswith("__")


def _imports(path, package):
    """Dotted names, relative to kpii_stem, that the file imports from it."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("kpii_stem."):
                    yield alias.name[len("kpii_stem."):]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                if not package:
                    continue
                module = node.module or ""
            elif node.module == "kpii_stem" or (node.module or "").startswith("kpii_stem."):
                module = node.module[len("kpii_stem."):]
            else:
                continue
            for alias in node.names:
                yield f"{module}.{alias.name}" if module else alias.name


def _private_imports():
    found = set()
    for root, package in ((REPO / "src" / "kpii_stem", True), (REPO / "tests", False)):
        for path in sorted(root.rglob("*.py")):
            importer = path.stem if package else "tests"
            for name in _imports(path, package):
                if any(_private(part) for part in name.split(".")):
                    found.add((importer, name))
    return found


def test_no_private_imports_across_modules():
    found = _private_imports()
    assert found - ALLOWED == set()
    # a stale entry would let a private import come back unnoticed
    assert ALLOWED - found == set()
