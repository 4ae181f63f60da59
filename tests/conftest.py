from pathlib import Path

import pytest

from kpii_stem.cli import load_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def build_scenario(name):
    """The solution of the shipped scenario file scenarios/<name>.json."""
    return load_scenario(SCENARIOS / f"{name}.json").build()


@pytest.fixture(scope="session")
def solutions():
    """One built solution per shipped scenario, keyed by its file name."""
    return {p.stem: build_scenario(p.stem) for p in sorted(SCENARIOS.glob("*.json"))}

