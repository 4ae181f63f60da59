from pathlib import Path

import numpy as np
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


def richardson_fd(f, x, h):
    """Fourth-order central difference with Richardson extrapolation."""
    d = lambda hh: (f(x + hh) - f(x - hh)) / (2.0 * hh)
    return (4.0 * d(h / 2.0) - d(h)) / 3.0


def random_points(rng, n, span=20.0, tspan=5.0):
    return np.column_stack([rng.uniform(-span, span, n),
                            rng.uniform(-span, span, n),
                            rng.uniform(-tspan, tspan, n)])
