"""floattext writes each float64 as repr and json.dumps do, bit pattern by bit pattern."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpii_stem import floattext
from kpii_stem.tau import BLOCK_POINTS

EDGES = [1e16, 9999999999999998.0, 1e15, 1e-4, 1e-5, 0.0001, 1e22, 1e23,
         2.0**53 - 1, 2.0**53 + 2, 5e-324, 1.7976931348623157e308,
         2.2250738585072014e-308, 0.0, -0.0, float("inf"), float("-inf"), float("nan")]


def _texts(values, nonfinite=floattext.REPR_NONFINITE):
    text = floattext.text(floattext.columns(values, nonfinite, sep=b"\n"))
    return text.decode("ascii").split("\n")[:-1]


def _assert_repr(bits):
    values = np.asarray(bits, dtype=np.uint64).view(np.float64)
    want = [repr(v) for v in values.tolist()]
    got = _texts(values)
    assert len(got) == len(want)
    wrong = [(w, g) for w, g in zip(want, got) if w != g]
    assert not wrong, wrong[:10]


@pytest.mark.parametrize("sign", [0, 1 << 63], ids=["positive", "negative"])
def test_every_subnormal_below_2_16(sign):
    _assert_repr(np.arange(1, 2**16, dtype=np.uint64) | np.uint64(sign))


def test_every_power_of_two_and_its_neighbours():
    normal = np.arange(1, 2047, dtype=np.uint64) << np.uint64(52)
    subnormal = np.uint64(1) << np.arange(52, dtype=np.uint64)
    powers = np.concatenate([subnormal, normal])
    assert len(powers) == 2098
    _assert_repr(np.concatenate([powers - np.uint64(1), powers, powers + np.uint64(1)]))


def test_random_bit_patterns():
    rng = np.random.default_rng(20260101)
    _assert_repr(rng.integers(0, 2**64, 200_000, dtype=np.uint64))


def test_edges_in_both_token_sets():
    values = EDGES + [-v for v in EDGES]
    assert _texts(values) == [repr(v) for v in values]
    assert _texts(values, floattext.JSON_NONFINITE) == [json.dumps(v) for v in values]


@pytest.mark.parametrize("sep", [b"", b"\n", b",\n    ", b",\n        123456789"])
def test_separator_follows_every_value(sep):
    values = [0.1, -0.0, float("nan"), 1e-300, 123.0, -float("inf")]
    matrix = floattext.columns(values, sep=sep)
    assert matrix.dtype == np.uint8 and matrix.shape[0] == len(values)
    assert floattext.text(matrix) == b"".join(repr(v).encode() + sep for v in values)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=50))
def test_matches_repr_and_json(values):
    assert _texts(values) == [repr(v) for v in values]
    assert _texts(values, floattext.JSON_NONFINITE) == [json.dumps(v) for v in values]


@pytest.mark.parametrize("sep,bound", [(b"\n", 104), (b",\n    ", 112)], ids=["csv", "json"])
def test_traced_peak_per_value_bounded(sep, bound):
    # sample formats up to four blocks of values in one call; the bound per
    # value includes the result's 32 (40) bytes per row
    import tracemalloc
    n = 4 * BLOCK_POINTS
    rng = np.random.default_rng(7)
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)
    values[::97] = np.resize([0.0, np.nan, np.inf], len(values[::97]))
    floattext.columns(values[:10], sep=sep)  # the tables, outside the trace
    tracemalloc.start()
    try:
        floattext.columns(values, sep=sep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * n, peak / n
