"""``format_g17`` against Python's own ``"%.17g"``, whose bytes it must
reproduce for every float64."""

import math
import sys

import numpy as np
from hypothesis import given, strategies as st

from wqmpc.floatfmt import CHUNK, format_g17


def percent_g(values) -> bytes:
    return ",".join("%.17g" % v for v in values).encode()


def assert_matches(values):
    got, expect = format_g17(values), percent_g(values)
    if got != expect:  # name the first value that differs
        for v, g, e in zip(values, got.split(b","), expect.split(b",")):
            assert g == e, f"{v!r}: {g!r} != {e!r}"
    assert got == expect


@given(st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True))
def test_every_finite_float_matches(x):
    assert_matches([x])


@given(st.lists(st.floats(allow_subnormal=True), max_size=40))
def test_joined_floats_match(values):
    assert_matches(values)


# signed zeros among arbitrary floats: zeros take the same path as
# other values, with their own sign and digits
floats_and_signed_zeros = st.lists(
    st.one_of(st.sampled_from([0.0, -0.0]), st.floats(allow_subnormal=True)),
    max_size=40,
)


@given(floats_and_signed_zeros)
def test_floats_among_signed_zeros_match(values):
    assert_matches(values)


@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40))
def test_moderate_floats_match(values):
    """The range of concentrations, masses and times."""
    assert_matches(values)


def powers_of_ten_and_neighbours():
    for k in range(-323, 309):
        p = float(f"1e{k}")
        yield p
        yield math.nextafter(p, 0.0)
        yield math.nextafter(p, math.inf)


EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, sys.float_info.max,
    -sys.float_info.max, math.inf, -math.inf, math.nan, -math.nan,
    1e-4, 1e-5, 9.9999999999999991e-05, 0.00010000000000000001,
    1.2345678901234567e-4, 1.2345678901234567e-5, 0.5, 1.0, 9.5, 10.0, 60.0,
    1e16, 1e17, 9007199254740993.0, 1.23456789012345675, 0.1, 1 / 3,
    -1.5, -0.001, -2.5e-300, 123456.789, 1e270, 1e-270, 1.0000000000000002e270,
    9.9999999999999993e-271,
]


def test_edge_values_match():
    values = [*EDGES, *powers_of_ten_and_neighbours()]
    assert_matches(values)
    assert_matches([-v for v in values])
    for v in values:
        assert_matches([v])


def test_empty_and_single():
    assert format_g17([]) == b""
    assert format_g17(np.empty(0)) == b""
    assert format_g17([2.5]) == b"2.5"
    assert format_g17(np.array([[1e-7]])) == b"9.9999999999999995e-08"


def test_arrays_spanning_several_chunks_match():
    rng = np.random.default_rng(7)
    bits = rng.integers(0, 2**64, 2 * CHUNK + 3, dtype=np.uint64)
    assert_matches(bits.view(np.float64))
    scaled = rng.standard_normal(CHUNK + 1) * 10.0 ** rng.integers(-30, 30, CHUNK + 1)
    scaled[rng.random(CHUNK + 1) < 0.3] = 0.0
    assert_matches(scaled)
    # a run of +0.0 across the first chunk boundary, -0.0 across the second
    zeros = np.r_[rng.standard_normal(CHUNK - 5), np.zeros(9), np.full(CHUNK, -0.0),
                  np.zeros(7), rng.standard_normal(5)]
    assert_matches(zeros)
