"""``wqmpc.pcg64`` against ``numpy.random``, its oracle, bit for bit."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from wqmpc.pcg64 import PCG64

SIZES = st.one_of(
    st.sampled_from([(0,), (1,), (92,), (3, 4)]),
    st.integers(0, 200),
    st.tuples(st.integers(0, 6), st.integers(0, 6)),
)
BOUNDS = st.sampled_from([(-1.0, 1.0), (0.0, 1.0), (-7.0, 2.5), (3.0, 3.0), (-1e300, 1e300)])
CALLS = st.lists(st.tuples(BOUNDS, SIZES), min_size=1, max_size=5)


@given(seed=st.integers(0, 2**130), calls=CALLS)
@example(seed=0, calls=[((-1.0, 1.0), (92,))])
@example(seed=2**32 - 1, calls=[((-1.0, 1.0), (0,)), ((0.0, 1.0), (1,))])
@example(seed=2**32, calls=[((-1.0, 1.0), (3, 4))])
@example(seed=2**64 + 3, calls=[((-1.0, 1.0), (1,)), ((-7.0, 2.5), (92,))])
@example(seed=2**96 + 12345, calls=[((-1.0, 1.0), 5)])  # 97 bits, 4 words
@example(seed=2**128 - 1, calls=[((-1.0, 1.0), 5)])  # a full pool
@example(seed=2**130, calls=[((-1.0, 1.0), 5)])  # 5 words: one past the pool
def test_draws_equal_numpy_default_rng(seed, calls):
    """Each call of a sequence on one generator returns NumPy's array:
    same shape, same dtype, same bits."""
    ours, numpy_rng = PCG64(seed), np.random.default_rng(seed)
    for (low, high), size in calls:
        got = ours.uniform(low, high, size)
        want = numpy_rng.uniform(low, high, size)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_the_stream_of_seed_zero_is_pinned():
    """NumPy does not promise its ``Generator`` streams across versions;
    these literals keep this stream, and so every exported plant, fixed."""
    draws = PCG64(0).uniform(0.0, 1.0, 4)
    assert [float(d).hex() for d in draws] == [
        "0x1.461fd79fb3850p-1",
        "0x1.1442f7e20b674p-2",
        "0x1.4fa7b529d9bd0p-5",
        "0x1.0ec9ed84d0bc0p-6",
    ]


def test_refusals():
    with pytest.raises(ValueError, match="nonnegative"):
        PCG64(-1)
    with pytest.raises(OverflowError):
        PCG64(0).uniform(-np.inf, 0.0, 1)
