"""The NumPy sparse kernels against SciPy, bit for bit.

``wqmpc.sparse.CSR`` replaced ``scipy.sparse`` in assembly, stepping and
the predictor.  Each kernel must add its terms in SciPy's order, so every
comparison here is on the raw bits (``.view(np.int64)``), which also
tells +0.0 from -0.0.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import scipy_reference as ref
from wqmpc.dynamics import (
    StateIndexMap,
    advance,
    assemble_system,
    booster_layout,
    compute_time_step,
    initial_state,
    nominal_pipe_rates,
)
from wqmpc.mpc import PredictionOperator, build_augmented
from wqmpc.sparse import CSR
from wqmpc.synth import SynthSpec, synth_network

ODD = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310]  # zeros, subnormals
entries = st.one_of(st.floats(-4.0, 4.0), st.sampled_from(ODD))
scalars = st.one_of(st.floats(-1e3, 1e3), st.sampled_from(ODD))


def bits(a) -> np.ndarray:
    return np.asarray(a, dtype=float).view(np.int64)


def assert_same(ours: CSR, theirs) -> None:
    """Same shape, structure and value bits as a SciPy matrix."""
    theirs = theirs.tocsr()
    theirs.sort_indices()
    assert ours.shape == theirs.shape
    assert np.array_equal(ours.indptr, theirs.indptr)
    assert np.array_equal(ours.indices, theirs.indices)
    assert np.array_equal(bits(ours.data), bits(theirs.data))


@st.composite
def triplets(draw, n_rows, n_cols):
    """Distinct (row, col) positions, most on or near the diagonal, some
    anywhere, with zero, negative and subnormal values; rows may be empty."""
    n = draw(st.integers(0, 3 * n_rows + 3))
    rows = draw(st.lists(st.integers(0, n_rows - 1), min_size=n, max_size=n))
    cols = [
        draw(st.one_of(
            st.integers(-1, 1).map(lambda d, r=r: (r + d) % n_cols),
            st.integers(0, n_cols - 1),
        ))
        for r in rows
    ]
    vals = draw(st.lists(entries, min_size=n, max_size=n))
    seen, out = set(), []
    for t in zip(rows, cols, vals):
        if t[:2] not in seen:  # SciPy sums duplicates in no fixed order
            seen.add(t[:2])
            out.append(t)
    r, c, v = (np.array(x, dtype=dt) for x, dt in
               zip(zip(*out) if out else ([], [], []), (np.intp, np.intp, float)))
    return (n_rows, n_cols), r, c, v


# Multiples of 1/4 up to 2: sums and products of a few of them are exact,
# so duplicates add to the same bits in any order, and SciPy (which sums
# them in no fixed order) stays a bit-for-bit reference.
dyadic = st.integers(-8, 8).filter(bool).map(lambda k: k / 4)


@st.composite
def repeated_triplets(draw, n_rows, n_cols):
    """Triplets that name few positions many times, some entries with
    their exact negation at the same position, so that whole positions
    cancel to zero; zero and -0.0 values among them."""
    n_pos = draw(st.integers(1, 4))
    spots = draw(st.lists(
        st.tuples(st.integers(0, n_rows - 1), st.integers(0, n_cols - 1)),
        min_size=n_pos, max_size=n_pos,
    ))
    out = []
    for _ in range(draw(st.integers(0, 4 * n_rows + 4))):
        r, c = draw(st.sampled_from(spots))
        v = draw(st.one_of(dyadic, st.sampled_from([0.0, -0.0])))
        out.append((r, c, v))
        if v and draw(st.booleans()):  # cancelled later on
            out.append((r, c, -v))
    out = draw(st.permutations(out))
    r, c, v = (np.array(x, dtype=dt) for x, dt in
               zip(zip(*out) if out else ([], [], []), (np.intp, np.intp, float)))
    return (n_rows, n_cols), r, c, v


def dense_sum(case) -> np.ndarray:
    """The triplets summed into a dense array; exact for dyadic values."""
    shape, r, c, v = case
    out = np.zeros(shape)
    np.add.at(out, (r, c), v)
    return out


def build(case):
    """(ours, SciPy's) from one triplet case; SciPy's is the former
    ``_csr`` of the assembly."""
    shape, r, c, v = case
    return CSR.from_triplets(shape, r, c, v), ref.csr(shape, r, c, v)


def build_summed(case):
    """(ours, SciPy's) from triplets with repeated positions.  SciPy keeps
    a position whose entries sum to zero as an explicit zero; ``CSR``
    drops it, as SciPy's sums and products drop theirs."""
    ours, theirs = build(case)
    theirs.eliminate_zeros()
    return ours, theirs


@st.composite
def square_case(draw):
    n = draw(st.integers(1, 12))
    return draw(triplets(n, n)), draw(triplets(n, n)), draw(
        st.lists(scalars, min_size=n, max_size=n)
    )


@given(square_case())
def test_square_kernels_match_scipy(case):
    """Triplet build, A x, A + M and M A, as the assembly and stepping use
    them, on square matrices with rows on, near and off the band."""
    ta, tm, x = case
    (a, a_ref), (m, m_ref) = build(ta), build(tm)
    assert_same(a, a_ref)
    assert_same(m, m_ref)
    x = np.array(x)
    assert np.array_equal(bits(a @ x), bits(a_ref @ x))
    assert_same(a + m, a_ref + m_ref)
    assert_same(m @ a, m_ref @ a_ref)
    assert_same(a + m @ a, a_ref + m_ref @ a_ref)


@st.composite
def repeated_case(draw):
    n = draw(st.integers(1, 8))
    return (draw(repeated_triplets(n, n)), draw(repeated_triplets(n, n)),
            draw(st.lists(scalars, min_size=n, max_size=n)))


@given(repeated_case())
def test_repeated_and_cancelling_triplets_match_scipy(case):
    """Duplicate-heavy triplets, and triplets whose entries cancel
    exactly, build SciPy's matrix (positions that sum to zero dropped)
    and the kernels built on them stay SciPy's."""
    ta, tm, x = case
    (a, a_ref), (m, m_ref) = build_summed(ta), build_summed(tm)
    assert_same(a, a_ref)
    assert_same(m, m_ref)
    assert a.data.all() and m.data.all()
    assert np.array_equal(a.toarray(), dense_sum(ta))
    x = np.array(x)
    assert np.array_equal(bits(a @ x), bits(a_ref @ x))
    assert_same(a + m, a_ref + m_ref)
    assert_same(m @ a, m_ref @ a_ref)
    assert_same(a + m @ a, a_ref + m_ref @ a_ref)


@st.composite
def repeated_tall_case(draw):
    n, n_u = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    return (draw(repeated_triplets(n, n)), draw(repeated_triplets(n, n_u)),
            draw(st.lists(scalars, min_size=n_u, max_size=n_u)))


@given(repeated_tall_case())
def test_repeated_input_triplets_match_scipy(case):
    """The same for an input matrix B: its build, B u and B0 + M B."""
    tm, tb, u = case
    (m, m_ref), (b, b_ref) = build_summed(tm), build_summed(tb)
    assert_same(b, b_ref)
    assert np.array_equal(b.toarray(), dense_sum(tb))
    u = np.array(u, dtype=float)
    assert np.array_equal(bits(b @ u), bits(b_ref @ u))
    assert_same(b + m @ b, b_ref + m_ref @ b_ref)


@st.composite
def tall_case(draw):
    n, n_u = draw(st.integers(1, 12)), draw(st.integers(0, 4))
    none = ((n, 0), np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros(0))
    tb = draw(triplets(n, n_u)) if n_u else none
    return draw(triplets(n, n)), tb, draw(
        st.lists(scalars, min_size=n_u, max_size=n_u)
    )


@given(tall_case())
def test_input_matrix_kernels_match_scipy(case):
    """B u, summed as SciPy's CSC product sums it, and the substitution
    B <- B0 + M B, for zero to four inputs."""
    tm, tb, u = case
    (m, m_ref), (b, b_ref) = build(tm), build(tb)
    u = np.array(u, dtype=float)
    assert np.array_equal(bits(b @ u), bits(b_ref.tocsc() @ u))
    assert np.array_equal(bits(b @ u), bits(b_ref @ u))
    assert_same(b + m @ b, b_ref + m_ref @ b_ref)


def assert_iterates_as_scipy(a, b, a_ref, b_ref, x, u, n, rows) -> None:
    """n steps of ``a.iterate`` with ``add = b @ u`` against SciPy's loop
    x = A x + B u, final state and read-out block, bit for bit."""
    x_ref, block_ref = x, []
    for _ in range(n):
        x_ref = a_ref @ x_ref + b_ref @ u
        block_ref.append(x_ref[rows] if rows is not None else [])
    x_n, block = a.iterate(x, n, b @ u, rows)
    assert np.array_equal(bits(x_n), bits(x_ref))
    width = 0 if rows is None else len(rows)
    assert block.shape == (n, width)
    assert np.array_equal(bits(block),
                          bits(np.reshape(block_ref, (n, width))))
    assert not np.shares_memory(x_n, x)


# Values no float holds exactly, so that the order a row's terms are
# added in shows in the bits of its sum.
inexact = st.integers(-999, 999).filter(bool).map(lambda k: k / 37)


@st.composite
def led_triplets(draw, n):
    """Rows on the three central diagonals, some led by one entry left of
    the band (a pipe's end segment reading a node), merged with
    ``triplets``' rows anywhere; zero, negative and subnormal values."""
    cells = {}
    for r in range(n):
        cols = [c for c in (r - 1, r, r + 1) if 0 <= c < n]
        if r >= 2 and draw(st.booleans()):
            cols.insert(0, draw(st.integers(0, r - 2)))
        for c in cols:
            cells[r, c] = draw(entries | inexact)
    _, r, c, v = draw(triplets(n, n))
    for key in zip(r.tolist(), c.tolist(), v.tolist()):
        cells.setdefault(key[:2], key[2])
    r, c = (np.array(k, dtype=np.intp) for k in zip(*cells))
    return (n, n), r, c, np.array(list(cells.values()))


@st.composite
def stepping_case(draw):
    n, n_u = draw(st.integers(1, 12)), draw(st.integers(1, 4))
    rows = draw(st.none() | st.lists(st.integers(0, n - 1), max_size=4))
    return (draw(triplets(n, n) | led_triplets(n)), draw(triplets(n, n_u)),
            draw(st.lists(scalars | inexact, min_size=n, max_size=n)),
            draw(st.lists(scalars, min_size=n_u, max_size=n_u)), rows)


@pytest.mark.parametrize("n", [0, 1, 7])
@given(case=stepping_case())
def test_iterate_matches_the_scipy_loop(n, case):
    """The n-step kernel, B u folded into each step, is SciPy's loop
    x = A x + B u bit for bit: zero and subnormal states and inputs,
    empty, banded, led and gathered rows, with and without read-out
    rows, on matrices from 1 x 1 up."""
    ta, tb, x, u, rows = case
    (a, a_ref), (b, b_ref) = build(ta), build(tb)
    assert_iterates_as_scipy(a, b, a_ref, b_ref, np.array(x),
                             np.array(u, dtype=float), n, rows)


@pytest.mark.parametrize("n", [0, 1, 7])
@pytest.mark.parametrize("shape, rows, cols", [
    # 1 x 1: the band is the centre alone, both pads read as zero
    ((1, 1), [0], [0]),
    # every row two entries off the band: no banded row, all gathered
    ((5, 5), [0, 0, 1, 1, 2, 2, 3, 3, 4, 4], [2, 3, 3, 4, 0, 4, 0, 1, 1, 2]),
])
def test_iterate_matches_the_scipy_loop_at_the_edges(n, shape, rows, cols):
    """The same on a 1 x 1 matrix, and on one with no banded row, whose
    plan has no band and sums every row by ``bincount``."""
    vals = [-0.5, 1.25, 0.75, -2.0, 0.5, 1.5, -1.0, 0.25, 2.0, -0.75][:len(rows)]
    a, a_ref = build((shape, np.array(rows), np.array(cols), np.array(vals)))
    b, b_ref = build((shape[:1] + (1,), np.array([0]), np.array([0]),
                      np.array([0.5])))
    x = np.array([-0.0, 5e-324, 3.0, -1.5, 0.0][:shape[0]])
    assert_iterates_as_scipy(a, b, a_ref, b_ref, x, np.array([2.0]), n,
                             [shape[0] - 1])
    assert (a._plan.band is None) == (shape[0] > 1)


def test_matvec_refuses_a_wrong_length():
    a = CSR.from_triplets((2, 3), [0, 1], [0, 2], [1.0, 2.0])
    with pytest.raises(ValueError, match=r"expected \(3,\)"):
        a @ np.zeros(2)
    with pytest.raises(ValueError, match=r"add has shape \(1,\)"):
        CSR.from_triplets((2, 2), [0], [1], [1.0]).iterate(np.zeros(2), 3, np.ones(1))
    with pytest.raises(ValueError, match="cannot step a"):
        a.iterate(np.zeros(3), 2)


def _cases(request):
    net3 = request.getfixturevalue("net3")
    out = [(*request.getfixturevalue("three_node"), 100, ["J2", "P23"], 24),
           (*net3, 100, ["J15", "J40", "J86"], 2)]
    for seed in (1, 2, 3):
        net, profile = synth_network(SynthSpec(
            n_junctions=300, n_tanks=4, n_extra_pipes=20, n_boosters=5,
            seed=seed,
        ))
        out.append((net, profile, 10, [net.junctions[i].id for i in (4, 17)], 2))
    return out


def test_assembly_matches_scipy(request):
    """A and B of every assembled period equal the SciPy assembly bit for
    bit, and so do 200 steps of A x + B u from the initial state."""
    for net, profile, seg, _, n_periods in _cases(request):
        im = StateIndexMap(net, seg)
        booster, k_pipe = booster_layout(net, profile), nominal_pipe_rates(net)
        for period in profile.periods[:n_periods]:
            dt = compute_time_step(im, period.flows, period.duration_s)
            sys = assemble_system(im, booster, period, dt, k_pipe)
            a_ref, b_ref = ref.assembly(im, booster, period, dt, k_pipe)
            assert_same(sys.a, a_ref)
            assert_same(sys.b, b_ref)
        u = np.linspace(0.0, 3.0, sys.n_u)
        x = x_ref = initial_state(im)
        bu = b_ref @ u
        for _ in range(200):
            x = advance(sys, x, u, 1)[0]
            x_ref = a_ref @ x_ref + bu
            assert np.array_equal(bits(x), bits(x_ref))


@pytest.mark.parametrize("n", [1, 30, 300])
def test_predictor_matches_scipy(n, request):
    """Φ_a, Γ_a, ``support``, ``w`` and ``z`` equal the SciPy augmented
    model and sparse predictor bit for bit."""
    for net, profile, seg, sensors, _ in _cases(request):
        im = StateIndexMap(net, seg)
        period = profile.periods[0]
        dt = compute_time_step(im, period.flows, period.duration_s)
        sys = assemble_system(im, booster_layout(net, profile), period, dt,
                              nominal_pipe_rates(net))
        aug = build_augmented(sys, sensors)
        phi, gamma = ref.augmented(sys, sensors)
        assert_same(aug.phi, phi)
        assert_same(aug.gamma, gamma)
        pred = PredictionOperator(aug, n)
        support, w, z = ref.predictor(aug, n)
        assert np.array_equal(pred.support, support)
        assert np.array_equal(bits(pred.w), bits(w))
        assert np.array_equal(bits(pred.z), bits(z))

