import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import embedded_subtree, node_index, pipe_slice, read_data, to_scipy
from wqmpc import dynamics, units
from wqmpc.dynamics import (
    StateIndexMap,
    advance,
    assemble_system,
    booster_layout,
    build_schedule,
    compute_time_step,
    export_system,
    initial_state,
    iter_states,
    lw_coefficients,
    nominal_pipe_rates,
    per_minute,
    pipe_reaction_constant,
    sensor_closure,
    simulate,
    step,
)
from wqmpc.errors import ModelError, NetworkError
from wqmpc.hydraulics import (
    BALANCE_RTOL, HydraulicProfile, balance_residuals, load_hydraulics,
)
from wqmpc.network import BoosterLayout, parse_network
from wqmpc.sparse import CSR
from wqmpc.synth import SynthSpec, synth_case, synth_network


@pytest.fixture(scope="module")
def synth():
    """Seeded synthetic network with tanks, boosters, a pump and a valve."""
    net_text, csv_text = synth_case(SynthSpec(
        n_junctions=60, n_tanks=3, n_boosters=4, n_pumps=1, n_valves=1,
        n_extra_pipes=5, seed=7,
    ))
    net = parse_network(net_text)
    return net, load_hydraulics(net, csv_text)


PARALLEL = """\
[JUNCTIONS]
J1
J2
J3
[RESERVOIRS]
R1 0.8
[PIPES]
P1 R1 J1 500 0.3 -0.3 0 0
P2 J2 J3 400 0.3 -0.2 0 0
[PUMPS]
M1 J1 J2
[VALVES]
V1 J1 J2
"""


@pytest.fixture(scope="module")
def parallel():
    """A pump and a valve in parallel from J1 into J2, with a booster at
    J1, in two balanced periods at two demand levels."""
    net = parse_network(PARALLEL)
    rows = ["period,entity,kind,value"]
    for p, scale in enumerate((1.0, 0.7)):
        values = {("P1", "flow"): 100, ("M1", "flow"): 60, ("V1", "flow"): 41,
                  ("P2", "flow"): 90, ("J1", "demand"): 1, ("J2", "demand"): 11,
                  ("J3", "demand"): 90, ("J1", "booster_flow"): 2}
        rows += [f"{p},{e},{k},{v * scale}" for (e, k), v in values.items()]
    return net, load_hydraulics(net, "\n".join(rows) + "\n")


@pytest.fixture(scope="module")
def net3_half_hour():
    """net3 with both of its hydraulic periods 1,800 s long."""
    net = parse_network(read_data("net3.inp"))
    profile = load_hydraulics(net, read_data("net3_hydraulics.csv"),
                              period_duration_s=1800.0)
    return net, profile


def assemble(net, flows, demands=(), volumes=(), boosters=None, seg=2,
             dt=None, booster_nodes=None, duration=3600.0):
    """Assemble one system from raw period data."""
    flows = np.asarray(flows, dtype=float)
    qb = np.zeros(net.n_n)
    if boosters:
        for nid, q in boosters.items():
            qb[node_index(net, nid)] = q
    profile = HydraulicProfile(
        flows=flows[None],
        demands=np.asarray(demands, dtype=float)[None],
        tank_volumes=np.asarray(volumes, dtype=float)[None],
        booster_flows=qb[None],
        period_s=duration,
    )
    im = StateIndexMap(net, seg)
    if dt is None:
        dt = compute_time_step(im, flows, duration)
    if booster_nodes is None:
        booster_nodes = list(boosters) if boosters else []
    layout = BoosterLayout(
        tuple(booster_nodes), tuple(node_index(net, n) for n in booster_nodes)
    )
    return assemble_system(im, layout, profile, 0, dt, nominal_pipe_rates(net))


# ---------------------------------------------------------------------
# Stencil pieces
# ---------------------------------------------------------------------


def test_lw_coefficients_reference_points():
    assert lw_coefficients(1.0) == (1.0, 0.0, 0.0)
    assert lw_coefficients(0.5) == (0.375, 0.75, -0.125)
    assert lw_coefficients(0.0) == (0.0, 1.0, 0.0)


@given(st.floats(min_value=0.0, max_value=1.0))
def test_lw_coefficients_sum_to_one(cfl):
    assert sum(lw_coefficients(cfl)) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("cfl", [-0.1, 1.1, 2.0])
def test_lw_coefficients_reject_unstable(cfl):
    with pytest.raises(ModelError, match="CFL"):
        lw_coefficients(cfl)


def test_pipe_reaction_constant():
    # wall term vanishes when either wall rate or transfer rate is zero
    assert pipe_reaction_constant(-0.5, 0.0, 2.0, 0.3) == -0.5
    assert pipe_reaction_constant(-0.5, -1.0, 0.0, 0.3) == -0.5
    k = pipe_reaction_constant(-0.5, -1.0, 2.0, 0.5)
    assert k == pytest.approx(-0.5 + (-1.0 * 2.0) / (0.5 * 1.0))
    assert pipe_reaction_constant(-0.5, -0.1, 0.2, 0.5) == pytest.approx(-0.9)
    # fast mass transfer: wall term saturates at kw / D
    k_lim = pipe_reaction_constant(-0.5, -0.1, 1e9, 0.5)
    assert k_lim == pytest.approx(-0.5 + -0.1 / 0.5, rel=1e-6)
    with pytest.raises(ModelError, match="diameter"):
        pipe_reaction_constant(0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ModelError, match="denominator"):
        pipe_reaction_constant(0.0, -1.0, 1.0, 0.3)


# ---------------------------------------------------------------------
# Time step
# ---------------------------------------------------------------------


def single_pipe_net(length=1000.0, diameter=0.3, kb=0.0):
    return parse_network(f"""\
[JUNCTIONS]
J1
[RESERVOIRS]
R1 1.0
[PIPES]
P1 R1 J1 {length} {diameter} {kb} 0 0
""")


def test_time_step_divisor_rule():
    # travel time per segment 7 s -> largest divisor of 3600 below is 6
    net = single_pipe_net(length=700.0)
    q = StateIndexMap(net, 1).area[0]  # 1 m/s
    assert compute_time_step(StateIndexMap(net, 100), [q], 3600.0) == 6.0


def test_time_step_caps_at_period():
    net = single_pipe_net(length=700.0)
    q = StateIndexMap(net, 1).area[0]
    assert compute_time_step(StateIndexMap(net, 100), [q], 5.0) == 5.0


def test_time_step_fractional_fallback():
    net = single_pipe_net(length=700.0)
    q = StateIndexMap(net, 1).area[0]
    # 10.5 s period has no whole-second divisor <= 7; fewest equal steps wins
    assert compute_time_step(StateIndexMap(net, 100), [q], 10.5) == pytest.approx(5.25)


def test_time_step_stagnant_network():
    net = single_pipe_net()
    with pytest.raises(ModelError, match="stagnant"):
        compute_time_step(StateIndexMap(net, 100), [0.0], 3600.0)


def test_time_step_is_the_min_over_moving_pipes(synth):
    net, profile = synth
    counts = [1 + i % 7 for i in range(net.n_p)]
    im = StateIndexMap(net, counts)
    for flows in profile.flows:
        assert (flows[: net.n_p] == 0).any()  # the loop closers are stagnant
        bound = min(
            (length / c) / (abs(q) / (np.pi * d ** 2 / 4.0))
            for length, d, c, q in zip(
                net.length_m, net.diameter_m, counts, flows
            )
            if q != 0
        )
        assert compute_time_step(im, flows, bound) == bound
        assert compute_time_step(im, flows, 1.5 * bound) == 0.75 * bound
        divisors = [d for d in range(1, 3601) if 3600 % d == 0 and d <= bound]
        assert compute_time_step(im, flows, 3600.0) == max(divisors)


# ---------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------

CHAIN = """\
[JUNCTIONS]
J1
[RESERVOIRS]
R1 1.0
[TANKS]
TK1
[PIPES]
P1 R1 J1 200 0.3 0 0 0
P2 J1 TK1 200 0.3 0 0 0
"""


def test_junction_row_hand_check():
    net = parse_network(CHAIN)
    q1, q2, d, qb = 0.03, 0.025, 0.006, 0.001  # q1 + qb = q2 + d
    sys = assemble(
        net, [q1, q2], demands=[d], volumes=[500.0],
        boosters={"J1": qb}, seg=2, dt=10.0,
    )
    a = sys.a.toarray()
    b = sys.b.toarray()
    im = sys.index_map
    j1 = im.index("J1")
    denom = q2 + d
    v = q1 / StateIndexMap(net, 1).area[0]
    under, mid, over = lw_coefficients(v * 10.0 / 100.0)
    # junction mixes the inlet pipe's outlet segment row at t+dt
    s0, s1 = im.index("P1", 0), im.index("P1", 1)
    assert a[j1, s0] == pytest.approx((q1 / denom) * under)
    assert a[j1, s1] == pytest.approx((q1 / denom) * mid)
    assert a[j1, j1] == pytest.approx((q1 / denom) * over)
    assert b[j1, 0] == pytest.approx(qb / denom)  # J1 is booster column 0
    # pipe interior rows carry the plain stencil
    assert a[s1, s0] == pytest.approx(under)
    assert a[s1, s1] == pytest.approx(mid)
    assert a[s1, j1] == pytest.approx(over)


def test_tank_row_hand_check():
    net = parse_network(CHAIN)
    q1, q2, d = 0.03, 0.025, 0.005
    vol = 500.0
    dt = 10.0
    sys = assemble(net, [q1, q2], demands=[d], volumes=[vol], seg=2, dt=dt)
    a = sys.a.toarray()
    im = sys.index_map
    tk = im.index("TK1")
    v_next = vol + dt * q2  # inflow only
    assert a[tk, tk] == pytest.approx(vol / v_next)
    assert a[tk, im.index("P2", 1)] == pytest.approx(dt * q2 / v_next)
    # tank couples to the segment value at time t, not its update row
    assert a[tk, im.index("P2", 0)] == 0.0


def test_reservoir_row_is_identity(three_node):
    net, profile = three_node
    sys = build_schedule(profile, StateIndexMap(net, 10))[0][0]
    r1 = sys.index_map.index("R1")
    row = to_scipy(sys.a).getrow(r1).toarray().ravel()
    expect = np.zeros(sys.n_x)
    expect[r1] = 1.0
    assert (row == expect).all()
    assert to_scipy(sys.b).getrow(r1).nnz == 0


def test_pump_copies_upstream_row(three_node):
    net, profile = three_node
    sys = build_schedule(profile, StateIndexMap(net, 10))[0][0]
    im = sys.index_map
    pump = im.index("M12")
    r1 = im.index("R1")
    a = to_scipy(sys.a)
    assert (a.getrow(pump).toarray() == a.getrow(r1).toarray()).all()
    # downstream junction mixes the pump's (reservoir) concentration
    j2 = im.index("J2")
    flows = profile.flows[0]
    denom = flows[0] + profile.demands[0, 0]  # P23 outflow + demand
    assert a[j2, r1] == pytest.approx(flows[1] / denom)


def test_flipped_pipe_matches_forward_declaration():
    fwd = parse_network(CHAIN)
    rev = parse_network(CHAIN.replace("P1 R1 J1", "P1 J1 R1"))
    q1, q2, d = 0.03, 0.025, 0.005
    s_f = assemble(fwd, [q1, q2], demands=[d], volumes=[500.0], seg=4, dt=5.0)
    s_r = assemble(rev, [-q1, q2], demands=[d], volumes=[500.0], seg=4, dt=5.0)
    im = s_f.index_map
    # states identical up to reversing P1's declared segment order
    perm = np.arange(s_f.n_x)
    sl = pipe_slice(im, 0)
    perm[sl] = perm[sl][::-1]
    a_f, a_r = s_f.a.toarray(), s_r.a.toarray()
    assert np.allclose(a_f, a_r[np.ix_(perm, perm)], atol=1e-15)


@pytest.mark.parametrize("case", ["three_node", "net3", "synth"])
def test_row_sums_are_one_without_reaction(case, request):
    net, profile = request.getfixturevalue(case)
    assert np.all(np.abs(balance_residuals(net, profile)) <= BALANCE_RTOL)
    schedule = build_schedule(profile, StateIndexMap(net, 25), k_pipe=np.zeros(net.n_p))
    for sys, _ in schedule:
        ones = np.ones(sys.n_x)
        total = sys.a @ ones + sys.b @ np.ones(sys.n_u)
        assert np.abs(total - 1.0).max() < 1e-12


@pytest.mark.parametrize("case", ["net3", "synth", "parallel"])
def test_step_satisfies_balance_equations(case, request):
    """x' = A x + B u, checked against the mixing balances themselves."""
    net, profile = request.getfixturevalue(case)
    schedule = build_schedule(profile, StateIndexMap(net, 4), k_pipe=np.zeros(net.n_p))
    rng = np.random.default_rng(3)
    n_tk0 = net.n_j + net.n_r
    rows = zip(profile.flows, profile.demands, profile.tank_volumes,
               profile.booster_flows)
    for (sys, _), (flows, demands, volumes, qb) in zip(schedule, rows):
        im, dt = sys.index_map, sys.dt_s
        x = rng.uniform(0.0, 2.0, sys.n_x)
        u = rng.uniform(0.0, 5.0, sys.n_u)
        x1 = sys.a @ x + sys.b @ u
        dose = np.zeros(net.n_n)  # booster mass rate per node
        for col, node in enumerate(sys.booster.indices):
            dose[node] = qb[node] * u[col]
        q_out = np.zeros(net.n_n)
        q_in = np.zeros(net.n_n)
        mass_new = np.zeros(net.n_n)  # inflow-weighted new outlet values
        mass_old = np.zeros(net.n_n)  # inflow-weighted current outlet values
        links = list(zip(net.link_ids, net.up, net.down))
        for l, ((link, up, down), f) in enumerate(zip(links, flows)):
            up, down = node_index(net, up), node_index(net, down)
            if f < 0:
                up, down = down, up
            # the state leaving a link; a reversed pipe leaves at segment 0
            out = im.index(link, 0 if f < 0 and l < net.n_p else None)
            q_out[up] += abs(f)
            q_in[down] += abs(f)
            mass_new[down] += abs(f) * x1[out]
            mass_old[down] += abs(f) * x[out]
        for j in range(net.n_j):
            denom = q_out[j] + demands[j]
            assert abs(x1[j] * denom - mass_new[j] - dose[j]) <= 1e-12 * denom
        for li, (link, up, down) in enumerate(links[net.n_p:], net.n_p):
            f = flows[li]
            up = node_index(net, down if f < 0 else up)
            assert abs(x1[im.index(link)] - x1[up]) <= 1e-12
        for k, v_t in enumerate(volumes):
            tk = n_tk0 + k
            v_next = v_t + dt * (q_in[tk] - q_out[tk] + qb[tk])
            mass = (v_t - dt * q_out[tk]) * x[tk] + dt * (mass_old[tk] + dose[tk])
            assert abs(x1[tk] * v_next - mass) <= 1e-12 * v_next


def same_csr(x: CSR, y: CSR) -> bool:
    """``x`` and ``y`` are equal array for array, bit for bit."""
    return (x.shape == y.shape and np.array_equal(x.indptr, y.indptr)
            and np.array_equal(x.indices, y.indices)
            and x.data.tobytes() == y.data.tobytes())


@pytest.mark.parametrize("case, chained", [
    ("three_node", False), ("net3_half_hour", False), ("synth", True),
    ("parallel", True),
])
def test_two_substitutions_reach_the_fixed_point(case, chained, request):
    """One more substitution, a0 + m @ a, leaves the assembled A and B
    unchanged array for array: M's longest chain, junction (or pump or
    valve) -> junction -> pipe outlet, has two links.  Where a pump or
    valve draws from a junction (``chained``), one substitution falls
    short of that fixed point."""
    net, profile = request.getfixturevalue(case)
    im = StateIndexMap(net, 4)
    booster = booster_layout(net, profile)
    k_pipe = nominal_pipe_rates(net)
    for sys, _ in build_schedule(profile, im, k_pipe=k_pipe):
        triplets = dynamics._balance_triplets(
            im, booster, profile, sys.period_id, sys.dt_s, k_pipe
        )
        a0, b0, m = (CSR.from_triplets(*t) for t in triplets)
        assert same_csr(a0 + m @ sys.a, sys.a)
        assert same_csr(b0 + m @ sys.b, sys.b)
        once = a0 + m @ a0
        assert same_csr(a0 + m @ once, once) is not chained


def test_cascaded_pumps_valves_rejected():
    net = parse_network("""\
[JUNCTIONS]
J1
J2
[RESERVOIRS]
R1 1.0
[PIPES]
P1 J2 J1 200 0.3 0 0 0
[PUMPS]
M1 R1 J1
[VALVES]
V1 J1 J2
""")
    with pytest.raises(
        ModelError,
        match="cascaded pumps/valves unsupported: upstream node 'J1' is itself "
        "fed by a pump or valve",
    ):
        assemble(net, [0.01, 0.03, 0.02], demands=[0.01, 0.01], dt=10.0)


def test_assembly_flips_link_ends_per_period():
    net = parse_network(CHAIN)
    q1, q2, d = 0.03, 0.025, 0.005
    fwd = assemble(net, [q1, q2], demands=[d], volumes=[500.0], seg=2, dt=5.0)
    # period two: P2 runs from TK1 back into J1
    rev = assemble(net, [q1, -q2], demands=[q1 + q2], volumes=[500.0],
                   seg=2, dt=5.0)
    im = fwd.index_map
    j1, tk = im.index("J1"), im.index("TK1")
    p2_0, p2_1 = im.index("P2", 0), im.index("P2", 1)
    a_f, a_r = to_scipy(fwd.a), to_scipy(rev.a)
    # inlet segment reads the flow-wise upstream node, outlet feeds downstream
    assert a_f[p2_0, j1] > 0 and a_f[p2_0, tk] == 0
    assert a_r[p2_1, tk] > 0 and a_r[p2_1, j1] == 0
    assert a_f[tk, p2_1] > 0 and a_f[tk, p2_0] == 0
    assert a_r[j1, p2_0] != 0 and a_r[tk, p2_0] == 0


def test_assembly_rejects_bad_flow_length():
    net = parse_network(CHAIN)
    with pytest.raises(ModelError, match="flow vector has length 1, expected 2"):
        assemble(net, [0.03], demands=[0.005], volumes=[500.0], dt=10.0)


def test_sparsity_bounded_by_degree(three_node):
    net, profile = three_node
    sys = build_schedule(profile, StateIndexMap(net, 100))[0][0]
    per_row = np.diff(sys.a.indptr)
    assert per_row.max() <= 4  # stencil width + mixing terms on this chain


def test_emptying_tank_rejected():
    net = parse_network("""\
[JUNCTIONS]
J1
[RESERVOIRS]
R1 1.0
[TANKS]
TK1
[PIPES]
P1 R1 TK1 200 0.3 0 0 0
P2 TK1 J1 200 0.3 0 0 0
""")
    with pytest.raises(ModelError, match="empties"):
        assemble(net, [0.001, 0.05], demands=[0.05], volumes=[0.4], dt=10.0)


def test_zero_outflow_junction_rejected():
    net = parse_network(CHAIN)
    with pytest.raises(ModelError, match="zero outflow"):
        assemble(net, [0.03, 0.0], demands=[0.0], volumes=[500.0], dt=10.0)


def test_booster_flow_requires_installed_booster():
    net = parse_network(CHAIN)
    with pytest.raises(ModelError, match="no booster installed"):
        assemble(
            net, [0.03, 0.025], demands=[0.006], volumes=[500.0],
            boosters={"J1": 0.001}, booster_nodes=[], dt=10.0,
        )


# ---------------------------------------------------------------------
# Stepping, simulation, export
# ---------------------------------------------------------------------


def test_step_checks_dimensions(three_node):
    net, profile = three_node
    sys = build_schedule(profile, StateIndexMap(net, 10))[0][0]
    with pytest.raises(ModelError, match="state has shape"):
        step(sys, np.zeros(3), np.zeros(sys.n_u))
    with pytest.raises(ModelError, match="input has shape"):
        step(sys, np.zeros(sys.n_x), np.zeros(sys.n_u + 1))


@pytest.mark.parametrize("case", ["three_node", "net3", "synth"])
def test_b_is_column_compressed_and_steps_exactly(case, request):
    """B in SciPy's CSC form has sorted indices; a step matches SciPy's
    A x + B u, with B u taken from the CSC and the CSR form, bit for bit."""
    net, profile = request.getfixturevalue(case)
    rng = np.random.default_rng(5)
    for sys, _ in build_schedule(profile, StateIndexMap(net, 4)):
        b = to_scipy(sys.b).tocsc()
        assert b.format == "csc"
        assert b.shape == (sys.n_x, sys.booster.n_b)
        for col in range(b.shape[1]):
            rows = b.indices[b.indptr[col]:b.indptr[col + 1]]
            assert np.all(np.diff(rows) > 0)
        x = rng.uniform(0.0, 2.0, sys.n_x)
        u = rng.uniform(0.0, 5.0, sys.n_u)
        a = to_scipy(sys.a)
        assert np.array_equal(step(sys, x, u), a @ x + b.tocsr() @ u)
        assert np.array_equal(step(sys, x, u), a @ x + b @ u)


@pytest.mark.parametrize("case, seg", [
    ("three_node", 10), ("net3", 100), ("synth", 4),
])
def test_advance_matches_single_steps(case, seg, request):
    """n held steps equal n reference steps A x + B u bit for bit, and the
    block holds x[rows] after each of them."""
    net, profile = request.getfixturevalue(case)
    sys = build_schedule(profile, StateIndexMap(net, seg))[0][0]
    rng = np.random.default_rng(11)
    x0 = rng.uniform(0.0, 2.0, sys.n_x)
    u = rng.uniform(0.0, 5.0, sys.n_u)
    rows = rng.choice(sys.n_x, size=5, replace=False)
    for n in (0, 1, 7, 300):
        x, block = advance(sys, x0, u, n, rows)
        assert block.shape == (n, rows.size)
        ref = x0
        for i in range(n):
            ref = sys.a @ ref + sys.b @ u
            assert np.array_equal(block[i], ref[rows])
        assert np.array_equal(x, ref)  # n = 0: the input state
    assert advance(sys, x0, u, 3)[1].shape == (3, 0)  # no rows asked for


class _NoProduct:
    """Stands in for A or B; any product with it fails the test."""

    def __init__(self, shape):
        self.shape = shape

    def __matmul__(self, other):
        raise AssertionError("stepped before the shapes were checked")

    iterate = __matmul__


def test_advance_checks_shapes_before_stepping(three_node):
    from dataclasses import replace

    net, profile = three_node
    sys = build_schedule(profile, StateIndexMap(net, 10))[0][0]
    blind = replace(sys, a=_NoProduct(sys.a.shape), b=_NoProduct(sys.b.shape))
    with pytest.raises(ModelError, match="state has shape"):
        advance(blind, np.zeros(sys.n_x + 1), np.zeros(sys.n_u), 5)
    with pytest.raises(ModelError, match="input has shape"):
        advance(blind, np.zeros(sys.n_x), np.zeros(sys.n_u + 1), 5)


def test_stepped_states_are_never_overwritten(three_node):
    """Every state ``advance`` or ``step`` hands back is the caller's own:
    later steps of the same system leave it as it was.  The closed loop
    holds each hold's model state across the next hold, and
    ``per_minute`` holds a state across one step, so the states it keeps
    must equal an independent replay."""
    net, profile = three_node
    schedule = build_schedule(profile, StateIndexMap(net, 10), periods=range(2))
    sys = schedule[0][0]
    u, zero = np.linspace(0.5, 1.5, sys.n_u), np.zeros(sys.n_u)
    x0 = initial_state(sys.index_map)
    x_plant, ys = advance(sys, x0, u, 6, [0, sys.n_x - 1])
    returned = [x0, x_plant, ys]
    x_model = x0
    for n in (5, 1, 2, 1):  # the closed loop's model: one advance per hold
        x_model, _ = advance(sys, x_model, u, n)
        returned.append(x_model)
    returned += [step(sys, x_model, zero), sys.a @ x0, sys.b @ u]
    held = [x.copy() for x in returned]
    advance(sys, x_model, u, 4, [1])
    step(sys, x0, u)
    sys.a @ x_model
    for x, copy in zip(returned, held):
        assert np.array_equal(x.view(np.int64), copy.view(np.int64))

    kept = list(per_minute(iter_states(schedule, x0)))
    traj = simulate(schedule, x0)
    x = x0
    for s, n_steps in schedule:  # SciPy's steps, with no injection
        a, b = to_scipy(s.a), to_scipy(s.b)
        for _ in range(n_steps):
            x = a @ x + b @ zero
    assert kept[-1][0] == traj.times_s[-1]
    assert np.array_equal(kept[-1][1].view(np.int64), x.view(np.int64))
    assert np.array_equal(traj.states[-1].view(np.int64), x.view(np.int64))
    rows = np.searchsorted(traj.times_s, [t for t, _ in kept])
    assert np.array_equal(np.array([x for _, x in kept]), traj.states[rows])


def test_simulate_nonnegative_and_bounded(three_node):
    net, profile = three_node
    schedule = build_schedule(profile, StateIndexMap(net, 50))
    x0 = initial_state(schedule[0][0].index_map)
    traj = simulate(schedule[:6], x0)
    # second-order advection overshoots at the sharp start-up front, but
    # only modestly; the profile must stay near the source's 0.8 mg/L
    assert traj.states.min() >= -0.1
    assert traj.states.max() <= 0.8 * 1.15
    # after the front has passed, the pipe settles below the source level
    assert traj.states[-1].max() <= 0.8 + 1e-12


def test_decay_shrinks_pipe_profile():
    # zero inflow, negative bulk rate: the pipe's peak can only decline
    net = single_pipe_net(length=700.0, kb=-0.5)
    q = StateIndexMap(net, 1).area[0]  # 1 m/s, CFL = 6/7
    sys = assemble(net, [q], demands=[q], seg=100, volumes=[])
    x = np.zeros(sys.n_x)
    sl = pipe_slice(sys.index_map, 0)
    x[sl] = 1.0
    u = np.zeros(sys.n_u)
    peaks = []
    for _ in range(60):
        x = step(sys, x, u)
        peaks.append(np.abs(x[sl]).max())
    assert (np.diff(peaks) <= 1e-12).all()
    assert peaks[-1] < peaks[0]


def test_per_minute_downsample(three_node):
    net, profile = three_node
    schedule = build_schedule(profile, StateIndexMap(net, 50))
    x0 = initial_state(schedule[0][0].index_map)
    traj = simulate(schedule[:1], x0)
    kept = list(per_minute(iter_states(schedule[:1], x0)))
    minute_t = np.array([t for t, _ in kept])
    minute_x = np.array([x for _, x in kept])
    # reference: the first row of every minute, plus the last row
    minutes = np.floor(traj.times_s / 60.0 + 1e-9)
    keep = [0]
    for i in range(1, len(traj.times_s)):
        if minutes[i] != minutes[keep[-1]]:
            keep.append(i)
    if keep[-1] != len(traj.times_s) - 1:
        keep.append(len(traj.times_s) - 1)
    assert (minute_t == traj.times_s[keep]).all()
    assert (minute_x == traj.states[keep]).all()
    assert minute_t[0] == 0.0
    assert minute_t[-1] == traj.times_s[-1]
    assert (np.diff(minute_t) >= 60.0 - 1e-9).all()


@given(st.lists(st.floats(0.25, 150.0), max_size=40))
def test_per_minute_keeps_first_of_each_minute_and_the_end(dts):
    times = np.cumsum([0.0, *dts])
    pairs = [(t, np.array([float(i)])) for i, t in enumerate(times.tolist())]
    kept = [int(x[0]) for _, x in per_minute(iter(pairs))]
    minutes = np.floor(times / 60.0 + 1e-9)
    first = np.flatnonzero(np.diff(minutes)) + 1
    assert kept == np.unique(np.r_[0, first, len(times) - 1]).tolist()


def test_simulate_refuses_bad_schedules(three_node):
    net, profile = three_node
    with pytest.raises(ModelError, match="empty system schedule"):
        simulate([], np.zeros(3))
    small = build_schedule(profile, StateIndexMap(net, 2))[0]
    large = build_schedule(profile, StateIndexMap(net, 3))[0]
    x0 = initial_state(small[0].index_map)
    with pytest.raises(ModelError, match="mismatched state sizes"):
        simulate([small, large], x0)
    with pytest.raises(ModelError, match="state has shape"):
        list(iter_states([small], x0[:-1]))


def test_export_deterministic(tmp_path, three_node):
    net, profile = three_node
    sys = build_schedule(profile, StateIndexMap(net, 10))[0][0]
    files1 = export_system(sys, str(tmp_path / "a"))
    files2 = export_system(sys, str(tmp_path / "b"))
    for f1, f2 in zip(files1, files2):
        assert Path(f1).read_bytes() == Path(f2).read_bytes()
    # triplet file round-trips the matrix
    rows = np.loadtxt(files1[0], delimiter=",", skiprows=1)
    rebuilt = np.zeros((sys.n_x, sys.n_x))
    rebuilt[rows[:, 0].astype(int), rows[:, 1].astype(int)] = rows[:, 2]
    assert np.allclose(rebuilt, sys.a.toarray(), atol=1e-16)


def test_export_of_a_restricted_system_names_the_kept_states(tmp_path, three_node):
    """Cut to the sensor J2's closure, the system's export indexes its
    two kept states, not the whole layout's 14."""
    net, profile = three_node
    im = StateIndexMap(net, 10)
    keep = sensor_closure(im, ["J2"], profile.flows)
    [(sys, _)] = build_schedule(profile, im.restrict(keep), periods=range(1))
    a_csv, _, index = export_system(sys, str(tmp_path), prefix="period0")
    assert json.loads(Path(index).read_text()) == {"J2": 0, "R1": 1}
    rows = np.loadtxt(a_csv, delimiter=",", skiprows=1, ndmin=2)
    assert sys.a.shape == (2, 2) and rows[:, 0].tolist() == [0.0, 1.0]


def test_schedule_builds_one_layout(three_node, monkeypatch):
    net, profile = three_node
    built = []
    real = StateIndexMap.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(dynamics.StateIndexMap, "__init__", counted)
    schedule = build_schedule(profile, StateIndexMap(net, 10))
    assert len(schedule) == 24
    assert len(built) == 1
    assert all(sys.index_map is built[0] for sys, _ in schedule)


def test_schedule_shares_a_given_layout(three_node, net1):
    net, profile = three_node
    im = StateIndexMap(net, 3)
    schedule = build_schedule(profile, im, periods=range(2))
    assert all(sys.index_map is im for sys, _ in schedule)
    rebuilt = build_schedule(profile, StateIndexMap(net, 3), periods=range(2))
    for (sys, n), (ref, n_ref) in zip(schedule, rebuilt):
        assert n == n_ref
        assert (to_scipy(sys.a) != to_scipy(ref.a)).nnz == 0
    # a profile of another network is refused by its flow-vector length
    expected = f"flow vector has length 2, expected {net1.n_links}"
    with pytest.raises(ModelError, match=expected):
        build_schedule(profile, StateIndexMap(net1, 3))


@pytest.mark.parametrize("counts", [0, -1, [3, 3], [0], [-1]])
def test_segment_counts_must_be_positive(three_node, counts):
    net, _ = three_node  # one pipe
    with pytest.raises(ModelError, match="segment counts must be positive"):
        StateIndexMap(net, counts)


def test_index_map_labels(three_node):
    net, profile = three_node
    im = StateIndexMap(net, 3)
    labels = im.labels()
    assert labels[:3] == ["J2", "R1", "TK3"]
    assert labels[3:6] == ["P23[0]", "P23[1]", "P23[2]"]
    assert labels[6] == "M12"
    assert im.index("P23") == im.index("P23", 2)  # default: last segment
    with pytest.raises(ModelError, match="out of range"):
        im.index("P23", 3)
    with pytest.raises(ModelError, match="unknown entity"):
        im.index("X9")


# three_node at 3 segments: J2 0, R1 1, TK3 2, P23[0..2] 3..5, M12 6
@pytest.mark.parametrize(
    "spec, sensor, targets",
    [
        ("J2", 0, [0]),
        ("TK3", 2, [2]),
        ("M12", 6, [6]),
        ("P23", 5, [3, 4, 5]),  # sensor: last segment; event: whole pipe
        ("P23[0]", 3, [3]),
        ("P23[2]", 5, [5]),
        ("P23[x]", "malformed entity spec 'P23\\[x\\]'", None),
        ("P23[1", "malformed entity spec 'P23\\[1'", None),
        ("P23[-1]", "malformed entity spec", None),
        ("P23[1]x", "malformed entity spec", None),
        ("", "malformed entity spec ''", None),
        ("P23[3]", "segment 3 out of range for pipe 'P23'", None),
        ("J2[0]", "'J2' is not a pipe", None),
        ("X9", "unknown entity 'X9'", None),
        ("X9[0]", "unknown entity 'X9'", None),
    ],
)
def test_entity_spec_parser(three_node, spec, sensor, targets):
    net, _ = three_node
    im = StateIndexMap(net, 3)
    if targets is None:
        for lookup in (im.sensor_index, im.resolve):
            with pytest.raises(ModelError, match=sensor):
                lookup(spec)
        return
    assert im.sensor_index(spec) == sensor
    assert im.resolve(spec) == (targets, 0)


def test_a_restricted_layout_resolves_specs_within_keep(three_node):
    """three_node at 3 segments, cut to R1, TK3 and P23[1..2]: specs
    parse as on the whole layout and resolve to positions within keep."""
    net, _ = three_node
    im = StateIndexMap(net, 3)
    sub = im.restrict(np.array([1, 2, 4, 5]))
    assert sub.sensor_index("TK3") == 1
    assert sub.sensor_index("P23") == 3
    assert sub.resolve("P23") == ([2, 3], 1)  # P23[0] is not kept
    assert sub.resolve("J2") == ([], 1)
    with pytest.raises(ModelError, match="'J2' reads a state this system does not step"):
        sub.sensor_index("J2")
    with pytest.raises(ModelError, match="unknown entity 'X9'"):
        sub.resolve("X9")
    assert np.array_equal(initial_state(sub), initial_state(im)[[1, 2, 4, 5]])
    # the layout is not cut
    assert sub.n_x == im.n_x and np.array_equal(im.keep, np.arange(im.n_x))


@pytest.mark.parametrize("per_pipe", [False, True])
@pytest.mark.parametrize("seed", range(5))
def test_the_layout_is_the_entity_order_widened_to_segments(seed, per_pipe):
    """On synthetic networks with pumps and valves, the spans tile
    [0, n_x) in entity order, and every label is read back at its own
    position."""
    net, _ = synth_network(SynthSpec(
        n_junctions=20, n_reservoirs=2, n_tanks=2, n_extra_pipes=3,
        n_pumps=2, n_valves=2, seed=seed,
    ))
    assert net.n_m and net.n_v
    rng = np.random.default_rng(seed)
    counts = rng.integers(1, 7, net.n_p).tolist() if per_pipe else [4] * net.n_p
    im = StateIndexMap(net, counts if per_pipe else 4)
    entities = list(net.entity_index)
    assert entities == [*net.node_ids, *net.link_ids]
    spans = [im.parse_spec(e) for e in entities]
    assert [n for _, n in spans] == (
        [1] * net.n_n + counts + [1] * (net.n_m + net.n_v)
    )
    ends = np.cumsum([n for _, n in spans])
    assert [off for off, _ in spans] == [0, *ends[:-1].tolist()]
    assert ends[-1] == im.n_x
    labels = im.labels()
    assert len(labels) == im.n_x
    assert [im.sensor_index(label) for label in labels] == list(range(im.n_x))


def upstream_oracle(systems, rows):
    """The states some row in ``rows`` reaches backwards through the
    union of the systems' dense sparsity patterns."""
    pattern = sum(sys.a.toarray() != 0 for sys in systems) > 0
    seen = np.zeros(pattern.shape[0], dtype=bool)
    seen[rows] = True
    while True:
        grown = seen | pattern[seen].any(axis=0)
        if (grown == seen).all():
            return np.flatnonzero(seen)
        seen = grown


@pytest.mark.parametrize("sensors", [["J1"], ["J7", "J30"], ["TK2", "P12[1]"]])
def test_restricted_stepping_is_full_stepping_on_the_closure(synth, sensors):
    """The closure spans both periods; the cut systems step every kept
    state, and so every sensor, bit for bit as the full systems do."""
    net, profile = synth
    schedule = build_schedule(profile, StateIndexMap(net, 3))
    im = schedule[0][0].index_map
    keep = sensor_closure(im, sensors, profile.flows)
    cut = build_schedule(profile, im.restrict(keep))
    systems = [sys for sys, _ in schedule]
    assert np.array_equal(
        keep, upstream_oracle(systems, [im.sensor_index(s) for s in sensors])
    )
    assert 0 < keep.size < im.n_x
    rng = np.random.default_rng(5)
    x = rng.uniform(0.0, 2.0, im.n_x)
    y = x[keep]
    for (sys, n), (sub, n_sub) in zip(schedule, cut):
        assert n_sub == n and sub.dt_s == sys.dt_s
        assert sub.n_x == keep.size and sub.n_u == sys.n_u
        assert sub.index_map.keep is keep
        # a kept row reads kept columns only, in ascending order
        dense = sys.a.toarray()
        assert not dense[np.ix_(keep, np.setdiff1d(np.arange(im.n_x), keep))].any()
        assert np.array_equal(sub.a.toarray(), dense[np.ix_(keep, keep)])
        rows = sub.a.row_ids()
        assert (np.diff(sub.a.indices)[rows[1:] == rows[:-1]] > 0).all()
        u = rng.uniform(0.0, 1.0, sys.n_u)
        x, _ = advance(sys, x, u, n)
        y, _ = advance(sub, y, u, n)
        assert x[keep].tobytes() == y.tobytes()


def assert_cut(sub, whole, keep, square: bool):
    """``sub`` is ``whole`` cut to the rows ``keep`` (and, where
    ``square``, to those columns), array for array and bit for bit."""
    ref = to_scipy(whole)[keep]
    if square:
        ref = ref[:, keep]
    ref.sort_indices()
    assert sub.shape == ref.shape
    assert np.array_equal(sub.indptr, ref.indptr)
    assert np.array_equal(sub.indices, ref.indices)
    assert sub.data.tobytes() == ref.data.tobytes()


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 16), n_junctions=st.integers(3, 25),
       data=st.data())
def test_a_restricted_schedule_is_the_full_schedule_cut_to_the_closure(
        seed, n_junctions, data):
    """Synthetic networks with a pump (and a valve where one fits): water
    stands in some pipes in the first period and runs backwards in some
    in the second.  Assembled on the sensors' closure alone, every
    period's A and B are the full ones cut to it, array for array, with
    the same step and step count; the closure holds every state the
    sensors reach backwards through the full A's."""
    spec = SynthSpec(n_junctions=n_junctions, n_tanks=2, n_boosters=2,
                     n_pumps=1, n_valves=1, n_extra_pipes=3, period_s=600.0,
                     seed=seed)
    try:
        net, profile = synth_network(spec)
    except NetworkError:  # no pipe-fed link to put the valve on
        net, profile = synth_network(replace(spec, n_valves=0))
    moving = np.flatnonzero(profile.flows[0, :net.n_p]).tolist()
    still = data.draw(st.lists(st.sampled_from(moving), max_size=len(moving) - 1))
    back = data.draw(st.lists(st.sampled_from(range(net.n_p))))
    flows = profile.flows.copy()
    flows[0, still] = 0.0
    flows[1, back] *= -1.0
    profile = replace(profile, flows=flows)
    sensors = data.draw(st.lists(st.sampled_from(list(net.entity_index)),
                                 min_size=1, max_size=3, unique=True))
    im = StateIndexMap(net, 3)
    keep = sensor_closure(im, sensors, profile.flows)
    full = build_schedule(profile, im)
    cut = build_schedule(profile, im.restrict(keep))
    for (sys, n), (sub, n_sub) in zip(full, cut, strict=True):
        assert n_sub == n and sub.dt_s == sys.dt_s
        assert_cut(sub.a, sys.a, keep, True)
        assert_cut(sub.b, sys.b, keep, False)
    reached = upstream_oracle([sys for sys, _ in full],
                              [im.sensor_index(s) for s in sensors])
    assert np.isin(reached, keep).all()


PASSING_PUMPS = """\
[JUNCTIONS]
J1
J2
J3
[RESERVOIRS]
R1 0.8
R2 0.5
[TANKS]
TK1
[PIPES]
P1 J1 J3 500 0.3 -0.3 0 0
P2 TK1 J2 400 0.3 -0.2 0 0
[PUMPS]
M1 R1 J1
M2 R2 TK1
[VALVES]
V1 J3 J2
"""

# period 1 turns P2 around: J2 then feeds the tank
PASSING_FLOWS = [
    {"M1": 120, "M2": 80, "P1": 100, "P2": 60, "V1": 100,
     "J1": 20, "J2": 160, "J3": 0.5, "TK1": 50000},
    {"M1": 120, "M2": 80, "P1": 100, "P2": -30, "V1": 100,
     "J1": 20, "J2": 70, "J3": 0.5, "TK1": 52000},
]


def test_pumps_and_valves_are_kept_only_where_a_state_reads_them():
    """J2 is fed by the valve V1 and, through P2, by the tank TK1, which
    the pump M2 fills.  TK1's row reads M2's state, so M2 is kept; M1 and
    V1 only pass their upstream node's new value on, so J1 and J2 read
    those nodes, R1 and J3, and neither M1 nor V1 is kept.  The cut
    systems are still the full ones cut to the closure."""
    net = parse_network(PASSING_PUMPS)
    kinds = {"J": "demand", "T": "volume"}
    rows = ["period,entity,kind,value"] + [
        f"{p},{e},{kinds.get(e[0], 'flow')},{v}"
        for p, values in enumerate(PASSING_FLOWS) for e, v in values.items()
    ]
    profile = load_hydraulics(net, "\n".join(rows) + "\n")
    im = StateIndexMap(net, 4)
    keep = sensor_closure(im, ["J2"], profile.flows)
    labels = [im.labels()[i] for i in keep]
    assert "M2" in labels and "M1" not in labels and "V1" not in labels
    assert {"J1", "J3", "R1", "R2", "TK1", "P1[0]", "P2[3]"} <= set(labels)
    full = build_schedule(profile, im)
    cut = build_schedule(profile, im.restrict(keep))
    for (sys, n), (sub, n_sub) in zip(full, cut, strict=True):
        assert n_sub == n and sub.dt_s == sys.dt_s
        assert_cut(sub.a, sys.a, keep, True)
        assert_cut(sub.b, sys.b, keep, False)
    assert np.array_equal(
        keep, upstream_oracle([sys for sys, _ in full], [im.sensor_index("J2")])
    )
    # a layout that keeps J2 but not what it reads is refused
    with pytest.raises(ModelError, match="restricted layout is not closed"):
        build_schedule(profile, im.restrict(np.array([im.index("J2")])))


@pytest.mark.parametrize("seg", [1, 2, 3, 10])
def test_a_parallel_pump_and_valve_cut_to_the_closure_is_the_full_schedule(
        parallel, seg):
    """J2 reads J1 once, through the summed weights of the pump and the
    valve in parallel.  The closure of J3 keeps neither of them, and the
    cut systems are the full ones cut to it, bit for bit."""
    net, profile = parallel
    im = StateIndexMap(net, seg)
    keep = sensor_closure(im, ["J3"], profile.flows)
    labels = [im.labels()[i] for i in keep]
    assert "M1" not in labels and "V1" not in labels
    assert {"J1", "J2", "J3", "R1"} <= set(labels)
    full = build_schedule(profile, im)
    cut = build_schedule(profile, im.restrict(keep))
    for (sys, n), (sub, n_sub) in zip(full, cut, strict=True):
        assert n_sub == n and sub.dt_s == sys.dt_s
        assert_cut(sub.a, sys.a, keep, True)
        assert_cut(sub.b, sys.b, keep, False)


@pytest.mark.parametrize("n_extra", [10, 100, 1000])
def test_the_closure_of_an_embedded_subtree_does_not_grow_with_the_network(
        n_extra):
    """The same booster -> sensor subtree in networks of growing size has
    the same closure and the same restricted A and B, bit for bit."""
    systems = {}
    for n in (1, n_extra):
        net, profile = embedded_subtree(n)
        im = StateIndexMap(net, 3)
        keep = sensor_closure(im, ["J3"], profile.flows)
        assert [im.labels()[i] for i in keep][:4] == ["J1", "J2", "J3", "R1"]
        systems[n] = [sys for sys, _ in build_schedule(profile, im.restrict(keep))]
    for small, large in zip(systems[1], systems[n_extra], strict=True):
        assert small.dt_s == large.dt_s
        for name in ("a", "b"):
            a, b = getattr(small, name), getattr(large, name)
            assert a.shape == b.shape
            assert np.array_equal(a.indptr, b.indptr)
            assert np.array_equal(a.indices, b.indices)
            assert a.data.tobytes() == b.data.tobytes()
