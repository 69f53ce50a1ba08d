from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wqmpc import units
from wqmpc.dynamics import (
    Discretization,
    ReactionModel,
    StateIndexMap,
    assemble_system,
    build_schedule,
    compute_time_step,
    export_system,
    initial_state,
    iter_states,
    lw_coefficients,
    per_minute,
    pipe_reaction_constant,
    simulate,
    step,
)
from wqmpc.errors import ModelError
from wqmpc.hydraulics import HydraulicPeriod, load_hydraulics
from wqmpc.network import build_booster_matrix, parse_network
from wqmpc.synth import SynthSpec, synth_case


@pytest.fixture(scope="module")
def synth():
    """Seeded synthetic network with tanks, boosters, a pump and a valve."""
    net_text, csv_text = synth_case(SynthSpec(
        n_junctions=60, n_tanks=3, n_boosters=4, n_pumps=1, n_valves=1,
        n_extra_pipes=5, seed=7,
    ))
    net = parse_network(net_text)
    return net, load_hydraulics(net, csv_text)


def assemble(net, flows, demands=(), volumes=(), boosters=None, seg=2,
             dt=None, reaction=None, booster_nodes=None, duration=3600.0,
             paper_literal=False):
    """Assemble one system from raw period data."""
    flows = np.asarray(flows, dtype=float)
    qb = np.zeros(net.n_n)
    if boosters:
        for nid, q in boosters.items():
            qb[net.node_index(nid)] = q
    period = HydraulicPeriod(
        flows=flows,
        demands=np.asarray(demands, dtype=float),
        tank_volumes=np.asarray(volumes, dtype=float),
        booster_flows=qb,
        duration_s=duration,
    )
    counts = (seg,) * net.n_p if isinstance(seg, int) else tuple(seg)
    if dt is None:
        dt = compute_time_step(net, counts, flows, duration)
    if booster_nodes is None:
        booster_nodes = list(boosters) if boosters else []
    layout = build_booster_matrix(net, booster_nodes)
    disc = Discretization(
        seg_counts=counts,
        dx=tuple(p.length_m / c for p, c in zip(net.pipes, counts)),
        dt_s=dt,
    )
    if reaction is None:
        reaction = ReactionModel.from_network(net)
    return assemble_system(
        net, layout, period, disc, reaction,
        paper_literal_reaction=paper_literal,
    )


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
    q = net.pipes[0].area_m2  # 1 m/s
    assert compute_time_step(net, 100, [q], 3600.0) == 6.0


def test_time_step_caps_at_period():
    net = single_pipe_net(length=700.0)
    q = net.pipes[0].area_m2
    assert compute_time_step(net, 100, [q], 5.0) == 5.0


def test_time_step_fractional_fallback():
    net = single_pipe_net(length=700.0)
    q = net.pipes[0].area_m2
    # 10.5 s period has no whole-second divisor <= 7; fewest equal steps wins
    assert compute_time_step(net, 100, [q], 10.5) == pytest.approx(5.25)


def test_time_step_stagnant_network():
    net = single_pipe_net()
    with pytest.raises(ModelError, match="stagnant"):
        compute_time_step(net, 100, [0.0], 3600.0)


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
    v = q1 / net.pipes[0].area_m2
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
    sys = build_schedule(net, profile, 10)[0][0]
    r1 = sys.index_map.index("R1")
    row = sys.a.getrow(r1).toarray().ravel()
    expect = np.zeros(sys.n_x)
    expect[r1] = 1.0
    assert (row == expect).all()
    assert sys.b.getrow(r1).nnz == 0


def test_pump_copies_upstream_row(three_node):
    net, profile = three_node
    sys = build_schedule(net, profile, 10)[0][0]
    im = sys.index_map
    pump = im.index("M12")
    r1 = im.index("R1")
    assert (sys.a.getrow(pump).toarray() == sys.a.getrow(r1).toarray()).all()
    # downstream junction mixes the pump's (reservoir) concentration
    j2 = im.index("J2")
    period = profile.periods[0]
    denom = period.flows[0] + period.demands[0]  # P23 outflow + demand
    assert sys.a[j2, r1] == pytest.approx(period.flows[1] / denom)


def test_flipped_pipe_matches_forward_declaration():
    fwd = parse_network(CHAIN)
    rev = parse_network(CHAIN.replace("P1 R1 J1", "P1 J1 R1"))
    q1, q2, d = 0.03, 0.025, 0.005
    s_f = assemble(fwd, [q1, q2], demands=[d], volumes=[500.0], seg=4, dt=5.0)
    s_r = assemble(rev, [-q1, q2], demands=[d], volumes=[500.0], seg=4, dt=5.0)
    im = s_f.index_map
    # states identical up to reversing P1's declared segment order
    perm = np.arange(s_f.n_x)
    sl = im.pipe_slice(0)
    perm[sl] = perm[sl][::-1]
    a_f, a_r = s_f.a.toarray(), s_r.a.toarray()
    assert np.allclose(a_f, a_r[np.ix_(perm, perm)], atol=1e-15)


@pytest.mark.parametrize("case", ["three_node", "net3", "synth"])
def test_row_sums_are_one_without_reaction(case, request):
    net, profile = request.getfixturevalue(case)
    assert profile.consistent
    schedule = build_schedule(net, profile, 25, reaction=ReactionModel.zero(net))
    for sys, _ in schedule:
        ones = np.ones(sys.n_x)
        total = sys.a @ ones + sys.b @ np.ones(sys.n_u)
        assert np.abs(total - 1.0).max() < 1e-12


@pytest.mark.parametrize("case", ["net3", "synth"])
def test_step_satisfies_balance_equations(case, request):
    """x' = A x + B u, checked against the mixing balances themselves."""
    net, profile = request.getfixturevalue(case)
    schedule = build_schedule(net, profile, 4, reaction=ReactionModel.zero(net))
    rng = np.random.default_rng(3)
    n_tk0 = net.n_j + net.n_r
    for (sys, _), period in zip(schedule, profile.periods):
        im, dt = sys.index_map, sys.dt_s
        x = rng.uniform(0.0, 2.0, sys.n_x)
        u = rng.uniform(0.0, 5.0, sys.n_u)
        x1 = sys.a @ x + sys.b @ u
        dose = np.zeros(net.n_n)  # booster mass rate per node
        for col, node in enumerate(sys.booster.indices):
            dose[node] = period.booster_flows[node] * u[col]
        q_out = np.zeros(net.n_n)
        q_in = np.zeros(net.n_n)
        mass_new = np.zeros(net.n_n)  # inflow-weighted new outlet values
        mass_old = np.zeros(net.n_n)  # inflow-weighted current outlet values
        for l, (link, f) in enumerate(zip(net.links, period.flows)):
            up, down = net.node_index(link.up), net.node_index(link.down)
            if f < 0:
                up, down = down, up
            # the state leaving a link; a reversed pipe leaves at segment 0
            out = im.index(link.id, 0 if f < 0 and l < net.n_p else None)
            q_out[up] += abs(f)
            q_in[down] += abs(f)
            mass_new[down] += abs(f) * x1[out]
            mass_old[down] += abs(f) * x[out]
        for j in range(net.n_j):
            denom = q_out[j] + period.demands[j]
            assert abs(x1[j] * denom - mass_new[j] - dose[j]) <= 1e-12 * denom
        for link in net.links[net.n_p:]:
            f = period.flows[net.link_index(link.id)]
            up = net.node_index(link.down if f < 0 else link.up)
            assert abs(x1[im.index(link.id)] - x1[up]) <= 1e-12
        for k, v_t in enumerate(period.tank_volumes):
            tk = n_tk0 + k
            v_next = v_t + dt * (q_in[tk] - q_out[tk] + period.booster_flows[tk])
            mass = (v_t - dt * q_out[tk]) * x[tk] + dt * (mass_old[tk] + dose[tk])
            assert abs(x1[tk] * v_next - mass) <= 1e-12 * v_next


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
    # inlet segment reads the flow-wise upstream node, outlet feeds downstream
    assert fwd.a[p2_0, j1] > 0 and fwd.a[p2_0, tk] == 0
    assert rev.a[p2_1, tk] > 0 and rev.a[p2_1, j1] == 0
    assert fwd.a[tk, p2_1] > 0 and fwd.a[tk, p2_0] == 0
    assert rev.a[j1, p2_0] != 0 and rev.a[tk, p2_0] == 0


def test_assembly_rejects_bad_flow_length():
    net = parse_network(CHAIN)
    with pytest.raises(ModelError, match="flow vector has length 1, expected 2"):
        assemble(net, [0.03], demands=[0.005], volumes=[500.0], dt=10.0)


def test_sparsity_bounded_by_degree(three_node):
    net, profile = three_node
    sys = build_schedule(net, profile, 100)[0][0]
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


def test_paper_literal_reaction_fold():
    net = single_pipe_net(length=700.0, kb=-0.5)
    q = net.pipes[0].area_m2
    scaled = assemble(net, [q], demands=[q], seg=100, volumes=[])
    literal = assemble(net, [q], demands=[q], seg=100, volumes=[],
                       paper_literal=True)
    im = scaled.index_map
    s5 = im.index("P1", 5)
    dt_h = scaled.dt_s / 3600.0
    assert scaled.a[s5, s5] - literal.a[s5, s5] == pytest.approx(
        -0.5 * dt_h - (-0.5)
    )


# ---------------------------------------------------------------------
# Stepping, simulation, export
# ---------------------------------------------------------------------


def test_step_checks_dimensions(three_node):
    net, profile = three_node
    sys = build_schedule(net, profile, 10)[0][0]
    with pytest.raises(ModelError, match="state has shape"):
        step(sys, np.zeros(3), np.zeros(sys.n_u))
    with pytest.raises(ModelError, match="input has shape"):
        step(sys, np.zeros(sys.n_x), np.zeros(sys.n_u + 1))


@pytest.mark.parametrize("case", ["three_node", "net3", "synth"])
def test_b_is_column_compressed_and_steps_exactly(case, request):
    """B is CSC with sorted indices; B u matches the CSR product bit for bit."""
    net, profile = request.getfixturevalue(case)
    rng = np.random.default_rng(5)
    for sys, _ in build_schedule(net, profile, 4):
        b = sys.b
        assert b.format == "csc"
        assert b.shape == (sys.n_x, sys.booster.n_b)
        for col in range(b.shape[1]):
            rows = b.indices[b.indptr[col]:b.indptr[col + 1]]
            assert np.all(np.diff(rows) > 0)
        x = rng.uniform(0.0, 2.0, sys.n_x)
        u = rng.uniform(0.0, 5.0, sys.n_u)
        assert np.array_equal(step(sys, x, u), sys.a @ x + b.tocsr() @ u)


def test_simulate_nonnegative_and_bounded(three_node):
    net, profile = three_node
    schedule = build_schedule(net, profile, 50)
    x0 = initial_state(net, schedule[0][0].index_map)
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
    q = net.pipes[0].area_m2  # 1 m/s, CFL = 6/7
    sys = assemble(net, [q], demands=[q], seg=100, volumes=[])
    x = np.zeros(sys.n_x)
    sl = sys.index_map.pipe_slice(0)
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
    schedule = build_schedule(net, profile, 50)
    x0 = initial_state(net, schedule[0][0].index_map)
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
    small = build_schedule(net, profile, 2)[0]
    large = build_schedule(net, profile, 3)[0]
    x0 = initial_state(net, small[0].index_map)
    with pytest.raises(ModelError, match="mismatched state sizes"):
        simulate([small, large], x0)
    with pytest.raises(ModelError, match="state has shape"):
        list(iter_states([small], x0[:-1]))


def test_export_deterministic(tmp_path, three_node):
    net, profile = three_node
    sys = build_schedule(net, profile, 10)[0][0]
    files1 = export_system(sys, str(tmp_path / "a"))
    files2 = export_system(sys, str(tmp_path / "b"))
    for f1, f2 in zip(files1, files2):
        assert Path(f1).read_bytes() == Path(f2).read_bytes()
    # triplet file round-trips the matrix
    rows = np.loadtxt(files1[0], delimiter=",", skiprows=1)
    rebuilt = np.zeros((sys.n_x, sys.n_x))
    rebuilt[rows[:, 0].astype(int), rows[:, 1].astype(int)] = rows[:, 2]
    assert np.allclose(rebuilt, sys.a.toarray(), atol=1e-16)


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
    assert im.resolve(spec) == targets
