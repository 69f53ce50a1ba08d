from dataclasses import replace

import numpy as np
import pytest

from conftest import embedded_subtree, from_dense, to_scipy

from wqmpc.dynamics import StateIndexMap, build_schedule, sensor_closure, step
from wqmpc.errors import InfeasibleProblem, SolverError
from wqmpc.mpc import (
    AnalyticalLaw,
    AugmentedSystem,
    BoundRows,
    ControlConfig,
    PredictionOperator,
    RecedingHorizonController,
    build_augmented,
    build_inequalities,
    build_law,
    count_variables,
    solve_constrained,
)
from wqmpc.synth import SynthSpec, synth_network


def random_aug(rng, n_x=6, n_y=2, n_u=3):
    """A random stable model (A, B) whose n_y sensors read distinct states."""
    a = rng.uniform(-1.0, 1.0, (n_x, n_x))
    a *= 0.9 / max(np.abs(np.linalg.eigvals(a)).max(), 1e-6)
    b = rng.uniform(-1.0, 1.0, (n_x, n_u))
    cols = rng.choice(n_x, n_y, replace=False)
    return AugmentedSystem(a=from_dense(a), b=from_dense(b), cols=cols)


def random_free(law, rng, u_prev=None):
    """The free response from a random model state and measurement, with
    the input held at ``u_prev`` (zero by default)."""
    aug = law.pred.aug
    u_prev = np.zeros(aug.n_u) if u_prev is None else u_prev
    return law.pred.free_response(rng.normal(size=aug.n_x), u_prev,
                                  rng.normal(size=aug.n_y))


def rollout(aug, x0, u_prev, y_meas, du):
    """Step the model under u_k = u_prev + du_0 + ... + du_k and stack the
    sensor outputs, each plus the output disturbance y_meas - x0[cols]."""
    a, b = aug.a.toarray(), aug.b.toarray()
    dist = y_meas - x0[aug.cols]
    x, ys = x0.copy(), []
    for u in u_prev + np.cumsum(du, axis=0):
        x = a @ x + b @ u
        ys.append(x[aug.cols] + dist)
    return np.array(ys)


# ---------------------------------------------------------------------
# Model with sensors
# ---------------------------------------------------------------------


def test_build_augmented_blocks(three_node):
    net, profile = three_node
    sys = build_schedule(profile, StateIndexMap(net, 10))[0][0]
    sensors = ["J2", "P23[9]"]
    aug = build_augmented(sys, sensors)
    n_x, n_y = sys.n_x, 2
    c = np.zeros((n_y, n_x))
    c[np.arange(n_y), [sys.index_map.sensor_index(s) for s in sensors]] = 1.0
    assert (aug.n_x, aug.n_y, aug.n_u) == (n_x, n_y, sys.n_u)
    assert np.allclose(aug.a.toarray(), sys.a.toarray())
    assert np.allclose(aug.b.toarray(), sys.b.toarray())
    assert np.allclose(np.eye(n_x)[aug.cols], c)
    assert np.allclose(aug.a.toarray()[aug.cols], c @ sys.a.toarray())
    assert np.allclose(aug.b.toarray()[aug.cols], c @ sys.b.toarray())


def test_build_augmented_sensor_errors(three_node):
    net, profile = three_node
    sys = build_schedule(profile, StateIndexMap(net, 10))[0][0]
    with pytest.raises(SolverError, match="at least one sensor"):
        build_augmented(sys, [])
    with pytest.raises(Exception, match="unknown entity"):
        build_augmented(sys, ["NOPE"])


def test_bare_pipe_sensor_measures_last_segment(three_node):
    net, profile = three_node
    sys = build_schedule(profile, StateIndexMap(net, 10))[0][0]
    aug = build_augmented(sys, ["P23"])
    row = to_scipy(sys.a)[sys.index_map.index("P23", 9)].toarray()
    assert np.array_equal(to_scipy(aug.a)[aug.cols].toarray(), row)


# ---------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------


def test_prediction_matches_rollout():
    rng = np.random.default_rng(7)
    aug = random_aug(rng)
    pred = PredictionOperator(aug, 12)
    x0 = rng.normal(size=aug.n_x)
    u_prev, y_meas = rng.normal(size=aug.n_u), rng.normal(size=aug.n_y)
    d = rng.normal(size=(12, aug.n_u))
    predicted = pred.free_response(x0, u_prev, y_meas) + pred.z @ d.ravel()
    truth = rollout(aug, x0, u_prev, y_meas, d).ravel()
    assert np.allclose(predicted, truth, rtol=0, atol=1e-12)


def test_prediction_matches_physical_model(three_node):
    """The predictor built from a three_node period forecasts the sensors
    of the state-space model stepped with the accumulated increments,
    from a state that is not steady."""
    net, profile = three_node
    sys = build_schedule(profile, StateIndexMap(net, 10))[0][0]
    sensors = ["J2", "P23[9]"]
    cols = [sys.index_map.sensor_index(s) for s in sensors]
    n = 15
    pred = PredictionOperator(build_augmented(sys, sensors), n)
    rng = np.random.default_rng(31)
    x_before = rng.uniform(0.0, 2.0, sys.n_x)
    u_prev = rng.uniform(0.0, 3.0, sys.n_u)
    x = step(sys, x_before, u_prev)
    free = pred.free_response(x, u_prev, x[cols])
    d = rng.normal(size=(n, sys.n_u))
    ys = []
    for u in u_prev + np.cumsum(d, axis=0):
        x = step(sys, x, u)
        ys.append(x[cols])
    truth = np.concatenate(ys)
    predicted = free + pred.z @ d.ravel()
    assert np.abs(predicted - truth).max() <= 1e-10 * np.abs(truth).max()


@pytest.mark.parametrize("n, n_y, n_u", [(1, 1, 1), (1, 3, 2), (4, 2, 3), (17, 3, 3)])
def test_z_blocks_match_dense_powers(n, n_y, n_u):
    rng = np.random.default_rng(n)
    aug = random_aug(rng, n_x=5, n_y=n_y, n_u=n_u)
    pred = PredictionOperator(aug, n)
    a, b = aug.a.toarray(), aug.b.toarray()
    c = np.eye(aug.n_x)[aug.cols]
    z = pred.z
    assert z.shape == (n * n_y, n * n_u)
    for i in range(n):
        for j in range(n):
            block = z[i * n_y:(i + 1) * n_y, j * n_u:(j + 1) * n_u]
            if j > i:
                assert np.array_equal(block, np.zeros((n_y, n_u)))
                assert not np.signbit(block).any()
            else:
                expect = sum(c @ np.linalg.matrix_power(a, k) @ b
                             for k in range(i - j + 1))
                assert np.allclose(block, expect, rtol=1e-12, atol=1e-14)


def dense_row_blocks(aug, n):
    """C A^k for k = 1..n, carried as dense row blocks through the sparse
    A one step at a time, and the step responses S_k = h_0 + ... + h_k
    for k = 0..n-1, h_k = C A^k B, summed in k order."""
    f = np.eye(aug.n_x)[aug.cols]
    a_t = to_scipy(aug.a).T.tocsr()
    b = to_scipy(aug.b)
    w, s = [], [f @ b]
    for _ in range(n):
        f = (a_t @ f.T).T
        w.append(f)
        s.append(s[-1] + f @ b)
    return w, s[:n]


def _case_aug(case, request):
    if case == "synth":
        net, profile = synth_network(SynthSpec(
            n_junctions=30, n_tanks=2, n_extra_pipes=3, n_boosters=3, seed=11,
        ))
        seg, period = 4, 0
        sensors = [net.node_ids[i] for i in (4, 17, 29)]
    else:
        net, profile = request.getfixturevalue(case)
        seg, period, sensors = {
            "three_node": (10, 0, ["J2", "P23[9]"]),
            "net3": (100, 1, ["J15", "J40", "J86"]),
        }[case]
    schedule = build_schedule(profile, StateIndexMap(net, seg))
    return build_augmented(schedule[period][0], sensors)


@pytest.mark.parametrize("case, n, dense_powers", [
    ("three_node", 40, True),
    ("net3", 8, False),
    ("synth", 25, True),
])
def test_w_is_the_dense_predictor_on_its_support(case, n, dense_powers, request):
    """``w`` holds the columns ``support`` of W = [C A; ...; C A^N] bit
    for bit, W is exactly zero on every other column, and ``z`` is the
    one built from dense row blocks."""
    aug = _case_aug(case, request)
    pred = PredictionOperator(aug, n)
    n_x, ny, nu = aug.n_x, aug.n_y, aug.n_u
    support = pred.support
    assert np.array_equal(support, np.unique(support))
    assert pred.w.shape == (n * ny, support.size)
    assert support.size < n_x
    off = np.setdiff1d(np.arange(n_x), support)
    w_rows, g_rows = dense_row_blocks(aug, n)
    for i, f in enumerate(w_rows):
        assert np.array_equal(pred.w[i * ny:(i + 1) * ny], f[:, support])
        assert not f[:, off].any()
    z = np.zeros((n * ny, n * nu))
    for i in range(n):
        for j in range(i + 1):
            z[i * ny:(i + 1) * ny, j * nu:(j + 1) * nu] = g_rows[i - j]
    assert np.array_equal(pred.z, z)
    if dense_powers:
        a = aug.a.toarray()
        c = np.eye(aug.n_x)[aug.cols]
        for i in range(n):
            block = c @ np.linalg.matrix_power(a, i + 1)
            assert np.allclose(pred.w[i * ny:(i + 1) * ny], block[:, support],
                               rtol=1e-12, atol=1e-14)
            assert not block[:, off].any()
    rng = np.random.default_rng(n)
    x, u, y = rng.normal(size=n_x), rng.normal(size=nu), rng.normal(size=ny)
    full = (np.concatenate(w_rows) @ x + z[:, :nu] @ u
            + np.tile(y - x[aug.cols], n))
    assert np.allclose(pred.free_response(x, u, y), full, rtol=1e-13, atol=1e-15)


def test_dense_system_keeps_every_column():
    rng = np.random.default_rng(3)
    aug = random_aug(rng)
    pred = PredictionOperator(aug, 9)
    assert np.array_equal(pred.support, np.arange(aug.n_x))
    w_rows, _ = dense_row_blocks(aug, 9)
    assert np.array_equal(pred.w, np.concatenate(w_rows))


def test_scalar_integrator_blocks():
    # x+ = x + u, y = x: the step-response blocks are 1, 2, 3, ...
    aug = AugmentedSystem(
        a=from_dense(np.array([[1.0]])), b=from_dense(np.array([[1.0]])),
        cols=np.array([0]),
    )
    pred = PredictionOperator(aug, 3)
    expect = np.array([
        [1.0, 0.0, 0.0],
        [2.0, 1.0, 0.0],
        [3.0, 2.0, 1.0],
    ])
    assert np.allclose(pred.z, expect)


def test_horizon_must_be_positive():
    rng = np.random.default_rng(0)
    with pytest.raises(SolverError, match="horizon"):
        PredictionOperator(random_aug(rng), 0)


# ---------------------------------------------------------------------
# Analytical law
# ---------------------------------------------------------------------


def make_law(seed=0, n_steps=8, q=1.0, r=0.5, b_scale=0.0):
    rng = np.random.default_rng(seed)
    aug = random_aug(rng)
    pred = PredictionOperator(aug, n_steps)
    b = np.zeros(aug.n_u)
    if b_scale:
        b = b_scale * rng.uniform(0.0, 1.0, aug.n_u)
    return AnalyticalLaw(pred, q, r, rng.uniform(1.0, 2.0, aug.n_y), b), rng


def test_analytical_law_stationarity():
    law, rng = make_law(seed=3, b_scale=0.1)
    free = random_free(law, rng)
    d = law.solve(free).reshape(-1)
    f = law.gradient_offset(free)
    z = law.pred.z
    h = law.q * z.T @ z + law.r * np.eye(z.shape[1])
    resid = h @ d + f
    assert np.abs(resid).max() < 1e-10


def test_solve_h_batches_columns():
    law, rng = make_law(seed=5, n_steps=10)
    f = rng.normal(size=(10 * law.pred.n_u, 7))
    batched = law.solve_h(f)
    assert batched.shape == f.shape
    for k in range(f.shape[1]):
        assert np.array_equal(batched[:, k], law.solve_h(f[:, k]))


def test_common_weight_scaling_leaves_law_unchanged():
    # with no injection-cost offset, only q/r matters
    law1, rng = make_law(seed=21, q=1.0, r=0.5)
    law2 = AnalyticalLaw(law1.pred, 10.0, 5.0, law1.y_ref, law1.b)
    free = random_free(law1, rng)
    assert np.allclose(law1.solve(free), law2.solve(free), atol=1e-10)


def two_sensor_config(**kwargs):
    return ControlConfig(**{"sensors": ("J2", "P23"), "horizon": 3,
                            "y_ref": 1.0, **kwargs})


def test_weights_must_be_positive(three_node):
    net, profile = three_node
    [(sys, _)] = build_schedule(profile, StateIndexMap(net, 10), periods=range(1))
    with pytest.raises(SolverError, match="positive"):
        build_law(sys, two_sensor_config(q=0.0))


@pytest.mark.parametrize("key, value", [
    ("q", np.inf), ("q", np.nan), ("r", np.inf), ("r", np.nan),
    ("price_per_mg", np.inf), ("y_ref", np.nan), ("y_ref", [1.0, np.inf]),
])
def test_weights_must_be_finite(three_node, key, value):
    net, profile = three_node
    [(sys, _)] = build_schedule(profile, StateIndexMap(net, 10), periods=range(1))
    with pytest.raises(SolverError, match="finite"):
        build_law(sys, two_sensor_config(**{key: value}))


def test_build_law_matches_the_hand_built_pipeline(three_node):
    """build_law's law is bit for bit the one built step by step, with
    the injection price in b, and it has bound rows only when
    constrained."""
    net, profile = three_node
    [(sys, _)] = build_schedule(profile, StateIndexMap(net, 10), periods=range(1))
    config = two_sensor_config(horizon=12, y_ref=(2.0, 1.5), r=1e-3,
                               price_per_mg=0.05)
    law, rows = build_law(sys, config)
    assert rows is None
    pred = PredictionOperator(build_augmented(sys, ["J2", "P23"]), 12)
    b = 0.05 * sys.booster_flows * 1000.0 * sys.dt_s
    hand = AnalyticalLaw(pred, 1.0, 1e-3, np.array([2.0, 1.5]), b)
    assert law.b.any()
    for name in ("b", "y_ref", "_h_inv"):
        assert np.array_equal(getattr(law, name), getattr(hand, name))
    assert np.array_equal(law.pred.z, pred.z)
    assert np.array_equal(law.pred.w, pred.w)
    _, rows = build_law(sys, replace(config, constrained=True, u_max=3.0,
                                     y_max=2.2))
    assert rows.g.shape[0] == 12 * 2 + 2 * 12 * sys.n_u  # y <= y_max, u in [0, 3]


@pytest.mark.parametrize("case, sensors, horizon", [
    ("three_node", ("J2", "P23[50]"), 40),
    ("net3", ("J15", "J40", "J86"), 30),
])
def test_a_law_on_the_sensors_closure_is_the_full_law(request, case, sensors,
                                                      horizon):
    """The law built from a system cut to its sensors' closure has the
    full law's W and Z bit for bit; its support is the full support,
    relabelled through keep."""
    net, profile = request.getfixturevalue(case)
    im = StateIndexMap(net, 100)
    [(sys_, _)] = build_schedule(profile, im, periods=range(1))
    keep = sensor_closure(im, sensors, profile.flows[:1])
    [(cut, _)] = build_schedule(profile, im.restrict(keep), periods=range(1))
    assert cut.n_x == keep.size < sys_.n_x
    config = ControlConfig(sensors=sensors, horizon=horizon, y_ref=1.0,
                           r=1e-3, price_per_mg=1e-6)
    full, _ = build_law(sys_, config)
    law, _ = build_law(cut, config)
    for name in ("w", "z"):
        ours, ref = getattr(law.pred, name), getattr(full.pred, name)
        assert ours.shape == ref.shape and ours.tobytes() == ref.tobytes(), name
    assert np.array_equal(keep[law.pred.support], full.pred.support)
    # tobytes() reads C order whatever the layout, but free_response's
    # BLAS product sums in an order w's layout sets: a Fortran-ordered w
    # with the same entries moves the controller's inputs by an ulp
    assert law.pred.w.flags.c_contiguous


@pytest.mark.parametrize("n_extra", [10, 100, 1000])
def test_the_law_of_an_embedded_subtree_does_not_grow_with_the_network(
        n_extra):
    """The same booster -> sensor subtree in networks of growing size,
    cut to its sensor's closure, has the same law in every period:
    support, W and Z bit for bit."""
    config = ControlConfig(sensors=("J3",), horizon=20, y_ref=1.0)
    preds = {}
    for n in (1, n_extra):
        net, profile = embedded_subtree(n)
        im = StateIndexMap(net, 3)
        keep = sensor_closure(im, ["J3"], profile.flows)
        schedule = build_schedule(profile, im.restrict(keep))
        preds[n] = [build_law(sys, config)[0].pred for sys, _ in schedule]
    for small, large in zip(preds[1], preds[n_extra], strict=True):
        for name in ("support", "w", "z"):
            a, b = getattr(small, name), getattr(large, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


def test_scalar_bounds_match_per_element_bounds():
    law, rng = make_law(seed=37, n_steps=5)
    n_u, n_y = law.pred.n_u, law.pred.n_y
    u_prev = rng.normal(size=n_u)
    free = random_free(law, rng, u_prev)
    scalar = BoundRows(law.pred, -1.0, 2.0, 0.5, 3.0)
    per_element = BoundRows(law.pred, np.full(n_u, -1.0), np.full(n_u, 2.0),
                            np.full(n_y, 0.5), np.full(n_y, 3.0))
    assert np.array_equal(scalar.g, per_element.g)
    assert np.array_equal(scalar.rhs(free, u_prev), per_element.rhs(free, u_prev))


def test_law_refuses_a_hessian_it_cannot_invert():
    law, _ = make_law(seed=4)
    ref, b = law.y_ref, law.b
    with pytest.raises(SolverError, match="non-finite"):
        AnalyticalLaw(law.pred, np.inf, 1.0, ref, b)
    with pytest.raises(SolverError, match="non-finite"):
        AnalyticalLaw(law.pred, 1.0, np.nan, ref, b)
    with pytest.raises(SolverError, match="positive definite"):
        AnalyticalLaw(law.pred, 1.0, -1e6, ref, b)


def test_solve_h_refuses_a_non_finite_right_hand_side():
    law, rng = make_law(seed=6)
    n = law.pred.n_steps * law.pred.n_u
    f = rng.normal(size=(n, 3))
    f[2, 1] = np.nan
    with pytest.raises(SolverError, match="non-finite"):
        law.solve_h(f)
    with pytest.raises(SolverError, match="non-finite"):
        law.solve_h(f[:, 1])
    aug = law.pred.aug
    y_meas = np.zeros(aug.n_y)
    y_meas[-1] = np.nan  # a NaN sensor reading
    free = law.pred.free_response(np.zeros(aug.n_x), np.zeros(aug.n_u), y_meas)
    with pytest.raises(SolverError, match="non-finite"):
        law.solve(free)


def test_solve_h_matches_an_independent_solve(three_node):
    """The cached H^-1 against an LU solve of H itself, on three_node at
    N = 300 with the shipped scenario's r = 1e-6 (cond(H) ~ 7e4)."""
    net, profile = three_node
    [(sys, _)] = build_schedule(profile, StateIndexMap(net, 100), periods=range(1))
    aug = build_augmented(sys, ["J2"])
    pred = PredictionOperator(aug, 300)
    law = AnalyticalLaw(pred, 1.0, 1e-6, np.array([2.0]), np.zeros(aug.n_u))
    z = pred.z
    h = z.T @ z + 1e-6 * np.eye(z.shape[1])
    rng = np.random.default_rng(11)
    for f in (rng.normal(size=z.shape[1]), rng.normal(size=(z.shape[1], 4))):
        ref = np.linalg.solve(h, f)
        assert np.abs(law.solve_h(f) - ref).max() <= 1e-9 * np.abs(ref).max()
    assert np.array_equal(law._h_inv, law._h_inv.T)


# ---------------------------------------------------------------------
# Constrained solve
# ---------------------------------------------------------------------


def test_constrained_equals_analytical_when_inactive():
    law, rng = make_law(seed=9)
    free = 0.01 * random_free(law, rng)
    rows = BoundRows(law.pred, u_min=-1e6, u_max=1e6, y_min=-1e6, y_max=1e6)
    d, lam = solve_constrained(law, rows, free, np.zeros(law.pred.n_u))
    assert np.allclose(d, law.solve(free), atol=1e-6)
    assert np.all(lam == 0) or lam.size == 0


def test_constrained_respects_active_bounds():
    law, rng = make_law(seed=13)
    u_prev = np.zeros(law.pred.n_u)
    free = random_free(law, rng, u_prev)
    d_free = law.solve(free)
    u_traj = u_prev + np.cumsum(d_free, axis=0)
    cap = 0.5 * np.abs(u_traj).max()
    rows = BoundRows(law.pred, u_min=-cap, u_max=cap)
    d, lam = solve_constrained(law, rows, free, u_prev)
    u_c = u_prev + np.cumsum(d, axis=0)
    assert u_c.max() <= cap + 1e-6
    assert u_c.min() >= -cap - 1e-6
    # KKT stationarity with the returned multipliers
    from wqmpc.mpc import build_inequalities
    g, h = build_inequalities(rows, free, u_prev)
    f = law.gradient_offset(free)
    z = law.pred.z
    hess = law.q * z.T @ z + law.r * np.eye(z.shape[1])
    resid = hess @ d.reshape(-1) + f + g.T @ lam
    assert np.abs(resid).max() < 1e-5
    assert lam.min() >= 0


@pytest.mark.parametrize("seed", range(30))
def test_constrained_matches_slsqp_oracle(seed):
    from scipy.optimize import minimize
    from wqmpc.mpc import build_inequalities

    law, rng = make_law(seed=seed, n_steps=6)
    u_prev = np.zeros(law.pred.n_u)
    free = random_free(law, rng, u_prev)
    d_free = law.solve(free)
    cap = 0.5 * np.abs(u_prev + np.cumsum(d_free, axis=0)).max()
    rows = BoundRows(law.pred, u_min=-cap, u_max=cap)
    d, _ = solve_constrained(law, rows, free, u_prev)

    z = law.pred.z
    hess = law.q * z.T @ z + law.r * np.eye(z.shape[1])
    f = law.gradient_offset(free)
    g, h = build_inequalities(rows, free, u_prev)

    def cost(v):
        return 0.5 * v @ hess @ v + f @ v

    ref = minimize(
        cost, np.zeros_like(f), jac=lambda v: hess @ v + f, method="SLSQP",
        constraints=[{"type": "ineq", "fun": lambda v: h - g @ v,
                      "jac": lambda v: -g}],
        options={"ftol": 1e-12, "maxiter": 2000},
    )
    assert ref.success
    best = cost(ref.x)
    assert abs(cost(d.reshape(-1)) - best) <= 1e-6 * max(abs(best), 1.0)
    assert (g @ d.reshape(-1) - h).max() <= 1e-6


def test_constrained_detects_infeasibility():
    law, rng = make_law(seed=17)
    # inputs pinned at zero cannot lift the output above an absurd floor
    rows = BoundRows(law.pred, u_min=0.0, u_max=0.0, y_min=1e6)
    with pytest.raises(InfeasibleProblem):
        solve_constrained(law, rows, np.zeros(law.pred.n_steps * law.pred.n_y),
                          np.zeros(law.pred.n_u))


def test_inequality_row_counts():
    from wqmpc.mpc import build_inequalities

    law, rng = make_law(seed=19, n_steps=6)
    n, ny = law.pred.n_u, law.pred.n_y
    rows = BoundRows(law.pred, u_min=0.0, u_max=1.0, y_min=0.1, y_max=3.0)
    g, h = build_inequalities(rows, np.zeros(6 * ny), np.zeros(n))
    assert g.shape == (2 * 6 * ny + 2 * 6 * n, 6 * n)
    assert h.shape == (g.shape[0],)
    # dropping the output bounds removes exactly their rows
    g2, _ = build_inequalities(
        BoundRows(law.pred, u_min=0.0, u_max=1.0),
        np.zeros(6 * ny), np.zeros(n))
    assert g2.shape[0] == 2 * 6 * n


def test_inequality_slacks_match_predicted_trajectory():
    from wqmpc.mpc import build_inequalities

    law, rng = make_law(seed=29, n_steps=7)
    n_u, n_y = law.pred.n_u, law.pred.n_y
    u_prev = rng.normal(size=n_u)
    free = random_free(law, rng, u_prev)
    d = rng.normal(size=(7, n_u))
    rows = BoundRows(law.pred, u_min=-2.0, u_max=3.0, y_min=-1.0, y_max=4.0)
    g, h = build_inequalities(rows, free, u_prev)
    slack = h - g @ d.reshape(-1)
    # rows come as y >= y_min, y <= y_max, u >= u_min, u <= u_max
    y = free + law.pred.z @ d.ravel()
    u = (u_prev + np.cumsum(d, axis=0)).reshape(-1)
    expected = np.concatenate([y + 1.0, 4.0 - y, u + 2.0, 3.0 - u])
    assert np.allclose(slack, expected, rtol=0, atol=1e-10)


def test_dual_matrices_built_once_per_law(three_node, monkeypatch):
    """G, H^-1 G' and G H^-1 G' are built once per law and bound set: over
    several active constrained updates in each of two periods, H^-1 is
    applied to a matrix once per law."""
    net, profile = three_node
    schedule = build_schedule(profile, StateIndexMap(net, 10))[:2]
    matrix_solves = []
    real_solve_h = AnalyticalLaw.solve_h

    def counted(law, f):
        if np.ndim(f) == 2:
            matrix_solves.append(law)
        return real_solve_h(law, f)

    monkeypatch.setattr(AnalyticalLaw, "solve_h", counted)
    duals = []
    real_dual = BoundRows.dual

    def dual(rows, solve_h):
        duals.append(rows)
        return real_dual(rows, solve_h)

    monkeypatch.setattr(BoundRows, "dual", dual)
    ctl = RecedingHorizonController(ControlConfig(
        sensors=("J2",), horizon=6, y_ref=2.0, r=1e-6, u_max=1.0,
        constrained=True,
    ))
    laws, gs = [], []
    for sys, _ in schedule:
        x = np.zeros(sys.n_x)
        for y in (0.0, 0.2, 0.4):
            ctl.control(sys, x, np.array([y]))
            law, rows = ctl._cached[1:]
            laws.append(law)
            g, _ = build_inequalities(rows, np.zeros(6), ctl.u_prev)
            gs.append(g)
    assert ctl.infeasible_fallbacks == 0
    # the input cap binds, so every update reached the dual iteration
    assert len(duals) == 6
    assert [id(law) for law in matrix_solves] == [id(laws[0]), id(laws[3])]
    assert all(g is gs[0] for g in gs[:3]) and all(g is gs[3] for g in gs[3:])
    assert not gs[0].flags.writeable


def test_cached_dual_matches_a_fresh_build():
    """A solve that reuses the law's dual matrices returns what a law
    built afresh for the same bounds returns, bit for bit."""
    law, rng = make_law(seed=31, n_steps=6)
    n_u, n_y = law.pred.n_u, law.pred.n_y
    rows = BoundRows(law.pred, u_min=-0.2, u_max=0.2)
    u_prev = np.zeros(n_u)
    states = [random_free(law, rng, u_prev) for _ in range(3)]
    for free in states:
        reused = solve_constrained(law, rows, free, u_prev)
        assert reused[1].any()  # a bound is active
        fresh_law = AnalyticalLaw(law.pred, law.q, law.r, law.y_ref, law.b)
        fresh_rows = BoundRows(law.pred, u_min=-0.2, u_max=0.2)
        fresh = solve_constrained(fresh_law, fresh_rows, free, u_prev)
        for a, b in zip(reused, fresh):
            assert np.array_equal(a, b)


def test_pinned_inputs_give_zero_move():
    law, rng = make_law(seed=23)
    free = random_free(law, rng)
    rows = BoundRows(law.pred, u_min=0.0, u_max=0.0)
    d, _ = solve_constrained(law, rows, free, np.zeros(law.pred.n_u))
    d_free = np.abs(law.solve(free)).max()
    assert np.abs(d).max() < 1e-3 * max(d_free, 1.0)


def test_inconsistent_bounds_rejected():
    with pytest.raises(InfeasibleProblem, match="lower bound"):
        BoundRows(make_law()[0].pred, u_min=1.0, u_max=0.0)
    with pytest.raises(InfeasibleProblem, match="lower bound"):
        BoundRows(make_law()[0].pred, y_min=[0.0, 2.0], y_max=1.0)


# ---------------------------------------------------------------------
# Receding-horizon wrapper
# ---------------------------------------------------------------------


def test_controller_clips_and_integrates(three_node):
    net, profile = three_node
    sys = build_schedule(profile, StateIndexMap(net, 10))[0][0]
    ctl = RecedingHorizonController(ControlConfig(
        sensors=("J2",), horizon=10, y_ref=2.0, q=1.0, r=1e-6, u_max=50.0,
    ))
    x = np.zeros(sys.n_x)
    assert sys.booster.booster_nodes == ("J2",)  # one input, the J2 booster
    u1 = ctl.control(sys, x, np.array([0.0]))
    assert 0.0 <= u1.max() <= 50.0
    assert u1[0] == 50.0  # demand for chlorine, capped
    u2 = ctl.control(sys, x, np.array([0.0]))
    assert u2[0] == 50.0  # still below target: hold cap
    # measured above the setpoint: back off
    u3 = ctl.control(sys, x, np.array([5.0]))
    assert u3[0] < 50.0


def test_controller_on_target_holds_dose(three_node):
    # measurement at the setpoint with no chlorine price: no move requested
    net, profile = three_node
    sys = build_schedule(profile, StateIndexMap(net, 10))[0][0]
    ctl = RecedingHorizonController(ControlConfig(
        sensors=("J2",), horizon=10, y_ref=2.0, q=1.0, r=1e-6,
        price_per_mg=0.0, u_max=50.0,
    ))
    u = ctl.control(sys, np.zeros(sys.n_x), np.array([2.0]))
    assert np.abs(u).max() < 1e-8


def test_controller_rejects_wrong_measurement_length(three_node):
    net, profile = three_node
    sys = build_schedule(profile, StateIndexMap(net, 10))[0][0]
    ctl = RecedingHorizonController(ControlConfig(
        sensors=("J2",), horizon=5, y_ref=2.0,
    ))
    with pytest.raises(SolverError, match="measurement"):
        ctl.control(sys, np.zeros(sys.n_x), np.zeros(2))


def test_controller_keeps_only_the_current_period_law(three_node):
    net, profile = three_node
    schedule = build_schedule(profile, StateIndexMap(net, 10))[:2]
    ctl = RecedingHorizonController(ControlConfig(
        sensors=("J2",), horizon=5, y_ref=2.0,
    ))
    laws = []
    for sys, _ in schedule:
        for _ in range(2):
            ctl.control(sys, np.zeros(sys.n_x), np.zeros(1))
            laws.append(ctl._cached[1])
    assert laws[0] is laws[1]  # reused within a period
    assert laws[2] is laws[3] and laws[2] is not laws[0]
    period_id, law, rows = ctl._cached  # one law held, the latest
    assert period_id == 1 and law is laws[3]


# ---------------------------------------------------------------------
# Size accounting
# ---------------------------------------------------------------------


def test_count_variables_scaling(three_node):
    net, _ = three_node
    out = count_variables(StateIndexMap(net, 4), 10)
    # 3 nodes, 4 segments + 1 pump = 5 link states
    assert out["lp_variables"] == 10 * (2 * 3 + 5)
    assert out["qp_variables"] == 10 * 3
    assert 0 < out["reduction"] < 1
    assert count_variables(StateIndexMap(net, [4] * net.n_p), 10) == out
    for horizon in (0, -2):
        with pytest.raises(SolverError, match="at least 1 step"):
            count_variables(StateIndexMap(net, 4), horizon)
