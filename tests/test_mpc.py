import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from wqmpc.dynamics import build_schedule
from wqmpc.errors import InfeasibleProblem, ModelError, SolverError
from wqmpc.mpc import (
    AnalyticalLaw,
    AugmentedSystem,
    BoundSet,
    ControlConfig,
    CostWeights,
    PredictionOperator,
    RecedingHorizonController,
    build_augmented,
    count_variables,
    solve_constrained,
)


def random_aug(rng, n_x=6, n_y=2, n_u=3):
    a = rng.uniform(-1.0, 1.0, (n_x, n_x))
    a *= 0.9 / max(np.abs(np.linalg.eigvals(a)).max(), 1e-6)
    b = rng.uniform(-1.0, 1.0, (n_x, n_u))
    c = rng.uniform(-1.0, 1.0, (n_y, n_x))
    phi = np.block([
        [a, np.zeros((n_x, n_y))],
        [c @ a, np.eye(n_y)],
    ])
    gamma = np.vstack([b, c @ b])
    return AugmentedSystem(
        phi=sp.csr_matrix(phi),
        gamma=sp.csr_matrix(gamma),
        c_meas=sp.csr_matrix(c),
        n_x=n_x, n_y=n_y, n_u=n_u,
        sensor_labels=tuple(f"s{i}" for i in range(n_y)),
        dt_s=1.0,
    )


def rollout(aug, x_a0, d):
    """Step the augmented model and stack the sensor outputs."""
    x = x_a0.copy()
    ys = []
    phi = aug.phi.toarray()
    gamma = aug.gamma.toarray()
    for k in range(d.shape[0]):
        x = phi @ x + gamma @ d[k]
        ys.append(x[aug.n_x:].copy())
    return np.array(ys)


# ---------------------------------------------------------------------
# Augmented model
# ---------------------------------------------------------------------


def test_build_augmented_blocks(three_node):
    net, profile = three_node
    sys = build_schedule(net, profile, 10)[0][0]
    aug = build_augmented(sys, ["J2", "P23[9]"])
    n_x, n_y = sys.n_x, 2
    phi = aug.phi.toarray()
    assert np.allclose(phi[:n_x, :n_x], sys.a.toarray())
    assert np.allclose(phi[:n_x, n_x:], 0.0)
    assert np.allclose(phi[n_x:, n_x:], np.eye(n_y))
    assert np.allclose(phi[n_x:, :n_x], (aug.c_meas @ sys.a).toarray())
    assert np.allclose(aug.gamma.toarray()[n_x:], (aug.c_meas @ sys.b).toarray())


def test_build_augmented_sensor_errors(three_node):
    net, profile = three_node
    sys = build_schedule(net, profile, 10)[0][0]
    with pytest.raises(SolverError, match="at least one sensor"):
        build_augmented(sys, [])
    with pytest.raises(Exception, match="unknown entity"):
        build_augmented(sys, ["NOPE"])


def test_bare_pipe_sensor_measures_last_segment(three_node):
    net, profile = three_node
    sys = build_schedule(net, profile, 10)[0][0]
    aug = build_augmented(sys, ["P23"])
    col = aug.c_meas.indices[0]
    assert col == sys.index_map.index("P23", 9)


# ---------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------


def test_prediction_matches_rollout():
    rng = np.random.default_rng(7)
    aug = random_aug(rng)
    pred = PredictionOperator(aug, 12)
    x0 = rng.normal(size=aug.n_x + aug.n_y)
    d = rng.normal(size=(12, aug.n_u))
    predicted = pred.free_response(x0) + pred.apply_z(d)
    assert np.allclose(predicted, rollout(aug, x0, d), rtol=0, atol=1e-12)


def test_block_operators_match_dense_z():
    rng = np.random.default_rng(11)
    aug = random_aug(rng, n_x=5, n_y=3, n_u=2)
    pred = PredictionOperator(aug, 9)
    z = pred.dense_z()
    d = rng.normal(size=(9, 2))
    r = rng.normal(size=(9, 3))
    assert np.allclose(pred.apply_z(d).reshape(-1), z @ d.reshape(-1))
    assert np.allclose(pred.apply_zt(r).reshape(-1), z.T @ r.reshape(-1))


@pytest.mark.parametrize("n, n_y, n_u", [(1, 1, 1), (1, 3, 2), (4, 2, 3), (17, 3, 3)])
def test_dense_z_matches_block_loop(n, n_y, n_u):
    rng = np.random.default_rng(n)
    pred = PredictionOperator(random_aug(rng, n_x=5, n_y=n_y, n_u=n_u), n)
    pred.g_blocks[0, 0, 0] = -0.0  # a negative zero must be copied as is
    expect = np.zeros((n * n_y, n * n_u))
    for i in range(n):
        for j in range(i + 1):
            expect[i * n_y:(i + 1) * n_y, j * n_u:(j + 1) * n_u] = (
                pred.g_blocks[i - j]
            )
    z = pred.dense_z()
    assert z.shape == expect.shape
    assert np.array_equal(z, expect)
    assert np.array_equal(np.signbit(z), np.signbit(expect))


def test_scalar_integrator_blocks():
    # x+ = x + d, y = x: the step-response blocks are 1, 2, 3, ...
    aug = AugmentedSystem(
        phi=sp.csr_matrix(np.array([[1.0, 0.0], [1.0, 1.0]])),
        gamma=sp.csr_matrix(np.array([[1.0], [1.0]])),
        c_meas=sp.csr_matrix(np.array([[1.0]])),
        n_x=1, n_y=1, n_u=1, sensor_labels=("s0",), dt_s=1.0,
    )
    pred = PredictionOperator(aug, 3)
    expect = np.array([
        [1.0, 0.0, 0.0],
        [2.0, 1.0, 0.0],
        [3.0, 2.0, 1.0],
    ])
    assert np.allclose(pred.dense_z(), expect)


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
    weights = CostWeights(q=q, r=r, y_ref=rng.uniform(1.0, 2.0, aug.n_y), b=b)
    return AnalyticalLaw(pred, weights), rng


def test_analytical_law_stationarity():
    law, rng = make_law(seed=3, b_scale=0.1)
    x_a = rng.normal(size=law.pred.aug.n_x + law.pred.aug.n_y)
    d = law.solve(x_a).reshape(-1)
    f = law.gradient_offset(x_a)
    z = law.pred.dense_z()
    h = law.weights.q * z.T @ z + law.weights.r * np.eye(z.shape[1])
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
    law2 = AnalyticalLaw(
        law1.pred,
        CostWeights(q=10.0, r=5.0, y_ref=law1.weights.y_ref,
                    b=law1.weights.b),
    )
    x_a = rng.normal(size=law1.pred.aug.n_x + law1.pred.aug.n_y)
    assert np.allclose(law1.solve(x_a), law2.solve(x_a), atol=1e-10)


def test_weights_must_be_positive():
    with pytest.raises(SolverError, match="positive"):
        CostWeights.build(2, 3, y_ref=1.0, q=0.0)


# ---------------------------------------------------------------------
# Constrained solve
# ---------------------------------------------------------------------


def test_constrained_equals_analytical_when_inactive():
    law, rng = make_law(seed=9)
    x_a = 0.01 * rng.normal(size=law.pred.aug.n_x + law.pred.aug.n_y)
    bounds = BoundSet.build(law.pred.n_u, law.pred.n_y,
                            u_min=-1e6, u_max=1e6, y_min=-1e6, y_max=1e6)
    d, lam = solve_constrained(law, x_a, np.zeros(law.pred.n_u), bounds)
    assert np.allclose(d, law.solve(x_a), atol=1e-6)
    assert np.all(lam == 0) or lam.size == 0


def test_constrained_respects_active_bounds():
    law, rng = make_law(seed=13)
    x_a = rng.normal(size=law.pred.aug.n_x + law.pred.aug.n_y)
    u_prev = np.zeros(law.pred.n_u)
    free = law.solve(x_a)
    u_traj = u_prev + np.cumsum(free, axis=0)
    cap = 0.5 * np.abs(u_traj).max()
    bounds = BoundSet.build(law.pred.n_u, law.pred.n_y, u_min=-cap, u_max=cap)
    d, lam = solve_constrained(law, x_a, u_prev, bounds)
    u_c = u_prev + np.cumsum(d, axis=0)
    assert u_c.max() <= cap + 1e-6
    assert u_c.min() >= -cap - 1e-6
    # KKT stationarity with the returned multipliers
    from wqmpc.mpc import build_inequalities
    g, h = build_inequalities(law, bounds, x_a, u_prev)
    f = law.gradient_offset(x_a)
    z = law.pred.dense_z()
    hess = law.weights.q * z.T @ z + law.weights.r * np.eye(z.shape[1])
    resid = hess @ d.reshape(-1) + f + g.T @ lam
    assert np.abs(resid).max() < 1e-5
    assert lam.min() >= 0


@pytest.mark.parametrize("seed", range(30))
def test_constrained_matches_slsqp_oracle(seed):
    from scipy.optimize import minimize
    from wqmpc.mpc import build_inequalities

    law, rng = make_law(seed=seed, n_steps=6)
    x_a = rng.normal(size=law.pred.aug.n_x + law.pred.aug.n_y)
    u_prev = np.zeros(law.pred.n_u)
    free = law.solve(x_a)
    cap = 0.5 * np.abs(u_prev + np.cumsum(free, axis=0)).max()
    bounds = BoundSet.build(law.pred.n_u, law.pred.n_y, u_min=-cap, u_max=cap)
    d, _ = solve_constrained(law, x_a, u_prev, bounds)

    z = law.pred.dense_z()
    hess = law.weights.q * z.T @ z + law.weights.r * np.eye(z.shape[1])
    f = law.gradient_offset(x_a)
    g, h = build_inequalities(law, bounds, x_a, u_prev)

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
    bounds = BoundSet.build(law.pred.n_u, law.pred.n_y,
                            u_min=0.0, u_max=0.0, y_min=1e6)
    with pytest.raises(InfeasibleProblem):
        solve_constrained(law, np.zeros(law.pred.aug.n_x + law.pred.aug.n_y),
                          np.zeros(law.pred.n_u), bounds)


def test_inequality_row_counts():
    from wqmpc.mpc import build_inequalities

    law, rng = make_law(seed=19, n_steps=6)
    n, ny = law.pred.n_u, law.pred.n_y
    bounds = BoundSet.build(n, ny, u_min=0.0, u_max=1.0, y_min=0.1, y_max=3.0)
    g, h = build_inequalities(law, bounds, np.zeros(law.pred.aug.n_x + ny),
                              np.zeros(n))
    assert g.shape == (2 * 6 * ny + 2 * 6 * n, 6 * n)
    assert h.shape == (g.shape[0],)
    # dropping the output bounds removes exactly their rows
    g2, _ = build_inequalities(
        law, BoundSet.build(n, ny, u_min=0.0, u_max=1.0),
        np.zeros(law.pred.aug.n_x + ny), np.zeros(n))
    assert g2.shape[0] == 2 * 6 * n


def test_inequality_slacks_match_predicted_trajectory():
    from wqmpc.mpc import build_inequalities

    law, rng = make_law(seed=29, n_steps=7)
    n_u, n_y = law.pred.n_u, law.pred.n_y
    x_a = rng.normal(size=law.pred.aug.n_x + n_y)
    u_prev = rng.normal(size=n_u)
    d = rng.normal(size=(7, n_u))
    bounds = BoundSet.build(n_u, n_y, u_min=-2.0, u_max=3.0,
                            y_min=-1.0, y_max=4.0)
    g, h = build_inequalities(law, bounds, x_a, u_prev)
    slack = h - g @ d.reshape(-1)
    # rows come as y >= y_min, y <= y_max, u >= u_min, u <= u_max
    y = (law.pred.free_response(x_a) + law.pred.apply_z(d)).reshape(-1)
    u = (u_prev + np.cumsum(d, axis=0)).reshape(-1)
    expected = np.concatenate([y + 1.0, 4.0 - y, u + 2.0, 3.0 - u])
    assert np.allclose(slack, expected, rtol=0, atol=1e-10)


def test_pinned_inputs_give_zero_move():
    law, rng = make_law(seed=23)
    x_a = rng.normal(size=law.pred.aug.n_x + law.pred.aug.n_y)
    bounds = BoundSet.build(law.pred.n_u, law.pred.n_y, u_min=0.0, u_max=0.0)
    d, _ = solve_constrained(law, x_a, np.zeros(law.pred.n_u), bounds)
    free = np.abs(law.solve(x_a)).max()
    assert np.abs(d).max() < 1e-3 * max(free, 1.0)


def test_inconsistent_bounds_rejected():
    with pytest.raises(InfeasibleProblem, match="lower bound"):
        BoundSet.build(2, 2, u_min=1.0, u_max=0.0)


# ---------------------------------------------------------------------
# Receding-horizon wrapper
# ---------------------------------------------------------------------


def test_controller_clips_and_integrates(three_node):
    net, profile = three_node
    sys = build_schedule(net, profile, 10)[0][0]
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
    sys = build_schedule(net, profile, 10)[0][0]
    ctl = RecedingHorizonController(ControlConfig(
        sensors=("J2",), horizon=10, y_ref=2.0, q=1.0, r=1e-6,
        price_per_mg=0.0, u_max=50.0,
    ))
    u = ctl.control(sys, np.zeros(sys.n_x), np.array([2.0]))
    assert np.abs(u).max() < 1e-8


def test_controller_rejects_wrong_measurement_length(three_node):
    net, profile = three_node
    sys = build_schedule(net, profile, 10)[0][0]
    ctl = RecedingHorizonController(ControlConfig(
        sensors=("J2",), horizon=5, y_ref=2.0,
    ))
    with pytest.raises(SolverError, match="measurement"):
        ctl.control(sys, np.zeros(sys.n_x), np.zeros(2))


def test_controller_keeps_only_the_current_period_law(three_node):
    net, profile = three_node
    schedule = build_schedule(net, profile, 10)[:2]
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
    period_id, law, bounds = ctl._cached  # one law held, the latest
    assert period_id == 1 and law is laws[3]


# ---------------------------------------------------------------------
# Size accounting
# ---------------------------------------------------------------------


def test_count_variables_scaling(three_node):
    net, _ = three_node
    out = count_variables(net, 10, 4)
    # 3 nodes, 4 segments + 1 pump = 5 link states
    assert out["lp_variables"] == 10 * (2 * 3 + 5)
    assert out["qp_variables"] == 10 * 3
    assert 0 < out["reduction"] < 1
    assert count_variables(net, 10, [4] * net.n_p) == out
    for bad in ([4] * (net.n_p + 1), [0] * net.n_p):
        with pytest.raises(ModelError, match="segment counts"):
            count_variables(net, 10, bad)
