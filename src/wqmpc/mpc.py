"""Receding-horizon booster-injection control.

The controller works on an augmented incremental model: the state is
[Δx(t); y(t)] with Δx the one-step state difference, so the decision
variables are injection increments Δu and integral action comes for
free.  Predicted sensor trajectories are affine in the stacked
increments, y = W x_a + Z Δu, and the tracking objective

    ½ (y_ref - y)' Q (y_ref - y) + ½ Δu' R Δu + b' Δu

has the closed-form minimizer Δu* = (Z'QZ + R)^-1 (Z'Q(y_ref - W x_a) - b).
W and Z are built once per hydraulic period.  A sensor reads only the
states that can reach it within N steps, so W is stored densely on
those columns alone (its support), not on all n_x + n_y of them.  Z is
dense and block lower-triangular Toeplitz in the impulse-response blocks
G_k = C_a Φ_a^k Γ_a.  The condensed problem has one variable per booster
and horizon step, N·n_b, however many states the network has, so the
Hessian q Z'Z + r I is inverted densely once per law, through its
Cholesky factor, and every solve is a product with W on its support, a
product with Z' and a product with the cached H^-1: the unconstrained
receding-horizon law is a fixed linear map, computed offline once per
period (Bemporad, Morari, Dua & Pistikopoulos, Automatica 2002).

One function, ``build_law``, turns a period's system and a
``ControlConfig`` into the law: the weights q, r, y_ref and the
injection price are the law's constructor arguments, and the input and
output bounds are those of its ``BoundRows``, built with it when the
controller is constrained.  Bound constraints are handled by an
accelerated projected-gradient method on the dual, whose matrices the
bound rows build on first use.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InfeasibleProblem, SolverError
from .dynamics import StateIndexMap, StateSpaceSystem, state_layout
from .network import WaterNetwork
from .sparse import CSR, vstack

DUAL_MAX_ITER = 2000  # dual projected-gradient iterations per solve
DUAL_TOL = 1e-9       # stopping tolerance, relative to the largest bound


# ---------------------------------------------------------------------
# Augmented model
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class AugmentedSystem:
    """Incremental dynamics with integrated outputs.

    x_a = [Δx; y];  x_a(t+1) = phi x_a(t) + gamma Δu(t);  y = c_a x_a.
    """

    phi: CSR
    gamma: CSR
    n_x: int
    n_y: int
    n_u: int


def build_augmented(sys: StateSpaceSystem, sensors: Sequence[str]) -> AugmentedSystem:
    """Attach sensor rows to a one-step system.

    Sensor specs are read by ``StateIndexMap.sensor_index``: a bare pipe
    id measures its last declared segment, ``id[k]`` a specific one.
    """
    if not sensors:
        raise SolverError("at least one sensor is required")
    n_y, n_x = len(sensors), sys.n_x
    n_a = n_x + n_y
    cols = [sys.index_map.sensor_index(spec) for spec in sensors]
    y = np.arange(n_y)
    c = CSR.from_triplets((n_y, n_x), y, cols, np.ones(n_y))
    ca = c @ sys.a
    phi = vstack(
        CSR(sys.a.indptr, sys.a.indices, sys.a.data, (n_x, n_a)),
        CSR.from_triplets(
            (n_y, n_a),
            np.concatenate([ca.row_ids(), y]),
            np.concatenate([ca.indices, n_x + y]),
            np.concatenate([ca.data, np.ones(n_y)]),
        ),
    )
    gamma = vstack(sys.b, c @ sys.b)
    return AugmentedSystem(phi=phi, gamma=gamma, n_x=sys.n_x, n_y=n_y, n_u=sys.n_u)


# ---------------------------------------------------------------------
# Prediction operators
# ---------------------------------------------------------------------


class PredictionOperator:
    """Stacked N-step predictor for the augmented model, y = W x_a + z Δu.

    Block i of W is C_a Φ_a^(i+1).  A sensor reads only the states that
    reach it within N steps, so W is zero outside a few columns: ``w``
    (N*n_y, len(support)) holds W's columns ``support``, the sorted union
    of the nonzero columns of its blocks, and W is exactly zero elsewhere.
    ``z`` (N*n_y, N*n_u) maps the stacked increments to the forced
    response: block (i, j) is C_a Φ_a^(i-j) Γ_a on and below the diagonal
    and zero above it.

    Each sensor's row is carried densely on its own ball, the columns a
    walk of at most N steps through Φ_a reaches from it, through Φ_a
    restricted to that ball.  Every entry of a block is summed from 0.0
    over the ball in ascending row order; the extra terms are products
    with zeros, so each block is bit for bit the sparse product of the
    previous one with Φ_a.
    """

    def __init__(self, aug: AugmentedSystem, n_steps: int):
        if n_steps < 1:
            raise SolverError("prediction horizon must be at least 1 step")
        self.aug = aug
        self.n_steps = n_steps
        n, ny, nu = n_steps, aug.n_y, aug.n_u
        phi, gamma = aug.phi, aug.gamma
        starts = aug.n_x + np.arange(ny)  # each sensor's row of C_a
        ball = _balls(phi, starts, n)
        # position of each (sensor, column) of a ball in the stacked rows
        pos = np.cumsum(ball.reshape(-1)).reshape(ball.shape) - 1
        sensor, col = np.nonzero(ball)  # sensor-major, columns ascending
        size = col.size
        owner, to, val = phi.row_entries(col)
        inside = ball[sensor[owner], to]
        src, dst, val = owner[inside], pos[sensor[owner], to][inside], val[inside]
        f = np.zeros(size)
        f[pos[np.arange(ny), starts]] = 1.0
        blocks = np.empty((n, size))  # row i: each sensor's C_a Φ_a^(i+1)
        for i in range(n):
            f = np.bincount(dst, weights=f[src] * val, minlength=size)
            blocks[i] = f
        nonzero = blocks.any(axis=0)
        self.support = _unique(col[nonzero])
        self.w = np.zeros((n * ny, self.support.size))
        for s in range(ny):
            keep = nonzero & (sensor == s)
            self.w[s::ny, np.searchsorted(self.support, col[keep])] = blocks[:, keep]
        # g[k] = C_a Φ_a^k Γ_a for k < N, summed over Γ_a's rows in
        # ascending order; g[N] stays zero and fills the blocks above
        # the diagonal
        g = np.zeros((n + 1, ny, nu))
        rows, cols, vals = gamma.row_entries(starts)  # Γ_a's sensor rows
        g[0, rows, cols] = vals
        g_row = gamma.row_ids()
        for s in range(ny):
            reached = ball[s, g_row]
            for j, u, v in zip(g_row[reached], gamma.indices[reached],
                               gamma.data[reached]):
                g[1:n, s, u] += blocks[:n - 1, pos[s, j]] * v
        lag = np.subtract.outer(np.arange(n), np.arange(n))
        lag[lag < 0] = n
        self.z = g[lag].transpose(0, 2, 1, 3).reshape(n * ny, n * nu)

    @property
    def n_y(self) -> int:
        return self.aug.n_y

    @property
    def n_u(self) -> int:
        return self.aug.n_u

    def free_response(self, x_a: np.ndarray) -> np.ndarray:
        """(N*n_y,) stacked sensor forecast under zero increments."""
        return self.w @ x_a[self.support]


def _balls(phi: CSR, starts: np.ndarray, n: int) -> np.ndarray:
    """(len(starts), n_cols) mask of the columns that a walk of at most
    ``n`` steps through ``phi`` reaches from each start row."""
    ball = np.zeros((len(starts), phi.shape[1]), dtype=bool)
    ball[np.arange(len(starts)), starts] = True
    who, at = np.arange(len(starts)), np.asarray(starts)
    for _ in range(n):
        owner, to, _ = phi.row_entries(at)
        who = who[owner]
        fresh = ~ball[who, to]
        if not fresh.any():
            break
        key = _unique(who[fresh] * phi.shape[1] + to[fresh])
        who, at = np.divmod(key, phi.shape[1])
        ball[who, at] = True
    return ball


def _unique(a: np.ndarray) -> np.ndarray:
    """The sorted distinct values of an integer array, as ``np.unique``
    gives them; NumPy 2's ``np.unique`` imports ``numpy.ma`` on first
    use, which no command otherwise needs."""
    a = np.sort(a)
    keep = np.empty(a.size, dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


# ---------------------------------------------------------------------
# Analytical law
# ---------------------------------------------------------------------


class AnalyticalLaw:
    """Unconstrained minimizer with the inverse Hessian H^-1, for
    H = q Z'Z + r I, cached at build time.

    ``q`` and ``r`` are scalar weights, ``y_ref`` (n_y,) the setpoint and
    ``b`` (n_u,) the per-step linear cost of each input increment.  H^-1
    is formed from the Cholesky factor L as (L^-1)' L^-1, which is
    exactly symmetric; a Hessian that is not finite or not positive
    definite is refused.  The Hessian, the gradient and the
    bound-constrained solve's output rows all read the predictor's one
    dense Z, ``pred.z``.
    """

    dense = True  # read by the benchmark's ``mpc.dense_path`` gauge

    def __init__(
        self, pred: PredictionOperator, q: float, r: float,
        y_ref: np.ndarray, b: np.ndarray,
    ):
        self.pred = pred
        self.q, self.r, self.y_ref, self.b = q, r, y_ref, b
        z = pred.z
        h = q * (z.T @ z) + r * np.eye(z.shape[1])
        if not np.isfinite(h).all():
            raise SolverError("the MPC Hessian has non-finite entries")
        try:
            l_inv = np.linalg.inv(np.linalg.cholesky(h))
        except np.linalg.LinAlgError:
            raise SolverError("the MPC Hessian is not positive definite") from None
        self._h_inv = l_inv.T @ l_inv
        self._h_inv.flags.writeable = False

    def solve_h(self, f: np.ndarray) -> np.ndarray:
        """x = H^-1 f for stacked f of shape (N*n_u,) or (N*n_u, k).

        A matrix is applied one column at a time, so each column of the
        result equals the solve of that column alone, bit for bit (one
        matrix product would round differently).
        """
        f = np.asarray(f, dtype=float)
        if not np.isfinite(f).all():
            raise SolverError("H^-1 right-hand side has non-finite entries")
        if f.ndim == 1:
            return self._h_inv @ f
        x = np.empty(f.shape)
        for k in range(f.shape[1]):
            x[:, k] = self._h_inv @ f[:, k]
        return x

    def gradient_offset(self, x_a: np.ndarray) -> np.ndarray:
        """Linear term f of the QP in Δu: ½d'Hd + f'd."""
        n = self.pred.n_steps
        resid = np.tile(self.y_ref, n) - self.pred.free_response(x_a)
        return -self.q * (self.pred.z.T @ resid) + np.tile(self.b, n)

    def solve(self, x_a: np.ndarray) -> np.ndarray:
        """(N, n_u) optimal increments, unconstrained."""
        f = self.gradient_offset(x_a)
        return self.solve_h(-f).reshape(self.pred.n_steps, self.pred.n_u)


# ---------------------------------------------------------------------
# Bound-constrained solve
# ---------------------------------------------------------------------


class BoundRows:
    """The finite bound rows G d <= h of one predictor and its bounds.

    Each bound is a scalar or one value per input (``u_*``) or output
    (``y_*``); use +-inf for none.  G and the dual solve's H^-1 G',
    G H^-1 G' and step size depend only on the law and the bounds, so G
    is built here and the dual pieces on first use; only h moves with
    the state.
    """

    def __init__(
        self, pred: PredictionOperator,
        u_min=0.0, u_max=np.inf, y_min=-np.inf, y_max=np.inf,
    ):
        self.pred = pred
        n, nu, ny = pred.n_steps, pred.n_u, pred.n_y
        u_min, u_max = (np.broadcast_to(np.asarray(v, dtype=float), (nu,))
                        for v in (u_min, u_max))
        y_min, y_max = (np.broadcast_to(np.asarray(v, dtype=float), (ny,))
                        for v in (y_min, y_max))
        if np.any(u_min > u_max) or np.any(y_min > y_max):
            raise InfeasibleProblem("lower bound exceeds upper bound")
        # u_k = u_prev + sum_{j<=k} d_j  ->  cumulative-sum map over blocks
        h2 = np.kron(np.tril(np.ones((n, n))), np.eye(nu))
        rows = []
        self._parts = []  # (sign, finite mask, finite bounds, bounds y?)
        for sign, bound, mat, on_y in (
            (-1.0, np.tile(y_min, n), pred.z, True),
            (+1.0, np.tile(y_max, n), pred.z, True),
            (-1.0, np.tile(u_min, n), h2, False),
            (+1.0, np.tile(u_max, n), h2, False),
        ):
            finite = np.isfinite(bound)
            if not finite.any():
                continue
            rows.append(sign * mat[finite])
            self._parts.append((sign, finite, bound[finite], on_y))
        self.g = np.vstack(rows) if rows else np.zeros((0, n * nu))
        self.g.flags.writeable = False
        self._dual: tuple[np.ndarray, np.ndarray, float] | None = None

    def rhs(self, x_a: np.ndarray, u_prev: np.ndarray) -> np.ndarray:
        """h for the augmented state ``x_a`` and the held input ``u_prev``."""
        if not self._parts:
            return np.zeros(0)
        free = self.pred.free_response(x_a)
        u_base = np.tile(u_prev, self.pred.n_steps)
        rhs = []
        for sign, finite, bound, on_y in self._parts:
            base = (free if on_y else u_base)[finite]
            rhs.append(sign * (bound - base) if sign > 0 else (base - bound))
        return np.concatenate(rhs)

    def dual(self, solve_h) -> tuple[np.ndarray, np.ndarray, float]:
        """(H^-1 G', G H^-1 G', 1 / ||G H^-1 G'||_2), built on first use
        with ``solve_h``, the law's x = H^-1 f."""
        if self._dual is None:
            hinv_gt = solve_h(self.g.T)
            m = self.g @ hinv_gt
            hinv_gt.flags.writeable = m.flags.writeable = False
            self._dual = (hinv_gt, m, 1.0 / max(np.linalg.norm(m, 2), 1e-12))
        return self._dual


def build_inequalities(
    rows: BoundRows, x_a: np.ndarray, u_prev: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Finite bound rows as G d <= h; G is ``rows.g``, read-only."""
    return rows.g, rows.rhs(x_a, u_prev)


def solve_constrained(
    law: AnalyticalLaw,
    rows: BoundRows,
    x_a: np.ndarray,
    u_prev: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Bound-constrained increments via accelerated dual projection.

    The dual of min ½d'Hd + f'd s.t. Gd <= h is maximized by projected
    Nesterov steps with gradient adaptive restart (O'Donoghue & Candès,
    2015): the momentum is dropped whenever the step opposes the dual
    gradient.  Iteration stops once both the primal violation and the
    complementarity max|λ·(Gd - h)| are within ``DUAL_TOL`` (scaled by
    the largest bound), or after ``DUAL_MAX_ITER`` iterations.

    Returns (increments (N, n_u), multipliers).  Raises
    InfeasibleProblem when no iterate approaches feasibility.
    """
    g, h = build_inequalities(rows, x_a, u_prev)
    f = law.gradient_offset(x_a)
    n, nu = law.pred.n_steps, law.pred.n_u
    d0 = law.solve_h(-f)  # unconstrained optimum
    if g.shape[0] == 0:
        return d0.reshape(n, nu), np.zeros(0)
    scale = DUAL_TOL * max(1.0, np.abs(h).max())
    if np.all(g @ d0 - h <= scale):
        return d0.reshape(n, nu), np.zeros(g.shape[0])

    # d(λ) = d0 - H^-1 G'λ, so the dual gradient G d(λ) - h is affine in λ
    hinv_gt, m, step = rows.dual(law.solve_h)
    resid0 = g @ d0 - h
    lam = np.zeros(g.shape[0])
    mom = lam.copy()
    t_acc = 1.0
    best_viol = np.inf
    for _ in range(DUAL_MAX_ITER):
        grad = resid0 - m @ mom
        lam_next = np.maximum(0.0, mom + step * grad)
        if grad @ (lam_next - lam) < 0.0:  # gradient restart
            t_next, mom = 1.0, lam_next
        else:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_acc * t_acc))
            mom = lam_next + ((t_acc - 1.0) / t_next) * (lam_next - lam)
        lam, t_acc = lam_next, t_next
        resid = resid0 - m @ lam
        viol = max(float(resid.max()), 0.0)
        best_viol = min(best_viol, viol)
        if viol <= scale and np.abs(lam * resid).max() <= scale:
            break
    else:
        if best_viol > 1e-3 * max(1.0, np.abs(h).max()):
            raise InfeasibleProblem(
                f"dual iteration stalled with constraint violation {best_viol:.3e}"
            )
    return (d0 - hinv_gt @ lam).reshape(n, nu), lam


# ---------------------------------------------------------------------
# Receding-horizon wrapper
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class ControlConfig:
    """Controller settings.  ``constrained`` enforces the input and output
    bounds by the dual solve, at any horizon; an infeasible step falls
    back to the unconstrained law and is counted.  ``ScenarioConfig``
    extends it with a run's own fields, so a scenario is passed to the
    controller as it is."""

    sensors: tuple[str, ...]
    horizon: int
    y_ref: float | Sequence[float]
    q: float = 1.0
    r: float = 1.0
    price_per_mg: float = 0.0
    u_max: float = np.inf
    y_min: float = -np.inf
    y_max: float = np.inf
    constrained: bool = False


def build_law(
    sys: StateSpaceSystem, config: ControlConfig
) -> tuple[AnalyticalLaw, BoundRows | None]:
    """The law of one period's system under ``config``, and its bound
    rows when ``config.constrained`` (otherwise None).

    The linear cost prices the chlorine mass of one step per unit
    increment: price ($/mg) * flow (L/s) * 1000 * dt (s).
    """
    if sys.n_u == 0:
        raise SolverError(
            "MPC needs at least one booster, but no node has a "
            "positive booster flow"
        )
    aug = build_augmented(sys, config.sensors)
    q, r, price = config.q, config.r, config.price_per_mg
    ref = np.broadcast_to(np.asarray(config.y_ref, dtype=float), (aug.n_y,))
    if not (np.isfinite([q, r, price]).all() and np.isfinite(ref).all()):
        raise SolverError("q, r, price_per_mg and y_ref must be finite")
    if q <= 0 or r <= 0:
        raise SolverError("weights q and r must be positive")
    pred = PredictionOperator(aug, config.horizon)
    b = price * sys.booster_flows * 1000.0 * sys.dt_s
    law = AnalyticalLaw(pred, q, r, ref, b)
    rows = None
    if config.constrained:
        rows = BoundRows(pred, 0.0, config.u_max, config.y_min, config.y_max)
    return law, rows


class RecedingHorizonController:
    """Stateful controller: keeps the law and bound rows of the current
    hydraulic period, carries the previous input, clips applied inputs
    to their physical range."""

    def __init__(self, config: ControlConfig):
        self.config = config
        self._cached: tuple[int, AnalyticalLaw, BoundRows | None] | None = None
        self.u_prev: np.ndarray | None = None
        self.infeasible_fallbacks = 0
        self.law_build_s = 0.0  # wall time spent building laws

    def control(
        self, sys: StateSpaceSystem, dx: np.ndarray, y_meas: np.ndarray
    ) -> np.ndarray:
        """One controller update from the model's one-step state change
        ``dx`` = x(t) - x(t - dt) and the measured outputs; returns the
        input to hold until the next control instant."""
        if self._cached is None or self._cached[0] != sys.period_id:
            t0 = time.perf_counter()
            self._cached = (sys.period_id, *build_law(sys, self.config))
            self.law_build_s += time.perf_counter() - t0
        _, law, rows = self._cached
        y_meas = np.asarray(y_meas, dtype=float)
        if y_meas.shape != (law.pred.n_y,):
            raise SolverError(
                f"measurement has shape {y_meas.shape}, expected ({law.pred.n_y},)"
            )
        if self.u_prev is None:
            self.u_prev = np.zeros(sys.n_u)
        x_a = np.concatenate([dx, y_meas])
        if rows is not None:
            try:
                d, _ = solve_constrained(law, rows, x_a, self.u_prev)
            except InfeasibleProblem:
                self.infeasible_fallbacks += 1
                d = law.solve(x_a)
        else:
            d = law.solve(x_a)
        u = np.clip(self.u_prev + d[0], 0.0, self.config.u_max)
        self.u_prev = u
        return u


def count_variables(
    net: WaterNetwork,
    horizon: int,
    seg_counts: StateIndexMap | int | Sequence[int],
) -> dict[str, float]:
    """Decision-variable counts: generic LP formulation (states plus
    inputs per step) vs. the condensed input-only QP used here.
    ``seg_counts`` is the state layout of ``net``, or the segment counts
    to build it from (see ``state_layout``)."""
    if horizon < 1:
        raise SolverError("prediction horizon must be at least 1 step")
    n_l = state_layout(net, seg_counts).n_s + net.n_m + net.n_v
    n_n = net.n_n
    lp = horizon * (2 * n_n + n_l)
    qp = horizon * n_n
    return {
        "lp_variables": lp,
        "qp_variables": qp,
        "reduction": 1.0 - qp / lp,
    }
