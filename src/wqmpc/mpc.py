"""Receding-horizon booster-injection control.

The controller works on an augmented incremental model: the state is
[Δx(t); y(t)] with Δx the one-step state difference, so the decision
variables are injection increments Δu and integral action comes for
free.  Predicted sensor trajectories are affine in the stacked
increments, y = W x_a + Z Δu, and the tracking objective

    ½ (y_ref - y)' Q (y_ref - y) + ½ Δu' R Δu + b' Δu

has the closed-form minimizer Δu* = (Z'QZ + R)^-1 (Z'Q(y_ref - W x_a) - b).
Z is built from the impulse-response blocks G_k = C_a Φ_a^k Γ_a.  The
condensed problem has one variable per booster and horizon step, N·n_b,
however many states the network has, so the Hessian q Z'Z + r I is
factored densely once per hydraulic period and every solve is a pair of
triangular solves.

Bound constraints on inputs and sensor outputs are handled by an
accelerated projected-gradient method on the dual.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from .errors import InfeasibleProblem, SolverError
from .dynamics import StateSpaceSystem, normalize_seg_counts
from .network import WaterNetwork


# ---------------------------------------------------------------------
# Augmented model
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class AugmentedSystem:
    """Incremental dynamics with integrated outputs.

    x_a = [Δx; y];  x_a(t+1) = phi x_a(t) + gamma Δu(t);  y = c_a x_a.
    """

    phi: sp.csr_matrix
    gamma: sp.csr_matrix
    c_meas: sp.csr_matrix  # (n_y, n_x) sensor selection
    n_x: int
    n_y: int
    n_u: int
    sensor_labels: tuple[str, ...]
    dt_s: float
    period_id: int = 0


def build_augmented(sys: StateSpaceSystem, sensors: Sequence[str]) -> AugmentedSystem:
    """Attach sensor rows to a one-step system.

    Sensor specs are read by ``StateIndexMap.sensor_index``: a bare pipe
    id measures its last declared segment, ``id[k]`` a specific one.
    """
    if not sensors:
        raise SolverError("at least one sensor is required")
    n_y = len(sensors)
    cols = [sys.index_map.sensor_index(spec) for spec in sensors]
    c = sp.csr_matrix(
        (np.ones(n_y), (np.arange(n_y), cols)), shape=(n_y, sys.n_x)
    )
    a, b = sys.a, sys.b
    ca = (c @ a).tocsr()
    phi = sp.bmat(
        [[a, None], [ca, sp.eye(n_y, format="csr")]], format="csr"
    )
    gamma = sp.vstack([b, (c @ b).tocsr()], format="csr")
    return AugmentedSystem(
        phi=phi,
        gamma=gamma,
        c_meas=c,
        n_x=sys.n_x,
        n_y=n_y,
        n_u=sys.n_u,
        sensor_labels=tuple(sensors),
        dt_s=sys.dt_s,
        period_id=sys.period_id,
    )


# ---------------------------------------------------------------------
# Prediction operators
# ---------------------------------------------------------------------


class PredictionOperator:
    """Stacked N-step predictor for the augmented model.

    ``w`` maps the augmented state to the stacked sensor forecast;
    ``g_blocks[k]`` is the k-step input response C_a Φ_a^k Γ_a, from which
    any product with the block-Toeplitz matrix Z follows by convolution.
    """

    def __init__(self, aug: AugmentedSystem, n_steps: int):
        if n_steps < 1:
            raise SolverError("prediction horizon must be at least 1 step")
        self.aug = aug
        self.n_steps = n_steps
        n_a = aug.n_x + aug.n_y
        c_a = np.zeros((aug.n_y, n_a))
        c_a[:, aug.n_x:] = np.eye(aug.n_y)
        phi_t = aug.phi.T.tocsr()
        self.w = np.empty((n_steps, aug.n_y, n_a))
        self.g_blocks = np.empty((n_steps, aug.n_y, aug.n_u))
        f = c_a
        self.g_blocks[0] = f @ aug.gamma
        for i in range(n_steps):
            f = (phi_t @ f.T).T  # f <- f @ phi
            self.w[i] = f
            if i + 1 < n_steps:
                self.g_blocks[i + 1] = f @ aug.gamma

    @property
    def n_y(self) -> int:
        return self.aug.n_y

    @property
    def n_u(self) -> int:
        return self.aug.n_u

    def free_response(self, x_a: np.ndarray) -> np.ndarray:
        """(N, n_y) sensor forecast under zero increments."""
        return self.w @ x_a

    def apply_z(self, d: np.ndarray) -> np.ndarray:
        """(N, n_u) increments -> (N, n_y) forced response."""
        n = self.n_steps
        out = np.zeros((n, self.n_y))
        for k in range(n):  # lag-k response, one batched product per lag
            out[k:] += d[: n - k] @ self.g_blocks[k].T
        return out

    def apply_zt(self, r: np.ndarray) -> np.ndarray:
        """(N, n_y) residuals -> (N, n_u) adjoint product."""
        n = self.n_steps
        out = np.zeros((n, self.n_u))
        for k in range(n):
            out[: n - k] += r[k:] @ self.g_blocks[k]
        return out

    def dense_z(self) -> np.ndarray:
        """(N*n_y, N*n_u) explicit block lower-triangular Z."""
        n, ny, nu = self.n_steps, self.n_y, self.n_u
        # block (i, j) is g_blocks[i - j]; lags above the diagonal index a
        # zero pad block, so the zeros are +0.0 as in np.zeros
        lag = np.subtract.outer(np.arange(n), np.arange(n))
        lag[lag < 0] = n
        blocks = np.concatenate([self.g_blocks, np.zeros((1, ny, nu))])
        return blocks[lag].transpose(0, 2, 1, 3).reshape(n * ny, n * nu)


# ---------------------------------------------------------------------
# Cost and bounds
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class CostWeights:
    """Quadratic tracking cost with a linear injection-mass price.

    ``q`` and ``r`` are scalars (per-output / per-input weights); ``b``
    is the per-step linear cost on each input increment (already scaled
    by price and injection flow), zero when dosing is free.
    """

    q: float
    r: float
    y_ref: np.ndarray  # (n_y,)
    b: np.ndarray      # (n_u,)

    @classmethod
    def build(
        cls,
        n_y: int,
        n_u: int,
        y_ref: float | Sequence[float],
        q: float = 1.0,
        r: float = 1.0,
        price_per_mg: float = 0.0,
        booster_flows: np.ndarray | None = None,
        dt_s: float = 0.0,
    ) -> "CostWeights":
        if q <= 0 or r <= 0:
            raise SolverError("weights q and r must be positive")
        ref = np.broadcast_to(np.asarray(y_ref, dtype=float), (n_y,)).copy()
        b = np.zeros(n_u)
        if price_per_mg and booster_flows is not None:
            # mass per step per unit concentration: flow (L/s) * dt (s)
            b = price_per_mg * booster_flows * 1000.0 * dt_s
        return cls(q=float(q), r=float(r), y_ref=ref, b=b)


@dataclass(frozen=True)
class BoundSet:
    """Elementwise input/output bounds; use +-inf for unconstrained."""

    u_min: np.ndarray
    u_max: np.ndarray
    y_min: np.ndarray
    y_max: np.ndarray

    @classmethod
    def build(
        cls,
        n_u: int,
        n_y: int,
        u_min: float | Sequence[float] = 0.0,
        u_max: float | Sequence[float] = np.inf,
        y_min: float | Sequence[float] = -np.inf,
        y_max: float | Sequence[float] = np.inf,
    ) -> "BoundSet":
        def vec(v, n):
            return np.broadcast_to(np.asarray(v, dtype=float), (n,)).copy()

        bs = cls(vec(u_min, n_u), vec(u_max, n_u), vec(y_min, n_y), vec(y_max, n_y))
        if np.any(bs.u_min > bs.u_max) or np.any(bs.y_min > bs.y_max):
            raise InfeasibleProblem("lower bound exceeds upper bound")
        return bs


# ---------------------------------------------------------------------
# Analytical law
# ---------------------------------------------------------------------


class AnalyticalLaw:
    """Unconstrained minimizer with the Cholesky factor of the Hessian
    H = q Z'Z + r I cached at build time.

    ``z`` is the dense (N*n_y, N*n_u) input-response matrix; the
    bound-constrained solve reads its output rows from it.
    """

    dense = True  # read by the benchmark's ``mpc.dense_path`` gauge

    def __init__(self, pred: PredictionOperator, weights: CostWeights):
        self.pred = pred
        self.weights = weights
        self.z = pred.dense_z()
        h = weights.q * (self.z.T @ self.z) + weights.r * np.eye(self.z.shape[1])
        self._chol = la.cho_factor(h)

    def solve_h(self, f: np.ndarray) -> np.ndarray:
        """x = H^-1 f for stacked f of shape (N*n_u,) or (N*n_u, k)."""
        return la.cho_solve(self._chol, f)

    def gradient_offset(self, x_a: np.ndarray) -> np.ndarray:
        """Linear term f of the QP in Δu: ½d'Hd + f'd."""
        resid = self.weights.y_ref[None, :] - self.pred.free_response(x_a)
        f = -self.weights.q * self.pred.apply_zt(resid)
        f += self.weights.b[None, :]
        return f.reshape(-1)

    def solve(self, x_a: np.ndarray) -> np.ndarray:
        """(N, n_u) optimal increments, unconstrained."""
        f = self.gradient_offset(x_a)
        return self.solve_h(-f).reshape(self.pred.n_steps, self.pred.n_u)


# ---------------------------------------------------------------------
# Bound-constrained solve
# ---------------------------------------------------------------------


def build_inequalities(
    law: AnalyticalLaw,
    bounds: BoundSet,
    x_a: np.ndarray,
    u_prev: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Stack finite bound rows as G d <= h over the increment vector."""
    pred = law.pred
    n, nu = pred.n_steps, pred.n_u
    z = law.z
    free = pred.free_response(x_a).reshape(-1)
    # u_k = u_prev + sum_{j<=k} d_j  ->  cumulative-sum map over blocks
    h2 = np.tril(np.ones((n, n)))
    h2 = np.kron(h2, np.eye(nu))
    u_base = np.tile(u_prev, n)
    rows, rhs = [], []
    for sign, bound, mat, base in (
        (-1.0, np.tile(bounds.y_min, n), z, free),
        (+1.0, np.tile(bounds.y_max, n), z, free),
        (-1.0, np.tile(bounds.u_min, n), h2, u_base),
        (+1.0, np.tile(bounds.u_max, n), h2, u_base),
    ):
        finite = np.isfinite(bound)
        if not finite.any():
            continue
        rows.append(sign * mat[finite])
        rhs.append(sign * (bound[finite] - base[finite]) if sign > 0
                   else (base[finite] - bound[finite]))
    if not rows:
        return np.zeros((0, n * nu)), np.zeros(0)
    return np.vstack(rows), np.concatenate(rhs)


def solve_constrained(
    law: AnalyticalLaw,
    x_a: np.ndarray,
    u_prev: np.ndarray,
    bounds: BoundSet,
    max_iter: int = 2000,
    tol: float = 1e-9,
) -> tuple[np.ndarray, np.ndarray]:
    """Bound-constrained increments via accelerated dual projection.

    The dual of min ½d'Hd + f'd s.t. Gd <= h is maximized by projected
    Nesterov steps with gradient adaptive restart (O'Donoghue & Candès,
    2015): the momentum is dropped whenever the step opposes the dual
    gradient.  Iteration stops once both the primal violation and the
    complementarity max|λ·(Gd - h)| are within ``tol`` (scaled by the
    largest bound).

    Returns (increments (N, n_u), multipliers).  Raises
    InfeasibleProblem when no iterate approaches feasibility.
    """
    g, h = build_inequalities(law, bounds, x_a, u_prev)
    f = law.gradient_offset(x_a)
    n, nu = law.pred.n_steps, law.pred.n_u
    d0 = law.solve_h(-f)  # unconstrained optimum
    if g.shape[0] == 0:
        return d0.reshape(n, nu), np.zeros(0)
    scale = tol * max(1.0, np.abs(h).max())
    if np.all(g @ d0 - h <= scale):
        return d0.reshape(n, nu), np.zeros(g.shape[0])

    # d(λ) = d0 - H^-1 G'λ, so the dual gradient G d(λ) - h is affine in λ
    hinv_gt = law.solve_h(g.T)
    m = g @ hinv_gt  # G H^-1 G'
    resid0 = g @ d0 - h
    step = 1.0 / max(np.linalg.norm(m, 2), 1e-12)
    lam = np.zeros(g.shape[0])
    mom = lam.copy()
    t_acc = 1.0
    best_viol = np.inf
    for _ in range(max_iter):
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


@dataclass
class ControlConfig:
    """Controller settings.  ``constrained`` enforces the input and output
    bounds by the dual solve, at any horizon; an infeasible step falls
    back to the unconstrained law and is counted."""

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


class RecedingHorizonController:
    """Stateful controller: keeps the compiled law of the current hydraulic
    period, carries the previous input and model state, clips applied
    inputs to their physical range."""

    def __init__(self, config: ControlConfig):
        self.config = config
        self._cached: tuple[int, AnalyticalLaw, BoundSet] | None = None
        self.u_prev: np.ndarray | None = None
        self.x_prev: np.ndarray | None = None
        self.last_increment: np.ndarray | None = None
        self.infeasible_fallbacks = 0

    def _law_for(self, sys: StateSpaceSystem) -> tuple[AnalyticalLaw, BoundSet]:
        if self._cached is None or self._cached[0] != sys.period_id:
            if sys.n_u == 0:
                raise SolverError(
                    "MPC needs at least one booster, but no node has a "
                    "positive booster flow"
                )
            aug = build_augmented(sys, self.config.sensors)
            pred = PredictionOperator(aug, self.config.horizon)
            weights = CostWeights.build(
                aug.n_y, aug.n_u, self.config.y_ref,
                q=self.config.q, r=self.config.r,
                price_per_mg=self.config.price_per_mg,
                booster_flows=sys.booster_flows, dt_s=sys.dt_s,
            )
            bounds = BoundSet.build(
                aug.n_u, aug.n_y,
                u_min=0.0, u_max=self.config.u_max,
                y_min=self.config.y_min, y_max=self.config.y_max,
            )
            self._cached = (sys.period_id, AnalyticalLaw(pred, weights), bounds)
        return self._cached[1:]

    def control(
        self, sys: StateSpaceSystem, x_model: np.ndarray, y_meas: np.ndarray
    ) -> np.ndarray:
        """One controller update; returns the input to hold until the
        next control instant."""
        law, bounds = self._law_for(sys)
        y_meas = np.asarray(y_meas, dtype=float)
        if y_meas.shape != (law.pred.n_y,):
            raise SolverError(
                f"measurement has shape {y_meas.shape}, expected ({law.pred.n_y},)"
            )
        if self.u_prev is None:
            self.u_prev = np.zeros(sys.n_u)
        dx = (
            np.zeros(sys.n_x)
            if self.x_prev is None
            else np.asarray(x_model) - self.x_prev
        )
        x_a = np.concatenate([dx, y_meas])
        if self.config.constrained:
            try:
                d, _ = solve_constrained(law, x_a, self.u_prev, bounds)
            except InfeasibleProblem:
                self.infeasible_fallbacks += 1
                d = law.solve(x_a)
        else:
            d = law.solve(x_a)
        self.last_increment = d[0]
        u = np.clip(self.u_prev + d[0], 0.0, self.config.u_max)
        self.u_prev = u
        self.x_prev = np.asarray(x_model, dtype=float).copy()
        return u


def count_variables(
    net: WaterNetwork, horizon: int, seg_counts: int | Sequence[int]
) -> dict[str, float]:
    """Decision-variable counts: generic LP formulation (states plus
    inputs per step) vs. the condensed input-only QP used here."""
    n_l = sum(normalize_seg_counts(net, seg_counts)) + net.n_m + net.n_v
    n_n = net.n_n
    lp = horizon * (2 * n_n + n_l)
    qp = horizon * n_n
    return {
        "lp_variables": lp,
        "qp_variables": qp,
        "reduction": 1.0 - qp / lp,
    }
