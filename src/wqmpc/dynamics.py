"""Sparse time-varying state-space assembly for chlorine transport.

Pipes are discretized with the explicit second-order Lax-Wendroff stencil;
junctions and tanks are instantaneous-mixing balances; pumps and valves
carry their upstream node's concentration.  For each hydraulic period the
result is one sparse pair (A, B) advancing the full concentration state
x = [junctions, reservoirs, tanks, pipe segments, pumps, valves] by one
water-quality step: x(t + dt) = A x(t) + B u(t), with u the injected
concentration at each installed booster, in booster-layout order.

Junctions and pumps/valves take the new values of what feeds them, so
one step is the implicit balance x' = A0 x + B0 u + M x': A0 holds the
explicit rows (pipe stencils, tank balances, reservoir identities), B0
the booster terms, and M the junction mixing weights and pump/valve
upstream selections.  M is nilpotent, so A and B are short series in M.
A period needs only its signed link flows, demands, tank volumes and
booster flows.

First-order decay constants are folded into the diagonal of A scaled by
the step length in hours, so the discrete model converges to exp(k t) as
dt -> 0.  ``paper_literal_reaction=True`` adds the constants unscaled
instead (the fold as printed in the source formulation).

``iter_states`` steps a schedule and yields one (t, x) pair per step,
holding only the current state; ``per_minute`` filters that stream to the
first state of each simulated minute plus the last, so an export of a
long run needs memory for one state, not the trajectory.  ``simulate``
collects the whole stream into a ``Trajectory``.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np
import scipy.sparse as sp

from . import units
from .errors import ModelError
from .hydraulics import HydraulicPeriod, HydraulicProfile
from .network import BoosterLayout, WaterNetwork, build_booster_matrix

CFL_TOL = 1e-9


# ---------------------------------------------------------------------
# Discretization
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class Discretization:
    seg_counts: tuple[int, ...]  # per pipe
    dx: tuple[float, ...]        # per pipe, m
    dt_s: float

    @property
    def n_s(self) -> int:
        return sum(self.seg_counts)


def normalize_seg_counts(
    net: WaterNetwork, seg_counts: int | Sequence[int]
) -> tuple[int, ...]:
    if isinstance(seg_counts, int):
        counts = (seg_counts,) * net.n_p
    else:
        counts = tuple(int(c) for c in seg_counts)
    if len(counts) != net.n_p or any(c < 1 for c in counts):
        raise ModelError("segment counts must be positive, one per pipe")
    return counts


def pipe_velocities(net: WaterNetwork, flows: np.ndarray) -> np.ndarray:
    """Flow magnitudes (m^3/s) -> velocities (m/s) for the pipe block."""
    areas = np.array([p.area_m2 for p in net.pipes])
    return np.abs(flows[: net.n_p]) / areas


def compute_time_step(
    net: WaterNetwork,
    seg_counts: int | Sequence[int],
    flows: np.ndarray,
    period_s: float,
) -> float:
    """Largest stable water-quality step that tiles the hydraulic period.

    Starts from min over pipes of dx/|v| (zero-velocity pipes skipped),
    then shrinks to the largest whole-second divisor of the period; if no
    such divisor exists the period is split into the fewest equal steps
    not exceeding the stability bound.
    """
    counts = normalize_seg_counts(net, seg_counts)
    v = pipe_velocities(net, np.asarray(flows, dtype=float))
    ratios = [
        (p.length_m / c) / vi
        for p, c, vi in zip(net.pipes, counts, v)
        if vi > 0
    ]
    if not ratios:
        raise ModelError("stagnant network: all pipe velocities are zero")
    raw = min(ratios)
    if raw >= period_s:
        return float(period_s)
    if float(period_s).is_integer():
        t_int = int(period_s)
        for d in range(int(math.floor(raw + 1e-12)), 0, -1):
            if t_int % d == 0:
                return float(d)
    n_steps = math.ceil(period_s / raw - 1e-12)
    return period_s / n_steps


def lw_coefficients(cfl: float | np.ndarray) -> tuple:
    """Standard Lax-Wendroff weights (previous, current, next segment),
    elementwise for an array of Courant numbers.

    The triple sums to 1 for any Courant number in [0, 1]; at 1 it
    degenerates to a pure upstream shift.
    """
    cfl = np.asarray(cfl, dtype=float)
    bad = (cfl < -CFL_TOL) | (cfl > 1.0 + CFL_TOL)
    if bad.any():
        raise ModelError(f"CFL number {float(cfl[bad][0])} outside [0, 1]")
    cfl = np.clip(cfl, 0.0, 1.0)
    return (
        0.5 * cfl * (1.0 + cfl),
        1.0 - cfl * cfl,
        -0.5 * cfl * (1.0 - cfl),
    )


def pipe_reaction_constant(kb: float, kw: float, kf: float, diameter: float) -> float:
    """Effective first-order pipe rate: bulk plus wall/mass-transfer term."""
    if diameter <= 0:
        raise ModelError("diameter must be positive")
    if kw == 0.0 or kf == 0.0:
        return kb
    if kw + kf == 0.0:
        raise ModelError("wall reaction denominator kw + kf is zero")
    return kb + (kw * kf) / (diameter * (kw + kf))


@dataclass(frozen=True)
class ReactionModel:
    k_pipe: np.ndarray  # (n_p,) effective rate, 1/h
    k_tank: np.ndarray  # (n_tk,) bulk rate, 1/h

    @classmethod
    def from_network(cls, net: WaterNetwork, k_tank: float | Sequence[float] = 0.0):
        kp = np.array(
            [pipe_reaction_constant(p.kb, p.kw, p.kf, p.diameter_m) for p in net.pipes]
        )
        kt = np.broadcast_to(np.asarray(k_tank, dtype=float), (net.n_tk,)).copy()
        return cls(k_pipe=kp, k_tank=kt)

    @classmethod
    def zero(cls, net: WaterNetwork):
        return cls(k_pipe=np.zeros(net.n_p), k_tank=np.zeros(net.n_tk))


# ---------------------------------------------------------------------
# State indexing
# ---------------------------------------------------------------------


_SPEC = re.compile(r"([^\[\]]+)(?:\[(\d+)\])?")  # id, optional [segment]


class StateIndexMap:
    """Bijection between component identities and state-vector positions.

    Layout: junction block, reservoir block, tank block, pipe segments
    (pipes in declaration order, segments in declared upstream->downstream
    order), pump block, valve block.  Every entity id maps to the
    (offset, count) of its state entries: one entry for a node, pump or
    valve, one per segment for a pipe.
    """

    def __init__(self, net: WaterNetwork, seg_counts: int | Sequence[int]):
        self.net = net
        self.seg_counts = normalize_seg_counts(net, seg_counts)
        spans = {nid: (i, 1) for i, nid in enumerate(net.node_ids)}
        off = net.n_n
        for pipe, count in zip(net.pipes, self.seg_counts):
            spans[pipe.id] = (off, count)
            off += count
        self.pump_offset = off  # pumps, then valves
        for k, link in enumerate(net.links[net.n_p:]):
            spans[link.id] = (off + k, 1)
        self.n_x = off + net.n_m + net.n_v
        self._spans = spans

    @property
    def n_s(self) -> int:
        return sum(self.seg_counts)

    def _span(self, entity_id: str) -> tuple[int, int]:
        try:
            return self._spans[entity_id]
        except KeyError:
            raise ModelError(f"unknown entity {entity_id!r}") from None

    def pipe_slice(self, pipe_pos: int) -> slice:
        off, count = self._spans[self.net.pipes[pipe_pos].id]
        return slice(off, off + count)

    def index(self, entity_id: str, seg: int | None = None) -> int:
        """State position of an entity; ``seg`` picks a pipe segment and
        defaults to the pipe's last declared one."""
        off, count = self._span(entity_id)
        if seg is None:
            return off + count - 1
        if not self.net.n_n <= off < self.pump_offset:
            raise ModelError(f"{entity_id!r} is not a pipe; it has no segments")
        if not 0 <= seg < count:
            raise ModelError(f"segment {seg} out of range for pipe {entity_id!r}")
        return off + seg

    def parse_spec(self, spec: str) -> tuple[int, int]:
        """The one entity-spec parser: spec -> (offset, count) of the state
        entries it names.

        ``J2``, ``M12`` name one entry; ``P23[4]`` names segment 4 of pipe
        ``P23``; a bare pipe id ``P23`` names all of its segments.  A
        sensor reads the last entry of the span, so a bare pipe id
        measures the pipe's last declared segment (``sensor_index``); an
        event target covers the whole span, so a bare pipe id covers all
        segments (``resolve``).  Malformed specs, unknown ids and bad
        segments raise ModelError.
        """
        m = _SPEC.fullmatch(spec)
        if m is None:
            raise ModelError(f"malformed entity spec {spec!r}")
        entity_id, seg = m.groups()
        if seg is None:
            return self._span(entity_id)
        return self.index(entity_id, int(seg)), 1

    def sensor_index(self, spec: str) -> int:
        """State position read by a sensor at ``spec``."""
        off, count = self.parse_spec(spec)
        return off + count - 1

    def resolve(self, spec: str) -> list[int]:
        """State positions covered by an event target ``spec``."""
        off, count = self.parse_spec(spec)
        return list(range(off, off + count))

    def labels(self) -> list[str]:
        out = list(self.net.node_ids)
        for p, pipe in enumerate(self.net.pipes):
            out += [f"{pipe.id}[{s}]" for s in range(self.seg_counts[p])]
        out += [m.id for m in self.net.pumps]
        out += [v.id for v in self.net.valves]
        return out


# ---------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class StateSpaceSystem:
    a: sp.csr_matrix            # (n_x, n_x)
    b: sp.csc_matrix            # (n_x, n_b), one column per booster
    dt_s: float
    index_map: StateIndexMap
    booster: BoosterLayout
    booster_flows: np.ndarray   # (n_b,) m^3/s, this period's booster flows
    period_id: int = 0

    @property
    def n_x(self) -> int:
        return self.index_map.n_x

    @property
    def n_u(self) -> int:
        return self.b.shape[1]


def assemble_system(
    net: WaterNetwork,
    booster: BoosterLayout,
    period: HydraulicPeriod,
    disc: Discretization,
    reaction: ReactionModel,
    paper_literal_reaction: bool = False,
    period_id: int = 0,
) -> StateSpaceSystem:
    """Build the sparse one-step update for one hydraulic period.

    Pipe segments, tanks and reservoirs update from the current state;
    junctions and pumps/valves take the new values of what feeds them.
    One step is therefore the implicit balance

        x' = A0 x + B0 u + M x'

    with A0 the Lax-Wendroff pipe stencils, tank balances and reservoir
    identities, B0 the booster terms, and M the junction mixing weights on
    the inflowing links' outlet states plus each pump/valve's selection of
    its upstream node.  The longest chain in M is junction -> pump/valve
    -> junction -> pipe outlet (cascaded pumps/valves are refused), so
    A = A0 + M A0 + M^2 A0 + M^3 A0, and the same series gives B.
    A is returned row-compressed and B column-compressed, both with
    sorted indices.
    """
    flows = np.asarray(period.flows, dtype=float)
    if flows.shape != (net.n_links,):
        raise ModelError(
            f"flow vector has length {flows.size}, expected {net.n_links}"
        )
    im = StateIndexMap(net, disc.seg_counts)
    n_j, n_n, n_p = net.n_j, net.n_n, net.n_p
    dt = disc.dt_s
    fold = 1.0 if paper_literal_reaction else dt / units.SECONDS_PER_HOUR
    qb = period.booster_flows
    boosted = np.asarray(booster.indices, dtype=np.intp)
    unbooked = np.setdiff1d(np.flatnonzero(qb > 0), boosted)
    if unbooked.size:
        raise ModelError(
            f"booster flow at {net.node_ids[unbooked[0]]!r} but no booster "
            "installed there"
        )

    # Flow-oriented endpoints and magnitudes.
    q = np.abs(flows)
    flip = flows < 0
    up, down = net.link_ends
    up, down = np.where(flip, down, up), np.where(flip, up, down)
    pv = im.pump_offset + np.arange(net.n_m + net.n_v)  # pump/valve states

    # Pipes: segment s mixes its flow-wise neighbours at time t; the
    # inlet/outlet segments use the pipe's end nodes instead.
    counts = np.asarray(im.seg_counts)
    first = n_n + np.cumsum(counts) - counts  # declared first segment
    last = first + counts - 1
    pipe = np.repeat(np.arange(n_p), counts)
    seg = np.arange(n_n, n_n + im.n_s)
    along = np.where(flip[:n_p], -1, 1)[pipe]
    inlet = np.where(flip[:n_p], last, first)
    outlet = np.concatenate([np.where(flip[:n_p], first, last), pv])  # per link
    prev = np.where(seg == inlet[pipe], up[pipe], seg - along)
    nxt = np.where(seg == outlet[pipe], down[pipe], seg + along)
    cfl = pipe_velocities(net, q) * dt / np.asarray(disc.dx)
    under, mid, over = lw_coefficients(cfl)
    mid = mid + reaction.k_pipe * fold

    # Node balances: a junction divides by its outflow plus demand, a tank
    # by its volume at the end of the step.
    q_out = np.bincount(up, weights=q, minlength=n_n)
    q_in = np.bincount(down, weights=q, minlength=n_n)
    denom = q_out[:n_j] + period.demands
    dry = np.flatnonzero(denom <= 0)
    if dry.size:
        raise ModelError(
            f"junction {net.node_ids[dry[0]]!r} has zero outflow and demand"
        )
    tank0 = n_n - net.n_tk
    tank = np.arange(tank0, n_n)
    v_t = period.tank_volumes
    v_kept = v_t - dt * q_out[tank]
    v_next = v_t + dt * (q_in[tank] - q_out[tank]) + qb[tank] * dt
    dry = np.flatnonzero((v_kept <= 0) | (v_next <= 0))
    if dry.size:
        raise ModelError(
            f"tank {net.node_ids[tank[dry[0]]]!r} empties within one step"
        )
    cascaded = np.flatnonzero(np.isin(up[n_p:], down[n_p:]))
    if cascaded.size:
        raise ModelError(
            "cascaded pumps/valves unsupported: upstream node "
            f"{net.node_ids[up[n_p + cascaded[0]]]!r} is itself fed by a "
            "pump or valve"
        )
    into_j = np.flatnonzero((q > 0) & (down < n_j))
    into_tk = np.flatnonzero((q > 0) & (down >= tank0))
    reservoir = np.arange(n_j, n_j + net.n_r)
    dose = np.zeros(n_n)  # B0 weight of a booster at each node
    dose[:n_j] = qb[:n_j] / denom
    dose[tank0:] = qb[tank0:] * dt / v_next

    a0 = _csr(
        (im.n_x, im.n_x),
        (seg, prev, under[pipe]),
        (seg, seg, mid[pipe]),
        (seg, nxt, over[pipe]),
        (tank, tank, v_kept / v_next + reaction.k_tank * fold),
        (down[into_tk], outlet[into_tk],
         dt * q[into_tk] / v_next[down[into_tk] - tank0]),
        (reservoir, reservoir, np.ones(net.n_r)),
    )
    b0 = _csr(
        (im.n_x, booster.n_b), (boosted, np.arange(booster.n_b), dose[boosted])
    )
    m = _csr(
        (im.n_x, im.n_x),
        (down[into_j], outlet[into_j], q[into_j] / denom[down[into_j]]),
        (pv, up[n_p:], np.ones(pv.size)),
    )
    a, b = a0, b0
    for _ in range(3):  # one substitution per link of M's longest chain
        a = a0 + m @ a
        b = b0 + m @ b
    a.sort_indices()
    # B has only n_b columns: column-compressed, B u costs O(n_b) rather
    # than a walk over all n_x row pointers, and adds each row's terms in
    # the same ascending column order as CSR.
    b = b.tocsc()
    b.sort_indices()
    return StateSpaceSystem(
        a=a, b=b, dt_s=dt, index_map=im, booster=booster,
        booster_flows=qb[boosted], period_id=period_id,
    )


def _csr(shape: tuple[int, int], *triplets) -> sp.csr_matrix:
    """CSR matrix from (rows, cols, values) blocks, zeros dropped."""
    rows, cols, vals = (np.concatenate(part) for part in zip(*triplets))
    keep = vals != 0.0
    return sp.csr_matrix((vals[keep], (rows[keep], cols[keep])), shape=shape)


# ---------------------------------------------------------------------
# Stepping and simulation
# ---------------------------------------------------------------------


def step(sys: StateSpaceSystem, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if x.shape != (sys.n_x,):
        raise ModelError(f"state has shape {x.shape}, expected ({sys.n_x},)")
    if u.shape != (sys.n_u,):
        raise ModelError(f"input has shape {u.shape}, expected ({sys.n_u},)")
    return sys.a @ x + sys.b @ u


def initial_state(net: WaterNetwork, im: StateIndexMap, fill: float = 0.0) -> np.ndarray:
    x0 = np.full(im.n_x, float(fill))
    for r in net.reservoirs:
        x0[im.index(r.id)] = r.source_mg_l
    return x0


@dataclass(frozen=True)
class Trajectory:
    times_s: np.ndarray   # (n+1,)
    states: np.ndarray    # (n+1, n_x)
    index_map: StateIndexMap


def iter_states(
    schedule: Sequence[tuple[StateSpaceSystem, int]],
    x0: np.ndarray,
    u: np.ndarray | Callable[[int, StateSpaceSystem], np.ndarray] | None = None,
) -> Iterator[tuple[float, np.ndarray]]:
    """Run the per-period systems in sequence, yielding (t, x) per step.

    The first pair is (0.0, x0); each later one follows one ``step``, so
    only the current state is held.  ``schedule`` pairs each system with
    its step count; ``u`` is a fixed vector, a callable of (global step
    index, system), or None for zero injection.
    """
    if not schedule:
        raise ModelError("empty system schedule")
    n_x = schedule[0][0].n_x
    x = np.asarray(x0, dtype=float).copy()
    yield 0.0, x
    zero_u = np.zeros(schedule[0][0].n_u)
    k = 0
    t = 0.0
    for sys, n_steps in schedule:
        if sys.n_x != n_x:
            raise ModelError("schedule systems have mismatched state sizes")
        for _ in range(n_steps):
            if u is None:
                uk = zero_u
            elif callable(u):
                uk = u(k, sys)
            else:
                uk = u
            x = step(sys, x, uk)
            k += 1
            t += sys.dt_s
            yield t, x


def per_minute(
    pairs: Iterable[tuple[float, np.ndarray]],
) -> Iterator[tuple[float, np.ndarray]]:
    """Keep the first (t, x) of each simulated minute, plus the last one.

    A minute is ``floor(t / 60 + 1e-9)``; every pair is yielded at most
    once, as soon as it is known to be kept.
    """
    minute = None
    held = None  # the latest pair not yet yielded
    for t, x in pairs:
        m = math.floor(t / 60.0 + 1e-9)
        if m != minute:
            minute, held = m, None
            yield t, x
        else:
            held = t, x
    if held is not None:
        yield held


def simulate(
    schedule: Sequence[tuple[StateSpaceSystem, int]],
    x0: np.ndarray,
    u: np.ndarray | Callable[[int, StateSpaceSystem], np.ndarray] | None = None,
) -> Trajectory:
    """Collect every step of ``iter_states`` into one Trajectory.

    This holds (steps + 1) x n_x floats; to export or reduce a long run,
    consume ``iter_states`` (or ``per_minute`` over it) instead.
    """
    pairs = iter_states(schedule, x0, u)
    t0, x = next(pairs)  # raises on an empty schedule
    im = schedule[0][0].index_map
    n_total = sum(n for _, n in schedule)
    states = np.empty((n_total + 1, im.n_x))
    times = np.empty(n_total + 1)
    times[0], states[0] = t0, x
    for k, (t, x) in enumerate(pairs, start=1):
        times[k], states[k] = t, x
    return Trajectory(times_s=times, states=states, index_map=im)


def build_schedule(
    net: WaterNetwork,
    profile: HydraulicProfile,
    seg_counts: int | Sequence[int],
    booster: BoosterLayout | None = None,
    reaction: ReactionModel | None = None,
    paper_literal_reaction: bool = False,
) -> list[tuple[StateSpaceSystem, int]]:
    """Assemble one system per hydraulic period with its step count.

    The water-quality step is recomputed per period from that period's
    velocities.  Without a ``booster`` layout, every node with a positive
    booster flow in some period carries one, in node-index order.
    """
    counts = normalize_seg_counts(net, seg_counts)
    if booster is None:
        active = np.any([p.booster_flows > 0 for p in profile.periods], axis=0)
        booster = build_booster_matrix(
            net, [net.node_ids[i] for i in np.flatnonzero(active)]
        )
    if reaction is None:
        reaction = ReactionModel.from_network(net)
    schedule = []
    for pid, period in enumerate(profile.periods):
        dt = compute_time_step(net, counts, period.flows, period.duration_s)
        disc = Discretization(
            seg_counts=counts,
            dx=tuple(p.length_m / c for p, c in zip(net.pipes, counts)),
            dt_s=dt,
        )
        sys = assemble_system(
            net, booster, period, disc, reaction,
            paper_literal_reaction=paper_literal_reaction,
            period_id=pid,
        )
        n_steps = int(round(period.duration_s / dt))
        schedule.append((sys, n_steps))
    return schedule


# ---------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------


def export_system(sys: StateSpaceSystem, directory: str, prefix: str = "system") -> list[str]:
    """Write sparse triplets (row,col,value) and the entity index map."""
    os.makedirs(directory, exist_ok=True)
    written = []
    for name, mat in (("A", sys.a), ("B", sys.b)):
        path = os.path.join(directory, f"{prefix}_{name}.csv")
        coo = mat.tocoo()
        order = np.lexsort((coo.col, coo.row))
        triplets = zip(
            coo.row[order].tolist(), coo.col[order].tolist(),
            coo.data[order].tolist(),
        )
        with open(path, "w") as fh:
            fh.write("row,col,value\n")
            fh.writelines("%d,%d,%.17g\n" % t for t in triplets)
        written.append(path)
    path = os.path.join(directory, f"{prefix}_index.json")
    with open(path, "w") as fh:
        json.dump(
            {label: i for i, label in enumerate(sys.index_map.labels())},
            fh, indent=2, sort_keys=False,
        )
        fh.write("\n")
    written.append(path)
    return written
