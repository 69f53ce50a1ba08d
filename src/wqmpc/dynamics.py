"""Sparse time-varying state-space assembly for chlorine transport.

Pipes are discretized with the explicit second-order Lax-Wendroff stencil;
junctions and tanks are instantaneous-mixing balances; pumps and valves
carry their upstream node's concentration.  For each hydraulic period the
result is one sparse pair (A, B) advancing the full concentration state
x = [junctions, reservoirs, tanks, pipe segments, pumps, valves] by one
water-quality step: x(t + dt) = A x(t) + B u(t), with u the injected
concentration at each installed booster, in booster-layout order.

A junction row mixes the new values of the links feeding it, so it is
built from their rows: pipe rows come first, then the nodes no pump or
valve feeds, then pump/valve rows (copies of their upstream node's row),
then the nodes they feed.  A period needs only its flow-oriented
incidence, demands, tank volumes and booster flows.

First-order decay constants are folded into the diagonal of A scaled by
the step length in hours, so the discrete model converges to exp(k t) as
dt -> 0.  ``paper_literal_reaction=True`` adds the constants unscaled
instead (the fold as printed in the source formulation).
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from . import units
from .errors import ModelError
from .hydraulics import HydraulicPeriod, HydraulicProfile
from .network import (
    BoosterLayout,
    IncidenceSet,
    WaterNetwork,
    build_booster_matrix,
    build_incidence,
    orient_by_flow,
)

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


def lw_coefficients(cfl: float) -> tuple[float, float, float]:
    """Standard Lax-Wendroff weights (previous, current, next segment).

    The triple sums to 1 for any Courant number in [0, 1]; at 1 it
    degenerates to a pure upstream shift.
    """
    if cfl < -CFL_TOL or cfl > 1.0 + CFL_TOL:
        raise ModelError(f"CFL number {cfl} outside [0, 1]")
    cfl = min(max(cfl, 0.0), 1.0)
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

    def pipe_offset(self, pipe_pos: int) -> int:
        return self._spans[self.net.pipes[pipe_pos].id][0]

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
    b: sp.csr_matrix            # (n_x, n_b), one column per booster
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
    inc: IncidenceSet,
    booster: BoosterLayout,
    period: HydraulicPeriod,
    disc: Discretization,
    reaction: ReactionModel,
    paper_literal_reaction: bool = False,
    period_id: int = 0,
    tank_volumes: np.ndarray | None = None,
) -> StateSpaceSystem:
    """Build the sparse one-step update for one hydraulic period.

    ``inc`` must be flow-oriented.  ``tank_volumes`` overrides the
    period-start tank volumes (m^3) when stepping mid-period.
    """
    if not inc.oriented:
        raise ModelError("assembly requires a flow-oriented incidence")
    im = StateIndexMap(net, disc.seg_counts)
    dt = disc.dt_s
    dt_h = dt / units.SECONDS_PER_HOUR
    flows = inc.flows
    qb = period.booster_flows
    column = {node: col for col, node in enumerate(booster.indices)}
    for i in np.nonzero(qb > 0)[0]:
        if i not in column:
            raise ModelError(
                f"booster flow at {net.node_ids[i]!r} but no booster installed there"
            )
    volumes = (
        np.asarray(tank_volumes, dtype=float)
        if tank_volumes is not None
        else period.tank_volumes
    )

    rows_a: list[dict[int, float]] = [dict() for _ in range(im.n_x)]
    rows_b: list[dict[int, float]] = [dict() for _ in range(im.n_x)]

    up_node = np.argmax(inc.matrix == 1, axis=0)
    down_node = np.argmax(inc.matrix == -1, axis=0)

    def add(row: dict[int, float], col: int, val: float) -> None:
        if val != 0.0:
            row[col] = row.get(col, 0.0) + val

    # --- pipes -------------------------------------------------------
    v = pipe_velocities(net, flows)
    for p in range(net.n_p):
        dx = disc.dx[p]
        cfl = v[p] * dt / dx
        under, mid, over = lw_coefficients(cfl)
        react = reaction.k_pipe[p] * (1.0 if paper_literal_reaction else dt_h)
        count = im.seg_counts[p]
        seg = list(range(im.pipe_offset(p), im.pipe_offset(p) + count))
        if inc.flipped is not None and inc.flipped[p]:
            seg.reverse()
        for k, idx in enumerate(seg):
            prev = seg[k - 1] if k > 0 else int(up_node[p])
            nxt = seg[k + 1] if k < count - 1 else int(down_node[p])
            add(rows_a[idx], prev, under)
            add(rows_a[idx], idx, mid + react)
            add(rows_a[idx], nxt, over)

    # --- helpers for node balances -----------------------------------
    def boundary_index(link: int) -> int:
        """State index carrying link's outlet concentration."""
        if link < net.n_p:
            count = im.seg_counts[link]
            off = im.pipe_offset(link)
            rev = inc.flipped is not None and inc.flipped[link]
            return off if rev else off + count - 1
        return im.pump_offset + (link - net.n_p)  # pumps then valves contiguous

    def junction_row(node: int) -> None:
        col = inc.matrix[node]
        out_links = np.nonzero(col == 1)[0]
        in_links = np.nonzero(col == -1)[0]
        local = node  # junctions lead the node block
        denom = float(flows[out_links].sum() + period.demands[local])
        if denom <= 0:
            raise ModelError(
                f"junction {net.node_ids[node]!r} has zero outflow and demand"
            )
        ra, rb = rows_a[node], rows_b[node]
        for l in in_links:
            if flows[l] <= 0:
                continue
            w = flows[l] / denom
            src = boundary_index(int(l))
            for c, val in rows_a[src].items():
                add(ra, c, w * val)
            for c, val in rows_b[src].items():
                add(rb, c, w * val)
        if node in column:
            add(rb, column[node], qb[node] / denom)

    def tank_row(node: int) -> None:
        col = inc.matrix[node]
        out_links = np.nonzero(col == 1)[0]
        in_links = np.nonzero(col == -1)[0]
        local = node - net.n_j - net.n_r
        v_t = float(volumes[local])
        q_out = float(flows[out_links].sum())
        q_in = float(flows[in_links].sum())
        v_b = qb[node] * dt
        v_next = v_t + dt * (q_in - q_out) + v_b
        if v_t - dt * q_out <= 0 or v_next <= 0:
            raise ModelError(
                f"tank {net.node_ids[node]!r} empties within one step"
            )
        react = reaction.k_tank[local] * (
            1.0 if paper_literal_reaction else dt_h
        )
        ra, rb = rows_a[node], rows_b[node]
        add(ra, node, (v_t - dt * q_out) / v_next + react)
        for l in in_links:
            if flows[l] <= 0:
                continue
            add(ra, boundary_index(int(l)), dt * flows[l] / v_next)
        if node in column:
            add(rb, column[node], v_b / v_next)

    def node_row(node: int) -> None:
        kind = net.node_kind(net.node_ids[node])
        if kind == "reservoir":
            rows_a[node] = {node: 1.0}
        elif kind == "junction":
            junction_row(node)
        else:
            tank_row(node)

    fed = {
        int(down_node[net.n_p + k]) for k in range(net.n_m + net.n_v)
    }  # nodes downstream of a pump or valve, flow-oriented

    # --- nodes with no pump/valve feeding them ------------------------
    for node in range(net.n_n):
        if node not in fed:
            node_row(node)

    # --- pumps and valves: copy the upstream node's row ----------------
    for k in range(net.n_m + net.n_v):
        link = net.n_p + k
        idx = im.pump_offset + k
        upstream = int(up_node[link])
        if upstream in fed:
            raise ModelError(
                "cascaded pumps/valves unsupported: upstream node "
                f"{net.node_ids[upstream]!r} is itself fed by a pump or valve"
            )
        rows_a[idx] = dict(rows_a[upstream])
        rows_b[idx] = dict(rows_b[upstream])

    # --- nodes fed by pumps/valves ------------------------------------
    for node in sorted(fed):
        node_row(node)

    a = _rows_to_csr(rows_a, im.n_x, im.n_x)
    b = _rows_to_csr(rows_b, im.n_x, booster.n_b)
    return StateSpaceSystem(
        a=a, b=b, dt_s=dt, index_map=im, booster=booster,
        booster_flows=qb[list(booster.indices)], period_id=period_id,
    )


def _rows_to_csr(rows: list[dict[int, float]], n_rows: int, n_cols: int) -> sp.csr_matrix:
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    nnz = sum(len(r) for r in rows)
    indices = np.empty(nnz, dtype=np.int64)
    data = np.empty(nnz)
    k = 0
    for i, row in enumerate(rows):
        for c in sorted(row):
            indices[k] = c
            data[k] = row[c]
            k += 1
        indptr[i + 1] = k
    return sp.csr_matrix((data, indices, indptr), shape=(n_rows, n_cols))


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

    def per_minute(self) -> "Trajectory":
        """Downsample to one row per simulated minute (plus endpoints)."""
        minutes = np.floor(self.times_s / 60.0 + 1e-9)
        keep = [0]
        for i in range(1, len(self.times_s)):
            if minutes[i] != minutes[keep[-1]]:
                keep.append(i)
        if keep[-1] != len(self.times_s) - 1:
            keep.append(len(self.times_s) - 1)
        idx = np.array(keep)
        return Trajectory(self.times_s[idx], self.states[idx], self.index_map)


def simulate(
    schedule: Sequence[tuple[StateSpaceSystem, int]],
    x0: np.ndarray,
    u: np.ndarray | Callable[[int, StateSpaceSystem], np.ndarray] | None = None,
) -> Trajectory:
    """Run the per-period systems in sequence.

    ``schedule`` pairs each system with its step count; ``u`` is a fixed
    vector, a callable of (global step index, system), or None for zero
    injection.
    """
    if not schedule:
        raise ModelError("empty system schedule")
    n_total = sum(n for _, n in schedule)
    im = schedule[0][0].index_map
    states = np.empty((n_total + 1, im.n_x))
    times = np.empty(n_total + 1)
    x = np.asarray(x0, dtype=float).copy()
    states[0] = x
    times[0] = 0.0
    zero_u = np.zeros(schedule[0][0].n_u)
    k = 0
    t = 0.0
    for sys, n_steps in schedule:
        if sys.index_map.n_x != im.n_x:
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
            states[k] = x
            times[k] = t
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
    base = build_incidence(net)
    schedule = []
    for pid, period in enumerate(profile.periods):
        inc = orient_by_flow(base, period.flows)
        dt = compute_time_step(net, counts, period.flows, period.duration_s)
        disc = Discretization(
            seg_counts=counts,
            dx=tuple(p.length_m / c for p, c in zip(net.pipes, counts)),
            dt_s=dt,
        )
        sys = assemble_system(
            net, inc, booster, period, disc, reaction,
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
        with open(path, "w") as fh:
            fh.write("row,col,value\n")
            for i in order:
                fh.write(f"{coo.row[i]},{coo.col[i]},{coo.data[i]:.17g}\n")
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
