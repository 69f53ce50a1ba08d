"""Sparse time-varying state-space assembly for chlorine transport.

Pipes are discretized with the explicit second-order Lax-Wendroff stencil;
junctions and tanks are instantaneous-mixing balances; pumps and valves
carry their upstream node's concentration.  For each hydraulic period the
result is one sparse pair (A, B) advancing the full concentration state
x by one water-quality step: x(t + dt) = A x(t) + B u(t), with u the
injected concentration at each installed booster, in booster-layout
order.  The layout of x (``StateIndexMap``) is the network's entity
order, each pipe widened to its segments: junctions, reservoirs, tanks,
pipe segments, pumps, valves.  It is built once per schedule and shared
by every period's system; only A, B and the step length change with the
period.

Junctions and pumps/valves take the new values of what feeds them, so
one step is the implicit balance x' = A0 x + B0 u + M x': A0 holds the
explicit rows (pipe stencils, tank balances, reservoir identities), B0
the booster terms, and M the junction mixing weights and pump/valve
upstream selections.  A pump or valve passes its upstream node's new
value on unchanged, so a junction it feeds reads that node directly.
M is nilpotent, so A and B are short series in M.
A period needs only its signed link flows, demands, tank volumes and
booster flows.

Only pipes react.  Each pipe's first-order rate (1/h, bulk plus wall
term) is folded into the diagonal of its segments' rows scaled by the
step length in hours, so the discrete model converges to exp(k t) as
dt -> 0; ``nominal_pipe_rates`` gives a network's rates, the only place
the sign of a rate is read.  Tanks mix without reaction.

``advance`` takes n steps of one system under one held input: it checks
the shapes and forms B u once, then runs ``CSR.iterate``, which repeats
x <- A x + (B u) in place, the same floating-point sum as A x + B u,
and returns the final state, a fresh array, with the chosen rows
(sensors) after every step as one block.  ``step`` is its single-step
case.  ``iter_states`` steps a schedule open loop, with no
injection, and yields one (t, x) pair per step, holding only the
current state; ``per_minute`` filters that stream to the first state of
each simulated minute plus the last, so an export of a long run needs
memory for one state, not the trajectory.  ``simulate`` collects the
whole stream into a ``Trajectory``.

``sensor_closure`` finds the sensors' upstream closure from the flows
alone, before any matrix exists: a search backwards through the
entities (nodes and links) that each one reads in any of the given
periods.  ``build_schedule`` on that closure's layout
(``StateIndexMap.restrict``) forms the rows of the kept states only,
each in the kept columns it reads and in the same order, so every kept
state, and every sensor reading, steps bit for bit as on the whole
layout; specs still parse on the whole layout and resolve to positions
within the closure.
"""

from __future__ import annotations

import copy
import json
import math
import os
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import units
from .errors import ModelError
from .hydraulics import HydraulicPeriod, HydraulicProfile
from .network import BoosterLayout, WaterNetwork
from .sparse import CSR

CFL_TOL = 1e-9


# ---------------------------------------------------------------------
# Time step and stencil
# ---------------------------------------------------------------------


def pipe_velocities(im: StateIndexMap, flows: np.ndarray) -> np.ndarray:
    """Flow magnitudes (m^3/s) -> velocities (m/s) for the pipe block."""
    return np.abs(flows[: im.net.n_p]) / im.area


def compute_time_step(
    im: StateIndexMap, flows: np.ndarray, period_s: float
) -> float:
    """Largest stable water-quality step that tiles the hydraulic period.

    Starts from min over pipes of dx/|v| (zero-velocity pipes skipped),
    then shrinks to the largest whole-second divisor of the period; if no
    such divisor exists the period is split into the fewest equal steps
    not exceeding the stability bound.
    """
    v = pipe_velocities(im, np.asarray(flows, dtype=float))
    moving = v > 0
    if not moving.any():
        raise ModelError("stagnant network: all pipe velocities are zero")
    raw = float(np.min(im.dx[moving] / v[moving]))
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


def nominal_pipe_rates(
    net: WaterNetwork, kb_scale=1.0, kw_scale=1.0
) -> np.ndarray:
    """Each pipe's effective first-order rate (1/h), in pipe order, with
    its kb and kw multiplied by ``kb_scale`` and ``kw_scale`` (scalars,
    or one factor per pipe); the defaults give the nominal rates."""
    kb_f = np.broadcast_to(kb_scale, (net.n_p,))
    kw_f = np.broadcast_to(kw_scale, (net.n_p,))
    return np.array([
        pipe_reaction_constant(p.kb * s, p.kw * w, p.kf, p.diameter_m)
        for p, s, w in zip(net.pipes, kb_f, kw_f)
    ])


# ---------------------------------------------------------------------
# State layout
# ---------------------------------------------------------------------


_SPEC = re.compile(r"([^\[\]]+)(?:\[(\d+)\])?")  # id, optional [segment]


class StateIndexMap:
    """The state layout: the entity order, each pipe widened to its
    segments.  Built once per schedule.

    Entity ``i`` of ``net.entity_index`` (junctions, reservoirs, tanks,
    then pipes, pumps, valves) holds the ``counts[i]`` state entries from
    ``offsets[i]``: one for a node, pump or valve, one per segment, in
    declared upstream->downstream order, for a pipe.  ``seg_counts`` is
    one count for every pipe or one per pipe; this is the only place it
    is checked.  ``dx`` holds each pipe's segment length in m and
    ``area`` its cross-section in m^2.

    ``restrict`` gives the layout seen through a sorted subset ``keep``
    of its positions, the states a restricted system steps; ``keep`` and
    ``place``, each whole-layout position's place in ``keep`` (-1
    outside it), are None on the whole layout.
    """

    def __init__(self, net: WaterNetwork, seg_counts: int | Sequence[int]):
        if isinstance(seg_counts, int):
            seg_counts = (seg_counts,) * net.n_p
        counts = tuple(int(c) for c in seg_counts)
        if len(counts) != net.n_p or any(c < 1 for c in counts):
            raise ModelError("segment counts must be positive, one per pipe")
        self.net = net
        self.seg_counts = counts
        self.dx = np.array([p.length_m / c for p, c in zip(net.pipes, counts)])
        self.area = np.array([p.area_m2 for p in net.pipes])
        self.counts = np.ones(net.n_n + net.n_links, dtype=np.intp)
        self.counts[net.n_n : net.n_n + net.n_p] = counts
        self.offsets = np.cumsum(self.counts) - self.counts
        self.n_s = sum(counts)
        self.pump_offset = net.n_n + self.n_s  # pumps, then valves
        self.n_x = self.pump_offset + net.n_m + net.n_v
        self.keep: np.ndarray | None = None
        self.place: np.ndarray | None = None

    def restrict(self, keep: np.ndarray) -> StateIndexMap:
        """This layout seen through the sorted positions ``keep``.

        Specs still parse through ``parse_spec``; ``sensor_index`` and
        ``resolve`` answer with positions within ``keep``, read from
        ``place``, and ``labels`` names the kept states.  Every other
        member, ``n_x`` included, describes the whole layout.
        """
        sub = copy.copy(self)
        sub.keep = keep
        sub.place = np.full(self.n_x, -1, dtype=np.intp)
        sub.place[keep] = np.arange(keep.size)
        return sub

    def _within(self, positions: np.ndarray) -> np.ndarray:
        """Each whole-layout position's place in ``keep``, -1 outside."""
        return positions if self.place is None else self.place[positions]

    def _span(self, entity_id: str) -> tuple[int, int]:
        i = self.net.entity_index.get(entity_id)
        if i is None:
            raise ModelError(f"unknown entity {entity_id!r}")
        return int(self.offsets[i]), int(self.counts[i])

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
        """State position read by a sensor at ``spec``; refused on a
        restricted layout that does not keep it."""
        off, count = self.parse_spec(spec)
        at = self._within(off + count - 1)
        if at < 0:
            raise ModelError(f"sensor {spec!r} reads a state this system does not step")
        return int(at)

    def resolve(self, spec: str) -> tuple[list[int], int]:
        """State positions covered by an event target ``spec``, and the
        number of its states that this layout does not keep: on a
        restricted layout, the positions of the kept ones within
        ``keep``."""
        off, count = self.parse_spec(spec)
        at = self._within(np.arange(off, off + count))
        kept = at[at >= 0].tolist()
        return kept, count - len(kept)

    def labels(self) -> list[str]:
        """Each state's label in layout order; on a restricted layout,
        the kept states' alone, in ``keep`` order."""
        out = list(self.net.node_ids)
        for p, pipe in enumerate(self.net.pipes):
            out += [f"{pipe.id}[{s}]" for s in range(self.seg_counts[p])]
        out += [m.id for m in self.net.pumps]
        out += [v.id for v in self.net.valves]
        return out if self.keep is None else [out[i] for i in self.keep]


# ---------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class StateSpaceSystem:
    a: CSR                      # (n_x, n_x)
    b: CSR                      # (n_x, n_b), one column per booster
    dt_s: float
    index_map: StateIndexMap
    booster: BoosterLayout
    booster_flows: np.ndarray   # (n_b,) m^3/s, this period's booster flows
    period_id: int = 0

    @property
    def n_x(self) -> int:
        return self.a.shape[0]

    @property
    def n_u(self) -> int:
        return self.b.shape[1]


def assemble_system(
    im: StateIndexMap,
    booster: BoosterLayout,
    period: HydraulicPeriod,
    dt_s: float,
    k_pipe: np.ndarray,
    period_id: int = 0,
) -> StateSpaceSystem:
    """Build the sparse one-step update for one hydraulic period.

    Pipe segments, tanks and reservoirs update from the current state;
    junctions and pumps/valves take the new values of what feeds them.
    One step is therefore the implicit balance

        x' = A0 x + B0 u + M x'

    with A0 the Lax-Wendroff pipe stencils, tank balances and reservoir
    identities, B0 the booster terms, and M the junction mixing weights on
    the inflowing pipes' outlet states and on the upstream node of each
    inflowing pump or valve, plus each pump/valve's selection of its
    upstream node.  The longest chain in M is junction (or pump/valve) ->
    junction -> pipe outlet (cascaded pumps/valves are refused), so
    A = A0 + M A0 + M^2 A0, and the same series gives B.
    ``k_pipe`` holds each pipe's rate (1/h), added to its segments'
    diagonal times dt in hours.  A and B are returned as canonical
    ``CSR`` matrices, summed as SciPy sums ``a0 + m @ a`` (see
    ``wqmpc.sparse``), and the system keeps ``im`` as its layout.

    On a restricted layout (``StateIndexMap.restrict``) only the kept
    rows are formed, each in the kept columns it reads, so A and B are
    those of the whole layout cut to ``keep``, bit for bit: relabelling
    keeps every row's terms in their order.  A layout whose kept rows
    read a state it does not keep is refused.
    """
    triplets = _balance_triplets(im, booster, period, dt_s, k_pipe)
    a0, b0, m = (CSR.from_triplets(*t) for t in triplets)
    del triplets  # not needed past here: lower the peak of the substitutions
    a, b = a0, b0
    for _ in range(2):  # one substitution per link of M's longest chain
        a = a0 + m @ a
        b = b0 + m @ b
    return StateSpaceSystem(
        a=a, b=b, dt_s=dt_s, index_map=im, booster=booster,
        booster_flows=period.booster_flows[list(booster.indices)],
        period_id=period_id,
    )


def _balance_triplets(
    im: StateIndexMap,
    booster: BoosterLayout,
    period: HydraulicPeriod,
    dt_s: float,
    k_pipe: np.ndarray,
) -> tuple[tuple, tuple, tuple]:
    """The (shape, rows, cols, values) of A0, B0 and M of one period, zeros
    included, on the states of ``im`` (the kept ones, on a restricted
    layout).  Refuses a period whose balances cannot be formed, on the
    whole network."""
    net = im.net
    flows = np.asarray(period.flows, dtype=float)
    if flows.shape != (net.n_links,):
        raise ModelError(
            f"flow vector has length {flows.size}, expected {net.n_links}"
        )
    n_j, n_n, n_p = net.n_j, net.n_n, net.n_p
    fold = dt_s / units.SECONDS_PER_HOUR
    qb = period.booster_flows
    boosted = np.asarray(booster.indices, dtype=np.intp)
    fed = qb > 0
    fed[boosted] = False  # booster flow where no booster is installed
    unbooked = np.flatnonzero(fed)
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
    place = im.place  # each state's row among those formed, or None for all
    n = im.n_x if place is None else im.keep.size

    # Pipes: segment s mixes its flow-wise neighbours at time t; the
    # inlet/outlet segments use the pipe's end nodes instead.
    counts = im.counts[n_n : n_n + n_p]
    first = im.offsets[n_n : n_n + n_p]  # declared first segment
    last = first + counts - 1
    pipe = np.repeat(np.arange(n_p), counts)
    seg = np.arange(n_n, n_n + im.n_s)
    if place is not None:  # only the kept segments' rows
        formed = place[seg] >= 0
        pipe, seg = pipe[formed], seg[formed]
    along = np.where(flip[:n_p], -1, 1)[pipe]
    inlet = np.where(flip[:n_p], last, first)
    outlet = np.concatenate([np.where(flip[:n_p], first, last), pv])  # per link
    prev = np.where(seg == inlet[pipe], up[pipe], seg - along)
    nxt = np.where(seg == outlet[pipe], down[pipe], seg + along)
    cfl = pipe_velocities(im, q) * dt_s / im.dx
    under, mid, over = lw_coefficients(cfl)
    mid = mid + k_pipe * fold

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
    v_kept = v_t - dt_s * q_out[tank]
    v_next = v_t + dt_s * (q_in[tank] - q_out[tank]) + qb[tank] * dt_s
    dry = np.flatnonzero((v_kept <= 0) | (v_next <= 0))
    if dry.size:
        raise ModelError(
            f"tank {net.node_ids[tank[dry[0]]]!r} empties within one step"
        )
    pv_fed = np.zeros(n_n, dtype=bool)  # nodes a pump or valve feeds
    pv_fed[down[n_p:]] = True
    cascaded = np.flatnonzero(pv_fed[up[n_p:]])
    if cascaded.size:
        raise ModelError(
            "cascaded pumps/valves unsupported: upstream node "
            f"{net.node_ids[up[n_p + cascaded[0]]]!r} is itself fed by a "
            "pump or valve"
        )
    into_j = np.flatnonzero((q > 0) & (down < n_j))
    # a junction reads an inflowing pipe's outlet, a pump's or valve's up node
    read_j = np.where(into_j < n_p, outlet[into_j], up[into_j])
    into_tk = np.flatnonzero((q > 0) & (down >= tank0))
    reservoir = np.arange(n_j, n_j + net.n_r)
    dose = np.zeros(n_n)  # B0 weight of a booster at each node
    dose[:n_j] = qb[:n_j] / denom
    dose[tank0:] = qb[tank0:] * dt_s / v_next

    return (
        _triplets(
            (n, n), place,
            (seg, prev, under[pipe]),
            (seg, seg, mid[pipe]),
            (seg, nxt, over[pipe]),
            (tank, tank, v_kept / v_next),
            (down[into_tk], outlet[into_tk],
             dt_s * q[into_tk] / v_next[down[into_tk] - tank0]),
            (reservoir, reservoir, np.ones(net.n_r)),
        ),
        _triplets(
            (n, booster.n_b), place,
            (boosted, np.arange(booster.n_b), dose[boosted]),
            state_cols=False,
        ),
        _triplets(
            (n, n), place,
            (down[into_j], read_j, q[into_j] / denom[down[into_j]]),
            (pv, up[n_p:], np.ones(pv.size)),
        ),
    )


def _triplets(shape: tuple[int, int], place: np.ndarray | None, *blocks,
              state_cols: bool = True) -> tuple:
    """(shape, rows, cols, values) of (rows, cols, values) blocks whose
    rows are states.

    With ``place``, each state's number among the kept ones (-1 if it is
    not kept), only the kept rows are formed, renumbered, and their
    columns too where ``state_cols``; a kept row with a nonzero term in a
    state that is not kept is refused."""
    rows, cols, vals = (np.concatenate(part) for part in zip(*blocks))
    if place is None:
        return shape, rows, cols, vals
    rows = place[rows]
    formed = rows >= 0
    rows, cols, vals = rows[formed], cols[formed], vals[formed]
    if state_cols:
        cols = place[cols]
        if (cols[vals != 0.0] < 0).any():
            raise ModelError(
                "the restricted layout is not closed: a state it keeps "
                "reads a state it does not"
            )
    return shape, rows, cols, vals


# ---------------------------------------------------------------------
# Stepping and simulation
# ---------------------------------------------------------------------


def advance(
    sys: StateSpaceSystem,
    x: np.ndarray,
    u: np.ndarray,
    n: int,
    rows: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Take ``n`` steps of one system under one held input.

    Returns the final state, a fresh array, and an (n, len(rows)) block
    whose row i is ``x[rows]`` after step i + 1 (no rows when ``rows`` is
    None).  The shapes are checked and B u is formed once for the whole
    hold; the steps are ``CSR.iterate``'s, each with the bits of
    ``A @ x + B @ u``.  With ``n = 0`` a copy of the input state comes
    back.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if x.shape != (sys.n_x,):
        raise ModelError(f"state has shape {x.shape}, expected ({sys.n_x},)")
    if u.shape != (sys.n_u,):
        raise ModelError(f"input has shape {u.shape}, expected ({sys.n_u},)")
    # B 0 is +0.0 throughout, so a zero input adds nothing to A x's bits
    return sys.a.iterate(x, n, sys.b @ u if u.any() else 0.0, rows)


def step(sys: StateSpaceSystem, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One step x' = A x + B u: the single-step case of ``advance``."""
    return advance(sys, x, u, 1)[0]


def initial_state(im: StateIndexMap) -> np.ndarray:
    """Zero everywhere but the reservoirs, which hold their sources; on a
    restricted layout, the states it keeps."""
    x0 = np.zeros(im.n_x)
    for r in im.net.reservoirs:
        x0[im.index(r.id)] = r.source_mg_l
    return x0 if im.keep is None else x0[im.keep]


@dataclass(frozen=True)
class Trajectory:
    times_s: np.ndarray   # (n+1,)
    states: np.ndarray    # (n+1, n_x)
    index_map: StateIndexMap


def iter_states(
    schedule: Iterable[tuple[StateSpaceSystem, int]],
    x0: np.ndarray,
) -> Iterator[tuple[float, np.ndarray]]:
    """Run the per-period systems in sequence with zero injection,
    yielding (t, x) per step.

    The first pair is (0.0, x0); each later one follows one ``step``, so
    only the current state is held.  ``schedule`` pairs each system with
    its step count.  It is read one pair at a time, so from an iterator
    that hands over each pair once, such as a list popped from the
    front, each system is let go once its steps are taken.
    """
    pairs = iter(schedule)
    sys, n_steps = next(pairs, (None, 0))
    if sys is None:
        raise ModelError("empty system schedule")
    n_x = sys.n_x
    x = np.asarray(x0, dtype=float).copy()
    yield 0.0, x
    zero_u = np.zeros(sys.n_u)
    t = 0.0
    while sys is not None:
        if sys.n_x != n_x:
            raise ModelError("schedule systems have mismatched state sizes")
        for _ in range(n_steps):
            x = step(sys, x, zero_u)
            t += sys.dt_s
            yield t, x
        sys, n_steps = next(pairs, (None, 0))


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
) -> Trajectory:
    """Collect every step of ``iter_states`` into one Trajectory.

    This holds (steps + 1) x n_x floats; to export or reduce a long run,
    consume ``iter_states`` (or ``per_minute`` over it) instead.
    """
    pairs = iter_states(schedule, x0)
    t0, x = next(pairs)  # raises on an empty schedule
    im = schedule[0][0].index_map
    n_total = sum(n for _, n in schedule)
    states = np.empty((n_total + 1, im.n_x))
    times = np.empty(n_total + 1)
    times[0], states[0] = t0, x
    for k, (t, x) in enumerate(pairs, start=1):
        times[k], states[k] = t, x
    return Trajectory(times_s=times, states=states, index_map=im)


def state_layout(
    net: WaterNetwork, layout: StateIndexMap | int | Sequence[int]
) -> StateIndexMap:
    """``layout`` if it is a state layout of ``net``, else the layout of
    ``net`` built from ``layout`` as its segment counts."""
    if not isinstance(layout, StateIndexMap):
        return StateIndexMap(net, layout)
    if layout.net is not net:
        raise ModelError("the state layout belongs to another network")
    return layout


def booster_layout(net: WaterNetwork, profile: HydraulicProfile) -> BoosterLayout:
    """One booster at every node with a positive booster flow in some
    period of ``profile``, in node-index order."""
    active = np.flatnonzero(
        np.any([p.booster_flows > 0 for p in profile.periods], axis=0)
    ).tolist()
    return BoosterLayout(tuple(net.node_ids[i] for i in active), tuple(active))


def build_schedule(
    net: WaterNetwork,
    profile: HydraulicProfile,
    layout: StateIndexMap | int | Sequence[int],
    booster: BoosterLayout | None = None,
    k_pipe: np.ndarray | None = None,
    periods: range | None = None,
) -> list[tuple[StateSpaceSystem, int]]:
    """Assemble one system per hydraulic period with its step count.

    ``layout`` is the state layout of ``net``, or the segment counts to
    build it from; every system shares it as its ``index_map``, so
    schedules built from one layout share it too.  On a restricted
    layout, such as ``im.restrict(sensor_closure(...))``, each system is
    assembled on the kept states alone (``assemble_system``), and the
    step is still set by every pipe.  ``periods`` picks the
    period indices to assemble, all by default; each system keeps its
    index in ``profile`` as its ``period_id``.  The water-quality step is
    recomputed per period from that period's velocities.  Without a
    ``booster`` layout, ``booster_layout`` places one from the whole
    ``profile``, so B's columns do not depend on which periods are
    assembled.  ``k_pipe`` defaults to the network's
    ``nominal_pipe_rates``.
    """
    im = state_layout(net, layout)
    if booster is None:
        booster = booster_layout(net, profile)
    if k_pipe is None:
        k_pipe = nominal_pipe_rates(net)
    if periods is None:
        periods = range(len(profile.periods))
    schedule = []
    for pid in periods:
        period = profile.periods[pid]
        dt = compute_time_step(im, period.flows, period.duration_s)
        sys = assemble_system(im, booster, period, dt, k_pipe, period_id=pid)
        n_steps = int(round(period.duration_s / dt))
        schedule.append((sys, n_steps))
    return schedule


def _dependencies(net: WaterNetwork, flows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One period's (entity, entity it reads) pairs, by entity position.

    A pipe reads both of its end nodes; a pump or valve, its upstream
    node; a junction, each pipe flowing into it and the upstream node of
    each pump or valve flowing into it; a tank, each link flowing into
    it.  A reservoir reads nothing.  "Reads" covers A0 and M alike, so
    every state of an entity's rows of A lies in what it reaches.
    """
    n_n, n_p = net.n_n, net.n_p
    up, down = net.link_ends
    flip = flows < 0
    up, down = np.where(flip, down, up), np.where(flip, up, down)
    link = n_n + np.arange(net.n_links)
    fed = (flows != 0) & ((down < net.n_j) | (down >= n_n - net.n_tk))
    read = np.where((link >= n_n + n_p) & (down < net.n_j), up, link)
    return (
        np.concatenate([link[:n_p], link[:n_p], down[fed], link[n_p:]]),
        np.concatenate([up[:n_p], down[:n_p], read[fed], up[n_p:]]),
    )


def sensor_closure(
    im: StateIndexMap,
    sensors: Sequence[str],
    periods: Iterable[HydraulicPeriod],
) -> np.ndarray:
    """The sensors' upstream closure over ``periods``: the sorted
    positions, in the whole layout ``im``, of the states their readings
    depend on.

    It is found from the flows alone, before any matrix exists, as the
    entities that the sensors' entities reach backwards through every
    period's ``_dependencies`` at once, so each of their rows reads only
    kept states in every period; a kept entity keeps all of its states.
    A junction reads the upstream node of a pump or valve that feeds it,
    not the pump's or valve's state, so a pump or valve is kept only
    where a sensor or a kept tank reads it.  ``build_schedule`` on
    ``im.restrict(keep)`` then steps every kept state, and so every
    sensor, bit for bit as the whole layout does.
    """
    net = im.net
    n_e = net.n_n + net.n_links
    pairs = [_dependencies(net, np.asarray(p.flows, dtype=float)) for p in periods]
    who = np.concatenate([w for w, _ in pairs])
    reads = np.concatenate([r for _, r in pairs])
    graph = CSR.from_triplets((n_e, n_e), who, reads, np.ones(who.size))
    at = [im.parse_spec(s)[0] for s in sensors]  # a state of each sensor
    frontier = np.searchsorted(im.offsets, at, side="right") - 1  # its entity
    reached = np.zeros(n_e, dtype=bool)
    while frontier.size:
        reached[frontier] = True
        fresh = np.zeros(n_e, dtype=bool)
        fresh[graph.row_entries(frontier)[1]] = True
        frontier = np.flatnonzero(fresh & ~reached)
    return np.flatnonzero(np.repeat(reached, im.counts))


# ---------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------


def export_system(sys: StateSpaceSystem, directory: str, prefix: str = "system") -> list[str]:
    """Write sparse triplets (row,col,value) and the entity index map."""
    os.makedirs(directory, exist_ok=True)
    written = []
    for name, mat in (("A", sys.a), ("B", sys.b)):
        path = os.path.join(directory, f"{prefix}_{name}.csv")
        # canonical CSR entries are already in row-major order
        triplets = zip(
            mat.row_ids().tolist(), mat.indices.tolist(), mat.data.tolist()
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
