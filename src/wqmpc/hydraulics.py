"""Hydraulic schedules: ingestion, unit conversion, and balance checks.

Hydraulics are input data, never computed here.  The CSV contract is
``period,entity,kind,value`` with kind in {flow, demand, volume,
booster_flow}; flows/demands/booster flows in GPM, tank volumes in ft^3.
Everything is converted to SI on load.
"""

from __future__ import annotations

import csv
import io
import logging
import math
from dataclasses import dataclass

import numpy as np

from . import units
from .errors import HydraulicsError
from .network import WaterNetwork

log = logging.getLogger(__name__)

BALANCE_RTOL = 1e-9


@dataclass(frozen=True)
class HydraulicPeriod:
    """One hydraulic period, SI units.

    ``flows`` are signed relative to the declared link direction;
    ``tank_volumes`` are volumes at the period start.
    """

    flows: np.ndarray          # (n_links,) m^3/s
    demands: np.ndarray        # (n_j,) m^3/s
    tank_volumes: np.ndarray   # (n_tk,) m^3
    booster_flows: np.ndarray  # (n_n,) m^3/s
    duration_s: float


@dataclass(frozen=True)
class HydraulicProfile:
    periods: tuple[HydraulicPeriod, ...]
    balance_residuals: np.ndarray  # (n_periods, n_j) relative residuals
    consistent: bool               # all residuals within BALANCE_RTOL

    @property
    def total_duration_s(self) -> float:
        return sum(p.duration_s for p in self.periods)


_KINDS = ("flow", "demand", "volume", "booster_flow")
_ABSENT = math.nan


def load_hydraulics(
    net: WaterNetwork,
    source: str,
    period_duration_s: float = 3600.0,
) -> HydraulicProfile:
    """Read a CSV schedule (text content) and validate it against ``net``.

    A period duration that is not finite and positive is refused first.
    Every period must cover every link flow, junction demand, and tank
    volume; booster flows default to zero.  A record for an unknown
    entity, of a kind that does not apply to its entity (``flow`` is for
    links, ``demand`` for junctions, ``volume`` for tanks,
    ``booster_flow`` for nodes), repeating an earlier (period, entity,
    kind) record, or with a value that is not finite is refused, with its
    line.  Then the first missing value, negative demand or empty tank,
    period by period, is refused.  Junction flow-balance violations are
    warnings, not errors, and clear the ``consistent`` flag on the
    returned profile.
    """
    duration = float(period_duration_s)
    if not (math.isfinite(duration) and duration > 0):
        raise HydraulicsError(
            f"hydraulic period duration must be finite and positive, "
            f"got {duration!r} s"
        )
    reader = csv.reader(io.StringIO(source))
    header = next(reader, None)
    if header is None or [h.strip() for h in header] != [
        "period", "entity", "kind", "value",
    ]:
        raise HydraulicsError(
            "hydraulics CSV must start with header 'period,entity,kind,value'"
        )
    # One column per (entity, kind) a period must or may give, in _KINDS
    # order: link flows, junction demands, tank volumes, node booster flows.
    j, t = net.n_j, net.n_j + net.n_r
    entities = (net.link_ids, net.node_ids[:j], net.node_ids[t:], net.node_ids)
    keys = [(e, kind) for kind, ids in zip(_KINDS, entities) for e in ids]
    column = {key: c for c, key in enumerate(keys)}
    by_period: dict[int, list[float]] = {}  # each period's values, by column
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 4:
            raise HydraulicsError(f"line {lineno}: expected 4 columns")
        try:
            period = int(row[0])
            value = float(row[3])
        except ValueError:
            raise HydraulicsError(f"line {lineno}: bad period or value")
        if not math.isfinite(value):
            raise HydraulicsError(
                f"line {lineno}: non-finite value {row[3].strip()!r}"
            )
        entity, kind = row[1].strip(), row[2].strip()
        c = column.get((entity, kind))
        if c is None:
            if kind not in _KINDS:
                raise HydraulicsError(f"line {lineno}: unknown kind {kind!r}")
            if entity not in net.entity_index:
                raise HydraulicsError(f"line {lineno}: unknown entity {entity!r}")
            raise HydraulicsError(
                f"line {lineno}: kind {kind!r} does not apply to {entity!r}"
            )
        slots = by_period.get(period)
        if slots is None:
            # values are finite, so this nan object marks an absent record
            slots = by_period[period] = [_ABSENT] * len(keys)
        if slots[c] is not _ABSENT:
            raise HydraulicsError(
                f"line {lineno}: repeated {kind!r} record for {entity!r} "
                f"in period {period}"
            )
        slots[c] = value
    if not by_period:
        raise HydraulicsError("no hydraulic records found")
    if sorted(by_period) != list(range(len(by_period))):
        raise HydraulicsError("periods must be contiguous starting at 0")

    n_p = len(by_period)
    table = np.array([by_period[p] for p in range(n_p)])  # (period, column)
    f = net.n_links  # column ends of the flows, demands and volumes
    d = f + net.n_j
    v = d + net.n_tk
    flows = units.gpm(table[:, :f])
    demands = units.gpm(table[:, f:d])
    volumes = units.ft3(table[:, d:v])
    boosters = units.gpm(np.nan_to_num(table[:, v:], nan=0.0))
    # The first fault, period by period and in column order: a missing
    # flow, demand or volume, a negative demand or an empty tank.
    fault = np.isnan(table[:, :v])
    fault[:, f:d] |= demands < 0
    fault[:, d:v] |= volumes <= 0
    if fault.any():
        p, c = divmod(int(np.argmax(fault)), v)
        entity, kind = keys[c]
        if np.isnan(table[p, c]):
            raise HydraulicsError(f"period {p}: missing {kind} for {entity!r}")
        if kind == "demand":
            raise HydraulicsError(f"period {p}: negative demand at {entity!r}")
        raise HydraulicsError(f"period {p}: empty tank unsupported ({entity!r})")

    # Junction balance: inflow - outflow + booster - demand, relative to
    # the total flow through the junction.  Each period sums its links, in
    # link order, into its own block of n_n bins.
    n_n = net.n_n
    up, down = net.link_ends
    blocks = np.arange(n_p)[:, None] * n_n

    def node_sum(ends: np.ndarray, values: np.ndarray) -> np.ndarray:
        sums = np.bincount((blocks + ends).ravel(), values.ravel(), n_p * n_n)
        return sums.reshape(n_p, n_n)[:, : net.n_j]

    net_in = node_sum(down, flows) - node_sum(up, flows)
    resid = net_in + boosters[:, : net.n_j] - demands
    through = node_sum(down, np.abs(flows)) + node_sum(up, np.abs(flows))
    scale = np.maximum(np.abs(demands) + through, 1e-30)
    residuals = resid / scale
    periods = tuple(
        HydraulicPeriod(*arrays, duration_s=duration)
        for arrays in zip(flows, demands, volumes, boosters)
    )

    consistent = bool(np.all(np.abs(residuals) <= BALANCE_RTOL))
    if not consistent:
        worst = float(np.max(np.abs(residuals)))
        log.warning(
            "hydraulic schedule violates junction flow balance "
            "(max relative residual %.3e); conservation invariants disabled",
            worst,
        )
    return HydraulicProfile(
        periods=periods,
        balance_residuals=residuals,
        consistent=consistent,
    )
