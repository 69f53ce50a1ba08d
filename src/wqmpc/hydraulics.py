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


def load_hydraulics(
    net: WaterNetwork,
    source: str,
    period_duration_s: float = 3600.0,
) -> HydraulicProfile:
    """Read a CSV schedule (text content) and validate it against ``net``.

    Every period must cover every link flow, junction demand, and tank
    volume; booster flows default to zero.  A record for an unknown
    entity, of a kind that does not apply to its entity (``flow`` is for
    links, ``demand`` for junctions, ``volume`` for tanks,
    ``booster_flow`` for nodes), repeating an earlier (period, entity,
    kind) record, or with a value that is not finite is refused.  Junction flow-balance violations are
    warnings, not errors, and clear the ``consistent`` flag on the
    returned profile.
    """
    reader = csv.reader(io.StringIO(source))
    header = next(reader, None)
    if header is None or [h.strip() for h in header] != [
        "period", "entity", "kind", "value",
    ]:
        raise HydraulicsError(
            "hydraulics CSV must start with header 'period,entity,kind,value'"
        )
    takes = {  # the entities each kind applies to
        "flow": frozenset(net.link_ids),
        "demand": frozenset(net.node_ids[: net.n_j]),
        "volume": frozenset(net.node_ids[net.n_j + net.n_r:]),
        "booster_flow": frozenset(net.node_ids),
    }
    known = takes["flow"] | takes["booster_flow"]  # every link and node
    records: dict[int, dict[tuple[str, str], float]] = {}
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
        if kind not in _KINDS:
            raise HydraulicsError(f"line {lineno}: unknown kind {kind!r}")
        if entity not in known:
            raise HydraulicsError(f"line {lineno}: unknown entity {entity!r}")
        if entity not in takes[kind]:
            raise HydraulicsError(
                f"line {lineno}: kind {kind!r} does not apply to {entity!r}"
            )
        data = records.setdefault(period, {})
        if (entity, kind) in data:
            raise HydraulicsError(
                f"line {lineno}: repeated {kind!r} record for {entity!r} "
                f"in period {period}"
            )
        data[(entity, kind)] = value
    if not records:
        raise HydraulicsError("no hydraulic records found")

    period_ids = sorted(records)
    if period_ids != list(range(len(period_ids))):
        raise HydraulicsError("periods must be contiguous starting at 0")

    junction_ids = [j.id for j in net.junctions]
    tank_ids = [t.id for t in net.tanks]
    up, down = net.link_ends

    def node_sum(ends: np.ndarray, values: np.ndarray) -> np.ndarray:
        return np.bincount(ends, weights=values, minlength=net.n_n)[: net.n_j]

    periods = []
    residuals = np.zeros((len(period_ids), net.n_j))
    for p in period_ids:
        data = records[p]
        flows = np.empty(net.n_links)
        for i, lid in enumerate(net.link_ids):
            if (lid, "flow") not in data:
                raise HydraulicsError(f"period {p}: missing flow for {lid!r}")
            flows[i] = units.gpm(data[(lid, "flow")])
        demands = np.empty(net.n_j)
        for i, jid in enumerate(junction_ids):
            if (jid, "demand") not in data:
                raise HydraulicsError(f"period {p}: missing demand for {jid!r}")
            demands[i] = units.gpm(data[(jid, "demand")])
            if demands[i] < 0:
                raise HydraulicsError(f"period {p}: negative demand at {jid!r}")
        volumes = np.empty(net.n_tk)
        for i, tid in enumerate(tank_ids):
            if (tid, "volume") not in data:
                raise HydraulicsError(f"period {p}: missing volume for {tid!r}")
            volumes[i] = units.ft3(data[(tid, "volume")])
            if volumes[i] <= 0:
                raise HydraulicsError(
                    f"period {p}: empty tank unsupported ({tid!r})"
                )
        boosters = np.zeros(net.n_n)
        for i, nid in enumerate(net.node_ids):
            if (nid, "booster_flow") in data:
                boosters[i] = units.gpm(data[(nid, "booster_flow")])

        # Junction balance: inflow - outflow + booster - demand, relative
        # to the total flow through the junction.
        net_in = node_sum(down, flows) - node_sum(up, flows)
        resid = net_in + boosters[: net.n_j] - demands
        through = node_sum(down, np.abs(flows)) + node_sum(up, np.abs(flows))
        scale = np.maximum(np.abs(demands) + through, 1e-30)
        residuals[p] = resid / scale
        periods.append(
            HydraulicPeriod(
                flows=flows,
                demands=demands,
                tank_volumes=volumes,
                booster_flows=boosters,
                duration_s=float(period_duration_s),
            )
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
        periods=tuple(periods),
        balance_residuals=residuals,
        consistent=consistent,
    )
