"""Random consistent test networks with matching hydraulic schedules.

Networks are spanning trees rooted at a reservoir, flows routed leafward
so every junction balances exactly (inflow + booster = outflow + demand).
Extra reservoirs and loop-closing pipes carry zero flow; tanks are leaf
nodes that only fill.  Pipe diameters are sized from the routed flow so
velocities land in a realistic range and the stability step is not
pathological.

Output is the same text formats the parsers consume, so generated cases
exercise the full ingestion path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import units
from .errors import NetworkError
from .hydraulics import HydraulicProfile, load_hydraulics
from .network import WaterNetwork, parse_network


@dataclass(frozen=True)
class SynthSpec:
    n_junctions: int = 5
    n_reservoirs: int = 1
    n_tanks: int = 1
    n_extra_pipes: int = 0  # zero-flow loop closers
    n_pumps: int = 0
    n_valves: int = 0
    n_boosters: int = 1
    n_periods: int = 2
    period_s: float = 3600.0
    seed: int = 0
    kb_range: tuple[float, float] = (0.05, 0.5)   # 1/h
    demand_range: tuple[float, float] = (2.0, 20.0)  # GPM


def synth_case(spec: SynthSpec) -> tuple[str, str]:
    """Generate (network text, hydraulics CSV text) for a spec."""
    rng = np.random.default_rng(spec.seed)
    if spec.n_junctions < 1 or spec.n_reservoirs < 1:
        raise NetworkError("need at least one junction and one reservoir")
    if spec.n_pumps > spec.n_reservoirs:
        raise NetworkError("at most one pump per reservoir outlet")

    junctions = [f"J{i+1}" for i in range(spec.n_junctions)]
    reservoirs = [f"R{i+1}" for i in range(spec.n_reservoirs)]
    tanks = [f"TK{i+1}" for i in range(spec.n_tanks)]

    # Tree: R1 -> J1, every later junction/tank hangs off a random junction.
    parent: dict[str, str] = {"J1": "R1"}
    children: dict[str, list[str]] = {n: [] for n in junctions + reservoirs + tanks}
    children["R1"].append("J1")
    for j in junctions[1:]:
        p = junctions[rng.integers(0, junctions.index(j))]
        parent[j] = p
        children[p].append(j)
    for tk in tanks:
        p = junctions[int(rng.integers(0, spec.n_junctions))]
        parent[tk] = p
        children[p].append(tk)
    # Extra reservoirs feed random junctions through zero-flow links, so
    # a pump can sit on every reservoir outlet.
    res_links = [
        (r, junctions[int(rng.integers(0, spec.n_junctions))])
        for r in reservoirs[1:]
    ]

    demand = {
        j: float(rng.uniform(*spec.demand_range)) for j in junctions
    }
    tank_in = {tk: float(rng.uniform(*spec.demand_range)) for tk in tanks}
    boosted = list(rng.choice(spec.n_junctions, size=min(spec.n_boosters, spec.n_junctions), replace=False))
    booster = {
        junctions[i]: min(2.0, 0.2 * demand[junctions[i]]) for i in boosted
    }

    def route(dem: dict[str, float]) -> dict[tuple[str, str], float]:
        """GPM on every tree link and reservoir feeder under the junction
        demands ``dem``: a parent link carries its subtree's net draw."""

        def inflow(node: str) -> float:
            if node in tank_in:
                return tank_in[node]
            if node.startswith("R"):
                return 0.0
            total = dem[node] - booster.get(node, 0.0)
            for c in children[node]:
                total += inflow(c)
            return total

        flows = {(parent[n], n): inflow(n) for n in parent}
        flows.update({l: 0.0 for l in res_links})
        return flows

    # Link list: parent links in tree order, reservoir feeders, loop closers.
    tree_links = [(parent[n], n) for n in parent] + res_links
    flows_gpm = route(demand)

    # Pumps take over reservoir outlets; valves need a pipe-fed upstream.
    pump_links = set()
    for k in range(spec.n_pumps):
        up = reservoirs[k]
        outs = [l for l in tree_links if l[0] == up]
        if outs:
            pump_links.add(outs[0])
    valve_links = set()
    if spec.n_valves:
        for link in tree_links:
            up = link[0]
            if (
                up.startswith("J")
                and (parent[up], up) not in pump_links
                and link not in pump_links
            ):
                valve_links.add(link)
                if len(valve_links) >= spec.n_valves:
                    break
        if len(valve_links) < spec.n_valves:
            raise NetworkError("not enough pipe-fed links for the requested valves")

    extra_links = []
    all_nodes = junctions + tanks
    for _ in range(spec.n_extra_pipes):
        a, b = rng.choice(len(all_nodes), size=2, replace=False)
        extra_links.append((all_nodes[int(a)], all_nodes[int(b)]))

    def diameter_for(q_gpm: float) -> float:
        if q_gpm <= 0:
            return 0.2
        v_target = float(rng.uniform(0.4, 1.2))
        q = units.gpm(q_gpm)
        return float(np.sqrt(4.0 * q / (np.pi * v_target)))

    net_lines = ["[JUNCTIONS]"] + junctions
    net_lines.append("[RESERVOIRS]")
    net_lines += [f"{r} {rng.uniform(0.5, 1.0):.4f}" for r in reservoirs]
    net_lines.append("[TANKS]")
    net_lines += tanks
    pipes, pumps, valves = [], [], []
    link_ids = []  # in tree_links order, then the loop closers
    link_id = {"P": 0, "M": 0, "V": 0}

    def add_link(up, down, q_gpm):
        if (up, down) in pump_links:
            link_id["M"] += 1
            lid = f"M{link_id['M']}"
            pumps.append(f"{lid} {up} {down}")
        elif (up, down) in valve_links:
            link_id["V"] += 1
            lid = f"V{link_id['V']}"
            valves.append(f"{lid} {up} {down}")
        else:
            link_id["P"] += 1
            lid = f"P{link_id['P']}"
            length = float(rng.uniform(200.0, 1000.0))
            kb = float(rng.uniform(*spec.kb_range))
            pipes.append(
                f"{lid} {up} {down} {length:.2f} {diameter_for(q_gpm):.4f} "
                f"{kb:.4f} 0 0"
            )
        link_ids.append(lid)

    for up, down in tree_links:
        add_link(up, down, flows_gpm[(up, down)])
    for up, down in extra_links:
        add_link(up, down, 0.0)
    net_lines += ["[PIPES]"] + pipes + ["[PUMPS]"] + pumps + ["[VALVES]"] + valves
    net_text = "\n".join(net_lines) + "\n"

    # Hydraulics: demands scale per period, flows re-routed to match.
    csv_lines = ["period,entity,kind,value"]
    tank_vol = {tk: float(rng.uniform(5e4, 2e5)) for tk in tanks}  # ft^3
    for p in range(spec.n_periods):
        factor = 1.0 if p == 0 else float(rng.uniform(0.7, 1.3))
        per_demand = {j: demand[j] * factor for j in junctions}
        per_flow = route(per_demand)
        for lid, link in zip(link_ids, tree_links):
            csv_lines.append(f"{p},{lid},flow,{per_flow[link]:.17g}")
        for lid in link_ids[len(tree_links):]:
            csv_lines.append(f"{p},{lid},flow,0")
        for j in junctions:
            csv_lines.append(f"{p},{j},demand,{per_demand[j]:.17g}")
        for tk in tanks:
            csv_lines.append(f"{p},{tk},volume,{tank_vol[tk]:.17g}")
            tank_vol[tk] += (
                units.gpm(tank_in[tk]) * spec.period_s / units.FT3_TO_M3
            )
        for j, q in booster.items():
            csv_lines.append(f"{p},{j},booster_flow,{q:.17g}")
    return net_text, "\n".join(csv_lines) + "\n"


def synth_network(spec: SynthSpec) -> tuple[WaterNetwork, HydraulicProfile]:
    """Generate and parse a case in one step."""
    net_text, csv_text = synth_case(spec)
    net = parse_network(net_text)
    profile = load_hydraulics(net, csv_text, period_duration_s=spec.period_s)
    return net, profile
