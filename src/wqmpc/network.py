"""Network topology: parsing, validation, link endpoints and booster placement.

A network is a directed graph whose nodes are junctions, reservoirs, and
tanks, and whose links are pipes, pumps, and valves.  Link directions in
the input file are declaration conventions only: ``link_ends`` holds each
link's declared (upstream, downstream) node indices, and a hydraulic
period swaps the two wherever its flow is negative.

Node ordering everywhere: junctions, reservoirs, tanks (declaration order
within each class).  Link ordering: pipes, pumps, valves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import NetworkError


@dataclass(frozen=True)
class Junction:
    id: str


@dataclass(frozen=True)
class Reservoir:
    id: str
    source_mg_l: float = 0.0


@dataclass(frozen=True)
class Tank:
    id: str


@dataclass(frozen=True)
class Pipe:
    id: str
    up: str
    down: str
    length_m: float
    diameter_m: float
    kb: float = 0.0  # bulk rate constant, 1/h
    kw: float = 0.0  # wall rate constant, 1/h
    kf: float = 0.0  # mass-transfer coefficient, 1/h

    @property
    def area_m2(self) -> float:
        return np.pi * self.diameter_m ** 2 / 4.0


@dataclass(frozen=True)
class Pump:
    id: str
    up: str
    down: str


@dataclass(frozen=True)
class Valve:
    id: str
    up: str
    down: str


@dataclass(frozen=True)
class WaterNetwork:
    junctions: tuple[Junction, ...]
    reservoirs: tuple[Reservoir, ...]
    tanks: tuple[Tank, ...]
    pipes: tuple[Pipe, ...]
    pumps: tuple[Pump, ...]
    valves: tuple[Valve, ...]

    def __post_init__(self):
        _validate(self)

    # -- counts ------------------------------------------------------
    @property
    def n_j(self) -> int:
        return len(self.junctions)

    @property
    def n_r(self) -> int:
        return len(self.reservoirs)

    @property
    def n_tk(self) -> int:
        return len(self.tanks)

    @property
    def n_p(self) -> int:
        return len(self.pipes)

    @property
    def n_m(self) -> int:
        return len(self.pumps)

    @property
    def n_v(self) -> int:
        return len(self.valves)

    @property
    def n_n(self) -> int:
        return self.n_j + self.n_r + self.n_tk

    @property
    def n_links(self) -> int:
        return self.n_p + self.n_m + self.n_v

    def counts(self) -> dict[str, int]:
        return {
            "n_J": self.n_j,
            "n_R": self.n_r,
            "n_TK": self.n_tk,
            "n_P": self.n_p,
            "n_M": self.n_m,
            "n_V": self.n_v,
        }

    # -- orderings (built once; not dataclass fields, so == ignores them) --
    @cached_property
    def node_ids(self) -> tuple[str, ...]:
        return tuple(
            n.id for n in (*self.junctions, *self.reservoirs, *self.tanks)
        )

    @cached_property
    def links(self) -> tuple:
        return (*self.pipes, *self.pumps, *self.valves)

    @cached_property
    def link_ids(self) -> tuple[str, ...]:
        return tuple(l.id for l in self.links)

    @cached_property
    def _node_pos(self) -> dict[str, int]:
        return {nid: i for i, nid in enumerate(self.node_ids)}

    @cached_property
    def _link_pos(self) -> dict[str, int]:
        return {lid: i for i, lid in enumerate(self.link_ids)}

    @cached_property
    def link_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """Declared (upstream, downstream) node index of every link."""
        ends = np.array(
            [(self._node_pos[l.up], self._node_pos[l.down]) for l in self.links],
            dtype=np.intp,
        ).reshape(-1, 2)
        ends.setflags(write=False)
        return ends[:, 0], ends[:, 1]

    def node_index(self, node_id: str) -> int:
        try:
            return self._node_pos[node_id]
        except KeyError:
            raise NetworkError(f"unknown node {node_id!r}") from None

    def link_index(self, link_id: str) -> int:
        try:
            return self._link_pos[link_id]
        except KeyError:
            raise NetworkError(f"unknown link {link_id!r}") from None

    def node_kind(self, node_id: str) -> str:
        i = self.node_index(node_id)
        if i < self.n_j:
            return "junction"
        if i < self.n_j + self.n_r:
            return "reservoir"
        return "tank"


def _validate(net: WaterNetwork) -> None:
    if not net.node_ids:
        raise NetworkError("no nodes defined")
    seen: set[str] = set()
    for nid in net.node_ids:
        if nid in seen:
            raise NetworkError(f"duplicate node id {nid!r}")
        seen.add(nid)
    link_seen: set[str] = set()
    for link in net.links:
        if link.id in link_seen or link.id in seen:
            raise NetworkError(f"duplicate link id {link.id!r}")
        link_seen.add(link.id)
        for end in (link.up, link.down):
            if end not in seen:
                raise NetworkError(
                    f"link {link.id!r} references unknown node {end!r}"
                )
        if link.up == link.down:
            raise NetworkError(f"link {link.id!r} connects a node to itself")
    for pipe in net.pipes:
        if pipe.length_m <= 0:
            raise NetworkError(f"pipe {pipe.id!r} has nonpositive length")
        if pipe.diameter_m <= 0:
            raise NetworkError(f"pipe {pipe.id!r} has nonpositive diameter")


# ---------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------

_SECTIONS = ("JUNCTIONS", "RESERVOIRS", "TANKS", "PIPES", "PUMPS", "VALVES")


def parse_network(text: str) -> WaterNetwork:
    """Parse the sectioned, whitespace-delimited network description.

    Sections: [JUNCTIONS] id; [RESERVOIRS] id source_mg_L; [TANKS] id;
    [PIPES] id from to length_m diameter_m kb kw kf; [PUMPS]/[VALVES]
    id from to.  ``;`` starts a comment.
    """
    rows: dict[str, list[tuple[int, list[str]]]] = {s: [] for s in _SECTIONS}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split(";", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            name = line.strip("[]").strip().upper()
            if name not in _SECTIONS:
                raise NetworkError(f"line {lineno}: unknown section [{name}]")
            section = name
            continue
        if section is None:
            raise NetworkError(f"line {lineno}: data before any section header")
        rows[section].append((lineno, line.split()))

    def fields(lineno, toks, n, kind):
        if len(toks) != n:
            raise NetworkError(
                f"line {lineno}: {kind} entry needs {n} fields, got {len(toks)}"
            )
        return toks

    def num(lineno, tok, what):
        try:
            return float(tok)
        except ValueError:
            raise NetworkError(f"line {lineno}: bad number for {what}: {tok!r}")

    junctions = tuple(
        Junction(fields(ln, t, 1, "junction")[0]) for ln, t in rows["JUNCTIONS"]
    )
    reservoirs = tuple(
        Reservoir(t[0], num(ln, t[1], "source concentration"))
        for ln, t in (
            (ln, fields(ln, t, 2, "reservoir")) for ln, t in rows["RESERVOIRS"]
        )
    )
    tanks = tuple(Tank(fields(ln, t, 1, "tank")[0]) for ln, t in rows["TANKS"])
    pipes = tuple(
        Pipe(
            t[0], t[1], t[2],
            num(ln, t[3], "length"),
            num(ln, t[4], "diameter"),
            num(ln, t[5], "kb"),
            num(ln, t[6], "kw"),
            num(ln, t[7], "kf"),
        )
        for ln, t in ((ln, fields(ln, t, 8, "pipe")) for ln, t in rows["PIPES"])
    )
    pumps = tuple(
        Pump(*fields(ln, t, 3, "pump")) for ln, t in rows["PUMPS"]
    )
    valves = tuple(
        Valve(*fields(ln, t, 3, "valve")) for ln, t in rows["VALVES"]
    )
    return WaterNetwork(junctions, reservoirs, tanks, pipes, pumps, valves)


def serialize_network(net: WaterNetwork) -> str:
    out = ["[JUNCTIONS]"]
    out += [j.id for j in net.junctions]
    out.append("[RESERVOIRS]")
    out += [f"{r.id} {r.source_mg_l!r}" for r in net.reservoirs]
    out.append("[TANKS]")
    out += [t.id for t in net.tanks]
    out.append("[PIPES]")
    out += [
        f"{p.id} {p.up} {p.down} {p.length_m!r} {p.diameter_m!r} "
        f"{p.kb!r} {p.kw!r} {p.kf!r}"
        for p in net.pipes
    ]
    out.append("[PUMPS]")
    out += [f"{m.id} {m.up} {m.down}" for m in net.pumps]
    out.append("[VALVES]")
    out += [f"{v.id} {v.up} {v.down}" for v in net.valves]
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------
# Boosters
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class BoosterLayout:
    """The nodes that carry a booster station, with their node indices."""

    booster_nodes: tuple[str, ...]
    indices: tuple[int, ...]

    @property
    def n_b(self) -> int:
        return len(self.booster_nodes)


def build_booster_matrix(
    net: WaterNetwork, booster_nodes: Iterable[str]
) -> BoosterLayout:
    nodes = tuple(booster_nodes)
    indices: dict[str, int] = {}
    for nid in nodes:
        if nid in indices:
            raise NetworkError(
                f"node {nid!r} listed twice; at most one booster per node"
            )
        indices[nid] = net.node_index(nid)
    return BoosterLayout(booster_nodes=nodes, indices=tuple(indices.values()))
