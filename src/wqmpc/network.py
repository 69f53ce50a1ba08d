"""Network topology: parsing, validation, the entity index and link endpoints.

A network is a directed graph whose nodes are junctions, reservoirs, and
tanks, and whose links are pipes, pumps, and valves.  Link directions in
the input file are declaration conventions only: ``link_ends`` holds each
link's declared (upstream, downstream) node indices, and a hydraulic
period swaps the two wherever its flow is negative.

Node ordering everywhere: junctions, reservoirs, tanks (declaration order
within each class).  Link ordering: pipes, pumps, valves.  Entity
ordering: the nodes, then the links; ``entity_index``, built once while
the network is validated, maps every id to its entity position, and
node, link and state-layout lookups all read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

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
    kw: float = 0.0  # wall rate constant, m/h
    kf: float = 0.0  # mass-transfer coefficient, m/h

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
    # every node id, then every link id, to its entity position
    entity_index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "entity_index", _validate(self))

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
    def link_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """Declared (upstream, downstream) node index of every link."""
        index = self.entity_index
        ends = np.array(
            [(index[l.up], index[l.down]) for l in self.links], dtype=np.intp,
        ).reshape(-1, 2)
        ends.setflags(write=False)
        return ends[:, 0], ends[:, 1]

    def node_index(self, node_id: str) -> int:
        i = self.entity_index.get(node_id, self.n_n)
        if i >= self.n_n:
            raise NetworkError(f"unknown node {node_id!r}")
        return i


def _validate(net: WaterNetwork) -> dict[str, int]:
    """Refuse the first fault: nodes first, then each link in order (its
    id, its ends, a self-loop), then the pipes' dimensions.  Returns the
    entity index built on the way: every node id, then every link id, to
    its position in that order."""
    if not net.node_ids:
        raise NetworkError("no nodes defined")
    index: dict[str, int] = {}
    for nid in net.node_ids:
        if nid in index:
            raise NetworkError(f"duplicate node id {nid!r}")
        index[nid] = len(index)
    n_n = len(index)
    for link in net.links:
        if link.id in index:
            raise NetworkError(f"duplicate link id {link.id!r}")
        for end in (link.up, link.down):
            if index.get(end, n_n) >= n_n:
                raise NetworkError(
                    f"link {link.id!r} references unknown node {end!r}"
                )
        if link.up == link.down:
            raise NetworkError(f"link {link.id!r} connects a node to itself")
        index[link.id] = len(index)
    for pipe in net.pipes:
        if pipe.length_m <= 0:
            raise NetworkError(f"pipe {pipe.id!r} has nonpositive length")
        if pipe.diameter_m <= 0:
            raise NetworkError(f"pipe {pipe.id!r} has nonpositive diameter")
    return index


# ---------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------

# Each section: the entity class it declares, the entity's name in
# messages, and its fields in order, each the name a bad number is
# reported by, or None for an id.
_SECTIONS = {
    "JUNCTIONS": (Junction, "junction", (None,)),
    "RESERVOIRS": (Reservoir, "reservoir", (None, "source concentration")),
    "TANKS": (Tank, "tank", (None,)),
    "PIPES": (
        Pipe, "pipe",
        (None, None, None, "length", "diameter", "kb", "kw", "kf"),
    ),
    "PUMPS": (Pump, "pump", (None, None, None)),
    "VALVES": (Valve, "valve", (None, None, None)),
}


def parse_network(text: str) -> WaterNetwork:
    """Parse the sectioned, whitespace-delimited network description.

    Sections: [JUNCTIONS] id; [RESERVOIRS] id source_mg_L; [TANKS] id;
    [PIPES] id from to length_m diameter_m kb kw kf; [PUMPS]/[VALVES]
    id from to.  ``;`` starts a comment.  Every number must be finite;
    the first malformed line in file order is refused with its number.
    """
    built: dict[str, list] = {name: [] for name in _SECTIONS}
    entries = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split(";", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            name = line.strip("[]").strip().upper()
            if name not in _SECTIONS:
                raise NetworkError(f"line {lineno}: unknown section [{name}]")
            cls, kind, names = _SECTIONS[name]
            numeric = [(i, what) for i, what in enumerate(names) if what]
            entries = built[name]
            continue
        if entries is None:
            raise NetworkError(f"line {lineno}: data before any section header")
        toks = line.split()
        if len(toks) != len(names):
            raise NetworkError(
                f"line {lineno}: {kind} entry needs {len(names)} fields, "
                f"got {len(toks)}"
            )
        for i, what in numeric:
            try:
                value = float(toks[i])
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise NetworkError(
                    f"line {lineno}: bad number for {what}: {toks[i]!r}"
                )
            toks[i] = value
        entries.append(cls(*toks))
    return WaterNetwork(*(tuple(built[name]) for name in _SECTIONS))


# ---------------------------------------------------------------------
# Boosters
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class BoosterLayout:
    """The nodes that carry a booster station, with their node indices
    (placed by ``dynamics.booster_layout``)."""

    booster_nodes: tuple[str, ...]
    indices: tuple[int, ...]

    @property
    def n_b(self) -> int:
        return len(self.booster_nodes)
