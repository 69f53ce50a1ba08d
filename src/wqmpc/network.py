"""Network topology: parsing, validation, the entity index and link endpoints.

A network is a directed graph whose nodes are junctions, reservoirs, and
tanks, and whose links are pipes, pumps, and valves.  ``WaterNetwork`` is
a table of columns: one id tuple per entity class, each link's declared
upstream and downstream ids, the reservoirs' sources and the pipes'
length, diameter and rate constants.  Link directions in the input file
are declaration conventions only: ``link_ends`` holds each link's
declared (upstream, downstream) node indices, and a hydraulic period
swaps the two wherever its flow is negative.

Node ordering everywhere: junctions, reservoirs, tanks (declaration order
within each class).  Link ordering: pipes, pumps, valves.  Entity
ordering: the nodes, then the links; ``entity_index`` and ``link_ends``,
built in one pass while the network is validated, map every id to its
entity position and every link to its ends, and node, link and
state-layout lookups all read them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NetworkError


@dataclass(frozen=True)
class WaterNetwork:
    junctions: tuple[str, ...]
    reservoirs: tuple[str, ...]
    tanks: tuple[str, ...]
    pipes: tuple[str, ...]
    pumps: tuple[str, ...]
    valves: tuple[str, ...]
    up: tuple[str, ...]             # each link's declared upstream node id
    down: tuple[str, ...]           # and its downstream one, in link order
    source_mg_l: tuple[float, ...]  # each reservoir's source, mg/L
    length_m: tuple[float, ...]     # each pipe's length, m,
    diameter_m: tuple[float, ...]   # diameter, m,
    kb: tuple[float, ...]           # bulk rate constant, 1/h,
    kw: tuple[float, ...]           # wall rate constant, m/h,
    kf: tuple[float, ...]           # and mass-transfer coefficient, m/h
    # every node id, then every link id, to its entity position
    entity_index: dict[str, int] = field(init=False, repr=False, compare=False)
    # declared (upstream, downstream) node index of every link, read-only
    link_ends: tuple[np.ndarray, np.ndarray] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        index, ends = _validate(self)
        object.__setattr__(self, "entity_index", index)
        object.__setattr__(self, "link_ends", ends)

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
        return self.junctions + self.reservoirs + self.tanks

    @cached_property
    def link_ids(self) -> tuple[str, ...]:
        return self.pipes + self.pumps + self.valves


def _validate(
    net: WaterNetwork,
) -> tuple[dict[str, int], tuple[np.ndarray, np.ndarray]]:
    """Refuse the first fault: nodes first, then each link in order (its
    id, its ends, a self-loop), then the pipes' dimensions.  Returns what
    is built on the way: the entity index, every node id, then every link
    id, to its position in that order; and ``link_ends``."""
    if not net.node_ids:
        raise NetworkError("no nodes defined")
    index: dict[str, int] = {}
    for nid in net.node_ids:
        if nid in index:
            raise NetworkError(f"duplicate node id {nid!r}")
        index[nid] = len(index)
    n_n = len(index)
    ends: list[int] = []
    for lid, up, down in zip(net.link_ids, net.up, net.down):
        if lid in index:
            raise NetworkError(f"duplicate link id {lid!r}")
        for end in (up, down):
            at = index.get(end, n_n)
            if at >= n_n:
                raise NetworkError(
                    f"link {lid!r} references unknown node {end!r}"
                )
            ends.append(at)
        if up == down:
            raise NetworkError(f"link {lid!r} connects a node to itself")
        index[lid] = len(index)
    for pid, length, diameter in zip(net.pipes, net.length_m, net.diameter_m):
        if length <= 0:
            raise NetworkError(f"pipe {pid!r} has nonpositive length")
        if diameter <= 0:
            raise NetworkError(f"pipe {pid!r} has nonpositive diameter")
    pairs = np.array(ends, dtype=np.intp).reshape(-1, 2)
    pairs.setflags(write=False)  # shared by every period
    return index, (pairs[:, 0], pairs[:, 1])


# ---------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------

# Each section: the entity's name in messages, and its fields in order,
# each the name a bad number is reported by, or None for an id.
_SECTIONS = {
    "JUNCTIONS": ("junction", (None,)),
    "RESERVOIRS": ("reservoir", (None, "source concentration")),
    "TANKS": ("tank", (None,)),
    "PIPES": (
        "pipe", (None, None, None, "length", "diameter", "kb", "kw", "kf"),
    ),
    "PUMPS": ("pump", (None, None, None)),
    "VALVES": ("valve", (None, None, None)),
}


def parse_network(text: str) -> WaterNetwork:
    """Parse the sectioned, whitespace-delimited network description.

    Sections: [JUNCTIONS] id; [RESERVOIRS] id source_mg_L; [TANKS] id;
    [PIPES] id from to length_m diameter_m kb kw kf; [PUMPS]/[VALVES]
    id from to.  ``;`` starts a comment.  An id may not contain ``,``,
    ``[`` or ``]``, which the CSV exports and entity specs reserve, and
    every number must be finite; the first malformed line in file order
    is refused with its number.
    """
    rows: dict[str, list] = {name: [] for name in _SECTIONS}
    entries = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split(";", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            name = line.strip("[]").strip().upper()
            if name not in _SECTIONS:
                raise NetworkError(f"line {lineno}: unknown section [{name}]")
            kind, names = _SECTIONS[name]
            numeric = [(i, what) for i, what in enumerate(names) if what]
            entries = rows[name]
            continue
        if entries is None:
            raise NetworkError(f"line {lineno}: data before any section header")
        toks = line.split()
        if len(toks) != len(names):
            raise NetworkError(
                f"line {lineno}: {kind} entry needs {len(names)} fields, "
                f"got {len(toks)}"
            )
        if "," in toks[0] or "[" in toks[0] or "]" in toks[0]:
            raise NetworkError(
                f"line {lineno}: {kind} id {toks[0]!r} contains ',', '[' or ']'"
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
        entries.append(toks)
    # each section's rows turned into its columns
    (junctions,), (reservoirs, sources), (tanks,), pipes, pumps, valves = (
        tuple(zip(*rows[name])) or ((),) * len(fields)
        for name, (_, fields) in _SECTIONS.items()
    )
    return WaterNetwork(
        junctions, reservoirs, tanks, pipes[0], pumps[0], valves[0],
        up=pipes[1] + pumps[1] + valves[1],
        down=pipes[2] + pumps[2] + valves[2],
        source_mg_l=sources, length_m=pipes[3], diameter_m=pipes[4],
        kb=pipes[5], kw=pipes[6], kf=pipes[7],
    )


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
