import numpy as np
import pytest

from wqmpc.errors import NetworkError
from wqmpc.network import (
    Junction,
    Pipe,
    Reservoir,
    Tank,
    WaterNetwork,
    build_booster_matrix,
    parse_network,
    serialize_network,
)

SMALL = """\
[JUNCTIONS]
J1
J2
[RESERVOIRS]
R1 0.8
[TANKS]
TK1
[PIPES]
P1 R1 J1 500 0.3 -0.2 0 0
P2 J1 J2 400 0.25 -0.2 -0.1 2.0
P3 J2 TK1 300 0.2 -0.2 0 0
[PUMPS]
[VALVES]
"""


def test_parse_counts_and_order():
    net = parse_network(SMALL)
    assert net.counts() == {
        "n_J": 2, "n_R": 1, "n_TK": 1, "n_P": 3, "n_M": 0, "n_V": 0,
    }
    assert net.node_ids == ("J1", "J2", "R1", "TK1")
    assert net.link_ids == ("P1", "P2", "P3")
    assert net.node_kind("R1") == "reservoir"
    assert net.node_kind("TK1") == "tank"
    assert net.reservoirs[0].source_mg_l == 0.8


def test_serialize_round_trip(three_node):
    net, _ = three_node
    again = parse_network(serialize_network(net))
    assert again == net
    assert again.node_ids == net.node_ids and again.link_ids == net.link_ids


def test_id_maps_are_built_once():
    net = parse_network(SMALL)
    assert net.node_ids is net.node_ids
    assert net.link_ids is net.link_ids
    assert [net.node_index(n) for n in net.node_ids] == [0, 1, 2, 3]
    assert [net.link_index(l) for l in net.link_ids] == [0, 1, 2]
    # cached orderings are not dataclass fields: equality ignores them
    assert net == parse_network(SMALL)


@pytest.mark.parametrize(
    "lookup, message",
    [
        (lambda net: net.node_index("NOPE"), "unknown node 'NOPE'"),
        (lambda net: net.node_index("P1"), "unknown node 'P1'"),
        (lambda net: net.link_index("NOPE"), "unknown link 'NOPE'"),
        (lambda net: net.link_index("J1"), "unknown link 'J1'"),
    ],
)
def test_unknown_ids_raise_network_error(lookup, message):
    with pytest.raises(NetworkError, match=message):
        lookup(parse_network(SMALL))


@pytest.mark.parametrize(
    "mutation, message",
    [
        (SMALL.replace("J2\n[RESERVOIRS]", "J1\n[RESERVOIRS]"), "duplicate node"),
        (SMALL.replace("P3 J2 TK1", "P3 J2 NOPE"), "unknown node"),
        (SMALL.replace("P3 J2 TK1", "P3 J2 J2"), "itself"),
        (SMALL.replace("P1 R1 J1 500", "P1 R1 J1 -500"), "nonpositive length"),
        (SMALL.replace("P1 R1 J1 500 0.3", "P1 R1 J1 500 0"), "nonpositive diameter"),
        (SMALL.replace("[PIPES]", "[NOISE]"), "unknown section"),
        ("J1\n" + SMALL, "before any section"),
        (SMALL.replace("P1 R1 J1 500 0.3 -0.2 0 0", "P1 R1 J1 500"), "needs 8 fields"),
        (SMALL.replace("500", "wide"), "bad number"),
    ],
)
def test_parse_errors(mutation, message):
    with pytest.raises(NetworkError, match=message):
        parse_network(mutation)


def test_empty_network_rejected():
    with pytest.raises(NetworkError, match="no nodes"):
        WaterNetwork((), (), (), (), (), ())


def test_link_ends():
    net = parse_network(SMALL)
    up, down = net.link_ends
    # declared directions: P1 R1->J1, P2 J1->J2, P3 J2->TK1
    assert up.tolist() == [2, 0, 1]
    assert down.tolist() == [0, 1, 3]
    assert net.link_ends is net.link_ends  # built once
    with pytest.raises(ValueError):
        up[0] = 0  # shared by every period, so read-only
    assert net == parse_network(SMALL)


def test_booster_matrix():
    net = parse_network(SMALL)
    layout = build_booster_matrix(net, ["J1", "TK1"])
    assert layout.n_b == 2
    assert layout.indices == (0, 3)
    with pytest.raises(NetworkError, match="at most one booster"):
        build_booster_matrix(net, ["J1", "J1"])
