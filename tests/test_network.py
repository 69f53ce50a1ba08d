from pathlib import Path

import numpy as np
import pytest

from conftest import serialize_network
from wqmpc.dynamics import booster_layout
from wqmpc.errors import NetworkError
from wqmpc.hydraulics import HydraulicPeriod, HydraulicProfile
from wqmpc.network import (
    Junction,
    Pipe,
    Reservoir,
    Tank,
    WaterNetwork,
    parse_network,
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
    assert [r.id for r in net.reservoirs] == ["R1"]
    assert [t.id for t in net.tanks] == ["TK1"]
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
    # one map serves both: node ids, then link ids, in entity order
    assert net.entity_index == {
        "J1": 0, "J2": 1, "R1": 2, "TK1": 3, "P1": 4, "P2": 5, "P3": 6,
    }
    # cached orderings and the map are not compared: equality ignores them
    assert net == parse_network(SMALL)


@pytest.mark.parametrize(
    "lookup, message",
    [
        (lambda net: net.node_index("NOPE"), "unknown node 'NOPE'"),
        (lambda net: net.node_index("P1"), "unknown node 'P1'"),
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
        *[
            (SMALL.replace(old, new), f"line {line}: bad number for {what}: '{bad}'")
            for bad in ("nan", "inf", "-inf")
            for line, what, old, new in [
                (5, "source concentration", "R1 0.8", f"R1 {bad}"),
                (9, "length", "J1 500", f"J1 {bad}"),
                (9, "diameter", "500 0.3", f"500 {bad}"),
                (9, "kb", "0.3 -0.2 0 0", f"0.3 {bad} 0 0"),
                (10, "kw", "-0.2 -0.1 2.0", f"-0.2 {bad} 2.0"),
                (10, "kf", "-0.1 2.0", f"-0.1 {bad}"),
            ]
        ],
    ],
)
def test_parse_errors(mutation, message):
    with pytest.raises(NetworkError, match=message):
        parse_network(mutation)


def test_first_fault_in_file_order_is_reported():
    # a bad number on line 9, then an unknown section on line 13
    text = SMALL.replace("J1 500", "J1 wide").replace("[VALVES]", "[NOISE]")
    with pytest.raises(NetworkError, match="line 9: bad number for length"):
        parse_network(text)


SEVERAL_FAULTS = Path(__file__).parent / "data" / "several_faults.inp"


def test_the_first_of_several_faults_is_reported():
    """Mending each reported fault in turn shows the order of the checks:
    nodes, then each link in file order (id, ends, self-loop), then the
    pipes' dimensions, though the faulty pipe is the first link."""
    text = SEVERAL_FAULTS.read_text()
    with pytest.raises(NetworkError) as err:
        parse_network(text.replace("[TANKS]\nTK1", "[TANKS]\nTK1\nJ2"))
    assert str(err.value) == "duplicate node id 'J2'"
    for mend, message in [
        (("J1 J9", "J1 J2"), "link 'P2' references unknown node 'J9'"),
        (("P3 J2 J8", "P4 J2 J8"), "duplicate link id 'P3'"),
        (("J2 J8", "J2 TK1"), "link 'P4' references unknown node 'J8'"),
        (("J7 J7", "J3 J3"), "link 'P5' references unknown node 'J7'"),
        (("J3 J3", "J3 TK1"), "link 'P5' connects a node to itself"),
        (("J1 -500", "J1 500"), "pipe 'P1' has nonpositive length"),
        (("500 0 0", "500 0.3 0"), "pipe 'P1' has nonpositive diameter"),
    ]:
        with pytest.raises(NetworkError) as err:
            parse_network(text)
        assert str(err.value) == message
        text = text.replace(*mend)
    assert parse_network(text).link_ids == ("P1", "P2", "P3", "P4", "P5")


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


def test_booster_layout_reads_node_indices():
    """One booster per node with booster flow in some period, in node
    order, each with its node index."""
    net = parse_network(SMALL)

    def period(j1, tk1):
        return HydraulicPeriod(
            flows=np.ones(3), demands=np.ones(2), tank_volumes=np.ones(1),
            booster_flows=np.array([j1, 0.0, 0.0, tk1]), duration_s=3600.0,
        )

    profile = HydraulicProfile(
        periods=(period(0.0, 1e-4), period(2e-4, 0.0)),
        balance_residuals=np.zeros((2, 2)), consistent=False,
    )
    layout = booster_layout(net, profile)
    assert layout.booster_nodes == ("J1", "TK1")
    assert layout.indices == (0, 3)
    assert all(type(i) is int for i in layout.indices)
    assert layout.n_b == 2
