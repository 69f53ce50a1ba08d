import logging

import numpy as np
import pytest

from wqmpc import units
from wqmpc.errors import HydraulicsError
from wqmpc.hydraulics import load_hydraulics
from wqmpc.network import parse_network

NET = """\
[JUNCTIONS]
J1
[RESERVOIRS]
R1 1.0
[TANKS]
TK1
[PIPES]
P1 R1 J1 500 0.3 0 0 0
P2 J1 TK1 400 0.25 0 0 0
"""

CSV = """\
period,entity,kind,value
0,P1,flow,100
0,P2,flow,58
0,J1,demand,44
0,J1,booster_flow,2
0,TK1,volume,5000
"""


def test_load_converts_units_and_balances():
    net = parse_network(NET)
    profile = load_hydraulics(net, CSV)
    assert profile.consistent
    p = profile.periods[0]
    assert p.flows[0] == pytest.approx(100 * units.GPM_TO_M3S)
    assert p.demands[0] == pytest.approx(44 * units.GPM_TO_M3S)
    assert p.tank_volumes[0] == pytest.approx(5000 * units.FT3_TO_M3)
    assert p.booster_flows[0] == pytest.approx(2 * units.GPM_TO_M3S)
    assert p.duration_s == 3600.0
    assert np.abs(profile.balance_residuals).max() < 1e-12


def test_three_node_schedule_is_consistent(three_node):
    _, profile = three_node
    assert profile.consistent
    assert len(profile.periods) == 24
    assert profile.total_duration_s == 86400.0


@pytest.mark.parametrize(
    "mutation, message",
    [
        (CSV.replace("0,P2,flow,58\n", ""), "missing flow"),
        (CSV.replace("0,J1,demand,44\n", ""), "missing demand"),
        (CSV.replace("0,TK1,volume,5000\n", ""), "missing volume"),
        (CSV.replace("J1,demand,44", "J1,demand,-1"), "negative demand"),
        (CSV.replace("TK1,volume,5000", "TK1,volume,0"), "empty tank"),
        (CSV.replace("period,entity,kind,value", "a,b,c,d"), "header"),
        (CSV.replace("0,P1,flow,100", "0,P1,flux,100"), "unknown kind"),
        (CSV.replace("0,P1,flow,100", "0,P1,flow,abc"), "bad period or value"),
        (CSV + "2,P1,flow,100\n", "contiguous"),
        ("period,entity,kind,value\n", "no hydraulic records"),
        (CSV + "0,J9,booster_flow,5\n", "line 7: unknown entity 'J9'"),
        (CSV + "0,TK1,demand,5\n", "line 7: kind 'demand' does not apply"),
        (CSV + "0,J1,flow,5\n", "line 7: kind 'flow' does not apply"),
        (CSV + "0,P1,volume,5\n", "line 7: kind 'volume' does not apply"),
        (CSV + "0,J1,demand,44\n", "line 7: repeated 'demand' record"),
        (CSV + "0,J1,booster_flow,2\n", "line 7: repeated 'booster_flow'"),
        (CSV.replace("J1,demand,44", "J1,demand,nan"),
         "line 4: non-finite value 'nan'"),
        (CSV.replace("J1,booster_flow,2", "J1,booster_flow,nan"),
         "line 5: non-finite value 'nan'"),
        (CSV.replace("TK1,volume,5000", "TK1,volume,inf"),
         "line 6: non-finite value 'inf'"),
    ],
)
def test_load_errors(mutation, message):
    net = parse_network(NET)
    with pytest.raises(HydraulicsError, match=message):
        load_hydraulics(net, mutation)


def test_imbalance_warns_but_loads(caplog):
    net = parse_network(NET)
    bad = CSV.replace("0,J1,demand,44", "0,J1,demand,60")
    with caplog.at_level(logging.WARNING):
        profile = load_hydraulics(net, bad)
    assert not profile.consistent
    assert profile.balance_residuals[0, 0] != 0
    assert any("flow balance" in r.message for r in caplog.records)
