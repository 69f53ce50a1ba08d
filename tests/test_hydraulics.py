import logging

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import node_index
from wqmpc import units
from wqmpc.errors import HydraulicsError
from wqmpc.hydraulics import BALANCE_RTOL, balance_residuals, load_hydraulics
from wqmpc.network import parse_network
from wqmpc.synth import SynthSpec, synth_case

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

# J1 takes 100 GPM in, 58 out and a 2 GPM booster, against a demand of 60
UNBALANCED = CSV.replace("0,J1,demand,44", "0,J1,demand,60")


def balanced(net, profile) -> bool:
    return bool(np.all(np.abs(balance_residuals(net, profile)) <= BALANCE_RTOL))


def test_load_converts_units_and_balances():
    net = parse_network(NET)
    profile = load_hydraulics(net, CSV)
    assert balanced(net, profile)
    assert profile.flows[0, 0] == pytest.approx(100 * units.GPM_TO_M3S)
    assert profile.demands[0, 0] == pytest.approx(44 * units.GPM_TO_M3S)
    assert profile.tank_volumes[0, 0] == pytest.approx(5000 * units.FT3_TO_M3)
    assert profile.booster_flows[0, 0] == pytest.approx(2 * units.GPM_TO_M3S)
    assert profile.period_s == 3600.0
    assert np.abs(balance_residuals(net, profile)).max() < 1e-12


def test_three_node_schedule_is_consistent(three_node):
    net, profile = three_node
    assert balanced(net, profile)
    assert len(profile.flows) == 24
    assert len(profile.flows) * profile.period_s == 86400.0


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


@pytest.mark.parametrize("duration", [
    0.0, -5.0, -3600.0, float("nan"), float("inf"), float("-inf"),
])
def test_load_refuses_a_period_duration_that_is_not_positive(duration):
    net = parse_network(NET)
    message = f"hydraulic period duration must be finite and positive, got {duration!r} s"
    with pytest.raises(HydraulicsError) as exc:
        load_hydraulics(net, CSV, period_duration_s=duration)
    assert str(exc.value) == message


def test_imbalance_warns_but_loads(caplog):
    net = parse_network(NET)
    with caplog.at_level(logging.WARNING):
        profile = load_hydraulics(net, UNBALANCED)
    assert not balanced(net, profile)
    assert balance_residuals(net, profile)[0, 0] != 0
    assert any("flow balance" in r.message for r in caplog.records)


@pytest.mark.parametrize(
    "mutation, message",
    [
        # a fault in period 0 wins over one in period 1 on an earlier line
        (CSV.replace("0,", "1,").replace("1,P2,flow,58\n", "")
         + CSV.replace("period,entity,kind,value\n", "").replace(
             "J1,demand,44", "J1,demand,-1"),
         "period 0: negative demand"),
        # within one period, demands are checked before volumes
        (CSV.replace("0,TK1,volume,5000\n", "").replace(
            "J1,demand,44", "J1,demand,-1"), "period 0: negative demand"),
    ],
)
def test_schedule_fault_order(mutation, message):
    with pytest.raises(HydraulicsError, match=message):
        load_hydraulics(parse_network(NET), mutation)


def _profile_bytes(net, profile) -> list[bytes]:
    return [a.tobytes() for a in (
        balance_residuals(net, profile), profile.flows, profile.demands,
        profile.tank_volumes, profile.booster_flows,
    )]


@given(
    n_junctions=st.integers(2, 12),
    n_reservoirs=st.integers(1, 3),
    n_tanks=st.integers(0, 3),
    n_extra_pipes=st.integers(0, 3),
    n_pumps=st.integers(0, 1),
    n_boosters=st.integers(0, 4),
    n_periods=st.integers(1, 3),
    seed=st.integers(0, 2**16),
    order=st.randoms(use_true_random=False),
)
def test_records_load_bit_for_bit_in_any_order(order, **fields):
    net_text, csv_text = synth_case(SynthSpec(**fields))
    net = parse_network(net_text)
    header, *records = csv_text.splitlines()
    shuffled = list(records)
    order.shuffle(shuffled)
    profile = load_hydraulics(net, "\n".join([header, *shuffled]))

    # every entry is its record's value converted, absent boosters are 0
    expected = [
        (np.zeros(net.n_links), np.zeros(net.n_j), np.zeros(net.n_tk),
         np.zeros(net.n_n))
        for _ in range(fields["n_periods"])
    ]
    tanks = net.n_j + net.n_r
    for record in records:
        period, entity, kind, value = record.split(",")
        flows, demands, volumes, boosters = expected[int(period)]
        if kind == "flow":
            flows[net.link_ids.index(entity)] = units.gpm(float(value))
        elif kind == "demand":
            demands[node_index(net, entity)] = units.gpm(float(value))
        elif kind == "volume":
            volumes[node_index(net, entity) - tanks] = units.ft3(float(value))
        else:
            boosters[node_index(net, entity)] = units.gpm(float(value))
    assert len(profile.flows) == fields["n_periods"]
    up, down = net.link_ends

    def node_sum(ends, values):
        return np.bincount(ends, values, net.n_n)[: net.n_j]

    residuals = balance_residuals(net, profile)
    for k, arrays in enumerate(expected):
        loaded = (profile.flows[k], profile.demands[k],
                  profile.tank_volumes[k], profile.booster_flows[k])
        for got, want in zip(loaded, arrays):
            assert got.tobytes() == want.tobytes()
        # the period's balance, summed on its own
        flows, demands, _, boosters = arrays
        net_in = node_sum(down, flows) - node_sum(up, flows)
        resid = net_in + boosters[: net.n_j] - demands
        through = node_sum(down, np.abs(flows)) + node_sum(up, np.abs(flows))
        scale = np.maximum(np.abs(demands) + through, 1e-30)
        assert residuals[k].tobytes() == (resid / scale).tobytes()
    # the profile does not depend on the record order
    in_order = load_hydraulics(net, csv_text)
    assert _profile_bytes(net, profile) == _profile_bytes(net, in_order)
