import os

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import settings

from wqmpc.hydraulics import load_hydraulics
from wqmpc.network import parse_network
from wqmpc.sparse import CSR

# HYPOTHESIS_PROFILE=ci runs the property tests with more examples (the
# CI workflow selects it); the default profile keeps local runs fast.
settings.register_profile("ci", max_examples=2000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

DATA = os.path.join(os.path.dirname(__file__), "..", "data")


def data_path(name: str) -> str:
    return os.path.join(DATA, name)


def read_data(name: str) -> str:
    with open(data_path(name)) as fh:
        return fh.read()


def serialize_network(net) -> str:
    """The network file text of ``net``; ``parse_network`` reads it back
    as an equal network."""
    ends = [f"{lid} {up} {down}" for lid, up, down in zip(
        net.link_ids, net.up, net.down)]
    out = ["[JUNCTIONS]", *net.junctions]
    out.append("[RESERVOIRS]")
    out += [f"{r} {s!r}" for r, s in zip(net.reservoirs, net.source_mg_l)]
    out.append("[TANKS]")
    out += net.tanks
    out.append("[PIPES]")
    out += [
        f"{link} {length!r} {diameter!r} {kb!r} {kw!r} {kf!r}"
        for link, length, diameter, kb, kw, kf in zip(
            ends, net.length_m, net.diameter_m, net.kb, net.kw, net.kf)
    ]
    out.append("[PUMPS]")
    out += ends[net.n_p : net.n_p + net.n_m]
    out.append("[VALVES]")
    out += ends[net.n_p + net.n_m :]
    return "\n".join(out) + "\n"


def node_index(net, node_id: str) -> int:
    """The position of node ``node_id`` among ``net.node_ids``."""
    return net.node_ids.index(node_id)


def pipe_slice(im, pipe_pos: int) -> slice:
    """The whole-layout state positions of the segments of pipe
    ``pipe_pos`` under the layout ``im``."""
    off = int(im.offsets[im.net.n_n + pipe_pos])
    return slice(off, off + im.seg_counts[pipe_pos])


def to_scipy(mat: CSR) -> sp.csr_matrix:
    """The SciPy CSR matrix of a ``CSR``'s arrays, for SciPy's indexing,
    transposes and comparisons in tests."""
    return sp.csr_matrix(
        (mat.data.copy(), mat.indices.copy(), mat.indptr.copy()), shape=mat.shape
    )


def from_dense(a) -> CSR:
    """The ``CSR`` of a dense array, zeros dropped."""
    a = np.asarray(a, dtype=float)
    rows, cols = np.nonzero(a)
    return CSR.from_triplets(a.shape, rows, cols, a[rows, cols])


def embedded_subtree(n_extra: int) -> tuple:
    """A booster -> sensor subtree, R1 -> J1 (booster) -> J2 -> J3, with a
    chain of ``n_extra`` junctions fed by R2 declared after each of its
    kinds of entity, and a still pipe from J3 into the chain.  The
    chain's long, slow pipes leave the step to the subtree's."""
    extra = [f"E{i}" for i in range(n_extra)]
    chain = list(zip(["R2", *extra], extra))
    pipes = ["P1 R1 J1 500 0.3 -0.3 0 0", "P2 J1 J2 600 0.3 -0.3 0 0",
             "P3 J2 J3 450 0.25 -0.3 0 0"]
    pipes += [f"Q{i} {a} {b} 5000 0.3 -0.1 0 0" for i, (a, b) in enumerate(chain)]
    pipes.append(f"S1 J3 {extra[-1]} 300 0.2 -0.1 0 0")
    net = parse_network("\n".join([
        "[JUNCTIONS]", "J1", "J2", "J3", *extra,
        "[RESERVOIRS]", "R1 0.8", "R2 0.6", "[PIPES]", *pipes,
    ]) + "\n")
    rows = ["period,entity,kind,value"]
    for p, scale in enumerate((1.0, 0.8)):
        values = {"P1": 100, "P2": 90, "P3": 70, "J1": 12, "J2": 20, "J3": 70,
                  "S1": 0}
        values.update({f"Q{i}": n_extra - i for i in range(n_extra)})
        values.update(dict.fromkeys(extra, 1))
        rows += [f"{p},{e},{'flow' if e[0] in 'PQS' else 'demand'},{v * scale}"
                 for e, v in values.items()]
        rows.append(f"{p},J1,booster_flow,{2 * scale}")
    return net, load_hydraulics(net, "\n".join(rows) + "\n")


@pytest.fixture(scope="session")
def three_node():
    net = parse_network(read_data("three_node.inp"))
    profile = load_hydraulics(net, read_data("three_node_hydraulics.csv"))
    return net, profile


@pytest.fixture(scope="session")
def net1():
    return parse_network(read_data("net1.inp"))


@pytest.fixture(scope="session")
def net3():
    net = parse_network(read_data("net3.inp"))
    profile = load_hydraulics(net, read_data("net3_hydraulics.csv"))
    return net, profile
