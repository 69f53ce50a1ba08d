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
