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
