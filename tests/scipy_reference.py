"""SciPy reference versions of the sparse kernels, kept as test oracles.

The package assembles, steps and predicts with ``wqmpc.sparse.CSR``.
These are the SciPy forms it replaced: the triplet build and the
``a = a0 + m @ a`` substitution of ``assemble_system``, ``A @ x`` and
``B @ u``, the augmented model and the sparse N-step predictor.  The
package's results must equal theirs bit for bit.
"""

import numpy as np
import scipy.sparse as sp

from conftest import to_scipy
from wqmpc import dynamics


def csr(shape, rows, cols, vals) -> sp.csr_matrix:
    """CSR matrix from triplets, zeros dropped (the former ``_csr``)."""
    keep = vals != 0.0
    return sp.csr_matrix((vals[keep], (rows[keep], cols[keep])), shape=shape)


def assembly(im, booster, period, dt_s, k_pipe):
    """(A as sorted CSR, B as sorted CSC) of one period, by SciPy."""
    triplets = dynamics._balance_triplets(im, booster, period, dt_s, k_pipe)
    a0, b0, m = (csr(*t) for t in triplets)
    a, b = a0, b0
    for _ in range(2):
        a = a0 + m @ a
        b = b0 + m @ b
    a.sort_indices()
    b = b.tocsc()
    b.sort_indices()
    return a, b


def augmented(sys, sensors):
    """(Φ_a, Γ_a) of ``sys`` with ``sensors``, by SciPy."""
    n_y = len(sensors)
    cols = [sys.index_map.sensor_index(spec) for spec in sensors]
    c = sp.csr_matrix(
        (np.ones(n_y), (np.arange(n_y), cols)), shape=(n_y, sys.n_x)
    )
    a, b = to_scipy(sys.a), to_scipy(sys.b)
    phi = sp.bmat(
        [[a, None], [(c @ a).tocsr(), sp.eye(n_y, format="csr")]], format="csr"
    )
    gamma = sp.vstack([b, (c @ b).tocsr()], format="csr")
    return phi, gamma


def predictor(aug, n):
    """(support, w, z) of the N-step predictor of ``aug``, by SciPy."""
    ny, nu = aug.n_y, aug.n_u
    n_a = aug.n_x + ny
    phi, gamma = to_scipy(aug.phi), to_scipy(aug.gamma)
    f = sp.csr_matrix(
        (np.ones(ny), (np.arange(ny), aug.n_x + np.arange(ny))),
        shape=(ny, n_a),
    )
    g = np.zeros((n + 1, ny, nu))
    g[0] = (f @ gamma).toarray()
    blocks = []
    for i in range(n):
        f = f @ phi
        f.sort_indices()
        blocks.append(f)
        if i + 1 < n:
            g[i + 1] = (f @ gamma).toarray()
    w = sp.vstack(blocks, format="csr")
    support = np.unique(w.indices)
    lag = np.subtract.outer(np.arange(n), np.arange(n))
    lag[lag < 0] = n
    z = g[lag].transpose(0, 2, 1, 3).reshape(n * ny, n * nu)
    return support, w[:, support].toarray(), z
