"""SciPy reference versions of the sparse kernels, kept as test oracles.

The package assembles, steps and predicts with ``wqmpc.sparse.CSR``.
These are the SciPy forms it replaced: the triplet build and the
``a = a0 + m @ a`` substitution of ``assemble_system``, ``A @ x`` and
``B @ u``, the sensor rows and the sparse N-step predictor.  The
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


def assembly(im, booster, profile, pid, dt_s, k_pipe):
    """(A as sorted CSR, B as sorted CSC) of period ``pid``, by SciPy."""
    triplets = dynamics._balance_triplets(im, booster, profile, pid, dt_s, k_pipe)
    a0, b0, m = (csr(*t) for t in triplets)
    a, b = a0, b0
    for _ in range(2):
        a = a0 + m @ a
        b = b0 + m @ b
    a.sort_indices()
    b = b.tocsc()
    b.sort_indices()
    return a, b


def sensor_rows(sys, sensors) -> sp.csr_matrix:
    """C, the 0/1 rows that read ``sensors`` off the state of ``sys``."""
    n_y = len(sensors)
    cols = [sys.index_map.sensor_index(spec) for spec in sensors]
    return sp.csr_matrix(
        (np.ones(n_y), (np.arange(n_y), cols)), shape=(n_y, sys.n_x)
    )


def predictor(sys, c, n):
    """(support, w, z) of the N-step predictor of ``sys`` read through
    ``c``, by SciPy: the sparse products C A^(i+1), h[k] = C A^k B, and
    the step response summed in k order."""
    ny, nu = c.shape[0], sys.n_u
    a, b = to_scipy(sys.a), to_scipy(sys.b)
    f = c
    h = [(f @ b).toarray()]
    blocks = []
    for i in range(n):
        f = f @ a
        f.sort_indices()
        blocks.append(f)
        if i + 1 < n:
            h.append((f @ b).toarray())
    s = np.zeros((n + 1, ny, nu))
    s[0] = h[0]
    for k in range(1, n):
        s[k] = s[k - 1] + h[k]
    w = sp.vstack(blocks, format="csr")
    support = np.unique(w.indices)
    lag = np.subtract.outer(np.arange(n), np.arange(n))
    lag[lag < 0] = n
    z = s[lag].transpose(0, 2, 1, 3).reshape(n * ny, n * nu)
    return support, w[:, support].toarray(), z
