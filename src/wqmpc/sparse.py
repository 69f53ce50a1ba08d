"""A small compressed-sparse-row matrix in NumPy.

``CSR`` holds ``indptr``, ``indices``, ``data`` and ``shape`` in
canonical form: column indices sorted within each row, no duplicates and
no stored zeros.  It multiplies a vector, multiplies another ``CSR`` and
adds one, and every kernel adds its floating-point terms in the order
SciPy's sparse kernels add them, so the results are SciPy's bit for bit,
signs of zero included (the tests hold SciPy as the reference):

- ``A @ x`` adds each row's terms A_ij x_j from 0.0 in ascending column
  order (``csr_matvec``).  For a finite ``x``, extra terms 0 * x_j leave
  such a sum unchanged, which the banded kernel below relies on.
- ``M @ A`` adds the terms M_ij A_jk of each entry from 0.0 in M's
  column order, then drops the entries that sum to exactly zero
  (``csr_matmat``).
- ``A + B`` adds each entry from 0.0, A's term first, and drops exact
  zeros (``csr_plus_csr``).

Most rows of a transport matrix lie on its three central diagonals, so
``A @ x`` takes those diagonals as slices of ``x``; a row whose only
other entry comes first (a pipe's end segment, which reads a node) adds
that entry by a gather before the diagonals, and the remaining rows
(junction mixing, tanks, pumps) are summed as gathered products.
"""

from __future__ import annotations

import numpy as np


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The concatenated ranges [s, s + c) for each start s and count c."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(
        starts - (ends - counts), counts
    )


def _from_entries(shape, rows, cols, vals) -> CSR:
    """The canonical ``CSR`` of entries (rows, cols, vals), each position
    summed from 0.0 in input order (a stable sort keeps that order),
    positions that sum to zero dropped.

    The entries are sorted once, by their row-major key, and the rows and
    columns of the result are read back from the sorted keys.  Each
    full-length array is dropped once used, which keeps the peak of an
    assembly low."""
    n = shape[1]
    keys = rows * n
    keys += cols
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    vals = vals[order]
    del order
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    ids = np.cumsum(first)
    ids -= 1
    sums = np.bincount(ids, weights=vals)
    del ids, vals
    nonzero = sums != 0.0
    keys = keys[first][nonzero]
    rows = keys // n
    indptr = np.zeros(shape[0] + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    keys -= rows * n  # now each entry's column
    return CSR(indptr, keys, sums[nonzero], shape)


class CSR:
    """A canonical compressed-sparse-row matrix of float64 values."""

    def __init__(self, indptr, indices, data, shape: tuple[int, int]):
        self.indptr = np.asarray(indptr, dtype=np.intp)
        self.indices = np.asarray(indices, dtype=np.intp)
        self.data = np.asarray(data, dtype=float)
        self.shape = (int(shape[0]), int(shape[1]))
        self._plan: _MatVec | None = None  # built by the first A @ x

    @classmethod
    def from_triplets(cls, shape, rows, cols, vals) -> CSR:
        """(rows, cols, vals) -> CSR: zero values dropped, duplicates
        summed in input order, zero sums dropped."""
        vals = np.asarray(vals, dtype=float)
        keep = vals != 0.0
        return _from_entries(
            shape, np.asarray(rows, dtype=np.intp)[keep],
            np.asarray(cols, dtype=np.intp)[keep], vals[keep],
        )

    @property
    def nnz(self) -> int:
        return self.data.size

    def row_ids(self) -> np.ndarray:
        """The row of each stored entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.row_ids(), self.indices] = self.data
        return out

    def __add__(self, other: CSR) -> CSR:
        if other.shape != self.shape:
            raise ValueError(f"shapes {self.shape} and {other.shape} differ")
        # merge other's sorted entries into self's: a shared position
        # sums a + b, a new one goes in before its successor
        n = self.shape[1]
        rows = other.row_ids()
        keys = self.row_ids() * n + self.indices
        other_keys = rows * n + other.indices
        pos = np.searchsorted(keys, other_keys)
        shared = pos < keys.size
        shared[shared] = keys[pos[shared]] == other_keys[shared]
        del keys, other_keys  # not needed past here: lower the peak
        data = self.data.copy()
        data[pos[shared]] += other.data[shared]
        new = ~shared
        indptr = self.indptr.copy()
        indptr[1:] += np.cumsum(np.bincount(rows[new], minlength=self.shape[0]))
        out = CSR(
            indptr,
            np.insert(self.indices, pos[new], other.indices[new]),
            np.insert(data, pos[new], other.data[new]),
            self.shape,
        )
        if not out.data.all():  # a shared position summed to zero
            out = _from_entries(self.shape, out.row_ids(), out.indices, out.data)
        return out

    def __matmul__(self, other):
        if isinstance(other, CSR):
            return self._matmat(other)
        x = np.asarray(other, dtype=float)
        if x.shape != (self.shape[1],):
            raise ValueError(
                f"vector has shape {x.shape}, expected ({self.shape[1]},)"
            )
        if self._plan is None:
            self._plan = _MatVec(self)
        return self._plan(x)

    def row_entries(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The entries of ``rows``, row after row: for each, the position
        in ``rows`` it came from, its column and its value."""
        counts = self.indptr[rows + 1] - self.indptr[rows]
        src = _ranges(self.indptr[rows], counts)
        return (
            np.repeat(np.arange(len(rows)), counts),
            self.indices[src],
            self.data[src],
        )

    def _matmat(self, other: CSR) -> CSR:
        if other.shape[0] != self.shape[1]:
            raise ValueError(
                f"cannot multiply {self.shape} by {other.shape}"
            )
        owner, cols, vals = other.row_entries(self.indices)
        return _from_entries(
            (self.shape[0], other.shape[1]),
            self.row_ids()[owner], cols, self.data[owner] * vals,
        )


class _MatVec:
    """y = A x for one matrix, its rows sorted once into three kinds.

    - Banded rows: every entry on the diagonals -1, 0, +1.  Their terms
      are three products with slices of x, added lower, centre, upper.
    - Led rows: banded but for one entry left of the band, the row's
      first.  That term is gathered and added before the band's.
    - Other rows: summed from their gathered products by ``bincount``.

    A square matrix with no banded rows, or any other matrix, has only
    "other" rows.
    """

    def __init__(self, a: CSR):
        n = a.shape[0]
        rows, cols = a.row_ids(), a.indices
        offset = cols - rows
        outside = np.abs(offset) > 1
        n_out = np.bincount(rows, weights=outside, minlength=n)
        starts = a.indptr[:-1]
        led = np.zeros(n, dtype=bool)
        if a.nnz:
            first = np.minimum(starts, a.nnz - 1)
            led = (n_out == 1) & (np.diff(a.indptr) > 0) & (offset[first] < -1)
        banded = (n_out == 0) | led
        if a.shape[0] != a.shape[1] or not banded.any():
            banded[:] = led[:] = False
        self.n = n
        self.band = None
        if banded.any():
            lo, di, up = np.zeros((3, n))
            on = banded[rows] & ~outside
            for diag, k in ((lo, -1), (di, 0), (up, 1)):
                hit = on & (offset == k)
                diag[rows[hit]] = a.data[hit]
            self.band = lo[1:], di, up[:-1]
        self.lead_rows = np.flatnonzero(led)
        self.lead_cols = cols[starts[led]]
        self.lead_vals = a.data[starts[led]]
        rest = ~banded & (np.diff(a.indptr) > 0)  # an empty row stays 0
        self.rest_rows = np.flatnonzero(rest)
        entry = rest[rows]
        # local row number of each entry of the other rows
        self.rest_ids = np.cumsum(rest)[rows[entry]] - 1
        self.rest_cols = cols[entry]
        self.rest_vals = a.data[entry]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if self.band is None:
            y = np.zeros(self.n)
        else:
            lo, di, up = self.band
            y = np.empty(self.n)
            y[0] = 0.0
            np.multiply(lo, x[:-1], out=y[1:])
            if self.lead_rows.size:
                lead = self.lead_vals * x[self.lead_cols]
                lead += y[self.lead_rows]
                y[self.lead_rows] = lead
            y += di * x
            y[:-1] += up * x[1:]
            # a sum begun at 0.0 is never -0.0: clear the sign a row of
            # -0.0 terms leaves
            y += 0.0
        if self.rest_rows.size:
            y[self.rest_rows] = np.bincount(
                self.rest_ids, weights=self.rest_vals * x[self.rest_cols],
                minlength=self.rest_rows.size,
            )
        return y


def vstack(top: CSR, bottom: CSR) -> CSR:
    """[top; bottom], two matrices with the same number of columns."""
    if top.shape[1] != bottom.shape[1]:
        raise ValueError(f"cannot stack {top.shape} on {bottom.shape}")
    return CSR(
        np.concatenate([top.indptr, top.nnz + bottom.indptr[1:]]),
        np.concatenate([top.indices, bottom.indices]),
        np.concatenate([top.data, bottom.data]),
        (top.shape[0] + bottom.shape[0], top.shape[1]),
    )
