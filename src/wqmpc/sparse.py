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
``A @ x`` takes those diagonals as products with x and x shifted by one
either way; a row whose only other entry comes first (a pipe's end
segment, which reads a node) adds that entry by a gather before the
diagonals, and the remaining rows (junction mixing, tanks, pumps) are
summed as gathered products.

``CSR.iterate`` is the one mat-vec kernel: n steps of x <- A x + add,
in place.  ``A @ x`` is its single step with ``add`` 0.0, and the
state-space step ``A x + B u`` its step with ``add = B @ u``.  A square
matrix's plan, built by its first product, owns two zero-padded state
buffers and one product buffer, all aligned; the steps ping-pong
between the state buffers, so the shifted diagonals are read as slices
of the padded input and no product is written to a shifted or fresh
array.  A banded row's terms are summed without SciPy's leading 0.0,
which changes its sum at most in the sign of a zero, and adding
``add`` fixes that sign, as long as ``add`` holds no -0.0 (a product of
this module never does): (sum) + add has the bits of SciPy's
(0.0 + sum) + add.  The state handed back is a copy, never a view of
a buffer.
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
        self._plan: _MatVec | None = None  # built by the first A @ x or iterate

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
        return self.iterate(other, 1)[0]

    def iterate(self, x, n: int, add=0.0, rows=None) -> tuple[np.ndarray, np.ndarray]:
        """n steps of x <- A x + add: the final state and the (n, len(rows))
        block whose row i is ``x[rows]`` after step i + 1.

        ``A @ x`` is the single step with ``add`` 0.0.  ``add`` is 0.0 or
        a vector with no -0.0, such as a product ``B @ u``; each step
        then has the bits of SciPy's ``A @ x + add``.  The state comes
        back as a fresh array, a copy of ``x`` when ``n`` is 0.
        """
        x = np.asarray(x, dtype=float)
        if x.shape != (self.shape[1],):
            raise ValueError(
                f"vector has shape {x.shape}, expected ({self.shape[1]},)"
            )
        if n != 1 and self.shape[0] != self.shape[1]:
            raise ValueError(f"cannot step a {self.shape} matrix {n} times")
        if np.ndim(add) and np.shape(add) != (self.shape[0],):
            raise ValueError(
                f"add has shape {np.shape(add)}, expected ({self.shape[0]},)"
            )
        rows = _NO_ROWS if rows is None else np.asarray(rows)
        if self._plan is None:
            self._plan = _MatVec(self)
        return self._plan.run(x, n, add, rows)

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


_NO_ROWS = np.empty(0, dtype=np.intp)


def _aligned(n: int) -> np.ndarray:
    """n uninitialised floats in a new array, the first on a 64-byte
    boundary.  NumPy 2.4 on an AVX-512 x86 machine multiplies into an
    output aligned that far about twice as fast as into one that is not
    (3.5 against 7 us for 11,799 floats), and a new array is only
    16-byte aligned."""
    raw = np.empty(n + 7)
    s = (-raw.ctypes.data % 64) // 8
    return raw[s:s + n]


def _padded(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A buffer for a state of length n between two zero pads, its first
    element aligned, as three views: shifted one left (x_{i-1} at i), the
    state itself, shifted one right (x_{i+1} at i)."""
    buf = _aligned(n + 9)[7:]
    buf[0] = buf[-1] = 0.0
    return buf[:-2], buf[1:-1], buf[2:]


class _MatVec:
    """x <- A x + add for one matrix, its rows sorted once into three kinds.

    - Banded rows: every entry on the diagonals -1, 0, +1.  Their terms
      are three products with x and x shifted by one either way, added
      lower, centre, upper.
    - Led rows: banded but for one entry left of the band, the row's
      first.  That term is gathered and added before the band's.
    - Other rows: summed from their gathered products by ``bincount``.

    A square matrix with no banded rows, or any other matrix, has only
    "other" rows.

    ``run`` steps the state between two buffers, each a state between
    two zero pads with its first element aligned, and writes the centre
    and upper products to a third, aligned one.  A square matrix's plan
    owns its buffers, so it is not safe to run from two threads at once;
    any other matrix takes a single step per run, in buffers of that run.
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
        self.shape = a.shape
        self.band = None
        if banded.any():
            # lower, centre, upper, each entry on its row
            self.band = tuple(np.zeros((3, n)))
            on = banded[rows] & ~outside
            for diag, k in zip(self.band, (-1, 0, 1)):
                hit = on & (offset == k)
                diag[rows[hit]] = a.data[hit]
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
        self._bufs = None  # a square matrix's, allocated by its first run

    def run(self, x: np.ndarray, n: int, add, rows: np.ndarray):
        """``CSR.iterate``'s steps: the final state, a copy, and the block
        of ``x[rows]`` after each step."""
        n_rows, n_cols = self.shape
        bufs = self._bufs or (
            _padded(n_cols), _padded(n_rows),
            None if self.band is None else _aligned(n_rows),
        )
        if n_rows == n_cols:  # a non-square B is multiplied once per hold
            self._bufs = bufs
        src, dst, prod = bufs
        src[1][:] = x
        block = np.empty((n, rows.size))
        for i in range(n):
            left, xs, right = src
            y = dst[1]
            if self.band is None:
                y.fill(0.0)
            else:
                lo, di, up = self.band
                np.multiply(lo, left, out=y)
                if self.lead_rows.size:
                    lead = self.lead_vals * xs[self.lead_cols]
                    lead += y[self.lead_rows]
                    y[self.lead_rows] = lead
                np.multiply(di, xs, out=prod)
                y += prod
                np.multiply(up, right, out=prod)
                y += prod
            if self.rest_rows.size:
                y[self.rest_rows] = np.bincount(
                    self.rest_ids, weights=self.rest_vals * xs[self.rest_cols],
                    minlength=self.rest_rows.size,
                )
            y += add
            if rows.size:
                block[i] = y[rows]
            src, dst = dst, src
        return src[1].copy(), block


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
