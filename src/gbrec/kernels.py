"""The graph type and the two ways its products run: sparse and dense.

``CSR`` is the one graph type: a directed graph in compressed sparse row
form with its neighbour mean and that mean's adjoint. Its transpose is built
from it on first use, so a graph and its reverse can never disagree.

A graph's mean and adjoint take one of two paths, chosen from its shape
alone, so no caller knows which one ran:

* dense, when the graph stores at least ``DENSE_MIN_FILL`` of its cells and
  has fewer than ``DENSE_MAX_CELLS`` cells: one product with the graph's
  row-normalised adjacency matrix (``1/degree(r)`` at each stored ``(r, c)``),
  built once per graph and per dtype and kept, in the dtype of the rows it
  multiplies. This is LightGCN's normalised-adjacency product, and BLAS
  rounds it as it sums;
* sparse, otherwise: the one reduction kernel below.

Every sparse reduction runs on one kernel, ``_column_sums``. Given a
destination index ``dest``, a gather index and sources ``(table, scale)``,
it sums the float64 rows ``scale[i] * table[gather[i]]`` into destination
rows ``dest[i]``, one column at a time: each column is read once in float64,
gathered into one reused buffer, scaled, and summed by one ``np.bincount``
keyed by ``dest`` itself. bincount adds its weights in index order in
float64, so each (destination, column) pair is a sequential float64 sum of
its terms in index order: the same sum, bit for bit, as a plain loop. Each
sum is rounded to the output dtype once.

* ``segment_sum`` and ``segment_mean`` run it with ``dest`` the row of each
  CSR entry and ``gather`` its column.
* ``scatter_add_rows`` runs it with the scatter index as ``dest``, for every
  target that shares that index in one call, gathering and scaling each
  column itself, so no gathered-and-scaled copy of a whole table is made.

``scatter_add_rows`` has two signed forms, one per side of the score gap's
backward pass:

* a subtracted gather (the user side): the row is ``scale[i] *
  (table[gather[i]] - table[minus_gather[i]])``, both rows read in float64,
  subtracted, then scaled, before the sum above;
* a subtracted destination (the item side): each row is added at ``idx[i]``
  and subtracted at ``minus_idx[i]``. The added sum and the subtracted sum
  are each a sequential float64 sum in index order, one ``np.bincount``
  each; the second is subtracted from the first once, and the difference is
  rounded once.

The sparse kernel is single-threaded NumPy; thread count cannot change its
result.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

# a graph's products run dense when it stores at least DENSE_MIN_FILL of its
# cells and has fewer than DENSE_MAX_CELLS cells. Per call (benchmarks/
# bench_kernels.py --role mean, widths 16 and 48, 100k-500k cells) the dense
# product wins from about 0.5% fill, by 2-3x at 1.6% and 16-50x at 12-32%;
# but its matrix stays resident, and on the desk world the two 1.6% graphs
# (share, social) would add 3 MB to a training run's peak for about 2% of its
# time, so the line sits between them and the 12% launch graph. The cap
# holds each cached matrix to 4 MB in float64.
DENSE_MIN_FILL = 1 / 32
DENSE_MAX_CELLS = 1 << 19


def backend_name() -> str:
    """The kernel's implementation, as benchmark records report it."""
    return "numpy"


# ---------------------------------------------------------------------------
# the one kernel


def _check_range(index: np.ndarray | None, bound: int, what: str) -> None:
    if index is not None and index.shape[0] and (index.min() < 0 or index.max() >= bound):
        raise IndexError(f"{what} out of range [0, {bound})")


def _column_sums(dest, n_rows, gather, sources, minus_gather=None, minus_dest=None):
    """Yield ``(s, j, sums)``: float64 ``sums[r] = sum of row[i, j]`` over the
    ``i`` with ``dest[i] == r``, in index order, minus the same sum over the
    ``i`` with ``minus_dest[i] == r`` when it is given, for source ``s``.

    ``sources`` holds ``(table, scale)`` pairs, and ``row[i]`` is
    ``scale[i] * (table[gather[i]] - table[minus_gather[i]])``: ``gather`` None
    reads ``table[i]``, ``minus_gather`` None subtracts nothing and ``scale``
    None scales by one. Each column of a table is read once in float64, and
    each gather writes straight into one reused buffer.
    """
    n_src = min(table.shape[0] for table, _ in sources)
    _check_range(gather, n_src, "gather index")
    _check_range(minus_gather, n_src, "subtracted gather index")
    buf = np.empty(dest.shape[0], dtype=np.float64)
    minus_buf = None if minus_gather is None else np.empty_like(buf)
    for s, (table, scale) in enumerate(sources):
        for j in range(table.shape[1]):
            col = table[:, j].astype(np.float64)
            # gathers are in range (checked above), so "clip" only spares a second buffer
            rows = col if gather is None else np.take(col, gather, out=buf, mode="clip")
            if minus_gather is not None:
                rows -= np.take(col, minus_gather, out=minus_buf, mode="clip")
            if scale is not None:
                rows *= scale
            sums = np.bincount(dest, weights=rows, minlength=n_rows)
            if minus_dest is not None:
                sums -= np.bincount(minus_dest, weights=rows, minlength=n_rows)
            yield s, j, sums


def _segment_sum64(indptr, indices, src):
    n_rows = indptr.shape[0] - 1
    dest = np.repeat(np.arange(n_rows, dtype=np.int64), np.diff(indptr))
    out = np.empty((n_rows, src.shape[1]), dtype=np.float64)
    for _, j, sums in _column_sums(dest, n_rows, indices, [(src, None)]):
        out[:, j] = sums
    return out


# ---------------------------------------------------------------------------
# public API


def segment_sum(indptr: np.ndarray, indices: np.ndarray, src: np.ndarray) -> np.ndarray:
    """Per-row neighbor sum: ``out[r] = sum(src[indices[indptr[r]:indptr[r+1]]])``.

    Rows with no neighbors come back as zero vectors. Returns ``src``'s dtype.
    """
    return _segment_sum64(indptr, indices, src).astype(src.dtype, copy=False)


def segment_mean(indptr: np.ndarray, indices: np.ndarray, src: np.ndarray) -> np.ndarray:
    """Per-row neighbor mean; empty rows yield the zero vector."""
    sums = _segment_sum64(indptr, indices, src)
    counts = np.diff(indptr)
    inv = np.zeros(counts.shape[0], dtype=np.float64)
    nz = counts > 0
    inv[nz] = 1.0 / counts[nz]
    return (sums * inv[:, None]).astype(src.dtype, copy=False)


def scatter_add_rows(
    targets,
    idx: np.ndarray,
    gather: np.ndarray | None = None,
    minus_gather: np.ndarray | None = None,
    minus_idx: np.ndarray | None = None,
) -> None:
    """In place, for each ``(out, table, scale)`` in ``targets``:
    ``out[idx[i]] += row[i]`` with ``row[i] = scale[i] * table[gather[i]]``,
    duplicate ``idx`` accumulating.

    ``gather`` None reads ``table[i]``; ``scale`` None scales by one. The
    signed forms: ``minus_gather`` makes ``row[i] = scale[i] * (table[gather[i]]
    - table[minus_gather[i]])``, the difference taken in float64 before the
    scale; ``minus_idx`` also does ``out[minus_idx[i]] -= row[i]``. The targets
    share ``idx``, so they share its row count; their widths and dtypes may
    differ. Per destination, the added rows and the subtracted rows are each
    summed in float64 in index order, the second sum is subtracted from the
    first, and the result is rounded to ``out.dtype`` once before it is added.
    Every index is checked against its range first, and nothing is written if
    one is out of it.
    """
    if idx.shape[0] == 0 or not targets:
        return
    n_rows = min(out.shape[0] for out, _, _ in targets)
    _check_range(idx, n_rows, "scatter index")
    _check_range(minus_idx, n_rows, "subtracted scatter index")
    sources = [(table, scale) for _, table, scale in targets]
    for s, j, sums in _column_sums(idx, n_rows, gather, sources, minus_gather, minus_idx):
        out = targets[s][0]
        out[:, j] += sums.astype(out.dtype)


# ---------------------------------------------------------------------------
# the graph type


class CSR:
    """A directed graph from ``num_rows`` row vertices to ``num_cols`` column
    vertices: row ``r``'s neighbours are ``indices[indptr[r]:indptr[r+1]]``,
    sorted and without repeats.

    ``indices`` may be any integer dtype: ``from_edges`` builds int64, and a
    split's frozen negatives hold ``data.item_dtype(num_items)``, one or two
    bytes per id.
    """

    def __init__(self, num_rows: int, num_cols: int, indptr: np.ndarray, indices: np.ndarray):
        self.num_rows = num_rows
        self.num_cols = num_cols
        self.indptr = indptr
        self.indices = indices
        self._transpose: CSR | None = None
        self._normalized: dict[np.dtype, np.ndarray] = {}

    @classmethod
    def from_edges(cls, num_rows: int, num_cols: int, rows: np.ndarray, cols: np.ndarray) -> "CSR":
        """Build from parallel edge arrays; repeated edges collapse to one.

        Each edge is keyed ``row * num_cols + col``, so one sort of the keys
        orders the edges by row, then column. (A sort and a mask of repeats:
        ``np.unique`` takes some 30 times longer on NumPy 2.4.)
        """
        keys = np.sort(np.asarray(rows, dtype=np.int64) * num_cols + np.asarray(cols, dtype=np.int64))
        first = np.ones(keys.shape[0], dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        keys = keys[first]
        edge_rows, indices = np.divmod(keys, max(num_cols, 1))
        indptr = np.zeros(num_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(edge_rows, minlength=num_rows), out=indptr[1:])
        return cls(num_rows, num_cols, indptr, indices)

    def neighbors(self, v: int) -> np.ndarray:
        if not (0 <= v < self.num_rows):
            raise IndexError(f"vertex {v} out of range [0, {self.num_rows})")
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @property
    def T(self) -> "CSR":
        """The reverse graph: row ``c`` lists the rows that have ``c`` as a neighbour."""
        if self._transpose is None:
            rows = np.repeat(np.arange(self.num_rows, dtype=np.int64), self.degrees)
            self._transpose = CSR.from_edges(self.num_cols, self.num_rows, self.indices, rows)
            self._transpose._transpose = self
        return self._transpose

    @cached_property
    def inv_degrees(self) -> np.ndarray:
        """1/degree per row as float64, 0.0 for empty rows."""
        counts = self.degrees
        inv = np.zeros(counts.shape[0], dtype=np.float64)
        nz = counts > 0
        inv[nz] = 1.0 / counts[nz]
        return inv

    @property
    def runs_dense(self) -> bool:
        """Whether ``mean`` and ``mean_adjoint`` run as dense products: the graph
        stores at least ``DENSE_MIN_FILL`` of its cells and has fewer than
        ``DENSE_MAX_CELLS`` cells. Stored entries are counted, so a symmetric
        graph counts each undirected edge twice."""
        cells = self.num_rows * self.num_cols
        return cells < DENSE_MAX_CELLS and self.indices.shape[0] >= DENSE_MIN_FILL * cells

    def normalized(self, dtype) -> np.ndarray:
        """The row-normalised adjacency matrix in ``dtype``: ``1/degree(r)`` at
        each stored ``(r, c)``, zero elsewhere. Built once per dtype and kept."""
        dtype = np.dtype(dtype)
        if dtype not in self._normalized:
            rows = np.repeat(np.arange(self.num_rows, dtype=np.int64), self.degrees)
            mat = np.zeros((self.num_rows, self.num_cols), dtype=dtype)
            mat[rows, self.indices] = self.inv_degrees[rows]
            self._normalized[dtype] = mat
        return self._normalized[dtype]

    def mean(self, src: np.ndarray) -> np.ndarray:
        """Per-row mean of the neighbours' ``src`` rows; empty rows give zero."""
        if self.runs_dense:
            return self.normalized(src.dtype) @ src
        return segment_mean(self.indptr, self.indices, src)

    def mean_adjoint(self, d: np.ndarray, dtype) -> np.ndarray:
        """Adjoint of ``mean``: maps d(loss)/d(mean) to d(loss)/d(src).

        Each row's adjoint is split evenly over its neighbours (rounded to
        ``dtype``) and summed per neighbour over the transpose; on the dense
        path, ``normalized(dtype).T @ d`` with ``d`` rounded to ``dtype``.
        """
        if self.runs_dense:
            return self.normalized(dtype).T @ d.astype(dtype, copy=False)
        scaled = (d * self.inv_degrees[:, None]).astype(dtype)
        return segment_sum(self.T.indptr, self.T.indices, scaled)
