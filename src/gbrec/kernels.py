"""The graph type and the segment reductions that propagation runs on.

``CSR`` is the one graph type: a directed graph in compressed sparse row
form with its neighbour mean and that mean's adjoint. Its transpose is built
from it on first use, so a graph and its reverse can never disagree.

The reductions come in two interchangeable backends, each with one kernel:

* ``numba`` -- a jit-compiled segment sum, parallel over destination rows.
  Default whenever numba imports (``pip install gbrec[numba]``).
* ``numpy`` -- a float64 sum of source rows into destination rows, one
  ``np.bincount`` per column.

Select explicitly with the environment variable ``GBREC_BACKEND=numba|numpy``
(read once at import time). ``scatter_add_rows`` is the transpose of
``segment_sum``: on numpy the same bincount with the scatter index as the
destination, on numba the segment sum over the stably sorted scatter index.
All three reductions -- ``segment_sum``, ``segment_mean`` and
``scatter_add_rows`` -- add each destination row's contributions in float64,
in index order, and round to the output dtype once at the end, so the two
backends agree to the last bit.

Per-row reductions iterate neighbors in CSR order regardless of thread count,
so numba parallelism does not change results.
"""

from __future__ import annotations

import os
from functools import cached_property

import numpy as np

try:
    import numba
    from numba import njit, prange

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only where numba is absent
    HAVE_NUMBA = False


def _select_backend() -> str:
    choice = os.environ.get("GBREC_BACKEND", "").strip().lower()
    if choice not in ("", "numba", "numpy"):
        raise ValueError(f"GBREC_BACKEND must be 'numba' or 'numpy', got {choice!r}")
    if choice == "numba" and not HAVE_NUMBA:
        raise RuntimeError("GBREC_BACKEND=numba but numba is not importable")
    if not choice:
        return "numba" if HAVE_NUMBA else "numpy"
    return choice


_BACKEND = _select_backend()


def backend_name() -> str:
    return _BACKEND


def set_num_threads(n: int) -> None:
    """Cap the numba thread pool; no-op on the numpy backend."""
    if n < 1:
        raise ValueError("thread count must be >= 1")
    if HAVE_NUMBA:
        numba.set_num_threads(min(n, numba.config.NUMBA_NUM_THREADS))


# ---------------------------------------------------------------------------
# the one kernel of each backend


def _bincount_rows(dest, src, n_rows, gather=None):
    """float64 ``out[dest[i]] += src[gather[i]]`` (``src[i]`` without ``gather``).

    One ``np.bincount`` per column of ``src``; bincount adds its weights in
    index order in float64, so every destination row is a sequential float64
    sum in the order its contributions appear. Columns are read one at a
    time, so no whole copy of ``src`` (or of its gathered rows) is made.
    """
    out = np.empty((n_rows, src.shape[1]), dtype=np.float64)
    for c, col in enumerate(src.T):
        out[:, c] = np.bincount(dest, weights=col if gather is None else col.take(gather), minlength=n_rows)
    return out


if HAVE_NUMBA:

    @njit(cache=True, parallel=True)
    def _segment_sum_nb(indptr, indices, src, out):
        # each destination row is owned by exactly one iteration: deterministic
        for r in prange(indptr.shape[0] - 1):
            for j in range(indptr[r], indptr[r + 1]):
                s = indices[j]
                for c in range(src.shape[1]):
                    out[r, c] += src[s, c]


def _transpose_index(idx, n_rows):
    """The CSR of a scatter: row ``r`` lists, in order, the ``i`` with ``idx[i] == r``."""
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(idx, minlength=n_rows), out=indptr[1:])
    return indptr, np.argsort(idx, kind="stable")


def _segment_sum64(indptr, indices, src):
    n_rows = indptr.shape[0] - 1
    if _BACKEND == "numba":
        out = np.zeros((n_rows, src.shape[1]), dtype=np.float64)
        _segment_sum_nb(indptr, indices, src, out)
        return out
    dest = np.repeat(np.arange(n_rows, dtype=np.int64), np.diff(indptr))
    return _bincount_rows(dest, src, n_rows, indices)


def _scatter_sum64(idx, rows, n_rows):
    if _BACKEND == "numba":
        indptr, order = _transpose_index(idx, n_rows)
        out = np.zeros((n_rows, rows.shape[1]), dtype=np.float64)
        _segment_sum_nb(indptr, order, rows, out)
        return out
    return _bincount_rows(idx, rows, n_rows)


# ---------------------------------------------------------------------------
# public API


def segment_sum(indptr: np.ndarray, indices: np.ndarray, src: np.ndarray) -> np.ndarray:
    """Per-row neighbor sum: ``out[r] = sum(src[indices[indptr[r]:indptr[r+1]]])``.

    Rows with no neighbors come back as zero vectors. Returns ``src``'s dtype.
    """
    src = np.ascontiguousarray(src)
    return _segment_sum64(indptr, indices, src).astype(src.dtype, copy=False)


def segment_mean(indptr: np.ndarray, indices: np.ndarray, src: np.ndarray) -> np.ndarray:
    """Per-row neighbor mean; empty rows yield the zero vector."""
    src = np.ascontiguousarray(src)
    sums = _segment_sum64(indptr, indices, src)
    counts = np.diff(indptr)
    inv = np.zeros(counts.shape[0], dtype=np.float64)
    nz = counts > 0
    inv[nz] = 1.0 / counts[nz]
    return (sums * inv[:, None]).astype(src.dtype, copy=False)


def scatter_add_rows(out: np.ndarray, idx: np.ndarray, rows: np.ndarray) -> None:
    """In-place ``out[idx[i]] += rows[i]`` with duplicate idx handled by accumulation.

    Each destination's contributions are summed in float64, in index order,
    and the sum is rounded to ``out.dtype`` once before it is added.
    """
    if idx.shape[0] == 0:
        return
    out += _scatter_sum64(np.ascontiguousarray(idx), rows, out.shape[0]).astype(out.dtype)


# the one kernel of each backend, for the benchmark and the backend-equivalence test
IMPLS = {"numpy": _bincount_rows}
if HAVE_NUMBA:
    IMPLS["numba"] = _segment_sum_nb


# ---------------------------------------------------------------------------
# the graph type


class CSR:
    """A directed graph from ``num_rows`` row vertices to ``num_cols`` column
    vertices: row ``r``'s neighbours are ``indices[indptr[r]:indptr[r+1]]``,
    sorted and without repeats.
    """

    def __init__(self, num_rows: int, num_cols: int, indptr: np.ndarray, indices: np.ndarray):
        self.num_rows = num_rows
        self.num_cols = num_cols
        self.indptr = indptr
        self.indices = indices
        self._transpose: CSR | None = None

    @classmethod
    def from_edges(cls, num_rows: int, num_cols: int, rows: np.ndarray, cols: np.ndarray) -> "CSR":
        """Build from parallel edge arrays; repeated edges collapse to one.

        Each edge is keyed ``row * num_cols + col``, so one sort of the keys
        orders the edges by row, then column.
        """
        keys = np.unique(np.asarray(rows, dtype=np.int64) * num_cols + np.asarray(cols, dtype=np.int64))
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
    def num_edges(self) -> int:
        return self.indices.shape[0]

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

    def mean(self, src: np.ndarray) -> np.ndarray:
        """Per-row mean of the neighbours' ``src`` rows; empty rows give zero."""
        return segment_mean(self.indptr, self.indices, src)

    def mean_adjoint(self, d: np.ndarray, dtype) -> np.ndarray:
        """Adjoint of ``mean``: maps d(loss)/d(mean) to d(loss)/d(src).

        Each row's adjoint is split evenly over its neighbours (rounded to
        ``dtype``) and summed per neighbour over the transpose.
        """
        scaled = (d * self.inv_degrees[:, None]).astype(dtype)
        return segment_sum(self.T.indptr, self.T.indices, scaled)
