"""The graph type and the segment reductions that propagation runs on.

``CSR`` is the one graph type: a directed graph in compressed sparse row
form with its neighbour mean and that mean's adjoint. Its transpose is built
from it on first use, so a graph and its reverse can never disagree.

The reductions come in two interchangeable backends:

* ``numba`` -- jit-compiled loops, parallel over destination rows. Default
  whenever numba imports.
* ``numpy`` -- pure-numpy fallback built on ``np.add.at``.

Select explicitly with the environment variable ``GBREC_BACKEND=numba|numpy``
(read once at import time). In both backends ``segment_sum`` and
``segment_mean`` accumulate in float64 and round to the input dtype once at
the end, so results agree across backends to the last bit in the common case;
``scatter_add_rows`` accumulates in the output array's dtype.

Per-row reductions iterate neighbors in CSR order regardless of thread count,
so numba parallelism does not change results. ``scatter_add_rows`` is the one
inherently sequential kernel (duplicate destinations) and is never threaded.
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
# numpy implementations


def _segment_sum_np(indptr, indices, src):
    n_rows = indptr.shape[0] - 1
    out = np.zeros((n_rows, src.shape[1]), dtype=np.float64)
    rows = np.repeat(np.arange(n_rows, dtype=np.int64), np.diff(indptr))
    np.add.at(out, rows, src[indices])
    return out


def _scatter_add_rows_np(out, idx, rows):
    np.add.at(out, idx, rows)


# ---------------------------------------------------------------------------
# numba implementations

if HAVE_NUMBA:

    @njit(cache=True, parallel=True)
    def _segment_sum_nb(indptr, indices, src, out):
        # each destination row is owned by exactly one iteration: deterministic
        for r in prange(indptr.shape[0] - 1):
            for j in range(indptr[r], indptr[r + 1]):
                s = indices[j]
                for c in range(src.shape[1]):
                    out[r, c] += src[s, c]

    @njit(cache=True)
    def _scatter_add_rows_nb(out, idx, rows):
        for i in range(idx.shape[0]):
            r = idx[i]
            for c in range(rows.shape[1]):
                out[r, c] += rows[i, c]


# ---------------------------------------------------------------------------
# public API


def segment_sum(indptr: np.ndarray, indices: np.ndarray, src: np.ndarray) -> np.ndarray:
    """Per-row neighbor sum: ``out[r] = sum(src[indices[indptr[r]:indptr[r+1]]])``.

    Rows with no neighbors come back as zero vectors. Returns ``src``'s dtype.
    """
    src = np.ascontiguousarray(src)
    if _BACKEND == "numba":
        out = np.zeros((indptr.shape[0] - 1, src.shape[1]), dtype=np.float64)
        _segment_sum_nb(indptr, indices, src, out)
    else:
        out = _segment_sum_np(indptr, indices, src)
    return out.astype(src.dtype, copy=False)


def segment_mean(indptr: np.ndarray, indices: np.ndarray, src: np.ndarray) -> np.ndarray:
    """Per-row neighbor mean; empty rows yield the zero vector."""
    src = np.ascontiguousarray(src)
    if _BACKEND == "numba":
        sums = np.zeros((indptr.shape[0] - 1, src.shape[1]), dtype=np.float64)
        _segment_sum_nb(indptr, indices, src, sums)
    else:
        sums = _segment_sum_np(indptr, indices, src)
    counts = np.diff(indptr)
    inv = np.zeros(counts.shape[0], dtype=np.float64)
    nz = counts > 0
    inv[nz] = 1.0 / counts[nz]
    return (sums * inv[:, None]).astype(src.dtype, copy=False)


def scatter_add_rows(out: np.ndarray, idx: np.ndarray, rows: np.ndarray) -> None:
    """In-place ``out[idx[i]] += rows[i]`` with duplicate idx handled by accumulation."""
    if idx.shape[0] == 0:
        return
    rows = np.ascontiguousarray(rows.astype(out.dtype, copy=False))
    idx = np.ascontiguousarray(idx)
    if _BACKEND == "numba":
        _scatter_add_rows_nb(out, idx, rows)
    else:
        _scatter_add_rows_np(out, idx, rows)


# registry used by the benchmark and the backend-equivalence tests
IMPLS = {"numpy": {"segment_sum": _segment_sum_np, "scatter_add_rows": _scatter_add_rows_np}}
if HAVE_NUMBA:
    IMPLS["numba"] = {"segment_sum": _segment_sum_nb, "scatter_add_rows": _scatter_add_rows_nb}


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
        """Build from parallel edge arrays; repeated edges collapse to one."""
        edges = np.unique(np.stack([rows, cols], axis=1), axis=0)
        indptr = np.zeros(num_rows + 1, dtype=np.int64)
        np.add.at(indptr, edges[:, 0] + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(num_rows, num_cols, indptr, edges[:, 1].astype(np.int64))

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
