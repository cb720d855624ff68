"""Sparse segment/scatter kernels against loop oracles, plus backend parity."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gbrec import kernels


def random_csr(rng, n_rows, n_targets, n_edges):
    rows = rng.integers(0, n_rows, size=n_edges)
    cols = rng.integers(0, n_targets, size=n_edges)
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
    return indptr, cols.astype(np.int64)


def loop_segment_sum(indptr, indices, src):
    """Sequential float64 sum per row, in CSR order."""
    out = np.zeros((indptr.shape[0] - 1, src.shape[1]))
    for r in range(indptr.shape[0] - 1):
        for j in indices[indptr[r] : indptr[r + 1]]:
            out[r] += src[j]
    return out


def spread_values(rng, shape, dtype):
    """Signed values whose magnitudes span ten orders, so summation order shows in the bits."""
    return (rng.standard_normal(shape) * 10.0 ** rng.uniform(-5, 5, size=shape)).astype(dtype)


DTYPES = st.sampled_from([np.float32, np.float64])


@settings(max_examples=200, deadline=None)
@given(
    n_rows=st.integers(1, 12),
    n_cols=st.integers(1, 10),
    n_edges=st.integers(0, 60),
    dim=st.integers(1, 4),
    dtype=DTYPES,
    seed=st.integers(0, 2**32 - 1),
)
def test_segment_sum_and_mean_equal_a_sequential_float64_loop(n_rows, n_cols, n_edges, dim, dtype, seed):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, n_rows, size=n_edges)
    cols = rng.integers(0, n_cols, size=n_edges)
    g = kernels.CSR.from_edges(n_rows, n_cols, rows, cols)
    for r in range(n_rows):
        np.testing.assert_array_equal(g.neighbors(r), np.unique(cols[rows == r]))
    src = spread_values(rng, (n_cols, dim), dtype)

    sums = loop_segment_sum(g.indptr, g.indices, src)
    got = kernels.segment_sum(g.indptr, g.indices, src)
    assert got.dtype == dtype
    np.testing.assert_array_equal(got, sums.astype(dtype))

    mean = g.mean(src)
    assert mean.dtype == dtype
    np.testing.assert_array_equal(mean, (sums * g.inv_degrees[:, None]).astype(dtype))
    np.testing.assert_array_equal(mean[g.degrees == 0], 0.0)


@st.composite
def scatter_cases(draw):
    n_rows = draw(st.integers(1, 8))
    idx = draw(st.lists(st.integers(0, n_rows - 1), max_size=30))
    return n_rows, idx, draw(DTYPES), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(case=scatter_cases())
@example(case=(5, [], np.float64, 0))
@example(case=(5, [0, 4, 0, 4, 0], np.float64, 1))
@example(case=(1, [0, 0, 0], np.float32, 2))
def test_scatter_add_rows_is_a_float64_sum_rounded_once(case):
    n_rows, idx, row_dtype, seed = case
    rng = np.random.default_rng(seed)
    idx = np.asarray(idx, dtype=np.int64)
    rows = spread_values(rng, (idx.shape[0], 3), row_dtype)
    out = spread_values(rng, (n_rows, 3), np.float32)

    acc = np.zeros((n_rows, 3))
    for i, r in enumerate(idx):
        acc[r] += rows[i]
    expected = out + acc.astype(np.float32)

    kernels.scatter_add_rows(out, idx, rows)
    assert out.dtype == np.float32
    np.testing.assert_array_equal(out, expected)


def test_segment_sum_matches_loop_oracle():
    rng = np.random.default_rng(0)
    indptr, indices = random_csr(rng, 17, 11, 60)
    src = rng.standard_normal((11, 5))
    got = kernels.segment_sum(indptr, indices, src)
    np.testing.assert_allclose(got, loop_segment_sum(indptr, indices, src), rtol=1e-12)
    assert got.dtype == src.dtype


def test_segment_sum_empty_rows_are_zero():
    indptr = np.array([0, 0, 2, 2], dtype=np.int64)
    indices = np.array([1, 3], dtype=np.int64)
    src = np.arange(8, dtype=np.float64).reshape(4, 2)
    got = kernels.segment_sum(indptr, indices, src)
    np.testing.assert_array_equal(got[0], 0.0)
    np.testing.assert_array_equal(got[2], 0.0)
    np.testing.assert_array_equal(got[1], src[1] + src[3])


def test_segment_mean_divides_by_count_and_zeroes_empty():
    indptr = np.array([0, 3, 3], dtype=np.int64)
    indices = np.array([0, 1, 2], dtype=np.int64)
    src = np.array([[3.0], [6.0], [12.0]])
    got = kernels.segment_mean(indptr, indices, src)
    np.testing.assert_array_equal(got, [[7.0], [0.0]])


def test_segment_sum_no_edges_at_all():
    indptr = np.zeros(4, dtype=np.int64)
    got = kernels.segment_sum(indptr, np.empty(0, dtype=np.int64), np.ones((5, 3)))
    np.testing.assert_array_equal(got, np.zeros((3, 3)))


def test_scatter_add_accumulates_duplicates():
    out = np.zeros((4, 2))
    idx = np.array([1, 1, 3], dtype=np.int64)
    rows = np.array([[1.0, 2.0], [10.0, 20.0], [5.0, 5.0]])
    kernels.scatter_add_rows(out, idx, rows)
    np.testing.assert_array_equal(out[1], [11.0, 22.0])
    np.testing.assert_array_equal(out[3], [5.0, 5.0])
    np.testing.assert_array_equal(out[0], 0.0)
    kernels.scatter_add_rows(out, np.empty(0, dtype=np.int64), np.empty((0, 2)))
    np.testing.assert_array_equal(out[1], [11.0, 22.0])


def test_inv_degrees():
    g = kernels.CSR(3, 3, np.array([0, 2, 2, 5], dtype=np.int64), np.array([0, 1, 0, 1, 2], dtype=np.int64))
    np.testing.assert_array_equal(g.inv_degrees, [0.5, 0.0, 1.0 / 3.0])


def test_float32_inputs_accumulate_in_float64():
    # values chosen so naive f32 accumulation loses the small addend
    indptr = np.array([0, 3], dtype=np.int64)
    indices = np.array([0, 1, 2], dtype=np.int64)
    src = np.array([[2.0**24], [1.0], [-(2.0**24)]], dtype=np.float32)
    got = kernels.segment_sum(indptr, indices, src)
    assert got.dtype == np.float32
    assert got[0, 0] == 1.0


def test_each_backend_has_one_kernel():
    assert kernels.IMPLS["numpy"] is kernels._bincount_rows
    assert set(kernels.IMPLS) == ({"numpy", "numba"} if kernels.HAVE_NUMBA else {"numpy"})


def _python_segment_sum_nb(indptr, indices, src, out):
    """The numba kernel's loop, run as plain Python."""
    for r in range(indptr.shape[0] - 1):
        for j in range(indptr[r], indptr[r + 1]):
            out[r] += src[indices[j]]


def test_numba_dispatch_matches_numpy_through_the_transposed_index(monkeypatch):
    # the numba backend's scatter is its segment sum over the stably sorted
    # index; run that wiring with the kernel's loop in Python, so it is
    # checked where numba is absent too
    rng = np.random.default_rng(1)
    indptr, indices = random_csr(rng, 40, 30, 300)
    src = spread_values(rng, (30, 8), np.float32)
    # many same-scale rows per destination, kept in float64 at the end, so a
    # change of summation order shows in the bits
    idx = rng.integers(0, 30, size=2000)
    rows = rng.standard_normal((2000, 8))
    target = rng.standard_normal((30, 8))

    want_sum = kernels.segment_sum(indptr, indices, src)
    want_mean = kernels.segment_mean(indptr, indices, src)
    want_scatter = target.copy()
    kernels.scatter_add_rows(want_scatter, idx, rows)

    monkeypatch.setattr(kernels, "_BACKEND", "numba")
    monkeypatch.setattr(kernels, "_segment_sum_nb", _python_segment_sum_nb, raising=False)
    np.testing.assert_array_equal(kernels.segment_sum(indptr, indices, src), want_sum)
    np.testing.assert_array_equal(kernels.segment_mean(indptr, indices, src), want_mean)
    kernels.scatter_add_rows(target, idx, rows)
    np.testing.assert_array_equal(target, want_scatter)


@pytest.mark.skipif(len(kernels.IMPLS) < 2, reason="only one backend available")
def test_backends_agree_bit_for_bit():
    rng = np.random.default_rng(1)
    indptr, indices = random_csr(rng, 40, 30, 300)
    src = rng.standard_normal((30, 8)).astype(np.float32)

    nb_out = np.zeros((40, 8), dtype=np.float64)
    kernels.IMPLS["numba"](indptr, indices, src, nb_out)
    dest = np.repeat(np.arange(40, dtype=np.int64), np.diff(indptr))
    np.testing.assert_array_equal(nb_out, kernels.IMPLS["numpy"](dest, src, 40, indices))

    idx = rng.integers(0, 30, size=100)
    rows = rng.standard_normal((100, 8))
    t_indptr, order = kernels._transpose_index(idx, 30)
    nb_out = np.zeros((30, 8), dtype=np.float64)
    kernels.IMPLS["numba"](t_indptr, order, rows, nb_out)
    np.testing.assert_array_equal(nb_out, kernels.IMPLS["numpy"](idx, rows, 30))


def test_backend_env_override_numpy():
    code = (
        "import gbrec.kernels as k; assert k.backend_name() == 'numpy', k.backend_name()"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": os.environ.get("PYTHONPATH", ""), "GBREC_BACKEND": "numpy"},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_backend_env_rejects_unknown():
    code = "import gbrec.kernels"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": os.environ.get("PYTHONPATH", ""), "GBREC_BACKEND": "cuda"},
        capture_output=True,
        text=True,
    )
    assert proc.returncode != 0
    assert "GBREC_BACKEND" in proc.stderr


def test_set_num_threads_validation():
    with pytest.raises(ValueError):
        kernels.set_num_threads(0)
    kernels.set_num_threads(1)
    kernels.set_num_threads(4)


def test_backend_name_is_known():
    assert kernels.backend_name() in ("numba", "numpy")
