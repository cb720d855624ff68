"""Sparse segment/scatter kernels against loop oracles, plus backend parity."""

import os
import subprocess
import sys

import numpy as np
import pytest

from gbrec import kernels


def random_csr(rng, n_rows, n_targets, n_edges):
    rows = rng.integers(0, n_rows, size=n_edges)
    cols = rng.integers(0, n_targets, size=n_edges)
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.add.at(indptr, rows + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, cols.astype(np.int64)


def loop_segment_sum(indptr, indices, src):
    out = np.zeros((indptr.shape[0] - 1, src.shape[1]))
    for r in range(indptr.shape[0] - 1):
        for j in indices[indptr[r] : indptr[r + 1]]:
            out[r] += src[j]
    return out


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


@pytest.mark.skipif(len(kernels.IMPLS) < 2, reason="only one backend available")
def test_backends_agree_bit_for_bit():
    rng = np.random.default_rng(1)
    indptr, indices = random_csr(rng, 40, 30, 300)
    src = rng.standard_normal((30, 8)).astype(np.float32)

    nb_out = np.zeros((40, 8), dtype=np.float64)
    kernels.IMPLS["numba"]["segment_sum"](indptr, indices, src, nb_out)
    np_out = kernels.IMPLS["numpy"]["segment_sum"](indptr, indices, src)
    np.testing.assert_array_equal(nb_out, np_out)

    target_nb = np.zeros((30, 8), dtype=np.float64)
    target_np = np.zeros((30, 8), dtype=np.float64)
    idx = rng.integers(0, 30, size=100)
    rows = rng.standard_normal((100, 8))
    kernels.IMPLS["numba"]["scatter_add_rows"](target_nb, idx, rows)
    kernels.IMPLS["numpy"]["scatter_add_rows"](target_np, idx, rows)
    np.testing.assert_array_equal(target_nb, target_np)


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
