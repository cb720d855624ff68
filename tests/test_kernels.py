"""Graph means and scatter kernels against sequential float64 loop oracles.

Bit-exact tests of the sparse kernel pin the sparse path with the
``sparse_products`` fixture; the dense path is held to the same loops within
a stated tolerance under ``dense_products``.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gbrec import kernels
from gbrec.data import SocialGraph

import oracles


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


def loop_mean_adjoint(g, d, dtype=np.float64):
    """Sequential float64 adjoint of the mean: ``d[r] / degree(r)``, rounded to
    ``dtype``, summed into each neighbour ``c`` in row order."""
    out = np.zeros((g.num_cols, d.shape[1]))
    for r in range(g.num_rows):
        for c in g.neighbors(r):
            out[c] += (d[r] * g.inv_degrees[r]).astype(dtype)
    return out


# the path fixtures only set module constants, the same for every example
FIXTURED = [HealthCheck.function_scoped_fixture]


@settings(max_examples=200, deadline=None, suppress_health_check=FIXTURED)
@given(
    n_rows=st.integers(1, 12),
    n_cols=st.integers(1, 10),
    n_edges=st.integers(0, 60),
    dim=st.integers(1, 20),
    dtype=DTYPES,
    seed=st.integers(0, 2**32 - 1),
)
def test_segment_sum_and_mean_equal_a_sequential_float64_loop(sparse_products, n_rows, n_cols, n_edges, dim, dtype, seed):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, n_rows, size=n_edges)
    cols = rng.integers(0, n_cols, size=n_edges)
    g = kernels.CSR.from_edges(n_rows, n_cols, rows, cols)
    for r in range(n_rows):
        np.testing.assert_array_equal(g.neighbors(r), np.unique(cols[rows == r]))
    src = spread_values(rng, (n_cols, dim), dtype)
    d = spread_values(rng, (n_rows, dim), np.float64)

    sums = loop_segment_sum(g.indptr, g.indices, src)
    got = kernels.segment_sum(g.indptr, g.indices, src)
    mean = g.mean(src)
    adjoint = g.mean_adjoint(d, dtype)
    assert got.dtype == dtype
    np.testing.assert_array_equal(got, sums.astype(dtype))

    assert mean.dtype == dtype
    np.testing.assert_array_equal(mean, (sums * g.inv_degrees[:, None]).astype(dtype))
    np.testing.assert_array_equal(mean[g.degrees == 0], 0.0)

    assert adjoint.dtype == dtype
    np.testing.assert_array_equal(adjoint, loop_mean_adjoint(g, d, dtype).astype(dtype))


# dense products round as BLAS sums: each result is held to the float64 loop
# within RTOL times the sum of its terms' magnitudes. With at most 12 terms
# per sum here, float32's rounding of the inputs, of 1/degree and of each
# partial sum stays under (12 + 2) * 6e-8 = 8.4e-7 (measured: 2.4e-7).
RTOL = {np.float64: 1e-12, np.float32: 1e-6}


def assert_within_terms(got, want, terms_abs, rtol):
    excess = np.abs(got.astype(np.float64) - want) - rtol * terms_abs
    assert excess.max(initial=0.0) <= 0.0, f"off by more than {rtol:g} of the terms' magnitudes"


@settings(max_examples=200, deadline=None, suppress_health_check=FIXTURED)
@given(
    n_rows=st.integers(1, 12),
    n_cols=st.integers(1, 10),
    n_edges=st.integers(0, 60),
    dim=st.integers(1, 20),
    dtype=DTYPES,
    seed=st.integers(0, 2**32 - 1),
)
def test_dense_mean_and_adjoint_match_the_float64_loop(dense_products, n_rows, n_cols, n_edges, dim, dtype, seed):
    rng = np.random.default_rng(seed)
    g = kernels.CSR.from_edges(n_rows, n_cols, rng.integers(0, n_rows, n_edges), rng.integers(0, n_cols, n_edges))
    assert g.runs_dense
    src = spread_values(rng, (n_cols, dim), dtype)
    d = spread_values(rng, (n_rows, dim), np.float64)

    mean = g.mean(src)
    assert mean.dtype == dtype
    inv = g.inv_degrees[:, None]
    assert_within_terms(mean, loop_segment_sum(g.indptr, g.indices, src) * inv,
                        loop_segment_sum(g.indptr, g.indices, np.abs(src)) * inv, RTOL[dtype])
    np.testing.assert_array_equal(mean[g.degrees == 0], 0.0)

    adjoint = g.mean_adjoint(d, dtype)
    assert adjoint.dtype == dtype
    assert_within_terms(adjoint, loop_mean_adjoint(g, d), loop_mean_adjoint(g, np.abs(d)), RTOL[dtype])
    assert g.normalized(dtype).dtype == dtype
    assert g.normalized(dtype) is g.normalized(dtype)  # built once per dtype


def test_the_dense_rule_counts_stored_entries_against_the_cells(monkeypatch):
    monkeypatch.setattr(kernels, "DENSE_MIN_FILL", 1 / 8)
    monkeypatch.setattr(kernels, "DENSE_MAX_CELLS", 65)
    rows, cols = np.divmod(np.arange(8), 8)  # 8 entries in row 0 of an 8 x 8 graph
    assert kernels.CSR.from_edges(8, 8, rows, cols).runs_dense  # 8 entries fill 1/8 of 64 cells
    assert not kernels.CSR.from_edges(8, 8, rows[:7], cols[:7]).runs_dense
    assert not kernels.CSR.from_edges(8, 9, rows, cols).runs_dense  # 72 cells: past the cap
    # a symmetric graph stores each undirected edge twice, and the rule counts what is stored
    social = SocialGraph.from_edges(8, np.array([[0, 1], [2, 3], [4, 5], [6, 7]]))
    assert social.num_edges == 4 and social.indices.shape[0] == 8
    assert social.runs_dense


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

    kernels.scatter_add_rows([(out, rows, None)], idx)
    assert out.dtype == np.float32
    np.testing.assert_array_equal(out, expected)


WIDTHS = [1, 15, 16, 17, 48]  # from one column to 48, the width of a GBGCN embedding block on the desk world
F32, F64 = np.float32, np.float64


@st.composite
def multi_scatter_cases(draw):
    n_rows = draw(st.integers(1, 8))
    n_src = draw(st.integers(1, 8))
    idx = draw(st.lists(st.integers(0, n_rows - 1), max_size=30))
    gathered = draw(st.booleans())
    gather = draw(st.lists(st.integers(0, n_src - 1), min_size=len(idx), max_size=len(idx))) if gathered else None
    targets = draw(
        st.lists(
            # (width, out dtype, table dtype, scale dtype or no scale)
            st.tuples(st.sampled_from(WIDTHS), DTYPES, DTYPES, st.sampled_from([None, F32, F64])),
            min_size=1,
            max_size=3,
        )
    )
    return n_rows, n_src, idx, gather, targets, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(case=multi_scatter_cases())
@example(case=(4, 3, [], [], [(17, F32, F32, F64)], 0))
@example(case=(4, 3, [0, 3, 0, 3, 0], [2, 0, 2, 2, 0], [(48, F32, F32, F64), (16, F32, F64, None)], 1))
@example(case=(1, 5, [0, 0, 0, 0], None, [(1, F64, F32, F32), (15, F32, F32, F64)], 2))
@example(case=(6, 6, [5, 0, 5, 5], [0, 5, 5, 0], [(17, F32, F32, F32), (48, F64, F64, F64)], 3))
def test_multi_target_scatter_equals_a_sequential_float64_loop(case):
    n_rows, n_src, idx, gather, targets, seed = case
    rng = np.random.default_rng(seed)
    idx = np.asarray(idx, dtype=np.int64)
    if gather is not None:
        gather = np.asarray(gather, dtype=np.int64)
    table_rows = n_src if gather is not None else idx.shape[0]
    args, expected = [], []
    for width, out_dtype, table_dtype, scale_dtype in targets:
        out = spread_values(rng, (n_rows, width), out_dtype)
        table = spread_values(rng, (table_rows, width), table_dtype)
        scale = None if scale_dtype is None else spread_values(rng, (idx.shape[0],), scale_dtype)
        expected.append(oracles.signed_scatter_oracle(out, idx, table, scale, gather))
        args.append((out, table, scale))

    kernels.scatter_add_rows(args, idx, gather)
    for (out, _, _), want, (_, out_dtype, _, _) in zip(args, expected, targets):
        assert out.dtype == out_dtype
        np.testing.assert_array_equal(out, want)


@st.composite
def signed_scatter_cases(draw):
    """A signed scatter: the user side's subtracted gather, the item side's
    subtracted destination, or both; ``tie`` makes every minus index equal its
    plus index, so every row must cancel."""
    n_rows = draw(st.integers(1, 8))
    n_src = draw(st.integers(1, 8))
    n = draw(st.integers(0, 30))
    idx = draw(st.lists(st.integers(0, n_rows - 1), min_size=n, max_size=n))
    gather = draw(st.lists(st.integers(0, n_src - 1), min_size=n, max_size=n))
    minus_gather = draw(st.none() | st.lists(st.integers(0, n_src - 1), min_size=n, max_size=n))
    minus_idx = draw(st.none() | st.lists(st.integers(0, n_rows - 1), min_size=n, max_size=n))
    if minus_gather is None and minus_idx is None:
        minus_gather = draw(st.lists(st.integers(0, n_src - 1), min_size=n, max_size=n))
    tie = draw(st.booleans())
    if tie:
        minus_gather = None if minus_gather is None else gather
        minus_idx = None if minus_idx is None else idx
    targets = draw(
        st.lists(
            st.tuples(st.sampled_from(WIDTHS), DTYPES, DTYPES, st.sampled_from([None, F32, F64])),
            min_size=1,
            max_size=3,
        )
    )
    return n_rows, n_src, idx, gather, minus_gather, minus_idx, tie, targets, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(case=signed_scatter_cases())
@example(case=(3, 3, [], [], [], None, False, [(17, F32, F32, F64)], 0))
@example(case=(3, 3, [], [], None, [], False, [(17, F32, F32, F64)], 0))
@example(case=(4, 5, [0, 3, 0, 3], [4, 1, 4, 0], [2, 2, 0, 0], None, False, [(48, F32, F32, F64), (1, F64, F64, F32)], 1))
@example(case=(4, 5, [2, 2, 1, 2], [0, 4, 4, 0], None, [2, 1, 1, 0], False, [(17, F32, F32, F64), (16, F64, F32, None)], 2))
@example(case=(2, 3, [1, 0, 1], [2, 2, 0], [2, 2, 0], None, True, [(15, F32, F32, F64)], 3))
@example(case=(2, 3, [1, 1, 1], [2, 0, 1], None, [1, 1, 1], True, [(15, F32, F32, F64)], 4))
def test_signed_scatter_equals_the_loop_oracle(case):
    n_rows, n_src, idx, gather, minus_gather, minus_idx, tie, targets, seed = case
    rng = np.random.default_rng(seed)
    as_index = lambda a: None if a is None else np.asarray(a, dtype=np.int64)
    idx, gather, minus_gather, minus_idx = map(as_index, (idx, gather, minus_gather, minus_idx))
    args, expected, before = [], [], []
    for width, out_dtype, table_dtype, scale_dtype in targets:
        out = spread_values(rng, (n_rows, width), out_dtype)
        table = spread_values(rng, (n_src, width), table_dtype)
        scale = None if scale_dtype is None else spread_values(rng, (idx.shape[0],), scale_dtype)
        expected.append(oracles.signed_scatter_oracle(out, idx, table, scale, gather, minus_gather, minus_idx))
        before.append(out.copy())
        args.append((out, table, scale))

    kernels.scatter_add_rows(args, idx, gather, minus_gather=minus_gather, minus_idx=minus_idx)
    for (out, _, _), want, old, (_, out_dtype, _, _) in zip(args, expected, before, targets):
        assert out.dtype == out_dtype
        np.testing.assert_array_equal(out, want)
        if tie:  # lo == hi for every term: each row, or each row's two sums, cancel to exactly 0
            np.testing.assert_array_equal(out, old)


def test_scatter_rejects_a_gather_index_out_of_range():
    out = np.zeros((2, 3))
    with pytest.raises(IndexError):
        kernels.scatter_add_rows([(out, np.ones((4, 3)), None)], np.array([0, 1]), np.array([0, 4]))
    with pytest.raises(IndexError):
        kernels.scatter_add_rows([(out, np.ones((4, 3)), None)], np.array([0, 1]), np.array([-1, 0]))
    np.testing.assert_array_equal(out, 0.0)


@pytest.mark.parametrize(
    "where,bad",
    [("idx", 3), ("idx", -1), ("gather", 4), ("gather", -1), ("minus_gather", 4), ("minus_gather", -1),
     ("minus_idx", 3), ("minus_idx", -1)],
)
def test_scatter_rejects_every_index_out_of_range(where, bad):
    # 3 destination rows, 4 table rows; the bad index is the last of three
    out = np.zeros((3, 2))
    index = {
        "idx": np.array([0, 2, 1]),
        "gather": np.array([3, 0, 1]),
        "minus_gather": np.array([1, 3, 0]),
        "minus_idx": np.array([2, 0, 0]),
    }
    index[where] = np.array([*index[where][:2], bad])
    bound = 3 if where in ("idx", "minus_idx") else 4
    with pytest.raises(IndexError, match=rf"out of range \[0, {bound}\)"):
        kernels.scatter_add_rows([(out, np.ones((4, 2)), np.ones(3))], index["idx"], index["gather"],
                                 minus_gather=index["minus_gather"], minus_idx=index["minus_idx"])
    np.testing.assert_array_equal(out, 0.0)


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
    kernels.scatter_add_rows([(out, rows, None)], idx)
    np.testing.assert_array_equal(out[1], [11.0, 22.0])
    np.testing.assert_array_equal(out[3], [5.0, 5.0])
    np.testing.assert_array_equal(out[0], 0.0)
    kernels.scatter_add_rows([(out, np.empty((0, 2)), None)], np.empty(0, dtype=np.int64))
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


def test_backend_name_is_known():
    assert kernels.backend_name() == "numpy"
