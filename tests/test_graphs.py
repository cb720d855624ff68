"""Adjacency assembly from behavior records, and the CSR graph type."""

import numpy as np
import pytest

from gbrec.data import BehaviorLog, BehaviorRecord, SocialGraph
from gbrec.graphs import build_graphs
from gbrec.kernels import CSR

import helpers


RECORDS = [
    BehaviorRecord(0, 0, (1, 2), True),
    BehaviorRecord(1, 1, (2,), False),
    BehaviorRecord(0, 0, (1,), True),  # repeats edges already present
    BehaviorRecord(2, 2, (), True),
]
LOG = BehaviorLog(RECORDS, 3, 3)


def test_build_graphs_wires_all_three_graphs():
    b = build_graphs(LOG)
    # launches: every record contributes (initiator, item), duplicates collapse
    np.testing.assert_array_equal(b.launch.neighbors(0), [0])
    np.testing.assert_array_equal(b.launch.neighbors(1), [1])
    np.testing.assert_array_equal(b.launch.neighbors(2), [2])
    np.testing.assert_array_equal(b.launch.T.neighbors(0), [0])
    # joins: participants attach to the record's item
    np.testing.assert_array_equal(b.join.neighbors(1), [0])
    np.testing.assert_array_equal(b.join.neighbors(2), [0, 1])
    np.testing.assert_array_equal(b.join.T.neighbors(0), [1, 2])
    np.testing.assert_array_equal(b.join.T.neighbors(2), [])
    # shares: initiator -> each participant, directed
    np.testing.assert_array_equal(b.share.neighbors(0), [1, 2])
    np.testing.assert_array_equal(b.share.neighbors(1), [2])
    np.testing.assert_array_equal(b.share.T.neighbors(2), [0, 1])
    np.testing.assert_array_equal(b.share.T.neighbors(0), [])


def test_failed_participant_edges_switch():
    b = build_graphs(LOG, failed_participant_edges=False)
    # the failed record's join/share edges disappear; its launch edge stays
    np.testing.assert_array_equal(b.launch.neighbors(1), [1])
    np.testing.assert_array_equal(b.join.neighbors(2), [0])
    np.testing.assert_array_equal(b.share.neighbors(1), [])
    np.testing.assert_array_equal(b.join.T.neighbors(1), [])


def test_csr_from_edges_dedupes_and_sorts():
    adj = CSR.from_edges(3, 5, np.array([2, 0, 2, 2]), np.array([1, 4, 1, 0]))
    np.testing.assert_array_equal(adj.neighbors(0), [4])
    np.testing.assert_array_equal(adj.neighbors(1), [])
    np.testing.assert_array_equal(adj.neighbors(2), [0, 1])
    np.testing.assert_array_equal(adj.degrees, [1, 0, 2])
    assert adj.num_edges == 3
    with pytest.raises(IndexError):
        adj.neighbors(3)


def test_csr_empty():
    adj = CSR.from_edges(2, 4, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    assert adj.num_edges == 0
    np.testing.assert_array_equal(adj.neighbors(1), [])
    assert adj.T.num_rows == 4 and adj.T.num_edges == 0


def assert_same_csr(a, b):
    assert (a.num_rows, a.num_cols) == (b.num_rows, b.num_cols)
    np.testing.assert_array_equal(a.indptr, b.indptr)
    np.testing.assert_array_equal(a.indices, b.indices)


@pytest.mark.parametrize("seed", range(5))
def test_transpose_of_random_logs(seed):
    rng = np.random.default_rng(seed)
    records = helpers.make_records(rng, 9, 6, 25)
    b = build_graphs(BehaviorLog(records, 9, 6))
    launch_e, join_e, share_e = helpers.edges_from_records(records)
    for g, edges in ((b.launch, launch_e), (b.join, join_e), (b.share, share_e)):
        e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        assert_same_csr(g.T, CSR.from_edges(g.num_cols, g.num_rows, e[:, 1], e[:, 0]))
        # transposing twice gives the graph back, also without the cached back link
        assert g.T.T is g
        assert_same_csr(CSR(g.T.num_rows, g.T.num_cols, g.T.indptr, g.T.indices).T, g)


@pytest.mark.parametrize("seed", range(3))
def test_mean_adjoint_is_dense_transpose_of_row_normalised_adjacency(seed):
    rng = np.random.default_rng(seed)
    rows, cols = rng.integers(0, 7, size=20), rng.integers(0, 5, size=20)
    g = CSR.from_edges(7, 5, rows, cols)
    dense = np.zeros((7, 5))
    dense[rows, cols] = 1.0
    deg = dense.sum(axis=1, keepdims=True)
    norm = np.divide(dense, deg, out=np.zeros_like(dense), where=deg > 0)
    src = rng.standard_normal((5, 3))
    d = rng.standard_normal((7, 3))
    np.testing.assert_allclose(g.mean(src), norm @ src, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(g.mean_adjoint(d, np.float64), norm.T @ d, rtol=1e-12, atol=1e-15)


def test_social_graph_is_its_own_transpose():
    social = SocialGraph.from_edges(4, np.array([[0, 1], [2, 1], [3, 3]]))
    assert social.T is social
    np.testing.assert_array_equal(social.friends(1), [0, 2])
    np.testing.assert_array_equal(social.friends(3), [])
    assert social.num_edges == 2  # undirected; the self-loop is dropped
    np.testing.assert_array_equal(social.undirected_pairs(), [[0, 1], [1, 2]])
    # rows split evenly over friends: user 1 hands half of its row to 0 and to 2
    d = np.arange(8.0).reshape(4, 2)
    np.testing.assert_array_equal(
        social.mean_adjoint(d, np.float64), [[1.0, 1.5], [4.0, 6.0], [1.0, 1.5], [0.0, 0.0]]
    )
