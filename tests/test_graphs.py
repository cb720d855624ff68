"""Adjacency assembly from behavior records, and the CSR graph type."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbrec.config import SynthConfig
from gbrec.data import SocialGraph
from gbrec.graphs import build_graphs
from gbrec.kernels import CSR
from gbrec.synthetic import build_planted, simulate

import helpers
from helpers import BehaviorRecord


RECORDS = [
    BehaviorRecord(0, 0, (1, 2), True),
    BehaviorRecord(1, 1, (2,), False),
    BehaviorRecord(0, 0, (1,), True),  # repeats edges already present
    BehaviorRecord(2, 2, (), True),
]
LOG = helpers.from_records(RECORDS, 3, 3)


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
    assert adj.indices.shape[0] == 3
    with pytest.raises(IndexError):
        adj.neighbors(3)


@settings(max_examples=200, deadline=None)
@given(
    n_rows=st.integers(1, 9),
    n_cols=st.integers(1, 9),
    edges=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=40),
)
def test_csr_from_edges_lists_each_rows_distinct_neighbours_in_order(n_rows, n_cols, edges):
    edges = [(r % n_rows, c % n_cols) for r, c in edges]
    e = np.array(edges, dtype=np.int64).reshape(-1, 2)
    g = CSR.from_edges(n_rows, n_cols, e[:, 0], e[:, 1])
    for r in range(n_rows):
        np.testing.assert_array_equal(g.neighbors(r), sorted({c for rr, c in edges if rr == r}))
    assert g.indptr.dtype == g.indices.dtype == np.int64


def test_csr_empty():
    adj = CSR.from_edges(2, 4, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    assert adj.indices.shape[0] == 0
    np.testing.assert_array_equal(adj.neighbors(1), [])
    assert adj.T.num_rows == 4 and adj.T.indices.shape[0] == 0


def assert_same_csr(a, b):
    assert (a.num_rows, a.num_cols) == (b.num_rows, b.num_cols)
    np.testing.assert_array_equal(a.indptr, b.indptr)
    np.testing.assert_array_equal(a.indices, b.indices)


@pytest.mark.parametrize("seed", range(5))
def test_transpose_of_random_logs(seed):
    rng = np.random.default_rng(seed)
    records = helpers.make_records(rng, 9, 6, 25)
    b = build_graphs(helpers.from_records(records, 9, 6))
    launch_e, join_e, share_e = helpers.edges_from_records(records)
    for g, edges in ((b.launch, launch_e), (b.join, join_e), (b.share, share_e)):
        e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        assert_same_csr(g.T, CSR.from_edges(g.num_cols, g.num_rows, e[:, 1], e[:, 0]))
        # transposing twice gives the graph back, also without the cached back link
        assert g.T.T is g
        assert_same_csr(CSR(g.T.num_rows, g.T.num_cols, g.T.indptr, g.T.indices).T, g)


@pytest.mark.parametrize("seed", range(3))
def test_mean_adjoint_is_dense_transpose_of_row_normalised_adjacency(sparse_products, seed):
    assert_mean_is_the_row_normalised_product(seed, dense=False)


@pytest.mark.parametrize("seed", range(3))
def test_dense_mean_and_adjoint_are_the_row_normalised_products(dense_products, seed):
    assert_mean_is_the_row_normalised_product(seed, dense=True)


def assert_mean_is_the_row_normalised_product(seed, dense):
    rng = np.random.default_rng(seed)
    rows, cols = rng.integers(0, 7, size=20), rng.integers(0, 5, size=20)
    g = CSR.from_edges(7, 5, rows, cols)
    assert g.runs_dense is dense
    adjacency = np.zeros((7, 5))
    adjacency[rows, cols] = 1.0
    deg = adjacency.sum(axis=1, keepdims=True)
    norm = np.divide(adjacency, deg, out=np.zeros_like(adjacency), where=deg > 0)
    src = rng.standard_normal((5, 3))
    d = rng.standard_normal((7, 3))
    np.testing.assert_allclose(g.mean(src), norm @ src, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(g.mean_adjoint(d, np.float64), norm.T @ d, rtol=1e-12, atol=1e-15)


def test_social_graph_is_its_own_transpose(sparse_products):
    assert_social_graph_is_its_own_transpose(dense=False)


def test_social_graph_is_its_own_transpose_on_the_dense_path(dense_products):
    assert_social_graph_is_its_own_transpose(dense=True)


def assert_social_graph_is_its_own_transpose(dense):
    social = SocialGraph.from_edges(4, np.array([[0, 1], [2, 1], [3, 3]]))
    assert social.runs_dense is dense
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


# the benchmark's two worlds (gbbench/run.py), built in memory
DESK_WORLD = SynthConfig(num_users=500, num_items=200, latent_dim=8, num_records=20_000,
                         mean_friends=8.0, role_correlation=0.0, launch_social_mix=0.7)
WIDE_WORLD = SynthConfig(num_users=3000, num_items=1200, latent_dim=8, num_records=24_000,
                         mean_friends=8.0, item_temp=0.05)


def world_graphs(cfg: SynthConfig) -> dict[str, CSR]:
    rng = np.random.default_rng(0)
    planted = build_planted(cfg, rng)
    b = build_graphs(simulate(planted, cfg, rng))
    graphs = {name: getattr(b, name) for name in ("launch", "join", "share")}
    graphs.update({name + ".T": g.T for name, g in list(graphs.items())})
    graphs["social"] = planted.social
    return graphs


def test_the_dense_rule_takes_the_desk_launch_and_join_graphs_and_no_wide_one():
    # desk: launch 12% and join 32% of their cells; share and social about
    # 1.6%, social counting both directions of each friendship
    desk = world_graphs(DESK_WORLD)
    dense = {"launch", "launch.T", "join", "join.T"}
    assert {name: g.runs_dense for name, g in desk.items()} == {name: name in dense for name in desk}
    # wide: at most 1.5% of cells filled, on 3.6M or more cells
    wide = world_graphs(WIDE_WORLD)
    assert {name: g.runs_dense for name, g in wide.items()} == dict.fromkeys(wide, False)
