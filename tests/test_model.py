"""Propagation, scoring, and parameter plumbing.

The two-stage propagation is checked three ways: frozen hand-computed
numbers on a graph small enough to do on paper, a dense normalized-adjacency
oracle on random instances, and a cross-backend hash comparison.
"""

import hashlib
import subprocess
import sys

import numpy as np
import pytest

from gbrec.data import SocialGraph
from gbrec.graphs import HeteroGraphBundle
from gbrec.kernels import CSR
from gbrec.model import (
    BRANCHES,
    EmbeddingSet,
    Hyperparams,
    ModelParams,
    activate,
    activate_grad,
    concat_layers,
    flat_embeddings,
    forward,
    init_flat_params,
    init_params,
    propagate_cross_view,
    propagate_in_view,
    Views,
)

import helpers
import oracles


def adj(n_rows, n_cols, edges):
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return CSR.from_edges(n_rows, n_cols, e[:, 0], e[:, 1])


# ---------------------------------------------------------------------------
# in-view smoothing: numbers small enough to verify on paper


def test_in_view_layers_hand_example():
    # u0 -> {i0, i1}, u1 -> {i0}; all values dyadic so equality is exact
    graph = adj(2, 2, [(0, 0), (0, 1), (1, 0)])
    U0 = np.array([[2.0], [4.0]])
    I0 = np.array([[8.0], [16.0]])
    users, items = propagate_in_view(graph, U0, I0, num_layers=2)
    np.testing.assert_array_equal(users[0], [[2.0], [4.0]])
    np.testing.assert_array_equal(items[0], [[8.0], [16.0]])
    np.testing.assert_array_equal(users[1], [[12.0], [8.0]])   # means of raw items
    np.testing.assert_array_equal(items[1], [[3.0], [2.0]])    # means of raw users
    np.testing.assert_array_equal(users[2], [[2.5], [3.0]])    # means of layer-1 items
    np.testing.assert_array_equal(items[2], [[10.0], [12.0]])  # means of layer-1 users
    np.testing.assert_array_equal(concat_layers(users), [[2.0, 12.0, 2.5], [4.0, 8.0, 3.0]])


def test_in_view_empty_neighborhood_stays_zero():
    graph = adj(2, 1, [(1, 0)])  # user 0 never interacts
    users, items = propagate_in_view(graph, np.array([[5.0], [7.0]]), np.array([[3.0]]), num_layers=3)
    for layer in users[1:]:
        assert layer[0, 0] == 0.0
    np.testing.assert_array_equal(users[1], [[0.0], [3.0]])


def test_zero_layers_is_raw_embeddings_only():
    graph = adj(1, 1, [(0, 0)])
    users, items = propagate_in_view(graph, np.array([[1.5]]), np.array([[2.5]]), 0)
    assert len(users) == 1 and len(items) == 1


# ---------------------------------------------------------------------------
# cross-view round: hand example with identity activation


def hand_bundle():
    return HeteroGraphBundle(
        num_users=2,
        num_items=2,
        launch=adj(2, 2, [(0, 0), (0, 1), (1, 0)]),
        join=adj(2, 2, [(1, 1)]),
        share=adj(2, 2, [(0, 1)]),
    )


def hand_params():
    w = {("w_" + s.suffix): np.array([[2.0]]) for s in BRANCHES}
    b = {("b_" + s.suffix): np.array([0.5]) for s in BRANCHES}
    return ModelParams(
        user_emb=np.array([[2.0], [4.0]]), item_emb=np.array([[8.0], [16.0]]), **w, **b
    )


def test_cross_view_hand_example():
    hp = Hyperparams(dim=1, num_layers=0, activation="identity")
    view0 = Views(
        user_launch=np.array([[2.0], [4.0]]),
        item_launch=np.array([[8.0], [16.0]]),
        user_join=np.array([[2.0], [4.0]]),
        item_join=np.array([[8.0], [16.0]]),
    )
    view1, branches = propagate_cross_view(hand_bundle(), view0, hand_params(), hp)
    # u0: items {i0,i1} mean 12 -> 24.5; share-out {u1} join value 4 -> 8.5
    np.testing.assert_array_equal(view1.user_launch, [[33.0], [16.5]])
    # i0: initiators {u0,u1} mean 3 -> 6.5; i1: {u0} -> 4.5
    np.testing.assert_array_equal(view1.item_launch, [[6.5], [4.5]])
    # u0 joined nothing and nobody shared to u0 -> exact zero row
    np.testing.assert_array_equal(view1.user_join, [[0.0], [37.0]])
    np.testing.assert_array_equal(view1.item_join, [[0.0], [8.5]])
    # masks expose which rows had any neighbors
    assert branches["launched_items_to_user"].mask.tolist() == [True, True]
    assert branches["shared_to_users_to_user"].mask.tolist() == [True, False]
    assert branches["joined_items_to_user"].mask.tolist() == [False, True]


def test_cross_view_masks_after_activation():
    # negative bias + leaky_relu: empty rows must be exactly zero, not slope*b
    hp = Hyperparams(dim=1, num_layers=0, activation="leaky_relu", activation_slope=0.5)
    params = hand_params()
    for s in BRANCHES:
        getattr(params, "b_" + s.suffix)[:] = -100.0
    view0 = Views(
        user_launch=np.array([[2.0], [4.0]]),
        item_launch=np.array([[8.0], [16.0]]),
        user_join=np.array([[2.0], [4.0]]),
        item_join=np.array([[8.0], [16.0]]),
    )
    view1, _ = propagate_cross_view(hand_bundle(), view0, params, hp)
    assert view1.user_join[0, 0] == 0.0  # masked empty row
    assert view1.item_join[0, 0] == 0.0
    # non-empty rows went through the leaky branch: value = slope * z < 0
    assert view1.user_launch[0, 0] == 0.5 * (24.0 - 100.0) + 0.5 * (8.0 - 100.0)
    assert view1.user_launch[1, 0] == 0.5 * (16.0 - 100.0)  # share-out row empty


# ---------------------------------------------------------------------------
# full forward vs the dense oracle


def test_forward_matches_dense_oracle_small():
    inst = helpers.small_instance(dtype=np.float64)
    state = forward(inst["bundle"], inst["social"], inst["params"], inst["hp"])
    blocks = helpers.oracle_blocks(inst)
    for slot in ("user_launch", "item_launch", "user_join", "item_join"):
        for b_lib, b_oracle in zip(getattr(state.emb, slot), blocks[slot]):
            assert np.max(np.abs(b_lib - b_oracle)) < 1e-12, slot


def test_forward_backend_hash_identical_across_backends():
    code = """
import hashlib, sys
sys.path.insert(0, {tests!r})
import numpy as np
import helpers
from gbrec.model import forward
inst = helpers.small_instance(dtype=np.float64)
state = forward(inst["bundle"], inst["social"], inst["params"], inst["hp"])
h = hashlib.sha256()
for slot in ("user_launch", "item_launch", "user_join", "item_join", "friend_mean"):
    for b in getattr(state.emb, slot):
        h.update(np.ascontiguousarray(b).tobytes())
print(h.hexdigest())
"""
    import os

    tests_dir = os.path.dirname(os.path.abspath(__file__))
    digests = {}
    for backend in ("numba", "numpy"):
        proc = subprocess.run(
            [sys.executable, "-c", code.format(tests=tests_dir)],
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": os.environ.get("PYTHONPATH", ""), "GBREC_BACKEND": backend},
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0 and "numba is not importable" in proc.stderr:
            pytest.skip("numba backend unavailable")
        assert proc.returncode == 0, proc.stderr
        digests[backend] = proc.stdout.strip()
    assert digests["numba"] == digests["numpy"]


# ---------------------------------------------------------------------------
# activations


def test_activations_and_grads():
    z = np.array([-2.0, -0.5, 0.5, 3.0])
    np.testing.assert_array_equal(activate(z, "identity", 0.2), z)
    np.testing.assert_array_equal(
        activate(z, "leaky_relu", 0.2), [-0.4, -0.1, 0.5, 3.0]
    )
    np.testing.assert_allclose(activate(z, "tanh", 0.2), np.tanh(z), rtol=1e-15)
    for kind in ("identity", "leaky_relu", "tanh"):
        out = activate(z, kind, 0.2)
        g = activate_grad(z, out, kind, 0.2)
        h = 1e-6
        fd = (activate(z + h, kind, 0.2) - activate(z - h, kind, 0.2)) / (2 * h)
        np.testing.assert_allclose(g, fd, atol=1e-9)
    with pytest.raises(ValueError):
        activate(z, "relu6", 0.2)


# ---------------------------------------------------------------------------
# scoring


def make_emb(alpha=0.5, renormalize=False):
    blocks = {
        "user_launch": [np.array([[2.0], [4.0]]), np.array([[33.0], [16.5]])],
        "item_launch": [np.array([[8.0], [16.0]]), np.array([[6.5], [4.5]])],
        "user_join": [np.array([[2.0], [4.0]]), np.array([[0.0], [37.0]])],
        "item_join": [np.array([[8.0], [16.0]]), np.array([[0.0], [8.5]])],
    }
    social = SocialGraph.from_edges(2, np.array([[0, 1]]))
    friend_mean = [
        np.array([[4.0], [2.0]]),
        np.array([[37.0], [0.0]]),
    ]
    return EmbeddingSet(
        **blocks,
        friend_mean=friend_mean,
        has_friends=social.degrees > 0,
        alpha=alpha,
        renormalize_alpha=renormalize,
    )


def test_score_hand_example():
    emb = make_emb(alpha=0.5)
    # launch dot = 2*16 + 33*4.5 = 180.5; friend join dot = 4*16 + 37*8.5 = 378.5
    assert emb.predict(0, 1) == 0.5 * 180.5 + 0.5 * 378.5


def test_score_entry_points_agree():
    emb = make_emb(alpha=0.3)
    items = np.array([0, 1])
    by_items = emb.score_items(0, items)
    np.testing.assert_array_equal(by_items, emb.all_item_scores(0))
    np.testing.assert_array_equal(
        emb.score_pairs(np.array([0, 0]), items), by_items
    )
    assert emb.predict(0, 1) == by_items[1]


def test_score_matches_friend_loop_oracle():
    inst = helpers.small_instance(dtype=np.float64)
    state = forward(inst["bundle"], inst["social"], inst["params"], inst["hp"])
    blocks = {
        slot: list(getattr(state.emb, slot))
        for slot in ("user_launch", "item_launch", "user_join", "item_join")
    }
    social = inst["social"]
    for user in range(inst["log"].num_users):
        for item in (0, 3, 7):
            want = oracles.composite_score_oracle(
                blocks, social.friends, inst["hp"].alpha, user, item
            )
            assert abs(state.emb.predict(user, item) - want) < 1e-10


def test_alpha_zero_drops_social_term_exactly():
    emb = make_emb(alpha=0.0)
    assert emb.predict(0, 1) == 2 * 16 + 33 * 4.5
    emb1 = make_emb(alpha=1.0)
    assert emb1.predict(0, 1) == 378.5


def test_renormalize_alpha_for_friendless_users():
    blocks = {
        "user_launch": [np.array([[2.0], [4.0]])],
        "item_launch": [np.array([[8.0], [16.0]])],
        "user_join": [np.array([[2.0], [4.0]])],
        "item_join": [np.array([[8.0], [16.0]])],
    }
    friend_mean = [np.array([[4.0], [0.0]])]  # user 1 has no friends
    has = np.array([True, False])
    plain = EmbeddingSet(**blocks, friend_mean=friend_mean, has_friends=has, alpha=0.6)
    renorm = EmbeddingSet(
        **blocks, friend_mean=friend_mean, has_friends=has, alpha=0.6, renormalize_alpha=True
    )
    # with friends: both modes weight the launch term by (1 - alpha)
    assert plain.predict(0, 0) == renorm.predict(0, 0)
    # friendless: renormalized mode scores by the full launch dot instead
    assert plain.predict(1, 0) == pytest.approx(0.4 * 32.0)
    assert renorm.predict(1, 0) == 32.0


def test_join_view_scores():
    emb = make_emb()
    got = emb.score_pairs_join_view(np.array([1]), np.array([1]))
    assert got[0] == 4.0 * 16.0 + 37.0 * 8.5


# ---------------------------------------------------------------------------
# parameter initialization and hyperparameters


def test_init_params_shapes_and_determinism():
    hp = Hyperparams(dim=4, num_layers=2)
    a = init_params(10, 8, hp, seed=1)
    b = init_params(10, 8, hp, seed=1)
    c = init_params(10, 8, hp, seed=2)
    assert a.user_emb.shape == (10, 4) and a.item_emb.shape == (8, 4)
    width = (hp.num_layers + 1) * hp.dim
    for s in BRANCHES:
        w = getattr(a, "w_" + s.suffix)
        assert w.shape == (width, width)
        bias = getattr(a, "b_" + s.suffix)
        assert bias.shape == (width,)
        np.testing.assert_array_equal(bias, 0.0)
        limit = np.sqrt(6.0 / (width + width))
        assert np.abs(w).max() <= limit * (1 + 1e-6)  # f32 storage rounding slack
    np.testing.assert_array_equal(a.user_emb, b.user_emb)
    assert np.any(a.user_emb != c.user_emb)
    assert a.user_emb.dtype == np.float32
    assert init_params(10, 8, hp, seed=1, dtype=np.float64).user_emb.dtype == np.float64


def test_flat_params_shapes():
    p = init_flat_params(7, 5, 3, seed=0)
    assert p.user_emb.shape == (7, 3) and p.item_emb.shape == (5, 3)
    assert set(p.tensors()) == {"user_emb", "item_emb"}


def test_flat_embeddings_scores_like_raw_dot_plus_friend_term():
    rng = np.random.default_rng(5)
    U = rng.standard_normal((6, 3))
    V = rng.standard_normal((4, 3))
    social = SocialGraph.from_edges(6, np.array([[0, 1], [0, 2]]))
    emb = flat_embeddings(U, V, social, alpha=0.25)
    friend_mean = (U[1] + U[2]) / 2.0
    want = 0.75 * float(U[0] @ V[3]) + 0.25 * float(friend_mean @ V[3])
    assert abs(emb.predict(0, 3) - want) < 1e-12


def test_hyperparams_validation_collects_all_problems():
    bad = Hyperparams(dim=0, alpha=1.5, beta=-1, activation="swish", epochs=-2)
    problems = "\n".join(bad.validate())
    for token in ("dim", "alpha", "beta", "activation", "epochs"):
        assert token in problems
    assert Hyperparams().validate() == []


def test_hyperparams_dict_round_trip():
    hp = Hyperparams(dim=8, eval_ks=(1, 5), role_scores=True)
    again = Hyperparams.from_dict(hp.to_dict())
    assert again == hp
    assert isinstance(again.eval_ks, tuple)
