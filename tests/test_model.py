"""Propagation, scoring, and parameter plumbing.

The two-stage propagation is checked two ways: frozen hand-computed
numbers on a graph small enough to do on paper, and a dense
normalized-adjacency oracle on random instances.
"""

from dataclasses import fields, replace

import numpy as np
import pytest

from conftest import forced_products
from gbrec.config import Hyperparams
from gbrec.data import SocialGraph
from gbrec.graphs import HeteroGraphBundle
from gbrec.kernels import CSR
from gbrec.model import (
    BRANCHES,
    ModelParams,
    activate,
    activate_grad,
    forward,
    init_params,
    propagate_cross_view,
    propagate_in_view,
    Views,
)
from gbrec.scoring import (
    FLAT_TENSOR_FIELDS,
    SCORE_CHUNK,
    ScoreAdjoint,
    composite_embeddings,
    flat_embeddings,
    init_flat_params,
    score_pairs_backward,
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
    np.testing.assert_array_equal(np.concatenate(users, axis=1), [[2.0, 12.0, 2.5], [4.0, 8.0, 3.0]])


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
    assert_forward_matches_dense_oracle_small()


def test_forward_matches_dense_oracle_small_on_the_sparse_path(sparse_products):
    assert_forward_matches_dense_oracle_small()


def assert_forward_matches_dense_oracle_small():
    inst = helpers.small_instance(dtype=np.float64)
    state = forward(inst["bundle"], inst["social"], inst["params"], inst["hp"])
    blocks = helpers.oracle_blocks(inst)
    for slot in ("user_launch", "item_launch", "user_join", "item_join"):
        for b_lib, b_oracle in zip(getattr(state.emb, slot), blocks[slot]):
            assert np.max(np.abs(b_lib - b_oracle)) < 1e-12, slot


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
    # each user's friend means are the other's join rows: [[4], [2]] and [[37], [0]]
    social = SocialGraph.from_edges(2, np.array([[0, 1]]))
    return composite_embeddings(**blocks, social=social, alpha=alpha, renormalize_alpha=renormalize)


# (alpha, renormalize_alpha, blocks per slot, or 0 for the flat scorer's one query block)
GAP_CASES = [(0.6, False, 2), (0.6, True, 2), (0.0, False, 1), (0.3, True, 1), (0.6, True, 0)]
ADJOINTS = ("d_query", "d_items")

# the dense path's gradients are held to the loop oracles by norm-relative
# error per block; float32 rounds W to float32 and sums 25-40 terms per
# product in float32 (unit roundoff 6e-8; measured up to 1.4e-7)
GAP_RTOL = {np.float64: 1e-12, np.float32: 1e-6}


def gap_case(alpha, renormalize, num_blocks, dtype=np.float32):
    """Blocks whose rows span six orders of magnitude, a social graph that
    leaves about a quarter of the users friendless, and 3000 terms over 40
    users x 25 items."""
    rng = np.random.default_rng(11)
    num_users, num_items, n = 40, 25, 3000
    width = 48 if num_blocks == 2 else 16

    def blocks(rows, count=num_blocks):
        return [(rng.standard_normal((rows, width)) * 10.0 ** rng.uniform(-3, 3, (rows, 1))).astype(dtype)
                for _ in range(count)]

    social = SocialGraph.from_edges(num_users, rng.integers(0, 30, size=(30, 2)))
    if num_blocks:
        emb = composite_embeddings(
            blocks(num_users), blocks(num_items), blocks(num_users), blocks(num_items), social, alpha, renormalize
        )
    else:
        emb = flat_embeddings(*blocks(num_users, 1), *blocks(num_items, 1), social, alpha, renormalize)
    users = rng.integers(0, num_users, size=n)
    hi = rng.integers(0, num_items, size=n)
    lo = rng.integers(0, num_items, size=n)
    dgap = rng.standard_normal(n) * 10.0 ** rng.uniform(-4, 2, size=n)
    return emb, users, hi, lo, dgap


@pytest.mark.parametrize("alpha,renormalize,num_blocks", GAP_CASES)
def test_score_gap_backward_matches_the_loop_oracle(sparse_products, alpha, renormalize, num_blocks):
    emb, users, hi, lo, dgap = gap_case(alpha, renormalize, num_blocks)
    got, want = ScoreAdjoint.zeros(emb), ScoreAdjoint.zeros(emb)
    score_pairs_backward(emb, users, hi, lo, dgap, got)
    oracles.score_gap_backward_oracle(emb, users, hi, lo, dgap, want)
    for name in ADJOINTS:
        for g, w in zip(getattr(got, name), getattr(want, name)):
            np.testing.assert_array_equal(g, w, err_msg=name)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("alpha,renormalize,num_blocks", GAP_CASES)
def test_dense_score_gap_backward_matches_the_loop_oracle(dense_products, alpha, renormalize, num_blocks, dtype):
    emb, users, hi, lo, dgap = gap_case(alpha, renormalize, num_blocks, dtype)
    assert emb.dense_score_pass(users.shape[0])
    got, want = ScoreAdjoint.zeros(emb), ScoreAdjoint.zeros(emb)
    score_pairs_backward(emb, users, hi, lo, dgap, got)
    oracles.score_gap_backward_oracle(emb, users, hi, lo, dgap, want)
    for name in ADJOINTS:
        for g, w in zip(getattr(got, name), getattr(want, name)):
            assert g.dtype == (np.float64 if name == "d_query" else dtype)  # query adjoints are always float64
            err = oracles.relative_error(g.astype(np.float64), w.astype(np.float64))
            assert err <= GAP_RTOL[dtype], f"{name}: relative error {err:.3g}"


def test_score_hand_example():
    emb = make_emb(alpha=0.5)
    # launch dot = 2*16 + 33*4.5 = 180.5; friend join dot = 4*16 + 37*8.5 = 378.5
    assert emb.predict(0, 1) == 0.5 * 180.5 + 0.5 * 378.5


# launch gap 2*(16-8) + 33*(4.5-6.5) = -50; friend join gap 4*(16-8) + 37*(8.5-0) = 346.5
# at alpha 0.25 the weighted query rows and every product are exact, so the
# gap is the same in any rounding order
HAND_GAPS = [(1 - 0.25) * -50.0 + 0.25 * 346.5, 0.0]


def test_score_entry_points_agree(sparse_products):
    emb = make_emb(alpha=0.25)
    items = np.array([0, 1])
    np.testing.assert_array_equal([emb.predict(0, 0), emb.predict(0, 1)], emb.score_users(np.array([0]))[0])
    np.testing.assert_array_equal(emb.score_gaps(np.array([0, 0]), np.array([1, 1]), items), HAND_GAPS)


def test_dense_score_gaps_agree_with_the_hand_example(dense_products):
    emb = make_emb(alpha=0.25)
    gaps = emb.score_gaps(np.array([0, 0]), np.array([1, 1]), np.array([0, 1]))
    assert gaps.dtype == np.float64
    np.testing.assert_allclose(gaps, HAND_GAPS, rtol=1e-12, atol=0.0)


def test_score_matches_friend_loop_oracle():
    inst = helpers.small_instance(dtype=np.float64)
    social = inst["social"]
    assert (social.degrees == 0).any()  # friendless users are scored too
    for renormalize in (False, True):
        hp = replace(inst["hp"], renormalize_alpha=renormalize)
        state = forward(inst["bundle"], social, inst["params"], hp)
        blocks = {
            slot: list(getattr(state.emb, slot))
            for slot in ("user_launch", "item_launch", "user_join", "item_join")
        }
        for user in range(inst["log"].num_users):
            for item in (0, 3, 7):
                want = oracles.composite_score_oracle(
                    blocks, social.friends, hp.alpha, user, item, renormalize_alpha=renormalize
                )
                assert abs(state.emb.predict(user, item) - want) < 1e-10, (renormalize, user, item)


def test_alpha_zero_drops_social_term_exactly():
    emb = make_emb(alpha=0.0)
    assert emb.predict(0, 1) == 2 * 16 + 33 * 4.5
    emb1 = make_emb(alpha=1.0)
    assert emb1.predict(0, 1) == 378.5


def test_renormalize_alpha_for_friendless_users():
    blocks = {
        "user_launch": [np.array([[2.0], [4.0], [1.0]])],
        "item_launch": [np.array([[8.0], [16.0]])],
        "user_join": [np.array([[2.0], [4.0], [4.0]])],
        "item_join": [np.array([[8.0], [16.0]])],
    }
    # user 0's one friend is user 2, whose join row is [4]; user 1 has no friends
    social = SocialGraph.from_edges(3, np.array([[0, 2]]))
    plain = composite_embeddings(**blocks, social=social, alpha=0.6)
    renorm = composite_embeddings(**blocks, social=social, alpha=0.6, renormalize_alpha=True)
    # with friends: both modes weight the launch term by (1 - alpha)
    assert plain.predict(0, 0) == renorm.predict(0, 0)
    # friendless: renormalized mode scores by the full launch dot instead
    assert plain.predict(1, 0) == pytest.approx(0.4 * 32.0)
    assert renorm.predict(1, 0) == 32.0


def flat_scorer_case(alpha, renormalize, ints=False):
    """The flat scorer over 40 users, a quarter of them friendless, x 25 items,
    2 * SCORE_CHUNK + 5 terms, and each user's float64 score table from the
    friend loop. Every user has 0, 1, 2 or 4 friends; with ``ints`` every
    embedding is a small integer too, so at alpha 0.5 every float32 score is exact."""
    rng = np.random.default_rng(17)
    num_users, num_items, dim = 40, 25, 16
    # per 6 users b..b+5: b has 4 friends, b+1 and b+2 have 2, b+3 and b+4 have 1, b+5 none
    pairs = [(b, b + f) for b in range(0, 36, 6) for f in range(1, 5)] + [(b + 1, b + 2) for b in range(0, 36, 6)]
    social = SocialGraph.from_edges(num_users, np.array(pairs))
    if ints:
        draw = lambda rows: rng.integers(-2, 3, size=(rows, dim)).astype(np.float32)
    else:
        draw = lambda rows: rng.standard_normal((rows, dim)).astype(np.float32)
    user_emb, item_emb = draw(num_users), draw(num_items)
    emb = flat_embeddings(user_emb, item_emb, social, alpha, renormalize)
    blocks = {"user_launch": [user_emb.astype(np.float64)], "item_launch": [item_emb.astype(np.float64)]}
    blocks["user_join"], blocks["item_join"] = blocks["user_launch"], blocks["item_launch"]
    want = np.array([
        [oracles.composite_score_oracle(blocks, social.friends, alpha, u, i, renormalize) for i in range(num_items)]
        for u in range(num_users)
    ])
    n = 2 * SCORE_CHUNK + 5
    users, lo, hi = rng.integers(0, num_users, n), rng.integers(0, num_items, n), rng.integers(0, num_items, n)
    return emb, want, (users, lo, hi)


# the flat scorer rounds its query row q = coef * U + alpha * FM to float32,
# then sums 16 float32 products per score. Against the float64 loop oracle
# the norm-relative error measured on these cases is at most 8.8e-8 for
# score_users, 5.8e-8 for predict over every cell and 9.0e-8 for the gaps on
# either path; unit roundoff is 6e-8
FLAT_RTOL = 1e-6


@pytest.mark.parametrize("alpha,renormalize", [(0.0, False), (0.6, False), (0.6, True)])
def test_flat_scorer_matches_the_loop_oracle(alpha, renormalize):
    emb, want, (users, lo, hi) = flat_scorer_case(alpha, renormalize)
    everyone = np.arange(emb.num_users)
    assert oracles.relative_error(emb.score_users(everyone), want) <= FLAT_RTOL
    by_cell = np.array([[emb.predict(u, i) for i in range(emb.num_items)] for u in everyone])
    assert oracles.relative_error(by_cell, want) <= FLAT_RTOL
    for path in ("sparse", "dense"):
        with forced_products(path):
            gaps = emb.score_gaps(users, lo, hi)
        assert gaps.dtype == np.float64
        assert oracles.relative_error(gaps, want[users, lo] - want[users, hi]) <= FLAT_RTOL, path


def flat_gap_case(rng, alpha):
    """The flat scorer over 2 * SCORE_CHUNK + 5 terms, and each term's gap from
    the float32 query row ``(1 - alpha) * U + alpha * FM`` against the separate
    row difference of its two items, chunk by chunk, in float32."""
    social = SocialGraph.from_edges(30, rng.integers(0, 30, size=(60, 2)))
    user_emb = rng.standard_normal((30, 6)).astype(np.float32)
    item_emb = rng.standard_normal((12, 6)).astype(np.float32)
    emb = flat_embeddings(user_emb, item_emb, social, alpha)
    n = 2 * SCORE_CHUNK + 5
    users, lo, hi = rng.integers(0, 30, n), rng.integers(0, 12, n), rng.integers(0, 12, n)
    query = user_emb
    if alpha:
        query = np.float32(1 - alpha) * user_emb + np.float32(alpha) * social.mean(user_emb)
    want = np.empty(n)
    for c0 in range(0, n, SCORE_CHUNK):
        u, l, h = (a[c0 : c0 + SCORE_CHUNK] for a in (users, lo, hi))
        want[c0 : c0 + SCORE_CHUNK] = np.einsum("nd,nd->n", query[u], item_emb[l] - item_emb[h])
    return emb, users, lo, hi, want


@pytest.mark.parametrize("alpha", [0.0, 0.6])
def test_flat_score_gaps_match_separate_differences_bit_for_bit(sparse_products, rng, alpha):
    # the flat scorer is one query block against one item block, and each
    # chunk's one row difference must give the bits of building it by hand
    emb, users, lo, hi, want = flat_gap_case(rng, alpha)
    np.testing.assert_array_equal(emb.score_gaps(users, lo, hi), want)


@pytest.mark.parametrize("alpha", [0.0, 0.6])
def test_dense_flat_score_gaps_match_separate_differences(dense_products, rng, alpha):
    # both sides round in float32: the dense side each score, the loop each
    # product of a row difference (measured: under 1e-7 norm-relative)
    emb, users, lo, hi, want = flat_gap_case(rng, alpha)
    got = emb.score_gaps(users, lo, hi)
    assert oracles.relative_error(got, want) <= 1e-6


@pytest.mark.parametrize("renormalize", [False, True])
def test_flat_score_users_rows_are_predict_bit_for_bit(renormalize):
    # exact scores, so this holds whatever order BLAS sums in: both entry
    # points must do the same arithmetic, the oracle's
    emb, want, _ = flat_scorer_case(0.5, renormalize, ints=True)
    everyone = np.arange(emb.num_users)
    np.testing.assert_array_equal(emb.score_users(everyone), want)
    by_cell = [[emb.predict(u, i) for i in range(emb.num_items)] for u in everyone]
    np.testing.assert_array_equal(emb.score_users(everyone), by_cell)


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
    assert tuple(f.name for f in fields(p)) == FLAT_TENSOR_FIELDS == ("user_emb", "item_emb")


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
    hp = Hyperparams(dim=8, activation="tanh", renormalize_alpha=True)
    again = Hyperparams.from_dict(hp.to_dict())
    assert again == hp
    assert len(hp.to_dict()) == 16
