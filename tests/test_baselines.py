"""Single-view and propagation-free baselines."""

import numpy as np
import pytest

from gbrec.baselines import flatten_interactions
from gbrec.data import SocialGraph
from gbrec.scoring import flat_embeddings, init_flat_params

import helpers
from helpers import BehaviorRecord
from oracles import mf_score


LOG = helpers.from_records(
    [
        BehaviorRecord(0, 4, (1, 2), True),
        BehaviorRecord(1, 4, (0,), False),
        BehaviorRecord(1, 5, (), True),
    ],
    num_users=3,
    num_items=6,
)


def pairs(log):
    return [(r.initiator, r.item) for r in helpers.records_of(log)]


def test_flatten_both_roles_keeps_multiplicity():
    flat = flatten_interactions(LOG)
    assert pairs(flat) == [(0, 4), (1, 4), (2, 4), (1, 4), (0, 4), (1, 5)]
    assert all(r.success and r.participants == () for r in helpers.records_of(flat))
    assert flat.num_users == 3 and flat.num_items == 6


def gbmf_score(params, social, alpha, user, item):
    return flat_embeddings(params.user_emb, params.item_emb, social, alpha).predict(user, item)


def test_mf_score_is_raw_inner_product():
    # mf scores with the flat scorer at alpha 0
    params = init_flat_params(3, 6, 4, seed=0, dtype=np.float64)
    social = SocialGraph.from_edges(3, np.array([[0, 1]]))
    assert gbmf_score(params, social, 0.0, 1, 5) == float(params.user_emb[1] @ params.item_emb[5])
    with pytest.raises(IndexError):
        gbmf_score(params, social, 0.0, 3, 0)
    with pytest.raises(IndexError):
        gbmf_score(params, social, 0.0, 0, 6)


def test_gbmf_score_matches_explicit_friend_loop():
    params = init_flat_params(5, 4, 3, seed=1, dtype=np.float64)
    social = SocialGraph.from_edges(5, np.array([[0, 1], [0, 2], [0, 3]]))
    alpha = 0.6
    own = float(params.user_emb[0] @ params.item_emb[2])
    friend_dots = [float(params.user_emb[f] @ params.item_emb[2]) for f in (1, 2, 3)]
    want = (1 - alpha) * own + alpha * float(np.mean(friend_dots))
    assert gbmf_score(params, social, alpha, 0, 2) == pytest.approx(want, rel=1e-12)


def test_gbmf_score_alpha_zero_equals_mf():
    params = init_flat_params(4, 4, 3, seed=2, dtype=np.float64)
    social = SocialGraph.from_edges(4, np.array([[0, 1]]))
    for u in range(4):
        for i in range(4):
            assert gbmf_score(params, social, 0.0, u, i) == mf_score(params, u, i)


def test_gbmf_friendless_user_has_no_social_term():
    params = init_flat_params(3, 3, 2, seed=3, dtype=np.float64)
    social = SocialGraph.from_edges(3, np.array([[0, 1]]))
    alpha = 0.7
    assert gbmf_score(params, social, alpha, 2, 1) == pytest.approx(
        (1 - alpha) * mf_score(params, 2, 1), rel=1e-12
    )
