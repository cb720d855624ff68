"""Ranking, metric aggregation, candidate-list digests, view diagnostics."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbrec.evaluate import (
    RANK_BLOCK,
    MetricReport,
    compute_metrics,
    evaluate_ranking,
    negatives_digest,
    rank_from_scores,
    view_similarity,
)
from gbrec.loss import BehaviorRecord
from gbrec.data import SocialGraph
from gbrec.kernels import CSR
from gbrec.model import composite_embeddings, flat_embeddings
from gbrec.rawdata import split_leave_one_out

import helpers
import oracles


# ---------------------------------------------------------------------------
# rank semantics


def test_rank_counts_strictly_greater():
    assert rank_from_scores(5.0, np.array([1.0, 2.0, 3.0])) == 0
    assert rank_from_scores(2.5, np.array([1.0, 2.0, 3.0])) == 1
    assert rank_from_scores(0.0, np.array([1.0, 2.0, 3.0])) == 3


def test_rank_ties_are_pessimistic():
    # the test item loses every tie: ties count like strictly-better negatives
    assert rank_from_scores(2.0, np.array([2.0, 1.0])) == 1
    assert rank_from_scores(2.0, np.array([2.0, 2.0, 2.0])) == 3
    assert rank_from_scores(2.0, np.array([3.0, 2.0, 1.0])) == 2


# ---------------------------------------------------------------------------
# metric values


def test_metric_values_at_fixture_ranks():
    # rank 0 is a perfect hit at any K
    r = compute_metrics(np.array([0]), (1, 10))
    assert r.recall[1] == 1.0 and r.ndcg[1] == 1.0
    assert r.ndcg[10] == 1.0
    # rank 9 is the last counted position at K=10
    r = compute_metrics(np.array([9]), (10,))
    assert r.recall[10] == 1.0
    assert r.ndcg[10] == pytest.approx(1.0 / math.log2(11.0), rel=1e-15)
    # rank 10 falls off the list at K=10
    r = compute_metrics(np.array([10]), (10, 20))
    assert r.recall[10] == 0.0 and r.ndcg[10] == 0.0
    assert r.recall[20] == 1.0


def test_metrics_average_over_users():
    r = compute_metrics(np.array([0, 5, 100]), (10,))
    assert r.recall[10] == pytest.approx(2.0 / 3.0)
    want = (1.0 + 1.0 / math.log2(7.0) + 0.0) / 3.0
    assert r.ndcg[10] == pytest.approx(want, rel=1e-12)
    assert r.num_users == 3


def test_metrics_match_reference_definitions(rng):
    ranks = rng.integers(0, 30, size=50)
    ks = (3, 5, 10, 20)
    r = compute_metrics(ranks, ks)
    for k in ks:
        assert r.recall[k] == pytest.approx(
            np.mean([oracles.recall_reference(int(x), k) for x in ranks]), rel=1e-12
        )
        assert r.ndcg[k] == pytest.approx(
            np.mean([oracles.ndcg_reference(int(x), k) for x in ranks]), rel=1e-12
        )


def test_metrics_monotone_in_k(rng):
    ranks = rng.integers(0, 50, size=200)
    r = compute_metrics(ranks, (1, 2, 5, 10, 25, 50))  # __post_init__ checks monotone
    ks = sorted(r.ks)
    assert all(r.recall[a] <= r.recall[b] for a, b in zip(ks, ks[1:]))


def test_report_rejects_recall_falling_with_k():
    # raised, not asserted, so the check also holds under python -O
    with pytest.raises(ValueError, match="recall must grow with K"):
        MetricReport((5, 10), {5: 0.5, 10: 0.25}, {5: 0.1, 10: 0.2}, 4, np.zeros(4, dtype=np.int64))


def test_metrics_reject_empty():
    with pytest.raises(ValueError):
        compute_metrics(np.array([], dtype=np.int64), (10,))


def test_report_serialization():
    r = compute_metrics(np.array([0, 3]), (5,))
    d = r.to_dict()
    assert d["num_users"] == 2 and "5" in d["recall"]
    assert "recall@5=" in r.text() and "ndcg@5=" in r.text()


# ---------------------------------------------------------------------------
# end-to-end ranking over a split


def test_evaluate_ranking_orders_users_and_ranks_test_items():
    records = helpers.from_records([BehaviorRecord(3, 0, (), True), BehaviorRecord(1, 1, (), True)])
    negatives = helpers.negatives_csr({3: [2, 4], 1: [2, 4]}, 4, 5)
    table = {
        # user 1: test item 1 scores below item 2 -> rank 1
        (1, 1): 1.0, (1, 2): 2.0, (1, 4): 0.0,
        # user 3: test item 0 wins -> rank 0
        (3, 0): 9.0, (3, 2): 1.0, (3, 4): 1.0,
    }

    def score_users(users):
        return np.array([[table.get((u, i), np.nan) for i in range(5)] for u in users.tolist()])

    report = evaluate_ranking(score_users, records, negatives, (1, 2))
    np.testing.assert_array_equal(sorted(report.ranks.tolist()), [0, 1])
    assert report.recall[1] == 0.5
    assert report.recall[2] == 1.0


@st.composite
def ranking_worlds(draw):
    """Embeddings of small integers and friendships in disjoint pairs, so
    every friend mean, weighted query row and score is exact in float32 and
    ties are common; ragged negative lists; and held-out logs from empty to
    more users than one block."""
    num_users = draw(st.integers(1, 2 * RANK_BLOCK + 5))
    num_items = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim, num_blocks = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    ints = lambda rows: rng.integers(-2, 3, size=(rows, dim)).astype(np.float32)
    item_launch = [ints(num_items) for _ in range(num_blocks)]
    if draw(st.booleans()):  # an item scoring NaN for everyone
        item_launch[0][rng.integers(num_items)] = np.nan
    # each user has at most one friend, whose join row is then the friend mean
    paired = rng.permutation(num_users)[: 2 * rng.integers(num_users // 2 + 1)]
    social = SocialGraph.from_edges(num_users, paired.reshape(-1, 2))
    alpha, renormalize = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0])), draw(st.booleans())
    if draw(st.booleans()):  # the flat scorer (gbmf, mf): one query row per user
        emb = flat_embeddings(ints(num_users), item_launch[0], social, alpha, renormalize)
    else:
        emb = composite_embeddings(
            [ints(num_users) for _ in range(num_blocks)], item_launch,
            [ints(num_users) for _ in range(num_blocks)], [ints(num_items) for _ in range(num_blocks)],
            social, alpha, renormalize,
        )
    users = np.sort(rng.choice(num_users, size=draw(st.integers(0, num_users)), replace=False))
    items = rng.integers(num_items, size=users.shape[0])
    records = helpers.from_records(
        [BehaviorRecord(u, i, (), True) for u, i in zip(users.tolist(), items.tolist())], num_users, num_items
    )
    lists = {u: rng.choice(num_items, size=rng.integers(num_items + 1), replace=False) for u in users.tolist()}
    return emb, records, helpers.negatives_csr(lists, num_users, num_items)


@settings(max_examples=150, deadline=None)
@given(world=ranking_worlds())
def test_blocked_ranking_equals_the_rank_of_each_user(world):
    emb, records, negatives = world
    if not len(records):
        with pytest.raises(ValueError, match="no ranks"):
            evaluate_ranking(emb.score_users, records, negatives, (1, 3))
        return
    report = evaluate_ranking(emb.score_users, records, negatives, (1, 3))
    want = []
    for u, item in zip(records.initiator.tolist(), records.item.tolist()):
        scores = emb.score_items(u, np.concatenate([[item], negatives.neighbors(u)]))
        want.append(rank_from_scores(float(scores[0]), scores[1:]))
    np.testing.assert_array_equal(report.ranks, want)
    by_user = [emb.all_item_scores(u) for u in records.initiator.tolist()]
    np.testing.assert_array_equal(emb.score_users(records.initiator), by_user)


# ---------------------------------------------------------------------------
# frozen-negatives digest


def digest(lists: dict) -> str:
    return negatives_digest(helpers.negatives_csr(lists, 8, 6))


def test_negatives_digest_is_order_independent_and_content_sensitive():
    a = {0: [1, 2, 3], 5: [4]}
    b = {5: [4], 0: [1, 2, 3]}  # same content, other insert order
    assert digest(a) == digest(b)
    c = {0: [1, 2, 4], 5: [4]}
    assert digest(a) != digest(c)
    d = {0: [1, 2], 5: [3, 4]}  # same multiset, different owner
    assert digest(a) != digest(d)
    assert len(digest(a)) == 64
    assert digest(a) == oracles.negatives_digest_oracle(a)


def test_negatives_digest_of_a_drawn_split_keeps_the_per_user_value():
    # the digest gbbench recomputes from negatives.tsv, user by user
    records = helpers.make_records(np.random.default_rng(2), 40, 30, 400)
    split = split_leave_one_out(helpers.from_records(records, 40, 30), seed=6, num_negatives=12)
    lists = helpers.negative_lists(split.eval_negatives)
    assert len(lists) > 20
    assert negatives_digest(split.eval_negatives) == oracles.negatives_digest_oracle(lists)


@pytest.mark.parametrize("dtype, num_items", [(np.uint8, 200), (np.uint16, 1200)])
def test_negatives_digest_hashes_int64_ids_whatever_the_stored_dtype(dtype, num_items):
    # users 0 and 2 hold rows, user 1's row between them is empty
    first, last = [3, 17, num_items - 1], [0, num_items - 2]
    negatives = CSR(3, num_items, np.array([0, 3, 3, 5]), np.array(first + last, dtype=dtype))
    h = hashlib.sha256()
    for u, row in ((0, first), (2, last)):
        h.update(b"%d:" % u + np.array(row).astype("<i8").tobytes() + b";")
    assert negatives_digest(negatives) == h.hexdigest()


# ---------------------------------------------------------------------------
# cross-view diagnostics


def test_view_similarity_basics(rng):
    a = rng.standard_normal((6, 4))
    sim = view_similarity(a, a.copy())
    np.testing.assert_allclose(sim.cosines, 1.0, atol=1e-12)
    sim = view_similarity(a, -a)
    np.testing.assert_allclose(sim.cosines, -1.0, atol=1e-12)


def test_view_similarity_skips_zero_rows():
    a = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 2.0]])
    b = np.array([[0.0, 1.0], [1.0, 1.0], [0.0, 1.0]])
    sim = view_similarity(a, b)
    assert sim.skipped_zero_vectors == 1
    assert sim.cosines.shape == (2,)
    assert sim.cosines[0] == pytest.approx(0.0, abs=1e-12)
    assert sim.cosines[1] == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError, match="shape"):
        view_similarity(a, np.zeros((2, 2)))
    assert sim.histogram.sum() == 2
