"""Ranking, metric aggregation, candidate-list digests, view diagnostics."""

import math

import numpy as np
import pytest

from gbrec.data import BehaviorRecord
from gbrec.evaluate import (
    MetricReport,
    compute_metrics,
    evaluate_ranking,
    negatives_digest,
    rank_from_scores,
    view_similarity,
)

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
    records = {3: BehaviorRecord(3, 0, (), True), 1: BehaviorRecord(1, 1, (), True)}
    negatives = {3: np.array([2, 4]), 1: np.array([2, 4])}
    table = {
        # user 1: test item 1 scores below item 2 -> rank 1
        (1, 1): 1.0, (1, 2): 2.0, (1, 4): 0.0,
        # user 3: test item 0 wins -> rank 0
        (3, 0): 9.0, (3, 2): 1.0, (3, 4): 1.0,
    }

    def score_items(u, items):
        return np.array([table[(u, int(i))] for i in items])

    report = evaluate_ranking(score_items, records, negatives, (1, 2))
    np.testing.assert_array_equal(sorted(report.ranks.tolist()), [0, 1])
    assert report.recall[1] == 0.5
    assert report.recall[2] == 1.0


# ---------------------------------------------------------------------------
# frozen-negatives digest


def test_negatives_digest_is_order_independent_and_content_sensitive():
    a = {0: np.array([1, 2, 3]), 5: np.array([4])}
    b = {5: np.array([4]), 0: np.array([1, 2, 3])}  # same content, other insert order
    assert negatives_digest(a) == negatives_digest(b)
    c = {0: np.array([1, 2, 4]), 5: np.array([4])}
    assert negatives_digest(a) != negatives_digest(c)
    d = {0: np.array([1, 2]), 5: np.array([3, 4])}  # same multiset, different owner
    assert negatives_digest(a) != negatives_digest(d)
    assert len(negatives_digest(a)) == 64


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
