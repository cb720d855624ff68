"""Objective assembly: pairwise terms, regularizers, numerical safety."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbrec.data import SocialGraph
from gbrec.loss import (
    LossBreakdown,
    breakdown_from_terms,
    build_terms,
    l2_value,
    sigmoid,
    social_residual,
    social_value,
    softplus,
)
from gbrec.model import forward

import helpers
import oracles
from helpers import BehaviorRecord, total_loss
from oracles import loss_failed, loss_success


# ---------------------------------------------------------------------------
# numerical primitives


def test_softplus_matches_naive_formula_at_moderate_inputs():
    for x in (-5.0, -0.7, 0.0, 0.3, 4.0):
        assert softplus(x) == pytest.approx(math.log(1.0 + math.exp(x)), rel=1e-14)


def test_softplus_is_safe_at_extreme_gaps():
    assert softplus(-745.0) > 0.0  # no underflow to a log(0) path
    assert np.isfinite(softplus(745.0))
    assert softplus(745.0) == pytest.approx(745.0)
    assert softplus(0.0) == pytest.approx(math.log(2.0), rel=1e-15)


def test_sigmoid_matches_logistic():
    x = np.linspace(-30, 30, 13)
    np.testing.assert_allclose(sigmoid(x), 1.0 / (1.0 + np.exp(-x)), atol=1e-15)


# ---------------------------------------------------------------------------
# per-record scalar forms, the paper's loss as tests/oracles.py writes it


def fixed_score(table):
    return lambda u, i: table[(u, i)]


def test_loss_success_sums_initiator_and_participant_pairs():
    rec = BehaviorRecord(0, 1, (2, 3), True)
    table = {(0, 1): 2.0, (0, 9): 1.0, (2, 1): 0.5, (2, 9): 0.5, (3, 1): -1.0, (3, 9): 1.0}
    got = loss_success(rec, 9, fixed_score(table))
    want = oracles.bpr_reference(1.0) + oracles.bpr_reference(0.0) + oracles.bpr_reference(-2.0)
    assert got == pytest.approx(want, rel=1e-12)


def test_loss_failed_flips_friend_comparisons():
    rec = BehaviorRecord(0, 1, (), False)
    social = SocialGraph.from_edges(4, np.array([[0, 2], [0, 3]]))
    table = {(0, 1): 1.0, (0, 9): 0.0, (2, 9): 3.0, (2, 1): 1.0, (3, 9): 0.0, (3, 1): 2.0}
    beta = 0.25
    got = loss_failed(rec, 9, fixed_score(table), social, beta)
    # initiator still prefers their own launch over the negative; friends
    # should prefer the negative over the item that failed to attract them
    want = (
        oracles.bpr_reference(1.0)
        + beta * oracles.bpr_reference(3.0 - 1.0)
        + beta * oracles.bpr_reference(0.0 - 2.0)
    )
    assert got == pytest.approx(want, rel=1e-12)


def test_loss_failed_with_beta_zero_is_single_pair_bpr():
    rec = BehaviorRecord(0, 1, (), False)
    social = SocialGraph.from_edges(4, np.array([[0, 2], [0, 3]]))
    table = {(0, 1): 1.5, (0, 9): 1.0, (2, 9): 0.0, (2, 1): 0.0, (3, 9): 0.0, (3, 1): 0.0}
    got = loss_failed(rec, 9, fixed_score(table), social, beta=0.0)
    assert got == float(softplus(-0.5))


def test_zero_gap_costs_exactly_ln2_per_pair():
    rec = BehaviorRecord(0, 1, (2,), True)
    table = {(0, 1): 3.0, (0, 9): 3.0, (2, 1): -1.0, (2, 9): -1.0}
    assert loss_success(rec, 9, fixed_score(table)) == 2.0 * math.log(2.0)


# ---------------------------------------------------------------------------
# batch term expansion


def term_layout(records, negatives, social, beta):
    terms = build_terms(helpers.from_records(records), negatives, social, beta)
    return list(zip(terms.users, terms.hi, terms.lo, terms.weight, terms.pos))


def test_build_terms_success_record():
    rec = BehaviorRecord(0, 1, (2, 3), True)
    social = SocialGraph.from_edges(4, np.empty((0, 2), dtype=np.int64))
    terms = build_terms(helpers.from_records([rec]), np.array([[9]]), social, beta=0.5)
    assert term_layout([rec], np.array([[9]]), social, 0.5) == [
        (0, 1, 9, 1.0, True),
        (2, 1, 9, 1.0, True),
        (3, 1, 9, 1.0, True),
    ]
    assert len(terms) == 3


def test_build_terms_failed_record_flips_and_weights():
    rec = BehaviorRecord(0, 1, (), False)
    social = SocialGraph.from_edges(4, np.array([[0, 2], [0, 3]]))
    layout = term_layout([rec], np.array([[9]]), social, beta=0.25)
    assert layout[0] == (0, 1, 9, 1.0, False)
    assert (2, 9, 1, 0.25, False) in layout
    assert (3, 9, 1, 0.25, False) in layout
    assert len(layout) == 3


def test_build_terms_beta_zero_skips_friend_terms():
    rec = BehaviorRecord(0, 1, (), False)
    social = SocialGraph.from_edges(4, np.array([[0, 2]]))
    assert len(build_terms(helpers.from_records([rec]), np.array([[9]]), social, beta=0.0)) == 1


def test_build_terms_multiple_negative_columns():
    rec = BehaviorRecord(0, 1, (2,), True)
    social = SocialGraph.from_edges(3, np.empty((0, 2), dtype=np.int64))
    terms = build_terms(helpers.from_records([rec]), np.array([[7, 8]]), social, beta=0.1)
    assert len(terms) == 4  # (initiator + participant) x 2 negatives
    assert sorted(set(terms.lo.tolist())) == [7, 8]


def test_term_count_oracle_on_random_batch(rng):
    records = helpers.make_records(rng, 12, 9, 40)
    social = helpers.make_social(rng, 12, 20)
    negatives = rng.integers(0, 9, size=(40, 3))
    beta = 0.05
    terms = build_terms(helpers.from_records(records), negatives, social, beta)
    want = 0
    for rec in records:
        per_neg = 1 + (len(rec.participants) if rec.success else len(social.friends(rec.initiator)))
        want += 3 * per_neg
    assert len(terms) == want


@st.composite
def term_batches(draw):
    """Records, a batch of them in drawn order, its negatives, a social graph and beta."""
    num_users = draw(st.integers(1, 8))
    num_items = draw(st.integers(1, 6))
    records = []
    for _ in range(draw(st.integers(0, 10))):
        initiator = draw(st.integers(0, num_users - 1))
        others = [u for u in range(num_users) if u != initiator]
        participants = draw(st.lists(st.sampled_from(others), unique=True, max_size=4)) if others else []
        item = draw(st.integers(0, num_items - 1))
        records.append(BehaviorRecord(initiator, item, tuple(participants), draw(st.booleans())))
    batch = draw(st.lists(st.integers(0, len(records) - 1), max_size=12)) if records else []
    k = draw(st.integers(1, 4))
    negatives = np.array(
        draw(st.lists(st.integers(0, num_items - 1), min_size=len(batch) * k, max_size=len(batch) * k)),
        dtype=np.int64,
    ).reshape(len(batch), k)
    pairs = draw(st.lists(st.tuples(st.integers(0, num_users - 1), st.integers(0, num_users - 1)), max_size=12))
    social = SocialGraph.from_edges(num_users, np.array(pairs, dtype=np.int64).reshape(-1, 2))
    beta = draw(st.sampled_from([0.0, 0.05, 0.25]))
    return records, np.array(batch, dtype=np.int64), negatives, social, beta


def assert_terms_equal(terms, want):
    for name, expected in want.items():
        got = getattr(terms, name)
        assert got.dtype == expected.dtype, name
        np.testing.assert_array_equal(got, expected, err_msg=name)


@settings(max_examples=300, deadline=None)
@given(case=term_batches())
def test_build_terms_equals_the_record_loop(case):
    records, batch, negatives, social, beta = case
    terms = build_terms(helpers.from_records(records).take(batch), negatives, social, beta)
    want = oracles.build_terms_oracle([records[i] for i in batch], negatives, social.friends, beta)
    assert_terms_equal(terms, want)


@pytest.mark.parametrize("k", [1, 3])
def test_build_terms_of_an_empty_batch(k):
    social = SocialGraph.from_edges(2, np.array([[0, 1]]))
    empty = helpers.from_records([BehaviorRecord(0, 1, (1,), True)]).take(np.empty(0, dtype=np.int64))
    terms = build_terms(empty, np.empty((0, k), dtype=np.int64), social, 0.05)
    assert len(terms) == 0
    assert_terms_equal(terms, oracles.build_terms_oracle([], np.empty((0, k)), social.friends, 0.05))


# ---------------------------------------------------------------------------
# batch loss equals the scalar references


def batch_emb(inst):
    return forward(inst["bundle"], inst["social"], inst["params"], inst["hp"]).emb


def test_batch_ranking_loss_matches_per_record_oracle():
    inst = helpers.small_instance(dtype=np.float64)
    emb = batch_emb(inst)
    records, social, hp = inst["records"], inst["social"], inst["hp"]
    negatives = np.random.default_rng(11).integers(0, 8, size=(len(records), 2))
    tensors = inst["params"].tensors()

    bd = total_loss(inst["log"], negatives, emb, social, tensors, hp)
    want = oracles.objective_oracle(records, negatives, emb.predict, social.friends, hp.beta)
    assert bd.loss_pos + bd.loss_neg == pytest.approx(want, rel=1e-10)
    assert bd.total == pytest.approx(
        want
        + oracles.l2_oracle(tensors, hp.l2_coeff)
        + oracles.social_smoothness_oracle(inst["params"].user_emb, social.friends, hp.social_reg_coeff),
        rel=1e-10,
    )


def test_batch_loss_also_matches_scalar_record_api():
    inst = helpers.small_instance(dtype=np.float64)
    emb = batch_emb(inst)
    records, social, hp = inst["records"], inst["social"], inst["hp"]
    negatives = np.random.default_rng(13).integers(0, 8, size=(len(records), 1))
    bd = total_loss(inst["log"], negatives, emb, social, inst["params"].tensors(), hp)
    want = 0.0
    for rec, (neg,) in zip(records, negatives):
        if rec.success:
            want += loss_success(rec, int(neg), emb.predict)
        else:
            want += loss_failed(rec, int(neg), emb.predict, social, hp.beta)
    assert bd.loss_pos + bd.loss_neg == pytest.approx(want, rel=1e-10)


# ---------------------------------------------------------------------------
# regularizers


def test_l2_value_matches_oracle(rng):
    tensors = {"a": rng.standard_normal((4, 3)), "b": rng.standard_normal(5)}
    assert l2_value(tensors, 0.01) == pytest.approx(oracles.l2_oracle(tensors, 0.01), rel=1e-14)
    assert l2_value(tensors, 0.0) == 0.0


def test_social_value_matches_oracle(rng):
    user_emb = rng.standard_normal((8, 4))
    social = helpers.make_social(rng, 8, 10)
    got = social_value(social_residual(user_emb, social, 0.5, social.mean(user_emb)), 0.5)
    want = oracles.social_smoothness_oracle(user_emb, social.friends, 0.5)
    assert got == pytest.approx(want, rel=1e-12)


def test_social_value_ignores_friendless_users(rng):
    user_emb = rng.standard_normal((3, 2))
    social = SocialGraph.from_edges(3, np.array([[0, 1]]))
    got = social_value(social_residual(user_emb, social, 1.0, social.mean(user_emb)), 1.0)
    diff = user_emb[0] - user_emb[1]
    assert got == pytest.approx(2.0 * float(diff @ diff), rel=1e-12)


def test_breakdown_totals():
    bd = LossBreakdown(loss_pos=1.0, loss_neg=0.5, l2_term=0.25, social_term=0.125)
    assert bd.total == 1.875
