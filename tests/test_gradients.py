"""Analytic gradients vs central finite differences, in 64-bit mode.

The instances are preconditioned so no activation input sits near the
piecewise-linear kink (see oracles.clear_activation_kinks); otherwise the
finite-difference step itself would straddle the kink and disagree with the
(correct) one-sided analytic derivative.
"""

from dataclasses import replace

import numpy as np
import pytest

from gbrec.scoring import init_flat_params
from gbrec.trainer import FlatModel, GCNModel, loss_and_grads

import helpers
import oracles

TOL = 1e-4


def batch_loss(adapter, params, batch, negatives, hp, social) -> float:
    state = adapter.forward(params)
    emb = adapter.embeddings(state)
    tensors = {name: getattr(params, name) for name in adapter.trainable}
    return helpers.total_loss(batch, negatives, emb, social, tensors, hp).total


def check_against_fd(adapter, params, batch, negatives, hp, social):
    _, grads = loss_and_grads(adapter, params, batch, negatives, hp, social)
    tensors = {name: getattr(params, name) for name in adapter.trainable}
    fd = oracles.fd_gradients(
        lambda: batch_loss(adapter, params, batch, negatives, hp, social),
        tensors,
        h=1e-3,
    )
    worst = {}
    for name in tensors:
        worst[name] = oracles.relative_error(fd[name], grads[name])
    bad = {n: e for n, e in worst.items() if e >= TOL}
    assert not bad, f"gradient mismatch: {bad}"
    return worst


def gcn_fixture(**hp_overrides):
    inst = helpers.small_instance(dtype=np.float64, clear_kinks=True)
    hp = replace(inst["hp"], **hp_overrides) if hp_overrides else inst["hp"]
    adapter = GCNModel(inst["bundle"], inst["social"], hp)
    negatives = np.random.default_rng(7).integers(0, 8, size=(len(inst["records"]), 1))
    return adapter, inst["params"], inst["log"], negatives, hp, inst["social"]


def test_full_model_gradients_match_finite_differences():
    worst = check_against_fd(*gcn_fixture())
    assert max(worst.values()) < 1e-6  # far below the acceptance bar in practice


def test_full_model_gradients_match_finite_differences_on_the_sparse_path(sparse_products):
    # the fixture's graphs and batch are small enough for the dense rules; this
    # checks the sparse propagation and score backward passes end to end
    check_against_fd(*gcn_fixture())


def test_gradients_renormalized_alpha_variant():
    check_against_fd(*gcn_fixture(renormalize_alpha=True))


def test_gradients_without_regularizers():
    check_against_fd(*gcn_fixture(l2_coeff=0.0, social_reg_coeff=0.0))


def flat_fixture(**hp_overrides):
    inst = helpers.small_instance(dtype=np.float64)
    hp = replace(inst["hp"], **hp_overrides)
    params = init_flat_params(10, 8, 4, seed=5, dtype=np.float64)
    adapter = FlatModel(inst["social"], hp)
    negatives = np.random.default_rng(9).integers(0, 8, size=(len(inst["records"]), 2))
    return adapter, params, inst["log"], negatives, hp, inst["social"]


def test_flat_model_gradients_match_finite_differences():
    check_against_fd(*flat_fixture())


def test_flat_model_gradients_match_finite_differences_on_the_sparse_path(sparse_products):
    check_against_fd(*flat_fixture())


def test_flat_model_gradients_without_the_friend_term():
    # alpha 0 is what mf trains: the scorer reads no friend mean, and its query rows are user_emb
    fixture = flat_fixture(alpha=0.0)
    adapter, params = fixture[:2]
    assert not adapter.scores_friend_mean and adapter.forward(params).query[0] is params.user_emb
    check_against_fd(*fixture)


def test_flat_model_gradients_renormalized_alpha_variant():
    # a friendless user's query row takes launch weight 1, the others 1 - alpha
    fixture = flat_fixture(renormalize_alpha=True)
    assert (fixture[-1].degrees == 0).any()
    check_against_fd(*fixture)


def test_flat_model_gradients_renormalized_alpha_variant_on_the_sparse_path(sparse_products):
    check_against_fd(*flat_fixture(renormalize_alpha=True))


def test_gradients_are_deterministic():
    adapter, params, batch, negatives, hp, social = gcn_fixture()
    _, g1 = loss_and_grads(adapter, params, batch, negatives, hp, social)
    _, g2 = loss_and_grads(adapter, params, batch, negatives, hp, social)
    for name in g1:
        np.testing.assert_array_equal(g1[name], g2[name])
