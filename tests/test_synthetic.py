"""Synthetic world: exact success probabilities, planted structure, generation."""

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gbrec import synthetic
from gbrec.config import SynthConfig
from gbrec.rawdata import ingest
from gbrec.synthetic import (
    PlantedModel,
    build_planted,
    generate,
    load_planted,
    oracle_topk,
    poisson_binomial_tail,
    save_planted,
    simulate,
)

import helpers
import oracles

SMALL = SynthConfig(
    num_users=20,
    num_items=10,
    latent_dim=4,
    num_records=120,
    mean_friends=4.0,
)


# ---------------------------------------------------------------------------
# configuration validation


def test_config_validation_collects_problems():
    bad = SynthConfig(num_users=1, num_items=1, latent_dim=0, num_records=0, item_temp=0.0,
                      role_correlation=2.0, launch_social_mix=-0.1)
    problems = "\n".join(bad.validate())
    for token in ("num_users", "num_items", "latent_dim", "num_records", "item_temp",
                  "role_correlation", "launch_social_mix"):
        assert token in problems
    assert SMALL.validate() == []


FLOAT_FIELDS = ("mean_friends", "activity_concentration", "item_temp", "join_scale", "join_bias",
                "role_correlation", "launch_social_mix")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_config_rejects_non_finite_floats_once(name, value):
    problems = SynthConfig(**{**SMALL.to_dict(), name: value}).validate()
    assert problems == [f"{name} must be finite, got {value}"]


def test_config_reports_non_finite_beside_other_problems():
    problems = SynthConfig(**{**SMALL.to_dict(), "item_temp": float("nan"), "num_users": 1}).validate()
    assert problems == ["item_temp must be finite, got nan", "num_users must be >= 2, got 1"]


def test_config_dict_round_trip():
    cfg = SynthConfig(num_users=33, join_scale=2.5)
    assert SynthConfig.from_dict(cfg.to_dict()) == cfg


def test_generate_rejects_invalid_config(tmp_path):
    with pytest.raises(ValueError, match="invalid synthetic config"):
        generate(SynthConfig(num_users=1), 0, str(tmp_path))


# ---------------------------------------------------------------------------
# exact success probability


def test_tail_probability_matches_enumeration(rng):
    for n in (1, 3, 7, 11):
        probs = rng.uniform(0.01, 0.99, size=n)
        for threshold in range(0, n + 2):
            got = poisson_binomial_tail(probs, threshold)
            want = oracles.enum_tail_probability(probs, threshold)
            assert got == pytest.approx(want, abs=1e-12), (n, threshold)


def test_tail_probability_edge_cases():
    probs = np.array([0.5, 0.5])
    assert poisson_binomial_tail(probs, 0) == 1.0
    assert poisson_binomial_tail(probs, 3) == 0.0
    assert poisson_binomial_tail(np.array([1.0, 1.0]), 2) == pytest.approx(1.0)
    assert poisson_binomial_tail(np.array([0.0, 0.0]), 1) == pytest.approx(0.0)
    assert poisson_binomial_tail(np.empty(0), 1) == 0.0


def test_success_probability_uses_friend_join_probs():
    planted = build_planted(SMALL, np.random.default_rng(3))
    users_with_friends = [u for u in range(SMALL.num_users) if planted.social.friends(u).size]
    u = users_with_friends[0]
    item = 4
    probs = planted.join_probs(planted.social.friends(u), item)
    assert planted.success_probability(u, item) == pytest.approx(
        oracles.enum_tail_probability(probs, SMALL.success_threshold), abs=1e-12
    )
    # a friendless user can never reach a positive threshold
    friendless = [u for u in range(SMALL.num_users) if not planted.social.friends(u).size]
    for u in friendless:
        assert planted.success_probability(u, item) == 0.0


# ---------------------------------------------------------------------------
# planted structure


def test_build_planted_shapes_and_normalization():
    planted = build_planted(SMALL, np.random.default_rng(0))
    P, Q, k = SMALL.num_users, SMALL.num_items, SMALL.latent_dim
    assert planted.launch_vecs.shape == (P, k)
    assert planted.join_vecs.shape == (P, k)
    assert planted.item_vecs.shape == (Q, k)
    np.testing.assert_allclose(np.linalg.norm(planted.launch_vecs, axis=1), 1.0, rtol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(planted.item_vecs, axis=1), 1.0, rtol=1e-12)
    assert planted.activity.sum() == pytest.approx(1.0, rel=1e-12)
    assert np.all(planted.activity > 0)


def test_build_planted_deterministic_by_seed():
    a = build_planted(SMALL, np.random.default_rng(7))
    b = build_planted(SMALL, np.random.default_rng(7))
    np.testing.assert_array_equal(a.launch_vecs, b.launch_vecs)
    np.testing.assert_array_equal(a.social.indices, b.social.indices)


def test_role_correlation_one_and_zero_mix_makes_roles_identical():
    cfg = SynthConfig(**{**SMALL.to_dict(), "role_correlation": 1.0, "launch_social_mix": 0.0})
    planted = build_planted(cfg, np.random.default_rng(1))
    np.testing.assert_allclose(planted.launch_vecs, planted.join_vecs, atol=1e-12)


def mean_friend_alignment(planted):
    """Average cosine between a user's launch taste and their circle's join taste."""
    cosines = []
    for u in range(planted.num_users):
        fr = planted.social.friends(u)
        if fr.size == 0:
            continue
        mean = planted.join_vecs[fr].mean(axis=0)
        norm = np.linalg.norm(mean)
        if norm == 0:
            continue
        cosines.append(float(planted.launch_vecs[u] @ (mean / norm)))
    return float(np.mean(cosines))


def test_launch_social_mix_plants_cross_role_signal():
    base = {**SMALL.to_dict(), "role_correlation": 0.0}
    full = build_planted(SynthConfig(**{**base, "launch_social_mix": 1.0}), np.random.default_rng(2))
    none = build_planted(SynthConfig(**{**base, "launch_social_mix": 0.0}), np.random.default_rng(2))
    assert mean_friend_alignment(full) > 0.6
    assert abs(mean_friend_alignment(none)) < 0.3


def test_item_temp_near_zero_concentrates_launch_choice():
    cfg = SynthConfig(**{**SMALL.to_dict(), "item_temp": 1e-6})
    planted = build_planted(cfg, np.random.default_rng(4))
    for u in (0, 5, 11):
        probs = planted.item_probs(u)
        best = int(np.argmax(planted.launch_vecs[u] @ planted.item_vecs.T))
        assert probs[best] == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# oracle ranking


def test_oracle_topk_matches_brute_force_sort():
    planted = build_planted(SMALL, np.random.default_rng(5))
    for u in (0, 3, 9):
        scores = [planted.success_probability(u, n) for n in range(SMALL.num_items)]
        want = sorted(range(SMALL.num_items), key=lambda n: (-scores[n], n))
        assert oracle_topk(planted, u, SMALL.num_items) == want
        assert oracle_topk(planted, u, 3) == want[:3]


def test_oracle_topk_breaks_ties_by_lower_id():
    planted = build_planted(SMALL, np.random.default_rng(1))
    # friendless users score zero everywhere: pure tie, ids must come back sorted
    friendless = [u for u in range(SMALL.num_users) if not planted.social.friends(u).size]
    assert friendless, "seed regression: expected a friendless user in this draw"
    assert oracle_topk(planted, friendless[0], 5) == [0, 1, 2, 3, 4]


# ---------------------------------------------------------------------------
# simulation


def test_simulate_covers_every_user_and_item_then_draws():
    rng = np.random.default_rng(8)
    planted = build_planted(SMALL, rng)
    records = helpers.records_of(simulate(planted, SMALL, rng))
    assert len(records) == SMALL.num_records
    for t in range(SMALL.num_users):
        assert records[t].initiator == t
    for t in range(SMALL.num_items):
        assert records[t].item == t
    assert {r.initiator for r in records} == set(range(SMALL.num_users))
    assert {r.item for r in records} == set(range(SMALL.num_items))


def test_simulate_labels_follow_threshold_rule():
    rng = np.random.default_rng(9)
    planted = build_planted(SMALL, rng)
    records = helpers.records_of(simulate(planted, SMALL, rng))
    for r in records:
        assert r.success == (len(r.participants) >= SMALL.success_threshold)
        assert r.initiator not in r.participants
        friends = set(planted.social.friends(r.initiator).tolist())
        assert set(r.participants) <= friends


def test_simulate_draws_what_generator_choice_draws():
    cfg = SynthConfig(**{**SMALL.to_dict(), "num_records": 2000})
    planted = build_planted(cfg, np.random.default_rng(15))
    rng, ref = np.random.default_rng(16), np.random.default_rng(16)
    got = [dataclasses.astuple(r) for r in helpers.records_of(simulate(planted, cfg, rng))]
    assert got == oracles.simulate_oracle(planted, cfg.num_records, ref)
    assert rng.random() == ref.random()  # the generator ends in the same state


@st.composite
def simulation_worlds(draw):
    """Small worlds, with the generator's block sizes shrunk so that the
    uniform stream spans many locate and join blocks."""
    P = draw(st.integers(2, 12))
    Q = draw(st.integers(2, 12))
    cfg = SynthConfig(
        num_users=P,
        num_items=Q,
        latent_dim=draw(st.integers(1, 5)),
        num_records=max(P, Q) + draw(st.integers(0, 40)),
        mean_friends=draw(st.sampled_from([0.0, 0.5, 2.0, 6.0, 20.0])),
        item_temp=draw(st.sampled_from([1e-6, 0.05, 0.2, 2.0])),
        success_threshold=draw(st.integers(0, 3)),
        role_correlation=draw(st.floats(0.0, 1.0)),
        launch_social_mix=draw(st.floats(0.0, 1.0)),
    )
    blocks = dict(
        LOCATE_BLOCK=draw(st.integers(1, 9)),
        ITEM_CELLS=draw(st.integers(1, 40)),
        JOIN_RECORDS=draw(st.integers(1, 7)),
    )
    return cfg, draw(st.integers(0, 2**32 - 1)), blocks


@settings(max_examples=150, deadline=None)
@given(world=simulation_worlds())
@example(world=(SynthConfig(num_users=9, num_items=4, latent_dim=2, num_records=9, mean_friends=0.0), 3,
                dict(LOCATE_BLOCK=2, ITEM_CELLS=5, JOIN_RECORDS=2)))
@example(world=(SynthConfig(num_users=3, num_items=11, latent_dim=3, num_records=11, mean_friends=20.0,
                            item_temp=1e-6, success_threshold=0), 5,
                dict(LOCATE_BLOCK=1, ITEM_CELLS=1, JOIN_RECORDS=1)))
def test_simulate_matches_oracle_draw_for_draw(world):
    cfg, seed, blocks = world
    planted = build_planted(cfg, np.random.default_rng(seed))
    rng, ref = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    with mock.patch.multiple(synthetic, **blocks):
        got = [dataclasses.astuple(r) for r in helpers.records_of(simulate(planted, cfg, rng))]
    assert got == oracles.simulate_oracle(planted, cfg.num_records, ref)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_simulate_threshold_zero_means_every_launch_succeeds():
    cfg = SynthConfig(**{**SMALL.to_dict(), "success_threshold": 0})
    rng = np.random.default_rng(10)
    planted = build_planted(cfg, rng)
    records = helpers.records_of(simulate(planted, cfg, rng))
    assert all(r.success for r in records)


# ---------------------------------------------------------------------------
# full generation


def test_generate_writes_consistent_corpus(tmp_path, rng):
    out = str(tmp_path / "synth")
    result = generate(SMALL, seed=11, outdir=out)
    for path in (result.behavior_path, result.social_path, result.planted_path):
        assert os.path.exists(path)

    logb, social, stats = ingest(result.behavior_path, result.social_path)
    # coverage forces dense ids, so ingest must be an identity remap
    assert stats.num_users == SMALL.num_users
    assert stats.num_items == SMALL.num_items
    for key, value in result.counters.items():
        assert getattr(stats, key) == value, key
    assert helpers.records_of(logb) == helpers.records_of(result.log)

    with open(os.path.join(out, "generation.json")) as fh:
        meta = json.load(fh)
    assert meta["seed"] == 11
    assert SynthConfig.from_dict(meta["config"]) == SMALL
    assert meta["counters"] == result.counters


def test_generate_is_deterministic(tmp_path):
    a = generate(SMALL, seed=12, outdir=str(tmp_path / "a"))
    b = generate(SMALL, seed=12, outdir=str(tmp_path / "b"))
    assert Path(a.behavior_path).read_text() == Path(b.behavior_path).read_text()
    assert Path(a.social_path).read_text() == Path(b.social_path).read_text()
    c = generate(SMALL, seed=13, outdir=str(tmp_path / "c"))
    assert Path(a.behavior_path).read_text() != Path(c.behavior_path).read_text()


# sha256 of the files generate(SMALL, seed=11) writes; planted.npz also pins
# the bytes of NumPy's .npy writer
GOLDEN_SMALL_11 = {
    "behaviors.tsv": "981d6a533425e998104e3a099f09d1a38c5be4fd34c5117f1f58884691ff7a7d",
    "social.tsv": "a9af739fd4ecd504dff5e28f260c970fa5e4e4a088c2e1da82fa5cf66eaa8510",
    "planted.npz": "57cd1baa1098271f486639ca58913595aeacb8040d91356707d92bc1a2c9c29d",
}


def test_generate_writes_the_golden_files(tmp_path):
    generate(SMALL, seed=11, outdir=str(tmp_path))
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN_SMALL_11}
    assert got == GOLDEN_SMALL_11


def test_planted_round_trip(tmp_path):
    planted = build_planted(SMALL, np.random.default_rng(14))
    path = str(tmp_path / "planted.npz")
    save_planted(path, planted)
    again = load_planted(path)
    np.testing.assert_array_equal(again.launch_vecs, planted.launch_vecs)
    np.testing.assert_array_equal(again.join_vecs, planted.join_vecs)
    np.testing.assert_array_equal(again.item_vecs, planted.item_vecs)
    np.testing.assert_array_equal(again.activity, planted.activity)
    np.testing.assert_array_equal(again.social.indptr, planted.social.indptr)
    assert again.item_temp == planted.item_temp
    assert again.success_threshold == planted.success_threshold
    assert isinstance(again.success_threshold, int)
