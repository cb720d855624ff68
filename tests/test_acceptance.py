"""Release acceptance gate: one test per criterion, run with ``pytest -v``.

Each test checks exactly one release criterion at its stated tolerance, so
the verbose pytest report doubles as the acceptance checklist — one
PASSED/FAILED line per criterion. Tolerances and instance sizes here are
contractual: do not loosen them to make a failing build green.

The two end-to-end criteria (07, 08) train real models on planted synthetic
worlds. Their generator configs and hyperparameters are frozen constants,
calibrated once and recorded below; each run is seeded and single-run
deterministic. Criterion 09 needs the published production dataset and is
skipped unless GBREC_BEIBEI_BEHAVIOR / GBREC_BEIBEI_SOCIAL point at the raw
files.
"""

import math
import os
import time
from pathlib import Path
from dataclasses import replace

import numpy as np
import pytest

from gbrec.checkpoint import load_checkpoint, save_checkpoint
from gbrec.config import Hyperparams, SynthConfig
from gbrec.data import SocialGraph
from gbrec.evaluate import compute_metrics, evaluate_ranking
from gbrec.graphs import build_graphs
from gbrec.model import (
    BRANCHES,
    forward,
    init_params,
)
from gbrec.rawdata import ingest, split_leave_one_out
from gbrec.scoring import init_flat_params
from gbrec.synthetic import generate
from gbrec.trainer import (
    FlatModel,
    GCNModel,
    loss_and_grads,
    train_model,
)

import helpers
import oracles
from helpers import BehaviorRecord
from oracles import loss_failed, loss_success, mf_score, rank_from_scores


# ---------------------------------------------------------------------------
# frozen end-to-end recipes (calibrated once; all runs seeded)

# planted world for the recovery check: dense enough that the held-out item is
# recoverable far above the 10x-random bar
RECOVERY_WORLD = dict(
    num_users=500,
    num_items=200,
    latent_dim=8,
    num_records=20_000,
    mean_friends=8.0,
    role_correlation=0.0,
    launch_social_mix=0.7,
)

# role-divergent world for the multi-view advantage check: same planted
# structure but sparser, where per-user history alone underdetermines launch
# taste and the social graph carries real signal
ADVANTAGE_WORLD = dict(RECOVERY_WORLD, num_records=12_000)

TRAIN_HP = dict(
    dim=16,
    num_layers=2,
    alpha=0.6,
    beta=0.05,
    pretrain_epochs=10,
    pretrain_lr=1e-2,
    epochs=40,
    batch_size=4096,
)
GCN_LR = 1e-2
MF_LRS = (3e-3, 1e-2)  # the baseline gets the better of its two rates
TRAIN_SEED = 7


def build_world(tmp_path, world: dict, seed: int):
    outdir = str(tmp_path / f"world-{seed}")
    generate(SynthConfig(**world), seed, outdir)
    log, social, _stats = ingest(
        os.path.join(outdir, "behaviors.tsv"), os.path.join(outdir, "social.tsv")
    )
    split = split_leave_one_out(log, seed=seed)
    return split, social


def train_and_test_ndcg(model_type: str, split, social, finetune_lr: float):
    hp = Hyperparams(**TRAIN_HP, finetune_lr=finetune_lr)
    result = train_model(model_type, split, social, hp, seed=TRAIN_SEED)
    if model_type == "gbgcn":
        bundle = build_graphs(split.train, result.hp.failed_participant_edges)
        model = GCNModel(bundle, social, result.hp)
    else:
        model = FlatModel(social, result.hp)
    emb = model.embeddings(model.forward(result.params))
    report = evaluate_ranking(emb.score_users, split.test, split.eval_negatives, (10,))
    return report.ndcg[10], report.recall[10]


# ---------------------------------------------------------------------------
# 01: analytic gradients match central finite differences


def test_criterion_01_gradients_match_finite_differences():
    t0 = time.perf_counter()
    inst = helpers.small_instance(
        num_users=10, num_items=8, n_records=15, dtype=np.float64, clear_kinks=True
    )
    adapter = GCNModel(inst["bundle"], inst["social"], inst["hp"])
    negatives = np.random.default_rng(7).integers(0, 8, size=(len(inst["records"]), 1))

    def batch_loss():
        from helpers import total_loss

        emb = adapter.embeddings(adapter.forward(inst["params"]))
        tensors = {name: getattr(inst["params"], name) for name in adapter.trainable}
        return total_loss(
            inst["log"], negatives, emb, inst["social"], tensors, inst["hp"]
        ).total

    _, grads = loss_and_grads(
        adapter, inst["params"], inst["log"], negatives, inst["hp"], inst["social"]
    )
    tensors = {name: getattr(inst["params"], name) for name in adapter.trainable}
    fd = oracles.fd_gradients(batch_loss, tensors, h=1e-3)
    errors = {name: oracles.relative_error(fd[name], grads[name]) for name in tensors}
    elapsed = time.perf_counter() - t0

    bad = {n: e for n, e in errors.items() if not e < 1e-4}
    assert not bad, f"per-tensor relative error >= 1e-4: {bad}"
    assert elapsed < 30.0, f"gradient check took {elapsed:.1f}s (budget 30s)"


# ---------------------------------------------------------------------------
# 02: sparse propagation equals a dense-matrix re-implementation


def test_criterion_02_sparse_forward_equals_dense_oracle():
    rng = np.random.default_rng(20)
    worst = 0.0
    for trial in range(20):
        num_users = int(rng.integers(2, 61))
        num_items = int(rng.integers(2, min(41, 101 - num_users)))
        hp = Hyperparams(
            dim=int(rng.integers(1, 7)),
            num_layers=int(rng.integers(0, 4)),
            alpha=float(rng.choice([0.0, 0.3, 0.6, 1.0])),
            activation=("leaky_relu", "identity", "tanh")[trial % 3],
        )
        inst = helpers.small_instance(
            num_users=num_users,
            num_items=num_items,
            n_records=int(rng.integers(1, 3 * (num_users + num_items))),
            n_social_pairs=int(rng.integers(0, 2 * num_users)),
            data_seed=int(rng.integers(0, 2**31)),
            param_seed=int(rng.integers(0, 2**31)),
            hp=hp,
            dtype=np.float64,
        )
        state = forward(inst["bundle"], inst["social"], inst["params"], inst["hp"])
        blocks = helpers.oracle_blocks(inst)
        for slot in ("user_launch", "item_launch", "user_join", "item_join"):
            for lib, ref in zip(getattr(state.emb, slot), blocks[slot]):
                worst = max(worst, float(np.max(np.abs(lib - ref))) if lib.size else 0.0)
    assert worst < 1e-6, f"max abs deviation from dense oracle: {worst}"


# ---------------------------------------------------------------------------
# 03: scoring degeneracies


def test_criterion_03_prediction_degeneracies():
    # (a) with the social weight at zero, predict() is bit-equal to the
    # initiator-view inner product, in both working precisions
    for dtype in (np.float32, np.float64):
        inst = helpers.small_instance(dtype=dtype)
        hp = replace(inst["hp"], alpha=0.0)
        emb = forward(inst["bundle"], inst["social"], inst["params"], hp).emb
        for u in range(10):
            for i in range(8):
                ref = float(
                    sum(
                        np.dot(bi[i], bu[u])
                        for bu, bi in zip(emb.user_launch, emb.item_launch)
                    )
                )
                assert emb.predict(u, i) == ref, (dtype, u, i)

    # (b) no propagation rounds + zeroed cross-view branches + identity
    # activation + zero social weight collapses the full model onto plain
    # matrix factorization over the shared embedding tables
    flat = init_flat_params(10, 8, 4, seed=5, dtype=np.float64)
    inst = helpers.small_instance(dtype=np.float64)
    hp = replace(inst["hp"], num_layers=0, alpha=0.0, activation="identity")
    params = init_params(10, 8, hp, seed=1, dtype=np.float64)
    params.user_emb[...] = flat.user_emb
    params.item_emb[...] = flat.item_emb
    for spec in BRANCHES:
        getattr(params, "w_" + spec.suffix)[...] = 0.0
        getattr(params, "b_" + spec.suffix)[...] = 0.0
    emb = forward(inst["bundle"], inst["social"], params, hp).emb
    for u in range(10):
        for i in range(8):
            assert emb.predict(u, i) == mf_score(flat, u, i), (u, i)


# ---------------------------------------------------------------------------
# 04: pairwise loss degeneracies


def test_criterion_04_loss_degeneracies():
    table = {(0, 1): 2.0, (0, 9): 1.0, (2, 1): 0.5, (2, 9): 1.5, (3, 1): 0.25, (3, 9): 0.5}
    score = lambda u, i: table[(u, i)]
    social = SocialGraph.from_edges(4, np.array([[0, 2], [0, 3]]))
    failed = BehaviorRecord(0, 1, (), False)

    # failure weight zero leaves exactly the initiator's single pairwise term;
    # the reference computes it through an independent formula, so agreement
    # is to machine precision (observed: one ulp), not bit-identity
    got = loss_failed(failed, 9, score, social, beta=0.0)
    ref = oracles.bpr_reference(2.0 - 1.0)
    assert abs(got - ref) <= 2 * np.spacing(ref), (got, ref)

    # a zero score gap contributes exactly ln 2 for every compared pair
    tie = lambda u, i: 1.0
    assert loss_success(BehaviorRecord(0, 1, (2, 3), True), 9, tie) == 3 * math.log(2.0)
    assert loss_failed(failed, 9, tie, social, beta=1.0) == (1 + 2) * math.log(2.0)


# ---------------------------------------------------------------------------
# 05: ranking metric unit values


def test_criterion_05_metric_unit_values():
    assert compute_metrics(np.array([0]), (1,)).ndcg[1] == 1.0
    assert compute_metrics(np.array([0]), (10,)).ndcg[10] == 1.0
    rep = compute_metrics(np.array([9]), (10,))
    assert rep.ndcg[10] == pytest.approx(1.0 / math.log2(11.0), rel=1e-12)
    assert rep.recall[10] == 1.0
    rep = compute_metrics(np.array([10]), (10, 20))
    assert rep.ndcg[10] == 0.0 and rep.recall[10] == 0.0
    assert rep.recall[20] == 1.0

    rng = np.random.default_rng(55)
    ks = (1, 2, 3, 5, 8, 13, 21, 34)
    for _ in range(50):
        ranks = rng.integers(0, 40, size=17)
        rep = compute_metrics(ranks, ks)
        for lo, hi in zip(ks, ks[1:]):
            assert rep.recall[lo] <= rep.recall[hi]
            assert rep.ndcg[lo] <= rep.ndcg[hi]


# ---------------------------------------------------------------------------
# 06: random scorer calibrates to the analytic hit rate


def test_criterion_06_random_scorer_recall_calibration():
    rng = np.random.default_rng(123)
    evals = 10_000
    scores = rng.standard_normal((evals, 1000))
    ranks = np.fromiter(
        (rank_from_scores(float(row[0]), row[1:]) for row in scores),
        dtype=np.int64,
        count=evals,
    )
    mean_recall = compute_metrics(ranks, (10,)).recall[10]
    assert abs(mean_recall - 0.01) < 0.003, f"mean recall@10 {mean_recall}"


# ---------------------------------------------------------------------------
# 07: planted-model recovery at desk scale


def test_criterion_07_planted_model_recovery(tmp_path):
    t0 = time.perf_counter()
    split, social = build_world(tmp_path, RECOVERY_WORLD, seed=0)
    # conservative epoch budget: count both training stages
    assert TRAIN_HP["pretrain_epochs"] + TRAIN_HP["epochs"] <= 200
    ndcg10, recall10 = train_and_test_ndcg("gbgcn", split, social, GCN_LR)
    elapsed = time.perf_counter() - t0
    assert recall10 >= 0.10, f"recall@10 {recall10:.4f} < 0.10"
    assert ndcg10 >= 0.05, f"ndcg@10 {ndcg10:.4f} < 0.05"
    assert elapsed < 600.0, f"recovery run took {elapsed:.0f}s (budget 600s)"


# ---------------------------------------------------------------------------
# 08: multi-view advantage over single-view MF on role-divergent data


def test_criterion_08_multiview_advantage_over_flattened_mf(tmp_path):
    passes = 0
    details = []
    for seed in (0, 1, 2):
        split, social = build_world(tmp_path, ADVANTAGE_WORLD, seed=seed)
        gcn_ndcg, _ = train_and_test_ndcg("gbgcn", split, social, GCN_LR)
        mf_ndcg = max(train_and_test_ndcg("mf", split, social, lr)[0] for lr in MF_LRS)
        rel = (gcn_ndcg - mf_ndcg) / mf_ndcg
        details.append(f"seed {seed}: gcn {gcn_ndcg:.4f} vs mf {mf_ndcg:.4f} ({rel:+.1%})")
        if rel >= 0.05:
            passes += 1
    assert passes >= 2, "advantage < 5% on a majority of seeds: " + "; ".join(details)


# ---------------------------------------------------------------------------
# 09: production dataset ingestion counts (optional-network)


@pytest.mark.skipif(
    not (os.environ.get("GBREC_BEIBEI_BEHAVIOR") and os.environ.get("GBREC_BEIBEI_SOCIAL")),
    reason="set GBREC_BEIBEI_BEHAVIOR and GBREC_BEIBEI_SOCIAL to the raw dataset files",
)
def test_criterion_09_production_dataset_counts():
    _log, _social, stats = ingest(
        os.environ["GBREC_BEIBEI_BEHAVIOR"], os.environ["GBREC_BEIBEI_SOCIAL"]
    )
    assert stats.num_users == 190_080
    assert stats.num_items == 30_782
    assert stats.num_social_edges == 748_233
    assert stats.num_behaviors == 932_896
    assert stats.num_success == 721_605
    assert stats.num_failed == 211_291


# ---------------------------------------------------------------------------
# 10: bitwise determinism of training and checkpoints


def test_criterion_10_single_thread_determinism(tmp_path):
    rng = np.random.default_rng(31)
    records = helpers.make_records(rng, 40, 25, 300)
    social = helpers.make_social(rng, 40, 60)
    split = split_leave_one_out(helpers.from_records(records, 40, 25), seed=2, num_negatives=24)
    hp = Hyperparams(
        dim=8, num_layers=2, pretrain_epochs=3, pretrain_lr=1e-2,
        epochs=4, finetune_lr=1e-2, batch_size=128,
    )
    runs = [train_model("gbgcn", split, social, hp, seed=11) for _ in range(2)]
    assert runs[0].log_hash == runs[1].log_hash

    paths = []
    for i, result in enumerate(runs):
        path = str(tmp_path / f"ckpt-{i}.bin")
        save_checkpoint(path, result.model_type, result.params, result.hp)
        paths.append(path)
    blobs = [Path(p).read_bytes() for p in paths]
    assert blobs[0] == blobs[1], "same-seed checkpoints differ"

    loaded = load_checkpoint(paths[0])
    round_trip = str(tmp_path / "round-trip.bin")
    save_checkpoint(round_trip, loaded.model_type, loaded.params, loaded.hp)
    assert Path(round_trip).read_bytes() == blobs[0], "round trip not byte-identical"
