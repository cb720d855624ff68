"""Optimizers, training stages, checkpoints, and training-log hashing."""

import warnings
from pathlib import Path

import numpy as np
import pytest

from gbrec import kernels
from gbrec import trainer
from gbrec.checkpoint import load_checkpoint, save_checkpoint
from gbrec.config import CheckpointError, Hyperparams, TrainingError
from gbrec.data import DatasetSplit, user_interactions, write_npz
from gbrec.evaluate import evaluate_ranking
from gbrec.graphs import build_graphs
from gbrec.model import init_params
from gbrec.rawdata import split_leave_one_out
from gbrec.scoring import FLAT_TENSOR_FIELDS, init_flat_params
from gbrec.trainer import (
    SGD,
    Adam,
    FlatModel,
    GCNModel,
    finetune_stage,
    loss_and_grads,
    normalize_embedding_rows,
    pretrain_stage,
    train_model,
    training_log_hash,
    write_training_log,
)

import helpers
import oracles


# ---------------------------------------------------------------------------
# optimizers vs scalar references


def test_sgd_step_matches_reference(rng):
    t = rng.standard_normal((4, 3))
    g = rng.standard_normal((4, 3))
    want = oracles.sgd_reference(t, g, lr=0.1)
    tensors = {"t": t.copy()}
    SGD(0.1).step(tensors, {"t": g})
    np.testing.assert_allclose(tensors["t"], want, rtol=1e-15)


def test_adam_multi_step_matches_reference(rng):
    t0 = rng.standard_normal((5, 2))
    grads = [rng.standard_normal((5, 2)) for _ in range(4)]
    want = oracles.adam_reference(t0, grads, lr=0.05)
    tensors = {"t": t0.copy()}
    opt = Adam(0.05)
    for g in grads:
        opt.step(tensors, {"t": g})
    np.testing.assert_allclose(tensors["t"], want, rtol=1e-12)


def test_adam_tracks_state_per_tensor(rng):
    a0, b0 = rng.standard_normal(3), rng.standard_normal(3)
    ga = [rng.standard_normal(3) for _ in range(3)]
    gb = [rng.standard_normal(3) for _ in range(3)]
    tensors = {"a": a0.copy(), "b": b0.copy()}
    opt = Adam(0.01)
    for s in range(3):
        opt.step(tensors, {"a": ga[s], "b": gb[s]})
    np.testing.assert_allclose(tensors["a"], oracles.adam_reference(a0, ga, 0.01), rtol=1e-12)
    np.testing.assert_allclose(tensors["b"], oracles.adam_reference(b0, gb, 0.01), rtol=1e-12)


def test_normalize_embedding_rows():
    p = init_flat_params(3, 2, 4, seed=0, dtype=np.float64)
    p.user_emb[1] = 0.0
    normalize_embedding_rows(p)
    norms = np.linalg.norm(p.user_emb, axis=1)
    assert norms[0] == pytest.approx(1.0, rel=1e-6)
    assert norms[1] == 0.0  # zero rows must not become NaN
    assert np.linalg.norm(p.item_emb, axis=1) == pytest.approx(1.0, rel=1e-6)


# ---------------------------------------------------------------------------
# stages


def tiny_problem(seed=0):
    rng = np.random.default_rng(seed)
    records = helpers.make_records(rng, 12, 10, 90)
    log = helpers.from_records(records, 12, 10)
    social = helpers.make_social(rng, 12, 20)
    split = split_leave_one_out(log, seed=seed, num_negatives=9)
    return split, social


def test_pretrain_stage_is_deterministic_and_normalizes():
    split, social = tiny_problem()
    hp = Hyperparams(dim=4, pretrain_epochs=3, batch_size=32)
    runs = []
    for _ in range(2):
        params = init_flat_params(12, 10, 4, seed=1)
        pretrain_stage(params, split.train, user_interactions(split.train), social, hp, seed=5, entries=[])
        runs.append(params)
    np.testing.assert_array_equal(runs[0].user_emb, runs[1].user_emb)
    np.testing.assert_array_equal(runs[0].item_emb, runs[1].item_emb)
    norms = np.linalg.norm(runs[0].user_emb.astype(np.float64), axis=1)
    np.testing.assert_allclose(norms[norms > 0], 1.0, atol=1e-6)

    other = init_flat_params(12, 10, 4, seed=1)
    pretrain_stage(other, split.train, user_interactions(split.train), social, hp, seed=6, entries=[])
    assert np.any(other.user_emb != runs[0].user_emb)


def test_finetune_returns_best_validation_params():
    split, social = tiny_problem(seed=2)
    hp = Hyperparams(dim=4, num_layers=1, epochs=4, finetune_lr=0.05, batch_size=64)
    bundle = build_graphs(split.train, hp.failed_participant_edges)
    adapter = GCNModel(bundle, social, hp)
    params = init_params(12, 10, hp, seed=3)
    entries = []
    best = finetune_stage(
        adapter, params, split.train, user_interactions(split.train), split, seed=4, entries=entries
    )
    assert len(entries) == 4
    assert all(e["stage"] == "finetune" for e in entries)
    best_seen = max(e["val_ndcg10"] for e in entries)
    emb = adapter.embeddings(adapter.forward(best))
    report = evaluate_ranking(emb.score_users, split.validation, split.eval_negatives, (10,))
    assert report.ndcg[10] == pytest.approx(best_seen, abs=1e-12)


def test_finetune_without_validation_returns_final_params():
    split, social = tiny_problem(seed=3)
    bare = DatasetSplit(split.train, split.validation.take([]), split.test, split.eval_negatives, 12, 10)
    hp = Hyperparams(dim=4, num_layers=1, epochs=2, finetune_lr=0.05, batch_size=64)
    bundle = build_graphs(bare.train, hp.failed_participant_edges)
    adapter = GCNModel(bundle, social, hp)
    params = init_params(12, 10, hp, seed=3)
    entries = []
    best = finetune_stage(
        adapter, params, bare.train, user_interactions(bare.train), bare, seed=4, entries=entries
    )
    assert entries[0]["val_ndcg10"] is None
    np.testing.assert_array_equal(best.user_emb, params.user_emb)


def test_training_diverges_loudly_at_absurd_learning_rate():
    split, social = tiny_problem(seed=4)
    hp = Hyperparams(
        dim=4, pretrain_epochs=0, epochs=6, finetune_lr=1e100, l2_coeff=1e-3, batch_size=256
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(TrainingError):
            train_model("mf", split, social, hp, seed=0)


# ---------------------------------------------------------------------------
# train_model orchestration


def test_train_model_mf_disables_multi_view_machinery(monkeypatch):
    split, social = tiny_problem(seed=5)
    hp = Hyperparams(dim=4, pretrain_epochs=2, epochs=2, finetune_lr=0.05, batch_size=64)
    reductions = []
    for name in ("segment_mean", "segment_sum"):
        orig = getattr(kernels, name)
        monkeypatch.setattr(
            kernels, name, lambda *a, _name=name, _orig=orig: reductions.append(_name) or _orig(*a)
        )
    result = train_model("mf", split, social, hp, seed=1)
    assert reductions == []  # no friend mean, no social penalty, no graphs
    assert result.model_type == "mf"
    assert result.hp.alpha == 0.0 and result.hp.beta == 0.0 and result.hp.social_reg_coeff == 0.0
    assert len(result.entries) == 4
    stages = [e["stage"] for e in result.entries]
    assert stages == ["pretrain", "pretrain", "finetune", "finetune"]


def assert_flat_batch_takes_the_friend_mean_once(monkeypatch, owner, attr: str, dense: bool):
    """Count the friend means of one flat batch at ``owner.attr``, and the
    social graph's ``mean_adjoint`` calls."""
    split, social = tiny_problem(seed=5)
    assert social.runs_dense is dense
    hp = Hyperparams(dim=4, alpha=0.6, social_reg_coeff=0.1)
    params = init_flat_params(split.num_users, split.num_items, 4, seed=0)
    batch = split.train
    negatives = np.random.default_rng(0).integers(0, split.num_items, size=(len(batch), 1))
    adapter = FlatModel(social, hp)

    means, adjoints = [], []
    orig = getattr(owner, attr)
    monkeypatch.setattr(owner, attr, lambda *a: means.append(1) or orig(*a))
    orig_adjoint = social.mean_adjoint
    monkeypatch.setattr(social, "mean_adjoint", lambda *a: adjoints.append(1) or orig_adjoint(*a))
    bd, grads = loss_and_grads(adapter, params, batch, negatives, hp, social)
    assert len(means) == 1  # the scorer's friend mean also feeds the social residual
    # the scorer's adjoint and the social penalty's reach the friends in one call
    assert len(adjoints) == 1

    # the same loss as the reference, which takes the residual's friend mean afresh
    emb = adapter.embeddings(adapter.forward(params))
    tensors = {name: getattr(params, name) for name in FLAT_TENSOR_FIELDS}
    assert bd == helpers.total_loss(batch, negatives, emb, social, tensors, hp)


def test_flat_batch_takes_the_friend_mean_once(sparse_products, monkeypatch):
    assert_flat_batch_takes_the_friend_mean_once(monkeypatch, kernels, "segment_mean", dense=False)


def test_flat_batch_takes_the_friend_mean_once_on_the_dense_path(dense_products, monkeypatch):
    assert_flat_batch_takes_the_friend_mean_once(monkeypatch, kernels.CSR, "mean", dense=True)


def test_train_model_builds_the_interactions_once(monkeypatch):
    split, social = tiny_problem(seed=5)
    hp = Hyperparams(dim=4, num_layers=1, pretrain_epochs=2, epochs=2, finetune_lr=0.05, batch_size=64)
    builds = []
    monkeypatch.setattr(trainer, "user_interactions", lambda *a: builds.append(1) or user_interactions(*a))
    for model_type in ("gbgcn", "gbmf", "mf"):
        builds.clear()
        train_model(model_type, split, social, hp, seed=1)
        assert len(builds) == 1, model_type  # shared by the pretrain and finetune stages


def test_train_model_all_types_run_and_are_seed_reproducible():
    split, social = tiny_problem(seed=6)
    hp = Hyperparams(dim=4, num_layers=1, pretrain_epochs=1, epochs=1, finetune_lr=0.05, batch_size=64)
    for model_type in ("gbgcn", "gbmf", "mf"):
        a = train_model(model_type, split, social, hp, seed=2)
        b = train_model(model_type, split, social, hp, seed=2)
        assert a.log_hash == b.log_hash, model_type
        np.testing.assert_array_equal(a.params.user_emb, b.params.user_emb)
    with pytest.raises(ValueError, match="unknown model type"):
        train_model("svd", split, social, hp, seed=0)


# ---------------------------------------------------------------------------
# training log


def test_training_log_hash_ignores_wall_time():
    entries = [
        {"stage": "finetune", "epoch": 0, "total": 1.0, "wall_time": 0.5},
        {"stage": "finetune", "epoch": 1, "total": 0.9, "wall_time": 0.7},
    ]
    slower = [dict(e, wall_time=e["wall_time"] * 100) for e in entries]
    assert training_log_hash(entries) == training_log_hash(slower)
    drifted = [dict(entries[0]), dict(entries[1], total=0.8)]
    assert training_log_hash(entries) != training_log_hash(drifted)


def test_write_training_log_is_jsonl(tmp_path):
    import json

    path = str(tmp_path / "log.jsonl")
    entries = [{"stage": "pretrain", "epoch": 0, "total": 2.5, "wall_time": 0.1}]
    write_training_log(path, entries)
    lines = Path(path).read_text().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["total"] == 2.5


# ---------------------------------------------------------------------------
# checkpoints


def roundtrip(tmp_path, model_type, params, hp):
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, model_type, params, hp)
    return path, load_checkpoint(path)


def test_checkpoint_round_trip_gcn(tmp_path):
    hp = Hyperparams(dim=3, num_layers=2)
    params = init_params(6, 5, hp, seed=0)
    path, ckpt = roundtrip(tmp_path, "gbgcn", params, hp)
    assert ckpt.model_type == "gbgcn"
    assert ckpt.hp == hp
    for name, t in params.tensors().items():
        got = getattr(ckpt.params, name)
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, t.astype(np.float32))


def test_checkpoint_round_trip_flat(tmp_path):
    hp = Hyperparams(dim=3)
    params = init_flat_params(6, 5, 3, seed=0)
    _, ckpt = roundtrip(tmp_path, "gbmf", params, hp)
    assert ckpt.model_type == "gbmf"
    for name in FLAT_TENSOR_FIELDS:
        np.testing.assert_array_equal(getattr(ckpt.params, name), getattr(params, name))


def test_checkpoint_save_is_byte_deterministic(tmp_path):
    hp = Hyperparams(dim=3, num_layers=1)
    params = init_params(4, 4, hp, seed=1)
    p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
    save_checkpoint(p1, "gbgcn", params, hp)
    save_checkpoint(p2, "gbgcn", params, hp)
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


def test_checkpoint_rejects_corruption(tmp_path):
    hp = Hyperparams(dim=2, num_layers=1)
    params = init_params(3, 3, hp, seed=0)
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, "gbgcn", params, hp)
    blob = Path(path).read_bytes()

    # the first member's local header signature
    bad_magic = str(tmp_path / "bad_magic.ckpt")
    Path(bad_magic).write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(CheckpointError, match="Bad magic number"):
        load_checkpoint(bad_magic)

    truncated = str(tmp_path / "trunc.ckpt")
    Path(truncated).write_bytes(blob[:-5])
    with pytest.raises(CheckpointError, match="not a zip file"):
        load_checkpoint(truncated)

    # bytes the zip reader would skip: after the end record, or before the first member
    trailing = str(tmp_path / "trail.ckpt")
    Path(trailing).write_bytes(blob + b"\x00\x00")
    with pytest.raises(CheckpointError, match="bytes after the zip end record; write this checkpoint again"):
        load_checkpoint(trailing)
    prefixed = str(tmp_path / "prefix.ckpt")
    Path(prefixed).write_bytes(bytes(12) + blob)
    with pytest.raises(CheckpointError, match="12 bytes before the first member; write this checkpoint again"):
        load_checkpoint(prefixed)

    other_format = str(tmp_path / "format.ckpt")
    with np.load(path) as npz:
        arrays = {name: npz[name] for name in npz.files}
    arrays["meta"] = np.frombuffer(bytes(arrays["meta"]).replace(b"gbrec-checkpoint-npz", b"gbrec-checkpoint-v9"), np.uint8)
    write_npz(other_format, arrays)
    with pytest.raises(CheckpointError, match="format"):
        load_checkpoint(other_format)

    # a bias one entry longer than the weights' width, (num_layers + 1) * dim = 4
    long_bias = str(tmp_path / "bias.ckpt")
    with np.load(path) as npz:
        arrays = {name: npz[name] for name in npz.files}
    arrays["b_user_to_item_join"] = np.zeros(5, np.float32)
    write_npz(long_bias, arrays)
    with pytest.raises(CheckpointError, match=r"b_user_to_item_join is 5 long, expected \(num_layers \+ 1\) \* dim = 4"):
        load_checkpoint(long_bias)

    # one flipped bit of item_emb's data: the member's CRC-32 no longer matches
    flipped = str(tmp_path / "flipped.ckpt")
    at = blob.index(b"item_emb.npy") + len("item_emb.npy") + 130
    Path(flipped).write_bytes(blob[:at] + bytes([blob[at] ^ 1]) + blob[at + 1 :])
    with pytest.raises(CheckpointError, match="Bad CRC-32 for file 'item_emb.npy'") as err:
        load_checkpoint(flipped)
    assert str(err.value).startswith(flipped) and str(err.value).endswith("again with gbrec train")


def test_checkpoint_rejects_unknown_model_type(tmp_path):
    hp = Hyperparams(dim=2)
    params = init_flat_params(3, 3, 2, seed=0)
    with pytest.raises(ValueError, match="unknown model type"):
        save_checkpoint(str(tmp_path / "x.ckpt"), "word2vec", params, hp)
