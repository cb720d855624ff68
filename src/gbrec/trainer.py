"""Two-stage training, hand-rolled optimizers, and binary checkpoints.

Stage one pretrains the raw embedding tables through the propagation-free
scorer with an adaptive-moment optimizer, then rescales every embedding row
to unit L2 norm. Stage two fine-tunes the full model with plain SGD: each
epoch shuffles the records, resamples negatives, steps over fixed-size
batches, and scores validation ndcg@10; the parameters with the best
validation score are the ones returned.

Everything is seeded and single-ordered, so a (seed, data) pair reproduces
the training log exactly; ``training_log_hash`` fingerprints the run with
wall-clock fields excluded.
"""

from __future__ import annotations

import hashlib
import json
import logging
import struct
import time
from dataclasses import dataclass, replace

import numpy as np

from .data import BehaviorLog, DatasetSplit, SocialGraph, sample_negatives, user_interactions
from .evaluate import evaluate_ranking
from .graphs import HeteroGraphBundle, build_graphs
from .loss import (
    LossBreakdown,
    breakdown_from_terms,
    build_terms,
    loss_terms_backward,
    regularizer_grads,
    score_terms,
    social_residual,
)
from .model import (
    FLAT_TENSOR_FIELDS,
    TENSOR_FIELDS,
    FlatParams,
    Hyperparams,
    ModelParams,
    ScoreAdjoint,
    backward,
    flat_backward,
    flat_embeddings,
    forward,
    init_flat_params,
    init_params,
)

log = logging.getLogger(__name__)

MODEL_TYPE_CODES = {"gbgcn": 0, "gbmf": 1, "mf": 2}
CODE_TO_MODEL_TYPE = {v: k for k, v in MODEL_TYPE_CODES.items()}
CHECKPOINT_MAGIC = b"GBGC"
CHECKPOINT_VERSION = 1


class TrainingError(RuntimeError):
    pass


class CheckpointError(ValueError):
    pass


# ---------------------------------------------------------------------------
# optimizers


class SGD:
    def __init__(self, lr: float):
        self.lr = lr

    def step(self, tensors: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        for name in sorted(tensors):
            tensors[name] -= self.lr * grads[name]


class Adam:
    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, tensors: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        for name in sorted(tensors):
            g = grads[name]
            if name not in self.m:
                self.m[name] = np.zeros_like(g)
                self.v[name] = np.zeros_like(g)
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            tensors[name] -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


# ---------------------------------------------------------------------------
# model adapters: one forward/backward interface for graph and flat scorers


class GCNModel:
    trainable = TENSOR_FIELDS

    def __init__(self, bundle: HeteroGraphBundle, social: SocialGraph, hp: Hyperparams):
        self.bundle = bundle
        self.social = social
        self.hp = hp

    def forward(self, params):
        return forward(self.bundle, self.social, params, self.hp)

    def embeddings(self, state):
        return state.emb

    def backward(self, state, adj: ScoreAdjoint, grads: dict[str, np.ndarray]) -> None:
        backward(state, adj, grads)


class FlatModel:
    trainable = FLAT_TENSOR_FIELDS

    def __init__(self, social: SocialGraph, hp: Hyperparams):
        self.social = social
        self.hp = hp

    def forward(self, params):
        return flat_embeddings(
            params.user_emb, params.item_emb, self.social, self.hp.alpha, self.hp.renormalize_alpha
        )

    def embeddings(self, state):
        return state

    def backward(self, state, adj: ScoreAdjoint, grads: dict[str, np.ndarray]) -> None:
        flat_backward(adj, self.social, grads)


def loss_and_grads(
    adapter, params, records, negatives: np.ndarray, hp: Hyperparams, social: SocialGraph
) -> tuple[LossBreakdown, dict[str, np.ndarray]]:
    """One full batch evaluation: breakdown plus gradients for every trainable tensor."""
    state = adapter.forward(params)
    emb = adapter.embeddings(state)
    terms = build_terms(records, negatives, social, hp.beta)
    y_hi, y_lo = score_terms(terms, emb, hp.role_scores)
    tensors = {name: getattr(params, name) for name in adapter.trainable}
    resid = social_residual(params.user_emb, social, hp.social_reg_coeff)
    bd = breakdown_from_terms(terms, y_hi, y_lo, tensors, resid, hp)
    adj = ScoreAdjoint.zeros(emb)
    loss_terms_backward(terms, y_hi, y_lo, emb, adj, hp.role_scores)
    grads = {name: np.zeros_like(tensors[name]) for name in adapter.trainable}
    adapter.backward(state, adj, grads)
    regularizer_grads(tensors, social, resid, hp, grads)
    return bd, grads


def _check_finite(bd: LossBreakdown, grads: dict[str, np.ndarray]) -> None:
    if not np.isfinite(bd.total):
        raise TrainingError(f"loss diverged: {bd}")
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient in {name}; aborting step")


def _batches(n: int, batch_size: int, order: np.ndarray):
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]


def _run_epoch(
    adapter, params, train_log: BehaviorLog, interactions, hp: Hyperparams, rng, optimizer, social
) -> LossBreakdown:
    negs = sample_negatives(train_log, hp.neg_ratio, rng, interactions)
    order = rng.permutation(len(train_log.records))
    sums = np.zeros(4, dtype=np.float64)
    for batch in _batches(len(train_log.records), hp.batch_size, order):
        records = [train_log.records[i] for i in batch]
        bd, grads = loss_and_grads(adapter, params, records, negs[batch], hp, social)
        _check_finite(bd, grads)
        tensors = {name: getattr(params, name) for name in adapter.trainable}
        optimizer.step(tensors, grads)
        sums += (bd.loss_pos, bd.loss_neg, bd.l2_term, bd.social_term)
    return LossBreakdown(*sums)


def normalize_embedding_rows(params) -> None:
    for t in (params.user_emb, params.item_emb):
        norms = np.linalg.norm(t.astype(np.float64), axis=1)
        nz = norms > 0
        t[nz] = (t[nz] / norms[nz, None].astype(t.dtype)).astype(t.dtype)


# ---------------------------------------------------------------------------
# training stages


def pretrain_stage(
    params, train_log: BehaviorLog, social: SocialGraph, hp: Hyperparams, seed: int,
    entries: list | None = None,
) -> None:
    """Adam on the propagation-free scorer, then unit-normalize embedding rows."""
    adapter = FlatModel(social, hp)
    optimizer = Adam(hp.pretrain_lr)
    rng = np.random.default_rng([seed, 0])
    interactions = user_interactions(train_log)
    for epoch in range(hp.pretrain_epochs):
        t0 = time.perf_counter()
        bd = _run_epoch(adapter, params, train_log, interactions, hp, rng, optimizer, social)
        if entries is not None:
            entries.append(_entry("pretrain", epoch, bd, None, time.perf_counter() - t0))
        log.info("pretrain epoch %d total loss %.4f", epoch, bd.total)
    normalize_embedding_rows(params)


def finetune_stage(
    adapter, params, train_log: BehaviorLog, split: DatasetSplit, hp: Hyperparams, seed: int,
    entries: list | None = None,
):
    """SGD epochs with per-epoch validation ndcg@10; returns the best params seen."""
    optimizer = SGD(hp.finetune_lr)
    rng = np.random.default_rng([seed, 1])
    interactions = user_interactions(train_log)
    best_params = params.copy()
    best_ndcg = -1.0
    for epoch in range(hp.epochs):
        t0 = time.perf_counter()
        bd = _run_epoch(adapter, params, train_log, interactions, hp, rng, optimizer, adapter.social)
        val = None
        if split.validation:
            emb = adapter.embeddings(adapter.forward(params))
            report = evaluate_ranking(emb.score_items, split.validation, split.eval_negatives, (10,))
            val = {"ndcg10": report.ndcg[10], "recall10": report.recall[10]}
            if report.ndcg[10] > best_ndcg:
                best_ndcg = report.ndcg[10]
                best_params = params.copy()
        if entries is not None:
            entries.append(_entry("finetune", epoch, bd, val, time.perf_counter() - t0))
        log.info(
            "finetune epoch %d total loss %.4f val_ndcg10 %s",
            epoch, bd.total, "n/a" if val is None else f"{val['ndcg10']:.4f}",
        )
    if not split.validation:
        best_params = params.copy()
    return best_params


def _entry(stage: str, epoch: int, bd: LossBreakdown, val: dict | None, wall: float) -> dict:
    e = {
        "stage": stage,
        "epoch": epoch,
        "loss_pos": float(bd.loss_pos),
        "loss_neg": float(bd.loss_neg),
        "l2_term": float(bd.l2_term),
        "social_term": float(bd.social_term),
        "total": float(bd.total),
        "val_ndcg10": None if val is None else float(val["ndcg10"]),
        "val_recall10": None if val is None else float(val["recall10"]),
        "wall_time": wall,
    }
    return e


def training_log_hash(entries: list[dict]) -> str:
    """Deterministic fingerprint of a run; wall-clock fields are excluded."""
    stripped = [{k: v for k, v in e.items() if k != "wall_time"} for e in entries]
    blob = json.dumps(stripped, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def write_training_log(path: str, entries: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for e in entries:
            fh.write(json.dumps(e, sort_keys=True) + "\n")


@dataclass
class TrainResult:
    model_type: str
    params: object
    hp: Hyperparams
    entries: list[dict]

    @property
    def log_hash(self) -> str:
        return training_log_hash(self.entries)


def train_model(
    model_type: str,
    split: DatasetSplit,
    social: SocialGraph,
    hp: Hyperparams,
    seed: int,
    dtype=np.float32,
    bundle: HeteroGraphBundle | None = None,
) -> TrainResult:
    """Pretrain + finetune one of {gbgcn, gbmf, mf} on a prepared split."""
    from .baselines import flatten_interactions  # local import avoids a cycle

    if model_type not in MODEL_TYPE_CODES:
        raise ValueError(f"unknown model type {model_type!r}")
    hp_eff = hp
    train_log = split.train
    if model_type == "mf":
        # single-view baseline: both roles flattened to plain user-item pairs
        hp_eff = replace(hp, alpha=0.0, beta=0.0, social_reg_coeff=0.0)
        train_log = flatten_interactions(split.train)

    if model_type == "gbgcn":
        params = init_params(split.num_users, split.num_items, hp_eff, seed, dtype)
    else:
        params = init_flat_params(split.num_users, split.num_items, hp_eff.dim, seed, dtype)

    entries: list[dict] = []
    pretrain_stage(params, train_log, social, hp_eff, seed, entries)

    if hp_eff.epochs > 0:
        if model_type == "gbgcn":
            if bundle is None:
                bundle = build_graphs(split.train, hp_eff.failed_participant_edges)
            adapter = GCNModel(bundle, social, hp_eff)
        else:
            adapter = FlatModel(social, hp_eff)
        params = finetune_stage(adapter, params, train_log, split, hp_eff, seed, entries)
    return TrainResult(model_type, params, hp_eff, entries)


# ---------------------------------------------------------------------------
# checkpoints: magic, version, model tag, dims, hyperparams, flags (always 0),
# f32 tensors


def _tensor_fields(model_type: str) -> tuple[str, ...]:
    return TENSOR_FIELDS if model_type == "gbgcn" else FLAT_TENSOR_FIELDS


@dataclass
class Checkpoint:
    model_type: str
    params: object
    hp: Hyperparams


def save_checkpoint(path: str, model_type: str, params, hp: Hyperparams) -> None:
    if model_type not in MODEL_TYPE_CODES:
        raise ValueError(f"unknown model type {model_type!r}")
    P, d = params.user_emb.shape
    Q = params.item_emb.shape[0]
    L = hp.num_layers if model_type == "gbgcn" else 0
    hp_json = json.dumps(hp.to_dict(), sort_keys=True, separators=(",", ":")).encode()
    buf = bytearray()
    buf += CHECKPOINT_MAGIC
    buf += struct.pack("<IIIIII", CHECKPOINT_VERSION, MODEL_TYPE_CODES[model_type], P, Q, d, L)
    buf += struct.pack("<II", len(hp_json), 0)
    buf += hp_json
    for name in _tensor_fields(model_type):
        buf += np.ascontiguousarray(getattr(params, name), dtype="<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(bytes(buf))


def load_checkpoint(path: str) -> Checkpoint:
    with open(path, "rb") as fh:
        blob = fh.read()
    off = 0

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(blob):
            raise CheckpointError(f"{path}: truncated checkpoint")
        out = blob[off : off + n]
        off += n
        return out

    if take(4) != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a checkpoint")
    version, code, P, Q, d, L = struct.unpack("<IIIIII", take(24))
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    if code not in CODE_TO_MODEL_TYPE:
        raise CheckpointError(f"{path}: unknown model type code {code}")
    model_type = CODE_TO_MODEL_TYPE[code]
    hp_len, flags = struct.unpack("<II", take(8))
    if flags:
        raise CheckpointError(f"{path}: unsupported header flags {flags:#x}")
    hp = Hyperparams.from_dict(json.loads(take(hp_len).decode()))

    width = (L + 1) * d
    shapes = {"user_emb": (P, d), "item_emb": (Q, d)}
    for name in TENSOR_FIELDS[2:]:
        shapes[name] = (width,) if name.startswith("b_") else (width, width)

    tensors = {}
    for name in _tensor_fields(model_type):
        shape = shapes[name]
        count = int(np.prod(shape))
        tensors[name] = np.ascontiguousarray(np.frombuffer(take(4 * count), dtype="<f4").reshape(shape))
    params = ModelParams(**tensors) if model_type == "gbgcn" else FlatParams(**tensors)
    if off != len(blob):
        raise CheckpointError(f"{path}: {len(blob) - off} trailing bytes")
    return Checkpoint(model_type, params, hp)
