"""Two-stage training and hand-rolled optimizers.

Stage one pretrains the raw embedding tables through the propagation-free
scorer with an adaptive-moment optimizer, then rescales every embedding row
to unit L2 norm. Stage two fine-tunes the full model with plain SGD: each
epoch shuffles the records, resamples negatives, steps over fixed-size
batches, and scores validation ndcg@10; the parameters with the best
validation score are the ones returned. An epoch runs through a model
adapter, ``GCNModel`` or ``FlatModel``, which supplies the hyperparameters
and the social graph it uses.

Everything is seeded and single-ordered, so a (seed, data) pair reproduces
the training log exactly; ``training_log_hash`` fingerprints the run with
wall-clock fields excluded.
"""

from __future__ import annotations

import hashlib
import json
import logging
import time
from dataclasses import dataclass, replace

import numpy as np

from .baselines import flatten_interactions
# bound here for gbbench/checks.py and gbbench/selftest.py, which import them from trainer
from .checkpoint import load_checkpoint, save_checkpoint  # noqa: F401
from .config import MODEL_TYPES, Hyperparams, TrainingError
from .data import BehaviorLog, DatasetSplit, SocialGraph, sample_negatives, user_interactions
from .evaluate import evaluate_ranking
from .graphs import HeteroGraphBundle, build_graphs
from .kernels import CSR
from .loss import (
    LossBreakdown,
    breakdown_from_terms,
    build_terms,
    friend_mean_adjoint,
    loss_terms_backward,
    regularizer_grads,
    score_terms,
    social_residual,
)
from .model import TENSOR_FIELDS, backward, forward, init_params
from .scoring import FLAT_TENSOR_FIELDS, EmbeddingSet, ScoreAdjoint, flat_backward, flat_embeddings, init_flat_params

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# optimizers


class SGD:
    def __init__(self, lr: float):
        self.lr = lr

    def step(self, tensors: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        for name in sorted(tensors):
            tensors[name] -= self.lr * grads[name]


# Adam's moment decays and denominator floor
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    def __init__(self, lr: float):
        self.lr = lr
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, tensors: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        c1 = 1.0 - ADAM_BETA1**self.t
        c2 = 1.0 - ADAM_BETA2**self.t
        for name in sorted(tensors):
            g = grads[name]
            if name not in self.m:
                self.m[name] = np.zeros_like(g)
                self.v[name] = np.zeros_like(g)
            m = self.m[name]
            v = self.v[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            tensors[name] -= self.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


# ---------------------------------------------------------------------------
# model adapters: one forward/backward interface for graph and flat scorers


class GCNModel:
    trainable = TENSOR_FIELDS
    scores_friend_mean = False  # its friend means are of propagated blocks, so forward ignores friend_mean

    def __init__(self, bundle: HeteroGraphBundle, social: SocialGraph, hp: Hyperparams):
        self.bundle = bundle
        self.social = social
        self.hp = hp

    def forward(self, params, friend_mean: np.ndarray | None = None):
        return forward(self.bundle, self.social, params, self.hp)

    def embeddings(self, state) -> EmbeddingSet:
        return state.emb

    def backward(self, state, adj: ScoreAdjoint, d_friend_mean, grads: dict[str, np.ndarray]) -> None:
        """``d_friend_mean``: the float64 adjoint of ``social.mean(user_emb)``, or None."""
        backward(state, adj, grads)
        if d_friend_mean is not None:
            grads["user_emb"] += self.social.mean_adjoint(d_friend_mean, grads["user_emb"].dtype)


class FlatModel:
    trainable = FLAT_TENSOR_FIELDS

    def __init__(self, social: SocialGraph, hp: Hyperparams):
        self.social = social
        self.hp = hp
        self.scores_friend_mean = hp.alpha != 0.0

    def forward(self, params, friend_mean: np.ndarray | None = None) -> EmbeddingSet:
        return flat_embeddings(
            params.user_emb, params.item_emb, self.social, self.hp.alpha, self.hp.renormalize_alpha, friend_mean
        )

    def embeddings(self, state: EmbeddingSet) -> EmbeddingSet:
        return state

    def backward(self, state: EmbeddingSet, adj: ScoreAdjoint, d_friend_mean, grads: dict[str, np.ndarray]) -> None:
        flat_backward(adj, self.social, self.hp.alpha, self.hp.renormalize_alpha, d_friend_mean, grads)


def loss_and_grads(
    adapter, params, batch: BehaviorLog, negatives: np.ndarray, hp: Hyperparams, social: SocialGraph
) -> tuple[LossBreakdown, dict[str, np.ndarray]]:
    """One full batch evaluation: breakdown plus gradients for every trainable tensor.

    The friend mean of ``user_emb`` is built here, once, for the scorer and the
    social penalty; the adapter's backward spreads the penalty's adjoint of it.
    """
    friend_mean = social.mean(params.user_emb) if adapter.scores_friend_mean or hp.social_reg_coeff else None
    state = adapter.forward(params, friend_mean)
    emb = adapter.embeddings(state)
    terms = build_terms(batch, negatives, social, hp.beta)
    gap = score_terms(terms, emb)
    tensors = {name: getattr(params, name) for name in adapter.trainable}
    resid = social_residual(params.user_emb, social, hp.social_reg_coeff, friend_mean)
    bd = breakdown_from_terms(terms, gap, tensors, resid, hp)
    adj = ScoreAdjoint.zeros(emb)
    loss_terms_backward(terms, gap, emb, adj)
    grads = {name: np.zeros_like(tensors[name]) for name in adapter.trainable}
    adapter.backward(state, adj, friend_mean_adjoint(resid, hp.social_reg_coeff), grads)
    regularizer_grads(tensors, resid, hp, grads)
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


def _run_epoch(adapter, params, train_log: BehaviorLog, interactions: CSR, rng, optimizer) -> LossBreakdown:
    hp = adapter.hp
    negs = sample_negatives(train_log, hp.neg_ratio, rng, interactions)
    order = rng.permutation(len(train_log))
    sums = np.zeros(4, dtype=np.float64)
    for batch in _batches(len(train_log), hp.batch_size, order):
        bd, grads = loss_and_grads(adapter, params, train_log.take(batch), negs[batch], hp, adapter.social)
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
    params, train_log: BehaviorLog, interactions: CSR, social: SocialGraph, hp: Hyperparams,
    seed: int, entries: list,
) -> None:
    """Adam on the propagation-free scorer, then unit-normalize embedding rows.

    ``interactions`` is ``user_interactions(train_log)``.
    """
    adapter = FlatModel(social, hp)
    optimizer = Adam(hp.pretrain_lr)
    rng = np.random.default_rng([seed, 0])
    for epoch in range(hp.pretrain_epochs):
        t0 = time.perf_counter()
        bd = _run_epoch(adapter, params, train_log, interactions, rng, optimizer)
        entries.append(_entry("pretrain", epoch, bd, None, time.perf_counter() - t0))
        log.info("pretrain epoch %d total loss %.4f", epoch, bd.total)
    normalize_embedding_rows(params)


def finetune_stage(
    adapter, params, train_log: BehaviorLog, interactions: CSR, split: DatasetSplit, seed: int, entries: list
):
    """SGD epochs with per-epoch validation ndcg@10; returns the best params seen.

    ``interactions`` is ``user_interactions(train_log)``.
    """
    optimizer = SGD(adapter.hp.finetune_lr)
    rng = np.random.default_rng([seed, 1])
    best_params = params.copy()
    best_ndcg = -1.0
    for epoch in range(adapter.hp.epochs):
        t0 = time.perf_counter()
        bd = _run_epoch(adapter, params, train_log, interactions, rng, optimizer)
        val = None
        if len(split.validation):
            emb = adapter.embeddings(adapter.forward(params))
            report = evaluate_ranking(emb.score_users, split.validation, split.eval_negatives, (10,))
            val = {"ndcg10": report.ndcg[10], "recall10": report.recall[10]}
            if report.ndcg[10] > best_ndcg:
                best_ndcg = report.ndcg[10]
                best_params = params.copy()
        entries.append(_entry("finetune", epoch, bd, val, time.perf_counter() - t0))
        log.info(
            "finetune epoch %d total loss %.4f val_ndcg10 %s",
            epoch, bd.total, "n/a" if val is None else f"{val['ndcg10']:.4f}",
        )
    if not len(split.validation):
        best_params = params.copy()
    return best_params


def _entry(stage: str, epoch: int, bd: LossBreakdown, val: dict | None, wall: float) -> dict:
    return {
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


def train_model(model_type: str, split: DatasetSplit, social: SocialGraph, hp: Hyperparams, seed: int) -> TrainResult:
    """Pretrain + finetune one of {gbgcn, gbmf, mf} on a prepared split."""
    if model_type not in MODEL_TYPES:
        raise ValueError(f"unknown model type {model_type!r}")
    hp_eff = hp
    train_log = split.train
    if model_type == "mf":
        # single-view baseline: both roles flattened to plain user-item pairs
        hp_eff = replace(hp, alpha=0.0, beta=0.0, social_reg_coeff=0.0)
        train_log = flatten_interactions(split.train)

    if model_type == "gbgcn":
        params = init_params(split.num_users, split.num_items, hp_eff, seed)
    else:
        params = init_flat_params(split.num_users, split.num_items, hp_eff.dim, seed)

    entries: list[dict] = []
    interactions = user_interactions(train_log)
    pretrain_stage(params, train_log, interactions, social, hp_eff, seed, entries)

    if hp_eff.epochs > 0:
        if model_type == "gbgcn":
            adapter = GCNModel(build_graphs(split.train, hp_eff.failed_participant_edges), social, hp_eff)
        else:
            adapter = FlatModel(social, hp_eff)
        params = finetune_stage(adapter, params, train_log, interactions, split, seed, entries)
    return TrainResult(model_type, params, hp_eff, entries)
