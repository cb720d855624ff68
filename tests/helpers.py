"""Deterministic instance builders shared across test modules."""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from gbrec.config import Hyperparams
from gbrec.data import BehaviorLog, SocialGraph, user_interactions
from gbrec.graphs import build_graphs
from gbrec.kernels import CSR
from gbrec.loss import LossBreakdown, breakdown_from_terms, build_terms, score_terms, social_residual
from gbrec.model import init_params
from gbrec.scoring import EmbeddingSet
from gbrec.synthetic import PlantedModel

import oracles


@dataclass
class BehaviorRecord:
    """One group-buying launch: who started it, for what, who joined, outcome."""

    initiator: int
    item: int
    participants: tuple[int, ...]
    success: bool


def child_env() -> dict:
    """The environment of a child ``python`` that imports this checkout's gbrec."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def from_records(records, num_users: int | None = None, num_items: int | None = None) -> BehaviorLog:
    """A log of ``BehaviorRecord``s, in their order; the id space defaults to
    the ids the records use."""
    if num_users is None:
        num_users = 1 + max((u for r in records for u in (r.initiator, *r.participants)), default=-1)
    if num_items is None:
        num_items = 1 + max((r.item for r in records), default=-1)
    rows = [(r.initiator, r.item, r.success, len(r.participants)) for r in records]
    initiator, item, success, counts = np.array(rows, dtype=np.int64).reshape(-1, 4).T.copy()
    participants = np.array([p for r in records for p in r.participants], dtype=np.int64)
    part_indptr = np.concatenate([[0], np.cumsum(counts)])
    return BehaviorLog(initiator, item, success.astype(bool), part_indptr, participants, num_users, num_items)


def records_of(log: BehaviorLog) -> list[BehaviorRecord]:
    """The log's records as ``BehaviorRecord``s, in order."""
    ptr = log.part_indptr.tolist()
    parts = log.part_indices.tolist()
    return [
        BehaviorRecord(u, i, tuple(parts[a:b]), ok)
        for u, i, a, b, ok in zip(log.initiator.tolist(), log.item.tolist(), ptr, ptr[1:], log.success.tolist())
    ]


def held_out(log: BehaviorLog) -> dict[int, BehaviorRecord]:
    """A held-out log (one record per user) keyed by user."""
    return {r.initiator: r for r in records_of(log)}


def negative_lists(negatives: CSR) -> dict[int, np.ndarray]:
    """The users with a non-empty row of a negatives ``CSR``, each with its row."""
    return {u: negatives.neighbors(u) for u in np.flatnonzero(negatives.degrees).tolist()}


def negatives_csr(lists: dict, num_users: int, num_items: int) -> CSR:
    """A negatives ``CSR`` whose row ``u`` is ``lists[u]`` as given (not
    sorted), or empty when ``u`` is not a key."""
    counts = np.array([len(lists.get(u, ())) for u in range(num_users)], dtype=np.int64)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    rows = [np.asarray(lists[u], dtype=np.int64) for u in sorted(lists)]
    return CSR(num_users, num_items, indptr, np.concatenate([np.empty(0, dtype=np.int64), *rows]))


def touched_sets(log: BehaviorLog) -> list[set[int]]:
    """``user_interactions(log)`` as one set of items per user."""
    touched = user_interactions(log)
    return [set(touched.neighbors(u).tolist()) for u in range(log.num_users)]


def make_records(
    rng: np.random.Generator,
    num_users: int,
    num_items: int,
    n: int,
    success_p: float = 0.6,
    max_participants: int = 3,
) -> list[BehaviorRecord]:
    records = []
    for _ in range(n):
        initiator = int(rng.integers(0, num_users))
        item = int(rng.integers(0, num_items))
        k = int(rng.integers(0, max_participants + 1))
        pool = np.array([u for u in range(num_users) if u != initiator])
        take = min(k, len(pool))
        participants = tuple(int(p) for p in rng.choice(pool, size=take, replace=False)) if take else ()
        records.append(BehaviorRecord(initiator, item, participants, bool(rng.random() < success_p)))
    return records


def make_social(rng: np.random.Generator, num_users: int, n_pairs: int) -> SocialGraph:
    return SocialGraph.from_edges(num_users, rng.integers(0, num_users, size=(n_pairs, 2)))


def edges_from_records(records, failed_participant_edges: bool = True):
    """Re-derive the three edge sets straight from the record rules."""
    launch, join, share = set(), set(), set()
    for r in records:
        launch.add((r.initiator, r.item))
        if r.success or failed_participant_edges:
            for p in r.participants:
                join.add((p, r.item))
                share.add((r.initiator, p))
    return sorted(launch), sorted(join), sorted(share)


def small_instance(
    num_users: int = 10,
    num_items: int = 8,
    n_records: int = 15,
    n_social_pairs: int = 14,
    data_seed: int = 42,
    param_seed: int = 3,
    hp: Hyperparams | None = None,
    dtype=np.float64,
    clear_kinks: bool = False,
):
    """One self-consistent toy problem: log, graphs, params, and oracle edges.

    With ``clear_kinks`` the bias columns are nudged so no activation input
    sits near the kink (required before finite-difference checks).
    """
    if hp is None:
        hp = Hyperparams(
            dim=4, num_layers=2, alpha=0.6, beta=0.05, l2_coeff=1e-3, social_reg_coeff=1e-3
        )
    rng = np.random.default_rng(data_seed)
    records = make_records(rng, num_users, num_items, n_records)
    log = from_records(records, num_users, num_items)
    social = make_social(rng, num_users, n_social_pairs)
    bundle = build_graphs(log, hp.failed_participant_edges)
    params = init_params(num_users, num_items, hp, seed=param_seed, dtype=dtype)
    launch_e, join_e, share_e = edges_from_records(records, hp.failed_participant_edges)
    if clear_kinks:
        weights = {n: getattr(params, n) for n in params.tensors() if n.startswith("w_")}
        biases = {"w_" + n[2:]: getattr(params, n) for n in params.tensors() if n.startswith("b_")}
        oracles.clear_activation_kinks(
            num_users, num_items, launch_e, join_e, share_e,
            params.user_emb, params.item_emb, weights, biases, hp.num_layers,
        )
    return {
        "log": log,
        "records": records,
        "social": social,
        "bundle": bundle,
        "params": params,
        "hp": hp,
        "edges": (launch_e, join_e, share_e),
        "rng": rng,
    }


def oracle_blocks(inst) -> dict:
    """Dense-oracle forward pass over a ``small_instance`` dict."""
    launch_e, join_e, share_e = inst["edges"]
    params, hp = inst["params"], inst["hp"]
    weights = {n: getattr(params, n) for n in params.tensors() if n.startswith("w_")}
    biases = {"w_" + n[2:]: getattr(params, n) for n in params.tensors() if n.startswith("b_")}
    return oracles.dense_forward_oracle(
        inst["log"].num_users,
        inst["log"].num_items,
        launch_e,
        join_e,
        share_e,
        params.user_emb,
        params.item_emb,
        weights,
        biases,
        hp.num_layers,
        hp.activation,
        hp.activation_slope,
    )


def total_loss(
    batch: BehaviorLog,
    negatives: np.ndarray,
    emb: EmbeddingSet,
    social: SocialGraph,
    tensors: dict[str, np.ndarray],
    hp: Hyperparams,
) -> LossBreakdown:
    """Batch objective: ranking terms plus both regularizers, from the loss
    module's steps as ``trainer.loss_and_grads`` runs them."""
    terms = build_terms(batch, negatives, social, hp.beta)
    gap = score_terms(terms, emb)
    resid = social_residual(tensors["user_emb"], social, hp.social_reg_coeff, social.mean(tensors["user_emb"]))
    return breakdown_from_terms(terms, gap, tensors, resid, hp)


def load_planted(path: str) -> PlantedModel:
    """The planted model ``synthetic.save_planted`` wrote to ``path``."""
    with np.load(path) as z:
        temp, scale, bias, threshold = z["scalars"]
        return PlantedModel(
            launch_vecs=z["launch_vecs"],
            join_vecs=z["join_vecs"],
            item_vecs=z["item_vecs"],
            activity=z["activity"],
            social=SocialGraph(z["launch_vecs"].shape[0], z["social_indptr"], z["social_indices"]),
            item_temp=float(temp),
            join_scale=float(scale),
            join_bias=float(bias),
            success_threshold=int(threshold),
        )
