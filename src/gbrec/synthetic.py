"""Synthetic group-buying data from a planted latent model.

The planted world gives every user TWO latent role vectors -- one governing
what they launch, one governing what they join -- so multi-view models have
signal that a single-vector baseline cannot represent (the two roles can be
made identical, correlated, or independent via ``role_correlation``).
Group buying only works when the initiator picks something their circle will
actually join, so ``launch_social_mix`` blends each user's launch vector from
the mean of their friends' join vectors (plus an own component); at 0 the
roles are socially untethered, at 1 a user launches purely by their friends'
tastes.

Simulation of one record:

1. initiator sampled by fixed per-user activity weights;
2. item sampled from a softmax (temperature ``item_temp``) over the
   initiator's launch-role affinities;
3. every friend of the initiator joins independently with probability
   sigmoid(join_scale * <friend join vector, item vector> + join_bias);
4. the record succeeds iff the number of joiners reaches
   ``success_threshold``.

The first P records force initiators 0..P-1 and the first Q records force
items 0..Q-1 (a coverage pass), so every id appears at least once, the dense
re-ingest mapping is the identity, and downstream stats match the generation
counters exactly. Everything is driven by one seeded generator, so a (config,
seed) pair reproduces files byte for byte.

The draw contract: every draw is one ``rng.random()`` uniform, and record
``t`` reads, in order, one initiator draw if ``t >= P``, one item draw if
``t >= Q``, and one join draw per friend of its initiator, in friend order.
Record ``t``'s draws thus start at stream position
``sum over s < t of [s >= P] + [s >= Q] + deg(initiator of s)``. Since
``rng.random(n)`` yields the doubles of ``n`` scalar calls, ``simulate`` makes
these draws in bulk and leaves the generator where the scalar draws would.
``simulate_oracle`` in ``tests/oracles.py`` makes them one scalar draw at a
time.
"""

from __future__ import annotations

import json
import os
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .config import SynthConfig
from .data import BehaviorLog, SocialGraph, write_npz
from .rawdata import write_behaviors, write_social


@dataclass
class PlantedModel:
    """Ground-truth latents and rules; all rows unit length, activity sums to 1."""

    launch_vecs: np.ndarray  # (P, k) what each user likes to launch
    join_vecs: np.ndarray    # (P, k) what each user likes to join
    item_vecs: np.ndarray    # (Q, k)
    activity: np.ndarray     # (P,) initiator sampling weights
    social: SocialGraph
    item_temp: float
    join_scale: float
    join_bias: float
    success_threshold: int

    @property
    def num_items(self) -> int:
        return self.item_vecs.shape[0]


# ---------------------------------------------------------------------------
# generation


def _unit_rows(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


def build_planted(cfg: SynthConfig, rng: np.random.Generator) -> PlantedModel:
    P, Q, k = cfg.num_users, cfg.num_items, cfg.latent_dim
    num_edges = int(round(P * cfg.mean_friends / 2.0))
    pairs = rng.integers(0, P, size=(num_edges, 2), dtype=np.int64)
    social = SocialGraph.from_edges(P, pairs)

    g_join = rng.standard_normal((P, k))
    rho = cfg.role_correlation
    own = rho * g_join + np.sqrt(1.0 - rho * rho) * rng.standard_normal((P, k))
    # launch taste leans on what the circle would join; friendless users keep
    # a pure own component regardless of the mix
    friend_join = np.zeros((P, k))
    for u in range(P):
        fr = social.friends(u)
        if fr.size:
            friend_join[u] = g_join[fr].mean(axis=0)
    friend_join = _unit_rows(friend_join) * np.sqrt(k)
    mix = np.where(np.diff(social.indptr) > 0, cfg.launch_social_mix, 0.0)[:, None]
    g_launch = mix * friend_join + (1.0 - mix) * own

    activity = rng.gamma(cfg.activity_concentration, size=P)
    activity /= activity.sum()
    return PlantedModel(
        launch_vecs=_unit_rows(g_launch),
        join_vecs=_unit_rows(g_join),
        item_vecs=_unit_rows(rng.standard_normal((Q, k))),
        activity=activity,
        social=social,
        item_temp=cfg.item_temp,
        join_scale=cfg.join_scale,
        join_bias=cfg.join_bias,
        success_threshold=cfg.success_threshold,
    )


# uniforms drawn per block while locating the records' draws
LOCATE_BLOCK = 4096
# softmax cells (initiators x items) computed per block when drawing items
ITEM_CELLS = 1 << 16
# records whose joins are drawn per block
JOIN_RECORDS = 1024


def simulate(planted: PlantedModel, cfg: SynthConfig, rng: np.random.Generator) -> BehaviorLog:
    """Emit num_records launches; the first P/Q force initiator/item coverage.

    Follows the draw contract of the module docstring. A draw ``x`` from
    weights ``w`` is ``cdf.searchsorted(x, side="right")`` with ``cdf`` the
    cumsum of ``w`` over its last entry, which is what ``Generator.choice(n,
    p=w)`` returns, and friend ``f`` joins when its draw is below
    ``sigmoid(join_scale * <join_vecs[f], item_vecs[item]> + join_bias)``
    (``join_probs`` in ``tests/oracles.py``). The draws are made in bulk: one
    pass over the records finds each one's initiator and where its draws
    start, then items are drawn per initiator (one softmax CDF row each) and
    joins per record block, with the join probabilities built once per
    distinct (initiator, item) pair.
    """
    P, Q = cfg.num_users, cfg.num_items
    start = rng.bit_generator.state
    initiator, first, item_draw = _locate(planted, rng, P, Q, cfg.num_records)
    item = _draw_items(planted, initiator, item_draw, Q)
    rng.bit_generator.state = start
    part_indptr, participants = _draw_joins(planted, rng, initiator, item, first)
    success = np.diff(part_indptr) >= planted.success_threshold
    return BehaviorLog(initiator, item, success, part_indptr, participants, P, Q)


def _locate(planted: PlantedModel, rng: np.random.Generator, P: int, Q: int, n: int):
    """Each record's initiator, the stream position of its first draw (plus
    the stream length at ``first[n]``) and its item draw's uniform.

    Reads the stream in blocks and leaves ``rng`` past the last block."""
    cdf = planted.activity.cumsum()
    cdf /= cdf[-1]
    # bisect_right on the list is cdf.searchsorted(x, side="right")
    cdf = cdf.tolist()
    degrees = planted.social.degrees.tolist()
    initiator = np.arange(n, dtype=np.int64)
    first = np.empty(n + 1, dtype=np.int64)
    item_draw = np.zeros(n)

    def refill(at, end):
        if at > end:
            rng.random(at - end)  # join draws past the block
        return rng.random(LOCATE_BLOCK).tolist(), at, at + LOCATE_BLOCK

    at = base = end = 0  # the current block holds stream positions [base, end)
    block = []
    for t in range(n):
        first[t] = at
        u = t
        if t >= P:
            if at >= end:
                block, base, end = refill(at, end)
            u = bisect_right(cdf, block[at - base])
            initiator[t] = u
            at += 1
        if t >= Q:
            if at >= end:
                block, base, end = refill(at, end)
            item_draw[t] = block[at - base]
            at += 1
        at += degrees[u]
    first[n] = at
    return initiator, first, item_draw


def _draw_items(planted: PlantedModel, initiator: np.ndarray, item_draw: np.ndarray, Q: int) -> np.ndarray:
    """Records ``t < Q`` launch item ``t``; the rest draw from their
    initiator's softmax, whose CDF row is built once per initiator, for a
    block of initiators at a time."""
    item = np.arange(initiator.shape[0], dtype=np.int64)
    order = np.argsort(initiator[Q:], kind="stable") + Q
    users = initiator[order]
    starts = np.flatnonzero(np.diff(users, prepend=-1))  # each initiator's first record in order
    launchers = users[starts].tolist()
    bounds = [*starts.tolist(), users.shape[0]]
    rows = max(1, ITEM_CELLS // Q)
    for b0 in range(0, len(launchers), rows):
        block = launchers[b0 : b0 + rows]
        # the steps of item_probs in tests/oracles.py, one gemv per row
        cdf = np.empty((len(block), Q))
        for r, u in enumerate(block):
            cdf[r] = planted.launch_vecs[u] @ planted.item_vecs.T
        cdf /= planted.item_temp
        cdf -= cdf.max(axis=1, keepdims=True)
        np.exp(cdf, out=cdf)
        cdf /= cdf.sum(axis=1, keepdims=True)
        np.cumsum(cdf, axis=1, out=cdf)
        cdf /= cdf[:, -1:].copy()
        for r in range(len(block)):
            recs = order[bounds[b0 + r] : bounds[b0 + r + 1]]
            item[recs] = cdf[r].searchsorted(item_draw[recs], side="right")
    return item


def _draw_joins(planted: PlantedModel, rng: np.random.Generator, initiator: np.ndarray, item: np.ndarray,
                first: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Participants of every record, as ``(part_indptr, part_indices)``.

    Redraws the stream block by block from ``first``, so ``rng`` ends after
    the last record's draws. Join probabilities are computed once per
    distinct (initiator, item) pair with the gemv of ``join_probs`` in
    ``tests/oracles.py``."""
    Q = planted.num_items
    indptr, indices = planted.social.indptr, planted.social.indices
    degrees = np.diff(indptr)
    pairs, pair_of = np.unique(initiator * Q + item, return_inverse=True)
    pair_user, pair_item = np.divmod(pairs, Q)
    pair_ptr = np.zeros(pairs.shape[0] + 1, dtype=np.int64)
    np.cumsum(degrees[pair_user], out=pair_ptr[1:])
    # friend_vecs[a:b] is join_vecs[friends(u)]: the same values, shape and
    # strides, so the same gemv
    friend_vecs = planted.join_vecs[indices]
    item_rows = list(planted.item_vecs)
    p = np.empty(int(pair_ptr[-1]))
    ptr = indptr.tolist()
    for u, i, lo, hi in zip(pair_user.tolist(), pair_item.tolist(), pair_ptr.tolist(), pair_ptr[1:].tolist()):
        if lo < hi:
            p[lo:hi] = friend_vecs[ptr[u] : ptr[u + 1]] @ item_rows[i]
    del friend_vecs, item_rows
    # p = sigmoid(join_scale * p + join_bias), in place, in join_probs' order
    p *= planted.join_scale
    p += planted.join_bias
    np.negative(p, out=p)
    np.exp(p, out=p)
    p += 1.0
    np.divide(1.0, p, out=p)
    slot_of = pair_ptr[pair_of]
    del pairs, pair_of, pair_user, pair_item, pair_ptr

    n = initiator.shape[0]
    part_indptr = np.zeros(n + 1, dtype=np.int64)  # participant counts until the cumsum
    chunks = []
    for t0 in range(0, n, JOIN_RECORDS):
        t1 = min(n, t0 + JOIN_RECORDS)
        draws = rng.random(int(first[t1] - first[t0]))
        deg = degrees[initiator[t0:t1]]
        ends = np.cumsum(deg)
        lead = ends - deg  # each record's first slot in the block
        slot = np.arange(ends[-1])
        # a record's join draws are the last deg of its draws
        joined = draws[np.repeat(first[t0 + 1 : t1 + 1] - first[t0] - ends, deg) + slot] < (
            p[np.repeat(slot_of[t0:t1] - lead, deg) + slot]
        )
        chunks.append(indices[np.repeat(indptr[initiator[t0:t1]] - lead, deg) + slot][joined])
        running = np.concatenate(([0], np.cumsum(joined)))
        part_indptr[t0 + 1 : t1 + 1] = running[ends] - running[lead]
    np.cumsum(part_indptr, out=part_indptr)
    return part_indptr, np.concatenate(chunks)


@dataclass
class SynthResult:
    behavior_path: str
    social_path: str
    planted_path: str
    log: BehaviorLog
    planted: PlantedModel
    counters: dict


def generate(cfg: SynthConfig, seed: int, outdir: str) -> SynthResult:
    """Write behaviors.tsv, social.tsv, and planted.npz; returns them plus counters."""
    problems = cfg.validate()
    if problems:
        raise ValueError("invalid synthetic config:\n  " + "\n  ".join(problems))
    rng = np.random.default_rng(seed)
    planted = build_planted(cfg, rng)
    logb = simulate(planted, cfg, rng)

    os.makedirs(outdir, exist_ok=True)
    behavior_path = os.path.join(outdir, "behaviors.tsv")
    social_path = os.path.join(outdir, "social.tsv")
    planted_path = os.path.join(outdir, "planted.npz")
    write_behaviors(behavior_path, logb)
    write_social(social_path, planted.social)
    save_planted(planted_path, planted)

    n_success = int(np.count_nonzero(logb.success))
    counters = {
        "num_users": cfg.num_users,
        "num_items": cfg.num_items,
        "num_behaviors": len(logb),
        "num_success": n_success,
        "num_failed": len(logb) - n_success,
        "num_social_edges": planted.social.num_edges,
    }
    with open(os.path.join(outdir, "generation.json"), "w", encoding="utf-8") as fh:
        json.dump({"config": cfg.to_dict(), "seed": seed, "counters": counters}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return SynthResult(behavior_path, social_path, planted_path, logb, planted, counters)


def save_planted(path: str, planted: PlantedModel) -> None:
    write_npz(path, {
        "launch_vecs": planted.launch_vecs,
        "join_vecs": planted.join_vecs,
        "item_vecs": planted.item_vecs,
        "activity": planted.activity,
        "social_indptr": planted.social.indptr,
        "social_indices": planted.social.indices,
        "scalars": np.array(
            [planted.item_temp, planted.join_scale, planted.join_bias, float(planted.success_threshold)]
        ),
    })

